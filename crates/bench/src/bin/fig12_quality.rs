//! Figure 12: reconstructed data quality on the Hurricane QSNOW-like field
//! at a similar compression ratio (~22.8x), comparing PSNR, SSIM, and the
//! preservation of the value distribution across all five compressors.

use fzgpu_bench::{eb_config, fmt, parse_args, round_trip, scale_of, Run, Table};
use fzgpu_core::lorenzo::Shape;
use fzgpu_data::DatasetInfo;
use fzgpu_metrics::{distribution::tv_distance, histogram_f32, psnr, ssim_2d};
use fzgpu_sim::device::A100;
use fzgpu_store::CodecConfig;

const USAGE: &str = "usage:\n  fig12_quality [--scale reduced|full]";

const TARGET_CR: f64 = 22.8;

/// Search the eb-driven compressor `name` for the bound whose ratio lands
/// nearest the target CR.
fn search_eb(name: &str, data: &[f32], shape: Shape) -> Option<Run> {
    let mut best: Option<(f64, Run)> = None;
    for exp in 0..24 {
        let eb = 1e-5 * 10f64.powf(exp as f64 / 6.0); // 1e-5 .. ~1e-1
        let Ok(run) = round_trip(&eb_config(name, data, eb), A100, data, shape) else {
            continue;
        };
        let d = (run.ratio(data.len()).ln() - TARGET_CR.ln()).abs();
        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
            best = Some((d, run));
        }
    }
    best.map(|(_, r)| r)
}

/// Search the fixed-rate compressor (cuZFP) for the bitrate whose ratio
/// lands nearest the target CR.
fn search_rate(data: &[f32], shape: Shape) -> Option<Run> {
    let mut best: Option<(f64, Run)> = None;
    for rate10 in 5..80 {
        let rate = rate10 as f64 / 10.0;
        let run = round_trip(&CodecConfig::CuZfp { rate }, A100, data, shape).ok()?;
        let d = (run.ratio(data.len()).ln() - TARGET_CR.ln()).abs();
        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
            best = Some((d, run));
        }
    }
    best.map(|(_, r)| r)
}

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let field = DatasetInfo::generate_qsnow(scale);
    let shape = field.dims.as_3d();
    let n = field.data.len();
    let (nz, _, _) = shape;
    let slice = nz / 2;
    let (ny, nx, orig_slice) = field.slice_z(slice);
    let (lo, hi) = field.range();
    let orig_hist = histogram_f32(&field.data, lo, hi, 64);

    println!(
        "Figure 12: reconstructed quality on {} {} (slice {slice}), target CR ~{TARGET_CR}\n",
        field.dataset, field.name
    );
    let mut t = Table::new(&["compressor", "CR", "PSNR dB", "SSIM", "TV-dist", "GB/s"]);

    let mut report = |name: &str, run: Option<Run>| {
        let Some(run) = run else {
            t.row(vec![name.into(), "-".into(), "-".into(), "-".into(), "-".into(), "-".into()]);
            return;
        };
        let rec_slice: Vec<f32> =
            run.reconstructed[slice * ny * nx..(slice + 1) * ny * nx].to_vec();
        let rec_hist = histogram_f32(&run.reconstructed, lo, hi, 64);
        t.row(vec![
            name.into(),
            fmt(run.ratio(n)),
            fmt(psnr(&field.data, &run.reconstructed)),
            format!("{:.4}", ssim_2d(&orig_slice, &rec_slice, ny, nx)),
            format!("{:.4}", tv_distance(&orig_hist, &rec_hist)),
            fmt(run.throughput_gbps(n)),
        ]);
    };

    for (label, name) in [
        ("FZ-GPU", "fz"),
        ("cuSZ", "cusz"),
        ("cuZFP", "cuzfp"),
        ("cuSZx", "cuszx"),
        ("MGARD-GPU", "mgard"),
    ] {
        let run = match name {
            "cuzfp" => search_rate(&field.data, shape),
            _ => search_eb(name, &field.data, shape),
        };
        report(label, run);
    }

    print!("{}", t.render());
    println!("\npaper: FZ-GPU/cuSZ share the highest SSIM and identical visuals;");
    println!("MGARD-GPU slightly higher PSNR at ~13x lower throughput; cuZFP/cuSZx lower PSNR.");
}
