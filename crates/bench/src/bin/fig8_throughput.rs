//! Figures 8 & 9: compression throughput of cuSZ, cuSZ-ncb, cuZFP, cuSZx,
//! MGARD-GPU, and FZ-GPU across datasets and error bounds.
//!
//! `--device a100` (default, Fig. 8) or `--device a4000` (Fig. 9). cuZFP's
//! bars use the bitrate whose PSNR matches FZ-GPU's at each bound, as in
//! the paper. The summary prints the headline speedups (§4.4).

use fzgpu_baselines::cusz::codebook_seconds;
use fzgpu_bench::{
    all_fields, device_of, eb_config, fmt, mean, parse_args, round_trip, scale_of, shape_of,
    zfp_match_psnr, Table, REL_EBS,
};
use fzgpu_metrics::psnr;

const USAGE: &str = "usage:\n  fig8_throughput [--device a100|a4000] [--scale reduced|full]";

fn main() {
    let (spec, scale) = parse_args(USAGE, |args| Ok((device_of(args)?, scale_of(args)?)));
    let fields = all_fields(scale);

    println!(
        "Figure {}: compressor throughputs (GB/s) on {} for range-relative error bounds\n",
        if spec.name == "A100" { 8 } else { 9 },
        spec.name
    );

    let mut speedup_cusz = Vec::new();
    let mut speedup_ncb = Vec::new();
    let mut speedup_zfp = Vec::new();
    let mut speedup_szx = Vec::new();
    let mut speedup_mgard = Vec::new();

    for field in &fields {
        let shape = shape_of(field);
        let n = field.data.len();
        let mut t =
            Table::new(&["rel eb", "cuSZ", "cuSZ-ncb", "cuZFP", "cuSZx", "MGARD-GPU", "FZ-GPU"]);
        for &eb in &REL_EBS {
            // Every compressor runs through the shared round trip; cuSZ's
            // also yields the no-codebook (ncb) column.
            let run_of =
                |name| round_trip(&eb_config(name, &field.data, eb), spec, &field.data, shape);

            let fz_run = run_of("fz").unwrap();
            let fz_gbps = fz_run.throughput_gbps(n);
            let fz_psnr = psnr(&field.data, &fz_run.reconstructed);

            let cusz_run = run_of("cusz").unwrap();
            let cusz_gbps = cusz_run.throughput_gbps(n);
            let ncb_seconds = cusz_run.compress_time - codebook_seconds(&spec);
            let ncb_gbps = (n * 4) as f64 / ncb_seconds / 1e9;
            speedup_cusz.push(fz_gbps / cusz_gbps);
            speedup_ncb.push(fz_gbps / ncb_gbps);

            let zfp_gbps = match zfp_match_psnr(spec, &field.data, shape, fz_psnr) {
                Some((_, run)) => {
                    let g = run.throughput_gbps(n);
                    speedup_zfp.push(fz_gbps / g);
                    fmt(g)
                }
                None => "-".into(),
            };

            let szx_run = run_of("cuszx").unwrap();
            let szx_gbps = szx_run.throughput_gbps(n);
            speedup_szx.push(fz_gbps / szx_gbps);

            let mgard_gbps = match run_of("mgard") {
                Ok(run) => {
                    let g = run.throughput_gbps(n);
                    speedup_mgard.push(fz_gbps / g);
                    fmt(g)
                }
                Err(_) => "-".into(),
            };

            t.row(vec![
                format!("{eb:.0e}"),
                fmt(cusz_gbps),
                fmt(ncb_gbps),
                zfp_gbps,
                fmt(szx_gbps),
                mgard_gbps,
                fmt(fz_gbps),
            ]);
        }
        println!("== {} ({}) ==", field.dataset, field.dims.to_string_paper());
        print!("{}", t.render());
        println!();
    }

    println!("== Summary: FZ-GPU speedups on {} (paper §4.4) ==", spec.name);
    println!(
        "vs cuSZ:      avg {:.1}x, max {:.1}x  (paper A100: avg 4.2x, max 11.2x)",
        mean(&speedup_cusz),
        speedup_cusz.iter().copied().fold(0.0, f64::max)
    );
    println!("vs cuSZ-ncb:  avg {:.1}x              (paper: ~2x)", mean(&speedup_ncb));
    println!("vs cuZFP:     avg {:.1}x              (paper A100: avg 2.3x)", mean(&speedup_zfp));
    println!(
        "vs cuSZx:     avg {:.2}x              (paper: 1/1.5x = 0.67x — cuSZx is faster)",
        mean(&speedup_szx)
    );
    println!("vs MGARD-GPU: avg {:.0}x              (paper: 45.7-87x)", mean(&speedup_mgard));
}
