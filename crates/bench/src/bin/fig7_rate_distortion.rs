//! Figure 7: rate-distortion (PSNR vs bitrate) of the five GPU lossy
//! compressors on all six datasets.
//!
//! FZ-GPU, cuSZ, cuSZx, MGARD-GPU sweep the paper's five range-relative
//! error bounds; cuZFP (fixed-rate only) is evaluated at the bitrate whose
//! PSNR matches FZ-GPU's, exactly as §4.3 describes. `--summary` prints
//! the paper's aggregate claims (ratio improvement over cuZFP / cuSZx).

use fzgpu_bench::{
    all_fields, eb_config, fmt, parse_args, round_trip, scale_of, shape_of, zfp_match_psnr, Table,
    REL_EBS,
};
use fzgpu_metrics::{bitrate, psnr};
use fzgpu_sim::device::A100;

const USAGE: &str = "usage:\n  fig7_rate_distortion [--summary] [--scale reduced|full]";

fn main() {
    let (summary, scale) = parse_args(USAGE, |args| Ok((args.has("--summary"), scale_of(args)?)));
    let fields = all_fields(scale);

    println!("Figure 7: rate-distortion of five GPU lossy compressors (A100)\n");
    let mut fz_vs_zfp: Vec<f64> = Vec::new();
    let mut fz_vs_szx: Vec<f64> = Vec::new();
    let mut fz_vs_cusz: Vec<f64> = Vec::new();

    for field in &fields {
        let shape = shape_of(field);
        let n = field.data.len();
        let mut t = Table::new(&["rel eb", "compressor", "bitrate", "PSNR dB", "ratio"]);
        for &eb in &REL_EBS {
            let run_of =
                |name| round_trip(&eb_config(name, &field.data, eb), A100, &field.data, shape);

            let fz_run = run_of("fz").expect("fz-gpu runs everywhere");
            let fz_psnr = psnr(&field.data, &fz_run.reconstructed);
            let fz_ratio = fz_run.ratio(n);
            push(&mut t, eb, "FZ-GPU", fz_ratio, fz_psnr);

            // Error-bound-driven baselines share the round trip; only the
            // ratio bookkeeping differs per compressor.
            for (label, name) in [("cuSZ", "cusz"), ("cuSZx", "cuszx"), ("MGARD-GPU", "mgard")] {
                if let Ok(run) = run_of(name) {
                    let r = run.ratio(n);
                    push(&mut t, eb, label, r, psnr(&field.data, &run.reconstructed));
                    match name {
                        "cusz" => fz_vs_cusz.push(fz_ratio / r),
                        "cuszx" => fz_vs_szx.push(fz_ratio / r),
                        _ => {}
                    }
                }
            }

            if let Some((rate, run)) = zfp_match_psnr(A100, &field.data, shape, fz_psnr) {
                let p = psnr(&field.data, &run.reconstructed);
                push(&mut t, eb, &format!("cuZFP (r={rate})"), run.ratio(n), p);
                fz_vs_zfp.push(fz_ratio / run.ratio(n));
            } else {
                t.row(vec![
                    format!("{eb:.0e}"),
                    "cuZFP".into(),
                    "-".into(),
                    "(no matching PSNR)".into(),
                    "-".into(),
                ]);
            }
        }
        println!("== {} ({}) ==", field.dataset, field.dims.to_string_paper());
        print!("{}", t.render());
        println!();
    }

    if summary {
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!("== Summary (paper §4.3 claims) ==");
        println!(
            "avg compression-ratio improvement over cuZFP at matched PSNR: {:.2}x (paper: 2.0x)",
            avg(&fz_vs_zfp)
        );
        println!(
            "avg compression-ratio improvement over cuSZx at same eb:      {:.2}x (paper: 2.4x)",
            avg(&fz_vs_szx)
        );
        println!(
            "avg compression-ratio vs cuSZ at same eb:                     {:.2}x (paper: ~1x, up to 1.1x at high eb)",
            avg(&fz_vs_cusz)
        );
    }
}

fn push(t: &mut Table, eb: f64, name: &str, ratio: f64, p: f64) {
    t.row(vec![format!("{eb:.0e}"), name.into(), fmt(bitrate(ratio)), fmt(p), fmt(ratio)]);
}
