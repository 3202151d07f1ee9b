//! Figure 11: overall GPU->CPU data-transfer throughput (§4.6),
//! `T_overall = ((BW * CR)^-1 + T_compr^-1)^-1`, with the paper's measured
//! congested PCIe bandwidth of 11.4 GB/s per GPU.

use fzgpu_bench::{
    all_fields, eb_config, fmt, mean, parse_args, round_trip, scale_of, shape_of, zfp_match_psnr,
    Run, Table, REL_EBS,
};
use fzgpu_metrics::{overall_throughput, psnr};
use fzgpu_sim::device::A100;

const USAGE: &str = "usage:\n  fig11_overall [--scale reduced|full]";

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let fields = all_fields(scale);
    let bw = A100.pcie_congested / 1e9; // 11.4 GB/s
    println!("Figure 11: overall CPU-GPU data-transfer throughput (GB/s), A100, link {bw} GB/s\n");

    let mut fz_best = 0usize;
    let mut cells = 0usize;
    let mut no_compression = Vec::new();

    for field in &fields {
        let shape = shape_of(field);
        let n = field.data.len();
        let mut t =
            Table::new(&["rel eb", "cuSZ", "cuZFP", "cuSZx", "MGARD-GPU", "FZ-GPU", "raw link"]);
        for &eb in &REL_EBS {
            let overall = |run: &Run| overall_throughput(bw, run.ratio(n), run.throughput_gbps(n));
            let run_of =
                |name| round_trip(&eb_config(name, &field.data, eb), A100, &field.data, shape);

            let fz_run = run_of("fz").unwrap();
            let fz_overall = overall(&fz_run);
            let fz_psnr = psnr(&field.data, &fz_run.reconstructed);

            let mut row = vec![format!("{eb:.0e}")];
            let mut best_other: f64 = 0.0;

            // Column order matches the table header; cuZFP runs at the rate
            // whose PSNR matches FZ-GPU's.
            for name in ["cusz", "cuzfp", "cuszx", "mgard"] {
                let run = match name {
                    "cuzfp" => zfp_match_psnr(A100, &field.data, shape, fz_psnr).map(|(_, r)| r),
                    _ => run_of(name).ok(),
                };
                let v = run.map(|r| overall(&r));
                best_other = best_other.max(v.unwrap_or(0.0));
                row.push(v.map_or("-".into(), fmt));
            }

            row.push(fmt(fz_overall));
            row.push(fmt(bw));
            t.row(row);
            cells += 1;
            if fz_overall >= best_other {
                fz_best += 1;
            }
            no_compression.push(fz_overall / bw);
        }
        println!("== {} ({}) ==", field.dataset, field.dims.to_string_paper());
        print!("{}", t.render());
        println!();
    }
    println!("== Summary ==");
    println!(
        "FZ-GPU achieves the best overall throughput in {fz_best}/{cells} settings \
         (paper: best on almost all datasets at all bounds)."
    );
    println!(
        "avg gain over the uncompressed link: {:.1}x at 11.4 GB/s effective bandwidth",
        mean(&no_compression)
    );
}
