//! Figure 1: FZ-GPU's compression pipeline vs cuSZ's, with each kernel's
//! share of pipeline time and its throughput, on one Hurricane field at
//! relative error bound 1e-4 (the paper's annotation setting).

use fzgpu_baselines::CuSz;
use fzgpu_bench::{fmt, parse_args, scale_of, Table};
use fzgpu_core::quant::ErrorBound;
use fzgpu_core::FzGpu;
use fzgpu_data::dataset;
use fzgpu_sim::device::A100;
use fzgpu_sim::Event;

const USAGE: &str = "usage:\n  fig1_pipeline [--scale reduced|full]";

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let field = dataset("Hurricane").unwrap().generate(scale);
    let shape = field.dims.as_3d();
    let bytes = field.data.len() * 4;
    let eb_abs = field.abs_bound(1e-4);
    println!(
        "Figure 1: pipeline kernel breakdown — Hurricane {} @ rel eb 1e-4 (A100)\n",
        field.dims.to_string_paper()
    );

    // FZ-GPU pipeline.
    let mut fz = FzGpu::new(A100);
    let _ = fz.compress(&field.data, shape, ErrorBound::Abs(eb_abs));
    let total = fz.kernel_time();
    let mut t = Table::new(&["FZ-GPU kernel", "time %", "throughput GB/s"]);
    // Group the scan sub-launches into one "prefix-sum & encode" stage, as
    // the paper's figure does.
    let mut groups: Vec<(&str, f64)> = vec![
        ("pred-quant (dual-quantization)", 0.0),
        ("bitshuffle + mark (fused)", 0.0),
        ("prefix-sum & encode", 0.0),
    ];
    for (name, time) in fz.kernel_breakdown() {
        let slot = if name.contains("pred_quant") {
            0
        } else if name.contains("bitshuffle") {
            1
        } else {
            2
        };
        groups[slot].1 += time;
    }
    for (name, time) in &groups {
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * time / total),
            fmt(bytes as f64 / time / 1e9),
        ]);
    }
    t.row(vec!["TOTAL".into(), "100%".into(), fmt(bytes as f64 / total / 1e9)]);
    print!("{}", t.render());

    // cuSZ pipeline.
    let mut cusz = CuSz::new(A100);
    let _ = cusz.compress(&field.data, shape, eb_abs);
    let gpu = cusz; // keep borrowck happy while reading timeline below
    let mut t2 = Table::new(&["cuSZ kernel", "time %", "throughput GB/s"]);
    let mut groups2: Vec<(&str, f64)> = vec![
        ("pred-quant (w/ outliers)", 0.0),
        ("outlier gather", 0.0),
        ("histogram", 0.0),
        ("build codebook", 0.0),
        ("Huffman encode", 0.0),
    ];
    let mut total2 = 0.0;
    for e in gpu_timeline(&gpu) {
        let Event::Kernel(k) = e else { continue };
        total2 += k.time;
        let slot = if k.name.contains("pred_quant") {
            0
        } else if k.name.contains("outlier") || k.name.contains("scan") {
            1
        } else if k.name.contains("hist") {
            2
        } else if k.name.contains("codebook") {
            3
        } else {
            4
        };
        groups2[slot].1 += k.time;
    }
    for (name, time) in &groups2 {
        t2.row(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * time / total2),
            fmt(bytes as f64 / time / 1e9),
        ]);
    }
    t2.row(vec!["TOTAL".into(), "100%".into(), fmt(bytes as f64 / total2 / 1e9)]);
    println!();
    print!("{}", t2.render());
    println!("\nFZ-GPU end-to-end is {:.1}x faster than cuSZ on this field.", total2 / total);
}

fn gpu_timeline(cusz: &CuSz) -> &[Event] {
    cusz.timeline()
}
