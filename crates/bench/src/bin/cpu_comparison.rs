//! §4.4 "Comparison with the CPU implementation": FZ-GPU (modeled A100
//! kernel time) vs FZ-OMP (the native fast path, measured wall time on
//! this host) per dataset, and FZ-OMP vs SZ-OMP on the 3D datasets (SZ-OMP
//! only supports 3D).
//!
//! Note (EXPERIMENTS.md): the paper's 31.8–42.4x GPU-vs-CPU speedups
//! compare an A100 against a 32-core Xeon; ours compare a *modeled* A100
//! against whatever host runs this binary, so the absolute factor shifts
//! with the host while the ordering FZ-GPU >> FZ-OMP > SZ-OMP holds.

use std::time::Instant;

use fzgpu_baselines::SzOmp;
use fzgpu_bench::{
    all_fields, eb_config, fmt, mean, parse_args, round_trip, scale_of, shape_of, Table,
};
use fzgpu_core::quant::ErrorBound;
use fzgpu_core::FzNative;
use fzgpu_sim::device::A100;

const USAGE: &str = "usage:\n  cpu_comparison [--scale reduced|full]";

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let fields = all_fields(scale);
    let eb = ErrorBound::RelToRange(1e-3);
    // Host wall rows time compression alone, in GB/s of input.
    let host_gbps = |n: usize, seconds: f64| (n * 4) as f64 / seconds / 1e9;
    println!(
        "CPU comparison (rel eb 1e-3): FZ-GPU (modeled A100) vs FZ-OMP vs SZ-OMP (measured)\n"
    );

    let mut t = Table::new(&[
        "dataset",
        "FZ-GPU GB/s",
        "FZ-OMP GB/s",
        "GPU/OMP",
        "SZ-OMP GB/s",
        "FZ-OMP/SZ-OMP",
    ]);
    let mut gpu_omp = Vec::new();
    let mut omp_sz = Vec::new();
    for field in &fields {
        let shape = shape_of(field);
        let n = field.data.len();

        let fz_gpu = round_trip(&eb_config("fz", &field.data, 1e-3), A100, &field.data, shape);
        let g = fz_gpu.expect("fz-gpu runs everywhere").throughput_gbps(n);

        let mut fz_omp = FzNative::new();
        // Warm-up + best-of-3 to stabilize the wall-clock measurement.
        let mut best = 0.0f64;
        for _ in 0..3 {
            let t0 = Instant::now();
            let _stream = fz_omp.compress(&field.data, shape, eb);
            best = best.max(host_gbps(n, t0.elapsed().as_secs_f64()));
        }
        gpu_omp.push(g / best);

        let eb_abs = eb.resolve(&field.data);
        let t0 = Instant::now();
        let sz_gbps = SzOmp
            .compress(&field.data, shape, eb_abs)
            .map(|_| host_gbps(n, t0.elapsed().as_secs_f64()));
        let (sz_cell, ratio_cell) = match sz_gbps {
            Some(s) => {
                omp_sz.push(best / s);
                (fmt(s), fmt(best / s))
            }
            None => ("- (3D only)".into(), "-".into()),
        };
        t.row(vec![field.dataset.into(), fmt(g), fmt(best), fmt(g / best), sz_cell, ratio_cell]);
    }
    print!("{}", t.render());
    println!(
        "\navg FZ-GPU / FZ-OMP speedup: {:.1}x (paper: 31.8x-42.4x vs a 32-core Xeon)",
        mean(&gpu_omp)
    );
    println!(
        "avg FZ-OMP / SZ-OMP speedup: {:.1}x (paper: 1.7x-2.5x on 3D datasets)",
        mean(&omp_sz)
    );
}
