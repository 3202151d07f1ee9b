//! One Criterion bench target per paper exhibit (Table 1, Figures 1 and
//! 7–12), each running a miniaturized version of the corresponding
//! experiment loop. The full-size regenerators live in `src/bin/`; these
//! keep `cargo bench` exercising every exhibit's code path quickly.

use criterion::{criterion_group, criterion_main, Criterion};
use fzgpu_baselines::SzOmp;
use fzgpu_bench::{eb_config, round_trip, zfp_match_psnr, Run};
use fzgpu_core::quant::ErrorBound;
use fzgpu_core::FzNative;
use fzgpu_data::{synth, Dims};
use fzgpu_metrics::{histogram_f32, overall_throughput, psnr, ssim_2d};
use fzgpu_sim::device::A100;
use std::hint::black_box;

const SHAPE: (usize, usize, usize) = (8, 40, 40);

fn mini_field() -> Vec<f32> {
    synth::multiscale(Dims::D3(SHAPE.0, SHAPE.1, SHAPE.2), 7, 32, 1.5, 0.005)
}

/// One round trip of compressor `name` at the exhibits' 1e-3 bound.
fn run(name: &str, data: &[f32]) -> Run {
    round_trip(&eb_config(name, data, 1e-3), A100, data, SHAPE).expect("mini field round trips")
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_catalog_generation", |b| {
        b.iter(|| {
            // Miniature of every generator family in Table 1.
            let d = Dims::D3(8, 24, 24);
            black_box(synth::multiscale(d, 1, 16, 1.7, 0.004));
            black_box(synth::lognormal(d, 2, 1.8));
            black_box(synth::oscillatory(d, 3));
            black_box(synth::wavefield(d, 4, 0.43));
            black_box(synth::particles(4608, 5, 8, 64.0));
            black_box(synth::sparse_plume(d, 6, 0.12));
        });
    });
}

fn bench_fig1(c: &mut Criterion) {
    let data = mini_field();
    c.bench_function("fig1_pipeline_breakdown", |b| {
        let mut fz = fzgpu_core::FzGpu::new(A100);
        b.iter(|| {
            let _ = black_box(fz.compress(&data, SHAPE, ErrorBound::RelToRange(1e-4)));
            black_box(fz.kernel_breakdown())
        });
    });
}

fn bench_fig7(c: &mut Criterion) {
    let data = mini_field();
    c.bench_function("fig7_rate_distortion_point", |b| {
        b.iter(|| {
            let target = psnr(&data, &run("fz", &data).reconstructed);
            black_box(zfp_match_psnr(A100, &data, SHAPE, target))
        });
    });
}

fn bench_fig8_fig9(c: &mut Criterion) {
    let data = mini_field();
    c.bench_function("fig8_throughput_sweep_point", |b| {
        b.iter(|| {
            let f = run("fz", &data);
            let cz = run("cusz", &data);
            let sx = run("cuszx", &data);
            let ncb = cz.compress_time - fzgpu_baselines::cusz::codebook_seconds(&A100);
            black_box((f.compress_time, cz.compress_time, ncb, sx.compress_time))
        });
    });
}

fn bench_fig10(c: &mut Criterion) {
    let data = mini_field();
    c.bench_function("fig10_ablation_point", |b| {
        b.iter(|| {
            let mut gpu = fzgpu_sim::Gpu::new(A100);
            let d = fzgpu_sim::GpuBuffer::from_host(&data);
            let v1 = fzgpu_core::gpu::quant::pred_quant_v1(&mut gpu, &d, SHAPE, 1e-3);
            let v2 = fzgpu_core::gpu::quant::pred_quant_v2(&mut gpu, &d, SHAPE, 1e-3);
            black_box((v1.0.len(), v2.len()))
        });
    });
}

fn bench_fig11(c: &mut Criterion) {
    let data = mini_field();
    c.bench_function("fig11_overall_throughput_point", |b| {
        b.iter(|| {
            let fz = run("fz", &data);
            black_box(overall_throughput(
                11.4,
                fz.ratio(data.len()),
                fz.throughput_gbps(data.len()),
            ))
        });
    });
}

fn bench_fig12(c: &mut Criterion) {
    let data = synth::sparse_plume(Dims::D3(SHAPE.0, SHAPE.1, SHAPE.2), 9, 0.12);
    c.bench_function("fig12_quality_point", |b| {
        b.iter(|| {
            let fz = run("fz", &data);
            let (ny, nx) = (SHAPE.1, SHAPE.2);
            let mid = SHAPE.0 / 2 * ny * nx;
            let s =
                ssim_2d(&data[mid..mid + ny * nx], &fz.reconstructed[mid..mid + ny * nx], ny, nx);
            let h = histogram_f32(&fz.reconstructed, -1.0, 1.0, 32);
            black_box((s, h))
        });
    });
}

fn bench_cpu_rows(c: &mut Criterion) {
    let data = mini_field();
    let mut g = c.benchmark_group("cpu_comparison_rows");
    g.sample_size(10);
    g.bench_function("fzomp", |b| {
        let mut omp = FzNative::new();
        b.iter(|| black_box(omp.compress(&data, SHAPE, ErrorBound::RelToRange(1e-3))));
    });
    g.bench_function("szomp", |b| {
        let eb_abs = ErrorBound::RelToRange(1e-3).resolve(&data);
        b.iter(|| black_box(SzOmp.compress(&data, SHAPE, eb_abs).expect("3D field")));
    });
    g.finish();
}

fn bench_mgard_row(c: &mut Criterion) {
    let data = mini_field();
    let mut g = c.benchmark_group("fig8_mgard_row");
    g.sample_size(10);
    g.bench_function("mgard", |b| {
        b.iter(|| black_box(run("mgard", &data).compressed_bytes));
    });
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
    bench_table1,
    bench_fig1,
    bench_fig7,
    bench_fig8_fig9,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_cpu_rows,
    bench_mgard_row
}
criterion_main!(figures);
