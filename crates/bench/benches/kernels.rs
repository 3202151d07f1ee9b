//! Criterion microbenchmarks of every GPU kernel in the FZ-GPU pipeline
//! (and its ablation variants), plus the end-to-end compress/decompress.
//!
//! Wall time here measures the *simulator executing the kernel*; the
//! modeled device time is what the figure binaries report. Both matter:
//! these benches guard the harness's own performance and the relative
//! cost ordering of the kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use fzgpu_core::gpu::bitshuffle::{bitshuffle_mark, ShuffleVariant};
use fzgpu_core::gpu::decode as gdec;
use fzgpu_core::gpu::encode as genc;
use fzgpu_core::gpu::quant::{pred_quant_v1, pred_quant_v2};
use fzgpu_core::pack::pack_codes;
use fzgpu_core::quant::{delta_to_code, ErrorBound};
use fzgpu_core::FzGpu;
use fzgpu_sim::device::A100;
use fzgpu_sim::scan::exclusive_sum;
use fzgpu_sim::{Gpu, GpuBuffer, StatsBudget};
use std::hint::black_box;

const SHAPE: (usize, usize, usize) = (16, 64, 64);
const N: usize = 16 * 64 * 64;

fn field() -> Vec<f32> {
    (0..N)
        .map(|i| {
            let z = i / (64 * 64);
            let y = i / 64 % 64;
            let x = i % 64;
            (x as f32 * 0.1).sin() + (y as f32 * 0.07).cos() + z as f32 * 0.02
        })
        .collect()
}

fn bench_quant(c: &mut Criterion) {
    let data = field();
    let mut g = c.benchmark_group("pred_quant");
    g.sample_size(10);
    g.bench_function("v2_optimized", |b| {
        let mut gpu = Gpu::new(A100);
        let d = GpuBuffer::from_host(&data);
        b.iter(|| black_box(pred_quant_v2(&mut gpu, &d, SHAPE, 1e-3)));
    });
    g.bench_function("v1_original", |b| {
        let mut gpu = Gpu::new(A100);
        let d = GpuBuffer::from_host(&data);
        b.iter(|| black_box(pred_quant_v1(&mut gpu, &d, SHAPE, 1e-3)));
    });
    g.finish();
}

fn bench_bitshuffle(c: &mut Criterion) {
    let data = field();
    let mut gpu = Gpu::new(A100);
    let d = GpuBuffer::from_host(&data);
    let codes = pred_quant_v2(&mut gpu, &d, SHAPE, 1e-3);
    let words = GpuBuffer::from_host(&pack_codes(&codes.to_vec()));
    let mut g = c.benchmark_group("bitshuffle_mark");
    g.sample_size(10);
    for (name, variant) in [
        ("fused", ShuffleVariant::Fused),
        ("unfused", ShuffleVariant::Unfused),
        ("fused_unpadded", ShuffleVariant::FusedUnpadded),
    ] {
        g.bench_function(name, |b| {
            let mut gpu = Gpu::new(A100);
            b.iter(|| black_box(bitshuffle_mark(&mut gpu, &words, variant)));
        });
    }
    g.finish();

    // Counter budget on the production variant: a timing bench can drift
    // with the host, but the fused kernel regressing to bank conflicts or
    // scattered traffic is an algorithmic bug — fail the bench run loudly.
    let mut gpu = Gpu::new(A100);
    gpu.reset_timeline();
    let _ = bitshuffle_mark(&mut gpu, &words, ShuffleVariant::Fused);
    StatsBudget::new("bitshuffle_mark_fused")
        .max_conflict_cycles(0)
        .min_coalescing_efficiency(0.9)
        .assert(&gpu.last_kernel().stats);
}

fn bench_scan_and_compact(c: &mut Criterion) {
    let data = field();
    let mut gpu = Gpu::new(A100);
    let d = GpuBuffer::from_host(&data);
    let codes = pred_quant_v2(&mut gpu, &d, SHAPE, 1e-3);
    let words = GpuBuffer::from_host(&pack_codes(&codes.to_vec()));
    let (shuffled, flags, _) = bitshuffle_mark(&mut gpu, &words, ShuffleVariant::Fused);

    let mut g = c.benchmark_group("encode_phase2");
    g.sample_size(10);
    g.bench_function("device_scan", |b| {
        let mut gpu = Gpu::new(A100);
        let wide = genc::widen_flags(&mut gpu, &flags);
        let mut out: GpuBuffer<u32> = gpu.alloc(wide.len());
        b.iter(|| black_box(exclusive_sum(&mut gpu, &wide, &mut out, wide.len())));
    });
    g.bench_function("compact", |b| {
        let mut gpu = Gpu::new(A100);
        let wide = genc::widen_flags(&mut gpu, &flags);
        let (offsets, present) = genc::flag_offsets(&mut gpu, &wide);
        b.iter(|| black_box(genc::compact(&mut gpu, &shuffled, &flags, &offsets, present)));
    });
    g.finish();
}

fn bench_decode_kernels(c: &mut Criterion) {
    let data = field();
    let mut fz = FzGpu::new(A100);
    let compressed = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));

    let mut g = c.benchmark_group("decode");
    g.sample_size(10);
    g.bench_function("full_decompress", |b| {
        b.iter(|| black_box(fz.decompress(&compressed).unwrap()));
    });
    g.bench_function("bit_unshuffle", |b| {
        let mut gpu = Gpu::new(A100);
        let shuffled = GpuBuffer::from_host(&vec![0x12345678u32; 64 * 1024]);
        b.iter(|| black_box(gdec::bit_unshuffle(&mut gpu, &shuffled)));
    });
    g.bench_function("inverse_lorenzo", |b| {
        let mut gpu = Gpu::new(A100);
        let codes: Vec<u16> = (0..N as i32).map(|i| delta_to_code(i % 5 - 2)).collect();
        let words = GpuBuffer::from_host(&pack_codes(&codes));
        b.iter(|| black_box(gdec::inverse_lorenzo(&mut gpu, &words, SHAPE, 1e-3)));
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let data = field();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("fzgpu_compress_64k", |b| {
        let mut fz = FzGpu::new(A100);
        b.iter(|| black_box(fz.compress(&data, SHAPE, ErrorBound::RelToRange(1e-3))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_quant,
    bench_bitshuffle,
    bench_scan_and_compact,
    bench_decode_kernels,
    bench_pipeline
);
criterion_main!(benches);
