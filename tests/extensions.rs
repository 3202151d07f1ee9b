//! Integration tests for the beyond-paper extensions: chunked archives,
//! full 1D kernel fusion, the multi-GPU cluster model, and the
//! write-race detector — wired through the public facade.

use fz_gpu::core::{Archive, ErrorBound, FzGpu, FzOptions};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::Cluster;

fn wave(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.007).sin() * 3.0 + (i as f32 * 0.0001).cos()).collect()
}

#[test]
fn archive_spans_devices() {
    // Chunks compressed on different devices interleave in one archive.
    let data = wave(12_000);
    let mut a100 = FzGpu::new(A100);
    let mut a4000 = FzGpu::new(fz_gpu::sim::device::A4000);
    let mut chunks = Vec::new();
    let mut total = 0usize;
    for (i, chunk) in data.chunks(4096).enumerate() {
        let fz = if i % 2 == 0 { &mut a100 } else { &mut a4000 };
        chunks.push(fz.compress(chunk, (1, 1, chunk.len()), ErrorBound::Abs(1e-3)).bytes);
        total += chunk.len();
    }
    let archive = Archive::from_streams(total, chunks);
    let bytes = archive.to_bytes();
    let parsed = Archive::from_bytes(&bytes).unwrap();
    let back = parsed.decompress(&mut a100).unwrap();
    for (&x, &y) in data.iter().zip(&back) {
        assert!((x - y).abs() <= 1.1e-3);
    }
}

#[test]
fn fused_1d_inside_archive_is_bit_compatible() {
    let data = wave(9_000);
    let mut normal = FzGpu::new(A100);
    let mut fused =
        FzGpu::with_options(A100, FzOptions { full_fusion_1d: true, ..FzOptions::default() });
    let a = Archive::compress(&mut normal, &data, 3000, ErrorBound::Abs(1e-3));
    let b = Archive::compress(&mut fused, &data, 3000, ErrorBound::Abs(1e-3));
    assert_eq!(a.to_bytes(), b.to_bytes());
}

#[test]
fn cluster_contention_beats_peak_only_in_aggregate() {
    let c = Cluster::new(A100, 4);
    let alone = c.transfer_bandwidth(1);
    let contended = c.transfer_bandwidth(4);
    assert!(contended < alone);
    // Aggregate still grows with more GPUs.
    assert!(4.0 * contended > alone);
}

#[test]
fn race_detector_is_clean_on_the_full_pipeline() {
    // Every kernel of compress + decompress writes disjoint elements —
    // the invariant the UnsafeCell contract in fzgpu-sim relies on.
    let data = wave(8_192);
    let mut fz = FzGpu::new(A100);
    // Reach through the facade: build our own Gpu with detection on and
    // drive the raw kernels.
    let mut gpu = fz_gpu::sim::Gpu::new(A100);
    gpu.enable_race_detection();
    let d = fz_gpu::sim::GpuBuffer::from_host(&data);
    let codes = fz_gpu::core::gpu::quant::pred_quant_v2(&mut gpu, &d, (1, 1, 8192), 1e-3);
    let words = fz_gpu::sim::GpuBuffer::from_host(&fz_gpu::core::pack::pack_codes(&codes.to_vec()));
    let (shuffled, flags, _bits) = fz_gpu::core::gpu::bitshuffle::bitshuffle_mark(
        &mut gpu,
        &words,
        fz_gpu::core::ShuffleVariant::Fused,
    );
    let wide = fz_gpu::core::gpu::encode::widen_flags(&mut gpu, &flags);
    let (offsets, present) = fz_gpu::core::gpu::encode::flag_offsets(&mut gpu, &wide);
    let _payload =
        fz_gpu::core::gpu::encode::compact(&mut gpu, &shuffled, &flags, &offsets, present);
    assert!(
        gpu.races().is_empty(),
        "pipeline kernels must write disjointly: {:?}",
        gpu.races().first()
    );
    // The compressor API still works alongside.
    let c = fz.compress(&data, (1, 1, 8192), ErrorBound::Abs(1e-3));
    assert!(c.ratio() > 1.0);
}

#[test]
fn race_detector_also_clean_on_decode_kernels() {
    let data = wave(4_096);
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, (1, 1, 4096), ErrorBound::Abs(1e-3));
    // Decode through a detection-enabled device.
    let mut gpu = fz_gpu::sim::Gpu::new(A100);
    gpu.enable_race_detection();
    let (header, bit_flags, payload) = fz_gpu::core::format::disassemble(&c.bytes).unwrap();
    let d_bits = fz_gpu::sim::GpuBuffer::from_host(&bit_flags);
    let d_payload = fz_gpu::sim::GpuBuffer::from_host(&payload);
    let flags = fz_gpu::core::gpu::decode::expand_flags(&mut gpu, &d_bits, header.num_blocks);
    let wide = fz_gpu::core::gpu::encode::widen_flags(&mut gpu, &flags);
    let (offsets, _present) = fz_gpu::core::gpu::encode::flag_offsets(&mut gpu, &wide);
    let shuffled = fz_gpu::core::gpu::decode::scatter(&mut gpu, &d_payload, &flags, &offsets);
    let words = fz_gpu::core::gpu::decode::bit_unshuffle(&mut gpu, &shuffled);
    let out = fz_gpu::core::gpu::decode::inverse_lorenzo(&mut gpu, &words, header.shape, header.eb);
    assert!(gpu.races().is_empty(), "decode kernels race: {:?}", gpu.races().first());
    assert_eq!(out.to_vec(), FzGpu::new(A100).decompress(&c).unwrap());
}
