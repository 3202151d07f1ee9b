//! Cross-compressor behavioural contracts from the paper's evaluation
//! narrative, checked end to end on one field.

use fz_gpu::core::quant::ErrorBound;
use fz_gpu::data::{synth, Dims};
use fz_gpu::metrics::psnr;
use fz_gpu::sim::device::A100;
use fz_gpu::store::{CodecConfig, Registry};

const SHAPE: (usize, usize, usize) = (12, 40, 40);

fn field() -> Vec<f32> {
    synth::multiscale(Dims::D3(SHAPE.0, SHAPE.1, SHAPE.2), 21, 32, 1.6, 0.004)
}

/// Error-bounded codec `name` at range-relative bound `rel` over `data`.
fn eb(name: &str, data: &[f32], rel: f64) -> CodecConfig {
    CodecConfig::from_cli(name, Some(ErrorBound::RelToRange(rel).resolve(data)), None).unwrap()
}

/// Compress and decompress `data` with `cfg`: the compressed bytes the
/// codec accounts, and the reconstruction.
fn round_trip(cfg: &CodecConfig, data: &[f32]) -> (usize, Vec<f32>) {
    let mut codec = Registry::builtin().build(cfg, A100).unwrap();
    let bytes = codec.encode(data, SHAPE).unwrap();
    (codec.accounted_bytes(&bytes, SHAPE).unwrap(), codec.decode(&bytes, SHAPE).unwrap())
}

#[test]
fn cusz_and_fzgpu_share_distortion_at_same_bound() {
    // §4.3: "Since the lossy part of FZ-GPU is the same as cuSZ, their
    // PSNR is the same when we use the same error bound." (v1 handles
    // outliers exactly; on in-range data the quantization is identical.)
    let data = field();
    let mut fz = fz_gpu::core::FzGpu::new(A100);
    let c = fz.compress(&data, SHAPE, ErrorBound::RelToRange(1e-3));
    let fz_rec = fz.decompress(&c).unwrap();
    let (_, cusz_rec) = round_trip(&eb("cusz", &data, 1e-3), &data);
    let p_fz = psnr(&data, &fz_rec);
    let p_cusz = psnr(&data, &cusz_rec);
    assert!((p_fz - p_cusz).abs() < 0.75, "psnr diverged: FZ {p_fz} vs cuSZ {p_cusz}");
}

#[test]
fn mgard_over_preserves_relative_to_cusz() {
    // §4.3: "under the same relative error bound, MGARD-GPU has higher
    // PSNR on all datasets because MGARD-GPU over-preserves".
    let data = field();
    let (_, c) = round_trip(&eb("cusz", &data, 1e-3), &data);
    let (_, m) = round_trip(&eb("mgard", &data, 1e-3), &data);
    assert!(psnr(&data, &m) > psnr(&data, &c));
}

#[test]
fn cuszx_psnr_at_least_matches_bound_but_lower_ratio_than_fz() {
    let data = field();
    let n = data.len();
    let mut fz = fz_gpu::core::FzGpu::new(A100);
    let c = fz.compress(&data, SHAPE, ErrorBound::RelToRange(1e-3));
    let (szx_bytes, _) = round_trip(&eb("cuszx", &data, 1e-3), &data);
    let szx_ratio = (n * 4) as f64 / szx_bytes as f64;
    assert!(
        c.ratio() > szx_ratio,
        "FZ {} should out-compress cuSZx {szx_ratio} (paper: 2.4x average)",
        c.ratio(),
    );
}

#[test]
fn cuzfp_rate_controls_size_not_error() {
    // The paper's core criticism: no error bound — distortion floats.
    let smooth = field();
    let rough: Vec<f32> = smooth
        .iter()
        .enumerate()
        .map(|(i, &v)| v + ((i as u32).wrapping_mul(2654435761) >> 16) as f32 * 1e-4)
        .collect();
    let rate4 = CodecConfig::CuZfp { rate: 4.0 };
    let (a_bytes, a) = round_trip(&rate4, &smooth);
    let (b_bytes, b) = round_trip(&rate4, &rough);
    // Same size either way...
    assert_eq!(a_bytes, b_bytes);
    // ...but different quality.
    assert!(psnr(&smooth, &a) > psnr(&rough, &b) + 3.0);
}

#[test]
fn rle_variant_tracks_huffman_quality_exactly() {
    // Same front end => same reconstruction, different encoders.
    let data = field();
    let (_, h) = round_trip(&eb("cusz", &data, 1e-2), &data);
    let (_, r) = round_trip(&eb("cusz-rle", &data, 1e-2), &data);
    assert_eq!(h, r);
}

#[test]
fn every_compressor_improves_quality_with_tighter_bounds() {
    let data = field();
    for name in ["cusz", "cuszx", "mgard", "cusz-rle"] {
        let (loose_bytes, loose) = round_trip(&eb(name, &data, 1e-2), &data);
        let (tight_bytes, tight) = round_trip(&eb(name, &data, 1e-4), &data);
        assert!(
            psnr(&data, &tight) > psnr(&data, &loose),
            "{name} quality did not improve with tighter bound"
        );
        assert!(tight_bytes > loose_bytes);
    }
}
