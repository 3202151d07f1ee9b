//! The error-bounded-compression contract across every error-bounded
//! compressor in the repository, on fields with different character
//! (smooth, sparse, oscillatory). cuZFP is exempt — it has no bounded
//! mode, which is the paper's core criticism of it.

use fz_gpu::core::quant::ErrorBound;
use fz_gpu::core::{reference, FzGpu};
use fz_gpu::metrics::verify_error_bound;
use fz_gpu::sim::device::A100;
use fz_gpu::store::{CodecConfig, Registry};

const SHAPE: (usize, usize, usize) = (6, 40, 48);

fn smooth() -> Vec<f32> {
    let (nz, ny, nx) = SHAPE;
    (0..nz * ny * nx)
        .map(|i| {
            let z = i / (ny * nx);
            let y = i / nx % ny;
            let x = i % nx;
            (x as f32 * 0.1).sin() + (y as f32 * 0.06).cos() + z as f32 * 0.04
        })
        .collect()
}

fn sparse() -> Vec<f32> {
    let (nz, ny, nx) = SHAPE;
    (0..nz * ny * nx)
        .map(|i| if i % 97 < 5 { ((i % 13) as f32 - 6.0) * 0.8 } else { 0.0 })
        .collect()
}

fn oscillatory() -> Vec<f32> {
    let (nz, ny, nx) = SHAPE;
    (0..nz * ny * nx)
        .map(|i| {
            let x = (i % nx) as f32;
            let y = (i / nx % ny) as f32;
            let z = (i / (ny * nx)) as f32;
            (x * 1.9).sin() * (y * 1.3).cos() * (0.5 + (z * 0.8).sin().abs())
        })
        .collect()
}

/// Allowed slack: f32 representation noise proportional to magnitude.
fn check(name: &str, data: &[f32], reconstructed: &[f32], bound: f64) {
    let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
    verify_error_bound(data, reconstructed, bound + scale * 1e-6)
        .unwrap_or_else(|idx| panic!("{name}: bound violated at {idx}"));
}

fn run_all(data: &[f32], rel_eb: f64) {
    let eb = ErrorBound::RelToRange(rel_eb);

    let mut fz = FzGpu::new(A100);
    let c = fz.compress(data, SHAPE, eb);
    check("FZ-GPU", data, &fz.decompress(&c).unwrap(), c.header.eb);

    let c = reference::compress(data, SHAPE, eb);
    check("oracle", data, &reference::decompress(&c.bytes).unwrap(), c.header.eb);

    for name in ["cusz", "cuszx", "mgard", "sz-omp"] {
        let cfg = CodecConfig::from_cli(name, Some(eb.resolve(data)), None).unwrap();
        let mut codec = Registry::builtin().build(&cfg, A100).unwrap();
        // A codec may decline a field (MGARD when it cannot shrink it).
        if let Ok(bytes) = codec.encode(data, SHAPE) {
            let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let bound = rel_eb * (hi - lo) as f64;
            check(name, data, &codec.decode(&bytes, SHAPE).unwrap(), bound);
        }
    }
}

#[test]
fn bounds_hold_on_smooth_data() {
    for rel_eb in [1e-2, 1e-3, 1e-4] {
        run_all(&smooth(), rel_eb);
    }
}

#[test]
fn bounds_hold_on_sparse_data() {
    for rel_eb in [1e-2, 1e-3] {
        run_all(&sparse(), rel_eb);
    }
}

#[test]
fn bounds_hold_on_oscillatory_data() {
    for rel_eb in [1e-2, 1e-3] {
        run_all(&oscillatory(), rel_eb);
    }
}

#[test]
fn saturation_caveat_is_bounded_to_psnr_not_contract() {
    // FZ-GPU's sign-magnitude codes saturate at |delta| = 32767 (§3.2:
    // "losing these elements' precision will not significantly affect
    // quality"). This documents the behaviour: with a violent step at a
    // tiny bound the contract can be exceeded at the step only.
    let mut data = smooth();
    data[1000] = 1e4;
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-4));
    let back = fz.decompress(&c).unwrap();
    let violations = data
        .iter()
        .zip(&back)
        .filter(|(&a, &b)| (a as f64 - b as f64).abs() > 1e-4 * 1.001 + (a.abs() as f64) * 1e-6)
        .count();
    // Saturation damage is local: a bounded neighborhood of the step, not
    // the whole field.
    assert!(violations > 0, "expected saturation at the step");
    assert!(violations < data.len() / 50, "saturation must stay local, got {violations}");
}
