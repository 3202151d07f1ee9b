//! MGARD-GPU baseline: multigrid hierarchical data refactoring +
//! level-wise quantization + DEFLATE lossless.
//!
//! Simplified but structurally faithful MGARD (Ainsworth et al.): a
//! multilevel decomposition where each level predicts the fine-grid points
//! by multilinear interpolation of the coarse grid and stores the residual
//! coefficients; coefficients are uniformly quantized with a per-level
//! budget summing to the user bound, then DEFLATE-compressed (the paper:
//! "MGARD-GPU uses DEFLATE — Huffman + LZ77 — on the CPU, causing low
//! throughput").
//!
//! Behavioural fidelity to the paper's observations:
//! - conservative per-level budgets make MGARD *over-preserve* distortion
//!   (higher PSNR than requested — §4.3);
//! - 1D inputs are rejected ("MGARD-GPU cannot work correctly on 1D
//!   datasets due to memory issues");
//! - when the "compressed" stream exceeds the original size the run fails
//!   (the QMCPACK 1e-4 failure in §4.3);
//! - timing combines a modeled multi-pass GPU refactor (strided, low
//!   efficiency) with CPU-side DEFLATE at a measured-calibrated rate —
//!   throughput lands in the 0.1–1 GB/s regime and barely improves from
//!   A4000 to A100, matching §4.4.

use fzgpu_codecs::deflate;
use fzgpu_codecs::wire::{self, Cursor, WireResult};
use fzgpu_core::lorenzo::{rank_of, Shape};
use fzgpu_sim::DeviceSpec;

use crate::common::{expect_shape, put_shape, volume};

/// CPU DEFLATE throughput used for the timing model, bytes/second
/// (single-stream zlib-class rate; the dominant cost the paper measures).
const DEFLATE_RATE: f64 = 1.6e9;
/// Fraction of peak bandwidth a strided multigrid refactor achieves
/// (latency-bound gather/scatter passes; explains the poor A4000->A100
/// scaling the paper notes).
const REFACTOR_EFFICIENCY: f64 = 0.05;

/// MGARD-GPU stand-in.
pub struct Mgard {
    spec: DeviceSpec,
    last_time: f64,
}

/// An MGARD stream.
pub struct MgardStream {
    /// Field shape.
    pub shape: Shape,
    /// Per-coefficient quantization step used at every level.
    pub step: f64,
    /// Number of multigrid levels.
    pub levels: usize,
    /// DEFLATE-compressed quantized coefficients.
    pub compressed: Vec<u8>,
}

impl MgardStream {
    /// Compressed bytes.
    pub fn size_bytes(&self) -> usize {
        self.compressed.len() + 64
    }

    /// Serialize: shape, quantization step, level count and the DEFLATE
    /// payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_shape(&mut out, self.shape);
        wire::put_f64(&mut out, self.step);
        wire::put_u64(&mut out, self.levels as u64);
        wire::put_bytes(&mut out, &self.compressed);
        out
    }

    /// Parse [`MgardStream::to_bytes`]'s form for a chunk of `shape`, whose
    /// extents fix the level count.
    pub fn from_bytes(bytes: &[u8], shape: Shape) -> WireResult<Self> {
        let mut c = Cursor::new(bytes);
        expect_shape(&mut c, shape)?;
        let s = Self { shape, step: c.f64()?, levels: c.u64()? as usize, compressed: c.bytes()? };
        c.done()?;
        if s.levels != Mgard::levels_for(shape) {
            return Err("level count does not match chunk shape");
        }
        Ok(s)
    }

    /// Decompress.
    pub fn decompress(&self) -> Result<Vec<f32>, &'static str> {
        let bytes = deflate::decompress(&self.compressed, volume(self.shape) * 4)
            .map_err(|_| "DEFLATE payload did not decode to one coefficient per value")?;
        let mut coeffs: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()) as f32 * self.step as f32)
            .collect();
        recompose(&mut coeffs, self.shape, self.levels);
        Ok(coeffs)
    }
}

/// Number of grid points along an axis of length `n` at stride `s`
/// (points at original indices `0, s, 2s, ...`).
#[inline]
fn grid_at(n: usize, s: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (n - 1) / s + 1
    }
}

/// Multilevel forward refactor: replaces fine points with interpolation
/// residuals level by level. Level `l` operates on the grid of points at
/// original stride `2^l`.
fn refactor(data: &mut [f32], shape: Shape, levels: usize) {
    let (nz, ny, nx) = shape;
    for l in 0..levels {
        let s = 1usize << l;
        let grid = (grid_at(nz, s), grid_at(ny, s), grid_at(nx, s));
        level_pass(data, shape, grid, s, false);
    }
}

/// Inverse refactor: undo levels coarse-to-fine.
fn recompose(data: &mut [f32], shape: Shape, levels: usize) {
    let (nz, ny, nx) = shape;
    for l in (0..levels).rev() {
        let s = 1usize << l;
        let grid = (grid_at(nz, s), grid_at(ny, s), grid_at(nx, s));
        level_pass(data, shape, grid, s, true);
    }
}

/// One level: for every grid point with at least one odd coordinate,
/// subtract (`restore = false`) or add (`restore = true`) the multilinear
/// prediction from the even-coordinate (coarser-grid) points.
///
/// Predictions read only all-even points, which this pass never writes, so
/// forward and inverse passes see identical predictor inputs (up to the
/// quantization applied between them).
fn level_pass(
    data: &mut [f32],
    shape: Shape,
    grid: (usize, usize, usize),
    stride: usize,
    restore: bool,
) {
    let (_, ny, nx) = shape;
    let (gz, gy, gx) = grid;
    let idx = |z: usize, y: usize, x: usize| ((z * stride) * ny + y * stride) * nx + x * stride;
    let snapshot = data.to_vec();
    let at = |z: usize, y: usize, x: usize| snapshot[idx(z, y, x)] as f64;
    // Clamped even neighbors along one axis.
    let axis = |i: usize, g: usize| -> (usize, usize) {
        if i % 2 == 1 {
            (i - 1, if i + 1 < g { i + 1 } else { i - 1 })
        } else {
            (i, i)
        }
    };
    for z in 0..gz {
        for y in 0..gy {
            for x in 0..gx {
                if z % 2 == 0 && y % 2 == 0 && x % 2 == 0 {
                    continue; // survives to the coarser level
                }
                let (z0, z1) = axis(z, gz);
                let (y0, y1) = axis(y, gy);
                let (x0, x1) = axis(x, gx);
                let p = (at(z0, y0, x0)
                    + at(z0, y0, x1)
                    + at(z0, y1, x0)
                    + at(z0, y1, x1)
                    + at(z1, y0, x0)
                    + at(z1, y0, x1)
                    + at(z1, y1, x0)
                    + at(z1, y1, x1))
                    / 8.0;
                let target = &mut data[idx(z, y, x)];
                if restore {
                    *target += p as f32;
                } else {
                    *target -= p as f32;
                }
            }
        }
    }
}

impl Mgard {
    /// New instance bound to a device spec (used by the timing model).
    pub fn new(spec: DeviceSpec) -> Self {
        Self { spec, last_time: 0.0 }
    }

    /// Number of levels for a shape (coarsen until the grid is small).
    fn levels_for(shape: Shape) -> usize {
        let (nz, ny, nx) = shape;
        let m = nx.max(ny).max(nz);
        let mut levels = 0;
        let mut g = m;
        while g > 8 && levels < 4 {
            g = g.div_ceil(2);
            levels += 1;
        }
        levels.max(1)
    }

    /// Compress. Fails, naming the reason, on 1D fields (mirroring
    /// MGARD-GPU's failure) and when the stream would not be smaller than
    /// the original.
    pub fn compress(
        &mut self,
        data: &[f32],
        shape: Shape,
        eb_abs: f64,
    ) -> Result<MgardStream, &'static str> {
        if rank_of(shape) == 1 {
            // "cannot work correctly on 1D datasets"
            return Err("MGARD requires 2D or 3D chunks");
        }
        let levels = Self::levels_for(shape);
        let mut coeffs = data.to_vec();
        refactor(&mut coeffs, shape, levels);

        // Conservative uniform quantization: each reconstruction point
        // accumulates error from at most (levels + 1) coefficient chains
        // with interpolation gain <= 1, so a per-coefficient budget of
        // eb / (levels + 1) over-preserves the bound (the paper: MGARD
        // "over-preserves the data distortion").
        let step = 2.0 * eb_abs / (levels as f64 + 1.0);
        let q: Vec<i32> = coeffs
            .iter()
            .map(|&c| ((c as f64 / step).round()).clamp(i32::MIN as f64, i32::MAX as f64) as i32)
            .collect();
        let bytes: Vec<u8> = q.iter().flat_map(|v| v.to_le_bytes()).collect();
        let compressed = deflate::compress(&bytes);

        // Timing model (documented in DESIGN.md): multi-pass strided
        // refactor on device + CPU DEFLATE at a fixed rate, joined
        // serially (the real pipeline ships coefficients to the host).
        let refactor_bytes = (data.len() * 4 * 2 * levels) as f64;
        let t_refactor = refactor_bytes / (self.spec.mem_bandwidth * REFACTOR_EFFICIENCY);
        let t_deflate = bytes.len() as f64 / DEFLATE_RATE;
        self.last_time = t_refactor + t_deflate;

        if compressed.len() + 64 >= data.len() * 4 {
            // "compressed size larger than the original"
            return Err("MGARD output is not smaller than its input");
        }
        Ok(MgardStream { shape, step, levels, compressed })
    }

    /// Modeled compression time of the last call, seconds.
    pub fn kernel_time(&self) -> f64 {
        self.last_time
    }
}

/// The paper's observation that MGARD-GPU barely speeds up on better
/// hardware: expose the modeled ratio for the tests/benches.
pub fn scaling_ratio(a: &DeviceSpec, b: &DeviceSpec) -> f64 {
    // DEFLATE (device-independent) dominates; only the refactor term
    // scales with bandwidth.
    let t = |spec: &DeviceSpec| {
        1.0 / (spec.mem_bandwidth * REFACTOR_EFFICIENCY) * 8.0 + 4.0 / DEFLATE_RATE
    };
    t(b) / t(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_metrics::{max_abs_error, psnr};
    use fzgpu_sim::device::{A100, A4000};

    fn smooth_2d(ny: usize, nx: usize) -> Vec<f32> {
        (0..ny * nx)
            .map(|i| ((i % nx) as f32 * 0.05).sin() * 3.0 + ((i / nx) as f32 * 0.08).cos())
            .collect()
    }

    #[test]
    fn refactor_recompose_roundtrip_without_quantization() {
        let shape = (1, 33, 47);
        let orig = smooth_2d(33, 47);
        let mut c = orig.clone();
        refactor(&mut c, shape, 3);
        recompose(&mut c, shape, 3);
        for (a, b) in orig.iter().zip(&c) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_over_preserves_bound() {
        let shape = (1, 64, 64);
        let data = smooth_2d(64, 64);
        let eb = 1e-2;
        let mut m = Mgard::new(A100);
        let s = m.compress(&data, shape, eb).unwrap();
        let back = s.decompress().unwrap();
        let err = max_abs_error(&data, &back);
        assert!(err <= eb, "err {err} > eb {eb}");
        // Over-preservation: actual error well under the bound.
        assert!(err < 0.8 * eb, "expected over-preservation, err {err}");
    }

    #[test]
    fn rejects_1d_fields() {
        let mut m = Mgard::new(A100);
        let err = m.compress(&vec![1.0f32; 1000], (1, 1, 1000), 1e-3).err().expect("1D rejected");
        assert!(err.contains("2D or 3D"), "{err}");
    }

    #[test]
    fn fails_when_stream_exceeds_original() {
        // The QMCPACK-at-1e-4-style failure ("compressed size is larger
        // than the original size"): when headers + an incompressible
        // payload can't beat 4 bytes/value, compress refuses. A tiny field
        // makes the condition deterministic.
        let data = vec![1.0f32, -2.0, 3.0, -4.0];
        let mut m = Mgard::new(A100);
        let err = m.compress(&data, (1, 2, 2), 1e-6).err().expect("no-gain rejected");
        assert!(err.contains("not smaller"), "{err}");
        // Sanity: the same field at a generous bound on a bigger grid works.
        let big: Vec<f32> = (0..32 * 32).map(|i| (i as f32 * 0.01).sin()).collect();
        assert!(m.compress(&big, (1, 32, 32), 1e-2).is_ok());
    }

    #[test]
    fn throughput_is_sub_gbps_and_barely_scales() {
        let shape = (1, 64, 64);
        let data = smooth_2d(64, 64);
        let mut m = Mgard::new(A100);
        let _ = m.compress(&data, shape, 1e-2).unwrap();
        let gbps = (data.len() * 4) as f64 / m.kernel_time() / 1e9;
        assert!(gbps < 2.0, "MGARD should be slow, got {gbps} GB/s");
        // Scaling A4000 -> A100 must be far below the bandwidth ratio.
        let s = scaling_ratio(&A100, &A4000);
        assert!(s < 2.0, "scaling {s} should be much less than 3.5x bandwidth ratio");
        assert!(s > 1.0);
    }

    #[test]
    fn quality_reasonable_3d() {
        let shape = (16, 24, 24);
        let data: Vec<f32> = (0..16 * 24 * 24)
            .map(|i| {
                let z = i / (24 * 24);
                let y = i / 24 % 24;
                let x = i % 24;
                (x as f32 * 0.2).sin() + (y as f32 * 0.15).cos() + z as f32 * 0.05
            })
            .collect();
        let mut m = Mgard::new(A100);
        let s = m.compress(&data, shape, 1e-2).unwrap();
        let back = s.decompress().unwrap();
        assert!(psnr(&data, &back) > 50.0);
    }
}
