//! cuSZx baseline: ultrafast blockwise error-bounded compression.
//!
//! Per Yu et al. (HPDC '22, cited by the paper): split the field into
//! small blocks, detect "constant" blocks (every value within the bound of
//! a base value) and store them as the base alone; for non-constant blocks
//! store the base plus fixed-width quantized offsets using the minimum bit
//! width that covers the block ("lightweight bitwise operations"). No
//! prediction crosses block boundaries — which is why it is the fastest
//! and lowest-ratio compressor in the comparison (paper §4.3–4.4).

use fzgpu_codecs::bitpack;
use fzgpu_codecs::wire::{self, Cursor, WireResult};
use fzgpu_core::lorenzo::Shape;
use fzgpu_sim::scan::exclusive_sum;
use fzgpu_sim::{DeviceSpec, Gpu, GpuBuffer};

use crate::common::{expect_shape, put_shape, volume};

/// Values per block (cuSZx default granularity).
pub const BLOCK: usize = 64;

/// cuSZx on a simulated device.
pub struct CuSzx {
    gpu: Gpu,
}

/// A cuSZx stream.
pub struct CuSzxStream {
    /// Field shape (block structure is 1D over the flattened field).
    pub shape: Shape,
    /// Absolute bound.
    pub eb: f64,
    /// Per-block base value (minimum).
    pub bases: Vec<f32>,
    /// Per-block offset bit width (0 = constant block).
    pub bits: Vec<u8>,
    /// Packed offset words for non-constant blocks, concatenated in block
    /// order.
    pub payload: Vec<u32>,
    /// Number of f32 values.
    pub n_values: usize,
}

impl CuSzxStream {
    /// Compressed bytes: base + width per block + packed payload + header.
    pub fn size_bytes(&self) -> usize {
        self.bases.len() * 4 + self.bits.len() + self.payload.len() * 4 + 64
    }

    /// Serialize: shape, bound, block bases and widths, payload and the
    /// value count.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_shape(&mut out, self.shape);
        wire::put_f64(&mut out, self.eb);
        wire::put_f32s(&mut out, &self.bases);
        wire::put_bytes(&mut out, &self.bits);
        wire::put_u32s(&mut out, &self.payload);
        wire::put_u64(&mut out, self.n_values as u64);
        out
    }

    /// Parse [`CuSzxStream::to_bytes`]'s form for a chunk of `shape`: one
    /// block per [`BLOCK`] values, widths of at most 32 bits, and exactly
    /// the payload words those widths pack.
    pub fn from_bytes(bytes: &[u8], shape: Shape) -> WireResult<Self> {
        let mut c = Cursor::new(bytes);
        expect_shape(&mut c, shape)?;
        let s = Self {
            shape,
            eb: c.f64()?,
            bases: c.f32s()?,
            bits: c.bytes()?,
            payload: c.u32s()?,
            n_values: c.u64()? as usize,
        };
        c.done()?;
        let nblocks = volume(shape).div_ceil(BLOCK);
        if s.n_values != volume(shape) || s.bases.len() != nblocks || s.bits.len() != nblocks {
            return Err("block tables do not match chunk shape");
        }
        if s.bits.iter().any(|&b| b > 32) {
            return Err("block width above 32 bits");
        }
        if s.payload.len() != s.bits.iter().map(|&b| block_words(b)).sum::<usize>() {
            return Err("payload length disagrees with block widths");
        }
        Ok(s)
    }

    /// Decompress (host reference path).
    pub fn decompress(&self) -> Vec<f32> {
        let n = self.n_values;
        let ebx2 = 2.0 * self.eb;
        let mut out = vec![0.0f32; n];
        let mut off = 0usize;
        for (b, (&base, &bits)) in self.bases.iter().zip(&self.bits).enumerate() {
            let lo = b * BLOCK;
            let hi = ((b + 1) * BLOCK).min(n);
            if bits == 0 {
                // Constant block: base represents every value (the paper's
                // "constant blocks handled separately").
                for v in &mut out[lo..hi] {
                    *v = base;
                }
            } else {
                let words = &self.payload[off..off + block_words(bits)];
                for (k, v) in out[lo..hi].iter_mut().enumerate() {
                    let q = bitpack::get(words, k, bits);
                    *v = (base as f64 + q as f64 * ebx2) as f32;
                }
                off += block_words(bits);
            }
        }
        out
    }
}

/// Words needed for one block at `bits` per value.
#[inline]
fn block_words(bits: u8) -> usize {
    bitpack::words_for(BLOCK, bits)
}

impl CuSzx {
    /// New instance.
    pub fn new(spec: DeviceSpec) -> Self {
        Self { gpu: Gpu::new(spec) }
    }

    /// Compress under an absolute bound.
    pub fn compress(&mut self, data: &[f32], shape: Shape, eb_abs: f64) -> CuSzxStream {
        let n = data.len();
        let nblocks = n.div_ceil(BLOCK);
        let d_input = self.gpu.upload(data);
        self.gpu.reset_timeline();

        let d_bases: GpuBuffer<f32> = self.gpu.alloc(nblocks);
        let d_bits: GpuBuffer<u8> = self.gpu.alloc(nblocks);
        let d_words: GpuBuffer<u32> = self.gpu.alloc(nblocks);

        // Kernel 1: per-block stats — one *warp* per 64-value block
        // (coalesced loads, warp min/max reduce), deriving the offset bit
        // width (0 => constant block).
        let ebx2 = 2.0 * eb_abs;
        let warps_per_launch_block = 8usize;
        let launch_blocks = nblocks.div_ceil(warps_per_launch_block) as u32;
        self.gpu.launch("cuszx.block_stats", launch_blocks, 256u32, |blk| {
            let first_block = blk.block_linear() * warps_per_launch_block;
            blk.warps(|w| {
                let b = first_block + w.warp_id;
                if b >= nblocks {
                    return;
                }
                let g0 = b * BLOCK;
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for half in 0..BLOCK / 32 {
                    let v = w.load(&d_input, |l| {
                        let g = g0 + half * 32 + l.id;
                        (g < n).then_some(g)
                    });
                    for (i, &x) in v.iter().enumerate() {
                        if g0 + half * 32 + i < n && i < w.active_lanes {
                            lo = lo.min(x);
                            hi = hi.max(x);
                        }
                    }
                }
                w.charge_alu(10); // 2x shuffle-based warp min/max reduce
                let (bits, base) = if !lo.is_finite() {
                    (0u8, 0.0f32)
                } else if (hi - lo) as f64 <= ebx2 {
                    // Constant block: the midpoint represents every value
                    // within eb.
                    (0u8, (lo + hi) * 0.5)
                } else {
                    let steps = ((hi - lo) as f64 / ebx2).ceil() as u64;
                    ((64 - steps.leading_zeros() as u64).min(32) as u8, lo)
                };
                w.store(&d_bases, |l| (l.id == 0).then_some((b, base)));
                w.store(&d_bits, |l| (l.id == 0).then_some((b, bits)));
                w.store(&d_words, |l| (l.id == 0).then_some((b, block_words(bits) as u32)));
            });
        });

        // Offsets for the variable-size payload (device scan, as in the
        // real implementation).
        let mut d_offsets: GpuBuffer<u32> = self.gpu.alloc(nblocks);
        let total_words = exclusive_sum(&mut self.gpu, &d_words, &mut d_offsets, nblocks) as usize;

        // Kernel 2: pack non-constant blocks at their offsets, one warp per
        // block: coalesced value loads, cooperative fixed-width packing.
        let d_payload: GpuBuffer<u32> = self.gpu.alloc(total_words.max(1));
        self.gpu.launch("cuszx.pack", launch_blocks, 256u32, |blk| {
            let first_block = blk.block_linear() * warps_per_launch_block;
            blk.warps(|w| {
                let b = first_block + w.warp_id;
                if b >= nblocks {
                    return;
                }
                let base = w.load(&d_bases, |l| (l.id == 0).then_some(b))[0];
                let bits = w.load(&d_bits, |l| (l.id == 0).then_some(b))[0];
                if bits == 0 {
                    return; // constant block: base alone represents it
                }
                let off = w.load(&d_offsets, |l| (l.id == 0).then_some(b))[0] as usize;
                let g0 = b * BLOCK;
                let mut vals = [0.0f32; BLOCK];
                for half in 0..BLOCK / 32 {
                    let v = w.load(&d_input, |l| {
                        let g = g0 + half * 32 + l.id;
                        (g < n).then_some(g)
                    });
                    vals[half * 32..half * 32 + 32].copy_from_slice(&v);
                }
                // Quantize + pack. Each value costs ~2 ALU ops; the packing
                // writes bits serially within each output word.
                w.charge_alu(2 * BLOCK as u64 / 32 + 2 * bits as u64);
                let mut words: Vec<u32> = Vec::new();
                for (k, &v) in vals.iter().enumerate().take((n - g0).min(BLOCK)) {
                    let q = (((v - base) as f64 / ebx2).round() as i64).clamp(0, (1i64 << bits) - 1)
                        as u32;
                    bitpack::put(&mut words, k, bits, q);
                }
                words.resize(block_words(bits), 0);
                w.store(&d_payload, |l| (l.id < words.len()).then(|| (off + l.id, words[l.id])));
                // Wide blocks (> 32 words) need a second store wave.
                if words.len() > 32 {
                    w.store(&d_payload, |l| {
                        (32 + l.id < words.len()).then(|| (off + 32 + l.id, words[32 + l.id]))
                    });
                }
            });
        });

        CuSzxStream {
            shape,
            eb: eb_abs,
            bases: d_bases.to_vec(),
            bits: d_bits.to_vec(),
            payload: d_payload.to_vec()[..total_words].to_vec(),
            n_values: n,
        }
    }

    /// Modeled kernel time of the last compress, seconds.
    pub fn kernel_time(&self) -> f64 {
        self.gpu.kernel_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_sim::device::A100;

    #[test]
    fn roundtrip_respects_bound() {
        let data: Vec<f32> =
            (0..10_000).map(|i| (i as f32 * 0.02).sin() * 7.0 + (i as f32 * 0.13).cos()).collect();
        let eb = 1e-3;
        let mut x = CuSzx::new(A100);
        let stream = x.compress(&data, (1, 1, 10_000), eb);
        let back = stream.decompress();
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            let slack = (a.abs() as f64) * 1e-6 + 1e-12;
            assert!((a as f64 - b as f64).abs() <= eb + slack, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn constant_field_collapses_to_bases() {
        let data = vec![2.5f32; 64 * 100];
        let mut x = CuSzx::new(A100);
        let stream = x.compress(&data, (1, 1, 6400), 1e-3);
        assert!(stream.bits.iter().all(|&b| b == 0));
        assert!(stream.payload.is_empty());
        assert!(stream.decompress().iter().all(|&v| v == 2.5));
        let ratio = (data.len() * 4) as f64 / stream.size_bytes() as f64;
        assert!(ratio > 40.0, "ratio {ratio}");
    }

    #[test]
    fn rough_data_gets_wide_blocks_and_low_ratio() {
        let data: Vec<f32> =
            (0..6400u32).map(|i| (i.wrapping_mul(2654435761) >> 8) as f32 / 1e6).collect();
        let mut x = CuSzx::new(A100);
        let stream = x.compress(&data, (1, 1, 6400), 1e-4);
        let ratio = (data.len() * 4) as f64 / stream.size_bytes() as f64;
        assert!(ratio < 4.0, "rough data should not compress well, got {ratio}");
        // Still error-bounded.
        let back = stream.decompress();
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a as f64 - b as f64).abs() <= 1e-4 + (a.abs() as f64) * 1e-6 + 1e-9);
        }
    }

    #[test]
    fn ragged_tail_block_roundtrips() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let mut x = CuSzx::new(A100);
        let stream = x.compress(&data, (1, 1, 100), 1e-2);
        let back = stream.decompress();
        assert_eq!(back.len(), 100);
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 0.011);
        }
    }
}
