//! cuSZ+RLE: the related-work variant (Tian et al., CLUSTER '21, cited in
//! §5) that replaces cuSZ's Huffman stage with run-length encoding to lift
//! the 32x ratio cap in high-error-bound scenarios.
//!
//! Shares the dual-quantization (v1) front end with [`crate::cusz::CuSz`];
//! the encoding stage swaps Huffman's per-symbol entropy pricing for runs,
//! which wins when the quantization codes collapse to long constant
//! stretches (large bounds, smooth or zero-heavy data) and loses when the
//! codes alternate.

use fzgpu_codecs::rle;
use fzgpu_codecs::wire::{self, Cursor, WireResult};
use fzgpu_core::gpu::quant::pred_quant_v1;
use fzgpu_core::lorenzo::Shape;
use fzgpu_sim::{DeviceSpec, Gpu, KernelStats};

use crate::common::{expect_shape, get_outliers, put_outliers, put_shape, reconstruct, volume};

/// RLE encode throughput model, bytes/second on A100 (a scan-based GPU RLE
/// runs near memory bandwidth; calibrated conservatively).
const RLE_ENC_A100: f64 = 200.0e9;

/// The cuSZ+RLE compressor.
pub struct CuSzRle {
    gpu: Gpu,
    spec: DeviceSpec,
}

/// A cuSZ+RLE stream.
pub struct CuSzRleStream {
    /// Field shape.
    pub shape: Shape,
    /// Absolute bound.
    pub eb: f64,
    /// Run-length pairs over the quantization codes.
    pub runs: Vec<rle::Run>,
    /// Outliers as (index, quantized delta).
    pub outliers: Vec<(u32, i32)>,
    /// Value count.
    pub n_values: usize,
}

impl CuSzRleStream {
    /// Compressed bytes (6 B per run + 8 B per outlier + header).
    pub fn size_bytes(&self) -> usize {
        rle::encoded_bytes(&self.runs) + self.outliers.len() * 8 + 64
    }

    /// Serialize: shape, bound, runs, outliers and the value count.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_shape(&mut out, self.shape);
        wire::put_f64(&mut out, self.eb);
        rle::write_runs(&mut out, &self.runs);
        put_outliers(&mut out, &self.outliers);
        wire::put_u64(&mut out, self.n_values as u64);
        out
    }

    /// Parse [`CuSzRleStream::to_bytes`]'s form for a chunk of `shape`.
    pub fn from_bytes(bytes: &[u8], shape: Shape) -> WireResult<Self> {
        let mut c = Cursor::new(bytes);
        expect_shape(&mut c, shape)?;
        let s = Self {
            shape,
            eb: c.f64()?,
            runs: rle::read_runs(&mut c)?,
            outliers: get_outliers(&mut c)?,
            n_values: c.u64()? as usize,
        };
        c.done()?;
        if s.n_values != volume(shape) || rle::decoded_len(&s.runs) != s.n_values as u64 {
            return Err("run lengths do not match chunk shape");
        }
        Ok(s)
    }

    /// Decompress.
    pub fn decompress(&self) -> Result<Vec<f32>, &'static str> {
        reconstruct(&rle::decode(&self.runs), &self.outliers, self.shape, self.eb)
    }
}

impl CuSzRle {
    /// New instance.
    pub fn new(spec: DeviceSpec) -> Self {
        Self { gpu: Gpu::new(spec), spec }
    }

    /// Compress under an absolute bound.
    pub fn compress(&mut self, data: &[f32], shape: Shape, eb_abs: f64) -> CuSzRleStream {
        let n = data.len();
        let d_input = self.gpu.upload(data);
        self.gpu.reset_timeline();
        let (d_codes, d_outliers) = pred_quant_v1(&mut self.gpu, &d_input, shape, eb_abs);

        // Outliers: host-side gather (same content as cuSZ's device path;
        // charge one streaming pass).
        let outlier_vec = d_outliers.to_vec();
        let outliers: Vec<(u32, i32)> = outlier_vec
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        let mut gather_stats = KernelStats::default();
        gather_stats.global_bytes_requested = (n * 4) as u64;
        gather_stats.global_sectors = gather_stats.global_bytes_requested / 32;
        self.gpu.record_kernel(
            "cusz_rle.gather_outliers",
            gather_stats.global_bytes_moved() as f64 / self.spec.effective_bandwidth(),
            gather_stats,
        );

        // RLE encode (bit-exact host, charged at the scan-based GPU rate).
        let codes = d_codes.to_vec();
        let runs = rle::encode(&codes);
        let rate = RLE_ENC_A100 * self.spec.mem_bandwidth / fzgpu_sim::device::A100.mem_bandwidth;
        self.gpu.record_kernel("cusz_rle.encode", (n * 2) as f64 / rate, KernelStats::default());

        CuSzRleStream { shape, eb: eb_abs, runs, outliers, n_values: n }
    }

    /// Modeled kernel time of the last compress.
    pub fn kernel_time(&self) -> f64 {
        self.gpu.kernel_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cusz::CuSz;
    use fzgpu_sim::device::A100;

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.004).sin() * 3.0).collect()
    }

    #[test]
    fn roundtrip_within_bound() {
        let data = smooth(20_000);
        let shape = (1, 1, 20_000);
        let eb = 1e-3;
        let mut c = CuSzRle::new(A100);
        let s = c.compress(&data, shape, eb);
        let back = s.decompress().unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a as f64 - b as f64).abs() <= eb + (a.abs() as f64) * 1e-6 + 1e-12);
        }
    }

    #[test]
    fn beats_huffman_cap_on_constant_data() {
        // All-zero field at a large bound: Huffman caps at 32x; RLE's two
        // runs-worth of bytes blow straight past it.
        let data = vec![0.0f32; 1 << 17];
        let shape = (1, 1, 1 << 17);
        let mut rle_c = CuSzRle::new(A100);
        let s = rle_c.compress(&data, shape, 1e-2);
        let rle_ratio = (data.len() * 4) as f64 / s.size_bytes() as f64;
        let mut huff_c = CuSz::new(A100);
        let hs = huff_c.compress(&data, shape, 1e-2);
        let huff_ratio = (data.len() * 4) as f64 / hs.size_bytes() as f64;
        assert!(huff_ratio <= 32.0);
        assert!(rle_ratio > 100.0, "rle ratio {rle_ratio}");
        assert!(rle_ratio > 3.0 * huff_ratio);
    }

    #[test]
    fn loses_to_huffman_on_alternating_codes() {
        // Data whose deltas alternate sign every element: runs of length 1.
        let data: Vec<f32> = (0..32_768).map(|i| if i % 2 == 0 { 0.0 } else { 0.01 }).collect();
        let shape = (1, 1, 32_768);
        let mut rle_c = CuSzRle::new(A100);
        let s = rle_c.compress(&data, shape, 1e-3);
        let rle_ratio = (data.len() * 4) as f64 / s.size_bytes() as f64;
        let mut huff_c = CuSz::new(A100);
        let hs = huff_c.compress(&data, shape, 1e-3);
        let huff_ratio = (data.len() * 4) as f64 / hs.size_bytes() as f64;
        assert!(huff_ratio > rle_ratio, "huff {huff_ratio} vs rle {rle_ratio}");
    }

    #[test]
    fn exact_on_outliers() {
        let mut data = smooth(8192);
        data[4096] = 1e3;
        let shape = (1, 1, 8192);
        let mut c = CuSzRle::new(A100);
        let s = c.compress(&data, shape, 1e-3);
        assert!(!s.outliers.is_empty());
        let back = s.decompress().unwrap();
        assert!((back[4096] as f64 - 1e3).abs() <= 1e-3 + 1e3 * 1e-6);
    }
}
