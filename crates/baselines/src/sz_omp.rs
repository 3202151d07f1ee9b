//! SZ-OMP baseline: the CPU SZ pipeline (prediction + quantization +
//! Huffman) with rayon standing in for OpenMP.
//!
//! Mirrors the paper's constraints: SZ's OpenMP mode "only supports 3D
//! data", so non-3D shapes are rejected. Wall-clock time of this path is
//! measured for the §4.4 FZ-OMP-vs-SZ-OMP comparison.

use fzgpu_codecs::huffman::{self, Codebook};
use fzgpu_core::gpu::quant::V1_RADIUS;
use fzgpu_core::lorenzo::{self, rank_of, Shape};
use rayon::prelude::*;

use crate::cusz::{CuSzStream, CHUNK, NUM_SYMBOLS};

/// The SZ-OMP compressor. Its stream is cuSZ's: the same radius, alphabet
/// and chunking, so [`CuSzStream::decompress`] decodes it.
#[derive(Debug, Default, Clone, Copy)]
pub struct SzOmp;

impl SzOmp {
    /// Compress a 3D field. `None` for non-3D shapes.
    pub fn compress(&self, data: &[f32], shape: Shape, eb_abs: f64) -> Option<CuSzStream> {
        if rank_of(shape) != 3 {
            return None; // "SZ-OMP only supports 3D data"
        }
        // Prediction + quantization (shared Lorenzo machinery), v1-style
        // radius split with outliers.
        let q = lorenzo::prequant(data, eb_abs);
        let deltas = lorenzo::lorenzo_delta(&q, shape);
        let codes: Vec<u16> = deltas
            .par_iter()
            .map(|&d| if d > -V1_RADIUS && d < V1_RADIUS { (d + V1_RADIUS) as u16 } else { 0 })
            .collect();
        let outliers: Vec<(u32, i32)> = deltas
            .par_iter()
            .enumerate()
            .filter(|&(_, &d)| d <= -V1_RADIUS || d >= V1_RADIUS)
            .map(|(i, &d)| (i as u32, d))
            .collect();

        // Histogram (parallel fold) + codebook + chunked encode.
        let hist = codes
            .par_chunks(1 << 16)
            .fold(
                || vec![0u32; NUM_SYMBOLS],
                |mut h, chunk| {
                    for &c in chunk {
                        h[c as usize] += 1;
                    }
                    h
                },
            )
            .reduce(
                || vec![0u32; NUM_SYMBOLS],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
        let book = Codebook::from_histogram(&hist).ok()?;
        // Parallel per-chunk encode, then stitch offsets.
        let chunks: Vec<Vec<u8>> = codes
            .par_chunks(CHUNK)
            .map(|c| huffman::encode(&book, c).expect("codes fit book"))
            .collect();
        let mut payload = Vec::new();
        let mut offsets = vec![0u32];
        for c in &chunks {
            payload.extend_from_slice(c);
            offsets.push(payload.len() as u32);
        }
        let encoded = huffman::ChunkedStream {
            payload,
            offsets,
            chunk_symbols: CHUNK,
            total_symbols: codes.len(),
        };
        Some(CuSzStream { shape, eb: eb_abs, book, encoded, outliers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        (0..nz * ny * nx)
            .map(|i| {
                let z = i / (ny * nx);
                let y = i / nx % ny;
                let x = i % nx;
                (x as f32 * 0.1).sin() + (y as f32 * 0.07).cos() + (z as f32 * 0.2).sin()
            })
            .collect()
    }

    #[test]
    fn roundtrip_respects_bound() {
        let shape = (8, 24, 32);
        let data = field_3d(8, 24, 32);
        let eb = 1e-3;
        let sz = SzOmp;
        let s = sz.compress(&data, shape, eb).unwrap();
        let back = s.decompress().unwrap();
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            let slack = (a.abs() as f64) * 1e-6 + 1e-12;
            assert!((a as f64 - b as f64).abs() <= eb + slack, "idx {i}");
        }
    }

    #[test]
    fn rejects_non_3d() {
        let sz = SzOmp;
        assert!(sz.compress(&vec![0.0; 100], (1, 1, 100), 1e-3).is_none());
        assert!(sz.compress(&vec![0.0; 100], (1, 10, 10), 1e-3).is_none());
    }

    #[test]
    fn outliers_reconstruct_exactly() {
        let mut data = field_3d(4, 16, 16);
        data[500] = 1e4; // violent outlier
        let shape = (4, 16, 16);
        let sz = SzOmp;
        let s = sz.compress(&data, shape, 1e-3).unwrap();
        assert!(!s.outliers.is_empty());
        let back = s.decompress().unwrap();
        assert!((data[500] as f64 - back[500] as f64).abs() <= 1e-3 + 1e4f64 * 1e-6);
    }

    #[test]
    fn smooth_3d_compresses() {
        let shape = (8, 32, 32);
        let data = field_3d(8, 32, 32);
        let sz = SzOmp;
        let s = sz.compress(&data, shape, 1e-2).unwrap();
        let ratio = (data.len() * 4) as f64 / s.size_bytes() as f64;
        assert!(ratio > 3.0, "ratio {ratio}");
    }
}
