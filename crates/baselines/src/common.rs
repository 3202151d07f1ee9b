//! Shared interface for all compressors under evaluation.

use fzgpu_core::lorenzo::Shape;
use fzgpu_core::quant::ErrorBound;

/// How a compressor is configured for one run. Error-bounded compressors
/// take [`Setting::Eb`]; cuZFP only supports [`Setting::Rate`] (the paper's
/// central criticism of it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setting {
    /// Error-bounded mode.
    Eb(ErrorBound),
    /// Fixed-rate mode: bits per value.
    Rate(f64),
}

/// Result of one compress (+ decompress) run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Compressor name.
    pub name: &'static str,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Modeled GPU kernel time (or measured CPU wall time) of compression,
    /// seconds.
    pub compress_time: f64,
    /// Reconstructed field (for distortion metrics).
    pub reconstructed: Vec<f32>,
    /// Time attributable to Huffman-codebook construction (cuSZ only;
    /// subtracting it gives the paper's `cuSZ-ncb` bars).
    pub codebook_time: f64,
}

impl Run {
    /// Compression ratio against f32 input of `n` values.
    pub fn ratio(&self, n: usize) -> f64 {
        (n * 4) as f64 / self.compressed_bytes as f64
    }

    /// Compression throughput in GB/s.
    pub fn throughput_gbps(&self, n: usize) -> f64 {
        (n * 4) as f64 / self.compress_time / 1e9
    }

    /// Throughput excluding codebook build (cuSZ-ncb).
    pub fn throughput_ncb_gbps(&self, n: usize) -> f64 {
        (n * 4) as f64 / (self.compress_time - self.codebook_time) / 1e9
    }
}

/// A compressor that can be driven by the benchmark harness.
pub trait Baseline {
    /// Display name (paper's naming).
    fn name(&self) -> &'static str;

    /// Compress + decompress `data`; `None` when this compressor does not
    /// support the configuration (e.g. MGARD-GPU on 1D data, error-bounded
    /// settings on cuZFP).
    fn run(&mut self, data: &[f32], shape: Shape, setting: Setting) -> Option<Run>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_metrics() {
        let r = Run {
            name: "x",
            compressed_bytes: 1000,
            compress_time: 1e-3,
            reconstructed: vec![],
            codebook_time: 5e-4,
        };
        assert_eq!(r.ratio(1000), 4.0);
        assert!((r.throughput_gbps(1000) - 0.004).abs() < 1e-12);
        assert!(r.throughput_ncb_gbps(1000) > r.throughput_gbps(1000));
    }
}
