//! # fzgpu-baselines — every compressor the paper compares against,
//! reimplemented from scratch
//!
//! - [`cusz`] — cuSZ: dual-quantization (radius + outliers) + GPU histogram
//!   + Huffman codebook + coarse chunked encoding. `cuSZ-ncb` falls out by
//!     subtracting [`cusz::CuSz::codebook_time`].
//! - [`cusz_rle`] — the CLUSTER'21 cuSZ+RLE variant (run-length encoding in
//!   place of Huffman, lifting the 32x cap at high bounds).
//! - [`cuzfp`] — cuZFP: fixed-rate block transform coding (block floating
//!   point, reversible lifting, negabinary, bit-plane truncation).
//! - [`cuszx`] — cuSZx: blockwise constant/non-constant bitwise compressor.
//! - [`mgard`] — MGARD-GPU: multigrid refactoring + level quantization +
//!   DEFLATE.
//! - [`sz_omp`] — SZ-OMP: the CPU SZ pipeline under rayon.
//!
//! All implement [`common::Baseline`] so the bench harness can sweep them
//! uniformly.

pub mod common;
pub mod cusz;
pub mod cusz_rle;
pub mod cuszx;
pub mod cuzfp;
pub mod mgard;
pub mod sz_omp;

pub use common::{Baseline, Run, Setting};
pub use cusz::CuSz;
pub use cusz_rle::CuSzRle;
pub use cuszx::CuSzx;
pub use cuzfp::CuZfp;
pub use mgard::Mgard;
pub use sz_omp::SzOmp;

/// Canonical CLI/registry names of the baseline compressors, matching the
/// `fzgpu-store` codec registry.
pub const BASELINE_NAMES: [&str; 6] = ["cusz", "cusz-rle", "cuszx", "cuzfp", "mgard", "sz-omp"];

/// Build a baseline by its canonical name. The single dispatch point for
/// name-keyed construction — the bench harness and the store codec
/// registry both route through names rather than concrete types.
pub fn by_name(name: &str, spec: fzgpu_sim::DeviceSpec) -> Option<Box<dyn Baseline>> {
    match name {
        "cusz" => Some(Box::new(CuSz::new(spec))),
        "cusz-rle" => Some(Box::new(CuSzRle::new(spec))),
        "cuszx" => Some(Box::new(CuSzx::new(spec))),
        "cuzfp" => Some(Box::new(CuZfp::new(spec))),
        "mgard" => Some(Box::new(Mgard::new(spec))),
        "sz-omp" => Some(Box::new(SzOmp)),
        _ => None,
    }
}
