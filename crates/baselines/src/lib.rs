//! # fzgpu-baselines — every compressor the paper compares against,
//! reimplemented from scratch
//!
//! - [`cusz`] — cuSZ: dual-quantization (radius + outliers) + GPU histogram
//!   + Huffman codebook + coarse chunked encoding. `cuSZ-ncb` falls out by
//!     subtracting [`cusz::codebook_seconds`].
//! - [`cusz_rle`] — the CLUSTER'21 cuSZ+RLE variant (run-length encoding in
//!   place of Huffman, lifting the 32x cap at high bounds).
//! - [`cuzfp`] — cuZFP: fixed-rate block transform coding (block floating
//!   point, reversible lifting, negabinary, bit-plane truncation).
//! - [`cuszx`] — cuSZx: blockwise constant/non-constant bitwise compressor.
//! - [`mgard`] — MGARD-GPU: multigrid refactoring + level quantization +
//!   DEFLATE.
//! - [`sz_omp`] — SZ-OMP: the CPU SZ pipeline under rayon, emitting cuSZ's
//!   stream.
//!
//! Each compressor's `compress` returns a structured stream that owns its
//! wire format: `to_bytes`, and `from_bytes(bytes, shape)`, which checks
//! every count its `decompress` indexes by against the chunk shape, so
//! corrupt bytes decode to an error, never a panic. `fzgpu-store` puts
//! them behind its `Codec` interface, the one way the bench harness and
//! the store run a compressor.

mod common;
pub mod cusz;
pub mod cusz_rle;
pub mod cuszx;
pub mod cuzfp;
pub mod mgard;
pub mod sz_omp;

pub use cusz::CuSz;
pub use cusz_rle::CuSzRle;
pub use cuszx::CuSzx;
pub use cuzfp::CuZfp;
pub use mgard::Mgard;
pub use sz_omp::SzOmp;
