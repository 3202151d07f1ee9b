//! # fzgpu-core — the FZ-GPU compression pipeline
//!
//! Rust reproduction of *FZ-GPU: A Fast and High-Ratio Lossy Compressor for
//! Scientific Computing Applications on GPUs* (HPDC '23). The pipeline:
//!
//! 1. **Optimized dual-quantization** ([`lorenzo`], [`gpu::quant`]):
//!    pre-quantize to integers under the error bound, integer Lorenzo
//!    prediction, sign-magnitude u16 codes — branch-free, no outlier
//!    side-channel (§3.2).
//! 2. **Bitshuffle** ([`bitshuffle`], [`gpu::bitshuffle`]): 32x32 bit-matrix
//!    transpose per tile via warp ballots, padded shared tiles, fused with
//!    zero-block marking (§3.3).
//! 3. **Fast lossless encoding** ([`zeroblock`], [`gpu::encode`]):
//!    1 flag bit per 16-byte block, prefix-sum offsets, compaction (§3.4).
//!
//! Use [`pipeline::FzGpu`] for the device pipeline; its
//! [`PipelinePath::Native`] path runs the same stages as multi-threaded
//! host code ([`fastpath`], the paper's FZ-OMP) and emits identical bytes.
//! [`reference`](mod@reference) composes the scalar stage modules into the test oracle.
//!
//! ```
//! use fzgpu_core::{FzGpu, ErrorBound};
//! use fzgpu_sim::device::A100;
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let mut fz = FzGpu::new(A100);
//! let c = fz.compress(&data, (1, 64, 64), ErrorBound::RelToRange(1e-3));
//! let restored = fz.decompress(&c).unwrap();
//! assert!(c.ratio() > 1.0);
//! assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() as f64 <= c.header.eb * 1.001));
//! ```

pub mod archive;
pub mod bitshuffle;
pub mod crc;
pub mod fastpath;
pub mod format;
pub mod gpu;
pub mod lorenzo;
pub mod pack;
pub mod pipeline;
pub mod quant;
pub mod reference;
pub mod zeroblock;

pub use archive::{
    Archive, ChunkEntry, ChunkHealth, ChunkMeta, DegradedOutput, FillPolicy, ScrubReport, Shard,
    ShardDirectory, ShardEntry, ShardedArchive,
};
pub use crc::crc32;
pub use fastpath::{FzNative, PipelinePath};
pub use format::{ChecksumSection, FormatError, Header};
pub use fzgpu_sim::{FaultPlan, RetryPolicy};
pub use gpu::bitshuffle::ShuffleVariant;
pub use lorenzo::Shape;
pub use pipeline::{Compressed, FzGpu, FzOptions};
pub use quant::ErrorBound;
