//! # fzgpu-sim — warp-synchronous GPU execution simulator
//!
//! This crate is the hardware substrate for the FZ-GPU reproduction (see
//! the repository's DESIGN.md). It provides a CUDA-like programming model —
//! grids of thread blocks, 32-lane warps executing in lockstep, shared
//! memory with bank-conflict semantics, warp votes and shuffles, and
//! device-wide collectives (scan / histogram) — executed on the host CPU.
//!
//! Two properties matter:
//!
//! 1. **Bit-exact execution.** Kernels really run; every compressed byte
//!    produced through this simulator is the byte the algorithm specifies.
//!    Compression ratios, PSNR, SSIM, and round-trip error bounds measured
//!    on top of it are real measurements, not estimates.
//! 2. **First-order timing model.** Each warp operation records hardware
//!    events (global-memory sectors after coalescing analysis, shared-memory
//!    bank conflicts, warp instructions, divergence). A roofline model
//!    ([`perf::estimate_time`]) converts the counters into kernel times for
//!    a device preset ([`device::A100`] / [`device::A4000`]), giving the
//!    throughput *shapes* the paper's figures report.
//!
//! ## Example
//!
//! ```
//! use fzgpu_sim::{Gpu, device::A100};
//!
//! let mut gpu = Gpu::new(A100);
//! let input = gpu.upload(&(0u32..1024).collect::<Vec<_>>());
//! let output = gpu.alloc::<u32>(1024);
//! gpu.launch("saxpy-ish", 4u32, 256u32, |blk| {
//!     let base = blk.block_linear() * blk.thread_count();
//!     blk.warps(|w| {
//!         let x = w.load(&input, |l| Some(base + l.ltid));
//!         w.store(&output, |l| Some((base + l.ltid, 3 * x[l.id] + 7)));
//!     });
//! });
//! assert_eq!(gpu.download(&output)[10], 37);
//! println!("modeled kernel time: {:.3} us", gpu.kernel_time() * 1e6);
//! ```

pub mod block;
pub mod budget;
pub mod cluster;
pub mod device;
pub mod engine;
pub mod fault;
pub mod grid;
pub mod histogram;
pub mod memory;
pub mod mempool;
pub mod perf;
pub mod pod;
pub mod profile;
pub mod scan;
pub mod shared;
pub mod stream;
pub mod warp;

pub use block::{BlockCtx, Dim3};
pub use budget::{BudgetViolation, StatsBudget};
pub use cluster::Cluster;
pub use device::{DeviceSpec, SECTOR_BYTES, SMEM_BANKS, WARP_SIZE};
pub use engine::Engine;
pub use fault::{FaultInjector, FaultPlan, RetryPolicy, ServiceFaultPlan, ServiceFaults};
pub use grid::{Event, Gpu};
pub use memory::GpuBuffer;
pub use mempool::{MemPool, PoolStats};
pub use perf::{estimate_time, BoundBy, KernelRecord, KernelStats, TimeBreakdown, TransferRecord};
pub use pod::Pod;
pub use profile::{Profile, ProfileEvent};
pub use shared::{conflict_cycles, Shared};
pub use stream::{EventId, OpClass, StreamMark, StreamOp, StreamSim};
pub use warp::{Lane, WarpCtx};
