//! Thread-block execution context.
//!
//! A [`BlockCtx`] is handed to the kernel closure once per block. Kernels
//! structure their work as a sequence of warp-parallel phases separated by
//! [`BlockCtx::sync`] barriers — the same shape as a `__syncthreads()`-
//! structured CUDA kernel. Within a phase, [`BlockCtx::warps`] iterates
//! every warp of the block (the simulator executes them sequentially on the
//! host; semantically they are concurrent, which is sound because warp
//! phases in our kernels only communicate across `sync()` boundaries).

use crate::device::{DeviceSpec, WARP_SIZE};
use crate::fault::BlockFault;
use crate::perf::KernelStats;
use crate::pod::Pod;
use crate::shared::Shared;
use crate::warp::WarpCtx;

/// 3-component index, mirroring CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// Total element count.
    #[inline]
    pub fn count(&self) -> usize {
        self.x as usize * self.y as usize * self.z as usize
    }

    /// Linearize (x fastest, z slowest) — CUDA thread linearization order.
    #[inline]
    pub fn linear_of(&self, x: u32, y: u32, z: u32) -> usize {
        (z as usize * self.y as usize + y as usize) * self.x as usize + x as usize
    }

    /// Inverse of [`Dim3::linear_of`].
    #[inline]
    pub fn delinearize(&self, linear: usize) -> (u32, u32, u32) {
        let x = (linear % self.x as usize) as u32;
        let y = (linear / self.x as usize % self.y as usize) as u32;
        let z = (linear / (self.x as usize * self.y as usize)) as u32;
        (x, y, z)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3 { x, y, z: 1 }
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3 { x, y, z }
    }
}

/// Execution context of one thread block.
pub struct BlockCtx<'g> {
    /// This block's index within the grid.
    pub block_idx: Dim3,
    /// Grid dimensions.
    pub grid_dim: Dim3,
    /// Block dimensions (threads).
    pub block_dim: Dim3,
    pub(crate) spec: &'g DeviceSpec,
    pub(crate) stats: KernelStats,
    pub(crate) shared_bytes: usize,
    /// When `Some`, every global store is logged as `(buffer_id, index)`
    /// for the cross-block write-race detector.
    pub(crate) writes: Option<Vec<(u64, usize)>>,
    /// When `Some`, shared-memory allocations receive injected bit flips
    /// (see [`crate::fault`]).
    pub(crate) fault: Option<BlockFault>,
}

impl<'g> BlockCtx<'g> {
    /// Linear block index within the grid.
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.grid_dim.linear_of(self.block_idx.x, self.block_idx.y, self.block_idx.z)
    }

    /// Threads in this block.
    #[inline]
    pub fn thread_count(&self) -> usize {
        self.block_dim.count()
    }

    /// Warps in this block (ceil of threads/32).
    #[inline]
    pub fn warp_count(&self) -> usize {
        self.thread_count().div_ceil(WARP_SIZE)
    }

    /// Global linear thread id of block-linear-thread `ltid`.
    #[inline]
    pub fn global_tid(&self, ltid: usize) -> usize {
        self.block_linear() * self.thread_count() + ltid
    }

    /// Thread coordinates of block-linear-thread `ltid` (CUDA order:
    /// `threadIdx.x` fastest).
    #[inline]
    pub fn thread_coords(&self, ltid: usize) -> (u32, u32, u32) {
        self.block_dim.delinearize(ltid)
    }

    /// Allocate a shared-memory array, panicking when the block's budget
    /// (per [`DeviceSpec::smem_per_block`]) is exceeded — real kernels fail
    /// to launch in that situation.
    pub fn shared_array<T: Pod>(&mut self, len: usize) -> Shared<T> {
        self.shared_bytes += len * T::BYTES;
        assert!(
            self.shared_bytes <= self.spec.smem_per_block,
            "shared memory over budget: {} > {} bytes on {}",
            self.shared_bytes,
            self.spec.smem_per_block,
            self.spec.name
        );
        self.stats.smem_bytes_peak = self.stats.smem_bytes_peak.max(self.shared_bytes as u64);
        let sh = Shared::new(len);
        if let Some(fault) = &mut self.fault {
            fault.corrupt_shared(&sh);
        }
        sh
    }

    /// Run one warp-parallel phase: `f` executes for every warp.
    pub fn warps(&mut self, mut f: impl FnMut(&mut WarpCtx<'_>)) {
        let threads = self.thread_count();
        let warps = self.warp_count();
        for w in 0..warps {
            let base = w * WARP_SIZE;
            let active = WARP_SIZE.min(threads - base);
            let mut ctx = WarpCtx {
                warp_id: w,
                base_ltid: base,
                active_lanes: active,
                stats: &mut self.stats,
                writes: self.writes.as_mut(),
            };
            f(&mut ctx);
        }
    }

    /// `__syncthreads()` barrier. Phases on either side are ordered.
    pub fn sync(&mut self) {
        self.stats.barriers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100;

    fn block(dim: impl Into<Dim3>) -> BlockCtx<'static> {
        BlockCtx {
            block_idx: 0.into(),
            grid_dim: 1.into(),
            block_dim: dim.into(),
            spec: &A100,
            stats: KernelStats::default(),
            shared_bytes: 0,
            writes: None,
            fault: None,
        }
    }

    #[test]
    fn dim3_linearization_roundtrip() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        for z in 0..2 {
            for y in 0..3 {
                for x in 0..4 {
                    let l = d.linear_of(x, y, z);
                    assert_eq!(d.delinearize(l), (x, y, z));
                }
            }
        }
        assert_eq!(d.count(), 24);
    }

    #[test]
    fn warp_count_rounds_up() {
        assert_eq!(block(33u32).warp_count(), 2);
        assert_eq!(block(32u32).warp_count(), 1);
        assert_eq!(block((32u32, 32u32)).warp_count(), 32);
    }

    #[test]
    fn warps_iterates_with_partial_last() {
        let mut b = block(40u32);
        let mut seen = Vec::new();
        b.warps(|w| seen.push((w.warp_id, w.active_lanes)));
        assert_eq!(seen, vec![(0, 32), (1, 8)]);
    }

    #[test]
    fn thread_coords_cuda_order() {
        let b = block((8u32, 4u32));
        assert_eq!(b.thread_coords(0), (0, 0, 0));
        assert_eq!(b.thread_coords(9), (1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "shared memory over budget")]
    fn shared_budget_enforced() {
        let mut b = block(32u32);
        let _ = b.shared_array::<u32>(100 * 1024); // 400 KiB > 164 KiB
    }

    #[test]
    fn sync_counts_barriers() {
        let mut b = block(32u32);
        b.sync();
        b.sync();
        assert_eq!(b.stats.barriers, 2);
    }
}
