//! Warp-synchronous execution context.
//!
//! A [`WarpCtx`] models one 32-lane warp executing in lockstep. Every method
//! is one warp instruction: the simulator evaluates a per-lane closure for
//! all 32 lanes at once, which is exactly the semantics of CUDA warp-level
//! primitives (`__ballot_sync`, `__shfl_sync`, coalesced loads). This makes
//! the paper's ballot-based bitshuffle expressible verbatim while giving the
//! performance model exact per-warp coalescing and bank-conflict data.
//!
//! Per-lane closures receive a [`Lane`] (lane id + the thread's linear id in
//! the block) rather than borrowing the warp context, so address arithmetic
//! never fights the borrow checker.

use crate::device::{SECTOR_BYTES, WARP_SIZE};
use crate::memory::GpuBuffer;
use crate::perf::KernelStats;
use crate::pod::Pod;
use crate::shared::{conflict_cycles, Shared};

/// Identity of one lane during a warp instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Lane index within the warp, 0..32.
    pub id: usize,
    /// Linear thread id within the block (`base_ltid + id`).
    pub ltid: usize,
}

/// One warp of the currently executing thread block.
pub struct WarpCtx<'a> {
    /// Warp index within the block.
    pub warp_id: usize,
    /// Linear thread id of lane 0 within the block.
    pub base_ltid: usize,
    /// Number of active lanes (the last warp of a block may be partial).
    pub active_lanes: usize,
    pub(crate) stats: &'a mut KernelStats,
    pub(crate) writes: Option<&'a mut Vec<(u64, usize)>>,
}

impl<'a> WarpCtx<'a> {
    #[inline]
    fn lane(&self, id: usize) -> Lane {
        Lane { id, ltid: self.base_ltid + id }
    }

    #[inline]
    fn charge_instruction(&mut self) {
        self.stats.warp_instructions += 1;
        self.stats.inactive_lane_slots += (WARP_SIZE - self.active_lanes) as u64;
    }

    /// Charge `n` warp-wide ALU instructions without evaluating per-lane
    /// closures — for kernels whose arithmetic is computed in bulk on the
    /// host (e.g. a per-lane serial transform loop) but must still be
    /// billed to the device model.
    pub fn charge_alu(&mut self, n: u64) {
        self.stats.warp_instructions += n;
        self.stats.inactive_lane_slots += n * (WARP_SIZE - self.active_lanes) as u64;
    }

    /// Execute one warp-wide ALU instruction: evaluate `f` on every active
    /// lane. Inactive lanes yield `T::default()`.
    pub fn lanes<T: Pod>(&mut self, mut f: impl FnMut(Lane) -> T) -> [T; WARP_SIZE] {
        self.charge_instruction();
        core::array::from_fn(|i| if i < self.active_lanes { f(self.lane(i)) } else { T::default() })
    }

    /// Warp-wide predicated instruction: lanes where `f` returns `None` are
    /// divergent (counted as wasted lane slots) and yield `T::default()`.
    pub fn lanes_pred<T: Pod>(&mut self, mut f: impl FnMut(Lane) -> Option<T>) -> [T; WARP_SIZE] {
        self.stats.warp_instructions += 1;
        let mut inactive = 0u64;
        let out = core::array::from_fn(|i| {
            if i < self.active_lanes {
                match f(self.lane(i)) {
                    Some(v) => v,
                    None => {
                        inactive += 1;
                        T::default()
                    }
                }
            } else {
                inactive += 1;
                T::default()
            }
        });
        self.stats.inactive_lane_slots += inactive;
        out
    }

    /// `__ballot_sync`: build a 32-bit mask where bit `i` is the predicate
    /// of lane `i`. Inactive lanes contribute 0.
    pub fn ballot(&mut self, mut pred: impl FnMut(Lane) -> bool) -> u32 {
        self.charge_instruction();
        let mut mask = 0u32;
        for i in 0..self.active_lanes {
            if pred(self.lane(i)) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// `__any_sync`: true if any active lane's predicate holds.
    pub fn any(&mut self, pred: impl FnMut(Lane) -> bool) -> bool {
        self.ballot(pred) != 0
    }

    /// `__all_sync`: true if every active lane's predicate holds.
    pub fn all(&mut self, mut pred: impl FnMut(Lane) -> bool) -> bool {
        self.charge_instruction();
        (0..self.active_lanes).all(|i| pred(self.lane(i)))
    }

    /// `__shfl_sync` family: permute a warp-resident register array.
    /// `src(lane)` names the lane whose value lane `lane` receives.
    pub fn shfl<T: Pod>(
        &mut self,
        vals: &[T; WARP_SIZE],
        mut src: impl FnMut(usize) -> usize,
    ) -> [T; WARP_SIZE] {
        self.charge_instruction();
        core::array::from_fn(|i| vals[src(i) % WARP_SIZE])
    }

    /// Warp-level inclusive scan (sum) over a register array, implemented
    /// with the log2(32) shuffle-up pattern and charged accordingly.
    pub fn scan_add(&mut self, vals: &[u32; WARP_SIZE]) -> [u32; WARP_SIZE] {
        let mut acc = *vals;
        let mut d = 1;
        while d < WARP_SIZE {
            self.charge_instruction(); // one shfl_up + add per round
            let prev = acc;
            for i in d..WARP_SIZE {
                acc[i] = prev[i].wrapping_add(prev[i - d]);
            }
            d <<= 1;
        }
        acc
    }

    /// Warp-level reduction (sum), shuffle-based.
    pub fn reduce_add(&mut self, vals: &[u32; WARP_SIZE]) -> u32 {
        let mut acc = *vals;
        let mut d = WARP_SIZE / 2;
        while d > 0 {
            self.charge_instruction();
            for i in 0..WARP_SIZE {
                acc[i] = acc[i].wrapping_add(acc[(i + d) % WARP_SIZE]);
            }
            d >>= 1;
        }
        acc[0]
    }

    // ----- global memory -----

    fn charge_global<T: Pod>(&mut self, addrs: &[usize]) {
        self.stats.warp_instructions += 1;
        self.stats.inactive_lane_slots += (WARP_SIZE - addrs.len()) as u64;
        self.stats.global_bytes_requested += (addrs.len() * T::BYTES) as u64;
        // Distinct 32-byte sectors touched by the warp = transactions.
        let mut sectors: Vec<usize> = Vec::with_capacity(WARP_SIZE * 2);
        for &a in addrs {
            let first = a * T::BYTES / SECTOR_BYTES;
            let last = (a * T::BYTES + T::BYTES - 1) / SECTOR_BYTES;
            for s in first..=last {
                if !sectors.contains(&s) {
                    sectors.push(s);
                }
            }
        }
        self.stats.global_sectors += sectors.len() as u64;
    }

    /// Coalesced-analyzed global load: `addr(lane)` gives each active lane's
    /// element index (or `None` for a predicated-off lane).
    pub fn load<T: Pod>(
        &mut self,
        buf: &GpuBuffer<T>,
        addr: impl FnMut(Lane) -> Option<usize>,
    ) -> [T; WARP_SIZE] {
        self.load_as(buf, addr)
    }

    /// [`WarpCtx::load`] through a cast pointer: the buffer viewed as
    /// elements of `U`, whose width divides `T`'s (a `u16` view of `u32`
    /// words, an `i32` view of `f32`s). Indices count `U` elements, and
    /// bytes and sectors are charged at `U`'s width.
    pub fn load_as<U: Pod, T: Pod>(
        &mut self,
        buf: &GpuBuffer<T>,
        mut addr: impl FnMut(Lane) -> Option<usize>,
    ) -> [U; WARP_SIZE] {
        let mut addrs: Vec<usize> = Vec::with_capacity(WARP_SIZE);
        let out = core::array::from_fn(|i| {
            if i < self.active_lanes {
                if let Some(a) = addr(self.lane(i)) {
                    addrs.push(a);
                    return buf.read_as(a);
                }
            }
            U::default()
        });
        self.charge_global::<U>(&addrs);
        out
    }

    /// Coalesced-analyzed global store.
    pub fn store<T: Pod>(
        &mut self,
        buf: &GpuBuffer<T>,
        val: impl FnMut(Lane) -> Option<(usize, T)>,
    ) {
        self.store_as(buf, val);
    }

    /// [`WarpCtx::store`] through a cast pointer, as [`WarpCtx::load_as`].
    /// The race detector logs the view's indices, so a kernel that writes
    /// one buffer through two widths must not rely on it.
    pub fn store_as<U: Pod, T: Pod>(
        &mut self,
        buf: &GpuBuffer<T>,
        mut val: impl FnMut(Lane) -> Option<(usize, U)>,
    ) {
        let mut addrs: Vec<usize> = Vec::with_capacity(WARP_SIZE);
        for i in 0..self.active_lanes {
            if let Some((a, v)) = val(self.lane(i)) {
                buf.write_as(a, v);
                addrs.push(a);
            }
        }
        if let Some(log) = self.writes.as_deref_mut() {
            log.extend(addrs.iter().map(|&a| (buf.id(), a)));
        }
        self.charge_global::<U>(&addrs);
    }

    // ----- shared memory -----

    fn charge_shared<T: Pod>(&mut self, indices: &[usize]) {
        self.stats.warp_instructions += 1;
        self.stats.inactive_lane_slots += (WARP_SIZE - indices.len()) as u64;
        self.stats.smem_accesses += 1;
        let (_, extra) = conflict_cycles::<T>(indices);
        self.stats.smem_conflict_cycles += extra;
    }

    /// Shared-memory load with bank-conflict accounting.
    pub fn sh_load<T: Pod>(
        &mut self,
        sh: &Shared<T>,
        mut idx: impl FnMut(Lane) -> Option<usize>,
    ) -> [T; WARP_SIZE] {
        let mut indices: Vec<usize> = Vec::with_capacity(WARP_SIZE);
        let out = core::array::from_fn(|i| {
            if i < self.active_lanes {
                if let Some(ix) = idx(self.lane(i)) {
                    indices.push(ix);
                    return sh.get(ix);
                }
            }
            T::default()
        });
        self.charge_shared::<T>(&indices);
        out
    }

    /// Shared-memory store with bank-conflict accounting.
    pub fn sh_store<T: Pod>(
        &mut self,
        sh: &Shared<T>,
        mut val: impl FnMut(Lane) -> Option<(usize, T)>,
    ) {
        let mut indices: Vec<usize> = Vec::with_capacity(WARP_SIZE);
        for i in 0..self.active_lanes {
            if let Some((ix, v)) = val(self.lane(i)) {
                sh.set(ix, v);
                indices.push(ix);
            }
        }
        self.charge_shared::<T>(&indices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp(stats: &mut KernelStats) -> WarpCtx<'_> {
        WarpCtx { warp_id: 0, base_ltid: 0, active_lanes: 32, stats, writes: None }
    }

    #[test]
    fn ballot_builds_lane_mask() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let mask = w.ballot(|l| l.id % 2 == 0);
        assert_eq!(mask, 0x5555_5555);
        assert_eq!(stats.warp_instructions, 1);
    }

    #[test]
    fn ballot_partial_warp_high_lanes_zero() {
        let mut stats = KernelStats::default();
        let mut w =
            WarpCtx { warp_id: 0, base_ltid: 0, active_lanes: 8, stats: &mut stats, writes: None };
        let mask = w.ballot(|_| true);
        assert_eq!(mask, 0xFF);
    }

    #[test]
    fn lane_carries_block_ltid() {
        let mut stats = KernelStats::default();
        let mut w = WarpCtx {
            warp_id: 2,
            base_ltid: 64,
            active_lanes: 32,
            stats: &mut stats,
            writes: None,
        };
        let ltids = w.lanes(|l| l.ltid as u32);
        assert_eq!(ltids[0], 64);
        assert_eq!(ltids[31], 95);
    }

    #[test]
    fn coalesced_load_uses_minimum_sectors() {
        let buf = GpuBuffer::from_host(&(0u32..64).collect::<Vec<_>>());
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let vals = w.load(&buf, |l| Some(l.id));
        assert_eq!(vals[5], 5);
        // 32 lanes x 4B = 128B = 4 sectors of 32B.
        assert_eq!(stats.global_sectors, 4);
        assert_eq!(stats.global_bytes_requested, 128);
    }

    #[test]
    fn strided_load_wastes_sectors() {
        let buf = GpuBuffer::from_host(&vec![0u32; 32 * 16]);
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let _ = w.load(&buf, |l| Some(l.id * 16)); // 64B stride
        assert_eq!(stats.global_sectors, 32); // one sector per lane
        assert!(stats.coalescing_efficiency() < 0.2);
    }

    #[test]
    fn store_writes_and_counts() {
        let buf: GpuBuffer<u16> = GpuBuffer::zeroed(32);
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        w.store(&buf, |l| Some((l.id, l.id as u16 * 2)));
        assert_eq!(buf.to_vec()[10], 20);
        // 32 x 2B = 64B = 2 sectors.
        assert_eq!(stats.global_sectors, 2);
    }

    #[test]
    fn views_read_halves_and_write_bits_at_their_width() {
        // u16 view of u32 words: the low half is the even element.
        let words =
            GpuBuffer::from_host(&(0u32..32).map(|i| i << 16 | (i + 100)).collect::<Vec<_>>());
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let halves: [u16; 32] = w.load_as(&words, |l| Some(l.id + 32));
        assert_eq!(halves[..4], [116, 16, 117, 17]);
        // 32 x 2B = 64B = 2 sectors.
        assert_eq!((stats.global_sectors, stats.global_bytes_requested), (2, 64));
        // i32 bits stored into an f32 buffer read back through either type.
        let floats: GpuBuffer<f32> = GpuBuffer::zeroed(32);
        let mut w = warp(&mut stats);
        w.store_as(&floats, |l| Some((l.id, 1.5f32.to_bits() as i32 + l.id as i32)));
        let bits: [i32; 32] = w.load_as(&floats, |l| Some(l.id));
        assert_eq!((floats.to_vec()[0], bits[3]), (1.5, 1.5f32.to_bits() as i32 + 3));
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn a_view_wider_than_the_element_is_rejected() {
        let halves: GpuBuffer<u16> = GpuBuffer::zeroed(64);
        let mut stats = KernelStats::default();
        let _: [u32; 32] = warp(&mut stats).load_as(&halves, |l| Some(l.id));
    }

    #[test]
    fn predicated_store_counts_divergence() {
        let buf: GpuBuffer<u32> = GpuBuffer::zeroed(32);
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        w.store(&buf, |l| if l.id < 4 { Some((l.id, 1)) } else { None });
        assert_eq!(stats.inactive_lane_slots, 28);
        assert_eq!(buf.to_vec()[..5], [1, 1, 1, 1, 0]);
    }

    #[test]
    fn shfl_rotates() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let vals: [u32; 32] = core::array::from_fn(|i| i as u32);
        let rot = w.shfl(&vals, |lane| (lane + 1) % 32);
        assert_eq!(rot[0], 1);
        assert_eq!(rot[31], 0);
    }

    #[test]
    fn scan_add_is_inclusive_prefix_sum() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let ones = [1u32; 32];
        let scanned = w.scan_add(&ones);
        for (i, &v) in scanned.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
        // log2(32) = 5 instructions.
        assert_eq!(stats.warp_instructions, 5);
    }

    #[test]
    fn reduce_add_sums_lanes() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let vals: [u32; 32] = core::array::from_fn(|i| i as u32);
        assert_eq!(w.reduce_add(&vals), (0..32).sum::<u32>());
    }

    #[test]
    fn sh_column_access_records_conflicts() {
        let sh: Shared<u32> = Shared::new(32 * 32);
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let _ = w.sh_load(&sh, |l| Some(l.id * 32));
        assert_eq!(stats.smem_conflict_cycles, 31);

        let sh_padded: Shared<u32> = Shared::new(32 * 33);
        let mut stats2 = KernelStats::default();
        let mut w2 = warp(&mut stats2);
        let _ = w2.sh_load(&sh_padded, |l| Some(l.id * 33));
        assert_eq!(stats2.smem_conflict_cycles, 0);
    }

    #[test]
    fn any_all_semantics() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        assert!(w.any(|l| l.id == 31));
        assert!(!w.any(|_| false));
        assert!(w.all(|_| true));
        assert!(!w.all(|l| l.id < 31));
    }

    #[test]
    fn lanes_pred_counts_divergent_lanes() {
        let mut stats = KernelStats::default();
        let mut w = warp(&mut stats);
        let out = w.lanes_pred(|l| if l.id < 16 { Some(l.id as u32) } else { None });
        assert_eq!(out[15], 15);
        assert_eq!(out[16], 0);
        assert_eq!(stats.inactive_lane_slots, 16);
    }
}
