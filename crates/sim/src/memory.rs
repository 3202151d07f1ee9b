//! Simulated device global memory.
//!
//! A [`GpuBuffer`] is a typed allocation in the simulated GPU's global
//! memory. Kernels access it exclusively through the warp context
//! ([`crate::warp::WarpCtx::load`] / [`crate::warp::WarpCtx::store`]), which
//! performs per-warp coalescing analysis. Host-side access happens between
//! launches: reads through [`GpuBuffer::read_into`] (a ranged bulk copy,
//! which [`GpuBuffer::to_vec`] is built on) and [`GpuBuffer::host_read`],
//! writes through [`GpuBuffer::host_mut`]. A host write takes `&mut self`,
//! and every launch borrows its buffers for the whole launch, so the
//! borrow checker proves a host write can never overlap a kernel. A host
//! read takes `&self` like a kernel's input does; launches are synchronous,
//! so a read between launches sees no writer, and a read never hands out
//! a reference into the buffer that could outlive it.
//!
//! # Why `UnsafeCell`
//! CUDA global memory allows concurrent writes from many blocks; a data race
//! there is undefined behaviour *on the real device too* — correct kernels
//! write disjoint locations (or use atomics). We adopt exactly that
//! contract: the kernel author guarantees that concurrently executing blocks
//! never write overlapping elements. All kernels in this repository satisfy
//! it by construction (each block owns a disjoint output tile, or offsets
//! come from an exclusive prefix sum, which makes ranges disjoint).

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU64, Ordering};

use crate::pod::Pod;

/// Global allocation counter for buffer identities (race detection).
static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A typed allocation in simulated device global memory.
pub struct GpuBuffer<T: Pod> {
    cells: Box<[UnsafeCell<T>]>,
    id: u64,
}

// SAFETY: see module docs — kernels follow the CUDA contract that
// concurrent writes target disjoint elements; the simulator never reads a
// cell while another thread writes the *same* cell in a correct kernel.
unsafe impl<T: Pod> Sync for GpuBuffer<T> {}
unsafe impl<T: Pod> Send for GpuBuffer<T> {}

impl<T: Pod> GpuBuffer<T> {
    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let cells = (0..len).map(|_| UnsafeCell::new(T::default())).collect();
        Self { cells, id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed) }
    }

    /// Allocate and fill from host data (models `cudaMemcpy` H2D; transfer
    /// time is accounted by [`crate::grid::Gpu::upload`], not here).
    pub fn from_host(data: &[T]) -> Self {
        let cells = data.iter().map(|&v| UnsafeCell::new(v)).collect();
        Self { cells, id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed) }
    }

    /// Unique allocation id (used by the optional write-race detector).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Fewest 32-byte sectors any kernel can move to stream this whole
    /// buffer once — the denominator for traffic-amplification budgets
    /// (see [`crate::budget::StatsBudget`]).
    #[inline]
    pub fn min_sectors(&self) -> u64 {
        (self.size_bytes() as u64).div_ceil(crate::device::SECTOR_BYTES as u64)
    }

    /// Raw element read. Bounds-checked; used by the warp context and by
    /// [`GpuBuffer::host_read`].
    #[inline]
    pub(crate) fn read(&self, idx: usize) -> T {
        let cell = &self.cells[idx];
        // SAFETY: per the module contract there is no concurrent write to
        // this element.
        unsafe { *cell.get() }
    }

    /// Raw element write. Bounds-checked.
    #[inline]
    pub(crate) fn write(&self, idx: usize, v: T) {
        let cell = &self.cells[idx];
        // SAFETY: per the module contract no other thread accesses this
        // element concurrently.
        unsafe {
            *cell.get() = v;
        }
    }

    /// Total bits stored in the buffer (fault-injection address space).
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.size_bytes() * 8
    }

    /// Flip one bit of the buffer in place — the global-memory soft-error
    /// hook used by [`crate::fault::FaultInjector`]. Bit `i` lives in byte
    /// `i / 8` of element `i / (8 * T::BYTES)` (little-endian within the
    /// element, matching the host representation).
    ///
    /// # Panics
    /// Panics when `bit >= self.bit_len()`.
    pub fn flip_bit(&self, bit: usize) {
        let bits_per_elem = T::BYTES * 8;
        let cell = &self.cells[bit / bits_per_elem];
        let within = bit % bits_per_elem;
        // SAFETY: same single-writer contract as `write`; `UnsafeCell<T>`
        // has the layout of `T`, whose bytes we address directly.
        unsafe {
            let byte = (cell.get() as *mut u8).add(within / 8);
            *byte ^= 1 << (within % 8);
        }
    }

    /// Copy elements `start..start + out.len()` into `out`: a ranged bulk
    /// read, so a host pass over a device buffer can stream it through a
    /// cache-sized chunk instead of copying all of it first. Like every
    /// host read it must not overlap a kernel writing the buffer; launches
    /// are synchronous, so any call between launches is fine, from any
    /// number of threads at once.
    ///
    /// # Panics
    /// Panics when the range runs past the buffer.
    #[inline]
    pub fn read_into(&self, start: usize, out: &mut [T]) {
        let cells = &self.cells[start..start + out.len()];
        // SAFETY: per the module contract no kernel writes the buffer while
        // the host reads it; `UnsafeCell<T>` has the same layout as `T`.
        out.copy_from_slice(unsafe {
            core::slice::from_raw_parts(cells.as_ptr() as *const T, cells.len())
        });
    }

    /// Copy the device contents back to the host (models D2H without
    /// charging transfer time; use [`crate::grid::Gpu::download`] to charge it).
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.len()];
        self.read_into(0, &mut out);
        out
    }

    /// Host-side peek at one element (e.g. reading a reduction result)
    /// without modeling a bulk transfer. Must not be called while a kernel
    /// is writing the buffer (launches are synchronous, so any call between
    /// launches is fine).
    pub fn host_read(&self, idx: usize) -> T {
        self.read(idx)
    }

    /// The whole buffer as a host slice, for writing between launches
    /// (models a host-side fill of device memory without charging a
    /// transfer; use [`crate::grid::Gpu::upload`] to charge one). The
    /// exclusive borrow is the safety argument: no launch can hold the
    /// buffer while the slice lives.
    pub fn host_mut(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` guarantees exclusive access; `UnsafeCell<T>`
        // has the same layout as `T`.
        unsafe {
            core::slice::from_raw_parts_mut(self.cells.as_mut_ptr() as *mut T, self.cells.len())
        }
    }
}

impl<T: Pod + core::fmt::Debug> core::fmt::Debug for GpuBuffer<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GpuBuffer<{}>[len={}]", core::any::type_name::<T>(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_host_device() {
        let data: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let buf = GpuBuffer::from_host(&data);
        assert_eq!(buf.len(), 1000);
        assert_eq!(buf.size_bytes(), 4000);
        assert_eq!(buf.to_vec(), data);
    }

    #[test]
    fn read_into_copies_a_range() {
        let buf = GpuBuffer::from_host(&[3u32, 1, 4, 1, 5, 9]);
        let mut out = [0u32; 3];
        buf.read_into(2, &mut out);
        assert_eq!(out, [4, 1, 5]);
        buf.read_into(6, &mut []);
        assert_eq!(buf.to_vec(), [3, 1, 4, 1, 5, 9]);
    }

    #[test]
    #[should_panic]
    fn read_into_rejects_a_range_past_the_end() {
        GpuBuffer::from_host(&[1u8, 2]).read_into(1, &mut [0u8; 2]);
    }

    #[test]
    fn zeroed_is_default() {
        let buf: GpuBuffer<f32> = GpuBuffer::zeroed(16);
        assert!(buf.to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn host_mut_writes_in_place() {
        let mut buf: GpuBuffer<u16> = GpuBuffer::zeroed(8);
        let id = buf.id();
        buf.host_mut()[..3].copy_from_slice(&[1, 2, 3]);
        assert_eq!(buf.to_vec(), vec![1, 2, 3, 0, 0, 0, 0, 0]);
        buf.host_mut()[7] = 9;
        assert_eq!(buf.host_read(7), 9);
        assert_eq!((buf.id(), buf.host_mut().len()), (id, 8), "same allocation, whole length");
        let mut full = GpuBuffer::from_host(&[5u64, 6, 7]);
        assert_eq!(full.host_mut(), &[5, 6, 7], "the slice shows the current contents");
    }
}
