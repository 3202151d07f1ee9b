//! Simulated device global memory.
//!
//! A [`GpuBuffer`] is a typed allocation in the simulated GPU's global
//! memory. Kernels access it exclusively through the warp context
//! ([`crate::warp::WarpCtx::load`] / [`crate::warp::WarpCtx::store`]), which
//! performs per-warp coalescing analysis. Host-side access happens between
//! launches via [`GpuBuffer::to_vec`] / [`GpuBuffer::copy_from_host`].
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
    /// host-side readback.
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

    /// Copy the device contents back to the host (models D2H without
    /// charging transfer time; use [`crate::grid::Gpu::download`] to charge it).
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.read(i)).collect()
    }

    /// Host-side peek at one element (e.g. reading a reduction result)
    /// without modeling a bulk transfer. Must not be called while a kernel
    /// is writing the buffer (launches are synchronous, so any call between
    /// launches is fine).
    pub fn host_read(&self, idx: usize) -> T {
        self.read(idx)
    }

    /// Overwrite a prefix of the buffer from host memory.
    ///
    /// # Panics
    /// Panics if `data.len() > self.len()`.
    pub fn copy_from_host(&mut self, data: &[T]) {
        assert!(
            data.len() <= self.len(),
            "host slice ({}) larger than device buffer ({})",
            data.len(),
            self.len()
        );
        for (i, &v) in data.iter().enumerate() {
            self.write(i, v);
        }
    }

    /// Overwrite a prefix of the buffer from host memory through a shared
    /// reference — the analytic engine's fill path, which writes
    /// host-computed kernel results into buffers that are shared (`&`)
    /// kernel arguments. Same single-writer contract as the raw `write`:
    /// launches are synchronous, so any call between launches is safe.
    ///
    /// # Panics
    /// Panics if `data.len() > self.len()`.
    pub fn host_fill_from(&self, data: &[T]) {
        assert!(
            data.len() <= self.len(),
            "host slice ({}) larger than device buffer ({})",
            data.len(),
            self.len()
        );
        for (i, &v) in data.iter().enumerate() {
            self.write(i, v);
        }
    }

    /// Borrow the contents as a plain slice. Requires `&mut self`, which
    /// statically proves no kernel is concurrently mutating the buffer.
    pub fn as_slice_mut_view(&mut self) -> &[T] {
        // SAFETY: `&mut self` guarantees exclusive access; `UnsafeCell<T>`
        // has the same layout as `T`.
        unsafe { core::slice::from_raw_parts(self.cells.as_ptr() as *const T, self.cells.len()) }
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
    fn zeroed_is_default() {
        let buf: GpuBuffer<f32> = GpuBuffer::zeroed(16);
        assert!(buf.to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn copy_from_host_prefix() {
        let mut buf: GpuBuffer<u16> = GpuBuffer::zeroed(8);
        buf.copy_from_host(&[1, 2, 3]);
        assert_eq!(buf.to_vec(), vec![1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "larger than device buffer")]
    fn copy_from_host_too_big_panics() {
        let mut buf: GpuBuffer<u8> = GpuBuffer::zeroed(2);
        buf.copy_from_host(&[1, 2, 3]);
    }

    #[test]
    fn mut_view_matches_contents() {
        let mut buf = GpuBuffer::from_host(&[5u64, 6, 7]);
        assert_eq!(buf.as_slice_mut_view(), &[5, 6, 7]);
    }
}
