//! Size-bucketed device memory pool.
//!
//! Real FZ-GPU deployments never `cudaMalloc` on the hot path: a malloc
//! takes an implicit device synchronization (modeled as
//! [`crate::device::DeviceSpec::alloc_overhead`]), so serving code
//! allocates once and recycles. [`MemPool`] models exactly that: freed
//! [`GpuBuffer`]s are kept on per-size free lists grouped into
//! power-of-two byte buckets, and a later request for the same element
//! type and length is served from the free list instead of a fresh
//! allocation.
//!
//! # Bit-exactness
//! A recycled buffer is zeroed before it is handed out (the moral
//! equivalent of the `cudaMemsetAsync` a correct pipeline would issue), so
//! a pooled pipeline produces byte-identical streams to a non-pooled one —
//! held by the `mempool_pipeline` proptest suite at the repo root.
//!
//! # Accounting
//! The pool tracks live bytes (acquired, not yet released), the high-water
//! mark of live bytes, free bytes parked on the lists, and hit/miss/
//! fragmentation counters. A *fragmentation miss* is a miss that occurred
//! while the free lists held at least the requested byte count — memory
//! was available but in the wrong shape. Counters mirror into the global
//! metrics registry under `fzgpu_sim_mempool_*` ([`Class::Det`]: the service
//! layer drives the pool from one thread, so counts are schedule-free).
//!
//! The handle is `Clone` + `Send` + `Sync` (an `Arc<Mutex<..>>`): one pool
//! can back every job of a serving process.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use fzgpu_trace::metrics::{self, Class};

use crate::memory::GpuBuffer;
use crate::pod::Pod;

/// Snapshot of the pool's accounting counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list.
    pub hits: u64,
    /// Requests that fell through to a fresh allocation.
    pub misses: u64,
    /// Misses that occurred while `free_bytes >= requested bytes` —
    /// memory was parked but shaped wrong.
    pub fragmentation_misses: u64,
    /// Bytes currently acquired and not yet released.
    pub live_bytes: u64,
    /// Maximum of `live_bytes` over the pool's lifetime.
    pub high_water_bytes: u64,
    /// Bytes currently parked on the free lists.
    pub free_bytes: u64,
    /// Buffers released back into the pool over its lifetime.
    pub releases: u64,
}

impl PoolStats {
    /// Hit rate in [0, 1]; 1.0 when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One parked buffer: the type-erased allocation plus its byte size.
struct Parked {
    buf: Box<dyn Any + Send>,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    /// Exact-shape free lists: `(element type, element count)` -> buffers.
    free: HashMap<(TypeId, usize), Vec<Parked>>,
    /// Free bytes per power-of-two bucket (`bytes.next_power_of_two()`),
    /// for the fragmentation report.
    buckets: HashMap<u64, u64>,
    stats: PoolStats,
}

/// A shared, size-bucketed device-memory pool (see the module docs).
#[derive(Clone, Default)]
pub struct MemPool {
    inner: Arc<Mutex<Inner>>,
}

/// Power-of-two byte bucket a request of `bytes` falls into.
fn bucket_of(bytes: u64) -> u64 {
    bytes.max(1).next_power_of_two()
}

impl MemPool {
    /// New empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire a zeroed buffer of exactly `len` elements. Returns the
    /// buffer and whether it was served from the free list (`true` = hit,
    /// no fresh device allocation happened).
    pub fn acquire<T: Pod>(&self, len: usize) -> (GpuBuffer<T>, bool) {
        let bytes = (len * T::BYTES) as u64;
        let mut inner = self.lock();
        let recycled = inner.free.get_mut(&(TypeId::of::<T>(), len)).and_then(Vec::pop);
        let hit = recycled.is_some();
        let buf = match recycled {
            Some(parked) => {
                debug_assert_eq!(parked.bytes, bytes);
                inner.stats.free_bytes -= bytes;
                inner.stats.hits += 1;
                metrics::counter_add(Class::Det, "fzgpu_sim_mempool_hits_total", &[], 1);
                let mut buf =
                    *parked.buf.downcast::<GpuBuffer<T>>().expect("free list keyed by type");
                // Zero the recycled storage so a hit is indistinguishable
                // from a fresh `alloc` (models cudaMemsetAsync).
                buf.host_mut().fill(T::default());
                buf
            }
            None => {
                inner.stats.misses += 1;
                metrics::counter_add(Class::Det, "fzgpu_sim_mempool_misses_total", &[], 1);
                if inner.stats.free_bytes >= bytes && bytes > 0 {
                    inner.stats.fragmentation_misses += 1;
                    metrics::counter_add(Class::Det, "fzgpu_sim_mempool_frag_misses_total", &[], 1);
                }
                GpuBuffer::zeroed(len)
            }
        };
        inner.stats.live_bytes += bytes;
        if inner.stats.live_bytes > inner.stats.high_water_bytes {
            inner.stats.high_water_bytes = inner.stats.live_bytes;
            metrics::gauge_set(
                Class::Det,
                "fzgpu_sim_mempool_high_water_bytes",
                &[],
                inner.stats.high_water_bytes as f64,
            );
        }
        (buf, hit)
    }

    /// Release a buffer back onto its free list for later reuse.
    pub fn release<T: Pod>(&self, buf: GpuBuffer<T>) {
        let bytes = buf.size_bytes() as u64;
        let len = buf.len();
        let mut inner = self.lock();
        inner.stats.live_bytes = inner.stats.live_bytes.saturating_sub(bytes);
        inner.stats.free_bytes += bytes;
        inner.stats.releases += 1;
        *inner.buckets.entry(bucket_of(bytes)).or_insert(0) += bytes;
        metrics::counter_add(Class::Det, "fzgpu_sim_mempool_releases_total", &[], 1);
        inner
            .free
            .entry((TypeId::of::<T>(), len))
            .or_default()
            .push(Parked { buf: Box::new(buf), bytes });
    }

    /// Drop every parked buffer (models `cudaFree` of the whole pool at
    /// teardown). Returns the bytes freed. Live buffers are unaffected.
    pub fn drain(&self) -> u64 {
        let mut inner = self.lock();
        let freed = inner.stats.free_bytes;
        inner.free.clear();
        inner.buckets.clear();
        inner.stats.free_bytes = 0;
        freed
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    /// Free bytes per power-of-two bucket, ascending — the shape of parked
    /// memory, cumulative over the pool's lifetime of releases.
    pub fn bucket_histogram(&self) -> Vec<(u64, u64)> {
        let inner = self.lock();
        let mut v: Vec<(u64, u64)> = inner.buckets.iter().map(|(&b, &n)| (b, n)).collect();
        v.sort_unstable();
        v
    }
}

impl core::fmt::Debug for MemPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "MemPool[live={} free={} hwm={} hits={} misses={}]",
            s.live_bytes, s.free_bytes, s.high_water_bytes, s.hits, s.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_on_same_shape() {
        let pool = MemPool::new();
        let (a, hit) = pool.acquire::<u32>(1024);
        assert!(!hit);
        pool.release(a);
        let (b, hit) = pool.acquire::<u32>(1024);
        assert!(hit, "same-shape request must be served from the free list");
        assert_eq!(b.len(), 1024);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        let pool = MemPool::new();
        let (a, _) = pool.acquire::<u64>(64);
        for i in 0..64 {
            a.write_as(i, 0xdead_beef_u64);
        }
        pool.release(a);
        let (b, hit) = pool.acquire::<u64>(64);
        assert!(hit);
        assert!(b.to_vec().iter().all(|&v| v == 0), "hit must look like a fresh zeroed alloc");
    }

    #[test]
    fn type_and_len_keep_free_lists_apart() {
        let pool = MemPool::new();
        let (a, _) = pool.acquire::<u32>(100);
        pool.release(a);
        // Same byte count, different element type: miss — and a
        // fragmentation miss, since 400 free bytes were parked.
        let (_, hit) = pool.acquire::<f32>(100);
        assert!(!hit);
        assert_eq!(pool.stats().fragmentation_misses, 1);
        // Same type, different length: also a fragmentation miss.
        let (_, hit) = pool.acquire::<u32>(50);
        assert!(!hit);
        assert_eq!(pool.stats().fragmentation_misses, 2);
    }

    #[test]
    fn high_water_tracks_peak_live_bytes() {
        let pool = MemPool::new();
        let (a, _) = pool.acquire::<u8>(1000);
        let (b, _) = pool.acquire::<u8>(500);
        assert_eq!(pool.stats().high_water_bytes, 1500);
        pool.release(a);
        let (c, _) = pool.acquire::<u8>(200);
        // Peak was 1500; current live is 700.
        let s = pool.stats();
        assert_eq!(s.high_water_bytes, 1500);
        assert_eq!(s.live_bytes, 700);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.stats().live_bytes, 0);
    }

    #[test]
    fn drain_empties_free_lists() {
        let pool = MemPool::new();
        for len in [10usize, 20, 30] {
            let (buf, _) = pool.acquire::<f32>(len);
            pool.release(buf);
        }
        assert_eq!(pool.stats().free_bytes, 240);
        assert_eq!(pool.drain(), 240);
        let s = pool.stats();
        assert_eq!(s.free_bytes, 0);
        // Post-drain request for a previously parked shape is a miss.
        let (_, hit) = pool.acquire::<f32>(10);
        assert!(!hit);
    }

    #[test]
    fn bucket_histogram_is_power_of_two_keyed() {
        let pool = MemPool::new();
        let (a, _) = pool.acquire::<u8>(100); // 100 B -> bucket 128
        let (b, _) = pool.acquire::<u8>(1000); // 1000 B -> bucket 1024
        pool.release(a);
        pool.release(b);
        let hist = pool.bucket_histogram();
        assert_eq!(hist, vec![(128, 100), (1024, 1000)]);
    }

    #[test]
    fn shared_handle_sees_one_pool() {
        let pool = MemPool::new();
        let other = pool.clone();
        let (a, _) = pool.acquire::<u32>(8);
        other.release(a);
        let (_, hit) = pool.acquire::<u32>(8);
        assert!(hit, "clones share the free lists");
    }
}
