//! Workspace-local stand-in for the `rayon` crate, with a real thread pool.
//!
//! The build environment is offline (no crates.io access), so this shim
//! keeps rayon's *call-site API* — `par_iter`, `par_chunks_mut`,
//! `into_par_iter`, the `fold`/`reduce`(identity, op) shapes — while
//! executing on a workspace-owned pool of persistent `std::thread` workers
//! (see [`mod@pool`]). Iterator *structure* (zip, enumerate, chunk
//! boundaries) is evaluated sequentially on the calling thread; the
//! *work* — `map`/`for_each`/`reduce` closures — runs in parallel, which
//! is where all the time goes in this workspace (per-plane Lorenzo
//! passes, per-tile bitshuffles, per-block kernel execution).
//!
//! # Scheduling and the determinism contract
//! Each parallel region splits its items into a chunk grid computed from
//! the item count alone — never from the thread count — and threads claim
//! chunks dynamically from a shared counter (chunked index-range
//! stealing). Results are written to chunk- or item-indexed slots and all
//! reductions combine their per-chunk partials **in chunk order** on the
//! calling thread. Consequently every adapter here is bit-deterministic:
//! the same input produces the same output (including non-associative
//! float reductions) at *any* thread count, including 1. The
//! `parallel_determinism` integration suite holds this contract over the
//! whole compression pipeline. A caller that knows its items are heavy
//! caps the items per task with [`Par::with_max_len`]: the grid then
//! depends on the item count and the cap, and the region fans out
//! however few its tasks (see `pool::run_with_grain`).
//!
//! # Thread count
//! `FZGPU_THREADS` sets the pool size (default: all available cores);
//! `FZGPU_THREADS=1` is a strict sequential escape hatch that never
//! spawns a worker. [`set_num_threads`] / [`current_num_threads`] adjust
//! and inspect it at runtime.
//!
//! # Scope
//! Only the surface actually used in this workspace is provided. If a new
//! adapter is needed, add it to [`Par`] / [`MapPar`] rather than reaching
//! for std iterators at the call site, so a future swap to real rayon
//! stays a one-line `Cargo.toml` change.
//!
//! # Cost of item handles
//! Item *handles* (references, chunk slices) are buffered per region
//! before fan-out: one handle per item. For coarse items (planes, rows,
//! tiles, chunk slices) that is negligible; for a per-value iterator
//! (`par_iter_mut().zip(par_iter())` over a field) it is one or two
//! pointers per value, written and read back on top of the data itself,
//! and it dominates an element-wise pass. Run element-wise passes over
//! index-space chunks instead: `par_chunks_mut(1 << 13)` zipped with
//! `par_chunks(1 << 13)`, with a plain loop inside each chunk.

mod pool;

pub use pool::{current_num_threads, set_num_threads};

use pool::Grain;

use core::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Execution engine: deterministic chunk grids over buffered items.
// ---------------------------------------------------------------------------

/// Raw pointer that may cross threads. Every use targets distinct slots
/// (disjoint indices) per thread, upholding the aliasing rules manually.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare pointer.
    fn get(self) -> *mut T {
        self.0
    }
}
// SAFETY: the engine guarantees disjoint-index access (see call sites).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The deterministic chunk grid: `(chunk_len, n_chunks)`. Depends only on
/// `total` and the caller's cap (`max_len`, see [`Par::with_max_len`]) so
/// that per-chunk partials — and therefore every reduction — are
/// identical at any thread count. Aims for ≤256 chunks, degrading to one
/// item per chunk for small regions (whose items are coarse: planes,
/// tiles, thread blocks).
fn det_grid(total: usize, max_len: Option<usize>) -> (usize, usize) {
    if total == 0 {
        return (1, 0);
    }
    let chunk_len = total.div_ceil(256).min(max_len.unwrap_or(usize::MAX)).max(1);
    (chunk_len, total.div_ceil(chunk_len))
}

/// The pool's view of a grid: capped grids fan out at any size.
fn grain(chunk_len: usize, max_len: Option<usize>) -> Grain {
    match max_len {
        Some(_) => Grain::Capped,
        None => Grain::Items(chunk_len),
    }
}

/// Owning iterator over one chunk's buffered items. Reads items out of
/// the (logically leaked) buffer; whatever the consumer does not iterate
/// is dropped on `Drop`, so each item is consumed exactly once.
struct Claimed<A> {
    ptr: *mut A,
    len: usize,
}

impl<A> Iterator for Claimed<A> {
    type Item = A;

    fn next(&mut self) -> Option<A> {
        if self.len == 0 {
            return None;
        }
        // SAFETY: `ptr..ptr+len` are initialized items this chunk owns.
        let v = unsafe { self.ptr.read() };
        self.ptr = unsafe { self.ptr.add(1) };
        self.len -= 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<A> ExactSizeIterator for Claimed<A> {}

impl<A> Drop for Claimed<A> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

/// Partition `items` into the deterministic grid (at most `max_len` items
/// a chunk) and run `chunk_fn(chunk_index, first_item_index, chunk_items)`
/// for every chunk across the pool. Consumes every item exactly once
/// (chunks that panic may leak their unconsumed items; no double drops).
fn drive<A, F>(mut items: Vec<A>, max_len: Option<usize>, chunk_fn: F)
where
    A: Send,
    F: Fn(usize, usize, Claimed<A>) + Sync,
{
    let n = items.len();
    let (chunk_len, n_chunks) = det_grid(n, max_len);
    let base = SendPtr(items.as_mut_ptr());
    // The region takes ownership of the elements; `items` keeps only the
    // allocation, freed when this frame unwinds or returns.
    unsafe { items.set_len(0) };
    pool::run_with_grain(n_chunks, grain(chunk_len, max_len), &|c| {
        let start = c * chunk_len;
        let len = chunk_len.min(n - start);
        // SAFETY: chunk `c` exclusively owns items `start..start+len`.
        let claimed = Claimed { ptr: unsafe { base.get().add(start) }, len };
        chunk_fn(c, start, claimed);
    });
}

/// Apply `f(index)` for `0..total` in parallel, collecting results in index
/// order — an index-space `map` that skips item buffering entirely. Each
/// pool task runs one tight index loop over its chunk and writes results
/// straight into the output slots, so the per-item cost is the closure
/// call alone (no `Claimed` hand-off, no handle vector). This is the
/// fan-out primitive for coarse launches — e.g. one simulated thread block
/// per index — where `total` is small but each call is heavy.
pub fn par_chunk_map<T, F>(total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (chunk_len, n_chunks) = det_grid(total, None);
    let mut out: Vec<T> = Vec::with_capacity(total);
    let slots = SendPtr(out.as_mut_ptr());
    pool::run_with_grain(n_chunks, Grain::Items(chunk_len), &|c| {
        let start = c * chunk_len;
        let end = (start + chunk_len).min(total);
        for i in start..end {
            // SAFETY: slot `i` belongs to chunk `c` alone; every index in
            // `0..total` is covered by exactly one chunk.
            unsafe { slots.get().add(i).write(f(i)) };
        }
    });
    // SAFETY: all `total` slots were initialized (run_with_grain returned).
    unsafe { out.set_len(total) };
    out
}

/// Run `part` over every chunk and return the per-chunk results **in
/// chunk order** — the deterministic-merge backbone for reductions.
fn parts<A, T, F>(items: Vec<A>, max_len: Option<usize>, part: F) -> Vec<T>
where
    A: Send,
    T: Send,
    F: Fn(usize, usize, Claimed<A>) -> T + Sync,
{
    let n_chunks = det_grid(items.len(), max_len).1;
    let mut out: Vec<T> = Vec::with_capacity(n_chunks);
    let slots = SendPtr(out.as_mut_ptr());
    drive(items, max_len, |c, start, claimed| {
        let v = part(c, start, claimed);
        // SAFETY: slot `c` is written by exactly one chunk.
        unsafe { slots.get().add(c).write(v) };
    });
    // SAFETY: all `n_chunks` slots were initialized (drive returned).
    unsafe { out.set_len(n_chunks) };
    out
}

/// Apply `f` to every item in parallel, preserving item order.
fn map_into_vec<A, T, F>(items: Vec<A>, max_len: Option<usize>, f: F) -> Vec<T>
where
    A: Send,
    T: Send,
    F: Fn(A) -> T + Sync,
{
    let n = items.len();
    let mut out: Vec<T> = Vec::with_capacity(n);
    let slots = SendPtr(out.as_mut_ptr());
    drive(items, max_len, |_c, start, claimed| {
        for (k, a) in claimed.enumerate() {
            // SAFETY: item index `start + k` belongs to this chunk alone.
            unsafe { slots.get().add(start + k).write(f(a)) };
        }
    });
    // SAFETY: all `n` slots were initialized (drive returned).
    unsafe { out.set_len(n) };
    out
}

// ---------------------------------------------------------------------------
// Parallel iterators.
// ---------------------------------------------------------------------------

/// A parallel iterator: lazily composed sequential *structure* whose
/// terminal operations fan the per-item work out over the pool.
pub struct Par<I> {
    iter: I,
    /// Most items per pool task, when capped ([`Par::with_max_len`]).
    max_len: Option<usize>,
}

/// An uncapped parallel iterator over `iter`.
fn par<I>(iter: I) -> Par<I> {
    Par { iter, max_len: None }
}

impl<I: Iterator> Par<I> {
    /// Map each item (rayon: `ParallelIterator::map`). The closure runs in
    /// parallel at the terminal operation.
    pub fn map<T, F: Fn(I::Item) -> T>(self, f: F) -> MapPar<I, F> {
        MapPar { base: self.iter, max_len: self.max_len, f }
    }

    /// Zip with another parallel iterator; the tighter cap of the two
    /// holds.
    pub fn zip<J: Iterator>(self, other: Par<J>) -> Par<core::iter::Zip<I, J>> {
        let max_len = match (self.max_len, other.max_len) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Par { iter: self.iter.zip(other.iter), max_len }
    }

    /// Enumerate items with their index.
    pub fn enumerate(self) -> Par<core::iter::Enumerate<I>> {
        Par { iter: self.iter.enumerate(), max_len: self.max_len }
    }

    /// Keep items matching the predicate (evaluated during the sequential
    /// structure pass — keep predicates cheap).
    pub fn filter<P: FnMut(&I::Item) -> bool>(self, p: P) -> Par<core::iter::Filter<I, P>> {
        Par { iter: self.iter.filter(p), max_len: self.max_len }
    }

    /// rayon's `with_max_len`: at most `len` items per pool task. A capped
    /// region fans out however few its tasks: the caller declares each
    /// task worth a worker handoff, which the default grid cannot tell
    /// from the item count (it runs small regions of single items inline,
    /// see `pool::run_with_grain`). The grid still depends only on the
    /// item count and `len`, never on the thread count.
    pub fn with_max_len(self, len: usize) -> Self {
        Par { max_len: Some(len.max(1)), ..self }
    }

    /// Collect into any [`FromIterator`] container (order preserved, as
    /// rayon's indexed collect guarantees).
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.iter.collect()
    }
}

impl<I: Iterator> Par<I>
where
    I::Item: Send,
{
    /// Run `f` on every item, in parallel.
    pub fn for_each<F: Fn(I::Item) + Sync>(self, f: F) {
        let items: Vec<I::Item> = self.iter.collect();
        drive(items, self.max_len, |_, _, claimed| {
            for a in claimed {
                f(a);
            }
        });
    }

    /// Sum the items. Deterministic at any thread count: per-chunk sums
    /// combine in chunk order.
    pub fn sum<S>(self) -> S
    where
        S: core::iter::Sum<I::Item> + core::iter::Sum<S> + Send,
    {
        let items: Vec<I::Item> = self.iter.collect();
        parts(items, self.max_len, |_, _, claimed| claimed.sum::<S>()).into_iter().sum()
    }

    /// rayon's `reduce`: fold with an identity-producing closure. Each
    /// chunk folds sequentially from `identity()`; partials combine in
    /// chunk order, so the result is schedule-independent.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> I::Item
    where
        ID: Fn() -> I::Item + Sync,
        OP: Fn(I::Item, I::Item) -> I::Item + Sync,
    {
        let items: Vec<I::Item> = self.iter.collect();
        parts(items, self.max_len, |_, _, claimed| claimed.fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    /// rayon's `fold`: produces one accumulator per chunk (rayon: per
    /// split) as a parallel iterator, ready for a following `reduce`.
    /// Accumulators arrive in chunk order.
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Par<std::vec::IntoIter<T>>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, I::Item) -> T + Sync,
    {
        let items: Vec<I::Item> = self.iter.collect();
        let folds = parts(items, self.max_len, |_, _, claimed| claimed.fold(identity(), &fold_op));
        par(folds.into_iter())
    }

    /// rayon's `position_any`: index of some item matching the predicate.
    /// This implementation deterministically returns the *first* match
    /// (chunks later than a known hit are skipped, earlier ones always
    /// complete).
    pub fn position_any<P>(self, p: P) -> Option<usize>
    where
        P: Fn(I::Item) -> bool + Sync,
    {
        let items: Vec<I::Item> = self.iter.collect();
        let best_chunk = AtomicUsize::new(usize::MAX);
        let hits = parts(items, self.max_len, |c, start, claimed| {
            if c > best_chunk.load(Ordering::Relaxed) {
                return None; // a hit in an earlier chunk already wins
            }
            let mut idx = start;
            for a in claimed {
                if p(a) {
                    best_chunk.fetch_min(c, Ordering::Relaxed);
                    return Some(idx);
                }
                idx += 1;
            }
            None
        });
        hits.into_iter().flatten().next()
    }
}

impl<'a, I, T: 'a + Copy> Par<I>
where
    I: Iterator<Item = &'a T>,
{
    /// Copy out of a by-reference iterator.
    pub fn copied(self) -> Par<core::iter::Copied<I>> {
        Par { iter: self.iter.copied(), max_len: self.max_len }
    }
}

/// A mapped parallel iterator: the base structure is evaluated
/// sequentially, `f` runs in parallel at the terminal.
pub struct MapPar<I, F> {
    base: I,
    max_len: Option<usize>,
    f: F,
}

impl<T, I, F> MapPar<I, F>
where
    I: Iterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    /// Collect mapped items, order preserved.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        let items: Vec<I::Item> = self.base.collect();
        map_into_vec(items, self.max_len, self.f).into_iter().collect()
    }

    /// Run `g` on every mapped item, in parallel.
    pub fn for_each<G: Fn(T) + Sync>(self, g: G) {
        let items: Vec<I::Item> = self.base.collect();
        let f = self.f;
        drive(items, self.max_len, |_, _, claimed| {
            for a in claimed {
                g(f(a));
            }
        });
    }

    /// Sum the mapped items (deterministic chunk-ordered combine).
    pub fn sum<S>(self) -> S
    where
        S: core::iter::Sum<T> + core::iter::Sum<S> + Send,
    {
        let items: Vec<I::Item> = self.base.collect();
        let f = self.f;
        parts(items, self.max_len, |_, _, claimed| claimed.map(&f).sum::<S>()).into_iter().sum()
    }

    /// rayon's `reduce` over the mapped items.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        let items: Vec<I::Item> = self.base.collect();
        let f = self.f;
        parts(items, self.max_len, |_, _, claimed| claimed.map(&f).fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    /// rayon's `fold` over the mapped items (one accumulator per chunk).
    pub fn fold<B, ID, G>(self, identity: ID, fold_op: G) -> Par<std::vec::IntoIter<B>>
    where
        B: Send,
        ID: Fn() -> B + Sync,
        G: Fn(B, T) -> B + Sync,
    {
        let items: Vec<I::Item> = self.base.collect();
        let f = self.f;
        let folds =
            parts(items, self.max_len, |_, _, claimed| claimed.map(&f).fold(identity(), &fold_op));
        par(folds.into_iter())
    }
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Iter: Iterator;
    fn into_par_iter(self) -> Par<Self::Iter>;
}

impl<I: IntoIterator> IntoParallelIterator for I {
    type Iter = I::IntoIter;
    fn into_par_iter(self) -> Par<I::IntoIter> {
        par(self.into_iter())
    }
}

/// Slice views as parallel iterators (`rayon::slice::ParallelSlice` etc.).
pub trait ParallelSliceExt<T> {
    fn par_iter(&self) -> Par<core::slice::Iter<'_, T>>;
    fn par_iter_mut(&mut self) -> Par<core::slice::IterMut<'_, T>>;
    fn par_chunks(&self, size: usize) -> Par<core::slice::Chunks<'_, T>>;
    fn par_chunks_mut(&mut self, size: usize) -> Par<core::slice::ChunksMut<'_, T>>;
    fn par_chunks_exact(&self, size: usize) -> Par<core::slice::ChunksExact<'_, T>>;
    fn par_chunks_exact_mut(&mut self, size: usize) -> Par<core::slice::ChunksExactMut<'_, T>>;
}

impl<T> ParallelSliceExt<T> for [T] {
    fn par_iter(&self) -> Par<core::slice::Iter<'_, T>> {
        par(self.iter())
    }

    fn par_iter_mut(&mut self) -> Par<core::slice::IterMut<'_, T>> {
        par(self.iter_mut())
    }

    fn par_chunks(&self, size: usize) -> Par<core::slice::Chunks<'_, T>> {
        par(self.chunks(size))
    }

    fn par_chunks_mut(&mut self, size: usize) -> Par<core::slice::ChunksMut<'_, T>> {
        par(self.chunks_mut(size))
    }

    fn par_chunks_exact(&self, size: usize) -> Par<core::slice::ChunksExact<'_, T>> {
        par(self.chunks_exact(size))
    }

    fn par_chunks_exact_mut(&mut self, size: usize) -> Par<core::slice::ChunksExactMut<'_, T>> {
        par(self.chunks_exact_mut(size))
    }
}

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, MapPar, Par, ParallelSliceExt};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::{current_num_threads, set_num_threads};

    /// Serialize tests that reconfigure the global pool.
    fn threads(n: usize) -> impl Drop {
        struct Reset(std::sync::MutexGuard<'static, ()>);
        impl Drop for Reset {
            fn drop(&mut self) {
                set_num_threads(1);
            }
        }
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = M.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(n);
        Reset(guard)
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..100u32).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[7], 14);
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn map_collect_preserves_order_parallel() {
        let _t = threads(4);
        let v: Vec<u64> = (0..100_000u64).into_par_iter().map(|i| i * i).collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i * i) as u64));
    }

    #[test]
    fn two_arg_reduce_matches_rayon_semantics() {
        let data = [3.0f32, -1.0, 7.5];
        let hi = data.par_iter().copied().reduce(|| f32::NEG_INFINITY, f32::max);
        assert_eq!(hi, 7.5);
        let empty: [f32; 0] = [];
        assert_eq!(empty.par_iter().copied().reduce(|| 0.0, f32::max), 0.0);
    }

    #[test]
    fn fold_then_reduce_histogram_shape() {
        let codes = [1usize, 2, 2, 3, 3, 3];
        let hist = codes
            .par_chunks(2)
            .fold(
                || vec![0u32; 4],
                |mut h, chunk| {
                    for &c in chunk {
                        h[c] += 1;
                    }
                    h
                },
            )
            .reduce(
                || vec![0u32; 4],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            );
        assert_eq!(hist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn chunks_mut_for_each_writes_through() {
        let mut v = vec![0u32; 8];
        v.par_chunks_mut(4).enumerate().for_each(|(i, c)| c.fill(i as u32 + 1));
        assert_eq!(v, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn zip_and_position_any() {
        let a = [1, 2, 3];
        let b = [1, 2, 4];
        let pos = a.par_iter().zip(b.par_iter()).position_any(|(&x, &y)| x != y);
        assert_eq!(pos, Some(2));
    }

    #[test]
    fn position_any_returns_first_match_parallel() {
        let _t = threads(4);
        let mut v = vec![0u8; 100_000];
        v[63_123] = 1;
        v[90_000] = 1;
        assert_eq!(v.par_iter().position_any(|&x| x == 1), Some(63_123));
        assert_eq!(v.par_iter().position_any(|&x| x == 2), None);
    }

    #[test]
    fn float_sum_is_thread_count_invariant() {
        // Non-associative reduction: bit-identity across thread counts is
        // the shim's determinism contract, not an accident.
        let data: Vec<f32> = (0..300_001).map(|i| ((i as f32) * 0.7129).sin() * 1e3).collect();
        let at = |n: usize| {
            let _t = threads(n);
            let s: f64 = data.par_iter().map(|&x| x as f64).sum::<f64>();
            let r = data.par_iter().copied().reduce(|| f32::NEG_INFINITY, f32::max);
            (s.to_bits(), r.to_bits())
        };
        assert_eq!(at(1), at(4));
        assert_eq!(at(2), at(7));
    }

    #[test]
    fn for_each_runs_every_item_parallel() {
        let _t = threads(4);
        let mut v = vec![0u32; 4096];
        v.par_iter_mut().for_each(|x| *x += 1);
        v.par_chunks_exact_mut(64).for_each(|c| c[0] += 1);
        assert_eq!(v.iter().map(|&x| x as usize).sum::<usize>(), 4096 + 64);
    }

    #[test]
    fn owned_items_drop_exactly_once() {
        let _t = threads(4);
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] usize);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        let items: Vec<D> = (0..10_000).map(D).collect();
        // position_any consumes some items eagerly and drops the rest.
        let _ = items.into_par_iter().position_any(|d| d.0 == 5_000);
        assert_eq!(DROPS.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn panic_in_map_propagates() {
        let _t = threads(4);
        let r = std::panic::catch_unwind(|| {
            let _: Vec<u32> =
                (0..10_000u32).into_par_iter().map(|i| if i == 7777 { panic!("boom") } else { i }).collect();
        });
        assert!(r.is_err());
    }

    #[test]
    fn current_num_threads_reflects_override() {
        let _t = threads(3);
        assert_eq!(current_num_threads(), 3);
    }

    #[test]
    fn par_chunk_map_covers_every_index_in_order() {
        let _t = threads(4);
        for total in [0usize, 1, 63, 64, 255, 256, 257, 10_000] {
            let v = crate::par_chunk_map(total, |i| i * 3 + 1);
            assert_eq!(v.len(), total);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3 + 1));
        }
    }

    #[test]
    fn par_chunk_map_matches_sequential_bits() {
        let gen = |i: usize| ((i as f32) * 0.3571).cos() as f64 * 1e2;
        let at = |n: usize| {
            let _t = threads(n);
            crate::par_chunk_map(70_000, gen)
                .iter()
                .fold(0u64, |acc, x| acc.wrapping_add(x.to_bits()))
        };
        assert_eq!(at(1), at(4));
    }

    #[test]
    fn tiny_regions_fall_back_to_sequential() {
        // Single-item chunks below the fan-out floor must run inline: the
        // body observes the pool-worker marker, which only a fanned-out
        // chunk would set.
        let _t = threads(4);
        let saw_worker = std::sync::atomic::AtomicBool::new(false);
        crate::pool::run_with_grain(8, crate::Grain::Items(1), &|_| {
            if crate::pool::in_pool_worker() {
                saw_worker.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(!saw_worker.load(std::sync::atomic::Ordering::Relaxed));
        // Coarse chunks (many items each) still fan out at the same
        // region size.
        let saw_worker = std::sync::atomic::AtomicBool::new(false);
        crate::pool::run_with_grain(8, crate::Grain::Items(1024), &|_| {
            if crate::pool::in_pool_worker() {
                saw_worker.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(saw_worker.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn capped_regions_fan_out_at_any_size() {
        // Eight heavy items, capped one per task, fan out below the floor
        // that keeps an uncapped region of eight inline, and keep their
        // order.
        let _t = threads(4);
        let fanned = |capped: bool| {
            let saw_worker = std::sync::atomic::AtomicBool::new(false);
            let mut v = vec![0usize; 8];
            let items = v.par_iter_mut().enumerate();
            let items = if capped { items.with_max_len(1) } else { items };
            items.for_each(|(i, x)| {
                *x = i;
                if crate::pool::in_pool_worker() {
                    saw_worker.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            });
            assert_eq!(v, (0..8).collect::<Vec<_>>());
            saw_worker.load(std::sync::atomic::Ordering::Relaxed)
        };
        assert!(fanned(true));
        assert!(!fanned(false));
        // A cap also bounds the grid of a large region: 1000 items, at
        // most 3 a task, still sum in order.
        let s: u64 = (0..1000u64).into_par_iter().with_max_len(3).map(|i| i * i).sum();
        assert_eq!(s, (0..1000u64).map(|i| i * i).sum::<u64>());
    }
}
