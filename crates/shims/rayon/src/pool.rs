//! The host thread pool behind the parallel iterator layer.
//!
//! A single process-global pool of persistent worker threads executes
//! every parallel region in the workspace. Work is distributed by
//! *chunked index-range stealing*: a region is split into a fixed grid of
//! chunks and every participating thread (the submitter included) claims
//! chunk indices from a shared atomic counter until the grid is drained.
//! Threads that finish early automatically steal the remaining chunks, so
//! load imbalance between chunks costs at most one chunk of tail latency.
//!
//! # Thread count
//! The pool size comes from the `FZGPU_THREADS` environment variable, read
//! once at first use; unset, it defaults to
//! [`std::thread::available_parallelism`]. `FZGPU_THREADS=1` is a strict
//! escape hatch: no worker threads are ever spawned and every region runs
//! inline on the calling thread. [`set_num_threads`] adjusts the count at
//! runtime (used by the wall-clock bench to sweep thread counts in one
//! process); workers are spawned lazily, on the first region that can use
//! them.
//!
//! # Determinism
//! The pool makes no scheduling guarantees, and needs none: callers in
//! `lib.rs` assign work to chunks with a grid that depends only on the
//! item count (never the thread count) and write results into
//! chunk-indexed slots, so every reduction merges in chunk order and every
//! result is bit-identical at any thread count. See the crate docs.
//!
//! # Nesting and re-entrancy
//! A parallel region entered from inside a worker (nested parallelism)
//! runs inline sequentially — the outer region already owns the pool. A
//! region submitted while another thread's region is active (e.g. two
//! test threads) also runs inline rather than queueing; correctness never
//! depends on parallel execution.
//!
//! # Panics
//! A panic inside a parallel closure is caught on the executing thread,
//! the region is drained, and the first panic payload is re-raised on the
//! submitting thread — workers never die, and `should_panic` callers see
//! the original message.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Upper bound on the configurable thread count (a backstop against
/// `FZGPU_THREADS=999999`, not a tuning parameter).
const MAX_THREADS: usize = 256;

thread_local! {
    /// True while this thread is executing chunks of some region — the
    /// nested-parallelism guard.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while this thread is executing fanned-out chunks (either as a
/// pool worker or as the calling thread draining its own region). False
/// on the inline sequential paths — which makes it a test probe for
/// "did this region actually fan out".
#[cfg(test)]
pub(crate) fn in_pool_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Configured thread count; 0 = not yet initialized from the environment.
static TARGET: AtomicUsize = AtomicUsize::new(0);

type PanicSlot = Mutex<Option<Box<dyn std::any::Any + Send>>>;

/// A published parallel region. The raw pointers borrow stack data of the
/// submitting thread; soundness argument in [`run`].
#[derive(Clone, Copy)]
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    next: *const AtomicUsize,
    n_chunks: usize,
    /// How many workers may join (submitter participates separately).
    max_workers: usize,
    panic_slot: *const PanicSlot,
}

// SAFETY: the pointers are dereferenced only between job publication and
// the submitter's completion wait (see `run`), during which the pointees
// are live and the `Fn` is `Sync`.
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    job: Option<Job>,
    /// Bumped on every publication so sleeping workers can tell a new job
    /// from a spurious wakeup.
    seq: u64,
    /// Workers that joined the current job (capped at `max_workers`).
    entrants: usize,
    /// Workers currently executing the current job's chunks.
    in_flight: usize,
    /// Worker threads spawned so far (grows, never shrinks).
    workers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new job.
    work: Condvar,
    /// The submitter waits here for `in_flight` to reach zero.
    done: Condvar,
}

fn shared() -> &'static Shared {
    static S: OnceLock<&'static Shared> = OnceLock::new();
    S.get_or_init(|| {
        Box::leak(Box::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        }))
    })
}

/// The configured thread count (submitter + workers). Reads
/// `FZGPU_THREADS` on first call.
pub fn current_num_threads() -> usize {
    let t = TARGET.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let n = std::env::var("FZGPU_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .min(MAX_THREADS);
    // Racing initializers compute the same value; last store wins harmlessly.
    TARGET.store(n, Ordering::Relaxed);
    n
}

/// Override the thread count at runtime. `1` reverts to strictly
/// sequential execution (already-spawned workers stay parked). Counts are
/// clamped to `1..=256`.
pub fn set_num_threads(n: usize) {
    TARGET.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Below this many total items, a region whose chunks hold a single item
/// each never fans out: the fixed worker-handoff cost (mutex + condvar
/// wakeups for every worker) dwarfs any possible win on so few items. The
/// chunk grid caps at 256 chunks, so single-item chunks imply a small
/// region; coarse multi-item chunks (large regions) always fan out.
const MIN_FANOUT_ITEMS: usize = 64;

/// How a region's chunks were sized, which decides whether a small region
/// fans out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// The default grid, this many items per chunk: a region of fewer than
    /// [`MIN_FANOUT_ITEMS`] single-item chunks runs inline.
    Items(usize),
    /// The caller capped the items per chunk (`Par::with_max_len`),
    /// declaring each chunk worth a worker handoff: the region fans out at
    /// any size.
    Capped,
}

/// Execute `body(chunk)` for every chunk in `0..n_chunks`, distributing
/// chunks over the pool. Returns after every chunk has completed.
/// Sequential (inline) when the pool is configured for one thread, when
/// called from inside a worker, when another region is active, or when
/// the region is too small to amortize the worker handoff: `grain` says
/// how the caller sized its chunks, and default-grid regions of
/// single-item chunks with fewer than [`MIN_FANOUT_ITEMS`] of them run
/// inline on the calling thread — the sequential-fallback threshold that
/// keeps tiny launches (a few dozen simulated blocks, four scan tiles)
/// from paying mutex + condvar wakeup costs that dwarf the work itself.
/// A [`Grain::Capped`] region is exempt: its caller knows each chunk is
/// heavy, which the item count alone cannot tell.
///
/// # Tracing
/// Region and chunk counts are wallclock-class metrics: the chunk grid is
/// a pure function of item count, but *which regions exist at all* depends
/// on the execution strategy (simulation engine, fan-out thresholds), not
/// on the algorithm being computed — so they stay out of the
/// deterministic exposition the engine-equivalence contract pins.
/// Incremented once per call regardless of which execution path runs.
/// When a span capture window is open, chunks that fan out to the pool
/// record their spans through a [`fzgpu_trace::RegionCapture`] and merge
/// them back in chunk order — the same record sequence the inline paths
/// produce naturally — so the captured span tree is bit-identical at any
/// thread count.
pub fn run_with_grain(n_chunks: usize, grain: Grain, body: &(dyn Fn(usize) + Sync)) {
    fzgpu_trace::metrics::counter_add(
        fzgpu_trace::metrics::Class::Wall,
        "fzgpu_pool_regions_total",
        &[],
        1,
    );
    fzgpu_trace::metrics::counter_add(
        fzgpu_trace::metrics::Class::Wall,
        "fzgpu_pool_chunks_total",
        &[],
        n_chunks as u64,
    );
    let threads = current_num_threads();
    if n_chunks <= 1
        || threads == 1
        || (matches!(grain, Grain::Items(k) if k < 2) && n_chunks < MIN_FANOUT_ITEMS)
        || IN_POOL.with(|f| f.get())
    {
        for i in 0..n_chunks {
            body(i);
        }
        return;
    }

    let sh = shared();
    let next = AtomicUsize::new(0);
    let panic_slot: PanicSlot = Mutex::new(None);
    // Per-chunk span capture (no-op when no capture window is open). The
    // traced wrapper redirects each chunk's spans into a chunk-indexed
    // slot; after the region drains they merge back in chunk order.
    let region = fzgpu_trace::RegionCapture::new(n_chunks);
    let traced = |i: usize| region.run(i, || body(i));
    let traced_ref: &(dyn Fn(usize) + Sync) = &traced;
    // SAFETY (lifetime erasure): the job's pointers reference `traced`
    // (which borrows `body` and `region`), `next` and `panic_slot` on this
    // stack frame. `run` does not return until (a) its own drain loop has
    // claimed every remaining chunk and (b) `in_flight == 0`, i.e. every
    // worker that copied the job has left `execute`. Workers that wake
    // later observe `job == None` under the mutex and never touch the
    // pointers.
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(traced_ref) };
    let job = Job {
        body: body_static,
        next: &next,
        n_chunks,
        max_workers: threads - 1,
        panic_slot: &panic_slot,
    };

    {
        let mut st = sh.state.lock().unwrap();
        if st.job.is_some() {
            // Another thread's region is active; stay out of its way.
            drop(st);
            for i in 0..n_chunks {
                body(i);
            }
            return;
        }
        while st.workers < threads - 1 {
            st.workers += 1;
            let id = st.workers;
            std::thread::Builder::new()
                .name(format!("fzgpu-pool-{id}"))
                .spawn(move || worker_loop(sh))
                .expect("spawn pool worker");
        }
        st.entrants = 0;
        st.job = Some(job);
        st.seq = st.seq.wrapping_add(1);
        sh.work.notify_all();
    }

    // The submitter is a full participant: it steals chunks like any
    // worker and, because its loop only ends once the counter passes
    // `n_chunks`, every chunk is claimed by the time it gets here.
    execute(&job);

    let mut st = sh.state.lock().unwrap();
    st.job = None;
    while st.in_flight > 0 {
        st = sh.done.wait(st).unwrap();
    }
    drop(st);

    // All chunks are done; fold worker-captured spans back into this
    // thread's buffer in chunk order (before re-raising any panic, so the
    // trace keeps the records leading up to the failure).
    region.merge();

    let payload = panic_slot.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Claim and execute chunks until the job's counter is exhausted.
/// Returns how many chunks this thread executed.
fn execute(job: &Job) -> usize {
    let was = IN_POOL.with(|f| f.replace(true));
    // SAFETY: see `Job` / `run` — pointees outlive every `execute` call.
    let body = unsafe { &*job.body };
    let next = unsafe { &*job.next };
    let mut executed = 0;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            break;
        }
        executed += 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
            let slot = unsafe { &*job.panic_slot };
            let mut s = slot.lock().unwrap();
            if s.is_none() {
                *s = Some(payload);
            }
        }
    }
    IN_POOL.with(|f| f.set(was));
    executed
}

fn worker_loop(sh: &'static Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if st.seq != seen {
                    seen = st.seq;
                    if let Some(job) = st.job {
                        if st.entrants < job.max_workers {
                            st.entrants += 1;
                            st.in_flight += 1;
                            break job;
                        }
                    }
                }
                st = sh.work.wait(st).unwrap();
            }
        };
        let stolen = execute(&job);
        if stolen > 0 {
            // Schedule-dependent by nature: which worker got how many
            // chunks varies run to run, hence the wallclock class.
            fzgpu_trace::metrics::counter_add(
                fzgpu_trace::metrics::Class::Wall,
                "fzgpu_pool_steals_total",
                &[],
                stolen as u64,
            );
        }
        let mut st = sh.state.lock().unwrap();
        st.in_flight -= 1;
        if st.in_flight == 0 {
            sh.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    // Pool configuration is process-global; serialize the tests that
    // change it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn covers_every_chunk_exactly_once() {
        let _g = lock();
        set_num_threads(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run_with_grain(1000, Grain::Capped, &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        set_num_threads(1);
    }

    #[test]
    fn sequential_mode_runs_inline() {
        let _g = lock();
        set_num_threads(1);
        let tid = std::thread::current().id();
        let ok = AtomicU64::new(0);
        run_with_grain(8, Grain::Capped, &|_| {
            if std::thread::current().id() == tid {
                ok.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_regions_run_inline() {
        let _g = lock();
        set_num_threads(4);
        let total = AtomicU64::new(0);
        run_with_grain(4, Grain::Capped, &|_| {
            run_with_grain(4, Grain::Capped, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
        set_num_threads(1);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let _g = lock();
        set_num_threads(4);
        let r = catch_unwind(|| {
            run_with_grain(64, Grain::Capped, &|c| {
                assert!(c != 17, "chunk seventeen exploded");
            });
        });
        set_num_threads(1);
        let payload = r.expect_err("panic must propagate");
        // Literal-message asserts panic with `&'static str` on current
        // rustc; formatted ones with `String`. Accept either.
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk seventeen exploded"), "{msg}");
    }

    #[test]
    fn thread_count_roundtrips() {
        let _g = lock();
        set_num_threads(7);
        assert_eq!(current_num_threads(), 7);
        set_num_threads(0); // clamped up
        assert_eq!(current_num_threads(), 1);
        set_num_threads(100_000); // clamped down
        assert_eq!(current_num_threads(), MAX_THREADS);
        set_num_threads(1);
    }
}
