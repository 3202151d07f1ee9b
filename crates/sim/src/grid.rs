//! Kernel launch, grid scheduling, and the device timeline.
//!
//! [`Gpu`] owns a device spec and a timeline of events (kernel launches and
//! PCIe transfers). [`Gpu::launch`] executes the kernel closure once per
//! block, fanning blocks out across the workspace thread pool
//! (`FZGPU_THREADS` workers; see the `rayon` shim crate) — mirroring their
//! independence on the device — then merges per-block counters and appends
//! a timed [`KernelRecord`] computed by the roofline model.
//!
//! # Determinism contract
//! Host-side parallelism must never show through in results. Per-block
//! state ([`BlockCtx`]) is isolated while blocks run; counters, race logs,
//! and fault draws merge **in block order** afterwards, and per-block
//! fault streams are seeded from `(launch, block)` rather than anything
//! schedule-dependent. Timelines, [`KernelStats`], detected races, and
//! every buffer byte are therefore bit-identical at any `FZGPU_THREADS`
//! value (held by the `parallel_determinism` test suite). The one
//! deliberate exception to parallel execution: with race detection enabled
//! blocks run sequentially, because the buggy kernels that detector exists
//! to catch would otherwise be real host data races (UB), not simulated
//! ones.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use fzgpu_trace::metrics::{self, Class};

use crate::block::{BlockCtx, Dim3};
use crate::device::DeviceSpec;
use crate::engine::Engine;
use crate::fault::{BlockFault, FaultInjector, FaultPlan, RetryPolicy};
use crate::memory::GpuBuffer;
use crate::mempool::MemPool;
use crate::perf::{KernelRecord, KernelStats, TimeBreakdown, TransferRecord};
use crate::pod::Pod;

/// An entry on the device timeline.
#[derive(Debug, Clone)]
pub enum Event {
    /// A kernel launch.
    Kernel(KernelRecord),
    /// A host<->device copy.
    Transfer(TransferRecord),
}

impl Event {
    /// Modeled duration of the event in seconds.
    pub fn time(&self) -> f64 {
        match self {
            Event::Kernel(k) => k.time,
            Event::Transfer(t) => t.time,
        }
    }

    /// Display name (plain kernel name — failed transient-fault retry
    /// records carry their ordinal in
    /// [`KernelRecord::retry_attempt`], rendered lazily by
    /// [`KernelRecord::display_name`]).
    pub fn name(&self) -> &str {
        match self {
            Event::Kernel(k) => &k.name,
            Event::Transfer(t) => t.direction,
        }
    }
}

/// A cross-block write collision found by the race detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRace {
    /// Kernel in which the collision occurred.
    pub kernel: String,
    /// Colliding buffer's allocation id.
    pub buffer_id: u64,
    /// Element index written by more than one block.
    pub index: usize,
}

/// Class entries a device's memo holds before it is cleared all at once:
/// a bound on what a long-lived device keeps, not a tuning knob.
const MEMO_CAPACITY: usize = 4096;

/// The exact key of one block class of a classed launch (see
/// [`Gpu::launch_classed`]): the kernel, its launch geometry and
/// signature, and the class key.
#[derive(Hash)]
struct ClassKey<'a> {
    name: &'a str,
    grid: Dim3,
    block: Dim3,
    sig: &'a [u64],
    class: u64,
}

/// One memoized class: an owned copy of its key and the representative
/// block's unscaled counters.
struct MemoEntry {
    name: Box<str>,
    grid: Dim3,
    block: Dim3,
    sig: Box<[u64]>,
    class: u64,
    stats: KernelStats,
}

impl MemoEntry {
    fn matches(&self, key: &ClassKey<'_>) -> bool {
        *self.name == *key.name
            && self.grid == key.grid
            && self.block == key.block
            && *self.sig == *key.sig
            && self.class == key.class
    }
}

/// Representative counters of every block class a device has run. A hash
/// of the key picks the bucket; within it, entries compare whole keys, so
/// a hash collision can never hand one class another's counters. Looking
/// a key up allocates nothing.
#[derive(Default)]
struct ClassMemo {
    buckets: HashMap<u64, Vec<MemoEntry>>,
    len: usize,
}

impl ClassMemo {
    fn bucket(key: &ClassKey<'_>) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn get(&self, key: &ClassKey<'_>) -> Option<KernelStats> {
        let bucket = self.buckets.get(&Self::bucket(key))?;
        bucket.iter().find(|e| e.matches(key)).map(|e| e.stats)
    }

    fn insert(&mut self, key: &ClassKey<'_>, stats: KernelStats) {
        if self.len == MEMO_CAPACITY {
            self.buckets.clear();
            self.len = 0;
        }
        self.buckets.entry(Self::bucket(key)).or_default().push(MemoEntry {
            name: key.name.into(),
            grid: key.grid,
            block: key.block,
            sig: key.sig.into(),
            class: key.class,
            stats,
        });
        self.len += 1;
    }
}

/// A simulated GPU: device spec + event timeline.
pub struct Gpu {
    spec: DeviceSpec,
    timeline: Vec<Event>,
    detect_races: bool,
    races: Vec<WriteRace>,
    fault: Option<FaultInjector>,
    retry_policy: RetryPolicy,
    launch_index: u64,
    total_retries: u64,
    pool: Option<MemPool>,
    charge_alloc: bool,
    engine: Engine,
    interpreted_blocks: u64,
    memo: ClassMemo,
}

impl Gpu {
    /// Create a device from a spec (see [`crate::device::A100`] /
    /// [`crate::device::A4000`]).
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            timeline: Vec::new(),
            detect_races: false,
            races: Vec::new(),
            fault: None,
            retry_policy: RetryPolicy::default(),
            launch_index: 0,
            total_retries: 0,
            pool: None,
            charge_alloc: false,
            engine: Engine::Interpreted,
            interpreted_blocks: 0,
            memo: ClassMemo::default(),
        }
    }

    /// Select the simulation engine for subsequent launches (see
    /// [`crate::engine::Engine`]). The analytic engine only changes how
    /// counters are *obtained* (class sampling instead of full
    /// interpretation); timelines and stats stay bit-identical.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The configured engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The engine launches actually run under: fault injection (with a
    /// non-disabled plan) and race detection force
    /// [`Engine::Interpreted`], because both observe per-block execution
    /// that class sampling skips — the same downgrade stance the native
    /// pipeline path takes for fault plans.
    pub fn effective_engine(&self) -> Engine {
        let faulted = self.fault.as_ref().is_some_and(|inj| !inj.plan().is_disabled());
        if self.detect_races || faulted {
            Engine::Interpreted
        } else {
            self.engine
        }
    }

    /// Attach a [`MemPool`]: subsequent [`Gpu::alloc`] calls are served
    /// from its free lists and [`Gpu::free`] recycles into them. The
    /// handle is shared — clones observe the same free lists and stats.
    /// Pooling never changes buffer contents (recycled buffers come back
    /// zeroed), so results stay bit-identical with or without a pool.
    pub fn set_pool(&mut self, pool: MemPool) {
        self.pool = Some(pool);
    }

    /// Detach the pool (parked buffers stay inside it), returning it.
    pub fn clear_pool(&mut self) -> Option<MemPool> {
        self.pool.take()
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&MemPool> {
        self.pool.as_ref()
    }

    /// Opt into allocation-cost accounting: each [`Gpu::alloc`] appends an
    /// analytic record to the timeline — [`crate::device::DeviceSpec::alloc_overhead`]
    /// plus a memset at effective bandwidth for a fresh allocation, the
    /// memset alone for a pool hit. Off by default so existing pipelines' modeled times are
    /// unchanged; the serving layer turns it on to make malloc pressure
    /// visible.
    pub fn set_charge_alloc(&mut self, on: bool) {
        self.charge_alloc = on;
    }

    /// Install a deterministic fault injector: subsequent uploads receive
    /// bit flips at the plan's global rate, shared-memory allocations at
    /// its shared rate, and launches fail transiently at its probability
    /// (retried under the installed [`RetryPolicy`]). Zero cost when never
    /// called — the hooks are a single `Option` check per launch/upload.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan));
    }

    /// Remove the fault injector, returning it (with its tallies) if one
    /// was installed.
    pub fn disable_faults(&mut self) -> Option<FaultInjector> {
        self.fault.take()
    }

    /// The installed fault injector, if any (tallies of injected faults).
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Set the transient-launch-failure retry policy (see
    /// [`crate::fault::RetryPolicy`]). Policy is inert until a fault plan
    /// with launch faults is installed.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// Transient launch failures absorbed by retries since construction
    /// (survives [`Gpu::reset_timeline`], unlike the per-record counts).
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Thread blocks run through the warp interpreter since construction
    /// (survives [`Gpu::reset_timeline`]): every block of a
    /// [`Gpu::launch`]; for an analytic [`Gpu::launch_classed`], one
    /// representative per class this device has not run before (a class
    /// already in the device's memo runs none); none for
    /// [`Gpu::launch_analytic`]. The deterministic side of the analytic
    /// engine's speed: a host-load-free count of the work it skips. The
    /// debug builds' re-run of a memoized representative is a check, not
    /// work, and is not counted.
    pub fn interpreted_blocks(&self) -> u64 {
        self.interpreted_blocks
    }

    /// Enable the cross-block write-race detector: every subsequent launch
    /// logs each block's global stores and flags elements written by more
    /// than one block — the defined-behaviour boundary of the CUDA memory
    /// contract this simulator adopts (see [`crate::memory`]). Slows
    /// launches down; intended for kernel development and tests.
    pub fn enable_race_detection(&mut self) {
        self.detect_races = true;
    }

    /// Races found since construction (empty when detection is off or the
    /// kernels are clean).
    pub fn races(&self) -> &[WriteRace] {
        &self.races
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Allocate a zeroed device buffer (`cudaMalloc` + `cudaMemset`),
    /// served from the attached [`MemPool`] when one is installed. With
    /// allocation accounting on (see [`Gpu::set_charge_alloc`]) the cost
    /// lands on the timeline; by default allocation is free, as it
    /// effectively is for a one-shot pipeline that allocates up front.
    pub fn alloc<T: Pod>(&mut self, len: usize) -> GpuBuffer<T> {
        let (buf, hit) = match &self.pool {
            Some(pool) => pool.acquire::<T>(len),
            None => (GpuBuffer::zeroed(len), false),
        };
        if self.charge_alloc {
            let bytes = (len * T::BYTES) as u64;
            let memset = bytes as f64 / self.spec.effective_bandwidth();
            // One record name for both outcomes so identical jobs keep
            // identical kernel sequences whether they hit the pool or not
            // (the batching fuser matches stages by name); only the charged
            // time differs. Hit/miss observability lives in the pool stats.
            let cost = if hit { memset } else { self.spec.alloc_overhead + memset };
            self.record_kernel("cudaMallocAsync", cost, KernelStats::default());
        }
        buf
    }

    /// Return a buffer to the attached pool for reuse, or just drop it when
    /// no pool is installed (`cudaFree` — modeled as free either way).
    pub fn free<T: Pod>(&mut self, buf: GpuBuffer<T>) {
        match &self.pool {
            Some(pool) => pool.release(buf),
            None => drop(buf),
        }
    }

    /// Copy host data to a fresh device buffer, charging H2D transfer time
    /// at peak PCIe bandwidth.
    pub fn upload<T: Pod>(&mut self, data: &[T]) -> GpuBuffer<T> {
        let bytes = (data.len() * T::BYTES) as u64;
        let _span = fzgpu_trace::span("gpu.upload").field("bytes", bytes);
        let time = bytes as f64 / self.spec.pcie_peak;
        metrics::counter_add(Class::Det, "fzgpu_sim_h2d_bytes_total", &[], bytes);
        metrics::gauge_add(Class::Det, "fzgpu_sim_transfer_seconds_total", &[], time);
        self.timeline.push(Event::Transfer(TransferRecord { direction: "H2D", bytes, time }));
        // The copy's destination buffer comes from the pool when one is
        // attached (the input buffer is usually the largest allocation a
        // pipeline makes). No memset is owed — the copy overwrites it all —
        // so with accounting on, only a fresh allocation costs anything.
        let buf = match &self.pool {
            Some(pool) => {
                let (mut b, hit) = pool.acquire::<T>(data.len());
                if self.charge_alloc {
                    // Same record name on hit and miss (see `alloc`); a hit
                    // costs nothing but still occupies a timeline slot so
                    // per-job kernel sequences stay congruent for batching.
                    let cost = if hit { 0.0 } else { self.spec.alloc_overhead };
                    self.record_kernel("cudaMallocAsync", cost, KernelStats::default());
                }
                b.host_mut().copy_from_slice(data);
                b
            }
            None => {
                if self.charge_alloc {
                    self.record_kernel(
                        "cudaMallocAsync",
                        self.spec.alloc_overhead,
                        KernelStats::default(),
                    );
                }
                GpuBuffer::from_host(data)
            }
        };
        if let Some(injector) = &mut self.fault {
            injector.corrupt_buffer(&buf);
        }
        buf
    }

    /// Copy a device buffer back to the host, charging D2H transfer time.
    pub fn download<T: Pod>(&mut self, buf: &GpuBuffer<T>) -> Vec<T> {
        let bytes = buf.size_bytes() as u64;
        let _span = fzgpu_trace::span("gpu.download").field("bytes", bytes);
        let time = bytes as f64 / self.spec.pcie_peak;
        metrics::counter_add(Class::Det, "fzgpu_sim_d2h_bytes_total", &[], bytes);
        metrics::gauge_add(Class::Det, "fzgpu_sim_transfer_seconds_total", &[], time);
        self.timeline.push(Event::Transfer(TransferRecord { direction: "D2H", bytes, time }));
        buf.to_vec()
    }

    /// Launch a kernel over `grid_dim` blocks of `block_dim` threads.
    ///
    /// The closure runs once per block with a fresh [`BlockCtx`]; blocks
    /// execute in parallel on the host thread pool (sequentially when race
    /// detection is on, or under `FZGPU_THREADS=1`). Per-block counters
    /// merge in block order — results are identical at any thread count
    /// (see the module docs) — and the launch is appended to the timeline
    /// with its modeled time.
    ///
    /// # Panics
    /// Panics when `block_dim` exceeds the device's thread-per-block limit.
    pub fn launch<F>(
        &mut self,
        name: &str,
        grid_dim: impl Into<Dim3>,
        block_dim: impl Into<Dim3>,
        f: F,
    ) where
        F: Fn(&mut BlockCtx<'_>) + Sync,
    {
        let grid_dim = grid_dim.into();
        let block_dim = block_dim.into();
        assert!(
            block_dim.count() <= self.spec.max_threads_per_block as usize,
            "block of {} threads exceeds {} limit on {}",
            block_dim.count(),
            self.spec.max_threads_per_block,
            self.spec.name
        );
        let spec = self.spec;
        let nblocks = grid_dim.count();
        let detect = self.detect_races;

        // Host span for the whole launch (retry loop included) plus the
        // deterministic launch counter. Span time is real wallclock — the
        // cost of *simulating* the kernel — while the timeline record
        // below carries the modeled device time; the unified trace keeps
        // them on separate tracks.
        let _span = fzgpu_trace::span("gpu.launch")
            .field("kernel", name)
            .field("blocks", nblocks)
            .field("block_threads", block_dim.count());
        metrics::counter_add(Class::Det, "fzgpu_sim_kernel_launches_total", &[], 1);

        // Transient launch faults: ask the injector before each attempt and
        // retry under the policy, charging the failed attempt (overhead +
        // exponential backoff) on the timeline as an analytic record. The
        // injector's consecutive-failure cap makes faults transient, so any
        // budget at least that deep always reaches the successful attempt
        // below; past the budget the fault surfaces (panic — the moral
        // equivalent of a sticky `cudaError` in this synchronous API).
        self.launch_index += 1;
        let mut retries = 0u32;
        loop {
            let failed = self.fault.as_mut().is_some_and(FaultInjector::launch_attempt_fails);
            if !failed {
                break;
            }
            assert!(
                retries < self.retry_policy.max_retries,
                "kernel '{name}' launch: transient-fault retry budget ({}) exhausted",
                self.retry_policy.max_retries
            );
            retries += 1;
            self.total_retries += 1;
            fzgpu_trace::event("gpu.retry").field("kernel", name).field("attempt", retries);
            metrics::counter_add(Class::Det, "fzgpu_sim_launch_retries_total", &[], 1);
            let cost = self.spec.launch_overhead + self.retry_policy.backoff_time(retries);
            metrics::gauge_add(Class::Det, "fzgpu_sim_kernel_seconds_total", &[], cost);
            // The failed attempt keeps the plain kernel name; the ordinal
            // rides on `retry_attempt` so the loop never formats a string.
            self.timeline.push(Event::Kernel(KernelRecord {
                name: name.to_string(),
                time: cost,
                stats: KernelStats::default(),
                breakdown: TimeBreakdown::analytic(cost),
                retries: 0,
                retry_attempt: Some(retries),
            }));
        }
        let block_fault =
            self.fault.as_ref().and_then(|inj| inj.block_fault_seed(self.launch_index));

        // Per block: merged counters + (when race detection is on) the
        // (buffer id, element index) log of its global stores.
        type BlockResult = (KernelStats, Option<Vec<(u64, usize)>>);
        let run_block = |linear: usize| -> BlockResult {
            let (x, y, z) = grid_dim.delinearize(linear);
            let mut ctx = BlockCtx {
                block_idx: Dim3 { x, y, z },
                grid_dim,
                block_dim,
                spec: &spec,
                stats: KernelStats::default(),
                shared_bytes: 0,
                writes: detect.then(Vec::new),
                fault: block_fault.map(|(seed, rate)| BlockFault::new(seed, linear, rate)),
            };
            f(&mut ctx);
            (ctx.stats, ctx.writes)
        };
        // Race detection pins execution to one thread: the overlapping
        // stores the detector exists to find would be genuine host data
        // races if the blocks truly ran concurrently. Otherwise blocks fan
        // out coarse-grained: each pool task runs one tight `BlockCtx` loop
        // over a chunk of block indices, rather than paying per-block
        // dispatch through the iterator machinery.
        let results: Vec<BlockResult> = if detect {
            (0..nblocks).map(run_block).collect()
        } else {
            rayon::par_chunk_map(nblocks, run_block)
        };
        self.interpreted_blocks += nblocks as u64;
        let mut stats = KernelStats::default();
        for (s, _) in &results {
            stats.merge(s);
        }
        if detect {
            // An element is racy when written by two *different* blocks
            // within one launch (intra-block rewrites are ordered by the
            // sequential warp execution and are fine). The owner of an
            // element is its first writer in block order; every later write
            // from another block is one detected race. Implemented as a
            // sort over the merged log rather than a hash map — the log's
            // vec index doubles as the global write sequence number, so
            // sorting by (buffer, index, seq) groups collisions while
            // preserving first-writer-wins and the original report order.
            let mut log: Vec<(u64, usize, u32)> = Vec::new();
            for (block, (_, writes)) in results.iter().enumerate() {
                for &(buf, idx) in writes.iter().flatten() {
                    log.push((buf, idx, block as u32));
                }
            }
            let mut order: Vec<u32> = (0..log.len() as u32).collect();
            order.sort_unstable_by_key(|&s| {
                let (buf, idx, _) = log[s as usize];
                (buf, idx, s)
            });
            let mut hits: Vec<u32> = Vec::new();
            let mut g = 0;
            while g < order.len() {
                let (buf, idx, owner) = log[order[g] as usize];
                let mut e = g + 1;
                while e < order.len() {
                    let (b, i, _) = log[order[e] as usize];
                    if (b, i) != (buf, idx) {
                        break;
                    }
                    e += 1;
                }
                hits.extend(order[g..e].iter().copied().filter(|&s| log[s as usize].2 != owner));
                g = e;
            }
            hits.sort_unstable();
            for &s in &hits {
                let (buffer_id, index, _) = log[s as usize];
                self.races.push(WriteRace { kernel: name.to_string(), buffer_id, index });
            }
        }

        self.finish_launch(name, nblocks, block_dim, stats, retries);
    }

    /// Launch a kernel whose per-block counters are constant within
    /// *equivalence classes* of blocks: `class_of(linear)` maps each block
    /// index to a class key, and the caller guarantees that blocks of any
    /// launch of this kernel with equal `(grid_dim, block_dim, sig, key)`
    /// record identical [`KernelStats`] (DESIGN.md §16 derives each
    /// kernel's key and signature; the `engine_equivalence` suite holds
    /// them). `sig` is the launch signature: every captured value other
    /// than buffer contents that a predicate, an address, a loop bound or
    /// a shared-memory index of the kernel reads.
    ///
    /// Under the interpreted [`Gpu::effective_engine`] this is exactly
    /// [`Gpu::launch`]. Under the analytic engine, one representative
    /// block per class executes (sequentially, on the calling thread); its
    /// counters are scaled by the class population and merged, which is
    /// bit-identical to interpreting every block because all event
    /// counters are integers. The device keeps each representative's
    /// counters, so a class it has run before runs no block at all.
    /// Callers are responsible for producing the launch's output buffers
    /// natively: a representative block writes its own slice of output,
    /// and no other block runs.
    ///
    /// # Panics
    /// Under `debug_assertions`, a memoized class also reruns its
    /// representative and panics, naming the kernel, grid, signature and
    /// key, if the counters differ: a signature that misses a value its
    /// kernel reads.
    pub fn launch_classed<F, C>(
        &mut self,
        name: &str,
        grid_dim: impl Into<Dim3>,
        block_dim: impl Into<Dim3>,
        sig: &[u64],
        class_of: C,
        f: F,
    ) where
        F: Fn(&mut BlockCtx<'_>) + Sync,
        C: Fn(usize) -> u64,
    {
        let grid_dim = grid_dim.into();
        let block_dim = block_dim.into();
        if self.effective_engine() == Engine::Interpreted {
            return self.launch(name, grid_dim, block_dim, f);
        }
        assert!(
            block_dim.count() <= self.spec.max_threads_per_block as usize,
            "block of {} threads exceeds {} limit on {}",
            block_dim.count(),
            self.spec.max_threads_per_block,
            self.spec.name
        );
        let spec = self.spec;
        let nblocks = grid_dim.count();
        let _span = fzgpu_trace::span("gpu.launch")
            .field("kernel", name)
            .field("blocks", nblocks)
            .field("block_threads", block_dim.count());
        metrics::counter_add(Class::Det, "fzgpu_sim_kernel_launches_total", &[], 1);
        self.launch_index += 1;

        // One linear pass tallies class populations and picks the first
        // block of each class as its representative. Kernels have a handful
        // of classes (edge/interior/alignment-residue), so a small vec
        // beats a hash map.
        let mut classes: Vec<(u64, u64, usize)> = Vec::new(); // (key, count, rep)
        for linear in 0..nblocks {
            let key = class_of(linear);
            match classes.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, count, _)) => *count += 1,
                None => classes.push((key, 1, linear)),
            }
        }
        let run_rep = |rep: usize| {
            let (x, y, z) = grid_dim.delinearize(rep);
            let mut ctx = BlockCtx {
                block_idx: Dim3 { x, y, z },
                grid_dim,
                block_dim,
                spec: &spec,
                stats: KernelStats::default(),
                shared_bytes: 0,
                writes: None,
                fault: None,
            };
            f(&mut ctx);
            ctx.stats
        };
        let mut stats = KernelStats::default();
        for &(class, count, rep) in &classes {
            let key = ClassKey { name, grid: grid_dim, block: block_dim, sig, class };
            let rep_stats = match self.memo.get(&key) {
                Some(memo) => {
                    debug_assert_eq!(
                        run_rep(rep),
                        memo,
                        "memoized counters of kernel '{name}' (grid {grid_dim:?}, \
                         signature {sig:?}, class key {class}) differ from its \
                         representative block's"
                    );
                    memo
                }
                None => {
                    let fresh = run_rep(rep);
                    self.interpreted_blocks += 1;
                    self.memo.insert(&key, fresh);
                    fresh
                }
            };
            stats.merge(&rep_stats.scaled(count));
        }
        self.finish_launch(name, nblocks, block_dim, stats, 0);
    }

    /// Record a launch whose merged counters were computed in closed form
    /// by the caller (the analytic engine's path for data-dependent kernels
    /// like stream compaction, where no block is representative but the
    /// counters are an exact function of the input). Does the full launch
    /// bookkeeping — span, launch counter, occupancy, roofline attribution,
    /// timeline record — identically to [`Gpu::launch`]; no fault attempts
    /// are charged (the analytic engine is never active under a fault plan).
    pub fn launch_analytic(
        &mut self,
        name: &str,
        grid_dim: impl Into<Dim3>,
        block_dim: impl Into<Dim3>,
        stats: KernelStats,
    ) {
        let grid_dim = grid_dim.into();
        let block_dim = block_dim.into();
        assert!(
            block_dim.count() <= self.spec.max_threads_per_block as usize,
            "block of {} threads exceeds {} limit on {}",
            block_dim.count(),
            self.spec.max_threads_per_block,
            self.spec.name
        );
        let nblocks = grid_dim.count();
        let _span = fzgpu_trace::span("gpu.launch")
            .field("kernel", name)
            .field("blocks", nblocks)
            .field("block_threads", block_dim.count());
        metrics::counter_add(Class::Det, "fzgpu_sim_kernel_launches_total", &[], 1);
        self.launch_index += 1;
        self.finish_launch(name, nblocks, block_dim, stats, 0);
    }

    /// Shared launch epilogue: occupancy scaling, roofline attribution, and
    /// the timeline record. Identical for interpreted, class-sampled, and
    /// closed-form launches — the engine axis must not perturb a single bit
    /// of the record.
    fn finish_launch(
        &mut self,
        name: &str,
        nblocks: usize,
        block_dim: Dim3,
        stats: KernelStats,
        retries: u32,
    ) {
        let total_warps = nblocks as f64 * block_dim.count().div_ceil(32) as f64;
        let occupancy = self.spec.occupancy(total_warps);
        let breakdown = TimeBreakdown::attribute(&self.spec, &stats, occupancy);

        metrics::gauge_add(Class::Det, "fzgpu_sim_kernel_seconds_total", &[], breakdown.total);
        self.timeline.push(Event::Kernel(KernelRecord {
            name: name.to_string(),
            time: breakdown.total,
            stats,
            breakdown,
            retries,
            retry_attempt: None,
        }));
    }

    /// Record a pre-timed kernel on the timeline. Escape hatch for pipeline
    /// stages whose cost is modeled analytically rather than executed
    /// through the simulator (e.g. cuSZ's serial Huffman-codebook build,
    /// MGARD's CPU-side DEFLATE). Callers must document the model used.
    pub fn record_kernel(&mut self, name: &str, time: f64, stats: KernelStats) {
        metrics::gauge_add(Class::Det, "fzgpu_sim_kernel_seconds_total", &[], time);
        self.timeline.push(Event::Kernel(KernelRecord {
            name: name.to_string(),
            time,
            stats,
            breakdown: TimeBreakdown::analytic(time),
            retries: 0,
            retry_attempt: None,
        }));
    }

    /// The event timeline since construction or the last reset.
    pub fn timeline(&self) -> &[Event] {
        &self.timeline
    }

    /// Clear the timeline (e.g. between measured pipelines).
    pub fn reset_timeline(&mut self) {
        self.timeline.clear();
    }

    /// Total modeled kernel time (excludes transfers).
    pub fn kernel_time(&self) -> f64 {
        self.timeline
            .iter()
            .filter_map(|e| match e {
                Event::Kernel(k) => Some(k.time),
                _ => None,
            })
            .sum()
    }

    /// Total modeled time including transfers.
    pub fn total_time(&self) -> f64 {
        self.timeline.iter().map(Event::time).sum()
    }

    /// The most recent kernel record.
    ///
    /// # Panics
    /// Panics if no kernel has been launched yet.
    pub fn last_kernel(&self) -> &KernelRecord {
        self.timeline
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::Kernel(k) => Some(k),
                _ => None,
            })
            .expect("no kernel launched")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{A100, A4000};

    #[test]
    fn elementwise_kernel_runs_all_threads() {
        let mut gpu = Gpu::new(A100);
        let n = 4096usize;
        let input = gpu.upload(&(0..n as u32).collect::<Vec<_>>());
        let output: GpuBuffer<u32> = gpu.alloc(n);
        gpu.launch("double", (n as u32 / 256, 1, 1), 256u32, |blk| {
            let base = blk.block_linear() * blk.thread_count();
            blk.warps(|w| {
                let vals = w.load(&input, |l| Some(base + l.ltid));
                w.store(&output, |l| Some((base + l.ltid, vals[l.id] * 2)));
            });
        });
        let out = gpu.download(&output);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn timeline_records_kernels_and_transfers() {
        let mut gpu = Gpu::new(A100);
        let buf = gpu.upload(&[1u32, 2, 3]);
        gpu.launch("noop", 1u32, 32u32, |_| {});
        let _ = gpu.download(&buf);
        let kinds: Vec<&str> = gpu.timeline().iter().map(|e| e.name()).collect();
        assert_eq!(kinds, vec!["H2D", "noop", "D2H"]);
        assert!(gpu.total_time() > gpu.kernel_time());
    }

    #[test]
    fn same_kernel_slower_on_a4000() {
        // A memory-bound kernel must show the bandwidth ratio between GPUs.
        let n = 1 << 20;
        let data: Vec<u32> = (0..n as u32).collect();
        let run = |spec| {
            let mut gpu = Gpu::new(spec);
            let input = GpuBuffer::from_host(&data);
            let output: GpuBuffer<u32> = gpu.alloc(n);
            gpu.launch("copy", (n as u32 / 256, 1, 1), 256u32, |blk| {
                let base = blk.block_linear() * blk.thread_count();
                blk.warps(|w| {
                    let vals = w.load(&input, |l| Some(base + l.ltid));
                    w.store(&output, |l| Some((base + l.ltid, vals[l.id])));
                });
            });
            gpu.kernel_time()
        };
        let t_a100 = run(A100);
        let t_a4000 = run(A4000);
        assert!(t_a4000 > 2.0 * t_a100, "a4000 {t_a4000} vs a100 {t_a100}");
    }

    #[test]
    fn tiny_grid_pays_occupancy_penalty() {
        let mut gpu = Gpu::new(A100);
        let input = GpuBuffer::from_host(&vec![1u32; 64]);
        let out: GpuBuffer<u32> = gpu.alloc(64);
        gpu.launch("tiny", 1u32, 64u32, |blk| {
            blk.warps(|w| {
                let v = w.load(&input, |l| Some(l.ltid));
                w.store(&out, |l| Some((l.ltid, v[l.id])));
            });
        });
        let rec = gpu.last_kernel();
        // Two warps on a 108-SM device: the roofline term is scaled up by
        // the occupancy penalty, so time far exceeds raw traffic/bandwidth.
        let raw = rec.stats.global_bytes_moved() as f64 / A100.effective_bandwidth();
        assert!(rec.time - A100.launch_overhead > 100.0 * raw);
    }

    #[test]
    fn race_detector_flags_cross_block_collision() {
        let mut gpu = Gpu::new(A100);
        gpu.enable_race_detection();
        let out: GpuBuffer<u32> = gpu.alloc(8);
        // Two blocks both write element 0 — a genuine cross-block race.
        gpu.launch("racy", 2u32, 32u32, |blk| {
            let b = blk.block_linear() as u32;
            blk.warps(|w| {
                w.store(&out, |l| (l.id == 0).then_some((0, b)));
            });
        });
        assert!(!gpu.races().is_empty());
        assert_eq!(gpu.races()[0].kernel, "racy");
        assert_eq!(gpu.races()[0].index, 0);
    }

    #[test]
    fn race_dedup_matches_first_writer_semantics() {
        // Micro-assertion for the sort-based dedup: results must match the
        // reference (hash map) rule — owner = first writer in block order,
        // one race per later write from any *other* block, reported in
        // global write order. Four blocks each store element 0 twice (two
        // `store` passes) plus a private element; blocks 1..4 contribute
        // two races each, block 0 (the owner) none.
        let mut gpu = Gpu::new(A100);
        gpu.enable_race_detection();
        let out: GpuBuffer<u32> = gpu.alloc(16);
        gpu.launch("multi", 4u32, 32u32, |blk| {
            let b = blk.block_linear();
            blk.warps(|w| {
                w.store(&out, |l| (l.id == 0).then_some((0, b as u32)));
                w.store(&out, |l| (l.id == 0).then_some((b + 10, 7)));
                w.store(&out, |l| (l.id == 0).then_some((0, b as u32 + 100)));
            });
        });
        let races = gpu.races();
        assert_eq!(races.len(), 6, "{races:?}");
        assert!(races.iter().all(|r| r.kernel == "multi" && r.index == 0));
        // Disjoint per-block elements never appear.
        assert!(races.iter().all(|r| r.index < 10));
    }

    #[test]
    fn race_detector_passes_disjoint_kernels() {
        let mut gpu = Gpu::new(A100);
        gpu.enable_race_detection();
        let out: GpuBuffer<u32> = gpu.alloc(256);
        gpu.launch("clean", 8u32, 32u32, |blk| {
            let base = blk.block_linear() * 32;
            blk.warps(|w| {
                w.store(&out, |l| Some((base + l.id, 1)));
            });
        });
        assert!(gpu.races().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_block_rejected() {
        let mut gpu = Gpu::new(A100);
        gpu.launch("bad", 1u32, 2048u32, |_| {});
    }

    #[test]
    fn launch_faults_retry_and_record() {
        let mut gpu = Gpu::new(A100);
        // Every attempt fails until the consecutive cap (2) forces success,
        // so each launch costs exactly 2 retries under the default budget (3).
        gpu.enable_faults(FaultPlan::seeded(7).launch_faults(1.0, 2));
        let out: GpuBuffer<u32> = gpu.alloc(32);
        gpu.launch("faulty", 1u32, 32u32, |blk| {
            blk.warps(|w| {
                w.store(&out, |l| Some((l.id, l.id as u32)));
            });
        });
        assert_eq!(gpu.total_retries(), 2);
        // Failed attempts keep the plain name and carry their ordinal as
        // data; the decorated spelling is rendered lazily.
        let shown: Vec<String> = gpu
            .timeline()
            .iter()
            .map(|e| match e {
                Event::Kernel(k) => k.display_name().into_owned(),
                Event::Transfer(t) => t.direction.to_string(),
            })
            .collect();
        assert!(shown[0].contains("transient-fault retry 1"), "{shown:?}");
        assert!(shown[1].contains("transient-fault retry 2"), "{shown:?}");
        assert_eq!(shown[2], "faulty");
        let attempts: Vec<Option<u32>> = gpu
            .timeline()
            .iter()
            .filter_map(|e| match e {
                Event::Kernel(k) => Some(k.retry_attempt),
                Event::Transfer(_) => None,
            })
            .collect();
        assert_eq!(attempts, vec![Some(1), Some(2), None]);
        assert!(gpu.timeline().iter().all(|e| e.name() == "faulty"));
        let rec = gpu.last_kernel();
        assert_eq!(rec.retries, 2);
        // The result is still correct: retries are transparent.
        assert_eq!(gpu.download(&out)[5], 5);
        let inj = gpu.disable_faults().unwrap();
        assert_eq!(inj.launch_faults(), gpu.total_retries());
    }

    #[test]
    #[should_panic(expected = "retry budget")]
    fn launch_fault_budget_exhaustion_panics() {
        let mut gpu = Gpu::new(A100);
        // Faults outlast the policy: 5 consecutive failures vs 3 retries.
        gpu.enable_faults(FaultPlan::seeded(7).launch_faults(1.0, 5));
        gpu.launch("doomed", 1u32, 32u32, |_| {});
    }

    #[test]
    fn upload_corruption_flips_bits() {
        let mut gpu = Gpu::new(A100);
        gpu.enable_faults(FaultPlan::seeded(11).global_bit_flips(1e-3));
        let data = vec![0u32; 1 << 16];
        let buf = gpu.upload(&data);
        let flipped: u32 = gpu.download(&buf).iter().map(|v| v.count_ones()).sum();
        let inj = gpu.faults().unwrap();
        assert_eq!(flipped as u64, inj.bits_flipped());
        assert!(inj.bits_flipped() > 0);
    }

    #[test]
    fn disabled_faults_do_not_perturb_timeline() {
        let run = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::new(A100);
            if let Some(p) = plan {
                gpu.enable_faults(p);
            }
            let buf = gpu.upload(&vec![3u32; 1024]);
            gpu.launch("clean", 1u32, 256u32, |_| {});
            (gpu.total_time(), gpu.download(&buf))
        };
        let (t0, d0) = run(None);
        let (t1, d1) = run(Some(FaultPlan::disabled()));
        assert_eq!(t0, t1);
        assert_eq!(d0, d1);
    }

    #[test]
    fn pooled_alloc_recycles_and_stays_zeroed() {
        use crate::mempool::MemPool;
        let mut gpu = Gpu::new(A100);
        gpu.set_pool(MemPool::new());
        let buf: GpuBuffer<u32> = gpu.alloc(512);
        gpu.launch("fill", 2u32, 256u32, |blk| {
            let base = blk.block_linear() * 256;
            blk.warps(|w| {
                w.store(&buf, |l| Some((base + l.ltid, 7)));
            });
        });
        gpu.free(buf);
        let again: GpuBuffer<u32> = gpu.alloc(512);
        assert!(again.to_vec().iter().all(|&v| v == 0), "recycled buffer must be zeroed");
        let stats = gpu.pool().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn alloc_charging_is_opt_in_and_pool_hits_are_cheaper() {
        let mut gpu = Gpu::new(A100);
        let _: GpuBuffer<u32> = gpu.alloc(1 << 16);
        assert!(gpu.timeline().is_empty(), "alloc must be free by default");

        gpu.set_pool(crate::mempool::MemPool::new());
        gpu.set_charge_alloc(true);
        let b: GpuBuffer<u32> = gpu.alloc(1 << 16);
        let miss_cost = gpu.total_time();
        assert!(miss_cost >= A100.alloc_overhead);
        gpu.free(b);
        gpu.reset_timeline();
        let _: GpuBuffer<u32> = gpu.alloc(1 << 16);
        let hit_cost = gpu.total_time();
        assert!(
            (miss_cost - hit_cost - A100.alloc_overhead).abs() < 1e-12,
            "a pool hit saves exactly the malloc overhead: miss {miss_cost} hit {hit_cost}"
        );
    }

    /// A ragged 1-D doubling kernel over `n` values in 256-thread blocks,
    /// with two block classes (full interior blocks and the partial last
    /// block) and `n`, which its predicates read, as its signature.
    fn launch_double(gpu: &mut Gpu, n: usize) {
        let nblocks = n.div_ceil(256);
        let input = GpuBuffer::from_host(&(0..n as u32).collect::<Vec<_>>());
        let out: GpuBuffer<u32> = gpu.alloc(n);
        gpu.launch_classed(
            "double",
            (nblocks as u32, 1, 1),
            256u32,
            &[n as u64],
            |b| (b == nblocks - 1) as u64,
            |blk| {
                let base = blk.block_linear() * blk.thread_count();
                blk.warps(|w| {
                    let v = w.load(&input, |l| {
                        let i = base + l.ltid;
                        (i < n).then_some(i)
                    });
                    w.store(&out, |l| {
                        let i = base + l.ltid;
                        (i < n).then_some((i, v[l.id] * 2))
                    });
                });
            },
        );
    }

    /// The last kernel record, every counter and modeled time spelled out.
    fn last_record(gpu: &Gpu) -> String {
        format!("{:?}", gpu.last_kernel())
    }

    #[test]
    fn classed_launch_matches_interpreted_bit_for_bit() {
        // The analytic engine samples one representative per class and
        // must reproduce the interpreted timeline record — stats,
        // breakdown, modeled time — exactly.
        let n = 1000usize;
        let nblocks = n.div_ceil(256);
        let run = |engine: Engine| {
            let mut gpu = Gpu::new(A100);
            gpu.set_engine(engine);
            launch_double(&mut gpu, n);
            let record = (format!("{:?}", gpu.timeline()), gpu.kernel_time().to_bits());
            gpu.reset_timeline();
            gpu.launch_analytic("closed-form", nblocks as u32, 256u32, KernelStats::default());
            (record, gpu.interpreted_blocks())
        };
        let (interp, interp_blocks) = run(Engine::Interpreted);
        let (analytic, analytic_blocks) = run(Engine::Analytic);
        assert_eq!(interp, analytic);
        // Every block interpreted, against one per class; the closed-form
        // launch runs none, and the count survives the timeline reset.
        assert_eq!((interp_blocks, analytic_blocks), (nblocks as u64, 2));
    }

    #[test]
    fn a_repeated_classed_launch_runs_no_block() {
        let mut gpu = Gpu::new(A100);
        gpu.set_engine(Engine::Analytic);
        launch_double(&mut gpu, 1000);
        let first = last_record(&gpu);
        launch_double(&mut gpu, 1000);
        assert_eq!(last_record(&gpu), first);
        assert_eq!(gpu.interpreted_blocks(), 2, "the second launch ran a block");
        // The interpreted engine runs every block every time and leaves
        // the memo alone.
        let mut interp = Gpu::new(A100);
        launch_double(&mut interp, 1000);
        launch_double(&mut interp, 1000);
        assert_eq!(last_record(&interp), first);
        assert_eq!((interp.interpreted_blocks(), interp.memo.len), (8, 0));
    }

    #[test]
    fn another_signature_runs_again_and_matches_the_interpreter() {
        // 1000 and 900 values both launch four 256-thread blocks whose
        // last block has class key 1, but it has 232 active threads in
        // one launch and 132 in the other: only the signature tells them
        // apart.
        let interpreted = |n: usize| {
            let mut gpu = Gpu::new(A100);
            launch_double(&mut gpu, n);
            last_record(&gpu)
        };
        assert_ne!(interpreted(1000), interpreted(900));
        let mut gpu = Gpu::new(A100);
        gpu.set_engine(Engine::Analytic);
        for n in [1000, 900, 1000, 900] {
            launch_double(&mut gpu, n);
            assert_eq!(last_record(&gpu), interpreted(n), "n = {n}");
        }
        assert_eq!(gpu.interpreted_blocks(), 4, "two classes per signature, each run once");
    }

    #[test]
    fn filling_past_capacity_clears_the_memo_and_stays_exact() {
        // One single-class block per launch whose active lanes follow its
        // signature `k`, so each `k` is a class of its own.
        let lanes = |gpu: &mut Gpu, k: usize| {
            gpu.launch_classed(
                "lanes",
                1u32,
                32u32,
                &[k as u64],
                |_| 0,
                |blk| {
                    blk.warps(|w| {
                        let _ = w.lanes_pred(|l| (l.id < k % 33).then_some(0u32));
                    });
                },
            );
            last_record(gpu)
        };
        let mut gpu = Gpu::new(A100);
        gpu.set_engine(Engine::Analytic);
        for k in 0..MEMO_CAPACITY {
            lanes(&mut gpu, k);
        }
        assert_eq!(gpu.memo.len, MEMO_CAPACITY);
        // The next new class finds the memo full and clears it first.
        lanes(&mut gpu, MEMO_CAPACITY);
        assert_eq!(gpu.memo.len, 1);
        assert_eq!(gpu.interpreted_blocks(), MEMO_CAPACITY as u64 + 1);
        // Cleared classes run again; the kept one does not. Every record
        // still matches the interpreter's.
        let mut interp = Gpu::new(A100);
        for (k, runs) in [(0, 1), (MEMO_CAPACITY, 0), (1, 1), (0, 0)] {
            let before = gpu.interpreted_blocks();
            assert_eq!(lanes(&mut gpu, k), lanes(&mut interp, k), "k = {k}");
            assert_eq!(gpu.interpreted_blocks() - before, runs, "k = {k}");
        }
        assert_eq!(gpu.memo.len, 3);
    }

    #[test]
    fn faults_and_race_detection_force_interpreted_engine() {
        let mut gpu = Gpu::new(A100);
        gpu.set_engine(Engine::Analytic);
        assert_eq!(gpu.effective_engine(), Engine::Analytic);
        gpu.enable_faults(FaultPlan::seeded(1).launch_faults(0.5, 1));
        assert_eq!(gpu.effective_engine(), Engine::Interpreted);
        gpu.enable_faults(FaultPlan::disabled());
        assert_eq!(gpu.effective_engine(), Engine::Analytic, "disabled plans must not downgrade");
        gpu.enable_race_detection();
        assert_eq!(gpu.effective_engine(), Engine::Interpreted);
    }

    #[test]
    fn analytic_record_from_closed_form_stats() {
        // launch_analytic must do the same bookkeeping as launch: same
        // occupancy scaling, same attribution, same record shape.
        let stats = KernelStats {
            global_sectors: 4096,
            global_bytes_requested: 4096 * 32,
            warp_instructions: 2048,
            ..Default::default()
        };
        let mut gpu = Gpu::new(A100);
        gpu.launch_analytic("closed-form", 32u32, 256u32, stats);
        let rec = gpu.last_kernel();
        assert_eq!(rec.stats, stats);
        assert_eq!(rec.retry_attempt, None);
        // Reference: the occupancy formula from finish_launch.
        let total_warps = 32.0 * 8.0;
        let saturating = A100.sm_count as f64 * 16.0;
        let occ = (total_warps / saturating).min(1.0).max(1.0 / saturating);
        let expect = TimeBreakdown::attribute(&A100, &stats, occ);
        assert_eq!(rec.time.to_bits(), expect.total.to_bits());
    }

    #[test]
    fn multiblock_grid_covers_2d_indices() {
        let mut gpu = Gpu::new(A100);
        let out: GpuBuffer<u32> = gpu.alloc(6);
        gpu.launch("mark", (3u32, 2u32), 32u32, |blk| {
            let id = blk.block_linear();
            blk.warps(|w| {
                if w.warp_id == 0 {
                    w.store(&out, |l| if l.id == 0 { Some((id, id as u32 + 1)) } else { None });
                }
            });
        });
        assert_eq!(gpu.download(&out), vec![1, 2, 3, 4, 5, 6]);
    }
}
