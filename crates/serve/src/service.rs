//! The bounded-queue job scheduler.
//!
//! [`Service::run`] replays a [`Workload`] as a discrete-event simulation
//! in *modeled* time: requests arrive on the trace's schedule, wait in a
//! bounded admission queue, and dispatch (possibly batched, see
//! [`crate::batch`]) onto the stream whose queue drains first. Each
//! dispatched batch becomes three phases on a [`StreamSim`]: one H2D copy,
//! the (fused) kernel sequence, one D2H copy — so with ≥ 2 streams the next
//! batch's copies overlap the current batch's kernels, bounded by the
//! device's copy-engine count.
//!
//! Jobs *execute* host-side, sequentially, through one [`FzGpu`] — their
//! stream bytes and digests are bit-exact and identical to solo runs —
//! while their modeled durations are what the scheduler lays onto streams.
//! A shared [`MemPool`] (when enabled) recycles every intermediate buffer
//! across jobs; with allocation accounting on, pool hits visibly shrink
//! the modeled kernel sequences.
//!
//! # Backpressure
//! When a request arrives to a full queue: [`Backpressure::Reject`] records
//! the job with a `retry_after` hint (the modeled delay until the next
//! dispatch frees a slot); [`Backpressure::Block`] stalls the client until
//! a slot frees and admits the job then — nothing is dropped.
//!
//! # Observation
//! The scheduler records each decision once, in an append-only transition
//! log. The report, the serve Det metrics and the telemetry capture are
//! all read off that log after the replay, so observing never steers it.
//!
//! # Determinism
//! Everything here is a pure function of the workload and config: arrival
//! order breaks ties, the scheduler inspects only modeled clocks, and jobs
//! run one at a time. Digests, batch composition, stream schedules, pool
//! counters, and Det-class metrics are bit-identical at any `FZGPU_THREADS`;
//! host-wallclock fields (Wall class) are measurements and move freely.

use std::collections::VecDeque;
use std::time::Instant;

use fzgpu_core::crc::Crc32;
use fzgpu_core::{crc32, FzGpu, FzOptions, PipelinePath};
use fzgpu_sim::{Engine, MemPool, OpClass, PoolStats, ServiceFaults, StreamSim};
use fzgpu_store::value_digest;
use fzgpu_trace::json::{self, Layout, Obj};
use fzgpu_trace::metrics::{self, Class};

use crate::batch::{fuse_kernel_sequences, BatchKey};
use crate::resilience::{Failed, ResilienceConfig, Shed, SloSummary, StreamHealth};
use crate::telemetry::{self, TelemetryCapture, TelemetryConfig};
use crate::workload::{synth_field, Op, Request, Workload};

/// Full-queue policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Drop the request, reporting how long the client should wait before
    /// retrying (load-shedding front end).
    Reject,
    /// Stall the client until a queue slot frees (lossless ingest).
    Block,
}

impl Backpressure {
    /// Lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Backpressure::Reject => "reject",
            Backpressure::Block => "block",
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Simulated CUDA streams (≥ 1).
    pub streams: usize,
    /// Recycle device buffers through a shared [`MemPool`].
    pub pool: bool,
    /// Maximum jobs fused into one dispatch (1 = no batching).
    pub batch_max: usize,
    /// Only jobs of at most this many values are batched — large inputs
    /// saturate the device alone and gain nothing from fusion.
    pub batch_threshold: usize,
    /// Admission queue capacity (≥ 1).
    pub queue_depth: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Charge modeled `cudaMalloc`/memset costs for device allocations
    /// (see [`fzgpu_sim::Gpu::set_charge_alloc`]). On by default: a serving
    /// process allocates on the hot path, which is exactly what the pool
    /// exists to avoid.
    pub charge_alloc: bool,
    /// Capture a per-stream Chrome trace of the modeled schedule into
    /// [`ServeReport::stream_trace`].
    pub capture_trace: bool,
    /// Pipeline path jobs execute on (defaults from `FZGPU_NATIVE`).
    /// Digests and stream bytes are identical on every path. On
    /// [`PipelinePath::Native`] the per-kernel breakdown is unavailable,
    /// so each job's modeled compute collapses to one synthetic
    /// `native.fz` op with a roofline duration (see
    /// [`native_model_seconds`]) — an approximation; the simulated path
    /// stays the model of record for schedules.
    pub path: PipelinePath,
    /// Simulation engine jobs execute on (defaults from
    /// `FZGPU_SIM_ENGINE`). [`Engine::Analytic`] keeps digests, kernel
    /// sequences, schedules, and Det metrics bit-identical to
    /// [`Engine::Interpreted`] while skipping per-block interpretation —
    /// the serving analogue of the pipeline's engine axis. Inert on
    /// [`PipelinePath::Native`] (no simulated kernels run there).
    pub engine: Engine,
    /// Resilience policy: deadlines, job-level retries, priority shedding,
    /// stream health, and the fault schedule the run replays. The default
    /// is inert — a fault-free replay behaves (and digests) exactly as it
    /// did before the failure domain existed.
    pub resilience: ResilienceConfig,
    /// Telemetry capture: windowed histograms, the structured event log,
    /// SLO burn-rate alerts, and the flight recorder (DESIGN.md §17).
    /// `None` (the default) captures nothing; `Some` attaches a
    /// [`TelemetryCapture`] to the report. The capture is folded from the
    /// replay's transition log after the replay, in modeled time only —
    /// it never affects scheduling or digests.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            streams: 2,
            pool: true,
            batch_max: 1,
            batch_threshold: 1 << 16,
            queue_depth: 64,
            backpressure: Backpressure::Reject,
            charge_alloc: true,
            capture_trace: false,
            path: PipelinePath::from_env(),
            engine: Engine::from_env(),
            resilience: ResilienceConfig::default(),
            telemetry: None,
        }
    }
}

/// Modeled seconds charged for one native-path job: a memory-roofline
/// estimate of the pipeline's device passes over `n` f32 values. The
/// constant pass count approximates the simulated pipeline's traffic
/// (quant + shuffle + scan + compact reads/writes).
pub fn native_model_seconds(n: usize, spec: &fzgpu_sim::DeviceSpec) -> f64 {
    const PASSES: f64 = 8.0;
    (n * 4) as f64 * PASSES / (spec.mem_bandwidth * spec.mem_efficiency)
}

/// One completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the request in the (arrival-sorted) workload.
    pub id: usize,
    /// Direction.
    pub op: Op,
    /// Field length in values.
    pub n: usize,
    /// Modeled arrival time, seconds.
    pub arrival: f64,
    /// Modeled admission time (equals arrival unless the client blocked).
    pub admitted: f64,
    /// Modeled dispatch time (left the queue).
    pub dispatched: f64,
    /// Modeled completion time (batch's D2H done).
    pub completed: f64,
    /// Bytes crossing H2D for this job.
    pub bytes_in: u64,
    /// Bytes crossing D2H for this job.
    pub bytes_out: u64,
    /// CRC-32 of the job's output (stream bytes or decompressed field).
    pub digest: u32,
    /// Stream the batch ran on.
    pub stream: usize,
    /// Batch sequence number.
    pub batch: usize,
    /// Jobs in the batch.
    pub batch_size: usize,
    /// Failed execution attempts absorbed before this job completed
    /// (0 without fault injection). Retried attempts reuse the cached
    /// first execution, so `digest` is the fault-free digest regardless.
    pub retries: u32,
    /// Real host seconds spent executing this job (Wall clock domain —
    /// excluded from digests and Det metrics).
    pub host_seconds: f64,
}

impl JobResult {
    /// Modeled queueing + service latency, seconds.
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }
}

/// One rejected job.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Request index.
    pub id: usize,
    /// Modeled arrival time, seconds.
    pub arrival: f64,
    /// Modeled seconds the client should wait before retrying.
    pub retry_after: f64,
}

/// Replay results: per-job outcomes plus schedule-level aggregates.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload name.
    pub workload: String,
    /// Device preset name.
    pub device: &'static str,
    /// Config echo (reports must be self-describing).
    pub config: ServeConfig,
    /// Completed jobs in dispatch order.
    pub jobs: Vec<JobResult>,
    /// Rejected jobs in arrival order (empty under [`Backpressure::Block`]).
    pub rejected: Vec<Rejection>,
    /// Jobs shed by admission control (priority eviction, infeasible
    /// deadlines) in decision order.
    pub shed: Vec<Shed>,
    /// Permanently failed jobs (retry budget exhausted, unrecovered
    /// device loss) in decision order.
    pub failed: Vec<Failed>,
    /// Total retry dispatches across all jobs.
    pub retries_total: u64,
    /// Jobs aborted in flight by a device loss.
    pub aborted_jobs: u64,
    /// Dispatches the circuit breaker routed around the believed pick.
    pub breaker_reroutes: u64,
    /// Stream stalls the fault schedule injected.
    pub stalls_injected: u64,
    /// Modeled end-to-end makespan, seconds.
    pub makespan: f64,
    /// Modeled serial time (single synchronous queue), seconds.
    pub serial_time: f64,
    /// Busy fraction of the compute engine over the makespan.
    pub compute_utilization: f64,
    /// Pool accounting, when pooling was on.
    pub pool: Option<PoolStats>,
    /// Dispatched batches.
    pub batches: usize,
    /// Modeled seconds saved by launch fusion.
    pub fused_saved: f64,
    /// Real host seconds for the whole replay (Wall clock domain).
    pub host_seconds: f64,
    /// Per-stream Chrome trace JSON (empty unless
    /// [`ServeConfig::capture_trace`]).
    pub stream_trace: String,
    /// Finalized telemetry capture (only with [`ServeConfig::telemetry`]).
    pub telemetry: Option<TelemetryCapture>,
}

/// `q`-th percentile (0 < q ≤ 1) of an unsorted sample, by the
/// nearest-rank method: the value at rank `⌈q·n⌉` (1-based) of the sorted
/// sample — always an actual sample, never an interpolation. The small
/// epsilon guards against FP slop in `q·n` before the ceiling: `0.9 × 10`
/// evaluates to `9.000000000000002`, which must still mean rank 9, and
/// p50 of a 2-sample set is rank `⌈1.0⌉ = 1`, the *lower* sample. See
/// DESIGN.md §17 for the convention.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ServeReport {
    /// Modeled latency percentiles `(p50, p90, p99)` in seconds.
    pub fn latency_percentiles(&self) -> (f64, f64, f64) {
        let lat: Vec<f64> = self.jobs.iter().map(JobResult::latency).collect();
        (percentile(&lat, 0.50), percentile(&lat, 0.90), percentile(&lat, 0.99))
    }

    /// Host-wallclock per-job percentiles `(p50, p90, p99)` in seconds
    /// (Wall domain — varies run to run).
    pub fn host_percentiles(&self) -> (f64, f64, f64) {
        let w: Vec<f64> = self.jobs.iter().map(|j| j.host_seconds).collect();
        (percentile(&w, 0.50), percentile(&w, 0.90), percentile(&w, 0.99))
    }

    /// Input bytes served per modeled second (GB/s).
    pub fn throughput_gbs(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.bytes_in).sum::<u64>() as f64 / self.makespan / 1e9
    }

    /// The SLO view of this replay: tail latencies, goodput, availability,
    /// and the resilience event counts. Every field is Det-class — a pure
    /// function of (workload, config, fault seed), identical at any
    /// `FZGPU_THREADS`.
    pub fn slo(&self) -> SloSummary {
        let lat: Vec<f64> = self.jobs.iter().map(JobResult::latency).collect();
        let deadline = self.config.resilience.deadline;
        let met = |j: &JobResult| deadline.is_none_or(|d| j.latency() <= d);
        let good_bytes: u64 = self.jobs.iter().filter(|j| met(j)).map(|j| j.bytes_in).sum();
        let offered = self.jobs.len() + self.rejected.len() + self.shed.len() + self.failed.len();
        SloSummary {
            p50: percentile(&lat, 0.50),
            p90: percentile(&lat, 0.90),
            p99: percentile(&lat, 0.99),
            p999: percentile(&lat, 0.999),
            goodput_gbs: if self.makespan > 0.0 {
                good_bytes as f64 / self.makespan / 1e9
            } else {
                0.0
            },
            availability: if offered == 0 { 1.0 } else { self.jobs.len() as f64 / offered as f64 },
            completed: self.jobs.len(),
            rejected: self.rejected.len(),
            shed: self.shed.len(),
            failed: self.failed.len(),
            retried_jobs: self.jobs.iter().filter(|j| j.retries > 0).count(),
            retries_total: self.retries_total,
            deadline_missed: self.jobs.iter().filter(|j| !met(j)).count(),
            aborted_jobs: self.aborted_jobs,
        }
    }

    /// One CRC-32 over every job's `(id, digest)` and every rejection's id
    /// — the replay's determinism fingerprint. Pairs are folded in id
    /// order, not completion order, so the digest is a pure function of
    /// the job *outputs*: any two configurations serving the same
    /// workload (different streams, pool, batch size, thread count) must
    /// agree on it.
    pub fn digest(&self) -> u32 {
        let mut pairs: Vec<(usize, u32)> = self.jobs.iter().map(|j| (j.id, j.digest)).collect();
        pairs.sort_unstable();
        let mut c = Crc32::new();
        for (id, digest) in pairs {
            c.update(&(id as u64).to_le_bytes());
            c.update(&digest.to_le_bytes());
        }
        let mut rejected: Vec<usize> = self.rejected.iter().map(|r| r.id).collect();
        rejected.sort_unstable();
        for id in rejected {
            c.update(&(id as u64).to_le_bytes());
        }
        // Shed and failed sections fold only when present (with marker
        // bytes so the classes stay distinguishable), keeping fault-free
        // digests identical to the pre-failure-domain format.
        let mut shed: Vec<usize> = self.shed.iter().map(|s| s.id).collect();
        shed.sort_unstable();
        if !shed.is_empty() {
            c.update(b"shed");
            for id in shed {
                c.update(&(id as u64).to_le_bytes());
            }
        }
        let mut failed: Vec<usize> = self.failed.iter().map(|f| f.id).collect();
        failed.sort_unstable();
        if !failed.is_empty() {
            c.update(b"fail");
            for id in failed {
                c.update(&(id as u64).to_le_bytes());
            }
        }
        c.finalize()
    }

    /// Aligned text summary. `include_wall` adds host-wallclock lines
    /// (excluded by default so output is byte-identical across runs).
    pub fn text_report(&self, include_wall: bool) -> String {
        let (p50, p90, p99) = self.latency_percentiles();
        let mut out = String::new();
        out.push_str(&format!(
            "workload {} on {}: {} jobs done, {} rejected, {} batches\n",
            self.workload,
            self.device,
            self.jobs.len(),
            self.rejected.len(),
            self.batches
        ));
        out.push_str(&format!(
            "config: streams={} pool={} batch_max={} queue_depth={} backpressure={} path={} engine={}\n",
            self.config.streams,
            if self.config.pool { "on" } else { "off" },
            self.config.batch_max,
            self.config.queue_depth,
            self.config.backpressure.label(),
            self.config.path.label(),
            self.config.engine.label()
        ));
        out.push_str(&format!(
            "modeled: makespan {:.2} us (serial {:.2} us, overlap saves {:.1}%), compute util {:.0}%\n",
            self.makespan * 1e6,
            self.serial_time * 1e6,
            (1.0 - self.makespan / self.serial_time.max(1e-30)) * 100.0,
            self.compute_utilization * 100.0
        ));
        out.push_str(&format!(
            "modeled latency us: p50 {:.2}  p90 {:.2}  p99 {:.2}; throughput {:.2} GB/s; fusion saved {:.2} us\n",
            p50 * 1e6,
            p90 * 1e6,
            p99 * 1e6,
            self.throughput_gbs(),
            self.fused_saved * 1e6
        ));
        if let Some(p) = &self.pool {
            out.push_str(&format!(
                "pool: {} hits / {} misses ({:.0}% hit rate, {} frag), high water {} B\n",
                p.hits,
                p.misses,
                p.hit_rate() * 100.0,
                p.fragmentation_misses,
                p.high_water_bytes
            ));
        }
        let slo = self.slo();
        out.push_str(&format!(
            "slo: p50 {:.2}  p90 {:.2}  p99 {:.2}  p999 {:.2} us; goodput {:.2} GB/s; availability {:.1}%; retried {} shed {} failed {} aborted {}\n",
            slo.p50 * 1e6,
            slo.p90 * 1e6,
            slo.p99 * 1e6,
            slo.p999 * 1e6,
            slo.goodput_gbs,
            slo.availability * 100.0,
            slo.retried_jobs,
            slo.shed,
            slo.failed,
            slo.aborted_jobs
        ));
        let res = &self.config.resilience;
        if !res.is_inert() || res.retry.max_retries > 0 {
            out.push_str(&format!(
                "resilience: deadline_us={} retries={} shed_by_priority={} breaker={} fault_seed={} job_fail={} stall={}@{:.1}us loss_at_us={}\n",
                res.deadline.map_or("none".to_string(), |d| format!("{:.1}", d * 1e6)),
                res.retry.max_retries,
                res.shed_by_priority,
                res.breaker,
                res.faults.seed,
                res.faults.job_fail_prob,
                res.faults.stall_prob,
                res.faults.stall_seconds * 1e6,
                res.faults.device_loss_at.map_or("none".to_string(), |t| format!("{:.1}", t * 1e6)),
            ));
        }
        out.push_str(&format!("digest: 0x{:08x}\n", self.digest()));
        if include_wall {
            let (h50, h90, h99) = self.host_percentiles();
            out.push_str(&format!(
                "host wall: total {:.3} s; per-job ms: p50 {:.3}  p90 {:.3}  p99 {:.3}\n",
                self.host_seconds,
                h50 * 1e3,
                h90 * 1e3,
                h99 * 1e3
            ));
        }
        out
    }

    /// Render the report as JSON. Wall-domain fields appear only with
    /// `include_wall` so the default document is deterministic.
    pub fn to_json(&self, include_wall: bool) -> String {
        let (p50, p90, p99) = self.latency_percentiles();
        let jobs = self.jobs.iter().map(|j| {
            let row = Obj::compact()
                .raw("id", j.id)
                .str("op", j.op.label())
                .raw("n", j.n)
                .num("arrival_us", j.arrival * 1e6)
                .num("admitted_us", j.admitted * 1e6)
                .num("dispatched_us", j.dispatched * 1e6)
                .num("completed_us", j.completed * 1e6)
                .num("latency_us", j.latency() * 1e6)
                .raw("bytes_in", j.bytes_in)
                .raw("bytes_out", j.bytes_out)
                .str("digest", &format!("0x{:08x}", j.digest))
                .raw("stream", j.stream)
                .raw("batch", j.batch)
                .raw("batch_size", j.batch_size)
                .raw("retries", j.retries);
            if include_wall { row.num("host_us", j.host_seconds * 1e6) } else { row }.finish()
        });
        // Rejected, shed and failed rows open alike: id, arrival, one time.
        let unserved = |id: usize, arrival: f64, key: &str, t: f64| {
            Obj::compact().raw("id", id).num("arrival_us", arrival * 1e6).num(key, t * 1e6)
        };
        let rejected = self
            .rejected
            .iter()
            .map(|r| unserved(r.id, r.arrival, "retry_after_us", r.retry_after).finish());
        let shed = self.shed.iter().map(|s| {
            let head = unserved(s.id, s.arrival, "retry_after_us", s.retry_after);
            head.raw("priority", s.priority).str("reason", s.reason).finish()
        });
        let failed = self.failed.iter().map(|f| {
            let head = unserved(f.id, f.arrival, "time_us", f.time);
            head.raw("attempts", f.attempts).str("reason", f.reason).finish()
        });
        let slo = self.slo();
        let slo_json = Obj::compact()
            .num("p50_us", slo.p50 * 1e6)
            .num("p90_us", slo.p90 * 1e6)
            .num("p99_us", slo.p99 * 1e6)
            .num("p999_us", slo.p999 * 1e6)
            .num("goodput_gbs", slo.goodput_gbs)
            .num("availability", slo.availability)
            .raw("completed", slo.completed)
            .raw("rejected", slo.rejected)
            .raw("shed", slo.shed)
            .raw("failed", slo.failed)
            .raw("retried_jobs", slo.retried_jobs)
            .raw("retries_total", slo.retries_total)
            .raw("deadline_missed", slo.deadline_missed)
            .raw("aborted_jobs", slo.aborted_jobs)
            .raw("breaker_reroutes", self.breaker_reroutes)
            .raw("stalls_injected", self.stalls_injected)
            .finish();
        let res = &self.config.resilience;
        let us = |t: Option<f64>| t.map(|t| json::num(t * 1e6));
        let fault = Obj::compact()
            .raw("seed", res.faults.seed)
            .num("job_fail_prob", res.faults.job_fail_prob)
            .raw("max_consecutive", res.faults.max_consecutive_job_faults)
            .num("stall_prob", res.faults.stall_prob)
            .num("stall_us", res.faults.stall_seconds * 1e6)
            .opt("loss_at_us", us(res.faults.device_loss_at))
            .opt("repair_us", us(res.faults.device_repair_seconds))
            .finish();
        let res_json = Obj::compact()
            .opt("deadline_us", us(res.deadline))
            .raw("max_retries", res.retry.max_retries)
            .num("backoff_base_us", res.retry.backoff_base * 1e6)
            .num("backoff_cap_us", res.retry.backoff_cap * 1e6)
            .raw("shed_by_priority", res.shed_by_priority)
            .raw("breaker", res.breaker)
            .raw("fault", fault)
            .finish();
        let pool = self.pool.as_ref().map(|p| {
            Obj::compact()
                .raw("hits", p.hits)
                .raw("misses", p.misses)
                .raw("frag_misses", p.fragmentation_misses)
                .raw("releases", p.releases)
                .raw("high_water_bytes", p.high_water_bytes)
                .num("hit_rate", p.hit_rate())
                .finish()
        });
        let latency =
            Obj::compact().num("p50", p50 * 1e6).num("p90", p90 * 1e6).num("p99", p99 * 1e6);
        let doc = Obj::compact()
            .str("workload", &self.workload)
            .str("device", self.device)
            .raw("streams", self.config.streams)
            .raw("pool", self.config.pool)
            .raw("batch_max", self.config.batch_max)
            .raw("queue_depth", self.config.queue_depth)
            .str("backpressure", self.config.backpressure.label())
            .str("path", self.config.path.label())
            .str("engine", self.config.engine.label())
            .raw("resilience", res_json)
            .raw("jobs", json::list(Layout::Compact, jobs))
            .raw("rejected", json::list(Layout::Compact, rejected))
            .raw("shed", json::list(Layout::Compact, shed))
            .raw("failed", json::list(Layout::Compact, failed))
            .raw("slo", slo_json)
            .num("makespan_us", self.makespan * 1e6)
            .num("serial_us", self.serial_time * 1e6)
            .num("compute_utilization", self.compute_utilization)
            .num("throughput_gbs", self.throughput_gbs())
            .raw("latency_us", latency.finish())
            .raw("batches", self.batches)
            .num("fused_saved_us", self.fused_saved * 1e6)
            .opt("pool_stats", pool)
            .str("digest", &format!("0x{:08x}", self.digest()));
        if !include_wall {
            return doc.finish();
        }
        let (h50, h90, h99) = self.host_percentiles();
        let host_job =
            Obj::compact().num("p50", h50 * 1e6).num("p90", h90 * 1e6).num("p99", h99 * 1e6);
        doc.num("host_seconds", self.host_seconds).raw("host_job_us", host_job.finish()).finish()
    }
}

/// Host-side result of executing one job (bit-exact work). Cloneable so
/// retried attempts reuse the first execution's output.
#[derive(Clone)]
struct Exec {
    bytes_in: u64,
    bytes_out: u64,
    digest: u32,
    kernels: Vec<(String, f64)>,
    host_s: f64,
}

/// Modeled kernel sequence of the job `fz` just executed. On the native
/// path the device timeline is empty, so the job is charged one synthetic
/// roofline op instead (see [`native_model_seconds`]).
fn job_kernels(fz: &FzGpu, n: usize) -> Vec<(String, f64)> {
    match fz.path() {
        PipelinePath::Native => {
            vec![("native.fz".to_string(), native_model_seconds(n, fz.gpu().spec()))]
        }
        _ => fz.kernel_breakdown(),
    }
}

fn execute_job(fz: &mut FzGpu, r: &Request, prepared: Option<&[u8]>) -> Exec {
    let t0 = Instant::now();
    match r.op {
        Op::Compress => {
            let data = synth_field(r.field, r.n, r.seed);
            let c = fz.compress(&data, (1, 1, r.n), r.eb);
            Exec {
                bytes_in: (r.n * 4) as u64,
                bytes_out: c.bytes.len() as u64,
                digest: crc32(&c.bytes),
                kernels: job_kernels(fz, r.n),
                host_s: t0.elapsed().as_secs_f64(),
            }
        }
        Op::Decompress => {
            let stream = prepared.expect("decompress job without a prepared stream");
            let out = fz.decompress_bytes(stream).expect("self-produced stream must decompress");
            Exec {
                bytes_in: stream.len() as u64,
                bytes_out: (r.n * 4) as u64,
                digest: value_digest(&out),
                kernels: job_kernels(fz, r.n),
                host_s: t0.elapsed().as_secs_f64(),
            }
        }
    }
}

/// One dispatchable work item: a queued admission or a scheduled retry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Request index.
    idx: usize,
    /// Original admission time (constant across retries).
    admitted: f64,
    /// Modeled time the entry becomes dispatchable: the admission time
    /// for fresh jobs, failure time + backoff for retries, the recovery
    /// time for jobs re-dispatched after a device loss.
    ready: f64,
    /// 0-based execution attempt this entry will run.
    attempt: u32,
}

/// One scheduling decision. The runner appends each decision to its
/// transition log exactly once, in decision order; the report, the serve
/// Det metrics and the telemetry capture are all folds over that log,
/// run after the replay.
#[derive(Debug)]
pub(crate) enum Transition {
    /// Job `job` entered the queue at `t`, leaving it `depth` deep.
    Admit { t: f64, job: usize, depth: usize },
    /// A full queue turned the job away.
    Reject(Rejection),
    /// Admission control dropped the job.
    Shed(Shed),
    /// The job is lost for good.
    Fail(Failed),
    /// A faulted attempt, observed at `t`, re-dispatches as `attempt`
    /// after `backoff` seconds.
    Retry { t: f64, job: usize, attempt: u32, backoff: f64 },
    /// The breaker routed the dispatch at `t` around the believed pick.
    Reroute { t: f64, stream: usize },
    /// Batch `batch` of `jobs` jobs left the queue at `t` onto `stream`,
    /// leaving it `depth` deep: its phase durations, the modeled seconds
    /// launch fusion saved, and the pool's (hits, misses) after it ran.
    Dispatch {
        t: f64,
        batch: usize,
        stream: usize,
        jobs: usize,
        depth: usize,
        h2d: f64,
        compute: f64,
        d2h: f64,
        saved: f64,
        pool: (u64, u64),
    },
    /// A stall of `duration` froze `stream` at `t`, after batch `batch`.
    Stall { t: f64, stream: usize, batch: usize, duration: f64 },
    /// A job completed.
    Complete(JobResult),
    /// The device was lost at `t`, aborting `aborted` in-flight jobs;
    /// `recovery` is when it returns, if ever.
    DeviceLoss { t: f64, recovery: Option<f64>, aborted: usize },
}

/// Mutable scheduler state threaded through the replay.
struct Runner<'a> {
    cfg: ServeConfig,
    workload: &'a Workload,
    prepared: Vec<Option<Vec<u8>>>,
    fz: FzGpu,
    sim: StreamSim,
    /// Admitted jobs awaiting their first dispatch.
    queue: VecDeque<Entry>,
    /// Retry / re-dispatch entries, kept sorted by `(ready, idx)`.
    retries: VecDeque<Entry>,
    /// Stream routing state (believed schedule + circuit breaker).
    health: StreamHealth,
    /// The run's fault schedule evaluator (pure per-event functions).
    faults: ServiceFaults,
    /// Host-side executions, cached per request so retries reuse the
    /// first (and only) execution: a completed job's digest is its
    /// fault-free digest by construction, and Det-class pipeline metrics
    /// count each job exactly once however often it re-dispatches.
    exec_cache: Vec<Option<Exec>>,
    /// Every scheduling decision, once, in decision order.
    log: Vec<Transition>,
    /// Committed batches so far (the next batch's sequence number).
    batches: usize,
    /// The (single) outage window has been applied to the schedule.
    outage_applied: bool,
    /// The device was lost and never recovers.
    device_dead: bool,
}

impl Runner<'_> {
    fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.retries.is_empty()
    }

    /// `(source is the retry list, dispatch time)` of the next dispatch:
    /// the earliest-draining stream, but never before the chosen item is
    /// ready. Retries win ties — they carry the older jobs.
    fn next_dispatch(&self) -> (bool, f64) {
        let (_, ready) = self.health.peek(&self.sim);
        let q = self.queue.front().map(|e| ready.max(e.ready));
        let r = self.retries.front().map(|e| ready.max(e.ready));
        match (q, r) {
            (Some(q), Some(r)) => (r <= q, r.min(q)),
            (None, Some(r)) => (true, r),
            (Some(q), None) => (false, q),
            (None, None) => unreachable!("no work to dispatch"),
        }
    }

    /// Insert a retry entry keeping `(ready, idx)` order — deterministic
    /// whatever order failures were discovered in.
    fn schedule_retry(&mut self, e: Entry) {
        let pos = self
            .retries
            .iter()
            .position(|x| (x.ready, x.idx) > (e.ready, e.idx))
            .unwrap_or(self.retries.len());
        self.retries.insert(pos, e);
    }

    /// Record a permanent job loss.
    fn fail(&mut self, idx: usize, time: f64, attempts: u32, reason: &'static str) {
        let arrival = self.workload.requests[idx].arrival;
        self.log.push(Transition::Fail(Failed { id: idx, arrival, time, attempts, reason }));
    }

    /// Record a shed job (admission control, not queue overflow).
    fn shed(&mut self, idx: usize, retry_after: f64, reason: &'static str) {
        let r = &self.workload.requests[idx];
        let (arrival, priority) = (r.arrival, r.priority);
        self.log.push(Transition::Shed(Shed { id: idx, arrival, retry_after, priority, reason }));
    }

    /// Queue request `idx` at modeled time `t` — or, once the device is
    /// dead, fail it at its arrival.
    fn admit(&mut self, idx: usize, t: f64) {
        if self.device_dead {
            let arrival = self.workload.requests[idx].arrival;
            self.fail(idx, arrival, 0, "device_lost");
        } else {
            self.queue.push_back(Entry { idx, admitted: t, ready: t, attempt: 0 });
            self.log.push(Transition::Admit { t, job: idx, depth: self.queue.len() });
        }
    }

    /// Request `idx` arrives: run the dispatches due before it, then shed
    /// it if it cannot meet its deadline, or admit it — rejecting,
    /// priority-shedding or blocking the client when the queue is full.
    fn arrive(&mut self, idx: usize) {
        let Request { arrival, n, .. } = self.workload.requests[idx];
        while self.has_work() && self.next_dispatch().1 <= arrival {
            self.dispatch();
        }
        // Deadline-aware admission: shed what already cannot make it
        // instead of letting it occupy a queue slot. A dead device has
        // drained the queue, and `admit` fails the job.
        if let Some(d) = self.cfg.resilience.deadline.filter(|_| !self.device_dead) {
            let est = self.estimate_completion(arrival, n);
            if est > arrival + d {
                self.shed(idx, (est - arrival - d).max(0.0), "deadline");
                return;
            }
        }
        let mut admitted = arrival;
        if self.queue.len() >= self.cfg.queue_depth {
            match self.cfg.backpressure {
                Backpressure::Reject => {
                    let retry_after = (self.next_dispatch().1 - arrival).max(0.0);
                    if self.cfg.resilience.shed_by_priority {
                        self.admit_or_shed(idx, retry_after);
                    } else {
                        let r = Rejection { id: idx, arrival, retry_after };
                        self.log.push(Transition::Reject(r));
                    }
                    return;
                }
                // The client stalls; dispatches free slots and admission
                // happens then.
                Backpressure::Block => {
                    while self.queue.len() >= self.cfg.queue_depth && !self.device_dead {
                        admitted = admitted.max(self.dispatch());
                    }
                }
            }
        }
        self.admit(idx, admitted);
    }

    /// Full queue under priority shedding: evict the least important
    /// queued job (highest priority value, newest on ties) when the
    /// arrival outranks it; otherwise shed the arrival itself.
    fn admit_or_shed(&mut self, idx: usize, retry_after: f64) {
        let reqs = &self.workload.requests;
        // (borrow of the workload, not of self: mutation below is fine)
        let victim = self
            .queue
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (reqs[e.idx].priority, e.idx))
            .map(|(pos, e)| (pos, e.idx))
            .expect("shedding on a non-empty queue");
        if (reqs[victim.1].priority, victim.1) > (reqs[idx].priority, idx) {
            self.queue.remove(victim.0);
            self.shed(victim.1, retry_after, "priority");
            self.admit(idx, reqs[idx].arrival);
        } else {
            self.shed(idx, retry_after, "priority");
        }
    }

    /// Deterministic completion estimate for a job of `n` values arriving
    /// at `arrival`: the earliest believed stream, plus the queued backlog
    /// spread over all streams, plus the job's own roofline service time.
    fn estimate_completion(&self, arrival: f64, n: usize) -> f64 {
        let spec = &self.workload.device;
        let model =
            |n: usize| native_model_seconds(n, spec) + (n * 4) as f64 / spec.pcie_peak * 2.0;
        let backlog: f64 = self
            .queue
            .iter()
            .chain(self.retries.iter())
            .map(|e| model(self.workload.requests[e.idx].n))
            .sum();
        let (_, ready) = self.health.peek(&self.sim);
        ready.max(arrival) + backlog / self.cfg.streams as f64 + model(n)
    }

    /// Execute (or recall) the bit-exact host-side work of request `idx`.
    fn exec(&mut self, idx: usize) -> Exec {
        if self.exec_cache[idx].is_none() {
            self.exec_cache[idx] = Some(execute_job(
                &mut self.fz,
                &self.workload.requests[idx],
                self.prepared[idx].as_deref(),
            ));
        }
        self.exec_cache[idx].clone().expect("just filled")
    }

    /// Dispatch one batch (fresh jobs, possibly fused) or one retry
    /// (always solo). Returns the dispatch time (when any consumed queue
    /// slot freed).
    fn dispatch(&mut self) -> f64 {
        let (take_retry, _) = self.next_dispatch();
        let (stream, ready) = self.health.peek(&self.sim);
        let rerouted = self.health.is_reroute(stream);
        let head = if take_retry {
            self.retries.pop_front().expect("retry front")
        } else {
            self.queue.pop_front().expect("queue front")
        };
        let t = ready.max(head.ready);

        // Greedily batch same-key small fresh jobs already admitted by `t`.
        let key = BatchKey::of(&self.workload.requests[head.idx]);
        let mut members = vec![head];
        if !take_retry
            && self.cfg.batch_max > 1
            && self.workload.requests[head.idx].n <= self.cfg.batch_threshold
        {
            let mut kept = VecDeque::with_capacity(self.queue.len());
            while let Some(e) = self.queue.pop_front() {
                if members.len() < self.cfg.batch_max
                    && e.ready <= t
                    && BatchKey::of(&self.workload.requests[e.idx]) == key
                {
                    members.push(e);
                } else {
                    kept.push_back(e);
                }
            }
            self.queue = kept;
        }

        // Bit-exact execution, one job at a time (see the module docs).
        let execs: Vec<Exec> = members.iter().map(|e| self.exec(e.idx)).collect();

        // Modeled schedule: copy in, fused kernels, copy out — enqueued
        // speculatively so a device loss can abort the batch.
        let mark = self.sim.mark();
        let spec = self.workload.device;
        let seqs: Vec<Vec<(String, f64)>> = execs.iter().map(|e| e.kernels.clone()).collect();
        let (fused, saved) = fuse_kernel_sequences(&seqs, spec.launch_overhead);
        let b = self.batches;
        let h2d = execs.iter().map(|e| e.bytes_in).sum::<u64>() as f64 / spec.pcie_peak;
        let d2h = execs.iter().map(|e| e.bytes_out).sum::<u64>() as f64 / spec.pcie_peak;
        self.sim.enqueue(stream, OpClass::CopyH2D, &format!("b{b}.h2d"), h2d, t);
        for (name, dur) in &fused {
            self.sim.enqueue(stream, OpClass::Compute, &format!("b{b}.{name}"), *dur, t);
        }
        let end = self.sim.enqueue(stream, OpClass::CopyD2H, &format!("b{b}.d2h"), d2h, t);

        // Device loss: the first batch whose schedule crosses the loss
        // instant triggers the outage — it is the only work in flight.
        if !self.outage_applied {
            if let Some((loss, recovery)) = self.faults.outage() {
                if end > loss {
                    self.sim.rollback(&mark);
                    self.apply_outage(loss, recovery, members);
                    return t;
                }
            }
        }

        // Commit: the batch ran.
        self.batches += 1;
        self.health.note_work(stream, end);
        if rerouted {
            self.log.push(Transition::Reroute { t, stream });
        }
        let pool = self.fz.gpu().pool().map_or((0, 0), |p| {
            let s = p.stats();
            (s.hits, s.misses)
        });
        self.log.push(Transition::Dispatch {
            t,
            batch: b,
            stream,
            jobs: members.len(),
            depth: self.queue.len(),
            h2d,
            compute: fused.iter().map(|(_, d)| *d).sum(),
            d2h,
            saved,
            pool,
        });

        // Injected stream stall after this dispatch: freezes the stream's
        // queue silently — the believed schedule does not move, so only a
        // breaker-enabled scheduler routes the next dispatch around it.
        if let Some(d) = self.faults.stall_after(b as u64) {
            self.sim.enqueue(stream, OpClass::Stall, &format!("b{b}.stall"), d, 0.0);
            self.log.push(Transition::Stall { t: end, stream, batch: b, duration: d });
        }

        let batch_size = members.len();
        for (e, x) in members.into_iter().zip(execs) {
            let r = &self.workload.requests[e.idx];
            // Transient job fault: this attempt's output is discarded at
            // its completion time (never corrupted — the discarded result
            // is the cached fault-free one); retry with backoff while the
            // budget lasts.
            if self.faults.job_attempt_fails(e.idx as u64, e.attempt) {
                if e.attempt < self.cfg.resilience.retry.max_retries {
                    let attempt = e.attempt + 1;
                    let backoff = self.cfg.resilience.retry.backoff_time(attempt);
                    self.log.push(Transition::Retry { t: end, job: e.idx, attempt, backoff });
                    self.schedule_retry(Entry { ready: end + backoff, attempt, ..e });
                } else {
                    self.fail(e.idx, end, e.attempt + 1, "faults");
                }
                continue;
            }
            self.log.push(Transition::Complete(JobResult {
                id: e.idx,
                op: r.op,
                n: r.n,
                arrival: r.arrival,
                admitted: e.admitted,
                dispatched: t,
                completed: end,
                bytes_in: x.bytes_in,
                bytes_out: x.bytes_out,
                digest: x.digest,
                stream,
                batch: b,
                batch_size,
                retries: e.attempt,
                host_seconds: x.host_s,
            }));
        }
        t
    }

    /// Apply the device-loss window to the `aborted` members of the batch
    /// that crossed the loss instant, whose schedule the caller rolled
    /// back. They are the only work in flight: every earlier batch
    /// committed because its D2H ended by the loss. Freeze every stream
    /// until recovery and re-dispatch the aborted jobs then, or fail them
    /// and everything pending when the device never returns.
    fn apply_outage(&mut self, loss: f64, recovery: Option<f64>, mut aborted: Vec<Entry>) {
        self.outage_applied = true;
        aborted.sort_by_key(|e| e.idx);
        self.log.push(Transition::DeviceLoss { t: loss, recovery, aborted: aborted.len() });
        match recovery {
            Some(rec) => {
                // Freeze every stream's queue until the device returns —
                // loudly: the believed schedule learns the outage too.
                for s in 0..self.sim.n_streams() {
                    let at = self.sim.stream_ready(s);
                    if at < rec {
                        self.sim.enqueue(s, OpClass::Stall, "device.lost", rec - at, 0.0);
                    }
                }
                self.health.note_outage(rec);
                for e in aborted {
                    self.schedule_retry(Entry { ready: rec, ..e });
                }
            }
            None => {
                self.device_dead = true;
                let pending: Vec<Entry> =
                    self.queue.drain(..).chain(self.retries.drain(..)).collect();
                for e in aborted.into_iter().chain(pending) {
                    self.fail(e.idx, loss, e.attempt, "device_lost");
                }
            }
        }
    }

    /// The report: one pass over the transition log fills the outcome
    /// lists and counters, in decision order.
    fn report(&self, host_seconds: f64) -> ServeReport {
        let mut makespan = self.sim.makespan();
        if self.outage_applied {
            // A loss that interrupted work holds the clock at least to the
            // loss (or recovery) instant even if nothing ran afterwards.
            if let Some((loss, recovery)) = self.faults.outage() {
                makespan = makespan.max(recovery.unwrap_or(loss));
            }
        }
        let mut report = ServeReport {
            workload: self.workload.name.clone(),
            device: self.workload.device.name,
            config: self.cfg,
            jobs: Vec::new(),
            rejected: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            retries_total: 0,
            aborted_jobs: 0,
            breaker_reroutes: 0,
            stalls_injected: 0,
            makespan,
            serial_time: self.sim.serial_time(),
            compute_utilization: self.sim.compute_utilization(),
            pool: self.fz.gpu().pool().map(MemPool::stats),
            batches: self.batches,
            fused_saved: 0.0,
            host_seconds,
            stream_trace: if self.cfg.capture_trace {
                self.sim.chrome_trace_json()
            } else {
                String::new()
            },
            telemetry: None,
        };
        for entry in &self.log {
            match entry {
                Transition::Admit { .. } => {}
                Transition::Reject(r) => report.rejected.push(r.clone()),
                Transition::Shed(s) => report.shed.push(s.clone()),
                Transition::Fail(f) => report.failed.push(f.clone()),
                Transition::Retry { .. } => report.retries_total += 1,
                Transition::Reroute { .. } => report.breaker_reroutes += 1,
                Transition::Dispatch { saved, .. } => report.fused_saved += saved,
                Transition::Stall { .. } => report.stalls_injected += 1,
                Transition::Complete(j) => report.jobs.push(j.clone()),
                Transition::DeviceLoss { aborted, .. } => report.aborted_jobs += *aborted as u64,
            }
        }
        report
    }
}

/// Publish the serve metrics from a finished report: the Det counters and
/// gauges, and the Wall host-time histogram. A counter is added only when
/// its count is nonzero — exactly when a per-decision counter would have
/// created its series.
fn publish_metrics(report: &ServeReport) {
    let count = |name: &str, labels: &[(&str, &str)], n: u64| {
        if n > 0 {
            metrics::counter_add(Class::Det, name, labels, n);
        }
    };
    for op in [Op::Compress, Op::Decompress] {
        let n = report.jobs.iter().filter(|j| j.op == op).count();
        count("fzgpu_serve_jobs_total", &[("op", op.label())], n as u64);
    }
    count("fzgpu_serve_rejected_total", &[], report.rejected.len() as u64);
    for reason in ["priority", "deadline"] {
        let n = report.shed.iter().filter(|s| s.reason == reason).count();
        count("fzgpu_serve_shed_total", &[("reason", reason)], n as u64);
    }
    for reason in ["faults", "device_lost"] {
        let n = report.failed.iter().filter(|f| f.reason == reason).count();
        count("fzgpu_serve_failed_total", &[("reason", reason)], n as u64);
    }
    count("fzgpu_serve_batches_total", &[], report.batches as u64);
    count("fzgpu_serve_retries_total", &[], report.retries_total);
    count("fzgpu_serve_stalls_total", &[], report.stalls_injected);
    count("fzgpu_serve_breaker_reroutes_total", &[], report.breaker_reroutes);
    // A device loss always aborts the batch that crossed it.
    count("fzgpu_serve_device_loss_total", &[], u64::from(report.aborted_jobs > 0));
    count("fzgpu_serve_aborted_total", &[], report.aborted_jobs);
    count("fzgpu_serve_deadline_missed_total", &[], report.slo().deadline_missed as u64);
    metrics::gauge_set(Class::Det, "fzgpu_serve_makespan_seconds", &[], report.makespan);
    metrics::gauge_set(Class::Det, "fzgpu_serve_fused_saved_seconds", &[], report.fused_saved);
    metrics::observe(Class::Wall, "fzgpu_serve_host_seconds", &[], report.host_seconds);
}

/// The serving facade: build with a config, replay workloads.
pub struct Service {
    config: ServeConfig,
}

impl Service {
    /// New service.
    ///
    /// # Panics
    /// Panics when `streams`, `queue_depth`, or `batch_max` is zero.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.streams >= 1, "need at least one stream");
        assert!(config.queue_depth >= 1, "need a queue slot");
        assert!(config.batch_max >= 1, "batch_max counts the job itself");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Replay `workload` to completion and report.
    pub fn run(&self, workload: &Workload) -> ServeReport {
        let t0 = Instant::now();
        let _span = fzgpu_trace::span("serve.run")
            .field("workload", workload.name.as_str())
            .field("requests", workload.requests.len());

        let opts = FzOptions {
            path: self.config.path,
            engine: self.config.engine,
            ..FzOptions::default()
        };
        // Out-of-band prep: build the streams decompress jobs will consume
        // (untimed — the client already holds compressed data).
        let mut prep = FzGpu::with_options(workload.device, opts);
        let prepared: Vec<Option<Vec<u8>>> = workload
            .requests
            .iter()
            .map(|r| match r.op {
                Op::Decompress => {
                    let data = synth_field(r.field, r.n, r.seed);
                    Some(prep.compress(&data, (1, 1, r.n), r.eb).bytes)
                }
                Op::Compress => None,
            })
            .collect();
        drop(prep);

        // One device for every job: on the analytic engine its memo of
        // block-class counters warms with the first job of each shape
        // (DESIGN §13, §16).
        let mut fz = FzGpu::with_options(workload.device, opts);
        if self.config.pool {
            fz.attach_pool(MemPool::new());
        }
        fz.gpu_mut().set_charge_alloc(self.config.charge_alloc);

        let res = self.config.resilience;
        let mut run = Runner {
            cfg: self.config,
            workload,
            prepared,
            fz,
            sim: StreamSim::new(&workload.device, self.config.streams),
            queue: VecDeque::new(),
            retries: VecDeque::new(),
            health: StreamHealth::new(self.config.streams, res.breaker),
            faults: ServiceFaults::new(res.faults),
            exec_cache: vec![None; workload.requests.len()],
            log: Vec::new(),
            batches: 0,
            outage_applied: false,
            device_dead: false,
        };
        for idx in 0..workload.requests.len() {
            run.arrive(idx);
        }
        while run.has_work() {
            run.dispatch();
        }

        let mut report = run.report(t0.elapsed().as_secs_f64());
        publish_metrics(&report);
        // Telemetry last: the capture records the report's own digest.
        report.telemetry =
            self.config.telemetry.map(|cfg| telemetry::capture(cfg, &run.log, &run.sim, &report));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FieldKind;
    use fzgpu_core::ErrorBound;
    use fzgpu_sim::device::A100;

    /// `count` same-size compress jobs, `gap_us` apart.
    fn uniform_workload(count: usize, n: usize, gap_us: f64) -> Workload {
        let requests = (0..count)
            .map(|i| Request {
                arrival: i as f64 * gap_us * 1e-6,
                op: Op::Compress,
                n,
                eb: ErrorBound::Abs(1e-3),
                field: FieldKind::Sine,
                seed: i as u64,
                priority: 0,
            })
            .collect();
        Workload { name: "uniform".into(), device: A100, requests }
    }

    /// Pins the nearest-rank percentile convention: rank `⌈q·n⌉` of the
    /// sorted sample, FP-slop-guarded. In particular p50 of a 2-sample set
    /// is the lower sample, and `0.9 × 10` (which floats evaluate just
    /// above 9) still means rank 9.
    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
        // p50 of two samples = rank ceil(1.0) = 1 → the lower sample.
        assert_eq!(percentile(&[2.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.51), 2.0);
        // 0.9 * 10 = 9.000000000000002 in f64: still rank 9, not 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.10), 1.0);
        assert_eq!(percentile(&ten, 0.11), 2.0);
        // Unsorted input is handled; rank counts the sorted order.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn all_jobs_complete_and_latency_orders_hold() {
        let w = uniform_workload(6, 4096, 5.0);
        let rep = Service::new(ServeConfig::default()).run(&w);
        assert_eq!(rep.jobs.len(), 6);
        assert!(rep.rejected.is_empty());
        for j in &rep.jobs {
            assert!(j.arrival <= j.admitted);
            assert!(j.admitted <= j.dispatched);
            assert!(j.dispatched < j.completed);
        }
        assert!(rep.makespan > 0.0 && rep.makespan <= rep.serial_time + 1e-15);
    }

    #[test]
    fn replay_is_deterministic() {
        let w = uniform_workload(5, 4096, 3.0);
        let svc = Service::new(ServeConfig::default());
        let a = svc.run(&w);
        let b = svc.run(&w);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.to_json(false), b.to_json(false));
    }

    #[test]
    fn two_streams_beat_one_on_makespan() {
        let w = uniform_workload(8, 16384, 1.0);
        let one = Service::new(ServeConfig { streams: 1, ..ServeConfig::default() }).run(&w);
        let two = Service::new(ServeConfig { streams: 2, ..ServeConfig::default() }).run(&w);
        assert_eq!(one.digest(), two.digest(), "stream count must not change results");
        assert!(
            two.makespan < one.makespan,
            "overlap must shorten the schedule: {} vs {}",
            two.makespan,
            one.makespan
        );
    }

    #[test]
    fn pool_cuts_modeled_time_and_allocs() {
        let w = uniform_workload(6, 8192, 1.0);
        let off = Service::new(ServeConfig { pool: false, ..ServeConfig::default() }).run(&w);
        let on = Service::new(ServeConfig { pool: true, ..ServeConfig::default() }).run(&w);
        assert_eq!(off.digest(), on.digest(), "pooling must not change results");
        assert!(on.makespan < off.makespan, "{} vs {}", on.makespan, off.makespan);
        let stats = on.pool.expect("pool stats present");
        assert!(stats.hits > 0, "steady state must hit the free lists");
        assert_eq!(stats.live_bytes, 0, "no leaked buffers after drain");
    }

    #[test]
    fn batching_fuses_launches() {
        let w = uniform_workload(8, 2048, 0.0);
        let solo = Service::new(ServeConfig { batch_max: 1, ..ServeConfig::default() }).run(&w);
        let batched = Service::new(ServeConfig { batch_max: 4, ..ServeConfig::default() }).run(&w);
        assert_eq!(solo.digest(), batched.digest(), "batching must not change results");
        assert!(batched.batches < solo.batches);
        assert!(batched.fused_saved > 0.0);
        assert!(batched.jobs.iter().any(|j| j.batch_size > 1));
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let w = uniform_workload(5, 4096, 0.0);
        let cfg = ServeConfig {
            queue_depth: 2,
            streams: 1,
            backpressure: Backpressure::Reject,
            ..ServeConfig::default()
        };
        let rep = Service::new(cfg).run(&w);
        assert!(!rep.rejected.is_empty(), "burst into a depth-2 queue must shed load");
        assert_eq!(rep.jobs.len() + rep.rejected.len(), 5);
        assert!(rep.rejected.iter().all(|r| r.retry_after >= 0.0));
    }

    #[test]
    fn blocking_backpressure_loses_nothing() {
        let w = uniform_workload(5, 4096, 0.0);
        let cfg = ServeConfig {
            queue_depth: 2,
            streams: 1,
            backpressure: Backpressure::Block,
            ..ServeConfig::default()
        };
        let rep = Service::new(cfg).run(&w);
        assert_eq!(rep.jobs.len(), 5);
        assert!(rep.rejected.is_empty());
        // Blocked jobs were admitted strictly after arrival.
        assert!(rep.jobs.iter().any(|j| j.admitted > j.arrival));
    }

    #[test]
    fn decompress_jobs_round_trip() {
        let requests = vec![
            Request {
                arrival: 0.0,
                op: Op::Decompress,
                n: 4096,
                eb: ErrorBound::Abs(1e-3),
                field: FieldKind::Ramp,
                seed: 1,
                priority: 0,
            },
            Request {
                arrival: 2e-6,
                op: Op::Compress,
                n: 4096,
                eb: ErrorBound::Abs(1e-3),
                field: FieldKind::Ramp,
                seed: 1,
                priority: 0,
            },
        ];
        let w = Workload { name: "mix".into(), device: A100, requests };
        let rep = Service::new(ServeConfig::default()).run(&w);
        assert_eq!(rep.jobs.len(), 2);
        let dec = rep.jobs.iter().find(|j| j.op == Op::Decompress).unwrap();
        assert_eq!(dec.bytes_out, 4096 * 4);
        assert!(dec.bytes_in < dec.bytes_out, "stream must be smaller than the field");
    }

    #[test]
    fn native_path_preserves_digests() {
        let mut w = uniform_workload(5, 4096, 2.0);
        // Mix in a decompress job so both directions are exercised.
        w.requests.push(Request {
            arrival: 11e-6,
            op: Op::Decompress,
            n: 4096,
            eb: ErrorBound::Abs(1e-3),
            field: FieldKind::Ramp,
            seed: 9,
            priority: 0,
        });
        let sim =
            Service::new(ServeConfig { path: PipelinePath::Simulated, ..ServeConfig::default() })
                .run(&w);
        let nat =
            Service::new(ServeConfig { path: PipelinePath::Native, ..ServeConfig::default() })
                .run(&w);
        assert_eq!(sim.digest(), nat.digest(), "pipeline path must not change job outputs");
        assert!(nat.makespan > 0.0, "native jobs still occupy modeled time");
        assert!(nat.jobs.iter().all(|j| j.completed > j.dispatched));
        assert!(nat.text_report(false).contains("path=native"));
        assert!(sim.text_report(false).contains("path=sim"));
    }

    /// The engine axis must be invisible to everything a replay reports
    /// except its own config label: digests, schedules, and the whole
    /// deterministic JSON document agree byte-for-byte.
    #[test]
    fn analytic_engine_preserves_schedule_and_digests() {
        let mut w = uniform_workload(4, 4096, 2.0);
        w.requests.push(Request {
            arrival: 9e-6,
            op: Op::Decompress,
            n: 4096,
            eb: ErrorBound::Abs(1e-3),
            field: FieldKind::Ramp,
            seed: 5,
            priority: 0,
        });
        let interp =
            Service::new(ServeConfig { engine: Engine::Interpreted, ..ServeConfig::default() })
                .run(&w);
        let analytic =
            Service::new(ServeConfig { engine: Engine::Analytic, ..ServeConfig::default() })
                .run(&w);
        assert_eq!(interp.digest(), analytic.digest(), "engine must not change job outputs");
        assert_eq!(interp.makespan, analytic.makespan, "modeled schedules must agree");
        assert!(analytic.text_report(false).contains("engine=analytic"));
        assert_eq!(
            interp.to_json(false).replace("\"engine\":\"interpreted\"", "\"engine\":\"analytic\""),
            analytic.to_json(false),
            "reports may differ only in the engine label"
        );
    }

    #[test]
    fn report_serializes_and_parses_back() {
        use fzgpu_trace::json::{parse, Value};
        let w = uniform_workload(3, 2048, 1.0);
        let rep =
            Service::new(ServeConfig { capture_trace: true, ..ServeConfig::default() }).run(&w);
        let doc = parse(&rep.to_json(true)).expect("valid JSON");
        let jobs = doc.get("jobs").and_then(Value::as_array).unwrap();
        assert_eq!(jobs.len(), 3);
        assert!(doc.get("digest").and_then(Value::as_str).unwrap().starts_with("0x"));
        assert!(doc.get("host_seconds").is_some());
        assert!(parse(&rep.to_json(false)).unwrap().get("host_seconds").is_none());
        assert!(parse(&rep.stream_trace).is_ok(), "stream trace must be valid JSON");
        let text = rep.text_report(false);
        assert!(text.contains("digest: 0x") && text.contains("modeled latency"));
    }
}
