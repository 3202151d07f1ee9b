//! Resilience policy for the scheduler: deadlines, retries, shedding,
//! and stream health — the failure domain of [`crate::service::Service`].
//!
//! Everything here operates in *modeled* time against a deterministic
//! fault schedule ([`fzgpu_sim::ServiceFaultPlan`]); see DESIGN.md §15 for
//! the semantics. The invariant the whole module is built around: faults
//! cost time or jobs, never correctness — a job that completes produces
//! exactly its fault-free bytes, whatever chaos the schedule injected.

use fzgpu_sim::{RetryPolicy, ServiceFaultPlan, StreamSim};

/// Per-run resilience policy, carried inside
/// [`crate::service::ServeConfig`]. The default is entirely inert: no
/// deadline, no job-level retries, no shedding, health-aware routing, no
/// faults — a fault-free replay behaves (and digests) exactly as before.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Per-job completion deadline, modeled seconds from arrival. When
    /// set, admission is deadline-aware: a job whose estimated completion
    /// already misses its deadline at arrival is shed immediately (reason
    /// `"deadline"`) instead of wasting queue capacity; jobs that complete
    /// late still complete (and count as deadline misses in the SLO).
    pub deadline: Option<f64>,
    /// Job-level retry budget for transient job faults.
    /// [`RetryPolicy::none`] (the default) fails a job on its first
    /// faulted attempt. Backoff is charged to the *modeled* clock: attempt
    /// `k` re-dispatches no earlier than the failure observation time plus
    /// [`RetryPolicy::backoff_time`]`(k)`.
    pub retry: RetryPolicy,
    /// Under overload with [`crate::Backpressure::Reject`], evict the
    /// lowest-priority queued job (highest [`crate::Request::priority`]
    /// value, newest on ties) to admit a more important arrival, recording
    /// the eviction as shed (reason `"priority"`). Off: arrivals to a full
    /// queue are rejected regardless of priority, as before.
    pub shed_by_priority: bool,
    /// Health-aware stream routing (the per-stream circuit breaker). On
    /// (default): dispatch targets the stream whose queue *actually*
    /// drains first, routing around injected stalls. Off: dispatch routes
    /// by the believed schedule — enqueued work only, blind to stalls —
    /// modeling a scheduler without completion feedback.
    pub breaker: bool,
    /// The fault schedule this run replays. [`ServiceFaultPlan::disabled`]
    /// (the default) injects nothing.
    pub faults: ServiceFaultPlan,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            retry: RetryPolicy::none(),
            shed_by_priority: false,
            breaker: true,
            faults: ServiceFaultPlan::disabled(),
        }
    }
}

impl ResilienceConfig {
    /// True when this policy can change nothing about a replay: no faults
    /// to react to, no deadline, no priority shedding.
    pub fn is_inert(&self) -> bool {
        self.faults.is_disabled() && self.deadline.is_none() && !self.shed_by_priority
    }
}

/// One shed job: dropped by admission control rather than a full queue.
#[derive(Debug, Clone)]
pub struct Shed {
    /// Request index.
    pub id: usize,
    /// Modeled arrival time, seconds.
    pub arrival: f64,
    /// Modeled seconds the client should wait before retrying.
    pub retry_after: f64,
    /// The job's priority (lower value = more important).
    pub priority: u8,
    /// Why it was shed: `"priority"` (evicted for a more important
    /// arrival) or `"deadline"` (estimated completion missed the deadline
    /// already at arrival).
    pub reason: &'static str,
}

/// One failed job: permanently lost, not re-dispatchable.
#[derive(Debug, Clone)]
pub struct Failed {
    /// Request index.
    pub id: usize,
    /// Modeled arrival time, seconds.
    pub arrival: f64,
    /// Modeled time the loss became final, seconds.
    pub time: f64,
    /// Execution attempts consumed (0 when the job never dispatched).
    pub attempts: u32,
    /// Why it failed: `"faults"` (transient-fault retry budget exhausted)
    /// or `"device_lost"` (unrecovered device loss).
    pub reason: &'static str,
}

/// Per-stream routing state: the believed schedule plus the circuit
/// breaker that reconciles it with reality.
///
/// The scheduler's *believed* ready time per stream advances only with
/// work it enqueued (and loud events like a device loss). Injected stalls
/// are silent: a breaker-less scheduler keeps routing to a stalled stream
/// until the work it piled on there completes late. With the breaker on,
/// routing uses the actual [`StreamSim`] ready times — completion
/// feedback — and a dispatch that dodges the stream the believed schedule
/// would have picked is a reroute.
#[derive(Debug, Clone)]
pub struct StreamHealth {
    believed_ready: Vec<f64>,
    breaker: bool,
}

impl StreamHealth {
    /// Fresh state for `streams` streams.
    pub fn new(streams: usize, breaker: bool) -> Self {
        Self { believed_ready: vec![0.0; streams], breaker }
    }

    /// The stream the believed schedule drains first (lowest index ties).
    fn believed_earliest(&self) -> usize {
        self.believed_ready
            .iter()
            .copied()
            .enumerate()
            .reduce(|a, b| if b.1 < a.1 { b } else { a })
            .expect("at least one stream")
            .0
    }

    /// The stream the next dispatch targets and when its queue really
    /// drains.
    pub fn peek(&self, sim: &StreamSim) -> (usize, f64) {
        let stream = if self.breaker { sim.earliest_stream().0 } else { self.believed_earliest() };
        (stream, sim.stream_ready(stream))
    }

    /// Whether dispatching on `stream` is a reroute: the breaker dodged
    /// the stream the believed schedule would have picked.
    pub fn is_reroute(&self, stream: usize) -> bool {
        self.breaker && stream != self.believed_earliest()
    }

    /// Record work the scheduler itself enqueued on `stream`, ending at
    /// modeled time `end` (this it always knows, stall or not: the work's
    /// real completion feeds back on the next dispatch).
    pub fn note_work(&mut self, stream: usize, end: f64) {
        if end > self.believed_ready[stream] {
            self.believed_ready[stream] = end;
        }
    }

    /// A device loss is loud (the driver reports it): every stream is
    /// known to be unavailable until `recovery`.
    pub fn note_outage(&mut self, recovery: f64) {
        for r in &mut self.believed_ready {
            if *r < recovery {
                *r = recovery;
            }
        }
    }
}

/// The SLO view of a replay under a resilience policy (see
/// [`crate::ServeReport::slo`]). All times are modeled seconds; every
/// field is Det-class deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Completed-job latency percentiles (nearest-rank, see
    /// DESIGN.md §17), modeled seconds.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Input bytes of deadline-met completed jobs per modeled second of
    /// makespan, GB/s (with no deadline every completed job counts).
    pub goodput_gbs: f64,
    /// Completed jobs over offered load (completed + rejected + shed +
    /// failed); 1.0 for an empty workload.
    pub availability: f64,
    /// Completed jobs.
    pub completed: usize,
    /// Full-queue rejections.
    pub rejected: usize,
    /// Jobs shed by admission control.
    pub shed: usize,
    /// Permanently failed jobs.
    pub failed: usize,
    /// Completed jobs that needed at least one retry.
    pub retried_jobs: usize,
    /// Total retry dispatches across all jobs.
    pub retries_total: u64,
    /// Completed jobs that finished after their deadline (0 without one).
    pub deadline_missed: usize,
    /// Jobs aborted in flight by a device loss (and re-dispatched, when
    /// the device recovered).
    pub aborted_jobs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_sim::device::A100;
    use fzgpu_sim::OpClass;

    #[test]
    fn default_policy_is_inert() {
        let r = ResilienceConfig::default();
        assert!(r.is_inert());
        assert!(r.breaker, "health-aware routing is the default");
        assert_eq!(r.retry.max_retries, 0);
        assert!(!ResilienceConfig {
            faults: ServiceFaultPlan::seeded(1).stalls(0.5, 1e-3),
            ..ResilienceConfig::default()
        }
        .is_inert());
        assert!(
            !ResilienceConfig { deadline: Some(1e-3), ..ResilienceConfig::default() }.is_inert()
        );
    }

    #[test]
    fn breaker_routes_around_a_stalled_stream() {
        let mut sim = StreamSim::new(&A100, 2);
        // Stream 0 looks free to the believed schedule but is stalled.
        sim.enqueue(0, OpClass::Stall, "chaos", 100e-6, 0.0);

        let blind = StreamHealth::new(2, false);
        assert_eq!(blind.peek(&sim).0, 0, "blind routing picks the stalled stream");
        assert!(!blind.is_reroute(0));

        let aware = StreamHealth::new(2, true);
        let (stream, ready) = aware.peek(&sim);
        assert_eq!(stream, 1, "the breaker dodges the stall");
        assert_eq!(ready, 0.0);
        assert!(aware.is_reroute(1), "dodging the believed pick is a reroute");
        assert!(!aware.is_reroute(0));
    }

    #[test]
    fn believed_schedule_tracks_work_and_outages() {
        let sim = StreamSim::new(&A100, 3);
        let mut h = StreamHealth::new(3, false);
        h.note_work(0, 5e-6);
        h.note_work(1, 2e-6);
        assert_eq!(h.peek(&sim).0, 2);
        h.note_work(2, 9e-6);
        assert_eq!(h.peek(&sim).0, 1);
        h.note_outage(50e-6);
        // All streams believed busy until recovery; lowest index wins ties.
        assert_eq!(h.peek(&sim).0, 0);
        h.note_work(1, 40e-6);
        assert_eq!(h.believed_ready[1], 50e-6, "outage floor is not lowered");
    }
}
