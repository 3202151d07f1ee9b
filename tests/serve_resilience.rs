//! The serving failure domain's contract, under property-based fault
//! schedules:
//!
//! 1. **No wrong data**: every job that completes — through retries,
//!    stalls, reroutes, or a device-loss redispatch — produces exactly
//!    the digest of its fault-free run. Faults cost time or jobs, never
//!    correctness.
//! 2. **Determinism**: the same (workload, config, fault seed) produces a
//!    bit-identical report digest and Det-class document at any
//!    `FZGPU_THREADS`.
//! 3. **Honest backpressure**: `retry_after` hints are nonnegative and
//!    finite, and a rejected client that re-arrives after its hint in an
//!    otherwise-idle schedule is admitted.

use std::collections::HashMap;

use fz_gpu::core::{ErrorBound, PipelinePath};
use fz_gpu::serve::{
    Backpressure, FieldKind, Op, Request, ResilienceConfig, ServeConfig, Service, TelemetryConfig,
    Workload,
};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::{RetryPolicy, ServiceFaultPlan};
use proptest::prelude::*;

/// `count` compress jobs, `gap_us` apart, with cycling priorities.
fn workload(count: usize, n: usize, gap_us: f64) -> Workload {
    let requests = (0..count)
        .map(|i| Request {
            arrival: i as f64 * gap_us * 1e-6,
            op: Op::Compress,
            n,
            eb: ErrorBound::Abs(1e-3),
            field: if i % 2 == 0 { FieldKind::Sine } else { FieldKind::Ramp },
            seed: i as u64 + 1,
            priority: 0,
        })
        .collect();
    Workload { name: "resilience".into(), device: A100, requests }
}

/// Fault-free reference digests, id -> digest.
fn reference_digests(w: &Workload) -> HashMap<usize, u32> {
    let rep = Service::new(ServeConfig { queue_depth: 1024, ..ServeConfig::default() }).run(w);
    assert_eq!(rep.jobs.len(), w.requests.len(), "fault-free run completes everything");
    rep.jobs.iter().map(|j| (j.id, j.digest)).collect()
}

fn chaos_config(seed: u64, fault_rate: f64, stall_rate: f64) -> ServeConfig {
    ServeConfig {
        queue_depth: 1024,
        resilience: ResilienceConfig {
            retry: RetryPolicy { max_retries: 3, ..RetryPolicy::default() },
            faults: ServiceFaultPlan::seeded(seed)
                .job_faults(fault_rate, 3)
                .stalls(stall_rate, 150e-6),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Properties 1 + 2 over random fault schedules: completed jobs carry
    /// fault-free digests, nothing is silently dropped, and the whole
    /// Det-class report is thread-count invariant.
    #[test]
    fn faults_never_corrupt_and_replays_are_thread_invariant(
        seed in 0u64..1_000_000,
        fault_rate in 0.05f64..0.6,
        stall_rate in 0.0f64..0.4,
    ) {
        let w = workload(10, 4096, 20.0);
        let reference = reference_digests(&w);
        let cfg = chaos_config(seed, fault_rate, stall_rate);

        let mut views = Vec::new();
        for threads in [1usize, 4, 3] {
            rayon::set_num_threads(threads);
            let rep = Service::new(cfg).run(&w);
            // Retry budget (3) >= the consecutive-fault cap (3): transient
            // faults alone can never permanently fail a job.
            prop_assert!(rep.failed.is_empty());
            prop_assert_eq!(rep.jobs.len(), w.requests.len());
            for j in &rep.jobs {
                prop_assert_eq!(j.digest, reference[&j.id],
                    "job {} corrupted under seed {}", j.id, seed);
            }
            views.push((rep.digest(), rep.text_report(false), rep.to_json(false)));
        }
        rayon::set_num_threads(1);
        prop_assert_eq!(&views[0], &views[1], "1 vs 4 threads diverged");
        prop_assert_eq!(&views[0], &views[2], "1 vs 3 threads diverged");
    }

    /// Property 3: rejection hints are honest. Every `retry_after` is
    /// nonnegative and finite, and re-submitting one rejected request at
    /// `arrival + retry_after` — with no other new arrivals — is admitted.
    #[test]
    fn reject_hints_are_finite_and_sufficient(
        count in 6usize..12,
        queue_depth in 1usize..3,
    ) {
        // A burst at t=0 into a tiny queue: most of it must be rejected.
        let w = workload(count, 4096, 0.0);
        let cfg = ServeConfig {
            queue_depth,
            streams: 1,
            backpressure: Backpressure::Reject,
            ..ServeConfig::default()
        };
        let rep = Service::new(cfg).run(&w);
        prop_assert!(!rep.rejected.is_empty(), "burst must overflow a depth-{queue_depth} queue");
        for r in &rep.rejected {
            prop_assert!(r.retry_after.is_finite() && r.retry_after >= 0.0,
                "dishonest hint {} for job {}", r.retry_after, r.id);
        }

        // The client with the first rejection comes back exactly when told.
        let back = rep.rejected[0].clone();
        let mut w2 = w.clone();
        w2.requests[back.id].arrival = back.arrival + back.retry_after;
        w2.requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let rep2 = Service::new(cfg).run(&w2);
        // Identify the re-arriving job by its (unique) generator seed.
        let seed = w.requests[back.id].seed;
        let id2 = w2.requests.iter().position(|r| r.seed == seed).unwrap();
        prop_assert!(rep2.jobs.iter().any(|j| j.id == id2),
            "client re-arriving after its hint must be admitted");
        prop_assert!(!rep2.rejected.iter().any(|r| r.id == id2),
            "client re-arriving after its hint was rejected again");
    }
}

#[test]
fn retries_strictly_beat_no_retries_on_goodput() {
    let w = workload(24, 8192, 40.0);
    let reference = reference_digests(&w);
    let base = chaos_config(1009, 0.3, 0.0);
    let none = ServeConfig {
        resilience: ResilienceConfig { retry: RetryPolicy::none(), ..base.resilience },
        ..base
    };
    let rep_retry = Service::new(base).run(&w);
    let rep_none = Service::new(none).run(&w);

    assert!(rep_retry.failed.is_empty(), "retry budget absorbs the transient faults");
    assert!(!rep_none.failed.is_empty(), "without retries, faulted jobs are lost");
    assert!(rep_none.failed.iter().all(|f| f.reason == "faults" && f.attempts == 1));
    assert!(
        rep_retry.slo().goodput_gbs > rep_none.slo().goodput_gbs,
        "retries must strictly beat no-retries on goodput: {} vs {}",
        rep_retry.slo().goodput_gbs,
        rep_none.slo().goodput_gbs,
    );
    assert!(rep_retry.retries_total > 0);
    assert!(rep_retry.slo().retried_jobs > 0);
    // Completed jobs on both sides carry fault-free digests.
    for rep in [&rep_retry, &rep_none] {
        for j in &rep.jobs {
            assert_eq!(j.digest, reference[&j.id]);
        }
    }
}

#[test]
fn device_loss_with_repair_loses_time_not_jobs() {
    let w = workload(12, 4096, 15.0);
    let reference = reference_digests(&w);
    let cfg = ServeConfig {
        queue_depth: 1024,
        resilience: ResilienceConfig {
            faults: ServiceFaultPlan::seeded(5).device_loss(60e-6, Some(300e-6)),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let rep = Service::new(cfg).run(&w);
    assert_eq!(rep.jobs.len(), w.requests.len(), "recovered device completes everything");
    assert!(rep.failed.is_empty());
    assert!(rep.aborted_jobs > 0, "the loss must catch work in flight");
    assert!(rep.makespan >= 360e-6, "recovery holds the clock past the repair window");
    for j in &rep.jobs {
        assert_eq!(j.digest, reference[&j.id], "redispatched job must reproduce its bytes");
    }
    // The run is replayable.
    let again = Service::new(cfg).run(&w);
    assert_eq!(rep.digest(), again.digest());
    assert_eq!(rep.to_json(false), again.to_json(false));
}

#[test]
fn permanent_device_loss_fails_loudly_and_deterministically() {
    let w = workload(12, 4096, 15.0);
    let reference = reference_digests(&w);
    let cfg = ServeConfig {
        queue_depth: 1024,
        resilience: ResilienceConfig {
            faults: ServiceFaultPlan::seeded(5).device_loss(250e-6, None),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let rep = Service::new(cfg).run(&w);
    assert!(!rep.failed.is_empty(), "a dead device must fail the remaining jobs");
    assert!(rep.failed.iter().all(|f| f.reason == "device_lost"));
    assert_eq!(rep.jobs.len() + rep.failed.len(), w.requests.len(), "every job is accounted for");
    assert!(!rep.jobs.is_empty(), "work completed before the loss survives");
    for j in &rep.jobs {
        assert!(j.completed <= 250e-6, "nothing completes after a permanent loss");
        assert_eq!(j.digest, reference[&j.id]);
    }
    let slo = rep.slo();
    assert!(slo.availability < 1.0);
    assert_eq!(slo.failed, rep.failed.len());
}

#[test]
fn priority_shedding_evicts_the_least_important() {
    // A burst at t=0: low-priority filler first, then one urgent job.
    let mut w = workload(6, 4096, 0.0);
    for r in w.requests.iter_mut() {
        r.priority = 5;
    }
    w.requests.push(Request {
        arrival: 1e-6,
        op: Op::Compress,
        n: 4096,
        eb: ErrorBound::Abs(1e-3),
        field: FieldKind::Sine,
        seed: 99,
        priority: 0,
    });
    let cfg = ServeConfig {
        queue_depth: 2,
        streams: 1,
        backpressure: Backpressure::Reject,
        resilience: ResilienceConfig { shed_by_priority: true, ..ResilienceConfig::default() },
        ..ServeConfig::default()
    };
    let rep = Service::new(cfg).run(&w);
    let urgent = w.requests.len() - 1;
    assert!(rep.jobs.iter().any(|j| j.id == urgent), "the priority-0 job must be admitted");
    assert!(!rep.shed.is_empty());
    assert!(rep.shed.iter().all(|s| s.reason == "priority" && s.priority == 5));
    assert!(rep.shed.iter().all(|s| s.retry_after.is_finite() && s.retry_after >= 0.0));
    assert!(rep.rejected.is_empty(), "with shedding on, overload is shed, not rejected");
}

#[test]
fn deadline_admission_sheds_the_infeasible() {
    // A backlogged burst with a deadline far tighter than the backlog.
    let w = workload(16, 16384, 0.0);
    let strict = ServeConfig {
        queue_depth: 1024,
        streams: 1,
        resilience: ResilienceConfig { deadline: Some(50e-6), ..ResilienceConfig::default() },
        ..ServeConfig::default()
    };
    let rep = Service::new(strict).run(&w);
    assert!(!rep.shed.is_empty(), "a 50us deadline on a deep backlog must shed");
    assert!(rep.shed.iter().all(|s| s.reason == "deadline"));
    assert!(rep.shed.iter().all(|s| s.retry_after.is_finite() && s.retry_after >= 0.0));
    assert_eq!(rep.jobs.len() + rep.shed.len(), w.requests.len());
    // Admitted jobs were the feasible prefix; the SLO reports the misses.
    let slo = rep.slo();
    assert_eq!(slo.shed, rep.shed.len());
    // A loose deadline admits (and meets) everything.
    let loose = ServeConfig {
        resilience: ResilienceConfig { deadline: Some(1.0), ..ResilienceConfig::default() },
        ..strict
    };
    let all = Service::new(loose).run(&w);
    assert_eq!(all.jobs.len(), w.requests.len());
    assert!(all.shed.is_empty());
    assert_eq!(all.slo().deadline_missed, 0);
}

#[test]
fn breaker_routes_around_stalls_and_never_changes_outputs() {
    let w = workload(20, 4096, 10.0);
    let reference = reference_digests(&w);
    let stalls = ServiceFaultPlan::seeded(21).stalls(0.5, 400e-6);
    let with = ServeConfig {
        queue_depth: 1024,
        resilience: ResilienceConfig {
            breaker: true,
            faults: stalls,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let without =
        ServeConfig { resilience: ResilienceConfig { breaker: false, ..with.resilience }, ..with };
    let on = Service::new(with).run(&w);
    let off = Service::new(without).run(&w);
    assert!(on.stalls_injected > 0, "the schedule must actually stall streams");
    assert!(on.breaker_reroutes > 0, "the breaker must route around them");
    assert_eq!(off.breaker_reroutes, 0);
    assert!(
        on.makespan <= off.makespan,
        "routing around stalls cannot lengthen the schedule: {} vs {}",
        on.makespan,
        off.makespan,
    );
    for rep in [&on, &off] {
        assert_eq!(rep.jobs.len(), w.requests.len());
        for j in &rep.jobs {
            assert_eq!(j.digest, reference[&j.id]);
        }
    }

    // A device loss whose triggering dispatch the breaker routed around:
    // the loss rolls that dispatch back, so it is no reroute — in the
    // report or in the capture.
    for (repair, reroutes) in [(None, Some(0)), (Some(100e-6), None)] {
        let lost = ServeConfig {
            path: PipelinePath::Simulated,
            telemetry: Some(TelemetryConfig::default()),
            resilience: ResilienceConfig {
                faults: ServiceFaultPlan::seeded(1).stalls(0.5, 400e-6).device_loss(160e-6, repair),
                ..with.resilience
            },
            ..with
        };
        let rep = Service::new(lost).run(&w);
        let cap = rep.telemetry.as_ref().expect("telemetry configured");
        let logged = cap.events.iter().filter(|e| e.kind == "breaker_reroute").count() as u64;
        assert_eq!(rep.breaker_reroutes, logged, "report and capture disagree (repair {repair:?})");
        assert!(reroutes.is_none_or(|n| rep.breaker_reroutes == n));
        assert!(rep.aborted_jobs > 0, "the loss must catch work in flight");
        for j in &rep.jobs {
            assert_eq!(j.digest, reference[&j.id]);
        }
    }
}

#[test]
fn inert_policy_reproduces_the_pre_failure_domain_replay() {
    // The resilience default must be invisible: same digest, same report,
    // whether the knob exists or not (guards the pinned smoke digest).
    let w = workload(8, 4096, 5.0);
    let plain = Service::new(ServeConfig::default()).run(&w);
    let spelled = Service::new(ServeConfig {
        resilience: ResilienceConfig::default(),
        ..ServeConfig::default()
    })
    .run(&w);
    assert_eq!(plain.digest(), spelled.digest());
    assert_eq!(plain.to_json(false), spelled.to_json(false));
    assert_eq!(plain.breaker_reroutes, 0, "fault-free routing never reroutes");
    assert_eq!(plain.retries_total, 0);
    assert!(plain.shed.is_empty() && plain.failed.is_empty());
}
