//! The serve replay table shared by `telemetry_determinism` and
//! `trace_determinism`: named configurations over the committed smoke
//! workload that, between them, drive every scheduling transition —
//! admission, full-queue reject, priority and deadline sheds, retries,
//! stalls, breaker reroutes, fault and device-loss failures, and a device
//! loss with and without repair. Every row sets path and engine
//! explicitly, so nothing pinned on it follows `FZGPU_NATIVE` or
//! `FZGPU_SIM_ENGINE`.

use fz_gpu::core::PipelinePath;
use fz_gpu::serve::{Backpressure, ServeConfig, TelemetryConfig, Workload};
use fz_gpu::sim::{Engine, RetryPolicy, ServiceFaultPlan};

/// The committed smoke workload.
pub fn smoke() -> Workload {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/smoke.json");
    Workload::from_file(path).expect("committed smoke workload parses")
}

/// Telemetry on, simulated path, interpreted engine, inert resilience.
fn base() -> ServeConfig {
    ServeConfig {
        path: PipelinePath::Simulated,
        engine: Engine::Interpreted,
        telemetry: Some(TelemetryConfig::default()),
        ..ServeConfig::default()
    }
}

/// `cfg` replaying `plan` with a retry budget of `retries` (no backoff).
fn faulted(cfg: ServeConfig, retries: u32, plan: ServiceFaultPlan) -> ServeConfig {
    let mut cfg = cfg;
    cfg.resilience.retry.max_retries = retries;
    cfg.resilience.faults = plan;
    cfg
}

/// A 2-slot queue on one stream.
fn tight(backpressure: Backpressure) -> ServeConfig {
    ServeConfig { queue_depth: 2, streams: 1, backpressure, ..base() }
}

/// Every row as `(name, workload, config)`, in a fixed order.
pub fn rows() -> Vec<(&'static str, Workload, ServeConfig)> {
    let plan = ServiceFaultPlan::seeded;
    let job_chaos = plan(7).job_faults(0.35, 3).stalls(0.3, 50e-6);
    let mut deadline = ServeConfig { streams: 1, ..base() };
    deadline.resilience.deadline = Some(60e-6);
    // Priorities cycle 2, 0, 1 in arrival order.
    let mut mixed = smoke();
    for (i, r) in mixed.requests.iter_mut().enumerate() {
        r.priority = [2, 0, 1][i % 3];
    }
    let mut priority = ServeConfig { queue_depth: 3, ..tight(Backpressure::Reject) };
    priority.resilience.faults =
        plan(3).job_faults(0.3, 3).stalls(0.3, 50e-6).device_loss(80e-6, Some(50e-6));
    priority.resilience.retry = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
    priority.resilience.shed_by_priority = true;
    priority.resilience.deadline = Some(150e-6);
    vec![
        ("fault_free", smoke(), base()),
        ("faulted", smoke(), faulted(base(), 2, job_chaos)),
        ("faulted_no_retry", smoke(), faulted(base(), 0, job_chaos)),
        (
            "loss_repaired",
            smoke(),
            faulted(base(), 0, plan(0).stalls(0.3, 50e-6).device_loss(300e-6, Some(200e-6))),
        ),
        ("loss_permanent", smoke(), faulted(base(), 0, plan(0).device_loss(300e-6, None))),
        ("reject_depth2", smoke(), tight(Backpressure::Reject)),
        (
            "block_depth2_loss",
            smoke(),
            faulted(tight(Backpressure::Block), 0, plan(0).device_loss(100e-6, Some(100e-6))),
        ),
        (
            "block_depth2_dead",
            smoke(),
            faulted(tight(Backpressure::Block), 0, plan(0).device_loss(100e-6, None)),
        ),
        ("deadline_shed", smoke(), deadline),
        ("priority_mixed", mixed, priority),
    ]
}
