//! Byte-level determinism of the telemetry pipeline (DESIGN.md §17).
//!
//! Telemetry observes the replay in *modeled* time only, so every
//! artifact it produces — the windowed histogram document, the event
//! log, the flight-recorder dumps, and the rendered `fzgpu report`
//! dashboard — is contractually a pure function of (workload, config,
//! fault seed): bit-identical across host thread counts, across both
//! simulation engines, across repeated replays, and with a fault plan
//! actively injecting chaos. Capturing telemetry must also never change
//! what the service *does*: the fault-free smoke digest stays pinned to
//! the pre-telemetry value and the deterministic report documents are
//! unchanged.

use fz_gpu::core::{crc32, PipelinePath};
use fz_gpu::serve::{ServeConfig, Service, TelemetryConfig, Workload};
use fz_gpu::sim::{Engine, ServiceFaultPlan};

/// The smoke trace's job-output fingerprint (see `service_replay.rs`) —
/// telemetry capture must not move it.
const SMOKE_DIGEST: u32 = 0xf0cf_d735;

/// CRC-32 of the faulted smoke capture's bytes (meta, windows, event log
/// and every flight dump, as concatenated by [`capture_bytes`]). Pins
/// the telemetry documents' keys, separators and number spellings.
const FAULTED_CAPTURE_CRC: u32 = 0x82a2_2975;

fn smoke() -> Workload {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/smoke.json");
    Workload::from_file(path).expect("committed smoke workload parses")
}

/// Telemetry-enabled config; `faulted` adds a seeded chaos schedule with
/// retries, so the capture sees retries, stalls, and failures.
fn config(faulted: bool) -> ServeConfig {
    let mut cfg = ServeConfig { telemetry: Some(TelemetryConfig::default()), ..Default::default() };
    if faulted {
        cfg.resilience.retry.max_retries = 2;
        cfg.resilience.faults = ServiceFaultPlan::seeded(7).job_faults(0.35, 3).stalls(0.3, 50e-6);
    }
    cfg
}

/// Every telemetry byte artifact of one replay: meta, windows, event log,
/// and each flight dump, concatenated in a fixed order.
fn capture_bytes(cfg: ServeConfig) -> String {
    let report = Service::new(cfg).run(&smoke());
    let cap = report.telemetry.expect("telemetry configured");
    let mut all = cap.meta_json();
    all.push_str(&cap.windows_json);
    all.push_str(&cap.events_jsonl());
    for d in &cap.dumps {
        all.push_str(&d.to_jsonl());
    }
    all
}

#[test]
fn telemetry_is_identical_across_thread_counts() {
    for faulted in [false, true] {
        let mut captures = Vec::new();
        for threads in [1usize, 4, 3] {
            rayon::set_num_threads(threads);
            captures.push(capture_bytes(config(faulted)));
        }
        rayon::set_num_threads(1);
        assert_eq!(captures[0], captures[1], "threads=4 moved telemetry (faulted={faulted})");
        assert_eq!(captures[0], captures[2], "threads=3 moved telemetry (faulted={faulted})");
    }
}

#[test]
fn telemetry_is_identical_across_engines() {
    for faulted in [false, true] {
        // Path set explicitly so the faulted pin does not follow FZGPU_NATIVE.
        let cfg = ServeConfig { path: PipelinePath::Simulated, ..config(faulted) };
        let interp = capture_bytes(ServeConfig { engine: Engine::Interpreted, ..cfg });
        let analytic = capture_bytes(ServeConfig { engine: Engine::Analytic, ..cfg });
        assert_eq!(interp, analytic, "engine moved telemetry bytes (faulted={faulted})");
        if faulted {
            let got = crc32(interp.as_bytes());
            assert_eq!(got, FAULTED_CAPTURE_CRC, "faulted capture bytes drifted: got 0x{got:08x}");
        }
    }
}

#[test]
fn telemetry_is_identical_across_replays() {
    for faulted in [false, true] {
        let a = capture_bytes(config(faulted));
        let b = capture_bytes(config(faulted));
        assert_eq!(a, b, "replay moved telemetry bytes (faulted={faulted})");
    }
}

#[test]
fn capture_does_not_change_the_replay() {
    let with = Service::new(config(false)).run(&smoke());
    let without =
        Service::new(ServeConfig { telemetry: None, ..ServeConfig::default() }).run(&smoke());
    assert_eq!(with.digest(), SMOKE_DIGEST, "telemetry capture moved the pinned smoke digest");
    assert_eq!(without.digest(), SMOKE_DIGEST);
    assert_eq!(
        with.text_report(false),
        without.text_report(false),
        "capture must not change the deterministic text report"
    );
    assert_eq!(with.to_json(false), without.to_json(false));
    // The capture ties itself to the replay it observed.
    assert_eq!(with.telemetry.expect("capture present").digest, SMOKE_DIGEST);
}

#[test]
fn faulted_capture_alerts_with_dumps_and_renders() {
    // No retry budget: transient faults become permanent failures, which
    // burn SLO budget fast enough to cross the alert thresholds.
    let mut cfg = config(true);
    cfg.resilience.retry.max_retries = 0;
    let report = Service::new(cfg).run(&smoke());
    let cap = report.telemetry.expect("telemetry configured");
    assert!(!cap.alert_seqs.is_empty(), "the chaos schedule must fire at least one alert");
    assert_eq!(cap.dumps.len(), cap.alert_seqs.len(), "one flight dump per alert");
    for (dump, &seq) in cap.dumps.iter().zip(&cap.alert_seqs) {
        assert_eq!(dump.alert_seq, seq, "dumps pair with alerts in firing order");
        assert!(dump.alert_kind.starts_with("alert."));
        assert!(!dump.events.is_empty(), "a dump carries its incident context");
        // The alert itself is the last ring entry — the incident's cause
        // precedes it.
        assert_eq!(dump.events.last().expect("nonempty").seq, seq);
    }

    // The on-disk layout round-trips through the dashboard, and the
    // rendered dashboard is itself byte-deterministic.
    let dir = std::env::temp_dir().join(format!("fzgpu_teldet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cap.write_dir(&dir).expect("write telemetry dir");
    let first = fz_gpu::serve::render_report(&dir).expect("dashboard renders");
    assert!(first.contains("alert."), "dashboard shows the alert timeline:\n{first}");
    assert!(first.contains("flight/dump-"), "alerts link their dumps:\n{first}");
    for &seq in &cap.alert_seqs {
        let f = dir.join("flight").join(format!("dump-{seq:06}.jsonl"));
        assert!(f.exists(), "missing {}", f.display());
    }
    let again = fz_gpu::serve::render_report(&dir).expect("dashboard renders twice");
    assert_eq!(first, again);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn windows_and_events_reflect_the_replay() {
    let report = Service::new(config(false)).run(&smoke());
    let jobs = report.jobs.len();
    let cap = report.telemetry.expect("telemetry configured");
    let completes = cap.events.iter().filter(|e| e.kind == "complete").count();
    let admits = cap.events.iter().filter(|e| e.kind == "admit").count();
    assert_eq!(completes, jobs, "one complete event per completed job");
    assert_eq!(admits, jobs, "fault-free smoke admits everything it completes");
    // Events are chronological with seq breaking ties.
    for w in cap.events.windows(2) {
        assert!(
            (w[0].t, w[0].seq) <= (w[1].t, w[1].seq),
            "event order violated: {:?} then {:?}",
            (w[0].t, w[0].seq),
            (w[1].t, w[1].seq)
        );
    }
    // The windows document declares the schema and carries the latency
    // histogram series the dashboard draws.
    assert!(cap.windows_json.starts_with("{\"v\":1,"));
    assert!(cap.windows_json.contains("fzgpu_serve_latency_seconds"));
    assert!(cap.windows_json.contains("fzgpu_serve_window_compute_busy_ns"));
}
