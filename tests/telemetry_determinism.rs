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

mod serve_table;

use fz_gpu::core::crc32;
use fz_gpu::serve::{ServeConfig, Service, TelemetryCapture, TelemetryConfig};
use fz_gpu::sim::{Engine, ServiceFaultPlan};
use serve_table::smoke;

/// The smoke trace's job-output fingerprint (see `service_replay.rs`) —
/// telemetry capture must not move it.
const SMOKE_DIGEST: u32 = 0xf0cf_d735;

/// CRC-32 of the faulted smoke capture's bytes (meta, windows, event log
/// and every flight dump, as concatenated by [`capture_bytes`]). Pins
/// the telemetry documents' keys, separators and number spellings.
const FAULTED_CAPTURE_CRC: u32 = 0x0ed1_4978;

/// CRC-32 pins per `serve_table` row: its capture bytes (as concatenated
/// by [`capture_bytes`]) and its deterministic JSON report.
const PINS: [(&str, u32, u32); 10] = [
    ("fault_free", 0x1b6e_b84e, 0x8652_c515),
    ("faulted", FAULTED_CAPTURE_CRC, 0x51f7_8201),
    ("faulted_no_retry", 0x9228_7b81, 0x0aee_8eaa),
    ("loss_repaired", 0xdcd4_21ac, 0x7a31_1be1),
    ("loss_permanent", 0x645f_a2c6, 0x077a_91e8),
    ("reject_depth2", 0x8685_a9a8, 0xc6bc_4a84),
    ("block_depth2_loss", 0x391a_93f3, 0x37dc_25ab),
    ("block_depth2_dead", 0x07fb_bdca, 0x45f7_1df9),
    ("deadline_shed", 0xe235_208b, 0x26dc_e7a1),
    ("priority_mixed", 0x5ac5_3543, 0xbe8f_5dfe),
];

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

/// Every telemetry byte artifact of one capture: meta, windows, event log,
/// and each flight dump, concatenated in a fixed order.
fn capture_bytes_of(cap: &TelemetryCapture) -> String {
    let mut all = cap.meta_json();
    all.push_str(&cap.windows_json);
    all.push_str(&cap.events_jsonl());
    for d in &cap.dumps {
        all.push_str(&d.to_jsonl());
    }
    all
}

/// [`capture_bytes_of`] a smoke replay under `cfg`.
fn capture_bytes(cfg: ServeConfig) -> String {
    capture_bytes_of(&Service::new(cfg).run(&smoke()).telemetry.expect("telemetry configured"))
}

/// Events of `kind` in `cap`.
fn count(cap: &TelemetryCapture, kind: &str) -> usize {
    cap.events.iter().filter(|e| e.kind == kind).count()
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
    let mut got = Vec::new();
    for (name, workload, cfg) in serve_table::rows() {
        let interp =
            Service::new(ServeConfig { engine: Engine::Interpreted, ..cfg }).run(&workload);
        let analytic = Service::new(ServeConfig { engine: Engine::Analytic, ..cfg }).run(&workload);
        let capture = capture_bytes_of(interp.telemetry.as_ref().expect("telemetry configured"));
        assert_eq!(
            capture,
            capture_bytes_of(analytic.telemetry.as_ref().expect("telemetry configured")),
            "engine moved telemetry bytes ({name})"
        );
        got.push((name, crc32(capture.as_bytes()), crc32(interp.to_json(false).as_bytes())));
    }
    let table: Vec<String> =
        got.iter().map(|(n, c, j)| format!("(\"{n}\", 0x{c:08x}, 0x{j:08x})")).collect();
    assert_eq!(got, PINS, "capture / report bytes drifted; got:\n{}", table.join(",\n"));
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
    let mut kinds = std::collections::BTreeSet::new();
    for (name, workload, cfg) in serve_table::rows() {
        let report = Service::new(cfg).run(&workload);
        let cap = report.telemetry.as_ref().expect("telemetry configured");
        // One event per decision the report counts.
        let slo = report.slo();
        for (kind, n) in [
            ("complete", slo.completed as u64),
            ("reject", slo.rejected as u64),
            ("shed", slo.shed as u64),
            ("fail", slo.failed as u64),
            ("retry", slo.retries_total),
            ("stall", report.stalls_injected),
            ("breaker_reroute", report.breaker_reroutes),
            ("dispatch", report.batches as u64),
        ] {
            assert_eq!(count(cap, kind) as u64, n, "{name}: {kind} events vs report");
        }
        if name == "fault_free" {
            assert_eq!(count(cap, "admit"), report.jobs.len(), "admits all it completes");
        }
        for e in &cap.events {
            kinds.insert(e.kind.clone());
            if let Some((_, reason)) = e.detail.iter().find(|(k, _)| k == "reason") {
                kinds.insert(format!("{}:{}", e.kind, reason.trim_matches('"')));
            }
        }
        // Events are chronological; seq breaks ties between non-alert
        // events (an alert is spliced in right after its trigger).
        assert!(cap.events.windows(2).all(|w| w[0].t <= w[1].t), "{name}: not chronological");
        let decisions: Vec<_> = cap.events.iter().filter(|e| !e.is_alert()).collect();
        for w in decisions.windows(2) {
            assert!(
                (w[0].t, w[0].seq) <= (w[1].t, w[1].seq),
                "{name}: event order violated: {:?} then {:?}",
                (w[0].t, w[0].seq),
                (w[1].t, w[1].seq)
            );
        }
        // The windows document declares the schema and carries the latency
        // histogram series the dashboard draws.
        assert!(cap.windows_json.starts_with("{\"v\":1,"));
        if !report.jobs.is_empty() {
            assert!(cap.windows_json.contains("fzgpu_serve_latency_seconds"));
            assert!(cap.windows_json.contains("fzgpu_serve_window_compute_busy_ns"));
        }
    }
    // Between them the rows drive every scheduling transition.
    for kind in [
        "admit",
        "reject",
        "shed:priority",
        "shed:deadline",
        "fail:faults",
        "fail:device_lost",
        "retry",
        "dispatch",
        "stall",
        "breaker_reroute",
        "complete",
        "device_loss",
        "device_recover",
    ] {
        assert!(kinds.contains(kind), "no row produced a {kind} event; got {kinds:?}");
    }
}
