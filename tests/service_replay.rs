//! Replay determinism for the serving layer.
//!
//! `fzgpu serve --replay` is contractually deterministic: the committed
//! smoke workload must produce one known digest, byte-identical text
//! reports across host thread counts, and the same digest under any
//! scheduling configuration (streams, pool, batching, backpressure) —
//! those knobs move modeled time around, never output bytes.

use fz_gpu::core::{crc32, PipelinePath};
use fz_gpu::serve::{Backpressure, ServeConfig, Service, Workload};
use fz_gpu::sim::Engine;

/// The smoke trace's job-output fingerprint. This value changing means
/// compression output changed for some job — bump it only alongside an
/// intentional pipeline output change.
const SMOKE_DIGEST: u32 = 0xf0cf_d735;

/// CRC-32 of the smoke replay's deterministic JSON report and of its
/// per-stream Chrome trace. These pin every key, separator and number
/// spelling of both documents, so a writer refactor that reorders a key
/// or respells a number fails here.
const SMOKE_JSON_CRC: u32 = 0x48d5_2713;
const SMOKE_TRACE_CRC: u32 = 0x96d7_9503;

fn smoke() -> Workload {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/smoke.json");
    Workload::from_file(path).expect("committed smoke workload parses")
}

#[test]
fn smoke_digest_is_pinned() {
    // Path and engine are set explicitly: both are labelled in the JSON
    // report, and the pins must not follow FZGPU_NATIVE/FZGPU_SIM_ENGINE.
    let cfg = ServeConfig {
        path: PipelinePath::Simulated,
        engine: Engine::Interpreted,
        capture_trace: true,
        ..ServeConfig::default()
    };
    let report = Service::new(cfg).run(&smoke());
    assert_eq!(report.jobs.len(), 12);
    assert_eq!(report.rejected.len(), 0);
    assert_eq!(
        report.digest(),
        SMOKE_DIGEST,
        "smoke replay digest drifted: got 0x{:08x}",
        report.digest()
    );
    let json = crc32(report.to_json(false).as_bytes());
    let trace = crc32(report.stream_trace.as_bytes());
    assert_eq!(
        (json, trace),
        (SMOKE_JSON_CRC, SMOKE_TRACE_CRC),
        "smoke report JSON / stream trace bytes drifted: got (0x{json:08x}, 0x{trace:08x})"
    );
}

#[test]
fn report_is_identical_across_thread_counts() {
    let workload = smoke();
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let r = Service::new(ServeConfig::default()).run(&workload);
        // The Det-class view only — wallclock lines are excluded by
        // default exactly so this holds.
        reports.push((r.digest(), r.text_report(false), r.to_json(false)));
    }
    rayon::set_num_threads(1);
    assert_eq!(reports[0], reports[1], "replay must not depend on host thread count");
}

#[test]
fn digest_is_invariant_under_scheduling_config() {
    let workload = smoke();
    let configs = [
        ServeConfig::default(),
        ServeConfig { streams: 4, batch_max: 8, ..ServeConfig::default() },
        ServeConfig { pool: false, ..ServeConfig::default() },
        ServeConfig { streams: 1, backpressure: Backpressure::Block, ..ServeConfig::default() },
    ];
    let digests: Vec<u32> =
        configs.iter().map(|c| Service::new(*c).run(&workload).digest()).collect();
    for d in &digests {
        assert_eq!(*d, SMOKE_DIGEST, "scheduling configuration changed job outputs");
    }
}

#[test]
fn repeated_runs_share_one_service() {
    // A Service is reusable: replaying twice through the same instance
    // (fresh pool each run) gives identical reports.
    let workload = smoke();
    let service = Service::new(ServeConfig::default());
    let a = service.run(&workload);
    let b = service.run(&workload);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.text_report(false), b.text_report(false));
}
