//! Replay determinism for the serving layer.
//!
//! `fzgpu serve --replay` is contractually deterministic: the committed
//! smoke workload must produce one known digest, byte-identical text
//! reports across host thread counts, and the same digest under any
//! scheduling configuration (streams, pool, batching, backpressure) —
//! those knobs move modeled time around, never output bytes.

use fz_gpu::core::{crc32, ErrorBound, FzGpu, FzOptions, PipelinePath};
use fz_gpu::serve::workload::synth_field;
use fz_gpu::serve::{Backpressure, FieldKind, Op, Request, ServeConfig, Service, Workload};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::Engine;
use fz_gpu::trace::json::{self, Value};

/// The smoke trace's job-output fingerprint. This value changing means
/// compression output changed for some job — bump it only alongside an
/// intentional pipeline output change.
const SMOKE_DIGEST: u32 = 0xf0cf_d735;

/// CRC-32 of the smoke replay's deterministic JSON report and of its
/// per-stream Chrome trace. These pin every key, separator and number
/// spelling of both documents, so a writer refactor that reorders a key
/// or respells a number fails here.
const SMOKE_JSON_CRC: u32 = 0x8652_c515;
const SMOKE_TRACE_CRC: u32 = 0x2df1_5d7d;

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

/// The modeled kernels, `(name, µs)`, of `r` run alone on a fresh
/// interpreted device (a decompress job on a device of its own, after its
/// stream is built on another).
fn alone(r: &Request) -> Vec<(String, f64)> {
    let opts = FzOptions {
        path: PipelinePath::Simulated,
        engine: Engine::Interpreted,
        ..FzOptions::default()
    };
    let data = synth_field(r.field, r.n, r.seed);
    let mut fz = FzGpu::with_options(A100, opts);
    let c = fz.compress(&data, (1, 1, r.n), r.eb);
    if r.op == Op::Decompress {
        fz = FzGpu::with_options(A100, opts);
        fz.decompress_bytes(&c.bytes).expect("a fresh stream decompresses");
    }
    fz.kernel_breakdown().into_iter().map(|(name, t)| (name, t * 1e6)).collect()
}

/// Serve-level guard on the analytic engine's block-class memo (DESIGN
/// §16): a small 1-D block of 16 k, 64 k and 256 k compress and decompress
/// jobs replays on one analytic device, one job per batch so no launches
/// fuse, and every job's modeled kernels (names and times, read off the
/// stream trace; allocation charges depend on the pool and are left out)
/// must equal those of the same job run alone on a fresh interpreted
/// device. A memo that hands a job another shape's counters moves its
/// modeled times but never its digest.
#[test]
fn analytic_jobs_model_like_fresh_interpreted_runs() {
    let (c, d) = (Op::Compress, Op::Decompress);
    let jobs = [
        (c, 16_384),
        (d, 65_536),
        (c, 262_144),
        (d, 16_384),
        (c, 65_536),
        (d, 262_144),
        (c, 16_384),
        (d, 262_144),
    ];
    let fields = [FieldKind::Sine, FieldKind::Mixed, FieldKind::Ramp];
    let requests = jobs
        .iter()
        .enumerate()
        .map(|(i, &(op, n))| Request {
            arrival: i as f64 * 1e-3,
            op,
            n,
            eb: ErrorBound::RelToRange(1e-3),
            field: fields[i % fields.len()],
            seed: i as u64 + 1,
            priority: 0,
        })
        .collect();
    let workload = Workload { name: "memo-guard".into(), device: A100, requests };
    let cfg = ServeConfig {
        path: PipelinePath::Simulated,
        engine: Engine::Analytic,
        batch_max: 1,
        capture_trace: true,
        ..ServeConfig::default()
    };
    let report = Service::new(cfg).run(&workload);
    assert_eq!(report.jobs.len(), jobs.len());
    let trace = json::parse(&report.stream_trace).expect("the stream trace parses");
    let events = trace.get("traceEvents").and_then(Value::as_array).expect("trace events");
    for job in &report.jobs {
        let prefix = format!("b{}.", job.batch);
        let served: Vec<(String, f64)> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("compute"))
            .filter_map(|e| {
                let name = e.get("name")?.as_str()?.strip_prefix(prefix.as_str())?;
                let dur = e.get("dur")?.as_f64()?;
                (name != "cudaMallocAsync").then(|| (name.to_string(), dur))
            })
            .collect();
        let r = &workload.requests[job.id];
        assert_eq!(served, alone(r), "job {} ({:?} of {} values)", job.id, r.op, r.n);
    }
}
