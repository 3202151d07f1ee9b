//! The observability layer must honor the same schedule-independence
//! contract as the data path: canonical span trees, deterministic-class
//! metric expositions, and pool-worker span merges are byte-identical at
//! any `FZGPU_THREADS` value (the `parallel_determinism` suite holds the
//! data path itself to this).
//!
//! Capture and the metrics registry are process-global, so every test
//! here serializes on one lock.

mod serve_table;

use fz_gpu::core::{crc32, ErrorBound, FaultPlan, FzGpu, FzOptions, PipelinePath};
use fz_gpu::serve::Service;
use fz_gpu::sim::device::A100;
use fz_gpu::sim::Engine;
use fz_gpu::trace;
use rayon::prelude::*;

/// CRC-32 of the Det metric exposition after replaying every
/// `serve_table` row from a reset registry: pins each `fzgpu_serve_*`
/// series alongside the pipeline counters the jobs drive.
const SERVE_EXPOSITION_CRC: u32 = 0xe90e_e48e;

/// Capture windows, the metrics registry, and the pool are all
/// process-global; tests must not interleave.
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` under thread counts 1, 4, and 3 and assert its result is
/// byte-identical each time.
fn invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let _guard = serialized();
    let mut out = None;
    for n in [1usize, 4, 3] {
        rayon::set_num_threads(n);
        let v = f();
        rayon::set_num_threads(1);
        match &out {
            None => out = Some(v),
            Some(first) => assert_eq!(first, &v, "result differs at {n} threads"),
        }
    }
    out.unwrap()
}

fn field() -> Vec<f32> {
    (0..8 * 32 * 40)
        .map(|i| {
            let y = i / 40 % 32;
            let x = i % 40;
            (x as f32 * 0.13).sin() * 3.0 + (y as f32 * 0.05).cos()
        })
        .collect()
}

const SHAPE: (usize, usize, usize) = (8, 32, 40);

#[test]
fn canonical_span_tree_is_thread_count_invariant() {
    let data = field();
    let tree = invariant(|| {
        trace::begin_capture();
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        fz.decompress(&c).unwrap();
        trace::end_capture().canonical()
    });
    // The tree covers the pipeline stages and device operations.
    assert!(tree.contains("fz.compress"), "tree:\n{tree}");
    assert!(tree.contains("fz.decompress"));
    assert!(tree.contains("  stage.encode"));
    assert!(tree.contains("gpu.launch"));
    assert!(tree.contains("gpu.upload"));
}

/// The analytic device's memo of block-class counters is invisible: a
/// warm round trip on one analytic `FzGpu`, whose classes all hit the
/// memo, leaves the same canonical span tree and, from a reset registry,
/// the same Det exposition as the cold one before it.
#[test]
fn warm_analytic_launches_leave_the_same_trace_and_metrics() {
    let _guard = serialized();
    let data = field();
    let opts = FzOptions { engine: Engine::Analytic, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(A100, opts);
    let mut round_trip = || {
        trace::metrics::reset();
        trace::begin_capture();
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        fz.decompress(&c).unwrap();
        let blocks = fz.gpu().interpreted_blocks();
        (trace::end_capture().canonical(), trace::metrics::exposition(false), blocks)
    };
    let (cold_tree, cold_text, cold_blocks) = round_trip();
    let (warm_tree, warm_text, warm_blocks) = round_trip();
    assert_eq!(warm_tree, cold_tree, "the memo moved the span tree");
    assert_eq!(warm_text, cold_text, "the memo moved the Det metrics");
    assert_eq!(warm_blocks, cold_blocks, "the warm round trip interpreted a block");
}

/// One native round trip: the stream, the decoded bits, and the Det
/// metric exposition it leaves in a reset registry.
fn native_round_trip(data: &[f32], shape: (usize, usize, usize)) -> (Vec<u8>, Vec<u32>, String) {
    trace::metrics::reset();
    let opts = FzOptions { path: PipelinePath::Native, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(A100, opts);
    let c = fz.compress(data, shape, ErrorBound::RelToRange(1e-3));
    let back = fz.decompress(&c).unwrap().iter().map(|v| v.to_bits()).collect();
    (c.bytes, back, trace::metrics::exposition(false))
}

#[test]
fn native_stage_spans_are_inert() {
    let _guard = serialized();
    let data = field();
    let off = native_round_trip(&data, SHAPE);
    trace::begin_capture();
    let on = native_round_trip(&data, SHAPE);
    let tree = trace::end_capture().canonical();
    assert!(tree.contains("  native.tiles"), "capture recorded the stages:\n{tree}");
    assert_eq!(off.0, on.0, "stream bytes moved with capture on");
    assert_eq!(off.1, on.1, "decoded bits moved with capture on");
    assert_eq!(off.2, on.2, "Det metrics moved with capture on");
}

#[test]
fn native_stage_tree_is_thread_count_invariant() {
    // 70 tiles: the tile passes (compress's three groups of tiles, and
    // decode's tiles) fan out to the pool, which merges worker spans in
    // chunk order.
    let data: Vec<f32> = (0..70 * 2048).map(|i| (i as f32 * 0.011).sin() * 7.0).collect();
    let (tree, bytes) = invariant(|| {
        trace::begin_capture();
        let (bytes, _, _) = native_round_trip(&data, (1, 1, data.len()));
        (trace::end_capture().canonical(), bytes.len())
    });
    // One span per stage per call, nested under the call's root: never
    // one per tile or per pool chunk.
    let expect = format!(
        "fz.compress values={} path=native\n  native.resolve\n  native.tiles\n  \
         native.assemble\nfz.decompress bytes={bytes} path=native\n  native.verify\n  \
         native.tiles\n  native.integrate\n  native.dequantize\n",
        data.len()
    );
    assert_eq!(tree, expect);
}

#[test]
fn det_metric_exposition_is_thread_count_invariant() {
    let data = field();
    let text = invariant(|| {
        trace::metrics::reset();
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        fz.decompress(&c).unwrap();
        trace::metrics::exposition(false)
    });
    assert!(text.contains("fzgpu_core_bytes_in_total"), "exposition:\n{text}");
    assert!(text.contains("fzgpu_sim_kernel_launches_total"));
    // The wallclock class stays out of the deterministic exposition. Pool
    // region/chunk counts are execution-strategy artifacts (they differ
    // across simulation engines and fan-out thresholds), so they live in
    // the wallclock class alongside steal counts.
    assert!(!text.contains("fzgpu_core_host_seconds"));
    assert!(!text.contains("fzgpu_pool_chunks_total"));
    assert!(!text.contains("fzgpu_pool_steals_total"));
}

#[test]
fn serve_det_metrics_are_pinned() {
    let text = invariant(|| {
        trace::metrics::reset();
        for (_, workload, cfg) in serve_table::rows() {
            Service::new(cfg).run(&workload);
        }
        trace::metrics::exposition(false)
    });
    for series in [
        "fzgpu_serve_jobs_total",
        "fzgpu_serve_rejected_total",
        "fzgpu_serve_shed_total",
        "fzgpu_serve_failed_total",
        "fzgpu_serve_device_loss_total",
        "fzgpu_serve_breaker_reroutes_total",
    ] {
        assert!(text.contains(series), "{series} missing from exposition:\n{text}");
    }
    let got = crc32(text.as_bytes());
    assert_eq!(got, SERVE_EXPOSITION_CRC, "serve Det metrics drifted: got 0x{got:08x}\n{text}");
}

#[test]
fn span_tree_and_metrics_invariant_under_faults_and_retries() {
    // Seeded launch faults trigger the retry loop: the retry events and
    // failure counters must land in the same canonical positions at any
    // thread count.
    let data = field();
    let (tree, text, retries) = invariant(|| {
        trace::metrics::reset();
        trace::begin_capture();
        let mut fz = FzGpu::new(A100);
        fz.enable_faults(FaultPlan::seeded(41).launch_faults(0.4, 2));
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        fz.decompress(&c).unwrap();
        (trace::end_capture().canonical(), trace::metrics::exposition(false), fz.total_retries())
    });
    assert!(retries > 0, "plan too gentle — no retries fired");
    assert!(tree.contains("@gpu.retry"), "tree:\n{tree}");
    assert!(text.contains("fzgpu_sim_launch_retries_total"), "exposition:\n{text}");
}

#[test]
fn worker_spans_merge_in_chunk_order() {
    // Spans emitted inside pool workers surface in item order, not in
    // completion order, so the canonical tree never shows the schedule.
    let tree = invariant(|| {
        trace::begin_capture();
        let _region = trace::span("region");
        let out: Vec<u64> = (0..48u64)
            .into_par_iter()
            .map(|i| {
                let _s = trace::span("worker.item").field("i", i);
                i * 3
            })
            .collect();
        assert_eq!(out[47], 141);
        drop(_region);
        trace::end_capture().canonical()
    });
    let expect: String = (0..48).fold("region\n".to_string(), |mut s, i| {
        s.push_str(&format!("  worker.item i={i}\n"));
        s
    });
    assert_eq!(tree, expect);
}

#[test]
fn unified_trace_parses_and_carries_both_clock_domains() {
    let _guard = serialized();
    let data = field();
    trace::begin_capture();
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
    let host = trace::end_capture();
    let prof = fz.profile();
    assert!(c.ratio() > 1.0);

    let json = prof.unified_chrome_trace(&host);
    let root = trace::json::parse(&json).expect("trace must be valid JSON");
    let events = root.get("traceEvents").and_then(trace::json::Value::as_array).unwrap();
    let pid_of = |e: &trace::json::Value| e.get("pid").and_then(trace::json::Value::as_f64);
    assert!(events.iter().any(|e| pid_of(e) == Some(0.0)), "no modeled-device track");
    assert!(events.iter().any(|e| pid_of(e) == Some(1.0)), "no host-wallclock track");
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(trace::json::Value::as_str)).collect();
    assert!(names.contains(&"fz.compress"), "host span missing: {names:?}");
    assert!(names.contains(&"gpu.upload"));
    let other = root.get("otherData").unwrap();
    assert!(other.get("clock_domains").is_some(), "clock-domain convention must be declared");
}

#[test]
fn stats_json_matches_exposition_values() {
    let _guard = serialized();
    let data = field();
    trace::metrics::reset();
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
    let json = trace::json::parse(&trace::metrics::to_json(false)).expect("valid metrics JSON");
    let metrics = json.get("metrics").and_then(trace::json::Value::as_array).unwrap();
    let bytes_out = metrics
        .iter()
        .find(|m| {
            m.get("name").and_then(trace::json::Value::as_str) == Some("fzgpu_core_bytes_out_total")
        })
        .and_then(|m| m.get("value").and_then(trace::json::Value::as_f64))
        .unwrap();
    assert_eq!(bytes_out as usize, c.bytes.len());
}
