//! Service bench: the concurrent serving layer swept over streams x
//! memory pool x batch size.
//!
//! Replays one deterministic synthetic workload through `fzgpu-serve`
//! under every configuration in the sweep and reports modeled makespan,
//! latency percentiles, copy/compute overlap, batching savings, and pool
//! behaviour. Every configuration must produce the same job-output digest
//! — scheduling and pooling change *when* work happens, never *what* the
//! bytes are — and the headline configuration (streams >= 2 with the pool
//! on) must beat the single-stream no-pool baseline on modeled makespan.
//!
//! Outputs `results/service.txt` (human table) and `BENCH_service.json`
//! (machine-readable) at the repo root.
//!
//! `--smoke`: a smaller request trace for CI — same sweep, same asserts.

use fzgpu_bench::{arg_flag, Table};
use fzgpu_core::ErrorBound;
use fzgpu_serve::{FieldKind, Op, Request, ServeConfig, ServeReport, Service, Workload};
use fzgpu_sim::device::A100;
use fzgpu_trace::json::{self, Layout, Obj};

/// Deterministic bench trace: a steady arrival process mixing field
/// families, sizes, and directions, with enough same-shape neighbours
/// that batching has something to fuse.
fn bench_workload(smoke: bool) -> Workload {
    let (groups, spacing_us) = if smoke { (4, 40.0) } else { (12, 40.0) };
    let mut requests = Vec::new();
    let mut t = 0.0;
    for g in 0..groups {
        let seed = g as u64 * 17 + 1;
        // A burst of small same-shape compressions (the batching target)...
        for k in 0..4u64 {
            requests.push(Request {
                arrival: t + k as f64 * 1e-6,
                op: Op::Compress,
                n: 16384,
                eb: ErrorBound::Abs(1e-3),
                field: if g % 3 == 0 { FieldKind::Sine } else { FieldKind::Mixed },
                seed: seed + k,
                priority: 0,
            });
        }
        // ...one larger field that dominates a stream for a while...
        requests.push(Request {
            arrival: t + 8e-6,
            op: Op::Compress,
            n: 131_072,
            eb: ErrorBound::RelToRange(1e-3),
            field: FieldKind::Ramp,
            seed,
            priority: 0,
        });
        // ...and a decompression riding alongside.
        requests.push(Request {
            arrival: t + 12e-6,
            op: Op::Decompress,
            n: 65_536,
            eb: ErrorBound::Abs(1e-3),
            field: FieldKind::Sine,
            seed,
            priority: 0,
        });
        t += spacing_us * 1e-6;
    }
    Workload {
        name: if smoke { "bench-smoke" } else { "bench" }.to_string(),
        device: A100,
        requests,
    }
}

struct Row {
    streams: usize,
    pool: bool,
    batch: usize,
    report: ServeReport,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "--smoke");
    let workload = bench_workload(smoke);
    println!(
        "service bench: {} jobs, {:.2} MB total, device {}{}",
        workload.requests.len(),
        workload.total_values() as f64 * 4.0 / 1e6,
        workload.device.name,
        if smoke { " [smoke]" } else { "" },
    );

    let mut rows = Vec::new();
    for &streams in &[1usize, 2, 4] {
        for &pool in &[false, true] {
            for &batch in &[1usize, 8] {
                let cfg = ServeConfig {
                    streams,
                    pool,
                    batch_max: batch,
                    batch_threshold: 1 << 15,
                    // The sweep measures scheduling, not admission control:
                    // the queue must hold the whole burst even in the slow
                    // single-stream configurations.
                    queue_depth: 1024,
                    ..ServeConfig::default()
                };
                let report = Service::new(cfg).run(&workload);
                rows.push(Row { streams, pool, batch, report });
            }
        }
    }

    // Bit-exactness across the whole sweep: scheduling, pooling, and
    // batching are timing-layer concerns and must not change any output.
    let digest = rows[0].report.digest();
    for r in &rows {
        assert_eq!(
            r.report.digest(),
            digest,
            "digest diverged at streams={} pool={} batch={}",
            r.streams,
            r.pool,
            r.batch,
        );
        assert_eq!(r.report.rejected.len(), 0, "bench trace must not overflow the queue");
    }

    let mut t = Table::new(&[
        "streams",
        "pool",
        "batch",
        "makespan us",
        "overlap %",
        "p50 us",
        "p99 us",
        "GB/s",
        "fused us",
        "pool hit %",
    ]);
    for r in &rows {
        let (p50, _, p99) = r.report.latency_percentiles();
        let overlap = (1.0 - r.report.makespan / r.report.serial_time) * 100.0;
        t.row(vec![
            r.streams.to_string(),
            if r.pool { "on" } else { "off" }.to_string(),
            r.batch.to_string(),
            format!("{:.2}", r.report.makespan * 1e6),
            format!("{overlap:.1}"),
            format!("{:.2}", p50 * 1e6),
            format!("{:.2}", p99 * 1e6),
            format!("{:.2}", r.report.throughput_gbs()),
            format!("{:.2}", r.report.fused_saved * 1e6),
            r.report
                .pool
                .as_ref()
                .map_or_else(|| "-".to_string(), |p| format!("{:.0}", p.hit_rate() * 100.0)),
        ]);
    }
    let table = t.render();
    print!("{table}");

    // The headline claim: concurrency plus buffer reuse beats the naive
    // serial server. Compare the best streams>=2+pool row against the
    // single-stream no-pool batch=1 baseline.
    let baseline = rows
        .iter()
        .find(|r| r.streams == 1 && !r.pool && r.batch == 1)
        .expect("baseline row in sweep");
    let best = rows
        .iter()
        .filter(|r| r.streams >= 2 && r.pool)
        .min_by(|a, b| a.report.makespan.total_cmp(&b.report.makespan))
        .expect("headline rows in sweep");
    let speedup = baseline.report.makespan / best.report.makespan;
    println!(
        "\nbaseline (1 stream, no pool): {:.2} us; best ({} streams, pool, batch {}): {:.2} us \
         -> {speedup:.2}x",
        baseline.report.makespan * 1e6,
        best.streams,
        best.batch,
        best.report.makespan * 1e6,
    );
    println!("digest (identical across all {} configs): 0x{digest:08x}", rows.len());
    assert!(
        best.report.makespan < baseline.report.makespan,
        "streams+pool must beat the serial no-pool baseline: best {} vs baseline {}",
        best.report.makespan,
        baseline.report.makespan,
    );

    // Persist (repo root is two levels above the bench crate manifest).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut txt = format!(
        "service bench: {} jobs, {:.2} MB total, device {}{}\n\n",
        workload.requests.len(),
        workload.total_values() as f64 * 4.0 / 1e6,
        workload.device.name,
        if smoke { " [smoke]" } else { "" },
    );
    txt.push_str(&table);
    txt.push_str(&format!(
        "\nbaseline (1 stream, no pool): {:.2} us; best ({} streams, pool, batch {}): {:.2} us \
         -> {speedup:.2}x\ndigest (identical across all {} configs): 0x{digest:08x}\n",
        baseline.report.makespan * 1e6,
        best.streams,
        best.batch,
        best.report.makespan * 1e6,
        rows.len(),
    ));
    std::fs::create_dir_all(root.join("results")).expect("results dir");
    std::fs::write(root.join("results/service.txt"), txt).expect("write results/service.txt");

    let json_rows = rows.iter().map(|r| {
        let (p50, p90, p99) = r.report.latency_percentiles();
        Obj::spaced()
            .raw("streams", r.streams)
            .raw("pool", r.pool)
            .raw("batch", r.batch)
            .raw("makespan_us", format!("{:.4}", r.report.makespan * 1e6))
            .raw("serial_us", format!("{:.4}", r.report.serial_time * 1e6))
            .raw("p50_us", format!("{:.4}", p50 * 1e6))
            .raw("p90_us", format!("{:.4}", p90 * 1e6))
            .raw("p99_us", format!("{:.4}", p99 * 1e6))
            .raw("throughput_gbs", format!("{:.4}", r.report.throughput_gbs()))
            .raw("fused_saved_us", format!("{:.4}", r.report.fused_saved * 1e6))
            .raw("batches", r.report.batches)
            .opt("pool_hit_rate", r.report.pool.as_ref().map(|p| format!("{:.4}", p.hit_rate())))
            .finish()
    });
    let json = Obj::doc()
        .str("bench", "service")
        .str("workload", &workload.name)
        .raw("jobs", workload.requests.len())
        .str("device", workload.device.name)
        .raw("smoke", smoke)
        .str("digest", &format!("0x{digest:08x}"))
        .raw("baseline_makespan_us", format!("{:.4}", baseline.report.makespan * 1e6))
        .raw("best_makespan_us", format!("{:.4}", best.report.makespan * 1e6))
        .raw("speedup", format!("{speedup:.4}"))
        .raw("configs", json::list(Layout::Doc, json_rows))
        .finish();
    std::fs::write(root.join("BENCH_service.json"), json).expect("write BENCH_service.json");
    println!("wrote results/service.txt and BENCH_service.json");
}
