//! Chaos bench: the serving failure domain swept over fault rate x
//! resilience policy.
//!
//! Replays one deterministic trace through `fzgpu-serve` under seeded
//! fault schedules (transient job failures + stream stalls) and three
//! policies — `none` (no retries, no breaker), `retry` (bounded backoff
//! retries), `retry+breaker` (retries plus health-aware stream routing) —
//! and reports the SLO view of each cell: goodput, availability, tail
//! latency, retry/shed/fail counts.
//!
//! Three properties are asserted, in `--smoke` too:
//!
//! 1. **Determinism**: every cell run twice produces a bit-identical
//!    report digest and JSON document.
//! 2. **No wrong data**: every job that completes, under any fault
//!    schedule and policy, produces exactly the digest of its fault-free
//!    run — faults cost time or jobs, never correctness.
//! 3. **Retries earn their keep**: at every nonzero fault rate the retry
//!    policy achieves strictly higher goodput than the no-retry policy
//!    (which permanently fails jobs the schedule faults).
//!
//! Outputs `results/chaos.txt` (human table) and `BENCH_chaos.json`
//! (machine-readable, with a per-cell log-bucketed latency histogram) at
//! the repo root, plus a full telemetry capture of the representative
//! worst cell (highest fault rate, no-retry policy) under
//! `results/telemetry_chaos/` — asserted to contain at least one SLO
//! alert with its flight-recorder dump, and to render through
//! `fzgpu report` (DESIGN.md §17).
//!
//! `--smoke`: a smaller trace for CI — same sweep, same asserts.

use std::collections::HashMap;

use fzgpu_bench::{arg_flag, Table};
use fzgpu_core::ErrorBound;
use fzgpu_serve::{
    render_report, FieldKind, JobResult, Op, Request, ResilienceConfig, ServeConfig, ServeReport,
    Service, TelemetryConfig, Workload,
};
use fzgpu_sim::device::A100;
use fzgpu_sim::{RetryPolicy, ServiceFaultPlan};
use fzgpu_trace::json::{self, Layout, Obj};
use fzgpu_trace::telemetry::LogHist;

/// Deterministic chaos trace: a steady stream of mid-size compressions
/// whose arrival span dominates service time, so cross-policy makespans
/// stay comparable and goodput differences come from *lost work*, not
/// schedule length.
fn chaos_workload(smoke: bool) -> Workload {
    let count = if smoke { 24 } else { 96 };
    let requests = (0..count)
        .map(|i| Request {
            arrival: i as f64 * 40e-6,
            op: Op::Compress,
            n: 16384,
            eb: ErrorBound::Abs(1e-3),
            field: if i % 3 == 0 { FieldKind::Mixed } else { FieldKind::Sine },
            seed: i as u64 + 1,
            priority: 0,
        })
        .collect();
    Workload {
        name: if smoke { "chaos-smoke" } else { "chaos" }.to_string(),
        device: A100,
        requests,
    }
}

/// The policy axis of the sweep.
struct Policy {
    name: &'static str,
    retries: u32,
    breaker: bool,
}

const POLICIES: &[Policy] = &[
    Policy { name: "none", retries: 0, breaker: false },
    Policy { name: "retry", retries: 3, breaker: false },
    Policy { name: "retry+breaker", retries: 3, breaker: true },
];

const FAULT_RATES: &[f64] = &[0.0, 0.2, 0.35];
const FAULT_SEED: u64 = 1009;

fn cell_config(rate: f64, policy: &Policy) -> ServeConfig {
    let faults = if rate > 0.0 {
        // Transient job failures never exceed 3 in a row, so the retry
        // budget of 3 always completes a job; stalls ride the same rate.
        ServiceFaultPlan::seeded(FAULT_SEED).job_faults(rate, 3).stalls(rate, 200e-6)
    } else {
        ServiceFaultPlan::disabled()
    };
    ServeConfig {
        streams: 2,
        queue_depth: 1024,
        resilience: ResilienceConfig {
            retry: RetryPolicy { max_retries: policy.retries, ..RetryPolicy::default() },
            breaker: policy.breaker,
            faults,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    }
}

struct Cell {
    rate: f64,
    policy: &'static str,
    report: ServeReport,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "--smoke");
    let workload = chaos_workload(smoke);
    println!(
        "chaos bench: {} jobs, {:.2} MB total, device {}, seed {FAULT_SEED}{}",
        workload.requests.len(),
        workload.total_values() as f64 * 4.0 / 1e6,
        workload.device.name,
        if smoke { " [smoke]" } else { "" },
    );

    // Fault-free reference: the digest every completed job must reproduce
    // under every fault schedule and policy.
    let baseline = Service::new(cell_config(0.0, &POLICIES[0])).run(&workload);
    assert_eq!(baseline.jobs.len(), workload.requests.len(), "fault-free run completes all");
    let reference: HashMap<usize, u32> = baseline.jobs.iter().map(|j| (j.id, j.digest)).collect();

    let mut cells = Vec::new();
    for &rate in FAULT_RATES {
        for policy in POLICIES {
            let svc = Service::new(cell_config(rate, policy));
            let report = svc.run(&workload);

            // Property 1: replaying the cell is bit-identical.
            let again = svc.run(&workload);
            assert_eq!(
                report.digest(),
                again.digest(),
                "nondeterministic digest at rate={rate} policy={}",
                policy.name,
            );
            assert_eq!(
                report.to_json(false),
                again.to_json(false),
                "nondeterministic report at rate={rate} policy={}",
                policy.name,
            );

            // Property 2: completed jobs carry their fault-free digests.
            for j in &report.jobs {
                assert_eq!(
                    j.digest, reference[&j.id],
                    "job {} produced wrong bytes at rate={rate} policy={}",
                    j.id, policy.name,
                );
            }

            cells.push(Cell { rate, policy: policy.name, report });
        }
    }

    // Property 3: retries strictly beat no-retries on goodput wherever the
    // schedule actually faults jobs.
    for &rate in FAULT_RATES.iter().filter(|&&r| r > 0.0) {
        let find = |name: &str| {
            &cells.iter().find(|c| c.rate == rate && c.policy == name).expect("cell").report
        };
        let none = find("none");
        let retry = find("retry");
        assert!(
            !none.failed.is_empty(),
            "fault rate {rate} must fail jobs under the no-retry policy",
        );
        assert!(
            retry.failed.is_empty(),
            "retry budget must absorb the transient faults at rate {rate}",
        );
        assert!(
            retry.slo().goodput_gbs > none.slo().goodput_gbs,
            "retries must strictly beat no-retries on goodput at rate {rate}: {} vs {}",
            retry.slo().goodput_gbs,
            none.slo().goodput_gbs,
        );
    }

    let mut t = Table::new(&[
        "fault rate",
        "policy",
        "done",
        "failed",
        "retried",
        "goodput GB/s",
        "avail %",
        "p99 us",
        "makespan us",
        "reroutes",
        "stalls",
    ]);
    for c in &cells {
        let slo = c.report.slo();
        t.row(vec![
            format!("{:.2}", c.rate),
            c.policy.to_string(),
            slo.completed.to_string(),
            slo.failed.to_string(),
            slo.retried_jobs.to_string(),
            format!("{:.2}", slo.goodput_gbs),
            format!("{:.1}", slo.availability * 100.0),
            format!("{:.2}", slo.p99 * 1e6),
            format!("{:.2}", c.report.makespan * 1e6),
            c.report.breaker_reroutes.to_string(),
            c.report.stalls_injected.to_string(),
        ]);
    }
    let table = t.render();
    print!("{table}");
    println!("\nfault-free digest: 0x{:08x}", baseline.digest());

    // Persist (repo root is two levels above the bench crate manifest).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    // Telemetry campaign: re-run the representative worst cell (highest
    // fault rate, no retries — failures burn SLO budget fastest) with the
    // full capture on. The capture must fire at least one alert, snapshot
    // a flight dump for it, and render through the dashboard.
    let worst_rate = *FAULT_RATES.last().expect("rates");
    let mut tel_cfg = cell_config(worst_rate, &POLICIES[0]);
    tel_cfg.telemetry = Some(TelemetryConfig::default());
    let tel_report = Service::new(tel_cfg).run(&workload);
    let capture = tel_report.telemetry.as_ref().expect("telemetry configured");
    assert!(
        !capture.alert_seqs.is_empty(),
        "chaos at rate {worst_rate} must fire at least one SLO alert",
    );
    assert_eq!(
        capture.dumps.len(),
        capture.alert_seqs.len(),
        "every alert must snapshot a flight-recorder dump",
    );
    let tel_dir = root.join("results/telemetry_chaos");
    let _ = std::fs::remove_dir_all(&tel_dir);
    capture.write_dir(&tel_dir).expect("write telemetry dir");
    let dashboard = render_report(&tel_dir).expect("telemetry capture must render");
    assert!(dashboard.contains("alert."), "dashboard must show the alert timeline");
    println!(
        "telemetry: rate {worst_rate} policy {} -> {} events, {} alerts, {} flight dumps in {}",
        POLICIES[0].name,
        capture.events.len(),
        capture.alert_seqs.len(),
        capture.dumps.len(),
        tel_dir.display(),
    );
    let mut txt = format!(
        "chaos bench: {} jobs, {:.2} MB total, device {}, seed {FAULT_SEED}{}\n\n",
        workload.requests.len(),
        workload.total_values() as f64 * 4.0 / 1e6,
        workload.device.name,
        if smoke { " [smoke]" } else { "" },
    );
    txt.push_str(&table);
    txt.push_str(&format!("\nfault-free digest: 0x{:08x}\n", baseline.digest()));
    std::fs::create_dir_all(root.join("results")).expect("results dir");
    std::fs::write(root.join("results/chaos.txt"), txt).expect("write results/chaos.txt");

    let json_cells = cells.iter().map(|c| {
        let slo = c.report.slo();
        // Log-bucketed completed-job latency histogram (sparse
        // [bucket, count] pairs, fzgpu_trace::telemetry bucket scheme)
        // so cross-policy tail shapes are comparable, not just p99.
        let mut hist = LogHist::new();
        for j in &c.report.jobs {
            hist.observe(JobResult::latency(j));
        }
        Obj::spaced()
            .raw("fault_rate", c.rate)
            .str("policy", c.policy)
            .raw("completed", slo.completed)
            .raw("failed", slo.failed)
            .raw("retried_jobs", slo.retried_jobs)
            .raw("retries_total", slo.retries_total)
            .raw("goodput_gbs", format!("{:.4}", slo.goodput_gbs))
            .raw("availability", format!("{:.4}", slo.availability))
            .raw("p99_us", format!("{:.4}", slo.p99 * 1e6))
            .raw("p999_us", format!("{:.4}", slo.p999 * 1e6))
            .raw("makespan_us", format!("{:.4}", c.report.makespan * 1e6))
            .raw("breaker_reroutes", c.report.breaker_reroutes)
            .raw("stalls_injected", c.report.stalls_injected)
            .raw("latency_hist", hist.to_json())
            .str("digest", &format!("0x{:08x}", c.report.digest()))
            .finish()
    });
    let json = Obj::doc()
        .str("bench", "chaos")
        .str("workload", &workload.name)
        .raw("jobs", workload.requests.len())
        .str("device", workload.device.name)
        .raw("smoke", smoke)
        .raw("fault_seed", FAULT_SEED)
        .str("fault_free_digest", &format!("0x{:08x}", baseline.digest()))
        .raw("cells", json::list(Layout::Doc, json_cells))
        .finish();
    std::fs::write(root.join("BENCH_chaos.json"), json).expect("write BENCH_chaos.json");
    println!("wrote results/chaos.txt and BENCH_chaos.json");
}
