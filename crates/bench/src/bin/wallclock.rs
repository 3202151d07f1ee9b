//! Wall-clock benchmark: *real* elapsed time across host thread counts
//! and pipeline paths.
//!
//! Every figure bin reports the simulator's modeled device time; this one
//! measures what actually elapses on the host — the native fast path
//! ([`fzgpu_core::fastpath`], straight word-level Rust, byte-identical
//! streams; the paper's FZ-OMP row) and the simulated FZ-GPU pipeline
//! (whose wall time is simulation cost, reported alongside its modeled
//! kernel time so the two are never conflated). The sweep runs thread
//! counts 1/2/4/N in one process via `rayon::set_num_threads` and asserts
//! the determinism contract as it goes: every compressed stream — native
//! and simulated, at every thread count — must be byte-identical to the
//! single-threaded reference.
//!
//! Methodology: each measurement pins one warm-up iteration (populating
//! scratch buffers and the page cache) and then reports the **median of
//! five** timed iterations — the median is stable against scheduler
//! noise in both directions, where best-of-N hides one-sided jitter.
//!
//! Outputs `results/wallclock.txt` (human table) and `BENCH_wallclock.json`
//! (machine-readable, seeds the perf trajectory) at the repo root.
//!
//! The simulated pipeline is measured under both engines: the interpreted
//! engine (every block through the warp interpreter — the model of record)
//! and the analytic engine (one representative block per counter class,
//! native output fills — bit-identical timelines and streams). The gap
//! between those two rows is the engine's whole point, so the bench gates
//! it: analytic must be >= 10x faster than interpreted in every mode, and
//! at the default (reduced) scale analytic simulation must land within 3x
//! of the native fast path's wall — modeled counters at data speed.
//!
//! `--smoke`: one tiny field, one timed iteration — a CI deadlock and
//! consistency canary, not a measurement. Even in smoke mode the bench
//! asserts the native path beats the simulated path's wall time by >= 5x:
//! the fast path exists to be fast, and that floor holds on any host
//! because both sides do the same pipeline work per value.
//! `--scale full` measures paper-size fields.

use std::time::Instant;

use fzgpu_bench::{fmt, parse_args, scale_of, shape_of, write_exhibit, Table};
use fzgpu_core::fastpath::PipelinePath;
use fzgpu_core::pipeline::{FzGpu, FzOptions};
use fzgpu_core::quant::ErrorBound;
use fzgpu_data::dataset;
use fzgpu_sim::device::A100;
use fzgpu_sim::Engine;
use fzgpu_trace::json::{self, Layout, Obj};

const USAGE: &str = "usage:\n  wallclock [--smoke] [--scale reduced|full]";

struct Sample {
    threads: usize,
    /// What the pool actually runs with after clamping — can differ from
    /// the requested count (the shim bounds it to `1..=256`); recorded per
    /// row so a measurement is never attributed to a thread count the pool
    /// silently adjusted.
    effective_threads: usize,
    native_compress_s: f64,
    native_decompress_s: f64,
    sim_wall_s: f64,
    sim_analytic_wall_s: f64,
}

/// Median of already-collected timings. Five samples make the median the
/// third-fastest run: robust to a slow outlier *and* to one anomalously
/// fast run, unlike min.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One warm-up (discarded) then `iters` timed runs of `f`; returns the
/// median elapsed seconds and the last return value.
fn timed<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f(); // pinned warm-up
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        out = f();
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(times), out)
}

fn main() {
    let (smoke, scale) = parse_args(USAGE, |args| Ok((args.has("--smoke"), scale_of(args)?)));
    let eb = ErrorBound::RelToRange(1e-3);

    let mut field = dataset("CESM").expect("catalog").generate(scale);
    let (shape, label) = if smoke {
        // A canary grid, large enough to exercise the pool and to keep
        // fixed per-launch costs from flattening the engine-speedup gate,
        // small enough for CI: correctness (byte-identity) is asserted,
        // timing is noise.
        field.data.truncate(1 << 18);
        ((1usize, 256usize, 1024usize), "CESM (smoke slice)")
    } else {
        (shape_of(&field), field.dataset)
    };
    let data = &field.data[..];
    let input_bytes = std::mem::size_of_val(data);
    let iters = if smoke { 1 } else { 5 };

    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut counts = vec![1, 2, 4, host_cores];
    counts.sort_unstable();
    counts.dedup();

    println!("wallclock: {label}, {} values, rel eb 1e-3, host cores {host_cores}", data.len());

    let mut native =
        FzGpu::with_options(A100, FzOptions { path: PipelinePath::Native, ..FzOptions::default() });
    let mut reference: Option<Vec<u8>> = None;
    let mut modeled_kernel_s = 0.0;
    let mut samples = Vec::new();
    for &threads in &counts {
        rayon::set_num_threads(threads);
        let effective_threads = rayon::current_num_threads();

        // Native fast path (the paper's FZ-OMP row): reusable scratch
        // buffers, no modeled timeline. This is the row the ratio gate
        // watches.
        let (native_compress_s, nc) = timed(iters, || native.compress(data, shape, eb));
        let (native_decompress_s, nback) =
            timed(iters, || native.decompress(&nc).expect("native roundtrip"));
        assert_eq!(nback.len(), data.len());
        let stream = nc.bytes;

        // FZ-GPU under simulation: wall time is what the simulator costs
        // on the host (it parallelizes over blocks too); kernel time is
        // the modeled device time and must not vary with threads. One
        // timed run — simulation wall is a cost figure, not a contest.
        let mut sim = FzGpu::new(A100);
        let t0 = Instant::now();
        let g = sim.compress(data, shape, eb);
        let sim_wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(g.bytes, stream, "simulated/native stream divergence at {threads} threads");
        if let Some(reference) = &reference {
            assert_eq!(
                &stream, reference,
                "stream at {threads} threads differs from sequential reference"
            );
        } else {
            reference = Some(stream);
            modeled_kernel_s = sim.kernel_time();
        }
        assert_eq!(sim.kernel_time(), modeled_kernel_s, "modeled time drifted with thread count");

        // The same simulated pipeline on the analytic engine: identical
        // stream bytes and modeled kernel time, a fraction of the host
        // wall (one representative block per counter class; native fills).
        let mut sim_a = FzGpu::with_options(
            A100,
            FzOptions { engine: Engine::Analytic, ..FzOptions::default() },
        );
        let t0 = Instant::now();
        let ga = sim_a.compress(data, shape, eb);
        let sim_analytic_wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            ga.bytes,
            reference.clone().expect("reference set above"),
            "analytic-engine stream divergence at {threads} threads"
        );
        assert_eq!(
            sim_a.kernel_time(),
            modeled_kernel_s,
            "analytic engine drifted the modeled time at {threads} threads"
        );

        samples.push(Sample {
            threads,
            effective_threads,
            native_compress_s,
            native_decompress_s,
            sim_wall_s,
            sim_analytic_wall_s,
        });
    }
    let base = samples[0].native_compress_s;

    // The fast path's reason to exist: it must beat the simulated
    // pipeline's host wall comfortably at every thread count. Gate in
    // smoke mode too — a 5x floor survives CI noise because the two sides
    // differ by orders of magnitude when healthy.
    for s in &samples {
        assert!(
            s.native_compress_s * 5.0 <= s.sim_wall_s,
            "native compress ({:.4}s) is not >=5x faster than simulated wall ({:.4}s) \
             at {} threads",
            s.native_compress_s,
            s.sim_wall_s,
            s.threads,
        );
        // The analytic engine's gate: it exists to make the simulated
        // pipeline's wall track the data, not the interpreter.
        assert!(
            s.sim_analytic_wall_s * 10.0 <= s.sim_wall_s,
            "analytic engine ({:.4}s) is not >=10x faster than interpreted ({:.4}s) \
             at {} threads",
            s.sim_analytic_wall_s,
            s.sim_wall_s,
            s.threads,
        );
        if !smoke {
            // At measurement scale the analytic simulation must land
            // within 3x of the native fast path: exact modeled counters
            // at (near) data speed.
            assert!(
                s.sim_analytic_wall_s <= s.native_compress_s * 3.0,
                "analytic sim wall ({:.4}s) exceeds 3x native wall ({:.4}s) at {} threads",
                s.sim_analytic_wall_s,
                s.native_compress_s,
                s.threads,
            );
        }
    }

    let mut t = Table::new(&[
        "threads",
        "effective",
        "native c s",
        "native d s",
        "native GB/s",
        "speedup",
        "sim wall s",
        "analytic s",
        "modeled s",
    ]);
    for s in &samples {
        t.row(vec![
            s.threads.to_string(),
            s.effective_threads.to_string(),
            format!("{:.4}", s.native_compress_s),
            format!("{:.4}", s.native_decompress_s),
            fmt(input_bytes as f64 / s.native_compress_s / 1e9),
            fmt(base / s.native_compress_s),
            format!("{:.4}", s.sim_wall_s),
            format!("{:.4}", s.sim_analytic_wall_s),
            format!("{:.6}", modeled_kernel_s),
        ]);
    }
    let table = t.render();
    print!("{table}");
    println!("\nstreams byte-identical across all paths and thread counts: yes");
    if host_cores == 1 {
        println!("note: single-core host — speedups are bounded by hardware, not the pool");
    }

    let mut txt = format!(
        "wallclock bench: {label}, {} values ({} MB), rel eb 1e-3\n\
         host cores: {host_cores}{}\n\
         method: 1 pinned warm-up, median of {iters} timed iteration(s)\n\n",
        data.len(),
        input_bytes / (1 << 20),
        if smoke { " [smoke]" } else { "" },
    );
    txt.push_str(&table);
    txt.push_str("\nstreams byte-identical across all paths and thread counts: yes\n");

    let rows = samples.iter().map(|s| {
        let c = s.native_compress_s;
        Obj::spaced()
            .raw("threads", s.threads)
            .raw("effective_threads", s.effective_threads)
            .raw("speedup_vs_1", format!("{:.3}", base / c))
            .raw("native_compress_s", format!("{c:.6}"))
            .raw("native_decompress_s", format!("{:.6}", s.native_decompress_s))
            .raw("native_compress_gbps", format!("{:.4}", input_bytes as f64 / c / 1e9))
            .raw("native_vs_sim_wall", format!("{:.2}", s.sim_wall_s / c))
            .raw("sim_wall_s", format!("{:.6}", s.sim_wall_s))
            .raw("sim_analytic_wall_s", format!("{:.6}", s.sim_analytic_wall_s))
            .raw("analytic_vs_native", format!("{:.2}", s.sim_analytic_wall_s / c))
            .finish()
    });
    let json = Obj::doc()
        .str("bench", "wallclock")
        .str("dataset", label)
        .raw("n_values", data.len())
        .raw("input_bytes", input_bytes)
        .raw("host_cores", host_cores)
        .raw("smoke", smoke)
        .raw("iters", iters)
        .raw("warmup", 1)
        .str("stat", "median")
        .raw("modeled_kernel_s", format!("{modeled_kernel_s:.6}"))
        .raw("identical_streams", true)
        .raw("threads", json::list(Layout::Doc, rows))
        .finish();
    write_exhibit("wallclock", &txt, Some(&json));
}
