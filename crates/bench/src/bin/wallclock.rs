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
//! Methodology: each native measurement pins one warm-up iteration
//! (populating scratch buffers and the page cache) and then reports the
//! **median of five** timed iterations — the median is stable against
//! scheduler noise in both directions, where best-of-N hides one-sided
//! jitter. Each simulated row is the **median of five cold runs**: a fresh
//! compressor per run, so one slow run on a shared host cannot decide a
//! gate.
//!
//! Outputs `results/wallclock.txt` (human table) and `BENCH_wallclock.json`
//! (machine-readable, seeds the perf trajectory) at the repo root.
//!
//! The simulated pipeline is measured under both engines: the interpreted
//! engine (every block through the warp interpreter — the model of record)
//! and the analytic engine (one representative block per counter class,
//! native output fills — bit-identical timelines and streams). The gap
//! between those two rows is the engine's whole point, so the bench gates
//! it twice. Counted: the analytic engine must run at most a tenth of the
//! thread blocks the interpreted engine runs through the warp interpreter
//! (`Gpu::interpreted_blocks`, deterministic). Timed: analytic must be at
//! least 10x faster than interpreted in every mode, and at the default
//! (reduced) scale analytic simulation must land within 3x of the native
//! fast path's wall — modeled counters at data speed. A third simulated
//! column times the analytic engine warm: the median of compresses on one
//! compressor after one warm-up call, whose device has every block class
//! of the field in its memo. Its count is gated too: a warm compress
//! interprets no block. The
//! bench prints its table and one line per gate with both of the gate's
//! inputs before it asserts any gate, and writes its exhibit only when
//! every gate passes.
//!
//! `--smoke`: one tiny field, one timed iteration or cold run — a CI deadlock and
//! consistency canary, not a measurement. Even in smoke mode the bench
//! asserts the native path beats the simulated path's wall time by >= 5x:
//! the fast path exists to be fast, and that floor holds on any host
//! because both sides do the same pipeline work per value.
//! `--scale full` measures paper-size fields.

use std::time::Instant;

use fzgpu_bench::{fmt, parse_args, scale_of, shape_of, write_exhibit, Table};
use fzgpu_core::fastpath::PipelinePath;
use fzgpu_core::lorenzo::Shape;
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
    sim_warm_analytic_wall_s: f64,
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

/// `iters` compressions on the simulated pipeline under `engine`: cold, a
/// fresh compressor each run, or warm, every run on one compressor after
/// one untimed warm-up call. Every run must emit `stream` and model the
/// same kernel time as every earlier run (`modeled`, set by the first);
/// returns the median elapsed seconds and the thread blocks one compress
/// ran through the warp interpreter (the same on every run).
fn simulated(
    iters: usize,
    engine: Engine,
    warm: bool,
    (data, shape, eb): (&[f32], Shape, ErrorBound),
    stream: &[u8],
    modeled: &mut Option<f64>,
    threads: usize,
) -> (f64, u64) {
    let opts = FzOptions { path: PipelinePath::Simulated, engine, ..FzOptions::default() };
    let mut sim = FzGpu::with_options(A100, opts);
    if warm {
        sim.compress(data, shape, eb);
    }
    let mut blocks = None;
    let times = (0..iters)
        .map(|_| {
            if !warm {
                sim = FzGpu::with_options(A100, opts);
            }
            let before = sim.gpu().interpreted_blocks();
            let t0 = Instant::now();
            let c = sim.compress(data, shape, eb);
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(c.bytes, stream, "{engine:?} stream divergence at {threads} threads");
            let kernel_s = sim.kernel_time();
            let expected = *modeled.get_or_insert(kernel_s);
            assert_eq!(kernel_s, expected, "{engine:?} modeled time drifted at {threads} threads");
            let run_blocks = sim.gpu().interpreted_blocks() - before;
            assert_eq!(*blocks.get_or_insert(run_blocks), run_blocks, "{engine:?} block count");
            wall
        })
        .collect();
    (median(times), blocks.expect("at least one run"))
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
    let mut modeled = None;
    let mut blocks = None;
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
        let reference = reference.get_or_insert_with(|| stream.clone());
        assert_eq!(
            &stream, reference,
            "stream at {threads} threads differs from sequential reference"
        );

        // FZ-GPU under simulation: wall time is what the simulator costs
        // on the host (it parallelizes over blocks too); kernel time is
        // the modeled device time and must not vary with threads. The
        // analytic engine must reproduce the interpreted engine's stream
        // and modeled time at a fraction of its host wall (one
        // representative block per counter class; native fills), and
        // warm, with every class in its device's memo, run no block.
        let input = (data, shape, eb);
        let mut run =
            |engine, warm| simulated(iters, engine, warm, input, &stream, &mut modeled, threads);
        let (sim_wall_s, interp) = run(Engine::Interpreted, false);
        let (sim_analytic_wall_s, analytic) = run(Engine::Analytic, false);
        let (sim_warm_analytic_wall_s, warm) = run(Engine::Analytic, true);
        let counted = *blocks.get_or_insert((interp, analytic, warm));
        assert_eq!(counted, (interp, analytic, warm), "interpreted blocks vary with threads");

        samples.push(Sample {
            threads,
            effective_threads,
            native_compress_s,
            native_decompress_s,
            sim_wall_s,
            sim_analytic_wall_s,
            sim_warm_analytic_wall_s,
        });
    }
    let base = samples[0].native_compress_s;
    let modeled_kernel_s = modeled.expect("at least one simulated run");
    let (interp_blocks, analytic_blocks, warm_blocks) = blocks.expect("at least one simulated run");

    let mut t = Table::new(&[
        "threads",
        "effective",
        "native c s",
        "native d s",
        "native GB/s",
        "speedup",
        "sim wall s",
        "analytic s",
        "warm s",
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
            format!("{:.4}", s.sim_warm_analytic_wall_s),
            format!("{:.6}", modeled_kernel_s),
        ]);
    }
    let table = t.render();
    print!("{table}");
    let blocks_line = format!(
        "thread blocks interpreted per compress: interpreted engine {interp_blocks}, \
         analytic engine {analytic_blocks} cold, {warm_blocks} warm (same at every thread count)"
    );
    println!("\nstreams byte-identical across all paths and thread counts: yes\n{blocks_line}");
    if host_cores == 1 {
        println!("note: single-core host — speedups are bounded by hardware, not the pool");
    }

    // Every gate with both of its inputs, printed before any is judged so
    // that a failing run still reports what it measured.
    let mut gates: Vec<(bool, String)> = Vec::new();
    // The analytic engine's speed, counted rather than timed: it must skip
    // at least 9 in 10 of the blocks the interpreter runs. Unlike the
    // timed 10x gate below, no host load can move this one.
    gates.push((
        analytic_blocks * 10 <= interp_blocks,
        format!(
            "analytic engine interprets ({analytic_blocks} blocks) <= 1/10 of the \
             interpreted engine's blocks ({interp_blocks})"
        ),
    ));
    // Warm, the device has run every block class of the field before, so
    // its memo holds every class's counters.
    gates.push((
        warm_blocks == 0,
        format!("warm analytic compress interprets ({warm_blocks} blocks) none"),
    ));
    for s in &samples {
        // The fast path's reason to exist: it must beat the simulated
        // pipeline's host wall comfortably at every thread count. Gate in
        // smoke mode too — a 5x floor survives CI noise because the two
        // sides differ by orders of magnitude when healthy.
        gates.push((
            s.native_compress_s * 5.0 <= s.sim_wall_s,
            format!(
                "native compress ({:.4}s) >= 5x faster than simulated wall ({:.4}s) at {} threads",
                s.native_compress_s, s.sim_wall_s, s.threads
            ),
        ));
        // The analytic engine's gate: it exists to make the simulated
        // pipeline's wall track the data, not the interpreter.
        gates.push((
            s.sim_analytic_wall_s * 10.0 <= s.sim_wall_s,
            format!(
                "analytic engine ({:.4}s) >= 10x faster than interpreted ({:.4}s) at {} threads",
                s.sim_analytic_wall_s, s.sim_wall_s, s.threads
            ),
        ));
        if !smoke {
            // At measurement scale the analytic simulation must land
            // within 3x of the native fast path: exact modeled counters
            // at (near) data speed.
            gates.push((
                s.sim_analytic_wall_s <= s.native_compress_s * 3.0,
                format!(
                    "analytic sim wall ({:.4}s) within 3x native wall ({:.4}s) at {} threads",
                    s.sim_analytic_wall_s, s.native_compress_s, s.threads
                ),
            ));
        }
    }
    let gate_lines: String = gates
        .iter()
        .map(|(pass, line)| format!("gate {}: {line}\n", if *pass { "ok" } else { "FAILED" }))
        .collect();
    print!("\n{gate_lines}");
    let failed: Vec<&str> = gates.iter().filter(|g| !g.0).map(|g| g.1.as_str()).collect();
    assert!(failed.is_empty(), "wallclock gate failed: {}", failed.join("; "));

    let mut txt = format!(
        "wallclock bench: {label}, {} values ({} MB), rel eb 1e-3\n\
         host cores: {host_cores}{}\n\
         method: native: 1 pinned warm-up, median of {iters} timed iteration(s); \
         simulated: median of {iters} cold run(s), a fresh compressor each; \
         warm: 1 warm-up, median of {iters} run(s) on one analytic compressor\n\n",
        data.len(),
        input_bytes / (1 << 20),
        if smoke { " [smoke]" } else { "" },
    );
    txt.push_str(&table);
    txt.push_str("\nstreams byte-identical across all paths and thread counts: yes\n");
    txt.push_str(&format!("{blocks_line}\n\n"));
    txt.push_str(&gate_lines);

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
            .raw("sim_warm_analytic_wall_s", format!("{:.6}", s.sim_warm_analytic_wall_s))
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
        .str("sim_runs", "cold")
        .raw("modeled_kernel_s", format!("{modeled_kernel_s:.6}"))
        .raw("interpreted_blocks", interp_blocks)
        .raw("analytic_interpreted_blocks", analytic_blocks)
        .raw("warm_analytic_interpreted_blocks", warm_blocks)
        .raw("identical_streams", true)
        .raw("threads", json::list(Layout::Doc, rows))
        .finish();
    write_exhibit("wallclock", &txt, Some(&json));
}
