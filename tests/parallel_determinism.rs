//! Schedule-independence: the host thread pool must never show through.
//!
//! The rayon shim's determinism contract (chunk grids from item counts,
//! merges in chunk/block order) promises bit-identical results at any
//! `FZGPU_THREADS` value. This suite holds the whole stack to it: every
//! test computes its artifact at 1 thread and again at 4 (and a non-power
//! of two) via `rayon::set_num_threads` and asserts bitwise equality —
//! compressed streams, modeled timelines, kernel counters, float metrics,
//! and seeded fault-campaign outcomes.

use fz_gpu::core::{reference, ErrorBound, FaultPlan, FzGpu, FzOptions, PipelinePath};
use fz_gpu::metrics::{mae, max_abs_error, mse, pearson, psnr};
use fz_gpu::sim::device::A100;
use fz_gpu::store::{CodecConfig, Registry};

/// The pool is process-global; tests that sweep it must not interleave.
fn serialized(n: usize) -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(n);
    guard
}

/// Run `f` under each thread count and assert all results are equal.
fn invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let mut out = None;
    for n in [1usize, 4, 3] {
        let guard = serialized(n);
        let v = f();
        rayon::set_num_threads(1);
        drop(guard);
        match &out {
            None => out = Some(v),
            Some(first) => assert_eq!(first, &v, "result differs at {n} threads"),
        }
    }
    out.unwrap()
}

fn field() -> Vec<f32> {
    (0..12 * 40 * 50)
        .map(|i| {
            let z = i / (40 * 50);
            let y = i / 50 % 40;
            let x = i % 50;
            (x as f32 * 0.11).sin() * 2.5 + (y as f32 * 0.07).cos() + (z as f32 * 0.23).sin()
        })
        .collect()
}

const SHAPE: (usize, usize, usize) = (12, 40, 50);

#[test]
fn native_stream_is_thread_count_invariant() {
    // The 1-D field spans four 8192-value chunks of the native Lorenzo
    // pass, each seeding its west neighbour from the chunk before it.
    let line: Vec<f32> = (0..3 * 8192 + 5).map(|i| (i as f32 * 0.013).sin() * 40.0).collect();
    for (data, shape) in [(field(), SHAPE), (line.clone(), (1, 1, line.len()))] {
        let eb = ErrorBound::RelToRange(1e-3);
        let (bytes, _) = invariant(|| {
            let opts = FzOptions { path: PipelinePath::Native, ..FzOptions::default() };
            let mut fz = FzGpu::with_options(A100, opts);
            let c = fz.compress(&data, shape, eb);
            let back: Vec<u32> = fz.decompress(&c).unwrap().iter().map(|v| v.to_bits()).collect();
            (c.bytes, back)
        });
        assert_eq!(bytes, reference::compress(&data, shape, eb).bytes, "shape {shape:?}");
    }
}

#[test]
fn gpu_stream_timeline_and_counters_are_thread_count_invariant() {
    let data = field();
    let bytes = invariant(|| {
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        // The Debug rendering covers every kernel name, modeled time,
        // counter, and breakdown bit-for-bit.
        let timeline = format!("{:?}", fz.gpu().timeline());
        (c.bytes, fz.kernel_time().to_bits(), timeline)
    });
    assert!(!bytes.0.is_empty());
}

#[test]
fn roundtrip_metrics_are_thread_count_invariant() {
    let data = field();
    let metrics = invariant(|| {
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        let back = fz.decompress(&c).unwrap();
        [
            psnr(&data, &back).to_bits(),
            mse(&data, &back).to_bits(),
            mae(&data, &back).to_bits(),
            max_abs_error(&data, &back).to_bits(),
            pearson(&data, &back).unwrap().to_bits(),
        ]
    });
    assert!(f64::from_bits(metrics[0]) > 40.0, "sanity: psnr");
}

#[test]
fn fault_campaign_outcome_is_thread_count_invariant() {
    // Seeded injector: launch faults draw from a per-launch stream and
    // bit flips corrupt uploads; retries, tallies, and the (fault-free)
    // output stream must not depend on worker interleaving.
    let data = field();
    invariant(|| {
        let mut fz = FzGpu::new(A100);
        fz.enable_faults(FaultPlan::seeded(41).launch_faults(0.4, 2).global_bit_flips(1e-6));
        let c = fz.compress(&data, SHAPE, ErrorBound::Abs(1e-3));
        let retries = fz.total_retries();
        let inj = fz.gpu_mut().disable_faults().unwrap();
        let timeline = format!("{:?}", fz.gpu().timeline());
        (c.bytes, retries, inj.launch_faults(), inj.bits_flipped(), timeline)
    });
}

#[test]
fn sz_omp_baseline_is_thread_count_invariant() {
    // Covers the remaining hot shim paths: filter+enumerate compaction,
    // fold/reduce histogram, and parallel Huffman chunk encoding.
    let data = field();
    let cfg = CodecConfig::SzOmp { eb_abs: ErrorBound::RelToRange(1e-3).resolve(&data) };
    invariant(|| {
        let mut codec = Registry::builtin().build(&cfg, A100).unwrap();
        let bytes = codec.encode(&data, SHAPE).expect("3D field supported");
        let reconstructed = codec.decode(&bytes, SHAPE).unwrap();
        (bytes, reconstructed)
    });
}
