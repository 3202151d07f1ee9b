//! The analytic engine's whole contract in one suite: everything the
//! simulator reports — stream bytes, modeled timelines (names, grid/block
//! dims, times, every `KernelStats` counter), decompressed floats, Det
//! metric expositions, and serve replay digests — must be bit-identical
//! between [`Engine::Interpreted`] and [`Engine::Analytic`], at any
//! `FZGPU_THREADS` value.
//!
//! The property runs the full compress + decompress pipeline under both
//! engines at 1, 4, and 3 host threads and compares the artifacts
//! pairwise: one artifact tuple rendered per (engine, threads) combination,
//! all required equal. Timelines are compared through their `Debug`
//! rendering, which spells out every counter and every modeled time
//! bit-for-bit; kernel times additionally compare as raw f64 bits.

use fz_gpu::core::{ErrorBound, FaultPlan, FzGpu, FzOptions};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::Engine;
use proptest::prelude::*;

/// The thread pool and the metrics registry are process-global; runs that
/// sweep them must not interleave.
fn serialized(n: usize) -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_num_threads(n);
    guard
}

fn synth(n: usize, amp: f32, rough: bool) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if rough {
                ((i as u32).wrapping_mul(2654435761) >> 16) as f32 * (amp / 65536.0)
            } else {
                (i as f32 * 0.013).sin() * amp + (i as f32 * 0.0047).cos()
            }
        })
        .collect()
}

/// Everything one pipeline run reports, rendered comparably: stream bytes,
/// compress timeline + kernel-time bits, decompressed float bits,
/// decompress timeline + kernel-time bits, Det metrics exposition.
type Artifact = (Vec<u8>, String, u64, Vec<u32>, String, u64, String);

fn pipeline_artifact(
    engine: Engine,
    data: &[f32],
    shape: (usize, usize, usize),
    fusion: bool,
    eb: f64,
) -> Artifact {
    fz_gpu::trace::metrics::reset();
    let mut fz = FzGpu::with_options(
        A100,
        FzOptions { engine, full_fusion_1d: fusion, ..FzOptions::default() },
    );
    let c = fz.compress(data, shape, ErrorBound::Abs(eb));
    let c_tl = format!("{:?}", fz.gpu().timeline());
    let c_time = fz.kernel_time().to_bits();
    let back = fz.decompress(&c).expect("roundtrip");
    let d_tl = format!("{:?}", fz.gpu().timeline());
    let d_time = fz.kernel_time().to_bits();
    let metrics = fz_gpu::trace::metrics::to_json(false);
    let bits = back.iter().map(|v| v.to_bits()).collect();
    (c.bytes, c_tl, c_time, bits, d_tl, d_time, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: for any shape, data roughness, bound, and
    /// fusion setting, both engines at every thread count agree on every
    /// artifact bit.
    #[test]
    fn engines_agree_bit_for_bit_at_any_thread_count(
        kind in 0usize..5,
        dz in 2usize..6,
        dy in 2usize..40,
        dx in 2usize..90,
        n1 in 64usize..40_000,
        long_axis in 2usize..1000,
        amp in 0.1f32..50.0,
        rough in any::<bool>(),
        fusion in any::<bool>(),
        eb_exp in 2u32..4,
    ) {
        // Spans all three pipeline ranks, with ragged tails. Long rows
        // (n1 past ~10k values), long narrow columns and deep narrow
        // stacks cross the segment splits of the x, y and z walks.
        let shape = match kind {
            0 => (1, 1, n1),
            1 => (1, dy, dx),
            2 => (1, long_axis, dx.min(64)),
            3 => (dz, dy.min(24), dx.min(48)),
            _ => (long_axis.min(300), dy.min(6), dx.min(40)),
        };
        let (nz, ny, nx) = shape;
        let data = synth(nz * ny * nx, amp, rough);
        let eb = 10f64.powi(-(eb_exp as i32));
        let mut first: Option<(Artifact, Engine, usize)> = None;
        for threads in [1usize, 4, 3] {
            for engine in [Engine::Interpreted, Engine::Analytic] {
                let guard = serialized(threads);
                let art = pipeline_artifact(engine, &data, shape, fusion, eb);
                rayon::set_num_threads(1);
                drop(guard);
                match &first {
                    None => first = Some((art, engine, threads)),
                    Some((base, e0, t0)) => {
                        prop_assert_eq!(
                            base, &art,
                            "artifact diverges: {:?}@{} vs {:?}@{} (shape {:?})",
                            e0, t0, engine, threads, shape
                        );
                    }
                }
            }
        }
    }
}

/// Serve replays digest identically under both engines at every thread
/// count, and the deterministic JSON reports differ only in the config's
/// engine label.
#[test]
fn serve_replay_digests_are_engine_invariant() {
    use fz_gpu::core::ErrorBound;
    use fz_gpu::serve::{FieldKind, Op, Request, ServeConfig, Service, Workload};

    let requests: Vec<Request> = (0..6)
        .map(|i| Request {
            arrival: i as f64 * 2e-6,
            op: if i % 3 == 2 { Op::Decompress } else { Op::Compress },
            n: 2048 + 1024 * (i % 2),
            eb: ErrorBound::Abs(1e-3),
            field: if i % 2 == 0 { FieldKind::Sine } else { FieldKind::Ramp },
            seed: i as u64,
            priority: 0,
        })
        .collect();
    let w = Workload { name: "engine-eq".into(), device: A100, requests };

    let mut first: Option<(u32, String)> = None;
    for threads in [1usize, 4, 3] {
        for engine in [Engine::Interpreted, Engine::Analytic] {
            let guard = serialized(threads);
            let rep = Service::new(ServeConfig { engine, ..ServeConfig::default() }).run(&w);
            // Normalize the one intentional difference: the config echo.
            let doc =
                rep.to_json(false).replace("\"engine\":\"interpreted\"", "\"engine\":\"analytic\"");
            let got = (rep.digest(), doc);
            rayon::set_num_threads(1);
            drop(guard);
            match &first {
                None => first = Some(got),
                Some(base) => {
                    assert_eq!(base, &got, "replay diverges: {engine:?} at {threads} threads");
                }
            }
        }
    }
}

/// A non-disabled fault plan forces the interpreted engine per launch, so
/// an analytic-configured compressor under fault injection reproduces the
/// interpreted run's faulted stream (and retry timeline) exactly.
#[test]
fn fault_plans_force_the_interpreted_engine() {
    let _guard = serialized(1);
    let data = synth(6000, 3.0, false);
    let run = |engine: Engine| {
        let mut fz = FzGpu::with_options(A100, FzOptions { engine, ..FzOptions::default() });
        fz.enable_faults(FaultPlan::seeded(7).launch_faults(0.4, 3).global_bit_flips(2e-6));
        let c = fz.compress(&data, (1, 1, 6000), ErrorBound::Abs(1e-3));
        (c.bytes, format!("{:?}", fz.gpu().timeline()), fz.total_retries())
    };
    let interp = run(Engine::Interpreted);
    let analytic = run(Engine::Analytic);
    assert_eq!(interp, analytic, "injection must see every block on either engine");
    assert!(interp.2 > 0, "the plan must actually have injected launch faults");
}
