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

/// `v` moved by `k`, cyclically, within `start + 1..=start + block`, where
/// `start = (v - 1) / block * block`: a launch sized by `v.div_ceil(block)`
/// keeps its grid, and its tail moves.
fn within(v: usize, block: usize, k: usize) -> usize {
    let start = (v - 1) / block * block;
    start + 1 + (v - 1 - start + k) % block
}

/// One round trip on `fz`: stream bytes, compress timeline + kernel-time
/// bits, decoded bits, decompress timeline + kernel-time bits.
type RoundTrip = (Vec<u8>, String, u64, Vec<u32>, String, u64);

fn round_trip(fz: &mut FzGpu, data: &[f32], shape: (usize, usize, usize), eb: f64) -> RoundTrip {
    let c = fz.compress(data, shape, ErrorBound::Abs(eb));
    let c_tl = format!("{:?}", fz.gpu().timeline());
    let c_time = fz.kernel_time().to_bits();
    let back = fz.decompress(&c).expect("roundtrip");
    let d_tl = format!("{:?}", fz.gpu().timeline());
    let bits = back.iter().map(|v| v.to_bits()).collect();
    (c.bytes, c_tl, c_time, bits, d_tl, fz.kernel_time().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The analytic device keeps each block class's counters for its
    /// lifetime, as a serve replay's one `FzGpu` does across jobs. Here one
    /// analytic `FzGpu` runs 4-6 fields whose launches share kernel, grid,
    /// block and class key but not their shape, and each round trip must
    /// equal a fresh interpreted device's.
    #[test]
    fn a_warm_analytic_device_matches_fresh_interpreted_runs(
        kind in 0usize..5,
        base in (1usize..40_000, 2usize..1000, 2usize..90, 2usize..6),
        steps in proptest::collection::vec(
            (0usize..1024, 2u32..4, 0.1f32..50.0, any::<bool>()),
            4..=6,
        ),
        fusion in any::<bool>(),
        threads in 1usize..=4,
    ) {
        let (n1, long_axis, dx, dz) = base;
        let guard = serialized(threads);
        let opts = FzOptions { engine: Engine::Analytic, full_fusion_1d: fusion, ..FzOptions::default() };
        let mut warm = FzGpu::with_options(A100, opts);
        let mut failure = None;
        for (i, &(k, eb_exp, amp, rough)) in steps.iter().enumerate() {
            // Every third field repeats the first one's shape.
            let k = if i % 3 == 0 { 0 } else { k };
            let shape = match kind {
                // 1-D lengths in one 1024-value span: the quant, flag and
                // scan grids hold (scans are one tile below 8193 values)
                // and so does the row walk's split grid; the tails move.
                0 => (1, 1, within(n1, 1024, k)),
                // 2-D and 3-D shapes with equal tile counts, other rows.
                1 => (1, within(long_axis % 200 + 2, 32, k / 32), within(dx, 32, k)),
                2 => (dz, within(long_axis % 24 + 2, 32, k / 32), within(dx.min(48), 32, k)),
                // Long narrow columns and deep narrow stacks: the y and z
                // walks' segment plans.
                3 => (1, within(long_axis, 32, k), dx.min(64)),
                _ => (within(long_axis.min(300), 32, k), dz, dx.min(40)),
            };
            let (nz, ny, nx) = shape;
            let data = synth(nz * ny * nx, amp, rough);
            let eb = 10f64.powi(-(eb_exp as i32));
            let cold_opts = FzOptions { engine: Engine::Interpreted, ..opts };
            let cold = round_trip(&mut FzGpu::with_options(A100, cold_opts), &data, shape, eb);
            if round_trip(&mut warm, &data, shape, eb) != cold {
                failure = Some((i, shape));
                break;
            }
        }
        rayon::set_num_threads(1);
        drop(guard);
        prop_assert!(failure.is_none(), "warm round trip diverges at (field, shape) {:?}", failure);
    }
}

/// Direct stage calls on one warm analytic device match fresh interpreted
/// runs: every `ShuffleVariant` of `bitshuffle_mark` and
/// `scan::exclusive_sum`, over inputs that share their launches' grids.
#[test]
fn warm_stage_calls_match_fresh_interpreted_runs() {
    use fz_gpu::core::gpu::bitshuffle::bitshuffle_mark;
    use fz_gpu::core::pack::TILE_WORDS;
    use fz_gpu::core::ShuffleVariant;
    use fz_gpu::sim::scan::exclusive_sum;
    use fz_gpu::sim::{Gpu, GpuBuffer};

    let _guard = serialized(1);
    let mut warm = Gpu::new(A100);
    warm.set_engine(Engine::Analytic);
    let words = |tiles: usize, seed: u32| -> Vec<u32> {
        (0..(tiles * TILE_WORDS) as u32)
            .map(|i| {
                if (i ^ seed).is_multiple_of(5) {
                    i.wrapping_mul(2654435761) >> (seed % 16)
                } else {
                    0
                }
            })
            .collect()
    };
    for (tiles, seed) in [(3, 1), (3, 2), (5, 3), (3, 4)] {
        let input = words(tiles, seed);
        for variant in
            [ShuffleVariant::Fused, ShuffleVariant::Unfused, ShuffleVariant::FusedUnpadded]
        {
            let run = |gpu: &mut Gpu| {
                gpu.reset_timeline();
                let (sh, bytes, bits) =
                    bitshuffle_mark(gpu, &GpuBuffer::from_host(&input), variant);
                (sh.to_vec(), bytes.to_vec(), bits.to_vec(), format!("{:?}", gpu.timeline()))
            };
            let fresh = run(&mut Gpu::new(A100));
            assert_eq!(run(&mut warm), fresh, "{variant:?} over {tiles} tiles, seed {seed}");
        }
    }
    // One-tile scans of different tails, then multi-tile scans whose tile
    // grids agree and whose last tiles do not.
    for n in [1000usize, 900, 1000, 1, 5000, 4500, 5000, 4097] {
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2246822519) % 13).collect();
        let run = |gpu: &mut Gpu| {
            gpu.reset_timeline();
            let mut out = gpu.alloc::<u32>(n);
            let total = exclusive_sum(gpu, &GpuBuffer::from_host(&input), &mut out, n);
            (total, out.to_vec(), format!("{:?}", gpu.timeline()))
        };
        let fresh = run(&mut Gpu::new(A100));
        assert_eq!(run(&mut warm), fresh, "exclusive_sum of {n} values");
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
