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
    // The 1-D field spans 13 tiles, each seeding its first code's west
    // neighbour from the tile before it.
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

#[test]
fn native_tile_encode_is_thread_count_invariant() {
    // Native compress encodes groups of tiles on the pool, one group a
    // task: 65-110 tiles make three or four 32-tile groups, which fan out.
    // The fields cover empty tiles between dense ones, rows straddling
    // tiles and planes straddling groups.
    const TILE: usize = 2048;
    let wave = |i: usize| (i as f32 * 0.013).sin() * 40.0;
    let sparse: Vec<f32> =
        (0..110 * TILE - 7).map(|i| if i / TILE % 3 == 1 { wave(i) } else { 0.0 }).collect();
    let line: Vec<f32> = (0..65 * TILE + 1).map(wave).collect();
    let rows: Vec<f32> = (0..90 * 1500).map(wave).collect();
    let planes: Vec<f32> = (0..60 * 50 * 50).map(wave).collect();
    for (data, shape) in [
        (sparse, (1, 1, 110 * TILE - 7)),
        (line, (1, 1, 65 * TILE + 1)),
        (rows, (1, 90, 1500)),
        (planes, (60, 50, 50)),
    ] {
        let eb = ErrorBound::RelToRange(1e-3);
        let bytes = invariant(|| {
            let opts = FzOptions { path: PipelinePath::Native, ..FzOptions::default() };
            FzGpu::with_options(A100, opts).compress(&data, shape, eb).bytes
        });
        assert_eq!(bytes, reference::compress(&data, shape, eb).bytes, "shape {shape:?}");
    }
}

#[test]
fn one_pass_resolve_matches_the_sequential_folds() {
    // The range-relative bound before the one-pass lane-wise range: two
    // sequential folds, NaN skipped by `f32::min`/`f32::max`.
    let folds = |data: &[f32]| {
        let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        ErrorBound::RelToRange(1e-3).to_abs((hi - lo) as f64)
    };
    let wave = |i: usize| (i as f32 * 0.37).sin() * 90.0 + (i % 7) as f32;
    let mut fields: Vec<Vec<f32>> = vec![
        vec![],
        vec![2.5],
        vec![f32::NAN; 1000],
        vec![-0.0, 0.0, -0.0],
        vec![0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        vec![-0.0, 3.0, f32::NAN, -0.0],
        vec![-4.0, 0.0, -0.0, f32::NAN],
    ];
    // NaN-laced fields on both sides of a pool chunk (65536 values) and
    // of the 8-value lanes, with the extremes in every lane position.
    for n in [7usize, 8, 9, 1001, 65535, 65536, 65537, 3 * 65536 + 13] {
        let mut f: Vec<f32> = (0..n).map(wave).collect();
        for i in (0..n).step_by(11) {
            f[i] = f32::NAN;
        }
        f[n / 2] = -500.0 - n as f32;
        f[n - 1] = 1e4;
        fields.push(f);
    }
    for data in &fields {
        let want = folds(data);
        let got =
            invariant(|| ErrorBound::RelToRange(1e-3).try_resolve(data).map_err(f64::to_bits));
        match got {
            Ok(eb) => assert_eq!(eb.to_bits(), want.to_bits(), "n {}", data.len()),
            Err(bits) => assert_eq!(bits, want.to_bits(), "n {}", data.len()),
        }
    }
}

#[test]
fn native_tile_decode_is_thread_count_invariant() {
    // The native decoder splits tiles over the pool by tile index (a
    // region fans out from 64 tiles up). The fields cover a part tile,
    // rows straddling tiles, and runs of empty tiles between dense ones,
    // so tile payload offsets differ per tile.
    const TILE: usize = 2048;
    let wave = |i: usize| (i as f32 * 0.013).sin() * 40.0;
    let sparse: Vec<f32> =
        (0..70 * TILE + 3).map(|i| if i / TILE % 3 == 1 { wave(i) } else { 0.0 }).collect();
    let line: Vec<f32> = (0..65 * TILE + 1).map(wave).collect();
    let planes: Vec<f32> = (0..3 * 50 * 1500).map(wave).collect();
    for (data, shape) in
        [(sparse, (1, 1, 70 * TILE + 3)), (line, (1, 1, 65 * TILE + 1)), (planes, (3, 50, 1500))]
    {
        let stream = reference::compress(&data, shape, ErrorBound::Abs(1e-3)).bytes;
        let bits = invariant(|| {
            let opts = FzOptions { path: PipelinePath::Native, ..FzOptions::default() };
            let back = FzGpu::with_options(A100, opts).decompress_bytes(&stream).unwrap();
            back.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        });
        let oracle = reference::decompress(&stream).unwrap();
        assert!(bits.iter().zip(&oracle).all(|(&b, o)| b == o.to_bits()), "shape {shape:?}");
    }
}
