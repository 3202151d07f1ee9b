//! Pool-vs-no-pool equivalence and pool accounting invariants, driven
//! through the full compression pipeline.
//!
//! The device memory pool is a timing-layer optimization: recycling
//! buffers must never change a single output byte, and after a pipeline
//! run every buffer the pipeline acquired must be back in the free lists
//! (live bytes zero — anything else is a leak that would grow a real
//! server without bound). Equivalence and steady state are checked on both
//! simulation engines: the analytic engine's fills write straight into
//! the buffers the pool recycles.

use fz_gpu::core::{ErrorBound, FzGpu, FzOptions, PipelinePath};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::{Engine, MemPool};
use proptest::prelude::*;

const ENGINES: [Engine; 2] = [Engine::Interpreted, Engine::Analytic];

/// Compress and decompress `data` on the simulated pipeline under
/// `engine`, drawing device buffers from `pool` when one is given.
fn roundtrip_bytes(data: &[f32], pool: Option<MemPool>, engine: Engine) -> (Vec<u8>, Vec<f32>) {
    let opts = FzOptions { path: PipelinePath::Simulated, engine, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(A100, opts);
    if let Some(p) = pool {
        fz.attach_pool(p);
    }
    let c = fz.compress(data, (1, 1, data.len()), ErrorBound::Abs(1e-3));
    let back = fz.decompress(&c).expect("roundtrip");
    (c.bytes, back)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pooled and non-pooled runs produce bit-identical streams and
    /// reconstructions on each engine, including when the pool is warm
    /// from previous (differently-shaped) jobs.
    #[test]
    fn pooled_streams_are_bit_identical(
        n in 256usize..20_000,
        amp in 0.1f32..100.0,
        warm in 64usize..4096,
    ) {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.013).sin() * amp).collect();
        let warm_data: Vec<f32> = (0..warm).map(|i| i as f32 * 0.5).collect();
        for engine in ENGINES {
            let (plain_bytes, plain_out) = roundtrip_bytes(&data, None, engine);

            // Warm the pool with a different job so recycled (and
            // re-zeroed) buffers, not fresh ones, serve the measured run.
            let pool = MemPool::new();
            let _ = roundtrip_bytes(&warm_data, Some(pool.clone()), engine);

            let (pooled_bytes, pooled_out) = roundtrip_bytes(&data, Some(pool.clone()), engine);
            prop_assert_eq!(plain_bytes, pooled_bytes, "stream bytes diverged under pooling on {:?}", engine);
            let plain_bits: Vec<u32> = plain_out.iter().map(|v| v.to_bits()).collect();
            let pooled_bits: Vec<u32> = pooled_out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(plain_bits, pooled_bits, "reconstruction diverged under pooling on {:?}", engine);
        }
    }

    /// Accounting invariants after a full pipeline run: nothing stays
    /// live (zero leaks), the high-water mark bounds what is parked, and
    /// `drain` empties exactly the parked bytes.
    #[test]
    fn pool_invariants_hold_after_pipeline(n in 256usize..20_000) {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.007).cos() * 3.0).collect();
        let pool = MemPool::new();
        // Two runs: the second is served mostly from recycled buffers.
        let _ = roundtrip_bytes(&data, Some(pool.clone()), Engine::from_env());
        let _ = roundtrip_bytes(&data, Some(pool.clone()), Engine::from_env());

        let stats = pool.stats();
        prop_assert_eq!(stats.live_bytes, 0, "pipeline leaked device buffers");
        // Everything is released, so the parked bytes are the sum of every
        // distinct buffer the pipeline ever allocated — the peak of
        // *simultaneously* live bytes cannot exceed that.
        prop_assert!(stats.high_water_bytes <= stats.free_bytes,
            "high water {} exceeds total allocated {}", stats.high_water_bytes, stats.free_bytes);
        prop_assert!(stats.hits > 0, "second run must recycle buffers");
        prop_assert!(stats.high_water_bytes >= (n * 4) as u64,
            "high water must cover at least the input buffer");

        let drained = pool.drain();
        prop_assert_eq!(drained, stats.free_bytes, "drain must release exactly the parked bytes");
        let after = pool.stats();
        prop_assert_eq!(after.free_bytes, 0);
        prop_assert_eq!(after.live_bytes, 0);
    }
}

/// Deterministic (non-proptest) leak check on the exact service shapes —
/// the guard the serving layer relies on for unbounded uptime.
#[test]
fn repeated_jobs_reach_steady_state() {
    let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
    for engine in ENGINES {
        let pool = MemPool::new();
        let first = roundtrip_bytes(&data, Some(pool.clone()), engine);
        let parked_after_one = pool.stats().free_bytes;
        for _ in 0..5 {
            let again = roundtrip_bytes(&data, Some(pool.clone()), engine);
            assert_eq!(again.0, first.0, "a recycled-buffer job changed the stream on {engine:?}");
        }
        let stats = pool.stats();
        assert_eq!(stats.live_bytes, 0, "steady-state jobs must not leak on {engine:?}");
        assert_eq!(
            stats.free_bytes, parked_after_one,
            "identical jobs must not grow the pool past the first run's footprint on {engine:?}"
        );
    }
}
