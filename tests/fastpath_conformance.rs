//! Differential conformance gate for the native fast path.
//!
//! [`fzgpu_core::fastpath`] reimplements the whole pipeline as straight
//! word-level Rust; its contract is *byte identity*: for every input, the
//! native path must emit exactly the stream the kernel-simulated path
//! (the model of record) emits, and decode to bit-identical floats. This
//! suite drives both paths and the scalar oracle
//! (`fzgpu_core::reference`) over proptest-generated fields (hostile
//! distributions included: NaN, infinities, denormals, constants, all
//! zeros), every catalog dataset, and the archive degraded-decode path,
//! comparing streams and outputs byte for byte.
//!
//! CI runs this file at `PROPTEST_CASES=512` under `FZGPU_THREADS=1` and
//! `=4`; byte identity across thread counts rides on the same asserts.

use fz_gpu::core::format;
use fz_gpu::core::{reference, Archive, ErrorBound, FillPolicy, FzGpu, FzOptions, PipelinePath};
use fz_gpu::data::{log_transform, synth, Dims};
use fz_gpu::sim::device::A100;
use proptest::prelude::*;

fn with_path(path: PipelinePath) -> FzGpu {
    FzGpu::with_options(A100, FzOptions { path, ..FzOptions::default() })
}

/// The whole conformance contract for one input, asserted in one place:
/// simulated, native, and oracle streams are byte-identical, the stream
/// passes checksum verification, and both device paths decode it to
/// bit-identical floats.
fn assert_conformant(data: &[f32], shape: (usize, usize, usize), eb: ErrorBound) {
    let ctx = format!("shape {shape:?}, eb {eb:?}, n {}", data.len());

    let mut sim = with_path(PipelinePath::Simulated);
    let mut nat = with_path(PipelinePath::Native);
    let c_sim = sim.compress(data, shape, eb);
    let c_nat = nat.compress(data, shape, eb);
    let c_ref = reference::compress(data, shape, eb);
    assert_eq!(c_nat.bytes, c_sim.bytes, "native vs simulated stream [{ctx}]");
    assert_eq!(c_ref.bytes, c_sim.bytes, "oracle vs simulated stream [{ctx}]");

    // The shared stream must self-verify (header + payload CRCs).
    format::verify(&c_sim.bytes).unwrap_or_else(|e| panic!("stream fails verify [{ctx}]: {e}"));

    let out_sim = sim.decompress(&c_sim).unwrap_or_else(|e| panic!("sim decode [{ctx}]: {e}"));
    let out_nat = nat.decompress(&c_sim).unwrap_or_else(|e| panic!("native decode [{ctx}]: {e}"));
    assert_eq!(out_sim.len(), data.len(), "decode length [{ctx}]");
    // Bit equality, not float equality: NaN payloads and signed zeros
    // must match exactly too.
    for (i, (a, b)) in out_sim.iter().zip(&out_nat).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "decode divergence at {i} [{ctx}]");
    }
}

/// Small deterministic generator for test fields — independent of the
/// proptest shim's internals so a drawn `seed` fully determines the data.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Hostile data distributions, selected by `dist`. Non-finite values only
/// appear in the `specials` arm; callers pair that arm with an absolute
/// error bound (a range-relative bound over non-finite data has no
/// defined range and both implementations reject it identically).
fn gen_field(n: usize, dist: usize, seed: u64) -> (Vec<f32>, bool) {
    let mut rng = xorshift(seed | 1);
    let mut uniform = move |lo: f32, hi: f32| {
        let u = (rng)() as f64 / u64::MAX as f64;
        lo + (hi - lo) * u as f32
    };
    match dist % 7 {
        // Smooth field — the friendly case.
        0 => ((0..n).map(|i| (i as f32 * 0.013).sin() * 40.0).collect(), true),
        // Uniform noise.
        1 => ((0..n).map(|_| uniform(-100.0, 100.0)).collect(), true),
        // Constant (nonzero) field.
        2 => (vec![uniform(-8.0, 8.0); n], true),
        // All zeros — the zero-block encoder's best case.
        3 => (vec![0.0; n], true),
        // Denormals and signed zeros: magnitudes below f32::MIN_POSITIVE.
        4 => {
            let mut r = xorshift(seed | 1);
            (
                (0..n)
                    .map(|_| {
                        f32::from_bits((r() as u32 & 0x007f_ffff) | ((r() as u32) & 0x8000_0000))
                    })
                    .collect(),
                true,
            )
        }
        // NaN / +-Inf sprinkled over noise (absolute bounds only).
        5 => {
            let mut r = xorshift(seed | 1);
            (
                (0..n)
                    .map(|_| match r() % 16 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => uniform(-50.0, 50.0),
                    })
                    .collect(),
                false,
            )
        }
        // Wide dynamic range: quantization saturates to the 0x7FFF cap.
        _ => ((0..n).map(|_| uniform(-1.0, 1.0) * ((seed % 40) as f32).exp2()).collect(), true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1D fields across distributions and bounds.
    #[test]
    fn conformance_1d(
        n in 1usize..20_000,
        dist in 0usize..7,
        seed in any::<u64>(),
        eb_exp in -6i32..-1,
        rel in any::<bool>(),
    ) {
        let (data, finite) = gen_field(n, dist, seed);
        let eb = 10f64.powi(eb_exp);
        // Range-relative bounds need a finite range; constant/zero fields
        // have range 0 which RelToRange also cannot scale. Fall back to Abs.
        let degenerate = dist % 7 == 2 || dist % 7 == 3;
        let eb = if rel && finite && !degenerate {
            ErrorBound::RelToRange(eb)
        } else {
            ErrorBound::Abs(eb)
        };
        assert_conformant(&data, (1, 1, n), eb);
    }

    /// 2D fields: the Lorenzo W+N-NW predictor paths.
    #[test]
    fn conformance_2d(
        ny in 1usize..48,
        nx in 1usize..96,
        dist in 0usize..7,
        seed in any::<u64>(),
    ) {
        let (data, finite) = gen_field(ny * nx, dist, seed);
        let eb = if finite && dist % 7 != 2 && dist % 7 != 3 {
            ErrorBound::RelToRange(1e-3)
        } else {
            ErrorBound::Abs(1e-3)
        };
        assert_conformant(&data, (1, ny, nx), eb);
    }

    /// 3D fields: the full 7-neighbor predictor.
    #[test]
    fn conformance_3d(
        nz in 1usize..10,
        ny in 1usize..24,
        nx in 1usize..24,
        dist in 0usize..7,
        seed in any::<u64>(),
    ) {
        let (data, finite) = gen_field(nz * ny * nx, dist, seed);
        let eb = if finite && dist % 7 != 2 && dist % 7 != 3 {
            ErrorBound::RelToRange(1e-3)
        } else {
            ErrorBound::Abs(1e-3)
        };
        assert_conformant(&data, (nz, ny, nx), eb);
    }

    /// Both-mode is the online gate: it must accept everything the offline
    /// differential accepts (it asserts stream equality internally).
    #[test]
    fn both_mode_accepts_conformant_inputs(
        n in 1usize..4_096,
        dist in 0usize..7,
        seed in any::<u64>(),
    ) {
        let (data, _) = gen_field(n, dist, seed);
        let mut both = with_path(PipelinePath::Both);
        let c = both.compress(&data, (1, 1, n), ErrorBound::Abs(1e-3));
        let out = both.decompress(&c).expect("roundtrip");
        prop_assert_eq!(out.len(), data.len());
    }

    /// Corrupt streams must yield the *same* typed error from both paths.
    #[test]
    fn corrupt_streams_fail_identically(
        pos in 0usize..2_000,
        flip in 1u8..=255,
    ) {
        let data: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.02).cos() * 9.0).collect();
        let mut sim = with_path(PipelinePath::Simulated);
        let mut nat = with_path(PipelinePath::Native);
        let c = sim.compress(&data, (1, 1, 3000), ErrorBound::Abs(1e-3));
        let mut bytes = c.bytes.clone();
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= flip;
        match (sim.decompress_bytes(&bytes), nat.decompress_bytes(&bytes)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => prop_assert!(
                false,
                "paths disagree on corrupt stream at {}: sim {:?}, native {:?}",
                pos, a.is_ok(), b.is_ok()
            ),
        }
    }
}

type Mini = (&'static str, (usize, usize, usize), Vec<f32>);

/// Miniature versions of all six catalog datasets (same construction as
/// `dataset_roundtrips.rs`): the realistic-texture end of the input space.
fn minis() -> Vec<Mini> {
    let d3 = Dims::D3(16, 48, 48);
    let s3 = (16, 48, 48);
    vec![
        ("HACC", (1, 1, 32768), log_transform(&synth::particles(32768, 1, 8, 64.0))),
        ("CESM", (1, 128, 256), synth::multiscale(Dims::D2(128, 256), 2, 48, 1.7, 0.004)),
        ("Hurricane", s3, synth::multiscale(d3, 3, 40, 1.5, 0.008)),
        ("Nyx", s3, synth::lognormal(d3, 4, 1.8)),
        ("QMCPACK", s3, synth::oscillatory(d3, 5)),
        ("RTM", s3, synth::wavefield(d3, 6, 0.43)),
    ]
}

#[test]
fn every_catalog_dataset_is_conformant() {
    for (name, shape, data) in minis() {
        for eb in
            [ErrorBound::RelToRange(1e-3), ErrorBound::RelToRange(1e-2), ErrorBound::Abs(1e-4)]
        {
            println!("dataset {name}, {eb:?}");
            assert_conformant(&data, shape, eb);
        }
    }
}

#[test]
fn native_path_charges_no_modeled_time() {
    let data: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut nat = with_path(PipelinePath::Native);
    let c = nat.compress(&data, (1, 64, 128), ErrorBound::Abs(1e-3));
    assert_eq!(nat.kernel_time(), 0.0, "native path must not charge the modeled clock");
    let mut sim = with_path(PipelinePath::Simulated);
    let c2 = sim.compress(&data, (1, 64, 128), ErrorBound::Abs(1e-3));
    assert!(sim.kernel_time() > 0.0);
    assert_eq!(c.bytes, c2.bytes);
}

/// An active fault plan must never be silently bypassed: fault injection
/// lives in the simulator, so Native (and Both) downgrade to the simulated
/// pipeline while a plan is installed, recording the Det-class
/// `fzgpu_core_native_downgrade_total` metric. The produced stream is the
/// injector's output — byte-identical to fault-free when only transient
/// launch faults (absorbed by retries) are in the plan.
#[test]
fn active_fault_plan_is_never_bypassed_on_native() {
    use fz_gpu::sim::FaultPlan;
    use fz_gpu::trace::metrics;

    let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).sin() * 3.0).collect();
    let shape = (1, 32, 128);
    let mut nat = with_path(PipelinePath::Native);
    let baseline = nat.compress(&data, shape, ErrorBound::Abs(1e-3)).bytes;
    assert_eq!(nat.kernel_time(), 0.0);

    nat.enable_faults(FaultPlan::seeded(7).launch_faults(0.3, 2));
    assert_eq!(nat.path(), PipelinePath::Native, "configured path is unchanged");
    assert_eq!(nat.effective_path(), PipelinePath::Simulated, "calls run simulated");
    let before = metrics::counter_value("fzgpu_core_native_downgrade_total", &[]);
    let c = nat.compress(&data, shape, ErrorBound::Abs(1e-3));
    assert!(nat.kernel_time() > 0.0, "the simulated pipeline (with injection) ran");
    assert!(nat.total_retries() > 0, "injection was actually live, not bypassed");
    assert_eq!(c.bytes, baseline, "retry-absorbed transients leave the stream intact");
    let after = metrics::counter_value("fzgpu_core_native_downgrade_total", &[]);
    assert!(after > before, "downgrade is recorded in Det metrics");

    let mut both = with_path(PipelinePath::Both);
    both.enable_faults(FaultPlan::seeded(9).launch_faults(0.3, 2));
    assert_eq!(both.effective_path(), PipelinePath::Simulated);
    let c2 = both.compress(&data, shape, ErrorBound::Abs(1e-3));
    assert_eq!(c2.bytes, baseline);
}

/// Degraded archive extraction must behave identically whichever path the
/// decompressor runs: same recovered values (bit-exact), same fill
/// placement, same scrub verdicts.
#[test]
fn degraded_decode_parity_across_paths() {
    let data: Vec<f32> =
        (0..12_288).map(|i| (i as f32 * 0.004).sin() * 4.0 + (i as f32 * 0.0003).cos()).collect();
    let mut sim = with_path(PipelinePath::Simulated);
    let archive = Archive::compress(&mut sim, &data, 2048, ErrorBound::Abs(1e-3));
    let clean = archive.to_bytes();

    // Corrupt the middle of chunk 2's payload (chunks are stored after the
    // directory, in order).
    let dir_end = clean.len() - archive.chunks.iter().map(Vec::len).sum::<usize>();
    let victim_at = dir_end
        + archive.chunks[..2].iter().map(Vec::len).sum::<usize>()
        + archive.chunks[2].len() / 2;
    let mut bytes = clean;
    bytes[victim_at] ^= 0x10;

    let parsed = Archive::from_bytes(&bytes).expect("directory intact");
    let mut nat = with_path(PipelinePath::Native);
    for fill in [FillPolicy::NaN, FillPolicy::Zero] {
        let a = parsed.decompress_degraded(&mut sim, fill);
        let b = parsed.decompress_degraded(&mut nat, fill);
        assert_eq!(a.filled_values, b.filled_values);
        assert_eq!(a.report.corrupt_count(), b.report.corrupt_count());
        assert_eq!(a.data.len(), b.data.len());
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "degraded value {i} diverges ({fill:?})");
        }
    }
}

#[test]
fn scratch_reuse_is_clean_across_shapes() {
    // One native FzGpu across growing and shrinking inputs: scratch
    // buffers must never leak state between calls.
    let mut nat = with_path(PipelinePath::Native);
    let mut sim = with_path(PipelinePath::Simulated);
    for (shape, seed) in
        [((4usize, 32usize, 32usize), 3u64), ((1, 1, 17), 4), ((2, 30, 41), 5), ((1, 1, 60_000), 6)]
    {
        let n = shape.0 * shape.1 * shape.2;
        let (data, _) = gen_field(n, seed as usize % 5, seed * 977);
        let c_n = nat.compress(&data, shape, ErrorBound::Abs(1e-3));
        let c_s = sim.compress(&data, shape, ErrorBound::Abs(1e-3));
        assert_eq!(c_n.bytes, c_s.bytes, "shape {shape:?}");
        let out_n = nat.decompress(&c_n).unwrap();
        let out_s = sim.decompress(&c_s).unwrap();
        assert!(out_n.iter().zip(&out_s).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
