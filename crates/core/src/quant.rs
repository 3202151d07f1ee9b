//! Error-bound machinery and pre-quantization.
//!
//! The only lossy step in the whole pipeline (§2.3 of the paper):
//! `q = round(d / (2*eb))`, which guarantees
//! `|q * 2*eb - d| <= eb` — the error-bounded-compression contract.
//!
//! Every path quantizes through [`prequantize`]: the native encoder, the
//! analytic engine's fills, the interpreted kernels and the scalar oracle.
//! It is branch-free so that a loop over it vectorizes on the portable
//! SSE2 baseline, where `f64::round` is a libm call per value and the
//! saturating `as i32` cast is a scalar sequence; its result equals
//! `round` (half away from zero), clamped to `i32`, with NaN at 0, bit for
//! bit. [`ErrorBound::try_resolve`] finds a field's range in one lane-wise
//! pass over index-space chunks on the pool.

use rayon::prelude::*;

/// User-facing error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: every reconstructed value within `eb` of the original.
    Abs(f64),
    /// Bound relative to the field's value range (the paper's mode:
    /// `1e-2 .. 1e-4` relative to `max - min`).
    RelToRange(f64),
}

impl ErrorBound {
    /// The absolute bound for `data`. A range-relative bound scales by the
    /// field's `max - min` (NaNs skipped; one lane-wise pass on the pool),
    /// so every path resolves the same bound at any thread count.
    ///
    /// # Panics
    /// Panics when the resolved bound is not finite and positive.
    pub fn resolve(&self, data: &[f32]) -> f64 {
        self.try_resolve(data)
            .unwrap_or_else(|eb| panic!("error bound must be finite and positive, got {eb}"))
    }

    /// [`ErrorBound::resolve`] without the panic: `Err` carries the
    /// resolved bound when it is not finite and positive, as for a
    /// range-relative bound over a field that holds ±inf.
    pub fn try_resolve(&self, data: &[f32]) -> Result<f64, f64> {
        let eb = match *self {
            ErrorBound::Abs(e) => e,
            ErrorBound::RelToRange(_) => {
                let (lo, hi) = value_range(data);
                self.to_abs((hi - lo) as f64)
            }
        };
        if eb.is_finite() && eb > 0.0 {
            Ok(eb)
        } else {
            Err(eb)
        }
    }

    /// Resolve to an absolute bound given the field's value range.
    pub fn to_abs(&self, range: f64) -> f64 {
        match *self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::RelToRange(rel) => {
                if range == 0.0 {
                    rel // constant field: any positive bound works
                } else {
                    rel * range
                }
            }
        }
    }
}

/// Lanes of [`value_range`]'s running minimum and maximum.
const RANGE_LANES: usize = 8;

/// The smallest and largest non-NaN value of `data`: `(+inf, -inf)` when
/// there is none, as the two sequential `f32::min`/`f32::max` folds it
/// replaces give. One pass over index-space chunks on the pool, each
/// keeping [`RANGE_LANES`] running minima and maxima that a loop over
/// comparisons vectorizes into; partials merge in chunk order. A NaN
/// never wins a comparison, so it is skipped. Only `-0.0` against `+0.0`
/// may resolve differently from the folds, and `hi - lo` is then `0.0` or
/// `-0.0` either way, which [`ErrorBound::to_abs`] treats alike.
fn value_range(data: &[f32]) -> (f32, f32) {
    let lane_range = |chunk: &[f32]| {
        let mut lo = [f32::INFINITY; RANGE_LANES];
        let mut hi = [f32::NEG_INFINITY; RANGE_LANES];
        let mut lanes = chunk.chunks_exact(RANGE_LANES);
        for vals in &mut lanes {
            for l in 0..RANGE_LANES {
                lo[l] = if vals[l] < lo[l] { vals[l] } else { lo[l] };
                hi[l] = if vals[l] > hi[l] { vals[l] } else { hi[l] };
            }
        }
        for (l, &v) in lanes.remainder().iter().enumerate() {
            lo[l] = if v < lo[l] { v } else { lo[l] };
            hi[l] = if v > hi[l] { v } else { hi[l] };
        }
        (lo, hi)
    };
    let parts: Vec<_> = data.par_chunks(1 << 16).map(lane_range).collect();
    parts
        .iter()
        .flat_map(|(lo, hi)| lo.iter().zip(hi))
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), (&l, &h)| {
            (if l < lo { l } else { lo }, if h > hi { h } else { hi })
        })
}

/// 2^52: adding and subtracting it rounds any `0 <= a < 2^52` to an
/// integer (ties to even, the default rounding mode).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Quantize one value: `round(d / (2*eb))` (half away from zero), clamped
/// to i32, with NaN at 0 — bit for bit what
/// `(d as f64 * ebx2_inv).round().clamp(i32::MIN as f64, i32::MAX as f64)
/// as i32` gives, without its libm call and saturating cast:
///
/// 1. `r = (|x| + 2^52) - 2^52` rounds `|x| < 2^52` half to even. The
///    difference `r - |x|` is exact, so it is `-0.5` exactly when a tie
///    went down to the even neighbour, and adding 1 turns that into half
///    away from zero. Larger `|x|` (and inf) stay at or above 2^31 and
///    clamp below.
/// 2. The sign comes back by `copysign`, the clamp is two comparisons, and
///    NaN (which fails every comparison) is replaced by 0.
/// 3. For an integer `q` in i32 range, `q + 1.5 * 2^52` lies in
///    `[2^52, 2^53)`, where doubles are spaced 1 apart, so the sum is
///    exact and the low 32 bits of its encoding are `q` in two's
///    complement.
#[inline]
pub fn prequantize(d: f32, ebx2_inv: f64) -> i32 {
    let x = d as f64 * ebx2_inv;
    let a = x.abs();
    let r = (a + TWO_52) - TWO_52;
    let r = if r - a == -0.5 { r + 1.0 } else { r };
    let q = r.copysign(x);
    let q = if q < i32::MIN as f64 { i32::MIN as f64 } else { q };
    let q = if q > i32::MAX as f64 { i32::MAX as f64 } else { q };
    let q = if q.is_nan() { 0.0 } else { q };
    (q + 1.5 * TWO_52).to_bits() as u32 as i32
}

/// Dequantize: `q * 2*eb`.
#[inline]
pub fn dequantize(q: i32, ebx2: f64) -> f32 {
    (q as f64 * ebx2) as f32
}

/// Sign-magnitude 16-bit encoding of a Lorenzo delta (paper §3.2): MSB is
/// the sign, low 15 bits the magnitude, **saturating** at 32767. This is
/// the "integrate the outliers / use the most significant bit for the sign"
/// optimization that removes cuSZ's outlier branch.
///
/// Saturation loses precision for |delta| > 32767; the paper accepts this
/// ("the out-of-range data points are very few ... will not significantly
/// affect the decompressed data quality").
#[inline]
pub fn delta_to_code(delta: i32) -> u16 {
    if delta >= 0 {
        delta.min(0x7FFF) as u16
    } else {
        // `unsigned_abs` (not `-delta`) keeps `i32::MIN` total: it
        // saturates to -32767 like every other out-of-range magnitude
        // instead of overflowing the negation.
        0x8000 | delta.unsigned_abs().min(0x7FFF) as u16
    }
}

/// Inverse of [`delta_to_code`].
#[inline]
pub fn code_to_delta(code: u16) -> i32 {
    let mag = (code & 0x7FFF) as i32;
    if code & 0x8000 != 0 {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn abs_bound_passthrough() {
        assert_eq!(ErrorBound::Abs(0.5).to_abs(100.0), 0.5);
    }

    #[test]
    fn relative_bound_scales_with_range() {
        assert_eq!(ErrorBound::RelToRange(1e-2).to_abs(50.0), 0.5);
        // Constant field still gets a positive bound.
        assert!(ErrorBound::RelToRange(1e-3).to_abs(0.0) > 0.0);
    }

    #[test]
    fn resolve_scans_the_range_and_skips_nan() {
        let data = [0.0f32, f32::NAN, 10.0];
        assert!((ErrorBound::RelToRange(1e-2).resolve(&data) - 0.1).abs() < 1e-9);
        assert_eq!(ErrorBound::Abs(0.5).resolve(&data), 0.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_abs_bound_is_rejected() {
        let _ = ErrorBound::Abs(f64::INFINITY).resolve(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn relative_bound_over_infinite_data_is_rejected() {
        let _ = ErrorBound::RelToRange(1e-3).resolve(&[0.0, f32::INFINITY]);
    }

    /// The formula [`prequantize`] replaced, kept as its differential
    /// oracle: libm `round`, a float clamp, a saturating cast.
    fn prequantize_oracle(d: f32, ebx2_inv: f64) -> i32 {
        let q = (d as f64 * ebx2_inv).round();
        q.clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// `d = 1.0` makes `ebx2_inv` the quantized value itself, so any f64
    /// can be aimed at.
    fn assert_quantizes_like_oracle(x: f64) {
        assert_eq!(
            prequantize(1.0, x),
            prequantize_oracle(1.0, x),
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn prequantize_matches_round_clamp_cast_on_edges() {
        let mut ties = vec![0.5f64];
        for e in 0..=40 {
            let p = (1u64 << e) as f64;
            ties.extend([p - 1.0, p, p + 1.0, 3.0 * p].map(|k| k + 0.5));
        }
        ties.extend((0..1000).map(|k| k as f64 + 0.5));
        let mut xs = Vec::new();
        for t in ties {
            for v in [t, -t] {
                xs.extend([v, v.next_up(), v.next_down()]);
            }
        }
        xs.extend([2147483647.5, 2147483648.5, 2147483647.0, 2147483648.0, 2147483649.0]);
        let two_52 = 2f64.powi(52);
        for big in [two_52, two_52 + 1.0, 2.0 * two_52, 2.0 * two_52 + 2.0, 2f64.powi(60), 1e300] {
            xs.extend([big, big.next_up(), big.next_down()]);
        }
        xs.extend([f64::MAX, f64::INFINITY, f64::NAN, 0.0, f64::MIN_POSITIVE, 5e-324, 1e-310]);
        xs.push(f64::from_bits(f64::NAN.to_bits() | 1)); // another NaN payload
        for x in xs.clone() {
            assert_quantizes_like_oracle(x);
            assert_quantizes_like_oracle(-x);
        }
        // f32 inputs of every class through a real bound.
        let ds = [0.0f32, -0.0, f32::INFINITY, -f32::INFINITY, f32::NAN, -f32::NAN, 1e-45, -1e-45];
        for d in ds.into_iter().chain([f32::MIN_POSITIVE, f32::MAX, -f32::MAX, 0.75, -2.5]) {
            for ebx2_inv in [0.5, 1.0, 500.0, 1e30, f64::INFINITY] {
                assert_eq!(
                    prequantize(d, ebx2_inv),
                    prequantize_oracle(d, ebx2_inv),
                    "{d} {ebx2_inv}"
                );
            }
        }
    }

    #[test]
    fn prequantize_respects_error_bound() {
        let eb = 1e-3;
        for &d in &[0.0f32, 1.0, -1.0, 0.123456, -9.87654, 1e4] {
            let q = prequantize(d, 1.0 / (2.0 * eb));
            let back = dequantize(q, 2.0 * eb);
            assert!(
                (back as f64 - d as f64).abs() <= eb * (1.0 + 1e-9) + (d as f64).abs() * 1e-7,
                "d={d} back={back}"
            );
        }
    }

    #[test]
    fn sign_magnitude_roundtrip_in_range() {
        for delta in [-32767, -1, 0, 1, 5, 32767, -100, 1234] {
            assert_eq!(code_to_delta(delta_to_code(delta)), delta);
        }
    }

    #[test]
    fn sign_magnitude_saturates() {
        assert_eq!(code_to_delta(delta_to_code(40_000)), 32767);
        assert_eq!(code_to_delta(delta_to_code(-40_000)), -32767);
    }

    #[test]
    fn small_codes_have_many_leading_zero_bits() {
        // The property bitshuffle exploits: small |delta| -> high bits 0.
        for delta in -7i32..=7 {
            let code = delta_to_code(delta);
            assert_eq!(code & 0x7FF8, 0, "delta {delta} code {code:#x}");
        }
    }

    proptest! {
        #[test]
        fn prop_sign_magnitude_roundtrip(delta in -32767i32..=32767) {
            prop_assert_eq!(code_to_delta(delta_to_code(delta)), delta);
        }

        #[test]
        fn prop_prequantize_matches_oracle_on_raw_f32_bits(
            bits in any::<u32>(),
            eb_exp in -30.0f64..9.0,
        ) {
            let d = f32::from_bits(bits);
            let ebx2_inv = 1.0 / (2.0 * 10f64.powf(eb_exp));
            prop_assert_eq!(prequantize(d, ebx2_inv), prequantize_oracle(d, ebx2_inv));
        }

        #[test]
        fn prop_prequant_bound(d in -1e3f32..1e3, eb_exp in -5i32..-1) {
            // Valid regime: |d| / (2*eb) must fit in i32 (range-relative
            // bounds guarantee this in the real pipeline).
            let eb = 10f64.powi(eb_exp);
            let q = prequantize(d, 1.0 / (2.0 * eb));
            let back = dequantize(q, 2.0 * eb) as f64;
            // f32 cast noise is proportional to the value's magnitude.
            let slack = eb * 1e-6 + (d as f64).abs() * 1e-6;
            prop_assert!((back - d as f64).abs() <= eb + slack);
        }
    }
}
