//! Error-bound machinery and pre-quantization.
//!
//! The only lossy step in the whole pipeline (§2.3 of the paper):
//! `q = round(d / (2*eb))`, which guarantees
//! `|q * 2*eb - d| <= eb` — the error-bounded-compression contract.

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
    /// field's `max - min`, found with a sequential fold (NaNs skipped), so
    /// every path resolves the same bound at any thread count.
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
                let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
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

/// Quantize one value: `round(d / (2*eb))`, clamped to i32.
#[inline]
pub fn prequantize(d: f32, ebx2_inv: f64) -> i32 {
    let q = (d as f64 * ebx2_inv).round();
    q.clamp(i32::MIN as f64, i32::MAX as f64) as i32
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
