//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank method: the value at rank `⌈q·n⌉`
//! (1-based) of the sorted sample, always an actual sample. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a "p99" never rests on one or two stragglers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_QS: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// 1-based nearest rank of `q` in a sample of `n` (clamped to `1..=n`).
/// The epsilon keeps `0.9 × 10 = 9.000000000000002` at rank 9.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `q`-percentile (0 < q ≤ 1). Panics on an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let s = sorted(xs);
    s[rank(q, s.len()) - 1]
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples beyond
/// it, as `(q, value)`; `None` when the sample is too small for any.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let q = TAIL_QS.into_iter().find(|&q| n >= rank(q, n.max(1)) + MIN_BEYOND && n > 0)?;
    Some((q, percentile(xs, q)))
}

/// One line describing a timing sample: `p50`, the tail (when the sample
/// supports one) and `n`, scaled by `scale` and labelled with `unit`.
pub fn describe(xs: &[f64], scale: f64, unit: &str) -> String {
    let mut s = format!("p50 {:.4} {unit}", median(xs) * scale);
    match tail(xs) {
        Some((q, v)) => s.push_str(&format!(", p{} {:.4} {unit}", q * 100.0, v * scale)),
        None => s.push_str(", no tail (fewer than 10 samples beyond p75)"),
    }
    s.push_str(&format!(", n {}", xs.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_actual_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0]), 1.0, "p50 of two samples is the lower one");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p75 is rank 15, only 4 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 40 samples: p75 is rank 30 with exactly 10 beyond; p90 (rank 36) has 4.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((0.75, 30.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((0.99, 990.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 has only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((0.90, 90.0)));
        assert_eq!(tail(&[]), None);
    }
}
