//! Performance-regression gate over the modeled pipeline.
//!
//! Runs every catalog dataset through a full FZ-GPU round trip at
//! [`Scale::Reduced`] and compares compression ratio, modeled kernel time,
//! and PSNR against a committed baseline (`BENCH_regress.json` at the repo
//! root). Every compared quantity is **deterministic** — ratios and PSNR
//! are exact functions of the input, and kernel times come from the
//! analytic roofline model — so the gate is machine-independent and the
//! thresholds exist only to absorb intentional small drift, not noise.
//!
//! Checks are *directional*: a larger ratio, faster modeled time, or
//! higher PSNR never fails the gate (it is reported as an improvement so
//! the baseline can be refreshed with `--update`).
//!
//! One rule reads the fresh suite alone: no dataset may model its
//! decompress at more than [`MAX_DECOMPRESS_OVER_COMPRESS`] times its
//! compress ([`asymmetry`]). The paper's decompression mirrors its
//! compression, so a dataset past that bound is a model pathology, and
//! re-baselining cannot hide it.

use fzgpu_core::quant::ErrorBound;
use fzgpu_core::{FzGpu, FzOptions};
use fzgpu_data::{Scale, CATALOG};
use fzgpu_metrics::psnr;
use fzgpu_sim::{DeviceSpec, Engine};
use fzgpu_trace::json::{self, Layout, Obj, Value};

use crate::shape_of;

/// One dataset's measured round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Catalog dataset name.
    pub dataset: String,
    /// Number of f32 values compressed.
    pub n_values: usize,
    /// Compressed stream size in bytes.
    pub compressed_bytes: usize,
    /// Compression ratio (input bytes / stream bytes).
    pub ratio: f64,
    /// Modeled device time of the compress pipeline, microseconds.
    pub compress_modeled_us: f64,
    /// Modeled device time of the decompress pipeline, microseconds.
    pub decompress_modeled_us: f64,
    /// Reconstruction PSNR in dB.
    pub psnr_db: f64,
}

/// Per-metric regression limits. Each bound applies only in the *bad*
/// direction (ratio/PSNR down, modeled time up).
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Max allowed relative ratio decrease (fraction, e.g. 0.01 = 1%).
    pub ratio_drop: f64,
    /// Max allowed relative modeled-time increase (fraction).
    pub modeled_slowdown: f64,
    /// Max allowed PSNR decrease in dB.
    pub psnr_drop_db: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // The pipeline is deterministic, so these absorb only intentional
        // drift (a retuned kernel, a format header growing a field) — not
        // measurement noise.
        Self { ratio_drop: 0.01, modeled_slowdown: 0.02, psnr_drop_db: 0.1 }
    }
}

/// Largest modeled decompress time a dataset may show, as a multiple of
/// its modeled compress time.
pub const MAX_DECOMPRESS_OVER_COMPRESS: f64 = 3.0;

/// One detected regression (or improvement, when `regressed` is false).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dataset the finding is about.
    pub dataset: String,
    /// Metric name (`ratio`, `compress_modeled_us`, ...).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// True when the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

impl Finding {
    /// Human-readable one-liner.
    pub fn describe(&self) -> String {
        let change = if self.baseline != 0.0 {
            format!("{:+.2}%", (self.current / self.baseline - 1.0) * 100.0)
        } else {
            format!("{:+.3}", self.current - self.baseline)
        };
        let verdict = if self.regressed { "REGRESSION" } else { "ok" };
        format!(
            "{}: {} {} -> {} ({change}) [{verdict}]",
            self.dataset,
            self.metric,
            trim_f64(self.baseline),
            trim_f64(self.current)
        )
    }
}

fn trim_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Round-trip every catalog dataset at `rel_eb` on `spec` and measure the
/// gate's metrics. Fully deterministic: same inputs, same outputs, on any
/// machine, any `FZGPU_THREADS`, and either [`Engine`] — an analytic run
/// checked against an interpreted baseline is itself an equivalence gate.
pub fn run_suite(spec: DeviceSpec, rel_eb: f64, engine: Engine) -> Vec<Case> {
    CATALOG
        .iter()
        .map(|info| {
            let field = info.generate(Scale::Reduced);
            let mut fz = FzGpu::with_options(spec, FzOptions { engine, ..FzOptions::default() });
            let c = fz.compress(&field.data, shape_of(&field), ErrorBound::RelToRange(rel_eb));
            let compress_modeled_us = fz.kernel_time() * 1e6;
            let back = fz.decompress(&c).expect("roundtrip of a fresh stream");
            let decompress_modeled_us = fz.kernel_time() * 1e6;
            Case {
                dataset: info.name.to_string(),
                n_values: field.data.len(),
                compressed_bytes: c.bytes.len(),
                ratio: c.ratio(),
                compress_modeled_us,
                decompress_modeled_us,
                psnr_db: psnr(&field.data, &back),
            }
        })
        .collect()
}

/// Serialize a suite to the committed-baseline JSON format.
pub fn to_json(device: &str, rel_eb: f64, cases: &[Case]) -> String {
    let rows = cases.iter().map(|c| {
        Obj::spaced()
            .str("dataset", &c.dataset)
            .raw("n_values", c.n_values)
            .raw("compressed_bytes", c.compressed_bytes)
            .num("ratio", c.ratio)
            .num("compress_modeled_us", c.compress_modeled_us)
            .num("decompress_modeled_us", c.decompress_modeled_us)
            .num("psnr_db", c.psnr_db)
            .finish()
    });
    Obj::doc()
        .str("bench", "regress")
        .str("device", device)
        .num("rel_eb", rel_eb)
        .raw("cases", json::list(Layout::Doc, rows))
        .finish()
}

/// Parse a committed baseline file.
pub fn parse_baseline(text: &str) -> Result<Vec<Case>, String> {
    let root = json::parse(text)?;
    let cases =
        root.get("cases").and_then(Value::as_array).ok_or("baseline: missing \"cases\" array")?;
    cases
        .iter()
        .map(|v| {
            let f = |k: &str| {
                v.get(k).and_then(Value::as_f64).ok_or_else(|| format!("baseline: missing {k}"))
            };
            Ok(Case {
                dataset: v
                    .get("dataset")
                    .and_then(Value::as_str)
                    .ok_or("baseline: missing dataset")?
                    .to_string(),
                n_values: f("n_values")? as usize,
                compressed_bytes: f("compressed_bytes")? as usize,
                ratio: f("ratio")?,
                compress_modeled_us: f("compress_modeled_us")?,
                decompress_modeled_us: f("decompress_modeled_us")?,
                psnr_db: f("psnr_db")?,
            })
        })
        .collect()
}

/// Every dataset of a fresh suite whose modeled decompress time exceeds
/// [`MAX_DECOMPRESS_OVER_COMPRESS`] times its compress time, as a
/// regressed `decompress_over_compress` finding from the bound to the
/// measured multiple.
pub fn asymmetry(current: &[Case]) -> Vec<Finding> {
    current
        .iter()
        .filter(|c| c.decompress_modeled_us > MAX_DECOMPRESS_OVER_COMPRESS * c.compress_modeled_us)
        .map(|c| Finding {
            dataset: c.dataset.clone(),
            metric: "decompress_over_compress",
            baseline: MAX_DECOMPRESS_OVER_COMPRESS,
            current: c.decompress_modeled_us / c.compress_modeled_us,
            regressed: true,
        })
        .collect()
}

/// Compare a fresh suite against the baseline. Returns every changed
/// metric; callers gate on `finding.regressed`. A dataset present in only
/// one side is itself a regression (coverage must not silently shrink).
pub fn compare(baseline: &[Case], current: &[Case], t: Thresholds) -> Vec<Finding> {
    let mut findings = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.dataset == b.dataset) else {
            findings.push(Finding {
                dataset: b.dataset.clone(),
                metric: "present",
                baseline: 1.0,
                current: 0.0,
                regressed: true,
            });
            continue;
        };
        let mut check = |metric: &'static str, bv: f64, cv: f64, bad_up: bool, limit: f64| {
            if bv == cv {
                return;
            }
            let rel = if bv != 0.0 { cv / bv - 1.0 } else { f64::INFINITY };
            let regressed = if bad_up { rel > limit } else { -rel > limit };
            findings.push(Finding {
                dataset: b.dataset.clone(),
                metric,
                baseline: bv,
                current: cv,
                regressed,
            });
        };
        check("ratio", b.ratio, c.ratio, false, t.ratio_drop);
        check(
            "compress_modeled_us",
            b.compress_modeled_us,
            c.compress_modeled_us,
            true,
            t.modeled_slowdown,
        );
        check(
            "decompress_modeled_us",
            b.decompress_modeled_us,
            c.decompress_modeled_us,
            true,
            t.modeled_slowdown,
        );
        // PSNR uses an absolute dB bound, not a relative one.
        if b.psnr_db != c.psnr_db {
            findings.push(Finding {
                dataset: b.dataset.clone(),
                metric: "psnr_db",
                baseline: b.psnr_db,
                current: c.psnr_db,
                regressed: b.psnr_db - c.psnr_db > t.psnr_drop_db,
            });
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.dataset == c.dataset) {
            findings.push(Finding {
                dataset: c.dataset.clone(),
                metric: "present",
                baseline: 0.0,
                current: 1.0,
                regressed: false, // new coverage is an improvement
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, ratio: f64, t_us: f64, psnr: f64) -> Case {
        Case {
            dataset: name.to_string(),
            n_values: 1000,
            compressed_bytes: 100,
            ratio,
            compress_modeled_us: t_us,
            decompress_modeled_us: t_us,
            psnr_db: psnr,
        }
    }

    #[test]
    fn identical_suites_have_no_findings() {
        let a = vec![case("X", 10.0, 5.0, 80.0)];
        assert!(compare(&a, &a, Thresholds::default()).is_empty());
    }

    #[test]
    fn directional_thresholds() {
        let base = vec![case("X", 10.0, 5.0, 80.0)];
        // Ratio UP is an improvement, never a regression.
        let better = vec![case("X", 12.0, 5.0, 80.0)];
        let f = compare(&base, &better, Thresholds::default());
        assert_eq!(f.len(), 1);
        assert!(!f[0].regressed);
        // Ratio down beyond 1% regresses.
        let worse = vec![case("X", 9.0, 5.0, 80.0)];
        let f = compare(&base, &worse, Thresholds::default());
        assert!(f.iter().any(|f| f.metric == "ratio" && f.regressed));
        // Modeled time up beyond 2% regresses; down never does.
        let slower = vec![case("X", 10.0, 6.0, 80.0)];
        assert!(compare(&base, &slower, Thresholds::default())
            .iter()
            .any(|f| f.metric == "compress_modeled_us" && f.regressed));
        let faster = vec![case("X", 10.0, 4.0, 80.0)];
        assert!(compare(&base, &faster, Thresholds::default()).iter().all(|f| !f.regressed));
    }

    #[test]
    fn missing_dataset_is_a_regression() {
        let base = vec![case("X", 10.0, 5.0, 80.0), case("Y", 8.0, 3.0, 70.0)];
        let cur = vec![case("X", 10.0, 5.0, 80.0)];
        let f = compare(&base, &cur, Thresholds::default());
        assert!(f.iter().any(|f| f.dataset == "Y" && f.metric == "present" && f.regressed));
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let cases = vec![case("X \"quoted\"", 10.5, 5.25, 80.125)];
        let text = to_json("A100", 1e-3, &cases);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed, cases);
        assert!(compare(&cases, &parsed, Thresholds::default()).is_empty());
    }

    #[test]
    fn committed_baseline_is_rewritten_byte_for_byte() {
        let text = include_str!("../../../BENCH_regress.json");
        let root = json::parse(text).unwrap();
        let device = root.get("device").and_then(Value::as_str).unwrap();
        let rel_eb = root.get("rel_eb").and_then(Value::as_f64).unwrap();
        let cases = parse_baseline(text).unwrap();
        assert_eq!(to_json(device, rel_eb, &cases), text);
    }

    #[test]
    fn asymmetry_flags_decompress_past_three_times_compress() {
        // The rows committed before the inverse-Lorenzo passes split.
        let before = r#"{"cases": [
            {"dataset": "HACC", "n_values": 4194304, "compressed_bytes": 5252048, "ratio": 3.194414064761023, "compress_modeled_us": 105.47386665867764, "decompress_modeled_us": 5626.364373456579, "psnr_db": 64.34976702349849},
            {"dataset": "CESM", "n_values": 1620000, "compressed_bytes": 413872, "ratio": 15.657014729191634, "compress_modeled_us": 50.62291871269955, "decompress_modeled_us": 390.4480657751198, "psnr_db": 67.38128436098167},
            {"dataset": "Hurricane", "n_values": 3125000, "compressed_bytes": 1453920, "ratio": 8.597446902167933, "compress_modeled_us": 90.6894104828845, "decompress_modeled_us": 250.98983249366577, "psnr_db": 67.78229025999528},
            {"dataset": "Nyx", "n_values": 4096000, "compressed_bytes": 1074608, "ratio": 15.246489882822388, "compress_modeled_us": 96.73828088135059, "decompress_modeled_us": 255.56167219504314, "psnr_db": 68.96144865669325},
            {"dataset": "QMCPACK", "n_values": 2464128, "compressed_bytes": 2234720, "ratio": 4.410625044748335, "compress_modeled_us": 81.07887480763364, "decompress_modeled_us": 300.9954696506827, "psnr_db": 64.92531034326211},
            {"dataset": "RTM", "n_values": 1755000, "compressed_bytes": 1053248, "ratio": 6.665096919244091, "compress_modeled_us": 65.601424941963, "decompress_modeled_us": 204.24787665232142, "psnr_db": 67.28907216238834}
        ]}"#;
        let findings = asymmetry(&parse_baseline(before).unwrap());
        let flagged: Vec<&str> = findings.iter().map(|f| f.dataset.as_str()).collect();
        assert_eq!(flagged, ["HACC", "CESM", "QMCPACK", "RTM"]);
        assert!(findings.iter().all(|f| f.regressed && f.baseline == 3.0));
        assert!((findings[0].current - 53.34).abs() < 0.01, "{}", findings[0].current);
        // The rule reads the suite alone: the committed baseline passes it.
        let committed = parse_baseline(include_str!("../../../BENCH_regress.json")).unwrap();
        assert!(asymmetry(&committed).is_empty());
        // A pathology in the fresh suite is flagged even when the baseline
        // holds the same numbers.
        let mut lopsided = committed.clone();
        lopsided[0].decompress_modeled_us = 3.5 * lopsided[0].compress_modeled_us;
        assert!(compare(&lopsided, &lopsided, Thresholds::default()).is_empty());
        assert_eq!(asymmetry(&lopsided).len(), 1);
    }

    #[test]
    fn suite_is_deterministic_across_runs_and_engines() {
        let a = run_suite(fzgpu_sim::device::A100, 1e-2, Engine::Interpreted);
        let b = run_suite(fzgpu_sim::device::A100, 1e-2, Engine::Interpreted);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = run_suite(fzgpu_sim::device::A100, 1e-2, Engine::Analytic);
        assert_eq!(a, c, "gate metrics must be engine-invariant");
    }
}
