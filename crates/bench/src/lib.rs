//! # fzgpu-bench — harness regenerating the paper's tables and figures
//!
//! Each binary under `src/bin/` reproduces one exhibit (see DESIGN.md §3
//! for the experiment index). This library holds the shared sweep
//! machinery: uniform `Baseline` adapters for FZ-GPU / FZ-OMP (the native
//! fast path), the paper's error-bound grid, cuZFP's PSNR-matched rate
//! search, and plain-text table rendering.

pub mod regress;

use fzgpu_baselines::{Baseline, CuZfp, Run, Setting};
use fzgpu_core::lorenzo::Shape;
use fzgpu_core::quant::ErrorBound;
use fzgpu_core::{FzGpu, FzNative, FzOptions};
use fzgpu_data::{Field, Scale, CATALOG};
use fzgpu_metrics::psnr;
use fzgpu_sim::DeviceSpec;

/// The paper's five range-based relative error bounds.
pub const REL_EBS: [f64; 5] = [1e-2, 5e-3, 1e-3, 5e-4, 1e-4];

/// FZ-GPU adapter for the uniform sweep interface.
pub struct FzGpuRunner {
    fz: FzGpu,
}

impl FzGpuRunner {
    /// On the given device, default options.
    pub fn new(spec: DeviceSpec) -> Self {
        Self { fz: FzGpu::new(spec) }
    }

    /// With explicit options (ablation variants).
    pub fn with_options(spec: DeviceSpec, opts: FzOptions) -> Self {
        Self { fz: FzGpu::with_options(spec, opts) }
    }

    /// Access the inner compressor (kernel breakdowns).
    pub fn inner(&mut self) -> &mut FzGpu {
        &mut self.fz
    }
}

impl Baseline for FzGpuRunner {
    fn name(&self) -> &'static str {
        "FZ-GPU"
    }

    fn run(&mut self, data: &[f32], shape: Shape, setting: Setting) -> Option<Run> {
        let Setting::Eb(eb) = setting else {
            return None;
        };
        let c = self.fz.compress(data, shape, eb);
        let compress_time = self.fz.kernel_time();
        let reconstructed = self.fz.decompress(&c).ok()?;
        Some(Run {
            name: self.name(),
            compressed_bytes: c.bytes.len(),
            compress_time,
            reconstructed,
            codebook_time: 0.0,
        })
    }
}

/// FZ-OMP adapter (§4.4): the native fast path — the pipeline as
/// multi-threaded host code — timed in wall-clock on the host CPU.
#[derive(Default)]
pub struct FzNativeRunner {
    fz: FzNative,
}

impl Baseline for FzNativeRunner {
    fn name(&self) -> &'static str {
        "FZ-OMP"
    }

    fn run(&mut self, data: &[f32], shape: Shape, setting: Setting) -> Option<Run> {
        let Setting::Eb(eb) = setting else {
            return None;
        };
        let t0 = std::time::Instant::now();
        let c = self.fz.compress(data, shape, eb);
        let compress_time = t0.elapsed().as_secs_f64();
        let reconstructed = self.fz.decompress(&c).ok()?;
        Some(Run {
            name: self.name(),
            compressed_bytes: c.bytes.len(),
            compress_time,
            reconstructed,
            codebook_time: 0.0,
        })
    }
}

/// Find the cuZFP rate whose PSNR best matches `target_psnr` on this field
/// (the paper: "we investigate a series of bitrates and select the
/// bitrates with the same average PSNR as ours"). Returns `None` when no
/// rate reaches within 6 dB (the paper's "cuZFP cannot achieve a similar
/// PSNR" gaps on Nyx/RTM at high bounds).
pub fn zfp_match_psnr(
    zfp: &mut CuZfp,
    data: &[f32],
    shape: Shape,
    target_psnr: f64,
) -> Option<(f64, Run)> {
    let mut best: Option<(f64, f64, Run)> = None; // (|dpsnr|, rate, run)
    let ladder: Vec<f64> = (1..=16).map(|r| r as f64).chain([18.0, 20.0, 24.0, 28.0]).collect();
    for rate in ladder {
        let run = zfp.run(data, shape, Setting::Rate(rate))?;
        let p = psnr(data, &run.reconstructed);
        let d = (p - target_psnr).abs();
        let better = best.as_ref().is_none_or(|(bd, _, _)| d < *bd);
        if better {
            best = Some((d, rate, run));
        } else if p > target_psnr {
            break; // PSNR grows with rate; past the target and diverging
        }
    }
    let (d, rate, run) = best?;
    (d <= 6.0).then_some((rate, run))
}

/// Generate every catalog dataset's representative field at `scale`.
pub fn all_fields(scale: Scale) -> Vec<Field> {
    CATALOG.iter().map(|info| info.generate(scale)).collect()
}

/// Build any sweep runner by canonical name: `"fz"` / `"fz-omp"` for the
/// paper's compressor, else one of [`fzgpu_baselines::BASELINE_NAMES`].
/// The figure binaries dispatch through this instead of hand-constructing
/// each concrete type.
pub fn runner_by_name(name: &str, spec: DeviceSpec) -> Option<Box<dyn Baseline>> {
    match name {
        "fz" => Some(Box::new(FzGpuRunner::new(spec))),
        "fz-omp" => Some(Box::new(FzNativeRunner::default())),
        _ => fzgpu_baselines::by_name(name, spec),
    }
}

/// Run the named compressor once at `setting`. `"cuzfp"` is fixed-rate
/// only, so it runs the paper's PSNR-matched rate search against
/// `fz_psnr` instead of the error-bound setting.
pub fn run_named(
    name: &str,
    spec: DeviceSpec,
    data: &[f32],
    shape: Shape,
    setting: Setting,
    fz_psnr: f64,
) -> Option<Run> {
    if name == "cuzfp" {
        let mut zfp = CuZfp::new(spec);
        return zfp_match_psnr(&mut zfp, data, shape, fz_psnr).map(|(_, r)| r);
    }
    runner_by_name(name, spec)?.run(data, shape, setting)
}

/// Profiles of one field's full round trip, for the observability harness
/// (`cargo run -p fzgpu-bench --bin profiles`).
pub struct FieldProfile {
    /// Compress-phase timeline.
    pub compress: fzgpu_sim::Profile,
    /// Decompress-phase timeline.
    pub decompress: fzgpu_sim::Profile,
    /// Compression ratio achieved.
    pub ratio: f64,
}

impl FieldProfile {
    /// Both phases joined into one trace (decompress shifted after
    /// compress), for a single Chrome-trace file.
    pub fn joined(&self) -> fzgpu_sim::Profile {
        let mut p = self.compress.clone();
        p.append(&self.decompress);
        p
    }
}

/// Compress + decompress `field` on `spec` at range-relative bound
/// `rel_eb`, capturing a profile of each phase.
///
/// # Panics
/// Panics when the freshly compressed stream fails to decompress — that is
/// a pipeline bug, not an input condition.
pub fn profile_field(field: &Field, spec: DeviceSpec, rel_eb: f64) -> FieldProfile {
    let mut fz = FzGpu::new(spec);
    let c = fz.compress(&field.data, shape_of(field), ErrorBound::RelToRange(rel_eb));
    let compress = fz.profile();
    fz.decompress(&c).expect("roundtrip of a fresh stream");
    FieldProfile { compress, decompress: fz.profile(), ratio: c.ratio() }
}

/// Shape of a field as the core `Shape` tuple.
pub fn shape_of(field: &Field) -> Shape {
    field.dims.as_3d()
}

/// Parse `--flag value` style args; returns the value after `flag`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// True when `--flag` is present.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Pick the dataset scale from CLI args (`--scale full|reduced`).
pub fn scale_from_args(args: &[String]) -> Scale {
    match arg_value(args, "--scale").as_deref() {
        Some("full") => Scale::Full,
        _ => Scale::Reduced,
    }
}

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for c in 0..ncols {
                if c > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<width$}", cells[c], width = widths[c]));
            }
            s.trim_end().to_string()
        };
        let mut out = line(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Geometric-ish mean helper used for "average speedup" summaries.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_core::quant::ErrorBound;
    use fzgpu_sim::device::A100;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--device", "a4000", "--summary"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--device").as_deref(), Some("a4000"));
        assert!(arg_flag(&args, "--summary"));
        assert!(!arg_flag(&args, "--quick"));
    }

    #[test]
    fn fzgpu_runner_roundtrips() {
        let data: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut r = FzGpuRunner::new(A100);
        let run = r.run(&data, (1, 64, 128), Setting::Eb(ErrorBound::RelToRange(1e-3))).unwrap();
        assert!(run.ratio(data.len()) > 1.0);
        assert!(psnr(&data, &run.reconstructed) > 50.0);
    }

    #[test]
    fn zfp_psnr_match_converges() {
        let data: Vec<f32> = (0..4096).map(|i| ((i % 64) as f32 * 0.2).sin()).collect();
        let mut zfp = CuZfp::new(A100);
        let (rate, run) = zfp_match_psnr(&mut zfp, &data, (1, 64, 64), 70.0).unwrap();
        let p = psnr(&data, &run.reconstructed);
        assert!((p - 70.0).abs() <= 15.0, "rate {rate} psnr {p}");
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }
}
