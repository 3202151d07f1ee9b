//! Regression gate: fresh deterministic suite vs the committed baseline.
//!
//! ```text
//! cargo run -p fzgpu-bench --bin regress -- --check            # gate (CI)
//! cargo run -p fzgpu-bench --bin regress -- --update           # refresh baseline
//! cargo run -p fzgpu-bench --bin regress -- --baseline b.json  # custom path
//! cargo run -p fzgpu-bench --bin regress -- --check --engine analytic
//! ```
//!
//! Checking is the default mode; `--check` only says so, and it cannot go
//! with `--update`. `--device` and `--eb` pick the suite's device and
//! range-relative error bound.
//!
//! `--engine analytic` runs the suite on the analytic simulation engine —
//! the compared metrics are engine-invariant by construction, so checking
//! an analytic run against the interpreted baseline doubles as an
//! equivalence gate at a fraction of the wall time.
//!
//! `--check` exits nonzero when any metric regressed past its threshold
//! (see `fzgpu_bench::regress::Thresholds`), or when any dataset's fresh
//! modeled decompress exceeds 2.5x its compress (`regress::asymmetry`).
//! Every compared metric is modeled/deterministic, so a failure is a real
//! code-behavior change, not machine noise. Writes `results/regress.txt`
//! either way.

use std::path::PathBuf;
use std::process::ExitCode;

use fzgpu_bench::regress::{
    asymmetry, compare, parse_baseline, run_suite, to_json, Thresholds,
    MAX_DECOMPRESS_OVER_COMPRESS,
};
use fzgpu_bench::{device_of, parse_args, repo_root, write_exhibit, Table};
use fzgpu_sim::Engine;

const USAGE: &str = "usage:
  regress [--check | --update] [--baseline <b.json>] [--device a100|a4000] [--eb 1e-3]
          [--engine interp|analytic]";

fn main() -> ExitCode {
    let (update, baseline_path, spec, rel_eb, engine) = parse_args(USAGE, |args| {
        if args.has("--check") && args.has("--update") {
            return Err("--check conflicts with --update".into());
        }
        let baseline = args.get("--baseline").map(PathBuf::from);
        let bad = |s| format!("bad --engine '{s}' (expected interp|analytic)");
        let engine = args.get("--engine").map(|s| Engine::parse(s).ok_or_else(|| bad(s)));
        Ok((
            args.has("--update"),
            baseline.unwrap_or_else(|| repo_root().join("BENCH_regress.json")),
            device_of(args)?,
            args.positive("--eb")?.unwrap_or(1e-3),
            engine.transpose()?.unwrap_or_else(Engine::from_env),
        ))
    });

    println!(
        "regress: all catalog datasets, rel eb {rel_eb:.0e}, device {}, engine {}",
        spec.name,
        engine.label()
    );
    let current = run_suite(spec, rel_eb, engine);

    let mut t = Table::new(&[
        "dataset",
        "values",
        "bytes",
        "ratio",
        "compress us",
        "decompress us",
        "compress GB/s",
        "decompress GB/s",
        "d/c",
        "PSNR dB",
    ]);
    for c in &current {
        let gbps = |us: f64| (c.n_values * 4) as f64 / (us * 1e3);
        t.row(vec![
            c.dataset.clone(),
            c.n_values.to_string(),
            c.compressed_bytes.to_string(),
            format!("{:.2}", c.ratio),
            format!("{:.2}", c.compress_modeled_us),
            format!("{:.2}", c.decompress_modeled_us),
            format!("{:.1}", gbps(c.compress_modeled_us)),
            format!("{:.1}", gbps(c.decompress_modeled_us)),
            format!("{:.2}", c.decompress_modeled_us / c.compress_modeled_us),
            format!("{:.2}", c.psnr_db),
        ]);
    }
    let table = t.render();
    print!("{table}");

    let mut report = format!(
        "regression gate: device {}, rel eb {rel_eb:.0e} (all metrics modeled/deterministic)\n\
         d/c: decompress over compress time, at most {MAX_DECOMPRESS_OVER_COMPRESS} on every \
         dataset\n\n",
        spec.name
    );
    report.push_str(&table);

    if update {
        std::fs::write(&baseline_path, to_json(spec.name, rel_eb, &current))
            .expect("write baseline");
        println!("\nbaseline updated: {}", baseline_path.display());
        report.push_str("\nbaseline updated\n");
        write_exhibit("regress", &report, None);
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read baseline {}: {e}\n(run with --update to create it)",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match parse_baseline(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut findings = compare(&baseline, &current, Thresholds::default());
    findings.extend(asymmetry(&current));
    let regressions: Vec<_> = findings.iter().filter(|f| f.regressed).collect();
    println!();
    report.push('\n');
    if findings.is_empty() {
        println!("no metric changed vs baseline");
        report.push_str("no metric changed vs baseline\n");
    }
    for f in &findings {
        let line = f.describe();
        println!("{line}");
        report.push_str(&line);
        report.push('\n');
    }
    let verdict = if regressions.is_empty() {
        format!("PASS ({} datasets, {} benign changes)", current.len(), findings.len())
    } else {
        format!("FAIL ({} regressions — see above)", regressions.len())
    };
    println!("\n{verdict}");
    report.push_str(&format!("\n{verdict}\n"));
    write_exhibit("regress", &report, None);

    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
