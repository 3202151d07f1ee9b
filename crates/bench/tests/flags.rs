//! The bench binaries' flag contract: each parses argv against its `USAGE`
//! entry before it does any work, so an unknown flag or a bad value is one
//! `error:` line on stderr and exit 1, with nothing run or written. Every
//! case here fails at parse, so no simulation runs.

use std::path::Path;
use std::process::Command;

/// Every bench binary, with the path cargo built it at.
const BINS: [(&str, &str); 16] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    ("cpu_comparison", env!("CARGO_BIN_EXE_cpu_comparison")),
    ("fig1_pipeline", env!("CARGO_BIN_EXE_fig1_pipeline")),
    ("fig7_rate_distortion", env!("CARGO_BIN_EXE_fig7_rate_distortion")),
    ("fig8_throughput", env!("CARGO_BIN_EXE_fig8_throughput")),
    ("fig10_optimizations", env!("CARGO_BIN_EXE_fig10_optimizations")),
    ("fig11_overall", env!("CARGO_BIN_EXE_fig11_overall")),
    ("fig12_quality", env!("CARGO_BIN_EXE_fig12_quality")),
    ("profiles", env!("CARGO_BIN_EXE_profiles")),
    ("regress", env!("CARGO_BIN_EXE_regress")),
    ("robustness", env!("CARGO_BIN_EXE_robustness")),
    ("service", env!("CARGO_BIN_EXE_service")),
    ("store", env!("CARGO_BIN_EXE_store")),
    ("table1_datasets", env!("CARGO_BIN_EXE_table1_datasets")),
    ("wallclock", env!("CARGO_BIN_EXE_wallclock")),
];

/// Run `bin` with `args` in `cwd` and return its one stderr line, checking
/// that it exits 1 and prints nothing on stdout.
fn error_line_in(cwd: &Path, bin: &str, args: &[&str]) -> String {
    let (_, exe) = BINS.iter().find(|(name, _)| *name == bin).expect("a bench binary");
    let out = Command::new(exe).args(args).current_dir(cwd).output().expect("spawn");
    let run = format!("`{bin} {}`", args.join(" "));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(out.status.code(), Some(1), "{run} must exit 1, stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{run} must fail before printing anything");
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(
        lines.len() == 1 && lines[0].starts_with("error: "),
        "{run} must print exactly one `error:` line, got: {stderr:?}"
    );
    lines[0].to_string()
}

fn error_line(bin: &str, args: &[&str]) -> String {
    error_line_in(Path::new(env!("CARGO_MANIFEST_DIR")), bin, args)
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (bin, _) in BINS {
        assert_eq!(error_line(bin, &["--bogus"]), format!("error: {bin}: unknown flag --bogus"));
    }
}

#[test]
fn bad_values_and_surplus_arguments_are_one_line_errors() {
    let cases: [(&str, &[&str], &str); 9] = [
        ("regress", &["--check", "--update"], "error: --check conflicts with --update"),
        (
            "regress",
            &["--engine", "quantum"],
            "error: bad --engine 'quantum' (expected interp|analytic)",
        ),
        ("regress", &["--eb", "inf"], "error: --eb must be finite and positive"),
        ("fig8_throughput", &["--device", "a5000"], "error: unknown device 'a5000'"),
        ("fig1_pipeline", &["--scale", "ful"], "error: bad --scale 'ful' (expected reduced|full)"),
        ("profiles", &["--eb", "abc"], "error: bad --eb value 'abc'"),
        ("profiles", &["--out"], "error: profiles: --out needs a value"),
        ("wallclock", &["--smoke", "--smoke"], "error: wallclock: --smoke given twice"),
        ("table1_datasets", &["extra"], "error: table1_datasets: unexpected argument 'extra'"),
    ];
    for (bin, args, want) in cases {
        assert_eq!(error_line(bin, args), want, "`{bin} {}`", args.join(" "));
    }
}

/// A misspelled flag used to be skipped, so `--update --baselin x.json`
/// rewrote the committed baseline instead of `x.json`.
#[test]
fn a_misspelled_flag_writes_nothing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = ["BENCH_regress.json", "results/regress.txt"].map(|f| root.join(f));
    let before = committed.each_ref().map(|f| std::fs::read(f).ok());
    let cwd = std::env::temp_dir().join(format!("fzgpu_bench_flags_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let err = error_line_in(&cwd, "regress", &["--update", "--baselin", "x.json"]);
    assert_eq!(err, "error: regress: unknown flag --baselin");
    assert_eq!(committed.each_ref().map(|f| std::fs::read(f).ok()), before);
    assert!(!cwd.join("x.json").exists());
    let _ = std::fs::remove_dir_all(&cwd);
}
