//! Observability harness: emit a per-kernel profile for every synthetic
//! SDRBench dataset's full compress+decompress round trip.
//!
//! Per dataset this writes `<out>/<dataset>.trace.json` (Chrome Trace
//! Event Format — open in `chrome://tracing` or Perfetto) and
//! `<out>/<dataset>.profile.txt` (the text report with roofline
//! attribution), then prints a stage-share summary table across datasets.
//!
//! ```text
//! cargo run -p fzgpu-bench --bin profiles [-- [--out target/profiles] \
//!     [--device a100|a4000] [--eb 1e-3] [--scale reduced|full]]
//! ```

use std::path::PathBuf;

use fzgpu_bench::{device_of, fmt, parse_args, profile_field, scale_of, Table};
use fzgpu_core::gpu::stage_of;
use fzgpu_data::CATALOG;
use fzgpu_sim::Profile;

const USAGE: &str = "usage:
  profiles [--out <dir>] [--device a100|a4000] [--eb 1e-3] [--scale reduced|full]";

/// Total kernel time of `profile` spent in `stage`, seconds.
fn stage_time(profile: &Profile, stage: &str) -> f64 {
    profile.kernels().filter(|k| stage_of(&k.name) == stage).map(|k| k.time).sum()
}

fn main() {
    let (out_dir, spec, rel_eb, scale) = parse_args(USAGE, |args| {
        let out_dir = PathBuf::from(args.get("--out").unwrap_or("target/profiles"));
        Ok((out_dir, device_of(args)?, args.positive("--eb")?.unwrap_or(1e-3), scale_of(args)?))
    });
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    println!("Kernel profiles on {} @ rel eb {rel_eb:.0e}\n", spec.name);
    let mut t = Table::new(&[
        "dataset",
        "ratio",
        "compress us",
        "quant %",
        "shuffle %",
        "scan %",
        "compact %",
        "decompress us",
    ]);
    for info in &CATALOG {
        let field = info.generate(scale);
        let fp = profile_field(&field, spec, rel_eb);
        let ct = fp.compress.kernel_time();
        let share = |stage| fmt(stage_time(&fp.compress, stage) / ct * 100.0);
        t.row(vec![
            info.name.into(),
            fmt(fp.ratio),
            fmt(ct * 1e6),
            share("quantize"),
            share("shuffle"),
            share("scan"),
            share("compact"),
            fmt(fp.decompress.kernel_time() * 1e6),
        ]);

        let joined = fp.joined();
        let base = out_dir.join(info.name);
        std::fs::write(base.with_extension("trace.json"), joined.chrome_trace_json())
            .expect("write trace");
        std::fs::write(base.with_extension("profile.txt"), joined.text_report())
            .expect("write report");
    }
    print!("{}", t.render());
    println!("\ntraces and reports written to {}", out_dir.display());
}
