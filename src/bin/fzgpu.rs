//! `fzgpu` — command-line compressor over raw f32 fields, mirroring the
//! real FZ-GPU binary's interface (`fz-gpu <file> <dims> <eb>`). `USAGE`
//! lists every subcommand and is the only place a flag is declared:
//! `fzgpu_trace::cli` reads each subcommand's grammar off its entry.

use std::path::Path;
use std::process::ExitCode;

use fz_gpu::core::archive::ARCHIVE_MAGIC;
use fz_gpu::core::{
    Archive, ChunkHealth, ErrorBound, FillPolicy, FzGpu, FzOptions, Header, PipelinePath,
};
use fz_gpu::data::io::{parse_dims, read_f32_file, read_f32_file_flat, write_f32_file};
use fz_gpu::metrics::{max_abs_error, psnr};
use fz_gpu::sim::device;
use fz_gpu::trace::cli::Args;
use fz_gpu::trace::json::{self, Layout, Obj};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // One line on stderr, nonzero exit — uniform across subcommands
            // so scripts can match on `error:`. The full usage text only
            // helps when the subcommand itself was wrong or absent.
            eprintln!("error: {msg}");
            if msg.contains("subcommand") {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fzgpu compress   <input.f32> <output.fz>  --dims ZxYxX --eb 1e-3 [--abs] [--device a100|a4000]
                   [--native | --path sim|native|both] [--engine interp|analytic] [--trace out.json]
  fzgpu decompress <input.fz>  <output.f32> [--device a100|a4000]
                   [--native | --path sim|native|both] [--engine interp|analytic] [--trace out.json]
  fzgpu info       <input.fz>
  fzgpu bench      <input.f32> --dims ZxYxX [--eb 1e-3] [--abs] [--device a100|a4000]
                   [--native | --path sim|native|both] [--engine interp|analytic]
  fzgpu profile    (<input.f32> --dims ZxYxX | --synthetic <dataset>) [--eb 1e-3] [--abs]
                   [--device a100|a4000] [--engine interp|analytic]
                   [--trace out.json] [--report out.txt | --json]
                   (datasets: HACC CESM Hurricane Nyx QMCPACK RTM)
  fzgpu stats      (<input.f32> --dims ZxYxX | --synthetic <dataset>) [--eb 1e-3] [--abs]
                   [--device a100|a4000] [--engine interp|analytic] [--timings] [--json]
  fzgpu archive    <input.f32> <output.fzar> --chunk-values N [--shard-chunks N] [--eb 1e-3]
                   [--abs] [--device ...] [--native | --path sim|native|both]
                   [--engine interp|analytic] [--trace out.json]
  fzgpu verify     <input.fz|input.fzar>
  fzgpu extract    <input.fzar> <output.f32> [--degraded [--fill nan|zero]] [--device ...]
                   [--native | --path sim|native|both] [--engine interp|analytic]
  fzgpu serve      --replay <workload.json> [--streams N] [--no-pool] [--batch N]
                   [--queue-depth N] [--backpressure reject|block] [--timings] [--json]
                   [--native | --path sim|native|both] [--engine interp|analytic] [--trace out.json]
                   [--deadline-us T] [--retries N] [--backoff-us T] [--shed-priority]
                   [--no-breaker] [--fault-seed S] [--fault-rate P [--fault-streak N]]
                   [--stall-rate P [--stall-us T]] [--loss-at-us T [--repair-us T]]
                   [--telemetry <dir> [--telemetry-window-us T] [--flight-capacity N]]
  fzgpu report     <telemetry-dir>
  fzgpu store create <input.f32> <store.fzst> --dims 256x256x256 --chunk 64x64x64
                   [--codec fz|cusz|cusz-rle|cuszx|cuzfp|mgard|sz-omp|huffman|rle|lz77|deflate|raw]
                   [--eb 1e-3] [--abs] [--rate 8] [--shard-chunks N] [--backend mem|fs|objsim]
                   [--device a100|a4000]
  fzgpu store read <store.fzst> <output.f32> [--region 0:64,0:64,0:64] [--backend mem|fs|objsim]
                   [--device a100|a4000] [--json]
  fzgpu store stat <store.fzst> [--backend mem|fs|objsim] [--json]
  fzgpu store serve <store.fzst> [--reads N] [--seed S] [--backend mem|fs|objsim]
                   [--device a100|a4000] [--json]";

type Handler = fn(&Args) -> Result<(), String>;

/// Every subcommand with its handler, in `USAGE` order.
const COMMANDS: [(&str, Handler); 15] = [
    ("compress", compress),
    ("decompress", decompress),
    ("info", info),
    ("bench", bench),
    ("profile", profile),
    ("stats", stats),
    ("archive", archive),
    ("verify", verify),
    ("extract", extract),
    ("serve", serve),
    ("report", report_cmd),
    ("store create", store_create),
    ("store read", store_read),
    ("store stat", store_stat),
    ("store serve", store_serve),
];

fn device_of(args: &Args) -> Result<fz_gpu::sim::DeviceSpec, String> {
    let name = args.get("--device").unwrap_or("a100");
    device::by_name(name).ok_or_else(|| format!("unknown device '{name}'"))
}

/// Pipeline-path selection: `--native` is shorthand for `--path native`;
/// `--path` takes sim|native|both; neither flag falls back to the
/// `FZGPU_NATIVE` environment variable (default: simulated).
fn path_of(args: &Args) -> Result<PipelinePath, String> {
    let bad = |s| format!("bad --path '{s}' (expected sim|native|both)");
    let flagged = args.get("--path").map(|s| PipelinePath::parse(s).ok_or_else(|| bad(s)));
    let flagged = flagged.transpose()?;
    if args.has("--native") {
        if flagged.is_some_and(|p| p != PipelinePath::Native) {
            return Err("--native conflicts with --path".into());
        }
        return Ok(PipelinePath::Native);
    }
    Ok(flagged.unwrap_or_else(PipelinePath::from_env))
}

/// Simulation-engine selection: `--engine` takes interp|analytic; absent,
/// falls back to the `FZGPU_SIM_ENGINE` environment variable (default:
/// interpreted). Either engine produces bit-identical streams, timelines,
/// and counters; analytic just skips the per-block interpreter.
fn engine_of(args: &Args) -> Result<fz_gpu::sim::Engine, String> {
    use fz_gpu::sim::Engine;
    let bad = |s| format!("bad --engine '{s}' (expected interp|analytic)");
    let engine = args.get("--engine").map(|s| Engine::parse(s).ok_or_else(|| bad(s)));
    Ok(engine.transpose()?.unwrap_or_else(Engine::from_env))
}

/// Build the compressor honoring `--device` and the pipeline path flags.
fn fz_of(args: &Args) -> Result<FzGpu, String> {
    let opts = FzOptions { path: path_of(args)?, engine: engine_of(args)?, ..FzOptions::default() };
    Ok(FzGpu::with_options(device_of(args)?, opts))
}

/// Which clock to report for an op that started at `t0`: native work has no
/// modeled timeline, so its host wallclock is the honest figure; simulated
/// (and Both, whose result is the simulated run) reports modeled device time.
fn clock_of(fz: &FzGpu, t0: std::time::Instant) -> (f64, &'static str) {
    if fz.path() == PipelinePath::Native {
        (t0.elapsed().as_secs_f64(), "host")
    } else {
        (fz.kernel_time(), "modeled")
    }
}

/// `--eb` (and `--abs`) checked against the field it bounds. A relative
/// bound over data holding ±inf resolves to an infinite bound: rejected
/// here like `--eb inf`, before anything runs or is written.
fn eb_for(args: &Args, data: &[f32]) -> Result<ErrorBound, String> {
    let eb = args.positive("--eb")?.unwrap_or(1e-3);
    let eb = if args.has("--abs") { ErrorBound::Abs(eb) } else { ErrorBound::RelToRange(eb) };
    eb.try_resolve(data).map_err(|abs| {
        format!("--eb must be finite and positive; over this input it resolves to {abs}")
    })?;
    Ok(eb)
}

/// Dispatch on the subcommand (one word, or two for `store`), parsing the
/// rest of argv against its grammar.
fn run(argv: &[String]) -> Result<(), String> {
    let words = |name: &str| name.split(' ').count();
    let found = COMMANDS.iter().find(|(name, _)| argv.iter().take(words(name)).eq(name.split(' ')));
    let Some(&(name, handler)) = found else {
        let subs = "(expected create|read|stat|serve)";
        return Err(match argv {
            [] => "missing subcommand".into(),
            [s] if s == "store" => format!("missing store subcommand {subs}"),
            [s, sub, ..] if s == "store" => format!("unknown store subcommand '{sub}' {subs}"),
            [other, ..] => format!("unknown subcommand '{other}'"),
        });
    };
    handler(&Args::from_argv(USAGE, name, &argv[words(name)..])?)
}

fn load_field(args: &Args, path: &str) -> Result<fz_gpu::data::Field, String> {
    let dims_str = args.get("--dims").ok_or("missing --dims ZxYxX")?;
    let dims = parse_dims(dims_str).ok_or_else(|| format!("bad --dims '{dims_str}'"))?;
    read_f32_file(Path::new(path), dims).map_err(|e| e.to_string())
}

/// Shared input selection for `profile` / `stats`: either a raw file with
/// `--dims`, or a generated `--synthetic <dataset>` field.
fn field_of(args: &Args) -> Result<fz_gpu::data::Field, String> {
    if let Some(name) = args.get("--synthetic") {
        let info = fz_gpu::data::dataset(name)
            .ok_or_else(|| format!("unknown synthetic dataset '{name}'"))?;
        Ok(info.generate(fz_gpu::data::Scale::Reduced))
    } else {
        load_field(args, args.pos(0, "input path or --synthetic <dataset>")?)
    }
}

/// Run `f` with host-span capture when `--trace <path>` is present, then
/// join the captured spans with the modeled device profile `f` returns and
/// write one unified Chrome trace (pid 0 = modeled device, pid 1 = host
/// wallclock). Without the flag, `f` runs untraced.
fn with_unified_trace<T>(
    args: &Args,
    f: impl FnOnce() -> Result<(T, fz_gpu::sim::Profile), String>,
) -> Result<T, String> {
    let Some(path) = args.get("--trace") else {
        return f().map(|(v, _)| v);
    };
    fz_gpu::trace::begin_capture();
    let result = f();
    let host = fz_gpu::trace::end_capture();
    let (value, prof) = result?;
    std::fs::write(path, prof.unified_chrome_trace(&host)).map_err(|e| e.to_string())?;
    println!("wrote unified trace to {path} (modeled device + host wallclock tracks)");
    Ok(value)
}

fn compress(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let field = load_field(args, input)?;
    let eb = eb_for(args, &field.data)?;
    let mut fz = fz_of(args)?;
    let t0 = std::time::Instant::now();
    let c = with_unified_trace(args, || {
        let c = fz.compress(&field.data, field.dims.as_3d(), eb);
        let prof = fz.profile();
        Ok((c, prof))
    })?;
    let (secs, clock) = clock_of(&fz, t0);
    std::fs::write(output, &c.bytes).map_err(|e| e.to_string())?;
    println!(
        "{} -> {}: {:.2} MB -> {:.2} MB (ratio {:.1}x), eb {:.3e}, {:.2} ms {} on {}",
        input,
        output,
        field.size_bytes() as f64 / 1e6,
        c.bytes.len() as f64 / 1e6,
        c.ratio(),
        c.header.eb,
        secs * 1e3,
        clock,
        fz.gpu().spec().name,
    );
    Ok(())
}

fn decompress(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    let mut fz = fz_of(args)?;
    let t0 = std::time::Instant::now();
    let values = with_unified_trace(args, || {
        let values = fz.decompress_bytes(&bytes).map_err(|e| e.to_string())?;
        let prof = fz.profile();
        Ok((values, prof))
    })?;
    let (secs, clock) = clock_of(&fz, t0);
    write_f32_file(Path::new(output), &values).map_err(|e| e.to_string())?;
    println!(
        "{} -> {}: {} values, {:.2} ms {} on {}",
        input,
        output,
        values.len(),
        secs * 1e3,
        clock,
        fz.gpu().spec().name,
    );
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    let header = Header::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let (nz, ny, nx) = header.shape;
    println!("FZ-GPU stream: {input}");
    println!("  shape:        {nz} x {ny} x {nx} ({} values)", header.n_values);
    println!("  error bound:  {:.6e} (absolute)", header.eb);
    println!("  zero blocks:  {} of {} present", header.payload_words / 4, header.num_blocks);
    println!("  stream size:  {} bytes", header.stream_bytes());
    println!("  ratio:        {:.2}x", (header.n_values * 4) as f64 / header.stream_bytes() as f64);
    Ok(())
}

fn profile(args: &Args) -> Result<(), String> {
    if args.has("--report") && args.has("--json") {
        return Err("--report writes the text report, so it cannot go with --json".into());
    }
    let field = field_of(args)?;
    let eb = eb_for(args, &field.data)?;
    let opts = FzOptions { engine: engine_of(args)?, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(device_of(args)?, opts);
    let shape = field.dims.as_3d();

    let tracing = args.has("--trace");
    if tracing {
        fz_gpu::trace::begin_capture();
    }
    let c = fz.compress(&field.data, shape, eb);
    let compress_stages = fz.stage_times();
    let mut prof = fz.profile();
    fz.decompress(&c).map_err(|e| e.to_string())?;
    let decompress_stages = fz.stage_times();
    prof.append(&fz.profile());
    let host = if tracing { fz_gpu::trace::end_capture() } else { fz_gpu::trace::Trace::default() };

    if args.has("--json") {
        let spec = fz.gpu().spec();
        let device = Obj::spaced().str("name", spec.name).raw("copy_engines", spec.copy_engines);
        let doc = Obj::spaced()
            .str("dataset", field.dataset)
            .str("field", &field.name)
            .str("dims", &field.dims.to_string_paper())
            .num("eb", c.header.eb)
            .num("ratio", c.ratio())
            .raw("device", device.finish())
            .raw("profile", prof.to_json());
        println!("{}", doc.finish());
    } else {
        println!(
            "{} / {} ({}, {:.2} MB), eb {:.3e}, ratio {:.2}x",
            field.dataset,
            field.name,
            field.dims.to_string_paper(),
            field.size_bytes() as f64 / 1e6,
            c.header.eb,
            c.ratio(),
        );
        let spec = fz.gpu().spec();
        println!(
            "device: {} — {} SMs, {:.0} GB/s HBM, {} copy engine(s), {:.1} GB/s PCIe",
            spec.name,
            spec.sm_count,
            spec.mem_bandwidth / 1e9,
            spec.copy_engines,
            spec.pcie_peak / 1e9,
        );
        println!();
        let report = prof.text_report();
        print!("{report}");
        println!();
        for (label, stages) in [("compress", compress_stages), ("decompress", decompress_stages)] {
            let total: f64 = stages.iter().map(|(_, t)| t).sum();
            println!("{label} stages ({:.2} us):", total * 1e6);
            for (stage, t) in stages {
                println!("  {stage:<12} {:>9.2} us  ({:>4.1}%)", t * 1e6, t / total * 100.0);
            }
        }
        if let Some(path) = args.get("--report") {
            std::fs::write(path, &report).map_err(|e| e.to_string())?;
            println!("wrote report to {path}");
        }
    }

    if let Some(path) = args.get("--trace") {
        std::fs::write(path, prof.unified_chrome_trace(&host)).map_err(|e| e.to_string())?;
        println!("wrote unified trace to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let field = field_of(args)?;
    let eb = eb_for(args, &field.data)?;
    fz_gpu::trace::metrics::reset();
    let opts = FzOptions { engine: engine_of(args)?, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(device_of(args)?, opts);
    let c = fz.compress(&field.data, field.dims.as_3d(), eb);
    fz.decompress(&c).map_err(|e| e.to_string())?;
    // Deterministic metrics only by default: the exposition is then
    // byte-identical across thread counts and machines. --timings adds the
    // wallclock class (host durations, pool steals).
    let include_wall = args.has("--timings");
    if args.has("--json") {
        println!("{}", fz_gpu::trace::metrics::to_json(include_wall));
    } else {
        print!("{}", fz_gpu::trace::metrics::exposition(include_wall));
    }
    Ok(())
}

fn archive(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let chunk_values = args.count("--chunk-values")?.ok_or("missing --chunk-values N")?;
    let data = read_f32_file_flat(Path::new(input)).map_err(|e| format!("{input}: {e}"))?.data;
    let eb = eb_for(args, &data)?;
    let mut fz = fz_of(args)?;
    let a = with_unified_trace(args, || {
        Ok(Archive::compress_profiled(&mut fz, &data, chunk_values, eb))
    })?;
    // --shard-chunks upgrades the on-disk layout to archive v3 (sharded
    // chunk index, range-readable by `fzgpu store`); without it the flat
    // v2 layout is kept for compatibility with older readers.
    let (bytes, layout) = match args.count("--shard-chunks")? {
        Some(n) => {
            let sharded = fz_gpu::core::ShardedArchive::from_archive(&a, n);
            (sharded.to_bytes(), format!("v3, {} shards", sharded.shards.len()))
        }
        None => (a.to_bytes(), "v2, flat".to_string()),
    };
    std::fs::write(output, &bytes).map_err(|e| e.to_string())?;
    println!(
        "{} -> {}: {} values in {} chunks ({layout}), {:.2} MB -> {:.2} MB (ratio {:.1}x)",
        input,
        output,
        a.total_values,
        a.chunks.len(),
        (a.total_values * 4) as f64 / 1e6,
        bytes.len() as f64 / 1e6,
        (a.total_values * 4) as f64 / bytes.len() as f64,
    );
    Ok(())
}

fn verify(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    if bytes.len() >= 4 && bytes[..4] == ARCHIVE_MAGIC {
        let a = Archive::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
        let report = a.scrub();
        println!("FZ-GPU archive: {input} ({} chunks, {} values)", a.chunks.len(), a.total_values);
        for (i, health) in report.chunks.iter().enumerate() {
            let verdict = match health {
                ChunkHealth::Healthy => "ok".to_string(),
                ChunkHealth::Unverified => "unverified (v1, no checksums)".to_string(),
                ChunkHealth::Corrupt(e) => format!("CORRUPT: {e}"),
            };
            println!("  chunk {i:>4}: {:>10} bytes  {verdict}", a.chunks[i].len());
        }
        if report.is_clean() {
            println!("archive OK ({} chunks verified)", report.chunks.len());
            Ok(())
        } else {
            Err(format!(
                "{} of {} chunks corrupt (recover the rest with `fzgpu extract --degraded`)",
                report.corrupt_count(),
                report.chunks.len()
            ))
        }
    } else {
        let header = fz_gpu::core::format::verify(&bytes).map_err(|e| format!("{input}: {e}"))?;
        let (nz, ny, nx) = header.shape;
        println!("FZ-GPU stream: {input}");
        println!("  version:      {}", header.version);
        println!("  shape:        {nz} x {ny} x {nx} ({} values)", header.n_values);
        if header.version >= 2 {
            println!("stream OK (header + payload checksums verified)");
        } else {
            println!("stream structurally OK (v1 carries no checksums)");
        }
        Ok(())
    }
}

fn extract(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    let a = Archive::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    let mut fz = fz_of(args)?;
    let values = if args.has("--degraded") {
        let fill = match args.get("--fill").unwrap_or("nan") {
            "nan" => FillPolicy::NaN,
            "zero" => FillPolicy::Zero,
            other => return Err(format!("bad --fill '{other}' (expected nan|zero)")),
        };
        let out = a.decompress_degraded(&mut fz, fill);
        if out.filled_values > 0 {
            println!(
                "recovered {} of {} values; {} filled from {} corrupt chunk(s)",
                out.data.len() - out.filled_values,
                out.data.len(),
                out.filled_values,
                out.report.corrupt_count(),
            );
        }
        out.data
    } else {
        a.decompress(&mut fz)
            .map_err(|e| format!("{input}: {e} (use --degraded to recover intact chunks)"))?
    };
    write_f32_file(Path::new(output), &values).map_err(|e| e.to_string())?;
    println!("{} -> {}: {} values from {} chunks", input, output, values.len(), a.chunks.len());
    Ok(())
}

fn bench(args: &Args) -> Result<(), String> {
    let input = args.pos(0, "input path")?;
    let field = load_field(args, input)?;
    let eb = eb_for(args, &field.data)?;
    let mut fz = fz_of(args)?;
    let shape = field.dims.as_3d();
    let t0 = std::time::Instant::now();
    let c = fz.compress(&field.data, shape, eb);
    let (t_c, clock) = clock_of(&fz, t0);
    let t1 = std::time::Instant::now();
    let restored = fz.decompress(&c).map_err(|e| e.to_string())?;
    let (t_d, _) = clock_of(&fz, t1);
    let bytes = field.size_bytes() as f64;
    println!("field:           {} ({:.2} MB)", field.dims.to_string_paper(), bytes / 1e6);
    println!("error bound:     {:.3e} (absolute)", c.header.eb);
    println!("ratio:           {:.2}x", c.ratio());
    println!("compress:        {:.3} ms  ({:.1} GB/s {clock})", t_c * 1e3, bytes / t_c / 1e9);
    println!("decompress:      {:.3} ms  ({:.1} GB/s {clock})", t_d * 1e3, bytes / t_d / 1e9);
    println!("max error:       {:.3e}", max_abs_error(&field.data, &restored));
    println!("PSNR:            {:.2} dB", psnr(&field.data, &restored));
    Ok(())
}

/// Parse the failure-domain flags into a [`fz_gpu::serve::ResilienceConfig`].
/// Every flag validates eagerly with a one-line error; with none present
/// the config is inert and the replay is byte-identical to the
/// pre-failure-domain behavior.
fn resilience_of(args: &Args) -> Result<fz_gpu::serve::ResilienceConfig, String> {
    use fz_gpu::serve::ResilienceConfig;
    use fz_gpu::sim::{RetryPolicy, ServiceFaultPlan};

    let mut res = ResilienceConfig::default();
    if let Some(max_retries) = args.parse("--retries")? {
        res.retry = RetryPolicy { max_retries, ..RetryPolicy::default() };
    }
    if let Some(b) = args.micros("--backoff-us")? {
        res.retry.backoff_base = b;
    }
    res.deadline = args.micros("--deadline-us")?;
    if res.deadline == Some(0.0) {
        return Err("--deadline-us must be positive".into());
    }
    res.shed_by_priority = args.has("--shed-priority");
    res.breaker = !args.has("--no-breaker");

    let mut plan = ServiceFaultPlan::seeded(args.parse("--fault-seed")?.unwrap_or(0));
    if let Some(p) = args.prob("--fault-rate")? {
        plan = plan.job_faults(p, args.parse("--fault-streak")?.unwrap_or(3));
    }
    if let Some(p) = args.prob("--stall-rate")? {
        plan = plan.stalls(p, args.micros("--stall-us")?.unwrap_or(50e-6));
    }
    if let Some(at) = args.micros("--loss-at-us")? {
        plan = plan.device_loss(at, args.micros("--repair-us")?);
    }
    res.faults = plan;
    Ok(res)
}

fn serve(args: &Args) -> Result<(), String> {
    use fz_gpu::serve::{Backpressure, ServeConfig, Service, TelemetryConfig, Workload};

    let path = args.get("--replay").ok_or("missing --replay <workload.json>")?;
    let workload = Workload::from_file(path)?;

    let tel = TelemetryConfig::default();
    let telemetry = TelemetryConfig {
        window: args.micros("--telemetry-window-us")?.unwrap_or(tel.window),
        flight_capacity: args.count("--flight-capacity")?.unwrap_or(tel.flight_capacity),
        ..tel
    };
    if telemetry.window == 0.0 {
        return Err("--telemetry-window-us must be positive".into());
    }
    let base = ServeConfig::default();
    let cfg = ServeConfig {
        streams: args.count("--streams")?.unwrap_or(base.streams),
        pool: !args.has("--no-pool"),
        batch_max: args.count("--batch")?.unwrap_or(base.batch_max),
        queue_depth: args.count("--queue-depth")?.unwrap_or(base.queue_depth),
        backpressure: match args.get("--backpressure").unwrap_or("reject") {
            "reject" => Backpressure::Reject,
            "block" => Backpressure::Block,
            other => return Err(format!("bad --backpressure '{other}' (expected reject|block)")),
        },
        path: path_of(args)?,
        engine: engine_of(args)?,
        capture_trace: args.has("--trace"),
        resilience: resilience_of(args)?,
        telemetry: args.has("--telemetry").then_some(telemetry),
        ..base
    };

    let report = Service::new(cfg).run(&workload);

    // Wallclock timings are off by default so the output is byte-identical
    // across machines and FZGPU_THREADS settings (the replay determinism
    // contract); --timings adds the host clock domain.
    let include_wall = args.has("--timings");
    if args.has("--json") {
        println!("{}", report.to_json(include_wall));
    } else {
        print!("{}", report.text_report(include_wall));
    }
    if let Some(out) = args.get("--trace") {
        std::fs::write(out, &report.stream_trace).map_err(|e| e.to_string())?;
        println!("wrote stream timeline trace to {out} (open in chrome://tracing or Perfetto)");
    }
    if let Some(dir) = args.get("--telemetry") {
        let capture = report.telemetry.as_ref().expect("telemetry was configured");
        capture.write_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
        // Deterministic summary (no wallclock): safe to diff across runs.
        println!(
            "wrote telemetry to {dir}: {} events, {} alerts, {} flight dumps (render with `fzgpu report {dir}`)",
            capture.events.len(),
            capture.alert_seqs.len(),
            capture.dumps.len(),
        );
    }
    Ok(())
}

/// Render the text dashboard for a telemetry directory produced by
/// `fzgpu serve --telemetry <dir>`.
fn report_cmd(args: &Args) -> Result<(), String> {
    let dir = args.pos(0, "telemetry directory (from `fzgpu serve --telemetry <dir>`)")?;
    print!("{}", fz_gpu::serve::render_report(Path::new(dir))?);
    Ok(())
}

/// Parse `ZxYxX`-style extents of any rank (the store is n-D; `parse_dims`
/// is fixed to the paper's 3D naming).
fn parse_extents(s: &str, what: &str) -> Result<Vec<usize>, String> {
    let out: Result<Vec<usize>, _> = s.split('x').map(str::parse::<usize>).collect();
    match out {
        Ok(v) if !v.is_empty() && v.iter().all(|&e| e > 0) => Ok(v),
        _ => Err(format!("bad {what} '{s}' (expected AxBxC with positive extents)")),
    }
}

/// Parse `--region a:b,c:d,...` (half-open per-axis ranges).
fn parse_region(s: &str) -> Result<fz_gpu::store::Region, String> {
    let mut lo = Vec::new();
    let mut hi = Vec::new();
    for part in s.split(',') {
        let (a, b) = part
            .split_once(':')
            .ok_or_else(|| format!("bad --region '{s}' (expected a:b,c:d,... per axis)"))?;
        let a: usize = a.trim().parse().map_err(|_| format!("bad --region bound '{part}'"))?;
        let b: usize = b.trim().parse().map_err(|_| format!("bad --region bound '{part}'"))?;
        lo.push(a);
        hi.push(b);
    }
    Ok(fz_gpu::store::Region { lo, hi })
}

/// Build the codec config from `--codec` plus its knobs, resolving
/// relative error bounds against the input data.
fn codec_of(args: &Args, data: &[f32]) -> Result<fz_gpu::store::CodecConfig, String> {
    let name = args.get("--codec").unwrap_or("fz");
    let eb_abs = if args.has("--eb") { Some(eb_for(args, data)?.resolve(data)) } else { None };
    fz_gpu::store::CodecConfig::from_cli(name, eb_abs, args.parse("--rate")?)
}

/// Build the backend for an existing container file. `mem` and `objsim`
/// load the file into memory (objsim then charges its modeled cost per
/// range read); `fs` serves range reads straight from the file.
fn store_backend_open(
    args: &Args,
    path: &str,
) -> Result<Box<dyn fz_gpu::store::StorageBackend>, String> {
    use fz_gpu::store::{FsBackend, MemBackend, ObjectStoreBackend, ObjectStoreModel};
    let bytes = || std::fs::read(path).map_err(|e| format!("{path}: {e}"));
    match args.get("--backend").unwrap_or("fs") {
        "fs" => Ok(Box::new(FsBackend::new(path))),
        "mem" => Ok(Box::new(MemBackend::from_bytes(bytes()?))),
        "objsim" => {
            Ok(Box::new(ObjectStoreBackend::from_bytes(bytes()?, ObjectStoreModel::default())))
        }
        other => Err(format!("unknown backend '{other}' (expected mem, fs, or objsim)")),
    }
}

fn store_create(args: &Args) -> Result<(), String> {
    use fz_gpu::store::{ArrayStore, StoreSpec};

    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let dims = parse_extents(args.get("--dims").ok_or("missing --dims AxBxC")?, "--dims")?;
    let chunk = parse_extents(args.get("--chunk").ok_or("missing --chunk AxBxC")?, "--chunk")?;
    let data = read_f32_file_flat(Path::new(input)).map_err(|e| format!("{input}: {e}"))?.data;
    let codec = codec_of(args, &data)?;
    let chunks_per_shard = args.count("--shard-chunks")?.unwrap_or(16);
    let spec = StoreSpec { dims, chunk, codec, chunks_per_shard };
    // Encode into the selected backend (so objsim models the write), then
    // persist the container at the output path.
    let mut backend =
        fz_gpu::store::backend_from_cli(args.get("--backend").unwrap_or("mem"), Some(output))?;
    ArrayStore::write(&mut backend, &spec, &data, device_of(args)?).map_err(|e| e.to_string())?;
    let total = backend.len();
    if backend.kind() != "fs" {
        let bytes = backend.read_range(0, total).map_err(|e| e.to_string())?;
        std::fs::write(output, &bytes).map_err(|e| e.to_string())?;
    }
    let store = ArrayStore::open(Box::new(fz_gpu::store::FsBackend::new(output)), device_of(args)?)
        .map_err(|e| e.to_string())?;
    println!(
        "{} -> {}: {} values in {} chunks / {} shards ({}), {:.2} MB -> {:.2} MB (ratio {:.1}x)",
        input,
        output,
        store.total_values(),
        store.grid().num_chunks(),
        store.num_shards(),
        store.spec().codec.name(),
        (store.total_values() * 4) as f64 / 1e6,
        total as f64 / 1e6,
        (store.total_values() * 4) as f64 / total as f64,
    );
    Ok(())
}

fn store_read(args: &Args) -> Result<(), String> {
    use fz_gpu::store::{value_digest, ArrayStore, Region};

    let input = args.pos(0, "input path")?;
    let output = args.pos(1, "output path")?;
    let backend = store_backend_open(args, input)?;
    let mut store =
        ArrayStore::open(backend, device_of(args)?).map_err(|e| format!("{input}: {e}"))?;
    let region = match args.get("--region") {
        Some(s) => parse_region(s)?,
        None => Region::full(&store.spec().dims.clone()),
    };
    let res = store.read_region(&region).map_err(|e| format!("{input}: {e}"))?;
    write_f32_file(Path::new(output), &res.values).map_err(|e| e.to_string())?;
    let digest = value_digest(&res.values);
    if args.has("--json") {
        let doc = Obj::spaced()
            .raw("values", res.values.len())
            .raw("digest", digest)
            .raw("chunks_decoded", res.chunks_decoded)
            .raw("shards_touched", res.shards_touched)
            .raw("bytes_read", res.bytes_read)
            .raw("backend_reads", res.backend_reads)
            .num("modeled_io_seconds", res.modeled_io_seconds);
        println!("{}", doc.finish());
    } else {
        println!(
            "{} -> {}: {} values (digest {digest:08x}), {} chunks from {} shards, \
             {} bytes read in {} requests",
            input,
            output,
            res.values.len(),
            res.chunks_decoded,
            res.shards_touched,
            res.bytes_read,
            res.backend_reads,
        );
    }
    Ok(())
}

/// `fzgpu store serve`: replay a deterministic subregion-read workload
/// (seeded regions, modeled costs) against an existing container.
fn store_serve(args: &Args) -> Result<(), String> {
    use fz_gpu::serve::{run_store_reads, StoreReadWorkload};
    use fz_gpu::store::ArrayStore;

    let input = args.pos(0, "input path")?;
    let backend = store_backend_open(args, input)?;
    let mut store =
        ArrayStore::open(backend, device_of(args)?).map_err(|e| format!("{input}: {e}"))?;
    let base = StoreReadWorkload::default();
    let workload = StoreReadWorkload {
        reads: args.parse("--reads")?.unwrap_or(base.reads),
        seed: args.parse("--seed")?.unwrap_or(base.seed),
        ..base
    };
    let report = run_store_reads(&mut store, &workload).map_err(|e| format!("{input}: {e}"))?;
    if args.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.text_report());
    }
    Ok(())
}

/// `fzgpu store stat` decodes nothing, so it opens the store on the A100.
fn store_stat(args: &Args) -> Result<(), String> {
    use fz_gpu::store::ArrayStore;

    let input = args.pos(0, "input path")?;
    let backend = store_backend_open(args, input)?;
    let store = ArrayStore::open(backend, device::A100).map_err(|e| format!("{input}: {e}"))?;
    let spec = store.spec();
    let ratio = (store.total_values() * 4) as f64 / store.container_bytes() as f64;
    if args.has("--json") {
        let doc = Obj::spaced()
            .raw("dims", json::list(Layout::Compact, &spec.dims))
            .raw("chunk", json::list(Layout::Compact, &spec.chunk))
            .raw("codec", spec.codec.to_json())
            .raw("chunks", store.grid().num_chunks())
            .raw("shards", store.num_shards())
            .raw("total_values", store.total_values())
            .raw("container_bytes", store.container_bytes())
            .num("ratio", ratio);
        println!("{}", doc.finish());
    } else {
        let dims: Vec<String> = spec.dims.iter().map(usize::to_string).collect();
        let chunk: Vec<String> = spec.chunk.iter().map(usize::to_string).collect();
        println!("FZ-GPU store: {input}");
        println!("  dims:         {}", dims.join(" x "));
        println!("  chunk:        {}", chunk.join(" x "));
        println!("  codec:        {}", spec.codec.name());
        println!(
            "  chunks:       {} ({} per shard)",
            store.grid().num_chunks(),
            spec.chunks_per_shard
        );
        println!("  shards:       {}", store.num_shards());
        println!("  values:       {}", store.total_values());
        println!("  container:    {} bytes", store.container_bytes());
        println!("  ratio:        {ratio:.2}x");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fz_gpu::trace::cli::{grammar, Grammar};

    /// `max_positionals: flags`, with `=` after a flag that takes a value and
    /// the flag it requires in parentheses.
    fn render(g: &Grammar) -> String {
        let flags = g.flags.iter().map(|f| {
            let value = if f.takes_value { "=" } else { "" };
            let parent = f.parent.map(|p| format!("({p})")).unwrap_or_default();
            format!(" {}{value}{parent}", f.name)
        });
        format!("{}:{}", g.max_positionals, flags.collect::<String>())
    }

    /// Pins the grammar `USAGE` declares: an edit that changes it shows up
    /// here as a diff.
    #[test]
    fn usage_declares_each_subcommand_grammar() {
        let expected = [
            ("compress", "2: --dims= --eb= --abs --device= --native --path= --engine= --trace="),
            ("decompress", "2: --device= --native --path= --engine= --trace="),
            ("info", "1:"),
            ("bench", "1: --dims= --eb= --abs --device= --native --path= --engine="),
            (
                "profile",
                "1: --dims= --synthetic= --eb= --abs --device= --engine= --trace= --report= --json",
            ),
            ("stats", "1: --dims= --synthetic= --eb= --abs --device= --engine= --timings --json"),
            (
                "archive",
                concat!(
                    "2: --chunk-values= --shard-chunks= --eb= --abs --device= --native --path=",
                    " --engine= --trace="
                ),
            ),
            ("verify", "1:"),
            ("extract", "2: --degraded --fill=(--degraded) --device= --native --path= --engine="),
            (
                "serve",
                concat!(
                    "0: --replay= --streams= --no-pool --batch= --queue-depth= --backpressure=",
                    " --timings --json --native --path= --engine= --trace= --deadline-us=",
                    " --retries= --backoff-us= --shed-priority --no-breaker --fault-seed=",
                    " --fault-rate= --fault-streak=(--fault-rate) --stall-rate=",
                    " --stall-us=(--stall-rate) --loss-at-us= --repair-us=(--loss-at-us)",
                    " --telemetry= --telemetry-window-us=(--telemetry)",
                    " --flight-capacity=(--telemetry)"
                ),
            ),
            ("report", "1:"),
            (
                "store create",
                concat!(
                    "2: --dims= --chunk= --codec= --eb= --abs --rate= --shard-chunks= --backend=",
                    " --device="
                ),
            ),
            ("store read", "2: --region= --backend= --device= --json"),
            ("store stat", "1: --backend= --json"),
            ("store serve", "1: --reads= --seed= --backend= --device= --json"),
        ];
        assert_eq!(COMMANDS.map(|(name, _)| name), expected.map(|(name, _)| name));
        for (cmd, want) in expected {
            assert_eq!(render(&grammar(USAGE, cmd).unwrap()), want, "grammar of `fzgpu {cmd}`");
        }
    }

    /// Every entry in `USAGE` is dispatched, and every dispatched
    /// subcommand has an entry.
    #[test]
    fn usage_entries_match_dispatch() {
        let entries = USAGE.split("\n  fzgpu ").skip(1).map(|entry| {
            let words = entry.split_whitespace();
            words.take_while(|w| w.bytes().all(|b| b.is_ascii_lowercase())).collect::<Vec<_>>()
        });
        let names: Vec<String> = entries.map(|words| words.join(" ")).collect();
        assert_eq!(names, COMMANDS.map(|(name, _)| name.to_string()));
    }

    #[test]
    fn positionals_sit_among_flags_and_values_may_start_with_one_dash() {
        let argv = ["--dims", "4x4x4", "in.f32", "--eb", "-1", "out.fz", "--abs"];
        let args = Args::from_argv(USAGE, "compress", &argv.map(String::from)).unwrap();
        assert_eq!(args.pos(0, "input"), Ok("in.f32"));
        assert_eq!(args.pos(1, "output"), Ok("out.fz"));
        assert_eq!(args.get("--eb"), Some("-1"));
        assert!(args.has("--abs") && !args.has("--native"));
    }
}
