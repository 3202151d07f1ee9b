//! `fzgpu` — command-line compressor over raw f32 fields, mirroring the
//! real FZ-GPU binary's interface (`fz-gpu <file> <dims> <eb>`), extended
//! with decompress / info / bench subcommands.
//!
//! ```text
//! fzgpu compress   <input.f32> <output.fz> --dims 100x500x500 --eb 1e-3 [--abs] [--device a100]
//! fzgpu decompress <input.fz>  <output.f32> [--device a100]
//! fzgpu info       <input.fz>
//! fzgpu bench      <input.f32> --dims 100x500x500 [--eb 1e-3] [--device a100]
//! ```

use std::path::Path;
use std::process::ExitCode;

use fz_gpu::core::archive::ARCHIVE_MAGIC;
use fz_gpu::core::{
    Archive, ChunkHealth, ErrorBound, FillPolicy, FzGpu, FzOptions, Header, PipelinePath,
};
use fz_gpu::data::io::{parse_dims, read_f32_file, write_f32_file};
use fz_gpu::metrics::{max_abs_error, psnr};
use fz_gpu::sim::device;
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
  fzgpu bench      <input.f32> --dims ZxYxX [--eb 1e-3] [--device a100|a4000]
                   [--native | --path sim|native|both] [--engine interp|analytic]
  fzgpu profile    (<input.f32> --dims ZxYxX | --synthetic <dataset>) [--eb 1e-3] [--abs]
                   [--device a100|a4000] [--engine interp|analytic]
                   [--trace out.json] [--report out.txt] [--json]
                   (datasets: HACC CESM Hurricane Nyx QMCPACK RTM)
  fzgpu stats      (<input.f32> --dims ZxYxX | --synthetic <dataset>) [--eb 1e-3] [--abs]
                   [--device a100|a4000] [--engine interp|analytic] [--timings] [--json]
  fzgpu archive    <input.f32> <output.fzar> --chunk-values N [--shard-chunks N] [--eb 1e-3]
                   [--abs] [--device ...] [--native | --path sim|native|both]
                   [--engine interp|analytic] [--trace out.json]
  fzgpu verify     <input.fz|input.fzar>
  fzgpu extract    <input.fzar> <output.f32> [--degraded] [--fill nan|zero] [--device ...]
                   [--native | --path sim|native|both] [--engine interp|analytic]
  fzgpu serve      --replay <workload.json> [--streams N] [--no-pool] [--batch N]
                   [--queue-depth N] [--backpressure reject|block] [--timings] [--json]
                   [--native | --path sim|native|both] [--engine interp|analytic] [--trace out.json]
                   [--deadline-us T] [--retries N] [--backoff-us T] [--shed-priority]
                   [--no-breaker] [--fault-seed S] [--fault-rate P] [--fault-streak N]
                   [--stall-rate P] [--stall-us T] [--loss-at-us T] [--repair-us T]
                   [--telemetry <dir>] [--telemetry-window-us T] [--flight-capacity N]
  fzgpu report     <telemetry-dir>
  fzgpu store create <input.f32> <store.fzst> --dims 256x256x256 --chunk 64x64x64
                   [--codec fz|cusz|cusz-rle|cuszx|cuzfp|mgard|sz-omp|huffman|rle|lz77|deflate|raw]
                   [--eb 1e-3] [--abs] [--rate 8] [--shard-chunks N] [--backend mem|fs|objsim]
                   [--device a100|a4000]
  fzgpu store read <store.fzst> <output.f32> [--region 0:64,0:64,0:64] [--backend mem|fs|objsim]
                   [--device a100|a4000] [--json]
  fzgpu store stat <store.fzst> [--json]
  fzgpu store serve <store.fzst> [--reads N] [--seed S] [--backend mem|fs|objsim]
                   [--device a100|a4000] [--json]";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn device_of(args: &[String]) -> Result<fz_gpu::sim::DeviceSpec, String> {
    let name = flag_value(args, "--device").unwrap_or("a100");
    device::by_name(name).ok_or_else(|| format!("unknown device '{name}'"))
}

/// Pipeline-path selection: `--native` is shorthand for `--path native`;
/// `--path` takes sim|native|both; neither flag falls back to the
/// `FZGPU_NATIVE` environment variable (default: simulated).
fn path_of(args: &[String]) -> Result<PipelinePath, String> {
    let flagged = flag_value(args, "--path")
        .map(|s| {
            PipelinePath::parse(s)
                .ok_or_else(|| format!("bad --path '{s}' (expected sim|native|both)"))
        })
        .transpose()?;
    if args.iter().any(|a| a == "--native") {
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
fn engine_of(args: &[String]) -> Result<fz_gpu::sim::Engine, String> {
    flag_value(args, "--engine")
        .map(|s| {
            fz_gpu::sim::Engine::parse(s)
                .ok_or_else(|| format!("bad --engine '{s}' (expected interp|analytic)"))
        })
        .transpose()
        .map(|e| e.unwrap_or_else(fz_gpu::sim::Engine::from_env))
}

/// Build the compressor honoring `--device` and the pipeline path flags.
fn fz_of(args: &[String]) -> Result<FzGpu, String> {
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

fn eb_of(args: &[String]) -> Result<ErrorBound, String> {
    let eb: f64 = flag_value(args, "--eb")
        .unwrap_or("1e-3")
        .parse()
        .map_err(|_| "bad --eb value".to_string())?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err("--eb must be finite and positive".into());
    }
    Ok(if args.iter().any(|a| a == "--abs") {
        ErrorBound::Abs(eb)
    } else {
        ErrorBound::RelToRange(eb)
    })
}

/// `--eb` checked against the field it bounds. A relative bound over data
/// holding ±inf resolves to an infinite bound: rejected here like
/// `--eb inf`, before anything runs or is written.
fn eb_for(args: &[String], data: &[f32]) -> Result<ErrorBound, String> {
    let eb = eb_of(args)?;
    eb.try_resolve(data).map_err(|abs| {
        format!("--eb must be finite and positive; over this input it resolves to {abs}")
    })?;
    Ok(eb)
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).ok_or("missing subcommand")?;
    match cmd {
        "compress" => compress(&args[1..]),
        "decompress" => decompress(&args[1..]),
        "info" => info(&args[1..]),
        "bench" => bench(&args[1..]),
        "profile" => profile(&args[1..]),
        "stats" => stats(&args[1..]),
        "archive" => archive(&args[1..]),
        "verify" => verify(&args[1..]),
        "extract" => extract(&args[1..]),
        "serve" => serve(&args[1..]),
        "report" => report_cmd(&args[1..]),
        "store" => store_cmd(&args[1..]),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_field(args: &[String], path: &str) -> Result<fz_gpu::data::Field, String> {
    let dims_str = flag_value(args, "--dims").ok_or("missing --dims ZxYxX")?;
    let dims = parse_dims(dims_str).ok_or_else(|| format!("bad --dims '{dims_str}'"))?;
    read_f32_file(Path::new(path), dims).map_err(|e| e.to_string())
}

/// Shared input selection for `profile` / `stats`: either a raw file with
/// `--dims`, or a generated `--synthetic <dataset>` field.
fn field_of(args: &[String]) -> Result<fz_gpu::data::Field, String> {
    if let Some(name) = flag_value(args, "--synthetic") {
        let info = fz_gpu::data::dataset(name)
            .ok_or_else(|| format!("unknown synthetic dataset '{name}'"))?;
        Ok(info.generate(fz_gpu::data::Scale::Reduced))
    } else {
        let input = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("missing input path or --synthetic <dataset>")?;
        load_field(args, input)
    }
}

/// Run `f` with host-span capture when `--trace <path>` is present, then
/// join the captured spans with the modeled device profile `f` returns and
/// write one unified Chrome trace (pid 0 = modeled device, pid 1 = host
/// wallclock). Without the flag, `f` runs untraced.
fn with_unified_trace<T>(
    args: &[String],
    f: impl FnOnce() -> Result<(T, fz_gpu::sim::Profile), String>,
) -> Result<T, String> {
    let Some(path) = flag_value(args, "--trace") else {
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

fn compress(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
    let output = args.get(1).ok_or("missing output path")?;
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

fn decompress(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
    let output = args.get(1).ok_or("missing output path")?;
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

fn info(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
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

fn profile(args: &[String]) -> Result<(), String> {
    let field = field_of(args)?;
    let eb = eb_for(args, &field.data)?;
    let opts = FzOptions { engine: engine_of(args)?, ..FzOptions::default() };
    let mut fz = FzGpu::with_options(device_of(args)?, opts);
    let shape = field.dims.as_3d();

    let tracing = flag_value(args, "--trace").is_some();
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

    if args.iter().any(|a| a == "--json") {
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
        if let Some(path) = flag_value(args, "--report") {
            std::fs::write(path, &report).map_err(|e| e.to_string())?;
            println!("wrote report to {path}");
        }
    }

    if let Some(path) = flag_value(args, "--trace") {
        std::fs::write(path, prof.unified_chrome_trace(&host)).map_err(|e| e.to_string())?;
        println!("wrote unified trace to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
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
    let include_wall = args.iter().any(|a| a == "--timings");
    if args.iter().any(|a| a == "--json") {
        println!("{}", fz_gpu::trace::metrics::to_json(include_wall));
    } else {
        print!("{}", fz_gpu::trace::metrics::exposition(include_wall));
    }
    Ok(())
}

/// Read a raw little-endian f32 file as a flat value array (archives chunk
/// 1D data; no dims required).
fn read_flat_f32(path: &str) -> Result<Vec<f32>, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    if !bytes.len().is_multiple_of(4) {
        return Err(format!("{path}: length {} is not a multiple of 4", bytes.len()));
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

fn archive(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
    let output = args.get(1).ok_or("missing output path")?;
    let chunk_values: usize = flag_value(args, "--chunk-values")
        .ok_or("missing --chunk-values N")?
        .parse()
        .map_err(|_| "bad --chunk-values value".to_string())?;
    if chunk_values == 0 {
        return Err("--chunk-values must be positive".into());
    }
    let data = read_flat_f32(input)?;
    let eb = eb_for(args, &data)?;
    let mut fz = fz_of(args)?;
    let a = with_unified_trace(args, || {
        Ok(Archive::compress_profiled(&mut fz, &data, chunk_values, eb))
    })?;
    // --shard-chunks upgrades the on-disk layout to archive v3 (sharded
    // chunk index, range-readable by `fzgpu store`); without it the flat
    // v2 layout is kept for compatibility with older readers.
    let (bytes, layout) = match flag_value(args, "--shard-chunks") {
        Some(s) => {
            let n: usize = s.parse().map_err(|_| "bad --shard-chunks value".to_string())?;
            if n == 0 {
                return Err("--shard-chunks must be positive".into());
            }
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

fn verify(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
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

fn extract(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
    let output = args.get(1).ok_or("missing output path")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    let a = Archive::from_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    let mut fz = fz_of(args)?;
    let values = if args.iter().any(|a| a == "--degraded") {
        let fill = match flag_value(args, "--fill").unwrap_or("nan") {
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

fn bench(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("missing input path")?;
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
fn resilience_of(args: &[String]) -> Result<fz_gpu::serve::ResilienceConfig, String> {
    use fz_gpu::serve::ResilienceConfig;
    use fz_gpu::sim::{RetryPolicy, ServiceFaultPlan};

    // Micro-second flag parsed to seconds, validated `>= 0` and finite.
    let us = |flag: &str| -> Result<Option<f64>, String> {
        flag_value(args, flag)
            .map(|s| {
                let v: f64 = s.parse().map_err(|_| format!("bad {flag} value '{s}'"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{flag} must be a nonnegative finite time in us"));
                }
                Ok(v * 1e-6)
            })
            .transpose()
    };
    // Probability flag, validated into `[0, 1]`.
    let prob = |flag: &str| -> Result<Option<f64>, String> {
        flag_value(args, flag)
            .map(|s| {
                let v: f64 = s.parse().map_err(|_| format!("bad {flag} value '{s}'"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{flag} must be a probability in [0, 1]"));
                }
                Ok(v)
            })
            .transpose()
    };

    let mut res = ResilienceConfig::default();
    if let Some(d) = us("--deadline-us")? {
        if d <= 0.0 {
            return Err("--deadline-us must be positive".into());
        }
        res.deadline = Some(d);
    }
    if let Some(n) = flag_value(args, "--retries") {
        let max_retries: u32 = n.parse().map_err(|_| format!("bad --retries value '{n}'"))?;
        res.retry = RetryPolicy { max_retries, ..RetryPolicy::default() };
    }
    if let Some(b) = us("--backoff-us")? {
        res.retry.backoff_base = b;
    }
    res.shed_by_priority = args.iter().any(|a| a == "--shed-priority");
    if args.iter().any(|a| a == "--no-breaker") {
        res.breaker = false;
    }

    let mut plan = ServiceFaultPlan::seeded(match flag_value(args, "--fault-seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --fault-seed value '{s}'"))?,
        None => 0,
    });
    if let Some(p) = prob("--fault-rate")? {
        let streak: u32 = match flag_value(args, "--fault-streak") {
            Some(s) => s.parse().map_err(|_| format!("bad --fault-streak value '{s}'"))?,
            None => 3,
        };
        plan = plan.job_faults(p, streak);
    }
    if let Some(p) = prob("--stall-rate")? {
        let dur = us("--stall-us")?.unwrap_or(50e-6);
        plan = plan.stalls(p, dur);
    }
    if let Some(at) = us("--loss-at-us")? {
        plan = plan.device_loss(at, us("--repair-us")?);
    }
    res.faults = plan;
    Ok(res)
}

fn serve(args: &[String]) -> Result<(), String> {
    use fz_gpu::serve::{Backpressure, ServeConfig, Service, Workload};

    let path = flag_value(args, "--replay").ok_or("missing --replay <workload.json>")?;
    let workload = Workload::from_file(path)?;

    let mut cfg = ServeConfig::default();
    if let Some(s) = flag_value(args, "--streams") {
        cfg.streams = s.parse().map_err(|_| "bad --streams value".to_string())?;
        if cfg.streams == 0 {
            return Err("--streams must be at least 1".into());
        }
    }
    if args.iter().any(|a| a == "--no-pool") {
        cfg.pool = false;
    }
    if let Some(b) = flag_value(args, "--batch") {
        cfg.batch_max = b.parse().map_err(|_| "bad --batch value".to_string())?;
        if cfg.batch_max == 0 {
            return Err("--batch must be at least 1".into());
        }
    }
    if let Some(q) = flag_value(args, "--queue-depth") {
        cfg.queue_depth = q.parse().map_err(|_| "bad --queue-depth value".to_string())?;
        if cfg.queue_depth == 0 {
            return Err("--queue-depth must be at least 1".into());
        }
    }
    if let Some(bp) = flag_value(args, "--backpressure") {
        cfg.backpressure = match bp {
            "reject" => Backpressure::Reject,
            "block" => Backpressure::Block,
            other => return Err(format!("bad --backpressure '{other}' (expected reject|block)")),
        };
    }
    cfg.path = path_of(args)?;
    cfg.engine = engine_of(args)?;
    cfg.capture_trace = flag_value(args, "--trace").is_some();
    cfg.resilience = resilience_of(args)?;

    let telemetry_dir = flag_value(args, "--telemetry");
    if telemetry_dir.is_some() {
        let mut tcfg = fz_gpu::serve::TelemetryConfig::default();
        if let Some(w) = flag_value(args, "--telemetry-window-us") {
            let v: f64 = w.parse().map_err(|_| "bad --telemetry-window-us value".to_string())?;
            if !v.is_finite() || v <= 0.0 {
                return Err("--telemetry-window-us must be a positive time in us".into());
            }
            tcfg.window = v * 1e-6;
        }
        if let Some(c) = flag_value(args, "--flight-capacity") {
            tcfg.flight_capacity =
                c.parse().map_err(|_| "bad --flight-capacity value".to_string())?;
            if tcfg.flight_capacity == 0 {
                return Err("--flight-capacity must be at least 1".into());
            }
        }
        cfg.telemetry = Some(tcfg);
    } else if flag_value(args, "--telemetry-window-us").is_some()
        || flag_value(args, "--flight-capacity").is_some()
    {
        return Err("--telemetry-window-us/--flight-capacity require --telemetry <dir>".into());
    }

    let report = Service::new(cfg).run(&workload);

    // Wallclock timings are off by default so the output is byte-identical
    // across machines and FZGPU_THREADS settings (the replay determinism
    // contract); --timings adds the host clock domain.
    let include_wall = args.iter().any(|a| a == "--timings");
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json(include_wall));
    } else {
        print!("{}", report.text_report(include_wall));
    }
    if let Some(out) = flag_value(args, "--trace") {
        std::fs::write(out, &report.stream_trace).map_err(|e| e.to_string())?;
        println!("wrote stream timeline trace to {out} (open in chrome://tracing or Perfetto)");
    }
    if let Some(dir) = telemetry_dir {
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
fn report_cmd(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing telemetry directory (from `fzgpu serve --telemetry <dir>`)")?;
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
fn codec_of(args: &[String], data: &[f32]) -> Result<fz_gpu::store::CodecConfig, String> {
    let name = flag_value(args, "--codec").unwrap_or("fz");
    let eb_abs = match flag_value(args, "--eb") {
        Some(_) => Some(eb_for(args, data)?.resolve(data)),
        None => None,
    };
    let rate = flag_value(args, "--rate")
        .map(|s| s.parse::<f64>().map_err(|_| format!("bad --rate value '{s}'")))
        .transpose()?;
    fz_gpu::store::CodecConfig::from_cli(name, eb_abs, rate)
}

fn store_cmd(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("missing store subcommand (create|read|stat|serve)")?;
    match sub {
        "create" => store_create(&args[1..]),
        "read" => store_read(&args[1..]),
        "stat" => store_stat(&args[1..]),
        "serve" => store_serve(&args[1..]),
        other => {
            Err(format!("unknown store subcommand '{other}' (expected create|read|stat|serve)"))
        }
    }
}

/// Build the backend for an existing container file. `mem` and `objsim`
/// load the file into memory (objsim then charges its modeled cost per
/// range read); `fs` serves range reads straight from the file.
fn store_backend_open(
    args: &[String],
    path: &str,
) -> Result<Box<dyn fz_gpu::store::StorageBackend>, String> {
    use fz_gpu::store::{FsBackend, MemBackend, ObjectStoreBackend, ObjectStoreModel};
    match flag_value(args, "--backend").unwrap_or("fs") {
        "fs" => Ok(Box::new(FsBackend::new(path))),
        "mem" => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Box::new(MemBackend::from_bytes(bytes)))
        }
        "objsim" => {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Box::new(ObjectStoreBackend::from_bytes(bytes, ObjectStoreModel::default())))
        }
        other => Err(format!("unknown backend '{other}' (expected mem, fs, or objsim)")),
    }
}

fn store_create(args: &[String]) -> Result<(), String> {
    use fz_gpu::store::{ArrayStore, Registry, StoreSpec};

    let input = args.first().filter(|a| !a.starts_with("--")).ok_or("missing input path")?;
    let output = args.get(1).filter(|a| !a.starts_with("--")).ok_or("missing output path")?;
    let dims = parse_extents(flag_value(args, "--dims").ok_or("missing --dims AxBxC")?, "--dims")?;
    let chunk =
        parse_extents(flag_value(args, "--chunk").ok_or("missing --chunk AxBxC")?, "--chunk")?;
    let data = read_flat_f32(input)?;
    let codec = codec_of(args, &data)?;
    let chunks_per_shard: usize = match flag_value(args, "--shard-chunks") {
        Some(s) => {
            let n = s.parse().map_err(|_| "bad --shard-chunks value".to_string())?;
            if n == 0 {
                return Err("--shard-chunks must be positive".into());
            }
            n
        }
        None => 16,
    };
    let spec = StoreSpec { dims, chunk, codec, chunks_per_shard };
    // Encode into the selected backend (so objsim models the write), then
    // persist the container at the output path.
    let mut backend = fz_gpu::store::backend_from_cli(
        flag_value(args, "--backend").unwrap_or("mem"),
        Some(output),
    )?;
    ArrayStore::create_with_registry(
        &Registry::builtin(),
        &mut backend,
        &spec,
        &data,
        device_of(args)?,
    )
    .map_err(|e| e.to_string())?;
    let total = backend.len();
    if backend.kind() != "fs" {
        let bytes = backend.read_range(0, total).map_err(|e| e.to_string())?;
        std::fs::write(output, &bytes).map_err(|e| e.to_string())?;
    }
    let store = ArrayStore::open(
        Box::new(fz_gpu::store::FsBackend::new(output.as_str())),
        device_of(args)?,
    )
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

fn store_read(args: &[String]) -> Result<(), String> {
    use fz_gpu::store::{value_digest, ArrayStore, Region};

    let input = args.first().filter(|a| !a.starts_with("--")).ok_or("missing input path")?;
    let output = args.get(1).filter(|a| !a.starts_with("--")).ok_or("missing output path")?;
    let backend = store_backend_open(args, input)?;
    let mut store =
        ArrayStore::open(backend, device_of(args)?).map_err(|e| format!("{input}: {e}"))?;
    let region = match flag_value(args, "--region") {
        Some(s) => parse_region(s)?,
        None => Region::full(&store.spec().dims.clone()),
    };
    let res = store.read_region(&region).map_err(|e| format!("{input}: {e}"))?;
    write_f32_file(Path::new(output), &res.values).map_err(|e| e.to_string())?;
    let digest = value_digest(&res.values);
    if args.iter().any(|a| a == "--json") {
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
fn store_serve(args: &[String]) -> Result<(), String> {
    use fz_gpu::serve::{run_store_reads, StoreReadWorkload};
    use fz_gpu::store::ArrayStore;

    let input = args.first().filter(|a| !a.starts_with("--")).ok_or("missing input path")?;
    let backend = store_backend_open(args, input)?;
    let mut store =
        ArrayStore::open(backend, device_of(args)?).map_err(|e| format!("{input}: {e}"))?;
    let mut workload = StoreReadWorkload::default();
    if let Some(r) = flag_value(args, "--reads") {
        workload.reads = r.parse().map_err(|_| "bad --reads value".to_string())?;
    }
    if let Some(s) = flag_value(args, "--seed") {
        workload.seed = s.parse().map_err(|_| "bad --seed value".to_string())?;
    }
    let report = run_store_reads(&mut store, &workload).map_err(|e| format!("{input}: {e}"))?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.text_report());
    }
    Ok(())
}

fn store_stat(args: &[String]) -> Result<(), String> {
    use fz_gpu::store::ArrayStore;

    let input = args.first().filter(|a| !a.starts_with("--")).ok_or("missing input path")?;
    let backend = store_backend_open(args, input)?;
    let store = ArrayStore::open(backend, device_of(args)?).map_err(|e| format!("{input}: {e}"))?;
    let spec = store.spec();
    let ratio = (store.total_values() * 4) as f64 / store.container_bytes() as f64;
    if args.iter().any(|a| a == "--json") {
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
