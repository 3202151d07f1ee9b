//! CLI error-path contract: every failing invocation exits nonzero with
//! a one-line `error: ...` message on stderr, and healthy invocations
//! exit zero. Runs the real `fzgpu` binary.

use std::process::{Command, Output};

use fz_gpu::core::{crc32, ChunkMeta, Shard, ShardedArchive};
use fz_gpu::store::{CodecConfig, StoreSpec};

fn fzgpu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fzgpu"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn fzgpu")
}

fn assert_cli_error(args: &[&str], expect_in_msg: &str) {
    let out = fzgpu(args);
    assert!(!out.status.success(), "`fzgpu {}` should exit nonzero", args.join(" "));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: "),
        "`fzgpu {}` stderr must start with `error: `, got: {first:?}",
        args.join(" ")
    );
    assert!(
        first.contains(expect_in_msg),
        "`fzgpu {}` error should mention {expect_in_msg:?}, got: {first:?}",
        args.join(" ")
    );
}

#[test]
fn failures_exit_nonzero_with_one_line_error() {
    assert_cli_error(&[], "missing subcommand");
    assert_cli_error(&["frobnicate"], "unknown subcommand");
    assert_cli_error(&["compress"], "missing input path");
    assert_cli_error(&["decompress", "/nonexistent.fz", "/tmp/out.f32"], "No such file");
    assert_cli_error(&["info"], "missing input path");
    assert_cli_error(&["serve"], "missing --replay");
    assert_cli_error(&["serve", "--replay", "/nonexistent.json"], "cannot read");
    assert_cli_error(&["serve", "--replay", "workloads/smoke.json", "--streams", "0"], "--streams");
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--backpressure", "maybe"],
        "--backpressure",
    );
    assert_cli_error(&["serve", "--replay", "workloads/smoke.json", "--path", "quantum"], "--path");
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--native", "--path", "sim"],
        "--native conflicts",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--fault-seed", "banana"],
        "--fault-seed",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--deadline-us", "-3"],
        "--deadline-us",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--deadline-us", "0"],
        "--deadline-us must be positive",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--fault-rate", "1.5"],
        "--fault-rate must be a probability",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--retries", "-1"],
        "--retries",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--stall-rate", "0.5", "--stall-us", "inf"],
        "--stall-us",
    );
    assert_cli_error(
        &[
            "serve",
            "--replay",
            "workloads/smoke.json",
            "--telemetry",
            "/tmp/t",
            "--telemetry-window-us",
            "nan",
        ],
        "--telemetry-window-us",
    );
    assert_cli_error(
        &[
            "serve",
            "--replay",
            "workloads/smoke.json",
            "--telemetry",
            "/tmp/t",
            "--flight-capacity",
            "0",
        ],
        "--flight-capacity",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--telemetry-window-us", "100"],
        "require --telemetry",
    );
    // A bound of 1e999 parses as +inf: the workload is refused, not run.
    let hostile =
        std::env::temp_dir().join(format!("fzgpu_cli_inf_eb_{}.json", std::process::id()));
    let request = r#"{"arrival_us":0.0,"op":"compress","n":4096,"eb_abs":1e999}"#;
    std::fs::write(&hostile, format!(r#"{{"name":"inf","requests":[{request}]}}"#)).unwrap();
    assert_cli_error(
        &["serve", "--replay", hostile.to_str().unwrap()],
        "request 0: bound must be finite and positive",
    );
    let _ = std::fs::remove_file(&hostile);
    assert_cli_error(&["report"], "missing telemetry directory");
    assert_cli_error(&["report", "/nonexistent_telemetry_dir"], "No such file");
    assert_cli_error(&["profile", "--synthetic", "NotADataset"], "unknown synthetic dataset");
    assert_cli_error(&["bench"], "missing input path");
    assert_cli_error(&["archive"], "missing input path");
    assert_cli_error(&["verify", "/nonexistent.fz"], "No such file");
    assert_cli_error(&["extract"], "missing input path");

    // Every subcommand parses argv against the grammar its USAGE entry
    // declares: unknown, repeated and value-less flags, surplus
    // positionals, and modifiers without their base flag are errors.
    for cmd in [
        "compress",
        "decompress",
        "info",
        "bench",
        "profile",
        "stats",
        "archive",
        "verify",
        "extract",
        "serve",
        "report",
    ] {
        assert_cli_error(&[cmd, "--bogus"], &format!("{cmd}: unknown flag --bogus"));
    }
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--strems", "4", "--no-pol"],
        "unknown flag --strems",
    );
    assert_cli_error(
        &["profile", "--synthetic", "CESM", "--devic", "a4000"],
        "unknown flag --devic",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--streams"],
        "--streams needs a value",
    );
    assert_cli_error(
        &["serve", "--replay", "workloads/smoke.json", "--streams", "4", "--streams", "1"],
        "--streams given twice",
    );
    assert_cli_error(
        &["profile", "--synthetic", "CESM", "--trace", "--json"],
        "--trace needs a value",
    );
    let stray = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("--json");
    assert!(!stray.exists(), "a value-less --trace must not write a file named --json");
    assert_cli_error(&["info", "a.fz", "extra"], "info: unexpected argument 'extra'");
    for (flag, value, base) in [
        ("--fault-streak", "9", "--fault-rate"),
        ("--stall-us", "100", "--stall-rate"),
        ("--repair-us", "100", "--loss-at-us"),
    ] {
        assert_cli_error(
            &["serve", "--replay", "workloads/smoke.json", flag, value],
            &format!("serve: {flag} without {base}"),
        );
    }
    assert_cli_error(
        &["extract", "a.fzar", "o.f32", "--fill", "zero"],
        "extract: --fill without --degraded",
    );
    let report = std::env::temp_dir().join(format!("fzgpu_cli_report_{}.txt", std::process::id()));
    let report_arg = report.to_str().unwrap();
    assert_cli_error(
        &["profile", "--synthetic", "CESM", "--json", "--report", report_arg],
        "--report writes the text report, so it cannot go with --json",
    );
    assert!(!report.exists(), "a rejected --report must write nothing");
}

#[test]
fn store_failures_exit_nonzero_with_one_line_error() {
    assert_cli_error(&["store"], "missing store subcommand");
    assert_cli_error(&["store", "frobnicate"], "unknown store subcommand");
    assert_cli_error(&["store", "create"], "missing input path");
    assert_cli_error(&["store", "read"], "missing input path");
    assert_cli_error(&["store", "stat"], "missing input path");
    assert_cli_error(&["store", "serve"], "missing input path");
    for sub in ["create", "read", "stat", "serve"] {
        assert_cli_error(&["store", sub, "--bogus"], &format!("store {sub}: unknown flag --bogus"));
    }

    // Build one healthy container to exercise read-side errors against.
    let dir = std::env::temp_dir().join(format!("fzgpu_cli_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    let container = dir.join("s.fzst");
    let raw: Vec<u8> = (0..512u32).flat_map(|i| (i as f32 * 0.1).sin().to_le_bytes()).collect();
    std::fs::write(&input, raw).unwrap();
    let input = input.to_str().unwrap();
    let container = container.to_str().unwrap();

    // A raw f32 input whose length is not a multiple of 4.
    let odd = dir.join("odd.f32");
    std::fs::write(&odd, [0u8; 4097]).unwrap();
    let odd = odd.to_str().unwrap();
    assert_cli_error(
        &["archive", odd, container, "--chunk-values", "64"],
        "length 4097 is not a multiple of 4",
    );
    assert_cli_error(
        &["store", "create", odd, container, "--dims", "1024", "--chunk", "256"],
        "length 4097 is not a multiple of 4",
    );

    // Bad dims / chunk geometry at create time.
    assert_cli_error(&["store", "create", input, container], "missing --dims");
    assert_cli_error(
        &["store", "create", input, container, "--dims", "8x0x8", "--chunk", "4x4x4"],
        "--dims",
    );
    assert_cli_error(
        &["store", "create", input, container, "--dims", "potato", "--chunk", "4x4x4"],
        "--dims",
    );
    assert_cli_error(
        &["store", "create", input, container, "--dims", "8x8x8", "--chunk", "4x4", "--eb", "1e-3"],
        "chunk rank",
    );
    // Unknown codec name, and a codec missing its required knob.
    assert_cli_error(
        &[
            "store",
            "create",
            input,
            container,
            "--dims",
            "8x8x8",
            "--chunk",
            "4x4x4",
            "--codec",
            "middleout",
        ],
        "unknown codec",
    );
    assert_cli_error(
        &[
            "store", "create", input, container, "--dims", "8x8x8", "--chunk", "4x4x4", "--codec",
            "cuzfp", "--eb", "1e-3",
        ],
        "--rate",
    );
    // MGARD declines a 3-D chunk it cannot shrink and names that, not the
    // chunk rank.
    let wave = dir.join("wave.f32");
    let raw: Vec<u8> =
        (0..16 * 32 * 32u32).flat_map(|i| (i as f32 * 0.01).sin().to_le_bytes()).collect();
    std::fs::write(&wave, raw).unwrap();
    assert_cli_error(
        &[
            "store",
            "create",
            wave.to_str().unwrap(),
            container,
            "--dims",
            "16x32x32",
            "--chunk",
            "4x8x8",
            "--codec",
            "mgard",
            "--eb",
            "1e-3",
        ],
        "MGARD output is not smaller than its input",
    );
    // Unknown backend.
    assert_cli_error(
        &[
            "store",
            "create",
            input,
            container,
            "--dims",
            "8x8x8",
            "--chunk",
            "4x4x4",
            "--eb",
            "1e-3",
            "--backend",
            "s4",
        ],
        "unknown backend",
    );

    // Healthy create, then out-of-bounds / malformed regions on read.
    let out = fzgpu(&[
        "store", "create", input, container, "--dims", "8x8x8", "--chunk", "4x4x4", "--eb", "1e-3",
    ]);
    assert!(out.status.success(), "healthy store create failed: {:?}", out);
    let outfile = dir.join("out.f32");
    let outfile = outfile.to_str().unwrap();
    assert_cli_error(&["store", "read", container, outfile, "--region", "0:4,0:4,0:99"], "exceeds");
    assert_cli_error(&["store", "read", container, outfile, "--region", "4:2,0:4,0:4"], "empty");
    assert_cli_error(&["store", "read", container, outfile, "--region", "0:4,0:4"], "rank");
    assert_cli_error(&["store", "read", container, outfile, "--region", "banana"], "--region");
    assert_cli_error(&["store", "read", container, outfile, "--backend", "s4"], "unknown backend");
    assert_cli_error(&["store", "read", "/nonexistent.fzst", outfile], "No such file");
    assert_cli_error(&["store", "stat", "/nonexistent.fzst"], "No such file");
    // Not a store container.
    assert_cli_error(&["store", "stat", input], "magic");
    // A CRC-valid top directory whose shard count wraps `nshards * 20` to
    // 4: the archive keeps 4 entry bytes, their CRC, and 64 zero bytes.
    let healthy = std::fs::read(container).unwrap();
    let arch_off = 16 + u64::from_le_bytes(healthy[8..16].try_into().unwrap()) as usize;
    let mut crafted = healthy[..arch_off + 28].to_vec();
    let nshards = u64::MAX / 20 + 1;
    crafted[arch_off + 16..arch_off + 24].copy_from_slice(&nshards.to_le_bytes());
    let crc = crc32(&crafted[arch_off..]);
    crafted.extend_from_slice(&crc.to_le_bytes());
    crafted.extend_from_slice(&[0; 64]);
    let wrapped = dir.join("wrapped.fzst");
    std::fs::write(&wrapped, crafted).unwrap();
    let wrapped = wrapped.to_str().unwrap();
    for sub in ["stat", "serve"] {
        assert_cli_error(&["store", sub, wrapped], "truncated");
    }
    assert_cli_error(&["store", "read", wrapped, outfile], "truncated");
    // Meta dims whose value count wraps to 0 (2^62 x 4) over a v3 archive
    // of 0 values in one empty chunk: the counts agree modulo 2^64.
    let huge = vec![1usize << 62, 4];
    let spec =
        StoreSpec { dims: huge.clone(), chunk: huge, codec: CodecConfig::Raw, chunks_per_shard: 1 };
    let meta = vec![ChunkMeta { n_values: 0, crc: Some(crc32(&[])) }];
    let shards = vec![Shard { chunks: vec![Vec::new()], meta }];
    let meta = spec.to_json();
    let mut crafted = healthy[..8].to_vec();
    crafted.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    crafted.extend_from_slice(meta.as_bytes());
    crafted.extend_from_slice(&ShardedArchive { total_values: 0, shards }.to_bytes());
    let overflow = dir.join("overflow.fzst");
    std::fs::write(&overflow, crafted).unwrap();
    let overflow = overflow.to_str().unwrap();
    let too_many = "more values than usize can count";
    assert_cli_error(&["store", "stat", overflow], too_many);
    assert_cli_error(&["store", "read", overflow, outfile], too_many);
    assert_cli_error(&["store", "read", overflow, outfile, "--region", "0:4,0:4"], too_many);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_error_bounds_are_rejected() {
    let dir = std::env::temp_dir().join(format!("fzgpu_cli_eb_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    let raw: Vec<u8> = (0..4096u32).flat_map(|i| (i as f32 * 0.01).sin().to_le_bytes()).collect();
    std::fs::write(&input, raw).unwrap();
    let input = input.to_str().unwrap();
    let output = dir.join("out.fz");
    let output = output.to_str().unwrap();
    for eb in ["inf", "-inf", "nan", "0"] {
        for abs in [false, true] {
            let mut args = vec!["compress", input, output, "--dims", "1x1x4096", "--eb", eb];
            if abs {
                args.push("--abs");
            }
            assert_cli_error(&args, "--eb must be finite and positive");
        }
    }
    assert!(!std::path::Path::new(output).exists(), "a rejected bound must write no stream");

    // A finite relative --eb over a field holding +inf and -inf resolves
    // to an infinite bound: every subcommand that resolves one rejects it.
    let inf_input = dir.join("inf.f32");
    let raw: Vec<u8> = (0..4096u32)
        .map(|i| match i {
            7 => f32::INFINITY,
            9 => f32::NEG_INFINITY,
            _ => (i as f32 * 0.01).sin(),
        })
        .flat_map(f32::to_le_bytes)
        .collect();
    std::fs::write(&inf_input, raw).unwrap();
    let inf_input = inf_input.to_str().unwrap();
    let dims = ["--dims", "1x1x4096", "--eb", "1e-3"];
    let store_dims = ["--dims", "4096", "--chunk", "1024", "--eb", "1e-3"];
    for args in [
        [&["compress", inf_input, output][..], &dims].concat(),
        [&["bench", inf_input][..], &dims].concat(),
        [&["profile", inf_input][..], &dims].concat(),
        [&["stats", inf_input][..], &dims].concat(),
        vec!["archive", inf_input, output, "--chunk-values", "1024", "--eb", "1e-3"],
        [&["store", "create", inf_input, output][..], &store_dims].concat(),
    ] {
        assert_cli_error(&args, "--eb must be finite and positive");
    }
    assert!(!std::path::Path::new(output).exists(), "a rejected bound must write no output");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_only_shown_for_subcommand_errors() {
    // Wrong/missing subcommand: full usage helps.
    let out = fzgpu(&["frobnicate"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    // Argument-level error inside a known subcommand: one line, no wall
    // of usage text.
    let out = fzgpu(&["serve"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("usage:"), "argument errors should stay one-line, got: {stderr}");
    assert_eq!(stderr.lines().count(), 1);
}

#[test]
fn serve_replay_succeeds_and_is_deterministic() {
    let run = || {
        let out = fzgpu(&["serve", "--replay", "workloads/smoke.json"]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 report")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "default serve output must be byte-identical run to run");
    assert!(a.contains("digest: 0x"), "report carries the replay digest: {a}");
}

#[test]
fn serve_chaos_flags_run_and_report_the_policy() {
    let args = [
        "serve",
        "--replay",
        "workloads/smoke.json",
        "--fault-seed",
        "7",
        "--fault-rate",
        "0.3",
        "--retries",
        "3",
        "--deadline-us",
        "5000",
        "--stall-rate",
        "0.2",
        "--stall-us",
        "100",
    ];
    let out = fzgpu(&args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).expect("utf8 report");
    assert!(report.contains("resilience:"), "chaos flags must echo the policy: {report}");
    assert!(report.contains("slo:"), "report carries the SLO line: {report}");
    let again = fzgpu(&args);
    assert_eq!(
        report,
        String::from_utf8(again.stdout).unwrap(),
        "chaos replay must be byte-identical run to run"
    );
}

/// One valid run per subcommand with (nearly) every flag its USAGE entry
/// declares. The binary under test is a debug build, in which reading a
/// flag that USAGE does not declare fails an assertion, so these runs also
/// check every flag read on these paths against USAGE.
#[test]
fn every_subcommand_runs_with_its_declared_flags() {
    let dir = std::env::temp_dir().join(format!("fzgpu_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let raw: Vec<u8> = (0..4096u32).flat_map(|i| (i as f32 * 0.01).sin().to_le_bytes()).collect();
    std::fs::write(dir.join("in.f32"), raw).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/smoke.json");
    let field = "--dims 4x32x32 --eb 1e-3 --abs --device a4000 --engine analytic";
    let runs = [
        format!("compress {} {} {field} --path sim --trace {}", p("in.f32"), p("c.fz"), p("t1")),
        format!("compress {} {} {field} --native --path native", p("in.f32"), p("n.fz")),
        format!("decompress {} {} --device a4000 --native --path native", p("c.fz"), p("d.f32")),
        format!("decompress {} {} --engine analytic --trace {}", p("c.fz"), p("d.f32"), p("t2")),
        format!("info {}", p("c.fz")),
        format!("bench {} {field} --path both", p("in.f32")),
        format!("profile {} {field} --trace {} --json", p("in.f32"), p("t3")),
        format!("stats {} {field} --timings --json", p("in.f32")),
        format!(
            "archive {} {} --chunk-values 1024 --shard-chunks 2 --eb 1e-3 --abs --device a4000 \
             --path sim --engine analytic --trace {}",
            p("in.f32"),
            p("a.fzar"),
            p("t4")
        ),
        format!("verify {}", p("a.fzar")),
        format!(
            "extract {} {} --degraded --fill zero --device a4000 --path sim --engine analytic",
            p("a.fzar"),
            p("e.f32")
        ),
        format!(
            "serve --replay {smoke} --streams 2 --no-pool --batch 2 --queue-depth 8 \
             --backpressure block --timings --json --path sim --engine analytic --trace {} \
             --deadline-us 5000 --retries 2 --backoff-us 10 --shed-priority --no-breaker \
             --fault-seed 3 --fault-rate 0.1 --fault-streak 2 --stall-rate 0.1 --stall-us 50 \
             --loss-at-us 300 --repair-us 200 --telemetry {} --telemetry-window-us 100 \
             --flight-capacity 8",
            p("t5"),
            p("tel")
        ),
        format!("report {}", p("tel")),
        format!(
            "store create {} {} --dims 4x32x32 --chunk 4x8x8 --codec fz --eb 1e-3 --abs --rate 8 \
             --shard-chunks 4 --backend fs --device a4000",
            p("in.f32"),
            p("s.fzst")
        ),
        format!(
            "store read {} {} --region 0:2,0:8,0:8 --backend mem --device a4000 --json",
            p("s.fzst"),
            p("r.f32")
        ),
        format!("store stat {} --backend objsim --json", p("s.fzst")),
        format!(
            "store serve {} --reads 4 --seed 2 --backend fs --device a4000 --json",
            p("s.fzst")
        ),
    ];
    for run in &runs {
        let args: Vec<&str> = run.split_whitespace().collect();
        let out = fzgpu(&args);
        assert!(
            out.status.success(),
            "`fzgpu {run}` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
