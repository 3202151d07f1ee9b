//! CLI error-path contract: every failing invocation exits nonzero with
//! a one-line `error: ...` message on stderr, and healthy invocations
//! exit zero. Runs the real `fzgpu` binary.

use std::process::{Command, Output};

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
}

#[test]
fn store_failures_exit_nonzero_with_one_line_error() {
    assert_cli_error(&["store"], "missing store subcommand");
    assert_cli_error(&["store", "frobnicate"], "unknown store subcommand");
    assert_cli_error(&["store", "create"], "missing input path");
    assert_cli_error(&["store", "read"], "missing input path");
    assert_cli_error(&["store", "stat"], "missing input path");
    assert_cli_error(&["store", "serve"], "missing input path");

    // Build one healthy container to exercise read-side errors against.
    let dir = std::env::temp_dir().join(format!("fzgpu_cli_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    let container = dir.join("s.fzst");
    let raw: Vec<u8> = (0..512u32).flat_map(|i| (i as f32 * 0.1).sin().to_le_bytes()).collect();
    std::fs::write(&input, raw).unwrap();
    let input = input.to_str().unwrap();
    let container = container.to_str().unwrap();

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
    let crc = fz_gpu::core::crc32(&crafted[arch_off..]);
    crafted.extend_from_slice(&crc.to_le_bytes());
    crafted.extend_from_slice(&[0; 64]);
    let wrapped = dir.join("wrapped.fzst");
    std::fs::write(&wrapped, crafted).unwrap();
    let wrapped = wrapped.to_str().unwrap();
    for sub in ["stat", "serve"] {
        assert_cli_error(&["store", sub, wrapped], "truncated");
    }
    assert_cli_error(&["store", "read", wrapped, outfile], "truncated");
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
