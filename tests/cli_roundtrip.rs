//! End-to-end CLI-layer test: file in, compressed stream on disk, file
//! out — through the same functions the `fzgpu` binary drives.

use fz_gpu::core::{ErrorBound, FzGpu, Header};
use fz_gpu::data::io::{parse_dims, read_f32_file, write_f32_file};
use fz_gpu::sim::device::A100;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fzgpu_cli_test_{name}_{}", std::process::id()));
    p
}

#[test]
fn file_compress_decompress_roundtrip() {
    let raw = tmp("raw.f32");
    let packed = tmp("stream.fz");
    let restored_path = tmp("restored.f32");

    let dims = parse_dims("8x32x32").unwrap();
    let data: Vec<f32> = (0..dims.count())
        .map(|i| (i as f32 * 0.01).sin() * 2.0 + (i as f32 * 0.0003).cos())
        .collect();
    write_f32_file(&raw, &data).unwrap();

    // Compress path.
    let field = read_f32_file(&raw, dims).unwrap();
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&field.data, dims.as_3d(), ErrorBound::RelToRange(1e-3));
    std::fs::write(&packed, &c.bytes).unwrap();

    // Info path: header parses straight off the file.
    let bytes = std::fs::read(&packed).unwrap();
    let header = Header::from_bytes(&bytes).unwrap();
    assert_eq!(header.n_values, dims.count());

    // Decompress path.
    let values = fz.decompress_bytes(&bytes).unwrap();
    write_f32_file(&restored_path, &values).unwrap();
    let restored = read_f32_file(&restored_path, dims).unwrap();
    for (&a, &b) in data.iter().zip(&restored.data) {
        assert!((a as f64 - b as f64).abs() <= header.eb * 1.00001);
    }

    for p in [raw, packed, restored_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn profile_subcommand_emits_report_and_trace() {
    // Drive the actual binary: `fzgpu profile` on a synthetic dataset must
    // print a roofline-attributed report and write a Chrome-trace JSON.
    let trace = tmp("profile.trace.json");
    let report = tmp("profile.txt");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fzgpu"))
        .args([
            "profile",
            "--synthetic",
            "CESM",
            "--eb",
            "1e-3",
            "--trace",
            trace.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("run fzgpu binary");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["bound by", "margin", "compress stages", "decompress stages", "quantize"] {
        assert!(stdout.contains(needle), "stdout missing {needle:?}:\n{stdout}");
    }

    let report_text = std::fs::read_to_string(&report).unwrap();
    assert!(report_text.contains("pred_quant"), "report lists the quant kernel");
    let trace_json = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_json.starts_with('{') && trace_json.contains("\"traceEvents\":["));
    assert!(trace_json.contains("\"bound_by\""));

    for p in [trace, report] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn stream_file_is_self_describing() {
    let dims = parse_dims("4096").unwrap();
    let data: Vec<f32> = (0..4096).map(|i| (i % 37) as f32).collect();
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, dims.as_3d(), ErrorBound::Abs(0.25));
    // A different FzGpu instance (fresh device) decodes purely from bytes.
    let mut other = FzGpu::new(fz_gpu::sim::device::A4000);
    let back = other.decompress_bytes(&c.bytes).unwrap();
    assert_eq!(back.len(), 4096);
}

#[test]
fn archive_roundtrips_in_both_layouts() {
    // `fzgpu archive` writes v2 by default and v3 with --shard-chunks;
    // `verify` passes both and `extract` recovers the same values from
    // each.
    let raw = tmp("archive_in.f32");
    let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.002).sin() * 3.0).collect();
    write_f32_file(&raw, &data).unwrap();
    let fzgpu = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fzgpu"))
            .args(args)
            .output()
            .expect("run fzgpu binary");
        assert!(out.status.success(), "fzgpu {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let mut extracted = Vec::new();
    for (name, extra, layout) in
        [("v2", &[][..], "(v2, flat)"), ("v3", &["--shard-chunks", "3"][..], "(v3, 4 shards)")]
    {
        let archive = tmp(&format!("archive_{name}.fzar"));
        let restored = tmp(&format!("archive_{name}.f32"));
        let (input, path) = (raw.to_str().unwrap(), archive.to_str().unwrap());
        let args = [&["archive", input, path, "--chunk-values", "1000", "--eb", "1e-3"][..], extra];
        let stdout = fzgpu(&args.concat());
        assert!(stdout.contains(&format!("10 chunks {layout}")), "{stdout}");
        assert!(fzgpu(&["verify", path]).contains("archive OK (10 chunks verified)"));
        fzgpu(&["extract", path, restored.to_str().unwrap()]);
        extracted.push(std::fs::read(&restored).unwrap());
        for p in [archive, restored] {
            let _ = std::fs::remove_file(p);
        }
    }
    assert_eq!(extracted[0].len(), data.len() * 4);
    assert!(extracted[0] == extracted[1], "v2 and v3 extracts differ");
    let _ = std::fs::remove_file(raw);
}

#[test]
fn one_corrupt_chunk_costs_only_itself_in_both_layouts() {
    // One flipped payload byte of chunk 7 in an 11-chunk archive: the v2
    // directory and the v3 shard index (3 chunks a shard, so chunk 7 sits
    // in shard 2) both place every chunk, the chunk's own CRC condemns it
    // alone, and no message names the shard as a chunk.
    use fz_gpu::core::{Archive, ChunkEntry, ShardDirectory};
    let raw = tmp("corrupt_in.f32");
    let data: Vec<f32> = (0..16_384).map(|i| (i as f32 * 0.003).sin() * 4.0).collect();
    write_f32_file(&raw, &data).unwrap();
    let fzgpu = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fzgpu"))
            .args(args)
            .output()
            .expect("run fzgpu binary");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.success(), text(&out.stdout), text(&out.stderr))
    };
    let mut extracted = Vec::new();
    for (name, extra) in [("v2", &[][..]), ("v3", &["--shard-chunks", "3"][..])] {
        let archive = tmp(&format!("corrupt_{name}.fzar"));
        let restored = tmp(&format!("corrupt_{name}.f32"));
        let (input, path) = (raw.to_str().unwrap(), archive.to_str().unwrap());
        let args = [&["archive", input, path, "--chunk-values", "1500", "--eb", "1e-3"][..], extra];
        let (ok, stdout, stderr) = fzgpu(&args.concat());
        assert!(ok && stdout.contains("11 chunks"), "{stdout}{stderr}");

        let mut bytes = std::fs::read(&archive).unwrap();
        let chunk7 = if name == "v2" {
            let a = Archive::from_bytes(&bytes).unwrap();
            let stored: usize = a.chunks.iter().map(Vec::len).sum();
            bytes.len() - stored + a.chunks[..7].iter().map(Vec::len).sum::<usize>()
        } else {
            let shard = ShardDirectory::parse_directory(&bytes).unwrap().shards[2];
            assert_eq!(shard.first_chunk, 6);
            let index = ChunkEntry::parse_index(&bytes[shard.offset..]).unwrap();
            shard.offset + index[1].offset
        };
        let header = Header::from_bytes(&bytes[chunk7..]).unwrap();
        assert!(header.payload_words > 0);
        bytes[chunk7 + header.header_bytes() + header.bitflag_words() * 4] ^= 0x20;
        std::fs::write(&archive, &bytes).unwrap();

        let (ok, stdout, stderr) = fzgpu(&["verify", path]);
        assert!(!ok, "{name}: verify must fail");
        assert_eq!(stdout.matches(" ok\n").count(), 10, "{name}: {stdout}");
        assert!(stdout.contains("CORRUPT: checksum mismatch in chunk 7"), "{name}: {stdout}");
        assert!(stderr.contains("1 of 11 chunks corrupt"), "{name}: {stderr}");
        assert!(!stdout.contains("chunk 2") && !stderr.contains("chunk 2"), "{name}");

        let (ok, stdout, stderr) =
            fzgpu(&["extract", path, restored.to_str().unwrap(), "--degraded"]);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains("1500 filled from 1 corrupt chunk(s)"), "{name}: {stdout}");
        extracted.push(std::fs::read(&restored).unwrap());
        for p in [archive, restored] {
            let _ = std::fs::remove_file(p);
        }
    }
    assert_eq!(extracted[0].len(), data.len() * 4);
    assert!(extracted[0] == extracted[1], "v2 and v3 degraded extracts differ");
    let _ = std::fs::remove_file(raw);
}
