//! Robustness measurements backing DESIGN.md §10 / EXPERIMENTS.md:
//!
//! 1. corruption-detection rate of stream format v2 under single-bit and
//!    burst (multi-bit) payload corruption, and under header corruption;
//! 2. modeled kernel-time overhead of the launch-retry policy at a sweep
//!    of transient-fault probabilities;
//! 3. the space cost of carrying checksums (v2 vs v1 stream sizes, archive
//!    directory growth).

use fzgpu_bench::{fmt, parse_args, scale_of, shape_of, Table};
use fzgpu_core::format::{self, HEADER_BYTES, HEADER_V1_BYTES};
use fzgpu_core::{Archive, ErrorBound, FaultPlan, FzGpu};
use fzgpu_data::dataset;
use fzgpu_sim::device::A100;
use fzgpu_sim::FaultInjector;

const USAGE: &str = "usage:\n  robustness [--scale reduced|full]";

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let field = dataset("CESM").unwrap().generate(scale);
    let shape = shape_of(&field);
    let eb = ErrorBound::RelToRange(1e-3);
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&field.data, shape, eb);
    println!(
        "Robustness campaigns on CESM {} ({:.2} MB compressed, ratio {:.1}x)\n",
        field.dims.to_string_paper(),
        c.bytes.len() as f64 / 1e6,
        c.ratio(),
    );

    // 1. Corruption detection.
    println!("== 1. corruption detection (stream format v2) ==");
    let mut t = Table::new(&["corruption model", "trials", "detected", "rate"]);
    let mut inj = FaultInjector::new(FaultPlan::seeded(2026));
    const TRIALS: usize = 500;

    let mut detected = 0;
    for _ in 0..TRIALS {
        let mut copy = c.bytes.clone();
        inj.flip_one_bit(&mut copy, HEADER_BYTES);
        if fz.decompress_bytes(&copy).is_err() {
            detected += 1;
        }
    }
    t.row(vec![
        "single bit flip, payload".into(),
        TRIALS.to_string(),
        detected.to_string(),
        format!("{:.1}%", 100.0 * detected as f64 / TRIALS as f64),
    ]);

    let mut detected = 0;
    for _ in 0..TRIALS {
        let mut copy = c.bytes.clone();
        // Burst: 2..=8 adjacent-ish flips anywhere in the stream body.
        for _ in 0..2 + inj.flip_one_bit(&mut copy, HEADER_BYTES) % 7 {
            inj.flip_one_bit(&mut copy, HEADER_BYTES);
        }
        if fz.decompress_bytes(&copy).is_err() {
            detected += 1;
        }
    }
    t.row(vec![
        "burst (3-9 bits), payload".into(),
        TRIALS.to_string(),
        detected.to_string(),
        format!("{:.1}%", 100.0 * detected as f64 / TRIALS as f64),
    ]);

    let header_bits = HEADER_BYTES * 8;
    let mut detected = 0;
    for bit in 0..header_bits {
        let mut copy = c.bytes.clone();
        copy[bit / 8] ^= 1 << (bit % 8);
        if fz.decompress_bytes(&copy).is_err() {
            detected += 1;
        }
    }
    t.row(vec![
        "single bit flip, header (exhaustive)".into(),
        header_bits.to_string(),
        detected.to_string(),
        format!("{:.1}%", 100.0 * detected as f64 / header_bits as f64),
    ]);
    print!("{}", t.render());

    // 2. Retry overhead.
    println!("\n== 2. launch-retry overhead (modeled kernel time, compress) ==");
    let mut t = Table::new(&["fault prob/attempt", "retries", "kernel time us", "overhead"]);
    let mut clean = FzGpu::new(A100);
    let c0 = clean.compress(&field.data, shape, eb);
    let t0 = clean.kernel_time();
    t.row(vec!["0 (faults off)".into(), "0".into(), fmt(t0 * 1e6), "-".into()]);
    for prob in [0.05, 0.1, 0.3, 0.5] {
        let mut faulty = FzGpu::new(A100);
        faulty.enable_faults(FaultPlan::seeded(7).launch_faults(prob, 2));
        let c1 = faulty.compress(&field.data, shape, eb);
        assert_eq!(c0.bytes, c1.bytes, "faulted run must produce identical bytes");
        let t1 = faulty.kernel_time();
        t.row(vec![
            format!("{prob}"),
            faulty.total_retries().to_string(),
            fmt(t1 * 1e6),
            format!("+{:.2}%", 100.0 * (t1 / t0 - 1.0)),
        ]);
    }
    print!("{}", t.render());
    println!("(retried launches re-execute nothing destructive: streams stay bit-identical)");

    // 3. Checksum space overhead.
    println!("\n== 3. integrity metadata cost ==");
    let v2_len = c.bytes.len();
    let v1_len = v2_len - (HEADER_BYTES - HEADER_V1_BYTES);
    println!(
        "stream:  v1 {} B -> v2 {} B (+{} B, +{:.4}%)",
        v1_len,
        v2_len,
        v2_len - v1_len,
        100.0 * (v2_len as f64 / v1_len as f64 - 1.0),
    );
    let a = Archive::compress(&mut fz, &field.data, field.data.len().div_ceil(8), eb);
    let nchunks = a.chunks.len();
    let v2_dir = 24 + 20 * nchunks + 4;
    let v1_dir = 24 + 8 * nchunks;
    println!(
        "archive: {} chunks, directory v1 {} B -> v2 {} B; total {:.2} MB (+{:.4}% vs v1)",
        nchunks,
        v1_dir,
        v2_dir,
        a.size_bytes() as f64 / 1e6,
        100.0
            * ((v2_dir - v1_dir + nchunks * (HEADER_BYTES - HEADER_V1_BYTES)) as f64
                / (a.size_bytes() as f64)),
    );
    let ok = format::verify(&c.bytes).is_ok();
    let t0 = std::time::Instant::now();
    let reps = 20;
    for _ in 0..reps {
        let _ = format::verify(&c.bytes);
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "verify:  {} ({:.2} ms host-side for {:.2} MB = {:.1} GB/s CRC throughput)",
        if ok { "ok" } else { "FAILED" },
        dt * 1e3,
        v2_len as f64 / 1e6,
        v2_len as f64 / dt / 1e9,
    );
}
