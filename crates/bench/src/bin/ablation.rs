//! Extra ablations beyond the paper's Fig. 10, for the design choices
//! DESIGN.md §5 calls out:
//!
//! 1. shared-memory padding (32x33 vs 32x32 tile): bank-conflict counts
//!    and kernel time;
//! 2. zero-block granularity sweep: compression ratio vs flag overhead;
//! 3. bitshuffle + LZ77/DEFLATE (Masui-style CPU state of the art) vs the
//!    zero-block encoder: ratio and wall-clock on the same shuffled bytes;
//! 4. bitshuffle on vs off ahead of the zero-block encoder.

use fzgpu_bench::{fmt, parse_args, scale_of, shape_of, Table};
use fzgpu_core::gpu::bitshuffle::{bitshuffle_mark, ShuffleVariant};
use fzgpu_core::pack::pack_codes;
use fzgpu_core::{bitshuffle, lorenzo};
use fzgpu_data::dataset;
use fzgpu_sim::device::A100;
use fzgpu_sim::{Gpu, GpuBuffer};

const USAGE: &str = "usage:\n  ablation [--scale reduced|full]";

/// Zero-block stream size at an arbitrary block granularity (words).
fn zeroblock_bytes(words: &[u32], block_words: usize) -> usize {
    let nblocks = words.len().div_ceil(block_words);
    let nonzero = words.chunks(block_words).filter(|b| b.iter().any(|&w| w != 0)).count();
    nblocks.div_ceil(32) * 4 + nonzero * block_words * 4
}

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let field = dataset("Hurricane").unwrap().generate(scale);
    let shape = shape_of(&field);
    let n = field.data.len();
    let eb = field.abs_bound(1e-3);
    let codes = lorenzo::forward(&field.data, shape, eb);
    let words = pack_codes(&codes);
    let shuffled = bitshuffle::shuffle(&words);

    println!("Ablations on Hurricane {} @ rel eb 1e-3\n", field.dims.to_string_paper());

    // 1. Shared-memory padding.
    println!("== 1. shared-memory padding (the 32x33 trick) ==");
    let mut t = Table::new(&["tile", "bank-conflict cycles", "kernel time us", "slowdown"]);
    let run = |variant| {
        let mut gpu = Gpu::new(A100);
        let d = GpuBuffer::from_host(&words);
        gpu.reset_timeline();
        let _ = bitshuffle_mark(&mut gpu, &d, variant);
        (gpu.last_kernel().stats.smem_conflict_cycles, gpu.kernel_time())
    };
    let (c_pad, t_pad) = run(ShuffleVariant::Fused);
    let (c_nopad, t_nopad) = run(ShuffleVariant::FusedUnpadded);
    t.row(vec!["32x33 padded".into(), c_pad.to_string(), fmt(t_pad * 1e6), "1.0x".into()]);
    t.row(vec![
        "32x32 unpadded".into(),
        c_nopad.to_string(),
        fmt(t_nopad * 1e6),
        format!("{:.2}x", t_nopad / t_pad),
    ]);
    print!("{}", t.render());

    // 2. Zero-block granularity.
    println!("\n== 2. zero-block granularity (paper uses 4 words = 16 B) ==");
    let mut t = Table::new(&["block words", "flag bits", "compressed MB", "ratio"]);
    for bw in [1usize, 2, 4, 8, 16, 32] {
        let bytes = zeroblock_bytes(&shuffled, bw);
        t.row(vec![
            bw.to_string(),
            (shuffled.len().div_ceil(bw)).to_string(),
            format!("{:.2}", bytes as f64 / 1e6),
            format!("{:.1}x", (n * 4) as f64 / bytes as f64),
        ]);
    }
    print!("{}", t.render());

    // 3. Zero-block vs LZ77/DEFLATE on the shuffled stream.
    println!("\n== 3. encoder face-off on the bitshuffled stream ==");
    let shuffled_bytes: Vec<u8> = shuffled.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut t = Table::new(&["encoder", "compressed MB", "ratio", "encode wall ms"]);
    let t0 = std::time::Instant::now();
    let zb = fzgpu_core::zeroblock::encode(&shuffled);
    let dt_zb = t0.elapsed().as_secs_f64();
    t.row(vec![
        "zero-block (FZ-GPU)".into(),
        format!("{:.2}", zb.size_bytes() as f64 / 1e6),
        format!("{:.1}x", (n * 4) as f64 / zb.size_bytes() as f64),
        fmt(dt_zb * 1e3),
    ]);
    let t0 = std::time::Instant::now();
    let lz = fzgpu_codecs::deflate::compress(&shuffled_bytes);
    let dt_lz = t0.elapsed().as_secs_f64();
    t.row(vec![
        "LZ77+Huffman (Masui-style)".into(),
        format!("{:.2}", lz.len() as f64 / 1e6),
        format!("{:.1}x", (n * 4) as f64 / lz.len() as f64),
        fmt(dt_lz * 1e3),
    ]);
    print!("{}", t.render());
    println!(
        "(LZ gains {:.0}% more ratio but costs {:.0}x the encode time — the paper's\n\
         argument for replacing LZ4 with the GPU-parallel zero-block encoder.)",
        100.0 * (zb.size_bytes() as f64 / lz.len() as f64 - 1.0),
        dt_lz / dt_zb
    );

    // 4. Bitshuffle on/off.
    println!("\n== 4. does bitshuffle earn its keep? ==");
    let mut t = Table::new(&["pipeline", "compressed MB", "ratio"]);
    let without = fzgpu_core::zeroblock::encode(&words);
    t.row(vec![
        "quant -> zero-block".into(),
        format!("{:.2}", without.size_bytes() as f64 / 1e6),
        format!("{:.1}x", (n * 4) as f64 / without.size_bytes() as f64),
    ]);
    t.row(vec![
        "quant -> bitshuffle -> zero-block".into(),
        format!("{:.2}", zb.size_bytes() as f64 / 1e6),
        format!("{:.1}x", (n * 4) as f64 / zb.size_bytes() as f64),
    ]);
    print!("{}", t.render());
}
