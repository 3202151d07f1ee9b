//! Figure 10: per-kernel ablation of the proposed optimizations, per
//! dataset on the A100.
//!
//! Matches the paper's six bars:
//! - `pred-quant-v1` (shift + outlier handling) vs `pred-quant-v2`
//!   (branch-free sign-magnitude),
//! - `bitshuffle-mark-v1` (two kernels) vs `-v2` (fused),
//! - `prefix-sum-encode-v1` vs `-v2` (same kernels; the speedup comes from
//!   the dual-quantization optimization producing more zero blocks).

use fzgpu_bench::{all_fields, fmt, parse_args, scale_of, shape_of, Table};
use fzgpu_core::gpu::bitshuffle::{bitshuffle_mark, ShuffleVariant};
use fzgpu_core::gpu::encode as genc;
use fzgpu_core::gpu::quant::{pred_quant_v1, pred_quant_v2};
use fzgpu_core::pack::pack_codes;
use fzgpu_sim::device::A100;
use fzgpu_sim::{Gpu, GpuBuffer};

const USAGE: &str = "usage:\n  fig10_optimizations [--scale reduced|full]";

/// Kernel time of `f` on a fresh timeline.
fn timed<R>(gpu: &mut Gpu, f: impl FnOnce(&mut Gpu) -> R) -> (R, f64) {
    gpu.reset_timeline();
    let r = f(gpu);
    (r, gpu.kernel_time())
}

fn main() {
    let scale = parse_args(USAGE, scale_of);
    let fields = all_fields(scale);
    let rel_eb = 1e-2;
    println!("Figure 10: optimization ablation per kernel, A100, rel eb {rel_eb:.0e}\n");
    println!("(throughputs in GB/s of the original field size)\n");

    let mut t = Table::new(&[
        "dataset",
        "pred-quant v1",
        "pred-quant v2",
        "bitshuffle-mark v1",
        "bitshuffle-mark v2",
        "prefix-sum-encode v1",
        "prefix-sum-encode v2",
    ]);
    for field in &fields {
        let shape = shape_of(field);
        let bytes = field.data.len() * 4;
        let eb = field.abs_bound(rel_eb);
        let mut gpu = Gpu::new(A100);
        let d_input = gpu.upload(&field.data);

        // Dual-quantization variants.
        let ((codes_v1, _outliers), t_q1) =
            timed(&mut gpu, |g| pred_quant_v1(g, &d_input, shape, eb));
        let (codes_v2, t_q2) = timed(&mut gpu, |g| pred_quant_v2(g, &d_input, shape, eb));

        // Bitshuffle + mark variants (on the optimized codes).
        let words_v2 = GpuBuffer::from_host(&pack_codes(&codes_v2.to_vec()));
        let (_, t_b1) = timed(&mut gpu, |g| bitshuffle_mark(g, &words_v2, ShuffleVariant::Unfused));
        let ((shuffled2, flags2, _), t_b2) =
            timed(&mut gpu, |g| bitshuffle_mark(g, &words_v2, ShuffleVariant::Fused));

        // Encode phase on v1 codes (radius-shifted: bit 9 always set, far
        // fewer zero blocks) vs v2 codes.
        let words_v1 = GpuBuffer::from_host(&pack_codes(&codes_v1.to_vec()));
        let ((shuffled1, flags1, _), _) =
            timed(&mut gpu, |g| bitshuffle_mark(g, &words_v1, ShuffleVariant::Fused));
        let encode = |g: &mut Gpu, shuffled: &GpuBuffer<u32>, flags: &GpuBuffer<u8>| {
            let wide = genc::widen_flags(g, flags);
            let (offsets, present) = genc::flag_offsets(g, &wide);
            genc::compact(g, shuffled, flags, &offsets, present)
        };
        let (_, t_e1) = timed(&mut gpu, |g| encode(g, &shuffled1, &flags1));
        let (_, t_e2) = timed(&mut gpu, |g| encode(g, &shuffled2, &flags2));

        let gbps = |t: f64| fmt(bytes as f64 / t / 1e9);
        t.row(vec![
            field.dataset.into(),
            gbps(t_q1),
            gbps(t_q2),
            gbps(t_b1),
            gbps(t_b2),
            gbps(t_e1),
            gbps(t_e2),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper: pred-quant speedup up to 1.7x, fusion up to 1.1x, encode up to 1.9x");
    println!("(HACC may invert the encode columns — Lorenzo is weak on particle data,");
    println!(" its large irregular codes defeat the zero-block encoder; §4.5 notes this.)");
}
