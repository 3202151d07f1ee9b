//! Experimental full-pipeline fusion (the paper's future work §6 item 1:
//! "exploit fusing all GPU kernels into one to improve the performance
//! further").
//!
//! For 1D fields, dual-quantization, code packing, bitshuffle, and
//! zero-block marking all fuse into a single kernel: each thread block
//! owns one 1024-word tile (2048 values), quantizes it straight into
//! shared memory, ballot-transposes it, and emits flags — the data never
//! makes the intermediate round trip through global memory that the
//! three-kernel pipeline pays. Only the prefix-sum + compaction phase
//! remains separate (it needs device-wide synchronization).
//!
//! The stream is bit-identical to the unfused pipeline (tested below).

use fzgpu_sim::{Engine, Gpu, GpuBuffer};
use rayon::prelude::*;

use crate::fastpath::{encode_tile, group_tiles, tile_flags, walk_group, TILE_FLAG_WORDS};
use crate::gpu::decode::flag_bytes;
use crate::gpu::quant::window_loader;
use crate::pack::{TILE_CODES, TILE_WORDS};
use crate::quant::{delta_to_code, prequantize};
use crate::zeroblock::BLOCK_WORDS;

/// Flags per tile.
const FLAGS_PER_TILE: usize = TILE_WORDS / BLOCK_WORDS;

/// Fused 1D pipeline front end: f32 field -> (shuffled words, byte flags,
/// bit flags) in one kernel launch.
pub fn fused_1d(
    gpu: &mut Gpu,
    input: &GpuBuffer<f32>,
    n: usize,
    eb: f64,
) -> (GpuBuffer<u32>, GpuBuffer<u8>, GpuBuffer<u32>) {
    let ntiles = n.div_ceil(TILE_CODES).max(1);
    let nwords = ntiles * TILE_WORDS;
    let nflags = ntiles * FLAGS_PER_TILE;
    let mut shuffled: GpuBuffer<u32> = gpu.alloc(nwords);
    let mut byte_flags: GpuBuffer<u8> = gpu.alloc(nflags);
    let mut bit_flags: GpuBuffer<u32> = gpu.alloc(nflags.div_ceil(32));
    let ebx2_inv = 1.0 / (2.0 * eb);

    // Counter-equivalence classes (DESIGN.md §16): tile 0 drops the
    // west-neighbor load at g == 0, the last tile may be ragged; interior
    // tiles are identical (val_base = tile*2048 keeps all strided f32
    // loads congruent mod 8, and every later phase is index-only). The
    // signature is `n`, which the quant-phase predicates read.
    let last = ntiles - 1;
    let class = |t: usize| u64::from(t == 0) | (u64::from(t == last) << 1);
    gpu.launch_classed(
        "fused.quant_shuffle_mark_1d",
        ntiles as u32,
        (32u32, 32u32),
        &[n as u64],
        class,
        |blk| {
            let tile = blk.block_linear();
            let val_base = tile * TILE_CODES;
            // Packed-code tile (u32 = two u16 codes), padded stride 33, plus a
            // second tile for the transposed output: the in-place write pattern
            // would race (a warp's column writes land in rows other warps have
            // yet to read), on real hardware and in the simulator alike.
            let buf = blk.shared_array::<u32>(32 * 33);
            let tbuf = blk.shared_array::<u32>(32 * 33);
            let byte_flag_sh = blk.shared_array::<u8>(FLAGS_PER_TILE);

            // Phase 1: quantize two values per thread, pack the pair into one
            // u32 word directly in registers, store to shared — fused layout
            // identical to packing pred_quant's codes.
            blk.warps(|w| {
                let y = w.warp_id;
                let word_base = val_base + (y * 32) * 2;
                // Each lane owns word (y, x) = values [2w, 2w+1]; the delta of
                // value i needs value i-1, so lanes also read one value back.
                let v0 = w.load(input, |l| {
                    let g = word_base + 2 * l.id;
                    (g < n).then_some(g)
                });
                let v1 = w.load(input, |l| {
                    let g = word_base + 2 * l.id + 1;
                    (g < n).then_some(g)
                });
                let vprev = w.load(input, |l| {
                    let g = word_base + 2 * l.id;
                    (g < n && g > 0).then(|| g - 1)
                });
                let words = w.lanes(|l| {
                    let g = word_base + 2 * l.id;
                    let q0 = if g < n { prequantize(v0[l.id], ebx2_inv) } else { 0 };
                    let qp = if g < n && g > 0 { prequantize(vprev[l.id], ebx2_inv) } else { 0 };
                    let c0 = if g < n { delta_to_code(q0.wrapping_sub(qp)) } else { 0 };
                    let c1 = if g + 1 < n {
                        let q1 = prequantize(v1[l.id], ebx2_inv);
                        delta_to_code(q1.wrapping_sub(q0))
                    } else {
                        0
                    };
                    c0 as u32 | ((c1 as u32) << 16)
                });
                w.sh_store(&buf, |l| Some((y * 33 + l.id, words[l.id])));
            });
            blk.sync();

            // Phase 2: ballot transpose, row-major read from `buf`, column
            // write into `tbuf` (padded stride keeps the column conflict-free).
            blk.warps(|w| {
                let y = w.warp_id;
                let row = w.sh_load(&buf, |l| Some(y * 33 + l.id));
                let mut planes = [0u32; 32];
                for (i, plane) in planes.iter_mut().enumerate() {
                    *plane = w.ballot(|l| (row[l.id] >> i) & 1 == 1);
                }
                for (i, &plane) in planes.iter().enumerate() {
                    w.sh_store(&tbuf, |l| (l.id == 0).then_some((i * 33 + y, plane)));
                }
            });
            blk.sync();

            // Phase 3: byte flags + bit flags + coalesced writeback — identical
            // to the standalone fused kernel.
            blk.warps(|w| {
                if w.warp_id >= FLAGS_PER_TILE / 32 {
                    return;
                }
                let b0 = w.warp_id * 32;
                let mut nonzero = [false; 32];
                for k in 0..BLOCK_WORDS {
                    let v = w.sh_load(&tbuf, |l| {
                        let j = (b0 + l.id) * BLOCK_WORDS + k;
                        Some((j / 32) * 33 + (j % 32))
                    });
                    for i in 0..32 {
                        nonzero[i] |= v[i] != 0;
                    }
                }
                w.sh_store(&byte_flag_sh, |l| Some((b0 + l.id, nonzero[l.id] as u8)));
            });
            blk.sync();
            blk.warps(|w| {
                if w.warp_id < FLAGS_PER_TILE / 32 {
                    let g = w.warp_id;
                    let f = w.sh_load(&byte_flag_sh, |l| Some(g * 32 + l.id));
                    let mask = w.ballot(|l| f[l.id] != 0);
                    w.store(&bit_flags, |l| {
                        (l.id == 0).then_some((tile * (FLAGS_PER_TILE / 32) + g, mask))
                    });
                    w.store(&byte_flags, |l| {
                        Some((tile * FLAGS_PER_TILE + g * 32 + l.id, f[l.id]))
                    });
                }
            });
            blk.warps(|w| {
                let i = w.warp_id;
                let v = w.sh_load(&tbuf, |l| Some(i * 33 + l.id));
                w.store(&shuffled, |l| Some((tile * TILE_WORDS + i * 32 + l.id, v[l.id])));
            });
        },
    );
    if gpu.effective_engine() == Engine::Analytic {
        // Native fill: the native encoder's groups, tile for tile, keeping
        // every shuffled tile instead of compacting it. The fused kernel's
        // in-register delta (`q0.wrapping_sub(qp)`) equals the 1D Lorenzo
        // row kernel's arithmetic, and its zero padding beyond `n` equals
        // the encoder's zero codes past the field.
        let shape = (1, 1, n);
        let per = group_tiles(shape);
        shuffled
            .host_mut()
            .par_chunks_mut(per * TILE_WORDS)
            .zip(bit_flags.host_mut().par_chunks_mut(per * TILE_FLAG_WORDS))
            .zip(byte_flags.host_mut().par_chunks_mut(per * FLAGS_PER_TILE))
            .enumerate()
            .with_max_len(1)
            .for_each(|(g, ((sh, bits), bytes))| {
                let tiles = g * per..g * per + bits.len() / TILE_FLAG_WORDS;
                let mut tiles_out =
                    sh.chunks_exact_mut(TILE_WORDS).zip(bits.chunks_exact_mut(TILE_FLAG_WORDS));
                walk_group(shape, n, tiles, window_loader(input, eb), |win, a, len| {
                    let (tile, flags) = tiles_out.next().expect("one output tile per tile");
                    let tile: &mut [u32; TILE_WORDS] = tile.try_into().expect("a whole tile");
                    encode_tile(win, shape, a, len, tile);
                    tile_flags(tile, flags);
                });
                flag_bytes(bits, bytes);
            });
    }
    (shuffled, byte_flags, bit_flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::bitshuffle::{bitshuffle_mark, ShuffleVariant};
    use crate::gpu::quant::pred_quant_v2;
    use crate::pack::pack_codes;
    use fzgpu_sim::device::A100;

    fn compare_against_unfused(data: &[f32], eb: f64) {
        let n = data.len();
        let mut gpu = Gpu::new(A100);
        let d = GpuBuffer::from_host(data);

        let (f_shuf, f_bytes, f_bits) = fused_1d(&mut gpu, &d, n, eb);

        let codes = pred_quant_v2(&mut gpu, &d, (1, 1, n), eb);
        let words = GpuBuffer::from_host(&pack_codes(&codes.to_vec()));
        let (u_shuf, u_bytes, u_bits) = bitshuffle_mark(&mut gpu, &words, ShuffleVariant::Fused);

        assert_eq!(f_shuf.to_vec(), u_shuf.to_vec(), "shuffled words diverge");
        assert_eq!(f_bytes.to_vec(), u_bytes.to_vec(), "byte flags diverge");
        assert_eq!(f_bits.to_vec(), u_bits.to_vec(), "bit flags diverge");
    }

    #[test]
    fn matches_unfused_on_smooth_data() {
        let data: Vec<f32> = (0..TILE_CODES * 3).map(|i| (i as f32 * 0.01).sin() * 4.0).collect();
        compare_against_unfused(&data, 1e-3);
    }

    #[test]
    fn matches_unfused_on_ragged_tail() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.02).cos()).collect();
        compare_against_unfused(&data, 1e-3);
    }

    #[test]
    fn matches_unfused_on_rough_data() {
        let data: Vec<f32> = (0..TILE_CODES)
            .map(|i| ((i as u32).wrapping_mul(2654435761) >> 16) as f32 * 0.1)
            .collect();
        compare_against_unfused(&data, 1e-2);
    }

    #[test]
    fn fusion_reduces_global_traffic() {
        let data: Vec<f32> = (0..TILE_CODES * 16).map(|i| (i as f32 * 0.005).sin()).collect();
        let n = data.len();
        let mut gpu = Gpu::new(A100);
        let d = GpuBuffer::from_host(&data);
        gpu.reset_timeline();
        let _ = fused_1d(&mut gpu, &d, n, 1e-3);
        let fused_time = gpu.kernel_time();

        gpu.reset_timeline();
        let codes = pred_quant_v2(&mut gpu, &d, (1, 1, n), 1e-3);
        let words = GpuBuffer::from_host(&pack_codes(&codes.to_vec()));
        let _ = bitshuffle_mark(&mut gpu, &words, ShuffleVariant::Fused);
        let unfused_time = gpu.kernel_time();
        assert!(
            fused_time < unfused_time,
            "full fusion should win: {fused_time} vs {unfused_time}"
        );
    }
}
