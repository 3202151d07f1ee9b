//! GPU decompression kernels.
//!
//! The pipeline is the mirror image of compression (the paper: "the
//! decompression pipeline is highly symmetrical ... exhibiting throughput
//! nearly identical to that of compression"):
//!
//! 1. expand bit flags -> byte flags,
//! 2. prefix-sum byte flags -> payload offsets,
//! 3. scatter payload blocks back into the shuffled stream (zeros elsewhere),
//! 4. bit-unshuffle each tile (ballot transpose in the other direction),
//! 5. unpack u16 codes, decode sign-magnitude deltas,
//! 6. integrate along each axis (inverse Lorenzo) and dequantize.

use fzgpu_sim::{Engine, Gpu, GpuBuffer};

use crate::fastpath::{deltas_from_words, dequantize_field, unshuffle_tiles};
use crate::gpu::encode::compaction_stats;
use crate::lorenzo::{self, rank_of, Shape};
use crate::pack::TILE_WORDS;
use crate::quant::code_to_delta;
use crate::zeroblock::BLOCK_WORDS;

/// One byte flag per block from the packed bit flags: flag `b` is bit
/// `b % 32` of word `b / 32`. The analytic fill of [`expand_flags`] and of
/// the bitshuffle-mark kernels.
pub(crate) fn flag_bytes(bit_flags: &[u32], nflags: usize) -> Vec<u8> {
    (0..nflags).map(|b| (bit_flags[b / 32] >> (b % 32) & 1) as u8).collect()
}

/// Step 1: byte flag `b` = bit `b%32` of bit-flag word `b/32`.
pub fn expand_flags(gpu: &mut Gpu, bit_flags: &GpuBuffer<u32>, nflags: usize) -> GpuBuffer<u8> {
    let out: GpuBuffer<u8> = gpu.alloc(nflags);
    let blocks = nflags.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged; the broadcast word
    // load is one sector for every full warp regardless of block index.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    gpu.launch_classed("decode.expand_flags", blocks, 256u32, class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            // One bit-flag word covers the warp's 32 lanes (broadcast load).
            let word = w.load(bit_flags, |l| {
                let b = base + l.ltid;
                (b < nflags).then_some(b / 32)
            });
            w.store(&out, |l| {
                let b = base + l.ltid;
                (b < nflags).then(|| (b, (word[l.id] >> (b % 32) & 1) as u8))
            });
        });
    });
    if analytic {
        out.host_fill_from(&flag_bytes(&bit_flags.to_vec(), nflags));
    }
    out
}

/// Step 3: scatter payload blocks to their home positions.
pub fn scatter(
    gpu: &mut Gpu,
    payload: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    offsets: &GpuBuffer<u32>,
) -> GpuBuffer<u32> {
    let nflags = byte_flags.len();
    let shuffled: GpuBuffer<u32> = gpu.alloc(nflags * BLOCK_WORDS);
    let blocks = nflags.div_ceil(256) as u32;
    if gpu.effective_engine() == Engine::Analytic {
        // Mirror image of `encode.compact`: the same per-warp operation
        // sequence with load/store swapped, and the accounting charges
        // loads and stores identically — so the closed form is shared
        // (see [`compaction_stats`]).
        let flags = byte_flags.to_vec();
        let offs = offsets.to_vec();
        let pay = payload.to_vec();
        let mut out = vec![0u32; nflags * BLOCK_WORDS];
        for (b, &f) in flags.iter().enumerate() {
            if f != 0 {
                let src = offs[b] as usize * BLOCK_WORDS;
                out[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS]
                    .copy_from_slice(&pay[src..src + BLOCK_WORDS]);
            }
        }
        shuffled.host_fill_from(&out);
        let stats = compaction_stats(&flags, &offs, blocks as usize);
        gpu.launch_analytic("decode.scatter", blocks, 256u32, stats);
        return shuffled;
    }
    gpu.launch("decode.scatter", blocks, 256u32, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let flag = w.load(byte_flags, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            let off = w.load(offsets, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            for k in 0..BLOCK_WORDS {
                let v = w.load(payload, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0).then(|| off[l.id] as usize * BLOCK_WORDS + k)
                });
                // Zero blocks rely on the freshly allocated (zeroed) buffer.
                w.store(&shuffled, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0).then(|| (b * BLOCK_WORDS + k, v[l.id]))
                });
            }
        });
    });
    shuffled
}

/// Step 4: inverse bitshuffle. Per tile, warp `y` reconstructs row `y`:
/// lane `x` accumulates bit `i` from shuffled word `(i, y)` (broadcast
/// shared read per plane).
pub fn bit_unshuffle(gpu: &mut Gpu, shuffled: &GpuBuffer<u32>) -> GpuBuffer<u32> {
    assert_eq!(shuffled.len() % TILE_WORDS, 0);
    let ntiles = (shuffled.len() / TILE_WORDS) as u32;
    let out: GpuBuffer<u32> = gpu.alloc(shuffled.len());
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Single class: every access is index-only and tile-aligned (same
    // argument as the forward shuffle kernels).
    gpu.launch_classed(
        "decode.bit_unshuffle",
        ntiles,
        (32u32, 32u32),
        |_| 0,
        |blk| {
            let tile_base = blk.block_linear() * TILE_WORDS;
            let buf = blk.shared_array::<u32>(32 * 33);
            // Load the shuffled tile coalesced: warp i loads plane i.
            blk.warps(|w| {
                let i = w.warp_id;
                let v = w.load(shuffled, |l| Some(tile_base + i * 32 + l.id));
                w.sh_store(&buf, |l| Some((i * 33 + l.id, v[l.id])));
            });
            blk.sync();
            // Warp y: for each bit plane i, broadcast buf[i][y]; lane x takes
            // bit x and deposits it at bit i of its output word.
            blk.warps(|w| {
                let y = w.warp_id;
                let mut acc = [0u32; 32];
                for i in 0..32 {
                    let word = w.sh_load(&buf, |_| Some(i * 33 + y));
                    for x in 0..32 {
                        acc[x] |= (word[x] >> x & 1) << i;
                    }
                }
                let _ = w.lanes(|_| 0u32); // accumulate ALU charge
                w.store(&out, |l| Some((tile_base + y * 32 + l.id, acc[l.id])));
            });
        },
    );
    if analytic {
        let mut words = vec![0u32; shuffled.len()];
        unshuffle_tiles(&shuffled.to_vec(), &mut words);
        out.host_fill_from(&words);
    }
    out
}

/// Step 5: unpack words to u16 codes and decode sign-magnitude deltas.
pub fn codes_to_deltas(gpu: &mut Gpu, words: &GpuBuffer<u32>, n_codes: usize) -> GpuBuffer<i32> {
    let out: GpuBuffer<i32> = gpu.alloc(n_codes);
    let blocks = n_codes.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged (base = b*256 keeps
    // the pairwise i/2 word loads and i32 stores identically aligned).
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    gpu.launch_classed("decode.codes_to_deltas", blocks, 256u32, class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let v = w.load(words, |l| {
                let i = base + l.ltid;
                (i < n_codes).then_some(i / 2)
            });
            w.store(&out, |l| {
                let i = base + l.ltid;
                (i < n_codes).then(|| {
                    let code = if i % 2 == 0 { v[l.id] as u16 } else { (v[l.id] >> 16) as u16 };
                    (i, code_to_delta(code))
                })
            });
        });
    });
    if analytic {
        let mut deltas = vec![0i32; n_codes];
        deltas_from_words(&words.to_vec(), &mut deltas);
        out.host_fill_from(&deltas);
    }
    out
}

/// Step 6a: integrate (inclusive prefix sum) along x: one warp per row,
/// striding in 32-element chunks with a running carry + warp scan.
pub fn integrate_x(gpu: &mut Gpu, q: &GpuBuffer<i32>, shape: Shape) {
    let (nz, ny, nx) = shape;
    let rows = (nz * ny) as u32;
    // In-place kernel: snapshot the input before the representative block
    // mutates its rows, so the host fill integrates the original deltas.
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let snapshot = analytic.then(|| q.to_vec());
    // Two classes: only the last block can hold inactive rows or see the
    // grid end. Row alignment is block-independent: warp j's row base is
    // (b*8 + j)*nx, congruent to j*nx mod 8 for every b.
    let nblocks = rows.div_ceil(8);
    let class = |b: usize| u64::from(b == nblocks as usize - 1);
    gpu.launch_classed("decode.integrate_x", nblocks, (32u32, 8u32), class, |blk| {
        let row0 = blk.block_linear() * 8;
        blk.warps(|w| {
            let row = row0 + w.warp_id;
            if row >= nz * ny {
                return;
            }
            let base = row * nx;
            let mut carry = 0u32;
            let mut x = 0usize;
            while x < nx {
                let v = w.load(q, |l| (x + l.id < nx).then(|| base + x + l.id));
                let as_u: [u32; 32] = core::array::from_fn(|i| v[i] as u32);
                let scanned = w.scan_add(&as_u);
                w.store(q, |l| {
                    (x + l.id < nx)
                        .then(|| (base + x + l.id, scanned[l.id].wrapping_add(carry) as i32))
                });
                let last = 32.min(nx - x) - 1;
                carry = carry.wrapping_add(scanned[last]);
                x += 32;
            }
        });
    });
    if let Some(mut vals) = snapshot {
        // Per-row wrapping prefix sum: u32/i32 wrapping add is associative,
        // so the sequential sum equals the kernel's warp scans + carries.
        lorenzo::integrate_x(&mut vals, shape);
        q.host_fill_from(&vals);
    }
}

/// Step 6b: integrate along y: warps walk y for 32 consecutive x columns
/// (coalesced row-major loads).
pub fn integrate_y(gpu: &mut Gpu, q: &GpuBuffer<i32>, shape: Shape) {
    let (nz, ny, nx) = shape;
    let col_groups = nx.div_ceil(32);
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let snapshot = analytic.then(|| q.to_vec());
    // Classes: the last column group may be ragged (bit 0); the row base
    // (z*ny + y)*nx + bx*32 is congruent mod 8 to z*ny*nx + y*nx (bx*32 is
    // a multiple of 8), so the per-plane alignment residue rides on z.
    let class = |linear: usize| {
        let bx = linear % col_groups;
        let z = linear / col_groups;
        u64::from(bx == col_groups - 1) | ((((z * ny * nx) % 8) as u64) << 1)
    };
    gpu.launch_classed("decode.integrate_y", (col_groups as u32, nz as u32), 32u32, class, |blk| {
        let x0 = blk.block_idx.x as usize * 32;
        let z = blk.block_idx.y as usize;
        blk.warps(|w| {
            let mut acc = [0i32; 32];
            for y in 0..ny {
                let base = (z * ny + y) * nx + x0;
                let v = w.load(q, |l| (x0 + l.id < nx).then_some(base + l.id));
                for i in 0..32 {
                    acc[i] = acc[i].wrapping_add(v[i]);
                }
                let snapshot = acc;
                w.store(q, |l| (x0 + l.id < nx).then(|| (base + l.id, snapshot[l.id])));
            }
        });
    });
    if let Some(mut vals) = snapshot {
        lorenzo::integrate_y(&mut vals, shape);
        q.host_fill_from(&vals);
    }
}

/// Step 6c: integrate along z.
pub fn integrate_z(gpu: &mut Gpu, q: &GpuBuffer<i32>, shape: Shape) {
    let (nz, ny, nx) = shape;
    let plane = ny * nx;
    let col_groups = plane.div_ceil(32);
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let snapshot = analytic.then(|| q.to_vec());
    // Two classes: only the last column group is ragged. Every block walks
    // the same z sequence, and c0 = b*32 keeps the loads aligned.
    let class = |b: usize| u64::from(b == col_groups - 1);
    gpu.launch_classed("decode.integrate_z", col_groups as u32, 32u32, class, |blk| {
        let c0 = blk.block_linear() * 32;
        blk.warps(|w| {
            let mut acc = [0i32; 32];
            for z in 0..nz {
                let base = z * plane + c0;
                let v = w.load(q, |l| (c0 + l.id < plane).then_some(base + l.id));
                for i in 0..32 {
                    acc[i] = acc[i].wrapping_add(v[i]);
                }
                let snapshot = acc;
                w.store(q, |l| (c0 + l.id < plane).then(|| (base + l.id, snapshot[l.id])));
            }
        });
    });
    if let Some(mut vals) = snapshot {
        lorenzo::integrate_z(&mut vals, shape);
        q.host_fill_from(&vals);
    }
}

/// Step 6d: dequantize `q * 2eb` into f32.
pub fn dequantize(gpu: &mut Gpu, q: &GpuBuffer<i32>, eb: f64) -> GpuBuffer<f32> {
    let n = q.len();
    let out: GpuBuffer<f32> = gpu.alloc(n);
    let ebx2 = 2.0 * eb;
    let blocks = n.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    gpu.launch_classed("decode.dequantize", blocks, 256u32, class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let v = w.load(q, |l| (base + l.ltid < n).then_some(base + l.ltid));
            w.store(&out, |l| {
                (base + l.ltid < n)
                    .then(|| (base + l.ltid, crate::quant::dequantize(v[l.id], ebx2)))
            });
        });
    });
    if analytic {
        out.host_fill_from(&dequantize_field(&q.to_vec(), eb));
    }
    out
}

/// Full inverse dual-quantization: deltas -> reconstructed field.
pub fn inverse_lorenzo(
    gpu: &mut Gpu,
    deltas: &GpuBuffer<i32>,
    shape: Shape,
    eb: f64,
) -> GpuBuffer<f32> {
    let rank = rank_of(shape);
    integrate_x(gpu, deltas, shape);
    if rank >= 2 {
        integrate_y(gpu, deltas, shape);
    }
    if rank >= 3 {
        integrate_z(gpu, deltas, shape);
    }
    dequantize(gpu, deltas, eb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bitshuffle as cpu_shuffle, lorenzo, zeroblock};
    use fzgpu_sim::device::A100;

    #[test]
    fn expand_flags_matches_bits() {
        let mut gpu = Gpu::new(A100);
        let bits = vec![0b1010_0001u32, 0xFFFF_0000];
        let d = gpu.upload(&bits);
        let flags = expand_flags(&mut gpu, &d, 64).to_vec();
        for b in 0..64 {
            assert_eq!(flags[b], (bits[b / 32] >> (b % 32) & 1) as u8, "flag {b}");
        }
    }

    #[test]
    fn scatter_inverts_compact() {
        let mut words = vec![0u32; 256 * BLOCK_WORDS];
        for b in (0..256).step_by(3) {
            words[b * BLOCK_WORDS + 1] = b as u32 + 7;
        }
        let reference = zeroblock::encode(&words);
        let mut gpu = Gpu::new(A100);
        let d_payload = gpu.upload(&reference.payload);
        let d_bits = gpu.upload(&reference.bit_flags);
        let flags = expand_flags(&mut gpu, &d_bits, reference.num_blocks);
        let wide = super::super::encode::widen_flags(&mut gpu, &flags);
        let (offsets, total) = super::super::encode::flag_offsets(&mut gpu, &wide);
        assert_eq!(total * BLOCK_WORDS, reference.payload.len());
        let rebuilt = scatter(&mut gpu, &d_payload, &flags, &offsets);
        assert_eq!(rebuilt.to_vec(), words);
    }

    #[test]
    fn unshuffle_inverts_gpu_shuffle() {
        let words: Vec<u32> =
            (0..2 * TILE_WORDS as u32).map(|i| i.wrapping_mul(0x9E3779B9) ^ (i << 3)).collect();
        let shuffled = cpu_shuffle::shuffle(&words);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&shuffled);
        let back = bit_unshuffle(&mut gpu, &d);
        assert_eq!(back.to_vec(), words);
    }

    #[test]
    fn integrate_matches_cpu_3d() {
        let shape = (6, 40, 70);
        let deltas: Vec<i32> = (0..6 * 40 * 70).map(|i| ((i * 31) % 23) - 11).collect();
        let mut cpu = deltas.clone();
        lorenzo::integrate(&mut cpu, shape);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&deltas);
        integrate_x(&mut gpu, &d, shape);
        integrate_y(&mut gpu, &d, shape);
        integrate_z(&mut gpu, &d, shape);
        assert_eq!(d.to_vec(), cpu);
    }

    #[test]
    fn integrate_matches_cpu_1d_long_row() {
        // Row longer than one warp stride exercises the carry logic.
        let shape = (1, 1, 1000);
        let deltas: Vec<i32> = (0..1000).map(|i| (i % 7) - 3).collect();
        let mut cpu = deltas.clone();
        lorenzo::integrate(&mut cpu, shape);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&deltas);
        integrate_x(&mut gpu, &d, shape);
        assert_eq!(d.to_vec(), cpu);
    }

    #[test]
    fn codes_to_deltas_unpacks_both_halves() {
        let codes: Vec<u16> = vec![5, 0x8003, 0, 32767, 0x8000 | 32767];
        let words = crate::pack::pack_codes(&codes);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&words);
        let deltas = codes_to_deltas(&mut gpu, &d, codes.len());
        assert_eq!(deltas.to_vec(), vec![5, -3, 0, 32767, -32767]);
    }

    #[test]
    fn full_inverse_pipeline_matches_cpu_inverse() {
        let shape = (4, 33, 65);
        let n = 4 * 33 * 65;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i % 65) as f32 * 0.1).sin() + ((i / 65 % 33) as f32 * 0.05).cos())
            .collect();
        let eb = 1e-3;
        let codes = lorenzo::forward(&data, shape, eb);
        let cpu_back = lorenzo::inverse(&codes, shape, eb);

        let mut gpu = Gpu::new(A100);
        let words = crate::pack::pack_codes(&codes);
        let d_words = gpu.upload(&words);
        let deltas = codes_to_deltas(&mut gpu, &d_words, n);
        let back = inverse_lorenzo(&mut gpu, &deltas, shape, eb);
        assert_eq!(back.to_vec(), cpu_back);
    }
}
