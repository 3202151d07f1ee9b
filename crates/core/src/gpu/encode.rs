//! GPU encoding phase 2 (§3.4): prefix-sum the byte flags into compaction
//! offsets, then write the non-zero blocks to the output payload.
//!
//! The device-wide synchronization between flag generation and compaction
//! is realized exactly as the paper describes — by splitting into two
//! kernels with the CUB-style [`fzgpu_sim::scan::exclusive_sum`] in
//! between ("a synchronization can be conveniently triggered when a GPU
//! kernel exits").

use fzgpu_sim::scan::exclusive_sum;
use fzgpu_sim::{Engine, Gpu, GpuBuffer, KernelStats};
use rayon::prelude::*;

use crate::zeroblock::BLOCK_WORDS;

/// Flags per item of the analytic widen, compact, expand and scatter
/// fills: a whole number of 256-flag kernel blocks, so each item holds
/// whole warps, and few enough for a stack buffer.
pub(crate) const FILL_FLAGS: usize = 1 << 10;

/// Widen byte flags to u32 for the scan (CUB scans these as integers).
pub fn widen_flags(gpu: &mut Gpu, byte_flags: &GpuBuffer<u8>) -> GpuBuffer<u32> {
    let n = byte_flags.len();
    let mut out: GpuBuffer<u32> = gpu.alloc(n);
    let blocks = n.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged (base = b*256 keeps
    // every warp's loads and stores identically sector-aligned). The
    // signature is `n`, which the predicates read.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    gpu.launch_classed("encode.widen_flags", blocks, 256u32, &[n as u64], class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let v = w.load(byte_flags, |l| (base + l.ltid < n).then_some(base + l.ltid));
            w.store(&out, |l| (base + l.ltid < n).then(|| (base + l.ltid, v[l.id] as u32)));
        });
    });
    if analytic {
        out.host_mut().par_chunks_mut(FILL_FLAGS).enumerate().for_each(|(c, wide)| {
            let mut flags = [0u8; FILL_FLAGS];
            let flags = &mut flags[..wide.len()];
            byte_flags.read_into(c * FILL_FLAGS, flags);
            for (w, &f) in wide.iter_mut().zip(&*flags) {
                *w = f as u32;
            }
        });
    }
    out
}

/// Exclusive prefix sum over the (widened) flags. Returns
/// `(offsets, total_nonzero_blocks)`.
pub fn flag_offsets(gpu: &mut Gpu, flags_u32: &GpuBuffer<u32>) -> (GpuBuffer<u32>, usize) {
    let n = flags_u32.len();
    let mut offsets: GpuBuffer<u32> = gpu.alloc(n);
    let total = exclusive_sum(gpu, flags_u32, &mut offsets, n) as usize;
    (offsets, total)
}

/// Compaction kernel: copy block `b` to `payload[offsets[b] * BLOCK_WORDS]`
/// when its flag is set ("if the corresponding data block has a valid
/// offset, the compressed data block will be saved").
pub fn compact(
    gpu: &mut Gpu,
    shuffled: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    offsets: &GpuBuffer<u32>,
    total_blocks_present: usize,
) -> GpuBuffer<u32> {
    let nflags = byte_flags.len();
    assert_eq!(shuffled.len(), nflags * BLOCK_WORDS);
    let mut payload: GpuBuffer<u32> = gpu.alloc(total_blocks_present * BLOCK_WORDS);
    if gpu.effective_engine() == Engine::Analytic {
        // Data-dependent kernel: no block is representative, but the
        // counters are an exact function of (flags, offsets) — see
        // [`warp_stats`]. The payload itself is a copy of the flagged
        // blocks to their offsets. Offsets are the exclusive prefix sum of
        // the flags, so each task of FILL_FLAGS flags owns the payload from
        // its first flag's offset to the next task's, and the payload
        // splits there; every task reads its flags, offsets and shuffled
        // words in place and returns its warps' counters.
        let ntasks = nflags.div_ceil(FILL_FLAGS);
        let mut pieces = Vec::with_capacity(ntasks);
        let mut rest = payload.host_mut();
        let mut at = 0;
        for c in 1..ntasks {
            let next = offsets.host_read(c * FILL_FLAGS) as usize * BLOCK_WORDS;
            let (piece, tail) = rest.split_at_mut(next - at);
            pieces.push(piece);
            (rest, at) = (tail, next);
        }
        pieces.push(rest);
        let task_stats: Vec<KernelStats> = pieces
            .into_par_iter()
            .enumerate()
            .map(|(c, piece)| compact_task(shuffled, byte_flags, offsets, c * FILL_FLAGS, piece))
            .collect();
        launch_compaction(gpu, "encode.compact", nflags, &task_stats);
        return payload;
    }
    let blocks = nflags.div_ceil(256) as u32;
    gpu.launch("encode.compact", blocks, 256u32, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let flag = w.load(byte_flags, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            let off = w.load(offsets, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            for k in 0..BLOCK_WORDS {
                let v = w.load(shuffled, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0).then_some(b * BLOCK_WORDS + k)
                });
                w.store(&payload, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0)
                        .then(|| (off[l.id] as usize * BLOCK_WORDS + k, v[l.id]))
                });
            }
        });
    });
    payload
}

/// Record an analytic launch of `encode.compact` or `decode.scatter` over
/// `nflags` flags: the counters of its fill's tasks of [`FILL_FLAGS`]
/// flags each, merged in task order (they are integer sums), plus the
/// idle warps of the last 256-flag block.
pub(crate) fn launch_compaction(gpu: &mut Gpu, name: &str, nflags: usize, tasks: &[KernelStats]) {
    let blocks = nflags.div_ceil(256);
    let mut stats = KernelStats::default();
    for s in tasks {
        stats.merge(s);
    }
    for _ in nflags.div_ceil(32)..blocks * 8 {
        warp_stats(&mut stats, &[], &[]);
    }
    gpu.launch_analytic(name, blocks as u32, 256u32, stats);
}

/// Closed-form [`KernelStats`] of one warp of the compaction kernel —
/// and, by symmetry, of the decoder's scatter kernel
/// ([`crate::gpu::decode`]), whose per-warp operations mirror compact's
/// with load/store swapped (the accounting charges loads and stores
/// identically). `flags` and `offs` are its active lanes (none for a warp
/// past the last flag).
///
/// Per warp (`base = warp * 32`, A = active lanes under `b < nflags`,
/// `w` = bitmask of flagged active lanes, `m = popcount(w)`):
/// - flag load (u8): 1 instr, `32 - A` idle slots, `A` bytes, 1 sector
///   when `A > 0` (a 32-flag warp row spans exactly one 32-byte sector);
/// - offset load (u32): 1 instr, `32 - A` idle slots, `4A` bytes,
///   `ceil(A/8)` sectors;
/// - per payload word `k` in `0..BLOCK_WORDS`, a gather on the block side
///   and a scatter on the payload side, each 1 instr, `32 - m` idle
///   slots, `4m` bytes. Word `k` of block `b` is element `4b + k`, which
///   lives in sector `floor(b/2)` for every `k`, so the block side moves
///   one sector per *flagged lane pair* — `popcount((w | w >> 1) &
///   0x5555_5555)`. The payload side's offsets are consecutive
///   (`o0..o0+m`), spanning `floor((o0+m-1)/2) - floor(o0/2) + 1` sectors.
pub(crate) fn warp_stats(s: &mut KernelStats, flags: &[u8], offs: &[u32]) {
    let active = flags.len() as u64;
    s.warp_instructions += 2;
    s.inactive_lane_slots += 2 * (32 - active);
    s.global_bytes_requested += active * 5;
    s.global_sectors += u64::from(active > 0) + active.div_ceil(8);
    let w = flags.iter().enumerate().fold(0u32, |w, (l, &f)| w | u32::from(f != 0) << l);
    let m = w.count_ones() as u64;
    let pair_sectors = ((w | w >> 1) & 0x5555_5555).count_ones() as u64;
    let payload_sectors = if m > 0 {
        let o0 = offs[w.trailing_zeros() as usize] as u64;
        (o0 + m - 1) / 2 - o0 / 2 + 1
    } else {
        0
    };
    let bw = BLOCK_WORDS as u64;
    s.warp_instructions += 2 * bw;
    s.inactive_lane_slots += 2 * bw * (32 - m);
    s.global_bytes_requested += 2 * bw * 4 * m;
    s.global_sectors += bw * (pair_sectors + payload_sectors);
}

/// One task of the analytic compact fill: the flags from `first` (up to
/// [`FILL_FLAGS`] of them) copy their present blocks into `piece`, the
/// payload from the first flag's offset on, reading flags, offsets and
/// shuffled words in place a kernel block (256 flags) at a time. Returns
/// the counters of the task's warps.
fn compact_task(
    shuffled: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    offsets: &GpuBuffer<u32>,
    first: usize,
    piece: &mut [u32],
) -> KernelStats {
    const BLOCK_FLAGS: usize = 256;
    let len = FILL_FLAGS.min(byte_flags.len() - first);
    let (mut flags, mut offs) = ([0u8; FILL_FLAGS], [0u32; FILL_FLAGS]);
    let (flags, offs) = (&mut flags[..len], &mut offs[..len]);
    byte_flags.read_into(first, flags);
    offsets.read_into(first, offs);
    let base = offs.first().map_or(0, |&o| o as usize * BLOCK_WORDS);
    let mut words = [0u32; BLOCK_FLAGS * BLOCK_WORDS];
    let mut stats = KernelStats::default();
    for (k, (f, o)) in flags.chunks(BLOCK_FLAGS).zip(offs.chunks(BLOCK_FLAGS)).enumerate() {
        let words = &mut words[..f.len() * BLOCK_WORDS];
        shuffled.read_into((first + k * BLOCK_FLAGS) * BLOCK_WORDS, words);
        for ((&flag, &off), blk) in f.iter().zip(o).zip(words.chunks_exact(BLOCK_WORDS)) {
            if flag != 0 {
                let dst = off as usize * BLOCK_WORDS - base;
                piece[dst..dst + BLOCK_WORDS].copy_from_slice(blk);
            }
        }
        for (wf, wo) in f.chunks(32).zip(o.chunks(32)) {
            warp_stats(&mut stats, wf, wo);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zeroblock;
    use fzgpu_sim::device::A100;

    fn flags_and_words() -> (Vec<u32>, Vec<u8>) {
        // 512 blocks, ~1/4 nonzero.
        let mut words = vec![0u32; 512 * BLOCK_WORDS];
        let mut flags = vec![0u8; 512];
        for b in 0..512 {
            if b % 4 == 1 || b % 31 == 0 {
                flags[b] = 1;
                for k in 0..BLOCK_WORDS {
                    words[b * BLOCK_WORDS + k] = (b * 10 + k) as u32 + 1;
                }
            }
        }
        (words, flags)
    }

    #[test]
    fn widen_preserves_values() {
        let mut gpu = Gpu::new(A100);
        let flags: Vec<u8> = (0..1000).map(|i| (i % 3 == 0) as u8).collect();
        let d = gpu.upload(&flags);
        let wide = widen_flags(&mut gpu, &d);
        assert_eq!(wide.to_vec(), flags.iter().map(|&f| f as u32).collect::<Vec<_>>());
    }

    #[test]
    fn offsets_count_preceding_nonzero_blocks() {
        let mut gpu = Gpu::new(A100);
        let (_, flags) = flags_and_words();
        let d_flags = gpu.upload(&flags);
        let wide = widen_flags(&mut gpu, &d_flags);
        let (offsets, total) = flag_offsets(&mut gpu, &wide);
        let off = offsets.to_vec();
        let mut expect = 0u32;
        for (b, &f) in flags.iter().enumerate() {
            assert_eq!(off[b], expect, "offset {b}");
            expect += f as u32;
        }
        assert_eq!(total, expect as usize);
    }

    #[test]
    fn compact_matches_cpu_reference_encoder() {
        let (words, flags) = flags_and_words();
        let mut gpu = Gpu::new(A100);
        let d_words = gpu.upload(&words);
        let d_flags = gpu.upload(&flags);
        let wide = widen_flags(&mut gpu, &d_flags);
        let (offsets, total) = flag_offsets(&mut gpu, &wide);
        let payload = compact(&mut gpu, &d_words, &d_flags, &offsets, total);
        let reference = zeroblock::encode(&words);
        assert_eq!(payload.to_vec(), reference.payload);
    }

    /// The analytic closed form ([`warp_stats`]) must reproduce the
    /// interpreted kernel's record exactly — counters, modeled time, and
    /// payload bytes — including on a ragged flag count where the last
    /// warp is partially active.
    #[test]
    fn analytic_compact_matches_interpreted_bit_for_bit() {
        for nflags in [512usize, 400, 37] {
            let mut words = vec![0u32; nflags * BLOCK_WORDS];
            let mut flags = vec![0u8; nflags];
            for b in 0..nflags {
                if b % 4 == 1 || b % 31 == 0 {
                    flags[b] = 1;
                    for k in 0..BLOCK_WORDS {
                        words[b * BLOCK_WORDS + k] = (b * 10 + k) as u32 + 1;
                    }
                }
            }
            let run = |engine: Engine| {
                let mut gpu = Gpu::new(A100);
                gpu.set_engine(engine);
                let d_words = gpu.upload(&words);
                let d_flags = gpu.upload(&flags);
                let wide = widen_flags(&mut gpu, &d_flags);
                let (offsets, total) = flag_offsets(&mut gpu, &wide);
                gpu.reset_timeline();
                let payload = compact(&mut gpu, &d_words, &d_flags, &offsets, total);
                (payload.to_vec(), format!("{:?}", gpu.timeline()), gpu.kernel_time().to_bits())
            };
            let interp = run(Engine::Interpreted);
            let analytic = run(Engine::Analytic);
            assert_eq!(interp.0, analytic.0, "payload diverges at nflags={nflags}");
            assert_eq!(interp.1, analytic.1, "timeline diverges at nflags={nflags}");
            assert_eq!(interp.2, analytic.2, "kernel time diverges at nflags={nflags}");
        }
    }

    #[test]
    fn all_zero_input_yields_empty_payload() {
        let words = vec![0u32; 64 * BLOCK_WORDS];
        let flags = vec![0u8; 64];
        let mut gpu = Gpu::new(A100);
        let d_words = gpu.upload(&words);
        let d_flags = gpu.upload(&flags);
        let wide = widen_flags(&mut gpu, &d_flags);
        let (offsets, total) = flag_offsets(&mut gpu, &wide);
        assert_eq!(total, 0);
        let payload = compact(&mut gpu, &d_words, &d_flags, &offsets, total);
        assert!(payload.is_empty());
    }
}
