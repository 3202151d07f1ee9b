//! GPU bitshuffle kernels (§3.3) and the fused bitshuffle + zero-block-mark
//! kernel (§3.4, phase 1).
//!
//! Per 1024-word tile, a 32x32 thread block:
//! 1. loads the tile into a 32x**33** padded shared array (the padding is
//!    what keeps the later column-wise traffic bank-conflict-free — the
//!    simulator's conflict accounting verifies this, see the ablation
//!    bench),
//! 2. transposes the 32x32 bit matrix of every row with 32
//!    `__ballot_sync` rounds per warp,
//! 3. (fused variant) derives the 256 per-block byte flags and 8 bit-flag
//!    words while the shuffled tile is still resident in shared memory,
//! 4. writes the shuffled tile back coalesced.
//!
//! The unfused variant (`bitshuffle-mark-v1` in Fig. 10) runs step 3 as a
//! separate kernel that must re-read the shuffled stream from global
//! memory.

use fzgpu_sim::{Engine, Gpu, GpuBuffer};
use rayon::prelude::*;

use crate::fastpath::{group_flags, shuffle_tiles, FLAG_GROUP_WORDS};
use crate::gpu::decode::flag_bytes;
use crate::pack::TILE_WORDS;
use crate::zeroblock::BLOCK_WORDS;

/// Flags per tile (1024 words / 4 words per block).
pub const FLAGS_PER_TILE: usize = TILE_WORDS / BLOCK_WORDS;

/// Variant selector for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleVariant {
    /// Fused bitshuffle + mark (paper's final design, `v2`).
    Fused,
    /// Separate bitshuffle and mark kernels (`v1`).
    Unfused,
    /// Fused, but with an unpadded 32x32 shared tile — demonstrates the
    /// bank-conflict cost the 32x33 padding avoids.
    FusedUnpadded,
}

/// Run bitshuffle + zero-block marking over `words` (tile-aligned).
/// Returns `(shuffled, byte_flags, bit_flags)`.
pub fn bitshuffle_mark(
    gpu: &mut Gpu,
    words: &GpuBuffer<u32>,
    variant: ShuffleVariant,
) -> (GpuBuffer<u32>, GpuBuffer<u8>, GpuBuffer<u32>) {
    assert_eq!(words.len() % TILE_WORDS, 0, "stream not tile-aligned");
    let ntiles = words.len() / TILE_WORDS;
    let nflags = ntiles * FLAGS_PER_TILE;
    let shuffled: GpuBuffer<u32> = gpu.alloc(words.len());
    let byte_flags: GpuBuffer<u8> = gpu.alloc(nflags);
    let bit_flags: GpuBuffer<u32> = gpu.alloc(nflags.div_ceil(32));

    match variant {
        ShuffleVariant::Fused => fused_kernel(
            gpu,
            "bitshuffle_mark_fused",
            words,
            &shuffled,
            &byte_flags,
            &bit_flags,
            33,
        ),
        ShuffleVariant::FusedUnpadded => fused_kernel(
            gpu,
            "bitshuffle_mark_fused_unpadded",
            words,
            &shuffled,
            &byte_flags,
            &bit_flags,
            32,
        ),
        ShuffleVariant::Unfused => {
            shuffle_only_kernel(gpu, words, &shuffled);
            mark_kernel(gpu, &shuffled, &byte_flags, &bit_flags);
        }
    }
    if gpu.effective_engine() == Engine::Analytic {
        analytic_fill(words, &shuffled, &byte_flags, &bit_flags);
    }
    (shuffled, byte_flags, bit_flags)
}

/// Analytic-engine output fill: transpose tiles with the native path's
/// [`shuffle_tiles`] (pinned equal to the GPU kernels by this module's
/// oracle tests) and derive the flags with its 64-bit zero scan.
fn analytic_fill(
    words: &GpuBuffer<u32>,
    shuffled: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    bit_flags: &GpuBuffer<u32>,
) {
    let (sh, bf, bits) = host_shuffle_mark(&words.to_vec());
    shuffled.host_fill_from(&sh);
    byte_flags.host_fill_from(&bf);
    bit_flags.host_fill_from(&bits);
}

/// Host shuffle + zero-block mark over a tile-aligned word stream:
/// `(shuffled, byte_flags, bit_flags)`. Shared by this module's analytic
/// fill and the fused 1D kernel's (`crate::gpu::fused`).
pub(crate) fn host_shuffle_mark(input: &[u32]) -> (Vec<u32>, Vec<u8>, Vec<u32>) {
    let mut sh = vec![0u32; input.len()];
    shuffle_tiles(input, &mut sh);
    let mut bits = vec![0u32; input.len() / FLAG_GROUP_WORDS];
    bits.par_iter_mut()
        .zip(sh.par_chunks_exact(FLAG_GROUP_WORDS))
        .for_each(|(mask, group)| *mask = group_flags(group));
    let bf = flag_bytes(&bits, input.len() / BLOCK_WORDS);
    (sh, bf, bits)
}

/// The fused kernel. `stride` = 33 (padded, conflict-free) or 32 (ablation).
fn fused_kernel(
    gpu: &mut Gpu,
    name: &str,
    words: &GpuBuffer<u32>,
    shuffled: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    bit_flags: &GpuBuffer<u32>,
    stride: usize,
) {
    let ntiles = (words.len() / TILE_WORDS) as u32;
    // Single counter-equivalence class (DESIGN.md §16): every load/store
    // predicate is index-only, ballots charge one instruction regardless
    // of data, and tile_base = tile*1024 keeps all global accesses
    // identically sector-aligned for every block.
    gpu.launch_classed(
        name,
        ntiles,
        (32u32, 32u32),
        |_| 0,
        |blk| {
            let tile = blk.block_linear();
            let tile_base = tile * TILE_WORDS;
            let buf = blk.shared_array::<u32>(32 * stride); // shuffled tile
            let byte_flag_sh = blk.shared_array::<u8>(FLAGS_PER_TILE);

            // Phase 1+2: each warp owns row y; load it coalesced, then 32
            // ballot rounds transpose its bit matrix. The ballot of bit i is
            // written to buf[i][y] — a column walk, where the padding matters.
            blk.warps(|w| {
                let y = w.warp_id;
                let row = w.load(words, |l| Some(tile_base + y * 32 + l.id));
                for i in 0..32 {
                    let ballot = w.ballot(|l| (row[l.id] >> i) & 1 == 1);
                    w.sh_store(&buf, |l| (l.id == 0).then_some((i * stride + y, ballot)));
                }
            });
            blk.sync();

            // Phase 3: byte flags. Flag b covers shuffled words j = 4b..4b+4,
            // i.e. bit-plane i = b/8, rows 4*(b%8)..+4. Warps 0..8 handle 32
            // flags each.
            blk.warps(|w| {
                if w.warp_id >= FLAGS_PER_TILE / 32 {
                    return;
                }
                let b0 = w.warp_id * 32;
                let mut nonzero = [false; 32];
                for k in 0..BLOCK_WORDS {
                    let v = w.sh_load(&buf, |l| {
                        let b = b0 + l.id;
                        let j = b * BLOCK_WORDS + k;
                        Some((j / 32) * stride + (j % 32))
                    });
                    for i in 0..32 {
                        nonzero[i] |= v[i] != 0;
                    }
                }
                w.sh_store(&byte_flag_sh, |l| Some((b0 + l.id, nonzero[l.id] as u8)));
            });
            blk.sync();

            // Phase 4: bit flags via ballot (8 words per tile), then global
            // writes of flags + the shuffled tile (coalesced).
            blk.warps(|w| {
                if w.warp_id < FLAGS_PER_TILE / 32 {
                    let g = w.warp_id;
                    let f = w.sh_load(&byte_flag_sh, |l| Some(g * 32 + l.id));
                    let mask = w.ballot(|l| f[l.id] != 0);
                    w.store(bit_flags, |l| {
                        (l.id == 0).then_some((tile * (FLAGS_PER_TILE / 32) + g, mask))
                    });
                    w.store(byte_flags, |l| Some((tile * FLAGS_PER_TILE + g * 32 + l.id, f[l.id])));
                }
            });
            blk.warps(|w| {
                let i = w.warp_id; // bit plane
                let v = w.sh_load(&buf, |l| Some(i * stride + l.id));
                w.store(shuffled, |l| Some((tile_base + i * 32 + l.id, v[l.id])));
            });
        },
    );
}

/// Unfused step A: bitshuffle only.
fn shuffle_only_kernel(gpu: &mut Gpu, words: &GpuBuffer<u32>, shuffled: &GpuBuffer<u32>) {
    let ntiles = (words.len() / TILE_WORDS) as u32;
    // Single class: same argument as the fused kernel.
    gpu.launch_classed(
        "bitshuffle_v1",
        ntiles,
        (32u32, 32u32),
        |_| 0,
        |blk| {
            let tile = blk.block_linear();
            let tile_base = tile * TILE_WORDS;
            let buf = blk.shared_array::<u32>(32 * 33);
            blk.warps(|w| {
                let y = w.warp_id;
                let row = w.load(words, |l| Some(tile_base + y * 32 + l.id));
                for i in 0..32 {
                    let ballot = w.ballot(|l| (row[l.id] >> i) & 1 == 1);
                    w.sh_store(&buf, |l| (l.id == 0).then_some((i * 33 + y, ballot)));
                }
            });
            blk.sync();
            blk.warps(|w| {
                let i = w.warp_id;
                let v = w.sh_load(&buf, |l| Some(i * 33 + l.id));
                w.store(shuffled, |l| Some((tile_base + i * 32 + l.id, v[l.id])));
            });
        },
    );
}

/// Unfused step B: re-read the shuffled stream and mark zero blocks.
fn mark_kernel(
    gpu: &mut Gpu,
    shuffled: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    bit_flags: &GpuBuffer<u32>,
) {
    let nflags = byte_flags.len();
    let nblocks = nflags.div_ceil(256) as u32;
    // Single class: nflags is a multiple of 256 (FLAGS_PER_TILE per whole
    // tile), so every block is full and the `b < nflags` predicates never
    // cut a lane; ballots and flag stores are index-only.
    gpu.launch_classed(
        "mark_v1",
        nblocks,
        256u32,
        |_| 0,
        |blk| {
            let base = blk.block_linear() * 256;
            blk.warps(|w| {
                let mut nonzero = [false; 32];
                for k in 0..BLOCK_WORDS {
                    let v = w.load(shuffled, |l| {
                        let b = base + l.ltid;
                        (b < nflags).then_some(b * BLOCK_WORDS + k)
                    });
                    for i in 0..32 {
                        nonzero[i] |= v[i] != 0;
                    }
                }
                w.store(byte_flags, |l| {
                    let b = base + l.ltid;
                    (b < nflags).then(|| (b, nonzero[l.id] as u8))
                });
                let mask = w.ballot(|l| nonzero[l.id] && base + l.ltid < nflags);
                let word = (base + w.base_ltid) / 32;
                w.store(bit_flags, |l| (l.id == 0).then_some((word, mask)));
            });
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitshuffle as cpu_ref;
    use fzgpu_sim::device::A100;

    fn sample_words(n_tiles: usize) -> Vec<u32> {
        (0..n_tiles * TILE_WORDS)
            .map(|i| {
                let i = i as u32;
                // Mix of small codes (mostly-zero planes) and occasional big ones.
                if i.is_multiple_of(97) {
                    i.wrapping_mul(2654435761)
                } else {
                    (i % 7) | ((i % 5) << 16)
                }
            })
            .collect()
    }

    fn check_variant(variant: ShuffleVariant) {
        let words = sample_words(3);
        let mut gpu = Gpu::new(A100);
        let d_words = gpu.upload(&words);
        let (shuffled, byte_flags, bit_flags) = bitshuffle_mark(&mut gpu, &d_words, variant);
        // Shuffled data matches the CPU oracle.
        assert_eq!(shuffled.to_vec(), cpu_ref::shuffle(&words));
        // Flags match a reference computation.
        let sh = shuffled.to_vec();
        let bf = byte_flags.to_vec();
        for (b, chunk) in sh.chunks_exact(BLOCK_WORDS).enumerate() {
            let expect = chunk.iter().any(|&w| w != 0) as u8;
            assert_eq!(bf[b], expect, "byte flag {b}");
        }
        let bits = bit_flags.to_vec();
        for (b, &f) in bf.iter().enumerate() {
            assert_eq!(bits[b / 32] >> (b % 32) & 1, f as u32, "bit flag {b}");
        }
    }

    #[test]
    fn fused_matches_reference() {
        check_variant(ShuffleVariant::Fused);
    }

    #[test]
    fn unfused_matches_reference() {
        check_variant(ShuffleVariant::Unfused);
    }

    #[test]
    fn unpadded_matches_reference_but_conflicts() {
        check_variant(ShuffleVariant::FusedUnpadded);
    }

    #[test]
    fn padding_removes_bank_conflicts() {
        let words = sample_words(4);
        let run = |variant| {
            let mut gpu = Gpu::new(A100);
            let d = gpu.upload(&words);
            gpu.reset_timeline();
            let _ = bitshuffle_mark(&mut gpu, &d, variant);
            let rec = gpu.last_kernel().stats;
            rec.smem_conflict_cycles
        };
        let padded = run(ShuffleVariant::Fused);
        let unpadded = run(ShuffleVariant::FusedUnpadded);
        assert!(
            unpadded > 10 * padded.max(1),
            "unpadded {unpadded} should far exceed padded {padded}"
        );
    }

    #[test]
    fn fused_is_faster_than_unfused() {
        let words = sample_words(64);
        let time = |variant| {
            let mut gpu = Gpu::new(A100);
            let d = gpu.upload(&words);
            gpu.reset_timeline();
            let _ = bitshuffle_mark(&mut gpu, &d, variant);
            gpu.kernel_time()
        };
        let fused = time(ShuffleVariant::Fused);
        let unfused = time(ShuffleVariant::Unfused);
        assert!(fused < unfused, "fused {fused} vs unfused {unfused}");
    }

    #[test]
    fn all_zero_tile_flags_empty() {
        let words = vec![0u32; TILE_WORDS];
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&words);
        let (_, byte_flags, bit_flags) = bitshuffle_mark(&mut gpu, &d, ShuffleVariant::Fused);
        assert!(byte_flags.to_vec().iter().all(|&f| f == 0));
        assert!(bit_flags.to_vec().iter().all(|&w| w == 0));
    }
}
