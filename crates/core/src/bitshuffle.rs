//! Bitshuffle: 32x32 bit-matrix transpose per tile (CPU reference).
//!
//! Within each tile of 32 rows x 32 columns of `u32` words, the shuffled
//! word at `(bit i, row y)` collects bit `i` of the 32 words of row `y`:
//!
//! `out[i*32 + y] = ballot_{x in 0..32}( (in[y*32 + x] >> i) & 1 )`
//!
//! Small quantization codes leave the high bits of every word zero, so
//! after the transpose entire output words (and runs of words) become
//! zero — the redundancy the zero-block encoder removes. This CPU version
//! is the semantics oracle for the warp-ballot GPU kernel.
//!
//! [`shuffle_tile`] and [`unshuffle_tile`] are the only host transposes:
//! the native encoder and decoder, the analytic engine's shuffle and
//! unshuffle fills and the scalar oracle's [`shuffle`]/[`unshuffle`] all
//! run them, and both sit on one LSB-first 32x32 kernel,
//! [`lsb_transpose`]. The unit tests hold it equal to a naive bit-by-bit
//! transpose on random tiles in both directions.

use crate::pack::TILE_WORDS;

/// Forward bitshuffle of a whole stream (`words.len()` must be a multiple
/// of [`TILE_WORDS`]).
pub fn shuffle(words: &[u32]) -> Vec<u32> {
    assert_eq!(words.len() % TILE_WORDS, 0, "stream not tile-aligned");
    let mut out = vec![0u32; words.len()];
    for (tin, tout) in words.chunks_exact(TILE_WORDS).zip(out.chunks_exact_mut(TILE_WORDS)) {
        shuffle_tile(tin.try_into().unwrap(), tout.try_into().unwrap());
    }
    out
}

/// Inverse bitshuffle.
pub fn unshuffle(words: &[u32]) -> Vec<u32> {
    assert_eq!(words.len() % TILE_WORDS, 0, "stream not tile-aligned");
    let mut out = vec![0u32; words.len()];
    for (tin, tout) in words.chunks_exact(TILE_WORDS).zip(out.chunks_exact_mut(TILE_WORDS)) {
        unshuffle_tile(tin.try_into().unwrap(), tout.try_into().unwrap());
    }
    out
}

/// LSB-first 32x32 bit-matrix transpose: returns `t` with `t[i]` bit `x`
/// = `a[x]` bit `i`. Five rounds of block swaps (Hacker's Delight §7-3
/// with bit 0 as column 0): round `j` (16, 8, 4, 2, 1) exchanges the high
/// `j`-bit half of every `2j`-bit field of `a[k]` with the low half of
/// `a[k + j]`, for each `k` whose bit `j` is clear. The same kernel serves
/// both directions — a transpose is its own inverse — so
/// [`shuffle_tile`] and [`unshuffle_tile`] share it.
#[inline]
pub fn lsb_transpose(a: &[u32; 32]) -> [u32; 32] {
    let mut t = *a;
    let mut j = 16usize;
    let mut m = 0x0000_FFFFu32;
    while j != 0 {
        for base in (0..32).step_by(2 * j) {
            for k in base..base + j {
                let s = ((t[k] >> j) ^ t[k + j]) & m;
                t[k + j] ^= s;
                t[k] ^= s << j;
            }
        }
        j >>= 1;
        m ^= m << j;
    }
    t
}

/// One tile forward: `out[i*32 + y]` = bit `i` of row `y`'s words.
pub fn shuffle_tile(input: &[u32; TILE_WORDS], out: &mut [u32; TILE_WORDS]) {
    for y in 0..32 {
        let row = &input[y * 32..y * 32 + 32];
        let b = lsb_transpose(row.try_into().unwrap());
        // b[i] bit x = row[x] bit i — exactly the warp-ballot word of bit
        // plane i over row y.
        for (i, &w) in b.iter().enumerate() {
            out[i * 32 + y] = w;
        }
    }
}

/// One tile inverse: bit `i` of `out[y*32 + x]` = bit `x` of `in[i*32 + y]`.
pub fn unshuffle_tile(input: &[u32; TILE_WORDS], out: &mut [u32; TILE_WORDS]) {
    for y in 0..32 {
        let c: [u32; 32] = core::array::from_fn(|i| input[i * 32 + y]);
        // t[x] bit i = plane i's bit x = the original word (y, x) bit i.
        let t = lsb_transpose(&c);
        out[y * 32..y * 32 + 32].copy_from_slice(&t);
    }
}

/// Naive reference implementations (oracles for the property tests).
#[cfg(test)]
mod reference {
    use super::TILE_WORDS;

    pub fn shuffle_tile(input: &[u32; TILE_WORDS], out: &mut [u32; TILE_WORDS]) {
        for y in 0..32 {
            let row = &input[y * 32..y * 32 + 32];
            for i in 0..32 {
                let mut ballot = 0u32;
                for (x, &w) in row.iter().enumerate() {
                    ballot |= ((w >> i) & 1) << x;
                }
                out[i * 32 + y] = ballot;
            }
        }
    }

    pub fn unshuffle_tile(input: &[u32; TILE_WORDS], out: &mut [u32; TILE_WORDS]) {
        for y in 0..32 {
            for x in 0..32 {
                let mut word = 0u32;
                for i in 0..32 {
                    word |= ((input[i * 32 + y] >> x) & 1) << i;
                }
                out[y * 32 + x] = word;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both tile directions against the naive bit-by-bit transposes.
    fn assert_matches_naive(words: &[u32]) {
        let input: &[u32; TILE_WORDS] = words.try_into().unwrap();
        let (mut fast, mut naive) = ([0u32; TILE_WORDS], [0u32; TILE_WORDS]);
        shuffle_tile(input, &mut fast);
        reference::shuffle_tile(input, &mut naive);
        assert_eq!(fast, naive, "shuffle_tile");
        unshuffle_tile(input, &mut fast);
        reference::unshuffle_tile(input, &mut naive);
        assert_eq!(fast, naive, "unshuffle_tile");
    }

    #[test]
    fn fast_transpose_matches_naive_reference() {
        let words: Vec<u32> =
            (0..TILE_WORDS as u32).map(|i| i.wrapping_mul(0x9E3779B9) ^ (i << 7)).collect();
        assert_matches_naive(&words);
        for w in [0, u32::MAX, 1, 1 << 31, 0x5555_5555] {
            assert_matches_naive(&vec![w; TILE_WORDS]);
        }
    }

    #[test]
    fn lsb_transpose_is_involution() {
        let a: [u32; 32] = core::array::from_fn(|i| (i as u32).wrapping_mul(2654435761));
        let t = lsb_transpose(&a);
        assert_ne!(t, a);
        assert_eq!(lsb_transpose(&t), a);
        for (i, &row) in t.iter().enumerate() {
            for (x, &col) in a.iter().enumerate() {
                assert_eq!(row >> x & 1, col >> i & 1, "t[{i}] bit {x}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let words: Vec<u32> = (0..TILE_WORDS as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(unshuffle(&shuffle(&words)), words);
    }

    #[test]
    fn zero_tile_stays_zero() {
        let words = vec![0u32; TILE_WORDS];
        assert!(shuffle(&words).iter().all(|&w| w == 0));
    }

    #[test]
    fn small_codes_concentrate_zeros() {
        // Codes < 8 use only bits 0..3 of each u16 half, i.e. bits
        // 0-2 and 16-18 of each u32. All other bit rows must be zero.
        let words: Vec<u32> = (0..TILE_WORDS as u32).map(|i| (i % 8) | ((i % 5) << 16)).collect();
        let shuffled = shuffle(&words);
        let zero_words = shuffled.iter().filter(|&&w| w == 0).count();
        // 6 live bit-planes of 32 -> at least 26/32 of output words zero.
        assert!(zero_words >= TILE_WORDS * 26 / 32, "only {zero_words} zero");
        for i in 0..32 {
            let plane_nonzero = (0..32).any(|y| shuffled[i * 32 + y] != 0);
            let expected_live = i < 3 || (16..19).contains(&i);
            assert_eq!(plane_nonzero, expected_live, "bit plane {i}");
        }
    }

    #[test]
    fn single_bit_lands_at_transposed_position() {
        let mut words = vec![0u32; TILE_WORDS];
        // Row 5, column 9, bit 20.
        words[5 * 32 + 9] = 1 << 20;
        let shuffled = shuffle(&words);
        for (j, &w) in shuffled.iter().enumerate() {
            if j == 20 * 32 + 5 {
                assert_eq!(w, 1 << 9);
            } else {
                assert_eq!(w, 0, "stray bits at {j}");
            }
        }
    }

    #[test]
    fn multi_tile_streams_are_independent() {
        let mut words = vec![0u32; 2 * TILE_WORDS];
        words[0] = 0xFFFF_FFFF;
        words[TILE_WORDS] = 0x1;
        let shuffled = shuffle(&words);
        // Tile 0 row 0 all bits set -> every bit plane's y=0 word has bit 0.
        for i in 0..32 {
            assert_eq!(shuffled[i * 32], 1);
        }
        // Tile 1: only bit 0 of row 0 col 0.
        assert_eq!(shuffled[TILE_WORDS], 1);
        assert!(shuffled[TILE_WORDS + 1..].iter().all(|&w| w == 0));
    }

    proptest! {
        #[test]
        fn prop_fast_transpose_matches_naive_reference(
            words in proptest::collection::vec(any::<u32>(), TILE_WORDS..=TILE_WORDS),
        ) {
            assert_matches_naive(&words);
        }

        #[test]
        fn prop_unshuffle_inverts_shuffle(
            words in proptest::collection::vec(any::<u32>(), TILE_WORDS..=TILE_WORDS),
        ) {
            prop_assert_eq!(unshuffle(&shuffle(&words)), words);
        }

        #[test]
        fn prop_shuffle_preserves_popcount(
            words in proptest::collection::vec(any::<u32>(), TILE_WORDS..=TILE_WORDS),
        ) {
            let before: u32 = words.iter().map(|w| w.count_ones()).sum();
            let after: u32 = shuffle(&words).iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(before, after);
        }
    }
}
