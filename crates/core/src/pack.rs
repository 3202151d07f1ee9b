//! Packing quantization codes into 32-bit words.
//!
//! The bitshuffle kernel operates on `u32` words, "each element saves two
//! quantization codes" (§3.3). Streams are padded with zero to a whole
//! number of 1024-word tiles so every thread block sees a full 32x32 tile;
//! zero padding costs nothing after zero-block encoding.

/// Words per bitshuffle tile (32 rows x 32 columns of u32).
pub const TILE_WORDS: usize = 1024;
/// Codes per tile (2 per word).
pub const TILE_CODES: usize = TILE_WORDS * 2;

/// Words a stream of `n_codes` codes occupies: two codes per word, padded
/// to whole tiles (at least one).
pub fn padded_words(n_codes: usize) -> usize {
    n_codes.div_ceil(2).div_ceil(TILE_WORDS).max(1) * TILE_WORDS
}

/// Pack u16 codes into u32 words (low half = even index), zero-padded to a
/// multiple of [`TILE_WORDS`]. The scalar test oracle; production paths
/// pack through the fast-path stage.
pub fn pack_codes(codes: &[u16]) -> Vec<u32> {
    let mut out = vec![0u32; padded_words(codes.len())];
    for (w, chunk) in codes.chunks(2).enumerate() {
        let lo = chunk[0] as u32;
        let hi = if chunk.len() > 1 { chunk[1] as u32 } else { 0 };
        out[w] = lo | (hi << 16);
    }
    out
}

/// Inverse of [`pack_codes`]: recover exactly `n_codes` codes.
pub fn unpack_codes(words: &[u32], n_codes: usize) -> Vec<u16> {
    assert!(words.len() * 2 >= n_codes, "not enough words for {n_codes} codes");
    let mut out = Vec::with_capacity(n_codes);
    for i in 0..n_codes {
        let w = words[i / 2];
        out.push(if i % 2 == 0 { w as u16 } else { (w >> 16) as u16 });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_pads_to_tile() {
        let codes = vec![1u16, 2, 3];
        let words = pack_codes(&codes);
        assert_eq!(words.len(), TILE_WORDS);
        assert_eq!(words[0], 1 | (2 << 16));
        assert_eq!(words[1], 3);
        assert!(words[2..].iter().all(|&w| w == 0));
    }

    #[test]
    fn unpack_recovers_exact_count() {
        let codes: Vec<u16> = (0..2049).map(|i| (i % 7) as u16).collect();
        let words = pack_codes(&codes);
        assert_eq!(words.len(), 2 * TILE_WORDS); // 2049 codes -> 1025 words -> 2 tiles
        assert_eq!(unpack_codes(&words, codes.len()), codes);
    }

    #[test]
    fn empty_input_gets_one_tile() {
        let words = pack_codes(&[]);
        assert_eq!(words.len(), TILE_WORDS);
        assert!(unpack_codes(&words, 0).is_empty());
    }

    proptest! {
        #[test]
        fn prop_pack_unpack(codes in proptest::collection::vec(any::<u16>(), 0..5000)) {
            let words = pack_codes(&codes);
            prop_assert_eq!(words.len() % TILE_WORDS, 0);
            prop_assert_eq!(unpack_codes(&words, codes.len()), codes);
        }
    }
}
