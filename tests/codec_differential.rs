//! Differential tests between the `fzgpu_codecs` encoders and decoders:
//! every encode must invert through its decode exactly, over adversarial
//! inputs — empty streams, single-symbol alphabets, maximum-length runs,
//! repetitive and incompressible bytes. These codecs are the ablation
//! baselines the paper compares FZ-GPU's zero-block encoder against; a
//! round-trip bug would silently corrupt every ratio comparison.

use fz_gpu::codecs::{bitpack, deflate, huffman, lz77, rle};
use proptest::prelude::*;

/// Histogram sized to the symbol alphabet (huffman requires
/// `symbol < hist.len()`).
fn histogram(symbols: &[u16]) -> Vec<u32> {
    let max = symbols.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0u32; max + 1];
    for &s in symbols {
        hist[s as usize] += 1;
    }
    hist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn huffman_roundtrips(symbols in proptest::collection::vec(0u16..300, 0..2_000)) {
        if symbols.is_empty() {
            // No symbols -> all-zero histogram -> typed error, not a panic.
            prop_assert!(huffman::Codebook::from_histogram(&histogram(&symbols)).is_err());
            return Ok(());
        }
        let book = huffman::Codebook::from_histogram(&histogram(&symbols)).expect("codebook");
        let bytes = huffman::encode(&book, &symbols).expect("encode");
        let back = huffman::decode(&book, &bytes, symbols.len()).expect("decode");
        prop_assert_eq!(back, symbols);
    }

    #[test]
    fn huffman_chunked_matches_flat(
        symbols in proptest::collection::vec(0u16..64, 1..3_000),
        chunk in 1usize..500,
    ) {
        let book = huffman::Codebook::from_histogram(&histogram(&symbols)).expect("codebook");
        let stream = huffman::encode_chunked(&book, &symbols, chunk).expect("encode chunked");
        let back = huffman::decode_chunked(&book, &stream).expect("decode chunked");
        prop_assert_eq!(back, symbols);
    }

    #[test]
    fn rle_roundtrips(symbols in proptest::collection::vec(0u16..8, 0..4_000)) {
        // Small alphabet forces long runs; empty input must yield no runs.
        let runs = rle::encode(&symbols);
        prop_assert_eq!(rle::decode(&runs), symbols.clone());
        prop_assert_eq!(rle::encoded_bytes(&runs), runs.len() * 6);
        // Runs are maximal: adjacent runs never share a symbol.
        for w in runs.windows(2) {
            prop_assert_ne!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn deflate_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..6_000)) {
        let packed = deflate::compress(&data);
        let back = deflate::decompress(&packed, data.len()).expect("decompress");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn lz77_roundtrips(data in proptest::collection::vec(0u8..5, 0..8_000)) {
        // Tiny alphabet produces long overlapping matches — the hard case
        // for copy resolution (dist < len copies must self-extend).
        let tokens = lz77::tokenize(&data);
        prop_assert_eq!(lz77::detokenize(&tokens, data.len()), Some(data));
    }

    #[test]
    fn lz77_roundtrips_incompressible(data in proptest::collection::vec(any::<u8>(), 0..4_000)) {
        let tokens = lz77::tokenize(&data);
        prop_assert_eq!(lz77::detokenize(&tokens, data.len()), Some(data));
    }

    #[test]
    fn bitpack_roundtrips(
        values in proptest::collection::vec(any::<u32>(), 0..2_000),
        bits in 1u8..=32,
    ) {
        let masked: Vec<u32> = values
            .iter()
            .map(|&v| if bits == 32 { v } else { v & ((1u32 << bits) - 1) })
            .collect();
        let words = bitpack::pack(&masked, bits);
        prop_assert_eq!(words.len(), bitpack::words_for(masked.len(), bits));
        prop_assert_eq!(bitpack::unpack(&words, masked.len(), bits), masked);
    }
}

#[test]
fn single_symbol_alphabet_gets_one_bit_codes() {
    // Degenerate tree: one symbol still needs a 1-bit code so the stream
    // has nonzero length and the decoder can count symbols.
    let symbols = vec![7u16; 1000];
    let book = huffman::Codebook::from_histogram(&histogram(&symbols)).unwrap();
    let bytes = huffman::encode(&book, &symbols).unwrap();
    assert_eq!(bytes.len(), 1000 / 8);
    assert_eq!(huffman::decode(&book, &bytes, 1000).unwrap(), symbols);
}

#[test]
fn max_length_runs_roundtrip() {
    // A run at the u16 alphabet edge and length far beyond any chunk size.
    let mut symbols = vec![u16::MAX; 70_000];
    symbols.extend_from_slice(&[0, 0, 1]);
    let runs = rle::encode(&symbols);
    assert_eq!(runs, vec![(u16::MAX, 70_000), (0, 2), (1, 1)]);
    assert_eq!(rle::decode(&runs), symbols);
}

#[test]
fn lz77_max_match_boundary_roundtrips() {
    // Exactly MAX_MATCH-long repeats, then one byte more: exercises the
    // match-length cap and the literal that follows a capped match.
    for extra in 0..3 {
        let data: Vec<u8> = std::iter::repeat_n(0xabu8, lz77::MAX_MATCH * 2 + extra).collect();
        let tokens = lz77::tokenize(&data);
        assert_eq!(lz77::detokenize(&tokens, data.len()), Some(data), "extra {extra}");
        assert!(tokens.iter().all(
            |t| !matches!(t, lz77::Token::Match { len, .. } if *len as usize > lz77::MAX_MATCH)
        ),);
    }
}

#[test]
fn empty_inputs_are_total() {
    assert!(rle::encode(&[]).is_empty());
    assert!(rle::decode(&[]).is_empty());
    assert!(lz77::tokenize(&[]).is_empty());
    assert_eq!(lz77::detokenize(&[], 0), Some(vec![]));
    assert_eq!(deflate::decompress(&deflate::compress(&[]), 0).unwrap(), Vec::<u8>::new());
    assert_eq!(bitpack::pack(&[], 7), Vec::<u32>::new());
    assert_eq!(bitpack::unpack(&[], 0, 7), Vec::<u32>::new());
    assert!(huffman::Codebook::from_histogram(&[]).is_err());
}
