//! DEFLATE-style composition: LZ77 tokens entropy-coded with canonical
//! Huffman.
//!
//! This is the lossless stage MGARD(-GPU) uses ("MGARD-GPU uses DEFLATE,
//! including Huffman entropy encoding and LZ77 dictionary encoding, on the
//! CPU") and the stand-in for gzip/Zstd in the SZ CPU pipeline. It is a
//! simplified DEFLATE: one dynamic Huffman table over a fused
//! literal/length alphabet, distances coded as raw 16-bit fields — enough
//! to get representative ratios without the RFC1951 bit-plumbing.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{Codebook, Decoder, HuffmanError};
use crate::lz77::{detokenize, tokenize, Token};

/// Alphabet: 0..=255 literals, 256..=511 match lengths (len - MIN_MATCH,
/// clamped), 512 = end-of-stream.
const SYM_EOB: u16 = 512;
const ALPHABET: usize = 513;

/// Compress `data`. Output layout:
/// `[u32 raw_len][u16 codebook lengths as u8 table][payload bits]`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data);
    // Histogram over the fused alphabet.
    let mut hist = vec![0u32; ALPHABET];
    for t in &tokens {
        match *t {
            Token::Literal(b) => hist[b as usize] += 1,
            Token::Match { len, .. } => hist[256 + (len as usize - 4).min(255)] += 1,
        }
    }
    hist[SYM_EOB as usize] += 1;
    let book = Codebook::from_histogram(&hist).expect("histogram has EOB at least");

    let mut out = Vec::new();
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    // Codebook as a bare length table (canonical codes are reproducible).
    out.extend(book.lengths.iter().copied());

    let mut w = BitWriter::new();
    let put_sym = |w: &mut BitWriter, s: u16| {
        let len = book.lengths[s as usize] as u32;
        let code = book.codes[s as usize];
        for i in (0..len).rev() {
            w.put_bit((code >> i) & 1 == 1);
        }
    };
    for t in &tokens {
        match *t {
            Token::Literal(b) => put_sym(&mut w, b as u16),
            Token::Match { len, dist } => {
                let lsym = 256 + (len as usize - 4).min(255);
                put_sym(&mut w, lsym as u16);
                // Length overflow beyond the clamped symbol, then distance,
                // as raw bits.
                w.put_bits(dist as u64, 16);
            }
        }
    }
    put_sym(&mut w, SYM_EOB);
    out.extend(w.into_bytes());
    out
}

/// Decompress a [`compress`] stream of `raw_len` bytes. A stream that
/// declares another length, or whose tokens expand to another length, is
/// an error, so the output never outgrows `raw_len`.
pub fn decompress(bytes: &[u8], raw_len: usize) -> Result<Vec<u8>, HuffmanError> {
    if bytes.len() < 4 + ALPHABET
        || u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize != raw_len
    {
        return Err(HuffmanError::CorruptStream);
    }
    let lengths: Vec<u8> = bytes[4..4 + ALPHABET].to_vec();
    let book = Codebook::from_lengths(lengths)?;
    let payload = &bytes[4 + ALPHABET..];

    let decoder = Decoder::new(&book);
    let mut r = BitReader::new(payload);
    let mut tokens: Vec<Token> = Vec::new();
    loop {
        let sym = decoder.read_symbol(&mut r)?;
        if sym == SYM_EOB {
            break;
        }
        // Every token yields at least one byte.
        if tokens.len() == raw_len {
            return Err(HuffmanError::CorruptStream);
        }
        if sym < 256 {
            tokens.push(Token::Literal(sym as u8));
        } else {
            let len = (sym as usize - 256) + 4;
            let dist = r.get_bits(16).ok_or(HuffmanError::CorruptStream)? as u16;
            tokens.push(Token::Match { len: len as u16, dist });
        }
    }
    match detokenize(&tokens, raw_len) {
        Some(out) if out.len() == raw_len => Ok(out),
        _ => Err(HuffmanError::CorruptStream),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(decompress(&c, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn text_roundtrip_and_compresses() {
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend_from_slice(b"the quick brown fox jumps over the lazy dog. ");
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 2, "compressed {} raw {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn zeros_compress_hard() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 3000, "compressed {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn random_data_roundtrips_even_if_incompressible() {
        let data: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let c = compress(&data);
        assert!(
            decompress(&c[..c.len() - 1], data.len()).is_err()
                || decompress(&c[..c.len() - 1], data.len()).unwrap() != data
        );
        assert!(decompress(&c[..3], data.len()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(decompress(&compress(&data), data.len()).unwrap(), data);
        }
    }
}
