//! Byte-oriented LZ77 dictionary coder.
//!
//! MGARD-GPU's lossless stage is DEFLATE (LZ77 + Huffman); the paper also
//! cites bitshuffle+LZ4 (Masui et al.) as the CPU state of the art that
//! FZ-GPU's zero-block encoder replaces. This module provides the LZ77
//! half: a greedy hash-chain matcher emitting literal/match tokens.
//! [`crate::deflate`] composes it with Huffman.

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// Copy `len` bytes from `dist` bytes back. `len >= MIN_MATCH`,
    /// `dist >= 1`.
    Match { len: u16, dist: u16 },
}

/// Shortest match worth emitting.
pub const MIN_MATCH: usize = 4;
/// Longest match emitted (fits DEFLATE-ish token budgets).
pub const MAX_MATCH: usize = 258;
/// Search window.
pub const WINDOW: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Greedy LZ77 tokenization with a hash-head + chain matcher.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::new();
    if n == 0 {
        return tokens;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; n];
    let mut i = 0usize;
    const MAX_CHAIN: usize = 32;

    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN && i - cand <= WINDOW {
                // Extend the match.
                let limit = (n - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH && best_dist <= u16::MAX as usize {
            tokens.push(Token::Match { len: best_len as u16, dist: best_dist as u16 });
            // Insert skipped positions so later matches can reference them.
            for k in 1..best_len {
                let p = i + k;
                if p + MIN_MATCH <= n {
                    let h = hash4(data, p);
                    prev[p] = head[h];
                    head[h] = p;
                }
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Reconstruct the byte stream from tokens, or `None` if a match reaches
/// before the output (`dist == 0` or `dist` past its start) or the
/// output would grow beyond `max_len` bytes.
pub fn detokenize(tokens: &[Token], max_len: usize) -> Option<Vec<u8>> {
    let mut out: Vec<u8> = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                if dist == 0 || dist as usize > out.len() {
                    return None;
                }
                let start = out.len() - dist as usize;
                // Overlapping copies are the LZ77 idiom (dist < len repeats).
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() > max_len {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty() {
        assert!(tokenize(&[]).is_empty());
        assert_eq!(detokenize(&[], 0), Some(vec![]));
    }

    #[test]
    fn literals_only_when_no_repeats() {
        let data = b"abcdefgh";
        let tokens = tokenize(data);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(detokenize(&tokens, data.len()).unwrap(), data);
    }

    #[test]
    fn repeated_block_compresses() {
        let mut data = Vec::new();
        for _ in 0..64 {
            data.extend_from_slice(b"scientific data!");
        }
        let tokens = tokenize(&data);
        assert!(tokens.len() < data.len() / 4, "tokens {} data {}", tokens.len(), data.len());
        assert_eq!(detokenize(&tokens, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        let data = vec![0u8; 1000];
        let tokens = tokenize(&data);
        assert!(tokens.len() <= 6, "zero run should collapse, got {} tokens", tokens.len());
        assert_eq!(detokenize(&tokens, data.len()).unwrap(), data);
    }

    #[test]
    fn mixed_content_roundtrip() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.push((i % 251) as u8);
            if i % 7 == 0 {
                data.extend_from_slice(b"zzzz");
            }
        }
        assert_eq!(detokenize(&tokenize(&data), data.len()).unwrap(), data);
    }

    #[test]
    fn bad_matches_and_overlong_output_are_rejected() {
        let lit = Token::Literal(7);
        assert_eq!(detokenize(&[lit, Token::Match { len: 4, dist: 0 }], 100), None);
        assert_eq!(detokenize(&[lit, Token::Match { len: 4, dist: 2 }], 100), None);
        assert_eq!(detokenize(&[Token::Match { len: 4, dist: 1 }], 100), None);
        // One literal and one max-length match: 65536 bytes.
        let long = [lit, Token::Match { len: u16::MAX, dist: 1 }];
        assert_eq!(detokenize(&long, 65535), None);
        assert_eq!(detokenize(&long, 65536), Some(vec![7; 65536]));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(detokenize(&tokenize(&data), data.len()).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..4096)) {
            prop_assert_eq!(detokenize(&tokenize(&data), data.len()).unwrap(), data);
        }
    }
}
