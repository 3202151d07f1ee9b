//! Run-length encoding over `u16` symbols.
//!
//! Used by the cuSZ+RLE variant discussed in the paper's related work
//! (Tian et al., CLUSTER'21 — RLE in place of Huffman for high error
//! bounds) and as an ablation codec for FZ-GPU's zero-heavy streams.

use crate::wire::{self, Cursor, WireResult};

/// A `(symbol, run_length)` pair.
pub type Run = (u16, u32);

/// Encode into runs.
pub fn encode(symbols: &[u16]) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut iter = symbols.iter().copied();
    let Some(first) = iter.next() else {
        return runs;
    };
    let mut cur = first;
    let mut len = 1u32;
    for s in iter {
        if s == cur && len < u32::MAX {
            len += 1;
        } else {
            runs.push((cur, len));
            cur = s;
            len = 1;
        }
    }
    runs.push((cur, len));
    runs
}

/// Symbols `runs` decode to. Stored runs are untrusted: check this
/// against the expected count before [`decode`] allocates it.
pub fn decoded_len(runs: &[Run]) -> u64 {
    runs.iter().map(|&(_, l)| l as u64).sum()
}

/// Decode runs back to symbols.
pub fn decode(runs: &[Run]) -> Vec<u16> {
    let mut out = Vec::with_capacity(decoded_len(runs) as usize);
    for &(s, l) in runs {
        out.extend(std::iter::repeat_n(s, l as usize));
    }
    out
}

/// Serialized byte size of a run vector (u16 symbol + u32 length each).
pub fn encoded_bytes(runs: &[Run]) -> usize {
    runs.len() * 6
}

/// Append `runs` in wire form: a `u64` count, then each run's symbol and
/// length.
pub fn write_runs(out: &mut Vec<u8>, runs: &[Run]) {
    wire::put_u64(out, runs.len() as u64);
    for &(sym, len) in runs {
        wire::put_u16(out, sym);
        wire::put_u32(out, len);
    }
}

/// Parse [`write_runs`]'s form.
pub fn read_runs(c: &mut Cursor<'_>) -> WireResult<Vec<Run>> {
    let n = c.len(c.remaining() / 6)?;
    (0..n).map(|_| Ok((c.u16()?, c.u32()?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_runs() {
        let s = [0u16, 0, 0, 5, 5, 1];
        let runs = encode(&s);
        assert_eq!(runs, vec![(0, 3), (5, 2), (1, 1)]);
        assert_eq!(decode(&runs), s);
    }

    #[test]
    fn empty_input() {
        assert!(encode(&[]).is_empty());
        assert!(decode(&[]).is_empty());
    }

    #[test]
    fn all_same_is_one_run() {
        let s = vec![7u16; 10_000];
        let runs = encode(&s);
        assert_eq!(runs.len(), 1);
        assert_eq!(encoded_bytes(&runs), 6);
        assert_eq!(decode(&runs), s);
    }

    #[test]
    fn alternating_worst_case() {
        let s: Vec<u16> = (0..100).map(|i| (i % 2) as u16).collect();
        let runs = encode(&s);
        assert_eq!(runs.len(), 100);
        assert_eq!(decode(&runs), s);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(s in proptest::collection::vec(0u16..8, 0..5000)) {
            prop_assert_eq!(decode(&encode(&s)), s);
        }

        #[test]
        fn prop_runs_are_maximal(s in proptest::collection::vec(0u16..4, 1..1000)) {
            let runs = encode(&s);
            // Adjacent runs never share a symbol (maximality).
            for w in runs.windows(2) {
                prop_assert_ne!(w[0].0, w[1].0);
            }
        }
    }
}
