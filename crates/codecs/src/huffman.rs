//! Canonical Huffman coding over `u16` symbols.
//!
//! This is the encoding stage cuSZ spends most of its time in: build a
//! codebook from a symbol histogram, then encode the quantization codes.
//! The implementation is canonical (codes assigned by (length, symbol)
//! order), which makes the codebook serializable as a bare length table —
//! the same property real cuSZ exploits.
//!
//! The *coarse-grained chunked* encoder mirrors cuSZ's GPU encoding: the
//! symbol stream is split into fixed chunks, each chunk is encoded
//! independently, per-chunk bit lengths are prefix-summed into offsets, and
//! chunks are concatenated. Decoding walks chunks independently, which is
//! what makes the scheme GPU-parallel.

use crate::bitio::{BitReader, BitWriter};
use crate::wire::{self, Cursor, WireResult};

/// Maximum code length we allow. 32 keeps codes in a `u32` and matches the
/// paper's observation that Huffman bounds cuSZ's ratio at 32x.
pub const MAX_CODE_LEN: u32 = 32;

/// A canonical Huffman codebook over symbols `0..num_symbols`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codebook {
    /// Code length per symbol (0 = symbol absent).
    pub lengths: Vec<u8>,
    /// Canonical code bits per symbol (valid when length > 0). Stored
    /// MSB-first in the low `length` bits.
    pub codes: Vec<u32>,
}

/// Errors from codebook construction or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The histogram was empty (no nonzero counts).
    EmptyHistogram,
    /// A symbol outside the codebook appeared in the input.
    UnknownSymbol(u16),
    /// The bitstream ended mid-code or is corrupt.
    CorruptStream,
    /// A code length table no prefix code has: a length above
    /// [`MAX_CODE_LEN`], or more codes than the lengths leave room for.
    InvalidLengths,
}

impl core::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HuffmanError::EmptyHistogram => write!(f, "empty histogram"),
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} has no code"),
            HuffmanError::CorruptStream => write!(f, "corrupt Huffman stream"),
            HuffmanError::InvalidLengths => write!(f, "invalid Huffman code lengths"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl Codebook {
    /// Build a canonical codebook from a histogram (`hist[s]` = count of
    /// symbol `s`).
    pub fn from_histogram(hist: &[u32]) -> Result<Self, HuffmanError> {
        let n = hist.len();
        let nonzero: Vec<usize> = (0..n).filter(|&s| hist[s] > 0).collect();
        if nonzero.is_empty() {
            return Err(HuffmanError::EmptyHistogram);
        }
        let mut lengths = vec![0u8; n];
        if nonzero.len() == 1 {
            // Degenerate tree: one symbol still needs 1 bit.
            lengths[nonzero[0]] = 1;
            return Self::from_lengths(lengths);
        }

        // Package-merge-free classic Huffman via a binary heap of
        // (count, node). Ties broken by node id for determinism.
        #[derive(PartialEq, Eq)]
        struct Item {
            count: u64,
            id: usize,
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> core::cmp::Ordering {
                // Min-heap via reversed compare.
                other.count.cmp(&self.count).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut heap = std::collections::BinaryHeap::new();
        // Node arena: leaves first, then internal nodes (children pairs).
        let mut children: Vec<Option<(usize, usize)>> = vec![None; nonzero.len()];
        for (node, &sym) in nonzero.iter().enumerate() {
            heap.push(Item { count: hist[sym] as u64, id: node });
        }
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            let id = children.len();
            children.push(Some((a.id, b.id)));
            heap.push(Item { count: a.count + b.count, id });
        }
        let root = heap.pop().unwrap().id;

        // Depth-first depth assignment.
        let mut stack = vec![(root, 0u32)];
        while let Some((node, depth)) = stack.pop() {
            match children.get(node).copied().flatten() {
                Some((a, b)) => {
                    stack.push((a, depth + 1));
                    stack.push((b, depth + 1));
                }
                None => {
                    let sym = nonzero[node];
                    lengths[sym] = depth.min(MAX_CODE_LEN) as u8;
                }
            }
        }
        // Depth clamping can over-subscribe the lengths for absurd
        // distributions, which `from_lengths` rejects; the quantization-code
        // histograms here never reach depth 32.
        Self::from_lengths(lengths)
    }

    /// Assign canonical codes from a length table. A stored table is
    /// untrusted, so lengths above [`MAX_CODE_LEN`] and over-subscribed
    /// tables (Kraft sum above one) are [`HuffmanError::InvalidLengths`].
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self, HuffmanError> {
        let mut kraft = 0u64;
        for &len in &lengths {
            if len as u32 > MAX_CODE_LEN {
                return Err(HuffmanError::InvalidLengths);
            }
            if len > 0 {
                kraft += 1 << (MAX_CODE_LEN - len as u32);
                if kraft > 1 << MAX_CODE_LEN {
                    return Err(HuffmanError::InvalidLengths);
                }
            }
        }
        let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut codes = vec![0u32; lengths.len()];
        // u64: a complete code's last length-32 increment reaches 2^32.
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &s in &order {
            code <<= lengths[s] - prev_len;
            codes[s] = code as u32;
            code += 1;
            prev_len = lengths[s];
        }
        Ok(Self { lengths, codes })
    }

    /// Append the wire form: the length table alone, since canonical codes
    /// follow from it.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        wire::put_bytes(out, &self.lengths);
    }

    /// Parse [`Codebook::write_to`]'s form, validating the lengths.
    pub fn read_from(c: &mut Cursor<'_>) -> WireResult<Self> {
        Self::from_lengths(c.bytes()?).map_err(|_| "invalid Huffman code lengths")
    }

    /// Average code length in bits under the given histogram (the entropy
    /// bound the encoder actually achieves).
    pub fn mean_bits(&self, hist: &[u32]) -> f64 {
        let total: u64 = hist.iter().map(|&c| c as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let bits: u64 =
            hist.iter().enumerate().map(|(s, &c)| c as u64 * self.lengths[s] as u64).sum();
        bits as f64 / total as f64
    }
}

/// Encode `symbols` with `book` into a bitstream (MSB-first within each
/// code, then LSB-first bit packing via [`BitWriter`]).
pub fn encode(book: &Codebook, symbols: &[u16]) -> Result<Vec<u8>, HuffmanError> {
    let mut w = BitWriter::new();
    for &s in symbols {
        let s = s as usize;
        if s >= book.lengths.len() || book.lengths[s] == 0 {
            return Err(HuffmanError::UnknownSymbol(s as u16));
        }
        let len = book.lengths[s] as u32;
        let code = book.codes[s];
        // Emit MSB of the code first so decoding can walk the tree.
        for i in (0..len).rev() {
            w.put_bit((code >> i) & 1 == 1);
        }
    }
    Ok(w.into_bytes())
}

/// Canonical decode tables: O(1) per bit instead of scanning the codebook.
struct DecodeTable {
    /// Symbols sorted by (length, symbol).
    sym_table: Vec<u16>,
    /// Count of codes per length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// First canonical code of each length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Index into `sym_table` of the first code of each length.
    first_index: [u32; MAX_CODE_LEN as usize + 1],
}

impl DecodeTable {
    fn new(book: &Codebook) -> Self {
        let mut order: Vec<usize> =
            (0..book.lengths.len()).filter(|&s| book.lengths[s] > 0).collect();
        order.sort_by_key(|&s| (book.lengths[s], s));
        let sym_table: Vec<u16> = order.iter().map(|&s| s as u16).collect();
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &s in &order {
            count[book.lengths[s] as usize] += 1;
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        // u64 for the same reason as in `Codebook::from_lengths`.
        let mut code = 0u64;
        let mut idx = 0u32;
        for l in 1..=MAX_CODE_LEN as usize {
            first_code[l] = code as u32;
            first_index[l] = idx;
            code = (code + count[l] as u64) << 1;
            idx += count[l];
        }
        Self { sym_table, count, first_code, first_index }
    }
}

/// Streaming canonical decoder: O(1) per bit.
pub struct Decoder {
    table: DecodeTable,
}

impl Decoder {
    /// Build decode tables for `book`.
    pub fn new(book: &Codebook) -> Self {
        Self { table: DecodeTable::new(book) }
    }

    /// Read one symbol from the bit reader.
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let t = &self.table;
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            let bit = r.get_bit().ok_or(HuffmanError::CorruptStream)?;
            code = (code << 1) | bit as u32;
            if t.count[len] > 0 && code.wrapping_sub(t.first_code[len]) < t.count[len] {
                let idx = t.first_index[len] + (code - t.first_code[len]);
                return Ok(t.sym_table[idx as usize]);
            }
        }
        Err(HuffmanError::CorruptStream)
    }
}

/// Decode exactly `count` symbols from `bytes`.
pub fn decode(book: &Codebook, bytes: &[u8], count: usize) -> Result<Vec<u16>, HuffmanError> {
    let decoder = Decoder::new(book);
    let mut out = Vec::with_capacity(count);
    decode_into(&decoder, bytes, count, &mut out)?;
    Ok(out)
}

/// Decode `count` symbols from `bytes`, appending to `out`.
fn decode_into(
    decoder: &Decoder,
    bytes: &[u8],
    count: usize,
    out: &mut Vec<u16>,
) -> Result<(), HuffmanError> {
    let mut r = BitReader::new(bytes);
    for _ in 0..count {
        out.push(decoder.read_symbol(&mut r)?);
    }
    Ok(())
}

/// cuSZ-style coarse-grained chunked encoding: per-chunk independent
/// streams + an offset table, the GPU-parallel layout.
#[derive(Debug, Clone)]
pub struct ChunkedStream {
    /// Concatenated per-chunk byte streams.
    pub payload: Vec<u8>,
    /// Byte offset of each chunk within `payload` (len = chunks + 1).
    pub offsets: Vec<u32>,
    /// Symbols per chunk (last may be short).
    pub chunk_symbols: usize,
    /// Total symbol count.
    pub total_symbols: usize,
}

impl ChunkedStream {
    /// Size in bytes including the offset table.
    pub fn size_bytes(&self) -> usize {
        self.payload.len() + self.offsets.len() * 4
    }

    /// Append the wire form: payload, offsets, then the chunk and total
    /// symbol counts.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        wire::put_bytes(out, &self.payload);
        wire::put_u32s(out, &self.offsets);
        wire::put_u64(out, self.chunk_symbols as u64);
        wire::put_u64(out, self.total_symbols as u64);
    }

    /// Parse [`ChunkedStream::write_to`]'s form. [`decode_chunked`] checks
    /// the layout, so a parsed stream is only as trusted as its bytes.
    pub fn read_from(c: &mut Cursor<'_>) -> WireResult<Self> {
        Ok(Self {
            payload: c.bytes()?,
            offsets: c.u32s()?,
            chunk_symbols: c.u64()? as usize,
            total_symbols: c.u64()? as usize,
        })
    }

    /// True when the offsets tile the payload in order and the chunk count
    /// matches the symbol counts, with at least one payload bit per symbol.
    fn is_well_formed(&self) -> bool {
        let ends = (self.offsets.first(), self.offsets.last());
        ends == (Some(&0), Some(&(self.payload.len() as u32)))
            && self.offsets.windows(2).all(|w| w[0] <= w[1])
            && self.chunk_symbols > 0
            && self.offsets.len() - 1 == self.total_symbols.div_ceil(self.chunk_symbols)
            && self.total_symbols <= self.payload.len().saturating_mul(8)
    }
}

/// Encode in independent chunks of `chunk_symbols` symbols.
pub fn encode_chunked(
    book: &Codebook,
    symbols: &[u16],
    chunk_symbols: usize,
) -> Result<ChunkedStream, HuffmanError> {
    assert!(chunk_symbols > 0);
    let mut payload = Vec::new();
    let mut offsets = vec![0u32];
    for chunk in symbols.chunks(chunk_symbols) {
        let bytes = encode(book, chunk)?;
        payload.extend_from_slice(&bytes);
        offsets.push(payload.len() as u32);
    }
    Ok(ChunkedStream { payload, offsets, chunk_symbols, total_symbols: symbols.len() })
}

/// Decode a [`ChunkedStream`]. A layout [`encode_chunked`] cannot produce
/// is [`HuffmanError::CorruptStream`].
pub fn decode_chunked(book: &Codebook, stream: &ChunkedStream) -> Result<Vec<u16>, HuffmanError> {
    if !stream.is_well_formed() {
        return Err(HuffmanError::CorruptStream);
    }
    let decoder = Decoder::new(book);
    let mut out = Vec::with_capacity(stream.total_symbols);
    let nchunks = stream.offsets.len() - 1;
    for c in 0..nchunks {
        let lo = stream.offsets[c] as usize;
        let hi = stream.offsets[c + 1] as usize;
        let count = stream.chunk_symbols.min(stream.total_symbols - c * stream.chunk_symbols);
        decode_into(&decoder, &stream.payload[lo..hi], count, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hist_of(symbols: &[u16], n: usize) -> Vec<u32> {
        let mut h = vec![0u32; n];
        for &s in symbols {
            h[s as usize] += 1;
        }
        h
    }

    #[test]
    fn skewed_symbols_roundtrip() {
        let symbols: Vec<u16> = (0..1000)
            .map(|i| {
                if i % 10 == 0 {
                    3
                } else if i % 100 == 0 {
                    7
                } else {
                    0
                }
            })
            .collect();
        let book = Codebook::from_histogram(&hist_of(&symbols, 16)).unwrap();
        let bytes = encode(&book, &symbols).unwrap();
        assert_eq!(decode(&book, &bytes, symbols.len()).unwrap(), symbols);
        // Heavy skew => far under 4 bits/symbol.
        assert!(bytes.len() * 8 < symbols.len() * 2);
    }

    #[test]
    fn single_symbol_degenerate_tree() {
        let symbols = vec![5u16; 64];
        let book = Codebook::from_histogram(&hist_of(&symbols, 8)).unwrap();
        assert_eq!(book.lengths[5], 1);
        let bytes = encode(&book, &symbols).unwrap();
        assert_eq!(decode(&book, &bytes, 64).unwrap(), symbols);
        assert_eq!(bytes.len(), 8); // 64 bits
    }

    #[test]
    fn empty_histogram_rejected() {
        assert_eq!(Codebook::from_histogram(&[0, 0, 0]), Err(HuffmanError::EmptyHistogram));
    }

    #[test]
    fn unknown_symbol_rejected() {
        let book = Codebook::from_histogram(&[10, 10]).unwrap();
        assert_eq!(encode(&book, &[2]), Err(HuffmanError::UnknownSymbol(2)));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let hist: Vec<u32> = vec![50, 30, 10, 5, 3, 1, 1];
        let book = Codebook::from_histogram(&hist).unwrap();
        for a in 0..hist.len() {
            for b in 0..hist.len() {
                if a == b || book.lengths[a] == 0 || book.lengths[b] == 0 {
                    continue;
                }
                let (la, lb) = (book.lengths[a] as u32, book.lengths[b] as u32);
                if la <= lb {
                    let prefix = book.codes[b] >> (lb - la);
                    assert!(prefix != book.codes[a], "code {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn mean_bits_between_entropy_and_entropy_plus_one() {
        let hist: Vec<u32> = vec![900, 50, 30, 15, 5];
        let book = Codebook::from_histogram(&hist).unwrap();
        let total: f64 = hist.iter().map(|&c| c as f64).sum();
        let entropy: f64 = hist
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum();
        let mean = book.mean_bits(&hist);
        assert!(mean >= entropy - 1e-9, "mean {mean} < entropy {entropy}");
        assert!(mean < entropy + 1.0, "mean {mean} too far above entropy {entropy}");
    }

    #[test]
    fn chunked_roundtrip_with_ragged_tail() {
        let symbols: Vec<u16> = (0..10_007).map(|i| (i % 23) as u16).collect();
        let book = Codebook::from_histogram(&hist_of(&symbols, 32)).unwrap();
        let stream = encode_chunked(&book, &symbols, 1024).unwrap();
        assert_eq!(stream.offsets.len(), 11); // 10 chunks (ragged last) + 1
        assert_eq!(decode_chunked(&book, &stream).unwrap(), symbols);
    }

    #[test]
    fn corrupt_stream_detected() {
        let symbols = vec![0u16, 1, 0, 1, 1];
        let book = Codebook::from_histogram(&hist_of(&symbols, 4)).unwrap();
        let bytes = encode(&book, &symbols).unwrap();
        // Ask for more symbols than encoded.
        assert!(decode(&book, &bytes, 1000).is_err());
        // A code length past MAX_CODE_LEN, and an over-subscribed table.
        assert_eq!(Codebook::from_lengths(vec![1, 33]), Err(HuffmanError::InvalidLengths));
        assert_eq!(Codebook::from_lengths(vec![1, 1, 1]), Err(HuffmanError::InvalidLengths));
        // A chunked stream claiming more symbols than its chunks hold.
        let mut stream = encode_chunked(&book, &symbols, 2).unwrap();
        stream.total_symbols = 1 << 40;
        assert_eq!(decode_chunked(&book, &stream), Err(HuffmanError::CorruptStream));
    }

    #[test]
    fn complete_code_reaching_max_length_roundtrips() {
        // Lengths 1, 2, ..., 31, 32, 32: Kraft sum exactly one.
        let lengths: Vec<u8> = (1..=32).chain([32]).collect();
        let book = Codebook::from_lengths(lengths).unwrap();
        let symbols = [0u16, 31, 32, 5];
        let bytes = encode(&book, &symbols).unwrap();
        assert_eq!(decode(&book, &bytes, symbols.len()).unwrap(), symbols);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(symbols in proptest::collection::vec(0u16..64, 1..2000)) {
            let book = Codebook::from_histogram(&hist_of(&symbols, 64)).unwrap();
            let bytes = encode(&book, &symbols).unwrap();
            prop_assert_eq!(decode(&book, &bytes, symbols.len()).unwrap(), symbols);
        }

        #[test]
        fn prop_chunked_equals_flat(symbols in proptest::collection::vec(0u16..16, 1..4000),
                                    chunk in 1usize..700) {
            let book = Codebook::from_histogram(&hist_of(&symbols, 16)).unwrap();
            let stream = encode_chunked(&book, &symbols, chunk).unwrap();
            prop_assert_eq!(decode_chunked(&book, &stream).unwrap(), symbols);
        }
    }
}
