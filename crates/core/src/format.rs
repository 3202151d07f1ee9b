//! Compressed stream format.
//!
//! Two wire versions are understood. **v2** (written by everything in this
//! repository today) extends the v1 header with CRC-32 checksums so that
//! corruption anywhere in a stream is *detected*, never silently decoded:
//!
//! ```text
//! v2: [80-byte header][bit-flag words][compacted payload words]
//! v1: [64-byte header][bit-flag words][compacted payload words]
//! ```
//!
//! Common header prefix (little-endian), bytes 0..64 in both versions:
//! `magic "FZGP" | version u32 | nz u64 | ny u64 | nx u64 | eb f64 |`
//! `n_values u64 | num_blocks u64 | payload_words u64`
//!
//! v2 appends 16 bytes:
//!
//! | bytes  | field        | covers                                        |
//! |--------|--------------|-----------------------------------------------|
//! | 64..68 | header CRC32 | all 80 header bytes with this field zeroed    |
//! | 68..72 | body CRC32   | bit-flag + payload bytes                      |
//! | 72..80 | reserved     | must be zero                                  |
//!
//! The header CRC covers the body-CRC field, so a flipped bit in *either*
//! checksum slot is itself caught by the header check. Readers accept both
//! versions ([`Header::from_bytes`] dispatches on the version word);
//! writers emit v2 only. For v1 streams the checks degrade to the original
//! structural validation — there is nothing to verify against.

use crate::crc::{crc32, Crc32};
use crate::lorenzo::Shape;

/// Stream magic.
pub const MAGIC: [u8; 4] = *b"FZGP";
/// Format version written by this library.
pub const VERSION: u32 = 2;
/// The legacy checksum-free version still accepted on read.
pub const VERSION_V1: u32 = 1;
/// Serialized v2 header size in bytes.
pub const HEADER_BYTES: usize = 80;
/// Serialized v1 header size in bytes (the common prefix of v2).
pub const HEADER_V1_BYTES: usize = 64;

/// Which checksummed region failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumSection {
    /// The 80-byte stream header.
    Header,
    /// Bit-flag words + compacted payload of one stream.
    Payload,
    /// An archive's chunk directory.
    Directory,
    /// Chunk `i` of an archive (its stored CRC vs its bytes).
    Chunk(usize),
}

impl ChecksumSection {
    /// The section's kind as a low-cardinality metric label: chunk indices
    /// collapse to `"chunk"` so the `fzgpu_core_crc_failures_total` label set
    /// stays bounded regardless of archive size.
    pub fn kind(&self) -> &'static str {
        match self {
            ChecksumSection::Header => "header",
            ChecksumSection::Payload => "payload",
            ChecksumSection::Directory => "directory",
            ChecksumSection::Chunk(_) => "chunk",
        }
    }
}

impl core::fmt::Display for ChecksumSection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChecksumSection::Header => write!(f, "header"),
            ChecksumSection::Payload => write!(f, "payload"),
            ChecksumSection::Directory => write!(f, "directory"),
            ChecksumSection::Chunk(i) => write!(f, "chunk {i}"),
        }
    }
}

/// Count a checksum failure on the global metrics registry and drop a
/// trace event. Called at every CRC gate (stream verify, archive
/// directory checks) so corrupted-data incidents are observable.
pub(crate) fn note_crc_failure(section: ChecksumSection) {
    fzgpu_trace::metrics::counter_add(
        fzgpu_trace::metrics::Class::Det,
        "fzgpu_core_crc_failures_total",
        &[("section", section.kind())],
        1,
    );
    fzgpu_trace::event("crc.mismatch").field("section", section.kind());
}

/// Parsed stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Wire version this header was parsed from / will serialize as
    /// ([`VERSION`] or [`VERSION_V1`]).
    pub version: u32,
    /// Field shape `(nz, ny, nx)`.
    pub shape: Shape,
    /// Absolute error bound the stream was produced with.
    pub eb: f64,
    /// Number of f32 values in the original field.
    pub n_values: usize,
    /// Zero-block flag count (defines the padded stream length).
    pub num_blocks: usize,
    /// Words in the compacted payload.
    pub payload_words: usize,
}

/// Errors when parsing a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Too short to contain a header/declared sections.
    Truncated,
    /// Magic bytes don't match.
    BadMagic,
    /// Unknown version.
    BadVersion(u32),
    /// An archive directory declares a version this reader doesn't know.
    /// Distinct from [`FormatError::BadVersion`] (stream-level) so that a
    /// v3-archive-on-old-reader failure names the archive version instead
    /// of surfacing as a generic parse error.
    BadArchiveVersion(u32),
    /// Header fields are internally inconsistent.
    Inconsistent(&'static str),
    /// A stored CRC-32 does not match the bytes it covers.
    ChecksumMismatch {
        /// The region that failed.
        section: ChecksumSection,
    },
}

impl core::fmt::Display for FormatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "stream truncated"),
            FormatError::BadMagic => write!(f, "bad magic"),
            FormatError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FormatError::BadArchiveVersion(v) => write!(
                f,
                "unsupported archive version {v} (this reader understands 1..={})",
                crate::archive::ARCHIVE_VERSION_V3
            ),
            FormatError::Inconsistent(what) => write!(f, "inconsistent header: {what}"),
            FormatError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// Header CRC over `header[0..len]` with the CRC slot (64..68) zeroed.
fn header_crc(header: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&header[..64]);
    c.update(&[0u8; 4]);
    c.update(&header[68..HEADER_BYTES]);
    c.finalize()
}

impl Header {
    /// Bit-flag section length in u32 words.
    pub fn bitflag_words(&self) -> usize {
        self.num_blocks.div_ceil(32)
    }

    /// Serialized header size for this header's version.
    pub fn header_bytes(&self) -> usize {
        if self.version == VERSION_V1 {
            HEADER_V1_BYTES
        } else {
            HEADER_BYTES
        }
    }

    /// Serialize the header. For v2 the body-CRC slot is written as zero —
    /// [`assemble`] patches the real value once the body exists — and the
    /// header CRC is computed over that zeroed slot, so a standalone
    /// `to_bytes()` header still passes its own checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.header_bytes()];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..16].copy_from_slice(&(self.shape.0 as u64).to_le_bytes());
        out[16..24].copy_from_slice(&(self.shape.1 as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.shape.2 as u64).to_le_bytes());
        out[32..40].copy_from_slice(&self.eb.to_le_bytes());
        out[40..48].copy_from_slice(&(self.n_values as u64).to_le_bytes());
        out[48..56].copy_from_slice(&(self.num_blocks as u64).to_le_bytes());
        out[56..64].copy_from_slice(&(self.payload_words as u64).to_le_bytes());
        if self.version != VERSION_V1 {
            let crc = header_crc(&out);
            out[64..68].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Parse and validate a header from the start of `bytes`.
    ///
    /// Accepts v1 (structural validation only) and v2 (header CRC verified
    /// before any field is trusted). The body CRC is *not* checked here —
    /// that needs the body; see [`verify`] / [`disassemble`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        if bytes.len() < HEADER_V1_BYTES {
            return Err(FormatError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        match version {
            VERSION_V1 => {}
            VERSION => {
                if bytes.len() < HEADER_BYTES {
                    return Err(FormatError::Truncated);
                }
                let stored = u32::from_le_bytes(bytes[64..68].try_into().unwrap());
                if header_crc(&bytes[..HEADER_BYTES]) != stored {
                    return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Header });
                }
                if bytes[72..80] != [0u8; 8] {
                    return Err(FormatError::Inconsistent("reserved header bytes not zero"));
                }
            }
            v => return Err(FormatError::BadVersion(v)),
        }
        let rd = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let header = Header {
            version,
            shape: (rd(8), rd(16), rd(24)),
            eb: f64::from_le_bytes(bytes[32..40].try_into().unwrap()),
            n_values: rd(40),
            num_blocks: rd(48),
            payload_words: rd(56),
        };
        let (nz, ny, nx) = header.shape;
        let Some(n) = nz.checked_mul(ny).and_then(|zy| zy.checked_mul(nx)) else {
            return Err(FormatError::Inconsistent("shape overflow"));
        };
        if n != header.n_values {
            return Err(FormatError::Inconsistent("shape vs n_values"));
        }
        if !(header.eb.is_finite() && header.eb > 0.0) {
            return Err(FormatError::Inconsistent("error bound not finite and positive"));
        }
        // num_blocks is fully determined by n_values (codes are packed two
        // per word and padded to whole bitshuffle tiles) — reject anything
        // else so corrupted headers cannot drive out-of-bounds decode.
        let words = crate::pack::padded_words(header.n_values);
        if header.num_blocks != words / crate::zeroblock::BLOCK_WORDS {
            return Err(FormatError::Inconsistent("num_blocks vs n_values"));
        }
        if !header.payload_words.is_multiple_of(crate::zeroblock::BLOCK_WORDS) {
            return Err(FormatError::Inconsistent("payload not block-aligned"));
        }
        if header.payload_words > words {
            return Err(FormatError::Inconsistent("payload larger than stream"));
        }
        Ok(header)
    }

    /// Total stream length implied by the header.
    pub fn stream_bytes(&self) -> usize {
        self.header_bytes() + self.bitflag_words() * 4 + self.payload_words * 4
    }
}

/// Assemble a full stream from its sections. For v2 headers the body CRC is
/// computed over the serialized bit-flag + payload bytes and the header CRC
/// re-stamped to cover it.
pub fn assemble(header: &Header, bit_flags: &[u32], payload: &[u32]) -> Vec<u8> {
    assert_eq!(bit_flags.len(), header.bitflag_words());
    assert_eq!(payload.len(), header.payload_words);
    let mut out = Vec::with_capacity(header.stream_bytes());
    out.extend_from_slice(&header.to_bytes());
    for w in bit_flags {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for w in payload {
        out.extend_from_slice(&w.to_le_bytes());
    }
    if header.version != VERSION_V1 {
        let body = crc32(&out[HEADER_BYTES..]);
        out[68..72].copy_from_slice(&body.to_le_bytes());
        let hdr = header_crc(&out[..HEADER_BYTES]);
        out[64..68].copy_from_slice(&hdr.to_le_bytes());
    }
    out
}

/// Verify a stream end to end without decoding it: header CRC + structural
/// checks, declared length, and (v2) body CRC over bit-flags + payload.
///
/// This is the cheap integrity gate the `fzgpu verify` CLI and
/// `Archive::scrub` build on. For v1 streams only the structural checks
/// run — the format carries no checksums to compare against.
pub fn verify(bytes: &[u8]) -> Result<Header, FormatError> {
    let result = verify_inner(bytes);
    if let Err(FormatError::ChecksumMismatch { section }) = &result {
        note_crc_failure(*section);
    }
    result
}

fn verify_inner(bytes: &[u8]) -> Result<Header, FormatError> {
    let header = Header::from_bytes(bytes)?;
    if bytes.len() < header.stream_bytes() {
        return Err(FormatError::Truncated);
    }
    if header.version != VERSION_V1 {
        let stored = u32::from_le_bytes(bytes[68..72].try_into().unwrap());
        if crc32(&bytes[HEADER_BYTES..header.stream_bytes()]) != stored {
            return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Payload });
        }
    }
    Ok(header)
}

/// Split a stream into `(header, bit_flags, payload)`, verifying checksums
/// first (see [`verify`]).
pub fn disassemble(bytes: &[u8]) -> Result<(Header, Vec<u32>, Vec<u32>), FormatError> {
    let header = verify(bytes)?;
    let words = |lo: usize, n: usize| -> Vec<u32> {
        bytes[lo..lo + n * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };
    let hb = header.header_bytes();
    let nbf = header.bitflag_words();
    let bit_flags = words(hb, nbf);
    let payload = words(hb + nbf * 4, header.payload_words);
    Ok((header, bit_flags, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            version: VERSION,
            shape: (4, 8, 16),
            eb: 1e-3,
            n_values: 512,
            num_blocks: 256,
            payload_words: 12,
        }
    }

    fn sample_stream() -> (Header, Vec<u8>) {
        let h = sample_header();
        let bit_flags: Vec<u32> = (0..h.bitflag_words() as u32).map(|i| i * 3 + 1).collect();
        let payload: Vec<u32> = (0..h.payload_words as u32).map(|i| i ^ 0xDEAD).collect();
        let bytes = assemble(&h, &bit_flags, &payload);
        (h, bytes)
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        assert_eq!(Header::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn v1_header_roundtrip() {
        let h = Header { version: VERSION_V1, ..sample_header() };
        let b = h.to_bytes();
        assert_eq!(b.len(), HEADER_V1_BYTES);
        assert_eq!(Header::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample_header().to_bytes();
        b[0] = b'X';
        assert_eq!(Header::from_bytes(&b), Err(FormatError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample_header().to_bytes();
        b[4] = 99;
        assert_eq!(Header::from_bytes(&b), Err(FormatError::BadVersion(99)));
    }

    #[test]
    fn inconsistent_shape_rejected() {
        let mut h = sample_header();
        h.n_values = 511;
        assert!(matches!(Header::from_bytes(&h.to_bytes()), Err(FormatError::Inconsistent(_))));
    }

    #[test]
    fn non_finite_error_bound_rejected() {
        // CRC-valid headers: `to_bytes` stamps the checksum, so the bound
        // check itself must fire.
        for eb in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1e-3] {
            let b = Header { eb, ..sample_header() }.to_bytes();
            assert_eq!(
                Header::from_bytes(&b),
                Err(FormatError::Inconsistent("error bound not finite and positive")),
                "eb {eb}"
            );
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(Header::from_bytes(&[0u8; 10]), Err(FormatError::Truncated));
    }

    #[test]
    fn v2_header_shorter_than_80_rejected() {
        let b = sample_header().to_bytes();
        assert_eq!(Header::from_bytes(&b[..72]), Err(FormatError::Truncated));
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        let h = sample_header();
        let bit_flags: Vec<u32> = (0..h.bitflag_words() as u32).map(|i| i * 3 + 1).collect();
        let payload: Vec<u32> = (0..h.payload_words as u32).map(|i| i ^ 0xDEAD).collect();
        let bytes = assemble(&h, &bit_flags, &payload);
        assert_eq!(bytes.len(), h.stream_bytes());
        let (h2, bf2, p2) = disassemble(&bytes).unwrap();
        assert_eq!(h2, h);
        assert_eq!(bf2, bit_flags);
        assert_eq!(p2, payload);
    }

    #[test]
    fn v1_assemble_disassemble_roundtrip() {
        let h = Header { version: VERSION_V1, ..sample_header() };
        let bit_flags = vec![7u32; h.bitflag_words()];
        let payload = vec![9u32; h.payload_words];
        let bytes = assemble(&h, &bit_flags, &payload);
        assert_eq!(bytes.len(), h.stream_bytes());
        assert_eq!(bytes.len(), HEADER_V1_BYTES + (h.bitflag_words() + h.payload_words) * 4);
        let (h2, bf2, p2) = disassemble(&bytes).unwrap();
        assert_eq!(h2.version, VERSION_V1);
        assert_eq!((bf2, p2), (bit_flags, payload));
    }

    #[test]
    fn truncated_payload_rejected() {
        let (_, bytes) = sample_stream();
        assert!(matches!(disassemble(&bytes[..bytes.len() - 1]), Err(FormatError::Truncated)));
    }

    #[test]
    fn header_corruption_caught_by_header_crc() {
        let (_, mut bytes) = sample_stream();
        bytes[33] ^= 0x10; // error-bound byte
        assert_eq!(
            disassemble(&bytes),
            Err(FormatError::ChecksumMismatch { section: ChecksumSection::Header })
        );
    }

    #[test]
    fn checksum_slot_corruption_caught_by_header_crc() {
        // Flipping a bit of the *body-CRC slot* must also be detected — the
        // header CRC covers it.
        let (_, mut bytes) = sample_stream();
        bytes[69] ^= 0x01;
        assert_eq!(
            disassemble(&bytes),
            Err(FormatError::ChecksumMismatch { section: ChecksumSection::Header })
        );
    }

    #[test]
    fn body_corruption_caught_by_body_crc() {
        let (h, mut bytes) = sample_stream();
        let last = h.stream_bytes() - 1;
        bytes[last] ^= 0x80;
        assert_eq!(
            disassemble(&bytes),
            Err(FormatError::ChecksumMismatch { section: ChecksumSection::Payload })
        );
    }

    #[test]
    fn reserved_bytes_must_be_zero() {
        let mut b = sample_header().to_bytes();
        b[75] = 1;
        // Re-stamp the header CRC so the reserved check (not the CRC) fires.
        let crc = header_crc(&b);
        b[64..68].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(Header::from_bytes(&b), Err(FormatError::Inconsistent(_))));
    }

    #[test]
    fn checksum_section_display() {
        assert_eq!(ChecksumSection::Chunk(3).to_string(), "chunk 3");
        assert_eq!(
            FormatError::ChecksumMismatch { section: ChecksumSection::Payload }.to_string(),
            "checksum mismatch in payload"
        );
    }
}
