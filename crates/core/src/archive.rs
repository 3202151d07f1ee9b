//! Multi-chunk archives: coarse-grained partitioning for multi-GPU and
//! out-of-core use (§2.4 / §4.1 of the paper: "we partition data in a
//! coarse-grained manner ... with a data chunk independent from another").
//!
//! An archive is a sequence of independent FZ-GPU streams over 1D chunks
//! of a flat value array, prefixed by a directory. Chunks can be
//! compressed on different devices, decompressed selectively, and — the
//! robustness contract — *scrubbed and partially recovered*: because every
//! chunk is independent and v2 directories carry per-chunk CRC-32s, one
//! corrupted chunk never takes down the rest of the archive
//! ([`Archive::scrub`], [`Archive::decompress_degraded`]).
//!
//! Both layouts written here are built from one CRC-sealed table of
//! `{u64 byte_len, u64 count, u32 crc32}` entries:
//!
//! ```text
//! table = [head][u64 n][n x { u64 byte_len, u64 count, u32 crc32 }]
//!         [u32 crc32 over every byte of the table before it]
//! head  = [magic "FZAR"][u32 version][u64 total_values]
//!
//! v2 (Archive::to_bytes):            [chunk table][chunk 0][chunk 1]...
//! v3 (Archive::to_bytes_sharded):    [shard table][shard 0][shard 1]...
//!   shard:                           [chunk table, no head][its chunks]
//! ```
//!
//! A chunk table holds one `{stream length, value count, stream CRC}` per
//! chunk; the v3 shard table one `{shard length, chunk count, shard CRC}`
//! per shard. v3 lets a partial reader fetch the shard table, then only the
//! index and chunks of the shards a request touches
//! ([`ShardDirectory::parse_directory`], [`ChunkEntry::parse_index`]).
//!
//! v1 directories (`version=1`) have 8-byte entries (`u64 byte_len` only)
//! and no CRCs; parsed archives then carry [`ChunkMeta::crc`]` == None` and
//! scrubbing falls back to each chunk's own stream checks.

use fzgpu_codecs::wire::{self, Cursor, WireResult};

use crate::crc::{crc32, Crc32};
use crate::format::{self, ChecksumSection, FormatError};
use crate::pipeline::FzGpu;
use crate::quant::ErrorBound;

/// Archive magic.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"FZAR";
/// Directory version written by [`Archive::to_bytes`].
pub const ARCHIVE_VERSION: u32 = 2;
/// Sharded-directory version written by [`Archive::to_bytes_sharded`].
pub const ARCHIVE_VERSION_V3: u32 = 3;

/// Archive head and entry count: what a partial reader fetches first to
/// learn the length of a v3 top directory ([`ShardDirectory::directory_len`]).
pub const V3_DIR_HEADER_BYTES: usize = HEAD_BYTES + 8;

/// Archive head: magic + version + `total_values`.
const HEAD_BYTES: usize = 16;
/// One `{u64, u64, u32}` table entry.
const ENTRY_BYTES: usize = 20;

/// Directory metadata for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Original f32 values in the chunk (drives degraded-mode fill sizing).
    pub n_values: usize,
    /// CRC-32 of the serialized chunk stream. `None` for archives parsed
    /// from v1 directories, which stored no checksums.
    pub crc: Option<u32>,
}

/// Verdict of [`Archive::scrub`] for one chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkHealth {
    /// Every available check passed (directory CRC when present, stream
    /// header + body checksums).
    Healthy,
    /// No corruption found, but the chunk is a v1 stream in a v1 directory
    /// — there are no checksums to verify against.
    Unverified,
    /// A check failed; the error says which.
    Corrupt(FormatError),
}

impl ChunkHealth {
    /// True unless corrupt.
    pub fn is_usable(&self) -> bool {
        !matches!(self, ChunkHealth::Corrupt(_))
    }
}

/// Per-chunk health summary produced by [`Archive::scrub`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// One verdict per chunk, in order.
    pub chunks: Vec<ChunkHealth>,
}

impl ScrubReport {
    /// Chunks that failed a check.
    pub fn corrupt_count(&self) -> usize {
        self.chunks.iter().filter(|h| !h.is_usable()).count()
    }

    /// True when no chunk is corrupt.
    pub fn is_clean(&self) -> bool {
        self.corrupt_count() == 0
    }
}

/// What [`Archive::decompress_degraded`] writes in place of values from
/// chunks that cannot be recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Quiet NaN — poisons downstream arithmetic so losses stay visible.
    NaN,
    /// Zero — for consumers that need finite values everywhere.
    Zero,
}

impl FillPolicy {
    fn value(self) -> f32 {
        match self {
            FillPolicy::NaN => f32::NAN,
            FillPolicy::Zero => 0.0,
        }
    }
}

/// Result of a degraded-mode decompression.
#[derive(Debug, Clone)]
pub struct DegradedOutput {
    /// The reconstructed field: exact-roundtrip values for usable chunks,
    /// fill values where chunks were lost. Always `total_values` long.
    pub data: Vec<f32>,
    /// Per-chunk verdicts (same as [`Archive::scrub`]).
    pub report: ScrubReport,
    /// How many output values are fill rather than decompressed data.
    pub filled_values: usize,
}

/// A chunked archive of independent FZ-GPU streams.
#[derive(Debug, Clone)]
pub struct Archive {
    /// Total values across all chunks.
    pub total_values: usize,
    /// Per-chunk serialized streams.
    pub chunks: Vec<Vec<u8>>,
    /// Per-chunk directory metadata, parallel to `chunks`.
    pub meta: Vec<ChunkMeta>,
}

impl Archive {
    /// Build an archive from already-compressed streams (the multi-device
    /// assembly path). Directory metadata — per-chunk value counts and
    /// CRCs — is derived from the streams themselves.
    pub fn from_streams(total_values: usize, chunks: Vec<Vec<u8>>) -> Self {
        let meta = chunks
            .iter()
            .map(|c| ChunkMeta {
                n_values: format::Header::from_bytes(c).map_or(0, |h| h.n_values),
                crc: Some(crc32(c)),
            })
            .collect();
        Self { total_values, chunks, meta }
    }

    /// Compress `data` as 1D chunks of at most `chunk_values` each, all on
    /// the provided device. (For multi-device compression, build chunks
    /// with [`FzGpu::compress`] directly and assemble with
    /// [`Archive::from_streams`] — streams are device-independent.)
    pub fn compress(fz: &mut FzGpu, data: &[f32], chunk_values: usize, eb: ErrorBound) -> Self {
        Self::compress_profiled(fz, data, chunk_values, eb).0
    }

    /// [`Archive::compress`] that also returns the joined device profile
    /// of every chunk ([`FzGpu::compress`] resets the timeline per chunk;
    /// here the per-chunk captures are appended back-to-back so a single
    /// trace covers the whole archive).
    pub fn compress_profiled(
        fz: &mut FzGpu,
        data: &[f32],
        chunk_values: usize,
        eb: ErrorBound,
    ) -> (Self, fzgpu_sim::Profile) {
        assert!(chunk_values > 0);
        let _root = fzgpu_trace::span("archive.compress")
            .field("values", data.len())
            .field("chunk_values", chunk_values)
            .field("path", fz.path().label());
        // Resolve a relative bound against the *whole* field so chunks
        // share one absolute bound (otherwise chunk-local ranges would
        // change the error semantics of the archive).
        let eb_abs = eb.resolve(data);
        // On the native path the device timeline stays empty — skip the
        // per-chunk Profile captures instead of appending empty snapshots.
        let capture = !matches!(fz.path(), crate::fastpath::PipelinePath::Native);
        let mut profile: Option<fzgpu_sim::Profile> = None;
        let chunks = data
            .chunks(chunk_values)
            .enumerate()
            .map(|(i, chunk)| {
                let _c = fzgpu_trace::span("archive.chunk").field("index", i);
                let bytes = fz.compress(chunk, (1, 1, chunk.len()), ErrorBound::Abs(eb_abs)).bytes;
                if capture {
                    match &mut profile {
                        Some(p) => p.append(&fz.profile()),
                        None => profile = Some(fz.profile()),
                    }
                }
                bytes
            })
            .collect();
        let archive = Self::from_streams(data.len(), chunks);
        fzgpu_trace::metrics::counter_add(
            fzgpu_trace::metrics::Class::Det,
            "fzgpu_core_archive_chunks_total",
            &[],
            archive.chunks.len() as u64,
        );
        (
            archive,
            profile
                .unwrap_or(fzgpu_sim::Profile { device: fz.gpu().spec().name, events: Vec::new() }),
        )
    }

    /// Decompress the whole archive. Fails on the first corrupt chunk —
    /// use [`Archive::decompress_degraded`] to recover what survives.
    pub fn decompress(&self, fz: &mut FzGpu) -> Result<Vec<f32>, FormatError> {
        let _root = fzgpu_trace::span("archive.decompress").field("chunks", self.chunks.len());
        let mut out = Vec::with_capacity(self.total_values);
        for (i, chunk) in self.chunks.iter().enumerate() {
            let _c = fzgpu_trace::span("archive.chunk").field("index", i);
            self.check_directory_crc(i)?;
            out.extend(fz.decompress_bytes(chunk)?);
        }
        if out.len() != self.total_values {
            return Err(FormatError::Inconsistent("archive length mismatch"));
        }
        Ok(out)
    }

    /// Decompress a single chunk (selective access — the in-memory-cache
    /// use case).
    pub fn decompress_chunk(&self, fz: &mut FzGpu, index: usize) -> Result<Vec<f32>, FormatError> {
        if index >= self.chunks.len() {
            return Err(FormatError::Inconsistent("chunk index out of range"));
        }
        self.check_directory_crc(index)?;
        fz.decompress_bytes(&self.chunks[index])
    }

    /// Directory-CRC gate for chunk `index` (no-op for v1 metadata).
    fn check_directory_crc(&self, index: usize) -> Result<(), FormatError> {
        if let Some(stored) = self.meta.get(index).and_then(|m| m.crc) {
            if crc32(&self.chunks[index]) != stored {
                format::note_crc_failure(ChecksumSection::Chunk(index));
                return Err(FormatError::ChecksumMismatch {
                    section: ChecksumSection::Chunk(index),
                });
            }
        }
        Ok(())
    }

    /// Check every chunk without decompressing anything: directory CRC
    /// (when stored) against the chunk bytes, then the chunk's own stream
    /// verification ([`format::verify`] — header CRC, structure, body CRC).
    pub fn scrub(&self) -> ScrubReport {
        let _root = fzgpu_trace::span("archive.scrub").field("chunks", self.chunks.len());
        let chunks = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                if self.check_directory_crc(i).is_err() {
                    return ChunkHealth::Corrupt(FormatError::ChecksumMismatch {
                        section: ChecksumSection::Chunk(i),
                    });
                }
                match format::verify(chunk) {
                    Err(e) => ChunkHealth::Corrupt(e),
                    // A v1 stream in a v1 directory passed only structural
                    // checks — nothing was actually checksummed.
                    Ok(h) if h.version == format::VERSION_V1 && self.meta[i].crc.is_none() => {
                        ChunkHealth::Unverified
                    }
                    Ok(_) => ChunkHealth::Healthy,
                }
            })
            .collect();
        ScrubReport { chunks }
    }

    /// Best-effort decompression of a damaged archive: every usable chunk
    /// decodes normally; corrupt chunks (and any decode that still fails)
    /// are replaced by `fill` values sized from the directory's per-chunk
    /// value counts. The output is always `total_values` long.
    pub fn decompress_degraded(&self, fz: &mut FzGpu, fill: FillPolicy) -> DegradedOutput {
        let mut report = self.scrub();
        let mut data = Vec::with_capacity(self.total_values);
        let mut filled_values = 0usize;
        for (i, chunk) in self.chunks.iter().enumerate() {
            let decoded = match report.chunks[i] {
                ChunkHealth::Corrupt(_) => None,
                _ => match fz.decompress_bytes(chunk) {
                    Ok(v) => Some(v),
                    Err(e) => {
                        // Possible for Unverified v1 chunks whose corruption
                        // only surfaces at decode time.
                        report.chunks[i] = ChunkHealth::Corrupt(e);
                        None
                    }
                },
            };
            match decoded {
                Some(v) => data.extend(v),
                None => {
                    let n = self.meta.get(i).map_or(0, |m| m.n_values);
                    filled_values += n;
                    data.resize(data.len() + n, fill.value());
                }
            }
        }
        // A corrupt v1 chunk with an unparseable header contributes an
        // unknown value count; square the output length against the
        // directory total so callers can always index the full field.
        if data.len() < self.total_values {
            filled_values += self.total_values - data.len();
            data.resize(self.total_values, fill.value());
        }
        data.truncate(self.total_values);
        DegradedOutput { data, report, filled_values }
    }

    /// Total compressed bytes of the v2 serialization ([`Archive::to_bytes`]).
    pub fn size_bytes(&self) -> usize {
        let table = table_len(HEAD_BYTES, self.chunks.len()).expect("a chunk list fits a table");
        table + self.chunks.iter().map(Vec::len).sum::<usize>()
    }

    /// Compression ratio over the original f32 data.
    pub fn ratio(&self) -> f64 {
        (self.total_values * 4) as f64 / self.size_bytes() as f64
    }

    /// Serialize to bytes (directory v2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        let head = head(ARCHIVE_VERSION, self.total_values);
        put_table(&mut out, &head, &chunk_table(&self.chunks, &self.meta));
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Serialize to bytes (directory v3): each run of `chunks_per_shard`
    /// consecutive chunks becomes one shard, its own chunk table followed
    /// by its chunks, and the top directory holds one shard table entry
    /// per shard.
    pub fn to_bytes_sharded(&self, chunks_per_shard: usize) -> Vec<u8> {
        assert!(chunks_per_shard > 0, "chunks_per_shard must be positive");
        let shards: Vec<(&[Vec<u8>], Vec<u8>)> = self
            .chunks
            .chunks(chunks_per_shard)
            .zip(self.meta.chunks(chunks_per_shard))
            .map(|(chunks, meta)| {
                let mut index = Vec::new();
                put_table(&mut index, &[], &chunk_table(chunks, meta));
                (chunks, index)
            })
            .collect();
        let table: Vec<Entry> = shards
            .iter()
            .map(|(chunks, index)| {
                let mut crc = Crc32::new();
                crc.update(index);
                chunks.iter().for_each(|c| crc.update(c));
                let len = index.len() + chunks.iter().map(Vec::len).sum::<usize>();
                Entry { len, count: chunks.len(), crc: crc.finalize() }
            })
            .collect();
        let mut out = Vec::new();
        put_table(&mut out, &head(ARCHIVE_VERSION_V3, self.total_values), &table);
        out.reserve(table.iter().map(|e| e.len).sum());
        for (chunks, index) in &shards {
            out.extend_from_slice(index);
            chunks.iter().for_each(|c| out.extend_from_slice(c));
        }
        out
    }

    /// Parse from bytes (directory v1, v2 or v3).
    ///
    /// The version word is validated as soon as it is readable (8 bytes),
    /// *before* any length checks, so a truncated archive from a future
    /// writer still reports [`FormatError::BadArchiveVersion`] with the
    /// offending version rather than a generic `Truncated`. Every table CRC
    /// is verified before its entries are trusted; chunk CRCs are checked
    /// lazily, at decode or scrub time. A v3 archive's shards are checked
    /// in order: shard CRC, then its index, then its chunk count. A shard
    /// CRC mismatch is counted but fails the parse only when the shard's
    /// index fails too, so one bad chunk costs only itself, as in v2.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let version = version_of(bytes)?;
        let index = match version {
            1 => v1_index(bytes)?,
            ARCHIVE_VERSION => read_chunk_table(bytes, HEAD_BYTES)?,
            ARCHIVE_VERSION_V3 => return Self::from_v3(bytes),
            v => return Err(FormatError::BadArchiveVersion(v)),
        };
        let mut a = Self {
            total_values: u64_at(bytes, 8)?,
            chunks: Vec::with_capacity(index.len()),
            meta: Vec::with_capacity(index.len()),
        };
        a.push_chunks(bytes, &index)?;
        if version == 1 {
            // Recover per-chunk value counts from the streams themselves so
            // degraded mode can size fills for legacy archives too.
            for (m, c) in a.meta.iter_mut().zip(&a.chunks) {
                m.n_values = format::Header::from_bytes(c).map_or(0, |h| h.n_values);
            }
        }
        Ok(a)
    }

    /// The v3 arm of [`Archive::from_bytes`]. A shard whose bytes fail its
    /// directory CRC is counted as a shard CRC failure, and its chunks are
    /// still placed from its own CRC'd index, so the per-chunk CRCs decide
    /// which chunks are healthy, as in v2. Only a failed shard whose index
    /// cannot be read fails the parse, reported as the shard.
    fn from_v3(bytes: &[u8]) -> Result<Self, FormatError> {
        let dir = ShardDirectory::parse_directory(bytes)?;
        if bytes.len() < dir.byte_len {
            return Err(FormatError::Truncated);
        }
        let mut a = Self { total_values: dir.total_values, chunks: Vec::new(), meta: Vec::new() };
        for (i, s) in dir.shards.iter().enumerate() {
            let shard = &bytes[s.offset..s.offset + s.len];
            let intact = crc32(shard) == s.crc;
            if !intact {
                format::note_crc_failure(ChecksumSection::Shard(i));
            }
            let index = match ChunkEntry::parse_index(shard) {
                Err(_) if !intact => {
                    let section = ChecksumSection::Shard(i);
                    return Err(FormatError::ChecksumMismatch { section });
                }
                index => index?,
            };
            a.push_chunks(shard, &index)?;
            if index.len() != s.nchunks {
                return Err(FormatError::Inconsistent("shard chunk count vs directory"));
            }
        }
        Ok(a)
    }

    /// Append the chunk streams that `index` places in `bytes`.
    fn push_chunks(&mut self, bytes: &[u8], index: &[ChunkEntry]) -> Result<(), FormatError> {
        for c in index {
            let stream = bytes.get(c.offset..c.offset + c.len).ok_or(FormatError::Truncated)?;
            self.chunks.push(stream.to_vec());
            self.meta.push(c.meta);
        }
        Ok(())
    }
}

/// One chunk's entry in a chunk table, placed in the bytes that follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk stream from the start of the table.
    pub offset: usize,
    /// Chunk stream length in bytes.
    pub len: usize,
    /// Value count and CRC-32 of the chunk stream.
    pub meta: ChunkMeta,
}

impl ChunkEntry {
    /// Bytes of the inner index of a v3 shard holding `nchunks` chunks
    /// (count, entries, index CRC): what a partial reader fetches first,
    /// and where the shard's chunk payloads begin. A count whose index
    /// length overflows is an error, never a wrapped length.
    pub fn index_len(nchunks: usize) -> Result<usize, FormatError> {
        table_len(0, nchunks).ok_or(FormatError::Truncated)
    }

    /// Parse a v3 shard's inner index from the start of `bytes`, which
    /// needs only the index itself ([`ChunkEntry::index_len`] bytes); chunk
    /// payloads may follow and are not read. The index CRC is verified
    /// before any entry is trusted, and each chunk's offset is a checked
    /// sum.
    pub fn parse_index(bytes: &[u8]) -> Result<Vec<ChunkEntry>, FormatError> {
        read_chunk_table(bytes, 0)
    }
}

/// One shard's entry in a v3 top directory, placed in the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Byte offset of the shard from the start of the archive.
    pub offset: usize,
    /// Serialized shard length in bytes.
    pub len: usize,
    /// Archive-wide index of the shard's first chunk.
    pub first_chunk: usize,
    /// Chunks in the shard.
    pub nchunks: usize,
    /// CRC-32 of the whole serialized shard.
    pub crc: u32,
}

/// A CRC-verified v3 top directory ([`ShardDirectory::parse_directory`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDirectory {
    /// Total values across all chunks.
    pub total_values: usize,
    /// Total chunks across all shards.
    pub num_chunks: usize,
    /// Archive length the directory declares: the end of its last shard.
    pub byte_len: usize,
    /// The shards, in chunk order.
    pub shards: Vec<ShardEntry>,
}

impl ShardDirectory {
    /// Bytes of the top directory (head, entries, directory CRC) that the
    /// first [`V3_DIR_HEADER_BYTES`] bytes of a v3 archive declare: what a
    /// partial reader fetches first, and where shard payloads begin. A
    /// shard count whose directory length overflows is an error, never a
    /// wrapped length.
    pub fn directory_len(header: &[u8]) -> Result<usize, FormatError> {
        expect_v3(header)?;
        table_len(HEAD_BYTES, u64_at(header, HEAD_BYTES)?).ok_or(FormatError::Truncated)
    }

    /// Parse the top directory from the start of `bytes`, which needs only
    /// the directory itself ([`ShardDirectory::directory_len`] bytes); shard
    /// payloads may follow and are not read. The directory CRC is verified
    /// before any entry is trusted, and each shard's offset and first
    /// chunk index are checked sums.
    pub fn parse_directory(bytes: &[u8]) -> Result<Self, FormatError> {
        expect_v3(bytes)?;
        let (entries, end) = read_table(bytes, HEAD_BYTES)?;
        let (mut offset, mut first_chunk) = (end, 0usize);
        let shards = entries
            .iter()
            .map(|e| {
                let shard =
                    ShardEntry { offset, len: e.len, first_chunk, nchunks: e.count, crc: e.crc };
                offset = offset.checked_add(e.len).ok_or(FormatError::Truncated)?;
                first_chunk = first_chunk
                    .checked_add(e.count)
                    .ok_or(FormatError::Inconsistent("shard chunk counts overflow"))?;
                Ok(shard)
            })
            .collect::<Result<_, FormatError>>()?;
        Ok(Self {
            total_values: u64_at(bytes, 8)?,
            num_chunks: first_chunk,
            byte_len: offset,
            shards,
        })
    }
}

/// One `{u64 byte_len, u64 count, u32 crc32}` table entry: a chunk's
/// stream length, value count and CRC, or a v3 shard's length, chunk count
/// and CRC.
struct Entry {
    len: usize,
    count: usize,
    crc: u32,
}

/// Bytes of a table of `n` entries behind a `head`-byte head (head, count,
/// entries, CRC), or `None` when that length overflows.
fn table_len(head: usize, n: usize) -> Option<usize> {
    n.checked_mul(ENTRY_BYTES)?.checked_add(head + 8 + 4)
}

/// Chunk-table entries for `chunks`. A chunk without a stored CRC (parsed
/// from v1) gets its stream's CRC.
fn chunk_table(chunks: &[Vec<u8>], meta: &[ChunkMeta]) -> Vec<Entry> {
    chunks
        .iter()
        .zip(meta)
        .map(|(c, m)| Entry {
            len: c.len(),
            count: m.n_values,
            crc: m.crc.unwrap_or_else(|| crc32(c)),
        })
        .collect()
}

/// An archive head: magic, `version`, `total_values`.
fn head(version: u32, total_values: usize) -> Vec<u8> {
    let mut head = ARCHIVE_MAGIC.to_vec();
    wire::put_u32(&mut head, version);
    wire::put_u64(&mut head, total_values as u64);
    head
}

/// Append a table to `out`: `head`, the entry count, the entries, and the
/// CRC-32 of every byte the table wrote before it. Every archive table is
/// written here.
fn put_table(out: &mut Vec<u8>, head: &[u8], entries: &[Entry]) {
    let start = out.len();
    out.extend_from_slice(head);
    wire::put_u64(out, entries.len() as u64);
    for e in entries {
        wire::put_u64(out, e.len as u64);
        wire::put_u64(out, e.count as u64);
        wire::put_u32(out, e.crc);
    }
    let crc = crc32(&out[start..]);
    wire::put_u32(out, crc);
}

/// Read the table at the start of `bytes`, behind a `head`-byte head the
/// caller has checked: its entries, and its length, where the payload it
/// indexes begins. Every archive table is read here. Lengths are checked
/// arithmetic, and the table CRC is verified before any entry is read; a
/// mismatch is counted as a directory CRC failure.
fn read_table(bytes: &[u8], head: usize) -> Result<(Vec<Entry>, usize), FormatError> {
    let n = u64_at(bytes, head)?;
    let end = table_len(head, n).ok_or(FormatError::Truncated)?;
    let (covered, stored) = bytes.get(..end).ok_or(FormatError::Truncated)?.split_at(end - 4);
    if Cursor::new(stored).u32() != Ok(crc32(covered)) {
        format::note_crc_failure(ChecksumSection::Directory);
        return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Directory });
    }
    let mut c = Cursor::new(&covered[head + 8..]);
    let entries = (0..n)
        .map(|_| Ok(Entry { len: c.u64()? as usize, count: c.u64()? as usize, crc: c.u32()? }))
        .collect::<WireResult<_>>()
        .map_err(|_| FormatError::Truncated)?;
    Ok((entries, end))
}

/// [`read_table`] for a chunk table, each chunk placed behind the table.
fn read_chunk_table(bytes: &[u8], head: usize) -> Result<Vec<ChunkEntry>, FormatError> {
    let (entries, end) = read_table(bytes, head)?;
    place(end, entries.iter().map(|e| (e.len, ChunkMeta { n_values: e.count, crc: Some(e.crc) })))
}

/// The chunks of a v1 directory, `[head][u64 n][n x u64 byte_len]`, which
/// has no CRCs and no value counts.
fn v1_index(bytes: &[u8]) -> Result<Vec<ChunkEntry>, FormatError> {
    let n = u64_at(bytes, HEAD_BYTES)?;
    let end = n.checked_mul(8).and_then(|b| b.checked_add(HEAD_BYTES + 8));
    let end = end.filter(|&end| end <= bytes.len()).ok_or(FormatError::Truncated)?;
    let lens: Vec<usize> =
        (0..n).map(|i| u64_at(bytes, HEAD_BYTES + 8 + 8 * i)).collect::<Result<_, _>>()?;
    place(end, lens.into_iter().map(|len| (len, ChunkMeta { n_values: 0, crc: None })))
}

/// Place chunks of the given lengths back to back from `offset`. Each
/// chunk's end is a checked sum.
fn place(
    mut offset: usize,
    chunks: impl Iterator<Item = (usize, ChunkMeta)>,
) -> Result<Vec<ChunkEntry>, FormatError> {
    chunks
        .map(|(len, meta)| {
            let entry = ChunkEntry { offset, len, meta };
            offset = offset.checked_add(len).ok_or(FormatError::Truncated)?;
            Ok(entry)
        })
        .collect()
}

/// The version word of an archive, read before any length is checked.
fn version_of(bytes: &[u8]) -> Result<u32, FormatError> {
    if bytes.len() < 4 || bytes[..4] != ARCHIVE_MAGIC {
        return Err(FormatError::BadMagic);
    }
    Cursor::new(&bytes[4..]).u32().map_err(|_| FormatError::Truncated)
}

/// Check that `bytes` open a v3 archive.
fn expect_v3(bytes: &[u8]) -> Result<(), FormatError> {
    match version_of(bytes)? {
        ARCHIVE_VERSION_V3 => Ok(()),
        v => Err(FormatError::BadArchiveVersion(v)),
    }
}

/// The little-endian `u64` length or count at byte `at`.
fn u64_at(bytes: &[u8], at: usize) -> Result<usize, FormatError> {
    let mut c = Cursor::new(bytes);
    c.take(at).and_then(|_| c.u64()).map(|v| v as usize).map_err(|_| FormatError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_sim::device::A100;

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.003).sin() * 5.0).collect()
    }

    #[test]
    fn archive_roundtrip() {
        let d = data(10_000);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 3000, ErrorBound::Abs(1e-3));
        assert_eq!(a.chunks.len(), 4); // 3000*3 + 1000
        assert_eq!(a.meta.iter().map(|m| m.n_values).sum::<usize>(), d.len());
        let back = a.decompress(&mut fz).unwrap();
        assert_eq!(back.len(), d.len());
        for (&x, &y) in d.iter().zip(&back) {
            assert!((x - y).abs() <= 1.1e-3);
        }
    }

    #[test]
    fn native_path_archives_are_byte_identical() {
        use crate::fastpath::PipelinePath;
        use crate::pipeline::FzOptions;
        let d = data(9000);
        let mut sim = FzGpu::new(A100);
        let mut nat = FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Native, ..FzOptions::default() },
        );
        let a = Archive::compress(&mut sim, &d, 2500, ErrorBound::RelToRange(1e-3));
        let b = Archive::compress(&mut nat, &d, 2500, ErrorBound::RelToRange(1e-3));
        assert_eq!(a.to_bytes(), b.to_bytes(), "archives must not depend on the path");
        // Decode parity in both directions (native decodes sim's archive).
        let x = a.decompress(&mut nat).unwrap();
        let y = b.decompress(&mut sim).unwrap();
        assert!(x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn selective_chunk_access() {
        let d = data(8192);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 2048, ErrorBound::Abs(1e-3));
        let c2 = a.decompress_chunk(&mut fz, 2).unwrap();
        assert_eq!(c2.len(), 2048);
        for (i, &y) in c2.iter().enumerate() {
            assert!((d[4096 + i] - y).abs() <= 1.1e-3);
        }
    }

    #[test]
    fn chunk_index_out_of_range_is_an_error() {
        let d = data(2048);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1024, ErrorBound::Abs(1e-3));
        let err = a.decompress_chunk(&mut fz, 2).unwrap_err();
        assert_eq!(err, FormatError::Inconsistent("chunk index out of range"));
    }

    #[test]
    fn serialization_roundtrip() {
        let d = data(5000);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1500, ErrorBound::RelToRange(1e-3));
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), a.size_bytes());
        let b = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(b.total_values, a.total_values);
        assert_eq!(b.chunks, a.chunks);
        assert_eq!(b.meta, a.meta);
    }

    #[test]
    fn relative_bound_is_global_not_per_chunk() {
        // A chunk that is flat must still use the global range's bound.
        let mut d = data(4096);
        for v in &mut d[..2048] {
            *v = 0.0;
        }
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 2048, ErrorBound::RelToRange(1e-3));
        // Parse both chunk headers: same absolute eb.
        let h0 = crate::format::Header::from_bytes(&a.chunks[0]).unwrap();
        let h1 = crate::format::Header::from_bytes(&a.chunks[1]).unwrap();
        assert_eq!(h0.eb, h1.eb);
    }

    #[test]
    fn corrupt_archive_rejected() {
        let d = data(2048);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1024, ErrorBound::Abs(1e-3));
        let mut bytes = a.to_bytes();
        bytes[0] = b'X';
        assert!(Archive::from_bytes(&bytes).is_err());
        let short = &a.to_bytes()[..30];
        assert!(Archive::from_bytes(short).is_err());
    }

    #[test]
    fn directory_corruption_detected() {
        let d = data(2048);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1024, ErrorBound::Abs(1e-3));
        let mut bytes = a.to_bytes();
        bytes[25] ^= 0x04; // a chunk-length byte
        assert_eq!(
            Archive::from_bytes(&bytes).unwrap_err(),
            FormatError::ChecksumMismatch { section: ChecksumSection::Directory }
        );
    }

    #[test]
    fn scrub_clean_archive() {
        let d = data(4096);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1024, ErrorBound::Abs(1e-3));
        let report = a.scrub();
        assert!(report.is_clean());
        assert!(report.chunks.iter().all(|h| *h == ChunkHealth::Healthy));
    }

    #[test]
    fn scrub_flags_corrupted_chunk() {
        let d = data(4096);
        let mut fz = FzGpu::new(A100);
        let mut a = Archive::compress(&mut fz, &d, 1024, ErrorBound::Abs(1e-3));
        let last = a.chunks[2].len() - 1;
        a.chunks[2][last] ^= 0x01;
        let report = a.scrub();
        assert_eq!(report.corrupt_count(), 1);
        assert!(
            report.chunks[2]
                == ChunkHealth::Corrupt(FormatError::ChecksumMismatch {
                    section: ChecksumSection::Chunk(2)
                })
        );
        // The other chunks remain healthy and individually decodable.
        assert!(a.decompress_chunk(&mut fz, 0).is_ok());
        assert!(a.decompress_chunk(&mut fz, 2).is_err());
        assert!(a.decompress(&mut fz).is_err());
    }

    #[test]
    fn degraded_decompression_recovers_surviving_chunks() {
        let d = data(8192);
        let mut fz = FzGpu::new(A100);
        let mut a = Archive::compress(&mut fz, &d, 2048, ErrorBound::Abs(1e-3));
        a.chunks[1][100] ^= 0x80;
        let out = a.decompress_degraded(&mut fz, FillPolicy::NaN);
        assert_eq!(out.data.len(), d.len());
        assert_eq!(out.filled_values, 2048);
        assert_eq!(out.report.corrupt_count(), 1);
        for (i, (&x, &y)) in d.iter().zip(&out.data).enumerate() {
            if (2048..4096).contains(&i) {
                assert!(y.is_nan(), "lost chunk must fill with NaN at {i}");
            } else {
                assert!((x - y).abs() <= 1.1e-3, "surviving value must roundtrip at {i}");
            }
        }
        let zeros = a.decompress_degraded(&mut fz, FillPolicy::Zero);
        assert!(zeros.data[2048..4096].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn v1_directory_still_parses() {
        // Hand-build a v1 archive around two freshly compressed chunks.
        let d = data(4096);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 2048, ErrorBound::Abs(1e-3));
        let mut v1 = Vec::new();
        v1.extend_from_slice(&ARCHIVE_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(a.total_values as u64).to_le_bytes());
        v1.extend_from_slice(&(a.chunks.len() as u64).to_le_bytes());
        for c in &a.chunks {
            v1.extend_from_slice(&(c.len() as u64).to_le_bytes());
        }
        for c in &a.chunks {
            v1.extend_from_slice(c);
        }
        let b = Archive::from_bytes(&v1).unwrap();
        assert_eq!(b.chunks, a.chunks);
        assert!(b.meta.iter().all(|m| m.crc.is_none()));
        // n_values recovered from the chunk headers.
        assert_eq!(b.meta.iter().map(|m| m.n_values).sum::<usize>(), 4096);
        assert_eq!(b.decompress(&mut fz).unwrap().len(), 4096);
    }

    #[test]
    fn unknown_version_names_the_version_even_when_truncated() {
        // A future-version archive cut off right after the version word
        // must still say *which* version was unreadable, not "truncated".
        let mut fut = Vec::new();
        fut.extend_from_slice(&ARCHIVE_MAGIC);
        fut.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(Archive::from_bytes(&fut).unwrap_err(), FormatError::BadArchiveVersion(9));
        fut.extend_from_slice(&[0u8; 40]);
        assert_eq!(Archive::from_bytes(&fut).unwrap_err(), FormatError::BadArchiveVersion(9));
        let msg = FormatError::BadArchiveVersion(9).to_string();
        assert!(msg.contains("archive version 9"), "diagnosable message, got: {msg}");
    }

    #[test]
    fn v3_roundtrip_and_cross_version_read() {
        let d = data(10_000);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1000, ErrorBound::Abs(1e-3));
        let bytes = a.to_bytes_sharded(4);
        let dir = ShardDirectory::parse_directory(&bytes).unwrap();
        let per_shard: Vec<usize> = dir.shards.iter().map(|s| s.nchunks).collect();
        assert_eq!(per_shard, [4, 4, 2]);
        assert_eq!((dir.num_chunks, dir.byte_len), (10, bytes.len()));
        // v3 parses to the same chunks and metadata as the archive it came
        // from, which is what v2 parses to.
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back.chunks, a.chunks);
        assert_eq!(back.meta, a.meta);
        assert_eq!(back.total_values, a.total_values);
        let out = back.decompress(&mut fz).unwrap();
        assert!(d.iter().zip(&out).all(|(x, y)| (x - y).abs() <= 1.1e-3));
    }

    #[test]
    fn v3_corruption_is_detected_at_every_level() {
        let d = data(6000);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1000, ErrorBound::Abs(1e-3));
        let good = a.to_bytes_sharded(2);
        // Top directory entry.
        let mut b = good.clone();
        b[V3_DIR_HEADER_BYTES + 2] ^= 0x10;
        assert!(matches!(
            Archive::from_bytes(&b).unwrap_err(),
            FormatError::ChecksumMismatch { section: ChecksumSection::Directory }
        ));
        // Inner shard index (first shard starts right after the directory):
        // the shard's CRC fails and its index cannot be trusted.
        let mut b = good.clone();
        let shard0 = ShardDirectory::directory_len(&good).unwrap();
        b[shard0 + 8 + 1] ^= 0x01;
        assert_eq!(
            Archive::from_bytes(&b).unwrap_err(),
            FormatError::ChecksumMismatch { section: ChecksumSection::Shard(0) }
        );
        // Chunk body: the whole-shard CRC fails, the shard's index still
        // places its chunks, and the chunk's own CRC condemns it alone.
        let mut b = good;
        let last = b.len() - 1;
        b[last] ^= 0x80;
        let parsed = Archive::from_bytes(&b).unwrap();
        let report = parsed.scrub();
        assert_eq!(report.corrupt_count(), 1);
        assert_eq!(
            report.chunks[5],
            ChunkHealth::Corrupt(FormatError::ChecksumMismatch {
                section: ChecksumSection::Chunk(5)
            })
        );
    }
}
