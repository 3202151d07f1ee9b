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
//! Directory v2 (written by [`Archive::to_bytes`]; v1 still parses):
//!
//! ```text
//! [magic "FZAR"][u32 version=2][u64 total_values][u64 nchunks]
//! [nchunks x { u64 byte_len, u64 n_values, u32 crc32 }]
//! [u32 directory_crc32 over every byte above]
//! [chunk 0 stream][chunk 1 stream]...
//! ```
//!
//! v1 directories (`version=1`) have 8-byte entries (`u64 byte_len` only)
//! and no CRCs; parsed archives then carry [`ChunkMeta::crc`]` == None` and
//! scrubbing falls back to each chunk's own stream checks.

use crate::crc::{crc32, Crc32};
use crate::format::{self, ChecksumSection, FormatError};
use crate::pipeline::FzGpu;
use crate::quant::ErrorBound;

/// Archive magic.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"FZAR";
/// Directory version written by [`Archive::to_bytes`].
pub const ARCHIVE_VERSION: u32 = 2;
/// Sharded-directory version written by [`ShardedArchive::to_bytes`].
pub const ARCHIVE_VERSION_V3: u32 = 3;

/// v3 fixed directory prefix: magic + version + `total_values` + `nshards`.
pub const V3_DIR_HEADER_BYTES: usize = 24;
/// v3 per-shard directory entry: `shard_byte_len u64, nchunks u64, crc u32`.
pub const V3_DIR_ENTRY_BYTES: usize = 20;
/// v3 shard inner-index prefix: `nchunks u64`.
pub const V3_INNER_HEADER_BYTES: usize = 8;
/// v3 inner-index entry: `chunk_byte_len u64, n_values u64, crc u32`.
pub const V3_INNER_ENTRY_BYTES: usize = 20;

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

    /// Total compressed bytes including the directory.
    pub fn size_bytes(&self) -> usize {
        4 + 4 + 8 + 8 + 20 * self.chunks.len() + 4 + self.chunks.iter().map(Vec::len).sum::<usize>()
    }

    /// Compression ratio over the original f32 data.
    pub fn ratio(&self) -> f64 {
        (self.total_values * 4) as f64 / self.size_bytes() as f64
    }

    /// Serialize to bytes (directory v2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&ARCHIVE_MAGIC);
        out.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.total_values as u64).to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for (c, m) in self.chunks.iter().zip(&self.meta) {
            out.extend_from_slice(&(c.len() as u64).to_le_bytes());
            out.extend_from_slice(&(m.n_values as u64).to_le_bytes());
            out.extend_from_slice(&m.crc.unwrap_or_else(|| crc32(c)).to_le_bytes());
        }
        let dir_crc = crc32(&out);
        out.extend_from_slice(&dir_crc.to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Parse from bytes (directory v1, v2, or v3 — a v3 sharded directory
    /// parses via [`ShardedArchive::from_bytes`] and is flattened).
    ///
    /// The version word is validated as soon as it is readable (8 bytes),
    /// *before* any length checks, so a truncated archive from a future
    /// writer still reports [`FormatError::BadArchiveVersion`] with the
    /// offending version rather than a generic `Truncated`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        if bytes.len() < 4 || bytes[..4] != ARCHIVE_MAGIC {
            return Err(FormatError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(FormatError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let entry_bytes = match version {
            1 => 8,
            ARCHIVE_VERSION => 20,
            ARCHIVE_VERSION_V3 => return ShardedArchive::from_bytes(bytes).map(|s| s.flatten()),
            v => return Err(FormatError::BadArchiveVersion(v)),
        };
        if bytes.len() < 24 {
            return Err(FormatError::Truncated);
        }
        let total_values = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let nchunks = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let entries_end = nchunks
            .checked_mul(entry_bytes)
            .and_then(|n| n.checked_add(24))
            .ok_or(FormatError::Truncated)?;
        let dir_end = if version == 1 {
            entries_end
        } else {
            entries_end.checked_add(4).ok_or(FormatError::Truncated)?
        };
        if bytes.len() < dir_end {
            return Err(FormatError::Truncated);
        }
        if version != 1 {
            let stored = u32::from_le_bytes(bytes[entries_end..dir_end].try_into().unwrap());
            let mut c = Crc32::new();
            c.update(&bytes[..entries_end]);
            if c.finalize() != stored {
                return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Directory });
            }
        }
        let mut lens = Vec::with_capacity(nchunks);
        let mut meta = Vec::with_capacity(nchunks);
        for i in 0..nchunks {
            let at = 24 + entry_bytes * i;
            let rd64 = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
            lens.push(rd64(at));
            if version == 1 {
                meta.push(ChunkMeta { n_values: 0, crc: None });
            } else {
                let crc = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().unwrap());
                meta.push(ChunkMeta { n_values: rd64(at + 8), crc: Some(crc) });
            }
        }
        let mut chunks = Vec::with_capacity(nchunks);
        let mut pos = dir_end;
        for len in lens {
            let end = pos.checked_add(len).ok_or(FormatError::Truncated)?;
            if end > bytes.len() {
                return Err(FormatError::Truncated);
            }
            chunks.push(bytes[pos..end].to_vec());
            pos = end;
        }
        if version == 1 {
            // Recover per-chunk value counts from the streams themselves so
            // degraded mode can size fills for legacy archives too.
            for (m, c) in meta.iter_mut().zip(&chunks) {
                m.n_values = format::Header::from_bytes(c).map_or(0, |h| h.n_values);
            }
        }
        Ok(Self { total_values, chunks, meta })
    }
}

/// One shard of a v3 archive: a run of consecutive chunks with its own
/// inner offset/CRC index, so readers can fetch a single shard's index and
/// then range-read only the chunks a query touches.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Serialized chunk streams in this shard, in archive order.
    pub chunks: Vec<Vec<u8>>,
    /// Per-chunk metadata, parallel to `chunks` (`crc` is always `Some`).
    pub meta: Vec<ChunkMeta>,
}

/// One chunk's entry in a v3 shard's inner index, placed in the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk stream from the start of the shard.
    pub offset: usize,
    /// Chunk stream length in bytes.
    pub len: usize,
    /// Value count and CRC-32 of the chunk stream.
    pub meta: ChunkMeta,
}

impl Shard {
    /// Bytes of the inner index of a shard holding `nchunks` chunks
    /// (count, entries, index CRC): what a partial reader fetches first,
    /// and where the shard's chunk payloads begin. A count whose index
    /// length overflows is an error, never a wrapped length.
    pub fn index_len(nchunks: usize) -> Result<usize, FormatError> {
        nchunks
            .checked_mul(V3_INNER_ENTRY_BYTES)
            .and_then(|n| n.checked_add(V3_INNER_HEADER_BYTES + 4))
            .ok_or(FormatError::Truncated)
    }

    /// Serialize: `[u64 nchunks][nchunks x {u64 byte_len, u64 n_values,
    /// u32 crc}][u32 index_crc][chunk bytes...]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self.chunks.iter().map(Vec::len).sum();
        let index = Self::index_len(self.chunks.len()).unwrap_or(0);
        let mut out = Vec::with_capacity(index + payload);
        out.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for (c, m) in self.chunks.iter().zip(&self.meta) {
            out.extend_from_slice(&(c.len() as u64).to_le_bytes());
            out.extend_from_slice(&(m.n_values as u64).to_le_bytes());
            out.extend_from_slice(&m.crc.unwrap_or_else(|| crc32(c)).to_le_bytes());
        }
        let index_crc = crc32(&out);
        out.extend_from_slice(&index_crc.to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Parse a shard's inner index from the start of `bytes`, which needs
    /// only the index itself ([`Shard::index_len`] bytes); chunk payloads
    /// may follow and are not read. The index CRC is verified before any
    /// entry is trusted, and each chunk's offset is a checked sum.
    pub fn parse_index(bytes: &[u8]) -> Result<Vec<ChunkEntry>, FormatError> {
        if bytes.len() < V3_INNER_HEADER_BYTES {
            return Err(FormatError::Truncated);
        }
        let nchunks = le64(bytes, 0);
        let index_end = Self::index_len(nchunks)?;
        if bytes.len() < index_end {
            return Err(FormatError::Truncated);
        }
        let entries_end = index_end - 4;
        if crc32(&bytes[..entries_end]) != le32(bytes, entries_end) {
            format::note_crc_failure(ChecksumSection::Directory);
            return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Directory });
        }
        let mut entries = Vec::with_capacity(nchunks);
        let mut offset = index_end;
        for i in 0..nchunks {
            let at = V3_INNER_HEADER_BYTES + V3_INNER_ENTRY_BYTES * i;
            let len = le64(bytes, at);
            let meta = ChunkMeta { n_values: le64(bytes, at + 8), crc: Some(le32(bytes, at + 16)) };
            entries.push(ChunkEntry { offset, len, meta });
            offset = offset.checked_add(len).ok_or(FormatError::Truncated)?;
        }
        Ok(entries)
    }

    /// Parse a serialized shard. The inner index CRC is verified before any
    /// entry is trusted; per-chunk CRCs are carried in the returned metadata
    /// (checked lazily at decode time, like the v2 directory).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let index = Self::parse_index(bytes)?;
        let mut chunks = Vec::with_capacity(index.len());
        for c in &index {
            chunks.push(
                bytes.get(c.offset..c.offset + c.len).ok_or(FormatError::Truncated)?.to_vec(),
            );
        }
        Ok(Self { chunks, meta: index.iter().map(|c| c.meta).collect() })
    }
}

/// A v3 archive: the flat chunk list regrouped into shards, each with an
/// inner offset/CRC index. The top-level directory indexes *shards* (byte
/// length, chunk count, whole-shard CRC), which keeps the fixed-cost read
/// for an N-chunk archive at `O(nshards)` directory bytes plus the inner
/// indexes of only the shards a request intersects.
///
/// ```text
/// [magic "FZAR"][u32 version=3][u64 total_values][u64 nshards]
/// [nshards x { u64 shard_byte_len, u64 nchunks, u32 shard_crc32 }]
/// [u32 directory_crc32 over every byte above]
/// [shard 0][shard 1]...          (each shard as in `Shard::to_bytes`)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedArchive {
    /// Total values across all shards' chunks.
    pub total_values: usize,
    /// The shards, in chunk order.
    pub shards: Vec<Shard>,
}

impl ShardedArchive {
    /// Regroup a flat archive into shards of at most `chunks_per_shard`
    /// chunks each.
    pub fn from_archive(a: &Archive, chunks_per_shard: usize) -> Self {
        assert!(chunks_per_shard > 0, "chunks_per_shard must be positive");
        let shards = a
            .chunks
            .chunks(chunks_per_shard)
            .zip(a.meta.chunks(chunks_per_shard))
            .map(|(cs, ms)| Shard {
                chunks: cs.to_vec(),
                meta: ms
                    .iter()
                    .zip(cs)
                    .map(|(m, c)| ChunkMeta {
                        n_values: m.n_values,
                        crc: Some(m.crc.unwrap_or_else(|| crc32(c))),
                    })
                    .collect(),
            })
            .collect();
        Self { total_values: a.total_values, shards }
    }

    /// Flatten back to the v1/v2 in-memory form (chunk order preserved).
    pub fn flatten(&self) -> Archive {
        let mut chunks = Vec::new();
        let mut meta = Vec::new();
        for s in &self.shards {
            chunks.extend(s.chunks.iter().cloned());
            meta.extend(s.meta.iter().copied());
        }
        Archive { total_values: self.total_values, chunks, meta }
    }

    /// Bytes of the top directory (header, entries, directory CRC) that
    /// the first [`V3_DIR_HEADER_BYTES`] bytes of a v3 archive declare:
    /// what a partial reader fetches first, and where shard payloads
    /// begin. A shard count whose directory length overflows is an error,
    /// never a wrapped length.
    pub fn directory_len(header: &[u8]) -> Result<usize, FormatError> {
        if header.len() < 4 || header[..4] != ARCHIVE_MAGIC {
            return Err(FormatError::BadMagic);
        }
        if header.len() < 8 {
            return Err(FormatError::Truncated);
        }
        let version = le32(header, 4);
        if version != ARCHIVE_VERSION_V3 {
            return Err(FormatError::BadArchiveVersion(version));
        }
        if header.len() < V3_DIR_HEADER_BYTES {
            return Err(FormatError::Truncated);
        }
        dir_len(le64(header, 16))
    }

    /// Parse the top directory from the start of `bytes`, which needs only
    /// the directory itself ([`ShardedArchive::directory_len`] bytes);
    /// shard payloads may follow and are not read. The directory CRC is
    /// verified before any entry is trusted, and each shard's offset and
    /// first chunk index are checked sums.
    pub fn parse_directory(bytes: &[u8]) -> Result<ShardDirectory, FormatError> {
        let dir_end = Self::directory_len(bytes)?;
        if bytes.len() < dir_end {
            return Err(FormatError::Truncated);
        }
        let entries_end = dir_end - 4;
        if crc32(&bytes[..entries_end]) != le32(bytes, entries_end) {
            format::note_crc_failure(ChecksumSection::Directory);
            return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Directory });
        }
        let nshards = (entries_end - V3_DIR_HEADER_BYTES) / V3_DIR_ENTRY_BYTES;
        let mut shards = Vec::with_capacity(nshards);
        let (mut offset, mut first_chunk) = (dir_end, 0usize);
        for i in 0..nshards {
            let at = V3_DIR_HEADER_BYTES + V3_DIR_ENTRY_BYTES * i;
            let (len, nchunks) = (le64(bytes, at), le64(bytes, at + 8));
            shards.push(ShardEntry {
                offset,
                len,
                first_chunk,
                nchunks,
                crc: le32(bytes, at + 16),
            });
            offset = offset.checked_add(len).ok_or(FormatError::Truncated)?;
            first_chunk = first_chunk
                .checked_add(nchunks)
                .ok_or(FormatError::Inconsistent("shard chunk counts overflow"))?;
        }
        Ok(ShardDirectory {
            total_values: le64(bytes, 8),
            num_chunks: first_chunk,
            byte_len: offset,
            shards,
        })
    }

    /// Serialize to bytes (directory v3).
    pub fn to_bytes(&self) -> Vec<u8> {
        let shard_bytes: Vec<Vec<u8>> = self.shards.iter().map(Shard::to_bytes).collect();
        let payload: usize = shard_bytes.iter().map(Vec::len).sum();
        let dir = dir_len(self.shards.len()).unwrap_or(0);
        let mut out = Vec::with_capacity(dir + payload);
        out.extend_from_slice(&ARCHIVE_MAGIC);
        out.extend_from_slice(&ARCHIVE_VERSION_V3.to_le_bytes());
        out.extend_from_slice(&(self.total_values as u64).to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for (s, b) in self.shards.iter().zip(&shard_bytes) {
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(&(s.chunks.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(b).to_le_bytes());
        }
        let dir_crc = crc32(&out);
        out.extend_from_slice(&dir_crc.to_le_bytes());
        for b in &shard_bytes {
            out.extend_from_slice(b);
        }
        out
    }

    /// Parse from bytes (v3 only — [`Archive::from_bytes`] dispatches here).
    /// Verifies the top directory CRC and every shard's whole-shard CRC
    /// and inner-index CRC; chunk CRCs stay lazy.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FormatError> {
        let dir = Self::parse_directory(bytes)?;
        if bytes.len() < dir.byte_len {
            return Err(FormatError::Truncated);
        }
        let mut shards = Vec::with_capacity(dir.shards.len());
        for (i, e) in dir.shards.iter().enumerate() {
            let body = &bytes[e.offset..e.offset + e.len];
            if crc32(body) != e.crc {
                format::note_crc_failure(ChecksumSection::Chunk(i));
                return Err(FormatError::ChecksumMismatch { section: ChecksumSection::Chunk(i) });
            }
            let shard = Shard::from_bytes(body)?;
            if shard.chunks.len() != e.nchunks {
                return Err(FormatError::Inconsistent("shard chunk count vs directory"));
            }
            shards.push(shard);
        }
        Ok(Self { total_values: dir.total_values, shards })
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

/// A CRC-verified v3 top directory ([`ShardedArchive::parse_directory`]).
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

/// Length of a v3 top directory over `nshards` shards, checked.
fn dir_len(nshards: usize) -> Result<usize, FormatError> {
    nshards
        .checked_mul(V3_DIR_ENTRY_BYTES)
        .and_then(|n| n.checked_add(V3_DIR_HEADER_BYTES + 4))
        .ok_or(FormatError::Truncated)
}

/// Little-endian `u64` length or count field at `at`.
fn le64(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Little-endian `u32` field at `at`.
fn le32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
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
        let sharded = ShardedArchive::from_archive(&a, 4); // 4+4+2 chunks
        assert_eq!(sharded.shards.len(), 3);
        let bytes = sharded.to_bytes();
        // v3-aware parse.
        let back = ShardedArchive::from_bytes(&bytes).unwrap();
        assert_eq!(back, sharded);
        // The generic reader flattens v3 to the same chunks as v2.
        let flat = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(flat.chunks, a.chunks);
        assert_eq!(flat.total_values, a.total_values);
        let out = flat.decompress(&mut fz).unwrap();
        assert!(d.iter().zip(&out).all(|(x, y)| (x - y).abs() <= 1.1e-3));
    }

    #[test]
    fn v3_corruption_is_detected_at_every_level() {
        let d = data(6000);
        let mut fz = FzGpu::new(A100);
        let a = Archive::compress(&mut fz, &d, 1000, ErrorBound::Abs(1e-3));
        let good = ShardedArchive::from_archive(&a, 2).to_bytes();
        // Top directory entry.
        let mut b = good.clone();
        b[V3_DIR_HEADER_BYTES + 2] ^= 0x10;
        assert!(matches!(
            ShardedArchive::from_bytes(&b).unwrap_err(),
            FormatError::ChecksumMismatch { section: ChecksumSection::Directory }
        ));
        // Inner shard index (first shard starts right after the directory).
        let mut b = good.clone();
        let shard0 = ShardedArchive::directory_len(&good).unwrap();
        b[shard0 + V3_INNER_HEADER_BYTES + 1] ^= 0x01;
        assert!(ShardedArchive::from_bytes(&b).is_err());
        // Chunk body: caught by the whole-shard CRC in the top directory.
        let mut b = good;
        let last = b.len() - 1;
        b[last] ^= 0x80;
        assert!(matches!(
            ShardedArchive::from_bytes(&b).unwrap_err(),
            FormatError::ChecksumMismatch { section: ChecksumSection::Chunk(_) }
        ));
    }
}
