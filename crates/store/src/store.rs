//! The chunked array store: an n-D field, chunked by a [`ChunkGrid`],
//! each chunk encoded by one [`Codec`], packed into an archive-v3 sharded
//! container behind a [`StorageBackend`].
//!
//! Container layout (`FZST` v1):
//!
//! ```text
//! [magic "FZST"][u32 version=1][u64 meta_len][meta JSON][archive bytes]
//! ```
//!
//! The meta JSON carries dims, chunk shape, the resolved codec config and
//! the shard size; the archive bytes are a v3 sharded archive
//! ([`fzgpu_core::Archive::to_bytes_sharded`]). A container holding a v1
//! or v2 archive is refused with an error naming that version.
//!
//! **Partial decode**: [`ArrayStore::read_region`] fetches the container
//! header and top directory once at open, then per read touches only the
//! inner indexes of intersecting shards and the byte ranges of
//! intersecting chunks. The backend's byte accounting (and the
//! `fzgpu_store_*` Det metrics) therefore scale with the request, not the
//! array — asserted by the test suite and the store bench.

use fzgpu_core::archive::V3_DIR_HEADER_BYTES;
use fzgpu_core::crc::Crc32;
use fzgpu_core::{crc32, Archive, ChunkEntry, ChunkMeta, FormatError, Shape, ShardDirectory};
use fzgpu_sim::DeviceSpec;
use fzgpu_trace::json::{self, Obj, Value};
use fzgpu_trace::metrics::{counter_add, Class};

use crate::backend::{BackendStats, StorageBackend};
use crate::codec::{Codec, CodecConfig, CodecError, Registry};
use crate::grid::{copy_region, ChunkGrid, Region};

/// Store container magic.
pub const STORE_MAGIC: [u8; 4] = *b"FZST";
/// Container version written by [`ArrayStore::create`].
pub const STORE_VERSION: u32 = 1;
/// Fixed container prefix: magic + version + meta length.
pub const STORE_HEADER_BYTES: u64 = 16;

/// Store-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Backend I/O failure (path + OS error).
    Io(String),
    /// The request itself is invalid (bad region, bad spec...).
    BadRequest(String),
    /// Stored bytes are damaged or inconsistent.
    Corrupt(String),
    /// A codec refused or failed.
    Codec(CodecError),
    /// An archive/stream-level parse failure.
    Format(FormatError),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "{e}"),
            StoreError::BadRequest(e) => write!(f, "{e}"),
            StoreError::Corrupt(e) => write!(f, "corrupt store: {e}"),
            StoreError::Codec(e) => write!(f, "{e}"),
            StoreError::Format(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

/// Everything needed to (re)build a store: geometry + codec + sharding.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSpec {
    /// Field extents per axis (C order, last axis fastest).
    pub dims: Vec<usize>,
    /// Chunk extents per axis.
    pub chunk: Vec<usize>,
    /// Chunk codec (error bounds already resolved to absolute).
    pub codec: CodecConfig,
    /// Chunks per shard in the v3 archive.
    pub chunks_per_shard: usize,
}

impl StoreSpec {
    /// Serialize as the container's meta JSON (sorted keys).
    pub fn to_json(&self) -> String {
        Obj::compact()
            .raw("chunk", json::list(json::Layout::Compact, &self.chunk))
            .raw("chunks_per_shard", self.chunks_per_shard)
            .raw("codec", self.codec.to_json())
            .raw("dims", json::list(json::Layout::Compact, &self.dims))
            .raw("v", STORE_VERSION)
            .finish()
    }

    /// Parse the container's meta JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let ver = v.get("v").and_then(Value::as_f64).ok_or("store meta missing \"v\"")?;
        if ver != STORE_VERSION as f64 {
            return Err(format!("unsupported store meta version {ver}"));
        }
        let ints = |key: &str| -> Result<Vec<usize>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("store meta missing {key:?}"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .filter(|&f| f >= 0.0 && f.fract() == 0.0)
                        .map(|f| f as usize)
                        .ok_or(format!("store meta {key:?} must hold non-negative integers"))
                })
                .collect()
        };
        let codec = CodecConfig::from_json(v.get("codec").ok_or("store meta missing \"codec\"")?)?;
        let cps =
            v.get("chunks_per_shard")
                .and_then(Value::as_f64)
                .filter(|&f| f >= 1.0 && f.fract() == 0.0)
                .ok_or("store meta missing a positive \"chunks_per_shard\"")? as usize;
        Ok(Self { dims: ints("dims")?, chunk: ints("chunk")?, codec, chunks_per_shard: cps })
    }
}

/// One read's outcome plus its deterministic I/O accounting.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The requested subregion, C order.
    pub values: Vec<f32>,
    /// Backend bytes fetched by this read.
    pub bytes_read: u64,
    /// Backend range requests issued by this read.
    pub backend_reads: u64,
    /// Chunks decoded.
    pub chunks_decoded: usize,
    /// Shards whose inner index was fetched.
    pub shards_touched: usize,
    /// Modeled backend seconds charged (object store model; 0 otherwise).
    pub modeled_io_seconds: f64,
    /// Modeled codec seconds charged by chunk decodes.
    pub modeled_codec_seconds: f64,
}

/// CRC-32 over the little-endian bit patterns of `values` — the digest
/// the determinism suite compares across thread counts, engines, and
/// pipeline paths. The bytes go through a stack buffer a chunk at a time,
/// so a digest allocates nothing.
pub fn value_digest(values: &[f32]) -> u32 {
    const CHUNK: usize = 1024;
    let mut crc = Crc32::new();
    let mut bytes = [0u8; 4 * CHUNK];
    for chunk in values.chunks(CHUNK) {
        for (b, v) in bytes.chunks_exact_mut(4).zip(chunk) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        crc.update(&bytes[..4 * chunk.len()]);
    }
    crc.finalize()
}

/// Map chunk extents to the 3D shape the codecs consume: rank 1–3 embed
/// naturally (leading axes = 1); higher ranks flatten to 1D.
pub fn shape3(extents: &[usize]) -> Shape {
    match extents.len() {
        1 => (1, 1, extents[0]),
        2 => (1, extents[0], extents[1]),
        3 => (extents[0], extents[1], extents[2]),
        _ => (1, 1, extents.iter().product()),
    }
}

/// A chunked, compressed n-D array behind a storage backend.
pub struct ArrayStore {
    backend: Box<dyn StorageBackend>,
    spec: StoreSpec,
    grid: ChunkGrid,
    codec: Box<dyn Codec>,
    /// Container offset of the archive region.
    arch_off: u64,
    /// The archive's top directory (shard offsets relative to `arch_off`).
    dir: ShardDirectory,
}

impl ArrayStore {
    /// Compress `data` into a new container on `backend` and open it.
    /// Chunks are encoded in chunk-id order (deterministic at any thread
    /// count — parallelism lives inside the codecs).
    pub fn create(
        mut backend: Box<dyn StorageBackend>,
        spec: StoreSpec,
        data: &[f32],
        device: DeviceSpec,
    ) -> Result<Self, StoreError> {
        Self::write(&mut backend, &spec, data, device)?;
        Self::open(backend, device)
    }

    /// Compress `data` into a new container on `backend`.
    /// [`ArrayStore::create`] does this, then opens the container.
    pub fn write(
        backend: &mut Box<dyn StorageBackend>,
        spec: &StoreSpec,
        data: &[f32],
        device: DeviceSpec,
    ) -> Result<(), StoreError> {
        let grid = ChunkGrid::new(spec.dims.clone(), spec.chunk.clone())
            .map_err(StoreError::BadRequest)?;
        if data.len() != grid.total_values() {
            return Err(StoreError::BadRequest(format!(
                "data has {} values but dims {:?} require {}",
                data.len(),
                spec.dims,
                grid.total_values()
            )));
        }
        if spec.chunks_per_shard == 0 {
            return Err(StoreError::BadRequest("chunks_per_shard must be positive".into()));
        }
        let mut codec = Registry::builtin().build(&spec.codec, device)?;
        let _root = fzgpu_trace::span("store.create")
            .field("chunks", grid.num_chunks())
            .field("codec", spec.codec.name());
        let mut chunks = Vec::with_capacity(grid.num_chunks());
        let mut meta = Vec::with_capacity(grid.num_chunks());
        for id in 0..grid.num_chunks() {
            let vals = grid.gather_chunk(data, id);
            let bytes = codec.encode(&vals, shape3(&grid.chunk_extents(id)))?;
            meta.push(ChunkMeta { n_values: vals.len(), crc: Some(crc32(&bytes)) });
            chunks.push(bytes);
        }
        let archive = Archive { total_values: data.len(), chunks, meta };
        let meta_json = spec.to_json();
        let mut out = Vec::new();
        out.extend_from_slice(&STORE_MAGIC);
        out.extend_from_slice(&STORE_VERSION.to_le_bytes());
        out.extend_from_slice(&(meta_json.len() as u64).to_le_bytes());
        out.extend_from_slice(meta_json.as_bytes());
        out.extend_from_slice(&archive.to_bytes_sharded(spec.chunks_per_shard));
        backend.write_all(&out)
    }

    /// Open an existing container. Fetches only the container header, meta
    /// JSON, and the archive's top directory — chunk payloads stay on the
    /// backend until read.
    pub fn open(
        mut backend: Box<dyn StorageBackend>,
        device: DeviceSpec,
    ) -> Result<Self, StoreError> {
        let hdr = backend.read_range(0, STORE_HEADER_BYTES)?;
        if hdr[..4] != STORE_MAGIC {
            return Err(StoreError::Corrupt("not a store container (bad magic)".into()));
        }
        let ver = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        if ver != STORE_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported store container version {ver} (this reader understands {STORE_VERSION})"
            )));
        }
        let meta_len = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let arch_off = STORE_HEADER_BYTES
            .checked_add(meta_len)
            .filter(|&end| end <= backend.len())
            .ok_or_else(|| StoreError::Corrupt("meta length exceeds container".into()))?;
        let meta_bytes = backend.read_range(STORE_HEADER_BYTES, meta_len)?;
        let meta_text = String::from_utf8(meta_bytes)
            .map_err(|_| StoreError::Corrupt("meta JSON is not UTF-8".into()))?;
        let spec = StoreSpec::from_json(&meta_text).map_err(StoreError::Corrupt)?;
        let grid =
            ChunkGrid::new(spec.dims.clone(), spec.chunk.clone()).map_err(StoreError::Corrupt)?;
        let codec = Registry::builtin().build(&spec.codec, device)?;

        // Fetch the top directory's head, then the rest of it; core parses
        // and CRC-checks it.
        let mut dir = backend.read_range(arch_off, V3_DIR_HEADER_BYTES as u64)?;
        let dir_len = match ShardDirectory::directory_len(&dir) {
            Err(FormatError::BadArchiveVersion(v @ (1 | 2))) => {
                return Err(StoreError::Corrupt(format!(
                    "unsupported archive version {v} (stores hold archive version 3)"
                )))
            }
            len => len?,
        };
        let tail_len = (dir_len - V3_DIR_HEADER_BYTES) as u64;
        dir.extend(backend.read_range(arch_off + V3_DIR_HEADER_BYTES as u64, tail_len)?);
        let dir = ShardDirectory::parse_directory(&dir)?;
        if (dir.byte_len as u64).checked_add(arch_off).is_none_or(|end| end > backend.len()) {
            return Err(StoreError::Corrupt("shard lengths exceed container".into()));
        }
        if dir.num_chunks != grid.num_chunks() {
            return Err(StoreError::Corrupt(format!(
                "archive holds {} chunks but the grid needs {}",
                dir.num_chunks,
                grid.num_chunks()
            )));
        }
        if dir.total_values != grid.total_values() {
            return Err(StoreError::Corrupt(format!(
                "archive holds {} values but dims {:?} require {}",
                dir.total_values,
                spec.dims,
                grid.total_values()
            )));
        }
        Ok(Self { backend, spec, grid, codec, arch_off, dir })
    }

    /// The store's spec (dims, chunking, codec, sharding).
    pub fn spec(&self) -> &StoreSpec {
        &self.spec
    }

    /// The chunk grid.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Total values in the field.
    pub fn total_values(&self) -> usize {
        self.dir.total_values
    }

    /// Container size in bytes.
    pub fn container_bytes(&self) -> u64 {
        self.backend.len()
    }

    /// Backend accounting since the backend was constructed.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.dir.shards.len()
    }

    /// Read the full field.
    pub fn read_full(&mut self) -> Result<ReadResult, StoreError> {
        self.read_region(&Region::full(&self.spec.dims.clone()))
    }

    /// Read an arbitrary subregion, touching only the shards and chunks
    /// it intersects.
    pub fn read_region(&mut self, region: &Region) -> Result<ReadResult, StoreError> {
        region.validate(&self.grid.dims).map_err(StoreError::BadRequest)?;
        let _root = fzgpu_trace::span("store.read")
            .field("values", region.count())
            .field("codec", self.spec.codec.name());
        let Self { backend, grid, codec, arch_off, dir, .. } = self;
        let before = backend.stats();
        let ids = grid.chunks_intersecting(region);
        let mut out = vec![0.0f32; region.count()];
        let mut codec_seconds = 0.0f64;
        let mut shards_touched = 0usize;
        let mut i = 0usize;
        while i < ids.len() {
            // The shard holding ids[i] (first chunks ascending).
            let s = dir.shards.partition_point(|e| e.first_chunk <= ids[i]) - 1;
            let shard = dir.shards[s];
            let shard_off = *arch_off + shard.offset as u64;
            let idx_len = ChunkEntry::index_len(shard.nchunks)?;
            let index = ChunkEntry::parse_index(&backend.read_range(shard_off, idx_len as u64)?)?;
            shards_touched += 1;
            if index.len() != shard.nchunks {
                return Err(StoreError::Corrupt(format!(
                    "shard {s} index declares {} chunks, directory says {}",
                    index.len(),
                    shard.nchunks
                )));
            }
            // Every requested chunk living in this shard.
            while i < ids.len() && ids[i] < shard.first_chunk + shard.nchunks {
                let id = ids[i];
                let c = index[id - shard.first_chunk];
                if c.offset + c.len > shard.len {
                    return Err(StoreError::Corrupt(format!("chunk {id} extends past its shard")));
                }
                let bytes = backend.read_range(shard_off + c.offset as u64, c.len as u64)?;
                if Some(crc32(&bytes)) != c.meta.crc {
                    return Err(StoreError::Corrupt(format!("chunk {id} CRC mismatch")));
                }
                codec_seconds += decode_into(grid, codec.as_mut(), id, &bytes, region, &mut out)?;
                i += 1;
            }
        }
        let after = self.backend.stats();
        counter_add(Class::Det, "fzgpu_store_reads_total", &[], 1);
        counter_add(Class::Det, "fzgpu_store_chunks_decoded_total", &[], ids.len() as u64);
        counter_add(Class::Det, "fzgpu_store_shards_touched_total", &[], shards_touched as u64);
        counter_add(Class::Det, "fzgpu_store_values_read_total", &[], out.len() as u64);
        Ok(ReadResult {
            values: out,
            bytes_read: after.bytes_read - before.bytes_read,
            backend_reads: after.reads - before.reads,
            chunks_decoded: ids.len(),
            shards_touched,
            modeled_io_seconds: after.modeled_seconds - before.modeled_seconds,
            modeled_codec_seconds: codec_seconds,
        })
    }
}

/// Decode chunk `id` and scatter its intersection with `region` into
/// `out`. Returns the codec's modeled seconds for the decode.
fn decode_into(
    grid: &ChunkGrid,
    codec: &mut dyn Codec,
    id: usize,
    bytes: &[u8],
    region: &Region,
    out: &mut [f32],
) -> Result<f64, StoreError> {
    let bx = grid.chunk_box(id);
    let extents = bx.extents();
    let vals = codec.decode(bytes, shape3(&extents))?;
    let inter = bx
        .intersect(region)
        .ok_or_else(|| StoreError::Corrupt(format!("chunk {id} does not intersect request")))?;
    copy_region(&vals, &extents, &bx.lo, out, &region.extents(), &region.lo, &inter);
    Ok(codec.modeled_seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 10.0).collect()
    }

    fn mem_store(codec: CodecConfig) -> (ArrayStore, Vec<f32>) {
        let dims = vec![8, 9, 10];
        let data = wave(8 * 9 * 10);
        let spec = StoreSpec { dims, chunk: vec![4, 4, 4], codec, chunks_per_shard: 3 };
        let store =
            ArrayStore::create(Box::new(MemBackend::new()), spec, &data, fzgpu_sim::device::A100)
                .unwrap();
        (store, data)
    }

    #[test]
    fn roundtrip_full_and_partial_reads() {
        let (mut store, data) = mem_store(CodecConfig::Raw);
        let full = store.read_full().unwrap();
        assert_eq!(full.values, data);
        assert_eq!(full.chunks_decoded, store.grid().num_chunks());
        let r = Region { lo: vec![1, 2, 3], hi: vec![5, 7, 9] };
        let part = store.read_region(&r).unwrap();
        assert_eq!(part.values, store.grid().extract(&data, &r));
        assert!(part.chunks_decoded < full.chunks_decoded);
        assert!(
            part.bytes_read < full.bytes_read,
            "partial read fetched {} bytes, full read {}",
            part.bytes_read,
            full.bytes_read
        );
    }

    #[test]
    fn lossy_codec_respects_bound_on_partial_read() {
        let eb = 1e-3;
        let (mut store, data) = mem_store(CodecConfig::Fz { eb_abs: eb });
        let r = Region { lo: vec![0, 3, 2], hi: vec![8, 6, 10] };
        let got = store.read_region(&r).unwrap().values;
        let want = store.grid().extract(&data, &r);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= eb as f32 * 1.05, "{g} vs {w}");
        }
    }

    #[test]
    fn value_digest_is_the_crc_of_the_little_endian_bytes() {
        for n in [0, 1, 1023, 1024, 1025, 5000] {
            let vals = wave(n);
            let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(value_digest(&vals), crc32(&bytes), "{n} values");
        }
    }

    #[test]
    fn digests_are_stable_across_reopen() {
        let (mut store, _) = mem_store(CodecConfig::Raw);
        let r = Region { lo: vec![2, 0, 1], hi: vec![6, 9, 7] };
        let d1 = value_digest(&store.read_region(&r).unwrap().values);
        let bytes = store.backend.read_range(0, store.container_bytes()).unwrap();
        let mut reopened =
            ArrayStore::open(Box::new(MemBackend::from_bytes(bytes)), fzgpu_sim::device::A100)
                .unwrap();
        let d2 = value_digest(&reopened.read_region(&r).unwrap().values);
        assert_eq!(d1, d2);
    }

    #[test]
    fn flat_archives_are_refused_by_version() {
        // The same container with its archive rewritten in the v2 layout.
        let (mut store, _) = mem_store(CodecConfig::Raw);
        let bytes = store.backend.read_range(0, store.container_bytes()).unwrap();
        let arch_off = 16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut flat = bytes[..arch_off].to_vec();
        flat.extend_from_slice(&Archive::from_bytes(&bytes[arch_off..]).unwrap().to_bytes());
        let err = ArrayStore::open(Box::new(MemBackend::from_bytes(flat)), fzgpu_sim::device::A100)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt store: unsupported archive version 2 (stores hold archive version 3)"
        );
    }

    #[test]
    fn bad_requests_and_bad_containers_error() {
        let (mut store, _) = mem_store(CodecConfig::Raw);
        // OOB region.
        let err = store.read_region(&Region { lo: vec![0, 0, 0], hi: vec![9, 9, 10] }).unwrap_err();
        assert!(matches!(err, StoreError::BadRequest(_)), "{err}");
        // Rank mismatch.
        let err = store.read_region(&Region { lo: vec![0], hi: vec![8] }).unwrap_err();
        assert!(matches!(err, StoreError::BadRequest(_)), "{err}");
        // Not a container.
        let err = ArrayStore::open(
            Box::new(MemBackend::from_bytes(b"not a store at all".to_vec())),
            fzgpu_sim::device::A100,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // A meta JSON naming a codec this build does not have.
        let bytes = store.backend.read_range(0, store.container_bytes()).unwrap();
        let meta_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let meta = std::str::from_utf8(&bytes[16..16 + meta_len])
            .unwrap()
            .replace("\"codec\":\"raw\"", "\"codec\":\"wavelet\"");
        let mut unknown = bytes[..8].to_vec();
        unknown.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        unknown.extend_from_slice(meta.as_bytes());
        unknown.extend_from_slice(&bytes[16 + meta_len..]);
        let err =
            ArrayStore::open(Box::new(MemBackend::from_bytes(unknown)), fzgpu_sim::device::A100)
                .map(|_| ())
                .unwrap_err();
        assert!(err.to_string().contains("\"wavelet\""), "{err}");
        // Dims whose value count wraps to 0 (2^62 x 4) over a v3 archive of
        // 0 values in one empty chunk: the counts agree modulo 2^64, so only
        // a checked product tells them apart.
        let huge = vec![1usize << 62, 4];
        let spec = StoreSpec {
            dims: huge.clone(),
            chunk: huge,
            codec: CodecConfig::Raw,
            chunks_per_shard: 1,
        };
        let meta = vec![ChunkMeta { n_values: 0, crc: Some(crc32(&[])) }];
        let archive = Archive { total_values: 0, chunks: vec![Vec::new()], meta };
        let archive = archive.to_bytes_sharded(1);
        let meta = spec.to_json();
        let mut wrapped = bytes[..8].to_vec();
        wrapped.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        wrapped.extend_from_slice(meta.as_bytes());
        wrapped.extend_from_slice(&archive);
        let err =
            ArrayStore::open(Box::new(MemBackend::from_bytes(wrapped)), fzgpu_sim::device::A100)
                .map(|_| ())
                .unwrap_err();
        assert!(err.to_string().contains("more values than usize can count"), "{err}");
        // Data/dims mismatch at create.
        let err = ArrayStore::create(
            Box::new(MemBackend::new()),
            StoreSpec {
                dims: vec![10],
                chunk: vec![4],
                codec: CodecConfig::Raw,
                chunks_per_shard: 1,
            },
            &[1.0, 2.0],
            fzgpu_sim::device::A100,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, StoreError::BadRequest(_)), "{err}");
    }

    #[test]
    fn corrupt_shard_index_is_error_never_wrong_data() {
        let (mut store, data) = mem_store(CodecConfig::Raw);
        let n = store.container_bytes();
        let bytes = store.backend.read_range(0, n).unwrap();
        let r = Region { lo: vec![0, 0, 0], hi: vec![4, 4, 4] };
        let want = store.grid().extract(&data, &r);
        // Flip one byte at every offset in the archive region; each read
        // must either fail or return exactly the right values.
        for at in (16..bytes.len()).step_by(97) {
            let mut evil = bytes.clone();
            evil[at] ^= 0x40;
            let opened =
                ArrayStore::open(Box::new(MemBackend::from_bytes(evil)), fzgpu_sim::device::A100);
            let Ok(mut s) = opened else { continue };
            if let Ok(res) = s.read_region(&r) {
                assert_eq!(res.values, want, "byte {at} corrupted silently");
            }
        }
    }

    #[test]
    fn shard_chunk_counts_that_wrap_to_the_grid_are_an_error() {
        // 18 chunks in 6 shards of 3. Rewrite shards 0 and 1 to claim
        // 3 + 2^63 chunks each: the counts still sum to 18 modulo 2^64,
        // so only checked arithmetic can tell. Re-seal the directory CRC.
        let (mut store, _) = mem_store(CodecConfig::Raw);
        let mut bytes = store.backend.read_range(0, store.container_bytes()).unwrap();
        let arch_off = 16 + u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let entry = |i: usize| arch_off + V3_DIR_HEADER_BYTES + 20 * i;
        for i in 0..2 {
            bytes[entry(i) + 8..entry(i) + 16].copy_from_slice(&(3 + (1u64 << 63)).to_le_bytes());
        }
        let dir_end = entry(store.num_shards());
        let crc = crc32(&bytes[arch_off..dir_end]);
        bytes[dir_end..dir_end + 4].copy_from_slice(&crc.to_le_bytes());
        let opened =
            ArrayStore::open(Box::new(MemBackend::from_bytes(bytes)), fzgpu_sim::device::A100);
        assert!(opened.is_err(), "wrapped shard chunk counts must not open");
    }
}
