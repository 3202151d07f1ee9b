//! Store subsystem contract: partial decode is *partial* (bytes-read
//! scales with the request), subregion reads are exact, a container
//! holding a v1 or v2 archive is refused by version, corrupt shard indices
//! can never produce wrong data, and store digests are bit-identical
//! across host thread counts, simulation engines, and pipeline paths.

use fz_gpu::core::{crc32, Archive};
use fz_gpu::serve::{run_store_reads, StoreReadWorkload};
use fz_gpu::sim::device::A100;
use fz_gpu::store::{
    backend_from_cli, value_digest, ArrayStore, ChunkGrid, CodecConfig, MemBackend, Region,
    StoreSpec, STORE_MAGIC, STORE_VERSION,
};
use proptest::prelude::*;

fn wave(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.013).sin() * 3.0 + (i as f32 * 0.0041).cos()).collect()
}

fn mem_store(spec: StoreSpec, data: &[f32]) -> ArrayStore {
    let backend = backend_from_cli("mem", None).expect("mem backend");
    ArrayStore::create(backend, spec, data, A100).expect("create store")
}

/// Container bytes as `ArrayStore::write` puts them into a fresh mem backend.
fn container_bytes(spec: &StoreSpec, data: &[f32]) -> Vec<u8> {
    let mut backend = backend_from_cli("mem", None).expect("mem backend");
    ArrayStore::write(&mut backend, spec, data, A100).expect("create store");
    backend.read_range(0, backend.len()).expect("read container back")
}

/// Wrap pre-built archive bytes in a store container for `spec`.
fn container_around(spec: &StoreSpec, archive_bytes: &[u8]) -> Vec<u8> {
    let meta_json = spec.to_json();
    let mut out = Vec::new();
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(meta_json.len() as u64).to_le_bytes());
    out.extend_from_slice(meta_json.as_bytes());
    out.extend_from_slice(archive_bytes);
    out
}

// ---------------------------------------------------------------------------
// Partial decode scales with the request

#[test]
fn bytes_read_scales_with_the_requested_region() {
    let dims = vec![16usize, 16, 16];
    let data = wave(16 * 16 * 16);
    let spec = StoreSpec {
        dims: dims.clone(),
        chunk: vec![4, 4, 4],
        codec: CodecConfig::Fz { eb_abs: 1e-3 },
        chunks_per_shard: 8,
    };
    let mut store = mem_store(spec, &data);

    // Chunk-aligned prefixes of growing size: bytes served must be
    // strictly monotone, and every partial read strictly below full.
    let mut last = 0u64;
    for frac in [4usize, 8, 12, 16] {
        let region = Region { lo: vec![0; 3], hi: dims.iter().map(|&d| d * frac / 16).collect() };
        let r = store.read_region(&region).unwrap();
        assert!(
            r.bytes_read > last,
            "bytes served did not grow with the region ({} -> {} at {frac}/16)",
            last,
            r.bytes_read,
        );
        last = r.bytes_read;
        assert_eq!(r.values.len(), region.count());
    }
    let full = store.read_full().unwrap();
    let one_chunk = store.read_region(&Region { lo: vec![0; 3], hi: vec![4, 4, 4] }).unwrap();
    assert!(one_chunk.bytes_read < full.bytes_read / 8, "single-chunk read is not cheap");
    assert_eq!(one_chunk.chunks_decoded, 1);
    assert_eq!(one_chunk.shards_touched, 1);
}

#[test]
fn det_metrics_account_partial_reads() {
    let data = wave(1000);
    let spec = StoreSpec {
        dims: vec![10, 10, 10],
        chunk: vec![5, 5, 5],
        codec: CodecConfig::Raw,
        chunks_per_shard: 2,
    };
    use fz_gpu::trace::metrics::counter_value;
    let mut store = mem_store(spec, &data);
    let snap = || {
        [
            counter_value("fzgpu_store_reads_total", &[]),
            counter_value("fzgpu_store_chunks_decoded_total", &[]),
            counter_value("fzgpu_store_shards_touched_total", &[]),
            counter_value("fzgpu_store_values_read_total", &[]),
            counter_value("fzgpu_store_bytes_read_total", &[("backend", "mem")]),
        ]
    };
    let before = snap();
    let r = store.read_region(&Region { lo: vec![0; 3], hi: vec![5, 5, 5] }).unwrap();
    let after = snap();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(delta[0], 1, "one read recorded");
    assert_eq!(delta[1], 1, "one chunk decoded");
    assert_eq!(delta[2], 1, "one shard touched");
    assert_eq!(delta[3], 125, "values served");
    assert_eq!(delta[4], r.bytes_read, "backend bytes accounted in the Det registry");
}

// ---------------------------------------------------------------------------
// Archive versions: a store holds v3, and a v1 or v2 archive is refused by
// name

#[test]
fn v1_v2_containers_are_refused_by_version() {
    let data = wave(12 * 18);
    let spec = StoreSpec {
        dims: vec![12, 18],
        chunk: vec![4, 6],
        codec: CodecConfig::Fz { eb_abs: 1e-3 },
        chunks_per_shard: 3,
    };

    // v3: what `create` writes.
    let v3 = container_bytes(&spec, &data);
    let arch_off = 16 + u64::from_le_bytes(v3[8..16].try_into().unwrap()) as usize;
    let mut store =
        ArrayStore::open(Box::new(MemBackend::from_bytes(v3.clone())), A100).expect("open");
    assert!(store.num_shards() > 1, "v3 container should be sharded");
    assert_eq!(store.read_full().unwrap().values.len(), data.len());

    // The same chunks as a flat v2 archive, and behind a v1 directory
    // (8-byte entries, no checksums anywhere).
    let archive = Archive::from_bytes(&v3[arch_off..]).unwrap();
    let v2 = container_around(&spec, &archive.to_bytes());
    let mut v1_arch = Vec::new();
    v1_arch.extend_from_slice(b"FZAR");
    v1_arch.extend_from_slice(&1u32.to_le_bytes());
    v1_arch.extend_from_slice(&(archive.total_values as u64).to_le_bytes());
    v1_arch.extend_from_slice(&(archive.chunks.len() as u64).to_le_bytes());
    for c in &archive.chunks {
        v1_arch.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for c in &archive.chunks {
        v1_arch.extend_from_slice(c);
    }
    let v1 = container_around(&spec, &v1_arch);

    for (version, bytes) in [(2, v2), (1, v1)] {
        let err = ArrayStore::open(Box::new(MemBackend::from_bytes(bytes)), A100)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "corrupt store: unsupported archive version {version} \
                 (stores hold archive version 3)"
            )
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism: digests across thread counts, engines, and pipeline paths

/// The pool and env are process-global; sweeping tests must not
/// interleave.
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn store_digests_are_invariant_across_threads_engines_and_paths() {
    let _guard = serialized();
    let dims = vec![8usize, 12, 10];
    let data = wave(8 * 12 * 10);
    let spec = StoreSpec {
        dims: dims.clone(),
        chunk: vec![4, 4, 5],
        codec: CodecConfig::Fz { eb_abs: 1e-3 },
        chunks_per_shard: 4,
    };
    let region = Region { lo: vec![1, 2, 0], hi: vec![7, 11, 9] };

    let mut reference: Option<(Vec<u8>, u32, u32)> = None;
    for threads in [1usize, 4, 3] {
        for engine in ["interp", "analytic"] {
            for path in ["sim", "native"] {
                rayon::set_num_threads(threads);
                std::env::set_var("FZGPU_SIM_ENGINE", engine);
                std::env::set_var("FZGPU_NATIVE", if path == "native" { "1" } else { "0" });
                let bytes = container_bytes(&spec, &data);
                let mut store =
                    ArrayStore::open(Box::new(MemBackend::from_bytes(bytes.clone())), A100)
                        .unwrap();
                let full = value_digest(&store.read_full().unwrap().values);
                let part = value_digest(&store.read_region(&region).unwrap().values);
                let got = (bytes, full, part);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        want, &got,
                        "container or digests diverged at {threads} threads, \
                         engine {engine}, path {path}"
                    ),
                }
            }
        }
    }
    std::env::remove_var("FZGPU_SIM_ENGINE");
    std::env::remove_var("FZGPU_NATIVE");
    rayon::set_num_threads(1);
}

/// CRC-32 of the container bytes for three codecs (`fz`, `cuzfp`, `raw`
/// cover every `CodecConfig` JSON shape the meta can hold) and of the
/// seeded store-read report's JSON over the `fz` container. The container
/// embeds `StoreSpec::to_json`, so these pin the meta JSON byte for byte.
const CONTAINER_CRCS: [u32; 3] = [0x992a_854b, 0x7663_8664, 0xd3c5_c19c];
const STORE_READ_REPORT_CRC: u32 = 0x38c8_12b7;

/// CRC-32 of the container bytes for every built-in codec, on a 16x32x32
/// field in 8x16x16 chunks (a chunk shape every codec can encode: SZ-OMP
/// needs 3-D chunks and MGARD needs chunks it can shrink).
const EVERY_CODEC_CRCS: [(&str, u32); 12] = [
    ("fz", 0x2955_c7b2),
    ("cusz", 0x6245_08d5),
    ("cusz-rle", 0xd65f_5898),
    ("cuszx", 0x46fb_ddf5),
    ("cuzfp", 0xe7fe_ef29),
    ("mgard", 0x6697_5325),
    ("sz-omp", 0x4a30_5c3f),
    ("huffman", 0x47aa_a5aa),
    ("rle", 0x395e_296d),
    ("lz77", 0x04bd_d7d2),
    ("deflate", 0x6030_b90c),
    ("raw", 0x5210_cdab),
];

#[test]
fn container_and_read_report_bytes_are_pinned() {
    let _guard = serialized();
    // The codecs resolve path and engine from the environment; pin both.
    std::env::set_var("FZGPU_SIM_ENGINE", "analytic");
    std::env::set_var("FZGPU_NATIVE", "0");
    let dims = vec![8usize, 12, 10];
    let data = wave(8 * 12 * 10);
    let codecs =
        [CodecConfig::Fz { eb_abs: 1e-3 }, CodecConfig::CuZfp { rate: 8.0 }, CodecConfig::Raw];
    let mut got = [0u32; 3];
    let mut containers = Vec::new();
    for (i, codec) in codecs.into_iter().enumerate() {
        let spec =
            StoreSpec { dims: dims.clone(), chunk: vec![4, 4, 5], codec, chunks_per_shard: 4 };
        let bytes = container_bytes(&spec, &data);
        got[i] = crc32(&bytes);
        containers.push(bytes);
    }
    let mut store =
        ArrayStore::open(Box::new(MemBackend::from_bytes(containers.swap_remove(0))), A100)
            .unwrap();
    let report = run_store_reads(&mut store, &StoreReadWorkload::default()).unwrap();
    let report_crc = crc32(report.to_json().as_bytes());

    let data = wave(16 * 32 * 32);
    let every: Vec<(&str, u32)> = EVERY_CODEC_CRCS
        .iter()
        .map(|&(name, _)| {
            let eb = if name == "mgard" { 1e-2 } else { 1e-3 };
            let codec = CodecConfig::from_cli(name, Some(eb), Some(8.0)).unwrap();
            let spec = StoreSpec {
                dims: vec![16, 32, 32],
                chunk: vec![8, 16, 16],
                codec,
                chunks_per_shard: 4,
            };
            (name, crc32(&container_bytes(&spec, &data)))
        })
        .collect();
    std::env::remove_var("FZGPU_SIM_ENGINE");
    std::env::remove_var("FZGPU_NATIVE");
    assert_eq!(got, CONTAINER_CRCS, "container bytes drifted: got {got:08x?}");
    assert_eq!(
        report_crc, STORE_READ_REPORT_CRC,
        "store-read report JSON drifted: got 0x{report_crc:08x}"
    );
    assert_eq!(every, EVERY_CODEC_CRCS, "container bytes drifted: got {every:#010x?}");
}

// ---------------------------------------------------------------------------
// Property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any subregion of any (small) grid, any chunking: a lossless store
    /// read returns exactly `grid.extract` of the original data.
    #[test]
    fn subregion_reads_are_exact(
        dims in proptest::collection::vec(1usize..10, 1..=3),
        chunk_seed in any::<u64>(),
        region_seed in any::<u64>(),
    ) {
        let n: usize = dims.iter().product();
        let data = wave(n);
        let mut s = chunk_seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let chunk: Vec<usize> = dims.iter().map(|&d| 1 + next() % d).collect();
        let mut s2 = region_seed;
        let mut next2 = || {
            s2 = s2.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s2 >> 33) as usize
        };
        let lo: Vec<usize> = dims.iter().map(|&d| next2() % d).collect();
        let hi: Vec<usize> =
            lo.iter().zip(&dims).map(|(&l, &d)| l + 1 + next2() % (d - l)).collect();
        let region = Region { lo, hi };

        let spec = StoreSpec {
            dims: dims.clone(),
            chunk,
            codec: CodecConfig::Raw,
            chunks_per_shard: 1 + next() % 5,
        };
        let grid = ChunkGrid::new(spec.dims.clone(), spec.chunk.clone()).unwrap();
        let mut store = mem_store(spec, &data);
        let got = store.read_region(&region).unwrap();
        let want = grid.extract(&data, &region);
        prop_assert_eq!(got.values.len(), want.len());
        for (i, (a, b)) in got.values.iter().zip(&want).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "value {} differs", i);
        }
    }

    /// Flipping any container byte yields a typed error or data
    /// bit-identical to the clean read — never silently wrong values.
    /// This covers the top directory, the per-shard indices, and the
    /// chunk payloads alike.
    #[test]
    fn corrupt_containers_error_or_read_exact(
        pos in 0usize..60_000,
        flip in 1u8..=255,
    ) {
        let dims = vec![10usize, 12, 8];
        let data = wave(10 * 12 * 8);
        let spec = StoreSpec {
            dims: dims.clone(),
            chunk: vec![5, 4, 4],
            codec: CodecConfig::Fz { eb_abs: 1e-3 },
            chunks_per_shard: 3,
        };
        let clean = container_bytes(&spec, &data);
        let mut reference_store =
            ArrayStore::open(Box::new(MemBackend::from_bytes(clean.clone())), A100).unwrap();
        let region = Region { lo: vec![2, 1, 0], hi: vec![9, 10, 7] };
        let want_full = reference_store.read_full().unwrap().values;
        let want_part = reference_store.read_region(&region).unwrap().values;

        prop_assume!(pos < clean.len());
        let mut bytes = clean;
        bytes[pos] ^= flip;
        let opened = ArrayStore::open(Box::new(MemBackend::from_bytes(bytes)), A100);
        if let Ok(mut store) = opened {
            for (r, want) in [(Region::full(&dims), &want_full), (region, &want_part)] {
                if let Ok(got) = store.read_region(&r) {
                    prop_assert_eq!(got.values.len(), want.len(), "flip at {} changed geometry", pos);
                    for (i, (a, b)) in got.values.iter().zip(want).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "flip at {} read wrong data at value {}",
                            pos,
                            i
                        );
                    }
                }
            }
        }
    }
}
