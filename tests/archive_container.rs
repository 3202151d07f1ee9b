//! Archive container bytes and CRC accounting: the v2 and v3 writers are
//! pinned byte for byte, and a failed CRC on any of the three chunk tables
//! (v2 directory, v3 top directory, v3 shard index) or on a v3 shard is
//! counted on `fzgpu_core_crc_failures_total`. The counter is process-global, so
//! these tests live in a binary of their own where nothing else corrupts
//! a table.

use fz_gpu::core::{crc32, Archive, ChecksumSection, ErrorBound, FormatError, FzGpu};
use fz_gpu::sim::device::A100;
use fz_gpu::trace::metrics::counter_value;

/// A 10-chunk archive of one fixed field: v3 at 4 chunks per shard holds
/// shards of 4, 4 and 2 chunks.
fn archive() -> Archive {
    let data: Vec<f32> =
        (0..10_000).map(|i| (i as f32 * 0.003).sin() * 5.0 + (i as f32 * 0.0007).cos()).collect();
    Archive::compress(&mut FzGpu::new(A100), &data, 1000, ErrorBound::Abs(1e-3))
}

/// The same chunks behind a v1 directory: 8-byte entries, no CRCs.
fn v1_bytes(a: &Archive) -> Vec<u8> {
    let mut v1 = b"FZAR".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(a.total_values as u64).to_le_bytes());
    v1.extend_from_slice(&(a.chunks.len() as u64).to_le_bytes());
    for c in &a.chunks {
        v1.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for c in &a.chunks {
        v1.extend_from_slice(c);
    }
    v1
}

/// CRC-32 of `Archive::to_bytes` (v2), of `to_bytes_sharded(4)` (v3), and
/// of `to_bytes_sharded(4)` on a copy parsed from v1 bytes, whose chunk
/// metadata carries no CRCs for the writer to copy.
const PINNED_CRCS: [u32; 3] = [0xcb30_117a, 0x54a8_83d7, 0x54a8_83d7];

#[test]
fn archive_bytes_are_pinned() {
    let a = archive();
    let from_v1 = Archive::from_bytes(&v1_bytes(&a)).unwrap();
    assert!(from_v1.meta.iter().all(|m| m.crc.is_none()));
    let got =
        [crc32(&a.to_bytes()), crc32(&a.to_bytes_sharded(4)), crc32(&from_v1.to_bytes_sharded(4))];
    assert_eq!(got, PINNED_CRCS, "archive bytes drifted: got {got:#010x?}");
}

fn directory_failures() -> u64 {
    counter_value("fzgpu_core_crc_failures_total", &[("section", "directory")])
}

/// Rewrite the CRC-32 stored in the four bytes at `at` to cover `span`.
fn reseal(bytes: &mut [u8], span: std::ops::Range<usize>, at: usize) {
    let crc = crc32(&bytes[span]);
    bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn every_chunk_table_counts_its_crc_failures() {
    let a = archive();
    let bad_directory = FormatError::ChecksumMismatch { section: ChecksumSection::Directory };
    let expect_one_failure = |bytes: &[u8], table: &str| {
        let before = directory_failures();
        assert_eq!(Archive::from_bytes(bytes).unwrap_err(), bad_directory, "{table}");
        assert_eq!(directory_failures() - before, 1, "{table} CRC failure not counted");
    };

    // v2 directory: one chunk-length byte of entry 0.
    let mut v2 = a.to_bytes();
    v2[25] ^= 0x04;
    expect_one_failure(&v2, "v2 directory");

    // v3 top directory: the same byte of shard entry 0.
    let v3 = a.to_bytes_sharded(4);
    let mut top = v3.clone();
    top[25] ^= 0x04;
    expect_one_failure(&top, "v3 top directory");

    // v3 shard index: flip a byte of shard 0's first chunk entry, then
    // reseal the shard CRC in the top directory and the directory CRC, so
    // the index CRC is the first gate that fails.
    let (nshards, dir_end) = (3, 24 + 3 * 20 + 4);
    let shard0_len = u64::from_le_bytes(v3[24..32].try_into().unwrap()) as usize;
    let mut index = v3;
    index[dir_end + 8 + 2] ^= 0x10;
    reseal(&mut index, dir_end..dir_end + shard0_len, 24 + 16);
    reseal(&mut index, 0..24 + nshards * 20, 24 + nshards * 20);
    expect_one_failure(&index, "v3 shard index");
}

#[test]
fn a_failed_shard_crc_counts_as_the_shard_and_costs_one_chunk() {
    // One flipped byte in the last chunk's body: the v3 shard CRC fails
    // and is counted under `section="shard"`, the shard's own index still
    // places every chunk, and the chunk's CRC condemns it alone.
    let a = archive();
    let mut v3 = a.to_bytes_sharded(4);
    let last = v3.len() - 1;
    v3[last] ^= 0x80;
    let shard = || counter_value("fzgpu_core_crc_failures_total", &[("section", "shard")]);
    let before = shard();
    let parsed = Archive::from_bytes(&v3).expect("the shard's index is intact");
    assert_eq!(shard() - before, 1, "shard CRC failure not counted as a shard");
    assert_eq!(parsed.chunks.len(), 10);
    let report = parsed.scrub();
    assert_eq!(report.corrupt_count(), 1);
    assert!(!report.chunks[9].is_usable() && report.chunks[..9].iter().all(|h| h.is_usable()));
    assert_eq!(
        FormatError::ChecksumMismatch { section: ChecksumSection::Shard(2) }.to_string(),
        "checksum mismatch in shard 2"
    );
}
