//! Archive-level robustness: hostile bytes must never panic the parser,
//! corruption must be localized to the chunk it hits, and degraded-mode
//! extraction must recover everything the corruption did not touch. The
//! serialization properties hold for both layouts, v2 and sharded v3.

use fz_gpu::core::{Archive, ChunkHealth, ErrorBound, FillPolicy, FzGpu};
use fz_gpu::sim::device::A100;
use proptest::prelude::*;

fn field(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.004).sin() * 4.0 + (i as f32 * 0.0003).cos()).collect()
}

fn small_archive() -> (Vec<f32>, Archive) {
    let data = field(8192);
    let mut fz = FzGpu::new(A100);
    let a = Archive::compress(&mut fz, &data, 2048, ErrorBound::Abs(1e-3));
    (data, a)
}

/// Both serializations of `a`: v2, and v3 in two shards of two chunks.
fn layouts(a: &Archive) -> [Vec<u8>; 2] {
    [a.to_bytes(), a.to_bytes_sharded(2)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_archive_bytes_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..768)) {
        let _ = Archive::from_bytes(&junk); // Err or Ok — never a panic
    }

    #[test]
    fn magic_prefixed_junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..768)) {
        // Force the parser past the magic check into directory parsing,
        // and past the version word into each version's parser.
        let mut bytes = b"FZAR".to_vec();
        bytes.extend(&junk);
        let _ = Archive::from_bytes(&bytes);
        for version in 1u32..=3 {
            let mut bytes = b"FZAR".to_vec();
            bytes.extend(version.to_le_bytes());
            bytes.extend(&junk);
            let _ = Archive::from_bytes(&bytes);
        }
    }

    #[test]
    fn flipped_bytes_yield_error_or_exact_data(
        pos in 0usize..20_000,
        flip in 1u8..=255,
    ) {
        // Both layouts CRC-cover every byte (table checksums + per chunk
        // stream checksums, and v3's whole-shard checksums), so a strict
        // decode of a flipped archive has exactly two legal outcomes: a
        // typed error somewhere on the path, or — if the flip landed where
        // it cannot matter — output bit-identical to the uncorrupted
        // original. Wrong data is never acceptable.
        let (_, a) = small_archive();
        let mut fz = FzGpu::new(A100);
        let reference = a.decompress(&mut fz).expect("clean archive decodes");
        for mut bytes in layouts(&a) {
            if pos >= bytes.len() {
                continue;
            }
            bytes[pos] ^= flip;
            if let Ok(parsed) = Archive::from_bytes(&bytes) {
                if let Ok(out) = parsed.decompress(&mut fz) {
                    prop_assert_eq!(out.len(), reference.len(), "flip at {} changed geometry", pos);
                    for (i, (x, y)) in out.iter().zip(&reference).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "flip at {} decoded to wrong data at value {}",
                            pos,
                            i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_archives_are_rejected(
        cut_back in 1usize..30_000,
    ) {
        // Random truncation points (the exhaustive loop below covers a
        // small archive; this samples a larger one cheaply).
        let (_, a) = small_archive();
        for bytes in layouts(&a) {
            if cut_back > bytes.len() {
                continue;
            }
            let cut = bytes.len() - cut_back;
            prop_assert!(
                Archive::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {} accepted",
                cut
            );
        }
    }

    #[test]
    fn corrupted_serialized_archives_never_panic(
        pos in 0usize..20_000,
        flip in 1u8..=255,
    ) {
        let (_, a) = small_archive();
        for mut bytes in layouts(&a) {
            if pos >= bytes.len() {
                continue;
            }
            bytes[pos] ^= flip;
            // Parse + scrub + degraded decode: the full recovery path must
            // be total. Values may legitimately decode when only padding
            // moved, but nothing may panic.
            if let Ok(parsed) = Archive::from_bytes(&bytes) {
                let mut fz = FzGpu::new(A100);
                let out = parsed.decompress_degraded(&mut fz, FillPolicy::Zero);
                prop_assert_eq!(out.data.len(), parsed.total_values);
            }
        }
    }
}

#[test]
fn every_truncation_point_is_rejected() {
    let (_, a) = small_archive();
    for bytes in layouts(&a) {
        for cut in 0..bytes.len() {
            assert!(Archive::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
        assert!(Archive::from_bytes(&bytes).is_ok());
    }
}

#[test]
fn corruption_is_localized_to_one_chunk() {
    // Corrupt each chunk in turn (through full serialize/parse): scrub
    // must indict exactly that chunk and the others must decode bit-exact.
    let (data, a) = small_archive();
    let clean = a.to_bytes();
    let mut fz = FzGpu::new(A100);
    let reference: Vec<Vec<f32>> =
        (0..a.chunks.len()).map(|i| a.decompress_chunk(&mut fz, i).unwrap()).collect();
    // Chunk byte ranges within the serialized archive.
    let dir_end = clean.len() - a.chunks.iter().map(Vec::len).sum::<usize>();
    let mut starts = vec![dir_end];
    for c in &a.chunks {
        starts.push(starts.last().unwrap() + c.len());
    }
    for victim in 0..a.chunks.len() {
        let mut bytes = clean.clone();
        bytes[starts[victim] + a.chunks[victim].len() / 2] ^= 0x20;
        let parsed = Archive::from_bytes(&bytes).expect("directory is intact");
        let report = parsed.scrub();
        assert_eq!(report.corrupt_count(), 1, "victim {victim}");
        assert!(!report.chunks[victim].is_usable(), "victim {victim} not flagged");
        let out = parsed.decompress_degraded(&mut fz, FillPolicy::NaN);
        assert_eq!(out.data.len(), data.len());
        assert_eq!(out.filled_values, parsed.meta[victim].n_values);
        let mut at = 0;
        for (i, r) in reference.iter().enumerate() {
            if i == victim {
                assert!(out.data[at..at + r.len()].iter().all(|v| v.is_nan()));
            } else {
                assert_eq!(&out.data[at..at + r.len()], &r[..], "chunk {i} not bit-exact");
            }
            at += r.len();
        }
    }
}

#[test]
fn scrub_distinguishes_healthy_from_unverified_v1() {
    // A v1 directory wrapping v2 streams: chunks verify via their own
    // stream checksums (Healthy) even though the directory has no CRCs.
    let (_, a) = small_archive();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"FZAR");
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(a.total_values as u64).to_le_bytes());
    v1.extend_from_slice(&(a.chunks.len() as u64).to_le_bytes());
    for c in &a.chunks {
        v1.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for c in &a.chunks {
        v1.extend_from_slice(c);
    }
    let parsed = Archive::from_bytes(&v1).unwrap();
    let report = parsed.scrub();
    assert!(report.is_clean());
    assert!(report.chunks.iter().all(|h| *h == ChunkHealth::Healthy));
}
