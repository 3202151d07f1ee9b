//! Store-backed read workload: a deterministic stream of n-D subregion
//! reads against an [`fzgpu_store::ArrayStore`].
//!
//! The serving story so far is compression requests (see [`crate::service`]);
//! a deployed store also serves *reads* — visualization slices, halo
//! exchanges, region queries — where the cost driver is how many shards
//! and chunks each request touches. This module replays a seeded sequence
//! of subregions through a store and reports, per read, the value digest
//! and the exact backend bytes served, all in modeled time.
//!
//! ## Determinism contract
//! Region choice is a pure function of `(seed, read index, dims)` via
//! splitmix64 — no ambient randomness, no wallclock. Digests and every
//! counter in the report are therefore bit-identical across
//! `FZGPU_THREADS`, sim engines, pipeline paths, and storage backends
//! (backends change modeled cost, never content).

use fzgpu_store::{value_digest, ArrayStore, Region, StoreError};
use fzgpu_trace::json::{self, Layout, Obj};

/// A deterministic subregion-read workload over one store.
#[derive(Debug, Clone)]
pub struct StoreReadWorkload {
    /// Label for reports.
    pub name: String,
    /// Number of reads to issue.
    pub reads: usize,
    /// Seed for the region sequence.
    pub seed: u64,
}

impl Default for StoreReadWorkload {
    fn default() -> Self {
        Self { name: "store-reads".into(), reads: 16, seed: 1 }
    }
}

/// splitmix64 — the standard 64-bit mixer; tiny, seedable, and good
/// enough to scatter regions across the grid.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th region of the sequence on a field of `dims`: per axis, a
/// uniformly sized extent at a uniform offset. Pure function of its
/// arguments.
pub fn region_at(dims: &[usize], seed: u64, i: usize) -> Region {
    let mut state = seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    let mut lo = Vec::with_capacity(dims.len());
    let mut hi = Vec::with_capacity(dims.len());
    for &d in dims {
        let extent = 1 + (splitmix64(&mut state) as usize) % d;
        let off = (splitmix64(&mut state) as usize) % (d - extent + 1);
        lo.push(off);
        hi.push(off + extent);
    }
    Region { lo, hi }
}

/// One read's outcome: what was asked, what it cost, what came back.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The subregion read.
    pub region: Region,
    /// Values returned.
    pub n_values: usize,
    /// CRC32 of the returned values (LE f32 bytes).
    pub digest: u32,
    /// Backend bytes served for this read.
    pub bytes_read: u64,
    /// Backend requests issued.
    pub backend_reads: u64,
    /// Chunks decoded.
    pub chunks: usize,
    /// Shards touched.
    pub shards: usize,
    /// Modeled backend IO seconds.
    pub modeled_io_s: f64,
    /// Modeled codec (device) seconds.
    pub modeled_codec_s: f64,
}

/// Aggregate report of a [`StoreReadWorkload`] replay.
#[derive(Debug, Clone)]
pub struct StoreReadReport {
    /// Workload label.
    pub name: String,
    /// Per-read outcomes, in issue order.
    pub reads: Vec<ReadOutcome>,
    /// CRC32 over the per-read digests (LE u32 bytes) — one value that
    /// pins the whole replay's content.
    pub combined_digest: u32,
    /// Total backend bytes served.
    pub total_bytes_read: u64,
    /// Total values returned.
    pub total_values: u64,
    /// Total modeled seconds (IO + codec).
    pub total_modeled_s: f64,
}

impl StoreReadReport {
    /// Plain-text report; deterministic, safe to diff across runs.
    pub fn text_report(&self) -> String {
        let mut s = format!(
            "store-read workload {}: {} reads, {} values, {} backend bytes, \
             modeled {:.6}s, digest {:08x}\n",
            self.name,
            self.reads.len(),
            self.total_values,
            self.total_bytes_read,
            self.total_modeled_s,
            self.combined_digest,
        );
        for (i, r) in self.reads.iter().enumerate() {
            s.push_str(&format!(
                "  read {i}: {:?} -> {} values, {} chunks / {} shards, {} bytes, digest {:08x}\n",
                r.region, r.n_values, r.chunks, r.shards, r.bytes_read, r.digest,
            ));
        }
        s
    }

    /// Machine-readable JSON, written through [`fzgpu_trace::json::Obj`].
    pub fn to_json(&self) -> String {
        let reads = self.reads.iter().map(|r| {
            Obj::compact()
                .raw("lo", json::list(Layout::Spaced, &r.region.lo))
                .raw("hi", json::list(Layout::Spaced, &r.region.hi))
                .raw("values", r.n_values)
                .raw("chunks", r.chunks)
                .raw("shards", r.shards)
                .raw("bytes_read", r.bytes_read)
                .raw("backend_reads", r.backend_reads)
                .raw("modeled_io_s", format!("{:.9}", r.modeled_io_s))
                .raw("modeled_codec_s", format!("{:.9}", r.modeled_codec_s))
                .str("digest", &format!("{:08x}", r.digest))
                .finish()
        });
        Obj::compact()
            .str("workload", &self.name)
            .raw("reads", self.reads.len())
            .raw("total_values", self.total_values)
            .raw("total_bytes_read", self.total_bytes_read)
            .raw("total_modeled_s", format!("{:.9}", self.total_modeled_s))
            .str("digest", &format!("{:08x}", self.combined_digest))
            .raw("outcomes", json::list(Layout::Compact, reads))
            .finish()
    }
}

/// Replay `workload` against `store`. Regions are generated from the
/// store's own dims, so any store works; errors surface the failing read.
pub fn run_store_reads(
    store: &mut ArrayStore,
    workload: &StoreReadWorkload,
) -> Result<StoreReadReport, StoreError> {
    let dims = store.spec().dims.clone();
    let mut reads = Vec::with_capacity(workload.reads);
    let mut digest_bytes = Vec::with_capacity(workload.reads * 4);
    let (mut total_bytes, mut total_values, mut total_modeled) = (0u64, 0u64, 0f64);
    for i in 0..workload.reads {
        let region = region_at(&dims, workload.seed, i);
        let r = store.read_region(&region)?;
        let digest = value_digest(&r.values);
        digest_bytes.extend_from_slice(&digest.to_le_bytes());
        total_bytes += r.bytes_read;
        total_values += r.values.len() as u64;
        total_modeled += r.modeled_io_seconds + r.modeled_codec_seconds;
        reads.push(ReadOutcome {
            region,
            n_values: r.values.len(),
            digest,
            bytes_read: r.bytes_read,
            backend_reads: r.backend_reads,
            chunks: r.chunks_decoded,
            shards: r.shards_touched,
            modeled_io_s: r.modeled_io_seconds,
            modeled_codec_s: r.modeled_codec_seconds,
        });
    }
    Ok(StoreReadReport {
        name: workload.name.clone(),
        reads,
        combined_digest: fzgpu_core::crc32(&digest_bytes),
        total_bytes_read: total_bytes,
        total_values,
        total_modeled_s: total_modeled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_sim::device::A100;
    use fzgpu_store::{backend_from_cli, ArrayStore, CodecConfig, StoreSpec};

    fn test_store(backend: &str) -> ArrayStore {
        let dims = vec![8, 10, 12];
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).sin()).collect();
        let spec = StoreSpec {
            dims,
            chunk: vec![4, 5, 4],
            codec: CodecConfig::Fz { eb_abs: 1e-3 },
            chunks_per_shard: 3,
        };
        let be = backend_from_cli(backend, None).unwrap();
        ArrayStore::create(be, spec, &data, A100).unwrap()
    }

    #[test]
    fn regions_are_deterministic_and_valid() {
        let dims = [8usize, 10, 12];
        for i in 0..64 {
            let r = region_at(&dims, 7, i);
            assert_eq!(r, region_at(&dims, 7, i));
            r.validate(&dims).unwrap();
        }
        // Different seeds move the sequence.
        assert_ne!(region_at(&dims, 7, 0), region_at(&dims, 8, 0));
    }

    #[test]
    fn replay_is_deterministic_and_backend_invariant() {
        let w = StoreReadWorkload { reads: 12, ..StoreReadWorkload::default() };
        let a = run_store_reads(&mut test_store("mem"), &w).unwrap();
        let b = run_store_reads(&mut test_store("mem"), &w).unwrap();
        assert_eq!(a.combined_digest, b.combined_digest);
        assert_eq!(a.total_bytes_read, b.total_bytes_read);

        // The object-store backend models different costs but must serve
        // identical content.
        let o = run_store_reads(&mut test_store("objsim"), &w).unwrap();
        assert_eq!(a.combined_digest, o.combined_digest);
        assert!(o.total_modeled_s > a.total_modeled_s);
        assert_eq!(
            a.reads.iter().map(|r| r.digest).collect::<Vec<_>>(),
            o.reads.iter().map(|r| r.digest).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn report_serializes() {
        let w = StoreReadWorkload { reads: 3, ..StoreReadWorkload::default() };
        let rep = run_store_reads(&mut test_store("mem"), &w).unwrap();
        let v = fzgpu_trace::json::parse(&rep.to_json()).unwrap();
        assert_eq!(v.get("reads").and_then(|x| x.as_f64()), Some(3.0));
        assert!(rep.text_report().contains("read 2:"));
    }
}
