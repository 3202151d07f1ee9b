//! The store phase: a field in an FZST v3 store (`fz` codec on the native
//! path, 16 chunks per shard, simulated object-store backend), read by one
//! closed-loop client issuing seeded `region_at` reads.
//!
//! Every read is checked against a reference built without the store:
//! each chunk compressed and decompressed on its own by the native
//! pipeline and scattered into a full field by index arithmetic. Traced
//! runs replay each read's chunk ids through `Registry::build(..).decode`
//! and `copy_region`, which splits a read into decode, copy and the rest.

use std::time::Instant;

use fzgpu_core::quant::ErrorBound;
use fzgpu_serve::store_read::region_at;
use fzgpu_sim::device::A100;
use fzgpu_store::{
    backend_from_cli, copy_region, shape3, ArrayStore, ChunkGrid, CodecConfig, Region, Registry,
    StoreSpec,
};

use crate::codec::{native, within_bound, Field};
use crate::host::Probe;
use crate::ledger::Ledger;
use crate::report::Report;
use crate::stats::percentile;

/// Chunks per shard.
pub const CHUNKS_PER_SHARD: usize = 16;

/// Seed of the `region_at` read sequence. The geometry is fixed, so the
/// benchmark seed (which rolls the field under it) moves the data each
/// read decodes, not how many chunks it touches.
pub const REGION_SEED: u64 = 1;

/// Write `field` into a new store with `chunk` extents and absolute bound
/// `eb_abs`.
pub fn create(field: &Field, chunk: &[usize], eb_abs: f64) -> ArrayStore {
    let spec = StoreSpec {
        dims: field.dims.clone(),
        chunk: chunk.to_vec(),
        codec: CodecConfig::Fz { eb_abs },
        chunks_per_shard: CHUNKS_PER_SHARD,
    };
    let backend = backend_from_cli("objsim", None).expect("objsim is a builtin backend");
    ArrayStore::create(backend, spec, &field.data, A100).expect("store create")
}

/// C-order strides of `dims`.
fn strides(dims: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; dims.len()];
    for a in (0..dims.len().saturating_sub(1)).rev() {
        s[a] = s[a + 1] * dims[a + 1];
    }
    s
}

/// Visit every point of `region` in C order, passing its coordinates.
fn for_each_point(region: &Region, mut f: impl FnMut(&[usize])) {
    if region.count() == 0 {
        return;
    }
    let mut idx = region.lo.clone();
    loop {
        f(&idx);
        let mut a = idx.len();
        loop {
            if a == 0 {
                return;
            }
            a -= 1;
            idx[a] += 1;
            if idx[a] < region.hi[a] {
                break;
            }
            idx[a] = region.lo[a];
        }
    }
}

/// Values of `region` cut from a full C-order field of `dims`.
pub fn extract(full: &[f32], dims: &[usize], region: &Region) -> Vec<f32> {
    let st = strides(dims);
    let mut out = Vec::with_capacity(region.count());
    for_each_point(region, |p| {
        out.push(full[p.iter().zip(&st).map(|(i, s)| i * s).sum::<usize>()])
    });
    out
}

/// The store-free reference: each chunk's stream bytes and the full
/// decoded field.
pub struct Reference {
    /// Decoded field, C order.
    pub full: Vec<f32>,
    /// Compressed bytes of each chunk, by chunk id.
    pub chunks: Vec<Vec<u8>>,
}

/// Build the reference for `field` on `grid` at `eb_abs`, checking every
/// chunk against the bound.
pub fn reference(field: &Field, grid: &ChunkGrid, eb_abs: f64, rep: &mut Report) -> Reference {
    let mut fz = native();
    let mut full = vec![0.0f32; field.data.len()];
    let st = strides(&field.dims);
    let mut chunks = Vec::with_capacity(grid.num_chunks());
    for id in 0..grid.num_chunks() {
        let vals = grid.gather_chunk(&field.data, id);
        let c = fz.compress(&vals, shape3(&grid.chunk_extents(id)), ErrorBound::Abs(eb_abs));
        let dec = fz.decompress(&c).expect("native chunk decompresses");
        rep.check(within_bound(&vals, &dec, eb_abs), "reference chunk within bound");
        let mut k = 0;
        for_each_point(&grid.chunk_box(id), |p| {
            full[p.iter().zip(&st).map(|(i, s)| i * s).sum::<usize>()] = dec[k];
            k += 1;
        });
        chunks.push(c.bytes);
    }
    Reference { full, chunks }
}

/// One read's measurements.
#[derive(Debug, Clone, Default)]
pub struct ReadSample {
    /// Host wall of `read_region`, seconds.
    pub read_s: f64,
    /// Replayed decode and copy wall (traced runs only), seconds.
    pub decode_s: f64,
    /// See `decode_s`.
    pub copy_s: f64,
    /// Values returned.
    pub values: usize,
    /// Values in the chunks decoded.
    pub decoded_values: usize,
    /// Store accounting.
    pub bytes_read: u64,
    /// See `bytes_read`.
    pub backend_reads: u64,
    /// See `bytes_read`.
    pub chunks: usize,
    /// See `bytes_read`.
    pub shards: usize,
    /// Modeled backend seconds.
    pub modeled_io_s: f64,
    /// Modeled backend + codec seconds.
    pub modeled_s: f64,
}

/// Replay the chunk ids of `region` through the registry's `fz` codec and
/// `copy_region`; returns `(decode_s, copy_s, values)`.
fn replay(
    store: &ArrayStore,
    reference: &Reference,
    region: &Region,
    rid: u64,
    led: &mut Ledger,
) -> (f64, f64, Vec<f32>) {
    let grid = store.grid();
    let mut codec = Registry::builtin().build(&store.spec().codec, A100).expect("fz codec builds");
    let extents = region.extents();
    let mut out = vec![0.0f32; region.count()];
    let (mut decode_s, mut copy_s) = (0.0, 0.0);
    led.span("store.replay", rid, |led| {
        for id in grid.chunks_intersecting(region) {
            let bx = grid.chunk_box(id);
            let ext = bx.extents();
            let (dt, vals) = led.timed("store.decode", rid, |_| {
                codec.decode(&reference.chunks[id], shape3(&ext)).expect("chunk decodes")
            });
            decode_s += dt;
            let inter = bx.intersect(region).expect("intersecting chunk");
            let (dt, ()) = led.timed("store.copy", rid, |_| {
                copy_region(&vals, &ext, &bx.lo, &mut out, &extents, &region.lo, &inter)
            });
            copy_s += dt;
        }
    });
    (decode_s, copy_s, out)
}

/// Host samples of every read: wall, and the bytes it returned per second
/// over the memcpy probe's rate around it ([`Probe::frac`]).
#[derive(Debug, Default)]
pub struct ReadWalls {
    /// Wall per read, seconds.
    pub read_s: Vec<f64>,
    /// See [`ReadWalls`].
    pub frac: Vec<f64>,
}

/// Issue reads `0..n_reads` of the `region_at` sequence once (modeled costs and
/// accounting come from this pass), then repeat it until `budget_s` has
/// elapsed since the start, adding host samples only. Every read is
/// checked against the reference and followed by a `probe` copy; traced
/// runs also replay each read of the first pass.
pub fn reads(
    store: &mut ArrayStore,
    reference: &Reference,
    n_reads: usize,
    budget_s: f64,
    probe: &mut Probe,
    led: &mut Ledger,
    rep: &mut Report,
) -> (Vec<ReadSample>, ReadWalls) {
    let dims = store.spec().dims.clone();
    let start = Instant::now();
    let mut first = Vec::with_capacity(n_reads);
    let mut walls = ReadWalls::default();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() < budget_s {
        for i in 0..n_reads {
            let rid = pass * n_reads as u64 + i as u64 + 1;
            let region = region_at(&dims, REGION_SEED, i);
            let (dt, r) = led.timed("store.read", rid, |_| store.read_region(&region));
            let Ok(r) = r else {
                rep.check(false, "store read returns data");
                continue;
            };
            walls.read_s.push(dt);
            walls.frac.push(probe.frac((r.values.len() * 4) as f64, dt));
            if pass > 0 {
                rep.ok_ops(1);
                continue;
            }
            let want = extract(&reference.full, &dims, &region);
            rep.check(
                r.values.len() == want.len()
                    && r.values.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "store read equals the reference slice",
            );
            let ids = store.grid().chunks_intersecting(&region);
            let decoded_values = ids.iter().map(|&id| store.grid().chunk_box(id).count()).sum();
            let mut s = ReadSample {
                read_s: dt,
                values: r.values.len(),
                decoded_values,
                bytes_read: r.bytes_read,
                backend_reads: r.backend_reads,
                chunks: r.chunks_decoded,
                shards: r.shards_touched,
                modeled_io_s: r.modeled_io_seconds,
                modeled_s: r.modeled_io_seconds + r.modeled_codec_seconds,
                ..ReadSample::default()
            };
            if led.is_on() {
                let (d, c, vals) = replay(store, reference, &region, rid, led);
                rep.check(vals == r.values, "replayed decode + copy equals the read");
                s.decode_s = d;
                s.copy_s = c;
            }
            first.push(s);
        }
        pass += 1;
    }
    (first, walls)
}

/// Per-layer store metrics of a traced run (per-read means of the first
/// pass).
pub fn report_layers(samples: &[ReadSample], create_s: f64, rep: &mut Report) {
    let n = samples.len().max(1) as f64;
    let mean = |f: fn(&ReadSample) -> f64| samples.iter().map(f).sum::<f64>() / n;
    let read_s = mean(|s| s.read_s);
    let decode_s = mean(|s| s.decode_s);
    let copy_s = mean(|s| s.copy_s);
    rep.set("store.create_s", create_s);
    rep.set("store.read_s", read_s);
    rep.set("store.decode_s", decode_s);
    rep.set("store.copy_s", copy_s);
    rep.set("store.self_s", read_s - decode_s - copy_s);
    rep.set("store.bytes_read", mean(|s| s.bytes_read as f64));
    rep.set("store.backend_reads", mean(|s| s.backend_reads as f64));
    rep.set("store.chunks_decoded", mean(|s| s.chunks as f64));
    rep.set("store.shards_touched", mean(|s| s.shards as f64));
    let decoded: usize = samples.iter().map(|s| s.decoded_values).sum();
    let returned: usize = samples.iter().map(|s| s.values).sum();
    rep.set("store.read_amplification", decoded as f64 / returned.max(1) as f64);
    rep.set("store.modeled_io_ms", mean(|s| s.modeled_io_s) * 1e3);
}

/// Median and p95 host wall of the reads, ms, for the log.
pub fn describe(read_s: &[f64]) -> String {
    format!(
        "read wall: {}; p95 {:.3} ms",
        crate::stats::describe(read_s, 1e3, "ms"),
        percentile(read_s, 0.95) * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_matches_copy_region() {
        let dims = vec![5usize, 6, 7];
        let full: Vec<f32> = (0..210).map(|i| i as f32).collect();
        let region = Region { lo: vec![1, 2, 3], hi: vec![4, 5, 7] };
        let mine = extract(&full, &dims, &region);
        let mut theirs = vec![0.0; region.count()];
        copy_region(&full, &dims, &[0, 0, 0], &mut theirs, &region.extents(), &region.lo, &region);
        assert_eq!(mine, theirs);
        assert_eq!(mine[0], (42 + 14 + 3) as f32, "(1, 2, 3) in a 5x6x7 field");
    }

    #[test]
    fn reads_match_the_reference_and_replay() {
        let dims = vec![24usize, 20, 16];
        let n: usize = dims.iter().product();
        let field = Field { data: (0..n).map(|i| (i as f32 * 0.013).sin() * 4.0).collect(), dims };
        let mut rep = Report::new();
        let mut store = create(&field, &[8, 8, 8], 8e-3);
        let r = reference(&field, store.grid(), 8e-3, &mut rep);
        let mut led = Ledger::new(true);
        let mut probe = Probe::new(1);
        let (first, walls) = reads(&mut store, &r, 12, 0.0, &mut probe, &mut led, &mut rep);
        assert_eq!(rep.failed, 0, "every read and replay matches");
        assert_eq!(first.len(), 12);
        assert_eq!((walls.read_s.len(), walls.frac.len()), (12, 12));
        assert!(first.iter().all(|s| s.decoded_values >= s.values));
        assert_eq!(led.overfull_spans(), 0);
        report_layers(&first, 0.1, &mut rep);
    }
}
