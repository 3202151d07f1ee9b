//! Store bench: partial-decode cost scaling of the chunked array store.
//!
//! Sweeps subregion size (per-axis fraction of the field) x shard
//! granularity (`chunks_per_shard`) x storage backend (mem / fs / objsim)
//! over one CESM-like 3-D field compressed with the fzgpu codec, and
//! records the bytes the backend actually served for each read. The whole
//! point of the sharded v3 layout is that a subregion read touches only
//! the shards and chunks it intersects, so the bench *gates* it: at every
//! sub-full region size, on every backend and shard granularity, the
//! partial read's `bytes_read` must be strictly less than the full read's.
//! Value digests are asserted identical across backends (the backend
//! models cost, never content).
//!
//! Outputs `results/store.txt` (human table) and `BENCH_store.json`
//! (machine-readable) at the repo root.
//!
//! `--smoke`: a smaller grid and a reduced shard sweep for CI — the
//! partial-vs-full gate and cross-backend digest check still run.

use fzgpu_bench::{arg_flag, Table};
use fzgpu_data::dataset;
use fzgpu_sim::device::A100;
use fzgpu_store::{backend_from_cli, value_digest, ArrayStore, CodecConfig, Region, StoreSpec};
use fzgpu_trace::json::{self, Layout, Obj};

/// One measured read.
struct Row {
    backend: &'static str,
    chunks_per_shard: usize,
    frac_pct: usize,
    values: usize,
    chunks: usize,
    shards: usize,
    bytes_read: u64,
    backend_reads: u64,
    modeled_io_s: f64,
    digest: u32,
}

/// Origin-anchored subregion covering `num/den` of every axis (full when
/// `num == den`). Anchoring at the origin keeps the region aligned to
/// chunk boundaries, so the chunk (and byte) count scales with the
/// request instead of straddling one extra chunk per axis.
fn prefix_region(dims: &[usize], num: usize, den: usize) -> Region {
    let hi: Vec<usize> = dims.iter().map(|&d| (d * num / den).max(1)).collect();
    Region { lo: vec![0; dims.len()], hi }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = arg_flag(&args, "--smoke");

    // Fixed dims so the sweep is reproducible at any catalog scale: the
    // field supplies real-looking values, the bench supplies the geometry.
    let (dims, chunk, shard_sweep): (Vec<usize>, Vec<usize>, Vec<usize>) = if smoke {
        (vec![16, 32, 32], vec![4, 8, 8], vec![2, 8])
    } else {
        (vec![32, 64, 64], vec![8, 16, 16], vec![4, 16, 64])
    };
    let n: usize = dims.iter().product();
    let field = dataset("CESM").expect("catalog").generate(fzgpu_data::Scale::Reduced);
    assert!(field.data.len() >= n, "CESM reduced field smaller than bench grid");
    let data = &field.data[..n];
    // Store codecs take absolute bounds (see `CodecConfig` docs).
    let eb_abs = fzgpu_core::ErrorBound::RelToRange(1e-3).resolve(data);

    // Per-axis numerators over /4: 1/4, 2/4, 3/4 of each axis, then full.
    let fracs: &[(usize, usize)] = &[(1, 4), (2, 4), (3, 4), (4, 4)];
    let backends: &[&'static str] = &["mem", "fs", "objsim"];

    let fs_path =
        std::env::temp_dir().join(format!("fzgpu_store_bench_{}.fzst", std::process::id()));
    let fs_path_str = fs_path.to_str().expect("temp path is utf-8");

    println!(
        "store bench: {} values, dims {dims:?}, chunk {chunk:?}, codec fz (abs eb {eb_abs:.3e}){}",
        n,
        if smoke { " [smoke]" } else { "" },
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut container_bytes = 0u64;
    for &cps in &shard_sweep {
        // Digest per fraction must agree across backends.
        let mut digests: Vec<Option<u32>> = vec![None; fracs.len()];
        for &bk in backends {
            let _ = std::fs::remove_file(&fs_path);
            let path = (bk == "fs").then_some(fs_path_str);
            let backend = backend_from_cli(bk, path).expect("builtin backend");
            let spec = StoreSpec {
                dims: dims.clone(),
                chunk: chunk.clone(),
                codec: CodecConfig::Fz { eb_abs },
                chunks_per_shard: cps,
            };
            let mut store = ArrayStore::create(backend, spec, data, A100)
                .unwrap_or_else(|e| panic!("create ({bk}, {cps} chunks/shard): {e}"));
            container_bytes = store.container_bytes();

            let mut full_bytes = None;
            for (fi, &(num, den)) in fracs.iter().enumerate().rev() {
                let region = prefix_region(&dims, num, den);
                let r = store
                    .read_region(&region)
                    .unwrap_or_else(|e| panic!("read ({bk}, {cps}, {num}/{den}): {e}"));
                let digest = value_digest(&r.values);
                match digests[fi] {
                    None => digests[fi] = Some(digest),
                    Some(d) => assert_eq!(
                        d, digest,
                        "digest diverged across backends at {num}/{den}, {cps} chunks/shard"
                    ),
                }
                // Reverse order: the full read runs first so every
                // partial read can be gated against it immediately.
                match full_bytes {
                    None => full_bytes = Some(r.bytes_read),
                    Some(full) => assert!(
                        r.bytes_read < full,
                        "partial read ({num}/{den} per axis) cost {} bytes, full read {} — \
                         partial decode is not partial on {bk} at {cps} chunks/shard",
                        r.bytes_read,
                        full,
                    ),
                }
                rows.push(Row {
                    backend: bk,
                    chunks_per_shard: cps,
                    frac_pct: 100 * num / den,
                    values: r.values.len(),
                    chunks: r.chunks_decoded,
                    shards: r.shards_touched,
                    bytes_read: r.bytes_read,
                    backend_reads: r.backend_reads,
                    modeled_io_s: r.modeled_io_seconds,
                    digest,
                });
            }
        }
    }
    let _ = std::fs::remove_file(&fs_path);
    rows.sort_by_key(|r| (r.chunks_per_shard, r.backend, r.frac_pct));

    let mut t = Table::new(&[
        "chunks/shard",
        "backend",
        "axis %",
        "values",
        "chunks",
        "shards",
        "bytes read",
        "reads",
        "modeled io s",
        "digest",
    ]);
    for r in &rows {
        t.row(vec![
            r.chunks_per_shard.to_string(),
            r.backend.into(),
            r.frac_pct.to_string(),
            r.values.to_string(),
            r.chunks.to_string(),
            r.shards.to_string(),
            r.bytes_read.to_string(),
            r.backend_reads.to_string(),
            format!("{:.6}", r.modeled_io_s),
            format!("{:08x}", r.digest),
        ]);
    }
    let table = t.render();
    print!("{table}");
    println!("\npartial bytes-read < full bytes-read at every sub-full size: yes");
    println!("value digests identical across backends: yes");

    // Persist next to the other bench artifacts (repo root is two levels
    // above this crate's manifest).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut txt = format!(
        "store bench: {n} values, dims {dims:?}, chunk {chunk:?}, codec fz (abs eb {eb_abs:.3e}){}\n\
         container: {container_bytes} bytes (fz, {:.2}x over raw)\n\n",
        if smoke { " [smoke]" } else { "" },
        (n * 4) as f64 / container_bytes as f64,
    );
    txt.push_str(&table);
    txt.push_str("\npartial bytes-read < full bytes-read at every sub-full size: yes\n");
    txt.push_str("value digests identical across backends: yes\n");
    std::fs::create_dir_all(root.join("results")).expect("results dir");
    std::fs::write(root.join("results/store.txt"), txt).expect("write results/store.txt");

    let json_rows = rows.iter().map(|r| {
        Obj::spaced()
            .raw("chunks_per_shard", r.chunks_per_shard)
            .str("backend", r.backend)
            .raw("axis_pct", r.frac_pct)
            .raw("values", r.values)
            .raw("chunks", r.chunks)
            .raw("shards", r.shards)
            .raw("bytes_read", r.bytes_read)
            .raw("backend_reads", r.backend_reads)
            .raw("modeled_io_s", format!("{:.6}", r.modeled_io_s))
            .str("digest", &format!("{:08x}", r.digest))
            .finish()
    });
    let json = Obj::doc()
        .str("bench", "store")
        .raw("n_values", n)
        .raw("dims", json::list(Layout::Spaced, &dims))
        .raw("chunk", json::list(Layout::Spaced, &chunk))
        .str("codec", "fz")
        .raw("eb_abs", format!("{eb_abs:e}"))
        .raw("smoke", smoke)
        .raw("partial_lt_full", true)
        .raw("digests_backend_invariant", true)
        .raw("reads", json::list(Layout::Doc, json_rows))
        .finish();
    std::fs::write(root.join("BENCH_store.json"), json).expect("write BENCH_store.json");
}
