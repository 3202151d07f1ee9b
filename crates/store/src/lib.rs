//! `fzgpu-store` — the chunked-array store subsystem.
//!
//! This crate puts every compressor in the workspace — the fzgpu
//! pipeline, the five baselines, and the lossless codecs — behind one
//! [`Codec`] trait, built from a versioned [`CodecConfig`] by
//! [`Registry::build`], then layers a chunked n-D array container on top:
//!
//! - [`ChunkGrid`] / [`Region`] — n-D chunking and subregion math.
//! - [`ArrayStore`] — the `FZST` container: meta JSON + an archive-v3
//!   sharded chunk index, with **partial decode** that touches only the
//!   shards/chunks a request intersects.
//! - [`StorageBackend`] — in-memory, filesystem, and a simulated object
//!   store with a deterministic latency/throughput model.
//!
//! Everything is deterministic: chunk encode order is fixed, all modeled
//! costs live in modeled-seconds (never wall time), and byte-level I/O is
//! accounted in Det-class `fzgpu_store_*` metrics so tests can prove
//! partial decode reads less than a full decode.

pub mod backend;
pub mod codec;
pub mod grid;
mod impls;
pub mod store;

pub use backend::{
    BackendStats, FsBackend, MemBackend, ObjectStoreBackend, ObjectStoreModel, StorageBackend,
};
pub use codec::{Codec, CodecConfig, CodecError, Registry};
pub use grid::{copy_region, ChunkGrid, Region};
pub use store::{
    shape3, value_digest, ArrayStore, ReadResult, StoreError, StoreSpec, STORE_MAGIC, STORE_VERSION,
};

/// Build a backend by CLI name. `path` is required for `"fs"` and ignored
/// otherwise.
pub fn backend_from_cli(name: &str, path: Option<&str>) -> Result<Box<dyn StorageBackend>, String> {
    match name {
        "mem" => Ok(Box::new(MemBackend::new())),
        "objsim" => Ok(Box::new(ObjectStoreBackend::new())),
        "fs" => {
            let p = path.ok_or("backend \"fs\" requires a path (--path)")?;
            Ok(Box::new(FsBackend::new(p)))
        }
        other => Err(format!("unknown backend {other:?} (expected mem, fs, or objsim)")),
    }
}
