//! The unified codec interface: one trait, one config enum, one registry
//! covering the fzgpu pipeline, every baseline compressor, and the
//! lossless codecs — the "modular stage behind one interface" design the
//! cuSZ framework paper argues for.
//!
//! A [`CodecConfig`] is the serializable identity of a codec instance
//! (name + parameters, versioned JSON). A [`Codec`] is the
//! live instance built from a config by a [`Registry`]. The registry maps
//! codec names to factory functions; [`Registry::builtin`] pre-registers
//! everything in-tree and [`Registry::register`] accepts out-of-tree
//! codecs (the per-chunk codec-selection hook the 2025 orchestration
//! paper motivates).

use std::collections::BTreeMap;

use fzgpu_core::{FormatError, Shape};
use fzgpu_sim::DeviceSpec;
use fzgpu_trace::json::{Obj, Value};

/// Version of the codec-config wire schema ([`CodecConfig::to_json`]).
/// Parsers reject configs stamped with a different version so a future
/// schema never decodes silently wrong.
pub const CONFIG_VERSION: u32 = 1;

/// Why a codec could not encode or decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The codec cannot handle this configuration or chunk shape (e.g.
    /// MGARD on 1D chunks, error-bounded settings on cuZFP).
    Unsupported(&'static str),
    /// Stored bytes do not parse as this codec's stream.
    Malformed(&'static str),
    /// An fzgpu stream-level failure (CRC mismatch, truncation...).
    Format(FormatError),
    /// No registered codec matches the config's name.
    UnknownCodec(String),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Unsupported(what) => write!(f, "unsupported by codec: {what}"),
            CodecError::Malformed(what) => write!(f, "malformed codec stream: {what}"),
            CodecError::Format(e) => write!(f, "{e}"),
            CodecError::UnknownCodec(name) => write!(f, "unknown codec {name:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<FormatError> for CodecError {
    fn from(e: FormatError) -> Self {
        CodecError::Format(e)
    }
}

/// Serializable codec identity: which compressor, with which parameters.
///
/// Error bounds are stored *absolute* — a store resolves any relative
/// bound against the whole field at creation time (same semantics as
/// [`fzgpu_core::Archive::compress`]) so every chunk shares one bound.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecConfig {
    /// The FZ-GPU pipeline (this repository's compressor).
    Fz {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// cuSZ: dual-quantization + Huffman.
    CuSz {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// cuSZ+RLE (CLUSTER'21 variant).
    CuSzRle {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// cuSZx: blockwise constant/non-constant bitwise compressor.
    CuSzx {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// cuZFP fixed-rate transform coding.
    CuZfp {
        /// Rate in bits per value.
        rate: f64,
    },
    /// MGARD-GPU multigrid refactoring (2D/3D chunks only).
    Mgard {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// SZ-OMP, the CPU SZ pipeline (3D chunks only).
    SzOmp {
        /// Absolute error bound.
        eb_abs: f64,
    },
    /// Lossless: byte-wise Huffman over the chunk's f32 bytes.
    Huffman,
    /// Lossless: run-length encoding over the chunk's u16 view.
    Rle,
    /// Lossless: LZ77 tokens over the chunk's f32 bytes.
    Lz77,
    /// Lossless: DEFLATE (LZ77 + Huffman) over the chunk's f32 bytes.
    Deflate,
    /// Identity — stores raw f32 bytes (baseline for ratio comparisons).
    Raw,
    /// An out-of-tree codec resolved through [`Registry::register`].
    Custom {
        /// Registered codec name.
        name: String,
        /// Opaque parameter string the factory interprets.
        params: String,
    },
}

impl CodecConfig {
    /// The codec's registry name.
    pub fn name(&self) -> &str {
        match self {
            CodecConfig::Fz { .. } => "fz",
            CodecConfig::CuSz { .. } => "cusz",
            CodecConfig::CuSzRle { .. } => "cusz-rle",
            CodecConfig::CuSzx { .. } => "cuszx",
            CodecConfig::CuZfp { .. } => "cuzfp",
            CodecConfig::Mgard { .. } => "mgard",
            CodecConfig::SzOmp { .. } => "sz-omp",
            CodecConfig::Huffman => "huffman",
            CodecConfig::Rle => "rle",
            CodecConfig::Lz77 => "lz77",
            CodecConfig::Deflate => "deflate",
            CodecConfig::Raw => "raw",
            CodecConfig::Custom { name, .. } => name,
        }
    }

    /// True when decode reproduces the input bit-exactly.
    pub fn lossless(&self) -> bool {
        matches!(
            self,
            CodecConfig::Huffman
                | CodecConfig::Rle
                | CodecConfig::Lz77
                | CodecConfig::Deflate
                | CodecConfig::Raw
        )
    }

    /// The absolute error bound, when this codec has one.
    pub fn eb_abs(&self) -> Option<f64> {
        match *self {
            CodecConfig::Fz { eb_abs }
            | CodecConfig::CuSz { eb_abs }
            | CodecConfig::CuSzRle { eb_abs }
            | CodecConfig::CuSzx { eb_abs }
            | CodecConfig::Mgard { eb_abs }
            | CodecConfig::SzOmp { eb_abs } => Some(eb_abs),
            _ => None,
        }
    }

    /// Build a config from CLI-style inputs: a codec name plus optional
    /// `--eb` / `--rate` values. Errors name the missing/extra knob.
    pub fn from_cli(name: &str, eb_abs: Option<f64>, rate: Option<f64>) -> Result<Self, String> {
        let need_eb = |tag: &str| {
            eb_abs.ok_or_else(|| format!("codec {tag} requires an error bound (--eb or --abs)"))
        };
        match name {
            "fz" => Ok(CodecConfig::Fz { eb_abs: need_eb("fz")? }),
            "cusz" => Ok(CodecConfig::CuSz { eb_abs: need_eb("cusz")? }),
            "cusz-rle" => Ok(CodecConfig::CuSzRle { eb_abs: need_eb("cusz-rle")? }),
            "cuszx" => Ok(CodecConfig::CuSzx { eb_abs: need_eb("cuszx")? }),
            "cuzfp" => Ok(CodecConfig::CuZfp { rate: rate.ok_or("codec cuzfp requires --rate")? }),
            "mgard" => Ok(CodecConfig::Mgard { eb_abs: need_eb("mgard")? }),
            "sz-omp" => Ok(CodecConfig::SzOmp { eb_abs: need_eb("sz-omp")? }),
            "huffman" => Ok(CodecConfig::Huffman),
            "rle" => Ok(CodecConfig::Rle),
            "lz77" => Ok(CodecConfig::Lz77),
            "deflate" => Ok(CodecConfig::Deflate),
            "raw" => Ok(CodecConfig::Raw),
            other => Err(format!("unknown codec {other:?}")),
        }
    }

    /// Serialize as versioned JSON, e.g.
    /// `{"codec":"fz","eb_abs":0.001,"v":1}`.
    pub fn to_json(&self) -> String {
        // Keys in sorted order: codec < eb_abs | params | rate < v.
        let o = Obj::compact().str("codec", self.name());
        let o = match self {
            CodecConfig::CuZfp { rate } => o.num("rate", *rate),
            CodecConfig::Custom { params, .. } => o.str("params", params),
            _ => match self.eb_abs() {
                Some(eb) => o.num("eb_abs", eb),
                None => o,
            },
        };
        o.raw("v", CONFIG_VERSION).finish()
    }

    /// Parse a config from its JSON [`Value`]. Rejects unknown schema
    /// versions by name so future configs fail loudly.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let ver = v.get("v").and_then(Value::as_f64).ok_or("codec config missing \"v\"")?;
        if ver != CONFIG_VERSION as f64 {
            return Err(format!(
                "unsupported codec config version {ver} (this reader understands {CONFIG_VERSION})"
            ));
        }
        let name = v.get("codec").and_then(Value::as_str).ok_or("codec config missing name")?;
        let eb = v.get("eb_abs").and_then(Value::as_f64);
        let rate = v.get("rate").and_then(Value::as_f64);
        match CodecConfig::from_cli(name, eb, rate) {
            Ok(cfg) => Ok(cfg),
            // Unknown names fall through to Custom so registered
            // out-of-tree codecs round-trip through store metadata.
            Err(_) if !name.is_empty() => Ok(CodecConfig::Custom {
                name: name.to_string(),
                params: v.get("params").and_then(Value::as_str).unwrap_or("").to_string(),
            }),
            Err(e) => Err(e),
        }
    }
}

/// A live codec instance: encodes one chunk of f32 values to bytes and
/// back. Implementations may carry device state (`&mut self`), but
/// encode/decode must be deterministic — same input, same bytes — across
/// thread counts, sim engines, and pipeline paths.
pub trait Codec {
    /// The config this instance was built from.
    fn config(&self) -> CodecConfig;

    /// Encode `data` (row-major, `shape` volume values) to bytes.
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError>;

    /// Decode bytes back to `shape` volume values.
    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError>;

    /// Modeled device seconds charged by the most recent encode/decode
    /// (0 for host-only codecs). Deterministic — never wall time.
    fn modeled_seconds(&self) -> f64 {
        0.0
    }
}

/// Factory: build a codec instance from a config on a device.
pub type CodecFactory = fn(&CodecConfig, DeviceSpec) -> Result<Box<dyn Codec>, CodecError>;

/// Name → factory table. Deterministic iteration (BTreeMap) so listings
/// are stable.
pub struct Registry {
    factories: BTreeMap<String, CodecFactory>,
}

impl Registry {
    /// An empty registry (no codecs resolvable).
    pub fn empty() -> Self {
        Self { factories: BTreeMap::new() }
    }

    /// The built-in table: fzgpu, the five baselines (plus cuSZ+RLE), the
    /// lossless codecs, and `raw`.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        for name in BUILTIN_NAMES {
            r.register(name, crate::impls::build_builtin);
        }
        r
    }

    /// Register (or replace) a codec factory under `name`.
    pub fn register(&mut self, name: &str, factory: CodecFactory) {
        self.factories.insert(name.to_string(), factory);
    }

    /// Registered codec names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Build a codec for `cfg` on `spec`.
    pub fn build(&self, cfg: &CodecConfig, spec: DeviceSpec) -> Result<Box<dyn Codec>, CodecError> {
        match self.factories.get(cfg.name()) {
            Some(f) => f(cfg, spec),
            None => Err(CodecError::UnknownCodec(cfg.name().to_string())),
        }
    }
}

/// Names [`Registry::builtin`] registers.
pub const BUILTIN_NAMES: &[&str] = &[
    "fz", "cusz", "cusz-rle", "cuszx", "cuzfp", "mgard", "sz-omp", "huffman", "rle", "lz77",
    "deflate", "raw",
];

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_trace::json;

    #[test]
    fn config_json_roundtrip() {
        let cases = [
            CodecConfig::Fz { eb_abs: 1e-3 },
            CodecConfig::CuSz { eb_abs: 0.5 },
            CodecConfig::CuZfp { rate: 8.0 },
            CodecConfig::Deflate,
            CodecConfig::Raw,
            CodecConfig::Custom { name: "wavelet".into(), params: "db4".into() },
        ];
        for cfg in cases {
            let text = cfg.to_json();
            let v = json::parse(&text).unwrap();
            assert_eq!(CodecConfig::from_json(&v).unwrap(), cfg, "roundtrip of {text}");
        }
    }

    #[test]
    fn unknown_config_version_rejected_by_name() {
        let v = json::parse("{\"codec\":\"fz\",\"eb_abs\":0.001,\"v\":2}").unwrap();
        let err = CodecConfig::from_json(&v).unwrap_err();
        assert!(err.contains("codec config version 2"), "got: {err}");
    }

    #[test]
    fn cli_parse_validates_knobs() {
        assert!(CodecConfig::from_cli("fz", None, None).unwrap_err().contains("error bound"));
        assert!(CodecConfig::from_cli("cuzfp", Some(1e-3), None).unwrap_err().contains("--rate"));
        assert!(CodecConfig::from_cli("nope", None, None).unwrap_err().contains("unknown codec"));
        assert_eq!(CodecConfig::from_cli("raw", None, None).unwrap(), CodecConfig::Raw);
    }

    #[test]
    fn builtin_names_all_resolve() {
        let r = Registry::builtin();
        assert_eq!(r.names().len(), BUILTIN_NAMES.len());
        for name in BUILTIN_NAMES {
            assert!(r.names().contains(name), "{name} missing from registry");
        }
    }
}
