//! The workspace's one compressor interface: one trait, one config enum
//! and one constructor covering the fzgpu pipeline, every baseline
//! compressor, and the lossless codecs — the "modular stage behind one
//! interface" design the cuSZ framework paper argues for. The store
//! encodes its chunks through it and the bench harness runs every figure
//! through it.
//!
//! A [`CodecConfig`] is the serializable identity of a codec instance
//! (name + parameters, versioned JSON). A [`Codec`] is the live instance
//! [`Registry::build`] makes from a config — the only place a compressor
//! name becomes a live compressor.

use fzgpu_baselines::{CuSz, CuSzRle, CuSzx, CuZfp, Mgard};
use fzgpu_core::{FormatError, Shape};
use fzgpu_sim::DeviceSpec;
use fzgpu_trace::json::{Obj, Value};

use crate::impls::{
    CuSzCodec, CuSzRleCodec, CuSzxCodec, CuZfpCodec, DeflateCodec, FzCodec, HuffmanCodec,
    Lz77Codec, MgardCodec, RawCodec, RleCodec, SzOmpCodec,
};

/// Version of the codec-config wire schema ([`CodecConfig::to_json`]).
/// Parsers reject configs stamped with a different version so a future
/// schema never decodes silently wrong.
pub const CONFIG_VERSION: u32 = 1;

/// Why a codec could not encode or decode.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The codec declines this input (e.g. MGARD on 1D chunks or on chunks
    /// it cannot shrink, SZ-OMP off 3D).
    Unsupported(&'static str),
    /// Stored bytes do not parse as this codec's stream.
    Malformed(&'static str),
    /// An fzgpu stream-level failure (CRC mismatch, truncation...).
    Format(FormatError),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Unsupported(what) => write!(f, "unsupported by codec: {what}"),
            CodecError::Malformed(what) => write!(f, "malformed codec stream: {what}"),
            CodecError::Format(e) => write!(f, "{e}"),
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
}

impl CodecConfig {
    /// The codec's name, as [`CodecConfig::from_cli`] takes it.
    pub fn name(&self) -> &'static str {
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
        // Keys in sorted order: codec < eb_abs | rate < v.
        let o = Obj::compact().str("codec", self.name());
        let o = match self {
            CodecConfig::CuZfp { rate } => o.num("rate", *rate),
            _ => match self.eb_abs() {
                Some(eb) => o.num("eb_abs", eb),
                None => o,
            },
        };
        o.raw("v", CONFIG_VERSION).finish()
    }

    /// Parse a config from its JSON [`Value`]. Rejects unknown schema
    /// versions and unknown codec names, naming them, so future configs
    /// fail loudly.
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
        CodecConfig::from_cli(name, eb, rate)
    }
}

/// A live codec instance: encodes one chunk of f32 values to bytes and
/// back. Implementations may carry device state (`&mut self`), but
/// encode/decode must be deterministic — same input, same bytes — across
/// thread counts, sim engines, and pipeline paths.
pub trait Codec {
    /// Encode `data` (row-major, `shape` volume values) to bytes.
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError>;

    /// Decode bytes back to `shape` volume values.
    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError>;

    /// Modeled device seconds charged by the most recent encode/decode
    /// (0 for host-only codecs). Deterministic — never wall time.
    fn modeled_seconds(&self) -> f64 {
        0.0
    }

    /// Bytes the paper's compression ratio charges for `encoded`, a stream
    /// this codec encoded for `shape`: by default its length. A baseline
    /// charges its stream's `size_bytes()` instead, the figure the paper's
    /// comparisons were calibrated on — cuSZ counts a flat 64-byte header
    /// and a 1024-byte codebook, cuZFP 2 bytes per block exponent where the
    /// wire holds 4.
    fn accounted_bytes(&self, encoded: &[u8], _shape: Shape) -> Result<usize, CodecError> {
        Ok(encoded.len())
    }
}

/// Builds live codecs: fzgpu, the five baselines (plus cuSZ+RLE), the
/// lossless codecs, and `raw`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// The registry of every built-in codec.
    pub fn builtin() -> Self {
        Registry
    }

    /// Build a codec for `cfg` on `spec`. Every config names a built-in
    /// codec (unknown names fail in [`CodecConfig::from_json`]), so this
    /// does not fail today.
    pub fn build(&self, cfg: &CodecConfig, spec: DeviceSpec) -> Result<Box<dyn Codec>, CodecError> {
        Ok(match *cfg {
            CodecConfig::Fz { eb_abs } => Box::new(FzCodec::new(spec, eb_abs)),
            CodecConfig::CuSz { eb_abs } => Box::new(CuSzCodec { inner: CuSz::new(spec), eb_abs }),
            CodecConfig::CuSzRle { eb_abs } => {
                Box::new(CuSzRleCodec { inner: CuSzRle::new(spec), eb_abs })
            }
            CodecConfig::CuSzx { eb_abs } => {
                Box::new(CuSzxCodec { inner: CuSzx::new(spec), eb_abs })
            }
            CodecConfig::CuZfp { rate } => Box::new(CuZfpCodec { inner: CuZfp::new(spec), rate }),
            CodecConfig::Mgard { eb_abs } => {
                Box::new(MgardCodec { inner: Mgard::new(spec), eb_abs })
            }
            CodecConfig::SzOmp { eb_abs } => Box::new(SzOmpCodec { eb_abs }),
            CodecConfig::Huffman => Box::new(HuffmanCodec),
            CodecConfig::Rle => Box::new(RleCodec),
            CodecConfig::Lz77 => Box::new(Lz77Codec),
            CodecConfig::Deflate => Box::new(DeflateCodec),
            CodecConfig::Raw => Box::new(RawCodec),
        })
    }
}

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
    fn every_cli_name_builds_and_round_trips_its_name() {
        let names = [
            "fz", "cusz", "cusz-rle", "cuszx", "cuzfp", "mgard", "sz-omp", "huffman", "rle",
            "lz77", "deflate", "raw",
        ];
        for name in names {
            let cfg = CodecConfig::from_cli(name, Some(1e-3), Some(8.0)).unwrap();
            assert_eq!(cfg.name(), name);
            assert!(Registry::builtin().build(&cfg, fzgpu_sim::device::A100).is_ok(), "{name}");
        }
    }
}
