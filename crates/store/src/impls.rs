//! Built-in [`Codec`] implementations: the FZ-GPU pipeline, the five
//! baseline compressors (plus cuSZ+RLE), and the lossless codecs from
//! `fzgpu-codecs`.
//!
//! Each baseline stream owns its wire format (`to_bytes` / `from_bytes`
//! in `fzgpu-baselines`, which checks the bytes against the chunk shape),
//! so a baseline codec here only encodes, decodes and reports its modeled
//! seconds and accounted bytes. The lossless codecs frame their own bytes.

use fzgpu_baselines::cusz::CuSzStream;
use fzgpu_baselines::cusz_rle::CuSzRleStream;
use fzgpu_baselines::cuszx::CuSzxStream;
use fzgpu_baselines::cuzfp::CuZfpStream;
use fzgpu_baselines::mgard::MgardStream;
use fzgpu_baselines::{CuSz, CuSzRle, CuSzx, CuZfp, Mgard, SzOmp};
use fzgpu_codecs::huffman::{self, ChunkedStream};
use fzgpu_codecs::lz77::{self, Token};
use fzgpu_codecs::wire::{self, Cursor};
use fzgpu_codecs::{deflate, rle, Codebook};
use fzgpu_core::{ErrorBound, FzGpu, Shape};
use fzgpu_sim::DeviceSpec;

use crate::codec::{Codec, CodecError};

/// Values in a shape.
fn volume(shape: Shape) -> usize {
    shape.0 * shape.1 * shape.2
}

fn f32s_to_le(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_to_f32s(bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(CodecError::Malformed("payload length not a multiple of 4"));
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

fn check_len(got: usize, shape: Shape) -> Result<(), CodecError> {
    if got != volume(shape) {
        return Err(CodecError::Malformed("decoded value count does not match chunk shape"));
    }
    Ok(())
}

fn check_input(data: &[f32], shape: Shape) -> Result<(), CodecError> {
    if data.len() != volume(shape) {
        return Err(CodecError::Unsupported("input length does not match chunk shape"));
    }
    Ok(())
}

fn malformed(what: &'static str) -> CodecError {
    CodecError::Malformed(what)
}

// ---------------------------------------------------------------------------
// FZ-GPU

/// The fzgpu pipeline behind the [`Codec`] interface. Streams are the
/// self-describing v2 wire format (header + CRCs), so decode ignores no
/// corruption the pipeline would catch.
pub(crate) struct FzCodec {
    fz: FzGpu,
    eb_abs: f64,
}

impl FzCodec {
    /// New instance on `spec` (path/engine resolved from the environment
    /// like every other `FzGpu`).
    pub(crate) fn new(spec: DeviceSpec, eb_abs: f64) -> Self {
        Self { fz: FzGpu::new(spec), eb_abs }
    }
}

impl Codec for FzCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(self.fz.compress(data, shape, ErrorBound::Abs(self.eb_abs)).bytes)
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let out = self.fz.decompress_bytes(bytes)?;
        check_len(out.len(), shape)?;
        Ok(out)
    }

    fn modeled_seconds(&self) -> f64 {
        self.fz.kernel_time()
    }
}

// ---------------------------------------------------------------------------
// Baselines

/// cuSZ behind the [`Codec`] interface.
pub(crate) struct CuSzCodec {
    pub(crate) inner: CuSz,
    pub(crate) eb_abs: f64,
}

impl Codec for CuSzCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(self.inner.compress(data, shape, self.eb_abs).to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        CuSzStream::from_bytes(bytes, shape).and_then(|s| s.decompress()).map_err(malformed)
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.kernel_time()
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(CuSzStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

/// SZ-OMP behind the [`Codec`] interface (3D chunks only). Host code: it
/// charges no modeled seconds.
pub(crate) struct SzOmpCodec {
    pub(crate) eb_abs: f64,
}

impl Codec for SzOmpCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        let stream = SzOmp
            .compress(data, shape, self.eb_abs)
            .ok_or(CodecError::Unsupported("SZ-OMP requires 3D chunks"))?;
        Ok(stream.to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        CuSzStream::from_bytes(bytes, shape).and_then(|s| s.decompress()).map_err(malformed)
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(CuSzStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

/// cuSZ+RLE behind the [`Codec`] interface.
pub(crate) struct CuSzRleCodec {
    pub(crate) inner: CuSzRle,
    pub(crate) eb_abs: f64,
}

impl Codec for CuSzRleCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(self.inner.compress(data, shape, self.eb_abs).to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        CuSzRleStream::from_bytes(bytes, shape).and_then(|s| s.decompress()).map_err(malformed)
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.kernel_time()
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(CuSzRleStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

/// cuSZx behind the [`Codec`] interface.
pub(crate) struct CuSzxCodec {
    pub(crate) inner: CuSzx,
    pub(crate) eb_abs: f64,
}

impl Codec for CuSzxCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(self.inner.compress(data, shape, self.eb_abs).to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        Ok(CuSzxStream::from_bytes(bytes, shape).map_err(malformed)?.decompress())
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.kernel_time()
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(CuSzxStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

/// cuZFP (fixed-rate) behind the [`Codec`] interface.
pub(crate) struct CuZfpCodec {
    pub(crate) inner: CuZfp,
    pub(crate) rate: f64,
}

impl Codec for CuZfpCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(self.inner.compress(data, shape, self.rate).to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        Ok(CuZfpStream::from_bytes(bytes, shape).map_err(malformed)?.decompress())
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.kernel_time()
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(CuZfpStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

/// MGARD-GPU behind the [`Codec`] interface (2D/3D chunks it can shrink).
pub(crate) struct MgardCodec {
    pub(crate) inner: Mgard,
    pub(crate) eb_abs: f64,
}

impl Codec for MgardCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        let stream =
            self.inner.compress(data, shape, self.eb_abs).map_err(CodecError::Unsupported)?;
        Ok(stream.to_bytes())
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        MgardStream::from_bytes(bytes, shape).and_then(|s| s.decompress()).map_err(malformed)
    }

    fn modeled_seconds(&self) -> f64 {
        self.inner.kernel_time()
    }

    fn accounted_bytes(&self, encoded: &[u8], shape: Shape) -> Result<usize, CodecError> {
        Ok(MgardStream::from_bytes(encoded, shape).map_err(malformed)?.size_bytes())
    }
}

// ---------------------------------------------------------------------------
// Lossless codecs over the chunk's f32 bytes.

/// Identity codec: raw little-endian f32 bytes.
pub(crate) struct RawCodec;

impl Codec for RawCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(f32s_to_le(data))
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let out = le_to_f32s(bytes)?;
        check_len(out.len(), shape)?;
        Ok(out)
    }
}

/// DEFLATE over the chunk's f32 bytes.
pub(crate) struct DeflateCodec;

impl Codec for DeflateCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        Ok(deflate::compress(&f32s_to_le(data)))
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let raw = deflate::decompress(bytes, volume(shape) * 4)
            .map_err(|_| malformed("DEFLATE stream did not decode to the chunk's bytes"))?;
        le_to_f32s(&raw)
    }
}

/// Bare LZ77 tokens over the chunk's f32 bytes.
pub(crate) struct Lz77Codec;

impl Codec for Lz77Codec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        let tokens = lz77::tokenize(&f32s_to_le(data));
        let mut out = Vec::new();
        wire::put_u64(&mut out, tokens.len() as u64);
        for t in &tokens {
            match *t {
                Token::Literal(b) => out.extend_from_slice(&[0, b]),
                Token::Match { len, dist } => {
                    out.push(1);
                    wire::put_u16(&mut out, len);
                    wire::put_u16(&mut out, dist);
                }
            }
        }
        Ok(out)
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let mut c = Cursor::new(bytes);
        let n = c.len(c.remaining()).map_err(malformed)?;
        let mut tokens = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = c.take(1).map_err(malformed)?[0];
            tokens.push(match tag {
                0 => Token::Literal(c.take(1).map_err(malformed)?[0]),
                1 => Token::Match {
                    len: c.u16().map_err(malformed)?,
                    dist: c.u16().map_err(malformed)?,
                },
                _ => return Err(malformed("unknown LZ77 token tag")),
            });
        }
        c.done().map_err(malformed)?;
        let raw = lz77::detokenize(&tokens, volume(shape) * 4)
            .ok_or_else(|| malformed("LZ77 tokens do not expand within the chunk"))?;
        let out = le_to_f32s(&raw)?;
        check_len(out.len(), shape)?;
        Ok(out)
    }
}

/// Run-length encoding over the chunk's u16 view (two symbols per f32).
pub(crate) struct RleCodec;

fn f32s_to_u16s(data: &[f32]) -> Vec<u16> {
    let mut out = Vec::with_capacity(data.len() * 2);
    for v in data {
        let b = v.to_le_bytes();
        out.push(u16::from_le_bytes([b[0], b[1]]));
        out.push(u16::from_le_bytes([b[2], b[3]]));
    }
    out
}

impl Codec for RleCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        let mut out = Vec::new();
        rle::write_runs(&mut out, &rle::encode(&f32s_to_u16s(data)));
        Ok(out)
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let mut c = Cursor::new(bytes);
        let runs = rle::read_runs(&mut c).map_err(malformed)?;
        c.done().map_err(malformed)?;
        if rle::decoded_len(&runs) != volume(shape) as u64 * 2 {
            return Err(malformed("decoded symbol count does not match chunk shape"));
        }
        let symbols = rle::decode(&runs);
        let out: Vec<f32> = symbols
            .chunks_exact(2)
            .map(|p| {
                let lo = p[0].to_le_bytes();
                let hi = p[1].to_le_bytes();
                f32::from_le_bytes([lo[0], lo[1], hi[0], hi[1]])
            })
            .collect();
        Ok(out)
    }
}

/// Byte-wise Huffman (cuSZ's chunked layout) over the chunk's f32 bytes.
pub(crate) struct HuffmanCodec;

/// Symbols per independent Huffman chunk.
const HUFF_CHUNK: usize = 4096;

impl Codec for HuffmanCodec {
    fn encode(&mut self, data: &[f32], shape: Shape) -> Result<Vec<u8>, CodecError> {
        check_input(data, shape)?;
        let symbols: Vec<u16> = f32s_to_le(data).iter().map(|&b| b as u16).collect();
        let mut hist = vec![0u32; 256];
        for &s in &symbols {
            hist[s as usize] += 1;
        }
        let book =
            Codebook::from_histogram(&hist).map_err(|_| CodecError::Unsupported("empty chunk"))?;
        let encoded = huffman::encode_chunked(&book, &symbols, HUFF_CHUNK)
            .map_err(|_| CodecError::Unsupported("huffman encode failed"))?;
        let mut out = Vec::new();
        book.write_to(&mut out);
        encoded.write_to(&mut out);
        Ok(out)
    }

    fn decode(&mut self, bytes: &[u8], shape: Shape) -> Result<Vec<f32>, CodecError> {
        let mut c = Cursor::new(bytes);
        let book = Codebook::read_from(&mut c).map_err(malformed)?;
        let encoded = ChunkedStream::read_from(&mut c).map_err(malformed)?;
        c.done().map_err(malformed)?;
        let symbols = huffman::decode_chunked(&book, &encoded)
            .map_err(|_| malformed("huffman stream did not decode"))?;
        if symbols.iter().any(|&s| s > 255) {
            return Err(malformed("byte symbol out of range"));
        }
        let raw: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
        let out = le_to_f32s(&raw)?;
        check_len(out.len(), shape)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecConfig, Registry};
    use fzgpu_sim::device::A100;

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 3.0 + (i % 7) as f32 * 0.1).collect()
    }

    /// One config per built-in codec, each able to encode an 8x16x16 chunk
    /// of [`field`].
    fn every_codec() -> [CodecConfig; 12] {
        [
            CodecConfig::Fz { eb_abs: 1e-3 },
            CodecConfig::CuSz { eb_abs: 1e-3 },
            CodecConfig::CuSzRle { eb_abs: 1e-3 },
            CodecConfig::CuSzx { eb_abs: 1e-3 },
            CodecConfig::CuZfp { rate: 16.0 },
            CodecConfig::Mgard { eb_abs: 1e-2 },
            CodecConfig::SzOmp { eb_abs: 1e-3 },
            CodecConfig::Huffman,
            CodecConfig::Rle,
            CodecConfig::Lz77,
            CodecConfig::Deflate,
            CodecConfig::Raw,
        ]
    }

    #[test]
    fn every_builtin_codec_roundtrips_a_3d_chunk() {
        let shape = (8, 16, 16);
        let data = field(8 * 16 * 16);
        for cfg in every_codec() {
            let mut codec = Registry::builtin().build(&cfg, A100).unwrap();
            let bytes = codec.encode(&data, shape).unwrap();
            let back = codec.decode(&bytes, shape).unwrap();
            assert_eq!(back.len(), data.len(), "{}", cfg.name());
            if cfg.lossless() {
                assert!(
                    data.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} must be bit-exact",
                    cfg.name()
                );
            } else if let Some(eb) = cfg.eb_abs() {
                for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
                    assert!(
                        (a - b).abs() as f64 <= eb * 1.05,
                        "{} out of bound at {i}: {a} vs {b}",
                        cfg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shape_support_is_reported_not_panicked() {
        let data = field(256);
        let reg = Registry::builtin();
        let mut mgard = reg.build(&CodecConfig::Mgard { eb_abs: 1e-2 }, A100).unwrap();
        let unsupported = |r: Result<Vec<u8>, CodecError>| match r {
            Err(CodecError::Unsupported(why)) => why,
            other => panic!("expected Unsupported, got {other:?}"),
        };
        assert!(unsupported(mgard.encode(&data, (1, 1, 256))).contains("2D or 3D"));
        // A 3-D chunk MGARD cannot shrink is a size problem, not a rank one.
        let mut mgard = reg.build(&CodecConfig::Mgard { eb_abs: 1e-3 }, A100).unwrap();
        assert!(unsupported(mgard.encode(&data, (4, 8, 8))).contains("not smaller"));
        let mut szomp = reg.build(&CodecConfig::SzOmp { eb_abs: 1e-3 }, A100).unwrap();
        assert!(unsupported(szomp.encode(&data, (1, 16, 16))).contains("3D"));
    }

    #[test]
    fn corrupt_streams_decode_to_errors_or_whole_chunks() {
        let shape = (8, 16, 16);
        let data = field(8 * 16 * 16);
        for cfg in every_codec() {
            let mut codec = Registry::builtin().build(&cfg, A100).unwrap();
            let bytes = codec.encode(&data, shape).unwrap();
            for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    codec.decode(&bytes[..cut], shape).is_err(),
                    "{} accepted a truncated stream at {cut}",
                    cfg.name()
                );
            }
            for at in 0..bytes.len() {
                for mask in [0x01u8, 0x40, 0xff] {
                    let mut evil = bytes.clone();
                    evil[at] ^= mask;
                    if let Ok(back) = codec.decode(&evil, shape) {
                        assert_eq!(
                            back.len(),
                            data.len(),
                            "{} flip {mask:#04x} at {at} changed the value count",
                            cfg.name()
                        );
                    }
                }
            }
        }

        // A literal and then max-length, distance-1 matches: a few KB that
        // would expand to far more than the chunk if the decoders let it.
        let mut lz = Vec::new();
        wire::put_u64(&mut lz, 1001);
        lz.extend_from_slice(&[0, 7]);
        for _ in 0..1000 {
            lz.extend_from_slice(&[1, 0xff, 0xff, 1, 0]);
        }
        let mut zeros = deflate::compress(&vec![0; 1 << 20]);
        zeros[..4].copy_from_slice(&(data.len() as u32 * 4).to_le_bytes());
        let mut mgard =
            Registry::builtin().build(&CodecConfig::Mgard { eb_abs: 1e-2 }, A100).unwrap();
        let mut stream =
            MgardStream::from_bytes(&mgard.encode(&data, shape).unwrap(), shape).unwrap();
        stream.compressed = zeros.clone();
        for (mut codec, evil) in [
            (Registry::builtin().build(&CodecConfig::Lz77, A100).unwrap(), lz),
            (Registry::builtin().build(&CodecConfig::Deflate, A100).unwrap(), zeros),
            (mgard, stream.to_bytes()),
        ] {
            assert!(codec.decode(&evil, shape).is_err());
        }
    }
}
