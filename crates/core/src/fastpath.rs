//! The native fast path: the same pipeline, straight-line Rust.
//!
//! [`FzNative`] is a word-level implementation of the full FZ-GPU
//! compress/decompress pipeline — prequantization fused with integer
//! Lorenzo prediction, the 32x32 bitshuffle transpose, and zero-block
//! encoding with a 64-bit zero scan — that emits **byte-identical**
//! format-v2 streams to the kernel-simulated [`crate::pipeline::FzGpu`]
//! path. The simulated path remains the model of record for *modeled*
//! timing; this path exists for real wall-clock throughput.
//!
//! Byte identity is by construction where it matters: every float or bit
//! operation goes through the same scalar helpers the scalar oracle
//! ([`crate::reference`]) uses ([`crate::quant`], [`crate::bitshuffle`]),
//! and the integer Lorenzo arithmetic reproduces the oracle's
//! i64-accumulate-then-truncate semantics exactly. The
//! `tests/fastpath_conformance.rs` differential suite holds the
//! equivalence over random shapes, bounds, and data distributions plus
//! every catalog dataset.
//!
//! Each stage is one `pub(crate)` function here — the only production
//! host code for that stage. [`FzNative`] chains them, and the analytic
//! simulation engine's output fills (`crate::gpu`) call the same
//! functions, so the two can never drift apart. Unlike the
//! per-call-allocating oracle, a [`FzNative`] value owns reusable scratch
//! buffers: compressing many fields through one instance allocates nothing
//! beyond the returned stream itself.

use rayon::prelude::*;

use crate::bitshuffle::{shuffle_tile, unshuffle_tile};
use crate::format::{assemble, verify, FormatError, Header, VERSION};
use crate::lorenzo::{integrate, rank_of, Shape};
use crate::pack::{padded_words, TILE_WORDS};
use crate::pipeline::Compressed;
use crate::quant::{code_to_delta, delta_to_code, dequantize, prequantize, ErrorBound};
use crate::zeroblock::BLOCK_WORDS;

/// Which implementation executes compress/decompress calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelinePath {
    /// The kernel-simulated pipeline (model of record: produces modeled
    /// kernel timings alongside the stream bytes).
    #[default]
    Simulated,
    /// The native fast path: identical bytes, real speed, no modeled time.
    Native,
    /// Run *both* and assert the streams/fields are byte-identical, then
    /// return the simulated result (timings included). A continuous
    /// conformance check; panics on the first diverging byte.
    Both,
}

impl PipelinePath {
    /// Parse a selector string (CLI `--path`, `FZGPU_NATIVE` env).
    /// Accepts `sim`/`simulated`/`0`/`false`/`off`, `native`/`1`/`true`/
    /// `on`, and `both`/`check`; case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "simulated" | "0" | "false" | "off" => Some(PipelinePath::Simulated),
            "native" | "1" | "true" | "on" => Some(PipelinePath::Native),
            "both" | "check" => Some(PipelinePath::Both),
            _ => None,
        }
    }

    /// Resolve the default path from the `FZGPU_NATIVE` environment
    /// variable: unset, empty, or unparseable means
    /// [`PipelinePath::Simulated`].
    pub fn from_env() -> Self {
        match std::env::var("FZGPU_NATIVE") {
            Ok(v) => Self::parse(&v).unwrap_or(PipelinePath::Simulated),
            Err(_) => PipelinePath::Simulated,
        }
    }

    /// Lower-case label for reports and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            PipelinePath::Simulated => "sim",
            PipelinePath::Native => "native",
            PipelinePath::Both => "both",
        }
    }
}

/// Reset a scratch buffer to `n` zeroed elements, reusing its allocation.
#[inline]
fn reset<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    buf.resize(n, T::default());
}

/// The native compressor. Holds scratch buffers so repeated calls through
/// one instance allocate nothing but the returned stream/field.
#[derive(Debug, Default, Clone)]
pub struct FzNative {
    /// Prequantized integers (compress stage 1).
    q: Vec<i32>,
    /// Sign-magnitude Lorenzo codes.
    codes: Vec<u16>,
    /// Packed code words, tile-padded.
    words: Vec<u32>,
    /// Bit-transposed words.
    shuffled: Vec<u32>,
    /// Zero-block flag bitmap.
    bit_flags: Vec<u32>,
    /// Compacted non-zero blocks.
    payload: Vec<u32>,
    /// Decoded Lorenzo deltas (decompress).
    deltas: Vec<i32>,
}

// --- Lorenzo row kernels ---------------------------------------------------
//
// All predictor neighbors are reads of the prequantized array, never of
// the output, so rows (and planes) encode independently. The oracle
// accumulates neighbor sums in i64 and truncates the delta `as i32` (see
// `lorenzo::lorenzo_delta`); these kernels reproduce that exactly while
// carrying west-side neighbors in running scalars instead of re-indexing.

/// 1D / first-row kernel: `pred = W`, seeded with `prev0` (the value west
/// of this span; 0 at the domain boundary).
#[inline]
fn row_w(cur: &[i32], prev0: i64, out: &mut [u16]) {
    let mut w = prev0;
    for (o, &c) in out.iter_mut().zip(cur) {
        let c = c as i64;
        *o = delta_to_code((c - w) as i32);
        w = c;
    }
}

/// 2D interior row: `pred = W + N - NW`.
#[inline]
fn row_wn(cur: &[i32], north: &[i32], out: &mut [u16]) {
    let (mut w, mut nw) = (0i64, 0i64);
    for ((o, &c), &n) in out.iter_mut().zip(cur).zip(north) {
        let (c, n) = (c as i64, n as i64);
        *o = delta_to_code((c - (w + n - nw)) as i32);
        w = c;
        nw = n;
    }
}

/// 3D first row of an interior plane: `pred = W + B - BW`.
#[inline]
fn row_wb(cur: &[i32], back: &[i32], out: &mut [u16]) {
    let (mut w, mut bw) = (0i64, 0i64);
    for ((o, &c), &b) in out.iter_mut().zip(cur).zip(back) {
        let (c, b) = (c as i64, b as i64);
        *o = delta_to_code((c - (w + b - bw)) as i32);
        w = c;
        bw = b;
    }
}

/// 3D interior row: the full 7-neighbor Lorenzo predictor.
#[inline]
fn row_full(cur: &[i32], north: &[i32], back: &[i32], back_north: &[i32], out: &mut [u16]) {
    let (mut w, mut nw, mut bw, mut bnw) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..out.len() {
        let c = cur[i] as i64;
        let n = north[i] as i64;
        let b = back[i] as i64;
        let bn = back_north[i] as i64;
        let pred = w + n + b - nw - bw - bn + bnw;
        out[i] = delta_to_code((c - pred) as i32);
        w = c;
        nw = n;
        bw = b;
        bnw = bn;
    }
}

/// Prequantize `data` into `q` — parallel, element-wise, through the same
/// scalar helper as every other path. Shared entry point: both
/// [`FzNative::compress`] and the analytic simulation engine's
/// quantization fill (`crate::gpu::quant`) call this, so the two can never
/// drift apart.
pub(crate) fn prequant_into(data: &[f32], ebx2_inv: f64, q: &mut [i32]) {
    q.par_chunks_mut(1 << 13).zip(data.par_chunks(1 << 13)).for_each(|(qs, ds)| {
        for (q, &d) in qs.iter_mut().zip(ds) {
            *q = prequantize(d, ebx2_inv);
        }
    });
}

/// Integer Lorenzo prediction + sign-magnitude codes, parallel by rank.
/// Rows/planes read only `q`, so the decomposition is free to differ from
/// the reference's — integer arithmetic is exact, the codes are identical
/// regardless of scheduling. Shared entry point (see [`prequant_into`]).
pub(crate) fn lorenzo_codes_into(q: &[i32], shape: Shape, codes: &mut [u16]) {
    let (_nz, ny, nx) = shape;
    match rank_of(shape) {
        1 => {
            // 1D: chunk freely; a chunk starting at `s` seeds its
            // west-neighbor from q[s-1].
            codes.par_chunks_mut(1 << 13).enumerate().for_each(|(ci, out)| {
                let s = ci * (1 << 13);
                let prev0 = if s == 0 { 0 } else { q[s - 1] as i64 };
                row_w(&q[s..s + out.len()], prev0, out);
            });
        }
        2 => {
            // 2D: parallel over rows; row y reads q rows y-1 and y.
            codes.par_chunks_mut(nx).enumerate().for_each(|(y, out)| {
                let cur = &q[y * nx..y * nx + nx];
                if y == 0 {
                    row_w(cur, 0, out);
                } else {
                    row_wn(cur, &q[(y - 1) * nx..y * nx], out);
                }
            });
        }
        _ => {
            // 3D: parallel over planes; plane z reads q planes z-1, z.
            let plane = ny * nx;
            codes.par_chunks_mut(plane).enumerate().for_each(|(z, out)| {
                let plane_q = &q[z * plane..(z + 1) * plane];
                let back = (z > 0).then(|| &q[(z - 1) * plane..z * plane]);
                encode_plane(plane_q, back, nx, out);
            });
        }
    }
}

/// Encode one plane of codes from its quantized values and the previous
/// plane (`None` at z == 0, where back-neighbors read as 0).
fn encode_plane(plane_q: &[i32], back: Option<&[i32]>, nx: usize, out: &mut [u16]) {
    for (y, row_out) in out.chunks_mut(nx).enumerate() {
        let cur = &plane_q[y * nx..y * nx + nx];
        let north = (y > 0).then(|| &plane_q[(y - 1) * nx..y * nx]);
        match (north, back) {
            (None, None) => row_w(cur, 0, row_out),
            (Some(n), None) => row_wn(cur, n, row_out),
            (None, Some(b)) => row_wb(cur, &b[..nx], row_out),
            (Some(n), Some(b)) => {
                row_full(cur, n, &b[y * nx..y * nx + nx], &b[(y - 1) * nx..y * nx], row_out)
            }
        }
    }
}

/// Pack codes two per word (low half = even index) into the first
/// `codes.len().div_ceil(2)` words of `words`, parallel; the tile padding
/// beyond is left untouched (callers pass zeroed buffers sized by
/// [`padded_words`]). Shared by [`FzNative::compress`] and the simulated
/// pipeline's pack step.
pub(crate) fn pack_into(codes: &[u16], words: &mut [u32]) {
    let n = codes.len();
    words[..n.div_ceil(2)].par_chunks_mut(1 << 12).enumerate().for_each(|(ci, out)| {
        let wbase = ci * (1 << 12);
        for (j, w) in out.iter_mut().enumerate() {
            let i = (wbase + j) * 2;
            let lo = codes[i] as u32;
            let hi = if i + 1 < n { codes[i + 1] as u32 } else { 0 };
            *w = lo | (hi << 16);
        }
    });
}

/// Bitshuffle a tile-aligned word stream, parallel over tiles through the
/// shared [`shuffle_tile`] kernel.
pub(crate) fn shuffle_tiles(words: &[u32], shuffled: &mut [u32]) {
    words
        .par_chunks_exact(TILE_WORDS)
        .zip(shuffled.par_chunks_exact_mut(TILE_WORDS))
        .for_each(|(tin, tout)| shuffle_tile(tin.try_into().unwrap(), tout.try_into().unwrap()));
}

/// Inverse of [`shuffle_tiles`].
pub(crate) fn unshuffle_tiles(shuffled: &[u32], words: &mut [u32]) {
    shuffled
        .par_chunks_exact(TILE_WORDS)
        .zip(words.par_chunks_exact_mut(TILE_WORDS))
        .for_each(|(tin, tout)| unshuffle_tile(tin.try_into().unwrap(), tout.try_into().unwrap()));
}

/// Words covered by one zero-block flag word: 32 blocks.
pub(crate) const FLAG_GROUP_WORDS: usize = 32 * BLOCK_WORDS;

/// The 64-bit zero scan: a 4-word (16-byte) block OR-folds into two u64
/// lanes and tests once.
#[inline]
fn block_is_present(blk: &[u32]) -> bool {
    let lo = blk[0] as u64 | (blk[1] as u64) << 32;
    let hi = blk[2] as u64 | (blk[3] as u64) << 32;
    lo | hi != 0
}

/// Zero-block flag word of one 32-block group: bit `b` is set when block
/// `b` holds a nonzero word.
#[inline]
pub(crate) fn group_flags(group: &[u32]) -> u32 {
    group
        .chunks_exact(BLOCK_WORDS)
        .enumerate()
        .fold(0, |mask, (b, blk)| mask | u32::from(block_is_present(blk)) << b)
}

/// Zero-block encode a shuffled stream in one pass: one flag word per 32
/// blocks, and every present block appended to `payload` in stream order.
/// Tiles are 1024 words, so every flag word is full.
pub(crate) fn zero_block_encode(shuffled: &[u32], bit_flags: &mut [u32], payload: &mut Vec<u32>) {
    for (flags, group) in bit_flags.iter_mut().zip(shuffled.chunks_exact(FLAG_GROUP_WORDS)) {
        let mut mask = 0u32;
        for (b, blk) in group.chunks_exact(BLOCK_WORDS).enumerate() {
            if block_is_present(blk) {
                mask |= 1 << b;
                payload.extend_from_slice(blk);
            }
        }
        *flags = mask;
    }
}

/// Unpack codes from packed words and decode their sign-magnitude deltas
/// into `deltas` (one per code), parallel.
pub(crate) fn deltas_from_words(words: &[u32], deltas: &mut [i32]) {
    deltas.par_chunks_mut(1 << 13).enumerate().for_each(|(ci, dchunk)| {
        let base = ci * (1 << 13);
        for (j, d) in dchunk.iter_mut().enumerate() {
            let i = base + j;
            let w = words[i / 2];
            let code = if i % 2 == 0 { w as u16 } else { (w >> 16) as u16 };
            *d = code_to_delta(code);
        }
    });
}

/// Dequantize integrated values into the reconstructed field, parallel.
pub(crate) fn dequantize_field(q: &[i32], eb: f64) -> Vec<f32> {
    let ebx2 = 2.0 * eb;
    q.par_iter().map(|&v| dequantize(v, ebx2)).collect()
}

impl FzNative {
    /// Fresh instance (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress; byte-identical stream to [`crate::pipeline::FzGpu`] and
    /// the scalar oracle [`crate::reference::compress`].
    ///
    /// # Panics
    /// Panics when `data.len()` disagrees with `shape` or the resolved
    /// bound is not finite and positive (see [`ErrorBound::resolve`]).
    pub fn compress(&mut self, data: &[f32], shape: Shape, eb: ErrorBound) -> Compressed {
        let (nz, ny, nx) = shape;
        assert_eq!(data.len(), nz * ny * nx, "shape/data mismatch");
        let eb_abs = eb.resolve(data);
        let n = data.len();

        // Stage 1a: prequantize (parallel, element-wise).
        reset(&mut self.q, n);
        prequant_into(data, 1.0 / (2.0 * eb_abs), &mut self.q);

        // Stage 1b: integer Lorenzo prediction + sign-magnitude codes.
        reset(&mut self.codes, n);
        lorenzo_codes_into(&self.q, shape, &mut self.codes);

        // Stage 1c: pack codes two per word, zero-padded to whole tiles.
        let nwords = padded_words(n);
        reset(&mut self.words, nwords);
        pack_into(&self.codes, &mut self.words);

        // Stage 2: bitshuffle, parallel over tiles.
        reset(&mut self.shuffled, nwords);
        shuffle_tiles(&self.words, &mut self.shuffled);

        // Stage 3: zero-block flags + compaction in one pass.
        let num_blocks = nwords / BLOCK_WORDS;
        reset(&mut self.bit_flags, num_blocks.div_ceil(32));
        self.payload.clear();
        zero_block_encode(&self.shuffled, &mut self.bit_flags, &mut self.payload);

        let header = Header {
            version: VERSION,
            shape,
            eb: eb_abs,
            n_values: n,
            num_blocks,
            payload_words: self.payload.len(),
        };
        Compressed { bytes: assemble(&header, &self.bit_flags, &self.payload), header }
    }

    /// Decompress a stream produced by any path.
    pub fn decompress(&mut self, compressed: &Compressed) -> Result<Vec<f32>, FormatError> {
        self.decompress_bytes(&compressed.bytes)
    }

    /// Decompress from raw stream bytes (checksums verified first).
    /// Bit-identical output to the simulated decoder.
    pub fn decompress_bytes(&mut self, bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
        let header = verify(bytes)?;
        let hb = header.header_bytes();
        let nbf = header.bitflag_words();
        let flag_bytes = &bytes[hb..hb + nbf * 4];
        let payload_bytes = &bytes[hb + nbf * 4..hb + (nbf + header.payload_words) * 4];

        // The flag popcount must account for every payload block.
        let present: usize = flag_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()).count_ones() as usize)
            .sum();
        if present * BLOCK_WORDS != header.payload_words {
            return Err(FormatError::Inconsistent("flag popcount vs payload length"));
        }

        // Scatter payload blocks to their slots (single cursor pass at
        // near-memcpy speed); absent blocks stay zero.
        reset(&mut self.shuffled, header.num_blocks * BLOCK_WORDS);
        let mut src = 0usize;
        for (fw, fword) in flag_bytes.chunks_exact(4).enumerate() {
            let mut mask = u32::from_le_bytes(fword.try_into().unwrap());
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let dst = (fw * 32 + b) * BLOCK_WORDS;
                for (k, w) in self.shuffled[dst..dst + BLOCK_WORDS].iter_mut().enumerate() {
                    let o = src + k * 4;
                    *w = u32::from_le_bytes(payload_bytes[o..o + 4].try_into().unwrap());
                }
                src += BLOCK_WORDS * 4;
            }
        }

        // Un-shuffle, then unpack + decode deltas, invert Lorenzo via the
        // shared integrate cascade and dequantize.
        reset(&mut self.words, self.shuffled.len());
        unshuffle_tiles(&self.shuffled, &mut self.words);
        reset(&mut self.deltas, header.n_values);
        deltas_from_words(&self.words, &mut self.deltas);
        integrate(&mut self.deltas, header.shape);
        Ok(dequantize_field(&self.deltas, header.eb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn smooth(shape: Shape) -> Vec<f32> {
        let (nz, ny, nx) = shape;
        (0..nz * ny * nx)
            .map(|i| {
                let z = i / (ny * nx);
                let y = i / nx % ny;
                let x = i % nx;
                (x as f32 * 0.05).sin() * 3.0 + (y as f32 * 0.09).cos() + (z as f32 * 0.21).sin()
            })
            .collect()
    }

    fn assert_identical(data: &[f32], shape: Shape, eb: ErrorBound) {
        let oracle = reference::compress(data, shape, eb);
        let mut native = FzNative::new();
        let c = native.compress(data, shape, eb);
        assert_eq!(c.bytes, oracle.bytes, "native stream diverges at shape {shape:?}");
        assert_eq!(c.header, oracle.header);
        let a = native.decompress(&c).unwrap();
        let b = reference::decompress(&oracle.bytes).unwrap();
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "native decode diverges at shape {shape:?}"
        );
    }

    #[test]
    fn matches_reference_1d_2d_3d() {
        assert_identical(&smooth((1, 1, 5000)), (1, 1, 5000), ErrorBound::Abs(1e-3));
        assert_identical(&smooth((1, 77, 131)), (1, 77, 131), ErrorBound::RelToRange(1e-3));
        assert_identical(&smooth((7, 33, 41)), (7, 33, 41), ErrorBound::Abs(5e-4));
    }

    #[test]
    fn matches_reference_on_saturating_deltas() {
        // Huge jumps force the 15-bit sign-magnitude saturation path.
        let data: Vec<f32> = (0..4096)
            .map(|i| if i % 17 == 0 { 1e6 } else { -1e6 } * ((i % 5) as f32 + 1.0))
            .collect();
        assert_identical(&data, (1, 64, 64), ErrorBound::Abs(1e-2));
    }

    #[test]
    fn matches_reference_on_zero_field() {
        let data = vec![0.0f32; 3 * 40 * 50];
        assert_identical(&data, (3, 40, 50), ErrorBound::Abs(1e-4));
    }

    #[test]
    fn scratch_reuse_across_sizes_is_sound() {
        // Big, then small, then big again through one instance: stale
        // scratch contents must never leak into a stream.
        let mut native = FzNative::new();
        for &shape in &[(4usize, 32usize, 32usize), (1, 1, 7), (2, 19, 23), (1, 1, 40_000)] {
            let data = smooth(shape);
            let oracle = reference::compress(&data, shape, ErrorBound::Abs(1e-3));
            let c = native.compress(&data, shape, ErrorBound::Abs(1e-3));
            assert_eq!(c.bytes, oracle.bytes, "shape {shape:?}");
            let back = native.decompress_bytes(&c.bytes).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let data = smooth((1, 48, 48));
        let mut native = FzNative::new();
        let c = native.compress(&data, (1, 48, 48), ErrorBound::Abs(1e-3));
        assert!(native.decompress_bytes(&c.bytes[..40]).is_err());
        let mut mangled = c.bytes.clone();
        let last = mangled.len() - 1;
        mangled[last] ^= 0x40;
        assert!(native.decompress_bytes(&mangled).is_err());
    }

    #[test]
    fn path_parsing() {
        assert_eq!(PipelinePath::parse("native"), Some(PipelinePath::Native));
        assert_eq!(PipelinePath::parse("SIM"), Some(PipelinePath::Simulated));
        assert_eq!(PipelinePath::parse("1"), Some(PipelinePath::Native));
        assert_eq!(PipelinePath::parse("0"), Some(PipelinePath::Simulated));
        assert_eq!(PipelinePath::parse("both"), Some(PipelinePath::Both));
        assert_eq!(PipelinePath::parse("check"), Some(PipelinePath::Both));
        assert_eq!(PipelinePath::parse("turbo"), None);
        assert_eq!(PipelinePath::default(), PipelinePath::Simulated);
        assert_eq!(PipelinePath::Native.label(), "native");
        assert_eq!(PipelinePath::Both.label(), "both");
        assert_eq!(PipelinePath::Simulated.label(), "sim");
    }
}
