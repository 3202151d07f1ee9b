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
//! buffers, and each pool thread keeps its group window (`walk_group`):
//! compressing many fields through one instance allocates nothing beyond
//! the returned stream itself once those have grown.
//!
//! Compression streams each 1024-word tile once. Dual quantization makes
//! every code a function of prequantized neighbours only, so the tiles
//! split into groups (`group_tiles`, a function of the shape) that encode
//! independently, one pool task each. A group prequantizes its Lorenzo
//! halo and then, tile by tile, the tile's values into its window
//! (`walk_group`); the row kernels, seeded at the window's offset, make
//! the tile's codes, which are packed, shuffled ([`shuffle_tile`]) and
//! zero-scanned (`group_flags`) on the stack (`encode_tile`). The group
//! writes its flag words in place and appends its present blocks to its
//! own part, and [`assemble`] copies the parts into the stream in group
//! order. The analytic engine's `pred_quant_v2` and fused 1-D fills walk
//! the same groups through the same window.
//!
//! Decompression streams each 1024-word tile once too. The flag popcount
//! check also yields every tile's payload offset; each tile then gathers
//! its present blocks into a stack tile, un-shuffles it
//! ([`unshuffle_tile`]) and unpacks its 2048 codes straight into the
//! deltas (`unpack_tile`). The shared [`integrate`] and
//! `dequantize_field` finish the field. The analytic engine keeps the
//! staged decode kernels, so its fills call the same tile functions
//! through `unshuffle_tiles` and `deltas_from_words`.
//!
//! Every stage runs inside one `native.*` trace span per call (compress:
//! `resolve`, `tiles`, `assemble`; decompress: `verify`, `tiles`,
//! `integrate`, `dequantize`), a no-op unless a capture window is open.

use rayon::prelude::*;

use crate::bitshuffle::{shuffle_tile, unshuffle_tile};
use crate::format::{assemble, verify, FormatError, Header, VERSION};
use crate::lorenzo::{integrate, rank_of, Shape};
use crate::pack::{padded_words, TILE_CODES, TILE_WORDS};
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

/// The native compressor. Holds scratch buffers so repeated calls through
/// one instance allocate nothing but the returned stream/field.
#[derive(Debug, Default, Clone)]
pub struct FzNative {
    /// Per group of tiles, the present blocks it appends to the payload
    /// (compress). Only grows, so a smaller field after a larger one keeps
    /// every allocation.
    parts: Vec<Vec<u32>>,
    /// Zero-block flag bitmap (compress).
    bit_flags: Vec<u32>,
    /// Payload block offset of each tile, plus the total (decompress).
    tile_offsets: Vec<usize>,
    /// Decoded Lorenzo deltas (decompress).
    deltas: Vec<i32>,
}

// --- Lorenzo row kernels ---------------------------------------------------
//
// All predictor neighbors are reads of the prequantized values, never of
// the output, so any span of a row encodes independently. The oracle
// accumulates neighbor sums in i64 and truncates the delta `as i32` (see
// `lorenzo::lorenzo_delta`); these kernels reproduce that exactly while
// carrying west-side neighbors in running scalars seeded with the values
// west of the span (0 at the domain boundary).

/// 1D / first-row kernel: `pred = W`, seeded with `w`.
#[inline]
fn row_w(cur: &[i32], w: i64, out: &mut [u16]) {
    let mut w = w;
    for (o, &c) in out.iter_mut().zip(cur) {
        let c = c as i64;
        *o = delta_to_code((c - w) as i32);
        w = c;
    }
}

/// 2D interior row: `pred = W + N - NW`, seeded with `(w, nw)`.
#[inline]
fn row_wn(cur: &[i32], north: &[i32], (w, nw): (i64, i64), out: &mut [u16]) {
    let (mut w, mut nw) = (w, nw);
    for ((o, &c), &n) in out.iter_mut().zip(cur).zip(north) {
        let (c, n) = (c as i64, n as i64);
        *o = delta_to_code((c - (w + n - nw)) as i32);
        w = c;
        nw = n;
    }
}

/// 3D first row of an interior plane: `pred = W + B - BW`, seeded with
/// `(w, bw)`.
#[inline]
fn row_wb(cur: &[i32], back: &[i32], (w, bw): (i64, i64), out: &mut [u16]) {
    let (mut w, mut bw) = (w, bw);
    for ((o, &c), &b) in out.iter_mut().zip(cur).zip(back) {
        let (c, b) = (c as i64, b as i64);
        *o = delta_to_code((c - (w + b - bw)) as i32);
        w = c;
        bw = b;
    }
}

/// 3D interior row: the full 7-neighbor Lorenzo predictor, seeded with
/// `[w, nw, bw, bnw]`.
#[inline]
fn row_full(
    cur: &[i32],
    north: &[i32],
    back: &[i32],
    back_north: &[i32],
    [w, nw, bw, bnw]: [i64; 4],
    out: &mut [u16],
) {
    let (mut w, mut nw, mut bw, mut bnw) = (w, nw, bw, bnw);
    let neighbours = cur.iter().zip(north).zip(back).zip(back_north);
    for (o, (((&c, &n), &b), &bn)) in out.iter_mut().zip(neighbours) {
        let (c, n, b, bn) = (c as i64, n as i64, b as i64, bn as i64);
        let pred = w + n + b - nw - bw - bn + bnw;
        *o = delta_to_code((c - pred) as i32);
        w = c;
        nw = n;
        bw = b;
        bnw = bn;
    }
}

/// How far back of a value its Lorenzo predictor reads, in linear index
/// space: the west value (1-D), plus the north row (2-D), plus the back
/// plane (3-D).
fn halo(shape: Shape) -> usize {
    let (_, ny, nx) = shape;
    match rank_of(shape) {
        1 => 1,
        2 => nx + 1,
        _ => ny * nx + nx + 1,
    }
}

/// Tiles per group, unless the halo needs more: 64 Ki values, enough work
/// that every group is worth its own pool task.
const GROUP_TILES: usize = 32;

/// Tiles per group of a field of `shape`: [`GROUP_TILES`], or four halos'
/// worth when that is more, so the halo a group prequantizes twice (its
/// own window's and its predecessor's) stays at most a quarter of its
/// values. Only a 2-D row or a 3-D plane longer than 16 Ki values makes
/// the halo decide. A function of the shape alone, so the group grid is
/// the same at any thread count (the bytes would be anyway: parts are
/// concatenated in order). Group regions run one group per pool task
/// (`with_max_len(1)`), so a field of two groups already fans out.
pub(crate) fn group_tiles(shape: Shape) -> usize {
    (4 * halo(shape)).div_ceil(TILE_CODES).max(GROUP_TILES)
}

/// A group's prequantized values: linear indices `start..start + q.len()`,
/// filled in order by [`Window::extend`]. The compress-side unit of work
/// that the native encoder and the analytic engine's quantization fills
/// share (see [`walk_group`]).
#[derive(Debug, Default)]
pub(crate) struct Window {
    start: usize,
    q: Vec<i32>,
}

thread_local! {
    /// This thread's group window. A thread walks one group at a time, so
    /// one window per pool thread serves every group, native and analytic,
    /// and keeps its allocation for the next call: the windows in memory
    /// number the threads, not the field's groups.
    static WINDOW: core::cell::RefCell<Window> = core::cell::RefCell::default();
}

impl Window {
    /// Linear index one past the last prequantized value.
    fn end(&self) -> usize {
        self.start + self.q.len()
    }

    /// Prequantize the values that follow [`Window::end`].
    pub(crate) fn extend(&mut self, vals: &[f32], ebx2_inv: f64) {
        self.q.extend(vals.iter().map(|&d| prequantize(d, ebx2_inv)));
    }

    /// The prequantized values of linear `a..b`.
    #[inline]
    fn at(&self, a: usize, b: usize) -> &[i32] {
        &self.q[a - self.start..b - self.start]
    }

    /// Lorenzo codes of linear `a..a + out.len()`, which the window must
    /// hold together with their [`halo`]. Each row span goes to the row
    /// kernel of its (north, back) neighbours, seeded with the values
    /// west of the span.
    pub(crate) fn codes(&self, shape: Shape, a: usize, out: &mut [u16]) {
        if out.is_empty() {
            return;
        }
        let (_, ny, nx) = shape;
        let plane = ny * nx;
        let b = a + out.len();
        let (mut s, mut x, mut y, mut z) = (a, a % nx, a / nx % ny, a / plane);
        while s < b {
            let e = b.min(s - x + nx);
            let o = &mut out[s - a..e - a];
            let cur = self.at(s, e);
            // The value west of linear index `i`'s span, 0 at x == 0.
            let west = |i: usize| if x > 0 { self.q[i - 1 - self.start] as i64 } else { 0 };
            match (y > 0, z > 0) {
                (false, false) => row_w(cur, west(s), o),
                (true, false) => row_wn(cur, self.at(s - nx, e - nx), (west(s), west(s - nx)), o),
                (false, true) => {
                    row_wb(cur, self.at(s - plane, e - plane), (west(s), west(s - plane)), o)
                }
                (true, true) => row_full(
                    cur,
                    self.at(s - nx, e - nx),
                    self.at(s - plane, e - plane),
                    self.at(s - plane - nx, e - plane - nx),
                    [west(s), west(s - nx), west(s - plane), west(s - plane - nx)],
                    o,
                ),
            }
            s = e;
            (x, y) = (0, y + 1);
            if y == ny {
                (y, z) = (0, z + 1);
            }
        }
    }
}

/// Walk the tiles `tiles` of an `n`-value field of `shape` as one group,
/// in this thread's window ([`WINDOW`]): restart it at the group's halo and
/// `load` that (`load(win, range)` prequantizes linear `range` into the
/// window), then per tile `load` its values and hand `tile(win, first
/// value, value count)` the window while they are cache-hot. Neither
/// closure may walk a group itself. The last tile of a field may hold
/// fewer than [`TILE_CODES`] values, and an empty field's one tile none.
/// The native encoder and the analytic engine's `pred_quant_v2` and fused
/// 1-D fills all run their groups through here; only where values come
/// from and where codes go differ.
///
/// The window slides: once the values no later tile reads (those more than
/// a halo behind the next tile) outnumber twice the larger of a halo and a
/// tile, they are dropped, which moves at most half a value per value
/// loaded. So a window holds at most twice the larger of a halo and a
/// tile, plus a halo and a tile, whatever the group's length.
pub(crate) fn walk_group(
    shape: Shape,
    n: usize,
    tiles: core::ops::Range<usize>,
    mut load: impl FnMut(&mut Window, core::ops::Range<usize>),
    mut tile: impl FnMut(&Window, usize, usize),
) {
    let halo = halo(shape);
    let slide = 2 * halo.max(TILE_CODES);
    let v0 = (tiles.start * TILE_CODES).min(n);
    WINDOW.with_borrow_mut(|win| {
        win.start = v0.saturating_sub(halo);
        win.q.clear();
        let len = (tiles.end * TILE_CODES).min(n) - win.start;
        win.q.reserve(len.min(halo + slide + TILE_CODES));
        load(win, win.start..v0);
        for t in tiles {
            let a = (t * TILE_CODES).min(n);
            let b = (a + TILE_CODES).min(n);
            let stale = a.saturating_sub(halo) - win.start;
            if stale >= slide {
                win.q.drain(..stale);
                win.start += stale;
            }
            debug_assert_eq!(win.end(), a);
            load(win, a..b);
            tile(win, a, b - a);
        }
    });
}

/// Pack one tile's codes two per word (low half = even index). Shared by
/// the native encoder, the fused 1-D fill and the simulated pipeline's
/// pack step.
#[inline]
pub(crate) fn pack_tile(codes: &[u16; TILE_CODES], words: &mut [u32; TILE_WORDS]) {
    for (w, pair) in words.iter_mut().zip(codes.chunks_exact(2)) {
        *w = pair[0] as u32 | (pair[1] as u32) << 16;
    }
}

/// Encode one tile from a window: the Lorenzo codes of linear
/// `a..a + len` (`len <= TILE_CODES`, zero codes beyond), packed and
/// bitshuffled into `out`.
pub(crate) fn encode_tile(
    win: &Window,
    shape: Shape,
    a: usize,
    len: usize,
    out: &mut [u32; TILE_WORDS],
) {
    let mut codes = [0u16; TILE_CODES];
    win.codes(shape, a, &mut codes[..len]);
    let mut words = [0u32; TILE_WORDS];
    pack_tile(&codes, &mut words);
    shuffle_tile(&words, out);
}

/// Inverse of the compress side's shuffle, over a tile-aligned stream:
/// parallel over tiles through the shared [`unshuffle_tile`].
pub(crate) fn unshuffle_tiles(shuffled: &[u32], words: &mut [u32]) {
    shuffled
        .par_chunks_exact(TILE_WORDS)
        .zip(words.par_chunks_exact_mut(TILE_WORDS))
        .for_each(|(tin, tout)| unshuffle_tile(tin.try_into().unwrap(), tout.try_into().unwrap()));
}

/// Words covered by one zero-block flag word: 32 blocks.
const FLAG_GROUP_WORDS: usize = 32 * BLOCK_WORDS;

/// Flag words per tile: 256 blocks of [`BLOCK_WORDS`], 32 flags a word.
pub(crate) const TILE_FLAG_WORDS: usize = TILE_WORDS / FLAG_GROUP_WORDS;

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

/// The [`TILE_FLAG_WORDS`] zero-block flag words of one shuffled tile,
/// through [`group_flags`].
#[inline]
pub(crate) fn tile_flags(shuffled: &[u32; TILE_WORDS], flags: &mut [u32]) {
    for (f, group) in flags.iter_mut().zip(shuffled.chunks_exact(FLAG_GROUP_WORDS)) {
        *f = group_flags(group);
    }
}

/// Compress one group of tiles straight from the field: per tile, encode
/// it ([`encode_tile`]), write its flag words into `flags` (the group's
/// slice of the bitmap) and append its present blocks to `part`.
fn compress_group(
    data: &[f32],
    shape: Shape,
    ebx2_inv: f64,
    tiles: core::ops::Range<usize>,
    part: &mut Vec<u32>,
    flags: &mut [u32],
) {
    part.clear();
    let mut flag_words = flags.chunks_exact_mut(TILE_FLAG_WORDS);
    let load = |win: &mut Window, r: core::ops::Range<usize>| win.extend(&data[r], ebx2_inv);
    walk_group(shape, data.len(), tiles, load, |win, a, len| {
        let mut shuffled = [0u32; TILE_WORDS];
        encode_tile(win, shape, a, len, &mut shuffled);
        let flags = flag_words.next().expect("one flag slice per tile");
        tile_flags(&shuffled, flags);
        for (&mask, group) in flags.iter().zip(shuffled.chunks_exact(FLAG_GROUP_WORDS)) {
            let mut m = mask;
            while m != 0 {
                let b = m.trailing_zeros() as usize * BLOCK_WORDS;
                part.extend_from_slice(&group[b..b + BLOCK_WORDS]);
                m &= m - 1;
            }
        }
    });
}

/// Unpack one tile's codes (low half = even index) and decode their
/// sign-magnitude deltas into `deltas`: 2048 of them, fewer in a field's
/// last tile.
#[inline]
fn unpack_tile(words: &[u32; TILE_WORDS], deltas: &mut [i32]) {
    let whole = deltas.len() / 2;
    let mut pairs = deltas.chunks_exact_mut(2);
    for (pair, &w) in (&mut pairs).zip(words) {
        pair[0] = code_to_delta(w as u16);
        pair[1] = code_to_delta((w >> 16) as u16);
    }
    if let [last] = pairs.into_remainder() {
        *last = code_to_delta(words[whole] as u16);
    }
}

/// Unpack codes from tile-aligned packed words and decode their
/// sign-magnitude deltas into `deltas` (one per code), parallel over tiles
/// through the shared [`unpack_tile`].
///
/// # Panics
/// Panics when `words` is not whole tiles or holds fewer codes than
/// `deltas`.
pub(crate) fn deltas_from_words(words: &[u32], deltas: &mut [i32]) {
    assert_eq!(words.len() % TILE_WORDS, 0, "stream not tile-aligned");
    assert!(words.len() * 2 >= deltas.len(), "not enough words for {} codes", deltas.len());
    deltas
        .par_chunks_mut(TILE_CODES)
        .zip(words.par_chunks_exact(TILE_WORDS))
        .for_each(|(d, w)| unpack_tile(w.try_into().expect("a whole tile"), d));
}

/// Dequantize integrated values into the reconstructed field `out` (one
/// value per element of `q`), parallel over index-space chunks.
pub(crate) fn dequantize_field(q: &[i32], eb: f64, out: &mut [f32]) {
    let ebx2 = 2.0 * eb;
    out.par_chunks_mut(1 << 13).zip(q.par_chunks(1 << 13)).for_each(|(os, qs)| {
        for (o, &v) in os.iter_mut().zip(qs) {
            *o = dequantize(v, ebx2);
        }
    });
}

/// Little-endian `u32` at word `i` of `bytes`.
#[inline]
fn le_word(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("a 4-byte range"))
}

/// Decode one tile of a stream. `flags` holds the tile's
/// [`TILE_FLAG_WORDS`] flag words and `payload` its present blocks in
/// order, both as stream bytes: the blocks are gathered into a zeroed
/// stack tile, which is un-shuffled and unpacked into `deltas`.
fn decode_tile(flags: &[u8], payload: &[u8], deltas: &mut [i32]) {
    let mut shuffled = [0u32; TILE_WORDS];
    let mut src = 0usize;
    for fw in 0..TILE_FLAG_WORDS {
        let mut mask = le_word(flags, fw);
        while mask != 0 {
            let dst = (fw * 32 + mask.trailing_zeros() as usize) * BLOCK_WORDS;
            mask &= mask - 1;
            for (k, w) in shuffled[dst..dst + BLOCK_WORDS].iter_mut().enumerate() {
                *w = le_word(payload, src + k);
            }
            src += BLOCK_WORDS;
        }
    }
    let mut words = [0u32; TILE_WORDS];
    unshuffle_tile(&shuffled, &mut words);
    unpack_tile(&words, deltas);
}

impl FzNative {
    /// Fresh instance (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress; byte-identical stream to [`crate::pipeline::FzGpu`] and
    /// the scalar oracle [`crate::reference::compress`].
    ///
    /// One parallel pass over groups of tiles (`group_tiles`): each
    /// group prequantizes its window tile by tile, encodes every tile
    /// (`encode_tile`), writes its flag words in place and appends its
    /// present blocks to its part; [`assemble`] then copies the parts into
    /// the stream in group order and runs the one body CRC.
    ///
    /// # Panics
    /// Panics when `data.len()` disagrees with `shape` or the resolved
    /// bound is not finite and positive (see [`ErrorBound::resolve`]).
    pub fn compress(&mut self, data: &[f32], shape: Shape, eb: ErrorBound) -> Compressed {
        let (nz, ny, nx) = shape;
        assert_eq!(data.len(), nz * ny * nx, "shape/data mismatch");
        let eb_abs = {
            let _s = fzgpu_trace::span("native.resolve");
            eb.resolve(data)
        };
        let n = data.len();
        let nwords = padded_words(n);
        let ntiles = nwords / TILE_WORDS;
        let per = group_tiles(shape);
        let ngroups = ntiles.div_ceil(per);
        {
            let _s = fzgpu_trace::span("native.tiles");
            if self.parts.len() < ngroups {
                self.parts.resize_with(ngroups, Vec::new);
            }
            // Every flag word is written below, so stale values need no reset.
            self.bit_flags.resize(ntiles * TILE_FLAG_WORDS, 0);
            let ebx2_inv = 1.0 / (2.0 * eb_abs);
            self.bit_flags
                .par_chunks_mut(per * TILE_FLAG_WORDS)
                .zip(self.parts[..ngroups].par_iter_mut())
                .enumerate()
                .with_max_len(1)
                .for_each(|(g, (flags, part))| {
                    let tiles = g * per..((g + 1) * per).min(ntiles);
                    compress_group(data, shape, ebx2_inv, tiles, part, flags);
                });
        }

        let _s = fzgpu_trace::span("native.assemble");
        let parts = &self.parts[..ngroups];
        let header = Header {
            version: VERSION,
            shape,
            eb: eb_abs,
            n_values: n,
            num_blocks: nwords / BLOCK_WORDS,
            payload_words: parts.iter().map(Vec::len).sum(),
        };
        Compressed { bytes: assemble(&header, &self.bit_flags, parts), header }
    }

    /// Decompress a stream produced by any path.
    pub fn decompress(&mut self, compressed: &Compressed) -> Result<Vec<f32>, FormatError> {
        self.decompress_bytes(&compressed.bytes)
    }

    /// Decompress from raw stream bytes (checksums verified first).
    /// Bit-identical output to the simulated decoder.
    pub fn decompress_bytes(&mut self, bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
        let (header, flag_bytes, payload_bytes) = {
            let _s = fzgpu_trace::span("native.verify");
            let header = verify(bytes)?;
            let hb = header.header_bytes();
            let nbf = header.bitflag_words();
            let flag_bytes = &bytes[hb..hb + nbf * 4];
            let payload_bytes = &bytes[hb + nbf * 4..hb + (nbf + header.payload_words) * 4];

            // The flag popcount must account for every payload block; its
            // running sum is each tile's first payload block.
            self.tile_offsets.clear();
            let mut present = 0usize;
            for tile_flags in flag_bytes.chunks_exact(TILE_FLAG_WORDS * 4) {
                self.tile_offsets.push(present);
                present += (0..TILE_FLAG_WORDS)
                    .map(|fw| le_word(tile_flags, fw).count_ones() as usize)
                    .sum::<usize>();
            }
            self.tile_offsets.push(present);
            if present * BLOCK_WORDS != header.payload_words {
                return Err(FormatError::Inconsistent("flag popcount vs payload length"));
            }
            (header, flag_bytes, payload_bytes)
        };

        // Each tile, once: gather its blocks, un-shuffle, unpack deltas.
        {
            let _s = fzgpu_trace::span("native.tiles");
            // Every delta is written below, so stale values need no reset.
            self.deltas.resize(header.n_values, 0);
            let block_bytes = BLOCK_WORDS * 4;
            self.deltas
                .par_chunks_mut(TILE_CODES)
                .zip(flag_bytes.par_chunks_exact(TILE_FLAG_WORDS * 4))
                .zip(self.tile_offsets.windows(2).into_par_iter())
                .for_each(|((deltas, flags), span)| {
                    let payload = &payload_bytes[span[0] * block_bytes..span[1] * block_bytes];
                    decode_tile(flags, payload, deltas);
                });
        }

        // Invert Lorenzo via the shared integrate cascade and dequantize.
        {
            let _s = fzgpu_trace::span("native.integrate");
            integrate(&mut self.deltas, header.shape);
        }
        let _s = fzgpu_trace::span("native.dequantize");
        let mut field = vec![0f32; header.n_values];
        dequantize_field(&self.deltas, header.eb, &mut field);
        Ok(field)
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
