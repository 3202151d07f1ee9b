//! GPU decompression kernels.
//!
//! The pipeline is the mirror image of compression (the paper: "the
//! decompression pipeline is highly symmetrical ... exhibiting throughput
//! nearly identical to that of compression"):
//!
//! 1. expand bit flags -> byte flags,
//! 2. prefix-sum byte flags -> payload offsets,
//! 3. scatter payload blocks back into the shuffled stream (zeros elsewhere),
//! 4. bit-unshuffle each tile (ballot transpose in the other direction),
//! 5. inverse Lorenzo: one prefix-sum walk per axis, from the unshuffled
//!    words to the reconstructed field.
//!
//! The walks mirror `pred_quant_v2`, which prequantizes on load and codes
//! on store: the x walk loads the words as u16 codes and decodes each on
//! load, and the last axis's walk dequantizes each value it finishes and
//! stores f32. No pass only converts a format. A walk whose launch cannot
//! fill the device (one warp per row of a 1-D field, a few column groups
//! walking a tall axis) splits into segments whose totals are integrated
//! recursively and carried back (DESIGN §16). Modeled decompress lands
//! within about 2.1x of compress on every catalog dataset
//! (`BENCH_regress.json`; the regress gate bounds it at 2.5x). The
//! remaining gap is the walk count: one full read and write of the field
//! per axis, plus a carry pass per split walk, against compress's single
//! fused kernel.

use fzgpu_sim::{DeviceSpec, Engine, Gpu, GpuBuffer, KernelStats, Lane, WarpCtx};
use rayon::prelude::*;

use crate::bitshuffle::unshuffle_tile;
use crate::gpu::encode::{launch_compaction, warp_stats, FILL_FLAGS};
use crate::lorenzo::{rank_of, Shape};
use crate::pack::TILE_WORDS;
use crate::quant::{code_to_delta, dequantize};
use crate::zeroblock::BLOCK_WORDS;

/// One byte flag per block from the packed bit flags into `out`: flag `b`
/// is bit `b % 32` of word `b / 32`. The analytic fill of
/// [`expand_flags`] and of the bitshuffle-mark kernels.
pub(crate) fn flag_bytes(bit_flags: &[u32], out: &mut [u8]) {
    for (b, f) in out.iter_mut().enumerate() {
        *f = (bit_flags[b / 32] >> (b % 32) & 1) as u8;
    }
}

/// Step 1: byte flag `b` = bit `b%32` of bit-flag word `b/32`.
pub fn expand_flags(gpu: &mut Gpu, bit_flags: &GpuBuffer<u32>, nflags: usize) -> GpuBuffer<u8> {
    let mut out: GpuBuffer<u8> = gpu.alloc(nflags);
    let blocks = nflags.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged; the broadcast word
    // load is one sector for every full warp regardless of block index.
    // The signature is `nflags`, which the predicates read.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    let sig = [nflags as u64];
    gpu.launch_classed("decode.expand_flags", blocks, 256u32, &sig, class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            // One bit-flag word covers the warp's 32 lanes (broadcast load).
            let word = w.load(bit_flags, |l| {
                let b = base + l.ltid;
                (b < nflags).then_some(b / 32)
            });
            w.store(&out, |l| {
                let b = base + l.ltid;
                (b < nflags).then(|| (b, (word[l.id] >> (b % 32) & 1) as u8))
            });
        });
    });
    if analytic {
        // 1024 flags at a time, from their 32 bit-flag words read in place.
        out.host_mut().par_chunks_mut(FILL_FLAGS).enumerate().for_each(|(c, bytes)| {
            let mut words = [0u32; FILL_FLAGS / 32];
            let words = &mut words[..bytes.len().div_ceil(32)];
            bit_flags.read_into(c * FILL_FLAGS / 32, words);
            flag_bytes(words, bytes);
        });
    }
    out
}

/// Step 3: scatter payload blocks to their home positions.
pub fn scatter(
    gpu: &mut Gpu,
    payload: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    offsets: &GpuBuffer<u32>,
) -> GpuBuffer<u32> {
    let nflags = byte_flags.len();
    let mut shuffled: GpuBuffer<u32> = gpu.alloc(nflags * BLOCK_WORDS);
    if gpu.effective_engine() == Engine::Analytic {
        // Mirror image of `encode.compact`: the same per-warp operation
        // sequence with load/store swapped, and the accounting charges
        // loads and stores identically — so the closed form is shared
        // (see [`warp_stats`]). Each task of FILL_FLAGS flags owns their
        // blocks of the shuffled stream and reads its flags, offsets and
        // present payload blocks in place. Zero blocks stay as allocated.
        let task_stats: Vec<KernelStats> = shuffled
            .host_mut()
            .par_chunks_mut(FILL_FLAGS * BLOCK_WORDS)
            .enumerate()
            .map(|(c, piece)| scatter_task(payload, byte_flags, offsets, c * FILL_FLAGS, piece))
            .collect();
        launch_compaction(gpu, "decode.scatter", nflags, &task_stats);
        return shuffled;
    }
    let blocks = nflags.div_ceil(256) as u32;
    gpu.launch("decode.scatter", blocks, 256u32, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let flag = w.load(byte_flags, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            let off = w.load(offsets, |l| (base + l.ltid < nflags).then_some(base + l.ltid));
            for k in 0..BLOCK_WORDS {
                let v = w.load(payload, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0).then(|| off[l.id] as usize * BLOCK_WORDS + k)
                });
                // Zero blocks rely on the freshly allocated (zeroed) buffer.
                w.store(&shuffled, |l| {
                    let b = base + l.ltid;
                    (b < nflags && flag[l.id] != 0).then(|| (b * BLOCK_WORDS + k, v[l.id]))
                });
            }
        });
    });
    shuffled
}

/// One task of the analytic scatter fill: the flags from `first` copy
/// their present payload blocks into `piece`, their blocks of the shuffled
/// stream, reading flags, offsets and blocks in place. Returns the
/// counters of the task's warps.
fn scatter_task(
    payload: &GpuBuffer<u32>,
    byte_flags: &GpuBuffer<u8>,
    offsets: &GpuBuffer<u32>,
    first: usize,
    piece: &mut [u32],
) -> KernelStats {
    let len = piece.len() / BLOCK_WORDS;
    let (mut flags, mut offs) = ([0u8; FILL_FLAGS], [0u32; FILL_FLAGS]);
    let (flags, offs) = (&mut flags[..len], &mut offs[..len]);
    byte_flags.read_into(first, flags);
    offsets.read_into(first, offs);
    for ((&flag, &off), blk) in flags.iter().zip(&*offs).zip(piece.chunks_exact_mut(BLOCK_WORDS)) {
        if flag != 0 {
            payload.read_into(off as usize * BLOCK_WORDS, blk);
        }
    }
    let mut stats = KernelStats::default();
    for (wf, wo) in flags.chunks(32).zip(offs.chunks(32)) {
        warp_stats(&mut stats, wf, wo);
    }
    stats
}

/// Step 4: inverse bitshuffle. Per tile, warp `y` reconstructs row `y`:
/// lane `x` accumulates bit `i` from shuffled word `(i, y)` (broadcast
/// shared read per plane).
pub fn bit_unshuffle(gpu: &mut Gpu, shuffled: &GpuBuffer<u32>) -> GpuBuffer<u32> {
    assert_eq!(shuffled.len() % TILE_WORDS, 0);
    let ntiles = (shuffled.len() / TILE_WORDS) as u32;
    let mut out: GpuBuffer<u32> = gpu.alloc(shuffled.len());
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Single class: every access is index-only and tile-aligned (same
    // argument as the forward shuffle kernels), so the signature is empty.
    gpu.launch_classed(
        "decode.bit_unshuffle",
        ntiles,
        (32u32, 32u32),
        &[],
        |_| 0,
        |blk| {
            let tile_base = blk.block_linear() * TILE_WORDS;
            let buf = blk.shared_array::<u32>(32 * 33);
            // Load the shuffled tile coalesced: warp i loads plane i.
            blk.warps(|w| {
                let i = w.warp_id;
                let v = w.load(shuffled, |l| Some(tile_base + i * 32 + l.id));
                w.sh_store(&buf, |l| Some((i * 33 + l.id, v[l.id])));
            });
            blk.sync();
            // Warp y: for each bit plane i, broadcast buf[i][y]; lane x takes
            // bit x and deposits it at bit i of its output word.
            blk.warps(|w| {
                let y = w.warp_id;
                let mut acc = [0u32; 32];
                for i in 0..32 {
                    let word = w.sh_load(&buf, |_| Some(i * 33 + y));
                    for x in 0..32 {
                        acc[x] |= (word[x] >> x & 1) << i;
                    }
                }
                let _ = w.lanes(|_| 0u32); // accumulate ALU charge
                w.store(&out, |l| Some((tile_base + y * 32 + l.id, acc[l.id])));
            });
        },
    );
    if analytic {
        // Per tile: a ranged read into a stack tile, then the shared
        // `unshuffle_tile`.
        out.host_mut().par_chunks_exact_mut(TILE_WORDS).enumerate().for_each(|(t, tile_out)| {
            let mut tile = [0u32; TILE_WORDS];
            shuffled.read_into(t * TILE_WORDS, &mut tile);
            unshuffle_tile(&tile, tile_out.try_into().expect("a whole tile"));
        });
    }
    out
}

/// What an inverse-Lorenzo walk loads.
#[derive(Debug, Clone, Copy)]
enum Src<'a> {
    /// The words [`bit_unshuffle`] returns, loaded as u16 codes through a
    /// cast pointer (code `i` is half `i % 2` of word `i / 2`, low half
    /// first) and decoded on load.
    Codes(&'a GpuBuffer<u32>),
    /// An earlier walk's i32 sums, in a buffer of their own.
    Sums(&'a GpuBuffer<i32>),
    /// The walk's own i32 output, walked in place. Under the analytic
    /// engine the slice holds its values from before the first launch,
    /// since representative blocks overwrite their rows; it is empty under
    /// the interpreted engine, which fills nothing.
    InPlace(&'a [i32]),
}

impl Src<'_> {
    /// Bytes a walk loads per value.
    fn bytes(self) -> usize {
        match self {
            Src::Codes(_) => 2,
            Src::Sums(_) | Src::InPlace(_) => 4,
        }
    }

    /// The loaded element type, in launch signatures: a u16 code or an
    /// i32 (the tag of [`Output`] `i32`).
    fn elem(self) -> u64 {
        match self {
            Src::Codes(_) => 0,
            Src::Sums(_) | Src::InPlace(_) => <i32 as Output>::ELEM,
        }
    }
}

/// What a walk stores where it finishes a value: an i32 sum, or its
/// dequantized f32.
trait Output: fzgpu_sim::Pod {
    /// The element type, in launch signatures.
    const ELEM: u64;
    /// Whether a finished value differs from its sum, so a split walk's
    /// carry pass finishes every segment, the first one too.
    const CONVERTS: bool;
    /// The value finished from its sum; `ebx2` is twice the error bound.
    fn finish(sum: i32, ebx2: f64) -> Self;
}

impl Output for i32 {
    const ELEM: u64 = 1;
    const CONVERTS: bool = false;
    fn finish(sum: i32, _: f64) -> i32 {
        sum
    }
}

impl Output for f32 {
    const ELEM: u64 = 2;
    const CONVERTS: bool = true;
    fn finish(sum: i32, ebx2: f64) -> f32 {
        dequantize(sum, ebx2)
    }
}

/// A walk's input and output, as its kernels read and write them.
#[derive(Clone, Copy)]
struct Io<'a, O: Output> {
    src: Src<'a>,
    dst: &'a GpuBuffer<O>,
    ebx2: f64,
}

impl<O: Output> Io<'_, O> {
    /// Warp load of the walk's input at `addr`'s indices: codes decode on
    /// load (one ALU instruction), and an in-place walk reads its output
    /// through an i32 view.
    fn load(self, w: &mut WarpCtx<'_>, addr: impl FnMut(Lane) -> Option<usize>) -> [i32; 32] {
        match self.src {
            Src::Codes(words) => {
                let codes: [u16; 32] = w.load_as(words, addr);
                w.lanes(|l| code_to_delta(codes[l.id]))
            }
            Src::Sums(q) => w.load(q, addr),
            Src::InPlace(_) => self.load_partial(w, addr),
        }
    }

    /// Warp load of the i32 partial sums a split walk left in its output.
    fn load_partial(
        self,
        w: &mut WarpCtx<'_>,
        addr: impl FnMut(Lane) -> Option<usize>,
    ) -> [i32; 32] {
        w.load_as(self.dst, addr)
    }

    /// Warp store of `sums` at `addr`'s indices: finished (a dequantizing
    /// walk converts them first, one ALU instruction), or as i32 partial
    /// sums through an i32 view of the output.
    fn store(
        self,
        w: &mut WarpCtx<'_>,
        sums: &[i32; 32],
        finish: bool,
        mut addr: impl FnMut(Lane) -> Option<usize>,
    ) {
        if !finish {
            w.store_as(self.dst, |l| addr(l).map(|a| (a, sums[l.id])));
        } else if O::CONVERTS {
            let vals = w.lanes(|l| O::finish(sums[l.id], self.ebx2));
            w.store(self.dst, |l| addr(l).map(|a| (a, vals[l.id])));
        } else {
            w.store(self.dst, |l| addr(l).map(|a| (a, O::finish(sums[l.id], self.ebx2))));
        }
    }
}

/// Smallest number of rows a column-walk segment spans, so the totals
/// buffer is at most a quarter of the field and each recursion level
/// shortens the walked axis.
const MIN_SEGMENT_ROWS: usize = 4;

/// A walk split into `count` segments per line, each `len` values (row
/// walk) or rows (column walk) long; the last segment may be shorter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segments {
    len: usize,
    count: usize,
}

/// Modeled time of a launch of `warps` warps that moves `bytes` over the
/// global-memory pipe: `Gpu::finish_launch`'s roofline with that pipe
/// binding, which it does for every walk and carry kernel.
fn priced(spec: &DeviceSpec, bytes: usize, warps: usize) -> f64 {
    spec.launch_overhead + bytes as f64 / spec.effective_bandwidth() / spec.occupancy(warps as f64)
}

/// Pick the cheaper of the unsplit walk and `segments`, given the priced
/// unsplit walk and the split's three passes: the split must undercut the
/// unsplit walk by one launch overhead, which absorbs the sector rounding
/// the byte counts leave out (DESIGN §16).
fn cheaper(
    spec: &DeviceSpec,
    unsplit: f64,
    split: f64,
    segments: Segments,
) -> (f64, Option<Segments>) {
    if split + spec.launch_overhead < unsplit {
        (split, Some(segments))
    } else {
        (unsplit, None)
    }
}

/// Values and segments a split walk's carry pass rewrites, out of `n` and
/// `count`: every one when it finishes every segment (`every`), else all
/// but the first segment's `len`.
fn carried(n: usize, len: usize, count: usize, every: bool) -> (usize, usize) {
    if every {
        (n, count)
    } else {
        (n - len, count - 1)
    }
}

/// The row walk's plan for `rows` rows of `nx` values, loading `load`
/// bytes and storing 4 per value, whose carry finishes every segment when
/// `every`: its priced time and its segments (`None`: the unsplit walk).
/// Segments are whole multiples of 32 values, as many per row as it takes
/// to launch the saturating warp count. The totals walk is the i32 walk.
fn row_plan(
    spec: &DeviceSpec,
    rows: usize,
    nx: usize,
    load: usize,
    every: bool,
) -> (f64, Option<Segments>) {
    let walked = (load + 4) * rows * nx;
    let unsplit = priced(spec, walked, rows.div_ceil(8) * 8);
    if rows == 0 {
        return (unsplit, None);
    }
    let warps = |segs: usize| segs.div_ceil(8) * 8 * rows;
    let per_row = (spec.saturating_warps() as usize).div_ceil(rows);
    let len = (nx / per_row).max(32) / 32 * 32;
    let count = nx.div_ceil(len);
    if count < 2 {
        return (unsplit, None);
    }
    let (values, segs) = carried(nx, len, count, every);
    let split = priced(spec, walked + 32 * rows * count, warps(count))
        + row_plan(spec, rows, count, 4, false).0
        + priced(spec, 8 * rows * values + 32 * rows * (count - 1), warps(segs));
    cheaper(spec, unsplit, split, Segments { len, count })
}

/// The column walk's plan for the `(planes, ny, nx)` view, loading `load`
/// bytes and storing 4 per value, whose carry finishes every segment when
/// `every`: `ny`-row walks of 32 adjacent columns, split into segments of
/// at least [`MIN_SEGMENT_ROWS`] rows, as many as it takes to launch the
/// saturating warp count. The totals walk is the i32 walk.
fn column_plan(
    spec: &DeviceSpec,
    view: Shape,
    load: usize,
    every: bool,
) -> (f64, Option<Segments>) {
    let (planes, ny, nx) = view;
    let lines = nx.div_ceil(32) * planes;
    let walked = (load + 4) * planes * ny * nx;
    let unsplit = priced(spec, walked, lines);
    if lines == 0 {
        return (unsplit, None);
    }
    let per_line = (spec.saturating_warps() as usize).div_ceil(lines);
    let len = (ny / per_line).max(MIN_SEGMENT_ROWS);
    let count = ny.div_ceil(len);
    if count < 2 {
        return (unsplit, None);
    }
    let (rows, segs) = carried(ny, len, count, every);
    let split = priced(spec, walked + 4 * planes * count * nx, lines * count)
        + column_plan(spec, (planes, count, nx), 4, false).0
        + priced(spec, 8 * planes * rows * nx + 4 * planes * (count - 1) * nx, lines * segs);
    cheaper(spec, unsplit, split, Segments { len, count })
}

/// One warp's inclusive scan of the `len` values from `base`: 32-value
/// chunks, each a warp scan plus the running carry, stored finished or,
/// in a split walk's segments, as i32 partial sums. Returns the run's
/// total.
fn scan_run<O: Output>(
    w: &mut WarpCtx<'_>,
    io: Io<'_, O>,
    base: usize,
    len: usize,
    finish: bool,
) -> u32 {
    let mut carry = 0u32;
    let mut x = 0usize;
    while x < len {
        let at = |l: Lane| (x + l.id < len).then(|| base + x + l.id);
        let v = io.load(w, at);
        let scanned = w.scan_add(&v.map(|d| d as u32));
        let sums = scanned.map(|s| s.wrapping_add(carry) as i32);
        io.store(w, &sums, finish, at);
        carry = carry.wrapping_add(scanned[32.min(len - x) - 1]);
        x += 32;
    }
    carry
}

/// Step 5a: integrate (inclusive prefix sum) along x from `src` into
/// `dst`. The row walk gives each row one warp; when that cannot fill the
/// device, rows split into segments (one warp each) whose totals are
/// integrated recursively and carried back into every later segment.
fn integrate_x<O: Output>(
    gpu: &mut Gpu,
    src: Src<'_>,
    dst: &mut GpuBuffer<O>,
    shape: Shape,
    ebx2: f64,
) {
    let rows = shape.0 * shape.1;
    let segments = row_plan(gpu.spec(), rows, shape.2, src.bytes(), O::CONVERTS).1;
    row_walk(gpu, src, dst, shape, ebx2, segments);
}

/// The row walk with the given split (`None`: one warp per row).
fn row_walk<O: Output>(
    gpu: &mut Gpu,
    src: Src<'_>,
    dst: &mut GpuBuffer<O>,
    shape: Shape,
    ebx2: f64,
    segments: Option<Segments>,
) {
    let (nz, ny, nx) = shape;
    let rows = nz * ny;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let io = Io { src, dst: &*dst, ebx2 };
    // A 32-byte sector holds 16 codes or 8 i32s: a row base's sector
    // residue is `row * nx` modulo this, which also fixes the residue of
    // the 4-byte stores at the same indices.
    let residue = 32 / src.bytes();
    match segments {
        None => {
            // Two classes per residue of the block's first row: only the
            // last block can hold inactive rows or see the grid end, and
            // warp j's row base (8b + j)*nx is congruent to j*nx plus
            // 8b*nx, which is 0 modulo 8 (i32 loads) and, modulo 16 (u16
            // codes), 8 times b*nx's parity. The signature is the row
            // count and length, which every predicate, address and loop
            // bound reads, and the element types, which set the loads'
            // widths and the conversions.
            let nblocks = rows.div_ceil(8);
            let class =
                |b: usize| u64::from(b == nblocks - 1) | ((8 * b * nx % residue) as u64) << 1;
            let sig = [rows as u64, nx as u64, src.elem(), O::ELEM];
            let grid = nblocks as u32;
            gpu.launch_classed("decode.integrate_x", grid, (32u32, 8u32), &sig, class, |blk| {
                let row0 = blk.block_linear() * 8;
                blk.warps(|w| {
                    let row = row0 + w.warp_id;
                    if row < rows {
                        scan_run(w, io, row * nx, nx, true);
                    }
                });
            });
            if analytic {
                fill_rows(src, dst.host_mut(), nx, nx, None, ebx2);
            }
        }
        Some(Segments { len, count }) => {
            let mut totals: GpuBuffer<i32> = gpu.alloc(rows * count);
            // Block (bx, row) of a grid with `bpr` blocks per row holds 8
            // of the row's segments. Two classes per row residue: only a
            // row's last block holds the short segment and idle warps, and
            // segment bases (row*nx + a multiple of 32) keep the row's
            // sector residue; the one-lane total store (the carry's
            // broadcast total load) is one sector wherever it lands. Both
            // kernels' signature adds the segment length and count to the
            // unsplit walk's, so a split walk never shares one with it.
            let sig = [rows as u64, nx as u64, len as u64, count as u64, src.elem(), O::ELEM];
            let class = |bpr: usize| {
                move |linear: usize| {
                    let row = linear / bpr;
                    u64::from(linear % bpr == bpr - 1) | ((row * nx % residue) as u64) << 1
                }
            };
            let bpr = count.div_ceil(8);
            let grid = (bpr as u32, rows as u32);
            gpu.launch_classed(
                "decode.integrate_x",
                grid,
                (32u32, 8u32),
                &sig,
                class(bpr),
                |blk| {
                    let row = blk.block_idx.y as usize;
                    let seg0 = blk.block_idx.x as usize * 8;
                    blk.warps(|w| {
                        let seg = seg0 + w.warp_id;
                        if seg < count {
                            let start = seg * len;
                            let n = len.min(nx - start);
                            let total = scan_run(w, io, row * nx + start, n, false);
                            let at = row * count + seg;
                            w.store(&totals, |l| (l.id == 0).then_some((at, total as i32)));
                        }
                    });
                },
            );
            // The totals walk reads the raw totals the fill computes, in
            // place of a snapshot of the buffer.
            let sums = if analytic { row_sums(src, rows, nx, len) } else { Vec::new() };
            integrate_x(gpu, Src::InPlace(&sums), &mut totals, (1, rows, count), 0.0);
            // Warps for segments `first..count`: a broadcast load of the
            // previous segment's inclusive total (none for segment 0),
            // then one add per value. A dequantizing walk finishes every
            // segment, so block 0 of each row is a class of its own.
            let first = usize::from(!O::CONVERTS);
            let bpr = (count - first).div_ceil(8);
            let grid = (bpr as u32, rows as u32);
            let carry_class = |linear: usize| {
                class(bpr)(linear) | u64::from(first == 0 && linear.is_multiple_of(bpr)) << 5
            };
            gpu.launch_classed(
                "decode.integrate_x_carry",
                grid,
                (32u32, 8u32),
                &sig,
                carry_class,
                |blk| {
                    let row = blk.block_idx.y as usize;
                    let seg0 = first + blk.block_idx.x as usize * 8;
                    blk.warps(|w| {
                        let seg = seg0 + w.warp_id;
                        if seg >= count {
                            return;
                        }
                        let start = seg * len;
                        let (base, n) = (row * nx + start, len.min(nx - start));
                        let carry = if seg > 0 {
                            w.load(&totals, |_| Some(row * count + seg - 1))
                        } else {
                            [0; 32]
                        };
                        let mut x = 0usize;
                        while x < n {
                            let at = |l: Lane| (x + l.id < n).then(|| base + x + l.id);
                            let v = io.load_partial(w, at);
                            let sums = core::array::from_fn(|i| v[i].wrapping_add(carry[i]));
                            io.store(w, &sums, true, at);
                            x += 32;
                        }
                    });
                },
            );
            if analytic {
                fill_rows(src, dst.host_mut(), nx, len, Some(&totals), ebx2);
            }
            gpu.free(totals);
        }
    }
}

/// Values per host read of an analytic walk fill.
const PIECE: usize = 1024;

/// Fewest values one pool task of an analytic walk fill covers, so its
/// stack [`Piece`] is paid once per task.
const TASK_VALUES: usize = 1 << 13;

/// A walk fill's stack buffer: one piece of a walk's input as i32s, and
/// the words that hold it when the input is codes.
struct Piece {
    vals: [i32; PIECE],
    words: [u32; PIECE / 2 + 1],
}

impl Piece {
    fn new() -> Self {
        Piece { vals: [0; PIECE], words: [0; PIECE / 2 + 1] }
    }

    /// Call `f(at, values)` for each piece of values `start..start + len`
    /// of `src`, read in place, with `at` counted from `start`.
    fn each(&mut self, src: Src<'_>, start: usize, len: usize, mut f: impl FnMut(usize, &[i32])) {
        for at in (0..len).step_by(PIECE) {
            let n = PIECE.min(len - at);
            f(at, self.read(src, start + at, n));
        }
    }

    /// Values `start..start + len` of `src`, `len <= PIECE`: codes decode
    /// from their words (an odd start is the high half of its word), and
    /// an in-place walk reads its snapshot.
    fn read(&mut self, src: Src<'_>, start: usize, len: usize) -> &[i32] {
        let vals = &mut self.vals[..len];
        match src {
            Src::Codes(words) => {
                let w0 = start / 2;
                let buf = &mut self.words[..(start + len).div_ceil(2) - w0];
                words.read_into(w0, buf);
                let (head, body) = vals.split_at_mut(start % 2);
                if let [hi] = head {
                    *hi = code_to_delta((buf[0] >> 16) as u16);
                }
                for (pair, &w) in body.chunks_mut(2).zip(&buf[start % 2..]) {
                    pair[0] = code_to_delta(w as u16);
                    if let [_, hi] = pair {
                        *hi = code_to_delta((w >> 16) as u16);
                    }
                }
            }
            Src::Sums(q) => q.read_into(start, vals),
            Src::InPlace(before) => vals.copy_from_slice(&before[start..start + len]),
        }
        vals
    }
}

/// The analytic fill of a row walk: each run of `len` values from a row's
/// start (a segment, or the whole row when `len == nx`) is its carry plus
/// its running sum of `src`, finished into `dst`. A segment's carry is the
/// previous segment's inclusive total in `totals`; the first has none.
fn fill_rows<O: Output>(
    src: Src<'_>,
    dst: &mut [O],
    nx: usize,
    len: usize,
    totals: Option<&GpuBuffer<i32>>,
    ebx2: f64,
) {
    let count = nx.div_ceil(len);
    let mut runs: Vec<&mut [O]> = dst.chunks_mut(nx).flat_map(|row| row.chunks_mut(len)).collect();
    let per_task = (TASK_VALUES / len).max(1);
    runs.par_chunks_mut(per_task).enumerate().for_each(|(t, runs)| {
        let mut piece = Piece::new();
        for (k, run) in runs.iter_mut().enumerate() {
            let i = t * per_task + k;
            let mut acc = match totals {
                Some(totals) if !i.is_multiple_of(count) => totals.host_read(i - 1),
                _ => 0,
            };
            piece.each(src, i / count * nx + i % count * len, run.len(), |at, vals| {
                for (o, &v) in run[at..].iter_mut().zip(vals) {
                    acc = acc.wrapping_add(v);
                    *o = O::finish(acc, ebx2);
                }
            });
        }
    });
}

/// The raw totals a split row walk stores: each segment's wrapping sum of
/// `src`, segments of `len` values from each of `rows` rows' start.
fn row_sums(src: Src<'_>, rows: usize, nx: usize, len: usize) -> Vec<i32> {
    let count = nx.div_ceil(len);
    let mut sums = vec![0i32; rows * count];
    let per_task = (TASK_VALUES / len).max(1);
    sums.par_chunks_mut(per_task).enumerate().for_each(|(t, sums)| {
        let mut piece = Piece::new();
        for (k, sum) in sums.iter_mut().enumerate() {
            let i = t * per_task + k;
            let x0 = i % count * len;
            piece.each(src, i / count * nx + x0, len.min(nx - x0), |_, vals| {
                *sum = vals.iter().fold(*sum, |acc, &v| acc.wrapping_add(v));
            });
        }
    });
    sums
}

/// The axis a column walk integrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    Y,
    Z,
}

impl Column {
    /// Record names of the walk and of its carry kernel.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Column::Y => ("decode.integrate_y", "decode.integrate_y_carry"),
            Column::Z => ("decode.integrate_z", "decode.integrate_z_carry"),
        }
    }

    /// The `(planes, walked rows, columns)` view of `shape`: the y walk
    /// walks each plane's rows, the z walk the planes of the
    /// `(1, nz, ny*nx)` view, where each plane is one row.
    fn view(self, (nz, ny, nx): Shape) -> Shape {
        match self {
            Column::Y => (nz, ny, nx),
            Column::Z => (1, nz, ny * nx),
        }
    }

    /// Shape of `count` segment totals per column, in `shape`'s axes.
    fn totals_shape(self, (nz, ny, nx): Shape, count: usize) -> Shape {
        match self {
            Column::Y => (nz, count, nx),
            Column::Z => (count, ny, nx),
        }
    }
}

/// Step 5b/5c: integrate along `axis` from `src` into `dst`: warps walk
/// the axis for 32 consecutive columns (coalesced row-major loads), split
/// into segments of rows when the column groups cannot fill the device.
fn integrate_columns<O: Output>(
    gpu: &mut Gpu,
    axis: Column,
    src: Src<'_>,
    dst: &mut GpuBuffer<O>,
    shape: Shape,
    ebx2: f64,
) {
    let view = axis.view(shape);
    let segments = column_plan(gpu.spec(), view, src.bytes(), O::CONVERTS).1;
    column_walk(gpu, axis, src, dst, shape, ebx2, segments);
}

/// The column walk with the given split (`None`: one segment of every
/// row). Block `(bx, s, z)` is one warp summing down segment `s` of the 32
/// columns from `bx*32` in plane `z`.
fn column_walk<O: Output>(
    gpu: &mut Gpu,
    axis: Column,
    src: Src<'_>,
    dst: &mut GpuBuffer<O>,
    shape: Shape,
    ebx2: f64,
    segments: Option<Segments>,
) {
    let view @ (planes, ny, nx) = axis.view(shape);
    let Segments { len, count } = segments.unwrap_or(Segments { len: ny, count: 1 });
    let col_groups = nx.div_ceil(32);
    let (name, carry_name) = axis.names();
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let totals: Option<GpuBuffer<i32>> = (count > 1).then(|| gpu.alloc(planes * count * nx));
    let io = Io { src, dst: &*dst, ebx2 };
    let residue = 32 / src.bytes();
    // Classes: the ragged column group, the short last segment, and the
    // sector residues of the segment's first row base (modulo the loads'
    // values per sector, as for the row walk) and of its totals row
    // (bx*32 is a multiple of 16, so neither depends on bx). The walk's
    // and the carry's signature: the view's shape and the segment length
    // and count, which every predicate, address and loop bound reads (the
    // count also decides whether totals are stored), and the element
    // types.
    let sig = [planes as u64, ny as u64, nx as u64, len as u64, count as u64, src.elem(), O::ELEM];
    let class = |bx: usize, s: usize, z: usize, totals_row: usize| {
        let rows_base = ((z * ny + s * len) * nx % residue) as u64;
        let totals_base = ((z * count + totals_row) * nx % 8) as u64;
        u64::from(bx == col_groups - 1)
            | u64::from(s == count - 1) << 1
            | rows_base << 2
            | totals_base << 6
    };
    let walk_class = |linear: usize| {
        let (bx, s, z) =
            (linear % col_groups, linear / col_groups % count, linear / (col_groups * count));
        class(bx, s, z, s)
    };
    let grid = (col_groups as u32, count as u32, planes as u32);
    gpu.launch_classed(name, grid, 32u32, &sig, walk_class, |blk| {
        let x0 = blk.block_idx.x as usize * 32;
        let s = blk.block_idx.y as usize;
        let z = blk.block_idx.z as usize;
        let width = 32.min(nx - x0);
        blk.warps(|w| {
            let y0 = s * len;
            let base = (z * ny + y0) * nx + x0;
            let sums = scan_columns(w, io, base, len.min(ny - y0), nx, width, totals.is_none());
            if let Some(totals) = &totals {
                let base = (z * count + s) * nx + x0;
                w.store(totals, |l| (l.id < width).then(|| (base + l.id, sums[l.id])));
            }
        });
    });
    let Some(mut totals) = totals else {
        if analytic {
            fill_columns(src, dst.host_mut(), view, len, None, ebx2);
        }
        return;
    };
    // The totals walk reads the raw totals the fill computes, in place of
    // a snapshot of the buffer.
    let sums = if analytic { column_sums(src, view, len) } else { Vec::new() };
    let totals_shape = axis.totals_shape(shape, count);
    integrate_columns(gpu, axis, Src::InPlace(&sums), &mut totals, totals_shape, 0.0);
    // Block (bx, s - first, z) adds the previous segment's inclusive
    // column totals to segment s >= first (none to segment 0, which a
    // dequantizing walk finishes too, its own class); classes as for the
    // walk.
    let first = usize::from(!O::CONVERTS);
    let carried = count - first;
    let carry_class = |linear: usize| {
        let stride = col_groups * carried;
        let (bx, s, z) =
            (linear % col_groups, first + linear / col_groups % carried, linear / stride);
        class(bx, s, z, s.saturating_sub(1)) | u64::from(s == 0) << 9
    };
    let grid = (col_groups as u32, carried as u32, planes as u32);
    gpu.launch_classed(carry_name, grid, 32u32, &sig, carry_class, |blk| {
        let x0 = blk.block_idx.x as usize * 32;
        let s = first + blk.block_idx.y as usize;
        let z = blk.block_idx.z as usize;
        let width = 32.min(nx - x0);
        blk.warps(|w| {
            let prev = (z * count + s.saturating_sub(1)) * nx + x0;
            let carry = if s > 0 {
                w.load(&totals, |l| (l.id < width).then_some(prev + l.id))
            } else {
                [0; 32]
            };
            let y0 = s * len;
            for y in y0..(y0 + len).min(ny) {
                let at = |l: Lane| (l.id < width).then_some((z * ny + y) * nx + x0 + l.id);
                let v = io.load_partial(w, at);
                let sums = core::array::from_fn(|i| v[i].wrapping_add(carry[i]));
                io.store(w, &sums, true, at);
            }
        });
    });
    if analytic {
        fill_columns(src, dst.host_mut(), view, len, Some(&totals), ebx2);
    }
    gpu.free(totals);
}

/// One warp's running sum down `rows` rows of `width` adjacent columns from
/// `base`, `pitch` values apart, storing each row's prefix finished or as
/// partial sums. Returns the column sums.
fn scan_columns<O: Output>(
    w: &mut WarpCtx<'_>,
    io: Io<'_, O>,
    base: usize,
    rows: usize,
    pitch: usize,
    width: usize,
    finish: bool,
) -> [i32; 32] {
    let mut acc = [0i32; 32];
    for y in 0..rows {
        let at = |l: Lane| (l.id < width).then_some(base + y * pitch + l.id);
        let v = io.load(w, at);
        for i in 0..32 {
            acc[i] = acc[i].wrapping_add(v[i]);
        }
        io.store(w, &acc, finish, at);
    }
    acc
}

/// The analytic fill of a column walk over the `(planes, ny, nx)` view:
/// down each segment of `len` rows, each column is its carry plus its
/// running sum of `src`, finished into `dst`. A segment's carry is the
/// previous segment's inclusive column totals in `totals`; the first has
/// none. One pool task per segment of a plane.
fn fill_columns<O: Output>(
    src: Src<'_>,
    dst: &mut [O],
    view: Shape,
    len: usize,
    totals: Option<&GpuBuffer<i32>>,
    ebx2: f64,
) {
    let (_, ny, nx) = view;
    let count = ny.div_ceil(len);
    let slabs: Vec<&mut [O]> =
        dst.chunks_mut(ny * nx).flat_map(|plane| plane.chunks_mut(len * nx)).collect();
    slabs.into_par_iter().enumerate().for_each(|(i, slab)| {
        let mut acc = vec![0i32; nx];
        if let Some(totals) = totals.filter(|_| !i.is_multiple_of(count)) {
            totals.read_into((i - 1) * nx, &mut acc);
        }
        let mut piece = Piece::new();
        let base = (i / count * ny + i % count * len) * nx;
        for (y, row) in slab.chunks_mut(nx).enumerate() {
            piece.each(src, base + y * nx, nx, |at, vals| {
                for ((o, a), &v) in row[at..].iter_mut().zip(&mut acc[at..]).zip(vals) {
                    *a = a.wrapping_add(v);
                    *o = O::finish(*a, ebx2);
                }
            });
        }
    });
}

/// The raw totals a split column walk stores: each segment's column sums
/// of `src` over the `(planes, ny, nx)` view, segments of `len` rows.
fn column_sums(src: Src<'_>, view: Shape, len: usize) -> Vec<i32> {
    let (planes, ny, nx) = view;
    let count = ny.div_ceil(len);
    let mut sums = vec![0i32; planes * count * nx];
    sums.par_chunks_mut(nx).enumerate().for_each(|(i, sums)| {
        let mut piece = Piece::new();
        let y0 = i % count * len;
        for y in y0..(y0 + len).min(ny) {
            piece.each(src, (i / count * ny + y) * nx, nx, |at, vals| {
                for (s, &v) in sums[at..].iter_mut().zip(vals) {
                    *s = s.wrapping_add(v);
                }
            });
        }
    });
    sums
}

/// Step 5: inverse dual-quantization, from the words [`bit_unshuffle`]
/// returns to the reconstructed field. The x walk decodes the codes; in a
/// 2-D or 3-D field it stores i32 sums, the 3-D y walk integrates them in
/// place, and the last axis's walk dequantizes into the field.
pub fn inverse_lorenzo(
    gpu: &mut Gpu,
    words: &GpuBuffer<u32>,
    shape: Shape,
    eb: f64,
) -> GpuBuffer<f32> {
    let (nz, ny, nx) = shape;
    let n = nz * ny * nx;
    assert!(words.len() * 2 >= n, "not enough words for {n} codes");
    let ebx2 = 2.0 * eb;
    let mut out: GpuBuffer<f32> = gpu.alloc(n);
    let codes = Src::Codes(words);
    let rank = rank_of(shape);
    if rank == 1 {
        integrate_x(gpu, codes, &mut out, shape, ebx2);
        return out;
    }
    let mut q: GpuBuffer<i32> = gpu.alloc(n);
    integrate_x(gpu, codes, &mut q, shape, 0.0);
    let last = if rank == 3 {
        // The one in-place pass: its fill reads a snapshot, since the
        // representative blocks overwrite their rows.
        let analytic = gpu.effective_engine() == Engine::Analytic;
        let before = if analytic { q.to_vec() } else { Vec::new() };
        integrate_columns(gpu, Column::Y, Src::InPlace(&before), &mut q, shape, 0.0);
        Column::Z
    } else {
        Column::Y
    };
    integrate_columns(gpu, last, Src::Sums(&q), &mut out, shape, ebx2);
    gpu.free(q);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bitshuffle as cpu_shuffle, lorenzo, zeroblock};
    use fzgpu_sim::device::{A100, A4000};

    /// `run` on a fresh device of each engine: the outputs must be equal,
    /// and so must the two timelines, bit for bit.
    fn on_both_engines<T: PartialEq + core::fmt::Debug>(run: impl Fn(&mut Gpu) -> T) -> T {
        let record = |engine: Engine| {
            let mut gpu = Gpu::new(A100);
            gpu.set_engine(engine);
            let out = run(&mut gpu);
            (out, format!("{:?}", gpu.timeline()))
        };
        let interpreted = record(Engine::Interpreted);
        assert_eq!(interpreted, record(Engine::Analytic));
        interpreted.0
    }

    #[test]
    fn expand_flags_matches_bits() {
        let bits: Vec<u32> =
            (0..70u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0b1010_0001).collect();
        for nflags in [64, 2040, 70 * 32] {
            let flags = on_both_engines(|gpu| {
                let d = gpu.upload(&bits);
                expand_flags(gpu, &d, nflags).to_vec()
            });
            for b in 0..nflags {
                assert_eq!(flags[b], (bits[b / 32] >> (b % 32) & 1) as u8, "flag {b}");
            }
        }
    }

    #[test]
    fn scatter_inverts_compact() {
        // 1300 blocks: a second fill task, and a ragged last warp.
        let nblocks = 1300;
        let mut words = vec![0u32; nblocks * BLOCK_WORDS];
        for b in (0..nblocks).step_by(3) {
            words[b * BLOCK_WORDS + 1] = b as u32 + 7;
        }
        let reference = zeroblock::encode(&words);
        let rebuilt = on_both_engines(|gpu| {
            let d_payload = gpu.upload(&reference.payload);
            let d_bits = gpu.upload(&reference.bit_flags);
            let flags = expand_flags(gpu, &d_bits, reference.num_blocks);
            let wide = super::super::encode::widen_flags(gpu, &flags);
            let (offsets, total) = super::super::encode::flag_offsets(gpu, &wide);
            assert_eq!(total * BLOCK_WORDS, reference.payload.len());
            scatter(gpu, &d_payload, &flags, &offsets).to_vec()
        });
        assert_eq!(rebuilt, words);
    }

    #[test]
    fn unshuffle_inverts_gpu_shuffle() {
        let words: Vec<u32> =
            (0..2 * TILE_WORDS as u32).map(|i| i.wrapping_mul(0x9E3779B9) ^ (i << 3)).collect();
        let shuffled = cpu_shuffle::shuffle(&words);
        let back = on_both_engines(|gpu| {
            let d = gpu.upload(&shuffled);
            bit_unshuffle(gpu, &d).to_vec()
        });
        assert_eq!(back, words);
    }

    /// Sign-magnitude codes of deltas in -11..=12, over `n` values.
    fn codes(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let d = ((i * 31) % 23) as i32 - 11 + (i % 7 == 0) as i32;
                crate::quant::delta_to_code(d)
            })
            .collect()
    }

    /// Reconstruct `shape` from packed codes on both engines: each must
    /// match `lorenzo::inverse`, and the two timelines must agree bit for
    /// bit. Returns the carry kernels launched, in order, repeats merged.
    fn inverse_on_both_engines(shape: Shape) -> Vec<String> {
        let (nz, ny, nx) = shape;
        let codes = codes(nz * ny * nx);
        let words = crate::pack::pack_codes(&codes);
        let eb = 1e-3;
        let cpu: Vec<u32> =
            lorenzo::inverse(&codes, shape, eb).iter().map(|v| v.to_bits()).collect();
        let (field, names) = on_both_engines(|gpu| {
            let d = gpu.upload(&words);
            gpu.reset_timeline();
            let out = inverse_lorenzo(gpu, &d, shape, eb);
            let names: Vec<String> = gpu.timeline().iter().map(|e| e.name().to_string()).collect();
            (out.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(), names)
        });
        assert!(field == cpu, "{shape:?} differs from lorenzo::inverse");
        let mut carries: Vec<String> =
            names.into_iter().filter(|n| n.ends_with("_carry")).collect();
        carries.dedup();
        carries
    }

    /// Smallest 1-D length whose typed row walk (codes to f32) splits on
    /// `spec`.
    fn first_split_length(spec: &DeviceSpec) -> usize {
        let splits = |n: usize| row_plan(spec, 1, n, 2, true).1.is_some();
        let (mut lo, mut hi) = (32usize, 1 << 24);
        assert!(splits(hi));
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if splits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn inverse_matches_cpu_3d() {
        // Where the splits happen: the 3 long rows, the 900-row columns of
        // (1, 900, 40) (their totals split again), QMCPACK's z walk (156
        // column groups), and odd row lengths, whose rows start at odd
        // codes.
        for (shape, carries) in [
            ((6, 40, 70), vec![]),
            ((4, 33, 65), vec![]),
            ((1, 3, 100_003), vec!["decode.integrate_x_carry"]),
            ((1, 900, 40), vec!["decode.integrate_y_carry"]),
            ((496, 69, 72), vec!["decode.integrate_z_carry"]),
        ] {
            assert_eq!(inverse_on_both_engines(shape), carries, "{shape:?}");
        }
    }

    #[test]
    fn inverse_matches_cpu_1d_long_row() {
        // Rows longer than one warp stride exercise the carry logic; the
        // lengths around the first split exercise the segment walk.
        let split = first_split_length(&A100);
        for n in [1000, split - 1, split, split + 1, 100_003] {
            let carried = !inverse_on_both_engines((1, 1, n)).is_empty();
            assert_eq!(carried, n >= split, "length {n}");
        }
    }

    #[test]
    fn codes_decode_from_both_halves_of_a_word() {
        // Twice the bound is 1, so the field is the running sum of the
        // decoded deltas 5, -3, 0, 32767, -32767.
        let codes: Vec<u16> = vec![5, 0x8003, 0, 32767, 0x8000 | 32767];
        let words = crate::pack::pack_codes(&codes);
        let field = on_both_engines(|gpu| {
            let d = gpu.upload(&words);
            inverse_lorenzo(gpu, &d, (1, 1, 5), 0.5).to_vec()
        });
        assert_eq!(field, vec![5.0, 2.0, 2.0, 32769.0, 2.0]);
    }

    /// The passes a reconstruction of `shape` runs, as (axis, input); the
    /// last stores f32, the rest i32.
    fn passes(shape: Shape) -> Vec<(Option<Column>, &'static str)> {
        match rank_of(shape) {
            1 => vec![(None, "codes")],
            2 => vec![(None, "codes"), (Some(Column::Y), "sums")],
            _ => vec![(None, "codes"), (Some(Column::Y), "in place"), (Some(Column::Z), "sums")],
        }
    }

    /// Modeled time of one pass over `shape` from a zeroed input, with the
    /// chosen plan, or unsplit.
    fn modeled<O: Output>(
        spec: DeviceSpec,
        shape: Shape,
        (axis, input): (Option<Column>, &str),
        chosen: bool,
    ) -> f64 {
        let n = shape.0 * shape.1 * shape.2;
        let mut gpu = Gpu::new(spec);
        gpu.set_engine(Engine::Analytic);
        let words = gpu.alloc::<u32>(n.div_ceil(2));
        let sums = gpu.alloc::<i32>(n);
        let mut dst = gpu.alloc::<O>(n);
        let before = vec![0i32; n];
        let src = match input {
            "codes" => Src::Codes(&words),
            "sums" => Src::Sums(&sums),
            _ => Src::InPlace(&before),
        };
        match axis {
            None => {
                let rows = shape.0 * shape.1;
                let plan = row_plan(&spec, rows, shape.2, src.bytes(), O::CONVERTS).1;
                row_walk(&mut gpu, src, &mut dst, shape, 1.0, plan.filter(|_| chosen));
            }
            Some(axis) => {
                let plan = column_plan(&spec, axis.view(shape), src.bytes(), O::CONVERTS).1;
                column_walk(&mut gpu, axis, src, &mut dst, shape, 1.0, plan.filter(|_| chosen));
            }
        }
        gpu.kernel_time()
    }

    #[test]
    fn chosen_plans_never_model_slower_than_the_unsplit_walk() {
        let mut shapes: Vec<Shape> = Vec::new();
        for k in 5..=22 {
            let p = 1usize << k;
            shapes.extend([p - 1, p, p + 1, p + p / 2].map(|n| (1, 1, n)));
        }
        // The reduced catalog and the store's chunks. HACC's 4M values, the
        // store's 1-D chunks (32768, 4096) and the serve sizes (16k, 64k,
        // 256k) are powers of two, swept above.
        shapes.extend([
            (1, 900, 1800),
            (50, 250, 250),
            (160, 160, 160),
            (496, 69, 72),
            (150, 150, 78),
            (32, 32, 32),
            (16, 16, 16),
            (64, 64, 48),
        ]);
        let mut split = 0;
        for spec in [A100, A4000] {
            for &shape in &shapes {
                let passes = passes(shape);
                let last = passes.len() - 1;
                // Every pass of the reconstruction, then the i32 row walk
                // that integrates a split walk's totals.
                for (i, &pass) in passes.iter().chain(&[(None, "in place")]).enumerate() {
                    let time = |chosen| match i == last {
                        true => modeled::<f32>(spec, shape, pass, chosen),
                        false => modeled::<i32>(spec, shape, pass, chosen),
                    };
                    let (t, t0) = (time(true), time(false));
                    assert!(t <= t0, "{pass:?} of {shape:?} on {}: {t} > {t0}", spec.name);
                    split += usize::from(t < t0);
                }
            }
        }
        assert!(split > 0);
    }

    #[test]
    fn full_inverse_pipeline_matches_cpu_inverse() {
        let shape = (4, 33, 65);
        let n = 4 * 33 * 65;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i % 65) as f32 * 0.1).sin() + ((i / 65 % 33) as f32 * 0.05).cos())
            .collect();
        let eb = 1e-3;
        let codes = lorenzo::forward(&data, shape, eb);
        let cpu_back = lorenzo::inverse(&codes, shape, eb);

        let mut gpu = Gpu::new(A100);
        let words = crate::pack::pack_codes(&codes);
        let d_words = gpu.upload(&words);
        let back = inverse_lorenzo(&mut gpu, &d_words, shape, eb);
        assert_eq!(back.to_vec(), cpu_back);
    }
}
