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
//! 5. unpack u16 codes, decode sign-magnitude deltas,
//! 6. integrate along each axis (inverse Lorenzo) and dequantize.
//!
//! The symmetry holds in the model to within the integrate passes.
//! Compress runs the Lorenzo predictor as one fused kernel; decompress
//! inverts it with one prefix-sum walk per axis. A walk whose launch
//! cannot fill the device (one warp per row of a 1-D field, a few column
//! groups walking a tall axis) splits into segments whose totals are
//! integrated recursively and carried back (DESIGN §16). With the split,
//! modeled decompress lands within about 2.6x of compress on every
//! catalog dataset (`BENCH_regress.json`; the regress gate bounds it at
//! 3x). The remaining gap is those separate passes: up to three full
//! reads and writes of the field, plus a carry pass per split walk,
//! against compress's single fused kernel.

use fzgpu_sim::{DeviceSpec, Engine, Gpu, GpuBuffer, WarpCtx};

use crate::fastpath::{deltas_from_words, dequantize_field, unshuffle_tiles};
use crate::gpu::encode::compaction_stats;
use crate::lorenzo::{self, rank_of, Shape};
use crate::pack::TILE_WORDS;
use crate::quant::code_to_delta;
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
        flag_bytes(&bit_flags.to_vec(), out.host_mut());
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
    let blocks = nflags.div_ceil(256) as u32;
    if gpu.effective_engine() == Engine::Analytic {
        // Mirror image of `encode.compact`: the same per-warp operation
        // sequence with load/store swapped, and the accounting charges
        // loads and stores identically — so the closed form is shared
        // (see [`compaction_stats`]). Zero blocks stay as allocated.
        let flags = byte_flags.to_vec();
        let offs = offsets.to_vec();
        let pay = payload.to_vec();
        let out = shuffled.host_mut();
        for (b, &f) in flags.iter().enumerate() {
            if f != 0 {
                let src = offs[b] as usize * BLOCK_WORDS;
                out[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS]
                    .copy_from_slice(&pay[src..src + BLOCK_WORDS]);
            }
        }
        let stats = compaction_stats(&flags, &offs, blocks as usize);
        gpu.launch_analytic("decode.scatter", blocks, 256u32, stats);
        return shuffled;
    }
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
        unshuffle_tiles(&shuffled.to_vec(), out.host_mut());
    }
    out
}

/// Step 5: unpack words to u16 codes and decode sign-magnitude deltas.
/// `words` is the tile-aligned stream [`bit_unshuffle`] returns.
pub fn codes_to_deltas(gpu: &mut Gpu, words: &GpuBuffer<u32>, n_codes: usize) -> GpuBuffer<i32> {
    let mut out: GpuBuffer<i32> = gpu.alloc(n_codes);
    let blocks = n_codes.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged (base = b*256 keeps
    // the pairwise i/2 word loads and i32 stores identically aligned).
    // The signature is `n_codes`, which the predicates read.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    let sig = [n_codes as u64];
    gpu.launch_classed("decode.codes_to_deltas", blocks, 256u32, &sig, class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let v = w.load(words, |l| {
                let i = base + l.ltid;
                (i < n_codes).then_some(i / 2)
            });
            w.store(&out, |l| {
                let i = base + l.ltid;
                (i < n_codes).then(|| {
                    let code = if i % 2 == 0 { v[l.id] as u16 } else { (v[l.id] >> 16) as u16 };
                    (i, code_to_delta(code))
                })
            });
        });
    });
    if analytic {
        deltas_from_words(&words.to_vec(), out.host_mut());
    }
    out
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

/// The row walk's plan for `rows` rows of `nx` values: its priced time and
/// its segments (`None`: the unsplit walk). Segments are whole multiples
/// of 32 values, as many per row as it takes to launch the saturating
/// warp count.
fn row_plan(spec: &DeviceSpec, rows: usize, nx: usize) -> (f64, Option<Segments>) {
    let unsplit = priced(spec, 8 * rows * nx, rows.div_ceil(8) * 8);
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
    let split = priced(spec, 8 * rows * nx + 32 * rows * count, warps(count))
        + row_plan(spec, rows, count).0
        + priced(spec, 8 * rows * (nx - len) + 32 * rows * (count - 1), warps(count - 1));
    cheaper(spec, unsplit, split, Segments { len, count })
}

/// The column walk's plan for the `(planes, ny, nx)` view: `ny`-row walks
/// of 32 adjacent columns, split into segments of at least
/// [`MIN_SEGMENT_ROWS`] rows, as many as it takes to launch the
/// saturating warp count.
fn column_plan(spec: &DeviceSpec, view: Shape) -> (f64, Option<Segments>) {
    let (planes, ny, nx) = view;
    let lines = nx.div_ceil(32) * planes;
    let unsplit = priced(spec, 8 * planes * ny * nx, lines);
    if lines == 0 {
        return (unsplit, None);
    }
    let per_line = (spec.saturating_warps() as usize).div_ceil(lines);
    let len = (ny / per_line).max(MIN_SEGMENT_ROWS);
    let count = ny.div_ceil(len);
    if count < 2 {
        return (unsplit, None);
    }
    let split = priced(spec, 8 * planes * ny * nx + 4 * planes * count * nx, lines * count)
        + column_plan(spec, (planes, count, nx)).0
        + priced(
            spec,
            8 * planes * (ny - len) * nx + 4 * planes * (count - 1) * nx,
            lines * (count - 1),
        );
    cheaper(spec, unsplit, split, Segments { len, count })
}

/// One warp's inclusive scan of `q[base..base + len]`: 32-value chunks,
/// each a warp scan plus the running carry. Returns the run's total.
fn scan_run(w: &mut WarpCtx<'_>, q: &GpuBuffer<i32>, base: usize, len: usize) -> u32 {
    let mut carry = 0u32;
    let mut x = 0usize;
    while x < len {
        let v = w.load(q, |l| (x + l.id < len).then(|| base + x + l.id));
        let as_u: [u32; 32] = core::array::from_fn(|i| v[i] as u32);
        let scanned = w.scan_add(&as_u);
        w.store(q, |l| {
            (x + l.id < len).then(|| (base + x + l.id, scanned[l.id].wrapping_add(carry) as i32))
        });
        let last = 32.min(len - x) - 1;
        carry = carry.wrapping_add(scanned[last]);
        x += 32;
    }
    carry
}

/// Step 6a: integrate (inclusive prefix sum) along x. The row walk gives
/// each row one warp; when that cannot fill the device, rows split into
/// segments (one warp each) whose totals are integrated recursively and
/// carried back into every later segment.
pub fn integrate_x(gpu: &mut Gpu, q: &mut GpuBuffer<i32>, shape: Shape) {
    let segments = row_plan(gpu.spec(), shape.0 * shape.1, shape.2).1;
    row_walk(gpu, q, shape, segments);
}

/// The row walk with the given split (`None`: one warp per row).
fn row_walk(gpu: &mut Gpu, q: &mut GpuBuffer<i32>, shape: Shape, segments: Option<Segments>) {
    let (nz, ny, nx) = shape;
    let rows = nz * ny;
    // In-place kernels: snapshot the input before the first representative
    // block mutates its rows, so the host fills read the original deltas.
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let snapshot = analytic.then(|| q.to_vec());
    let walked = &*q;
    match segments {
        None => {
            // Two classes: only the last block can hold inactive rows or
            // see the grid end. Row alignment is block-independent: warp
            // j's row base is (b*8 + j)*nx, congruent to j*nx mod 8 for
            // every b. The signature is the row count and length, which
            // every predicate, address and loop bound reads.
            let nblocks = rows.div_ceil(8) as u32;
            let class = |b: usize| u64::from(b == nblocks as usize - 1);
            let sig = [rows as u64, nx as u64];
            gpu.launch_classed("decode.integrate_x", nblocks, (32u32, 8u32), &sig, class, |blk| {
                let row0 = blk.block_linear() * 8;
                blk.warps(|w| {
                    let row = row0 + w.warp_id;
                    if row < rows {
                        scan_run(w, walked, row * nx, nx);
                    }
                });
            });
        }
        Some(Segments { len, count }) => {
            let mut totals: GpuBuffer<i32> = gpu.alloc(rows * count);
            // Block (bx, row) of a grid with `bpr` blocks per row holds 8
            // of the row's segments. Two classes per row residue: only a
            // row's last block holds the short segment and idle warps, and
            // segment bases (row*nx + a multiple of 32) keep the row's
            // sector alignment; the one-lane total store (the carry's
            // broadcast total load) is one sector wherever it lands. Both
            // kernels' signature adds the segment length and count to the
            // unsplit walk's, so a split walk never shares one with it.
            let sig = [rows as u64, nx as u64, len as u64, count as u64];
            let class = |bpr: usize| {
                move |linear: usize| {
                    let row = linear / bpr;
                    u64::from(linear % bpr == bpr - 1) | ((row * nx % 8) as u64) << 1
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
                            let total = scan_run(w, walked, row * nx + start, len.min(nx - start));
                            let at = row * count + seg;
                            w.store(&totals, |l| (l.id == 0).then_some((at, total as i32)));
                        }
                    });
                },
            );
            if let Some(vals) = &snapshot {
                let segs = vals.chunks(nx).flat_map(|row| row.chunks(len));
                for (t, seg) in totals.host_mut().iter_mut().zip(segs) {
                    *t = seg.iter().fold(0i32, |acc, &v| acc.wrapping_add(v));
                }
            }
            integrate_x(gpu, &mut totals, (1, rows, count));
            // Warps for segments 1..count: a broadcast load of the previous
            // segment's inclusive total, then one add per value.
            let bpr = (count - 1).div_ceil(8);
            let grid = (bpr as u32, rows as u32);
            let carry_class = class(bpr);
            gpu.launch_classed(
                "decode.integrate_x_carry",
                grid,
                (32u32, 8u32),
                &sig,
                carry_class,
                |blk| {
                    let row = blk.block_idx.y as usize;
                    let seg0 = 1 + blk.block_idx.x as usize * 8;
                    blk.warps(|w| {
                        let seg = seg0 + w.warp_id;
                        if seg >= count {
                            return;
                        }
                        let start = seg * len;
                        let (base, n) = (row * nx + start, len.min(nx - start));
                        let carry = w.load(&totals, |_| Some(row * count + seg - 1));
                        let mut x = 0usize;
                        while x < n {
                            let v = w.load(walked, |l| (x + l.id < n).then(|| base + x + l.id));
                            w.store(walked, |l| {
                                (x + l.id < n)
                                    .then(|| (base + x + l.id, v[l.id].wrapping_add(carry[l.id])))
                            });
                            x += 32;
                        }
                    });
                },
            );
            gpu.free(totals);
        }
    }
    if let Some(mut vals) = snapshot {
        // Per-row wrapping prefix sum: u32/i32 wrapping add is associative,
        // so the sequential sum equals the warp scans, carries and segment
        // totals.
        lorenzo::integrate_x(&mut vals, shape);
        q.host_mut().copy_from_slice(&vals);
    }
}

/// Step 6b: integrate along y: warps walk y for 32 consecutive x columns
/// (coalesced row-major loads), split into segments of rows when the
/// column groups cannot fill the device.
pub fn integrate_y(gpu: &mut Gpu, q: &mut GpuBuffer<i32>, shape: Shape) {
    integrate_columns(gpu, Column::Y, q, shape);
}

/// Step 6c: integrate along z: the column walk on the `(1, nz, ny*nx)`
/// view, where each plane is one row.
pub fn integrate_z(gpu: &mut Gpu, q: &mut GpuBuffer<i32>, shape: Shape) {
    integrate_columns(gpu, Column::Z, q, shape);
}

/// The column walk along `axis` with its planned split.
fn integrate_columns(gpu: &mut Gpu, axis: Column, q: &mut GpuBuffer<i32>, shape: Shape) {
    let segments = column_plan(gpu.spec(), axis.view(shape)).1;
    column_walk(gpu, axis, q, shape, segments);
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

    /// The `(planes, walked rows, columns)` view of `shape`.
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

    /// The host fill: `lorenzo`'s pass for this axis.
    fn fill(self, vals: &mut [i32], shape: Shape) {
        match self {
            Column::Y => lorenzo::integrate_y(vals, shape),
            Column::Z => lorenzo::integrate_z(vals, shape),
        }
    }
}

/// The column walk with the given split (`None`: one segment of every
/// row). Block `(bx, s, z)` is one warp summing down segment `s` of the 32
/// columns from `bx*32` in plane `z`.
fn column_walk(
    gpu: &mut Gpu,
    axis: Column,
    q: &mut GpuBuffer<i32>,
    shape: Shape,
    segments: Option<Segments>,
) {
    let (planes, ny, nx) = axis.view(shape);
    let Segments { len, count } = segments.unwrap_or(Segments { len: ny, count: 1 });
    let col_groups = nx.div_ceil(32);
    let (name, carry_name) = axis.names();
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let snapshot = analytic.then(|| q.to_vec());
    let totals: Option<GpuBuffer<i32>> = (count > 1).then(|| gpu.alloc(planes * count * nx));
    let walked = &*q;
    // Classes: the ragged column group, the short last segment, and the
    // u32-sector residues of the segment's first row base and of its
    // totals row (bx*32 is a multiple of 8, so neither depends on bx).
    // The walk's and the carry's signature: the view's shape and the
    // segment length and count, which every predicate, address and loop
    // bound reads (the count also decides whether totals are stored).
    let sig = [planes as u64, ny as u64, nx as u64, len as u64, count as u64];
    let class = |bx: usize, s: usize, z: usize, totals_row: usize| {
        let rows_base = ((z * ny + s * len) * nx % 8) as u64;
        let totals_base = ((z * count + totals_row) * nx % 8) as u64;
        u64::from(bx == col_groups - 1)
            | u64::from(s == count - 1) << 1
            | rows_base << 2
            | totals_base << 5
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
            let sums =
                scan_columns(w, walked, (z * ny + y0) * nx + x0, len.min(ny - y0), nx, width);
            if let Some(totals) = &totals {
                let base = (z * count + s) * nx + x0;
                w.store(totals, |l| (l.id < width).then(|| (base + l.id, sums[l.id])));
            }
        });
    });
    if let Some(mut totals) = totals {
        if let Some(vals) = &snapshot {
            let sums = totals.host_mut();
            sums.fill(0);
            for z in 0..planes {
                for y in 0..ny {
                    let row = &vals[(z * ny + y) * nx..][..nx];
                    let out = &mut sums[(z * count + y / len) * nx..][..nx];
                    for (o, &v) in out.iter_mut().zip(row) {
                        *o = o.wrapping_add(v);
                    }
                }
            }
        }
        integrate_columns(gpu, axis, &mut totals, axis.totals_shape(shape, count));
        // Block (bx, s - 1, z) adds the previous segment's inclusive column
        // totals to segment s >= 1; classes as for the walk.
        let carry_class = |linear: usize| {
            let stride = col_groups * (count - 1);
            let (bx, s, z) =
                (linear % col_groups, 1 + linear / col_groups % (count - 1), linear / stride);
            class(bx, s, z, s - 1)
        };
        let grid = (col_groups as u32, (count - 1) as u32, planes as u32);
        gpu.launch_classed(carry_name, grid, 32u32, &sig, carry_class, |blk| {
            let x0 = blk.block_idx.x as usize * 32;
            let s = 1 + blk.block_idx.y as usize;
            let z = blk.block_idx.z as usize;
            let width = 32.min(nx - x0);
            blk.warps(|w| {
                let prev = (z * count + s - 1) * nx + x0;
                let carry = w.load(&totals, |l| (l.id < width).then_some(prev + l.id));
                let y0 = s * len;
                for y in y0..(y0 + len).min(ny) {
                    let base = (z * ny + y) * nx + x0;
                    let v = w.load(walked, |l| (l.id < width).then_some(base + l.id));
                    w.store(walked, |l| {
                        (l.id < width).then(|| (base + l.id, v[l.id].wrapping_add(carry[l.id])))
                    });
                }
            });
        });
        gpu.free(totals);
    }
    if let Some(mut vals) = snapshot {
        axis.fill(&mut vals, shape);
        q.host_mut().copy_from_slice(&vals);
    }
}

/// One warp's running sum down `rows` rows of `width` adjacent columns from
/// `base`, `pitch` values apart, storing each row's prefix in place.
/// Returns the column sums.
fn scan_columns(
    w: &mut WarpCtx<'_>,
    q: &GpuBuffer<i32>,
    base: usize,
    rows: usize,
    pitch: usize,
    width: usize,
) -> [i32; 32] {
    let mut acc = [0i32; 32];
    for y in 0..rows {
        let row = base + y * pitch;
        let v = w.load(q, |l| (l.id < width).then_some(row + l.id));
        for i in 0..32 {
            acc[i] = acc[i].wrapping_add(v[i]);
        }
        let snapshot = acc;
        w.store(q, |l| (l.id < width).then(|| (row + l.id, snapshot[l.id])));
    }
    acc
}

/// Step 6d: dequantize `q * 2eb` into f32.
pub fn dequantize(gpu: &mut Gpu, q: &GpuBuffer<i32>, eb: f64) -> GpuBuffer<f32> {
    let n = q.len();
    let mut out: GpuBuffer<f32> = gpu.alloc(n);
    let ebx2 = 2.0 * eb;
    let blocks = n.div_ceil(256) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    // Two classes: only the last block can be ragged. The signature is
    // `n`, which the predicates read; never the bound, which only feeds
    // arithmetic.
    let class = |b: usize| u64::from(b == blocks as usize - 1);
    gpu.launch_classed("decode.dequantize", blocks, 256u32, &[n as u64], class, |blk| {
        let base = blk.block_linear() * 256;
        blk.warps(|w| {
            let v = w.load(q, |l| (base + l.ltid < n).then_some(base + l.ltid));
            w.store(&out, |l| {
                (base + l.ltid < n)
                    .then(|| (base + l.ltid, crate::quant::dequantize(v[l.id], ebx2)))
            });
        });
    });
    if analytic {
        dequantize_field(&q.to_vec(), eb, out.host_mut());
    }
    out
}

/// Full inverse dual-quantization: deltas -> reconstructed field.
pub fn inverse_lorenzo(
    gpu: &mut Gpu,
    deltas: &mut GpuBuffer<i32>,
    shape: Shape,
    eb: f64,
) -> GpuBuffer<f32> {
    let rank = rank_of(shape);
    integrate_x(gpu, deltas, shape);
    if rank >= 2 {
        integrate_y(gpu, deltas, shape);
    }
    if rank >= 3 {
        integrate_z(gpu, deltas, shape);
    }
    dequantize(gpu, deltas, eb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bitshuffle as cpu_shuffle, lorenzo, zeroblock};
    use fzgpu_sim::device::{A100, A4000};

    #[test]
    fn expand_flags_matches_bits() {
        let mut gpu = Gpu::new(A100);
        let bits = vec![0b1010_0001u32, 0xFFFF_0000];
        let d = gpu.upload(&bits);
        let flags = expand_flags(&mut gpu, &d, 64).to_vec();
        for b in 0..64 {
            assert_eq!(flags[b], (bits[b / 32] >> (b % 32) & 1) as u8, "flag {b}");
        }
    }

    #[test]
    fn scatter_inverts_compact() {
        let mut words = vec![0u32; 256 * BLOCK_WORDS];
        for b in (0..256).step_by(3) {
            words[b * BLOCK_WORDS + 1] = b as u32 + 7;
        }
        let reference = zeroblock::encode(&words);
        let mut gpu = Gpu::new(A100);
        let d_payload = gpu.upload(&reference.payload);
        let d_bits = gpu.upload(&reference.bit_flags);
        let flags = expand_flags(&mut gpu, &d_bits, reference.num_blocks);
        let wide = super::super::encode::widen_flags(&mut gpu, &flags);
        let (offsets, total) = super::super::encode::flag_offsets(&mut gpu, &wide);
        assert_eq!(total * BLOCK_WORDS, reference.payload.len());
        let rebuilt = scatter(&mut gpu, &d_payload, &flags, &offsets);
        assert_eq!(rebuilt.to_vec(), words);
    }

    #[test]
    fn unshuffle_inverts_gpu_shuffle() {
        let words: Vec<u32> =
            (0..2 * TILE_WORDS as u32).map(|i| i.wrapping_mul(0x9E3779B9) ^ (i << 3)).collect();
        let shuffled = cpu_shuffle::shuffle(&words);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&shuffled);
        let back = bit_unshuffle(&mut gpu, &d);
        assert_eq!(back.to_vec(), words);
    }

    /// Integrate `shape` on both engines: each must match
    /// `lorenzo::integrate`, and the two timelines must agree bit for bit.
    /// Returns the carry kernels launched, in order, repeats merged.
    fn integrate_on_both_engines(shape: Shape) -> Vec<String> {
        let (nz, ny, nx) = shape;
        let deltas: Vec<i32> =
            (0..nz * ny * nx).map(|i| ((i * 31) % 23) as i32 - 11 + (i % 7 == 0) as i32).collect();
        let mut cpu = deltas.clone();
        lorenzo::integrate(&mut cpu, shape);
        let run = |engine: Engine| {
            let mut gpu = Gpu::new(A100);
            gpu.set_engine(engine);
            let mut d = gpu.upload(&deltas);
            let rank = rank_of(shape);
            integrate_x(&mut gpu, &mut d, shape);
            if rank >= 2 {
                integrate_y(&mut gpu, &mut d, shape);
            }
            if rank >= 3 {
                integrate_z(&mut gpu, &mut d, shape);
            }
            assert_eq!(d.to_vec(), cpu, "{shape:?} on {engine:?}");
            gpu.timeline().to_vec()
        };
        let timeline = run(Engine::Interpreted);
        assert_eq!(format!("{timeline:?}"), format!("{:?}", run(Engine::Analytic)), "{shape:?}");
        let mut carries: Vec<String> = timeline
            .iter()
            .map(|e| e.name().to_string())
            .filter(|n| n.ends_with("_carry"))
            .collect();
        carries.dedup();
        carries
    }

    /// Smallest 1-D length whose row walk splits on `spec`.
    fn first_split_length(spec: &DeviceSpec) -> usize {
        let (mut lo, mut hi) = (32usize, 1 << 24);
        assert!(row_plan(spec, 1, hi).1.is_some());
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if row_plan(spec, 1, mid).1.is_some() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn integrate_matches_cpu_3d() {
        // Where the splits happen: the 3 long rows, the 900-row columns of
        // (1, 900, 40) (their totals split again), and QMCPACK's z walk
        // (156 column groups).
        for (shape, carries) in [
            ((6, 40, 70), vec![]),
            ((1, 3, 100_003), vec!["decode.integrate_x_carry"]),
            ((1, 900, 40), vec!["decode.integrate_y_carry"]),
            ((496, 69, 72), vec!["decode.integrate_z_carry"]),
        ] {
            assert_eq!(integrate_on_both_engines(shape), carries, "{shape:?}");
        }
    }

    #[test]
    fn integrate_matches_cpu_1d_long_row() {
        // Rows longer than one warp stride exercise the carry logic; the
        // lengths around the first split exercise the segment walk.
        let split = first_split_length(&A100);
        for n in [1000, split - 1, split, split + 1, 100_003] {
            let carried = !integrate_on_both_engines((1, 1, n)).is_empty();
            assert_eq!(carried, n >= split, "length {n}");
        }
    }

    /// Modeled time of `walk` over a zeroed field of `len` values.
    fn modeled(
        spec: DeviceSpec,
        len: usize,
        walk: impl FnOnce(&mut Gpu, &mut GpuBuffer<i32>),
    ) -> f64 {
        let mut gpu = Gpu::new(spec);
        gpu.set_engine(Engine::Analytic);
        let mut q = gpu.alloc::<i32>(len);
        walk(&mut gpu, &mut q);
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
                let n = shape.0 * shape.1 * shape.2;
                let rank = rank_of(shape);
                let x = modeled(spec, n, |g, q| integrate_x(g, q, shape));
                let x0 = modeled(spec, n, |g, q| row_walk(g, q, shape, None));
                assert!(x <= x0, "x of {shape:?} on {}: {x} > {x0}", spec.name);
                split += usize::from(x < x0);
                for axis in [Column::Y, Column::Z].into_iter().take(rank - 1) {
                    let t = modeled(spec, n, |g, q| integrate_columns(g, axis, q, shape));
                    let t0 = modeled(spec, n, |g, q| column_walk(g, axis, q, shape, None));
                    assert!(t <= t0, "{axis:?} of {shape:?} on {}: {t} > {t0}", spec.name);
                    split += usize::from(t < t0);
                }
            }
        }
        assert!(split > 0);
    }

    #[test]
    fn codes_to_deltas_unpacks_both_halves() {
        let codes: Vec<u16> = vec![5, 0x8003, 0, 32767, 0x8000 | 32767];
        let words = crate::pack::pack_codes(&codes);
        let mut gpu = Gpu::new(A100);
        let d = gpu.upload(&words);
        let deltas = codes_to_deltas(&mut gpu, &d, codes.len());
        assert_eq!(deltas.to_vec(), vec![5, -3, 0, 32767, -32767]);
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
        let mut deltas = codes_to_deltas(&mut gpu, &d_words, n);
        let back = inverse_lorenzo(&mut gpu, &mut deltas, shape, eb);
        assert_eq!(back.to_vec(), cpu_back);
    }
}
