//! Device-wide exclusive prefix sum (the CUB `DeviceScan::ExclusiveSum`
//! substitute used by the paper's second encoding phase).
//!
//! The decomposition mirrors CUB: (1) a tile-scan kernel producing per-tile
//! exclusive scans plus a per-tile total, (2) a recursive scan of the tile
//! totals, and (3) an add-offsets kernel folding the scanned totals back
//! into every tile. Kernel boundaries double as the device-wide
//! synchronization the paper relies on ("a synchronization can be
//! conveniently triggered when a GPU kernel exits").
//!
//! # Analytic engine
//! Every scan kernel's performance counters are a pure function of block
//! *indices* and `n` (load/store predicates compare indices against `n`;
//! no address depends on data), so under [`Engine::Analytic`] each kernel
//! interprets one representative block per equivalence class — interior
//! tiles are all identical, only the ragged last tile differs — with `n`
//! as its launch signature (a device runs each class once; see
//! [`Gpu::launch_classed`]), scales the
//! counters by class population, and produces the output buffer with a
//! host-side pass (`u32` wrapping addition is associative, so the host's
//! sequential order reproduces the warp-tree scan bit for bit). The pass
//! runs tile by tile on the pool and reads the input in place
//! ([`GpuBuffer::read_into`]), so it allocates nothing input-sized.

use rayon::prelude::*;

use crate::block::Dim3;
use crate::engine::Engine;
use crate::grid::Gpu;
use crate::memory::GpuBuffer;

/// Threads per tile-scan block.
const BLOCK_THREADS: usize = 256;
/// Items each thread owns.
const ITEMS_PER_THREAD: usize = 4;
/// Elements scanned by one block.
pub const TILE: usize = BLOCK_THREADS * ITEMS_PER_THREAD;

/// Exclusive prefix sum of `input[..n]` into `output[..n]`.
///
/// Returns the grand total (`sum(input[..n])`). `output` must hold at least
/// `n` elements; its final add-offsets pass runs in place, and the
/// analytic engine writes it through [`GpuBuffer::host_mut`], hence the
/// exclusive borrow. Launches `O(log_TILE n)` kernels on `gpu`, all
/// recorded on the timeline under names starting with `scan.`.
pub fn exclusive_sum(
    gpu: &mut Gpu,
    input: &GpuBuffer<u32>,
    output: &mut GpuBuffer<u32>,
    n: usize,
) -> u64 {
    assert!(input.len() >= n && output.len() >= n, "scan buffers too small for n={n}");
    if n == 0 {
        return 0;
    }
    let ntiles = n.div_ceil(TILE);
    let mut tile_totals: GpuBuffer<u32> = gpu.alloc(ntiles);
    scan_tiles(gpu, input, output, &mut tile_totals, n);

    if ntiles == 1 {
        let total = tile_totals.host_read(0) as u64;
        gpu.free(tile_totals);
        return total;
    }

    // Recursively scan the tile totals, then fold the offsets back in.
    let mut tile_offsets: GpuBuffer<u32> = gpu.alloc(ntiles);
    let total = exclusive_sum(gpu, &tile_totals, &mut tile_offsets, ntiles);
    add_tile_offsets(gpu, input, output, &tile_offsets, n);
    gpu.free(tile_totals);
    gpu.free(tile_offsets);
    total
}

/// Kernel 1: per-tile exclusive scan + tile totals.
fn scan_tiles(
    gpu: &mut Gpu,
    input: &GpuBuffer<u32>,
    output: &mut GpuBuffer<u32>,
    tile_totals: &mut GpuBuffer<u32>,
    n: usize,
) {
    let ntiles = n.div_ceil(TILE) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let class = |b: usize| u64::from(b == ntiles as usize - 1);
    let (out_buf, totals_buf) = (&*output, &*tile_totals);
    let sig = [n as u64];
    gpu.launch_classed("scan.tiles", ntiles, BLOCK_THREADS as u32, &sig, class, |blk| {
        let tile_base = blk.block_linear() * TILE;
        let block_id = blk.block_linear();
        let nwarps = blk.warp_count();
        let sh = blk.shared_array::<u32>(TILE);
        let sh_thread = blk.shared_array::<u32>(BLOCK_THREADS); // per-thread exclusive offset in warp
        let sh_warp = blk.shared_array::<u32>(nwarps.max(1)); // per-warp totals -> offsets

        // Striped, coalesced load into shared (missing elements read as 0:
        // shared memory is zero-initialized).
        blk.warps(|w| {
            for k in 0..ITEMS_PER_THREAD {
                let v = w.load(input, |l| {
                    let g = tile_base + k * BLOCK_THREADS + l.ltid;
                    (g < n).then_some(g)
                });
                w.sh_store(&sh, |l| Some((k * BLOCK_THREADS + l.ltid, v[l.id])));
            }
        });
        blk.sync();

        // Per-thread totals -> warp scan -> per-warp totals.
        blk.warps(|w| {
            let mut tot = [0u32; 32];
            for k in 0..ITEMS_PER_THREAD {
                let v = w.sh_load(&sh, |l| Some(l.ltid * ITEMS_PER_THREAD + k));
                for i in 0..32 {
                    tot[i] = tot[i].wrapping_add(v[i]);
                }
            }
            let inc = w.scan_add(&tot);
            // Per-thread exclusive offset within the warp.
            w.sh_store(&sh_thread, |l| Some((l.ltid, inc[l.id].wrapping_sub(tot[l.id]))));
            let warp_total = inc[w.active_lanes - 1];
            let wid = w.warp_id;
            w.sh_store(&sh_warp, |l| (l.id == 0).then_some((wid, warp_total)));
        });
        blk.sync();

        // Warp 0 scans the warp totals and emits the tile total.
        blk.warps(|w| {
            if w.warp_id != 0 {
                return;
            }
            let wt = w.sh_load(&sh_warp, |l| (l.id < nwarps).then_some(l.id));
            let inc = w.scan_add(&wt);
            w.sh_store(&sh_warp, |l| {
                (l.id < nwarps).then(|| (l.id, inc[l.id].wrapping_sub(wt[l.id])))
            });
            let tile_total = inc[nwarps - 1];
            w.store(totals_buf, |l| (l.id == 0).then_some((block_id, tile_total)));
        });
        blk.sync();

        // Each thread rewrites its 4 items as exclusive prefixes, then the
        // block stores back to global, striped and coalesced.
        blk.warps(|w| {
            let toff = w.sh_load(&sh_thread, |l| Some(l.ltid));
            let woff = w.sh_load(&sh_warp, |l| Some(l.ltid / 32));
            let mut run: [u32; 32] = core::array::from_fn(|i| toff[i].wrapping_add(woff[i]));
            for k in 0..ITEMS_PER_THREAD {
                let v = w.sh_load(&sh, |l| Some(l.ltid * ITEMS_PER_THREAD + k));
                let cur = run;
                w.sh_store(&sh, |l| Some((l.ltid * ITEMS_PER_THREAD + k, cur[l.id])));
                for i in 0..32 {
                    run[i] = run[i].wrapping_add(v[i]);
                }
            }
        });
        blk.sync();

        blk.warps(|w| {
            for k in 0..ITEMS_PER_THREAD {
                let v = w.sh_load(&sh, |l| Some(k * BLOCK_THREADS + l.ltid));
                w.store(out_buf, |l| {
                    let g = tile_base + k * BLOCK_THREADS + l.ltid;
                    (g < n).then(|| (g, v[l.id]))
                });
            }
        });
    });
    if analytic {
        // Output is write-only here, so no pre-launch snapshot is needed:
        // representative blocks wrote correct values for their tiles, and
        // this pass overwrites every tile (theirs included) identically.
        output.host_mut()[..n]
            .par_chunks_mut(TILE)
            .zip(tile_totals.host_mut().par_iter_mut())
            .enumerate()
            .for_each(|(t, (out, total))| *total = scan_tile(input, t, 0, out));
    }
}

/// The analytic fills' scan of tile `t`: an exclusive wrapping prefix sum
/// of `input`'s tile, read in place, starting at `acc`, into `out` (the
/// tile's slice of the output). Returns the running sum past the tile.
fn scan_tile(input: &GpuBuffer<u32>, t: usize, mut acc: u32, out: &mut [u32]) -> u32 {
    let mut vals = [0u32; TILE];
    let vals = &mut vals[..out.len()];
    input.read_into(t * TILE, vals);
    for (o, &v) in out.iter_mut().zip(&*vals) {
        *o = acc;
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Kernel 3: `output[i] += tile_offsets[i / TILE]` for every element.
/// `input` is the scan's input, which the analytic fill rescans.
fn add_tile_offsets(
    gpu: &mut Gpu,
    input: &GpuBuffer<u32>,
    output: &mut GpuBuffer<u32>,
    tile_offsets: &GpuBuffer<u32>,
    n: usize,
) {
    let ntiles = n.div_ceil(TILE) as u32;
    let analytic = gpu.effective_engine() == Engine::Analytic;
    let class = |b: usize| u64::from(b == ntiles as usize - 1);
    let dim = Dim3 { x: ntiles, y: 1, z: 1 };
    let out_buf = &*output;
    let sig = [n as u64];
    gpu.launch_classed("scan.add_offsets", dim, BLOCK_THREADS as u32, &sig, class, |blk| {
        let tile = blk.block_linear();
        let tile_base = tile * TILE;
        blk.warps(|w| {
            let off = w.load(tile_offsets, |_| Some(tile));
            for k in 0..ITEMS_PER_THREAD {
                let g0 = tile_base + k * BLOCK_THREADS;
                let v = w.load(out_buf, |l| (g0 + l.ltid < n).then_some(g0 + l.ltid));
                w.store(out_buf, |l| {
                    (g0 + l.ltid < n).then(|| (g0 + l.ltid, v[l.id].wrapping_add(off[l.id])))
                });
            }
        });
    });
    if analytic {
        // In-place kernel, but no snapshot: representative blocks folded
        // offsets into their own tiles, so instead of adding to what the
        // output holds, every tile is rescanned from the input starting
        // at its offset — the same wrapping sums in the same order.
        output.host_mut()[..n].par_chunks_mut(TILE).enumerate().for_each(|(t, out)| {
            scan_tile(input, t, tile_offsets.host_read(t), out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100;

    fn check_exclusive(data: &[u32]) {
        let mut gpu = Gpu::new(A100);
        let input = GpuBuffer::from_host(data);
        let mut output: GpuBuffer<u32> = gpu.alloc(data.len());
        let total = exclusive_sum(&mut gpu, &input, &mut output, data.len());
        let got = output.to_vec();
        let mut acc = 0u64;
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(got[i] as u64, acc, "mismatch at {i}");
            acc += v as u64;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn small_scan() {
        check_exclusive(&[3, 1, 4, 1, 5, 9, 2, 6]);
    }

    #[test]
    fn single_element() {
        check_exclusive(&[42]);
    }

    #[test]
    fn exactly_one_tile() {
        let data: Vec<u32> = (0..TILE as u32).map(|i| i % 7).collect();
        check_exclusive(&data);
    }

    #[test]
    fn partial_tile() {
        let data: Vec<u32> = (0..(TILE as u32) - 37).map(|i| i % 5 + 1).collect();
        check_exclusive(&data);
    }

    #[test]
    fn multi_tile_recursive() {
        // Forces two recursion levels: > TILE tiles.
        let n = TILE * 3 + 123;
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761) % 9).collect();
        check_exclusive(&data);
    }

    #[test]
    fn empty_scan_is_zero() {
        let mut gpu = Gpu::new(A100);
        let input: GpuBuffer<u32> = gpu.alloc(0);
        let mut output: GpuBuffer<u32> = gpu.alloc(0);
        assert_eq!(exclusive_sum(&mut gpu, &input, &mut output, 0), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_scan_matches_reference(data in proptest::collection::vec(0u32..1000, 1..6000)) {
            let mut gpu = Gpu::new(A100);
            let input = GpuBuffer::from_host(&data);
            let mut output: GpuBuffer<u32> = gpu.alloc(data.len());
            let total = exclusive_sum(&mut gpu, &input, &mut output, data.len());
            let got = output.to_vec();
            let mut acc = 0u64;
            for (i, &v) in data.iter().enumerate() {
                proptest::prop_assert_eq!(got[i] as u64, acc, "idx {}", i);
                acc += v as u64;
            }
            proptest::prop_assert_eq!(total, acc);
        }
    }

    #[test]
    fn analytic_engine_matches_interpreted_bit_for_bit() {
        // Same data, both engines: identical outputs, totals, and modeled
        // timelines (names, times, counters) — the scan-level slice of the
        // engine-equivalence contract, covering ragged tiles + recursion.
        let n = TILE * 2 + 391;
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2246822519) % 13).collect();
        let run = |engine: Engine| {
            let mut gpu = Gpu::new(A100);
            gpu.set_engine(engine);
            let input = GpuBuffer::from_host(&data);
            let mut output: GpuBuffer<u32> = gpu.alloc(n);
            let total = exclusive_sum(&mut gpu, &input, &mut output, n);
            (total, output.to_vec(), format!("{:?}", gpu.timeline()), gpu.kernel_time().to_bits())
        };
        assert_eq!(run(Engine::Interpreted), run(Engine::Analytic));
    }

    #[test]
    fn scan_appears_on_timeline() {
        let mut gpu = Gpu::new(A100);
        let input = GpuBuffer::from_host(&vec![1u32; 10 * TILE]);
        let mut output: GpuBuffer<u32> = gpu.alloc(10 * TILE);
        exclusive_sum(&mut gpu, &input, &mut output, 10 * TILE);
        let names: Vec<&str> = gpu.timeline().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"scan.tiles"));
        assert!(names.contains(&"scan.add_offsets"));
    }
}
