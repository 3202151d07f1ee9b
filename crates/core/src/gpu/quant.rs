//! GPU dual-quantization kernels.
//!
//! `pred_quant_v2` is the paper's optimized kernel (§3.2): branch-free,
//! no radius shift, no outlier side-channel, sign-magnitude u16 codes.
//! `pred_quant_v1` is the original cuSZ-style kernel kept for the Fig. 10
//! ablation and for the cuSZ baseline: quantization codes shifted by a
//! radius, out-of-range deltas routed to a dense outlier array (extra
//! global traffic + warp divergence — exactly the costs the paper removes).
//!
//! Both kernels tile the field into 32x32 shared-memory planes with a
//! one-element halo so each input is read once per block, mirroring the
//! real implementation's memory behaviour.

use fzgpu_sim::{Engine, Gpu, GpuBuffer};

use crate::fastpath::{lorenzo_codes_into, prequant_into};
use crate::lorenzo::{lorenzo_delta, rank_of, Shape};
use crate::quant::{delta_to_code, prequantize};

/// Quantization radius of the v1 kernel (cuSZ's default 1024-entry
/// codebook: codes in `1..1024`, 0 reserved for outliers).
pub const V1_RADIUS: i32 = 512;

/// Optimized dual-quantization: f32 field -> sign-magnitude u16 codes.
pub fn pred_quant_v2(
    gpu: &mut Gpu,
    input: &GpuBuffer<f32>,
    shape: Shape,
    eb: f64,
) -> GpuBuffer<u16> {
    let (nz, ny, nx) = shape;
    let n = nz * ny * nx;
    assert_eq!(input.len(), n);
    let out: GpuBuffer<u16> = gpu.alloc(n);
    let analytic = gpu.effective_engine() == Engine::Analytic;
    if rank_of(shape) == 1 {
        launch_1d(gpu, "pred_quant_v2", input, &out, None, n, eb, false);
    } else {
        launch_tiled(gpu, "pred_quant_v2", input, &out, None, shape, eb, false);
    }
    if analytic {
        analytic_fill(input, &out, None, shape, eb, false);
    }
    out
}

/// Original dual-quantization: radius-shifted codes + dense outlier array.
/// Returns `(codes, outliers)`; `outliers[i]` holds the full quantized
/// delta at positions where `codes[i] == 0`, else 0.
pub fn pred_quant_v1(
    gpu: &mut Gpu,
    input: &GpuBuffer<f32>,
    shape: Shape,
    eb: f64,
) -> (GpuBuffer<u16>, GpuBuffer<i32>) {
    let (nz, ny, nx) = shape;
    let n = nz * ny * nx;
    assert_eq!(input.len(), n);
    let out: GpuBuffer<u16> = gpu.alloc(n);
    let outliers: GpuBuffer<i32> = gpu.alloc(n);
    let analytic = gpu.effective_engine() == Engine::Analytic;
    if rank_of(shape) == 1 {
        launch_1d(gpu, "pred_quant_v1", input, &out, Some(&outliers), n, eb, true);
    } else {
        launch_tiled(gpu, "pred_quant_v1", input, &out, Some(&outliers), shape, eb, true);
    }
    if analytic {
        analytic_fill(input, &out, Some(&outliers), shape, eb, true);
    }
    (out, outliers)
}

/// Analytic-engine output fill: compute codes (and v1 outliers) on the
/// host through the shared fastpath entry points and write them into the
/// launch's output buffers. Bit-identical to the kernels: v2 codes go
/// through [`prequant_into`] + [`lorenzo_codes_into`] (the exact functions
/// the native path runs, pinned equal to the kernels by the quant tests),
/// and v1 deltas come from [`lorenzo_delta`], whose
/// i64-accumulate-then-truncate arithmetic equals the kernels' wrapping
/// i32 arithmetic mod 2^32.
fn analytic_fill(
    input: &GpuBuffer<f32>,
    out: &GpuBuffer<u16>,
    outliers: Option<&GpuBuffer<i32>>,
    shape: Shape,
    eb: f64,
    v1: bool,
) {
    let data = input.to_vec();
    let ebx2_inv = 1.0 / (2.0 * eb);
    let mut q = vec![0i32; data.len()];
    prequant_into(&data, ebx2_inv, &mut q);
    if v1 {
        let deltas = lorenzo_delta(&q, shape);
        let mut codes = vec![0u16; data.len()];
        let mut outlier_vals = vec![0i32; data.len()];
        for (i, &d) in deltas.iter().enumerate() {
            let (c, o) = encode_delta(d, true);
            codes[i] = c;
            outlier_vals[i] = o.unwrap_or(0);
        }
        out.host_fill_from(&codes);
        if let Some(ol) = outliers {
            ol.host_fill_from(&outlier_vals);
        }
    } else {
        let mut codes = vec![0u16; data.len()];
        lorenzo_codes_into(&q, shape, &mut codes);
        out.host_fill_from(&codes);
    }
}

/// Encode a delta in the v1 (shifted) or v2 (sign-magnitude) convention.
/// v1 out-of-range deltas produce `(0, Some(delta))`.
#[inline]
fn encode_delta(delta: i32, v1: bool) -> (u16, Option<i32>) {
    if v1 {
        if delta > -V1_RADIUS && delta < V1_RADIUS {
            ((delta + V1_RADIUS) as u16, None)
        } else {
            (0, Some(delta))
        }
    } else {
        (delta_to_code(delta), None)
    }
}

#[allow(clippy::too_many_arguments)] // internal launcher mirroring the CUDA signature
fn launch_1d(
    gpu: &mut Gpu,
    name: &str,
    input: &GpuBuffer<f32>,
    out: &GpuBuffer<u16>,
    outliers: Option<&GpuBuffer<i32>>,
    n: usize,
    eb: f64,
    v1: bool,
) {
    let ebx2_inv = 1.0 / (2.0 * eb);
    let nblocks = n.div_ceil(1024) as u32;
    // Counter-equivalence classes (DESIGN.md §16): block 0 skips the halo
    // load, the last block may be ragged; every interior block is
    // identical (base = b*1024 keeps both f32 and u16 rows sector-aligned
    // for any b).
    let last = nblocks as usize - 1;
    let class = |b: usize| u64::from(b == 0) | (u64::from(b == last) << 1);
    gpu.launch_classed(name, nblocks, 1024u32, class, |blk| {
        let base = blk.block_linear() * 1024;
        // Shared tile with one halo element on the left.
        let sq = blk.shared_array::<i32>(1025);
        blk.warps(|w| {
            let v = w.load(input, |l| (base + l.ltid < n).then_some(base + l.ltid));
            let q = w.lanes(|l| prequantize(v[l.id], ebx2_inv));
            w.sh_store(&sq, |l| (base + l.ltid < n).then_some((l.ltid + 1, q[l.id])));
            if w.warp_id == 0 {
                // Halo: the element before the block (0 when base == 0).
                let h = w.load(input, |l| (l.id == 0 && base > 0).then(|| base - 1));
                let hq = w.lanes(|l| prequantize(h[l.id], ebx2_inv));
                w.sh_store(&sq, |l| (l.id == 0 && base > 0).then_some((0, hq[0])));
            }
        });
        blk.sync();
        blk.warps(|w| {
            let cur = w.sh_load(&sq, |l| Some(l.ltid + 1));
            let prev = w.sh_load(&sq, |l| Some(l.ltid));
            let mut outlier_vals = [0i32; 32];
            let mut codes = [0u16; 32];
            for i in 0..32 {
                let delta = cur[i].wrapping_sub(prev[i]);
                let (c, o) = encode_delta(delta, v1);
                codes[i] = c;
                outlier_vals[i] = o.unwrap_or(0);
            }
            let _ = w.lanes(|_| 0u32); // delta + encode ALU charge
            w.store(out, |l| (base + l.ltid < n).then(|| (base + l.ltid, codes[l.id])));
            if let Some(ol) = outliers {
                w.store(ol, |l| (base + l.ltid < n).then(|| (base + l.ltid, outlier_vals[l.id])));
            }
        });
    });
}

#[allow(clippy::too_many_arguments)]
fn launch_tiled(
    gpu: &mut Gpu,
    name: &str,
    input: &GpuBuffer<f32>,
    out: &GpuBuffer<u16>,
    outliers: Option<&GpuBuffer<i32>>,
    shape: Shape,
    eb: f64,
    v1: bool,
) {
    let (nz, ny, nx) = shape;
    let rank = rank_of(shape);
    let ebx2_inv = 1.0 / (2.0 * eb);
    let grid = (nx.div_ceil(32) as u32, ny.div_ceil(32) as u32, nz as u32);
    const S: usize = 33; // padded tile stride (halo at index 0)

    // Counter-equivalence classes (DESIGN.md §16): edge bits select which
    // halo loads run and where rows go ragged; the plane residue
    // `(z*ny*nx) % 16` pins global row alignment (row base
    // `(z*ny + by*32 + ly)*nx + bx*32` is congruent mod 16 to
    // `z*ny*nx + ly*nx` because `32*nx` and `bx*32` are multiples of 16 —
    // 16 covers u16 stores and subsumes the mod-8 residue of f32 loads,
    // and fixing `z*ny*nx mod 16` also fixes `(z-1)*ny*nx mod 16`).
    let (gx, gy) = (grid.0 as usize, grid.1 as usize);
    let class = |linear: usize| {
        let bx = linear % gx;
        let by = linear / gx % gy;
        let z = linear / (gx * gy);
        u64::from(bx == 0)
            | (u64::from(bx == gx - 1) << 1)
            | (u64::from(by == 0) << 2)
            | (u64::from(by == gy - 1) << 3)
            | (u64::from(z == 0) << 4)
            | ((((z * ny * nx) % 16) as u64) << 5)
    };
    gpu.launch_classed(name, grid, (32u32, 32u32), class, |blk| {
        let x0 = blk.block_idx.x as usize * 32;
        let y0 = blk.block_idx.y as usize * 32;
        let z = blk.block_idx.z as usize;
        let lin = |zz: usize, yy: usize, xx: usize| (zz * ny + yy) * nx + xx;

        let s_cur = blk.shared_array::<i32>(S * S);
        let s_prev = if rank == 3 { Some(blk.shared_array::<i32>(S * S)) } else { None };

        // Load + prequantize one plane (plus halo) into shared.
        // `plane_z = None` loads nothing (leaves zeros = boundary).
        let load_plane = |blk: &mut fzgpu_sim::BlockCtx<'_>,
                          sh: &fzgpu_sim::Shared<i32>,
                          zz: usize| {
            blk.warps(|w| {
                let ly = w.warp_id; // row within tile
                let gy = y0 + ly;
                // Main 32x32 tile, coalesced row loads.
                let v =
                    w.load(input, |l| (gy < ny && x0 + l.id < nx).then(|| lin(zz, gy, x0 + l.id)));
                let q = w.lanes(|l| prequantize(v[l.id], ebx2_inv));
                w.sh_store(sh, |l| {
                    (gy < ny && x0 + l.id < nx).then(|| ((ly + 1) * S + l.id + 1, q[l.id]))
                });
                match ly {
                    0 if y0 > 0 => {
                        // Halo row y0-1.
                        let hv =
                            w.load(input, |l| (x0 + l.id < nx).then(|| lin(zz, y0 - 1, x0 + l.id)));
                        let hq = w.lanes(|l| prequantize(hv[l.id], ebx2_inv));
                        w.sh_store(sh, |l| (x0 + l.id < nx).then(|| (l.id + 1, hq[l.id])));
                    }
                    1 if x0 > 0 => {
                        // Halo column x0-1: lane id plays the row index
                        // (strided global access, charged as such).
                        let hv =
                            w.load(input, |l| (y0 + l.id < ny).then(|| lin(zz, y0 + l.id, x0 - 1)));
                        let hq = w.lanes(|l| prequantize(hv[l.id], ebx2_inv));
                        w.sh_store(sh, |l| (y0 + l.id < ny).then(|| ((l.id + 1) * S, hq[l.id])));
                    }
                    2 if x0 > 0 && y0 > 0 => {
                        // Corner (y0-1, x0-1).
                        let hv = w.load(input, |l| (l.id == 0).then(|| lin(zz, y0 - 1, x0 - 1)));
                        let hq = w.lanes(|l| prequantize(hv[l.id], ebx2_inv));
                        w.sh_store(sh, |l| (l.id == 0).then_some((0, hq[0])));
                    }
                    _ => {}
                }
            });
        };

        load_plane(blk, &s_cur, z);
        if let Some(ref sp) = s_prev {
            if z > 0 {
                load_plane(blk, sp, z - 1);
            }
        }
        blk.sync();

        blk.warps(|w| {
            let ly = w.warp_id;
            let gy = y0 + ly;
            // Gather the 2^rank - 1 neighbors from shared.
            let c = w.sh_load(&s_cur, |l| Some((ly + 1) * S + l.id + 1));
            let cx = w.sh_load(&s_cur, |l| Some((ly + 1) * S + l.id));
            let cy = w.sh_load(&s_cur, |l| Some(ly * S + l.id + 1));
            let cxy = w.sh_load(&s_cur, |l| Some(ly * S + l.id));
            let (p, px, py, pxy) = if let Some(ref sp) = s_prev {
                (
                    w.sh_load(sp, |l| Some((ly + 1) * S + l.id + 1)),
                    w.sh_load(sp, |l| Some((ly + 1) * S + l.id)),
                    w.sh_load(sp, |l| Some(ly * S + l.id + 1)),
                    w.sh_load(sp, |l| Some(ly * S + l.id)),
                )
            } else {
                ([0i32; 32], [0i32; 32], [0i32; 32], [0i32; 32])
            };
            let mut codes = [0u16; 32];
            let mut outlier_vals = [0i32; 32];
            for i in 0..32 {
                let pred = match rank {
                    2 => cx[i].wrapping_add(cy[i]).wrapping_sub(cxy[i]),
                    _ => cx[i]
                        .wrapping_add(cy[i])
                        .wrapping_add(p[i])
                        .wrapping_sub(cxy[i])
                        .wrapping_sub(px[i])
                        .wrapping_sub(py[i])
                        .wrapping_add(pxy[i]),
                };
                let delta = c[i].wrapping_sub(pred);
                let (code, o) = encode_delta(delta, v1);
                codes[i] = code;
                outlier_vals[i] = o.unwrap_or(0);
            }
            let _ = w.lanes(|_| 0u32); // prediction ALU charge
            w.store(out, |l| {
                (gy < ny && x0 + l.id < nx).then(|| (lin(z, gy, x0 + l.id), codes[l.id]))
            });
            if let Some(ol) = outliers {
                w.store(ol, |l| {
                    (gy < ny && x0 + l.id < nx).then(|| (lin(z, gy, x0 + l.id), outlier_vals[l.id]))
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo;
    use fzgpu_sim::device::A100;

    fn field_3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        (0..nz * ny * nx)
            .map(|i| {
                let z = i / (ny * nx);
                let y = i / nx % ny;
                let x = i % nx;
                (x as f32 * 0.11).sin() + (y as f32 * 0.07).cos() + z as f32 * 0.02
            })
            .collect()
    }

    #[test]
    fn v2_matches_cpu_reference_1d() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin() * 3.0).collect();
        let shape = (1, 1, 5000);
        let eb = 1e-3;
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        let d_codes = pred_quant_v2(&mut gpu, &d_in, shape, eb);
        assert_eq!(d_codes.to_vec(), lorenzo::forward(&data, shape, eb));
    }

    #[test]
    fn v2_matches_cpu_reference_2d() {
        let (ny, nx) = (70, 97); // deliberately not multiples of 32
        let data: Vec<f32> = (0..ny * nx)
            .map(|i| ((i / nx) as f32 * 0.2).sin() + ((i % nx) as f32 * 0.1).cos())
            .collect();
        let shape = (1, ny, nx);
        let eb = 5e-4;
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        let d_codes = pred_quant_v2(&mut gpu, &d_in, shape, eb);
        assert_eq!(d_codes.to_vec(), lorenzo::forward(&data, shape, eb));
    }

    #[test]
    fn v2_matches_cpu_reference_3d() {
        let (nz, ny, nx) = (5, 40, 50);
        let data = field_3d(nz, ny, nx);
        let shape = (nz, ny, nx);
        let eb = 1e-3;
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        let d_codes = pred_quant_v2(&mut gpu, &d_in, shape, eb);
        assert_eq!(d_codes.to_vec(), lorenzo::forward(&data, shape, eb));
    }

    #[test]
    fn v1_splits_codes_and_outliers() {
        // A step function produces one huge delta -> outlier in v1.
        let mut data = vec![0.0f32; 2048];
        for v in &mut data[1000..] {
            *v = 100.0;
        }
        let shape = (1, 1, 2048);
        let eb = 1e-3;
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        let (codes, outliers) = pred_quant_v1(&mut gpu, &d_in, shape, eb);
        let codes = codes.to_vec();
        let outliers = outliers.to_vec();
        // The step at index 1000: delta = 100/(2e-3) = 50000, out of radius.
        assert_eq!(codes[1000], 0);
        assert_eq!(outliers[1000], 50_000);
        // Flat regions: delta 0 -> code = radius shift.
        assert_eq!(codes[500], V1_RADIUS as u16);
        assert_eq!(outliers[500], 0);
    }

    #[test]
    fn v1_reconstruction_via_codes_plus_outliers_is_exact() {
        let data: Vec<f32> = (0..1024).map(|i| ((i * i) % 997) as f32 * 0.01).collect();
        let shape = (1, 1, 1024);
        let eb = 1e-3;
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        let (codes, outliers) = pred_quant_v1(&mut gpu, &d_in, shape, eb);
        let codes = codes.to_vec();
        let outliers = outliers.to_vec();
        // Rebuild deltas, integrate, dequantize: must respect eb everywhere.
        let mut deltas: Vec<i32> = codes
            .iter()
            .zip(&outliers)
            .map(|(&c, &o)| if c == 0 { o } else { c as i32 - V1_RADIUS })
            .collect();
        lorenzo::integrate(&mut deltas, shape);
        for (i, (&d, &q)) in data.iter().zip(&deltas).enumerate() {
            let r = q as f64 * 2.0 * eb;
            assert!((r - d as f64).abs() <= eb * 1.00001, "idx {i}");
        }
    }

    #[test]
    fn v1_is_slower_than_v2_on_device() {
        let data = field_3d(8, 64, 64);
        let shape = (8, 64, 64);
        let mut gpu = Gpu::new(A100);
        let d_in = gpu.upload(&data);
        gpu.reset_timeline();
        let _ = pred_quant_v2(&mut gpu, &d_in, shape, 1e-3);
        let t2 = gpu.kernel_time();
        gpu.reset_timeline();
        let _ = pred_quant_v1(&mut gpu, &d_in, shape, 1e-3);
        let t1 = gpu.kernel_time();
        assert!(t1 > t2, "v1 {t1} should be slower than v2 {t2}");
    }
}
