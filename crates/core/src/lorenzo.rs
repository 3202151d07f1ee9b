//! Lorenzo prediction fused with dual-quantization.
//!
//! The dual-quantization trick (cuSZ, §2.3): pre-quantize the *inputs*
//! first, then take integer Lorenzo differences. Because the differences
//! act on already-quantized integers, every point is independent — the
//! tight data dependency of classic SZ prediction disappears, which is the
//! whole reason the pipeline parallelizes.
//!
//! The inverse is a cascade of inclusive prefix sums, one per axis: the
//! d-dimensional Lorenzo difference operator is
//! `(1 - S_x^-1)(1 - S_y^-1)(1 - S_z^-1)` and each factor inverts to a
//! cumulative sum along its axis.

use rayon::prelude::*;

use crate::quant::{code_to_delta, delta_to_code, dequantize, prequantize};

/// Field shape `(nz, ny, nx)`, x fastest. Rank is inferred: `nz > 1` → 3D,
/// else `ny > 1` → 2D, else 1D.
pub type Shape = (usize, usize, usize);

/// Forward optimized dual-quantization (the paper's `pred-quant-v2`):
/// pre-quantize, integer Lorenzo difference, sign-magnitude u16 codes.
/// The scalar test oracle; production paths run the fast-path stages.
pub fn forward(data: &[f32], shape: Shape, eb: f64) -> Vec<u16> {
    lorenzo_delta(&prequant(data, eb), shape).into_iter().map(delta_to_code).collect()
}

/// Inverse of [`forward`]: decode codes, integrate along each axis, scale.
pub fn inverse(codes: &[u16], shape: Shape, eb: f64) -> Vec<f32> {
    let mut q: Vec<i32> = codes.par_iter().map(|&c| code_to_delta(c)).collect();
    integrate(&mut q, shape);
    let ebx2 = 2.0 * eb;
    q.into_par_iter().map(|v| dequantize(v, ebx2)).collect()
}

/// Pre-quantization only (`round(d / 2eb)`), parallel.
pub fn prequant(data: &[f32], eb: f64) -> Vec<i32> {
    let ebx2_inv = 1.0 / (2.0 * eb);
    data.par_iter().map(|&d| prequantize(d, ebx2_inv)).collect()
}

/// Integer Lorenzo differences over quantized values. Out-of-domain
/// neighbors read as 0, making the transform exactly invertible by
/// [`integrate`].
pub fn lorenzo_delta(q: &[i32], shape: Shape) -> Vec<i32> {
    let (nz, ny, nx) = shape;
    assert_eq!(q.len(), nz * ny * nx, "shape/data mismatch");
    let rank = rank_of(shape);
    let at = |z: isize, y: isize, x: isize| -> i64 {
        if z < 0 || y < 0 || x < 0 {
            0
        } else {
            q[(z as usize * ny + y as usize) * nx + x as usize] as i64
        }
    };
    let mut out = vec![0i32; q.len()];
    out.par_chunks_mut(ny * nx).enumerate().for_each(|(z, plane)| {
        let z = z as isize;
        for y in 0..ny as isize {
            for x in 0..nx as isize {
                let pred: i64 = match rank {
                    1 => at(z, y, x - 1),
                    2 => at(z, y, x - 1) + at(z, y - 1, x) - at(z, y - 1, x - 1),
                    _ => {
                        at(z, y, x - 1) + at(z, y - 1, x) + at(z - 1, y, x)
                            - at(z, y - 1, x - 1)
                            - at(z - 1, y, x - 1)
                            - at(z - 1, y - 1, x)
                            + at(z - 1, y - 1, x - 1)
                    }
                };
                plane[(y * nx as isize + x) as usize] = (at(z, y, x) - pred) as i32;
            }
        }
    });
    out
}

/// In-place inverse of [`lorenzo_delta`]: cumulative sums along x, then y,
/// then z (only the axes present at this rank). Uses wrapping arithmetic so
/// saturated/clipped codes stay well-defined.
pub fn integrate(q: &mut [i32], shape: Shape) {
    let (nz, ny, nx) = shape;
    assert_eq!(q.len(), nz * ny * nx);
    let rank = rank_of(shape);
    integrate_x(q, shape);
    if rank >= 2 {
        integrate_y(q, shape);
    }
    if rank >= 3 {
        integrate_z(q, shape);
    }
}

/// x pass of [`integrate`]: a wrapping prefix sum of each row. Shared by
/// the native decoder and the analytic engine's `decode.integrate_x` fill.
pub(crate) fn integrate_x(q: &mut [i32], shape: Shape) {
    q.par_chunks_mut(shape.2).for_each(|row| {
        let mut acc = 0i32;
        for v in row.iter_mut() {
            acc = acc.wrapping_add(*v);
            *v = acc;
        }
    });
}

/// y pass of [`integrate`]: each (z, x) column, parallel over planes.
pub(crate) fn integrate_y(q: &mut [i32], shape: Shape) {
    let (_, ny, nx) = shape;
    q.par_chunks_mut(ny * nx).for_each(|plane| {
        for y in 1..ny {
            for x in 0..nx {
                plane[y * nx + x] = plane[y * nx + x].wrapping_add(plane[(y - 1) * nx + x]);
            }
        }
    });
}

/// z pass of [`integrate`]: accumulate plane by plane, parallel within a
/// plane over index-space chunks.
pub(crate) fn integrate_z(q: &mut [i32], shape: Shape) {
    let plane_len = shape.1 * shape.2;
    let (mut prev, mut rest) = q.split_at_mut(plane_len);
    while !rest.is_empty() {
        let (cur, next) = rest.split_at_mut(plane_len);
        cur.par_chunks_mut(1 << 13).zip(prev.par_chunks(1 << 13)).for_each(|(cs, ps)| {
            for (c, &p) in cs.iter_mut().zip(ps) {
                *c = c.wrapping_add(p);
            }
        });
        prev = cur;
        rest = next;
    }
}

/// Rank implied by a shape.
pub fn rank_of(shape: Shape) -> usize {
    let (nz, ny, _) = shape;
    if nz > 1 {
        3
    } else if ny > 1 {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_shape(shape: Shape, data: &[f32], eb: f64) {
        let codes = forward(data, shape, eb);
        let back = inverse(&codes, shape, eb);
        for (i, (&d, &r)) in data.iter().zip(&back).enumerate() {
            let err = (d as f64 - r as f64).abs();
            // Slack: f32 representation noise on the reconstructed value.
            let slack = (d.abs().max(r.abs()) as f64) * 1e-6 + 1e-12;
            assert!(err <= eb + slack, "idx {i}: {d} vs {r}, err {err} > eb {eb}");
        }
    }

    #[test]
    fn roundtrip_1d_smooth() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        roundtrip_shape((1, 1, 1000), &data, 1e-3);
    }

    #[test]
    fn roundtrip_2d_smooth() {
        let (ny, nx) = (37, 53);
        let data: Vec<f32> = (0..ny * nx)
            .map(|i| ((i / nx) as f32 * 0.1).cos() + ((i % nx) as f32 * 0.07).sin())
            .collect();
        roundtrip_shape((1, ny, nx), &data, 5e-4);
    }

    #[test]
    fn roundtrip_3d_smooth() {
        let (nz, ny, nx) = (9, 17, 21);
        let data: Vec<f32> = (0..nz * ny * nx)
            .map(|i| {
                let z = i / (ny * nx);
                let y = i / nx % ny;
                let x = i % nx;
                (z as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + (x as f32 * 0.1).sin()
            })
            .collect();
        roundtrip_shape((nz, ny, nx), &data, 1e-3);
    }

    #[test]
    fn smooth_data_gives_small_codes() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin()).collect();
        let codes = forward(&data, (1, 1, 4096), 1e-4);
        // After Lorenzo on smooth data, almost all magnitudes are tiny.
        let big = codes.iter().filter(|&&c| (c & 0x7FFF) > 16).count();
        assert!(big < codes.len() / 100, "{big} large codes");
    }

    #[test]
    fn delta_integrate_are_inverse_1d() {
        let q: Vec<i32> = vec![5, 3, -2, 7, 7, 0, -9];
        let mut d = lorenzo_delta(&q, (1, 1, 7));
        integrate(&mut d, (1, 1, 7));
        assert_eq!(d, q);
    }

    #[test]
    fn delta_integrate_are_inverse_3d() {
        let shape = (4, 5, 6);
        let q: Vec<i32> = (0..120).map(|i| ((i * 37) % 100) - 50).collect();
        let mut d = lorenzo_delta(&q, shape);
        integrate(&mut d, shape);
        assert_eq!(d, q);
    }

    #[test]
    fn first_element_passes_through() {
        // With zero boundary, delta[0] == q[0].
        let q = vec![42i32, 1, 2];
        let d = lorenzo_delta(&q, (1, 1, 3));
        assert_eq!(d[0], 42);
    }

    #[test]
    fn rank_inference() {
        assert_eq!(rank_of((1, 1, 10)), 1);
        assert_eq!(rank_of((1, 5, 10)), 2);
        assert_eq!(rank_of((2, 5, 10)), 3);
    }

    proptest! {
        #[test]
        fn prop_delta_integrate_inverse(
            q in proptest::collection::vec(-1000i32..1000, 60),
        ) {
            // 3D shape 3x4x5 = 60.
            let shape = (3, 4, 5);
            let mut d = lorenzo_delta(&q, shape);
            integrate(&mut d, shape);
            prop_assert_eq!(d, q);
        }

        #[test]
        fn prop_error_bounded_2d(
            vals in proptest::collection::vec(-100f32..100.0, 64),
            eb_exp in -4i32..-1,
        ) {
            // Random (rough) data still respects the bound as long as
            // deltas stay inside the 15-bit magnitude.
            let eb = 10f64.powi(eb_exp) * 100.0; // scale to data range
            let shape = (1, 8, 8);
            let codes = forward(&vals, shape, eb);
            let back = inverse(&codes, shape, eb);
            for (&a, &b) in vals.iter().zip(&back) {
                let slack = (a.abs().max(b.abs()) as f64) * 1e-6 + 1e-9;
                prop_assert!((a as f64 - b as f64).abs() <= eb + slack);
            }
        }
    }
}
