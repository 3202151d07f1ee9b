//! Pieces the baseline streams share: their chunk-shape header and
//! outlier list on the wire, and the v1 dual-quantization decode that
//! cuSZ, cuSZ+RLE and SZ-OMP all end in.

use fzgpu_codecs::wire::{self, Cursor, WireResult};
use fzgpu_core::gpu::quant::V1_RADIUS;
use fzgpu_core::lorenzo::{self, Shape};

/// Values in a shape.
pub(crate) fn volume(shape: Shape) -> usize {
    shape.0 * shape.1 * shape.2
}

/// Append `shape` as three `u64` extents.
pub(crate) fn put_shape(out: &mut Vec<u8>, shape: Shape) {
    wire::put_u64(out, shape.0 as u64);
    wire::put_u64(out, shape.1 as u64);
    wire::put_u64(out, shape.2 as u64);
}

/// Read a [`put_shape`] header and check it names the chunk's `shape`.
pub(crate) fn expect_shape(c: &mut Cursor<'_>, shape: Shape) -> WireResult<()> {
    let stored = (c.u64()?, c.u64()?, c.u64()?);
    if stored != (shape.0 as u64, shape.1 as u64, shape.2 as u64) {
        return Err("stored shape does not match chunk shape");
    }
    Ok(())
}

/// Append `(index, quantized delta)` outlier pairs, count-prefixed.
pub(crate) fn put_outliers(out: &mut Vec<u8>, outliers: &[(u32, i32)]) {
    wire::put_u64(out, outliers.len() as u64);
    for &(i, d) in outliers {
        wire::put_u32(out, i);
        wire::put_u32(out, d as u32);
    }
}

/// Parse [`put_outliers`]'s form. [`reconstruct`] checks the indices.
pub(crate) fn get_outliers(c: &mut Cursor<'_>) -> WireResult<Vec<(u32, i32)>> {
    let n = c.len(c.remaining() / 8)?;
    (0..n).map(|_| Ok((c.u32()?, c.u32()? as i32))).collect()
}

/// The v1 dual-quantization decode: codes back to deltas (code 0 marks an
/// outlier), outliers patched in, Lorenzo integration, dequantization.
pub(crate) fn reconstruct(
    codes: &[u16],
    outliers: &[(u32, i32)],
    shape: Shape,
    eb: f64,
) -> Result<Vec<f32>, &'static str> {
    if codes.len() != volume(shape) {
        return Err("code count does not match shape");
    }
    let mut deltas: Vec<i32> =
        codes.iter().map(|&c| if c == 0 { 0 } else { c as i32 - V1_RADIUS }).collect();
    for &(idx, val) in outliers {
        *deltas.get_mut(idx as usize).ok_or("outlier index out of range")? = val;
    }
    lorenzo::integrate(&mut deltas, shape);
    let ebx2 = 2.0 * eb;
    Ok(deltas.into_iter().map(|q| (q as f64 * ebx2) as f32).collect())
}
