//! Little-endian byte (de)serialization helpers for codec stream formats.
//!
//! Every structured stream in the workspace (the Huffman codebook and
//! chunked payload here, each baseline compressor's stream in
//! `fzgpu-baselines`) writes through these helpers so the wire layout is
//! uniform: scalars little-endian, sequences length-prefixed with a `u64`
//! element count. Parsing is bounds-checked and returns a `&'static str`
//! describing the first malformed field — mapped to
//! `fzgpu_store::CodecError::Malformed` at the codec boundary.

/// Bounds-checked parse result.
pub type WireResult<T> = Result<T, &'static str>;

/// Append a `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// Append a length-prefixed `u32` slice.
pub fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u32(out, x);
    }
}

/// Append a length-prefixed `f32` slice.
pub fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Sequential bounds-checked reader over a byte slice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err("truncated stream");
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` that must fit a `usize` and stay under `cap` (an
    /// allocation guard for length prefixes).
    pub fn len(&mut self, cap: usize) -> WireResult<usize> {
        let v = self.u64()?;
        if v > cap as u64 {
            return Err("length prefix out of range");
        }
        Ok(v as usize)
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f32`.
    pub fn f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte vector.
    pub fn bytes(&mut self) -> WireResult<Vec<u8>> {
        let n = self.len(self.remaining())?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> WireResult<Vec<u32>> {
        let n = self.len(self.remaining() / 4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> WireResult<Vec<f32>> {
        let n = self.len(self.remaining() / 4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn done(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err("trailing bytes after stream")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_sequences() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xbeef);
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.5);
        put_bytes(&mut out, b"abc");
        put_u32s(&mut out, &[1, 2, 3]);
        put_f32s(&mut out, &[1.5, -2.5]);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u16().unwrap(), 0xbeef);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.f64().unwrap(), -0.5);
        assert_eq!(c.bytes().unwrap(), b"abc");
        assert_eq!(c.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.f32s().unwrap(), vec![1.5, -2.5]);
        c.done().unwrap();
    }

    #[test]
    fn truncation_and_bogus_lengths_are_errors() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(c.u32().is_err());
        // A length prefix claiming more data than exists must not allocate.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        assert!(Cursor::new(&out).bytes().is_err());
        let mut c = Cursor::new(&[0u8; 9]);
        c.take(8).unwrap();
        assert!(c.done().is_err());
    }
}
