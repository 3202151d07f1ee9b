//! Raw binary field I/O — the SDRBench convention: bare little-endian f32
//! arrays with dimensions supplied out of band (exactly what the real
//! FZ-GPU CLI consumes).

use std::io::{Read, Write};
use std::path::Path;

use crate::dims::Dims;
use crate::field::Field;

/// I/O errors with context.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// File length is not a multiple of 4 or disagrees with the dims.
    BadLength { expected_values: usize, actual_bytes: usize },
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadLength { actual_bytes, .. } if actual_bytes % 4 != 0 => {
                write!(f, "length {actual_bytes} is not a multiple of 4")
            }
            IoError::BadLength { expected_values, actual_bytes } => write!(
                f,
                "file holds {actual_bytes} bytes but dims imply {} bytes",
                expected_values * 4
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Read a raw little-endian f32 file with known dims.
pub fn read_f32_file(path: &Path, dims: Dims) -> Result<Field, IoError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() != dims.count() * 4 {
        return Err(IoError::BadLength {
            expected_values: dims.count(),
            actual_bytes: bytes.len(),
        });
    }
    let data: Vec<f32> =
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    let name = path.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
    Ok(Field::new(name, "file", dims, data))
}

/// Read a raw f32 file as a flat 1D field (dims inferred from length).
pub fn read_f32_file_flat(path: &Path) -> Result<Field, IoError> {
    let len = std::fs::metadata(path)?.len() as usize;
    if !len.is_multiple_of(4) {
        return Err(IoError::BadLength { expected_values: len / 4, actual_bytes: len });
    }
    read_f32_file(path, Dims::D1(len / 4))
}

/// Write values as raw little-endian f32.
pub fn write_f32_file(path: &Path, data: &[f32]) -> Result<(), IoError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for v in data {
        f.write_all(&v.to_le_bytes())?;
    }
    f.flush()?;
    Ok(())
}

/// Parse a dims string like `"512x512x512"`, `"1800x3600"`, or `"1048576"`
/// (slowest axis first, matching SDRBench file names).
pub fn parse_dims(s: &str) -> Option<Dims> {
    let parts: Vec<usize> =
        s.split(['x', 'X']).map(|p| p.trim().parse().ok()).collect::<Option<_>>()?;
    match parts.as_slice() {
        [n] if *n > 0 => Some(Dims::D1(*n)),
        [ny, nx] if *ny > 0 && *nx > 0 => Some(Dims::D2(*ny, *nx)),
        [nz, ny, nx] if *nz > 0 && *ny > 0 && *nx > 0 => Some(Dims::D3(*nz, *ny, *nx)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fzgpu_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_file() {
        let path = tmp("roundtrip");
        let data: Vec<f32> = (0..96).map(|i| i as f32 * 0.5 - 3.0).collect();
        write_f32_file(&path, &data).unwrap();
        let field = read_f32_file(&path, Dims::D3(2, 6, 8)).unwrap();
        assert_eq!(field.data, data);
        let flat = read_f32_file_flat(&path).unwrap();
        assert_eq!(flat.dims, Dims::D1(96));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_length_rejected() {
        let path = tmp("badlen");
        write_f32_file(&path, &[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(read_f32_file(&path, Dims::D1(4)), Err(IoError::BadLength { .. })));
        std::fs::write(&path, [0u8; 13]).unwrap();
        let err = read_f32_file_flat(&path).unwrap_err();
        assert_eq!(err.to_string(), "length 13 is not a multiple of 4");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_dims_variants() {
        assert_eq!(parse_dims("100"), Some(Dims::D1(100)));
        assert_eq!(parse_dims("1800x3600"), Some(Dims::D2(1800, 3600)));
        assert_eq!(parse_dims("100x500x500"), Some(Dims::D3(100, 500, 500)));
        assert_eq!(parse_dims("100X200"), Some(Dims::D2(100, 200)));
        assert_eq!(parse_dims("0x5"), None);
        assert_eq!(parse_dims("abc"), None);
        assert_eq!(parse_dims("1x2x3x4"), None);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_f32_file(Path::new("/nonexistent/fzgpu"), Dims::D1(4)),
            Err(IoError::Io(_))
        ));
    }
}
