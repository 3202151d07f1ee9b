//! The scalar test oracle: the whole pipeline composed from the reference
//! stage modules — [`lorenzo::forward`]/[`lorenzo::inverse`],
//! [`crate::pack`], [`crate::bitshuffle`], [`crate::zeroblock`] — and
//! [`crate::format`]. Production code never calls it; the conformance
//! suites hold the simulated and native paths byte-identical to it.

use crate::bitshuffle::{shuffle, unshuffle};
use crate::format::{assemble, disassemble, FormatError, Header, VERSION};
use crate::lorenzo::{self, Shape};
use crate::pack::{pack_codes, unpack_codes};
use crate::pipeline::Compressed;
use crate::quant::ErrorBound;
use crate::zeroblock::{self, ZeroBlockStream, BLOCK_WORDS};

/// Compress through the scalar stages.
///
/// # Panics
/// Panics when `data.len()` disagrees with `shape` or the resolved bound
/// is not finite and positive — the production paths' contract.
pub fn compress(data: &[f32], shape: Shape, eb: ErrorBound) -> Compressed {
    let (nz, ny, nx) = shape;
    assert_eq!(data.len(), nz * ny * nx, "shape/data mismatch");
    let eb_abs = eb.resolve(data);
    let codes = lorenzo::forward(data, shape, eb_abs);
    let zb = zeroblock::encode(&shuffle(&pack_codes(&codes)));
    let header = Header {
        version: VERSION,
        shape,
        eb: eb_abs,
        n_values: data.len(),
        num_blocks: zb.num_blocks,
        payload_words: zb.payload.len(),
    };
    Compressed { bytes: assemble(&header, &zb.bit_flags, &zb.payload), header }
}

/// Decompress a stream from any path through the scalar stages.
pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
    let (header, bit_flags, payload) = disassemble(bytes)?;
    let present: usize = bit_flags.iter().map(|w| w.count_ones() as usize).sum();
    if present * BLOCK_WORDS != payload.len() {
        return Err(FormatError::Inconsistent("flag popcount vs payload length"));
    }
    let stream = ZeroBlockStream { bit_flags, payload, num_blocks: header.num_blocks };
    let codes = unpack_codes(&unshuffle(&zeroblock::decode(&stream)), header.n_values);
    Ok(lorenzo::inverse(&codes, header.shape, header.eb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_bound() {
        let data: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.013).sin() * 4.0).collect();
        let c = compress(&data, (1, 100, 200), ErrorBound::RelToRange(1e-3));
        let back = decompress(&c.bytes).unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a as f64 - b as f64).abs() <= c.header.eb * 1.00001);
        }
    }

    #[test]
    fn popcount_mismatch_is_an_error_not_a_panic() {
        // A checksum-valid stream whose flags claim no blocks but whose
        // payload holds one.
        let header = Header {
            version: VERSION,
            shape: (1, 1, 16),
            eb: 1e-3,
            n_values: 16,
            num_blocks: 256,
            payload_words: BLOCK_WORDS,
        };
        let bytes = assemble(&header, &[0; 8][..], &[1; BLOCK_WORDS][..]);
        assert_eq!(
            decompress(&bytes),
            Err(FormatError::Inconsistent("flag popcount vs payload length"))
        );
    }
}
