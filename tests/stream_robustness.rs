//! Robustness of stream parsing: corrupted or truncated streams must be
//! rejected with an error — never a panic, never silent garbage accepted
//! as a valid header.

use fz_gpu::core::format::{self, Header, HEADER_BYTES, HEADER_V1_BYTES, VERSION, VERSION_V1};
use fz_gpu::core::{reference, ErrorBound, FzGpu};
use fz_gpu::sim::device::A100;
use proptest::prelude::*;

fn small_stream() -> (Vec<f32>, Vec<u8>) {
    let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&data, (1, 32, 64), ErrorBound::Abs(1e-3));
    (data, c.bytes)
}

#[test]
fn every_truncation_point_is_rejected() {
    let (_, bytes) = small_stream();
    let mut fz = FzGpu::new(A100);
    for cut in [0, 1, 32, 63, 64, 65, bytes.len() / 2, bytes.len() - 1] {
        assert!(fz.decompress_bytes(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
    }
}

#[test]
fn header_byte_corruption_never_panics() {
    let (data, bytes) = small_stream();
    let mut fz = FzGpu::new(A100);
    // Flip each header byte: outcome must be Err or a stream decoding to
    // *something* without panicking (payload-only mutations change values,
    // which is allowed — error-bounded compressors do not authenticate).
    for pos in 0..64.min(bytes.len()) {
        for flip in [0x01u8, 0x80] {
            let mut mangled = bytes.clone();
            mangled[pos] ^= flip;
            if let Ok(out) = fz.decompress_bytes(&mangled) {
                assert_eq!(out.len(), data.len(), "byte {pos} changed geometry")
            }
        }
    }
}

#[test]
fn v1_streams_still_decompress() {
    // Backward compatibility: re-serialize today's sections under a v1
    // header (the checksum-free legacy layout) — readers must accept it
    // and produce identical values.
    let (data, bytes) = small_stream();
    let (h, bit_flags, payload) = format::disassemble(&bytes).unwrap();
    assert_eq!(h.version, VERSION);
    let v1 = format::assemble(&Header { version: VERSION_V1, ..h }, &bit_flags, &payload);
    assert_eq!(v1.len(), bytes.len() - (HEADER_BYTES - HEADER_V1_BYTES));
    let mut fz = FzGpu::new(A100);
    let out = fz.decompress_bytes(&v1).unwrap();
    let reference = fz.decompress_bytes(&bytes).unwrap();
    assert_eq!(out, reference);
    assert_eq!(out.len(), data.len());
}

#[test]
fn v2_streams_are_bit_exact_and_deterministic() {
    // Checksums add no nondeterminism: same input → same bytes, the GPU
    // path and the scalar oracle agree, and the stream round-trips through
    // verify.
    let (data, bytes) = small_stream();
    let (_, bytes_again) = small_stream();
    assert_eq!(bytes, bytes_again);
    let oracle = reference::compress(&data, (1, 32, 64), ErrorBound::Abs(1e-3));
    assert_eq!(oracle.bytes, bytes, "oracle and GPU v2 streams must be bit-identical");
    let h = format::verify(&bytes).expect("fresh stream must verify");
    assert_eq!(h.version, VERSION);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn random_bytes_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut fz = FzGpu::new(A100);
        let _ = fz.decompress_bytes(&junk); // must not panic
    }

    #[test]
    fn payload_corruption_keeps_geometry(pos in 64usize..1000, flip in 1u8..255) {
        let (data, bytes) = small_stream();
        prop_assume!(pos < bytes.len());
        let mut mangled = bytes.clone();
        mangled[pos] ^= flip;
        let mut fz = FzGpu::new(A100);
        if let Ok(out) = fz.decompress_bytes(&mangled) {
            prop_assert_eq!(out.len(), data.len());
        }
    }
}
