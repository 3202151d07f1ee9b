//! Cross-crate invariant: the GPU pipeline (warp-synchronous kernels on
//! the simulator) and the scalar oracle (`fzgpu_core::reference`) produce
//! **bit-identical compressed streams**, and each can decompress the
//! other's output.

use fz_gpu::core::{reference, ErrorBound, FzGpu};
use fz_gpu::sim::device::{A100, A4000};

fn field(shape: (usize, usize, usize)) -> Vec<f32> {
    let (nz, ny, nx) = shape;
    (0..nz * ny * nx)
        .map(|i| {
            let z = i / (ny * nx);
            let y = i / nx % ny;
            let x = i % nx;
            (x as f32 * 0.07).sin() * 3.0 + (y as f32 * 0.03).cos() - (z as f32 * 0.11).sin()
        })
        .collect()
}

fn check_shape(shape: (usize, usize, usize), eb: ErrorBound) {
    let data = field(shape);
    let mut gpu = FzGpu::new(A100);
    let c_gpu = gpu.compress(&data, shape, eb);
    let c_ref = reference::compress(&data, shape, eb);
    assert_eq!(c_gpu.bytes, c_ref.bytes, "streams diverge for {shape:?}");

    // Cross-decompression.
    let from_gpu = reference::decompress(&c_gpu.bytes).unwrap();
    let from_ref = gpu.decompress_bytes(&c_ref.bytes).unwrap();
    assert_eq!(from_gpu, from_ref, "reconstructions diverge for {shape:?}");

    // Both honor the bound.
    let bound = c_gpu.header.eb;
    for (&a, &b) in data.iter().zip(&from_gpu) {
        assert!((a as f64 - b as f64).abs() <= bound * 1.00001 + 1e-9);
    }
}

#[test]
fn identical_streams_1d() {
    check_shape((1, 1, 5000), ErrorBound::Abs(1e-3));
}

#[test]
fn identical_streams_2d_ragged() {
    check_shape((1, 95, 121), ErrorBound::RelToRange(1e-3));
}

#[test]
fn identical_streams_3d() {
    check_shape((7, 33, 61), ErrorBound::RelToRange(5e-4));
}

#[test]
fn identical_streams_3d_tile_aligned() {
    check_shape((8, 32, 64), ErrorBound::Abs(1e-2));
}

#[test]
fn identical_streams_across_devices() {
    // The stream must not depend on the device model, only on the data.
    let shape = (1, 64, 64);
    let data = field(shape);
    let c_a100 = FzGpu::new(A100).compress(&data, shape, ErrorBound::Abs(1e-3));
    let c_a4000 = FzGpu::new(A4000).compress(&data, shape, ErrorBound::Abs(1e-3));
    assert_eq!(c_a100.bytes, c_a4000.bytes);
}
