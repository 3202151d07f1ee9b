//! Quickstart: compress a 3D field under an error bound, decompress it,
//! and verify the contract — the five-minute tour of the public API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fz_gpu::core::{ErrorBound, FzGpu};
use fz_gpu::metrics::{compression_ratio, max_abs_error, psnr};
use fz_gpu::sim::device::A100;

fn main() {
    // A smooth synthetic 3D field, 64x128x128 (x fastest).
    let shape = (64usize, 128usize, 128usize);
    let n = shape.0 * shape.1 * shape.2;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let z = (i / (shape.1 * shape.2)) as f32;
            let y = (i / shape.2 % shape.1) as f32;
            let x = (i % shape.2) as f32;
            (x * 0.07).sin() * 2.0 + (y * 0.05).cos() + (z * 0.11).sin() * 0.5
        })
        .collect();

    // Compress on a simulated A100 with a range-relative bound of 1e-3.
    let mut fz = FzGpu::new(A100);
    let compressed = fz.compress(&data, shape, ErrorBound::RelToRange(1e-3));
    println!("original:    {:>10} bytes", n * 4);
    println!("compressed:  {:>10} bytes", compressed.bytes.len());
    println!("ratio:       {:>10.1}x", compression_ratio(n * 4, compressed.bytes.len()));
    println!("kernel time: {:>10.3} ms (modeled A100)", fz.kernel_time() * 1e3);
    println!("throughput:  {:>10.1} GB/s", fz.throughput_gbps(n));

    // Decompress and verify the error-bound contract.
    let restored = fz.decompress(&compressed).expect("stream is valid");
    let bound = compressed.header.eb;
    let worst = max_abs_error(&data, &restored);
    println!("\nerror bound: {bound:.3e}");
    println!("max error:   {worst:.3e}  (within bound: {})", worst <= bound * 1.00001);
    println!("PSNR:        {:.1} dB", psnr(&data, &restored));
    assert!(worst <= bound * 1.00001);

    // Per-kernel profile of the decompression pipeline we just ran.
    println!("\n{}", fz.profile().text_report());
}
