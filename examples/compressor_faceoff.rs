//! Head-to-head: run every compressor in the repository on one RTM-like
//! wavefield snapshot and print the trade-off table the paper's evaluation
//! is built around (ratio vs throughput vs quality).
//!
//! ```sh
//! cargo run --release --example compressor_faceoff
//! ```

use fz_gpu::core::quant::ErrorBound;
use fz_gpu::core::FzNative;
use fz_gpu::data::{dataset, Scale};
use fz_gpu::metrics::psnr;
use fz_gpu::sim::device::A100;
use fz_gpu::store::{CodecConfig, Registry};

fn main() {
    let field = dataset("RTM").unwrap().generate(Scale::Reduced);
    let shape = field.dims.as_3d();
    let n = field.data.len();
    let rel_eb = 1e-3;
    let eb_abs = ErrorBound::RelToRange(rel_eb).resolve(&field.data);
    println!(
        "RTM {} snapshot, rel eb {rel_eb:.0e}, simulated A100\n",
        field.dims.to_string_paper()
    );
    println!("{:<12} {:>8} {:>10} {:>10} {:>12}", "compressor", "ratio", "PSNR dB", "GB/s", "mode");

    // FZ-GPU via its own API (it also runs behind the codec interface
    // below, as `CodecConfig::Fz`).
    let mut fz = fz_gpu::core::FzGpu::new(A100);
    let c = fz.compress(&field.data, shape, ErrorBound::RelToRange(rel_eb));
    let restored = fz.decompress(&c).unwrap();
    println!(
        "{:<12} {:>7.1}x {:>10.1} {:>10.1} {:>12}",
        "FZ-GPU",
        c.ratio(),
        psnr(&field.data, &restored),
        fz.throughput_gbps(n),
        "error-bound"
    );

    // Every baseline through the one codec interface: encode, read the
    // modeled compress time, decode.
    let report = |name: &str, cfg: CodecConfig, mode: &str| {
        let mut codec = Registry::builtin().build(&cfg, A100).unwrap();
        let Ok(bytes) = codec.encode(&field.data, shape) else {
            println!("{:<12} {:>8} {:>10} {:>10} {:>12}", name, "-", "-", "-", "unsupported");
            return;
        };
        let seconds = codec.modeled_seconds();
        let stored = codec.accounted_bytes(&bytes, shape).unwrap();
        let restored = codec.decode(&bytes, shape).unwrap();
        println!(
            "{:<12} {:>7.1}x {:>10.1} {:>10.1} {:>12}",
            name,
            (n * 4) as f64 / stored as f64,
            psnr(&field.data, &restored),
            (n * 4) as f64 / seconds / 1e9,
            mode
        );
    };

    report("cuSZ", CodecConfig::CuSz { eb_abs }, "error-bound");
    report("cuSZx", CodecConfig::CuSzx { eb_abs }, "error-bound");
    report("MGARD-GPU", CodecConfig::Mgard { eb_abs }, "error-bound");
    report("cuZFP r=4", CodecConfig::CuZfp { rate: 4.0 }, "fixed-rate");

    // And FZ-OMP — the same pipeline as multi-threaded host code (the
    // native fast path), wall-clock measured.
    let mut fz_omp = FzNative::new();
    let t0 = std::time::Instant::now();
    let c = fz_omp.compress(&field.data, shape, ErrorBound::RelToRange(rel_eb));
    let dt = t0.elapsed().as_secs_f64();
    let restored = fz_omp.decompress(&c).unwrap();
    println!(
        "{:<12} {:>7.1}x {:>10.1} {:>10.1} {:>12}",
        "FZ-OMP",
        c.ratio(),
        psnr(&field.data, &restored),
        (n * 4) as f64 / dt / 1e9,
        "error-bound"
    );
    println!("\n(cuZFP has no error-bounded mode; its row is a fixed 4 bits/value.)");
}
