//! The FZ-GPU compressor: public API over the GPU kernel pipeline.
//!
//! Compression (Fig. 1, bottom row):
//! optimized dual-quantization → fused bitshuffle + zero-block mark →
//! prefix-sum + compaction. Decompression mirrors it. All stages execute
//! on the [`fzgpu_sim::Gpu`] simulator; the stream bytes are bit-exact
//! products of the kernels, the kernel times come from the device model.

use fzgpu_sim::{
    DeviceSpec, Engine, Event, FaultPlan, Gpu, GpuBuffer, MemPool, Profile, RetryPolicy,
};
use fzgpu_trace::metrics::{self, Class};
use rayon::prelude::*;

use crate::fastpath::{pack_tile, FzNative, PipelinePath};
use crate::format::{assemble, disassemble, FormatError, Header, Section, VERSION};
use crate::gpu::bitshuffle::{bitshuffle_mark, ShuffleVariant};
use crate::gpu::decode as gdec;
use crate::gpu::encode as genc;
use crate::gpu::quant::pred_quant_v2;
use crate::lorenzo::Shape;
use crate::pack::{padded_words, TILE_CODES, TILE_WORDS};
use crate::quant::ErrorBound;
use crate::zeroblock::BLOCK_WORDS;

/// Tunables of the compressor: its launch structure, fault handling, path
/// and engine. The Fig. 10 and ablation variants of the bitshuffle-mark
/// kernel are not options here; those benches launch
/// [`bitshuffle_mark`] with a [`ShuffleVariant`] directly.
#[derive(Debug, Clone, Copy)]
pub struct FzOptions {
    /// Experimental full-pipeline fusion for 1D fields (future work §6
    /// item 1): quantization + packing + bitshuffle + marking in a single
    /// kernel. Stream bytes are unchanged; only the launch structure is.
    pub full_fusion_1d: bool,
    /// Launch retry policy used when transient-fault injection is active
    /// (see [`FzGpu::enable_faults`]); inert otherwise.
    pub retry: RetryPolicy,
    /// Which implementation runs compress/decompress calls (see
    /// [`PipelinePath`]). Defaults from the `FZGPU_NATIVE` environment
    /// variable; [`PipelinePath::Simulated`] when unset. The
    /// `full_fusion_1d` knob only affects the simulated launch structure —
    /// stream bytes are identical on every path, so the native path
    /// ignores it.
    pub path: PipelinePath,
    /// Which simulation engine executes kernel launches (see
    /// [`fzgpu_sim::Engine`]). [`Engine::Interpreted`] runs every block of
    /// every launch — the model of record. [`Engine::Analytic`] executes
    /// one representative block per counter-equivalence class (or a closed
    /// form) and fills output buffers through the native word-level
    /// kernels; timelines, counters, and stream bytes are bit-identical
    /// by construction (held by the `engine_equivalence` suite). Defaults
    /// from the `FZGPU_SIM_ENGINE` environment variable.
    pub engine: Engine,
}

impl Default for FzOptions {
    fn default() -> Self {
        Self {
            full_fusion_1d: false,
            retry: RetryPolicy::default(),
            path: PipelinePath::from_env(),
            engine: Engine::from_env(),
        }
    }
}

/// A compressed field plus its parsed header.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The serialized stream ([`crate::format`] layout).
    pub bytes: Vec<u8>,
    /// Parsed header (shape, bound, section sizes).
    pub header: Header,
}

impl Compressed {
    /// Compression ratio against the original f32 field.
    pub fn ratio(&self) -> f64 {
        (self.header.n_values * 4) as f64 / self.bytes.len() as f64
    }
}

/// The FZ-GPU compressor bound to one simulated device.
pub struct FzGpu {
    gpu: Gpu,
    opts: FzOptions,
    /// Scratch-buffer-holding native pipeline, used by
    /// [`PipelinePath::Native`] and [`PipelinePath::Both`]. Kept across
    /// calls so chunked workloads (archives, serving) stop paying per-call
    /// host allocations.
    native: FzNative,
}

impl FzGpu {
    /// New compressor with default options on the given device.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_options(spec, FzOptions::default())
    }

    /// New compressor with explicit options.
    pub fn with_options(spec: DeviceSpec, opts: FzOptions) -> Self {
        let mut gpu = Gpu::new(spec);
        gpu.set_retry_policy(opts.retry);
        gpu.set_engine(opts.engine);
        Self { gpu, opts, native: FzNative::new() }
    }

    /// The pipeline path this compressor runs on.
    pub fn path(&self) -> PipelinePath {
        self.opts.path
    }

    /// Switch the pipeline path for subsequent calls.
    pub fn set_path(&mut self, path: PipelinePath) {
        self.opts.path = path;
    }

    /// The configured simulation engine (see [`FzOptions::engine`]).
    pub fn engine(&self) -> Engine {
        self.gpu.engine()
    }

    /// Switch the simulation engine for subsequent calls. Race detection
    /// and non-disabled fault plans still force [`Engine::Interpreted`]
    /// per launch (see [`Gpu::effective_engine`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.opts.engine = engine;
        self.gpu.set_engine(engine);
    }

    /// Access the underlying device (timeline inspection, spec).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the underlying device (fault plans, budgets).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Attach a device memory pool: every intermediate buffer the pipeline
    /// allocates is acquired from (and released back to) the pool, so a
    /// compressor that processes many fields stops paying per-call
    /// `cudaMalloc`s once the working set is warm. Streams are bit-identical
    /// with or without a pool (recycled buffers are zeroed on acquire);
    /// the `mempool_pipeline` proptest suite holds that equivalence.
    pub fn attach_pool(&mut self, pool: MemPool) {
        self.gpu.set_pool(pool);
    }

    /// Turn on deterministic fault injection for subsequent pipeline runs
    /// (soft errors in device memory, transient launch failures). Launch
    /// failures are absorbed by the retry policy in [`FzOptions::retry`];
    /// memory corruption propagates into the produced stream, where the
    /// format-v2 checksums are expected to catch it.
    ///
    /// Fault injection lives in the simulator, so while a non-disabled plan
    /// is installed, [`PipelinePath::Native`] and [`PipelinePath::Both`]
    /// calls are downgraded to the simulated pipeline (counted by the
    /// Det-class `fzgpu_core_native_downgrade_total` metric) — the native
    /// path would silently bypass injection, and `Both` would spuriously
    /// panic when injected corruption diverges the simulated stream.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.gpu.enable_faults(plan);
    }

    /// The path calls actually run on right now: [`FzOptions::path`] unless
    /// an active fault plan forces the simulated pipeline (see
    /// [`FzGpu::enable_faults`]).
    pub fn effective_path(&self) -> PipelinePath {
        let faulted = self.gpu.faults().is_some_and(|f| !f.plan().is_disabled());
        if faulted {
            PipelinePath::Simulated
        } else {
            self.opts.path
        }
    }

    /// [`FzGpu::effective_path`] plus the downgrade metric: each call that
    /// was downgraded off its configured path bumps the Det-class counter.
    fn dispatch_path(&self) -> PipelinePath {
        let effective = self.effective_path();
        if effective != self.opts.path {
            metrics::counter_add(Class::Det, "fzgpu_core_native_downgrade_total", &[], 1);
        }
        effective
    }

    /// Total launch retries absorbed across this compressor's lifetime
    /// (0 unless fault injection is active).
    pub fn total_retries(&self) -> u64 {
        self.gpu.total_retries()
    }

    /// Compress `data` of `shape` under `eb`, on the configured
    /// [`PipelinePath`].
    ///
    /// On [`PipelinePath::Simulated`] this resets the device timeline;
    /// afterwards [`FzGpu::kernel_time`] reports this pipeline's modeled
    /// kernel time (transfers excluded, as in the paper's "kernel time"
    /// throughput metric). On [`PipelinePath::Native`] the timeline is
    /// reset and left empty — the native path charges no modeled time; its
    /// cost is real host wall-clock (the `fzgpu_core_host_seconds` metric).
    /// [`PipelinePath::Both`] runs native first, then simulated, panics if
    /// the streams differ by a byte, and returns the simulated result.
    pub fn compress(&mut self, data: &[f32], shape: Shape, eb: ErrorBound) -> Compressed {
        match self.dispatch_path() {
            PipelinePath::Simulated => self.compress_simulated(data, shape, eb),
            PipelinePath::Native => {
                let t0 = std::time::Instant::now();
                let _root = fzgpu_trace::span("fz.compress")
                    .field("values", data.len())
                    .field("path", "native");
                self.gpu.reset_timeline();
                let c = self.native.compress(data, shape, eb);
                note_compress_metrics(data.len(), c.bytes.len(), t0);
                c
            }
            PipelinePath::Both => {
                let n = self.native.compress(data, shape, eb);
                let s = self.compress_simulated(data, shape, eb);
                assert_eq!(
                    n.bytes, s.bytes,
                    "PipelinePath::Both divergence: native and simulated streams differ"
                );
                s
            }
        }
    }

    /// The kernel-simulated compress pipeline (the model of record).
    fn compress_simulated(&mut self, data: &[f32], shape: Shape, eb: ErrorBound) -> Compressed {
        let (nz, ny, nx) = shape;
        assert_eq!(data.len(), nz * ny * nx, "shape/data mismatch");
        // Resolve a range-relative bound host-side (the paper's harness
        // derives absolute bounds from the field range before compressing).
        let eb_abs = eb.resolve(data);

        let t0 = std::time::Instant::now();
        let _root = fzgpu_trace::span("fz.compress")
            .field("values", data.len())
            .field("eb", format_args!("{eb_abs:e}"));

        let d_input = self.gpu.upload(data);
        self.gpu.reset_timeline();

        let (d_shuffled, d_byte_flags, d_bit_flags) =
            if self.opts.full_fusion_1d && crate::lorenzo::rank_of(shape) == 1 {
                // Experimental single-kernel front end (future work §6.1).
                let _s = fzgpu_trace::span("stage.fused_quant_shuffle");
                crate::gpu::fused::fused_1d(&mut self.gpu, &d_input, data.len(), eb_abs)
            } else {
                // Stage 1: optimized dual-quantization.
                let d_codes = {
                    let _s = fzgpu_trace::span("stage.quant");
                    pred_quant_v2(&mut self.gpu, &d_input, shape, eb_abs)
                };

                // Reinterpret the u16 code array as u32 words, zero-padded
                // to a whole number of bitshuffle tiles. On hardware this is
                // a pointer cast (two u16 occupy one u32); no kernel runs
                // and no time is charged — only the padding tail is fresh,
                // and the zeroed allocation supplies it.
                let d_words = {
                    let _s = fzgpu_trace::span("stage.pack");
                    let mut words = self.gpu.alloc::<u32>(padded_words(data.len()));
                    pack_tiles(&d_codes, words.host_mut());
                    words
                };
                self.gpu.free(d_codes);

                // Stage 2: fused bitshuffle + zero-block mark.
                let out = {
                    let _s = fzgpu_trace::span("stage.shuffle");
                    bitshuffle_mark(&mut self.gpu, &d_words, ShuffleVariant::Fused)
                };
                self.gpu.free(d_words);
                out
            };
        self.gpu.free(d_input);

        // Stage 3: prefix sum + compaction.
        let d_payload = {
            let _s = fzgpu_trace::span("stage.encode");
            let d_wide = genc::widen_flags(&mut self.gpu, &d_byte_flags);
            let (d_offsets, present) = genc::flag_offsets(&mut self.gpu, &d_wide);
            self.gpu.free(d_wide);
            let payload =
                genc::compact(&mut self.gpu, &d_shuffled, &d_byte_flags, &d_offsets, present);
            self.gpu.free(d_offsets);
            payload
        };

        let header = Header {
            version: VERSION,
            shape,
            eb: eb_abs,
            n_values: data.len(),
            num_blocks: d_shuffled.len() / BLOCK_WORDS,
            payload_words: d_payload.len(),
        };
        let bytes = {
            let _s = fzgpu_trace::span("stage.assemble");
            assemble(&header, &d_bit_flags, &d_payload)
        };
        self.gpu.free(d_shuffled);
        self.gpu.free(d_byte_flags);
        self.gpu.free(d_bit_flags);
        self.gpu.free(d_payload);

        note_compress_metrics(data.len(), bytes.len(), t0);
        Compressed { bytes, header }
    }

    /// Decompress a stream produced by any path (every path emits the
    /// same bytes).
    pub fn decompress(&mut self, compressed: &Compressed) -> Result<Vec<f32>, FormatError> {
        self.decompress_bytes(&compressed.bytes)
    }

    /// Decompress from raw stream bytes, on the configured
    /// [`PipelinePath`]. Output floats are bit-identical across paths;
    /// [`PipelinePath::Both`] asserts that (and that both paths agree on
    /// any error) before returning the simulated result.
    pub fn decompress_bytes(&mut self, bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
        match self.dispatch_path() {
            PipelinePath::Simulated => self.decompress_simulated(bytes),
            PipelinePath::Native => {
                let t0 = std::time::Instant::now();
                let _root = fzgpu_trace::span("fz.decompress")
                    .field("bytes", bytes.len())
                    .field("path", "native");
                self.gpu.reset_timeline();
                let out = self.native.decompress_bytes(bytes);
                if out.is_ok() {
                    note_decompress_metrics(t0);
                }
                out
            }
            PipelinePath::Both => {
                let n = self.native.decompress_bytes(bytes);
                let s = self.decompress_simulated(bytes);
                match (&n, &s) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            a.len() == b.len()
                                && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "PipelinePath::Both divergence: native and simulated fields differ"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(
                        a, b,
                        "PipelinePath::Both divergence: paths disagree on the error"
                    ),
                    _ => panic!(
                        "PipelinePath::Both divergence: one path errored, the other succeeded"
                    ),
                }
                s
            }
        }
    }

    /// The kernel-simulated decompress pipeline (the model of record).
    fn decompress_simulated(&mut self, bytes: &[u8]) -> Result<Vec<f32>, FormatError> {
        let t0 = std::time::Instant::now();
        let _root = fzgpu_trace::span("fz.decompress").field("bytes", bytes.len());
        let (header, bit_flags, payload) = {
            let _s = fzgpu_trace::span("stage.disassemble");
            disassemble(bytes)?
        };
        let d_bits = self.gpu.upload(&bit_flags);
        let d_payload = self.gpu.upload(&payload);
        self.gpu.reset_timeline();

        let (d_flags, d_offsets, present) = {
            let _s = fzgpu_trace::span("stage.expand_flags");
            let d_flags = gdec::expand_flags(&mut self.gpu, &d_bits, header.num_blocks);
            let d_wide = genc::widen_flags(&mut self.gpu, &d_flags);
            let (d_offsets, present) = genc::flag_offsets(&mut self.gpu, &d_wide);
            self.gpu.free(d_wide);
            (d_flags, d_offsets, present)
        };
        self.gpu.free(d_bits);
        if present * BLOCK_WORDS != header.payload_words {
            self.gpu.free(d_flags);
            self.gpu.free(d_offsets);
            self.gpu.free(d_payload);
            return Err(FormatError::Inconsistent("flag popcount vs payload length"));
        }
        let d_words = {
            let _s = fzgpu_trace::span("stage.unshuffle");
            let d_shuffled = gdec::scatter(&mut self.gpu, &d_payload, &d_flags, &d_offsets);
            debug_assert_eq!(d_shuffled.len() % TILE_WORDS, 0);
            let words = gdec::bit_unshuffle(&mut self.gpu, &d_shuffled);
            self.gpu.free(d_shuffled);
            words
        };
        self.gpu.free(d_payload);
        self.gpu.free(d_flags);
        self.gpu.free(d_offsets);
        let d_out = {
            let _s = fzgpu_trace::span("stage.dequant");
            gdec::inverse_lorenzo(&mut self.gpu, &d_words, header.shape, header.eb)
        };
        self.gpu.free(d_words);
        note_decompress_metrics(t0);
        let out = d_out.to_vec();
        self.gpu.free(d_out);
        Ok(out)
    }

    /// Modeled kernel time of the last compress/decompress call, seconds.
    pub fn kernel_time(&self) -> f64 {
        self.gpu.kernel_time()
    }

    /// Per-kernel `(name, seconds)` breakdown of the last call.
    pub fn kernel_breakdown(&self) -> Vec<(String, f64)> {
        self.gpu
            .timeline()
            .iter()
            .filter_map(|e| match e {
                Event::Kernel(k) => Some((k.name.clone(), k.time)),
                _ => None,
            })
            .collect()
    }

    /// Snapshot the last call's timeline as a [`fzgpu_sim::Profile`]
    /// (per-kernel counters, roofline attribution, Chrome-trace export).
    pub fn profile(&self) -> Profile {
        Profile::capture(&self.gpu)
    }

    /// Kernel time of the last call grouped by pipeline stage
    /// (see [`crate::gpu::stage_of`]), in order of first launch.
    pub fn stage_times(&self) -> Vec<(&'static str, f64)> {
        let mut stages: Vec<(&'static str, f64)> = Vec::new();
        for (name, time) in self.kernel_breakdown() {
            let stage = crate::gpu::stage_of(&name);
            match stages.iter_mut().find(|(s, _)| *s == stage) {
                Some((_, t)) => *t += time,
                None => stages.push((stage, time)),
            }
        }
        stages
    }

    /// Compression throughput in GB/s for `n_values` f32s at the last
    /// call's kernel time.
    pub fn throughput_gbps(&self, n_values: usize) -> f64 {
        (n_values * 4) as f64 / self.kernel_time() / 1e9
    }
}

/// The simulated pipeline's pack step: device codes, read in place a tile
/// at a time, packed two per word into the tile-aligned `words` through
/// the native encoder's [`pack_tile`]; codes past the field pack as zero.
fn pack_tiles(codes: &GpuBuffer<u16>, words: &mut [u32]) {
    let n = codes.len();
    words.par_chunks_exact_mut(TILE_WORDS).enumerate().for_each(|(t, tile)| {
        let mut tile_codes = [0u16; TILE_CODES];
        let a = (t * TILE_CODES).min(n);
        codes.read_into(a, &mut tile_codes[..(n - a).min(TILE_CODES)]);
        pack_tile(&tile_codes, tile.try_into().expect("a whole tile"));
    });
}

/// A device section read in place for [`assemble`], one tile of words at
/// a time.
impl Section for GpuBuffer<u32> {
    fn parts(&self, put: &mut dyn FnMut(&[u32])) {
        let mut part = [0u32; TILE_WORDS];
        for start in (0..self.len()).step_by(TILE_WORDS) {
            let part = &mut part[..TILE_WORDS.min(self.len() - start)];
            self.read_into(start, part);
            put(part);
        }
    }
}

/// Shared compress-call metrics epilogue (identical on every path, so
/// `fzgpu stats` sees the same counters whichever pipeline ran).
fn note_compress_metrics(n_values: usize, out_bytes: usize, t0: std::time::Instant) {
    metrics::counter_add(Class::Det, "fzgpu_core_compress_calls_total", &[], 1);
    metrics::counter_add(Class::Det, "fzgpu_core_bytes_in_total", &[], (n_values * 4) as u64);
    metrics::counter_add(Class::Det, "fzgpu_core_bytes_out_total", &[], out_bytes as u64);
    let ratio = (n_values * 4) as f64 / out_bytes as f64;
    metrics::gauge_set(Class::Det, "fzgpu_core_compression_ratio_last", &[], ratio);
    metrics::observe(
        Class::Wall,
        "fzgpu_core_host_seconds",
        &[("op", "compress")],
        t0.elapsed().as_secs_f64(),
    );
}

/// Shared decompress-call metrics epilogue (successful decodes only).
fn note_decompress_metrics(t0: std::time::Instant) {
    metrics::counter_add(Class::Det, "fzgpu_core_decompress_calls_total", &[], 1);
    metrics::observe(
        Class::Wall,
        "fzgpu_core_host_seconds",
        &[("op", "decompress")],
        t0.elapsed().as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_sim::device::{A100, A4000};

    fn smooth_3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        (0..nz * ny * nx)
            .map(|i| {
                let z = i / (ny * nx);
                let y = i / nx % ny;
                let x = i % nx;
                (x as f32 * 0.05).sin() * 2.0 + (y as f32 * 0.08).cos() + z as f32 * 0.01
            })
            .collect()
    }

    #[test]
    fn roundtrip_respects_error_bound_3d() {
        let shape = (6, 48, 80);
        let data = smooth_3d(6, 48, 80);
        let eb = 1e-3;
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, shape, ErrorBound::Abs(eb));
        let back = fz.decompress(&c).unwrap();
        assert_eq!(back.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            assert!((a as f64 - b as f64).abs() <= eb * 1.00001, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_1d() {
        let shape = (1, 1, 5000);
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.002).sin() * 10.0).collect();
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, shape, ErrorBound::RelToRange(1e-3));
        let back = fz.decompress(&c).unwrap();
        let bound = c.header.eb;
        for (&a, &b) in data.iter().zip(&back) {
            assert!((a as f64 - b as f64).abs() <= bound * 1.00001);
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let shape = (1, 128, 128);
        let data = smooth_3d(1, 128, 128);
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, shape, ErrorBound::RelToRange(1e-2));
        assert!(c.ratio() > 8.0, "ratio {}", c.ratio());
    }

    #[test]
    fn zero_field_hits_high_ratio() {
        let shape = (1, 64, 1024);
        let data = vec![0.0f32; 64 * 1024];
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, shape, ErrorBound::Abs(1e-4));
        // All blocks zero: only header + flags remain.
        assert!(c.ratio() > 100.0, "ratio {}", c.ratio());
        let back = fz.decompress(&c).unwrap();
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kernel_breakdown_names_pipeline_stages() {
        let shape = (1, 64, 64);
        let data = smooth_3d(1, 64, 64);
        let mut fz = FzGpu::new(A100);
        let _ = fz.compress(&data, shape, ErrorBound::Abs(1e-3));
        let names: Vec<String> = fz.kernel_breakdown().into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n.contains("pred_quant")));
        assert!(names.iter().any(|n| n.contains("bitshuffle_mark")));
        assert!(names.iter().any(|n| n.contains("scan")));
        assert!(names.iter().any(|n| n.contains("compact")));
        assert!(fz.kernel_time() > 0.0);
        assert!(fz.throughput_gbps(data.len()) > 0.0);
    }

    #[test]
    fn a100_outruns_a4000() {
        let shape = (8, 128, 128);
        let data = smooth_3d(8, 128, 128);
        let mut a100 = FzGpu::new(A100);
        let mut a4000 = FzGpu::new(A4000);
        let _ = a100.compress(&data, shape, ErrorBound::Abs(1e-3));
        let _ = a4000.compress(&data, shape, ErrorBound::Abs(1e-3));
        assert!(a100.kernel_time() < a4000.kernel_time());
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let shape = (1, 32, 32);
        let data = smooth_3d(1, 32, 32);
        let mut fz = FzGpu::new(A100);
        let c = fz.compress(&data, shape, ErrorBound::Abs(1e-3));
        assert!(fz.decompress_bytes(&c.bytes[..10]).is_err());
        let mut mangled = c.bytes.clone();
        mangled[0] = b'X';
        assert!(fz.decompress_bytes(&mangled).is_err());
    }

    #[test]
    fn full_fusion_1d_produces_identical_stream() {
        let n = 10_000;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.004).sin() * 7.0).collect();
        let mut normal = FzGpu::new(A100);
        let mut fused =
            FzGpu::with_options(A100, FzOptions { full_fusion_1d: true, ..FzOptions::default() });
        let c1 = normal.compress(&data, (1, 1, n), ErrorBound::Abs(1e-3));
        let c2 = fused.compress(&data, (1, 1, n), ErrorBound::Abs(1e-3));
        assert_eq!(c1.bytes, c2.bytes);
        // The fused front end must be at least as fast as the split one.
        assert!(fused.kernel_time() <= normal.kernel_time());
        // And decompress normally.
        let back = fused.decompress(&c2).unwrap();
        assert!(data.iter().zip(&back).all(|(&a, &b)| (a - b).abs() <= 1.1e-3));
    }

    #[test]
    fn native_path_matches_simulated_bytes() {
        let shape = (4, 40, 40);
        let data = smooth_3d(4, 40, 40);
        let mut sim = FzGpu::new(A100);
        let mut nat = FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Native, ..FzOptions::default() },
        );
        assert_eq!(nat.path(), PipelinePath::Native);
        let cs = sim.compress(&data, shape, ErrorBound::Abs(1e-3));
        let cn = nat.compress(&data, shape, ErrorBound::Abs(1e-3));
        assert_eq!(cs.bytes, cn.bytes, "paths must emit identical streams");
        assert_eq!(nat.kernel_time(), 0.0, "native path charges no modeled time");
        assert!(sim.kernel_time() > 0.0);
        let a = sim.decompress(&cs).unwrap();
        let b = nat.decompress(&cn).unwrap();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn both_path_checks_and_returns_simulated() {
        let shape = (1, 64, 64);
        let data = smooth_3d(1, 64, 64);
        let mut both = FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Both, ..FzOptions::default() },
        );
        let c = both.compress(&data, shape, ErrorBound::RelToRange(1e-3));
        assert!(both.kernel_time() > 0.0, "Both keeps the simulated timeline");
        let back = both.decompress(&c).unwrap();
        assert_eq!(back.len(), data.len());
        // Both paths must agree on rejecting a corrupt stream.
        assert!(both.decompress_bytes(&c.bytes[..30]).is_err());
        let mut path_switch = FzGpu::new(A100);
        path_switch.set_path(PipelinePath::Native);
        assert_eq!(path_switch.path(), PipelinePath::Native);
    }

    #[test]
    fn active_fault_plan_downgrades_native_to_simulated() {
        let shape = (1, 32, 32);
        let data = smooth_3d(1, 32, 32);
        let mut fz = FzGpu::with_options(
            A100,
            FzOptions { path: PipelinePath::Native, ..FzOptions::default() },
        );
        assert_eq!(fz.effective_path(), PipelinePath::Native);
        fz.enable_faults(FaultPlan::disabled());
        assert_eq!(fz.effective_path(), PipelinePath::Native, "disabled plan is a no-op");
        fz.enable_faults(FaultPlan::seeded(11).launch_faults(0.5, 2));
        assert_eq!(fz.effective_path(), PipelinePath::Simulated);
        let before = metrics::counter_value("fzgpu_core_native_downgrade_total", &[]);
        let c = fz.compress(&data, shape, ErrorBound::Abs(1e-3));
        assert!(fz.kernel_time() > 0.0, "the simulated pipeline must have run");
        let back = fz.decompress(&c).unwrap();
        assert_eq!(back.len(), data.len());
        let after = metrics::counter_value("fzgpu_core_native_downgrade_total", &[]);
        assert_eq!(after - before, 2, "compress + decompress each record the downgrade");
    }

    /// End-to-end engine equivalence: the analytic engine's full pipeline
    /// (compress and decompress) must produce bit-identical stream bytes,
    /// output floats, timelines, and modeled kernel times. The proptest
    /// suite in `tests/engine_equivalence.rs` widens this across shapes
    /// and thread counts; this is the in-crate smoke version.
    #[test]
    fn analytic_engine_matches_interpreted() {
        for (shape, fusion) in [((5, 33, 70), false), ((1, 1, 5000), false), ((1, 1, 5000), true)] {
            let (nz, ny, nx) = shape;
            let data = smooth_3d(nz, ny, nx);
            let run = |engine: Engine| {
                let mut fz = FzGpu::with_options(
                    A100,
                    FzOptions { engine, full_fusion_1d: fusion, ..FzOptions::default() },
                );
                assert_eq!(fz.engine(), engine);
                let c = fz.compress(&data, shape, ErrorBound::Abs(1e-3));
                let c_tl = format!("{:?}", fz.gpu().timeline());
                let c_time = fz.kernel_time().to_bits();
                let back = fz.decompress(&c).unwrap();
                let d_tl = format!("{:?}", fz.gpu().timeline());
                let d_time = fz.kernel_time().to_bits();
                let bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
                (c.bytes, c_tl, c_time, bits, d_tl, d_time)
            };
            let interp = run(Engine::Interpreted);
            let analytic = run(Engine::Analytic);
            assert_eq!(interp.0, analytic.0, "stream bytes diverge at {shape:?}");
            assert_eq!(interp.1, analytic.1, "compress timeline diverges at {shape:?}");
            assert_eq!(interp.2, analytic.2, "compress time diverges at {shape:?}");
            assert_eq!(interp.3, analytic.3, "output floats diverge at {shape:?}");
            assert_eq!(interp.4, analytic.4, "decompress timeline diverges at {shape:?}");
            assert_eq!(interp.5, analytic.5, "decompress time diverges at {shape:?}");
        }
    }
}
