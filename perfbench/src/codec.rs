//! The codec phase every workload runs on its own field: timed native
//! compress → decompress round trips (host wall), one analytic-engine pass
//! (modeled device time, per kernel), and in traced runs the core-layer
//! probes (Lorenzo integrate, 2-thread fast path, format verify, CRC).

use std::collections::BTreeMap;
use std::time::Instant;

use fzgpu_core::fastpath::PipelinePath;
use fzgpu_core::pipeline::{Compressed, FzGpu, FzOptions};
use fzgpu_core::quant::ErrorBound;
use fzgpu_core::{crc32, format, lorenzo, Shape};
use fzgpu_sim::device::A100;
use fzgpu_sim::{Engine, SECTOR_BYTES};

use crate::host::Probe;
use crate::ledger::Ledger;
use crate::report::{Report, KERNELS};
use crate::stats::median;

/// Relative error bound used throughout (value range × 1e-3).
pub const REL_EB: f64 = 1e-3;

/// One field: values in C order plus its dims (rank 1 or 3).
pub struct Field {
    /// Values.
    pub data: Vec<f32>,
    /// Dims, slowest axis first.
    pub dims: Vec<usize>,
}

impl Field {
    /// The `(z, y, x)` shape the pipeline takes.
    pub fn shape(&self) -> Shape {
        fzgpu_store::shape3(&self.dims)
    }

    /// Input bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Native pipeline (host-wall numbers).
pub fn native() -> FzGpu {
    FzGpu::with_options(A100, FzOptions { path: PipelinePath::Native, ..FzOptions::default() })
}

/// Simulated pipeline on the analytic engine (modeled numbers; bit-identical
/// to the interpreted engine).
pub fn analytic() -> FzGpu {
    FzGpu::with_options(
        A100,
        FzOptions {
            path: PipelinePath::Simulated,
            engine: Engine::Analytic,
            ..FzOptions::default()
        },
    )
}

/// Largest absolute error of `b` against `a`, and whether it stays within
/// `eb` plus f32 representation slack proportional to the field's scale.
pub fn within_bound(a: &[f32], b: &[f32], eb: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let scale = a.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
    let limit = eb + scale * 1e-6;
    a.iter().zip(b).all(|(&x, &y)| ((x as f64) - (y as f64)).abs() <= limit)
}

/// Modeled kernel totals by name: `(seconds, computed global bytes)`.
pub type KernelTable = BTreeMap<String, (f64, u64)>;

fn add_kernels(table: &mut KernelTable, fz: &FzGpu) {
    for k in fz.profile().kernels() {
        let name = if KERNELS.contains(&k.name.as_str()) { k.name.clone() } else { "other".into() };
        let e = table.entry(name).or_default();
        e.0 += k.time;
        e.1 += k.stats.global_sectors * SECTOR_BYTES as u64;
    }
}

/// Timed native round trips.
pub struct Trips {
    /// Native compress wall per call, seconds.
    pub compress_s: Vec<f64>,
    /// Native decompress wall per call, seconds.
    pub decompress_s: Vec<f64>,
    /// Per call, field bytes per second over the memcpy probe's rate
    /// around it ([`Probe::frac`]).
    pub compress_frac: Vec<f64>,
    /// See `compress_frac`.
    pub decompress_frac: Vec<f64>,
    /// Per round trip: field bytes over the round trip's wall, over the
    /// probe's rate (the two calls' shares combined like rates).
    pub round_trip_frac: Vec<f64>,
    /// The native stream.
    pub stream: Compressed,
}

impl Trips {
    /// Round-trip wall per iteration, seconds.
    pub fn round_trip_s(&self) -> Vec<f64> {
        self.compress_s.iter().zip(&self.decompress_s).map(|(c, d)| c + d).collect()
    }
}

/// What the codec phase measured.
pub struct CodecRun {
    /// The timed round trips.
    pub trips: Trips,
    /// Modeled compress / decompress kernel time, seconds.
    pub modeled_compress_s: f64,
    /// See `modeled_compress_s`.
    pub modeled_decompress_s: f64,
    /// Per-kernel modeled totals.
    pub kernels: KernelTable,
    /// Host wall of the analytic compress / decompress pass, seconds.
    pub sim_compress_wall_s: f64,
    /// See `sim_compress_wall_s`.
    pub sim_decompress_wall_s: f64,
}

impl CodecRun {
    /// Absolute error bound the stream was written with.
    pub fn eb_abs(&self) -> f64 {
        self.trips.stream.header.eb
    }
}

/// Timed native round trips until `budget_s` has elapsed (at least
/// `min_iters`), after one untimed warm-up, each call followed by a
/// `probe` copy. Every round trip is checked against the bound.
pub fn round_trips(
    fz: &mut FzGpu,
    field: &Field,
    budget_s: f64,
    min_iters: usize,
    probe: &mut Probe,
    led: &mut Ledger,
    rep: &mut Report,
) -> Trips {
    let eb = ErrorBound::RelToRange(REL_EB);
    let shape = field.shape();
    let warm = fz.compress(&field.data, shape, eb);
    let back = fz.decompress(&warm).expect("native stream decompresses");
    rep.check(within_bound(&field.data, &back, warm.header.eb), "warm-up round trip bound");
    drop(back);

    let bytes = field.bytes() as f64;
    let mut t = Trips {
        compress_s: Vec::new(),
        decompress_s: Vec::new(),
        compress_frac: Vec::new(),
        decompress_frac: Vec::new(),
        round_trip_frac: Vec::new(),
        stream: warm,
    };
    let start = Instant::now();
    let mut rid = 0u64;
    while t.compress_s.len() < min_iters || start.elapsed().as_secs_f64() < budget_s {
        rid += 1;
        let (c_s, c) = led.timed("fastpath.compress", rid, |_| fz.compress(&field.data, shape, eb));
        let c_frac = probe.frac(bytes, c_s);
        let (d_s, back) = led.timed("fastpath.decompress", rid, |_| fz.decompress(&c));
        let d_frac = probe.frac(bytes, d_s);
        let ok = back.is_ok_and(|v| within_bound(&field.data, &v, c.header.eb));
        rep.check(ok && c.bytes == t.stream.bytes, "native round trip within bound, stable bytes");
        t.compress_s.push(c_s);
        t.decompress_s.push(d_s);
        t.compress_frac.push(c_frac);
        t.decompress_frac.push(d_frac);
        t.round_trip_frac.push(c_frac * d_frac / (c_frac + d_frac));
    }
    t
}

/// The whole codec phase: round trips for `budget_s`, then one analytic
/// pass whose stream must equal the native bytes and whose output must
/// equal the native output bit for bit.
pub fn run(
    field: &Field,
    budget_s: f64,
    min_iters: usize,
    probe: &mut Probe,
    led: &mut Ledger,
    rep: &mut Report,
) -> CodecRun {
    let mut fz = native();
    let trips = round_trips(&mut fz, field, budget_s, min_iters, probe, led, rep);
    let stream = &trips.stream;
    let native_out = fz.decompress(stream).expect("native stream decompresses");

    let mut sim = analytic();
    let mut kernels = KernelTable::new();
    let (sim_compress_wall_s, sc) = led.timed("sim.compress", 0, |_| {
        sim.compress(&field.data, field.shape(), ErrorBound::RelToRange(REL_EB))
    });
    let modeled_compress_s = sim.kernel_time();
    add_kernels(&mut kernels, &sim);
    rep.check(sc.bytes == stream.bytes, "analytic-engine stream equals native stream");
    let (sim_decompress_wall_s, sout) = led.timed("sim.decompress", 0, |_| sim.decompress(&sc));
    let modeled_decompress_s = sim.kernel_time();
    add_kernels(&mut kernels, &sim);
    let same = sout.is_ok_and(|v| {
        v.len() == native_out.len()
            && v.iter().zip(&native_out).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    rep.check(same, "analytic-engine output equals native output");

    CodecRun {
        trips,
        modeled_compress_s,
        modeled_decompress_s,
        kernels,
        sim_compress_wall_s,
        sim_decompress_wall_s,
    }
}

/// End-to-end codec metrics shared by every workload.
pub fn report_e2e(field: &Field, run: &CodecRun, rep: &mut Report) {
    let bytes = field.bytes() as f64;
    rep.set("compress_memcpy_frac", median(&run.trips.compress_frac));
    rep.set("decompress_memcpy_frac", median(&run.trips.decompress_frac));
    rep.set("ratio", run.trips.stream.ratio());
    rep.set("modeled_compress_gbps", bytes / run.modeled_compress_s / 1e9);
    rep.set("modeled_decompress_gbps", bytes / run.modeled_decompress_s / 1e9);
}

/// Core-layer probes of a traced run, `reps` timed calls each.
pub struct CoreProbes {
    /// `lorenzo::integrate` on this field's deltas, median seconds.
    pub integrate_s: f64,
    /// Fast path at [`SCALING_THREADS`] threads, median seconds.
    pub compress_2t_s: f64,
    /// See `compress_2t_s`.
    pub decompress_2t_s: f64,
    /// `format::verify` of the stream, median seconds.
    pub verify_s: f64,
    /// CRC-32 over the stream, GB/s.
    pub crc_gbps: f64,
}

/// Pool threads of the scaling probe.
pub const SCALING_THREADS: usize = 2;

/// Run the core-layer probes. `threads` (the pool the round trips ran on)
/// is restored after the [`SCALING_THREADS`]-thread fast-path runs.
pub fn core_probes(
    field: &Field,
    run: &CodecRun,
    threads: usize,
    reps: usize,
    led: &mut Ledger,
    rep: &mut Report,
) -> CoreProbes {
    let shape = field.shape();
    let eb = run.eb_abs();

    let q = lorenzo::prequant(&field.data, eb);
    let deltas = lorenzo::lorenzo_delta(&q, shape);
    let mut integrate = Vec::with_capacity(reps);
    for i in 0..reps {
        let mut x = deltas.clone();
        let (dt, ()) =
            led.timed("lorenzo.integrate", i as u64 + 1, |_| lorenzo::integrate(&mut x, shape));
        rep.check(x == q, "lorenzo integrate inverts the delta");
        integrate.push(dt);
    }
    drop((q, deltas));

    rayon::set_num_threads(SCALING_THREADS);
    let mut fz = native();
    let (mut c2, mut d2) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        let rid = i as u64 + 1;
        let (c_s, c) = led.timed("fastpath.compress_2t", rid, |_| {
            fz.compress(&field.data, shape, ErrorBound::RelToRange(REL_EB))
        });
        rep.check(
            c.bytes == run.trips.stream.bytes,
            "2-thread stream equals the round-trip stream",
        );
        let (d_s, out) = led.timed("fastpath.decompress_2t", rid, |_| fz.decompress(&c));
        rep.check(
            out.is_ok_and(|v| within_bound(&field.data, &v, eb)),
            "2-thread round trip bound",
        );
        c2.push(c_s);
        d2.push(d_s);
    }
    rayon::set_num_threads(threads);

    let bytes = &run.trips.stream.bytes;
    let (mut verify, mut crc) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for i in 0..reps {
        let rid = i as u64 + 1;
        let (v_s, v) = led.timed("format.verify", rid, |_| format::verify(bytes));
        rep.check(v.is_ok(), "stream verifies");
        let (c_s, c) = led.timed("crc.crc32", rid, |_| crc32(bytes));
        rep.check(c == crc32(bytes), "crc is deterministic");
        verify.push(v_s);
        crc.push(c_s);
    }
    CoreProbes {
        integrate_s: median(&integrate),
        compress_2t_s: median(&c2),
        decompress_2t_s: median(&d2),
        verify_s: median(&verify),
        crc_gbps: bytes.len() as f64 / median(&crc) / 1e9,
    }
}

/// Per-layer codec metrics of a traced run; `threads` is the pool the
/// round trips ran on.
pub fn report_layers(
    field: &Field,
    run: &CodecRun,
    probes: &CoreProbes,
    threads: usize,
    memcpy_gbps: f64,
    rep: &mut Report,
) {
    let (c, d) = (median(&run.trips.compress_s), median(&run.trips.decompress_s));
    let bytes = field.bytes() as f64;
    rep.set("lorenzo.integrate_s", probes.integrate_s);
    rep.set("fastpath.compress_s", c);
    rep.set("fastpath.decompress_s", d);
    rep.set("fastpath.compress_2t_s", probes.compress_2t_s);
    rep.set("fastpath.decompress_2t_s", probes.decompress_2t_s);
    // Input bytes per second over the measured memcpy rate.
    rep.set("fastpath.compress_roofline_frac", bytes / c / 1e9 / memcpy_gbps);
    rep.set("fastpath.decompress_roofline_frac", bytes / d / 1e9 / memcpy_gbps);
    // Speed-up from `threads` to SCALING_THREADS over the ideal one; with
    // one pool thread, 1-thread time ÷ (2 × 2-thread time).
    let wide = probes.compress_2t_s + probes.decompress_2t_s;
    rep.set("pool.scaling_eff", (c + d) * threads as f64 / (SCALING_THREADS as f64 * wide));
    rep.set("format.verify_s", probes.verify_s);
    rep.set("crc.gbps", probes.crc_gbps);
    rep.set("sim.compress_wall_s", run.sim_compress_wall_s);
    rep.set("sim.decompress_wall_s", run.sim_decompress_wall_s);
    for k in KERNELS.iter().chain(&["other"]) {
        let (t, b) = run.kernels.get(*k).copied().unwrap_or_default();
        rep.set(&format!("kernel.{k}_us"), t * 1e6);
        rep.set(&format!("kernel.{k}_bytes"), b as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Field {
        Field { data: (0..n).map(|i| (i as f32 * 0.01).sin() * 3.0).collect(), dims: vec![n] }
    }

    #[test]
    fn bound_check_catches_a_violation() {
        let a = [0.0f32, 1.0, 2.0];
        assert!(within_bound(&a, &[0.0005, 1.0, 2.0], 1e-3));
        assert!(!within_bound(&a, &[0.01, 1.0, 2.0], 1e-3));
        assert!(!within_bound(&a, &[0.0, 1.0], 1e-3));
    }

    #[test]
    fn codec_phase_checks_pass_on_a_small_field() {
        let field = wave(1 << 16);
        let mut led = Ledger::new(true);
        let mut rep = Report::new();
        let mut probe = Probe::new(1);
        let run = run(&field, 0.0, 2, &mut probe, &mut led, &mut rep);
        assert_eq!(rep.failed, 0);
        assert_eq!(run.trips.compress_s.len(), 2);
        assert!(run.trips.round_trip_frac.iter().all(|&f| f > 0.0 && f.is_finite()));
        assert!(run.modeled_decompress_s > 0.0);
        assert!(run.kernels.contains_key("decode.integrate_x"));
        assert!(!run.kernels.contains_key("decode.integrate_y"), "1-D field has no y pass");
        let probes = core_probes(&field, &run, 2, 2, &mut led, &mut rep);
        assert_eq!(rep.failed, 0);
        assert!(probes.crc_gbps > 0.0);
        assert_eq!(led.overfull_spans(), 0);
    }
}
