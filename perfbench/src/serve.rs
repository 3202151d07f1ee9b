//! The serve phase: open-loop, seeded Poisson arrivals (in modeled time)
//! of 1-D jobs through `fzgpu_serve::Service` on the analytic engine.
//!
//! Sizes are {16 k, 64 k, 256 k} values, fields {sine, ramp, mixed, zero},
//! compress:decompress 3:1, relative bound 1e-3. The service times each
//! job from its arrival, so a stall shows in every later job's latency;
//! the generator itself is a list of modeled timestamps and is never late.

use fzgpu_core::fastpath::PipelinePath;
use fzgpu_core::quant::ErrorBound;
use fzgpu_serve::workload::synth_field;
use fzgpu_serve::{FieldKind, Op, Request, ServeConfig, ServeReport, Service, Workload};
use fzgpu_sim::device::A100;
use fzgpu_sim::Engine;

use crate::codec::{Field, REL_EB};
use crate::host::Probe;
use crate::ledger::Ledger;
use crate::report::Report;

/// Job sizes, values.
pub const SIZES: [usize; 3] = [16_384, 65_536, 262_144];
/// Field families.
pub const KINDS: [FieldKind; 4] =
    [FieldKind::Sine, FieldKind::Ramp, FieldKind::Mixed, FieldKind::Zero];
/// Offered rate of the fixed-rate replay, jobs per modeled ms.
pub const OFFERED_PER_MS: f64 = 10.0;
/// Latency limit of the max-rate search: modeled p99, seconds.
pub const P99_LIMIT_S: f64 = 1e-3;

/// splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in (0, 1].
fn unit(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Seed of the arrival process and of the job order. One fixed Poisson
/// realization and order keep the burst pattern, and so the modeled
/// latencies, comparable across seeds.
const ARRIVAL_SEED: u64 = 0x5e7e_0be7_0000_0001;

/// A seeded job mix: unit-rate exponential gaps plus the jobs. Scaling
/// the gaps gives the same jobs at any offered rate.
///
/// Jobs come in blocks holding every (size, kind) pair three times as a
/// compression and once as a decompression, each block shuffled. The seed
/// seeds each job's field. Every mix of `b` blocks therefore has the same
/// composition and order, and a smaller mix is a prefix of a larger one.
#[derive(Debug, Clone)]
pub struct Mix {
    gaps: Vec<f64>,
    jobs: Vec<(Op, usize, FieldKind, u64)>,
    block_len: usize,
}

impl Mix {
    /// `blocks` blocks drawn from `seed`; `sizes` replaces [`SIZES`] in
    /// smoke mode.
    pub fn new(seed: u64, blocks: usize, sizes: &[usize]) -> Self {
        let (mut order, mut st) = (ARRIVAL_SEED, seed);
        let mut jobs = Vec::new();
        for _ in 0..blocks {
            let mut block = Vec::with_capacity(16 * sizes.len());
            for &n in sizes {
                for kind in KINDS {
                    for op in [Op::Compress, Op::Compress, Op::Compress, Op::Decompress] {
                        block.push((op, n, kind, 0));
                    }
                }
            }
            for i in (1..block.len()).rev() {
                block.swap(i, (splitmix64(&mut order) % (i as u64 + 1)) as usize);
            }
            for job in &mut block {
                job.3 = splitmix64(&mut st);
            }
            jobs.extend(block);
        }
        let mut at = ARRIVAL_SEED ^ 1;
        let gaps = jobs.iter().map(|_| -unit(&mut at).ln()).collect();
        Self { gaps, jobs, block_len: 16 * sizes.len() }
    }

    /// Jobs in the mix.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// The mix offered at `per_ms` jobs per modeled millisecond.
    pub fn workload(&self, per_ms: f64) -> Workload {
        let mut t = 0.0;
        let requests = self
            .gaps
            .iter()
            .zip(&self.jobs)
            .map(|(g, &(op, n, field, seed))| {
                t += g / per_ms * 1e-3;
                Request {
                    arrival: t,
                    op,
                    n,
                    eb: ErrorBound::RelToRange(REL_EB),
                    field,
                    seed,
                    priority: 0,
                }
            })
            .collect();
        Workload { name: "serve-open".into(), device: A100, requests }
    }

    /// Blocks in the mix.
    pub fn blocks(&self) -> usize {
        self.jobs.len() / self.block_len
    }

    /// Block `b` alone at `per_ms`, its arrivals shifted to start where
    /// the block before it ended.
    pub fn block_workload(&self, b: usize, per_ms: f64) -> Workload {
        let mut w = self.workload(per_ms);
        let range = b * self.block_len..(b + 1) * self.block_len;
        let t0 = if b == 0 { 0.0 } else { w.requests[range.start - 1].arrival };
        w.requests =
            w.requests.drain(range).map(|q| Request { arrival: q.arrival - t0, ..q }).collect();
        w
    }
}

/// The payload of the mix as one 1-D field: every (kind, size) field at
/// `seed`, concatenated. The codec and store phases run on it.
pub fn payload(seed: u64, sizes: &[usize]) -> Field {
    let mut data = Vec::new();
    for kind in KINDS {
        for &n in sizes {
            data.extend(synth_field(kind, n, seed));
        }
    }
    let n = data.len();
    Field { data, dims: vec![n] }
}

/// Default config with batching up to 4, on the analytic engine.
pub fn config() -> ServeConfig {
    ServeConfig {
        batch_max: 4,
        path: PipelinePath::Simulated,
        engine: Engine::Analytic,
        ..ServeConfig::default()
    }
}

/// Jobs that did not complete (rejected, shed or failed).
pub fn dropped(r: &ServeReport) -> usize {
    r.rejected.len() + r.shed.len() + r.failed.len()
}

/// Replay `mix` at `per_ms` under `cfg`, counting every job as one
/// operation and every dropped one as failed.
pub fn replay(
    mix: &Mix,
    per_ms: f64,
    cfg: ServeConfig,
    rid: u64,
    led: &mut Ledger,
    rep: &mut Report,
) -> ServeReport {
    let w = mix.workload(per_ms);
    let r = led.span("serve.run", rid, |_| Service::new(cfg).run(&w));
    rep.ok_ops(r.jobs.len() as u64);
    for _ in 0..dropped(&r) {
        rep.check(false, "served job completes (not rejected, shed or failed)");
    }
    r
}

/// The digest of a 1-stream, unbatched, pool-less replay on the native
/// path must equal `report`'s: scheduling never changes outputs.
pub fn digest_check(mix: &Mix, report: &ServeReport, led: &mut Ledger, rep: &mut Report) {
    let cfg = ServeConfig {
        streams: 1,
        pool: false,
        batch_max: 1,
        queue_depth: mix.len().max(1),
        path: PipelinePath::Native,
        ..ServeConfig::default()
    };
    let w = mix.workload(OFFERED_PER_MS);
    let single = led.span("serve.replay_1stream", 0, |_| Service::new(cfg).run(&w));
    rep.check(single.digest() == report.digest(), "serve digest equals the 1-stream replay digest");
}

/// Highest offered rate (jobs per modeled ms) whose modeled p99 is within
/// [`P99_LIMIT_S`] with nothing dropped, by bisection over `[lo, hi]`.
pub fn max_rate(mix: &Mix, lo: f64, hi: f64, iters: usize, led: &mut Ledger) -> f64 {
    led.span("serve.max_rate", 0, |led| {
        let feasible = |per_ms: f64, led: &mut Ledger| {
            let w = mix.workload(per_ms);
            let r = led.span("serve.probe", 0, |_| Service::new(config()).run(&w));
            dropped(&r) == 0 && r.latency_percentiles().2 <= P99_LIMIT_S
        };
        let (mut lo, mut hi) = (lo, hi);
        if !feasible(lo, led) {
            return lo / 2.0;
        }
        if feasible(hi, led) {
            return hi;
        }
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            if feasible(mid, led) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    })
}

/// Replay `mix` one block at a time until `budget_s` has elapsed (at
/// least three blocks), each block followed by a `probe` copy. Returns,
/// per block, its job values' bytes per second of job host wall over the
/// probe's rate around it ([`Probe::frac`]). Every job's digest must equal its digest in `full`, the
/// replay of the whole mix.
pub fn block_fracs(
    mix: &Mix,
    full: &ServeReport,
    budget_s: f64,
    probe: &mut Probe,
    rep: &mut Report,
) -> Vec<f64> {
    let mut digest = vec![0u32; mix.len()];
    for j in &full.jobs {
        digest[j.id] = j.digest;
    }
    let start = std::time::Instant::now();
    let mut fracs = Vec::new();
    while fracs.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let b = fracs.len() % mix.blocks();
        let r = Service::new(config()).run(&mix.block_workload(b, OFFERED_PER_MS));
        let (host, values) =
            r.jobs.iter().fold((0.0, 0.0), |(h, v), j| (h + j.host_seconds, v + j.n as f64));
        fracs.push(probe.frac(values * 4.0, host));
        rep.ok_ops(r.jobs.len() as u64);
        let same = r.jobs.iter().all(|j| j.digest == digest[b * mix.block_len + j.id]);
        rep.check(
            same && dropped(&r) == 0 && r.jobs.len() == mix.block_len,
            "a block replayed alone gives the same job digests",
        );
    }
    fracs
}

/// Per-layer serve metrics of a traced run.
pub fn report_layers(r: &ServeReport, run_s: f64, max_rate: f64, rep: &mut Report) {
    let exec: f64 = r.jobs.iter().map(|j| j.host_seconds).sum();
    rep.set("serve.run_s", run_s);
    rep.set("serve.job_exec_s", exec);
    rep.set("serve.sched_self_s", run_s - exec);
    rep.set("serve.compute_utilization", r.compute_utilization);
    rep.set("serve.batches", r.batches as f64);
    rep.set("serve.pool_hit_rate", r.pool.as_ref().map_or(0.0, |p| p.hit_rate()));
    rep.set("serve.rejected", r.rejected.len() as f64);
    rep.set("serve.jobs_per_s", r.jobs.len() as f64 / run_s);
    rep.set("serve.max_rate_jobs_per_ms", max_rate);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_rate_scales_arrivals() {
        let a = Mix::new(3, 2, &SIZES);
        assert_eq!(a.len(), 96);
        assert_eq!(format!("{:?}", a.jobs), format!("{:?}", Mix::new(3, 2, &SIZES).jobs));
        assert_ne!(format!("{:?}", a.jobs), format!("{:?}", Mix::new(4, 2, &SIZES).jobs));
        assert_eq!(
            format!("{:?}", Mix::new(3, 1, &SIZES).jobs),
            format!("{:?}", a.jobs[..48].to_vec())
        );
        let slow = a.workload(1.0);
        let fast = a.workload(10.0);
        let (ts, tf) = (slow.requests[95].arrival, fast.requests[95].arrival);
        assert!((ts / tf - 10.0).abs() < 1e-9);
        // Mean gap ≈ 1 ms at 1 job/ms.
        assert!((ts / 96.0 - 1e-3).abs() < 5e-4, "{ts}");
        let decompress = a.jobs.iter().filter(|j| j.0 == Op::Decompress).count();
        assert_eq!(decompress, 24, "compress:decompress is 3:1");
    }

    #[test]
    fn small_replay_digest_matches_one_stream() {
        let mix = Mix::new(5, 2, &[1024, 4096]);
        let mut led = Ledger::new(true);
        let mut rep = Report::new();
        let r = replay(&mix, OFFERED_PER_MS, config(), 1, &mut led, &mut rep);
        digest_check(&mix, &r, &mut led, &mut rep);
        let fracs = block_fracs(&mix, &r, 0.0, &mut Probe::new(1), &mut rep);
        assert_eq!(rep.failed, 0);
        assert_eq!(r.jobs.len(), 64);
        assert_eq!(fracs.len(), 3, "blocks 0, 1, then 0 again");
        let w = mix.block_workload(1, OFFERED_PER_MS);
        assert_eq!(w.requests.len(), 32);
        assert!(w.requests[0].arrival > 0.0);
        let m = max_rate(&mix, 1.0, 400.0, 3, &mut led);
        assert!(m >= 1.0, "{m}");
    }
}
