//! Deterministic fault injection: bit flips in simulated device memory and
//! transient kernel-launch failures.
//!
//! FZ-GPU targets exascale machines where silent data corruption — soft
//! errors in GPU DRAM/SRAM, transient driver/launch failures — is a
//! first-class failure mode. Real GPUs offer no deterministic way to
//! reproduce such faults; the simulator does. A [`FaultPlan`] describes
//! *what* to inject (per-bit flip rates for global and shared memory, a
//! per-attempt launch-failure probability) and a seed; a [`FaultInjector`]
//! carries the deterministic generator state, so a given plan injects the
//! identical fault sequence on every run.
//!
//! Injection points (all zero-cost when no injector is installed — the
//! hooks are a single `Option` check per *launch/upload*, never per
//! element access):
//!
//! - **Global memory**: [`crate::grid::Gpu::upload`] flips bits in the
//!   uploaded buffer at [`FaultPlan::global_bit_flip_rate`];
//!   [`FaultInjector::corrupt_buffer`] / [`FaultInjector::corrupt_bytes`]
//!   inject on demand (archived-stream rot campaigns).
//! - **Shared memory**: [`crate::block::BlockCtx::shared_array`] flips bits
//!   in the freshly allocated tile at [`FaultPlan::shared_bit_flip_rate`]
//!   (models SEUs present when the block begins; only kernels that read
//!   before writing observe them). Per-block generators are derived from
//!   `(seed, launch index, block index)`, so the injection is deterministic
//!   even though host threads schedule blocks in arbitrary order.
//! - **Launches**: [`crate::grid::Gpu::launch`] asks
//!   [`FaultInjector::launch_attempt_fails`] before each attempt and
//!   retries under the installed [`RetryPolicy`], charging the failed
//!   attempt plus exponential backoff on the timeline. Faults are
//!   *transient*: the injector never fails more than
//!   [`FaultPlan::max_consecutive_launch_faults`] attempts in a row, so any
//!   retry budget at least that deep always reaches success.
//!
//! No external crates: the generator is a 64-bit LCG with an avalanche
//! output mix, written in-tree like the workspace's JSON writer
//! ([`fzgpu_trace::json`]).

use crate::memory::GpuBuffer;
use crate::pod::Pod;
use crate::shared::Shared;

/// Deterministic 64-bit generator: Knuth MMIX LCG step with a murmur-style
/// finalizer so low bits are usable.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeded generator; distinct seeds give independent streams.
    pub fn new(seed: u64) -> Self {
        // Pre-mix so small seeds (0, 1, 2...) diverge immediately.
        Self { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03) }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Lcg::below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (p >= 1.0 || self.next_f64() < p)
    }
}

/// Declarative description of the faults to inject. All rates default to
/// zero (= no injection); [`FaultPlan::disabled`] is the explicit spelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Per-bit flip probability applied to every buffer that passes through
    /// [`crate::grid::Gpu::upload`] (models DRAM soft errors on ingest).
    pub global_bit_flip_rate: f64,
    /// Per-bit flip probability applied to shared-memory arrays at
    /// allocation time (models SRAM SEUs present when a block begins).
    pub shared_bit_flip_rate: f64,
    /// Probability that any single kernel-launch attempt fails transiently.
    pub launch_fail_prob: f64,
    /// Hard cap on consecutive failures of one launch — the "transient"
    /// guarantee. A retry budget `>= max_consecutive_launch_faults` always
    /// reaches a successful attempt.
    pub max_consecutive_launch_faults: u32,
}

impl FaultPlan {
    /// A plan injecting nothing (rates zero).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            global_bit_flip_rate: 0.0,
            shared_bit_flip_rate: 0.0,
            launch_fail_prob: 0.0,
            max_consecutive_launch_faults: 0,
        }
    }

    /// Empty plan with a seed; chain the builder methods below.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::disabled() }
    }

    /// Set the global-memory per-bit flip rate.
    pub fn global_bit_flips(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "flip rate must be a probability");
        self.global_bit_flip_rate = rate;
        self
    }

    /// Set the shared-memory per-bit flip rate.
    pub fn shared_bit_flips(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "flip rate must be a probability");
        self.shared_bit_flip_rate = rate;
        self
    }

    /// Set the transient launch-failure probability and the consecutive cap.
    pub fn launch_faults(mut self, prob: f64, max_consecutive: u32) -> Self {
        assert!((0.0..=1.0).contains(&prob), "failure prob must be a probability");
        self.launch_fail_prob = prob;
        self.max_consecutive_launch_faults = max_consecutive;
        self
    }

    /// True when every rate is zero (the injector would be a no-op).
    pub fn is_disabled(&self) -> bool {
        self.global_bit_flip_rate == 0.0
            && self.shared_bit_flip_rate == 0.0
            && self.launch_fail_prob == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Bounded retry-with-backoff policy for transient launch failures.
///
/// Attempt `k` (1-based) that fails is charged
/// `launch_overhead + min(backoff_base * backoff_factor^(k-1), backoff_cap)`
/// of modeled time before the next attempt. After `max_retries` failed
/// attempts the fault surfaces to the caller (the simulator panics with a
/// "retry budget exhausted" message — the moral equivalent of a sticky
/// `cudaError`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Failed attempts tolerated before the fault surfaces.
    pub max_retries: u32,
    /// Backoff charged after the first failed attempt, seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff per further failed attempt.
    pub backoff_factor: f64,
    /// Ceiling on any single backoff interval, seconds — geometric growth
    /// must not charge unbounded modeled stalls. Defaults high (1 s) so
    /// microsecond-scale policies are unaffected unless they opt in.
    pub backoff_cap: f64,
}

impl RetryPolicy {
    /// No retries: the first transient fault surfaces immediately.
    pub fn none() -> Self {
        Self { max_retries: 0, backoff_base: 0.0, backoff_factor: 1.0, backoff_cap: 0.0 }
    }

    /// Backoff delay after failed attempt `attempt` (1-based), seconds.
    /// `attempt == 0` means "no failed attempt yet" and charges nothing.
    pub fn backoff_time(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        (self.backoff_base * self.backoff_factor.powi((attempt - 1) as i32)).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Three retries starting at half a launch overhead, doubling:
        // deep enough for any plan with max_consecutive <= 3.
        Self { max_retries: 3, backoff_base: 2.0e-6, backoff_factor: 2.0, backoff_cap: 1.0 }
    }
}

/// Stateful injector: a [`FaultPlan`] plus the deterministic generator and
/// tallies of what was injected so far.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Lcg,
    bits_flipped: u64,
    launch_faults: u64,
    consecutive: u32,
    launches: u64,
}

impl FaultInjector {
    /// Injector for a plan; same plan → same fault sequence.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: Lcg::new(plan.seed),
            bits_flipped: 0,
            launch_faults: 0,
            consecutive: 0,
            launches: 0,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total bits flipped in global memory so far (upload hook +
    /// `corrupt_*` calls; shared-memory flips are per-block and not
    /// aggregated here).
    pub fn bits_flipped(&self) -> u64 {
        self.bits_flipped
    }

    /// Total transient launch failures injected so far.
    pub fn launch_faults(&self) -> u64 {
        self.launch_faults
    }

    /// Launch attempts observed (failed + successful).
    pub fn launch_attempts(&self) -> u64 {
        self.launches
    }

    /// Decide whether the next launch attempt fails transiently. Never
    /// returns `true` more than `max_consecutive_launch_faults` times in a
    /// row.
    pub fn launch_attempt_fails(&mut self) -> bool {
        self.launches += 1;
        if self.consecutive >= self.plan.max_consecutive_launch_faults {
            self.consecutive = 0;
            return false;
        }
        if self.rng.chance(self.plan.launch_fail_prob) {
            self.consecutive += 1;
            self.launch_faults += 1;
            true
        } else {
            self.consecutive = 0;
            false
        }
    }

    /// Flip bits in a host byte slice at the plan's global rate. Returns
    /// the number of bits flipped.
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8]) -> usize {
        let rate = self.plan.global_bit_flip_rate;
        let n = sample_flips(&mut self.rng, bytes.len() * 8, rate, |bit| {
            bytes[bit / 8] ^= 1 << (bit % 8);
        });
        self.bits_flipped += n as u64;
        n
    }

    /// Flip exactly one uniformly chosen bit in `bytes[lo..]`; returns the
    /// flipped absolute bit index. Campaign-test helper.
    ///
    /// # Panics
    /// Panics when `lo >= bytes.len()`.
    pub fn flip_one_bit(&mut self, bytes: &mut [u8], lo: usize) -> usize {
        assert!(lo < bytes.len(), "flip_one_bit past end of buffer");
        let bit = lo * 8 + self.rng.below((bytes.len() - lo) * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        self.bits_flipped += 1;
        bit
    }

    /// Flip bits in a simulated global-memory buffer at the plan's global
    /// rate. Returns the number of bits flipped.
    pub fn corrupt_buffer<T: Pod>(&mut self, buf: &GpuBuffer<T>) -> usize {
        let rate = self.plan.global_bit_flip_rate;
        let n = sample_flips(&mut self.rng, buf.bit_len(), rate, |bit| buf.flip_bit(bit));
        self.bits_flipped += n as u64;
        n
    }

    /// Per-block shared-memory fault context for one launch, or `None` when
    /// shared injection is off. Block generators are derived from
    /// `(seed, launch_index, block)` so injection is independent of host
    /// thread scheduling.
    pub(crate) fn block_fault_seed(&self, launch_index: u64) -> Option<(u64, f64)> {
        (self.plan.shared_bit_flip_rate > 0.0).then(|| {
            (
                self.plan.seed ^ launch_index.wrapping_mul(0xA076_1D64_78BD_642F),
                self.plan.shared_bit_flip_rate,
            )
        })
    }
}

/// Per-block shared-memory injector handed to [`crate::block::BlockCtx`].
#[derive(Debug, Clone)]
pub(crate) struct BlockFault {
    rng: Lcg,
    rate: f64,
}

impl BlockFault {
    pub(crate) fn new(launch_seed: u64, block_linear: usize, rate: f64) -> Self {
        Self {
            rng: Lcg::new(launch_seed ^ (block_linear as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)),
            rate,
        }
    }

    /// Flip bits in a freshly allocated shared array at the plan's rate.
    pub(crate) fn corrupt_shared<T: Pod>(&mut self, sh: &Shared<T>) -> usize {
        sample_flips(&mut self.rng, sh.len() * T::BYTES * 8, self.rate, |bit| sh.flip_bit(bit))
    }
}

/// Declarative fault schedule at *service* granularity — the failure
/// domain a scheduler sees, as opposed to [`FaultPlan`]'s device-memory
/// and launch-level faults. Three event families:
///
/// * **Transient job failures**: any single execution attempt of a job may
///   fail; the job's *output is discarded*, never corrupted (faults cost
///   time or jobs, never correctness). Bounded by
///   [`ServiceFaultPlan::max_consecutive_job_faults`], the same transient
///   guarantee as launch faults: a retry budget at least that deep always
///   reaches a successful attempt.
/// * **Stream stalls**: after a dispatch, the stream's queue may freeze for
///   [`ServiceFaultPlan::stall_seconds`] of modeled time (models a wedged
///   driver channel / preempting tenant).
/// * **Device loss**: at modeled time [`ServiceFaultPlan::device_loss_at`],
///   all in-flight work on the device is aborted; the device comes back
///   after [`ServiceFaultPlan::device_repair_seconds`] (or never, when that
///   is `None` — a permanent loss).
///
/// All decisions are **pure functions of (seed, job id / dispatch index,
/// attempt)** — no generator state is threaded through the schedule — so a
/// given plan injects the identical fault sequence regardless of host
/// thread count or the order the scheduler happens to evaluate events in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFaultPlan {
    /// Seed for the deterministic per-event generators.
    pub seed: u64,
    /// Probability that any single job execution attempt fails transiently.
    pub job_fail_prob: f64,
    /// Hard cap on consecutive failures of one job — attempt index
    /// `max_consecutive_job_faults` (0-based) never fails.
    pub max_consecutive_job_faults: u32,
    /// Probability that a dispatch leaves its stream stalled.
    pub stall_prob: f64,
    /// Modeled duration of one stream stall, seconds.
    pub stall_seconds: f64,
    /// Modeled time at which the device is lost (`None`: never).
    pub device_loss_at: Option<f64>,
    /// Repair interval after a device loss (`None`: permanent loss).
    pub device_repair_seconds: Option<f64>,
}

impl ServiceFaultPlan {
    /// A plan injecting nothing.
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            job_fail_prob: 0.0,
            max_consecutive_job_faults: 0,
            stall_prob: 0.0,
            stall_seconds: 0.0,
            device_loss_at: None,
            device_repair_seconds: None,
        }
    }

    /// Empty plan with a seed; chain the builder methods below.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::disabled() }
    }

    /// Set the transient job-failure probability and the consecutive cap.
    pub fn job_faults(mut self, prob: f64, max_consecutive: u32) -> Self {
        assert!((0.0..=1.0).contains(&prob), "failure prob must be a probability");
        self.job_fail_prob = prob;
        self.max_consecutive_job_faults = max_consecutive;
        self
    }

    /// Set the per-dispatch stall probability and stall duration.
    pub fn stalls(mut self, prob: f64, seconds: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "stall prob must be a probability");
        assert!(seconds >= 0.0 && seconds.is_finite(), "stall duration must be finite");
        self.stall_prob = prob;
        self.stall_seconds = seconds;
        self
    }

    /// Schedule a device loss at modeled time `at`, recovering after
    /// `repair` seconds (`None`: the device never comes back).
    pub fn device_loss(mut self, at: f64, repair: Option<f64>) -> Self {
        assert!(at >= 0.0 && at.is_finite(), "loss time must be finite");
        assert!(repair.is_none_or(|r| r >= 0.0 && r.is_finite()), "repair must be finite");
        self.device_loss_at = Some(at);
        self.device_repair_seconds = repair;
        self
    }

    /// True when the plan injects nothing.
    pub fn is_disabled(&self) -> bool {
        self.job_fail_prob == 0.0 && self.stall_prob == 0.0 && self.device_loss_at.is_none()
    }
}

impl Default for ServiceFaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Stateless evaluator of a [`ServiceFaultPlan`]: every query derives a
/// fresh generator from the plan seed and the event's identity, so the
/// answer is independent of query order (and hence of host scheduling).
#[derive(Debug, Clone, Copy)]
pub struct ServiceFaults {
    plan: ServiceFaultPlan,
}

impl ServiceFaults {
    /// Evaluator for a plan; same plan → same fault schedule.
    pub fn new(plan: ServiceFaultPlan) -> Self {
        Self { plan }
    }

    /// The plan this evaluator answers for.
    pub fn plan(&self) -> &ServiceFaultPlan {
        &self.plan
    }

    /// Does execution attempt `attempt` (0-based) of job `job_id` fail
    /// transiently? Attempt `max_consecutive_job_faults` never fails, so
    /// any retry budget at least that deep completes the job.
    pub fn job_attempt_fails(&self, job_id: u64, attempt: u32) -> bool {
        if self.plan.job_fail_prob <= 0.0 || attempt >= self.plan.max_consecutive_job_faults {
            return false;
        }
        let mut rng = Lcg::new(
            self.plan.seed
                ^ job_id.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (attempt as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        rng.chance(self.plan.job_fail_prob)
    }

    /// Stall duration injected after dispatch number `dispatch_id`, if any.
    pub fn stall_after(&self, dispatch_id: u64) -> Option<f64> {
        if self.plan.stall_prob <= 0.0 {
            return None;
        }
        let mut rng =
            Lcg::new(self.plan.seed ^ dispatch_id.wrapping_mul(0x8EBC_6AF0_9C88_C6E3) ^ 0x5757);
        rng.chance(self.plan.stall_prob).then_some(self.plan.stall_seconds)
    }

    /// The device outage window as `(loss time, recovery time)`;
    /// `recovery == None` means the device never comes back.
    pub fn outage(&self) -> Option<(f64, Option<f64>)> {
        self.plan.device_loss_at.map(|at| (at, self.plan.device_repair_seconds.map(|r| at + r)))
    }
}

/// Draw flip positions over `nbits` independent per-bit trials at rate `p`
/// using geometric gap sampling (O(flips), not O(bits)), calling `flip` for
/// each. Returns the flip count.
fn sample_flips(rng: &mut Lcg, nbits: usize, p: f64, mut flip: impl FnMut(usize)) -> usize {
    if p <= 0.0 || nbits == 0 {
        return 0;
    }
    if p >= 1.0 {
        for bit in 0..nbits {
            flip(bit);
        }
        return nbits;
    }
    let ln_keep = (1.0 - p).ln();
    let mut pos = 0usize;
    let mut count = 0usize;
    loop {
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / ln_keep).floor();
        if gap >= (nbits - pos) as f64 {
            return count;
        }
        pos += gap as usize;
        flip(pos);
        count += 1;
        pos += 1;
        if pos >= nbits {
            return count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_mixes() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Nearby seeds diverge immediately.
        let mut c = Lcg::new(43);
        assert_ne!(xs[0], c.next_u64());
        // Doubles land in [0, 1).
        for _ in 0..1000 {
            let v = a.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn sample_flips_rate_is_roughly_honored() {
        let mut rng = Lcg::new(7);
        let nbits = 100_000;
        let mut flips = vec![false; nbits];
        let n = sample_flips(&mut rng, nbits, 0.01, |b| flips[b] = true);
        assert_eq!(n, flips.iter().filter(|&&f| f).count(), "positions must be distinct");
        assert!((500..2000).contains(&n), "expected ~1000 flips, got {n}");
    }

    #[test]
    fn sample_flips_edge_rates() {
        let mut rng = Lcg::new(1);
        assert_eq!(sample_flips(&mut rng, 1000, 0.0, |_| panic!("no flips at rate 0")), 0);
        let mut seen = 0;
        assert_eq!(sample_flips(&mut rng, 64, 1.0, |_| seen += 1), 64);
        assert_eq!(seen, 64);
        assert_eq!(sample_flips(&mut rng, 0, 0.5, |_| ()), 0);
    }

    #[test]
    fn corrupt_bytes_is_reproducible() {
        let plan = FaultPlan::seeded(99).global_bit_flips(0.02);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        let mut x = vec![0u8; 4096];
        let mut y = vec![0u8; 4096];
        let na = a.corrupt_bytes(&mut x);
        let nb = b.corrupt_bytes(&mut y);
        assert_eq!(na, nb);
        assert_eq!(x, y);
        assert!(na > 0);
        assert_eq!(a.bits_flipped(), na as u64);
    }

    #[test]
    fn flip_one_bit_respects_lower_bound() {
        let mut inj = FaultInjector::new(FaultPlan::seeded(3));
        let mut bytes = vec![0u8; 256];
        for _ in 0..200 {
            let bit = inj.flip_one_bit(&mut bytes, 64);
            assert!((64 * 8..256 * 8).contains(&bit));
        }
        assert!(bytes[..64].iter().all(|&b| b == 0));
        assert!(bytes[64..].iter().any(|&b| b != 0));
    }

    #[test]
    fn launch_faults_respect_consecutive_cap() {
        let plan = FaultPlan::seeded(5).launch_faults(1.0, 2);
        let mut inj = FaultInjector::new(plan);
        // Rate 1.0 would fail forever without the cap; the cap forces a
        // success after every 2 failures.
        let outcomes: Vec<bool> = (0..9).map(|_| inj.launch_attempt_fails()).collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false, true, true, false]);
        assert_eq!(inj.launch_faults(), 6);
        assert_eq!(inj.launch_attempts(), 9);
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::disabled());
        assert!(FaultPlan::disabled().is_disabled());
        let mut bytes = vec![0xABu8; 128];
        assert_eq!(inj.corrupt_bytes(&mut bytes), 0);
        assert!(bytes.iter().all(|&b| b == 0xAB));
        assert!(!inj.launch_attempt_fails());
    }

    #[test]
    fn retry_policy_backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_retries: 4,
            backoff_base: 1e-6,
            backoff_factor: 2.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_time(1), 1e-6);
        assert_eq!(p.backoff_time(2), 2e-6);
        assert_eq!(p.backoff_time(3), 4e-6);
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn retry_policy_zeroth_attempt_charges_nothing_and_cap_bounds_growth() {
        let p = RetryPolicy {
            max_retries: 40,
            backoff_base: 1e-6,
            backoff_factor: 2.0,
            backoff_cap: 8e-6,
        };
        assert_eq!(p.backoff_time(0), 0.0, "no failed attempt, no backoff");
        assert_eq!(p.backoff_time(4), 8e-6);
        assert_eq!(p.backoff_time(5), 8e-6, "cap must bound geometric growth");
        assert_eq!(p.backoff_time(30), 8e-6);
        // The default cap is high enough to leave µs-scale policies alone.
        let d = RetryPolicy::default();
        assert_eq!(d.backoff_time(0), 0.0);
        assert!(d.backoff_time(d.max_retries) < d.backoff_cap);
    }

    #[test]
    fn service_faults_are_pure_functions_of_identity() {
        let plan = ServiceFaultPlan::seeded(42).job_faults(0.5, 3).stalls(0.3, 5e-6);
        let a = ServiceFaults::new(plan);
        let b = ServiceFaults::new(plan);
        // Same decisions whichever order (or evaluator) asks.
        for job in 0..64u64 {
            for attempt in 0..4u32 {
                assert_eq!(a.job_attempt_fails(job, attempt), b.job_attempt_fails(job, attempt));
            }
        }
        for d in 0..64u64 {
            assert_eq!(a.stall_after(d), b.stall_after(d));
        }
        // Roughly honors the rates.
        let fails = (0..1000u64).filter(|&j| a.job_attempt_fails(j, 0)).count();
        assert!((300..700).contains(&fails), "expected ~500 first-attempt failures, got {fails}");
        let stalls = (0..1000u64).filter(|&d| a.stall_after(d).is_some()).count();
        assert!((150..450).contains(&stalls), "expected ~300 stalls, got {stalls}");
        // A different seed gives a different schedule.
        let c = ServiceFaults::new(ServiceFaultPlan::seeded(43).job_faults(0.5, 3));
        assert!((0..256u64).any(|j| a.job_attempt_fails(j, 0) != c.job_attempt_fails(j, 0)));
    }

    #[test]
    fn service_faults_respect_consecutive_cap_and_outage_window() {
        let plan = ServiceFaultPlan::seeded(7).job_faults(1.0, 2);
        let f = ServiceFaults::new(plan);
        for job in 0..32u64 {
            assert!(f.job_attempt_fails(job, 0));
            assert!(f.job_attempt_fails(job, 1));
            assert!(!f.job_attempt_fails(job, 2), "attempt max_consecutive must succeed");
        }
        assert_eq!(f.outage(), None);
        let lost = ServiceFaults::new(plan.device_loss(1e-3, Some(2e-3)));
        assert_eq!(lost.outage(), Some((1e-3, Some(3e-3))));
        let gone = ServiceFaults::new(plan.device_loss(1e-3, None));
        assert_eq!(gone.outage(), Some((1e-3, None)));
    }

    #[test]
    fn disabled_service_plan_injects_nothing() {
        let f = ServiceFaults::new(ServiceFaultPlan::disabled());
        assert!(ServiceFaultPlan::disabled().is_disabled());
        assert!(!ServiceFaultPlan::seeded(1).job_faults(0.1, 1).is_disabled());
        assert!((0..100u64).all(|j| !f.job_attempt_fails(j, 0)));
        assert!((0..100u64).all(|d| f.stall_after(d).is_none()));
        assert_eq!(f.outage(), None);
    }

    #[test]
    fn corrupt_buffer_flips_device_bits() {
        let buf = GpuBuffer::from_host(&vec![0u32; 1024]);
        let mut inj = FaultInjector::new(FaultPlan::seeded(11).global_bit_flips(0.01));
        let n = inj.corrupt_buffer(&buf);
        assert!(n > 0);
        let ones: u32 = buf.to_vec().iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, n);
    }
}
