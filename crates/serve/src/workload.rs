//! Deterministic synthetic workload traces.
//!
//! A workload is a JSON document describing a request schedule against one
//! device. Everything a replay needs is in the file: arrival times (modeled
//! microseconds), operation, field size, error bound, and a seeded
//! synthetic field generator. Two replays of the same file produce
//! byte-identical job inputs — there is no wallclock and no ambient RNG.
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "device": "A100",
//!   "requests": [
//!     {"arrival_us": 0.0, "op": "compress", "n": 16384,
//!      "eb_rel": 1e-3, "field": "sine", "seed": 1}
//!   ]
//! }
//! ```
//!
//! `op` is `"compress"` or `"decompress"` (for the latter the harness
//! first builds the compressed stream out-of-band, untimed). `field`
//! selects a generator from [`FieldKind`]; `seed` perturbs it so equal
//! sizes still carry distinct data. `n` is a whole number of values in
//! 1..=2^53. The bound, finite and positive, is `eb_abs` (absolute) or
//! `eb_rel` (relative to the field's range).

use fzgpu_core::ErrorBound;
use fzgpu_sim::device::{self, DeviceSpec};
use fzgpu_trace::json::{self, Value};

/// Job direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// f32 field in, stream bytes out.
    Compress,
    /// Stream bytes in, f32 field out.
    Decompress,
}

impl Op {
    /// Lower-case label (matches the JSON spelling).
    pub fn label(&self) -> &'static str {
        match self {
            Op::Compress => "compress",
            Op::Decompress => "decompress",
        }
    }
}

/// Deterministic synthetic field generator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Smooth product of sines — compresses well.
    Sine,
    /// Linear ramp with a slow oscillation.
    Ramp,
    /// Sine plus seeded xorshift noise — compresses poorly.
    Mixed,
    /// All zeros — the sparsification fast path.
    Zero,
}

impl FieldKind {
    fn from_str(s: &str) -> Option<Self> {
        match s {
            "sine" => Some(FieldKind::Sine),
            "ramp" => Some(FieldKind::Ramp),
            "mixed" => Some(FieldKind::Mixed),
            "zero" => Some(FieldKind::Zero),
            _ => None,
        }
    }

    /// Lower-case label (matches the JSON spelling).
    pub fn label(&self) -> &'static str {
        match self {
            FieldKind::Sine => "sine",
            FieldKind::Ramp => "ramp",
            FieldKind::Mixed => "mixed",
            FieldKind::Zero => "zero",
        }
    }
}

/// One request in a trace.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Modeled arrival time, seconds from replay start.
    pub arrival: f64,
    /// Direction.
    pub op: Op,
    /// Field length in f32 values.
    pub n: usize,
    /// Error bound.
    pub eb: ErrorBound,
    /// Synthetic generator.
    pub field: FieldKind,
    /// Generator seed.
    pub seed: u64,
    /// Scheduling priority: lower value = more important. Only consulted
    /// by priority shedding (see
    /// [`crate::ResilienceConfig::shed_by_priority`]); 0 (the default)
    /// everywhere keeps admission order-driven as before.
    pub priority: u8,
}

/// A parsed workload trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Trace name (reports, digests).
    pub name: String,
    /// Target device preset.
    pub device: DeviceSpec,
    /// Requests sorted by arrival time (stable: file order breaks ties).
    pub requests: Vec<Request>,
}

impl Workload {
    /// Parse a workload from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload: missing \"name\"")?
            .to_string();
        let device_name = doc.get("device").and_then(Value::as_str).unwrap_or("A100");
        let device = device::by_name(device_name)
            .ok_or_else(|| format!("workload: unknown device {device_name:?}"))?;
        let reqs = doc
            .get("requests")
            .and_then(Value::as_array)
            .ok_or("workload: missing \"requests\" array")?;
        let mut requests = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            requests.push(parse_request(r).map_err(|e| format!("request {i}: {e}"))?);
        }
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        Ok(Self { name, device, requests })
    }

    /// Read and parse a workload file.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Total f32 values across all requests.
    pub fn total_values(&self) -> u64 {
        self.requests.iter().map(|r| r.n as u64).sum()
    }
}

fn num_field(r: &Value, key: &str) -> Option<f64> {
    r.get(key).and_then(Value::as_f64)
}

fn parse_request(r: &Value) -> Result<Request, String> {
    let arrival_us = num_field(r, "arrival_us").ok_or("missing \"arrival_us\"")?;
    if !(arrival_us.is_finite() && arrival_us >= 0.0) {
        return Err(format!("bad arrival_us {arrival_us}"));
    }
    let op = match r.get("op").and_then(Value::as_str).ok_or("missing \"op\"")? {
        "compress" => Op::Compress,
        "decompress" => Op::Decompress,
        other => return Err(format!("unknown op {other:?}")),
    };
    // 2^53: the largest integer a JSON number holds exactly.
    let n = match num_field(r, "n").ok_or("missing \"n\"")? {
        n if n.fract() == 0.0 && (1.0..=9_007_199_254_740_992.0).contains(&n) => n as usize,
        n => return Err(format!("n must be a whole number in 1..=2^53, got {n:?}")),
    };
    let bound = |e: f64| {
        if e.is_finite() && e > 0.0 {
            Ok(e)
        } else {
            Err(format!("bound must be finite and positive, got {e:?}"))
        }
    };
    let eb = match (num_field(r, "eb_abs"), num_field(r, "eb_rel")) {
        (Some(e), None) => ErrorBound::Abs(bound(e)?),
        (None, Some(e)) => ErrorBound::RelToRange(bound(e)?),
        (None, None) => return Err("need \"eb_abs\" or \"eb_rel\"".to_string()),
        (Some(_), Some(_)) => return Err("bound must be abs or rel, not both".to_string()),
    };
    let field = r
        .get("field")
        .and_then(Value::as_str)
        .map(|s| FieldKind::from_str(s).ok_or_else(|| format!("unknown field kind {s:?}")))
        .transpose()?
        .unwrap_or(FieldKind::Sine);
    let seed = num_field(r, "seed").unwrap_or(0.0) as u64;
    let priority = match num_field(r, "priority") {
        None => 0,
        Some(p) if p.fract() == 0.0 && (0.0..=255.0).contains(&p) => p as u8,
        Some(p) => return Err(format!("priority must be an integer in 0..=255, got {p}")),
    };
    Ok(Request { arrival: arrival_us * 1e-6, op, n, eb, field, seed, priority })
}

/// Generate the deterministic synthetic field for a request.
///
/// Pure function of `(kind, n, seed)`; replays regenerate identical bytes.
pub fn synth_field(kind: FieldKind, n: usize, seed: u64) -> Vec<f32> {
    // Seed-derived phase/frequency so equal-size requests differ.
    let phase = (seed.wrapping_mul(0x9E37_79B9) % 1000) as f32 * 1e-3;
    match kind {
        FieldKind::Zero => vec![0.0; n],
        FieldKind::Sine => (0..n)
            .map(|i| (i as f32 * 0.013 + phase).sin() * 2.0 + (i as f32 * 0.0021).cos())
            .collect(),
        FieldKind::Ramp => {
            (0..n).map(|i| i as f32 * 1e-4 + (i as f32 * 0.002 + phase).sin() * 0.1).collect()
        }
        FieldKind::Mixed => {
            // Smooth carrier plus xorshift noise: hard-to-compress payload.
            let mut state = seed | 1;
            (0..n)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    (i as f32 * 0.01 + phase).sin() + noise * 0.2
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "name": "t", "device": "a4000",
        "requests": [
            {"arrival_us": 10.0, "op": "decompress", "n": 4096, "eb_abs": 1e-3, "field": "ramp", "seed": 3, "priority": 2},
            {"arrival_us": 0.0, "op": "compress", "n": 8192, "eb_rel": 1e-3}
        ]
    }"#;

    #[test]
    fn parses_and_sorts_by_arrival() {
        let w = Workload::from_json(SAMPLE).unwrap();
        assert_eq!(w.name, "t");
        assert_eq!(w.device.name, "A4000");
        assert_eq!(w.requests.len(), 2);
        assert_eq!(w.requests[0].op, Op::Compress);
        assert_eq!(w.requests[0].field, FieldKind::Sine, "field defaults to sine");
        assert_eq!(w.requests[0].priority, 0, "priority defaults to 0");
        assert_eq!(w.requests[1].priority, 2);
        assert!((w.requests[1].arrival - 10e-6).abs() < 1e-12);
        assert_eq!(w.total_values(), 4096 + 8192);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"frobnicate","n":64,"eb_abs":1e-3}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":0,"eb_abs":1e-3}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":-5.0,"op":"compress","n":64,"eb_abs":1e-3}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_abs":0.0}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_abs":1e-3,"priority":300}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_abs":1e-3,"priority":1.5}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_abs":1e999}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_rel":1e999}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":64,"eb_abs":1e-3,"eb_rel":1e-3}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":1e300,"eb_abs":1e-3}]}"#,
            r#"{"name":"x","requests":[{"arrival_us":0.0,"op":"compress","n":4096.7,"eb_abs":1e-3}]}"#,
            r#"{"requests":[]}"#,
            r#"{"name":"x","device":"h100","requests":[]}"#,
            "not json",
        ] {
            assert!(Workload::from_json(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn synth_fields_are_deterministic_and_seed_sensitive() {
        for kind in [FieldKind::Sine, FieldKind::Ramp, FieldKind::Mixed, FieldKind::Zero] {
            let a = synth_field(kind, 512, 7);
            let b = synth_field(kind, 512, 7);
            assert_eq!(a, b, "{kind:?} must be deterministic");
        }
        assert_ne!(synth_field(FieldKind::Mixed, 512, 1), synth_field(FieldKind::Mixed, 512, 2));
        assert!(synth_field(FieldKind::Zero, 64, 9).iter().all(|&v| v == 0.0));
    }
}
