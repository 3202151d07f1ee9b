//! Deterministic service telemetry primitives: log-bucketed histograms,
//! windowed time series, a versioned structured event log, SLO burn-rate
//! tracking, and a bounded flight recorder.
//!
//! Everything in this module is keyed on **modeled (Det-class) time** and
//! built from exactly-mergeable integer state, so two replays of the same
//! workload — at any host thread count, on either sim engine — produce
//! byte-identical telemetry:
//!
//! * [`LogHist`] — an HDR-style histogram with *fixed* bucket boundaries
//!   derived from the f64 bit pattern (4 sub-buckets per power of two).
//!   Counts are `u64`, so merging two histograms is an exact integer sum
//!   with no float accumulation order to worry about.
//! * [`WindowedRegistry`] — per-window series of histograms and counters,
//!   keyed by `floor(t / window)`. Observations are keyed adds into a
//!   `BTreeMap`, so insertion order never matters.
//! * [`Event`] / [`EventLog`] — schema-v1 JSONL events carrying a modeled
//!   timestamp, a monotone sequence number, and optional job/stream/span
//!   linkage into the Chrome traces.
//! * [`BurnTracker`] — sliding-window SLO burn-rate computation over a
//!   sorted outcome stream, with upward-crossing alert semantics.
//! * [`FlightRecorder`] — a bounded ring of the most recent events,
//!   snapshotted into an incident dump whenever an alert fires.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{self, Layout, Obj};

/// Telemetry schema version stamped into every serialized artifact.
pub const SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Smallest bucketed exponent: values below `2^HIST_E_MIN` (≈ 1 ns when the
/// unit is seconds) land in bucket 0.
pub const HIST_E_MIN: i64 = -30;
/// Largest bucketed exponent: values at or above `2^HIST_E_MAX` (≈ 17 min)
/// land in the final bucket.
pub const HIST_E_MAX: i64 = 10;
/// Sub-buckets per power of two (top two mantissa bits).
pub const HIST_SUBDIV: usize = 4;
/// Total bucket count.
pub const HIST_BUCKETS: usize = ((HIST_E_MAX - HIST_E_MIN) as usize) * HIST_SUBDIV;

/// Bucket index for a value: exponent plus the top two mantissa bits, read
/// straight off the f64 bit pattern. Bucket boundaries are therefore exact
/// binary numbers (`2^e * (1 + s/4)`), identical on every platform, and a
/// merged histogram is an elementwise `u64` sum.
pub fn hist_bucket(v: f64) -> usize {
    // NaN and everything <= 0 land in bucket 0.
    if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> 50) & 0x3) as i64;
    let idx = (exp - HIST_E_MIN) * HIST_SUBDIV as i64 + sub;
    idx.clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

/// Exclusive upper bound of a bucket (the smallest value that lands in the
/// *next* bucket). Quantile queries report this bound, so they are
/// conservative: the true sample is strictly below the reported value.
pub fn hist_bucket_upper(idx: usize) -> f64 {
    let idx = idx.min(HIST_BUCKETS - 1);
    let exp = HIST_E_MIN + (idx / HIST_SUBDIV) as i64;
    let sub = (idx % HIST_SUBDIV) as f64;
    (2f64).powi(exp as i32) * (1.0 + (sub + 1.0) / HIST_SUBDIV as f64)
}

/// Fixed-boundary log-bucketed histogram with `u64` counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHist {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl LogHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        *self.counts.entry(hist_bucket(v) as u32).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Merge another histogram in: an exact elementwise `u64` sum.
    pub fn merge(&mut self, other: &LogHist) {
        for (&b, &c) in &other.counts {
            *self.counts.entry(b).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile, reported as the bucket's upper bound (see
    /// [`hist_bucket_upper`]). Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64) - 1e-9).ceil().max(1.0) as u64;
        let rank = rank.min(self.total);
        let mut seen = 0u64;
        for (&b, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return hist_bucket_upper(b as usize);
            }
        }
        hist_bucket_upper(HIST_BUCKETS - 1)
    }

    /// Sparse `(bucket, count)` pairs in bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&b, &c)| (b, c))
    }

    /// Sparse JSON rendering: `[[bucket,count],...]` in bucket order.
    pub fn to_json(&self) -> String {
        let pair = |(&b, &c): (&u32, &u64)| json::list(Layout::Compact, [u64::from(b), c]);
        json::list(Layout::Compact, self.counts.iter().map(pair))
    }
}

// ---------------------------------------------------------------------------
// Windowed registry
// ---------------------------------------------------------------------------

/// Series key: metric name plus a pre-rendered, sorted label string.
type SeriesKey = (String, String);

/// Render a label set deterministically (`k=v,k2=v2`, sorted by key).
pub fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.sort();
    pairs.join(",")
}

/// Per-window time series of histograms and counters, keyed on modeled
/// time. Window `w` covers `[w*width, (w+1)*width)` seconds.
#[derive(Debug, Clone)]
pub struct WindowedRegistry {
    width: f64,
    hists: BTreeMap<SeriesKey, BTreeMap<u64, LogHist>>,
    counters: BTreeMap<SeriesKey, BTreeMap<u64, u64>>,
}

impl WindowedRegistry {
    /// New registry with the given window width in modeled seconds.
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "window width must be positive");
        Self { width, hists: BTreeMap::new(), counters: BTreeMap::new() }
    }

    /// Window width in seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Window index holding modeled time `t`.
    pub fn window_of(&self, t: f64) -> u64 {
        if t <= 0.0 {
            return 0;
        }
        (t / self.width).floor() as u64
    }

    /// Record a histogram observation at modeled time `t`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], t: f64, v: f64) {
        let key = (name.to_string(), render_labels(labels));
        let w = self.window_of(t);
        self.hists.entry(key).or_default().entry(w).or_default().observe(v);
    }

    /// Add to a windowed counter at modeled time `t`.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], t: f64, delta: u64) {
        if delta == 0 {
            return;
        }
        let key = (name.to_string(), render_labels(labels));
        let w = self.window_of(t);
        *self.counters.entry(key).or_default().entry(w).or_insert(0) += delta;
    }

    /// Number of distinct series (histogram + counter families).
    pub fn series_count(&self) -> usize {
        self.hists.len() + self.counters.len()
    }

    /// Highest populated window index, if any observation was recorded.
    pub fn last_window(&self) -> Option<u64> {
        let h = self.hists.values().filter_map(|w| w.keys().next_back()).max();
        let c = self.counters.values().filter_map(|w| w.keys().next_back()).max();
        match (h, c) {
            (Some(a), Some(b)) => Some(*a.max(b)),
            (Some(a), None) => Some(*a),
            (None, Some(b)) => Some(*b),
            (None, None) => None,
        }
    }

    /// Iterate histogram series: `(name, labels, windows)`.
    pub fn hist_series(&self) -> impl Iterator<Item = (&str, &str, &BTreeMap<u64, LogHist>)> + '_ {
        self.hists.iter().map(|((n, l), w)| (n.as_str(), l.as_str(), w))
    }

    /// Iterate counter series: `(name, labels, windows)`.
    pub fn counter_series(&self) -> impl Iterator<Item = (&str, &str, &BTreeMap<u64, u64>)> + '_ {
        self.counters.iter().map(|((n, l), w)| (n.as_str(), l.as_str(), w))
    }

    /// Deterministic JSON rendering of every series (schema v1).
    pub fn to_json(&self) -> String {
        let series = |name: &str, labels: &str, kind: &str, windows: Vec<String>| {
            Obj::compact()
                .str("name", name)
                .str("labels", labels)
                .str("kind", kind)
                .raw("windows", json::list(Layout::Compact, windows))
                .finish()
        };
        let hists = self.hists.iter().map(|((name, labels), windows)| {
            let rows = windows.iter().map(|(w, h)| {
                Obj::compact()
                    .raw("w", w)
                    .raw("count", h.count())
                    .raw("buckets", h.to_json())
                    .finish()
            });
            series(name, labels, "hist", rows.collect())
        });
        let counters = self.counters.iter().map(|((name, labels), windows)| {
            let rows =
                windows.iter().map(|(w, c)| Obj::compact().raw("w", w).raw("value", c).finish());
            series(name, labels, "count", rows.collect())
        });
        Obj::compact()
            .raw("v", SCHEMA_VERSION)
            .num("window_us", self.width * 1e6)
            .raw("series", json::list(Layout::Compact, hists.chain(counters)))
            .finish()
            + "\n"
    }
}

// ---------------------------------------------------------------------------
// Structured event log (schema v1)
// ---------------------------------------------------------------------------

/// One structured telemetry event (schema v1).
///
/// `t` is modeled seconds; `seq` is the emission order within the run and
/// breaks ties when events share a timestamp. Optional fields tie the
/// event back to a job, a stream, a retry attempt, and a Chrome-trace span
/// name (the `b<N>.*` op family of the batch that carried the job).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emission sequence number (assigned by [`EventLog::push`]).
    pub seq: u64,
    /// Modeled timestamp, seconds.
    pub t: f64,
    /// Event kind, e.g. `admit`, `dispatch`, `retry`, `alert.burn_fast`.
    pub kind: String,
    /// Job id, when the event concerns one job.
    pub job: Option<u64>,
    /// Stream index, when the event is tied to a stream.
    pub stream: Option<usize>,
    /// Retry attempt number (0 = first try).
    pub attempt: Option<u32>,
    /// Chrome-trace span linkage (`b<N>` batch op family).
    pub span: Option<String>,
    /// Extra key/value detail, rendered in insertion order.
    pub detail: Vec<(String, String)>,
}

impl Event {
    /// New event of `kind` at modeled time `t` (seq filled in on push).
    pub fn new(kind: &str, t: f64) -> Self {
        Self {
            seq: 0,
            t,
            kind: kind.to_string(),
            job: None,
            stream: None,
            attempt: None,
            span: None,
            detail: Vec::new(),
        }
    }

    /// Attach a job id.
    pub fn job(mut self, id: u64) -> Self {
        self.job = Some(id);
        self
    }

    /// Attach a stream index.
    pub fn stream(mut self, s: usize) -> Self {
        self.stream = Some(s);
        self
    }

    /// Attach a retry attempt number.
    pub fn attempt(mut self, a: u32) -> Self {
        self.attempt = Some(a);
        self
    }

    /// Attach a Chrome-trace span name.
    pub fn span(mut self, s: &str) -> Self {
        self.span = Some(s.to_string());
        self
    }

    /// Attach one detail pair; the value must already be valid JSON
    /// (use [`json::num`] / [`json::escape`]).
    pub fn detail(mut self, key: &str, json_value: String) -> Self {
        self.detail.push((key.to_string(), json_value));
        self
    }

    /// Whether this is an alert event (`alert.*` kind).
    pub fn is_alert(&self) -> bool {
        self.kind.starts_with("alert.")
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::compact()
            .raw("v", SCHEMA_VERSION)
            .raw("seq", self.seq)
            .num("t_us", self.t * 1e6)
            .str("kind", &self.kind);
        if let Some(j) = self.job {
            o = o.raw("job", j);
        }
        if let Some(s) = self.stream {
            o = o.raw("stream", s);
        }
        if let Some(a) = self.attempt {
            o = o.raw("attempt", a);
        }
        if let Some(ref s) = self.span {
            o = o.str("span", s);
        }
        o.raw_pairs(&self.detail).finish()
    }
}

/// Append-only event log assigning sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event; its `seq` is overwritten with the next number.
    pub fn push(&mut self, mut ev: Event) -> u64 {
        let seq = self.events.len() as u64;
        ev.seq = seq;
        self.events.push(ev);
        seq
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the log, returning events sorted chronologically:
    /// by timestamp, then by emission order for ties.
    pub fn into_sorted(mut self) -> Vec<Event> {
        self.events.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)));
        self.events
    }

    /// Borrow the events in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

/// Render a slice of events as JSONL (one event per line).
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// SLO burn-rate tracking
// ---------------------------------------------------------------------------

/// Alerting thresholds for [`BurnTracker`] and the availability/breaker
/// rules layered on top of it by the serving layer's telemetry capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertConfig {
    /// Success-ratio objective (e.g. 0.999 = 0.1% error budget).
    pub objective: f64,
    /// Fast burn window, modeled seconds.
    pub fast_window: f64,
    /// Fast burn-rate threshold (multiples of the error budget).
    pub fast_burn: f64,
    /// Slow burn window, modeled seconds.
    pub slow_window: f64,
    /// Slow burn-rate threshold.
    pub slow_burn: f64,
    /// Trailing availability floor over the slow window.
    pub availability_floor: f64,
    /// Breaker reroutes within the fast window that count as "open".
    pub breaker_reroutes: u64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        Self {
            objective: 0.999,
            fast_window: 400e-6,
            fast_burn: 10.0,
            slow_window: 2e-3,
            slow_burn: 2.0,
            availability_floor: 0.95,
            breaker_reroutes: 2,
        }
    }
}

/// Sliding-window SLO burn-rate tracker.
///
/// Feed it `(t, good)` outcomes in nondecreasing `t` order; it maintains
/// the bad-fraction over the trailing window and reports the burn rate
/// (bad fraction divided by the error budget `1 - objective`). Alerts use
/// upward-crossing semantics: [`BurnTracker::push`] returns `Some(burn)`
/// only on the observation that takes the rate from below to at-or-above
/// the threshold; it re-arms once the rate falls below again.
#[derive(Debug, Clone)]
pub struct BurnTracker {
    window: f64,
    threshold: f64,
    budget: f64,
    events: VecDeque<(f64, bool)>,
    bad: u64,
    alerting: bool,
}

impl BurnTracker {
    /// New tracker over `window` seconds, firing at `threshold` times the
    /// error budget `1 - objective`.
    pub fn new(objective: f64, window: f64, threshold: f64) -> Self {
        Self {
            window,
            threshold,
            budget: (1.0 - objective).max(1e-12),
            events: VecDeque::new(),
            bad: 0,
            alerting: false,
        }
    }

    /// Record an outcome at time `t`; returns the burn rate when the alert
    /// threshold is newly crossed.
    pub fn push(&mut self, t: f64, good: bool) -> Option<f64> {
        self.events.push_back((t, good));
        if !good {
            self.bad += 1;
        }
        while let Some(&(t0, g0)) = self.events.front() {
            if t0 >= t - self.window {
                break;
            }
            self.events.pop_front();
            if !g0 {
                self.bad -= 1;
            }
        }
        let total = self.events.len() as u64;
        let burn = if total == 0 { 0.0 } else { (self.bad as f64 / total as f64) / self.budget };
        if burn >= self.threshold {
            if !self.alerting {
                self.alerting = true;
                return Some(burn);
            }
        } else {
            self.alerting = false;
        }
        None
    }

    /// Trailing availability (good fraction) over the current window.
    pub fn availability(&self) -> f64 {
        let total = self.events.len() as u64;
        if total == 0 {
            return 1.0;
        }
        (total - self.bad) as f64 / total as f64
    }

    /// Number of outcomes currently inside the window.
    pub fn in_window(&self) -> usize {
        self.events.len()
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One incident dump: the ring contents at the moment an alert fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// `seq` of the alert event that triggered the snapshot.
    pub alert_seq: u64,
    /// Kind of the triggering alert.
    pub alert_kind: String,
    /// Modeled time of the alert.
    pub t: f64,
    /// Ring contents, oldest first (the alert itself is last).
    pub events: Vec<Event>,
}

impl FlightDump {
    /// JSONL rendering: a header line, then one line per event.
    pub fn to_jsonl(&self) -> String {
        Obj::compact()
            .raw("v", SCHEMA_VERSION)
            .raw("dump", self.alert_seq)
            .str("alert", &self.alert_kind)
            .num("t_us", self.t * 1e6)
            .raw("events", self.events.len())
            .finish()
            + "\n"
            + &events_to_jsonl(&self.events)
    }
}

/// Always-on bounded ring of recent events; snapshots itself whenever it
/// is fed an alert event.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<Event>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// New recorder keeping the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), ring: VecDeque::new(), dumps: Vec::new() }
    }

    /// Feed one event (in chronological order). Alert events trigger a
    /// snapshot that includes the alert itself as the final entry.
    pub fn note(&mut self, ev: &Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(ev.clone());
        if ev.is_alert() {
            self.dumps.push(FlightDump {
                alert_seq: ev.seq,
                alert_kind: ev.kind.clone(),
                t: ev.t,
                events: self.ring.iter().cloned().collect(),
            });
        }
    }

    /// Incident dumps captured so far.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_monotone() {
        let mut last = 0.0;
        for i in 0..HIST_BUCKETS {
            let u = hist_bucket_upper(i);
            assert!(u > last, "bucket {i} upper {u} <= {last}");
            last = u;
        }
    }

    #[test]
    fn bucket_of_value_is_below_upper_bound() {
        for &v in &[1e-9, 3.7e-6, 1e-3, 0.25, 1.0, 1.5, 2.0, 123.0] {
            let b = hist_bucket(v);
            assert!(v < hist_bucket_upper(b), "v={v} bucket={b}");
            if b > 0 {
                assert!(v >= hist_bucket_upper(b - 1), "v={v} bucket={b}");
            }
        }
    }

    #[test]
    fn zero_and_negative_land_in_bucket_zero() {
        assert_eq!(hist_bucket(0.0), 0);
        assert_eq!(hist_bucket(-1.0), 0);
        assert_eq!(hist_bucket(f64::NAN), 0);
    }

    #[test]
    fn merge_is_exact_sum() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        for i in 1..100 {
            a.observe(i as f64 * 1e-6);
            b.observe(i as f64 * 2e-6);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), a.count() + b.count());
        let json_ab = {
            let mut m2 = b.clone();
            m2.merge(&a);
            m2.to_json()
        };
        assert_eq!(m.to_json(), json_ab, "merge must be order-independent");
    }

    #[test]
    fn quantile_nearest_rank_on_two_samples() {
        let mut h = LogHist::new();
        h.observe(1e-6);
        h.observe(1e-3);
        // Nearest-rank p50 of 2 samples is the *lower* sample's bucket.
        assert!(h.quantile(0.5) < 2e-6 * 1.5);
        assert!(h.quantile(0.99) > 0.5e-3);
    }

    #[test]
    fn windows_key_on_modeled_time() {
        let mut w = WindowedRegistry::new(100e-6);
        w.observe("lat", &[("stage", "total")], 50e-6, 1e-6);
        w.observe("lat", &[("stage", "total")], 150e-6, 1e-6);
        w.observe("lat", &[("stage", "total")], 160e-6, 2e-6);
        w.add("retries", &[], 250e-6, 1);
        assert_eq!(w.window_of(50e-6), 0);
        assert_eq!(w.window_of(150e-6), 1);
        assert_eq!(w.last_window(), Some(2));
        let json1 = w.to_json();
        // Re-inserting in a different order produces identical bytes.
        let mut w2 = WindowedRegistry::new(100e-6);
        w2.add("retries", &[], 250e-6, 1);
        w2.observe("lat", &[("stage", "total")], 160e-6, 2e-6);
        w2.observe("lat", &[("stage", "total")], 150e-6, 1e-6);
        w2.observe("lat", &[("stage", "total")], 50e-6, 1e-6);
        assert_eq!(json1, w2.to_json());
    }

    #[test]
    fn event_jsonl_roundtrips_through_parser() {
        let mut log = EventLog::new();
        log.push(
            Event::new("complete", 123e-6)
                .job(7)
                .stream(1)
                .attempt(0)
                .span("b3")
                .detail("latency_us", json::num(45.5)),
        );
        let line = log.events()[0].to_json();
        let v = json::parse(&line).expect("event must parse");
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("complete"));
        assert_eq!(v.get("job").and_then(|j| j.as_f64()), Some(7.0));
        assert_eq!(v.get("span").and_then(|s| s.as_str()), Some("b3"));
        assert_eq!(v.get("latency_us").and_then(|l| l.as_f64()), Some(45.5));
    }

    #[test]
    fn burn_tracker_crossing_semantics() {
        // objective 0.9 => budget 0.1; threshold 5 => bad fraction 0.5.
        let mut b = BurnTracker::new(0.9, 1.0, 5.0);
        assert_eq!(b.push(0.0, true), None);
        assert_eq!(b.push(0.1, true), None);
        // 1 bad of 3 = 0.33 burn 3.3: below.
        assert_eq!(b.push(0.2, false), None);
        // 2 bad of 4 = 0.5 burn 5.0: crossing fires once.
        assert!(b.push(0.3, false).is_some());
        assert_eq!(b.push(0.4, false), None, "still above: no re-fire");
        // Window slides: old events expire, rate drops, re-arms.
        for i in 0..20 {
            b.push(2.0 + i as f64 * 0.01, true);
        }
        assert!(b.availability() > 0.99);
        for i in 0..30 {
            let fired = b.push(2.5 + i as f64 * 0.01, false);
            if fired.is_some() {
                return;
            }
        }
        panic!("burn alert should re-fire after re-arming");
    }

    #[test]
    fn flight_recorder_ring_and_dump() {
        let mut fr = FlightRecorder::new(4);
        let mut log = EventLog::new();
        for i in 0..6 {
            log.push(Event::new("admit", i as f64 * 1e-6).job(i));
        }
        log.push(Event::new("alert.burn_fast", 6e-6));
        for ev in log.events() {
            fr.note(ev);
        }
        assert_eq!(fr.dumps().len(), 1);
        let d = &fr.dumps()[0];
        assert_eq!(d.events.len(), 4, "bounded ring");
        assert_eq!(d.events.last().unwrap().kind, "alert.burn_fast");
        assert_eq!(d.events[0].job, Some(3), "oldest two evicted");
    }
}
