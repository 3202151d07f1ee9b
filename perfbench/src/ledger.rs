//! In-memory span ledger kept by the benchmark around its own calls into
//! each layer's public functions.
//!
//! A span carries a name, start and end (nanoseconds since the ledger was
//! created), its parent span and a request id shared by every span of one
//! request. Spans nest on one thread only, so a span's children never
//! overlap and its self time is its duration minus theirs. Recording is
//! off in untraced runs: [`Ledger::timed`] still times the call (the
//! benchmark needs the duration either way) but keeps no record.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `fastpath.compress`.
    pub name: &'static str,
    /// Start, ns since the ledger began.
    pub start_ns: u64,
    /// End, ns since the ledger began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (0 for set-up and harness spans).
    pub rid: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

/// The span recorder.
pub struct Ledger {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Ledger {
    /// A ledger that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `rid`; returns the
    /// call's wall seconds and its result.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        rid: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (f64, R) {
        let t = Instant::now();
        if !self.on {
            let out = f(self);
            return (t.elapsed().as_secs_f64(), out);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rid,
        });
        self.stack.push(idx);
        let out = f(self);
        let dt = t.elapsed().as_secs_f64();
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (dt, out)
    }

    /// [`Ledger::timed`] without the duration.
    pub fn span<R>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed(name, rid, f).1
    }

    /// Recorded spans, in open order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Child coverage of every span, ns, indexed like [`Ledger::spans`].
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Spans whose children cover more than the span itself. Always zero
    /// for well-nested single-thread spans; the benchmark counts any as a
    /// failed check.
    pub fn overfull_spans(&self) -> usize {
        let child = self.child_ns();
        self.spans.iter().zip(&child).filter(|(s, &c)| c > s.dur_ns()).count()
    }

    /// Self-time table keyed by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let child = self.child_ns();
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child) {
            let e = table.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.dur_ns() as f64 * 1e-9;
            e.self_s += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        table
    }

    /// Summed self time of every span whose name is `layer` or starts with
    /// `layer.`, seconds.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.self_times()
            .iter()
            .filter(|(name, _)| {
                **name == layer
                    || name.strip_prefix(layer).is_some_and(|rest| rest.starts_with('.'))
            })
            .map(|(_, t)| t.self_s)
            .sum()
    }

    /// Aligned self-time table.
    pub fn table(&self) -> String {
        let mut out = format!("{:<28} {:>7} {:>12} {:>12}\n", "span", "count", "total s", "self s");
        for (name, t) in self.self_times() {
            out.push_str(&format!(
                "{name:<28} {:>7} {:>12.6} {:>12.6}\n",
                t.count, t.total_s, t.self_s
            ));
        }
        out
    }

    /// Every span as JSON, followed by the self-time table.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"rid\":{}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                    s.rid,
                )
            })
            .collect();
        let table: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\":\"{name}\",\"count\":{},\"total_s\":{:e},\"self_s\":{:e}}}",
                    t.count, t.total_s, t.self_s
                )
            })
            .collect();
        format!(
            "{{\"spans\":[\n{}\n],\n\"self_time\":[\n{}\n]}}\n",
            spans.join(",\n"),
            table.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_never_exceed_parents_and_self_times_add_up() {
        let mut led = Ledger::new(true);
        led.span("bench", 0, |led| {
            for rid in 1..=3 {
                led.span("store.read", rid, |led| {
                    led.span("store.decode", rid, |_| spin(200));
                    led.span("store.copy", rid, |_| spin(100));
                    spin(50);
                });
            }
        });
        assert_eq!(led.spans().len(), 10);
        assert_eq!(led.overfull_spans(), 0);
        let t = led.self_times();
        assert_eq!(t["store.read"].count, 3);
        assert!(t["store.read"].self_s < t["store.read"].total_s);
        // Self times partition the root's duration exactly (to rounding).
        let sum: f64 = t.values().map(|v| v.self_s).sum();
        assert!((sum - t["bench"].total_s).abs() < 1e-6, "{sum} vs {}", t["bench"].total_s);
        assert!(led.layer_self_s("store") > 0.0);
        assert_eq!(led.layer_self_s("stor"), 0.0);
        let decode = led.spans().iter().find(|s| s.name == "store.decode").unwrap();
        assert_eq!(decode.rid, 1);
        assert_eq!(led.spans()[decode.parent.unwrap()].name, "store.read");
    }

    #[test]
    fn off_ledger_times_but_records_nothing() {
        let mut led = Ledger::new(false);
        let (dt, v) = led.timed("x", 1, |_| {
            spin(100);
            7
        });
        assert_eq!(v, 7);
        assert!(dt > 0.0);
        assert!(led.spans().is_empty());
        assert!(led.to_json().contains("\"spans\":["));
    }
}
