//! Chrome Trace Event Format builder (`chrome://tracing`, Perfetto).
//!
//! Written through the workspace's one JSON writer ([`crate::json::Obj`]),
//! and built once here so every exporter shares the same top-level
//! document shape. Tracks are (pid, tid) pairs; name them with
//! [`ChromeTrace::process_name`] / [`ChromeTrace::thread_name`] metadata
//! events so viewers label them.

use crate::json::{self, Obj};

/// Incremental builder for one trace document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Label a process track (`process_name` metadata event).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        let event = Obj::compact().str("name", "process_name").str("ph", "M").raw("pid", pid);
        self.push(event, Obj::compact().str("name", name));
    }

    /// Label a thread track (`thread_name` metadata event).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        let event = Obj::compact().str("name", "thread_name").str("ph", "M").raw("pid", pid);
        self.push(event.raw("tid", tid), Obj::compact().str("name", name));
    }

    /// A complete (`"X"`) event: a slice from `ts_us` lasting `dur_us`
    /// microseconds. `args` values must be pre-rendered JSON tokens
    /// (use [`json::escape`] / [`json::num`] or integer `to_string`).
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let event =
            Obj::compact().str("name", name).str("cat", cat).str("ph", "X").num("ts", ts_us);
        let event = event.num("dur", dur_us).raw("pid", pid).raw("tid", tid);
        self.push(event, Obj::compact().raw_pairs(args));
    }

    /// An instant (`"i"`) event at `ts_us`, thread-scoped.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        args: &[(&str, String)],
    ) {
        let event = Obj::compact().str("name", name).str("cat", cat).str("ph", "i").str("s", "t");
        let event = event.num("ts", ts_us).raw("pid", pid).raw("tid", tid);
        self.push(event, Obj::compact().raw_pairs(args));
    }

    /// Queue `event`, closed with its `args` object.
    fn push(&mut self, event: Obj, args: Obj) {
        self.events.push(event.raw("args", args.finish()).finish());
    }

    /// Number of events queued so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the document. `other_data` values must be pre-rendered JSON
    /// tokens; they land in the `otherData` object.
    pub fn finish(self, other_data: &[(&str, String)]) -> String {
        Obj::compact()
            .str("displayTimeUnit", "ms")
            .raw("otherData", Obj::compact().raw_pairs(other_data).finish())
            .raw("traceEvents", json::list(json::Layout::Compact, self.events))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn document_round_trips_through_the_parser() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "modeled device");
        t.thread_name(0, 1, "transfers");
        t.complete(0, 1, "H2D \"hostile\"", "transfer", 0.0, 2.5, &[("bytes", "1024".into())]);
        t.instant(1, 0, "retry", "host", 3.0, &[("attempt", "1".into())]);
        assert_eq!(t.len(), 4);
        let doc = parse(&t.finish(&[("device", json::escape("A100"))])).unwrap();
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("device")).and_then(Value::as_str),
            Some("A100")
        );
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("name").and_then(Value::as_str), Some("H2D \"hostile\""));
        assert_eq!(events[2].get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(events[3].get("ph").and_then(Value::as_str), Some("i"));
    }
}
