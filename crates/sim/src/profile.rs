//! Timeline profiling: capture a device timeline as an immutable snapshot
//! with absolute start times, render it as a human-readable report with
//! roofline attribution, or export it as Chrome-trace JSON.
//!
//! The simulator executes one stream, so events are scheduled back-to-back:
//! event `i` starts when event `i-1` ends. That makes start times a pure
//! function of the timeline and profiles bit-identical across runs of a
//! deterministic pipeline.
//!
//! The JSON exporters use the workspace's one JSON writer
//! ([`fzgpu_trace::json::Obj`]) and the shared [`fzgpu_trace::chrome`]
//! builder; they emit the Trace Event Format's `"X"` (complete) events,
//! loadable in `chrome://tracing` and Perfetto. Kernels render on one
//! track (tid 0), transfers on another (tid 1).
//!
//! # Clock domains
//! [`Profile::chrome_trace_json`] carries *modeled/analytic* device time
//! only. [`Profile::unified_chrome_trace`] joins it with a captured host
//! span [`fzgpu_trace::Trace`] in one document: pid 0 is the modeled
//! device (analytic clock), pid 1 is the host (real wallclock). The two
//! clocks share an origin (t=0 = capture start) but not a rate — never
//! compare durations across pids.

use fzgpu_trace::chrome::ChromeTrace;
use fzgpu_trace::json::{self, Layout, Obj};

use crate::grid::{Event, Gpu};
use crate::perf::{KernelRecord, TransferRecord};

/// One entry of a captured profile, stamped with an absolute start time in
/// seconds since the start of the capture window.
#[derive(Debug, Clone)]
pub enum ProfileEvent {
    /// A kernel launch with its counters and roofline attribution.
    Kernel {
        /// Start time, seconds.
        start: f64,
        /// The timeline record (name, time, stats, breakdown).
        record: KernelRecord,
    },
    /// A host<->device copy.
    Transfer {
        /// Start time, seconds.
        start: f64,
        /// The timeline record (direction, bytes, time).
        record: TransferRecord,
    },
}

impl ProfileEvent {
    /// Start time in seconds.
    pub fn start(&self) -> f64 {
        match self {
            ProfileEvent::Kernel { start, .. } | ProfileEvent::Transfer { start, .. } => *start,
        }
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        match self {
            ProfileEvent::Kernel { record, .. } => record.time,
            ProfileEvent::Transfer { record, .. } => record.time,
        }
    }

    /// Display name (kernel name — decorated with its retry ordinal for
    /// failed transient-fault attempts — or transfer direction).
    pub fn name(&self) -> std::borrow::Cow<'_, str> {
        match self {
            ProfileEvent::Kernel { record, .. } => record.display_name(),
            ProfileEvent::Transfer { record, .. } => std::borrow::Cow::Borrowed(record.direction),
        }
    }
}

/// An immutable snapshot of a device timeline with absolute start times.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Device the timeline ran on (spec name).
    pub device: &'static str,
    /// Events in stream order, back-to-back.
    pub events: Vec<ProfileEvent>,
}

impl Profile {
    /// Snapshot the GPU's timeline since construction or the last
    /// [`Gpu::reset_timeline`].
    pub fn capture(gpu: &Gpu) -> Profile {
        let mut clock = 0.0;
        let events = gpu
            .timeline()
            .iter()
            .map(|e| {
                let start = clock;
                clock += e.time();
                match e {
                    Event::Kernel(k) => ProfileEvent::Kernel { start, record: k.clone() },
                    Event::Transfer(t) => ProfileEvent::Transfer { start, record: t.clone() },
                }
            })
            .collect();
        Profile { device: gpu.spec().name, events }
    }

    /// Append another profile's events after this one's end — joins the
    /// captures of two pipeline phases (e.g. a compress and a decompress,
    /// separated by a [`Gpu::reset_timeline`]) into one trace.
    pub fn append(&mut self, other: &Profile) {
        let offset = self.total_time();
        for e in &other.events {
            let mut e = e.clone();
            match &mut e {
                ProfileEvent::Kernel { start, .. } | ProfileEvent::Transfer { start, .. } => {
                    *start += offset;
                }
            }
            self.events.push(e);
        }
    }

    /// Sum of kernel durations (excludes transfers).
    pub fn kernel_time(&self) -> f64 {
        self.kernels().map(|k| k.time).sum()
    }

    /// End of the last event = total modeled time.
    pub fn total_time(&self) -> f64 {
        self.events.iter().map(ProfileEvent::duration).sum()
    }

    /// The kernel records, in launch order.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelRecord> {
        self.events.iter().filter_map(|e| match e {
            ProfileEvent::Kernel { record, .. } => Some(record),
            ProfileEvent::Transfer { .. } => None,
        })
    }

    /// Human-readable per-stage report: timing, roofline attribution
    /// (binding resource and margin), and the counter-derived health
    /// metrics for every kernel and transfer.
    pub fn text_report(&self) -> String {
        let mut out = format!(
            "profile on {} — {} events, kernels {:.2} us, total {:.2} us\n",
            self.device,
            self.events.len(),
            self.kernel_time() * 1e6,
            self.total_time() * 1e6,
        );
        out.push_str(&format!(
            "{:<32} {:>9} {:>9}  {:<15} {:>7} {:>9} {:>9} {:>6}\n",
            "event", "start us", "dur us", "bound by", "margin", "coalesce", "conflicts", "lanes"
        ));
        out.push_str(&"-".repeat(104));
        out.push('\n');
        for e in &self.events {
            match e {
                ProfileEvent::Kernel { start, record } => {
                    let b = &record.breakdown;
                    out.push_str(&format!(
                        "{:<32} {:>9.2} {:>9.2}  {:<15} {:>6.1}x {:>8.0}% {:>9} {:>5.0}%\n",
                        record.display_name(),
                        start * 1e6,
                        record.time * 1e6,
                        b.bound_by.label(),
                        b.margin,
                        record.stats.coalescing_efficiency() * 100.0,
                        record.stats.smem_conflict_cycles,
                        record.stats.lane_utilization() * 100.0,
                    ));
                }
                ProfileEvent::Transfer { start, record } => {
                    out.push_str(&format!(
                        "{:<32} {:>9.2} {:>9.2}  {:<15} {:>7} {:>8.1} GB/s\n",
                        record.direction,
                        start * 1e6,
                        record.time * 1e6,
                        "pcie",
                        "",
                        record.bytes as f64 / record.time / 1e9,
                    ));
                }
            }
        }
        out
    }

    /// Export as Chrome Trace Event Format JSON (`chrome://tracing`,
    /// Perfetto). Kernels land on tid 0, transfers on tid 1; timestamps
    /// and durations are microseconds per the format. Modeled device time
    /// only — see [`Profile::unified_chrome_trace`] for the joined
    /// host+device document.
    pub fn chrome_trace_json(&self) -> String {
        let mut t = ChromeTrace::new();
        t.thread_name(0, 0, "kernels");
        t.thread_name(0, 1, "transfers");
        self.write_device_events(&mut t);
        t.finish(&[("device", json::escape(self.device))])
    }

    /// Export one Chrome-trace document carrying both clock domains:
    /// pid 0 = "modeled device (analytic clock)" with this profile's
    /// kernel/transfer records, pid 1 = "host (wallclock)" with the spans
    /// of a capture window ([`fzgpu_trace::begin_capture`] /
    /// [`fzgpu_trace::end_capture`]). Both timelines start at t=0 but tick
    /// different clocks; durations are only comparable within a pid.
    pub fn unified_chrome_trace(&self, host: &fzgpu_trace::Trace) -> String {
        let mut t = ChromeTrace::new();
        t.process_name(0, "modeled device (analytic clock)");
        t.thread_name(0, 0, "kernels");
        t.thread_name(0, 1, "transfers");
        t.process_name(1, "host (wallclock)");
        t.thread_name(1, 0, "host spans");
        self.write_device_events(&mut t);
        for r in &host.records {
            let mut args: Vec<(&str, String)> =
                r.fields.iter().map(|(k, v)| (*k, json::escape(v))).collect();
            args.push(("depth", r.depth.to_string()));
            let ts_us = r.start_ns as f64 / 1e3;
            match r.kind {
                fzgpu_trace::SpanKind::Span => {
                    t.complete(1, 0, &r.name, "host", ts_us, r.dur_ns as f64 / 1e3, &args);
                }
                fzgpu_trace::SpanKind::Event => {
                    t.instant(1, 0, &r.name, "host", ts_us, &args);
                }
            }
        }
        t.finish(&[
            ("device", json::escape(self.device)),
            ("clock_domains", json::escape("pid 0 analytic/modeled, pid 1 host wallclock")),
        ])
    }

    /// Machine-readable JSON for `fzgpu profile --json`: device, totals,
    /// and every event with its start/duration and health counters.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            let o = Obj::compact()
                .str("name", &e.name())
                .num("start_us", e.start() * 1e6)
                .num("dur_us", e.duration() * 1e6);
            match e {
                ProfileEvent::Kernel { record, .. } => {
                    let s = &record.stats;
                    let b = &record.breakdown;
                    o.str("kind", "kernel")
                        .str("bound_by", b.bound_by.label())
                        .num("margin", b.margin)
                        .num("occupancy", b.occupancy)
                        .num("coalescing_efficiency", s.coalescing_efficiency())
                        .raw("smem_conflict_cycles", s.smem_conflict_cycles)
                        .num("lane_utilization", s.lane_utilization())
                        .raw("retries", record.retries)
                }
                ProfileEvent::Transfer { record, .. } => {
                    o.str("kind", "transfer").raw("bytes", record.bytes)
                }
            }
            .finish()
        });
        Obj::compact()
            .str("device", self.device)
            .num("kernel_time_us", self.kernel_time() * 1e6)
            .num("total_time_us", self.total_time() * 1e6)
            .raw("events", json::list(Layout::Compact, events))
            .finish()
    }

    /// Append this profile's records to a [`ChromeTrace`] under pid 0.
    fn write_device_events(&self, t: &mut ChromeTrace) {
        for e in &self.events {
            let (tid, cat, args) = match e {
                ProfileEvent::Kernel { record, .. } => {
                    let s = &record.stats;
                    let b = &record.breakdown;
                    let args = vec![
                        ("bound_by", json::escape(b.bound_by.label())),
                        ("margin", json::num(b.margin)),
                        ("occupancy", json::num(b.occupancy)),
                        ("global_sectors", s.global_sectors.to_string()),
                        ("coalescing_efficiency", json::num(s.coalescing_efficiency())),
                        ("smem_conflict_cycles", s.smem_conflict_cycles.to_string()),
                        ("lane_utilization", json::num(s.lane_utilization())),
                        ("warp_instructions", s.warp_instructions.to_string()),
                        ("barriers", s.barriers.to_string()),
                        ("smem_bytes_peak", s.smem_bytes_peak.to_string()),
                        ("retries", record.retries.to_string()),
                    ];
                    (0u32, "kernel", args)
                }
                ProfileEvent::Transfer { record, .. } => {
                    (1u32, "transfer", vec![("bytes", record.bytes.to_string())])
                }
            };
            t.complete(0, tid, &e.name(), cat, e.start() * 1e6, e.duration() * 1e6, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::A100;
    use crate::memory::GpuBuffer;

    fn profiled_gpu() -> Gpu {
        let mut gpu = Gpu::new(A100);
        let input = gpu.upload(&(0u32..4096).collect::<Vec<_>>());
        let out: GpuBuffer<u32> = gpu.alloc(4096);
        gpu.launch("copy", 16u32, 256u32, |blk| {
            let base = blk.block_linear() * blk.thread_count();
            blk.warps(|w| {
                let v = w.load(&input, |l| Some(base + l.ltid));
                w.store(&out, |l| Some((base + l.ltid, v[l.id])));
            });
        });
        let _ = gpu.download(&out);
        gpu
    }

    #[test]
    fn capture_schedules_back_to_back() {
        let gpu = profiled_gpu();
        let p = Profile::capture(&gpu);
        assert_eq!(p.events.len(), 3);
        let mut clock = 0.0;
        for e in &p.events {
            assert!((e.start() - clock).abs() < 1e-15);
            clock += e.duration();
        }
        assert!((p.total_time() - gpu.total_time()).abs() < 1e-15);
        assert!((p.kernel_time() - gpu.kernel_time()).abs() < 1e-15);
    }

    #[test]
    fn text_report_shows_attribution() {
        let p = Profile::capture(&profiled_gpu());
        let rep = p.text_report();
        assert!(rep.contains("copy"), "{rep}");
        assert!(rep.contains("bound by"), "{rep}");
        assert!(rep.contains("H2D") && rep.contains("D2H"), "{rep}");
    }

    #[test]
    fn chrome_trace_has_all_events() {
        let p = Profile::capture(&profiled_gpu());
        let json = p.chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"copy\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"bound_by\""));
        // 3 timeline events + 2 thread-name metadata events.
        assert_eq!(json.matches("\"ph\":").count(), 5);
    }

    #[test]
    fn hostile_kernel_names_stay_valid_json() {
        use fzgpu_trace::json::{parse, Value};
        let hostile = "evil \"kernel\"\\ with\nnewline\tand \u{1} ctrl";
        let mut gpu = Gpu::new(A100);
        gpu.record_kernel(hostile, 1e-6, crate::perf::KernelStats::default());
        let p = Profile::capture(&gpu);
        let doc = parse(&p.chrome_trace_json()).expect("hostile name must stay valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
        assert!(names.contains(&hostile), "{names:?}");
    }

    #[test]
    fn unified_trace_carries_both_clock_domains() {
        use fzgpu_trace::json::{parse, Value};
        fzgpu_trace::begin_capture();
        let gpu = {
            let _s = fzgpu_trace::span("host.work").field("n", 4096);
            profiled_gpu()
        };
        let host = fzgpu_trace::end_capture();
        let doc = parse(&Profile::capture(&gpu).unified_chrome_trace(&host)).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let pid_of = |e: &Value| e.get("pid").and_then(Value::as_f64).unwrap();
        assert!(events.iter().any(|e| pid_of(e) == 0.0));
        assert!(events.iter().any(
            |e| pid_of(e) == 1.0 && e.get("name").and_then(Value::as_str) == Some("host.work")
        ));
        // The capture wrapped the whole pipeline, so the gpu.launch span
        // rides along on the host track.
        assert!(events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("gpu.launch")));
        assert!(doc.get("otherData").and_then(|o| o.get("clock_domains")).is_some());
    }

    #[test]
    fn profile_json_parses_and_matches_totals() {
        use fzgpu_trace::json::{parse, Value};
        let p = Profile::capture(&profiled_gpu());
        let doc = parse(&p.to_json()).unwrap();
        assert_eq!(doc.get("device").and_then(Value::as_str), Some("A100"));
        let events = doc.get("traceEvents");
        assert!(events.is_none(), "to_json is not a chrome trace");
        let evs = doc.get("events").and_then(Value::as_array).unwrap();
        assert_eq!(evs.len(), p.events.len());
        let total = doc.get("total_time_us").and_then(Value::as_f64).unwrap();
        assert!((total - p.total_time() * 1e6).abs() < 1e-9);
        assert_eq!(evs[1].get("kind").and_then(Value::as_str), Some("kernel"));
    }

    proptest::proptest! {
        /// Satellite: `append` rebases the second capture monotonically and
        /// keeps the time sums consistent, for arbitrary phase timelines.
        #[test]
        fn append_rebases_monotonically(
            first in proptest::collection::vec(1e-7f64..1e-3, 0..12),
            second in proptest::collection::vec(1e-7f64..1e-3, 1..12),
        ) {
            let build = |times: &[f64]| {
                let mut gpu = Gpu::new(A100);
                for (i, &t) in times.iter().enumerate() {
                    gpu.record_kernel(&format!("k{i}"), t, crate::perf::KernelStats::default());
                }
                Profile::capture(&gpu)
            };
            let mut joined = build(&first);
            let b = build(&second);
            let (ta, tb) = (joined.total_time(), b.total_time());
            let (ka, kb) = (joined.kernel_time(), b.kernel_time());
            joined.append(&b);
            proptest::prop_assert!((joined.total_time() - (ta + tb)).abs() < 1e-12);
            proptest::prop_assert!((joined.kernel_time() - (ka + kb)).abs() < 1e-12);
            // Starts stay monotonically non-decreasing and back-to-back
            // across the joint: every event starts when the previous ends.
            let mut clock = 0.0;
            for e in &joined.events {
                proptest::prop_assert!((e.start() - clock).abs() < 1e-12);
                clock += e.duration();
            }
            // The appended phase is rebased past the whole first phase.
            proptest::prop_assert!(joined.events[first.len()].start() >= ta - 1e-12);
        }
    }
}
