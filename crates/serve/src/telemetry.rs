//! Deterministic service telemetry: the capture folded from a replay's
//! transition log, the alert pass, the on-disk layout, and the
//! `fzgpu report` dashboard renderer.
//!
//! The scheduler ([`crate::service::Service::run`]) records every
//! admission, reject, shed, failure, retry, breaker reroute, dispatch,
//! stall, completion and device loss once, in its transition log. Only
//! after the replay, and only when [`crate::ServeConfig::telemetry`] is
//! set, the capture folds that log: each transition becomes a schema-v1
//! event ([`fzgpu_trace::telemetry::Event`]) stamped with its *modeled*
//! timestamp, and every latency/queue-depth/stage observation lands in a
//! [`WindowedRegistry`] keyed on modeled-time windows. The capture runs
//! after every scheduling decision is made, so it is inert by
//! construction; and because the log is a pure function of (workload,
//! config, fault seed), so is the capture — bit-identical at any
//! `FZGPU_THREADS`, on either sim engine, and across replays.
//!
//! The fold then runs the deterministic alert pass: events are sorted
//! chronologically (timestamp, then emission order), SLO burn-rate
//! trackers ([`BurnTracker`]) and the breaker/availability rules replay
//! the outcome stream, alert events are spliced in directly after their
//! trigger, and the whole stream is fed through the bounded
//! [`FlightRecorder`] so each alert snapshots its incident context.
//!
//! On-disk layout (written by [`TelemetryCapture::write_dir`]):
//!
//! ```text
//! out/
//!   meta.json            run identity: workload, device, digest, config
//!   windows.json         per-window histogram + counter series
//!   events.jsonl         the full event log, one event per line
//!   flight/dump-<seq>.jsonl   ring snapshot per alert
//! ```
//!
//! [`render_report`] reads that directory back into the text dashboard
//! the `fzgpu report` subcommand prints.

use std::collections::VecDeque;
use std::path::Path;

use fzgpu_sim::{OpClass, StreamSim};
use fzgpu_trace::json::{self, Layout, Obj};
use fzgpu_trace::telemetry::{
    events_to_jsonl, hist_bucket_upper, AlertConfig, BurnTracker, Event, EventLog, FlightDump,
    FlightRecorder, WindowedRegistry, SCHEMA_VERSION,
};

use crate::service::{ServeReport, Transition};

/// Windowed latency histogram series, labelled `stage=queue|service|total`.
pub const LATENCY_SERIES: &str = "fzgpu_serve_latency_seconds";
/// Windowed per-stream latency histogram series, labelled `stream=<n>`.
pub const STREAM_LATENCY_SERIES: &str = "fzgpu_serve_stream_latency_seconds";
/// Windowed batch stage-duration histograms, labelled `stage=h2d|compute|d2h`.
pub const STAGE_SERIES: &str = "fzgpu_serve_stage_seconds";
/// Windowed queue-depth histogram (sampled at admissions and dispatches).
pub const QUEUE_DEPTH_SERIES: &str = "fzgpu_serve_queue_depth";
/// Windowed retry-backoff histogram, seconds.
pub const RETRY_BACKOFF_SERIES: &str = "fzgpu_serve_retry_backoff_seconds";
/// Windowed admission counter.
pub const WINDOW_ADMITS: &str = "fzgpu_serve_window_admissions";
/// Windowed completion counter.
pub const WINDOW_COMPLETIONS: &str = "fzgpu_serve_window_completions";
/// Windowed drop counter, labelled `reason=reject|shed|fail`.
pub const WINDOW_DROPS: &str = "fzgpu_serve_window_drops";
/// Windowed retry counter.
pub const WINDOW_RETRIES: &str = "fzgpu_serve_window_retries";
/// Windowed pool-hit counter (deltas sampled at dispatch).
pub const WINDOW_POOL_HITS: &str = "fzgpu_serve_window_mempool_hits";
/// Windowed pool-miss counter (deltas sampled at dispatch).
pub const WINDOW_POOL_MISSES: &str = "fzgpu_serve_window_mempool_misses";
/// Windowed compute-engine busy time, integer nanoseconds.
pub const WINDOW_COMPUTE_BUSY: &str = "fzgpu_serve_window_compute_busy_ns";
/// Windowed DMA-engine busy time (both directions), integer nanoseconds.
pub const WINDOW_COPY_BUSY: &str = "fzgpu_serve_window_copy_busy_ns";

/// Telemetry capture configuration, carried in
/// [`crate::ServeConfig::telemetry`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Window width, modeled seconds.
    pub window: f64,
    /// Flight-recorder ring capacity (events retained per incident dump).
    pub flight_capacity: usize,
    /// SLO alerting thresholds.
    pub alerts: AlertConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { window: 200e-6, flight_capacity: 64, alerts: AlertConfig::default() }
    }
}

/// Fold a replay's transition log into its telemetry capture. Each log
/// entry becomes its schema-v1 event(s) and windowed observations, in log
/// order (which assigns every event's `seq`). Then the stream schedule's
/// per-window busy time is folded in, the event log is sorted
/// chronologically, the alert rules replay over it with alert events
/// spliced in after their triggers, and the final stream is fed through
/// the flight recorder.
pub(crate) fn capture(
    cfg: TelemetryConfig,
    transitions: &[Transition],
    sim: &StreamSim,
    report: &ServeReport,
) -> TelemetryCapture {
    let mut windows = WindowedRegistry::new(cfg.window);
    let mut log = EventLog::new();
    let span = |batch: usize| format!("b{batch}");
    let deadline = report.config.resilience.deadline;
    // Last sampled pool (hits, misses), for windowed deltas.
    let mut pool_sampled = (0, 0);
    for entry in transitions {
        match *entry {
            Transition::Admit { t, job, depth } => {
                log.push(Event::new("admit", t).job(job as u64));
                windows.observe(QUEUE_DEPTH_SERIES, &[], t, depth as f64);
                windows.add(WINDOW_ADMITS, &[], t, 1);
            }
            Transition::Reject(ref r) => {
                log.push(
                    Event::new("reject", r.arrival)
                        .job(r.id as u64)
                        .detail("retry_after_us", json::num(r.retry_after * 1e6)),
                );
                windows.add(WINDOW_DROPS, &[("reason", "reject")], r.arrival, 1);
            }
            Transition::Shed(ref s) => {
                log.push(
                    Event::new("shed", s.arrival)
                        .job(s.id as u64)
                        .detail("reason", json::escape(s.reason))
                        .detail("retry_after_us", json::num(s.retry_after * 1e6)),
                );
                windows.add(WINDOW_DROPS, &[("reason", "shed")], s.arrival, 1);
            }
            Transition::Fail(ref f) => {
                log.push(
                    Event::new("fail", f.time)
                        .job(f.id as u64)
                        .attempt(f.attempts)
                        .detail("reason", json::escape(f.reason)),
                );
                windows.add(WINDOW_DROPS, &[("reason", "fail")], f.time, 1);
            }
            Transition::Retry { t, job, attempt, backoff } => {
                log.push(
                    Event::new("retry", t)
                        .job(job as u64)
                        .attempt(attempt)
                        .detail("backoff_us", json::num(backoff * 1e6)),
                );
                windows.add(WINDOW_RETRIES, &[], t, 1);
                windows.observe(RETRY_BACKOFF_SERIES, &[], t, backoff);
            }
            Transition::Reroute { t, stream } => {
                log.push(Event::new("breaker_reroute", t).stream(stream));
            }
            Transition::Dispatch {
                t, batch, stream, jobs, depth, h2d, compute, d2h, pool, ..
            } => {
                log.push(
                    Event::new("dispatch", t)
                        .stream(stream)
                        .span(&span(batch))
                        .detail("jobs", jobs.to_string()),
                );
                windows.observe(QUEUE_DEPTH_SERIES, &[], t, depth as f64);
                windows.observe(STAGE_SERIES, &[("stage", "h2d")], t, h2d);
                windows.observe(STAGE_SERIES, &[("stage", "compute")], t, compute);
                windows.observe(STAGE_SERIES, &[("stage", "d2h")], t, d2h);
                windows.add(WINDOW_POOL_HITS, &[], t, pool.0.saturating_sub(pool_sampled.0));
                windows.add(WINDOW_POOL_MISSES, &[], t, pool.1.saturating_sub(pool_sampled.1));
                pool_sampled = pool;
            }
            Transition::Stall { t, stream, batch, duration } => {
                log.push(
                    Event::new("stall", t)
                        .stream(stream)
                        .span(&span(batch))
                        .detail("stall_us", json::num(duration * 1e6)),
                );
            }
            Transition::Complete(ref j) => {
                let (end, latency) = (j.completed, j.latency());
                let miss = deadline.is_some_and(|d| latency > d);
                log.push(
                    Event::new("complete", end)
                        .job(j.id as u64)
                        .stream(j.stream)
                        .attempt(j.retries)
                        .span(&span(j.batch))
                        .detail("latency_us", json::num(latency * 1e6))
                        .detail("deadline_miss", miss.to_string()),
                );
                windows.observe(LATENCY_SERIES, &[("stage", "total")], end, latency);
                let queue = j.dispatched - j.arrival;
                windows.observe(LATENCY_SERIES, &[("stage", "queue")], end, queue);
                windows.observe(LATENCY_SERIES, &[("stage", "service")], end, end - j.dispatched);
                let s = j.stream.to_string();
                windows.observe(STREAM_LATENCY_SERIES, &[("stream", &s)], end, latency);
                windows.add(WINDOW_COMPLETIONS, &[], end, 1);
            }
            Transition::DeviceLoss { t, recovery, aborted } => {
                let recovery_us = recovery.map_or("null".to_string(), |r| json::num(r * 1e6));
                let loss = Event::new("device_loss", t).detail("aborted", aborted.to_string());
                log.push(loss.detail("recovery_us", recovery_us));
                if let Some(r) = recovery {
                    log.push(Event::new("device_recover", r));
                }
            }
        }
    }

    let width = cfg.window;
    // Engine busy time per window, from the stream clock hook. Stored
    // as integer nanoseconds so windowed merges stay exact u64 sums.
    for (w, busy) in sim.busy_by_window(OpClass::Compute, width) {
        let t = (w as f64 + 0.5) * width;
        windows.add(WINDOW_COMPUTE_BUSY, &[], t, (busy * 1e9).round() as u64);
    }
    for class in [OpClass::CopyH2D, OpClass::CopyD2H] {
        for (w, busy) in sim.busy_by_window(class, width) {
            let t = (w as f64 + 0.5) * width;
            windows.add(WINDOW_COPY_BUSY, &[], t, (busy * 1e9).round() as u64);
        }
    }

    let alerts_cfg = cfg.alerts;
    let base_seq = log.len() as u64;
    let sorted = log.into_sorted();

    let mut fast =
        BurnTracker::new(alerts_cfg.objective, alerts_cfg.fast_window, alerts_cfg.fast_burn);
    let mut slow =
        BurnTracker::new(alerts_cfg.objective, alerts_cfg.slow_window, alerts_cfg.slow_burn);
    let mut avail_alerting = false;
    let mut reroutes: VecDeque<f64> = VecDeque::new();
    let mut breaker_alerting = false;

    let mut out: Vec<Event> = Vec::with_capacity(sorted.len());
    let mut alert_seqs: Vec<u64> = Vec::new();
    let mut next_seq = base_seq;
    let mut fire = |out: &mut Vec<Event>, seqs: &mut Vec<u64>, mut ev: Event| {
        ev.seq = next_seq;
        next_seq += 1;
        seqs.push(ev.seq);
        out.push(ev);
    };

    for ev in sorted {
        let t = ev.t;
        // An SLO outcome: did the service do right by this request?
        // Completions count as good unless they blew their deadline;
        // rejects, sheds, and permanent failures are burned budget.
        let outcome = match ev.kind.as_str() {
            "complete" => Some(!ev.detail.iter().any(|(k, v)| k == "deadline_miss" && v == "true")),
            "reject" | "shed" | "fail" => Some(false),
            _ => None,
        };
        let is_reroute = ev.kind == "breaker_reroute";
        out.push(ev);

        if let Some(good) = outcome {
            if let Some(burn) = fast.push(t, good) {
                fire(
                    &mut out,
                    &mut alert_seqs,
                    Event::new("alert.burn_fast", t)
                        .detail("burn", json::num(burn))
                        .detail("window_us", json::num(alerts_cfg.fast_window * 1e6)),
                );
            }
            if let Some(burn) = slow.push(t, good) {
                fire(
                    &mut out,
                    &mut alert_seqs,
                    Event::new("alert.burn_slow", t)
                        .detail("burn", json::num(burn))
                        .detail("window_us", json::num(alerts_cfg.slow_window * 1e6)),
                );
            }
            let availability = slow.availability();
            if slow.in_window() >= 8 && availability < alerts_cfg.availability_floor {
                if !avail_alerting {
                    avail_alerting = true;
                    fire(
                        &mut out,
                        &mut alert_seqs,
                        Event::new("alert.availability_dip", t)
                            .detail("availability", json::num(availability))
                            .detail("floor", json::num(alerts_cfg.availability_floor)),
                    );
                }
            } else {
                avail_alerting = false;
            }
        }

        if is_reroute {
            reroutes.push_back(t);
            while reroutes.front().is_some_and(|&t0| t0 < t - alerts_cfg.fast_window) {
                reroutes.pop_front();
            }
            if reroutes.len() as u64 >= alerts_cfg.breaker_reroutes {
                if !breaker_alerting {
                    breaker_alerting = true;
                    fire(
                        &mut out,
                        &mut alert_seqs,
                        Event::new("alert.breaker_open", t)
                            .detail("reroutes_in_window", reroutes.len().to_string())
                            .detail("window_us", json::num(alerts_cfg.fast_window * 1e6)),
                    );
                }
            } else {
                breaker_alerting = false;
            }
        }
    }

    let mut recorder = FlightRecorder::new(cfg.flight_capacity);
    for ev in &out {
        recorder.note(ev);
    }
    let dumps = recorder.dumps().to_vec();

    TelemetryCapture {
        workload: report.workload.clone(),
        device: report.device.to_string(),
        digest: report.digest(),
        cfg,
        windows_json: windows.to_json(),
        events: out,
        alert_seqs,
        dumps,
    }
}

/// A finalized telemetry capture, attached to
/// [`crate::ServeReport::telemetry`].
#[derive(Debug, Clone)]
pub struct TelemetryCapture {
    /// Workload name.
    pub workload: String,
    /// Device preset name.
    pub device: String,
    /// The replay's job-output digest (ties telemetry to the run).
    pub digest: u32,
    /// Capture configuration echo.
    pub cfg: TelemetryConfig,
    /// Rendered `windows.json` document.
    pub windows_json: String,
    /// Chronological event stream, alerts spliced in.
    pub events: Vec<Event>,
    /// Sequence numbers of the alert events.
    pub alert_seqs: Vec<u64>,
    /// One flight-recorder dump per alert.
    pub dumps: Vec<FlightDump>,
}

impl TelemetryCapture {
    /// The `events.jsonl` document.
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// The `meta.json` document.
    pub fn meta_json(&self) -> String {
        let a = self.cfg.alerts;
        let alerts = Obj::compact()
            .num("objective", a.objective)
            .num("fast_window_us", a.fast_window * 1e6)
            .num("fast_burn", a.fast_burn)
            .num("slow_window_us", a.slow_window * 1e6)
            .num("slow_burn", a.slow_burn)
            .num("availability_floor", a.availability_floor)
            .raw("breaker_reroutes", a.breaker_reroutes)
            .finish();
        Obj::compact()
            .raw("v", SCHEMA_VERSION)
            .str("workload", &self.workload)
            .str("device", &self.device)
            .str("digest", &format!("0x{:08x}", self.digest))
            .num("window_us", self.cfg.window * 1e6)
            .raw("flight_capacity", self.cfg.flight_capacity)
            .raw("alerts", alerts)
            .raw("events", self.events.len())
            .raw("alert_seqs", json::list(Layout::Compact, &self.alert_seqs))
            .raw("dumps", self.dumps.len())
            .finish()
            + "\n"
    }

    /// Write the telemetry directory: `meta.json`, `windows.json`,
    /// `events.jsonl`, and one `flight/dump-<seq>.jsonl` per alert.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<()> {
        let flight = dir.join("flight");
        std::fs::create_dir_all(&flight)?;
        std::fs::write(dir.join("meta.json"), self.meta_json())?;
        std::fs::write(dir.join("windows.json"), &self.windows_json)?;
        std::fs::write(dir.join("events.jsonl"), self.events_jsonl())?;
        for d in &self.dumps {
            std::fs::write(flight.join(format!("dump-{:06}.jsonl", d.alert_seq)), d.to_jsonl())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The `fzgpu report` dashboard renderer
// ---------------------------------------------------------------------------

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Sparkline over per-window values, scaled to the series max; zero
/// windows render as `·`.
fn sparkline(vals: &[f64]) -> String {
    let max = vals.iter().copied().fold(0.0, f64::max);
    vals.iter()
        .map(|&v| {
            if v <= 0.0 || max <= 0.0 {
                '·'
            } else {
                let idx = ((v / max) * SPARK.len() as f64).ceil() as usize;
                SPARK[idx.clamp(1, SPARK.len()) - 1]
            }
        })
        .collect()
}

/// Per-window f64 values for one series, densified over `0..n` windows.
struct Series {
    values: Vec<f64>,
}

impl Series {
    fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

fn parse_windows(
    doc: &json::Value,
    n_windows: usize,
) -> Result<Vec<(String, String, String, Series)>, String> {
    let series = doc
        .get("series")
        .and_then(json::Value::as_array)
        .ok_or_else(|| "windows.json: missing series".to_string())?;
    let mut out = Vec::new();
    for s in series {
        let name = s
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| "series missing name".to_string())?
            .to_string();
        let labels = s.get("labels").and_then(json::Value::as_str).unwrap_or("").to_string();
        let kind = s.get("kind").and_then(json::Value::as_str).unwrap_or("").to_string();
        let windows =
            s.get("windows").and_then(json::Value::as_array).ok_or("series missing windows")?;
        let mut values = vec![0.0; n_windows];
        for w in windows {
            let idx = w.get("w").and_then(json::Value::as_f64).unwrap_or(0.0) as usize;
            let v = if kind == "count" {
                w.get("value").and_then(json::Value::as_f64).unwrap_or(0.0)
            } else {
                // Histogram windows render as their p99 (bucket upper
                // bound, nearest rank over the sparse bucket counts).
                let count = w.get("count").and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
                let rank = ((0.99 * count as f64) - 1e-9).ceil().max(1.0) as u64;
                let mut seen = 0u64;
                let mut q = 0.0;
                if let Some(buckets) = w.get("buckets").and_then(json::Value::as_array) {
                    for pair in buckets {
                        let Some(p) = pair.as_array() else { continue };
                        if p.len() != 2 {
                            continue;
                        }
                        let b = p[0].as_f64().unwrap_or(0.0) as usize;
                        seen += p[1].as_f64().unwrap_or(0.0) as u64;
                        if seen >= rank {
                            q = hist_bucket_upper(b);
                            break;
                        }
                    }
                }
                q
            };
            if idx < n_windows {
                values[idx] = v;
            }
        }
        out.push((name, labels, kind, Series { values }));
    }
    Ok(out)
}

/// A parsed `complete` event row for the top-k table.
struct SlowJob {
    job: u64,
    latency_us: f64,
    stream: u64,
    attempt: u64,
    span: String,
}

/// Render the text dashboard for a telemetry directory written by
/// [`TelemetryCapture::write_dir`]: run identity, per-window sparkline
/// tables, top-k slow jobs with their Chrome-trace span links, and the
/// alert timeline with flight-dump pointers.
pub fn render_report(dir: &Path) -> Result<String, String> {
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };
    let meta = json::parse(&read("meta.json")?).map_err(|e| format!("meta.json: {e}"))?;
    let windows_doc =
        json::parse(&read("windows.json")?).map_err(|e| format!("windows.json: {e}"))?;
    let events_text = read("events.jsonl")?;

    let workload = meta.get("workload").and_then(json::Value::as_str).unwrap_or("?");
    let device = meta.get("device").and_then(json::Value::as_str).unwrap_or("?");
    let digest = meta.get("digest").and_then(json::Value::as_str).unwrap_or("?");
    let window_us = meta.get("window_us").and_then(json::Value::as_f64).unwrap_or(0.0);
    let n_events = meta.get("events").and_then(json::Value::as_f64).unwrap_or(0.0) as usize;
    let n_dumps = meta.get("dumps").and_then(json::Value::as_f64).unwrap_or(0.0) as usize;

    // Parse events; alerts and completions drive the lower panels.
    let mut slow: Vec<SlowJob> = Vec::new();
    let mut alerts: Vec<(f64, u64, String, String)> = Vec::new();
    let mut max_t = 0.0f64;
    for line in events_text.lines().filter(|l| !l.is_empty()) {
        let ev = json::parse(line).map_err(|e| format!("events.jsonl: {e}"))?;
        let t = ev.get("t_us").and_then(json::Value::as_f64).unwrap_or(0.0);
        max_t = max_t.max(t);
        let kind = ev.get("kind").and_then(json::Value::as_str).unwrap_or("");
        if kind == "complete" {
            slow.push(SlowJob {
                job: ev.get("job").and_then(json::Value::as_f64).unwrap_or(0.0) as u64,
                latency_us: ev.get("latency_us").and_then(json::Value::as_f64).unwrap_or(0.0),
                stream: ev.get("stream").and_then(json::Value::as_f64).unwrap_or(0.0) as u64,
                attempt: ev.get("attempt").and_then(json::Value::as_f64).unwrap_or(0.0) as u64,
                span: ev.get("span").and_then(json::Value::as_str).unwrap_or("?").to_string(),
            });
        } else if kind.starts_with("alert.") {
            let seq = ev.get("seq").and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
            let detail = ["burn", "availability", "reroutes_in_window"]
                .iter()
                .find_map(|k| ev.get(k).and_then(json::Value::as_f64).map(|v| format!("{k}={v}")))
                .unwrap_or_default();
            alerts.push((t, seq, kind.to_string(), detail));
        }
    }

    let n_windows = if window_us > 0.0 { (max_t / window_us).floor() as usize + 1 } else { 1 };
    let series = parse_windows(&windows_doc, n_windows)?;

    let mut out = String::new();
    out.push_str(&format!("telemetry report: {workload} on {device} (digest {digest})\n"));
    out.push_str(&format!(
        "schema v{}; {} windows x {:.1} us; {} events, {} alerts, {} flight dumps\n\n",
        SCHEMA_VERSION,
        n_windows,
        window_us,
        n_events,
        alerts.len(),
        n_dumps
    ));

    out.push_str("per-window activity (each column is one window):\n");
    let row = |out: &mut String, label: &str, s: &Series, unit: &str, scale: f64| {
        out.push_str(&format!(
            "  {label:<22} {}  max {:.2}{unit}\n",
            sparkline(&s.values),
            s.max() * scale
        ));
    };
    let find = |name: &str, labels: &str| {
        series.iter().find(|(n, l, _, _)| n == name && l == labels).map(|(_, _, _, s)| s)
    };
    if let Some(s) = find(WINDOW_ADMITS, "") {
        row(&mut out, "admissions", s, " jobs", 1.0);
    }
    if let Some(s) = find(WINDOW_COMPLETIONS, "") {
        row(&mut out, "completions", s, " jobs", 1.0);
    }
    for reason in ["reject", "shed", "fail"] {
        if let Some(s) = find(WINDOW_DROPS, &format!("reason={reason}")) {
            row(&mut out, &format!("drops ({reason})"), s, " jobs", 1.0);
        }
    }
    if let Some(s) = find(WINDOW_RETRIES, "") {
        row(&mut out, "retries", s, "", 1.0);
    }
    if let Some(s) = find(QUEUE_DEPTH_SERIES, "") {
        row(&mut out, "queue depth p99", s, "", 1.0);
    }
    if let Some(s) = find(LATENCY_SERIES, "stage=total") {
        row(&mut out, "latency p99", s, " us", 1e6);
    }
    if let Some(s) = find(LATENCY_SERIES, "stage=queue") {
        row(&mut out, "queue wait p99", s, " us", 1e6);
    }
    for (name, labels, _, s) in series.iter().filter(|(n, _, _, _)| n == STREAM_LATENCY_SERIES) {
        let _ = name;
        row(&mut out, &format!("latency p99 [{labels}]"), s, " us", 1e6);
    }
    for busy in [(WINDOW_COMPUTE_BUSY, "compute busy"), (WINDOW_COPY_BUSY, "copy busy")] {
        if let Some(s) = find(busy.0, "") {
            // Busy nanoseconds over the window width → percent utilization.
            let pct =
                Series { values: s.values.iter().map(|v| v / (window_us * 1e3) * 100.0).collect() };
            row(&mut out, busy.1, &pct, " %", 1.0);
        }
    }

    // Top-k slow jobs: latency descending, job id ascending on ties.
    slow.sort_by(|a, b| b.latency_us.total_cmp(&a.latency_us).then(a.job.cmp(&b.job)));
    out.push_str("\ntop slow jobs (exemplars; span = Chrome-trace op family):\n");
    if slow.is_empty() {
        out.push_str("  (no completed jobs)\n");
    }
    for j in slow.iter().take(5) {
        out.push_str(&format!(
            "  job {:<5} latency {:>10.2} us  stream {}  attempt {}  span {}\n",
            j.job, j.latency_us, j.stream, j.attempt, j.span
        ));
    }

    out.push_str("\nalert timeline:\n");
    if alerts.is_empty() {
        out.push_str("  (no alerts fired)\n");
    }
    for (t, seq, kind, detail) in &alerts {
        out.push_str(&format!(
            "  [t={t:>10.1} us] {kind} (seq {seq}){}{}  -> flight/dump-{seq:06}.jsonl\n",
            if detail.is_empty() { "" } else { " " },
            detail
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::Failed;
    use crate::service::{JobResult, Rejection};
    use crate::{Op, ServeConfig, Service, Workload};
    use fzgpu_sim::device::A100;

    /// The report of an empty replay named `name` (identity fields only).
    fn empty_report(name: &str) -> ServeReport {
        let w = Workload { name: name.into(), device: A100, requests: Vec::new() };
        Service::new(ServeConfig::default()).run(&w)
    }

    /// Job `id`, arrived at 0, dispatched and completed at the given times.
    fn complete(id: usize, dispatched: f64, completed: f64) -> Transition {
        Transition::Complete(JobResult {
            id,
            op: Op::Compress,
            n: 64,
            arrival: 0.0,
            admitted: 0.0,
            dispatched,
            completed,
            bytes_in: 256,
            bytes_out: 64,
            digest: 0,
            stream: 0,
            batch: 0,
            batch_size: 1,
            retries: 0,
            host_seconds: 0.0,
        })
    }

    #[test]
    fn capture_sorts_and_alerts() {
        // Out-of-order log: a completion recorded before an earlier
        // admission (as happens with batched dispatch).
        let mut log =
            vec![complete(0, 100e-6, 300e-6), Transition::Admit { t: 0.0, job: 0, depth: 1 }];
        for i in 1..6 {
            let time = 310e-6 + i as f64 * 1e-6;
            let reason = "faults";
            log.push(Transition::Fail(Failed { id: i, arrival: 0.0, time, attempts: 1, reason }));
        }
        let sim = StreamSim::new(&A100, 1);
        let cap = capture(TelemetryConfig::default(), &log, &sim, &empty_report("w"));
        let ts: Vec<f64> = cap.events.iter().map(|e| e.t).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events must be chronological: {ts:?}");
        assert!(!cap.alert_seqs.is_empty(), "five failures must burn the budget");
        assert_eq!(cap.dumps.len(), cap.alert_seqs.len(), "every alert snapshots the ring");
        // Alert seqs continue after the base event numbering.
        assert!(cap.alert_seqs.iter().all(|&s| s >= 7));
    }

    #[test]
    fn capture_roundtrips_through_dir_and_report() {
        let mut log = vec![
            Transition::Admit { t: 0.0, job: 0, depth: 1 },
            Transition::Dispatch {
                t: 10e-6,
                batch: 0,
                stream: 0,
                jobs: 1,
                depth: 0,
                h2d: 1e-6,
                compute: 5e-6,
                d2h: 1e-6,
                saved: 0.0,
                pool: (0, 0),
            },
            complete(0, 10e-6, 20e-6),
        ];
        for i in 1..9 {
            let arrival = 21e-6 + i as f64 * 1e-6;
            log.push(Transition::Reject(Rejection { id: i, arrival, retry_after: 5e-6 }));
        }
        let sim = StreamSim::new(&A100, 1);
        let cap = capture(TelemetryConfig::default(), &log, &sim, &empty_report("roundtrip"));
        let dir = std::env::temp_dir().join(format!("fzgpu_tel_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cap.write_dir(&dir).expect("write telemetry dir");
        let report = render_report(&dir).expect("render report");
        assert!(report.contains("telemetry report: roundtrip on A100"), "{report}");
        assert!(report.contains("alert timeline:"), "{report}");
        assert!(report.contains("job 0"), "{report}");
        // The rejections must have fired a burn alert with a dump on disk.
        assert!(report.contains("alert.burn_fast"), "{report}");
        let dumps: Vec<_> = std::fs::read_dir(dir.join("flight")).unwrap().collect();
        assert!(!dumps.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
