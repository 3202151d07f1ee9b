//! Global metrics registry: counters, gauges, and histograms with
//! deterministic Prometheus-style text exposition and a JSON export.
//!
//! # Determinism classes
//!
//! Every metric declares a [`Class`]:
//!
//! * [`Class::Det`] — a pure function of the input and pipeline
//!   configuration: bytes in/out, compression ratio, kernel launches,
//!   retries, modeled (analytic) seconds. These are bit-identical at any
//!   thread count and across machines.
//! * [`Class::Wall`] — anything touching real time or scheduling:
//!   measured host durations, pool steals. Excluded from the default
//!   exposition so `fzgpu stats` output is byte-identical across
//!   `FZGPU_THREADS` values; opt in with `include_wall`.
//!
//! Exposition renders families sorted by name (then label set), so output
//! bytes depend only on registry contents, never insertion order.
//!
//! # Naming
//!
//! Workspace metric families follow `fzgpu_<crate>_<noun>` (e.g.
//! `fzgpu_sim_kernel_launches_total`, `fzgpu_serve_retries_total`) and are
//! listed in the help table (see [`help_of`]), which supplies the `# HELP`
//! line emitted ahead of `# TYPE`/`# CLASS` for each known family.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::json::{self, Layout, Obj};

/// Determinism class of a metric; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Deterministic: identical at any thread count, on any machine.
    Det,
    /// Wallclock/schedule-dependent: excluded from default exposition.
    Wall,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Det => "det",
            Class::Wall => "wall",
        }
    }
}

/// Histogram bucket upper bounds, seconds-oriented log scale. Fixed so
/// exposition is stable across runs and versions.
const BUCKETS: [f64; 12] = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4];

#[derive(Debug, Clone)]
struct Hist {
    counts: [u64; BUCKETS.len()],
    sum: f64,
    count: u64,
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Hist>),
}

#[derive(Debug, Clone)]
struct Metric {
    class: Class,
    value: MetricValue,
}

impl MetricValue {
    fn type_label(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Registry key: metric name + rendered label pairs (both sorted-stable).
type Key = (String, String);

fn registry() -> &'static Mutex<BTreeMap<Key, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<Key, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<Key, Metric>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Render label pairs as Prometheus inner text: `k1="v1",k2="v2"`.
/// Empty for no labels. Values escape `\`, `"` and newlines per the
/// exposition format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    parts.sort();
    parts.join(",")
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    (name.to_string(), render_labels(labels))
}

/// Add `v` to a monotonically increasing counter.
pub fn counter_add(class: Class, name: &str, labels: &[(&str, &str)], v: u64) {
    let mut reg = lock();
    let m = reg
        .entry(key(name, labels))
        .or_insert_with(|| Metric { class, value: MetricValue::Counter(0) });
    if let MetricValue::Counter(c) = &mut m.value {
        *c += v;
    }
}

/// Set a gauge to `v`.
pub fn gauge_set(class: Class, name: &str, labels: &[(&str, &str)], v: f64) {
    let mut reg = lock();
    let m = reg
        .entry(key(name, labels))
        .or_insert_with(|| Metric { class, value: MetricValue::Gauge(0.0) });
    if let MetricValue::Gauge(g) = &mut m.value {
        *g = v;
    }
}

/// Add `v` to a gauge (accumulating, e.g. modeled seconds).
pub fn gauge_add(class: Class, name: &str, labels: &[(&str, &str)], v: f64) {
    let mut reg = lock();
    let m = reg
        .entry(key(name, labels))
        .or_insert_with(|| Metric { class, value: MetricValue::Gauge(0.0) });
    if let MetricValue::Gauge(g) = &mut m.value {
        *g += v;
    }
}

/// Record an observation into a histogram (fixed log-scale buckets).
pub fn observe(class: Class, name: &str, labels: &[(&str, &str)], v: f64) {
    let mut reg = lock();
    let m = reg.entry(key(name, labels)).or_insert_with(|| Metric {
        class,
        value: MetricValue::Histogram(Box::new(Hist {
            counts: [0; BUCKETS.len()],
            sum: 0.0,
            count: 0,
        })),
    });
    if let MetricValue::Histogram(h) = &mut m.value {
        for (i, bound) in BUCKETS.iter().enumerate() {
            if v <= *bound {
                h.counts[i] += 1;
            }
        }
        h.sum += v;
        h.count += 1;
    }
}

/// Clear the registry. Tests and single-command CLI runs use this to
/// scope metrics to one operation.
pub fn reset() {
    lock().clear();
}

/// Read a counter's value; 0 if absent or not a counter.
pub fn counter_value(name: &str, labels: &[(&str, &str)]) -> u64 {
    match lock().get(&key(name, labels)).map(|m| m.value.clone()) {
        Some(MetricValue::Counter(c)) => c,
        _ => 0,
    }
}

/// Read a gauge's value; 0.0 if absent or not a gauge.
pub fn gauge_value(name: &str, labels: &[(&str, &str)]) -> f64 {
    match lock().get(&key(name, labels)).map(|m| m.value.clone()) {
        Some(MetricValue::Gauge(g)) => g,
        _ => 0.0,
    }
}

fn le_token(bound: f64) -> String {
    format!("{bound:e}")
}

/// Help strings for the workspace's metric families, keyed by full name
/// (sorted). Names follow the `fzgpu_<crate>_<noun>` convention; the
/// table is the authoritative list of registered families. Exposition
/// emits a `# HELP` line only for names found here, so ad-hoc metrics
/// (and test fixtures) render without one.
const HELP: &[(&str, &str)] = &[
    ("fzgpu_core_archive_chunks_total", "Chunks written into multi-field archives."),
    ("fzgpu_core_bytes_in_total", "Uncompressed bytes fed into the compressor."),
    ("fzgpu_core_bytes_out_total", "Compressed bytes produced."),
    ("fzgpu_core_compress_calls_total", "Compression pipeline invocations."),
    ("fzgpu_core_compression_ratio_last", "Compression ratio of the most recent call."),
    ("fzgpu_core_crc_failures_total", "CRC mismatches detected while decoding, by section."),
    ("fzgpu_core_decompress_calls_total", "Decompression pipeline invocations."),
    ("fzgpu_core_host_seconds", "Measured host wall-clock seconds, by op."),
    (
        "fzgpu_core_native_downgrade_total",
        "Native fast-path requests downgraded to the simulated path under fault injection.",
    ),
    ("fzgpu_pool_chunks_total", "Work chunks executed by the thread pool."),
    ("fzgpu_pool_regions_total", "Parallel regions entered on the thread pool."),
    ("fzgpu_pool_steals_total", "Chunks executed by a worker other than the submitter."),
    ("fzgpu_serve_aborted_total", "Jobs aborted mid-flight by a device loss."),
    ("fzgpu_serve_batches_total", "Batches dispatched to the modeled device."),
    ("fzgpu_serve_breaker_reroutes_total", "Dispatches rerouted off a breaker-open stream."),
    ("fzgpu_serve_deadline_missed_total", "Completed jobs that finished past their deadline."),
    ("fzgpu_serve_device_loss_total", "Modeled device-loss faults applied."),
    ("fzgpu_serve_failed_total", "Jobs permanently failed, by reason."),
    ("fzgpu_serve_fused_saved_seconds", "Modeled seconds saved by batch fusion."),
    ("fzgpu_serve_host_seconds", "Measured host wall-clock seconds spent serving."),
    ("fzgpu_serve_jobs_total", "Jobs completed, by op."),
    ("fzgpu_serve_makespan_seconds", "Modeled makespan of the serviced workload."),
    ("fzgpu_serve_rejected_total", "Jobs rejected at admission (queue full)."),
    ("fzgpu_serve_retries_total", "Job retry attempts scheduled."),
    ("fzgpu_serve_shed_total", "Jobs shed by admission control, by reason."),
    ("fzgpu_serve_stalls_total", "Injected stream stalls."),
    ("fzgpu_sim_d2h_bytes_total", "Bytes copied device-to-host in the modeled pipeline."),
    ("fzgpu_sim_h2d_bytes_total", "Bytes copied host-to-device in the modeled pipeline."),
    ("fzgpu_sim_kernel_launches_total", "Modeled kernel launches."),
    ("fzgpu_sim_kernel_seconds_total", "Modeled kernel-execution seconds."),
    ("fzgpu_sim_launch_retries_total", "Modeled kernel launches retried after a transient fault."),
    (
        "fzgpu_sim_mempool_frag_misses_total",
        "Pool misses caused by fragmentation rather than capacity.",
    ),
    ("fzgpu_sim_mempool_high_water_bytes", "High-water mark of live pool bytes."),
    ("fzgpu_sim_mempool_hits_total", "Device memory pool allocations served from the free list."),
    ("fzgpu_sim_mempool_misses_total", "Device memory pool allocations that grew the pool."),
    ("fzgpu_sim_mempool_releases_total", "Chunks returned to the pool free list."),
    ("fzgpu_sim_transfer_seconds_total", "Modeled PCIe transfer seconds, both directions."),
    ("fzgpu_store_backend_reads_total", "Storage backend range-read requests, by backend kind."),
    ("fzgpu_store_backend_writes_total", "Storage backend object writes, by backend kind."),
    ("fzgpu_store_bytes_read_total", "Bytes fetched from storage backends, by backend kind."),
    ("fzgpu_store_bytes_written_total", "Bytes written to storage backends, by backend kind."),
    ("fzgpu_store_chunks_decoded_total", "Chunks decoded by store region reads."),
    ("fzgpu_store_reads_total", "Store region-read requests served."),
    ("fzgpu_store_shards_touched_total", "Shard indexes fetched by store region reads."),
    ("fzgpu_store_values_read_total", "Values returned by store region reads."),
];

/// Help string for a metric family, if it is a registered workspace name.
pub fn help_of(name: &str) -> Option<&'static str> {
    HELP.binary_search_by_key(&name, |(n, _)| n).ok().map(|i| HELP[i].1)
}

/// Prometheus-style text exposition. Deterministic: families sorted by
/// name, then label set. `include_wall = false` (the default surface)
/// emits only [`Class::Det`] metrics, making the bytes identical at any
/// thread count.
pub fn exposition(include_wall: bool) -> String {
    let reg = lock();
    let mut out = String::new();
    let mut last_family = "";
    for ((name, labels), m) in reg.iter() {
        if m.class == Class::Wall && !include_wall {
            continue;
        }
        if name != last_family {
            if let Some(help) = help_of(name) {
                out.push_str(&format!("# HELP {name} {help}\n"));
            }
            out.push_str(&format!(
                "# TYPE {name} {}\n# CLASS {name} {}\n",
                m.value.type_label(),
                m.class.label()
            ));
        }
        match &m.value {
            MetricValue::Counter(c) => {
                out.push_str(&render_sample(name, labels, &c.to_string()));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&render_sample(name, labels, &json::num(*g)));
            }
            MetricValue::Histogram(h) => {
                // Counts are cumulative by construction: `observe`
                // increments every bucket whose bound covers the value.
                for (i, bound) in BUCKETS.iter().enumerate() {
                    let le = le_token(*bound);
                    let with_le = if labels.is_empty() {
                        format!("le=\"{le}\"")
                    } else {
                        format!("{labels},le=\"{le}\"")
                    };
                    out.push_str(&render_sample(
                        &format!("{name}_bucket"),
                        &with_le,
                        &h.counts[i].to_string(),
                    ));
                }
                let inf = if labels.is_empty() {
                    "le=\"+Inf\"".to_string()
                } else {
                    format!("{labels},le=\"+Inf\"")
                };
                out.push_str(&render_sample(&format!("{name}_bucket"), &inf, &h.count.to_string()));
                out.push_str(&render_sample(&format!("{name}_sum"), labels, &json::num(h.sum)));
                out.push_str(&render_sample(
                    &format!("{name}_count"),
                    labels,
                    &h.count.to_string(),
                ));
            }
        }
        last_family = name;
    }
    out
}

fn render_sample(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

/// JSON export of the registry: an array of metric objects, same ordering
/// and filtering rules as [`exposition`].
pub fn to_json(include_wall: bool) -> String {
    let reg = lock();
    let mut items = Vec::new();
    for ((name, labels), m) in reg.iter() {
        if m.class == Class::Wall && !include_wall {
            continue;
        }
        let o = Obj::compact()
            .str("name", name)
            .str("labels", labels)
            .str("type", m.value.type_label())
            .str("class", m.class.label());
        items.push(
            match &m.value {
                MetricValue::Counter(c) => o.raw("value", c),
                MetricValue::Gauge(g) => o.num("value", *g),
                MetricValue::Histogram(h) => {
                    let buckets = BUCKETS
                        .iter()
                        .zip(&h.counts)
                        .map(|(b, c)| json::list(Layout::Compact, [json::num(*b), c.to_string()]));
                    let buckets = json::list(Layout::Compact, buckets);
                    o.num("sum", h.sum).raw("count", h.count).raw("buckets", buckets)
                }
            }
            .finish(),
        );
    }
    Obj::compact().raw("metrics", json::list(Layout::Compact, items)).finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that reset it.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_and_expose_sorted() {
        let _g = gate();
        reset();
        counter_add(Class::Det, "zz_total", &[], 1);
        counter_add(Class::Det, "aa_total", &[("op", "x")], 2);
        counter_add(Class::Det, "aa_total", &[("op", "x")], 3);
        let text = exposition(false);
        assert_eq!(
            text,
            "# TYPE aa_total counter\n# CLASS aa_total det\naa_total{op=\"x\"} 5\n\
             # TYPE zz_total counter\n# CLASS zz_total det\nzz_total 1\n"
        );
        assert_eq!(counter_value("aa_total", &[("op", "x")]), 5);
    }

    #[test]
    fn wall_class_hidden_by_default() {
        let _g = gate();
        reset();
        counter_add(Class::Det, "det_total", &[], 1);
        counter_add(Class::Wall, "steals_total", &[], 9);
        let det_only = exposition(false);
        assert!(det_only.contains("det_total"));
        assert!(!det_only.contains("steals_total"));
        let all = exposition(true);
        assert!(all.contains("steals_total 9"));
    }

    #[test]
    fn gauges_set_and_add() {
        let _g = gate();
        reset();
        gauge_set(Class::Det, "ratio", &[], 4.5);
        gauge_set(Class::Det, "ratio", &[], 5.25);
        gauge_add(Class::Det, "seconds", &[], 0.5);
        gauge_add(Class::Det, "seconds", &[], 0.25);
        assert_eq!(gauge_value("ratio", &[]), 5.25);
        assert_eq!(gauge_value("seconds", &[]), 0.75);
        assert!(exposition(false).contains("ratio 5.25\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let _g = gate();
        reset();
        observe(Class::Det, "lat", &[("op", "c")], 5e-7); // <= 1e-6 and up
        observe(Class::Det, "lat", &[("op", "c")], 2.0); // <= 10 and up
        let text = exposition(false);
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{op=\"c\",le=\"1e-7\"} 0\n"), "{text}");
        assert!(text.contains("lat_bucket{op=\"c\",le=\"1e-6\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{op=\"c\",le=\"1e1\"} 2\n"), "{text}");
        assert!(text.contains("lat_bucket{op=\"c\",le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("lat_sum{op=\"c\"} 2.0000005\n"), "{text}");
        assert!(text.contains("lat_count{op=\"c\"} 2\n"), "{text}");
    }

    #[test]
    fn json_export_parses_back() {
        let _g = gate();
        reset();
        counter_add(Class::Det, "bytes_total", &[("dir", "in")], 1024);
        observe(Class::Det, "lat", &[], 0.5);
        let doc = crate::json::parse(&to_json(false)).unwrap();
        let metrics = doc.get("metrics").and_then(crate::json::Value::as_array).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[0].get("name").and_then(crate::json::Value::as_str),
            Some("bytes_total")
        );
        assert_eq!(metrics[0].get("value").and_then(crate::json::Value::as_f64), Some(1024.0));
        assert_eq!(metrics[1].get("count").and_then(crate::json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn help_table_is_sorted_and_emitted() {
        let _g = gate();
        for w in HELP.windows(2) {
            assert!(w[0].0 < w[1].0, "HELP table must stay sorted: {} >= {}", w[0].0, w[1].0);
        }
        reset();
        counter_add(Class::Det, "fzgpu_sim_kernel_launches_total", &[], 3);
        counter_add(Class::Det, "unknown_total", &[], 1);
        let text = exposition(false);
        assert!(
            text.contains(
                "# HELP fzgpu_sim_kernel_launches_total Modeled kernel launches.\n\
                 # TYPE fzgpu_sim_kernel_launches_total counter\n"
            ),
            "{text}"
        );
        assert!(!text.contains("# HELP unknown_total"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let _g = gate();
        reset();
        counter_add(Class::Det, "c_total", &[("k", "a\"b\\c")], 1);
        let text = exposition(false);
        assert!(text.contains("c_total{k=\"a\\\"b\\\\c\"} 1\n"), "{text}");
    }
}
