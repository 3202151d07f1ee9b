//! Metric names, units and the result line.
//!
//! The two lists here are the benchmark's contract with `BENCHMARK.json`:
//! an untraced run prints exactly [`end_to_end`], a traced run exactly
//! [`per_layer`]. `peak_rss_mb` is measured by the runner script (the
//! child's `ru_maxrss` from `wait4`) and spliced into the line it prints.

use std::collections::BTreeMap;

/// Modeled kernels reported one by one (never through the stage rollup,
/// which folds `decode.integrate_*` into "dequantize"). Launches of one
/// name are summed over compress and decompress; a kernel outside this
/// list lands in `kernel.other_*`.
pub const KERNELS: [&str; 14] = [
    "pred_quant_v2",
    "bitshuffle_mark_fused",
    "encode.widen_flags",
    "scan.tiles",
    "scan.add_offsets",
    "encode.compact",
    "decode.expand_flags",
    "decode.scatter",
    "decode.bit_unshuffle",
    "decode.codes_to_deltas",
    "decode.integrate_x",
    "decode.integrate_y",
    "decode.integrate_z",
    "decode.dequantize",
];

/// Layers whose summed self time the traced run reports as `self.<layer>_s`.
pub const LAYERS: [&str; 10] =
    ["bench", "host", "data", "fastpath", "lorenzo", "format", "crc", "sim", "store", "serve"];

/// `(name, unit)` of every end-to-end metric the binary prints.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("compress_memcpy_frac", "frac"),
        ("decompress_memcpy_frac", "frac"),
        ("ratio", "x"),
        ("modeled_compress_gbps", "GB/s"),
        ("modeled_decompress_gbps", "GB/s"),
        ("op_memcpy_frac", "frac"),
        ("modeled_op_p50_us", "modeled_us"),
        ("modeled_op_tail_us", "modeled_us"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// `(name, unit)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &'static str)] = &[
        ("data.gen_s", "s"),
        ("host.read_gbps", "GB/s"),
        ("host.memcpy_gbps", "GB/s"),
        ("host.array_mb", "MB"),
        ("host.llc_mb", "MB"),
        ("lorenzo.integrate_s", "s"),
        ("fastpath.compress_s", "s"),
        ("fastpath.decompress_s", "s"),
        ("fastpath.compress_2t_s", "s"),
        ("fastpath.decompress_2t_s", "s"),
        ("fastpath.compress_roofline_frac", "frac"),
        ("fastpath.decompress_roofline_frac", "frac"),
        ("pool.scaling_eff", "frac"),
        ("format.verify_s", "s"),
        ("crc.gbps", "GB/s"),
        ("sim.compress_wall_s", "s"),
        ("sim.decompress_wall_s", "s"),
        ("store.create_s", "s"),
        ("store.read_s", "s"),
        ("store.decode_s", "s"),
        ("store.copy_s", "s"),
        ("store.self_s", "s"),
        ("store.bytes_read", "B"),
        ("store.backend_reads", "count"),
        ("store.chunks_decoded", "count"),
        ("store.shards_touched", "count"),
        ("store.read_amplification", "x"),
        ("store.modeled_io_ms", "modeled_ms"),
        ("serve.run_s", "s"),
        ("serve.job_exec_s", "s"),
        ("serve.sched_self_s", "s"),
        ("serve.compute_utilization", "frac"),
        ("serve.batches", "count"),
        ("serve.pool_hit_rate", "frac"),
        ("serve.rejected", "count"),
        ("serve.jobs_per_s", "1/s"),
        ("serve.max_rate_jobs_per_ms", "1/modeled_ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in KERNELS.iter().chain(&["other"]) {
        out.push((format!("kernel.{k}_us"), "modeled_us"));
        out.push((format!("kernel.{k}_bytes"), "B"));
    }
    for l in LAYERS {
        out.push((format!("self.{l}_s"), "s"));
    }
    out
}

/// Metrics and correctness counts of one run.
pub struct Report {
    units: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Report {
    /// An empty report accepting the metrics of both lists.
    pub fn new() -> Self {
        let units = end_to_end().into_iter().chain(per_layer()).collect();
        Self { units, values: BTreeMap::new(), attempted: 0, failed: 0 }
    }

    /// Record a metric. Panics on a name outside both lists: a typo must
    /// fail the benchmark, never print an unlisted metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.units.contains_key(name), "metric {name} is not declared");
        self.values.insert(name.to_string(), value);
    }

    /// Count one operation or check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// The result line: every metric of `list`, which must all be set and
    /// finite. Values print with every digit (shortest round-trip form).
    pub fn result_line(&self, list: &[(String, &'static str)]) -> Result<String, String> {
        let mut items = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let v = *self.values.get(name).ok_or_else(|| format!("metric {name} was not set"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            items.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            items.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzgpu_trace::json::{parse, Value};

    /// Metrics the runner script adds to an untraced run's line.
    const RUNNER_METRICS: [(&str, &str); 1] = [("peak_rss_mb", "MB")];

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: Vec<(String, &str)>) -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let mut e2e = owned(end_to_end());
        e2e.extend(RUNNER_METRICS.iter().map(|&(n, u)| (n.to_string(), u.to_string())));
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        assert_eq!(declared(&doc, "per_layer"), owned(per_layer()));
    }

    #[test]
    fn result_line_is_json_with_every_listed_metric() {
        let mut r = Report::new();
        for (name, _) in end_to_end() {
            r.set(&name, 0.125);
        }
        r.check(true, "ok");
        let line = r.result_line(&end_to_end()).unwrap();
        let v = parse(&line).unwrap();
        assert!(matches!(v.get("correct"), Some(Value::Bool(true))));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("ratio").and_then(|x| x.get("unit")).and_then(Value::as_str), Some("x"));
        // A missing metric is an error, not a silent omission.
        assert!(Report::new().result_line(&end_to_end()).is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Report::new().set("no.such_metric", 1.0);
    }
}
