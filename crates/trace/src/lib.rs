//! `fzgpu-trace`: dependency-free structured tracing + metrics for the
//! FZ-GPU workspace.
//!
//! The pieces, shared by the simulator, the core pipeline, the thread
//! pool, the CLI, and the bench harness:
//!
//! * **Spans** ([`span`], [`event`], [`begin_capture`]/[`end_capture`],
//!   [`RegionCapture`]) — RAII host-side spans in real wallclock time,
//!   merged across pool workers in deterministic chunk order.
//! * **Metrics** ([`metrics`]) — a global registry of counters, gauges and
//!   histograms split into deterministic and wallclock classes, with
//!   Prometheus-style text exposition and JSON export.
//! * **Telemetry** ([`telemetry`]) — deterministic windowed histograms,
//!   a versioned structured event log, SLO burn-rate tracking, and a
//!   bounded flight recorder, all keyed on modeled time.
//! * **Writers** ([`json`], [`chrome`]) — the workspace's one JSON writer
//!   ([`json::Obj`] and [`json::list`]), through which every report,
//!   capture, store meta and bench file is written; a small parser for
//!   reading baselines back; and a Chrome Trace Event Format builder.
//! * **Command lines** ([`cli`]) — the one flag grammar every binary
//!   parses argv with, read off the binary's `USAGE` text.
//!
//! The clock-domain convention: host spans carry *real* time, simulator
//! records carry *modeled/analytic* time. They are never mixed on one
//! track; the unified exporter in `fzgpu-sim` labels them separately.

#![warn(missing_docs)]

pub mod chrome;
pub mod cli;
pub mod json;
pub mod metrics;
mod span;
pub mod telemetry;

pub use span::{
    begin_capture, end_capture, event, is_capturing, span, EventMark, RegionCapture, Span,
    SpanKind, SpanRecord, Trace,
};
