//! CUDA-stream–style asynchronous queues in modeled time.
//!
//! The base simulator ([`crate::grid::Gpu`]) executes one synchronous
//! queue: every kernel and transfer lands back-to-back on one timeline.
//! Real FZ-GPU deployments saturate the device by running several streams,
//! overlapping the H2D copy of request *k+1* with the kernels of request
//! *k*. [`StreamSim`] reproduces that schedule in *modeled* time: callers
//! execute work bit-exactly however they like (typically through a `Gpu`),
//! then enqueue the resulting durations onto per-stream timelines, and the
//! scheduler assigns start times under the device's engine constraints:
//!
//! * operations on one stream are ordered (CUDA stream semantics);
//! * all kernels share a single compute engine (concurrent kernels from
//!   different streams serialize — conservative for the streaming,
//!   bandwidth-saturating kernels of this codebase);
//! * copies grab one of [`crate::device::DeviceSpec::copy_engines`] DMA
//!   engines, so up to that many transfers overlap compute and each other;
//! * [`StreamSim::record_event`] / [`StreamSim::wait_event`] add
//!   cross-stream edges (`cudaEventRecord` / `cudaStreamWaitEvent`).
//!
//! Scheduling is greedy in enqueue order — exactly the order the host
//! issued the work, which is how the CUDA driver dispatches — and is a
//! pure function of the enqueue sequence, so modeled makespans are
//! bit-identical at any host thread count.

use fzgpu_trace::chrome::ChromeTrace;
use fzgpu_trace::json;

use crate::device::DeviceSpec;
use crate::grid::Event;

/// Engine class an operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Kernel launch: occupies the (single) compute engine.
    Compute,
    /// Host-to-device copy: occupies one DMA engine.
    CopyH2D,
    /// Device-to-host copy: occupies one DMA engine.
    CopyD2H,
    /// Stall: freezes the stream's queue for the duration without
    /// occupying any engine (injected faults, device-loss aborts).
    Stall,
}

impl OpClass {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpClass::Compute => "compute",
            OpClass::CopyH2D => "H2D",
            OpClass::CopyD2H => "D2H",
            OpClass::Stall => "stall",
        }
    }
}

/// A scheduled operation: where it ran and when.
#[derive(Debug, Clone)]
pub struct StreamOp {
    /// Display name.
    pub name: String,
    /// Stream it was enqueued on.
    pub stream: usize,
    /// Engine class.
    pub class: OpClass,
    /// Engine index within the class (always 0 for compute).
    pub engine: usize,
    /// Modeled start time, seconds.
    pub start: f64,
    /// Modeled duration, seconds.
    pub duration: f64,
}

impl StreamOp {
    /// Completion time, seconds.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// Handle of a recorded cross-stream event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(usize);

/// Opaque checkpoint of a [`StreamSim`]'s scheduling state (see
/// [`StreamSim::mark`] / [`StreamSim::rollback`]).
#[derive(Debug, Clone)]
pub struct StreamMark {
    compute_ready: f64,
    copy_ready: Vec<f64>,
    stream_ready: Vec<f64>,
    ops: usize,
    events: usize,
}

/// Modeled multi-stream scheduler for one device (see the module docs).
pub struct StreamSim {
    copy_engines: usize,
    /// When the compute engine frees up.
    compute_ready: f64,
    /// When each DMA engine frees up.
    copy_ready: Vec<f64>,
    /// When each stream's last enqueued op completes.
    stream_ready: Vec<f64>,
    /// Completion times captured by `record_event`.
    events: Vec<f64>,
    ops: Vec<StreamOp>,
    device: &'static str,
}

impl StreamSim {
    /// New scheduler with `n_streams` streams on `spec`'s engine budget.
    ///
    /// # Panics
    /// Panics when `n_streams` is zero.
    pub fn new(spec: &DeviceSpec, n_streams: usize) -> Self {
        assert!(n_streams > 0, "need at least one stream");
        Self {
            copy_engines: spec.copy_engines.max(1) as usize,
            compute_ready: 0.0,
            copy_ready: vec![0.0; spec.copy_engines.max(1) as usize],
            stream_ready: vec![0.0; n_streams],
            events: Vec::new(),
            ops: Vec::new(),
            device: spec.name,
        }
    }

    /// Number of streams.
    pub fn n_streams(&self) -> usize {
        self.stream_ready.len()
    }

    /// Number of DMA engines bounding copy overlap.
    pub fn copy_engines(&self) -> usize {
        self.copy_engines
    }

    /// Enqueue one operation on `stream`, starting no earlier than
    /// `earliest` (modeled seconds; pass 0.0 for "as soon as possible").
    /// Returns its completion time.
    ///
    /// # Panics
    /// Panics on an out-of-range stream index or a negative duration.
    pub fn enqueue(
        &mut self,
        stream: usize,
        class: OpClass,
        name: &str,
        duration: f64,
        earliest: f64,
    ) -> f64 {
        assert!(stream < self.stream_ready.len(), "stream {stream} out of range");
        assert!(duration >= 0.0, "negative duration");
        let mut start = self.stream_ready[stream].max(earliest);
        let engine = match class {
            OpClass::Compute => {
                start = start.max(self.compute_ready);
                0
            }
            // A stall blocks only its own stream's queue.
            OpClass::Stall => 0,
            OpClass::CopyH2D | OpClass::CopyD2H => {
                // Earliest-free DMA engine, lowest index on ties — a pure
                // function of the enqueue order.
                let (engine, ready) = self
                    .copy_ready
                    .iter()
                    .copied()
                    .enumerate()
                    .reduce(|a, b| if b.1 < a.1 { b } else { a })
                    .expect("at least one copy engine");
                start = start.max(ready);
                engine
            }
        };
        let end = start + duration;
        match class {
            OpClass::Compute => self.compute_ready = end,
            OpClass::CopyH2D | OpClass::CopyD2H => self.copy_ready[engine] = end,
            OpClass::Stall => {}
        }
        self.stream_ready[stream] = end;
        self.ops.push(StreamOp { name: name.to_string(), stream, class, engine, start, duration });
        end
    }

    /// Map a [`Gpu`](crate::grid::Gpu) timeline onto `stream`: transfers
    /// become DMA operations, kernels become compute operations, all
    /// prefixed with `label`. Returns the completion time of the last
    /// mapped operation (or `earliest` for an empty timeline).
    pub fn enqueue_timeline(
        &mut self,
        stream: usize,
        label: &str,
        timeline: &[Event],
        earliest: f64,
    ) -> f64 {
        let mut end = self.stream_ready[stream].max(earliest);
        for e in timeline {
            let (class, name) = match e {
                Event::Kernel(k) => (OpClass::Compute, format!("{label}{}", k.name)),
                Event::Transfer(t) => (
                    if t.direction == "H2D" { OpClass::CopyH2D } else { OpClass::CopyD2H },
                    format!("{label}{}", t.direction),
                ),
            };
            end = self.enqueue(stream, class, &name, e.time(), earliest);
        }
        end
    }

    /// Record an event capturing the completion of everything enqueued on
    /// `stream` so far (`cudaEventRecord`).
    pub fn record_event(&mut self, stream: usize) -> EventId {
        self.events.push(self.stream_ready[stream]);
        EventId(self.events.len() - 1)
    }

    /// Make every later operation on `stream` wait for `event`
    /// (`cudaStreamWaitEvent`).
    pub fn wait_event(&mut self, stream: usize, event: EventId) {
        let t = self.events[event.0];
        if t > self.stream_ready[stream] {
            self.stream_ready[stream] = t;
        }
    }

    /// Completion time of everything enqueued so far (`cudaDeviceSynchronize`).
    pub fn makespan(&self) -> f64 {
        self.stream_ready.iter().copied().fold(0.0, f64::max)
    }

    /// When `stream`'s queue drains.
    pub fn stream_ready(&self, stream: usize) -> f64 {
        self.stream_ready[stream]
    }

    /// The stream whose queue drains first (lowest index on ties) and when.
    pub fn earliest_stream(&self) -> (usize, f64) {
        self.stream_ready
            .iter()
            .copied()
            .enumerate()
            .reduce(|a, b| if b.1 < a.1 { b } else { a })
            .expect("at least one stream")
    }

    /// Sum of all enqueued *work* durations (stalls excluded — a stall is
    /// lost time, not work) — what a single synchronous queue would take.
    /// Without injected stalls `makespan() <= serial_time()`; the gap is
    /// the overlap the streams bought.
    pub fn serial_time(&self) -> f64 {
        self.ops.iter().filter(|o| o.class != OpClass::Stall).map(|o| o.duration).sum()
    }

    /// Checkpoint the scheduler state. Pair with [`StreamSim::rollback`] to
    /// un-enqueue speculatively scheduled work (a batch aborted by a
    /// device-loss event is scheduled, observed to cross the loss time,
    /// then rolled back and replaced by the abort stall).
    pub fn mark(&self) -> StreamMark {
        StreamMark {
            compute_ready: self.compute_ready,
            copy_ready: self.copy_ready.clone(),
            stream_ready: self.stream_ready.clone(),
            ops: self.ops.len(),
            events: self.events.len(),
        }
    }

    /// Restore the state captured by [`StreamSim::mark`], discarding every
    /// operation and event enqueued since.
    ///
    /// # Panics
    /// Panics when `mark` came from a differently-shaped scheduler.
    pub fn rollback(&mut self, mark: &StreamMark) {
        assert_eq!(mark.stream_ready.len(), self.stream_ready.len(), "foreign mark");
        assert!(mark.ops <= self.ops.len(), "mark is newer than the schedule");
        self.compute_ready = mark.compute_ready;
        self.copy_ready.clone_from(&mark.copy_ready);
        self.stream_ready.clone_from(&mark.stream_ready);
        self.ops.truncate(mark.ops);
        self.events.truncate(mark.events);
    }

    /// Busy fraction of the compute engine over the makespan (0 when
    /// nothing ran).
    pub fn compute_utilization(&self) -> f64 {
        let total = self.makespan();
        if total <= 0.0 {
            return 0.0;
        }
        let busy: f64 =
            self.ops.iter().filter(|o| o.class == OpClass::Compute).map(|o| o.duration).sum();
        busy / total
    }

    /// Every scheduled operation, in enqueue order.
    pub fn ops(&self) -> &[StreamOp] {
        &self.ops
    }

    /// The telemetry clock hook: busy seconds of `class` per time window of
    /// `width` modeled seconds, as sparse `(window, busy)` pairs in window
    /// order. Each op's `[start, end)` interval is split across the window
    /// boundaries it crosses; accumulation runs in enqueue order, so the
    /// result is a pure function of the schedule (bit-identical at any host
    /// thread count and on either engine).
    ///
    /// # Panics
    /// Panics when `width` is not positive.
    pub fn busy_by_window(&self, class: OpClass, width: f64) -> Vec<(u64, f64)> {
        assert!(width > 0.0, "window width must be positive");
        let mut acc: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for op in self.ops.iter().filter(|o| o.class == class && o.duration > 0.0) {
            let mut t = op.start;
            let end = op.end();
            while t < end {
                let w = (t / width).floor() as u64;
                let boundary = (w + 1) as f64 * width;
                let slice_end = boundary.min(end);
                if slice_end <= t {
                    // FP guard: a boundary that rounds onto `t` would not
                    // advance; charge the remainder to this window.
                    *acc.entry(w).or_insert(0.0) += end - t;
                    break;
                }
                *acc.entry(w).or_insert(0.0) += slice_end - t;
                t = slice_end;
            }
        }
        acc.into_iter().collect()
    }

    /// Append this schedule to a Chrome-trace builder under `pid`, one
    /// track (tid) per stream — the per-stream view of the overlap.
    pub fn write_chrome_tracks(&self, t: &mut ChromeTrace, pid: u32) {
        for s in 0..self.stream_ready.len() {
            t.thread_name(pid, s as u32, &format!("stream {s}"));
        }
        for op in &self.ops {
            let args = vec![
                ("engine", json::escape(&format!("{}{}", op.class.label(), op.engine))),
                ("stream", op.stream.to_string()),
            ];
            t.complete(
                pid,
                op.stream as u32,
                &op.name,
                op.class.label(),
                op.start * 1e6,
                op.duration * 1e6,
                &args,
            );
        }
    }

    /// Standalone Chrome-trace JSON of the schedule (per-stream tracks).
    pub fn chrome_trace_json(&self) -> String {
        let mut t = ChromeTrace::new();
        t.process_name(0, "modeled device streams (analytic clock)");
        self.write_chrome_tracks(&mut t, 0);
        t.finish(&[
            ("device", json::escape(self.device)),
            ("copy_engines", self.copy_engines.to_string()),
            ("streams", self.stream_ready.len().to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{A100, A4000};

    /// One request's modeled phases: upload, kernel, download.
    fn enqueue_job(sim: &mut StreamSim, stream: usize, tag: &str) -> f64 {
        sim.enqueue(stream, OpClass::CopyH2D, &format!("{tag}.h2d"), 10e-6, 0.0);
        sim.enqueue(stream, OpClass::Compute, &format!("{tag}.kernel"), 20e-6, 0.0);
        sim.enqueue(stream, OpClass::CopyD2H, &format!("{tag}.d2h"), 10e-6, 0.0)
    }

    #[test]
    fn single_stream_is_serial() {
        let mut sim = StreamSim::new(&A100, 1);
        enqueue_job(&mut sim, 0, "a");
        enqueue_job(&mut sim, 0, "b");
        assert!((sim.makespan() - sim.serial_time()).abs() < 1e-15);
        assert!((sim.makespan() - 80e-6).abs() < 1e-12);
    }

    #[test]
    fn two_streams_overlap_copy_with_compute() {
        let mut sim = StreamSim::new(&A100, 2);
        enqueue_job(&mut sim, 0, "a");
        enqueue_job(&mut sim, 1, "b");
        // b.h2d runs during a.kernel; b.kernel starts when a.kernel ends.
        // Timeline: a.h2d [0,10], a.kernel [10,30], b.h2d [0,10] on a
        // second DMA engine, b.kernel [30,50], d2h tails overlap.
        assert!(sim.makespan() < sim.serial_time(), "streams must overlap");
        assert!((sim.makespan() - 60e-6).abs() < 1e-12, "{}", sim.makespan());
    }

    #[test]
    fn one_copy_engine_serializes_transfers() {
        let mut spec = A4000;
        spec.copy_engines = 1;
        let mut sim = StreamSim::new(&spec, 2);
        sim.enqueue(0, OpClass::CopyH2D, "a.h2d", 10e-6, 0.0);
        sim.enqueue(1, OpClass::CopyH2D, "b.h2d", 10e-6, 0.0);
        // Both want the only DMA engine: b starts when a finishes.
        let b = &sim.ops()[1];
        assert!((b.start - 10e-6).abs() < 1e-15);
        // With two engines they would overlap.
        let mut sim2 = StreamSim::new(&A4000, 2);
        sim2.enqueue(0, OpClass::CopyH2D, "a.h2d", 10e-6, 0.0);
        sim2.enqueue(1, OpClass::CopyH2D, "b.h2d", 10e-6, 0.0);
        assert_eq!(sim2.ops()[1].start, 0.0);
        assert_eq!(sim2.ops()[1].engine, 1);
    }

    #[test]
    fn stream_ops_stay_ordered() {
        let mut sim = StreamSim::new(&A100, 2);
        sim.enqueue(0, OpClass::Compute, "k1", 5e-6, 0.0);
        sim.enqueue(0, OpClass::CopyD2H, "d", 5e-6, 0.0);
        let ops = sim.ops();
        assert!(ops[1].start >= ops[0].end(), "same-stream ops must not overlap");
    }

    #[test]
    fn wait_event_orders_across_streams() {
        let mut sim = StreamSim::new(&A100, 2);
        sim.enqueue(0, OpClass::Compute, "producer", 50e-6, 0.0);
        let ev = sim.record_event(0);
        sim.wait_event(1, ev);
        sim.enqueue(1, OpClass::CopyD2H, "consumer", 5e-6, 0.0);
        let consumer = sim.ops().last().unwrap();
        assert!(consumer.start >= 50e-6 - 1e-15, "consumer started at {}", consumer.start);
    }

    #[test]
    fn earliest_constraint_delays_start() {
        let mut sim = StreamSim::new(&A100, 1);
        sim.enqueue(0, OpClass::Compute, "late", 1e-6, 42e-6);
        assert!((sim.ops()[0].start - 42e-6).abs() < 1e-15);
    }

    #[test]
    fn enqueue_timeline_maps_events() {
        use crate::perf::{KernelRecord, KernelStats, TimeBreakdown, TransferRecord};
        let timeline = vec![
            Event::Transfer(TransferRecord { direction: "H2D", bytes: 64, time: 1e-6 }),
            Event::Kernel(KernelRecord {
                name: "k".into(),
                time: 2e-6,
                stats: KernelStats::default(),
                breakdown: TimeBreakdown::analytic(2e-6),
                retries: 0,
                retry_attempt: None,
            }),
            Event::Transfer(TransferRecord { direction: "D2H", bytes: 64, time: 1e-6 }),
        ];
        let mut sim = StreamSim::new(&A100, 1);
        let end = sim.enqueue_timeline(0, "job0.", &timeline, 0.0);
        assert!((end - 4e-6).abs() < 1e-15);
        let classes: Vec<OpClass> = sim.ops().iter().map(|o| o.class).collect();
        assert_eq!(classes, vec![OpClass::CopyH2D, OpClass::Compute, OpClass::CopyD2H]);
        assert_eq!(sim.ops()[1].name, "job0.k");
    }

    #[test]
    fn chrome_trace_has_stream_tracks() {
        use fzgpu_trace::json::{parse, Value};
        let mut sim = StreamSim::new(&A100, 2);
        enqueue_job(&mut sim, 0, "a");
        enqueue_job(&mut sim, 1, "b");
        let doc = parse(&sim.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
        assert!(names.contains(&"a.kernel") && names.contains(&"b.d2h"), "{names:?}");
        // Per-stream tracks arrive as thread_name metadata events.
        let track_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(
            track_names.contains(&"stream 0") && track_names.contains(&"stream 1"),
            "{track_names:?}"
        );
        assert!(doc.get("otherData").and_then(|o| o.get("copy_engines")).is_some());
    }

    #[test]
    fn stalls_freeze_only_their_stream_and_skip_serial_time() {
        let mut sim = StreamSim::new(&A100, 2);
        enqueue_job(&mut sim, 0, "a");
        let before = sim.serial_time();
        sim.enqueue(0, OpClass::Stall, "chaos.stall", 100e-6, 0.0);
        assert_eq!(sim.serial_time(), before, "stalls are lost time, not work");
        // Stream 0's queue is frozen; stream 1 is untouched.
        assert!(sim.stream_ready(0) >= 140e-6 - 1e-15);
        assert_eq!(sim.stream_ready(1), 0.0);
        // Compute/DMA engines were not occupied by the stall: stream 1's
        // job starts immediately.
        sim.enqueue(1, OpClass::Compute, "b.kernel", 5e-6, 0.0);
        let b = sim.ops().last().unwrap();
        assert!((b.start - 30e-6).abs() < 1e-15, "compute engine frees at 30us, got {}", b.start);
    }

    #[test]
    fn rollback_restores_the_schedule_exactly() {
        let mut sim = StreamSim::new(&A100, 2);
        enqueue_job(&mut sim, 0, "a");
        let mark = sim.mark();
        let snapshot: Vec<(f64, f64)> = sim.ops().iter().map(|o| (o.start, o.duration)).collect();
        let (makespan, serial) = (sim.makespan(), sim.serial_time());
        enqueue_job(&mut sim, 1, "speculative");
        sim.record_event(1);
        assert!(sim.ops().len() > snapshot.len());
        sim.rollback(&mark);
        assert_eq!(sim.ops().len(), snapshot.len());
        assert_eq!(sim.makespan(), makespan);
        assert_eq!(sim.serial_time(), serial);
        // Re-enqueueing after a rollback reproduces the identical schedule.
        enqueue_job(&mut sim, 1, "speculative");
        let replay: Vec<(f64, f64)> =
            sim.ops()[snapshot.len()..].iter().map(|o| (o.start, o.duration)).collect();
        sim.rollback(&mark);
        enqueue_job(&mut sim, 1, "speculative");
        let replay2: Vec<(f64, f64)> =
            sim.ops()[snapshot.len()..].iter().map(|o| (o.start, o.duration)).collect();
        assert_eq!(replay, replay2);
    }

    #[test]
    fn busy_by_window_splits_ops_at_boundaries() {
        let mut sim = StreamSim::new(&A100, 1);
        // Kernel [5us, 25us) over 10us windows: 5us in w0, 10 in w1, 5 in w2.
        sim.enqueue(0, OpClass::Compute, "k", 20e-6, 5e-6);
        let busy = sim.busy_by_window(OpClass::Compute, 10e-6);
        assert_eq!(busy.len(), 3);
        assert_eq!(busy[0].0, 0);
        assert!((busy[0].1 - 5e-6).abs() < 1e-18, "{busy:?}");
        assert!((busy[1].1 - 10e-6).abs() < 1e-18, "{busy:?}");
        assert!((busy[2].1 - 5e-6).abs() < 1e-18, "{busy:?}");
        let total: f64 = busy.iter().map(|(_, b)| b).sum();
        assert!((total - 20e-6).abs() < 1e-15, "windows must conserve busy time");
        // Stalls occupy no engine and no window.
        sim.enqueue(0, OpClass::Stall, "s", 50e-6, 0.0);
        assert!(sim.busy_by_window(OpClass::Stall, 10e-6).iter().all(|&(_, b)| b > 0.0));
        assert_eq!(sim.busy_by_window(OpClass::CopyH2D, 10e-6), vec![]);
    }

    #[test]
    fn schedule_is_a_pure_function_of_enqueue_order() {
        let build = || {
            let mut sim = StreamSim::new(&A100, 3);
            for (i, s) in [0usize, 1, 2, 1, 0].iter().enumerate() {
                enqueue_job(&mut sim, *s, &format!("j{i}"));
            }
            sim.ops().iter().map(|o| (o.start, o.engine, o.stream)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
