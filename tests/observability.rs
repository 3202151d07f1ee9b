//! Invariants of the observability layer: roofline attribution must agree
//! with the timeline's totals, counter merging must be order-independent
//! (blocks run in parallel), and the Chrome-trace export must be valid
//! JSON whose events tile each track without overlap.
//!
//! The JSON checks use a minimal recursive-descent parser written here —
//! the workspace is dependency-free, and parsing with an independent
//! implementation is exactly the point: the exporter must not be graded
//! by its own serializer.

use fz_gpu::core::{crc32, ErrorBound, FzGpu, FzOptions, PipelinePath};
use fz_gpu::sim::device::A100;
use fz_gpu::sim::{Engine, KernelStats};
use proptest::prelude::*;

fn field() -> Vec<f32> {
    (0..16 * 48 * 48)
        .map(|i| {
            let z = i / (48 * 48);
            let y = i / 48 % 48;
            let x = i % 48;
            (x as f32 * 0.11).sin() + (y as f32 * 0.06).cos() * 0.5 + z as f32 * 0.03
        })
        .collect()
}

const SHAPE: (usize, usize, usize) = (16, 48, 48);

fn compressed_fz() -> FzGpu {
    let mut fz = FzGpu::new(A100);
    let _ = fz.compress(&field(), SHAPE, ErrorBound::Abs(1e-3));
    fz
}

// ---------------------------------------------------------------------------
// Attribution totals
// ---------------------------------------------------------------------------

#[test]
fn breakdowns_sum_to_kernel_time() {
    let fz = compressed_fz();
    let prof = fz.profile();
    let sum: f64 = prof.kernels().map(|k| k.breakdown.total).sum();
    assert!(
        (sum - fz.kernel_time()).abs() <= 1e-12 * sum.max(1.0),
        "breakdown totals {sum} != kernel_time {}",
        fz.kernel_time()
    );
    for k in prof.kernels() {
        assert_eq!(
            k.time, k.breakdown.total,
            "kernel {} time disagrees with its breakdown",
            k.name
        );
        let b = &k.breakdown;
        let slowest = b.mem_time.max(b.smem_time).max(b.issue_time);
        assert!(
            (b.total - (b.launch_overhead + slowest)).abs() <= 1e-15 + 1e-12 * b.total,
            "kernel {}: total {} != overhead {} + slowest pipe {}",
            k.name,
            b.total,
            b.launch_overhead,
            slowest
        );
        assert!(b.margin >= 1.0, "margin is top/runner-up, must be >= 1");
        assert!(b.occupancy > 0.0 && b.occupancy <= 1.0);
    }
}

#[test]
fn stage_times_partition_the_timeline() {
    let fz = compressed_fz();
    let stages = fz.stage_times();
    let sum: f64 = stages.iter().map(|(_, t)| t).sum();
    assert!(
        (sum - fz.kernel_time()).abs() <= 1e-12 * sum.max(1.0),
        "stage times {sum} != kernel_time {}",
        fz.kernel_time()
    );
    let names: Vec<&str> = stages.iter().map(|(s, _)| *s).collect();
    for expected in ["quantize", "shuffle", "scan", "compact"] {
        assert!(names.contains(&expected), "missing stage {expected} in {names:?}");
    }
    assert!(stages.iter().all(|&(_, t)| t > 0.0), "every stage costs time");
}

// ---------------------------------------------------------------------------
// Merge algebra
// ---------------------------------------------------------------------------

fn stats_from(v: &[u64]) -> KernelStats {
    KernelStats {
        global_sectors: v[0],
        global_bytes_requested: v[1],
        smem_accesses: v[2],
        smem_conflict_cycles: v[3],
        warp_instructions: v[4],
        inactive_lane_slots: v[5],
        barriers: v[6],
        smem_bytes_peak: v[7],
    }
}

fn merged(a: &KernelStats, b: &KernelStats) -> KernelStats {
    let mut m = *a;
    m.merge(b);
    m
}

proptest! {
    // Counters stay below 2^32 so three-way sums can't overflow u64.
    #[test]
    fn merge_is_commutative_and_associative(
        a in proptest::collection::vec(0u64..(1 << 32), 8usize),
        b in proptest::collection::vec(0u64..(1 << 32), 8usize),
        c in proptest::collection::vec(0u64..(1 << 32), 8usize),
    ) {
        let (a, b, c) = (stats_from(&a), stats_from(&b), stats_from(&c));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        let id = KernelStats::default();
        prop_assert_eq!(merged(&a, &id), a);
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON: independent parser + structural checks
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}, found {:?}", c as char, self.pos, self.peek()))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated; input came from a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}' at {start}"))
    }
}

/// Full round-trip profile: compress + decompress joined into one trace.
fn roundtrip_profile() -> fz_gpu::sim::Profile {
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&field(), SHAPE, ErrorBound::Abs(1e-3));
    let mut prof = fz.profile();
    fz.decompress(&c).expect("fresh stream decompresses");
    prof.append(&fz.profile());
    prof
}

#[test]
fn chrome_trace_parses_and_events_tile_their_tracks() {
    let prof = roundtrip_profile();
    let json = Parser::parse(&prof.chrome_trace_json()).expect("exporter emits valid JSON");

    assert_eq!(json.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    assert!(json.get("otherData").and_then(|d| d.get("device")).is_some());
    let events = json.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");

    // Every timeline event is present, plus the two thread-name records.
    let complete: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert_eq!(complete.len(), prof.events.len());
    assert_eq!(events.len(), prof.events.len() + 2);

    // Per track (tid), complete events must be in order and non-overlapping:
    // the simulator models a single stream.
    let mut track_clock = std::collections::HashMap::new();
    for e in &complete {
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
        let clock = track_clock.entry(tid).or_insert(0.0f64);
        assert!(
            ts >= *clock - 1e-6,
            "event {:?} on tid {tid} starts at {ts} before previous end {clock}",
            e.get("name")
        );
        *clock = ts + dur;
    }

    // Kernel events carry the full counter set in args.
    let kernel = complete
        .iter()
        .find(|e| e.get("tid").and_then(Json::as_f64) == Some(0.0))
        .expect("at least one kernel event");
    let args = kernel.get("args").expect("kernel args");
    for key in [
        "bound_by",
        "margin",
        "occupancy",
        "global_sectors",
        "coalescing_efficiency",
        "smem_conflict_cycles",
        "lane_utilization",
        "warp_instructions",
        "barriers",
        "smem_bytes_peak",
    ] {
        assert!(args.get(key).is_some(), "kernel args missing {key}");
    }
    let margin = args.get("margin").and_then(Json::as_f64).unwrap();
    assert!((1.0..=1000.0).contains(&margin), "margin {margin} outside [1, cap]");
}

/// CRC-32 of `Profile::to_json()` and of the device-only Chrome trace for
/// a CESM round trip (reduced scale, rel eb 1e-3, A100). Pins every key,
/// separator and number spelling of both documents.
const CESM_PROFILE_JSON_CRC: u32 = 0x99ed_de23;
const CESM_CHROME_TRACE_CRC: u32 = 0xbc72_a792;

#[test]
fn catalog_profile_documents_are_pinned() {
    let field = fz_gpu::data::dataset("CESM")
        .expect("catalog dataset")
        .generate(fz_gpu::data::Scale::Reduced);
    // Explicit path and engine: the pins must not follow the environment.
    let opts = FzOptions {
        path: PipelinePath::Simulated,
        engine: Engine::Analytic,
        ..FzOptions::default()
    };
    let mut fz = FzGpu::with_options(A100, opts);
    let c = fz.compress(&field.data, field.dims.as_3d(), ErrorBound::RelToRange(1e-3));
    let mut prof = fz.profile();
    fz.decompress(&c).expect("fresh stream decompresses");
    prof.append(&fz.profile());
    let json = crc32(prof.to_json().as_bytes());
    let trace = crc32(prof.chrome_trace_json().as_bytes());
    assert_eq!(
        (json, trace),
        (CESM_PROFILE_JSON_CRC, CESM_CHROME_TRACE_CRC),
        "profile JSON / Chrome trace bytes drifted: got (0x{json:08x}, 0x{trace:08x})"
    );
}

#[test]
fn append_shifts_the_second_phase_after_the_first() {
    let mut fz = FzGpu::new(A100);
    let c = fz.compress(&field(), SHAPE, ErrorBound::Abs(1e-3));
    let compress = fz.profile();
    fz.decompress(&c).expect("fresh stream decompresses");
    let decompress = fz.profile();

    let mut joined = compress.clone();
    joined.append(&decompress);
    assert_eq!(joined.events.len(), compress.events.len() + decompress.events.len());
    let first_decompress = &joined.events[compress.events.len()];
    assert!(
        (first_decompress.start() - compress.total_time()).abs() < 1e-15,
        "second phase must start at the first phase's end"
    );
    let total = compress.total_time() + decompress.total_time();
    assert!((joined.total_time() - total).abs() < 1e-12 * total);
}

#[test]
fn parser_rejects_malformed_json() {
    // Sanity of the checker itself: a parser accepting everything would
    // vacuously pass the exporter tests.
    for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "{\"a\":1}x", "nul"] {
        assert!(Parser::parse(bad).is_err(), "parser accepted malformed input {bad:?}");
    }
    let ok = Parser::parse("{\"a\":[1,2.5,\"s\\n\",true,null]}").unwrap();
    assert_eq!(ok.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(5));
}
