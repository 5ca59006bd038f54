//! Metrics export: Prometheus text and JSON snapshots of the counter
//! and histogram planes.
//!
//! Everything here is cold-path: an export walks [`Snapshot::fields`]
//! (generated from the `counters!` list, so new counters appear without
//! touching this module) and the merged per-kind [`Histogram`]s, and
//! renders them. No external dependency is used — the repo vendors its
//! dependency graph, so JSON is a small hand-rolled [`Json`] value type
//! with a parser, which also gives tests a real round-trip check
//! instead of string-compares.
//!
//! Two renderings:
//!
//! * [`prometheus`] — the Prometheus text exposition format: one
//!   `ppc_<counter>` counter per stats field and a classic
//!   `ppc_latency_ns` histogram per
//!   [`LatencyKind`](crate::obs::LatencyKind) (cumulative
//!   `_bucket{kind,le}` series plus `_count`/`_sum`).
//! * [`json_snapshot`] — the same data as a [`Json`] object tree with
//!   per-kind percentiles precomputed, the shape `/json`, the black box
//!   and the `ppc-bench` reports share.

use std::fmt::Write as _;

use crate::obs::{Histogram, ObsState, KINDS};
use crate::flight::Record;
use crate::stats::Snapshot;
use crate::telemetry::{InterferenceSample, Telemetry, WindowStats, WINDOWS};

/// Version stamp carried by every JSON artifact this module (and the
/// bench reports built on it) emits. Bump it when a field is renamed,
/// re-unitted, or re-shaped; loaders compare it and **warn** on
/// mismatch instead of silently mis-parsing an old capture.
///
/// v2: the attribution plane — `time_*_ns` / `interference_*` counters
/// (and their windowed rates), per-alert `interference_ratio`, and the
/// `ppc-blackbox` capture document.
pub const SCHEMA_VERSION: u64 = 2;

/// `schema_version` of a parsed JSON artifact (`None` when the document
/// predates the stamp).
pub fn schema_version_of(doc: &Json) -> Option<u64> {
    doc.get("schema_version").and_then(Json::as_u64)
}

/// Warn (once per call, on stderr) when a loaded artifact's schema
/// version differs from ours. Returns `true` when versions agree.
pub fn check_schema_version(doc: &Json, what: &str) -> bool {
    match schema_version_of(doc) {
        Some(v) if v == SCHEMA_VERSION => true,
        Some(v) => {
            eprintln!(
                "warning: {what}: schema_version {v} != current {SCHEMA_VERSION}; \
                 fields may have moved — consider regenerating the artifact"
            );
            false
        }
        None => {
            eprintln!(
                "warning: {what}: no schema_version (pre-v{SCHEMA_VERSION} artifact); \
                 consider regenerating"
            );
            false
        }
    }
}

// ---------------------------------------------------------------------
// Json value type
// ---------------------------------------------------------------------

/// A JSON value. Numbers are `f64` (counter magnitudes in practice stay
/// far below the 2⁵³ integer-exactness limit; the writer renders
/// integral values without a decimal point). Object key order is
/// preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { pos, what: "trailing garbage" });
        }
        Ok(value)
    }
}

/// Parse failure: byte offset and a static description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub what: &'static str,
}

/// Serialization (`json.to_string()`). Integral numbers render without
/// a fraction (`3`, not `3.0`) so counters stay readable.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.what)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError { pos: *pos, what: "unexpected token" })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError { pos: *pos, what: "unexpected end of input" }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError { pos: *pos, what: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError { pos: *pos, what: "expected ',' or '}'" }),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError { pos: *pos, what: "expected string" });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { pos: *pos, what: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError { pos: *pos, what: "bad \\u escape" })?;
                        // Surrogate pairs are out of scope for metrics
                        // payloads; map them to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError { pos: *pos, what: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so this is
                // always on a char boundary).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError { pos: *pos, what: "invalid utf-8" })?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or(JsonError { pos: start, what: "bad number" })
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// The quantiles every export reports.
pub const QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// Render the counter + histogram planes in Prometheus text exposition
/// format. Counters become `ppc_<name>` counter series; each
/// [`LatencyKind`](crate::obs::LatencyKind) with samples becomes a
/// `kind`-labelled cumulative `ppc_latency_ns` histogram. Latencies are
/// in nanoseconds (sampled — see [`ObsState`]; counts are of sampled
/// recordings, not raw calls).
pub fn prometheus(snap: &Snapshot, obs: &ObsState) -> String {
    let mut out = String::new();
    for (name, value) in snap.fields() {
        let _ = writeln!(out, "# TYPE ppc_{name} counter");
        let _ = writeln!(out, "ppc_{name} {value}");
    }
    // The attribution plane's labelled view: the same `time_*_ns`
    // accumulators re-emitted as one `ppc_time_ns{state=}` family, so
    // dashboards can stack the states without knowing the counter
    // names. (The parser skips this family — it is derived.)
    let _ = writeln!(out, "# TYPE ppc_time_ns counter");
    for (_, name, label) in crate::stats::TIME_STATES {
        let _ = writeln!(
            out,
            "ppc_time_ns{{state=\"{label}\"}} {}",
            snap.field(name).unwrap_or(0)
        );
    }
    let hists = KINDS.map(|k| obs.merged(k));
    let mut sampled = KINDS.iter().zip(&hists).filter(|(_, h)| h.count() > 0).peekable();
    if sampled.peek().is_some() {
        let _ = writeln!(out, "# TYPE ppc_latency_ns histogram");
    }
    for (kind, h) in sampled {
        let kind = kind.label();
        let mut cumulative = 0u64;
        for (bound, bucket_count) in h.bucket_entries() {
            if bucket_count == 0 {
                continue;
            }
            cumulative += bucket_count;
            let _ = writeln!(
                out,
                "ppc_latency_ns_bucket{{kind=\"{kind}\",le=\"{bound}\"}} {cumulative}"
            );
        }
        let _ = writeln!(out, "ppc_latency_ns_bucket{{kind=\"{kind}\",le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "ppc_latency_ns_count{{kind=\"{kind}\"}} {}", h.count());
        let _ = writeln!(out, "ppc_latency_ns_sum{{kind=\"{kind}\"}} {}", h.sum_ns);
        let _ = writeln!(out, "ppc_latency_ns_max{{kind=\"{kind}\"}} {}", h.max_ns);
    }
    out
}

/// Render the telemetry plane's windowed rates in Prometheus text
/// exposition format: one `ppc_rate_<counter>` gauge per counter, with
/// a sample per [`WINDOWS`] entry (`{window="1s"}` etc.), in events per
/// second. Appended to [`prometheus`] output by
/// [`crate::Runtime::export_prometheus`] when the sampler is running.
pub fn prometheus_rates(tel: &Telemetry) -> String {
    let windows = windows(tel);
    let mut out = String::new();
    for &name in Snapshot::field_names() {
        let _ = writeln!(out, "# TYPE ppc_rate_{name} gauge");
        for (label, w) in &windows {
            let _ = writeln!(
                out,
                "ppc_rate_{name}{{window=\"{label}\"}} {:.6}",
                w.rate(name)
            );
        }
    }
    out
}

/// Render the transport gauges: which transport the runtime is serving
/// (`0` in-process only, `1` cross-process segment) and, while a
/// segment is mapped, its size, bulk/staging high-water offset, and
/// claimed-client count. Appended by
/// [`crate::Runtime::export_prometheus`].
pub fn prometheus_transport(x: Option<&crate::xproc::XprocStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE ppc_transport_xproc gauge");
    let _ = writeln!(out, "ppc_transport_xproc {}", u8::from(x.is_some()));
    if let Some(x) = x {
        let _ = writeln!(out, "# TYPE ppc_segment_bytes gauge");
        let _ = writeln!(out, "ppc_segment_bytes {}", x.segment_bytes);
        let _ = writeln!(out, "# TYPE ppc_segment_high_water_bytes gauge");
        let _ = writeln!(out, "ppc_segment_high_water_bytes {}", x.high_water);
        let _ = writeln!(out, "# TYPE ppc_segment_clients gauge");
        let _ = writeln!(out, "ppc_segment_clients {}", x.clients);
    }
    out
}

/// The `"transport"` member of [`crate::Runtime::export_json`]:
/// `{"mode": "in-process"}` for a purely local runtime, or the serving
/// segment's mode and stats.
pub fn transport_json(x: Option<&crate::xproc::XprocStats>) -> Json {
    match x {
        None => Json::obj([("mode", Json::Str("in-process".into()))]),
        Some(x) => Json::obj([
            ("mode", Json::Str(x.mode.into())),
            ("segment_bytes", Json::Num(x.segment_bytes as f64)),
            ("segment_high_water_bytes", Json::Num(x.high_water as f64)),
            ("segment_clients", Json::Num(f64::from(x.clients))),
        ]),
    }
}

/// A parsed Prometheus exposition: the `ppc_` counters, the
/// de-cumulated per-kind latency histograms, and the `ppc_rate_*`
/// windowed gauges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PromSnapshot {
    /// `(counter name, value)`, in exposition order, `ppc_` stripped.
    pub counters: Vec<(String, u64)>,
    /// `(kind label, histogram)` reconstructed from the cumulative
    /// `_bucket` series plus `_sum`/`_max`.
    pub latency: Vec<(String, Histogram)>,
    /// `(counter name, window label, events/s)` from the `ppc_rate_*`
    /// gauges, in exposition order.
    pub rates: Vec<(String, String, f64)>,
}

impl PromSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The reconstructed histogram for `kind`, if present.
    pub fn hist(&self, kind: &str) -> Option<&Histogram> {
        self.latency.iter().find(|(k, _)| k == kind).map(|(_, h)| h)
    }

    /// The windowed rate of counter `name` over `window` (label as in
    /// [`WINDOWS`]), if present.
    pub fn rate(&self, name: &str, window: &str) -> Option<f64> {
        self.rates
            .iter()
            .find(|(n, w, _)| n == name && w == window)
            .map(|&(_, _, v)| v)
    }
}

/// One `key="value"` lookup in a Prometheus label body.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let start = labels.find(&format!("{key}=\""))? + key.len() + 2;
    let rest = &labels[start..];
    Some(&rest[..rest.find('"')?])
}

/// Parse [`prometheus`] output back into counters and histograms — the
/// round-trip check that keeps the exporter honest. The cumulative
/// `_bucket{le}` series is de-cumulated back into per-bucket counts
/// (exact: the exporter emits ascending `le`, and a skipped bucket is a
/// zero bucket); `_count` is validated against the bucket sum.
pub fn parse_prometheus(text: &str) -> Result<PromSnapshot, String> {
    fn hist_entry<'a>(
        latency: &'a mut Vec<(String, Histogram)>,
        kind: &str,
    ) -> &'a mut Histogram {
        if let Some(i) = latency.iter().position(|(k, _)| k == kind) {
            return &mut latency[i].1;
        }
        latency.push((kind.to_string(), Histogram::new()));
        &mut latency.last_mut().unwrap().1
    }
    let mut out = PromSnapshot::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) =
            line.rsplit_once(' ').ok_or_else(|| format!("no value in line: {line}"))?;
        // The `ppc_rate_` family must be matched before the generic
        // `ppc_` counter branch (same prefix, float-valued, labelled).
        if let Some(rest) = name_part.strip_prefix("ppc_rate_") {
            let (name, labels) = rest
                .split_once('{')
                .ok_or_else(|| format!("rate series without labels: {line}"))?;
            let labels = labels
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels: {line}"))?;
            let window = label_value(labels, "window")
                .ok_or_else(|| format!("no window label: {line}"))?;
            let value: f64 =
                value_part.parse().map_err(|_| format!("bad rate value: {line}"))?;
            out.rates.push((name.to_string(), window.to_string(), value));
        } else if let Some(rest) = name_part.strip_prefix("ppc_latency_ns_") {
            let (series, labels) = rest
                .split_once('{')
                .ok_or_else(|| format!("latency series without labels: {line}"))?;
            let labels = labels
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels: {line}"))?;
            let kind =
                label_value(labels, "kind").ok_or_else(|| format!("no kind label: {line}"))?;
            let value: u64 = value_part
                .parse()
                .map_err(|_| format!("bad latency value: {line}"))?;
            let h = hist_entry(&mut out.latency, kind);
            match series {
                "bucket" => {
                    let le = label_value(labels, "le")
                        .ok_or_else(|| format!("bucket without le: {line}"))?;
                    if le == "+Inf" {
                        continue; // the total; `_count` validates it below
                    }
                    let le: u64 =
                        le.parse().map_err(|_| format!("bad le bound: {line}"))?;
                    let seen: u64 = h.buckets.iter().sum();
                    h.buckets[crate::obs::bucket_of(le)] = value
                        .checked_sub(seen)
                        .ok_or_else(|| format!("non-monotonic cumulative bucket: {line}"))?;
                }
                "count" => {
                    if h.count() != value {
                        return Err(format!(
                            "count {} disagrees with bucket sum {}: {line}",
                            value,
                            h.count()
                        ));
                    }
                }
                "sum" => h.sum_ns = value,
                "max" => h.max_ns = value,
                other => return Err(format!("unknown latency series {other}: {line}")),
            }
        } else if name_part.starts_with("ppc_time_ns{") {
            // Derived view: the same values as the `ppc_time_*_ns`
            // counters parsed by the generic branch — skip the
            // duplicate.
            continue;
        } else if let Some(name) = name_part.strip_prefix("ppc_") {
            let value: u64 =
                value_part.parse().map_err(|_| format!("bad counter value: {line}"))?;
            out.counters.push((name.to_string(), value));
        } else {
            return Err(format!("unknown metric family: {line}"));
        }
    }
    Ok(out)
}

/// One histogram as a JSON object: sample count, p50/p90/p99/p999/max
/// in nanoseconds, and the non-empty log₂ buckets as `[le, count]`
/// pairs.
pub fn histogram_json(h: &Histogram) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    let quantiles = QUANTILES.iter().map(|&(name, q)| (name, n(h.quantile(q))));
    let buckets = h.bucket_entries().filter(|&(_, c)| c > 0);
    let buckets = buckets.map(|(le, c)| Json::Arr(vec![n(le), n(c)]));
    let tail = [("max", n(h.max_ns)), ("sum", n(h.sum_ns)), ("buckets", Json::Arr(buckets.collect()))];
    Json::obj([("count", n(h.count()))].into_iter().chain(quantiles).chain(tail))
}

/// One [`Snapshot`]'s counters as a JSON object (name → value, driven
/// by [`Snapshot::fields`] so a new counter appears automatically).
pub fn counters_json(snap: &Snapshot) -> Json {
    Json::obj(snap.fields().into_iter().map(|(name, value)| (name, Json::Num(value as f64))))
}

/// The `latency_ns` object of every document: one [`histogram_json`]
/// per kind with samples, keyed by its label. `hists` is in
/// [`KINDS`] order.
pub(crate) fn latency_json(hists: &[Histogram]) -> Json {
    let sampled = KINDS.iter().zip(hists).filter(|(_, h)| h.count() > 0);
    Json::obj(sampled.map(|(k, h)| (k.label(), histogram_json(h))))
}

/// Render the counter + histogram planes as one JSON object:
/// `{"schema_version": N, "counters": {...}, "latency_ns":
/// {"call": {...}, ...}}`. Kinds with no samples are omitted from
/// `latency_ns`.
pub fn json_snapshot(snap: &Snapshot, obs: &ObsState) -> Json {
    Json::obj([
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("counters", counters_json(snap)),
        ("latency_ns", latency_json(&KINDS.map(|k| obs.merged(k)))),
    ])
}

/// One tick of the series as JSON: the tick's identity, its counter
/// deltas (aggregate and per-vCPU), and the non-empty per-kind histogram
/// deltas. (Per-vCPU call histograms stay out of the document — the
/// per-vCPU view consumers want is the *windowed* one in
/// [`telemetry_json`], not per-tick buckets.)
fn tick_json(t: &WindowStats) -> Json {
    Json::obj([
        ("seq", Json::Num(t.seq as f64)),
        ("at_ns", Json::Num(t.at_ns as f64)),
        ("dt_ns", Json::Num(t.dt_ns as f64)),
        ("counters", counters_json(&t.counters)),
        ("latency_ns", latency_json(&t.hists)),
        ("per_vcpu", Json::Arr(t.per_vcpu.iter().map(counters_json).collect())),
    ])
}

/// The raw telemetry ring (the `/series` endpoint): every retained
/// tick, oldest first.
pub fn series_json(ticks: &[WindowStats]) -> Json {
    Json::obj([
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("ticks", Json::Arr(ticks.iter().map(tick_json).collect())),
    ])
}

/// One window's stats as JSON: width, per-counter rates
/// (events/s), per-kind windowed quantiles, and the per-vCPU view
/// (counter deltas + call-latency quantiles) — the shape `ppc-top`
/// renders.
fn window_json(w: &WindowStats) -> Json {
    let rates = Json::Obj(
        w.counters
            .fields()
            .into_iter()
            .map(|(name, _)| (name.to_string(), Json::Num(w.rate(name))))
            .collect(),
    );
    let per_vcpu = Json::Arr(
        w.per_vcpu
            .iter()
            .zip(w.vcpu_call.iter())
            .map(|(snap, call)| {
                Json::obj([
                    ("counters", counters_json(snap)),
                    ("call_ns", histogram_json(call)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("dt_ns", Json::Num(w.dt_ns as f64)),
        ("ticks", Json::Num(w.ticks as f64)),
        ("rates", rates),
        ("latency_ns", latency_json(&w.hists)),
        ("per_vcpu", per_vcpu),
    ])
}

/// Every [`WINDOWS`] entry, label first, each the difference of two
/// retained reads: what each export renders its windows from.
fn windows(tel: &Telemetry) -> Vec<(&'static str, WindowStats)> {
    WINDOWS.iter().map(|&(label, dur)| (label, tel.window(dur))).collect()
}

/// The live telemetry document (merged into the `/json` endpoint under
/// `"telemetry"`): sampler identity, every [`WINDOWS`] entry rendered
/// as its window object — wall-window rates and quantiles, per-vCPU —
/// the SLO watchdog's alert states, and each window's
/// host-interference ratio.
pub fn telemetry_json(tel: &Telemetry) -> Json {
    let windows = windows(tel);
    let per_window = |f: &dyn Fn(&WindowStats) -> Json| {
        Json::Obj(windows.iter().map(|(label, w)| (label.to_string(), f(w))).collect())
    };
    let alerts = Json::Arr(
        tel.alerts()
            .iter()
            .map(|a| {
                Json::obj([
                    ("name", Json::Str(a.rule.name.into())),
                    ("metric", Json::Str(format!("{:?}", a.rule.metric))),
                    ("window_ms", Json::Num(a.rule.window.as_millis() as f64)),
                    ("threshold", Json::Num(a.rule.threshold)),
                    ("burn_factor", Json::Num(a.rule.burn_factor)),
                    ("firing", Json::Bool(a.firing)),
                    ("fired", Json::Num(a.fired as f64)),
                    ("measured_slow", Json::Num(a.measured_slow)),
                    ("measured_fast", Json::Num(a.measured_fast)),
                    ("firing_ticks", Json::Num(a.firing_ticks as f64)),
                    ("interference_ratio", Json::Num(a.interference_ratio)),
                ])
            })
            .collect(),
    );
    let interference = |w: &WindowStats| Json::Num(InterferenceSample::from(&w.counters).ratio());
    Json::obj([
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("tick_ms", Json::Num(tel.tick().as_secs_f64() * 1e3)),
        ("ticks", Json::Num(tel.ticks() as f64)),
        ("depth", Json::Num(tel.depth() as f64)),
        ("windows", per_window(&window_json)),
        ("alerts", alerts),
        ("interference", per_window(&interference)),
    ])
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Render span records as a Chrome trace-event JSON document — the
/// format `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
/// load directly. Each span becomes a `"B"`/`"E"` (begin/end) pair:
///
/// * `pid` is `vcpu + 1` (Perfetto groups tracks by process, pid 0 is
///   reserved), so each vCPU renders as its own process lane.
/// * `tid` is `depth * 2` for client-side phases and `depth * 2 + 1`
///   for server-side ones ([`crate::span::SpanPhase::server_side`]), so a call and
///   the handler it dispatched occupy adjacent tracks instead of
///   fighting over one.
/// * `ts` is microseconds (the format's unit) as `f64`, carrying
///   nanosecond precision in the fraction.
/// * `args` is the span's [`Record::json`] object: its causal identity
///   (trace, span and parent span ids, depth), entry point and vcpu.
///
/// Records other than spans are skipped.
pub fn chrome_trace(records: &[Record]) -> String {
    struct Ev {
        ts_ns: u64,
        rank: u32, // orders B before E at equal timestamps
        json: Json,
    }
    let mut events: Vec<Ev> = Vec::with_capacity(records.len() * 2);
    for (r, phase) in records.iter().filter_map(|r| Some((r, r.phase()?))) {
        let tid = u64::from(r.depth) * 2 + u64::from(phase.server_side());
        let common = |ph: &str, ts_ns: u64| {
            Json::obj([
                ("name", Json::Str(phase.label().into())),
                ("cat", Json::Str("ppc".into())),
                ("ph", Json::Str(ph.into())),
                ("pid", Json::Num(f64::from(r.vcpu) + 1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(ts_ns as f64 / 1000.0)),
                ("args", r.json()),
            ])
        };
        events.push(Ev {
            ts_ns: r.start_ns,
            rank: u32::from(r.depth),
            json: common("B", r.start_ns),
        });
        events.push(Ev {
            ts_ns: r.start_ns + r.dur_ns,
            rank: 256 + (255 - u32::from(r.depth)),
            json: common("E", r.start_ns + r.dur_ns),
        });
    }
    events.sort_by_key(|e| (e.ts_ns, e.rank));
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events.into_iter().map(|e| e.json).collect())),
    ])
    .to_string()
}

/// Load a [`chrome_trace`] document back into span records, matching
/// each `"B"` to its `"E"` by `(trace, span)` identity. A record is its
/// `args` object ([`Record::from_json`]) timed by the pair: `start_ns`
/// from the `"B"`'s `ts`, `dur_ns` from the `"E"`'s. Errors on malformed
/// JSON, `args` that are not a record, an `"E"` with no open `"B"`, or a
/// `"B"` never closed — the strictness is the point: this is the
/// round-trip check the exporter is tested against. Returned spans are
/// sorted by `(start_ns, depth, span_id)`.
pub fn load_chrome_trace(text: &str) -> Result<Vec<Record>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut open = std::collections::HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).ok_or("event missing ph")?;
        let ts = ev.get("ts").and_then(Json::as_f64).ok_or("event missing ts")?;
        let ns = (ts * 1000.0).round() as u64;
        let rec = ev.get("args").and_then(Record::from_json).ok_or("event args are not a record")?;
        let key = (rec.trace_id(), rec.span_id);
        match ph {
            "B" => {
                if open.insert(key, Record { start_ns: ns, ..rec }).is_some() {
                    return Err(format!("duplicate open span {key:?}"));
                }
            }
            "E" => {
                let begin =
                    open.remove(&key).ok_or_else(|| format!("end without begin for span {key:?}"))?;
                out.push(Record { dur_ns: ns.saturating_sub(begin.start_ns), ..begin });
            }
            other => return Err(format!("unexpected event phase {other:?}")),
        }
    }
    if let Some(key) = open.keys().next() {
        return Err(format!("begin without end for span {key:?}"));
    }
    out.sort_by_key(|r| (r.start_ns, r.depth, r.span_id));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::LatencyKind;
    use crate::span::SpanPhase;

    #[test]
    fn json_roundtrip_preserves_structure() {
        let doc = Json::obj([
            ("name", Json::Str("figure2 \"smoke\"\n".into())),
            ("n", Json::Num(12345.0)),
            ("frac", Json::Num(0.125)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Str("µs".into())]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
        assert_eq!(back.get("n").unwrap().as_u64(), Some(12345));
        assert_eq!(back.get("arr").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn json_integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse(" {\"a\" : [ 1 , 2 ] } ").is_ok());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let obs = ObsState::new(2);
        obs.set_enabled(true);
        obs.set_sample_shift(0);
        let snap = Snapshot { calls: 7, inline_calls: 7, ..Default::default() };
        for ns in [100, 200, 5_000] {
            obs.record(LatencyKind::Call, 0, ns);
        }
        let text = prometheus(&snap, &obs);
        assert!(text.contains("# TYPE ppc_calls counter"), "{text}");
        assert!(text.contains("ppc_calls 7"), "{text}");
        assert!(text.contains("ppc_inline_calls 7"), "{text}");
        assert!(text.contains("ppc_latency_ns_bucket{kind=\"call\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("ppc_latency_ns_count{kind=\"call\"} 3"), "{text}");
        assert!(text.contains("ppc_latency_ns_sum{kind=\"call\"} 5300"), "{text}");
    }

    #[test]
    fn json_snapshot_has_percentiles() {
        let obs = ObsState::new(1);
        obs.set_enabled(true);
        obs.set_sample_shift(0);
        for _ in 0..99 {
            obs.record(LatencyKind::Handler, 0, 1_000);
        }
        obs.record(LatencyKind::Handler, 0, 1_000_000);
        let snap = Snapshot::default();
        let doc = json_snapshot(&snap, &obs);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert!(back.get("counters").unwrap().get("calls").is_some());
        let handler = back.get("latency_ns").unwrap().get("handler").unwrap();
        assert_eq!(handler.get("count").unwrap().as_u64(), Some(100));
        // 99 samples of 1 000 ns live in the [512, 1023] bucket;
        // interpolation places p50 inside it rather than at the bound.
        let p50 = handler.get("p50").unwrap().as_u64().unwrap();
        assert!((512..1_024).contains(&p50), "p50={p50}");
        let p999 = handler.get("p999").unwrap().as_u64().unwrap();
        assert!(p999 > 512_000, "p999={p999} should reach the outlier bucket");
        assert_eq!(handler.get("max").unwrap().as_u64(), Some(1_000_000));
    }

    #[test]
    fn prometheus_roundtrips_through_parser() {
        let obs = ObsState::new(2);
        obs.set_enabled(true);
        obs.set_sample_shift(0);
        let snap = Snapshot { calls: 9, handoff_calls: 2, ..Default::default() };
        for ns in [1, 100, 100, 5_000, 1 << 30] {
            obs.record(LatencyKind::Call, 0, ns);
        }
        for ns in [250, 800] {
            obs.record(LatencyKind::Handler, 1, ns);
        }
        let text = prometheus(&snap, &obs);
        let back = parse_prometheus(&text).expect("parse exposition");
        assert_eq!(back.counter("calls"), Some(9));
        assert_eq!(back.counter("handoff_calls"), Some(2));
        let call = back.hist("call").expect("call histogram");
        assert_eq!(*call, obs.merged(LatencyKind::Call));
        let handler = back.hist("handler").expect("handler histogram");
        assert_eq!(*handler, obs.merged(LatencyKind::Handler));
    }

    #[test]
    fn prometheus_parser_rejects_malformed_input() {
        assert!(parse_prometheus("ppc_calls").is_err(), "no value");
        assert!(parse_prometheus("other_metric 3").is_err(), "foreign family");
        assert!(parse_prometheus("ppc_latency_ns_bucket{le=\"3\"} 1").is_err(), "no kind");
        assert!(
            parse_prometheus(
                "ppc_latency_ns_bucket{kind=\"call\",le=\"3\"} 5\n\
                 ppc_latency_ns_bucket{kind=\"call\",le=\"7\"} 2\n"
            )
            .is_err(),
            "non-monotonic cumulative counts"
        );
        assert!(parse_prometheus("# HELP whatever\nppc_calls 3\n").is_ok());
    }

    #[test]
    fn chrome_trace_roundtrips_through_loader() {
        use crate::flight::Record;
        let span = |span_id, parent_id, phase, depth, start_ns, dur_ns| Record {
            seq: 1,
            kind: crate::flight::Kind::Span(phase),
            vcpu: 0,
            ep: 3,
            data: 7,
            span_id,
            parent_id,
            depth,
            start_ns,
            dur_ns,
        };
        let records = vec![
            span(1, 0, SpanPhase::Call, 0, 1_000, 9_000),
            span(2, 1, SpanPhase::Handler, 1, 2_000, 6_000),
            span(3, 2, SpanPhase::Frank, 2, 3_000, 0),
        ];
        let text = chrome_trace(&records);
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents").unwrap().as_arr().unwrap().len(),
            records.len() * 2,
            "one B and one E per span"
        );
        let spans = load_chrome_trace(&text).expect("round-trip");
        assert_eq!(spans.len(), records.len());
        for (got, want) in spans.iter().zip(&records) {
            assert_eq!(got.trace_id(), want.trace_id());
            assert_eq!(got.span_id, want.span_id);
            assert_eq!(got.parent_id, want.parent_id);
            assert_eq!(got.depth, want.depth);
            assert_eq!(got.kind.label(), want.kind.label());
            assert_eq!(got.dur_ns, want.dur_ns);
        }
        assert!(spans[0].is_root());
        assert!(!spans[1].is_root());
    }

    #[test]
    fn chrome_trace_loader_rejects_unpaired_events() {
        let text = chrome_trace(&[]);
        assert!(load_chrome_trace(&text).unwrap().is_empty());
        let event = |ph: &str| {
            let args = r#"{"seq":0,"phase":"call","trace_id":1,"span_id":1,"parent_id":0,
                "depth":0,"vcpu":0,"ep":0,"start_ns":1000,"dur_ns":0}"#;
            format!(r#"{{"name":"call","ph":"{ph}","ts":1,"args":{args}}}"#)
        };
        let doc = |events: &[&str]| {
            let events: Vec<String> = events.iter().map(|&ph| event(ph)).collect();
            format!(r#"{{"traceEvents":[{}]}}"#, events.join(","))
        };
        assert_eq!(load_chrome_trace(&doc(&["B", "E"])).unwrap().len(), 1, "a pair loads");
        assert!(load_chrome_trace(&doc(&["E"])).is_err(), "orphan end");
        assert!(load_chrome_trace(&doc(&["B"])).is_err(), "orphan begin");
    }
}
