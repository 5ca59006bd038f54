//! Small fixed-width table formatting for the figure/table binaries,
//! plus the shared `--json <path>` machine-readable artifact writer.
//!
//! Every figure/table binary accepts `--json <path>` (or `--json=<path>`)
//! and writes `{"bench": ..., <metadata>, "modes": {<label>: {...}}}`
//! next to its ASCII table. These are simulator outputs and operator
//! documents; measured `ppc-rt` numbers come from `ppcbench` and live in
//! `BENCH_HISTORY.jsonl`.

use std::path::{Path, PathBuf};

pub use ppc_rt::export::Json;
use ppc_rt::export::QUANTILES;
pub use ppc_rt::Histogram;

/// Split the shared `--json <path>` / `--json=<path>` flag out of an
/// argument stream; returns the remaining args and the path, if given.
pub fn json_flag(args: impl Iterator<Item = String>) -> (Vec<String>, Option<PathBuf>) {
    let mut rest = Vec::new();
    let mut path = None;
    let mut args = args;
    while let Some(a) = args.next() {
        if a == "--json" {
            path = args.next().map(PathBuf::from);
        } else if let Some(p) = a.strip_prefix("--json=") {
            path = Some(PathBuf::from(p));
        } else {
            rest.push(a);
        }
    }
    (rest, path)
}

/// One bench run's machine-readable artifact, accumulated as the run
/// prints its table and written once at the end.
pub struct JsonReport {
    bench: String,
    meta: Vec<(String, Json)>,
    modes: Vec<(String, Json)>,
}

/// The host's real online core count. `available_parallelism` answers
/// "how many threads should I spawn" — under cgroup CPU quotas or an
/// affinity mask it can report 1 on a many-core box, which is what the
/// committed artifacts used to stamp as `host_cores`. For a perf
/// artifact we want the machine, not the quota: count `processor`
/// entries in `/proc/cpuinfo` and fall back to `available_parallelism`
/// only when that is unreadable (non-Linux hosts).
pub fn host_cores() -> usize {
    let from_cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    if from_cpuinfo > 0 {
        return from_cpuinfo;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How many CPUs this thread may be scheduled on (the affinity mask),
/// so the artifact records placement next to the raw core count. Falls
/// back to [`host_cores`] when the kernel refuses the query.
pub fn cpus_allowed() -> usize {
    match ppc_rt::affinity::allowed_cpus().len() {
        0 => host_cores(),
        n => n,
    }
}

impl JsonReport {
    /// A report for bench `bench`, stamped with the host's core count
    /// ([`host_cores`]), the scheduler-visible parallelism, and the
    /// process affinity mask width ([`cpus_allowed`]) — enough to read
    /// a committed artifact and know what hardware and placement
    /// produced it.
    pub fn new(bench: &str) -> Self {
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        JsonReport {
            bench: bench.to_string(),
            meta: vec![
                (
                    "schema_version".to_string(),
                    Json::Num(ppc_rt::export::SCHEMA_VERSION as f64),
                ),
                ("host_cores".to_string(), Json::Num(host_cores() as f64)),
                ("host_parallelism".to_string(), Json::Num(parallelism as f64)),
                ("cpus_allowed".to_string(), Json::Num(cpus_allowed() as f64)),
            ],
            modes: Vec::new(),
        }
    }

    /// Attach a top-level metadata field.
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Record one measured mode/row (label must be unique per run).
    pub fn mode(&mut self, label: &str, fields: Vec<(String, Json)>) {
        self.modes.push((label.to_string(), Json::Obj(fields)));
    }

    /// The document: `{"bench": ..., <meta>, "modes": {...}}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("bench".to_string(), Json::Str(self.bench.clone()))];
        fields.extend(self.meta.iter().cloned());
        fields.push(("modes".to_string(), Json::Obj(self.modes.clone())));
        Json::Obj(fields)
    }

    /// Write the document to `path` (with a trailing newline).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string() + "\n")
    }

    /// Write to `path` when the `--json` flag was given; prints the
    /// destination, panics on I/O failure (a bench artifact silently
    /// missing is worse than a failed run).
    pub fn write_if(&self, path: &Option<PathBuf>) {
        if let Some(path) = path {
            self.write(path).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("json report: {}", path.display());
        }
    }
}

/// `(label, value)` numeric fields, the common row shape.
pub fn num_fields(pairs: &[(&str, f64)]) -> Vec<(String, Json)> {
    pairs.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()
}

/// The percentile summary every latency-reporting mode includes:
/// p50/p90/p99/p999/max plus the sample count, from a merged histogram.
/// Returns an empty object for an empty histogram (nothing sampled).
pub fn latency_fields(h: &Histogram) -> Json {
    if h.count() == 0 {
        return Json::Obj(Vec::new());
    }
    let quantiles = QUANTILES.iter().map(|&(name, q)| (name, Json::Num(h.quantile(q) as f64)));
    let count = ("count", Json::Num(h.count() as f64));
    Json::obj([count].into_iter().chain(quantiles).chain([("max", Json::Num(h.max_ns as f64))]))
}

/// Format a row of cells with the given column widths (right-aligned
/// numerics look best for the paper-style tables).
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{c:>w$}  "));
    }
    out.trim_end().to_string()
}

/// A horizontal rule matching `widths`.
pub fn rule(widths: &[usize]) -> String {
    let total: usize = widths.iter().map(|w| w + 2).sum();
    "-".repeat(total.saturating_sub(2))
}

/// Render a simple ASCII sparkline-style bar of `value` against `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_aligned() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped at width");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn json_flag_both_spellings() {
        let (rest, p) = json_flag(
            ["--smoke", "--json", "out.json"].iter().map(|s| s.to_string()),
        );
        assert_eq!(rest, vec!["--smoke".to_string()]);
        assert_eq!(p.unwrap().to_str(), Some("out.json"));
        let (rest, p) = json_flag(["--json=x.json"].iter().map(|s| s.to_string()));
        assert!(rest.is_empty());
        assert_eq!(p.unwrap().to_str(), Some("x.json"));
        let (_, p) = json_flag(std::iter::empty());
        assert!(p.is_none());
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let mut r = JsonReport::new("unit");
        r.meta("budget_ms", Json::Num(100.0));
        r.mode("null/inline", num_fields(&[("ns_per_call", 68.5)]));
        let text = r.to_json().to_string();
        let back = Json::parse(&text).expect("self-produced JSON parses");
        assert_eq!(back.get("bench").unwrap().as_str(), Some("unit"));
        assert_eq!(
            back.get("schema_version").unwrap().as_u64(),
            Some(ppc_rt::export::SCHEMA_VERSION),
            "every bench artifact is stamped with the exporter schema version"
        );
        assert!(ppc_rt::export::check_schema_version(&back, "unit report"));
        let mode = back.get("modes").unwrap().get("null/inline").unwrap();
        assert_eq!(mode.get("ns_per_call").unwrap().as_f64(), Some(68.5));
    }

    #[test]
    fn latency_fields_reports_percentiles() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        let j = latency_fields(&h);
        assert_eq!(j.get("count").unwrap().as_u64(), Some(100));
        // Identical samples land in the [512, 1023] log2 bucket; the
        // interpolated quantiles stay inside it and never exceed max.
        let p50 = j.get("p50").unwrap().as_u64().unwrap();
        let p999 = j.get("p999").unwrap().as_u64().unwrap();
        assert!((512..=1_000).contains(&p50), "p50 {p50} within bucket, <= max");
        assert!(p999 >= p50 && p999 <= 1_000, "p999 {p999} ordered and <= max");
        assert_eq!(latency_fields(&Histogram::new()), Json::Obj(Vec::new()));
    }

    #[test]
    fn host_topology_fields_are_sane() {
        let cores = host_cores();
        let allowed = cpus_allowed();
        assert!(cores >= 1);
        assert!((1..=cores).contains(&allowed), "affinity mask within host cores");
        let r = JsonReport::new("unit");
        let doc = r.to_json();
        assert_eq!(doc.get("host_cores").unwrap().as_u64(), Some(cores as u64));
        assert!(doc.get("host_parallelism").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(doc.get("cpus_allowed").unwrap().as_u64(), Some(allowed as u64));
    }
}
