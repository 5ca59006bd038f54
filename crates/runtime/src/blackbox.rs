//! Postmortem black-box capture: one versioned JSON artifact holding
//! the facility's last seconds.
//!
//! When something goes wrong — a handler panic, an SLO rule starting to
//! fire — the counters and the flight ring
//! still know what happened, but only until the process exits or the
//! rings wrap. The black box freezes all of it into a single
//! self-describing document:
//!
//! * the cumulative counter [`crate::Snapshot`] (total and
//!   per-vCPU) and merged latency histograms, read by the same
//!   `WindowStats::read` a telemetry tick takes and rendered by the
//!   same exporters as `/json`,
//! * per-vCPU **occupancy**: each vCPU's attributed wall-time split
//!   across the [`TIME_STATES`] (handler/spin/park/ring/frank/idle),
//! * the **interference** tally from the sampler's clock-gap probe
//!   (probed and lost ns, excursion count, lost-time ratio),
//! * the live telemetry document (windowed rates, quantiles, alert
//!   states) plus the tail of the raw per-tick series ring,
//! * every vCPU's retained flight-recorder events and the tracing
//!   plane's tail exemplars (slowest recent calls, span by span).
//!
//! Captures are **cold by construction**: nothing here runs unless a
//! capture fires, and automatic captures are rate-limited
//! ([`MIN_CAPTURE_INTERVAL`]) and a no-op until a capture directory is
//! configured ([`crate::Runtime::set_blackbox_dir`], or the
//! `PPC_BLACKBOX_DIR` environment variable when the runtime is built).
//! Explicit captures ([`crate::Runtime::write_blackbox`]) always run.
//!
//! `ppc-blackbox` (in the bench crate) loads an artifact back, rebuilds
//! the merged timeline, and names the dominant attributed causes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::export::{self, Json};
use crate::flight::Record;
use crate::span::Exemplar;
use crate::stats::{Snapshot, TIME_STATES};
use crate::telemetry::{InterferenceSample, WindowStats};
use crate::Runtime;

/// Minimum spacing between two *automatic* captures
/// ([`Sink::event`]). A misbehaving workload can trip an SLO rule every
/// tick; one artifact per incident window is plenty, and the limit
/// bounds how much disk an unattended run can consume. Explicit
/// [`crate::Runtime::write_blackbox`] calls are never limited.
pub const MIN_CAPTURE_INTERVAL: Duration = Duration::from_secs(5);

/// How many telemetry ticks (newest last) a capture embeds from the
/// series ring. 128 ticks at the default 100 ms tick ≈ the last ~13 s,
/// enough timeline to see an incident build without ballooning the
/// artifact.
pub const CAPTURE_TICKS: usize = 128;

/// The capture sink: where automatic black-box captures go, and the
/// back-reference they capture through.
///
/// Shared (`Arc`) between the [`Runtime`] and every bound entry so the
/// worker panic path can trigger a capture from a thread that has no
/// runtime back-reference — the same no-cycle pattern as the stats and
/// flight planes. The `Weak` is attached right after runtime
/// construction; until then (and after the runtime drops) captures are
/// no-ops.
pub struct Sink {
    rt: Mutex<Weak<Runtime>>,
    dir: Mutex<Option<PathBuf>>,
    last: Mutex<Option<Instant>>,
    written: AtomicU64,
}

impl Sink {
    pub(crate) fn new() -> Sink {
        Sink {
            rt: Mutex::new(Weak::new()),
            dir: Mutex::new(None),
            last: Mutex::new(None),
            written: AtomicU64::new(0),
        }
    }

    pub(crate) fn attach(&self, rt: Weak<Runtime>) {
        *self.rt.lock() = rt;
    }

    pub(crate) fn set_dir(&self, dir: Option<PathBuf>) {
        *self.dir.lock() = dir;
    }

    /// The configured capture directory, if any.
    pub fn dir(&self) -> Option<PathBuf> {
        self.dir.lock().clone()
    }

    /// Artifacts written by this sink (automatic captures only).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Automatic capture hook: write a black-box artifact named after
    /// `reason` into the configured directory. Returns the path written,
    /// or `None` when no directory is configured, the rate limit
    /// suppressed the capture, the runtime is gone, or the write failed
    /// (failure also warns on stderr — a postmortem hook must never
    /// take the process down with it).
    pub fn event(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dir.lock().clone()?;
        {
            let mut last = self.last.lock();
            if let Some(t) = *last {
                if t.elapsed() < MIN_CAPTURE_INTERVAL {
                    return None;
                }
            }
            *last = Some(Instant::now());
        }
        let rt = self.rt.lock().upgrade()?;
        let n = self.written.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("blackbox-{n:03}-{}.json", sanitize(reason)));
        match rt.write_blackbox(reason, &path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: black-box capture to {} failed: {e}", path.display());
                None
            }
        }
    }
}

/// Reasons come from call sites ("handler-panic", "slo-alert") but also
/// ride into a file name, so squash anything that isn't a portable
/// file-name character.
fn sanitize(reason: &str) -> String {
    let mut s: String = reason
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    if s.is_empty() {
        s.push_str("event");
    }
    s
}

/// Per-vCPU occupancy: each attributed time counter's share of the
/// vCPU's total attributed time. Cumulative (whole-lifetime) shares —
/// the *windowed* view lives in the embedded telemetry document.
fn occupancy_json(per_vcpu: &[Snapshot]) -> Json {
    let shares = |s: &Snapshot| {
        let ns = TIME_STATES.map(|(_, name, _)| s.field(name).unwrap_or(0));
        let total = ns.iter().sum::<u64>().max(1) as f64;
        Json::obj(TIME_STATES.iter().zip(ns).map(|(t, ns)| (t.2, Json::Num(ns as f64 / total))))
    };
    Json::Arr(per_vcpu.iter().map(shares).collect())
}

/// Build the black-box document for `rt`. The shape is versioned by
/// [`export::SCHEMA_VERSION`] and identified by `"kind":
/// "ppc-blackbox"`; `ppc-blackbox --smoke` round-trips it.
pub fn capture(rt: &Runtime, reason: &str) -> Json {
    // The cumulative planes, read the way a telemetry tick reads them.
    let mut now = WindowStats::empty(rt.n_vcpus());
    now.read(&rt.stats, rt.obs());

    // Cumulative interference tally (the probe accounts on vCPU 0's
    // shard, but read the aggregate — it is the same numbers).
    let probe = InterferenceSample::from(&now.counters);
    let interference = Json::obj([
        ("probed_ns", Json::Num(probe.probed_ns as f64)),
        ("lost_ns", Json::Num(probe.lost_ns as f64)),
        ("excursions", Json::Num(probe.excursions as f64)),
        ("ratio", Json::Num(probe.ratio())),
    ]);

    let (telemetry, series) = match rt.telemetry() {
        Some(tel) => {
            (export::telemetry_json(&tel), export::series_json(&tel.series(CAPTURE_TICKS)))
        }
        None => (Json::Null, Json::Null),
    };

    let (flight, spans) = (rt.flight(), rt.spans());
    let records = |recs: Vec<Record>| Json::Arr(recs.iter().map(Record::json).collect());
    let exemplars: Vec<Exemplar> = (0..spans.n_vcpus()).flat_map(|v| spans.exemplars(v)).collect();
    Json::obj([
        ("schema_version", Json::Num(export::SCHEMA_VERSION as f64)),
        ("kind", Json::Str("ppc-blackbox".into())),
        ("reason", Json::Str(reason.into())),
        ("n_vcpus", Json::Num(rt.n_vcpus() as f64)),
        ("counters", export::counters_json(&now.counters)),
        (
            "per_vcpu",
            Json::Arr(now.per_vcpu.iter().map(export::counters_json).collect()),
        ),
        ("latency_ns", export::latency_json(&now.hists)),
        ("occupancy", occupancy_json(&now.per_vcpu)),
        ("interference", interference),
        ("telemetry", telemetry),
        ("series", series),
        ("flight", Json::Arr((0..flight.n_vcpus()).map(|v| records(flight.snapshot(v))).collect())),
        ("exemplars", Json::Arr(exemplars.iter().map(Exemplar::json).collect())),
    ])
}
