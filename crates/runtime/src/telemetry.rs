//! Continuous telemetry: a background sampler, a windowed time-series
//! ring, and the SLO burn-rate watchdog.
//!
//! The counters and histograms are *cumulative*: they answer "what
//! happened since boot", never "what is the p99 right now and is it
//! burning the SLO". This module closes that gap. A sampler thread
//! wakes every tick (default [`DEFAULT_TICK`]), snapshots the whole
//! counter plane ([`crate::stats::Snapshot`], totals and per-vCPU) and
//! every [`LatencyKind`] histogram, computes **deltas** against the
//! previous tick, and stores them in an overwrite buffer of
//! [`DEFAULT_SERIES_DEPTH`] preallocated [`TickDelta`] slots: after
//! startup the sampler never allocates, it only overwrites slots in
//! place.
//!
//! From the ring fall out the two products the cumulative plane cannot
//! give:
//!
//! * **windowed rates** — calls/s, sheds/s, pool misses/s over any
//!   window the ring covers ([`Telemetry::window`], exported as
//!   `ppc_rate_*` series on `/metrics`);
//! * **windowed quantiles** — per-window p50/p99/p999 recovered by
//!   merging histogram-bucket deltas over the window
//!   ([`WindowStats::quantile_ns`]). Bucket deltas of a cumulative
//!   histogram are exactly the histogram of the window's samples, so a
//!   windowed quantile is as accurate as a whole-run one (the
//!   correctness test in `tests/telemetry.rs` proves the identity
//!   against a brute-force recompute).
//!
//! On top of the windows sits the **SLO watchdog**: declarative
//! [`SloRule`]s evaluated every tick with the standard fast/slow
//! burn-rate pair (slow window = the rule's, fast window = 1/12th of
//! it, the 1h/5m convention scaled down). A rule fires only when *both*
//! windows burn past `burn_factor` — the fast window catches the step
//! change, the slow window keeps a single noisy tick from paging. A
//! rising edge records a [`FlightKind::Alert`] event (so post-mortems
//! see alerts interleaved with the facility events that caused them),
//! and a firing rule with [`SloRule::nudge_frank`] invokes
//! [`crate::Runtime::frank_maintain`] — the runtime watching itself and
//! feeding the slow-path resource manager.
//!
//! The sampler costs the *fast path* nothing: it only reads the
//! `Relaxed` counters the fast path was already writing, from its own
//! thread, ~10 times a second.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::flight::{FlightKind, FlightPlane};
use crate::obs::{Histogram, LatencyKind, ObsState, KINDS, NKINDS};
use crate::stats::{RuntimeStats, Snapshot};

/// Default sampler period.
pub const DEFAULT_TICK: Duration = Duration::from_millis(100);

/// Ticks the time series retains (a power of two). At the default tick
/// this is ~102 s — enough to serve the 60 s window with room for
/// scrape jitter.
pub const DEFAULT_SERIES_DEPTH: usize = 1024;

/// The windows every export reports, label first.
pub const WINDOWS: [(&str, Duration); 3] = [
    ("1s", Duration::from_secs(1)),
    ("10s", Duration::from_secs(10)),
    ("60s", Duration::from_secs(60)),
];

/// Clock-gap threshold above which the interference probe counts an
/// excursion. A tight `Instant::now` loop advances tens of nanoseconds
/// per iteration; a gap of 20µs+ between consecutive reads means the
/// probing thread lost the processor — an involuntary deschedule, the
/// host-interference signature `tail_probe` used to hunt by hand.
pub const INTERFERENCE_GAP_NS: u64 = 20_000;

/// Excursions at or above this size additionally land a
/// [`FlightKind::Interference`] event in vCPU 0's ring, so post-mortems
/// see big preemptions interleaved with the facility events they
/// perturbed.
pub const INTERFERENCE_EVENT_NS: u64 = 100_000;

/// One interference-probe run: how long the probe observed, how much of
/// that was stolen by involuntary deschedules, and the excursion count.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterferenceSample {
    /// Total ns the probe loop observed (the ratio denominator).
    pub probed_ns: u64,
    /// Ns lost to clock gaps above [`INTERFERENCE_GAP_NS`].
    pub lost_ns: u64,
    /// Gaps counted.
    pub excursions: u64,
    /// Largest single gap observed (ns).
    pub max_excursion_ns: u64,
}

impl InterferenceSample {
    /// Fraction of probed time lost to interference (0.0 when nothing
    /// was probed).
    pub fn ratio(&self) -> f64 {
        if self.probed_ns == 0 {
            0.0
        } else {
            self.lost_ns as f64 / self.probed_ns as f64
        }
    }
}

/// Run the clock-gap interference probe for (about) `budget` wall-time:
/// spin reading the monotonic clock and classify every
/// consecutive-read gap above [`INTERFERENCE_GAP_NS`] as involuntarily
/// descheduled time. The successor to the ad-hoc `tail_probe`: the
/// telemetry sampler runs this every tick on a small budget (~0.2% of a
/// tick), turning "host jitter dominates p999" from a hand diagnosis
/// into a continuously exported ratio. Callers off the sampler thread
/// may run it directly with a bigger budget for a sharper estimate.
pub fn interference_probe(budget: Duration) -> InterferenceSample {
    let budget_ns = budget.as_nanos() as u64;
    let mut out = InterferenceSample::default();
    let start = Instant::now();
    let mut prev = start;
    loop {
        let now = Instant::now();
        let gap = now.duration_since(prev).as_nanos() as u64;
        prev = now;
        if gap >= INTERFERENCE_GAP_NS {
            out.lost_ns += gap;
            out.excursions += 1;
            out.max_excursion_ns = out.max_excursion_ns.max(gap);
        }
        let elapsed = now.duration_since(start).as_nanos() as u64;
        if elapsed >= budget_ns {
            out.probed_ns = elapsed;
            return out;
        }
        std::hint::spin_loop();
    }
}

/// One tick's activity: counter and histogram **deltas** over
/// `[at_ns - dt_ns, at_ns]`.
#[derive(Clone, Debug)]
pub struct TickDelta {
    /// Tick number (0-based, monotonic; survives ring wrap).
    pub seq: u64,
    /// End of the tick, nanoseconds since the sampler started.
    pub at_ns: u64,
    /// Measured width of the tick (the sleep is approximate; rates must
    /// divide by this, not by the configured tick).
    pub dt_ns: u64,
    /// Counter deltas, aggregated across vCPUs.
    pub counters: Snapshot,
    /// Counter deltas per vCPU (index = vCPU id).
    pub per_vcpu: Box<[Snapshot]>,
    /// Histogram bucket deltas per [`LatencyKind`] (discriminant
    /// order), merged across vCPUs.
    pub hists: Box<[Histogram]>,
    /// Per-vCPU bucket deltas for [`LatencyKind::Call`] — what the
    /// per-vCPU `ppc-top` quantile columns read.
    pub vcpu_call: Box<[Histogram]>,
}

impl TickDelta {
    fn empty(n_vcpus: usize) -> TickDelta {
        TickDelta {
            seq: 0,
            at_ns: 0,
            dt_ns: 0,
            counters: Snapshot::default(),
            per_vcpu: vec![Snapshot::default(); n_vcpus].into_boxed_slice(),
            hists: vec![Histogram::new(); NKINDS].into_boxed_slice(),
            vcpu_call: vec![Histogram::new(); n_vcpus].into_boxed_slice(),
        }
    }
}

/// A merged view over the newest ticks covering (at least) a requested
/// window: the raw material for rates and windowed quantiles.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Summed tick widths actually merged (≤ the request when the ring
    /// is young; rates divide by this).
    pub dt_ns: u64,
    /// Ticks merged.
    pub ticks: usize,
    /// Counter deltas over the window.
    pub counters: Snapshot,
    /// Merged histogram deltas per kind (discriminant order).
    pub hists: Box<[Histogram]>,
    /// Per-vCPU counter deltas over the window.
    pub per_vcpu: Box<[Snapshot]>,
    /// Per-vCPU [`LatencyKind::Call`] histogram deltas over the window.
    pub vcpu_call: Box<[Histogram]>,
}

impl WindowStats {
    fn empty(n_vcpus: usize) -> WindowStats {
        WindowStats {
            dt_ns: 0,
            ticks: 0,
            counters: Snapshot::default(),
            hists: vec![Histogram::new(); NKINDS].into_boxed_slice(),
            per_vcpu: vec![Snapshot::default(); n_vcpus].into_boxed_slice(),
            vcpu_call: vec![Histogram::new(); n_vcpus].into_boxed_slice(),
        }
    }

    /// The window's width in (fractional) seconds.
    pub fn secs(&self) -> f64 {
        self.dt_ns as f64 / 1e9
    }

    /// Windowed rate of counter `name` in events/second (0.0 for an
    /// unknown counter or an empty window).
    pub fn rate(&self, name: &str) -> f64 {
        match (self.counters.field(name), self.dt_ns) {
            (Some(v), dt) if dt > 0 => v as f64 * 1e9 / dt as f64,
            _ => 0.0,
        }
    }

    /// The merged histogram delta for `kind`.
    pub fn hist(&self, kind: LatencyKind) -> &Histogram {
        &self.hists[kind as usize]
    }

    /// Windowed `q`-quantile (ns) for `kind` — computed from the bucket
    /// deltas, so it reflects only samples recorded inside the window.
    pub fn quantile_ns(&self, kind: LatencyKind, q: f64) -> u64 {
        self.hists[kind as usize].quantile(q)
    }

    fn interference_ratio(&self) -> f64 {
        let probed = self.counters.interference_probe_ns;
        if probed == 0 {
            0.0
        } else {
            self.counters.interference_ns as f64 / probed as f64
        }
    }
}

/// Which live signal an [`SloRule`] watches.
#[derive(Clone, Debug, PartialEq)]
pub enum SloMetric {
    /// Windowed rate (events/s) of a counter from the `counters!` list,
    /// by [`Snapshot::fields`] name — e.g. `"bulk_pool_misses"`,
    /// `"ring_full"`, `"server_faults"`. An unknown name measures 0 and
    /// never fires.
    Rate(&'static str),
    /// Windowed latency quantile (ns) of a [`LatencyKind`].
    QuantileNs(LatencyKind, f64),
}

impl SloMetric {
    /// Evaluate the metric over one window.
    pub fn measure(&self, w: &WindowStats) -> f64 {
        match self {
            SloMetric::Rate(name) => w.rate(name),
            SloMetric::QuantileNs(kind, q) => w.quantile_ns(*kind, *q) as f64,
        }
    }

    /// Human-readable unit suffix for dumps.
    pub fn unit(&self) -> &'static str {
        match self {
            SloMetric::Rate(_) => "/s",
            SloMetric::QuantileNs(..) => "ns",
        }
    }
}

/// One declarative SLO: "`metric` over `window` should stay at or under
/// `threshold`". The watchdog fires when the burn rate
/// (`measured / threshold`) reaches `burn_factor` on **both** the
/// rule's window and the fast window (window/12, clamped to one tick) —
/// the standard multiwindow burn-rate alert, scaled to runtime ticks.
#[derive(Clone, Debug)]
pub struct SloRule {
    /// Name for alerts, dumps and the `/json` export.
    pub name: &'static str,
    /// The signal watched.
    pub metric: SloMetric,
    /// The slow evaluation window.
    pub window: Duration,
    /// The SLO bound: burn rate 1.0 means consuming budget exactly at
    /// the threshold.
    pub threshold: f64,
    /// Burn multiple at which the rule fires (≥ 1.0; e.g. 14.4 is the
    /// classic fast-burn page).
    pub burn_factor: f64,
    /// When firing, invoke [`crate::Runtime::frank_maintain`] each tick
    /// — the "sustained pool-miss burn ⇒ let Frank shrink/clean up"
    /// feedback loop.
    pub nudge_frank: bool,
}

impl SloRule {
    /// A rule with the conventional defaults: 10 s window, burn factor
    /// 1.0 (fire as soon as both windows exceed the threshold), no
    /// Frank nudge.
    pub fn new(name: &'static str, metric: SloMetric, threshold: f64) -> SloRule {
        SloRule {
            name,
            metric,
            window: Duration::from_secs(10),
            threshold,
            burn_factor: 1.0,
            nudge_frank: false,
        }
    }
}

/// Live state of one rule, readable via [`Telemetry::alerts`].
#[derive(Clone, Debug)]
pub struct AlertState {
    /// The rule (cloned at install).
    pub rule: SloRule,
    /// Whether the rule is currently firing.
    pub firing: bool,
    /// Rising edges observed since install.
    pub fired: u64,
    /// Last measurement over the slow window.
    pub measured_slow: f64,
    /// Last measurement over the fast window.
    pub measured_fast: f64,
    /// Ticks spent in the firing state (cumulative).
    pub firing_ticks: u64,
    /// Host-interference ratio over the rule's window at the last
    /// evaluation (lost ns / probed ns, from the sampler's
    /// [`interference_probe`] runs): how much of the alert is the host
    /// scheduler's fault rather than the facility's.
    pub interference_ratio: f64,
}

/// The one overwrite buffer: preallocated slots behind a mutex,
/// overwritten oldest-first in place and never grown. The tick series
/// and each vCPU's tail exemplars ([`crate::span`]) live in one. Its
/// writers (a sampler tick, an exemplar promotion) and its readers are
/// all cold, so a mutex is the honest choice: the call path never comes
/// near it.
#[derive(Debug)]
pub(crate) struct Overwrite<T> {
    /// The slots and the pushes ever made; a push lands in slot
    /// `pushes & (depth - 1)`.
    inner: parking_lot::Mutex<(Box<[T]>, u64)>,
}

impl<T> Overwrite<T> {
    /// `depth` slots (a power of two), each made by `slot`.
    pub(crate) fn new(depth: usize, slot: impl FnMut(usize) -> T) -> Self {
        assert!(depth.is_power_of_two(), "buffer depth must be a power of two");
        Overwrite { inner: parking_lot::Mutex::new(((0..depth).map(slot).collect(), 0)) }
    }

    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().0.len()
    }

    /// Overwrite the oldest slot in place with `fill`. Nothing is
    /// allocated as long as `fill` reuses the slot's storage
    /// (`clone_from`, `clear` + bounded `push`).
    pub(crate) fn push_with(&self, fill: impl FnOnce(&mut T)) {
        let mut inner = self.inner.lock();
        let (slots, pushes) = &mut *inner;
        fill(&mut slots[*pushes as usize & (slots.len() - 1)]);
        *pushes += 1;
    }

    /// Visit the retained slots newest first, until `f` returns false.
    pub(crate) fn newest(&self, mut f: impl FnMut(&T) -> bool) {
        let inner = self.inner.lock();
        let (slots, pushes) = (&inner.0, inner.1);
        for seq in (pushes - pushes.min(slots.len() as u64)..pushes).rev() {
            if !f(&slots[seq as usize & (slots.len() - 1)]) {
                break;
            }
        }
    }

    /// Clones of the newest `n` slots, oldest first.
    pub(crate) fn last(&self, n: usize) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        self.newest(|t| {
            if out.len() == n {
                return false;
            }
            out.push(t.clone());
            true
        });
        out.reverse();
        out
    }
}

impl Overwrite<TickDelta> {
    /// Merge the newest ticks until `window` is covered (or the series
    /// is exhausted).
    fn window(&self, window: Duration, n_vcpus: usize) -> WindowStats {
        let want_ns = window.as_nanos() as u64;
        let mut out = WindowStats::empty(n_vcpus);
        self.newest(|t| {
            if out.dt_ns >= want_ns {
                return false;
            }
            out.dt_ns += t.dt_ns;
            out.ticks += 1;
            out.counters = out.counters.plus(&t.counters);
            for (k, h) in t.hists.iter().enumerate() {
                out.hists[k].merge(h);
            }
            for (v, s) in t.per_vcpu.iter().enumerate() {
                if let Some(slot) = out.per_vcpu.get_mut(v) {
                    *slot = slot.plus(s);
                }
            }
            for (v, h) in t.vcpu_call.iter().enumerate() {
                if let Some(slot) = out.vcpu_call.get_mut(v) {
                    slot.merge(h);
                }
            }
            true
        });
        out
    }
}

/// The telemetry plane: the sampler thread's handle, the tick ring,
/// and the watchdog state. Obtain one via
/// [`crate::Runtime::start_telemetry`] (or the
/// [`crate::RuntimeOptions::telemetry_tick`] knob) and read it via
/// [`crate::Runtime::telemetry`].
pub struct Telemetry {
    ring: Overwrite<TickDelta>,
    alerts: parking_lot::Mutex<Vec<AlertState>>,
    tick: Duration,
    n_vcpus: usize,
    started: Instant,
    ticks: AtomicU64,
    stop: AtomicBool,
    /// Sleep/wake pair so `stop()` interrupts the tick sleep promptly.
    park: (std::sync::Mutex<()>, std::sync::Condvar),
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tick", &self.tick)
            .field("ticks", &self.ticks())
            .finish_non_exhaustive()
    }
}

/// The sampler's previous-tick cumulative state: everything a tick
/// deltas against.
struct Cumulative {
    totals: Snapshot,
    vcpu: Box<[Snapshot]>,
    hists: Box<[Histogram]>,
    vcpu_call: Box<[Histogram]>,
}

impl Telemetry {
    /// Build the plane and spawn the sampler thread.
    pub(crate) fn start(
        tick: Duration,
        rules: Vec<SloRule>,
        stats: Arc<RuntimeStats>,
        obs: Arc<ObsState>,
        flight: Arc<FlightPlane>,
        rt: Weak<crate::Runtime>,
        n_vcpus: usize,
    ) -> Arc<Telemetry> {
        let tick = tick.max(Duration::from_millis(1));
        let tel = Arc::new(Telemetry {
            ring: Overwrite::new(DEFAULT_SERIES_DEPTH, |_| TickDelta::empty(n_vcpus)),
            alerts: parking_lot::Mutex::new(
                rules
                    .into_iter()
                    .map(|rule| AlertState {
                        rule,
                        firing: false,
                        fired: 0,
                        measured_slow: 0.0,
                        measured_fast: 0.0,
                        firing_ticks: 0,
                        interference_ratio: 0.0,
                    })
                    .collect(),
            ),
            tick,
            n_vcpus,
            started: Instant::now(),
            ticks: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            park: (std::sync::Mutex::new(()), std::sync::Condvar::new()),
            thread: parking_lot::Mutex::new(None),
        });
        // The delta baseline is captured HERE, on the caller's thread,
        // not inside the sampler thread: on a loaded host the spawned
        // thread may not be scheduled until well after start() returns,
        // and any calls made in that gap would otherwise disappear into
        // a late-taken baseline instead of showing up in the first
        // tick's delta.
        let baseline = Cumulative {
            totals: stats.snapshot(),
            vcpu: (0..n_vcpus).map(|v| stats.vcpu_snapshot(v)).collect(),
            hists: KINDS.iter().map(|&k| obs.merged(k)).collect(),
            vcpu_call: (0..n_vcpus).map(|v| obs.vcpu_hist(LatencyKind::Call, v)).collect(),
        };
        let worker = Arc::clone(&tel);
        let handle = std::thread::Builder::new()
            .name("ppc-telemetry".into())
            .spawn(move || worker.run(stats, obs, flight, rt, baseline))
            .expect("spawn telemetry sampler");
        *tel.thread.lock() = Some(handle);
        tel
    }

    /// The configured tick.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// Ticks sampled so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Ring capacity in ticks.
    pub fn depth(&self) -> usize {
        self.ring.depth()
    }

    /// The newest `n` tick deltas, oldest first (the `/series` export).
    pub fn series(&self, n: usize) -> Vec<TickDelta> {
        self.ring.last(n)
    }

    /// Merged stats over (up to) the newest `window` of ticks.
    pub fn window(&self, window: Duration) -> WindowStats {
        self.ring.window(window, self.n_vcpus)
    }

    /// Live watchdog state, one entry per installed rule.
    pub fn alerts(&self) -> Vec<AlertState> {
        self.alerts.lock().clone()
    }

    /// Host-interference ratio over (up to) the newest `window`: ns the
    /// sampler's probe observed stolen by involuntary deschedules,
    /// divided by ns probed. 0.0 when the probe hasn't run in the
    /// window.
    pub fn interference_ratio(&self, window: Duration) -> f64 {
        self.window(window).interference_ratio()
    }

    /// Rules currently firing.
    pub fn firing(&self) -> usize {
        self.alerts.lock().iter().filter(|a| a.firing).count()
    }

    /// Stop the sampler and join it (idempotent; called by
    /// [`crate::Runtime`]'s drop).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.park.0.lock().unwrap_or_else(|e| e.into_inner());
        self.park.1.notify_all();
        drop(_guard);
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Block until at least `n` ticks have been sampled (test/CI
    /// helper; times out after 10 s to keep a wedged sampler from
    /// hanging the harness).
    pub fn wait_ticks(&self, n: u64) -> bool {
        let t0 = Instant::now();
        while self.ticks() < n {
            if t0.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    fn run(
        self: Arc<Self>,
        stats: Arc<RuntimeStats>,
        obs: Arc<ObsState>,
        flight: Arc<FlightPlane>,
        rt: Weak<crate::Runtime>,
        baseline: Cumulative,
    ) {
        // Previous-tick cumulative state (captured in start(), see
        // there) and the scratch slot, allocated once: the loop body
        // only overwrites them in place.
        let n = self.n_vcpus;
        let Cumulative {
            totals: mut prev_totals,
            vcpu: mut prev_vcpu,
            hists: mut prev_hists,
            vcpu_call: mut prev_vcpu_call,
        } = baseline;
        let mut scratch = TickDelta::empty(n);
        let mut last = Instant::now();
        loop {
            // Interruptible tick sleep.
            {
                let guard = self.park.0.lock().unwrap_or_else(|e| e.into_inner());
                let _ = self
                    .park
                    .1
                    .wait_timeout(guard, self.tick)
                    .unwrap_or_else(|e| e.into_inner());
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            // Interference probe: a fixed sliver of each tick (~0.2% at
            // the default tick) spent watching the clock for deschedule
            // gaps. The result lands in vCPU 0's counters, so it rides
            // the ordinary delta/window plumbing below.
            let probe = interference_probe(
                (self.tick / 512).clamp(Duration::from_micros(50), Duration::from_millis(1)),
            );
            let (cell0, nobody) = (stats.cell(0), crate::claims::NOBODY);
            cell0.add(nobody, |c| &c.interference_ns, probe.lost_ns);
            cell0.add(nobody, |c| &c.interference_probe_ns, probe.probed_ns);
            cell0.add(nobody, |c| &c.interference_excursions, probe.excursions);
            if probe.max_excursion_ns >= INTERFERENCE_EVENT_NS {
                flight.record(
                    0,
                    FlightKind::Interference,
                    0,
                    probe.max_excursion_ns.min(u32::MAX as u64) as u32,
                );
            }
            let now = Instant::now();
            let dt_ns = now.duration_since(last).as_nanos() as u64;
            last = now;

            // Snapshot cumulative, delta against previous, in place.
            let totals = stats.snapshot();
            scratch.seq = self.ticks.load(Ordering::Relaxed);
            scratch.at_ns = self.started.elapsed().as_nanos() as u64;
            scratch.dt_ns = dt_ns.max(1);
            scratch.counters = totals.since(&prev_totals);
            prev_totals = totals;
            for v in 0..n {
                let s = stats.vcpu_snapshot(v);
                scratch.per_vcpu[v] = s.since(&prev_vcpu[v]);
                prev_vcpu[v] = s;
                let h = obs.vcpu_hist(LatencyKind::Call, v);
                scratch.vcpu_call[v] = h.delta_since(&prev_vcpu_call[v]);
                prev_vcpu_call[v] = h;
            }
            for (k, &kind) in KINDS.iter().enumerate() {
                let h = obs.merged(kind);
                scratch.hists[k] = h.delta_since(&prev_hists[k]);
                prev_hists[k] = h;
            }
            self.ring.push_with(|slot| slot.clone_from(&scratch));
            self.ticks.fetch_add(1, Ordering::Release);

            // Watchdog: evaluate every rule on its fast/slow pair.
            self.evaluate_rules(&flight, &rt);
            if rt.strong_count() == 0 {
                return; // runtime gone; nothing left to sample for
            }
        }
    }

    fn evaluate_rules(&self, flight: &FlightPlane, rt: &Weak<crate::Runtime>) {
        let mut nudge = false;
        let mut rising_edge = false;
        {
            let mut alerts = self.alerts.lock();
            for (idx, a) in alerts.iter_mut().enumerate() {
                let slow_w = self.ring.window(a.rule.window, self.n_vcpus);
                let fast_dur = (a.rule.window / 12).max(self.tick);
                let fast_w = self.ring.window(fast_dur, self.n_vcpus);
                a.measured_slow = a.rule.metric.measure(&slow_w);
                a.measured_fast = a.rule.metric.measure(&fast_w);
                // Annotate the alert with how much of its window the
                // host stole: a high ratio says "look at the machine,
                // not the facility".
                a.interference_ratio = slow_w.interference_ratio();
                let budget = a.rule.threshold.max(f64::MIN_POSITIVE);
                let firing = a.measured_slow / budget >= a.rule.burn_factor
                    && a.measured_fast / budget >= a.rule.burn_factor;
                if firing && !a.firing {
                    a.fired += 1;
                    rising_edge = true;
                    // vCPU 0's ring is the watchdog's home; `ep` carries
                    // the rule index, `data` the slow measurement.
                    flight.record(
                        0,
                        FlightKind::Alert,
                        idx,
                        a.measured_slow.min(u32::MAX as f64) as u32,
                    );
                }
                if firing {
                    a.firing_ticks += 1;
                    nudge |= a.rule.nudge_frank;
                }
                a.firing = firing;
            }
        }
        if nudge || rising_edge {
            if let Some(rt) = rt.upgrade() {
                if nudge {
                    let _ = rt.frank_maintain();
                }
                if rising_edge {
                    // Postmortem hook: a rule starting to fire is
                    // exactly when the black box is worth keeping.
                    // Rate-limited inside; a no-op unless a capture
                    // directory is configured.
                    rt.blackbox_event("slo-alert");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(depth: usize, n_vcpus: usize) -> Overwrite<TickDelta> {
        Overwrite::new(depth, |_| TickDelta::empty(n_vcpus))
    }

    #[test]
    fn ring_preallocates_and_wraps() {
        let ring = series(4, 2);
        let mut t = TickDelta::empty(2);
        for i in 0..7u64 {
            t.seq = i;
            t.dt_ns = 10;
            t.counters.calls = i;
            ring.push_with(|slot| slot.clone_from(&t));
        }
        assert!(ring.last(0).is_empty());
        let last = ring.last(16);
        assert_eq!(last.len(), 4, "ring retains depth ticks");
        assert_eq!(last.first().unwrap().seq, 3);
        assert_eq!(last.last().unwrap().seq, 6);
        let w = ring.window(Duration::from_nanos(25), 2);
        assert_eq!(w.ticks, 3, "window stops once covered");
        assert_eq!(w.counters.calls, 6 + 5 + 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_depth_panics() {
        let _ = series(100, 1);
    }

    #[test]
    fn window_rates_divide_by_measured_time() {
        let ring = series(8, 1);
        let mut t = TickDelta::empty(1);
        t.dt_ns = 500_000_000; // half a second per tick
        t.counters.calls = 100;
        t.counters.inline_calls = 100;
        ring.push_with(|slot| slot.clone_from(&t));
        ring.push_with(|slot| slot.clone_from(&t));
        let w = ring.window(Duration::from_secs(1), 1);
        assert_eq!(w.counters.calls, 200);
        assert!((w.rate("calls") - 200.0).abs() < 1e-9, "rate {}", w.rate("calls"));
        assert_eq!(w.rate("no_such_counter"), 0.0);
    }

    #[test]
    fn window_merges_histogram_deltas() {
        let ring = series(8, 1);
        let mut t = TickDelta::empty(1);
        t.dt_ns = 1_000;
        t.hists[LatencyKind::Call as usize].record(100);
        t.hists[LatencyKind::Call as usize].record(200);
        ring.push_with(|slot| slot.clone_from(&t));
        ring.push_with(|slot| slot.clone_from(&t));
        let w = ring.window(Duration::from_secs(1), 1);
        assert_eq!(w.hist(LatencyKind::Call).count(), 4);
        assert!(w.quantile_ns(LatencyKind::Call, 0.5) <= 255);
    }

    #[test]
    fn slo_metric_measures_rates_and_quantiles() {
        let mut w = WindowStats::empty(1);
        w.dt_ns = 1_000_000_000;
        w.counters.set_field("bulk_pool_misses", 50);
        w.hists[LatencyKind::Call as usize].record(1_000);
        assert!((SloMetric::Rate("bulk_pool_misses").measure(&w) - 50.0).abs() < 1e-9);
        let q = SloMetric::QuantileNs(LatencyKind::Call, 0.99).measure(&w);
        assert!((512.0..=1024.0).contains(&q), "q={q}");
        assert_eq!(SloMetric::Rate("x").unit(), "/s");
    }
}
