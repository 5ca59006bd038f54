//! Continuous telemetry: a background sampler, a windowed time-series
//! ring, and the SLO burn-rate watchdog.
//!
//! The counters and histograms are *cumulative*: they answer "what
//! happened since boot", never "what is the p99 right now and is it
//! burning the SLO". This module closes that gap. A sampler thread
//! wakes every tick (default [`DEFAULT_TICK`]), reads four planes — the
//! counters ([`crate::stats::Snapshot`], totals and per-vCPU), every
//! [`LatencyKind`] histogram and each vCPU's call histogram — computes
//! their **deltas** against the previous tick's read, and stores them in
//! an overwrite buffer of [`DEFAULT_SERIES_DEPTH`] preallocated
//! [`WindowStats`] slots: after startup the sampler never allocates, it
//! only overwrites slots in place. A tick and a window are the one type:
//! a window is the newest ticks merged plane by plane.
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

/// The probe's tally as a counter delta carries it (no largest gap).
impl From<&Snapshot> for InterferenceSample {
    fn from(c: &Snapshot) -> InterferenceSample {
        InterferenceSample {
            probed_ns: c.interference_probe_ns,
            lost_ns: c.interference_ns,
            excursions: c.interference_excursions,
            max_excursion_ns: 0,
        }
    }
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

/// Counter and histogram **deltas** over `[at_ns - dt_ns, at_ns]`, in
/// the four planes the sampler reads: aggregate counters, per-vCPU
/// counters, per-kind histograms and per-vCPU call histograms. One
/// sampler tick of the series ([`Telemetry::series`]) is one of these,
/// and so is the merge of the newest ticks covering a window
/// ([`Telemetry::window`]): the raw material for rates and windowed
/// quantiles.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Number of the newest tick merged (0-based, monotonic; survives
    /// ring wrap).
    pub seq: u64,
    /// End of the newest tick merged, nanoseconds since the sampler
    /// started.
    pub at_ns: u64,
    /// Summed measured tick widths (the sleep is approximate, and a
    /// young ring covers less than the request: rates divide by this,
    /// not by the configured tick).
    pub dt_ns: u64,
    /// Ticks merged (1 for a tick of the series).
    pub ticks: usize,
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

impl WindowStats {
    pub(crate) fn empty(n_vcpus: usize) -> WindowStats {
        WindowStats {
            seq: 0,
            at_ns: 0,
            dt_ns: 0,
            ticks: 0,
            counters: Snapshot::default(),
            per_vcpu: vec![Snapshot::default(); n_vcpus].into_boxed_slice(),
            hists: vec![Histogram::new(); NKINDS].into_boxed_slice(),
            vcpu_call: vec![Histogram::new(); n_vcpus].into_boxed_slice(),
        }
    }

    /// Overwrite the four planes, in place, with the cumulative ones as
    /// they stand: what a tick is the delta of.
    pub(crate) fn read(&mut self, stats: &RuntimeStats, obs: &ObsState) {
        self.counters = stats.snapshot();
        for (v, (s, h)) in self.per_vcpu.iter_mut().zip(self.vcpu_call.iter_mut()).enumerate() {
            *s = stats.vcpu_snapshot(v);
            *h = obs.vcpu_hist(LatencyKind::Call, v);
        }
        for (h, &kind) in self.hists.iter_mut().zip(KINDS.iter()) {
            *h = obs.merged(kind);
        }
    }

    /// Combine `other` into the four planes, counter by counter and
    /// histogram by histogram.
    fn zip(
        &mut self,
        other: &WindowStats,
        snap: fn(&Snapshot, &Snapshot) -> Snapshot,
        hist: fn(&mut Histogram, &Histogram),
    ) {
        self.counters = snap(&self.counters, &other.counters);
        for (a, b) in self.per_vcpu.iter_mut().zip(other.per_vcpu.iter()) {
            *a = snap(a, b);
        }
        let hists = self.hists.iter_mut().zip(other.hists.iter());
        for (a, b) in hists.chain(self.vcpu_call.iter_mut().zip(other.vcpu_call.iter())) {
            hist(a, b);
        }
    }

    /// Overwrite the four planes, in place, with the activity between
    /// two cumulative reads.
    fn delta(&mut self, now: &WindowStats, prev: &WindowStats) {
        self.counters = now.counters;
        self.per_vcpu.copy_from_slice(&now.per_vcpu);
        self.hists.clone_from_slice(&now.hists);
        self.vcpu_call.clone_from_slice(&now.vcpu_call);
        self.zip(prev, Snapshot::since, |h, p| *h = h.delta_since(p));
    }

    /// Merge tick `t` into the window, which then ends at the later of
    /// its newest tick and `t`.
    fn merge(&mut self, t: &WindowStats) {
        self.seq = self.seq.max(t.seq);
        self.at_ns = self.at_ns.max(t.at_ns);
        self.dt_ns += t.dt_ns;
        self.ticks += 1;
        self.zip(t, Snapshot::plus, Histogram::merge);
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

/// The overwrite buffer the tick series lives in: preallocated
/// [`WindowStats`] slots behind a mutex, overwritten oldest-first in
/// place and never grown. Its writer (a sampler tick) and its readers
/// are all cold, so a mutex is the honest choice: the call path never
/// comes near it.
#[derive(Debug)]
pub(crate) struct Overwrite {
    /// The slots and the pushes ever made; a push lands in slot
    /// `pushes & (depth - 1)`.
    inner: parking_lot::Mutex<(Box<[WindowStats]>, u64)>,
}

impl Overwrite {
    /// `depth` empty ticks over `n_vcpus` (a power of two of them).
    pub(crate) fn new(depth: usize, n_vcpus: usize) -> Self {
        assert!(depth.is_power_of_two(), "buffer depth must be a power of two");
        let slots = (0..depth).map(|_| WindowStats::empty(n_vcpus)).collect();
        Overwrite { inner: parking_lot::Mutex::new((slots, 0)) }
    }

    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().0.len()
    }

    /// Overwrite the oldest slot in place with `fill`. Nothing is
    /// allocated as long as `fill` reuses the slot's storage
    /// (`clone_from`).
    pub(crate) fn push_with(&self, fill: impl FnOnce(&mut WindowStats)) {
        let mut inner = self.inner.lock();
        let (slots, pushes) = &mut *inner;
        fill(&mut slots[*pushes as usize & (slots.len() - 1)]);
        *pushes += 1;
    }

    /// Visit the retained slots newest first, until `f` returns false.
    pub(crate) fn newest(&self, mut f: impl FnMut(&WindowStats) -> bool) {
        let inner = self.inner.lock();
        let (slots, pushes) = (&inner.0, inner.1);
        for seq in (pushes - pushes.min(slots.len() as u64)..pushes).rev() {
            if !f(&slots[seq as usize & (slots.len() - 1)]) {
                break;
            }
        }
    }

    /// Clones of the newest `n` slots, oldest first.
    pub(crate) fn last(&self, n: usize) -> Vec<WindowStats> {
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

    /// Merge the newest ticks until `window` is covered (or the series
    /// is exhausted).
    fn window(&self, window: Duration, n_vcpus: usize) -> WindowStats {
        let want_ns = window.as_nanos() as u64;
        let mut out = WindowStats::empty(n_vcpus);
        self.newest(|t| {
            if out.dt_ns >= want_ns {
                return false;
            }
            out.merge(t);
            true
        });
        out
    }
}

/// The telemetry plane: the sampler thread's handle, the tick ring,
/// and the watchdog state. Obtain one via
/// [`crate::Runtime::start_telemetry`] and read it via
/// [`crate::Runtime::telemetry`].
pub struct Telemetry {
    ring: Overwrite,
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
            ring: Overwrite::new(DEFAULT_SERIES_DEPTH, n_vcpus),
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
        let mut baseline = WindowStats::empty(n_vcpus);
        baseline.read(&stats, &obs);
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

    /// The newest `n` ticks, oldest first (the `/series` export).
    pub fn series(&self, n: usize) -> Vec<WindowStats> {
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
        mut prev: WindowStats,
    ) {
        // The previous tick's cumulative read (captured in start(), see
        // there) and this tick's, allocated once: the loop body only
        // overwrites them and the ring's slots in place.
        let mut cur = prev.clone();
        let mut last = Instant::now();
        loop {
            // Interruptible tick sleep. The stop flag is checked under
            // the lock `stop()` notifies under, so a stop that lands
            // before this thread first waits is not slept through.
            {
                let guard = self.park.0.lock().unwrap_or_else(|e| e.into_inner());
                if !self.stop.load(Ordering::SeqCst) {
                    let _ = self
                        .park
                        .1
                        .wait_timeout(guard, self.tick)
                        .unwrap_or_else(|e| e.into_inner());
                }
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

            // Read the cumulative planes, store the delta in place.
            cur.read(&stats, &obs);
            self.ring.push_with(|t| {
                t.delta(&cur, &prev);
                t.seq = self.ticks.load(Ordering::Relaxed);
                t.at_ns = self.started.elapsed().as_nanos() as u64;
                t.dt_ns = dt_ns.max(1);
                t.ticks = 1;
            });
            std::mem::swap(&mut prev, &mut cur);
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
                a.interference_ratio = InterferenceSample::from(&slow_w.counters).ratio();
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

    fn series(depth: usize, n_vcpus: usize) -> Overwrite {
        Overwrite::new(depth, n_vcpus)
    }

    #[test]
    fn ring_preallocates_and_wraps() {
        let ring = series(4, 2);
        let mut t = WindowStats::empty(2);
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
        let mut t = WindowStats::empty(1);
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
        let mut t = WindowStats::empty(1);
        t.dt_ns = 1_000;
        t.hists[LatencyKind::Call as usize].record(100);
        t.hists[LatencyKind::Call as usize].record(200);
        ring.push_with(|slot| slot.clone_from(&t));
        ring.push_with(|slot| slot.clone_from(&t));
        let w = ring.window(Duration::from_secs(1), 1);
        assert_eq!(w.hist(LatencyKind::Call).count(), 4);
        assert!(w.quantile_ns(LatencyKind::Call, 0.5) <= 255);
    }

    /// Every leaf's key path in `doc`, first occurrence order (`[]` for
    /// an array element, so the elements of one array share their paths).
    fn key_paths(doc: &crate::export::Json) -> Vec<String> {
        use crate::export::Json;
        fn walk(j: &Json, at: String, out: &mut Vec<String>) {
            match j {
                Json::Obj(fields) => {
                    fields.iter().for_each(|(k, v)| walk(v, format!("{at}.{k}"), out))
                }
                Json::Arr(items) if !items.is_empty() => {
                    items.iter().for_each(|v| walk(v, format!("{at}[]"), out))
                }
                Json::Arr(_) => out.push(format!("{at}[]")),
                _ => out.push(at),
            }
        }
        let mut all = Vec::new();
        walk(doc, String::new(), &mut all);
        let mut seen = std::collections::HashSet::new();
        all.into_iter().filter(|p| seen.insert(p.clone())).collect()
    }

    /// The exporters' bytes for one fixed state: `/series`, the `/json`
    /// snapshot and its `"telemetry"` member, and `/metrics` with its
    /// windowed rates, each exactly as `testdata/exports.golden` holds
    /// it, plus the key paths of a black-box capture. A reordered key, a
    /// renamed member or a dropped empty kind fails here. The sampler's
    /// first tick is ten seconds off: the two ticks in the series are the
    /// ones pushed by hand, the newer alone covering the 1 s window.
    #[test]
    fn exports_render_the_golden_bytes() {
        use crate::export;
        let obs = Arc::new(ObsState::new(2));
        obs.set_enabled(true);
        obs.set_sample_shift(0);
        for (kind, vcpu, ns) in [
            (LatencyKind::Call, 0, 90),
            (LatencyKind::Call, 1, 5_000),
            (LatencyKind::Call, 1, 1 << 20),
            (LatencyKind::Handler, 0, 700),
        ] {
            obs.record(kind, vcpu, ns);
        }
        let snap = Snapshot {
            calls: 3,
            inline_calls: 2,
            handoff_calls: 1,
            interference_ns: 30,
            interference_probe_ns: 1_000,
            ..Default::default()
        };
        let tel = Telemetry::start(
            Duration::from_secs(10),
            Vec::new(),
            Arc::new(RuntimeStats::new(2)),
            Arc::clone(&obs),
            Arc::new(FlightPlane::new(2)),
            Weak::new(),
            2,
        );
        tel.ring.push_with(|t| {
            t.seq = 0;
            t.at_ns = 8_000_000_000;
            t.dt_ns = 8_000_000_000;
            t.counters.calls = 40;
            t.counters.inline_calls = 40;
            t.per_vcpu[0].calls = 40;
            t.per_vcpu[0].inline_calls = 40;
            t.hists[LatencyKind::Call as usize].record(300);
            t.vcpu_call[0].record(300);
        });
        tel.ring.push_with(|t| {
            t.seq = 1;
            t.at_ns = 9_500_000_000;
            t.dt_ns = 1_500_000_000;
            t.counters.calls = 6;
            t.counters.handoff_calls = 6;
            t.counters.interference_ns = 20;
            t.counters.interference_probe_ns = 800;
            t.per_vcpu[1].calls = 6;
            t.per_vcpu[1].handoff_calls = 6;
            t.hists[LatencyKind::Handler as usize].record(2_000);
            t.hists[LatencyKind::Call as usize].record(2_500);
            t.vcpu_call[1].record(2_500);
        });
        let got = format!(
            "== series_json\n{}\n== telemetry_json\n{}\n== json_snapshot\n{}\n\
             == prometheus + prometheus_rates\n{}{}",
            export::series_json(&tel.series(usize::MAX)),
            export::telemetry_json(&tel),
            export::json_snapshot(&snap, &obs),
            export::prometheus(&snap, &obs),
            export::prometheus_rates(&tel),
        );
        tel.stop();

        let rt = crate::Runtime::new(2);
        rt.obs().set_enabled(true);
        rt.obs().set_sample_shift(0);
        rt.obs().record(LatencyKind::Call, 0, 100);
        rt.obs().record(LatencyKind::Handler, 1, 700);
        rt.flight().record(1, FlightKind::Fault, 3, 9);
        let rule = SloRule::new("call-rate", SloMetric::Rate("calls"), 1.0);
        rt.start_telemetry(Duration::from_secs(10), vec![rule]);
        let doc = crate::blackbox::capture(&rt, "golden");
        let got = format!("{got}== blackbox::capture key paths\n{}\n", key_paths(&doc).join("\n"));

        let want = include_str!("../testdata/exports.golden");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "line {} of testdata/exports.golden", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "golden line count");
        assert_eq!(got, want);
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
