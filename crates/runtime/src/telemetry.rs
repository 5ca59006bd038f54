//! Continuous telemetry: a background sampler, a windowed time-series
//! ring, and the SLO burn-rate watchdog.
//!
//! The counters and histograms are *cumulative*: they answer "what
//! happened since boot", never "what is the p99 right now and is it
//! burning the SLO". This module closes that gap. A sampler thread
//! wakes every tick (default [`DEFAULT_TICK`]), reads four planes — the
//! counters ([`crate::stats::Snapshot`], totals and per-vCPU), every
//! [`LatencyKind`] histogram and each vCPU's call histogram — and keeps
//! the cumulative read in a ring of `DEFAULT_SERIES_DEPTH + 1`
//! preallocated [`WindowStats`] slots: after startup the sampler never
//! allocates, it only overwrites the oldest slot in place. The counters
//! only grow, so the activity over any span is the newer read minus the
//! older one: a tick is the **difference** of two neighbouring reads, a
//! window that of the newest read and one a window's width older, and
//! both are the one type.
//!
//! From the ring fall out the two products the cumulative plane cannot
//! give:
//!
//! * **windowed rates** — calls/s, sheds/s, pool misses/s over any
//!   window the ring covers ([`Telemetry::window`], exported as
//!   `ppc_rate_*` series on `/metrics`);
//! * **windowed quantiles** — per-window p50/p99/p999 recovered from
//!   the histogram-bucket deltas over the window
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::flight::{FlightKind, FlightPlane};
use crate::obs::{Histogram, LatencyKind, ObsState, KINDS, NKINDS};
use crate::stats::{RuntimeStats, Snapshot};

/// Default sampler period.
pub const DEFAULT_TICK: Duration = Duration::from_millis(100);

/// Ticks the time series retains (it keeps one read more than this).
/// At the default tick this is ~102 s — enough to serve the 60 s window
/// with room for scrape jitter.
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
/// and so is a window ([`Telemetry::window`]): each is the difference
/// of two of the sampler's retained cumulative reads, which are this
/// type too. The raw material for rates and windowed quantiles.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Number of the newest tick covered (0-based, monotonic; survives
    /// ring wrap). A read carries its own number (the baseline is 0).
    pub seq: u64,
    /// End of the newest tick covered, nanoseconds since the sampler
    /// started (its baseline read is at 0).
    pub at_ns: u64,
    /// Measured width (the sleep is approximate, and a young ring
    /// covers less than the request: rates divide by this, not by the
    /// configured tick).
    pub dt_ns: u64,
    /// Ticks covered (1 for a tick of the series).
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
    /// they stand: what the sampler retains.
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

    /// The activity between two cumulative reads, `older` first: the
    /// ticks after `older` up to and including `newer`'s, plane by
    /// plane ([`Snapshot::since`], [`Histogram::delta_since`]).
    pub(crate) fn between(older: &WindowStats, newer: &WindowStats) -> WindowStats {
        fn each<T>(newer: &[T], older: &[T], since: fn(&T, &T) -> T) -> Box<[T]> {
            newer.iter().zip(older).map(|(n, o)| since(n, o)).collect()
        }
        WindowStats {
            seq: newer.seq.saturating_sub(1),
            at_ns: newer.at_ns,
            dt_ns: newer.at_ns.saturating_sub(older.at_ns),
            ticks: newer.seq.saturating_sub(older.seq) as usize,
            counters: newer.counters.since(&older.counters),
            per_vcpu: each(&newer.per_vcpu, &older.per_vcpu, Snapshot::since),
            hists: each(&newer.hists, &older.hists, Histogram::delta_since),
            vcpu_call: each(&newer.vcpu_call, &older.vcpu_call, Histogram::delta_since),
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

    /// The histogram delta for `kind`.
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

/// The telemetry plane: the sampler thread's handle, its retained
/// reads, and the watchdog state. Obtain one via
/// [`crate::Runtime::start_telemetry`] and read it via
/// [`crate::Runtime::telemetry`].
pub struct Telemetry {
    /// The sampler's cumulative reads and the reads ever pushed: read
    /// `k` lives in slot `k % slots`. `DEFAULT_SERIES_DEPTH + 1` slots,
    /// preallocated and overwritten oldest-first in place, so the
    /// newest `DEFAULT_SERIES_DEPTH` ticks fall between neighbours. Its
    /// writer (a sampler tick) and its readers are all cold, so a mutex
    /// is the honest choice: the call path never comes near it.
    reads: parking_lot::Mutex<(Box<[WindowStats]>, u64)>,
    alerts: parking_lot::Mutex<Vec<AlertState>>,
    tick: Duration,
    started: Instant,
    /// Set by `stop()`, which then unparks the sampler out of its tick
    /// sleep.
    stop: AtomicBool,
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
        let slots = (0..=DEFAULT_SERIES_DEPTH).map(|_| WindowStats::empty(n_vcpus)).collect();
        let tel = Arc::new(Telemetry {
            reads: parking_lot::Mutex::new((slots, 0)),
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
            started: Instant::now(),
            stop: AtomicBool::new(false),
            thread: parking_lot::Mutex::new(None),
        });
        // The baseline read is taken HERE, on the caller's thread, not
        // inside the sampler thread: on a loaded host the spawned
        // thread may not be scheduled until well after start() returns,
        // and any calls made in that gap would otherwise disappear into
        // a late-taken baseline instead of showing up in the first tick.
        // Its `at_ns` is 0: the clock starts here.
        tel.push(|r| r.read(&stats, &obs));
        let worker = Arc::clone(&tel);
        let handle = std::thread::Builder::new()
            .name("ppc-telemetry".into())
            .spawn(move || worker.run(stats, obs, flight, rt))
            .expect("spawn telemetry sampler");
        *tel.thread.lock() = Some(handle);
        tel
    }

    /// Overwrite the oldest slot in place with `fill` and stamp it with
    /// its number. Nothing is allocated as long as `fill` reuses the
    /// slot's storage.
    fn push(&self, fill: impl FnOnce(&mut WindowStats)) {
        let mut reads = self.reads.lock();
        let (slots, pushed) = &mut *reads;
        let slot = &mut slots[(*pushed % slots.len() as u64) as usize];
        fill(slot);
        slot.seq = *pushed;
        *pushed += 1;
    }

    /// The configured tick.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// Ticks sampled so far.
    pub fn ticks(&self) -> u64 {
        self.reads.lock().1 - 1
    }

    /// Ring capacity in ticks.
    pub fn depth(&self) -> usize {
        DEFAULT_SERIES_DEPTH
    }

    /// The newest `n` ticks, oldest first (the `/series` export).
    pub fn series(&self, n: usize) -> Vec<WindowStats> {
        let reads = self.reads.lock();
        let (slots, pushed) = (&reads.0, reads.1);
        let at = |k: u64| &slots[(k % slots.len() as u64) as usize];
        let first = pushed.saturating_sub(slots.len() as u64) + 1;
        let from = first.max(pushed.saturating_sub(n as u64));
        (from..pushed).map(|k| WindowStats::between(at(k - 1), at(k))).collect()
    }

    /// Stats over the newest `window` of ticks: from the newest read
    /// back to the newest one at least `window` older, or to the oldest
    /// retained on a ring too young to cover it.
    pub fn window(&self, window: Duration) -> WindowStats {
        let want_ns = window.as_nanos() as u64;
        let reads = self.reads.lock();
        let (slots, pushed) = (&reads.0, reads.1);
        let at = |k: u64| &slots[(k % slots.len() as u64) as usize];
        let newest = at(pushed - 1);
        let oldest = pushed.saturating_sub(slots.len() as u64);
        let older = (oldest..pushed)
            .rev()
            .map(at)
            .find(|r| newest.at_ns.saturating_sub(r.at_ns) >= want_ns)
            .unwrap_or(at(oldest));
        WindowStats::between(older, newest)
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
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            h.thread().unpark();
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
    ) {
        loop {
            // Interruptible tick sleep: `stop()` stores the flag before
            // it unparks, and an unpark that lands before the park leaves
            // a token, so a stop is never slept through. (A tick cut short
            // is stamped with its own length.)
            std::thread::park_timeout(self.tick);
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            // Interference probe: a fixed sliver of each tick (~0.2% at
            // the default tick) spent watching the clock for deschedule
            // gaps. The result lands in vCPU 0's counters, so it rides
            // the ordinary read/window plumbing below.
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
            // One clock read, then the four planes, into the oldest slot.
            let at_ns = self.started.elapsed().as_nanos() as u64;
            self.push(|r| {
                r.at_ns = at_ns;
                r.read(&stats, &obs);
            });

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
                let slow_w = self.window(a.rule.window);
                let fast_w = self.window((a.rule.window / 12).max(self.tick));
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

    /// A plane whose sampler's first tick is an hour off, so every read
    /// after the (all-zero) baseline is one a test pushes by hand.
    fn idle(n_vcpus: usize) -> Arc<Telemetry> {
        Telemetry::start(
            Duration::from_secs(3600),
            Vec::new(),
            Arc::new(RuntimeStats::new(n_vcpus)),
            Arc::new(ObsState::new(n_vcpus)),
            Arc::new(FlightPlane::new(n_vcpus)),
            Weak::new(),
            n_vcpus,
        )
    }

    #[test]
    fn ring_preallocates_and_wraps() {
        let tel = idle(2);
        let depth = tel.depth() as u64;
        assert_eq!(depth, DEFAULT_SERIES_DEPTH as u64);
        // Tick `i` carries `i` calls and is 10 ns wide.
        let mut r = WindowStats::empty(2);
        for i in 0..depth + 3 {
            r.at_ns += 10;
            r.counters.calls += i;
            tel.push(|slot| slot.clone_from(&r));
        }
        assert_eq!(tel.ticks(), depth + 3);
        assert!(tel.series(0).is_empty());
        let last = tel.series(usize::MAX);
        assert_eq!(last.len() as u64, depth, "ring retains depth ticks");
        assert_eq!(last.first().unwrap().seq, 3);
        assert_eq!(last.last().unwrap().seq, depth + 2);
        let w = tel.window(Duration::from_nanos(25));
        assert_eq!(w.ticks, 3, "window stops once covered");
        assert_eq!(w.counters.calls, (depth + 2) + (depth + 1) + depth);
        tel.stop();
    }

    #[test]
    fn window_rates_divide_by_measured_time() {
        let tel = idle(1);
        let mut r = WindowStats::empty(1);
        for _ in 0..2 {
            r.at_ns += 500_000_000; // half a second per tick
            r.counters.calls += 100;
            r.counters.inline_calls += 100;
            tel.push(|slot| slot.clone_from(&r));
        }
        let w = tel.window(Duration::from_secs(1));
        assert_eq!(w.counters.calls, 200);
        assert!((w.rate("calls") - 200.0).abs() < 1e-9, "rate {}", w.rate("calls"));
        assert_eq!(w.rate("no_such_counter"), 0.0);
        tel.stop();
    }

    #[test]
    fn window_merges_histogram_deltas() {
        let tel = idle(1);
        let mut r = WindowStats::empty(1);
        for _ in 0..2 {
            r.at_ns += 1_000;
            r.hists[LatencyKind::Call as usize].record(100);
            r.hists[LatencyKind::Call as usize].record(200);
            tel.push(|slot| slot.clone_from(&r));
        }
        let w = tel.window(Duration::from_secs(1));
        assert_eq!(w.hist(LatencyKind::Call).count(), 4);
        assert!(w.quantile_ns(LatencyKind::Call, 0.5) <= 255);
        tel.stop();
    }

    /// A window is the difference of two reads; it must equal the ticks
    /// it covers folded with [`Snapshot::plus`] and [`Histogram::merge`]
    /// — newest first until their widths cover the request — counter
    /// for counter and bucket for bucket, with the same width, tick
    /// count, sum and exact max.
    #[test]
    fn window_is_the_fold_of_its_ticks() {
        fn fold(tel: &Telemetry, want: Duration, n_vcpus: usize) -> WindowStats {
            let mut out = WindowStats::empty(n_vcpus);
            for t in tel.series(usize::MAX).iter().rev() {
                if out.dt_ns >= want.as_nanos() as u64 {
                    break;
                }
                out.dt_ns += t.dt_ns;
                out.ticks += t.ticks;
                out.counters = out.counters.plus(&t.counters);
                for (a, b) in out.per_vcpu.iter_mut().zip(t.per_vcpu.iter()) {
                    *a = a.plus(b);
                }
                for (a, b) in out.hists.iter_mut().zip(t.hists.iter()) {
                    a.merge(b);
                }
                for (a, b) in out.vcpu_call.iter_mut().zip(t.vcpu_call.iter()) {
                    a.merge(b);
                }
            }
            out
        }
        fn check(tel: &Telemetry, want: Duration, n_vcpus: usize) -> WindowStats {
            let (w, f) = (tel.window(want), fold(tel, want, n_vcpus));
            assert_eq!((w.dt_ns, w.ticks), (f.dt_ns, f.ticks), "width of {want:?}");
            assert_eq!(w.counters, f.counters);
            assert_eq!(w.per_vcpu, f.per_vcpu);
            assert_eq!(w.hists, f.hists, "buckets, sum_ns and max_ns");
            assert_eq!(w.vcpu_call, f.vcpu_call);
            w
        }
        // Reads of a made-up run: each tick 90–110 ns wide, some calls
        // and some samples on each vCPU, the call max moving now and then.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) % n
        };
        let mut push_ticks = |tel: &Telemetry, r: &mut WindowStats, n: u64| {
            for _ in 0..n {
                r.at_ns += 90 + next(21);
                for v in 0..r.per_vcpu.len() {
                    let calls = next(5);
                    r.per_vcpu[v].calls += calls;
                    r.counters.calls += calls;
                    let ns = 1 + next(10_000);
                    r.vcpu_call[v].record(ns);
                    r.hists[LatencyKind::Call as usize].record(ns);
                    r.hists[LatencyKind::Handler as usize].record(ns / 2);
                }
                tel.push(|slot| slot.clone_from(r));
            }
        };

        // A young ring: the 1 s request is not covered, so the window
        // spans every retained read.
        let tel = idle(2);
        let mut r = WindowStats::empty(2);
        push_ticks(&tel, &mut r, 5);
        assert_eq!(check(&tel, Duration::from_secs(1), 2).ticks, 5);
        check(&tel, Duration::from_nanos(250), 2);
        tel.stop();

        // A ring wrapped past its depth: the oldest reads are gone.
        let tel = idle(2);
        let mut r = WindowStats::empty(2);
        push_ticks(&tel, &mut r, tel.depth() as u64 + 40);
        assert_eq!(check(&tel, Duration::from_secs(1), 2).ticks, tel.depth());
        for ns in [1, 100, 1_000, 33_333] {
            check(&tel, Duration::from_nanos(ns), 2);
        }

        // Samples far below the cumulative max: the max does not move,
        // so the window's is 0 ("unknown"), as is every tick's.
        r.hists[LatencyKind::Call as usize].record(1 << 30);
        r.vcpu_call[0].record(1 << 30);
        r.vcpu_call[1].record(1 << 30);
        tel.push(|slot| slot.clone_from(&r));
        push_ticks(&tel, &mut r, 8);
        let w = check(&tel, Duration::from_nanos(500), 2);
        assert!(w.hist(LatencyKind::Call).count() > 0);
        assert_eq!(w.hist(LatencyKind::Call).max_ns, 0);
        assert!(w.vcpu_call.iter().all(|h| h.max_ns == 0));
        tel.stop();
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
    /// first tick is ten seconds off: the two ticks in the series lie
    /// between the baseline and the two reads pushed by hand, the newer
    /// alone covering the 1 s window.
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
            Arc::new(ObsState::new(2)),
            Arc::new(FlightPlane::new(2)),
            Weak::new(),
            2,
        );
        // Two reads after the all-zero baseline, each cumulative.
        let mut r = WindowStats::empty(2);
        r.at_ns = 8_000_000_000;
        r.counters.calls = 40;
        r.counters.inline_calls = 40;
        r.per_vcpu[0].calls = 40;
        r.per_vcpu[0].inline_calls = 40;
        r.hists[LatencyKind::Call as usize].record(300);
        r.vcpu_call[0].record(300);
        tel.push(|slot| slot.clone_from(&r));
        r.at_ns = 9_500_000_000;
        r.counters.calls += 6;
        r.counters.handoff_calls = 6;
        r.counters.interference_ns = 20;
        r.counters.interference_probe_ns = 800;
        r.per_vcpu[1].calls = 6;
        r.per_vcpu[1].handoff_calls = 6;
        r.hists[LatencyKind::Handler as usize].record(2_000);
        r.hists[LatencyKind::Call as usize].record(2_500);
        r.vcpu_call[1].record(2_500);
        tel.push(|slot| slot.clone_from(&r));
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
