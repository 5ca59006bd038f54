//! The one trial loop every number in this benchmark comes from.
//!
//! Closed loop, one client thread: a workload's next operation starts
//! when the previous one has been verified. A run is: generate inputs
//! from the seed, then [`TRIALS`] trials, each of which sets the system
//! up afresh, warms it up, runs a timed stretch with the clock read once
//! per batch, and then times every unit by itself for the latency
//! figure. Every reported figure is the median over the trials.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{self, Pins};
use crate::stats::{LatHist, Summary};

/// What one [`Workload::unit`] did.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// Useful payload bytes moved (argument and result words on the
    /// null-call workloads).
    pub bytes: u64,
}

/// Where a workload runs and keeps its segment file.
#[derive(Clone, Debug)]
pub struct Env {
    pub pins: Pins,
    /// Directory for cross-process segment files (inside the build
    /// directory, so a run writes nothing outside its checkout).
    pub seg_dir: PathBuf,
    /// Test-only: make the server side return wrong answers, to prove
    /// that the checks in the loop see them.
    pub wrong_answers: bool,
}

impl Env {
    /// A fresh segment path: no two live servers of this process share one.
    pub fn seg_path(&self, tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.seg_dir
            .join(format!("ppcbench-{}-{tag}-{n}.seg", std::process::id()))
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Operations per [`Workload::unit`]: 16 on the ring workloads, where
    /// the unit is one batch from first submit to last reap.
    const UNIT_OPS: u64 = 1;
    /// Units between two clock reads in a timed trial (at least 16
    /// operations, so one clock pair stays under 2 % of the cheapest op).
    const BATCH_UNITS: u64 = 64;
    /// Threads that are busy while the loop runs (client + server).
    const BUSY_THREADS: usize;
    type Inputs;

    /// Everything random, made before any timing from the seed alone.
    fn generate(seed: u64) -> Self::Inputs;
    /// Build the system under test: runtime, entries, server thread or
    /// process, connection, grants. Timed as `setup_s`.
    fn setup(inputs: &Arc<Self::Inputs>, env: &Env) -> Self;
    /// One unit of work, checked.
    fn unit(&mut self) -> Tally;
    /// The server process, when the workload has one.
    fn server_pid(&self) -> Option<u32> {
        None
    }
    /// Orderly shutdown. Dropping without it must still stop the server
    /// and remove the segment file (the panic path).
    fn finish(self) {}
}

pub const TRIALS: usize = 7;
/// Operations run inside every set-up before it counts as ready, so
/// lazily created state (first-call pool growth, page faults on the
/// segment) is charged to set-up and not to the first trial.
pub const SETUP_WARM_OPS: u64 = 512;
/// Warm-up of each trial, on top of [`SETUP_WARM_OPS`].
const WARMUP: Duration = Duration::from_millis(100);
/// Share of `--seconds` given to the individually-timed passes.
const LATENCY_SHARE: f64 = 0.15;

pub struct EndToEnd {
    pub ops_per_s: Summary,
    pub bytes_per_s: Summary,
    pub p50_ns: Summary,
    pub latency_samples: u64,
    pub cpu_ns_per_op: Summary,
    pub setup_s: Summary,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Operations attempted so far, and how many of them failed their check.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

/// A fresh, warmed-up instance of `W` and the seconds its set-up took
/// (the warm-up after it is not part of that figure).
fn ready<W: Workload>(inputs: &Arc<W::Inputs>, env: &Env, n: &mut Counts) -> (W, f64) {
    let t0 = Instant::now();
    let mut w = W::setup(inputs, env);
    for _ in 0..SETUP_WARM_OPS / W::UNIT_OPS {
        n.failed += w.unit().failed;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    n.attempted += SETUP_WARM_OPS;
    let t0 = Instant::now();
    while t0.elapsed() < WARMUP {
        n.failed += w.unit().failed;
        n.attempted += W::UNIT_OPS;
    }
    (w, setup_s)
}

fn cpu_of(pid: Option<u32>) -> Duration {
    pid.and_then(host::cpu_time).unwrap_or_default()
}

/// The untraced run: every end-to-end metric of workload `W`.
///
/// Each of the [`TRIALS`] trials runs on a set-up of its own — a new
/// runtime, new threads, a new server process. How fast one instance
/// runs depends on where its slots and threads happened to land, and
/// that differs between instances as much as between runs; taking the
/// median over seven instances measures the program, not one layout of
/// it. It also makes `setup_s` a median of seven set-ups.
pub fn end_to_end<W: Workload>(seed: u64, seconds: u64, env: &Env) -> EndToEnd {
    let inputs = Arc::new(W::generate(seed));
    let share = |f: f64| Duration::from_secs_f64(seconds as f64 * f / TRIALS as f64);
    let (trial_budget, latency_budget) = (share(1.0 - LATENCY_SHARE), share(LATENCY_SHARE));
    let me = std::process::id();
    let mut n = Counts::default();
    let mut peak_server_mb = 0f64;
    let mut latency_samples = 0u64;
    let mut cols: [Vec<f64>; 5] = std::array::from_fn(|_| Vec::with_capacity(TRIALS));
    for _ in 0..TRIALS {
        let (mut w, setup_s) = ready::<W>(&inputs, env, &mut n);

        let cpu0 = cpu_of(Some(me)) + cpu_of(w.server_pid());
        let (mut ops, mut bytes) = (0u64, 0u64);
        let t0 = Instant::now();
        let elapsed = loop {
            for _ in 0..W::BATCH_UNITS {
                let t = w.unit();
                n.failed += t.failed;
                bytes += t.bytes;
            }
            ops += W::BATCH_UNITS * W::UNIT_OPS;
            let e = t0.elapsed();
            if e >= trial_budget {
                break e.as_secs_f64();
            }
        };
        let cpu = (cpu_of(Some(me)) + cpu_of(w.server_pid())).saturating_sub(cpu0);

        let (hist, lat_failed) = latency_pass(&mut w, latency_budget);
        n.failed += lat_failed;
        n.attempted += ops + hist.count() * W::UNIT_OPS;
        latency_samples += hist.count();
        peak_server_mb =
            peak_server_mb.max(w.server_pid().and_then(host::peak_rss_mib).unwrap_or(0.0));
        w.finish();

        let trial = [
            ops as f64 / elapsed,
            bytes as f64 / elapsed,
            hist.median_interp(),
            cpu.as_nanos() as f64 / ops as f64,
            setup_s,
        ];
        for (col, v) in cols.iter_mut().zip(trial) {
            col.push(v);
        }
    }
    let [ops_per_s, bytes_per_s, p50_ns, cpu_ns_per_op, setup_s] = cols.map(|c| Summary::of(&c));
    EndToEnd {
        ops_per_s,
        bytes_per_s,
        p50_ns,
        latency_samples,
        cpu_ns_per_op,
        setup_s,
        peak_rss_mb: host::peak_rss_mib(me).unwrap_or(0.0) + peak_server_mb,
        attempted: n.attempted,
        failed: n.failed,
    }
}

/// Time every unit by itself for `budget`; one clock read per unit (the
/// end of one sample is the start of the next).
fn latency_pass<W: Workload>(w: &mut W, budget: Duration) -> (LatHist, u64) {
    let mut hist = LatHist::new();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut prev = start;
    loop {
        failed += w.unit().failed;
        let now = Instant::now();
        hist.record((now - prev).as_nanos() as u64);
        prev = now;
        if now - start >= budget {
            break;
        }
    }
    hist.seal();
    (hist, failed)
}

pub struct Tail {
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub max_ns: f64,
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run's view of workload `W`: one set-up, warm-up, then an
/// individually-timed pass for the tail percentiles.
pub fn tail<W: Workload>(seed: u64, budget: Duration, env: &Env) -> Tail {
    let inputs = Arc::new(W::generate(seed));
    let mut n = Counts::default();
    let (mut w, _) = ready::<W>(&inputs, env, &mut n);
    let (hist, lat_failed) = latency_pass(&mut w, budget);
    w.finish();
    let at = |q: f64| {
        hist.tail(q)
            .unwrap_or_else(|| hist.value_at_rank(hist.count() - 1))
    };
    Tail {
        p99_ns: at(0.99),
        p999_ns: at(0.999),
        max_ns: at(1.0),
        samples: hist.count(),
        attempted: n.attempted + hist.count() * W::UNIT_OPS,
        failed: n.failed + lat_failed,
    }
}
