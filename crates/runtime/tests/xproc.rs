//! Cross-process transport integration tests: client and server in
//! **different PIDs**, exercising `call`, `call_with_payload`,
//! `call_bulk`, and ring submit/reap through the shared segment — plus
//! the same-API invariant (one test body run against both transports),
//! the ring conformance bodies of `conformance/` on the segment
//! front-end, slot lifecycle (re-claim, detach with queued work),
//! segment byte-dump validation, and peer-death robustness.
//!
//! The child process is this same test binary re-executed with
//! `PPC_XPROC_CHILD_PATH` set: the hidden `xproc_child_server` "test"
//! builds a runtime, binds the shared entry table, and serves the
//! segment until a client asks it to shut down (or it is killed). The
//! fork(2)-based `ppc_rt::xproc::fork_server` is not used here because
//! the libtest harness is threaded by the time any `#[test]` runs.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, OnceLock, RwLock, Weak};
use std::time::{Duration, Instant};

use ppc_rt::xproc::validate_segment;
use ppc_rt::{
    affinity, BulkDesc, CallCtx, Completion, EntryId, EntryOptions, FlightKind, Kind, RtError, Runtime,
    Snapshot, SpinPolicy, XClient, XSegOptions,
};

mod conformance;
use conformance::{watchdog, Eps, Gate, Rig, RingFront};

/// The regime tests at the bottom assert which side of the poll/sleep
/// line a serve loop lands on, and that depends on nothing else
/// borrowing the host's CPUs meanwhile: they hold this exclusively,
/// every other test here shared (the guard lives inside the
/// `LockResult`, poisoned or not).
static CPUS: RwLock<()> = RwLock::new(());

/// Bind the entry table both processes agree on. Bind order fixes the
/// entry ids on a fresh runtime; the constants below are that order.
fn bind_test_entries(rt: &Arc<Runtime>) {
    let add = rt
        .bind(
            "add",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let a = ctx.args;
                [a[0] + a[1], a[0], a[1], 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let upper = rt
        .bind(
            "upper",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().expect("descriptor in args[7]");
                let n = ctx
                    .with_bulk_mut(desc, |bytes| {
                        for b in bytes.iter_mut() {
                            b.make_ascii_uppercase();
                        }
                        bytes.len()
                    })
                    .expect("granted access");
                [0, n as u64, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let psum = rt
        .bind(
            "psum",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let n = ctx.args[0] as usize;
                let sum: u64 = ctx.scratch()[..n].iter().map(|b| u64::from(*b)).sum();
                ctx.scratch()[..8].copy_from_slice(&sum.to_le_bytes());
                [sum, 0, 0, 0, 0, 0, 0, 8]
            }),
        )
        .unwrap();
    let slow = rt
        .bind(
            "slow",
            EntryOptions::default(),
            Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(ctx.args[0]));
                [0; 8]
            }),
        )
        .unwrap();
    // The regime tests' pair: an echo, and a probe of the serving
    // runtime's own transport counters. The serve thread is the only
    // server thread on a remote call's path, whatever the entry's
    // options; these two are bound inline all the same.
    let inline = EntryOptions { inline_ok: true, ..EntryOptions::default() };
    let echo = rt.bind("echo", inline, Arc::new(|ctx| ctx.args)).unwrap();
    let weak = Arc::downgrade(rt);
    let stats = rt
        .bind(
            "stats",
            inline,
            Arc::new(move |_| {
                let s = weak.upgrade().expect("runtime alive while serving").stats.snapshot();
                [s.xproc_calls, s.xproc_wakes, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    // A handler that reports its own strong count from inside its call,
    // and a peek at the same count from outside it.
    let me = SelfRef::default();
    let own = rt.bind("own-count", EntryOptions::default(), self_counting(&me)).unwrap();
    let peek = rt.bind("peek-count", inline, Arc::new(move |_| [strong_count(&me); 8])).unwrap();
    assert_eq!(
        (add, upper, psum, slow, echo, stats, own, peek),
        (EP_ADD, EP_UPPER, EP_PSUM, EP_SLOW, EP_ECHO, EP_STATS, EP_OWN_COUNT, EP_PEEK_COUNT)
    );
}

const EP_ADD: EntryId = 0;
const EP_UPPER: EntryId = 1;
const EP_PSUM: EntryId = 2;
const EP_SLOW: EntryId = 3;
const EP_ECHO: EntryId = 4;
const EP_STATS: EntryId = 5;
const EP_OWN_COUNT: EntryId = 6;
const EP_PEEK_COUNT: EntryId = 7;
/// The first of `conformance::bind_entries`' table.
const EP_CONFORMANCE: EntryId = 8;

/// Where a self-counting handler finds its own `Arc`, once it exists.
type SelfRef = Arc<OnceLock<Weak<dyn Fn(&mut CallCtx<'_>) -> [u64; 8] + Send + Sync>>>;

fn strong_count(me: &SelfRef) -> u64 {
    me.get().map_or(0, Weak::strong_count) as u64
}

/// A handler that answers with its own strong count, read from inside
/// the call.
fn self_counting(me: &SelfRef) -> ppc_rt::Handler {
    let mine = Arc::clone(me);
    let h: ppc_rt::Handler = Arc::new(move |_| [strong_count(&mine); 8]);
    assert!(me.set(Arc::downgrade(&h)).is_ok(), "one handler per SelfRef");
    h
}

/// Where a server child at `path` keeps its conformance gate files.
fn gate_dir(path: &Path) -> PathBuf {
    path.with_extension("gate")
}

/// The hidden server half: runs only when re-executed with the env var
/// set (a bare `cargo test` run sees it pass as a no-op).
#[test]
fn xproc_child_server() {
    let Some(path) = std::env::var_os("PPC_XPROC_CHILD_PATH") else {
        return;
    };
    // Self-deadline so an orphaned child can never outlive the test run.
    watchdog(120);
    let rt = Runtime::new(1);
    // The child's settings, one variable: `park_only,n_clients,ring_depth`.
    let set = std::env::var("PPC_XPROC_CHILD_OPTS").expect("set by `spawn_sized`");
    let set: Vec<usize> = set.split(',').map(|w| w.parse().unwrap()).collect();
    if set[0] != 0 {
        rt.set_spin_policy(SpinPolicy::ParkOnly);
    }
    bind_test_entries(&rt);
    let eps = conformance::bind_entries(&rt, &gate_dir(Path::new(&path)));
    assert_eq!(eps.echo, EP_CONFORMANCE);
    let opts = XSegOptions { n_clients: set[1], ring_depth: set[2] as u32, ..XSegOptions::default() };
    let mut srv = rt.serve_xproc(Path::new(&path), opts).expect("child serves the segment");
    srv.wait();
}

/// The hidden client half of the re-claim test: queue five tagged SQEs
/// on the segment at `PPC_XPROC_CLIENT_PATH`, reap two of them, say so
/// (the `.ready` file), and wait to be SIGKILLed mid-batch.
#[test]
fn xproc_child_client() {
    let Some(path) = std::env::var_os("PPC_XPROC_CLIENT_PATH") else {
        return;
    };
    watchdog(120);
    let path = PathBuf::from(path);
    let mut xc = XClient::connect_retry(&path, 66, Duration::from_secs(10)).expect("connect");
    for tag in 6600..6605u64 {
        xc.submit(EP_ECHO, [tag; 8], tag).unwrap();
    }
    xc.ring_doorbell();
    reap_all(&mut xc, 2, Duration::from_secs(10)).unwrap();
    std::fs::write(path.with_extension("ready"), b"").unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// A spawned server child, killed and reaped on drop so a failing
/// parent assertion can't leak processes.
struct ChildServer {
    child: Child,
    path: PathBuf,
}

impl ChildServer {
    fn spawn(tag: &str) -> ChildServer {
        ChildServer::spawn_with(tag, false)
    }

    /// `park_only`: the child's runtime runs `SpinPolicy::ParkOnly`.
    fn spawn_with(tag: &str, park_only: bool) -> ChildServer {
        let d = XSegOptions::default();
        ChildServer::spawn_sized(tag, park_only, d.n_clients, d.ring_depth)
    }

    /// A child serving a segment of `n_clients` slots, rings
    /// `ring_depth` deep.
    fn spawn_sized(tag: &str, park_only: bool, n_clients: usize, ring_depth: u32) -> ChildServer {
        let path = ppc_rt::shm::segment_dir()
            .join(format!("ppc-xproc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(std::env::current_exe().unwrap())
            .env("PPC_XPROC_CHILD_OPTS", format!("{},{n_clients},{ring_depth}", park_only as u8))
            .args(["xproc_child_server", "--exact", "--test-threads=1", "--nocapture"])
            .env("PPC_XPROC_CHILD_PATH", &path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn child server");
        ChildServer { child, path }
    }

    fn connect(&self, program: u32) -> XClient {
        XClient::connect_retry(&self.path, program, Duration::from_secs(10))
            .expect("connect to child server")
    }

    /// SIGKILL the child **and reap it**: `pid_alive` (and hence the
    /// client's liveness checks) sees a zombie as alive until the
    /// parent waits on it, exactly like any real supervisor would.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_dir_all(gate_dir(&self.path));
    }
}

/// Reap until `want` completions or the deadline; errors pass through.
fn reap_all(
    xc: &mut XClient,
    want: usize,
    deadline: Duration,
) -> Result<Vec<Completion>, RtError> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < want {
        xc.reap(want - out.len(), &mut out)?;
        assert!(t0.elapsed() < deadline, "reaped {}/{want} before deadline", out.len());
        std::hint::spin_loop();
    }
    Ok(out)
}

/// The acceptance-criteria test: one client, one server, **different
/// PIDs**, exercising `call`, payload calls, `call_bulk`, and ring
/// submit/reap through the shared segment.
#[test]
fn cross_process_call_bulk_and_ring() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn("main");
    let mut xc = srv.connect(7);

    // Plain sync call.
    let rets = xc.call(EP_ADD, [5, 6, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(rets[0], 11);
    assert_eq!((rets[1], rets[2]), (5, 6));

    // Error surface crosses the boundary intact.
    assert_eq!(xc.call(99, [0; 8]), Err(RtError::UnknownEntry(99)));

    // Payload call: request bytes ride the slot's payload page, the
    // response payload comes back the same way.
    let req = vec![3u8; 100];
    let mut args = [0u64; 8];
    args[0] = req.len() as u64;
    let (rets, resp) = xc.call_with_payload(EP_PSUM, args, &req).unwrap();
    assert_eq!(rets[0], 300);
    assert_eq!(resp.len(), 8);
    assert_eq!(u64::from_le_bytes(resp.try_into().unwrap()), 300);

    // Async call.
    let pending = xc.call_async(EP_ADD, [20, 22, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(pending.wait().unwrap()[0], 42);

    // Bulk: fill the share, grant the entry, call with a descriptor —
    // the handler uppercases the span in place across the boundary.
    let data = b"hello cross-process bulk".to_vec();
    xc.bulk_write(0, &data).unwrap();
    xc.bulk_grant(EP_UPPER, true).unwrap();
    let desc = xc.bulk_desc(0, data.len() as u32, true).unwrap();
    let rets = xc.call_bulk(EP_UPPER, [0; 8], desc).unwrap();
    assert_eq!(rets[1] as usize, data.len());
    let back = xc.bulk_read(0, data.len()).unwrap();
    assert_eq!(back, data.to_ascii_uppercase());

    // Ring: pipeline a batch of calls through SQ/CQ in the segment.
    for user in 0..16u64 {
        xc.submit(EP_ADD, [user, user, 0, 0, 0, 0, 0, 0], user).unwrap();
    }
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 16, Duration::from_secs(10)).unwrap();
    assert_eq!(done.len(), 16);
    let mut seen = [false; 16];
    for c in &done {
        assert_eq!(c.ep, EP_ADD);
        assert_eq!(c.result.as_ref().unwrap()[0], c.user * 2);
        seen[c.user as usize] = true;
    }
    assert!(seen.iter().all(|s| *s), "every submission completed");

    // Ring payload staging.
    let payload = vec![2u8; 50];
    let mut args = [0u64; 8];
    args[0] = payload.len() as u64;
    xc.submit_payload(EP_PSUM, args, 77, &payload).unwrap();
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 1, Duration::from_secs(10)).unwrap();
    assert_eq!(done[0].user, 77);
    assert_eq!(done[0].result.as_ref().unwrap()[0], 100);

    // Ring bulk: payload lands in the client's share before the SQE.
    let bulk = b"ring bulk payload".to_vec();
    let desc = xc.bulk_desc(4096, bulk.len() as u32, true).unwrap();
    xc.submit_bulk(EP_UPPER, [0; 8], 88, desc, &bulk).unwrap();
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 1, Duration::from_secs(10)).unwrap();
    assert_eq!(done[0].user, 88);
    assert_eq!(xc.bulk_read(4096, bulk.len()).unwrap(), bulk.to_ascii_uppercase());

    // Cooperative teardown: the client asks, the child's serve loop
    // exits, the child process terminates cleanly.
    xc.shutdown_server();
    let status = srv.child.wait().expect("child reaped");
    assert!(status.success(), "child exited cleanly: {status:?}");
}

/// The same-API invariant: one test body, two transports. Everything a
/// caller can observe — results, error values, completion pairing — is
/// identical whether the server lives in this process or another one.
trait Transport {
    fn call(&mut self, ep: EntryId, args: [u64; 8]) -> Result<[u64; 8], RtError>;
    fn bulk_upper(&mut self, data: &[u8]) -> Result<Vec<u8>, RtError>;
    fn ring_submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError>;
    fn ring_doorbell(&mut self);
    fn ring_reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, RtError>;
}

struct InProc {
    client: ppc_rt::Client,
    ring: ppc_rt::ClientRing,
}

impl Transport for InProc {
    fn call(&mut self, ep: EntryId, args: [u64; 8]) -> Result<[u64; 8], RtError> {
        self.client.call(ep, args)
    }

    fn bulk_upper(&mut self, data: &[u8]) -> Result<Vec<u8>, RtError> {
        let region = self.client.bulk_register(data.len())?;
        region.fill(0, data)?;
        region.grant(EP_UPPER, true)?;
        self.client.call_bulk(EP_UPPER, [0; 8], region.full_desc(true))?;
        let mut out = vec![0u8; data.len()];
        region.read_into(0, &mut out)?;
        Ok(out)
    }

    fn ring_submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        self.ring.submit(ep, args, user)
    }

    fn ring_doorbell(&mut self) {
        self.ring.doorbell();
    }

    fn ring_reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, RtError> {
        Ok(self.ring.reap(usize::MAX, out))
    }
}

struct XProc {
    xc: XClient,
    granted: bool,
}

impl Transport for XProc {
    fn call(&mut self, ep: EntryId, args: [u64; 8]) -> Result<[u64; 8], RtError> {
        self.xc.call(ep, args)
    }

    fn bulk_upper(&mut self, data: &[u8]) -> Result<Vec<u8>, RtError> {
        if !self.granted {
            self.xc.bulk_grant(EP_UPPER, true)?;
            self.granted = true;
        }
        self.xc.bulk_write(0, data)?;
        let desc = self.xc.bulk_desc(0, data.len() as u32, true)?;
        self.xc.call_bulk(EP_UPPER, [0; 8], desc)?;
        self.xc.bulk_read(0, data.len())
    }

    fn ring_submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        self.xc.submit(ep, args, user)
    }

    fn ring_doorbell(&mut self) {
        self.xc.ring_doorbell();
    }

    fn ring_reap(&mut self, out: &mut Vec<Completion>) -> Result<usize, RtError> {
        self.xc.reap(usize::MAX, out)
    }
}

/// The shared body. Each observable below must hold for any transport.
fn exercise_transport(t: &mut dyn Transport) {
    // Results round-trip.
    let rets = t.call(EP_ADD, [19, 23, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(rets[0], 42);
    // Errors carry the same payload.
    assert_eq!(t.call(99, [0; 8]), Err(RtError::UnknownEntry(99)));
    assert_eq!(t.call(EP_ADD + 500, [0; 8]), Err(RtError::UnknownEntry(EP_ADD + 500)));
    // Bulk mutates the span and only the span.
    let out = t.bulk_upper(b"mixed CASE bytes").unwrap();
    assert_eq!(out, b"MIXED CASE BYTES");
    // Ring completions pair user tags with their results.
    for user in 0..8u64 {
        t.ring_submit(EP_ADD, [user, 100, 0, 0, 0, 0, 0, 0], user).unwrap();
    }
    t.ring_doorbell();
    let t0 = Instant::now();
    let mut done = Vec::new();
    while done.len() < 8 {
        t.ring_reap(&mut done).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10), "ring drained");
    }
    done.sort_by_key(|c| c.user);
    for (user, c) in done.iter().enumerate() {
        assert_eq!(c.user, user as u64);
        assert_eq!(c.result.as_ref().unwrap()[0], user as u64 + 100);
    }
}

#[test]
fn same_api_invariant_in_both_modes() {
    watchdog(90);
    let _shared = CPUS.read();
    // In-process mode.
    let rt = Runtime::new(1);
    bind_test_entries(&rt);
    let client = rt.client(0, 7);
    let ring = client.ring();
    exercise_transport(&mut InProc { client, ring });

    // Cross-process mode: same body, server in another PID.
    let mut srv = ChildServer::spawn("invariant");
    let xc = srv.connect(7);
    let mut xp = XProc { xc, granted: false };
    exercise_transport(&mut xp);
    xp.xc.shutdown_server();
    let status = srv.child.wait().expect("child reaped");
    assert!(status.success());
}

/// A handler runs borrowed from its entry on every transport: the strong
/// count it reads of its own `Arc` inside a call equals the count outside
/// one. A per-call clone reads one more — and is a locked add and
/// subtract on a line every caller of the entry writes.
#[test]
fn handlers_run_borrowed_on_every_transport() {
    watchdog(90);
    let _shared = CPUS.read();
    let rt = Runtime::new(1);
    let client = rt.client(0, 7);
    let mut ring = client.ring();
    for inline_ok in [true, false] {
        let me = SelfRef::default();
        let opts = EntryOptions { inline_ok, ..EntryOptions::default() };
        let ep = rt.bind("", opts, self_counting(&me)).unwrap();
        let outside = strong_count(&me);
        let how = if inline_ok { "inline" } else { "hand-off" };
        assert_eq!(client.call(ep, [0; 8]).unwrap()[0], outside, "{how} call");
        assert_eq!(client.call_async(ep, [0; 8]).unwrap().wait()[0], outside, "async call");
        ring.submit(ep, [0; 8], 0).unwrap();
        let mut done = Vec::new();
        ring.drain(&mut done);
        assert_eq!(done[0].result.as_ref().unwrap()[0], outside, "ring call");
    }

    let mut srv = ChildServer::spawn("borrowed");
    let mut xc = srv.connect(7);
    let outside = xc.call(EP_PEEK_COUNT, [0; 8]).unwrap()[0];
    assert_eq!(xc.call(EP_OWN_COUNT, [0; 8]).unwrap()[0], outside, "XClient call");
    xc.submit(EP_OWN_COUNT, [0; 8], 0).unwrap();
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 1, Duration::from_secs(10)).unwrap();
    assert_eq!(done[0].result.as_ref().unwrap()[0], outside, "XClient ring call");
    xc.shutdown_server();
    assert!(srv.child.wait().expect("child reaped").success());
}

/// Segment validation: a byte-for-byte dump of a live segment passes
/// the layout-version check; corrupted or truncated dumps are refused
/// with a clean [`RtError::BadSegment`] — never UB, never a hang.
#[test]
fn segment_byte_dump_round_trips_validation() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn("dump");
    let mut xc = srv.connect(7);
    // Force some traffic — slot and ring — so the dump is of a
    // *working* segment.
    xc.call(EP_ADD, [1, 2, 0, 0, 0, 0, 0, 0]).unwrap();
    xc.submit_payload(EP_PSUM, [3, 0, 0, 0, 0, 0, 0, 0], 1, &[1, 2, 3, 0, 0, 0, 0, 0]).unwrap();
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 1, Duration::from_secs(10)).unwrap();
    assert_eq!(done[0].result, Ok([6, 0, 0, 0, 0, 0, 0, 8]));
    validate_segment(&srv.path).expect("live segment validates");

    let bytes = std::fs::read(&srv.path).expect("dump the segment");
    let copy = srv.path.with_extension("dump");

    // Round trip: the byte dump validates as-is.
    std::fs::write(&copy, &bytes).unwrap();
    validate_segment(&copy).expect("byte dump round-trips validation");

    // Another version (offset 8 is `layout_version` by the asserted
    // layout) — a garbled one; layout 1, which had a pad where the
    // header now keeps the server's sleeper flag; layout 2, whose ring
    // entries were 96 and 88 bytes: clean error.
    assert_eq!(bytes[8..12], ppc_rt::XPROC_LAYOUT_VERSION.to_le_bytes());
    for version in [bytes[8] ^ 0xFF, 1, 2] {
        let mut bad = bytes.clone();
        bad[8] = version;
        std::fs::write(&copy, &bad).unwrap();
        assert_eq!(validate_segment(&copy), Err(RtError::BadSegment));
    }

    // Bad magic: clean error.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&copy, &bad).unwrap();
    assert_eq!(validate_segment(&copy), Err(RtError::BadSegment));

    // Truncated dump: the geometry cross-check refuses it.
    std::fs::write(&copy, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(validate_segment(&copy), Err(RtError::BadSegment));

    // Geometry lie (ring_depth at offset 16 per the asserted layout):
    // recomputed offsets disagree, refused.
    let mut bad = bytes.clone();
    bad[16] = bad[16].wrapping_add(1);
    std::fs::write(&copy, &bad).unwrap();
    assert_eq!(validate_segment(&copy), Err(RtError::BadSegment));

    let _ = std::fs::remove_file(&copy);
    xc.shutdown_server();
    let _ = srv.child.wait();
}

/// Dropping an un-waited async call must not wedge the slot: the next
/// operation — and the client's own detach-on-drop — must still work.
/// (An abandoned call parks the slot at DONE; without drop-side
/// cleanup, the next fill would spin on IDLE forever.)
#[test]
fn abandoned_async_call_releases_slot() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn("abandon");
    let mut xc = srv.connect(7);

    // Abandon a completed (or soon-complete) call.
    let pending = xc.call_async(EP_ADD, [1, 2, 0, 0, 0, 0, 0, 0]).unwrap();
    drop(pending);
    assert_eq!(xc.call(EP_ADD, [30, 12, 0, 0, 0, 0, 0, 0]).unwrap()[0], 42);

    // Abandon one still in flight on a slow entry: drop blocks until
    // the handler finishes, then the slot is reusable.
    let pending = xc.call_async(EP_SLOW, [50, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    drop(pending);
    assert_eq!(xc.call(EP_ADD, [2, 3, 0, 0, 0, 0, 0, 0]).unwrap()[0], 5);

    xc.shutdown_server();
    let status = srv.child.wait().expect("child reaped");
    assert!(status.success(), "child exited cleanly: {status:?}");
}

/// Kill the server **mid-call**: the parent's wait must resolve to a
/// timely [`RtError::PeerGone`] (no hang), subsequent operations must
/// fail fast, and the loss must land in the flight recorder.
#[test]
fn peer_death_mid_call_is_timely_error() {
    watchdog(90);
    let _shared = CPUS.read();
    let obs_rt = Runtime::new(1);
    let mut srv = ChildServer::spawn("midcall");
    let mut xc = srv.connect(7).with_obs(Arc::clone(&obs_rt), 0);

    // A call the server will sit in for 30s — far past every deadline
    // below, so completion cannot race the kill.
    let pending = xc.call_async(EP_SLOW, [30_000, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    // Let the server actually pick it up, then kill it mid-handler.
    std::thread::sleep(Duration::from_millis(100));
    srv.kill();

    let t0 = Instant::now();
    assert_eq!(pending.wait(), Err(RtError::PeerGone));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "peer loss detected in {:?}, not a hang",
        t0.elapsed()
    );

    // Everything after fails fast — no leaked in-flight state.
    assert_eq!(xc.call(EP_ADD, [1; 8]), Err(RtError::PeerGone));
    assert_eq!(xc.submit(EP_ADD, [1; 8], 0), Err(RtError::PeerGone));
    assert_eq!(xc.bulk_grant(EP_UPPER, false), Err(RtError::PeerGone));

    // The loss is on the record.
    let events = obs_rt.flight().snapshot(0);
    assert!(
        events.iter().any(|e| e.kind == Kind::Flight(FlightKind::PeerLost)),
        "flight recorder holds the PeerLost event: {events:?}"
    );
}

/// `bulk_revoke` withdraws a grant across the boundary: after it, the
/// entry's next `call_bulk` and a ring `submit_bulk` to it both fault in
/// the handler (its `with_bulk_mut` is refused), the share's bytes are
/// left as the client wrote them, and a second revoke finds nothing.
#[test]
fn bulk_revoke_refuses_the_next_call_and_submission() {
    watchdog(90);
    let _shared = CPUS.read();
    let srv = ChildServer::spawn("revoke");
    let mut xc = srv.connect(11);
    let data = b"granted, then revoked".to_vec();
    xc.bulk_write(0, &data).unwrap();
    xc.bulk_grant(EP_UPPER, true).unwrap();
    let desc = xc.bulk_desc(0, data.len() as u32, true).unwrap();
    assert_eq!(xc.call_bulk(EP_UPPER, [0; 8], desc).unwrap()[1] as usize, data.len());
    assert_eq!(xc.bulk_read(0, data.len()).unwrap(), data.to_ascii_uppercase());

    assert_eq!(xc.bulk_revoke(EP_UPPER), Ok(1));
    xc.bulk_write(0, &data).unwrap();
    assert_eq!(xc.call_bulk(EP_UPPER, [0; 8], desc), Err(RtError::ServerFault(EP_UPPER)));
    let queued = xc.bulk_desc(4096, data.len() as u32, true).unwrap();
    xc.submit_bulk(EP_UPPER, [0; 8], 5, queued, &data).unwrap();
    xc.ring_doorbell();
    let done = reap_all(&mut xc, 1, Duration::from_secs(10)).unwrap();
    assert_eq!((done[0].user, &done[0].result), (5, &Err(RtError::ServerFault(EP_UPPER))));
    for off in [0, 4096] {
        assert_eq!(xc.bulk_read(off, data.len()).unwrap(), data, "share at {off} unmodified");
    }
    assert_eq!(xc.bulk_revoke(EP_UPPER), Ok(0), "nothing left to revoke");
}

/// Kill the server **mid-submit_bulk**: queued ring work resolves to a
/// timely [`RtError::PeerGone`] from `reap`, in-flight slots are
/// forfeited with the segment (no RingFull lockout afterwards — the
/// error is PeerGone), and the client is cleanly dead.
#[test]
fn peer_death_mid_submit_bulk_is_timely_error() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn("midbulk");
    let mut xc = srv.connect(9);
    xc.bulk_grant(EP_UPPER, true).unwrap();

    // Stall the server first so the bulk submissions sit in the SQ.
    xc.submit(EP_SLOW, [30_000, 0, 0, 0, 0, 0, 0, 0], 1).unwrap();
    let payload = vec![b'q'; 512];
    for user in 2..6u64 {
        let desc = xc.bulk_desc((user as u32) * 1024, payload.len() as u32, true).unwrap();
        xc.submit_bulk(EP_UPPER, [0; 8], user, desc, &payload).unwrap();
    }
    xc.ring_doorbell();
    assert!(xc.in_flight() >= 5);
    std::thread::sleep(Duration::from_millis(100));
    srv.kill();

    let t0 = Instant::now();
    let mut out = Vec::new();
    let err = loop {
        match xc.reap(16, &mut out) {
            Ok(_) => {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "reap noticed peer death before the deadline"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => break e,
        }
    };
    assert_eq!(err, RtError::PeerGone);
    assert_eq!(xc.in_flight(), 0, "in-flight slots released with the peer");
    // Dead client fails fast, with PeerGone — not RingFull, not a hang.
    assert_eq!(xc.submit(EP_ADD, [0; 8], 9), Err(RtError::PeerGone));
    assert_eq!(xc.call(EP_ADD, [0; 8]), Err(RtError::PeerGone));
}

// ---------------------------------------------------------------------
// Ring conformance on the segment front-end
// ---------------------------------------------------------------------

/// A server child with the conformance entries bound, handing out
/// `XClient`s.
struct XRig {
    srv: ChildServer,
    gate: Gate,
}

impl XRig {
    fn new(tag: &str, park_only: bool, ring_depth: u32) -> XRig {
        watchdog(120);
        let srv = ChildServer::spawn_sized(tag, park_only, 2, ring_depth);
        let gate = Gate::at(&gate_dir(&srv.path));
        XRig { srv, gate }
    }
}

impl Rig for XRig {
    fn eps(&self) -> Eps {
        Eps::at(EP_CONFORMANCE)
    }

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn front(&mut self, program: u32) -> Box<dyn RingFront> {
        Box::new(self.srv.connect(program))
    }

    fn stats(&self) -> Option<Snapshot> {
        None
    }
}

impl RingFront for XClient {
    fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        XClient::submit(self, ep, args, user)
    }

    fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError> {
        XClient::submit_payload(self, ep, args, user, payload)
    }

    fn submit_bulk(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError> {
        XClient::submit_bulk(self, ep, args, user, desc, payload)
    }

    fn doorbell(&mut self) {
        self.ring_doorbell();
    }

    fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        XClient::reap(self, max, out).expect("server alive")
    }

    fn in_flight(&self) -> u64 {
        XClient::in_flight(self)
    }

    fn depth(&self) -> u64 {
        self.ring_depth()
    }

    fn bulk_desc(&mut self, ep: EntryId, len: u32) -> BulkDesc {
        self.bulk_grant(ep, true).unwrap();
        XClient::bulk_desc(self, 0, len, true).unwrap()
    }
}

#[test]
fn segment_ring_wraparound_preserves_order_across_many_laps() {
    let _shared = CPUS.read();
    conformance::wraparound_preserves_order_across_many_laps(&mut XRig::new("c-wrap", false, 8));
}

#[test]
fn segment_ring_interleaved_entries_run_and_reap_in_submission_order() {
    let _shared = CPUS.read();
    let mut rig = XRig::new("c-interleave", false, 16);
    conformance::interleaved_entries_run_and_reap_in_submission_order(&mut rig);
}

#[test]
fn segment_ring_credit_exhaustion_refuses_without_deadlock() {
    let _shared = CPUS.read();
    conformance::credit_exhaustion_refuses_without_deadlock(&mut XRig::new("c-credit", false, 4));
}

#[test]
fn segment_ring_admission_refuses_only_when_really_full() {
    let _shared = CPUS.read();
    let mut rig = XRig::new("c-admit", false, 2);
    conformance::admission_refuses_only_at_depth_in_flight(&mut rig);
}

#[test]
fn segment_ring_admission_never_overwrites_an_unread_sqe() {
    let _shared = CPUS.read();
    conformance::admission_never_overwrites_an_unread_sqe(&mut XRig::new("c-laps", false, 2));
}

#[test]
fn segment_ring_payload_rides_as_handler_scratch() {
    let _shared = CPUS.read();
    conformance::payload_rides_as_handler_scratch(&mut XRig::new("c-payload", false, 8));
}

#[test]
fn segment_ring_submit_bulk_copies_into_share_before_handler() {
    let _shared = CPUS.read();
    conformance::submit_bulk_copies_into_region_before_handler(&mut XRig::new("c-bulk", false, 8));
}

#[test]
fn segment_ring_submit_bulk_denies_foreign_descriptors() {
    let _shared = CPUS.read();
    conformance::submit_bulk_denies_foreign_descriptors(&mut XRig::new("c-denied", false, 8));
}

#[test]
fn segment_ring_handler_fault_is_contained_to_its_completion() {
    let _shared = CPUS.read();
    conformance::handler_fault_is_contained_to_its_completion(&mut XRig::new("c-fault", false, 8));
}

#[test]
fn segment_ring_park_only_server_progresses_via_doorbell() {
    let _shared = CPUS.read();
    conformance::park_only_ring_progresses_via_doorbell(&mut XRig::new("c-park", true, 8));
}

#[test]
fn segment_ring_drop_with_queued_work_shuts_down_cleanly() {
    let _shared = CPUS.read();
    conformance::drop_with_queued_work_shuts_down_cleanly(&mut XRig::new("c-drop", false, 8));
}

// ---------------------------------------------------------------------
// Slot lifecycle: every owner starts from an empty ring
// ---------------------------------------------------------------------

/// Five SQEs tagged `round·100 + i`, echoed: the client must reap
/// exactly its own five, in order, and nothing else.
fn five_of_its_own(xc: &mut XClient, round: u64) {
    for i in 0..5 {
        let tag = round * 100 + i;
        xc.submit(EP_ECHO, [tag; 8], tag).unwrap();
    }
    xc.ring_doorbell();
    let done = reap_all(xc, 5, Duration::from_secs(10)).unwrap();
    for (i, c) in done.iter().enumerate() {
        let tag = round * 100 + i as u64;
        assert_eq!((c.user, &c.result), (tag, &Ok([tag; 8])), "round {round}");
    }
    assert_eq!((xc.reap(16, &mut Vec::new()), xc.in_flight()), (Ok(0), 0), "and no more");
}

/// A one-slot segment served to a sequence of owners: whatever the
/// previous owner left in the slot's ring — completions it never
/// reaped, SQEs it never got served — the next owner starts from an
/// empty ring. First three clean drops, then an owner SIGKILLed with
/// three of its five completions unreaped (the sweep reclaims the slot).
#[test]
fn reclaimed_slot_starts_from_an_empty_ring() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn_sized("reclaim", false, 1, 32);
    for round in 0..3 {
        five_of_its_own(&mut srv.connect(10 + round as u32), round);
    }

    let ready = srv.path.with_extension("ready");
    let mut victim = Command::new(std::env::current_exe().unwrap())
        .args(["xproc_child_client", "--exact", "--test-threads=1", "--nocapture"])
        .env("PPC_XPROC_CLIENT_PATH", &srv.path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn client child");
    while !ready.exists() {
        assert!(victim.try_wait().unwrap().is_none(), "client child died before it was killed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Kill **and reap**: the sweep sees a zombie as alive.
    victim.kill().unwrap();
    victim.wait().unwrap();
    let _ = std::fs::remove_file(&ready);

    // `connect` retries until the sweep has released the only slot.
    five_of_its_own(&mut srv.connect(14), 4);
    srv.connect(15).shutdown_server();
    let _ = srv.child.wait();
}

/// A client that detaches with SQEs still queued: none of them runs —
/// the detach ends the client, under whose identity and region they
/// would have run — and the slot is free at once for the next claimer,
/// which is acked and served under its own program id.
#[test]
fn detach_with_queued_sqes_runs_none_and_frees_the_slot() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut rig = XRig::new("detach", false, 32);
    let eps = rig.eps();
    let (mut a, mut b) = (rig.srv.connect(21), rig.srv.connect(22));

    // B parks the one serve thread inside a handler…
    let parked = b.call_async(eps.gate, [0; 8]).unwrap();
    rig.gate.wait_started();
    // …while A queues eight counted SQEs (no doorbell: the server is
    // busy, not asleep) and drops — a DETACH the server finds, with the
    // SQEs, on its next pass.
    for i in 0..8 {
        a.submit(eps.count, [1; 8], i).unwrap();
    }
    let dropping = std::thread::spawn(move || drop(a));
    std::thread::sleep(Duration::from_millis(50));
    rig.gate.release();
    assert_eq!(parked.wait(), Ok([0; 8]));
    dropping.join().unwrap();

    // Both slots were taken: C can only have A's.
    let mut c = XClient::connect_retry(&rig.srv.path, 23, Duration::from_secs(2))
        .expect("the freed slot is claimed and acked at once");
    let rets = c.call(eps.count, [0; 8]).unwrap();
    assert_eq!(rets[0], 0, "none of the detached client's SQEs ran");
    assert_eq!(rets[1], 23, "served under its own program id");
    five_of_its_own(&mut c, 7);
    c.shutdown_server();
    let _ = rig.srv.child.wait();
}

// ---------------------------------------------------------------------
// Wait regimes: when the serve loop polls, when it sleeps
// ---------------------------------------------------------------------

/// `n` echo calls, each result checked, `gap` apart (slept when it is
/// long enough to sleep, otherwise spun); returns the serving runtime's
/// wakes per call over them (`xproc_wakes / xproc_calls` of its
/// `Snapshot`: wake syscalls it issued plus sleeps of its own that a
/// wake ended). The two probe calls bracket the loop in its own rhythm,
/// so each adds one call of the same kind to the ratio.
fn wakes_per_call(xc: &mut XClient, n: u64, gap: Duration) -> f64 {
    let pause = || {
        let t0 = Instant::now();
        if gap >= Duration::from_millis(1) {
            std::thread::sleep(gap);
        }
        while t0.elapsed() < gap {
            std::hint::spin_loop();
        }
    };
    let probe = |xc: &mut XClient| {
        pause();
        let r = xc.call(EP_STATS, [0; 8]).unwrap();
        (r[0], r[1])
    };
    let (calls0, wakes0) = probe(xc);
    for i in 0..n {
        pause();
        assert_eq!(xc.call(EP_ECHO, [i; 8]), Ok([i; 8]));
    }
    let (calls1, wakes1) = probe(xc);
    assert_eq!(calls1 - calls0, n + 1, "every call counted once");
    (wakes1 - wakes0) as f64 / (calls1 - calls0) as f64
}

/// utime + stime of `pid`, in clock ticks (fields 14 and 15 of
/// `/proc/<pid>/stat`, counted after the parenthesised command name).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("child stat");
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    f[11].parse::<u64>().unwrap() + f[12].parse::<u64>().unwrap()
}

/// An attached but idle server blocks. Taken right after a burst of
/// calls, when the learned poll budget is at its largest: a server that
/// kept polling would burn the whole 500 ms.
#[test]
fn idle_server_blocks_after_a_burst() {
    watchdog(90);
    let _shared = CPUS.read();
    let mut srv = ChildServer::spawn("idle");
    let mut xc = srv.connect(7);
    for i in 0..20_000u64 {
        assert_eq!(xc.call(EP_ECHO, [i; 8]), Ok([i; 8]));
    }
    let before = cpu_ticks(srv.child.id());
    std::thread::sleep(Duration::from_millis(500));
    let burned = cpu_ticks(srv.child.id()) - before;
    // USER_HZ is 100 on every Linux ABI: 5 ticks = 50 ms.
    assert!(burned < 5, "idle server burned {burned} ticks of CPU in 500 ms");
    assert_eq!(xc.call(EP_ECHO, [9; 8]), Ok([9; 8]), "and still answers");
    xc.shutdown_server();
    let _ = srv.child.wait();
}

/// A server child and a client, each on a CPU of its own when the host
/// allows two — which has to be arranged: left alone, the scheduler's
/// wake-affinity stacks a futex ping-pong pair on one CPU, where the
/// server rightly sleeps. Returns whether they are apart.
fn spawn_apart(tag: &str, park_only: bool) -> (ChildServer, XClient, bool) {
    let cpus = affinity::allowed_cpus();
    // The child inherits the pin of the thread that spawns it.
    if let Some(c) = cpus.get(1) {
        assert!(affinity::pin_current(*c), "sched_setaffinity");
    }
    let srv = ChildServer::spawn_with(tag, park_only);
    assert!(affinity::pin_current(cpus[0]), "sched_setaffinity");
    let xc = srv.connect(7);
    (srv, xc, cpus.len() >= 2)
}

/// Calls from a client with a CPU of its own are polled — after one
/// warm-up round for the two poll budgets, (almost) none costs a wake
/// (measured 0–0.001) — and the same calls 2 ms apart fall back to the
/// futex: the server really sleeps and is really woken, once per call,
/// and a client that outlasts its own spin is woken in turn (measured
/// 1.03–1.23 on two CPUs, exactly 1 on one). The bound is 0.9, not 1: a
/// call that lands in the microsecond the serve loop is up for its 5 ms
/// tick finds no sleeper flag, so it needs — and counts — no wake.
#[test]
fn serve_loop_polls_under_load_and_sleeps_between_sparse_calls() {
    watchdog(90);
    let _alone = CPUS.write();
    let (mut srv, mut xc, apart) = spawn_apart("regime", false);
    if apart {
        wakes_per_call(&mut xc, 20_000, Duration::ZERO);
        let busy = wakes_per_call(&mut xc, 20_000, Duration::ZERO);
        assert!(busy <= 0.2, "{busy} wakes per back-to-back call");
    }
    let sparse = wakes_per_call(&mut xc, 150, Duration::from_millis(2));
    assert!(sparse >= 0.9, "{sparse} wakes per sparse call");
    xc.shutdown_server();
    let _ = srv.child.wait();
}

/// `SpinPolicy::ParkOnly` on the serving runtime keeps the pre-poll
/// path reachable: the serve loop blocks as soon as a pass finds
/// nothing, so calls a 10 µs think time apart — far beyond the ≈ 100 ns
/// the loop needs to announce its sleep — cost a wake each (measured
/// 0.999–1.006; 0.9 for the 5 ms tick, as above). Strictly back-to-back
/// calls are not asserted on: with a CPU each they race that announce —
/// a call posted before it is found by the pass or the re-check and
/// needs, and counts, no wake — and the reading is whatever the two
/// processes' relative speed makes it (measured 0.32–1.0).
#[test]
fn park_only_server_sleeps_between_calls() {
    watchdog(90);
    let _alone = CPUS.write();
    let (mut srv, mut xc, _) = spawn_apart("parkonly", true);
    let thinking = wakes_per_call(&mut xc, 5_000, Duration::from_micros(10));
    assert!(thinking >= 0.9, "{thinking} wakes per call 10 µs apart under ParkOnly");
    xc.shutdown_server();
    let _ = srv.child.wait();
}
