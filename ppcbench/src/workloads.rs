//! The six single-mechanism workloads (the seventh, `fs_chain`, has its
//! own module). Each drives `ppc-rt` only through its public API and
//! checks every result it gets back.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::xproc::{fork_server, ForkedServer};
use ppc_rt::{
    BulkRegion, Client, ClientRing, Completion, EntryId, EntryOptions, Handler, RingOptions,
    Runtime, XClient, XSegOptions,
};

use crate::harness::{Env, Tally, Workload};
use crate::rng::Rng;

/// Program identity of the benchmark's client.
pub const CLIENT_PROGRAM: u32 = 1;
/// Ring batch depth of the `*_d16` workloads.
pub const DEPTH: usize = 16;
/// Argument and result words of one null call, as bytes.
const FRAME_BYTES: u64 = 2 * 8 * 8;

/// Entry options for a service that runs on its caller's thread and
/// therefore needs no worker.
pub fn inline_entry() -> EntryOptions {
    EntryOptions {
        inline_ok: true,
        initial_workers: 0,
        ..EntryOptions::default()
    }
}

/// The null service: echo the eight argument words. `wrong` corrupts one
/// word (see [`Env::wrong_answers`]).
pub fn null_handler(wrong: bool) -> Handler {
    if wrong {
        Arc::new(|ctx| {
            let mut r = ctx.args;
            r[3] ^= 1;
            r
        })
    } else {
        Arc::new(|ctx| ctx.args)
    }
}

/// Seeded argument frames shared by the null-call workloads.
pub struct Frames(pub Vec<[u64; 8]>);

impl Frames {
    const LEN: usize = 4096;

    pub fn generate(seed: u64) -> Frames {
        let mut rng = Rng::new(seed);
        Frames(
            (0..Self::LEN)
                .map(|_| std::array::from_fn(|_| rng.next_u64()))
                .collect(),
        )
    }

    #[inline]
    fn at(&self, i: u64) -> &[u64; 8] {
        &self.0[i as usize % Self::LEN]
    }
}

// --------------------------------------------------------------------
// Forked server processes
// --------------------------------------------------------------------

/// Removes the segment file when dropped (the server child unlinks it on
/// an orderly shutdown; this covers a killed child and a panic here).
struct SegFile(PathBuf);

impl Drop for SegFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A forked server child plus its segment file. Dropping it kills and
/// reaps the child, then removes the file — in that order, which is the
/// declaration order of the fields.
pub struct ServerProc {
    forked: ForkedServer,
    _file: SegFile,
}

impl ServerProc {
    /// Fork a child that serves `build()`'s runtime on the server CPU,
    /// and connect to it from the client CPU. Must run while this
    /// process has no other thread (`fork_server`'s contract).
    pub fn spawn(
        env: &Env,
        tag: &str,
        opts: XSegOptions,
        build: impl FnOnce() -> Arc<Runtime>,
    ) -> (ServerProc, XClient) {
        let path = env.seg_path(tag);
        let _ = std::fs::remove_file(&path);
        env.pins.enter_server();
        let forked = fork_server(&path, opts, build).expect("fork the server process");
        env.pins.enter_client();
        let server = ServerProc {
            forked,
            _file: SegFile(path.clone()),
        };
        let xc = XClient::connect_retry(&path, CLIENT_PROGRAM, Duration::from_secs(10))
            .expect("connect to the forked server");
        (server, xc)
    }

    pub fn pid(&self) -> u32 {
        self.forked.pid() as u32
    }

    /// Ask the child to stop and wait until it has exited.
    pub fn shutdown(mut self, mut xc: XClient) {
        xc.shutdown_server();
        self.forked.wait();
    }
}

fn null_server(wrong: bool) -> impl FnOnce() -> Arc<Runtime> {
    move || {
        let rt = Runtime::new(1);
        let ep = rt
            .bind("null", inline_entry(), null_handler(wrong))
            .expect("bind null");
        assert_eq!(ep, NULL_EP);
        rt
    }
}

/// The null entry is the first one bound in every runtime here.
const NULL_EP: EntryId = 0;

// --------------------------------------------------------------------
// 1. inline_null / 2. handoff_null
// --------------------------------------------------------------------

/// An in-process runtime with the null entry and one client.
pub struct NullCall {
    frames: Arc<Frames>,
    client: Client,
    i: u64,
}

impl NullCall {
    fn new(frames: &Arc<Frames>, env: &Env, opts: EntryOptions) -> NullCall {
        // The worker thread, if any, is created by `bind` and inherits
        // the CPU this thread is on at that moment.
        env.pins.enter_server();
        let rt = Runtime::new(1);
        let ep = rt
            .bind("null", opts, null_handler(env.wrong_answers))
            .expect("bind null");
        assert_eq!(ep, NULL_EP);
        env.pins.enter_client();
        NullCall {
            frames: Arc::clone(frames),
            client: rt.client(0, CLIENT_PROGRAM),
            i: 0,
        }
    }

    #[inline]
    fn call(&mut self) -> Tally {
        let args = self.frames.at(self.i);
        self.i += 1;
        let ok = self.client.call(NULL_EP, *args).is_ok_and(|r| r == *args);
        Tally {
            failed: u64::from(!ok),
            bytes: FRAME_BYTES,
        }
    }
}

pub struct InlineNull(NullCall);

impl Workload for InlineNull {
    const NAME: &'static str = "inline_null";
    const BUSY_THREADS: usize = 1;
    type Inputs = Frames;

    fn generate(seed: u64) -> Frames {
        Frames::generate(seed)
    }
    fn setup(inputs: &Arc<Frames>, env: &Env) -> Self {
        InlineNull(NullCall::new(inputs, env, inline_entry()))
    }
    #[inline]
    fn unit(&mut self) -> Tally {
        self.0.call()
    }
}

pub struct HandoffNull(NullCall);

impl Workload for HandoffNull {
    const NAME: &'static str = "handoff_null";
    const BUSY_THREADS: usize = 2;
    type Inputs = Frames;

    fn generate(seed: u64) -> Frames {
        Frames::generate(seed)
    }
    fn setup(inputs: &Arc<Frames>, env: &Env) -> Self {
        HandoffNull(NullCall::new(inputs, env, EntryOptions::default()))
    }
    #[inline]
    fn unit(&mut self) -> Tally {
        self.0.call()
    }
}

// --------------------------------------------------------------------
// 3. ring_d16 / 5. xproc_ring_d16
// --------------------------------------------------------------------

/// Check one reaped batch: completions must come back in submission
/// order, carrying their tags and the echoed frames.
fn check_batch(out: &[Completion], frames: &Frames, base: u64) -> u64 {
    let mut failed = DEPTH.saturating_sub(out.len()) as u64;
    for (k, c) in out.iter().enumerate() {
        let tag = base + k as u64;
        let ok = c.user == tag && c.ep == NULL_EP && c.result.as_ref() == Ok(frames.at(tag));
        failed += u64::from(!ok);
    }
    failed
}

/// Empty polls before the reaping client gives its time slice away
/// (matters only when client and server share a CPU).
const POLLS_BEFORE_YIELD: u32 = 1 << 10;

/// Poll `reap(max, out)` until `out` holds `want` completions, or until it
/// answers `None` (the peer is gone).
pub fn reap_until(
    out: &mut Vec<Completion>,
    want: usize,
    mut reap: impl FnMut(usize, &mut Vec<Completion>) -> Option<usize>,
) {
    let mut idle = 0u32;
    while out.len() < want {
        match reap(want - out.len(), out) {
            Some(0) => {
                idle += 1;
                if idle.is_multiple_of(POLLS_BEFORE_YIELD) {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
            Some(_) => {}
            None => break,
        }
    }
}

pub struct RingD16 {
    frames: Arc<Frames>,
    ring: ClientRing,
    out: Vec<Completion>,
    next: u64,
}

impl Workload for RingD16 {
    const NAME: &'static str = "ring_d16";
    const UNIT_OPS: u64 = DEPTH as u64;
    const BATCH_UNITS: u64 = 8;
    const BUSY_THREADS: usize = 2;
    type Inputs = Frames;

    fn generate(seed: u64) -> Frames {
        Frames::generate(seed)
    }

    fn setup(inputs: &Arc<Frames>, env: &Env) -> Self {
        env.pins.enter_server();
        let rt = Runtime::new(1);
        let ep = rt
            .bind("null", inline_entry(), null_handler(env.wrong_answers))
            .expect("bind");
        assert_eq!(ep, NULL_EP);
        // The ring worker thread is created here, on the server CPU.
        let ring = rt
            .client(0, CLIENT_PROGRAM)
            .ring_with(RingOptions::default());
        env.pins.enter_client();
        RingD16 {
            frames: Arc::clone(inputs),
            ring,
            out: Vec::with_capacity(DEPTH),
            next: 0,
        }
    }

    fn unit(&mut self) -> Tally {
        let base = self.next;
        self.next += DEPTH as u64;
        let mut refused = 0;
        for tag in base..base + DEPTH as u64 {
            refused += usize::from(
                self.ring
                    .submit(NULL_EP, *self.frames.at(tag), tag)
                    .is_err(),
            );
        }
        self.ring.doorbell();
        let ring = &mut self.ring;
        reap_until(&mut self.out, DEPTH - refused, |max, out| {
            Some(ring.reap(max, out))
        });
        // A refused submit or a lost peer leaves the batch short, which
        // `check_batch` counts.
        let failed = check_batch(&self.out, &self.frames, base);
        self.out.clear();
        Tally {
            failed,
            bytes: DEPTH as u64 * FRAME_BYTES,
        }
    }
}

pub struct XprocRingD16 {
    frames: Arc<Frames>,
    // Declared before `server`: the client detaches while the server is
    // still there to answer.
    xc: XClient,
    server: ServerProc,
    out: Vec<Completion>,
    next: u64,
}

impl Workload for XprocRingD16 {
    const NAME: &'static str = "xproc_ring_d16";
    const UNIT_OPS: u64 = DEPTH as u64;
    const BATCH_UNITS: u64 = 8;
    const BUSY_THREADS: usize = 2;
    type Inputs = Frames;

    fn generate(seed: u64) -> Frames {
        Frames::generate(seed)
    }

    fn setup(inputs: &Arc<Frames>, env: &Env) -> Self {
        let (server, xc) = ServerProc::spawn(
            env,
            "xring",
            XSegOptions::default(),
            null_server(env.wrong_answers),
        );
        XprocRingD16 {
            frames: Arc::clone(inputs),
            xc,
            server,
            out: Vec::with_capacity(DEPTH),
            next: 0,
        }
    }

    fn unit(&mut self) -> Tally {
        let base = self.next;
        self.next += DEPTH as u64;
        let mut refused = 0;
        for tag in base..base + DEPTH as u64 {
            refused += usize::from(self.xc.submit(NULL_EP, *self.frames.at(tag), tag).is_err());
        }
        self.xc.ring_doorbell();
        let xc = &mut self.xc;
        reap_until(&mut self.out, DEPTH - refused, |max, out| {
            xc.reap(max, out).ok()
        });
        // A refused submit or a lost peer leaves the batch short, which
        // `check_batch` counts.
        let failed = check_batch(&self.out, &self.frames, base);
        self.out.clear();
        Tally {
            failed,
            bytes: DEPTH as u64 * FRAME_BYTES,
        }
    }

    fn server_pid(&self) -> Option<u32> {
        Some(self.server.pid())
    }

    fn finish(self) {
        self.server.shutdown(self.xc);
    }
}

// --------------------------------------------------------------------
// 4. xproc_null
// --------------------------------------------------------------------

pub struct XprocNull {
    frames: Arc<Frames>,
    xc: XClient,
    server: ServerProc,
    i: u64,
}

impl Workload for XprocNull {
    const NAME: &'static str = "xproc_null";
    const BUSY_THREADS: usize = 2;
    type Inputs = Frames;

    fn generate(seed: u64) -> Frames {
        Frames::generate(seed)
    }

    fn setup(inputs: &Arc<Frames>, env: &Env) -> Self {
        let (server, xc) = ServerProc::spawn(
            env,
            "xnull",
            XSegOptions::default(),
            null_server(env.wrong_answers),
        );
        XprocNull {
            frames: Arc::clone(inputs),
            xc,
            server,
            i: 0,
        }
    }

    #[inline]
    fn unit(&mut self) -> Tally {
        let args = self.frames.at(self.i);
        self.i += 1;
        let ok = self.xc.call(NULL_EP, *args).is_ok_and(|r| r == *args);
        Tally {
            failed: u64::from(!ok),
            bytes: FRAME_BYTES,
        }
    }

    fn server_pid(&self) -> Option<u32> {
        Some(self.server.pid())
    }

    fn finish(self) {
        self.server.shutdown(self.xc);
    }
}

// --------------------------------------------------------------------
// 6. bulk_rw_64k
// --------------------------------------------------------------------

pub const BULK_LEN: usize = 64 << 10;
/// Distinct server-side source buffers the write direction cycles
/// through, so that consecutive writes change what the region holds.
const BULK_SOURCES: usize = 4;
/// Result word a bulk handler returns when its copy was refused.
const BULK_REFUSED: u64 = u64::MAX;

pub struct BulkInputs {
    /// What the client's region holds before the first operation.
    region_init: Vec<u8>,
    /// The server's source buffers for the write direction.
    sources: Vec<Vec<u8>>,
    /// Per operation: source buffer for a write, and the 8-byte-aligned
    /// offset of the word both sides compare.
    probes: Vec<(u32, u32)>,
}

fn word_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

/// Read direction: copy the client's span into a pooled server buffer,
/// answer with the length and the probed word of the copy.
fn bulk_read_handler(rt: &Arc<Runtime>, wrong: bool) -> Handler {
    let bulk = Arc::clone(rt.bulk());
    let stats = Arc::clone(&rt.stats);
    Arc::new(move |ctx| {
        let refused = [BULK_REFUSED, 0, 0, 0, 0, 0, 0, 0];
        let Some(desc) = ctx.bulk_desc() else {
            return refused;
        };
        let pool = bulk.pool(ctx.vcpu);
        let Some(mut buf) = pool.take(desc.len as usize, stats.cell(ctx.vcpu)) else {
            return refused;
        };
        let dst = &mut buf.as_mut_slice()[..desc.len as usize];
        let rets = match ctx.copy_from(desc, dst) {
            Ok(n) => [
                n as u64,
                word_at(dst, ctx.args[0] as usize) ^ u64::from(wrong),
                0,
                0,
                0,
                0,
                0,
                0,
            ],
            Err(_) => refused,
        };
        pool.put(buf);
        rets
    })
}

/// Write direction: copy one of the server's source buffers into the
/// client's span.
fn bulk_write_handler(inputs: &Arc<BulkInputs>) -> Handler {
    let inputs = Arc::clone(inputs);
    Arc::new(move |ctx| {
        let src = &inputs.sources[ctx.args[0] as usize % BULK_SOURCES];
        match ctx.bulk_desc().map(|d| ctx.copy_to(d, src)) {
            Some(Ok(n)) => [n as u64, 0, 0, 0, 0, 0, 0, 0],
            _ => [BULK_REFUSED, 0, 0, 0, 0, 0, 0, 0],
        }
    })
}

pub struct BulkRw64k {
    inputs: Arc<BulkInputs>,
    client: Client,
    region: BulkRegion,
    ep_read: EntryId,
    ep_write: EntryId,
    /// Which source buffer the region currently equals (`None`: still
    /// the initial fill).
    holds: Option<usize>,
    i: u64,
}

impl Workload for BulkRw64k {
    const NAME: &'static str = "bulk_rw_64k";
    const BATCH_UNITS: u64 = 16;
    const BUSY_THREADS: usize = 1;
    type Inputs = BulkInputs;

    fn generate(seed: u64) -> BulkInputs {
        let mut rng = Rng::new(seed);
        BulkInputs {
            region_init: rng.bytes(BULK_LEN),
            sources: (0..BULK_SOURCES).map(|_| rng.bytes(BULK_LEN)).collect(),
            probes: (0..4096)
                .map(|_| {
                    (
                        rng.below(BULK_SOURCES as u64) as u32,
                        rng.below(BULK_LEN as u64 / 8) as u32 * 8,
                    )
                })
                .collect(),
        }
    }

    fn setup(inputs: &Arc<BulkInputs>, env: &Env) -> Self {
        env.pins.enter_client();
        let rt = Runtime::new(1);
        let ep_read = rt
            .bind(
                "bulk_rd",
                inline_entry(),
                bulk_read_handler(&rt, env.wrong_answers),
            )
            .expect("bind");
        let ep_write = rt
            .bind("bulk_wr", inline_entry(), bulk_write_handler(inputs))
            .expect("bind");
        let client = rt.client(0, CLIENT_PROGRAM);
        let region = client.bulk_register(BULK_LEN).expect("register the region");
        region.grant(ep_read, false).expect("grant read");
        region.grant(ep_write, true).expect("grant write");
        region
            .fill(0, &inputs.region_init)
            .expect("fill the region");
        BulkRw64k {
            inputs: Arc::clone(inputs),
            client,
            region,
            ep_read,
            ep_write,
            holds: None,
            i: 0,
        }
    }

    /// Strictly alternating: even operations read, odd operations write.
    fn unit(&mut self) -> Tally {
        let (source, probe) = self.inputs.probes[self.i as usize % self.inputs.probes.len()];
        let write = self.i % 2 == 1;
        self.i += 1;
        let ok = if write {
            let desc = self.region.full_desc(true);
            let done = self
                .client
                .call_bulk(self.ep_write, [u64::from(source); 8], desc);
            self.holds = Some(source as usize);
            // The region must now equal the chosen source at the probe.
            let mut got = [0u8; 8];
            done.is_ok_and(|r| r[0] == BULK_LEN as u64)
                && self.region.read_into(probe, &mut got).is_ok()
                && u64::from_le_bytes(got)
                    == word_at(&self.inputs.sources[source as usize], probe as usize)
        } else {
            let desc = self.region.full_desc(false);
            let expect = match self.holds {
                Some(s) => &self.inputs.sources[s],
                None => &self.inputs.region_init,
            };
            self.client
                .call_bulk(self.ep_read, [u64::from(probe); 8], desc)
                .is_ok_and(|r| r[0] == BULK_LEN as u64 && r[1] == word_at(expect, probe as usize))
        };
        Tally {
            failed: u64::from(!ok),
            bytes: BULK_LEN as u64,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::host::Pins;

    /// An environment for in-process tests: nothing pinned, segment files
    /// in the system temp directory.
    pub(crate) fn test_env(wrong_answers: bool) -> Env {
        Env {
            pins: Pins::unpinned(),
            seg_dir: std::env::temp_dir(),
            wrong_answers,
        }
    }

    fn run<W: Workload>(seed: u64, wrong: bool, units: u64) -> u64 {
        let inputs = Arc::new(W::generate(seed));
        let mut w = W::setup(&inputs, &test_env(wrong));
        let failed = (0..units).map(|_| w.unit().failed).sum();
        w.finish();
        failed
    }

    #[test]
    fn in_process_workloads_verify_clean() {
        assert_eq!(run::<InlineNull>(7, false, 2000), 0);
        assert_eq!(run::<HandoffNull>(7, false, 2000), 0);
        assert_eq!(run::<RingD16>(7, false, 200), 0);
        assert_eq!(run::<BulkRw64k>(7, false, 200), 0);
    }

    /// The checks inside the loop are live: a server that answers wrongly
    /// is counted on every operation.
    #[test]
    fn a_wrong_handler_is_counted() {
        assert_eq!(run::<InlineNull>(7, true, 100), 100);
        assert_eq!(run::<HandoffNull>(7, true, 100), 100);
        assert_eq!(run::<RingD16>(7, true, 10), 10 * DEPTH as u64);
        // Only the read direction is corrupted: every other operation.
        assert_eq!(run::<BulkRw64k>(7, true, 100), 50);
    }

    #[test]
    fn same_seed_same_frames() {
        assert_eq!(Frames::generate(3).0, Frames::generate(3).0);
        assert_ne!(Frames::generate(3).0, Frames::generate(4).0);
    }
}
