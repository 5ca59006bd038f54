//! Workload 7, `fs_chain`: the paper's client → Name Server → file
//! server → CopyServer chain on `ppc-rt`.
//!
//! The client runs in its own process and reaches the services through
//! an `XClient`. The three services are inline entries of one runtime in
//! a forked server process: the Name Server resolves `fs/<file>` to the
//! file server's entry and a handle; the file server validates a request
//! and, for reads and writes, makes a nested `call_bulk` into the
//! CopyServer with the client's descriptor; the CopyServer moves the
//! bytes between the file and the client's bulk share. The client keeps a
//! model of every file and checks each length and each byte it reads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppc_rt::{BulkDesc, EntryId, Runtime, XClient, XSegOptions};

use crate::harness::{Env, Tally, Workload};
use crate::rng::Rng;
use crate::trace::{self, Class, Name, Recorder};
use crate::workloads::{inline_entry, ServerProc, CLIENT_PROGRAM};

pub const N_FILES: usize = 64;
/// Capacity of one file; lengths start below it and grow with writes.
pub const FILE_CAP: usize = 64 << 10;
/// Bytes moved by one read or write.
pub const IO: usize = 4096;
/// Length of the seeded operation vector (the loop cycles through it).
const N_OPS: usize = 1 << 14;
/// Random bytes the writes take their payloads from.
const POOL: usize = 1 << 20;
/// One operation in this many is an `open`.
const OPEN_ONE_IN: u64 = 32;

// Entry ids follow from the bind order in `build_services`.
const EP_NAMES: EntryId = 0;
const EP_FS: EntryId = 1;
const EP_COPY: EntryId = 2;

// Request words: [opcode, handle, offset, length, 0, 0, op id, descriptor].
const OP_GETLEN: u64 = 1;
const OP_READ: u64 = 2;
const OP_WRITE: u64 = 3;
/// Word that carries the per-operation id to the handlers' spans.
const ARG_OP_ID: usize = 6;
/// Operation id of the opens done during set-up: their spans have no root
/// span, so the ledger leaves them out.
const SETUP_OP_ID: u64 = u32::MAX as u64;

// Result words: [status, value, file length after the operation, ...].
const ST_OK: u64 = 0;
const ST_BAD: u64 = 1;
const BAD: [u64; 8] = [ST_BAD, 0, 0, 0, 0, 0, 0, 0];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Open {
        file: u16,
    },
    GetLen {
        file: u16,
    },
    Read {
        file: u16,
        off: u32,
    },
    /// `src` is the payload's offset in the byte pool.
    Write {
        file: u16,
        off: u32,
        src: u32,
    },
}

pub struct FsInputs {
    /// `fs/<name>` for every file.
    paths: Vec<Vec<u8>>,
    /// Handle of file `i` is `handle_base + i`.
    handle_base: u64,
    init_len: Vec<u32>,
    /// `N_FILES` × `FILE_CAP` bytes.
    init_data: Vec<u8>,
    pool: Vec<u8>,
    pub ops: Vec<Op>,
}

/// The seeded mix: 1 in 32 `open`, otherwise 50 % GetLength, 30 % Read,
/// 20 % Write. Lengths are simulated while generating, so every offset is
/// valid when its operation runs — also on later cycles through the
/// vector, because lengths only grow.
pub fn generate_ops(rng: &mut Rng, init_len: &[u32]) -> Vec<Op> {
    let mut len: Vec<u32> = init_len.to_vec();
    let align = |v: u64| (v & !63) as u32;
    (0..N_OPS)
        .map(|_| {
            let file = rng.below(N_FILES as u64) as u16;
            let l = len[file as usize];
            if rng.below(OPEN_ONE_IN) == 0 {
                return Op::Open { file };
            }
            match rng.below(100) {
                0..=49 => Op::GetLen { file },
                50..=79 => Op::Read {
                    file,
                    off: align(rng.below(u64::from(l) - IO as u64 + 1)),
                },
                _ => {
                    let max_off = u64::from(l).min((FILE_CAP - IO) as u64);
                    let off = align(rng.below(max_off + 1));
                    len[file as usize] = l.max(off + IO as u32);
                    Op::Write {
                        file,
                        off,
                        src: align(rng.below((POOL - IO) as u64 + 1)),
                    }
                }
            }
        })
        .collect()
}

impl FsInputs {
    pub fn generate(seed: u64) -> FsInputs {
        let mut rng = Rng::new(seed);
        let paths = (0..N_FILES)
            .map(|_| format!("fs/file-{:016x}", rng.next_u64()).into_bytes())
            .collect();
        let handle_base = rng.below(1 << 32) + 1;
        let init_len: Vec<u32> = (0..N_FILES)
            .map(|_| IO as u32 + (rng.below((FILE_CAP / 2 - IO) as u64) as u32 & !63))
            .collect();
        let init_data = rng.bytes(N_FILES * FILE_CAP);
        let pool = rng.bytes(POOL);
        let ops = generate_ops(&mut rng, &init_len);
        FsInputs {
            paths,
            handle_base,
            init_len,
            init_data,
            pool,
            ops,
        }
    }
}

// --------------------------------------------------------------------
// The services (server side)
// --------------------------------------------------------------------

struct Files {
    len: Vec<u32>,
    data: Vec<u8>,
}

struct Shared {
    files: Mutex<Files>,
    /// File name (without the service prefix) → handle.
    dir: HashMap<Vec<u8>, u64>,
    handle_base: u64,
}

impl Shared {
    fn file_of(&self, handle: u64) -> Option<usize> {
        let i = handle.checked_sub(self.handle_base)? as usize;
        (i < N_FILES).then_some(i)
    }
}

/// Build the serving runtime: Name Server, file server, CopyServer as
/// inline entries. `rec` turns on span recording in the handlers;
/// `wrong` makes GetLength lie (see [`Env::wrong_answers`]).
///
/// The file server keeps a `Client` of this runtime for its nested call,
/// so the runtime is referenced from one of its own handlers and lives
/// until the process exits — which is what a server process does anyway.
pub fn build_services(inputs: &FsInputs, rec: Option<Recorder>, wrong: bool) -> Arc<Runtime> {
    let shared = Arc::new(Shared {
        files: Mutex::new(Files {
            len: inputs.init_len.clone(),
            data: inputs.init_data.clone(),
        }),
        dir: inputs
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p["fs/".len()..].to_vec(), inputs.handle_base + i as u64))
            .collect(),
        handle_base: inputs.handle_base,
    });
    let rt = Runtime::new(1);

    // Name Server: the path arrives in the scratch page, its length in
    // args[0]; answers [status, entry, handle].
    let (sh, r, names_rt) = (Arc::clone(&shared), rec.clone(), Arc::downgrade(&rt));
    let names = rt.bind(
        "names",
        inline_entry(),
        Arc::new(move |ctx| {
            let t0 = trace::start(&r);
            let op_id = ctx.args[ARG_OP_ID];
            let n = (ctx.args[0] as usize).min(ppc_rt::slot::SCRATCH_BYTES);
            let path = &ctx.scratch()[..n];
            let resolved = path.iter().position(|b| *b == b'/').and_then(|slash| {
                let service = std::str::from_utf8(&path[..slash]).ok()?;
                let ep = names_rt.upgrade()?.ns_lookup(service)?;
                Some((ep, *sh.dir.get(&path[slash + 1..])?))
            });
            let rets = match resolved {
                Some((ep, handle)) => [ST_OK, ep as u64, handle, 0, 0, 0, 0, 0],
                None => BAD,
            };
            trace::close(&r, Name::NamesHandler, op_id, None, t0);
            rets
        }),
    );

    // File server: GetLength answers from the table; Read and Write are
    // validated here and carried out by the CopyServer through a nested
    // call that forwards the client's descriptor. The nested call runs
    // under the client's program identity — the region's grant names the
    // CopyServer entry on behalf of that program.
    let (sh, r, nested) = (
        Arc::clone(&shared),
        rec.clone(),
        rt.client(0, CLIENT_PROGRAM),
    );
    let fs = rt.bind(
        "fs",
        inline_entry(),
        Arc::new(move |ctx| {
            let t0 = trace::start(&r);
            let [op, handle, off, len, ..] = ctx.args;
            let op_id = ctx.args[ARG_OP_ID];
            let rets = (|| {
                let file = sh.file_of(handle)?;
                let cur = u64::from(sh.files.lock().ok()?.len[file]);
                match op {
                    OP_GETLEN => Some([ST_OK, cur ^ u64::from(wrong), cur, 0, 0, 0, 0, 0]),
                    OP_READ | OP_WRITE => {
                        let limit = if op == OP_READ { cur } else { FILE_CAP as u64 };
                        if len != IO as u64 || off.checked_add(len)? > limit || off > cur {
                            return None;
                        }
                        let desc = ctx.bulk_desc()?;
                        if ctx.caller_program != nested.program {
                            return None;
                        }
                        let t1 = trace::start(&r);
                        let done = nested.call_bulk(EP_COPY, ctx.args, desc);
                        trace::close(&r, Name::FsNestedCall, op_id, None, t1);
                        done.ok()
                    }
                    _ => None,
                }
            })()
            .unwrap_or(BAD);
            trace::close(&r, Name::FsHandler, op_id, None, t0);
            rets
        }),
    );

    // CopyServer: moves the bytes between the file and the client's
    // span, and keeps the file length; answers [status, bytes, length].
    let (sh, r) = (shared, rec);
    let copy = rt.bind(
        "copy",
        inline_entry(),
        Arc::new(move |ctx| {
            let t0 = trace::start(&r);
            let [op, handle, off, len, ..] = ctx.args;
            let op_id = ctx.args[ARG_OP_ID];
            let rets = (|| {
                let file = sh.file_of(handle)?;
                let desc = ctx.bulk_desc()?;
                let (off, len) = (off as usize, len as usize);
                if off.checked_add(len)? > FILE_CAP {
                    return None;
                }
                let mut files = sh.files.lock().ok()?;
                let span = file * FILE_CAP + off..file * FILE_CAP + off + len;
                let t1 = trace::start(&r);
                let moved = if op == OP_READ {
                    ctx.copy_to(desc, &files.data[span])
                } else {
                    ctx.copy_from(desc, &mut files.data[span])
                };
                trace::close(&r, Name::CopyMemcpy, op_id, None, t1);
                let n = moved.ok()?;
                if op == OP_WRITE {
                    files.len[file] = files.len[file].max((off + n) as u32);
                }
                Some([ST_OK, n as u64, u64::from(files.len[file]), 0, 0, 0, 0, 0])
            })()
            .unwrap_or(BAD);
            trace::close(&r, Name::CopyHandler, op_id, None, t0);
            rets
        }),
    );
    assert_eq!((names, fs, copy), (Ok(EP_NAMES), Ok(EP_FS), Ok(EP_COPY)));
    rt
}

// --------------------------------------------------------------------
// The client
// --------------------------------------------------------------------

enum Server {
    Proc(ServerProc),
    /// In-process server thread: the unit tests run inside a threaded
    /// test harness, where forking is off limits.
    #[cfg(test)]
    Thread(ppc_rt::XServer),
}

pub struct FsChain {
    inputs: Arc<FsInputs>,
    // Declared before `server`: detaches while the server still answers.
    xc: XClient,
    server: Server,
    rec: Option<Recorder>,
    /// The client's model of every file.
    model_len: Vec<u32>,
    model: Vec<u8>,
    /// (entry, handle) per file, from the most recent `open`.
    opened: Vec<(EntryId, u64)>,
    /// The 4 KiB staging span at the start of the client's bulk share:
    /// writable for reads (the server copies into it), read-only for
    /// writes.
    span_in: BulkDesc,
    span_out: BulkDesc,
    i: u64,
}

fn segment_options() -> XSegOptions {
    XSegOptions {
        n_clients: 1,
        bulk_bytes: 64 << 10,
        ..XSegOptions::default()
    }
}

impl FsChain {
    /// Fork the server, connect, grant, open every file. `trace` is the
    /// pair of recorders (client, server) of a traced run.
    pub fn start(
        inputs: &Arc<FsInputs>,
        env: &Env,
        trace: Option<(Recorder, Recorder)>,
    ) -> FsChain {
        let (client_rec, server_rec) = trace.unzip();
        let (child_inputs, wrong) = (Arc::clone(inputs), env.wrong_answers);
        let (server, xc) = ServerProc::spawn(env, "fs", segment_options(), move || {
            build_services(&child_inputs, server_rec, wrong)
        });
        FsChain::attach(inputs, xc, Server::Proc(server), client_rec)
    }

    fn attach(
        inputs: &Arc<FsInputs>,
        mut xc: XClient,
        server: Server,
        rec: Option<Recorder>,
    ) -> FsChain {
        xc.bulk_grant(EP_COPY, true)
            .expect("grant the CopyServer the client's share");
        let span_in = xc.bulk_desc(0, IO as u32, true).expect("read span");
        let span_out = xc.bulk_desc(0, IO as u32, false).expect("write span");
        let mut fs = FsChain {
            inputs: Arc::clone(inputs),
            xc,
            server,
            rec,
            model_len: inputs.init_len.clone(),
            model: inputs.init_data.clone(),
            opened: vec![(0, 0); N_FILES],
            span_in,
            span_out,
            i: 0,
        };
        for file in 0..N_FILES {
            assert!(fs.open(file, SETUP_OP_ID), "open {file} during set-up");
        }
        fs
    }

    fn call_span(&self, op_id: u64, class: Class, t0: u64) {
        trace::close(&self.rec, Name::ClientCall, op_id, Some(class), t0);
    }

    fn open(&mut self, file: usize, op_id: u64) -> bool {
        let path = &self.inputs.paths[file];
        let mut args = [0u64; 8];
        args[0] = path.len() as u64;
        args[ARG_OP_ID] = op_id;
        let t0 = trace::start(&self.rec);
        let r = self.xc.call_with_payload(EP_NAMES, args, path);
        self.call_span(op_id, Class::Open, t0);
        match r {
            Ok((rets, _)) if rets[0] == ST_OK => {
                self.opened[file] = (rets[1] as EntryId, rets[2]);
                rets[1] == EP_FS as u64 && rets[2] == self.inputs.handle_base + file as u64
            }
            _ => false,
        }
    }

    fn request(
        &self,
        op: u64,
        file: usize,
        off: u32,
        len: usize,
        op_id: u64,
    ) -> (EntryId, [u64; 8]) {
        let (ep, handle) = self.opened[file];
        (ep, [op, handle, u64::from(off), len as u64, 0, 0, op_id, 0])
    }

    fn get_len(&mut self, file: usize, op_id: u64) -> bool {
        let (ep, args) = self.request(OP_GETLEN, file, 0, 0, op_id);
        let t0 = trace::start(&self.rec);
        let r = self.xc.call(ep, args);
        self.call_span(op_id, Class::GetLen, t0);
        r.is_ok_and(|r| r[0] == ST_OK && r[1] == u64::from(self.model_len[file]))
    }

    fn read(&mut self, file: usize, off: u32, op_id: u64) -> bool {
        let (ep, args) = self.request(OP_READ, file, off, IO, op_id);
        let t0 = trace::start(&self.rec);
        let r = self.xc.call_bulk(ep, args, self.span_in);
        self.call_span(op_id, Class::Read, t0);
        let at = file * FILE_CAP + off as usize;
        r.is_ok_and(|r| {
            r[0] == ST_OK && r[1] == IO as u64 && r[2] == u64::from(self.model_len[file])
        }) && self
            .xc
            .bulk_read(0, IO)
            .is_ok_and(|got| got == self.model[at..at + IO])
    }

    fn write(&mut self, file: usize, off: u32, src: u32, op_id: u64) -> bool {
        let data = &self.inputs.pool[src as usize..src as usize + IO];
        if self.xc.bulk_write(0, data).is_err() {
            return false;
        }
        let (ep, args) = self.request(OP_WRITE, file, off, IO, op_id);
        let t0 = trace::start(&self.rec);
        let r = self.xc.call_bulk(ep, args, self.span_out);
        self.call_span(op_id, Class::Write, t0);
        let at = file * FILE_CAP + off as usize;
        self.model[at..at + IO].copy_from_slice(data);
        self.model_len[file] = self.model_len[file].max(off + IO as u32);
        r.is_ok_and(|r| {
            r[0] == ST_OK && r[1] == IO as u64 && r[2] == u64::from(self.model_len[file])
        })
    }

    /// One operation of the seeded mix, checked.
    fn op(&mut self) -> Tally {
        let op = self.inputs.ops[self.i as usize % N_OPS];
        let op_id = self.i;
        self.i += 1;
        let t0 = trace::start(&self.rec);
        let (class, ok, bytes) = match op {
            Op::Open { file } => (Class::Open, self.open(file as usize, op_id), 0),
            Op::GetLen { file } => (Class::GetLen, self.get_len(file as usize, op_id), 0),
            Op::Read { file, off } => (Class::Read, self.read(file as usize, off, op_id), IO),
            Op::Write { file, off, src } => {
                (Class::Write, self.write(file as usize, off, src, op_id), IO)
            }
        };
        trace::close(&self.rec, Name::ClientOp, op_id, Some(class), t0);
        Tally {
            failed: u64::from(!ok),
            bytes: bytes as u64,
        }
    }
}

impl Workload for FsChain {
    const NAME: &'static str = "fs_chain";
    /// One unit is a window of 32 consecutive operations of the mix
    /// (about 1 open, 15 GetLength, 10 reads, 6 writes). The median of
    /// single operations would sit on the edge between the cheap
    /// GetLength half and the expensive copy half of the mix, where it
    /// jumps between the two on the slightest change; the median window
    /// moves only when the mix as a whole gets faster or slower.
    const UNIT_OPS: u64 = 32;
    const BATCH_UNITS: u64 = 1;
    const BUSY_THREADS: usize = 2;
    type Inputs = FsInputs;

    fn generate(seed: u64) -> FsInputs {
        FsInputs::generate(seed)
    }

    fn setup(inputs: &Arc<FsInputs>, env: &Env) -> Self {
        FsChain::start(inputs, env, None)
    }

    fn unit(&mut self) -> Tally {
        let mut sum = Tally::default();
        for _ in 0..Self::UNIT_OPS {
            let t = self.op();
            sum.failed += t.failed;
            sum.bytes += t.bytes;
        }
        sum
    }

    fn server_pid(&self) -> Option<u32> {
        match &self.server {
            Server::Proc(p) => Some(p.pid()),
            #[cfg(test)]
            Server::Thread(_) => None,
        }
    }

    fn finish(self) {
        match self.server {
            Server::Proc(p) => p.shutdown(self.xc),
            #[cfg(test)]
            Server::Thread(mut s) => {
                drop(self.xc);
                s.shutdown();
            }
        }
    }
}

// --------------------------------------------------------------------
// The traced run
// --------------------------------------------------------------------

/// Operations recorded by one traced run (bounds the span store).
const TRACE_OPS: u64 = 1 << 17;
const TRACE_WARM_OPS: u64 = 2048;

pub struct Traced {
    pub ledger: Vec<(Class, trace::ClassLedger)>,
    /// Traced ÷ untraced operations per second.
    pub overhead_ratio: f64,
    pub spans_dropped: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Run `fs` for `budget` (or `max_ops`); operations per second and
/// (attempted, failed).
fn rate(mut fs: FsChain, budget: Duration, max_ops: u64) -> (f64, u64, u64) {
    let mut failed = 0;
    for _ in 0..TRACE_WARM_OPS {
        failed += fs.op().failed;
    }
    let mut ops = 0u64;
    let t0 = Instant::now();
    let secs = loop {
        failed += fs.unit().failed;
        ops += FsChain::UNIT_OPS;
        let e = t0.elapsed();
        if e >= budget || ops >= max_ops {
            break e.as_secs_f64();
        }
    };
    fs.finish();
    (ops as f64 / secs, ops + TRACE_WARM_OPS, failed)
}

/// The Figure-2 analogue: run the chain once untraced (the reference
/// rate) and once with a span at every boundary, then turn the spans
/// into per-class self times. End-to-end numbers never come from here.
pub fn traced(seed: u64, budget: Duration, env: &Env) -> Traced {
    use trace::{Side, TraceBuf};
    let inputs = Arc::new(FsInputs::generate(seed));
    let (plain_rate, a0, f0) = rate(FsChain::start(&inputs, env, None), budget / 2, u64::MAX);

    let ops = (TRACE_OPS + TRACE_WARM_OPS + N_FILES as u64) as usize;
    let buf = Arc::new(TraceBuf::new(2 * ops, 4 * ops).expect("span store"));
    // One anchor for both processes, taken before the server is forked.
    let anchor = Instant::now();
    let recorders = (
        Recorder::new(&buf, Side::Client, anchor),
        Recorder::new(&buf, Side::Server, anchor),
    );
    let fs = FsChain::start(&inputs, env, Some(recorders));
    // `rate` returns after the server process has exited, so its half of
    // the store is complete when the ledger reads it.
    let (traced_rate, a1, f1) = rate(fs, budget / 2, TRACE_OPS);
    Traced {
        ledger: trace::ledger(&buf),
        overhead_ratio: traced_rate / plain_rate,
        spans_dropped: buf.dropped(Side::Client) + buf.dropped(Side::Server),
        attempted: a0 + a1,
        failed: f0 + f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::test_env;

    fn in_thread(inputs: &Arc<FsInputs>, wrong: bool) -> FsChain {
        let env = test_env(wrong);
        let path = env.seg_path("fs-test");
        let rt = build_services(inputs, None, wrong);
        let server = rt.serve_xproc(&path, segment_options()).expect("serve");
        let xc = XClient::connect(&path, CLIENT_PROGRAM).expect("connect");
        FsChain::attach(inputs, xc, Server::Thread(server), None)
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let (a, b, c) = (
            FsInputs::generate(11),
            FsInputs::generate(11),
            FsInputs::generate(12),
        );
        assert_eq!(a.ops, b.ops);
        assert_eq!(
            (&a.paths, &a.init_len, a.handle_base),
            (&b.paths, &b.init_len, b.handle_base)
        );
        assert!(a.init_data == b.init_data && a.pool == b.pool);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn the_mix_has_the_stated_shares() {
        let ops = FsInputs::generate(5).ops;
        let share =
            |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        let near = |x: f64, want: f64| (x - want).abs() < 0.02;
        assert!(near(share(|o| matches!(o, Op::Open { .. })), 1.0 / 32.0));
        assert!(near(
            share(|o| matches!(o, Op::GetLen { .. })),
            0.50 * 31.0 / 32.0
        ));
        assert!(near(
            share(|o| matches!(o, Op::Read { .. })),
            0.30 * 31.0 / 32.0
        ));
        assert!(near(
            share(|o| matches!(o, Op::Write { .. })),
            0.20 * 31.0 / 32.0
        ));
    }

    /// Two and a half cycles through the operation vector: every length
    /// and every byte read back matches the client's model, also after
    /// the vector wraps.
    #[test]
    fn the_chain_verifies_clean_across_cycles() {
        let inputs = Arc::new(FsInputs::generate(9));
        let mut fs = in_thread(&inputs, false);
        let failed: u64 = (0..N_OPS * 5 / 2).map(|_| fs.op().failed).sum();
        assert_eq!(failed, 0);
        fs.finish();
    }

    #[test]
    fn a_lying_file_server_is_caught() {
        let inputs = Arc::new(FsInputs::generate(9));
        let mut fs = in_thread(&inputs, true);
        let failed: u64 = (0..2000).map(|_| fs.op().failed).sum();
        let getlens = inputs.ops[..2000]
            .iter()
            .filter(|o| matches!(o, Op::GetLen { .. }))
            .count() as u64;
        assert_eq!(failed, getlens);
        fs.finish();
    }
}
