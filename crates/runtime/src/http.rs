//! A tiny std-only HTTP/1.1 server for the observability endpoints.
//!
//! The repo vendors its dependency graph, so a real HTTP stack (hyper &
//! co.) is off the table — and overkill: the consumer is `curl`, a
//! Prometheus scraper, or `ppc-top` polling a few times a second. One
//! accept loop on a [`TcpListener`], one request per connection
//! (`Connection: close`), GET only:
//!
//! | path       | body                                               |
//! |------------|----------------------------------------------------|
//! | `/`        | plain-text index of the endpoints                  |
//! | `/metrics` | Prometheus text ([`crate::Runtime::export_prometheus`], incl. `ppc_rate_*` and transport/segment gauges) |
//! | `/json`    | counters + histograms + telemetry windows/alerts + transport mode/segment stats |
//! | `/series`  | the raw telemetry tick ring ([`crate::Runtime::export_series`]) |
//! | `/trace`   | Chrome trace-event JSON ([`crate::Runtime::export_trace`]) |
//! | `/profile` | critical-path profile text report ([`crate::profile`]) |
//! | `/profile.folded` | collapsed stacks for `flamegraph.pl`/speedscope |
//! | `/blackbox` | on-demand black-box capture ([`crate::Runtime::blackbox_json`]) |
//! | `/diagnostics` | the [`crate::Runtime::diagnostics`] text dump  |
//!
//! Requests are served **serially**: a diagnostics port has no business
//! running a thread pool, and serial service bounds the runtime-state
//! cloning one scrape can cause. The server holds only a
//! [`Weak`]`<Runtime>` — it can never keep a runtime alive, and it
//! shuts itself down when the runtime drops. [`MetricsServer::stop`]
//! (also run on drop) unblocks the accept loop with a loopback
//! self-connection, the standard std-only trick for interrupting
//! `accept` without platform-specific socket options.
//!
//! Hardening is proportionate to the exposure: per-connection read and
//! write timeouts (a stalled peer can't wedge the serial loop) and a
//! [`MAX_REQUEST_BYTES`] cap on the request head (a peer streaming
//! endless headers gets `431` and the boot, not unbounded buffering).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::Runtime;

/// Upper bound on one request's head (request line + headers). A GET
/// for these endpoints fits in a few hundred bytes; anything larger is
/// a confused or hostile peer and is answered `431` without further
/// buffering.
pub const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// Handle to a running metrics server; stops (and joins) on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0: this is where the OS put
    /// us).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape URL for `path` (e.g. `url("/metrics")`).
    pub fn url(&self, path: &str) -> String {
        format!("http://{}{}", self.addr, path)
    }

    /// Stop the accept loop and join the server thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` so the loop observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Runtime {
    /// Serve the observability endpoints over HTTP/1.1 on `addr` (pass
    /// `"127.0.0.1:0"` to let the OS pick a free port; read it back
    /// from [`MetricsServer::addr`]). The server holds only a weak
    /// runtime reference and answers `503 Service Unavailable` once the
    /// runtime is gone.
    pub fn serve_metrics<A: ToSocketAddrs>(
        self: &Arc<Self>,
        addr: A,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let rt = Arc::downgrade(self);
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ppc-metrics".into())
            .spawn(move || serve_loop(listener, rt, flag))?;
        Ok(MetricsServer { addr, stop, thread: Some(thread) })
    }
}

fn serve_loop(listener: TcpListener, rt: Weak<Runtime>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let _ = handle_conn(stream, &rt);
        if rt.strong_count() == 0 {
            return;
        }
    }
}

/// Parse the request line + headers and write one response. Any parse
/// or I/O failure just drops the connection — the peer is a tool, not a
/// user.
fn handle_conn(stream: TcpStream, rt: &Weak<Runtime>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    // Cap the request head: `Take` turns an oversized request into EOF
    // mid-headers, which we answer below instead of buffering on.
    let mut reader = BufReader::new(std::io::Read::take(stream, MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (we need none of them; `Connection: close` is our
    // answer regardless).
    let mut head_complete = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        if line.trim().is_empty() {
            head_complete = true;
            break;
        }
    }
    let mut stream = reader.into_inner().into_inner();
    if !head_complete {
        // EOF before the blank line: either the cap fired or the peer
        // hung up mid-request. Both get the oversize answer (a peer
        // that's gone won't read it anyway).
        return respond(&mut stream, 431, "text/plain", "request head too large\n");
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let Some(rt) = rt.upgrade() else {
        return respond(&mut stream, 503, "text/plain", "runtime is gone\n");
    };
    // Ignore any query string: `/metrics?x=1` is `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    let (text, json) = ("text/plain; charset=utf-8", "application/json");
    let (content_type, body) = match path {
        "/" => (
            text,
            "ppc-rt observability endpoints:\n\
             /metrics      Prometheus text exposition (incl. ppc_rate_* windows\n\
                           and ppc_transport_*/ppc_segment_* gauges)\n\
             /json         counters + histograms + telemetry windows/alerts\n\
                           + transport mode and segment stats\n\
             /series       raw telemetry tick ring\n\
             /trace        Chrome trace-event JSON (load in ui.perfetto.dev)\n\
             /profile      critical-path profile (per-entry phase breakdown)\n\
             /profile.folded  collapsed stacks (flamegraph.pl / speedscope)\n\
             /blackbox     on-demand black-box capture (JSON artifact)\n\
             /diagnostics  human-readable diagnostics dump\n"
                .to_string(),
        ),
        // The exposition-format content type Prometheus expects.
        "/metrics" => ("text/plain; version=0.0.4; charset=utf-8", rt.export_prometheus()),
        "/json" => (json, rt.export_json().to_string()),
        "/series" => (json, rt.export_series().to_string()),
        "/trace" => (json, rt.export_trace()),
        "/profile" => (text, rt.profile().text_report()),
        "/profile.folded" => (text, rt.profile().folded()),
        "/blackbox" => (json, rt.blackbox_json("http-request").to_string()),
        "/diagnostics" => (text, rt.diagnostics()),
        _ => return respond(&mut stream, 404, "text/plain", "not found\n"),
    };
    respond(&mut stream, 200, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal HTTP/1.1 GET for tests and `ppc-top` (std-only, no
/// keep-alive). Returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            std::io::Read::read_exact(&mut reader, &mut buf)?;
            body = String::from_utf8_lossy(&buf).into_owned();
        }
        None => {
            std::io::Read::read_to_string(&mut reader, &mut body)?;
        }
    }
    Ok((status, body))
}
