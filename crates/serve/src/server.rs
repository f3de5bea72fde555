//! The TCP accept loop, the connection loop, and the one request
//! pipeline both the server and the router run.
//!
//! `serve` binds, spawns the batch workers and the accept thread, and
//! returns a [`ServerHandle`] immediately — callers (the `tsda_serve`
//! bin, the smoke test) decide when to stop by flipping the handle's
//! shutdown flag. The accept socket runs non-blocking so the loop can
//! poll that flag; each connection gets its own thread answering one
//! response per request, in order, so clients may pipeline freely.
//!
//! Connections negotiate their protocol from the first bytes: a
//! [`proto2::PREAMBLE`] switches the connection to length-prefixed
//! binary frames (protocol v2); anything else is newline-delimited
//! JSON. The mode is fixed for the connection's lifetime — see
//! [`crate::proto2`] for the framing rules.
//!
//! Every request takes the same path whatever its codec and whichever
//! process answers it: `handle_connection` frames it, a `Handler`
//! edge-decodes it into one op, `answer` dispatches it, and the
//! resulting `Outcome` is rendered by the connection's codec. The
//! server's handler runs ops on the [`Batcher`]; the router's
//! ([`crate::router`]) forwards them to a replica.
//!
//! Shutdown drains: when the flag flips, each connection handler does a
//! final non-blocking read pass and answers every complete request
//! (line or frame) it has already received before closing, and the
//! batch workers run until every queue is empty — a request the server
//! *accepted* is a request it answers, even under shutdown.
//!
//! When [`ServerConfig::faults`] carries a
//! [`FaultPlan`](crate::faults::FaultPlan), the handlers corrupt
//! request bytes, delay/tear/drop response writes, stall workers, and
//! shed submits on the plan's deterministic schedule (see
//! [`crate::faults`]). When [`ServerConfig::admission`] is set, predict
//! and augment requests pass a per-client token bucket first and may be
//! refused with `throttled` replies (see [`crate::admission`]).

use crate::admission::{Admission, AdmissionConfig};
use crate::batcher::{BatchConfig, BatchWork, Batcher, Lane, SubmitError};
use crate::faults::{self, FaultPlan};
use crate::pipelines::PipelineRegistry;
use crate::proto2::{self, ErrCode, Request2};
use crate::protocol::{
    augment_response_into, decode_series, error_response_into, overloaded_response_into,
    parse_request, predict_response_into, result_response_into, throttled_response_into,
    Request, OVERLOADED, THROTTLED,
};
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use serde::Value;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tsda_core::{Mts, TsdaError};

/// Server knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Micro-batcher flush policy.
    pub batch: BatchConfig,
    /// Optional deterministic fault-injection plan (None = fault-free).
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional per-client admission quota (None = admit everything).
    pub admission: Option<AdmissionConfig>,
    /// Named augmentation pipelines served through the `augment` op
    /// (None = the op answers "unknown pipeline" for every name).
    pub pipelines: Option<Arc<PipelineRegistry>>,
}

impl ServerConfig {
    /// The default production config on a concrete bind address.
    pub fn on(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), ..Self::default() }
    }
}

/// A running server: the bound address plus the stop lever.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters for this server.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Request shutdown and block until the accept loop, connection
    /// handlers, and batch workers have drained. Every request already
    /// read from a socket is answered before its connection closes;
    /// every job already queued is predicted before its worker exits.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind a non-blocking listener (the accept loop polls its shutdown
/// flag between accepts) and resolve its address.
pub(crate) fn bind(addr_spec: &str) -> Result<(TcpListener, SocketAddr), TsdaError> {
    let listener = TcpListener::bind(addr_spec)
        .map_err(|e| TsdaError::InvalidParameter(format!("bind {addr_spec}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| TsdaError::InvalidParameter(format!("local_addr: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| TsdaError::InvalidParameter(format!("set_nonblocking: {e}")))?;
    Ok((listener, addr))
}

/// Bind and start serving. Returns once the socket is listening; the
/// accept loop, connection handlers, and batch workers all run on
/// background threads until [`ServerHandle::shutdown`].
pub fn serve(registry: ModelRegistry, config: ServerConfig) -> Result<ServerHandle, TsdaError> {
    if registry.is_empty() && config.pipelines.as_ref().is_none_or(|p| p.is_empty()) {
        return Err(TsdaError::InvalidParameter(
            "serve needs at least one model or augmentation pipeline".into(),
        ));
    }
    let addr_spec = if config.addr.is_empty() { "127.0.0.1:7878" } else { config.addr.as_str() };
    let (listener, addr) = bind(addr_spec)?;

    let pipelines = config.pipelines.unwrap_or_default();
    let stats = Arc::new(ServerStats::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let batcher = Batcher::start(
        &registry,
        &pipelines,
        Arc::clone(&stats),
        config.batch,
        config.faults.clone(),
    )?;
    let shared = Arc::new(Shared {
        registry,
        stats: Arc::clone(&stats),
        batcher,
        faults: config.faults,
        admission: config.admission.map(Admission::new),
    });

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("tsda-accept".into())
            .spawn(move || {
                let conn_shared = Arc::clone(&shared);
                accept_loop(&listener, &shutdown, "tsda-conn", move |stream, peer, shutdown| {
                    let shared = &*conn_shared;
                    let mut conn = ServerConn { shared, peer };
                    handle_connection(stream, shutdown, shared.faults.as_deref(), &mut conn);
                });
                // Sole owner now that the loop exited and every
                // connection thread is joined: close the queues so the
                // workers drain and exit, then join them.
                if let Ok(shared) = Arc::try_unwrap(shared) {
                    shared.batcher.shutdown();
                }
            })
            .map_err(|e| TsdaError::InvalidParameter(format!("spawn accept thread: {e}")))?
    };

    Ok(ServerHandle { addr, shutdown, stats, accept_thread: Some(accept_thread) })
}

/// Accept until `shutdown` flips, running `serve_conn(stream, peer_ip,
/// shutdown)` on a fresh `conn_name` thread per connection; then join
/// every connection thread.
pub(crate) fn accept_loop<F>(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    conn_name: &str,
    serve_conn: F,
) where
    F: Fn(TcpStream, String, &AtomicBool) + Send + Sync + 'static,
{
    let serve_conn = Arc::new(serve_conn);
    let mut conn_threads = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer)) => {
                // Response lines are small; without TCP_NODELAY Nagle
                // holds them for the peer's delayed ACK (~40ms).
                stream.set_nodelay(true).ok();
                // Admission key: the peer IP (reconnecting keeps the
                // same bucket).
                let peer = peer.ip().to_string();
                let serve_conn = Arc::clone(&serve_conn);
                let shutdown = Arc::clone(shutdown);
                if let Ok(t) = std::thread::Builder::new()
                    .name(conn_name.into())
                    .spawn(move || serve_conn(stream, peer, &shutdown))
                {
                    conn_threads.push(t);
                }
                // Opportunistically reap finished handlers so a
                // long-lived server doesn't accumulate join handles.
                conn_threads.retain(|t| !t.is_finished());
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// One request as it arrived, for handlers that relay it verbatim.
#[derive(Clone, Copy)]
pub(crate) enum Wire<'a> {
    /// An NDJSON request line (newline stripped, trimmed).
    Line(&'a str),
    /// A raw v2 frame: `body + crc`, length prefix stripped.
    Frame(&'a [u8]),
}

/// How one request resolved, independent of codec and process; each
/// codec renders it ([`Outcome::render_line`] / [`Outcome::render_frame`]).
pub(crate) enum Outcome {
    /// A label came back.
    Label {
        /// Model that answered (echoed in NDJSON replies).
        model: String,
        /// Predicted class label.
        label: usize,
        /// Batch size the prediction rode in.
        batch: usize,
        /// Server-side latency, microseconds.
        micros: u64,
    },
    /// The transformed series came back.
    Series {
        /// Pipeline that answered (echoed in NDJSON replies).
        pipeline: String,
        /// Augmented series, bit-identical to offline execution.
        series: Mts,
        /// Batch size the job rode in.
        batch: usize,
        /// Server-side latency, microseconds.
        micros: u64,
    },
    /// A `stats` / `list` / `ping` payload.
    Result(Value),
    /// A replica's reply, already encoded in this connection's codec
    /// and complete (an NDJSON line carries its newline).
    Relay(Vec<u8>),
    /// Bounded-queue (or fault-plan) load shed; backoff hint in ms.
    Shed(u64),
    /// Admission-control refusal; backoff hint in ms.
    Throttled(u64),
    /// Any other refusal, with its message.
    Failed(String),
}

impl Outcome {
    /// The NDJSON reply line to write, newline included: a replica's
    /// line as relayed, or this outcome rendered into `out`.
    fn render_line<'a>(&'a self, id: u64, out: &'a mut String) -> &'a [u8] {
        out.clear();
        match self {
            Outcome::Label { model, label, batch, micros } => {
                predict_response_into(out, id, model, *label, *batch, *micros)
            }
            Outcome::Series { pipeline, series, batch, micros } => {
                augment_response_into(out, id, pipeline, series, *batch, *micros)
            }
            Outcome::Result(value) => result_response_into(out, id, value),
            Outcome::Relay(reply) => return reply,
            Outcome::Shed(retry_ms) => overloaded_response_into(out, id, *retry_ms),
            Outcome::Throttled(retry_ms) => throttled_response_into(out, id, *retry_ms),
            Outcome::Failed(msg) => error_response_into(out, id, msg),
        }
        out.push('\n');
        out.as_bytes()
    }

    /// The v2 reply frame to write: a replica's frame as relayed, or
    /// this outcome rendered into `out`.
    fn render_frame<'a>(&'a self, id: u64, out: &'a mut Vec<u8>) -> &'a [u8] {
        out.clear();
        match self {
            Outcome::Label { label, batch, micros, .. } => {
                proto2::encode_reply_predict_into(out, id, *label as u64, *batch as u32, *micros)
            }
            Outcome::Series { series, batch, micros, .. } => {
                proto2::encode_reply_augment_into(out, id, series, *batch as u32, *micros)
            }
            Outcome::Result(value) => proto2::encode_reply_result_into(out, id, value),
            Outcome::Relay(reply) => return reply,
            Outcome::Shed(retry_ms) => {
                proto2::encode_reply_error_into(out, id, ErrCode::Overloaded, OVERLOADED, *retry_ms)
            }
            Outcome::Throttled(retry_ms) => {
                proto2::encode_reply_error_into(out, id, ErrCode::Throttled, THROTTLED, *retry_ms)
            }
            Outcome::Failed(msg) => {
                proto2::encode_reply_error_into(out, id, ErrCode::Error, msg, 0)
            }
        }
        out
    }
}

/// The per-request half of a connection: the server's (decode fully,
/// run on the batcher) or the router's (decode the routing header,
/// forward). [`handle_connection`] owns everything else — negotiation,
/// framing, error counting, rendering, writes.
pub(crate) trait Handler {
    /// One decoded request.
    type Op;
    /// Counter for requests refused before they reach [`Self::respond`].
    fn errors(&self) -> &AtomicU64;
    /// Edge-decode one NDJSON line; `Err` carries `(id, message)`.
    fn decode_line(line: &str) -> Result<(u64, Self::Op), (u64, String)>;
    /// Edge-decode one checksummed v2 body; `Err` carries `(id, message)`.
    fn decode_body(body: &[u8]) -> Result<(u64, Self::Op), (u64, String)>;
    /// Answer one decoded request; `wire` is the request as it arrived.
    fn respond(&mut self, op: Self::Op, wire: Wire<'_>) -> Outcome;
}

/// The one per-request dispatch. A request that fails its edge decode
/// counts in `errors` only — never in `requests` — on either protocol.
fn answer<H: Handler>(
    handler: &mut H,
    decoded: Result<(u64, H::Op), (u64, String)>,
    wire: Wire<'_>,
) -> (u64, Outcome) {
    match decoded {
        Ok((id, op)) => (id, handler.respond(op, wire)),
        Err((id, msg)) => {
            handler.errors().fetch_add(1, Ordering::Relaxed);
            (id, Outcome::Failed(msg))
        }
    }
}

/// The wire protocol a connection settled on.
enum Mode {
    /// No request bytes seen yet.
    Undecided,
    /// Newline-delimited JSON (protocol v1).
    Ndjson,
    /// Length-prefixed binary frames (protocol v2).
    V2,
}

/// Outcome of a negotiation attempt over the current buffer.
enum Negotiated {
    /// Mode decided (or already was); proceed to answer.
    Proceed,
    /// First byte matches the preamble but the rest hasn't arrived.
    NeedMore,
    /// Preamble started but mismatched: refuse and close.
    Refuse,
}

/// Decide the connection mode from the first buffered bytes. The
/// preamble's first byte (0xB2) can never start a JSON line, so one
/// byte settles NDJSON; a full preamble match settles v2 and consumes
/// the preamble bytes.
fn negotiate(buf: &mut Vec<u8>, mode: &mut Mode) -> Negotiated {
    if !matches!(mode, Mode::Undecided) || buf.is_empty() {
        return Negotiated::Proceed;
    }
    if buf[0] != proto2::PREAMBLE[0] {
        *mode = Mode::Ndjson;
        return Negotiated::Proceed;
    }
    if buf.len() < proto2::PREAMBLE.len() {
        return Negotiated::NeedMore;
    }
    if buf[..proto2::PREAMBLE.len()] == proto2::PREAMBLE {
        buf.drain(..proto2::PREAMBLE.len());
        *mode = Mode::V2;
        Negotiated::Proceed
    } else {
        Negotiated::Refuse
    }
}

/// Per-connection state. At steady state a connection answers requests
/// without allocating for line extraction or response encoding —
/// everything request-sized lives here and is cleared (not freed)
/// between requests.
struct Conn<'a> {
    writer: TcpStream,
    faults: Option<&'a FaultPlan>,
    /// One request line, drained out of the read buffer.
    line: Vec<u8>,
    /// One NDJSON response line.
    response: String,
    /// One v2 reply frame.
    frame: Vec<u8>,
}

impl Conn<'_> {
    /// Answer everything complete in `buf` for the negotiated mode.
    /// Returns false when the connection must close.
    fn answer_buffered<H: Handler>(&mut self, mode: &Mode, buf: &mut Vec<u8>, h: &mut H) -> bool {
        match mode {
            Mode::Undecided => true,
            Mode::Ndjson => self.answer_buffered_lines(buf, h),
            Mode::V2 => self.answer_buffered_frames(buf, h),
        }
    }

    /// Pop complete lines off `buf` and answer each in order. Returns
    /// false when a write failed (peer gone or fault-injected drop) and
    /// the connection should close.
    fn answer_buffered_lines<H: Handler>(&mut self, buf: &mut Vec<u8>, h: &mut H) -> bool {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            self.line.clear();
            self.line.extend(buf.drain(..=pos));
            self.line.pop(); // the '\n'
            if let Some(plan) = self.faults {
                // Wire corruption happens between the peer's write and
                // our parse; the parser must turn it into an error reply.
                plan.corrupt_line(&mut self.line);
            }
            // Borrowed in the common (valid UTF-8) case; invalid bytes
            // are already a parse-error path.
            let text = String::from_utf8_lossy(&self.line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let (id, outcome) = answer(h, H::decode_line(text), Wire::Line(text));
            let reply = outcome.render_line(id, &mut self.response);
            if faults::write_response(&mut self.writer, reply, self.faults).is_err() {
                return false;
            }
        }
        true
    }

    /// Pop complete v2 frames off `buf` and answer each in order.
    /// Returns false when the connection must close: a failed write, or
    /// a corrupted *length prefix* — unlike body corruption (caught by
    /// the checksum and answered with an error reply on an intact
    /// stream), a bad prefix desynchronises framing beyond recovery.
    fn answer_buffered_frames<H: Handler>(&mut self, buf: &mut Vec<u8>, h: &mut H) -> bool {
        loop {
            let (id, outcome, keep_open) = match proto2::take_frame(buf) {
                Ok(None) => return true,
                Ok(Some(mut raw)) => {
                    if let Some(plan) = self.faults {
                        // Corrupt after the boundary is known: frame
                        // extraction used the (uncorrupted) length
                        // prefix, so the stream stays in sync and the
                        // checksum turns the mangled payload into an
                        // error reply instead of a different request.
                        plan.corrupt_line(&mut raw);
                    }
                    // A checksum failure answers with id 0 — the real
                    // id is untrustworthy inside a corrupted frame.
                    // Kept a call (not `.and_then(H::decode_body)`):
                    // tsda_analyze draws call edges only at `name(`, and
                    // R1 must reach both v2 decoders from here.
                    let decoded = match proto2::check_frame(&raw) {
                        Ok(body) => H::decode_body(body),
                        Err(msg) => Err((0, msg)),
                    };
                    let (id, outcome) = answer(h, decoded, Wire::Frame(&raw));
                    (id, outcome, true)
                }
                // Answered best-effort, then closed whether or not the
                // write lands: framing cannot be resynchronised after a
                // bad length prefix.
                Err(msg) => {
                    h.errors().fetch_add(1, Ordering::Relaxed);
                    (0, Outcome::Failed(msg), false)
                }
            };
            let reply = outcome.render_frame(id, &mut self.frame);
            let delivered = faults::write_response(&mut self.writer, reply, self.faults).is_ok();
            if !(delivered && keep_open) {
                return false;
            }
        }
    }
}

/// The connection loop both processes run: read requests, negotiate
/// the codec, answer each request in order through `handler`. Uses a
/// short read timeout so the loop notices shutdown within ~100ms even
/// on an idle keep-alive connection. On shutdown it drains: one final
/// read pass picks up anything the peer already sent, and every
/// complete request gets its response before the socket closes.
pub(crate) fn handle_connection<H: Handler>(
    stream: TcpStream,
    shutdown: &AtomicBool,
    faults: Option<&FaultPlan>,
    handler: &mut H,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if reader.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    let mut conn = Conn {
        writer: stream,
        faults,
        line: Vec::new(),
        response: String::new(),
        frame: Vec::new(),
    };
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut mode = Mode::Undecided;
    loop {
        match negotiate(&mut buf, &mut mode) {
            Negotiated::Proceed => {
                if !conn.answer_buffered(&mode, &mut buf, handler) {
                    return;
                }
            }
            Negotiated::NeedMore => {}
            Negotiated::Refuse => {
                // A broken preamble is not attributable to either
                // protocol; answer once in NDJSON (any client can read
                // it) and close.
                handler.errors().fetch_add(1, Ordering::Relaxed);
                error_response_into(&mut conn.response, 0, "bad protocol preamble");
                conn.response.push('\n');
                // Best-effort refusal; the connection closes either way.
                let _delivered =
                    faults::write_response(&mut conn.writer, conn.response.as_bytes(), faults)
                        .is_ok();
                return;
            }
        }
        if shutdown.load(Ordering::Relaxed) {
            // Final drain: requests the peer pipelined before shutdown
            // may still sit in the kernel buffer. Read until the socket
            // goes quiet, then answer everything complete.
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break, // WouldBlock/TimedOut: socket quiet
                }
            }
            if matches!(negotiate(&mut buf, &mut mode), Negotiated::Proceed) {
                conn.answer_buffered(&mode, &mut buf, handler);
            }
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Everything the server's connections share.
struct Shared {
    registry: ModelRegistry,
    stats: Arc<ServerStats>,
    batcher: Batcher,
    faults: Option<Arc<FaultPlan>>,
    admission: Option<Admission>,
}

/// One server connection's handler.
struct ServerConn<'a> {
    shared: &'a Shared,
    /// Admission key: the peer IP.
    peer: String,
}

impl ServerConn<'_> {
    /// The one request core for both lanes: admission, lane lookup,
    /// input check, submit, wait. Counts every outcome in `stats`; a
    /// refusal comes back as the [`Outcome`] to render.
    fn run_lane<W: BatchWork>(
        &self,
        lane: Option<&Lane<W>>,
        name: &str,
        input: W::Input,
    ) -> Result<(W::Output, usize, u64), Outcome> {
        let stats = &*self.shared.stats;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(adm) = &self.shared.admission {
            if let Err(retry_ms) = adm.admit(&self.peer) {
                stats.throttled.fetch_add(1, Ordering::Relaxed);
                return Err(Outcome::Throttled(retry_ms));
            }
        }
        let refuse = |msg: String| {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Outcome::Failed(msg)
        };
        let lane = lane.ok_or_else(|| refuse(format!("unknown {} {name:?}", W::NOUN)))?;
        lane.work().check_input(&input).map_err(refuse)?;
        let pending = lane.submit(input).map_err(|e| match e {
            SubmitError::Overloaded { retry_ms } => {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                Outcome::Shed(retry_ms)
            }
            SubmitError::Closed => refuse("server shutting down".to_string()),
        })?;
        // recv() always answers: an accepted job either gets its batch
        // result or (if its worker abandoned it) a shutdown error.
        let reply = pending.recv();
        reply.result.map(|out| (out, reply.batch_size, reply.micros)).map_err(Outcome::Failed)
    }

    /// `stats` endpoint payload: the server-wide counter snapshot plus
    /// the per-queue rows (depth, submitted, shed, ticket_allocs) from
    /// the batcher — the live evidence that the warm pools cover the
    /// load.
    fn stats_value(&self) -> Value {
        let mut v = self.shared.stats.snapshot().to_value();
        if let Value::Object(pairs) = &mut v {
            pairs.push(("queues".into(), self.shared.batcher.queue_stats()));
        }
        v
    }
}

/// The server decodes both codecs into the same [`Request2`]: v2
/// frames carry the series as raw f64 bits, NDJSON lines as text the
/// edge parses here.
impl Handler for ServerConn<'_> {
    type Op = Request2;

    fn errors(&self) -> &AtomicU64 {
        &self.shared.stats.errors
    }

    fn decode_line(line: &str) -> Result<(u64, Request2), (u64, String)> {
        let request = parse_request(line)?;
        let id = request.id();
        let series = |text: &str| decode_series(text).map_err(|e| (id, format!("bad series: {e}")));
        let op = match request {
            Request::Predict { id, model, series: text } => {
                Request2::Predict { id, model, series: series(&text)? }
            }
            Request::Augment { id, pipeline, seed, index, series: text } => {
                Request2::Augment { id, pipeline, seed, index, series: series(&text)? }
            }
            Request::Stats { id } => Request2::Stats { id },
            Request::List { id } => Request2::List { id },
            Request::Ping { id } => Request2::Ping { id },
        };
        Ok((id, op))
    }

    fn decode_body(body: &[u8]) -> Result<(u64, Request2), (u64, String)> {
        proto2::decode_request(body).map(|request| (request.id(), request))
    }

    fn respond(&mut self, op: Request2, _wire: Wire<'_>) -> Outcome {
        let batcher = &self.shared.batcher;
        match op {
            Request2::Predict { model, series, .. } => {
                match self.run_lane(batcher.model(&model), &model, series) {
                    Ok((label, batch, micros)) => Outcome::Label { model, label, batch, micros },
                    Err(refused) => refused,
                }
            }
            Request2::Augment { pipeline, seed, index, series, .. } => {
                match self.run_lane(batcher.pipeline(&pipeline), &pipeline, (series, seed, index)) {
                    Ok((series, batch, micros)) => {
                        Outcome::Series { pipeline, series, batch, micros }
                    }
                    Err(refused) => refused,
                }
            }
            Request2::Stats { .. } => Outcome::Result(self.stats_value()),
            Request2::List { .. } => Outcome::Result(self.shared.registry.describe()),
            Request2::Ping { .. } => Outcome::Result(Value::Str("pong".into())),
        }
    }
}
