//! The shard server: one OS process, one [`Engine`], one TCP listener.
//!
//! Concurrency model: a single event-loop thread owns the listener and
//! every connection through a level-triggered readiness poller
//! ([`mio::Poll`] over `poll(2)`), and it is the server's only thread
//! besides the engine's workers. Sockets are nonblocking; the loop
//! accepts, reads, parses frames incrementally out of per-connection
//! buffers, and flushes batched responses. An explain is handed to
//! [`Engine::submit`] on the loop, which never waits: a cache hit, a
//! reject or a validator's verdict is answered there and then, an
//! identical miss parks on the computation in flight, and any other miss
//! queues for a worker (the engine's admission sheds overload as typed
//! rejects). The request's [`Reply`] posts the encoded answer to the
//! loop's completion channel and fires the [`Waker`]; the loop routes
//! each completion back to its connection's write buffer and coalesces
//! everything queued for a socket into one flush. Responses therefore
//! leave in *completion* order, not arrival order — the rid correlates
//! them.
//!
//! Pipelining is admission-controlled per connection: more than
//! [`ShardConfig::max_pipeline`] explains in flight on one socket gets a
//! typed [`RejectReason::PipelineTooDeep`] reject (the connection stays
//! healthy — the client's pipeline is the thing being told off).
//!
//! Register/health/drain are handled inline on the event loop: they are
//! rare control traffic and ordering relative to explains is already
//! only rid-correlated.
//!
//! Draining: on [`crate::frame::MsgType::Drain`] the shard flips its `draining` flag
//! (new explains are rejected with `ShuttingDown`), and the loop waits —
//! event-driven, no busy-wait — for in-flight completions to reach zero.
//! It then queues `DrainOk { completed }` to every drain requester,
//! flushes all write buffers, and exits.
//!
//! Fail-loud: any frame that does not parse — bad magic, another protocol
//! version, bad checksum, oversized length — increments `protocol_errors`
//! and closes that connection. The protocol never guesses at resync. A
//! panic in plug-in code is contained by the engine and answered as
//! `ServeError::Internal`, and a reply dropped unanswered answers the same
//! way, so every explain the loop counts in flight completes and a drain
//! can never wedge on a lost decrement.

use crate::frame::{parse_header, verify_checksum, WireError, HEADER_LEN, MAX_PAYLOAD};
use crate::msg::{Message, WireAnswer, WireHealth, WireRegister, WireResponse};
use crossbeam::channel::{unbounded, Sender};
use mio::{Events, Interest, Poll, Token, Waker};
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Shard server configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub addr: String,
    /// Engine configuration for this shard.
    pub serve: ServeConfig,
    /// Frame payload cap (both directions).
    pub max_payload: usize,
    /// Max explains in flight per connection before the server answers
    /// `PipelineTooDeep` instead of submitting.
    pub max_pipeline: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            addr: "127.0.0.1:0".into(),
            serve: ServeConfig::default(),
            max_payload: MAX_PAYLOAD,
            max_pipeline: 64,
        }
    }
}

struct ShardInner {
    engine: Engine,
    draining: AtomicBool,
    stop: AtomicBool,
    in_flight: AtomicU64,
    completed: AtomicU64,
    protocol_errors: AtomicU64,
    max_payload: usize,
    waker: Arc<Waker>,
}

/// A finished explain headed back to the event loop for batching onto its
/// connection. The connection is referenced by id, so a vanished peer
/// cannot keep a socket alive.
struct Completion {
    conn_id: usize,
    msg: Message,
}

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens start here; ids are monotonic and never reused, so
/// a stale completion can never route to a different peer.
const CONN_BASE: usize = 2;

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into frames.
    read_buf: Vec<u8>,
    /// Batched outgoing frames; `write_pos` is the flush cursor so a
    /// partial write never memmoves the remainder.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Explains submitted on this connection and not yet answered.
    in_flight: u64,
    /// Whether WRITABLE interest is currently registered.
    wants_write: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// A running shard server. Dropping it does *not* stop the event loop;
/// call [`ShardServer::join`] (waits for a drain) or [`ShardServer::stop`].
pub struct ShardServer {
    inner: Arc<ShardInner>,
    local_addr: SocketAddr,
    event_thread: Option<thread::JoinHandle<()>>,
}

impl ShardServer {
    /// Binds the listener and starts the engine and the event loop.
    pub fn start(cfg: ShardConfig) -> Result<ShardServer, WireError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
        let inner = Arc::new(ShardInner {
            engine: Engine::start(cfg.serve),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            max_payload: cfg.max_payload,
            waker,
        });
        let loop_inner = Arc::clone(&inner);
        let max_pipeline = cfg.max_pipeline.max(1) as u64;
        let event_thread = thread::Builder::new()
            .name("nfv-shard-events".into())
            .spawn(move || event_loop(poll, listener, loop_inner, max_pipeline))
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(ShardServer {
            inner,
            local_addr,
            event_thread: Some(event_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Frames this shard failed to decode.
    pub fn protocol_errors(&self) -> u64 {
        self.inner.protocol_errors.load(Ordering::Relaxed)
    }

    /// Requests completed (successes and engine errors both count: each
    /// got its response frame).
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::SeqCst)
    }

    /// Blocks until the event loop exits (a Drain finished, or
    /// [`ShardServer::stop`] was called). Returns the final
    /// `(completed, protocol_errors)` counters.
    pub fn join(mut self) -> (u64, u64) {
        if let Some(h) = self.event_thread.take() {
            let _ = h.join();
        }
        (
            self.inner.completed.load(Ordering::SeqCst),
            self.inner.protocol_errors.load(Ordering::Relaxed),
        )
    }

    /// Force-stops the event loop without waiting for a drain.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _ = self.inner.waker.wake();
    }
}

/// The engine's reply to one wire explain: the answer, as its
/// `ExplainReply`, goes to the event loop's completion channel and the
/// waker fires. It holds only the channel and the waker, not the shard.
fn wire_reply(conn_id: usize, rid: u64, done: &Sender<Completion>, waker: &Arc<Waker>) -> Reply {
    let (done, waker) = (done.clone(), Arc::clone(waker));
    Reply::new(move |outcome| {
        let outcome = outcome.map(|resp| WireAnswer {
            attribution: (*resp.attribution).clone(),
            model_version: resp.model_version,
            cache_hit: resp.cache_hit,
            batch_size: resp.batch_size as u64,
            queue_wait_ns: resp.queue_wait.as_nanos() as u64,
            service_ns: resp.service_time.as_nanos() as u64,
            coarse_budget: resp.fidelity.sample_budget(),
            max_abs_err: resp.fidelity.max_abs_err(),
        });
        let msg = Message::ExplainReply(WireResponse { rid, outcome });
        let _ = done.send(Completion { conn_id, msg });
        let _ = waker.wake();
    })
}

/// What message handling decided about the connection's fate.
enum ConnFate {
    Keep,
    /// Peer misbehaved at the protocol layer: count and close.
    Protocol,
    /// Orderly close (peer EOF, write failure).
    Close,
}

fn event_loop(mut poll: Poll, listener: TcpListener, inner: Arc<ShardInner>, max_pipeline: u64) {
    let (done_tx, done_rx) = unbounded::<Completion>();
    let mut events = Events::with_capacity(256);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_id = CONN_BASE;
    // Connections that asked for a drain and the rid to answer under.
    let mut drain_waiters: Vec<(usize, u64)> = Vec::new();
    // Set once DrainOk frames are queued; the loop then exits as soon as
    // every write buffer is flushed.
    let mut finishing = false;

    'run: loop {
        if poll.poll(&mut events, None).is_err() {
            break;
        }
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut touched: Vec<usize> = Vec::new();
        for event in &events {
            match event.token() {
                LISTENER => accept_all(&listener, &mut poll, &mut conns, &mut next_id),
                WAKER => inner.waker.drain(),
                Token(id) => {
                    let fate = if event.is_readable() {
                        handle_readable(
                            id,
                            &mut conns,
                            &inner,
                            &done_tx,
                            max_pipeline,
                            &mut drain_waiters,
                        )
                    } else {
                        ConnFate::Keep
                    };
                    match fate {
                        ConnFate::Keep => touched.push(id),
                        ConnFate::Protocol => {
                            inner.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            close_conn(id, &mut poll, &mut conns);
                        }
                        ConnFate::Close => close_conn(id, &mut poll, &mut conns),
                    }
                }
            }
        }
        // Route finished explains back onto their connections. A
        // completion for a closed connection still settles the global
        // accounting — the work happened, the peer just left.
        while let Ok(done) = done_rx.try_recv() {
            inner.completed.fetch_add(1, Ordering::SeqCst);
            inner.in_flight.fetch_sub(1, Ordering::SeqCst);
            if let Some(conn) = conns.get_mut(&done.conn_id) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                queue_message(conn, &done.msg);
                touched.push(done.conn_id);
            }
        }
        // Event-driven drain: everything submitted has completed, so
        // answer every waiter and flip to the flush-and-exit state.
        if !drain_waiters.is_empty() && inner.in_flight.load(Ordering::SeqCst) == 0 {
            let completed = inner.completed.load(Ordering::SeqCst);
            for (id, rid) in drain_waiters.drain(..) {
                if let Some(conn) = conns.get_mut(&id) {
                    queue_message(conn, &Message::DrainOk { rid, completed });
                    touched.push(id);
                }
            }
            finishing = true;
        }
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            if matches!(flush_conn(id, &mut poll, &mut conns), ConnFate::Close) {
                close_conn(id, &mut poll, &mut conns);
            }
        }
        if finishing && conns.values().all(|c| c.pending_write() == 0) {
            inner.stop.store(true, Ordering::SeqCst);
            break 'run;
        }
    }
}

fn accept_all(
    listener: &TcpListener,
    poll: &mut Poll,
    conns: &mut HashMap<usize, Conn>,
    next_id: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are small frames written as they complete; with
                // Nagle on, each waits out the peer's delayed ACK (~40 ms)
                // behind the one before it on a pipelined connection.
                stream.set_nodelay(true).ok();
                let id = *next_id;
                *next_id += 1;
                if poll
                    .registry()
                    .register(&stream, Token(id), Interest::READABLE)
                    .is_err()
                {
                    continue;
                }
                conns.insert(
                    id,
                    Conn {
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        in_flight: 0,
                        wants_write: false,
                    },
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn close_conn(id: usize, poll: &mut Poll, conns: &mut HashMap<usize, Conn>) {
    if let Some(conn) = conns.remove(&id) {
        let _ = poll.registry().deregister(&conn.stream);
    }
}

/// Appends one encoded frame to the connection's write batch. Actual
/// socket writes happen in [`flush_conn`], so several replies queued in
/// one loop iteration leave in a single `write`.
fn queue_message(conn: &mut Conn, msg: &Message) {
    let payload = msg.encode_payload();
    // Writing into a Vec cannot fail.
    let _ = crate::frame::write_frame(&mut conn.write_buf, msg.msg_type(), &payload);
}

/// Writes as much of the batched output as the socket accepts; registers
/// WRITABLE interest only while a remainder exists.
fn flush_conn(id: usize, poll: &mut Poll, conns: &mut HashMap<usize, Conn>) -> ConnFate {
    let Some(conn) = conns.get_mut(&id) else {
        return ConnFate::Keep;
    };
    while conn.pending_write() > 0 {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return ConnFate::Close,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    if conn.pending_write() == 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.wants_write {
            conn.wants_write = false;
            let _ = poll
                .registry()
                .reregister(&conn.stream, Token(id), Interest::READABLE);
        }
    } else if !conn.wants_write {
        conn.wants_write = true;
        let _ = poll.registry().reregister(
            &conn.stream,
            Token(id),
            Interest::READABLE | Interest::WRITABLE,
        );
    }
    ConnFate::Keep
}

/// Drains the socket into the connection's read buffer, then parses and
/// handles every complete frame in it.
fn handle_readable(
    id: usize,
    conns: &mut HashMap<usize, Conn>,
    inner: &Arc<ShardInner>,
    done: &Sender<Completion>,
    max_pipeline: u64,
    drain_waiters: &mut Vec<(usize, u64)>,
) -> ConnFate {
    let Some(conn) = conns.get_mut(&id) else {
        return ConnFate::Keep;
    };
    let mut chunk = [0u8; 64 * 1024];
    let mut saw_eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    // Parse every complete frame out of the buffer before deciding the
    // connection's fate: pipelined requests arrive back to back.
    let mut consumed = 0usize;
    let mut fate = if saw_eof {
        ConnFate::Close
    } else {
        ConnFate::Keep
    };
    loop {
        let buf = &conn.read_buf[consumed..];
        if buf.len() < HEADER_LEN {
            break;
        }
        let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("checked length");
        let (t, len) = match parse_header(&header, inner.max_payload) {
            Ok(hl) => hl,
            Err(_) => {
                fate = ConnFate::Protocol;
                break;
            }
        };
        let total = HEADER_LEN + len + 8;
        if buf.len() < total {
            break;
        }
        if verify_checksum(
            &buf[HEADER_LEN..HEADER_LEN + len],
            &buf[HEADER_LEN + len..total],
        )
        .is_err()
        {
            fate = ConnFate::Protocol;
            break;
        }
        let payload = take_payload(&mut conn.read_buf, &mut consumed, len);
        let msg = match Message::decode_payload(t, payload) {
            Ok(m) => m,
            Err(_) => {
                fate = ConnFate::Protocol;
                break;
            }
        };
        match handle_message(id, conn, inner, done, max_pipeline, msg) {
            HandleResult::Continue => {}
            HandleResult::Drain { rid } => {
                drain_waiters.push((id, rid));
                inner.draining.store(true, Ordering::SeqCst);
            }
            HandleResult::Protocol => {
                fate = ConnFate::Protocol;
                break;
            }
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
    // EOF with dangling bytes means the peer died mid-frame; that is a
    // connection loss, not a protocol error (matches the old reader).
    fate
}

/// Frames with payloads at least this large are handed to the decoder in
/// the read buffer's own allocation instead of a copy. An explain frame is
/// a few hundred bytes and a registration megabytes (DESIGN §19.5).
const TAKE_PAYLOAD_MIN: usize = 64 * 1024;

/// Takes the payload of the complete, checked frame at `read_buf[*consumed..]`
/// (`len` payload bytes) and advances `consumed` past the frame. A small
/// payload is copied out. A large one — a model registration — is not:
/// the bytes after the frame move to a fresh read buffer, and the old
/// allocation becomes the payload, its cursor past everything before it.
fn take_payload(read_buf: &mut Vec<u8>, consumed: &mut usize, len: usize) -> bytes::Bytes {
    let start = *consumed + HEADER_LEN;
    if len < TAKE_PAYLOAD_MIN {
        *consumed += HEADER_LEN + len + 8;
        return bytes::Bytes::from_vec(read_buf[start..start + len].to_vec());
    }
    let rest = read_buf.split_off(start + len + 8);
    let mut frame = std::mem::replace(read_buf, rest);
    frame.truncate(start + len);
    *consumed = 0;
    let mut payload = bytes::Bytes::from_vec(frame);
    bytes::Buf::advance(&mut payload, start);
    payload
}

enum HandleResult {
    Continue,
    Drain { rid: u64 },
    Protocol,
}

fn handle_message(
    conn_id: usize,
    conn: &mut Conn,
    inner: &Arc<ShardInner>,
    done: &Sender<Completion>,
    max_pipeline: u64,
    msg: Message,
) -> HandleResult {
    match msg {
        Message::Explain(req) => {
            let rid = req.rid;
            let reject = |reason: RejectReason| {
                Message::ExplainReply(WireResponse {
                    rid,
                    outcome: Err(ServeError::Rejected(reason)),
                })
            };
            if inner.draining.load(Ordering::SeqCst) {
                queue_message(conn, &reject(RejectReason::ShuttingDown));
                return HandleResult::Continue;
            }
            if conn.in_flight >= max_pipeline {
                queue_message(
                    conn,
                    &reject(RejectReason::PipelineTooDeep {
                        depth: conn.in_flight,
                        limit: max_pipeline,
                    }),
                );
                return HandleResult::Continue;
            }
            // Counted before the submit, settled when the loop routes the
            // completion: a hit answers inline, but still through the loop.
            inner.in_flight.fetch_add(1, Ordering::SeqCst);
            conn.in_flight += 1;
            let request = ExplainRequest {
                model_id: req.model_id,
                features: req.features,
                method: req.method,
                budget: Duration::from_nanos(req.budget_ns),
            };
            let reply = wire_reply(conn_id, rid, done, &inner.waker);
            inner.engine.submit(request, reply);
            HandleResult::Continue
        }
        Message::Register(reg) => {
            let reply = handle_register(inner, reg);
            queue_message(conn, &reply);
            HandleResult::Continue
        }
        Message::Health { rid } => {
            let stats_json =
                serde_json::to_string(&inner.engine.stats()).unwrap_or_else(|_| "{}".into());
            let reply = Message::HealthOk(WireHealth {
                rid,
                draining: inner.draining.load(Ordering::SeqCst),
                queue_len: inner.engine.queue_len() as u64,
                cache_len: inner.engine.cache_len() as u64,
                protocol_errors: inner.protocol_errors.load(Ordering::Relaxed),
                stats_json,
            });
            queue_message(conn, &reply);
            HandleResult::Continue
        }
        Message::Drain { rid } => HandleResult::Drain { rid },
        // Server-bound traffic only; a response type here is a
        // protocol error.
        Message::ExplainReply(_)
        | Message::RegisterOk { .. }
        | Message::RegisterErr { .. }
        | Message::HealthOk(_)
        | Message::DrainOk { .. } => HandleResult::Protocol,
    }
}

fn handle_register(inner: &ShardInner, reg: WireRegister) -> Message {
    let rid = reg.rid;
    // Failures answer with the typed `RegisterErr`, not a mislabelled
    // `ExplainReply` — a registration has no explain outcome to carry.
    let fail = |m: String| Message::RegisterErr {
        rid,
        error: ServeError::Internal(m),
    };
    let model: ServeModel = match serde_json::from_str(&reg.model_json) {
        Ok(m) => m,
        Err(e) => return fail(format!("model json: {e}")),
    };
    let background = match Background::from_rows(reg.background_rows) {
        Ok(b) => b,
        Err(e) => return fail(format!("background: {e}")),
    };
    match inner
        .engine
        .registry()
        .register(&reg.model_id, model, reg.feature_names, background)
    {
        Ok(version) => {
            // Per-method serving config rides the registration: apply it
            // only once the model is in, so a failed registration leaves
            // no orphaned config behind.
            for (method, divisor) in &reg.method_configs {
                inner
                    .engine
                    .registry()
                    .set_anytime_divisor(&reg.model_id, method, *divisor);
            }
            Message::RegisterOk { rid, version }
        }
        Err(e) => fail(format!("register: {e}")),
    }
}
