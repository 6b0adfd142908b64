//! Client side of one shard connection: request-id correlation over a
//! single TCP stream.
//!
//! A [`ShardConn`] owns one socket. Callers from any thread frame a
//! message, park a channel under its rid, and wait; a dedicated reader
//! thread decodes incoming frames and completes the matching channel —
//! out-of-order responses are the normal case, not an error. When the
//! stream dies (shard killed, network partition) the reader fails *every*
//! pending call immediately with [`WireError::ConnectionLost`] — callers
//! never stall out a timeout waiting on a corpse — and the connection is
//! marked dead so the router can reroute.

use crate::frame::{read_frame, write_frame, WireError};
use crate::msg::{Message, WireHealth, WireRegister, WireRequest, WireResponse};
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// In-flight requests by rid: the reader thread routes each decoded
/// frame (or a terminal wire error) to the waiting caller's channel.
type PendingMap = Arc<Mutex<HashMap<u64, mpsc::Sender<Result<Message, WireError>>>>>;

/// One client connection to one shard process.
pub struct ShardConn {
    addr: String,
    writer: Mutex<TcpStream>,
    pending: PendingMap,
    alive: Arc<AtomicBool>,
    next_rid: AtomicU64,
    rpc_timeout: Duration,
    /// Test seam: runs between the liveness check and the pending-map
    /// insert in [`ShardConn::begin`], where the insert can race the
    /// reader's `fail_all`. Lets the regression test kill the stream in
    /// exactly that window.
    rpc_race_hook: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl ShardConn {
    /// Connects and starts the reader thread.
    pub fn connect(
        addr: &str,
        max_payload: usize,
        rpc_timeout: Duration,
    ) -> Result<ShardConn, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        {
            let pending = Arc::clone(&pending);
            let alive = Arc::clone(&alive);
            thread::Builder::new()
                .name("nfv-net-reader".into())
                .spawn(move || reader_loop(reader, max_payload, pending, alive))
                .map_err(|e| WireError::Io(e.to_string()))?;
        }
        Ok(ShardConn {
            addr: addr.to_string(),
            writer: Mutex::new(stream),
            pending,
            alive,
            next_rid: AtomicU64::new(1),
            rpc_timeout,
            rpc_race_hook: Mutex::new(None),
        })
    }

    /// Installs the [`ShardConn::begin`] race hook. Test-only seam; not
    /// part of the supported API.
    #[doc(hidden)]
    pub fn set_rpc_race_hook(&self, hook: Box<dyn Fn() + Send>) {
        *self.rpc_race_hook.lock() = Some(hook);
    }

    /// The address this connection dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// False once the stream has died; calls will fail fast.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn next_rid(&self) -> u64 {
        self.next_rid.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks a response channel under the message's rid and sends the
    /// frame; [`ShardConn::finish`] waits the reply out. Split so
    /// pipelined callers can issue many sends before their first wait.
    fn begin(
        &self,
        msg: Message,
    ) -> Result<(u64, mpsc::Receiver<Result<Message, WireError>>), WireError> {
        let dead = || WireError::ConnectionLost(format!("{} is marked dead", self.addr));
        if !self.is_alive() {
            return Err(dead());
        }
        if let Some(hook) = &*self.rpc_race_hook.lock() {
            hook();
        }
        let rid = msg.rid();
        let (tx, rx) = mpsc::channel();
        self.pending.lock().insert(rid, tx);
        // The reader's `fail_all` marks the connection dead *before*
        // draining the pending map, so an insert that lost the race (the
        // map was already drained; nothing will ever complete this entry)
        // is always visible here: re-check and fail fast instead of
        // stalling out the full rpc timeout.
        if !self.is_alive() {
            self.pending.lock().remove(&rid);
            return Err(dead());
        }
        let payload = msg.encode_payload();
        let write_result = {
            let mut w = self.writer.lock();
            write_frame(&mut *w, msg.msg_type(), &payload)
        };
        if let Err(e) = write_result {
            self.pending.lock().remove(&rid);
            self.alive.store(false, Ordering::SeqCst);
            return Err(e);
        }
        Ok((rid, rx))
    }

    /// Waits out one response parked by [`ShardConn::begin`].
    fn finish(
        &self,
        rid: u64,
        rx: mpsc::Receiver<Result<Message, WireError>>,
    ) -> Result<Message, WireError> {
        match rx.recv_timeout(self.rpc_timeout) {
            Ok(result) => result,
            Err(_) => {
                self.pending.lock().remove(&rid);
                Err(WireError::Io(format!(
                    "rpc to {} timed out after {:?}",
                    self.addr, self.rpc_timeout
                )))
            }
        }
    }

    /// Sends one message and waits for the response bearing the same rid.
    fn rpc(&self, msg: Message) -> Result<Message, WireError> {
        let (rid, rx) = self.begin(msg)?;
        self.finish(rid, rx)
    }

    fn explain_message(&self, request: &ExplainRequest) -> Message {
        Message::Explain(WireRequest {
            rid: self.next_rid(),
            model_id: request.model_id.clone(),
            features: request.features.clone(),
            method: request.method,
            budget_ns: request.budget.as_nanos() as u64,
        })
    }

    fn decode_explain(msg: Message) -> Result<ExplainResponse, ShardCallError> {
        match msg {
            Message::ExplainReply(WireResponse { outcome, .. }) => match outcome {
                Ok(a) => Ok(ExplainResponse {
                    attribution: Arc::new(a.attribution),
                    model_version: a.model_version,
                    cache_hit: a.cache_hit,
                    batch_size: a.batch_size as usize,
                    queue_wait: Duration::from_nanos(a.queue_wait_ns),
                    service_time: Duration::from_nanos(a.service_ns),
                    fidelity: Fidelity::from_parts(a.coarse_budget, a.max_abs_err),
                }),
                Err(e) => Err(ShardCallError::Serve(e)),
            },
            other => Err(ShardCallError::Wire(WireError::Decode(format!(
                "expected ExplainReply, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Remote `Engine::explain`.
    pub fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, ShardCallError> {
        let msg = self.explain_message(request);
        Self::decode_explain(self.rpc(msg).map_err(ShardCallError::Wire)?)
    }

    /// Pipelined remote explains: every request is written to the socket
    /// before the first response is awaited, so one connection keeps up
    /// to `requests.len()` explains in flight. Results come back in input
    /// order (the wire order may differ; rids correlate). Each slot fails
    /// independently — a reject on one request does not poison the rest.
    pub fn explain_many(
        &self,
        requests: &[ExplainRequest],
    ) -> Vec<Result<ExplainResponse, ShardCallError>> {
        let tickets: Vec<_> = requests
            .iter()
            .map(|request| self.begin(self.explain_message(request)))
            .collect();
        tickets
            .into_iter()
            .map(|ticket| match ticket {
                Ok((rid, rx)) => {
                    Self::decode_explain(self.finish(rid, rx).map_err(ShardCallError::Wire)?)
                }
                Err(e) => Err(ShardCallError::Wire(e)),
            })
            .collect()
    }

    /// Remote `ModelRegistry::register`: ships the model as JSON and the
    /// background as raw rows. Returns the registry version the shard
    /// assigned.
    pub fn register(
        &self,
        model_id: &str,
        model: &ServeModel,
        feature_names: &[String],
        background: &Background,
    ) -> Result<u64, ShardCallError> {
        self.register_with_configs(model_id, model, feature_names, background, &[])
    }

    /// [`ShardConn::register`] with per-method serving configuration:
    /// `(method name, anytime divisor)` pairs the shard applies to its
    /// `ModelRegistry` alongside the registration.
    pub fn register_with_configs(
        &self,
        model_id: &str,
        model: &ServeModel,
        feature_names: &[String],
        background: &Background,
        method_configs: &[(String, u64)],
    ) -> Result<u64, ShardCallError> {
        let model_json = serde_json::to_string(model)
            .map_err(|e| ShardCallError::Wire(WireError::Decode(format!("model json: {e}"))))?;
        let msg = Message::Register(WireRegister {
            rid: self.next_rid(),
            model_id: model_id.to_string(),
            model_json,
            feature_names: feature_names.to_vec(),
            background_rows: background.rows().to_vec(),
            method_configs: method_configs.to_vec(),
        });
        match self.rpc(msg).map_err(ShardCallError::Wire)? {
            Message::RegisterOk { version, .. } => Ok(version),
            Message::RegisterErr { error, .. } => Err(ShardCallError::Serve(error)),
            other => Err(ShardCallError::Wire(WireError::Decode(format!(
                "expected RegisterOk, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Health probe.
    pub fn health(&self) -> Result<WireHealth, ShardCallError> {
        let msg = Message::Health {
            rid: self.next_rid(),
        };
        match self.rpc(msg).map_err(ShardCallError::Wire)? {
            Message::HealthOk(h) => Ok(h),
            other => Err(ShardCallError::Wire(WireError::Decode(format!(
                "expected HealthOk, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Graceful drain handshake; returns the shard's completed-request
    /// count. The shard stops accepting and exits after replying.
    pub fn drain(&self) -> Result<u64, ShardCallError> {
        let msg = Message::Drain {
            rid: self.next_rid(),
        };
        match self.rpc(msg).map_err(ShardCallError::Wire)? {
            Message::DrainOk { completed, .. } => Ok(completed),
            other => Err(ShardCallError::Wire(WireError::Decode(format!(
                "expected DrainOk, got {:?}",
                other.msg_type()
            )))),
        }
    }
}

/// What one shard call can return: a transport fault (reroutable) or the
/// engine's own verdict (authoritative).
#[derive(Debug, Clone, PartialEq)]
pub enum ShardCallError {
    /// Framing/transport failure — the router may retry elsewhere.
    Wire(WireError),
    /// The shard's engine answered with an error — not a transport issue.
    Serve(ServeError),
}

impl std::fmt::Display for ShardCallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCallError::Wire(e) => write!(f, "wire: {e}"),
            ShardCallError::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ShardCallError {}

fn reader_loop(
    mut stream: TcpStream,
    max_payload: usize,
    pending: PendingMap,
    alive: Arc<AtomicBool>,
) {
    let fail_all = |err: WireError| {
        alive.store(false, Ordering::SeqCst);
        let mut map = pending.lock();
        for (_, tx) in map.drain() {
            let _ = tx.send(Err(err.clone()));
        }
    };
    loop {
        let (t, payload) = match read_frame(&mut stream, max_payload) {
            Ok(f) => f,
            Err(e) => {
                fail_all(e);
                return;
            }
        };
        let msg = match Message::decode_payload(t, payload) {
            Ok(m) => m,
            Err(e) => {
                // A frame we cannot decode means the stream state is
                // unknowable; fail loud and kill the connection.
                fail_all(e);
                return;
            }
        };
        let rid = msg.rid();
        if let Some(tx) = pending.lock().remove(&rid) {
            let _ = tx.send(Ok(msg));
        }
        // An unmatched rid (caller timed out and gave up) is dropped.
    }
}
