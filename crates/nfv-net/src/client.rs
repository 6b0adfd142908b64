//! Client side of one shard connection: request-id correlation over a
//! single TCP stream.
//!
//! A [`ShardConn`] owns one socket. Callers from any thread frame a
//! message, park a channel under its rid, and wait; a dedicated reader
//! thread decodes incoming frames and completes the matching channel —
//! out-of-order responses are the normal case, not an error. The map of
//! parked calls is the connection's one state: it is `None` once the
//! stream has died (shard killed, network partition), so a call parks on
//! a live connection or fails at once with [`WireError::ConnectionLost`],
//! under one lock. The reader's read or decode error, or a caller's write
//! error, takes the map and fails *every* parked call at once — callers
//! never stall out a timeout waiting on a corpse — and the router
//! reroutes.

use crate::frame::{read_frame, write_frame, WireError};
use crate::msg::{Message, WireHealth, WireRegister, WireRequest, WireResponse};
use crate::router::NetError;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Where a parked call's answer goes: the frame bearing its rid, or the
/// error that killed the stream.
type Parked = mpsc::Sender<Result<Message, WireError>>;

/// The calls in flight by rid while the stream lives; `None` once it has
/// died.
type Pending = Arc<Mutex<Option<HashMap<u64, Parked>>>>;

/// A call sent and parked: its rid and where its answer arrives.
type Ticket = (u64, mpsc::Receiver<Result<Message, WireError>>);

/// One client connection to one shard process.
pub struct ShardConn {
    addr: String,
    writer: Mutex<TcpStream>,
    pending: Pending,
    next_rid: AtomicU64,
    rpc_timeout: Duration,
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
        let pending: Pending = Arc::new(Mutex::new(Some(HashMap::new())));
        {
            let pending = Arc::clone(&pending);
            thread::Builder::new()
                .name("nfv-net-reader".into())
                .spawn(move || reader_loop(reader, max_payload, &pending))
                .map_err(|e| WireError::Io(e.to_string()))?;
        }
        Ok(ShardConn {
            addr: addr.to_string(),
            writer: Mutex::new(stream),
            pending,
            next_rid: AtomicU64::new(1),
            rpc_timeout,
        })
    }

    /// The address this connection dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// False once the stream has died; calls will fail fast.
    pub fn is_alive(&self) -> bool {
        self.pending.lock().is_some()
    }

    fn next_rid(&self) -> u64 {
        self.next_rid.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks a response channel under the message's rid and sends the
    /// frame; [`ShardConn::finish`] waits the reply out. Split so
    /// pipelined callers can issue many sends before their first wait.
    fn begin(&self, msg: Message) -> Result<Ticket, WireError> {
        let rid = msg.rid();
        let (tx, rx) = mpsc::channel();
        match &mut *self.pending.lock() {
            Some(parked) => parked.insert(rid, tx),
            None => {
                let dead = format!("the stream to {} has died", self.addr);
                return Err(WireError::ConnectionLost(dead));
            }
        };
        let payload = msg.encode_payload();
        let written = write_frame(&mut *self.writer.lock(), msg.msg_type(), &payload);
        if let Err(e) = written {
            fail_all(&self.pending, &e);
            return Err(e);
        }
        Ok((rid, rx))
    }

    /// Waits out one response parked by [`ShardConn::begin`].
    fn finish(&self, (rid, rx): Ticket) -> Result<Message, WireError> {
        match rx.recv_timeout(self.rpc_timeout) {
            Ok(result) => result,
            Err(_) => {
                if let Some(parked) = &mut *self.pending.lock() {
                    parked.remove(&rid);
                }
                Err(WireError::Io(format!(
                    "rpc to {} timed out after {:?}",
                    self.addr, self.rpc_timeout
                )))
            }
        }
    }

    /// Sends one message and waits for the response bearing the same rid.
    fn rpc(&self, msg: Message) -> Result<Message, WireError> {
        self.finish(self.begin(msg)?)
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

    fn decode_explain(msg: Message) -> Result<ExplainResponse, NetError> {
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
                Err(e) => Err(NetError::Serve(e)),
            },
            other => Err(NetError::Wire(WireError::Decode(format!(
                "expected ExplainReply, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Remote `Engine::explain`.
    pub fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, NetError> {
        let msg = self.explain_message(request);
        Self::decode_explain(self.rpc(msg)?)
    }

    /// Pipelined remote explains: every request is written to the socket
    /// before the first response is awaited, so one connection keeps up
    /// to `requests.len()` explains in flight. Results come back in input
    /// order (the wire order may differ; rids correlate). Each slot fails
    /// independently — a reject on one request does not poison the rest.
    pub fn explain_many(
        &self,
        requests: &[ExplainRequest],
    ) -> Vec<Result<ExplainResponse, NetError>> {
        let tickets: Vec<_> = requests
            .iter()
            .map(|request| self.begin(self.explain_message(request)))
            .collect();
        tickets
            .into_iter()
            .map(|ticket| Self::decode_explain(self.finish(ticket?)?))
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
    ) -> Result<u64, NetError> {
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
    ) -> Result<u64, NetError> {
        let model_json = serde_json::to_string(model)
            .map_err(|e| NetError::Wire(WireError::Decode(format!("model json: {e}"))))?;
        let msg = Message::Register(WireRegister {
            rid: self.next_rid(),
            model_id: model_id.to_string(),
            model_json,
            feature_names: feature_names.to_vec(),
            background_rows: background.rows().to_vec(),
            method_configs: method_configs.to_vec(),
        });
        match self.rpc(msg)? {
            Message::RegisterOk { version, .. } => Ok(version),
            Message::RegisterErr { error, .. } => Err(NetError::Serve(error)),
            other => Err(NetError::Wire(WireError::Decode(format!(
                "expected RegisterOk, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Health probe.
    pub fn health(&self) -> Result<WireHealth, NetError> {
        let msg = Message::Health {
            rid: self.next_rid(),
        };
        match self.rpc(msg)? {
            Message::HealthOk(h) => Ok(h),
            other => Err(NetError::Wire(WireError::Decode(format!(
                "expected HealthOk, got {:?}",
                other.msg_type()
            )))),
        }
    }

    /// Graceful drain handshake; returns the shard's completed-request
    /// count. The shard stops accepting and exits after replying.
    pub fn drain(&self) -> Result<u64, NetError> {
        let msg = Message::Drain {
            rid: self.next_rid(),
        };
        match self.rpc(msg)? {
            Message::DrainOk { completed, .. } => Ok(completed),
            other => Err(NetError::Wire(WireError::Decode(format!(
                "expected DrainOk, got {:?}",
                other.msg_type()
            )))),
        }
    }
}

/// Takes the connection's pending map, so nothing parks on it again,
/// and fails every call parked there with `err`.
fn fail_all(pending: &Pending, err: &WireError) {
    for (_, tx) in pending.lock().take().into_iter().flatten() {
        let _ = tx.send(Err(err.clone()));
    }
}

fn reader_loop(mut stream: TcpStream, max_payload: usize, pending: &Pending) {
    let err = loop {
        // A frame we cannot decode leaves the stream state unknowable:
        // fail loud and kill the connection.
        let msg = match read_frame(&mut stream, max_payload)
            .and_then(|(t, payload)| Message::decode_payload(t, payload))
        {
            Ok(msg) => msg,
            Err(e) => break e,
        };
        // An unmatched rid (caller timed out and gave up) is dropped.
        let parked = pending.lock().as_mut().and_then(|p| p.remove(&msg.rid()));
        if let Some(tx) = parked {
            let _ = tx.send(Ok(msg));
        }
    };
    fail_all(pending, &err);
}
