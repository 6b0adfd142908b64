//! `wire_mixed`: the `cold_mixed` trace through a real `ShardServer` on
//! loopback, from one connection with a sliding window of 16. It is the
//! only way to hold 16 requests in flight under the two-thread generator
//! cap, so it is the workload that loads the queue, micro-batcher,
//! dispatch pool and fusion deeply; `cold_mixed` ÷ `wire_mixed` is
//! EXPERIMENTS §S4's comparison on §S4's own trace.

use super::cold_mixed::{check_mixed, serve_config};
use super::{exact_answer, RunConfig, Workload, VERIFY_SAMPLE};
use crate::fixture::{Fixture, MODEL_ID, TIMED_BASE, VERIFY_BASE, WARM_BASE};
use crate::measure::{CallerLog, Phase};
use crate::trace::Tracer;
use nfv_net::frame::{read_frame, write_frame, WireError, MAX_PAYLOAD};
use nfv_net::msg::WireAnswer;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Attribution;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WINDOW: usize = 16;
/// Ops per segment, ~0.3 s on the reference host.
const SEGMENT_OPS: u64 = 300;
const WARM_OPS: u64 = 1200;

/// The harness's own single-threaded client: raw frames on one socket,
/// built on the public `write_frame` / `read_frame` /
/// `Message::{encode,decode}_payload`.
pub struct WireClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_rid: u64,
}

impl WireClient {
    pub fn connect(addr: std::net::SocketAddr) -> Result<WireClient, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(WireClient {
            writer,
            reader,
            next_rid: 1,
        })
    }

    pub fn rid(&mut self) -> u64 {
        self.next_rid += 1;
        self.next_rid - 1
    }

    pub fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        write_frame(&mut self.writer, msg.msg_type(), &msg.encode_payload())
    }

    pub fn recv(&mut self) -> Result<Message, WireError> {
        let (t, payload) = read_frame(&mut self.reader, MAX_PAYLOAD)?;
        Message::decode_payload(t, payload)
    }

    fn rpc(&mut self, msg: &Message) -> Result<Message, String> {
        self.send(msg).map_err(|e| e.to_string())?;
        self.recv().map_err(|e| e.to_string())
    }

    /// Ships the fixture model the way `ShardConn::register` does.
    pub fn register(&mut self, fx: &Fixture) -> Result<u64, String> {
        let model_json = serde_json::to_string(&ServeModel::Forest(fx.forest.clone()))
            .map_err(|e| e.to_string())?;
        let msg = Message::Register(WireRegister {
            rid: self.rid(),
            model_id: MODEL_ID.into(),
            model_json,
            feature_names: fx.data.names.clone(),
            background_rows: fx.background.rows().to_vec(),
            method_configs: Vec::new(),
        });
        match self.rpc(&msg)? {
            Message::RegisterOk { version, .. } => Ok(version),
            other => Err(format!("register answered {:?}", other.msg_type())),
        }
    }

    pub fn explain_message(&mut self, request: ExplainRequest) -> Message {
        Message::Explain(WireRequest {
            rid: self.rid(),
            model_id: request.model_id,
            features: request.features,
            method: request.method,
            budget_ns: request.budget.as_nanos() as u64,
        })
    }

    pub fn health(&mut self) -> Result<WireHealth, String> {
        let msg = Message::Health { rid: self.rid() };
        match self.rpc(&msg)? {
            Message::HealthOk(h) => Ok(h),
            other => Err(format!("health answered {:?}", other.msg_type())),
        }
    }

    /// Drain handshake; the server's event loop exits after answering.
    pub fn drain(&mut self) -> Result<u64, String> {
        let msg = Message::Drain { rid: self.rid() };
        match self.rpc(&msg)? {
            Message::DrainOk { completed, .. } => Ok(completed),
            other => Err(format!("drain answered {:?}", other.msg_type())),
        }
    }
}

/// An exact, freshly computed answer out of a reply frame.
fn exact_reply(msg: Result<Message, WireError>) -> Option<(u64, WireAnswer)> {
    match msg {
        Ok(Message::ExplainReply(WireResponse {
            rid,
            outcome: Ok(answer),
        })) if answer.coarse_budget == 0 && answer.max_abs_err == 0.0 && !answer.cache_hit => {
            Some((rid, answer))
        }
        _ => None,
    }
}

pub struct WireMixed {
    fx: Fixture,
    server: ShardServer,
    client: WireClient,
    /// In-process engine with the server's seed and configuration: it
    /// computed the reference answers and holds the replay registry.
    twin: Engine,
    reference: Vec<Arc<Attribution>>,
    segment_ops: u64,
    next_base: u64,
}

impl WireMixed {
    /// Sends the mixed requests `base..` through the sliding window for
    /// about `seconds` (at least one segment), recording into `log`;
    /// `on_answer` sees every exact answer with its op id.
    fn windowed(
        &mut self,
        seconds: f64,
        segment_ops: u64,
        base: u64,
        log: &mut CallerLog,
        mut on_answer: impl FnMut(u64, WireAnswer),
    ) {
        let mut in_flight: HashMap<u64, (u64, Instant)> = HashMap::with_capacity(2 * WINDOW);
        let (fx, client) = (&self.fx, &mut self.client);
        let mut receive = |client: &mut WireClient,
                           in_flight: &mut HashMap<u64, (u64, Instant)>,
                           log: &mut CallerLog| {
            let reply = client.recv();
            let now = Instant::now();
            log.answered(now);
            match exact_reply(reply) {
                Some((rid, answer)) => match in_flight.remove(&rid) {
                    Some((op, sent)) => {
                        log.record(op, sent, now, true);
                        log.queue_waited(Duration::from_nanos(answer.queue_wait_ns));
                        on_answer(op, answer);
                    }
                    None => log.failed += 1,
                },
                // A reject, a degraded answer or a wire error: the oldest
                // outstanding request takes the blame.
                None => {
                    let oldest = in_flight.iter().min_by_key(|(_, (_, sent))| *sent);
                    if let Some((&rid, &(op, sent))) = oldest {
                        in_flight.remove(&rid);
                        log.record(op, sent, now, false);
                    }
                }
            }
        };
        log.run_alone(seconds, segment_ops, |i, log| {
            if in_flight.len() == WINDOW {
                receive(client, &mut in_flight, log);
            }
            let op = base + i;
            let msg = client.explain_message(fx.mixed_request(op));
            let sent = Instant::now();
            log.issued(sent);
            if client.send(&msg).is_ok() {
                in_flight.insert(msg.rid(), (op, sent));
            } else {
                log.record(op, sent, Instant::now(), false);
            }
        });
        while !in_flight.is_empty() {
            receive(client, &mut in_flight, log);
        }
    }

    fn phase(&mut self, seconds: f64, segment_ops: u64, base: u64, traced: bool) -> Phase {
        let started = Instant::now();
        let mut log = CallerLog::new(started, traced);
        self.windowed(seconds, segment_ops, base, &mut log, |_, _| {});
        Phase::merge(vec![log], segment_ops, started)
    }
}

impl Workload for WireMixed {
    fn setup(run: &RunConfig, tracer: &mut Tracer) -> Result<Self, String> {
        let fx = Fixture::build(run.seed, tracer)?;
        let config = serve_config(run);
        let server = ShardServer::start(ShardConfig {
            serve: config,
            ..ShardConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut client = WireClient::connect(server.local_addr())?;
        client.register(&fx)?;
        let twin = Engine::start(config);
        fx.register(twin.registry(), tracer)?;
        let reference = (0..VERIFY_SAMPLE)
            .map(|i| {
                exact_answer(twin.explain(fx.mixed_request(VERIFY_BASE + i)))
                    .map(|r| r.attribution)
                    .ok_or_else(|| format!("twin engine failed reference request {i}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut this = WireMixed {
            fx,
            server,
            client,
            twin,
            reference,
            segment_ops: run.pick(SEGMENT_OPS, 48),
            next_base: TIMED_BASE,
        };
        let warm = this.phase(0.0, run.pick(WARM_OPS, 48), WARM_BASE, false);
        if warm.failed > 0 {
            return Err(format!("{} warm-up ops failed", warm.failed));
        }
        Ok(this)
    }

    fn timed(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let phase = self.phase(seconds, self.segment_ops, self.next_base, tracer.is_some());
        self.next_base += phase.attempted;
        if let Some(tracer) = tracer {
            tracer.adopt("nfv-serve.engine_explain", &phase.spans, phase.started);
        }
        phase
    }

    /// Wire answers must be `to_bits`-identical to an in-process engine
    /// with the same seed and configuration.
    fn verify(&mut self) -> Result<u64, String> {
        let mut log = CallerLog::new(Instant::now(), false);
        let mut answers: HashMap<u64, Attribution> = HashMap::new();
        self.windowed(0.0, VERIFY_SAMPLE, VERIFY_BASE, &mut log, |op, answer| {
            answers.insert(op - VERIFY_BASE, answer.attribution);
        });
        for i in 0..VERIFY_SAMPLE {
            let got = answers
                .get(&i)
                .ok_or_else(|| format!("verification request {i} was not answered exactly"))?;
            let method = self.fx.mixed_method(VERIFY_BASE + i);
            check_mixed(i, method, got, &self.reference[i as usize])?;
        }
        Ok(VERIFY_SAMPLE)
    }

    fn stats(&mut self) -> Result<ServeStats, String> {
        let health = self.client.health()?;
        if health.protocol_errors > 0 {
            return Err(format!(
                "{} protocol errors on the shard",
                health.protocol_errors
            ));
        }
        serde_json::from_str(&health.stats_json).map_err(|e| e.to_string())
    }

    fn registry(&self) -> &ModelRegistry {
        self.twin.registry()
    }

    fn serve_config(&self) -> ServeConfig {
        *self.twin.config()
    }

    fn request_for(&self, op_id: u64) -> Option<ExplainRequest> {
        Some(self.fx.mixed_request(op_id))
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.client.drain()?;
        let (_, protocol_errors) = self.server.join();
        self.twin.shutdown();
        if protocol_errors > 0 {
            return Err(format!("{protocol_errors} protocol errors on the shard"));
        }
        Ok(())
    }
}
