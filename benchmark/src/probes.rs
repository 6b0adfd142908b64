//! The fixed probe suite of a traced run: every public layer call the
//! per-layer metrics name, timed on inputs of fixed size derived from the
//! seed, so a layer's figure means the same on every workload and commit.
//! The recorded negative results — cache-hit traffic over the wire, and
//! `explain_many` at depth 8 — live here as probes, not as end-to-end
//! metrics.

use crate::fixture::{Fixture, METHODS};
use crate::trace::{ReplayCounts, Replayer, Tracer};
use crate::workloads::pipeline_retrain::PipelineRetrain;
use crate::workloads::wire_mixed::WireClient;
use crate::workloads::{RunConfig, Workload};
use bytes::Bytes;
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::frame::{encode_frame, verify_checksum, MsgType, MAX_PAYLOAD};
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use std::time::Duration;

/// Op ids of the probe requests: clear of every workload phase, and on a
/// method block.
const PROBE_BASE: u64 = 8_196;
/// Mixed-method requests replayed: 40 of each of the six methods.
const REPLAY_OPS: u64 = 240;
const CODEC_REPS: u64 = 1_000;
const RTT_REPS: u64 = 1_000;
const MANY_REPS: u64 = 200;
const MANY_DEPTH: usize = 8;
pub const CHECKSUM_KIB: usize = 64;

/// Counts measured beside the probe spans.
pub struct ProbeCounts {
    pub replay: ReplayCounts,
    pub fluid_rows: f64,
    pub des_windows: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub protocol_errors: u64,
}

/// Runs the suite under a tracer of its own, so its figures are not pooled
/// with the workload's spans of the same name.
pub fn run(seed: u64) -> Result<(Tracer, ProbeCounts), String> {
    let mut spans = Tracer::new(true);
    let tracer = &mut spans;
    let fx = Fixture::build(seed, tracer)?;
    model_probes(&fx, tracer)?;

    let config = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let engine = Engine::start(config);
    for _ in 0..5 {
        fx.register(engine.registry(), tracer)?;
    }
    let replay = replay_probes(&fx, engine.registry(), config, tracer)?;
    engine_hit_probe(&fx, &engine, tracer)?;
    engine.shutdown();

    let des_windows = pipeline_probe(seed, tracer)?;
    let (request_bytes, response_bytes, protocol_errors) = wire_probes(&fx, config, tracer)?;
    let counts = ProbeCounts {
        replay,
        fluid_rows: fx.data.n_rows() as f64,
        des_windows,
        request_bytes,
        response_bytes,
        protocol_errors,
    };
    Ok((spans, counts))
}

/// `SoaForest::from_forest` and `Dataset::new` on the fixture's shapes.
fn model_probes(fx: &Fixture, tracer: &mut Tracer) -> Result<(), String> {
    for _ in 0..10 {
        tracer
            .timed("nfv-ml.soa_pack", 0, None, || {
                SoaForest::from_forest(&fx.forest)
            })
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..20 {
        let (names, x, y) = (
            fx.data.names.clone(),
            fx.data.x_flat().to_vec(),
            fx.data.y.clone(),
        );
        tracer
            .timed("nfv-data.dataset_new", 0, None, || {
                Dataset::new(names, x, y, Task::Regression)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The layer replay over a fixed mixed-method trace: first pass all
/// misses (plan / evaluate / finish / direct / insert), second pass all
/// hits — the small exact tier has demoted most entries, so both the hot
/// and the quantized read path get samples.
fn replay_probes(
    fx: &Fixture,
    registry: &ModelRegistry,
    config: ServeConfig,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut replayer = Replayer::new(ServeConfig {
        cache_capacity: 64,
        cold_capacity: 1024,
        ..config
    });
    for _pass in 0..2 {
        for op in PROBE_BASE..PROBE_BASE + REPLAY_OPS {
            replayer.replay(registry, &fx.mixed_request(op), op, tracer)?;
        }
    }
    Ok(replayer.counts)
}

/// `Engine::explain` on keys the engine already holds.
fn engine_hit_probe(fx: &Fixture, engine: &Engine, tracer: &mut Tracer) -> Result<(), String> {
    for pass in 0..2 {
        for op in PROBE_BASE..PROBE_BASE + REPLAY_OPS {
            let request = fx.mixed_request(op);
            let name = if pass == 0 {
                "nfv-serve.explain_fill"
            } else {
                "nfv-serve.explain_hit"
            };
            let answer = tracer.timed(name, op, None, || engine.explain(request));
            let answer = answer.map_err(|e| e.to_string())?;
            if answer.cache_hit != (pass == 1) {
                return Err(format!(
                    "hit probe: op {op} pass {pass} hit={}",
                    answer.cache_hit
                ));
            }
        }
    }
    Ok(())
}

/// One traced segment of a small `pipeline_retrain`: `run_des`,
/// `from_snapshot` and the epoch spans they are a share of. Returns the
/// telemetry windows simulated.
fn pipeline_probe(seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
    let small = RunConfig { seed, smoke: true };
    let mut pipeline = PipelineRetrain::setup(&small, &mut Tracer::new(false))?;
    let phase = pipeline.timed(0.0, Some(tracer));
    pipeline.shutdown()?;
    if phase.failed > 0 {
        return Err(format!("{} pipeline probe epochs failed", phase.failed));
    }
    Ok(tracer.durations("nfv-data.from_snapshot").len() as f64)
}

/// Codec, frame checksum, and the three wire-hit probes against a real
/// `ShardServer` on loopback.
fn wire_probes(
    fx: &Fixture,
    config: ServeConfig,
    tracer: &mut Tracer,
) -> Result<(f64, f64, u64), String> {
    let server = ShardServer::start(ShardConfig {
        serve: config,
        ..ShardConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = WireClient::connect(server.local_addr())?;
    client.register(fx)?;

    // Raw frames, one cached key, window 1.
    let request = fx.request(PROBE_BASE, METHODS[0]);
    let mut reply = None;
    for i in 0..=RTT_REPS {
        let msg = client.explain_message(request.clone());
        // The first round trip fills the cache and is not a hit.
        let name = if i == 0 {
            "nfv-net.rtt_fill"
        } else {
            "nfv-net.rtt_hit_w1"
        };
        let answer = tracer.timed(name, i, None, || {
            client.send(&msg).and_then(|()| client.recv())
        });
        reply = Some(answer.map_err(|e| e.to_string())?);
    }
    let reply = reply.expect("at least one round trip");
    if !matches!(&reply, Message::ExplainReply(WireResponse { outcome: Ok(a), .. }) if a.cache_hit)
    {
        return Err("wire hit probe was not answered from the cache".into());
    }

    // Codec on the frames that just crossed the wire.
    let request_msg = client.explain_message(request.clone());
    let (request_payload, reply_payload) = (request_msg.encode_payload(), reply.encode_payload());
    for i in 0..CODEC_REPS {
        tracer.timed("nfv-net.encode_request", i, None, || {
            request_msg.encode_payload()
        });
        tracer.timed("nfv-net.encode_response", i, None, || {
            reply.encode_payload()
        });
        let bytes = Bytes::from_vec(request_payload.clone());
        tracer
            .timed("nfv-net.decode_request", i, None, || {
                Message::decode_payload(request_msg.msg_type(), bytes)
            })
            .map_err(|e| e.to_string())?;
        let bytes = Bytes::from_vec(reply_payload.clone());
        tracer
            .timed("nfv-net.decode_response", i, None, || {
                Message::decode_payload(reply.msg_type(), bytes)
            })
            .map_err(|e| e.to_string())?;
    }
    let request_bytes = encode_frame(request_msg.msg_type(), &request_payload).len() as f64;
    let response_bytes = encode_frame(reply.msg_type(), &reply_payload).len() as f64;

    let payload = vec![0xa5u8; CHECKSUM_KIB << 10];
    let frame = encode_frame(MsgType::Health, &payload);
    let tail = &frame[frame.len() - 8..];
    for i in 0..50 {
        tracer
            .timed("nfv-net.frame_checksum", i, None, || {
                verify_checksum(&payload, tail)
            })
            .map_err(|e| e.to_string())?;
    }

    // The client library's path: a reader-thread hop per answer, then
    // depth-8 pipelining (the Nagle probe: accepted sockets never set
    // TCP_NODELAY).
    let conn = ShardConn::connect(
        &server.local_addr().to_string(),
        MAX_PAYLOAD,
        Duration::from_secs(30),
    )
    .map_err(|e| e.to_string())?;
    for i in 0..RTT_REPS {
        tracer
            .timed("nfv-net.shardconn_hit", i, None, || conn.explain(&request))
            .map_err(|e| format!("{e:?}"))?;
    }
    let batch = vec![request; MANY_DEPTH];
    for i in 0..MANY_REPS {
        let answers = tracer.timed("nfv-net.explain_many8", i, None, || {
            conn.explain_many(&batch)
        });
        if let Some(Err(e)) = answers.into_iter().find(Result::is_err) {
            return Err(format!("{e:?}"));
        }
    }
    drop(conn);

    client.drain()?;
    let (_, protocol_errors) = server.join();
    Ok((request_bytes, response_bytes, protocol_errors))
}
