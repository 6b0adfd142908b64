//! Regression tests for the wire-tier correctness fixes and the
//! event-driven shard server's admission behaviour:
//!
//! - registration failures answer with the typed `RegisterErr`, not a
//!   mislabelled `ExplainReply`;
//! - a panicking plug-in cannot wedge the drain handshake (the engine
//!   contains the panic and answers it, so the in-flight count settles);
//! - a `ShardConn` call made after its stream died fails fast (the
//!   reader's `fail_all` took the pending map, so there is nowhere to
//!   park) instead of stalling out the full rpc timeout;
//! - pipelining deeper than the server's per-connection limit gets the
//!   typed `PipelineTooDeep` reject while shallower pipelines complete;
//! - accepted sockets run with `TCP_NODELAY`, so pipelined cached replies
//!   do not queue behind the client's delayed ACKs;
//! - a frame of another protocol version closes its connection as a
//!   protocol error and leaves the shard serving;
//! - a cached explain is answered while misses wait on the engine's only
//!   worker: the event loop submits it, and nothing queues it behind them;
//! - a dropped `ShardConn` leaves no reader thread or open socket behind,
//!   though its peer never closes.

use bytes::BufMut;
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::frame::{read_frame, write_frame, MsgType};
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::{
    Attribution, Background, CoalitionWorkspace, ExplainContext, ExplainPlan, Explainer,
    FusedBlock, MethodRegistry, XaiError,
};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn start_server(cfg: ShardConfig) -> (ShardServer, String) {
    let server = ShardServer::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn explain_request(model_id: &str) -> ExplainRequest {
    ExplainRequest {
        model_id: model_id.into(),
        features: vec![0.25, 0.5, 0.75, 0.1, 0.9],
        method: ExplainMethod::Permutation,
        budget: Duration::from_secs(30),
    }
}

/// A registration the server cannot accept must come back as the typed
/// `RegisterErr` — not as an `ExplainReply` wearing an error — and leave
/// the shard serving. Five refusals: JSON that is no model; a forest
/// whose root names itself as both children (packing it used to overflow
/// the event loop's stack and abort the process); a structurally valid
/// chain of 30 000 levels, a ~6 MB frame (its first tree-shap request used
/// to ask for 28.8 GB of path arena and abort the process); 100 000 `[`,
/// which the recursive JSON parser followed until the event loop's stack
/// overflowed; and a node without its `threshold`, which used to read as
/// a NaN split. A good model registered afterwards is explained. Sent raw
/// so the assertions are on the wire messages themselves, not on the
/// client's (intentionally lenient) decoding.
#[test]
fn register_failure_replies_with_typed_register_err() {
    const CYCLIC_FOREST: &str = r#"{"Forest":{"trees":[{"nodes":[{"feature":0,"threshold":0.0,
        "left":0,"right":0,"value":0.0,"cover":1.0,"is_leaf":false}],"n_features":1,
        "task":"Regression"}],"n_features":1,"task":"Regression"}}"#;
    const NO_THRESHOLD: &str = r#"{"Forest":{"trees":[{"nodes":[{"feature":0,
        "left":1,"right":2,"value":0.0,"cover":2.0,"is_leaf":false},{"feature":0,
        "threshold":0.0,"left":0,"right":0,"value":1.0,"cover":1.0,"is_leaf":true},
        {"feature":0,"threshold":0.0,"left":0,"right":0,"value":2.0,"cover":1.0,
        "is_leaf":true}],"n_features":1,"task":"Regression"}],"n_features":1,
        "task":"Regression"}}"#;
    let brackets = "[".repeat(100_000);
    let node = |left, right, cover: u32, is_leaf| TreeNode {
        feature: 0,
        threshold: 0.0,
        left,
        right,
        value: 1.0,
        cover: cover as f64,
        is_leaf,
    };
    let levels = 30_000;
    let mut nodes = Vec::new();
    for k in 0..levels {
        nodes.push(node(2 * k + 2, 2 * k + 1, levels - k + 1, false));
        nodes.push(node(0, 0, 1, true));
    }
    nodes.push(node(0, 0, 1, true));
    let chain = DecisionTree {
        nodes: nodes.into(),
        n_features: 1,
        task: Task::Regression,
    };
    chain.check_structure().unwrap();
    let deep_chain = serde_json::to_string(&ServeModel::Forest(RandomForest {
        trees: vec![chain],
        n_features: 1,
        task: Task::Regression,
    }))
    .unwrap();
    let (server, addr) = start_server(ShardConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut rpc = |msg: Message| {
        write_frame(&mut stream, msg.msg_type(), &msg.encode_payload()).unwrap();
        let (t, payload) = read_frame(&mut stream, MAX_PAYLOAD).unwrap();
        Message::decode_payload(t, payload).unwrap()
    };
    for (model_json, why) in [
        ("this is not a model", "model json"),
        (CYCLIC_FOREST, "tree 0"),
        (&deep_chain, "levels"),
        (&brackets, "nesting deeper than 128"),
        (NO_THRESHOLD, "missing field `threshold`"),
    ] {
        let reply = rpc(Message::Register(WireRegister {
            rid: 9,
            model_id: "broken".into(),
            model_json: model_json.into(),
            feature_names: vec!["a".into()],
            background_rows: vec![vec![0.0]],
            method_configs: Vec::new(),
        }));
        match reply {
            Message::RegisterErr { rid, error } => {
                assert_eq!(rid, 9);
                assert!(
                    matches!(error, ServeError::Internal(ref m) if m.contains(why)),
                    "unexpected error: {error:?}"
                );
            }
            other => panic!("expected RegisterErr, got {:?}", other.msg_type()),
        }
    }
    match rpc(Message::Health { rid: 10 }) {
        Message::HealthOk(h) => assert_eq!((h.rid, h.protocol_errors), (10, 0)),
        other => panic!("expected HealthOk, got {:?}", other.msg_type()),
    }
    let synth = friedman1(80, 5, 0.1, 3).unwrap();
    let good = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 3,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let reply = rpc(Message::Register(WireRegister {
        rid: 11,
        model_id: "good".into(),
        model_json: serde_json::to_string(&ServeModel::Gbdt(good)).unwrap(),
        feature_names: synth.data.names.clone(),
        background_rows: (0..8).map(|i| synth.data.row(i).to_vec()).collect(),
        method_configs: Vec::new(),
    }));
    assert!(
        matches!(reply, Message::RegisterOk { rid: 11, .. }),
        "expected RegisterOk, got {:?}",
        reply.msg_type()
    );
    match rpc(Message::Explain(WireRequest {
        rid: 12,
        model_id: "good".into(),
        features: synth.data.row(0).to_vec(),
        method: ExplainMethod::TreeShap,
        budget_ns: 30_000_000_000,
    })) {
        Message::ExplainReply(r) => {
            assert_eq!(r.rid, 12);
            assert!(r.outcome.is_ok(), "explain failed: {:?}", r.outcome.err());
        }
        other => panic!("expected ExplainReply, got {:?}", other.msg_type()),
    }
    server.stop();
    server.join();
}

/// A registration failure reaches the client as `NetError::Serve`.
#[test]
fn client_register_surfaces_typed_failure() {
    let (server, addr) = start_server(ShardConfig::default());
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(10)).unwrap();
    // A background whose row width disagrees with the model is rejected
    // server-side during registration.
    let synth = friedman1(80, 5, 0.1, 3).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 3,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let err = conn
        .register(
            "m",
            &ServeModel::Gbdt(model),
            &["only-one-name".to_string()],
            &Background::from_dataset(&synth.data, 8, 1).unwrap(),
        )
        .unwrap_err();
    assert!(
        matches!(err, NetError::Serve(_)),
        "expected a serve-side registration failure, got {err:?}"
    );
    server.stop();
    server.join();
}

/// A panic mid-explain must still settle the in-flight count and answer
/// the request as `Internal`; a subsequent drain completes instead of
/// busy-waiting forever on the leaked counter. The unwind comes from a
/// plug-in method whose capability validator panics: `Engine::submit`
/// runs it on the event loop after the cache miss, before single-flight,
/// with no lock held, under the engine's containment.
#[test]
fn drain_completes_after_worker_panic() {
    const PANIC_METHOD: &str = "wire-server-panicking-validator";
    MethodRegistry::global().register_with_validator(
        PANIC_METHOD,
        |_cfg| Err(XaiError::Input("never instantiated".into())),
        |_caps| panic!("injected validator panic"),
    );
    let synth = friedman1(80, 5, 0.1, 3).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 3,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let (server, addr) = start_server(ShardConfig::default());
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(10)).unwrap();
    conn.register(
        "m",
        &ServeModel::Gbdt(model),
        &synth.data.names,
        &Background::from_dataset(&synth.data, 8, 1).unwrap(),
    )
    .unwrap();
    let err = conn
        .explain(&ExplainRequest {
            method: ExplainMethod::custom(PANIC_METHOD, 0),
            ..explain_request("m")
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Serve(ServeError::Internal(ref m)) if m.contains("panicked")
        ),
        "expected the panic to answer as Internal, got {err:?}"
    );

    // Pre-fix the leaked in-flight count makes this wait forever; bound
    // the handshake well under the rpc timeout.
    let t0 = Instant::now();
    let completed = conn.drain().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        t0.elapsed()
    );
    // The panicked request got its (error) response frame, so it counts.
    assert_eq!(completed, 1);
    server.join();
}

/// Once the stream has died, a call fails at once: the reader's
/// `fail_all` took the connection's pending map, so the call finds no map
/// to park in and never sits out the rpc timeout.
#[test]
fn rpc_inserted_after_fail_all_fails_fast() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server_side = thread::spawn(move || listener.accept().unwrap().0);
    let rpc_timeout = Duration::from_secs(10);
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, rpc_timeout).unwrap();
    // Close the server side: the reader reads EOF and runs `fail_all`.
    drop(server_side.join().unwrap());
    let lost = |err: &NetError| matches!(err, NetError::Wire(WireError::ConnectionLost(_)));
    // A call made before the reader has seen the close parks, and
    // `fail_all` fails it; wait for the first ConnectionLost.
    let t0 = Instant::now();
    while !lost(&conn.explain(&explain_request("m")).unwrap_err()) {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the close never reached the connection"
        );
    }
    assert!(!conn.is_alive(), "a failed stream leaves no pending map");

    let t0 = Instant::now();
    let err = conn.explain(&explain_request("m")).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        lost(&err),
        "expected a fail-fast ConnectionLost, got {err:?}"
    );
    assert!(
        elapsed < rpc_timeout / 2,
        "rpc stalled {elapsed:?} against a dead connection (timeout {rpc_timeout:?})"
    );
}

/// Live threads of this process named `nfv-net-reader` (read from
/// `/proc/self/task/*/comm`).
fn reader_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "nfv-net-reader")
        .count()
}

/// A dropped `ShardConn` takes its reader thread and socket with it, even
/// when the peer never closes: the drop shuts the socket down, the
/// reader's read ends, and the thread exits. The peer here keeps every
/// accepted socket open. Sibling tests in this binary dial connections of
/// their own, so the count runs in a child process that runs only this
/// test.
#[test]
fn a_dropped_shard_conn_leaves_no_reader_thread() {
    const CHILD: &str = "NFV_NET_DROPPED_CONN_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_dropped_shard_conn_leaves_no_reader_thread",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .status()
            .unwrap();
        assert!(status.success(), "the child check failed: {status}");
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut accepted = Vec::new();
    for _ in 0..4 {
        let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(10)).unwrap();
        accepted.push(listener.accept().unwrap().0);
        let t0 = Instant::now();
        while reader_threads() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "no reader started");
            thread::sleep(Duration::from_millis(1));
        }
        drop(conn);
        let t0 = Instant::now();
        while reader_threads() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a dropped connection's reader still runs ({} alive)",
                reader_threads()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }
    // Each peer sees the close: the socket went with the connection.
    for mut peer in accepted {
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0, "peer sees EOF");
    }
}

/// Two explains written back-to-back in one TCP segment against a server
/// with `max_pipeline = 1`: the first is submitted, the second must be
/// rejected with the typed `PipelineTooDeep` carrying both numbers.
#[test]
fn pipelining_past_the_depth_limit_gets_a_typed_reject() {
    let (server, addr) = start_server(ShardConfig {
        max_pipeline: 1,
        ..ShardConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut batch = Vec::new();
    for rid in [1u64, 2] {
        let msg = Message::Explain(WireRequest {
            rid,
            model_id: "nope".into(),
            features: vec![0.1, 0.2],
            method: ExplainMethod::Permutation,
            budget_ns: 1_000_000_000,
        });
        write_frame(&mut batch, msg.msg_type(), &msg.encode_payload()).unwrap();
    }
    use std::io::Write;
    stream.write_all(&batch).unwrap();

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..2 {
        let (t, payload) = read_frame(&mut stream, MAX_PAYLOAD).unwrap();
        match Message::decode_payload(t, payload).unwrap() {
            Message::ExplainReply(WireResponse { rid, outcome }) => {
                outcomes.insert(rid, outcome);
            }
            other => panic!("expected ExplainReply, got {:?}", other.msg_type()),
        }
    }
    // rid 1 reached the engine (which rejects the unknown model); rid 2
    // never got that far.
    assert!(
        matches!(
            outcomes.get(&1),
            Some(Err(ServeError::Rejected(RejectReason::UnknownModel { .. })))
        ),
        "rid 1: {:?}",
        outcomes.get(&1)
    );
    assert!(
        matches!(
            outcomes.get(&2),
            Some(Err(ServeError::Rejected(RejectReason::PipelineTooDeep {
                depth: 1,
                limit: 1
            })))
        ),
        "rid 2: {:?}",
        outcomes.get(&2)
    );
    assert_eq!(server.protocol_errors(), 0);
    server.stop();
    server.join();
}

/// A request naming a method no explainer is registered for must come
/// back as the typed `UnknownMethod` reject — a dispatch miss, not a
/// protocol error — and the connection stays serviceable afterwards.
#[test]
fn unknown_method_over_the_wire_gets_a_typed_reject() {
    let synth = friedman1(80, 5, 0.1, 5).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 3,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let background = Background::from_dataset(&synth.data, 8, 1).unwrap();
    let (server, addr) = start_server(ShardConfig::default());
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(10)).unwrap();
    conn.register(
        "m",
        &ServeModel::Gbdt(model),
        &synth.data.names,
        &background,
    )
    .unwrap();

    // Client-side custom method: neither process registered "online-sage",
    // so the shard's registry lookup of its interned id misses.
    let err = conn
        .explain(&ExplainRequest {
            model_id: "m".into(),
            features: synth.data.row(0).to_vec(),
            method: ExplainMethod::custom("online-sage", 8),
            budget: Duration::from_secs(30),
        })
        .unwrap_err();
    match err {
        NetError::Serve(ServeError::Rejected(RejectReason::UnknownMethod { ref method })) => {
            assert!(
                method.starts_with('#'),
                "the shard knows no name for the id: {method}"
            );
        }
        other => panic!("expected UnknownMethod, got {other:?}"),
    }

    // A foreign client hand-building the frame lands in the same place:
    // any (id, budget) pair decodes, and an id nothing answers to is the
    // typed reject — never a protocol error.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut payload = bytes::BytesMut::new();
    payload.put_u64_le(42); // rid
    nfv_sim::wire::put_str(&mut payload, "m");
    nfv_sim::wire::put_f64s(&mut payload, synth.data.row(0));
    payload.put_u64_le(0xfeed_f00d_dead_beef); // method id
    payload.put_u64_le(8); // budget word
    payload.put_u64_le(30_000_000_000); // budget_ns
    let payload = payload.freeze();
    write_frame(&mut stream, MsgType::ExplainRequest, payload.as_ref()).unwrap();
    let (t, body) = read_frame(&mut stream, MAX_PAYLOAD).unwrap();
    match Message::decode_payload(t, body).unwrap() {
        Message::ExplainReply(WireResponse { rid: 42, outcome }) => assert!(
            matches!(
                outcome,
                Err(ServeError::Rejected(RejectReason::UnknownMethod { .. }))
            ),
            "named unknown method: {outcome:?}"
        ),
        other => panic!("expected ExplainReply, got {:?}", other.msg_type()),
    }

    // Registered methods on the same connection still serve fine.
    let ok = conn.explain(&explain_request("m"));
    assert!(ok.is_ok(), "connection wedged after reject: {ok:?}");
    assert_eq!(server.protocol_errors(), 0);
    server.stop();
    server.join();
}

/// `Register` frames can carry per-method anytime divisors; under
/// queue-full pressure the shard degrades that service class by its
/// configured factor instead of the crate default ÷ 8.
#[test]
fn register_method_configs_tune_the_shard_anytime_divisor() {
    let synth = friedman1(160, 5, 0.1, 13).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 8,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let background = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let (server, addr) = start_server(ShardConfig {
        serve: ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        ..ShardConfig::default()
    });
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(30)).unwrap();
    conn.register_with_configs(
        "m",
        &ServeModel::Gbdt(model),
        &synth.data.names,
        &background,
        &[("kernel-shap".to_string(), 4)],
    )
    .unwrap();

    // 12 distinct pipelined requests against a 1-worker, 1-slot engine:
    // overflow is served coarse inline. Divisor 4 ⇒ budget 512 / 4.
    let requests: Vec<ExplainRequest> = (0..12)
        .map(|i| ExplainRequest {
            model_id: "m".into(),
            features: synth.data.row(i).to_vec(),
            method: ExplainMethod::KernelShap { n_coalitions: 512 },
            budget: Duration::from_secs(30),
        })
        .collect();
    let answers = conn.explain_many(&requests);
    let coarse: Vec<u64> = answers
        .iter()
        .filter_map(|r| match r.as_ref().unwrap().fidelity {
            Fidelity::Coarse { sample_budget } => Some(sample_budget),
            _ => None,
        })
        .collect();
    assert!(
        !coarse.is_empty(),
        "a 1-slot queue under 12 pipelined requests must degrade"
    );
    for budget in &coarse {
        assert_eq!(
            *budget,
            512 / 4,
            "the registered divisor must govern, not the default ÷ {DEFAULT_ANYTIME_DIVISOR}"
        );
    }
    assert_eq!(server.protocol_errors(), 0);
    server.stop();
    server.join();
}

/// A version-1 peer's frame is a protocol error: the shard counts it and
/// closes that connection (the header says the layout is not this one),
/// then goes on serving clients of this version.
#[test]
fn a_version_1_frame_closes_its_connection_and_the_shard_serves_on() {
    let (server, addr) = start_server(ShardConfig::default());
    let mut v1 = TcpStream::connect(&addr).unwrap();
    let mut frame = nfv_net::frame::encode_frame(MsgType::Health, &1u64.to_le_bytes());
    frame[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::io::Write::write_all(&mut v1, &frame).unwrap();
    assert!(
        matches!(
            read_frame(&mut v1, MAX_PAYLOAD),
            Err(WireError::ConnectionLost(_))
        ),
        "a v1 frame must be answered by a close, not a reply"
    );
    assert_eq!(server.protocol_errors(), 1);
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(10)).unwrap();
    assert_eq!(conn.health().unwrap().protocol_errors, 1);
    server.stop();
    server.join();
}

/// A default shard with a small GBDT registered as `"m"` over the returned
/// connection, and the dataset it was fitted on.
fn shard_serving_gbdt() -> (ShardServer, ShardConn, Dataset) {
    let synth = friedman1(160, 5, 0.1, 11).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 8,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let background = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let (server, addr) = start_server(ShardConfig::default());
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(30)).unwrap();
    conn.register(
        "m",
        &ServeModel::Gbdt(model),
        &synth.data.names,
        &background,
    )
    .unwrap();
    (server, conn, synth.data)
}

/// Pipelined explains within the depth limit all complete, match the
/// one-at-a-time answers bit for bit, and leave a clean drain.
#[test]
fn pipelined_explains_within_depth_complete_and_drain_clean() {
    let (server, conn, data) = shard_serving_gbdt();

    let requests: Vec<ExplainRequest> = (0..16)
        .map(|i| ExplainRequest {
            model_id: "m".into(),
            features: data.row(i * 9).to_vec(),
            method: match i % 3 {
                0 => ExplainMethod::TreeShap,
                1 => ExplainMethod::KernelShap { n_coalitions: 16 },
                _ => ExplainMethod::Permutation,
            },
            budget: Duration::from_secs(30),
        })
        .collect();
    let piped = conn.explain_many(&requests);
    assert_eq!(piped.len(), requests.len());
    for (i, (req, got)) in requests.iter().zip(&piped).enumerate() {
        let got = got.as_ref().unwrap_or_else(|e| panic!("request {i}: {e}"));
        let solo = conn.explain(req).unwrap();
        assert_eq!(
            got.attribution.values, solo.attribution.values,
            "request {i}: pipelined answer diverged"
        );
    }
    assert_eq!(server.protocol_errors(), 0);
    let completed = conn.drain().unwrap();
    // 16 pipelined + 16 verification singles, all answered.
    assert_eq!(completed, 32);
    let (final_completed, protocol_errors) = server.join();
    assert_eq!(final_completed, 32);
    assert_eq!(protocol_errors, 0);
}

/// Eight cached explains pipelined on one connection do not wait out a
/// delayed ACK. Without `TCP_NODELAY` on the accepted socket the server's
/// second small write waits for the ACK of its first (~40 ms), and 39–144
/// of 200 rounds took ≥ 30 ms in the debug profile; with it, none did. The
/// bound counts stalled rounds rather than reading a tail quantile, which a
/// loaded host's scheduler can push past any few-ms bound on its own.
#[test]
fn pipelined_cached_replies_do_not_wait_on_delayed_acks() {
    let (server, conn, data) = shard_serving_gbdt();
    let requests: Vec<ExplainRequest> = (0..8)
        .map(|i| ExplainRequest {
            model_id: "m".into(),
            features: data.row(i * 7).to_vec(),
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(30),
        })
        .collect();
    // The first round computes and caches; every later round is all hits.
    for r in conn.explain_many(&requests) {
        r.unwrap();
    }
    let mut rounds: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            for r in conn.explain_many(&requests) {
                assert!(r.unwrap().cache_hit);
            }
            t0.elapsed()
        })
        .collect();
    rounds.sort();
    let stalled = rounds
        .iter()
        .filter(|&&r| r >= Duration::from_millis(30))
        .count();
    assert!(
        stalled < 10,
        "{stalled} of 200 depth-8 cached rounds took >= 30 ms (median {:?})",
        rounds[100]
    );
    conn.drain().unwrap();
    let (_, protocol_errors) = server.join();
    assert_eq!(protocol_errors, 0);
}

/// A plug-in whose explanation holds its worker until the test releases
/// it, after saying that it does.
struct Plug {
    entered: crossbeam::channel::Sender<()>,
    release: crossbeam::channel::Receiver<()>,
}

impl Explainer for Plug {
    fn tag(&self) -> &'static str {
        "plug"
    }
    fn plan(
        &self,
        _ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        _block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        Err(XaiError::Input("plug runs alone".into()))
    }
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        let _ = self.entered.send(());
        let _ = self.release.recv();
        let base = ctx.base_value();
        Ok(Attribution {
            names: ctx.names.into(),
            values: vec![0.0; ctx.x.len()],
            base_value: base,
            prediction: base,
            method: "plug".into(),
        })
    }
}

/// A warmed key's hit is not queued behind misses. The engine's only
/// worker is held by a plug, and more distinct misses than `max(4, cores)`
/// (a size a pool of threads blocking on the engine would have) are
/// pipelined behind it on one connection; the warmed key sent after them
/// is answered first, while the worker is still held.
#[test]
fn a_wire_hit_is_not_queued_behind_misses() {
    const PLUG: &str = "wire-server-plug";
    let (entered_tx, entered) = crossbeam::channel::bounded(1);
    let (release, release_rx) = crossbeam::channel::bounded::<()>(1);
    MethodRegistry::global().register(PLUG, move |_cfg| {
        Ok(Box::new(Plug {
            entered: entered_tx.clone(),
            release: release_rx.clone(),
        }))
    });
    let synth = friedman1(160, 5, 0.1, 11).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 8,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let (server, addr) = start_server(ShardConfig {
        serve: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        ..ShardConfig::default()
    });
    let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(30)).unwrap();
    conn.register(
        "m",
        &ServeModel::Gbdt(model),
        &synth.data.names,
        &Background::from_dataset(&synth.data, 16, 1).unwrap(),
    )
    .unwrap();
    let at = |row: usize, method| ExplainRequest {
        model_id: "m".into(),
        features: synth.data.row(row).to_vec(),
        method,
        budget: Duration::from_secs(30),
    };
    assert!(
        !conn
            .explain(&at(0, ExplainMethod::TreeShap))
            .unwrap()
            .cache_hit
    );

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut send = |rid: u64, request: ExplainRequest| {
        let msg = Message::Explain(WireRequest {
            rid,
            model_id: request.model_id,
            features: request.features,
            method: request.method,
            budget_ns: request.budget.as_nanos() as u64,
        });
        write_frame(&mut stream, msg.msg_type(), &msg.encode_payload()).unwrap();
    };
    send(1, at(1, ExplainMethod::custom(PLUG, 1)));
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker reaches the plug");
    let misses = thread::available_parallelism().map_or(4, |n| n.get().max(4)) + 2;
    for i in 0..misses {
        send(100 + i as u64, at(10 + i, ExplainMethod::TreeShap));
    }
    send(2, at(0, ExplainMethod::TreeShap));
    let mut reader = stream.try_clone().unwrap();
    let next_reply = |reader: &mut TcpStream| match read_frame(reader, MAX_PAYLOAD) {
        Ok((t, payload)) => match Message::decode_payload(t, payload).unwrap() {
            Message::ExplainReply(reply) => Some(reply),
            other => panic!("expected ExplainReply, got {:?}", other.msg_type()),
        },
        Err(_) => None,
    };
    reader
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let first = next_reply(&mut reader);
    // Release the worker before asserting, so a failure does not hang.
    release.send(()).unwrap();
    let first = first.expect("the hit is answered while the worker is held");
    assert_eq!(first.rid, 2, "the first reply answers the warmed key");
    assert!(first.outcome.unwrap().cache_hit);

    reader.set_read_timeout(None).unwrap();
    let mut rest: Vec<u64> = (0..=misses)
        .map(|_| {
            let reply = next_reply(&mut reader).expect("a reply");
            assert!(
                reply.outcome.is_ok(),
                "rid {}: {:?}",
                reply.rid,
                reply.outcome
            );
            reply.rid
        })
        .collect();
    rest.sort_unstable();
    let expected: Vec<u64> = std::iter::once(1)
        .chain((0..misses as u64).map(|i| 100 + i))
        .collect();
    assert_eq!(rest, expected);
    // The warm-up, the plug, the misses and the hit.
    assert_eq!(conn.drain().unwrap(), misses as u64 + 3);
    let (_, protocol_errors) = server.join();
    assert_eq!(protocol_errors, 0);
}
