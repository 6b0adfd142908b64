//! Cluster-level behaviour over real shard *processes*: spill on shard
//! death and the drain handshake. The shard binary is the real `nfv-shard` (via
//! `CARGO_BIN_EXE_nfv-shard`).

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 5;

fn spawn_shard() -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nfv-shard"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            &SEED.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn nfv-shard");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("nfv-shard listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr, reader)
}

struct Fixture {
    model: Gbdt,
    names: Vec<String>,
    background: Background,
    rows: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let synth = friedman1(200, 5, 0.1, 7).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 10,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let rows = (0..24).map(|i| synth.data.row(i * 7).to_vec()).collect();
    Fixture {
        model,
        names: synth.data.names.clone(),
        background: Background::from_dataset(&synth.data, 16, 1).unwrap(),
        rows,
    }
}

fn request(f: &Fixture, n: usize) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: f.rows[n % f.rows.len()].clone(),
        method: match n % 3 {
            0 => ExplainMethod::TreeShap,
            1 => ExplainMethod::KernelShap { n_coalitions: 16 },
            _ => ExplainMethod::Permutation,
        },
        budget: Duration::from_secs(30),
    }
}

/// Kill one shard process mid-replay: every subsequent request that hashed
/// to the dead shard must still complete, served by its successor id,
/// and the spill/fault counters must record the reroutes.
#[test]
fn killing_a_shard_mid_replay_spills_to_the_ring_successor() {
    let f = fixture();
    let mut shards: Vec<(Child, String, BufReader<ChildStdout>)> =
        (0..3).map(|_| spawn_shard()).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.1.clone()).collect();

    let net = NetClusterConfig::default().connect(&addrs).unwrap();
    net.register(
        "m",
        ServeModel::Gbdt(f.model.clone()),
        f.names.clone(),
        f.background.clone(),
    )
    .unwrap();

    // A reference engine (same seed) pins the expected bits.
    let reference = Engine::start(ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    });
    reference
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(f.model.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();

    // Phase 1: healthy cluster, answers must match the reference bit for
    // bit (subprocess arm of the identity contract).
    for n in 0..8 {
        let wire = net.explain(&request(&f, n)).unwrap();
        let local = reference.explain(request(&f, n)).unwrap();
        let wire_bits: Vec<u64> = wire
            .attribution
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let local_bits: Vec<u64> = local
            .attribution
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(wire_bits, local_bits, "request {n} diverged over the wire");
    }
    assert_eq!(net.stats().spills, 0, "healthy cluster never spills");

    // Phase 2: kill shard id 1 (process murder, no drain) and keep going.
    shards[1].0.kill().expect("kill shard 1");
    shards[1].0.wait().expect("reap shard 1");
    for n in 8..24 {
        let resp = net
            .explain(&request(&f, n))
            .unwrap_or_else(|e| panic!("request {n} failed after shard kill: {e}"));
        assert!(!resp.attribution.values.is_empty());
    }
    let stats = net.stats();
    assert!(
        stats.spills > 0,
        "some of the 16 post-kill requests must have hashed to the dead shard"
    );
    assert!(
        stats.faults > 0,
        "connection loss must be observed and counted"
    );

    // Survivors drain cleanly and exit 0.
    net.drain_all().unwrap();
    let (mut c0, _, r0) = shards.remove(0);
    let (mut c2, _, r2) = {
        // shards[1] (originally index 2) after the remove above.
        shards.remove(1)
    };
    assert!(c0.wait().unwrap().success(), "shard 0 exit status");
    assert!(c2.wait().unwrap().success(), "shard 2 exit status");
    drop((r0, r2));
    reference.shutdown();
}

/// The router refuses to start empty and surfaces rejects untouched.
#[test]
fn config_errors_and_engine_rejects_surface_cleanly() {
    assert!(matches!(
        NetClusterConfig::default().connect(&[]),
        Err(NetError::Refused(Refusal::NoShards))
    ));

    let server = ShardServer::start(ShardConfig::default()).unwrap();
    let addrs = vec![server.local_addr().to_string()];
    let net = NetClusterConfig::default().connect(&addrs).unwrap();
    // No model registered: the shard's admission control answers, and the
    // reject crosses the wire typed, not stringly.
    let err = net
        .explain(&ExplainRequest {
            model_id: "ghost".into(),
            features: vec![1.0, 2.0],
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(1),
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Serve(ServeError::Rejected(RejectReason::UnknownModel { ref model_id }))
                if model_id == "ghost"
        ),
        "got {err:?}"
    );
    net.drain_all().unwrap();
    server.join();
}

/// A one-shard router whose shard is gone has nowhere to spill: the fault
/// is counted, and no spill is, because no retry was sent.
#[test]
fn a_fault_with_no_successor_is_not_a_spill() {
    let server = ShardServer::start(ShardConfig::default()).unwrap();
    let net = NetClusterConfig::default()
        .connect(&[server.local_addr().to_string()])
        .unwrap();
    server.stop();
    server.join();
    let err = net
        .explain(&ExplainRequest {
            model_id: "m".into(),
            features: vec![0.5; 5],
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(5),
        })
        .unwrap_err();
    assert!(matches!(err, NetError::Wire(_)), "got {err:?}");
    let stats = net.stats();
    assert_eq!((stats.spills, stats.faults), (0, 1));
}
