//! `nfv-net-smoke` — end-to-end multi-process smoke test.
//!
//! Spawns three real `nfv-shard` processes on loopback, registers a model
//! through the router, replays a short mixed-method workload from several
//! client threads, then storms the shards with 64 concurrent connections
//! each pipelining several requests (depth > 1) over one socket, and
//! asserts:
//!
//! - every routed wire answer is **bit-identical** to an in-process
//!   reference engine with the same seed,
//! - every pipelined request completes (no drops, no protocol faults
//!   under concurrent pipelined load),
//! - zero protocol errors on every shard,
//! - the drain handshake completes and every child exits 0.
//!
//! Exits non-zero on any violation. Wired into `ci.sh`.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("nfv-net-smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// The sibling `nfv-shard` binary lives next to this one.
fn shard_binary() -> std::path::PathBuf {
    let me = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let dir = me.parent().unwrap_or_else(|| die("no parent dir"));
    let bin = dir.join("nfv-shard");
    if !bin.exists() {
        die(&format!(
            "{} not found (build the nfv-net bins first)",
            bin.display()
        ));
    }
    bin
}

/// Spawns one shard and parses its listening banner. The returned reader
/// must outlive the child: closing the pipe early would break the child's
/// final status line.
fn spawn_shard(seed: u64) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(shard_binary())
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| die(&format!("spawn nfv-shard: {e}")));
    let stdout = child
        .stdout
        .take()
        .unwrap_or_else(|| die("no child stdout"));
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| die(&format!("read child banner: {e}")));
    let addr = line
        .trim()
        .strip_prefix("nfv-shard listening on ")
        .unwrap_or_else(|| die(&format!("unexpected banner: {line:?}")))
        .to_string();
    (child, addr, reader)
}

fn mixed_method(i: usize) -> ExplainMethod {
    match i % 4 {
        0 => ExplainMethod::TreeShap,
        1 => ExplainMethod::KernelShap { n_coalitions: 32 },
        2 => ExplainMethod::SamplingShapley {
            n_permutations: 8,
            antithetic: true,
        },
        _ => ExplainMethod::Permutation,
    }
}

fn main() {
    const SEED: u64 = 11;
    const N_SHARDS: usize = 3;
    const N_CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;

    // Fixture: a small GBDT over synthetic telemetry features.
    let synth = friedman1(200, 5, 0.1, 7).unwrap_or_else(|e| die(&format!("friedman1: {e}")));
    let params = GbdtParams {
        n_rounds: 12,
        ..Default::default()
    };
    let model = Gbdt::fit(&synth.data, &params, 0).unwrap_or_else(|e| die(&format!("fit: {e}")));
    let bg = Background::from_dataset(&synth.data, 16, 1)
        .unwrap_or_else(|e| die(&format!("background: {e}")));

    // In-process reference engine: same seed, same config defaults.
    let reference = Engine::start(ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    });
    reference
        .registry()
        .register(
            "sla",
            ServeModel::Gbdt(model.clone()),
            synth.data.names.clone(),
            bg.clone(),
        )
        .unwrap_or_else(|e| die(&format!("reference register: {e}")));

    // Three real shard processes.
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..N_SHARDS {
        let (child, addr, reader) = spawn_shard(SEED);
        children.push(child);
        addrs.push(addr);
        readers.push(reader);
    }
    let cluster = NetClusterConfig::default()
        .connect(&addrs)
        .unwrap_or_else(|e| die(&format!("connect: {e}")));
    cluster
        .register("sla", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap_or_else(|e| die(&format!("register: {e}")));

    // Mixed-method replay from several client threads, checked bit-for-bit
    // against the reference engine.
    let cluster = Arc::new(cluster);
    let reference = Arc::new(reference);
    let synth = Arc::new(synth);
    let mut handles = Vec::new();
    for c in 0..N_CLIENTS {
        let cluster = Arc::clone(&cluster);
        let reference = Arc::clone(&reference);
        let synth = Arc::clone(&synth);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_CLIENT {
                let n = c * PER_CLIENT + i;
                let request = ExplainRequest {
                    model_id: "sla".into(),
                    features: synth.data.row(n % synth.data.n_rows()).to_vec(),
                    method: mixed_method(n),
                    budget: Duration::from_secs(10),
                };
                let wire = cluster
                    .explain(&request)
                    .unwrap_or_else(|e| die(&format!("wire explain #{n}: {e}")));
                let local = reference
                    .explain(request)
                    .unwrap_or_else(|e| die(&format!("local explain #{n}: {e}")));
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
                if wire_bits != local_bits
                    || wire.attribution.base_value.to_bits()
                        != local.attribution.base_value.to_bits()
                {
                    die(&format!("request #{n}: wire answer is not bit-identical"));
                }
            }
        }));
    }
    for h in handles {
        if h.join().is_err() {
            die("client thread panicked");
        }
    }

    // Phase 2: pipelined storm. 64 concurrent connections, each writing a
    // whole batch to its socket before reading the first response; the
    // event-driven server must interleave them all without a fault.
    const PIPE_CONNS: usize = 64;
    const PIPE_DEPTH: usize = 8;
    let mut stormers = Vec::new();
    for c in 0..PIPE_CONNS {
        let addr = addrs[c % addrs.len()].clone();
        let synth = Arc::clone(&synth);
        stormers.push(std::thread::spawn(move || {
            let conn = ShardConn::connect(&addr, MAX_PAYLOAD, Duration::from_secs(60))
                .unwrap_or_else(|e| die(&format!("pipelined connect {c}: {e}")));
            let requests: Vec<ExplainRequest> = (0..PIPE_DEPTH)
                .map(|i| {
                    let n = c * PIPE_DEPTH + i;
                    ExplainRequest {
                        model_id: "sla".into(),
                        features: synth.data.row(n % synth.data.n_rows()).to_vec(),
                        method: mixed_method(n),
                        budget: Duration::from_secs(30),
                    }
                })
                .collect();
            for (i, result) in conn.explain_many(&requests).iter().enumerate() {
                if let Err(e) = result {
                    die(&format!("pipelined conn {c} request {i}: {e}"));
                }
            }
        }));
    }
    for h in stormers {
        if h.join().is_err() {
            die("pipelined client thread panicked");
        }
    }

    // Every shard's ServeStats crosses the wire, then a clean drain (each
    // shard's exit status below says it saw zero protocol errors).
    let stats = cluster.stats();
    for (id, shard) in &stats.per_shard {
        if shard.is_none() {
            die(&format!("shard {id}: stats probe failed"));
        }
    }
    let cluster = Arc::into_inner(cluster).unwrap_or_else(|| die("cluster still shared"));
    let completed = cluster
        .drain_all()
        .unwrap_or_else(|e| die(&format!("drain: {e}")));
    let expected = N_CLIENTS * PER_CLIENT + PIPE_CONNS * PIPE_DEPTH;
    if (completed as usize) < expected {
        die(&format!(
            "shards completed {completed} requests, expected at least {expected}"
        ));
    }
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child
            .wait()
            .unwrap_or_else(|e| die(&format!("wait child {i}: {e}")));
        if !status.success() {
            die(&format!("shard process {i} exited with {status}"));
        }
    }
    drop(readers);
    println!(
        "nfv-net-smoke OK: {} routed + {} pipelined requests ({PIPE_CONNS} connections, \
         depth {PIPE_DEPTH}) over {N_SHARDS} shard processes, bit-identical to in-process, \
         0 protocol errors, clean drain",
        N_CLIENTS * PER_CLIENT,
        PIPE_CONNS * PIPE_DEPTH
    );
}
