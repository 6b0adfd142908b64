//! `nfv-shard` — one serving shard as an OS process.
//!
//! Usage:
//!
//! ```text
//! nfv-shard [--addr 127.0.0.1:0] [--workers N] [--queue N] [--seed N]
//!           [--dispatch N] [--pipeline N]
//! ```
//!
//! `--workers`/`--queue` size the engine; `--dispatch` sizes the wire
//! tier's explain-dispatch pool (`0` = auto: `max(4, cores)`) and
//! `--pipeline` caps explains in flight per connection (excess gets a
//! typed `PipelineTooDeep` reject).
//!
//! Prints `nfv-shard listening on <addr>` (with the resolved port) on
//! stdout once ready — supervisors parse this line — then serves until a
//! Drain message arrives, and exits 0 after the drain completes.

use nfv_net::prelude::*;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: nfv-shard [--addr HOST:PORT] [--workers N] [--queue N] [--seed N] \
         [--dispatch N] [--pipeline N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ShardConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => cfg.addr = value,
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => cfg.serve.workers = n,
                _ => usage(),
            },
            "--queue" => match value.parse() {
                Ok(n) if n > 0 => cfg.serve.queue_capacity = n,
                _ => usage(),
            },
            "--seed" => match value.parse() {
                Ok(n) => cfg.serve.seed = n,
                _ => usage(),
            },
            "--dispatch" => match value.parse() {
                Ok(n) => cfg.dispatch_threads = n,
                _ => usage(),
            },
            "--pipeline" => match value.parse() {
                Ok(n) if n > 0 => cfg.max_pipeline = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let server = match ShardServer::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nfv-shard: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("nfv-shard listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    let (completed, protocol_errors) = server.join();
    println!("nfv-shard drained after {completed} requests, {protocol_errors} protocol errors");
    std::io::stdout().flush().ok();
    std::process::exit(if protocol_errors == 0 { 0 } else { 1 });
}
