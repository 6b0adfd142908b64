//! The wire cluster: `nfv_serve`'s one [`Router`] over shard processes, so
//! a request routes to the same shard, and gets the same bits, whether
//! shards are threads or processes. Only the wire-specific parts live
//! here: [`Shard`] for a [`ShardConn`], dialling, and [`NetError`]. The
//! cluster is the addresses it was connected to; a shard process that
//! dies stays a member, and the keys it is home to spill to the next
//! shard. A shard process keeps anytime on: a full shard answers a
//! sampling request `Fidelity::Coarse` itself, where an in-process one
//! spills it.
//!
//! [`Router`]: nfv_serve::cluster::Router

use crate::client::ShardConn;
use crate::frame::{WireError, MAX_PAYLOAD};
use nfv_serve::cluster::{ErrorClass, Registration, Shard};
use nfv_serve::prelude::*;
use std::fmt;
use std::time::Duration;

/// A [`Router`] over shard server connections.
pub type NetCluster = Router<ShardConn>;

/// How to reach shard processes: the dialler of a [`NetCluster`].
#[derive(Debug, Clone)]
pub struct NetClusterConfig {
    /// Per-RPC response timeout.
    pub rpc_timeout: Duration,
}

impl Default for NetClusterConfig {
    fn default() -> Self {
        NetClusterConfig {
            rpc_timeout: Duration::from_secs(30),
        }
    }
}

impl NetClusterConfig {
    fn dial(&self, addr: &str) -> Result<ShardConn, NetError> {
        Ok(ShardConn::connect(addr, MAX_PAYLOAD, self.rpc_timeout)?)
    }

    /// Dials every address; shard ids are assigned in argument order. The
    /// router hashes on the engine's default quantization grid, the one
    /// every `nfv-shard` serves with, so a key routes to the shard that
    /// caches it.
    pub fn connect(&self, addrs: &[String]) -> Result<NetCluster, NetError> {
        let shards: Result<Vec<_>, _> = addrs.iter().map(|a| self.dial(a)).collect();
        Router::new(shards?, ServeConfig::default().quantization_grid)
    }
}

/// What a wire call can fail with: a [`ShardConn`] call returns `Wire` (a
/// transport fault, reroutable) or `Serve` (the shard engine's verdict,
/// authoritative); the cluster adds `Refused`.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Transport-level failure; through the cluster, after any spill
    /// retry was spent.
    Wire(WireError),
    /// The serving engine's own verdict (rejects, explainer errors).
    Serve(ServeError),
    /// The router refused the operation.
    Refused(Refusal),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Serve(e) => write!(f, "serve error: {e}"),
            NetError::Refused(r) => write!(f, "router refused: {r:?}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl From<Refusal> for NetError {
    fn from(r: Refusal) -> NetError {
        NetError::Refused(r)
    }
}

/// Any wire error is a transport fault, so it spills; only a lost
/// connection drains as 0. Stats come from the shard's `Health` reply.
impl Shard for ShardConn {
    type Error = NetError;

    fn explain(&self, request: &ExplainRequest) -> Result<ExplainResponse, NetError> {
        ShardConn::explain(self, request)
    }

    fn register(&self, r: &Registration) -> Result<u64, NetError> {
        let (id, model, names) = (&r.model_id, &r.model, &r.feature_names);
        ShardConn::register(self, id, model, names, &r.background)
    }

    fn stats(&self) -> Option<ServeStats> {
        serde_json::from_str(&self.health().ok()?.stats_json).ok()
    }

    fn drain(&self) -> Result<u64, NetError> {
        match ShardConn::drain(self) {
            Err(NetError::Wire(WireError::ConnectionLost(_))) => Ok(0),
            outcome => outcome,
        }
    }

    fn classify(error: &NetError) -> ErrorClass {
        match error {
            NetError::Wire(_) => ErrorClass::Fault,
            NetError::Serve(ServeError::Rejected(RejectReason::QueueFull { .. })) => {
                ErrorClass::QueueFull
            }
            NetError::Serve(_) | NetError::Refused(_) => ErrorClass::Final,
        }
    }
}
