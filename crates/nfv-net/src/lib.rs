//! # nfv-net — multi-process shard serving over a binary wire protocol
//!
//! PR 5's `ServeCluster` sharded the serving [`Engine`] across threads of
//! one process; this crate puts each shard in its **own OS process** and
//! connects them with a versioned, length-prefixed binary protocol over
//! TCP — the deployment shape an NFV operator actually runs (shards pinned
//! to NUMA nodes, restarted independently, scaled across hosts).
//!
//! The layering, bottom-up:
//!
//! - [`frame`] — the frame codec: `MAGIC | version | type | len | payload |
//!   fnv1a`. Fail-loud on another protocol version, truncation,
//!   corruption, and hostile length prefixes (cap checked before any
//!   allocation).
//! - [`msg`] — message bodies, one layout each per protocol version, with
//!   request-id correlation on every message; responses may arrive out of
//!   order. A method crosses as its `(id, budget)` identity and floats as
//!   IEEE-754 bit patterns, so wire answers are **bit-identical** to
//!   in-process answers.
//! - [`server`] — the shard: one event-driven readiness loop owning
//!   accept and all connection I/O, which submits each explain straight
//!   into the engine without waiting on it (engine overflow and
//!   over-deep pipelines shed as typed rejects), per-connection write
//!   batching, and an event-driven drain whose state only the loop
//!   touches; shipped as the `nfv-shard` binary.
//! - [`client`] — one connection, one reader thread, rid demultiplexing,
//!   pipelined sends (`explain_many`), fail-fast on connection loss: the
//!   map of parked calls is the connection's liveness, one lock for both.
//! - [`router`] — [`NetCluster`]: `nfv_serve`'s one [`Router`] over a
//!   fixed list of shard connections. Placement, ordered registration
//!   fan-out, spill-once (a transport fault spills like a queue-full
//!   reject) and the stats rollup are the in-process cluster's code, not
//!   a copy of it; this crate adds the `Shard` impl for [`ShardConn`],
//!   dialling and [`NetError`], the one error type of a shard call and of
//!   the cluster.
//!
//! Determinism contract: a request's answer depends only on its content
//! (model, method, features, budget) and the shard seed — never on which
//! transport carried it. `direct == Engine == ServeCluster == NetCluster`
//! to the last bit; the `wire_bit_identity` integration test enforces all
//! four.
//!
//! [`Engine`]: nfv_serve::Engine
//! [`NetCluster`]: router::NetCluster
//! [`Router`]: nfv_serve::cluster::Router
//! [`ShardConn`]: client::ShardConn
//! [`NetError`]: router::NetError

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod msg;
pub mod router;
pub mod server;

/// One-stop imports.
pub mod prelude {
    pub use crate::client::ShardConn;
    pub use crate::frame::{MsgType, WireError, MAX_PAYLOAD, VERSION};
    pub use crate::msg::{Message, WireHealth, WireRegister, WireRequest, WireResponse};
    pub use crate::router::{NetCluster, NetClusterConfig, NetError};
    pub use crate::server::{ShardConfig, ShardServer};
}
