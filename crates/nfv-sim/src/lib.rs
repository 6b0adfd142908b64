//! # nfv-sim — a deterministic NFV infrastructure simulator
//!
//! This crate is the *substrate* of the `nfv-xai` reproduction: it stands in
//! for the production NFV testbed and telemetry pipeline the original paper
//! would have measured. It provides:
//!
//! - a deterministic discrete-event engine ([`engine::Engine`]) simulating
//!   packets flowing through service function chains of VNFs placed on
//!   servers, with queueing, tail drops, co-location interference, and
//!   fault injection;
//! - a fast analytic ("fluid") evaluator ([`scenario::Scenario::evaluate_fluid`])
//!   built on the queueing formulas in [`queueing`], used for large dataset
//!   sweeps;
//! - windowed telemetry ([`telemetry::WindowSnapshot`]) in the shape a real
//!   monitoring stack would export, which `nfv-data` turns into ML features;
//! - SLA definitions and checking ([`sla`]);
//! - its own bit-reproducible RNG ([`rng::SimRng`]) so that a seed pins a
//!   trace forever.
//!
//! A run executes on its caller's thread and the crate starts none of its
//! own; a fleet of independent scenarios is a loop over
//! [`scenario::Scenario::run_des`], exactly as reproducible as each run.
//!
//! ## Quick example
//!
//! ```
//! use nfv_sim::prelude::*;
//!
//! let scenario = Scenario::demo(7);
//! let result = scenario
//!     .run_des(&RunConfig {
//!         horizon: SimDuration::from_secs_f64(3.0),
//!         window: SimDuration::from_secs_f64(1.0),
//!         seed: 7,
//!         warmup_windows: 1,
//!     })
//!     .unwrap();
//! // One telemetry stream per chain:
//! assert_eq!(result.windows.len(), scenario.chains.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscaler;
pub mod chain;
pub mod engine;
pub mod event;
pub mod faults;
pub mod placement;
pub mod queueing;
pub mod rng;
pub mod scenario;
pub mod server;
pub mod sla;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod vnf;
pub mod wire;
pub mod workload;

use std::fmt;

/// Errors produced by simulator configuration and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Invalid scenario / engine configuration.
    Config(String),
    /// No feasible placement exists.
    Placement(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "configuration error: {m}"),
            SimError::Placement(m) => write!(f, "placement error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::autoscaler::{
        run_scaling, EpochObservation, PredictivePolicy, ScalingPolicy, ScalingRun,
        ScalingSimConfig, ThresholdPolicy,
    };
    pub use crate::chain::{estimate_chain, ChainEstimate, ChainPlacement, ChainSpec};
    pub use crate::engine::{Engine, RunConfig, RunResult};
    pub use crate::faults::{Fault, FaultKind};
    pub use crate::placement::{place, PlacementPolicy};
    pub use crate::rng::SimRng;
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use crate::server::{ServerId, ServerSpec};
    pub use crate::sla::{Sla, SlaVerdict};
    pub use crate::telemetry::{LatencyHistogram, VnfWindowStats, WindowSnapshot};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{decode_trace, encode_trace};
    pub use crate::vnf::{VnfConfig, VnfKind};
    pub use crate::workload::{ArrivalProcess, PacketSizes, Workload};
    pub use crate::SimError;
}
