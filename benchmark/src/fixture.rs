//! The fixture shared by the three serving workloads, and the request
//! generator: everything the program sees is derived from `--seed` here.

use crate::trace::Tracer;
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_sim::rng::SimRng;
use nfv_xai::prelude::*;
use std::time::Duration;

pub const MODEL_ID: &str = "latency";
pub const ROWS: usize = 6000;
pub const BACKGROUND_ROWS: usize = 12;

/// Seed of the dataset, the forest and the background: the same model in
/// every run. Forests fitted on different seeds differ in tree-shap cost
/// by a quarter (measured: 1 020–1 240 op/s on `cold_mixed` over ten
/// seeds, the slow seeds slow on every run of them), which would read as
/// run-to-run spread. `--seed` selects and orders the requests and seeds
/// the stochastic explainers.
const MODEL_SEED: u64 = 1;

/// Far above any latency this benchmark sees: admission control must
/// never reject on the deadline, a reject is a failed operation.
pub const BUDGET: Duration = Duration::from_secs(60);

/// Cache cells are `quantization_grid` (1e-6) wide; stepping feature 0 by
/// this much per op id makes every op id a distinct cache cell while
/// moving the operating point by well under 1 %.
const KEY_STEP: f64 = 1e-4;

/// Op-id ranges of the phases, disjoint so that "never-seen key" holds
/// across warm-up, reference answers, verification and the timed phase.
/// Multiples of twelve, so every range starts on a method block (see
/// [`Fixture::mixed_method`]).
pub const WARM_BASE: u64 = 0;
pub const VERIFY_BASE: u64 = 16_800;
pub const TIMED_BASE: u64 = 33_600;

/// The methods of the mixed trace of `cold_mixed` / `wire_mixed`.
pub const METHODS: [ExplainMethod; 6] = [
    ExplainMethod::KernelShap { n_coalitions: 64 },
    ExplainMethod::SamplingShapley {
        n_permutations: 4,
        antithetic: true,
    },
    ExplainMethod::Permutation,
    ExplainMethod::GroupedShapley,
    ExplainMethod::TreeShap,
    ExplainMethod::Lime { n_samples: 256 },
];

/// Whether a method's answers must satisfy the efficiency axiom to
/// rounding. Sampling Shapley is left out: its walks start from sampled
/// background rows, not from the base value, so it is efficient only in
/// expectation (gap ~0.3 at 4 permutations).
pub fn is_shapley(method: ExplainMethod) -> bool {
    matches!(
        method,
        ExplainMethod::KernelShap { .. } | ExplainMethod::GroupedShapley | ExplainMethod::TreeShap
    )
}

pub fn forest_params() -> ForestParams {
    ForestParams {
        n_trees: 50,
        tree: TreeParams {
            max_depth: 8,
            ..TreeParams::default()
        },
        sample_fraction: 1.0,
    }
}

/// Dataset (real d = 14 NFV schema) → forest → background.
pub struct Fixture {
    pub data: Dataset,
    pub forest: RandomForest,
    pub background: Background,
    /// Seeded row order: op id `i` explains row `order[i % ROWS]`.
    order: Vec<u32>,
    seed: u64,
}

impl Fixture {
    pub fn build(seed: u64, tracer: &mut Tracer) -> Result<Fixture, String> {
        let data = tracer.timed("nfv-data.generate_fluid", 0, None, || {
            generate_fluid(
                &SweepConfig::secure_web(MODEL_SEED),
                ROWS,
                Target::LatencyP95LogMs,
            )
        });
        let data = data.map_err(|e| e.to_string())?;
        let forest = tracer.timed("nfv-ml.forest_fit", 0, None, || {
            RandomForest::fit(&data, &forest_params(), MODEL_SEED, 1)
        });
        let forest = forest.map_err(|e| e.to_string())?;
        let background = Background::from_dataset(&data, BACKGROUND_ROWS, MODEL_SEED)
            .map_err(|e| e.to_string())?;
        let mut order: Vec<u32> = (0..ROWS as u32).collect();
        SimRng::new(seed ^ 0x0bde).shuffle(&mut order);
        Ok(Fixture {
            data,
            forest,
            background,
            order,
            seed,
        })
    }

    /// Registers the fixture model (SoA pack + base-value sweep happen
    /// inside) and returns the assigned version.
    pub fn register(&self, registry: &ModelRegistry, tracer: &mut Tracer) -> Result<u64, String> {
        let (model, names, bg) = (
            ServeModel::Forest(self.forest.clone()),
            self.data.names.clone(),
            self.background.clone(),
        );
        tracer
            .timed("nfv-serve.register", 0, None, || {
                registry.register(MODEL_ID, model, names, bg)
            })
            .map_err(|e| e.to_string())
    }

    /// The feature vector of op id `op`: a dataset row with feature 0
    /// offset so the op id is its own cache cell.
    pub fn features(&self, op: u64) -> Vec<f64> {
        let row = self.order[(op % ROWS as u64) as usize] as usize;
        let mut x = self.data.row(row).to_vec();
        x[0] += (op + 1) as f64 * KEY_STEP;
        x
    }

    pub fn request(&self, op: u64, method: ExplainMethod) -> ExplainRequest {
        ExplainRequest {
            model_id: MODEL_ID.into(),
            features: self.features(op),
            method,
            budget: BUDGET,
        }
    }

    /// Request `op` of the mixed-method trace.
    pub fn mixed_request(&self, op: u64) -> ExplainRequest {
        self.request(op, self.mixed_method(op))
    }

    /// The method of op id `op` in the mixed trace. Two callers split the
    /// op ids by parity; each caller's sequence is blocks of six that hold
    /// every method once, in an order drawn per block from the seed. Any
    /// multiple of six ops per caller is the same mix of work, and which
    /// methods meet in flight is random: on a fixed cycle the two callers
    /// lock into one of several phase patterns, each with its own
    /// throughput (1 050 or 1 500 op/s) and tail.
    pub fn mixed_method(&self, op: u64) -> ExplainMethod {
        let (caller, i) = (op % 2, op / 2);
        let block = (i / METHODS.len() as u64) * 2 + caller;
        let mut order = METHODS;
        SimRng::new(self.seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15)).shuffle(&mut order);
        order[(i % METHODS.len() as u64) as usize]
    }
}

/// `a` and `b` are the same answer bit for bit.
pub fn same_bits(a: &Attribution, b: &Attribution) -> bool {
    a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.base_value.to_bits() == b.base_value.to_bits()
        && a.prediction.to_bits() == b.prediction.to_bits()
}
