//! `pipeline_retrain`: one op is one control epoch — a discrete-event run
//! of the chain, its telemetry windows turned into feature rows, each row
//! explained, the rows appended to a rolling training window, and every
//! fourth epoch a refit and re-registration. It is the telemetry-in →
//! explanation-out figure, and the workload where the registry and cache
//! are written (version bump, orphaned entries) beside reads.

use super::{exact_answer, RunConfig, Workload, VERIFY_SAMPLE};
use crate::fixture::{forest_params, is_shapley, BACKGROUND_ROWS, BUDGET, MODEL_ID};
use crate::measure::{single_loop, Phase};
use crate::trace::Tracer;
use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_sim::prelude::{
    Fault, FaultKind, PacketSizes, RunConfig as DesConfig, ScenarioBuilder, ServerSpec,
    SimDuration, SimTime, Workload as Arrivals,
};
use nfv_xai::prelude::Background;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Telemetry windows (feature rows) per epoch.
const WINDOWS: usize = 3;
const WINDOW_S: f64 = 0.25;
/// Rows kept for retraining.
const TRAIN_ROWS: usize = 600;
const RETRAIN_EVERY: u64 = 4;
/// Offered-load strata, packets/s, in the order a pass visits them: one
/// pass is `RETRAIN_EVERY` epochs and ends on the heaviest stratum, so the
/// retrain epochs are the tail of the epoch latencies. DES cost is
/// proportional to the load, and every pass offers the same total load
/// (below), so every pass is the same work: a segment is one pass.
const STRATUM_ORDER: [u64; RETRAIN_EVERY as usize] = [0, 2, 1, 3];
const RATE_RANGE: (f64, f64) = (20_000.0, 200_000.0);
/// Step of the position inside a stratum from one pass to the next (the
/// golden-ratio sequence), so the epochs of a run fill the load range
/// evenly instead of repeating four levels; odd strata mirror the position,
/// which keeps the total load of a pass constant.
const WITHIN_STEP: f64 = 0.618_033_988_749_895;
/// Steps of the additive recurrences that place payload size, interference
/// and the three CPU shares of epoch `e` inside their ranges (fractional
/// parts of the square roots of 2, 3, 5, 7 and 11).
const SCENARIO_STEPS: [f64; 5] = [
    0.414_213_562_373_095,
    0.732_050_807_568_877,
    0.236_067_977_499_790,
    0.645_751_311_064_591,
    0.316_624_790_355_400,
];
/// Epochs per segment: one pass over the strata, one retrain.
const SEGMENT_EPOCHS: u64 = RETRAIN_EVERY;
/// Discrete-event runs that fill the training window during set-up, and
/// untimed epochs after them: whole passes, so the set-up is the same work
/// for every seed.
const BOOTSTRAP_RUNS: u64 = 24;
const WARM_EPOCHS: u64 = 12;

const METHODS: [ExplainMethod; 2] = [
    ExplainMethod::TreeShap,
    ExplainMethod::KernelShap { n_coalitions: 64 },
];

pub struct PipelineRetrain {
    engine: Engine,
    names: Vec<String>,
    /// Rolling training window of (features, label).
    window: VecDeque<(Vec<f64>, f64)>,
    /// The registry version every answer must carry: the last registered.
    version: u64,
    seed: u64,
    next_epoch: u64,
    /// Requests of traced epochs by op id, for the layer replay.
    traced_requests: HashMap<u64, ExplainRequest>,
    /// Sweeps of traced epochs, for the telemetry replay after the phase.
    traced_sweeps: Vec<(u64, SweepConfig)>,
    /// The most recent requests, for the verification sample.
    recent: VecDeque<ExplainRequest>,
}

impl PipelineRetrain {
    /// The sweep of epoch `e`. The scenario (offered load, payload size,
    /// interference, CPU shares) is a function of `e` alone, the same for
    /// every seed; the seed drives the discrete-event run, its arrival and
    /// service times. With the scenario drawn from the seed, as
    /// `generate_des` does by itself, the cost of an epoch follows the draw
    /// (packets offered, and where a saturated VNF drops them): ten seeds
    /// then spread 17-24 % on every metric, the same seed ten times 4 %.
    fn epoch_sweep(&self, e: u64) -> SweepConfig {
        let strata = STRATUM_ORDER.len() as u64;
        let stratum = STRATUM_ORDER[(e % strata) as usize];
        let within = ((e / strata) as f64 * WITHIN_STEP).fract();
        let within = if stratum.is_multiple_of(2) {
            within
        } else {
            1.0 - within
        };
        let width = (RATE_RANGE.1 - RATE_RANGE.0) / strata as f64;
        let rate = RATE_RANGE.0 + (stratum as f64 + within) * width;

        let mut sweep = SweepConfig::secure_web(self.seed.wrapping_add(e.wrapping_mul(0x9e37)));
        let at = |k: usize| (e as f64 * SCENARIO_STEPS[k]).fract();
        let inside = |(lo, hi): (f64, f64), u: f64| lo + (hi - lo) * u;
        let payload = inside(sweep.payload_range, at(0));
        let interference = inside(sweep.interference_range, at(1));
        for (k, vnf) in sweep.chain.vnfs.iter_mut().enumerate() {
            vnf.cpu_share *= 1.0 + sweep.cpu_jitter * (2.0 * at(2 + k) - 1.0);
        }
        sweep.cpu_jitter = 0.0;
        sweep.rate_range = (rate, rate);
        sweep.payload_range = (payload, payload);
        sweep.interference_range = (interference, interference);
        sweep
    }

    fn push_rows(&mut self, data: &Dataset) {
        for (row, &y) in data.rows().zip(&data.y) {
            self.window.push_back((row.to_vec(), y));
        }
        while self.window.len() > TRAIN_ROWS {
            self.window.pop_front();
        }
    }

    /// Refit on the rolling window and re-register: version bump, SoA
    /// pack, base-value sweep, the old version's cache entries orphaned.
    fn retrain(&mut self, e: u64, tracer: &mut Tracer, parent: Option<u32>) -> Result<(), String> {
        let x: Vec<f64> = self
            .window
            .iter()
            .flat_map(|(x, _)| x.iter().copied())
            .collect();
        let y: Vec<f64> = self.window.iter().map(|(_, y)| *y).collect();
        let names = self.names.clone();
        let data = tracer
            .timed("nfv-data.window_dataset", e, parent, || {
                Dataset::new(names, x, y, Task::Regression)
            })
            .map_err(|e| e.to_string())?;
        let forest = tracer
            .timed("nfv-ml.forest_refit", e, parent, || {
                RandomForest::fit(&data, &forest_params(), self.seed ^ e, 1)
            })
            .map_err(|e| e.to_string())?;
        let background = Background::from_dataset(&data, BACKGROUND_ROWS, self.seed)
            .map_err(|e| e.to_string())?;
        let (registry, names) = (self.engine.registry(), self.names.clone());
        self.version = tracer
            .timed("nfv-serve.reregister", e, parent, || {
                registry.register(MODEL_ID, ServeModel::Forest(forest), names, background)
            })
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// One control epoch; returns the queue waits the engine reported.
    /// `Err` is a failed op.
    fn epoch(&mut self, e: u64, tracer: &mut Tracer) -> Result<Vec<Duration>, String> {
        let mut queue_waits = Vec::with_capacity(WINDOWS);
        let root = tracer.begin("pipeline.epoch", e, None);
        let sweep = self.epoch_sweep(e);
        let rows = tracer
            .timed("nfv-data.generate_des", e, root, || {
                generate_des(&sweep, 1, WINDOWS, Target::LatencyP95LogMs)
            })
            .map_err(|e| e.to_string())?;
        for (k, row) in rows.rows().enumerate() {
            let op = e * WINDOWS as u64 + k as u64;
            let request = ExplainRequest {
                model_id: MODEL_ID.into(),
                features: row.to_vec(),
                method: METHODS[(op % 2) as usize],
                budget: BUDGET,
            };
            if tracer.enabled() {
                self.traced_requests.insert(op, request.clone());
            }
            self.recent.push_back(request.clone());
            if self.recent.len() > VERIFY_SAMPLE as usize {
                self.recent.pop_front();
            }
            let engine = &self.engine;
            let answer = tracer.timed("nfv-serve.engine_explain", op, root, || {
                exact_answer(engine.explain(request))
            });
            let answer =
                answer.ok_or_else(|| format!("epoch {e}: row {k} not answered exactly"))?;
            if answer.model_version != self.version {
                return Err(format!(
                    "epoch {e}: answer from model v{}, last registered v{}",
                    answer.model_version, self.version
                ));
            }
            queue_waits.push(answer.queue_wait);
        }
        self.push_rows(&rows);
        if e % RETRAIN_EVERY == RETRAIN_EVERY - 1 {
            self.retrain(e, tracer, root)?;
        }
        tracer.end(root);
        if tracer.enabled() {
            self.traced_sweeps.push((e, sweep));
        }
        Ok(queue_waits)
    }

    /// The layer replay of an epoch's telemetry half: `generate_des` is
    /// opaque from outside, so an equivalent scenario (nominal CPU shares,
    /// the centre of the epoch's load band) goes through the same public
    /// calls it makes — `Scenario::run_des`, then
    /// `FeatureSchema::from_snapshot` per window.
    fn replay_telemetry(&self, e: u64, sweep: &SweepConfig, tracer: &mut Tracer) {
        let root = tracer.begin("replay", e, None);
        let rate = (sweep.rate_range.0 + sweep.rate_range.1) / 2.0;
        let payload = (sweep.payload_range.0 + sweep.payload_range.1) / 2.0;
        let interference = (sweep.interference_range.0 + sweep.interference_range.1) / 2.0;
        let built = ScenarioBuilder::new()
            .servers(1, ServerSpec::standard())
            .chain(
                sweep.chain.clone(),
                Arrivals::poisson(rate),
                PacketSizes::Fixed(payload),
                sweep.sla.clone(),
            )
            .build();
        let Ok(mut scenario) = built else { return };
        scenario.faults = (0..sweep.chain.len())
            .map(|vnf| Fault {
                chain: 0,
                vnf,
                from: SimTime::ZERO,
                until: SimTime::from_secs_f64(1e9),
                kind: FaultKind::NoisyNeighbor {
                    factor: interference,
                },
            })
            .collect();
        let des = DesConfig {
            horizon: SimDuration::from_secs_f64(WINDOW_S * (WINDOWS as f64 + 1.0)),
            window: SimDuration::from_secs_f64(WINDOW_S),
            seed: sweep.seed,
            warmup_windows: 1,
        };
        let run = tracer.timed("nfv-sim.run_des", e, root, || scenario.run_des(&des));
        if let Ok(run) = run {
            let schema = FeatureSchema::for_chain(&sweep.chain);
            for snapshot in run.windows[0].iter().take(WINDOWS) {
                tracer.timed("nfv-data.from_snapshot", e, root, || {
                    schema.from_snapshot(snapshot)
                });
            }
        }
        tracer.end(root);
    }

    fn epochs(&mut self, seconds: f64, segment: u64, tracer: &mut Tracer) -> Phase {
        let first = self.next_epoch;
        let phase = single_loop(seconds, segment, tracer.enabled(), |i, log| {
            let e = first + i;
            let waits = log.timed(e, || {
                self.epoch(e, tracer)
                    .map_err(|err| eprintln!("nfv-perf: {err}"))
                    .ok()
            });
            for wait in waits.into_iter().flatten() {
                log.queue_waited(wait);
            }
        });
        self.next_epoch += phase.attempted;
        for (e, sweep) in std::mem::take(&mut self.traced_sweeps) {
            self.replay_telemetry(e, &sweep, tracer);
        }
        phase
    }
}

impl Workload for PipelineRetrain {
    fn setup(run: &RunConfig, tracer: &mut Tracer) -> Result<Self, String> {
        // The training window starts full, so a refit costs the same in
        // the first epoch as in the last: analytic rows of the same schema
        // first, then discrete-event runs as the most recent rows.
        let mut fluid = SweepConfig::secure_web(run.seed);
        fluid.rate_range = RATE_RANGE;
        let fluid = generate_fluid(&fluid, TRAIN_ROWS, Target::LatencyP95LogMs)
            .map_err(|e| e.to_string())?;
        let engine = Engine::start(ServeConfig {
            seed: run.seed,
            ..ServeConfig::default()
        });
        let mut this = PipelineRetrain {
            engine,
            names: fluid.names.clone(),
            window: VecDeque::with_capacity(TRAIN_ROWS + WINDOWS),
            version: 0,
            seed: run.seed,
            next_epoch: run.pick(BOOTSTRAP_RUNS, RETRAIN_EVERY),
            traced_requests: HashMap::new(),
            traced_sweeps: Vec::new(),
            recent: VecDeque::with_capacity(VERIFY_SAMPLE as usize + 1),
        };
        this.push_rows(&fluid);
        for e in 0..this.next_epoch {
            let rows = generate_des(&this.epoch_sweep(e), 1, WINDOWS, Target::LatencyP95LogMs)
                .map_err(|e| e.to_string())?;
            this.push_rows(&rows);
        }
        this.retrain(0, tracer, None)?;
        // Untimed passes settle kernel calibration and the admission
        // EWMAs, and end on a retrain.
        let warm = this.epochs(
            0.0,
            run.pick(WARM_EPOCHS, RETRAIN_EVERY),
            &mut Tracer::new(false),
        );
        if warm.failed > 0 {
            return Err(format!("{} warm-up epochs failed", warm.failed));
        }
        Ok(this)
    }

    fn timed(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let segment = SEGMENT_EPOCHS;
        match tracer {
            Some(tracer) => self.epochs(seconds, segment, tracer),
            None => self.epochs(seconds, segment, &mut Tracer::new(false)),
        }
    }

    /// The most recent requests again, outside the timed phase: every
    /// answer carries the model version registered last, and the
    /// Shapley-family ones are efficient.
    fn verify(&mut self) -> Result<u64, String> {
        for (i, request) in self.recent.iter().enumerate() {
            let method = request.method;
            let got = exact_answer(self.engine.explain(request.clone()))
                .ok_or_else(|| format!("verification request {i} was not answered exactly"))?;
            if got.model_version != self.version {
                return Err(format!(
                    "verification answer {i} from model v{}, last registered v{}",
                    got.model_version, self.version
                ));
            }
            let gap = got.attribution.efficiency_gap();
            if is_shapley(method) && gap.abs() >= 1e-6 {
                return Err(format!(
                    "verification answer {i} breaks efficiency: gap {gap:e}"
                ));
            }
        }
        Ok(self.recent.len() as u64)
    }

    fn stats(&mut self) -> Result<ServeStats, String> {
        Ok(self.engine.stats())
    }

    fn registry(&self) -> &ModelRegistry {
        self.engine.registry()
    }

    fn serve_config(&self) -> ServeConfig {
        *self.engine.config()
    }

    fn request_for(&self, op_id: u64) -> Option<ExplainRequest> {
        self.traced_requests.get(&op_id).cloned()
    }

    fn shutdown(self) -> Result<(), String> {
        self.engine.shutdown();
        Ok(())
    }
}
