//! `hot_zipf`: a warmed two-tier cache replayed under zipf(1.1), zero
//! misses by construction. Key build and the cache read path are all of
//! the work and the explainers none, so a cache or key optimisation shows
//! here and must show nothing on `cold_mixed`.

use super::{RunConfig, Workload, VERIFY_SAMPLE};
use crate::fixture::{same_bits, Fixture, BUDGET, MODEL_ID};
use crate::measure::{closed_loop, single_loop, Phase};
use crate::trace::{Replayer, Tracer};
use nfv_serve::cache::CacheKey;
use nfv_serve::prelude::*;
use nfv_sim::rng::SimRng;
use nfv_xai::prelude::Attribution;
use std::sync::{Arc, Mutex};

/// Two callers warm the cache; one replays the trace. With two replaying,
/// a hit costs 0.9 or 1.3 µs from run to run (0.65 µs alone): the callers
/// pass the cache lines of the hottest entries and shard locks between
/// their cores, and what that costs depends on where the host has placed
/// the two vCPUs.
const WARM_CALLERS: usize = 2;
const METHOD: ExplainMethod = ExplainMethod::KernelShap { n_coalitions: 64 };
const ZIPF_EXPONENT: f64 = 1.1;
/// Ops per segment, ~0.3 s on the reference host.
const SEGMENT_OPS: u64 = 400_000;

pub struct HotZipf {
    engine: Engine,
    /// Feature vector of key rank `r` (0 = most popular).
    keys: Vec<Vec<f64>>,
    /// The answer each key was warmed with.
    warmed: Vec<Arc<Attribution>>,
    /// Looped zipf trace of key ranks.
    trace: Vec<u16>,
    segment_ops: u64,
}

/// `len` zipf(`ZIPF_EXPONENT`) draws over `n` ranks by inverse CDF.
fn zipf_trace(n: usize, len: usize, seed: u64) -> Vec<u16> {
    let mut cdf: Vec<f64> = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
        cdf.push(total);
    }
    let mut rng = SimRng::new(seed ^ 0x21bf);
    (0..len)
        .map(|_| {
            let u = rng.f64() * total;
            cdf.partition_point(|&c| c < u).min(n - 1) as u16
        })
        .collect()
}

fn request(features: &[f64]) -> ExplainRequest {
    ExplainRequest {
        model_id: MODEL_ID.into(),
        features: features.to_vec(),
        method: METHOD,
        budget: BUDGET,
    }
}

impl Workload for HotZipf {
    fn setup(run: &RunConfig, tracer: &mut Tracer) -> Result<Self, String> {
        let fx = Fixture::build(run.seed, tracer)?;
        let n_keys: usize = run.pick(4096, 512);
        let engine = Engine::start(ServeConfig {
            seed: run.seed,
            cache_capacity: n_keys / 8,
            cold_capacity: 2 * n_keys,
            ..ServeConfig::default()
        });
        fx.register(engine.registry(), tracer)?;
        let keys: Vec<Vec<f64>> = (0..n_keys as u64).map(|r| fx.features(r)).collect();

        // Warm least-popular-first, so the head of the distribution ends
        // in the exact tier and the tail demotes to the quantized one.
        let warmed: Mutex<Vec<Option<Arc<Attribution>>>> = Mutex::new(vec![None; n_keys]);
        let warm = closed_loop(
            WARM_CALLERS,
            0.0,
            (n_keys / WARM_CALLERS) as u64,
            false,
            |c| {
                let (engine, keys, warmed) = (&engine, &keys, &warmed);
                move |i, log| {
                    let rank = n_keys - 1 - (i as usize * WARM_CALLERS + c);
                    let request = request(&keys[rank]);
                    if let Some(r) = log.timed(rank as u64, || engine.explain(request).ok()) {
                        warmed.lock().expect("warm lock")[rank] = Some(r.attribution);
                    }
                }
            },
        );
        if warm.failed > 0 {
            return Err(format!("{} warm-up ops failed", warm.failed));
        }
        let warmed = warmed
            .into_inner()
            .expect("warm lock")
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a key was never warmed")?;
        let trace = zipf_trace(n_keys, run.pick(1 << 20, 1 << 14), run.seed);
        Ok(HotZipf {
            engine,
            keys,
            warmed,
            trace,
            segment_ops: run.pick(SEGMENT_OPS, 4000),
        })
    }

    fn timed(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Phase {
        let (engine, keys, trace) = (&self.engine, &self.keys, &self.trace);
        let phase = single_loop(seconds, self.segment_ops, tracer.is_some(), |i, log| {
            let rank = trace[i as usize % trace.len()] as usize;
            let request = request(&keys[rank]);
            log.timed(rank as u64, || {
                engine
                    .explain(request)
                    .ok()
                    .filter(|r| r.cache_hit && r.fidelity.grade() == 1)
            });
        });
        if let Some(tracer) = tracer {
            tracer.adopt("nfv-serve.engine_explain", &phase.spans, phase.started);
        }
        phase
    }

    fn verify(&mut self) -> Result<u64, String> {
        let stride = self.keys.len() / VERIFY_SAMPLE as usize;
        for rank in (0..self.keys.len()).step_by(stride.max(1)) {
            let got = self
                .engine
                .explain(request(&self.keys[rank]))
                .map_err(|e| format!("key {rank}: {e}"))?;
            let want = &self.warmed[rank];
            match got.fidelity {
                Fidelity::Exact if got.cache_hit => {
                    if !same_bits(&got.attribution, want) {
                        return Err(format!(
                            "hot hit on key {rank} differs from its warmed answer"
                        ));
                    }
                }
                Fidelity::Quantized { max_abs_err } if got.cache_hit => {
                    let worst = got
                        .attribution
                        .values
                        .iter()
                        .zip(&want.values)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    if worst > max_abs_err {
                        return Err(format!(
                            "quantized hit on key {rank} is off by {worst:e}, bound {max_abs_err:e}"
                        ));
                    }
                }
                other => return Err(format!("key {rank} was not a full-budget hit: {other:?}")),
            }
        }
        Ok(self.keys.len().div_ceil(stride.max(1)) as u64)
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
        self.keys.get(op_id as usize).map(|k| request(k))
    }

    /// The warmed answers into the replay cache in warm-up order, so its
    /// tiers split the keys the way the engine's do.
    fn prime_replay(&self, replayer: &mut Replayer) {
        let Some(entry) = self.engine.registry().get(MODEL_ID) else {
            return;
        };
        let grid = self.engine.config().quantization_grid;
        for (features, answer) in self.keys.iter().zip(&self.warmed).rev() {
            if let Some(key) = CacheKey::build(MODEL_ID, entry.version, METHOD, features, grid) {
                replayer.cache.insert(key, Arc::clone(answer));
            }
        }
    }

    fn shutdown(self) -> Result<(), String> {
        self.engine.shutdown();
        Ok(())
    }
}
