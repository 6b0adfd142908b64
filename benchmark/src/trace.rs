//! In-memory spans around every call the harness makes into a layer, and
//! the layer replay that opens up `Engine::explain` from outside.
//!
//! A span is `{name, op_id, parent, start_ns, end_ns}`; spans of one
//! request share `op_id`; self time is a span's duration minus the part
//! its children cover. Spans are kept in memory and written once, at exit.

use crate::measure::{median, OpSpan};
use nfv_serve::cache::{CacheKey, ShardedCache};
use nfv_serve::prelude::*;
use nfv_serve::request::request_seed;
use nfv_xai::prelude::*;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Span recorder. Disabled (the untraced run) it only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Moves the spans of `other` behind this tracer's, on this tracer's
    /// clock, so that one span file holds both.
    pub fn append(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Children pass the
    /// returned id as their `parent`.
    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Names a span after the fact, for calls whose outcome decides which
    /// layer path was measured (a cache `get` is hot, cold or a miss).
    pub fn rename(&mut self, id: Option<u32>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id as usize].name = name;
        }
    }

    /// Records a leaf span around `f`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Adopts the per-op spans a closed-loop phase recorded on its own
    /// clock (`phase_epoch`).
    pub fn adopt(&mut self, name: &'static str, ops: &[OpSpan], phase_epoch: Instant) {
        if !self.enabled {
            return;
        }
        let shift = phase_epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(ops.iter().map(|op| Span {
            name,
            op_id: op.op_id,
            parent: None,
            start_ns: op.start_ns + shift,
            end_ns: op.end_ns + shift,
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    pub fn median_ns(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.ns();
            }
        }
        own
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"run\":{header},\"spans\":[")?;
        let own = self.self_ns();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.op_id,
                s.start_ns,
                s.end_ns,
                own as i64
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Span names of a fusable method's plan and finish, keyed by
/// `Explainer::tag` (span names are static).
fn plan_finish_spans(tag: &str) -> (&'static str, &'static str) {
    match tag {
        "kernel-shap" => ("nfv-xai.plan.kernel-shap", "nfv-xai.finish.kernel-shap"),
        "sampling-shapley" => (
            "nfv-xai.plan.sampling-shapley",
            "nfv-xai.finish.sampling-shapley",
        ),
        "permutation" => ("nfv-xai.plan.permutation", "nfv-xai.finish.permutation"),
        "grouped-shapley" => (
            "nfv-xai.plan.grouped-shapley",
            "nfv-xai.finish.grouped-shapley",
        ),
        _ => ("nfv-xai.plan.other", "nfv-xai.finish.other"),
    }
}

/// Span name of a method that only runs directly.
fn direct_span(tag: &str) -> &'static str {
    match tag {
        "tree-shap" => "nfv-xai.direct.tree-shap",
        "lime" => "nfv-xai.direct.lime",
        _ => "nfv-xai.direct.other",
    }
}

/// Row counters the replay keeps beside its spans, so ratios are measured
/// where the work happens.
#[derive(Default)]
pub struct ReplayCounts {
    pub block_rows: u64,
    pub dedup_saved_rows: u64,
    /// Rows of each separate `predict_block` call.
    pub predict_rows: Vec<f64>,
}

/// The layer replay: one request taken through the same public calls the
/// engine makes internally, on the harness thread, one span per call —
/// `CacheKey::build` → `ShardedCache::get` → `ModelRegistry::get` +
/// `ModelEntry::explainer` → `Explainer::plan` → `FusedBlock::evaluate`
/// (and, separately, `predict_block` on the same rows) →
/// `ExplainPlan::finish` → `ShardedCache::insert`. Seeds derive from the
/// request content exactly as a worker derives them, so the replayed
/// answer is the engine's answer bit for bit.
pub struct Replayer {
    pub cache: ShardedCache,
    config: ServeConfig,
    ws: CoalitionWorkspace,
    block: FusedBlock,
    scratch: Vec<f64>,
    pub counts: ReplayCounts,
}

impl Replayer {
    /// A replayer with its own cache shaped like an engine's under `config`.
    pub fn new(config: ServeConfig) -> Replayer {
        Replayer {
            cache: ShardedCache::new(
                config.cache_capacity,
                config.cold_capacity,
                config.cache_shards,
            ),
            config,
            ws: CoalitionWorkspace::default(),
            block: FusedBlock::default(),
            scratch: Vec::new(),
            counts: ReplayCounts::default(),
        }
    }

    pub fn replay(
        &mut self,
        registry: &ModelRegistry,
        request: &ExplainRequest,
        op_id: u64,
        tracer: &mut Tracer,
    ) -> Result<(Arc<Attribution>, Fidelity), String> {
        let root = tracer.begin("replay", op_id, None);
        let resolve = tracer.begin("nfv-serve.resolve", op_id, root);
        let entry = registry
            .get(&request.model_id)
            .ok_or_else(|| format!("model `{}` not registered", request.model_id))?;
        let explainer = entry.explainer(request.method).map_err(|e| e.to_string())?;
        tracer.end(resolve);

        let key = tracer.timed("nfv-serve.key_build", op_id, root, || {
            CacheKey::build(
                &request.model_id,
                entry.version,
                request.method,
                &request.features,
                self.config.quantization_grid,
            )
        });
        let key = key.ok_or("features outside the quantization range")?;

        let get = tracer.begin("nfv-serve.cache_get_miss", op_id, root);
        let hit = self.cache.get(&key);
        tracer.end(get);
        if let Some((attr, fidelity)) = hit {
            tracer.rename(
                get,
                if fidelity.is_exact() {
                    "nfv-serve.cache_get_hot"
                } else {
                    "nfv-serve.cache_get_cold"
                },
            );
            tracer.end(root);
            return Ok((attr, fidelity));
        }

        let ctx = ExplainContext {
            model: entry.explain_regressor(),
            x: &request.features,
            background: &entry.background,
            names: &entry.feature_names,
            base_hint: Some(entry.expected_output),
            seed: request_seed(self.config.seed, key.stable_hash()),
        };
        let attr = if explainer.fusable() {
            let (plan_name, finish_name) = plan_finish_spans(explainer.tag());
            self.block.clear();
            let plan = tracer.timed(plan_name, op_id, root, || {
                explainer.plan(&ctx, &mut self.ws, &mut self.block)
            });
            let plan = plan.map_err(|e| e.to_string())?;
            tracer.timed("nfv-xai.evaluate", op_id, root, || {
                self.block.evaluate(ctx.model)
            });
            let rows = self.block.n_rows();
            self.counts.block_rows += rows as u64;
            self.counts.dedup_saved_rows += self.block.last_dedup_saved() as u64;
            // The same rows through the model alone: evaluate minus this
            // is the block's own pack / dedup / scatter cost.
            self.scratch.clear();
            self.scratch.resize(rows, 0.0);
            self.counts.predict_rows.push(rows as f64);
            tracer.timed("nfv-ml.predict_block", op_id, root, || {
                ctx.model
                    .predict_block(self.block.rows(), self.block.d(), &mut self.scratch)
            });
            tracer
                .timed(finish_name, op_id, root, || {
                    plan.finish(&self.block, ctx.names)
                })
                .map_err(|e| e.to_string())?
        } else {
            tracer
                .timed(direct_span(explainer.tag()), op_id, root, || {
                    explainer.direct(&ctx, &mut self.ws)
                })
                .map_err(|e| e.to_string())?
        };
        let attr = Arc::new(attr);
        tracer.timed("nfv-serve.cache_insert", op_id, root, || {
            self.cache.insert(key, Arc::clone(&attr))
        });
        tracer.end(root);
        Ok((attr, Fidelity::Exact))
    }
}
