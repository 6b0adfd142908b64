//! The unified explainer pipeline: every local attribution method behind
//! one object-safe trait, so callers — above all the serving layer — can
//! plan, fuse, and finish *any* method without per-method dispatch.
//!
//! ## The plan/finish contract
//!
//! A fusable explainer splits into two halves around one shared model
//! evaluation:
//!
//! 1. [`Explainer::plan`] materializes the method's composite rows into a
//!    shared [`FusedBlock`] **without evaluating the model on them** and
//!    returns a boxed [`ExplainPlan`] remembering its row range. Several
//!    requests' plans — from *different methods* — stack into one block.
//! 2. [`FusedBlock::evaluate`] runs a single `predict_block` call over the
//!    whole arena.
//! 3. [`ExplainPlan::finish`] reduces the plan's slice of the shared
//!    prediction buffer. `predict_block` is row-pure, so a plan's answer
//!    does not depend on what else was stacked beside it: fused results
//!    are **bit-identical** to a request served alone (enforced by the
//!    `fused_bit_identity` property tests; `pipeline_scalar_oracle` pins
//!    the pipeline itself to scalar `predict`).
//!
//! LIME is fusable too: its Gaussian perturbations are rows like any
//! composite, so it plans them into the block and fits its surrogate at
//! finish. Non-fusable methods (TreeSHAP walks tree structure and
//! evaluates no rows; `interactions` enumerates its `2^d` coalitions
//! through the chunked [`Background::coalition_values_into`] and has no
//! plan/finish split; PDP/counterfactual produce non-attribution
//! artifacts and stay free functions) refuse in [`Explainer::plan`] and
//! implement [`Explainer::direct`]; a scheduler serves a request whose plan
//! refuses through `direct()`, alone.
//!
//! [`Explainer::direct`] *is* that pipeline for one request: the default
//! implementation plans into the workspace's own block, evaluates it and
//! finishes. Only the two enumerating methods override it — exact and
//! grouped Shapley stack `2^d × n_bg` rows, so alone they run their free
//! functions, which are the same three steps chunk by chunk
//! ([`Background::coalition_values_into`]) and keep memory bounded.

use crate::background::{Background, CoalitionWorkspace, FusedBlock};
use crate::explanation::Attribution;
use crate::grouped::{
    grouped_shapley, grouped_shapley_finish, grouped_shapley_plan, FeatureGroups, GroupedShapPlan,
};
use crate::lime::{lime_finish, lime_plan, LimeConfig, LimePlan};
use crate::permutation::{instance_permutation_finish, instance_permutation_plan, PermutationPlan};
use crate::shapley::{
    exact_shapley, exact_shapley_finish, exact_shapley_plan, kernel_shap_finish, kernel_shap_plan,
    sampling_shapley_finish, sampling_shapley_plan, ExactShapPlan, KernelShapConfig,
    KernelShapPlan, SamplingConfig, SamplingPlan,
};
use crate::XaiError;
use nfv_ml::model::Regressor;

/// Everything an [`Explainer`] needs to explain one instance. Borrowed per
/// request; the per-method budgets live in the explainer itself.
pub struct ExplainContext<'a> {
    /// The model to explain (callers serving tree ensembles pass the
    /// packed SoA engine here — it is bit-identical to the source model).
    pub model: &'a dyn Regressor,
    /// The instance to explain.
    pub x: &'a [f64],
    /// The background distribution realizing "feature absent".
    pub background: &'a Background,
    /// Feature names for the resulting [`Attribution`].
    pub names: &'a [String],
    /// Cached `background.expected_output(model)`, when the caller holds
    /// one. Must be bit-equal to a recompute; explainers that need the
    /// base value use it to skip a full background sweep.
    pub base_hint: Option<f64>,
    /// Seed for stochastic methods (deterministic methods ignore it).
    pub seed: u64,
}

impl ExplainContext<'_> {
    /// The base value: the hint when present, else a background sweep.
    /// Bit-identical either way (the hint contract requires it).
    pub fn base_value(&self) -> f64 {
        self.base_hint
            .unwrap_or_else(|| self.background.expected_output(self.model))
    }
}

/// The deferred half of a planned explanation: knows its row range inside
/// the shared block and how to reduce those predictions to an
/// [`Attribution`].
pub trait ExplainPlan: Send {
    /// Composite rows this plan occupies in its block (0 is legal — e.g. a
    /// one-feature KernelSHAP plan resolves fully at finish time).
    fn n_rows(&self) -> usize;

    /// Completes the plan against its evaluated block. `names` labels the
    /// model's features; plans that attribute to coarser units (grouped
    /// Shapley reports per-group values) ignore it.
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError>;
}

impl ExplainPlan for KernelShapPlan {
    fn n_rows(&self) -> usize {
        KernelShapPlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        kernel_shap_finish(self, block, names)
    }
}

impl ExplainPlan for SamplingPlan {
    fn n_rows(&self) -> usize {
        SamplingPlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        sampling_shapley_finish(self, block, names)
    }
}

impl ExplainPlan for ExactShapPlan {
    fn n_rows(&self) -> usize {
        ExactShapPlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        exact_shapley_finish(self, block, names)
    }
}

impl ExplainPlan for GroupedShapPlan {
    fn n_rows(&self) -> usize {
        GroupedShapPlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, _names: &[String]) -> Result<Attribution, XaiError> {
        // Grouped attributions are labeled by the plan's group names, not
        // the model's feature names.
        grouped_shapley_finish(self, block)
    }
}

impl ExplainPlan for PermutationPlan {
    fn n_rows(&self) -> usize {
        PermutationPlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        instance_permutation_finish(self, block, names)
    }
}

impl ExplainPlan for LimePlan {
    fn n_rows(&self) -> usize {
        LimePlan::n_rows(self)
    }
    fn finish(&self, block: &FusedBlock, names: &[String]) -> Result<Attribution, XaiError> {
        lime_finish(self, block, names).map(|e| e.attribution)
    }
}

/// One attribution method behind a uniform, object-safe interface.
///
/// Implementations are cheap value objects carrying only the method's
/// budget/configuration; all per-request state arrives via
/// [`ExplainContext`]. `Send + Sync` so a registry can hand them across
/// worker threads.
pub trait Explainer: Send + Sync {
    /// Short method tag (matches the `method` field of the produced
    /// [`Attribution`] family, e.g. `"kernel-shap"`).
    fn tag(&self) -> &'static str;

    /// Whether this method can plan into a shared [`FusedBlock`]. No
    /// scheduler reads it: the serving worker plans every request and runs
    /// alone the ones whose [`Explainer::plan`] refuses.
    fn fusable(&self) -> bool {
        true
    }

    /// Reserves this request's composite rows in `block` and returns the
    /// deferred finish half. Non-fusable methods return an error. A plan
    /// that refuses appends nothing, and a scheduler serves that request
    /// through [`Explainer::direct`] instead: the exact and grouped
    /// enumerations refuse past the workspace chunk, which `direct()`
    /// evaluates chunk by chunk.
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError>;

    /// Explains one instance end to end, without cross-request fusion.
    ///
    /// The default runs plan → evaluate → finish on the workspace's block
    /// — the pipeline a fused group runs, with a group of one. Non-fusable
    /// methods must override it.
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        // `plan` borrows the whole workspace, so its block steps out.
        let mut block = std::mem::take(&mut ws.block);
        block.clear();
        let result = self.plan(ctx, ws, &mut block).and_then(|plan| {
            block.evaluate(ctx.model);
            plan.finish(&block, ctx.names)
        });
        ws.block = block;
        result
    }
}

/// KernelSHAP behind the [`Explainer`] trait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShapExplainer {
    /// Coalition evaluation budget.
    pub n_coalitions: usize,
    /// Ridge regularization of the weighted regression.
    pub ridge: f64,
}

impl KernelShapExplainer {
    fn config(&self, seed: u64) -> KernelShapConfig {
        KernelShapConfig {
            n_coalitions: self.n_coalitions,
            ridge: self.ridge,
            seed,
        }
    }
}

impl Explainer for KernelShapExplainer {
    fn tag(&self) -> &'static str {
        "kernel-shap"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        kernel_shap_plan(
            ctx.model,
            ctx.x,
            ctx.background,
            &self.config(ctx.seed),
            ctx.base_hint,
            ws,
            block,
        )
        .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
}

/// Permutation-sampling Shapley behind the [`Explainer`] trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingShapleyExplainer {
    /// Permutations to draw.
    pub n_permutations: usize,
    /// Pair each permutation with its reverse.
    pub antithetic: bool,
}

impl SamplingShapleyExplainer {
    fn config(&self, seed: u64) -> SamplingConfig {
        SamplingConfig {
            n_permutations: self.n_permutations,
            antithetic: self.antithetic,
            seed,
        }
    }
}

impl Explainer for SamplingShapleyExplainer {
    fn tag(&self) -> &'static str {
        "sampling-shapley"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        sampling_shapley_plan(
            ctx.model,
            ctx.x,
            ctx.background,
            &self.config(ctx.seed),
            ctx.base_hint,
            block,
        )
        .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
}

/// Exact (full-enumeration) Shapley behind the [`Explainer`] trait.
/// Deterministic — the context seed is ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactShapleyExplainer;

impl Explainer for ExactShapleyExplainer {
    fn tag(&self) -> &'static str {
        "exact-shapley"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        exact_shapley_plan(ctx.x, ctx.background, ws, block)
            .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
    /// Chunked: alone, `2^d × n_bg` rows must not be stacked at once.
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        exact_shapley(ctx.model, ctx.x, ctx.background, ctx.names)
    }
}

/// Grouped (Owen-style) Shapley behind the [`Explainer`] trait. Carries
/// its feature grouping; the produced attribution is per-*group*, so it
/// ignores the context's feature names. Deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedShapleyExplainer {
    /// The feature partition to attribute over.
    pub groups: FeatureGroups,
}

impl Explainer for GroupedShapleyExplainer {
    fn tag(&self) -> &'static str {
        "grouped-shapley"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        grouped_shapley_plan(ctx.x, ctx.background, &self.groups, ws, block)
            .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
    /// Chunked: alone, `2^G × n_bg` rows must not be stacked at once.
    fn direct(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
    ) -> Result<Attribution, XaiError> {
        grouped_shapley(ctx.model, ctx.x, ctx.background, &self.groups)
    }
}

/// Per-instance permutation (single-feature ablation) behind the
/// [`Explainer`] trait. Deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PermutationExplainer;

impl Explainer for PermutationExplainer {
    fn tag(&self) -> &'static str {
        "permutation"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        instance_permutation_plan(ctx.model, ctx.x, ctx.background, ctx.base_hint, ws, block)
            .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
}

/// LIME behind the [`Explainer`] trait: each Gaussian perturbation is one
/// row of the shared block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimeExplainer {
    /// Perturbation-sample budget.
    pub n_samples: usize,
}

impl Explainer for LimeExplainer {
    fn tag(&self) -> &'static str {
        "lime"
    }
    fn plan(
        &self,
        ctx: &ExplainContext<'_>,
        _ws: &mut CoalitionWorkspace,
        block: &mut FusedBlock,
    ) -> Result<Box<dyn ExplainPlan>, XaiError> {
        let cfg = LimeConfig {
            n_samples: self.n_samples,
            seed: ctx.seed,
            ..LimeConfig::default()
        };
        lime_plan(ctx.model, ctx.x, ctx.background, &cfg, ctx.base_hint, block)
            .map(|p| Box::new(p) as Box<dyn ExplainPlan>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_data::prelude::*;
    use nfv_ml::prelude::*;

    struct Fixture {
        model: Gbdt,
        names: Vec<String>,
        background: Background,
        x: Vec<f64>,
        base: f64,
    }

    fn fixture() -> Fixture {
        let s = friedman1(150, 5, 0.1, 3).unwrap();
        let model = Gbdt::fit(
            &s.data,
            &GbdtParams {
                n_rounds: 8,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let background = Background::from_dataset(&s.data, 8, 1).unwrap();
        let base = background.expected_output(&model);
        Fixture {
            x: s.data.row(3).to_vec(),
            names: s.data.names.clone(),
            model,
            background,
            base,
        }
    }

    fn explainers() -> Vec<Box<dyn Explainer>> {
        vec![
            Box::new(KernelShapExplainer {
                n_coalitions: 24,
                ridge: 0.0,
            }),
            Box::new(SamplingShapleyExplainer {
                n_permutations: 6,
                antithetic: true,
            }),
            Box::new(ExactShapleyExplainer),
            Box::new(GroupedShapleyExplainer {
                groups: FeatureGroups::new(vec!["a".into(), "b".into()], vec![0, 0, 0, 1, 1])
                    .unwrap(),
            }),
            Box::new(PermutationExplainer),
            Box::new(LimeExplainer { n_samples: 64 }),
        ]
    }

    // Exercises the trait's default `direct` under an explainer that
    // overrides it: delegates `plan` but does NOT override `direct`.
    struct DefaultDirect<E>(E);
    impl<E: Explainer> Explainer for DefaultDirect<E> {
        fn tag(&self) -> &'static str {
            self.0.tag()
        }
        fn plan(
            &self,
            ctx: &ExplainContext<'_>,
            ws: &mut CoalitionWorkspace,
            block: &mut FusedBlock,
        ) -> Result<Box<dyn ExplainPlan>, XaiError> {
            self.0.plan(ctx, ws, block)
        }
    }

    fn ctx<'a>(f: &'a Fixture) -> ExplainContext<'a> {
        ExplainContext {
            model: &f.model,
            x: &f.x,
            background: &f.background,
            names: &f.names,
            base_hint: Some(f.base),
            seed: 42,
        }
    }

    #[test]
    fn fused_trait_dispatch_is_bit_identical_to_direct() {
        let f = fixture();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let all = explainers();
        let fusable: Vec<&Box<dyn Explainer>> = all.iter().filter(|e| e.fusable()).collect();
        assert_eq!(fusable.len(), 6, "the Shapley family, permutation and LIME");

        // All six methods plan into ONE shared block, one evaluation.
        let plans: Vec<Box<dyn ExplainPlan>> = fusable
            .iter()
            .map(|e| e.plan(&ctx(&f), &mut ws, &mut block).unwrap())
            .collect();
        let total: usize = plans.iter().map(|p| p.n_rows()).sum();
        assert_eq!(block.n_rows(), total, "plans account for every row");
        block.evaluate(&f.model);

        for (e, p) in fusable.iter().zip(&plans) {
            let fused = p.finish(&block, &f.names).unwrap();
            let direct = e.direct(&ctx(&f), &mut ws).unwrap();
            assert_eq!(fused.method, direct.method, "{}", e.tag());
            assert_eq!(fused.base_value.to_bits(), direct.base_value.to_bits());
            assert_eq!(fused.prediction.to_bits(), direct.prediction.to_bits());
            assert_eq!(fused.values.len(), direct.values.len());
            for (a, b) in fused.values.iter().zip(&direct.values) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: fusion changed a bit",
                    e.tag()
                );
            }
        }
    }

    #[test]
    fn chunked_overrides_match_the_default_direct_bitwise() {
        // The two enumerating methods answer alone through their chunked
        // free functions; the single-block default must give the same bits.
        let f = fixture();
        let mut ws = CoalitionWorkspace::default();
        let same = |a: Attribution, b: Attribution| {
            assert_eq!(a.method, b.method);
            assert_eq!(a.base_value.to_bits(), b.base_value.to_bits());
            assert_eq!(a.prediction.to_bits(), b.prediction.to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.values), bits(&b.values), "{}", a.method);
        };
        let exact = ExactShapleyExplainer;
        same(
            DefaultDirect(exact).direct(&ctx(&f), &mut ws).unwrap(),
            exact.direct(&ctx(&f), &mut ws).unwrap(),
        );
        let grouped = GroupedShapleyExplainer {
            groups: FeatureGroups::new(vec!["a".into(), "b".into()], vec![0, 0, 0, 1, 1]).unwrap(),
        };
        same(
            DefaultDirect(grouped.clone())
                .direct(&ctx(&f), &mut ws)
                .unwrap(),
            grouped.direct(&ctx(&f), &mut ws).unwrap(),
        );
    }

    #[test]
    fn direct_runs_on_the_workspace_block_with_or_without_a_hint() {
        let f = fixture();
        let mut ws = CoalitionWorkspace::default();
        let kernel = KernelShapExplainer {
            n_coalitions: 24,
            ridge: 0.0,
        };
        let hinted = kernel.direct(&ctx(&f), &mut ws).unwrap();
        let rows = ws.block.n_rows();
        assert!(rows > 0, "the request ran on the workspace's own block");
        let unhinted = kernel
            .direct(
                &ExplainContext {
                    base_hint: None,
                    ..ctx(&f)
                },
                &mut ws,
            )
            .unwrap();
        assert_eq!(hinted, unhinted, "the hint never changes a bit");
        assert_eq!(ws.block.n_rows(), rows);
    }

    #[test]
    fn non_fusable_methods_refuse_to_plan_but_serve_directly() {
        use crate::methods::{InteractionsExplainer, TreeModel, TreeShapExplainer};
        let f = fixture();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let tree = TreeShapExplainer {
            trees: TreeModel::gbdt(std::sync::Arc::new(f.model.clone())),
        };
        let non_fusable: [(&dyn Explainer, usize); 2] = [(&tree, 5), (&InteractionsExplainer, 25)];
        for (e, len) in non_fusable {
            assert!(!e.fusable(), "{}", e.tag());
            assert!(e.plan(&ctx(&f), &mut ws, &mut block).is_err());
            assert!(block.is_empty(), "failed plan must not leave rows behind");
            let attr = e.direct(&ctx(&f), &mut ws).unwrap();
            assert_eq!(attr.method, e.tag());
            assert_eq!(attr.len(), len);
        }
    }

    #[test]
    fn grouped_plan_reports_group_names_not_feature_names() {
        let f = fixture();
        let mut ws = CoalitionWorkspace::default();
        let mut block = FusedBlock::default();
        let e = GroupedShapleyExplainer {
            groups: FeatureGroups::new(vec!["a".into(), "b".into()], vec![0, 0, 0, 1, 1]).unwrap(),
        };
        let plan = e.plan(&ctx(&f), &mut ws, &mut block).unwrap();
        block.evaluate(&f.model);
        let attr = plan.finish(&block, &f.names).unwrap();
        assert_eq!(*attr.names, ["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn context_base_value_prefers_the_hint() {
        let f = fixture();
        let c = ctx(&f);
        assert_eq!(c.base_value().to_bits(), f.base.to_bits());
        let no_hint = ExplainContext {
            base_hint: None,
            ..ctx(&f)
        };
        assert_eq!(no_hint.base_value().to_bits(), f.base.to_bits());
    }
}
