//! Property tests for the fusion invariant: explanations computed through
//! the plan/execute split — many requests stacked into one shared
//! [`FusedBlock`] and evaluated by a single `predict_block` call — are
//! **bit-identical** to the direct per-request path, for every method and
//! every fusion group size.
//!
//! This is the determinism contract the serving layer's fusion scheduler
//! relies on: fusing changes *which call* evaluates a composite row, never
//! its arithmetic.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

const D: usize = 5;

struct Fixture {
    model: SoaForest,
    names: Vec<String>,
    background: Background,
    rows: Vec<Vec<f64>>,
    groups: FeatureGroups,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let synth = friedman1(200, D, 0.1, 7).unwrap();
        let gbdt = Gbdt::fit(
            &synth.data,
            &GbdtParams {
                n_rounds: 12,
                ..Default::default()
            },
            0,
        )
        .unwrap();
        let model = SoaForest::from_gbdt(&gbdt).unwrap();
        let background = Background::from_dataset(&synth.data, 8, 1).unwrap();
        let rows: Vec<Vec<f64>> = (0..24).map(|i| synth.data.row(i).to_vec()).collect();
        let groups = FeatureGroups::new(
            vec!["even".into(), "odd".into()],
            (0..D).map(|j| j % 2).collect(),
        )
        .unwrap();
        Fixture {
            model,
            names: synth.data.names.clone(),
            background,
            rows,
            groups,
        }
    })
}

/// One request in a synthetic fusion group.
#[derive(Debug, Clone)]
enum Req {
    Kernel {
        n_coalitions: usize,
        seed: u64,
    },
    Sampling {
        n_permutations: usize,
        antithetic: bool,
        seed: u64,
    },
    Exact,
    Grouped,
    Permutation,
    Lime {
        n_samples: usize,
        seed: u64,
    },
}

/// A xorshift stream from one seed.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// One request of method `kind` (0–5 in `Req` order) on a drawn row.
fn request(kind: u64, next: &mut impl FnMut() -> u64) -> (usize, Req) {
    let row = (next() as usize) % fixture().rows.len();
    let req = match kind {
        0 => Req::Kernel {
            n_coalitions: 6 + (next() as usize) % 24,
            seed: next(),
        },
        1 => Req::Sampling {
            n_permutations: 2 + (next() as usize) % 5,
            antithetic: next().is_multiple_of(2),
            seed: next(),
        },
        2 => Req::Exact,
        3 => Req::Grouped,
        4 => Req::Permutation,
        _ => Req::Lime {
            n_samples: D + 2 + (next() as usize) % 60,
            seed: next(),
        },
    };
    (row, req)
}

/// A mixed-method request list of `n` entries from one seed.
fn requests(n: usize, seed: u64) -> Vec<(usize, Req)> {
    let mut next = stream(seed);
    (0..n)
        .map(|_| {
            let kind = next() % 6;
            request(kind, &mut next)
        })
        .collect()
}

/// One request of each of the six methods, in a seed-rotated order.
fn every_method(seed: u64) -> Vec<(usize, Req)> {
    let mut next = stream(seed);
    let start = next() % 6;
    (0..6)
        .map(|k| request((start + k) % 6, &mut next))
        .collect()
}

/// The direct (unfused) path: each request evaluated on its own.
fn explain_direct(row: usize, req: &Req) -> Attribution {
    let f = fixture();
    let x = &f.rows[row];
    match req {
        Req::Kernel { n_coalitions, seed } => kernel_shap(
            &f.model,
            x,
            &f.background,
            &f.names,
            &KernelShapConfig {
                n_coalitions: *n_coalitions,
                ridge: 0.0,
                seed: *seed,
            },
        )
        .unwrap(),
        Req::Sampling {
            n_permutations,
            antithetic,
            seed,
        } => sampling_shapley(
            &f.model,
            x,
            &f.background,
            &f.names,
            &SamplingConfig {
                n_permutations: *n_permutations,
                antithetic: *antithetic,
                seed: *seed,
            },
        )
        .unwrap(),
        Req::Exact => exact_shapley(&f.model, x, &f.background, &f.names).unwrap(),
        Req::Grouped => grouped_shapley(&f.model, x, &f.background, &f.groups).unwrap(),
        Req::Permutation => {
            instance_permutation(&f.model, x, &f.background, &f.names, None).unwrap()
        }
        Req::Lime { n_samples, seed } => {
            lime(
                &f.model,
                x,
                &f.background,
                &f.names,
                &lime_config(*n_samples, *seed),
            )
            .unwrap()
            .attribution
        }
    }
}

fn lime_config(n_samples: usize, seed: u64) -> LimeConfig {
    LimeConfig {
        n_samples,
        seed,
        ..LimeConfig::default()
    }
}

/// A planned request awaiting its block's evaluation.
enum Planned {
    Kernel(KernelShapPlan),
    Sampling(SamplingPlan),
    Exact(ExactShapPlan),
    Grouped(GroupedShapPlan),
    Permutation(PermutationPlan),
    Lime(LimePlan),
}

/// The fused path: plan every request into one shared block, evaluate the
/// block once, then finish each plan against it.
fn explain_fused(reqs: &[(usize, Req)]) -> Vec<Attribution> {
    let f = fixture();
    let base = f.background.expected_output(&f.model);
    let mut ws = CoalitionWorkspace::default();
    let mut block = FusedBlock::default();
    let plans: Vec<Planned> = reqs
        .iter()
        .map(|(row, req)| {
            let x = &f.rows[*row];
            match req {
                Req::Kernel { n_coalitions, seed } => Planned::Kernel(
                    kernel_shap_plan(
                        &f.model,
                        x,
                        &f.background,
                        &KernelShapConfig {
                            n_coalitions: *n_coalitions,
                            ridge: 0.0,
                            seed: *seed,
                        },
                        Some(base),
                        &mut ws,
                        &mut block,
                    )
                    .unwrap(),
                ),
                Req::Sampling {
                    n_permutations,
                    antithetic,
                    seed,
                } => Planned::Sampling(
                    sampling_shapley_plan(
                        &f.model,
                        x,
                        &f.background,
                        &SamplingConfig {
                            n_permutations: *n_permutations,
                            antithetic: *antithetic,
                            seed: *seed,
                        },
                        Some(base),
                        &mut block,
                    )
                    .unwrap(),
                ),
                Req::Exact => Planned::Exact(
                    exact_shapley_plan(x, &f.background, &mut ws, &mut block).unwrap(),
                ),
                Req::Grouped => Planned::Grouped(
                    grouped_shapley_plan(x, &f.background, &f.groups, &mut ws, &mut block).unwrap(),
                ),
                Req::Permutation => Planned::Permutation(
                    instance_permutation_plan(
                        &f.model,
                        x,
                        &f.background,
                        Some(base),
                        &mut ws,
                        &mut block,
                    )
                    .unwrap(),
                ),
                Req::Lime { n_samples, seed } => Planned::Lime(
                    lime_plan(
                        &f.model,
                        x,
                        &f.background,
                        &lime_config(*n_samples, *seed),
                        Some(base),
                        &mut block,
                    )
                    .unwrap(),
                ),
            }
        })
        .collect();
    block.evaluate(&f.model);
    plans
        .iter()
        .map(|p| match p {
            Planned::Kernel(plan) => kernel_shap_finish(plan, &block, &f.names).unwrap(),
            Planned::Sampling(plan) => sampling_shapley_finish(plan, &block, &f.names).unwrap(),
            Planned::Exact(plan) => exact_shapley_finish(plan, &block, &f.names).unwrap(),
            Planned::Grouped(plan) => grouped_shapley_finish(plan, &block).unwrap(),
            Planned::Permutation(plan) => {
                instance_permutation_finish(plan, &block, &f.names).unwrap()
            }
            Planned::Lime(plan) => lime_finish(plan, &block, &f.names).unwrap().attribution,
        })
        .collect()
}

fn bits(a: &Attribution) -> (Vec<u64>, u64, u64) {
    (
        a.values.iter().map(|v| v.to_bits()).collect(),
        a.base_value.to_bits(),
        a.prediction.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused == unfused, bit for bit, across group sizes and mixed methods
    /// in one block.
    #[test]
    fn fused_is_bit_identical_to_direct(
        size_idx in 0usize..4,
        seed in 1u64..u64::MAX,
    ) {
        let group_size = [1usize, 2, 4, 8][size_idx];
        let reqs = requests(group_size, seed);
        let direct: Vec<_> = reqs.iter().map(|(r, q)| explain_direct(*r, q)).collect();
        let fused = explain_fused(&reqs);
        prop_assert_eq!(direct.len(), fused.len());
        for (i, (d, f)) in direct.iter().zip(&fused).enumerate() {
            prop_assert_eq!(bits(d), bits(f), "request {} of {:?} diverged", i, reqs[i]);
        }
    }

    /// LIME stacked beside the five other fusable methods, at every
    /// position in the block, equals LIME run alone (and so does each of
    /// the others).
    #[test]
    fn lime_stacked_with_every_other_method_equals_lime_alone(seed in 1u64..u64::MAX) {
        let reqs = every_method(seed);
        prop_assert!(reqs.iter().any(|(_, q)| matches!(q, Req::Lime { .. })));
        let direct: Vec<_> = reqs.iter().map(|(r, q)| explain_direct(*r, q)).collect();
        let fused = explain_fused(&reqs);
        for (i, (d, f)) in direct.iter().zip(&fused).enumerate() {
            prop_assert_eq!(bits(d), bits(f), "request {} of {:?} diverged", i, reqs[i]);
        }
    }
}
