//! Batch explanation across threads: explaining a whole test set is
//! embarrassingly parallel, and the global-importance figures need hundreds
//! of local explanations.

use crate::explanation::Attribution;
use crate::XaiError;

/// Explains every instance with `explain`, fanning out across `threads`
/// scoped workers. Result order matches input order; the first error (by
/// instance index) wins. `explain` must be `Sync` — all provided explainers
/// are, since models are `Send + Sync` and configs are value types.
pub fn explain_batch<F>(
    instances: &[Vec<f64>],
    threads: usize,
    explain: F,
) -> Result<Vec<Attribution>, XaiError>
where
    F: Fn(&[f64]) -> Result<Attribution, XaiError> + Sync,
{
    explain_batch_seeded_ws(
        instances,
        &vec![0; instances.len()],
        threads,
        || (),
        |x, _seed, _ws| explain(x),
    )
}

/// Like [`explain_batch`], but hands each instance its own RNG seed.
///
/// Serving stacks derive per-request seeds from request *content* rather
/// than arrival order, which keeps stochastic explainers (KernelSHAP,
/// LIME) bit-for-bit reproducible no matter how requests are batched or
/// interleaved. `seeds` must be parallel to `instances`.
pub fn explain_batch_seeded<F>(
    instances: &[Vec<f64>],
    seeds: &[u64],
    threads: usize,
    explain: F,
) -> Result<Vec<Attribution>, XaiError>
where
    F: Fn(&[f64], u64) -> Result<Attribution, XaiError> + Sync,
{
    explain_batch_seeded_ws(
        instances,
        seeds,
        threads,
        || (),
        |x, seed, _ws| explain(x, seed),
    )
}

/// Like [`explain_batch_seeded`], but each worker thread also gets its own
/// scratch workspace from `make_ws`, handed mutably to every `explain` call
/// that thread runs.
///
/// This is how the batched coalition evaluators amortize allocations: pass
/// `CoalitionWorkspace::default` as `make_ws` and route each call through
/// `kernel_shap_with` (or any `coalition_values_into` user). The workspace
/// only caches buffers — results stay bit-identical regardless of thread
/// count or batch composition, because each instance's RNG stream is fully
/// determined by its seed.
pub fn explain_batch_seeded_ws<W, M, F>(
    instances: &[Vec<f64>],
    seeds: &[u64],
    threads: usize,
    make_ws: M,
    explain: F,
) -> Result<Vec<Attribution>, XaiError>
where
    M: Fn() -> W + Sync,
    F: Fn(&[f64], u64, &mut W) -> Result<Attribution, XaiError> + Sync,
{
    if instances.len() != seeds.len() {
        return Err(XaiError::Input(format!(
            "instances ({}) and seeds ({}) must be parallel",
            instances.len(),
            seeds.len()
        )));
    }
    if instances.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(instances.len());
    if threads == 1 {
        let mut ws = make_ws();
        return instances
            .iter()
            .zip(seeds)
            .map(|(x, &s)| explain(x, s, &mut ws))
            .collect();
    }
    let mut slots: Vec<Option<Result<Attribution, XaiError>>> =
        (0..instances.len()).map(|_| None).collect();
    let chunk = instances.len().div_ceil(threads);
    crossbeam::scope(|s| {
        for (w, out_chunk) in slots.chunks_mut(chunk).enumerate() {
            let explain = &explain;
            let make_ws = &make_ws;
            s.spawn(move |_| {
                let mut ws = make_ws();
                for (off, cell) in out_chunk.iter_mut().enumerate() {
                    let idx = w * chunk + off;
                    *cell = Some(explain(&instances[idx], seeds[idx], &mut ws));
                }
            });
        }
    })
    .map_err(|_| XaiError::Numeric("batch explanation thread panicked".into()))?;
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::Background;
    use crate::shapley::tree::tree_shap;
    use nfv_data::prelude::*;
    use nfv_ml::prelude::*;

    #[test]
    fn batch_matches_serial_and_keeps_order() {
        let s = friedman1(200, 6, 0.2, 101).unwrap();
        let tree = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let names: Vec<String> = s.data.names.clone();
        let instances: Vec<Vec<f64>> = (0..40).map(|i| s.data.row(i).to_vec()).collect();
        let serial = explain_batch(&instances, 1, |x| tree_shap(&tree, x, &names)).unwrap();
        let parallel = explain_batch(&instances, 4, |x| tree_shap(&tree, x, &names)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 40);
        // Order preserved: prediction matches the instance's own output.
        for (a, x) in serial.iter().zip(&instances) {
            assert!((a.prediction - tree.output(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_propagate() {
        let _ = Background::from_rows(vec![vec![0.0]]).unwrap();
        let instances = vec![vec![1.0], vec![2.0]];
        let res = explain_batch(&instances, 2, |_| Err(XaiError::Numeric("nope".into())));
        assert!(res.is_err());
    }

    #[test]
    fn seeded_batch_is_order_and_thread_invariant() {
        use crate::shapley::kernel::{kernel_shap, KernelShapConfig};
        let s = friedman1(80, 5, 0.1, 7).unwrap();
        let model = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let bg = Background::from_dataset(&s.data, 12, 3).unwrap();
        let names = s.data.names.clone();
        let instances: Vec<Vec<f64>> = (0..6).map(|i| s.data.row(i).to_vec()).collect();
        let seeds: Vec<u64> = (0..6).map(|i| 1000 + i as u64).collect();
        let run = |threads| {
            explain_batch_seeded(&instances, &seeds, threads, |x, seed| {
                let cfg = KernelShapConfig {
                    seed,
                    ..KernelShapConfig::for_features(x.len())
                };
                kernel_shap(&model, x, &bg, &names, &cfg)
            })
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(serial, parallel);
        // Each instance's result depends only on (instance, seed): explaining
        // one alone reproduces its batched attribution bit-for-bit.
        let alone = explain_batch_seeded(&instances[2..3], &seeds[2..3], 1, |x, seed| {
            let cfg = KernelShapConfig {
                seed,
                ..KernelShapConfig::for_features(x.len())
            };
            kernel_shap(&model, x, &bg, &names, &cfg)
        })
        .unwrap();
        assert_eq!(alone[0], serial[2]);
    }

    #[test]
    fn workspace_batch_matches_plain_seeded_batch() {
        use crate::background::CoalitionWorkspace;
        use crate::shapley::kernel::{kernel_shap, kernel_shap_with, KernelShapConfig};
        let s = friedman1(90, 6, 0.15, 17).unwrap();
        let model = DecisionTree::fit(&s.data, &TreeParams::default(), 0).unwrap();
        let bg = Background::from_dataset(&s.data, 10, 1).unwrap();
        let names = s.data.names.clone();
        let instances: Vec<Vec<f64>> = (0..9).map(|i| s.data.row(i).to_vec()).collect();
        let seeds: Vec<u64> = (0..9).map(|i| 7 * i as u64 + 3).collect();
        let cfg_for = |x: &[f64], seed| KernelShapConfig {
            seed,
            ..KernelShapConfig::for_features(x.len())
        };
        let plain = explain_batch_seeded(&instances, &seeds, 2, |x, seed| {
            kernel_shap(&model, x, &bg, &names, &cfg_for(x, seed))
        })
        .unwrap();
        // Per-thread workspaces must not perturb results, at any thread count.
        for threads in [1usize, 2, 4] {
            let ws_run = explain_batch_seeded_ws(
                &instances,
                &seeds,
                threads,
                CoalitionWorkspace::default,
                |x, seed, ws| kernel_shap_with(&model, x, &bg, &names, &cfg_for(x, seed), ws),
            )
            .unwrap();
            assert_eq!(plain, ws_run, "threads={threads}");
        }
    }

    #[test]
    fn seeded_batch_rejects_mismatched_seeds() {
        let out = explain_batch_seeded(&[vec![1.0]], &[1, 2], 1, |_, _| {
            unreachable!("shape error fires first")
        });
        assert!(matches!(out, Err(XaiError::Input(_))));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = explain_batch(&[], 4, |_| unreachable!("no instances to explain"));
        assert_eq!(out.unwrap().len(), 0);
    }
}
