//! End-to-end tests for the sharded serving cluster: every registry
//! method served through the router, registration/invalidation fan-out,
//! stats rollup, and spill-on-queue-full.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn cluster_with_gbdt(cfg: ClusterConfig) -> (ServeCluster, Vec<Vec<f64>>) {
    let synth = friedman1(300, 5, 0.1, 11).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 15,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let cluster = ServeCluster::start(cfg);
    cluster
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    let rows: Vec<Vec<f64>> = (0..20).map(|i| synth.data.row(i).to_vec()).collect();
    (cluster, rows)
}

/// The cluster's shard ids, `0..n`.
fn shard_ids(cluster: &ServeCluster) -> Vec<u32> {
    (0..)
        .take_while(|&id| cluster.shard(id).is_some())
        .collect()
}

/// Every shard's version of `model_id`, in shard-id order.
fn versions_of(cluster: &ServeCluster, model_id: &str) -> Vec<u64> {
    let shards = shard_ids(cluster)
        .into_iter()
        .map(|id| cluster.shard(id).unwrap());
    shards
        .map(|s| s.registry().get(model_id).unwrap().version)
        .collect()
}

/// `count` summed over every shard.
fn sum_over_shards(cluster: &ServeCluster, count: fn(&Engine) -> usize) -> usize {
    let ids = shard_ids(cluster).into_iter();
    ids.map(|id| count(&cluster.shard(id).unwrap())).sum()
}

/// Entries cached across all shards.
fn cache_len(cluster: &ServeCluster) -> usize {
    sum_over_shards(cluster, Engine::cache_len)
}

/// Requests queued across all shards.
fn queue_len(cluster: &ServeCluster) -> usize {
    sum_over_shards(cluster, Engine::queue_len)
}

fn req(x: &[f64], method: ExplainMethod) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method,
        budget: Duration::from_secs(5),
    }
}

/// Every method the registry resolves — deterministic, stochastic,
/// fusable, and direct-only alike.
fn all_methods() -> Vec<ExplainMethod> {
    vec![
        ExplainMethod::TreeShap,
        ExplainMethod::KernelShap { n_coalitions: 32 },
        ExplainMethod::Lime { n_samples: 64 },
        ExplainMethod::SamplingShapley {
            n_permutations: 6,
            antithetic: true,
        },
        ExplainMethod::ExactShapley,
        ExplainMethod::GroupedShapley,
        ExplainMethod::Permutation,
    ]
}

#[test]
fn every_method_serves_through_the_cluster_with_sticky_caching() {
    let (cluster, rows) = cluster_with_gbdt(ClusterConfig {
        shards: 3,
        ..ClusterConfig::default()
    });
    for (i, method) in all_methods().into_iter().enumerate() {
        let first = cluster.explain(&req(&rows[i], method)).unwrap();
        assert!(!first.cache_hit, "{method:?}");
        // The efficiency axiom binds the exact Shapley family tightly;
        // sampling only in expectation; LIME and LOCO not at all.
        match method {
            ExplainMethod::TreeShap
            | ExplainMethod::KernelShap { .. }
            | ExplainMethod::ExactShapley
            | ExplainMethod::GroupedShapley => {
                assert!(
                    first.attribution.efficiency_gap().abs() < 1e-6,
                    "{method:?}"
                )
            }
            _ => assert!(
                first.attribution.values.iter().all(|v| v.is_finite()),
                "{method:?}"
            ),
        }
        // The identical question must route to the same shard and hit its
        // cache — stickiness is what makes per-shard caches sufficient.
        let again = cluster.explain(&req(&rows[i], method)).unwrap();
        assert!(
            again.cache_hit,
            "{method:?} missed on repeat: routing moved"
        );
        assert_eq!(again.attribution, first.attribution);
    }
    // Stats roll up across shards: the cluster view sums what each shard
    // actually did (14 completions), and no spill was ever needed.
    let stats = cluster.stats();
    let per_shard: Vec<ServeStats> = stats
        .per_shard
        .iter()
        .map(|(_, s)| s.clone().unwrap())
        .collect();
    assert_eq!(per_shard.len(), 3);
    assert_eq!(stats.cluster.completed, 14);
    assert_eq!(
        stats.cluster.completed,
        per_shard.iter().map(|s| s.completed).sum::<u64>()
    );
    assert_eq!(
        stats.cluster.cache_hits,
        per_shard.iter().map(|s| s.cache_hits).sum::<u64>()
    );
    assert_eq!(stats.spills, 0);
    assert_eq!(stats.faults, 0);
    assert_eq!(queue_len(&cluster), 0);
    assert!(cache_len(&cluster) >= 7);
    cluster.shutdown();
}

#[test]
fn registration_and_invalidation_fan_out_to_every_shard() {
    let (cluster, rows) = cluster_with_gbdt(ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    });
    // Every shard holds the model at the same version.
    let versions = versions_of(&cluster, "m");
    assert_eq!(versions.len(), 4);
    assert!(versions.windows(2).all(|w| w[0] == w[1]), "{versions:?}");

    // Warm caches on several shards, then invalidate cluster-wide.
    for r in rows.iter().take(8) {
        cluster.explain(&req(r, ExplainMethod::TreeShap)).unwrap();
    }
    assert!(cache_len(&cluster) > 0);
    cluster.invalidate_model("m");
    assert_eq!(cache_len(&cluster), 0, "invalidation must reach all shards");

    // Re-registration bumps the version everywhere at once.
    let synth = friedman1(300, 5, 0.1, 99).unwrap();
    let model2 = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 5,
            ..Default::default()
        },
        1,
    )
    .unwrap();
    let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let (model2, names) = (ServeModel::Gbdt(model2), synth.data.names);
    let v2 = cluster
        .register("m", model2.clone(), names.clone(), bg.clone())
        .unwrap();
    assert_eq!(versions_of(&cluster, "m"), vec![v2; 4]);
    assert!(v2 > versions[0]);

    // Deregistration empties every shard's registry.
    assert!(cluster.deregister("m"));
    let err = cluster
        .explain(&req(&rows[0], ExplainMethod::TreeShap))
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::Rejected(RejectReason::UnknownModel { .. })
    ));

    // Re-registering after it puts every shard back on one version.
    let v3 = cluster.register("m", model2, names, bg).unwrap();
    assert_eq!(versions_of(&cluster, "m"), vec![v3; 4]);
    cluster.shutdown();
}

#[test]
fn unroutable_requests_are_rejected_not_lost() {
    let (cluster, _rows) = cluster_with_gbdt(ClusterConfig::default());
    let err = cluster
        .explain(&req(&[f64::NAN; 5], ExplainMethod::TreeShap))
        .unwrap_err();
    assert!(err.is_reject(), "non-finite features reject with a reason");
    cluster.shutdown();
}

/// Saturate tiny home queues from many threads: overflow must retry on
/// the next shard (counted as a spill) instead of failing outright,
/// and every request must end as either an answer or an explicit
/// queue-full rejection — never a hang or a silent drop.
#[test]
fn queue_full_spills_to_the_next_shard() {
    let (cluster, rows) = cluster_with_gbdt(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    });
    let cluster = Arc::new(cluster);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let rows = rows.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut full = 0u64;
                for i in 0..16 {
                    // Distinct budgets keep every request a cache miss.
                    let r = ExplainRequest {
                        model_id: "m".into(),
                        features: rows[(t * 16 + i) % rows.len()].clone(),
                        method: ExplainMethod::KernelShap {
                            n_coalitions: 64 + t * 16 + i,
                        },
                        budget: Duration::from_secs(30),
                    };
                    match cluster.explain(&r) {
                        Ok(resp) => {
                            assert!(resp.attribution.efficiency_gap().abs() < 1e-6);
                            ok += 1;
                        }
                        Err(ServeError::Rejected(RejectReason::QueueFull { .. })) => full += 1,
                        Err(e) => panic!("unexpected outcome under saturation: {e}"),
                    }
                }
                (ok, full)
            })
        })
        .collect();
    let mut ok = 0;
    for h in handles {
        ok += h.join().unwrap().0;
    }
    assert!(ok > 0, "saturation must not starve everyone");
    let stats = cluster.stats();
    assert!(
        stats.spills > 0,
        "128 concurrent requests against capacity-1 queues never overflowed"
    );
    Arc::try_unwrap(cluster).ok().unwrap().shutdown();
}

/// Two threads registering at once must leave every shard on one history:
/// the router serializes fan-outs, so each id has one version cluster-wide
/// and a seeded request gets the same bits whichever shard computes it.
#[test]
fn concurrent_registrations_leave_every_shard_on_one_history() {
    let synth = friedman1(200, 5, 0.1, 3).unwrap();
    let params = GbdtParams {
        n_rounds: 5,
        ..Default::default()
    };
    let model = Gbdt::fit(&synth.data, &params, 0).unwrap();
    let bg = Background::from_dataset(&synth.data, 8, 1).unwrap();
    let names = &synth.data.names;
    let ids: Vec<String> = (0..10)
        .flat_map(|i| [format!("a{i}"), format!("b{i}")])
        .collect();
    let sampled_bits = |engine: &Engine, id: &str| -> Vec<u64> {
        let resp = engine.explain(ExplainRequest {
            model_id: id.into(),
            features: synth.data.row(0).to_vec(),
            method: ExplainMethod::SamplingShapley {
                n_permutations: 4,
                antithetic: false,
            },
            budget: Duration::from_secs(30),
        });
        let values = &resp.unwrap().attribution.values;
        values.iter().map(|v| v.to_bits()).collect()
    };
    let mut diverged = 0;
    for _ in 0..50 {
        let cluster = ServeCluster::start(ClusterConfig {
            shards: 3,
            shard: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        });
        std::thread::scope(|s| {
            for prefix in ["a", "b"] {
                let (cluster, model, bg) = (&cluster, &model, &bg);
                s.spawn(move || {
                    for i in 0..10 {
                        let model = ServeModel::Gbdt(model.clone());
                        let id = format!("{prefix}{i}");
                        cluster
                            .register(&id, model, names.clone(), bg.clone())
                            .unwrap();
                    }
                });
            }
        });
        let shards: Vec<Arc<Engine>> = shard_ids(&cluster)
            .into_iter()
            .map(|id| cluster.shard(id).unwrap())
            .collect();
        let one_history = ids.iter().all(|id| {
            let versions = versions_of(&cluster, id);
            let bits: Vec<Vec<u64>> = shards.iter().map(|e| sampled_bits(e, id)).collect();
            versions.windows(2).all(|w| w[0] == w[1]) && bits.windows(2).all(|w| w[0] == w[1])
        });
        diverged += usize::from(!one_history);
        drop(shards);
        cluster.shutdown();
    }
    assert_eq!(
        diverged, 0,
        "{diverged} of 50 rounds left shards on different histories"
    );
}
