//! Integration: the discrete-event simulator validated against queueing
//! theory and checked for the cross-run properties (determinism, Little's
//! law, fluid-model agreement) that the datasets depend on.

use nfv_sim::prelude::*;
use nfv_sim::queueing;

/// One VNF under Poisson load for 0.25 s in 1/32 s windows, two of them
/// warm-up: the shortest horizon at which every check below keeps at least
/// a 7× margin to its tolerance over 20 seeds (EXPERIMENTS §S13).
fn one_vnf_run(kind: VnfKind, rate: f64, payload: f64, seed: u64) -> RunResult {
    let scenario = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            ChainSpec::of_kinds("t", &[kind]),
            Workload::poisson(rate),
            PacketSizes::Fixed(payload),
            Sla::tight(),
        )
        .build()
        .unwrap();
    scenario
        .run_des(&RunConfig {
            horizon: SimDuration::from_secs_f64(0.25),
            window: SimDuration::from_secs_f64(0.25 / 8.0),
            seed,
            warmup_windows: 2,
        })
        .unwrap()
}

#[test]
fn des_matches_pollaczek_khinchine_across_loads() {
    let cfg = VnfConfig::standard(VnfKind::Nat);
    let ms = cfg.mean_service_secs(500.0, 2.6, 1.0);
    let cv = VnfKind::Nat.service_cv();
    for rho in [0.3, 0.6, 0.8] {
        let lambda = rho / ms;
        let res = one_vnf_run(VnfKind::Nat, lambda, 500.0, 11);
        let mut h = LatencyHistogram::new();
        for w in &res.windows[0] {
            h.merge(&w.latency);
        }
        // The VNF's sojourn: end-to-end latency minus the two 30 µs hops,
        // which would otherwise be most of what is compared.
        let measured = h.mean_secs() - 2.0 * 30e-6;
        let expect = queueing::mg1_mean_sojourn(lambda, ms, cv);
        assert!(
            (measured / expect - 1.0).abs() < 0.12,
            "rho={rho}: measured sojourn {measured:e} vs P-K {expect:e}"
        );
    }
}

#[test]
fn littles_law_holds_in_the_des() {
    // L = λ_effective · W at the queue level, using the engine's
    // time-integrated queue area.
    let cfg = VnfConfig::standard(VnfKind::Ids);
    let ms = cfg.mean_service_secs(500.0, 2.6, 1.0);
    let lambda = 0.7 / ms;
    let res = one_vnf_run(VnfKind::Ids, lambda, 500.0, 13);
    let mut l_sum = 0.0;
    let mut n = 0.0;
    let mut throughput = 0.0;
    let mut lat = LatencyHistogram::new();
    for w in &res.windows[0] {
        l_sum += w.per_vnf[0].mean_queue(w.window_s);
        throughput += w.per_vnf[0].processed as f64 / w.window_s;
        lat.merge(&w.latency);
        n += 1.0;
    }
    let l = l_sum / n;
    let thru = throughput / n;
    // W here is the VNF sojourn; end-to-end latency minus 2 hops.
    let w = lat.mean_secs() - 2.0 * 30e-6;
    let lw = thru * w;
    assert!(
        (l / lw - 1.0).abs() < 0.1,
        "Little's law: L={l:.3} vs λW={lw:.3}"
    );
}

#[test]
fn drop_rates_match_finite_buffer_theory_under_overload() {
    let cfg = VnfConfig::standard(VnfKind::Dpi);
    let ms = cfg.mean_service_secs(500.0, 2.6, 1.0);
    let lambda = 2.0 / ms; // ρ = 2 → fluid drop ≈ 1 − 1/ρ = 0.5
    let res = one_vnf_run(VnfKind::Dpi, lambda, 500.0, 17);
    let last = res.windows[0].last().unwrap();
    let drop = last.drop_rate();
    assert!(
        (drop - 0.5).abs() < 0.06,
        "overload drop {drop} vs fluid 0.5"
    );
}

#[test]
fn full_demo_scenario_is_bit_deterministic() {
    let run = |seed| {
        Scenario::demo(3)
            .run_des(&RunConfig {
                horizon: SimDuration::from_secs_f64(3.0),
                window: SimDuration::from_secs_f64(0.5),
                seed,
                warmup_windows: 1,
            })
            .unwrap()
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.windows, b.windows);
    let c = run(78);
    assert_ne!(a.windows, c.windows);
}

#[test]
fn fluid_and_des_agree_at_moderate_load() {
    let chain = ChainSpec::of_kinds("t", &[VnfKind::Firewall, VnfKind::Ids, VnfKind::Router]);
    let ghz = ServerSpec::standard().core_ghz;
    let load = 120_000.0;
    let est = nfv_sim::chain::estimate_chain(&chain, load, 500.0, ghz, &[1.0; 3]);
    let scenario = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            chain,
            Workload::poisson(load),
            PacketSizes::Fixed(500.0),
            Sla::tight(),
        )
        .build()
        .unwrap();
    let res = scenario
        .run_des(&RunConfig {
            horizon: SimDuration::from_secs_f64(6.0),
            window: SimDuration::from_secs_f64(1.0),
            seed: 5,
            warmup_windows: 1,
        })
        .unwrap();
    let mut h = LatencyHistogram::new();
    for w in &res.windows[0] {
        h.merge(&w.latency);
    }
    let ratio = est.mean_latency_s / h.mean_secs();
    assert!(
        (0.85..1.15).contains(&ratio),
        "fluid/DES mean-latency ratio {ratio}"
    );
}

#[test]
fn placement_policies_change_interference_outcomes() {
    // BestFit (max consolidation) on few servers must yield higher
    // co-location interference than WorstFit (spread) on the same pool.
    let chains: Vec<ChainSpec> = ChainSpec::catalogue();
    let run_policy = |policy| {
        let mut sc = Scenario::demo(5);
        sc.chains = chains.clone();
        sc.policy = policy;
        let res = sc
            .run_des(&RunConfig {
                horizon: SimDuration::from_secs_f64(2.0),
                window: SimDuration::from_secs_f64(1.0),
                seed: 9,
                warmup_windows: 1,
            })
            .unwrap();
        // Mean interference across all chains/VNFs/windows.
        let mut sum = 0.0;
        let mut n = 0.0;
        for cw in &res.windows {
            for w in cw {
                for i in &w.interference {
                    sum += i;
                    n += 1.0;
                }
            }
        }
        sum / n
    };
    let packed = run_policy(PlacementPolicy::BestFit);
    let spread = run_policy(PlacementPolicy::WorstFit);
    assert!(
        packed > spread,
        "consolidation {packed} should hurt more than spreading {spread}"
    );
}
