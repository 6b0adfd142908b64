//! Criterion bench for the substrate: DES event throughput, fluid
//! evaluation, and histogram recording — the costs every dataset pays.

use criterion::{criterion_group, criterion_main, Criterion};
use nfv_sim::prelude::*;
use std::time::Duration;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("des_1s_50kpps_3vnf", |b| {
        let scenario = ScenarioBuilder::new()
            .servers(1, ServerSpec::standard())
            .chain(
                ChainSpec::of_kinds(
                    "bench",
                    &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
                ),
                Workload::poisson(50_000.0),
                PacketSizes::Imix,
                Sla::tight(),
            )
            .build()
            .unwrap();
        b.iter(|| {
            scenario
                .run_des(&RunConfig {
                    horizon: SimDuration::from_secs_f64(1.0),
                    window: SimDuration::from_secs_f64(0.5),
                    seed: 1,
                    warmup_windows: 0,
                })
                .unwrap()
        })
    });
    // The `pipeline_retrain` epoch's shape (`nfv_data::generate_des`): the
    // secure-web chain at a fixed payload, a noisy neighbour on every VNF
    // for the whole run, four 0.25 s windows (the first is warm-up).
    g.bench_function("des_epoch_secure_web", |b| {
        let mut scenario = ScenarioBuilder::new()
            .servers(1, ServerSpec::standard())
            .chain(
                ChainSpec::of_kinds(
                    "secure-web",
                    &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
                ),
                Workload::poisson(110_000.0),
                PacketSizes::Fixed(800.0),
                Sla::tight(),
            )
            .build()
            .unwrap();
        scenario.faults = (0..3)
            .map(|vnf| Fault {
                chain: 0,
                vnf,
                from: SimTime::ZERO,
                until: SimTime::from_secs_f64(1e9),
                kind: FaultKind::NoisyNeighbor { factor: 1.3 },
            })
            .collect();
        b.iter(|| {
            scenario
                .run_des(&RunConfig {
                    horizon: SimDuration::from_secs_f64(1.0),
                    window: SimDuration::from_secs_f64(0.25),
                    seed: 1,
                    warmup_windows: 1,
                })
                .unwrap()
        })
    });
    g.bench_function("fluid_eval_demo_scenario", |b| {
        let sc = Scenario::demo(1);
        b.iter(|| sc.evaluate_fluid(SimTime::ZERO, 0.1, 7).unwrap())
    });
    g.bench_function("histogram_record_10k", |b| {
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for i in 0..10_000u64 {
                h.record(SimDuration(1_000 + i * 37));
            }
            h.quantile_secs(0.95)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
