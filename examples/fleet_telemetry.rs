//! Fleet telemetry pipeline: simulate many scenarios, ship the
//! telemetry as compact binary traces, and analyze it on the "other side"
//! — the ingestion path a real monitoring stack would have.
//!
//! Run with: `cargo run --release --example fleet_telemetry`

use nfv_sim::prelude::*;

fn main() {
    // A fleet: eight deployments with different seeds (≈ different sites),
    // loaded progressively harder so the busiest sites cross their knees.
    let jobs: Vec<(Scenario, RunConfig)> = (0..8u64)
        .map(|site| {
            let mut sc = Scenario::demo(site + 1);
            let pressure = 1.0 + site as f64 * 2.0;
            for (wl, _) in &mut sc.workloads {
                match wl {
                    Workload::Poisson(p) => p.rate_pps *= pressure,
                    Workload::Mmpp2(m) => {
                        m.calm_pps *= pressure;
                        m.burst_pps *= pressure;
                    }
                    Workload::Diurnal(d) => d.base_pps *= pressure,
                    Workload::FlashCrowd(f) => f.base_pps *= pressure,
                }
            }
            (
                sc,
                RunConfig {
                    horizon: SimDuration::from_secs_f64(3.0),
                    window: SimDuration::from_secs_f64(0.5),
                    seed: 1000 + site,
                    warmup_windows: 1,
                },
            )
        })
        .collect();

    // Simulate each site in turn (a seed fully determines every run).
    let results = jobs
        .iter()
        .map(|(sc, cfg)| sc.run_des(cfg))
        .collect::<Result<Vec<_>, _>>()
        .expect("fleet simulation");
    println!("simulated {} sites", results.len());

    // Ship each site's telemetry as a binary trace and measure the wire.
    let mut total_binary = 0usize;
    let mut total_windows = 0usize;
    let mut shipped = Vec::new();
    for r in &results {
        let trace = encode_trace(&r.windows);
        total_binary += trace.len();
        total_windows += r.windows.iter().map(Vec::len).sum::<usize>();
        shipped.push(trace);
    }
    println!(
        "shipped {total_windows} windows in {:.1} KiB ({:.0} B/window)",
        total_binary as f64 / 1024.0,
        total_binary as f64 / total_windows as f64
    );

    // Receiver side: decode and compute a fleet-wide SLA summary.
    let sla = Sla::tight();
    println!("\nsite | windows | p95 (worst chain, ms) | violation rate");
    println!("-----+---------+-----------------------+---------------");
    for (site, trace) in shipped.into_iter().enumerate() {
        let windows = decode_trace(trace).expect("trace decodes");
        let n: usize = windows.iter().map(Vec::len).sum();
        let mut worst_p95 = 0.0f64;
        let mut violations = 0usize;
        for chain in &windows {
            for w in chain {
                worst_p95 = worst_p95.max(w.latency.quantile_secs(0.95));
                violations += usize::from(sla.check(w).violated());
            }
        }
        println!(
            "{site:>4} | {n:>7} | {:>21.3} | {:>6.1}%",
            worst_p95 * 1e3,
            100.0 * violations as f64 / n as f64
        );
    }
}
