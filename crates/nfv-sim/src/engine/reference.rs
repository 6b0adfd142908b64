//! The engine's oracle: the binary-heap engine the slot engine replaced,
//! kept verbatim as `reference_run`, and traces pinned from it.

use super::*;
use crate::event::EventQueue;
use crate::faults::{degradation_at, FaultKind};
use crate::placement::PlacementPolicy;
use crate::scenario::{Scenario, ScenarioBuilder};
use crate::vnf::{VnfConfig, VnfKind};
use crate::workload::{Diurnal, FlashCrowd, Mmpp2};
use proptest::prelude::*;

/// One VNF instance's runtime state.
#[derive(Debug)]
struct VnfState {
    queue: VecDeque<Packet>,
    busy: bool,
    /// Host server index.
    server: usize,
    /// Time of the last queue-length change (for queue_area integration).
    last_change: SimTime,
    stats: VnfWindowStats,
    /// Sum and count of interference multipliers sampled at service starts.
    interf_sum: f64,
    interf_n: u64,
}

/// One chain's runtime state.
#[derive(Debug)]
struct ChainState {
    workload: Workload,
    sizes: PacketSizes,
    delivered: u64,
    dropped: u64,
    offered: u64,
    payload_sum: f64,
    latency: LatencyHistogram,
    rng: SimRng,
}

#[derive(Debug)]
enum Event {
    /// Next packet of chain `c` arrives at its first VNF.
    Arrival { c: usize },
    /// Packet finishes service at (`c`, `v`).
    Departure { c: usize, v: usize, pkt: Packet },
    /// Packet reaches the ingress queue of (`c`, `v`) after hop latency.
    Enqueue { c: usize, v: usize, pkt: Packet },
    /// Close the current measurement window.
    WindowTick,
}

impl Engine<'_> {
    /// `Engine::run` as it was before the slot engine, verbatim: the
    /// binary-heap engine.
    pub(super) fn reference_run(mut self, cfg: &RunConfig) -> Result<RunResult, SimError> {
        if cfg.window == SimDuration::ZERO || cfg.horizon == SimDuration::ZERO {
            return Err(SimError::Config("zero window or horizon".into()));
        }
        let mut root = SimRng::new(cfg.seed);
        let mut q: EventQueue<Event> = EventQueue::new();
        let end = SimTime::ZERO + cfg.horizon;

        // Per-chain state.
        let mut chains: Vec<ChainState> = Vec::with_capacity(self.chains.len());
        for (c, (w, s)) in self.workloads.drain(..).enumerate() {
            chains.push(ChainState {
                workload: w,
                sizes: s,
                delivered: 0,
                dropped: 0,
                offered: 0,
                payload_sum: 0.0,
                latency: LatencyHistogram::new(),
                rng: root.fork(c as u64 + 1),
            });
        }

        // Per-chain, per-vnf state.
        let mut vnfs: Vec<Vec<VnfState>> = self
            .chains
            .iter()
            .zip(self.placements)
            .map(|(c, p)| {
                c.vnfs
                    .iter()
                    .zip(&p.servers)
                    .map(|(_, sid)| VnfState {
                        queue: VecDeque::new(),
                        busy: false,
                        server: sid.0,
                        last_change: SimTime::ZERO,
                        stats: VnfWindowStats::default(),
                        interf_sum: 0.0,
                        interf_n: 0,
                    })
                    .collect()
            })
            .collect();

        // Instantaneous busy cores per server (for interference).
        let mut busy_cores = vec![0.0f64; self.servers.len()];

        // Seed initial arrivals and the first window tick.
        for (c, st) in chains.iter_mut().enumerate() {
            let d = st.workload.next_interarrival(SimTime::ZERO, &mut st.rng);
            q.schedule(SimTime::ZERO + d, Event::Arrival { c });
        }
        q.schedule(SimTime::ZERO + cfg.window, Event::WindowTick);

        let mut out: Vec<Vec<WindowSnapshot>> = vec![Vec::new(); self.chains.len()];
        let mut window_start = SimTime::ZERO;
        let mut service_rng = root.fork(0xD15E);

        // Helper: integrate queue area up to `now` for one VNF.
        fn settle(v: &mut VnfState, now: SimTime) {
            let dt = (now - v.last_change).as_secs_f64();
            let in_system = v.queue.len() + usize::from(v.busy);
            v.stats.queue_area += in_system as f64 * dt;
            v.last_change = now;
        }

        while let Some((now, ev)) = q.pop() {
            if now > end {
                break;
            }
            match ev {
                Event::Arrival { c } => {
                    let st = &mut chains[c];
                    let payload = st.sizes.sample(&mut st.rng);
                    st.offered += 1;
                    st.payload_sum += payload;
                    let pkt = Packet {
                        born: now,
                        payload_bytes: payload,
                    };
                    // Schedule the next arrival first (keeps the process
                    // independent of downstream handling).
                    let d = st.workload.next_interarrival(now, &mut st.rng);
                    q.schedule(now + d, Event::Arrival { c });
                    if self.chains[c].vnfs.is_empty() {
                        chains[c].delivered += 1;
                        chains[c].latency.record(SimDuration::ZERO);
                    } else {
                        let hop = SimDuration::from_secs_f64(self.chains[c].hop_latency_s.max(0.0));
                        q.schedule(now + hop, Event::Enqueue { c, v: 0, pkt });
                    }
                }
                Event::Enqueue { c, v, pkt } => {
                    let deg = degradation_at(self.faults, c, v, now);
                    let spec = &self.chains[c].vnfs[v];
                    let cap = ((spec.queue_capacity as f64) * deg.queue_factor).floor() as usize;
                    let vs = &mut vnfs[c][v];
                    settle(vs, now);
                    let in_system = vs.queue.len() + usize::from(vs.busy);
                    if in_system >= cap.max(1) {
                        vs.stats.dropped += 1;
                        chains[c].dropped += 1;
                    } else if vs.busy {
                        vs.queue.push_back(pkt);
                    } else {
                        // Start service immediately.
                        vs.busy = true;
                        let (dur, interf) = self.service_time(
                            c,
                            v,
                            pkt.payload_bytes,
                            now,
                            &busy_cores,
                            &mut service_rng,
                        );
                        let vs = &mut vnfs[c][v];
                        vs.interf_sum += interf;
                        vs.interf_n += 1;
                        vs.stats.busy_secs += dur.as_secs_f64();
                        busy_cores[vs.server] += spec.cpu_share;
                        q.schedule(now + dur, Event::Departure { c, v, pkt });
                    }
                }
                Event::Departure { c, v, pkt } => {
                    let spec = &self.chains[c].vnfs[v];
                    {
                        let vs = &mut vnfs[c][v];
                        settle(vs, now);
                        vs.busy = false;
                        vs.stats.processed += 1;
                        vs.stats.bytes += pkt.payload_bytes;
                        vs.stats.queue_max = vs.stats.queue_max.max(vs.queue.len() + 1);
                        busy_cores[vs.server] -= spec.cpu_share;
                        if busy_cores[vs.server] < 0.0 {
                            busy_cores[vs.server] = 0.0;
                        }
                    }
                    // Pull the next queued packet, if any.
                    if let Some(next) = vnfs[c][v].queue.pop_front() {
                        vnfs[c][v].busy = true;
                        let (dur, interf) = self.service_time(
                            c,
                            v,
                            next.payload_bytes,
                            now,
                            &busy_cores,
                            &mut service_rng,
                        );
                        let vs = &mut vnfs[c][v];
                        vs.interf_sum += interf;
                        vs.interf_n += 1;
                        vs.stats.busy_secs += dur.as_secs_f64();
                        busy_cores[vs.server] += spec.cpu_share;
                        q.schedule(now + dur, Event::Departure { c, v, pkt: next });
                    }
                    // Forward the departing packet.
                    let deg = degradation_at(self.faults, c, v, now);
                    let hop = SimDuration::from_secs_f64(
                        self.chains[c].hop_latency_s.max(0.0) + deg.extra_latency_s,
                    );
                    if v + 1 < self.chains[c].vnfs.len() {
                        q.schedule(now + hop, Event::Enqueue { c, v: v + 1, pkt });
                    } else {
                        let st = &mut chains[c];
                        st.delivered += 1;
                        st.latency.record((now + hop) - pkt.born);
                    }
                }
                Event::WindowTick => {
                    let wlen = (now - window_start).as_secs_f64();
                    for c in 0..self.chains.len() {
                        let st = &mut chains[c];
                        let mut per_vnf = Vec::with_capacity(vnfs[c].len());
                        let mut interference = Vec::with_capacity(vnfs[c].len());
                        for vs in &mut vnfs[c] {
                            settle(vs, now);
                            per_vnf.push(std::mem::take(&mut vs.stats));
                            interference.push(if vs.interf_n == 0 {
                                1.0
                            } else {
                                vs.interf_sum / vs.interf_n as f64
                            });
                            vs.interf_sum = 0.0;
                            vs.interf_n = 0;
                        }
                        let snap = WindowSnapshot {
                            start_s: window_start.as_secs_f64(),
                            window_s: wlen,
                            delivered: st.delivered,
                            dropped: st.dropped,
                            offered_pps: if wlen > 0.0 {
                                st.offered as f64 / wlen
                            } else {
                                0.0
                            },
                            mean_payload_bytes: if st.offered == 0 {
                                0.0
                            } else {
                                st.payload_sum / st.offered as f64
                            },
                            latency: std::mem::take(&mut st.latency),
                            per_vnf,
                            interference,
                        };
                        out[c].push(snap);
                        st.delivered = 0;
                        st.dropped = 0;
                        st.offered = 0;
                        st.payload_sum = 0.0;
                    }
                    window_start = now;
                    if now + cfg.window <= end {
                        q.schedule(now + cfg.window, Event::WindowTick);
                    }
                }
            }
        }

        // Drop warmup windows.
        for w in &mut out {
            let keep = w.len().saturating_sub(cfg.warmup_windows);
            w.drain(..w.len() - keep);
        }
        Ok(RunResult { windows: out })
    }

    /// Samples a service time for (`c`, `v`) serving a `payload_bytes`
    /// packet at `now`, returning the duration and the interference
    /// multiplier that applied.
    fn service_time(
        &self,
        c: usize,
        v: usize,
        payload_bytes: f64,
        now: SimTime,
        busy_cores: &[f64],
        rng: &mut SimRng,
    ) -> (SimDuration, f64) {
        let spec = &self.chains[c].vnfs[v];
        let sid = self.placements[c].servers[v].0;
        let server = &self.servers[sid];
        let deg = degradation_at(self.faults, c, v, now);
        // Neighbour load excludes this VNF's own share.
        let others = (busy_cores[sid]).max(0.0);
        let interf = server.interference(others) * deg.interference_factor;
        let mut eff = spec.clone();
        eff.cpu_share = spec.cpu_share * deg.cpu_factor;
        let secs = eff.sample_service_secs(payload_bytes, server.core_ghz, interf, rng);
        (SimDuration::from_secs_f64(secs.max(1e-9)), interf)
    }
}

/// FNV-1a over the trace codec's bytes, which carry every field of every
/// window bit for bit.
fn checksum(r: &RunResult) -> u64 {
    crate::trace::encode_trace(&r.windows)
        .as_ref()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn at(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn cfg(horizon: f64, window: f64, seed: u64) -> RunConfig {
    RunConfig {
        horizon: secs(horizon),
        window: secs(window),
        seed,
        warmup_windows: 1,
    }
}

fn fault(chain: usize, vnf: usize, from: f64, until: f64, kind: FaultKind) -> Fault {
    Fault {
        chain,
        vnf,
        from: at(from),
        until: at(until),
        kind,
    }
}

/// The demo (Mmpp2 and Poisson, Imix, 5 chains on 4 servers) with its
/// `CpuThrottle` window moved inside the horizon.
fn demo() -> (Scenario, RunConfig) {
    let mut sc = Scenario::demo(3);
    sc.faults[0].from = at(0.1);
    sc.faults[0].until = at(0.3);
    (sc, cfg(0.5, 0.125, 77))
}

/// Time-varying arrivals and heavy-tailed sizes, two chains sharing servers.
fn arrivals_and_sizes() -> (Scenario, RunConfig) {
    let sc = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            ChainSpec::of_kinds("diurnal", &[VnfKind::Firewall, VnfKind::Ids]),
            Workload::Diurnal(Diurnal {
                base_pps: 60_000.0,
                amplitude: 0.8,
                period_s: 0.2,
            }),
            PacketSizes::Pareto {
                alpha: 1.3,
                lo: 64.0,
                hi: 1500.0,
            },
            Sla::tight(),
        )
        .chain(
            ChainSpec::of_kinds("flash", &[VnfKind::Nat, VnfKind::Router]),
            Workload::FlashCrowd(FlashCrowd {
                base_pps: 30_000.0,
                spike_factor: 6.0,
                spike_start: at(0.1),
                spike_len: secs(0.1),
            }),
            PacketSizes::Imix,
            Sla::relaxed(),
        )
        .build()
        .unwrap();
    (sc, cfg(0.4, 0.1, 5))
}

/// Every fault kind on one chain: a `LinkDegrade` on VNF 0 that ends while
/// slow packets are still on the link (later pushes overtake them), a
/// `MemoryLeak` and a `CpuThrottle` overlapping on VNF 1 (drops while the
/// queue shrinks), a `NoisyNeighbor` on VNF 2.
fn every_fault() -> (Scenario, RunConfig) {
    let mut sc = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            ChainSpec::of_kinds(
                "faulted",
                &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
            ),
            Workload::poisson(150_000.0),
            PacketSizes::Fixed(600.0),
            Sla::tight(),
        )
        .build()
        .unwrap();
    sc.faults = vec![
        fault(
            0,
            0,
            0.0,
            0.15,
            FaultKind::LinkDegrade {
                extra_latency_s: 200e-6,
            },
        ),
        fault(
            0,
            1,
            0.05,
            0.3,
            FaultKind::MemoryLeak {
                floor_fraction: 0.05,
            },
        ),
        fault(0, 1, 0.1, 0.25, FaultKind::CpuThrottle { factor: 0.2 }),
        fault(0, 2, 0.0, 1.0, FaultKind::NoisyNeighbor { factor: 1.4 }),
    ];
    (sc, cfg(0.4, 0.1, 9))
}

/// Zero hop latency (an arrival and its ingress share an instant, so ties
/// fall to the scheduling order) beside a chain with no VNFs.
fn ties_and_empty_chain() -> (Scenario, RunConfig) {
    let mut zero_hop = ChainSpec::of_kinds("zero-hop", &[VnfKind::Router, VnfKind::Nat]);
    zero_hop.hop_latency_s = 0.0;
    let empty = ChainSpec {
        name: "empty".into(),
        vnfs: vec![],
        hop_latency_s: 30e-6,
    };
    let sc = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            zero_hop,
            Workload::poisson(200_000.0),
            PacketSizes::Fixed(64.0),
            Sla::tight(),
        )
        .chain(
            empty,
            Workload::poisson(50_000.0),
            PacketSizes::Imix,
            Sla::tight(),
        )
        .build()
        .unwrap();
    (sc, cfg(0.3, 0.1, 11))
}

/// A DPI stage offered three times its capacity behind a short queue.
fn overload() -> (Scenario, RunConfig) {
    let mut chain = ChainSpec::of_kinds("overload", &[VnfKind::Dpi]);
    chain.vnfs[0].queue_capacity = 64;
    let ms = VnfConfig::standard(VnfKind::Dpi).mean_service_secs(500.0, 2.6, 1.0);
    let sc = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            chain,
            Workload::poisson(3.0 / ms),
            PacketSizes::Fixed(500.0),
            Sla::tight(),
        )
        .build()
        .unwrap();
    (sc, cfg(0.2, 0.05, 13))
}

/// Builds a pinned scenario and the run configuration it is pinned under.
type Case = fn() -> (Scenario, RunConfig);

/// Checksums of these scenarios' `RunResult`s, captured from the
/// binary-heap engine at `abf51c5` before the slot engine replaced it.
const PINNED: [(&str, Case, u64); 5] = [
    ("demo", demo, 0x98ca_81fd_d082_adea),
    (
        "arrivals_and_sizes",
        arrivals_and_sizes,
        0x076e_98ac_365c_21c0,
    ),
    ("every_fault", every_fault, 0xcaec_5658_59e2_3186),
    (
        "ties_and_empty_chain",
        ties_and_empty_chain,
        0x9300_5670_4b3a_245b,
    ),
    ("overload", overload, 0x60c1_e6fa_3038_8c68),
];

/// Runs `sc` on the slot engine and on the reference.
fn both(sc: &Scenario, cfg: &RunConfig) -> (RunResult, RunResult) {
    let placements = sc.place().unwrap();
    let engine = || {
        Engine::new(
            &sc.chains,
            &placements,
            &sc.servers,
            sc.workloads.clone(),
            &sc.faults,
        )
        .unwrap()
    };
    (
        engine().run(cfg).unwrap(),
        engine().reference_run(cfg).unwrap(),
    )
}

#[test]
fn traces_match_the_checksums_pinned_at_the_heap_engine() {
    let mut got = Vec::new();
    for (name, build, _) in PINNED {
        let (sc, cfg) = build();
        let (run, reference) = both(&sc, &cfg);
        got.push((name, checksum(&run), checksum(&reference)));
    }
    let want: Vec<_> = PINNED.iter().map(|&(n, _, c)| (n, c, c)).collect();
    assert_eq!(got, want, "(scenario, slot engine, reference)");
}

#[test]
fn pinned_scenarios_reach_the_branches_they_are_named_for() {
    let dropped_at = |build: Case, v: usize| {
        let (sc, cfg) = build();
        let run = sc.run_des(&cfg).unwrap();
        run.windows[0]
            .iter()
            .map(|w| w.per_vnf[v].dropped)
            .sum::<u64>()
    };
    assert!(dropped_at(every_fault, 1) > 0, "leak + throttle drop");
    assert!(dropped_at(overload, 0) > 0, "overload drops");
    let (sc, cfg) = ties_and_empty_chain();
    let empty = &sc.run_des(&cfg).unwrap().windows[1];
    assert!(empty.iter().all(|w| w.latency.quantile_secs(1.0) == 0.0));
    assert!(empty.iter().map(|w| w.delivered).sum::<u64>() > 0);
}

/// A random scenario: 1–3 chains of 0–4 VNFs on 2–3 servers, every arrival
/// process and size model, zero and nonzero hops, queues down to 2 slots,
/// and 0–4 faults of every kind whose windows open before, during or after
/// the run and may outlast it.
fn random_case(seed: u64) -> (Scenario, RunConfig) {
    let mut rng = SimRng::new(seed);
    let horizon = rng.uniform(0.01, 0.04);
    let mut b = ScenarioBuilder::new().servers(2 + rng.below(2) as usize, ServerSpec::standard());
    let n_chains = 1 + rng.below(3) as usize;
    for _ in 0..n_chains {
        let kinds: Vec<VnfKind> = (0..rng.below(5))
            .map(|_| VnfKind::ALL[rng.below(10) as usize])
            .collect();
        let mut chain = ChainSpec::of_kinds("random", &kinds);
        chain.hop_latency_s = match rng.below(3) {
            0 => 0.0,
            1 => 30e-6,
            _ => rng.uniform(0.0, 100e-6),
        };
        for v in &mut chain.vnfs {
            v.cpu_share = rng.uniform(0.2, 1.5);
            v.queue_capacity = [2, 16, 512][rng.below(3) as usize];
        }
        let rate = rng.uniform(5_000.0, 150_000.0);
        let workload = match rng.below(4) {
            0 => Workload::poisson(rate),
            1 => Workload::Mmpp2(Mmpp2::new(rate, 4.0 * rate, horizon / 4.0, horizon / 8.0)),
            2 => Workload::Diurnal(Diurnal {
                base_pps: rate,
                amplitude: 0.9,
                period_s: horizon / 2.0,
            }),
            _ => Workload::FlashCrowd(FlashCrowd {
                base_pps: rate,
                spike_factor: 5.0,
                spike_start: at(rng.uniform(0.0, horizon)),
                spike_len: secs(horizon / 4.0),
            }),
        };
        let sizes = match rng.below(3) {
            0 => PacketSizes::Imix,
            1 => PacketSizes::Pareto {
                alpha: rng.uniform(1.1, 2.0),
                lo: 64.0,
                hi: 1500.0,
            },
            _ => PacketSizes::Fixed(rng.uniform(64.0, 1500.0)),
        };
        b = b.chain(chain, workload, sizes, Sla::tight());
    }
    let mut sc = b.build().unwrap();
    sc.policy = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::WorstFit,
        PlacementPolicy::RoundRobin,
    ][rng.below(3) as usize];
    for _ in 0..rng.below(5) {
        let chain = rng.below(n_chains as u64) as usize;
        let Some(vnf) = rng.index(sc.chains[chain].vnfs.len()) else {
            continue;
        };
        let from = horizon * rng.uniform(-0.2, 1.0);
        let until = from + horizon * rng.uniform(0.05, 1.0);
        let kind = match rng.below(4) {
            0 => FaultKind::CpuThrottle {
                factor: rng.uniform(0.1, 1.0),
            },
            1 => FaultKind::NoisyNeighbor {
                factor: rng.uniform(1.0, 3.0),
            },
            2 => FaultKind::MemoryLeak {
                floor_fraction: rng.uniform(0.01, 1.0),
            },
            _ => FaultKind::LinkDegrade {
                extra_latency_s: rng.uniform(0.0, 500e-6),
            },
        };
        sc.faults.push(fault(chain, vnf, from, until, kind));
    }
    let cfg = RunConfig {
        horizon: secs(horizon),
        window: secs(horizon / (2 + rng.below(4)) as f64),
        seed: rng.next_u64(),
        warmup_windows: rng.below(3) as usize,
    };
    (sc, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slot_engine_replays_the_heap_engine_bit_for_bit(seed in 0u64..u64::MAX) {
        let (sc, cfg) = random_case(seed);
        let (run, reference) = both(&sc, &cfg);
        prop_assert_eq!(checksum(&run), checksum(&reference), "case seed {}", seed);
    }
}
