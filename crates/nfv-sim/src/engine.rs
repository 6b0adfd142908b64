//! The discrete-event simulation engine.
//!
//! Every VNF instance is a FIFO single-server queue whose service rate comes
//! from its CPU share on its host (scaled down by faults), and whose service
//! times are inflated by an interference multiplier computed from the cores
//! *currently busy* on the same host — so co-location hurts exactly when
//! neighbours are actually working, the dynamic the ML model has to learn.
//!
//! The future-event list is one slot per event source, not a heap: a chain
//! always has exactly one arrival pending, the window tick is one event, a
//! single-server VNF has at most one departure pending, and the packets on
//! the link into a VNF wait in arrival order in that link's pipe. Each slot
//! holds the `(at, seq)` key of its earliest event and the next event is the
//! least key, so events fire in the order of [`crate::event::EventQueue`]:
//! by instant, ties by scheduling order. A chain's slots sit side by side
//! and only its own events write them, so each chain keeps its least key
//! and the search runs over those and the tick (DESIGN §18).

use crate::chain::{ChainPlacement, ChainSpec};
use crate::faults::{Degradation, Fault};
use crate::rng::SimRng;
use crate::server::ServerSpec;
use crate::sla::Sla;
use crate::telemetry::{LatencyHistogram, VnfWindowStats, WindowSnapshot};
use crate::time::{SimDuration, SimTime};
use crate::vnf::VnfConfig;
use crate::workload::{ArrivalProcess, PacketSizes, Workload};
use crate::SimError;
use std::collections::VecDeque;
use std::ops::Range;

/// A packet in flight through a chain.
#[derive(Debug, Clone, Copy)]
struct Packet {
    born: SimTime,
    payload_bytes: f64,
}

/// The key of a slot with nothing pending: later than any event.
const IDLE: u128 = u128::MAX;

/// The window tick's slot.
const TICK: usize = 0;

/// One VNF instance: what the run fixes about it, its runtime state, and
/// the link into it.
#[derive(Debug)]
struct VnfState {
    spec: VnfConfig,
    chain: usize,
    /// Host server index.
    server: usize,
    /// The slot of its departure; the next slot keys its link's head.
    slot: usize,
    /// The scenario's faults that target this VNF, in scenario order.
    faults: Vec<Fault>,
    /// Packets on the link into this VNF, in key order.
    link: VecDeque<(u128, Packet)>,
    queue: VecDeque<Packet>,
    /// The packet in service; `Some` while the server is busy.
    serving: Option<Packet>,
    /// Time of the last queue-length change (for queue_area integration).
    last_change: SimTime,
    stats: VnfWindowStats,
    /// Sum and count of interference multipliers sampled at service starts.
    interf_sum: f64,
    interf_n: u64,
}

impl VnfState {
    fn degradation(&self, now: SimTime) -> Degradation {
        Degradation::fold(&self.faults, now)
    }

    /// Integrates the queue area up to `now`.
    fn settle(&mut self, now: SimTime) {
        let dt = (now - self.last_change).as_secs_f64();
        let in_system = self.queue.len() + usize::from(self.serving.is_some());
        self.stats.queue_area += in_system as f64 * dt;
        self.last_change = now;
    }
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
    /// Flat indices of the chain's VNFs, in chain order.
    vnfs: Range<usize>,
    /// The chain's slots: its arrival, then each VNF's departure and link.
    slots: Range<usize>,
    /// Hop latency, s, floored at zero, and rounded to a duration.
    hop_s: f64,
    hop: SimDuration,
}

/// Configuration of one engine run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Total simulated time.
    pub horizon: SimDuration,
    /// Measurement window length.
    pub window: SimDuration,
    /// Root RNG seed.
    pub seed: u64,
    /// Initial warmup to discard, as a number of windows.
    pub warmup_windows: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            horizon: SimDuration::from_secs_f64(10.0),
            window: SimDuration::from_secs_f64(1.0),
            seed: 1,
            warmup_windows: 1,
        }
    }
}

/// Result of a run: per-chain, per-window telemetry.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `windows[c]` holds the snapshots of chain `c` in time order.
    pub windows: Vec<Vec<WindowSnapshot>>,
}

impl RunResult {
    /// Fraction of windows of chain `c` violating `sla`.
    pub fn violation_rate(&self, c: usize, sla: &Sla) -> f64 {
        let Some(w) = self.windows.get(c) else {
            return 0.0;
        };
        if w.is_empty() {
            return 0.0;
        }
        let v = w.iter().filter(|s| sla.check(s).violated()).count();
        v as f64 / w.len() as f64
    }
}

/// The engine. Construct with [`Engine::new`], then [`Engine::run`].
pub struct Engine<'a> {
    chains: &'a [ChainSpec],
    placements: &'a [ChainPlacement],
    servers: &'a [ServerSpec],
    workloads: Vec<(Workload, PacketSizes)>,
    faults: &'a [Fault],
}

impl<'a> Engine<'a> {
    /// Validates shapes and builds an engine.
    ///
    /// `workloads[c]` drives `chains[c]`; `placements[c].servers` must be the
    /// same length as `chains[c].vnfs` and reference servers in range.
    pub fn new(
        chains: &'a [ChainSpec],
        placements: &'a [ChainPlacement],
        servers: &'a [ServerSpec],
        workloads: Vec<(Workload, PacketSizes)>,
        faults: &'a [Fault],
    ) -> Result<Self, SimError> {
        if chains.len() != placements.len() || chains.len() != workloads.len() {
            return Err(SimError::Config(format!(
                "shape mismatch: {} chains, {} placements, {} workloads",
                chains.len(),
                placements.len(),
                workloads.len()
            )));
        }
        for (i, (c, p)) in chains.iter().zip(placements).enumerate() {
            if c.vnfs.len() != p.servers.len() {
                return Err(SimError::Config(format!(
                    "chain {i}: {} vnfs but {} placed",
                    c.vnfs.len(),
                    p.servers.len()
                )));
            }
            if let Some(bad) = p.servers.iter().find(|s| s.0 >= servers.len()) {
                return Err(SimError::Config(format!(
                    "chain {i} references server {} of {}",
                    bad.0,
                    servers.len()
                )));
            }
        }
        Ok(Self {
            chains,
            placements,
            servers,
            workloads,
            faults,
        })
    }

    /// Runs the simulation to the horizon, returning windowed telemetry
    /// (with warmup windows discarded).
    pub fn run(mut self, cfg: &RunConfig) -> Result<RunResult, SimError> {
        if cfg.window == SimDuration::ZERO || cfg.horizon == SimDuration::ZERO {
            return Err(SimError::Config("zero window or horizon".into()));
        }
        let mut root = SimRng::new(cfg.seed);

        // Per-chain state, every chain's VNFs in one flat array, and the
        // slots: the window tick, then each chain's, side by side.
        let mut chains = Vec::with_capacity(self.chains.len());
        let mut vnfs = Vec::new();
        let mut n_slots = TICK + 1;
        for (c, (w, s)) in self.workloads.drain(..).enumerate() {
            let spec = &self.chains[c];
            let (first, arrival) = (vnfs.len(), n_slots);
            n_slots += 1 + 2 * spec.vnfs.len();
            for (v, (vnf, sid)) in spec
                .vnfs
                .iter()
                .zip(&self.placements[c].servers)
                .enumerate()
            {
                vnfs.push(VnfState {
                    spec: vnf.clone(),
                    chain: c,
                    server: sid.0,
                    slot: arrival + 1 + 2 * v,
                    faults: self
                        .faults
                        .iter()
                        .filter(|f| f.chain == c && f.vnf == v)
                        .cloned()
                        .collect(),
                    link: VecDeque::new(),
                    queue: VecDeque::new(),
                    serving: None,
                    last_change: SimTime::ZERO,
                    stats: VnfWindowStats::default(),
                    interf_sum: 0.0,
                    interf_n: 0,
                });
            }
            let hop_s = spec.hop_latency_s.max(0.0);
            chains.push(ChainState {
                workload: w,
                sizes: s,
                delivered: 0,
                dropped: 0,
                offered: 0,
                payload_sum: 0.0,
                latency: LatencyHistogram::new(),
                rng: root.fork(c as u64 + 1),
                vnfs: first..vnfs.len(),
                slots: arrival..n_slots,
                hop_s,
                hop: SimDuration::from_secs_f64(hop_s),
            });
        }

        let mut run = Run {
            servers: self.servers,
            busy_cores: vec![0.0; self.servers.len()],
            out: vec![Vec::new(); chains.len()],
            chains,
            vnfs,
            keys: vec![IDLE; n_slots],
            heads: Vec::with_capacity(self.chains.len()),
            next_seq: 0,
            now: SimTime::ZERO,
            window: cfg.window,
            end: SimTime::ZERO + cfg.horizon,
            window_start: SimTime::ZERO,
            service_rng: root.fork(0xD15E),
        };

        // Seed initial arrivals and the first window tick.
        for c in 0..run.chains.len() {
            let st = &mut run.chains[c];
            let d = st.workload.next_interarrival(SimTime::ZERO, &mut st.rng);
            let slot = st.slots.start;
            run.keys[slot] = run.stamp(SimTime::ZERO + d);
            run.heads.push((run.keys[slot], slot));
        }
        run.keys[TICK] = run.stamp(SimTime::ZERO + cfg.window);

        loop {
            let (chain, key) = run.next();
            let now = SimTime((key >> 64) as u64);
            if key == IDLE || now > run.end {
                break;
            }
            run.now = now;
            let Some(c) = chain else {
                run.tick();
                continue;
            };
            // A slot's place in its chain's block is its event's kind.
            let st = &run.chains[c];
            match run.heads[c].1 - st.slots.start {
                0 => run.arrival(c),
                at => {
                    let f = st.vnfs.start + (at - 1) / 2;
                    if at % 2 == 1 {
                        run.departure(f);
                    } else {
                        run.ingress(f);
                    }
                }
            }
            run.refresh(c);
        }

        // Drop warmup windows.
        let mut out = run.out;
        for w in &mut out {
            let keep = w.len().saturating_sub(cfg.warmup_windows);
            w.drain(..w.len() - keep);
        }
        Ok(RunResult { windows: out })
    }
}

/// A run in progress: the slot keys and the state their events touch.
struct Run<'a> {
    servers: &'a [ServerSpec],
    chains: Vec<ChainState>,
    vnfs: Vec<VnfState>,
    /// One key per slot, [`IDLE`] when empty: the window tick, then per
    /// chain its arrival and, per VNF, its departure and its link's head.
    keys: Vec<u128>,
    /// Each chain's least key and that key's slot.
    heads: Vec<(u128, usize)>,
    next_seq: u64,
    now: SimTime,
    /// Instantaneous busy cores per server (for interference).
    busy_cores: Vec<f64>,
    service_rng: SimRng,
    window: SimDuration,
    end: SimTime,
    window_start: SimTime,
    out: Vec<Vec<WindowSnapshot>>,
}

impl Run<'_> {
    /// The key of an event scheduled now for `at`: the instant, clamped to
    /// the present, then the scheduling sequence number.
    fn stamp(&mut self, at: SimTime) -> u128 {
        let seq = self.next_seq;
        self.next_seq += 1;
        (u128::from(at.max(self.now).0) << 64) | u128::from(seq)
    }

    /// The least key and its chain, or `None` for the window tick.
    fn next(&self) -> (Option<usize>, u128) {
        let mut best = (None, self.keys[TICK]);
        for (c, &(key, _)) in self.heads.iter().enumerate() {
            if key < best.1 {
                best = (Some(c), key);
            }
        }
        best
    }

    /// Recomputes chain `c`'s head after one of its events: only a chain's
    /// own events schedule into its slots.
    fn refresh(&mut self, c: usize) {
        let slots = self.chains[c].slots.clone();
        let mut head = (IDLE, slots.start);
        for (slot, &key) in slots.clone().zip(&self.keys[slots]) {
            if key < head.0 {
                head = (key, slot);
            }
        }
        self.heads[c] = head;
    }

    /// Next packet of chain `c` arrives at its first VNF.
    fn arrival(&mut self, c: usize) {
        let now = self.now;
        let st = &mut self.chains[c];
        let payload = st.sizes.sample(&mut st.rng);
        st.offered += 1;
        st.payload_sum += payload;
        let pkt = Packet {
            born: now,
            payload_bytes: payload,
        };
        // Schedule the next arrival first (keeps the process independent of
        // downstream handling).
        let d = st.workload.next_interarrival(now, &mut st.rng);
        let slot = st.slots.start;
        self.keys[slot] = self.stamp(now + d);
        let st = &mut self.chains[c];
        if st.vnfs.is_empty() {
            st.delivered += 1;
            st.latency.record(SimDuration::ZERO);
        } else {
            let (first, hop) = (st.vnfs.start, st.hop);
            self.send(first, now + hop, pkt);
        }
    }

    /// Puts `pkt` on the link into VNF `f`, to arrive at `at`.
    fn send(&mut self, f: usize, at: SimTime, pkt: Packet) {
        let key = self.stamp(at);
        let vs = &mut self.vnfs[f];
        let (slot, link) = (vs.slot + 1, &mut vs.link);
        match link.back() {
            // Only a `LinkDegrade` ending upstream makes a packet overtake
            // the ones already on the link.
            Some(&(tail, _)) if key < tail => {
                let i = link.partition_point(|&(k, _)| k < key);
                link.insert(i, (key, pkt));
            }
            _ => link.push_back((key, pkt)),
        }
        self.keys[slot] = link[0].0;
    }

    /// The packet at the head of VNF `f`'s link reaches its ingress queue.
    fn ingress(&mut self, f: usize) {
        let now = self.now;
        let vs = &mut self.vnfs[f];
        let (_, pkt) = vs.link.pop_front().expect("a link's slot keys its head");
        self.keys[vs.slot + 1] = vs.link.front().map_or(IDLE, |&(key, _)| key);
        let deg = vs.degradation(now);
        let cap = ((vs.spec.queue_capacity as f64) * deg.queue_factor).floor() as usize;
        vs.settle(now);
        let in_system = vs.queue.len() + usize::from(vs.serving.is_some());
        if in_system >= cap.max(1) {
            vs.stats.dropped += 1;
            self.chains[vs.chain].dropped += 1;
        } else if vs.serving.is_some() {
            vs.queue.push_back(pkt);
        } else {
            self.serve(f, pkt, &deg);
        }
    }

    /// VNF `f` finishes the packet in service, starts the next queued one,
    /// and forwards the finished one to the next VNF or out of the chain.
    fn departure(&mut self, f: usize) {
        let now = self.now;
        let vs = &mut self.vnfs[f];
        self.keys[vs.slot] = IDLE;
        vs.settle(now);
        let pkt = vs
            .serving
            .take()
            .expect("a departure's slot holds its packet");
        vs.stats.processed += 1;
        vs.stats.bytes += pkt.payload_bytes;
        vs.stats.queue_max = vs.stats.queue_max.max(vs.queue.len() + 1);
        let cores = &mut self.busy_cores[vs.server];
        *cores -= vs.spec.cpu_share;
        if *cores < 0.0 {
            *cores = 0.0;
        }
        let (c, deg) = (vs.chain, vs.degradation(now));
        if let Some(next) = vs.queue.pop_front() {
            self.serve(f, next, &deg);
        }
        let st = &mut self.chains[c];
        let hop = if deg.extra_latency_s == 0.0 {
            st.hop
        } else {
            SimDuration::from_secs_f64(st.hop_s + deg.extra_latency_s)
        };
        if f + 1 == st.vnfs.end {
            st.delivered += 1;
            st.latency.record((now + hop) - pkt.born);
        } else {
            self.send(f + 1, now + hop, pkt);
        }
    }

    /// Starts serving `pkt` at VNF `f`, whose degradation is `deg`.
    fn serve(&mut self, f: usize, pkt: Packet, deg: &Degradation) {
        let vs = &mut self.vnfs[f];
        let (dur, interf) = service_time(
            &vs.spec,
            &self.servers[vs.server],
            pkt.payload_bytes,
            deg,
            self.busy_cores[vs.server],
            &mut self.service_rng,
        );
        vs.serving = Some(pkt);
        vs.interf_sum += interf;
        vs.interf_n += 1;
        vs.stats.busy_secs += dur.as_secs_f64();
        self.busy_cores[vs.server] += vs.spec.cpu_share;
        let slot = vs.slot;
        self.keys[slot] = self.stamp(self.now + dur);
    }

    /// Closes the current measurement window of every chain.
    fn tick(&mut self) {
        let now = self.now;
        let wlen = (now - self.window_start).as_secs_f64();
        for (st, out) in self.chains.iter_mut().zip(&mut self.out) {
            let vnfs = &mut self.vnfs[st.vnfs.clone()];
            let mut per_vnf = Vec::with_capacity(vnfs.len());
            let mut interference = Vec::with_capacity(vnfs.len());
            for vs in vnfs {
                vs.settle(now);
                per_vnf.push(std::mem::take(&mut vs.stats));
                interference.push(if vs.interf_n == 0 {
                    1.0
                } else {
                    vs.interf_sum / vs.interf_n as f64
                });
                vs.interf_sum = 0.0;
                vs.interf_n = 0;
            }
            out.push(WindowSnapshot {
                start_s: self.window_start.as_secs_f64(),
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
            });
            st.delivered = 0;
            st.dropped = 0;
            st.offered = 0;
            st.payload_sum = 0.0;
        }
        self.window_start = now;
        self.keys[TICK] = if now + self.window <= self.end {
            self.stamp(now + self.window)
        } else {
            IDLE
        };
    }
}

/// Samples a service time for a VNF configured as `spec` on `server`,
/// serving a `payload_bytes` packet under `deg` while `busy_cores` cores of
/// the server are busy, returning the duration and the interference
/// multiplier that applied.
fn service_time(
    spec: &VnfConfig,
    server: &ServerSpec,
    payload_bytes: f64,
    deg: &Degradation,
    busy_cores: f64,
    rng: &mut SimRng,
) -> (SimDuration, f64) {
    // Neighbour load excludes this VNF's own share.
    let interf = server.interference(busy_cores.max(0.0)) * deg.interference_factor;
    let eff = VnfConfig {
        cpu_share: spec.cpu_share * deg.cpu_factor,
        ..*spec
    };
    let secs = eff.sample_service_secs(payload_bytes, server.core_ghz, interf, rng);
    (SimDuration::from_secs_f64(secs.max(1e-9)), interf)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place, PlacementPolicy};
    use crate::vnf::{VnfConfig, VnfKind};

    fn single_chain_setup(
        rate: f64,
        kinds: &[VnfKind],
    ) -> (Vec<ChainSpec>, Vec<ChainPlacement>, Vec<ServerSpec>) {
        let chains = vec![ChainSpec::of_kinds("t", kinds)];
        let servers = vec![ServerSpec::standard()];
        let placements = place(&chains, &servers, PlacementPolicy::FirstFit, 0).unwrap();
        let _ = rate;
        (chains, placements, servers)
    }

    fn run_one(rate: f64, kinds: &[VnfKind], seed: u64) -> RunResult {
        run_with(
            rate,
            kinds,
            &RunConfig {
                horizon: SimDuration::from_secs_f64(6.0),
                window: SimDuration::from_secs_f64(1.0),
                seed,
                warmup_windows: 1,
            },
        )
    }

    fn run_with(rate: f64, kinds: &[VnfKind], cfg: &RunConfig) -> RunResult {
        let (chains, placements, servers) = single_chain_setup(rate, kinds);
        let wl = vec![(Workload::poisson(rate), PacketSizes::Fixed(500.0))];
        let eng = Engine::new(&chains, &placements, &servers, wl, &[]).unwrap();
        eng.run(cfg).unwrap()
    }

    #[test]
    fn light_load_delivers_everything() {
        let r = run_one(2_000.0, &[VnfKind::Firewall, VnfKind::Router], 1);
        let total_drop: u64 = r.windows[0].iter().map(|w| w.dropped).sum();
        let total_del: u64 = r.windows[0].iter().map(|w| w.delivered).sum();
        assert_eq!(total_drop, 0);
        assert!(total_del > 8_000, "delivered {total_del}");
    }

    #[test]
    fn latency_matches_mg1_at_moderate_load() {
        // Single firewall VNF: mean service at 500B on 2.6GHz ≈ 350/2.6e9 s.
        let spec = VnfConfig::standard(VnfKind::Firewall);
        let ms = spec.mean_service_secs(500.0, 2.6, 1.0);
        let mu = 1.0 / ms;
        let lambda = 0.7 * mu; // ρ = 0.7 — heavy enough to queue visibly
        let cfg = RunConfig {
            horizon: SimDuration::from_secs_f64(0.25),
            window: SimDuration::from_secs_f64(0.25 / 8.0),
            seed: 2,
            warmup_windows: 2,
        };
        let r = run_with(lambda, &[VnfKind::Firewall], &cfg);
        let mut h = LatencyHistogram::new();
        for w in &r.windows[0] {
            h.merge(&w.latency);
        }
        // The VNF's sojourn: end-to-end minus the ingress and egress hops.
        let measured = h.mean_secs() - 2.0 * 30e-6;
        let expect = crate::queueing::mg1_mean_sojourn(lambda, ms, VnfKind::Firewall.service_cv());
        assert!(
            (measured / expect - 1.0).abs() < 0.15,
            "measured={measured:e} expect={expect:e}"
        );
    }

    #[test]
    fn overload_drops_and_saturates_cpu() {
        let spec = VnfConfig::standard(VnfKind::Dpi);
        let ms = spec.mean_service_secs(500.0, 2.6, 1.0);
        let lambda = 3.0 / ms; // 3× capacity
        let r = run_one(lambda, &[VnfKind::Dpi], 3);
        let last = r.windows[0].last().unwrap();
        assert!(last.drop_rate() > 0.4, "drop={}", last.drop_rate());
        let cpu = last.per_vnf[0].cpu_utilization(last.window_s);
        assert!(cpu > 0.9, "cpu={cpu}");
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let a = run_one(5_000.0, &[VnfKind::Firewall, VnfKind::Ids], 42);
        let b = run_one(5_000.0, &[VnfKind::Firewall, VnfKind::Ids], 42);
        assert_eq!(a.windows, b.windows);
        let c = run_one(5_000.0, &[VnfKind::Firewall, VnfKind::Ids], 43);
        assert_ne!(a.windows, c.windows, "different seed, different trace");
    }

    #[test]
    fn cpu_throttle_fault_raises_latency() {
        let (chains, placements, servers) =
            single_chain_setup(0.0, &[VnfKind::Firewall, VnfKind::Ids]);
        let wl = |_: ()| vec![(Workload::poisson(120_000.0), PacketSizes::Fixed(600.0))];
        let no_fault = Engine::new(&chains, &placements, &servers, wl(()), &[])
            .unwrap()
            .run(&RunConfig {
                horizon: SimDuration::from_secs_f64(4.0),
                window: SimDuration::from_secs_f64(1.0),
                seed: 9,
                warmup_windows: 1,
            })
            .unwrap();
        let faults = vec![Fault {
            chain: 0,
            vnf: 1,
            from: SimTime::ZERO,
            until: SimTime::from_secs_f64(100.0),
            kind: crate::faults::FaultKind::CpuThrottle { factor: 0.15 },
        }];
        let faulted = Engine::new(&chains, &placements, &servers, wl(()), &faults)
            .unwrap()
            .run(&RunConfig {
                horizon: SimDuration::from_secs_f64(4.0),
                window: SimDuration::from_secs_f64(1.0),
                seed: 9,
                warmup_windows: 1,
            })
            .unwrap();
        let p95 = |r: &RunResult| {
            let mut h = LatencyHistogram::new();
            for w in &r.windows[0] {
                h.merge(&w.latency);
            }
            h.quantile_secs(0.95)
        };
        assert!(
            p95(&faulted) > 2.0 * p95(&no_fault),
            "faulted {} vs clean {}",
            p95(&faulted),
            p95(&no_fault)
        );
    }

    #[test]
    fn link_degrade_delays_the_hop_out_of_its_vnf() {
        let (chains, placements, servers) =
            single_chain_setup(0.0, &[VnfKind::Firewall, VnfKind::Router]);
        let p50 = |faults: &[Fault]| {
            let wl = vec![(Workload::poisson(20_000.0), PacketSizes::Fixed(500.0))];
            let r = Engine::new(&chains, &placements, &servers, wl, faults)
                .unwrap()
                .run(&RunConfig {
                    horizon: SimDuration::from_secs_f64(0.5),
                    window: SimDuration::from_secs_f64(0.125),
                    seed: 4,
                    warmup_windows: 1,
                })
                .unwrap();
            let mut h = LatencyHistogram::new();
            for w in &r.windows[0] {
                h.merge(&w.latency);
            }
            h.quantile_secs(0.5)
        };
        let extra = 500e-6;
        let clean = p50(&[]);
        let degraded = p50(&[Fault {
            chain: 0,
            vnf: 0,
            from: SimTime::ZERO,
            until: SimTime::from_secs_f64(100.0),
            kind: crate::faults::FaultKind::LinkDegrade {
                extra_latency_s: extra,
            },
        }]);
        assert!(
            ((degraded - clean) / extra - 1.0).abs() < 0.1,
            "p50 {clean:e} s clean, {degraded:e} s with {extra:e} s on the link"
        );
    }

    #[test]
    fn memory_leak_drops_more_as_the_queue_shrinks() {
        let (mut chains, placements, servers) = single_chain_setup(0.0, &[VnfKind::Dpi]);
        chains[0].vnfs[0].queue_capacity = 64;
        let ms = VnfConfig::standard(VnfKind::Dpi).mean_service_secs(500.0, 2.6, 1.0);
        let drop_rates = |faults: &[Fault]| {
            let wl = vec![(Workload::poisson(0.9 / ms), PacketSizes::Fixed(500.0))];
            let r = Engine::new(&chains, &placements, &servers, wl, faults)
                .unwrap()
                .run(&RunConfig {
                    horizon: SimDuration::from_secs_f64(0.5),
                    window: SimDuration::from_secs_f64(0.1),
                    seed: 8,
                    warmup_windows: 0,
                })
                .unwrap();
            r.windows[0]
                .iter()
                .map(|w| w.drop_rate())
                .collect::<Vec<_>>()
        };
        // Capacity decays from 64 packets to 1 over the run.
        let leaking = drop_rates(&[Fault {
            chain: 0,
            vnf: 0,
            from: SimTime::ZERO,
            until: SimTime::from_secs_f64(0.5),
            kind: crate::faults::FaultKind::MemoryLeak {
                floor_fraction: 0.01,
            },
        }]);
        let healthy = drop_rates(&[]);
        let worst_healthy = healthy.iter().copied().fold(0.0, f64::max);
        assert!(
            leaking[2] < leaking[3] && leaking[3] < leaking[4],
            "{leaking:?}"
        );
        assert!(
            leaking[4] > 0.1 && leaking[4] > 10.0 * worst_healthy,
            "leaking {leaking:?}, healthy {healthy:?}"
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (chains, placements, servers) = single_chain_setup(0.0, &[VnfKind::Firewall]);
        assert!(Engine::new(&chains, &placements, &servers, vec![], &[]).is_err());
        let bad_pl = vec![ChainPlacement { servers: vec![] }];
        assert!(Engine::new(
            &chains,
            &bad_pl,
            &servers,
            vec![(Workload::poisson(1.0), PacketSizes::Imix)],
            &[]
        )
        .is_err());
    }

    #[test]
    fn colocation_interference_slows_service() {
        // Two identical chains on one server vs on two servers.
        let chains = vec![
            ChainSpec::of_kinds("a", &[VnfKind::Dpi]),
            ChainSpec::of_kinds("b", &[VnfKind::Dpi]),
        ];
        let one = vec![ServerSpec {
            interference_slope: 1.0,
            ..ServerSpec::standard()
        }];
        let two = vec![one[0].clone(), one[0].clone()];
        let wl = || {
            vec![
                (Workload::poisson(120_000.0), PacketSizes::Fixed(800.0)),
                (Workload::poisson(120_000.0), PacketSizes::Fixed(800.0)),
            ]
        };
        let cfg = RunConfig {
            horizon: SimDuration::from_secs_f64(3.0),
            window: SimDuration::from_secs_f64(1.0),
            seed: 5,
            warmup_windows: 1,
        };
        let colocated_pl = place(&chains, &one, PlacementPolicy::FirstFit, 0).unwrap();
        let spread_pl = place(&chains, &two, PlacementPolicy::WorstFit, 0).unwrap();
        let colo = Engine::new(&chains, &colocated_pl, &one, wl(), &[])
            .unwrap()
            .run(&cfg)
            .unwrap();
        let spread = Engine::new(&chains, &spread_pl, &two, wl(), &[])
            .unwrap()
            .run(&cfg)
            .unwrap();
        let mean_interf = |r: &RunResult| {
            let ws = &r.windows[0];
            ws.iter().map(|w| w.interference[0]).sum::<f64>() / ws.len() as f64
        };
        assert!(
            mean_interf(&colo) > mean_interf(&spread),
            "colo {} vs spread {}",
            mean_interf(&colo),
            mean_interf(&spread)
        );
    }

    #[test]
    fn window_count_matches_horizon() {
        let r = run_one(1_000.0, &[VnfKind::Firewall], 6);
        // 6s horizon, 1s windows, 1 warmup discarded → 5 windows.
        assert_eq!(r.windows[0].len(), 5);
        for w in &r.windows[0] {
            assert!((w.window_s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn violation_rate_counts_windows() {
        let spec = VnfConfig::standard(VnfKind::Dpi);
        let ms = spec.mean_service_secs(500.0, 2.6, 1.0);
        let r = run_one(3.0 / ms, &[VnfKind::Dpi], 7);
        assert!(r.violation_rate(0, &Sla::tight()) > 0.9);
        assert_eq!(r.violation_rate(5, &Sla::tight()), 0.0, "missing chain");
    }
}
