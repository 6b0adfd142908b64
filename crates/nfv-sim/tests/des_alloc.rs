//! A discrete-event run allocates per window and per queue doubling, not per
//! event: ten times the packets in the same windows costs at most the extra
//! doublings of its queues and links.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the harness's own threads cannot disturb it.

use nfv_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates (const-initialized
// `Cell`, no destructor) nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and packets of one `pipeline_retrain`-shaped epoch (the
/// secure-web chain, a noisy neighbour on every VNF, four 0.25 s windows)
/// offered `rate_pps`.
fn epoch(rate_pps: f64) -> (u64, u64) {
    let mut scenario = ScenarioBuilder::new()
        .servers(1, ServerSpec::standard())
        .chain(
            ChainSpec::of_kinds(
                "secure-web",
                &[VnfKind::Firewall, VnfKind::Ids, VnfKind::LoadBalancer],
            ),
            Workload::poisson(rate_pps),
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
    let cfg = RunConfig {
        horizon: SimDuration::from_secs_f64(1.0),
        window: SimDuration::from_secs_f64(0.25),
        seed: 3,
        warmup_windows: 1,
    };
    let before = ALLOCATIONS.with(Cell::get);
    let run = scenario.run_des(&cfg).unwrap();
    let made = ALLOCATIONS.with(Cell::get) - before;
    let packets = run.windows[0].iter().map(|w| w.delivered + w.dropped).sum();
    (made, packets)
}

#[test]
fn allocations_follow_windows_and_queue_doublings_not_events() {
    let (light, light_packets) = epoch(11_000.0);
    let (heavy, heavy_packets) = epoch(110_000.0);
    assert!(
        heavy_packets > 9 * light_packets,
        "{heavy_packets} vs {light_packets} packets"
    );
    assert!(
        heavy <= light + 64,
        "{light} allocations for {light_packets} packets, {heavy} for {heavy_packets}"
    );
}
