//! The memory bound of the fusion scheduler: two co-queued exact-Shapley
//! requests whose enumerations are each far past the workspace chunk are
//! not stacked into one shared block. Their plans refuse to stack, so the
//! worker serves each alone through the chunked `direct()` path — the
//! same answers, bit for bit, at a fraction of the memory.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is process-wide (the allocations to bound happen on the
//! engine's worker thread), so this binary holds one test.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

mod common;
use common::serve_as_backlog;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is atomic counter arithmetic, which neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn engine_with_model(data: &Dataset, model: &Gbdt, background: &Background) -> ServeEngine {
    let engine = ServeEngine::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(model.clone()),
            data.names.clone(),
            background.clone(),
        )
        .unwrap();
    engine
}

fn exact(x: &[f64]) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: x.to_vec(),
        method: ExplainMethod::ExactShapley,
        budget: Duration::from_secs(60),
    }
}

#[test]
fn co_queued_exact_shapley_requests_are_served_alone_not_stacked() {
    // d = 12 with 32 background rows: 2^12 × 32 = 131 072 composite rows
    // per request, 12.6 MB of f64s if stacked into one block — 25 MB for
    // the two of them.
    let (d, n_bg) = (12usize, 32usize);
    let synth = friedman1(300, d, 0.1, 5).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 8,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let background = Background::from_dataset(&synth.data, n_bg, 1).unwrap();
    assert_eq!(background.len(), n_bg);
    assert!((1usize << d) * n_bg * d * 8 > 12_000_000);
    let jobs: Vec<ExplainRequest> = (0..2).map(|i| exact(synth.data.row(i))).collect();

    let engine = engine_with_model(&synth.data, &model, &background);
    // The plug and the queued jobs allocate a few KB before the release;
    // a stacked block would be 25 MB.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let stacked: Vec<ExplainResponse> =
        serve_as_backlog(&engine, "fused-exact-memory-plug", jobs.clone())
            .into_iter()
            .map(|o| o.expect("exact Shapley served"))
            .collect();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let stats = engine.stats();
    engine.shutdown();

    println!("two co-queued exact-Shapley requests: peak {peak} live bytes");
    assert!(
        peak < 4 << 20,
        "two co-queued exact-Shapley requests peaked at {peak} live bytes; \
         each must run chunk by chunk, not stacked into one block"
    );
    assert_eq!(stats.fused_groups, 0, "nothing may fuse: {stats:?}");
    assert_eq!(
        stats.explain_errors, 0,
        "a refused plan is no error: {stats:?}"
    );
    assert_eq!(
        stats.cache_misses, 3,
        "the plug and both requests: {stats:?}"
    );

    // Each answer equals the request served alone, bit for bit.
    let alone = engine_with_model(&synth.data, &model, &background);
    let bits = |a: &Attribution| {
        let mut v: Vec<u64> = a.values.iter().map(|x| x.to_bits()).collect();
        v.extend([a.base_value.to_bits(), a.prediction.to_bits()]);
        v
    };
    for (got, job) in stacked.iter().zip(jobs) {
        let want = alone.explain(job).unwrap();
        assert_eq!(want.batch_size, 1);
        assert_eq!(bits(&got.attribution), bits(&want.attribution));
    }
    alone.shutdown();
}
