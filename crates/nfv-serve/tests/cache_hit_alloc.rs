//! What a cache hit allocates: nothing in the exact tier, and in the
//! quantized tier only the attribution it rebuilds. Routing a request
//! allocates nothing either, and neither does a hit routed through a
//! cluster of in-process engines.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the engine's workers and the harness's own
//! threads cannot disturb it.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::cache::{CacheKey, ShardedCache};
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

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

/// Allocations `f` makes on this thread; its result is dropped afterwards.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

const D: usize = 14;

fn attribution(seed: f64) -> Arc<Attribution> {
    Arc::new(Attribution {
        names: (0..D).map(|i| format!("feature_{i}")).collect(),
        values: (0..D).map(|i| seed + i as f64 * 0.125).collect(),
        base_value: 0.5,
        prediction: seed,
        method: "kernel-shap".into(),
    })
}

fn key(x0: f64) -> CacheKey {
    let mut x = [0.25; D];
    x[0] = x0;
    CacheKey::build(
        "sla",
        3,
        ExplainMethod::KernelShap { n_coalitions: 64 },
        &x,
        1e-6,
    )
    .unwrap()
}

#[test]
fn a_hot_tier_get_allocates_nothing() {
    let cache = ShardedCache::new(64, 64, 4);
    let k = key(1.0);
    cache.insert(k.clone(), attribution(1.0));
    let made = allocations(|| {
        let (attr, fidelity) = cache.get(&k).expect("warmed");
        assert!(fidelity.is_exact());
        attr
    });
    assert_eq!(made, 0, "a hot hit shares the stored Arc");
}

#[test]
fn routing_a_request_allocates_nothing() {
    let x = [0.25; D];
    let method = ExplainMethod::KernelShap { n_coalitions: 64 };
    let made = allocations(|| route_hash("sla", method, &x, 1e-6).expect("routable"));
    assert_eq!(made, 0, "the router folds the words; it builds no key");
}

#[test]
fn a_cold_tier_get_allocates_only_the_attribution_it_rebuilds() {
    // One hot slot: the second insert demotes the first key.
    let cache = ShardedCache::new(1, 64, 1);
    let k = key(1.0);
    cache.insert(k.clone(), attribution(1.0));
    cache.insert(key(2.0), attribution(2.0));
    let made = allocations(|| {
        let (attr, fidelity) = cache.get(&k).expect("demoted, not dead");
        assert!(matches!(fidelity, Fidelity::Quantized { .. }));
        attr
    });
    // `dequantize` builds a fresh `Attribution`: the `Arc`, the values and
    // the method tag. The names are the interned `Arc<[String]>` every
    // cold entry of the (model, method) pair points at.
    assert_eq!(made, 3, "cold-hit allocations");
}

#[test]
fn an_engine_hot_hit_allocates_nothing_of_its_own() {
    let synth = friedman1(300, 5, 0.1, 11).unwrap();
    let params = GbdtParams {
        n_rounds: 15,
        ..Default::default()
    };
    let model = Gbdt::fit(&synth.data, &params, 0).unwrap();
    let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let engine = ServeEngine::start(ServeConfig::default());
    engine
        .registry()
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    let request = || ExplainRequest {
        model_id: "m".into(),
        features: synth.data.row(0).to_vec(),
        method: ExplainMethod::KernelShap { n_coalitions: 32 },
        budget: Duration::from_secs(1),
    };
    assert!(!engine.explain(request()).unwrap().cache_hit);
    // The request is the caller's: built outside the counted call, freed
    // (not counted — frees never are) when the engine drops it.
    let warm = request();
    let made = allocations(|| {
        let response = engine.explain(warm).unwrap();
        assert!(response.cache_hit && response.fidelity.is_exact());
        response
    });
    assert_eq!(made, 0, "no owned key, no string, no vector on a hit");
    engine.shutdown();
}

#[test]
fn a_routed_hot_hit_allocates_nothing() {
    let synth = friedman1(300, 5, 0.1, 13).unwrap();
    let params = GbdtParams {
        n_rounds: 10,
        ..Default::default()
    };
    let model = Gbdt::fit(&synth.data, &params, 0).unwrap();
    let bg = Background::from_dataset(&synth.data, 16, 1).unwrap();
    let cluster = ServeCluster::start(ClusterConfig {
        shards: 3,
        shard: ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    });
    cluster
        .register("m", ServeModel::Gbdt(model), synth.data.names.clone(), bg)
        .unwrap();
    let request = ExplainRequest {
        model_id: "m".into(),
        features: synth.data.row(0).to_vec(),
        method: ExplainMethod::KernelShap { n_coalitions: 32 },
        budget: Duration::from_secs(1),
    };
    assert!(!cluster.explain(&request).unwrap().cache_hit);
    let made = allocations(|| {
        let response = cluster.explain(&request).unwrap();
        assert!(response.cache_hit && response.fidelity.is_exact());
        response
    });
    assert_eq!(
        made, 0,
        "a routed hit borrows the request; it clones nothing"
    );
    cluster.shutdown();
}
