//! The TreeSHAP kernel on a warm scratch allocates only its output: the
//! allocation count of a call does not depend on how many nodes it walks.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the harness's own threads cannot disturb it.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
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

fn forest(data: &Dataset, n_trees: usize, max_depth: usize) -> RandomForest {
    let params = ForestParams {
        n_trees,
        tree: TreeParams {
            max_depth,
            ..TreeParams::default()
        },
        sample_fraction: 1.0,
    };
    RandomForest::fit(data, &params, 3, 1).unwrap()
}

#[test]
fn warm_forest_shap_allocates_only_its_output() {
    let d = 6;
    let data = friedman1(600, d, 0.2, 71).unwrap().data;
    let x = data.row(5).to_vec();
    let small = forest(&data, 2, 2);
    let large = forest(&data, 30, 8);
    let nodes = |f: &RandomForest| f.trees.iter().map(|t| t.nodes.len()).sum::<usize>();
    assert!(nodes(&large) > 100 * nodes(&small));

    let mut scratch = TreeShapScratch::default();
    let mut count = |f: &RandomForest| {
        let consts = TreeShapConsts::forest(f);
        let mut call = || ensemble_shap(&f.trees, &consts, 0.0, &x, &data.names, &mut scratch);
        call().unwrap(); // grows the scratch to this forest's depth
        let before = ALLOCATIONS.with(Cell::get);
        let attribution = call().unwrap();
        let made = ALLOCATIONS.with(Cell::get) - before;
        drop(attribution);
        made
    };
    let (on_large, on_small) = (count(&large), count(&small));
    assert_eq!(on_large, on_small, "allocations must not scale with nodes");
    // Names (the vector and each string), values, the method tag.
    assert!(on_large <= d as u64 + 3, "{on_large} allocations");
}
