//! The memory bound of the JSON codec on a multi-MB forest, the shape a
//! wire `Register` carries: a parse holds its result plus scratch, a write
//! holds its output, and neither builds a tree of the document.
//!
//! Its own test binary because it installs a counting global allocator;
//! the count is process-wide, so this binary holds one test.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Starts a measurement: returns the live bytes now and resets the peak
/// to them.
fn baseline() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const SLACK: usize = 256 * 1024;

/// A forest of `trees` full trees of depth 10 (2 047 nodes each) with
/// decimal thresholds and values like a fitted model's.
fn big_forest(trees: usize) -> ServeModel {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let tree = |draw: &mut dyn FnMut() -> f64| {
        let nodes: Vec<TreeNode> = (0..2047u32)
            .map(|i| {
                let is_leaf = i >= 1023;
                TreeNode {
                    feature: (i % 14) as usize,
                    threshold: if is_leaf { 0.0 } else { draw() * 100.0 },
                    left: if is_leaf { 0 } else { 2 * i + 1 },
                    right: if is_leaf { 0 } else { 2 * i + 2 },
                    value: draw() * 5.0,
                    cover: (2048 >> (31 - (i + 1).leading_zeros())) as f64,
                    is_leaf,
                }
            })
            .collect();
        DecisionTree {
            nodes: nodes.into(),
            n_features: 14,
            task: Task::Regression,
        }
    };
    ServeModel::Forest(RandomForest {
        trees: (0..trees).map(|_| tree(&mut draw)).collect(),
        n_features: 14,
        task: Task::Regression,
    })
}

#[test]
fn parse_and_write_hold_the_result_not_a_tree() {
    let model = big_forest(24);

    let before = baseline();
    let json = serde_json::to_string(&model).unwrap();
    let write_peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        json.len() > 4 << 20,
        "a multi-MB document: {} B",
        json.len()
    );
    assert!(
        write_peak <= 2 * json.len() + SLACK,
        "to_string peaked at {write_peak} B over {} B of output",
        json.len()
    );
    drop(model);

    let before = baseline();
    let parsed: ServeModel = serde_json::from_str(&json).unwrap();
    let parse_peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        parse_peak <= 2 * held + SLACK,
        "from_str peaked at {parse_peak} B for a {held} B model ({} B of input)",
        json.len()
    );
    assert_eq!(parsed.kind(), "forest");
    eprintln!(
        "{} B of JSON: to_string peak {write_peak} B, from_str peak {parse_peak} B, model {held} B",
        json.len()
    );
}
