//! The memory bound that justifies the chunk loop: an enumerating method
//! explained alone never holds more than one `MAX_BLOCK_ROWS` chunk of
//! composite rows, however many coalitions it enumerates.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the harness's own threads cannot disturb it.

use nfv_ml::model::FnModel;
use nfv_xai::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(bytes: usize) {
    // Saturating: a block allocated on another thread may be freed here.
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is thread-local counter arithmetic, which neither allocates
// (const-initialized `Cell`s, no destructor) nor touches the returned
// memory.
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

#[test]
fn exact_shapley_alone_never_stacks_its_whole_enumeration() {
    // 2^12 coalitions × 32 background rows = 131 072 composite rows:
    // 12.6 MB of f64s if stacked into one block.
    let (d, n_bg) = (12usize, 32usize);
    let rows: Vec<Vec<f64>> = (0..n_bg)
        .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.713).sin()).collect())
        .collect();
    let background = Background::from_rows(rows).unwrap();
    let model = FnModel::new(d, |x: &[f64]| {
        x.iter()
            .enumerate()
            .map(|(j, v)| v * (j as f64 + 0.5))
            .sum()
    });
    let x: Vec<f64> = (0..d).map(|j| j as f64 * 0.31 - 1.0).collect();
    let names: Vec<String> = (0..d).map(|j| format!("x{j}")).collect();
    assert!((1usize << d) * n_bg * d * 8 > 12_000_000);

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let attribution = exact_shapley(&model, &x, &background, &names).unwrap();
    let peak = PEAK.with(Cell::get) - before;
    assert!(attribution.efficiency_gap().abs() < 1e-9);
    assert!(
        peak < 2 << 20,
        "exact Shapley alone peaked at {peak} live bytes; it must run chunk by chunk"
    );
}
