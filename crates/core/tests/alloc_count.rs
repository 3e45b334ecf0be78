//! Pins down the evaluation memory discipline: one full `potentials()`
//! sweep may allocate proportionally to the number of *chunks* (each
//! parallel task owns one list scratch), never proportionally to the number
//! of accepted or near-field *interactions*. A counting global allocator
//! measures the real thing — no inspection arguments, just numbers.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_treecode::{Treecode, TreecodeParams};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the atomic counter has no effect on layout or
// pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: trait-mandated `unsafe fn`; the body only counts and delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it has non-zero size per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: trait-mandated `unsafe fn`; the body only delegates.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our caller, who guarantees the
        // block was allocated by this allocator with this layout — and
        // `alloc`/`realloc` above always return `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: trait-mandated `unsafe fn`; the body only counts and delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: arguments are forwarded unchanged; the caller guarantees
        // `ptr` is live with `layout` and `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn potentials_allocate_per_chunk_not_per_interaction() {
    const N: usize = 3000;
    const CHUNK: usize = 64;
    let ps = uniform_cube(N, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 19);
    let tc = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.7).with_eval_chunk(CHUNK)).unwrap();

    // warm-up so lazily initialised globals (normalisation tables, thread
    // state) don't count against the measured sweep
    let warm = tc.potentials();
    assert!(warm.stats.pc_interactions > 0 && warm.stats.direct_pairs > 0);

    let mut stats = None;
    let allocs = allocations_during(|| {
        stats = Some(tc.potentials());
    });
    let stats = stats.unwrap().stats;
    let chunks = N.div_ceil(CHUNK) as u64;
    let interactions = stats.pc_interactions + stats.direct_pairs;

    // Per chunk: one list scratch (two stacks, task/span/sort buffers,
    // the BatchWorkspace lane arrays) plus one EvalStats — each a handful
    // of allocations up front, with task-list growth doubling a few times
    // on top — plus the sweep's O(1) output/collect vectors and
    // per-thread state. The lists themselves must be *reused growth*,
    // never per-task boxes: a per-task cost would exceed this budget a
    // hundredfold (tasks/chunks is ~10² here and each task would bring
    // at least one allocation).
    let budget = 48 * chunks + 256;
    assert!(
        allocs <= budget,
        "potentials() made {allocs} allocations for {chunks} chunks \
         (budget {budget}) — something allocates per interaction again \
         ({interactions} interactions this sweep)"
    );
    assert!(
        interactions > 100 * chunks,
        "workload too small to distinguish per-chunk from per-interaction \
         allocation: {interactions} interactions vs {chunks} chunks"
    );
    // and the sweep must be far below one allocation per interaction
    assert!(
        allocs * 10 < interactions,
        "{allocs} allocations vs {interactions} interactions"
    );
}
