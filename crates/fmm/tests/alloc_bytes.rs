//! Pins down what a charge epoch copies per source. A built FMM or octree
//! shares its Morton order (permutation and sorted positions) with every
//! re-charge of it, so a charge update over the same geometry copies no
//! particle array: both allocate the new sorted charges (8 B per source),
//! the FMM beside whatever its cells need, the octree beside its nodes. A
//! counting global allocator measures the bytes requested; comparing two
//! source counts isolates the per-source slope.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbt_fmm::{CompiledFmm, FmmParams};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::Particle;
use mbt_tree::{Node, Octree, OctreeParams};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the atomic counter has no effect on layout or
// pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: trait-mandated `unsafe fn`; the body only counts and delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it has non-zero size per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: trait-mandated `unsafe fn`; the body only delegates.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our caller, who guarantees the
        // block was allocated by this allocator with this layout — and
        // `alloc`/`realloc` always return `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: trait-mandated `unsafe fn`; the body only counts and delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        // SAFETY: arguments are forwarded unchanged; the caller guarantees
        // `ptr` is live with `layout` and `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The per-source slope of the bytes `epoch(n)` reports, between
/// `n = 20 000` and `n = 40 000` sources over the same cells.
fn slope(name: &str, epoch: impl Fn(usize) -> u64) -> f64 {
    let (small, big) = (epoch(20_000), epoch(40_000));
    let per_source = (big as f64 - small as f64) / 20_000.0;
    println!("{name}: {small} B at 20 000, {big} B at 40 000 -> {per_source:.2} B per source");
    per_source
}

/// Bytes requested while `f` runs (after one unmeasured warm-up run, so
/// lazily built tables and worker state are not counted).
fn bytes_during<T>(f: impl Fn() -> T) -> u64 {
    drop(f());
    let before = BYTES.load(Ordering::SeqCst);
    let out = f();
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    drop(out);
    bytes
}

fn sources(n: usize) -> (Vec<Particle>, Vec<f64>) {
    let ps = uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 5);
    let q = ps.iter().map(|p| 0.5 * p.charge + 0.25).collect();
    (ps, q)
}

#[test]
fn charge_epochs_copy_no_particle_array() {
    // three levels, 512 finest cells, every one occupied at both sizes:
    // the cells (arenas, weights, scratch) are the same, only n differs
    let per_source = slope("CompiledFmm::with_charges", |n| {
        let (ps, q) = sources(n);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(3)).unwrap();
        bytes_during(|| fmm.with_charges(&q).unwrap())
    });
    assert!(
        per_source <= 16.0,
        "an FMM charge epoch allocated {per_source:.2} B per source (8 B expected: the sorted charges)"
    );

    // the node arena is topology, sized by the tree rather than by the
    // sources, so it is taken out: what remains is the sorted charges
    // (8 B); the positions and permutation are shared, and the Morton
    // keys die with the build
    let per_source = slope("Octree::with_charges", |n| {
        let (ps, q) = sources(n);
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let nodes = tree.len() * std::mem::size_of::<Node>();
        bytes_during(|| tree.with_charges(&q).unwrap()) - nodes as u64
    });
    assert!(
        per_source <= 16.0,
        "an octree charge epoch allocated {per_source:.2} B per source beyond the node arena \
         (8 B expected: the sorted charges)"
    );
}
