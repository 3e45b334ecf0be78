//! Pins down what a charge epoch allocates per source through the
//! engine. A dataset's positions and their Morton order live in its
//! source set, shared by every epoch and plan, so `update_charges`
//! publishes only the new charges (8 B per source) and the query that
//! recharges the resident plan permutes them once into the artifact's
//! sorted charges (8 B per source). A counting global allocator measures
//! the bytes requested; comparing two source counts isolates the
//! per-source slope.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbt_engine::{fmm_params_for, Accuracy, Backend, Engine, EngineConfig, QueryRequest};
use mbt_fmm::CompiledFmm;
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_treecode::{Treecode, TreecodeParams};

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

/// Sources of the two measured sizes; their difference isolates what an
/// epoch allocates per source.
const SIZES: [usize; 2] = [20_000, 40_000];

/// How many more bytes `epoch(n)` reports at the larger size, over the
/// sources added: the per-source slope, exact in bytes.
fn growth(name: &str, epoch: impl Fn(usize) -> u64) -> i64 {
    let (small, big) = (epoch(SIZES[0]), epoch(SIZES[1]));
    let grown = big as i64 - small as i64;
    let per_source = grown as f64 / (SIZES[1] - SIZES[0]) as f64;
    println!(
        "{name}: {small} B at {}, {big} B at {} -> {per_source:.2} B per source",
        SIZES[0], SIZES[1]
    );
    grown
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

/// `m` targets spread through the unit cube.
fn targets(m: usize) -> Vec<Vec3> {
    (0..m)
        .map(|i| {
            let t = i as f64;
            Vec3::new((0.37 * t).sin(), (0.23 * t).cos(), (0.11 * t).sin()) * 0.9
        })
        .collect()
}

/// What one charge epoch through the engine allocates beyond the
/// evaluation it serves: `update_charges` plus the query that recharges
/// the resident plan, less the same query answered from the cache (its
/// near-field scratch grows with the sources, and it is not the epoch's).
fn engine_epoch(n: usize, m: usize, backend: Backend) -> u64 {
    let (ps, q) = sources(n);
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register("sources", ps).unwrap();
    let request = QueryRequest::potentials(id, Accuracy::Fixed(4), targets(m));
    let query = || {
        let response = engine.query(request.clone()).unwrap();
        assert_eq!(response.backend, backend);
        response
    };
    let epoch = bytes_during(|| {
        engine.update_charges(id, &q).unwrap();
        query()
    });
    epoch - bytes_during(query)
}

/// The resolved parameters the engine's `Fixed(4)` queries run with.
fn fixed4() -> TreecodeParams {
    Engine::new(EngineConfig::default())
        .unwrap()
        .resolve_params(Accuracy::Fixed(4))
}

#[test]
fn a_charge_epoch_publishes_only_charges() {
    // the artifacts' own charge passes, as the engine runs them: the
    // sorted charges (8 B per source) and whatever the artifact sizes by
    // its cells — for the treecode, its nodes, coefficients and upward
    // pass work items, which follow the source count in a uniform cube
    let params = fixed4();
    let treecode = growth("treecode recharge", |n| {
        let (ps, q) = sources(n);
        let tc = Treecode::new(&ps, params).unwrap();
        bytes_during(|| Treecode::from_tree(tc.tree().with_charges(&q).unwrap(), params))
    });
    let fmm = growth("FMM recharge", |n| {
        let (ps, q) = sources(n);
        let fmm = CompiledFmm::new(&ps, fmm_params_for(&params).for_targets(2500)).unwrap();
        bytes_during(|| fmm.with_charges(&q).unwrap())
    });

    // few targets route to the treecode, 2500 (≥ n/16) to the FMM; with
    // the pass scratch taken out, an epoch is the published charges and
    // the sorted charges: 16 B per source
    let added = (SIZES[1] - SIZES[0]) as i64;
    for (backend, m, artifact) in [(Backend::Treecode, 16, treecode), (Backend::Fmm, 2500, fmm)] {
        let epoch = growth(&format!("{backend:?} epoch"), |n| {
            engine_epoch(n, m, backend)
        });
        let scratch = artifact - 8 * added;
        assert!(
            epoch - scratch <= 16 * added,
            "a {backend:?} charge epoch allocated {:.2} B per source beyond the artifact's \
             pass scratch (16 B expected: the published charges and the sorted charges)",
            (epoch - scratch) as f64 / added as f64
        );
    }
}
