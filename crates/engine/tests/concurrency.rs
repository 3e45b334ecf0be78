//! Concurrency acceptance tests: single-flight plan construction and
//! bit-exact batched serving.
//!
//! One `#[test]` per file section would let the harness run them in
//! parallel threads of one process — fine here, because each test uses
//! *relative* counter deltas on its own engine instance, and the
//! single-flight assertion uses the engine's own `plan_builds` stat
//! (scoped to the instance) rather than the process-global counters.

use std::sync::Arc;

use mbt_engine::{Accuracy, CacheOutcome, Engine, EngineConfig, QueryRequest};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_treecode::Treecode;

fn particles() -> Vec<Particle> {
    uniform_cube(3_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 17)
}

fn thread_points(t: usize) -> Vec<Vec3> {
    (0..40)
        .map(|i| {
            let u = (t * 1000 + i) as f64;
            Vec3::new(1.5 * u.sin(), 1.5 * (0.3 * u).cos(), (0.9 * u).sin())
        })
        .collect()
}

/// N threads race on one cold `(dataset, accuracy)` key: exactly one
/// build happens, everyone gets served, and every caller's values are
/// bit-identical to a lone `Treecode::potentials_at` with identically
/// resolved parameters.
#[test]
fn concurrent_cold_misses_build_exactly_once_and_serve_exact_values() {
    let n_threads = 16;
    let engine = Arc::new(Engine::new(EngineConfig::default()).expect("valid config"));
    let ps = particles();
    let id = engine.register("shared", ps.clone()).expect("registers");
    let accuracy = Accuracy::Adaptive { p_min: 4 };

    // the reference: a treecode built directly with the same parameters
    // the engine will resolve this accuracy to (profile-aware: the
    // resolver may downgrade the near field to f32 for this dataset)
    let params = engine.resolve_params_for(id, accuracy).expect("resolves");
    let reference = Treecode::new(&ps, params).expect("reference builds");

    let reference = &reference;
    let outcomes: Vec<CacheOutcome> = std::thread::scope(|s| {
        // the collect is the point: spawn every thread before joining any,
        // so all 16 queries race on the cold key
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let points = thread_points(t);
                    let response = engine
                        .query(QueryRequest::potentials(id, accuracy, points.clone()))
                        .expect("query succeeds");
                    let direct = reference.potentials_at(&points);
                    assert_eq!(
                        response.output.potentials().expect("potential query"),
                        direct.values.as_slice(),
                        "batched serving must be bit-identical to a lone evaluation"
                    );
                    response.cache
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });

    let stats = engine.stats();
    assert_eq!(
        stats.plan_builds, 1,
        "N concurrent cold misses must run exactly one build"
    );
    assert_eq!(stats.cache_misses, 1, "exactly one caller is the builder");
    let built = outcomes
        .iter()
        .filter(|o| **o == CacheOutcome::Built)
        .count();
    assert_eq!(built, 1);
    // everyone else either waited on the in-flight build or arrived after
    // it finished and hit cache
    assert_eq!(
        stats.coalesced_misses + stats.cache_hits,
        (n_threads - 1) as u64
    );
    assert_eq!(stats.admitted, n_threads as u64);
    assert_eq!(stats.batched_requests, n_threads as u64);
    // `query` is a one-request `query_batch`: racing callers never share
    // a sweep, so each one runs exactly one sweep of its own
    assert_eq!(stats.batches, n_threads as u64, "one sweep per query");
    assert_eq!(stats.max_batch, 1, "no query rode another caller's sweep");
    assert_eq!(stats.resident_plans, 1);
}

/// The same race through `query_batch`: one call carrying all requests
/// behaves identically (one build, exact values, one admission).
#[test]
fn query_batch_is_bit_identical_and_single_build() {
    let engine = Engine::new(EngineConfig::default()).expect("valid config");
    let ps = particles();
    let id = engine.register("shared", ps.clone()).expect("registers");
    let accuracy = Accuracy::Tolerance { tol: 1e-6 };
    let params = engine.resolve_params_for(id, accuracy).expect("resolves");
    let reference = Treecode::new(&ps, params).expect("reference builds");

    let requests: Vec<QueryRequest> = (0..6)
        .map(|t| QueryRequest::potentials(id, accuracy, thread_points(t)))
        .collect();
    let results = engine.query_batch(&requests);
    for (t, result) in results.iter().enumerate() {
        let response = result.as_ref().expect("batch entry succeeds");
        let direct = reference.potentials_at(&thread_points(t));
        assert_eq!(
            response.output.potentials().expect("potential query"),
            direct.values.as_slice()
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.plan_builds, 1);
    assert_eq!(stats.admitted, 1, "one batch call is one admission unit");
    assert_eq!(
        stats.batches, 1,
        "same-key requests coalesce into one sweep"
    );
    assert_eq!(stats.max_batch, 6);
}
