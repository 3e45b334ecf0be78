//! Plan-identity regression: requests that differ only in execution
//! configuration (`eval_chunk`) must share **one** cached plan, and
//! return the same bits. Before the `PlanKey`/`EvalConfig` split, every chunk width
//! duplicated an entire octree + coefficient arena in the cache.

use mbt_engine::{Accuracy, Backend, CacheOutcome, Engine, EngineConfig, QueryRequest};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::Vec3;
use mbt_treecode::TreecodeParams;

fn engine_with_data() -> (Engine, mbt_engine::DatasetId) {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let ps = uniform_cube(600, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 17);
    let id = engine.register("tenant", ps).unwrap();
    (engine, id)
}

fn points(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| Vec3::new(1.5 + i as f64 * 0.02, 0.4, -0.2))
        .collect()
}

#[test]
fn requests_differing_only_in_eval_config_share_one_plan() {
    let (engine, id) = engine_with_data();
    let base = TreecodeParams::fixed(4, 0.6);
    let variants = [
        base,
        base.with_eval_chunk(1),
        base.with_eval_chunk(7),
        base.with_eval_chunk(16),
        base.with_eval_chunk(512),
    ];
    let pts = points(20);
    let mut outputs = Vec::new();
    for (i, params) in variants.iter().enumerate() {
        let r = engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Params(*params),
                pts.clone(),
            ))
            .unwrap();
        // only the very first request builds; every variant hits
        let expected = if i == 0 {
            CacheOutcome::Built
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(r.cache, expected, "variant {i}");
        outputs.push(r.output);
    }

    let s = engine.stats();
    assert_eq!(s.plan_builds, 1, "eval-config variants rebuilt the plan");
    assert_eq!(s.resident_plans, 1, "eval-config variants duplicated plans");
    assert_eq!(s.cache_hits, variants.len() as u64 - 1);
    assert_eq!(s.per_plan.len(), 1);

    // sweeps are bit-invariant across chunk widths
    let bits = |o: &mbt_engine::QueryOutput| -> Vec<u64> {
        o.potentials()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    for (i, out) in outputs.iter().enumerate().skip(1) {
        assert_eq!(bits(out), bits(&outputs[0]), "chunk variant {i} diverged");
    }
}

#[test]
fn a_params_request_equals_the_shorthand_it_resolves_to() {
    let (engine, id) = engine_with_data();
    let pts = points(20);
    let shorthand = Accuracy::Fixed(4);
    let resolved = engine.resolve_params(shorthand);
    let via_shorthand = engine
        .query(QueryRequest::potentials(id, shorthand, pts.clone()))
        .unwrap();
    let via_params = engine
        .query(QueryRequest::potentials(
            id,
            Accuracy::Params(resolved),
            pts,
        ))
        .unwrap();
    assert_eq!(via_shorthand.backend, Backend::Treecode);
    assert_eq!(via_params.backend, Backend::Treecode);
    assert_eq!(via_shorthand.eval, via_params.eval);
    let bits = |o: &mbt_engine::QueryOutput| -> Vec<u64> {
        o.potentials()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(&via_shorthand.output), bits(&via_params.output));
}

#[test]
fn build_relevant_params_still_get_their_own_plans() {
    let (engine, id) = engine_with_data();
    let pts = points(5);
    let base = TreecodeParams::fixed(4, 0.6);
    for params in [
        base,
        base.with_leaf_capacity(8),
        base.with_softening(1e-3),
        TreecodeParams::fixed(5, 0.6),
    ] {
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Params(params),
                pts.clone(),
            ))
            .unwrap();
    }
    let s = engine.stats();
    assert_eq!(s.plan_builds, 4);
    assert_eq!(s.resident_plans, 4);
}

#[test]
fn query_batch_coalesces_across_eval_configs_onto_one_plan() {
    let (engine, id) = engine_with_data();
    let base = TreecodeParams::fixed(4, 0.6);
    let pts = points(10);
    let reqs = vec![
        QueryRequest::potentials(id, Accuracy::Params(base), pts.clone()),
        QueryRequest::potentials(id, Accuracy::Params(base.with_eval_chunk(3)), pts.clone()),
        QueryRequest::potentials(id, Accuracy::Params(base.with_eval_chunk(3)), pts),
    ];
    let results = engine.query_batch(&reqs);
    assert!(results.iter().all(Result::is_ok));
    let s = engine.stats();
    // one plan; the two chunk-3 requests share a sweep, chunk-64 gets its own
    assert_eq!(s.plan_builds, 1);
    assert_eq!(s.resident_plans, 1);
    assert_eq!(s.batches, 2);
    assert_eq!(s.batched_requests, 3);
    // identical values regardless of which sweep served them
    let v0 = results[0].as_ref().unwrap().output.clone();
    let v1 = results[1].as_ref().unwrap().output.clone();
    assert_eq!(v0, v1);
}
