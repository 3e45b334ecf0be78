//! Backend-routing integration: shape-based selection, bit-identity of
//! the routed few-targets path against the treecode, direct-sum bypass,
//! and the Theorem-bound admission contract as a property test.

use mbt_engine::{
    fmm_admissible, route, Accuracy, Backend, CacheOutcome, Engine, EngineConfig, QueryRequest,
    DIRECT_MAX_SOURCES, FMM_MIN_SOURCES, FMM_MIN_TARGETS,
};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_multipole::kappa;
use mbt_treecode::{Treecode, TreecodeParams};
use proptest::prelude::*;

fn particles(n: usize, seed: u64) -> Vec<Particle> {
    uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed)
}

fn probe_points(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.37;
            Vec3::new(0.9 * t.cos(), 0.9 * t.sin(), 0.1 + 0.001 * i as f64)
        })
        .collect()
}

/// The routed few-targets path answers with exactly the bits the
/// treecode produces under the engine's resolved parameters.
#[test]
fn few_targets_are_bit_identical_to_the_treecode() {
    let cfg = EngineConfig::default();
    let ps = particles(6000, 41);
    let q_max = ps.iter().map(|p| p.charge.abs()).fold(0.0, f64::max);
    let engine = Engine::new(cfg).unwrap();
    let id = engine.register("t", ps.clone()).unwrap();
    let pts = probe_points(40);

    let r = engine
        .query(QueryRequest::potentials(
            id,
            Accuracy::Fixed(5),
            pts.clone(),
        ))
        .unwrap();
    assert_eq!(r.backend, Backend::Treecode);

    // the reference: the same resolution the engine performs
    let params = Accuracy::Fixed(5).resolve_with_profile(
        cfg.alpha,
        cfg.leaf_capacity,
        cfg.eval_chunk,
        ps.len(),
        q_max,
    );
    let tc = Treecode::new(&ps, params).unwrap();
    let want = tc.potentials_at(&pts);
    assert_eq!(r.output.potentials().unwrap(), want.values.as_slice());

    // pinning via explicit params keys the same artifact: still identical
    let pinned = engine
        .query(QueryRequest::potentials(id, Accuracy::Params(params), pts))
        .unwrap();
    assert_eq!(pinned.backend, Backend::Treecode);
    assert_eq!(pinned.output, r.output);
}

#[test]
fn tiny_datasets_bypass_the_cache_and_match_the_direct_sum() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let ps = particles(400, 43);
    let id = engine.register("tiny", ps.clone()).unwrap();
    let pts = probe_points(16);
    let r = engine
        .query(QueryRequest::potentials(
            id,
            Accuracy::Fixed(4),
            pts.clone(),
        ))
        .unwrap();
    assert_eq!(r.backend, Backend::Direct);
    assert_eq!(r.cache, CacheOutcome::Bypassed);
    assert_eq!(r.plan_bytes, 0);
    let got = r.output.potentials().unwrap();
    for (k, &pt) in pts.iter().enumerate() {
        let exact: f64 = ps.iter().map(|p| p.charge / p.position.distance(pt)).sum();
        assert!(
            (got[k] - exact).abs() <= 1e-12 * exact.abs().max(1.0),
            "direct backend is not exact at {k}: {} vs {exact}",
            got[k]
        );
    }
    let s = engine.stats();
    assert_eq!(s.routed_direct, 1);
    assert_eq!(s.plan_builds, 0, "direct routing must not build a plan");
}

#[test]
fn matvec_shapes_route_to_the_fmm_within_the_treecode_budget() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let ps = particles(6000, 47);
    let id = engine.register("mv", ps.clone()).unwrap();
    let pts = probe_points(500);
    let r = engine
        .query(QueryRequest::potentials(
            id,
            Accuracy::Fixed(8),
            pts.clone(),
        ))
        .unwrap();
    assert_eq!(r.backend, Backend::Fmm);
    assert!(engine.stats().routed_fmm >= 1);
    // the FMM answer agrees with the treecode at equal degree: each side
    // carries at most the Theorem-2 truncation κ^(p+1) per interaction —
    // κ(0.6)^9 ≈ 3e-3 — so their difference stays within twice that
    let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.6)).unwrap();
    let want = tc.potentials_at(&pts);
    let got = r.output.potentials().unwrap();
    for (k, (g, w)) in got.iter().zip(&want.values).enumerate() {
        assert!(
            (g - w).abs() <= 6e-3 * w.abs().max(1.0),
            "fmm vs treecode at {k}: {g} vs {w}"
        );
    }
}

#[test]
fn field_queries_route_like_potential_queries() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let ps = particles(6000, 53);
    let id = engine.register("f", ps).unwrap();
    let r = engine
        .query(QueryRequest::fields(
            id,
            Accuracy::Fixed(6),
            probe_points(500),
        ))
        .unwrap();
    assert_eq!(r.backend, Backend::Fmm);
    let fields = r.output.fields().unwrap();
    assert!(fields
        .iter()
        .all(|(phi, g)| phi.is_finite() && g.is_finite()));
}

/// Sharded datasets are served by the skeleton fan-out — a treecode-only
/// path — regardless of shape.
#[test]
fn sharded_datasets_stay_pinned_to_the_treecode() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine
        .register_sharded("s", particles(6000, 59), 4)
        .unwrap();
    let r = engine
        .query(QueryRequest::potentials(
            id,
            Accuracy::Fixed(4),
            probe_points(500),
        ))
        .unwrap();
    assert_eq!(r.backend, Backend::Treecode);
    assert_eq!(engine.stats().routed_fmm, 0);
}

proptest! {
    /// The admission contract: the router never picks a backend whose
    /// resolved Theorem 1/2/3 bound exceeds what the request accepted.
    ///
    /// * Direct is exact (bound ≡ 0 ≤ anything) and only ever chosen for
    ///   tiny source counts;
    /// * the FMM's M2L geometry is a Theorem-2 interaction at
    ///   α_eff = 1/2, so it may only be chosen when
    ///   κ(1/2) ≤ κ(α_requested) — and never for softened kernels or
    ///   pinned requests, whose semantics the FMM does not reproduce;
    /// * everything else keeps the treecode the request priced its
    ///   bound against.
    #[test]
    fn router_admission_contract(
        n_sources in 1usize..200_000,
        n_targets in 0usize..200_000,
        alpha in 0.25f64..1.0,
        soften_raw in 1e-6f64..1e-1,
        flags in 0u32..4,
    ) {
        let softening = if flags & 1 == 0 { 0.0 } else { soften_raw };
        let pinned = flags & 2 != 0;
        let params = TreecodeParams::fixed(4, alpha).with_softening(softening);
        let backend = route(n_sources, n_targets, pinned, &params);
        match backend {
            Backend::Direct => {
                prop_assert!(!pinned);
                prop_assert!(n_sources <= DIRECT_MAX_SOURCES);
            }
            Backend::Fmm => {
                prop_assert!(!pinned);
                prop_assert!(fmm_admissible(alpha));
                prop_assert!(kappa(0.5) <= kappa(alpha));
                // lint: allow(float_cmp, exact-zero routing guard)
                prop_assert!(softening == 0.0);
                prop_assert!(n_sources >= FMM_MIN_SOURCES);
                prop_assert!(n_targets >= FMM_MIN_TARGETS);
            }
            Backend::Treecode => {} // the reference the bound was priced on
        }
        if pinned {
            prop_assert_eq!(backend, Backend::Treecode);
        }
    }
}
