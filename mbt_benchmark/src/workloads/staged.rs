//! Staged-replay steps more than one workload runs: a workload's inputs
//! through the layers' public functions one call at a time, each call a
//! child span of `parent` named after the metric it feeds.

use mbt_engine::{
    evaluate_plan_batch, fmm_params_for, Accuracy, Backend, Engine, EvalConfig, Plan, PlanKey,
    QueryKind,
};
use mbt_fmm::CompiledFmm;
use mbt_geometry::sort::{order_particles, CurveOrder};
use mbt_geometry::{Particle, Vec3};
use mbt_tree::{Octree, OctreeParams};
use mbt_treecode::EvalStats;

use super::Metrics;
use crate::harness::trace::{Tracer, NONE};

/// `geometry.hilbert_sort`, then `tree.build`.
pub fn sort_and_tree(
    tr: &Tracer,
    parent: u64,
    particles: &[Particle],
    leaf_capacity: usize,
) -> Octree {
    tr.within("geometry.hilbert_sort", parent, NONE, || {
        order_particles(particles, CurveOrder::Hilbert)
    });
    tr.within("tree.build", parent, NONE, || {
        Octree::build(particles, OctreeParams { leaf_capacity })
    })
    .expect("generated particles are finite and non-empty")
}

/// The metrics [`sort_and_tree`] feeds.
pub fn tree_metrics(m: &mut Metrics, tr: &Tracer, tree: &Octree) {
    let stats = tree.stats();
    m.sampled(
        "geometry.hilbert_sort_s",
        &tr.seconds("geometry.hilbert_sort"),
    );
    m.sampled("tree.build_s", &tr.seconds("tree.build"));
    m.value("tree.nodes", stats.nodes as f64);
    m.value("tree.height", stats.height as f64);
}

/// What the last pass of [`fmm_path`] saw.
#[derive(Default)]
pub struct FmmShape {
    pub stats: EvalStats,
    pub levels: usize,
    pub heap_bytes: usize,
}

/// The compiled-FMM path of one all-targets query, by hand:
/// `engine.register`, `fmm.build`, `fmm.eval`, then the same again as
/// the engine packages it, `engine.plan_build` and `engine.sweep_only`.
pub fn fmm_path(
    tr: &Tracer,
    parent: u64,
    engine: &Engine,
    name: &str,
    particles: &[Particle],
    targets: &[Vec3],
    accuracy: Accuracy,
) -> FmmShape {
    let copy = particles.to_vec();
    let dataset = tr
        .within("engine.register", parent, NONE, || {
            engine.register(name, copy)
        })
        .expect("generated particles are finite and the name is fresh");
    let params = engine
        .resolve_params_for(dataset, accuracy)
        .expect("the dataset was just registered");
    let fmm = tr
        .within("fmm.build", parent, NONE, || {
            CompiledFmm::new(particles, fmm_params_for(&params))
        })
        .expect("the benchmark's geometries fit the compiled grid");
    let mut out = vec![0.0; targets.len()];
    let stats = tr.within("fmm.eval", parent, NONE, || {
        fmm.potentials_at_into(targets, &mut out)
    });
    let shape = FmmShape {
        stats,
        levels: fmm.levels(),
        heap_bytes: fmm.heap_bytes(),
    };
    drop(fmm);
    let plan = tr
        .within("engine.plan_build", parent, NONE, || {
            Plan::build(
                PlanKey::routed(dataset, &params, Backend::Fmm),
                particles,
                params,
            )
        })
        .expect("the resolved parameters are valid");
    tr.within("engine.sweep_only", parent, NONE, || {
        evaluate_plan_batch(
            &plan,
            QueryKind::Potential,
            &[targets],
            EvalConfig::of(&params),
        )
    });
    shape
}

/// The metrics [`fmm_path`] feeds.
pub fn fmm_metrics(m: &mut Metrics, tr: &Tracer, shape: &FmmShape) {
    m.sampled("engine.register_s", &tr.seconds("engine.register"));
    m.sampled("fmm.build_s", &tr.seconds("fmm.build"));
    m.sampled("fmm.eval_s", &tr.seconds("fmm.eval"));
    m.value("fmm.levels", shape.levels as f64);
    m.value("fmm.heap_bytes", shape.heap_bytes as f64);
    m.value("fmm.terms", shape.stats.terms as f64);
    m.value("fmm.direct_pairs", shape.stats.direct_pairs as f64);
    m.sampled("engine.plan_build_s", &tr.seconds("engine.plan_build"));
    m.sampled_scaled(
        "engine.sweep_only_ms",
        &tr.seconds("engine.sweep_only"),
        1e3,
    );
}
