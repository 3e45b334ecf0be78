//! Charge epochs: one dataset, many right-hand sides.
//!
//! The paper's Table 3 application is a single-layer matvec inside
//! restarted GMRES — the Gauss points never move, only the density
//! iterates. This example runs that solve through the engine, which
//! registers the points once and takes each matvec's charges through
//! `Engine::update_charges`, and then prices one charge epoch on each
//! backend at the same shape (7680 sources, 642 targets): what the
//! router's choice costs once geometry is amortised. EXPERIMENTS.md
//! (Table 3) records the numbers.
//!
//! Run with: `cargo run --release --example charge_epochs`

use std::sync::Arc;
use std::time::Instant;

use mbt::bem::EngineSingleLayer;
use mbt::engine::{evaluate_plan_batch, Backend, EvalConfig, Plan, PlanKey, SourceSet};
use mbt::prelude::*;

const ACCURACY: Accuracy = Accuracy::Fixed(6);
const EPOCHS: usize = 20;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] * 1e3
}

/// One capacitance solve through the engine at `accuracy`.
fn solve(label: &str, geometry: &SingleLayerGeometry, accuracy: Accuracy) {
    let engine = Arc::new(Engine::new(EngineConfig::default()).expect("default config"));
    let operator = EngineSingleLayer::new(geometry.clone(), Arc::clone(&engine), accuracy);
    let t0 = Instant::now();
    let solution = CapacitanceProblem::new(&operator, geometry).solve(&GmresOptions {
        restart: 10,
        tol: 1e-6,
        max_iters: 120,
        preconditioner: None,
    });
    let took = t0.elapsed();
    let stats = engine.stats();
    println!(
        "{label:<9} {:>6.1} ms  {} iterations / {} applies, residual {:.2e}, C = {:.5}; \
         {} build + {} recharges, {} dataset, {:.2} MB resident",
        took.as_secs_f64() * 1e3,
        solution.gmres.iterations,
        operator.applications(),
        solution.gmres.relative_residual,
        solution.capacitance,
        stats.plan_builds,
        stats.plan_recharges,
        stats.datasets,
        stats.resident_bytes as f64 / 1e6,
    );
}

/// One plan of `backend`, recharged and swept `EPOCHS` times.
fn price_backend(
    backend: Backend,
    particles: &[Particle],
    targets: &[Vec3],
    params: TreecodeParams,
) {
    let key = PlanKey::routed(DatasetId(0), &params, backend);
    let sources = SourceSet::new(particles.to_vec());
    let charges: Vec<f64> = particles.iter().map(|p| p.charge).collect();
    let t0 = Instant::now();
    // priced for these targets, as the engine builds a routed plan (the
    // source set's order is sorted inside the build, as on a cold engine)
    let mut plan =
        Plan::build_for(key, &sources, &charges, params, targets.len()).expect("valid parameters");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (mut recharge_s, mut sweep_s) = (Vec::new(), Vec::new());
    for epoch in 1..=EPOCHS {
        let charged: Vec<f64> = charges
            .iter()
            .enumerate()
            .map(|(i, q)| q * (1.0 + (i + epoch) as f64).sin())
            .collect();
        let t0 = Instant::now();
        plan = plan
            .recharge(&sources, &charged, params, epoch as u64)
            .expect("finite charges");
        recharge_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(evaluate_plan_batch(
            &plan,
            QueryKind::Potential,
            &[targets],
            EvalConfig::of(&params),
        ));
        sweep_s.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "{:<9} build {build_ms:>6.1} ms | per epoch: recharge {:>5.1} ms + sweep {:>4.1} ms",
        backend.as_str(),
        median_ms(recharge_s),
        median_ms(sweep_s),
    );
}

fn main() {
    let geometry = SingleLayerGeometry::new(shapes::icosphere(3, 1.0), QuadRule::SixPoint);
    println!(
        "unit sphere: {} unknowns, {} Gauss sources, {ACCURACY:?}\n",
        geometry.dim(),
        geometry.num_gauss()
    );

    let engine = Engine::new(EngineConfig::default()).expect("default config");
    let params = engine.resolve_params(ACCURACY);
    // the first FMM plan of a degree in a process fills that degree's
    // unit operator table; every later plan, on any engine, shares it
    let t0 = Instant::now();
    EngineSingleLayer::new(
        geometry.clone(),
        Arc::new(Engine::new(EngineConfig::default()).expect("default config")),
        ACCURACY,
    )
    .apply_vec(&vec![1.0; geometry.dim()]);
    println!(
        "first matvec in the process: {:.1} ms ({:.1} MB of shared operator tables filled)\n",
        t0.elapsed().as_secs_f64() * 1e3,
        mbt::fmm::shared_operator_bytes() as f64 / 1e6
    );
    println!("GMRES(10) to 1e-6, one dataset per operator:");
    solve("routed", &geometry, ACCURACY);
    // explicit parameters pin the router to the treecode
    solve("treecode", &geometry, Accuracy::Params(params));

    println!("\none charge epoch, geometry amortised (median of {EPOCHS}):");
    let particles: Vec<Particle> = geometry
        .gauss_points
        .iter()
        .zip(geometry.charges(&vec![1.0; geometry.dim()]))
        .map(|(&p, q)| Particle::new(p, q))
        .collect();
    let targets = &geometry.mesh.vertices;
    price_backend(Backend::Fmm, &particles, targets, params);
    price_backend(Backend::Treecode, &particles, targets, params);
    let mut direct_s = Vec::new();
    for _ in 0..EPOCHS {
        let t0 = Instant::now();
        std::hint::black_box(direct_potentials_at(&particles, targets));
        direct_s.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "{:<9} no plan         | per epoch: {:>5.1} ms",
        "direct",
        median_ms(direct_s)
    );
}
