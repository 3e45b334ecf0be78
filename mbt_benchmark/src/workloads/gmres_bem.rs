//! `gmres_bem` — the paper's Table 3: a capacitance solve on the unit
//! sphere, GMRES(10) to 1e-6, every matvec served by a fresh engine
//! through `EngineSingleLayer` at `Fixed(6)`.
//!
//! This is the write path: every matvec registers a new dataset version,
//! so registry insert, sort, octree, FMM plan build and cache insert run
//! once per apply while the sweep itself is small. Reads (`matvec_fmm`,
//! `serve_*`) and writes sit side by side, so moving work between build
//! and apply shows.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mbt_bem::{shapes, CapacitanceProblem, EngineSingleLayer, QuadRule, SingleLayerGeometry};
use mbt_engine::{Accuracy, Backend, Engine, EngineConfig, EngineStats};
use mbt_geometry::Particle;
use mbt_solvers::{GmresOptions, LinearOperator};
use mbt_treecode::direct::direct_potentials_at;

use super::staged::{fmm_metrics, fmm_path, sort_and_tree, tree_metrics, FmmShape};
use super::{
    engine_metrics, run_for, trace_metrics, Metrics, Report, RunConfig, Timings, TraceCtx,
};
use crate::harness::machine::ThreadBudget;
use crate::harness::probes;
use crate::harness::trace::{Tracer, NONE};

const SETUP_REPS: usize = 5;
const ACCURACY: Accuracy = Accuracy::Fixed(6);
const RESIDUAL_TOLERANCE: f64 = 1e-6;

/// What a solve must satisfy to count as correct.
struct Expect {
    iterations: std::ops::RangeInclusive<usize>,
    capacitance_error: f64,
}

fn expect(cfg: &RunConfig) -> Expect {
    if cfg.scale.smoke {
        // icosphere(2): coarser mesh, treecode route
        Expect {
            iterations: 1..=12,
            capacitance_error: 3e-2,
        }
    } else {
        Expect {
            iterations: 7..=9,
            capacitance_error: 5e-3,
        }
    }
}

fn geometry(cfg: &RunConfig) -> SingleLayerGeometry {
    let subdivisions = if cfg.scale.smoke { 2 } else { 3 };
    SingleLayerGeometry::new(shapes::icosphere(subdivisions, 1.0), QuadRule::SixPoint)
}

/// Times every application of the operator it wraps, inside a span.
struct TimedOperator<'a> {
    inner: &'a EngineSingleLayer,
    tracer: &'a Tracer,
    parent: u64,
    request: u64,
    apply_s: Mutex<Vec<f64>>,
}

impl LinearOperator for TimedOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let span = self.tracer.span("bem.apply", self.parent, self.request);
        let t0 = Instant::now();
        self.inner.apply(x, y);
        let seconds = t0.elapsed().as_secs_f64();
        drop(span);
        self.apply_s
            .lock()
            .expect("no apply panics while holding the lock")
            .push(seconds);
    }
}

struct Solve {
    seconds: f64,
    apply_s: Vec<f64>,
    iterations: usize,
    restarts: usize,
    residual: f64,
    capacitance: f64,
    backend: Option<Backend>,
    stats: EngineStats,
}

impl Solve {
    fn ok(&self, expect: &Expect) -> bool {
        self.residual <= RESIDUAL_TOLERANCE
            && expect.iterations.contains(&self.iterations)
            && (self.capacitance - 1.0).abs() <= expect.capacitance_error
    }
}

/// One op: a capacitance solve on a fresh engine.
fn solve(geometry: &SingleLayerGeometry, tracer: &Tracer, request: u64) -> Solve {
    let span = tracer.span("op", NONE, request);
    let t0 = Instant::now();
    let engine =
        Arc::new(Engine::new(EngineConfig::default()).expect("the default config is valid"));
    let inner = EngineSingleLayer::new(geometry.clone(), Arc::clone(&engine), ACCURACY);
    let timed = TimedOperator {
        inner: &inner,
        tracer,
        parent: span.id(),
        request,
        apply_s: Mutex::new(Vec::new()),
    };
    let solution = CapacitanceProblem::new(&timed, geometry).solve(&GmresOptions {
        restart: 10,
        tol: RESIDUAL_TOLERANCE,
        max_iters: 120,
        preconditioner: None,
    });
    let seconds = t0.elapsed().as_secs_f64();
    drop(span);
    Solve {
        seconds,
        apply_s: timed
            .apply_s
            .into_inner()
            .expect("no apply panics while holding the lock"),
        iterations: solution.gmres.iterations,
        restarts: solution.gmres.restarts,
        residual: solution.gmres.relative_residual,
        capacitance: solution.capacitance,
        backend: inner.last_backend(),
        stats: engine.stats(),
    }
}

fn describe(s: &Solve) -> String {
    format!(
        "{} iterations (+{} restarts), {} applies on the {} backend, residual {:.2e}, C = {:.5}",
        s.iterations,
        s.restarts,
        s.apply_s.len(),
        s.backend.map_or("none", Backend::as_str),
        s.residual,
        s.capacitance
    )
}

pub fn run(cfg: &RunConfig, ctx: Option<&mut TraceCtx>) -> Report {
    let budget = ThreadBudget::single_caller();
    match ctx {
        None => untraced(cfg, budget),
        Some(ctx) => traced(cfg, ctx, budget),
    }
}

fn untraced(cfg: &RunConfig, budget: ThreadBudget) -> Report {
    let mut t = Timings::default();
    // Set-up: mesh, quadrature geometry, and one warm-up matvec on a
    // scratch engine, which fills the process-wide translation tables. The
    // geometry alone takes 0.1 ms, too little to time steadily.
    let mut geo = geometry(cfg);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        geo = geometry(cfg);
        let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
        EngineSingleLayer::new(geo.clone(), Arc::new(engine), ACCURACY)
            .apply_vec(&vec![1.0; geo.dim()]);
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let off = Tracer::new(false);
    let expect = expect(cfg);
    let mut last = None;
    run_for(cfg.budget(1.0), 3, |i| {
        let s = solve(&geo, &off, i as u64 + 1);
        t.attempted += 1;
        t.failed += u64::from(!s.ok(&expect));
        t.op(s.seconds, s.apply_s.len() * geo.dim());
        // raw inputs to the first answer: the first apply on the fresh engine
        t.cold_s.extend(s.apply_s.first());
        last = Some(s);
    });
    let notes = vec![
        format!("{} unknowns, {} gauss sources", geo.dim(), geo.num_gauss()),
        describe(&last.expect("at least three solves ran")),
    ];
    t.into_report(budget, notes)
}

fn traced(cfg: &RunConfig, ctx: &mut TraceCtx, budget: ThreadBudget) -> Report {
    let mut m = Metrics::default();
    let geo = geometry(cfg);
    let expect = expect(cfg);
    let (mut attempted, mut failed) = (0u64, 0u64);

    let off = Tracer::new(false);
    let mut untraced_ms = Vec::new();
    run_for(cfg.budget(0.2), 1, |i| {
        let s = solve(&geo, &off, i as u64 + 1);
        attempted += 1;
        failed += u64::from(!s.ok(&expect));
        untraced_ms.push(s.seconds * 1e3);
    });
    ctx.start_program_spans();
    let mut last = None;
    run_for(cfg.budget(0.2), 1, |i| {
        let s = solve(&geo, &ctx.tracer, i as u64 + 1);
        attempted += 1;
        failed += u64::from(!s.ok(&expect));
        last = Some(s);
    });
    let last = last.expect("at least one traced solve ran");
    // The engines are gone with their solves; the core-layer spans the
    // global hook kept are what the program exported.
    let mut program_spans = ctx.collect_program_spans(&[]);

    // Staged replay: one matvec's inputs through the public functions one
    // layer at a time.
    let tr = &ctx.tracer;
    let staged = tr.span("staged", NONE, NONE);
    let sigma = vec![1.0; geo.dim()];
    let vertices = geo.mesh.vertices.clone();
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let mut shape = FmmShape::default();
    let mut tree = None;
    run_for(cfg.budget(0.1), 3, |i| {
        tr.within("bem.geometry", staged.id(), NONE, || geometry(cfg));
        let charges = tr.within("bem.charges", staged.id(), NONE, || geo.charges(&sigma));
        let particles: Vec<Particle> = geo
            .gauss_points
            .iter()
            .zip(&charges)
            .map(|(&p, &q)| Particle::new(p, q))
            .collect();
        let leaf_capacity = engine.config().leaf_capacity;
        tree = Some(sort_and_tree(tr, staged.id(), &particles, leaf_capacity));
        let name = format!("staged-{i}");
        shape = fmm_path(
            tr,
            staged.id(),
            &engine,
            &name,
            &particles,
            &vertices,
            ACCURACY,
        );
        // the floor the router should be compared with
        tr.within("bem.direct_apply", staged.id(), NONE, || {
            direct_potentials_at(&particles, &vertices)
        });
    });
    program_spans += ctx.collect_program_spans(&[]);
    drop(staged);

    m.sampled("bem.geometry_s", &tr.seconds("bem.geometry"));
    m.sampled("bem.charges_s", &tr.seconds("bem.charges"));
    m.sampled_scaled("bem.apply_p50_ms", &tr.seconds("bem.apply"), 1e3);
    m.value("bem.applies", last.apply_s.len() as f64);
    m.sampled_scaled("bem.direct_apply_ms", &tr.seconds("bem.direct_apply"), 1e3);
    m.value("solvers.gmres_iterations", last.iterations as f64);
    m.value("solvers.gmres_restarts", last.restarts as f64);
    m.value("solvers.relative_residual", last.residual);
    // solve minus Σ apply: the op span's self time
    m.sampled("solvers.self_s", &tr.self_seconds("op"));
    tree_metrics(
        &mut m,
        tr,
        &tree.expect("the staged replay ran at least once"),
    );
    fmm_metrics(&mut m, tr, &shape);
    engine_metrics(&mut m, &last.stats);
    // the analytic check: a unit sphere has C = 1
    m.value("check.rel_err_l2", (last.capacitance - 1.0).abs());

    probes::run(cfg, ctx, &mut m);
    trace_metrics(
        &mut m,
        ctx,
        &untraced_ms,
        program_spans,
        failed as f64 / attempted as f64,
        budget,
    );
    Report {
        attempted,
        failed,
        metrics: m.into_per_layer(),
        budget,
        notes: vec![describe(&last)],
    }
}
