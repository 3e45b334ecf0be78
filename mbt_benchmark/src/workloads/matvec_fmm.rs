//! `matvec_fmm` — potentials at every source of a uniform cube through
//! `Engine::query` at `Fixed(4)`, the shape the router sends to the
//! compiled FMM.
//!
//! The FMM plan build (316 M2L operators per level, the downward pass)
//! owns `cold_s`; L2P and P2P own the hot op. The treecode's compile/M2P
//! path is bypassed, so a `core` gain must show no change here.

use std::time::Instant;

use mbt_engine::{Accuracy, Backend, Engine, EngineConfig, QueryRequest};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::sort::{order_particles, CurveOrder};
use mbt_geometry::{Particle, Vec3};

use super::staged::{fmm_metrics, fmm_path, FmmShape};
use super::{
    engine_metrics, run_for, trace_metrics, Metrics, Report, RunConfig, Timings, TraceCtx,
    ERROR_SAMPLES,
};
use crate::harness::check::{direct_potentials, sample_indices, sampled_error};
use crate::harness::machine::ThreadBudget;
use crate::harness::probes;
use crate::harness::trace::{Tracer, NONE};

const ACCURACY: Accuracy = Accuracy::Fixed(4);
/// Sampled relative L2 error allowed against direct summation. The p = 4
/// FMM measures 3.5e-4 to 1.4e-3 on this instance depending on the seed
/// (random-sign charges cancel, so the norm the error is relative to is
/// small), so the other workloads' 1e-3 would fail some seeds.
const TOLERANCE: f64 = 5e-3;
/// Hot matvecs after each round's cold one: few, so that a run has many
/// rounds and with them many samples of set-up and of the cold matvec.
const HOT_OPS: usize = 5;

fn generate(cfg: &RunConfig) -> Vec<Particle> {
    uniform_cube(
        cfg.scale.pick(100_000, 5_000),
        1.0,
        ChargeModel::RandomSign { magnitude: 1.0 },
        cfg.sub_seed(1),
    )
}

struct Reference {
    sample: Vec<usize>,
    exact: Vec<f64>,
    seconds: f64,
}

fn reference(cfg: &RunConfig, particles: &[Particle]) -> Reference {
    let t0 = Instant::now();
    let sample = sample_indices(particles.len(), ERROR_SAMPLES, cfg.sub_seed(2));
    let points: Vec<Vec3> = sample.iter().map(|&i| particles[i].position).collect();
    let exact = direct_potentials(particles, &points);
    Reference {
        sample,
        exact,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// One round: a fresh engine, one cold matvec, `HOT_OPS` hot ones.
struct Round {
    engine: Engine,
    setup_s: f64,
    cold_s: f64,
    hot_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    worst_err: f64,
    backend: Option<Backend>,
}

fn round(cfg: &RunConfig, reference: &Reference, tracer: &Tracer, first_request: u64) -> Round {
    let t0 = Instant::now();
    let particles = generate(cfg);
    let targets: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let dataset = engine
        .register("matvec", particles)
        .expect("the generated particles are finite");
    let mut r = Round {
        engine,
        setup_s: t0.elapsed().as_secs_f64(),
        cold_s: 0.0,
        hot_ms: Vec::with_capacity(HOT_OPS),
        attempted: 0,
        failed: 0,
        worst_err: 0.0,
        backend: None,
    };
    for i in 0..=HOT_OPS {
        let request = QueryRequest::potentials(dataset, ACCURACY, targets.clone());
        let id = first_request + i as u64;
        // The cold matvec is not an op: its span has its own name.
        let span = tracer.span(if i == 0 { "cold" } else { "op" }, NONE, id);
        let t0 = Instant::now();
        let response = r.engine.query(request);
        let seconds = t0.elapsed().as_secs_f64();
        drop(span);
        r.attempted += 1;
        let err = response.as_ref().map_or(f64::INFINITY, |resp| {
            r.backend = Some(resp.backend);
            sampled_error(
                resp.output.potentials().unwrap_or(&[]),
                &reference.sample,
                &reference.exact,
            )
        });
        r.worst_err = r.worst_err.max(err);
        r.failed += u64::from(err > TOLERANCE);
        if i == 0 {
            r.cold_s = seconds;
        } else {
            r.hot_ms.push(seconds * 1e3);
        }
    }
    r
}

pub fn run(cfg: &RunConfig, ctx: Option<&mut TraceCtx>) -> Report {
    let budget = ThreadBudget::single_caller();
    let particles = generate(cfg);
    let reference = reference(cfg, &particles);
    match ctx {
        None => untraced(cfg, &particles, &reference, budget),
        Some(ctx) => traced(cfg, &particles, &reference, ctx, budget),
    }
}

fn untraced(
    cfg: &RunConfig,
    particles: &[Particle],
    reference: &Reference,
    budget: ThreadBudget,
) -> Report {
    let off = Tracer::new(false);
    let mut t = Timings::default();
    let mut worst = 0.0_f64;
    let mut backend = None;
    run_for(cfg.budget(1.0), 3, |_| {
        let r = round(cfg, reference, &off, 1);
        t.setup_s.push(r.setup_s);
        t.cold_s.push(r.cold_s);
        for ms in r.hot_ms {
            t.op(ms * 1e-3, particles.len());
        }
        t.attempted += r.attempted;
        t.failed += r.failed;
        worst = worst.max(r.worst_err);
        backend = r.backend;
    });
    let notes = vec![format!(
        "{} rounds of 1 cold + {HOT_OPS} hot matvecs on the {} backend; sampled rel L2 error \
         {worst:.3e} (tolerance {TOLERANCE:e})",
        t.setup_s.len(),
        backend.map_or("none", Backend::as_str),
    )];
    t.into_report(budget, notes)
}

fn traced(
    cfg: &RunConfig,
    particles: &[Particle],
    reference: &Reference,
    ctx: &mut TraceCtx,
    budget: ThreadBudget,
) -> Report {
    let mut m = Metrics::default();
    let off = Tracer::new(false);
    let plain = round(cfg, reference, &off, 1);
    ctx.start_program_spans();
    let traced = round(cfg, reference, &ctx.tracer, 1);
    let stats = traced.engine.stats();
    let mut program_spans = ctx.collect_program_spans(&traced.engine.spans());
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;

    // Staged replay: the same inputs through the public functions one
    // layer at a time.
    let tr = &ctx.tracer;
    let staged = tr.span("staged", NONE, NONE);
    let targets: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let mut shape = FmmShape::default();
    run_for(cfg.budget(0.2), 1, |i| {
        tr.within("geometry.hilbert_sort", staged.id(), NONE, || {
            order_particles(particles, CurveOrder::Hilbert)
        });
        let name = format!("staged-{i}");
        shape = fmm_path(
            tr,
            staged.id(),
            &engine,
            &name,
            particles,
            &targets,
            ACCURACY,
        );
    });
    program_spans += ctx.collect_program_spans(&[]);
    drop(staged);

    m.sampled(
        "geometry.hilbert_sort_s",
        &tr.seconds("geometry.hilbert_sort"),
    );
    fmm_metrics(&mut m, tr, &shape);
    engine_metrics(&mut m, &stats);
    m.value("check.rel_err_l2", plain.worst_err.max(traced.worst_err));
    m.value("check.reference_s", reference.seconds);

    probes::run(cfg, ctx, &mut m);
    trace_metrics(
        &mut m,
        ctx,
        &plain.hot_ms,
        program_spans,
        failed as f64 / attempted as f64,
        budget,
    );
    Report {
        attempted,
        failed,
        metrics: m.into_per_layer(),
        budget,
        notes: vec![format!(
            "traced round on the {} backend; sampled rel L2 error {:.3e}",
            traced.backend.map_or("none", Backend::as_str),
            traced.worst_err
        )],
    }
}
