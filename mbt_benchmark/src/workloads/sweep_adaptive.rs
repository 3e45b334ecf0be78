//! `sweep_adaptive` — the paper's Table 1, unstructured instance: build a
//! treecode over overlapped Gaussians and sweep every source, per op.
//!
//! List compilation and the M2P/P2P batch kernels do most of the work;
//! the engine, the FMM, sharding and the BEM layer do none, so kernel,
//! SIMD and degree-policy changes show here and nowhere else.

use std::time::Instant;

use mbt_geometry::distribution::{gaussian, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_obs::Phase;
use mbt_treecode::{EvalMode, EvalStats, Treecode, TreecodeParams};

use super::staged::{sort_and_tree, tree_metrics};
use super::{
    run_for, trace_metrics, Metrics, Report, RunConfig, Timings, TraceCtx, ERROR_SAMPLES,
    REL_L2_TOLERANCE,
};
use crate::harness::check::{direct_potentials, sample_indices, sampled_error};
use crate::harness::machine::ThreadBudget;
use crate::harness::probes;
use crate::harness::stats::median;
use crate::harness::trace::{Tracer, NONE};

const SETUP_REPS: usize = 11;

struct Inputs {
    particles: Vec<Particle>,
    params: TreecodeParams,
    sample: Vec<usize>,
    exact: Vec<f64>,
}

/// Centres of the four overlapped Gaussians (σ = 0.5 each). The library's
/// `overlapped_gaussians` draws its centres from the seed too, which
/// changes how much the clouds overlap and with it the work of a sweep by
/// some 10 % from seed to seed; here the shape is fixed and the seed
/// draws only the particles, so runs with different seeds do comparable
/// work.
const CENTERS: [Vec3; 4] = [
    Vec3::new(-1.2, 0.4, -0.7),
    Vec3::new(0.9, -1.5, 0.3),
    Vec3::new(0.2, 1.1, 1.6),
    Vec3::new(1.8, 0.6, -1.3),
];

fn generate(cfg: &RunConfig) -> Vec<Particle> {
    let per_cloud = cfg.scale.pick(100_000, 5_000) / CENTERS.len();
    let unit = ChargeModel::UnitPositive { magnitude: 1.0 };
    CENTERS
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| gaussian(per_cloud, c, 0.5, unit, cfg.sub_seed(10 + i as u64)))
        .collect()
}

struct OpResult {
    seconds: f64,
    rel_err: f64,
    stats: EvalStats,
}

/// One op: raw particles to potentials at every source.
fn op(inputs: &Inputs, tracer: &Tracer, request: u64) -> Option<OpResult> {
    let span = tracer.span("op", NONE, request);
    let t0 = Instant::now();
    let tc = tracer
        .within("op.build", span.id(), request, || {
            Treecode::new(&inputs.particles, inputs.params)
        })
        .ok()?;
    let result = tracer.within("op.sweep", span.id(), request, || tc.potentials());
    let seconds = t0.elapsed().as_secs_f64();
    drop(span);
    Some(OpResult {
        seconds,
        rel_err: sampled_error(&result.values, &inputs.sample, &inputs.exact),
        stats: result.stats,
    })
}

pub fn run(cfg: &RunConfig, ctx: Option<&mut TraceCtx>) -> Report {
    let budget = ThreadBudget::single_caller();
    // Set-up is input generation: the op starts from raw particles.
    let mut setup_s = Vec::new();
    let mut particles = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        particles = generate(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t_ref = Instant::now();
    let sample = sample_indices(particles.len(), ERROR_SAMPLES, cfg.sub_seed(2));
    let points: Vec<_> = sample.iter().map(|&i| particles[i].position).collect();
    let exact = direct_potentials(&particles, &points);
    let reference_s = t_ref.elapsed().as_secs_f64();
    let inputs = Inputs {
        particles,
        params: TreecodeParams::adaptive(4, 0.6).with_eval_mode(EvalMode::Compiled),
        sample,
        exact,
    };
    match ctx {
        None => untraced(cfg, &inputs, setup_s, budget),
        Some(ctx) => traced(cfg, &inputs, reference_s, ctx, budget),
    }
}

fn untraced(cfg: &RunConfig, inputs: &Inputs, setup_s: Vec<f64>, budget: ThreadBudget) -> Report {
    let off = Tracer::new(false);
    let mut t = Timings {
        setup_s,
        ..Timings::default()
    };
    let mut worst = 0.0_f64;
    run_for(cfg.budget(1.0), 3, |i| {
        t.attempted += 1;
        match op(inputs, &off, i as u64 + 1) {
            Some(r) => {
                t.op(r.seconds, inputs.particles.len());
                worst = worst.max(r.rel_err);
                t.failed += u64::from(r.rel_err > REL_L2_TOLERANCE);
            }
            None => t.failed += 1,
        }
    });
    // There is no cache to warm: every op goes from raw inputs to an
    // answer, so the cold figure is the op itself, in seconds.
    t.cold_s = t.p50_ms.iter().map(|ms| ms * 1e-3).collect();
    let notes = vec![format!(
        "sampled rel L2 error {worst:.3e} (tolerance {REL_L2_TOLERANCE:e}) over {} ops",
        t.attempted
    )];
    t.into_report(budget, notes)
}

fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    reference_s: f64,
    ctx: &mut TraceCtx,
    budget: ThreadBudget,
) -> Report {
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rel_err = 0.0_f64;
    let mut last_stats = EvalStats::default();

    let off = Tracer::new(false);
    let mut untraced_ms = Vec::new();
    run_for(cfg.budget(0.2), 1, |i| {
        attempted += 1;
        match op(inputs, &off, i as u64 + 1) {
            Some(r) => {
                untraced_ms.push(r.seconds * 1e3);
                failed += u64::from(r.rel_err > REL_L2_TOLERANCE);
            }
            None => failed += 1,
        }
    });
    ctx.start_program_spans();
    run_for(cfg.budget(0.2), 1, |i| {
        attempted += 1;
        match op(inputs, &ctx.tracer, i as u64 + 1) {
            Some(r) => {
                rel_err = rel_err.max(r.rel_err);
                failed += u64::from(r.rel_err > REL_L2_TOLERANCE);
                last_stats = r.stats;
            }
            None => failed += 1,
        }
    });
    let mut program_spans = ctx.collect_program_spans(&[]);

    // Staged replay: the same inputs through the public functions one
    // layer at a time.
    let tr = &ctx.tracer;
    let staged = tr.span("staged", NONE, NONE);
    let mut compile_s = Vec::new();
    let mut execute_s = Vec::new();
    let mut tc_last = None;
    run_for(cfg.budget(0.1), 1, |_| {
        let tree = sort_and_tree(
            tr,
            staged.id(),
            &inputs.particles,
            inputs.params.leaf_capacity,
        );
        let tc = tr.within("core.upward", staged.id(), NONE, || {
            Treecode::from_tree(tree, inputs.params)
        });
        let t0 = Instant::now();
        let result = tr.within("core.sweep", staged.id(), NONE, || tc.potentials());
        let sweep_s = t0.elapsed().as_secs_f64();
        // `Phase::Compile` is CPU time summed over the sweep's workers,
        // so its wall share is that sum over the worker count.
        let spans = ctx.take_program_spans();
        let compile_cpu: f64 = spans
            .iter()
            .filter(|s| s.phase == Phase::Compile)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum();
        compile_s.push(compile_cpu);
        execute_s.push((sweep_s - compile_cpu / budget.threads as f64).max(0.0));
        program_spans += spans.len();
        tr.attach_program_spans(&spans);
        last_stats = result.stats;
        tc_last = Some(tc);
    });
    let tc = tc_last.expect("the staged replay ran at least once");
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon stand-in's pool construction cannot fail");
    one.install(|| tr.within("core.sweep_t1", staged.id(), NONE, || tc.potentials()));
    program_spans += ctx.collect_program_spans(&[]);
    drop(staged);

    tree_metrics(&mut m, tr, tc.tree());
    m.sampled("core.upward_s", &tr.seconds("core.upward"));
    m.value("core.coeff_count", tc.coefficient_count() as f64);
    m.sampled("core.sweep_s", &tr.seconds("core.sweep"));
    m.sampled("core.compile_s", &compile_s);
    m.sampled("core.execute_s", &execute_s);
    m.value("core.terms", last_stats.terms as f64);
    m.value("core.pc_interactions", last_stats.pc_interactions as f64);
    m.value("core.direct_pairs", last_stats.direct_pairs as f64);
    let execute = median(&execute_s);
    m.value("core.work_per_s", last_stats.work() as f64 / execute);
    let t1 = median(&tr.seconds("core.sweep_t1"));
    let tn = median(&tr.seconds("core.sweep"));
    m.value("core.sweep_t1_s", t1);
    m.value(
        "core.parallel_efficiency",
        t1 / (budget.threads as f64 * tn),
    );
    m.value("check.rel_err_l2", rel_err);
    m.value("check.reference_s", reference_s);

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
        notes: vec![format!(
            "sampled rel L2 error {rel_err:.3e} (tolerance {REL_L2_TOLERANCE:e})"
        )],
    }
}
