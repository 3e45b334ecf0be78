//! `serve_mixed` and `serve_sharded` — one engine, warmed plans, pinned
//! tenant clients in a closed loop over a seeded request mix.
//!
//! Everything is a cache hit, so admission/WFQ, routing, cache lookup,
//! batcher/combiner, scatter, tenant billing and stats are a visible
//! share of each few-millisecond op. `serve_sharded` sends the identical
//! request stream at the same big dataset registered in 4 Hilbert shards:
//! partition, skeleton far field and per-shard fan-out replace the single
//! plan, so a batcher or fan-out change that helps one of the pair and
//! costs the other shows as a split.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mbt_engine::{
    evaluate_plan_batch, Accuracy, DatasetId, Engine, EngineConfig, EvalConfig, Plan, PlanKey,
    QueryKind, QueryOutput, QueryRequest, TenantConfig, TenantId,
};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_shard::{HilbertPartition, Skeleton};
use mbt_treecode::Treecode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::staged::{sort_and_tree, tree_metrics};
use super::{
    engine_metrics, run_for, trace_metrics, Metrics, Report, RunConfig, Timings, TraceCtx,
    ERROR_SAMPLES, REL_L2_TOLERANCE,
};
use crate::harness::check::{direct_field, sample_indices, ErrAcc};
use crate::harness::machine::{self, ThreadBudget};
use crate::harness::probes;
use crate::harness::stats::{self, median};
use crate::harness::trace::{Tracer, NONE};

/// Many, because set-up and cold are reported as the best repetition and
/// the sharded cold path is bimodal (how the four concurrent shard builds
/// land on the cores): the more repetitions, the surer one of them ran
/// undisturbed.
const SETUP_REPS: usize = 19;
/// Distinct requests each client draws from: the mix's exact shares
/// (36/12/6/6). A client picks its next request at random rather than in
/// a fixed cycle: two clients cycling in step lock into one of several
/// leader/follower patterns for a whole run, and the tail then differs by
/// 20 % from run to run; random picks visit every pattern within a run.
const POOL: usize = 60;
/// Slices of the timed phase; each yields one sample of the median, the
/// tail and the throughput.
const ROUNDS: usize = 5;

/// The four request classes and their share of the mix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// 60 %: potentials at 256 points, `Adaptive { p_min: 4 }`.
    Potential256,
    /// 20 %: fields at 128 points, `Fixed(6)`.
    Field128,
    /// 10 %: potentials at 64 points, `Fixed(6)`.
    Potential64,
    /// 10 %: potentials at 64 points on the tiny dataset (direct route).
    Tiny64,
}

impl Class {
    const ALL: [Class; 4] = [
        Class::Potential256,
        Class::Field128,
        Class::Potential64,
        Class::Tiny64,
    ];

    /// Tenths of the mix.
    fn share(self) -> usize {
        match self {
            Class::Potential256 => 6,
            Class::Field128 => 2,
            Class::Potential64 | Class::Tiny64 => 1,
        }
    }

    /// The pool's classes: the mix's exact shares, dominant class first
    /// (slot 0 is the cold request).
    fn pool() -> Vec<Class> {
        Class::ALL
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, c.share() * POOL / 10))
            .collect()
    }

    fn index(self) -> usize {
        Class::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every class is in ALL")
    }

    fn points(self) -> usize {
        match self {
            Class::Potential256 => 256,
            Class::Field128 => 128,
            Class::Potential64 | Class::Tiny64 => 64,
        }
    }

    fn accuracy(self) -> Accuracy {
        match self {
            Class::Potential256 => Accuracy::Adaptive { p_min: 4 },
            _ => Accuracy::Fixed(6),
        }
    }
}

/// One pre-generated request and the sampled references it is checked
/// against every time it is answered.
struct Entry {
    class: Class,
    points: Vec<Vec3>,
    /// `(point index, exact potential, exact gradient)`.
    checks: Vec<(usize, f64, Vec3)>,
}

struct Inputs {
    big: Vec<Particle>,
    /// `pools[client][slot]`.
    pools: Vec<Vec<Entry>>,
    reference_s: f64,
}

fn generate_particles(cfg: &RunConfig) -> (Vec<Particle>, Vec<Particle>) {
    let charges = ChargeModel::RandomSign { magnitude: 1.0 };
    (
        uniform_cube(cfg.scale.pick(40_000, 4_000), 1.0, charges, cfg.sub_seed(1)),
        uniform_cube(400, 1.0, charges, cfg.sub_seed(2)),
    )
}

fn generate(cfg: &RunConfig, clients: usize) -> Inputs {
    let (big, tiny) = generate_particles(cfg);
    let per_entry = ERROR_SAMPLES.div_ceil(clients * POOL);
    let t_ref = Instant::now();
    let pools = (0..clients)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(cfg.sub_seed(10 + c as u64));
            Class::pool()
                .into_iter()
                .enumerate()
                .map(|(slot, class)| {
                    let points: Vec<Vec3> = (0..class.points())
                        .map(|_| {
                            Vec3::new(
                                rng.gen_range(-1.2..=1.2),
                                rng.gen_range(-1.2..=1.2),
                                rng.gen_range(-1.2..=1.2),
                            )
                        })
                        .collect();
                    let sources = if class == Class::Tiny64 { &tiny } else { &big };
                    // The cold request is judged on its own, so it is checked
                    // at every point: over `per_entry` points the error norm is
                    // one seed in a few hundred away from a false alarm.
                    let wanted = if (c, slot) == (0, 0) {
                        points.len()
                    } else {
                        per_entry
                    };
                    let checks = sample_indices(points.len(), wanted, rng.gen())
                        .into_iter()
                        .map(|i| {
                            let (phi, grad) = direct_field(sources, points[i]);
                            (i, phi, grad)
                        })
                        .collect();
                    Entry {
                        class,
                        points,
                        checks,
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        big,
        pools,
        reference_s: t_ref.elapsed().as_secs_f64(),
    }
}

/// A served engine: both datasets registered, tenants known, every plan
/// the mix needs resident.
struct Served {
    engine: Engine,
    big: DatasetId,
    tiny: DatasetId,
    setup_s: f64,
    cold_s: f64,
    cold_ok: bool,
}

fn request(big: DatasetId, tiny: DatasetId, entry: &Entry, client: usize) -> QueryRequest {
    let dataset = if entry.class == Class::Tiny64 {
        tiny
    } else {
        big
    };
    let accuracy = entry.class.accuracy();
    let request = if entry.class == Class::Field128 {
        QueryRequest::fields(dataset, accuracy, entry.points.clone())
    } else {
        QueryRequest::potentials(dataset, accuracy, entry.points.clone())
    };
    request.with_tenant(TenantId(client as u32 + 1))
}

impl Served {
    fn request(&self, entry: &Entry, client: usize) -> QueryRequest {
        request(self.big, self.tiny, entry, client)
    }
}

/// Adds one answer's sampled points to `acc`; `false` if the answer has
/// the wrong shape.
fn check(entry: &Entry, output: &QueryOutput, acc: &mut ErrAcc) -> bool {
    if output.len() != entry.points.len() {
        return false;
    }
    match output {
        QueryOutput::Potentials(values) => {
            for &(i, phi, _) in &entry.checks {
                acc.add(values[i], phi);
            }
            entry.class != Class::Field128
        }
        QueryOutput::Fields(values) => {
            for &(i, phi, grad) in &entry.checks {
                acc.add(values[i].0, phi);
                acc.add_vec(values[i].1, grad);
            }
            entry.class == Class::Field128
        }
    }
}

/// Set-up: input generation, registration and warm-up on a fresh engine
/// — everything before the first timed op. `cold_s` runs from the big
/// dataset's raw particles to the first correct answer.
fn serve(cfg: &RunConfig, inputs: &Inputs, shards: usize, clients: usize) -> Served {
    let t0 = Instant::now();
    let (big, tiny) = generate_particles(cfg);
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let tiny = engine
        .register("tiny", tiny)
        .expect("the generated particles are finite");
    for c in 0..clients {
        engine.register_tenant(TenantId(c as u32 + 1), TenantConfig::weighted(1));
    }
    let t_cold = Instant::now();
    let big = engine
        .register_sharded("big", big, shards)
        .expect("the generated particles are finite");
    let first = &inputs.pools[0][0];
    let answer = engine.query(request(big, tiny, first, 0));
    let cold_s = t_cold.elapsed().as_secs_f64();
    let mut acc = ErrAcc::default();
    let cold_ok =
        answer.is_ok_and(|a| check(first, &a.output, &mut acc)) && acc.rel_l2() <= REL_L2_TOLERANCE;
    engine
        .warm(big, Accuracy::Fixed(6))
        .expect("the Fixed(6) plan builds");
    // one answer per class, so nothing is first-time in the timed loop
    for class in Class::ALL {
        if let Some(entry) = inputs.pools[0].iter().find(|e| e.class == class) {
            engine
                .query(request(big, tiny, entry, 0))
                .expect("warm-up queries are well-formed");
        }
    }
    Served {
        engine,
        big,
        tiny,
        setup_s: t0.elapsed().as_secs_f64(),
        cold_s,
        cold_ok,
    }
}

/// What one client saw during a timed phase.
#[derive(Default)]
struct ClientLog {
    /// Per op: seconds since the phase began when it completed, its
    /// latency in ms, and the target points it answered (0 if it failed).
    ops: Vec<(f64, f64, usize)>,
    failed: u64,
    /// Per class: ops answered and their accumulated sampled error.
    by_class: [(u64, ErrAcc); 4],
}

/// The closed loop: `budget.clients` threads, each pinned to a 1-thread
/// rayon pool, each sending its next request when the previous answer
/// arrives, until `duration` has passed.
fn timed_phase(
    served: &Served,
    inputs: &Inputs,
    budget: ThreadBudget,
    duration: Duration,
    order_seed: u64,
    tracer: &Tracer,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(budget.clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..budget.clients)
            .map(|c| {
                let barrier = &barrier;
                let pool = &inputs.pools[c];
                s.spawn(move || {
                    budget.install(|| {
                        let mut log = ClientLog::default();
                        let mut rng = StdRng::seed_from_u64(order_seed + c as u64);
                        barrier.wait();
                        let start = Instant::now();
                        let mut i = 0usize;
                        while start.elapsed() < duration {
                            let entry = &pool[rng.gen_range(0..POOL)];
                            let request = served.request(entry, c);
                            let id = ((c as u64 + 1) << 32) | (i as u64 + 1);
                            let span = tracer.span("op", NONE, id);
                            let t0 = Instant::now();
                            let answer = served.engine.query(request);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            drop(span);
                            let slot = &mut log.by_class[entry.class.index()];
                            let targets = match answer {
                                Ok(a) if check(entry, &a.output, &mut slot.1) => {
                                    slot.0 += 1;
                                    entry.points.len()
                                }
                                _ => {
                                    log.failed += 1;
                                    0
                                }
                            };
                            log.ops.push((start.elapsed().as_secs_f64(), ms, targets));
                            i += 1;
                        }
                        log
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// What a timed phase amounts to.
struct Phase {
    /// Every op's latency.
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The worst per-class sampled error.
    worst_err: f64,
}

/// Folds the clients' logs: cuts the phase into [`ROUNDS`] equal slices
/// and adds each slice's median, tail and throughput to `t`. A class
/// whose sampled error misses the tolerance fails every op it answered.
fn fold(logs: Vec<ClientLog>, duration: Duration, t: &mut Timings) -> Phase {
    let slice = duration.as_secs_f64() / ROUNDS as f64;
    let mut rounds: Vec<(Vec<f64>, usize)> = vec![(Vec::new(), 0); ROUNDS];
    let mut phase = Phase {
        op_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        worst_err: 0.0,
    };
    let mut by_class = [(0u64, ErrAcc::default()); 4];
    for log in logs {
        phase.attempted += log.ops.len() as u64;
        phase.failed += log.failed;
        for (done_s, ms, targets) in log.ops {
            phase.op_ms.push(ms);
            // an op that straddles the deadline belongs to the last slice
            let round = &mut rounds[((done_s / slice) as usize).min(ROUNDS - 1)];
            round.0.push(ms);
            round.1 += targets;
        }
        for (total, part) in by_class.iter_mut().zip(log.by_class) {
            total.0 += part.0;
            total.1.merge(part.1);
        }
    }
    for (ms, targets) in rounds.iter().filter(|r| !r.0.is_empty()) {
        t.p50_ms.push(median(ms));
        t.tail_ms.push(stats::tail(ms));
        t.targets_per_s.push(*targets as f64 / slice);
    }
    for (ops, acc) in by_class {
        if ops > 0 {
            phase.worst_err = phase.worst_err.max(acc.rel_l2());
            if acc.rel_l2() > REL_L2_TOLERANCE {
                phase.failed += ops;
            }
        }
    }
    phase
}

/// `serve_sharded` only: the sharded engine's answers against a plain
/// engine's on the same particles. Returns the relative L2 difference
/// over `entries` requests of client 0.
fn versus_unsharded(cfg: &RunConfig, served: &Served, inputs: &Inputs, entries: usize) -> f64 {
    let (big, _) = generate_particles(cfg);
    let plain = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let plain_big = plain
        .register("big", big)
        .expect("the generated particles are finite");
    let mut acc = ErrAcc::default();
    for entry in inputs.pools[0]
        .iter()
        .filter(|e| e.class != Class::Tiny64)
        .take(entries)
    {
        let sharded = served.engine.query(served.request(entry, 0));
        let mut request = served.request(entry, 0);
        request.dataset = plain_big;
        let (Ok(a), Ok(b)) = (sharded, plain.query(request)) else {
            return f64::INFINITY;
        };
        match (&a.output, &b.output) {
            (QueryOutput::Potentials(x), QueryOutput::Potentials(y)) if x.len() == y.len() => {
                for (x, y) in x.iter().zip(y) {
                    acc.add(*x, *y);
                }
            }
            (QueryOutput::Fields(x), QueryOutput::Fields(y)) if x.len() == y.len() => {
                for (x, y) in x.iter().zip(y) {
                    acc.add(x.0, y.0);
                    acc.add_vec(x.1, y.1);
                }
            }
            _ => return f64::INFINITY,
        }
    }
    acc.rel_l2()
}

pub fn run(cfg: &RunConfig, ctx: Option<&mut TraceCtx>, shards: usize) -> Report {
    let budget = ThreadBudget::multi_client();
    let inputs = generate(cfg, budget.clients);
    match ctx {
        None => untraced(cfg, &inputs, shards, budget),
        Some(ctx) => traced(cfg, &inputs, shards, ctx, budget),
    }
}

fn untraced(cfg: &RunConfig, inputs: &Inputs, shards: usize, budget: ThreadBudget) -> Report {
    let mut t = Timings::default();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let s = serve(cfg, inputs, shards, budget.clients);
        t.setup_s.push(s.setup_s);
        t.cold_s.push(s.cold_s);
        t.attempted += 1;
        t.failed += u64::from(!s.cold_ok);
        served = Some(s);
    }
    let served = served.expect("SETUP_REPS > 0");
    let off = Tracer::new(false);
    let duration = cfg.budget(1.0);
    let logs = timed_phase(&served, inputs, budget, duration, cfg.sub_seed(100), &off);
    t.peak_rss_mb = Some(machine::peak_rss_mb());
    let phase = fold(logs, duration, &mut t);
    t.attempted += phase.attempted;
    t.failed += phase.failed;
    let mut notes = vec![format!(
        "{} ops in {ROUNDS} rounds, sampled rel L2 error {:.3e} (tolerance {REL_L2_TOLERANCE:e})",
        phase.op_ms.len(),
        phase.worst_err
    )];
    if shards > 1 {
        let diff = versus_unsharded(cfg, &served, inputs, 16);
        t.attempted += 1;
        t.failed += u64::from(diff > REL_L2_TOLERANCE);
        notes.push(format!("sharded vs unsharded answers: rel L2 {diff:.3e}"));
    }
    t.into_report(budget, notes)
}

fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    shards: usize,
    ctx: &mut TraceCtx,
    budget: ThreadBudget,
) -> Report {
    let mut m = Metrics::default();
    let served = serve(cfg, inputs, shards, budget.clients);
    let mut t = Timings::default();
    let off = Tracer::new(false);
    let duration = cfg.budget(0.25);
    let plain = fold(
        timed_phase(&served, inputs, budget, duration, cfg.sub_seed(100), &off),
        duration,
        &mut t,
    );
    ctx.start_program_spans();
    let traced = fold(
        timed_phase(
            &served,
            inputs,
            budget,
            duration,
            cfg.sub_seed(200),
            &ctx.tracer,
        ),
        duration,
        &mut t,
    );
    t.attempted = plain.attempted + traced.attempted;
    t.failed = plain.failed + traced.failed;
    let worst = plain.worst_err.max(traced.worst_err);
    let untraced_ms = plain.op_ms;
    let stats = served.engine.stats();
    let mut program_spans = ctx.collect_program_spans(&served.engine.spans());

    // Staged replay: the big dataset through the public functions one
    // layer at a time. Builds run on the default pool, as set-up does;
    // sweeps run on a 1-thread pool, as a client does.
    let tr = &ctx.tracer;
    let staged = tr.span("staged", NONE, NONE);
    let accuracy = Class::Potential256.accuracy();
    let params = served
        .engine
        .resolve_params_for(served.big, accuracy)
        .expect("the big dataset is registered");
    let fresh = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let mut upward = None;
    let mut count_ratio = 0.0;
    let mut plan = None;
    run_for(cfg.budget(0.1), 2, |i| {
        let tree = sort_and_tree(tr, staged.id(), &inputs.big, params.leaf_capacity);
        let copy = inputs.big.clone();
        tr.within("engine.register", staged.id(), NONE, || {
            fresh.register_sharded(&format!("staged-{i}"), copy, shards)
        })
        .expect("the generated particles are finite");
        upward = Some(tr.within("core.upward", staged.id(), NONE, || {
            Treecode::from_tree(tree, params)
        }));
        plan = Some(
            tr.within("engine.plan_build", staged.id(), NONE, || {
                Plan::build(PlanKey::new(served.big, &params), &inputs.big, params)
            })
            .expect("the resolved parameters are valid"),
        );
        if shards > 1 {
            let bounds = served
                .engine
                .dataset(served.big)
                .expect("the big dataset is registered")
                .bounds;
            let partition = tr
                .within("shard.partition", staged.id(), NONE, || {
                    HilbertPartition::new(&inputs.big, &bounds, shards)
                })
                .expect("there are more particles than shards");
            count_ratio = partition.count_ratio();
            let treecodes: Vec<Treecode> = partition
                .split(&inputs.big)
                .iter()
                .map(|part| Treecode::new(part, params).expect("shards are non-empty"))
                .collect();
            let refs: Vec<&Treecode> = treecodes.iter().collect();
            tr.within("shard.skeleton", staged.id(), NONE, || {
                Skeleton::from_treecodes(&refs)
            });
        }
    });
    let plan = plan.expect("the staged replay ran at least once");
    let probe = &inputs.pools[0][0];
    budget.install(|| {
        run_for(cfg.budget(0.05), 20, |_| {
            tr.within("engine.sweep_only", staged.id(), NONE, || {
                evaluate_plan_batch(
                    &plan,
                    QueryKind::Potential,
                    &[&probe.points],
                    EvalConfig::of(&params),
                )
            });
        });
        run_for(cfg.budget(0.05), 20, |_| {
            let request = served.request(probe, 0);
            tr.within("engine.query_hot", staged.id(), NONE, || {
                served.engine.query(request)
            })
            .expect("the probe request is well-formed");
        });
    });
    program_spans += ctx.collect_program_spans(&[]);
    drop(staged);

    let upward = upward.expect("the staged replay ran at least once");
    tree_metrics(&mut m, tr, upward.tree());
    m.sampled("core.upward_s", &tr.seconds("core.upward"));
    m.sampled("engine.plan_build_s", &tr.seconds("engine.plan_build"));
    m.sampled("shard.partition_s", &tr.seconds("shard.partition"));
    m.value("shard.count_ratio", count_ratio);
    m.sampled("shard.skeleton_s", &tr.seconds("shard.skeleton"));
    let sweep = tr.seconds("engine.sweep_only");
    let query = tr.seconds("engine.query_hot");
    m.sampled_scaled("engine.sweep_only_ms", &sweep, 1e3);
    m.value(
        "engine.overhead_us",
        (median(&query) - median(&sweep)) * 1e6,
    );
    engine_metrics(&mut m, &stats);
    m.value("shard.fanout_p50_ms", stats.fanout_latency.p50_ms);
    m.value("shard.global_shortcuts", stats.global_shortcuts as f64);
    m.value("shard.skeleton_evals", stats.skeleton_evals as f64);
    m.value("shard.shard_opens", stats.shard_opens as f64);
    m.value("check.rel_err_l2", worst);
    m.value("check.reference_s", inputs.reference_s);
    if shards > 1 {
        let diff = versus_unsharded(cfg, &served, inputs, 8);
        t.attempted += 1;
        t.failed += u64::from(diff > REL_L2_TOLERANCE);
        m.value("check.vs_unsharded_l2", diff);
    }

    probes::run(cfg, ctx, &mut m);
    trace_metrics(
        &mut m,
        ctx,
        &untraced_ms,
        program_spans,
        t.failed as f64 / t.attempted as f64,
        budget,
    );
    Report {
        attempted: t.attempted,
        failed: t.failed,
        metrics: m.into_per_layer(),
        budget,
        notes: vec![format!(
            "sampled rel L2 error {worst:.3e} (tolerance {REL_L2_TOLERANCE:e})"
        )],
    }
}
