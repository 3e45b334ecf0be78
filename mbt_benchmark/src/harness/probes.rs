//! Fixed-input kernel probes and the machine's own peaks.
//!
//! Every traced run, whatever its workload, times the same small inputs
//! through the layers' public kernels, and measures an FMA loop and a
//! STREAM triad in the same process, so a kernel rate has a denominator
//! taken on the same box at the same moment. The inputs do not depend on
//! the seed. Each probe is a batch of calls inside one span; the rate
//! reported is the work of a batch over the median batch time.
//!
//! "Terms" are counted as the paper counts them: `(p + 1)²` per
//! expansion evaluated, translated or formed (per source particle for
//! P2M, per lane for the grouped M2P kernel).

use std::hint::black_box;
use std::time::{Duration, Instant};

use mbt_engine::{
    Accuracy, Engine, EngineConfig, FairGate, Plan, PlanCache, PlanKey, QueryRequest,
    StatsCollector, TenantId,
};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_multipole::{
    l2p_potential_with, m2l_apply, m2p_potential_group_uniform, p2m_into, p2p_potential_span,
    p2p_potential_span_f32, simd, tri_len, BatchWorkspace, Complex, MultipoleExpansion, Workspace,
};
use mbt_obs::{Histogram, Phase, Recorder, RingRecorder, Span};
use mbt_treecode::direct::direct_potentials_at;
use mbt_treecode::Treecode;

use super::machine;
use super::stats::median;
use super::trace::{Tracer, NONE};
use crate::workloads::{run_for, Metrics, RunConfig, TraceCtx};

/// Degree of the translation and L2P probes.
const P: usize = 6;
/// Nominal flops per M2P term and per P2P pair, for the share-of-peak
/// figures only: per triangular coefficient the grouped kernel spends
/// about 12 flops (Legendre recurrence, complex rotation, accumulate),
/// and a degree-p expansion has about half as many triangular
/// coefficients as terms; a pair costs 3 subtractions, 3 multiplies, 2
/// adds, a square root and a divide.
const M2P_FLOPS_PER_TERM: f64 = 6.0;
const P2P_FLOPS_PER_PAIR: f64 = 10.0;

/// A deterministic point cloud: a Weyl sequence in `[-half, half]³`
/// about `center`.
fn cloud(n: usize, center: Vec3, half: f64) -> Vec<Vec3> {
    (1..=n)
        .map(|i| {
            let f = |a: f64| ((i as f64 * a).fract() * 2.0 - 1.0) * half;
            center + Vec3::new(f(0.754_877_666), f(0.569_840_291), f(0.362_437_104))
        })
        .collect()
}

fn charges(points: &[Vec3]) -> Vec<Particle> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| Particle::new(p, if i % 2 == 0 { 1.0 } else { -0.5 }))
        .collect()
}

struct Prober<'a> {
    tracer: &'a Tracer,
    parent: u64,
    /// Time one probe may take.
    slice: Duration,
}

/// Spans per probe: enough for a median, few enough to keep the trace
/// file readable.
const SPANS_PER_PROBE: usize = 15;

impl Prober<'_> {
    /// Median seconds of one batch. The batch is repeated inside each
    /// span as often as fits `SPANS_PER_PROBE` spans into the slice.
    fn time(&self, name: &'static str, mut batch: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        batch();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let per_span = self.slice.as_secs_f64() / SPANS_PER_PROBE as f64;
        let repeats = ((per_span / once) as usize).clamp(1, 1_000_000);
        run_for(self.slice, 3, |_| {
            self.tracer.within(name, self.parent, NONE, || {
                for _ in 0..repeats {
                    batch();
                }
            });
        });
        median(&self.tracer.seconds(name)) / repeats as f64
    }

    /// Work units per second: `work` per batch over the median batch.
    fn rate(&self, name: &'static str, work: f64, batch: impl FnMut()) -> f64 {
        work / self.time(name, batch)
    }
}

pub fn run(cfg: &RunConfig, ctx: &TraceCtx, m: &mut Metrics) {
    let root = ctx.tracer.span("probes", NONE, NONE);
    let probe = Prober {
        tracer: &ctx.tracer,
        parent: root.id(),
        slice: cfg.budget(0.15 / 24.0),
    };
    expansions(&probe, m);
    let (m2p_p8, p2p_f64) = batch_kernels(&probe, m);
    let fma = machine_peaks(&probe, m);
    m.value(
        "multipole.m2p_share_of_peak",
        m2p_p8 * M2P_FLOPS_PER_TERM / (fma * 1e9),
    );
    m.value(
        "multipole.p2p_share_of_peak",
        p2p_f64 * P2P_FLOPS_PER_PAIR / (fma * 1e9),
    );
    core_probes(cfg, &probe, m);
    engine_probes(&probe, m);
}

/// P2M, M2M, M2L, L2L and L2P at degree 6 through the scalar expansion
/// API the upward pass and the reference FMM use.
fn expansions(probe: &Prober<'_>, m: &mut Metrics) {
    let terms = ((P + 1) * (P + 1)) as f64;
    let child_center = Vec3::new(0.25, 0.25, 0.25);
    let leaf = charges(&cloud(32, child_center, 0.25));
    let mut ws = Workspace::new();
    let mut coeffs = vec![Complex::ZERO; tri_len(P)];

    const CALLS: usize = 200;
    let rate = probe.rate("probe.p2m", CALLS as f64 * 32.0 * terms, || {
        for _ in 0..CALLS {
            p2m_into(
                black_box(&mut coeffs),
                child_center,
                P,
                black_box(&leaf),
                &mut ws,
            );
        }
    });
    m.value("multipole.p2m_terms_per_s", rate);

    let child = MultipoleExpansion::from_particles(child_center, P, &leaf);
    let mut parent = vec![Complex::ZERO; tri_len(P)];
    let rate = probe.rate("probe.m2m", CALLS as f64 * terms, || {
        for _ in 0..CALLS {
            black_box(&child)
                .as_ref()
                .m2m_accumulate_into(Vec3::ZERO, P, black_box(&mut parent));
        }
    });
    m.value("multipole.m2m_terms_per_s", rate);

    // a well-separated cell two edges away, as in an FMM interaction list
    let local_center = Vec3::new(1.25, 0.25, -0.75);
    let rate = probe.rate("probe.m2l", CALLS as f64 * terms, || {
        for _ in 0..CALLS {
            black_box(black_box(&child).to_local(local_center, P));
        }
    });
    m.value("multipole.m2l_terms_per_s", rate);

    let local = child.to_local(local_center, P);
    let child_local_center = local_center + Vec3::new(0.125, -0.125, 0.125);
    let rate = probe.rate("probe.l2l", CALLS as f64 * terms, || {
        for _ in 0..CALLS {
            black_box(black_box(&local).translated(child_local_center, P));
        }
    });
    m.value("multipole.l2l_terms_per_s", rate);

    let local_coeffs: Vec<Complex> = (0..tri_len(P))
        .map(|i| Complex::new(1.0 / (i + 1) as f64, 0.5 / (i + 2) as f64))
        .collect();
    let points = cloud(1_000, local_center, 0.12);
    let rate = probe.rate("probe.l2p", points.len() as f64 * terms, || {
        let mut sum = 0.0;
        for &x in &points {
            sum += l2p_potential_with(local_center, P, black_box(&local_coeffs), x, &mut ws);
        }
        black_box(sum);
    });
    m.value("multipole.l2p_terms_per_s", rate);
}

/// The SoA batch kernels the compiled sweeps spend their time in.
/// Returns `(m2p p=8 terms/s, p2p f64 pairs/s)` for the share-of-peak
/// figures.
fn batch_kernels(probe: &Prober<'_>, m: &mut Metrics) -> (f64, f64) {
    fn m2p<const L: usize>(probe: &Prober<'_>, name: &'static str, degree: usize) -> f64 {
        const GROUPS: usize = 2_000;
        let center = Vec3::new(0.1, -0.2, 0.05);
        let coeffs: Vec<Complex> = (0..tri_len(degree))
            .map(|i| Complex::new(1.0 / (i + 1) as f64, 0.5 / (i + 2) as f64))
            .collect();
        // targets at two to three cluster radii, as the MAC admits them
        let targets = cloud(GROUPS * L, center + Vec3::new(2.5, 0.0, 0.0), 0.5);
        let mut ws = BatchWorkspace::new();
        ws.prepare_degree_lanes(degree, L);
        let terms = (GROUPS * L * (degree + 1) * (degree + 1)) as f64;
        probe.rate(name, terms, || {
            let mut sum = 0.0;
            for group in targets.chunks_exact(L) {
                let points: &[Vec3; L] = group.try_into().expect("chunks_exact yields L points");
                let phi =
                    m2p_potential_group_uniform::<L>(center, black_box(&coeffs), points, &mut ws);
                sum += phi[0];
            }
            black_box(sum);
        })
    }
    // the lane width the sweeps use at this machine's dispatch level
    let (p4, p8) = if simd::m2p_lanes() == 8 {
        (
            m2p::<8>(probe, "probe.m2p_p4", 4),
            m2p::<8>(probe, "probe.m2p_p8", 8),
        )
    } else {
        (
            m2p::<4>(probe, "probe.m2p_p4", 4),
            m2p::<4>(probe, "probe.m2p_p8", 8),
        )
    };
    m.value("multipole.m2p_p4_terms_per_s", p4);
    m.value("multipole.m2p_p8_terms_per_s", p8);

    const SPAN: usize = 64;
    const CALLS: usize = 5_000;
    let sources = cloud(SPAN, Vec3::ZERO, 0.1);
    let (xs, ys, zs): (Vec<f64>, Vec<f64>, Vec<f64>) = (
        sources.iter().map(|p| p.x).collect(),
        sources.iter().map(|p| p.y).collect(),
        sources.iter().map(|p| p.z).collect(),
    );
    let qs: Vec<f64> = (0..SPAN).map(|i| 1.0 - (i % 3) as f64).collect();
    let targets = cloud(CALLS, Vec3::new(0.3, 0.3, 0.3), 0.1);
    let p2p_f64 = probe.rate("probe.p2p_f64", (CALLS * SPAN) as f64, || {
        let mut sum = 0.0;
        for &t in &targets {
            sum += p2p_potential_span(black_box(&xs), &ys, &zs, &qs, t, 0.0);
        }
        black_box(sum);
    });
    m.value("multipole.p2p_f64_pairs_per_s", p2p_f64);
    let narrow = |v: &[f64]| -> Vec<f32> { v.iter().map(|&x| x as f32).collect() };
    let (xs32, ys32, zs32, qs32) = (narrow(&xs), narrow(&ys), narrow(&zs), narrow(&qs));
    let rate = probe.rate("probe.p2p_f32", (CALLS * SPAN) as f64, || {
        let mut sum = 0.0;
        for &t in &targets {
            sum += p2p_potential_span_f32(black_box(&xs32), &ys32, &zs32, &qs32, t, 0.0);
        }
        black_box(sum);
    });
    m.value("multipole.p2p_f32_pairs_per_s", rate);

    // one dense p = 4 translation operator over interleaved (re, im)
    // spans: 30 × 30 reals, 2 flops per entry
    const APPLIES: usize = 20_000;
    let dim = 2 * tri_len(4);
    let op: Vec<f64> = (0..dim * dim).map(|i| 1.0 / (1 + i % 17) as f64).collect();
    let x: Vec<f64> = (0..dim).map(|i| 0.5 + (i % 5) as f64).collect();
    let mut y = vec![0.0; dim];
    let flops = (APPLIES * 2 * dim * dim) as f64;
    let rate = probe.rate("probe.m2l_apply", flops, || {
        for _ in 0..APPLIES {
            m2l_apply(black_box(&op), black_box(&x), &mut y);
        }
        // keep the accumulator bounded across batches
        y.fill(0.0);
    });
    m.value("multipole.m2l_apply_gflops", rate * 1e-9);
    (p8, p2p_f64)
}

/// One thread's fused multiply-add peak and the STREAM triad bandwidth.
/// Returns the FMA peak in GFLOP/s.
fn machine_peaks(probe: &Prober<'_>, m: &mut Metrics) -> f64 {
    // 8 independent chains of 8 lanes: enough to cover the FMA latency
    // on two ports at any vector width up to 512 bits
    const CHAINS: usize = 8;
    const LANES: usize = 8;
    const ITERS: usize = 200_000;
    let a = black_box(1.000_000_1_f64);
    let b = black_box(1e-9_f64);
    let fma = probe.rate("probe.fma", (ITERS * CHAINS * LANES * 2) as f64, || {
        let mut acc = [[1.0_f64; LANES]; CHAINS];
        for _ in 0..ITERS {
            for chain in &mut acc {
                for v in chain.iter_mut() {
                    *v = v.mul_add(a, b);
                }
            }
        }
        black_box(acc);
    }) * 1e-9;
    m.value("machine.fma_gflops", fma);

    // Triad over arrays at least four times the last-level cache, capped
    // at 256 MiB an array so a VM that reports a whole socket's L3 does
    // not make the probe allocate gigabytes; both sizes are reported.
    let llc = machine::llc_bytes().unwrap_or(32 << 20);
    let bytes = (4 * llc).clamp(32 << 20, 256 << 20);
    let n = bytes / 8;
    let b_arr = vec![1.5_f64; n];
    let c_arr = vec![0.25_f64; n];
    let mut a_arr = vec![0.0_f64; n];
    let scalar = black_box(3.0_f64);
    let gbs = probe.rate("probe.stream_triad", (3 * n * 8) as f64, || {
        for ((a, b), c) in a_arr.iter_mut().zip(&b_arr).zip(&c_arr) {
            *a = *b + scalar * *c;
        }
        black_box(&mut a_arr);
    }) * 1e-9;
    m.value("machine.stream_gbs", gbs);
    m.value("machine.llc_mb", llc as f64 / f64::from(1 << 20));
    m.value("machine.stream_array_mb", bytes as f64 / f64::from(1 << 20));
    fma
}

/// The treecode's few-target path on the 40 000-particle plan the serve
/// workloads use (on a 1-thread pool, as a client runs it), and direct
/// summation's pair rate, the router's denominator.
fn core_probes(cfg: &RunConfig, probe: &Prober<'_>, m: &mut Metrics) {
    let particles = uniform_cube(
        cfg.scale.pick(40_000, 4_000),
        1.0,
        ChargeModel::RandomSign { magnitude: 1.0 },
        42,
    );
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let params = engine.resolve_params(Accuracy::Adaptive { p_min: 4 });
    let tc = Treecode::new(&particles, params).expect("the generated particles are finite");
    let points = cloud(256, Vec3::ZERO, 1.2);
    let mut out = vec![0.0; points.len()];
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon stand-in's pool construction cannot fail");
    let seconds = one.install(|| {
        probe.time("probe.few_target", || {
            black_box(tc.potentials_at_into(&points, &mut out));
        })
    });
    m.value(
        "core.few_target_us_per_point",
        seconds * 1e6 / points.len() as f64,
    );

    let side = cfg.scale.pick(2_000, 500);
    let sources = charges(&cloud(side, Vec3::ZERO, 1.0));
    let targets = cloud(side, Vec3::new(0.01, 0.02, 0.03), 1.0);
    let rate = probe.rate("probe.direct", (side * side) as f64, || {
        black_box(direct_potentials_at(&sources, &targets));
    });
    m.value("core.direct_pairs_per_s", rate);
}

/// The engine's fixed per-request costs, uncontended, and the recording
/// primitives under them.
fn engine_probes(probe: &Prober<'_>, m: &mut Metrics) {
    const CALLS: usize = 10_000;
    let gate = FairGate::new(32, 1024);
    let seconds = probe.time("probe.gate", || {
        for _ in 0..CALLS {
            black_box(gate.admit(TenantId(1), 1, None));
            gate.release();
        }
    });
    m.value("engine.gate_ns", seconds * 1e9 / CALLS as f64);

    let particles = uniform_cube(2_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 42);
    let engine = Engine::new(EngineConfig::default()).expect("the default config is valid");
    let dataset = engine
        .register("probe", particles.clone())
        .expect("the generated particles are finite");
    let params = engine.resolve_params(Accuracy::Fixed(4));
    let key = PlanKey::new(dataset, &params);
    let cache = PlanCache::new(64 << 20);
    let collector = StatsCollector::default();
    let build = || Plan::build(key, &particles, params);
    cache
        .get_or_build(key, &collector, build)
        .expect("the resolved parameters are valid");
    let seconds = probe.time("probe.cache_hit", || {
        for _ in 0..CALLS {
            black_box(cache.get_or_build(key, &collector, build).is_ok());
        }
    });
    m.value("engine.cache_hit_ns", seconds * 1e9 / CALLS as f64);

    engine
        .query(QueryRequest::potentials(
            dataset,
            Accuracy::Fixed(4),
            cloud(64, Vec3::ZERO, 1.2),
        ))
        .expect("the probe request is well-formed");
    const SNAPSHOTS: usize = 100;
    let seconds = probe.time("probe.stats_snapshot", || {
        for _ in 0..SNAPSHOTS {
            black_box(engine.stats());
        }
    });
    m.value("engine.stats_snapshot_us", seconds * 1e6 / SNAPSHOTS as f64);
    let stats = engine.stats();
    let seconds = probe.time("probe.export", || {
        for _ in 0..SNAPSHOTS {
            black_box(stats.to_prometheus());
            black_box(stats.to_json());
        }
    });
    m.value("engine.export_us", seconds * 1e6 / SNAPSHOTS as f64);

    const RECORDS: usize = 100_000;
    let ring = RingRecorder::new(1024);
    let seconds = probe.time("probe.ring_push", || {
        for i in 0..RECORDS {
            black_box(&ring).record(Span {
                phase: Phase::Sweep,
                start_ns: i as u64,
                dur_ns: 1_000,
            });
        }
    });
    m.value("obs.ring_push_ns", seconds * 1e9 / RECORDS as f64);
    let hist = Histogram::new();
    let seconds = probe.time("probe.hist_record", || {
        // through `black_box`, or the never-read histogram is optimised away
        for i in 0..RECORDS {
            black_box(&hist).record_ns(1_000 + i as u64);
        }
    });
    m.value("obs.hist_record_ns", seconds * 1e9 / RECORDS as f64);
}
