//! Two drivers, one pipeline: `Engine::query` and `Engine::query_batch`
//! run the same admit → resolve → prepare → sweep stages, so one request
//! sent through either must produce the same answer, the same response
//! metadata and the same counter movements on every target — plus the
//! admission and ordering contracts `query_batch` shares with `query`.

use std::time::{Duration, Instant};

use mbt_engine::{
    Accuracy, Backend, CacheOutcome, DatasetId, Engine, EngineConfig, EngineError, EngineStats,
    QueryKind, QueryRequest, TenantConfig, TenantId,
};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};

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

/// One serving shape: how its dataset is registered and queried, and the
/// backend the router picks for it.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    sources: usize,
    shards: usize,
    targets: usize,
    backend: Backend,
}

fn shapes() -> [Shape; 4] {
    [
        Shape {
            name: "direct",
            sources: 400,
            shards: 1,
            targets: 16,
            backend: Backend::Direct,
        },
        Shape {
            name: "treecode",
            sources: 2000,
            shards: 1,
            targets: 24,
            backend: Backend::Treecode,
        },
        Shape {
            name: "sharded",
            sources: 2000,
            shards: 4,
            targets: 24,
            backend: Backend::Treecode,
        },
        Shape {
            name: "fmm",
            sources: 4200,
            shards: 1,
            targets: 300,
            backend: Backend::Fmm,
        },
    ]
}

/// A fresh engine holding `shape`'s dataset, and the request against it.
fn setup(shape: Shape, kind: QueryKind, config: EngineConfig) -> (Engine, QueryRequest) {
    let engine = Engine::new(config).unwrap();
    let id = engine
        .register_sharded(shape.name, particles(shape.sources, 71), shape.shards)
        .unwrap();
    let pts = probe_points(shape.targets);
    let request = match kind {
        QueryKind::Potential => QueryRequest::potentials(id, Accuracy::Fixed(4), pts),
        QueryKind::Field => QueryRequest::fields(id, Accuracy::Fixed(4), pts),
    };
    (engine, request.with_tenant(TenantId(7)))
}

/// The counters one request must move identically through either driver
/// (time-valued charges and latencies excluded).
fn movements(s: &EngineStats, tenant: TenantId) -> [u64; 14] {
    let row = s
        .per_tenant
        .iter()
        .find(|t| t.tenant == tenant.0)
        .expect("the request's tenant has a row");
    [
        s.batches,
        s.batched_requests,
        s.eval_points,
        s.routed_direct,
        s.routed_treecode,
        s.routed_fmm,
        s.plan_builds,
        s.sharded_queries,
        s.admitted,
        s.shed_deadline,
        s.shed_overload,
        row.requests,
        row.admitted,
        row.shed,
    ]
}

#[test]
fn query_and_query_batch_of_one_agree_on_every_target() {
    for shape in shapes() {
        for kind in [QueryKind::Potential, QueryKind::Field] {
            let (solo_engine, request) = setup(shape, kind, EngineConfig::default());
            let (batch_engine, _) = setup(shape, kind, EngineConfig::default());
            let solo = solo_engine.query(request.clone()).unwrap();
            let mut batch = batch_engine.query_batch(std::slice::from_ref(&request));
            assert_eq!(batch.len(), 1);
            let batch = batch.pop().unwrap().unwrap();
            let case = format!("{} {kind:?}", shape.name);

            assert_eq!(solo.output, batch.output, "{case}: values differ");
            assert_eq!(solo.output.len(), shape.targets, "{case}");
            assert_eq!(solo.eval, batch.eval, "{case}: sweep counters differ");
            assert_eq!(solo.cache, batch.cache, "{case}");
            assert_eq!(solo.backend, batch.backend, "{case}");
            assert_eq!(solo.plan_bytes, batch.plan_bytes, "{case}");
            assert_eq!(solo.backend, shape.backend, "{case}");
            let direct = shape.backend == Backend::Direct;
            assert_eq!(solo.cache == CacheOutcome::Bypassed, direct, "{case}");

            let solo_moves = movements(&solo_engine.stats(), request.tenant);
            let batch_moves = movements(&batch_engine.stats(), request.tenant);
            assert_eq!(
                solo_moves, batch_moves,
                "{case}: counters moved differently"
            );
            // one request, admitted once; unsharded, it is one sweep of one
            // rider (a fan-out counts one batch per opened shard instead)
            if shape.shards == 1 {
                assert_eq!(solo_moves[..2], [1, 1], "{case}: batches");
            }
            assert_eq!(solo_moves[8], 1, "{case}: admitted");
            assert_eq!(solo_moves[11..], [1, 1, 0], "{case}: tenant row");
        }
    }
}

#[test]
fn expired_deadline_is_shed_before_the_sweep_on_every_target() {
    for shape in shapes() {
        for batched in [false, true] {
            let (engine, mut request) = setup(shape, QueryKind::Potential, EngineConfig::default());
            request.deadline = Some(
                Instant::now()
                    .checked_sub(Duration::from_millis(1))
                    .unwrap(),
            );
            let answer = if batched {
                engine.query_batch(&[request]).pop().unwrap()
            } else {
                engine.query(request)
            };
            let case = format!("{} batched={batched}", shape.name);
            assert_eq!(answer.unwrap_err(), EngineError::DeadlineExceeded, "{case}");
            let s = engine.stats();
            assert_eq!(s.batches, 0, "{case}: an expired request was evaluated");
            assert_eq!(s.shed_deadline, 1, "{case}");
            assert_eq!(s.in_flight, 0, "{case}: the slot was not returned");
        }
    }
}

/// A tenant whose one-byte plan budget is spent after its first build.
fn exhaust_budget(engine: &Engine, id: DatasetId, tenant: TenantId) {
    engine.register_tenant(
        tenant,
        TenantConfig {
            plan_bytes_quota: Some(1),
            ..TenantConfig::default()
        },
    );
    engine
        .query(
            QueryRequest::potentials(id, Accuracy::Fixed(4), probe_points(4)).with_tenant(tenant),
        )
        .unwrap();
}

#[test]
fn batch_with_nothing_to_serve_takes_no_slot() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register("t", particles(900, 3)).unwrap();
    let broke = TenantId(9);
    exhaust_budget(&engine, id, broke);
    let admitted = engine.stats().admitted;

    assert!(engine.query_batch(&[]).is_empty());
    assert_eq!(
        engine.stats().admitted,
        admitted,
        "an empty batch took a slot"
    );

    let request = QueryRequest::potentials(id, Accuracy::Fixed(4), probe_points(4));
    let shed = engine.query_batch(&[
        request.clone().with_tenant(broke),
        request.clone().with_tenant(broke),
    ]);
    for answer in &shed {
        assert!(
            matches!(answer, Err(EngineError::QuotaExceeded { tenant, .. }) if *tenant == broke),
            "{answer:?}"
        );
    }
    let s = engine.stats();
    assert_eq!(s.admitted, admitted, "an all-shed batch took a slot");
    assert_eq!(s.shed_quota, 2);

    // a mixed batch serves its solvent requests under one slot, and the
    // insolvent one is shed exactly as `query` sheds it
    let mixed = engine.query_batch(&[request.clone().with_tenant(broke), request.clone()]);
    assert!(matches!(mixed[0], Err(EngineError::QuotaExceeded { .. })));
    assert!(mixed[1].is_ok(), "{:?}", mixed[1]);
    assert_eq!(engine.stats().admitted, admitted + 1);
    assert!(matches!(
        engine.query(request.with_tenant(broke)),
        Err(EngineError::QuotaExceeded { .. })
    ));
    assert_eq!(engine.stats().admitted, admitted + 1);
}

/// Runs `arrival` against an engine with one slot and no queue while
/// another query holds the slot, and returns the stats afterwards. The
/// holder keeps its slot for its own sweep — 3000 targets, well over
/// 100 ms in the debug profile — so the arrival meets a full gate.
fn stats_after_arriving_at_a_full_gate(
    arrival: impl FnOnce(&Engine, &QueryRequest),
) -> EngineStats {
    let engine = Engine::new(EngineConfig {
        max_in_flight: 1,
        max_queued: 0,
        ..EngineConfig::default()
    })
    .unwrap();
    let id = engine.register("t", particles(900, 5)).unwrap();
    let request = QueryRequest::potentials(id, Accuracy::Fixed(4), probe_points(4));
    let long = QueryRequest::potentials(id, Accuracy::Fixed(4), probe_points(3000));
    std::thread::scope(|s| {
        let holder = s.spawn(|| engine.query(long).unwrap());
        while engine.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        arrival(&engine, &request);
        assert!(!holder.is_finished(), "the holder left before the arrival");
        holder.join().unwrap();
    });
    engine.stats()
}

#[test]
fn batch_shed_at_the_gate_shows_in_each_tenant_row() {
    let (a, b) = (TenantId(1), TenantId(2));
    let overloaded = |answer: &Result<_, EngineError>| {
        matches!(
            answer,
            Err(EngineError::Overloaded {
                in_flight: 1,
                queued: 0
            })
        )
    };
    let row = |stats: &EngineStats, t: TenantId| {
        let row = stats.per_tenant.iter().find(|r| r.tenant == t.0);
        row.map(|r| (r.requests, r.admitted, r.shed))
    };

    let batched = stats_after_arriving_at_a_full_gate(|engine, request| {
        let shed = engine.query_batch(&[
            request.clone().with_tenant(a),
            request.clone().with_tenant(b),
            request.clone().with_tenant(a),
        ]);
        assert!(shed.iter().all(overloaded), "{shed:?}");
    });
    assert_eq!(batched.shed_overload, 1, "one call, one gate shed");
    assert_eq!(row(&batched, a), Some((2, 0, 2)));
    assert_eq!(row(&batched, b), Some((1, 0, 1)));

    // exactly the trace the same request leaves when sent through `query`
    let solo = stats_after_arriving_at_a_full_gate(|engine, request| {
        let shed = engine.query(request.clone().with_tenant(b));
        assert!(overloaded(&shed), "{shed:?}");
    });
    assert_eq!(row(&solo, b), row(&batched, b));
}

#[test]
fn groups_are_served_in_order_of_first_appearance() {
    // the budget fits one plan: whichever group is served last stays
    // resident, so a random group order shows as a random survivor
    for round in 0..20 {
        let engine = Engine::new(EngineConfig {
            cache_budget_bytes: 1 << 20,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = engine.register("t", particles(3000, 37)).unwrap();
        let first = QueryRequest::potentials(id, Accuracy::Fixed(8), probe_points(4));
        let second = QueryRequest::potentials(id, Accuracy::Fixed(9), probe_points(4));
        let answers = engine.query_batch(&[first.clone(), second.clone(), first.clone()]);
        for answer in &answers {
            assert_eq!(answer.as_ref().unwrap().cache, CacheOutcome::Built);
        }
        let s = engine.stats();
        assert!(
            s.resident_bytes > (1 << 19),
            "instance too small to exercise eviction"
        );
        assert_eq!((s.plan_builds, s.evictions), (2, 1), "round {round}");
        // the second group was built last and evicted the first
        assert_eq!(
            engine.query(second).unwrap().cache,
            CacheOutcome::Hit,
            "round {round}: the later group's plan did not survive"
        );
        assert_eq!(
            engine.query(first).unwrap().cache,
            CacheOutcome::Built,
            "round {round}: the earlier group's plan was not the one evicted"
        );
    }
}
