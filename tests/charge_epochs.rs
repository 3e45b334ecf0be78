//! Charge epochs under time and under contention, through the `mbt`
//! facade so the tier-1 command runs them: a long run of BEM matvecs
//! must leave the engine exactly as large as the second one did, and
//! queries racing charge updates must each answer from exactly one
//! charge vector.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use mbt::bem::EngineSingleLayer;
use mbt::engine::Backend;
use mbt::prelude::*;

fn sphere(subdivisions: u32) -> SingleLayerGeometry {
    SingleLayerGeometry::new(shapes::icosphere(subdivisions, 1.0), QuadRule::SixPoint)
}

fn density(dim: usize, k: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| 1.0 + 0.5 * (0.1 * i as f64 + k as f64).sin())
        .collect()
}

/// What a long-running operator must not grow.
fn footprint(s: &EngineStats) -> (usize, usize, usize, usize, usize) {
    (
        s.datasets,
        s.resident_plans,
        s.resident_bytes,
        s.per_plan.len(),
        s.per_dataset.len(),
    )
}

#[test]
fn a_hundred_matvecs_leave_the_engine_as_large_as_two() {
    // icosphere(2): 1920 Gauss sources, served by a cached treecode plan
    let g = sphere(2);
    let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
    let op = EngineSingleLayer::new(g.clone(), Arc::clone(&engine), Accuracy::Fixed(4));
    let mut after_two = None;
    for k in 0..100 {
        let y = op.apply_vec(&density(op.dim(), k));
        assert!(y.iter().all(|v| v.is_finite()));
        if k == 1 {
            after_two = Some(footprint(&engine.stats()));
        }
    }
    let s = engine.stats();
    assert_eq!(Some(footprint(&s)), after_two, "the engine grew");
    assert_eq!((s.datasets, s.resident_plans), (1, 1));
    assert_eq!((s.plan_builds, s.plan_recharges), (1, 99));
    assert_eq!((s.evictions, s.datasets_retired), (0, 0));
    assert_eq!(op.applications(), 100);

    // the hundredth answer is what a first application would give
    let fresh = EngineSingleLayer::new(
        g,
        Arc::new(Engine::new(EngineConfig::default()).unwrap()),
        Accuracy::Fixed(4),
    );
    let x = density(op.dim(), 99);
    assert_eq!(op.apply_vec(&x), fresh.apply_vec(&x));

    drop(op);
    let s = engine.stats();
    assert_eq!(
        footprint(&s),
        (0, 0, 0, 0, 0),
        "dropping the operator frees it"
    );
    assert_eq!(s.datasets_retired, 1);
}

#[test]
fn fmm_routed_matvecs_recharge_one_plan() {
    // icosphere(3): 7680 Gauss sources against 642 vertices — the paper's
    // Table 3 shape, which the router sends to the compiled FMM
    let g = sphere(3);
    let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
    let op = EngineSingleLayer::new(g.clone(), Arc::clone(&engine), Accuracy::Fixed(4));
    let mut bytes = Vec::new();
    let mut last = Vec::new();
    for k in 0..4 {
        last = op.apply_vec(&density(op.dim(), k));
        bytes.push(engine.stats().resident_bytes);
    }
    assert_eq!(op.last_backend(), Some(Backend::Fmm));
    let s = engine.stats();
    assert_eq!((s.plan_builds, s.plan_recharges, s.routed_fmm), (1, 3, 4));
    assert_eq!((s.datasets, s.resident_plans), (1, 1));
    assert!(bytes.iter().all(|&b| b == bytes[0]), "{bytes:?}");
    assert!(s.shared_operator_bytes > 0, "the unit table is accounted");
    assert!(
        s.resident_bytes < 3 << 20,
        "no operator copy lives in the plan: {} bytes",
        s.resident_bytes
    );

    let fresh = EngineSingleLayer::new(
        g,
        Arc::new(Engine::new(EngineConfig::default()).unwrap()),
        Accuracy::Fixed(4),
    );
    assert_eq!(last, fresh.apply_vec(&density(op.dim(), 3)));
}

#[test]
fn racing_queries_each_answer_from_exactly_one_epoch() {
    const UPDATES: usize = 24;
    const QUERIERS: usize = 4;
    // a direct-served and a plan-served dataset
    for sources in [300usize, 1500] {
        let ps = uniform_cube(sources, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 5);
        let vectors: [Vec<f64>; 3] = [
            ps.iter().map(|p| p.charge).collect(),
            (0..sources).map(|i| (i as f64 * 0.3).cos()).collect(),
            (0..sources)
                .map(|i| if i % 2 == 0 { 3.0 } else { -3.0 + 1e-6 })
                .collect(),
        ];
        let points: Vec<Vec3> = (0..12)
            .map(|i| Vec3::new(0.07 * f64::from(i) - 0.4, 0.3, -0.2))
            .collect();
        let request =
            |id| QueryRequest::potentials(id, Accuracy::Adaptive { p_min: 3 }, points.clone());

        // what each charge vector answers, from engines that never saw
        // an update
        let expected: Vec<QueryOutput> = vectors
            .iter()
            .map(|q| {
                let fresh = Engine::new(EngineConfig::default()).unwrap();
                let particles = ps
                    .iter()
                    .zip(q)
                    .map(|(p, &q)| Particle::new(p.position, q))
                    .collect();
                let id = fresh.register("fresh", particles).unwrap();
                fresh.query(request(id)).unwrap().output
            })
            .collect();

        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("raced", ps.clone()).unwrap();
        assert_eq!(engine.query(request(id)).unwrap().output, expected[0]);

        let start = Barrier::new(QUERIERS + 1);
        let done = AtomicBool::new(false);
        let answered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let queriers: Vec<_> = (0..QUERIERS)
                .map(|t| {
                    let (engine, start, done, answered) = (&engine, &start, &done, &answered);
                    let (request, expected) = (&request, &expected);
                    s.spawn(move || {
                        start.wait();
                        let mut newest = 0u64;
                        let mut seen = 0usize;
                        while !done.load(Ordering::SeqCst) {
                            // both drivers, alternating per thread and turn
                            let r = if (t + seen) & 1 == 0 {
                                engine.query(request(id)).unwrap()
                            } else {
                                engine.query_batch(&[request(id)]).pop().unwrap().unwrap()
                            };
                            assert_eq!(
                                r.output,
                                expected[r.epoch as usize % 3],
                                "epoch {} answered from another charge vector, or a mixture",
                                r.epoch
                            );
                            assert!(
                                r.epoch >= newest,
                                "epoch went back: {newest} -> {}",
                                r.epoch
                            );
                            newest = r.epoch;
                            seen += 1;
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        (newest, seen)
                    })
                })
                .collect();

            start.wait();
            for k in 1..=UPDATES {
                assert_eq!(engine.update_charges(id, &vectors[k % 3]), Ok(k as u64));
                // let every epoch meet a few queries before the next one
                // (a querier that failed an assertion has stopped answering:
                // stop waiting and let the join below report it)
                let mark = answered.load(Ordering::SeqCst);
                while answered.load(Ordering::SeqCst) < mark + QUERIERS
                    && !queriers
                        .iter()
                        .any(std::thread::ScopedJoinHandle::is_finished)
                {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::SeqCst);
            for q in queriers {
                let (newest, seen) = q.join().unwrap();
                assert!(seen > 0 && newest <= UPDATES as u64);
            }
        });

        // read-your-writes: a query that starts after the last update
        // returned sees exactly that epoch
        let r = engine.query(request(id)).unwrap();
        assert_eq!(r.epoch, UPDATES as u64);
        assert_eq!(r.output, expected[UPDATES % 3]);
        let s = engine.stats();
        assert_eq!(s.datasets, 1);
        assert!(s.resident_plans <= 1);
        assert!(s.plan_builds <= 1, "{} geometry builds", s.plan_builds);
        assert_eq!(s.worker_panics, 0);
    }
}
