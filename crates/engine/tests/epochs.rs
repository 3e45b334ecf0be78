//! Charge epochs, held to one oracle: after `update_charges(q)` every
//! answer must be bit-identical to what a *fresh* engine that registered
//! the same positions with `q` would give — across every target, degree
//! policy, query kind and driver — however the engine got there (a plan
//! recharged over cached geometry, a rebuilt degree vector, a flipped
//! f32 near-field tier, an FMM that fell back to a treecode and came
//! back). Plus the typed refusals at the new boundary and dataset
//! retirement.

use mbt_engine::{
    fmm_params_for, Accuracy, Backend, CacheOutcome, DatasetId, Engine, EngineConfig, EngineError,
    QueryKind, QueryRequest, QueryResponse,
};
use mbt_fmm::{CompiledFmm, FmmError};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_treecode::Precision;

fn engine() -> Engine {
    Engine::new(EngineConfig::default()).unwrap()
}

/// A thin slab of random-sign charges. The slab keeps the FMM's occupied
/// cells (and so its M2L list, which dominates an unoptimized test run)
/// few; the small magnitudes keep the degrees `Tolerance` resolves — it
/// reads absolute charge — modest.
fn particles(n: usize) -> Vec<Particle> {
    uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1e-5 }, 71)
        .into_iter()
        .map(|p| {
            let c = p.position;
            Particle::new(Vec3::new(c.x, c.y, 0.1 * c.z), p.charge)
        })
        .collect()
}

fn with_charges(ps: &[Particle], charges: &[f64]) -> Vec<Particle> {
    ps.iter()
        .zip(charges)
        .map(|(p, &q)| Particle::new(p.position, q))
        .collect()
}

fn probe_points(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.37;
            Vec3::new(0.9 * t.cos(), 0.9 * t.sin(), 0.05 + 0.001 * i as f64)
        })
        .collect()
}

/// The successive updates, each aimed at one thing a charge change can
/// move besides the coefficients themselves.
fn updates(ps: &[Particle]) -> [(&'static str, Vec<f64>); 4] {
    // all the weight in one corner: cluster weights — and with them the
    // adaptive and tolerance degree vectors — change shape
    let corner = ps
        .iter()
        .map(|p| {
            if p.position.x > 0.25 && p.position.y > 0.25 {
                1e-4
            } else {
                1e-9
            }
        })
        .collect();
    // one charge past the f32 near-field admission threshold of
    // `Tolerance {1e-4}` (q_max ≲ 0.015 for the plan-served shapes here),
    // the rest as registered
    let mut spike: Vec<f64> = ps.iter().map(|p| p.charge).collect();
    spike[ps.len() / 2] = 0.02;
    // unit-scale charges: under `Tolerance {1e-4}` the FMM's resolved
    // degrees pass the compiled cap, so the FMM-keyed plan falls back to
    // a treecode — and must come back to an FMM on the next update
    let loud = ps.iter().map(|p| p.charge * 1e5).collect();
    // Σ|q| ≫ |Σq|
    let cancelling = (0..ps.len())
        .map(|i| {
            if i % 2 == 0 {
                2.5e-4
            } else {
                -2.5e-4 * (1.0 - 1e-9)
            }
        })
        .collect();
    [
        ("corner", corner),
        ("spike", spike),
        ("loud", loud),
        ("cancelling", cancelling),
    ]
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    sources: usize,
    targets: usize,
    backend: Backend,
}

fn shapes() -> [Shape; 3] {
    [
        Shape {
            name: "direct",
            sources: 400,
            targets: 16,
            backend: Backend::Direct,
        },
        Shape {
            name: "treecode",
            sources: 2000,
            targets: 24,
            backend: Backend::Treecode,
        },
        Shape {
            name: "fmm",
            sources: 4200,
            targets: 300,
            backend: Backend::Fmm,
        },
    ]
}

const ACCURACIES: [Accuracy; 3] = [
    Accuracy::Fixed(6),
    Accuracy::Adaptive { p_min: 4 },
    Accuracy::Tolerance { tol: 1e-4 },
];

/// The same request through each driver and each kind, in an order that
/// rotates with `first` so every combination gets to be the one that
/// finds the plan an epoch behind.
fn ask_all(
    engine: &Engine,
    id: DatasetId,
    accuracy: Accuracy,
    points: &[Vec3],
    first: usize,
) -> Vec<(String, QueryResponse)> {
    let mut combos = [
        (QueryKind::Potential, false),
        (QueryKind::Field, true),
        (QueryKind::Potential, true),
        (QueryKind::Field, false),
    ];
    combos.rotate_left(first % 4);
    combos
        .into_iter()
        .map(|(kind, batch)| {
            let request = match kind {
                QueryKind::Potential => QueryRequest::potentials(id, accuracy, points.to_vec()),
                QueryKind::Field => QueryRequest::fields(id, accuracy, points.to_vec()),
            };
            let response = if batch {
                engine.query_batch(&[request]).pop().unwrap().unwrap()
            } else {
                engine.query(request).unwrap()
            };
            (format!("{kind:?} via batch={batch}"), response)
        })
        .collect()
}

#[test]
fn every_answer_after_an_update_matches_a_fresh_engines_bit_for_bit() {
    for shape in shapes() {
        let registered = particles(shape.sources);
        let points = probe_points(shape.targets);
        for accuracy in ACCURACIES {
            let live = engine();
            let id = live.register("live", registered.clone()).unwrap();
            let charges0: Vec<f64> = registered.iter().map(|p| p.charge).collect();
            let mut epochs = vec![("registered", charges0)];
            epochs.extend(updates(&registered));
            let mut precisions = Vec::new();
            for (epoch, (name, charges)) in epochs.iter().enumerate() {
                let case = format!("{} {accuracy:?} epoch {epoch} ({name})", shape.name);
                if epoch > 0 {
                    assert_eq!(live.update_charges(id, charges), Ok(epoch as u64), "{case}");
                }
                let fresh = engine();
                let fresh_id = fresh
                    .register("fresh", with_charges(&registered, charges))
                    .unwrap();
                let got = ask_all(&live, id, accuracy, &points, epoch);
                let want = ask_all(&fresh, fresh_id, accuracy, &points, epoch);
                for (k, ((combo, got), (_, want))) in got.iter().zip(&want).enumerate() {
                    let case = format!("{case} {combo}");
                    assert_eq!(got.output, want.output, "{case}: values differ");
                    assert_eq!(got.eval, want.eval, "{case}: sweep counters differ");
                    assert_eq!(got.backend, want.backend, "{case}");
                    assert_eq!(got.plan_bytes, want.plan_bytes, "{case}");
                    assert_eq!((got.epoch, want.epoch), (epoch as u64, 0), "{case}");
                    // a response names the artifact that ran: under
                    // "loud" the tolerance-rule FMM is past its degree
                    // cap, and its plan holds a fallback treecode
                    let fell_back = shape.backend == Backend::Fmm
                        && matches!(accuracy, Accuracy::Tolerance { .. })
                        && *name == "loud";
                    let ran = if fell_back {
                        Backend::Treecode
                    } else {
                        shape.backend
                    };
                    assert_eq!(got.backend, ran, "{case}");
                    // the first lookup of an epoch carries the plan over;
                    // the rest of the epoch hits it
                    let expected = match (got.backend, k, epoch) {
                        (Backend::Direct, ..) => CacheOutcome::Bypassed,
                        (_, 0, 0) => CacheOutcome::Built,
                        (_, 0, _) => CacheOutcome::Recharged,
                        _ => CacheOutcome::Hit,
                    };
                    assert_eq!(got.cache, expected, "{case}");
                }
                precisions.push(
                    live.resolve_params_for(id, accuracy)
                        .unwrap()
                        .near_precision,
                );
            }
            let s = live.stats();
            assert_eq!((s.datasets, s.evictions), (1, 0));
            if shape.backend != Backend::Direct {
                assert_eq!((s.plan_builds, s.plan_recharges), (1, 4), "{}", shape.name);
                assert_eq!(s.resident_plans, 1, "recharging replaces, never adds");
                assert_eq!(s.per_plan.len(), 1);
            }
            // the spike really does flip the tolerance tier of a
            // plan-served shape, there and back
            let planned = shape.backend != Backend::Direct;
            if matches!(accuracy, Accuracy::Tolerance { .. }) && planned {
                use Precision::{F32Near, F64};
                assert_eq!(precisions, [F32Near, F32Near, F64, F64, F32Near]);
            }
        }
    }
}

#[test]
fn the_updates_exercise_the_paths_they_are_aimed_at() {
    // the oracle above cannot see inside a plan; pin here that "corner"
    // takes the rebuild-on-moved-degrees path rather than the shared
    // geometry one, and that "loud" — and only "loud" — is past the
    // compiled FMM's degree cap under the tolerance rule
    let ps = particles(4200);
    let [(_, corner), (_, spike), (_, loud), (_, cancelling)] = updates(&ps);
    let e = engine();
    let adaptive = fmm_params_for(&e.resolve_params(Accuracy::Adaptive { p_min: 4 }));
    let before = CompiledFmm::new(&ps, adaptive).unwrap();
    let after = before.with_charges(&corner).unwrap();
    assert_ne!(before.degrees(), after.degrees());

    let tolerance = fmm_params_for(&e.resolve_params(Accuracy::Tolerance { tol: 1e-4 }));
    let fmm = CompiledFmm::new(&ps, tolerance).unwrap();
    for charges in [&corner, &spike, &cancelling] {
        assert!(fmm.with_charges(charges).is_ok());
    }
    assert!(matches!(
        fmm.with_charges(&loud),
        Err(FmmError::OperatorTableTooLarge { .. })
    ));
}

/// `Fixed(p)` is one linear operator on every backend: the geometry a
/// plan holds (expansion centres, radii, MAC decisions, FMM cells) is a
/// function of the positions alone and the degrees do not read the
/// charges, so `A(a·x + b·y) = a·A(x) + b·A(y)` to rounding, through
/// `query` and `query_batch` alike, whichever epoch answers. The treecode is asked through
/// `Accuracy::Params` so the resolver keeps its f64 tier: the f32 near
/// field rounds each charge, which no operator can commute with.
#[test]
fn fixed_degree_answers_are_linear_in_the_charges_on_every_backend() {
    let (a, b) = (2.0, 3.0);
    for shape in shapes() {
        let e = engine();
        let ps = particles(shape.sources);
        let points = probe_points(shape.targets);
        let accuracy = match shape.backend {
            Backend::Treecode => Accuracy::Params(e.resolve_params(Accuracy::Fixed(5))),
            _ => Accuracy::Fixed(5),
        };
        let x: Vec<f64> = ps.iter().map(|p| p.charge).collect();
        let y: Vec<f64> = ps
            .iter()
            .map(|p| 1e-5 * (3.0 * p.position.x).sin() + 4e-6 * p.position.y)
            .collect();
        let combined: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + b * yi).collect();
        let id = e.register("linear", ps.clone()).unwrap();
        for batch in [false, true] {
            let mut answers = Vec::new();
            for charges in [&x, &y, &combined] {
                e.update_charges(id, charges).unwrap();
                let request = QueryRequest::potentials(id, accuracy, points.clone());
                let response = if batch {
                    e.query_batch(&[request]).pop().unwrap().unwrap()
                } else {
                    e.query(request).unwrap()
                };
                assert_eq!(response.backend, shape.backend, "{}", shape.name);
                answers.push(response.output.potentials().unwrap().to_vec());
            }
            let (ax, ay, axy) = (&answers[0], &answers[1], &answers[2]);
            let num: f64 = axy
                .iter()
                .zip(ax.iter().zip(ay))
                .map(|(c, (u, v))| (c - a * u - b * v).powi(2))
                .sum();
            let den: f64 = axy.iter().map(|c| c * c).sum();
            let defect = (num / den).sqrt();
            assert!(
                defect <= 1e-12,
                "{} batch={batch}: linearity defect {defect:.3e}",
                shape.name
            );
        }
    }
}

#[test]
fn all_zero_charges_are_legal_and_answer_exactly_zero() {
    for shape in shapes() {
        let e = engine();
        let ps = particles(shape.sources);
        let id = e.register("z", ps.clone()).unwrap();
        let points = probe_points(shape.targets);
        for accuracy in ACCURACIES {
            // a plan resident at epoch 0, so the zeros arrive by recharge
            e.query(QueryRequest::potentials(id, accuracy, points.clone()))
                .unwrap();
        }
        e.update_charges(id, &vec![0.0; ps.len()]).unwrap();
        for accuracy in ACCURACIES {
            for (combo, r) in ask_all(&e, id, accuracy, &points, 0) {
                let case = format!("{} {accuracy:?} {combo}", shape.name);
                if let Some(phis) = r.output.potentials() {
                    assert!(phis.iter().all(|&v| v == 0.0), "{case}");
                }
                if let Some(fields) = r.output.fields() {
                    assert!(
                        fields.iter().all(|&(v, g)| v == 0.0 && g == Vec3::ZERO),
                        "{case}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_refusal_at_the_update_boundary_is_typed() {
    let e = engine();
    let id = e.register("a", particles(40)).unwrap();
    assert_eq!(
        e.update_charges(id, &[1.0; 39]),
        Err(EngineError::ChargeCountMismatch {
            expected: 40,
            got: 39
        })
    );
    let mut charges = vec![1.0; 40];
    charges[7] = f64::INFINITY;
    assert_eq!(
        e.update_charges(id, &charges),
        Err(EngineError::NonFiniteCharge { index: 7 })
    );
    assert_eq!(
        e.update_charges(DatasetId(99), &[1.0]),
        Err(EngineError::UnknownDataset(DatasetId(99)))
    );
    let sharded = e.register_sharded("s", particles(600), 4).unwrap();
    assert_eq!(
        e.update_charges(sharded, &vec![1.0; 600]),
        Err(EngineError::ShardedChargeUpdate(sharded))
    );
    assert_eq!(
        e.unregister(DatasetId(99)),
        Err(EngineError::UnknownDataset(DatasetId(99)))
    );
    // nothing moved: both datasets still answer at epoch 0
    for ds in [id, sharded] {
        let r = e
            .query(QueryRequest::potentials(
                ds,
                Accuracy::Fixed(4),
                probe_points(4),
            ))
            .unwrap();
        assert_eq!(r.epoch, 0);
    }
}

#[test]
fn unregister_releases_everything_and_frees_the_name() {
    let e = engine();
    let ps = particles(2000);
    let plain = e.register("plain", ps.clone()).unwrap();
    let sharded = e.register_sharded("sharded", ps.clone(), 4).unwrap();
    let keeper = e.register("keeper", particles(1500)).unwrap();
    let points = probe_points(24);
    let ask = |id: DatasetId| {
        e.query(QueryRequest::potentials(
            id,
            Accuracy::Fixed(4),
            points.clone(),
        ))
    };
    let before = ask(plain).unwrap();
    ask(sharded).unwrap();
    ask(keeper).unwrap();
    let s = e.stats();
    assert_eq!((s.datasets, s.resident_plans, s.skeletons), (3, 6, 1));
    assert_eq!(s.per_plan.len(), 6);

    let held = e.dataset(plain).unwrap();
    assert_eq!(e.unregister(plain), Ok(()));
    assert_eq!(e.unregister(sharded), Ok(()));
    let s = e.stats();
    assert_eq!((s.datasets, s.resident_plans, s.skeletons), (1, 1, 0));
    assert_eq!((s.datasets_retired, s.evictions), (2, 0));
    assert!(s.per_plan.iter().all(|p| p.dataset == keeper.0));
    assert!(s.per_dataset.iter().all(|d| d.dataset == keeper.0));
    // the snapshot an in-flight query would hold is intact, and knows
    assert_eq!(held.len(), 2000);
    assert!(held.is_retired());

    for gone in [plain, sharded] {
        assert_eq!(ask(gone).unwrap_err(), EngineError::UnknownDataset(gone));
        assert_eq!(e.unregister(gone), Err(EngineError::UnknownDataset(gone)));
        assert_eq!(
            e.update_charges(gone, &vec![0.0; 2000]),
            Err(EngineError::UnknownDataset(gone))
        );
    }
    assert_eq!(e.lookup("plain"), None);
    assert_eq!(ask(keeper).unwrap().cache, CacheOutcome::Hit);

    // the name is free again: a fresh id, a fresh plan, the same answer
    let again = e.register("plain", ps).unwrap();
    assert_ne!(again, plain);
    let after = ask(again).unwrap();
    assert_eq!(after.cache, CacheOutcome::Built);
    assert_eq!(after.output, before.output);
    assert_eq!(e.stats().datasets, 2);
}
