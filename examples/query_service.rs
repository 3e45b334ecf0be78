//! Query service example: one engine, two tenants, many concurrent
//! callers at different accuracies.
//!
//! Models the serving scenario the engine exists for — a long-lived
//! process holding several charge systems, answering interleaved
//! potential/field queries from independent threads. Each `(dataset,
//! accuracy)` pair resolves to one cached plan: the first query builds
//! it, everything after hits cache, and each caller's query sweeps on its
//! own thread (`Engine::query` is a one-request `query_batch`).
//!
//! Run with: `cargo run --release --example query_service`

use std::time::Duration;

use mbt::prelude::*;

fn main() {
    let engine = Engine::new(EngineConfig::default()).expect("default config is valid");

    // two tenants: a structured unit-charge box and a clustered mixed-sign system
    let galaxy = engine
        .register("galaxy", plummer(8_000, 1.0, 1.0, 11))
        .expect("galaxy registers");
    let protein = engine
        .register(
            "protein",
            overlapped_gaussians(
                6_000,
                4,
                2.5,
                0.5,
                ChargeModel::RandomSign { magnitude: 1.0 },
                7,
            ),
        )
        .expect("protein registers");

    // each tenant's accuracy tiers — four distinct plans in total
    let tiers = [
        ("fast", Accuracy::Adaptive { p_min: 3 }),
        ("precise", Accuracy::Tolerance { tol: 1e-7 }),
    ];

    // warm the galaxy fast tier so at least one plan pre-exists
    engine
        .warm(galaxy, tiers[0].1)
        .expect("warming builds the plan");

    println!("serving 12 threads x 8 queries across 2 datasets x 2 accuracy tiers...\n");
    std::thread::scope(|s| {
        for t in 0..12 {
            let engine = &engine;
            let tiers = &tiers;
            s.spawn(move || {
                for round in 0..8 {
                    let (dataset, name) = if (t + round) % 2 == 0 {
                        (galaxy, "galaxy")
                    } else {
                        (protein, "protein")
                    };
                    let (tier_name, accuracy) = tiers[(t + round / 2) % 2];
                    let points: Vec<Vec3> = (0..64)
                        .map(|i| {
                            let u = (t * 100 + round * 10 + i) as f64;
                            Vec3::new(u.sin() * 2.0, (0.3 * u).cos() * 2.0, (0.7 * u).sin())
                        })
                        .collect();
                    let request = if round % 3 == 0 {
                        QueryRequest::fields(dataset, accuracy, points)
                    } else {
                        QueryRequest::potentials(dataset, accuracy, points)
                    }
                    .with_deadline(Duration::from_secs(30));
                    match engine.query(request) {
                        Ok(response) => {
                            if round == 0 {
                                println!(
                                    "thread {t:>2}: {name}/{tier_name} -> {:?} \
                                     ({} points, plan {} KiB)",
                                    response.cache,
                                    response.output.len(),
                                    response.plan_bytes / 1024,
                                );
                            }
                        }
                        Err(e) => println!("thread {t:>2}: {name}/{tier_name} -> error: {e}"),
                    }
                }
            });
        }
    });

    println!("\n{}", engine.stats());
}
