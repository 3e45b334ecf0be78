//! **The counted FMM depth** — for each shape of the table in
//! EXPERIMENTS.md ("Table 3 through the engine") and each finest level
//! `L` around the automatic pick: the counts the pick reads (occupied
//! cells, M2L pairs, near pairs for the evaluation's targets), the cost
//! it predicts from them, and the measured wall time of one charge epoch
//! (`with_charges`) plus one evaluation at those targets.
//!
//! `*` marks the level the counted depth picks, `<` the measured
//! fastest. The ratio column is predicted over measured. The run fails
//! if a counted M2L pair total, or a counted near-pair total with the
//! sources as targets, differs from what the built FMM runs.
//!
//! Run: `cargo run --release -p mbt-bench --bin fmm_depth [--smoke]`

use std::time::Instant;

use mbt_bem::{shapes, QuadRule, SingleLayerGeometry};
use mbt_bench::{structured_instance, unstructured_instance};
use mbt_fmm::{depth_counts, CompiledFmm, FmmParams};
use mbt_geometry::{Particle, Vec3};

/// One row set: sources, the targets each evaluation serves (`None`:
/// the sources themselves) and the degree.
struct Shape {
    name: String,
    sources: Vec<Particle>,
    targets: Option<Vec<Vec3>>,
    p: usize,
}

fn shapes(smoke: bool) -> Vec<Shape> {
    let (subdivisions, n) = if smoke { (2, 10_000) } else { (3, 100_000) };
    let geometry =
        SingleLayerGeometry::new(shapes::icosphere(subdivisions, 1.0), QuadRule::SixPoint);
    let gauss: Vec<Particle> = geometry
        .gauss_points
        .iter()
        .enumerate()
        .map(|(i, &x)| Particle::new(x, 1.0 + 0.25 * (i as f64).sin()))
        .collect();
    let vertices = geometry.mesh.vertices;
    let sphere = format!("icosphere({subdivisions}) six-point");
    vec![
        Shape {
            name: format!("{sphere} -> {} vertices", vertices.len()),
            sources: gauss.clone(),
            targets: Some(vertices),
            p: 6,
        },
        Shape {
            name: format!("{sphere} -> all sources"),
            sources: gauss,
            targets: None,
            p: 6,
        },
        Shape {
            name: "cube -> all sources".into(),
            sources: structured_instance(n),
            targets: None,
            p: 4,
        },
        Shape {
            name: "Gaussians -> all sources".into(),
            sources: unstructured_instance(n),
            targets: None,
            p: 4,
        },
    ]
}

/// Median seconds of `reps` charge epochs plus evaluations at level
/// `levels`, the direct pairs one evaluation counted and the M2L pairs
/// the build listed.
fn measure(shape: &Shape, levels: usize, reps: usize) -> (f64, u64, u64) {
    let params = FmmParams::fixed(shape.p).with_levels(levels);
    let fmm = CompiledFmm::new(&shape.sources, params).expect("the shapes fit the compiled grid");
    let charges: Vec<f64> = shape.sources.iter().map(|p| -p.charge).collect();
    let mut seconds = Vec::with_capacity(reps);
    let mut pairs = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let epoch = fmm.with_charges(&charges).expect("one charge per source");
        let stats = match &shape.targets {
            Some(targets) => epoch.potentials_at(targets).stats,
            None => epoch.potentials().stats,
        };
        seconds.push(t0.elapsed().as_secs_f64());
        pairs = stats.direct_pairs;
    }
    seconds.sort_by(f64::total_cmp);
    (seconds[reps / 2], pairs, fmm.m2l_pairs)
}

fn run(shape: &Shape, reps: usize) {
    let n = shape.sources.len();
    let n_targets = shape.targets.as_ref().map_or(n, Vec::len);
    let params = FmmParams::fixed(shape.p).for_targets(n_targets);
    let pick = CompiledFmm::new(&shape.sources, params)
        .expect("the shapes fit the compiled grid")
        .levels();
    let counts = depth_counts(&shape.sources, pick + 1).expect("finite, non-empty sources");
    println!(
        "\n=== {}: {n} sources, {n_targets} targets, Fixed({}); picked L = {pick}",
        shape.name, shape.p
    );
    println!(
        "{:>3} {:>8} {:>11} {:>13} {:>13} {:>13} {:>11} {:>11} {:>7}",
        "L",
        "cells",
        "m2l pairs",
        "near (pred)",
        "near (count)",
        "src near",
        "pred ms",
        "meas ms",
        "ratio"
    );
    let rows: Vec<usize> = (pick.saturating_sub(2).max(1)..counts.len()).collect();
    let measured: Vec<(f64, u64, u64)> = rows.iter().map(|&l| measure(shape, l, reps)).collect();
    let fastest = rows
        .iter()
        .zip(&measured)
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map(|(&l, _)| l);
    for (&l, &(seconds, pairs, m2l_pairs)) in rows.iter().zip(&measured) {
        let c = &counts[l];
        // the counts are exact, not estimates: a drift is a bug
        assert_eq!(c.m2l_pairs, m2l_pairs, "{} L={l}: M2L pairs", shape.name);
        if shape.targets.is_none() {
            assert_eq!(c.near_pairs, pairs, "{} L={l}: near pairs", shape.name);
        }
        let predicted_ms = c.cost_ns(shape.p, n, n_targets) * 1e-6;
        let near = c.near_pairs as f64 * n_targets as f64 / n as f64;
        let marks = format!(
            "{}{}",
            if l == pick { "*" } else { " " },
            if Some(l) == fastest { "<" } else { " " }
        );
        println!(
            "{l:>3} {:>8} {:>11} {:>13.3e} {:>13} {:>13} {:>11.3} {:>11.3} {:>7.2} {marks}",
            c.cells,
            c.m2l_pairs,
            near,
            pairs,
            c.near_pairs,
            predicted_ms,
            seconds * 1e3,
            predicted_ms / (seconds * 1e3)
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    println!(
        "counted FMM depth: predicted = 0.1 ns per M2L matrix entry + 1 ns per near pair; \
         measured = median of {reps} (with_charges + evaluation), {} worker thread(s)",
        rayon::current_num_threads()
    );
    for shape in shapes(smoke) {
        run(&shape, reps);
    }
}
