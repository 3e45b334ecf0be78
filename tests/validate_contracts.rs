//! Dynamic contract checks, compiled only under the `validate` feature
//! (`cargo test --features validate`). See DESIGN.md §8.
//!
//! Two layers are exercised:
//!
//! 1. the analytical contracts of the paper — Theorem 1/2 error bounds
//!    must dominate the *measured* error of every admitted
//!    particle–cluster interaction,
//! 2. the structural contracts wired into construction itself (Morton
//!    sortedness, arena span disjointness/coverage), which fire inside
//!    `Octree::build` / `Treecode::new` whenever the feature is on —
//!    the randomized builds below would panic on any violation.
#![cfg(feature = "validate")]

use mbt::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random charges inside a sphere of radius `a` centred on the origin.
fn cluster(rng: &mut StdRng, n: usize, a: f64) -> Vec<Particle> {
    (0..n)
        .map(|_| {
            // rejection-sample the ball
            let v = loop {
                let v = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                if v.norm() <= 1.0 {
                    break v;
                }
            };
            Particle {
                position: v * a,
                charge: rng.gen_range(-1.0..1.0),
            }
        })
        .collect()
}

/// Theorem 1: for any cluster inside a sphere of radius `a` and any target
/// at distance `r > a`, the degree-`p` multipole approximation satisfies
/// `|Φ − Φ_p| ≤ A/(r−a) · (a/r)^{p+1}`. The measured error of randomized
/// configurations must stay below the bound at every degree.
#[test]
fn theorem1_bound_dominates_measured_error() {
    let mut rng = StdRng::seed_from_u64(20260806);
    for trial in 0..40 {
        let a = rng.gen_range(0.2..1.5);
        let n = rng.gen_range(1..40);
        let particles = cluster(&mut rng, n, a);
        let abs_charge: f64 = particles.iter().map(|p| p.charge.abs()).sum();
        // target strictly outside the bounding sphere
        let r = a * rng.gen_range(1.3..4.0);
        let dir = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        )
        .normalized();
        let target = dir * r;
        let exact: f64 = particles
            .iter()
            .map(|p| p.charge / p.position.distance(target))
            .sum();
        for p in 0..=12usize {
            let exp = MultipoleExpansion::from_particles(Vec3::ZERO, p, &particles);
            let approx = exp.potential_at(target);
            let bound = theorem1_bound(abs_charge, a, r, p);
            // small absolute slack for floating-point round-off when the
            // truncation error itself is at round-off level
            assert!(
                (approx - exact).abs() <= bound + 1e-12 * (1.0 + exact.abs()),
                "trial {trial}, degree {p}: measured error {} exceeds Theorem-1 bound {bound}",
                (approx - exact).abs(),
            );
        }
    }
}

/// Theorem 2 restates Theorem 1 for a cluster in a cube of edge `d`
/// (`a = d·√3/2`); the bound must dominate the measured error of clusters
/// drawn inside a cube.
#[test]
fn theorem2_bound_dominates_cube_clusters() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..25 {
        let d = rng.gen_range(0.3..2.0);
        let particles: Vec<Particle> = (0..rng.gen_range(2..30))
            .map(|_| Particle {
                position: Vec3::new(
                    rng.gen_range(-0.5..0.5) * d,
                    rng.gen_range(-0.5..0.5) * d,
                    rng.gen_range(-0.5..0.5) * d,
                ),
                charge: rng.gen_range(-1.0..1.0),
            })
            .collect();
        let abs_charge: f64 = particles.iter().map(|p| p.charge.abs()).sum();
        let r = d * rng.gen_range(1.2..3.0); // admitted by any α ≥ d/r
        let target = Vec3::new(0.0, 0.0, r);
        let exact: f64 = particles
            .iter()
            .map(|p| p.charge / p.position.distance(target))
            .sum();
        for p in [2usize, 5, 9] {
            let exp = MultipoleExpansion::from_particles(Vec3::ZERO, p, &particles);
            let err = (exp.potential_at(target) - exact).abs();
            let bound = theorem2_bound(abs_charge, d, r, p);
            assert!(
                err <= bound + 1e-12 * (1.0 + exact.abs()),
                "trial {trial}, degree {p}: error {err} exceeds Theorem-2 bound {bound}"
            );
        }
    }
}

/// Randomized octrees: `Octree::build` runs its own contract checks under
/// this feature; re-running them from outside and checking the public
/// permutation view guards the plumbing end to end.
#[test]
fn randomized_trees_uphold_structural_contracts() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..8 {
        let n = rng.gen_range(1..2000);
        let seed = rng.gen_range(0..u64::MAX);
        let particles = uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed);
        let cap = rng.gen_range(1..32);
        let tree = Octree::build(&particles, OctreeParams { leaf_capacity: cap }).unwrap();
        tree.validate_contracts();
        // the permutation maps sorted storage back onto the input order
        let perm = tree.order().perm();
        assert_eq!(perm.len(), particles.len());
        for (sorted_idx, &orig) in perm.iter().enumerate() {
            assert_eq!(
                tree.particles().position(sorted_idx),
                particles[orig].position
            );
        }
    }
}

/// Randomized treecode builds: the arena contract checks (span
/// disjointness, exact coverage, triangular lengths) fire inside
/// `Treecode::new` under this feature, for both the fixed- and
/// adaptive-degree paths.
#[test]
fn randomized_treecodes_pass_arena_contracts() {
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..6 {
        let n = rng.gen_range(16..1500);
        let seed = rng.gen_range(0..u64::MAX);
        let particles = uniform_ball(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed);
        let params = if rng.gen_bool(0.5) {
            TreecodeParams::fixed(rng.gen_range(1..8), 0.7)
        } else {
            TreecodeParams::adaptive(rng.gen_range(1..5), 0.7)
        };
        let tc = Treecode::new(&particles, params.with_leaf_capacity(rng.gen_range(1..24)))
            .expect("treecode build");
        // spot-check the evaluation still works on top of the checked arena
        let res = tc.potentials();
        assert_eq!(res.values.len(), n);
        assert!(res.values.iter().all(|v| v.is_finite()));
    }
}
