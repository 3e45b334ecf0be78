//! The per-target reference traversal the compiled sweep is tested
//! against. Built only under `cfg(test)`.
//!
//! One target at a time: walk the tree from the root with the α-MAC,
//! evaluate every accepted cluster's expansion (an owned copy out of the
//! arena, through the allocating kernels) at the interaction degree, and
//! sum every opened leaf directly. The compiled sweep (`compile.rs`) runs
//! the same traversal and only reorders the arithmetic, so the two must
//! report **exactly** equal [`EvalStats`] — interaction for interaction —
//! and per-target values equal to 1e-12 relative.

use mbt_geometry::Vec3;
use mbt_multipole::MultipoleExpansion;

use crate::compile::TargetKind;
use crate::eval::EvalResult;
use crate::mac::{mac, MacDecision};
use crate::stats::EvalStats;
use crate::upward::Treecode;

/// A treecode plus owned copies of its expansions.
pub(crate) struct Reference<'a> {
    tc: &'a Treecode,
    owned: Vec<MultipoleExpansion>,
}

impl<'a> Reference<'a> {
    pub(crate) fn new(tc: &'a Treecode) -> Reference<'a> {
        let owned = (0..tc.tree.len())
            .map(|i| tc.expansion(i as u32).to_expansion())
            .collect();
        Reference { tc, owned }
    }

    /// Potentials at the source particles, caller order.
    pub(crate) fn potentials(&self) -> EvalResult<f64> {
        let r = self.at_sources(false);
        EvalResult {
            values: r.values.iter().map(|v| v.0).collect(),
            stats: r.stats,
        }
    }

    /// Potentials and gradients at the source particles, caller order.
    pub(crate) fn fields(&self) -> EvalResult<(f64, Vec3)> {
        self.at_sources(true)
    }

    /// Potentials at external points.
    pub(crate) fn potentials_at(&self, points: &[Vec3]) -> EvalResult<f64> {
        let mut stats = EvalStats::for_targets(points.len() as u64);
        let values = points
            .iter()
            .map(|&x| self.eval(x, TargetKind::External, false, &mut stats).0)
            .collect();
        EvalResult { values, stats }
    }

    /// Potentials and gradients at external points.
    pub(crate) fn fields_at(&self, points: &[Vec3]) -> EvalResult<(f64, Vec3)> {
        let mut stats = EvalStats::for_targets(points.len() as u64);
        let values = points
            .iter()
            .map(|&x| self.eval(x, TargetKind::External, true, &mut stats))
            .collect();
        EvalResult { values, stats }
    }

    fn at_sources(&self, field: bool) -> EvalResult<(f64, Vec3)> {
        let particles = self.tc.tree.particles();
        let mut stats = EvalStats::for_targets(particles.len() as u64);
        let sorted: Vec<(f64, Vec3)> = particles
            .iter()
            .enumerate()
            .map(|(i, p)| self.eval(p.position, TargetKind::SourceParticle(i), field, &mut stats))
            .collect();
        EvalResult {
            values: self.tc.tree.unsort(&sorted),
            stats,
        }
    }

    /// One target's traversal. A source potential sweep counts every
    /// non-self leaf pair; external and field sweeps count (and sum) only
    /// pairs at non-zero distance.
    fn eval(&self, x: Vec3, kind: TargetKind, field: bool, stats: &mut EvalStats) -> (f64, Vec3) {
        let tc = self.tc;
        let eps2 = tc.params.softening * tc.params.softening;
        let mut phi = 0.0;
        let mut grad = Vec3::ZERO;
        let mut stack = vec![tc.tree.root()];
        while let Some(id) = stack.pop() {
            let node = tc.tree.node(id);
            match mac(node, x, tc.params.alpha) {
                MacDecision::Accept => {
                    let p = tc.interaction_degree(id, x);
                    let exp = &self.owned[id as usize];
                    if field {
                        let (f, g) = exp.field_at_degree(x, p);
                        phi += f;
                        grad += g;
                    } else {
                        phi += exp.potential_at_degree(x, p);
                    }
                    stats.record_interaction(p);
                }
                MacDecision::Open if !node.is_leaf => stack.extend(node.child_ids()),
                MacDecision::Open => {
                    let start = node.start as usize;
                    let leaf = &tc.tree.particles()[start..node.end as usize];
                    for (j, p) in leaf.iter().enumerate() {
                        let own = matches!(kind, TargetKind::SourceParticle(i) if i == start + j);
                        if own {
                            continue;
                        }
                        let d = x - p.position;
                        let r2 = d.norm_sq() + eps2;
                        let counted = !field && matches!(kind, TargetKind::SourceParticle(_));
                        if counted || r2 > 0.0 {
                            let r = r2.sqrt();
                            phi += p.charge / r;
                            if field {
                                grad += d * (-p.charge / (r2 * r));
                            }
                            stats.record_direct(1);
                        }
                    }
                }
            }
        }
        (phi, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreecodeParams;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_geometry::Particle;
    use proptest::prelude::*;

    fn arb_particles(max_n: usize) -> impl Strategy<Value = Vec<Particle>> {
        prop::collection::vec(
            (
                -5.0f64..5.0,
                -5.0f64..5.0,
                -5.0f64..5.0,
                prop::sample::select(vec![-1.0f64, 1.0]),
            )
                .prop_map(|(x, y, z, q)| Particle::new(Vec3::new(x, y, z), q)),
            2..max_n,
        )
    }

    fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
        prop::collection::vec(
            (-6.0f64..6.0, -6.0f64..6.0, -6.0f64..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..max_n,
        )
    }

    /// The three degree-selection modes the treecode supports, at moderate
    /// accuracy so adaptive/tolerance runs mix several degrees per sweep.
    fn modes(alpha: f64) -> [TreecodeParams; 3] {
        [
            TreecodeParams::fixed(5, alpha),
            TreecodeParams::adaptive(3, alpha),
            TreecodeParams::tolerance(1e-6, alpha),
        ]
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Source-particle potential sweeps: values to 1e-12, counters
        /// exact, in every degree mode.
        #[test]
        fn potentials_match_reference(ps in arb_particles(150), alpha in 0.3f64..0.9) {
            for params in modes(alpha) {
                let tc = Treecode::new(&ps, params).unwrap();
                let rs = Reference::new(&tc).potentials();
                let rc = tc.potentials();
                prop_assert_eq!(&rs.stats, &rc.stats, "stats diverged: {:?}", params.degree);
                for (i, (a, b)) in rs.values.iter().zip(&rc.values).enumerate() {
                    prop_assert!(close(*a, *b), "target {i}: reference {a} vs compiled {b}");
                }
            }
        }

        /// Source-particle field sweeps: potential and gradient to 1e-12,
        /// counters exact.
        #[test]
        fn fields_match_reference(ps in arb_particles(120), alpha in 0.3f64..0.9) {
            for params in modes(alpha) {
                let tc = Treecode::new(&ps, params).unwrap();
                let rs = Reference::new(&tc).fields();
                let rc = tc.fields();
                prop_assert_eq!(&rs.stats, &rc.stats);
                for (i, ((pa, ga), (pb, gb))) in rs.values.iter().zip(&rc.values).enumerate() {
                    prop_assert!(close(*pa, *pb), "target {i}: potential {pa} vs {pb}");
                    prop_assert!(
                        ga.distance(*gb) <= 1e-12 * ga.norm().max(1.0),
                        "target {i}: gradient {ga:?} vs {gb:?}"
                    );
                }
            }
        }

        /// External-point sweeps (no self-exclusion), both potentials and
        /// fields, plus **per-target** counter equality: each point
        /// evaluated as its own single-point sweep must report the same
        /// stats as the reference, so the aggregate equality cannot hide
        /// compensating miscounts between targets.
        #[test]
        fn external_points_match_reference(
            ps in arb_particles(100),
            pts in arb_points(40),
            alpha in 0.3f64..0.9,
        ) {
            for params in modes(alpha) {
                let tc = Treecode::new(&ps, params).unwrap();
                let reference = Reference::new(&tc);
                let rs = reference.potentials_at(&pts);
                let rc = tc.potentials_at(&pts);
                prop_assert_eq!(&rs.stats, &rc.stats);
                for (i, (a, b)) in rs.values.iter().zip(&rc.values).enumerate() {
                    prop_assert!(close(*a, *b), "point {i}: reference {a} vs compiled {b}");
                }
                let fs = reference.fields_at(&pts);
                let fc = tc.fields_at(&pts);
                prop_assert_eq!(&fs.stats, &fc.stats);
                for (i, ((pa, ga), (pb, gb))) in fs.values.iter().zip(&fc.values).enumerate() {
                    prop_assert!(close(*pa, *pb), "point {i}: potential {pa} vs {pb}");
                    prop_assert!(
                        ga.distance(*gb) <= 1e-12 * ga.norm().max(1.0),
                        "point {i}: gradient {ga:?} vs {gb:?}"
                    );
                }
                for (i, &pt) in pts.iter().enumerate() {
                    let one_s = reference.potentials_at(std::slice::from_ref(&pt));
                    let one_c = tc.potentials_at(std::slice::from_ref(&pt));
                    prop_assert_eq!(
                        &one_s.stats, &one_c.stats,
                        "per-target stats diverged at point {}", i
                    );
                }
            }
        }

        /// Chunk width is an execution detail: values are bit-identical
        /// across widths (each chunk's conservative classification
        /// resolves to the same per-target interaction sequence) and
        /// counters stay exactly equal to the reference's.
        #[test]
        fn chunk_width_is_invariant(ps in arb_particles(120), chunk in 1usize..48) {
            let base = TreecodeParams::adaptive(3, 0.6);
            let wide_tc = Treecode::new(&ps, base).unwrap();
            let reference_stats = Reference::new(&wide_tc).potentials().stats;
            let wide = wide_tc.potentials();
            let narrow = Treecode::new(&ps, base.with_eval_chunk(chunk)).unwrap().potentials();
            prop_assert_eq!(&wide.stats, &reference_stats);
            prop_assert_eq!(&wide.stats, &narrow.stats);
            for (i, (a, b)) in wide.values.iter().zip(&narrow.values).enumerate() {
                prop_assert_eq!(a, b, "target {} changed with chunk width {}", i, chunk);
            }
        }
    }

    #[test]
    fn sweep_matches_reference_in_every_degree_mode() {
        let ps = uniform_cube(2000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 43);
        for (name, params) in [
            ("fixed", TreecodeParams::fixed(5, 0.6)),
            ("adaptive", TreecodeParams::adaptive(3, 0.6)),
            ("tolerance", TreecodeParams::tolerance(1e-6, 0.6)),
        ] {
            let tc = Treecode::new(&ps, params).unwrap();
            let reference = Reference::new(&tc).potentials();
            let compiled = tc.potentials();
            assert_eq!(
                reference.stats, compiled.stats,
                "{name} mode: counters diverged"
            );
            for (i, (a, b)) in reference.values.iter().zip(&compiled.values).enumerate() {
                let tol = 1e-12 * a.abs().max(1.0);
                assert!(
                    (a - b).abs() <= tol,
                    "{name} mode: target {i}: reference {a} vs compiled {b}"
                );
            }
        }
    }

    #[test]
    fn deep_clustered_tree_matches_reference() {
        // Geometrically nested particle pairs force an octree far deeper
        // than a uniform set of the same size: the compiled sweep's
        // stacks must grow with it and still emit every interaction.
        let mut ps = Vec::new();
        let mut s = 1.0f64;
        for k in 0..30 {
            let q = if k % 2 == 0 { 1.0 } else { -1.0 };
            ps.push(Particle::new(Vec3::new(s, s * 0.9, s * 0.8), q));
            ps.push(Particle::new(Vec3::new(s * 0.9, s * 0.3, s * 0.2), -q));
            s *= 0.5;
        }
        ps.push(Particle::new(Vec3::ZERO, 1.0));
        let params = TreecodeParams::fixed(3, 0.7).with_leaf_capacity(1);
        let tc = Treecode::new(&ps, params).unwrap();
        assert!(
            8 * (tc.tree.height() + 1) > 64,
            "distribution too shallow (height {})",
            tc.tree.height()
        );
        let reference = Reference::new(&tc).potentials();
        let compiled = tc.potentials();
        assert_eq!(reference.stats, compiled.stats);
        for (i, (a, b)) in reference.values.iter().zip(&compiled.values).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "target {i}: {a} vs {b}"
            );
        }
    }
}
