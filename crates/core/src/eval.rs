//! Treecode evaluation: the public sweep entry points.
//!
//! The parallel formulation mirrors the paper's: "the parallel formulation
//! exploits the concurrency available in independent tree traversal of each
//! particle", with "force computation for sets of `w` particles aggregated
//! into a single thread [unit]" over proximity-ordered targets. Here each
//! rayon task takes one chunk of `w` consecutive Morton-ordered targets,
//! compiles their α-MAC traversals into flat interaction lists and
//! executes them with batched kernels (`compile.rs`); the tree is shared
//! immutably so no synchronisation is needed, and per-task
//! [`EvalStats`] are merged by reduction.
//!
//! # Memory discipline
//!
//! The steady-state sweep performs **zero heap allocations per
//! interaction**. Each parallel task owns one reusable list-and-kernel
//! scratch, cleared (not freed) between its targets, and writes its
//! chunk's results into a disjoint slice of one pre-sized output buffer.
//! Allocation count per sweep is therefore `O(targets / w)`, independent
//! of how many MAC-accepted or near-field interactions the traversals
//! perform; `crates/core/tests/alloc_count.rs` pins this down with a
//! counting allocator. Accepted interactions read coefficient spans
//! straight out of the flat arena (see `upward.rs`), so the whole sweep
//! touches no per-node heap structures either.

use mbt_geometry::Vec3;
use mbt_multipole::{bounds::degree_for_tolerance_at, DegreeSelector};
use mbt_tree::NodeId;

use crate::stats::EvalStats;
use crate::upward::Treecode;

/// Values plus instrumentation from one evaluation sweep.
#[derive(Debug, Clone)]
pub struct EvalResult<T> {
    /// Per-target values, in the order of the supplied targets.
    pub values: Vec<T>,
    /// Merged evaluation counters.
    pub stats: EvalStats,
}

impl Treecode {
    /// Potentials at all source particles (`Φ(xᵢ) = Σ_{j≠i} q_j/|xᵢ−x_j|`),
    /// in the caller's original particle order. Parallel.
    #[must_use]
    pub fn potentials(&self) -> EvalResult<f64> {
        // lint: allow(alloc, one output buffer per sweep, not per interaction)
        let mut values = vec![0.0; self.tree.particles().len()];
        let stats = self.compiled_potential_sweep(None, &mut values, self.params.eval_chunk);
        EvalResult {
            values: self.tree.unsort(&values),
            stats,
        }
    }

    /// Potentials at arbitrary observation points (no self-exclusion).
    #[must_use]
    pub fn potentials_at(&self, points: &[Vec3]) -> EvalResult<f64> {
        // lint: allow(alloc, one output buffer per sweep, not per interaction)
        let mut values = vec![0.0; points.len()];
        let stats = self.potentials_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// Potentials at arbitrary points, written into a caller-provided
    /// buffer (`out.len()` must equal `points.len()`).
    ///
    /// This is the batching entry point: a scheduler coalescing many
    /// requests against one plan evaluates them all as a single chunked
    /// sweep into one pre-sized output arena. Values are identical to
    /// [`Treecode::potentials_at`] — each target's interaction set and
    /// summation order are its own, so batching and chunking cannot
    /// change results.
    pub fn potentials_at_into(&self, points: &[Vec3], out: &mut [f64]) -> EvalStats {
        self.potentials_at_into_with(points, out, self.params.eval_chunk)
    }

    /// [`Treecode::potentials_at_into`] with an explicit aggregation
    /// width, overriding the plan's own `eval_chunk`. The width is a pure
    /// execution concern — values and counters are bit-invariant across
    /// widths (DESIGN.md §10) — so a cached treecode can serve requests
    /// that differ only in it.
    pub fn potentials_at_into_with(
        &self,
        points: &[Vec3],
        out: &mut [f64],
        chunk: usize,
    ) -> EvalStats {
        assert_eq!(
            points.len(),
            out.len(),
            "output buffer must match the number of points"
        );
        self.compiled_potential_sweep(Some(points), out, chunk)
    }

    /// Potential and gradient at all source particles, original order.
    #[must_use]
    pub fn fields(&self) -> EvalResult<(f64, Vec3)> {
        // lint: allow(alloc, one output buffer per sweep, not per interaction)
        let mut values = vec![(0.0, Vec3::ZERO); self.tree.particles().len()];
        let stats = self.compiled_field_sweep(None, &mut values, self.params.eval_chunk);
        EvalResult {
            values: self.tree.unsort(&values),
            stats,
        }
    }

    /// Potential and gradient at arbitrary points.
    #[must_use]
    pub fn fields_at(&self, points: &[Vec3]) -> EvalResult<(f64, Vec3)> {
        // lint: allow(alloc, one output buffer per sweep, not per interaction)
        let mut values = vec![(0.0, Vec3::ZERO); points.len()];
        let stats = self.fields_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// Potential and gradient at arbitrary points, written into a
    /// caller-provided buffer — the field-query analogue of
    /// [`Treecode::potentials_at_into`].
    pub fn fields_at_into(&self, points: &[Vec3], out: &mut [(f64, Vec3)]) -> EvalStats {
        self.fields_at_into_with(points, out, self.params.eval_chunk)
    }

    /// [`Treecode::fields_at_into`] with an explicit aggregation width —
    /// the field-query analogue of [`Treecode::potentials_at_into_with`].
    pub fn fields_at_into_with(
        &self,
        points: &[Vec3],
        out: &mut [(f64, Vec3)],
        chunk: usize,
    ) -> EvalStats {
        assert_eq!(
            points.len(),
            out.len(),
            "output buffer must match the number of points"
        );
        self.compiled_field_sweep(Some(points), out, chunk)
    }

    /// Potential at one external point: a one-target sweep.
    #[must_use]
    pub fn potential_at(&self, point: Vec3) -> f64 {
        let mut phi = [0.0];
        self.compiled_potential_sweep(Some(std::slice::from_ref(&point)), &mut phi, 1);
        phi[0]
    }

    /// The largest degree any node stores — the size every per-task
    /// workspace is provisioned for up front.
    #[inline]
    pub(crate) fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// The degree one accepted interaction evaluates: the stored node
    /// degree, truncated further in `Tolerance` mode to the smallest
    /// degree meeting the budget at the target's actual distance.
    #[inline]
    pub(crate) fn interaction_degree(&self, id: NodeId, x: Vec3) -> usize {
        let stored = self.degrees[id as usize];
        match self.params.degree {
            DegreeSelector::Tolerance { tol, p_min, .. } => {
                let node = self.tree.node(id);
                let r = x.distance(node.center);
                degree_for_tolerance_at(node.abs_charge, node.radius, r, tol, stored)
                    .max(p_min)
                    .min(stored)
            }
            _ => stored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::{direct_fields, direct_potentials};
    use crate::params::TreecodeParams;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};
    use mbt_geometry::Particle;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f64 = b.iter().map(|y| y * y).sum();
        (num / den).sqrt()
    }

    #[test]
    fn potentials_match_direct_sum_fixed_degree() {
        let ps = uniform_cube(1200, 1.0, charges(), 3);
        let exact = direct_potentials(&ps);
        let mut prev = f64::INFINITY;
        for p in [2usize, 4, 8] {
            let tc = Treecode::new(&ps, TreecodeParams::fixed(p, 0.5)).unwrap();
            let approx = tc.potentials();
            let err = rel_err(&approx.values, &exact);
            assert!(
                err < prev,
                "error must decrease with degree: p={p} err={err}"
            );
            prev = err;
        }
        assert!(prev < 1e-5, "p=8 error too large: {prev}");
    }

    #[test]
    fn adaptive_beats_fixed_at_same_p_min() {
        let ps = uniform_cube(4000, 1.0, charges(), 5);
        let exact = direct_potentials(&ps);
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(3, 0.7))
            .unwrap()
            .potentials();
        let adaptive = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.7))
            .unwrap()
            .potentials();
        let e_fixed = rel_err(&fixed.values, &exact);
        let e_adaptive = rel_err(&adaptive.values, &exact);
        assert!(
            e_adaptive < e_fixed,
            "adaptive ({e_adaptive}) must beat fixed ({e_fixed})"
        );
    }

    #[test]
    fn gaussian_distribution_accuracy() {
        let ps = gaussian(1500, Vec3::ZERO, 0.5, charges(), 7);
        let exact = direct_potentials(&ps);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(4, 0.5)).unwrap();
        let approx = tc.potentials();
        assert!(rel_err(&approx.values, &exact) < 1e-4);
    }

    #[test]
    fn fields_match_direct() {
        let ps = uniform_cube(800, 1.0, charges(), 13);
        let (exact_phi, exact_grad) = direct_fields(&ps);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.4)).unwrap();
        let result = tc.fields();
        let phi: Vec<f64> = result.values.iter().map(|v| v.0).collect();
        assert!(rel_err(&phi, &exact_phi) < 1e-5);
        let num: f64 = result
            .values
            .iter()
            .zip(&exact_grad)
            .map(|(v, g)| v.1.distance_sq(*g))
            .sum();
        let den: f64 = exact_grad.iter().map(|g| g.norm_sq()).sum();
        assert!(
            (num / den).sqrt() < 1e-4,
            "gradient error {}",
            (num / den).sqrt()
        );
    }

    #[test]
    fn potentials_at_external_points() {
        let ps = uniform_cube(600, 1.0, charges(), 17);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.4)).unwrap();
        let points = [
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(-2.0, 2.0, -2.0),
        ];
        let result = tc.potentials_at(&points);
        for (i, &pt) in points.iter().enumerate() {
            let exact: f64 = ps.iter().map(|p| p.charge / p.position.distance(pt)).sum();
            assert!(
                (result.values[i] - exact).abs() < 1e-4 * exact.abs().max(1.0),
                "point {pt:?}: {} vs {exact}",
                result.values[i]
            );
        }
        assert_eq!(result.stats.targets, 3);
    }

    #[test]
    fn external_point_coincident_with_source_is_skipped() {
        // evaluating at a source position must not divide by zero
        let ps = [Particle::new(Vec3::ZERO, 1.0), Particle::new(Vec3::X, 1.0)];
        let tc = Treecode::new(&ps, TreecodeParams::fixed(2, 0.5)).unwrap();
        let r = tc.potentials_at(&[Vec3::ZERO]);
        assert!((r.values[0] - 1.0).abs() < 1e-12); // only the other charge
    }

    #[test]
    fn stats_are_collected_and_consistent() {
        let ps = uniform_cube(3000, 1.0, charges(), 23);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.7)).unwrap();
        let r = tc.potentials();
        assert_eq!(r.stats.targets, 3000);
        assert!(r.stats.pc_interactions > 0);
        assert!(r.stats.direct_pairs > 0);
        assert!(r.stats.terms >= r.stats.pc_interactions * 16); // p >= 3
        assert_eq!(
            r.stats.by_degree.iter().sum::<u64>(),
            r.stats.pc_interactions
        );
    }

    #[test]
    fn chunk_width_does_not_change_values() {
        let ps = uniform_cube(1000, 1.0, charges(), 29);
        let a = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6).with_eval_chunk(1))
            .unwrap()
            .potentials();
        let b = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6).with_eval_chunk(512))
            .unwrap()
            .potentials();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x, y, "chunking changed results");
        }
        assert_eq!(a.stats.terms, b.stats.terms);
    }

    #[test]
    fn alpha_zero_limit_is_all_direct() {
        // tiny alpha: nothing is accepted, evaluation degenerates to exact
        let ps = uniform_cube(300, 1.0, charges(), 31);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(2, 1e-9)).unwrap();
        let r = tc.potentials();
        let exact = direct_potentials(&ps);
        assert!(rel_err(&r.values, &exact) < 1e-12);
        assert_eq!(r.stats.pc_interactions, 0);
    }

    #[test]
    fn into_variants_match_allocating_variants_bitwise() {
        let ps = uniform_cube(900, 1.0, charges(), 41);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        let points: Vec<Vec3> = ps.iter().step_by(3).map(|p| p.position * 1.5).collect();

        let a = tc.potentials_at(&points);
        let mut buf = vec![0.0; points.len()];
        let stats = tc.potentials_at_into(&points, &mut buf);
        assert_eq!(a.values, buf);
        assert_eq!(a.stats, stats);

        let f = tc.fields_at(&points);
        let mut fbuf = vec![(0.0, Vec3::ZERO); points.len()];
        let fstats = tc.fields_at_into(&points, &mut fbuf);
        assert_eq!(f.values, fbuf);
        assert_eq!(f.stats, fstats);
    }

    #[test]
    fn potential_at_is_a_one_point_sweep() {
        let ps = uniform_cube(700, 1.0, charges(), 43);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        for pt in [Vec3::new(0.2, -0.1, 0.3), Vec3::new(2.5, 0.0, -1.0)] {
            assert_eq!(tc.potential_at(pt), tc.potentials_at(&[pt]).values[0]);
        }
    }

    #[test]
    fn two_particle_system_exact() {
        let ps = [
            Particle::new(Vec3::ZERO, 2.0),
            Particle::new(Vec3::new(1.0, 0.0, 0.0), -3.0),
        ];
        let tc = Treecode::new(&ps, TreecodeParams::default()).unwrap();
        let r = tc.potentials();
        assert!((r.values[0] - -3.0).abs() < 1e-12);
        assert!((r.values[1] - 2.0).abs() < 1e-12);
    }
}
