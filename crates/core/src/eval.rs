//! Treecode evaluation: MAC-driven traversal, serial and parallel.
//!
//! The parallel formulation mirrors the paper's: "the parallel formulation
//! exploits the concurrency available in independent tree traversal of each
//! particle", with "force computation for sets of `w` particles aggregated
//! into a single thread [unit]" over proximity-ordered targets. Here each
//! rayon task evaluates one chunk of `w` consecutive Morton-ordered
//! targets; the tree is shared immutably so no synchronisation is needed,
//! and per-task [`EvalStats`] are merged by reduction.
//!
//! # Memory discipline
//!
//! The steady-state evaluation loop performs **zero heap allocations per
//! interaction**. Each parallel task owns one `Scratch` — a reusable
//! traversal stack plus a [`Workspace`] of kernel buffers (Legendre
//! tables, power tables, per-degree partial sums) sized to the tree's
//! maximum degree — and writes its chunk's results into a disjoint slice
//! of one pre-sized output buffer. Allocation count per sweep is
//! therefore `O(targets / w)` (one `Scratch` per chunk of `w` targets),
//! independent of how many MAC-accepted or near-field interactions the
//! traversals perform; `crates/core/tests/alloc_count.rs` pins this down
//! with a counting allocator. Accepted interactions read coefficient
//! spans straight out of the flat arena (see `upward.rs`), so the whole
//! sweep touches no per-node heap structures either.

use mbt_geometry::Vec3;
use mbt_multipole::{bounds::degree_for_tolerance_at, DegreeSelector, Workspace};
use mbt_tree::NodeId;
use rayon::prelude::*;

use crate::mac::{mac, MacDecision};
use crate::params::EvalMode;
use crate::stats::EvalStats;
use crate::upward::Treecode;

/// Reusable per-task evaluation state: the explicit traversal stack and
/// the multipole kernel scratch. One `Scratch` serves every target in a
/// task's chunk — both buffers are cleared (not freed) between targets.
struct Scratch {
    stack: Vec<NodeId>,
    ws: Workspace,
}

impl Scratch {
    /// Scratch pre-sized so traversal and evaluation up to `max_degree`
    /// never reallocate. The DFS stack holds at most the 8 children of
    /// every opened ancestor on the current root-to-node path, so
    /// `8 · (height + 1)` bounds its depth for *any* tree shape —
    /// including pathological clustered distributions whose height far
    /// exceeds the old fixed 64-slot guess.
    fn new(max_degree: usize, height: usize) -> Scratch {
        Scratch {
            stack: Vec::with_capacity(8 * (height + 1)),
            ws: Workspace::with_capacity(max_degree),
        }
    }
}

/// Values plus instrumentation from one evaluation sweep.
#[derive(Debug, Clone)]
pub struct EvalResult<T> {
    /// Per-target values, in the order of the supplied targets.
    pub values: Vec<T>,
    /// Merged evaluation counters.
    pub stats: EvalStats,
}

/// Identifies a target during source-set evaluation so the traversal can
/// exclude self-interaction.
#[derive(Clone, Copy)]
pub(crate) enum TargetKind {
    /// Evaluation at source particle with this sorted index.
    SourceParticle(usize),
    /// Evaluation at an external point (no exclusion).
    External,
}

impl Treecode {
    /// Potentials at all source particles (`Φ(xᵢ) = Σ_{j≠i} q_j/|xᵢ−x_j|`),
    /// in the caller's original particle order. Parallel.
    #[must_use]
    pub fn potentials(&self) -> EvalResult<f64> {
        if self.params.eval_mode == EvalMode::Compiled {
            // lint: allow(alloc, one output buffer per sweep, not per interaction)
            let mut values = vec![0.0; self.tree.particles().len()];
            let stats = self.compiled_potential_sweep(None, &mut values, self.params.eval_chunk);
            return EvalResult {
                values: self.tree.unsort(&values),
                stats,
            };
        }
        let chunk = self.params.eval_chunk;
        let n = self.tree.particles().len();
        let (values, stats) = self.eval_chunks(n, chunk, |i, scratch, stats| {
            let x = self.tree.particles()[i].position;
            self.eval_potential(x, TargetKind::SourceParticle(i), scratch, stats)
        });
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
    /// sweep into one pre-sized output arena, allocating nothing here
    /// beyond the per-chunk `Scratch` state. Values are identical to
    /// [`Treecode::potentials_at`] — each target's traversal is
    /// independent, so batching and chunking cannot change results.
    pub fn potentials_at_into(&self, points: &[Vec3], out: &mut [f64]) -> EvalStats {
        self.potentials_at_into_with(points, out, self.params.eval_chunk, self.params.eval_mode)
    }

    /// [`Treecode::potentials_at_into`] with an explicit per-call
    /// evaluation configuration, overriding the plan's own `eval_chunk` /
    /// `eval_mode`. Chunk width and mode are pure execution concerns —
    /// results are bit-invariant across chunk widths and within the
    /// documented summation-reorder tolerance across modes (DESIGN.md
    /// §10) — so a cached treecode can serve requests that differ only
    /// in these knobs.
    pub fn potentials_at_into_with(
        &self,
        points: &[Vec3],
        out: &mut [f64],
        chunk: usize,
        mode: EvalMode,
    ) -> EvalStats {
        assert_eq!(
            points.len(),
            out.len(),
            "output buffer must match the number of points"
        );
        if mode == EvalMode::Compiled {
            return self.compiled_potential_sweep(Some(points), out, chunk);
        }
        self.eval_chunks_into(out, chunk, |i, scratch, stats| {
            self.eval_potential(points[i], TargetKind::External, scratch, stats)
        })
    }

    /// Potential and gradient at all source particles, original order.
    #[must_use]
    pub fn fields(&self) -> EvalResult<(f64, Vec3)> {
        if self.params.eval_mode == EvalMode::Compiled {
            // lint: allow(alloc, one output buffer per sweep, not per interaction)
            let mut values = vec![(0.0, Vec3::ZERO); self.tree.particles().len()];
            let stats = self.compiled_field_sweep(None, &mut values, self.params.eval_chunk);
            return EvalResult {
                values: self.tree.unsort(&values),
                stats,
            };
        }
        let chunk = self.params.eval_chunk;
        let n = self.tree.particles().len();
        let (values, stats) = self.eval_chunks(n, chunk, |i, scratch, stats| {
            let x = self.tree.particles()[i].position;
            self.eval_field(x, TargetKind::SourceParticle(i), scratch, stats)
        });
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
        self.fields_at_into_with(points, out, self.params.eval_chunk, self.params.eval_mode)
    }

    /// [`Treecode::fields_at_into`] with an explicit per-call evaluation
    /// configuration — the field-query analogue of
    /// [`Treecode::potentials_at_into_with`].
    pub fn fields_at_into_with(
        &self,
        points: &[Vec3],
        out: &mut [(f64, Vec3)],
        chunk: usize,
        mode: EvalMode,
    ) -> EvalStats {
        assert_eq!(
            points.len(),
            out.len(),
            "output buffer must match the number of points"
        );
        if mode == EvalMode::Compiled {
            return self.compiled_field_sweep(Some(points), out, chunk);
        }
        self.eval_chunks_into(out, chunk, |i, scratch, stats| {
            self.eval_field(points[i], TargetKind::External, scratch, stats)
        })
    }

    /// Potential at one external point (serial convenience).
    #[must_use]
    pub fn potential_at(&self, point: Vec3) -> f64 {
        let mut stats = EvalStats::default();
        let mut scratch = Scratch::new(self.max_degree(), self.tree.height());
        self.eval_potential(point, TargetKind::External, &mut scratch, &mut stats)
    }

    /// The largest degree any node stores — the size every per-task
    /// workspace is provisioned for up front.
    #[inline]
    pub(crate) fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Chunked parallel map with stats reduction. The chunk width is the
    /// paper's aggregation width `w`.
    ///
    /// Targets are mapped straight into a pre-sized output buffer split
    /// into disjoint per-chunk slices; each parallel task allocates
    /// exactly one [`Scratch`] and reuses it across its whole chunk, so
    /// the evaluation itself is allocation-free per target.
    fn eval_chunks<T: Send + Default + Clone>(
        &self,
        n: usize,
        chunk: usize,
        f: impl Fn(usize, &mut Scratch, &mut EvalStats) -> T + Sync,
    ) -> (Vec<T>, EvalStats) {
        // lint: allow(alloc, one output buffer per sweep, not per interaction)
        let mut values = vec![T::default(); n];
        let stats = self.eval_chunks_into(&mut values, chunk, f);
        (values, stats)
    }

    /// [`Treecode::eval_chunks`] writing into a caller-provided buffer:
    /// the shared core of every sweep, and the entry point batching layers
    /// use to evaluate coalesced requests into one output arena.
    fn eval_chunks_into<T: Send>(
        &self,
        values: &mut [T],
        chunk: usize,
        f: impl Fn(usize, &mut Scratch, &mut EvalStats) -> T + Sync,
    ) -> EvalStats {
        let sweep_start = std::time::Instant::now();
        let chunk = chunk.max(1);
        let max_degree = self.max_degree();
        let height = self.tree.height();
        let chunk_stats: Vec<EvalStats> = values
            .par_chunks_mut(chunk)
            .enumerate()
            .map(|(ci, out)| {
                let mut scratch = Scratch::new(max_degree, height);
                let mut stats = EvalStats::for_targets(out.len() as u64);
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = f(ci * chunk + k, &mut scratch, &mut stats);
                }
                stats
            })
            .collect(); // lint: allow(alloc, O(chunks) stats per sweep)
        let mut stats = EvalStats::default();
        for s in &chunk_stats {
            stats.merge(s);
        }
        mbt_obs::record_since(mbt_obs::Phase::Sweep, sweep_start);
        stats
    }

    /// One target's potential via iterative MAC traversal.
    fn eval_potential(
        &self,
        x: Vec3,
        kind: TargetKind,
        scratch: &mut Scratch,
        stats: &mut EvalStats,
    ) -> f64 {
        let mut phi = 0.0;
        let Scratch { stack, ws } = scratch;
        stack.clear();
        stack.push(self.tree.root());
        while let Some(id) = stack.pop() {
            let node = self.tree.node(id);
            match mac(node, x, self.params.alpha) {
                MacDecision::Accept => {
                    let p = self.interaction_degree(id, x);
                    phi += self.expansion(id).potential_at_degree_with(x, p, ws);
                    stats.record_interaction(p);
                }
                MacDecision::Open => {
                    if node.is_leaf {
                        phi += self.direct_leaf_potential(id, x, kind, stats);
                    } else {
                        stack.extend(node.child_ids());
                    }
                }
            }
        }
        phi
    }

    /// One target's potential and gradient.
    fn eval_field(
        &self,
        x: Vec3,
        kind: TargetKind,
        scratch: &mut Scratch,
        stats: &mut EvalStats,
    ) -> (f64, Vec3) {
        let mut phi = 0.0;
        let mut grad = Vec3::ZERO;
        let Scratch { stack, ws } = scratch;
        stack.clear();
        stack.push(self.tree.root());
        while let Some(id) = stack.pop() {
            let node = self.tree.node(id);
            match mac(node, x, self.params.alpha) {
                MacDecision::Accept => {
                    let p = self.interaction_degree(id, x);
                    let (f, g) = self.expansion(id).field_at_degree_with(x, p, ws);
                    phi += f;
                    grad += g;
                    stats.record_interaction(p);
                }
                MacDecision::Open => {
                    if node.is_leaf {
                        let (f, g) = self.direct_leaf_field(id, x, kind, stats);
                        phi += f;
                        grad += g;
                    } else {
                        stack.extend(node.child_ids());
                    }
                }
            }
        }
        (phi, grad)
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

    #[inline]
    fn direct_leaf_potential(
        &self,
        id: NodeId,
        x: Vec3,
        kind: TargetKind,
        stats: &mut EvalStats,
    ) -> f64 {
        let node = self.tree.node(id);
        let (start, end) = (node.start as usize, node.end as usize);
        let particles = &self.tree.particles()[start..end];
        let eps2 = self.params.softening * self.params.softening;
        let mut phi = 0.0;
        let mut pairs = 0u64;
        match kind {
            TargetKind::SourceParticle(i) => {
                for (j, p) in particles.iter().enumerate() {
                    if start + j == i {
                        continue;
                    }
                    phi += p.charge / (p.position.distance_sq(x) + eps2).sqrt();
                    pairs += 1;
                }
            }
            TargetKind::External => {
                for p in particles {
                    let r2 = p.position.distance_sq(x) + eps2;
                    if r2 > 0.0 {
                        phi += p.charge / r2.sqrt();
                        pairs += 1;
                    }
                }
            }
        }
        stats.record_direct(pairs);
        phi
    }

    #[inline]
    fn direct_leaf_field(
        &self,
        id: NodeId,
        x: Vec3,
        kind: TargetKind,
        stats: &mut EvalStats,
    ) -> (f64, Vec3) {
        let node = self.tree.node(id);
        let (start, end) = (node.start as usize, node.end as usize);
        let particles = &self.tree.particles()[start..end];
        let mut phi = 0.0;
        let mut grad = Vec3::ZERO;
        let mut pairs = 0u64;
        let skip = match kind {
            TargetKind::SourceParticle(i) => i as isize - start as isize,
            TargetKind::External => -1,
        };
        let eps2 = self.params.softening * self.params.softening;
        for (j, p) in particles.iter().enumerate() {
            if j as isize == skip {
                continue;
            }
            let d = x - p.position;
            let r2 = d.norm_sq() + eps2;
            if r2 > 0.0 {
                let r = r2.sqrt();
                phi += p.charge / r;
                grad += d * (-p.charge / (r2 * r));
                pairs += 1;
            }
        }
        stats.record_direct(pairs);
        (phi, grad)
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

    /// Reference evaluation: identical traversal, but every accepted
    /// interaction goes through an owned expansion copied out of the arena
    /// and the allocating wrapper kernels (fresh scratch per call) —
    /// the pre-workspace evaluation path, kept as the oracle.
    fn reference_potentials(tc: &Treecode) -> Vec<f64> {
        let owned: Vec<mbt_multipole::MultipoleExpansion> = (0..tc.tree.len())
            .map(|i| tc.expansion(i as u32).to_expansion())
            .collect();
        let vals: Vec<f64> = (0..tc.tree.particles().len())
            .map(|i| {
                let x = tc.tree.particles()[i].position;
                let mut stats = EvalStats::default();
                let mut phi = 0.0;
                let mut stack = vec![tc.tree.root()];
                while let Some(id) = stack.pop() {
                    let node = tc.tree.node(id);
                    match mac(node, x, tc.params.alpha) {
                        MacDecision::Accept => {
                            let p = tc.interaction_degree(id, x);
                            phi += owned[id as usize].potential_at_degree(x, p);
                        }
                        MacDecision::Open => {
                            if node.is_leaf {
                                phi += tc.direct_leaf_potential(
                                    id,
                                    x,
                                    TargetKind::SourceParticle(i),
                                    &mut stats,
                                );
                            } else {
                                stack.extend(node.child_ids());
                            }
                        }
                    }
                }
                phi
            })
            .collect();
        tc.tree.unsort(&vals)
    }

    #[test]
    fn workspace_path_is_bit_exact_across_degree_modes() {
        // The allocation-free path (arena spans + per-chunk workspaces)
        // must reproduce the allocating reference path bit for bit in all
        // three degree-selection modes.
        let ps = uniform_cube(1500, 1.0, charges(), 37);
        for (name, params) in [
            ("fixed", TreecodeParams::fixed(6, 0.6)),
            ("adaptive", TreecodeParams::adaptive(3, 0.6)),
            ("tolerance", TreecodeParams::tolerance(1e-6, 0.6)),
        ] {
            let tc = Treecode::new(&ps, params).unwrap();
            let fast = tc.potentials();
            let reference = reference_potentials(&tc);
            for (i, (a, b)) in fast.values.iter().zip(&reference).enumerate() {
                assert_eq!(a, b, "{name} mode: target {i} diverged from reference");
            }
        }
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
    fn scratch_stack_sized_for_pathological_cluster_depth() {
        // Geometrically nested particle pairs force an octree whose height
        // blows far past what the old fixed 64-slot stack guess assumed.
        // The `8·(height+1)` sizing must cover the sweep without the stack
        // ever reallocating mid-traversal.
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
        let height = tc.tree.height();
        assert!(
            8 * (height + 1) > 64,
            "distribution too shallow to exercise the regression (height {height})"
        );

        let mut scratch = Scratch::new(tc.max_degree(), height);
        let cap = scratch.stack.capacity();
        let mut stats = EvalStats::default();
        for i in 0..ps.len() {
            let x = tc.tree.particles()[i].position;
            tc.eval_potential(x, TargetKind::SourceParticle(i), &mut scratch, &mut stats);
            assert!(
                scratch.stack.capacity() == cap,
                "stack reallocated mid-sweep (target {i}): {} -> {}",
                cap,
                scratch.stack.capacity()
            );
        }
    }

    #[test]
    fn compiled_mode_matches_scalar_mode() {
        use crate::params::EvalMode;
        let ps = uniform_cube(2000, 1.0, charges(), 43);
        for (name, params) in [
            ("fixed", TreecodeParams::fixed(5, 0.6)),
            ("adaptive", TreecodeParams::adaptive(3, 0.6)),
            ("tolerance", TreecodeParams::tolerance(1e-6, 0.6)),
        ] {
            let scalar = Treecode::new(&ps, params).unwrap().potentials();
            let compiled = Treecode::new(&ps, params.with_eval_mode(EvalMode::Compiled))
                .unwrap()
                .potentials();
            assert_eq!(
                scalar.stats, compiled.stats,
                "{name} mode: counters diverged"
            );
            for (i, (a, b)) in scalar.values.iter().zip(&compiled.values).enumerate() {
                let tol = 1e-12 * a.abs().max(1.0);
                assert!(
                    (a - b).abs() <= tol,
                    "{name} mode: target {i}: scalar {a} vs compiled {b}"
                );
            }
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
