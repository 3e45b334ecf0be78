//! Dual-tree (cluster–cluster) evaluation.
//!
//! The classical Barnes–Hut traversal of [`crate::eval`] opens the tree
//! once **per target particle**; each admitted cluster is evaluated with
//! M2P for that one target. The dual-tree pass instead admits
//! **cluster pairs**: when a target cluster `T` and a source cluster `S`
//! are mutually well separated, `S`'s multipole expansion is converted
//! *once* into a local expansion about `T`'s center (M2L); local
//! expansions are then pushed down the tree (L2L) and evaluated per
//! particle at the leaves (L2P). This amortises the far field over whole
//! clusters — the structural idea of the FMM realised on the adaptive
//! octree, and a natural companion to the paper's per-cluster degrees
//! (each M2L uses the degrees Theorem 3 assigned to its endpoints).
//!
//! Pipeline:
//!
//! 1. pair traversal from `(root, root)` building the M2L and near-field
//!    lists (the larger box splits; a mutually admitted pair records an
//!    M2L, a leaf–leaf pair records a direct block),
//! 2. parallel M2L accumulation per target node,
//! 3. top-down L2L,
//! 4. parallel leaf evaluation: L2P plus the near-field blocks.

use mbt_geometry::Vec3;
use mbt_multipole::LocalExpansion;
use mbt_tree::NodeId;
use rayon::prelude::*;

use crate::eval::EvalResult;
use crate::stats::EvalStats;
use crate::upward::Treecode;

/// The mutual acceptance criterion for a cluster pair: admitted when the
/// combined box dimension passes the α-test against the center distance
/// and the enclosing spheres are separated (M2L convergence region).
#[inline]
fn dual_mac(
    edge_t: f64,
    radius_t: f64,
    center_t: Vec3,
    edge_s: f64,
    radius_s: f64,
    center_s: Vec3,
    alpha: f64,
) -> bool {
    let rho2 = center_t.distance_sq(center_s);
    let d = edge_t + edge_s;
    let sep = radius_t + radius_s;
    d * d <= alpha * alpha * rho2 && rho2 > sep * sep
}

impl Treecode {
    /// Potentials at all source particles via the dual-tree pass.
    ///
    /// Produces the same quantity as [`Treecode::potentials`] (self-
    /// excluded `Σ q_j/|xᵢ−x_j|`, caller order) with an independent
    /// far-field strategy; accuracy is governed by the same per-cluster
    /// degrees. Softening applies to the near field exactly as in the
    /// single-tree pass.
    #[must_use]
    pub fn potentials_dual(&self) -> EvalResult<f64> {
        let tree = &self.tree;
        let n_nodes = tree.len();
        let mut stats = EvalStats::for_targets(tree.particles().len() as u64);

        // ---- phase 1: pair traversal --------------------------------
        let mut m2l: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes]; // per target
        let mut near: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes]; // per target leaf
        let mut stack: Vec<(NodeId, NodeId)> = vec![(tree.root(), tree.root())];
        while let Some((t, s)) = stack.pop() {
            let nt = tree.node(t);
            let ns = tree.node(s);
            if t != s
                && dual_mac(
                    nt.edge(),
                    nt.radius,
                    nt.center,
                    ns.edge(),
                    ns.radius,
                    ns.center,
                    self.params.alpha,
                )
            {
                m2l[t as usize].push(s);
                continue;
            }
            match (nt.is_leaf, ns.is_leaf) {
                (true, true) => near[t as usize].push(s),
                (false, true) => {
                    for c in nt.child_ids() {
                        stack.push((c, s));
                    }
                }
                (true, false) => {
                    for c in ns.child_ids() {
                        stack.push((t, c));
                    }
                }
                (false, false) => {
                    // split the larger box (ties split the target)
                    if nt.edge() >= ns.edge() {
                        for c in nt.child_ids() {
                            stack.push((c, s));
                        }
                    } else {
                        for c in ns.child_ids() {
                            stack.push((t, c));
                        }
                    }
                }
            }
        }

        // ---- phase 2: M2L accumulation per target node ---------------
        let mut locals: Vec<LocalExpansion> = (0..n_nodes)
            .into_par_iter()
            .map(|t| {
                let node = tree.node(t as NodeId);
                let p_t = self.degrees[t];
                let mut local = LocalExpansion::zero(node.center, p_t);
                for &s in &m2l[t] {
                    local.accumulate(&self.expansion(s).to_local(node.center, p_t));
                }
                local
            })
            .collect();
        for (t, list) in m2l.iter().enumerate() {
            for &s in list {
                stats.record_interaction(self.degrees[s as usize].max(self.degrees[t]));
            }
        }

        // ---- phase 3: L2L downward (arena order: parents first) ------
        for id in 0..n_nodes {
            let node = tree.node(id as NodeId);
            if node.is_leaf {
                continue;
            }
            let parent_local = locals[id].clone();
            for c in node.child_ids() {
                let child = tree.node(c);
                let shifted = parent_local.translated(child.center, self.degrees[c as usize]);
                locals[c as usize].accumulate(&shifted);
            }
        }

        // ---- phase 4: leaf evaluation --------------------------------
        let particles = tree.particles();
        let eps2 = self.params.softening * self.params.softening;
        let leaf_results: Vec<(NodeId, Vec<f64>, u64)> = tree
            .leaf_ids()
            .into_par_iter()
            .map(|leaf| {
                let node = tree.node(leaf);
                let local = &locals[leaf as usize];
                let (start, end) = (node.start as usize, node.end as usize);
                let mut pairs = 0u64;
                let values: Vec<f64> = (start..end)
                    .map(|i| {
                        let x = particles.position(i);
                        let mut phi = local.potential_at(x);
                        for &s in &near[leaf as usize] {
                            let sn = tree.node(s);
                            for j in sn.start as usize..sn.end as usize {
                                if j != i {
                                    let r2 = particles.position(j).distance_sq(x);
                                    phi += particles.q[j] / (r2 + eps2).sqrt();
                                    pairs += 1;
                                }
                            }
                        }
                        phi
                    })
                    .collect();
                (leaf, values, pairs)
            })
            .collect();

        let mut sorted_values = vec![0.0f64; particles.len()];
        for (leaf, values, pairs) in leaf_results {
            let node = tree.node(leaf);
            for (k, v) in values.into_iter().enumerate() {
                sorted_values[node.start as usize + k] = v;
            }
            stats.record_direct(pairs);
        }
        EvalResult {
            values: tree.order().unsort(&sorted_values),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_potentials;
    use crate::params::TreecodeParams;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};
    use mbt_geometry::Particle;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    fn rel(a: &[f64], b: &[f64]) -> f64 {
        crate::accuracy::relative_error(a, b)
    }

    #[test]
    fn dual_matches_direct_fixed_degree() {
        let ps = uniform_cube(2500, 1.0, charges(), 3);
        let exact = direct_potentials(&ps);
        let mut prev = f64::INFINITY;
        for p in [3usize, 6, 10] {
            let tc = Treecode::new(&ps, TreecodeParams::fixed(p, 0.5)).unwrap();
            let err = rel(&tc.potentials_dual().values, &exact);
            assert!(err < prev * 1.2, "p={p}: dual error {err} not improving");
            prev = err;
        }
        assert!(prev < 1e-5, "p=10 dual error {prev}");
    }

    #[test]
    fn dual_matches_single_tree() {
        let ps = gaussian(2000, mbt_geometry::Vec3::ZERO, 0.6, charges(), 7);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.5)).unwrap();
        let single = tc.potentials();
        let dual = tc.potentials_dual();
        // both approximate the same sum with comparable accuracy
        let exact = direct_potentials(&ps);
        let e_single = rel(&single.values, &exact);
        let e_dual = rel(&dual.values, &exact);
        assert!(
            e_dual < 20.0 * e_single.max(1e-9),
            "dual {e_dual} vs single {e_single}"
        );
    }

    #[test]
    fn dual_adaptive_beats_fixed() {
        let ps = uniform_cube(4000, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 5);
        let exact = direct_potentials(&ps);
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        let adaptive = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        let e_fixed = rel(&fixed.potentials_dual().values, &exact);
        let e_adaptive = rel(&adaptive.potentials_dual().values, &exact);
        assert!(
            e_adaptive < e_fixed,
            "adaptive dual ({e_adaptive}) must beat fixed dual ({e_fixed})"
        );
    }

    #[test]
    fn dual_saves_interactions_over_single_tree() {
        let ps = uniform_cube(8000, 1.0, charges(), 9);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6)).unwrap();
        let single = tc.potentials();
        let dual = tc.potentials_dual();
        assert!(
            dual.stats.pc_interactions < single.stats.pc_interactions / 4,
            "dual-tree should amortise interactions: {} vs {}",
            dual.stats.pc_interactions,
            single.stats.pc_interactions
        );
    }

    #[test]
    fn dual_single_node_tree() {
        let ps = vec![
            Particle::new(mbt_geometry::Vec3::ZERO, 1.0),
            Particle::new(mbt_geometry::Vec3::X, -2.0),
        ];
        let tc = Treecode::new(&ps, TreecodeParams::fixed(4, 0.5)).unwrap();
        let r = tc.potentials_dual();
        assert!((r.values[0] - -2.0).abs() < 1e-12);
        assert!((r.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dual_respects_softening() {
        let ps = uniform_cube(500, 1.0, charges(), 11);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(6, 0.4).with_softening(0.1)).unwrap();
        let single = tc.potentials();
        let dual = tc.potentials_dual();
        let err = rel(&dual.values, &single.values);
        assert!(err < 5e-3, "softened dual vs single differ by {err}");
    }
}
