//! The global skeleton tree: one multipole summary per shard.
//!
//! Sharded serving splits one logical dataset into `k` independent
//! octrees, so no single tree can answer "is this whole remote shard far
//! enough to approximate?". The skeleton is the minimal structure that
//! can: a snapshot of every shard's **root** cell (bounds, center of
//! absolute charge, tight radius, weight) together with a copy of its
//! root multipole expansion — the local-essential-tree idea reduced to
//! one level. On top sits a synthetic **global root** aggregating all
//! shard roots through M2M, so a target far from the entire dataset is
//! answered with a single expansion evaluation.
//!
//! Admissibility is the paper's machinery unchanged: a shard root is
//! admitted by the same α-criterion ([`mbt_treecode::mac`]) the in-tree
//! traversal uses, and under tolerance-driven degrees each interaction
//! re-truncates with the Theorem-1 bound at the *actual* distance —
//! replicating the per-interaction refinement of the scalar evaluator, so
//! the cross-shard far field observes the same resolved error budget as
//! the intra-shard one. When the MAC (or, for the global root, the
//! stored-degree sufficiency probe) refuses, the caller opens the shard's
//! full plan instead; accuracy never degrades, only the shortcut is lost.
//!
//! Degree policies differ in when the **global** shortcut is sound:
//!
//! * `Fixed(p)` — always (every cluster is degree `p` by definition, and
//!   M2M to an equal-or-higher degree is exact);
//! * `Tolerance {..}` — only when the Theorem-1 bound says the stored
//!   (max-over-shards) degree already meets `tol` for the *combined*
//!   weight at the actual distance;
//! * `Adaptive {..}` — never: Theorem 3 assigns the combined cluster a
//!   higher degree than any shard stored, so the aggregate falls back to
//!   per-shard interactions (which are individually within budget).

use mbt_geometry::Vec3;
use mbt_multipole::{
    degree_for_tolerance_at, tri_len, Complex, DegreeSelector, ExpansionRef, Workspace,
};
use mbt_tree::{Node, NO_NODE};
use mbt_treecode::mac::{mac, MacDecision};
use mbt_treecode::{EvalStats, Treecode, TreecodeParams};

/// A snapshot of one shard's root: cell geometry + multipole expansion.
#[derive(Debug, Clone)]
pub struct ShardRoot {
    node: Node,
    degree: usize,
    coeffs: Vec<Complex>,
}

impl ShardRoot {
    /// The root cell record (bounds, center, weight, radius).
    #[inline]
    #[must_use]
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Stored truncation degree of the snapshot expansion.
    #[inline]
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The snapshot expansion as an evaluation-ready view.
    #[inline]
    #[must_use]
    pub fn expansion(&self) -> ExpansionRef<'_> {
        ExpansionRef::new(self.node.center, self.degree, &self.coeffs)
    }
}

/// The one-level global tree over a sharded dataset: per-shard root
/// snapshots plus their M2M aggregate.
///
/// Built once when a sharded dataset's plans come up, then shared
/// read-only across queries; it holds no references into the shard plans,
/// so shards can be evicted and rebuilt independently of the skeleton.
#[derive(Debug, Clone)]
pub struct Skeleton {
    params: TreecodeParams,
    roots: Vec<ShardRoot>,
    global: ShardRoot,
}

impl Skeleton {
    /// Builds the skeleton from the shard treecodes (in shard order).
    ///
    /// All shards must carry the same resolved parameters — they came
    /// from one dataset and one accuracy request, so a mismatch is a
    /// caller bug.
    #[must_use]
    pub fn from_treecodes(shards: &[&Treecode]) -> Skeleton {
        assert!(!shards.is_empty(), "skeleton needs at least one shard");
        let params = *shards[0].params();
        let mut roots = Vec::with_capacity(shards.len());
        for tc in shards {
            assert!(
                *tc.params() == params,
                "shard treecodes disagree on resolved parameters"
            );
            let root_id = tc.tree().root();
            let exp = tc.expansion(root_id);
            let mut coeffs = Vec::with_capacity(exp.coeffs().len());
            coeffs.extend_from_slice(exp.coeffs());
            roots.push(ShardRoot {
                // one root-cell snapshot per shard, taken at build time
                node: tc.tree().node(root_id).clone(), // lint: allow(alloc, cold path: skeleton build runs once per plan generation)
                degree: exp.degree(),
                coeffs,
            });
        }
        let global = Self::aggregate(&roots);
        Skeleton {
            params,
            roots,
            global,
        }
    }

    /// The synthetic global root: union bounds, combined weight, the
    /// particle-count-weighted mean of the shard centers — the centroid of
    /// all particles, matching the per-cluster convention, so it too
    /// depends on positions alone — a radius covering every shard's
    /// cluster sphere, and the M2M aggregate of all shard expansions at
    /// the max stored degree.
    fn aggregate(roots: &[ShardRoot]) -> ShardRoot {
        let total_abs: f64 = roots.iter().map(|r| r.node.abs_charge).sum();
        let total_net: f64 = roots.iter().map(|r| r.node.net_charge).sum();
        let total: u32 = roots.iter().map(|r| r.node.end - r.node.start).sum();
        let center = roots
            .iter()
            .map(|r| r.node.center * f64::from(r.node.end - r.node.start))
            .sum::<Vec3>()
            / f64::from(total.max(1));
        // every shard's cluster sphere fits inside (center, radius), so
        // the r > radius gate of the MAC stays conservative
        let radius = roots
            .iter()
            .map(|r| center.distance(r.node.center) + r.node.radius)
            .fold(0.0, f64::max);
        let mut bbox = roots[0].node.bbox;
        for r in &roots[1..] {
            bbox = bbox.union(&r.node.bbox);
        }
        let degree = roots.iter().map(|r| r.degree).max().unwrap_or(0);
        // M2M at target ≥ source degree is exact (lower-triangular in the
        // source coefficients), so this aggregate is the true degree-p
        // multipole of the whole particle set about `center`
        let mut coeffs = vec![Complex::ZERO; tri_len(degree)]; // lint: allow(alloc, cold path: one global coefficient span per skeleton build)
        for r in roots {
            r.expansion()
                .m2m_accumulate_into(center, degree, &mut coeffs);
        }
        ShardRoot {
            node: Node {
                bbox,
                start: 0,
                end: total,
                children: [NO_NODE; 8],
                parent: NO_NODE,
                level: 0,
                is_leaf: false,
                center,
                abs_charge: total_abs,
                net_charge: total_net,
                radius,
            },
            degree,
            coeffs,
        }
    }

    /// Number of shards summarised.
    #[inline]
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.roots.len()
    }

    /// The resolved parameters the shards were built with.
    #[inline]
    #[must_use]
    pub fn params(&self) -> &TreecodeParams {
        &self.params
    }

    /// Per-shard root snapshots, in shard order.
    #[inline]
    #[must_use]
    pub fn roots(&self) -> &[ShardRoot] {
        &self.roots
    }

    /// The synthetic global root.
    #[inline]
    #[must_use]
    pub fn global(&self) -> &ShardRoot {
        &self.global
    }

    /// The largest stored degree (sizes one [`Workspace`] for any
    /// evaluation against this skeleton).
    #[inline]
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.global.degree
    }

    /// Approximate owned heap footprint (gauge reporting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let span = |r: &ShardRoot| r.coeffs.len() * std::mem::size_of::<Complex>();
        self.roots.iter().map(span).sum::<usize>()
            + span(&self.global)
            + self.roots.len() * std::mem::size_of::<ShardRoot>()
    }

    /// The degree this interaction is evaluated at — a replica of the
    /// scalar evaluator's per-interaction rule: tolerance-driven runs may
    /// truncate below the stored degree when the Theorem-1 bound at the
    /// actual distance already meets `tol`; every other policy uses the
    /// stored degree.
    fn interaction_degree(&self, root: &ShardRoot, x: Vec3) -> usize {
        match self.params.degree {
            DegreeSelector::Tolerance { tol, p_min, .. } => {
                let node = &root.node;
                let r = x.distance(node.center);
                degree_for_tolerance_at(node.abs_charge, node.radius, r, tol, root.degree)
                    .max(p_min)
                    .min(root.degree)
            }
            DegreeSelector::Fixed(_) | DegreeSelector::Adaptive { .. } => root.degree,
        }
    }

    /// Whether shard `s` may be answered from its skeleton expansion for
    /// target `x` (the same α-criterion the in-tree traversal applies to
    /// the shard's root cell).
    #[inline]
    #[must_use]
    pub fn admissible(&self, s: usize, x: Vec3) -> bool {
        matches!(
            mac(&self.roots[s].node, x, self.params.alpha),
            MacDecision::Accept
        )
    }

    /// Far-field potential of shard `s` at `x`, if the MAC admits the
    /// whole shard. `None` means the caller must open the shard's plan.
    #[must_use]
    pub fn try_far_potential(
        &self,
        s: usize,
        x: Vec3,
        ws: &mut Workspace,
        stats: &mut EvalStats,
    ) -> Option<f64> {
        let root = &self.roots[s];
        if matches!(mac(&root.node, x, self.params.alpha), MacDecision::Open) {
            return None;
        }
        let p = self.interaction_degree(root, x);
        let phi = root.expansion().potential_at_degree_with(x, p, ws);
        stats.record_interaction(p);
        Some(phi)
    }

    /// Far-field potential and field of shard `s` at `x`, if admissible.
    #[must_use]
    pub fn try_far_field(
        &self,
        s: usize,
        x: Vec3,
        ws: &mut Workspace,
        stats: &mut EvalStats,
    ) -> Option<(f64, Vec3)> {
        let root = &self.roots[s];
        if matches!(mac(&root.node, x, self.params.alpha), MacDecision::Open) {
            return None;
        }
        let p = self.interaction_degree(root, x);
        let out = root.expansion().field_at_degree_with(x, p, ws);
        stats.record_interaction(p);
        Some(out)
    }

    /// The degree at which the **global** aggregate may answer `x`, or
    /// `None` when the whole-dataset shortcut is unsound (see the module
    /// docs for the per-policy rule).
    #[must_use]
    pub fn global_degree(&self, x: Vec3) -> Option<usize> {
        let node = &self.global.node;
        if matches!(mac(node, x, self.params.alpha), MacDecision::Open) {
            return None;
        }
        match self.params.degree {
            DegreeSelector::Fixed(_) => Some(self.global.degree),
            DegreeSelector::Tolerance { tol, p_min, .. } => {
                let r = x.distance(node.center);
                // probe with head-room: a result ≤ stored means the stored
                // degree genuinely meets tol (the helper caps at its p_max
                // argument, so probing at stored alone cannot distinguish
                // "meets tol at stored" from "capped")
                let need = degree_for_tolerance_at(
                    node.abs_charge,
                    node.radius,
                    r,
                    tol,
                    self.global.degree + 1,
                );
                if need <= self.global.degree {
                    Some(need.max(p_min).min(self.global.degree))
                } else {
                    None
                }
            }
            DegreeSelector::Adaptive { .. } => None,
        }
    }

    /// Whole-dataset potential at `x` through the global aggregate, when
    /// sound; `None` falls back to per-shard resolution.
    #[must_use]
    pub fn try_global_potential(
        &self,
        x: Vec3,
        ws: &mut Workspace,
        stats: &mut EvalStats,
    ) -> Option<f64> {
        let p = self.global_degree(x)?;
        let phi = self.global.expansion().potential_at_degree_with(x, p, ws);
        stats.record_interaction(p);
        Some(phi)
    }

    /// Whole-dataset potential and field at `x` through the global
    /// aggregate, when sound.
    #[must_use]
    pub fn try_global_field(
        &self,
        x: Vec3,
        ws: &mut Workspace,
        stats: &mut EvalStats,
    ) -> Option<(f64, Vec3)> {
        let p = self.global_degree(x)?;
        let out = self.global.expansion().field_at_degree_with(x, p, ws);
        stats.record_interaction(p);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HilbertPartition;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_geometry::particle::total_abs_charge;
    use mbt_geometry::{Aabb, Particle};
    use mbt_treecode::TreecodeParams;

    fn build_shards(
        ps: &[Particle],
        k: usize,
        params: TreecodeParams,
    ) -> (Vec<Treecode>, Skeleton) {
        let bounds = Aabb::cubical_hull_of(ps, 1e-9);
        let part = HilbertPartition::new(ps, &bounds, k).unwrap();
        let shards: Vec<Treecode> = part
            .split(ps)
            .into_iter()
            .map(|chunk| Treecode::new(&chunk, params).unwrap())
            .collect();
        let refs: Vec<&Treecode> = shards.iter().collect();
        let skeleton = Skeleton::from_treecodes(&refs);
        (shards, skeleton)
    }

    fn direct_potential(ps: impl Iterator<Item = Particle>, x: Vec3) -> f64 {
        ps.map(|p| p.charge / x.distance(p.position)).sum()
    }

    #[test]
    fn aggregate_conserves_weight_and_covers_shards() {
        let ps = uniform_cube(800, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 5);
        let params = TreecodeParams::fixed(6, 0.7);
        let (_, sk) = build_shards(&ps, 4, params);
        assert_eq!(sk.shard_count(), 4);
        let g = sk.global().node();
        assert!((g.abs_charge - total_abs_charge(&ps)).abs() < 1e-9);
        assert!((g.net_charge - ps.iter().map(|p| p.charge).sum::<f64>()).abs() < 1e-9);
        assert_eq!(g.len(), ps.len());
        for r in sk.roots() {
            // each shard's cluster sphere sits inside the global one
            let reach = g.center.distance(r.node().center) + r.node().radius;
            assert!(reach <= g.radius + 1e-12);
            assert!(g.bbox.contains(r.node().bbox.min));
            assert!(g.bbox.contains(r.node().bbox.max));
        }
        assert_eq!(sk.max_degree(), 6);
        assert!(sk.heap_bytes() > 0);
    }

    #[test]
    fn global_expansion_matches_distant_direct_sum() {
        let ps = uniform_cube(600, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 9);
        let params = TreecodeParams::fixed(10, 0.5);
        let (_, sk) = build_shards(&ps, 4, params);
        let mut ws = Workspace::new();
        let mut stats = EvalStats::default();
        let x = Vec3::new(40.0, -35.0, 25.0);
        let phi = sk.try_global_potential(x, &mut ws, &mut stats).unwrap();
        let exact = direct_potential(ps.iter().copied(), x);
        assert!(
            (phi - exact).abs() / exact.abs() < 1e-10,
            "far global eval should be near-exact: {phi} vs {exact}"
        );
        assert_eq!(stats.pc_interactions, 1);
        let (phi2, grad) = sk.try_global_field(x, &mut ws, &mut stats).unwrap();
        assert!((phi2 - phi).abs() < 1e-13);
        assert!(grad.norm() > 0.0);
    }

    #[test]
    fn per_shard_far_eval_is_mac_gated_and_accurate() {
        let ps = uniform_cube(600, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 13);
        let params = TreecodeParams::fixed(8, 0.7);
        let (shards, sk) = build_shards(&ps, 4, params);
        let mut ws = Workspace::new();
        let mut stats = EvalStats::default();
        // inside the cloud: at least the owning shard must refuse
        let inside = ps[0].position;
        assert!((0..4).any(|s| sk
            .try_far_potential(s, inside, &mut ws, &mut stats)
            .is_none()));
        // far outside: every shard is admissible and sums match direct
        let far = Vec3::new(30.0, 30.0, -28.0);
        let mut total = 0.0;
        for s in 0..4 {
            assert!(sk.admissible(s, far));
            total += sk.try_far_potential(s, far, &mut ws, &mut stats).unwrap();
        }
        let exact: f64 = shards
            .iter()
            .map(|tc| direct_potential(tc.particles().iter(), far))
            .sum();
        assert!((total - exact).abs() / exact.abs() < 1e-9);
    }

    #[test]
    fn tolerance_policy_gates_the_global_shortcut() {
        let ps = uniform_cube(500, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 21);
        let params = TreecodeParams::tolerance(1e-6, 0.7);
        let (_, sk) = build_shards(&ps, 4, params);
        // near the cloud (but MAC-accepted only far away anyway): just
        // outside admissibility the shortcut must refuse via the MAC;
        // well beyond, the combined-weight probe must accept
        let far = Vec3::new(200.0, 0.0, 0.0);
        let p = sk
            .global_degree(far)
            .expect("far target must be admissible");
        assert!(p <= sk.max_degree());
        // close targets are rejected (MAC or the sufficiency probe)
        assert!(sk.global_degree(ps[0].position).is_none());
    }

    #[test]
    fn adaptive_policy_never_takes_the_global_shortcut() {
        let ps = uniform_cube(500, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 23);
        let params = TreecodeParams::adaptive(2, 0.7);
        let (_, sk) = build_shards(&ps, 4, params);
        let far = Vec3::new(500.0, 0.0, 0.0);
        assert!(sk.global_degree(far).is_none());
        // but per-shard far evaluation still works
        let mut ws = Workspace::new();
        let mut stats = EvalStats::default();
        assert!(sk.try_far_potential(0, far, &mut ws, &mut stats).is_some());
    }
}
