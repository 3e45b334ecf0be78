//! The multipole acceptance criterion (α-criterion).
//!
//! A particle–cluster interaction is admitted when the ratio of the
//! distance `r` (target to the cluster's expansion center, the centroid of
//! its particles) to the enclosing box dimension `d` exceeds `1/α`, i.e.
//! `d ≤ α·r`. The center depends on positions alone, so every decision is
//! a function of (positions, α) and no charge vector changes the lists.
//! Two safety conditions accompany the ratio test:
//!
//! * the target must lie outside the cluster's box (a box can pass the
//!   ratio test while containing the target, when the particles crowd one
//!   corner and pull the centroid far from the target's corner), and
//! * `r` must exceed the cluster's tight radius `a` (Theorem 1's region of
//!   convergence).

use mbt_geometry::Vec3;
use mbt_tree::Node;

/// Result of testing a node against a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacDecision {
    /// Approximate the cluster by its multipole expansion.
    Accept,
    /// Descend into the children (or direct-sum a leaf).
    Open,
}

/// Applies the α-criterion for target `x` against cluster `node`.
#[inline]
#[must_use]
pub fn mac(node: &Node, x: Vec3, alpha: f64) -> MacDecision {
    let d = node.edge();
    let r2 = x.distance_sq(node.center);
    // ratio test in squared form (avoids the sqrt on the hot path)
    if d * d <= alpha * alpha * r2 && r2 > node.radius * node.radius && !node.bbox.contains(x) {
        MacDecision::Accept
    } else {
        MacDecision::Open
    }
}

/// Lemma 1's sandwich: for an interaction admitted at a box of edge `d`
/// (whose parent of edge `2d` was rejected), the distance obeys
/// `d/α ≤ r ≤ d(2/α + √3)`. Returns `(r_min, r_max)`.
#[must_use]
pub fn lemma1_distance_bounds(d: f64, alpha: f64) -> (f64, f64) {
    (d / alpha, d * (2.0 / alpha + 3.0f64.sqrt()))
}

/// Lemma 2's constant: an upper bound on the number of same-size boxes that
/// can interact with one target — the volume of the Lemma-1 annulus over
/// the box volume.
#[must_use]
pub fn lemma2_interaction_bound(alpha: f64) -> f64 {
    let (r_lo, r_hi) = lemma1_distance_bounds(1.0, alpha);
    // boxes lie fully inside the annulus grown by one circumradius
    let pad = 3.0f64.sqrt() / 2.0;
    let outer = r_hi + pad;
    let inner = (r_lo - pad).max(0.0);
    (4.0 / 3.0) * std::f64::consts::PI * (outer.powi(3) - inner.powi(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::{Aabb, Particle};
    use mbt_tree::{Octree, OctreeParams};

    fn leaf_node(center: Vec3, edge: f64) -> Node {
        // build a tiny tree and take its root as a representative node
        let ps = [
            Particle::new(center + Vec3::splat(-edge * 0.25), 1.0),
            Particle::new(center + Vec3::splat(edge * 0.25), 1.0),
        ];
        let t = Octree::build(&ps, OctreeParams { leaf_capacity: 4 }).unwrap();
        t.node(t.root()).clone()
    }

    #[test]
    fn far_target_accepted_near_target_opened() {
        let n = leaf_node(Vec3::ZERO, 1.0);
        let d = n.edge();
        let alpha = 0.5;
        assert_eq!(
            mac(&n, Vec3::new(10.0 * d, 0.0, 0.0), alpha),
            MacDecision::Accept
        );
        assert_eq!(
            mac(&n, Vec3::new(1.01 * d, 0.0, 0.0), alpha),
            MacDecision::Open
        );
    }

    #[test]
    fn threshold_is_d_over_alpha() {
        let n = leaf_node(Vec3::ZERO, 1.0);
        let d = n.edge();
        let alpha = 0.5;
        // r slightly above d/α accepted; slightly below opened (center of
        // charge is the box center here by symmetry)
        let c = n.center;
        assert_eq!(
            mac(&n, c + Vec3::X * (d / alpha * 1.001), alpha),
            MacDecision::Accept
        );
        assert_eq!(
            mac(&n, c + Vec3::X * (d / alpha * 0.999), alpha),
            MacDecision::Open
        );
    }

    #[test]
    fn containing_box_is_never_accepted() {
        // the particles crowd one corner, pulling the centroid there; the
        // target sits inside the box near the opposite corner, clear of
        // the cluster sphere: the ratio and radius tests both pass, so
        // only the containment guard can refuse
        let mut ps = vec![Particle::new(Vec3::new(-0.49, -0.49, -0.49), 1.0); 30];
        ps.push(Particle::new(Vec3::new(0.49, -0.49, -0.49), 1.0));
        let t = Octree::build(&ps, OctreeParams { leaf_capacity: 40 }).unwrap();
        let root = t.node(t.root());
        let target = Vec3::new(0.45, -0.05, -0.05);
        let alpha = 1.0;
        let r = target.distance(root.center);
        assert!(root.bbox.contains(target));
        assert!(root.edge() <= alpha * r && r > root.radius);
        assert_eq!(mac(root, target, alpha), MacDecision::Open);
    }

    #[test]
    fn larger_alpha_accepts_more() {
        let n = leaf_node(Vec3::ZERO, 1.0);
        // place the target so d/r = 0.5: opened at α = 0.3, accepted at 0.9
        let x = n.center + Vec3::X * (2.0 * n.edge());
        assert_eq!(mac(&n, x, 0.3), MacDecision::Open);
        assert_eq!(mac(&n, x, 0.9), MacDecision::Accept);
    }

    #[test]
    fn lemma1_bounds_ordered() {
        for alpha in [0.3, 0.5, 0.8, 1.0] {
            let (lo, hi) = lemma1_distance_bounds(1.0, alpha);
            assert!(lo > 0.0 && hi > lo);
            // bound tightens (ratio hi/lo shrinks) as alpha shrinks
        }
        let (lo1, hi1) = lemma1_distance_bounds(1.0, 0.2);
        let (lo2, hi2) = lemma1_distance_bounds(1.0, 0.9);
        assert!(hi1 / lo1 < hi2 / lo2);
    }

    #[test]
    fn lemma2_bound_positive_and_growing_in_alpha_tail() {
        let k_small = lemma2_interaction_bound(0.3);
        let k_large = lemma2_interaction_bound(0.9);
        assert!(k_small > 0.0 && k_large > 0.0);
        // smaller alpha admits interactions only farther out, where more
        // same-size boxes fit: the constant grows as alpha decreases
        assert!(k_small > k_large);
    }

    #[test]
    fn accept_region_is_outside_bbox() {
        let n = leaf_node(Vec3::new(2.0, 2.0, 2.0), 1.0);
        let inside = n.bbox.center();
        assert!(Aabb::contains(&n.bbox, inside));
        assert_eq!(mac(&n, inside, 0.99), MacDecision::Open);
    }
}
