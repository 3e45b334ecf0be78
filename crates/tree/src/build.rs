//! Octree construction.
//!
//! 1. Order the particles: [`MortonOrder`] validates them, takes their
//!    padded cubical hull and sorts them by floored Morton key — the same
//!    order the FMM builds on. The per-octant digit of the key makes
//!    every cell a contiguous range and child partitioning a binary
//!    search, no data movement after the one sort.
//! 2. Split cells top-down until `leaf_capacity` is reached (or the key
//!    resolution floor — coincident particles cannot be separated).
//! 3. One pass over the nodes fills each cluster's expansion centre (the
//!    centroid of its particles) and tight radius, a second its charge
//!    aggregates `A = Σ|q|` and net charge. Only the second depends on the
//!    charges, so a charge update ([`Octree::with_charges`]) re-runs only
//!    that one.
//!
//! [`Octree::over`] runs steps 2–3 over an order sorted once (an engine
//! source set's, shared by all its plans); [`Octree::build`] sorts first.
//! The tree shares its order (permutation and sorted positions) by `Arc`
//! with every re-charge and keeps only its sorted charges `q`; readers
//! take a [`SoaSpan`] of the two.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mbt_geometry::{morton, Aabb, ChargeError, MortonOrder, Particle, SoaSpan, Vec3};

use crate::node::{Node, NodeId, NO_NODE};
use crate::stats::TreeStats;

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct OctreeParams {
    /// Maximum particles in a leaf. The paper notes leaves of 32–64
    /// particles optimise cache behaviour; 1 gives the textbook tree.
    pub leaf_capacity: usize,
}

impl Default for OctreeParams {
    fn default() -> Self {
        OctreeParams { leaf_capacity: 32 }
    }
}

/// Process-wide count of completed octree builds ([`Octree::over`]s).
///
/// A cheap diagnostic for caching layers that must *prove* a code path
/// built no tree (e.g. "a plan-cache hit performs zero builds"): read the
/// counter, run the path, read it again. One relaxed increment per build
/// is free next to the build itself.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// The number of octrees this process has built so far.
#[must_use]
pub fn build_count() -> u64 {
    // ordering: Relaxed — independent monotonic counter; no data is published through it
    BUILDS.load(Ordering::Relaxed)
}

/// Construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// No particles were supplied.
    Empty,
    /// A particle position or charge was NaN/∞.
    NonFinite {
        /// Index (in the caller's order) of the offending particle.
        index: usize,
    },
    /// `leaf_capacity` was zero.
    ZeroLeafCapacity,
    /// A charge update supplied a vector whose length is not the tree's
    /// particle count.
    ChargeCountMismatch {
        /// The tree's particle count.
        expected: usize,
        /// The length of the supplied charge vector.
        got: usize,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => write!(f, "cannot build an octree over zero particles"),
            TreeError::NonFinite { index } => {
                write!(f, "particle {index} has a non-finite position or charge")
            }
            TreeError::ZeroLeafCapacity => write!(f, "leaf_capacity must be at least 1"),
            TreeError::ChargeCountMismatch { expected, got } => {
                write!(
                    f,
                    "expected {expected} charges (one per particle), got {got}"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

impl From<ChargeError> for TreeError {
    fn from(e: ChargeError) -> Self {
        match e {
            ChargeError::CountMismatch { expected, got } => {
                Self::ChargeCountMismatch { expected, got }
            }
            ChargeError::NonFinite { index } => Self::NonFinite { index },
        }
    }
}

/// The octree: an arena of [`Node`]s over a Morton-sorted particle array.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<Node>,
    /// The sorted positions and permutation, shared with every re-charge.
    order: Arc<MortonOrder>,
    /// The charges in sorted order.
    q: Vec<f64>,
    height: usize,
}

/// A leaf over the sorted particles `range`, its aggregates not yet filled.
fn leaf(bbox: Aabb, range: Range<usize>, parent: NodeId, level: u16) -> Node {
    Node {
        bbox,
        start: range.start as u32,
        end: range.end as u32,
        children: [NO_NODE; 8],
        parent,
        level,
        is_leaf: true,
        center: Vec3::ZERO,
        abs_charge: 0.0,
        net_charge: 0.0,
        radius: 0.0,
    }
}

impl Octree {
    /// Builds the tree. Particles are validated, sorted, and retained
    /// internally in sorted order; the tree's [`Octree::order`] maps
    /// results back to the caller's order.
    pub fn build(particles: &[Particle], params: OctreeParams) -> Result<Octree, TreeError> {
        let (order, keys) =
            MortonOrder::new(particles).map_err(|index| TreeError::NonFinite { index })?;
        let q = order.perm().iter().map(|&i| particles[i].charge).collect();
        Octree::over(Arc::new(order), &keys, q, params)
    }

    /// Builds the tree over an existing order, shared, not copied: `keys`
    /// are its sorted Morton keys, which only steer the splits, and `q`
    /// holds one charge per sorted source.
    pub fn over(
        order: Arc<MortonOrder>,
        keys: &[u64],
        q: Vec<f64>,
        params: OctreeParams,
    ) -> Result<Octree, TreeError> {
        let n = q.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if params.leaf_capacity == 0 {
            return Err(TreeError::ZeroLeafCapacity);
        }
        let mut tree = Octree {
            nodes: Vec::with_capacity(2 * n / params.leaf_capacity + 64),
            q,
            order,
            height: 0,
        };
        tree.nodes.push(leaf(tree.order.bounds(), 0..n, NO_NODE, 0));
        tree.split_recursive(0, params.leaf_capacity, keys);
        tree.compute_centres();
        tree.compute_charge_aggregates();
        tree.height = tree
            .nodes
            .iter()
            .map(|n| n.level as usize)
            .max()
            .unwrap_or(0);
        #[cfg(feature = "validate")]
        tree.validate_contracts();
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        BUILDS.fetch_add(1, Ordering::Relaxed);
        Ok(tree)
    }

    /// Resident heap footprint of the tree in bytes (nodes, the sorted
    /// positions and charges and the unsort permutation) — the
    /// quantity a plan cache charges against its byte budget.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.order.heap_bytes()
            + self.q.len() * std::mem::size_of::<f64>()
    }

    /// Structural invariants, checked after every build when the
    /// `validate` feature is enabled (and callable from tests): the
    /// order's contract ([`MortonOrder::validate`]: keys non-decreasing,
    /// `perm` a permutation of `0..n`) and everything
    /// [`Octree::validate`] checks of the nodes.
    ///
    /// # Panics
    ///
    /// Panics when any contract is violated; violations indicate a bug in
    /// tree construction, never bad user input.
    #[cfg(feature = "validate")]
    pub fn validate_contracts(&self) {
        let order = self.order.validate();
        assert!(order.is_ok(), "validate: {order:?}");
        let nodes = self.validate();
        assert!(nodes.is_ok(), "validate: {nodes:?}");
    }

    /// Splits `id` while it exceeds the leaf capacity and key resolution
    /// remains; `keys` holds the sorted particles' Morton keys.
    fn split_recursive(&mut self, id: NodeId, leaf_capacity: usize, keys: &[u64]) {
        let (start, end, level, bbox) = {
            let n = &self.nodes[id as usize];
            (n.start, n.end, n.level, n.bbox)
        };
        if (end - start) as usize <= leaf_capacity || u32::from(level) >= morton::BITS {
            return;
        }
        let child_level = level + 1;
        let mut children = [NO_NODE; 8];
        let range = start as usize..end as usize;
        for (code, run) in morton::cell_runs(keys, range, u32::from(child_level)) {
            let octant = (code & 7) as usize;
            children[octant] = self.nodes.len() as NodeId;
            self.nodes
                .push(leaf(bbox.octant(octant), run, id, child_level));
        }
        {
            let n = &mut self.nodes[id as usize];
            n.children = children;
            n.is_leaf = false;
        }
        for cid in children {
            if cid != NO_NODE {
                self.split_recursive(cid, leaf_capacity, keys);
            }
        }
    }

    /// The geometric half of the aggregates: each node's expansion centre,
    /// the plain centroid `Σ p / len` of its particles (in particle
    /// order), and its tight radius about that centre. A function of the
    /// positions alone, so it runs once per build and every charge vector
    /// over this tree shares one set of centres, radii and MAC decisions.
    fn compute_centres(&mut self) {
        let all = self.order.span(&self.q);
        for n in &mut self.nodes {
            let slice = all.slice(n.start as usize..n.end as usize);
            let center = slice.iter().map(|p| p.position).sum::<Vec3>() / slice.len().max(1) as f64;
            n.center = center;
            n.radius = slice
                .iter()
                .map(|p| p.position.distance(center))
                .fold(0.0, f64::max);
        }
    }

    /// The charge half of the aggregates: each node's `A = Σ|q|` and net
    /// charge, summed over its charge slice.
    fn compute_charge_aggregates(&mut self) {
        for n in &mut self.nodes {
            let q = &self.q[n.start as usize..n.end as usize];
            n.abs_charge = q.iter().map(|q| q.abs()).sum();
            n.net_charge = q.iter().sum();
        }
    }

    /// The root node id (always 0).
    #[inline]
    #[must_use]
    pub fn root(&self) -> NodeId {
        0
    }

    /// A node by id.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// All nodes (arena order; parents precede children).
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The sorted particles.
    #[inline]
    #[must_use]
    pub fn particles(&self) -> SoaSpan<'_> {
        self.order.span(&self.q)
    }

    /// The particles of a node.
    #[inline]
    #[must_use]
    pub fn particles_of(&self, id: NodeId) -> SoaSpan<'_> {
        let n = &self.nodes[id as usize];
        self.particles().slice(n.start as usize..n.end as usize)
    }

    /// The order the tree is built over, shared with its re-charges: the
    /// root cube, and the permutation back to the caller's order.
    #[inline]
    #[must_use]
    pub fn order(&self) -> &Arc<MortonOrder> {
        &self.order
    }

    /// Deepest level present (root = 0) — the `l` of the paper's
    /// complexity analysis.
    #[inline]
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never true for a built tree).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all leaves.
    #[must_use]
    pub fn leaf_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| self.nodes[id as usize].is_leaf)
            .collect()
    }

    /// Summary statistics.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        TreeStats::of(self)
    }

    /// This tree under a new charge vector (positions unchanged), given in
    /// the **caller's original order**.
    ///
    /// The fast path for iterative solvers whose operator applies the same
    /// geometry to a new density every iteration: the Morton order
    /// (shared, not copied), topology, expansion centres and radii are
    /// reused bit for bit; only the sorted charges `q`, `A` and the net
    /// charge are rewritten. The result equals a fresh [`Octree::build`]
    /// over the same positions with these charges.
    ///
    /// A vector whose length is not the particle count is refused with
    /// [`TreeError::ChargeCountMismatch`], a NaN/∞ charge with
    /// [`TreeError::NonFinite`].
    pub fn with_charges(&self, charges: &[f64]) -> Result<Octree, TreeError> {
        let mut out = Octree {
            nodes: self.nodes.clone(),
            q: self.order.sorted_charges(charges)?,
            order: Arc::clone(&self.order),
            height: self.height,
        };
        out.compute_charge_aggregates();
        Ok(out)
    }

    /// Exhaustive structural validation (test support, and the node half
    /// of the `validate` contracts): every particle in exactly one leaf,
    /// each internal node's range tiled by its children in octant order,
    /// boxes contain their particles, aggregates consistent.
    pub fn validate(&self) -> Result<(), String> {
        let n_particles = self.order.perm().len();
        let mut covered = vec![0u8; n_particles];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.start > node.end || node.end as usize > n_particles {
                return Err(format!(
                    "node {idx}: bad range {}..{}",
                    node.start, node.end
                ));
            }
            if node.is_leaf {
                for i in node.start..node.end {
                    covered[i as usize] += 1;
                }
            } else {
                let mut child_total = 0;
                let mut cursor = node.start;
                for cid in node.child_ids() {
                    let c = &self.nodes[cid as usize];
                    if c.parent != idx as NodeId {
                        return Err(format!("child {cid} of {idx} has wrong parent"));
                    }
                    if c.start != cursor {
                        return Err(format!("child ranges of {idx} not contiguous"));
                    }
                    cursor = c.end;
                    child_total += c.len();
                    if c.level != node.level + 1 {
                        return Err(format!("child {cid} level wrong"));
                    }
                }
                if child_total != node.len() || cursor != node.end {
                    return Err(format!("children of {idx} do not cover its range"));
                }
            }
            // geometric containment. The keys floor `(v − lo)/edge·2^21`,
            // so a particle's cell is the geometric one up to rounding: the
            // node boxes are halved in floating point (about half an ulp
            // per level, at most 21 levels) and the key's subtraction and
            // division add an ulp, so a particle on a face may sit a few
            // ulps of the coordinates' magnitude outside its box
            let bounds = self.order.bounds();
            let scale = bounds.min.abs().max(bounds.max.abs()).max_component();
            let slack = 32.0 * f64::EPSILON * scale;
            let grown = Aabb::new(
                node.bbox.min - Vec3::splat(slack),
                node.bbox.max + Vec3::splat(slack),
            );
            for p in self.particles_of(idx as NodeId).iter() {
                if !grown.contains(p.position) {
                    return Err(format!("node {idx}: particle escapes its box"));
                }
            }
            // aggregates
            if !node.is_empty() {
                let a: f64 = self
                    .particles_of(idx as NodeId)
                    .iter()
                    .map(|p| p.charge.abs())
                    .sum();
                if (a - node.abs_charge).abs() > 1e-9 * (1.0 + a) {
                    return Err(format!("node {idx}: abs_charge mismatch"));
                }
                let r_max = self
                    .particles_of(idx as NodeId)
                    .iter()
                    .map(|p| p.position.distance(node.center))
                    .fold(0.0, f64::max);
                if (r_max - node.radius).abs() > 1e-9 * (1.0 + r_max) {
                    return Err(format!("node {idx}: radius mismatch"));
                }
            }
        }
        if covered.iter().any(|&c| c != 1) {
            return Err("some particle is not covered by exactly one leaf".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn build_uniform_and_validate() {
        let ps = uniform_cube(5000, 1.0, charges(), 42);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 16 }).unwrap();
        tree.validate().unwrap();
        assert!(tree.height() >= 3);
        assert_eq!(tree.node(tree.root()).len(), 5000);
        for &leaf in &tree.leaf_ids() {
            assert!(tree.node(leaf).len() <= 16);
        }
    }

    #[test]
    fn build_gaussian_and_validate() {
        let ps = gaussian(3000, Vec3::new(0.5, -0.5, 0.0), 0.4, charges(), 7);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 8 }).unwrap();
        tree.validate().unwrap();
    }

    #[test]
    fn leaf_capacity_one() {
        let ps = uniform_cube(300, 1.0, charges(), 3);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 1 }).unwrap();
        tree.validate().unwrap();
        for &leaf in &tree.leaf_ids() {
            assert_eq!(tree.node(leaf).len(), 1);
        }
    }

    #[test]
    fn coincident_particles_terminate() {
        // all particles at one point: splitting cannot separate them; the
        // key-resolution floor must stop recursion
        let ps = vec![Particle::new(Vec3::new(0.25, 0.5, 0.75), 1.0); 100];
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 4 }).unwrap();
        tree.validate().unwrap();
        assert!(tree.height() as u32 <= morton::BITS);
    }

    #[test]
    fn particles_on_cell_faces_stay_in_their_boxes() {
        // points on (and one ulp off) the faces of the cells at several
        // levels of the padded hull: each lands in the cell its floored
        // key names, which `validate` checks against the halved boxes up
        // to its rounding-level slack (without the slack, each of these
        // hulls has a particle a few ulps outside its box)
        for (lo, edge) in [(0.1, 3.7), (-12.345, 0.013), (1e3, 7.0), (0.77, 1.3e5)] {
            let corners = [Vec3::splat(lo), Vec3::splat(lo + edge)];
            let hull = Aabb::cubical_hull(&corners, 1e-9);
            let mut ps: Vec<Particle> = corners.iter().map(|&c| Particle::new(c, 1.0)).collect();
            for l in [3, 7, 12, 18, 21] {
                let n = 1u64 << l;
                for t in 0..40u64 {
                    let face =
                        |k: u64, lo: f64| lo + (1 + k % (n - 1)) as f64 * hull.edge() / n as f64;
                    let (a, b) = (
                        face(t * 2654435761, hull.min.x),
                        face(t * 40503 + 7, hull.min.y),
                    );
                    for v in [a * (1.0 - f64::EPSILON), a, a * (1.0 + f64::EPSILON)] {
                        ps.push(Particle::new(
                            Vec3::new(v, b, a - hull.min.x + hull.min.z),
                            1.0,
                        ));
                    }
                }
            }
            let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 1 }).unwrap();
            assert_eq!(tree.order().bounds(), hull);
            tree.validate().unwrap();
        }
    }

    #[test]
    fn root_aggregates() {
        let ps = uniform_cube(1000, 2.0, ChargeModel::Uniform { lo: -1.5, hi: 0.5 }, 9);
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let root = tree.node(tree.root());
        let a: f64 = ps.iter().map(|p| p.charge.abs()).sum();
        let net: f64 = ps.iter().map(|p| p.charge).sum();
        assert!((root.abs_charge - a).abs() < 1e-9 * a);
        assert!((root.net_charge - net).abs() < 1e-9 * a);
        assert!(root.radius <= tree.order().bounds().circumradius() * 1.001);
    }

    #[test]
    fn soa_holds_sorted_particles_and_charges() {
        let ps = uniform_cube(700, 1.0, charges(), 11);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 16 }).unwrap();
        assert_eq!(tree.particles().len(), ps.len());
        for (p, &orig) in tree.particles().iter().zip(tree.order().perm()) {
            assert_eq!(p.position.x.to_bits(), ps[orig].position.x.to_bits());
            assert_eq!(p.charge.to_bits(), ps[orig].charge.to_bits());
        }
        // the sources are charged against the byte budget
        assert!(tree.heap_bytes() >= 4 * 8 * ps.len());
        let new_q: Vec<f64> = (0..ps.len()).map(|i| 0.5 + i as f64).collect();
        let recharged = tree.with_charges(&new_q).unwrap();
        for (i, &orig) in recharged.order().perm().iter().enumerate() {
            assert_eq!(recharged.particles().q[i].to_bits(), new_q[orig].to_bits());
            assert_eq!(
                recharged.particles().position(i),
                tree.particles().position(i)
            );
        }
    }

    #[test]
    fn with_charges_refuses_a_wrong_length_vector() {
        let ps = uniform_cube(100, 1.0, charges(), 4);
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        for got in [0, 99, 101] {
            assert_eq!(
                tree.with_charges(&vec![1.0; got]).unwrap_err(),
                TreeError::ChargeCountMismatch { expected: 100, got }
            );
        }
        let mut nan = vec![1.0; 100];
        nan[37] = f64::NAN;
        nan[60] = f64::INFINITY;
        assert_eq!(
            tree.with_charges(&nan).unwrap_err(),
            TreeError::NonFinite { index: 37 }
        );
    }

    #[test]
    fn centres_are_centroids_whatever_the_charges() {
        // one heavy particle must not pull the expansion centre: the
        // centre is the plain centroid, a function of positions alone
        let ps = [
            Particle::new(Vec3::new(0.0, 0.0, 0.0), 100.0),
            Particle::new(Vec3::new(2.0, 0.0, 0.0), -0.01),
            Particle::new(Vec3::new(1.0, 3.0, 0.0), 0.0),
        ];
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 4 }).unwrap();
        let root = tree.node(tree.root());
        assert_eq!(root.center, Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(root.radius, 2.0);
        assert_eq!(root.abs_charge, 100.01);
    }

    #[test]
    fn unsort_roundtrip() {
        let ps = uniform_cube(512, 1.0, charges(), 21);
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let sorted_x: Vec<f64> = tree.particles().iter().map(|p| p.position.x).collect();
        let back = tree.order().unsort(&sorted_x);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(back[i], p.position.x);
        }
    }

    #[test]
    fn abs_charge_decreases_down_the_tree() {
        let ps = uniform_cube(4000, 1.0, charges(), 5);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 16 }).unwrap();
        for (idx, node) in tree.nodes().iter().enumerate() {
            for cid in node.child_ids() {
                assert!(
                    tree.node(cid).abs_charge <= node.abs_charge + 1e-12,
                    "child {cid} of {idx} has more charge than its parent"
                );
            }
        }
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            Octree::build(&[], OctreeParams::default()).unwrap_err(),
            TreeError::Empty
        );
        let bad = [Particle::new(Vec3::new(f64::NAN, 0.0, 0.0), 1.0)];
        assert_eq!(
            Octree::build(&bad, OctreeParams::default()).unwrap_err(),
            TreeError::NonFinite { index: 0 }
        );
        let ok = [Particle::new(Vec3::ZERO, 1.0)];
        assert_eq!(
            Octree::build(&ok, OctreeParams { leaf_capacity: 0 }).unwrap_err(),
            TreeError::ZeroLeafCapacity
        );
    }

    #[test]
    fn single_particle_tree() {
        let ps = [Particle::new(Vec3::new(1.0, 2.0, 3.0), -2.5)];
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.node(0).abs_charge, 2.5);
    }

    #[test]
    fn height_scales_logarithmically() {
        let small = Octree::build(
            &uniform_cube(1000, 1.0, charges(), 1),
            OctreeParams { leaf_capacity: 8 },
        )
        .unwrap();
        let large = Octree::build(
            &uniform_cube(64_000, 1.0, charges(), 1),
            OctreeParams { leaf_capacity: 8 },
        )
        .unwrap();
        // 64x the particles in 3-D: expect about log8(64) = 2 extra levels
        let dh = large.height() as i64 - small.height() as i64;
        assert!((1..=4).contains(&dh), "unexpected height growth {dh}");
    }
}
