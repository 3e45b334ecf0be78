//! Octree construction.
//!
//! 1. Compute the cubical hull of the particle set.
//! 2. Sort particles by Morton key (one unstable sort through rayon's
//!    `par_sort_unstable`, which the in-workspace rayon stand-in runs
//!    sequentially; the per-octant digit of the key makes every cell a
//!    contiguous range and child partitioning a binary search, no data
//!    movement after the one sort).
//! 3. Split cells top-down until `leaf_capacity` is reached (or the key
//!    resolution floor — coincident particles cannot be separated).
//! 4. One pass over the nodes fills each cluster's expansion centre (the
//!    centroid of its particles) and tight radius, a second its charge
//!    aggregates `A = Σ|q|` and net charge. Only the second depends on the
//!    charges, so a charge update ([`Octree::with_charges`]) re-runs only
//!    that one.

use std::sync::atomic::{AtomicU64, Ordering};

use mbt_geometry::{morton, Aabb, Particle, ParticleSoa, Vec3};
use rayon::prelude::*;

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

/// Process-wide count of completed [`Octree::build`] calls.
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

/// The octree: an arena of [`Node`]s over a Morton-sorted particle array.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<Node>,
    particles: Vec<Particle>,
    /// Structure-of-arrays mirror of `particles` (same order), consumed by
    /// the batched evaluation kernels. Charges are kept in sync by
    /// [`Octree::with_charges`].
    soa: ParticleSoa,
    keys: Vec<u64>,
    /// `perm[i]` = caller's index of sorted particle `i`.
    perm: Vec<usize>,
    bounds: Aabb,
    height: usize,
}

/// Morton digit (octant index) of `key` at tree `level` (root children are
/// level 1, extracted from the top key triple).
#[inline]
fn key_digit(key: u64, level: u16) -> u8 {
    let shift = 3 * (morton::BITS as u16 - level);
    ((key >> shift) & 0x7) as u8
}

impl Octree {
    /// Builds the tree. Particles are validated, sorted, and retained
    /// internally in sorted order; use [`Octree::perm`] / [`Octree::unsort`]
    /// to map results back to the caller's order.
    pub fn build(particles: &[Particle], params: OctreeParams) -> Result<Octree, TreeError> {
        if particles.is_empty() {
            return Err(TreeError::Empty);
        }
        if params.leaf_capacity == 0 {
            return Err(TreeError::ZeroLeafCapacity);
        }
        for (i, p) in particles.iter().enumerate() {
            if !p.position.is_finite() || !p.charge.is_finite() {
                return Err(TreeError::NonFinite { index: i });
            }
        }
        let positions: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
        let bounds = Aabb::cubical_hull(&positions, 1e-9);

        let mut keyed: Vec<(u64, u32)> = particles
            .par_iter()
            .enumerate()
            .map(|(i, p)| (morton::key(p.position, &bounds), i as u32))
            .collect();
        keyed.par_sort_unstable();
        let keys: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
        let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i as usize).collect();
        let sorted: Vec<Particle> = perm.iter().map(|&i| particles[i]).collect();
        let soa = ParticleSoa::from_particles(&sorted);

        let mut tree = Octree {
            nodes: Vec::with_capacity(2 * particles.len() / params.leaf_capacity.max(1) + 64),
            particles: sorted,
            soa,
            keys,
            perm,
            bounds,
            height: 0,
        };
        tree.nodes.push(Node {
            bbox: bounds,
            start: 0,
            end: particles.len() as u32,
            children: [NO_NODE; 8],
            parent: NO_NODE,
            level: 0,
            is_leaf: true,
            center: Vec3::ZERO,
            abs_charge: 0.0,
            net_charge: 0.0,
            radius: 0.0,
        });
        tree.split_recursive(0, params.leaf_capacity);
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

    /// Resident heap footprint of the tree in bytes (length-based: nodes,
    /// sorted particles, Morton keys, and the unsort permutation) — the
    /// quantity a plan cache charges against its byte budget.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.particles.len() * std::mem::size_of::<Particle>()
            + self.soa.heap_bytes()
            + self.keys.len() * std::mem::size_of::<u64>()
            + self.perm.len() * std::mem::size_of::<usize>()
    }

    /// Structural invariants, checked after every build when the
    /// `validate` feature is enabled (and callable from tests): Morton
    /// keys sorted non-decreasing, `perm` a permutation of `0..n`, every
    /// node range well-formed, and each internal node's range tiled
    /// exactly by its children in octant order.
    ///
    /// # Panics
    ///
    /// Panics when any contract is violated; violations indicate a bug in
    /// tree construction, never bad user input.
    #[cfg(feature = "validate")]
    pub fn validate_contracts(&self) {
        assert!(
            self.keys.windows(2).all(|w| w[0] <= w[1]),
            "validate: Morton keys not sorted after build"
        );
        let mut seen = vec![false; self.perm.len()];
        for &i in &self.perm {
            assert!(
                i < seen.len() && !seen[i],
                "validate: perm is not a permutation (index {i})"
            );
            seen[i] = true;
        }
        let n = self.particles.len() as u32;
        for (id, node) in self.nodes.iter().enumerate() {
            assert!(
                node.start <= node.end && node.end <= n,
                "validate: node {id} range out of bounds"
            );
            if !node.is_leaf {
                let mut cursor = node.start;
                for &c in &node.children {
                    if c == NO_NODE {
                        continue;
                    }
                    let ch = &self.nodes[c as usize];
                    assert!(
                        ch.parent == id as NodeId && ch.start == cursor,
                        "validate: children of node {id} do not tile its range"
                    );
                    cursor = ch.end;
                }
                assert_eq!(
                    cursor, node.end,
                    "validate: children of node {id} do not cover its range"
                );
            }
        }
        assert_eq!(
            self.soa.len(),
            self.particles.len(),
            "validate: SoA mirror length drifted from the particle array"
        );
        for (i, p) in self.particles.iter().enumerate() {
            assert!(
                self.soa.x[i].to_bits() == p.position.x.to_bits()
                    && self.soa.y[i].to_bits() == p.position.y.to_bits()
                    && self.soa.z[i].to_bits() == p.position.z.to_bits()
                    && self.soa.q[i].to_bits() == p.charge.to_bits(),
                "validate: SoA mirror disagrees with particle {i}"
            );
        }
    }

    /// Splits `id` while it exceeds the leaf capacity and key resolution
    /// remains.
    fn split_recursive(&mut self, id: NodeId, leaf_capacity: usize) {
        let (start, end, level, bbox) = {
            let n = &self.nodes[id as usize];
            (n.start, n.end, n.level, n.bbox)
        };
        if (end - start) as usize <= leaf_capacity || u32::from(level) >= morton::BITS {
            return;
        }
        let child_level = level + 1;
        let mut children = [NO_NODE; 8];
        let mut lo = start as usize;
        for octant in 0..8u8 {
            // binary search for the end of this octant's key run
            let hi = lo
                + self.keys[lo..end as usize]
                    .partition_point(|&k| key_digit(k, child_level) <= octant);
            if hi > lo {
                let cid = self.nodes.len() as NodeId;
                self.nodes.push(Node {
                    bbox: bbox.octant(octant as usize),
                    start: lo as u32,
                    end: hi as u32,
                    children: [NO_NODE; 8],
                    parent: id,
                    level: child_level,
                    is_leaf: true,
                    center: Vec3::ZERO,
                    abs_charge: 0.0,
                    net_charge: 0.0,
                    radius: 0.0,
                });
                children[octant as usize] = cid;
            }
            lo = hi;
        }
        debug_assert_eq!(lo, end as usize, "octant runs must cover the range");
        {
            let n = &mut self.nodes[id as usize];
            n.children = children;
            n.is_leaf = false;
        }
        for cid in children {
            if cid != NO_NODE {
                self.split_recursive(cid, leaf_capacity);
            }
        }
    }

    /// The geometric half of the aggregates: each node's expansion centre,
    /// the plain centroid `Σ p / len` of its particles (in particle
    /// order), and its tight radius about that centre. A function of the
    /// positions alone, so it runs once per build and every charge vector
    /// over this tree shares one set of centres, radii and MAC decisions.
    fn compute_centres(&mut self) {
        for n in &mut self.nodes {
            let slice = &self.particles[n.start as usize..n.end as usize];
            let center = slice.iter().map(|p| p.position).sum::<Vec3>() / slice.len().max(1) as f64;
            n.center = center;
            n.radius = slice
                .iter()
                .map(|p| p.position.distance(center))
                .fold(0.0, f64::max);
        }
    }

    /// The charge half of the aggregates: each node's `A = Σ|q|` and net
    /// charge, summed over its particle slice.
    fn compute_charge_aggregates(&mut self) {
        for n in &mut self.nodes {
            let slice = &self.particles[n.start as usize..n.end as usize];
            n.abs_charge = slice.iter().map(|p| p.charge.abs()).sum();
            n.net_charge = slice.iter().map(|p| p.charge).sum();
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

    /// The sorted particle array.
    #[inline]
    #[must_use]
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// The structure-of-arrays mirror of the sorted particle array.
    #[inline]
    #[must_use]
    pub fn particles_soa(&self) -> &ParticleSoa {
        &self.soa
    }

    /// The particles of a node.
    #[inline]
    #[must_use]
    pub fn particles_of(&self, id: NodeId) -> &[Particle] {
        let n = &self.nodes[id as usize];
        &self.particles[n.start as usize..n.end as usize]
    }

    /// `perm()[i]` = the caller's index of sorted particle `i`.
    #[inline]
    #[must_use]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Scatters per-sorted-particle values back to the caller's order.
    pub fn unsort<T: Copy + Default>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.perm.len());
        let mut out = vec![T::default(); values.len()];
        for (i, &orig) in self.perm.iter().enumerate() {
            out[orig] = values[i];
        }
        out
    }

    /// The root bounding cube.
    #[inline]
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
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
    /// geometry to a new density every iteration: the Morton sort,
    /// topology, expansion centres and radii are reused bit for bit; only
    /// the charges, their SoA mirror, `A` and the net charge are
    /// rewritten. The result equals a fresh [`Octree::build`] over the
    /// same positions with these charges.
    pub fn with_charges(&self, charges: &[f64]) -> Result<Octree, TreeError> {
        if charges.len() != self.particles.len() {
            return Err(TreeError::ChargeCountMismatch {
                expected: self.particles.len(),
                got: charges.len(),
            });
        }
        let mut out = self.clone();
        for (i, p) in out.particles.iter_mut().enumerate() {
            p.charge = charges[self.perm[i]];
        }
        out.soa.sync_charges(&out.particles);
        out.compute_charge_aggregates();
        Ok(out)
    }

    /// Exhaustive structural validation (test support): every particle in
    /// exactly one leaf, ranges nest, boxes contain their particles,
    /// aggregates consistent.
    pub fn validate(&self) -> Result<(), String> {
        let n_particles = self.particles.len();
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
            // geometric containment (allow tiny quantisation slack at cell
            // faces: the Morton grid is 2^21 cells per axis)
            let slack = self.bounds.edge() * 2.0 / (1u64 << morton::BITS) as f64;
            let grown = Aabb::new(
                node.bbox.min - Vec3::splat(slack),
                node.bbox.max + Vec3::splat(slack),
            );
            for p in self.particles_of(idx as NodeId) {
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
    fn root_aggregates() {
        let ps = uniform_cube(1000, 2.0, ChargeModel::Uniform { lo: -1.5, hi: 0.5 }, 9);
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let root = tree.node(tree.root());
        let a: f64 = ps.iter().map(|p| p.charge.abs()).sum();
        let net: f64 = ps.iter().map(|p| p.charge).sum();
        assert!((root.abs_charge - a).abs() < 1e-9 * a);
        assert!((root.net_charge - net).abs() < 1e-9 * a);
        assert!(root.radius <= tree.bounds().circumradius() * 1.001);
    }

    #[test]
    fn soa_mirror_tracks_sorted_particles_and_charges() {
        let ps = uniform_cube(700, 1.0, charges(), 11);
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 16 }).unwrap();
        let base = tree.heap_bytes();
        assert_eq!(tree.particles_soa().len(), tree.particles().len());
        for (i, p) in tree.particles().iter().enumerate() {
            let m = tree.particles_soa();
            assert_eq!(m.x[i].to_bits(), p.position.x.to_bits());
            assert_eq!(m.q[i].to_bits(), p.charge.to_bits());
        }
        // the mirror is charged against the byte budget
        assert!(base >= tree.particles_soa().heap_bytes());
        let new_q: Vec<f64> = (0..ps.len()).map(|i| 0.5 + i as f64).collect();
        let recharged = tree.with_charges(&new_q).unwrap();
        for (i, &orig) in recharged.perm().iter().enumerate() {
            assert_eq!(
                recharged.particles_soa().q[i].to_bits(),
                new_q[orig].to_bits()
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
        let back = tree.unsort(&sorted_x);
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
