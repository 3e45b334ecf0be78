//! Octree node records.

use mbt_geometry::{Aabb, Vec3};

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// Sentinel for "no node" in child/parent links.
pub const NO_NODE: NodeId = u32::MAX;

/// One octree cell.
///
/// Nodes are stored in an arena (`Vec<Node>`); tree topology is expressed
/// with `NodeId` links so the whole structure is `Send + Sync` and can be
/// traversed concurrently from many evaluation threads without locks.
#[derive(Debug, Clone)]
pub struct Node {
    /// Cubical cell bounds.
    pub bbox: Aabb,
    /// Index range `[start, end)` of this cell's particles in the tree's
    /// sorted particle array.
    pub start: u32,
    /// One past the last particle index.
    pub end: u32,
    /// Children ids (`NO_NODE` where absent). Leaves have all-absent.
    pub children: [NodeId; 8],
    /// Parent id (`NO_NODE` for the root).
    pub parent: NodeId,
    /// Depth (root = 0).
    pub level: u16,
    /// True when this node holds its particles directly.
    pub is_leaf: bool,
    /// The multipole expansion center: the centroid of the cell's
    /// particles, a function of positions alone (Theorem 1 holds for any
    /// center whose radius-`a` ball covers the cluster). The paper's MAC
    /// measures distance to this point, so no charge vector moves it.
    pub center: Vec3,
    /// Total absolute charge `A = Σ|qᵢ|` (Theorems 2–3 weight clusters by
    /// this).
    pub abs_charge: f64,
    /// Net signed charge.
    pub net_charge: f64,
    /// Tight cluster radius: max distance from `center` to any contained
    /// particle. Never exceeds the cell circumradius; using it sharpens the
    /// Theorem-1 bound.
    pub radius: f64,
}

impl Node {
    /// Number of particles in the cell.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the cell holds no particles.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The cell edge length — the "dimension of the box enclosing the
    /// cluster" (`d`) of the α-criterion.
    #[inline]
    #[must_use]
    pub fn edge(&self) -> f64 {
        self.bbox.edge()
    }

    /// Iterator over present child ids.
    #[inline]
    pub fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().copied().filter(|&c| c != NO_NODE)
    }
}
