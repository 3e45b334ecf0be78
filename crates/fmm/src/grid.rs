//! Level-synchronised cell grids for the FMM.
//!
//! Level `l` divides the root cube into `2^l` cells per axis. Only occupied
//! cells are stored; each knows its integer coordinates, geometric center
//! and contiguous particle range (particles are sorted by finest-level
//! Morton key, and coarse cells cover contiguous unions of their children's
//! ranges). A grid is pure geometry: the per-cell absolute charges the
//! degree rule weighs are computed beside it
//! (`method::level_degrees`), so a charge update never touches it.

use std::collections::HashMap;

use mbt_geometry::{Aabb, Vec3};

/// FMM construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmmError {
    /// No particles supplied.
    Empty,
    /// A particle position or charge was NaN/∞.
    NonFinite {
        /// Caller-order index of the offending particle.
        index: usize,
    },
    /// The degree policy can emit a degree beyond the table limit.
    DegreeTooLarge {
        /// Largest degree the selector can emit.
        degree: usize,
        /// The supported maximum ([`mbt_multipole::MAX_DEGREE`]).
        max: usize,
    },
    /// The hierarchy is deeper than the dense Morton-indexed tables
    /// support: explicit levels are refused by [`crate::FmmParams::validate`],
    /// an automatic depth by the build. The engine answers an FMM-routed
    /// request that hits it with a treecode plan.
    DenseGridTooDeep {
        /// Requested level count.
        levels: usize,
        /// The maximum ([`crate::compiled::COMPILED_MAX_LEVELS`]).
        max: usize,
    },
    /// A level with an M2L list resolved a degree above the compiled
    /// backend's cap: its unit operator table is process-wide and never
    /// freed, so its size is bounded by refusing larger degrees. The
    /// engine answers an FMM-routed request that hits it with a treecode
    /// plan.
    OperatorTableTooLarge {
        /// The offending degree.
        degree: usize,
        /// The compiled maximum ([`crate::compiled::COMPILED_MAX_DEGREE`]).
        max: usize,
    },
    /// A charge update supplied a vector whose length is not the
    /// particle count.
    ChargeCountMismatch {
        /// The particle count.
        expected: usize,
        /// The length of the supplied charge vector.
        got: usize,
    },
}

impl std::fmt::Display for FmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FmmError::Empty => write!(f, "cannot run the FMM over zero particles"),
            FmmError::NonFinite { index } => {
                write!(f, "particle {index} has a non-finite position or charge")
            }
            FmmError::DegreeTooLarge { degree, max } => {
                write!(
                    f,
                    "expansion degree {degree} exceeds the supported maximum of {max}"
                )
            }
            FmmError::DenseGridTooDeep { levels, max } => {
                write!(f, "{levels} levels exceed the dense-table maximum of {max}")
            }
            FmmError::OperatorTableTooLarge { degree, max } => {
                write!(
                    f,
                    "expansion degree {degree} exceeds the compiled backend's operator-table maximum of {max}"
                )
            }
            FmmError::ChargeCountMismatch { expected, got } => {
                write!(
                    f,
                    "expected {expected} charges (one per particle), got {got}"
                )
            }
        }
    }
}

impl std::error::Error for FmmError {}

// The packed cell-coordinate key lives in the shared geometry key module;
// re-exported here under the names the FMM grids have always used.
pub use mbt_geometry::morton::{pack_cell as cell_key, unpack_cell as key_coords};

/// The occupied cells of one level.
#[derive(Debug, Clone)]
pub struct LevelGrid {
    /// Level index (root cube = level 0).
    pub level: usize,
    /// Cell lookup: packed coordinates → dense index.
    pub index: HashMap<u64, usize>,
    /// Packed coordinates per cell (dense order).
    pub keys: Vec<u64>,
    /// Geometric centers.
    pub centers: Vec<Vec3>,
    /// Contiguous particle ranges `[start, end)` in the sorted array.
    pub ranges: Vec<(u32, u32)>,
    /// Cell edge length at this level.
    pub cell_edge: f64,
}

impl LevelGrid {
    /// Number of occupied cells.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the level has no occupied cells (never for a built FMM).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Dense index of the cell with the given coordinates, if occupied
    /// (the reference FMM's lookup; the compiled FMM uses dense tables).
    #[cfg(test)]
    pub(crate) fn find(&self, x: u32, y: u32, z: u32) -> Option<usize> {
        self.index.get(&cell_key(x, y, z)).copied()
    }
}

/// Median positive cell `|charge|` of one level — the reference weight
/// for the per-level adaptive degree rule.
pub(crate) fn median_positive(abs_charge: &[f64]) -> f64 {
    let mut ws: Vec<f64> = abs_charge
        .iter()
        .copied()
        .filter(|&w| w > 0.0)
        // lint: allow(alloc, weight medians are taken once per level and charge pass)
        .collect();
    if ws.is_empty() {
        return 0.0;
    }
    let mid = ws.len() / 2;
    *ws.select_nth_unstable_by(mid, f64::total_cmp).1
}

/// The geometric center of cell `(x, y, z)` at a level with `cells` cells
/// per axis inside `bounds`.
#[must_use]
pub fn cell_center(bounds: &Aabb, cells: u32, x: u32, y: u32, z: u32) -> Vec3 {
    let edge = bounds.edge() / f64::from(cells);
    bounds.min
        + Vec3::new(
            (f64::from(x) + 0.5) * edge,
            (f64::from(y) + 0.5) * edge,
            (f64::from(z) + 0.5) * edge,
        )
}

/// The cell coordinates of a point at a level with `cells` per axis
/// (clamped to the grid).
#[must_use]
pub fn cell_of(bounds: &Aabb, cells: u32, p: Vec3) -> (u32, u32, u32) {
    let edge = bounds.edge() / f64::from(cells);
    let f = |v: f64, lo: f64| -> u32 { (((v - lo) / edge).floor().max(0.0) as u32).min(cells - 1) };
    (
        f(p.x, bounds.min.x),
        f(p.y, bounds.min.y),
        f(p.z, bounds.min.z),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for (x, y, z) in [(0, 0, 0), (1, 2, 3), (1 << 20, 5, (1 << 21) - 1)] {
            assert_eq!(key_coords(cell_key(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn cell_of_and_center_consistent() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let cells = 4u32;
        let p = Vec3::new(0.3, -0.9, 0.9);
        let (x, y, z) = cell_of(&b, cells, p);
        let c = cell_center(&b, cells, x, y, z);
        // the point lies within half a cell edge of its cell center
        let half = b.edge() / f64::from(cells) / 2.0;
        assert!((p - c).abs().max_component() <= half + 1e-12);
    }

    #[test]
    fn boundary_points_clamp() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let (x, y, z) = cell_of(&b, 4, Vec3::new(1.0, 1.0, 1.0)); // upper corner
        assert_eq!((x, y, z), (3, 3, 3));
        let (x, y, z) = cell_of(&b, 4, Vec3::new(-1.0, -1.0, -1.0));
        assert_eq!((x, y, z), (0, 0, 0));
        let (x, y, z) = cell_of(&b, 4, Vec3::new(5.0, -5.0, 0.0)); // outside
        assert_eq!((x, y, z), (3, 0, 2));
    }
}
