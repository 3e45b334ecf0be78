//! Level-synchronised cell grids for the FMM.
//!
//! Level `l` divides the root cube into `2^l` cells per axis. Only occupied
//! cells are stored, in Morton order, and a cell's one name is its Morton
//! code: it gives the integer coordinates (`morton::decode`), the parent
//! (`code >> 3`) and the octant within it (`code & 7`). The code is the
//! prefix `key >> 3·(21 − l)` of its sources' Morton keys, read off the
//! one [`mbt_geometry::MortonOrder`] the octree also builds on, so each
//! cell's particles are a contiguous range of that order and coarse cells
//! cover contiguous unions of their children's ranges. Each cell also
//! knows its geometric center, its parent and its occupied children, and
//! above the finest level its 27 neighbours, which it finds in O(1)
//! through its parent's (`neighbour_list`): nothing is sized by the `8^l`
//! cells of a level. A grid is pure geometry: the
//! per-cell absolute charges the degree rule weighs are computed beside it
//! (`method::level_degrees`), so a charge update never touches it.

use mbt_geometry::{Aabb, ChargeError, Vec3};

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
    /// An explicit finest level past the resolution of the Morton keys
    /// the cells are read off, refused by [`crate::FmmParams::validate`]
    /// (the counted depth never passes it).
    TooDeep {
        /// Requested finest level.
        levels: usize,
        /// The maximum ([`mbt_geometry::morton::BITS`]).
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
            FmmError::TooDeep { levels, max } => {
                write!(f, "{levels} levels exceed the Morton-key maximum of {max}")
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

impl From<ChargeError> for FmmError {
    fn from(e: ChargeError) -> Self {
        match e {
            ChargeError::CountMismatch { expected, got } => {
                Self::ChargeCountMismatch { expected, got }
            }
            ChargeError::NonFinite { index } => Self::NonFinite { index },
        }
    }
}

/// Marks an empty slot of a neighbour list: an unoccupied cell or one
/// outside the root cube.
pub(crate) const NO_CELL: u32 = u32::MAX;

/// Per octant `b` of a cell (its code `& 7`) and slot of its neighbour
/// list, where that neighbour lies: the slot of its parent in the list of
/// our parent, and its octant there. Per axis, the cell at offset `d` is
/// `x + d = 2·(x >> 1) + (b + d)`, so its parent lies at offset
/// `(b + d) >> 1` from ours and its octant bit is `(b + d) & 1`. A list
/// holds offset `(dx, dy, dz) ∈ [-1, 1]³` at slot
/// `(dx+1) + 3(dy+1) + 9(dz+1)`, the cell itself at 13.
pub(crate) const NEAR_STEPS: [[(u8, u8); 27]; 8] = {
    let mut steps = [[(0, 0); 27]; 8];
    let mut i = 0;
    while i < 8 * 27 {
        let (b, slot) = (i / 27, i % 27);
        let (mut up, mut octant, mut place, mut axis) = (0, 0, 1, 0);
        while axis < 3 {
            // b + d + 2 on this axis, in [1, 4]
            let v = (b >> axis & 1) + slot / place % 3 + 1;
            up += v / 2 * place;
            octant |= (v & 1) << axis;
            (place, axis) = (place * 3, axis + 1);
        }
        steps[b][slot] = (up as u8, octant as u8);
        i += 1;
    }
    steps
};

/// The occupied cells of one level.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelGrid {
    /// Morton code per cell, strictly increasing (dense order).
    pub codes: Vec<u64>,
    /// Geometric centers.
    pub centers: Vec<Vec3>,
    /// Contiguous particle ranges `[start, end)` in the sorted array.
    pub ranges: Vec<(u32, u32)>,
    /// Cell edge length at this level.
    pub cell_edge: f64,
    /// Per cell: its parent's index on the level above (none at the root).
    pub(crate) parents: Vec<u32>,
    /// Per cell above the finest level: its first child's index on the
    /// level below and the octant mask of its occupied children.
    pub(crate) children: Vec<(u32, u8)>,
    /// Per cell above the finest level: the occupied cell in each of the
    /// 27 slots around it (see [`NEAR_STEPS`]), or `NO_CELL`.
    pub(crate) neighbours: Vec<[u32; 27]>,
}

impl LevelGrid {
    /// Number of occupied cells.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Index of the cell with Morton code `code`, if occupied (a binary
    /// search: for cells no neighbour list reaches).
    pub(crate) fn find(&self, code: u64) -> Option<usize> {
        self.codes.binary_search(&code).ok()
    }

    /// The occupied child in `octant` of the cell at `slot` of `list` (a
    /// neighbour list on this level): see [`NEAR_STEPS`].
    #[inline]
    pub(crate) fn child_of(&self, list: &[u32; 27], (slot, octant): (u8, u8)) -> Option<usize> {
        let cell = list[usize::from(slot)];
        if cell == NO_CELL {
            return None;
        }
        let (first, mask) = self.children[cell as usize];
        let below = mask & ((1u8 << octant) - 1);
        (mask >> octant & 1 != 0).then(|| first as usize + below.count_ones() as usize)
    }
}

/// The neighbour list of cell `ci` on level `l` of `grids`, resolved
/// through its parent's list in O(1) per slot: only the levels above `l`
/// need lists of their own.
pub(crate) fn neighbour_list(grids: &[LevelGrid], l: usize, ci: usize) -> [u32; 27] {
    if l == 0 {
        return std::array::from_fn(|slot| if slot == 13 { 0 } else { NO_CELL });
    }
    let (up, grid) = (&grids[l - 1], &grids[l]);
    let list = &up.neighbours[grid.parents[ci] as usize];
    resolve(up, list, (grid.codes[ci] & 7) as usize)
}

/// The neighbour list of a cell of octant `b` — occupied or not — whose
/// parent, on level `up`, has neighbour list `list`.
pub(crate) fn resolve(up: &LevelGrid, list: &[u32; 27], b: usize) -> [u32; 27] {
    NEAR_STEPS[b].map(|s| up.child_of(list, s).map_or(NO_CELL, |c| c as u32))
}

/// The occupied cells of a neighbour list.
pub(crate) fn occupied(list: &[u32; 27]) -> impl Iterator<Item = usize> + '_ {
    list.iter().filter(|&&c| c != NO_CELL).map(|&c| c as usize)
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
