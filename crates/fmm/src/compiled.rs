//! The FMM backend: flat per-level SoA arenas, one process-wide
//! unit-cube M2L operator table per degree, and a build split into a
//! shared **geometry half** and a per-charge-vector **charge half**.
//!
//! Walking `HashMap` grids and re-deriving every translation from
//! spherical-harmonic recurrences on the hot path (what the test-only
//! reference in `reference.rs` does) is slow. This module compiles the
//! level-synchronised pipeline instead:
//!
//! * **One unit M2L table per degree, for the whole process.** Within a
//!   level, an M2L translation depends only on the integer cell offset
//!   `Δ = s − t` (Chebyshev norm ≥ 2, each component in `[-3, 3]` — at
//!   most 316 geometric classes) and the cell edge `d`. The Laplace kernel
//!   is scale invariant: the entry taking multipole coefficient `(n, m)`
//!   to local coefficient `(j, k)` over separation `d·Δ` is the unit-edge
//!   entry times `d^-(j+n+1)`. So each class is probed **once per degree**
//!   at `d = 1` — column-by-column through the public translation API
//!   (basis coefficient `1`, then `i`), which captures the full
//!   *real-linear* operator on the stored `m ≥ 0` triangular
//!   representation, conjugate mirrors included, as a dense real matrix
//!   over interleaved `(re, im)` spans — and kept for the life of the
//!   process (`316 · (2T)²` reals with `T = (p+1)(p+2)/2`: 2.3 MB at
//!   `p = 4`, 7.9 MB at `p = 6`, 20 MB at `p = 8`; see
//!   [`shared_operator_bytes`]). A level applies it by storing its
//!   multipoles pre-scaled by `d^-n` and post-scaling the accumulated M2L
//!   sum by `d^-(j+1)`; no per-plan or per-level operator copy exists.
//!   L2L needs only the 8 child-octant offsets per level and stays probed
//!   per geometry (it adds unscaled).
//! * **Geometry half** (`FmmGeometry`, `Arc`-shared): everything that
//!   depends on the particle *positions* and the resolved degree vector —
//!   bounds, sort permutation, level grids, SoA positions, dense
//!   Morton-indexed occupancy, one operator-major M2L list per level (the
//!   level's `(target, source)` cell pairs sorted by unit-operator index,
//!   then target, with 317 run offsets), scale vectors and L2L operators.
//! * **Charge half** ([`CompiledFmm`]'s own fields): charges, pre-scaled
//!   multipole arenas and local arenas (occupied cells × `2·tri_len(p_l)`
//!   per level) — P2M straight into the arenas for the levels whose
//!   multipoles are read (`l ≥ 2`), then the downward pass.
//!   [`CompiledFmm::with_charges`] re-runs only this half over the shared
//!   geometry, and is bit-identical to [`CompiledFmm::new`] over the same
//!   positions and new charges.
//! * **M2L runs operator-major.** Each worker takes one contiguous range
//!   of a level's target cells (as many ranges as the pool has threads,
//!   chosen per pass, not stored in the geometry). It walks the 316
//!   operators in index order and applies each to its pairs in that run,
//!   up to [`M2L_GROUP`] pairs per [`mbt_multipole::m2l_apply_group`]
//!   call: the operator (25 KB at `p = 6`) is streamed once per group
//!   instead of once per pair, and the kernel keeps a block of output
//!   rows of all eight pairs in registers across the column sweep. Every
//!   target meets each operator at most once and all of its pairs lie in
//!   one range, so every local sums its M2L terms in operator-index
//!   order, chained through correctly rounded `mul_add`s: the result is
//!   the same bits at any thread count, range split or dispatch tier.
//!   A pair whose source multipole is all zeros adds nothing and is
//!   skipped. The on-demand chain of an unoccupied cell runs the same
//!   kernel at width 1, in the same order. L2L stays one
//!   [`mbt_multipole::m2l_apply`] call per cell.
//! * **Evaluation: one per-cell routine** (`CompiledFmm::eval_cell`)
//!   serves the source sweep ([`CompiledFmm::potentials`]) and the
//!   external sweeps (`potentials_at` / `fields_at`) alike. Per finest
//!   cell it gathers the 27-cell near field once into contiguous SoA
//!   scratch, runs L2P for all of the cell's targets as
//!   broadcast-coefficient lane groups straight off the local arena
//!   ([`mbt_multipole::l2p_potential_group`]), then one guarded
//!   near-field span per target ([`mbt_multipole::p2p_span`]). Every
//!   buffer it needs lives in a per-work-item `CellScratch` reused over
//!   a block of cells.
//!
//! External targets are served too: a target inside the root cube but in
//! an *unoccupied* finest cell gets its local expansion from an on-demand
//! L2L/M2L chain down its cell path (computed once per distinct cell and
//! shared by all targets in it); a target outside the root cube falls back
//! to a guarded direct sum over all particles.

use std::sync::{Arc, OnceLock};

use mbt_geometry::{Aabb, Particle, Vec3};
use mbt_multipole::tables::tri_index;
use mbt_multipole::{
    l2p_field_group, l2p_potential_group, m2l_apply, m2l_apply_group, p2m_into, p2p_span, simd,
    tri_len, BatchWorkspace, Complex, ExpansionRef, LocalExpansion, Workspace, M2L_GROUP,
    M2P_LANES,
};
use mbt_treecode::{EvalResult, EvalStats};
use rayon::prelude::*;

use crate::grid::{cell_center, cell_of, key_coords, FmmError, LevelGrid};
use crate::method::{build_structure, level_degrees, FmmParams, FmmStructure};

/// Deepest level the FMM supports: the dense Morton-indexed occupancy
/// tables hold `8^l` entries per level, so depth is capped where that
/// stays reasonable (level 8 ≈ 16.7M finest cells). A deeper request —
/// explicit, or automatic for a sparse cloud such as a huge collinear one
/// — is refused with [`FmmError::DenseGridTooDeep`] before any grid is
/// built; the engine serves it from the treecode.
pub const COMPILED_MAX_LEVELS: usize = 8;

/// Largest degree a level with an M2L list may resolve in the compiled
/// backend. The unit operator tables are process-wide and never freed, so
/// this caps them: 146 MB for the largest single table (under the
/// engine's default 256 MB plan budget, which a per-plan copy of it would
/// have had to fit anyway), 527 MB if every degree up to the cap is ever
/// used (see [`shared_operator_bytes`]). The engine serves higher
/// degrees from the treecode.
pub const COMPILED_MAX_DEGREE: usize = 14;

/// Number of distinct geometric M2L offset classes (`Δ ∈ [-3,3]³` with
/// Chebyshev norm ≥ 2).
const M2L_OFFSET_CLASSES: usize = 316;

/// Occupied finest cells (or external-target cell groups) per parallel
/// work item of the evaluation sweeps; one [`CellScratch`] serves a block.
const EVAL_BLOCK: usize = 16;

/// Occupied cells per parallel work item of the P2M pass. One workspace
/// and one coefficient scratch serve a whole block, so the pass allocates
/// per block, not per cell.
const CHARGE_BLOCK: usize = 32;

/// The P2M contract, checked per cell when the `validate` feature is
/// enabled: a cell's monopole `M_0^0` is its net charge to within
/// `1e-12·A`, which a dropped or double-counted particle block breaks.
#[cfg(feature = "validate")]
fn validate_monopole(level: usize, cell: usize, monopole: Complex, particles: &[Particle]) {
    let net: f64 = particles.iter().map(|p| p.charge).sum();
    let abs: f64 = particles.iter().map(|p| p.charge.abs()).sum();
    assert!(
        (monopole - Complex::new(net, 0.0)).norm() <= 1e-12 * abs,
        "validate: level {level} cell {cell} monopole {monopole:?} must equal its net charge {net}"
    );
}

/// Offset tables shared by every level, degree and plan: the dense offset
/// list and, per target parity class (`x&1 | y&1<<1 | z&1<<2`), the
/// subset of offsets its interaction list can reach.
struct OffsetTables {
    /// All reachable offsets, in a fixed order (= operator order).
    offsets: Vec<(i32, i32, i32)>,
    /// Per parity class: `(dx, dy, dz, operator index)`, in ascending
    /// operator order.
    by_parity: Vec<Vec<(i32, i32, i32, u16)>>,
}

/// The offset tables, built on first use.
fn offset_tables() -> &'static OffsetTables {
    static TABLES: OnceLock<OffsetTables> = OnceLock::new();
    TABLES.get_or_init(build_offset_tables)
}

fn build_offset_tables() -> OffsetTables {
    // lint: allow(alloc, offset tables are built once per process)
    let mut offsets = Vec::new();
    for dz in -3i32..=3 {
        for dy in -3i32..=3 {
            for dx in -3i32..=3 {
                if dx.abs().max(dy.abs()).max(dz.abs()) >= 2 {
                    offsets.push((dx, dy, dz));
                }
            }
        }
    }
    debug_assert_eq!(offsets.len(), M2L_OFFSET_CLASSES);
    let index_of = |d: (i32, i32, i32)| -> u16 {
        offsets
            .iter()
            .position(|&o| o == d)
            // lint: allow(panic, the 7-cube scan above inserted every reachable offset)
            .expect("offset in table") as u16
    };
    // lint: allow(alloc, offset tables are built once per process)
    let mut by_parity: Vec<Vec<(i32, i32, i32, u16)>> = vec![Vec::new(); 8];
    for (parity, list) in by_parity.iter_mut().enumerate() {
        let b = (
            (parity & 1) as i32,
            ((parity >> 1) & 1) as i32,
            ((parity >> 2) & 1) as i32,
        );
        // children of the target's parent's neighbours: Δ = 2d + o − b
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    for oz in 0..2i32 {
                        for oy in 0..2i32 {
                            for ox in 0..2i32 {
                                let d = (2 * dx + ox - b.0, 2 * dy + oy - b.1, 2 * dz + oz - b.2);
                                if d.0.abs().max(d.1.abs()).max(d.2.abs()) <= 1 {
                                    continue; // adjacent: near field
                                }
                                list.push((d.0, d.1, d.2, index_of(d)));
                            }
                        }
                    }
                }
            }
        }
        // operator order: the order every local accumulates its M2L terms
        list.sort_unstable_by_key(|&(_, _, _, op)| op);
    }
    OffsetTables { offsets, by_parity }
}

/// The process-wide unit-cube M2L tables, one slot per degree, each
/// filled on first use and never freed.
static UNIT_M2L: [OnceLock<Box<[f64]>>; COMPILED_MAX_DEGREE + 1] =
    [const { OnceLock::new() }; COMPILED_MAX_DEGREE + 1];

/// The degree-`p` unit table: the 316 offset-class operators at cell
/// edge 1, concatenated in offset-table order, each `2T × 2T`
/// column-major reals over interleaved coefficient spans. The first
/// caller per degree probes it (`O(p⁶)`); concurrent first callers wait
/// for that one fill.
fn unit_m2l(p: usize) -> &'static [f64] {
    UNIT_M2L[p].get_or_init(|| {
        let t = tri_len(p);
        let stride = (2 * t) * (2 * t);
        let offsets = &offset_tables().offsets;
        // lint: allow(alloc, once per process and degree)
        let mut table = vec![0.0f64; M2L_OFFSET_CLASSES * stride];
        table
            .par_chunks_mut(stride)
            .enumerate()
            .for_each(|(oi, mat)| {
                let (dx, dy, dz) = offsets[oi];
                probe_m2l(
                    mat,
                    Vec3::new(f64::from(dx), f64::from(dy), f64::from(dz)),
                    p,
                    t,
                );
            });
        table.into_boxed_slice()
    })
}

/// Heap bytes held by the process-wide unit M2L tables filled so far:
/// `316 · (2T)² · 8` per degree in use, `T = (p+1)(p+2)/2`. Shared by
/// every compiled FMM in the process and counted in none of them.
#[must_use]
pub fn shared_operator_bytes() -> usize {
    UNIT_M2L
        .iter()
        .filter_map(OnceLock::get)
        .map(|table| std::mem::size_of_val(&**table))
        .sum()
}

/// Per-level operators and the M2L list: everything the downward pass
/// needs besides the unit M2L table and the arenas.
#[derive(Debug, Default)]
struct LevelOps {
    /// `d^-n` per interleaved multipole entry `(n, m)` — the scale a
    /// level's stored multipoles carry so the unit table applies to them.
    pre_scale: Vec<f64>,
    /// `d^-(j+1)` per interleaved local entry `(j, k)` — the scale that
    /// takes the accumulated unit-table M2L sum to this level's edge.
    post_scale: Vec<f64>,
    /// The 8 child-octant L2L matrices (`2T_child × 2T_parent`).
    l2l_ops: Vec<f64>,
    /// Stride between consecutive L2L operators.
    l2l_stride: usize,
    /// The level's M2L pairs, operator-major: pairs `m2l_run[o]..
    /// m2l_run[o + 1]` go through unit operator `o` (offset-table order),
    /// sorted by target cell within the run (`317` entries).
    m2l_run: Vec<u32>,
    /// Target cell (dense occupied index) per pair.
    m2l_tgt: Vec<u32>,
    /// Source cell (dense occupied index) per pair.
    m2l_src: Vec<u32>,
}

/// Reusable SoA scratch holding the gathered 27-cell near field of one
/// finest cell.
#[derive(Debug, Default)]
struct NearGather {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    qs: Vec<f64>,
}

/// Per-work-item scratch of the finest-cell evaluation routine
/// ([`CompiledFmm::eval_cell`]), reused across a block of cells so the
/// sweep allocates per block, not per cell.
#[derive(Debug, Default)]
struct CellScratch {
    /// Lane width of the L2P groups: the dispatched width, fixed for the
    /// block.
    lanes: usize,
    bws: BatchWorkspace,
    /// Near-field particle ranges of the current cell.
    near: Vec<(u32, u32)>,
    gather: NearGather,
    /// Target positions of the current cell.
    targets: Vec<Vec3>,
    /// `(Φ, ∇Φ)` per target of the current cell.
    out: Vec<(f64, Vec3)>,
    /// On-demand local chain of an unoccupied cell: current level, next
    /// level, M2L accumulator.
    chain: [Vec<f64>; 3],
}

impl CellScratch {
    /// Scratch for L2P at the finest degree `p`.
    fn new(p: usize) -> CellScratch {
        let mut sc = CellScratch {
            lanes: simd::m2p_lanes(),
            ..CellScratch::default()
        };
        sc.bws.prepare_degree_lanes(p, sc.lanes);
        sc
    }
}

/// The geometry half of a compiled FMM: a pure function of the particle
/// positions, the parameters and the resolved degree vector. Shared by
/// `Arc` between a compiled FMM and every re-charge of it.
struct FmmGeometry {
    params: FmmParams,
    bounds: Aabb,
    levels: usize,
    degrees: Vec<usize>,
    perm: Vec<usize>,
    grids: Vec<LevelGrid>,
    /// SoA positions of the sorted particles.
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// Per level: dense Morton-indexed occupancy (`occupied index + 1`).
    occ: Vec<Vec<u32>>,
    /// Per level: Morton code of each occupied cell (dense order).
    mortons: Vec<Vec<u64>>,
    /// Per level: scales, L2L operators and M2L lists (levels 0/1 empty).
    ops: Vec<LevelOps>,
    /// Total compiled M2L list entries across all levels.
    m2l_pairs: u64,
}

impl FmmGeometry {
    /// Compiles occupancy, scales, L2L operators and M2L lists over a
    /// built structure, for the degree vector its charges
    /// resolved. Hands the sorted particles back for the charge pass.
    fn compile(
        structure: FmmStructure,
        degrees: Vec<usize>,
        params: FmmParams,
    ) -> (FmmGeometry, Vec<Particle>) {
        let FmmStructure {
            bounds,
            levels,
            sorted,
            perm,
            grids,
        } = structure;

        let mut xs = Vec::with_capacity(sorted.len());
        let mut ys = Vec::with_capacity(sorted.len());
        let mut zs = Vec::with_capacity(sorted.len());
        for p in &sorted {
            xs.push(p.position.x);
            ys.push(p.position.y);
            zs.push(p.position.z);
        }

        // dense occupancy + morton codes per level
        let mut occ: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
        let mut mortons: Vec<Vec<u64>> = Vec::with_capacity(levels + 1);
        for grid in &grids {
            // lint: allow(alloc, once per geometry build)
            let mut table = vec![0u32; 1usize << (3 * grid.level)];
            let mut codes: Vec<u64> = Vec::with_capacity(grid.len());
            codes.extend(grid.keys.iter().map(|&k| {
                let (x, y, z) = key_coords(k);
                mbt_geometry::morton::encode(x, y, z)
            }));
            for (ci, &code) in codes.iter().enumerate() {
                table[code as usize] = ci as u32 + 1;
            }
            occ.push(table);
            mortons.push(codes);
        }

        // per-level scales, L2L operators and M2L lists
        let tables = offset_tables();
        let mut ops: Vec<LevelOps> = Vec::with_capacity(levels + 1);
        ops.resize_with(levels + 1, LevelOps::default);
        let mut m2l_pairs = 0u64;
        for l in 2..=levels {
            let p = degrees[l];
            let p_par = degrees[l - 1];
            let t = tri_len(p);
            let t_par = tri_len(p_par);
            let edge = grids[l].cell_edge;
            let lv = &mut ops[l];

            // d^-n for n = 0..=p+1, by repeated multiplication
            let mut inv_pow = Vec::with_capacity(p + 2);
            let mut power = 1.0f64;
            for _ in 0..p + 2 {
                inv_pow.push(power);
                power /= edge;
            }
            lv.pre_scale = Vec::with_capacity(2 * t);
            lv.post_scale = Vec::with_capacity(2 * t);
            for n in 0..=p {
                for m in 0..=n {
                    debug_assert_eq!(lv.pre_scale.len(), 2 * tri_index(n, m));
                    lv.pre_scale.extend([inv_pow[n]; 2]);
                    lv.post_scale.extend([inv_pow[n + 1]; 2]);
                }
            }

            // L2L: probe the 8 child octants
            lv.l2l_stride = (2 * t) * (2 * t_par);
            // lint: allow(alloc, once per geometry build)
            lv.l2l_ops = vec![0.0f64; 8 * lv.l2l_stride];
            for (octant, mat) in lv.l2l_ops.chunks_mut(lv.l2l_stride).enumerate() {
                let (bx, by, bz) = mbt_geometry::morton::decode(octant as u64);
                let delta = Vec3::new(
                    (f64::from(bx) - 0.5) * edge,
                    (f64::from(by) - 0.5) * edge,
                    (f64::from(bz) - 0.5) * edge,
                );
                probe_l2l(mat, delta, p_par, p, t_par, t);
            }

            // the M2L pairs, operator-major: sorted by (operator, target)
            let grid = &grids[l];
            let side = 1i64 << l;
            let mut pairs: Vec<(u16, u32, u32)> = Vec::with_capacity(grid.len() * 32);
            for ci in 0..grid.len() {
                let (x, y, z) = key_coords(grid.keys[ci]);
                let parity = ((x & 1) | (y & 1) << 1 | (z & 1) << 2) as usize;
                for &(dx, dy, dz, op) in &tables.by_parity[parity] {
                    let sx = i64::from(x) + i64::from(dx);
                    let sy = i64::from(y) + i64::from(dy);
                    let sz = i64::from(z) + i64::from(dz);
                    if sx < 0 || sy < 0 || sz < 0 || sx >= side || sy >= side || sz >= side {
                        continue;
                    }
                    let code = mbt_geometry::morton::encode(sx as u32, sy as u32, sz as u32);
                    let si = occ[l][code as usize];
                    if si != 0 {
                        pairs.push((op, ci as u32, si - 1));
                    }
                }
            }
            // a target meets each operator at most once: the key is unique
            pairs.sort_unstable_by_key(|&(op, ti, _)| (op, ti));
            lv.m2l_run = Vec::with_capacity(M2L_OFFSET_CLASSES + 1);
            lv.m2l_run.extend(
                (0..=M2L_OFFSET_CLASSES)
                    .map(|o| pairs.partition_point(|&(op, _, _)| usize::from(op) < o) as u32),
            );
            lv.m2l_tgt = Vec::with_capacity(pairs.len());
            lv.m2l_tgt.extend(pairs.iter().map(|&(_, ti, _)| ti));
            lv.m2l_src = Vec::with_capacity(pairs.len());
            lv.m2l_src.extend(pairs.iter().map(|&(_, _, si)| si));
            m2l_pairs += pairs.len() as u64;
        }

        let geometry = FmmGeometry {
            params,
            bounds,
            levels,
            degrees,
            perm,
            grids,
            xs,
            ys,
            zs,
            occ,
            mortons,
            ops,
            m2l_pairs,
        };
        (geometry, sorted)
    }

    /// Accumulates the unit-table M2L sums of the level-`l` target cells
    /// `c0..c0 + acc.len() / 2T` into `acc` (their spans, in cell order),
    /// over the level's pre-scaled multipoles `mult`. Walks the operators
    /// in index order and applies each to its pairs in this range in
    /// groups of up to [`M2L_GROUP`], so one operator is streamed once per
    /// group rather than once per pair. `pack` (`2 · M2L_GROUP · 2T` long)
    /// holds the lane-major inputs and outputs of a group.
    ///
    /// Every target meets each operator at most once, so each span of
    /// `acc` receives its terms in operator-index order, chained through
    /// [`m2l_apply_group`]'s `mul_add`s: the sums do not depend on how the
    /// cells were split into ranges or the pairs into groups. A pair whose
    /// source multipole is all zeros is skipped, as `m2l_apply` skips zero
    /// columns: it would add only zeros (all-zero charges, such as a
    /// Krylov solver's first matvec, skip the pass).
    fn m2l_range(&self, l: usize, mult: &[f64], c0: usize, acc: &mut [f64], pack: &mut [f64]) {
        let lv = &self.ops[l];
        let width = 2 * tri_len(self.degrees[l]);
        let stride = width * width;
        let unit = unit_m2l(self.degrees[l]);
        let c1 = c0 + acc.len() / width;
        let mut group = [(0usize, 0usize); M2L_GROUP];
        for (oi, run) in lv.m2l_run.windows(2).enumerate() {
            let (s, e) = (run[0] as usize, run[1] as usize);
            let targets = &lv.m2l_tgt[s..e];
            let lo = s + targets.partition_point(|&t| (t as usize) < c0);
            let hi = s + targets.partition_point(|&t| (t as usize) < c1);
            let op = &unit[oi * stride..(oi + 1) * stride];
            let mut lanes = 0;
            for k in lo..hi {
                let si = lv.m2l_src[k] as usize;
                if all_zero(&mult[si * width..(si + 1) * width]) {
                    continue;
                }
                group[lanes] = (si, lv.m2l_tgt[k] as usize - c0);
                lanes += 1;
                if lanes == M2L_GROUP {
                    apply_m2l_group(op, width, &group, mult, acc, pack);
                    lanes = 0;
                }
            }
            if lanes > 0 {
                apply_m2l_group(op, width, &group[..lanes], mult, acc, pack);
            }
        }
    }

    /// Adds the M2L contribution of one level-`l` cell's interaction list
    /// `(source index, operator index)`, in ascending operator order —
    /// unit-table operators over the level's pre-scaled multipoles,
    /// post-scaled to the level's edge — into the local span `y`, using
    /// `acc` (same length, any contents) as accumulator scratch. The same
    /// arithmetic as [`Self::m2l_range`] at group width 1.
    fn add_m2l(
        &self,
        l: usize,
        mult: &[f64],
        list: impl Iterator<Item = (usize, usize)>,
        acc: &mut [f64],
        y: &mut [f64],
    ) {
        let width = y.len();
        let stride = width * width;
        let unit = unit_m2l(self.degrees[l]);
        acc.fill(0.0);
        for (si, oi) in list {
            let source = &mult[si * width..(si + 1) * width];
            if all_zero(source) {
                continue;
            }
            m2l_apply_group(&unit[oi * stride..(oi + 1) * stride], source, acc, 1);
        }
        self.add_post_scaled(l, acc, y);
    }

    /// `y += acc · d^-(j+1)`: a level-`l` M2L sum taken to the level's
    /// edge and added into the local span `y`.
    fn add_post_scaled(&self, l: usize, acc: &[f64], y: &mut [f64]) {
        for ((y, a), s) in y.iter_mut().zip(acc).zip(&self.ops[l].post_scale) {
            *y += a * s;
        }
    }
}

/// Whether a coefficient span has no nonzero entry.
fn all_zero(span: &[f64]) -> bool {
    !span.iter().any(|v| v.abs() > 0.0)
}

/// One M2L group: the pairs `(source cell, target span index)` of one
/// `width × width` operator `op`, packed lane-major into `pack`
/// (multipoles from `mult`, running sums from `acc`), applied in one
/// [`m2l_apply_group`] call, and the sums scattered back into `acc`.
fn apply_m2l_group(
    op: &[f64],
    width: usize,
    group: &[(usize, usize)],
    mult: &[f64],
    acc: &mut [f64],
    pack: &mut [f64],
) {
    let lanes = group.len();
    let (xs, ys) = pack.split_at_mut(M2L_GROUP * width);
    let (x, y) = (&mut xs[..lanes * width], &mut ys[..lanes * width]);
    for (lane, &(si, ti)) in group.iter().enumerate() {
        let source = &mult[si * width..(si + 1) * width];
        let target = &acc[ti * width..(ti + 1) * width];
        for ((xc, yc), (&m, &a)) in x
            .chunks_exact_mut(lanes)
            .zip(y.chunks_exact_mut(lanes))
            .zip(source.iter().zip(target))
        {
            xc[lane] = m;
            yc[lane] = a;
        }
    }
    m2l_apply_group(op, x, y, lanes);
    for (lane, &(_, ti)) in group.iter().enumerate() {
        let target = &mut acc[ti * width..(ti + 1) * width];
        for (a, yc) in target.iter_mut().zip(y.chunks_exact(lanes)) {
            *a = yc[lane];
        }
    }
}

/// The FMM compiled into flat arenas, ready to evaluate at sources and at
/// arbitrary external targets: a shared geometry half plus the charge
/// half built over it (see the module docs).
pub struct CompiledFmm {
    geo: Arc<FmmGeometry>,
    /// The sorted particles, carrying this charge vector.
    particles: Vec<Particle>,
    /// SoA charges of the sorted particles for the near-field kernels.
    qs: Vec<f64>,
    /// Per level: interleaved multipole coefficients (occupied × `2T`),
    /// pre-scaled by `d^-n`; empty for levels 0/1, which nothing reads.
    mult_re: Vec<Vec<f64>>,
    /// Per level: interleaved local coefficients (occupied × `2T`).
    locals_re: Vec<Vec<f64>>,
    /// P2M terms formed during the upward pass.
    pub translation_terms: u64,
    /// Total compiled M2L list entries across all levels.
    pub m2l_pairs: u64,
}

impl CompiledFmm {
    /// Builds the compiled FMM over a particle set: geometry, then the
    /// charge pass.
    pub fn new(particles: &[Particle], params: FmmParams) -> Result<CompiledFmm, FmmError> {
        let structure = build_structure(particles, &params)?;
        let degrees = level_degrees(&structure.grids, &structure.sorted, params.degree);
        if let Some(&degree) = degrees.iter().skip(2).find(|&&p| p > COMPILED_MAX_DEGREE) {
            return Err(FmmError::OperatorTableTooLarge {
                degree,
                max: COMPILED_MAX_DEGREE,
            });
        }
        let (geometry, sorted) = FmmGeometry::compile(structure, degrees, params);
        Ok(CompiledFmm::charge(Arc::new(geometry), sorted))
    }

    /// The same particle positions under a new charge vector (caller's
    /// original order): re-resolves the degree vector from the new
    /// charges and, when it is unchanged (always, for a fixed degree),
    /// runs only the charge pass over the shared geometry; a moved degree
    /// vector rebuilds. Either way the result is bit-identical to
    /// [`CompiledFmm::new`] over the same positions and `charges`.
    ///
    /// A charge vector whose length is not the particle count is refused
    /// with [`FmmError::ChargeCountMismatch`].
    pub fn with_charges(&self, charges: &[f64]) -> Result<CompiledFmm, FmmError> {
        let geo = &self.geo;
        if charges.len() != geo.perm.len() {
            return Err(FmmError::ChargeCountMismatch {
                expected: geo.perm.len(),
                got: charges.len(),
            });
        }
        if let Some(index) = charges.iter().position(|q| !q.is_finite()) {
            return Err(FmmError::NonFinite { index });
        }
        let mut sorted: Vec<Particle> = Vec::with_capacity(charges.len());
        sorted.extend(geo.perm.iter().enumerate().map(|(i, &orig)| {
            Particle::new(Vec3::new(geo.xs[i], geo.ys[i], geo.zs[i]), charges[orig])
        }));
        let degrees = level_degrees(&geo.grids, &sorted, geo.params.degree);
        if degrees == geo.degrees {
            return Ok(CompiledFmm::charge(Arc::clone(geo), sorted));
        }
        // the L2L operators, scales and arena shapes follow the degree
        // vector: rebuild from the caller-order particles
        // lint: allow(alloc, once per degree-changing charge update)
        let mut particles = sorted.clone();
        for (p, &orig) in sorted.iter().zip(&geo.perm) {
            particles[orig] = *p;
        }
        CompiledFmm::new(&particles, geo.params)
    }

    /// The charge pass: P2M into pre-scaled multipole arenas, then the
    /// downward pass (L2L from the parent plus the operator-major M2L
    /// list) into the local arenas.
    fn charge(geo: Arc<FmmGeometry>, sorted: Vec<Particle>) -> CompiledFmm {
        let levels = geo.levels;
        let mut qs: Vec<f64> = Vec::with_capacity(sorted.len());
        qs.extend(sorted.iter().map(|p| p.charge));

        // upward: P2M straight into the interleaved arenas of the levels
        // whose multipoles are read (levels 0 and 1 have no M2L lists)
        let mut translation_terms = 0u64;
        // lint: allow(alloc, empty per-level slots, filled below for the levels that are read)
        let mut mult_re: Vec<Vec<f64>> = vec![Vec::new(); levels + 1];
        #[allow(clippy::needless_range_loop)] // `l` indexes several level-keyed arrays
        for l in 2..=levels {
            let grid = &geo.grids[l];
            let p = geo.degrees[l];
            let t = tri_len(p);
            let pre_scale = &geo.ops[l].pre_scale;
            // lint: allow(alloc, one multipole arena per level and charge pass)
            let mut arena = vec![0.0f64; grid.len() * 2 * t];
            arena
                .par_chunks_mut(CHARGE_BLOCK * 2 * t)
                .enumerate()
                .for_each(|(block, spans)| {
                    let mut ws = Workspace::with_capacity(p);
                    // lint: allow(alloc, one P2M scratch per block of cells)
                    let mut scratch = vec![Complex::ZERO; t];
                    for (k, span) in spans.chunks_mut(2 * t).enumerate() {
                        let ci = block * CHARGE_BLOCK + k;
                        let (s, e) = grid.ranges[ci];
                        let cell = &sorted[s as usize..e as usize];
                        p2m_into(&mut scratch, grid.centers[ci], p, cell, &mut ws);
                        #[cfg(feature = "validate")]
                        validate_monopole(l, ci, scratch[0], cell);
                        for (k, c) in scratch.iter().enumerate() {
                            span[2 * k] = c.re * pre_scale[2 * k];
                            span[2 * k + 1] = c.im * pre_scale[2 * k + 1];
                        }
                    }
                });
            translation_terms += (grid.len() as u64) * ((p as u64 + 1) * (p as u64 + 1));
            mult_re[l] = arena;
        }

        // downward: per level, the operator-major M2L pass over one
        // contiguous range of target cells per worker, then per cell L2L
        // from the parent plus the post-scaled M2L sum
        let mut locals_re: Vec<Vec<f64>> = Vec::with_capacity(levels + 1);
        for l in 0..=levels {
            // lint: allow(alloc, one local arena per level and charge pass)
            locals_re.push(vec![
                0.0f64;
                geo.grids[l].len() * 2 * tri_len(geo.degrees[l])
            ]);
        }
        let workers = rayon::current_num_threads().max(1);
        for l in 2..=levels {
            let width = 2 * tri_len(geo.degrees[l]);
            let t_par = tri_len(geo.degrees[l - 1]);
            let (before, after) = locals_re.split_at_mut(l);
            let parents = &before[l - 1];
            let lv = &geo.ops[l];
            let mult = &mult_re[l];
            let level_mortons = &geo.mortons[l];
            let parent_occ = &geo.occ[l - 1];
            let per_range = geo.grids[l].len().div_ceil(workers);
            after[0]
                .par_chunks_mut(per_range * width)
                .enumerate()
                .for_each(|(range, spans)| {
                    let c0 = range * per_range;
                    // lint: allow(alloc, one M2L accumulator and group scratch per worker range)
                    let mut scratch = vec![0.0f64; spans.len() + 2 * M2L_GROUP * width];
                    let (acc, pack) = scratch.split_at_mut(spans.len());
                    geo.m2l_range(l, mult, c0, acc, pack);
                    for (k, (y, a)) in spans
                        .chunks_mut(width)
                        .zip(acc.chunks_exact(width))
                        .enumerate()
                    {
                        let tm = level_mortons[c0 + k];
                        let pi = parent_occ[(tm >> 3) as usize] as usize - 1;
                        let octant = (tm & 7) as usize;
                        m2l_apply(
                            &lv.l2l_ops[octant * lv.l2l_stride..(octant + 1) * lv.l2l_stride],
                            &parents[pi * 2 * t_par..(pi + 1) * 2 * t_par],
                            y,
                        );
                        geo.add_post_scaled(l, a, y);
                    }
                });
        }

        CompiledFmm {
            m2l_pairs: geo.m2l_pairs,
            geo,
            particles: sorted,
            qs,
            mult_re,
            locals_re,
            translation_terms,
        }
    }

    /// The finest level index.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.geo.levels
    }

    /// The per-level expansion degrees.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.geo.degrees
    }

    /// The root bounding cube.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.geo.bounds
    }

    /// Approximate owned heap footprint, both halves: arenas, L2L
    /// operators, occupancy tables, lists, and particle mirrors (for cache
    /// accounting). The process-wide unit M2L tables are not owned and not
    /// counted ([`shared_operator_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let geo = &*self.geo;
        let f64s = geo.xs.len() * 4 * 8
            + self.particles.len() * std::mem::size_of::<Particle>()
            + geo.perm.len() * 8;
        let arenas: usize = self
            .mult_re
            .iter()
            .zip(&self.locals_re)
            .map(|(m, l)| (m.len() + l.len()) * 8)
            .sum();
        let occ: usize = geo.occ.iter().map(|t| t.len() * 4).sum();
        let mortons: usize = geo.mortons.iter().map(|m| m.len() * 8).sum();
        let ops: usize = geo
            .ops
            .iter()
            .map(|o| {
                (o.pre_scale.len() + o.post_scale.len() + o.l2l_ops.len()) * 8
                    + (o.m2l_run.len() + o.m2l_tgt.len() + o.m2l_src.len()) * 4
            })
            .sum();
        let grids: usize = geo.grids.iter().map(|g| g.len() * (8 + 24 + 8 + 48)).sum();
        f64s + arenas + occ + mortons + ops + grids
    }

    /// Potentials at all source particles, caller order.
    #[must_use]
    pub fn potentials(&self) -> EvalResult<f64> {
        let geo = &*self.geo;
        let finest = &geo.grids[geo.levels];
        let codes = &geo.mortons[geo.levels];
        let per_block: Vec<(Vec<f64>, EvalStats)> = finest
            .ranges
            .par_chunks(EVAL_BLOCK)
            .enumerate()
            .map(|(block, ranges)| {
                let mut sc = CellScratch::new(geo.degrees[geo.levels]);
                let mut stats = EvalStats::default();
                let total = ranges.iter().map(|&(s, e)| (e - s) as usize).sum();
                let mut vals = Vec::with_capacity(total);
                for (k, &(s, e)) in ranges.iter().enumerate() {
                    sc.targets.clear();
                    sc.targets
                        .extend((s..e).map(|i| self.particles[i as usize].position));
                    self.eval_cell::<false>(codes[block * EVAL_BLOCK + k], &mut sc, &mut stats);
                    vals.extend(sc.out.iter().map(|&(phi, _)| phi));
                }
                (vals, stats)
            })
            // lint: allow(alloc, one result per block of cells)
            .collect();

        // lint: allow(alloc, result buffer handed to the caller)
        let mut out = vec![0.0f64; self.particles.len()];
        let mut stats = EvalStats::default();
        for (block, (vals, block_stats)) in per_block.iter().enumerate() {
            let ranges = finest.ranges[block * EVAL_BLOCK..].iter().take(EVAL_BLOCK);
            let sorted = ranges.flat_map(|&(s, e)| s as usize..e as usize);
            for (i, &v) in sorted.zip(vals) {
                out[geo.perm[i]] = v;
            }
            stats.merge(block_stats);
        }
        EvalResult { values: out, stats }
    }

    /// The one per-cell routine behind [`Self::potentials`] and the
    /// external sweeps: L2P of finest cell `code`'s local expansion at
    /// `sc.targets`, in broadcast-coefficient lane groups of the
    /// dispatched width, then one guarded near-field span per target over
    /// the gathered 27-cell neighbourhood (the `r = 0` guard drops a
    /// target's own source). Writes `(Φ, ∇Φ)` per target into `sc.out`
    /// (`∇Φ` only with `FIELD`) and records the counters.
    fn eval_cell<const FIELD: bool>(&self, code: u64, sc: &mut CellScratch, stats: &mut EvalStats) {
        if sc.lanes == 8 {
            self.eval_cell_lanes::<8, FIELD>(code, sc, stats);
        } else {
            self.eval_cell_lanes::<M2P_LANES, FIELD>(code, sc, stats);
        }
    }

    fn eval_cell_lanes<const L: usize, const FIELD: bool>(
        &self,
        code: u64,
        sc: &mut CellScratch,
        stats: &mut EvalStats,
    ) {
        let geo = &*self.geo;
        let p = geo.degrees[geo.levels];
        let (x, y, z) = mbt_geometry::morton::decode(code);
        let center = cell_center(&geo.bounds, 1u32 << geo.levels, x, y, z);
        let CellScratch {
            bws,
            near,
            gather,
            targets,
            out,
            chain,
            ..
        } = sc;
        let local = self.local_for_cell(code, chain);
        self.gather_near(x, y, z, near, gather);
        out.clear();
        for group in targets.chunks(L) {
            // pad a short group by repeating its last point
            let points = std::array::from_fn(|l| group[l.min(group.len() - 1)]);
            let (phi, grad) = if FIELD {
                l2p_field_group::<L>(center, local, &points, bws)
            } else {
                (
                    l2p_potential_group::<L>(center, local, &points, bws),
                    [Vec3::ZERO; L],
                )
            };
            out.extend((0..group.len()).map(|l| (phi[l], grad[l])));
        }
        let NearGather { xs, ys, zs, qs } = gather;
        for (slot, &t) in out.iter_mut().zip(targets.iter()) {
            stats.record_interaction(p);
            let (phi, grad, pairs) = p2p_span::<f64, true, FIELD>(xs, ys, zs, qs, t, 0.0);
            slot.0 += phi;
            slot.1 += grad;
            stats.record_direct(pairs);
        }
        stats.targets += targets.len() as u64;
    }

    /// Copies the particles of the (up to 27) occupied finest cells around
    /// `(x, y, z)` into one contiguous SoA scratch, in sorted-range order,
    /// so each target makes a single span call: the gather is amortised
    /// over every target of the cell, and one full-width sweep with one
    /// tail replaces per-range calls with per-range tails.
    fn gather_near(
        &self,
        x: u32,
        y: u32,
        z: u32,
        near: &mut Vec<(u32, u32)>,
        out: &mut NearGather,
    ) {
        let geo = &*self.geo;
        let finest = &geo.grids[geo.levels];
        let side = 1i64 << geo.levels;
        near.clear();
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = i64::from(x) + dx;
                    let ny = i64::from(y) + dy;
                    let nz = i64::from(z) + dz;
                    if nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side {
                        continue;
                    }
                    let code = mbt_geometry::morton::encode(nx as u32, ny as u32, nz as u32);
                    let ni = geo.occ[geo.levels][code as usize];
                    if ni != 0 {
                        near.push(finest.ranges[ni as usize - 1]);
                    }
                }
            }
        }
        near.sort_unstable();
        out.xs.clear();
        out.ys.clear();
        out.zs.clear();
        out.qs.clear();
        for &(ns, ne) in near.iter() {
            let (ns, ne) = (ns as usize, ne as usize);
            out.xs.extend_from_slice(&geo.xs[ns..ne]);
            out.ys.extend_from_slice(&geo.ys[ns..ne]);
            out.zs.extend_from_slice(&geo.zs[ns..ne]);
            out.qs.extend_from_slice(&self.qs[ns..ne]);
        }
    }

    /// The interleaved local coefficients of finest cell `code`. An
    /// occupied cell's span is read from the arena in place; an empty cell
    /// gets an on-demand L2L/M2L chain down its cell path, built in the
    /// `chain` scratch (`[current, next, M2L accumulator]`).
    fn local_for_cell<'a>(&'a self, code: u64, chain: &'a mut [Vec<f64>; 3]) -> &'a [f64] {
        let geo = &*self.geo;
        let t = tri_len(geo.degrees[geo.levels]);
        let oc = geo.occ[geo.levels][code as usize];
        if oc != 0 {
            let ci = oc as usize - 1;
            return &self.locals_re[geo.levels][ci * 2 * t..(ci + 1) * 2 * t];
        }
        // the level-`l` ancestor on the cell path from the root
        let path = |l: usize| code >> (3 * (geo.levels - l));
        // deepest occupied ancestor (the root is always occupied)
        let mut la = geo.levels;
        while geo.occ[la][path(la) as usize] == 0 {
            la -= 1;
        }
        let [cur, next, acc] = chain;
        cur.clear();
        if la >= 2 {
            let tl = tri_len(geo.degrees[la]);
            let ci = geo.occ[la][path(la) as usize] as usize - 1;
            cur.extend_from_slice(&self.locals_re[la][ci * 2 * tl..(ci + 1) * 2 * tl]);
        } else {
            cur.resize(2 * tri_len(geo.degrees[la]), 0.0);
        }
        #[allow(clippy::needless_range_loop)] // `l` indexes several level-keyed arrays
        for l in la + 1..=geo.levels {
            let tl = tri_len(geo.degrees[l]);
            next.clear();
            next.resize(2 * tl, 0.0);
            if l >= 2 {
                let lv = &geo.ops[l];
                // L2L from the (possibly itself empty) parent chain; the
                // parent local below level 2 is identically zero.
                // lint: allow(float_cmp, exact-zero skip of an identically-zero parent local)
                if l > 2 || cur.iter().any(|&v| v != 0.0) {
                    let octant = (path(l) & 7) as usize;
                    m2l_apply(
                        &lv.l2l_ops[octant * lv.l2l_stride..(octant + 1) * lv.l2l_stride],
                        cur,
                        next,
                    );
                }
                // M2L over the interaction list of this (empty) cell
                let (x, y, z) = mbt_geometry::morton::decode(path(l));
                let parity = ((x & 1) | (y & 1) << 1 | (z & 1) << 2) as usize;
                let side = 1i64 << l;
                let list =
                    offset_tables().by_parity[parity]
                        .iter()
                        .filter_map(|&(dx, dy, dz, op)| {
                            let sx = i64::from(x) + i64::from(dx);
                            let sy = i64::from(y) + i64::from(dy);
                            let sz = i64::from(z) + i64::from(dz);
                            if sx < 0 || sy < 0 || sz < 0 || sx >= side || sy >= side || sz >= side
                            {
                                return None;
                            }
                            let scode =
                                mbt_geometry::morton::encode(sx as u32, sy as u32, sz as u32);
                            let si = geo.occ[l][scode as usize] as usize;
                            (si != 0).then(|| (si - 1, op as usize))
                        });
                acc.resize(2 * tl, 0.0);
                geo.add_m2l(l, &self.mult_re[l], list, acc, next);
            }
            std::mem::swap(cur, next);
        }
        cur
    }

    /// Potentials at arbitrary points (order preserved). Points outside the
    /// root cube are served by guarded direct sums.
    #[must_use]
    pub fn potentials_at(&self, points: &[Vec3]) -> EvalResult<f64> {
        // lint: allow(alloc, result buffer handed to the caller)
        let mut values = vec![0.0f64; points.len()];
        let stats = self.potentials_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// [`Self::potentials_at`] into a caller-provided slice.
    pub fn potentials_at_into(&self, points: &[Vec3], out: &mut [f64]) -> EvalStats {
        assert_eq!(points.len(), out.len());
        self.eval_external::<false>(points, |i, phi, _| out[i] = phi)
    }

    /// Potentials and gradients at arbitrary points.
    #[must_use]
    pub fn fields_at(&self, points: &[Vec3]) -> EvalResult<(f64, Vec3)> {
        // lint: allow(alloc, result buffer handed to the caller)
        let mut values = vec![(0.0f64, Vec3::ZERO); points.len()];
        let stats = self.fields_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// [`Self::fields_at`] into a caller-provided slice.
    pub fn fields_at_into(&self, points: &[Vec3], out: &mut [(f64, Vec3)]) -> EvalStats {
        assert_eq!(points.len(), out.len());
        self.eval_external::<true>(points, |i, phi, grad| out[i] = (phi, grad))
    }

    /// Shared external-target sweep: in-bounds points grouped by finest
    /// cell through [`Self::eval_cell`], the rest by guarded direct sums
    /// over all particles. Hands `(point index, Φ, ∇Φ)` to `write`
    /// (`∇Φ` only with `FIELD`).
    fn eval_external<const FIELD: bool>(
        &self,
        points: &[Vec3],
        mut write: impl FnMut(usize, f64, Vec3),
    ) -> EvalStats {
        let geo = &*self.geo;
        let cells = 1u32 << geo.levels;

        // group in-bounds points by finest cell; out-of-bounds directly
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(points.len());
        // lint: allow(alloc, O(points) grouping scratch per external query)
        let mut outside: Vec<u32> = Vec::new();
        for (i, pt) in points.iter().enumerate() {
            if geo.bounds.contains(*pt) {
                let (x, y, z) = cell_of(&geo.bounds, cells, *pt);
                keyed.push((mbt_geometry::morton::encode(x, y, z), i as u32));
            } else {
                outside.push(i as u32);
            }
        }
        keyed.sort_unstable();
        // lint: allow(alloc, O(points) grouping scratch per external query)
        let mut groups: Vec<(u64, usize, usize)> = Vec::new();
        let mut start = 0usize;
        while start < keyed.len() {
            let code = keyed[start].0;
            let mut end = start;
            while end < keyed.len() && keyed[end].0 == code {
                end += 1;
            }
            groups.push((code, start, end));
            start = end;
        }

        #[allow(clippy::type_complexity)] // per-block (index, φ, ∇φ) triples + stats
        let results: Vec<(Vec<(u32, f64, Vec3)>, EvalStats)> = groups
            .par_chunks(EVAL_BLOCK)
            .map(|block| {
                let mut sc = CellScratch::new(geo.degrees[geo.levels]);
                let mut stats = EvalStats::default();
                let total = block.iter().map(|&(_, s, e)| e - s).sum();
                let mut vals = Vec::with_capacity(total);
                for &(code, s, e) in block {
                    let group = &keyed[s..e];
                    sc.targets.clear();
                    sc.targets
                        .extend(group.iter().map(|&(_, idx)| points[idx as usize]));
                    self.eval_cell::<FIELD>(code, &mut sc, &mut stats);
                    let rows = group.iter().zip(&sc.out);
                    vals.extend(rows.map(|(&(_, idx), &(phi, grad))| (idx, phi, grad)));
                }
                (vals, stats)
            })
            // lint: allow(alloc, one result per block of cells)
            .collect();

        let mut stats = EvalStats::default();
        for (vals, s) in &results {
            stats.merge(s);
            for &(idx, phi, grad) in vals {
                write(idx as usize, phi, grad);
            }
        }

        // out-of-bounds: guarded direct sums over all particles
        let direct: Vec<(u32, f64, Vec3, u64)> = outside
            .par_iter()
            .map(|&idx| {
                let (phi, grad, pairs) = p2p_span::<f64, true, FIELD>(
                    &geo.xs,
                    &geo.ys,
                    &geo.zs,
                    &self.qs,
                    points[idx as usize],
                    0.0,
                );
                (idx, phi, grad, pairs)
            })
            // lint: allow(alloc, out-of-bounds fallback results, one tuple per point)
            .collect();
        for (idx, phi, grad, pairs) in direct {
            stats.targets += 1;
            stats.record_direct(pairs);
            write(idx as usize, phi, grad);
        }
        stats
    }
}

/// Probes one M2L operator: the real-linear map from a source multipole's
/// stored `m ≥ 0` span to the target local's span, for source center
/// `d_vec` relative to the target. Column-major `2T × 2T`. Called only to
/// fill the unit table ([`unit_m2l`]) — and by the tests that hold the
/// scaled table against it.
fn probe_m2l(mat: &mut [f64], d_vec: Vec3, p: usize, t: usize) {
    // lint: allow(alloc, one probe vector per operator of a unit-table fill)
    let mut probe = vec![Complex::ZERO; t];
    for k in 0..t {
        for (part, unit) in [Complex::ONE, Complex::I].into_iter().enumerate() {
            probe[k] = unit;
            let local = ExpansionRef::new(d_vec, p, &probe).to_local(Vec3::ZERO, p);
            let col = 2 * k + part;
            let mut r = 0usize;
            for j in 0..=p {
                for kk in 0..=j {
                    debug_assert_eq!(r, tri_index(j, kk));
                    let c = local.coeff(j, kk as i64);
                    mat[col * 2 * t + 2 * r] = c.re;
                    mat[col * 2 * t + 2 * r + 1] = c.im;
                    r += 1;
                }
            }
        }
        probe[k] = Complex::ZERO;
    }
}

/// Probes one L2L operator: parent local (degree `p_par`) at the origin to
/// a child local (degree `p`) centered at `delta`. Column-major
/// `2T × 2T_par`.
fn probe_l2l(mat: &mut [f64], delta: Vec3, p_par: usize, p: usize, t_par: usize, t: usize) {
    // lint: allow(alloc, one probe vector per L2L operator of a geometry build)
    let mut probe = vec![Complex::ZERO; t_par];
    for k in 0..t_par {
        for (part, unit) in [Complex::ONE, Complex::I].into_iter().enumerate() {
            probe[k] = unit;
            let child = LocalExpansion::from_coeffs(Vec3::ZERO, p_par, &probe).translated(delta, p);
            let col = 2 * k + part;
            let mut r = 0usize;
            for j in 0..=p {
                for kk in 0..=j {
                    let c = child.coeff(j, kk as i64);
                    mat[col * 2 * t + 2 * r] = c.re;
                    mat[col * 2 * t + 2 * r + 1] = c.im;
                    r += 1;
                }
            }
        }
        probe[k] = Complex::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{gaussian, overlapped_gaussians, uniform_cube, ChargeModel};
    use mbt_treecode::relative_error;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn morton_parent_child_contract() {
        // the arena layout relies on `parent = code >> 3` and
        // `octant = code & 7` decoding to the per-axis low bits
        for (x, y, z) in [(5u32, 9, 14), (0, 0, 1), (31, 2, 17)] {
            let code = mbt_geometry::morton::encode(x, y, z);
            assert_eq!(
                code >> 3,
                mbt_geometry::morton::encode(x >> 1, y >> 1, z >> 1)
            );
            assert_eq!(
                mbt_geometry::morton::decode(code & 7),
                (x & 1, y & 1, z & 1)
            );
        }
    }

    #[test]
    fn scaled_unit_table_matches_probing_at_every_edge() {
        // scale invariance: the operator over separation d·Δ is the unit
        // table entry times d^-(j+n+1), across twelve decades of edge
        let p = 5;
        let t = tri_len(p);
        let width = 2 * t;
        let unit = unit_m2l(p);
        let offsets = &offset_tables().offsets;
        let mut degree_of = Vec::with_capacity(width);
        for n in 0..=p {
            for _ in 0..=n {
                degree_of.extend([n as i32; 2]);
            }
        }
        let mut probed = vec![0.0f64; width * width];
        for edge in [1e-6, 0.25, 1.0, 1e6] {
            for oi in [0usize, 57, 158, 315] {
                let (dx, dy, dz) = offsets[oi];
                probed.fill(0.0);
                let d_vec = Vec3::new(f64::from(dx), f64::from(dy), f64::from(dz)) * edge;
                probe_m2l(&mut probed, d_vec, p, t);
                let mat = &unit[oi * width * width..(oi + 1) * width * width];
                let largest = probed.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(largest > 0.0);
                for col in 0..width {
                    for row in 0..width {
                        let scale = edge.powi(-(degree_of[row] + degree_of[col] + 1));
                        let want = probed[col * width + row];
                        let got = mat[col * width + row] * scale;
                        // entries of one (j, n) block share a scale, so
                        // compare against the block's own magnitude
                        let block = scale * mat.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        assert!(
                            (got - want).abs() <= 1e-10 * want.abs().max(1e-6 * block),
                            "edge {edge}, offset {oi}, ({row},{col}): {got} vs {want}"
                        );
                    }
                }
            }
        }
        assert!(shared_operator_bytes() >= M2L_OFFSET_CLASSES * width * width * 8);
    }

    #[test]
    fn external_targets_match_direct_in_and_out_of_bounds() {
        let ps = gaussian(2000, Vec3::ZERO, 0.4, charges(), 21);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        // a spread of targets: inside occupied space, in the sparse shell
        // (empty finest cells), and outside the root cube entirely
        let targets: Vec<Vec3> = (0..60)
            .map(|i| {
                let a = f64::from(i) * 0.61;
                let r = 0.1 + 0.06 * f64::from(i); // walks out past the hull
                Vec3::new(r * a.cos(), r * a.sin(), 0.02 * f64::from(i) - 0.6)
            })
            .collect();
        let got = fmm.potentials_at(&targets);
        assert_eq!(got.stats.targets, targets.len() as u64);
        for (k, &pt) in targets.iter().enumerate() {
            let exact: f64 = ps.iter().map(|p| p.charge / p.position.distance(pt)).sum();
            // p = 8 truncation leaves ~1e-4 relative error for deep
            // targets (matching the gaussian source acceptance); targets
            // outside the hull must be exact up to roundoff
            assert!(
                (got.values[k] - exact).abs() <= 1e-3 * exact.abs().max(1.0),
                "target {k} at {pt:?}: {} vs {exact}",
                got.values[k]
            );
        }
    }

    #[test]
    fn fields_at_match_direct() {
        let ps = uniform_cube(1500, 1.0, charges(), 29);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        let targets = [
            Vec3::new(0.21, -0.34, 0.4),
            Vec3::new(-0.48, 0.05, -0.11),
            Vec3::new(1.4, 1.2, -1.3), // out of bounds
        ];
        let got = fmm.fields_at(&targets);
        for (k, &pt) in targets.iter().enumerate() {
            let mut phi = 0.0;
            let mut grad = Vec3::ZERO;
            for p in &ps {
                let d = pt - p.position;
                let r2 = d.norm_sq();
                let r = r2.sqrt();
                phi += p.charge / r;
                grad += d * (-p.charge / (r2 * r));
            }
            let (gphi, ggrad) = got.values[k];
            assert!((gphi - phi).abs() <= 2e-4 * phi.abs().max(1.0), "phi {k}");
            assert!(
                ggrad.distance(grad) <= 1e-3 * grad.norm().max(1.0),
                "grad {k}: {ggrad:?} vs {grad:?}"
            );
        }
    }

    #[test]
    fn shallow_levels_are_exact_direct_sums() {
        let ps = uniform_cube(300, 1.0, charges(), 23);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        for levels in [0usize, 1] {
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(3).with_levels(levels)).unwrap();
            let r = fmm.potentials();
            assert!(relative_error(&r.values, &exact) < 1e-13, "levels={levels}");
        }
    }

    #[test]
    fn levels_past_the_depth_cap_are_refused_before_any_grid() {
        // deeper than the dense tables allow: a typed error, which the
        // engine answers with a treecode plan under the same key
        let too_deep = FmmParams::fixed(3).with_levels(COMPILED_MAX_LEVELS + 1);
        let refused = FmmError::DenseGridTooDeep { levels: 9, max: 8 };
        assert_eq!(too_deep.validate(), Err(refused.clone()));
        // validation runs before the particles are looked at: an empty
        // set is refused for its depth, not for being empty
        assert_eq!(CompiledFmm::new(&[], too_deep).err(), Some(refused.clone()));
        let ps = uniform_cube(500, 1.0, charges(), 31);
        assert_eq!(CompiledFmm::new(&ps, too_deep).err(), Some(refused));
        let deepest = FmmParams::fixed(3).with_levels(COMPILED_MAX_LEVELS);
        assert!(deepest.validate().is_ok());
    }

    #[test]
    fn empty_cells_are_skipped_gracefully() {
        // a very clustered instance leaves most finest-level cells empty
        let tight = overlapped_gaussians(1000, 2, 3.0, 0.05, charges(), 17);
        let exact = mbt_treecode::direct::direct_potentials(&tight);
        let fmm = CompiledFmm::new(&tight, FmmParams::fixed(10).with_levels(4)).unwrap();
        let e = relative_error(&fmm.potentials().values, &exact);
        assert!(e < 1e-4, "clustered instance error {e}");
        // most cells empty: finest grid holds far fewer cells than 8^4
        assert!(fmm.geo.grids[4].len() < 4096 / 4);
    }

    #[test]
    fn with_charges_refuses_a_wrong_length_charge_vector() {
        let ps = uniform_cube(600, 1.0, charges(), 41);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(3).with_levels(2)).unwrap();
        let short = vec![1.0; 599];
        assert_eq!(
            fmm.with_charges(&short).err(),
            Some(FmmError::ChargeCountMismatch {
                expected: 600,
                got: 599,
            })
        );
    }

    #[test]
    fn heap_bytes_reports_plausible_footprint() {
        let ps = uniform_cube(2000, 1.0, charges(), 37);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(3)).unwrap();
        let bytes = fmm.heap_bytes();
        // at minimum the particle mirrors; well under a gigabyte here
        assert!(bytes > 2000 * 4 * 8, "bytes = {bytes}");
        assert!(bytes < 1 << 30, "bytes = {bytes}");
        assert!(fmm.m2l_pairs > 0);
    }
}
