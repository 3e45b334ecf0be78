//! FMM parameters and the build prefix every FMM shares: the Morton
//! order (shared with the octree, see [`MortonOrder`]), the level grids
//! with their parent, child and neighbour links (grown and linked one
//! level at a time, top-down), the counted depth and the per-level degree
//! rule.

use std::sync::Arc;

use mbt_geometry::{morton, Aabb, MortonOrder, Particle};
use mbt_multipole::{tri_len, DegreeSelector, MAX_DEGREE};

use crate::grid::{cell_center, median_positive, neighbour_list, occupied, FmmError, LevelGrid};

/// Predicted nanoseconds per M2L matrix entry: one pair at degree `p`
/// costs `(2T)²` of them, `T = (p+1)(p+2)/2` (the unit operator is a
/// dense `2T × 2T` real matrix).
const M2L_NS_PER_ENTRY: f64 = 0.1;

/// Predicted nanoseconds per near-field pair.
const NEAR_NS_PER_PAIR: f64 = 1.0;

/// The deepest finest level: cells are read off Morton keys of
/// [`morton::BITS`] bits per axis.
const MAX_LEVELS: usize = morton::BITS as usize;

/// FMM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmmParams {
    /// Finest level `L` (the root is level 0). `None` counts the depth:
    /// the level whose predicted charge pass plus one evaluation is
    /// cheapest (see [`DepthCount`]).
    pub levels: Option<usize>,
    /// Degree policy. `Fixed(p)` is the classical FMM; `Adaptive {..}`
    /// ramps the degree per level by cluster weight (Theorem 3 applied to
    /// the level-synchronised hierarchy).
    pub degree: DegreeSelector,
    /// Targets per evaluation the counted depth is priced for; `None`
    /// prices the sources as the targets. Ignored under explicit
    /// `levels`.
    pub targets: Option<usize>,
}

impl FmmParams {
    /// Classical fixed-degree FMM.
    #[must_use]
    pub fn fixed(p: usize) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::Fixed(p),
            targets: None,
        }
    }

    /// Adaptive per-level degrees with the same selector as the treecode.
    /// `alpha` only parameterises the decay ratio κ of the rule; the FMM's
    /// admissibility is the standard non-adjacency criterion.
    #[must_use]
    pub fn adaptive(p_min: usize, alpha: f64) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::adaptive(p_min, alpha),
            targets: None,
        }
    }

    /// Tolerance-driven per-level degrees: each level stores the smallest
    /// degree whose Theorem-1 bound — at the level's worst-case M2L
    /// geometry (cluster radius `d·√3/2`, center separation `2d`, i.e.
    /// the nearest non-adjacent cell) over the level's largest cell
    /// charge — meets `tol`.
    #[must_use]
    pub fn tolerance(tol: f64) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::tolerance(tol),
            targets: None,
        }
    }

    /// Overrides the counted depth: the one way to pin the finest level.
    /// A level past [`morton::BITS`] is refused by [`FmmParams::validate`].
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = Some(levels);
        self
    }

    /// Prices the counted depth for evaluations at `n` targets rather
    /// than at the sources: a few targets per matvec make near pairs
    /// cheap and M2L dear, so the depth comes out shallower.
    #[must_use]
    pub fn for_targets(mut self, n: usize) -> Self {
        self.targets = Some(n);
        self
    }

    /// The degree the counted depth prices M2L pairs at: the smallest the
    /// policy can emit — `p` under `Fixed(p)`, `p_min` otherwise. It is
    /// what an adaptive policy's finest level, which holds most pairs,
    /// resolves to; the other degrees follow the charges, and the depth
    /// must not. (The largest, `p_max`, defaults to `MAX_DEGREE`, where
    /// one M2L pair prices as 0.3 ms and no level would ever pay off.)
    #[must_use]
    pub(crate) fn pricing_degree(&self) -> usize {
        match self.degree {
            DegreeSelector::Fixed(p) => p,
            DegreeSelector::Adaptive { p_min, .. } | DegreeSelector::Tolerance { p_min, .. } => {
                p_min
            }
        }
    }

    /// Checks the parameters against the structural limits, mirroring
    /// `TreecodeParams::validate`: every rejection is a typed
    /// [`FmmError`], never a downstream panic.
    pub fn validate(&self) -> Result<(), FmmError> {
        let degree = self.degree.max_degree();
        if degree > MAX_DEGREE {
            return Err(FmmError::DegreeTooLarge {
                degree,
                max: MAX_DEGREE,
            });
        }
        match self.levels {
            Some(levels) if levels > MAX_LEVELS => Err(FmmError::TooDeep {
                levels,
                max: MAX_LEVELS,
            }),
            _ => Ok(()),
        }
    }
}

/// What one candidate finest level `L` costs, counted from the sorted
/// Morton codes before any expansion is formed.
///
/// The predicted cost of one charge pass plus one evaluation
/// ([`DepthCount::cost_ns`]) is
/// `a·(2T)²·m2l_pairs + b·near_pairs·n_targets/n`, with `a = 0.1 ns` per
/// M2L matrix entry and `b = 1 ns` per near pair: the M2L pass and the
/// near field are the two terms that move with the depth, in opposite
/// directions. P2M, L2L and L2P terms are linear in `n`, the cell count
/// or the target count at every depth and are left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthCount {
    /// The finest level.
    pub levels: usize,
    /// Occupied cells at the finest level.
    pub cells: usize,
    /// M2L pairs over levels `2..=L`: occupied cells in each cell's
    /// interaction list, exactly what the compiled FMM lists
    /// ([`crate::CompiledFmm::m2l_pairs`]).
    pub m2l_pairs: u64,
    /// Near pairs with the sources as targets,
    /// `Σ_c n(c)·Σ_{nb ∈ N27(c)} n(nb)` less the `n` self pairs: exactly
    /// the direct pairs [`crate::CompiledFmm::potentials`] counts for
    /// distinct positions.
    pub near_pairs: u64,
}

impl DepthCount {
    /// Predicted nanoseconds of one charge pass at degree `p` plus one
    /// evaluation at `n_targets` targets over `n_sources` sources; an
    /// external target meets `near_pairs / n_sources` sources on average.
    #[must_use]
    pub fn cost_ns(&self, p: usize, n_sources: usize, n_targets: usize) -> f64 {
        let width = 2.0 * tri_len(p) as f64;
        let near = self.near_pairs as f64 * n_targets as f64 / n_sources.max(1) as f64;
        M2L_NS_PER_ENTRY * width * width * self.m2l_pairs as f64 + NEAR_NS_PER_PAIR * near
    }
}

/// The counts of every finest level `0..=levels` (at most
/// [`morton::BITS`]) over these positions — the table the counted
/// depth walks only until its cost rises. The charges are only checked
/// for finiteness.
pub fn depth_counts(particles: &[Particle], levels: usize) -> Result<Vec<DepthCount>, FmmError> {
    let (order, keys, _) = sort_sources(particles)?;
    let mut walk = Walk::root(&keys, order.bounds());
    let mut counts = vec![walk.count(0)];
    while walk.finest() < levels.min(MAX_LEVELS) {
        let below = counts[counts.len() - 1].m2l_pairs;
        walk.descend();
        counts.push(walk.count(below));
    }
    Ok(counts)
}

/// Validates the particles and sorts them into the Morton order every
/// depth reads its cells off (the level-`l` cell of a particle is its key
/// `>> 3·(21 − l)`), with the sorted keys and the sorted charges.
pub(crate) fn sort_sources(
    particles: &[Particle],
) -> Result<(MortonOrder, Vec<u64>, Vec<f64>), FmmError> {
    if particles.is_empty() {
        return Err(FmmError::Empty);
    }
    let (order, keys) =
        MortonOrder::new(particles).map_err(|index| FmmError::NonFinite { index })?;
    let charges = order.perm().iter().map(|&i| particles[i].charge).collect();
    Ok((order, keys, charges))
}

/// The level grids grown one level at a time over the sorted keys,
/// counting each level as it is reached.
struct Walk<'a> {
    keys: &'a [u64],
    bounds: Aabb,
    grids: Vec<LevelGrid>,
}

impl<'a> Walk<'a> {
    /// Level 0: the root cell over every particle.
    fn root(keys: &'a [u64], bounds: Aabb) -> Walk<'a> {
        let root = LevelGrid {
            codes: vec![0],
            centers: vec![cell_center(&bounds, 1, 0, 0, 0)],
            ranges: vec![(0, keys.len() as u32)],
            cell_edge: bounds.edge(),
            ..LevelGrid::default()
        };
        Walk {
            keys,
            bounds,
            grids: vec![root],
        }
    }

    fn finest(&self) -> usize {
        self.grids.len() - 1
    }

    /// Splits every finest cell into its occupied children (one binary
    /// search per occupied child in the cell's key range, as the octree
    /// splits), linking parents and children. The split level first gets
    /// its neighbour lists, through its parents', for the new one's.
    fn descend(&mut self) {
        let f = self.finest();
        // lint: allow(alloc, one neighbour list per cell of a split level)
        let lists: Vec<[u32; 27]> = (0..self.grids[f].len())
            .map(|ci| neighbour_list(&self.grids, f, ci))
            .collect();
        let parent = &mut self.grids[f];
        parent.neighbours = lists;
        let level = f + 1;
        let cells = 1u32 << level;
        let mut grid = LevelGrid {
            cell_edge: self.bounds.edge() / f64::from(cells),
            ..LevelGrid::default()
        };
        parent.children = Vec::with_capacity(parent.len());
        for (pi, &(start, end)) in parent.ranges.iter().enumerate() {
            let (first, mut mask) = (grid.len() as u32, 0u8);
            let range = start as usize..end as usize;
            for (code, run) in morton::cell_runs(self.keys, range, level as u32) {
                let (x, y, z) = morton::decode(code);
                grid.codes.push(code);
                grid.centers.push(cell_center(&self.bounds, cells, x, y, z));
                grid.ranges.push((run.start as u32, run.end as u32));
                grid.parents.push(pi as u32);
                mask |= 1 << (code & 7);
            }
            parent.children.push((first, mask));
        }
        self.grids.push(grid);
    }

    /// The counts at the current finest level `L`, given the M2L pairs
    /// of levels `2..L`, from the lists of level `L − 1` (level `L` has
    /// none of its own). A cell's interaction list is the children of its
    /// parent's 27 neighbours less its own 27 neighbours, so level `L`'s
    /// M2L pairs are `Σ_P c(P)·Σ_{P' ∈ N27(P)} c(P')` over the parents
    /// (`c` = the occupied children) less the occupied neighbour pairs at
    /// `L`.
    fn count(&self, m2l_below: u64) -> DepthCount {
        let l = self.finest();
        let grid = &self.grids[l];
        let size = |ci: usize| u64::from(grid.ranges[ci].1 - grid.ranges[ci].0);
        let (mut near, mut adjacent) = (0u64, 0u64);
        for ci in 0..grid.len() {
            let list = neighbour_list(&self.grids, l, ci);
            let sources: u64 = occupied(&list).map(size).sum();
            adjacent += occupied(&list).count() as u64;
            near += size(ci) * sources;
        }
        let mut m2l = m2l_below;
        if l >= 2 {
            let parents = &self.grids[l - 1];
            let children = |pi: usize| u64::from(parents.children[pi].1.count_ones());
            let mut reach = 0u64;
            for (pi, list) in parents.neighbours.iter().enumerate() {
                reach += children(pi) * occupied(list).map(children).sum::<u64>();
            }
            m2l += reach - adjacent;
        }
        DepthCount {
            levels: l,
            cells: grid.len(),
            m2l_pairs: m2l,
            near_pairs: near - self.keys.len() as u64,
        }
    }

    /// Descends while the predicted cost does not rise (or the keys run
    /// out of bits) and returns the cheapest level seen; ties go to the
    /// shallower level.
    fn pick(&mut self, p: usize, n_targets: usize) -> usize {
        let n = self.keys.len();
        let mut count = self.count(0);
        let mut prev = count.cost_ns(p, n, n_targets);
        let (mut best, mut best_cost) = (0, prev);
        while self.finest() < MAX_LEVELS {
            self.descend();
            count = self.count(count.m2l_pairs);
            let cost = count.cost_ns(p, n, n_targets);
            if cost < best_cost {
                (best, best_cost) = (count.levels, cost);
            }
            if cost > prev {
                break;
            }
            prev = cost;
        }
        best
    }
}

/// The geometry every FMM build starts from: the Morton order of the
/// sources and the per-level occupied-cell grids, with each cell's
/// parent, children and (above the finest level) neighbour list. A pure
/// function of the particle **positions** and the level count (explicit,
/// or counted from the positions, the pricing degree and the target
/// count) — which is what lets a charge update share it.
pub(crate) struct FmmStructure {
    pub order: Arc<MortonOrder>,
    pub levels: usize,
    pub grids: Vec<LevelGrid>,
}

/// The depth and grids over an order whose sorted keys are `keys` — the
/// build prefix of the compiled arenas (and of the test-only reference
/// FMM).
pub(crate) fn structure_over(
    order: Arc<MortonOrder>,
    keys: &[u64],
    params: &FmmParams,
) -> FmmStructure {
    #[cfg(feature = "validate")]
    {
        let contract = order.validate();
        assert!(contract.is_ok(), "validate: {contract:?}");
    }
    let mut walk = Walk::root(keys, order.bounds());
    let levels = match params.levels {
        Some(levels) => levels,
        None => walk.pick(
            params.pricing_degree(),
            params.targets.unwrap_or(keys.len()),
        ),
    };
    while walk.finest() < levels {
        walk.descend();
    }
    let mut grids = walk.grids;
    grids.truncate(levels + 1);
    // a level the pick split only to count the one below is finest again
    let finest = &mut grids[levels];
    (finest.children, finest.neighbours) = (Vec::new(), Vec::new());
    FmmStructure {
        order,
        levels,
        grids,
    }
}

/// The per-level expansion degrees for the sorted `charges` — the one
/// charge-dependent decision of the build, shared by the compiled build
/// and the compiled charge update so both resolve identical degree
/// vectors from identical inputs.
///
/// Fixed/Adaptive equalise against the finest level's median cell weight
/// as reference (weights grow toward the root); Tolerance picks, per
/// level, the smallest degree whose Theorem-1 bound at the level's worst
/// M2L geometry (cluster radius d·√3/2, center separation 2d — the
/// nearest non-adjacent cell) over the level's **largest** cell charge
/// meets the budget, so every compiled translation honours `tol`.
pub(crate) fn level_degrees(
    grids: &[LevelGrid],
    charges: &[f64],
    selector: DegreeSelector,
) -> Vec<usize> {
    // per-cell |charge|: the finest level from its particle runs, coarser
    // levels from their children (Morton order keeps a parent's children
    // contiguous, so one forward walk over the parents finds each)
    let levels = grids.len() - 1;
    let mut abs_charge: Vec<Vec<f64>> = vec![Vec::new(); levels + 1];
    abs_charge[levels] = grids[levels]
        .ranges
        .iter()
        .map(|&(s, e)| {
            charges[s as usize..e as usize]
                .iter()
                .map(|q| q.abs())
                .sum()
        })
        .collect();
    for l in (0..levels).rev() {
        let (coarse, fine) = (&grids[l], &grids[l + 1]);
        let mut weights = vec![0.0f64; coarse.len()];
        let mut pi = 0usize;
        for (ci, &w) in abs_charge[l + 1].iter().enumerate() {
            while coarse.ranges[pi].1 <= fine.ranges[ci].0 {
                pi += 1;
            }
            weights[pi] += w;
        }
        abs_charge[l] = weights;
    }

    let ref_weight = median_positive(&abs_charge[levels]).max(1e-300);
    let wr = selector.weight(ref_weight, grids[levels].cell_edge);
    (0..=levels)
        .map(|l| {
            let edge = grids[l].cell_edge;
            if let DegreeSelector::Tolerance { tol, p_min, p_max } = selector {
                let a = edge * mbt_multipole::bounds::CUBE_CIRCUMRADIUS_RATIO;
                let q_max = abs_charge[l].iter().copied().fold(0.0f64, f64::max);
                return mbt_multipole::degree_for_tolerance_at(q_max, a, 2.0 * edge, tol, p_max)
                    .max(p_min);
            }
            let w = selector.weight(median_positive(&abs_charge[l]), edge);
            selector.degree_for(w, wr)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledFmm;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};
    use mbt_geometry::Vec3;
    use mbt_treecode::relative_error;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn fmm_matches_direct_uniform() {
        let ps = uniform_cube(3000, 1.0, charges(), 3);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let mut prev = f64::INFINITY;
        for p in [3usize, 6, 10] {
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(p).with_levels(3)).unwrap();
            let r = fmm.potentials();
            let err = relative_error(&r.values, &exact);
            assert!(err < prev, "error must fall with degree: p={p}, err={err}");
            prev = err;
        }
        assert!(prev < 5e-6, "p=10 error {prev}");
    }

    #[test]
    fn fmm_matches_direct_gaussian() {
        let ps = gaussian(2000, Vec3::ZERO, 0.5, charges(), 11);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        let r = fmm.potentials();
        assert!(relative_error(&r.values, &exact) < 1e-4);
    }

    #[test]
    fn levels_past_eight_build_and_match_direct() {
        // a tight cluster pinned ten levels deep: each level's cells find
        // their neighbours through their parents, with no per-level table
        let ps = gaussian(5000, Vec3::ZERO, 0.05, charges(), 12);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(10)).unwrap();
        assert_eq!(fmm.levels(), 10);
        let r = fmm.potentials();
        assert!(relative_error(&r.values, &exact) < 1e-4);
    }

    #[test]
    fn adaptive_degrees_ramp_toward_root() {
        let ps = uniform_cube(8000, 1.0, charges(), 5);
        let fmm = CompiledFmm::new(&ps, FmmParams::adaptive(3, 0.7).with_levels(4)).unwrap();
        let d = fmm.degrees();
        assert_eq!(d.len(), 5);
        assert!(d[4] == 3, "finest level at p_min");
        assert!(
            d[0] >= d[4],
            "root degree must not be below the leaf degree"
        );
        // monotone non-increasing toward finer levels
        for w in d.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn adaptive_fmm_beats_fixed_at_p_min() {
        let ps = uniform_cube(6000, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 7);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let fixed = CompiledFmm::new(&ps, FmmParams::fixed(3).with_levels(4)).unwrap();
        let adaptive = CompiledFmm::new(&ps, FmmParams::adaptive(3, 0.7).with_levels(4)).unwrap();
        let e_fixed = relative_error(&fixed.potentials().values, &exact);
        let e_adaptive = relative_error(&adaptive.potentials().values, &exact);
        assert!(
            e_adaptive < e_fixed,
            "adaptive FMM ({e_adaptive}) must beat fixed ({e_fixed})"
        );
    }

    #[test]
    fn counted_depth_is_the_cheapest_level_walked() {
        // the pick is the first minimum of the counted cost: on a uniform
        // cube at the sources it is a few hundred sources per finest cell
        // deep, and fewer targets never make it deeper
        let ps = uniform_cube(4000, 1.0, charges(), 9);
        let counts = depth_counts(&ps, MAX_LEVELS).unwrap();
        let mut deepest = MAX_LEVELS;
        for (params, n_targets) in [
            (FmmParams::fixed(4), ps.len()),
            (FmmParams::fixed(4).for_targets(300), 300),
        ] {
            let p = params.pricing_degree();
            let fmm = CompiledFmm::new(&ps, params).unwrap();
            let cost = |l: usize| counts[l].cost_ns(p, ps.len(), n_targets);
            let best = (0..=MAX_LEVELS)
                .min_by(|&a, &b| cost(a).total_cmp(&cost(b)))
                .unwrap();
            assert_eq!(fmm.levels(), best, "{params:?}");
            assert!(best <= deepest, "{params:?}: levels = {best}");
            deepest = best;
            assert_eq!(fmm.m2l_pairs, counts[best].m2l_pairs);
        }
        assert_eq!(
            CompiledFmm::new(&ps, FmmParams::fixed(4)).unwrap().levels(),
            2
        );
    }

    #[test]
    fn stats_accumulate() {
        let ps = uniform_cube(2000, 1.0, charges(), 13);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(5).with_levels(3)).unwrap();
        let r = fmm.potentials();
        assert_eq!(r.stats.targets, 2000);
        assert_eq!(r.stats.pc_interactions, 2000); // one L2P per particle
        assert!(r.stats.direct_pairs > 0);
        assert!(fmm.translation_terms > 0);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            CompiledFmm::new(&[], FmmParams::fixed(4)).err().unwrap(),
            FmmError::Empty
        );
        let bad = [Particle::new(Vec3::new(0.0, f64::NAN, 0.0), 1.0)];
        assert_eq!(
            CompiledFmm::new(&bad, FmmParams::fixed(4)).err().unwrap(),
            FmmError::NonFinite { index: 0 }
        );
        let ok = [Particle::new(Vec3::ZERO, 1.0), Particle::new(Vec3::X, 1.0)];
        assert_eq!(
            CompiledFmm::new(&ok, FmmParams::fixed(4).with_levels(25))
                .err()
                .unwrap(),
            FmmError::TooDeep {
                levels: 25,
                max: morton::BITS as usize
            }
        );
    }

    #[test]
    fn degree_validation_is_typed() {
        let ps = uniform_cube(100, 1.0, charges(), 3);
        let err = CompiledFmm::new(&ps, FmmParams::fixed(100)).err().unwrap();
        assert!(matches!(err, FmmError::DegreeTooLarge { degree: 100, .. }));
        // validate() alone rejects without touching particles
        assert!(FmmParams::fixed(100).validate().is_err());
        assert!(FmmParams::fixed(8).validate().is_ok());
    }

    #[test]
    fn tiny_n_resolves_to_shallow_levels() {
        for n in [1usize, 2, 8, 32] {
            let ps = uniform_cube(n, 1.0, charges(), 17);
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4)).unwrap();
            assert_eq!(fmm.levels(), 0, "n={n} must resolve to level 0");
            // level 0 = a single cell: everything is near field (direct sum)
            let exact = mbt_treecode::direct::direct_potentials(&ps);
            let r = fmm.potentials();
            if n > 1 {
                assert!(relative_error(&r.values, &exact) < 1e-13);
            }
        }
        let ps = uniform_cube(64, 1.0, charges(), 19);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4)).unwrap();
        assert!(fmm.levels() <= 1, "n=64 must resolve to level 0 or 1");
    }

    #[test]
    fn coincident_particles_resolve_to_level_zero() {
        let ps: Vec<Particle> = (0..500)
            .map(|i| Particle::new(Vec3::new(0.25, -0.5, 1.0), 1.0 - 2.0 * f64::from(i % 2)))
            .collect();
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4)).unwrap();
        assert_eq!(fmm.levels(), 0);
        let _ = fmm.potentials(); // must not panic (pairs at distance 0 aside)
    }

    #[test]
    fn collinear_particles_resolve_shallow_and_match_direct() {
        let ps: Vec<Particle> = (0..600)
            .map(|i| {
                let t = f64::from(i) / 599.0;
                Particle::new(Vec3::new(t, 2.0 * t, -t), 1.0 - 2.0 * f64::from(i % 2))
            })
            .collect();
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8)).unwrap();
        // ~2^l occupied cells per level: the counted cost bottoms out a
        // few levels down, not at the cap
        assert!(
            fmm.levels() <= 6,
            "collinear cloud over-refined: {}",
            fmm.levels()
        );
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let r = fmm.potentials();
        assert!(relative_error(&r.values, &exact) < 1e-3);
    }
}
