//! The sharded fan-out/reduce evaluation path.
//!
//! A query against a sharded dataset is answered in three tiers, cheapest
//! first, per target point:
//!
//! 1. **Global shortcut** — if the skeleton's synthetic global root is
//!    MAC-admissible (and, under tolerance-driven degrees, its stored
//!    degree provably meets the budget), one expansion evaluation answers
//!    the whole dataset.
//! 2. **Per-shard skeleton far field** — otherwise each shard whose root
//!    cell passes the α-criterion is answered from its skeleton
//!    expansion, without touching the shard's plan.
//! 3. **Shard open** — shards the MAC refuses (the owning shard and its
//!    near neighbours, by Hilbert locality) are opened: their points are
//!    gathered and evaluated through the shard plan's full treecode in
//!    one batched sweep per shard.
//!
//! Reduction is deterministic: every point accumulates its far-shard
//! contributions in ascending shard order during the routing pass, then
//! its opened-shard contributions in ascending shard order during the
//! sweep pass — so repeated queries see bit-identical sums.
//!
//! Allocation discipline (enforced by `cargo xtask lint`): the packed
//! point arena and the accumulator arena are [`packed_sweep`]'s, plus one
//! per-shard open list per fan-out; the per-shard sweeps reuse
//! [`evaluate_batch_with`]'s own arena discipline. Never an allocation
//! per point or per interaction.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mbt_geometry::Vec3;
use mbt_multipole::Workspace;
use mbt_shard::Skeleton;
use mbt_treecode::{EvalStats, Treecode};

use crate::batch::{evaluate_batch_with, packed_sweep, QueryKind, QueryOutput};
use crate::error::EngineError;
use crate::plan::{EvalConfig, Plan};

/// One opened shard's near sweep inside a fan-out: which shard, how many
/// points had to open it, and how long the sweep took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSweep {
    /// The opened shard's index.
    pub shard: usize,
    /// Points that the skeleton could not answer for this shard.
    pub points: usize,
    /// Wall time of the shard's batched sweep.
    pub elapsed: Duration,
}

/// Counters of one fan-out/reduce execution, for the stats layer and for
/// tests pinning the routing behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FanoutBreakdown {
    /// Points answered entirely by the global aggregate expansion.
    pub global_shortcuts: u64,
    /// Per-shard skeleton (far-field) expansion evaluations.
    pub skeleton_evals: u64,
    /// `(point, shard)` pairs that had to open the shard's full plan.
    pub opens: u64,
    /// The opened shards' sweeps, in ascending shard order.
    pub per_shard: Vec<ShardSweep>,
}

impl FanoutBreakdown {
    /// Shards whose plan at least one point had to open.
    #[must_use]
    pub fn shards_opened(&self) -> usize {
        self.per_shard.len()
    }
}

/// Evaluates one batch of requests against a sharded dataset: `plans` are
/// the per-shard plans in shard order, `skeleton` their global summary.
/// Returns per-request outputs in request order, the merged sweep
/// counters (with `targets` normalised to the distinct point total), and
/// the routing breakdown. A shard plan that is not a treecode is an
/// engine bug, reported as [`EngineError::Internal`].
pub fn evaluate_sharded(
    plans: &[Arc<Plan>],
    skeleton: &Skeleton,
    kind: QueryKind,
    requests: &[&[Vec3]],
    cfg: EvalConfig,
) -> Result<(Vec<QueryOutput>, EvalStats, FanoutBreakdown), EngineError> {
    let trees = plans
        .iter()
        .map(|p| p.treecode())
        // lint: allow(alloc, one treecode list per fan-out, k entries)
        .collect::<Result<Vec<_>, _>>()?;
    let (outputs, (stats, fan)) = packed_sweep(kind, requests, |points, acc| {
        fan_out(&trees, skeleton, kind, cfg, points, acc)
    });
    Ok((outputs, stats, fan))
}

/// The fan-out proper over one packed point arena, accumulating into the
/// zeroed value arena `acc` (of `kind`).
fn fan_out(
    trees: &[&Treecode],
    skeleton: &Skeleton,
    kind: QueryKind,
    cfg: EvalConfig,
    points: &[Vec3],
    acc: &mut QueryOutput,
) -> (EvalStats, FanoutBreakdown) {
    let k = trees.len();
    let mut ws = Workspace::with_capacity(skeleton.max_degree());
    let mut stats = EvalStats::for_targets(points.len() as u64);
    let mut fan = FanoutBreakdown::default();
    // k per-shard open lists per fan-out, not per point
    let mut open: Vec<Vec<usize>> = Vec::with_capacity(k);
    for _ in 0..k {
        open.push(Vec::with_capacity(0));
    }

    // routing pass: global shortcut, else per-shard far field, else open
    for (i, &x) in points.iter().enumerate() {
        match acc {
            QueryOutput::Potentials(phi) => {
                if let Some(p) = skeleton.try_global_potential(x, &mut ws, &mut stats) {
                    phi[i] = p;
                    fan.global_shortcuts += 1;
                    continue;
                }
                for (s, list) in open.iter_mut().enumerate() {
                    if let Some(p) = skeleton.try_far_potential(s, x, &mut ws, &mut stats) {
                        phi[i] += p;
                        fan.skeleton_evals += 1;
                    } else {
                        list.push(i);
                        fan.opens += 1;
                    }
                }
            }
            QueryOutput::Fields(vals) => {
                if let Some(pg) = skeleton.try_global_field(x, &mut ws, &mut stats) {
                    vals[i] = pg;
                    fan.global_shortcuts += 1;
                    continue;
                }
                for (s, list) in open.iter_mut().enumerate() {
                    if let Some((p, g)) = skeleton.try_far_field(s, x, &mut ws, &mut stats) {
                        vals[i].0 += p;
                        vals[i].1 += g;
                        fan.skeleton_evals += 1;
                    } else {
                        list.push(i);
                        fan.opens += 1;
                    }
                }
            }
        }
    }

    // sweep pass: one batched evaluation per opened shard, in shard order
    // (one gather buffer reused across opened shards)
    let mut gathered: Vec<Vec3> = Vec::with_capacity(0);
    for (s, list) in open.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        gathered.truncate(0);
        gathered.reserve(list.len());
        for &i in list {
            gathered.push(points[i]);
        }
        let t0 = Instant::now();
        let (outs, sweep) = evaluate_batch_with(trees[s], kind, &[&gathered], cfg);
        let elapsed = t0.elapsed();
        stats.merge(&sweep);
        match (&mut *acc, outs.into_iter().next()) {
            (QueryOutput::Potentials(phi), Some(QueryOutput::Potentials(vals))) => {
                for (&i, v) in list.iter().zip(vals) {
                    phi[i] += v;
                }
            }
            (QueryOutput::Fields(acc), Some(QueryOutput::Fields(vals))) => {
                for (&i, (p, g)) in list.iter().zip(vals) {
                    acc[i].0 += p;
                    acc[i].1 += g;
                }
            }
            _ => {}
        }
        fan.per_shard.push(ShardSweep {
            shard: s,
            points: list.len(),
            elapsed,
        });
    }
    // merge() sums `targets`, but every sweep saw a subset of the same
    // point arena — normalise to the distinct point count
    stats.targets = points.len() as u64;
    (stats, fan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_geometry::{Aabb, Particle};
    use mbt_shard::HilbertPartition;
    use mbt_treecode::Treecode;
    use mbt_treecode::TreecodeParams;

    use crate::plan::PlanKey;
    use crate::registry::DatasetId;

    fn sharded_setup(n: usize, k: usize, params: TreecodeParams) -> (Vec<Arc<Plan>>, Skeleton) {
        let ps = uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 71);
        let bounds = Aabb::cubical_hull_of(&ps, 1e-9);
        let partition = HilbertPartition::new(&ps, &bounds, k).unwrap();
        let plans: Vec<Arc<Plan>> = partition
            .split(&ps)
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                let key = PlanKey::sharded(DatasetId(0), &params, s, k);
                Arc::new(Plan::build(key, &part, params).unwrap())
            })
            .collect();
        let refs: Vec<&Treecode> = plans.iter().map(|p| p.treecode().unwrap()).collect();
        let skeleton = Skeleton::from_treecodes(&refs);
        (plans, skeleton)
    }

    fn direct_potential(plans: &[Arc<Plan>], x: Vec3) -> f64 {
        plans
            .iter()
            .flat_map(|p| p.treecode().unwrap().particles().iter())
            .map(|p: Particle| p.charge / x.distance(p.position))
            .sum()
    }

    #[test]
    fn fanout_matches_direct_sum_within_tolerance() {
        let params = TreecodeParams::fixed(8, 0.6);
        let (plans, sk) = sharded_setup(1200, 4, params);
        let near: Vec<Vec3> = (0..10)
            .map(|i| Vec3::new(0.9 - 0.05 * f64::from(i), 0.2, -0.4))
            .collect();
        let far: Vec<Vec3> = (0..5)
            .map(|i| Vec3::new(25.0 + f64::from(i), -20.0, 18.0))
            .collect();
        let cfg = EvalConfig::of(&params);
        let (out, stats, fan) =
            evaluate_sharded(&plans, &sk, QueryKind::Potential, &[&near, &far], cfg).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(stats.targets, 15);
        // far targets take the global shortcut; near ones open shards
        assert!(fan.global_shortcuts >= 5);
        assert!(fan.opens > 0);
        assert!(fan.shards_opened() >= 1);
        for (pts, got) in [(&near, &out[0]), (&far, &out[1])] {
            for (x, phi) in pts.iter().zip(got.potentials().unwrap()) {
                let exact = direct_potential(&plans, *x);
                assert!(
                    (phi - exact).abs() <= 1e-4 * exact.abs().max(1.0),
                    "fan-out diverged at {x:?}: {phi} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn fanout_field_gradients_are_consistent_with_potentials() {
        let params = TreecodeParams::fixed(7, 0.6);
        let (plans, sk) = sharded_setup(900, 3, params);
        let pts: Vec<Vec3> = (0..8)
            .map(|i| Vec3::new(1.5 + 0.3 * f64::from(i), 0.7, -0.2))
            .collect();
        let cfg = EvalConfig::of(&params);
        let (pout, _, _) =
            evaluate_sharded(&plans, &sk, QueryKind::Potential, &[&pts], cfg).unwrap();
        let (fout, _, _) = evaluate_sharded(&plans, &sk, QueryKind::Field, &[&pts], cfg).unwrap();
        let fields = fout[0].fields().unwrap();
        for (i, phi) in pout[0].potentials().unwrap().iter().enumerate() {
            assert!((fields[i].0 - phi).abs() <= 1e-12 * phi.abs().max(1.0));
            assert!(fields[i].1.is_finite());
        }
    }

    #[test]
    fn fanout_is_deterministic() {
        let params = TreecodeParams::tolerance(1e-6, 0.7);
        let (plans, sk) = sharded_setup(800, 4, params);
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(0.1 * f64::from(i) - 1.0, 0.3, 0.9))
            .collect();
        let cfg = EvalConfig::of(&params);
        let (a, sa, fa) =
            evaluate_sharded(&plans, &sk, QueryKind::Potential, &[&pts], cfg).unwrap();
        let (b, sb, fb) =
            evaluate_sharded(&plans, &sk, QueryKind::Potential, &[&pts], cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // everything but the sweeps' wall time must be bit-equal
        assert_eq!(fa.global_shortcuts, fb.global_shortcuts);
        assert_eq!(fa.skeleton_evals, fb.skeleton_evals);
        assert_eq!(fa.opens, fb.opens);
        assert_eq!(fa.per_shard.len(), fb.per_shard.len());
        for (x, y) in fa.per_shard.iter().zip(&fb.per_shard) {
            assert_eq!((x.shard, x.points), (y.shard, y.points));
        }
    }

    #[test]
    fn empty_requests_are_fine() {
        let params = TreecodeParams::fixed(4, 0.6);
        let (plans, sk) = sharded_setup(200, 2, params);
        let cfg = EvalConfig::of(&params);
        let empty: Vec<Vec3> = Vec::new();
        let (out, stats, fan) =
            evaluate_sharded(&plans, &sk, QueryKind::Potential, &[&empty], cfg).unwrap();
        assert!(out[0].is_empty());
        assert_eq!(stats.targets, 0);
        assert_eq!(fan, FanoutBreakdown::default());
        let (none, _, _) = evaluate_sharded(&plans, &sk, QueryKind::Field, &[], cfg).unwrap();
        assert!(none.is_empty());
    }
}
