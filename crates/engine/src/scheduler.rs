//! Cross-caller query coalescing.
//!
//! Concurrent [`crate::Engine::query`] requests against the same cached
//! plan and query kind are combined: the first arrival for a group
//! becomes its **leader**, drains whatever has queued up, and runs the
//! whole batch through the pipeline's one sweep stage
//! ([`crate::engine::sweep`]); later arrivals park on a result slot.
//! While the leader is inside a sweep, new requests keep queueing — so
//! under load, batches form *naturally*: the busier a plan, the more
//! requests each sweep amortises (an optional `window` adds a fixed
//! coalescing wait on top for latency-insensitive deployments).
//!
//! Shedding is the sweep stage's: requests whose deadline has passed by
//! the time their batch is drained are answered
//! [`EngineError::DeadlineExceeded`] without costing any evaluation work.
//!
//! Panic labeling: a sweep that panics answers everyone riding it with
//! [`EngineError::WorkerPanicked`] (counted in `worker_panics`) — never
//! the `DeadlineExceeded` mislabel the engine used to report, which made
//! an engine bug look like client-caused shedding.

use std::time::Duration;

use mbt_geometry::Vec3;

use crate::batch::QueryKind;
use crate::engine::{Rider, Swept};
use crate::error::EngineError;
use crate::flight::Combiner;
use crate::plan::{EvalConfig, PlanKey};
use crate::stats::{Metric, StatsCollector};

/// What requests must share to ride one sweep: a plan × what is being
/// computed × how the sweep executes × the dataset's charge epoch. Plan
/// identity excludes execution knobs, so requests at different chunk
/// widths or modes share a cached plan — but each sweep must run under a
/// single configuration, hence the `cfg` component here. Plan identity
/// excludes the charges too, so `epoch` keeps requests that resolved
/// different charge vectors out of each other's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GroupKey {
    pub(crate) plan: PlanKey,
    pub(crate) kind: QueryKind,
    pub(crate) cfg: EvalConfig,
    pub(crate) epoch: u64,
}

/// A coalescing rider owns its points: they cross to the leader's thread.
type Queued = Rider<Vec<Vec3>>;

/// The per-engine combiner.
///
/// The leader/follower mechanics — group ownership, queue draining,
/// result hand-back, leader hand-off when a group runs dry — live in
/// [`Combiner`], a policy-free core the `mbt-check` model suite explores
/// exhaustively. This type wires in the engine's policy: the coalescing
/// window and the panic substitute; the sweep itself is the caller's.
#[derive(Debug, Default)]
pub(crate) struct Batcher {
    combiner: Combiner<GroupKey, Queued, Result<Swept, EngineError>>,
    /// Fixed coalescing wait a leader sleeps before its first drain.
    window: Duration,
}

impl Batcher {
    /// An empty batcher whose leaders wait `window` before draining,
    /// growing batches at the cost of latency (zero: no wait).
    pub(crate) fn with_window(window: Duration) -> Batcher {
        Batcher {
            window,
            ..Batcher::default()
        }
    }

    /// Runs one rider through the combiner, blocking until its answer is
    /// computed — by `sweep` on this thread if this caller leads its
    /// group, by the leader's otherwise. `sweep` answers a drained batch
    /// index-aligned; one that panics leaves
    /// [`EngineError::WorkerPanicked`] (plus its counter) behind for
    /// everyone riding it.
    pub(crate) fn run(
        &self,
        key: GroupKey,
        rider: Queued,
        stats: &StatsCollector,
        sweep: impl Fn(Vec<Queued>) -> Vec<Result<Swept, EngineError>>,
    ) -> Result<Swept, EngineError> {
        self.combiner.submit(
            key,
            rider,
            || {
                if !self.window.is_zero() {
                    std::thread::sleep(self.window);
                }
            },
            sweep,
            || {
                stats.bump(Metric::worker_panics);
                Err(EngineError::WorkerPanicked)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use mbt_check::sync::Arc;

    use crate::batch::QueryOutput;
    use crate::cache::CacheOutcome;
    use crate::engine::{sweep, Target};
    use crate::plan::Plan;
    use crate::registry::DatasetId;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_treecode::{EvalStats, TreecodeParams};

    fn plan() -> (Arc<Plan>, EvalConfig) {
        let ps = uniform_cube(600, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 9);
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::new(DatasetId(0), &params);
        let cfg = EvalConfig::of(&params);
        (Arc::new(Plan::build(key, &ps, params).unwrap()), cfg)
    }

    fn group(plan: &Plan, cfg: EvalConfig) -> GroupKey {
        GroupKey {
            plan: plan.key,
            kind: QueryKind::Potential,
            cfg,
            epoch: plan.epoch,
        }
    }

    /// One potential request through `batcher` the way `Engine::query`
    /// sends it: the leader sweeps the drained batch against the plan.
    fn run(
        batcher: &Batcher,
        plan: &Arc<Plan>,
        cfg: EvalConfig,
        points: Vec<Vec3>,
        deadline: Option<Instant>,
        stats: &StatsCollector,
    ) -> Result<(QueryOutput, EvalStats), EngineError> {
        let key = group(plan, cfg);
        let target = Target::Plan(Arc::clone(plan), CacheOutcome::Hit);
        batcher
            .run(key, Rider { points, deadline }, stats, |riders| {
                sweep(&target, &key, &riders, stats)
            })
            .map(|swept| (swept.output, swept.eval))
    }

    #[test]
    fn single_caller_round_trips() {
        let (plan, cfg) = plan();
        let batcher = Batcher::default();
        let stats = StatsCollector::default();
        let points = vec![Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.0, 3.0, 0.0)];
        let (out, sweep) = run(&batcher, &plan, cfg, points.clone(), None, &stats).unwrap();
        let direct = plan.treecode().potentials_at(&points);
        assert_eq!(out.potentials().unwrap(), direct.values.as_slice());
        assert_eq!(sweep.targets, 2);
    }

    #[test]
    fn concurrent_callers_all_get_their_own_values() {
        let (plan, cfg) = plan();
        let batcher = Batcher::with_window(Duration::from_millis(5));
        let stats = StatsCollector::default();
        let n_threads = 8;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let plan = &plan;
                    let batcher = &batcher;
                    let stats = &stats;
                    s.spawn(move || {
                        let points: Vec<Vec3> = (0..10)
                            .map(|i| Vec3::new(1.5 + t as f64, f64::from(i) * 0.1, 0.0))
                            .collect();
                        let (out, _) =
                            run(batcher, plan, cfg, points.clone(), None, stats).unwrap();
                        let direct = plan.treecode().potentials_at(&points);
                        assert_eq!(out.potentials().unwrap(), direct.values.as_slice());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // every request was answered through some batch
        let snap = stats.snapshot(&[]);
        assert_eq!(snap.batched_requests, n_threads);
        assert!(snap.batches <= n_threads);
        assert_eq!(snap.eval_points, n_threads * 10);
    }

    #[test]
    fn expired_deadline_is_shed_at_drain() {
        let (plan, cfg) = plan();
        let batcher = Batcher::default();
        let stats = StatsCollector::default();
        let res = run(
            &batcher,
            &plan,
            cfg,
            vec![Vec3::new(2.0, 0.0, 0.0)],
            Some(
                Instant::now()
                    .checked_sub(Duration::from_millis(1))
                    .unwrap(),
            ),
            &stats,
        );
        assert_eq!(res.unwrap_err(), EngineError::DeadlineExceeded);
        let snap = stats.snapshot(&[]);
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(snap.batches, 0); // no evaluation ran
    }

    /// The injected-evaluator regression (ISSUE 10): a panicking sweep
    /// must label its riders [`EngineError::WorkerPanicked`] and count
    /// it — the old engine reported `DeadlineExceeded` for this.
    #[test]
    fn panicking_evaluator_surfaces_worker_panicked() {
        let (plan, cfg) = plan();
        let batcher = Batcher::default();
        let stats = StatsCollector::default();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batcher.run(
                group(&plan, cfg),
                Rider {
                    points: vec![Vec3::new(2.0, 0.0, 0.0)],
                    deadline: None,
                },
                &stats,
                |_| panic!("evaluator died mid-sweep"),
            )
        }));
        // the panic reached the leading caller; the substitute stamped
        // the typed error and its counter on the way out
        assert!(attempt.is_err());
        let snap = stats.snapshot(&[]);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.shed_deadline, 0, "a panic is not client shedding");

        // the group retired: the batcher still serves afterwards
        let (out, _) = run(
            &batcher,
            &plan,
            cfg,
            vec![Vec3::new(2.0, 0.0, 0.0)],
            None,
            &stats,
        )
        .unwrap();
        assert_eq!(out.potentials().unwrap().len(), 1);
    }
}
