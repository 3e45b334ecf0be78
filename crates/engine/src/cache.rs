//! The plan cache: byte-budgeted cost-aware residency plus single-flight
//! construction.
//!
//! [`ByteLru`] is the pure residency policy — a map whose entries carry a
//! byte size, evicted against a fixed budget in order of a **cost-aware
//! score**: `rebuild_cost_ns × (1 + hits)`, ties broken by recency. An
//! entry inserted with zero cost scores zero, so a cache populated through
//! plain [`ByteLru::insert`] degenerates to *exactly* strict LRU (the
//! property tests pin this against a reference model); the engine inserts
//! plans with their measured build time ([`ByteLru::insert_with_cost`]),
//! so a cheap-to-rebuild plan is sacrificed before an expensive, hot one.
//! Victim selection is O(log n) via an ordered index — the old
//! full-scan `min_by_key` was quadratic under churn.
//!
//! The policy is deliberately lock-free and side-effect-free so property
//! tests can drive it directly against a model. [`PlanCache`] wraps it
//! with the concurrency the engine needs: one mutex around the residency
//! state, and a ticket table guaranteeing that N concurrent misses on one
//! key run **one** build while the other N−1 wait for its result.
//!
//! **Charge epochs.** Residency is keyed by [`PlanKey`] — a plan's
//! geometry — and holds at most one plan per key, at whatever charge
//! epoch it was last built or recharged to. Flights are keyed by
//! `(PlanKey, epoch)`, so a flight's riders all receive a plan at exactly
//! the epoch they asked for, and a lookup that finds the key resident at
//! *another* epoch hands that plan to the flight leader to recharge
//! instead of building from nothing. Publishing replaces the resident
//! entry — never a second copy — unless a newer epoch landed first.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::time::{Duration, Instant};

use mbt_check::sync::Arc;

use crate::error::EngineError;
use crate::flight::{Flight, SingleFlight};
use crate::plan::{Plan, PlanKey};
use crate::registry::DatasetId;
use crate::stats::{Metric, StatsCollector};

/// One resident entry.
#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
    /// Measured cost of rebuilding this entry, in nanoseconds (zero for
    /// plain inserts — score 0 means pure LRU among them).
    cost_ns: u64,
    /// Lookups served since insertion.
    hits: u64,
}

impl<V> LruEntry<V> {
    /// The eviction score: rebuild cost amplified by observed hit rate.
    /// Lower scores evict first; zero-cost entries all score zero and
    /// fall back to recency order.
    fn score(&self) -> u64 {
        self.cost_ns.saturating_mul(1 + self.hits)
    }

    /// This entry's key in the ordered eviction index.
    fn rank(&self) -> (u64, u64) {
        (self.score(), self.last_used)
    }
}

/// Outcome of a [`ByteLru::insert`].
#[derive(Debug)]
pub struct Inserted<K, V> {
    /// Whether the new entry is resident (an entry larger than the whole
    /// budget is refused rather than cached — it would evict everything
    /// and still violate the budget).
    pub admitted: bool,
    /// Entries evicted to make room, least-recently-used first.
    pub evicted: Vec<(K, usize, V)>,
}

/// A byte-budgeted map with cost-aware eviction (strict LRU for entries
/// inserted without a cost).
///
/// Invariant (checked by [`ByteLru::check_invariants`], enforced under
/// the `validate` feature): the sum of resident entry sizes never
/// exceeds the budget, `total_bytes` always equals that sum, and the
/// ordered eviction index mirrors the entry map one-to-one.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    budget: usize,
    entries: HashMap<K, LruEntry<V>>,
    /// Eviction order: `(score, last_used) → key`, victims from the
    /// front. `last_used` ticks are unique, so the composite key is too.
    index: BTreeMap<(u64, u64), K>,
    total: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> ByteLru<K, V> {
    /// An empty cache with the given byte budget.
    #[must_use]
    pub fn new(budget: usize) -> ByteLru<K, V> {
        ByteLru {
            budget,
            entries: HashMap::new(),
            index: BTreeMap::new(),
            total: 0,
            tick: 0,
        }
    }

    /// The byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up, marks it most-recently-used, and counts the hit
    /// toward its eviction score.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(e) => {
                self.index.remove(&e.rank());
                e.last_used = tick;
                e.hits += 1;
                self.index.insert(e.rank(), key.clone());
                Some(&e.value)
            }
            None => None,
        }
    }

    /// Looks `key` up without touching its recency or hit count.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// The resident keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Removes `key`, returning its accounted bytes and value. A removal
    /// is the caller's decision, not budget pressure: nothing else is
    /// disturbed and nothing is reported evicted.
    pub fn remove(&mut self, key: &K) -> Option<(usize, V)> {
        let entry = self.entries.remove(key)?;
        self.index.remove(&entry.rank());
        self.total -= entry.bytes;
        Some((entry.bytes, entry.value))
    }

    /// Inserts `key → value` accounted at `bytes` with zero rebuild
    /// cost: among such entries eviction is exactly strict LRU.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> Inserted<K, V> {
        self.insert_with_cost(key, value, bytes, Duration::ZERO)
    }

    /// Inserts `key → value` accounted at `bytes`, carrying the measured
    /// `cost` of rebuilding it. Entries are evicted in ascending
    /// `cost × (1 + hits)` score (recency breaks ties) until the budget
    /// holds. Re-inserting an existing key replaces it (the old entry is
    /// reported evicted first).
    pub fn insert_with_cost(
        &mut self,
        key: K,
        value: V,
        bytes: usize,
        cost: Duration,
    ) -> Inserted<K, V> {
        let mut evicted = Vec::new();
        if let Some(old) = self.entries.remove(&key) {
            self.index.remove(&old.rank());
            self.total -= old.bytes;
            evicted.push((key.clone(), old.bytes, old.value));
        }
        if bytes > self.budget {
            return Inserted {
                admitted: false,
                evicted,
            };
        }
        while self.total + bytes > self.budget {
            // victim: the front of the ordered index — lowest score,
            // least recent among equals. O(log n), not a full scan.
            match self.index.pop_first() {
                Some((_, k)) => {
                    if let Some(e) = self.entries.remove(&k) {
                        self.total -= e.bytes;
                        evicted.push((k, e.bytes, e.value));
                    }
                }
                None => break, // unreachable: bytes <= budget and map empty
            }
        }
        self.tick += 1;
        let entry = LruEntry {
            value,
            bytes,
            last_used: self.tick,
            cost_ns: u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX),
            hits: 0,
        };
        self.total += bytes;
        self.index.insert(entry.rank(), key.clone());
        self.entries.insert(key, entry);
        Inserted {
            admitted: true,
            evicted,
        }
    }

    /// Verifies the accounting invariants, returning a description of the
    /// first violation. Called after every mutation when the `validate`
    /// feature is on; always available to tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.entries.values().map(|e| e.bytes).sum();
        if sum != self.total {
            return Err(format!(
                "byte accounting drifted: tracked {} vs actual {sum}",
                self.total
            ));
        }
        if self.total > self.budget {
            return Err(format!(
                "budget violated: {} resident > {} budget",
                self.total, self.budget
            ));
        }
        if self.entries.values().any(|e| e.last_used > self.tick) {
            return Err("entry recency is ahead of the clock".to_string());
        }
        if self.index.len() != self.entries.len() {
            return Err(format!(
                "eviction index out of step: {} indexed vs {} resident",
                self.index.len(),
                self.entries.len()
            ));
        }
        for (rank, key) in &self.index {
            let matches = self.entries.get(key).is_some_and(|e| e.rank() == *rank);
            if !matches {
                return Err("eviction index rank disagrees with its entry".to_string());
            }
        }
        Ok(())
    }
}

/// How a plan lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a resident plan — no build, no upward pass.
    Hit,
    /// This caller built the plan.
    Built,
    /// This caller carried a resident plan of another charge epoch to
    /// the requested one: geometry reused, charge pass re-run, resident
    /// entry replaced.
    Recharged,
    /// Another caller was already building (or recharging) it; this one
    /// waited (single-flight coalescing).
    Coalesced,
    /// The request never touched the cache: the routed backend has no
    /// artifact worth caching (direct summation builds nothing).
    Bypassed,
}

/// Concurrent plan cache: LRU + byte budget + single-flight builds.
///
/// The concurrency itself lives in [`SingleFlight`] — a policy-free core
/// the `mbt-check` model suite explores exhaustively. This type wires in
/// the engine's policy: the [`ByteLru`] as flight state, stats recording
/// at the probe/classify points (still under the flight lock, so counts
/// are exact), and [`EngineError::BuildPanicked`] as the substitute a
/// panicking builder leaves for its coalesced waiters.
#[derive(Debug)]
pub struct PlanCache {
    flight: PlanFlight,
}

/// The cache's flight core: [`ByteLru`] residency (by [`PlanKey`]) as
/// flight state, flights keyed by `(PlanKey, charge epoch)`, landing a
/// shareable build result per flight.
type PlanFlight =
    SingleFlight<ByteLru<PlanKey, Arc<Plan>>, (PlanKey, u64), Result<Arc<Plan>, EngineError>>;

impl PlanCache {
    /// An empty cache with the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> PlanCache {
        PlanCache {
            flight: SingleFlight::new(ByteLru::new(budget_bytes)),
        }
    }

    /// `(resident plans, resident bytes)`.
    pub fn residency(&self) -> (usize, usize) {
        self.flight.with_state(|lru| (lru.len(), lru.total_bytes()))
    }

    /// Drops every resident plan of `dataset`, returning how many went.
    /// Plans still held by in-flight queries live on through their `Arc`s.
    pub fn retire(&self, dataset: DatasetId) -> usize {
        self.flight.with_state(|lru| {
            let keys: Vec<PlanKey> = lru
                .keys()
                .filter(|k| k.dataset() == dataset)
                .copied()
                .collect();
            for key in &keys {
                lru.remove(key);
            }
            keys.len()
        })
    }

    /// Returns the plan for `key`, building it with `build` on a miss —
    /// [`PlanCache::get_or_build_at`] for callers whose datasets never
    /// leave charge epoch 0.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        stats: &StatsCollector,
        build: impl FnOnce() -> Result<Plan, EngineError>,
    ) -> Result<(Arc<Plan>, CacheOutcome), EngineError> {
        self.get_or_build_at(key, 0, stats, |_| build())
    }

    /// Returns the plan for `key` at charge epoch `epoch`, making it with
    /// `make` when the resident plan (if any) is at another epoch. `make`
    /// receives that other-epoch plan to recharge from, or `None` to
    /// build from nothing, and must return a plan at `epoch`.
    ///
    /// Concurrent calls with the same cold `(key, epoch)` run `make`
    /// exactly once: the first caller leads, the rest park on its ticket
    /// and receive the same `Arc<Plan>` (or the same error). Errors are
    /// not cached — the next request retries. A leader that *panics*
    /// answers its waiters [`EngineError::BuildPanicked`] (they never
    /// hang on the dead flight) and the panic propagates to the leading
    /// caller alone. The made plan replaces the key's resident entry
    /// unless that entry is already at a newer epoch (flights for
    /// different epochs of one key may land in either order).
    pub fn get_or_build_at(
        &self,
        key: PlanKey,
        epoch: u64,
        stats: &StatsCollector,
        make: impl FnOnce(Option<&Plan>) -> Result<Plan, EngineError>,
    ) -> Result<(Arc<Plan>, CacheOutcome), EngineError> {
        // the resident plan at another epoch, from the probe to the leader
        let other: RefCell<Option<Arc<Plan>>> = RefCell::new(None);
        let flight = self.flight.run(
            (key, epoch),
            |lru| {
                let plan = Arc::clone(lru.get(&key)?);
                if plan.epoch == epoch {
                    stats.bump(Metric::cache_hits);
                    Some(plan)
                } else {
                    *other.borrow_mut() = Some(plan);
                    None
                }
            },
            |leads| {
                if leads {
                    stats.bump(Metric::cache_misses);
                } else {
                    stats.bump(Metric::coalesced_misses);
                }
            },
            || {
                let t0 = Instant::now();
                let other = other.borrow();
                let made = make(other.as_deref()).map(Arc::new);
                if made.is_ok() {
                    if other.is_some() {
                        stats.record_recharge(t0.elapsed());
                    } else {
                        stats.record_build(key, t0.elapsed());
                    }
                }
                made
            },
            || Err(EngineError::BuildPanicked),
            |lru, made| {
                if let Ok(plan) = made {
                    let superseded = lru.peek(&key).is_some_and(|r| r.epoch > plan.epoch);
                    if !superseded {
                        // residency is cost-aware: the plan's measured
                        // build time makes expensive plans the last to go
                        let ins = lru.insert_with_cost(
                            key,
                            Arc::clone(plan),
                            plan.bytes,
                            plan.build_time,
                        );
                        // the key's own previous epoch comes back out as
                        // replaced, not evicted
                        for (_, bytes, _) in ins.evicted.iter().filter(|(k, ..)| *k != key) {
                            stats.record_eviction(*bytes);
                        }
                    }
                }
                #[cfg(feature = "validate")]
                if let Err(why) = lru.check_invariants() {
                    // validate-mode contract: accounting bugs are engine bugs
                    panic!("plan cache invariant violated: {why}"); // lint: allow(panic, validate-feature contract check, disabled in production builds)
                }
            },
        );
        match flight {
            Flight::Hit(plan) => Ok((plan, CacheOutcome::Hit)),
            Flight::Led(result) => {
                let outcome = if other.borrow().is_some() {
                    CacheOutcome::Recharged
                } else {
                    CacheOutcome::Built
                };
                result.map(|p| (p, outcome))
            }
            Flight::Joined(result) => result.map(|p| (p, CacheOutcome::Coalesced)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_get_bumps_recency() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        assert!(lru.insert(1, 10, 40).admitted);
        assert!(lru.insert(2, 20, 40).admitted);
        assert_eq!(lru.get(&1), Some(&10)); // 2 is now LRU
        let ins = lru.insert(3, 30, 40);
        assert!(ins.admitted);
        assert_eq!(ins.evicted.len(), 1);
        assert_eq!(ins.evicted[0].0, 2);
        assert!(lru.check_invariants().is_ok());
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.total_bytes(), 80);
        assert!(!lru.is_empty());
        assert_eq!(lru.budget(), 100);
    }

    #[test]
    fn oversized_entry_refused() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        lru.insert(1, 10, 60);
        let ins = lru.insert(2, 20, 101);
        assert!(!ins.admitted);
        assert!(ins.evicted.is_empty());
        // the resident entry was not disturbed
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.total_bytes(), 60);
        assert!(lru.check_invariants().is_ok());
    }

    #[test]
    fn reinsert_replaces() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        lru.insert(1, 10, 60);
        let ins = lru.insert(1, 11, 30);
        assert!(ins.admitted);
        assert_eq!(ins.evicted.len(), 1); // the old value comes back out
        assert_eq!(ins.evicted[0].2, 10);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.total_bytes(), 30);
        assert!(lru.check_invariants().is_ok());
    }

    #[test]
    fn remove_frees_bytes_without_evicting_anything_else() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        lru.insert(1, 10, 40);
        lru.insert(2, 20, 40);
        assert_eq!(lru.peek(&1), Some(&10));
        assert_eq!(lru.remove(&1), Some((40, 10)));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.total_bytes(), 40);
        assert_eq!(lru.keys().copied().collect::<Vec<_>>(), vec![2]);
        assert!(lru.check_invariants().is_ok());
        // the freed bytes are really free: no eviction needed for 60 more
        assert!(lru.insert(3, 30, 60).evicted.is_empty());
    }

    #[test]
    fn a_resident_plan_at_another_epoch_is_recharged_and_replaced() {
        use crate::plan::PlanKey;
        use mbt_geometry::distribution::{uniform_cube, ChargeModel};
        use mbt_treecode::TreecodeParams;

        let cache = PlanCache::new(1 << 26);
        let stats = StatsCollector::default();
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::new(DatasetId(0), &params);
        let ps = uniform_cube(300, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 3);
        let charges: Vec<f64> = ps.iter().map(|p| p.charge).collect();
        let sources = crate::registry::SourceSet::new(ps);
        let make = |epoch: u64| {
            let (sources, charges) = (&sources, &charges);
            move |other: Option<&Plan>| match other {
                Some(old) => old.recharge(sources, charges, params, epoch),
                None => Plan::build_for(key, sources, charges, params, sources.len())
                    .map(|p| p.at_epoch(epoch)),
            }
        };
        let (_, outcome) = cache.get_or_build_at(key, 0, &stats, make(0)).unwrap();
        assert_eq!(outcome, CacheOutcome::Built);
        let (plan, outcome) = cache.get_or_build_at(key, 3, &stats, make(3)).unwrap();
        assert_eq!((plan.epoch, outcome), (3, CacheOutcome::Recharged));
        assert_eq!(cache.residency(), (1, plan.bytes), "replaced, not added");
        let (_, outcome) = cache.get_or_build_at(key, 3, &stats, make(3)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        // a straggler from an older epoch is served at its own epoch from
        // the newer plan's geometry, and does not displace it
        let (old, outcome) = cache.get_or_build_at(key, 1, &stats, make(1)).unwrap();
        assert_eq!((old.epoch, outcome), (1, CacheOutcome::Recharged));
        let (plan, outcome) = cache.get_or_build_at(key, 3, &stats, make(3)).unwrap();
        assert_eq!((plan.epoch, outcome), (3, CacheOutcome::Hit));
        let s = stats.snapshot(&[]);
        assert_eq!((s.plan_builds, s.plan_recharges, s.evictions), (1, 2, 0));
        assert_eq!((s.cache_hits, s.cache_misses), (2, 3));
        assert_eq!(cache.retire(DatasetId(1)), 0);
        assert_eq!(cache.retire(DatasetId(0)), 1);
        assert_eq!(cache.residency(), (0, 0));
    }

    #[test]
    fn panicking_builder_answers_followers_with_typed_error() {
        use crate::plan::PlanKey;
        use crate::registry::DatasetId;
        use mbt_treecode::TreecodeParams;

        let cache = PlanCache::new(1 << 20);
        let stats = StatsCollector::default();
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::new(DatasetId(0), &params);

        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_build(key, &stats, || {
                    // hold the flight open until the follower has
                    // coalesced, so the panic demonstrably lands on a
                    // parked waiter rather than an empty ticket
                    while stats.snapshot(&[]).coalesced_misses == 0 {
                        std::thread::yield_now();
                    }
                    panic!("builder died mid-flight")
                })
            });
            // wait until the leader owns the flight, then coalesce onto it
            while stats.snapshot(&[]).cache_misses == 0 {
                std::thread::yield_now();
            }
            let got =
                cache.get_or_build(key, &stats, || panic!("follower must coalesce, not build"));
            // liveness: we woke with the typed substitute, not a hang
            assert_eq!(got.unwrap_err(), EngineError::BuildPanicked);
            // the panic itself reached the leader's caller alone
            assert!(leader.join().is_err());
        });
        // the dead flight was retired and nothing was published
        assert_eq!(cache.residency(), (0, 0));
    }

    #[test]
    fn cache_recovers_after_builder_panic() {
        use crate::plan::PlanKey;
        use crate::registry::DatasetId;
        use mbt_geometry::distribution::{uniform_cube, ChargeModel};
        use mbt_treecode::TreecodeParams;

        let cache = PlanCache::new(1 << 26);
        let stats = StatsCollector::default();
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::new(DatasetId(0), &params);

        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(key, &stats, || panic!("first build dies"))
        }));
        assert!(boom.is_err());
        assert_eq!(cache.residency(), (0, 0));

        // the key is not wedged: the next caller leads a fresh flight
        let ps = uniform_cube(300, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 3);
        let (plan, outcome) = cache
            .get_or_build(key, &stats, || Plan::build(key, &ps, params))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Built);
        assert_eq!(plan.key, key);
        assert_eq!(cache.residency().0, 1);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        for k in 0..4 {
            lru.insert(k, k, 25);
        }
        lru.get(&0); // order now 1, 2, 3, 0
        let ins = lru.insert(9, 9, 75);
        assert!(ins.admitted);
        let order: Vec<u32> = ins.evicted.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(lru.check_invariants().is_ok());
    }

    #[test]
    fn cheap_entries_evict_before_expensive_ones() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        // the expensive plan is *older* — pure LRU would sacrifice it
        assert!(
            lru.insert_with_cost(1, 10, 50, Duration::from_millis(500))
                .admitted
        );
        assert!(
            lru.insert_with_cost(2, 20, 50, Duration::from_millis(1))
                .admitted
        );
        let ins = lru.insert_with_cost(3, 30, 50, Duration::from_millis(50));
        assert!(ins.admitted);
        let order: Vec<u32> = ins.evicted.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![2], "the cheap rebuild goes first");
        assert!(lru.check_invariants().is_ok());
    }

    #[test]
    fn hits_amplify_an_entrys_score() {
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        // equal rebuild cost; key 1 is hot (3 hits → score x4), key 2 cold
        lru.insert_with_cost(1, 10, 50, Duration::from_millis(10));
        lru.insert_with_cost(2, 20, 50, Duration::from_millis(10));
        for _ in 0..3 {
            assert_eq!(lru.get(&1), Some(&10));
        }
        let ins = lru.insert_with_cost(3, 30, 60, Duration::from_millis(10));
        let order: Vec<u32> = ins.evicted.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![2, 1], "cold entry first despite equal cost");
        assert!(lru.check_invariants().is_ok());
    }

    #[test]
    fn zero_cost_inserts_stay_strict_lru_after_hits() {
        // hits multiply a zero cost into a zero score: plain inserts keep
        // the exact strict-LRU order the property tests model
        let mut lru: ByteLru<u32, u32> = ByteLru::new(100);
        for k in 0..4 {
            lru.insert(k, k, 25);
        }
        lru.get(&1);
        lru.get(&1);
        lru.get(&0);
        let ins = lru.insert(9, 9, 100);
        let order: Vec<u32> = ins.evicted.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
        assert!(lru.check_invariants().is_ok());
    }
}
