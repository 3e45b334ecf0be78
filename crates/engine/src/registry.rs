//! Dataset registry: particle sets under stable ids.
//!
//! Tenants register a particle set once and refer to it by [`DatasetId`]
//! in every subsequent query; the engine keys its plan cache on
//! `(dataset id, params)`, so the registry is what makes plans shareable
//! across callers. Ingestion validates what the layers below would only
//! reject at build time — emptiness, non-finite positions or charges — so
//! a bad upload fails at registration, not on the first query.
//!
//! A dataset's **positions** are fixed for its lifetime, in one
//! [`SourceSet`] per shard; its **charges** may be replaced
//! ([`DatasetRegistry::update_charges`]), which publishes a new immutable
//! [`Dataset`] snapshot, carrying only the new charges, under the same id
//! at the next charge *epoch*. A query works on the one snapshot it
//! resolved, so it sees exactly one epoch however updates race it.
//! Retirement ([`DatasetRegistry::remove`]) frees both the id and the
//! name.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use mbt_geometry::{Aabb, MortonOrder, Particle, ParticleSoa};
use mbt_shard::HilbertPartition;

use crate::error::EngineError;

/// Stable handle to a registered particle set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub u64);

/// One fixed set of source positions: the registered particles (moved
/// in, never copied; their charges are epoch 0's) and their Morton order,
/// sorted by the first plan build — racing first builds wait on one sort
/// — and shared by every plan, backend and epoch over the set.
#[derive(Debug)]
pub struct SourceSet {
    particles: Vec<Particle>,
    order: OnceLock<Sorted>,
}

/// A source set's order and its sorted Morton keys, or the caller index
/// of a non-finite particle.
type Sorted = Result<(Arc<MortonOrder>, Vec<u64>), usize>;

impl SourceSet {
    /// A source set over `particles`; nothing is sorted yet.
    #[must_use]
    pub fn new(particles: Vec<Particle>) -> SourceSet {
        SourceSet {
            particles,
            order: OnceLock::new(),
        }
    }

    /// Number of sources.
    pub(crate) fn len(&self) -> usize {
        self.particles.len()
    }

    /// The Morton order of the positions and its sorted keys, sorted on
    /// the first call. A non-finite particle is refused by caller index.
    pub fn order(&self) -> Result<(&Arc<MortonOrder>, &[u64]), EngineError> {
        let sorted = self.order.get_or_init(|| {
            MortonOrder::new(&self.particles).map(|(order, keys)| (Arc::new(order), keys))
        });
        let (order, keys) = sorted
            .as_ref()
            .map_err(|&index| EngineError::NonFiniteParticle { index })?;
        Ok((order, keys))
    }

    /// The sources in the caller's order under `charges`, one array per
    /// component — the operand of a direct sum.
    pub(crate) fn soa(&self, charges: &[f64]) -> ParticleSoa {
        let mut soa = ParticleSoa::gather(&self.particles, 0..self.particles.len());
        soa.q.copy_from_slice(charges);
        soa
    }
}

/// An immutable snapshot of a registered particle set at one charge
/// epoch, plus the summary facts the planner reads without touching the
/// particles.
#[derive(Debug)]
pub struct Dataset {
    /// The registry handle.
    pub id: DatasetId,
    /// The caller-chosen name.
    pub name: String,
    /// The charge epoch of this snapshot: 0 as registered, +1 per
    /// [`DatasetRegistry::update_charges`].
    pub epoch: u64,
    /// Cubical hull of the particle positions.
    pub bounds: Aabb,
    /// Total absolute charge `A = Σ|qᵢ|` — the quantity the paper's error
    /// bounds grow with, useful for per-tenant cost attribution.
    pub abs_charge: f64,
    /// One source set per shard (one when unsharded), shared by every
    /// epoch; a shard keeps its particles' submitted relative order.
    sets: Arc<[SourceSet]>,
    /// This epoch's charges, set by set, each in its set's order: the
    /// caller's order when unsharded.
    charges: Arc<[f64]>,
    /// Set when the dataset is unregistered; shared by every epoch's
    /// snapshot, so a query still holding one can tell its dataset is gone.
    retired: Arc<AtomicBool>,
}

impl Dataset {
    /// Number of particles.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.charges.len()
    }

    /// Whether the set is empty (never true for a registered dataset).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.charges.is_empty()
    }

    /// Number of shards this dataset is served as (`1` when unsharded —
    /// one dataset is one shard of itself).
    #[inline]
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.sets.len()
    }

    /// Whether queries fan out over multiple shard plans.
    #[inline]
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.sets.len() > 1
    }

    /// The source set of shard `s` and its charges at this epoch, in the
    /// set's order; shard 0 of an unsharded dataset is the whole set in
    /// the caller's order.
    #[must_use]
    pub fn shard(&self, s: usize) -> (&SourceSet, &[f64]) {
        let start: usize = self.sets[..s].iter().map(SourceSet::len).sum();
        let set = &self.sets[s];
        (set, &self.charges[start..start + set.len()])
    }

    /// Whether the dataset has been unregistered since this snapshot was
    /// taken.
    #[inline]
    #[must_use]
    pub fn is_retired(&self) -> bool {
        // ordering: SeqCst — pairs with the store in `DatasetRegistry::remove`: a query that reads `false` after recording its work is ordered before the retirement's purge, which then sees that work
        self.retired.load(Ordering::SeqCst)
    }
}

/// `Σ|qᵢ|` — the charge fact a [`Dataset`] carries, computed the same
/// way at registration and at every charge update.
fn charge_profile(charges: &[f64]) -> f64 {
    charges.iter().map(|q| q.abs()).sum()
}

#[derive(Debug, Default)]
struct RegistryInner {
    by_id: HashMap<DatasetId, Arc<Dataset>>,
    by_name: HashMap<String, DatasetId>,
    next: u64,
}

/// Thread-safe dataset store. Registration is rare and takes a write
/// lock; the per-query lookup path takes a read lock and clones one `Arc`.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    inner: RwLock<RegistryInner>,
}

impl DatasetRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> DatasetRegistry {
        DatasetRegistry::default()
    }

    /// Validates and registers a particle set under `name`, returning its
    /// stable id. The particles are moved in, not copied, and nothing is
    /// sorted until a plan needs the order.
    pub fn register(&self, name: &str, particles: Vec<Particle>) -> Result<DatasetId, EngineError> {
        self.register_sharded(name, particles, 1)
    }

    /// Validates, Hilbert-partitions into `shards` contiguous key ranges,
    /// and registers a particle set under `name`. Queries against the
    /// resulting id are served by `shards` independent per-shard plans
    /// plus a global skeleton tree; `shards == 1` registers an ordinary
    /// unsharded dataset (a one-way split is the identity).
    pub fn register_sharded(
        &self,
        name: &str,
        particles: Vec<Particle>,
        shards: usize,
    ) -> Result<DatasetId, EngineError> {
        Self::validate_particles(&particles)?;
        if shards == 0 || shards > particles.len() {
            return Err(EngineError::InvalidShardCount {
                requested: shards,
                particles: particles.len(),
            });
        }
        let bounds = Aabb::cubical_hull_of(&particles, 1e-9);
        if shards == 1 {
            let charges = particles.iter().map(|p| p.charge).collect();
            let set = vec![SourceSet::new(particles)];
            return self.insert(name, bounds, set, charges);
        }
        let partition =
            HilbertPartition::new(&particles, &bounds, shards).map_err(|e| match e {
                mbt_shard::ShardError::InvalidCount {
                    requested,
                    particles,
                } => EngineError::InvalidShardCount {
                    requested,
                    particles,
                },
            })?;
        let parts = partition.split(&particles);
        let charges = parts.iter().flatten().map(|p| p.charge).collect();
        let sets = parts.into_iter().map(SourceSet::new).collect();
        self.insert(name, bounds, sets, charges)
    }

    /// Replaces the charges of dataset `id` (caller's original particle
    /// order; positions, name and id unchanged) and returns the new
    /// epoch. The new snapshot shares the source set and its order and
    /// carries only the new charges. Queries that already resolved the
    /// previous snapshot finish on it; every later lookup sees the new
    /// one. Sharded datasets are refused: their skeleton would have to
    /// follow, and serving it stale is not an option.
    pub fn update_charges(&self, id: DatasetId, charges: &[f64]) -> Result<u64, EngineError> {
        let current = self.get(id)?;
        if current.is_sharded() {
            return Err(EngineError::ShardedChargeUpdate(id));
        }
        if charges.len() != current.len() {
            return Err(EngineError::ChargeCountMismatch {
                expected: current.len(),
                got: charges.len(),
            });
        }
        if let Some(index) = charges.iter().position(|q| !q.is_finite()) {
            return Err(EngineError::NonFiniteCharge { index });
        }
        // positions never change, so the new snapshot can be assembled
        // from any epoch's — outside the lock
        let charges: Arc<[f64]> = Arc::from(charges);
        let abs_charge = charge_profile(&charges);

        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        // re-read under the write lock: the epoch must follow whatever
        // snapshot is current *now*, and the dataset may be gone
        let slot = inner
            .by_id
            .get_mut(&id)
            .ok_or(EngineError::UnknownDataset(id))?;
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Dataset {
            id,
            name: slot.name.clone(),
            epoch,
            bounds: slot.bounds,
            abs_charge,
            sets: Arc::clone(&slot.sets),
            charges,
            retired: Arc::clone(&slot.retired),
        });
        Ok(epoch)
    }

    /// Retires dataset `id`: later lookups by id or name miss, and the
    /// name is free to register again. Snapshots already handed out stay
    /// valid (and report [`Dataset::is_retired`]); the source set and its
    /// order are freed with the last of them.
    pub fn remove(&self, id: DatasetId) -> Result<Arc<Dataset>, EngineError> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ds = inner
            .by_id
            .remove(&id)
            .ok_or(EngineError::UnknownDataset(id))?;
        inner.by_name.remove(&ds.name);
        // ordering: SeqCst — pairs with the load in `Dataset::is_retired` (see there)
        ds.retired.store(true, Ordering::SeqCst);
        Ok(ds)
    }

    fn validate_particles(particles: &[Particle]) -> Result<(), EngineError> {
        if particles.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        for (index, p) in particles.iter().enumerate() {
            if !p.position.is_finite() || !p.charge.is_finite() {
                return Err(EngineError::NonFiniteParticle { index });
            }
        }
        Ok(())
    }

    fn insert(
        &self,
        name: &str,
        bounds: Aabb,
        sets: Vec<SourceSet>,
        charges: Arc<[f64]>,
    ) -> Result<DatasetId, EngineError> {
        let abs_charge = charge_profile(&charges);

        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if inner.by_name.contains_key(name) {
            return Err(EngineError::DuplicateDataset(name.to_string()));
        }
        let id = DatasetId(inner.next);
        inner.next += 1;
        let ds = Arc::new(Dataset {
            id,
            name: name.to_string(),
            epoch: 0,
            bounds,
            abs_charge,
            sets: sets.into(),
            charges,
            retired: Arc::new(AtomicBool::new(false)),
        });
        inner.by_id.insert(id, ds);
        inner.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// The dataset registered under `id`.
    pub fn get(&self, id: DatasetId) -> Result<Arc<Dataset>, EngineError> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_id
            .get(&id)
            .cloned()
            .ok_or(EngineError::UnknownDataset(id))
    }

    /// Looks a dataset id up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<DatasetId> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_name
            .get(name)
            .copied()
    }

    /// Number of registered datasets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_id
            .len()
    }

    /// Whether no dataset is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::Vec3;

    fn ps(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                Particle::new(
                    Vec3::new(i as f64, 0.5, -0.5),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn register_and_lookup() {
        let reg = DatasetRegistry::new();
        let a = reg.register("a", ps(10)).unwrap();
        let b = reg.register("b", ps(20)).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.lookup("a"), Some(a));
        assert_eq!(reg.lookup("missing"), None);
        assert_eq!(reg.len(), 2);
        let ds = reg.get(b).unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.name, "b");
        assert!((ds.abs_charge - 20.0).abs() < 1e-12);
        assert!(!ds.is_empty());
    }

    #[test]
    fn rejects_bad_input() {
        let reg = DatasetRegistry::new();
        assert_eq!(reg.register("e", vec![]), Err(EngineError::EmptyDataset));
        let mut bad = ps(5);
        bad[3] = Particle::new(Vec3::new(f64::NAN, 0.0, 0.0), 1.0);
        assert_eq!(
            reg.register("nan", bad),
            Err(EngineError::NonFiniteParticle { index: 3 })
        );
        let mut inf = ps(5);
        inf[0] = Particle::new(Vec3::ZERO, f64::INFINITY);
        assert_eq!(
            reg.register("inf", inf),
            Err(EngineError::NonFiniteParticle { index: 0 })
        );
        reg.register("dup", ps(3)).unwrap();
        assert_eq!(
            reg.register("dup", ps(3)),
            Err(EngineError::DuplicateDataset("dup".into()))
        );
    }

    #[test]
    fn register_sharded_cuts_contiguous_parts_that_cover_the_set() {
        let reg = DatasetRegistry::new();
        let id = reg.register_sharded("s", ps(40), 4).unwrap();
        let ds = reg.get(id).unwrap();
        assert!(ds.is_sharded());
        assert_eq!(ds.shard_count(), 4);
        let mut total = 0;
        for s in 0..4 {
            // each shard carries its own particles' charges, in its order
            let (set, charges) = ds.shard(s);
            assert!(!set.particles.is_empty());
            assert!(set
                .particles
                .iter()
                .map(|p| p.charge)
                .eq(charges.iter().copied()));
            total += set.len();
        }
        assert_eq!((total, ds.len()), (40, 40));
    }

    #[test]
    fn register_sharded_k1_is_an_ordinary_dataset() {
        let reg = DatasetRegistry::new();
        let id = reg.register_sharded("one", ps(10), 1).unwrap();
        let ds = reg.get(id).unwrap();
        assert!(!ds.is_sharded());
        assert_eq!(ds.shard_count(), 1);
        let (set, charges) = ds.shard(0);
        assert_eq!((set.len(), charges.len()), (10, 10));
    }

    #[test]
    fn register_sharded_rejects_impossible_counts() {
        let reg = DatasetRegistry::new();
        assert_eq!(
            reg.register_sharded("z", ps(5), 0),
            Err(EngineError::InvalidShardCount {
                requested: 0,
                particles: 5
            })
        );
        assert_eq!(
            reg.register_sharded("m", ps(5), 6),
            Err(EngineError::InvalidShardCount {
                requested: 6,
                particles: 5
            })
        );
        assert_eq!(
            reg.register_sharded("e", vec![], 2),
            Err(EngineError::EmptyDataset)
        );
    }

    #[test]
    fn update_charges_publishes_the_next_epoch_under_the_same_id() {
        let reg = DatasetRegistry::new();
        let id = reg.register("a", ps(4)).unwrap();
        let before = reg.get(id).unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(reg.update_charges(id, &[2.0, -3.0, 0.0, 0.5]), Ok(1));
        let after = reg.get(id).unwrap();
        assert_eq!((after.id, after.epoch, after.name.as_str()), (id, 1, "a"));
        assert_eq!(after.bounds, before.bounds);
        assert!((after.abs_charge - 5.5).abs() < 1e-15);
        // one source set, shared; only the charges are new
        let ((new, q_new), (old, q_old)) = (after.shard(0), before.shard(0));
        assert!(std::ptr::eq(new, old));
        assert_eq!(q_new, &[2.0, -3.0, 0.0, 0.5]);
        // the snapshot a query already holds is untouched
        assert_eq!(q_old, &[1.0, -1.0, 1.0, -1.0]);
        assert_eq!(reg.update_charges(id, &[0.0; 4]), Ok(2));
        assert_eq!(reg.lookup("a"), Some(id));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn update_charges_rejections_are_typed_and_change_nothing() {
        let reg = DatasetRegistry::new();
        let id = reg.register("a", ps(3)).unwrap();
        assert_eq!(
            reg.update_charges(id, &[1.0; 4]),
            Err(EngineError::ChargeCountMismatch {
                expected: 3,
                got: 4
            })
        );
        assert_eq!(
            reg.update_charges(id, &[1.0, f64::NAN, 1.0]),
            Err(EngineError::NonFiniteCharge { index: 1 })
        );
        assert_eq!(
            reg.update_charges(DatasetId(9), &[1.0]),
            Err(EngineError::UnknownDataset(DatasetId(9)))
        );
        let sharded = reg.register_sharded("s", ps(8), 2).unwrap();
        assert_eq!(
            reg.update_charges(sharded, &[1.0; 8]),
            Err(EngineError::ShardedChargeUpdate(sharded))
        );
        assert_eq!(reg.get(id).unwrap().epoch, 0);
    }

    #[test]
    fn remove_frees_the_id_and_the_name() {
        let reg = DatasetRegistry::new();
        let id = reg.register("a", ps(3)).unwrap();
        let held = reg.get(id).unwrap();
        assert!(!held.is_retired());
        let removed = reg.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert!(held.is_retired(), "every snapshot learns of the retirement");
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.lookup("a"), None);
        assert_eq!(reg.get(id).unwrap_err(), EngineError::UnknownDataset(id));
        assert_eq!(reg.remove(id).unwrap_err(), EngineError::UnknownDataset(id));
        assert_eq!(
            reg.update_charges(id, &[1.0; 3]),
            Err(EngineError::UnknownDataset(id))
        );
        // the name is reusable, under a fresh id
        let again = reg.register("a", ps(3)).unwrap();
        assert_ne!(again, id);
        assert!(!reg.get(again).unwrap().is_retired());
    }

    #[test]
    fn unknown_id() {
        let reg = DatasetRegistry::new();
        assert_eq!(
            reg.get(DatasetId(99)).unwrap_err(),
            EngineError::UnknownDataset(DatasetId(99))
        );
    }
}
