//! The Hilbert partitioner: k contiguous, balanced key ranges.
//!
//! Particles are keyed on the Hilbert curve over the dataset bounds and
//! cut into `k` contiguous ranges at positional boundaries (`⌈n/k⌉`-sized
//! segments), so member counts differ by at most one and — because the
//! curve is proximity-preserving — each range is a spatially compact
//! volume. Boundaries landing inside an equal-key run are nudged to the
//! nearer run edge so particles sharing one quantized key never straddle a
//! cut (shard key ranges stay disjoint); if that would empty a shard the
//! cuts fall back to pure positional ones.
//!
//! The assignment itself is returned as a per-particle shard index, and
//! [`HilbertPartition::split`] materialises the shards **preserving each
//! particle's original relative order** — the property the engine's
//! `k = 1` bit-exactness guarantee rests on.

use mbt_geometry::sort::curve_sort;
use mbt_geometry::{hilbert, Aabb, Particle};

/// Partitioning failures (bad shard counts; everything else is total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// `count` must satisfy `1 ≤ count ≤ n`: zero shards is meaningless
    /// and more shards than particles would leave some empty.
    InvalidCount {
        /// The requested shard count.
        requested: usize,
        /// The number of particles available.
        particles: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::InvalidCount {
                requested,
                particles,
            } => write!(
                f,
                "invalid shard count {requested} for {particles} particles \
                 (need 1 <= count <= n)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Summary facts of one shard: its members, weight, and key range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardInfo {
    /// The shard's index in `0..count`.
    pub index: usize,
    /// Number of member particles.
    pub count: usize,
    /// Total absolute charge `Σ|qᵢ|` of the members — the weight the
    /// paper's error bounds grow with, and the balance criterion.
    pub weight: f64,
    /// Smallest member Hilbert key (inclusive).
    pub key_min: u64,
    /// Largest member Hilbert key (inclusive).
    pub key_max: u64,
}

/// A contiguous Hilbert partition of one particle set into `k` shards.
#[derive(Debug, Clone)]
pub struct HilbertPartition {
    /// `assignment[i]` is the shard owning particle `i` (original order).
    assignment: Vec<usize>,
    shards: Vec<ShardInfo>,
}

impl HilbertPartition {
    /// Partitions `particles` (keyed inside `bounds`) into `count`
    /// contiguous Hilbert ranges.
    pub fn new(
        particles: &[Particle],
        bounds: &Aabb,
        count: usize,
    ) -> Result<HilbertPartition, ShardError> {
        let n = particles.len();
        if count == 0 || count > n {
            return Err(ShardError::InvalidCount {
                requested: count,
                particles: n,
            });
        }
        // (key, original index): the index tiebreak keeps equal keys in
        // input order, so the curve order is a deterministic permutation
        let order = curve_sort(n, |i| hilbert::key(particles[i].position, bounds));

        // positional boundaries, nudged off equal-key runs to the nearer
        // run edge (keeping cuts strictly increasing when both edges are
        // viable) so particles sharing a quantized key stay together
        let positional = |j: usize| j * n / count;
        let mut cuts: Vec<usize> = (0..=count).map(positional).collect();
        for j in 1..count {
            let c = cuts[j];
            if c == 0 || c == n || order[c].0 != order[c - 1].0 {
                continue;
            }
            let mut lo = c;
            while lo > 0 && order[lo].0 == order[lo - 1].0 {
                lo -= 1;
            }
            let mut hi = c;
            while hi < n && order[hi].0 == order[hi - 1].0 {
                hi += 1;
            }
            let (near, far) = if c - lo <= hi - c { (lo, hi) } else { (hi, lo) };
            cuts[j] = if near > cuts[j - 1] && near < n {
                near
            } else {
                far
            };
        }
        // one run can still swallow a whole shard (e.g. every key equal);
        // fall back to plain positional cuts — shards stay balanced and
        // non-empty, key disjointness becomes best-effort
        if cuts.windows(2).any(|w| w[0] >= w[1]) {
            cuts = (0..=count).map(positional).collect();
        }

        let mut assignment = vec![0usize; n];
        let mut shards = Vec::with_capacity(count);
        for s in 0..count {
            let seg = &order[cuts[s]..cuts[s + 1]];
            let mut weight = 0.0;
            for &(_, i) in seg {
                assignment[i as usize] = s;
                weight += particles[i as usize].charge.abs();
            }
            shards.push(ShardInfo {
                index: s,
                count: seg.len(),
                weight,
                key_min: seg[0].0,
                key_max: seg[seg.len() - 1].0,
            });
        }
        let partition = HilbertPartition { assignment, shards };
        #[cfg(feature = "validate")]
        if let Err(why) = partition.check_invariants() {
            // validate-mode contract: partition bugs are library bugs
            panic!("hilbert partition invariant violated: {why}"); // lint: allow(panic, validate-feature contract check, disabled in production builds)
        }
        Ok(partition)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard summaries, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// The shard owning each particle, in the particles' original order.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The shard owning particle `i` (original order).
    #[must_use]
    pub fn shard_of(&self, i: usize) -> usize {
        self.assignment[i]
    }

    /// Materialises the shards from the same particle slice the partition
    /// was computed over. Within each shard, particles keep their
    /// **original relative order** — for `count = 1` the single shard is
    /// the input list verbatim.
    #[must_use]
    pub fn split(&self, particles: &[Particle]) -> Vec<Vec<Particle>> {
        let mut parts: Vec<Vec<Particle>> = self
            .shards
            .iter()
            .map(|s| Vec::with_capacity(s.count))
            .collect();
        for (i, p) in particles.iter().enumerate() {
            parts[self.assignment[i]].push(*p);
        }
        parts
    }

    /// `max / min` member count across shards (≥ 1; the positional cuts
    /// guarantee ≤ `⌈n/k⌉ / ⌊n/k⌋` absent equal-key nudging).
    #[must_use]
    pub fn count_ratio(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.count).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.count).min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// `max / min` absolute-charge weight across shards (infinite when a
    /// shard carries zero weight).
    #[must_use]
    pub fn weight_ratio(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.weight).fold(0.0, f64::max);
        let min = self
            .shards
            .iter()
            .map(|s| s.weight)
            .fold(f64::INFINITY, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// Structural invariants: every particle assigned, shard summaries
    /// consistent with the assignment, counts summing to `n`, and key
    /// ranges ascending across shards.
    pub fn check_invariants(&self) -> Result<(), String> {
        let k = self.shards.len();
        if self.assignment.iter().any(|&s| s >= k) {
            return Err("assignment points past the last shard".to_string());
        }
        let total: usize = self.shards.iter().map(|s| s.count).sum();
        if total != self.assignment.len() {
            return Err(format!(
                "shard counts sum to {total}, expected {}",
                self.assignment.len()
            ));
        }
        for (s, info) in self.shards.iter().enumerate() {
            if info.index != s {
                return Err(format!("shard {s} labelled {}", info.index));
            }
            if info.count == 0 {
                return Err(format!("shard {s} is empty"));
            }
            if info.key_min > info.key_max {
                return Err(format!("shard {s} key range inverted"));
            }
        }
        for w in self.shards.windows(2) {
            if w[0].key_max > w[1].key_min {
                return Err(format!(
                    "shards {} and {} key ranges out of order",
                    w[0].index, w[1].index
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_geometry::sort::{order_particles, CurveOrder};
    use mbt_geometry::Vec3;

    fn bounds_of(ps: &[Particle]) -> Aabb {
        Aabb::cubical_hull_of(ps, 1e-9)
    }

    fn particles(n: usize, seed: u64) -> Vec<Particle> {
        uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed)
    }

    #[test]
    fn invalid_counts_are_rejected() {
        let ps = particles(10, 1);
        let b = bounds_of(&ps);
        assert_eq!(
            HilbertPartition::new(&ps, &b, 0).unwrap_err(),
            ShardError::InvalidCount {
                requested: 0,
                particles: 10
            }
        );
        assert_eq!(
            HilbertPartition::new(&ps, &b, 11).unwrap_err(),
            ShardError::InvalidCount {
                requested: 11,
                particles: 10
            }
        );
        assert!(!format!(
            "{}",
            ShardError::InvalidCount {
                requested: 0,
                particles: 10
            }
        )
        .is_empty());
    }

    #[test]
    fn k1_split_is_the_identity() {
        let ps = particles(257, 3);
        let b = bounds_of(&ps);
        let part = HilbertPartition::new(&ps, &b, 1).unwrap();
        assert_eq!(part.shard_count(), 1);
        assert!(part.assignment().iter().all(|&s| s == 0));
        let split = part.split(&ps);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0], ps);
        assert!((part.count_ratio() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn counts_balance_and_cover() {
        let ps = particles(1000, 7);
        let b = bounds_of(&ps);
        for k in [2usize, 3, 4, 7, 8] {
            let part = HilbertPartition::new(&ps, &b, k).unwrap();
            part.check_invariants().unwrap();
            assert_eq!(part.shard_count(), k);
            let split = part.split(&ps);
            let total: usize = split.iter().map(Vec::len).sum();
            assert_eq!(total, ps.len());
            for (s, info) in part.shards().iter().enumerate() {
                assert_eq!(split[s].len(), info.count);
            }
            // distinct random positions: counts differ by at most one
            assert!(
                part.count_ratio() <= (ps.len().div_ceil(k)) as f64 / (ps.len() / k) as f64 + 1e-15,
                "k={k}: ratio {}",
                part.count_ratio()
            );
        }
    }

    #[test]
    fn split_preserves_original_relative_order() {
        let ps = particles(400, 11);
        let b = bounds_of(&ps);
        let part = HilbertPartition::new(&ps, &b, 4).unwrap();
        let split = part.split(&ps);
        for (s, shard) in split.iter().enumerate() {
            let expect: Vec<Particle> = ps
                .iter()
                .enumerate()
                .filter(|(i, _)| part.shard_of(*i) == s)
                .map(|(_, p)| *p)
                .collect();
            assert_eq!(shard, &expect);
        }
    }

    #[test]
    fn key_ranges_are_contiguous_and_disjoint() {
        let ps = particles(600, 13);
        let b = bounds_of(&ps);
        let part = HilbertPartition::new(&ps, &b, 5).unwrap();
        for w in part.shards().windows(2) {
            assert!(w[0].key_max <= w[1].key_min);
        }
        // every member's key lies inside its shard's range
        for (i, p) in ps.iter().enumerate() {
            let key = hilbert::key(p.position, &b);
            let info = part.shards()[part.shard_of(i)];
            assert!(key >= info.key_min && key <= info.key_max);
        }
    }

    #[test]
    fn duplicate_keys_stay_in_one_shard() {
        // 50 copies of one position followed by 50 spread points: the
        // equal-key run must not straddle a cut
        let mut ps: Vec<Particle> = (0..50)
            .map(|_| Particle::new(Vec3::new(0.1, 0.1, 0.1), 1.0))
            .collect();
        ps.extend(particles(50, 17));
        let b = bounds_of(&ps);
        let part = HilbertPartition::new(&ps, &b, 4).unwrap();
        part.check_invariants().unwrap();
        let first = part.shard_of(0);
        assert!((0..50).all(|i| part.shard_of(i) == first));
    }

    #[test]
    fn all_identical_positions_fall_back_to_positional_cuts() {
        // one giant equal-key run: nudging would empty every later shard,
        // so the partitioner reverts to positional cuts and stays total
        let ps: Vec<Particle> = (0..64)
            .map(|i| Particle::new(Vec3::ZERO, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let b = Aabb::cube(Vec3::ZERO, 1.0);
        let part = HilbertPartition::new(&ps, &b, 4).unwrap();
        assert_eq!(part.shard_count(), 4);
        for info in part.shards() {
            assert_eq!(info.count, 16);
        }
        assert!((part.count_ratio() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn shards_are_the_curve_order_cut_at_their_boundaries() {
        // the partition is `order_particles`' Hilbert permutation, cut
        // at the shard counts: same keys, same (key, index) tie-break,
        // equal-key runs included
        let mut ps: Vec<Particle> = (0..40)
            .map(|_| Particle::new(Vec3::new(-0.2, 0.3, 0.1), 1.0))
            .collect();
        ps.extend(particles(700, 23));
        let ordered = order_particles(&ps, CurveOrder::Hilbert);
        for k in [2usize, 3, 5, 8] {
            let part = HilbertPartition::new(&ps, &ordered.bounds, k).unwrap();
            let mut start = 0;
            for info in part.shards() {
                let run = &ordered.perm[start..start + info.count];
                assert!(run.iter().all(|&i| part.shard_of(i) == info.index), "k={k}");
                start += info.count;
            }
            assert_eq!(start, ps.len());
        }
    }

    #[test]
    fn weight_ratio_reflects_charges() {
        let ps = uniform_cube(512, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 19);
        let b = bounds_of(&ps);
        let part = HilbertPartition::new(&ps, &b, 4).unwrap();
        // unit charges: weight ratio equals count ratio
        assert!((part.weight_ratio() - part.count_ratio()).abs() < 1e-12);
        let zero: Vec<Particle> = ps.iter().map(|p| Particle::new(p.position, 0.0)).collect();
        let zpart = HilbertPartition::new(&zero, &b, 2).unwrap();
        assert!(zpart.weight_ratio().is_infinite());
    }
}
