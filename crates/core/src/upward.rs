//! Treecode construction: tree build, per-cluster degree selection, and the
//! upward (expansion construction) pass.

use std::sync::atomic::{AtomicU64, Ordering};

use mbt_geometry::Particle;
use mbt_multipole::{p2m_into, tri_len, Complex, ExpansionRef, Workspace};
use mbt_tree::{Octree, OctreeParams};
use rayon::prelude::*;

use crate::params::{TreecodeError, TreecodeParams};

/// Process-wide count of completed upward passes (expansion
/// constructions). Mirrors [`mbt_tree::build_count`]: caching layers read
/// the counter around a code path to prove it rebuilt nothing.
static UPWARD_PASSES: AtomicU64 = AtomicU64::new(0);

/// The number of upward passes this process has run so far.
#[must_use]
pub fn upward_pass_count() -> u64 {
    // ordering: Relaxed — independent monotonic counter; no data is published through it
    UPWARD_PASSES.load(Ordering::Relaxed)
}

/// How many node expansions one parallel P2M task builds with a single
/// reused [`Workspace`] — allocations per upward pass are `O(tasks)`, not
/// `O(nodes × particles)`.
const P2M_CHUNK: usize = 64;

/// Flat coefficient storage for every node expansion in the tree.
///
/// One contiguous `Vec<Complex>` holds all coefficient spans back to back
/// in node order; `offsets[id]..offsets[id + 1]` is node `id`'s triangular
/// array (its length encodes the node's degree). Compared to a
/// `Vec<MultipoleExpansion>` this removes one heap allocation per node,
/// and — because octree node order is a depth-first layout where siblings
/// are adjacent — makes the upward and evaluation passes walk memory
/// almost sequentially instead of chasing per-node pointers.
pub(crate) struct CoeffArena {
    /// Prefix sums of span lengths; `len = nodes + 1`.
    offsets: Vec<usize>,
    /// All coefficients, node `id` at `offsets[id]..offsets[id + 1]`.
    data: Vec<Complex>,
}

impl CoeffArena {
    /// A zeroed arena sized for the given per-node degrees.
    fn zeroed(degrees: &[usize]) -> CoeffArena {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &p in degrees {
            total += tri_len(p);
            offsets.push(total);
        }
        CoeffArena {
            offsets,
            // lint: allow(alloc, the arena itself — one allocation per build)
            data: vec![Complex::ZERO; total],
        }
    }

    /// Arena layout contracts, checked after every upward pass when the
    /// `validate` feature is enabled: offsets start at zero, grow
    /// monotonically (spans pairwise disjoint), cover `data` exactly, and
    /// every span holds the triangular array for its node's degree.
    ///
    /// Violations indicate a construction bug, never bad user input.
    #[cfg(feature = "validate")]
    fn validate_contracts(&self, degrees: &[usize]) {
        assert_eq!(
            self.offsets.len(),
            degrees.len() + 1,
            "validate: arena must carry one offset per node plus a sentinel"
        );
        assert_eq!(
            self.offsets.first().copied(),
            Some(0),
            "validate: arena offsets must start at zero"
        );
        assert!(
            self.offsets.windows(2).all(|w| w[0] <= w[1]),
            "validate: arena offsets must be monotone (disjoint spans)"
        );
        assert_eq!(
            self.offsets.last().copied(),
            Some(self.data.len()),
            "validate: arena spans must cover the buffer exactly"
        );
        for (id, &p) in degrees.iter().enumerate() {
            assert_eq!(
                self.offsets[id + 1] - self.offsets[id],
                tri_len(p),
                "validate: span of node {id} must be the triangular array for its degree"
            );
        }
    }

    /// Node `id`'s coefficient span.
    #[inline]
    pub(crate) fn span(&self, id: usize) -> &[Complex] {
        &self.data[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Resident heap footprint of the arena in bytes (offsets + data).
    fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.data.len() * std::mem::size_of::<Complex>()
    }

    /// Splits the whole arena into per-node mutable spans (for the
    /// parallel upward pass: the spans are disjoint by construction).
    fn split_mut(&mut self) -> Vec<&mut [Complex]> {
        let mut spans = Vec::with_capacity(self.offsets.len() - 1);
        let mut rest = self.data.as_mut_slice();
        for w in self.offsets.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            spans.push(head);
            rest = tail;
        }
        spans
    }
}

/// A fully built treecode, ready to evaluate potentials and fields.
///
/// Construction performs:
///
/// 1. octree build over the particle set,
/// 2. degree selection per cluster — fixed (original method) or by the
///    paper's Theorem-3 rule relative to the smallest leaf-cluster weight,
/// 3. the upward pass: a multipole expansion per node, each computed
///    directly from the node's particles at the node's own degree ("the
///    multipole series are computed a priori to the maximum required
///    degree" — all degree inputs are available at tree-construction time),
///    written into one flat `CoeffArena` shared by every node.
pub struct Treecode {
    pub(crate) tree: Octree,
    pub(crate) params: TreecodeParams,
    pub(crate) degrees: Vec<usize>,
    pub(crate) arena: CoeffArena,
    pub(crate) ref_weight: f64,
}

impl Treecode {
    /// Builds the treecode over a particle set.
    pub fn new(particles: &[Particle], params: TreecodeParams) -> Result<Treecode, TreecodeError> {
        params.validate()?;
        let tree = Octree::build(
            particles,
            OctreeParams {
                leaf_capacity: params.leaf_capacity,
            },
        )?;
        Ok(Self::from_tree(tree, params))
    }

    /// Builds the treecode over an already-constructed octree.
    pub fn from_tree(tree: Octree, params: TreecodeParams) -> Treecode {
        let selector = params.degree;
        let ref_weight = {
            let w = match params.ref_weight {
                crate::params::RefWeight::MedianLeaf => {
                    let mut ws: Vec<f64> = tree
                        .nodes()
                        .iter()
                        .filter(|n| n.is_leaf && !n.is_empty())
                        .map(|n| selector.weight(n.abs_charge, n.edge()))
                        .filter(|&w| w > 0.0)
                        .collect(); // lint: allow(alloc, once per tree build)
                    if ws.is_empty() {
                        f64::INFINITY
                    } else {
                        let mid = ws.len() / 2;
                        *ws.select_nth_unstable_by(mid, f64::total_cmp).1
                    }
                }
                crate::params::RefWeight::Explicit(w) => w,
            };
            if w.is_finite() && w > 0.0 {
                w
            } else {
                1.0 // all-zero charges: any reference works, degrees = p_min
            }
        };
        let degrees: Vec<usize> = tree
            .nodes()
            .iter()
            .map(|n| {
                selector.degree_for_node(n.abs_charge, n.radius, n.edge(), params.alpha, ref_weight)
            })
            .collect(); // lint: allow(alloc, per-node degrees, once per build)
        let arena = Self::upward_pass(&tree, &degrees);
        #[cfg(feature = "validate")]
        arena.validate_contracts(&degrees);
        Treecode {
            tree,
            params,
            degrees,
            arena,
            ref_weight,
        }
    }

    /// The upward pass.
    ///
    /// When every node carries the same degree (the original fixed-degree
    /// method), expansions are built bottom-up: P2M at the leaves, M2M to
    /// the parents — exact, because an M2M to an equal-or-lower target
    /// degree loses nothing, and cheaper than re-expanding all particles
    /// at every level. With per-cluster degrees (the improved method) a
    /// parent's degree exceeds its children's, so its high-order
    /// coefficients are not recoverable from the children; those nodes are
    /// expanded directly from their particles ("the multipole series are
    /// computed a priori to the maximum required degree").
    ///
    /// Both paths write straight into the flat arena: the parallel P2M
    /// phase splits it into disjoint per-node spans (chunks of
    /// [`P2M_CHUNK`] nodes share one scratch [`Workspace`]), and the
    /// fixed-degree M2M phase walks the node order in reverse,
    /// accumulating each child span into its parent span in place.
    fn upward_pass(tree: &Octree, degrees: &[usize]) -> CoeffArena {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        UPWARD_PASSES.fetch_add(1, Ordering::Relaxed);
        let uniform = degrees.windows(2).all(|w| w[0] == w[1]);
        let mut arena = CoeffArena::zeroed(degrees);
        {
            let mut spans = arena.split_mut();
            // P2M: every node directly when degrees vary (a parent's extra
            // coefficients are not recoverable from its children), leaves
            // only in the uniform case
            spans
                .par_chunks_mut(P2M_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let mut ws = Workspace::new();
                    for (k, out) in chunk.iter_mut().enumerate() {
                        let id = (ci * P2M_CHUNK + k) as u32;
                        let n = tree.node(id);
                        if uniform && !n.is_leaf {
                            continue; // already zero; filled by M2M below
                        }
                        p2m_into(
                            out,
                            n.center,
                            degrees[id as usize],
                            tree.particles_of(id),
                            &mut ws,
                        );
                    }
                });
        }
        if !uniform {
            return arena;
        }
        // fixed degree: M2M upward (node order reversed: children always
        // have larger indices than parents, so splitting the arena at the
        // parent's end yields the parent span and all child spans)
        for id in (0..tree.len()).rev() {
            let node = tree.node(id as u32);
            if node.is_leaf {
                continue;
            }
            let end = arena.offsets[id + 1];
            let (head, tail) = arena.data.split_at_mut(end);
            let parent = &mut head[arena.offsets[id]..];
            for c in node.child_ids() {
                let c = c as usize;
                let child = ExpansionRef::new(
                    tree.node(c as u32).center,
                    degrees[c],
                    &tail[arena.offsets[c] - end..arena.offsets[c + 1] - end],
                );
                child.m2m_accumulate_into(node.center, degrees[id], parent);
            }
        }
        arena
    }

    /// Rebuilds the expansions for a new charge vector (caller's original
    /// order) over [`Octree::with_charges`], keeping the per-node degrees
    /// exactly as built. The tree's geometry (expansion centers, cluster
    /// radii, MAC decisions) is a function of the positions alone, and
    /// only `A` and the net charge follow the new charges.
    ///
    /// Under `Fixed` and `Adaptive` degrees the returned treecode is
    /// therefore an **exactly linear** map of the charge vector, which is
    /// what an iterative solver needs from a repeated matvec over fixed
    /// geometry (the paper's BEM use case: the Gauss points never move;
    /// only the density iterates). Under `Tolerance` it is not: each
    /// interaction is truncated per Theorem 1 by the new `A`, so the
    /// degrees an evaluation sums move with the charges.
    pub fn with_charges(&self, charges: &[f64]) -> Result<Treecode, TreecodeError> {
        let tree = self.tree.with_charges(charges)?;
        let degrees = self.degrees.clone(); // lint: allow(alloc, once per matvec)
        let arena = Self::upward_pass(&tree, &degrees);
        Ok(Treecode {
            tree,
            params: self.params,
            degrees,
            arena,
            ref_weight: self.ref_weight,
        })
    }

    /// The underlying octree.
    #[inline]
    #[must_use]
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// The run parameters.
    #[inline]
    #[must_use]
    pub fn params(&self) -> &TreecodeParams {
        &self.params
    }

    /// The expansion degree assigned to each node.
    #[inline]
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The reference weight `w_ref` used by the adaptive rule.
    #[inline]
    #[must_use]
    pub fn ref_weight(&self) -> f64 {
        self.ref_weight
    }

    /// The expansion of a node, viewed directly over its arena span (no
    /// per-node storage exists to return a reference to).
    #[inline]
    #[must_use]
    pub fn expansion(&self, id: mbt_tree::NodeId) -> ExpansionRef<'_> {
        let i = id as usize;
        ExpansionRef::new(
            self.tree.node(id).center,
            self.degrees[i],
            self.arena.span(i),
        )
    }

    /// The source particles in tree (Morton) order.
    #[inline]
    #[must_use]
    pub fn particles(&self) -> &[Particle] {
        self.tree.particles()
    }

    /// Resident heap footprint of the whole built plan in bytes: the
    /// octree (nodes, sorted particles, keys, permutation), the flat
    /// coefficient arena, and the per-node degree table. This is the
    /// quantity a plan cache charges against its byte budget — the
    /// treecode is exactly the expensive reusable artifact such a cache
    /// stores.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
            + self.arena.heap_bytes()
            + self.degrees.len() * std::mem::size_of::<usize>()
    }

    /// Total coefficient storage (complex numbers) across all expansions —
    /// the memory-side cost of the adaptive method.
    #[must_use]
    pub fn coefficient_count(&self) -> u64 {
        self.degrees
            .iter()
            .map(|&p| ((p + 1) * (p + 2) / 2) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreecodeParams;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_multipole::MultipoleExpansion;

    fn particles(n: usize) -> Vec<Particle> {
        uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 11)
    }

    #[test]
    fn m2m_upward_matches_direct_p2m() {
        // the fixed-degree fast path (P2M at leaves + M2M up) must produce
        // the same coefficients as expanding every node's particles
        // directly — the translation identity, checked end to end
        let ps = particles(3000);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(6, 0.5)).unwrap();
        for (i, n) in tc.tree().nodes().iter().enumerate() {
            let direct =
                MultipoleExpansion::from_particles(n.center, 6, tc.tree().particles_of(i as u32));
            let fast = tc.expansion(i as u32);
            for deg in 0..=6usize {
                for m in 0..=deg as i64 {
                    let a = fast.coeff(deg, m);
                    let b = direct.coeff(deg, m);
                    assert!(
                        (a - b).norm() <= 1e-9 * (1.0 + b.norm()),
                        "node {i} coeff ({deg},{m}): {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_degrees_are_uniform() {
        let tc = Treecode::new(&particles(2000), TreecodeParams::fixed(5, 0.6)).unwrap();
        assert!(tc.degrees().iter().all(|&p| p == 5));
    }

    #[test]
    fn adaptive_degrees_grow_toward_root() {
        let tc = Treecode::new(
            &particles(8000),
            TreecodeParams::adaptive(3, 0.6).with_leaf_capacity(16),
        )
        .unwrap();
        let root_p = tc.degrees()[0];
        let leaf_p: Vec<usize> = tc
            .tree()
            .leaf_ids()
            .iter()
            .map(|&id| tc.degrees()[id as usize])
            .collect();
        let max_leaf_p = *leaf_p.iter().max().unwrap();
        assert!(
            root_p > max_leaf_p,
            "root degree {root_p} should exceed leaf degrees (max {max_leaf_p})"
        );
        // every node's degree >= p_min
        assert!(tc.degrees().iter().all(|&p| p >= 3));
        // monotone along every parent-child edge (parents have >= weight)
        for (i, n) in tc.tree().nodes().iter().enumerate() {
            for c in n.child_ids() {
                assert!(
                    tc.degrees()[c as usize] <= tc.degrees()[i],
                    "child degree exceeds parent degree"
                );
            }
        }
    }

    #[test]
    fn expansion_centers_match_nodes() {
        let tc = Treecode::new(&particles(500), TreecodeParams::fixed(4, 0.5)).unwrap();
        for (i, n) in tc.tree().nodes().iter().enumerate() {
            let e = tc.expansion(i as u32);
            assert_eq!(e.center(), n.center);
            assert_eq!(e.degree(), tc.degrees()[i]);
        }
    }

    #[test]
    fn zero_charges_fall_back_gracefully() {
        let ps: Vec<Particle> = particles(100)
            .into_iter()
            .map(|p| Particle::new(p.position, 0.0))
            .collect();
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(2, 0.5)).unwrap();
        assert!(tc.degrees().iter().all(|&p| p == 2));
        assert!(tc.ref_weight().is_finite());
    }

    #[test]
    fn coefficient_count_larger_for_adaptive() {
        let ps = particles(4000);
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        let adaptive = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        assert!(adaptive.coefficient_count() > fixed.coefficient_count());
    }

    #[test]
    fn heap_bytes_accounts_tree_and_arena() {
        let ps = particles(2000);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6)).unwrap();
        let bytes = tc.heap_bytes();
        // at least the particle storage and the coefficient arena
        let coeffs: usize = tc
            .degrees()
            .iter()
            .map(|&p| mbt_multipole::coeff_bytes(p))
            .sum();
        assert!(bytes >= ps.len() * std::mem::size_of::<Particle>() + coeffs);
        // a higher degree must cost more memory
        let big = Treecode::new(&ps, TreecodeParams::fixed(8, 0.6)).unwrap();
        assert!(big.heap_bytes() > bytes);
    }

    #[test]
    fn with_charges_refuses_a_wrong_length_vector() {
        let ps = particles(200);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        assert_eq!(
            tc.with_charges(&vec![1.0; 199]).err(),
            Some(TreecodeError::Tree(
                mbt_tree::TreeError::ChargeCountMismatch {
                    expected: 200,
                    got: 199,
                }
            ))
        );
    }

    #[test]
    fn upward_pass_counter_advances_per_build() {
        let ps = particles(300);
        let before = upward_pass_count();
        let tc = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        let _rebuilt = tc.with_charges(&vec![1.0; ps.len()]).unwrap();
        // other tests run concurrently in this process, so the counter may
        // advance by more than our two passes — never fewer
        assert!(upward_pass_count() >= before + 2);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Treecode::new(&particles(10), TreecodeParams::fixed(4, -1.0)).is_err());
        assert!(Treecode::new(&[], TreecodeParams::default()).is_err());
    }
}
