//! Treecode construction: tree build, per-cluster degree selection, and the
//! upward (expansion construction) pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mbt_geometry::{MortonOrder, Particle, SoaSpan};
use mbt_multipole::{p2m_soa_into, tri_len, Complex, ExpansionRef, Workspace, P2M_LANES};
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

/// Target cost of one upward-pass work item, in particle × coefficient
/// units (`len · tri_len(p)` summed over what the item expands): about
/// 20 µs of P2M. A node dearer than this is split into blocks of about
/// `P2M_ITEM_COST / tri_len(p)` particles; runs of cheaper nodes share one
/// item. Every item then costs about the same, so the runtime's static
/// split of the item list into one contiguous range per worker is
/// balanced, and one scratch [`Workspace`] per item keeps allocations at
/// `O(items)`.
const P2M_ITEM_COST: usize = 1 << 15;

/// One unit of upward-pass work, in node order.
#[derive(Debug)]
enum P2mItem {
    /// Consecutive whole nodes `first..end`, each expanded from its whole
    /// particle span into its own arena span.
    Nodes { first: usize, end: usize },
    /// Particles `span` (tree order) of one node too dear for one item.
    /// Block 0 writes the node's arena span; every later block writes
    /// its own partial, added into the arena span in block order.
    Block {
        node: usize,
        span: std::ops::Range<usize>,
        index: usize,
    },
}

/// The upward pass's work items: a function of the tree's particle spans
/// and the per-node degrees alone, never of the worker count, so the
/// expansions — partials and their block-order sums included — are the
/// same bits at any thread count.
fn p2m_items(tree: &Octree, degrees: &[usize]) -> Vec<P2mItem> {
    let cost = |len: usize, p: usize| (len + P2M_LANES) * tri_len(p);
    // lint: allow(alloc, the item list, once per upward pass)
    let mut items = Vec::new();
    let mut run: Option<(usize, usize)> = None; // (first node, cost so far)
    for (id, &p) in degrees.iter().enumerate() {
        let node = tree.node(id as u32);
        let c = cost(node.len(), p);
        if c <= P2M_ITEM_COST {
            match run {
                Some((first, acc)) if acc + c <= P2M_ITEM_COST => run = Some((first, acc + c)),
                _ => {
                    if let Some((first, _)) = run {
                        items.push(P2mItem::Nodes { first, end: id });
                    }
                    run = Some((id, c));
                }
            }
            continue;
        }
        if let Some((first, _)) = run.take() {
            items.push(P2mItem::Nodes { first, end: id });
        }
        // equal blocks of whole lane groups, about P2M_ITEM_COST each
        let (start, end) = (node.start as usize, node.end as usize);
        let per = (P2M_ITEM_COST / tri_len(p)).max(P2M_LANES);
        let blocks = (end - start).div_ceil(per);
        let per = (end - start).div_ceil(blocks).next_multiple_of(P2M_LANES);
        for (index, s) in (start..end).step_by(per).enumerate() {
            items.push(P2mItem::Block {
                node: id,
                span: s..(s + per).min(end),
                index,
            });
        }
    }
    if let Some((first, _)) = run {
        items.push(P2mItem::Nodes {
            first,
            end: degrees.len(),
        });
    }
    items
}

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

    /// Arena contracts, checked after every upward pass when the
    /// `validate` feature is enabled: offsets start at zero, grow
    /// monotonically (spans pairwise disjoint), cover `data` exactly, and
    /// every span holds the triangular array for its node's degree; and
    /// every node's monopole `M_0^0` equals the net charge the tree
    /// stores for it to within `1e-12·A`, which a dropped or
    /// double-counted block of particles would break.
    ///
    /// Violations indicate a construction bug, never bad user input.
    #[cfg(feature = "validate")]
    fn validate_contracts(&self, tree: &Octree, degrees: &[usize]) {
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
            let node = tree.node(id as u32);
            let monopole = self.span(id)[0];
            assert!(
                (monopole - Complex::new(node.net_charge, 0.0)).norm() <= 1e-12 * node.abs_charge,
                "validate: node {id} monopole {monopole:?} must equal its net charge {}",
                node.net_charge
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
        let leaf_capacity = params.leaf_capacity;
        let tree = Octree::build(particles, OctreeParams { leaf_capacity })?;
        Ok(Self::from_tree(tree, params))
    }

    /// Builds the treecode over an existing order ([`Octree::over`]: its
    /// sorted Morton `keys` and the sorted charges `q`).
    pub fn over(
        order: Arc<MortonOrder>,
        keys: &[u64],
        q: Vec<f64>,
        params: TreecodeParams,
    ) -> Result<Treecode, TreecodeError> {
        params.validate()?;
        let leaf_capacity = params.leaf_capacity;
        let tree = Octree::over(order, keys, q, OctreeParams { leaf_capacity })?;
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
        Treecode {
            tree,
            params,
            degrees,
            arena,
            ref_weight,
        }
    }

    /// The upward pass: every node's expansion is built directly from its
    /// own particles at its own degree ("the multipole series are
    /// computed a priori to the maximum required degree"), whatever the
    /// degree policy, through the one lane-batched P2M kernel.
    ///
    /// The work is cut into [`p2m_items`] of about equal cost: runs of
    /// small nodes, and blocks of the big ones. Items run in parallel,
    /// each writing disjoint output — arena spans, or a block's own
    /// partial — and then each split node adds its partials into its
    /// span in block order. The cut depends only on the tree and the
    /// degrees, so the arena is bit-identical at any worker count.
    fn upward_pass(tree: &Octree, degrees: &[usize]) -> CoeffArena {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        UPWARD_PASSES.fetch_add(1, Ordering::Relaxed);
        let items = p2m_items(tree, degrees);
        let mut arena = CoeffArena::zeroed(degrees);
        let partial_len: usize = items
            .iter()
            .map(|it| match *it {
                P2mItem::Block {
                    node, index: 1.., ..
                } => tri_len(degrees[node]),
                _ => 0,
            })
            .sum();
        // lint: allow(alloc, one partial buffer per upward pass)
        let mut partials = vec![Complex::ZERO; partial_len];
        {
            // hand every item its output: arena spans and partials are
            // both laid out in item order, so each splits off the front
            let mut work = Vec::with_capacity(items.len());
            let (mut rest, mut spare) = (arena.data.as_mut_slice(), partials.as_mut_slice());
            for it in &items {
                let (in_arena, len) = match *it {
                    P2mItem::Nodes { first, end } => {
                        (true, arena.offsets[end] - arena.offsets[first])
                    }
                    P2mItem::Block { node, index, .. } => (index == 0, tri_len(degrees[node])),
                };
                let front = if in_arena { &mut rest } else { &mut spare };
                let (out, tail) = std::mem::take(front).split_at_mut(len);
                *front = tail;
                work.push((it, out));
            }
            work.par_iter_mut().for_each(|(it, out)| {
                let mut ws = Workspace::new();
                match **it {
                    P2mItem::Nodes { first, end } => {
                        let mut rest = &mut out[..];
                        for (id, &p) in degrees.iter().enumerate().take(end).skip(first) {
                            let (span, tail) = rest.split_at_mut(tri_len(p));
                            let id = id as u32;
                            p2m_soa_into(
                                span,
                                tree.node(id).center,
                                p,
                                tree.particles_of(id),
                                &mut ws,
                            );
                            rest = tail;
                        }
                    }
                    P2mItem::Block { node, ref span, .. } => {
                        p2m_soa_into(
                            out,
                            tree.node(node as u32).center,
                            degrees[node],
                            tree.particles().slice(span.start..span.end),
                            &mut ws,
                        );
                    }
                }
            });
        }
        // each split node sums its partials in block order
        let mut at = 0;
        for it in &items {
            if let P2mItem::Block {
                node, index: 1.., ..
            } = *it
            {
                let len = tri_len(degrees[node]);
                let span = &mut arena.data[arena.offsets[node]..arena.offsets[node + 1]];
                for (c, p) in span.iter_mut().zip(&partials[at..at + len]) {
                    *c += *p;
                }
                at += len;
            }
        }
        #[cfg(feature = "validate")]
        arena.validate_contracts(tree, degrees);
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
    pub fn particles(&self) -> SoaSpan<'_> {
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

    /// Every arena span is a direct P2M of its node's particles at the
    /// node's degree — under a fixed degree too, which no longer takes an
    /// M2M path — up to the reassociation of a split node's block sums.
    #[test]
    fn every_arena_span_matches_a_direct_p2m_of_its_particles() {
        let ps = particles(3000);
        for params in [
            TreecodeParams::fixed(6, 0.5),
            TreecodeParams::adaptive(3, 0.6),
        ] {
            let tc = Treecode::new(&ps, params).unwrap();
            for (i, n) in tc.tree().nodes().iter().enumerate() {
                let p = tc.degrees()[i];
                let sources: Vec<Particle> = tc.tree().particles_of(i as u32).iter().collect();
                let direct = MultipoleExpansion::from_particles(n.center, p, &sources);
                let built = tc.expansion(i as u32);
                for deg in 0..=p {
                    for m in 0..=deg as i64 {
                        let a = built.coeff(deg, m);
                        let b = direct.coeff(deg, m);
                        assert!(
                            (a - b).norm() <= 1e-12 * n.abs_charge,
                            "node {i} coeff ({deg},{m}): {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    /// The work items tile the tree exactly: every node is covered by
    /// one `Nodes` run or by blocks that partition its particle span in
    /// order; no item is dearer than the target unless it is one lane
    /// group; and the root of a big tree is split.
    #[test]
    fn p2m_items_tile_every_node_once() {
        let ps = particles(20_000);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(4, 0.6)).unwrap();
        let (tree, degrees) = (tc.tree(), tc.degrees());
        let items = p2m_items(tree, degrees);
        let mut next_node = 0;
        let mut next_particle = None;
        for it in &items {
            match it {
                P2mItem::Nodes { first, end } => {
                    assert_eq!((*first, next_particle), (next_node, None));
                    assert!(end > first);
                    next_node = *end;
                }
                P2mItem::Block { node, span, index } => {
                    let n = tree.node(*node as u32);
                    if *index == 0 {
                        assert_eq!((*node, next_particle), (next_node, None));
                        assert_eq!(span.start, n.start as usize);
                    } else {
                        assert_eq!(Some(span.start), next_particle);
                    }
                    assert!(span.len() % P2M_LANES == 0 || span.end == n.end as usize);
                    assert!(span.len() * tri_len(degrees[*node]) <= 2 * P2M_ITEM_COST);
                    if span.end == n.end as usize {
                        next_particle = None;
                        next_node = node + 1;
                    } else {
                        next_particle = Some(span.end);
                    }
                }
            }
        }
        assert_eq!((next_node, next_particle), (degrees.len(), None));
        assert!(items.iter().any(|it| matches!(
            it,
            P2mItem::Block {
                node: 0,
                index: 1,
                ..
            }
        )));
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
