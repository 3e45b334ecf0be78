//! Interaction-list compilation: the treecode's evaluation sweep.
//!
//! A per-target sweep would interleave branchy MAC traversal with short
//! bursts of kernel arithmetic, so neither pipelines. This module splits
//! each per-chunk sweep into two phases:
//!
//! 1. **compile** — run the α-MAC traversal for every target in the chunk
//!    (same stack discipline, same [`mac`] decisions, same
//!    per-interaction degrees as a per-target traversal) and record,
//!    instead of evaluating, a flat list of M2P tasks plus near-field P2P
//!    source spans. Spans around a source target's own index are split so
//!    the self-interaction never reaches a kernel.
//! 2. **execute** — bucket the M2P tasks by interaction degree with a
//!    stable counting sort and burn through them in lane groups via the
//!    batched SoA kernels of `mbt-multipole::batch`; then stream the P2P
//!    spans over the octree's SoA sources ([`mbt_geometry::SoaSpan`]).
//!
//! Degree bucketing keeps every lane group on one degree, since a group
//! kernel runs one truncation for all its lanes; the node-id minor key
//! clusters same-expansion tasks into runs the broadcast kernels exploit;
//! and the *stable* sort gives determinism:
//! each target's contributions are summed in (degree, node,
//! traversal-order) order, which depends only on that target's own
//! interaction set — never on chunk width or on which other targets
//! share the chunk.
//!
//! All list buffers live in one [`CompiledScratch`] per parallel chunk
//! and are reused across the chunk's targets, so the steady-state sweep
//! stays allocation-free per interaction (`alloc_count.rs` pins the
//! sweep to `O(chunks)` allocations).
//!
//! The test-only per-target traversal in `reference.rs` is the oracle:
//! it evaluates the same interaction set one target at a time, so the
//! counters agree exactly and the values up to summation order.

use mbt_geometry::{SoaSpan, Vec3};
use mbt_multipole::batch::{
    m2p_field_group, m2p_field_group_uniform, m2p_potential_group, m2p_potential_group_uniform,
    p2p_span, BatchWorkspace, M2pGroup, M2P_LANES,
};
use mbt_multipole::{simd, Complex};
use mbt_tree::NodeId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::mac::{mac, MacDecision};
use crate::stats::EvalStats;
use crate::upward::Treecode;

/// Publishes one sweep's observability spans: the CPU time the parallel
/// chunks spent in list compilation (summed across chunks, so it can
/// exceed the sweep's wall time), then the sweep's own wall-clock span.
/// Both calls are single atomic loads when no recorder is installed.
fn record_compile_and_sweep(compile_ns: u64, sweep_start: std::time::Instant) {
    if compile_ns > 0 {
        mbt_obs::record_duration(
            mbt_obs::Phase::Compile,
            std::time::Duration::from_nanos(compile_ns),
        );
    }
    mbt_obs::record_since(mbt_obs::Phase::Sweep, sweep_start);
}

/// One MAC-accepted far-field interaction: evaluate `node`'s expansion at
/// `target`, truncated to `degree`.
#[derive(Debug, Clone, Copy, Default)]
struct M2pTask {
    /// Chunk-local target index.
    target: u32,
    /// Accepted node.
    node: NodeId,
    /// Interaction degree (already resolved, including `Tolerance`-mode
    /// per-interaction truncation).
    degree: u32,
}

/// One near-field source range `[start, end)` (sorted-particle indices)
/// to sum directly against `target`.
#[derive(Debug, Clone, Copy)]
struct P2pSpan {
    /// Chunk-local target index.
    target: u32,
    /// First sorted source index.
    start: u32,
    /// One past the last sorted source index.
    end: u32,
}

/// Identifies a target during source-set evaluation so the traversal can
/// exclude self-interaction.
#[derive(Clone, Copy)]
pub(crate) enum TargetKind {
    /// Evaluation at source particle with this sorted index.
    SourceParticle(usize),
    /// Evaluation at an external point (no exclusion).
    External,
}

/// The [`TargetKind`] for lane `l` of a chunk starting at `base`:
/// external points for `potentials_at`/`fields_at` sweeps, the source
/// particle at `base + l` otherwise.
fn kind_of(points: Option<&[Vec3]>, base: usize, l: usize) -> TargetKind {
    if points.is_some() {
        TargetKind::External
    } else {
        TargetKind::SourceParticle(base + l)
    }
}

/// Reusable per-chunk compilation state: the traversal stack, the task
/// and span lists, the counting-sort buffers, and the batched-kernel
/// workspace. One `CompiledScratch` is allocated per parallel chunk and
/// cleared (not freed) between targets.
struct CompiledScratch {
    stack: Vec<NodeId>,
    /// Secondary stack for per-target resolution of MAC-ambiguous
    /// subtrees (the primary stack holds the shared chunk traversal).
    substack: Vec<NodeId>,
    /// Target positions, indexed by chunk-local target id.
    targets: Vec<Vec3>,
    /// M2P tasks in traversal order (all targets interleaved).
    tasks: Vec<M2pTask>,
    /// Tasks after the stable (degree, node) sort.
    sorted: Vec<M2pTask>,
    /// Counting-sort histogram / write cursors, indexed by degree.
    cursors: Vec<u32>,
    /// Counting-sort histogram / write cursors, indexed by node id.
    node_cursors: Vec<u32>,
    /// P2P spans in traversal order.
    spans: Vec<P2pSpan>,
    /// Lane-major scratch for the batched M2P kernels.
    bws: BatchWorkspace,
}

impl CompiledScratch {
    /// Scratch pre-sized so a typical chunk compiles without regrowth:
    /// the stacks get an `8 · (height + 1)` bound (the 8 children of every
    /// opened ancestor on one root-to-node path), and the lists get a starting capacity proportional to
    /// the chunk width (they grow monotonically if a chunk needs more).
    fn new(height: usize, chunk: usize) -> CompiledScratch {
        CompiledScratch {
            stack: Vec::with_capacity(8 * (height + 1)),
            substack: Vec::with_capacity(8 * (height + 1)),
            targets: Vec::with_capacity(chunk),
            tasks: Vec::with_capacity(chunk * 8),
            sorted: Vec::with_capacity(chunk * 8),
            cursors: Vec::with_capacity(64),
            node_cursors: Vec::new(), // lint: allow(alloc, scratch construction, once per chunk)
            spans: Vec::with_capacity(chunk * 4),
            bws: BatchWorkspace::new(),
        }
    }

    /// Stable two-key counting sort of `tasks` into `sorted`, ordered by
    /// `(degree, node, emission order)` — LSD radix: a stable pass on the
    /// node id followed by a stable pass on the degree. Degree-major
    /// order keeps each lane group on one degree; the node-id minor
    /// key clusters every task against the same expansion into one run,
    /// which is what lets the executor use the broadcast (uniform-node)
    /// kernels for nearly all groups. Determinism: both keys are
    /// per-task properties, so each target's accumulation order is a
    /// function of its own interaction set only — independent of chunk
    /// width and of which other targets share the chunk.
    fn bucket_by_degree(&mut self, max_degree: usize, node_count: usize) {
        self.node_cursors.clear();
        self.node_cursors.resize(node_count, 0);
        for t in &self.tasks {
            self.node_cursors[t.node as usize] += 1;
        }
        let mut sum = 0u32;
        for c in &mut self.node_cursors {
            let count = *c;
            *c = sum;
            sum += count;
        }
        self.sorted.clear();
        self.sorted.resize(self.tasks.len(), M2pTask::default());
        for t in &self.tasks {
            let slot = &mut self.node_cursors[t.node as usize];
            self.sorted[*slot as usize] = *t;
            *slot += 1;
        }

        self.cursors.clear();
        self.cursors.resize(max_degree + 1, 0);
        for t in &self.sorted {
            self.cursors[t.degree as usize] += 1;
        }
        // Single-degree chunk (always true in `Fixed` mode): the
        // node-sorted pass already is the (degree, node) order.
        if self.cursors.iter().filter(|&&c| c > 0).count() <= 1 {
            return;
        }
        let mut sum = 0u32;
        for c in &mut self.cursors {
            let count = *c;
            *c = sum;
            sum += count;
        }
        self.tasks.clear();
        self.tasks.resize(self.sorted.len(), M2pTask::default());
        for t in &self.sorted {
            let slot = &mut self.cursors[t.degree as usize];
            self.tasks[*slot as usize] = *t;
            *slot += 1;
        }
        std::mem::swap(&mut self.tasks, &mut self.sorted);
    }
}

/// A sweep's value at one target: the potential, or the potential and
/// its gradient, accumulated term by term.
pub(crate) trait SweepValue: Copy + Default + Send {
    /// Adds one interaction's `(Φ, ∇Φ)`.
    fn add(&mut self, phi: f64, grad: Vec3);
}

impl SweepValue for f64 {
    #[inline]
    fn add(&mut self, phi: f64, _: Vec3) {
        *self += phi;
    }
}

impl SweepValue for (f64, Vec3) {
    #[inline]
    fn add(&mut self, phi: f64, grad: Vec3) {
        self.0 += phi;
        self.1 += grad;
    }
}

impl Treecode {
    /// The sweep: potentials, or with `FIELD` potentials and gradients.
    /// `points` selects external targets; `None` evaluates at the
    /// (sorted) source particles with self-exclusion. Writes into `out`
    /// (one slot per target, same order) and returns the merged counters,
    /// which match a per-target traversal's exactly — the lists are a
    /// reordering, not an approximation. Near-field spans are guarded
    /// except in a potential sweep at the sources, whose self pairs were
    /// split out at compile time.
    pub(crate) fn compiled_sweep<const FIELD: bool, T: SweepValue>(
        &self,
        points: Option<&[Vec3]>,
        out: &mut [T],
        chunk: usize,
    ) -> EvalStats {
        let sweep_start = std::time::Instant::now();
        let chunk = chunk.max(1);
        let max_degree = self.max_degree();
        let height = self.tree.height();
        let compile_ns = AtomicU64::new(0);
        let chunk_stats: Vec<EvalStats> = out
            .par_chunks_mut(chunk)
            .enumerate()
            .map(|(ci, out_chunk)| {
                let base = ci * chunk;
                let mut cs = CompiledScratch::new(height, out_chunk.len());
                let mut stats = EvalStats::for_targets(out_chunk.len() as u64);
                let compile_start = std::time::Instant::now();
                self.compile_chunk::<FIELD>(points, base, out_chunk.len(), &mut cs, &mut stats);
                cs.bucket_by_degree(max_degree, self.tree.nodes().len());
                // ordering: Relaxed — per-chunk timing accumulator; no data is published through it
                compile_ns.fetch_add(compile_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out_chunk.fill(T::default());
                let mut add = |i: usize, phi: f64, grad: Vec3| out_chunk[i].add(phi, grad);
                self.exec_m2p::<FIELD>(&mut cs, &mut add);
                if FIELD || points.is_some() {
                    self.exec_p2p::<true, FIELD>(&cs, &mut stats, add);
                } else {
                    self.exec_p2p::<false, FIELD>(&cs, &mut stats, add);
                }
                stats
            })
            .collect(); // lint: allow(alloc, O(chunks) stats per sweep)
        let mut stats = EvalStats::default();
        for s in &chunk_stats {
            stats.merge(s);
        }
        // ordering: Relaxed — reading the timing total after the parallel loop joined
        record_compile_and_sweep(compile_ns.load(Ordering::Relaxed), sweep_start);
        stats
    }

    /// Compiles one chunk of targets with a **shared** traversal: the
    /// chunk's targets are enclosed in a bounding sphere `(c, ρ)` and the
    /// tree is walked once, classifying each node with conservative
    /// chunk-wide MAC bounds:
    ///
    /// * **accept-all** — the α-test holds at the minimum possible target
    ///   distance `max(|c−center|−ρ, 0)`, that distance clears the
    ///   convergence radius, and the node's box is disjoint from the
    ///   chunk's box: every target individually passes [`mac`], so one
    ///   M2P task per target is emitted without per-target tests.
    /// * **open-all** — some MAC condition fails for every possible
    ///   target position (α-test fails at the maximum distance
    ///   `|c−center|+ρ`, or the whole chunk sits inside the convergence
    ///   radius or inside the node's box): every target individually
    ///   opens, so the traversal descends (or emits leaf spans) once.
    /// * otherwise the decision is **ambiguous** and the subtree is
    ///   resolved per target with the exact per-target MAC
    ///   ([`Treecode::compile_subtree`]).
    ///
    /// Because the conservative bounds imply the exact per-target
    /// decision, every target's emitted interaction set — and its DFS
    /// emission *order* — is identical to what its own per-target
    /// traversal produces, for any chunk width. Morton-ordered targets make ρ
    /// small, so the far field (the bulk of MAC tests) is classified
    /// once per chunk instead of once per target.
    fn compile_chunk<const FIELD: bool>(
        &self,
        points: Option<&[Vec3]>,
        base: usize,
        len: usize,
        cs: &mut CompiledScratch,
        stats: &mut EvalStats,
    ) {
        debug_assert!(cs.targets.is_empty());
        for k in 0..len {
            let x = match points {
                Some(ps) => ps[base + k],
                None => self.tree.particles().position(base + k),
            };
            cs.targets.push(x);
        }
        if cs.targets.is_empty() {
            return;
        }
        let mut lo = cs.targets[0];
        let mut hi = cs.targets[0];
        for &x in &cs.targets[1..] {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let c = (lo + hi) * 0.5;
        let rho = (hi - lo).norm() * 0.5;
        let alpha2 = self.params.alpha * self.params.alpha;

        cs.stack.clear();
        cs.stack.push(self.tree.root());
        while let Some(id) = cs.stack.pop() {
            let node = self.tree.node(id);
            let d = node.edge();
            let dist = c.distance(node.center);
            let dist_min = (dist - rho).max(0.0);
            let dist_max = dist + rho;

            let accept_all = d * d <= alpha2 * (dist_min * dist_min)
                && dist_min * dist_min > node.radius * node.radius
                && (node.bbox.max.x < lo.x
                    || node.bbox.min.x > hi.x
                    || node.bbox.max.y < lo.y
                    || node.bbox.min.y > hi.y
                    || node.bbox.max.z < lo.z
                    || node.bbox.min.z > hi.z);
            if accept_all {
                for l in 0..cs.targets.len() {
                    let p = self.interaction_degree(id, cs.targets[l]);
                    cs.tasks.push(M2pTask {
                        target: l as u32,
                        node: id,
                        degree: p as u32,
                    });
                    stats.record_interaction(p);
                }
                continue;
            }

            let open_all = d * d > alpha2 * (dist_max * dist_max)
                || dist_max * dist_max <= node.radius * node.radius
                || (node.bbox.contains(lo) && node.bbox.contains(hi));
            if open_all {
                if node.is_leaf {
                    for l in 0..cs.targets.len() {
                        self.emit_leaf::<FIELD>(id, l as u32, kind_of(points, base, l), cs, stats);
                    }
                } else {
                    cs.stack.extend(node.child_ids());
                }
                continue;
            }

            for l in 0..cs.targets.len() {
                self.compile_subtree::<FIELD>(l as u32, kind_of(points, base, l), id, cs, stats);
            }
        }
    }

    /// Resolves one MAC-ambiguous subtree for one target with the exact
    /// per-target criterion, emitting lists instead of evaluating.
    /// Far-field interactions are counted here, at emission; near-field
    /// pair counting follows the policy of [`Treecode::emit_leaf`].
    fn compile_subtree<const FIELD: bool>(
        &self,
        lane: u32,
        kind: TargetKind,
        from: NodeId,
        cs: &mut CompiledScratch,
        stats: &mut EvalStats,
    ) {
        let x = cs.targets[lane as usize];
        cs.substack.clear();
        cs.substack.push(from);
        while let Some(id) = cs.substack.pop() {
            let node = self.tree.node(id);
            match mac(node, x, self.params.alpha) {
                MacDecision::Accept => {
                    let p = self.interaction_degree(id, x);
                    cs.tasks.push(M2pTask {
                        target: lane,
                        node: id,
                        degree: p as u32,
                    });
                    stats.record_interaction(p);
                }
                MacDecision::Open => {
                    if node.is_leaf {
                        self.emit_leaf::<FIELD>(id, lane, kind, cs, stats);
                    } else {
                        cs.substack.extend(node.child_ids());
                    }
                }
            }
        }
    }

    /// Emits one opened leaf's P2P span(s) for one target. A source
    /// target inside the leaf has its own index split out of the span so
    /// the self-interaction never reaches a kernel; a source potential
    /// sweep counts source pairs unconditionally, so those are counted
    /// here at compile time, while external-point and field pairs are
    /// counted by the guarded kernels at execution.
    fn emit_leaf<const FIELD: bool>(
        &self,
        id: NodeId,
        lane: u32,
        kind: TargetKind,
        cs: &mut CompiledScratch,
        stats: &mut EvalStats,
    ) {
        let node = self.tree.node(id);
        let (start, end) = (node.start as usize, node.end as usize);
        match kind {
            TargetKind::SourceParticle(i) if (start..end).contains(&i) => {
                if i > start {
                    cs.spans.push(P2pSpan {
                        target: lane,
                        start: start as u32,
                        end: i as u32,
                    });
                }
                if i + 1 < end {
                    cs.spans.push(P2pSpan {
                        target: lane,
                        start: (i + 1) as u32,
                        end: end as u32,
                    });
                }
                if !FIELD {
                    stats.record_direct((end - start - 1) as u64);
                }
            }
            _ => {
                cs.spans.push(P2pSpan {
                    target: lane,
                    start: start as u32,
                    end: end as u32,
                });
                if !FIELD && matches!(kind, TargetKind::SourceParticle(_)) {
                    stats.record_direct((end - start) as u64);
                }
            }
        }
    }

    /// Executes the degree-bucketed M2P tasks in lane groups, handing each
    /// task's `(target, Φ, ∇Φ)` to `add` (`∇Φ` only with `FIELD`). The
    /// group width is the *dispatched* SIMD lane width (8 on AVX-512,
    /// otherwise the baseline [`M2P_LANES`]); lanes are arithmetically
    /// independent and every lane runs the same op sequence regardless of
    /// width, so the choice never changes results.
    fn exec_m2p<const FIELD: bool>(
        &self,
        cs: &mut CompiledScratch,
        add: impl FnMut(usize, f64, Vec3),
    ) {
        match simd::m2p_lanes() {
            8 => self.exec_m2p_lanes::<8, FIELD>(cs, add),
            _ => self.exec_m2p_lanes::<M2P_LANES, FIELD>(cs, add),
        }
    }

    /// Walks the sorted tasks once. Each group is the next consecutive
    /// slice of its degree bucket, so every target still receives its
    /// contributions in (degree, node, traversal) order. A same-node run
    /// (found once, with its expansion looked up once) goes out in
    /// broadcast groups of up to `L` tasks, a short last group padded by
    /// repeating its last task; a run of at most `L / 2` is instead
    /// gathered together with the tasks after it, up to `L` per group,
    /// unless it ends the bucket. Padded lanes are computed and
    /// discarded; a broadcast lane is bit-identical to a gathered one.
    fn exec_m2p_lanes<const L: usize, const FIELD: bool>(
        &self,
        cs: &mut CompiledScratch,
        mut add: impl FnMut(usize, f64, Vec3),
    ) {
        let CompiledScratch {
            sorted,
            targets,
            bws,
            ..
        } = cs;
        let tasks = &sorted[..];
        let point = |t: &M2pTask| targets[t.target as usize];
        let (mut bucket_end, mut run_end) = (0, 0);
        let (mut center, mut coeffs): (Vec3, &[Complex]) = (Vec3::ZERO, &[]);
        let mut g = 0;
        while g < tasks.len() {
            let first = tasks[g];
            if g == bucket_end {
                bucket_end = g + tasks[g..].partition_point(|t| t.degree == first.degree);
                bws.prepare_degree_lanes(first.degree as usize, L);
            }
            if g >= run_end {
                run_end = g + tasks[g..bucket_end].partition_point(|t| t.node == first.node);
                center = self.tree.node(first.node).center;
                coeffs = self.arena.span(first.node as usize);
            }
            let run = run_end - g;
            let broadcast = 2 * run > L || run_end == bucket_end;
            let take = L.min(if broadcast { run } else { bucket_end - g });
            let group = &tasks[g..g + take];
            let pick = |l: usize| group[l.min(take - 1)];
            let (phi, grad) = if broadcast {
                let points = std::array::from_fn(|l| point(&pick(l)));
                if FIELD {
                    m2p_field_group_uniform::<L>(center, coeffs, &points, bws)
                } else {
                    let phi = m2p_potential_group_uniform::<L>(center, coeffs, &points, bws);
                    (phi, [Vec3::ZERO; L])
                }
            } else {
                let group = M2pGroup {
                    centers: std::array::from_fn(|l| self.tree.node(pick(l).node).center),
                    points: std::array::from_fn(|l| point(&pick(l))),
                    coeffs: std::array::from_fn(|l| self.arena.span(pick(l).node as usize)),
                };
                if FIELD {
                    m2p_field_group(&group, bws)
                } else {
                    (m2p_potential_group(&group, bws), [Vec3::ZERO; L])
                }
            };
            for (l, t) in group.iter().enumerate() {
                add(t.target as usize, phi[l], grad[l]);
            }
            g += take;
        }
    }

    /// Runs every span of the chunk over the tree's SoA sources, handing
    /// `(target, Φ, ∇Φ)` to `add`; guarded spans count their surviving
    /// pairs into `stats`.
    fn exec_p2p<const GUARD: bool, const FIELD: bool>(
        &self,
        cs: &CompiledScratch,
        stats: &mut EvalStats,
        mut add: impl FnMut(usize, f64, Vec3),
    ) {
        let SoaSpan { x, y, z, q } = self.tree.particles();
        let eps2 = self.params.softening * self.params.softening;
        for sp in &cs.spans {
            let (s, e) = (sp.start as usize, sp.end as usize);
            let t = cs.targets[sp.target as usize];
            let (phi, grad, pairs) =
                p2p_span::<f64, GUARD, FIELD>(&x[s..e], &y[s..e], &z[s..e], &q[s..e], t, eps2);
            add(sp.target as usize, phi, grad);
            if GUARD {
                stats.record_direct(pairs);
            }
        }
    }
}
