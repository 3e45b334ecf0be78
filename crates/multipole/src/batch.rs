//! Batched SoA evaluation kernels: expansion lane groups (M2P and L2P)
//! and P2P source spans.
//!
//! The scalar kernels in [`expansion`](crate::expansion) evaluate one
//! (target, expansion) interaction at a time, interleaved with tree
//! traversal. This module provides the dense "execute" half of a two-phase
//! evaluator: a list compiler (the treecode's `compile`, the compiled FMM's
//! per-cell routine) turns traversals into flat work, and two kernel bodies
//! burn through it, both written against the [`Lanes`] types of
//! [`crate::simd`] (elementwise ops in the exact shape LLVM lowers to
//! full-width vector registers) and run through [`crate::simd::dispatch`]
//! so they are compiled with the instruction set the CPU was probed for:
//!
//! * **One group body** evaluates a truncated series at `L` points per call
//!   — M2P ([`m2p_potential_group`] and friends, radial factor
//!   `r^-(n+1)`) and L2P ([`l2p_potential_group`], [`l2p_field_group`],
//!   radial factor `r^n`), potential or field. `L` is the **dispatched
//!   vector width** ([`crate::simd::m2p_lanes`]: 8×f64 on AVX-512, 4×f64
//!   otherwise; [`M2P_LANES`] is the baseline).
//! * **One span body** ([`p2p_span`]) sums the near field of one source
//!   span at one target, generic over precision (f64 / f32), guard and
//!   output (potential / field), at a *fixed* logical width
//!   ([`P2P_LANES`] / [`P2P_LANES_F32`]) so its summation order never
//!   depends on the dispatched level. [`p2p_potential_span`] and
//!   [`p2p_potential_span_f32`] remain as one-line instances of it.
//! * **Two dense operator kernels** serve the compiled FMM's real
//!   translation matrices: [`m2l_apply`] applies one operator to one
//!   input (L2L), and [`m2l_apply_group`] applies one operator to up to
//!   [`M2L_GROUP`] lane-major inputs with `mul_add` (M2L, pairs grouped
//!   by operator).
//!
//! # Determinism contract
//!
//! Per lane, the group body runs the **same Legendre recurrences and
//! multiply/accumulate association** as the scalar kernels
//! ([`ExpansionRef::potential_at_degree_with`](crate::ExpansionRef::potential_at_degree_with),
//! [`l2p_potential_with`](crate::l2p_potential_with) etc.), but converts
//! the observation offset to spherical form *algebraically* — `cos θ =
//! dz/r`, `sin θ = r_xy/r`, `e^{iφ} = (dx + i·dy)/r_xy` — instead of
//! round-tripping through `acos`/`atan2`/`sin_cos`. The quantities are
//! mathematically identical and agree to ULP precision (the kernel tests
//! pin ≤ 1e-13 relative per lane), but the serial libm calls that dominate
//! small-degree setup are replaced by straight-line `sqrt`/`div` the
//! vectorizer packs across lanes. Lanes are arithmetically independent
//! and the lane-`l` operation sequence does not depend on `L`, so the same
//! task produces bit-identical output in a 4-wide and an 8-wide group —
//! dispatching a wider width on wider hardware cannot change results
//! (pinned by `lane_width_does_not_change_values` and
//! `l2p_lane_width_and_padding_are_inert`). Together with the compiled
//! mode's documented reassociation (per-interaction partials are summed in
//! degree-bucket order), the compiled/scalar divergence stays well below
//! 1e-12 relative for the workloads the treecode serves.
//!
//! The span body replaces two correctly rounded operations per pair in one
//! case: an f64 *potential* span computes `q/r` as `q · (1/√r²)` from an
//! f32-seeded reciprocal square root refined by two Newton steps
//! (`Lanes::rsqrt_seeded`, within 4e-16 relative), for every vector
//! whose `r²` lanes are all inside the seed's range; any other vector,
//! the scalar tail, field spans and f32 spans divide by an IEEE square
//! root. The near field thus stays an exact sum up to a few ULPs per pair,
//! identically at every dispatch level. f32 spans evaluate the near field
//! in single precision over f32 source arrays and widen only the final
//! reduction. No serving path calls them: every treecode sweep runs its
//! near field in f64. They stay only for the benchmark's
//! `multipole.p2p_f32_pairs_per_s` probe ([`p2p_potential_span_f32`]).
//!
//! # Layout
//!
//! Lane-major triangular tables: entry `(n, m)` of lane `l` lives at
//! `tri_index(n, m) * L + l`, so each recurrence step is one wide-register
//! op per table row (see DESIGN.md §10/§12 for the inspection notes).

use mbt_geometry::Vec3;

use crate::complex::Complex;
use crate::simd::{self, F64Lanes, Lanes, Real};
use crate::tables::{tri_index, tri_len, Tables};

/// Baseline (scalar-fallback) targets per M2P group and the default lane
/// count of [`M2pGroup`]. The dispatched width — what the list executor
/// actually assembles groups with — is [`crate::simd::m2p_lanes`], which
/// widens to 8 on AVX-512.
pub const M2P_LANES: usize = 4;

/// Logical accumulator lanes of the f64 P2P span kernels — fixed at the
/// widest register width (AVX-512, 8×f64) for **every** SIMD level.
/// Narrower levels execute the identical 8-lane arithmetic in split
/// registers (two ymm on AVX2), so the summation order — and therefore
/// every bit of the result — is independent of the dispatched level;
/// [`crate::simd::p2p_lanes_f64`] reports only the hardware register
/// width the level lowers to. Independent per-lane partial sums are what
/// permit packed adds in the first place: LLVM will not reassociate a
/// single serial `f64` reduction on its own.
pub const P2P_LANES: usize = 8;

/// Logical accumulator lanes of the f32 P2P span kernels (one AVX-512
/// register of f32, two ymm on AVX2) — level-invariant exactly like
/// [`P2P_LANES`].
pub const P2P_LANES_F32: usize = 16;

/// One group of up to `L` same-degree M2P tasks: per lane an expansion
/// (center + triangular `m ≥ 0` coefficient span) and an observation
/// point. Callers pad short groups by repeating a valid lane and ignore
/// the padded outputs — lanes are arithmetically independent, so a padded
/// tail lane cannot perturb the live lanes (pinned by
/// `padded_tail_lanes_never_contribute`).
#[derive(Debug, Clone, Copy)]
pub struct M2pGroup<'a, const L: usize = M2P_LANES> {
    /// Expansion centers, one per lane.
    pub centers: [Vec3; L],
    /// Observation points, one per lane.
    pub points: [Vec3; L],
    /// Coefficient spans; each must hold at least `tri_len(degree)`
    /// entries for the degree the workspace is prepared to.
    pub coeffs: [&'a [Complex]; L],
}

/// Reusable lane-major scratch for the batched M2P kernels: the shared
/// normalization table for the current degree bucket plus per-lane
/// Legendre and accumulator arrays. One `BatchWorkspace` lives per
/// evaluation chunk; [`BatchWorkspace::prepare_degree`] is called once per
/// degree bucket, which is what amortizes table setup across every task
/// in the bucket.
#[derive(Debug)]
pub struct BatchWorkspace {
    degree: usize,
    /// Lane stride the buffers are sized for (≥ any kernel's `L`).
    lanes: usize,
    /// `norm(n, m)` for the prepared degree, indexed by `tri_index` —
    /// shared across lanes (it depends only on `(n, m)`).
    norm: Vec<f64>,
    /// Lane-major `P_n^m(cos θ)`.
    leg_p: Vec<f64>,
    /// Lane-major `P_n^m / sin θ` (`m ≥ 1`; `m = 0` entries unused).
    leg_q: Vec<f64>,
    /// Lane-major `dP_n^m/dθ`.
    leg_d: Vec<f64>,
    /// Lane-major per-degree partial sums (potential).
    acc_pot: Vec<f64>,
    /// Lane-major per-degree partial sums (θ-derivative).
    acc_dth: Vec<f64>,
    /// Lane-major per-degree partial sums (φ-derivative).
    acc_dph: Vec<f64>,
}

impl Default for BatchWorkspace {
    fn default() -> Self {
        BatchWorkspace::new()
    }
}

impl BatchWorkspace {
    /// An empty workspace; call [`BatchWorkspace::prepare_degree`] before
    /// running a group kernel.
    #[must_use]
    pub fn new() -> BatchWorkspace {
        BatchWorkspace {
            degree: 0,
            lanes: 0,
            norm: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_p: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_q: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            leg_d: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_pot: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_dth: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
            acc_dph: Vec::new(), // lint: allow(alloc, workspace construction, once per chunk)
        }
    }

    /// Sizes the lane buffers for `degree` at the **dispatched** lane
    /// width ([`crate::simd::m2p_lanes`]) and fills the normalization
    /// table — once per degree bucket, not per task.
    pub fn prepare_degree(&mut self, degree: usize) {
        self.prepare_degree_lanes(degree, simd::m2p_lanes());
    }

    /// Sizes the lane buffers for `degree` at an explicit lane stride
    /// (the `L` the caller will run kernels with). Buffers grow
    /// monotonically, so a workspace cycled through ascending buckets
    /// allocates only on the first visit to each high-water mark.
    pub fn prepare_degree_lanes(&mut self, degree: usize, lanes: usize) {
        let len = tri_len(degree);
        if self.leg_p.len() < len * lanes {
            self.leg_p.resize(len * lanes, 0.0);
            self.leg_q.resize(len * lanes, 0.0);
            self.leg_d.resize(len * lanes, 0.0);
        }
        if self.norm.len() < len {
            self.norm.resize(len, 0.0);
        }
        if self.acc_pot.len() < (degree + 1) * lanes {
            self.acc_pot.resize((degree + 1) * lanes, 0.0);
            self.acc_dth.resize((degree + 1) * lanes, 0.0);
            self.acc_dph.resize((degree + 1) * lanes, 0.0);
        }
        let t = Tables::get();
        for n in 0..=degree {
            for m in 0..=n {
                self.norm[tri_index(n, m)] = t.norm(n, m as i64);
            }
        }
        self.degree = degree;
        self.lanes = self.lanes.max(lanes);
    }
}

/// Lane-major `P_n^m` via the same recurrences as
/// [`Legendre::recompute`](crate::Legendre) — identical operation order
/// per lane, so each lane's values match the scalar table bit for bit.
#[inline(always)]
fn legendre_p_lanes<const L: usize>(degree: usize, x: F64Lanes<L>, s: F64Lanes<L>, p: &mut [f64]) {
    F64Lanes::<L>::splat(1.0).store(&mut p[tri_index(0, 0) * L..]);
    let mut pmm = F64Lanes::<L>::splat(1.0);
    for m in 1..=degree {
        let df = F64Lanes::splat((2 * m - 1) as f64);
        pmm = pmm * (df * s);
        pmm.store(&mut p[tri_index(m, m) * L..]);
    }
    for m in 0..degree {
        let c = F64Lanes::splat((2 * m + 1) as f64);
        let dst = tri_index(m + 1, m) * L;
        let src = tri_index(m, m) * L;
        let f = x * c;
        (f * F64Lanes::load(&p[src..])).store(&mut p[dst..]);
    }
    for n in 2..=degree {
        let a_c = F64Lanes::splat((2 * n - 1) as f64);
        for m in 0..=(n - 2) {
            let b = F64Lanes::splat((n + m - 1) as f64);
            let c = F64Lanes::splat((n - m) as f64);
            let i0 = tri_index(n, m) * L;
            let i1 = tri_index(n - 1, m) * L;
            let i2 = tri_index(n - 2, m) * L;
            let a = x * a_c;
            let v = (a * F64Lanes::load(&p[i1..]) - b * F64Lanes::load(&p[i2..])) / c;
            v.store(&mut p[i0..]);
        }
    }
}

/// Lane-major evaluation of all three Legendre families (`P`, `P/sin θ`,
/// `dP/dθ`), mirroring the scalar recurrences operation for operation.
#[inline(always)]
fn legendre_pqd_lanes<const L: usize>(
    degree: usize,
    x: F64Lanes<L>,
    s: F64Lanes<L>,
    p: &mut [f64],
    q: &mut [f64],
    d: &mut [f64],
) {
    legendre_p_lanes(degree, x, s, p);
    // diagonal seeds for S_m^m = (2m-1)!! sinθ^{m-1}
    let mut smm = F64Lanes::<L>::splat(1.0);
    for m in 1..=degree {
        let df = F64Lanes::splat((2 * m - 1) as f64);
        smm = if m == 1 { df } else { smm * df * s };
        smm.store(&mut q[tri_index(m, m) * L..]);
    }
    for m in 1..degree {
        let c = F64Lanes::splat((2 * m + 1) as f64);
        let dst = tri_index(m + 1, m) * L;
        let src = tri_index(m, m) * L;
        let f = x * c;
        (f * F64Lanes::load(&q[src..])).store(&mut q[dst..]);
    }
    for n in 2..=degree {
        let a_c = F64Lanes::splat((2 * n - 1) as f64);
        for m in 1..=(n - 2) {
            let b = F64Lanes::splat((n + m - 1) as f64);
            let c = F64Lanes::splat((n - m) as f64);
            let i0 = tri_index(n, m) * L;
            let i1 = tri_index(n - 1, m) * L;
            let i2 = tri_index(n - 2, m) * L;
            let a = x * a_c;
            let v = (a * F64Lanes::load(&q[i1..]) - b * F64Lanes::load(&q[i2..])) / c;
            v.store(&mut q[i0..]);
        }
    }
    // θ-derivatives
    for n in 0..=degree {
        let row0 = tri_index(n, 0) * L;
        if n >= 1 {
            let p1 = tri_index(n, 1) * L;
            (-F64Lanes::<L>::load(&p[p1..])).store(&mut d[row0..]);
        } else {
            F64Lanes::<L>::splat(0.0).store(&mut d[row0..]);
        }
        for m in 1..=n {
            let i0 = tri_index(n, m) * L;
            let pv = if n >= 1 && m < n {
                F64Lanes::<L>::load(&q[tri_index(n - 1, m) * L..])
            } else {
                F64Lanes::splat(0.0)
            };
            let nv = F64Lanes::splat(n as f64);
            let nm = F64Lanes::splat((n + m) as f64);
            (nv * x * F64Lanes::load(&q[i0..]) - nm * pv).store(&mut d[i0..]);
        }
    }
}

/// Per-lane spherical form of the observation offsets `point − center`.
struct Offsets<const L: usize> {
    r: F64Lanes<L>,
    inv_r: F64Lanes<L>,
    cos_t: F64Lanes<L>,
    sin_t: F64Lanes<L>,
    /// `e^{iφ}`, which doubles as the in-plane unit vector `(cos φ, sin φ)`.
    cos_p: F64Lanes<L>,
    sin_p: F64Lanes<L>,
}

/// Algebraic spherical setup shared by the group kernels, with no
/// `acos`/`atan2`. Conventions match `Spherical::from_cartesian`:
/// `r_xy = 0` (z-axis) pins `e^{iφ} = 1`, and the expansion center itself
/// (`r = 0`, reachable only by a local series) takes `θ = 0`.
#[inline(always)]
fn spherical_setup<const L: usize>(centers: &[Vec3; L], points: &[Vec3; L]) -> Offsets<L> {
    let dx = F64Lanes::<L>::from_fn(|l| points[l].x - centers[l].x);
    let dy = F64Lanes::<L>::from_fn(|l| points[l].y - centers[l].y);
    let dz = F64Lanes::<L>::from_fn(|l| points[l].z - centers[l].z);
    let rxy2 = dx * dx + dy * dy;
    let r = (rxy2 + dz * dz).sqrt();
    let rxy = rxy2.sqrt();
    // lint: allow(float_cmp, exact expansion center: θ convention pinned to 0)
    let center = |l: usize| r.0[l] == 0.0;
    // lint: allow(float_cmp, exact z-axis: φ convention pinned to 0)
    let axis = |l: usize| rxy.0[l] == 0.0;
    Offsets {
        r,
        inv_r: F64Lanes::splat(1.0) / r,
        cos_t: F64Lanes::from_fn(|l| if center(l) { 1.0 } else { dz.0[l] / r.0[l] }),
        sin_t: F64Lanes::from_fn(|l| if center(l) { 0.0 } else { rxy.0[l] / r.0[l] }),
        cos_p: F64Lanes::from_fn(|l| if axis(l) { 1.0 } else { dx.0[l] / rxy.0[l] }),
        sin_p: F64Lanes::from_fn(|l| if axis(l) { 0.0 } else { dy.0[l] / rxy.0[l] }),
    }
}

/// Evaluates one group of same-degree M2P tasks (the degree the workspace
/// was last [`prepare_degree`](BatchWorkspace::prepare_degree)'d for).
/// Lane `l` of the result matches
/// [`ExpansionRef::potential_at_degree_with`](crate::ExpansionRef::potential_at_degree_with)
/// for that lane's (expansion, point, degree) to ULP precision, and does
/// not depend on `L` (see the module-level determinism contract). The
/// workspace must have been prepared with a lane stride ≥ `L`.
#[must_use]
pub fn m2p_potential_group<const L: usize>(
    g: &M2pGroup<'_, L>,
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    simd::dispatch(|| group_core::<L, false, false>(&g.centers, &g.points, &gather(g), ws).0)
}

/// [`m2p_potential_group`] for `L` tasks that share one expansion: the
/// per-term coefficient becomes a single broadcast instead of an
/// `L`-pointer gather, which roughly halves the inner-loop cost. The
/// list executor uses this for the same-node task runs the chunk
/// compiler's accept-all classification emits. A broadcast lane holds
/// the same value the gather would have produced, so lane `l` is
/// bit-identical to the general kernel's (pinned by
/// `uniform_group_matches_gather_group`).
#[must_use]
pub fn m2p_potential_group_uniform<const L: usize>(
    center: Vec3,
    coeffs: &[Complex],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    let coeff = |ti: usize| splat_complex(coeffs[ti].re, coeffs[ti].im);
    simd::dispatch(|| group_core::<L, false, false>(&[center; L], points, &coeff, ws).0)
}

/// Potential-and-gradient analogue of [`m2p_potential_group`]; lane `l`
/// matches
/// [`ExpansionRef::field_at_degree_with`](crate::ExpansionRef::field_at_degree_with)
/// to ULP precision and does not depend on `L` (see the module-level
/// determinism contract).
#[must_use]
pub fn m2p_field_group<const L: usize>(
    g: &M2pGroup<'_, L>,
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    simd::dispatch(|| group_core::<L, false, true>(&g.centers, &g.points, &gather(g), ws))
}

/// Shared-expansion variant of [`m2p_field_group`]; see
/// [`m2p_potential_group_uniform`] for the broadcast-vs-gather contract.
#[must_use]
pub fn m2p_field_group_uniform<const L: usize>(
    center: Vec3,
    coeffs: &[Complex],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    let coeff = |ti: usize| splat_complex(coeffs[ti].re, coeffs[ti].im);
    simd::dispatch(|| group_core::<L, false, true>(&[center; L], points, &coeff, ws))
}

/// L2P for `L` targets around one local expansion (the degree the
/// workspace was last prepared for). The coefficients are an interleaved
/// `(re, im)` span in `tri_index` order — `2·tri_len(degree)` reals, the
/// compiled FMM's local-arena layout — broadcast to every lane, so the
/// arena is read in place. Runs the M2P group body with the inner radial
/// factor `r^n`; lane `l` matches
/// [`l2p_potential_with`](crate::l2p_potential_with) to ULP precision,
/// including a target exactly at the center (the `n = 0` term). Pad short
/// groups by repeating a live point.
#[must_use]
pub fn l2p_potential_group<const L: usize>(
    center: Vec3,
    coeffs: &[f64],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> [f64; L] {
    let coeff = |ti: usize| splat_complex(coeffs[2 * ti], coeffs[2 * ti + 1]);
    simd::dispatch(|| group_core::<L, true, false>(&[center; L], points, &coeff, ws).0)
}

/// Potential-and-gradient analogue of [`l2p_potential_group`]; lane `l`
/// matches [`l2p_field_with`](crate::l2p_field_with) to ULP precision.
#[must_use]
pub fn l2p_field_group<const L: usize>(
    center: Vec3,
    coeffs: &[f64],
    points: &[Vec3; L],
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    let coeff = |ti: usize| splat_complex(coeffs[2 * ti], coeffs[2 * ti + 1]);
    simd::dispatch(|| group_core::<L, true, true>(&[center; L], points, &coeff, ws))
}

/// Per-term coefficient of a gather group: lane `l` reads its own span.
#[inline(always)]
fn gather<'g, const L: usize>(
    g: &'g M2pGroup<'_, L>,
) -> impl Fn(usize) -> (F64Lanes<L>, F64Lanes<L>) + 'g {
    move |ti| {
        (
            F64Lanes::from_fn(|l| g.coeffs[l][ti].re),
            F64Lanes::from_fn(|l| g.coeffs[l][ti].im),
        )
    }
}

/// One coefficient broadcast to every lane.
#[inline(always)]
fn splat_complex<const L: usize>(re: f64, im: f64) -> (F64Lanes<L>, F64Lanes<L>) {
    (F64Lanes::splat(re), F64Lanes::splat(im))
}

/// The one group body behind M2P and L2P, potential and field:
/// `Σ_{n,m} w_m Re(c_n^m e^{imφ}) N_n^m P_n^m(cos θ) · R_n(r)` per lane,
/// with the radial factor `R_n` the outer `r^-(n+1)` (`LOCAL = false`,
/// multipole series) or the inner `r^n` (`LOCAL = true`, local series).
/// Terms accumulate into per-degree lane rows and are weighted by `R_n`
/// last, so both series share every recurrence. With `FIELD` the gradient
/// follows in spherical components from the same rows (`dP/dθ`,
/// `P/sin θ`) and is rotated to Cartesian per lane; otherwise the
/// returned gradients are zero.
#[inline(always)]
fn group_core<const L: usize, const LOCAL: bool, const FIELD: bool>(
    centers: &[Vec3; L],
    points: &[Vec3; L],
    coeff: &impl Fn(usize) -> (F64Lanes<L>, F64Lanes<L>),
    ws: &mut BatchWorkspace,
) -> ([f64; L], [Vec3; L]) {
    let degree = ws.degree;
    debug_assert!(ws.lanes >= L, "workspace prepared narrower than kernel");
    let o = spherical_setup(centers, points);
    for l in 0..L {
        debug_assert!(LOCAL || o.r.0[l] > 0.0, "M2P at the expansion center");
    }
    let rows = (degree + 1) * L;
    let BatchWorkspace {
        norm,
        leg_p,
        leg_q,
        leg_d,
        acc_pot,
        acc_dth,
        acc_dph,
        ..
    } = ws;
    if FIELD {
        legendre_pqd_lanes(degree, o.cos_t, o.sin_t, leg_p, leg_q, leg_d);
    } else {
        legendre_p_lanes(degree, o.cos_t, o.sin_t, leg_p);
    }
    let pot = &mut acc_pot[..rows];
    let dth = &mut acc_dth[..rows];
    let dph = &mut acc_dph[..rows];
    pot.fill(0.0);
    if FIELD {
        dth.fill(0.0);
        dph.fill(0.0);
    }
    let mut eim_re = F64Lanes::<L>::splat(1.0);
    let mut eim_im = F64Lanes::<L>::splat(0.0);
    for m in 0..=degree {
        let w = if m == 0 { 1.0 } else { 2.0 };
        for n in m..=degree {
            let ti = tri_index(n, m);
            let nr = F64Lanes::splat(norm[ti]);
            let row = n * L;
            let lrow = ti * L;
            let (c_re, c_im) = coeff(ti);
            let rot_re = c_re * eim_re - c_im * eim_im;
            let wnr = F64Lanes::splat(w) * rot_re * nr;
            (F64Lanes::load(&pot[row..]) + wnr * F64Lanes::load(&leg_p[lrow..]))
                .store(&mut pot[row..]);
            if FIELD {
                (F64Lanes::load(&dth[row..]) + wnr * F64Lanes::load(&leg_d[lrow..]))
                    .store(&mut dth[row..]);
                if m >= 1 {
                    let rot_im = c_re * eim_im + c_im * eim_re;
                    let t = F64Lanes::splat(-2.0 * m as f64) * rot_im * nr;
                    (F64Lanes::load(&dph[row..]) + t * F64Lanes::load(&leg_q[lrow..]))
                        .store(&mut dph[row..]);
                }
            }
        }
        let re = eim_re * o.cos_p - eim_im * o.sin_p;
        let im = eim_re * o.sin_p + eim_im * o.cos_p;
        eim_re = re;
        eim_im = im;
    }
    // Radial weights of degree n: `a` scales Φ's row, `b` the gradient's.
    // Outer: a = r^-(n+1), b = r^-(n+2), ∂/∂r factor −(n+1). Inner:
    // a = r^n, b = r^(n−1) (0 at n = 0, whose gradient row is zero — so a
    // target at the center never forms 1/r), ∂/∂r factor n.
    let step = if LOCAL { o.r } else { o.inv_r };
    let mut a = if LOCAL { F64Lanes::splat(1.0) } else { o.inv_r };
    let mut a_prev = F64Lanes::<L>::splat(0.0);
    let mut phi = F64Lanes::<L>::splat(0.0);
    let mut g_r = F64Lanes::<L>::splat(0.0);
    let mut g_t = F64Lanes::<L>::splat(0.0);
    let mut g_p = F64Lanes::<L>::splat(0.0);
    for n in 0..=degree {
        let a_next = a * step;
        let potv = F64Lanes::<L>::load(&pot[n * L..]);
        phi += potv * a;
        if FIELD {
            let b = if LOCAL { a_prev } else { a_next };
            let dr = if LOCAL { n as f64 } else { -((n + 1) as f64) };
            g_r += F64Lanes::splat(dr) * potv * b;
            g_t += F64Lanes::<L>::load(&dth[n * L..]) * b;
            g_p += F64Lanes::<L>::load(&dph[n * L..]) * b;
        }
        a_prev = a;
        a = a_next;
    }
    let mut grad_out = [Vec3::ZERO; L];
    if FIELD {
        let (st, ct, sp, cp) = (o.sin_t.0, o.cos_t.0, o.sin_p.0, o.cos_p.0);
        for (l, out) in grad_out.iter_mut().enumerate() {
            let e_r = Vec3::new(st[l] * cp[l], st[l] * sp[l], ct[l]);
            let e_t = Vec3::new(ct[l] * cp[l], ct[l] * sp[l], -st[l]);
            let e_p = Vec3::new(-sp[l], cp[l], 0.0);
            *out = e_r * g_r.0[l] + e_t * g_t.0[l] + e_p * g_p.0[l];
        }
    }
    (phi.0, grad_out)
}

/// Near-field potential over one SoA source span, **without** a
/// zero-distance guard: the caller must have excluded the self particle
/// (the list compiler splits spans around it). See [`p2p_span`].
#[must_use]
pub fn p2p_potential_span(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t: Vec3,
    eps2: f64,
) -> f64 {
    p2p_span::<f64, false, false>(xs, ys, zs, qs, t, eps2).0
}

/// f32 analogue of [`p2p_potential_span`] over f32 source arrays. No
/// serving path calls it — every treecode sweep runs its near field in
/// f64 — it stays for the benchmark's `multipole.p2p_f32_pairs_per_s`
/// probe, which times it.
#[must_use]
pub fn p2p_potential_span_f32(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t: Vec3,
    eps2: f64,
) -> f64 {
    p2p_span::<f32, false, false>(xs, ys, zs, qs, t, eps2).0
}

/// The near-field kernel: `Φ = Σ_j q_j / r_j` and, with `FIELD`,
/// `∇Φ = Σ_j −q_j d_j / r_j³` (`d_j = t − x_j`, `r_j² = |d_j|² + eps2`)
/// over one SoA source span, returned widened to f64 with the number of
/// counted pairs (`∇Φ` is zero without `FIELD`).
///
/// * **Precision** `T`: f64, or f32 over f32 source arrays — pair
///   arithmetic and lane accumulators in f32, only the final reduction
///   widened. The f32 guard tests the *f32* distance, so a source within
///   an f32 ULP of the target is skipped where f64 would keep it.
/// * **Guard** `GUARD`: pairs at exactly zero (softened) distance
///   contribute nothing and are not counted. It is a per-lane select
///   (the pair term becomes `0` where `r² > 0` fails, NaN included) plus
///   a per-lane count, so the main loop stays packed; `q/0` in a dropped
///   lane is computed and discarded. Unguarded spans count every pair
///   (the caller excluded the self particle by span splitting).
/// * **Output** `FIELD`: potential only, or potential and gradient. An
///   f64 potential takes `q · (1/√r²)` from `Lanes::rsqrt_seeded`
///   (≤ 4e-16 relative) for each main-body vector whose `r²` lanes are
///   all in `Lanes::in_rsqrt_seed_range` — a per-vector branch, so the
///   range check costs no per-lane work — and `q/√r²` otherwise, which
///   also covers the guard's `r² = 0` lanes. The tail, fields and f32
///   always divide by an IEEE square root.
///
/// Lanes: a fixed logical width at every dispatch level ([`P2P_LANES`]
/// for f64, [`P2P_LANES_F32`] for f32), so the summation order — and the
/// seeded-or-divide choice per vector — never depends on the hardware.
/// The `len % width` tail runs pair by pair in the scalar form of the
/// divide path, not as a padded vector: there are no pad lanes, so
/// nothing can slip past the guard's count, and a short span pays for its
/// few pairs only. An unguarded span adds tail pair `k` into lane `k`
/// before reducing the lanes sequentially; a guarded span reduces the
/// lanes first and then adds the tail pairs in order. Both are the orders
/// of the dedicated kernels this body replaced, so wherever the divide is
/// taken every value is bit-identical to theirs.
#[must_use]
pub fn p2p_span<T: Real, const GUARD: bool, const FIELD: bool>(
    xs: &[T],
    ys: &[T],
    zs: &[T],
    qs: &[T],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    if is_f64::<T>() {
        simd::dispatch(move || p2p_lanes::<T, P2P_LANES, GUARD, FIELD>(xs, ys, zs, qs, t, eps2))
    } else {
        simd::dispatch(move || p2p_lanes::<T, P2P_LANES_F32, GUARD, FIELD>(xs, ys, zs, qs, t, eps2))
    }
}

/// Whether the lane element is f64 (the only other [`Real`] is f32).
#[inline(always)]
fn is_f64<T: Real>() -> bool {
    std::mem::size_of::<T>() == std::mem::size_of::<f64>()
}

/// One lane group of pair terms — `q/r`, `−q/(r²·r)` (with `FIELD`) and
/// `d = t − x` — with the dropped lanes' terms zeroed, plus `r²`, whose
/// sign is the guard.
struct PairTerms<T, const L: usize> {
    pot: Lanes<T, L>,
    f: Lanes<T, L>,
    dx: Lanes<T, L>,
    dy: Lanes<T, L>,
    dz: Lanes<T, L>,
    r2: Lanes<T, L>,
}

impl<T: Real, const L: usize> PairTerms<T, L> {
    /// The terms of sources `[x, y, z, q]` at target `[tx, ty, tz]` with
    /// softening `ev = eps2`.
    #[inline(always)]
    fn new<const GUARD: bool, const FIELD: bool>(
        [tx, ty, tz, ev]: [Lanes<T, L>; 4],
        [x, y, z, q]: [Lanes<T, L>; 4],
    ) -> Self {
        // d = target − source, as in the scalar field loop (the potential
        // needs only r², which the sign cannot change)
        let dx = tx - x;
        let dy = ty - y;
        let dz = tz - z;
        let r2 = dx * dx + dy * dy + dz * dz + ev;
        let keep = |v: Lanes<T, L>| if GUARD { v.select_positive(r2) } else { v };
        let zero = Lanes::splat(T::ZERO);
        let (pot, f) = if !FIELD && is_f64::<T>() && r2.in_rsqrt_seed_range() {
            (q * r2.rsqrt_seeded(), zero)
        } else {
            let r = r2.sqrt();
            (q / r, if FIELD { -q / (r2 * r) } else { zero })
        };
        PairTerms {
            pot: keep(pot),
            f: if FIELD { keep(f) } else { zero },
            dx,
            dy,
            dz,
            r2,
        }
    }
}

/// One pair in the scalar form of [`PairTerms`]' divide path, for the
/// span tail: `(r², q/r, d·(−q/(r²·r)))` with `d = t − x` and
/// `t = [tx, ty, tz, eps2]`.
#[inline(always)]
fn scalar_pair<T: Real>([tx, ty, tz, ev]: [T; 4], x: T, y: T, z: T, q: T) -> (T, T, [T; 3]) {
    let (dx, dy, dz) = (tx - x, ty - y, tz - z);
    let r2 = dx * dx + dy * dy + dz * dz + ev;
    let r = r2.sqrt();
    let f = -q / (r2 * r);
    (r2, q / r, [dx * f, dy * f, dz * f])
}

#[inline(always)]
fn p2p_lanes<T: Real, const L: usize, const GUARD: bool, const FIELD: bool>(
    xs: &[T],
    ys: &[T],
    zs: &[T],
    qs: &[T],
    t: Vec3,
    eps2: f64,
) -> (f64, Vec3, u64) {
    debug_assert!(xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == qs.len());
    // equal lengths, visibly to the optimizer (no per-pair bounds checks)
    let (ys, zs, qs) = (&ys[..xs.len()], &zs[..xs.len()], &qs[..xs.len()]);
    // Hoisted into lane splats: `t` is passed indirectly (three f64s), and
    // field loads inside the loop defeat the vectorizer at opt-level 3.
    let splat = |v: f64| Lanes::<T, L>::splat(T::from_f64(v));
    let target = [splat(t.x), splat(t.y), splat(t.z), splat(eps2)];
    // Lane accumulator rows of Φ and ∇Φ, and the guard's per-lane count.
    let mut acc = [[T::ZERO; L]; 4];
    let mut cnt = [0u64; L];
    let main = xs.len() - xs.len() % L;
    if main > 0 {
        // For the field the rows live in memory behind `black_box` while
        // the main loop runs: the per-iteration load-add-store of each row
        // is what seeds LLVM's SLP vectorizer, which leaves the loop scalar
        // with four register accumulators. A span with no full vector
        // never touches them.
        let mut rows = acc;
        let rows = if FIELD {
            std::hint::black_box(&mut rows)
        } else {
            &mut rows
        };
        for (((xc, yc), zc), qc) in xs[..main]
            .chunks_exact(L)
            .zip(ys[..main].chunks_exact(L))
            .zip(zs[..main].chunks_exact(L))
            .zip(qs[..main].chunks_exact(L))
        {
            let src = [
                Lanes::load(xc),
                Lanes::load(yc),
                Lanes::load(zc),
                Lanes::load(qc),
            ];
            let p = PairTerms::new::<GUARD, FIELD>(target, src);
            let [phi, gx, gy, gz] = &mut *rows;
            (Lanes(*phi) + p.pot).store(phi);
            if FIELD {
                (Lanes(*gx) + p.dx * p.f).store(gx);
                (Lanes(*gy) + p.dy * p.f).store(gy);
                (Lanes(*gz) + p.dz * p.f).store(gz);
            }
            if GUARD {
                p.r2.count_positive(&mut cnt);
            }
        }
        acc = *rows;
    }
    // Tail: the `len % L` remaining pairs one at a time (a padded vector
    // would cost more than the few pairs of a short span). Unguarded, tail
    // pair `k` accumulates into lane `k`, as a padded vector would.
    // Otherwise the pairs follow the lane reduction in order; a span with
    // no full vector skips that reduction, since appending its pairs to
    // `+0.0` gives the same bits as folding them into zero lanes.
    let t1 = [
        T::from_f64(t.x),
        T::from_f64(t.y),
        T::from_f64(t.z),
        T::from_f64(eps2),
    ];
    let fold_tail = !GUARD && main > 0;
    if fold_tail {
        for (k, j) in (main..xs.len()).enumerate() {
            let (_, pot, g) = scalar_pair(t1, xs[j], ys[j], zs[j], qs[j]);
            acc[0][k] += pot;
            if FIELD {
                for (row, gc) in acc[1..].iter_mut().zip(g) {
                    row[k] += gc;
                }
            }
        }
    }
    let sum = |row: [T; L]| Lanes(row).sum_f64();
    let (mut phi, mut grad) = match (main > 0, FIELD) {
        (false, _) => (0.0, Vec3::ZERO),
        (true, false) => (sum(acc[0]), Vec3::ZERO),
        (true, true) => (
            sum(acc[0]),
            Vec3::new(sum(acc[1]), sum(acc[2]), sum(acc[3])),
        ),
    };
    let mut pairs = if GUARD {
        cnt.iter().sum()
    } else {
        xs.len() as u64
    };
    if !fold_tail {
        let widen = |v: T| -> f64 { v.into() };
        for j in main..xs.len() {
            let (r2, pot, [gx, gy, gz]) = scalar_pair(t1, xs[j], ys[j], zs[j], qs[j]);
            let kept = r2 > T::ZERO;
            if GUARD && !kept {
                continue;
            }
            phi += widen(pot);
            if FIELD {
                grad += Vec3::new(widen(gx), widen(gy), widen(gz));
            }
            if GUARD {
                pairs += 1;
            }
        }
    }
    (phi, grad, pairs)
}

/// Lane count for the dense M2L operator kernel at the scalar-fallback
/// dispatch level; the dispatched width follows [`crate::simd::dispatch`].
pub const M2L_LANES: usize = 4;

/// Accumulates one dense real M2L (or L2L) operator application:
/// `y[r] += Σ_c op[c·rows + r] · x[c]` with `op` column-major
/// (`rows = y.len()` rows × `x.len()` columns).
///
/// The compiled FMM stores each translation operator as a real matrix over
/// interleaved `(re, im)` coefficient spans; this kernel applies one of
/// them to one input (the FMM's L2L, one call per cell). M2L, where one
/// operator serves many pairs, runs through [`m2l_apply_group`] instead.
/// Columns whose input entry is exactly zero are skipped —
/// bit-exact, since their contribution would be `+0.0` everywhere — which
/// matters for sparse probe columns and zero high-order coefficients.
pub fn m2l_apply(op: &[f64], x: &[f64], y: &mut [f64]) {
    simd::dispatch(|| m2l_apply_impl::<M2L_LANES>(op, x, y));
}

#[inline(always)]
fn m2l_apply_impl<const L: usize>(op: &[f64], x: &[f64], y: &mut [f64]) {
    let rows = y.len();
    let cols = x.len();
    debug_assert_eq!(op.len(), rows * cols);
    let main = rows - rows % L;
    let mut c = 0;
    // Two columns per sweep over `y` halves the store traffic; summation
    // order per output row is by ascending column regardless of `L`.
    while c + 1 < cols {
        let (xa, xb) = (x[c], x[c + 1]);
        // lint: allow(float_cmp, exact-zero column skip: sparsity shortcut, never an equality test)
        if xa == 0.0 && xb == 0.0 {
            c += 2;
            continue;
        }
        let col_a = &op[c * rows..(c + 1) * rows];
        let col_b = &op[(c + 1) * rows..(c + 2) * rows];
        let va = F64Lanes::<L>::splat(xa);
        let vb = F64Lanes::<L>::splat(xb);
        for r in (0..main).step_by(L) {
            let acc = F64Lanes::<L>::load(&y[r..r + L])
                + F64Lanes::<L>::load(&col_a[r..r + L]) * va
                + F64Lanes::<L>::load(&col_b[r..r + L]) * vb;
            acc.store(&mut y[r..r + L]);
        }
        for r in main..rows {
            // Same association as the lane path — `(y + a·xa) + b·xb` — so
            // the result never depends on where the vector body ends.
            y[r] = y[r] + col_a[r] * xa + col_b[r] * xb;
        }
        c += 2;
    }
    if c < cols {
        let xa = x[c];
        // lint: allow(float_cmp, exact-zero column skip: sparsity shortcut, never an equality test)
        if xa != 0.0 {
            let col_a = &op[c * rows..(c + 1) * rows];
            let va = F64Lanes::<L>::splat(xa);
            for r in (0..main).step_by(L) {
                let acc =
                    F64Lanes::<L>::load(&y[r..r + L]) + F64Lanes::<L>::load(&col_a[r..r + L]) * va;
                acc.store(&mut y[r..r + L]);
            }
            for r in main..rows {
                y[r] += col_a[r] * xa;
            }
        }
    }
}

/// Widest group of [`m2l_apply_group`]: independent inputs per call.
pub const M2L_GROUP: usize = 8;

/// Output rows held in registers per pass of [`m2l_apply_group`]: eight
/// rows of eight lanes fill sixteen 256-bit accumulators, enough
/// independent `mul_add` chains to cover the FMA latency.
const M2L_GROUP_ROWS: usize = 8;

/// Applies one dense real operator to `lanes ≤ M2L_GROUP` independent
/// inputs at once: for every lane `l`, row `r` and column `c` in ascending
/// order,
///
/// `y[r·lanes + l] = op[c·rows + r].mul_add(x[c·lanes + l], y[r·lanes + l])`
///
/// with `op` column-major (`rows = y.len() / lanes`, `cols = x.len() /
/// lanes`) and `x`, `y` packed **lane-major** (entry `c` of lane `l` at
/// `c·lanes + l`).
///
/// This is the compiled FMM's M2L kernel. A level's pairs are grouped by
/// operator, so one call streams a `rows × cols` operator once for up to
/// eight pairs: each operator entry is broadcast against a packed column
/// of inputs, and a block of output rows of every lane stays in registers
/// across the whole column sweep. Lanes never mix, and [`f64::mul_add`]
/// is correctly rounded at every dispatch tier, so lane `l` is
/// bit-identical to the scalar `mul_add` loop above run on lane `l` alone
/// — whatever `lanes` is, whichever tier runs it, however the rows are
/// blocked. At `lanes = 1` the packed layout is the plain one.
///
/// # Panics
///
/// Panics when `lanes` is `0` or above [`M2L_GROUP`].
pub fn m2l_apply_group(op: &[f64], x: &[f64], y: &mut [f64], lanes: usize) {
    match lanes {
        1 => simd::dispatch(|| m2l_group_impl::<1>(op, x, y)),
        2 => simd::dispatch(|| m2l_group_impl::<2>(op, x, y)),
        3 => simd::dispatch(|| m2l_group_impl::<3>(op, x, y)),
        4 => simd::dispatch(|| m2l_group_impl::<4>(op, x, y)),
        5 => simd::dispatch(|| m2l_group_impl::<5>(op, x, y)),
        6 => simd::dispatch(|| m2l_group_impl::<6>(op, x, y)),
        7 => simd::dispatch(|| m2l_group_impl::<7>(op, x, y)),
        _ => {
            assert_eq!(lanes, M2L_GROUP, "m2l_apply_group: lanes out of range");
            simd::dispatch(|| m2l_group_impl::<M2L_GROUP>(op, x, y));
        }
    }
}

#[inline(always)]
fn m2l_group_impl<const G: usize>(op: &[f64], x: &[f64], y: &mut [f64]) {
    let rows = y.len() / G;
    debug_assert_eq!(y.len(), rows * G);
    debug_assert_eq!(x.len() % G, 0);
    debug_assert_eq!(op.len(), rows * (x.len() / G));
    if rows == 0 {
        return;
    }
    // full blocks, then one half block, then single rows
    let mut r0 = 0;
    while r0 + M2L_GROUP_ROWS <= rows {
        m2l_group_rows::<G, M2L_GROUP_ROWS>(op, x, y, rows, r0);
        r0 += M2L_GROUP_ROWS;
    }
    if r0 + M2L_GROUP_ROWS / 2 <= rows {
        m2l_group_rows::<G, { M2L_GROUP_ROWS / 2 }>(op, x, y, rows, r0);
        r0 += M2L_GROUP_ROWS / 2;
    }
    for r in r0..rows {
        m2l_group_rows::<G, 1>(op, x, y, rows, r);
    }
}

/// Rows `r0..r0 + R` of [`m2l_apply_group`], all `G` lanes, held in
/// registers over the whole column sweep.
#[inline(always)]
fn m2l_group_rows<const G: usize, const R: usize>(
    op: &[f64],
    x: &[f64],
    y: &mut [f64],
    rows: usize,
    r0: usize,
) {
    let out = &mut y[r0 * G..(r0 + R) * G];
    let mut acc: [F64Lanes<G>; R] = std::array::from_fn(|i| F64Lanes::<G>::load(&out[i * G..]));
    for (xc, col) in x.chunks_exact(G).zip(op.chunks_exact(rows)) {
        let xv = F64Lanes::<G>::load(xc);
        for (a, &e) in acc.iter_mut().zip(&col[r0..r0 + R]) {
            *a = F64Lanes::<G>::splat(e).mul_add(xv, *a);
        }
    }
    for (i, a) in acc.iter().enumerate() {
        a.store(&mut out[i * G..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::{
        l2p_field_with, l2p_potential_with, LocalExpansion, MultipoleExpansion,
    };
    use crate::workspace::Workspace;
    use mbt_geometry::Particle;
    use proptest::prelude::*;

    fn cluster(center: Vec3, radius: f64, n: usize, seed: u64) -> Vec<Particle> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let v = Vec3::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0, next() * 2.0 - 1.0);
                Particle::new(center + v * radius, next() * 2.0 - 1.0)
            })
            .collect()
    }

    /// Four distinct expansions, four distinct points, degrees 0..=12:
    /// every lane of the group kernels must reproduce the scalar kernels
    /// to ULP precision (the algebraic spherical setup differs from the
    /// scalar `acos`/`atan2` path only in final-digit rounding).
    #[test]
    fn group_kernels_match_scalar_per_lane() {
        let centers = [
            Vec3::new(0.2, -0.1, 0.3),
            Vec3::new(-0.4, 0.5, 0.0),
            Vec3::new(0.0, 0.0, -0.6),
            Vec3::new(0.7, 0.7, 0.7),
        ];
        let exps: Vec<MultipoleExpansion> = centers
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MultipoleExpansion::from_particles(c, 12, &cluster(c, 0.3, 30, i as u64 + 1))
            })
            .collect();
        let points = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
        ];
        let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
        let g = M2pGroup {
            centers,
            points,
            coeffs: [
                refs[0].coeffs,
                refs[1].coeffs,
                refs[2].coeffs,
                refs[3].coeffs,
            ],
        };
        let mut bws = BatchWorkspace::new();
        let mut ws = Workspace::new();
        for degree in [0usize, 1, 2, 5, 12] {
            bws.prepare_degree(degree);
            let pot = m2p_potential_group(&g, &mut bws);
            let (fphi, fgrad) = m2p_field_group(&g, &mut bws);
            for l in 0..M2P_LANES {
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-13 * b.abs().max(1e-300);
                let want = refs[l].potential_at_degree_with(points[l], degree, &mut ws);
                assert!(
                    close(pot[l], want),
                    "potential lane {l} degree {degree}: {} vs {want}",
                    pot[l]
                );
                let (wphi, wgrad) = refs[l].field_at_degree_with(points[l], degree, &mut ws);
                assert!(
                    close(fphi[l], wphi),
                    "field potential lane {l} degree {degree}: {} vs {wphi}",
                    fphi[l]
                );
                assert!(
                    fgrad[l].distance(wgrad) <= 1e-13 * wgrad.norm().max(1e-300),
                    "gradient lane {l} degree {degree}: {:?} vs {wgrad:?}",
                    fgrad[l]
                );
            }
        }
    }

    /// The same tasks evaluated in a 4-wide and an 8-wide group produce
    /// bit-identical outputs: lanes are independent and the per-lane
    /// operation sequence does not depend on `L`, so runtime width
    /// dispatch can never change results.
    #[test]
    fn lane_width_does_not_change_values() {
        let centers4 = [
            Vec3::new(0.2, -0.1, 0.3),
            Vec3::new(-0.4, 0.5, 0.0),
            Vec3::new(0.0, 0.0, -0.6),
            Vec3::new(0.7, 0.7, 0.7),
        ];
        let exps: Vec<MultipoleExpansion> = centers4
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MultipoleExpansion::from_particles(c, 9, &cluster(c, 0.3, 25, i as u64 + 41))
            })
            .collect();
        let points4 = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
        ];
        let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
        let g4 = M2pGroup::<4> {
            centers: centers4,
            points: points4,
            coeffs: std::array::from_fn(|l| refs[l].coeffs),
        };
        // 8-wide group holding the same four tasks twice over
        let g8 = M2pGroup::<8> {
            centers: std::array::from_fn(|l| centers4[l % 4]),
            points: std::array::from_fn(|l| points4[l % 4]),
            coeffs: std::array::from_fn(|l| refs[l % 4].coeffs),
        };
        let mut bws = BatchWorkspace::new();
        for degree in [0usize, 3, 9] {
            bws.prepare_degree_lanes(degree, 8);
            let pot4 = m2p_potential_group(&g4, &mut bws);
            let pot8 = m2p_potential_group(&g8, &mut bws);
            let (fphi4, fgrad4) = m2p_field_group(&g4, &mut bws);
            let (fphi8, fgrad8) = m2p_field_group(&g8, &mut bws);
            for l in 0..8 {
                assert_eq!(pot8[l], pot4[l % 4], "potential width mismatch lane {l}");
                assert_eq!(fphi8[l], fphi4[l % 4], "field phi width mismatch lane {l}");
                assert_eq!(fgrad8[l], fgrad4[l % 4], "gradient width mismatch lane {l}");
            }
        }
    }

    /// The broadcast (uniform-node) kernels are pure codegen relative to
    /// the general gather kernels: for a group whose lanes all reference
    /// one expansion, every lane of the uniform kernel must bit-equal the
    /// gather kernel — including padded groups where the tail lanes
    /// replicate the last real task.
    #[test]
    fn uniform_group_matches_gather_group() {
        let center = Vec3::new(0.15, -0.25, 0.4);
        let e = MultipoleExpansion::from_particles(center, 10, &cluster(center, 0.3, 40, 77));
        let r = e.as_ref();
        let distinct = [
            Vec3::new(2.0, 1.0, -1.0),
            Vec3::new(-1.5, 2.0, 0.5),
            Vec3::new(0.3, -0.2, 3.0),
            Vec3::new(-2.0, -2.0, 1.0),
            Vec3::new(1.1, -2.4, 0.9),
            Vec3::new(-0.8, 1.7, -2.2),
            Vec3::new(2.6, 0.4, 1.3),
            Vec3::new(-1.9, -0.6, 2.8),
        ];
        let mut bws = BatchWorkspace::new();
        for take in [1usize, 3, 8] {
            // Padded group: lanes past `take` repeat the last real point,
            // exactly as the executor pads a short same-node run.
            let points: [Vec3; 8] = std::array::from_fn(|l| distinct[l.min(take - 1)]);
            let g = M2pGroup::<8> {
                centers: [center; 8],
                points,
                coeffs: [r.coeffs; 8],
            };
            for degree in [0usize, 4, 10] {
                bws.prepare_degree_lanes(degree, 8);
                let pot_g = m2p_potential_group(&g, &mut bws);
                let pot_u = m2p_potential_group_uniform::<8>(center, r.coeffs, &points, &mut bws);
                let (fphi_g, fgrad_g) = m2p_field_group(&g, &mut bws);
                let (fphi_u, fgrad_u) =
                    m2p_field_group_uniform::<8>(center, r.coeffs, &points, &mut bws);
                for l in 0..8 {
                    assert_eq!(
                        pot_g[l].to_bits(),
                        pot_u[l].to_bits(),
                        "potential lane {l} take {take} degree {degree}"
                    );
                    assert_eq!(
                        fphi_g[l].to_bits(),
                        fphi_u[l].to_bits(),
                        "field phi lane {l} take {take} degree {degree}"
                    );
                    for (a, b) in [
                        (fgrad_g[l].x, fgrad_u[l].x),
                        (fgrad_g[l].y, fgrad_u[l].y),
                        (fgrad_g[l].z, fgrad_u[l].z),
                    ] {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "gradient lane {l} take {take} degree {degree}"
                        );
                    }
                }
            }
        }
    }

    /// Padded groups (one task replicated into every lane) are the
    /// remainder-handling pattern; each lane must still be exact.
    #[test]
    fn replicated_lanes_are_independent() {
        let c = Vec3::new(0.1, 0.2, 0.3);
        let e = MultipoleExpansion::from_particles(c, 6, &cluster(c, 0.2, 20, 9));
        let r = e.as_ref();
        let pt = Vec3::new(1.5, -2.0, 0.7);
        let g = M2pGroup {
            centers: [c; M2P_LANES],
            points: [pt; M2P_LANES],
            coeffs: [r.coeffs; M2P_LANES],
        };
        let mut bws = BatchWorkspace::new();
        bws.prepare_degree(6);
        let pot = m2p_potential_group(&g, &mut bws);
        let mut ws = Workspace::new();
        let want = r.potential_at_degree_with(pt, 6, &mut ws);
        for l in 0..M2P_LANES {
            // replicated lanes are identical to each other bit for bit,
            // and ULP-close to the scalar kernel
            assert_eq!(pot[l], pot[0], "replicated lane {l} diverged");
            assert!(
                (pot[l] - want).abs() <= 1e-13 * want.abs().max(1e-300),
                "replicated lane {l}: {} vs {want}",
                pot[l]
            );
        }
    }

    proptest! {
        /// The degree-bucket executor pads short groups by replicating a
        /// live lane; whatever occupies the tail lanes, the live lanes'
        /// outputs must be bit-identical to a fully-live group's.
        #[test]
        fn padded_tail_lanes_never_contribute(
            take in 1usize..8,
            degree in 0usize..7,
            pad_seed in 0u64..64,
        ) {
            let centers: [Vec3; 8] = std::array::from_fn(|l| {
                Vec3::new(0.1 * l as f64, -0.2 + 0.05 * l as f64, 0.3)
            });
            let exps: Vec<MultipoleExpansion> = centers
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    MultipoleExpansion::from_particles(c, 7, &cluster(c, 0.25, 16, i as u64 + 7))
                })
                .collect();
            let pad_e = MultipoleExpansion::from_particles(
                Vec3::new(-0.9, 0.4, 0.1),
                7,
                &cluster(Vec3::new(-0.9, 0.4, 0.1), 0.2, 12, 1000 + pad_seed),
            );
            let points: [Vec3; 8] = std::array::from_fn(|l| {
                Vec3::new(1.8 + 0.3 * l as f64, -1.0, 2.0 - 0.2 * l as f64)
            });
            let pad_pt = Vec3::new(-3.0, 2.0 + pad_seed as f64 * 0.1, 1.5);
            let refs: Vec<_> = exps.iter().map(MultipoleExpansion::as_ref).collect();
            let pad_r = pad_e.as_ref();
            // fully live group vs. the same group with lanes take..8
            // replaced by unrelated padding tasks
            let g_full = M2pGroup::<8> {
                centers,
                points,
                coeffs: std::array::from_fn(|l| refs[l].coeffs),
            };
            let g_padded = M2pGroup::<8> {
                centers: std::array::from_fn(|l| if l < take { centers[l] } else { pad_r.center }),
                points: std::array::from_fn(|l| if l < take { points[l] } else { pad_pt }),
                coeffs: std::array::from_fn(|l| if l < take { refs[l].coeffs } else { pad_r.coeffs }),
            };
            let mut bws = BatchWorkspace::new();
            bws.prepare_degree_lanes(degree, 8);
            let full = m2p_potential_group(&g_full, &mut bws);
            let padded = m2p_potential_group(&g_padded, &mut bws);
            let (ffull, gfull) = m2p_field_group(&g_full, &mut bws);
            let (fpad, gpad) = m2p_field_group(&g_padded, &mut bws);
            for l in 0..take {
                prop_assert_eq!(padded[l], full[l], "live lane {} perturbed by padding", l);
                prop_assert_eq!(fpad[l], ffull[l], "live field lane {} perturbed", l);
                prop_assert_eq!(gpad[l], gfull[l], "live gradient lane {} perturbed", l);
            }
        }
    }

    fn soa_of(ps: &[Particle]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            ps.iter().map(|p| p.position.x).collect(),
            ps.iter().map(|p| p.position.y).collect(),
            ps.iter().map(|p| p.position.z).collect(),
            ps.iter().map(|p| p.charge).collect(),
        )
    }

    fn soa32_of(ps: &[Particle]) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            ps.iter().map(|p| p.position.x as f32).collect(),
            ps.iter().map(|p| p.position.y as f32).collect(),
            ps.iter().map(|p| p.position.z as f32).collect(),
            ps.iter().map(|p| p.charge as f32).collect(),
        )
    }

    /// The f32 span kernels track the f64 reference within single-
    /// precision roundoff: a handful of ULPs per pair, far inside the
    /// `ε32·pairs` budget that gates the tier.
    #[test]
    fn p2p_f32_spans_track_f64_within_roundoff() {
        for n in [0usize, 1, 7, 16, 19, 33] {
            let ps = cluster(Vec3::ZERO, 1.0, n, 500 + n as u64);
            let (xs, ys, zs, qs) = soa_of(&ps);
            let (x3, y3, z3, q3) = soa32_of(&ps);
            let t = Vec3::new(0.4, -0.7, 0.25);
            for eps2 in [0.0, 1e-4] {
                let want = p2p_potential_span(&xs, &ys, &zs, &qs, t, eps2);
                let tol = 1e-5 * want.abs().max(1.0) * (n.max(1) as f64);
                let got = p2p_potential_span_f32(&x3, &y3, &z3, &q3, t, eps2);
                assert!(
                    (got - want).abs() <= tol,
                    "unguarded n={n} eps2={eps2}: {got} vs {want}"
                );
                let (gphi, _, gpairs) = p2p_span::<f32, true, false>(&x3, &y3, &z3, &q3, t, eps2);
                assert!((gphi - want).abs() <= tol);
                assert_eq!(gpairs, n as u64);
            }
            let (wphi, wgrad, _) = p2p_span::<f64, true, true>(&xs, &ys, &zs, &qs, t, 1e-6);
            let (fphi, fgrad, fpairs) = p2p_span::<f32, true, true>(&x3, &y3, &z3, &q3, t, 1e-6);
            assert_eq!(fpairs, n as u64);
            let tol = 1e-4 * (n.max(1) as f64);
            assert!((fphi - wphi).abs() <= tol * wphi.abs().max(1.0));
            assert!(fgrad.distance(wgrad) <= tol * wgrad.norm().max(1.0));
        }
    }

    /// Scalar model of [`p2p_span`] at logical width `L`. Arithmetic: an
    /// f64 potential takes the seeded `1/√r²` for every main-body vector
    /// whose `r²` lanes are all in the seed's range, `q/√r²` otherwise;
    /// the tail, fields and f32 always divide. Order: main-body pair `j` accumulates into lane `j % L`;
    /// unguarded spans fold the tail pairs into lanes `0..rem` before the
    /// sequential lane reduction, guarded spans reduce first and then
    /// append the surviving tail pairs in order.
    fn p2p_model<T: Real, const L: usize>(
        [xs, ys, zs, qs]: [&[T]; 4],
        t: Vec3,
        eps2: f64,
        guard: bool,
        field: bool,
    ) -> (f64, Vec3, u64) {
        let n = xs.len();
        let main = n - n % L;
        let (tx, ty, tz, ev) = (
            T::from_f64(t.x),
            T::from_f64(t.y),
            T::from_f64(t.z),
            T::from_f64(eps2),
        );
        let d = |j: usize| [tx - xs[j], ty - ys[j], tz - zs[j]];
        let r2 = |j: usize| {
            let d = d(j);
            d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + ev
        };
        let (lo, hi) = (
            f64::from(f32::MIN_POSITIVE) * 4.0,
            f64::from(f32::MAX) / 4.0,
        );
        let in_range = |j: usize| (lo..=hi).contains(&r2(j).into());
        let seeded = |j: usize| {
            let v0 = j - j % L;
            !field && is_f64::<T>() && j < main && (v0..v0 + L).all(in_range)
        };
        let mut lanes = [(T::ZERO, [T::ZERO; 3]); L];
        let mut tail = Vec::new();
        let mut pairs = 0;
        for j in 0..n {
            let (d, r2, q) = (d(j), r2(j), qs[j]);
            let kept = r2 > T::ZERO;
            if guard && !kept {
                continue;
            }
            pairs += 1;
            let r = r2.sqrt();
            let pot = if seeded(j) {
                let x: f64 = r2.into();
                let y0 = T::from_f64(f64::from(1.0f32 / (x as f32).sqrt()));
                let h = T::from_f64(0.5) * r2;
                let c = T::from_f64(1.5);
                let y1 = y0 * (c - h * y0 * y0);
                q * (y1 * (c - h * y1 * y1))
            } else {
                q / r
            };
            let f = -q / (r2 * r);
            let term = (pot, [d[0] * f, d[1] * f, d[2] * f]);
            if j < main || !guard {
                let lane = &mut lanes[j % L];
                lane.0 += term.0;
                for k in 0..3 {
                    lane.1[k] += term.1[k];
                }
            } else {
                tail.push(term);
            }
        }
        let (mut phi, mut g) = (0.0f64, [0.0f64; 3]);
        for (p, gl) in lanes.iter().chain(&tail) {
            phi += (*p).into();
            for k in 0..3 {
                g[k] += gl[k].into();
            }
        }
        (phi, Vec3::new(g[0], g[1], g[2]), pairs)
    }

    /// Span lengths `0..=3L+1` with a coincident source at every index
    /// `≡ c (mod L)` — one lane position in every main-body vector and in
    /// the tail — for every `c`: the guard drops exactly those pairs, and
    /// every kernel variant is bit-identical to the scalar model of its
    /// summation order, at both precisions.
    #[test]
    fn p2p_span_is_bit_identical_to_its_lane_model() {
        fn check<T: Real, const L: usize>(scale: f64) {
            let t = Vec3::new(0.3, -0.8, 0.2) * scale;
            let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            for n in 0..=3 * L + 1 {
                let ps = cluster(Vec3::ZERO, scale, n, 11 + n as u64);
                // c == L: no coincident source
                for c in 0..=L {
                    let hit = |j: usize| j % L == c;
                    let col = |at: &dyn Fn(&Particle) -> f64, on: f64| -> Vec<T> {
                        let v = |(j, p)| T::from_f64(if hit(j) { on } else { at(p) });
                        ps.iter().enumerate().map(v).collect()
                    };
                    let xs = col(&|p| p.position.x, t.x);
                    let ys = col(&|p| p.position.y, t.y);
                    let zs = col(&|p| p.position.z, t.z);
                    let qs: Vec<T> = ps.iter().map(|p| T::from_f64(p.charge)).collect();
                    let soa = [&xs[..], &ys, &zs, &qs];
                    let live = (0..n).filter(|&j| !hit(j)).count() as u64;
                    let want = p2p_model::<T, L>(soa, t, 0.0, true, false);
                    assert_eq!(want.2, live, "model count n={n} c={c}");
                    let pot = p2p_span::<T, true, false>(&xs, &ys, &zs, &qs, t, 0.0);
                    assert_eq!(pot.0.to_bits(), want.0.to_bits(), "guarded Φ n={n} c={c}");
                    // and the model is the textbook sum, to roundoff
                    let (mut plain, mut scale) = (0.0, 0.0);
                    for (j, p) in ps.iter().enumerate().filter(|&(j, _)| !hit(j)) {
                        let x = [xs[j], ys[j], zs[j]].map(|v| -> f64 { v.into() });
                        let term = p.charge / Vec3::new(x[0], x[1], x[2]).distance(t);
                        plain += term;
                        scale += term.abs();
                    }
                    let tol = if is_f64::<T>() { 1e-15 } else { 1e-6 } * scale;
                    assert!(
                        (pot.0 - plain).abs() <= tol,
                        "Φ n={n} c={c}: {} vs {plain}",
                        pot.0
                    );
                    assert_eq!(pot.2, live, "guarded count n={n} c={c}");
                    let field = p2p_span::<T, true, true>(&xs, &ys, &zs, &qs, t, 0.0);
                    let want = p2p_model::<T, L>(soa, t, 0.0, true, true);
                    assert_eq!(field.0.to_bits(), want.0.to_bits(), "field Φ n={n} c={c}");
                    assert_eq!(bits(field.1), bits(want.1), "field ∇Φ n={n} c={c}");
                    assert_eq!(field.2, live, "field count n={n} c={c}");
                    if c < L {
                        continue;
                    }
                    for eps2 in [0.0, 1e-4] {
                        let want = p2p_model::<T, L>(soa, t, eps2, false, false);
                        let pot = p2p_span::<T, false, false>(&xs, &ys, &zs, &qs, t, eps2);
                        assert_eq!(pot.0.to_bits(), want.0.to_bits(), "unguarded Φ n={n}");
                        assert_eq!(pot.2, n as u64);
                        let want = p2p_model::<T, L>(soa, t, eps2, false, true);
                        let field = p2p_span::<T, false, true>(&xs, &ys, &zs, &qs, t, eps2);
                        assert_eq!(bits(field.1), bits(want.1), "unguarded ∇Φ n={n}");
                    }
                }
            }
        }
        // 1e-25 and 1e22 put every r² outside the seeded reciprocal
        // square root's range, so f64 potentials take the divide there
        for scale in [1.0, 1e-25, 1e22] {
            check::<f64, P2P_LANES>(scale);
        }
        check::<f32, P2P_LANES_F32>(1.0);
    }

    /// A degree-`p` local expansion of a distant cluster about `center`:
    /// the scalar kernels' `Complex` span and the group kernels'
    /// interleaved `(re, im)` span.
    fn local_spans(center: Vec3, degree: usize) -> (Vec<Complex>, Vec<f64>) {
        let far = cluster(center + Vec3::new(3.0, -2.0, 2.5), 0.8, 30, 5);
        let e = LocalExpansion::from_distant_particles(center, degree, &far);
        let mut c = Vec::new();
        for n in 0..=degree {
            for m in 0..=n {
                c.push(e.coeff(n, m as i64));
            }
        }
        let interleaved = c.iter().flat_map(|z| [z.re, z.im]).collect();
        (c, interleaved)
    }

    /// Every lane of the L2P group kernels reproduces the scalar L2P
    /// kernels to ULP precision, including a target exactly at the
    /// expansion center (the `n = 0` term and its `θ = 0` gradient) and
    /// targets on the z-axis through it.
    #[test]
    fn l2p_groups_match_scalar_per_lane() {
        let center = Vec3::new(0.2, -0.1, 0.3);
        let points: [Vec3; 8] = [
            center,
            center + Vec3::new(0.0, 0.0, 0.4),
            center + Vec3::new(0.0, 0.0, -0.25),
            center + Vec3::new(0.3, -0.2, 0.1),
            center + Vec3::new(-0.4, 0.1, -0.3),
            center + Vec3::new(0.05, 0.45, 0.2),
            center + Vec3::new(-0.1, -0.1, 0.0),
            center + Vec3::new(0.5, 0.0, 0.0),
        ];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-13 * b.abs().max(1e-300);
        let mut bws = BatchWorkspace::new();
        let mut ws = Workspace::new();
        for degree in [0usize, 1, 4, 6, 14] {
            let (c, inter) = local_spans(center, degree);
            bws.prepare_degree_lanes(degree, 8);
            let pot = l2p_potential_group::<8>(center, &inter, &points, &mut bws);
            let (fphi, fgrad) = l2p_field_group::<8>(center, &inter, &points, &mut bws);
            for (l, &pt) in points.iter().enumerate() {
                let want = l2p_potential_with(center, degree, &c, pt, &mut ws);
                assert!(
                    close(pot[l], want),
                    "Φ lane {l} p={degree}: {} vs {want}",
                    pot[l]
                );
                let (wphi, wgrad) = l2p_field_with(center, degree, &c, pt, &mut ws);
                assert!(close(fphi[l], wphi), "field Φ lane {l} p={degree}");
                assert!(
                    fgrad[l].distance(wgrad) <= 1e-13 * wgrad.norm().max(1e-300),
                    "∇Φ lane {l} p={degree}: {:?} vs {wgrad:?}",
                    fgrad[l]
                );
            }
        }
    }

    /// L2P lanes are independent: a 4-wide and an 8-wide group over the
    /// same points agree bit for bit, and replacing the lanes past `take`
    /// with unrelated (or replicated) points leaves the live lanes'
    /// bits unchanged.
    #[test]
    fn l2p_lane_width_and_padding_are_inert() {
        let center = Vec3::new(-0.3, 0.4, 0.1);
        let (_, inter) = local_spans(center, 6);
        let pts: [Vec3; 8] = std::array::from_fn(|l| {
            center
                + Vec3::new(
                    0.1 * l as f64 - 0.35,
                    0.2 - 0.05 * l as f64,
                    0.03 * l as f64,
                )
        });
        let mut bws = BatchWorkspace::new();
        bws.prepare_degree_lanes(6, 8);
        let full = l2p_field_group::<8>(center, &inter, &pts, &mut bws);
        for half in [0usize, 4] {
            let four: [Vec3; 4] = std::array::from_fn(|l| pts[half + l]);
            let pot4 = l2p_potential_group::<4>(center, &inter, &four, &mut bws);
            let (phi4, grad4) = l2p_field_group::<4>(center, &inter, &four, &mut bws);
            for l in 0..4 {
                assert_eq!(pot4[l].to_bits(), full.0[half + l].to_bits());
                assert_eq!(phi4[l].to_bits(), full.0[half + l].to_bits());
                assert_eq!(grad4[l], full.1[half + l]);
            }
        }
        for take in 1..8 {
            for pad in [pts[take - 1], center, Vec3::new(9.0, -9.0, 9.0)] {
                let padded: [Vec3; 8] =
                    std::array::from_fn(|l| if l < take { pts[l] } else { pad });
                let (phi, grad) = l2p_field_group::<8>(center, &inter, &padded, &mut bws);
                for l in 0..take {
                    assert_eq!(
                        phi[l].to_bits(),
                        full.0[l].to_bits(),
                        "take {take} lane {l}"
                    );
                    assert_eq!(grad[l], full.1[l], "take {take} lane {l}");
                }
            }
        }
    }

    /// Every lane of the grouped M2L kernel is bit-equal to the scalar
    /// `mul_add` chain over the same columns in ascending order, run on
    /// that lane alone: at every group width 1–8 (ragged tails), at the
    /// operator sizes of degrees 0, 1, 4, 6 and 14, and at every dispatch
    /// tier this machine reaches. Lanes never mix, so neither the group
    /// width nor the tier changes a bit.
    #[test]
    fn m2l_group_lanes_match_a_scalar_mul_add_chain() {
        let mut state = 0x0dd_b1a5_e5ca_1ab1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let restore = simd::level();
        let mut tiers: Vec<simd::SimdLevel> = Vec::new();
        for want in [
            simd::SimdLevel::Scalar,
            simd::SimdLevel::Avx2,
            simd::SimdLevel::Avx512,
        ] {
            let applied = simd::set_level(want);
            if !tiers.contains(&applied) {
                tiers.push(applied);
            }
        }
        simd::set_level(restore);
        for p in [0usize, 1, 4, 6, 14] {
            let width = 2 * tri_len(p);
            let op: Vec<f64> = (0..width * width).map(|_| next()).collect();
            // one input and one starting accumulator per lane, plain layout
            let inputs: Vec<Vec<f64>> = (0..M2L_GROUP)
                .map(|_| (0..width).map(|_| next()).collect())
                .collect();
            let starts: Vec<Vec<f64>> = (0..M2L_GROUP)
                .map(|_| (0..width).map(|_| next()).collect())
                .collect();
            let want: Vec<Vec<f64>> = (0..M2L_GROUP)
                .map(|l| {
                    let mut y = starts[l].clone();
                    for (r, yr) in y.iter_mut().enumerate() {
                        for c in 0..width {
                            *yr = op[c * width + r].mul_add(inputs[l][c], *yr);
                        }
                    }
                    y
                })
                .collect();
            for &tier in &tiers {
                simd::set_level(tier);
                for lanes in 1..=M2L_GROUP {
                    // lane l of this group is input (l + lanes) % 8, so
                    // every width sees different inputs in every lane slot
                    let pick = |l: usize| (l + lanes) % M2L_GROUP;
                    let mut x = vec![0.0f64; width * lanes];
                    let mut y = vec![0.0f64; width * lanes];
                    for l in 0..lanes {
                        for c in 0..width {
                            x[c * lanes + l] = inputs[pick(l)][c];
                            y[c * lanes + l] = starts[pick(l)][c];
                        }
                    }
                    m2l_apply_group(&op, &x, &mut y, lanes);
                    for l in 0..lanes {
                        for r in 0..width {
                            assert_eq!(
                                y[r * lanes + l].to_bits(),
                                want[pick(l)][r].to_bits(),
                                "p={p} tier={tier:?} lanes={lanes} lane={l} row={r}"
                            );
                        }
                    }
                }
            }
            simd::set_level(restore);
        }
    }

    /// The dense operator kernel matches a plain per-row accumulation with
    /// the same per-row association, including ragged shapes, odd column
    /// counts, and exact-zero input entries.
    #[test]
    fn m2l_apply_matches_naive_accumulation() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for (rows, cols) in [
            (1usize, 1usize),
            (3, 2),
            (7, 5),
            (16, 16),
            (30, 13),
            (31, 4),
        ] {
            let op: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
            let mut x: Vec<f64> = (0..cols).map(|_| next()).collect();
            if cols > 2 {
                x[1] = 0.0; // exercise the zero-column skip
                x[cols - 1] = 0.0;
            }
            let mut y: Vec<f64> = (0..rows).map(|_| next()).collect();
            let mut want = y.clone();
            for r in 0..rows {
                for c in 0..cols {
                    want[r] += op[c * rows + r] * x[c];
                }
            }
            m2l_apply(&op, &x, &mut y);
            for r in 0..rows {
                assert!(
                    (y[r] - want[r]).abs() <= 1e-14 * want[r].abs().max(1.0),
                    "rows={rows} cols={cols} r={r}: {} vs {}",
                    y[r],
                    want[r]
                );
            }
        }
    }
}
