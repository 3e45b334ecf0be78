//! Multipole and local expansions of the `1/r` kernel.
//!
//! Both expansion kinds store the triangular `m ≥ 0` half of their complex
//! coefficient array — the potential is real, so `C_n^{−m} = conj(C_n^m)` —
//! together with the expansion center and degree.
//!
//! * [`MultipoleExpansion`] represents the far field of a charge cluster:
//!   `Φ(P) = Σ_{n≤p} Σ_{|m|≤n} M_n^m Y_n^m(θ,φ) / r^{n+1}`,
//!   valid outside the sphere enclosing the sources.
//! * [`LocalExpansion`] represents the field of distant charges inside a
//!   sphere: `Φ(P) = Σ_{j≤p} Σ_{|k|≤j} L_j^k Y_j^k(θ,φ) r^j`.

use mbt_geometry::{Particle, SoaSpan, Spherical, Vec3};

use crate::batch::p2m_span;
use crate::complex::Complex;
use crate::tables::{tri_index, tri_len, Tables, MAX_DEGREE};
use crate::workspace::{fill_powers, Workspace};

/// Shared coefficient storage for both expansion kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Coeffs {
    pub degree: usize,
    /// Triangular array, index `tri_index(n, m)` for `0 ≤ m ≤ n`.
    pub c: Vec<Complex>,
}

impl Coeffs {
    pub fn zero(degree: usize) -> Coeffs {
        assert!(
            degree <= MAX_DEGREE,
            "expansion degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}"
        );
        Coeffs {
            degree,
            // lint: allow(alloc, owned-expansion constructor; hot paths use arena spans)
            c: vec![Complex::ZERO; tri_len(degree)],
        }
    }

    /// Coefficient for any `|m| ≤ n` via conjugate symmetry. Orders beyond
    /// the stored degree read as zero, which lets translation loops run to
    /// a larger target degree without bounds fiddling.
    #[inline(always)]
    pub fn get(&self, n: usize, m: i64) -> Complex {
        if n > self.degree || m.unsigned_abs() as usize > n {
            return Complex::ZERO;
        }
        let v = self.c[tri_index(n, m.unsigned_abs() as usize)];
        if m < 0 {
            v.conj()
        } else {
            v
        }
    }

    #[inline(always)]
    pub fn add(&mut self, n: usize, m: usize, v: Complex) {
        self.c[tri_index(n, m)] += v;
    }

    pub fn add_assign(&mut self, other: &Coeffs) {
        assert_eq!(
            self.degree, other.degree,
            "degree mismatch in expansion accumulate"
        );
        for (a, b) in self.c.iter_mut().zip(&other.c) {
            *a += *b;
        }
    }

    pub fn max_abs(&self) -> f64 {
        self.c.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }
}

/// Powers `rho^0 .. rho^degree` as a fresh allocation; hot paths use
/// [`fill_powers`] on a [`Workspace`] buffer instead.
pub(crate) fn powers(rho: f64, degree: usize) -> Vec<f64> {
    // lint: allow(alloc, documented allocating fallback; hot paths use fill_powers)
    let mut v = vec![0.0; degree + 1];
    fill_powers(&mut v, rho);
    v
}

/// A borrowed view of multipole coefficients: center, degree, and the
/// triangular `m ≥ 0` coefficient slice.
///
/// This is the evaluation-side currency of the crate. An owned
/// [`MultipoleExpansion`] views itself via
/// [`MultipoleExpansion::as_ref`]; arena-backed storage (one contiguous
/// buffer holding every node's coefficients) views each span directly,
/// with no per-node allocation. All evaluation and translation kernels
/// are implemented against this type; the owned methods are thin
/// wrappers.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionRef<'a> {
    pub(crate) center: Vec3,
    pub(crate) degree: usize,
    pub(crate) coeffs: &'a [Complex],
}

impl<'a> ExpansionRef<'a> {
    /// Wraps a coefficient span. `coeffs` must hold exactly the triangular
    /// array for `degree`, i.e. `(degree+1)(degree+2)/2` entries.
    #[inline]
    #[must_use]
    pub fn new(center: Vec3, degree: usize, coeffs: &'a [Complex]) -> ExpansionRef<'a> {
        assert_eq!(
            coeffs.len(),
            tri_len(degree),
            "coefficient span length does not match degree {degree}"
        );
        ExpansionRef {
            center,
            degree,
            coeffs,
        }
    }

    /// Expansion center.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Truncation degree `p`.
    #[inline]
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of real-valued series terms, `(p+1)²`.
    #[inline]
    #[must_use]
    pub fn term_count(&self) -> u64 {
        let p = self.degree as u64;
        (p + 1) * (p + 1)
    }

    /// The raw triangular `m ≥ 0` coefficient span (length
    /// `tri_len(degree)`), for callers that snapshot an expansion into
    /// their own storage.
    #[inline]
    #[must_use]
    pub fn coeffs(&self) -> &'a [Complex] {
        self.coeffs
    }

    /// Coefficient `M_n^m` for any `|m| ≤ n` via conjugate symmetry;
    /// degrees beyond the stored degree read as zero (same contract as the
    /// owned accessor).
    #[inline(always)]
    #[must_use]
    pub fn coeff(&self, n: usize, m: i64) -> Complex {
        if n > self.degree || m.unsigned_abs() as usize > n {
            return Complex::ZERO;
        }
        let v = self.coeffs[tri_index(n, m.unsigned_abs() as usize)];
        if m < 0 {
            v.conj()
        } else {
            v
        }
    }

    /// Largest coefficient magnitude (diagnostics).
    pub fn max_abs(&self) -> f64 {
        self.coeffs.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }

    /// Copies this view into an owned expansion (diagnostics and
    /// equivalence testing against the allocating evaluation path).
    #[must_use]
    pub fn to_expansion(&self) -> MultipoleExpansion {
        MultipoleExpansion {
            center: self.center,
            coeffs: Coeffs {
                degree: self.degree,
                // lint: allow(alloc, explicit copy-out conversion for diagnostics)
                c: self.coeffs.to_vec(),
            },
        }
    }

    /// Evaluates the truncated series at an observation point (M2P) using
    /// caller-provided scratch. Allocation-free once `ws` has grown to
    /// this degree.
    pub fn potential_at_with(&self, point: Vec3, ws: &mut Workspace) -> f64 {
        self.potential_at_degree_with(point, self.degree, ws)
    }

    /// Evaluates only the degree-`degree` prefix of the series (M2P with
    /// per-interaction truncation) using caller-provided scratch.
    ///
    /// Arithmetic is identical, operation for operation, to
    /// [`MultipoleExpansion::potential_at_degree`] — the owned method is a
    /// wrapper over this kernel — so reusing a workspace never changes
    /// results, bit for bit.
    #[allow(clippy::needless_range_loop)] // `n` indexes several degree-keyed arrays
    pub fn potential_at_degree_with(&self, point: Vec3, degree: usize, ws: &mut Workspace) -> f64 {
        let degree = degree.min(self.degree);
        let s = Spherical::from_cartesian(point - self.center);
        debug_assert!(s.rho > 0.0, "evaluation at the expansion center");
        let t = Tables::get();
        let (sin_t, cos_t) = s.theta.sin_cos();
        ws.ensure_degree(degree);
        ws.leg.recompute(degree, cos_t, sin_t);
        let Workspace { leg, acc_pot, .. } = ws;
        let inv_r = 1.0 / s.rho;
        let e1 = Complex::cis(s.phi);

        let mut phi = 0.0;
        let mut eim = Complex::ONE;
        // loop m-major so e^{imφ} is built incrementally
        let contributions = &mut acc_pot[..=degree]; // per-degree partial sums
        contributions.fill(0.0);
        for m in 0..=degree {
            let w = if m == 0 { 1.0 } else { 2.0 };
            for n in m..=degree {
                let c = self.coeff(n, m as i64) * eim;
                contributions[n] += w * c.re * t.norm(n, m as i64) * leg.p(n, m);
            }
            eim *= e1;
        }
        let mut rpow = inv_r;
        for contrib in contributions.iter().take(degree + 1) {
            phi += contrib * rpow;
            rpow *= inv_r;
        }
        phi
    }

    /// Potential and gradient `∇Φ` at an observation point using
    /// caller-provided scratch (see
    /// [`ExpansionRef::potential_at_degree_with`] for the reuse contract).
    pub fn field_at_with(&self, point: Vec3, ws: &mut Workspace) -> (f64, Vec3) {
        self.field_at_degree_with(point, self.degree, ws)
    }

    /// Potential and gradient using only the degree-`degree` prefix, with
    /// caller-provided scratch. Bit-identical to
    /// [`MultipoleExpansion::field_at_degree`].
    pub fn field_at_degree_with(
        &self,
        point: Vec3,
        degree: usize,
        ws: &mut Workspace,
    ) -> (f64, Vec3) {
        let degree = degree.min(self.degree);
        let s = Spherical::from_cartesian(point - self.center);
        debug_assert!(s.rho > 0.0, "evaluation at the expansion center");
        let t = Tables::get();
        let (sin_t, cos_t) = s.theta.sin_cos();
        let (sin_p, cos_p) = s.phi.sin_cos();
        ws.ensure_degree(degree);
        ws.leg.recompute(degree, cos_t, sin_t);
        let Workspace {
            leg,
            acc_pot,
            acc_dth,
            acc_dph,
            ..
        } = ws;
        let inv_r = 1.0 / s.rho;
        let e1 = Complex::new(cos_p, sin_p);

        let pot_n = &mut acc_pot[..=degree];
        let dth_n = &mut acc_dth[..=degree];
        let dph_n = &mut acc_dph[..=degree];
        pot_n.fill(0.0);
        dth_n.fill(0.0);
        dph_n.fill(0.0);
        let mut eim = Complex::ONE;
        for m in 0..=degree {
            let w = if m == 0 { 1.0 } else { 2.0 };
            for n in m..=degree {
                let c = self.coeff(n, m as i64) * eim;
                let nr = t.norm(n, m as i64);
                pot_n[n] += w * c.re * nr * leg.p(n, m);
                dth_n[n] += w * c.re * nr * leg.dp_dtheta(n, m);
                if m >= 1 {
                    dph_n[n] += -2.0 * m as f64 * c.im * nr * leg.p_over_sin(n, m);
                }
            }
            eim *= e1;
        }
        let mut phi = 0.0;
        let mut g_r = 0.0;
        let mut g_t = 0.0;
        let mut g_p = 0.0;
        let mut rpow1 = inv_r; // r^{-(n+1)}
        for n in 0..=degree {
            let rpow2 = rpow1 * inv_r; // r^{-(n+2)}
            phi += pot_n[n] * rpow1;
            g_r += -((n + 1) as f64) * pot_n[n] * rpow2;
            g_t += dth_n[n] * rpow2;
            g_p += dph_n[n] * rpow2;
            rpow1 = rpow2;
        }
        let e_r = Vec3::new(sin_t * cos_p, sin_t * sin_p, cos_t);
        let e_t = Vec3::new(cos_t * cos_p, cos_t * sin_p, -sin_t);
        let e_p = Vec3::new(-sin_p, cos_p, 0.0);
        (phi, e_r * g_r + e_t * g_t + e_p * g_p)
    }
}

/// The trig/Legendre form of one P2M accumulation, `M_n^m += q ρⁿ
/// Y_n^{−m}(α, β)` through `acos`/`atan2` and the full Legendre table:
/// the oracle the recurrence kernel ([`crate::batch::P2M_LANES`]) is
/// tested against.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // `n` indexes several degree-keyed arrays
pub(crate) fn p2m_trig_reference(
    coeffs: &mut [Complex],
    center: Vec3,
    degree: usize,
    charge: f64,
    position: Vec3,
    ws: &mut Workspace,
) {
    let s = Spherical::from_cartesian(position - center);
    let t = Tables::get();
    let (sin_t, cos_t) = s.theta.sin_cos();
    ws.ensure_degree(degree);
    ws.leg.recompute(degree, cos_t, sin_t);
    let Workspace { leg, pow, .. } = ws;
    let rp = &mut pow[..=degree];
    fill_powers(rp, s.rho);
    // Y_n^{-m} = norm · P_n^m · e^{-imφ}
    let e1 = Complex::cis(-s.phi);
    let mut eim = Complex::ONE;
    for m in 0..=degree {
        for n in m..=degree {
            let re = charge * rp[n] * t.norm(n, m as i64) * leg.p(n, m);
            coeffs[tri_index(n, m)] += eim * re;
        }
        eim *= e1;
    }
}

/// Builds the multipole expansion of a particle set directly into a raw
/// coefficient span (P2M into arena storage).
///
/// `out` must hold exactly `(degree+1)(degree+2)/2` entries; it is zeroed
/// and then accumulated into through the lane-batched recurrence kernel
/// (`crate::batch::p2m_span`), so the result is bit-identical to
/// [`MultipoleExpansion::from_particles`] and to [`p2m_soa_into`] over
/// the same particle order.
pub fn p2m_into(
    out: &mut [Complex],
    center: Vec3,
    degree: usize,
    particles: &[Particle],
    ws: &mut Workspace,
) {
    let source = |i: usize| (particles[i].position, particles[i].charge);
    p2m_span(out, center, degree, (particles.len(), source), &mut ws.p2m);
}

/// [`p2m_into`] over sources stored one array per component (a sorted
/// tree's or FMM's [`SoaSpan`]): the same kernel, the same bits.
pub fn p2m_soa_into(
    out: &mut [Complex],
    center: Vec3,
    degree: usize,
    sources: SoaSpan<'_>,
    ws: &mut Workspace,
) {
    let source = |i: usize| (sources.position(i), sources.q[i]);
    p2m_span(out, center, degree, (sources.len(), source), &mut ws.p2m);
}

/// A truncated multipole expansion about a center.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipoleExpansion {
    pub(crate) center: Vec3,
    pub(crate) coeffs: Coeffs,
}

impl MultipoleExpansion {
    /// The zero expansion of the given degree.
    #[must_use]
    pub fn zero(center: Vec3, degree: usize) -> Self {
        MultipoleExpansion {
            center,
            coeffs: Coeffs::zero(degree),
        }
    }

    /// Builds the expansion of a particle set (P2M):
    /// `M_n^m = Σᵢ qᵢ ρᵢⁿ Y_n^{−m}(αᵢ, βᵢ)`.
    #[must_use]
    pub fn from_particles(center: Vec3, degree: usize, particles: &[Particle]) -> Self {
        let mut ws = Workspace::with_capacity(degree);
        let mut e = Self::zero(center, degree);
        p2m_into(&mut e.coeffs.c, center, degree, particles, &mut ws);
        e
    }

    /// A borrowed evaluation view of this expansion.
    #[inline]
    #[must_use]
    pub fn as_ref(&self) -> ExpansionRef<'_> {
        ExpansionRef {
            center: self.center,
            degree: self.coeffs.degree,
            coeffs: &self.coeffs.c,
        }
    }

    /// Expansion center.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Truncation degree `p`.
    #[inline]
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.degree
    }

    /// Number of real-valued series terms, `(p+1)²` — the unit the paper's
    /// Table 1 counts.
    #[inline]
    #[must_use]
    pub fn term_count(&self) -> u64 {
        let p = self.coeffs.degree as u64;
        (p + 1) * (p + 1)
    }

    /// Coefficient `M_n^m` for any `|m| ≤ n`.
    #[inline]
    #[must_use]
    pub fn coeff(&self, n: usize, m: i64) -> Complex {
        self.coeffs.get(n, m)
    }

    /// Adds another expansion with the same center and degree.
    pub fn accumulate(&mut self, other: &MultipoleExpansion) {
        assert!(
            // lint: allow(float_cmp, centers must match bit-exactly to accumulate)
            self.center.distance(other.center) == 0.0,
            "cannot accumulate expansions about different centers"
        );
        self.coeffs.add_assign(&other.coeffs);
    }

    /// Evaluates the truncated series at an observation point (M2P).
    ///
    /// The point must be outside the sphere enclosing the sources for the
    /// result to approximate the true potential (Theorem 1 controls the
    /// error); the series itself is evaluated wherever `r > 0`.
    #[must_use]
    pub fn potential_at(&self, point: Vec3) -> f64 {
        self.potential_at_degree(point, self.coeffs.degree)
    }

    /// Evaluates only the degree-`degree` prefix of the series (M2P with
    /// per-interaction truncation).
    ///
    /// The paper computes "the multipole series a priori to the maximum
    /// required degree"; an individual interaction may then read only the
    /// prefix its own error budget requires. `degree` is clamped to the
    /// stored degree.
    ///
    /// Convenience wrapper allocating fresh scratch; hot loops should hold
    /// a [`Workspace`] and call [`ExpansionRef::potential_at_degree_with`].
    #[must_use]
    pub fn potential_at_degree(&self, point: Vec3, degree: usize) -> f64 {
        let mut ws = Workspace::with_capacity(degree.min(self.coeffs.degree));
        self.as_ref()
            .potential_at_degree_with(point, degree, &mut ws)
    }

    /// Evaluates potential and gradient `∇Φ` at an observation point.
    ///
    /// Pole-safe: the azimuthal term uses `P_n^m / sin θ` arrays, never a
    /// division by `sin θ`.
    #[must_use]
    pub fn field_at(&self, point: Vec3) -> (f64, Vec3) {
        self.field_at_degree(point, self.coeffs.degree)
    }

    /// Potential and gradient using only the degree-`degree` prefix of the
    /// stored series (see [`MultipoleExpansion::potential_at_degree`]).
    ///
    /// Convenience wrapper allocating fresh scratch; hot loops should hold
    /// a [`Workspace`] and call [`ExpansionRef::field_at_degree_with`].
    #[must_use]
    pub fn field_at_degree(&self, point: Vec3, degree: usize) -> (f64, Vec3) {
        let mut ws = Workspace::with_capacity(degree.min(self.coeffs.degree));
        self.as_ref().field_at_degree_with(point, degree, &mut ws)
    }

    /// Largest coefficient magnitude (diagnostics).
    #[must_use]
    pub fn max_coeff(&self) -> f64 {
        self.coeffs.max_abs()
    }
}

/// A truncated local expansion about a center.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalExpansion {
    pub(crate) center: Vec3,
    pub(crate) coeffs: Coeffs,
}

impl LocalExpansion {
    /// The zero expansion of the given degree.
    #[must_use]
    pub fn zero(center: Vec3, degree: usize) -> Self {
        LocalExpansion {
            center,
            coeffs: Coeffs::zero(degree),
        }
    }

    /// Wraps an owned copy of a triangular `m ≥ 0` coefficient span
    /// (`tri_index` layout, `tri_len(degree)` entries). Arena-backed
    /// storage uses this to lift flat local-coefficient spans back into
    /// owned expansions — e.g. to probe translation operators
    /// column-by-column or to compare against the scalar reference.
    #[must_use]
    pub fn from_coeffs(center: Vec3, degree: usize, coeffs: &[Complex]) -> Self {
        assert_eq!(
            coeffs.len(),
            tri_len(degree),
            "coefficient span length does not match degree {degree}"
        );
        let mut e = Self::zero(center, degree);
        e.coeffs.c.copy_from_slice(coeffs);
        e
    }

    /// Builds the local expansion of distant point sources directly (P2L):
    /// `L_j^k = Σᵢ qᵢ Y_j^{−k}(αᵢ, βᵢ) / ρᵢ^{j+1}`.
    ///
    /// Valid for observation points closer to the center than every source.
    #[must_use]
    pub fn from_distant_particles(center: Vec3, degree: usize, particles: &[Particle]) -> Self {
        let mut e = Self::zero(center, degree);
        for p in particles {
            e.add_distant_particle(p.charge, p.position);
        }
        e
    }

    /// Accumulates a single distant source (P2L).
    pub fn add_distant_particle(&mut self, charge: f64, position: Vec3) {
        let mut ws = Workspace::with_capacity(self.coeffs.degree);
        self.add_distant_particle_with(charge, position, &mut ws);
    }

    /// Accumulates a single distant source (P2L) using caller-provided
    /// scratch; allocation-free once `ws` has grown to this degree.
    #[allow(clippy::needless_range_loop)] // `n` indexes several degree-keyed arrays
    pub fn add_distant_particle_with(&mut self, charge: f64, position: Vec3, ws: &mut Workspace) {
        let degree = self.coeffs.degree;
        let s = Spherical::from_cartesian(position - self.center);
        assert!(s.rho > 0.0, "P2L source at the local center");
        let t = Tables::get();
        let (sin_t, cos_t) = s.theta.sin_cos();
        ws.ensure_degree(degree);
        ws.leg.recompute(degree, cos_t, sin_t);
        let Workspace { leg, pow, .. } = ws;
        let invp = &mut pow[..degree + 2]; // needs rho^{-(degree+1)}
        fill_powers(invp, 1.0 / s.rho);
        let e1 = Complex::cis(-s.phi);
        let mut eim = Complex::ONE;
        for m in 0..=degree {
            for n in m..=degree {
                let re = charge * invp[n + 1] * t.norm(n, m as i64) * leg.p(n, m);
                self.coeffs.add(n, m, eim * re);
            }
            eim *= e1;
        }
    }

    /// Expansion center.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Truncation degree `p`.
    #[inline]
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.degree
    }

    /// Coefficient `L_j^k` for any `|k| ≤ j`.
    #[inline]
    #[must_use]
    pub fn coeff(&self, j: usize, k: i64) -> Complex {
        self.coeffs.get(j, k)
    }

    /// Adds another expansion with the same center and degree.
    pub fn accumulate(&mut self, other: &LocalExpansion) {
        assert!(
            // lint: allow(float_cmp, centers must match bit-exactly to accumulate)
            self.center.distance(other.center) == 0.0,
            "cannot accumulate expansions about different centers"
        );
        self.coeffs.add_assign(&other.coeffs);
    }

    /// Evaluates the local series at a point (L2P).
    #[must_use]
    pub fn potential_at(&self, point: Vec3) -> f64 {
        let mut ws = Workspace::with_capacity(self.coeffs.degree);
        self.potential_at_with(point, &mut ws)
    }

    /// L2P with caller-provided scratch; allocation-free once `ws` has
    /// grown to this degree.
    pub fn potential_at_with(&self, point: Vec3, ws: &mut Workspace) -> f64 {
        l2p_potential_with(self.center, self.coeffs.degree, &self.coeffs.c, point, ws)
    }

    /// Evaluates potential and gradient at a point (L2P with derivatives).
    #[must_use]
    pub fn field_at(&self, point: Vec3) -> (f64, Vec3) {
        let mut ws = Workspace::with_capacity(self.coeffs.degree);
        self.field_at_with(point, &mut ws)
    }

    /// L2P with derivatives using caller-provided scratch; allocation-free
    /// once `ws` has grown to this degree.
    pub fn field_at_with(&self, point: Vec3, ws: &mut Workspace) -> (f64, Vec3) {
        l2p_field_with(self.center, self.coeffs.degree, &self.coeffs.c, point, ws)
    }

    /// Largest coefficient magnitude (diagnostics).
    #[must_use]
    pub fn max_coeff(&self) -> f64 {
        self.coeffs.max_abs()
    }
}

/// L2P over a borrowed triangular coefficient span (`tri_index` layout,
/// `tri_len(degree)` entries, `m ≥ 0` rows). This is the kernel behind
/// [`LocalExpansion::potential_at_with`]; arena-backed evaluators call it
/// directly so finest-level locals never need to be lifted into owned
/// expansions.
#[allow(clippy::needless_range_loop)] // `n` indexes several degree-keyed arrays
pub fn l2p_potential_with(
    center: Vec3,
    degree: usize,
    coeffs: &[Complex],
    point: Vec3,
    ws: &mut Workspace,
) -> f64 {
    let s = Spherical::from_cartesian(point - center);
    let t = Tables::get();
    let (sin_t, cos_t) = s.theta.sin_cos();
    ws.ensure_degree(degree);
    ws.leg.recompute(degree, cos_t, sin_t);
    let Workspace { leg, pow, .. } = ws;
    let rp = &mut pow[..=degree];
    fill_powers(rp, s.rho);
    let e1 = Complex::cis(s.phi);
    let mut eim = Complex::ONE;
    let mut phi = 0.0;
    for m in 0..=degree {
        let w = if m == 0 { 1.0 } else { 2.0 };
        for n in m..=degree {
            let c = coeffs[tri_index(n, m)] * eim;
            phi += w * c.re * t.norm(n, m as i64) * leg.p(n, m) * rp[n];
        }
        eim *= e1;
    }
    phi
}

/// L2P with derivatives over a borrowed triangular coefficient span — the
/// kernel behind [`LocalExpansion::field_at_with`]; see
/// [`l2p_potential_with`] for the span layout.
#[allow(clippy::needless_range_loop)] // `n` indexes several degree-keyed arrays
pub fn l2p_field_with(
    center: Vec3,
    degree: usize,
    coeffs: &[Complex],
    point: Vec3,
    ws: &mut Workspace,
) -> (f64, Vec3) {
    let s = Spherical::from_cartesian(point - center);
    let t = Tables::get();
    let (sin_t, cos_t) = s.theta.sin_cos();
    let (sin_p, cos_p) = s.phi.sin_cos();
    ws.ensure_degree(degree);
    ws.leg.recompute(degree, cos_t, sin_t);
    let Workspace { leg, pow, .. } = ws;
    let rp = &mut pow[..=degree];
    fill_powers(rp, s.rho);
    let e1 = Complex::new(cos_p, sin_p);

    let mut phi = 0.0;
    let mut g_r = 0.0;
    let mut g_t = 0.0;
    let mut g_p = 0.0;
    let mut eim = Complex::ONE;
    for m in 0..=degree {
        let w = if m == 0 { 1.0 } else { 2.0 };
        for n in m..=degree {
            let c = coeffs[tri_index(n, m)] * eim;
            let nr = t.norm(n, m as i64);
            phi += w * c.re * nr * leg.p(n, m) * rp[n];
            if n >= 1 {
                // gradient terms carry r^{n-1}
                g_r += (n as f64) * w * c.re * nr * leg.p(n, m) * rp[n - 1];
                g_t += w * c.re * nr * leg.dp_dtheta(n, m) * rp[n - 1];
                if m >= 1 {
                    g_p += -2.0 * m as f64 * c.im * nr * leg.p_over_sin(n, m) * rp[n - 1];
                }
            }
        }
        eim *= e1;
    }
    let e_r = Vec3::new(sin_t * cos_p, sin_t * sin_p, cos_t);
    let e_t = Vec3::new(cos_t * cos_p, cos_t * sin_p, -sin_t);
    let e_p = Vec3::new(-sin_p, cos_p, 0.0);
    (phi, e_r * g_r + e_t * g_t + e_p * g_p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic cluster without test-only dependencies.
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
                let v = loop {
                    let v = Vec3::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0, next() * 2.0 - 1.0);
                    if v.norm_sq() <= 1.0 {
                        break v;
                    }
                };
                Particle::new(center + v * radius, next() * 2.0 - 1.0)
            })
            .collect()
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_allocating_path() {
        // One workspace cycled through many degrees and both kernels must
        // reproduce the allocating wrappers exactly: reuse may never
        // perturb results.
        let center = Vec3::new(0.3, -0.2, 0.6);
        let ps = cluster(center, 0.5, 40, 5);
        let e = MultipoleExpansion::from_particles(center, 14, &ps);
        let mut ws = Workspace::new();
        for (degree, point) in [
            (14usize, Vec3::new(2.0, 1.0, -1.0)),
            (3, Vec3::new(-1.5, 2.0, 0.5)),
            (8, Vec3::new(0.3, -0.2, 3.0)),
            (0, Vec3::new(4.0, 4.0, 4.0)),
        ] {
            let pot_w = e.as_ref().potential_at_degree_with(point, degree, &mut ws);
            assert_eq!(
                pot_w,
                e.potential_at_degree(point, degree),
                "potential p={degree}"
            );
            let (phi_w, g_w) = e.as_ref().field_at_degree_with(point, degree, &mut ws);
            let (phi, g) = e.field_at_degree(point, degree);
            assert_eq!(phi_w, phi, "field potential p={degree}");
            assert_eq!(
                (g_w.x, g_w.y, g_w.z),
                (g.x, g.y, g.z),
                "gradient p={degree}"
            );
        }
    }

    /// The SoA entry, the particle-slice entry and the owned expansion run
    /// one kernel: every span length from 0 to `3·P2M_LANES + 1`, as a
    /// prefix and as a suffix of a set holding a source at the centre and
    /// one on the z axis, gives the same bits through all three (the two
    /// span entries writing over stale output).
    #[test]
    fn p2m_entries_agree_bit_for_bit() {
        use crate::batch::P2M_LANES;
        let center = Vec3::new(0.1, -0.2, 0.3);
        let n = 3 * P2M_LANES + 1;
        let mut ps = cluster(center, 0.5, n, 19);
        ps[2] = Particle::new(center, 1.5);
        ps[P2M_LANES + 3] = Particle::new(center + Vec3::new(0.0, 0.0, -0.4), -0.8);
        let soa = mbt_geometry::ParticleSoa::gather(&ps, 0..n);
        let degree = 9;
        let mut ws = Workspace::new();
        let mut aos = vec![Complex::new(7.0, -3.0); tri_len(degree)];
        let mut split = vec![Complex::new(3.0, -1.0); tri_len(degree)];
        let bits = |c: &[Complex]| -> Vec<(u64, u64)> {
            c.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for len in 0..=n {
            for range in [0..len, n - len..n] {
                p2m_into(&mut aos, center, degree, &ps[range.clone()], &mut ws);
                p2m_soa_into(
                    &mut split,
                    center,
                    degree,
                    soa.span().slice(range.clone()),
                    &mut ws,
                );
                assert_eq!(bits(&aos), bits(&split), "span {range:?}");
                let owned = MultipoleExpansion::from_particles(center, degree, &ps[range.clone()]);
                assert_eq!(bits(&aos), bits(&owned.coeffs.c), "span {range:?}");
            }
        }
        // the arena view evaluates as the owned expansion does
        let point = Vec3::new(1.5, -1.0, 2.0);
        let owned = MultipoleExpansion::from_particles(center, degree, &ps);
        let view = ExpansionRef::new(center, degree, &aos);
        assert_eq!(
            view.potential_at_with(point, &mut ws),
            owned.potential_at(point)
        );
    }

    /// The trig/Legendre oracle over `ps`, particle by particle.
    fn p2m_oracle(center: Vec3, degree: usize, ps: &[Particle]) -> Vec<Complex> {
        let mut ws = Workspace::new();
        let mut out = vec![Complex::ZERO; tri_len(degree)];
        for p in ps {
            p2m_trig_reference(&mut out, center, degree, p.charge, p.position, &mut ws);
        }
        out
    }

    /// Largest coefficient difference relative to the oracle's largest
    /// coefficient.
    fn rel_to_max(got: &[Complex], want: &[Complex]) -> f64 {
        let scale = want.iter().map(|c| c.norm()).fold(0.0, f64::max);
        let diff = got
            .iter()
            .zip(want)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max);
        if scale > 0.0 {
            diff / scale
        } else {
            diff
        }
    }

    /// The recurrence kernel reproduces the trig/Legendre body at every
    /// degree from 0 to `MAX_DEGREE`, on a cluster tight enough that the
    /// oracle's `ρⁿ` stays far from underflow.
    #[test]
    fn p2m_kernel_matches_trig_oracle_across_degrees() {
        let center = Vec3::new(0.2, -0.1, 0.3);
        for degree in [0usize, 1, 6, 13, 14, crate::tables::MAX_DEGREE] {
            let ps = cluster(center, 0.4, 11, degree as u64 + 3);
            let got = MultipoleExpansion::from_particles(center, degree, &ps);
            let want = p2m_oracle(center, degree, &ps);
            let err = rel_to_max(&got.coeffs.c, &want);
            assert!(err <= 1e-14, "p={degree}: {err:e}");
        }
    }

    /// Every span length from 0 to 17 (empty, partial lane groups, whole
    /// groups and a partial third one) matches the oracle; an empty span
    /// gives exact zeros.
    #[test]
    fn p2m_kernel_matches_trig_oracle_on_every_short_span() {
        let center = Vec3::new(-0.3, 0.1, 0.0);
        let ps = cluster(center, 0.5, 17, 41);
        let mut ws = Workspace::new();
        let mut out = vec![Complex::ZERO; tri_len(6)];
        for len in 0..=ps.len() {
            p2m_into(&mut out, center, 6, &ps[..len], &mut ws);
            let err = rel_to_max(&out, &p2m_oracle(center, 6, &ps[..len]));
            assert!(err <= 1e-14, "len={len}: {err:e}");
        }
        p2m_into(&mut out, center, 6, &[], &mut ws);
        assert!(out.iter().all(|c| *c == Complex::ZERO));
    }

    /// A particle at the centre contributes its charge to `M_0^0` and
    /// nothing else; particles on the z-axis only to `m = 0`; zero charges
    /// give exact zeros — with no special case in the kernel.
    #[test]
    fn p2m_kernel_handles_the_centre_the_axis_and_zero_charges() {
        let center = Vec3::new(0.5, 0.5, 0.5);
        let at_centre =
            MultipoleExpansion::from_particles(center, 8, &[Particle::new(center, 2.5)]);
        for n in 0..=8usize {
            for m in 0..=n {
                let want = if n == 0 {
                    Complex::new(2.5, 0.0)
                } else {
                    Complex::ZERO
                };
                assert_eq!(at_centre.coeffs.c[tri_index(n, m)], want, "({n},{m})");
            }
        }
        let axis = [
            Particle::new(center + Vec3::new(0.0, 0.0, 0.3), 1.0),
            Particle::new(center + Vec3::new(0.0, 0.0, -0.2), -0.7),
            Particle::new(center, 0.4),
        ];
        let got = MultipoleExpansion::from_particles(center, 8, &axis);
        assert!(rel_to_max(&got.coeffs.c, &p2m_oracle(center, 8, &axis)) <= 1e-14);
        for n in 1..=8usize {
            for m in 1..=n {
                assert_eq!(got.coeffs.c[tri_index(n, m)], Complex::ZERO, "({n},{m})");
            }
        }
        let neutral: Vec<Particle> = cluster(center, 0.3, 13, 7)
            .into_iter()
            .map(|p| Particle::new(p.position, 0.0))
            .collect();
        let zero = MultipoleExpansion::from_particles(center, 8, &neutral);
        assert!(zero.coeffs.c.iter().all(|c| *c == Complex::ZERO));
    }

    /// The kernel's lanes are a fixed logical width: every dispatch tier
    /// computes the same bits.
    #[test]
    fn p2m_kernel_is_bit_identical_across_tiers() {
        use crate::simd::{self, SimdLevel};
        let center = Vec3::new(0.1, 0.1, -0.4);
        let ps = cluster(center, 0.5, 21, 29);
        let restore = simd::level();
        let mut runs: Vec<Vec<Complex>> = Vec::new();
        for tier in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            simd::set_level(tier);
            runs.push(MultipoleExpansion::from_particles(center, 9, &ps).coeffs.c);
        }
        simd::set_level(restore);
        let bits = |v: &[Complex]| {
            v.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect::<Vec<_>>()
        };
        for run in &runs[1..] {
            assert_eq!(bits(run), bits(&runs[0]));
        }
    }

    #[test]
    fn local_expansion_with_variants_match() {
        let ps = cluster(Vec3::new(5.0, 1.0, -2.0), 0.5, 20, 13);
        let mut ws = Workspace::new();
        let mut l = LocalExpansion::zero(Vec3::ZERO, 9);
        let mut l_ws = LocalExpansion::zero(Vec3::ZERO, 9);
        for p in &ps {
            l.add_distant_particle(p.charge, p.position);
            l_ws.add_distant_particle_with(p.charge, p.position, &mut ws);
        }
        assert_eq!(
            l.coeffs.c, l_ws.coeffs.c,
            "P2L with reused scratch must match"
        );
        let point = Vec3::new(0.2, -0.3, 0.25);
        assert_eq!(l.potential_at(point), l.potential_at_with(point, &mut ws));
        let (phi_a, g_a) = l.field_at(point);
        let (phi_b, g_b) = l.field_at_with(point, &mut ws);
        assert_eq!(phi_a, phi_b);
        assert_eq!((g_a.x, g_a.y, g_a.z), (g_b.x, g_b.y, g_b.z));
    }

    #[test]
    fn expansion_ref_coeff_matches_owned() {
        let center = Vec3::ZERO;
        let ps = cluster(center, 0.4, 15, 21);
        let e = MultipoleExpansion::from_particles(center, 6, &ps);
        let r = e.as_ref();
        assert_eq!(r.degree(), 6);
        assert_eq!(r.term_count(), 49);
        for n in 0..=8usize {
            for m in -(n as i64)..=(n as i64) {
                assert_eq!(r.coeff(n, m), e.coeff(n, m), "coeff ({n},{m})");
            }
        }
    }
}
