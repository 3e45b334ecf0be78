//! Precomputed factorial and Greengard–Rokhlin `A_n^m` coefficient tables.
//!
//! The translation operators (M2M / M2L / L2L) repeatedly need
//! `A_n^m = (−1)ⁿ / √((n−m)!·(n+m)!)` for degrees up to twice the expansion
//! degree (M2L touches `A_{j+n}^{m−k}` with `j + n ≤ 2p`). All tables are
//! computed once, on first use, behind a `OnceLock`.

use std::sync::OnceLock;

/// Maximum usable expansion degree `p`.
///
/// Tables cover degree `2·MAX_DEGREE`, so factorial arguments reach
/// `4·MAX_DEGREE = 160`, safely below the `f64` overflow at `171!`.
pub const MAX_DEGREE: usize = 40;

/// Degree limit of the `A_n^m` table itself (`2·MAX_DEGREE`).
pub const TABLE_DEGREE: usize = 2 * MAX_DEGREE;

/// Degree limit of the solid-harmonic tables: one past [`MAX_DEGREE`],
/// since a field at degree `p` reads the irregular harmonics to `p + 1`.
const SOLID_DEGREE: usize = MAX_DEGREE + 1;

/// Index of `(n, m)` (with `0 ≤ m ≤ n`) in a triangular array.
#[inline(always)]
#[must_use]
pub const fn tri_index(n: usize, m: usize) -> usize {
    n * (n + 1) / 2 + m
}

/// Number of `(n, m)` pairs with `n ≤ degree`, `0 ≤ m ≤ n`.
#[inline(always)]
#[must_use]
pub const fn tri_len(degree: usize) -> usize {
    (degree + 1) * (degree + 2) / 2
}

/// Heap bytes of one degree-`p` coefficient span (the triangular array of
/// complex coefficients a node expansion stores) — the unit of plan-cache
/// size accounting.
#[inline]
#[must_use]
pub const fn coeff_bytes(degree: usize) -> usize {
    tri_len(degree) * std::mem::size_of::<crate::complex::Complex>()
}

/// The shared numeric tables.
pub struct Tables {
    /// `fact[k] = k!` for `k ≤ 4·MAX_DEGREE`.
    fact: Vec<f64>,
    /// Triangular table of `A_n^m` for `n ≤ TABLE_DEGREE`, `0 ≤ m ≤ n`
    /// (`A_n^{−m} = A_n^m`).
    a: Vec<f64>,
    /// Triangular table of `√((n−m)!/(n+m)!)` — the `Y_n^m` normalisation.
    norm: Vec<f64>,
    /// Triangular tables (`n ≤ MAX_DEGREE + 1`) of the two factors of
    /// the normalised solid-harmonic recurrence; see
    /// [`Tables::solid_recurrence`].
    solid_a: Vec<f64>,
    solid_b: Vec<f64>,
    /// The gradient ladder factors of the irregular (`[0]`) and regular
    /// (`[1]`) harmonics; see [`Tables::ladder`].
    ladder: [[Vec<f64>; 3]; 2],
}

impl Tables {
    fn build() -> Tables {
        let nfact = 4 * MAX_DEGREE + 1;
        let mut fact = Vec::with_capacity(nfact);
        fact.push(1.0f64);
        for k in 1..nfact {
            let prev = fact[k - 1];
            fact.push(prev * k as f64);
        }
        let mut a = vec![0.0; tri_len(TABLE_DEGREE)];
        let mut norm = vec![0.0; tri_len(TABLE_DEGREE)];
        for n in 0..=TABLE_DEGREE {
            let sign = if n % 2 == 0 { 1.0 } else { -1.0 };
            for m in 0..=n {
                let idx = tri_index(n, m);
                a[idx] = sign / (fact[n - m] * fact[n + m]).sqrt();
                norm[idx] = (fact[n - m] / fact[n + m]).sqrt();
            }
        }
        let mut solid_a = vec![0.0; tri_len(SOLID_DEGREE)];
        let mut solid_b = vec![0.0; tri_len(SOLID_DEGREE)];
        solid_a[0] = 1.0;
        for n in 1..=SOLID_DEGREE {
            let nf = n as f64;
            // diagonal step S_n^n = √((2n−1)/(2n)) (x − iy) S_{n−1}^{n−1}
            solid_a[tri_index(n, n)] = ((2.0 * nf - 1.0) / (2.0 * nf)).sqrt();
            for m in 0..n {
                let (up, down) = ((n + m) as f64, (n - m) as f64);
                let idx = tri_index(n, m);
                solid_a[idx] = (2.0 * nf - 1.0) / (up * down).sqrt();
                solid_b[idx] = ((up - 1.0) * (down - 1.0) / (up * down)).sqrt();
            }
        }
        // √(u·v) over small integers, exact for u·v = 0
        let root = |u: usize, v: usize| ((u * v) as f64).sqrt();
        let mut ladder = [(); 2].map(|()| [(); 3].map(|()| vec![0.0; tri_len(SOLID_DEGREE)]));
        for k in 0..=SOLID_DEGREE {
            for j in 0..=k {
                let idx = tri_index(k, j);
                let w = if j == 0 { 1.0 } else { 2.0 };
                let [irr, reg] = &mut ladder;
                irr[0][idx] = -w * root(k - j, k + j);
                reg[0][idx] = w * root(k + 1 - j, k + 1 + j);
                if j >= 1 {
                    irr[1][idx] = -root(k + j - 1, k + j);
                    reg[1][idx] = -root(k - j + 2, k - j + 1);
                }
                if j + 1 < k {
                    irr[2][idx] = root(k - j - 1, k - j);
                }
                reg[2][idx] = root(k + j + 2, k + j + 1);
            }
        }
        Tables {
            fact,
            a,
            norm,
            solid_a,
            solid_b,
            ladder,
        }
    }

    /// The process-wide table instance.
    pub fn get() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(Tables::build)
    }

    /// `k!`.
    #[inline(always)]
    #[must_use]
    pub fn factorial(&self, k: usize) -> f64 {
        self.fact[k]
    }

    /// `A_n^m` for any `|m| ≤ n ≤ TABLE_DEGREE`.
    #[inline(always)]
    #[must_use]
    pub fn a(&self, n: usize, m: i64) -> f64 {
        let m = m.unsigned_abs() as usize;
        debug_assert!(m <= n && n <= TABLE_DEGREE);
        self.a[tri_index(n, m)]
    }

    /// `√((n−|m|)!/(n+|m|)!)` — the spherical-harmonic normalisation.
    #[inline(always)]
    #[must_use]
    pub fn norm(&self, n: usize, m: i64) -> f64 {
        let m = m.unsigned_abs() as usize;
        debug_assert!(m <= n && n <= TABLE_DEGREE);
        self.norm[tri_index(n, m)]
    }

    /// The factors of the recurrence for the normalised solid harmonics,
    /// indexed by `tri_index(n, m)` for `n ≤ MAX_DEGREE + 1`. It drives
    /// P2M (regular harmonics `S_n^m = √((n−m)!/(n+m)!) ρⁿ P_n^m(cos θ)
    /// e^{−imφ}`, in `x − iy`), L2P (their conjugates `R_n^m`, in
    /// `x + iy`) and M2P (irregular harmonics `T_n^m = √((n−m)!/(n+m)!)
    /// P_n^m(cos θ) e^{imφ} / r^{n+1}`):
    ///
    /// ```text
    /// S_0^0 = 1,   S_m^m = a_m^m (x − iy) S_{m−1}^{m−1}
    /// S_n^m = a_n^m z S_{n−1}^m − b_n^m ρ² S_{n−2}^m          (n > m)
    /// T_0^0 = 1/r, T_m^m = a_m^m (x + iy)/r² T_{m−1}^{m−1}
    /// T_n^m = (a_n^m z T_{n−1}^m − b_n^m T_{n−2}^m)/r²        (n > m)
    /// a_m^m = √((2m−1)/(2m)),   a_n^m = (2n−1)/√((n+m)(n−m)),
    /// b_n^m = √((n+m−1)(n−m−1)/((n+m)(n−m)))
    /// ```
    ///
    /// (`b_{m+1}^m = 0`, so the first off-diagonal step needs no
    /// `S_{m−1}^m`.) Both are the Legendre three-term recurrence `(n−m)
    /// P_n^m = (2n−1) cos θ P_{n−1}^m − (n+m−1) P_{n−2}^m`, `P_m^m =
    /// (2m−1)!! sin^m θ`, times `rⁿ` or `r^{−(n+1)}`, with the
    /// normalisation folded into the factors: no trig is left, and no
    /// square root or divide per term. The extra degree serves a field at
    /// `MAX_DEGREE`, whose gradient reads `T_{p+1}`.
    #[inline]
    #[must_use]
    pub(crate) fn solid_recurrence(&self) -> (&[f64], &[f64]) {
        (&self.solid_a, &self.solid_b)
    }

    /// The ladder factors that turn the gradient of a solid-harmonic
    /// series into one more series over the same harmonics, indexed by
    /// the harmonic `(k, j)` the derivative lands on (`tri_index(k, j)`,
    /// `k ≤ MAX_DEGREE + 1`): `[z, plus, minus]`. With `∂± = ∂x ± i∂y`,
    /// the irregular (`local = false`) ones are
    ///
    /// ```text
    /// ∂z T_n^m = −√((n−m+1)(n+m+1)) T_{n+1}^m
    /// ∂+ T_n^m = −√((n+m+1)(n+m+2)) T_{n+1}^{m+1}
    /// ∂− T_n^m =  √((n−m+1)(n−m+2)) T_{n+1}^{m−1}         (m ≥ 1)
    /// ```
    ///
    /// and the regular (`local = true`, `R_n^m = conj(S_n^m)`) ones
    ///
    /// ```text
    /// ∂z R_n^m =  √((n−m)(n+m)) R_{n−1}^m
    /// ∂+ R_n^m = −√((n−m)(n−m−1)) R_{n−1}^{m+1}
    /// ∂− R_n^m =  √((n+m)(n+m−1)) R_{n−1}^{m−1}           (m ≥ 1)
    /// ```
    ///
    /// (`∂− H_n^0 = conj(∂+ H_n^0)`, as `H_n^0` is real). Entry `(k, j)`
    /// is the factor of the source `(k ∓ 1, j)` for `z`, `(k ∓ 1, j − 1)`
    /// for `plus` and `(k ∓ 1, j + 1)` for `minus`, zero where that
    /// source does not exist. The `z` entries with `j ≥ 1` carry the
    /// weight 2 of the `±j` pair folded into the `m ≥ 0` sum.
    #[inline]
    #[must_use]
    pub(crate) fn ladder(&self, local: bool) -> [&[f64]; 3] {
        let [z, plus, minus] = &self.ladder[usize::from(local)];
        [z, plus, minus]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorials() {
        let t = Tables::get();
        assert_eq!(t.factorial(0), 1.0);
        assert_eq!(t.factorial(5), 120.0);
        assert_eq!(t.factorial(10), 3_628_800.0);
        // largest table entry must still be finite
        assert!(t.factorial(4 * MAX_DEGREE).is_finite());
    }

    #[test]
    fn a_closed_forms() {
        let t = Tables::get();
        assert_eq!(t.a(0, 0), 1.0);
        assert_eq!(t.a(1, 0), -1.0); // (-1)^1/sqrt(1!·1!)
        assert!((t.a(1, 1) - -1.0 / 2.0f64.sqrt()).abs() < 1e-15);
        assert!((t.a(2, 0) - 1.0 / 2.0).abs() < 1e-15); // 1/sqrt(2!·2!) = 1/2
                                                        // symmetry in the sign of m
        assert_eq!(t.a(7, 3), t.a(7, -3));
    }

    #[test]
    fn norm_closed_forms() {
        let t = Tables::get();
        assert_eq!(t.norm(0, 0), 1.0);
        assert_eq!(t.norm(3, 0), 1.0);
        assert!((t.norm(1, 1) - (1.0f64 / 2.0).sqrt()).abs() < 1e-15);
        assert!((t.norm(2, 2) - (1.0f64 / 24.0).sqrt()).abs() < 1e-15);
        assert_eq!(t.norm(5, 2), t.norm(5, -2));
    }

    #[test]
    fn extreme_entries_are_normal_floats() {
        let t = Tables::get();
        let a = t.a(TABLE_DEGREE, 0);
        assert!(a.is_finite() && a != 0.0);
        let a = t.a(TABLE_DEGREE, TABLE_DEGREE as i64);
        assert!(a.is_finite() && a != 0.0);
        // products appearing in M2L stay representable:
        // A_p^0 · A_p^0 / A_{2p}^0
        let v = t.a(MAX_DEGREE, 0) * t.a(MAX_DEGREE, 0) / t.a(TABLE_DEGREE, 0);
        assert!(v.is_finite());
    }

    #[test]
    fn tri_indexing() {
        assert_eq!(tri_index(0, 0), 0);
        assert_eq!(tri_index(1, 0), 1);
        assert_eq!(tri_index(1, 1), 2);
        assert_eq!(tri_index(2, 0), 3);
        assert_eq!(tri_len(0), 1);
        assert_eq!(tri_len(2), 6);
        // indices are dense and in-range
        let mut next = 0;
        for n in 0..=6 {
            for m in 0..=n {
                assert_eq!(tri_index(n, m), next);
                next += 1;
            }
        }
        assert_eq!(next, tri_len(6));
    }
}
