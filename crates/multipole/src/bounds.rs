//! The paper's error bounds and the adaptive degree-selection rule.
//!
//! * [`theorem1_bound`] — Greengard–Rokhlin truncation bound for a single
//!   multipole evaluation,
//! * [`theorem2_bound`] — the same bound specialised to a Barnes–Hut
//!   interaction admitted by the α-criterion (the per-interaction error
//!   grows linearly in the cluster charge `A`, which is the paper's central
//!   observation),
//! * [`DegreeSelector`] — fixed-degree (classical Barnes–Hut) or the
//!   paper's adaptive rule (Theorem 3): pick `p` per cluster so that every
//!   admitted interaction carries (approximately) the same error.

/// Ratio `a/d`: circumradius of a cube over its edge (`√3/2`).
pub const CUBE_CIRCUMRADIUS_RATIO: f64 = 0.866_025_403_784_438_6;

/// Theorem 1: error of a degree-`p` truncated multipole expansion of
/// charges with `Σ|qᵢ| = abs_charge` inside radius `a`, evaluated at
/// distance `r > a` from the center:
///
/// ```text
/// |Φ(r) − Φ_p(r)| ≤ A/(r−a) · (a/r)^{p+1}
/// ```
///
/// Returns `+∞` when `r ≤ a` (the expansion does not converge there).
#[must_use]
pub fn theorem1_bound(abs_charge: f64, a: f64, r: f64, p: usize) -> f64 {
    #[cfg(feature = "validate")]
    {
        assert!(
            abs_charge >= 0.0 && a >= 0.0 && r >= 0.0,
            "validate: Theorem 1 takes non-negative A, a, r (got A={abs_charge}, a={a}, r={r})"
        );
    }
    if r <= a {
        return f64::INFINITY;
    }
    abs_charge / (r - a) * (a / r).powi(p as i32 + 1)
}

/// Theorem 2: error bound of a single Barnes–Hut particle–cluster
/// interaction admitted by the α-criterion, for a cluster of total absolute
/// charge `abs_charge` in a cube of edge `d` at distance `r ≥ d/α`:
/// Theorem 1 with `a = d·√3/2`.
#[must_use]
pub fn theorem2_bound(abs_charge: f64, d: f64, r: f64, p: usize) -> f64 {
    theorem1_bound(abs_charge, d * CUBE_CIRCUMRADIUS_RATIO, r, p)
}

/// Worst-case geometric decay ratio `κ = α·√3/2` of an interaction admitted
/// by the α-criterion: `a/r ≤ (d√3/2)/(d/α) = κ`.
///
/// Convergence requires `κ < 1`, i.e. `α < 2/√3 ≈ 1.1547`; the paper uses
/// `α < 1`.
#[must_use]
pub fn kappa(alpha: f64) -> f64 {
    alpha * CUBE_CIRCUMRADIUS_RATIO
}

/// How the adaptive rule weights a cluster when equalising errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeWeighting {
    /// Weight by the cluster's absolute charge `A` only — the literal rule
    /// of Theorem 3 (equalise `A_j κ^{p_j+1}` across clusters).
    Charge,
    /// Weight by `A/d` — additionally accounts for the `1/(r−a)` factor of
    /// the true bound (`r` scales with the box edge `d` for interactions at
    /// that level). For uniform charge density this grows like `d²` per
    /// level instead of `d³`, so it prescribes smaller degree increments at
    /// equal accuracy. Default.
    #[default]
    ChargeOverDistance,
}

/// Degree policy of a treecode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegreeSelector {
    /// Classical Barnes–Hut: the same degree for every cluster.
    Fixed(usize),
    /// The paper's improved method (Theorem 3).
    Adaptive {
        /// Degree assigned to clusters at the reference weight.
        p_min: usize,
        /// Hard cap on the degree (storage/precision guard).
        p_max: usize,
        /// The multipole acceptance parameter α of the run (determines the
        /// decay ratio `κ`).
        alpha: f64,
        /// Cluster weighting.
        weighting: DegreeWeighting,
    },
    /// Tolerance-driven degrees: each cluster stores the smallest degree
    /// whose Theorem-1 bound at its worst admissible distance (`d/α`)
    /// meets `tol`, and each *interaction* may truncate further to the
    /// smallest degree meeting `tol` at its **actual** distance — the
    /// per-interaction refinement of the paper's "series computed a priori
    /// to the maximum required degree".
    Tolerance {
        /// Absolute per-interaction error budget.
        tol: f64,
        /// Degree floor.
        p_min: usize,
        /// Degree cap.
        p_max: usize,
    },
}

impl DegreeSelector {
    /// A convenient adaptive selector with default weighting and `p_max`.
    #[must_use]
    pub fn adaptive(p_min: usize, alpha: f64) -> Self {
        DegreeSelector::Adaptive {
            p_min,
            p_max: crate::tables::MAX_DEGREE,
            alpha,
            weighting: DegreeWeighting::default(),
        }
    }

    /// A tolerance-driven selector with default degree range.
    #[must_use]
    pub fn tolerance(tol: f64) -> Self {
        DegreeSelector::Tolerance {
            tol,
            p_min: 1,
            p_max: crate::tables::MAX_DEGREE,
        }
    }

    /// The weight of a cluster with absolute charge `abs_charge` in a cube
    /// of edge `d` under this selector's weighting.
    #[must_use]
    pub fn weight(&self, abs_charge: f64, d: f64) -> f64 {
        match self {
            DegreeSelector::Fixed(_) | DegreeSelector::Tolerance { .. } => abs_charge,
            DegreeSelector::Adaptive { weighting, .. } => match weighting {
                DegreeWeighting::Charge => abs_charge,
                DegreeWeighting::ChargeOverDistance => {
                    if d > 0.0 {
                        abs_charge / d
                    } else {
                        abs_charge
                    }
                }
            },
        }
    }

    /// The degree to store for a whole cluster, given its geometry and the
    /// run's MAC parameter. This is the entry point the treecode's upward
    /// pass uses; it dispatches on the policy:
    ///
    /// * `Fixed(p)` → `p`,
    /// * `Adaptive` → the Theorem-3 rule on the cluster weight relative to
    ///   `ref_weight`,
    /// * `Tolerance` → the smallest degree meeting `tol` at the worst
    ///   distance the α-criterion can admit this cluster from (`r = d/α`).
    #[must_use]
    pub fn degree_for_node(
        &self,
        abs_charge: f64,
        radius: f64,
        edge: f64,
        alpha: f64,
        ref_weight: f64,
    ) -> usize {
        match *self {
            DegreeSelector::Fixed(p) => p,
            DegreeSelector::Adaptive { .. } => {
                self.degree_for(self.weight(abs_charge, edge), ref_weight)
            }
            DegreeSelector::Tolerance { tol, p_min, p_max } => {
                if alpha <= 0.0 || edge <= 0.0 {
                    return p_min;
                }
                let r_min = edge / alpha;
                degree_for_tolerance_at(abs_charge, radius, r_min, tol, p_max).max(p_min)
            }
        }
    }

    /// The degree to use for a cluster of the given weight, relative to the
    /// reference weight `ref_weight` (the smallest leaf-cluster weight):
    ///
    /// ```text
    /// p = clamp(p_min + ⌈ log(w / w_ref) / log(1/κ) ⌉, p_min, p_max)
    /// ```
    ///
    /// so that `w · κ^{p+1} ≈ w_ref · κ^{p_min+1}` — every admitted
    /// interaction carries about the same error (Theorem 3).
    #[must_use]
    pub fn degree_for(&self, weight: f64, ref_weight: f64) -> usize {
        match *self {
            DegreeSelector::Fixed(p) => p,
            // weight-based selection does not apply; callers in Tolerance
            // mode use `degree_for_node` / `degree_for_tolerance_at`
            DegreeSelector::Tolerance { p_min, .. } => p_min,
            DegreeSelector::Adaptive {
                p_min,
                p_max,
                alpha,
                ..
            } => {
                let k = kappa(alpha);
                if !(k > 0.0 && k < 1.0) || weight <= 0.0 || ref_weight <= 0.0 {
                    return p_min;
                }
                let ratio = weight / ref_weight;
                if ratio <= 1.0 {
                    return p_min;
                }
                let extra = (ratio.ln() / (1.0 / k).ln()).ceil();
                let p = p_min as f64 + extra;
                (p as usize).clamp(p_min, p_max)
            }
        }
    }

    /// The largest degree this selector can emit.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        match *self {
            DegreeSelector::Fixed(p) => p,
            DegreeSelector::Adaptive { p_max, .. } | DegreeSelector::Tolerance { p_max, .. } => {
                p_max
            }
        }
    }
}

/// Smallest degree `p ≤ p_max` whose Theorem-1 bound at distance `r` for a
/// cluster of absolute charge `abs_charge` and radius `a` falls below
/// `tol`. Cheap: one multiply per candidate degree.
#[inline]
#[must_use]
pub fn degree_for_tolerance_at(abs_charge: f64, a: f64, r: f64, tol: f64, p_max: usize) -> usize {
    if r <= a || abs_charge <= 0.0 {
        return if abs_charge <= 0.0 { 0 } else { p_max };
    }
    let ratio = a / r;
    let mut bound = abs_charge / (r - a) * ratio; // Theorem 1 at p = 0
    let mut p = 0usize;
    while bound > tol && p < p_max {
        bound *= ratio;
        p += 1;
    }
    p
}

/// Smallest degree `p` such that the Theorem-2 bound for the given
/// interaction drops below `tol` (or `p_max` if none does). Useful for
/// tolerance-driven runs rather than reference-weight-driven ones.
#[must_use]
pub fn degree_for_tolerance(abs_charge: f64, d: f64, r: f64, tol: f64, p_max: usize) -> usize {
    for p in 0..=p_max {
        if theorem2_bound(abs_charge, d, r, p) <= tol {
            return p;
        }
    }
    p_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_monotone_in_p_and_r() {
        let (a, q) = (0.5, 10.0);
        let b1 = theorem1_bound(q, a, 2.0, 4);
        let b2 = theorem1_bound(q, a, 2.0, 8);
        assert!(b2 < b1, "bound must shrink with p");
        let b3 = theorem1_bound(q, a, 4.0, 4);
        assert!(b3 < b1, "bound must shrink with r");
        assert!(theorem1_bound(q, a, 0.4, 4).is_infinite());
        assert!(theorem1_bound(q, a, 0.5, 4).is_infinite());
    }

    #[test]
    fn theorem1_linear_in_charge() {
        let b1 = theorem1_bound(1.0, 0.3, 1.0, 5);
        let b8 = theorem1_bound(8.0, 0.3, 1.0, 5);
        assert!((b8 / b1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn kappa_convergence_domain() {
        assert!(kappa(0.999) < 1.0);
        assert!(kappa(1.16) > 1.0);
        assert!((kappa(1.0) - CUBE_CIRCUMRADIUS_RATIO).abs() < 1e-15);
    }

    #[test]
    fn fixed_selector_ignores_weight() {
        let s = DegreeSelector::Fixed(6);
        assert_eq!(s.degree_for(1.0, 1.0), 6);
        assert_eq!(s.degree_for(1e9, 1.0), 6);
        assert_eq!(s.max_degree(), 6);
    }

    #[test]
    fn adaptive_monotone_in_weight() {
        let s = DegreeSelector::adaptive(4, 0.7);
        let mut last = 0;
        for w in [1.0, 2.0, 8.0, 64.0, 512.0, 4096.0] {
            let p = s.degree_for(w, 1.0);
            assert!(p >= last, "degree must be nondecreasing in weight");
            assert!(p >= 4);
            last = p;
        }
        assert!(last > 4, "large clusters must get a higher degree");
    }

    #[test]
    fn adaptive_equalizes_error() {
        // With p chosen by the rule, w·κ^{p+1} stays within a factor 1/κ of
        // the reference error level.
        let alpha = 0.6;
        let s = DegreeSelector::adaptive(3, alpha);
        let k = kappa(alpha);
        let ref_err = 1.0 * k.powi(3 + 1);
        for w in [1.0, 3.0, 10.0, 100.0, 1e4, 1e6] {
            let p = s.degree_for(w, 1.0);
            let err = w * k.powi(p as i32 + 1);
            assert!(
                err <= ref_err * 1.000_001,
                "w={w}: err {err} exceeds reference {ref_err}"
            );
            // and not over-refined by more than one degree step
            if p > 3 {
                let err_prev = w * k.powi(p as i32);
                assert!(err_prev > ref_err * 0.999_999, "w={w}: degree over-refined");
            }
        }
    }

    #[test]
    fn adaptive_clamps_and_handles_degenerate_weights() {
        let s = DegreeSelector::Adaptive {
            p_min: 2,
            p_max: 5,
            alpha: 0.9,
            weighting: DegreeWeighting::Charge,
        };
        assert_eq!(s.degree_for(1e30, 1.0), 5);
        assert_eq!(s.degree_for(0.0, 1.0), 2);
        assert_eq!(s.degree_for(1.0, 0.0), 2);
        assert_eq!(s.degree_for(0.5, 1.0), 2);
    }

    #[test]
    fn weighting_variants() {
        let charge = DegreeSelector::Adaptive {
            p_min: 2,
            p_max: 30,
            alpha: 0.5,
            weighting: DegreeWeighting::Charge,
        };
        let over_d = DegreeSelector::Adaptive {
            p_min: 2,
            p_max: 30,
            alpha: 0.5,
            weighting: DegreeWeighting::ChargeOverDistance,
        };
        assert_eq!(charge.weight(8.0, 2.0), 8.0);
        assert_eq!(over_d.weight(8.0, 2.0), 4.0);
        // uniform density: doubling the box edge scales A by 8; A/d by 4 —
        // the A/d rule must prescribe a smaller or equal degree
        let p_charge = charge.degree_for(charge.weight(8.0, 2.0), 1.0);
        let p_over_d = over_d.degree_for(over_d.weight(8.0, 2.0), 1.0);
        assert!(p_over_d <= p_charge);
    }

    #[test]
    fn tolerance_selector_basics() {
        let s = DegreeSelector::Tolerance {
            tol: 1e-6,
            p_min: 2,
            p_max: 30,
        };
        assert_eq!(s.max_degree(), 30);
        // weight-based entry point degrades to p_min
        assert_eq!(s.degree_for(1e9, 1.0), 2);
        // node-level selection respects the bound
        let p = s.degree_for_node(50.0, 0.4, 0.8, 0.5, 1.0);
        assert!((2..=30).contains(&p));
        assert!(theorem1_bound(50.0, 0.4, 0.8 / 0.5, p) <= 1e-6);
        // heavier cluster at the same geometry needs at least as much
        let p2 = s.degree_for_node(5000.0, 0.4, 0.8, 0.5, 1.0);
        assert!(p2 >= p);
        // degenerate geometry falls back to the floor
        assert_eq!(s.degree_for_node(1.0, 0.0, 0.0, 0.5, 1.0), 2);
    }

    #[test]
    fn degree_for_tolerance_at_matches_bound() {
        let (a, q, r, tol) = (0.3, 12.0, 1.1, 1e-7);
        let p = degree_for_tolerance_at(q, a, r, tol, 40);
        assert!(theorem1_bound(q, a, r, p) <= tol);
        if p > 0 {
            assert!(theorem1_bound(q, a, r, p - 1) > tol);
        }
        // point cluster (a = 0): monopole is exact
        assert_eq!(degree_for_tolerance_at(q, 0.0, r, tol, 40), 0);
        // inside the sphere: clamp at p_max
        assert_eq!(degree_for_tolerance_at(q, 0.5, 0.4, tol, 17), 17);
        // zero charge needs nothing
        assert_eq!(degree_for_tolerance_at(0.0, a, r, tol, 40), 0);
        // closer targets need more degrees
        let near = degree_for_tolerance_at(q, a, 0.5, tol, 40);
        let far = degree_for_tolerance_at(q, a, 5.0, tol, 40);
        assert!(near > far);
    }

    #[test]
    fn tolerance_driven_degree() {
        let p = degree_for_tolerance(10.0, 1.0, 2.5, 1e-6, 40);
        assert!(p > 0 && p < 40);
        assert!(theorem2_bound(10.0, 1.0, 2.5, p) <= 1e-6);
        assert!(theorem2_bound(10.0, 1.0, 2.5, p - 1) > 1e-6);
        // unreachable tolerance clamps at p_max
        assert_eq!(degree_for_tolerance(10.0, 1.0, 1.05, 1e-30, 12), 12);
    }
}
