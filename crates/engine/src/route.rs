//! Accuracy-tiered backend routing.
//!
//! The paper's Theorem 1/2/3 machinery exists to pick the *cheapest*
//! expansion machinery that meets a tolerance. The router applies it per
//! query shape:
//!
//! * **tiny-n** sources → [`Backend::Direct`]: a guarded direct sum is
//!   both the fastest option and *exact* (its Theorem bound is zero), so
//!   it trivially meets any requested accuracy;
//! * **all-targets / matvec** shapes (many targets against many sources)
//!   → [`Backend::Fmm`]: the compiled FMM amortises its per-cell local
//!   expansions across every target in the cell, turning the per-target
//!   `O(log n)` treecode traversal into `O(1)` local work;
//! * everything else → [`Backend::Treecode`]: the compiled treecode M2P
//!   path, whose per-target cost is unbeatable for few-targets requests.
//!
//! **Theorem-bound admission.** The FMM is only selected when its
//! resolved truncation bound is no worse than the bound the request
//! already accepted by asking for MAC parameter α: the FMM's M2L list
//! admits the nearest non-adjacent cell — cluster radius `a = d·√3/2` at
//! center separation `r = 2d` — which is exactly a Theorem-2 interaction
//! at effective MAC `α_eff = d/r = 1/2`. Since the Theorem 1/2 bound is
//! monotone in α (smaller α ⇒ larger separation ⇒ smaller error at equal
//! degree), routing to the FMM is admissible **iff** `α ≥ 1/2`
//! (`kappa(α_eff) ≤ kappa(α)`); requests with a tighter MAC than the FMM
//! geometry can honour stay on the treecode. Degree policies carry over
//! unchanged: `Fixed(p)` keeps `p`, `Adaptive` keeps the Theorem-3 ramp
//! (its κ comes from the *requested* α ≥ α_eff, prescribing at least the
//! degrees the FMM geometry needs), and `Tolerance` resolves per level
//! against the FMM's own worst-case geometry inside `mbt-fmm`.
//!
//! Routing is the same in every build: under the `validate` feature the
//! contract checks run on whichever backend serves the query.

use mbt_fmm::FmmParams;
use mbt_multipole::kappa;
use mbt_treecode::TreecodeParams;

/// Which evaluation machinery serves a routed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Guarded direct summation (tiny-n; exact).
    Direct,
    /// The compiled treecode M2P path (the default).
    #[default]
    Treecode,
    /// The compiled FMM (all-targets / matvec shapes).
    Fmm,
}

impl Backend {
    /// Stable snake_case name, used as a metric label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Direct => "direct",
            Backend::Treecode => "treecode",
            Backend::Fmm => "fmm",
        }
    }
}

/// Largest source count served by direct summation: below this the
/// direct sweep beats either tree build even on a cold cache, and it is
/// exact.
pub const DIRECT_MAX_SOURCES: usize = 512;

/// Smallest source count the FMM is considered for — below this the
/// treecode's lighter build wins regardless of target count.
pub const FMM_MIN_SOURCES: usize = 4096;

/// Smallest target count (absolute, and relative to sources as
/// `n_targets ≥ n_sources / 16`) that makes a request "all-targets"
/// shaped: the FMM's per-cell local expansions only pay off when enough
/// targets share each finest cell.
pub const FMM_MIN_TARGETS: usize = 128;

/// The FMM's effective MAC parameter: its M2L lists admit the nearest
/// non-adjacent cell, a Theorem-2 interaction at `α_eff = d/r = 1/2`
/// (see the module docs). Requests at `α < 1/2` demand a wider
/// separation than the FMM geometry provides and stay on the treecode.
pub const FMM_ALPHA_EFF: f64 = 0.5;

/// Whether the compiled FMM's resolved Theorem 1/2 bound is no worse
/// than what the request already accepted at MAC parameter `alpha`:
/// `kappa(FMM_ALPHA_EFF) ≤ kappa(alpha)`.
#[must_use]
pub fn fmm_admissible(alpha: f64) -> bool {
    kappa(FMM_ALPHA_EFF) <= kappa(alpha)
}

/// Picks the backend for a query of `n_targets` points against
/// `n_sources` particles under the resolved `params`.
///
/// `pinned` forces the treecode: sharded datasets (served by the
/// skeleton fan-out, a treecode-only path) and explicit
/// [`crate::Accuracy::Params`] requests (whose parameters name a treecode
/// run) set it.
#[must_use]
pub fn route(n_sources: usize, n_targets: usize, pinned: bool, params: &TreecodeParams) -> Backend {
    if pinned {
        return Backend::Treecode;
    }
    if n_sources <= DIRECT_MAX_SOURCES {
        return Backend::Direct;
    }
    let matvec_shaped = n_targets >= FMM_MIN_TARGETS && n_targets * 16 >= n_sources;
    if n_sources >= FMM_MIN_SOURCES
        && matvec_shaped
        && fmm_admissible(params.alpha)
        // lint: allow(float_cmp, exact-zero gate: any softening at all changes the kernel the FMM cannot reproduce)
        && params.softening == 0.0
    {
        return Backend::Fmm;
    }
    Backend::Treecode
}

/// The FMM parameters a routed request runs with: the treecode's degree
/// policy carried over unchanged (see the module docs for why each
/// variant stays conservative under the FMM's `α_eff = 1/2` geometry),
/// automatic level selection.
#[must_use]
pub fn fmm_params_for(params: &TreecodeParams) -> FmmParams {
    FmmParams {
        levels: None,
        degree: params.degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(alpha: f64) -> TreecodeParams {
        TreecodeParams::fixed(4, alpha)
    }

    #[test]
    fn tiny_n_routes_direct() {
        assert_eq!(route(10, 10_000, false, &params(0.6)), Backend::Direct);
        assert_eq!(
            route(DIRECT_MAX_SOURCES, 1, false, &params(0.6)),
            Backend::Direct
        );
    }

    #[test]
    fn matvec_shape_routes_fmm() {
        // all-targets: every source is a target
        assert_eq!(route(100_000, 100_000, false, &params(0.6)), Backend::Fmm);
        // matvec against a mesh: targets a fraction of sources but dense
        assert_eq!(route(100_000, 10_000, false, &params(0.6)), Backend::Fmm);
    }

    #[test]
    fn few_targets_stay_on_the_treecode() {
        assert_eq!(route(100_000, 50, false, &params(0.6)), Backend::Treecode);
        // relatively few targets: below n_sources / 16
        assert_eq!(route(100_000, 200, false, &params(0.6)), Backend::Treecode);
    }

    #[test]
    fn mid_size_sources_stay_on_the_treecode() {
        assert_eq!(route(2_000, 2_000, false, &params(0.6)), Backend::Treecode);
    }

    #[test]
    fn theorem_admission_gates_the_fmm() {
        // α < 1/2 demands a wider separation than the FMM's M2L geometry
        assert!(!fmm_admissible(0.4));
        assert_eq!(
            route(100_000, 100_000, false, &params(0.4)),
            Backend::Treecode
        );
        assert!(fmm_admissible(0.5));
        assert!(fmm_admissible(0.9));
    }

    #[test]
    fn softened_kernels_stay_on_the_treecode() {
        let softened = params(0.6).with_softening(1e-3);
        assert_eq!(route(100_000, 100_000, false, &softened), Backend::Treecode);
    }

    #[test]
    fn pinned_requests_stay_on_the_treecode() {
        assert_eq!(route(10, 10, true, &params(0.6)), Backend::Treecode);
        assert_eq!(
            route(100_000, 100_000, true, &params(0.6)),
            Backend::Treecode
        );
    }

    #[test]
    fn fmm_params_carry_the_degree_policy() {
        let p = TreecodeParams::adaptive(3, 0.7);
        let f = fmm_params_for(&p);
        assert_eq!(f.degree, p.degree);
        assert_eq!(f.levels, None);
        let t = TreecodeParams::tolerance(1e-6, 0.6);
        assert_eq!(fmm_params_for(&t).degree, t.degree);
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(Backend::Direct.as_str(), "direct");
        assert_eq!(Backend::Treecode.as_str(), "treecode");
        assert_eq!(Backend::Fmm.as_str(), "fmm");
        assert_eq!(Backend::default(), Backend::Treecode);
    }
}
