//! Treecode run parameters.

use mbt_multipole::{DegreeSelector, MAX_DEGREE};
use mbt_tree::TreeError;

/// How the adaptive rule's reference weight `w_ref` (the paper's
/// "threshold value" that receives the minimum degree) is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RefWeight {
    /// The median leaf-cluster weight (default). Clusters at or below a
    /// typical leaf get `p_min`; only genuinely heavier clusters are
    /// boosted — this is the paper's thresholding, and keeps the term-count
    /// overhead within the small constant of Theorem 4.
    #[default]
    MedianLeaf,
    /// A caller-supplied threshold weight.
    Explicit(f64),
}

/// Which execution strategy an evaluation sweep uses. Both modes run the
/// identical α-MAC traversal and account identical interaction counts;
/// they differ only in how the arithmetic is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// One target at a time, interleaved with traversal — the bit-exact
    /// reference path (and the default, so existing results are
    /// reproducible bit for bit).
    #[default]
    Scalar,
    /// Two-phase: compile per-chunk traversals into flat, degree-bucketed
    /// interaction lists, then execute them with batched SoA kernels
    /// (`mbt-multipole::batch`). Per interaction the arithmetic is
    /// bit-identical to the scalar path; per-target totals differ only by
    /// a documented summation reordering (DESIGN.md §10).
    Compiled,
}

/// Arithmetic precision of the near-field (P2P) kernels in compiled
/// evaluation sweeps.
///
/// The far field (M2P) always runs in f64 — truncation error there is
/// governed by the paper's Theorems 1/2 and would be swamped by f32
/// roundoff at useful degrees. The near field has no truncation error at
/// all, so its precision can be lowered whenever the *far-field* bound
/// already exceeds the near-field roundoff budget
/// ([`mbt_multipole::bounds::f32_near_admissible`] states the inequality).
/// The engine's accuracy resolver applies that test automatically;
/// setting `F32Near` here opts a hand-built parameter set in directly.
///
/// Scalar-mode sweeps ignore the knob: they are the bit-exact f64
/// reference path by definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full double precision everywhere (default; bit-exact reference).
    #[default]
    F64,
    /// Single-precision near field over the tree's f32 particle mirror;
    /// far field stays f64. Sound only when the truncation bound
    /// dominates f32 roundoff — see the admission rule above.
    F32Near,
}

/// Parameters of a treecode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreecodeParams {
    /// Multipole acceptance parameter: a cluster in a box of edge `d` at
    /// distance `r` from the target is admitted when `d ≤ α·r`. Must be
    /// positive; guaranteed convergence of the error bounds requires
    /// `α < 2/√3 ≈ 1.1547` (the paper uses `α < 1`).
    pub alpha: f64,
    /// Degree policy: `Fixed(p)` is the original Barnes–Hut method,
    /// `Adaptive {..}` the paper's improved method.
    pub degree: DegreeSelector,
    /// Maximum particles per leaf (32–64 recommended by the paper for
    /// cache behaviour).
    pub leaf_capacity: usize,
    /// Aggregation width `w`: number of consecutive (proximity-ordered)
    /// targets evaluated per parallel work unit.
    pub eval_chunk: usize,
    /// Reference-weight policy for the adaptive rule (ignored by
    /// `Fixed(_)`).
    pub ref_weight: RefWeight,
    /// Plummer softening length ε: near-field pair interactions use
    /// `1/√(r²+ε²)` instead of `1/r`. Zero (default) is the exact kernel.
    /// Standard in gravitational N-body work to regularise close
    /// encounters; the far field is unchanged because the α-criterion
    /// admits clusters only at distances far beyond any sensible ε.
    pub softening: f64,
    /// Execution strategy of evaluation sweeps (default: [`EvalMode::Scalar`]).
    pub eval_mode: EvalMode,
    /// Near-field arithmetic precision for compiled sweeps (default:
    /// [`Precision::F64`]; ignored in scalar mode).
    pub near_precision: Precision,
}

impl TreecodeParams {
    /// Original Barnes–Hut: fixed degree `p` for every cluster.
    #[must_use]
    pub fn fixed(p: usize, alpha: f64) -> Self {
        TreecodeParams {
            alpha,
            degree: DegreeSelector::Fixed(p),
            leaf_capacity: 32,
            eval_chunk: 64,
            ref_weight: RefWeight::default(),
            softening: 0.0,
            eval_mode: EvalMode::Scalar,
            near_precision: Precision::F64,
        }
    }

    /// The paper's improved method with defaults (`ChargeOverDistance`
    /// weighting, `p_max = MAX_DEGREE`).
    #[must_use]
    pub fn adaptive(p_min: usize, alpha: f64) -> Self {
        TreecodeParams {
            alpha,
            degree: DegreeSelector::adaptive(p_min, alpha),
            leaf_capacity: 32,
            eval_chunk: 64,
            ref_weight: RefWeight::default(),
            softening: 0.0,
            eval_mode: EvalMode::Scalar,
            near_precision: Precision::F64,
        }
    }

    /// Tolerance-driven degrees: each interaction meets an absolute error
    /// budget `tol` at its actual distance (per-interaction truncation of
    /// series stored at the worst-case degree).
    #[must_use]
    pub fn tolerance(tol: f64, alpha: f64) -> Self {
        TreecodeParams {
            alpha,
            degree: DegreeSelector::tolerance(tol),
            leaf_capacity: 32,
            eval_chunk: 64,
            ref_weight: RefWeight::default(),
            softening: 0.0,
            eval_mode: EvalMode::Scalar,
            near_precision: Precision::F64,
        }
    }

    /// Sets the Plummer softening length.
    #[must_use]
    pub fn with_softening(mut self, softening: f64) -> Self {
        self.softening = softening.max(0.0);
        self
    }

    /// Sets the reference-weight policy.
    #[must_use]
    pub fn with_ref_weight(mut self, ref_weight: RefWeight) -> Self {
        self.ref_weight = ref_weight;
        self
    }

    /// Sets the leaf capacity.
    #[must_use]
    pub fn with_leaf_capacity(mut self, leaf_capacity: usize) -> Self {
        self.leaf_capacity = leaf_capacity;
        self
    }

    /// Sets the aggregation width.
    #[must_use]
    pub fn with_eval_chunk(mut self, eval_chunk: usize) -> Self {
        self.eval_chunk = eval_chunk.max(1);
        self
    }

    /// Sets the evaluation execution strategy.
    #[must_use]
    pub fn with_eval_mode(mut self, eval_mode: EvalMode) -> Self {
        self.eval_mode = eval_mode;
        self
    }

    /// Sets the near-field arithmetic precision (compiled sweeps only).
    #[must_use]
    pub fn with_near_precision(mut self, near_precision: Precision) -> Self {
        self.near_precision = near_precision;
        self
    }

    /// Validates the parameter set.
    pub fn validate(&self) -> Result<(), TreecodeError> {
        if self.alpha.is_nan() || self.alpha <= 0.0 || !self.alpha.is_finite() {
            return Err(TreecodeError::InvalidAlpha(self.alpha));
        }
        let max_p = self.degree.max_degree();
        if max_p > MAX_DEGREE {
            return Err(TreecodeError::DegreeTooLarge(max_p));
        }
        if let DegreeSelector::Tolerance { tol, .. } = self.degree {
            if tol.is_nan() || tol <= 0.0 || !tol.is_finite() {
                return Err(TreecodeError::InvalidTolerance(tol));
            }
        }
        if self.leaf_capacity == 0 {
            return Err(TreecodeError::Tree(TreeError::ZeroLeafCapacity));
        }
        if let RefWeight::Explicit(w) = self.ref_weight {
            // w_ref divides inside Theorem 3's log(w_j / w_ref): zero,
            // negative, or non-finite thresholds yield garbage degrees
            if w.is_nan() || w <= 0.0 || !w.is_finite() {
                return Err(TreecodeError::InvalidRefWeight(w));
            }
        }
        // `softening` is a pub field, so literal construction (and
        // engine-supplied `Accuracy::Params`) can bypass `with_softening`'s
        // clamp; a NaN/∞/negative ε poisons every 1/√(r²+ε²) kernel
        if self.softening.is_nan() || self.softening < 0.0 || !self.softening.is_finite() {
            return Err(TreecodeError::InvalidSoftening(self.softening));
        }
        Ok(())
    }
}

impl Default for TreecodeParams {
    /// The paper's improved method at `p_min = 4, α = 0.5`.
    fn default() -> Self {
        TreecodeParams::adaptive(4, 0.5)
    }
}

/// Treecode construction failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TreecodeError {
    /// Underlying octree construction (or charge update) failed.
    Tree(TreeError),
    /// `alpha` was zero, negative, or non-finite.
    InvalidAlpha(f64),
    /// Requested degree exceeds the table limit [`MAX_DEGREE`].
    DegreeTooLarge(usize),
    /// A tolerance-driven run was configured with a non-positive or
    /// non-finite tolerance.
    InvalidTolerance(f64),
    /// `RefWeight::Explicit` carried a zero, negative, or non-finite
    /// reference weight.
    InvalidRefWeight(f64),
    /// The Plummer softening length was negative or non-finite.
    InvalidSoftening(f64),
}

impl std::fmt::Display for TreecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreecodeError::Tree(e) => write!(f, "tree construction failed: {e}"),
            TreecodeError::InvalidAlpha(a) => write!(f, "invalid MAC parameter alpha = {a}"),
            TreecodeError::DegreeTooLarge(p) => {
                write!(f, "degree {p} exceeds the supported maximum {MAX_DEGREE}")
            }
            TreecodeError::InvalidTolerance(t) => {
                write!(f, "invalid interaction tolerance {t}")
            }
            TreecodeError::InvalidRefWeight(w) => {
                write!(f, "invalid explicit reference weight w_ref = {w}")
            }
            TreecodeError::InvalidSoftening(eps) => {
                write!(f, "invalid softening length epsilon = {eps}")
            }
        }
    }
}

impl std::error::Error for TreecodeError {}

impl From<TreeError> for TreecodeError {
    fn from(e: TreeError) -> Self {
        TreecodeError::Tree(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_validation() {
        assert!(TreecodeParams::fixed(5, 0.7).validate().is_ok());
        assert!(TreecodeParams::adaptive(3, 0.5).validate().is_ok());
        assert!(TreecodeParams::default().validate().is_ok());
        assert!(matches!(
            TreecodeParams::fixed(5, 0.0).validate(),
            Err(TreecodeError::InvalidAlpha(_))
        ));
        assert!(matches!(
            TreecodeParams::fixed(5, f64::NAN).validate(),
            Err(TreecodeError::InvalidAlpha(_))
        ));
        assert!(matches!(
            TreecodeParams::fixed(99, 0.5).validate(),
            Err(TreecodeError::DegreeTooLarge(99))
        ));
        assert!(matches!(
            TreecodeParams::fixed(5, 0.5)
                .with_leaf_capacity(0)
                .validate(),
            Err(TreecodeError::Tree(TreeError::ZeroLeafCapacity))
        ));
    }

    #[test]
    fn explicit_ref_weight_is_validated() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = TreecodeParams::adaptive(3, 0.5).with_ref_weight(RefWeight::Explicit(w));
            assert!(
                matches!(p.validate(), Err(TreecodeError::InvalidRefWeight(_))),
                "w_ref = {w} accepted"
            );
        }
        let ok = TreecodeParams::adaptive(3, 0.5).with_ref_weight(RefWeight::Explicit(2.5));
        assert!(ok.validate().is_ok());
        // the policy choice carries no caller value and stays unchecked
        assert!(TreecodeParams::adaptive(3, 0.5)
            .with_ref_weight(RefWeight::MedianLeaf)
            .validate()
            .is_ok());
    }

    #[test]
    fn softening_is_validated() {
        // the pub field bypasses with_softening's clamp
        for eps in [-1e-3, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = TreecodeParams::fixed(4, 0.6);
            p.softening = eps;
            assert!(
                matches!(p.validate(), Err(TreecodeError::InvalidSoftening(_))),
                "softening = {eps} accepted"
            );
        }
        let mut p = TreecodeParams::fixed(4, 0.6);
        p.softening = 1e-3;
        assert!(p.validate().is_ok());
        // with_softening clamps negatives to the valid range
        assert!(TreecodeParams::fixed(4, 0.6)
            .with_softening(-5.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn builder_setters() {
        let p = TreecodeParams::fixed(4, 0.6)
            .with_leaf_capacity(8)
            .with_eval_chunk(0);
        assert_eq!(p.leaf_capacity, 8);
        assert_eq!(p.eval_chunk, 1); // clamped
    }

    #[test]
    fn near_precision_defaults_to_f64() {
        for p in [
            TreecodeParams::fixed(4, 0.6),
            TreecodeParams::adaptive(3, 0.5),
            TreecodeParams::tolerance(1e-6, 0.5),
            TreecodeParams::default(),
        ] {
            assert_eq!(p.near_precision, Precision::F64);
        }
        let p = TreecodeParams::fixed(4, 0.7).with_near_precision(Precision::F32Near);
        assert_eq!(p.near_precision, Precision::F32Near);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn error_display() {
        let e = TreecodeError::InvalidAlpha(-1.0);
        assert!(format!("{e}").contains("alpha"));
        let e = TreecodeError::DegreeTooLarge(99);
        assert!(format!("{e}").contains("99"));
    }
}
