//! Portable explicit-SIMD layer: lane types, CPU dispatch, and the only
//! `unsafe` in the crate.
//!
//! The batch kernels ([`crate::batch`]) are written against two
//! primitives from this module:
//!
//! * **Lane type** [`Lanes<T, N>`] (aliases [`F64Lanes<N>`] /
//!   [`F32Lanes<N>`]) — a thin `[T; N]` newtype over a [`Real`] element
//!   whose arithmetic is expressed as straight-line elementwise loops
//!   over a compile-time constant `N`. Every op is
//!   `#[inline(always)]`, so inside a kernel monomorphized for a given
//!   width the optimizer sees plain unrolled arithmetic on fixed-size
//!   arrays — the canonical shape LLVM lowers to full-width vector
//!   registers.
//! * **Dispatch** [`dispatch`] — runs a closure inside a wrapper
//!   compiled with the widest instruction set the running CPU supports
//!   (`#[target_feature]`), selected once at runtime. The closure is the
//!   monomorphized kernel body; inlining it into the wrapper gives the
//!   vectorizer AVX2/AVX-512 even when the crate's baseline target is
//!   plain x86-64. [`SimdLevel`] also fixes the lane *widths* the batch
//!   layer uses ([`m2p_lanes`], [`p2p_lanes_f64`], [`p2p_lanes_f32`]),
//!   so wider hardware gets wider degree buckets, not just wider
//!   instructions.
//!
//! No intrinsics are called directly: the `unsafe` here is exactly the
//! calls to the `#[target_feature]` wrappers, each guarded by the runtime
//! probe that proved the features present. Nothing `unsafe` is exported,
//! and the scalar fallback (forced by the `force-scalar` cargo feature,
//! by [`set_level`], or by running under Miri) executes the identical
//! generic code at the narrow baseline widths.
#![allow(unsafe_code)]

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier selected by runtime CPU detection.
///
/// The tier decides both which `#[target_feature]` wrapper [`dispatch`]
/// routes kernel bodies through and which lane widths the batch layer
/// assembles its groups with. `Scalar` is the portable fallback: the
/// same generic kernels at the baseline widths with no feature-gated
/// codegen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Baseline codegen, narrow lanes (4×f64 / 8×f32).
    Scalar,
    /// AVX2 + FMA: 256-bit registers, 4×f64 / 8×f32 lanes.
    Avx2,
    /// AVX-512 (F/DQ/VL): 512-bit registers, 8×f64 / 16×f32 lanes.
    Avx512,
}

impl SimdLevel {
    /// Stable machine-readable name (bench metadata, logs).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// f64 lane width for the M2P group kernels at this tier.
    #[must_use]
    pub fn m2p_lanes(self) -> usize {
        match self {
            SimdLevel::Scalar | SimdLevel::Avx2 => 4,
            SimdLevel::Avx512 => 8,
        }
    }

    /// f64 accumulator width for the P2P span kernels at this tier.
    #[must_use]
    pub fn p2p_lanes_f64(self) -> usize {
        match self {
            SimdLevel::Scalar | SimdLevel::Avx2 => 4,
            SimdLevel::Avx512 => 8,
        }
    }

    /// f32 accumulator width for the P2P span kernels at this tier.
    #[must_use]
    pub fn p2p_lanes_f32(self) -> usize {
        match self {
            SimdLevel::Scalar | SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    fn rank(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Avx512 => 3,
        }
    }

    fn from_rank(rank: u8) -> SimdLevel {
        match rank {
            3 => SimdLevel::Avx512,
            2 => SimdLevel::Avx2,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Cached dispatch decision: 0 = undetected, otherwise `SimdLevel::rank`.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Probes the running CPU, ignoring the cache and any override.
#[must_use]
pub fn detect() -> SimdLevel {
    // Miri interprets rather than executes; keep it (and the scheduled CI
    // miri job) on the deterministic portable path.
    #[cfg(miri)]
    {
        SimdLevel::Scalar
    }
    #[cfg(all(not(miri), target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("fma")
        {
            SimdLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(all(not(miri), not(target_arch = "x86_64")))]
    {
        SimdLevel::Scalar
    }
}

/// The dispatch tier in effect: detected once, cached, and clamped to
/// `Scalar` when the `force-scalar` feature is on.
#[must_use]
pub fn level() -> SimdLevel {
    if cfg!(feature = "force-scalar") {
        return SimdLevel::Scalar;
    }
    // ordering: Relaxed — the rank is a self-contained value; redundant detection races are benign
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != 0 {
        return SimdLevel::from_rank(cached);
    }
    let detected = detect();
    // ordering: Relaxed — idempotent cache fill; every detector writes the same rank
    LEVEL.store(detected.rank(), Ordering::Relaxed);
    detected
}

/// Overrides the dispatch tier (benchmark column sweeps, fallback tests).
///
/// The request is clamped to what [`detect`] proves safe, so asking for
/// AVX-512 on an AVX2 machine yields AVX2; the applied tier is returned.
/// Under `force-scalar` the override is recorded but [`level`] keeps
/// answering `Scalar`. Takes effect for *subsequent* sweeps: a kernel
/// dispatch in flight keeps the width it started with.
pub fn set_level(requested: SimdLevel) -> SimdLevel {
    let applied = SimdLevel::from_rank(requested.rank().min(detect().rank()));
    // ordering: Relaxed — the rank is a self-contained value; in-flight dispatches keep their width
    LEVEL.store(applied.rank(), Ordering::Relaxed);
    if cfg!(feature = "force-scalar") {
        SimdLevel::Scalar
    } else {
        applied
    }
}

/// Dispatched f64 lane width for M2P group kernels.
#[must_use]
pub fn m2p_lanes() -> usize {
    level().m2p_lanes()
}

/// Hardware f64 register width the P2P span kernels lower to. The
/// kernels always run the fixed logical width
/// [`crate::batch::P2P_LANES`]; this only reports how many of those
/// lanes fit one register at the dispatched level.
#[must_use]
pub fn p2p_lanes_f64() -> usize {
    level().p2p_lanes_f64()
}

/// Hardware f32 register width the P2P span kernels lower to (logical
/// width is [`crate::batch::P2P_LANES_F32`]; see [`p2p_lanes_f64`]).
#[must_use]
pub fn p2p_lanes_f32() -> usize {
    level().p2p_lanes_f32()
}

/// Runs `f` inside the widest `#[target_feature]` wrapper the CPU
/// supports, so the inlined closure body is compiled with that
/// instruction set. The closure must not capture anything whose code
/// depends on the ambient target features (plain arithmetic kernels do
/// not). Safe to call from any thread; the tier is read once.
#[inline]
pub fn dispatch<R>(f: impl FnOnce() -> R) -> R {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            // SAFETY: `level()` reports Avx512 only after runtime feature
            // detection confirmed avx512f/dq/vl+fma (overrides are clamped).
            unsafe { dispatch_avx512(f) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level()` reports Avx2 only after runtime feature
            // detection confirmed avx2+fma (overrides are clamped).
            unsafe { dispatch_avx2(f) }
        }
        _ => f(),
    }
}

// SAFETY: caller guarantees avx512f/dq/vl+fma (checked in `dispatch`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn dispatch_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

// SAFETY: caller guarantees avx2+fma (checked in `dispatch`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dispatch_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// A lane element: `f64` or `f32`, the two precisions the batch kernels
/// run in.
pub trait Real:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Into<f64>
{
    /// Additive identity.
    const ZERO: Self;
    /// Rounds an f64 into this precision (`as` conversion).
    fn from_f64(v: f64) -> Self;
    /// Correctly rounded square root.
    #[must_use]
    fn sqrt(self) -> Self;
}

impl Real for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
}

impl Real for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
}

/// `N` lanes of `T` with elementwise arithmetic.
///
/// A `repr(transparent)` newtype over `[T; N]`: every op is an
/// `#[inline(always)]` fixed-trip-count loop, the shape LLVM reliably
/// lowers to vector registers inside a [`dispatch`]ed kernel. Arithmetic
/// is plain (no implicit FMA contraction); the one fused operation is the
/// explicit `Lanes::mul_add`, which is correctly rounded at every tier.
/// So lane `l` of any expression is bit-identical to evaluating the same
/// scalar expression on lane `l` alone — the property the batch layer's
/// lane-independence and padded-tail contracts rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Lanes<T, const N: usize>(pub [T; N]);

/// `N` f64 lanes.
pub type F64Lanes<const N: usize> = Lanes<f64, N>;

/// `N` f32 lanes.
pub type F32Lanes<const N: usize> = Lanes<f32, N>;

impl<T: Real, const N: usize> Lanes<T, N> {
    /// All lanes equal to `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: T) -> Self {
        Self([v; N])
    }

    /// Lanes from the first `N` elements of `s` (panics if shorter).
    #[inline(always)]
    #[must_use]
    pub fn load(s: &[T]) -> Self {
        let mut out = [T::ZERO; N];
        out.copy_from_slice(&s[..N]);
        Self(out)
    }

    /// Lane `l` = `f(l)`.
    #[inline(always)]
    #[must_use]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        Self(std::array::from_fn(f))
    }

    /// Writes the lanes to the first `N` elements of `dst`
    /// (panics if shorter).
    #[inline(always)]
    pub fn store(self, dst: &mut [T]) {
        dst[..N].copy_from_slice(&self.0);
    }

    /// Elementwise square root.
    #[inline(always)]
    #[must_use]
    pub fn sqrt(self) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = v.sqrt();
        }
        Self(out)
    }

    /// Lane `l` where `pred[l] > 0`, else `+0.0` — the select form of a
    /// `pred > 0` branch (a compare into a mask plus a masked move, no
    /// jump). NaN predicates select `+0.0`, as the branch would skip.
    #[inline(always)]
    #[must_use]
    pub(crate) fn select_positive(self, pred: Self) -> Self {
        Self(std::array::from_fn(|l| {
            if pred.0[l] > T::ZERO {
                self.0[l]
            } else {
                T::ZERO
            }
        }))
    }

    /// Whether every lane lies where [`Lanes::rsqrt_seeded`] is accurate:
    /// inside f32's normal range, with a factor of 4 of headroom at each
    /// end so the rounding to f32 can neither overflow nor go subnormal.
    /// False for any zero, NaN or infinite lane.
    #[inline(always)]
    #[must_use]
    // `&`, not `&&`: no per-lane branch, so the test stays two packed
    // compares and one mask check per vector
    #[allow(clippy::needless_bitwise_bool)]
    pub(crate) fn in_rsqrt_seed_range(self) -> bool {
        let lo = T::from_f64(f64::from(f32::MIN_POSITIVE) * 4.0);
        let hi = T::from_f64(f64::from(f32::MAX) / 4.0);
        self.0
            .iter()
            .fold(true, |all, &v| all & (v >= lo) & (v <= hi))
    }

    /// `1/√x` per lane without a divide or square root at full width: an
    /// f32 seed (`x` rounded to f32, IEEE f32 `sqrt` and `/`, ~1e-7
    /// relative) refined by two Newton steps `y ← y·(3/2 − (x/2)·y²)` in
    /// plain multiplies and subtracts. Every step is correctly rounded
    /// IEEE arithmetic, so the result is the same at every dispatch level;
    /// it lies within 4e-16 relative of `1/√x` for `x` in
    /// [`Lanes::in_rsqrt_seed_range`].
    #[inline(always)]
    #[must_use]
    pub(crate) fn rsqrt_seeded(self) -> Self {
        let y0 = Self::from_fn(|l| {
            let x: f64 = self.0[l].into();
            T::from_f64(f64::from(1.0f32 / (x as f32).sqrt()))
        });
        let h = Self::splat(T::from_f64(0.5)) * self;
        let c = Self::splat(T::from_f64(1.5));
        let y1 = y0 * (c - h * y0 * y0);
        y1 * (c - h * y1 * y1)
    }

    /// Adds one to `cnt[l]` for every lane with `self[l] > 0`.
    #[inline(always)]
    pub(crate) fn count_positive(self, cnt: &mut [u64; N]) {
        for (c, &v) in cnt.iter_mut().zip(&self.0) {
            *c += u64::from(v > T::ZERO);
        }
    }

    /// Sequential lane sum (`((l0 + l1) + l2) + …`, deterministic for a
    /// fixed `N`) with every lane widened to f64 before accumulating, so
    /// the reduction adds no f32 rounding on top of the per-lane error.
    #[inline(always)]
    #[must_use]
    pub fn sum_f64(self) -> f64 {
        let mut acc = 0.0f64;
        for v in self.0 {
            acc += v.into();
        }
        acc
    }
}

impl<const N: usize> Lanes<f64, N> {
    /// `self · a + b` per lane with a single rounding ([`f64::mul_add`]).
    /// Correctly rounded, so every tier computes the same bits: a fused
    /// multiply-add instruction where [`dispatch`] enables FMA, the
    /// libm `fma` otherwise.
    #[inline(always)]
    #[must_use]
    pub(crate) fn mul_add(self, a: Self, b: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l].mul_add(a.0[l], b.0[l])))
    }
}

impl<T: Real, const N: usize> Add for Lanes<T, N> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] + rhs.0[l]))
    }
}

impl<T: Real, const N: usize> Sub for Lanes<T, N> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] - rhs.0[l]))
    }
}

impl<T: Real, const N: usize> Mul for Lanes<T, N> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] * rhs.0[l]))
    }
}

impl<T: Real, const N: usize> Div for Lanes<T, N> {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|l| self.0[l] / rhs.0[l]))
    }
}

impl<T: Real, const N: usize> Neg for Lanes<T, N> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(std::array::from_fn(|l| -self.0[l]))
    }
}

impl<T: Real, const N: usize> AddAssign for Lanes<T, N> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        for l in 0..N {
            self.0[l] += rhs.0[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = level();
        assert_eq!(level(), first);
        // The cached tier never exceeds what the probe reports.
        assert!(first.rank() <= detect().rank() || cfg!(feature = "force-scalar"));
    }

    #[test]
    fn lane_widths_per_tier() {
        assert_eq!(SimdLevel::Scalar.m2p_lanes(), 4);
        assert_eq!(SimdLevel::Avx2.m2p_lanes(), 4);
        assert_eq!(SimdLevel::Avx512.m2p_lanes(), 8);
        assert_eq!(SimdLevel::Scalar.p2p_lanes_f32(), 8);
        assert_eq!(SimdLevel::Avx512.p2p_lanes_f32(), 16);
        assert_eq!(SimdLevel::Avx512.p2p_lanes_f64(), 8);
        for lv in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(SimdLevel::from_rank(lv.rank()), lv);
        }
    }

    #[test]
    fn set_level_clamps_to_detected() {
        let restore = level();
        let applied = set_level(SimdLevel::Avx512);
        assert!(applied.rank() <= detect().rank() || cfg!(feature = "force-scalar"));
        let scalar = set_level(SimdLevel::Scalar);
        assert_eq!(scalar, SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        set_level(restore);
        assert_eq!(level(), restore);
    }

    #[test]
    fn dispatch_runs_closure_and_returns() {
        let xs = F64Lanes::<4>::from_fn(|l| l as f64 + 1.0);
        let got = dispatch(|| (xs * xs + xs).sum_f64());
        // 1*1+1 + 2*2+2 + 3*3+3 + 4*4+4 = 2 + 6 + 12 + 20
        assert!((got - 40.0).abs() < 1e-12);
    }

    #[test]
    fn lane_arithmetic_is_elementwise() {
        let a = F64Lanes::<8>::from_fn(|l| l as f64);
        let b = F64Lanes::<8>::splat(2.0);
        let sum = a + b;
        let prod = a * b;
        let quot = a / b;
        let diff = a - b;
        for l in 0..8 {
            let x = l as f64;
            assert!((sum.0[l] - (x + 2.0)).abs() < 1e-15);
            assert!((prod.0[l] - x * 2.0).abs() < 1e-15);
            assert!((quot.0[l] - x / 2.0).abs() < 1e-15);
            assert!((diff.0[l] - (x - 2.0)).abs() < 1e-15);
        }
        assert!(((-a).0[3] + 3.0).abs() < 1e-15);
        assert!((a.sqrt().0[4] - 2.0).abs() < 1e-15);
        let mut acc = F64Lanes::<8>::splat(0.0);
        acc += a;
        acc += a;
        assert!((acc.sum_f64() - 56.0).abs() < 1e-12);
    }

    /// The seeded reciprocal square root stays within 4e-16 relative of
    /// `1/√x` across the whole range it admits, and the range test
    /// rejects zero, NaN, infinities and the ends of f32's range.
    #[test]
    fn seeded_rsqrt_is_accurate_where_admitted() {
        let mut worst = 0.0f64;
        for e in -120..=120 {
            let x = F64Lanes::<8>::from_fn(|l| 10f64.powf(f64::from(e) * 0.3 + 0.037 * l as f64));
            assert!(
                x.in_rsqrt_seed_range(),
                "10^{} admitted",
                f64::from(e) * 0.3
            );
            let y = x.rsqrt_seeded();
            for l in 0..8 {
                let want = 1.0 / x.0[l].sqrt();
                worst = worst.max(((y.0[l] - want) / want).abs());
            }
        }
        assert!(worst <= 4e-16, "worst relative error {worst:e}");
        for bad in [0.0, f64::NAN, f64::INFINITY, 1e-40, 1e39, -1.0] {
            let x = F64Lanes::<8>::from_fn(|l| if l == 5 { bad } else { 1.0 });
            assert!(!x.in_rsqrt_seed_range(), "{bad} rejected");
        }
    }

    #[test]
    fn f32_lanes_widen_on_reduction() {
        let v = F32Lanes::<16>::from_fn(|l| l as f32);
        assert!((v.sum_f64() - 120.0).abs() < 1e-9);
        let loaded = F32Lanes::<4>::load(&[1.0, 2.0, 3.0, 4.0, 99.0]);
        assert_eq!(loaded.0, [1.0, 2.0, 3.0, 4.0]);
        assert!((loaded.sum_f64() - 10.0).abs() < 1e-6);
    }
}
