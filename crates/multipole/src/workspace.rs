//! Reusable evaluation scratch so the hot kernels (P2M accumulation, M2P
//! potential/field evaluation) run without touching the allocator.
//!
//! Every `Legendre::new` call builds three triangular arrays, every power
//! table is a fresh `Vec`, and the per-degree partial sums of the M2P
//! kernels were short-lived `Vec`s — four to six allocations per evaluated
//! interaction. A [`Workspace`] owns all of those buffers; the `*_with`
//! evaluation APIs (see [`crate::expansion::ExpansionRef`]) thread one
//! through, and callers keep one workspace per worker task (the treecode
//! keeps one per evaluation chunk — the paper's aggregation width `w`),
//! so steady-state evaluation performs **zero** heap allocations per
//! interaction.
//!
//! Buffers grow monotonically to the largest degree seen and never
//! shrink; size the workspace up front with [`Workspace::with_capacity`]
//! to make even the first interaction allocation-free.

use crate::batch::P2M_LANES;
use crate::legendre::Legendre;
use crate::tables::tri_len;

/// Scratch buffers for expansion construction and evaluation.
///
/// One workspace serves any interleaving of P2M / M2P / L2P calls at any
/// degrees; each kernel fully overwrites the prefix it reads.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Associated Legendre tables, recomputed in place per evaluation.
    pub(crate) leg: Legendre,
    /// Radial power table `rho^0..rho^d` (P2L needs `d+2` entries).
    pub(crate) pow: Vec<f64>,
    /// Per-degree partial sums of the potential series.
    pub(crate) acc_pot: Vec<f64>,
    /// Per-degree partial sums of the `∂/∂θ` series.
    pub(crate) acc_dth: Vec<f64>,
    /// Per-degree partial sums of the `∂/∂φ` series.
    pub(crate) acc_dph: Vec<f64>,
    /// Lane-major P2M accumulators: `2·tri_len(d)·P2M_LANES` entries
    /// (see [`crate::batch::P2M_LANES`]).
    pub(crate) p2m: Vec<f64>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Workspace {
        Workspace::with_capacity(0)
    }

    /// A workspace pre-sized for evaluations up to `degree`, so no call at
    /// or below that degree ever allocates.
    #[must_use]
    pub fn with_capacity(degree: usize) -> Workspace {
        Workspace {
            leg: Legendre::with_capacity(degree),
            // lint: allow(alloc, workspace construction — the one-time cost the kernels amortise)
            pow: vec![0.0; degree + 2],
            acc_pot: vec![0.0; degree + 1], // lint: allow(alloc, workspace construction)
            acc_dth: vec![0.0; degree + 1], // lint: allow(alloc, workspace construction)
            acc_dph: vec![0.0; degree + 1], // lint: allow(alloc, workspace construction)
            // lint: allow(alloc, workspace construction)
            p2m: vec![0.0; p2m_scratch_len(degree)],
        }
    }

    /// Grows the degree-indexed buffers to cover `degree` (the `Legendre`
    /// table grows inside `recompute`). No-op once large enough.
    #[inline]
    pub(crate) fn ensure_degree(&mut self, degree: usize) {
        if self.pow.len() < degree + 2 {
            self.pow.resize(degree + 2, 0.0);
            self.acc_pot.resize(degree + 1, 0.0);
            self.acc_dth.resize(degree + 1, 0.0);
            self.acc_dph.resize(degree + 1, 0.0);
        }
    }
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace::new()
    }
}

/// Lane-major P2M accumulator length for `degree`: a real and an
/// imaginary row of [`P2M_LANES`] per coefficient.
#[inline]
pub(crate) const fn p2m_scratch_len(degree: usize) -> usize {
    2 * tri_len(degree) * P2M_LANES
}

/// Writes `rho^0, rho^1, …` into every slot of `out`.
///
/// Slice-filling replacement for the allocating `powers()` helper; the
/// caller picks the length (`degree + 1` for multipole evaluation,
/// `degree + 2` for P2L, which needs `rho^{-(degree+1)}`).
#[inline]
pub(crate) fn fill_powers(out: &mut [f64], rho: f64) {
    let mut acc = 1.0;
    for slot in out.iter_mut() {
        *slot = acc;
        acc *= rho;
    }
}

/// Sanity anchor for buffer sizing: a degree-`d` triangular table holds
/// `(d+1)(d+2)/2` entries.
const _: () = assert!(tri_len(4) == 15);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_powers_matches_definition() {
        let mut buf = [0.0; 6];
        fill_powers(&mut buf, 1.5);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, 1.5f64.powi(i as i32));
        }
        fill_powers(&mut buf[..1], 3.0);
        assert_eq!(buf[0], 1.0);
    }

    #[test]
    fn ensure_degree_grows_monotonically() {
        let mut ws = Workspace::new();
        ws.ensure_degree(8);
        assert!(ws.pow.len() >= 10 && ws.acc_pot.len() >= 9);
        let cap = ws.pow.capacity();
        ws.ensure_degree(4); // smaller: no shrink, no realloc
        assert_eq!(ws.pow.capacity(), cap);
        assert!(ws.pow.len() >= 10);
    }

    #[test]
    fn with_capacity_prepares_all_buffers() {
        let ws = Workspace::with_capacity(12);
        assert!(ws.pow.len() >= 14);
        assert!(ws.acc_pot.len() >= 13);
        assert!(ws.acc_dth.len() >= 13);
        assert!(ws.acc_dph.len() >= 13);
        assert!(ws.p2m.len() >= p2m_scratch_len(12));
        assert_eq!(ws.leg.degree(), 12);
    }
}
