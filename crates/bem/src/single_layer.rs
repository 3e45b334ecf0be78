//! The collocation single-layer potential operator.
//!
//! For a density `σ` that is piecewise linear over the mesh (one unknown
//! per vertex), the single-layer potential at collocation point `xᵢ` (the
//! vertices) is
//!
//! ```text
//! (Sσ)(xᵢ) = ∫_Γ σ(y)/|xᵢ − y| dΓ(y)
//!          ≈ Σ_elements Σ_gauss wg·area·σ(y_g) / |xᵢ − y_g|
//! ```
//!
//! with `σ(y_g)` interpolated from the element's vertices by the
//! barycentric coordinates of the Gauss point. Exactly as in the paper, the
//! Gauss points are "inserted into the hierarchical domain representation"
//! as point charges `q_g = wg·area·σ(y_g)` and the potential is evaluated
//! at the vertices — densely (`O(n²)`, the exact reference) or through the
//! treecode (`O(n log n)`).

use mbt_geometry::{Particle, Vec3};
use mbt_solvers::{DenseMatrix, LinearOperator};
use mbt_tree::{Octree, OctreeParams};
use mbt_treecode::{EvalStats, Treecode, TreecodeParams};
use rayon::prelude::*;
use std::sync::Mutex;

use crate::mesh::TriMesh;
use crate::quadrature::QuadRule;

/// The discretised geometry shared by both operator backends: Gauss points
/// with their element/barycentric provenance, plus the collocation nodes.
#[derive(Debug, Clone)]
pub struct SingleLayerGeometry {
    /// The surface mesh.
    pub mesh: TriMesh,
    /// The quadrature rule.
    pub rule: QuadRule,
    /// Gauss-point positions (all elements, rule order).
    pub gauss_points: Vec<Vec3>,
    /// For each Gauss point, the indices of its element's three vertices.
    pub gauss_vertices: Vec<[u32; 3]>,
    /// For each Gauss point, its barycentric coordinates in its element.
    pub gauss_bary: Vec<[f64; 3]>,
    /// For each Gauss point, `weight × element area`.
    pub gauss_wa: Vec<f64>,
}

impl SingleLayerGeometry {
    /// Builds the quadrature geometry of a mesh.
    #[must_use]
    pub fn new(mesh: TriMesh, rule: QuadRule) -> Self {
        let n_g = mesh.num_elements() * rule.len();
        let mut gauss_points = Vec::with_capacity(n_g);
        let mut gauss_vertices = Vec::with_capacity(n_g);
        let mut gauss_bary = Vec::with_capacity(n_g);
        let mut gauss_wa = Vec::with_capacity(n_g);
        for t in 0..mesh.num_elements() {
            let [a, b, c] = mesh.corners(t);
            let tri = mesh.triangles[t];
            let area = mesh.area(t);
            for &(bary, w) in rule.points() {
                gauss_points.push(a * bary[0] + b * bary[1] + c * bary[2]);
                gauss_vertices.push(tri);
                gauss_bary.push(bary);
                gauss_wa.push(w * area);
            }
        }
        SingleLayerGeometry {
            mesh,
            rule,
            gauss_points,
            gauss_vertices,
            gauss_bary,
            gauss_wa,
        }
    }

    /// Number of unknowns (vertices).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.mesh.num_vertices()
    }

    /// Number of quadrature sources.
    #[must_use]
    pub fn num_gauss(&self) -> usize {
        self.gauss_points.len()
    }

    /// Converts a vertex density into Gauss-point charges
    /// `q_g = w·area·σ(y_g)`.
    #[must_use]
    pub fn charges(&self, sigma: &[f64]) -> Vec<f64> {
        assert_eq!(sigma.len(), self.dim());
        (0..self.num_gauss())
            .map(|g| {
                let [v0, v1, v2] = self.gauss_vertices[g];
                let [b0, b1, b2] = self.gauss_bary[g];
                self.gauss_wa[g]
                    * (b0 * sigma[v0 as usize] + b1 * sigma[v1 as usize] + b2 * sigma[v2 as usize])
            })
            .collect()
    }

    /// Integrates a vertex density over the surface: `∫_Γ σ dΓ` — e.g. the
    /// total charge of a capacitance solution.
    #[must_use]
    pub fn integrate_density(&self, sigma: &[f64]) -> f64 {
        self.charges(sigma).iter().sum()
    }
}

/// The exact dense operator: an assembled `n × n` matrix.
pub struct DenseSingleLayer {
    geometry: SingleLayerGeometry,
    matrix: DenseMatrix,
}

impl DenseSingleLayer {
    /// Assembles the dense collocation matrix (`O(n_vertices · n_gauss)`).
    #[must_use]
    pub fn assemble(geometry: SingleLayerGeometry) -> Self {
        let n = geometry.dim();
        let verts = &geometry.mesh.vertices;
        let rows: Vec<Vec<f64>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let xi = verts[i];
                let mut row = vec![0.0f64; n];
                for g in 0..geometry.num_gauss() {
                    let r = xi.distance(geometry.gauss_points[g]);
                    // lint: allow(float_cmp, exact-zero guard before dividing)
                    if r == 0.0 {
                        continue; // collocation point on a Gauss node (never for interior rules)
                    }
                    let k = geometry.gauss_wa[g] / r;
                    let [v0, v1, v2] = geometry.gauss_vertices[g];
                    let [b0, b1, b2] = geometry.gauss_bary[g];
                    row[v0 as usize] += k * b0;
                    row[v1 as usize] += k * b1;
                    row[v2 as usize] += k * b2;
                }
                row
            })
            .collect();
        let mut matrix = DenseMatrix::zeros(n, n);
        for (i, row) in rows.into_iter().enumerate() {
            for (j, v) in row.into_iter().enumerate() {
                matrix[(i, j)] = v;
            }
        }
        DenseSingleLayer { geometry, matrix }
    }

    /// The discretisation geometry.
    #[must_use]
    pub fn geometry(&self) -> &SingleLayerGeometry {
        &self.geometry
    }

    /// The assembled matrix.
    #[must_use]
    pub fn matrix(&self) -> &DenseMatrix {
        &self.matrix
    }
}

impl LinearOperator for DenseSingleLayer {
    fn dim(&self) -> usize {
        self.geometry.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matrix.matvec(x, y);
    }
}

/// The treecode-accelerated operator: Gauss points live in an octree built
/// once; every application updates their charges and evaluates the
/// potential at the vertices through the (fixed- or adaptive-degree)
/// treecode.
pub struct TreecodeSingleLayer {
    geometry: SingleLayerGeometry,
    base: Treecode,
    stats: Mutex<EvalStats>,
    applications: Mutex<u64>,
}

impl TreecodeSingleLayer {
    /// Builds the operator (one octree construction over the Gauss points).
    ///
    /// The tree geometry — expansion centers and cluster radii — depends on
    /// the Gauss points alone, and the adaptive degrees are frozen from the
    /// quadrature weights (`|q| = w·area`, realistic cluster weights), so
    /// every subsequent application is the same, exactly linear, operator
    /// (under `Fixed` or `Adaptive` degrees; see
    /// [`Treecode::with_charges`]).
    #[must_use]
    pub fn new(geometry: SingleLayerGeometry, params: TreecodeParams) -> Self {
        let particles: Vec<Particle> = geometry
            .gauss_points
            .iter()
            .zip(&geometry.gauss_wa)
            .map(|(&p, &wa)| Particle::new(p, wa))
            .collect();
        let base_tree = Octree::build(
            &particles,
            OctreeParams {
                leaf_capacity: params.leaf_capacity,
            },
        )
        // lint: allow(panic, quadrature points of a validated TriMesh are finite and nonempty)
        .expect("gauss points are finite and nonempty");
        let base = Treecode::from_tree(base_tree, params);
        TreecodeSingleLayer {
            geometry,
            base,
            stats: Mutex::new(EvalStats::default()),
            applications: Mutex::new(0),
        }
    }

    /// The discretisation geometry.
    pub fn geometry(&self) -> &SingleLayerGeometry {
        &self.geometry
    }

    /// Accumulated evaluation statistics over all applications so far.
    pub fn stats(&self) -> EvalStats {
        // counters stay meaningful even if a panicking thread poisoned the lock
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of operator applications so far.
    pub fn applications(&self) -> u64 {
        *self
            .applications
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl LinearOperator for TreecodeSingleLayer {
    fn dim(&self) -> usize {
        self.geometry.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let charges = self.geometry.charges(x);
        let tc = self
            .base
            .with_charges(&charges)
            // lint: allow(panic, one charge per Gauss point the base tree was built over)
            .expect("gauss charges match the base tree's particle count");
        let result = tc.potentials_at(&self.geometry.mesh.vertices);
        y.copy_from_slice(&result.values);
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(&result.stats);
        *self
            .applications
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::icosphere;

    fn sphere_geometry(subdiv: u32) -> SingleLayerGeometry {
        SingleLayerGeometry::new(icosphere(subdiv, 1.0), QuadRule::SixPoint)
    }

    #[test]
    fn geometry_counts_and_charges() {
        let g = sphere_geometry(1);
        assert_eq!(g.num_gauss(), g.mesh.num_elements() * 6);
        assert_eq!(g.dim(), g.mesh.num_vertices());
        // constant density integrates to the surface area
        let sigma = vec![1.0; g.dim()];
        let total: f64 = g.integrate_density(&sigma);
        assert!((total - g.mesh.total_area()).abs() < 1e-10);
    }

    #[test]
    fn dense_operator_constant_density_on_sphere() {
        // uniform density σ on a unit sphere gives potential 4π·σ·R on the
        // surface (up to discretisation error)
        let g = sphere_geometry(2);
        let op = DenseSingleLayer::assemble(g);
        let sigma = vec![1.0; op.dim()];
        let phi = op.apply_vec(&sigma);
        let expect = 4.0 * std::f64::consts::PI;
        for &p in &phi {
            assert!(
                (p - expect).abs() < 0.25,
                "surface potential {p} far from {expect}"
            );
        }
        // interiorly consistent: all vertices nearly equal by symmetry
        let mean: f64 = phi.iter().sum::<f64>() / phi.len() as f64;
        for &p in &phi {
            assert!((p - mean).abs() < 0.02 * mean);
        }
    }

    #[test]
    fn treecode_operator_matches_dense() {
        let g = sphere_geometry(2);
        let dense = DenseSingleLayer::assemble(g.clone());
        let tc = TreecodeSingleLayer::new(g, TreecodeParams::fixed(8, 0.4));
        let x: Vec<f64> = (0..dense.dim())
            .map(|i| 1.0 + 0.5 * (i as f64 * 0.01).sin())
            .collect();
        let yd = dense.apply_vec(&x);
        let yt = tc.apply_vec(&x);
        let num: f64 = yd.iter().zip(&yt).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = yd.iter().map(|a| a * a).sum();
        let rel = (num / den).sqrt();
        assert!(rel < 1e-4, "treecode operator differs from dense: {rel}");
        assert_eq!(tc.applications(), 1);
        assert!(tc.stats().targets > 0);
    }

    #[test]
    fn repeated_applications_accumulate_stats() {
        let g = sphere_geometry(1);
        let tc = TreecodeSingleLayer::new(g, TreecodeParams::fixed(4, 0.5));
        let x = vec![1.0; tc.dim()];
        let _ = tc.apply_vec(&x);
        let s1 = tc.stats().targets;
        let _ = tc.apply_vec(&x);
        assert_eq!(tc.stats().targets, 2 * s1);
        assert_eq!(tc.applications(), 2);
    }

    #[test]
    fn operator_is_linear() {
        let g = sphere_geometry(1);
        let tc = TreecodeSingleLayer::new(g, TreecodeParams::fixed(6, 0.5));
        let n = tc.dim();
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let ya = tc.apply_vec(&a);
        let yb = tc.apply_vec(&b);
        let ys = tc.apply_vec(&sum);
        for i in 0..n {
            let lin = 2.0 * ya[i] + 3.0 * yb[i];
            assert!(
                (ys[i] - lin).abs() < 1e-8 * (1.0 + lin.abs()),
                "nonlinearity at {i}"
            );
        }
    }
}
