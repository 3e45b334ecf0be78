//! The engine-served single-layer operator.
//!
//! [`TreecodeSingleLayer`](crate::single_layer::TreecodeSingleLayer) owns
//! a private treecode; this operator instead routes every application
//! through a shared [`Engine`] as `query_batch` traffic — the paper's
//! highest-reuse workload (a BEM matvec inside restarted GMRES) exercising
//! the serving stack end-to-end. The Gauss points never move and only the
//! density iterates, so the operator owns **one** dataset for its whole
//! life: the first application registers the Gauss points, every later
//! one replaces their charges. Each matvec:
//!
//! 1. converts the density into Gauss-point charges
//!    `q_g = w·area·σ(y_g)` and hands them to
//!    [`Engine::update_charges`] — a new charge *epoch* of the same
//!    dataset, which the engine serves by recharging its cached plan over
//!    the cached geometry (sort, grids, lists and operators are built by
//!    the first matvec only);
//! 2. asks for the potential at every collocation vertex through
//!    [`Engine::query_batch`]. The default is one all-targets request —
//!    the shape the router sends to the compiled FMM once the quadrature
//!    is fine enough (`n_gauss ≥ FMM_MIN_SOURCES`) — while
//!    [`with_requests`](EngineSingleLayer::with_requests) splits the
//!    vertex set into several requests, which `query_batch` groups
//!    back into one sweep.
//!
//! Per-target independence of every backend makes the split bit-exact
//! against the single-request form at equal accuracy. Dropping the
//! operator unregisters its dataset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mbt_engine::{Accuracy, Backend, DatasetId, Engine, QueryRequest};
use mbt_geometry::Particle;
use mbt_solvers::LinearOperator;

use crate::single_layer::SingleLayerGeometry;

/// Instance counter so independent operators on one engine never collide
/// on dataset names.
static NEXT_OPERATOR: AtomicU64 = AtomicU64::new(0);

/// The single-layer collocation operator applied through an [`Engine`].
pub struct EngineSingleLayer {
    geometry: SingleLayerGeometry,
    engine: Arc<Engine>,
    accuracy: Accuracy,
    label: String,
    /// Operator applications so far.
    applications: AtomicU64,
    /// How many `query_batch` requests the vertex set splits into.
    requests_per_apply: usize,
    /// The operator's dataset, once the first application registered it.
    /// Held across a whole application — `apply` takes `&self`, and a
    /// charge update must not slip between another application's update
    /// and its query.
    dataset: Mutex<Option<DatasetId>>,
    last_backend: Mutex<Option<Backend>>,
}

impl EngineSingleLayer {
    /// Couples a quadrature geometry with an engine; every application
    /// runs at `accuracy`.
    #[must_use]
    pub fn new(geometry: SingleLayerGeometry, engine: Arc<Engine>, accuracy: Accuracy) -> Self {
        // ordering: only uniqueness of the id matters; nothing is published
        let op = NEXT_OPERATOR.fetch_add(1, Ordering::Relaxed);
        EngineSingleLayer {
            geometry,
            engine,
            accuracy,
            label: format!("single-layer-{op}"),
            applications: AtomicU64::new(0),
            requests_per_apply: 1,
            dataset: Mutex::new(None),
            last_backend: Mutex::new(None),
        }
    }

    /// Splits each application's vertex set into `requests` contiguous
    /// `query_batch` entries (clamped to at least 1). More requests per
    /// apply exercises `query_batch`'s grouping into one sweep; the answers
    /// are bit-identical to the single-request form.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests_per_apply = requests.max(1);
        self
    }

    /// The discretisation geometry.
    #[must_use]
    pub fn geometry(&self) -> &SingleLayerGeometry {
        &self.geometry
    }

    /// Operator applications so far.
    #[must_use]
    pub fn applications(&self) -> u64 {
        // ordering: monotonic counter read for reporting only
        self.applications.load(Ordering::Relaxed)
    }

    /// The backend the router chose for the most recent application.
    #[must_use]
    pub fn last_backend(&self) -> Option<Backend> {
        *self
            .last_backend
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for EngineSingleLayer {
    fn drop(&mut self) {
        let dataset = self
            .dataset
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(id) = dataset.take() {
            // the dataset is this operator's alone; if someone retired it
            // already there is nothing left to release
            let _ = self.engine.unregister(id);
        }
    }
}

impl LinearOperator for EngineSingleLayer {
    fn dim(&self) -> usize {
        self.geometry.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let charges = self.geometry.charges(x);
        let mut dataset = self.dataset.lock().unwrap_or_else(PoisonError::into_inner);
        let id = if let Some(id) = *dataset {
            self.engine
                .update_charges(id, &charges)
                // lint: allow(panic, one charge per Gauss point of a validated TriMesh, on a dataset only this operator retires)
                .expect("gauss charges are finite and match the registered points");
            id
        } else {
            let particles: Vec<Particle> = self
                .geometry
                .gauss_points
                .iter()
                .zip(&charges)
                .map(|(&p, &q)| Particle::new(p, q))
                .collect();
            let id = self
                .engine
                .register(&self.label, particles)
                // lint: allow(panic, quadrature points of a validated TriMesh are finite and the operator counter keeps names unique)
                .expect("gauss charges are finite and the dataset name is fresh");
            *dataset = Some(id);
            id
        };
        // ordering: monotonic counter for reporting only
        self.applications.fetch_add(1, Ordering::Relaxed);

        let verts = &self.geometry.mesh.vertices;
        let k = self.requests_per_apply.min(verts.len()).max(1);
        let chunk = verts.len().div_ceil(k);
        let requests: Vec<QueryRequest> = verts
            .chunks(chunk)
            .map(|c| QueryRequest::potentials(id, self.accuracy, c.to_vec()))
            .collect();
        let mut offset = 0;
        for result in self.engine.query_batch(&requests) {
            // lint: allow(panic, the requests are well-formed against the dataset updated above)
            let response = result.expect("engine rejected a well-formed matvec request");
            let values = response
                .output
                .potentials()
                // lint: allow(panic, a Potential query always answers with potentials)
                .expect("potential query answers with potentials");
            y[offset..offset + values.len()].copy_from_slice(values);
            offset += values.len();
            *self
                .last_backend
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(response.backend);
        }
        debug_assert_eq!(offset, y.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CapacitanceProblem;
    use crate::quadrature::QuadRule;
    use crate::shapes::icosphere;
    use crate::single_layer::{DenseSingleLayer, TreecodeSingleLayer};
    use mbt_engine::EngineConfig;
    use mbt_solvers::{GmresOptions, GmresOutcome};
    use mbt_treecode::TreecodeParams;

    fn sphere_geometry(subdiv: u32) -> SingleLayerGeometry {
        SingleLayerGeometry::new(icosphere(subdiv, 1.0), QuadRule::SixPoint)
    }

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig::default()).unwrap())
    }

    #[test]
    fn engine_operator_matches_dense() {
        let g = sphere_geometry(2);
        let dense = DenseSingleLayer::assemble(g.clone());
        let op = EngineSingleLayer::new(g, engine(), Accuracy::Fixed(8));
        let x: Vec<f64> = (0..dense.dim())
            .map(|i| 1.0 + 0.5 * (i as f64 * 0.01).sin())
            .collect();
        let yd = dense.apply_vec(&x);
        let ye = op.apply_vec(&x);
        let num: f64 = yd.iter().zip(&ye).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = yd.iter().map(|a| a * a).sum();
        let rel = (num / den).sqrt();
        assert!(rel < 1e-4, "engine operator differs from dense: {rel}");
        assert_eq!(op.applications(), 1);
        assert!(op.last_backend().is_some());
    }

    #[test]
    fn request_split_is_bit_identical_to_single_request() {
        let g = sphere_geometry(2);
        let single = EngineSingleLayer::new(g.clone(), engine(), Accuracy::Fixed(6));
        let split = EngineSingleLayer::new(g, engine(), Accuracy::Fixed(6)).with_requests(4);
        let x: Vec<f64> = (0..single.dim()).map(|i| (i as f64 * 0.2).cos()).collect();
        let y1 = single.apply_vec(&x);
        let y4 = split.apply_vec(&x);
        assert_eq!(y1, y4);
    }

    #[test]
    fn fine_quadrature_routes_the_matvec_to_the_fmm() {
        // subdiv 3: 7680 Gauss sources ≥ FMM_MIN_SOURCES, 642 vertex
        // targets — the all-targets/matvec shape
        let g = sphere_geometry(3);
        let e = engine();
        let op = EngineSingleLayer::new(g.clone(), Arc::clone(&e), Accuracy::Fixed(6));
        let x = vec![1.0; op.dim()];
        let phi = op.apply_vec(&x);
        assert_eq!(op.last_backend(), Some(Backend::Fmm));
        assert!(e.stats().routed_fmm > 0);
        // the answer must agree with the owned treecode operator
        let tc = TreecodeSingleLayer::new(g, TreecodeParams::fixed(8, 0.4));
        let yt = tc.apply_vec(&x);
        let num: f64 = yt.iter().zip(&phi).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = yt.iter().map(|a| a * a).sum();
        let rel = (num / den).sqrt();
        assert!(rel < 1e-3, "fmm-routed matvec differs from treecode: {rel}");
    }

    #[test]
    fn capacitance_through_the_engine_converges() {
        let g = sphere_geometry(2);
        let e = engine();
        let op = EngineSingleLayer::new(g.clone(), Arc::clone(&e), Accuracy::Fixed(8));
        let sol = CapacitanceProblem::new(&op, &g).solve(&GmresOptions {
            restart: 10,
            tol: 1e-8,
            ..Default::default()
        });
        assert_eq!(sol.gmres.outcome, GmresOutcome::Converged);
        assert!(
            (sol.capacitance - 1.0).abs() < 0.03,
            "capacitance {} should be ≈ 1",
            sol.capacitance
        );
        // every matvec became engine traffic, all of it against the one
        // dataset the operator owns
        assert!(op.applications() as usize >= sol.gmres.iterations);
        let stats = e.stats();
        assert_eq!(stats.datasets, 1, "one dataset for the operator's life");
        assert_eq!(
            stats.plan_builds, 1,
            "geometry is built by the first matvec"
        );
        assert_eq!(stats.plan_recharges + 1, op.applications());
        assert!(stats.batched_requests >= op.applications());
        drop(op);
        assert_eq!(e.stats().datasets, 0, "dropping the operator retires it");
    }
}
