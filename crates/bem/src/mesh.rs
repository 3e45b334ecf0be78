//! Triangle surface meshes.

use std::collections::HashMap;

use mbt_geometry::{Aabb, Vec3};

/// An indexed triangle mesh.
#[derive(Debug, Clone, Default)]
pub struct TriMesh {
    /// Vertex positions (the collocation nodes of the BEM).
    pub vertices: Vec<Vec3>,
    /// Triangles as vertex-index triples.
    pub triangles: Vec<[u32; 3]>,
}

/// Mesh validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A triangle references a vertex index out of range.
    IndexOutOfRange {
        /// Offending triangle.
        triangle: usize,
    },
    /// A triangle has (numerically) zero area.
    DegenerateTriangle {
        /// Offending triangle.
        triangle: usize,
    },
    /// The mesh has no triangles.
    Empty,
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::IndexOutOfRange { triangle } => {
                write!(f, "triangle {triangle} references a vertex out of range")
            }
            MeshError::DegenerateTriangle { triangle } => {
                write!(f, "triangle {triangle} is degenerate (zero area)")
            }
            MeshError::Empty => write!(f, "mesh has no triangles"),
        }
    }
}

impl std::error::Error for MeshError {}

impl TriMesh {
    /// Number of vertices (BEM unknowns).
    #[inline]
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles (BEM elements).
    #[inline]
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.triangles.len()
    }

    /// The corner positions of a triangle.
    #[inline]
    #[must_use]
    pub fn corners(&self, t: usize) -> [Vec3; 3] {
        let [a, b, c] = self.triangles[t];
        [
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        ]
    }

    /// Triangle area.
    #[must_use]
    pub fn area(&self, t: usize) -> f64 {
        let [a, b, c] = self.corners(t);
        0.5 * (b - a).cross(c - a).norm()
    }

    /// Triangle unit normal (right-hand rule over the index order).
    #[must_use]
    pub fn normal(&self, t: usize) -> Vec3 {
        let [a, b, c] = self.corners(t);
        (b - a).cross(c - a).normalized()
    }

    /// Triangle centroid.
    #[must_use]
    pub fn centroid(&self, t: usize) -> Vec3 {
        let [a, b, c] = self.corners(t);
        (a + b + c) / 3.0
    }

    /// Total surface area.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        (0..self.num_elements()).map(|t| self.area(t)).sum()
    }

    /// Axis-aligned bounds of the vertex set.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        Aabb::of_points(&self.vertices)
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), MeshError> {
        if self.triangles.is_empty() {
            return Err(MeshError::Empty);
        }
        let n = self.vertices.len() as u32;
        for (t, tri) in self.triangles.iter().enumerate() {
            if tri.iter().any(|&v| v >= n) {
                return Err(MeshError::IndexOutOfRange { triangle: t });
            }
            if self.area(t) <= 1e-14 {
                return Err(MeshError::DegenerateTriangle { triangle: t });
            }
        }
        Ok(())
    }

    /// Appends another mesh (indices offset), consuming neither.
    #[must_use]
    pub fn merged(&self, other: &TriMesh) -> TriMesh {
        let offset = self.vertices.len() as u32;
        let mut out = self.clone();
        out.vertices.extend_from_slice(&other.vertices);
        out.triangles.extend(
            other
                .triangles
                .iter()
                .map(|t| [t[0] + offset, t[1] + offset, t[2] + offset]),
        );
        out
    }

    /// Merges vertices that lie within `tol` of each other in every
    /// coordinate into the first of them, remapping the triangles.
    /// Separately meshed patches meet at edges whose vertices were
    /// computed independently — `(l·k)/n` at `k = n` need not equal `l`
    /// bit for bit — so coincidence is judged to a tolerance, not by bits.
    #[must_use]
    pub fn welded(&self, tol: f64) -> TriMesh {
        let cell = |v: Vec3| {
            let c = |x: f64| (x / tol).floor() as i64;
            (c(v.x), c(v.y), c(v.z))
        };
        let mut buckets: HashMap<(i64, i64, i64), Vec<u32>> = HashMap::new();
        let mut vertices: Vec<Vec3> = Vec::new();
        let mut remap = Vec::with_capacity(self.vertices.len());
        for &v in &self.vertices {
            let (cx, cy, cz) = cell(v);
            let mut found = None;
            'search: for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        let Some(ids) = buckets.get(&(cx + dx, cy + dy, cz + dz)) else {
                            continue;
                        };
                        if let Some(&id) = ids
                            .iter()
                            .find(|&&id| (vertices[id as usize] - v).abs().max_component() <= tol)
                        {
                            found = Some(id);
                            break 'search;
                        }
                    }
                }
            }
            let id = found.unwrap_or_else(|| {
                let id = vertices.len() as u32;
                vertices.push(v);
                buckets.entry((cx, cy, cz)).or_default().push(id);
                id
            });
            remap.push(id);
        }
        let triangles = self
            .triangles
            .iter()
            .map(|t| t.map(|i| remap[i as usize]))
            .collect();
        TriMesh {
            vertices,
            triangles,
        }
    }

    /// Returns the mesh with every vertex mapped through `f`.
    #[must_use]
    pub fn transformed(&self, f: impl Fn(Vec3) -> Vec3) -> TriMesh {
        TriMesh {
            vertices: self.vertices.iter().map(|&v| f(v)).collect(),
            triangles: self.triangles.clone(),
        }
    }

    /// Translates the mesh.
    #[must_use]
    pub fn translated(&self, d: Vec3) -> TriMesh {
        self.transformed(|v| v + d)
    }

    /// Uniformly scales the mesh about the origin.
    #[must_use]
    pub fn scaled(&self, s: f64) -> TriMesh {
        self.transformed(|v| v * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_triangle() -> TriMesh {
        TriMesh {
            vertices: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            triangles: vec![[0, 1, 2]],
        }
    }

    #[test]
    fn measures_of_unit_triangle() {
        let m = unit_triangle();
        assert!((m.area(0) - 0.5).abs() < 1e-15);
        assert_eq!(m.normal(0), Vec3::Z);
        assert!(m.centroid(0).distance(Vec3::new(1.0 / 3.0, 1.0 / 3.0, 0.0)) < 1e-15);
        assert!((m.total_area() - 0.5).abs() < 1e-15);
        m.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_meshes() {
        assert_eq!(TriMesh::default().validate(), Err(MeshError::Empty));
        let mut m = unit_triangle();
        m.triangles.push([0, 1, 9]);
        assert_eq!(
            m.validate(),
            Err(MeshError::IndexOutOfRange { triangle: 1 })
        );
        let m = TriMesh {
            vertices: vec![Vec3::ZERO, Vec3::X, Vec3::X * 2.0],
            triangles: vec![[0, 1, 2]],
        };
        assert_eq!(
            m.validate(),
            Err(MeshError::DegenerateTriangle { triangle: 0 })
        );
    }

    #[test]
    fn weld_merges_near_coincident_vertices_only() {
        let far = unit_triangle().translated(Vec3::Z);
        let touching = unit_triangle().transformed(|v| Vec3::new(v.x + 1e-13, v.y, -v.x));
        let m = unit_triangle().merged(&far).merged(&touching).welded(1e-9);
        // the third triangle shares its two x = 0 vertices with the first
        assert_eq!(m.num_vertices(), 7);
        assert_eq!(m.triangles[2], [0, 6, 2]);
        m.validate().unwrap();
    }

    #[test]
    fn merge_offsets_indices() {
        let m = unit_triangle().merged(&unit_triangle().translated(Vec3::Z));
        assert_eq!(m.num_vertices(), 6);
        assert_eq!(m.num_elements(), 2);
        assert_eq!(m.triangles[1], [3, 4, 5]);
        m.validate().unwrap();
        assert!((m.total_area() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn transforms() {
        let m = unit_triangle().scaled(2.0);
        assert!((m.area(0) - 2.0).abs() < 1e-14);
        let m2 = m.translated(Vec3::new(0.0, 0.0, 5.0));
        assert_eq!(m2.vertices[0].z, 5.0);
        assert!((m2.area(0) - 2.0).abs() < 1e-14);
    }
}
