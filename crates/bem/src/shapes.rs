//! Procedural surface geometry.
//!
//! Besides the standard test shapes (icosphere, plate, box), this module
//! generates the two **synthetic stand-ins for the paper's industrial
//! meshes** — highly unstructured surface discretisations where "a bulk of
//! the volume is empty and the nodes are concentrated on the surface":
//!
//! * [`propeller`] — a hub sphere with `b` twisted, tapered blades swept
//!   from parametric ruled surfaces (the paper: an airplane propeller,
//!   140,800 elements / 70,439 nodes),
//! * [`gripper`] — a box-assembly industrial gripper: base block, two
//!   parallel jaw arms and finger pads (the paper: surface discretisations
//!   of an industrial gripper, up to 185,856 elements / 92,918 nodes).
//!
//! All generators take resolution parameters so the harnesses can scale the
//! meshes to the machine.

use mbt_geometry::Vec3;

use crate::mesh::TriMesh;

/// An icosphere: subdivided icosahedron projected to radius `radius`.
#[must_use]
pub fn icosphere(subdivisions: u32, radius: f64) -> TriMesh {
    // icosahedron
    let phi = f64::midpoint(1.0, 5.0f64.sqrt());
    let verts = [
        (-1.0, phi, 0.0),
        (1.0, phi, 0.0),
        (-1.0, -phi, 0.0),
        (1.0, -phi, 0.0),
        (0.0, -1.0, phi),
        (0.0, 1.0, phi),
        (0.0, -1.0, -phi),
        (0.0, 1.0, -phi),
        (phi, 0.0, -1.0),
        (phi, 0.0, 1.0),
        (-phi, 0.0, -1.0),
        (-phi, 0.0, 1.0),
    ];
    let faces: [[u32; 3]; 20] = [
        [0, 11, 5],
        [0, 5, 1],
        [0, 1, 7],
        [0, 7, 10],
        [0, 10, 11],
        [1, 5, 9],
        [5, 11, 4],
        [11, 10, 2],
        [10, 7, 6],
        [7, 1, 8],
        [3, 9, 4],
        [3, 4, 2],
        [3, 2, 6],
        [3, 6, 8],
        [3, 8, 9],
        [4, 9, 5],
        [2, 4, 11],
        [6, 2, 10],
        [8, 6, 7],
        [9, 8, 1],
    ];
    let mut mesh = TriMesh {
        vertices: verts
            .iter()
            .map(|&(x, y, z)| Vec3::new(x, y, z).normalized())
            .collect(),
        triangles: faces.to_vec(),
    };
    for _ in 0..subdivisions {
        mesh = subdivide_on_sphere(&mesh);
    }
    mesh.transformed(|v| v.normalized() * radius)
}

/// One 4-to-1 subdivision with midpoints re-projected to the unit sphere.
fn subdivide_on_sphere(mesh: &TriMesh) -> TriMesh {
    use std::collections::HashMap;
    let mut vertices = mesh.vertices.clone();
    let mut midpoint = HashMap::new();
    let mut triangles = Vec::with_capacity(mesh.triangles.len() * 4);
    let mut mid = |a: u32, b: u32, vertices: &mut Vec<Vec3>| -> u32 {
        let key = (a.min(b), a.max(b));
        *midpoint.entry(key).or_insert_with(|| {
            let m = (vertices[a as usize] + vertices[b as usize]).normalized();
            vertices.push(m);
            (vertices.len() - 1) as u32
        })
    };
    for &[a, b, c] in &mesh.triangles {
        let ab = mid(a, b, &mut vertices);
        let bc = mid(b, c, &mut vertices);
        let ca = mid(c, a, &mut vertices);
        triangles.push([a, ab, ca]);
        triangles.push([b, bc, ab]);
        triangles.push([c, ca, bc]);
        triangles.push([ab, bc, ca]);
    }
    TriMesh {
        vertices,
        triangles,
    }
}

/// A flat rectangular plate in the xy-plane, `nx × ny` quads split into
/// triangles, spanning `[0, lx] × [0, ly]`.
#[must_use]
pub fn plate(nx: usize, ny: usize, lx: f64, ly: f64) -> TriMesh {
    assert!(nx >= 1 && ny >= 1);
    let mut vertices = Vec::with_capacity((nx + 1) * (ny + 1));
    for j in 0..=ny {
        for i in 0..=nx {
            vertices.push(Vec3::new(
                lx * i as f64 / nx as f64,
                ly * j as f64 / ny as f64,
                0.0,
            ));
        }
    }
    let idx = |i: usize, j: usize| (j * (nx + 1) + i) as u32;
    let mut triangles = Vec::with_capacity(nx * ny * 2);
    for j in 0..ny {
        for i in 0..nx {
            let (a, b, c, d) = (idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1));
            triangles.push([a, b, c]);
            triangles.push([a, c, d]);
        }
    }
    TriMesh {
        vertices,
        triangles,
    }
}

/// A closed axis-aligned box surface `[0,lx]×[0,ly]×[0,lz]` with roughly
/// `res` elements along the longest edge.
#[must_use]
pub fn box_surface(lx: f64, ly: f64, lz: f64, res: usize) -> TriMesh {
    let res = res.max(1);
    let longest = lx.max(ly).max(lz);
    let divs = |l: f64| ((l / longest * res as f64).ceil() as usize).max(1);
    let (nx, ny, nz) = (divs(lx), divs(ly), divs(lz));

    // Six plates mapped so every face normal points outward. A plate's
    // natural normal is +z over its (u, v) grid, so faces needing the
    // opposite orientation swap their parameter axes.
    let mut mesh = TriMesh::default();
    let top = plate(nx, ny, lx, ly).transformed(|v| Vec3::new(v.x, v.y, lz));
    let bottom = plate(ny, nx, ly, lx).transformed(|v| Vec3::new(v.y, v.x, 0.0));
    let front = plate(nx, nz, lx, lz).transformed(|v| Vec3::new(v.x, 0.0, v.y));
    let back = plate(nz, nx, lz, lx).transformed(|v| Vec3::new(v.y, ly, v.x));
    let left = plate(nz, ny, lz, ly).transformed(|v| Vec3::new(0.0, v.y, v.x));
    let right = plate(ny, nz, ly, lz).transformed(|v| Vec3::new(lx, v.x, v.y));
    for part in [bottom, top, front, back, left, right] {
        mesh = mesh.merged(&part);
    }
    // the plates share their boundary vertices: one collocation node each
    mesh.welded(1e-9 * longest)
}

/// The synthetic **propeller**: a central hub (icosphere, squashed along
/// the axis) plus `blades` twisted, tapered blade surfaces. `blade_res`
/// controls the per-blade grid (elements ≈ `blades · 2·blade_res·(blade_res/3)`
/// plus the hub).
#[must_use]
pub fn propeller(blades: usize, blade_res: usize, hub_subdiv: u32) -> TriMesh {
    assert!(blades >= 2, "a propeller needs at least two blades");
    let blade_res = blade_res.max(3);
    let hub = icosphere(hub_subdiv, 0.35).transformed(|v| Vec3::new(v.x, v.y, v.z * 0.6));
    let mut mesh = hub;
    for b in 0..blades {
        let phase = std::f64::consts::TAU * b as f64 / blades as f64;
        let blade = blade_surface(blade_res, blade_res / 3 + 1);
        // rotate the blade into place about z
        let (s, c) = phase.sin_cos();
        let placed = blade.transformed(|v| Vec3::new(c * v.x - s * v.y, s * v.x + c * v.y, v.z));
        mesh = mesh.merged(&placed);
    }
    mesh
}

/// One blade: a ruled surface running radially from the hub, tapered and
/// twisted along its length (two-sided sheet so the mesh bounds a thin
/// volume-less screen — matching a surface discretisation where volume is
/// empty).
fn blade_surface(n_rad: usize, n_chord: usize) -> TriMesh {
    let root = 0.3;
    let tip = 1.6;
    let chord_root = 0.28;
    let chord_tip = 0.08;
    let twist_total = 1.1; // radians of twist root→tip
    let mut sheet = plate(n_rad, n_chord, 1.0, 1.0);
    sheet = sheet.transformed(|v| {
        let t = v.x; // 0 at root, 1 at tip
        let r = root + t * (tip - root);
        let chord = chord_root + t * (chord_tip - chord_root);
        let cpos = (v.y - 0.5) * chord;
        let twist = twist_total * t;
        let (s, c) = twist.sin_cos();
        // chord line twisted in the (y, z) plane, swept along +x
        Vec3::new(r, cpos * c, cpos * s)
    });
    sheet
}

/// The synthetic **gripper**: a base block, two parallel jaw arms extending
/// forward, and inward finger pads — an industrial-robot end effector as a
/// union of box surfaces. `res` scales every box's tessellation.
#[must_use]
pub fn gripper(res: usize) -> TriMesh {
    let res = res.max(2);
    let base = box_surface(1.2, 0.8, 0.5, res);
    let arm_l = box_surface(0.25, 0.9, 0.25, res).translated(Vec3::new(0.1, 0.7, 0.12));
    let arm_r = box_surface(0.25, 0.9, 0.25, res).translated(Vec3::new(0.85, 0.7, 0.12));
    let pad_l = box_surface(0.18, 0.3, 0.35, res).translated(Vec3::new(0.33, 1.35, 0.07));
    let pad_r = box_surface(0.18, 0.3, 0.35, res).translated(Vec3::new(0.69, 1.35, 0.07));
    let mut m = base;
    for part in [arm_l, arm_r, pad_l, pad_r] {
        m = m.merged(&part);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icosphere_measures() {
        let m = icosphere(3, 2.0);
        m.validate().unwrap();
        // every vertex on the sphere
        for v in &m.vertices {
            assert!((v.norm() - 2.0).abs() < 1e-12);
        }
        // area approaches 4πr² from below
        let exact = 4.0 * std::f64::consts::PI * 4.0;
        let area = m.total_area();
        assert!(
            area < exact && area > 0.98 * exact,
            "area {area} vs {exact}"
        );
        // outward orientation: normal · centroid > 0
        for t in 0..m.num_elements() {
            assert!(
                m.normal(t).dot(m.centroid(t)) > 0.0,
                "inward-facing triangle {t}"
            );
        }
    }

    #[test]
    fn icosphere_subdivision_counts() {
        let m0 = icosphere(0, 1.0);
        assert_eq!(m0.num_elements(), 20);
        assert_eq!(m0.num_vertices(), 12);
        let m2 = icosphere(2, 1.0);
        assert_eq!(m2.num_elements(), 320);
        // Euler: V = E - F + 2 = (3F/2) - F + 2
        assert_eq!(
            m2.num_vertices(),
            m2.num_elements() * 3 / 2 - m2.num_elements() + 2
        );
    }

    #[test]
    fn plate_measures() {
        let m = plate(4, 3, 2.0, 1.5);
        m.validate().unwrap();
        assert_eq!(m.num_elements(), 4 * 3 * 2);
        assert!((m.total_area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn box_surface_is_closed_and_has_right_area() {
        let (lx, ly, lz) = (1.0, 2.0, 0.5);
        let m = box_surface(lx, ly, lz, 4);
        m.validate().unwrap();
        let exact = 2.0 * (lx * ly + ly * lz + lz * lx);
        assert!(
            (m.total_area() - exact).abs() < 1e-9,
            "area {} vs {exact}",
            m.total_area()
        );
        // all vertices on the box boundary
        for v in &m.vertices {
            let on_x = v.x.abs() < 1e-12 || (v.x - lx).abs() < 1e-12;
            let on_y = v.y.abs() < 1e-12 || (v.y - ly).abs() < 1e-12;
            let on_z = v.z.abs() < 1e-12 || (v.z - lz).abs() < 1e-12;
            assert!(on_x || on_y || on_z, "vertex {v:?} not on the surface");
        }
    }

    #[test]
    fn box_surface_is_a_welded_closed_manifold() {
        use std::collections::HashMap;
        for (lx, ly, lz, res) in [
            (1.0, 2.0, 0.5, 4),
            (0.25, 0.9, 0.25, 16),
            (1.2, 0.8, 0.5, 7),
        ] {
            let m = box_surface(lx, ly, lz, res);
            let longest = f64::max(lx, f64::max(ly, lz));
            let divs = |l: f64| ((l / longest * res as f64).ceil() as usize).max(1);
            let (nx, ny, nz) = (divs(lx), divs(ly), divs(lz));
            // Euler: V − E + F = 2 with E = 3F/2 and F = 4(nx·ny + ny·nz + nz·nx)
            assert_eq!(m.num_vertices(), 2 * (nx * ny + ny * nz + nz * nx) + 2);
            let mut edges: HashMap<(u32, u32), usize> = HashMap::new();
            for t in &m.triangles {
                for k in 0..3 {
                    let (a, b) = (t[k], t[(k + 1) % 3]);
                    *edges.entry((a.min(b), a.max(b))).or_default() += 1;
                }
            }
            assert!(
                edges.values().all(|&c| c == 2),
                "an edge of box {lx}×{ly}×{lz} is not shared by exactly two triangles"
            );
        }
    }

    #[test]
    fn propeller_is_valid_and_unstructured() {
        let m = propeller(3, 12, 2);
        m.validate().unwrap();
        assert!(m.num_elements() > 600);
        // blades reach out to ~1.6, hub at ~0.35: very nonuniform vertex
        // density ⇒ bounding box much larger than the hub
        let b = m.bounds();
        assert!(b.extent().max_component() > 2.5);
    }

    #[test]
    fn gripper_is_valid() {
        let m = gripper(6);
        m.validate().unwrap();
        assert!(m.num_elements() > 500);
        assert!(m.bounds().extent().y > 1.5); // arms extend forward
    }

    #[test]
    fn shape_scaling_controls_element_count() {
        assert!(gripper(12).num_elements() > 3 * gripper(4).num_elements());
        assert!(propeller(4, 24, 3).num_elements() > propeller(4, 8, 2).num_elements());
    }
}
