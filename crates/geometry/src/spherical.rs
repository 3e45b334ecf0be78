//! Spherical coordinates in the physics convention.
//!
//! The multipole machinery expresses positions relative to an expansion
//! center as `(rho, theta, phi)` where `theta ∈ [0, π]` is the polar angle
//! measured from the +z axis and `phi ∈ (-π, π]` the azimuth from +x.

use crate::vec3::Vec3;

/// A point in spherical coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spherical {
    /// Radial distance (≥ 0).
    pub rho: f64,
    /// Polar angle from +z, in `[0, π]`.
    pub theta: f64,
    /// Azimuthal angle from +x, in `(-π, π]`.
    pub phi: f64,
}

impl Spherical {
    /// Converts a Cartesian offset to spherical coordinates.
    ///
    /// The origin maps to `rho = 0, theta = 0, phi = 0`; points on the z-axis
    /// get `phi = 0`. Both choices make the spherical-harmonic kernels well
    /// defined without caller-side special cases.
    #[must_use]
    pub fn from_cartesian(v: Vec3) -> Self {
        let rho = v.norm();
        // lint: allow(float_cmp, exact origin has no defined angles)
        if rho == 0.0 {
            return Spherical {
                rho: 0.0,
                theta: 0.0,
                phi: 0.0,
            };
        }
        let theta = (v.z / rho).clamp(-1.0, 1.0).acos();
        // lint: allow(float_cmp, exact z-axis: atan2(0, 0) convention pinned to 0)
        let phi = if v.x == 0.0 && v.y == 0.0 {
            0.0
        } else {
            v.y.atan2(v.x)
        };
        Spherical { rho, theta, phi }
    }

    /// Converts back to a Cartesian offset.
    #[must_use]
    pub fn to_cartesian(self) -> Vec3 {
        let (st, ct) = self.theta.sin_cos();
        let (sp, cp) = self.phi.sin_cos();
        Vec3::new(self.rho * st * cp, self.rho * st * sp, self.rho * ct)
    }
}

impl From<Vec3> for Spherical {
    fn from(v: Vec3) -> Self {
        Spherical::from_cartesian(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Vec3) {
        let s = Spherical::from_cartesian(v);
        let back = s.to_cartesian();
        assert!(
            v.distance(back) <= 1e-12 * (1.0 + v.norm()),
            "roundtrip failed: {v:?} -> {s:?} -> {back:?}"
        );
    }

    #[test]
    fn axes_map_to_canonical_angles() {
        let s = Spherical::from_cartesian(Vec3::Z);
        assert!((s.theta - 0.0).abs() < 1e-15 && s.rho == 1.0);
        let s = Spherical::from_cartesian(-Vec3::Z);
        assert!((s.theta - std::f64::consts::PI).abs() < 1e-15);
        let s = Spherical::from_cartesian(Vec3::X);
        assert!((s.theta - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!(s.phi.abs() < 1e-15);
        let s = Spherical::from_cartesian(Vec3::Y);
        assert!((s.phi - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn origin_is_well_defined() {
        let s = Spherical::from_cartesian(Vec3::ZERO);
        assert_eq!(
            s,
            Spherical {
                rho: 0.0,
                theta: 0.0,
                phi: 0.0
            }
        );
        assert_eq!(s.to_cartesian(), Vec3::ZERO);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Vec3::new(1.0, 2.0, 3.0));
        roundtrip(Vec3::new(-0.3, 0.001, -17.0));
        roundtrip(Vec3::new(1e-9, -1e-9, 1e-9));
        roundtrip(Vec3::new(0.0, 0.0, 5.0));
        roundtrip(Vec3::new(0.0, -2.0, 0.0));
    }

    #[test]
    fn ranges() {
        for v in [
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-1.0, -1.0, -1.0),
            Vec3::new(0.5, -0.5, 0.0),
        ] {
            let s = Spherical::from_cartesian(v);
            assert!(s.rho >= 0.0);
            assert!((0.0..=std::f64::consts::PI).contains(&s.theta));
            assert!((-std::f64::consts::PI..=std::f64::consts::PI).contains(&s.phi));
        }
    }
}
