//! The particle record shared by every crate in the workspace.

use crate::vec3::Vec3;

/// A point charge (or point mass): position plus signed strength.
///
/// The paper's analysis is in terms of electrostatics (`q` = charge); for
/// gravitational problems `q` is the mass and the potential picks up the
/// conventional sign at the application layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position.
    pub position: Vec3,
    /// Signed charge / mass.
    pub charge: f64,
}

impl Particle {
    /// Creates a particle.
    #[inline]
    #[must_use]
    pub const fn new(position: Vec3, charge: f64) -> Self {
        Particle { position, charge }
    }

    /// `|q|` — the quantity the paper's error bounds aggregate per cluster.
    #[inline]
    #[must_use]
    pub fn abs_charge(&self) -> f64 {
        self.charge.abs()
    }
}

/// Total absolute charge `A = Σ|qᵢ|` of a set of particles (Theorem 1).
pub fn total_abs_charge(particles: &[Particle]) -> f64 {
    particles.iter().map(Particle::abs_charge).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_charge_and_total() {
        let ps = [Particle::new(Vec3::ZERO, -2.0), Particle::new(Vec3::X, 3.0)];
        assert_eq!(ps[0].abs_charge(), 2.0);
        assert_eq!(total_abs_charge(&ps), 5.0);
    }
}
