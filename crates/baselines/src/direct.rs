//! Direct O(N²) summation — the accuracy ground truth.

use paratreet_apps::gravity::grav_exact;
use paratreet_core::par;
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;

/// Computes exact pairwise accelerations and potentials into the
/// particles (replacing the accumulators), with Plummer softening, one
/// thread per core.
pub fn direct_gravity(particles: &mut [Particle], g: f64) {
    let snapshot: Vec<Particle> = particles.to_vec();
    par::map(0, particles.iter_mut().collect(), |_, p: &mut Particle| {
        p.acc = Vec3::ZERO;
        p.potential = 0.0;
        for s in &snapshot {
            if s.id == p.id {
                continue;
            }
            let (acc, pot) = grav_exact(p.pos, s.pos, s.mass, p.softening.max(s.softening));
            p.acc += acc * g;
            p.potential += pot * g * p.mass;
        }
    });
}

/// Total energy (kinetic + ½Σ potential) of a particle set whose
/// potentials were filled by [`direct_gravity`].
pub fn total_energy(particles: &[Particle]) -> f64 {
    let ke: f64 = particles.iter().map(|p| p.kinetic_energy()).sum();
    let pe: f64 = particles.iter().map(|p| p.potential).sum::<f64>() * 0.5;
    ke + pe
}

/// RMS relative acceleration error of `test` against `reference`,
/// matching particles by id. Panics if the id sets differ.
pub fn rms_acc_error(test: &[Particle], reference: &[Particle]) -> f64 {
    let by_id: std::collections::HashMap<u64, &Particle> =
        reference.iter().map(|p| (p.id, p)).collect();
    let mut sum = 0.0;
    let mut n = 0usize;
    for p in test {
        let r = by_id[&p.id];
        let denom = r.acc.norm();
        if denom > 0.0 {
            let rel = (p.acc - r.acc).norm() / denom;
            sum += rel * rel;
            n += 1;
        }
    }
    (sum / n.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::{gen, Particle};

    #[test]
    fn two_body_forces_are_equal_and_opposite() {
        let mut ps = vec![
            Particle::point_mass(0, 2.0, Vec3::ZERO),
            Particle::point_mass(1, 3.0, Vec3::new(1.0, 0.0, 0.0)),
        ];
        direct_gravity(&mut ps, 1.0);
        let f0 = ps[0].acc * ps[0].mass;
        let f1 = ps[1].acc * ps[1].mass;
        assert!((f0 + f1).norm() < 1e-14);
        assert!(f0.x > 0.0, "0 attracted toward 1");
    }

    #[test]
    fn net_momentum_change_is_zero() {
        let mut ps = gen::plummer(200, 3, 1.0, 1.0);
        direct_gravity(&mut ps, 1.0);
        let net: Vec3 = ps.iter().map(|p| p.acc * p.mass).fold(Vec3::ZERO, |a, v| a + v);
        assert!(net.norm() < 1e-10, "net force {net:?}");
    }

    #[test]
    fn plummer_is_near_virial_equilibrium() {
        // For a Plummer sphere in equilibrium, 2K + W ≈ 0.
        let mut ps = gen::plummer(5000, 7, 1.0, 1.0);
        direct_gravity(&mut ps, 1.0);
        let ke: f64 = ps.iter().map(|p| p.kinetic_energy()).sum();
        let pe: f64 = ps.iter().map(|p| p.potential).sum::<f64>() * 0.5;
        let virial = (2.0 * ke + pe).abs() / pe.abs();
        assert!(virial < 0.15, "virial ratio residual {virial}");
    }

    #[test]
    fn rms_error_of_identical_sets_is_zero() {
        let mut ps = gen::uniform_cube(50, 1, 1.0, 1.0);
        direct_gravity(&mut ps, 1.0);
        assert_eq!(rms_acc_error(&ps, &ps), 0.0);
    }
}
