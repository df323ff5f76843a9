//! Stochastic rotation dynamics (SRD / multi-particle collision dynamics).
//!
//! The collision step of MP2C (Gompper et al., reference 11 of the paper):
//! particles
//! are binned into cubic cells; within each cell, velocities relative to
//! the cell's mean are rotated by a fixed angle α around a random axis.
//! This conserves momentum and kinetic energy per cell exactly — which is
//! what the functional tests verify.
//!
//! The same algorithm is implemented once and used both as the CPU
//! reference and as the GPU kernel body (the paper's CUDA SRD kernel).

use dacc_sim::prelude::*;
use dacc_vgpu::kernel::{KernelError, KernelRegistry};

use crate::particles::Particles;

/// SRD parameters.
#[derive(Clone, Copy, Debug)]
pub struct SrdParams {
    /// Cubic cell edge length.
    pub cell_size: f64,
    /// Rotation angle in radians (130° is the conventional choice).
    pub alpha: f64,
    /// Simulation box edge lengths (cells must tile it).
    pub box_size: [f64; 3],
}

impl SrdParams {
    /// Number of cells along each axis. Panics unless the cells tile the
    /// box ([`SrdParams::cells`] is the check).
    pub fn grid_dims(&self) -> [usize; 3] {
        self.tiling().unwrap_or_else(|| {
            let (b, c) = (self.box_size, self.cell_size);
            panic!("box size {b:?} not a multiple of cell size {c}")
        })
    }

    /// The number of cells, if they tile the box and their count fits a
    /// `usize`.
    pub fn cells(&self) -> Option<usize> {
        let [x, y, z] = self.tiling()?;
        x.checked_mul(y)?.checked_mul(z)
    }

    fn tiling(&self) -> Option<[usize; 3]> {
        let mut d = [0usize; 3];
        for a in 0..3 {
            let cells = self.box_size[a] / self.cell_size;
            d[a] = cells.round() as usize;
            let tiles = (cells - d[a] as f64).abs() < 1e-9 && d[a] > 0;
            tiles.then_some(())?;
        }
        Some(d)
    }

    /// Cell index of a position (positions must lie inside the box).
    pub fn cell_of(&self, pos: [f64; 3]) -> usize {
        let d = self.grid_dims();
        let mut idx = 0usize;
        for a in (0..3).rev() {
            let mut c = (pos[a] / self.cell_size).floor() as isize;
            // Clamp boundary rounding.
            c = c.clamp(0, d[a] as isize - 1);
            idx = idx * d[a] + c as usize;
        }
        idx
    }
}

/// Deterministic per-(seed, step, cell) unit rotation axis.
///
/// SplitMix64-style hashing so the CPU reference and the GPU kernel body
/// generate identical axes.
pub fn cell_axis(seed: u64, step: u64, cell: u64) -> [f64; 3] {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(cell.wrapping_mul(0x94D0_49BB_1331_11EB));
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    // Marsaglia: uniform point on the sphere.
    loop {
        let u = 2.0 * next() - 1.0;
        let v = 2.0 * next() - 1.0;
        let s = u * u + v * v;
        if s < 1.0 && s > 1e-12 {
            let f = 2.0 * (1.0 - s).sqrt();
            return [u * f, v * f, 1.0 - 2.0 * s];
        }
    }
}

/// Rotate `v` by angle `alpha` around unit axis `n` (Rodrigues).
pub fn rotate(v: [f64; 3], n: [f64; 3], alpha: f64) -> [f64; 3] {
    let (c, s) = (alpha.cos(), alpha.sin());
    let dot = v[0] * n[0] + v[1] * n[1] + v[2] * n[2];
    let cross = [
        n[1] * v[2] - n[2] * v[1],
        n[2] * v[0] - n[0] * v[2],
        n[0] * v[1] - n[1] * v[0],
    ];
    let mut out = [0.0; 3];
    for a in 0..3 {
        out[a] = v[a] * c + cross[a] * s + n[a] * dot * (1.0 - c);
    }
    out
}

/// One SRD collision step on the CPU: rotates velocities in place.
pub fn srd_collide(particles: &mut Particles, params: &SrdParams, seed: u64, step: u64) {
    let n = particles.len();
    if n == 0 {
        return;
    }
    let d = params.grid_dims();
    let ncells = d[0] * d[1] * d[2];
    // Bin particles.
    let mut cell_of = vec![0usize; n];
    let mut count = vec![0u32; ncells];
    let mut mean = vec![[0.0f64; 3]; ncells];
    for i in 0..n {
        let c = params.cell_of(particles.position(i));
        cell_of[i] = c;
        count[c] += 1;
        let v = particles.velocity(i);
        for a in 0..3 {
            mean[c][a] += v[a];
        }
    }
    for (c, m) in mean.iter_mut().enumerate() {
        if count[c] > 0 {
            for a in m.iter_mut() {
                *a /= count[c] as f64;
            }
        }
    }
    // Rotate relative velocities per cell.
    for i in 0..n {
        let c = cell_of[i];
        if count[c] < 2 {
            continue; // a lone particle has no relative velocity to rotate
        }
        let axis = cell_axis(seed, step, c as u64);
        let v = particles.velocity(i);
        let rel = [v[0] - mean[c][0], v[1] - mean[c][1], v[2] - mean[c][2]];
        let rot = rotate(rel, axis, params.alpha);
        for a in 0..3 {
            particles.vel[3 * i + a] = mean[c][a] + rot[a];
        }
    }
}

/// Register the SRD GPU kernel:
///
/// `mp2c.srd(pos, vel, n, cell_size, alpha, bx, by, bz, seed, step)`
///
/// Cost model: binning + reduction + rotation are memory-bound; ≈ 20 memory
/// ops per particle at the device's effective bandwidth plus a flop term.
pub fn register_srd_kernel(reg: &KernelRegistry) {
    reg.register(
        "mp2c.srd",
        10,
        |_cfg, args, p| {
            let n = args[2].u64().unwrap_or(0);
            // ~60 flops/particle of rotation math plus memory traffic;
            // net ≈ memory bound: ~12 ns/particle on a C1060-class part,
            // scaled from peak.
            let per_particle = 900.0 / p.fp64_peak_flops; // seconds
            SimDuration::from_secs_f64(n as f64 * per_particle)
        },
        |mem, _cfg, args| {
            let pos_ptr = args[0].ptr()?;
            let vel_ptr = args[1].ptr()?;
            let n = args[2].usize()?;
            let cell_size = args[3].f64()?;
            let alpha = args[4].f64()?;
            let box_size = [args[5].f64()?, args[6].f64()?, args[7].f64()?];
            let seed = args[8].u64()?;
            let step = args[9].u64()?;
            let params = SrdParams {
                cell_size,
                alpha,
                box_size,
            };
            // The per-cell count and mean (28 bytes, rounded up) live in
            // device memory on a real device.
            let cells = params.cells().and_then(|c| c.checked_mul(32));
            if cells.is_none_or(|bytes| bytes as u64 > mem.capacity()) {
                let why = format!("{box_size:?} box of {cell_size} cells");
                return Err(KernelError::BadArg(why));
            }
            let words = n.checked_mul(3);
            let words = words.ok_or_else(|| KernelError::BadArg(format!("{n} particles")))?;
            let mut particles = Particles {
                pos: mem.read_f64(pos_ptr, words)?,
                vel: mem.read_f64(vel_ptr, words)?,
            };
            srd_collide(&mut particles, &params, seed, step);
            mem.write_f64(vel_ptr, &particles.vel)?;
            Ok(())
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacc_sim::rng::SimRng;

    fn params() -> SrdParams {
        SrdParams {
            cell_size: 1.0,
            alpha: 130.0_f64.to_radians(),
            box_size: [4.0, 4.0, 4.0],
        }
    }

    #[test]
    fn grid_dims_and_cell_of() {
        let p = params();
        assert_eq!(p.grid_dims(), [4, 4, 4]);
        assert_eq!(p.cell_of([0.5, 0.5, 0.5]), 0);
        assert_ne!(p.cell_of([1.5, 0.5, 0.5]), p.cell_of([0.5, 0.5, 0.5]));
        // Boundary clamp: exactly on the upper face maps inside.
        let _ = p.cell_of([4.0, 4.0, 4.0]);
    }

    #[test]
    fn rotation_preserves_length() {
        let axis = cell_axis(1, 2, 3);
        let norm = (axis[0].powi(2) + axis[1].powi(2) + axis[2].powi(2)).sqrt();
        assert!((norm - 1.0).abs() < 1e-12, "axis not unit: {norm}");
        let v = [1.0, -2.0, 0.5];
        let r = rotate(v, axis, 1.1);
        let lv = (v[0].powi(2) + v[1].powi(2) + v[2].powi(2)).sqrt();
        let lr = (r[0].powi(2) + r[1].powi(2) + r[2].powi(2)).sqrt();
        assert!((lv - lr).abs() < 1e-12);
    }

    #[test]
    fn axis_is_deterministic_and_varies() {
        assert_eq!(cell_axis(7, 8, 9), cell_axis(7, 8, 9));
        assert_ne!(cell_axis(7, 8, 9), cell_axis(7, 8, 10));
        assert_ne!(cell_axis(7, 8, 9), cell_axis(7, 9, 9));
    }

    #[test]
    fn srd_conserves_momentum_and_energy() {
        let mut rng = SimRng::new(42);
        let mut particles = Particles::random(640, [0.0; 3], [4.0; 3], &mut rng);
        let p0 = particles.total_momentum();
        let e0 = particles.kinetic_energy();
        srd_collide(&mut particles, &params(), 1, 5);
        let p1 = particles.total_momentum();
        let e1 = particles.kinetic_energy();
        for a in 0..3 {
            assert!((p0[a] - p1[a]).abs() < 1e-9, "momentum drift axis {a}");
        }
        assert!((e0 - e1).abs() / e0 < 1e-12, "energy drift {e0} -> {e1}");
    }

    #[test]
    fn srd_per_cell_momentum_conserved() {
        let mut rng = SimRng::new(43);
        let mut particles = Particles::random(640, [0.0; 3], [4.0; 3], &mut rng);
        let p = params();
        // Per-cell momentum before.
        let ncells = 64;
        let mut before = vec![[0.0; 3]; ncells];
        for i in 0..particles.len() {
            let c = p.cell_of(particles.position(i));
            let v = particles.velocity(i);
            for a in 0..3 {
                before[c][a] += v[a];
            }
        }
        srd_collide(&mut particles, &p, 9, 0);
        let mut after = vec![[0.0; 3]; ncells];
        for i in 0..particles.len() {
            let c = p.cell_of(particles.position(i));
            let v = particles.velocity(i);
            for a in 0..3 {
                after[c][a] += v[a];
            }
        }
        for c in 0..ncells {
            for a in 0..3 {
                assert!(
                    (before[c][a] - after[c][a]).abs() < 1e-10,
                    "cell {c} momentum changed"
                );
            }
        }
    }

    #[test]
    fn srd_actually_changes_velocities() {
        let mut rng = SimRng::new(44);
        let mut particles = Particles::random(640, [0.0; 3], [4.0; 3], &mut rng);
        let before = particles.vel.clone();
        srd_collide(&mut particles, &params(), 3, 1);
        let changed = particles
            .vel
            .iter()
            .zip(&before)
            .filter(|(a, b)| (*a - *b).abs() > 1e-12)
            .count();
        assert!(
            changed > before.len() / 2,
            "only {changed} components changed"
        );
    }

    #[test]
    fn lone_particle_untouched() {
        let mut particles = Particles::new();
        particles.push([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]);
        srd_collide(&mut particles, &params(), 1, 1);
        assert_eq!(particles.velocity(0), [1.0, 2.0, 3.0]);
    }
}
