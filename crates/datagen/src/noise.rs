//! Multi-octave lattice value noise.
//!
//! All dataset generators are built from the same primitive: smooth random
//! fields obtained by summing several octaves of tri-linearly interpolated
//! lattice noise with geometrically decaying amplitudes. This gives the
//! multi-scale correlation structure real scientific fields have (and that
//! interpolation-based predictors exploit) at a few multiply-adds per point,
//! so paper-scale grids can be generated quickly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smooth-step used for lattice interpolation (C¹ continuous).
#[inline(always)]
fn smooth(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// A single octave: random values on an integer lattice, interpolated
/// smoothly in up to three dimensions.
#[derive(Debug, Clone)]
struct Lattice {
    nz: usize,
    ny: usize,
    nx: usize,
    values: Vec<f32>,
}

impl Lattice {
    fn new(nz: usize, ny: usize, nx: usize, rng: &mut StdRng) -> Self {
        let values = (0..nz * ny * nx)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Lattice { nz, ny, nx, values }
    }

    #[inline(always)]
    fn at(&self, z: usize, y: usize, x: usize) -> f32 {
        self.values
            [(z.min(self.nz - 1) * self.ny + y.min(self.ny - 1)) * self.nx + x.min(self.nx - 1)]
    }

    /// Tri-linear (smooth-stepped) interpolation of the lattice at fractional
    /// coordinates `(z, y, x)` expressed in lattice units.
    fn sample(&self, z: f32, y: f32, x: f32) -> f32 {
        let z0 = z.floor().max(0.0) as usize;
        let y0 = y.floor().max(0.0) as usize;
        let x0 = x.floor().max(0.0) as usize;
        let tz = smooth(z - z0 as f32);
        let ty = smooth(y - y0 as f32);
        let tx = smooth(x - x0 as f32);
        let c000 = self.at(z0, y0, x0);
        let c001 = self.at(z0, y0, x0 + 1);
        let c010 = self.at(z0, y0 + 1, x0);
        let c011 = self.at(z0, y0 + 1, x0 + 1);
        let c100 = self.at(z0 + 1, y0, x0);
        let c101 = self.at(z0 + 1, y0, x0 + 1);
        let c110 = self.at(z0 + 1, y0 + 1, x0);
        let c111 = self.at(z0 + 1, y0 + 1, x0 + 1);
        let c00 = c000 + (c001 - c000) * tx;
        let c01 = c010 + (c011 - c010) * tx;
        let c10 = c100 + (c101 - c100) * tx;
        let c11 = c110 + (c111 - c110) * tx;
        let c0 = c00 + (c01 - c00) * ty;
        let c1 = c10 + (c11 - c10) * ty;
        c0 + (c1 - c0) * tz
    }
}

/// Multi-octave smooth value noise over the unit cube.
///
/// `octaves` lattices with resolutions `base, 2·base, 4·base, …` are summed
/// with amplitudes `1, persistence, persistence², …`. Larger `persistence`
/// yields rougher fields (turbulence-like); smaller yields very smooth fields
/// (climate-like).
#[derive(Debug, Clone)]
pub(crate) struct ValueNoise {
    octaves: Vec<(Lattice, f32, f32)>,
    norm: f32,
}

impl ValueNoise {
    /// Builds a noise generator.
    ///
    /// * `base` — lattice resolution of the coarsest octave (≥ 1).
    /// * `octaves` — number of octaves (≥ 1).
    /// * `persistence` — amplitude decay per octave, in `(0, 1]`.
    /// * `three_d` — whether the lattice varies along `z`.
    pub(crate) fn new(
        seed: u64,
        base: usize,
        octaves: usize,
        persistence: f32,
        three_d: bool,
    ) -> Self {
        assert!(base >= 1 && octaves >= 1);
        assert!(persistence > 0.0 && persistence <= 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(octaves);
        let mut amp = 1.0f32;
        let mut norm = 0.0f32;
        for o in 0..octaves {
            let res = base << o;
            let nz = if three_d { res + 1 } else { 1 };
            let lattice = Lattice::new(nz, res + 1, res + 1, &mut rng);
            layers.push((lattice, amp, res as f32));
            norm += amp;
            amp *= persistence;
        }
        ValueNoise {
            octaves: layers,
            norm,
        }
    }

    /// Samples the noise at normalised coordinates in `[0, 1]³`, returning a
    /// value roughly in `[-1, 1]`.
    pub(crate) fn sample(&self, z: f32, y: f32, x: f32) -> f32 {
        let mut acc = 0.0f32;
        for (lattice, amp, res) in &self.octaves {
            let lz = if lattice.nz == 1 { 0.0 } else { z * res };
            acc += amp * lattice.sample(lz, y * res, x * res);
        }
        acc / self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_per_seed() {
        let a = ValueNoise::new(42, 4, 3, 0.5, true);
        let b = ValueNoise::new(42, 4, 3, 0.5, true);
        let c = ValueNoise::new(43, 4, 3, 0.5, true);
        let p = (0.3, 0.7, 0.1);
        assert_eq!(a.sample(p.0, p.1, p.2), b.sample(p.0, p.1, p.2));
        assert_ne!(a.sample(p.0, p.1, p.2), c.sample(p.0, p.1, p.2));
    }

    #[test]
    fn noise_is_bounded() {
        let n = ValueNoise::new(1, 8, 5, 0.6, true);
        for i in 0..1000 {
            let t = i as f32 / 1000.0;
            let v = n.sample(t, (t * 7.3) % 1.0, (t * 3.1) % 1.0);
            assert!(v.abs() <= 1.5, "noise value {v} out of expected range");
        }
    }

    #[test]
    fn noise_is_smooth_at_fine_scale() {
        // Neighbouring samples one thousandth apart must differ by much less
        // than the full amplitude — the field is continuous.
        let n = ValueNoise::new(7, 4, 4, 0.5, true);
        let mut max_step = 0.0f32;
        for i in 0..999 {
            let t0 = i as f32 / 1000.0;
            let t1 = (i + 1) as f32 / 1000.0;
            max_step = max_step.max((n.sample(0.5, 0.5, t0) - n.sample(0.5, 0.5, t1)).abs());
        }
        assert!(
            max_step < 0.2,
            "noise jumps by {max_step} between adjacent fine samples"
        );
    }

    #[test]
    fn two_d_noise_ignores_z() {
        let n = ValueNoise::new(5, 4, 3, 0.5, false);
        assert_eq!(n.sample(0.1, 0.4, 0.6), n.sample(0.9, 0.4, 0.6));
    }
}
