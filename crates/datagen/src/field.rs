//! Per-dataset field generators.
//!
//! Each [`DatasetKind`] variant corresponds to one of the six SDRBench
//! datasets the paper evaluates on (Table 3) and produces synthetic fields of
//! matched dimensionality and character. The experiment harness defaults to
//! the laptop-scale [`DatasetKind::default_dims`] and scales up on request.

use crate::noise::ValueNoise;
use rayon::prelude::*;
use szhi_ndgrid::{Dims, Grid};

/// The six dataset families of the paper's evaluation (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Community Earth System Model, atmosphere component — smooth 2D
    /// climate fields (1800 × 3600 in the paper).
    CesmAtm,
    /// Johns Hopkins Turbulence Database — rough, multi-scale 3D turbulence
    /// (512³ in the paper).
    Jhtdb,
    /// Miranda hydrodynamics — smooth regions separated by sharp material
    /// interfaces (256 × 384 × 384 in the paper).
    Miranda,
    /// Nyx cosmological hydrodynamics — log-normal density fields with a very
    /// large dynamic range (512³ in the paper).
    Nyx,
    /// QMCPack quantum Monte Carlo — localized orbital-like wave functions
    /// (288 × 115 × 69 × 69 in the paper; generated here as the 3D spatial
    /// part, the leading axis being a batch of orbitals).
    Qmcpack,
    /// Reverse-time-migration seismic imaging — banded wave fields
    /// (449 × 449 × 235 in the paper).
    Rtm,
}

impl DatasetKind {
    /// Short lowercase name used in experiment output (matches the paper's
    /// table rows).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::CesmAtm => "cesm-atm",
            DatasetKind::Jhtdb => "jhtdb",
            DatasetKind::Miranda => "miranda",
            DatasetKind::Nyx => "nyx",
            DatasetKind::Qmcpack => "qmcpack",
            DatasetKind::Rtm => "rtm",
        }
    }

    /// Parses a dataset name as printed by [`DatasetKind::name`].
    #[cfg(test)]
    fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cesm-atm" | "cesm" => Some(DatasetKind::CesmAtm),
            "jhtdb" => Some(DatasetKind::Jhtdb),
            "miranda" => Some(DatasetKind::Miranda),
            "nyx" => Some(DatasetKind::Nyx),
            "qmcpack" => Some(DatasetKind::Qmcpack),
            "rtm" => Some(DatasetKind::Rtm),
            _ => None,
        }
    }

    /// The field dimensions used by the paper (Table 3). The QMCPack 4D file
    /// is represented by its 3D spatial grid (one orbital).
    #[cfg(test)]
    fn paper_dims(&self) -> Dims {
        match self {
            DatasetKind::CesmAtm => Dims::d2(1800, 3600),
            DatasetKind::Jhtdb => Dims::d3(512, 512, 512),
            DatasetKind::Miranda => Dims::d3(256, 384, 384),
            DatasetKind::Nyx => Dims::d3(512, 512, 512),
            DatasetKind::Qmcpack => Dims::d3(115, 69, 69),
            DatasetKind::Rtm => Dims::d3(449, 449, 235),
        }
    }

    /// Laptop-scale default dimensions used by tests and the experiment
    /// harness (same aspect ratios as the paper shapes, a few megabytes per
    /// field).
    pub fn default_dims(&self) -> Dims {
        match self {
            DatasetKind::CesmAtm => Dims::d2(450, 900),
            DatasetKind::Jhtdb => Dims::d3(128, 128, 128),
            DatasetKind::Miranda => Dims::d3(64, 96, 96),
            DatasetKind::Nyx => Dims::d3(128, 128, 128),
            DatasetKind::Qmcpack => Dims::d3(115, 69, 69),
            DatasetKind::Rtm => Dims::d3(112, 112, 59),
        }
    }

    /// Generates a synthetic field of this family.
    pub fn generate(&self, dims: Dims, seed: u64) -> Grid<f32> {
        let spec = FieldSpec {
            kind: *self,
            dims,
            seed,
        };
        spec.generate()
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified synthetic field (dataset family, shape, seed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldSpec {
    /// Dataset family to imitate.
    pub kind: DatasetKind,
    /// Output shape.
    pub dims: Dims,
    /// RNG seed; the generated field is a pure function of `(kind, dims, seed)`.
    pub seed: u64,
}

impl FieldSpec {
    /// Generates the field described by this spec.
    pub(crate) fn generate(&self) -> Grid<f32> {
        let dims = self.dims;
        let point = self.point_fn();
        let nx = dims.nx();
        let ny = dims.ny();
        let nz = dims.nz();
        // One z-plane per parallel task: planes are large enough to amortise
        // scheduling and small enough to balance.
        let planes: Vec<Vec<f32>> = (0..nz)
            .into_par_iter()
            .map(|z| {
                let fz = if nz > 1 {
                    z as f32 / (nz - 1) as f32
                } else {
                    0.0
                };
                let mut plane = Vec::with_capacity(ny * nx);
                for y in 0..ny {
                    let fy = if ny > 1 {
                        y as f32 / (ny - 1) as f32
                    } else {
                        0.0
                    };
                    for x in 0..nx {
                        let fx = if nx > 1 {
                            x as f32 / (nx - 1) as f32
                        } else {
                            0.0
                        };
                        plane.push(point(fz, fy, fx));
                    }
                }
                plane
            })
            .collect();
        Grid::from_vec(dims, planes.concat())
    }

    /// Builds the per-point evaluation closure for this dataset family. All
    /// coordinates are normalised to `[0, 1]`.
    fn point_fn(&self) -> Box<dyn Fn(f32, f32, f32) -> f32 + Sync + Send> {
        let seed = self.seed;
        let three_d = self.dims.nz() > 1;
        match self.kind {
            DatasetKind::CesmAtm => {
                // Very smooth large-scale structure: a latitudinal gradient
                // plus two gentle noise octaves, mimicking temperature /
                // pressure style climate variables.
                let broad = ValueNoise::new(seed, 3, 3, 0.45, false);
                let detail = ValueNoise::new(seed ^ 0x9e37_79b9, 24, 2, 0.5, false);
                Box::new(move |_z, y, x| {
                    let lat = (std::f32::consts::PI * y).sin();
                    240.0
                        + 60.0 * lat
                        + 18.0 * broad.sample(0.0, y, x)
                        + 0.8 * detail.sample(0.0, y, x)
                })
            }
            DatasetKind::Jhtdb => {
                // Turbulence-like velocity component: multi-octave noise with
                // decaying fine-scale amplitude (well-resolved DNS fields are
                // smooth at grid resolution — the dissipation range kills the
                // highest wavenumbers), zero mean.
                let turb = ValueNoise::new(seed, 3, 6, 0.33, three_d);
                let sweep = ValueNoise::new(seed ^ 0xabcd_ef01, 2, 2, 0.5, three_d);
                Box::new(move |z, y, x| 2.4 * turb.sample(z, y, x) + 0.8 * sweep.sample(z, y, x))
            }
            DatasetKind::Miranda => {
                // Two-fluid hydrodynamics: densities around 1 and 3 separated
                // by a rippled interface, with mild internal fluctuations.
                let interface = ValueNoise::new(seed, 3, 3, 0.5, three_d);
                let ripple = ValueNoise::new(seed ^ 0x5555_aaaa, 6, 2, 0.4, three_d);
                Box::new(move |z, y, x| {
                    let front = 0.5 + 0.18 * interface.sample(0.0, z, x);
                    let phase = (y - front) / 0.05;
                    let mix = 0.5 * (phase.tanh() + 1.0);
                    1.0 + 2.0 * mix + 0.03 * ripple.sample(z, y, x)
                })
            }
            DatasetKind::Nyx => {
                // Log-normal baryon density: exponentiated smooth Gaussian
                // field, giving a huge dynamic range with rare dense peaks.
                let log_field = ValueNoise::new(seed, 3, 5, 0.38, three_d);
                let peaks = ValueNoise::new(seed ^ 0x1357_2468, 5, 3, 0.45, three_d);
                Box::new(move |z, y, x| {
                    let base = 3.4 * log_field.sample(z, y, x);
                    let spike = (2.8 * peaks.sample(z, y, x) - 1.6).max(0.0);
                    1.0e9 * (base + 3.0 * spike * spike).exp()
                })
            }
            DatasetKind::Qmcpack => {
                // Orbital-like wave function: a few Gaussian lobes modulated
                // by a plane-wave phase, decaying toward the box boundary.
                let centers: Vec<(f32, f32, f32, f32)> = {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    (0..6)
                        .map(|_| {
                            (
                                rng.gen_range(0.2f32..0.8),
                                rng.gen_range(0.2f32..0.8),
                                rng.gen_range(0.2f32..0.8),
                                rng.gen_range(0.05f32..0.15),
                            )
                        })
                        .collect()
                };
                let modulation = ValueNoise::new(seed ^ 0xdead_beef, 4, 2, 0.45, three_d);
                Box::new(move |z, y, x| {
                    let mut acc = 0.0f32;
                    for &(cz, cy, cx, w) in &centers {
                        let r2 = (z - cz).powi(2) + (y - cy).powi(2) + (x - cx).powi(2);
                        acc += (-r2 / (2.0 * w * w)).exp();
                    }
                    let phase = (8.0 * x + 5.0 * y + 3.0 * z) * std::f32::consts::PI;
                    acc * phase.cos() * (1.0 + 0.3 * modulation.sample(z, y, x))
                })
            }
            DatasetKind::Rtm => {
                // Seismic wavefield snapshot: Ricker-like wavefronts over a
                // layered background, mostly smooth with banded oscillations.
                let layering = ValueNoise::new(seed, 3, 2, 0.5, three_d);
                let fronts = ValueNoise::new(seed ^ 0x0f0f_f0f0, 4, 3, 0.5, three_d);
                Box::new(move |z, y, x| {
                    let depth = z + 0.05 * layering.sample(0.0, y, x);
                    let front_center = 0.45 + 0.1 * fronts.sample(0.0, y, x);
                    let t = (depth - front_center) / 0.09;
                    let ricker = (1.0 - 2.0 * t * t) * (-t * t).exp();
                    let bands = (10.0 * std::f32::consts::PI * depth).sin()
                        * (-((depth - 0.5) * 3.0).powi(2)).exp();
                    1.0e3 * (ricker + 0.35 * bands) + 25.0 * layering.sample(z, y, x)
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let d = Dims::d3(16, 16, 16);
        for kind in crate::all_kinds() {
            let a = kind.generate(d, 3);
            let b = kind.generate(d, 3);
            assert_eq!(a.as_slice(), b.as_slice(), "{kind} not deterministic");
            let c = kind.generate(d, 4);
            assert_ne!(a.as_slice(), c.as_slice(), "{kind} ignores the seed");
        }
    }

    /// FNV-1a-64 over the little-endian bytes of each value's bit pattern.
    fn fnv1a64(values: &[f32]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn generated_fields_are_pinned_at_every_thread_count() {
        struct ResetThreads;
        impl Drop for ResetThreads {
            fn drop(&mut self) {
                rayon::set_num_threads(0);
            }
        }
        let _reset = ResetThreads;
        let pinned = [
            (DatasetKind::CesmAtm, 0xf7b0_e99d_e553_22c0u64),
            (DatasetKind::Jhtdb, 0x2ac0_fd35_9506_b3e8),
            (DatasetKind::Miranda, 0x221d_f016_7275_7fe6),
            (DatasetKind::Nyx, 0x6a84_0300_1183_177a),
            (DatasetKind::Qmcpack, 0x3a5a_afe6_85de_6c53),
            (DatasetKind::Rtm, 0xb62b_0a30_399d_75f5),
        ];
        for threads in [1, 4] {
            rayon::set_num_threads(threads);
            for (kind, want) in pinned {
                let dims = if kind == DatasetKind::CesmAtm {
                    Dims::d2(100, 130)
                } else {
                    Dims::d3(33, 20, 47)
                };
                let got = fnv1a64(kind.generate(dims, 42).as_slice());
                assert_eq!(got, want, "{kind} at {threads} threads: {got:016x}");
            }
        }
    }

    #[test]
    fn fields_are_finite_and_nonconstant() {
        for kind in crate::all_kinds() {
            let dims = if kind == DatasetKind::CesmAtm {
                Dims::d2(48, 64)
            } else {
                Dims::d3(24, 24, 24)
            };
            let g = kind.generate(dims, 11);
            assert!(
                g.as_slice().iter().all(|v| v.is_finite()),
                "{kind} produced non-finite values"
            );
            let (lo, hi) = g.min_max();
            assert!(hi > lo, "{kind} produced a constant field");
        }
    }

    #[test]
    fn cesm_is_two_dimensional_and_smooth() {
        let g = DatasetKind::CesmAtm.generate(Dims::d2(64, 128), 5);
        // Neighbouring points should differ by a small fraction of the range.
        let range = g.value_range();
        let mut max_step = 0.0f32;
        for y in 0..64 {
            for x in 0..127 {
                max_step = max_step.max((g.get(0, y, x + 1) - g.get(0, y, x)).abs());
            }
        }
        assert!(
            max_step < 0.2 * range,
            "CESM field not smooth: step {max_step} range {range}"
        );
    }

    #[test]
    fn nyx_has_large_dynamic_range() {
        let g = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 9);
        let (lo, hi) = g.min_max();
        assert!(lo > 0.0, "Nyx densities must be positive");
        assert!(hi / lo > 50.0, "Nyx dynamic range too small: {lo}..{hi}");
    }

    #[test]
    fn miranda_has_two_material_levels() {
        let g = DatasetKind::Miranda.generate(Dims::d3(32, 48, 48), 2);
        let near_low = g
            .as_slice()
            .iter()
            .filter(|&&v| (v - 1.0).abs() < 0.3)
            .count();
        let near_high = g
            .as_slice()
            .iter()
            .filter(|&&v| (v - 3.0).abs() < 0.3)
            .count();
        assert!(near_low > g.len() / 20, "no light-fluid region");
        assert!(near_high > g.len() / 20, "no dense-fluid region");
    }

    #[test]
    fn jhtdb_is_roughly_zero_mean() {
        let g = DatasetKind::Jhtdb.generate(Dims::d3(32, 32, 32), 13);
        let mean: f32 = g.as_slice().iter().sum::<f32>() / g.len() as f32;
        let range = g.value_range();
        assert!(
            mean.abs() < 0.35 * range,
            "JHTDB mean {mean} not near zero for range {range}"
        );
    }

    #[test]
    fn names_roundtrip() {
        for kind in crate::all_kinds() {
            assert_eq!(DatasetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(DatasetKind::from_name("unknown"), None);
    }

    #[test]
    fn paper_dims_match_table3() {
        assert_eq!(DatasetKind::CesmAtm.paper_dims(), Dims::d2(1800, 3600));
        assert_eq!(DatasetKind::Jhtdb.paper_dims(), Dims::d3(512, 512, 512));
        assert_eq!(DatasetKind::Miranda.paper_dims(), Dims::d3(256, 384, 384));
        assert_eq!(DatasetKind::Nyx.paper_dims(), Dims::d3(512, 512, 512));
        assert_eq!(DatasetKind::Rtm.paper_dims(), Dims::d3(449, 449, 235));
    }

    #[test]
    fn default_dims_are_laptop_sized() {
        for kind in crate::all_kinds() {
            assert!(
                kind.default_dims().nbytes_f32() <= 32 << 20,
                "{kind} default too large"
            );
        }
    }
}
