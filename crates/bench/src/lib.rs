//! Shared runner for the paper-artefact binaries.
//!
//! `src/bin/` holds one binary per table or figure of the paper's
//! evaluation that `benchmark/run.sh` does not reproduce (Table 1, Fig. 5,
//! 6, 8, 9, Table 4, Table 5; each binary's module doc says what it
//! prints). Speed is measured by `benchmark/` alone. This library holds
//! what the binaries share: dataset preparation at a configurable scale,
//! the compressor registry, the verified compress/decompress cell and
//! table printing.
#![forbid(unsafe_code)]

use szhi_baselines::{Compressor, CuszI, CuszIb, CuszL, Cuszp2, FzGpu, SzhiCr, SzhiTp};
use szhi_codec::PipelineSpec;
use szhi_core::{ErrorBound, SzhiError};
use szhi_datagen::DatasetKind;
use szhi_metrics::{verify_error_bound, QualityReport};
use szhi_ndgrid::{Dims, Grid};
use szhi_predictor::{
    autotune, InterpConfig, InterpOutput, InterpPredictor, LevelOrder, PredictorError,
};
use szhi_telemetry::render_ascii_table;

/// Default seed for dataset generation; every experiment uses the same seed
/// so results are comparable across binaries.
pub(crate) const SEED: u64 = 42;

/// The error bounds used by the paper's fixed-error-bound experiments.
pub const PAPER_EBS: [f64; 3] = [1e-2, 1e-3, 1e-4];

/// Parses the experiment binaries' command line (without the program
/// name): nothing, or `--scale <f>` with a finite, positive `f`. A scale of
/// 1.0 (the default) uses the laptop-sized default dimensions; larger
/// scales approach the paper's dataset sizes.
pub(crate) fn parse_scale(args: &[String]) -> Result<f64, String> {
    match args {
        [] => Ok(1.0),
        [flag, value] if flag == "--scale" => match value.parse::<f64>() {
            Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
            _ => Err(format!(
                "--scale expects a finite positive number, got '{value}'"
            )),
        },
        [flag] if flag == "--scale" => Err("--scale requires a value".into()),
        [flag, _, extra, ..] if flag == "--scale" => Err(format!("unexpected argument '{extra}'")),
        [other, ..] => Err(format!("unexpected argument '{other}'")),
    }
}

/// The scale this process was started with. A malformed command line is a
/// usage error: a message on stderr and exit code 2, never a silent run of
/// a different experiment.
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: [--scale <f>]");
        std::process::exit(2)
    })
}

/// Scales a dataset's default dimensions by `scale` along every axis (keeping
/// the aspect ratio), clamped to at least 32 points per non-degenerate axis.
pub(crate) fn scaled_dims(kind: DatasetKind, scale: f64) -> Dims {
    let base = kind.default_dims();
    let s = |extent: usize| -> usize {
        if extent == 1 {
            1
        } else {
            ((extent as f64 * scale).round() as usize).max(32)
        }
    };
    match base.rank() {
        1 => Dims::d1(s(base.nx())),
        2 => Dims::d2(s(base.ny()), s(base.nx())),
        _ => Dims::d3(s(base.nz()), s(base.ny()), s(base.nx())),
    }
}

/// Generates the synthetic stand-in field for a dataset family at the given
/// scale.
pub fn dataset(kind: DatasetKind, scale: f64) -> Grid<f32> {
    kind.generate(scaled_dims(kind, scale), SEED)
}

/// The error-bounded compressors of Table 4, in the paper's column order.
pub fn error_bounded_compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzhiCr),
        Box::new(SzhiTp),
        Box::new(CuszL),
        Box::new(CuszI),
        Box::new(CuszIb),
        Box::new(Cuszp2),
        Box::new(FzGpu),
    ]
}

/// One measured compression run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Compressor name.
    pub compressor: String,
    /// Dataset name.
    pub dataset: String,
    /// Value-range-relative error bound requested (0.0 for fixed-rate runs).
    pub rel_eb: f64,
    /// Compression ratio achieved.
    pub ratio: f64,
    /// Bit rate (bits per value).
    pub bitrate: f64,
    /// PSNR of the reconstruction in dB.
    pub psnr: f64,
    /// Maximum point-wise absolute error.
    pub max_err: f64,
}

/// Why a cell has no [`RunResult`].
#[derive(Debug)]
pub enum CellError {
    /// The compressor itself failed.
    Compressor(SzhiError),
    /// The round trip completed but broke the requested error bound, so
    /// its ratio is not comparable with the cells that kept it.
    BoundViolated {
        /// Flat index of the worst point.
        index: usize,
        /// Absolute error at that point.
        error: f64,
        /// The absolute bound the run was asked to keep.
        bound: f64,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Compressor(e) => e.fmt(f),
            CellError::BoundViolated {
                index,
                error,
                bound,
            } => write!(
                f,
                "error bound violated: |err| {error:e} at point {index} exceeds {bound:e}"
            ),
        }
    }
}

impl From<SzhiError> for CellError {
    fn from(e: SzhiError) -> Self {
        CellError::Compressor(e)
    }
}

/// Runs one (compressor, dataset, error-bound) cell: compress, decompress,
/// verify and measure. A run with `rel_eb > 0` must keep every point within
/// the absolute bound `rel_eb` resolves to on this field, plus an
/// allowance for the baselines' final `f64 → f32` cast — the paper
/// compares ratios *under the same error bound*.
pub fn run_cell(
    c: &dyn Compressor,
    data: &Grid<f32>,
    name: &str,
    rel_eb: f64,
) -> Result<RunResult, CellError> {
    let bytes_in = data.dims().nbytes_f32();
    let compressed = c.compress(data, ErrorBound::Relative(rel_eb))?;
    let restored = c.decompress(&compressed)?;
    if rel_eb > 0.0 {
        check_bound(data, &restored, rel_eb)?;
    }
    let q = QualityReport::compare(data, &restored);
    Ok(RunResult {
        compressor: c.name().to_string(),
        dataset: name.to_string(),
        rel_eb,
        ratio: bytes_in as f64 / compressed.len() as f64,
        bitrate: compressed.len() as f64 * 8.0 / data.len() as f64,
        psnr: q.psnr,
        max_err: q.max_abs_error,
    })
}

/// Checks that `restored` keeps every point of `data` within the absolute
/// bound `rel_eb` resolves to on this field.
///
/// The check carries the measurement allowance `tests/end_to_end.rs`
/// derives for the dual-quantization baselines, which reconstruct `q·2ε`
/// through one `f64 → f32` cast: at most `|v|·f32::EPSILON` per point,
/// taken here at the field's largest magnitude, plus `1e-12` of `f64`
/// arithmetic noise.
fn check_bound(data: &Grid<f32>, restored: &Grid<f32>, rel_eb: f64) -> Result<(), CellError> {
    let bound = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
    let (lo, hi) = data.min_max();
    let cast_slack = lo.abs().max(hi.abs()) as f64 * f32::EPSILON as f64;
    verify_error_bound(
        data.as_slice(),
        restored.as_slice(),
        bound + cast_slack + 1e-12,
    )
    .map_err(|(index, error)| CellError::BoundViolated {
        index,
        error,
        bound,
    })
}

/// Prints a `## title` heading and the aligned table under it.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    print!("{}", render_ascii_table(headers, rows));
}

/// Produces the cuSZ-Hi quantization codes (the input of the lossless
/// benchmark experiments) for a field: auto-tuned interpolation at the given
/// relative error bound, optionally level-reordered.
pub fn quant_codes(data: &Grid<f32>, rel_eb: f64, reorder: bool) -> Vec<u8> {
    let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
    let (cfg, _) = autotune::tune(data, &InterpConfig::cusz_hi());
    let predictor = InterpPredictor::new(cfg.clone()).expect("tuned configurations are valid");
    let out = predictor.compress(data, abs_eb);
    if reorder {
        LevelOrder::new(data.dims(), cfg.anchor_stride).reorder(&out.codes)
    } else {
        out.codes
    }
}

/// The compressed size (bytes) of one ablation configuration: interpolation
/// config + optional reorder + lossless pipeline, accounting for anchors and
/// outliers like the real stream format does. Like [`run_cell`], a size
/// counts only once its payload has been decoded again, restored to raster
/// order and reconstructed within the bound.
pub fn ablation_compressed_size(
    data: &Grid<f32>,
    rel_eb: f64,
    interp: &InterpConfig,
    auto_tune: bool,
    reorder: bool,
    pipeline: PipelineSpec,
) -> Result<usize, CellError> {
    let dims = data.dims();
    let abs_eb = ErrorBound::Relative(rel_eb).absolute(data.value_range() as f64);
    let cfg = if auto_tune {
        autotune::tune(data, interp).0
    } else {
        interp.clone()
    };
    let invalid = |e: PredictorError| SzhiError::InvalidStream(e.to_string());
    let predictor = InterpPredictor::new(cfg.clone()).map_err(invalid)?;
    let out = predictor.compress(data, abs_eb);
    let order = LevelOrder::new(dims, cfg.anchor_stride);
    let payload = if reorder {
        pipeline.encode(&order.reorder(&out.codes))
    } else {
        pipeline.encode(&out.codes)
    };
    // Anchors (f32) + outliers (index u64 + value f32) + payload + header.
    let size = out.anchors.len() * 4 + out.outliers.len() * 12 + payload.len() + 64;

    let decoded = pipeline
        .decode_bounded(&payload, dims.len())
        .map_err(SzhiError::Codec)?;
    let codes = if reorder {
        order.restore(&decoded).map_err(invalid)?
    } else {
        decoded
    };
    let restored = predictor
        .decompress(dims, abs_eb, &InterpOutput { codes, ..out })
        .map_err(invalid)?;
    check_bound(data, &restored, rel_eb)?;
    Ok(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_dims_respect_rank_and_minimum() {
        let d = scaled_dims(DatasetKind::CesmAtm, 0.05);
        assert_eq!(d.rank(), 2);
        assert!(d.ny() >= 32 && d.nx() >= 32);
        let d = scaled_dims(DatasetKind::Nyx, 0.5);
        assert_eq!(d.rank(), 3);
        assert_eq!(d.nz(), 64);
    }

    #[test]
    fn run_cell_produces_consistent_metrics() {
        let g = dataset(DatasetKind::Miranda, 0.4);
        let c = SzhiCr;
        let r = run_cell(&c, &g, "miranda", 1e-3).unwrap();
        assert!(r.ratio > 1.0);
        assert!((r.bitrate - 32.0 / r.ratio).abs() < 1e-9);
        assert!(r.psnr > 30.0);
        assert!(r.max_err <= 1e-3 * g.value_range() as f64 + 1e-9);
    }

    /// A compressor that stores the field verbatim but hands every value
    /// back shifted by `shift`.
    struct Overshoot {
        dims: Dims,
        shift: f32,
    }

    impl Compressor for Overshoot {
        fn name(&self) -> &'static str {
            "overshoot"
        }
        fn compress(&self, data: &Grid<f32>, _eb: ErrorBound) -> Result<Vec<u8>, SzhiError> {
            Ok(data
                .as_slice()
                .iter()
                .flat_map(|v| (v + self.shift).to_le_bytes())
                .collect())
        }
        fn decompress(&self, bytes: &[u8]) -> Result<Grid<f32>, SzhiError> {
            let values = bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            Ok(Grid::from_vec(self.dims, values))
        }
    }

    #[test]
    fn run_cell_rejects_a_run_that_overshoots_its_bound() {
        let g = dataset(DatasetKind::Miranda, 0.2);
        let stub = |rel: f32| Overshoot {
            dims: g.dims(),
            shift: rel * g.value_range(),
        };
        let within = run_cell(&stub(5e-4), &g, "miranda", 1e-3).unwrap();
        assert!(within.max_err > 0.0);
        let err = run_cell(&stub(2e-3), &g, "miranda", 1e-3).unwrap_err();
        let CellError::BoundViolated { error, bound, .. } = &err else {
            panic!("expected a bound violation, got {err:?}")
        };
        assert!(error > bound);
        assert!(err.to_string().starts_with("error bound violated"));
    }

    #[test]
    fn scale_parser_rejects_everything_but_a_positive_finite_number() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert_eq!(parse_scale(&args("")), Ok(1.0));
        assert_eq!(parse_scale(&args("--scale 0.25")), Ok(0.25));
        for bad in [
            "--scale",
            "--scale abc",
            "--scale 0",
            "--scale -1",
            "--scale NaN",
            "--scale inf",
            "--scale 1 extra",
            "--scal 1",
            "0.5",
        ] {
            assert!(parse_scale(&args(bad)).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn quant_codes_cover_every_point() {
        let g = dataset(DatasetKind::Qmcpack, 0.4);
        let codes = quant_codes(&g, 1e-3, true);
        assert_eq!(codes.len(), g.len());
    }

    #[test]
    fn ablation_size_decreases_with_better_configs() {
        let g = dataset(DatasetKind::Nyx, 0.35);
        let base = ablation_compressed_size(
            &g,
            1e-2,
            &InterpConfig::cusz_i(),
            false,
            false,
            PipelineSpec::HfBitcomp,
        )
        .unwrap();
        let full = ablation_compressed_size(
            &g,
            1e-2,
            &InterpConfig::cusz_hi(),
            true,
            true,
            PipelineSpec::CR,
        )
        .unwrap();
        assert!(
            full < base,
            "full cuSZ-Hi ({full}) must beat the cuSZ-IB ablation baseline ({base})"
        );
    }
}
