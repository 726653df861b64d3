//! The four named workloads: which fields each compresses, how, and
//! through which front door. README.md records why each was chosen.

use szhi_codec::PipelineSpec;
use szhi_core::{ErrorBound, ModeTuning, PipelineMode, SzhiConfig};
use szhi_datagen::DatasetKind;
use szhi_ndgrid::{ChunkPlan, Dims, Grid};
use szhi_predictor::InterpConfig;

/// How a chunk's lossless pipeline is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tuning {
    /// The CR pipeline for every chunk.
    Global,
    /// Trial-encode CR and TP per chunk, keep the smaller.
    PerChunk,
    /// `szhi-tuner` cost model over the Fig. 6 set, then a short trial list.
    Estimated,
}

impl Tuning {
    pub fn mode_tuning(self) -> ModeTuning {
        match self {
            Tuning::Global => ModeTuning::Global,
            Tuning::PerChunk => ModeTuning::PerChunk,
            Tuning::Estimated => ModeTuning::estimated(),
        }
    }

    pub fn cli_name(self) -> &'static str {
        match self {
            Tuning::Global => "global",
            Tuning::PerChunk => "per-chunk",
            Tuning::Estimated => "estimated",
        }
    }

    /// The pipelines offered to the selection, the configured default (CR)
    /// first — the order `szhi-core` resolves the same policy to.
    pub fn candidates(self) -> Vec<PipelineSpec> {
        let mut list = vec![PipelineSpec::CR];
        match self {
            Tuning::Global => {}
            Tuning::PerChunk => list.push(PipelineSpec::TP),
            Tuning::Estimated => {
                for c in PipelineSpec::fig6_set() {
                    if !list.contains(&c) {
                        list.push(c);
                    }
                }
            }
        }
        list
    }
}

/// The front door a workload's timed operations go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// In-memory `compress_chunked` / `decompress` / `decompress_chunk`.
    Lib,
    /// `szhi-cli encode` / `decode` subprocesses over files.
    Cli,
    /// `JobService` jobs over in-memory sinks and sources.
    Jobs,
}

/// One field of a workload and how it is compressed.
#[derive(Debug, Clone)]
pub struct Case {
    pub kind: DatasetKind,
    pub dims: Dims,
    pub span: [usize; 3],
    pub rel_eb: f64,
    pub tuning: Tuning,
    /// Whole-field interpolation auto-tuning; only the library path can run
    /// it, the streaming front doors never hold the whole field.
    pub auto_tune: bool,
    /// Per-chunk interpolation tuning (v5 container).
    pub chunk_interp: bool,
}

impl Case {
    pub fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.dims, self.span)
    }

    pub fn raw_bytes(&self) -> usize {
        self.dims.nbytes_f32()
    }

    pub fn generate(&self, seed: u64) -> Grid<f32> {
        self.kind.generate(self.dims, seed)
    }

    pub fn abs_eb(&self, field: &Grid<f32>) -> f64 {
        ErrorBound::Relative(self.rel_eb).absolute(field.value_range() as f64)
    }

    /// The configuration handed to `compress_chunked`.
    pub fn lib_config(&self) -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Relative(self.rel_eb))
            .with_mode(PipelineMode::Cr)
            .with_auto_tune(self.auto_tune)
            .with_mode_tuning(self.tuning.mode_tuning())
            .with_chunk_interp_tuning(self.chunk_interp)
    }

    /// The streaming-safe configuration (`StreamSink`, `JobService`): the
    /// bound already absolute, the interpolation configuration already
    /// resolved.
    pub fn stream_config(&self, abs_eb: f64, interp: &InterpConfig) -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_mode(PipelineMode::Cr)
            .with_auto_tune(false)
            .with_interp(interp.clone())
            .with_chunk_span(self.span)
            .with_mode_tuning(self.tuning.mode_tuning())
            .with_chunk_interp_tuning(self.chunk_interp)
    }

    fn csv(values: &[usize]) -> String {
        let parts: Vec<String> = values.iter().map(usize::to_string).collect();
        parts.join(",")
    }

    /// The `szhi-cli encode` options that describe this case.
    pub fn cli_encode_options(&self) -> Vec<String> {
        let mut args = vec![
            "--dims".to_string(),
            Self::csv(&self.dims.to_vec()),
            "--eb".to_string(),
            format!("{:e}", self.rel_eb),
            "--rel".to_string(),
            "--chunk-span".to_string(),
            Self::csv(&self.span),
            "--mode".to_string(),
            self.tuning.cli_name().to_string(),
        ];
        if self.chunk_interp {
            args.push("--tune-interp".to_string());
        }
        args
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub path: PathKind,
    pub cases: Vec<Case>,
}

impl Workload {
    pub fn raw_bytes(&self) -> usize {
        self.cases.iter().map(Case::raw_bytes).sum()
    }
}

fn cube(n: usize) -> Dims {
    Dims::d3(n, n, n)
}

/// The benchmark's workloads. `quick` shrinks every extent to 32–64 points
/// for the smoke test; names, paths and configurations stay.
pub fn all(quick: bool) -> Vec<Workload> {
    let pick = |full: Dims, small: Dims| if quick { small } else { full };
    let span = |full: usize, small: usize| {
        let s = if quick { small } else { full };
        [s, s, s]
    };
    let jobs_case = |kind, dims, span| Case {
        kind,
        dims,
        span,
        rel_eb: 1e-3,
        tuning: Tuning::PerChunk,
        auto_tune: false,
        chunk_interp: false,
    };
    // The three volumes of `jobs-mixed`.
    let volume = pick(cube(128), cube(48));
    vec![
        Workload {
            name: "smooth-loose-lib",
            path: PathKind::Lib,
            cases: vec![Case {
                kind: DatasetKind::Miranda,
                dims: pick(Dims::d3(128, 256, 256), cube(64)),
                span: span(64, 32),
                rel_eb: 1e-2,
                tuning: Tuning::Global,
                auto_tune: true,
                chunk_interp: false,
            }],
        },
        Workload {
            name: "turb-tight-tuned",
            path: PathKind::Lib,
            cases: vec![Case {
                kind: DatasetKind::Jhtdb,
                dims: pick(cube(176), cube(64)),
                span: span(64, 32),
                rel_eb: 1e-5,
                tuning: Tuning::Estimated,
                auto_tune: true,
                chunk_interp: true,
            }],
        },
        Workload {
            name: "cli-file",
            path: PathKind::Cli,
            cases: vec![Case {
                kind: DatasetKind::Rtm,
                // The last z-layer of chunks is ragged.
                dims: pick(Dims::d3(172, 192, 192), Dims::d3(40, 32, 32)),
                span: span(64, 16),
                rel_eb: 1e-3,
                tuning: Tuning::Global,
                auto_tune: false,
                chunk_interp: false,
            }],
        },
        Workload {
            name: "jobs-mixed",
            path: PathKind::Jobs,
            cases: vec![
                jobs_case(DatasetKind::Miranda, volume, span(32, 16)),
                jobs_case(DatasetKind::Jhtdb, volume, span(32, 16)),
                jobs_case(DatasetKind::Rtm, volume, span(32, 16)),
                // The only 2-D predictor path in the benchmark.
                jobs_case(
                    DatasetKind::CesmAtm,
                    pick(Dims::d2(1280, 1250), Dims::d2(256, 250)),
                    if quick { [1, 64, 64] } else { [1, 256, 256] },
                ),
            ],
        },
    ]
}
