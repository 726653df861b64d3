//! Compressor configuration.

use szhi_codec::PipelineSpec;
use szhi_predictor::InterpConfig;

/// The error-bound specification of a compression run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// A point-wise absolute bound `ε`.
    Absolute(f64),
    /// A value-range-relative bound: the absolute bound is
    /// `eb · (max − min)` of the input field (the convention used by every
    /// table and figure of the paper).
    Relative(f64),
}

impl ErrorBound {
    /// Resolves the bound to an absolute `ε` for a field with the given value
    /// range.
    pub fn absolute(&self, value_range: f64) -> f64 {
        match *self {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(eb) => {
                let abs = eb * value_range;
                if abs > 0.0 {
                    abs
                } else {
                    // Constant fields compress exactly under any positive bound.
                    eb.max(f64::MIN_POSITIVE)
                }
            }
        }
    }
}

/// Which of the two cuSZ-Hi lossless pipelines to use (§5.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineMode {
    /// Compression-ratio-preferred: `HF → RRE4 → TCMS8 → RZE1`.
    Cr,
    /// Throughput-preferred: `TCMS1 → BIT1 → RRE1`.
    Tp,
}

impl PipelineMode {
    /// The lossless pipeline implementing this mode.
    pub(crate) fn pipeline_spec(&self) -> PipelineSpec {
        match self {
            PipelineMode::Cr => PipelineSpec::CR,
            PipelineMode::Tp => PipelineSpec::TP,
        }
    }

    /// Mode name as used in the paper's tables (`cuSZ-Hi-CR` / `cuSZ-Hi-TP`).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineMode::Cr => "CR",
            PipelineMode::Tp => "TP",
        }
    }
}

/// How the lossless pipeline mode is chosen for the chunks of a chunked or
/// streamed container (per-chunk vs. global tuning policy).
///
/// The per-chunk policies differ in candidate breadth and in how they pay
/// for the choice:
///
/// | policy | candidates | trials started per chunk | quality |
/// |---|---|---|---|
/// | [`Global`](ModeTuning::Global) | 1 (the configured mode) | 1 | baseline |
/// | [`PerChunk`](ModeTuning::PerChunk) | CR + TP | 2 | best of the two production modes |
/// | [`Exhaustive`](ModeTuning::Exhaustive) | any list | `candidates + 1` | true per-chunk optimum over the list |
/// | [`Estimated`](ModeTuning::Estimated) | any list | ≤ 4 | within a few % of `Exhaustive` at a fraction of the cost |
///
/// Every policy's trials run on the codec's stage-level trial engine
/// (`szhi_codec::trial`): a stage prefix several candidates share runs
/// once, and a trial whose final Huffman or rANS stage provably cannot win
/// ends before it. So a started trial is not always a full encode, and the
/// choice is the one full encodes would make.
///
/// In every policy the configured [`SzhiConfig::mode`] is implicitly the
/// first candidate, so ties break toward it and the output is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum ModeTuning {
    /// One global mode for every chunk: [`SzhiConfig::mode`] applies to the
    /// whole stream. This is the default and mirrors the monolithic engine.
    #[default]
    Global,
    /// Tune the mode per chunk: each chunk's quantization codes are encoded
    /// with every candidate pipeline (the CR and TP production modes) and
    /// the smallest payload wins, with ties broken toward
    /// [`SzhiConfig::mode`]. The chosen pipeline id is recorded in the
    /// chunk-table entry, so smooth and noisy regions of one field can use
    /// different lossless pipelines — the per-region orchestration the
    /// paper's synergistic design points at. Costs one extra encode per
    /// chunk at compression time; decompression is unaffected.
    PerChunk,
    /// Trial every candidate pipeline on every chunk and keep the smallest
    /// payload. This finds the true per-chunk optimum over the candidate
    /// list, but its tuning cost scales with the list — over
    /// [`PipelineSpec::fig6_set`] that is 18 trials started per chunk.
    /// Shared stage prefixes run once and floors end some trials before
    /// their final entropy stage, but every trial without a final entropy
    /// stage still runs in full.
    /// [`SzhiConfig::mode`] is prepended as the tie-winning first
    /// candidate. Prefer [`ModeTuning::Estimated`] unless the exact
    /// optimum is worth the wall-time (it is the ground truth the
    /// estimator is benchmarked against).
    Exhaustive {
        /// The candidate pipelines (deduplicated; the configured mode is
        /// implicitly first).
        candidates: Vec<PipelineSpec>,
    },
    /// Estimate every candidate's output size from a deterministic sample
    /// of the chunk's codes using the `szhi-tuner` stage-aware cost models
    /// (code histogram → Huffman/ANS entropy bound, zero-run density →
    /// RRE/RZE gain, byte-range occupancy → TCMS/BIT viability), in one
    /// pass over the sample, then trial only the estimated best few (plus
    /// the configured default). The chosen payload is always a real encode
    /// and never worse than [`SzhiConfig::mode`]'s; across the
    /// [`PipelineSpec::fig6_set`] candidate list it lands within a few
    /// percent of [`ModeTuning::Exhaustive`] while starting at most 4 of
    /// the 18 trials.
    Estimated {
        /// The candidate pipelines (deduplicated; the configured mode is
        /// implicitly first).
        candidates: Vec<PipelineSpec>,
    },
}

impl ModeTuning {
    /// Estimator-guided selection over the full Figure-6 pipeline
    /// catalogue ([`PipelineSpec::fig6_set`]).
    pub fn estimated() -> Self {
        ModeTuning::Estimated {
            candidates: PipelineSpec::fig6_set(),
        }
    }

    /// Exhaustive trial-encoding over the full Figure-6 pipeline
    /// catalogue ([`PipelineSpec::fig6_set`]).
    pub fn exhaustive() -> Self {
        ModeTuning::Exhaustive {
            candidates: PipelineSpec::fig6_set(),
        }
    }
}

/// Full configuration of a cuSZ-Hi compression run.
#[derive(Debug, Clone)]
pub struct SzhiConfig {
    /// The error bound to honour.
    pub error_bound: ErrorBound,
    /// Which lossless pipeline to use.
    pub mode: PipelineMode,
    /// Whether to auto-tune the per-level interpolation configuration on a
    /// 0.2 % sample of the input (§5.1.3). Enabled by default.
    pub auto_tune: bool,
    /// The interpolation predictor configuration (anchor stride, tile span,
    /// per-level scheme/spline defaults). Defaults to
    /// [`InterpConfig::cusz_hi`].
    pub interp: InterpConfig,
    /// Chunked compression: `Some((z, y, x))` splits the field into
    /// independent chunks of that span (each a multiple of the anchor
    /// stride on non-degenerate axes — the chunk-alignment rule) and emits
    /// the trailered (v4) container, compressing chunks in parallel. `None`
    /// (the default) emits the monolithic (v1) container.
    pub chunk_span: Option<[usize; 3]>,
    /// Pipeline-mode tuning policy for chunked/streamed containers:
    /// [`ModeTuning::Global`] (default) uses [`SzhiConfig::mode`] for every
    /// chunk; [`ModeTuning::PerChunk`], [`ModeTuning::Exhaustive`] and
    /// [`ModeTuning::Estimated`] select each chunk's pipeline
    /// independently. Ignored by the monolithic engine.
    pub mode_tuning: ModeTuning,
    /// Per-chunk interpolation-configuration tuning: when enabled, every
    /// chunk of a chunked/streamed container scores the standard per-level
    /// interpolation candidates on a sample of its own blocks
    /// (`szhi-tuner`) and is compressed with the winner. The winning
    /// configurations are carried by the tuned (v5) container's config
    /// dictionary, with one config id per chunk-table entry. Disabled by
    /// default (all chunks share [`SzhiConfig::interp`], possibly
    /// globally auto-tuned, and the container stays v4). Ignored by
    /// the monolithic engine.
    pub chunk_interp_tuning: bool,
}

impl SzhiConfig {
    /// A default cuSZ-Hi configuration (CR mode, auto-tuning enabled) for
    /// the given error bound.
    pub fn new(error_bound: ErrorBound) -> Self {
        SzhiConfig {
            error_bound,
            mode: PipelineMode::Cr,
            auto_tune: true,
            interp: InterpConfig::cusz_hi(),
            chunk_span: None,
            mode_tuning: ModeTuning::Global,
            chunk_interp_tuning: false,
        }
    }

    /// Selects the lossless pipeline mode.
    pub fn with_mode(mut self, mode: PipelineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables interpolation auto-tuning.
    pub fn with_auto_tune(mut self, enabled: bool) -> Self {
        self.auto_tune = enabled;
        self
    }

    /// Replaces the interpolation predictor configuration.
    pub fn with_interp(mut self, interp: InterpConfig) -> Self {
        self.interp = interp;
        self
    }

    /// Enables chunked compression with the given chunk span `(z, y, x)`.
    /// The default span [`SzhiConfig::DEFAULT_CHUNK_SPAN`] is a reasonable
    /// starting point for large 3D fields.
    pub fn with_chunk_span(mut self, span: [usize; 3]) -> Self {
        self.chunk_span = Some(span);
        self
    }

    /// Selects the pipeline-mode tuning policy for chunked/streamed
    /// containers.
    pub fn with_mode_tuning(mut self, tuning: ModeTuning) -> Self {
        self.mode_tuning = tuning;
        self
    }

    /// Enables or disables per-chunk interpolation-configuration tuning
    /// (emits the tuned (v5) container when enabled).
    pub fn with_chunk_interp_tuning(mut self, enabled: bool) -> Self {
        self.chunk_interp_tuning = enabled;
        self
    }

    /// A balanced default chunk span: 64³ points (1 MiB of f32) keeps tens
    /// of chunks in flight on a ≥256³ field while the per-chunk anchor
    /// overhead stays below 0.1 %.
    pub const DEFAULT_CHUNK_SPAN: [usize; 3] = [64, 64, 64];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bound_scales_with_range() {
        assert_eq!(ErrorBound::Relative(1e-2).absolute(200.0), 2.0);
        assert_eq!(ErrorBound::Absolute(0.5).absolute(200.0), 0.5);
        assert!(ErrorBound::Relative(1e-2).absolute(0.0) > 0.0);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = SzhiConfig::new(ErrorBound::Absolute(1.0))
            .with_mode(PipelineMode::Tp)
            .with_auto_tune(false);
        assert_eq!(cfg.mode, PipelineMode::Tp);
        assert!(!cfg.auto_tune);
        assert_eq!(cfg.interp.anchor_stride, 16);
    }

    #[test]
    fn mode_tuning_defaults_to_global() {
        let cfg = SzhiConfig::new(ErrorBound::Absolute(1.0));
        assert_eq!(cfg.mode_tuning, ModeTuning::Global);
        let cfg = cfg.with_mode_tuning(ModeTuning::PerChunk);
        assert_eq!(cfg.mode_tuning, ModeTuning::PerChunk);
    }

    #[test]
    fn mode_pipelines_match_paper() {
        assert_eq!(
            PipelineMode::Cr.pipeline_spec().name(),
            "HF-RRE4-TCMS8-RZE1"
        );
        assert_eq!(PipelineMode::Tp.pipeline_spec().name(), "TCMS1-BIT1-RRE1");
    }
}
