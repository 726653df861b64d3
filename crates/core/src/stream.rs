//! The streaming engine: the one chunked writer and the lazy,
//! checksum-verifying readers.
//!
//! * [`StreamSink`] is the only writer of chunked containers. It accepts
//!   anchor-aligned chunks **as they arrive** ([`StreamSink::push_chunk`]),
//!   compresses each one immediately — running the per-chunk orchestrator
//!   to pick the chunk's lossless pipeline ([`ModeTuning::PerChunk`]
//!   trial-encodes the production modes, [`ModeTuning::Exhaustive`] any
//!   candidate list, [`ModeTuning::Estimated`] the same list through the
//!   `szhi-tuner` sampled cost model) and, with
//!   [`SzhiConfig::with_chunk_interp_tuning`], the chunk's own
//!   interpolation configuration — writes the body to its backing
//!   [`io::Write`](std::io::Write) at once and closes the trailered (v4) or
//!   tuned (v5) container with the chunk table and trailer. The batch
//!   engine [`crate::compress_chunked`] and the job service hand the same
//!   sink a window of an in-memory field, which it encodes across the
//!   worker pool and writes in plan order (each chunk is a pure function
//!   of its sub-field and the configuration), so a field pushed one chunk
//!   at a time yields the bytes of the batch engine, at every worker-thread
//!   count.
//! * [`ChunkReader`] is the one reader of every chunked container (v2–v5):
//!   the table is located and validated by the one path in
//!   [`crate::format`], its metadata is one read-only [`StreamIndex`], and
//!   each chunk body is fetched with one seek and one bounded read from any
//!   `Read + Seek` ([`StreamSource`]). A pipe has one rule: it is read to
//!   its end and then read like a file ([`ForwardSource`]). Every fetched
//!   body, and every slice of an in-memory stream
//!   ([`crate::decompress`], whose v1 streams are one-chunk indexes),
//!   passes one chunk-decode step, `StreamIndex::decode_into`. It checks
//!   the chunk's CRC32 *before* any lossless decoder touches the bytes
//!   (corruption surfaces as the typed [`SzhiError::ChunkChecksum`]), then
//!   parses the sections with the payload borrowed from the body, decodes
//!   the payload, restores the level order and reconstructs into a reused
//!   `DecodeScratch`, from which the whole-field decodes copy each chunk
//!   straight into the output: one scratch per pool worker in
//!   [`crate::decompress`], one per drain in [`ChunkReader::read_all`] and
//!   the job service.

use crate::compressor::CompressionStats;
use crate::config::{ErrorBound, ModeTuning, SzhiConfig};
use crate::error::SzhiError;
use crate::format::{
    self, locate_table, read_stream_to_end, write_sections, Header, Layout, StreamIndex, TableRow,
    VERSION_TRAILERED, VERSION_TUNED,
};
use rayon::prelude::*;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use szhi_codec::checksum::crc32;
use szhi_codec::PipelineSpec;
use szhi_ndgrid::{ChunkPlan, Dims, Grid, Region};
use szhi_predictor::{InterpConfig, InterpOutput, InterpPredictor, LevelConfig, LevelOrder};
use szhi_tuner::SelectParams;

/// Metadata returned by [`StreamSink::push_chunk`]: which chunk was just
/// written, which pipeline its tuner chose, and how large it compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkReceipt {
    /// The chunk's index in plan order.
    pub index: usize,
    /// The lossless pipeline chosen for the chunk.
    pub(crate) pipeline: PipelineSpec,
    /// Size of the encoded chunk body in bytes.
    pub compressed_bytes: usize,
}

/// Resolves a pushed chunk's per-level configuration to its id in the
/// config dictionary, appending a new entry on first use. First-use order
/// over chunks pushed in plan order keeps the dictionary — and therefore
/// the stream bytes — deterministic at any encode-thread count.
fn config_id_for(
    configs: &mut Vec<Vec<LevelConfig>>,
    levels: Option<Vec<LevelConfig>>,
) -> Result<u16, SzhiError> {
    let Some(levels) = levels else { return Ok(0) };
    if let Some(found) = configs.iter().position(|c| *c == levels) {
        return Ok(found as u16);
    }
    // The container stores the dictionary count as a u16, so at most
    // u16::MAX entries (ids 0..u16::MAX-1) are representable — pushing one
    // more would wrap the serialised count and emit an undecodable stream.
    if configs.len() >= u16::MAX as usize {
        return Err(SzhiError::InvalidInput(format!(
            "config dictionary overflow: {} distinct per-chunk configurations",
            configs.len() + 1
        )));
    }
    configs.push(levels);
    Ok((configs.len() - 1) as u16)
}

/// Reusable buffers for the per-chunk encode chain: the chunk's value
/// plane, which the caller fills and the predictor compresses in place,
/// its quantization output, the level-reordered code array. Encoding the
/// next chunk of the same shape into a warm scratch touches no new heap
/// beyond the payload the caller keeps.
#[derive(Debug, Default)]
pub(crate) struct EncodeScratch {
    pub(crate) plane: Vec<f32>,
    output: InterpOutput,
    reordered: Vec<u8>,
}

/// Reusable buffers for the per-chunk decode chain, the mirror of
/// [`EncodeScratch`]: the restored code plane and the predictor's
/// reconstruction. A chunk decode leaves the chunk's values in `recon`, to
/// be copied into the output or moved into an owned grid.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    pub(crate) codes: Vec<u8>,
    pub(crate) recon: Vec<f32>,
}

/// Everything [`ChunkEncoder::encode_into`] produces besides the body it
/// leaves in the caller's buffer.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMeta {
    pub(crate) pipeline: PipelineSpec,
    /// The per-level interpolation configuration the chunk was compressed
    /// with, when per-chunk tuning selected one (interned into the v5
    /// config dictionary at push time); `None` when every chunk shares the
    /// header's configuration.
    levels: Option<Vec<LevelConfig>>,
    pub(crate) anchors: usize,
    pub(crate) outliers: usize,
    pub(crate) payload_bytes: usize,
}

/// Validates a chunk span for a `dims`-shaped field under `interp` and
/// returns its plan. This needs only the anchor stride, which whole-field
/// auto-tuning never changes, so the batch engine runs it *before* tuning
/// samples the field and every writer runs the same check.
pub(crate) fn checked_plan(
    dims: Dims,
    span: [usize; 3],
    interp: &InterpConfig,
) -> Result<ChunkPlan, SzhiError> {
    interp
        .validate()
        .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
    if span.contains(&0) {
        return Err(SzhiError::InvalidInput(format!(
            "chunk span {span:?} has a zero axis"
        )));
    }
    if format::capped_points(dims.nz(), dims.ny(), dims.nx()).is_none() {
        // Checked before anything sizes itself by `dims.len()`, which
        // wraps for such shapes.
        return Err(SzhiError::InvalidInput(format!(
            "a {dims} field exceeds the container's cap of {} points",
            format::MAX_POINTS
        )));
    }
    let plan = ChunkPlan::new(dims, span);
    if !plan.is_aligned(interp.anchor_stride) {
        return Err(SzhiError::InvalidInput(format!(
            "chunk span {span:?} is not a multiple of the anchor stride {}",
            interp.anchor_stride
        )));
    }
    if plan.span().iter().any(|&s| s > u32::MAX as usize) {
        // The container stores the span as 3×u32; a silent `as u32`
        // truncation would produce a stream the reader must reject.
        return Err(SzhiError::InvalidInput(format!(
            "chunk span {:?} does not fit the container's u32 span fields",
            plan.span()
        )));
    }
    Ok(plan)
}

/// The configuration-resolved chunk compressor behind every encode path —
/// [`StreamSink`] (and through it the chunked batch engine and the job
/// service) and the monolithic engine: the validated header, the chunk
/// plan, the predictor instance and the candidate pipelines every chunk's
/// selection runs over. Encoding a chunk is a pure `&self` function, so
/// the sink can fan a window's encoding out across threads.
#[derive(Debug)]
pub(crate) struct ChunkEncoder {
    header: Header,
    plan: ChunkPlan,
    predictor: InterpPredictor,
    /// The pipelines each chunk may choose from: the configured mode
    /// first, then the [`ModeTuning`] policy's list, duplicates dropped.
    candidates: Vec<PipelineSpec>,
    /// How `szhi_tuner::select_pipeline` picks among `candidates`: the
    /// trial policies refine every candidate, which is a plain
    /// trial-encode of the list.
    params: SelectParams,
    /// Per-chunk interpolation tuning: each chunk scores the per-level
    /// candidates on its own blocks and is compressed with the winner
    /// (the container becomes v5 to carry the per-chunk configs).
    chunk_interp: bool,
}

impl ChunkEncoder {
    /// Builds the encoder of `plan` from a *resolved* configuration: an
    /// absolute bound and no whole-field auto-tune, because an encoder never
    /// sees the whole field. The batch engines resolve both against the
    /// field first; a streaming caller must configure them so, and gets a
    /// typed error otherwise. `cfg.chunk_span` is not read — `plan` carries
    /// the span, validated by [`checked_plan`].
    pub(crate) fn new(plan: ChunkPlan, cfg: &SzhiConfig) -> Result<ChunkEncoder, SzhiError> {
        let abs_eb = match cfg.error_bound {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(eb) => {
                return Err(SzhiError::InvalidInput(format!(
                    "a streaming writer cannot resolve the value-range-relative bound \
                     {eb:e}: the full field is never held, so the global value range is \
                     unknown; use ErrorBound::Absolute"
                )))
            }
        };
        if cfg.auto_tune {
            return Err(SzhiError::InvalidInput(
                "a streaming writer cannot auto-tune on the whole field; disable it with \
                 with_auto_tune(false), or pre-tune on a representative sample with \
                 szhi_predictor::autotune::tune and pass the result via with_interp"
                    .into(),
            ));
        }
        if !(abs_eb.is_finite() && abs_eb > 0.0) {
            return Err(SzhiError::InvalidInput(format!(
                "invalid error bound {abs_eb}"
            )));
        }
        let interp = cfg.interp.clone();
        let predictor = InterpPredictor::new(interp.clone())
            .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
        let (policy, trial): (&[PipelineSpec], bool) = match &cfg.mode_tuning {
            ModeTuning::Global => (&[], true),
            ModeTuning::PerChunk => (&[PipelineSpec::CR, PipelineSpec::TP], true),
            ModeTuning::Exhaustive { candidates } => (candidates, true),
            ModeTuning::Estimated { candidates } => (candidates, false),
        };
        // The configured mode is always the first candidate: it wins ties,
        // keeping output deterministic — the guard that lets
        // outlier-saturated chunks, whose codes every candidate compresses
        // equally well, fall back cleanly to the configured default.
        let mut candidates = vec![cfg.mode.pipeline_spec()];
        for &c in policy {
            if !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let mut params = SelectParams::default();
        if trial {
            params.refine = candidates.len();
        }
        Ok(ChunkEncoder {
            header: Header {
                dims: plan.dims(),
                abs_eb,
                pipeline: cfg.mode.pipeline_spec(),
                reorder: true,
                interp,
            },
            plan,
            predictor,
            candidates,
            params,
            chunk_interp: cfg.chunk_interp_tuning,
        })
    }

    /// The header every stream this encoder feeds starts with.
    pub(crate) fn header(&self) -> &Header {
        &self.header
    }

    /// Compresses a chunk's values in place into `output` and returns the
    /// per-level configuration it was compressed with when per-chunk
    /// tuning chose one. Tuning scores the per-level candidates on the
    /// chunk's own blocks, so it reads the values before the sweep
    /// overwrites them; it is a pure function of the chunk, so the tuned
    /// stream stays deterministic.
    fn compress_values(
        &self,
        values: &mut Grid<f32>,
        output: &mut InterpOutput,
    ) -> Result<Option<Vec<LevelConfig>>, SzhiError> {
        if !self.chunk_interp {
            self.predictor
                .compress_in_place(values, self.header.abs_eb, output);
            return Ok(None);
        }
        // szhi-analyzer: allow(steady-alloc) -- known per-chunk cost: interpolation tuning builds its trial configs and samples per chunk; not yet scratch-routed
        let tuned = szhi_tuner::tune_chunk_interp(values, &self.header.interp);
        let predictor = InterpPredictor::new(tuned.clone())
            .map_err(|e| SzhiError::InvalidInput(e.to_string()))?;
        predictor.compress_in_place(values, self.header.abs_eb, output);
        Ok(Some(tuned.levels))
    }

    /// Compresses chunk `index` into its metadata and a fresh body — the
    /// per-worker step of [`StreamSink::push_range`], pure in `&self`.
    /// `fill` puts the chunk's values into the thread's own value plane,
    /// where they are compressed in place. Each encode thread reuses its
    /// own [`EncodeScratch`], so steady-state encoding allocates only the
    /// body the caller keeps.
    pub(crate) fn encode(
        &self,
        index: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) -> Result<(ChunkMeta, Vec<u8>), SzhiError> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EncodeScratch> =
                std::cell::RefCell::new(EncodeScratch::default());
        }
        SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            fill(&mut scratch.plane);
            // szhi-analyzer: allow(steady-alloc) -- this body vector is returned to and owned by the caller, which holds a window of them, so it cannot be scratch-routed; the steady-state serving path (`StreamSink::push_chunk_with`) goes through `encode_into` with a reused buffer instead
            let mut body = Vec::new();
            let meta = self.encode_into(index, &mut scratch, &mut body)?;
            Ok((meta, body))
        })
    }

    /// The one per-chunk encode step, behind [`ChunkEncoder::encode`] and
    /// every push: compresses chunk `index`, whose values the caller has
    /// put in `scratch.plane` (in row-major order), through the caller's
    /// buffers, and leaves the framed chunk body in `body` (cleared first).
    /// The predictor overwrites the plane with the chunk's reconstruction.
    /// [`StreamSink`] feeds its own scratch and body buffer through here so
    /// pushing a chunk performs no steady-state heap growth beyond the
    /// lossless payload itself.
    pub(crate) fn encode_into(
        &self,
        index: usize,
        scratch: &mut EncodeScratch,
        body: &mut Vec<u8>,
    ) -> Result<ChunkMeta, SzhiError> {
        if index >= self.plan.len() {
            return Err(SzhiError::InvalidInput(format!(
                "chunk index {index} out of range for a plan of {} chunks",
                self.plan.len()
            )));
        }
        let expected = self.plan.chunk_dims(index);
        if scratch.plane.len() != expected.len() {
            return Err(SzhiError::InvalidInput(format!(
                "chunk {index} holds {} values, but its {expected} region of the plan has {} points",
                scratch.plane.len(),
                expected.len()
            )));
        }
        let _chunk_span = crate::telemetry::ENCODE_CHUNK.enter();
        let mut values = Grid::from_vec(expected, std::mem::take(&mut scratch.plane));
        let levels = {
            let _span = crate::telemetry::ENCODE_PREDICT.enter();
            self.compress_values(&mut values, &mut scratch.output)
        };
        scratch.plane = values.into_vec();
        let levels = levels?;
        {
            let _span = crate::telemetry::ENCODE_REORDER.enter();
            LevelOrder::new(expected, self.header.interp.anchor_stride)
                .reorder_into(&scratch.output.codes, &mut scratch.reordered);
        }
        let codes: &[u8] = &scratch.reordered;
        // The per-chunk mode tuner: offer the codes to the candidates
        // (trial-encoding them all, or the estimator-guided shortlist) and
        // keep the smallest real payload. Pure: the same codes always yield
        // the same choice.
        let selection = {
            let _span = crate::telemetry::ENCODE_ENTROPY.enter();
            // szhi-analyzer: allow(steady-alloc) -- known per-chunk cost: each trial encode returns a fresh payload buffer; not yet scratch-routed
            let selection = szhi_tuner::select_pipeline(&self.candidates, codes, &self.params)?;
            crate::telemetry::TUNER_TRIALS.bump(selection.trial_encoded as u64);
            crate::telemetry::TUNER_TRIALS_CUT.bump(selection.trials_cut as u64);
            // Telemetry: the estimator's predicted size for the winner next
            // to the size it actually produced. Trial selections carry no
            // estimate and record nothing.
            if let Some(&(_, est)) = selection
                .estimates
                .iter()
                .find(|(p, _)| *p == selection.pipeline)
            {
                let estimated = est.max(0.0) as u64;
                let actual = selection.payload.len() as u64;
                crate::telemetry::TUNER_ESTIMATED.observe(estimated);
                crate::telemetry::TUNER_ACTUAL.observe(actual);
                szhi_telemetry::tuner_record(estimated, actual);
            }
            selection
        };
        let (pipeline, payload) = (selection.pipeline, selection.payload);
        body.clear();
        // szhi-analyzer: allow(steady-alloc) -- its one `reserve` grows the caller's reused `body` only until it fits the largest chunk
        write_sections(
            body,
            &scratch.output.anchors,
            &scratch.output.outliers,
            &payload,
        );
        Ok(ChunkMeta {
            pipeline,
            levels,
            anchors: scratch.output.anchors.len(),
            outliers: scratch.output.outliers.len(),
            payload_bytes: payload.len(),
        })
    }
}

/// The incremental, bounded-memory writer of chunked containers — the only
/// one the library has: the header goes to the backing
/// [`io::Write`](std::io::Write) immediately, every pushed chunk's body
/// follows the moment it is encoded, and [`StreamSink::finish`] appends the
/// chunk table plus the fixed-size trailer that locates it (the trailered
/// **v4** container; **v5** when per-chunk interpolation tuning is on).
/// Memory high-water is **O(one encoded chunk + the chunk table)** — never
/// O(field) and never O(compressed stream) — so a field larger than RAM
/// can be compressed straight onto a file or socket.
///
/// Because the sink never sees the whole field, the configuration must be
/// resolvable without it: the error bound must be
/// [`ErrorBound::Absolute`] (a relative bound needs the global value
/// range) and whole-field auto-tuning must be disabled
/// (`cfg.with_auto_tune(false)`; pre-tune on a representative sample with
/// `szhi_predictor::autotune::tune` and pass the result via
/// [`SzhiConfig::with_interp`] instead). Violations are typed
/// [`SzhiError::InvalidInput`] errors.
///
/// ```
/// use szhi_core::{decompress, ErrorBound, StreamSink, StreamSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let dims = Dims::d3(40, 32, 32);
/// let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3))
///     .with_auto_tune(false)
///     .with_chunk_span([32, 32, 32]);
/// // Any io::Write works: a Vec here, a File or TcpStream in production.
/// let mut sink = StreamSink::new(Vec::new(), dims, &cfg).unwrap();
/// // Produce each chunk only when the sink asks for it: the full field
/// // is never materialised.
/// while let Some(region) = sink.next_chunk_region() {
///     let chunk = Grid::from_fn(region.dims(), |z, y, x| {
///         ((region.x0() + x) as f32 * 0.1).sin()
///             + (region.z0() + z + region.y0() + y) as f32 * 0.01
///     });
///     sink.push_chunk(&chunk).unwrap();
/// }
/// let bytes = sink.finish().unwrap();
/// // The trailered stream decompresses like any other container…
/// assert_eq!(decompress(&bytes).unwrap().dims(), dims);
/// // …and `StreamSource` reads it back without holding the whole stream.
/// let mut source = StreamSource::from_bytes(&bytes).unwrap();
/// assert_eq!(source.read_all().unwrap().dims(), dims);
/// ```
#[derive(Debug)]
pub struct StreamSink<W: Write> {
    out: W,
    enc: ChunkEncoder,
    /// The container this sink writes: the v4 row, or the v5 row with
    /// per-chunk interpolation tuning.
    layout: &'static Layout,
    /// One row per pushed chunk — the only per-chunk state the sink
    /// retains.
    entries: Vec<TableRow>,
    /// The config dictionary of a v5 stream, interned in push order; empty
    /// for v4 output.
    configs: Vec<Vec<LevelConfig>>,
    prefix_len: u64,
    data_written: u64,
    poisoned: bool,
    anchors: usize,
    outliers: usize,
    payload_bytes: usize,
    /// Reusable encode buffers: after the first chunk of each shape, a
    /// push writes the backing stream without growing the heap beyond the
    /// lossless payload (this is what keeps the sink's memory high-water
    /// at O(one encoded chunk + the chunk table)).
    scratch: EncodeScratch,
    body_buf: Vec<u8>,
}

impl<W: Write> StreamSink<W> {
    /// Creates a sink writing a field of shape `dims` under `cfg` into
    /// `out`, with `cfg.chunk_span` (or [`SzhiConfig::DEFAULT_CHUNK_SPAN`])
    /// as the chunk span, and emits the header and span immediately. The
    /// configuration must be streaming-safe (see the type docs); write
    /// failures surface as [`SzhiError::Io`].
    pub fn new(mut out: W, dims: Dims, cfg: &SzhiConfig) -> Result<StreamSink<W>, SzhiError> {
        let span = cfg.chunk_span.unwrap_or(SzhiConfig::DEFAULT_CHUNK_SPAN);
        let enc = ChunkEncoder::new(checked_plan(dims, span, &cfg.interp)?, cfg)?;
        let layout = format::layout_of(if enc.chunk_interp {
            VERSION_TUNED
        } else {
            VERSION_TRAILERED
        })?;
        let mut prefix = Vec::new();
        format::write_prefix(&mut prefix, &enc.header, layout.version, enc.plan.span());
        out.write_all(&prefix)?;
        let n_chunks = enc.plan.len();
        Ok(StreamSink {
            out,
            enc,
            layout,
            // szhi-analyzer: allow(capped-alloc) -- writer side: the chunk count of the caller's own plan, whose shape `checked_plan` caps at `MAX_POINTS`
            entries: Vec::with_capacity(n_chunks),
            configs: Vec::new(),
            prefix_len: prefix.len() as u64,
            data_written: 0,
            poisoned: false,
            anchors: 0,
            outliers: 0,
            payload_bytes: 0,
            scratch: EncodeScratch::default(),
            body_buf: Vec::new(),
        })
    }

    /// The chunk partition the sink expects chunks in (row-major plan
    /// order).
    pub fn plan(&self) -> &ChunkPlan {
        &self.enc.plan
    }

    /// Index of the next chunk [`StreamSink::push_chunk`] expects.
    pub fn next_index(&self) -> usize {
        self.entries.len()
    }

    /// The region of the original field the next pushed chunk must cover,
    /// or `None` once every chunk has been pushed.
    pub fn next_chunk_region(&self) -> Option<Region> {
        (self.entries.len() < self.enc.plan.len())
            .then(|| self.enc.plan.chunk_at(self.entries.len()))
    }

    /// Whether every chunk of the plan has been pushed.
    pub fn is_complete(&self) -> bool {
        self.entries.len() == self.enc.plan.len()
    }

    /// Total bytes handed to the backing writer so far (header + chunk
    /// bodies; the table and trailer are added by [`StreamSink::finish`]).
    #[cfg(test)]
    pub(crate) fn bytes_written(&self) -> u64 {
        self.prefix_len + self.data_written
    }

    /// Compresses the next chunk and writes its body to the backing writer
    /// immediately. Chunks must arrive in plan order with the standalone
    /// shape of their plan slot ([`StreamSink::next_chunk_region`]).
    ///
    /// The chunk is copied into the sink's own value plane and compressed
    /// there ([`StreamSink::push_chunk_with`]); a producer that can write
    /// the values straight into that plane saves the copy and its buffer.
    pub fn push_chunk(&mut self, chunk: &Grid<f32>) -> Result<ChunkReceipt, SzhiError> {
        let index = self.next_index();
        if index < self.enc.plan.len() && chunk.dims() != self.enc.plan.chunk_dims(index) {
            return Err(SzhiError::InvalidInput(format!(
                "chunk {index} has shape {}, the plan expects {}",
                chunk.dims(),
                self.enc.plan.chunk_dims(index)
            )));
        }
        self.push_chunk_with(|_, plane| {
            plane.clear();
            plane.extend_from_slice(chunk.as_slice());
            Ok(())
        })
    }

    /// Compresses the next chunk of the plan from values `fill` writes
    /// into the sink's own value plane, and writes its body to the backing
    /// writer immediately. `fill(region, plane)` gets the chunk's region of
    /// the field ([`StreamSink::next_chunk_region`]) and must leave exactly
    /// its `region.len()` values in `plane`, in row-major order, replacing
    /// whatever the plane held; the sink compresses them in place, so a
    /// push holds one value plane, not a chunk of the caller's as well. An
    /// error from `fill` is returned as it is and leaves the sink as it
    /// was; a plane of the wrong length is a typed
    /// [`SzhiError::InvalidInput`].
    ///
    /// This path reuses the sink's own encode scratch, so after the first
    /// chunk of each shape a push performs no heap growth beyond the
    /// lossless payload itself.
    pub fn push_chunk_with<E: From<SzhiError>>(
        &mut self,
        fill: impl FnOnce(&Region, &mut Vec<f32>) -> Result<(), E>,
    ) -> Result<ChunkReceipt, E> {
        self.check_poisoned()?;
        let Some(region) = self.next_chunk_region() else {
            return Err(SzhiError::InvalidInput(format!(
                "all {} chunks have already been pushed",
                self.enc.plan.len()
            ))
            .into());
        };
        fill(&region, &mut self.scratch.plane)?;
        let index = self.entries.len();
        let mut body = std::mem::take(&mut self.body_buf);
        let pushed = self
            .enc
            .encode_into(index, &mut self.scratch, &mut body)
            .and_then(|meta| {
                let receipt = ChunkReceipt {
                    index,
                    pipeline: meta.pipeline,
                    compressed_bytes: body.len(),
                };
                self.record(meta, &body).map(|()| receipt)
            });
        self.body_buf = body;
        pushed.map_err(E::from)
    }

    /// The parallel push behind [`crate::compress_chunked`] (the whole
    /// plan) and the job service (one window at a time): extracts each of
    /// the chunks `range` of the in-memory `field` (of the sink's shape)
    /// into its worker's value plane, encodes them across the worker pool
    /// and writes them in plan order.
    /// `range` must start at [`StreamSink::next_index`] and end inside the
    /// plan, or nothing is encoded. `before_write(i)` runs before chunk `i`
    /// is written; an error from it poisons the sink and is returned.
    pub(crate) fn push_range(
        &mut self,
        field: &Grid<f32>,
        range: Range<usize>,
        mut before_write: impl FnMut(usize) -> Result<(), SzhiError>,
    ) -> Result<(), SzhiError> {
        self.check_poisoned()?;
        let n = self.enc.plan.len();
        if range.start != self.entries.len() || range.end > n {
            return Err(SzhiError::InvalidInput(format!(
                "chunks {range:?} do not continue the plan: the sink expects chunk {} of {n} next",
                self.entries.len()
            )));
        }
        // Each chunk is a pure function of (sub-field, config) and the
        // par_iter result order is fixed, so the written bytes are the same
        // at every thread count — and as sequential `push_chunk` calls.
        // The fan-out borrows only the encoder, so `W` need not be `Sync`.
        let enc = &self.enc;
        let encoded: Vec<Result<(ChunkMeta, Vec<u8>), SzhiError>> = range
            .clone()
            .into_par_iter()
            .with_max_len(1)
            .map(|i| enc.encode(i, |plane| field.extract_into(&enc.plan.chunk_at(i), plane)))
            .collect();
        for (i, chunk) in range.zip(encoded) {
            let (meta, body) = chunk?;
            if let Err(e) = before_write(i) {
                self.poisoned = true;
                return Err(e);
            }
            self.record(meta, &body)?;
        }
        Ok(())
    }

    /// The record step both pushes share: interns the chunk's configuration
    /// into the dictionary (in push order), checksums the body, writes it,
    /// and appends the chunk's table row.
    fn record(&mut self, meta: ChunkMeta, body: &[u8]) -> Result<(), SzhiError> {
        let config = config_id_for(&mut self.configs, meta.levels)?;
        let crc = {
            let _span = crate::telemetry::ENCODE_CRC.enter();
            crc32(body)
        };
        if let Err(e) = self.out.write_all(body) {
            self.poisoned = true;
            return Err(e.into());
        }
        let len = body.len() as u64;
        crate::telemetry::SINK_BYTES.bump(len);
        crate::telemetry::SINK_CHUNKS.bump(1);
        self.entries
            .push((self.data_written, len, meta.pipeline, config, crc));
        self.data_written += len;
        self.anchors += meta.anchors;
        self.outliers += meta.outliers;
        self.payload_bytes += meta.payload_bytes;
        Ok(())
    }

    /// Finalizes the container: appends the chunk table and the trailer,
    /// flushes, and returns the backing writer. Errors if any chunk of the
    /// plan has not been pushed.
    pub fn finish(self) -> Result<W, SzhiError> {
        self.finish_with_stats().map(|(out, _)| out)
    }

    /// Finalizes the container and reports aggregated statistics alongside
    /// the backing writer.
    pub fn finish_with_stats(mut self) -> Result<(W, CompressionStats), SzhiError> {
        self.check_poisoned()?;
        if !self.is_complete() {
            return Err(SzhiError::InvalidInput(format!(
                "cannot finalize: only {} of {} chunks were pushed",
                self.entries.len(),
                self.enc.plan.len()
            )));
        }
        let table_offset = self.prefix_len + self.data_written;
        let tail = format::encode_table(self.layout, table_offset, &self.configs, &self.entries);
        self.out.write_all(&tail)?;
        self.out.flush()?;
        let compressed_bytes = (table_offset + tail.len() as u64) as usize;
        let original_bytes = self.enc.header.dims.nbytes_f32();
        let stats = CompressionStats {
            original_bytes,
            compressed_bytes,
            compression_ratio: original_bytes as f64 / compressed_bytes as f64,
            abs_eb: self.enc.header.abs_eb,
            anchors: self.anchors,
            outliers: self.outliers,
            encoded_codes_bytes: self.payload_bytes,
        };
        Ok((self.out, stats))
    }

    fn check_poisoned(&self) -> Result<(), SzhiError> {
        if self.poisoned {
            return Err(SzhiError::InvalidInput(
                "the sink is poisoned by an earlier write failure: the stream position is \
                 unknown, so the container cannot be completed"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Poisons the sink explicitly: every further push or finish fails with
    /// a typed error, exactly as after a write failure or a cancelled job's
    /// refused write.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the sink has been poisoned.
    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// The reader core every read path shares — [`ChunkReader`] and the
/// in-memory [`crate::decompress`] differ only in how they fetch a chunk's
/// bytes.
impl StreamIndex {
    /// The one per-chunk decode step: checks `body` — the fetched bytes of
    /// chunk `index` — against the chunk's CRC32, then parses its sections
    /// with the payload borrowed from `body`, decodes the payload with the
    /// chunk's own pipeline, restores the level order and reconstructs the
    /// sub-field into `scratch.recon` with the chunk's own interpolation
    /// configuration. Returns the chunk's region of the original field. The
    /// predictor owns the consistency checks (anchor count, outlier
    /// completeness): a parseable-but-inconsistent body surfaces as its
    /// typed error, mapped to [`SzhiError::InvalidStream`].
    pub(crate) fn decode_into(
        &self,
        index: usize,
        body: &[u8],
        scratch: &mut DecodeScratch,
    ) -> Result<Region, SzhiError> {
        let entry = self.entry(index)?;
        entry.verify(index, body)?;
        let _span = crate::telemetry::DECODE_CHUNK.enter();
        let (anchors, outliers, payload) = format::read_chunk_sections(body)?;
        let dims = self.plan.chunk_dims(index);
        let codes = {
            let _span = crate::telemetry::DECODE_ENTROPY.enter();
            entry
                .pipeline
                .decode_bounded(payload, dims.len())
                .map_err(SzhiError::Codec)?
        };
        if codes.len() != dims.len() {
            return Err(SzhiError::InvalidStream(format!(
                "decoded {} quantization codes for a field of {} points",
                codes.len(),
                dims.len()
            )));
        }
        let mut output = InterpOutput {
            anchors,
            codes,
            outliers,
        };
        let interp = self.table.chunk_interp(&self.header, index);
        if self.header.reorder {
            let _span = crate::telemetry::DECODE_REORDER.enter();
            LevelOrder::new(dims, interp.anchor_stride)
                // szhi-analyzer: allow(panic-reachability) -- `restore_into` length-checks `codes` against the field size and the walk visits every raster index exactly once, so its run slices are in bounds; corrupt inputs surface as its typed error (byte-flip fuzz suites cover this boundary)
                .restore_into(&output.codes, &mut scratch.codes)
                .map_err(|e| SzhiError::InvalidStream(e.to_string()))?;
            // The restored plane goes to the predictor; the scratch keeps the
            // decoded one's buffer for the next chunk.
            std::mem::swap(&mut output.codes, &mut scratch.codes);
        }
        let _span = crate::telemetry::DECODE_PREDICT.enter();
        InterpPredictor::new(interp)
            .map_err(|e| SzhiError::InvalidStream(e.to_string()))?
            .decompress_into(dims, self.header.abs_eb, &output, &mut scratch.recon)
            .map_err(|e| SzhiError::InvalidStream(e.to_string()))?;
        Ok(self.plan.chunk_at(index))
    }

    /// [`StreamIndex::decode_into`] into a scratch of its own, whose
    /// reconstruction becomes the returned grid: the form of random access
    /// and of a one-chunk [`crate::decompress`], which keeps no buffer once
    /// it returns and runs on the calling thread. Callers name it by path
    /// (`StreamIndex::decode(&index, ..)`): `szhi-analyzer` links a method
    /// call on an untyped receiver to every method of its name and arity,
    /// and many types have a two-argument `decode`.
    pub(crate) fn decode(
        &self,
        index: usize,
        body: &[u8],
    ) -> Result<(Region, Grid<f32>), SzhiError> {
        let mut scratch = DecodeScratch::default();
        let region = self.decode_into(index, body, &mut scratch)?;
        Ok((
            region,
            Grid::from_vec(self.plan.chunk_dims(index), scratch.recon),
        ))
    }

    /// The per-worker step of [`crate::decompress`]: decodes chunk `index`
    /// of the in-memory stream `bytes` through the calling thread's own
    /// retained [`DecodeScratch`] and copies it into `out`, a field of the
    /// stream's shape, under the lock.
    pub(crate) fn decode_slice_into(
        &self,
        bytes: &[u8],
        index: usize,
        out: &Mutex<Grid<f32>>,
    ) -> Result<(), SzhiError> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<DecodeScratch> =
                std::cell::RefCell::new(DecodeScratch::default());
        }
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            let region =
                self.decode_into(index, self.table.entry_slice(bytes, index)?.1, scratch)?;
            out.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(&region, &scratch.recon);
            Ok(())
        })
    }
}

/// The one reader of chunked containers (v2–v5): the validated
/// [`StreamIndex`] of the stream, the reader its chunk bodies are fetched
/// from — one seek and one bounded read each, in any order — and one body
/// buffer reused from chunk to chunk. Every fetched body is verified
/// against its CRC32 (v3+) *before* any lossless decoder sees it, and only
/// one compressed body and one reconstructed sub-field are in memory at a
/// time (a [`ForwardSource`] also holds the compressed stream it read off
/// its pipe). Monolithic (v1) streams and unknown future versions are
/// rejected with clear typed errors when the reader opens.
#[derive(Debug)]
pub struct ChunkReader<R> {
    reader: R,
    index: StreamIndex,
    body: Vec<u8>,
}

/// Bounded-memory reader over any [`io::Read`](std::io::Read)` +
/// `[`io::Seek`](std::io::Seek) — a [`File`](std::fs::File), a
/// [`Cursor`](std::io::Cursor) over bytes ([`StreamSource::from_bytes`],
/// the lazy in-memory reader), or anything else seekable.
///
/// Opening reads and validates only the header and the chunk table: for
/// trailered (v4) and tuned (v5) containers the fixed-size trailer at the
/// end of the stream locates the table (whose bytes are verified against
/// the trailer's CRC32 before any entry is parsed); for chunked (v2) and
/// streamed (v3) containers the table sits directly after the header.
/// Chunks are then read in any order, one seek and one bounded read each.
///
/// ```
/// use std::io::Cursor;
/// use szhi_core::{compress, ErrorBound, StreamSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
/// let bytes = compress(&field, &cfg).unwrap();
///
/// // In production the reader is a File; a Cursor works the same way.
/// let mut source = StreamSource::new(Cursor::new(&bytes[..])).unwrap();
/// assert_eq!(source.chunk_count(), 2);
/// for chunk in source.chunks() {
///     let (region, sub) = chunk.unwrap();
///     assert_eq!(sub.len(), region.len());
/// }
/// ```
pub type StreamSource<R> = ChunkReader<R>;

/// A compressed stream read off a plain [`io::Read`](std::io::Read) to its
/// end — **no `Seek` required** — so it can be decoded straight off a
/// pipe, a socket, or `stdin`: [`ForwardSource::new`] opens a
/// [`StreamSource`] over the bytes.
///
/// The header prefix is validated as soon as it arrives, so a stream that
/// is not szhi fails after its first bytes; the rest of the stream is then
/// read to its end and opened like a file, with every check of the
/// seekable reader (see `docs/FORMAT.md`). The source holds the compressed
/// stream and reads its chunks in any order.
///
/// ```
/// use szhi_core::{compress, decompress, ErrorBound, ForwardSource, SzhiConfig};
/// use szhi_ndgrid::{Dims, Grid};
///
/// let field = Grid::from_fn(Dims::d3(40, 32, 32), |z, y, x| {
///     ((x + y) as f32 * 0.1).sin() + z as f32 * 0.02
/// });
/// let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_chunk_span([32, 32, 32]);
/// let bytes = compress(&field, &cfg).unwrap();
///
/// // A plain `&[u8]` implements `Read` but not `Seek` — the forward
/// // source decodes it anyway, identically to `decompress`.
/// let mut source = ForwardSource::new(&bytes[..]).unwrap();
/// let restored = source.read_all().unwrap();
/// assert_eq!(restored.as_slice(), decompress(&bytes).unwrap().as_slice());
/// ```
#[derive(Debug)]
pub struct ForwardSource(Vec<u8>);

impl AsRef<[u8]> for ForwardSource {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl ForwardSource {
    /// Reads a chunked (v2), streamed (v3), trailered (v4) or tuned (v5)
    /// container off `reader` to its end and opens a [`StreamSource`] over
    /// the bytes.
    pub fn new(
        mut reader: impl Read,
    ) -> Result<StreamSource<std::io::Cursor<ForwardSource>>, SzhiError> {
        let bytes = ForwardSource(read_stream_to_end(&mut reader)?);
        StreamSource::new(std::io::Cursor::new(bytes))
    }
}

impl<'a> StreamSource<std::io::Cursor<&'a [u8]>> {
    /// Convenience constructor over an in-memory stream.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, SzhiError> {
        StreamSource::new(std::io::Cursor::new(bytes))
    }
}

impl<R: Read + Seek> StreamSource<R> {
    /// Opens a chunked (v2), streamed (v3), trailered (v4) or tuned (v5)
    /// container, reading and validating the header and chunk table only.
    pub fn new(mut reader: R) -> Result<Self, SzhiError> {
        let index = locate_table(&mut reader)?;
        Ok(ChunkReader {
            reader,
            index,
            body: Vec::new(),
        })
    }
}

impl<R: Read + Seek> ChunkReader<R> {
    /// The stream's metadata: version, header, plan and the per-chunk
    /// region, pipeline and interpolation configuration.
    pub fn index(&self) -> &StreamIndex {
        &self.index
    }

    /// Number of chunks in the stream.
    pub fn chunk_count(&self) -> usize {
        self.index.chunk_count()
    }

    /// Reads the body of chunk `i` into the reused body buffer: one seek
    /// and one read of the entry's length, which was checked against the
    /// stream length when the table was located.
    fn fetch(&mut self, i: usize) -> Result<(), SzhiError> {
        let entry = self.index.entry(i)?;
        let at = (self.index.table.data_start + entry.offset) as u64;
        self.reader
            .seek(SeekFrom::Start(at))
            .map_err(|e| SzhiError::Io(format!("seeking to chunk {i}: {e}")))?;
        self.body.resize(entry.len, 0);
        self.reader
            .read_exact(&mut self.body)
            .map_err(|e| SzhiError::Io(format!("reading a chunk body: {e}")))?;
        crate::telemetry::SOURCE_BYTES.bump(entry.len as u64);
        crate::telemetry::SOURCE_CHUNKS.bump(1);
        Ok(())
    }

    /// Decodes chunk `index`: fetches its body, verifies the checksum, then
    /// reconstructs the sub-field it covers. Returns the chunk's region of
    /// the original field and the reconstructed values; no other chunk is
    /// decoded.
    pub fn read_chunk(&mut self, index: usize) -> Result<(Region, Grid<f32>), SzhiError> {
        self.fetch(index)?;
        StreamIndex::decode(&self.index, index, &self.body)
    }

    /// Iterates over the decoded chunks **lazily**, in plan order: each
    /// chunk is fetched, verified and decoded only when the iterator is
    /// advanced. A chunk that fails yields its error, and the iterator goes
    /// on to the next chunk.
    pub fn chunks(&mut self) -> impl Iterator<Item = Result<(Region, Grid<f32>), SzhiError>> + '_ {
        (0..self.chunk_count()).map(|i| self.read_chunk(i))
    }

    /// Decodes every chunk sequentially, each straight into the full field
    /// through one reused chunk scratch, so the read holds the field plus
    /// one chunk. (Reads from one source are serial; decode a stream that
    /// is already in memory via [`crate::decompress`] when parallel decode
    /// matters.)
    pub fn read_all(&mut self) -> Result<Grid<f32>, SzhiError> {
        let mut out = Grid::zeros(self.index.dims());
        self.drain_into(&mut out, |_| Ok(()))?;
        Ok(out)
    }

    /// The one serial drain, behind [`ChunkReader::read_all`] and the job
    /// service's decompress: fetches and decodes chunks `0..n` in plan
    /// order through one [`DecodeScratch`] and inserts each into `out`, a
    /// field of the stream's shape. `before_insert(i)` runs after chunk `i`
    /// is decoded and before it is inserted; an error from it, or from a
    /// chunk, ends the drain.
    pub(crate) fn drain_into(
        &mut self,
        out: &mut Grid<f32>,
        mut before_insert: impl FnMut(usize) -> Result<(), SzhiError>,
    ) -> Result<(), SzhiError> {
        let mut scratch = DecodeScratch::default();
        for i in 0..self.chunk_count() {
            self.fetch(i)?;
            let region = self.index.decode_into(i, &self.body, &mut scratch)?;
            before_insert(i)?;
            out.insert(&region, &scratch.recon);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{compress_chunked, decompress};
    use crate::config::{ErrorBound, PipelineMode};
    use crate::format::legacy::recontain;
    use crate::format::{read_chunk_table, stream_version, VERSION_STREAMED};
    use szhi_datagen::DatasetKind;

    /// A streaming-safe configuration: absolute bound, no whole-field
    /// auto-tune.
    fn stream_cfg(span: [usize; 3]) -> SzhiConfig {
        SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span(span)
    }

    fn push_all<W: Write>(sink: &mut StreamSink<W>, data: &Grid<f32>) -> Vec<ChunkReceipt> {
        let mut receipts = Vec::new();
        while let Some(region) = sink.next_chunk_region() {
            let dims = sink.plan().chunk_dims(sink.next_index());
            let sub = Grid::from_vec(dims, data.extract(&region));
            receipts.push(sink.push_chunk(&sub).unwrap());
        }
        receipts
    }

    #[test]
    fn pushing_chunks_matches_the_batch_engine_byte_for_byte() {
        let data = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 21);
        let cfg = stream_cfg([16, 16, 16]);
        let batch = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();

        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        assert_eq!(sink.next_index(), 0);
        let receipts = push_all(&mut sink, &data);
        assert!(sink.is_complete());
        assert_eq!(receipts.len(), sink.plan().len());
        let (streamed, stats) = sink.finish_with_stats().unwrap();

        assert_eq!(
            streamed, batch,
            "streamed and batch outputs must be identical"
        );
        assert_eq!(stream_version(&streamed).unwrap(), VERSION_TRAILERED);
        assert_eq!(stats.compressed_bytes, streamed.len());
        assert_eq!(
            receipts.iter().map(|r| r.index).collect::<Vec<_>>(),
            (0..receipts.len()).collect::<Vec<_>>()
        );
    }

    /// The read-fed push: `fill` writes each chunk into the sink's value
    /// plane, and tuned chunks read it before the sweep overwrites it. A
    /// plane of the wrong length is a typed error and a fill error comes
    /// back as it is; neither writes nor poisons anything, and the stream
    /// the pushes finish is the batch engine's, byte for byte.
    #[test]
    fn a_filled_plane_push_checks_its_length_and_matches_the_batch_engine() {
        let data = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 21);
        let cfg = stream_cfg([16, 16, 16]).with_chunk_interp_tuning(true);
        let batch = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        let written = sink.bytes_written();
        assert!(matches!(
            sink.push_chunk_with(|region, plane| {
                data.extract_into(region, plane);
                plane.pop();
                Ok::<_, SzhiError>(())
            }),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("4095 values")
        ));
        assert!(matches!(
            sink.push_chunk_with(|_, _| Err(SzhiError::Cancelled)),
            Err(SzhiError::Cancelled)
        ));
        assert_eq!((sink.bytes_written(), sink.next_index()), (written, 0));
        assert!(!sink.is_poisoned());
        while !sink.is_complete() {
            sink.push_chunk_with(|region, plane| {
                data.extract_into(region, plane);
                Ok::<_, SzhiError>(())
            })
            .unwrap();
        }
        assert_eq!(sink.finish().unwrap(), batch);
    }

    #[test]
    fn writer_rejects_streaming_hostile_configs() {
        let dims = Dims::d3(32, 32, 32);
        // Relative bound: needs the global value range.
        let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_auto_tune(false);
        assert!(matches!(
            StreamSink::new(Vec::new(), dims, &cfg),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("relative")
        ));
        // Whole-field auto-tune.
        let cfg = SzhiConfig::new(ErrorBound::Absolute(1e-3));
        assert!(matches!(
            StreamSink::new(Vec::new(), dims, &cfg),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("auto-tune")
        ));
        // Misaligned span.
        let cfg = stream_cfg([12, 16, 16]);
        assert!(StreamSink::new(Vec::new(), dims, &cfg).is_err());
        // Level reordering puts no limit on the chunk size: a reordered
        // chunk of more than u32::MAX points is accepted by a sink and by
        // the one-chunk plan monolithic `compress` builds. Dims only — the
        // field itself is never allocated.
        let big = Dims::d3(1024, 2048, 2049);
        let cfg = stream_cfg([1024, 2048, 2064]);
        assert!(StreamSink::new(Vec::new(), big, &cfg).is_ok());
        let whole = ChunkPlan::new(big, [1024, 2048, 2049]);
        assert!(ChunkEncoder::new(whole, &cfg).is_ok());
    }

    #[test]
    fn writer_rejects_shapes_past_the_readers_point_cap() {
        // 2^64 points overflows `Dims::len`; 2^80 overflows even `u64`.
        let cfg = stream_cfg([16, 16, 16]);
        for dims in [Dims::d3(1 << 32, 1 << 32, 1), Dims::d3(1 << 40, 1 << 40, 1)] {
            assert!(matches!(
                StreamSink::new(Vec::new(), dims, &cfg),
                Err(SzhiError::InvalidInput(msg)) if msg.contains("points")
            ));
        }
        // The cap itself is accepted: dims only, nothing is allocated.
        let at_cap = Dims::d3(1 << 14, 1 << 14, 1 << 12);
        assert_eq!(at_cap.len() as u64, crate::format::MAX_POINTS);
        assert!(checked_plan(at_cap, [16, 16, 16], &cfg.interp).is_ok());
    }

    #[test]
    fn reader_iterates_lazily_and_drains_eagerly() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        push_all(&mut sink, &data);
        let bytes = sink.finish().unwrap();

        // The lazy in-memory reader is the seekable source over the bytes;
        // the eager parallel drain is `decompress`.
        let mut reader = StreamSource::from_bytes(&bytes).unwrap();
        assert_eq!(reader.index().dims(), data.dims());
        assert_eq!(reader.chunk_count(), 3 * 3 * 2);
        let mut covered = 0usize;
        for i in 0..reader.chunk_count() {
            let (region, sub) = reader.read_chunk(i).unwrap();
            assert_eq!(region, reader.index().chunk_region(i).unwrap());
            assert_eq!(sub.len(), region.len());
            for (a, b) in data.extract(&region).iter().zip(sub.as_slice()) {
                assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
            }
            covered += region.len();
        }
        assert_eq!(covered, data.dims().len());

        let eager = decompress(&bytes).unwrap();
        assert_eq!(eager.dims(), data.dims());
        assert_eq!(eager.as_slice(), reader.read_all().unwrap().as_slice());
        assert!(reader.read_chunk(reader.chunk_count()).is_err());
    }

    /// An `io::Write` that swallows `fail_after` writes, then fails every
    /// subsequent one — for exercising the sink's poisoning discipline.
    struct FailAfter(usize);

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0 == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.0 -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_emits_v4_with_the_same_chunks_as_the_v3_writer() {
        let data = DatasetKind::Miranda.generate(Dims::d3(48, 40, 36), 21);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        assert_eq!(sink.next_index(), 0);
        assert_eq!(sink.enc.header.dims, data.dims());
        assert!(sink.enc.header.abs_eb > 0.0);
        push_all(&mut sink, &data);
        assert!(sink.is_complete());
        let (v4, stats) = sink.finish_with_stats().unwrap();
        assert_eq!(
            stream_version(&v4).unwrap(),
            crate::format::VERSION_TRAILERED
        );
        assert_eq!(stats.compressed_bytes, v4.len());

        // The legacy v3 writer framed the same chunk bodies with a leading
        // table: re-wrapping the sink's chunks as v3 and back reproduces
        // the sink's bytes exactly.
        let v3 = recontain(&v4, VERSION_STREAMED);
        assert_eq!(stream_version(&v3).unwrap(), VERSION_STREAMED);
        assert_eq!(v4, recontain(&v3, crate::format::VERSION_TRAILERED));

        // And the trailered stream decompresses bit-identically to the v3
        // stream through every reader.
        let from_v3 = decompress(&v3).unwrap();
        let from_v4 = decompress(&v4).unwrap();
        assert_eq!(from_v3.as_slice(), from_v4.as_slice());
        let mut source = StreamSource::from_bytes(&v4).unwrap();
        assert_eq!(
            stream_version(&v4).unwrap(),
            crate::format::VERSION_TRAILERED
        );
        assert_eq!(source.read_all().unwrap().as_slice(), from_v4.as_slice());
    }

    #[test]
    fn sink_enforces_order_shape_completeness_and_poisoning() {
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        assert_eq!(sink.plan().len(), 8);

        // Wrong shape.
        let wrong = Grid::zeros(Dims::d3(8, 16, 16));
        assert!(matches!(
            sink.push_chunk(&wrong),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("shape")
        ));

        // A parallel push must continue the plan and stay inside it; a
        // rejected range writes nothing.
        let written = sink.bytes_written();
        for range in [3..5, 1..2, 0..9] {
            assert!(matches!(
                sink.push_range(&data, range, |_| Ok(())),
                Err(SzhiError::InvalidInput(msg)) if msg.contains("expects chunk 0 of 8")
            ));
        }
        assert_eq!(sink.bytes_written(), written);
        assert_eq!(sink.next_index(), 0);

        // Finishing early.
        let region = sink.plan().chunk_at(0);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        sink.push_chunk(&sub).unwrap();
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("1 of 8")
        ));

        // Streaming-hostile configs are rejected.
        let relative = SzhiConfig::new(ErrorBound::Relative(1e-3)).with_auto_tune(false);
        assert!(matches!(
            StreamSink::new(Vec::new(), data.dims(), &relative),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("relative")
        ));

        // A failed write poisons the sink: the error is typed Io, and every
        // further push or finish reports the poisoning.
        let mut sink = StreamSink::new(FailAfter(1), data.dims(), &cfg).unwrap();
        let region = sink.plan().chunk_at(0);
        let sub = Grid::from_vec(region.dims(), data.extract(&region));
        assert!(matches!(sink.push_chunk(&sub), Err(SzhiError::Io(_))));
        assert!(matches!(
            sink.push_chunk(&sub),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));

        // A hook error stops the parallel push before that chunk's write
        // and poisons the sink.
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        let refuse_second = |i| match i {
            1 => Err(SzhiError::Cancelled),
            _ => Ok(()),
        };
        assert!(matches!(
            sink.push_range(&data, 0..4, refuse_second),
            Err(SzhiError::Cancelled)
        ));
        assert!(sink.is_poisoned());
        assert_eq!(sink.next_index(), 1);
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));

        // A write failing mid-window (the header and chunk 0 pass) is
        // typed Io and poisons the sink.
        let mut sink = StreamSink::new(FailAfter(2), data.dims(), &cfg).unwrap();
        assert!(matches!(
            sink.push_range(&data, 0..4, |_| Ok(())),
            Err(SzhiError::Io(_))
        ));
        assert!(sink.is_poisoned());
        assert_eq!(sink.next_index(), 1);
        assert!(matches!(
            sink.push_range(&data, 1..2, |_| Ok(())),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
        assert!(matches!(
            sink.finish(),
            Err(SzhiError::InvalidInput(msg)) if msg.contains("poisoned")
        ));
    }

    #[test]
    fn source_reads_every_chunked_version_like_the_slice_reader() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let v4 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        // Legacy v2 and v3 containers carrying the same chunk bodies.
        let (header, table) = read_chunk_table(&v4).unwrap();
        let v2 = recontain(&v4, crate::format::VERSION_CHUNKED);
        let v3 = recontain(&v4, VERSION_STREAMED);

        let expect = decompress(&v4).unwrap();
        for (version, bytes) in [(2u8, &v2), (3, &v3), (4, &v4)] {
            let mut source = StreamSource::from_bytes(bytes).unwrap();
            let view = source.index();
            assert_eq!(stream_version(bytes).unwrap(), version, "v{version}");
            assert_eq!(view.dims(), data.dims());
            assert_eq!(view.table.span, table.span);
            assert_eq!(view.chunk_count(), table.entries.len());
            assert_eq!(view.header.pipeline, header.pipeline);
            for i in 0..view.chunk_count() {
                assert_eq!(view.chunk_pipeline(i).unwrap(), table.entries[i].pipeline);
                assert_eq!(view.chunk_region(i).unwrap(), view.plan.chunk_at(i));
            }
            let mut covered = 0usize;
            for chunk in source.chunks() {
                let (region, sub) = chunk.unwrap();
                assert_eq!(sub.len(), region.len());
                covered += region.len();
            }
            assert_eq!(covered, data.dims().len());
            assert_eq!(
                source.read_all().unwrap().as_slice(),
                expect.as_slice(),
                "v{version} source disagrees with decompress"
            );
            assert!(source.read_chunk(source.chunk_count()).is_err());
        }
    }

    #[test]
    fn reader_and_source_reject_v1_and_unknown_versions_clearly() {
        let data = DatasetKind::Nyx.generate(Dims::d3(20, 20, 20), 2);
        let v1 = crate::compressor::compress(&data, &SzhiConfig::new(ErrorBound::Relative(1e-2)))
            .unwrap();
        assert_eq!(stream_version(&v1).unwrap(), crate::format::VERSION);
        let mut v6 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        v6[4] = 6;

        // v1: named monolithic, pointed at `decompress` — not a confusing
        // chunk-table parse failure.
        for result in [
            read_chunk_table(&v1).err(),
            StreamSource::from_bytes(&v1).err(),
        ] {
            match result {
                Some(SzhiError::InvalidStream(msg)) => {
                    assert!(msg.contains("monolithic"), "unexpected message: {msg}");
                    assert!(msg.contains("decompress"), "unexpected message: {msg}");
                }
                other => panic!("v1 not rejected clearly: {other:?}"),
            }
        }
        // v6: named unsupported, with the version number.
        for result in [
            read_chunk_table(&v6).err(),
            StreamSource::from_bytes(&v6).err(),
        ] {
            match result {
                Some(SzhiError::InvalidStream(msg)) => {
                    assert!(msg.contains("unsupported"), "unexpected message: {msg}");
                    assert!(msg.contains('6'), "unexpected message: {msg}");
                }
                other => panic!("v6 not rejected clearly: {other:?}"),
            }
        }
    }

    #[test]
    fn v4_byte_flips_and_truncations_through_the_source_never_panic() {
        // The io-backed read path must uphold the same discipline as the
        // slice readers: every single-byte corruption and every truncation
        // of a v4 stream surfaces as a typed error, never a panic.
        let data = DatasetKind::Qmcpack.generate(Dims::d3(20, 20, 20), 3);
        let cfg = stream_cfg([16, 16, 16]);
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        push_all(&mut sink, &data);
        let bytes = sink.finish().unwrap();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    if let Ok(mut source) = StreamSource::from_bytes(&corrupt) {
                        let _ = source.read_all();
                    }
                });
                assert!(
                    result.is_ok(),
                    "source panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
        for cut in [0usize, 4, 40, bytes.len() / 2, bytes.len() - 1] {
            let result = std::panic::catch_unwind(|| {
                if let Ok(mut source) = StreamSource::from_bytes(&bytes[..cut]) {
                    let _ = source.read_all();
                }
            });
            assert!(result.is_ok(), "source panicked at truncation {cut}");
        }
    }

    #[test]
    fn per_chunk_tuning_never_loses_to_a_global_mode_even_at_tight_bounds() {
        // Regression for the eb-sensitivity PR 3 noted: at tight bounds the
        // noisy half's codes saturate into outliers and both pipelines see
        // similar inputs, so per-chunk selection may stop *winning* — but
        // because every chunk independently keeps the smaller of the two
        // payloads (ties falling back to the configured default), the tuned
        // stream must never be *larger* than the best global mode. The
        // container overhead is identical (v4 entries are fixed-size), so
        // the guarantee is exact, not approximate.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        for abs_eb in [2e-3, 1e-5, 1e-7] {
            let base = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
                .with_auto_tune(false)
                .with_chunk_span(span);
            let cr =
                compress_chunked(&data, &base.clone().with_mode(PipelineMode::Cr), span).unwrap();
            let tp =
                compress_chunked(&data, &base.clone().with_mode(PipelineMode::Tp), span).unwrap();
            let tuned = compress_chunked(
                &data,
                &base.clone().with_mode_tuning(ModeTuning::PerChunk),
                span,
            )
            .unwrap();
            assert!(
                tuned.len() <= cr.len() && tuned.len() <= tp.len(),
                "eb {abs_eb:e}: per-chunk ({} B) larger than global CR ({} B) or TP ({} B)",
                tuned.len(),
                cr.len(),
                tp.len()
            );
            // The clean-fallback guard: if saturation pushed every chunk to
            // the default (CR) mode, the tuned stream must be byte-identical
            // to the global default stream — no stray mode bytes, no size
            // drift.
            let reader = StreamSource::from_bytes(&tuned).unwrap();
            let all_default = (0..reader.chunk_count())
                .all(|i| reader.index().chunk_pipeline(i).unwrap() == PipelineSpec::CR);
            if all_default {
                assert_eq!(
                    tuned, cr,
                    "eb {abs_eb:e}: all-default tuned stream must equal CR"
                );
            }
            // And the stream still honours the bound.
            let recon = decompress(&tuned).unwrap();
            for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
                assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
            }
        }
    }

    #[test]
    fn per_chunk_interp_tuning_emits_a_v5_stream_that_roundtrips_everywhere() {
        // The acceptance contract of the tuned (v5) container: with
        // per-chunk interpolation tuning (and estimator-guided pipeline
        // selection) enabled, the batch engine and a sink pushed one chunk
        // at a time emit the same v5 bytes, and the stream decodes
        // bit-identically through `decompress`, `StreamSource` and
        // `ForwardSource`, honouring the error bound.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let abs_eb = 2e-3;
        let cfg = SzhiConfig::new(ErrorBound::Absolute(abs_eb))
            .with_auto_tune(false)
            .with_chunk_span([32, 32, 32])
            .with_mode_tuning(ModeTuning::estimated())
            .with_chunk_interp_tuning(true);

        let batch = compress_chunked(&data, &cfg, [32, 32, 32]).unwrap();
        assert_eq!(stream_version(&batch).unwrap(), VERSION_TUNED);

        // A sink pushed one chunk at a time: same bytes.
        let mut sink = StreamSink::new(Vec::new(), data.dims(), &cfg).unwrap();
        push_all(&mut sink, &data);
        let sunk = sink.finish().unwrap();
        assert_eq!(sunk, batch, "sink must match the batch engine");

        // Every reader agrees bit-for-bit and the bound holds.
        let from_decompress = decompress(&batch).unwrap();
        let mut forward = ForwardSource::new(&batch[..]).unwrap();
        assert_eq!(
            forward.read_all().unwrap().as_slice(),
            from_decompress.as_slice()
        );
        let mut source = StreamSource::from_bytes(&batch).unwrap();
        assert_eq!(stream_version(&batch).unwrap(), VERSION_TUNED);
        assert_eq!(
            source.read_all().unwrap().as_slice(),
            from_decompress.as_slice()
        );
        for (a, b) in data.as_slice().iter().zip(from_decompress.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }

        // The chunk table exposes each chunk's resolved configuration, and
        // the dictionary holds every referenced config.
        for i in 0..source.chunk_count() {
            let interp = source.index().chunk_interp(i).unwrap();
            interp.validate().unwrap();
            assert_eq!(
                interp.anchor_stride,
                source.index().header.interp.anchor_stride
            );
            assert_eq!(forward.index().chunk_interp(i).unwrap(), interp);
        }

        // Random access decodes each chunk with its own config.
        let (region, sub) = crate::compressor::decompress_chunk(&batch, 1).unwrap();
        for (a, b) in data.extract(&region).iter().zip(sub.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= abs_eb + 1e-12);
        }
    }

    #[test]
    fn v5_byte_flips_and_truncations_never_panic_through_any_reader() {
        // The v5 parity fuzz: every single-byte corruption and truncation
        // of a tuned stream surfaces as a typed error through `decompress`
        // and the io-backed `StreamSource` — never a panic.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(16, 16, 32));
        let cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span([16, 16, 16])
            .with_mode_tuning(ModeTuning::PerChunk)
            .with_chunk_interp_tuning(true);
        let bytes = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        assert_eq!(stream_version(&bytes).unwrap(), VERSION_TUNED);
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                let result = std::panic::catch_unwind(|| {
                    let _ = decompress(&corrupt);
                    if let Ok(mut source) = StreamSource::from_bytes(&corrupt) {
                        let _ = source.read_all();
                    }
                });
                assert!(
                    result.is_ok(),
                    "v5 reader panicked with byte {pos} xor {flip:#x}"
                );
            }
        }
        for cut in [0usize, 4, 40, bytes.len() / 2, bytes.len() - 1] {
            let result = std::panic::catch_unwind(|| {
                assert!(decompress(&bytes[..cut]).is_err());
                if let Ok(mut source) = StreamSource::from_bytes(&bytes[..cut]) {
                    let _ = source.read_all();
                }
            });
            assert!(result.is_ok(), "v5 reader panicked at truncation {cut}");
        }
    }

    /// Wraps a byte slice in a reader that implements `Read` but not
    /// `Seek` and hands out bytes a few at a time, like a slow pipe.
    struct PipeReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Read for PipeReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(13).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn forward_source_matches_the_seekable_source_on_every_version() {
        let data = DatasetKind::Rtm.generate(Dims::d3(40, 40, 24), 13);
        let cfg = stream_cfg([16, 16, 16]);
        let v4 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        let (_, table) = read_chunk_table(&v4).unwrap();
        let v2 = recontain(&v4, crate::format::VERSION_CHUNKED);
        let v3 = recontain(&v4, VERSION_STREAMED);
        let v5 = compress_chunked(
            &data,
            &cfg.clone()
                .with_mode_tuning(ModeTuning::estimated())
                .with_chunk_interp_tuning(true),
            [16, 16, 16],
        )
        .unwrap();
        assert_eq!(stream_version(&v5).unwrap(), VERSION_TUNED);

        let bits = |g: &Grid<f32>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (version, bytes) in [(2u8, &v2), (3, &v3), (4, &v4), (5, &v5)] {
            let expect = decompress(bytes).unwrap();
            // A `PipeReader` is Read-only — the compiler proves no Seek is
            // used anywhere on this path.
            let mut forward = ForwardSource::new(PipeReader { bytes, pos: 0 }).unwrap();
            let mut seekable = StreamSource::from_bytes(bytes).unwrap();
            let n = forward.chunk_count();
            assert_eq!(n, seekable.chunk_count());
            for view in [forward.index(), seekable.index()] {
                assert_eq!(view.dims(), data.dims());
                assert_eq!(view.table.span, table.span);
                assert_eq!(view.plan.len(), n);
                // Every per-chunk accessor is a typed error past the end.
                assert!(view.chunk_region(n).is_err(), "v{version} region");
                assert!(view.chunk_pipeline(n).is_err(), "v{version} pipeline");
                assert!(view.chunk_interp(n).is_err(), "v{version} interp");
            }
            let (fwd, seek) = (forward.index(), seekable.index());
            for i in 0..n {
                assert_eq!(
                    fwd.chunk_pipeline(i).unwrap(),
                    seek.chunk_pipeline(i).unwrap()
                );
                assert_eq!(fwd.chunk_interp(i).unwrap(), seek.chunk_interp(i).unwrap());
                assert_eq!(fwd.chunk_region(i).unwrap(), seek.chunk_region(i).unwrap());
            }
            let restored = forward.read_all().unwrap();
            assert_eq!(
                bits(&restored),
                bits(&expect),
                "v{version} forward source disagrees with decompress"
            );
            assert_eq!(
                bits(&seekable.read_all().unwrap()),
                bits(&expect),
                "v{version} seekable source disagrees with decompress"
            );
            assert!(forward.read_chunk(n).is_err());

            // A piped source reads its chunks in any order, like a file:
            // ahead to chunk k, back to chunk k - 1, and chunk k again,
            // each equal to the seekable read.
            let k = n / 2;
            let mut forward = ForwardSource::new(PipeReader { bytes, pos: 0 }).unwrap();
            for i in [k, k - 1, k] {
                let (region, sub) = forward.read_chunk(i).unwrap();
                let (want_region, want) = seekable.read_chunk(i).unwrap();
                assert_eq!(region, want_region, "v{version} chunk {i}");
                assert_eq!(bits(&sub), bits(&want), "v{version} chunk {i}");
            }

            // And the lazy iterator sees every chunk exactly once.
            let mut forward = ForwardSource::new(&bytes[..]).unwrap();
            let mut covered = 0usize;
            for chunk in forward.chunks() {
                let (region, sub) = chunk.unwrap();
                assert_eq!(sub.len(), region.len());
                covered += region.len();
            }
            assert_eq!(covered, data.dims().len(), "v{version}");
        }

        // v1 and unknown versions are rejected with the same clear typed
        // errors as the seekable source.
        let v1 = crate::compressor::compress(&data, &SzhiConfig::new(ErrorBound::Relative(1e-2)))
            .unwrap();
        assert!(matches!(
            ForwardSource::new(&v1[..]),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("monolithic")
        ));
        let mut v6 = v3.clone();
        v6[4] = 6;
        assert!(matches!(
            ForwardSource::new(&v6[..]),
            Err(SzhiError::InvalidStream(msg)) if msg.contains("unsupported")
        ));
    }

    #[test]
    fn forward_source_skips_gaps_between_chunk_bodies() {
        // The format tolerates unused bytes between chunk bodies (extents
        // must only be non-overlapping and non-decreasing). Every source
        // seeks over them, a piped one in the bytes it read to the end.
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let v4 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        let v3 = recontain(&v4, VERSION_STREAMED);
        let (_, table) = read_chunk_table(&v3).unwrap();
        let n = table.entries.len();
        let gap = 5usize;
        let mut gapped = v3[..table.data_start].to_vec();
        let entries_at = table.data_start - n * crate::format::V3_ENTRY_SIZE;
        for (i, e) in table.entries.iter().enumerate() {
            // Patch the entry's offset to account for the gaps inserted
            // before every body, then emit the gap + the body.
            let shifted = (e.offset + gap * (i + 1)) as u64;
            let at = entries_at + i * crate::format::V3_ENTRY_SIZE;
            gapped[at..at + 8].copy_from_slice(&shifted.to_le_bytes());
        }
        for i in 0..n {
            gapped.extend(vec![0xAAu8; gap]);
            gapped.extend_from_slice(table.chunk_slice(&v3, i));
        }
        let expect = decompress(&gapped).unwrap();
        let mut forward = ForwardSource::new(&gapped[..]).unwrap();
        assert_eq!(forward.read_all().unwrap().as_slice(), expect.as_slice());
    }

    #[test]
    fn forward_source_byte_flips_and_truncations_never_panic() {
        // The forward-only read path upholds the same discipline as every
        // other reader: single-byte corruption and truncation of a
        // leading-table (v3) or trailered (v5) stream surface as typed
        // errors — never a panic, never an unbounded allocation.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(16, 16, 32));
        let cfg = SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span([16, 16, 16]);
        let v4 = compress_chunked(&data, &cfg, [16, 16, 16]).unwrap();
        let v3 = recontain(&v4, VERSION_STREAMED);
        let v5 = compress_chunked(
            &data,
            &cfg.clone()
                .with_mode_tuning(ModeTuning::PerChunk)
                .with_chunk_interp_tuning(true),
            [16, 16, 16],
        )
        .unwrap();
        for bytes in [&v3, &v5] {
            for pos in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= flip;
                    let result = std::panic::catch_unwind(|| {
                        if let Ok(mut forward) = ForwardSource::new(&corrupt[..]) {
                            let _ = forward.read_all();
                        }
                    });
                    assert!(
                        result.is_ok(),
                        "forward source panicked with byte {pos} xor {flip:#x}"
                    );
                }
            }
            for cut in [0usize, 4, 40, bytes.len() / 2, bytes.len() - 1] {
                let result = std::panic::catch_unwind(|| {
                    if let Ok(mut forward) = ForwardSource::new(&bytes[..cut]) {
                        let _ = forward.read_all();
                    }
                });
                assert!(
                    result.is_ok(),
                    "forward source panicked at truncation {cut}"
                );
            }
        }
    }

    #[test]
    fn a_piped_stream_fails_on_its_header_at_once_and_on_a_cut_data_area_when_it_opens() {
        // A stream that is not szhi fails on its first bytes: an endless
        // one would never reach the end it is otherwise read to.
        assert!(matches!(
            ForwardSource::new(std::io::repeat(0x42)),
            Err(SzhiError::InvalidStream(_))
        ));
        // A leading-table stream cut inside its data area is rejected when
        // the source opens, by the extent check against the true length.
        let data = DatasetKind::Nyx.generate(Dims::d3(32, 32, 32), 5);
        let v4 = compress_chunked(&data, &stream_cfg([16, 16, 16]), [16, 16, 16]).unwrap();
        let v3 = recontain(&v4, VERSION_STREAMED);
        let (_, table) = read_chunk_table(&v3).unwrap();
        for cut in [table.data_start + 1, v3.len() - 1] {
            assert!(matches!(
                ForwardSource::new(&v3[..cut]),
                Err(SzhiError::InvalidStream(msg)) if msg.contains("data area")
            ));
        }
    }

    #[test]
    fn estimated_tuning_is_never_worse_than_the_default_and_tracks_exhaustive() {
        // Per-chunk, the estimator-guided selection always refines the
        // configured default, so the tuned stream can never exceed the
        // global-default stream; and over the full fig6 candidate list it
        // must stay within 5% of the exhaustive trial-encode stream.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        let base = SzhiConfig::new(ErrorBound::Absolute(2e-3))
            .with_auto_tune(false)
            .with_chunk_span(span);
        let global = compress_chunked(&data, &base, span).unwrap();
        let estimated = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::estimated()),
            span,
        )
        .unwrap();
        let exhaustive = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::exhaustive()),
            span,
        )
        .unwrap();
        assert!(
            estimated.len() <= global.len(),
            "estimated ({}) worse than the global default ({})",
            estimated.len(),
            global.len()
        );
        assert!(
            (estimated.len() as f64) <= exhaustive.len() as f64 * 1.05,
            "estimated ({}) more than 5% above exhaustive ({})",
            estimated.len(),
            exhaustive.len()
        );
        // Both remain plain v4 streams (no per-chunk interp): the wider
        // candidate set needs no container change.
        assert_eq!(stream_version(&estimated).unwrap(), VERSION_TRAILERED);
        assert_eq!(stream_version(&exhaustive).unwrap(), VERSION_TRAILERED);
        // And the estimated stream still honours the bound.
        let recon = decompress(&estimated).unwrap();
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
        }
    }

    #[test]
    fn per_chunk_tuning_beats_both_global_modes_on_a_mixed_field() {
        // A field whose left half is smooth (CR-friendly codes) and whose
        // right half is hard noise: per-chunk selection must strictly beat
        // both single-mode streams, because different chunks prefer
        // different pipelines.
        let data = szhi_datagen::mixed_smooth_noisy(Dims::d3(32, 32, 64));
        let span = [32, 32, 32];
        let base = stream_cfg(span);
        let sizes: Vec<usize> = [
            base.clone().with_mode(PipelineMode::Cr),
            base.clone().with_mode(PipelineMode::Tp),
            base.clone().with_mode_tuning(ModeTuning::PerChunk),
        ]
        .iter()
        .map(|cfg| compress_chunked(&data, cfg, span).unwrap().len())
        .collect();
        let (cr, tp, tuned) = (sizes[0], sizes[1], sizes[2]);
        assert!(
            tuned < cr && tuned < tp,
            "per-chunk tuning ({tuned} B) must strictly beat global CR ({cr} B) and \
             global TP ({tp} B)"
        );

        // The tuned stream must actually mix modes and still roundtrip.
        let tuned_bytes = compress_chunked(
            &data,
            &base.clone().with_mode_tuning(ModeTuning::PerChunk),
            span,
        )
        .unwrap();
        let mut reader = StreamSource::from_bytes(&tuned_bytes).unwrap();
        let modes: std::collections::HashSet<u8> = (0..reader.chunk_count())
            .map(|i| reader.index().chunk_pipeline(i).unwrap().id())
            .collect();
        assert!(modes.len() > 1, "expected a mix of per-chunk modes");
        let recon = reader.read_all().unwrap();
        for (a, b) in data.as_slice().iter().zip(recon.as_slice()) {
            assert!(((*a as f64) - (*b as f64)).abs() <= 2e-3 + 1e-12);
        }
    }
}
