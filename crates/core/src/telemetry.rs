//! The core engine's telemetry instrumentation points: every span,
//! counter and histogram the encode/decode/serve stack records, declared
//! in one place so the event catalogue (`docs/OBSERVABILITY.md`) has a
//! single source of truth.
//!
//! All of these are compiled in unconditionally and cost one relaxed
//! atomic load per event while telemetry is disabled (see
//! `szhi-telemetry`); `tests/telemetry_disabled_cost.rs` gates the
//! disabled-path overhead.

pub(crate) use szhi_telemetry::{Counter, Histogram, Span};

// --- encode stage spans (per chunk) ---------------------------------------

/// One whole chunk through [`ChunkEncoder::encode_into`]
/// (prediction + quantization, reorder, entropy selection, framing).
///
/// [`ChunkEncoder::encode_into`]: crate::stream::ChunkEncoder
pub(crate) static ENCODE_CHUNK: Span = Span::new("encode.chunk");
/// The predictor pass of one chunk: interpolation prediction and
/// quantization run fused in `compress_in_place` (after per-chunk
/// interpolation tuning, where it is on), so one span covers them.
pub(crate) static ENCODE_PREDICT: Span = Span::new("encode.predict");
/// The level-order reordering of one chunk's quantization codes.
pub(crate) static ENCODE_REORDER: Span = Span::new("encode.reorder");
/// The lossless pipeline selection + encoding of one chunk's codes.
pub(crate) static ENCODE_ENTROPY: Span = Span::new("encode.entropy");
/// The CRC32 of one encoded chunk body before it is written out.
pub(crate) static ENCODE_CRC: Span = Span::new("encode.crc");

// --- decode stage spans (per chunk) ---------------------------------------

/// One whole chunk body through `StreamIndex::decode_into`, after its CRC
/// check (sections, entropy decode, restore, prediction); a v1 stream is
/// one chunk.
pub(crate) static DECODE_CHUNK: Span = Span::new("decode.chunk");
/// The bounded entropy decode of one chunk's payload.
pub(crate) static DECODE_ENTROPY: Span = Span::new("decode.entropy");
/// The level-order restore of one chunk's quantization codes.
pub(crate) static DECODE_REORDER: Span = Span::new("decode.reorder");
/// The predictor reconstruction of one chunk's values.
pub(crate) static DECODE_PREDICT: Span = Span::new("decode.predict");
/// The CRC32 verification of one fetched chunk body.
pub(crate) static DECODE_CRC: Span = Span::new("decode.crc");

// --- job phase spans (coordinator threads) --------------------------------

/// A compress job resolving its configuration (sink construction:
/// header validation, plan).
pub(crate) static JOB_TUNE: Span = Span::new("job.tune");
/// A compress job's batched encode loop (parallel encode + ordered
/// pushes).
pub(crate) static JOB_ENCODE: Span = Span::new("job.encode");
/// A compress job finalizing its container (table + trailer + flush).
pub(crate) static JOB_FLUSH: Span = Span::new("job.flush");
/// A decompress job's sequential fetch-verify-decode loop.
pub(crate) static JOB_DECODE: Span = Span::new("job.decode");

// --- I/O counters ----------------------------------------------------------

/// Chunk-body bytes written by [`StreamSink`](crate::StreamSink).
pub(crate) static SINK_BYTES: Counter = Counter::new("io.sink.bytes");
/// Chunks written by [`StreamSink`](crate::StreamSink).
pub(crate) static SINK_CHUNKS: Counter = Counter::new("io.sink.chunks");
/// Chunk-body bytes fetched by [`ChunkReader`](crate::ChunkReader), off a
/// file or a piped stream alike.
pub(crate) static SOURCE_BYTES: Counter = Counter::new("io.source.bytes");
/// Chunk bodies fetched by [`ChunkReader`](crate::ChunkReader).
pub(crate) static SOURCE_CHUNKS: Counter = Counter::new("io.source.chunks");

// --- job lifecycle counters ------------------------------------------------

/// Jobs spawned by [`JobService`](crate::JobService) (compress and
/// decompress).
pub(crate) static JOBS_STARTED: Counter = Counter::new("jobs.started");
/// Jobs that ran to successful completion.
pub(crate) static JOBS_COMPLETED: Counter = Counter::new("jobs.completed");
/// Jobs that observed their cancellation flag and stopped.
pub(crate) static JOBS_CANCELLED: Counter = Counter::new("jobs.cancelled");
/// Jobs that ended with an error other than cancellation.
pub(crate) static JOBS_FAILED: Counter = Counter::new("jobs.failed");

// --- tuner trials ----------------------------------------------------------

/// Candidate pipelines whose trial started, summed over every chunk's
/// selection (every policy, `Global`'s single candidate included).
pub(crate) static TUNER_TRIALS: Counter = Counter::new("tuner.trials");
/// Trials that a floor ended before their final entropy stage, because the
/// histogram of that stage's input proved it could not beat the best
/// payload so far.
pub(crate) static TUNER_TRIALS_CUT: Counter = Counter::new("tuner.trials_cut");

// --- tuner estimated-vs-actual ---------------------------------------------

/// The estimator's predicted compressed size for each chunk's winning
/// pipeline (estimated mode only).
pub(crate) static TUNER_ESTIMATED: Histogram = Histogram::new("tuner.estimated_bytes", "bytes");
/// The size actually produced by each chunk's winning pipeline
/// (estimated mode only; pairs with `tuner.estimated_bytes`).
pub(crate) static TUNER_ACTUAL: Histogram = Histogram::new("tuner.actual_bytes", "bytes");
