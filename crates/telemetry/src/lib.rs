//! Zero-overhead observability for the szhi stack: named [`Counter`]s,
//! log-bucketed [`Histogram`]s and scoped [`Span`]s, compiled in
//! everywhere but costing **one relaxed atomic load per event** while
//! disabled (the default). The overhead of that gate is measured and
//! bounded by `crates/core/tests/telemetry_disabled_cost.rs`.
//!
//! # Model
//!
//! Metrics are `static` items self-registering into a process-wide
//! registry on their first recorded event, so instrumentation sites are
//! one-liners with no setup:
//!
//! ```
//! use szhi_telemetry::{Counter, Span};
//!
//! static BYTES: Counter = Counter::new("io.sink.bytes");
//! static ENCODE: Span = Span::new("encode.chunk");
//!
//! szhi_telemetry::set_stats_enabled(true);
//! {
//!     let _guard = ENCODE.enter(); // timed until the guard drops
//!     BYTES.bump(4096);
//! }
//! let snap = szhi_telemetry::Snapshot::capture();
//! assert_eq!(snap.counter("io.sink.bytes"), Some(4096));
//! # szhi_telemetry::set_stats_enabled(false);
//! ```
//!
//! Two independent switches gate what an event does:
//!
//! * **stats** ([`set_stats_enabled`]): counters accumulate and spans
//!   record their duration into a per-span histogram.
//! * **trace** ([`set_trace_enabled`]): spans additionally append a
//!   complete event to a capped in-memory trace buffer, exported by
//!   [`export_trace_json`] in the Trace Event Format that
//!   `chrome://tracing` and Perfetto load directly.
//!
//! Both switches off folds every instrumentation site to the single
//! relaxed load of one shared flags word.
//!
//! Recording is thread-safe and lock-free on the hot path (atomics
//! only); the registry mutex is touched once per metric (first event)
//! and the trace buffer mutex once per span exit while tracing.
//!
//! Event names are dotted lowercase paths, `<subsystem>.<what>`
//! (`pool.tasks`, `encode.entropy`, `tuner.select`); the full
//! catalogue lives in `docs/OBSERVABILITY.md`.
//!
//! Telemetry never feeds back into compression: enabling every switch
//! changes no emitted byte, which the golden-stream corpus enforces.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod json;
mod metrics;
mod render;
mod snapshot;
mod span;
mod trace;

pub use json::stats_json;
pub use metrics::{bucket_bound, Counter, Histogram, BUCKETS};
pub use render::{render_ascii_table, render_stats};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot};
pub use span::{Span, SpanGuard};
pub use trace::{export_trace_json, tuner_record};

use std::sync::atomic::{AtomicU64, Ordering};

/// Flag bit: counters and histograms accumulate.
pub(crate) const STATS: u64 = 1;
/// Flag bit: spans append to the trace buffer.
pub(crate) const TRACE: u64 = 1 << 1;

/// The one word every instrumentation site loads. All bits clear is the
/// shipped default: every event is a single relaxed load and a branch.
static FLAGS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn flags() -> u64 {
    FLAGS.load(Ordering::Relaxed)
}

pub(crate) fn set_flag(bit: u64, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::SeqCst);
    } else {
        FLAGS.fetch_and(!bit, Ordering::SeqCst);
    }
}

/// Turns stats collection (counters, histograms, span durations) on or
/// off, process-wide.
pub fn set_stats_enabled(on: bool) {
    set_flag(STATS, on);
}

/// Whether stats collection is currently enabled.
pub fn stats_enabled() -> bool {
    flags() & STATS != 0
}

/// Turns trace-event buffering on or off, process-wide. The first
/// enable pins the trace epoch (timestamp zero of the exported trace).
pub fn set_trace_enabled(on: bool) {
    if on {
        trace::init_epoch();
    }
    set_flag(TRACE, on);
}

/// Whether trace-event buffering is currently enabled.
pub fn trace_enabled() -> bool {
    flags() & TRACE != 0
}

/// Zeroes every registered counter and histogram and clears the trace
/// buffer. Metrics stay registered (they reappear in the next snapshot
/// as soon as they record again). Intended for tests and for carving a
/// process-wide run into independent measurement windows.
pub fn reset() {
    metrics::reset_registered();
    trace::clear_events();
}
