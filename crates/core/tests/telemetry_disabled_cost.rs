//! The gate behind the "zero overhead while disabled" claim.
//!
//! With every switch off an instrumentation site costs one relaxed flags
//! load plus an inert guard. This test times that gate, counts the events
//! one real chunked encode fires (from an enabled run's snapshot delta),
//! and asserts that gate cost × events stays under 2 % of the disabled
//! encode's wall time. Events are sparse (a few per chunk stage, about
//! one per 20 µs of encode), so the estimate sits near 0.005 % and the
//! limit corresponds to roughly half a microsecond per disabled event:
//! not a flaky timing test, but one a disabled path that starts doing
//! syscall-sized work trips. The switches and the registry are
//! process-global, so this file holds a single test.

use std::hint::black_box;
use std::time::Instant;
use szhi_core::{compress_chunked, ErrorBound, SzhiConfig};
use szhi_datagen::DatasetKind;
use szhi_ndgrid::Dims;
use szhi_telemetry as tm;

static GATE_SPAN: tm::Span = tm::Span::new("test.telemetry.gate");

#[test]
fn disabled_telemetry_costs_under_two_percent_of_an_encode() {
    assert!(
        !tm::stats_enabled() && !tm::trace_enabled(),
        "the disabled-path measurement needs every switch off"
    );

    // A span enter/drop pair is the most expensive site; a counter bump
    // is strictly cheaper.
    const PAIRS: u32 = 2_000_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        black_box(GATE_SPAN.enter());
    }
    let gate_ns = start.elapsed().as_nanos() as f64 / PAIRS as f64;

    let field = DatasetKind::Miranda.generate(Dims::d3(64, 64, 64), 42);
    let cfg = SzhiConfig::new(ErrorBound::Relative(1e-3));
    let encode = || {
        let start = Instant::now();
        let bytes = compress_chunked(&field, &cfg, [16, 16, 16]).unwrap();
        (bytes, start.elapsed().as_nanos() as f64)
    };
    let (bytes_off, first_ns) = encode();
    let (_, second_ns) = encode();
    let encode_ns = first_ns.min(second_ns);

    tm::set_stats_enabled(true);
    tm::set_trace_enabled(true);
    let before = tm::Snapshot::capture();
    let (bytes_on, _) = encode();
    let delta = tm::Snapshot::capture().delta(&before);
    tm::set_stats_enabled(false);
    tm::set_trace_enabled(false);
    assert_eq!(
        bytes_off, bytes_on,
        "telemetry must never change the emitted bytes"
    );

    // Every recorded histogram sample is one instrumentation event (a span
    // is one enter/drop pair); the counter bumps ride along with the sink
    // pushes (bytes + chunks) and the pool parts.
    let samples: u64 = delta.histograms.iter().map(|h| h.count).sum();
    let chunks = delta.counter("io.sink.chunks").unwrap_or(0);
    assert_eq!(chunks, 64, "one sink push per 16³ chunk of a 64³ field");
    let events = samples + 2 * chunks + delta.counter("pool.tasks").unwrap_or(0);
    let share = gate_ns * events as f64 / encode_ns;
    assert!(
        share < 0.02,
        "disabled telemetry is estimated at {:.4} % of an encode \
         ({events} events x {gate_ns:.2} ns over {:.2} ms)",
        100.0 * share,
        encode_ns / 1e6
    );
}
