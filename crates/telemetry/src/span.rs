//! Scoped spans: RAII-timed regions feeding a per-span duration
//! histogram and the trace buffer.

use crate::metrics::Histogram;
use crate::{flags, trace, STATS, TRACE};
use std::time::Instant;

/// A named timed region. Declare as a `static`; every
/// [`Span::enter`]..guard-drop window records once.
pub struct Span {
    name: &'static str,
    dur: Histogram,
}

impl Span {
    /// A span named `name`; its duration histogram shares the name
    /// (unit `ns`).
    pub const fn new(name: &'static str) -> Span {
        Span {
            name,
            dur: Histogram::new(name, "ns"),
        }
    }

    /// Opens the span. With every switch off this is one relaxed load
    /// and returns an inert guard (no clock read, no allocation).
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if flags() == 0 {
            return SpanGuard { open: None };
        }
        SpanGuard {
            open: Some((self, Instant::now())),
        }
    }
}

/// The RAII guard returned by [`Span::enter`]; dropping it closes the
/// span and records wherever the flags word says to.
pub struct SpanGuard {
    open: Option<(&'static Span, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((span, start)) = self.open else {
            return;
        };
        let f = flags();
        if f & (STATS | TRACE) != 0 {
            let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if f & STATS != 0 {
                span.dur.record_value(dur_ns);
            }
            if f & TRACE != 0 {
                trace::push_complete(span.name, start, dur_ns);
            }
        }
    }
}
