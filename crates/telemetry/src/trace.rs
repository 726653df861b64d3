//! The in-memory trace buffer and its Chrome Trace Event Format
//! export (the JSON array format `chrome://tracing` and Perfetto load
//! directly).

use crate::json::escape_json;
use crate::metrics::{with_registry, Metric};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered events; beyond it events are counted as
/// dropped instead of growing without bound.
const EVENT_CAP: usize = 1 << 18;

enum EventKind {
    /// A closed span (Chrome `ph: "X"` complete event).
    Complete,
    /// One tuner selection: estimated vs actual compressed size
    /// (Chrome `ph: "i"` instant event with both sizes as args).
    Tuner { estimated: u64, actual: u64 },
}

struct TraceEvent {
    name: &'static str,
    tid: u32,
    ts_ns: u64,
    dur_ns: u64,
    kind: EventKind,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Trace thread ids: small integers handed out on a thread's first
/// event, with the thread's name captured for the export's metadata.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Pins timestamp zero of the trace (first `set_trace_enabled(true)`).
pub(crate) fn init_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn current_tid() -> u32 {
    TID.with(|cell| {
        let t = cell.get();
        if t != 0 {
            return t;
        }
        let t = NEXT_TID.fetch_add(1, Relaxed);
        cell.set(t);
        let name = std::thread::current()
            .name()
            .unwrap_or("thread")
            .to_string();
        THREAD_NAMES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((t, name));
        t
    })
}

fn push(event: TraceEvent) {
    let mut events = EVENTS.lock().unwrap_or_else(PoisonError::into_inner);
    if events.len() < EVENT_CAP {
        events.push(event);
    }
}

fn since_epoch_ns(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Buffers one closed span (the caller has already checked the TRACE
/// bit).
pub(crate) fn push_complete(name: &'static str, start: Instant, dur_ns: u64) {
    push(TraceEvent {
        name,
        tid: current_tid(),
        ts_ns: since_epoch_ns(start),
        dur_ns,
        kind: EventKind::Complete,
    });
}

/// Records one tuner selection — the estimator's predicted compressed
/// size next to the size actually written — as a `tuner.select`
/// instant event. A no-op unless tracing is enabled.
pub fn tuner_record(estimated: u64, actual: u64) {
    if crate::flags() & crate::TRACE == 0 {
        return;
    }
    push(TraceEvent {
        name: "tuner.select",
        tid: current_tid(),
        ts_ns: since_epoch_ns(Instant::now()),
        dur_ns: 0,
        kind: EventKind::Tuner { estimated, actual },
    });
}

/// Empties the buffer (see [`crate::reset`]). Thread ids and the epoch
/// survive, so traces across a reset stay on one timeline.
pub(crate) fn clear_events() {
    EVENTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Serialises the buffered events as a Chrome Trace Event Format JSON
/// object: thread-name metadata, one complete (`X`) event per closed
/// span, one instant (`i`) event per tuner selection, and the final
/// value of every registered counter as a counter (`C`) event.
pub fn export_trace_json() -> String {
    let mut entries: Vec<String> = Vec::new();
    {
        let names = THREAD_NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        for (tid, name) in names.iter() {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ));
        }
    }
    let mut last_ts_ns = 0u64;
    {
        let events = EVENTS.lock().unwrap_or_else(PoisonError::into_inner);
        for e in events.iter() {
            last_ts_ns = last_ts_ns.max(e.ts_ns.saturating_add(e.dur_ns));
            match e.kind {
                EventKind::Complete => entries.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"szhi\",\
                     \"ts\":{},\"dur\":{}}}",
                    e.tid,
                    escape_json(e.name),
                    us(e.ts_ns),
                    us(e.dur_ns)
                )),
                EventKind::Tuner { estimated, actual } => entries.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"szhi\",\
                     \"s\":\"t\",\"ts\":{},\"args\":{{\"estimated_bytes\":{estimated},\
                     \"actual_bytes\":{actual}}}}}",
                    e.tid,
                    escape_json(e.name),
                    us(e.ts_ns)
                )),
            }
        }
    }
    with_registry(|metric| {
        if let Metric::Counter(c) = metric {
            entries.push(format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                escape_json(c.name()),
                us(last_ts_ns),
                c.value()
            ));
        }
    });
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}
