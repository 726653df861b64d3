//! Integration tests for the telemetry stack: exact totals under
//! concurrent hammering, span recording across the real worker pool,
//! and the pinned `--stats` table rendering.
//!
//! The flags word, the registry and the trace buffer are process-wide,
//! and the test harness runs these tests concurrently — so every test
//! uses metric names unique to itself, only ever turns collection *on*,
//! and never calls `reset()`.

use szhi_telemetry::{
    bucket_bound, Counter, CounterSnapshot, Histogram, HistogramSnapshot, Snapshot, Span, BUCKETS,
};

/// The index of the bucket a value lands in, recovered from the public
/// bucket bounds.
fn bucket_for(v: u64) -> usize {
    (0..BUCKETS)
        .find(|&k| bucket_bound(k) >= v)
        .expect("every u64 lands in some bucket")
}

static HAMMER_COUNT: Counter = Counter::new("test.hammer.count");
static HAMMER_BYTES: Histogram = Histogram::new("test.hammer.bytes", "bytes");

#[test]
fn concurrent_hammering_loses_no_events() {
    szhi_telemetry::set_stats_enabled(true);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    HAMMER_COUNT.bump(1);
                    HAMMER_BYTES.observe((t * PER_THREAD + i) % 4096);
                }
            });
        }
    });
    // The statics are unique to this test, so the totals are exact even
    // with other tests running in the same process.
    let snap = Snapshot::capture();
    assert_eq!(
        snap.counter("test.hammer.count"),
        Some(THREADS * PER_THREAD)
    );
    let h = snap
        .histogram("test.hammer.bytes")
        .expect("hammered histogram is registered");
    assert_eq!(h.count, THREADS * PER_THREAD);
    let spread: u64 = (0..THREADS)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| (t * PER_THREAD + i) % 4096)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(h.sum, spread, "no observed value was lost or torn");
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        h.count,
        "every event landed in exactly one bucket"
    );
}

static NEST_OUTER: Span = Span::new("test.nest.outer");
static NEST_INNER: Span = Span::new("test.nest.inner");

#[test]
fn spans_record_across_pool_worker_threads() {
    szhi_telemetry::set_stats_enabled(true);
    szhi_telemetry::set_trace_enabled(true);
    rayon::set_num_threads(4);
    let before = Snapshot::capture();
    {
        let _outer = NEST_OUTER.enter();
        use rayon::prelude::*;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        // Parts are claimed, so the calling thread may run all of them
        // before a worker wakes: each part waits (until a shared 10 s
        // deadline) for a pool worker to have run a part too.
        let deadline = Instant::now() + Duration::from_secs(10);
        let worker_ran = AtomicBool::new(false);
        let parts: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                let _inner = NEST_INNER.enter();
                if rayon::current_thread_index() > Some(0) {
                    worker_ran.store(true, Ordering::SeqCst);
                }
                while !worker_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                i
            })
            .collect();
        assert_eq!(parts.iter().sum::<usize>(), 63 * 64 / 2);
    }
    let delta = Snapshot::capture().delta(&before);
    let inner = delta
        .histogram("test.nest.inner")
        .expect("inner spans recorded");
    assert_eq!(inner.count, 64, "one inner span per part, across threads");
    let outer = delta
        .histogram("test.nest.outer")
        .expect("outer span recorded");
    assert_eq!(outer.count, 1);
    // The pool itself shows up: its workers carry their thread names
    // into the trace metadata, and the nested spans are trace events.
    let trace = szhi_telemetry::export_trace_json();
    assert!(trace.contains("\"name\":\"test.nest.inner\""));
    assert!(trace.contains("\"name\":\"test.nest.outer\""));
    assert!(
        trace.contains("szhi-pool-"),
        "worker threads recorded events under their own names"
    );
    // The pool splits the 64 items into 4 parts per thread (16 here), so
    // at least two parts were counted and timed.
    assert!(
        delta.counter("pool.tasks").unwrap_or(0) >= 2,
        "the pool counted the parts it executed"
    );
    assert!(
        delta.histogram("pool.task").is_some_and(|h| h.count >= 2),
        "the pool timed its parts"
    );
}

#[test]
fn stats_table_rendering_is_pinned() {
    // Built by hand, not captured from globals, so the expected text is
    // exact regardless of what other tests record.
    let mut buckets = vec![0u64; BUCKETS];
    buckets[bucket_for(1500)] = 2;
    let snap = Snapshot {
        counters: vec![
            CounterSnapshot {
                name: "io.sink.bytes".into(),
                value: 4096,
            },
            CounterSnapshot {
                name: "pool.tasks".into(),
                value: 3,
            },
        ],
        histograms: vec![HistogramSnapshot {
            name: "encode.chunk".into(),
            unit: "ns".into(),
            count: 2,
            sum: 3000,
            buckets,
        }],
    };
    let want = "telemetry stats:\n\
                \ncounters:\n\
                \x20 counter        total\n\
                \x20 io.sink.bytes   4096\n\
                \x20 pool.tasks         3\n\
                \nspans and histograms:\n\
                \x20 name          unit  count   sum  mean   p50   p99\n\
                \x20 encode.chunk    ns      2  3000  1500  2047  2047\n";
    assert_eq!(szhi_telemetry::render_stats(&snap), want);
}
