//! Counters and log-bucketed histograms: `static`-friendly, atomic, and
//! self-registering into the process-wide registry on first use.

use crate::{flags, STATS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

/// Number of power-of-two buckets a [`Histogram`] spreads values over:
/// bucket `k > 0` counts values in `[2^(k-1), 2^k - 1]`, bucket 0
/// counts zeros, and the last bucket absorbs everything above `2^62`.
pub const BUCKETS: usize = 64;

/// A registered metric: the registry holds `&'static` references, so
/// registration never copies and snapshots read the live atomics.
pub(crate) enum Metric {
    /// A monotonically increasing counter.
    Counter(&'static Counter),
    /// A log-bucketed value distribution.
    Histogram(&'static Histogram),
}

/// Every metric that has recorded at least one event since process
/// start, in registration order.
pub(crate) static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

/// Registers `metric` exactly once; `registered` is the metric's own
/// latch. The swap happens under the registry lock so two racing first
/// events cannot double-push.
fn register(metric: Metric, registered: &AtomicBool) {
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    if !registered.swap(true, Relaxed) {
        registry.push(metric);
    }
}

/// Walks the registry under its lock.
pub(crate) fn with_registry(mut f: impl FnMut(&Metric)) {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    for metric in registry.iter() {
        f(metric);
    }
}

/// Zeroes every registered metric in place (see [`crate::reset`]).
pub(crate) fn reset_registered() {
    with_registry(|metric| match metric {
        Metric::Counter(c) => c.value.store(0, Relaxed),
        Metric::Histogram(h) => {
            h.count.store(0, Relaxed);
            h.sum.store(0, Relaxed);
            for bucket in &h.buckets {
                bucket.store(0, Relaxed);
            }
        }
    });
}

/// A named monotonic counter. Declare as a `static` next to the code it
/// instruments; [`Counter::bump`] is a no-op (one relaxed load) while
/// stats are disabled.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter named `name` (dotted lowercase by convention).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`. Free while stats are disabled; one relaxed
    /// `fetch_add` while enabled.
    #[inline]
    pub fn bump(&'static self, n: u64) {
        if flags() & STATS == 0 {
            return;
        }
        if !self.registered.load(Relaxed) {
            register(Metric::Counter(self), &self.registered);
        }
        self.value.fetch_add(n, Relaxed);
    }

    /// The counter's name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The current total.
    pub(crate) fn value(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A named value distribution over [`BUCKETS`] power-of-two buckets,
/// with an exact event count and sum. Used directly for size
/// distributions and indirectly as the duration store of every
/// [`crate::Span`].
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// A zeroed histogram named `name`, measuring values in `unit`
    /// (`"ns"`, `"bytes"`, ...).
    pub const fn new(name: &'static str, unit: &'static str) -> Histogram {
        Histogram {
            name,
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Records one value. Free while stats are disabled; three relaxed
    /// `fetch_add`s while enabled.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if flags() & STATS == 0 {
            return;
        }
        self.record_value(v);
    }

    /// The unconditional record path (the caller has already checked
    /// the flags word).
    pub(crate) fn record_value(&'static self, v: u64) {
        if !self.registered.load(Relaxed) {
            register(Metric::Histogram(self), &self.registered);
        }
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        if let Some(bucket) = self.buckets.get(bucket_of(v)) {
            bucket.fetch_add(1, Relaxed);
        }
    }

    /// The histogram's name.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The histogram's unit label.
    pub(crate) fn unit(&self) -> &'static str {
        self.unit
    }

    /// Number of recorded events.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Exact sum of all recorded values (wrapping at `u64::MAX`).
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// The live per-bucket counts, in bucket order.
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }
}

/// The bucket index for a value: 0 for 0, else `64 - leading_zeros`,
/// clamped into the last bucket.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper bound of bucket `k` — the value a percentile
/// estimate reports for a rank landing in that bucket.
pub fn bucket_bound(k: usize) -> u64 {
    if k >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << k).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_power_of_two_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
        // Every value falls into the bucket whose bound covers it.
        for v in [0u64, 1, 2, 5, 100, 4096, 1 << 40] {
            assert!(v <= bucket_bound(bucket_of(v)));
        }
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        static C: Counter = Counter::new("test.disabled.counter");
        static H: Histogram = Histogram::new("test.disabled.hist", "ns");
        assert!(!crate::stats_enabled());
        C.bump(7);
        H.observe(7);
        assert_eq!(C.value(), 0);
        assert_eq!(H.count(), 0);
    }
}
