//! Point-in-time copies of the registry: the data model behind the
//! `--stats` table, the stats JSON dump and per-job telemetry deltas.

use crate::metrics::{bucket_bound, with_registry, Metric, BUCKETS};

/// One counter's value at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// The counter's name.
    pub name: String,
    /// The captured total.
    pub value: u64,
}

/// One histogram's state at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// The histogram's unit label (`ns`, `bytes`, ...).
    pub unit: String,
    /// Exact number of recorded events.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Per-bucket event counts ([`BUCKETS`] entries; bucket `k` holds
    /// values up to [`bucket_bound`]`(k)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The exact mean of recorded values (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// A bucket-resolution percentile estimate: the inclusive upper
    /// bound of the bucket the rank `ceil(p × count)` lands in. `p`
    /// is clamped into `[0, 1]`; an empty histogram reports 0.
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*n);
            if seen >= rank {
                return bucket_bound(k);
            }
        }
        bucket_bound(BUCKETS - 1)
    }
}

/// A copy of every registered metric at one instant, sorted by name.
///
/// Capture is not atomic across metrics: values recorded while the
/// registry walk runs may straddle the snapshot. Each individual
/// metric is read with single atomic loads, so a snapshot never
/// observes torn values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms (including span durations), sorted
    /// by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Captures every registered metric.
    pub fn capture() -> Snapshot {
        let mut snap = Snapshot::default();
        with_registry(|metric| match metric {
            Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                name: c.name().to_string(),
                value: c.value(),
            }),
            Metric::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                name: h.name().to_string(),
                unit: h.unit().to_string(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.bucket_counts(),
            }),
        });
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// The change since `earlier`: counter values, histogram counts,
    /// sums and buckets are subtracted pairwise (saturating); metrics
    /// absent from `earlier` keep their full value. Metrics whose
    /// delta is zero events are omitted, so a job's delta lists only
    /// what the job actually did.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for c in &self.counters {
            let before = earlier
                .counters
                .iter()
                .find(|e| e.name == c.name)
                .map_or(0, |e| e.value);
            let value = c.value.saturating_sub(before);
            if value > 0 {
                out.counters.push(CounterSnapshot {
                    name: c.name.clone(),
                    value,
                });
            }
        }
        for h in &self.histograms {
            let empty;
            let before = match earlier.histograms.iter().find(|e| e.name == h.name) {
                Some(e) => e,
                None => {
                    empty = HistogramSnapshot {
                        name: h.name.clone(),
                        unit: h.unit.clone(),
                        count: 0,
                        sum: 0,
                        buckets: Vec::new(),
                    };
                    &empty
                }
            };
            let count = h.count.saturating_sub(before.count);
            if count == 0 {
                continue;
            }
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .map(|(k, n)| n.saturating_sub(before.buckets.get(k).copied().unwrap_or(0)))
                .collect();
            out.histograms.push(HistogramSnapshot {
                name: h.name.clone(),
                unit: h.unit.clone(),
                count,
                sum: h.sum.saturating_sub(before.sum),
                buckets,
            });
        }
        out
    }

    /// The value of the counter named `name`, if captured.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram named `name`, if captured.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(name: &str, values: &[u64]) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for &v in values {
            buckets[crate::metrics::bucket_of(v)] += 1;
        }
        HistogramSnapshot {
            name: name.to_string(),
            unit: "ns".to_string(),
            count: values.len() as u64,
            sum: values.iter().sum(),
            buckets,
        }
    }

    #[test]
    fn percentiles_report_bucket_bounds() {
        let h = hist("t", &[1, 2, 3, 100, 1000]);
        assert_eq!(h.mean(), (1 + 2 + 3 + 100 + 1000) / 5);
        assert_eq!(h.percentile(0.0), 1); // rank clamps to the first event
        assert_eq!(h.percentile(0.5), 3); // 3rd of 5 → bucket [2,3]
        assert_eq!(h.percentile(1.0), 1023); // 1000 → bucket [512,1023]
        assert_eq!(hist("e", &[]).percentile(0.5), 0);
    }

    #[test]
    fn delta_subtracts_and_drops_idle_metrics() {
        let before = Snapshot {
            counters: vec![CounterSnapshot {
                name: "a".into(),
                value: 10,
            }],
            histograms: vec![hist("h", &[5, 5])],
        };
        let after = Snapshot {
            counters: vec![
                CounterSnapshot {
                    name: "a".into(),
                    value: 15,
                },
                CounterSnapshot {
                    name: "b".into(),
                    value: 2,
                },
            ],
            histograms: vec![hist("h", &[5, 5, 9]), hist("idle", &[])],
        };
        let d = after.delta(&before);
        assert_eq!(d.counter("a"), Some(5));
        assert_eq!(d.counter("b"), Some(2));
        let dh = d.histogram("h").unwrap();
        assert_eq!(dh.count, 1);
        assert_eq!(dh.sum, 9);
        assert!(d.histogram("idle").is_none());
    }
}
