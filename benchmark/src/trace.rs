//! The in-harness span recorder behind the traced run.
//!
//! Spans are taken from outside the program, around calls into each crate's
//! public functions; they are kept in memory and written out when the run
//! ends, in Chrome Trace Event Format, so the file loads beside the output
//! of `szhi-cli --trace`.

use crate::stats::Json;
use std::time::Instant;

#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    chunk: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    /// The chunk index stamped on spans entered from now on.
    pub chunk: Option<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            chunk: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            chunk: self.chunk,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
        self.spans[id].end_ns = now;
    }

    /// Records one leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Keeps, span by span, the shorter of this recording and `other`, which
    /// must record the same sequence of calls. Interference only adds time,
    /// and a span of a few milliseconds needs only one quiet pass among
    /// several to show what the call costs.
    pub fn keep_fastest(&mut self, other: &Recorder) {
        assert_eq!(self.spans.len(), other.spans.len(), "not the same replay");
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            assert_eq!((mine.name, mine.parent), (theirs.name, theirs.parent));
            mine.end_ns = mine.start_ns + mine.dur_ns().min(theirs.dur_ns());
        }
    }

    /// Lays the spans out again after [`Recorder::keep_fastest`]: a parent
    /// lasts at least as long as its children together, and siblings follow
    /// each other without gaps, so the trace nests properly in a viewer.
    pub fn compact(&mut self) {
        let n = self.spans.len();
        let mut inner = vec![0u64; n];
        for i in (0..n).rev() {
            let dur = self.spans[i].dur_ns().max(inner[i]);
            self.spans[i].end_ns = self.spans[i].start_ns + dur;
            if let Some(p) = self.spans[i].parent {
                inner[p] += dur;
            }
        }
        let mut next_child = vec![0u64; n];
        let mut next_top = self.spans.first().map_or(0, |s| s.start_ns);
        for i in 0..n {
            let dur = self.spans[i].dur_ns();
            let slot = match self.spans[i].parent {
                Some(p) => &mut next_child[p],
                None => &mut next_top,
            };
            let start = *slot;
            *slot += dur;
            self.spans[i].start_ns = start;
            self.spans[i].end_ns = start + dur;
            next_child[i] = start;
        }
    }

    /// Duration of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Total duration of the spans directly under spans called `parent`:
    /// the share of that parent the layer calls account for.
    pub fn children_ms(&self, parent: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(SpanRec::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// The recorded spans as Chrome trace events of category `workload`.
    /// A span's self time is its duration minus its children's.
    pub fn events(&self, workload: &str) -> Vec<Json> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(SpanRec::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
            }
        }
        self.spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let mut args = vec![
                    ("id".to_string(), Json::Int(id as u64)),
                    ("self_us".to_string(), Json::Num(self_ns as f64 / 1e3)),
                ];
                if let Some(parent) = s.parent {
                    args.push(("parent".to_string(), Json::Int(parent as u64)));
                }
                if let Some(chunk) = s.chunk {
                    args.push(("chunk".to_string(), Json::Int(chunk as u64)));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_follow_names_and_parents() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let mut rec = Recorder::new();
        let parent = rec.enter("chunk.encode");
        rec.time("a", nap);
        rec.exit(parent);
        rec.time("a", nap);
        assert!(rec.sum_ms("a") >= 4.0);
        assert_eq!(rec.durations_ms("a").len(), 2);
        let under = rec.children_ms("chunk.encode");
        assert!(under >= 2.0 && under <= rec.sum_ms("chunk.encode"));
        assert!(under < rec.sum_ms("a"));
        assert_eq!(rec.events("w").len(), 3);
    }

    fn recording(outer: u64, first: u64, second: u64) -> Recorder {
        let span = |name, start_ns, dur: u64, parent| SpanRec {
            name,
            chunk: None,
            start_ns,
            end_ns: start_ns + dur,
            parent,
        };
        Recorder {
            spans: vec![
                span("outer", 100, outer, None),
                span("a", 110, first, Some(0)),
                span("b", 150, second, Some(0)),
            ],
            ..Recorder::new()
        }
    }

    #[test]
    fn the_fastest_of_two_passes_is_kept_span_by_span_and_still_nests() {
        let mut rec = recording(90, 30, 20);
        rec.keep_fastest(&recording(80, 10, 40));
        rec.compact();
        let spans: Vec<(u64, u64)> = rec.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        // a: 10, b: 20, back to back inside an outer of min(90, 80).
        assert_eq!(spans, [(100, 180), (100, 110), (110, 130)]);
        // A parent never ends before its children do.
        let mut squeezed = recording(25, 30, 20);
        squeezed.compact();
        assert_eq!(squeezed.spans[0].dur_ns(), 50);
    }
}
