//! Sample summaries and the JSON values the harness prints.

use std::fmt;

/// What a set of timed samples says. A timing metric's value is the
/// `median`; the quartiles show how noisy the run was, and `best` rides along
/// as what the code costs when the machine leaves it alone.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub best: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `i`-th of `n` quantile cut points of sorted `data`, interpolated
/// exactly as Python's `statistics.quantiles(data, n=n)` does, so the
/// harness, `compare.py` and whoever checks the spread agree on a quartile.
fn cut_point(data: &[f64], i: usize, n: usize) -> f64 {
    let m = data.len();
    if m == 1 {
        return data[0];
    }
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// Summarises samples; `best` is the largest when higher is better.
pub fn summarize(samples: &[f64], higher_is_better: bool) -> Summary {
    let data = sorted(samples);
    Summary {
        n: data.len(),
        best: if higher_is_better {
            data[data.len() - 1]
        } else {
            data[0]
        },
        q1: cut_point(&data, 1, 4),
        median: cut_point(&data, 2, 4),
        q3: cut_point(&data, 3, 4),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    cut_point(&sorted(samples), 2, 4)
}

/// The 95th percentile; only meaningful with ten or more samples beyond it,
/// so callers pass at least 200.
pub fn p95(samples: &[f64]) -> f64 {
    cut_point(&sorted(samples), 95, 100)
}

/// A JSON value. Object keys keep insertion order so reports diff cleanly.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{}` on an f64 prints the shortest digits that round-trip:
            // every digit measured, nothing rounded away.
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
        let s = summarize(&[22.0, 1.0, 7.0, 2.0, 16.0, 4.0, 11.0], false);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 7.0, 16.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0], false);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
    }

    #[test]
    fn best_follows_the_direction() {
        let times = [10.0, 12.0, 20.0, 11.0];
        assert_eq!(summarize(&times, false).best, 10.0);
        assert_eq!(summarize(&times, true).best, 20.0);
    }

    #[test]
    fn json_escapes_and_nests() {
        let v = Json::obj([
            ("a\"b", Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("c", Json::Bool(true)),
        ]);
        assert_eq!(v.to_string(), r#"{"a\"b": [1, 0.5], "c": true}"#);
    }
}
