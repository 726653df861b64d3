//! Hand-rolled JSON serialisation (the workspace is offline; no serde)
//! for the `--stats-json` registry dump.

use crate::snapshot::Snapshot;

/// Escapes a string for inclusion inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    // szhi-analyzer: allow(capped-alloc) -- sized by a string already in memory
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialises a [`Snapshot`] as the stats JSON document `--stats-json`
/// writes: `counters` (name/value) and `histograms` (name, unit, exact
/// count and sum, mean, bucket-resolution p50/p99, and the raw bucket
/// array). The shape is validated by a checked-in schema check in CI.
pub fn stats_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": [");
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|c| {
            format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                escape_json(&c.name),
                c.value
            )
        })
        .collect();
    out.push_str(&counters.join(","));
    if !counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"histograms\": [");
    let hists: Vec<String> = snap
        .histograms
        .iter()
        .map(|h| {
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            format!(
                "\n    {{\"name\": \"{}\", \"unit\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                escape_json(&h.name),
                escape_json(&h.unit),
                h.count,
                h.sum,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
                buckets.join(", ")
            )
        })
        .collect();
    out.push_str(&hists.join(","));
    if !hists.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}
