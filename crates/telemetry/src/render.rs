//! Deterministic plain-text rendering: the generic aligned table (also
//! reused by `szhi-cli inspect`) and the `--stats` summary built on it.

use crate::snapshot::Snapshot;

/// Renders an aligned two-space-indented table: a header row then one
/// line per row, columns padded to the widest cell and separated by
/// two spaces. The first column is left-aligned, every other column
/// right-aligned (the numeric convention of the workspace's reports).
/// Ragged rows render their missing cells empty; trailing whitespace
/// is trimmed. The output is a pure function of its inputs, so golden
/// tests can pin it exactly.
pub fn render_ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = rows.iter().map(Vec::len).fold(headers.len(), usize::max);
    let mut widths = vec![0usize; ncols];
    let mut measure = |i: usize, cell: &str| {
        if let Some(w) = widths.get_mut(i) {
            *w = (*w).max(cell.len());
        }
    };
    for (i, h) in headers.iter().enumerate() {
        measure(i, h);
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            measure(i, cell);
        }
    }
    let mut out = String::new();
    let mut emit = |cells: &mut dyn Iterator<Item = &str>| {
        let mut line = String::from(" ");
        for (i, (cell, &w)) in cells.zip(widths.iter()).enumerate() {
            line.push(' ');
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("{cell:>w$}"));
            }
            line.push(' ');
        }
        out.push_str(line.trim_end());
        out.push('\n');
    };
    emit(&mut headers.iter().copied());
    for row in rows {
        let mut cells = row.iter().map(String::as_str).chain(std::iter::repeat(""));
        emit(&mut cells.by_ref().take(ncols));
    }
    out
}

/// Renders a [`Snapshot`] as the human-readable summary `szhi-cli
/// --stats` prints: a counters table and a spans/histograms table
/// (count, sum, mean and bucket-resolution p50/p99 per entry). The
/// layout is pinned by a golden test, so changes here are deliberate.
pub fn render_stats(snap: &Snapshot) -> String {
    let mut out = String::from("telemetry stats:\n");
    out.push_str("\ncounters:\n");
    if snap.counters.is_empty() {
        out.push_str("  (none)\n");
    } else {
        let rows: Vec<Vec<String>> = snap
            .counters
            .iter()
            .map(|c| vec![c.name.clone(), c.value.to_string()])
            .collect();
        out.push_str(&render_ascii_table(&["counter", "total"], &rows));
    }
    out.push_str("\nspans and histograms:\n");
    if snap.histograms.is_empty() {
        out.push_str("  (none)\n");
    } else {
        let rows: Vec<Vec<String>> = snap
            .histograms
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.unit.clone(),
                    h.count.to_string(),
                    h.sum.to_string(),
                    h.mean().to_string(),
                    h.percentile(0.50).to_string(),
                    h.percentile(0.99).to_string(),
                ]
            })
            .collect();
        out.push_str(&render_ascii_table(
            &["name", "unit", "count", "sum", "mean", "p50", "p99"],
            &rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_is_exact() {
        let rows = vec![
            vec!["alpha".to_string(), "1".to_string(), "22".to_string()],
            vec!["b".to_string(), "333".to_string()],
        ];
        let got = render_ascii_table(&["name", "n", "len"], &rows);
        let want = "  name     n  len\n  alpha    1   22\n  b      333\n";
        assert_eq!(got, want);
    }
}
