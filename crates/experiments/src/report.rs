//! Plain-text and JSON reporting for the experiments.
//!
//! Every experiment hands back its report as a [`Value`] — the JSON form of
//! its typed row structs. [`print_report`] lays any of them out for the
//! terminal and [`write_json`] drops the same document under `results/`, so
//! EXPERIMENTS.md numbers can be traced to a file.

use crate::plot::ascii_chart;
use prop_engine::json::{self, FromJson, ToJson, Value};
use prop_metrics::{MetricSummary, TimeSeries};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::fs;
use std::path::PathBuf;

/// Print a titled report of any shape (see [`render_report`]).
pub fn print_report(title: &str, report: &Value) {
    print!("{}", render_report(title, report));
}

/// Lay a report out as text. An array of rows becomes an aligned table
/// headed by the field names; a `{label, points}` series, or an array of
/// them, becomes one series table with its chart; any other object becomes
/// `key: value` lines, with the members that are themselves rows, series or
/// objects following under their key.
pub fn render_report(title: &str, report: &Value) -> String {
    let mut out = format!("\n=== {title} ===\n");
    render_value(&mut out, report);
    out
}

/// `v` read as a group of series: one `{label, points}` object, or a
/// non-empty array of nothing else.
fn series_group(v: &Value) -> Option<Vec<TimeSeries>> {
    match v {
        Value::Object(_) => Some(vec![TimeSeries::from_json(v).ok()?]),
        Value::Array(items) if !items.is_empty() => {
            items.iter().map(|item| TimeSeries::from_json(item).ok()).collect()
        }
        _ => None,
    }
}

/// Fits on one line: a scalar, or an array of scalars.
fn is_inline(v: &Value) -> bool {
    match v {
        Value::Object(_) => false,
        Value::Array(items) => {
            !items.iter().any(|i| matches!(i, Value::Array(_) | Value::Object(_)))
        }
        _ => true,
    }
}

/// One table cell, or the right-hand side of a `key: value` line. A series
/// inside a row shows as its label; the series itself follows the table.
fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => format!("{x:.3}"),
        Value::Str(s) => s.clone(),
        Value::Array(items) => {
            format!("[{}]", items.iter().map(cell).collect::<Vec<_>>().join(", "))
        }
        Value::Object(_) => TimeSeries::from_json(v).map_or("…".to_string(), |s| s.label),
    }
}

fn render_value(out: &mut String, v: &Value) {
    if let Some(series) = series_group(v) {
        return render_series(out, &series);
    }
    match v {
        Value::Object(members) => {
            let (inline, nested): (Vec<_>, Vec<_>) =
                members.iter().partition(|(_, member)| is_inline(member));
            for (key, member) in inline {
                let _ = writeln!(out, "{key}: {}", cell(member));
            }
            for (key, member) in nested {
                let _ = writeln!(out, "\n-- {key} --");
                render_value(out, member);
            }
        }
        Value::Array(rows) if matches!(rows.first(), Some(Value::Object(_))) => {
            render_rows(out, rows)
        }
        Value::Array(items) if items.is_empty() => out.push_str("(no data)\n"),
        other => {
            let _ = writeln!(out, "{}", cell(other));
        }
    }
}

/// Rows as an aligned table: one column per member of the first row, text
/// left-aligned and numbers right-aligned, then each series-valued column
/// plotted as one group.
fn render_rows(out: &mut String, rows: &[Value]) {
    let Some(Value::Object(first)) = rows.first() else { return };
    let is_text = |v: &Value| matches!(v, Value::Str(_) | Value::Object(_));
    let columns: Vec<(&str, bool, Vec<String>)> = first
        .iter()
        .map(|(key, v)| {
            let cells = rows.iter().map(|row| row.get(key).map_or("-".to_string(), cell));
            (key.as_str(), is_text(v), cells.collect())
        })
        .collect();
    for r in 0..=rows.len() {
        let mut line = String::new();
        for (key, text, cells) in &columns {
            let width = cells.iter().map(|c| c.chars().count()).max().unwrap_or(0);
            let width = width.max(key.chars().count());
            // Row 0 is the header: the field names.
            let value = if r == 0 { key } else { cells[r - 1].as_str() };
            let _ = if *text {
                write!(line, "{value:<width$}  ")
            } else {
                write!(line, "{value:>width$}  ")
            };
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    for (key, _) in first {
        let group: Option<Vec<TimeSeries>> =
            rows.iter().map(|row| TimeSeries::from_json(row.get(key)?).ok()).collect();
        if let Some(series) = group {
            out.push('\n');
            render_series(out, &series);
        }
    }
}

/// Labelled series as aligned columns — one row per sample, one column per
/// series, `x` being simulated minutes for a time series — then the same
/// points as a chart and each series' start → end change.
fn render_series(out: &mut String, curves: &[TimeSeries]) {
    let rows = curves.iter().map(|c| c.len()).max().unwrap_or(0);
    if rows == 0 {
        out.push_str("(no data)\n");
        return;
    }
    let _ = write!(out, "{:>8}", "x");
    for c in curves {
        let _ = write!(out, "  {:>22}", truncate(&c.label, 22));
    }
    out.push('\n');
    for r in 0..rows {
        let x = curves.iter().find_map(|c| c.points.get(r).map(|&(x, _)| x)).unwrap_or(f64::NAN);
        let _ = write!(out, "{x:>8.1}");
        for c in curves {
            let _ = match c.points.get(r) {
                Some(&(_, v)) => write!(out, "  {v:>22.3}"),
                None => write!(out, "  {:>22}", "-"),
            };
        }
        out.push('\n');
    }
    let refs: Vec<&TimeSeries> = curves.iter().collect();
    let _ = writeln!(out, "\n{}", ascii_chart(&refs, 72, 14));
    for c in curves {
        let (first, last) =
            (c.first_value().unwrap_or(f64::NAN), c.last_value().unwrap_or(f64::NAN));
        let change = c.improvement().map_or(0.0, |i| -i * 100.0);
        let _ = writeln!(out, "  {:<28} {first:>10.3} → {last:>10.3}   ({change:+.1}%)", c.label);
    }
}

/// Print a sweep aggregate's metric summaries: one row per headline
/// metric with mean, sample stddev, and the 95% CI half-width (`n/a` on
/// single-seed sweeps, where the CI is null by design).
pub fn print_ci_table(title: &str, metrics: &BTreeMap<String, MetricSummary>) {
    println!("\n=== {title} ===");
    if metrics.is_empty() {
        println!("(no data)");
        return;
    }
    println!("{:<44} {:>4} {:>12} {:>12} {:>12}", "metric", "n", "mean", "stddev", "95% CI ±");
    for (name, s) in metrics {
        let ci = s.ci95.map_or("n/a".to_string(), |w| format!("{w:.4}"));
        println!(
            "{:<44} {:>4} {:>12.4} {:>12.4} {:>12}",
            truncate(name, 44),
            s.n,
            s.mean,
            s.stddev,
            ci
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n - 1).chain(['…']).collect()
    }
}

/// Write `value` to `results/<name>.json` (best effort: failures are
/// reported but never abort the run).
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match fs::write(&path, json::to_string_pretty(value)) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 22), "short");
        assert_eq!(truncate("abcdefghij", 5), "abcd…");
        // Counts characters, so a multi-byte label is never cut mid-character.
        assert_eq!(truncate("m=δ(G)", 6), "m=δ(G)");
        assert_eq!(truncate("δδδδδδ", 3), "δδ…");
    }

    #[test]
    fn print_handles_empty() {
        // The no-data paths render, and say so.
        for empty in ["[]", r#"{"label": "x", "points": []}"#, r#"[{"label": "x", "points": []}]"#]
        {
            let text = render_report("empty", &json::parse(empty).unwrap());
            assert_eq!(text, "\n=== empty ===\n(no data)\n", "{empty}");
        }
        print_ci_table("empty", &BTreeMap::new());
    }

    #[test]
    fn rows_become_a_table_headed_by_the_field_names() {
        let rows = json::parse(
            r#"[{"label": "PROP-O (m=δ(G))", "trials": 12, "ratio": 0.5, "ok": true},
                {"label": "LTM", "trials": 18446744073709551615, "ratio": 1.25, "ok": false}]"#,
        )
        .unwrap();
        let text = render_report("t", &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "=== t ===");
        assert_eq!(lines[2], "label                          trials  ratio     ok");
        assert_eq!(lines[3], "PROP-O (m=δ(G))                    12  0.500   true");
        assert_eq!(lines[4], "LTM              18446744073709551615  1.250  false");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn series_become_one_table_and_chart_wherever_they_sit() {
        let curve =
            |label: &str| format!(r#"{{"label": "{label}", "points": [[0.0, 8.0], [10.0, 4.0]]}}"#);
        // An array of series (Fig. 7), and series inside rows (Figs. 5–6),
        // both come out as one two-column series table.
        let bare = format!("[{}, {}]", curve("a"), curve("b"));
        let in_rows = format!(
            r#"[{{"series": {}, "improvement": 0.5}}, {{"series": {}, "improvement": 0.5}}]"#,
            curve("a"),
            curve("b")
        );
        for doc in [&bare, &in_rows] {
            let text = render_report("t", &json::parse(doc).unwrap());
            let header = format!("{:>8}  {:>22}  {:>22}", "x", "a", "b");
            assert_eq!(text.lines().filter(|l| **l == header).count(), 1, "{text}");
            let last = format!("{:>8.1}  {:>22.3}  {:>22.3}", 10.0, 4.0, 4.0);
            assert!(text.contains(&last), "{text}");
            assert!(text.contains("o = a") && text.contains("+ = b"), "{text}");
            assert!(text.contains("8.000 →      4.000   (-50.0%)"), "{text}");
        }
        // Inside rows, the series' labels name the rows of the table.
        let text = render_report("t", &json::parse(&in_rows).unwrap());
        assert!(text.contains("series  improvement\na             0.500\nb             0.500\n"));
    }

    #[test]
    fn objects_become_key_value_lines_with_nested_members_after() {
        let doc = json::parse(
            r#"{"rows": [{"n": 1}], "leaves": 3, "window": [10.0, 20.0], "gate": null,
                "faults": {"drops": 7}}"#,
        )
        .unwrap();
        assert_eq!(
            render_report("t", &doc),
            "\n=== t ===\nleaves: 3\nwindow: [10.000, 20.000]\ngate: -\n\n-- rows --\nn\n1\n\n-- faults --\ndrops: 7\n"
        );
    }
}
