//! Table formatting and artifact recording for the regeneration binaries.

use genie_srg::json::Value;
use std::path::PathBuf;

/// Write a machine-readable experiment record to
/// `target/experiments/{name}.json` (pretty-printed) and return its path.
/// Regeneration binaries call this so every table lands as a diffable
/// artifact.
pub fn write_artifact(name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("{value:#}"))?;
    Ok(path)
}

/// Render rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format seconds with sensible precision (matches the paper's tables:
/// sub-second values get 2 decimals, larger values fewer).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{s:.2}")
    } else if s < 100.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.0}")
    }
}

/// Format megabytes like the paper (comma-grouped integers above 1000,
/// 2-decimal below).
pub fn fmt_mb(mb: f64) -> String {
    if mb >= 1000.0 {
        let n = mb.round() as u64;
        let s = n.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(c);
        }
        out
    } else {
        format!("{mb:.2}")
    }
}

/// Format a percentage with one decimal.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["Mode", "Latency"],
            &[
                vec!["Local".into(), "0.21".into()],
                vec!["Semantics-Aware".into(), "111".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Mode"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "Latency" starts at the same offset everywhere.
        let col = lines[0].find("Latency").unwrap();
        assert_eq!(&lines[2][col..col + 4], "0.21");
    }

    #[test]
    fn artifacts_are_written_and_parseable() {
        let rows = genie_srg::json_object! { "n": 1.5, "m": vec![2.5, 3.5] };
        let path = write_artifact("unit_test_artifact", &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('\n'), "artifacts are pretty-printed: {text}");
        assert_eq!(genie_srg::json::parse(&text).unwrap(), rows);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn number_formats() {
        assert_eq!(fmt_secs(0.214), "0.21");
        assert_eq!(fmt_secs(13.37), "13.4");
        assert_eq!(fmt_secs(216.4), "216");
        assert_eq!(fmt_mb(149258.0), "149,258");
        assert_eq!(fmt_mb(4.31), "4.31");
        assert_eq!(fmt_pct(99.12), "99.1");
    }
}
