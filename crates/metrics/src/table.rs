//! Plain-text table and series renderers for the bench binaries.
//!
//! Every experiment binary prints its results through these helpers so
//! the output lines up with the corresponding paper table/figure and can
//! be diffed between runs.

use std::fmt::Write as _;

/// A simple fixed-width ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of display-able values.
    pub fn rowd(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Table {
        let rendered: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&rendered)
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!(" {c:>w$} "))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Format a float with 1 decimal, rendering NaN as "-".
pub fn f1(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.1}")
    }
}

/// Format a float with 2 decimals, rendering NaN as "-".
pub fn f2(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.2}")
    }
}

/// Format a float with 3 decimals, rendering NaN as "-".
pub fn f3(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.3}")
    }
}

/// Render an (x, y) series as a compact two-column listing with a
/// name — the textual equivalent of one figure curve.
pub fn render_series(name: &str, points: &[(f64, f64)], max_rows: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- series: {name} ({} points) --", points.len());
    let step = (points.len() / max_rows.max(1)).max(1);
    for (i, (x, y)) in points.iter().enumerate() {
        if i % step == 0 || i == points.len() - 1 {
            let _ = writeln!(out, "  {x:>12.4}  {y:>8.4}");
        }
    }
    out
}

/// Print [`render_series`] to stdout.
pub fn print_series(name: &str, points: &[(f64, f64)], max_rows: usize) {
    print!("{}", render_series(name, points, max_rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["long-name".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Rows aligned: both data lines have same length.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(f64::NAN), "-");
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn rowd_renders_display() {
        let mut t = Table::new("d", &["a", "b"]);
        t.rowd(&[&42, &"x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains("42"));
    }
}
