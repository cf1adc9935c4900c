//! Plain-text table rendering shared by the CLI and examples.

/// A simple fixed-width table builder.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its length must match the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table with a header separator.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = c
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-')
                    && c.chars()
                        .all(|ch| ch.is_ascii_digit() || ".,x%eE+-".contains(ch));
                if numeric {
                    line.push_str(&format!("{c:>w$}", w = widths[i]));
                } else {
                    line.push_str(&format!("{c:<w$}", w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds adaptively (s / ms / µs).
#[must_use]
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Formats bytes adaptively (B / KiB / MiB / GiB).
#[must_use]
pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

/// Formats joules adaptively (J / mJ / µJ).
#[must_use]
pub fn fmt_joules(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3} J")
    } else if j >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else {
        format!("{:.1} uJ", j * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["name", "tok/s"]);
        t.row(vec!["full".into(), "123.4".into()]);
        t.row(vec!["unoptimized-long".into(), "7.1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows the same width.
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(0.0025), "2.500 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.5 us");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(fmt_joules(0.004), "4.000 mJ");
        assert_eq!(fmt_joules(1.5), "1.500 J");
        assert_eq!(fmt_joules(2e-6), "2.0 uJ");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(&["h1"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.render().lines().count(), 2);
    }
}
