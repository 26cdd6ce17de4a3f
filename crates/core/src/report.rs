//! Plain-text/markdown table rendering for the experiment binaries.
//!
//! The bench harness prints the same rows the paper's tables report;
//! this keeps the formatting logic out of the experiment code.

use std::fmt::Write as _;

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct MarkdownTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
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

    /// Renders as aligned markdown.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(width) {
                let _ = write!(out, " {c:<w$} |", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &width, &mut out);
        out.push('|');
        for w in &width {
            let _ = write!(out, "{:-<w$}|", "", w = w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &width, &mut out);
        }
        out
    }
}

/// Formats `mean ± std` with the requested number of decimals, matching
/// the paper's cell style (`96 ± 44`, `1.76 ± 0.79`).
#[must_use]
pub fn pm(mean: f64, std: f64, decimals: usize) -> String {
    format!("{mean:.decimals$} ± {std:.decimals$}")
}

/// Formats a significance marker: `†` vs Wald, `‡` vs Wilson, per the
/// paper's table conventions.
#[must_use]
pub fn significance_markers(vs_wald: bool, vs_wilson: bool) -> &'static str {
    match (vs_wald, vs_wilson) {
        (true, true) => "†,‡",
        (true, false) => "†",
        (false, true) => "‡",
        (false, false) => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = MarkdownTable::new(vec!["Method", "Triples"]);
        t.row(vec!["Wald", "103 ± 43"]);
        t.row(vec!["aHPD", "96 ± 44"]);
        let s = t.render();
        assert!(s.contains("| Method | Triples  |"));
        assert!(s.lines().count() == 4);
        assert!(s.contains("| aHPD   | 96 ± 44  |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = MarkdownTable::new(vec!["A", "B"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn pm_formatting() {
        assert_eq!(pm(96.4, 43.8, 0), "96 ± 44");
        assert_eq!(pm(1.758, 0.789, 2), "1.76 ± 0.79");
    }

    #[test]
    fn markers() {
        assert_eq!(significance_markers(true, true), "†,‡");
        assert_eq!(significance_markers(true, false), "†");
        assert_eq!(significance_markers(false, true), "‡");
        assert_eq!(significance_markers(false, false), "");
    }
}
