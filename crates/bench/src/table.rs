//! Plain-text table rendering for experiment output, and the one place
//! that says which printed cells are wall-clock measurements: a table
//! declares its measured columns when it is built, and `run_all --check`
//! ignores exactly those cells when it compares a fresh run with
//! `results/`.

/// A simple aligned text table.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// The cells of the columns timed on a wall clock.
    measured: Option<Mask>,
}

/// What `run_all --check` ignores of one printed line.
#[derive(Debug, Clone, PartialEq)]
pub enum Mask {
    /// The cells at these column indices of a table row.
    Cells(Vec<usize>),
    /// The whole line: a measurement printed outside a table.
    Line,
}

impl Mask {
    /// Whether `a` and `b` agree everywhere this mask does not cover.
    pub fn same(&self, a: &str, b: &str) -> bool {
        match self {
            Mask::Line => true,
            Mask::Cells(masked) => {
                fn cells(l: &str) -> Vec<&str> {
                    l.split('|').skip(1).map(str::trim).collect()
                }
                let (a, b) = (cells(a), cells(b));
                a.len() == b.len()
                    && a.iter().zip(&b).enumerate().all(|(i, (x, y))| x == y || masked.contains(&i))
            }
        }
    }
}

impl TextTable {
    /// New table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), ..Self::default() }
    }

    /// Declare the columns (by header) whose cells are wall-clock
    /// measurements, which no two runs need to repeat.
    pub fn measured(mut self, columns: &[&str]) -> Self {
        let at = |c: &&str| self.header.iter().position(|h| h == c).unwrap_or_else(|| panic!("no column '{c}'"));
        self.measured = Some(Mask::Cells(columns.iter().map(at).collect()));
        self
    }

    /// The mask of every rendered line, if any column is measured.
    pub fn mask(&self) -> Option<Mask> {
        self.measured.clone()
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(width) {
                line.push_str(&format!("{c:<w$} | ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &width));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a throughput with its speedup over a baseline, paper-style:
/// `39.70 (1.82x)`.
pub fn speedup(value: f64, baseline: f64) -> String {
    format!("{value:.2} ({:.2}x)", value / baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["Scheme", "Tput"]);
        t.row(vec!["PipeEdge".into(), "21.86".into()]);
        t.row(vec!["LLM-PQ".into(), "39.70 (1.82x)".into()]);
        let s = t.render();
        assert!(s.contains("| Scheme   |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(30.0, 15.0), "30.00 (2.00x)");
    }

    #[test]
    fn a_measured_cell_may_differ_in_width_and_value_and_no_other_cell_may() {
        let mask = TextTable::new(&["Cluster", "Overhead (s)"]).measured(&["Overhead (s)"]).mask().unwrap();
        assert!(mask.same("| 3       | 0.02         |", "| 3       | 10.125       |"));
        assert!(!mask.same("| 3       | 0.02         |", "| 4       | 0.02         |"));
        assert!(TextTable::new(&["a"]).mask().is_none());
    }
}
