//! The one way an experiment reports: lines of text, tables among them,
//! and the `BENCH_*.json` files some experiments keep at the repo root.

use crate::table::{Mask, TextTable};
use serde::Serialize;

/// Everything an experiment printed, with the mask of each line that
/// holds a wall-clock measurement.
#[derive(Debug, Default)]
pub struct Out {
    text: String,
    /// `(0-based line, mask)`.
    masks: Vec<(usize, Mask)>,
    /// Also print each line as it comes (one experiment run by hand).
    echo: bool,
    /// Write `json` files (off for `run_all --check`, which writes nothing).
    write_files: bool,
}

impl Out {
    /// Print every line as it comes and write JSON files.
    pub fn console() -> Self {
        Self { echo: true, write_files: true, ..Self::default() }
    }

    /// Collect silently; write JSON files only if `write_files`.
    pub fn capture(write_files: bool) -> Self {
        Self { write_files, ..Self::default() }
    }

    /// Everything emitted so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Emit `s` and a newline, like `println!`.
    pub fn line(&mut self, s: impl AsRef<str>) {
        if self.echo {
            println!("{}", s.as_ref());
        }
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Emit a line that holds a wall-clock measurement.
    pub fn measured(&mut self, s: impl AsRef<str>) {
        self.masked(s.as_ref(), Some(Mask::Line));
    }

    /// Emit a table and a blank line, like `println!("{}", t.render())`.
    pub fn table(&mut self, t: &TextTable) {
        self.masked(&t.render(), t.mask());
    }

    /// Write `value` as pretty JSON to `path` and say so (said even when
    /// files are off, so the text does not depend on the mode).
    pub fn json(&mut self, path: &str, value: &impl Serialize) {
        let json = serde_json::to_string_pretty(value).expect("serializable") + "\n";
        match if self.write_files { std::fs::write(path, json) } else { Ok(()) } {
            Ok(()) => self.line(format!("wrote {path}")),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    fn masked(&mut self, s: &str, mask: Option<Mask>) {
        if let Some(mask) = mask {
            let first = self.text.matches('\n').count();
            self.masks.extend((first..first + s.lines().count()).map(|i| (i, mask.clone())));
        }
        self.line(s);
    }

    /// The 1-based number of the first line where `committed` differs
    /// from this output outside its measured cells.
    pub fn first_difference(&self, committed: &str) -> Option<usize> {
        let (fresh, committed): (Vec<_>, Vec<_>) = (self.text.split('\n').collect(), committed.split('\n').collect());
        (0..fresh.len().max(committed.len()))
            .find(|&i| match (committed.get(i), fresh.get(i)) {
                (Some(c), Some(f)) => c != f && !self.masks.iter().any(|(line, m)| *line == i && m.same(c, f)),
                _ => true,
            })
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 10 in miniature: a measured column and a measured line.
    fn report(cluster: &str, overhead: &str, avg: &str) -> Out {
        let mut t = TextTable::new(&["Cluster", "Overhead (s)"]).measured(&["Overhead (s)"]);
        t.row(vec![cluster.into(), overhead.into()]);
        let mut out = Out::capture(false);
        out.line("Table 10\n");
        out.table(&t);
        out.measured(format!("AVG overhead: {avg} s"));
        out.json("never-written.json", &[1]);
        out
    }

    #[test]
    fn the_text_is_what_println_would_have_printed() {
        let mut t = TextTable::new(&["Cluster", "Overhead (s)"]);
        t.row(vec!["3".into(), "0.016".into()]);
        let want = format!("Table 10\n\n{}\nAVG overhead: 0.025 s\nwrote never-written.json\n", t.render());
        assert_eq!(report("3", "0.016", "0.025").text(), want);
        assert!(!std::path::Path::new("never-written.json").exists(), "a capture(false) run writes nothing");
    }

    #[test]
    fn only_measured_cells_and_lines_may_differ() {
        let committed = report("3", "0.016", "0.025").text().to_string();
        assert_eq!(report("3", "12.5", "3.1").first_difference(&committed), None);
        assert_eq!(report("4", "0.016", "0.025").first_difference(&committed), Some(5));
        assert_eq!(report("3", "0.016", "0.025").first_difference("Table 10\n"), Some(3));
    }
}
