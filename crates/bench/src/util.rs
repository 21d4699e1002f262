//! Report formatting shared by every report.

/// A plain-text experiment report: a title, TSV rows, and free-form
/// paper-vs-measured notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    /// Starts a report for a figure/table id and description.
    pub fn new(id: &str, description: &str) -> Self {
        let mut r = Report { lines: Vec::new() };
        r.lines.push(format!("== {id}: {description} =="));
        r
    }

    /// Adds the TSV header row.
    pub fn header(&mut self, cols: &[&str]) -> &mut Self {
        self.lines.push(cols.join("\t"));
        self
    }

    /// Adds one TSV data row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.lines.push(cells.join("\t"));
        self
    }

    /// Adds a blank line.
    pub fn blank(&mut self) -> &mut Self {
        self.lines.push(String::new());
        self
    }

    /// Adds a paper-vs-measured note.
    pub fn note(&mut self, text: &str) -> &mut Self {
        self.lines.push(format!("# {text}"));
        self
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with `digits` decimals.
pub fn fmt(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Formats bytes in a human unit.
pub fn human_bytes(b: f64) -> String {
    if b >= 1e12 {
        format!("{:.2}TB", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_tsv() {
        let mut r = Report::new("Fig 1", "demo");
        r.header(&["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.note("paper: 3");
        let s = r.render();
        assert!(s.contains("== Fig 1: demo =="));
        assert!(s.contains("a\tb"));
        assert!(s.contains("1\t2"));
        assert!(s.contains("# paper: 3"));
    }

    #[test]
    fn humanized_bytes() {
        assert_eq!(human_bytes(512.0), "512B");
        assert_eq!(human_bytes(2.5e3), "2.50KB");
        assert_eq!(human_bytes(9.16e9), "9.16GB");
        assert_eq!(human_bytes(3.2e12), "3.20TB");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.7375), "73.75");
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
