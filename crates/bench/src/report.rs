//! Text-table reporting for the experiment binaries, matching the rows and
//! series the paper's figures show.

use bao_common::stats::percentile;

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: vec![] }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Print an experiment banner.
pub fn print_header(title: &str, detail: &str) {
    println!("==================================================================");
    println!("{title}");
    if !detail.is_empty() {
        println!("{detail}");
    }
    println!("==================================================================");
}

/// The percentile row of Figure 9: median / 95 / 99 / 99.5, formatted in
/// seconds.
pub fn percentile_row(label: &str, latencies_ms: &[f64]) -> Vec<String> {
    let p = |q: f64| format!("{:.2}s", percentile(latencies_ms, q) / 1_000.0);
    vec![label.to_string(), p(50.0), p(95.0), p(99.0), p(99.5)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // columns aligned: "value" starts at same offset in all rows
        let col = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    fn percentile_row_format() {
        let lat = vec![100.0; 99].into_iter().chain([10_000.0]).collect::<Vec<_>>();
        let row = percentile_row("PG", &lat);
        assert_eq!(row[0], "PG");
        assert_eq!(row[1], "0.10s");
        assert!(row[4].ends_with('s'));
    }
}
