//! Structured result reporting for the harness binaries: aligned console
//! tables plus machine-readable CSV and JSON next to them, so figure data
//! can be re-plotted without scraping stdout.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-typed results table.
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the column count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for building rows of display-ables.
    pub fn rowf(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialises as CSV (RFC-4180-ish: quotes fields containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV form to `path`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Serialises as a JSON object `{"title": .., "columns": [..],
    /// "rows": [[..], ..]}` with every cell a string.
    pub fn to_json(&self) -> String {
        let esc = julienne::telemetry::json_escape;
        let cols = self
            .columns
            .iter()
            .map(|c| format!("\"{}\"", esc(c)))
            .collect::<Vec<_>>()
            .join(",");
        let rows = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "[{}]",
                    r.iter()
                        .map(|c| format!("\"{}\"", esc(c)))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"title\":\"{}\",\"columns\":[{cols}],\"rows\":[{rows}]}}",
            esc(&self.title)
        )
    }

    /// Writes the JSON form to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Per-backend memory footprint of one benchmark input: raw CSR bytes
/// against the byte-compressed form, normalised per directed edge.
pub struct MemoryFootprint {
    /// Input name as printed in the timing tables.
    pub graph: String,
    /// Adjacency bytes of the CSR backend.
    pub csr_bytes: usize,
    /// Adjacency bytes of the byte-compressed backend.
    pub compressed_bytes: usize,
    /// Directed edge count — the per-edge denominator.
    pub num_edges: usize,
}

impl MemoryFootprint {
    /// CSR bytes per directed edge.
    pub fn csr_bytes_per_edge(&self) -> f64 {
        self.csr_bytes as f64 / self.num_edges.max(1) as f64
    }

    /// Compressed bytes per directed edge.
    pub fn compressed_bytes_per_edge(&self) -> f64 {
        self.compressed_bytes as f64 / self.num_edges.max(1) as f64
    }

    /// CSR-to-compressed size ratio (>1 means compression won).
    pub fn ratio(&self) -> f64 {
        self.csr_bytes as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// Builds the standard per-backend memory table: one row per input with
/// bytes/edge for both backends and the compression ratio, ready for
/// `results/` next to the timing artifacts.
pub fn footprint_table(rows: &[MemoryFootprint]) -> Table {
    let mut t = Table::new(
        "memory",
        &[
            "graph",
            "edges",
            "csr_bytes",
            "csr_b_per_edge",
            "compressed_bytes",
            "compressed_b_per_edge",
            "ratio",
        ],
    );
    for r in rows {
        t.rowf(&[
            &r.graph,
            &r.num_edges,
            &r.csr_bytes,
            &format!("{:.2}", r.csr_bytes_per_edge()),
            &r.compressed_bytes,
            &format!("{:.2}", r.compressed_bytes_per_edge()),
            &format!("{:.2}", r.ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("# demo"));
        let lines: Vec<&str> = r.lines().collect();
        // header + 2 rows + title
        assert_eq!(lines.len(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let mut t = Table::new("x", &["k", "v"]);
        t.rowf(&[&1, &2.5]);
        let p = std::env::temp_dir().join(format!("julienne-csv-{}", std::process::id()));
        t.write_csv(&p).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "k,v\n1,2.5\n");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut t = Table::new("a \"b\"", &["k", "v"]);
        t.row(&["x,y".into(), "1".into()]);
        let j = t.to_json();
        assert!(j.starts_with("{\"title\":\"a \\\"b\\\"\""), "{j}");
        assert!(j.contains("\"columns\":[\"k\",\"v\"]"));
        assert!(j.contains("\"rows\":[[\"x,y\",\"1\"]]"));
    }

    #[test]
    fn footprint_table_shapes() {
        let rows = vec![MemoryFootprint {
            graph: "rmat".into(),
            csr_bytes: 1_000,
            compressed_bytes: 400,
            num_edges: 100,
        }];
        assert_eq!(rows[0].csr_bytes_per_edge(), 10.0);
        assert_eq!(rows[0].compressed_bytes_per_edge(), 4.0);
        assert_eq!(rows[0].ratio(), 2.5);
        let t = footprint_table(&rows);
        let csv = t.to_csv();
        assert!(csv.starts_with("graph,edges,csr_bytes"), "{csv}");
        assert!(csv.contains("rmat,100,1000,10.00,400,4.00,2.50"), "{csv}");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
