//! Fixed-width table / CSV output for the reproduction binaries.
//!
//! Each panel of the paper's Tables 1 and 2 is throughput (Mops/s) vs.
//! thread count for one (mix, key-range) pair; a [`Panel`] renders exactly
//! that: one row per thread count, one column per algorithm.

use crate::stats::Summary;
use lo_metrics::Snapshot;

/// Quotes a CSV field when needed (RFC 4180): fields containing commas,
/// double quotes or newlines are wrapped in quotes with embedded quotes
/// doubled. Panel titles like `70c-20i-10r, key range 2e5` contain commas,
/// so emitting them bare would shift every subsequent column.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Human-scaled nanosecond formatting for latency tables and phase tables.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One table panel: algorithms × thread counts.
pub struct Panel {
    /// Title, e.g. `70c-20i-10r, key range 2e5`.
    pub title: String,
    /// Column headers (algorithm labels).
    pub algorithms: Vec<String>,
    /// Row labels (thread counts).
    pub threads: Vec<usize>,
    /// `cells[row][col]` = throughput summary for (`threads[row]`, `algorithms[col]`).
    pub cells: Vec<Vec<Summary>>,
}

impl Panel {
    /// Creates an empty panel; fill with [`Panel::set`].
    pub fn new(title: impl Into<String>, algorithms: Vec<String>, threads: Vec<usize>) -> Self {
        let cells =
            vec![vec![Summary { mean: 0.0, stddev: 0.0, n: 0 }; algorithms.len()]; threads.len()];
        Self { title: title.into(), algorithms, threads, cells }
    }

    /// Stores a measurement.
    pub fn set(&mut self, thread_row: usize, algo_col: usize, s: Summary) {
        self.cells[thread_row][algo_col] = s;
    }

    /// Renders a human-readable fixed-width table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n", self.title));
        out.push_str(&format!("{:>8}", "threads"));
        for a in &self.algorithms {
            out.push_str(&format!("{a:>16}"));
        }
        out.push('\n');
        for (r, t) in self.threads.iter().enumerate() {
            out.push_str(&format!("{t:>8}"));
            for c in 0..self.algorithms.len() {
                let s = self.cells[r][c];
                if s.n == 0 {
                    out.push_str(&format!("{:>16}", "-"));
                } else {
                    out.push_str(&format!("{:>16}", format!("{s}")));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders machine-readable CSV (`title,threads,algorithm,mean,stddev,n`).
    /// Free-text fields (panel title, algorithm label) are RFC 4180-quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("panel,threads,algorithm,mops_mean,mops_stddev,reps\n");
        for (r, t) in self.threads.iter().enumerate() {
            for (c, a) in self.algorithms.iter().enumerate() {
                let s = self.cells[r][c];
                out.push_str(&format!(
                    "{},{},{},{:.6},{:.6},{}\n",
                    csv_field(&self.title),
                    t,
                    csv_field(a),
                    s.mean,
                    s.stddev,
                    s.n
                ));
            }
        }
        out
    }
}

/// Event telemetry for one (algorithm, thread-count) cell: the counter
/// snapshot summed over every measured repetition, plus the matching op
/// total so per-op rates are well-defined.
#[derive(Clone, Debug)]
pub struct MetricsEntry {
    /// Algorithm label (matches the throughput panel's column header).
    pub algorithm: String,
    /// Thread count of the trials aggregated here.
    pub threads: usize,
    /// Operations completed across the aggregated repetitions.
    pub total_ops: u64,
    /// Event counters summed across the aggregated repetitions.
    pub events: Snapshot,
}

/// Companion to [`Panel`]: per-cell event telemetry for one workload panel.
/// Renders as text (nonzero events per op), CSV and JSON.
pub struct MetricsPanel {
    /// Title; mirrors the throughput panel it accompanies.
    pub title: String,
    /// One entry per measured (algorithm, thread-count) cell.
    pub entries: Vec<MetricsEntry>,
}

impl MetricsPanel {
    /// Creates an empty telemetry panel.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), entries: Vec::new() }
    }

    /// Appends one cell's aggregated telemetry.
    pub fn push(&mut self, entry: MetricsEntry) {
        self.entries.push(entry);
    }

    /// Human-readable rendering: for each cell, every *nonzero* counter as
    /// an events-per-op rate (raw count in parentheses).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — event telemetry\n", self.title));
        if self.entries.iter().all(|e| e.events.is_zero()) {
            out.push_str(
                "(all counters zero — build with `--features metrics` to record events)\n",
            );
            return out;
        }
        for e in &self.entries {
            out.push_str(&format!(
                "{} @ {} threads ({} ops):\n",
                e.algorithm, e.threads, e.total_ops
            ));
            for (ev, n) in e.events.nonzero() {
                out.push_str(&format!(
                    "  {:<24} {:>12.6} /op  ({n})\n",
                    ev.name(),
                    e.events.per_op(ev, e.total_ops)
                ));
            }
        }
        out
    }

    /// Machine-readable CSV: one row per (cell, event), nonzero events only
    /// (`panel,threads,algorithm,event,count,per_op`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("panel,threads,algorithm,event,count,per_op\n");
        for e in &self.entries {
            for (ev, n) in e.events.nonzero() {
                out.push_str(&format!(
                    "{},{},{},{},{},{:.9}\n",
                    csv_field(&self.title),
                    e.threads,
                    csv_field(&e.algorithm),
                    ev.name(),
                    n,
                    e.events.per_op(ev, e.total_ops)
                ));
            }
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; counters and labels only contain
    /// characters that need no escaping beyond quotes/backslashes).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str(&format!("{{\"panel\":\"{}\",\"cells\":[", esc(&self.title)));
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"algorithm\":\"{}\",\"threads\":{},\"total_ops\":{},\"events\":{{",
                esc(&e.algorithm),
                e.threads,
                e.total_ops
            ));
            for (j, (ev, n)) in e.events.nonzero().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{n}", ev.name()));
            }
            out.push('}');
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_panel() -> Panel {
        let mut p = Panel::new(
            "test-panel",
            vec!["lo-avl".into(), "bcco".into()],
            vec![1, 2, 4],
        );
        p.set(0, 0, Summary { mean: 1.5, stddev: 0.1, n: 3 });
        p.set(2, 1, Summary { mean: 4.25, stddev: 0.2, n: 3 });
        p
    }

    #[test]
    fn render_contains_all_rows() {
        let text = sample_panel().render();
        assert!(text.contains("test-panel"));
        assert!(text.contains("lo-avl"));
        assert!(text.contains("1.500"));
        assert!(text.contains("4.250"));
        // Unfilled cells render as '-'.
        assert!(text.contains('-'));
        assert_eq!(text.lines().count(), 2 + 3);
    }

    #[test]
    fn csv_shape() {
        let csv = sample_panel().to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3 * 2);
        assert!(lines[0].starts_with("panel,threads"));
        assert!(lines[1].starts_with("test-panel,1,lo-avl,1.5"));
    }

    /// Regression test: real panel titles contain commas
    /// (`70c-20i-10r, key range 2e5`), which used to be emitted bare and
    /// shifted every subsequent CSV column.
    #[test]
    fn csv_quotes_comma_titles() {
        let mut p = Panel::new(
            "70c-20i-10r, key range 2e5",
            vec!["lo-avl".into()],
            vec![1],
        );
        p.set(0, 0, Summary { mean: 1.0, stddev: 0.0, n: 1 });
        let csv = p.to_csv();
        let row = csv.lines().nth(1).expect("one data row");
        assert!(
            row.starts_with("\"70c-20i-10r, key range 2e5\",1,lo-avl,"),
            "comma title must be quoted: {row}"
        );
        // Every data row still parses to the header's column count when
        // splitting outside quotes.
        let header_cols = csv.lines().next().unwrap().split(',').count();
        let mut cols = 0;
        let mut in_quotes = false;
        for ch in row.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols + 1, header_cols, "quoted row has wrong column count");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(100), "100ns");
        assert_eq!(fmt_ns(16_400), "16.4µs");
        assert_eq!(fmt_ns(10_000_000_000), "10000.0ms");
    }

    #[test]
    fn csv_field_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    fn sample_metrics_panel(events: Snapshot) -> MetricsPanel {
        let mut mp = MetricsPanel::new("mix, range 1e3");
        mp.push(MetricsEntry {
            algorithm: "lo-avl".into(),
            threads: 4,
            total_ops: 1_000,
            events,
        });
        mp
    }

    #[test]
    fn metrics_panel_zero_renders_hint() {
        let text = sample_metrics_panel(Snapshot::zero()).render();
        assert!(text.contains("event telemetry"));
        assert!(text.contains("--features metrics"));
        // No data rows in CSV beyond the header; JSON still well-formed.
        let mp = sample_metrics_panel(Snapshot::zero());
        assert_eq!(mp.to_csv().lines().count(), 1);
        assert!(mp.to_json().ends_with("\"events\":{}}]}"));
    }

    #[test]
    fn metrics_panel_formats_nonzero_events() {
        // Nonzero counts only exist when the feature is on; record some and
        // take a snapshot, otherwise the all-zero rendering path is covered.
        let mut events = Snapshot::zero();
        if lo_metrics::ENABLED {
            lo_metrics::add(lo_metrics::Event::Rotation, 500);
            events = Snapshot::take();
        }
        let mp = sample_metrics_panel(events);
        let text = mp.render();
        let csv = mp.to_csv();
        let json = mp.to_json();
        assert!(csv.starts_with("panel,threads,algorithm,event,count,per_op\n"));
        assert!(json.starts_with("{\"panel\":\"mix, range 1e3\""));
        if lo_metrics::ENABLED {
            assert!(text.contains("rotation"));
            assert!(csv.contains("\"mix, range 1e3\",4,lo-avl,rotation,"));
            assert!(json.contains("\"rotation\":"));
        }
    }
}
