//! Findings, reports, and the (dependency-free) JSON emitter.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which rule family produced a finding. The string forms are stable: they
/// key the JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Per-field atomic-ordering policy (manifest `[atomics]`).
    AtomicPolicy,
    /// Workspace-wide sequentially-consistent-ordering ban (manifest
    /// `[[seqcst.allow]]`). Named `…Ban` so lo-lint's own sources do not
    /// carry the banned identifier.
    SeqCstBan,
    /// Raw lock primitives outside the `sync.rs` enforcement point.
    RawLock,
    /// Lock-nesting graph vs the paper's three lock-order rules.
    LockOrder,
    /// `unsafe` blocks without a SAFETY comment naming a DESIGN.md invariant.
    UnsafeHygiene,
    /// Failpoint / span probe coverage of the write windows.
    Coverage,
    /// Online-recovery gate discipline (manifest `[recovery]`): the
    /// writer gate's admitting and state-changing methods stay confined to the
    /// poison/recover modules, and the recovery entry points cite the
    /// recovery invariants they uphold.
    Recovery,
    /// Manifest self-consistency (stale entries, bad schema).
    Manifest,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::AtomicPolicy => "atomic-policy",
            Rule::SeqCstBan => "seqcst",
            Rule::RawLock => "raw-lock",
            Rule::LockOrder => "lock-order",
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::Coverage => "coverage",
            Rule::Recovery => "recovery",
            Rule::Manifest => "manifest",
        }
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 = whole-file / whole-workspace finding).
    pub line: u32,
    /// Stable content fingerprint: independent of the line number, so it
    /// survives unrelated edits above the site.
    pub fingerprint: String,
    pub message: String,
}

impl Finding {
    pub fn new(
        rule: Rule,
        file: impl Into<String>,
        line: u32,
        fingerprint: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            fingerprint: fingerprint.into(),
            message: message.into(),
        }
    }
}

/// Full lint report: findings plus rule-derived facts worth exporting
/// (currently the lock-nesting graph).
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Class-level lock-nesting edges `held -> acquired` with an example
    /// site each, exported into the JSON for external tooling.
    pub lock_graph: Vec<LockEdge>,
    /// Files scanned, for the summary line.
    pub files_scanned: usize,
}

/// One edge of the statically-extracted lock-nesting graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock class held (`Succ` or `Tree`).
    pub held: String,
    /// Lock class acquired while holding `held`.
    pub acquired: String,
    /// `blocking`, `try`, `upward`, or `pinned` (a blocking succ-in-succ
    /// acquisition sanctioned by a `[[locks.nested_succ]]` pin).
    pub mode: String,
    /// Example site `file:line`.
    pub example: String,
}

impl Report {
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }

    /// Human-readable text rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.line == 0 {
                let _ = writeln!(out, "{}: [{}] {}", f.file, f.rule.name(), f.message);
            } else {
                let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
            }
        }
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *by_rule.entry(f.rule.name()).or_default() += 1;
        }
        let _ = writeln!(
            out,
            "lo-lint: {} finding(s) in {} file(s) scanned",
            self.findings.len(),
            self.files_scanned
        );
        for (rule, n) in by_rule {
            let _ = writeln!(out, "  {rule}: {n}");
        }
        out
    }

    /// Deterministic JSON rendering (sorted findings, no timestamps — the
    /// golden tests compare this byte-for-byte).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"fingerprint\": {}, \"message\": {}",
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                json_str(&f.fingerprint),
                json_str(&f.message)
            );
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"lock_graph\": [");
        for (i, e) in self.lock_graph.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"held\": {}, \"acquired\": {}, \"mode\": {}, \"example\": {}",
                json_str(&e.held),
                json_str(&e.acquired),
                json_str(&e.mode),
                json_str(&e.example)
            );
            out.push('}');
        }
        if !self.lock_graph.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(out, "],\n  \"files_scanned\": {}\n}}\n", self.files_scanned);
        out
    }
}

/// JSON string escape.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds a content fingerprint from the significant tokens of a site:
/// whitespace-insensitive, line-insensitive, stable across reformatting.
pub fn fingerprint(parts: &[&str]) -> String {
    parts.join(":")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let mut r = Report::default();
        r.push(Finding::new(Rule::SeqCstBan, "b.rs", 2, "fp2", "msg \"quoted\""));
        r.push(Finding::new(Rule::SeqCstBan, "a.rs", 9, "fp1", "plain"));
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        let j = r.to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"files_scanned\": 0"));
    }

    #[test]
    fn text_summary_counts_by_rule() {
        let mut r = Report::default();
        r.push(Finding::new(Rule::RawLock, "x.rs", 1, "f", "m"));
        r.push(Finding::new(Rule::RawLock, "x.rs", 2, "g", "m"));
        let t = r.to_text();
        assert!(t.contains("raw-lock: 2"), "{t}");
    }
}
