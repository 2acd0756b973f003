//! lo-lint: a workspace static analyzer that proves the logical-ordering
//! concurrency protocol at the source level.
//!
//! The paper's correctness argument rests on a fixed discipline — three
//! lock-order rules, a per-field atomic-ordering protocol, locks acquired
//! only through the sync.rs enforcement point — all of which the workspace
//! previously enforced *dynamically* (lockdep ledger, TSan, chaos runs).
//! lo-lint enforces the same discipline statically, from a checked-in
//! machine-readable manifest (`ordering_policy.toml`), so a violating edit
//! fails CI even when no test exercises the interleaving. See DESIGN.md §16
//! for the rule families and how lockdep/TSan/lo-lint divide the labor.
//!
//! The analyzer is deliberately dependency-free: a purpose-built token
//! scanner (`lexer`), a TOML-subset reader (`minitoml`), and six rule
//! families over token patterns. It is not a general Rust front-end — the
//! protocol it checks is local and syntactic by design (that is what makes
//! the discipline reviewable in the first place).

pub mod findings;
pub mod lexer;
pub mod minitoml;
pub mod policy;
pub mod rules;

use findings::{Finding, Report, Rule};
use policy::Policy;
use std::path::{Path, PathBuf};

/// Analyzer configuration (CLI flags map 1:1).
pub struct Config {
    /// Workspace root (the directory holding `ordering_policy.toml`).
    pub root: PathBuf,
    /// Manifest path (default `<root>/ordering_policy.toml`).
    pub manifest: Option<PathBuf>,
}

/// Directory names never scanned: build outputs, VCS, test-support trees
/// (unit tests inside sources are handled via `#[cfg(test)]` spans instead),
/// and lo-lint's own seeded-violation fixtures.
const SKIP_DIRS: [&str; 6] = ["target", ".git", "tests", "benches", "examples", "fixtures"];

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root/<sub>`, sorted for deterministic reports.
fn walk(root: &Path, sub: &str, out: &mut Vec<String>) {
    let dir = root.join(sub);
    let Ok(entries) = std::fs::read_dir(&dir) else { return };
    let mut names: Vec<_> = entries.flatten().map(|e| e.file_name()).collect();
    names.sort();
    for name in names {
        let Some(name) = name.to_str() else { continue };
        let rel = if sub.is_empty() { name.to_string() } else { format!("{sub}/{name}") };
        let path = root.join(&rel);
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(root, &rel, out);
            }
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// Runs the full lint pass. `Err` is an operational failure (unreadable
/// manifest, bad schema) as opposed to findings.
pub fn run_lint(cfg: &Config) -> Result<Report, String> {
    let manifest_path = cfg
        .manifest
        .clone()
        .unwrap_or_else(|| cfg.root.join("ordering_policy.toml"));
    let manifest = minitoml::parse_file(&manifest_path)?;
    let policy = Policy::from_table(&manifest)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;

    let mut rel_paths = Vec::new();
    for root in &policy.scope.workspace_roots {
        walk(&cfg.root, root, &mut rel_paths);
    }
    rel_paths.sort();
    rel_paths.dedup();

    let mut files = Vec::new();
    for rel in &rel_paths {
        if let Some(f) = lexer::lex_file(&cfg.root.join(rel), rel) {
            files.push(f);
        }
    }

    let design_doc = std::fs::read_to_string(cfg.root.join(&policy.scope.design_doc)).ok();

    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let mut found: Vec<Finding> = Vec::new();
    rules::atomics::check(&files, &policy, &mut found);
    rules::locks::check(&files, &policy, &mut found, &mut report.lock_graph);
    rules::unsafety::check(&files, &policy, design_doc.as_deref(), &mut found);
    rules::coverage::check(&files, &policy, &mut found);
    rules::docsync::check(&files, &policy, &mut found);
    rules::recovery::check(&files, &policy, &mut found);

    report.findings = found;
    report.sort();
    report.lock_graph.sort_by(|a, b| {
        (a.held.as_str(), a.acquired.as_str(), a.mode.as_str())
            .cmp(&(b.held.as_str(), b.acquired.as_str(), b.mode.as_str()))
    });
    Ok(report)
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing `ordering_policy.toml` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("ordering_policy.toml").is_file() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether the report contains real findings (manifest staleness included —
/// a lying manifest is a finding, not a warning).
pub fn is_dirty(report: &Report) -> bool {
    !report.findings.is_empty()
}

/// Convenience for tests: lint `root` with the default manifest path.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    run_lint(&Config { root: root.to_path_buf(), manifest: None })
}

// Re-export for fixture tests.
pub use findings::Rule as LintRule;

/// Stable mapping from rule name to enum, for golden tests.
pub fn rule_by_name(name: &str) -> Option<Rule> {
    [
        Rule::AtomicPolicy,
        Rule::SeqCstBan,
        Rule::RawLock,
        Rule::LockOrder,
        Rule::UnsafeHygiene,
        Rule::Coverage,
        Rule::Recovery,
        Rule::Manifest,
    ]
    .into_iter()
    .find(|r| r.name() == name)
}
