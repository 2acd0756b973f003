//! Golden tests over the seeded-violation fixture workspace
//! (`tests/fixtures/ws`): every rule family must fire exactly the findings
//! pinned in `golden.json`, and the baseline machinery must suppress by
//! fingerprint and report stale entries.
//!
//! To update the golden after an intentional analyzer change: review the
//! printed diff, then re-run
//! `cargo run -p lo-lint -- --root crates/lint/tests/fixtures/ws --format json --out crates/lint/tests/fixtures/ws/golden.json`.

use lo_lint::{run_lint, Config};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn lint_fixture(baseline: Option<PathBuf>) -> lo_lint::findings::Report {
    run_lint(&Config { root: fixture_root(), manifest: None, baseline })
        .expect("fixture lint must not fail operationally")
}

#[test]
fn seeded_fixture_matches_golden_json() {
    let got = lint_fixture(None).to_json();
    let golden = fixture_root().join("golden.json");
    let want = std::fs::read_to_string(&golden).expect("golden.json must exist");
    if got != want {
        eprintln!("--- got ---\n{got}\n--- want ({}) ---\n{want}", golden.display());
        panic!("fixture findings drifted from golden.json (see diff above)");
    }
}

#[test]
fn every_rule_family_fires_on_the_fixture() {
    let report = lint_fixture(None);
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule.name()).collect();
    rules.sort_unstable();
    rules.dedup();
    for family in [
        "atomic-policy",
        "seqcst",
        "raw-lock",
        "lock-order",
        "unsafe-hygiene",
        "coverage",
        "manifest",
    ] {
        assert!(rules.contains(&family), "family `{family}` produced no finding: {rules:?}");
    }
}

#[test]
fn negative_sites_stay_clean() {
    // The fixture's sanctioned sites must NOT be flagged: the pinned
    // succ-in-succ nesting (`remove_ok`), the restart idiom (`restart_ok`),
    // the allowlisted SeqCst file, and the allowlisted raw-lock file.
    let report = lint_fixture(None);
    for f in &report.findings {
        assert!(
            !f.message.contains("remove_ok") && !f.message.contains("restart_ok"),
            "sanctioned site flagged: {}",
            f.message
        );
        assert!(f.file != "src/sc_ok.rs" && f.file != "src/arena_ok.rs", "{}", f.file);
    }
    // And the pinned edge must appear in the exported graph as `pinned`.
    assert!(
        report
            .lock_graph
            .iter()
            .any(|e| e.held == "Succ" && e.acquired == "Succ" && e.mode == "pinned"),
        "pinned succ-in-succ edge missing from the lock graph: {:?}",
        report.lock_graph
    );
}

#[test]
fn baseline_suppresses_by_fingerprint_and_reports_stale() {
    let plain = lint_fixture(None);
    let with_baseline = lint_fixture(Some(fixture_root().join("baseline_partial.toml")));

    assert_eq!(with_baseline.suppressed, 2, "both raw-lock entries must match");
    assert_eq!(
        with_baseline.findings.len(),
        plain.findings.len() - 2,
        "exactly the two suppressed findings must disappear"
    );
    assert!(
        with_baseline.findings.iter().all(|f| f.rule.name() != "raw-lock"),
        "no raw-lock finding may survive the baseline"
    );
    assert_eq!(with_baseline.stale_baseline.len(), 1, "{:?}", with_baseline.stale_baseline);
    assert!(with_baseline.stale_baseline[0].contains("never_existed"));
}

#[test]
fn golden_json_is_deterministic() {
    assert_eq!(lint_fixture(None).to_json(), lint_fixture(None).to_json());
}
