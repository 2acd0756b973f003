//! Golden tests over the seeded-violation fixture workspace
//! (`tests/fixtures/ws`): every rule family must fire exactly the findings
//! pinned in `golden.json`.
//!
//! To update the golden after an intentional analyzer change: review the
//! printed diff, then re-run
//! `cargo run -p lo-lint -- --root crates/lint/tests/fixtures/ws --format json --out crates/lint/tests/fixtures/ws/golden.json`.

use lo_lint::{run_lint, Config};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn lint_fixture() -> lo_lint::findings::Report {
    run_lint(&Config { root: fixture_root(), manifest: None })
        .expect("fixture lint must not fail operationally")
}

#[test]
fn seeded_fixture_matches_golden_json() {
    let got = lint_fixture().to_json();
    let golden = fixture_root().join("golden.json");
    let want = std::fs::read_to_string(&golden).expect("golden.json must exist");
    if got != want {
        eprintln!("--- got ---\n{got}\n--- want ({}) ---\n{want}", golden.display());
        panic!("fixture findings drifted from golden.json (see diff above)");
    }
}

#[test]
fn every_rule_family_fires_on_the_fixture() {
    let report = lint_fixture();
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
    let report = lint_fixture();
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
fn golden_json_is_deterministic() {
    assert_eq!(lint_fixture().to_json(), lint_fixture().to_json());
}
