//! The real workspace must lint clean, and the manifest must stay in sync
//! with the node.rs per-field ordering table. CI enforces the same via
//! `lo-lint --deny`; these tests make plain `cargo test` catch a violation
//! (or a protocol-table drift) without the extra job.

use lo_lint::rules::docsync;
use lo_lint::{lexer, lint_root, minitoml, policy::Policy};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn real_workspace_is_clean() {
    let report = lint_root(&workspace_root()).expect("lint must run");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean; fix the finding or add a reviewed \
         manifest entry:\n{}",
        report.to_text()
    );
}

#[test]
fn manifest_matches_node_rs_ordering_table() {
    // Satellite of ISSUE 7: the doc-sync contract as a direct unit test —
    // parse the node.rs markdown table and diff it against the manifest's
    // [atomics.fields] tables, independent of the full lint pass.
    let root = workspace_root();
    let manifest = minitoml::parse_file(&root.join("ordering_policy.toml")).unwrap();
    let policy = Policy::from_table(&manifest).unwrap();

    let rel = "crates/core/src/node.rs";
    let node = lexer::lex_file(&root.join(rel), rel).expect("node.rs must lex");
    let doc = docsync::parse_doc_table(&node);
    assert!(!doc.is_empty(), "no ordering table found in node.rs module docs");

    let errs = docsync::diff(&doc, &policy.fields);
    assert!(
        errs.is_empty(),
        "ordering_policy.toml and the node.rs table drifted — change the \
         protocol in both, in one commit:\n  {}",
        errs.join("\n  ")
    );
}

#[test]
fn real_lock_graph_matches_the_paper() {
    // The extracted class-level nesting graph IS the paper's protocol:
    // succ-in-succ only via the reviewed pin, succ-before-tree blocking is
    // legal (R1's direction), tree-in-tree only via try or upward.
    let report = lint_root(&workspace_root()).expect("lint must run");
    for e in &report.lock_graph {
        match (e.held.as_str(), e.acquired.as_str()) {
            ("Succ", "Succ") => assert!(
                e.mode == "pinned" || e.mode == "try",
                "unsanctioned succ-in-succ edge: {e:?}"
            ),
            ("Tree", "Tree") => assert!(
                e.mode == "try" || e.mode == "upward",
                "blocking tree-in-tree edge: {e:?}"
            ),
            ("Succ", "Tree") => {}
            other => panic!("unexpected edge {other:?} ({e:?})"),
        }
    }
}
