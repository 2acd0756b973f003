//! Rule family 7: the online-recovery gate discipline (manifest
//! `[recovery]`).
//!
//! Online recovery (DESIGN.md §18) hangs off a single writer gate word
//! holding the tree state: a writer pinned in the tree's epoch domain
//! `enter`s it with one load, a dying writer poisons it, and recovery
//! walks it through `begin_recovery`/`finish_recovery`, draining the
//! writers already past it with one epoch grace period. The quarantine
//! argument — "no writer is inside the tree while repair rewrites layout
//! links" — is only as strong as the claim that *nothing else* moves the
//! gate or admits a writer past it. This rule proves two source-level
//! facts:
//!
//! 1. **Gate transitions are confined.** Calls to the gate methods that
//!    change its state or admit a writer (`[recovery].methods`) appear in
//!    the core tree only inside the registered files (`[recovery].files`,
//!    the poison/recover modules). A `gate.poison(...)` from, say, a
//!    balance helper would be an unreviewed transition the recovery
//!    protocol never sees.
//! 2. **Entry points cite their invariants.** Each file in
//!    `[recovery].entry_points` must cite every `[recovery].entry_tags`
//!    invariant as `[inv:<tag>]` in a comment — the same registered tags
//!    the unsafe-hygiene rule ties to DESIGN.md. Losing the citation means
//!    the quarantine/chain-truth/publish reasoning was edited away.
//!
//! Manifests without a `[recovery]` table (workspaces predating online
//! recovery, fixture manifests for other rules) leave the rule inert.

use super::locks::fn_spans;
use crate::findings::{fingerprint, Finding, Rule};
use crate::lexer::{SourceFile, TokKind};
use crate::policy::{Policy, RecoveryPolicy};

pub fn check(files: &[SourceFile], policy: &Policy, out: &mut Vec<Finding>) {
    let Some(rp) = &policy.recovery else { return };
    check_inner(files, rp, &policy.scope.core_src, out);
}

fn check_inner(files: &[SourceFile], rp: &RecoveryPolicy, core_src: &str, out: &mut Vec<Finding>) {
    gate_confined(files, rp, core_src, out);
    methods_exist(files, rp, out);
    entry_tags_cited(files, rp, out);
}

/// Fact 1: `{gate}.{method}(` in the core tree only inside the registered
/// files. Matches both field access (`self.gate.poison(`) and a local or
/// parameter binding (`gate.enter(`): the token window is anchored on the
/// gate identifier itself.
fn gate_confined(files: &[SourceFile], rp: &RecoveryPolicy, core_src: &str, out: &mut Vec<Finding>) {
    let core_prefix = format!("{core_src}/");
    for f in files {
        if !f.path.starts_with(&core_prefix) || rp.files.contains(&f.path) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            // Pattern: gate `.` method `(`
            if !toks[i].is_ident(&rp.gate) || i + 3 >= toks.len() {
                continue;
            }
            let (dot, method_t, paren) = (&toks[i + 1], &toks[i + 2], &toks[i + 3]);
            if !dot.is_punct('.')
                || method_t.kind != TokKind::Ident
                || !rp.methods.iter().any(|m| method_t.is_ident(m))
                || !paren.is_punct('(')
            {
                continue;
            }
            let line = method_t.line;
            if f.in_test_code(line) {
                continue;
            }
            out.push(Finding::new(
                Rule::Recovery,
                &f.path,
                line,
                fingerprint(&["recovery-gate-escape", &rp.gate, &method_t.text]),
                format!(
                    "`{}.{}()` is a writer-gate transition outside the registered \
                     recovery files; quarantine soundness (DESIGN.md §18) requires every \
                     gate transition to go through them",
                    rp.gate, method_t.text
                ),
            ));
        }
    }
}

/// Every registered state-changing method must still be defined in one of
/// the registered files — a renamed method would silently hollow the rule.
fn methods_exist(files: &[SourceFile], rp: &RecoveryPolicy, out: &mut Vec<Finding>) {
    for method in &rp.methods {
        let found = files.iter().any(|f| {
            rp.files.contains(&f.path)
                && fn_spans(&f.tokens).iter().any(|(name, _, _)| name == method)
        });
        if !found {
            out.push(Finding::new(
                Rule::Manifest,
                "ordering_policy.toml",
                0,
                fingerprint(&["missing-recovery-method", method]),
                format!(
                    "[recovery] method `{method}` is not defined in any registered recovery \
                     file; the manifest is stale or the gate API was renamed without review"
                ),
            ));
        }
    }
}

/// Fact 2: each entry-point file cites every registered recovery invariant
/// tag in a comment.
fn entry_tags_cited(files: &[SourceFile], rp: &RecoveryPolicy, out: &mut Vec<Finding>) {
    for entry in &rp.entry_points {
        let Some(f) = files.iter().find(|f| &f.path == entry) else {
            out.push(Finding::new(
                Rule::Manifest,
                "ordering_policy.toml",
                0,
                fingerprint(&["stale-recovery-entry", entry]),
                format!("stale [recovery] entry_points: file {entry} not found in the scanned set"),
            ));
            continue;
        };
        for tag in &rp.entry_tags {
            let needle = format!("[inv:{tag}]");
            if !f.comments.iter().any(|(_, c)| c.contains(&needle)) {
                out.push(Finding::new(
                    Rule::Recovery,
                    &f.path,
                    0,
                    fingerprint(&["missing-recovery-tag", tag]),
                    format!(
                        "recovery entry point no longer cites `{needle}`; the invariant's \
                         proof obligation (DESIGN.md §16.2) must stay anchored in the code \
                         that discharges it"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rp() -> RecoveryPolicy {
        RecoveryPolicy {
            gate: "gate".into(),
            methods: vec!["enter".into(), "poison".into(), "begin_recovery".into()],
            files: vec!["core/src/poison.rs".into(), "core/src/recover.rs".into()],
            entry_points: vec!["core/src/recover.rs".into()],
            entry_tags: vec!["recovery-quarantine".into()],
        }
    }

    fn run(files: &[SourceFile]) -> Vec<Finding> {
        let mut out = Vec::new();
        check_inner(files, &rp(), "core/src", &mut out);
        out
    }

    const RECOVER_OK: &str = "// Drain: [inv:recovery-quarantine] holds here.\n\
         pub fn begin_recovery(&self) { self.gate.begin_recovery(0); }\n\
         pub fn enter(&self) {}\npub fn poison(&self) {}";

    #[test]
    fn clean_workspace_has_no_findings() {
        let files = [
            lex("core/src/recover.rs", RECOVER_OK),
            lex("core/src/update.rs", "fn write(&self) { let e = self.gate.error(); }"),
        ];
        let out = run(&files);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn gate_state_change_outside_registered_files_is_flagged() {
        let files = [
            lex("core/src/recover.rs", RECOVER_OK),
            lex("core/src/balance.rs", "fn rotate(&self) { self.gate.poison(1); }"),
        ];
        let out = run(&files);
        assert!(
            out.iter().any(|f| f.rule == Rule::Recovery
                && f.fingerprint.starts_with("recovery-gate-escape")
                && f.file == "core/src/balance.rs"),
            "{out:?}"
        );
    }

    #[test]
    fn test_code_may_poison_the_gate() {
        let files = [
            lex("core/src/recover.rs", RECOVER_OK),
            lex(
                "core/src/maps.rs",
                "#[cfg(test)]\nmod tests {\n    fn kill(t: &T) { t.gate.poison(3); }\n}\n",
            ),
        ];
        let out = run(&files);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn read_only_gate_calls_are_free() {
        let files = [
            lex("core/src/recover.rs", RECOVER_OK),
            lex(
                "core/src/tree.rs",
                "fn health(&self) { let _ = self.gate.error(); let _ = self.gate.state(); }",
            ),
        ];
        let out = run(&files);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_entry_tag_is_flagged() {
        let files = [lex(
            "core/src/recover.rs",
            "// recovery, but the quarantine citation is gone\n\
             pub fn begin_recovery(&self) {}\npub fn enter(&self) {}\npub fn poison(&self) {}",
        )];
        let out = run(&files);
        assert!(
            out.iter().any(|f| f.rule == Rule::Recovery
                && f.fingerprint.starts_with("missing-recovery-tag")),
            "{out:?}"
        );
    }

    #[test]
    fn missing_entry_file_is_a_manifest_finding() {
        let files = [lex("core/src/poison.rs", "pub fn enter(&self) {}\npub fn poison(&self) {}\npub fn begin_recovery(&self) {}")];
        let out = run(&files);
        assert!(
            out.iter().any(|f| f.rule == Rule::Manifest
                && f.fingerprint.starts_with("stale-recovery-entry")),
            "{out:?}"
        );
    }

    #[test]
    fn renamed_gate_method_is_a_manifest_finding() {
        let files = [lex(
            "core/src/recover.rs",
            "// [inv:recovery-quarantine]\npub fn enter(&self) {}\npub fn poison(&self) {}",
        )];
        let out = run(&files);
        assert!(
            out.iter().any(|f| f.rule == Rule::Manifest
                && f.fingerprint.starts_with("missing-recovery-method")
                && f.message.contains("begin_recovery")),
            "{out:?}"
        );
    }
}
