//! Rule family 2: lock discipline.
//!
//! (a) **Enforcement point** — raw lock primitives (`.lock()`, `.try_lock()`,
//!     `.unlock()`, `Mutex`/`RwLock`/`RawLock` types) may appear only in the
//!     manifest's `enforcement_files` (sync.rs and the poison-release path)
//!     or in a `[[locks.raw_allow]]` file. Everything else must go through
//!     the `NodeLock::*_traced` API.
//!
//! (b) **Lock-nesting graph** — the wrapper calls (`lock_succ`,
//!     `lock_tree`, `try_lock_tree`, `lock_tree_upward`, `lock_parent`, and
//!     their unlocks) in the manifest's `graph_files` are extracted per
//!     function and replayed through a linear held-set simulation against
//!     the paper's three lock-order rules:
//!
//! * **R1** succ locks are acquired before tree locks — a *blocking*
//!   succ acquisition while any tree lock is held is an error;
//! * **R2** succ locks nest only in ascending key order — a blocking
//!   succ acquisition while a succ lock is held must match a reviewed
//!   `[[locks.nested_succ]]` pin naming the (function, held, acquired)
//!   triple;
//! * **R3** tree locks are taken bottom-up — a blocking *plain*
//!   `lock_tree` while a tree lock is held is an error (descending
//!   acquisitions must use `try_lock_tree` + restart; upward ones must
//!   use `lock_tree_upward`/`lock_parent`, which lockdep rank-checks at
//!   runtime).
//!
//! The simulation is intra-procedural and *divergence-aware*: a brace block
//! whose own statement level contains `return`/`continue`/`break` (the
//! restart idiom: `if !try_lock { unlock everything; continue }`) is
//! simulated against a snapshot of the held-set and then discarded, so its
//! unlocks do not leak into the fall-through path. What it cannot see is a
//! lock held by a *caller* (e.g. `remove_pe` entering with the
//! predecessor's succ lock) — that remains the runtime lockdep ledger's
//! job. The value here is the converse: a *new* nesting in the write paths
//! fails review at compile time instead of depending on a test hitting the
//! interleaving.

use crate::findings::{fingerprint, Finding, LockEdge, Rule};
use crate::lexer::{SourceFile, TokKind, Token};
use crate::policy::Policy;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Succ,
    Tree,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Succ => "Succ",
            Class::Tree => "Tree",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Blocking,
    Try,
    Upward,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Blocking => "blocking",
            Mode::Try => "try",
            Mode::Upward => "upward",
        }
    }
}

pub fn check(
    files: &[SourceFile],
    policy: &Policy,
    out: &mut Vec<Finding>,
    graph: &mut Vec<LockEdge>,
) {
    raw_lock_ban(files, policy, out);
    nesting_graph(files, policy, out, graph);
}

// ---------------------------------------------------------------------------
// (a) raw-lock ban
// ---------------------------------------------------------------------------

fn raw_lock_ban(files: &[SourceFile], policy: &Policy, out: &mut Vec<Finding>) {
    // `lock_scopes` defaults to `[core_src]` (policy.rs), so manifests that
    // predate multi-scope coverage keep their exact file set.
    let prefixes: Vec<String> =
        policy.scope.lock_scopes.iter().map(|p| format!("{p}/")).collect();
    let mut allow_used = vec![false; policy.raw_lock_allows.len()];

    for f in files {
        if !prefixes.iter().any(|p| f.path.starts_with(p.as_str())) {
            continue;
        }
        if policy.scope.enforcement_files.contains(&f.path) {
            continue;
        }
        let allow_idx = policy.raw_lock_allows.iter().position(|a| a.file == f.path);
        let toks = &f.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || f.in_test_code(t.line) {
                continue;
            }
            let raw_call = matches!(t.text.as_str(), "lock" | "try_lock" | "unlock")
                && i > 0
                && toks[i - 1].is_punct('.')
                && i + 1 < toks.len()
                && toks[i + 1].is_punct('(');
            let raw_type = matches!(t.text.as_str(), "Mutex" | "RwLock" | "RawLock")
                && (i == 0 || !toks[i - 1].is_punct('.'));
            if !(raw_call || raw_type) {
                continue;
            }
            if let Some(k) = allow_idx {
                allow_used[k] = true;
                continue;
            }
            out.push(Finding::new(
                Rule::RawLock,
                &f.path,
                t.line,
                fingerprint(&["raw-lock", &t.text, f.line(t.line).trim()]),
                format!(
                    "raw lock primitive `{}` outside the sync.rs enforcement point; node \
                     locks must go through `NodeLock::{{lock,try_lock,unlock}}_traced` (or add \
                     a reviewed [[locks.raw_allow]] entry)",
                    t.text
                ),
            ));
        }
    }

    for (k, used) in allow_used.iter().enumerate() {
        if !used {
            let a = &policy.raw_lock_allows[k];
            out.push(Finding::new(
                Rule::Manifest,
                "ordering_policy.toml",
                0,
                fingerprint(&["stale-raw-lock-allow", &a.file]),
                format!("stale [[locks.raw_allow]]: {} uses no raw lock primitives", a.file),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// (b) nesting graph
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Held {
    class: Class,
    recv: String,
}

#[derive(Debug)]
struct Acq {
    class: Class,
    mode: Mode,
    unlock: bool,
}

fn classify(name: &str) -> Option<Acq> {
    let (class, mode, unlock) = match name {
        "lock_succ" => (Class::Succ, Mode::Blocking, false),
        "try_lock_succ" => (Class::Succ, Mode::Try, false),
        "unlock_succ" => (Class::Succ, Mode::Blocking, true),
        "lock_tree" => (Class::Tree, Mode::Blocking, false),
        "lock_tree_upward" => (Class::Tree, Mode::Upward, false),
        "try_lock_tree" => (Class::Tree, Mode::Try, false),
        "unlock_tree" => (Class::Tree, Mode::Blocking, true),
        _ => return None,
    };
    Some(Acq { class, mode, unlock })
}

/// `(name, body_start_token, body_end_token)` for every `fn` in the file.
/// Shared with the recovery rule, which looks gate methods up by name.
pub(crate) fn fn_spans(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
        {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() {
                if toks[j].is_punct(';') {
                    break; // bodyless declaration
                }
                if toks[j].is_punct('{') {
                    let start = j;
                    let mut depth = 1i32;
                    j += 1;
                    while j < toks.len() && depth > 0 {
                        if toks[j].is_punct('{') {
                            depth += 1;
                        } else if toks[j].is_punct('}') {
                            depth -= 1;
                        }
                        j += 1;
                    }
                    spans.push((name.clone(), start, j));
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    spans
}

/// Receiver of a method call: the tokens before the `.` at `dot`.
/// Handles `ident.`, `a.b.`, `nref(x).`, `nref(*x).`, `nref(a.b).`.
fn receiver(toks: &[Token], dot: usize) -> String {
    if dot == 0 {
        return format!("?@{}", toks[dot].line);
    }
    let prev = dot - 1;
    if toks[prev].is_punct(')') {
        // Walk back to the matching '(' and join what's inside.
        let mut depth = 1i32;
        let mut k = prev;
        while k > 0 && depth > 0 {
            k -= 1;
            if toks[k].is_punct(')') {
                depth += 1;
            } else if toks[k].is_punct('(') {
                depth -= 1;
            }
        }
        let inner: Vec<&str> = toks[k + 1..prev]
            .iter()
            .filter(|t| t.kind == TokKind::Ident || t.is_punct('.'))
            .map(|t| t.text.as_str())
            .collect();
        if inner.is_empty() {
            return format!("?@{}", toks[dot].line);
        }
        return inner.concat();
    }
    if toks[prev].kind == TokKind::Ident {
        // Compose one level of field access: `a.b`.
        if prev >= 2 && toks[prev - 1].is_punct('.') && toks[prev - 2].kind == TokKind::Ident {
            return format!("{}.{}", toks[prev - 2].text, toks[prev].text);
        }
        return toks[prev].text.clone();
    }
    format!("?@{}", toks[dot].line)
}

/// Assignment target for a `… = self.lock_parent(…)` call whose `self` token
/// is at `self_idx`: scans back within the statement for `<ident> =`.
fn assign_target(toks: &[Token], self_idx: usize) -> Option<String> {
    let mut k = self_idx;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_punct('=') {
            // `let name =` / `name =` / `let mut name =`
            if k > 0 && toks[k - 1].kind == TokKind::Ident {
                return Some(toks[k - 1].text.clone());
            }
            return None;
        }
    }
    None
}

fn nesting_graph(
    files: &[SourceFile],
    policy: &Policy,
    out: &mut Vec<Finding>,
    graph: &mut Vec<LockEdge>,
) {
    let mut pin_used = vec![false; policy.nested_succ.len()];

    for f in files {
        if !policy.scope.graph_files.contains(&f.path) {
            continue;
        }
        for (fn_name, start, end) in fn_spans(&f.tokens) {
            simulate_fn(f, &fn_name, start, end, policy, out, graph, &mut pin_used);
        }
    }

    for (k, used) in pin_used.iter().enumerate() {
        if !used {
            let p = &policy.nested_succ[k];
            out.push(Finding::new(
                Rule::Manifest,
                "ordering_policy.toml",
                0,
                fingerprint(&["stale-nested-succ", &p.file, &p.function]),
                format!(
                    "stale [[locks.nested_succ]]: no blocking succ-in-succ acquisition \
                     ({} while holding {}) remains in {}::{}",
                    p.acquired, p.held, p.file, p.function
                ),
            ));
        }
    }

    // Class-level cycle check over *blocking, unpinned* edges. Try and
    // upward acquisitions are deadlock-free by construction (try restarts,
    // upward is rank-checked); pinned succ-succ edges are ordered by key.
    let blocking: Vec<(&str, &str)> = graph
        .iter()
        .filter(|e| e.mode == "blocking")
        .map(|e| (e.held.as_str(), e.acquired.as_str()))
        .collect();
    for class in ["Succ", "Tree"] {
        if has_cycle(&blocking, class) {
            out.push(Finding::new(
                Rule::LockOrder,
                "lock-nesting-graph",
                0,
                fingerprint(&["cycle", class]),
                format!(
                    "the statically-extracted lock-nesting graph has a blocking cycle \
                     through class {class}; the paper's order (succ locks, ascending; then \
                     tree locks, bottom-up) admits no blocking cycle"
                ),
            ));
        }
    }
}

fn has_cycle(edges: &[(&str, &str)], start: &str) -> bool {
    // Tiny DFS: does `start` reach itself?
    let mut stack = vec![start];
    let mut seen = Vec::new();
    while let Some(n) = stack.pop() {
        for (h, a) in edges {
            if *h == n {
                if *a == start {
                    return true;
                }
                if !seen.contains(a) {
                    seen.push(*a);
                    stack.push(a);
                }
            }
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn simulate_fn(
    f: &SourceFile,
    fn_name: &str,
    start: usize,
    end: usize,
    policy: &Policy,
    out: &mut Vec<Finding>,
    graph: &mut Vec<LockEdge>,
    pin_used: &mut [bool],
) {
    let mut held: Vec<Held> = Vec::new();
    // `start` is the body's `{`, `end` one past its `}`.
    let inner_end = end.saturating_sub(1).min(f.tokens.len());
    let mut ctx = SimCtx { f, fn_name, policy };
    sim_range(&mut ctx, start + 1, inner_end, &mut held, out, graph, pin_used);
}

struct SimCtx<'a> {
    f: &'a SourceFile,
    fn_name: &'a str,
    policy: &'a Policy,
}

/// Index of the `}` matching the `{` at `open` (or `end` if unterminated).
fn matching_brace(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < end {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// Whether the block `[start, end)` has a `return`/`continue`/`break` at its
/// own statement level (not inside a nested block).
fn block_diverges(toks: &[Token], start: usize, end: usize) -> bool {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
        } else if depth == 0
            && matches!(toks[i].text.as_str(), "return" | "continue" | "break")
            && toks[i].kind == TokKind::Ident
        {
            return true;
        }
        i += 1;
    }
    false
}

fn sim_range(
    ctx: &mut SimCtx,
    start: usize,
    end: usize,
    held: &mut Vec<Held>,
    out: &mut Vec<Finding>,
    graph: &mut Vec<LockEdge>,
    pin_used: &mut [bool],
) {
    let toks = &ctx.f.tokens;
    let mut i = start;
    while i < end && i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            let close = matching_brace(toks, i, end);
            if block_diverges(toks, i + 1, close) {
                // Early-exit branch: findings inside still count, but its
                // unlocks/locks do not reach the fall-through path.
                let mut snapshot = held.clone();
                sim_range(ctx, i + 1, close, &mut snapshot, out, graph, pin_used);
            } else {
                sim_range(ctx, i + 1, close, held, out, graph, pin_used);
            }
            i = close + 1;
            continue;
        }
        // `… .lock_parent(` — an upward tree acquisition whose "receiver"
        // is the binding the parent is returned into.
        if t.is_ident("lock_parent")
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            let recv = if i >= 2 { assign_target(toks, i - 2) } else { None }
                .unwrap_or_else(|| format!("ret@{}", t.line));
            acquire(
                ctx.f, ctx.fn_name, t.line, Class::Tree, Mode::Upward, &recv, ctx.policy,
                held, out, graph, pin_used,
            );
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            if let Some(acq) = classify(&t.text) {
                let recv = receiver(toks, i - 1);
                if acq.unlock {
                    // Pop the most recent matching hold; unmatched unlocks
                    // (caller-held locks, aliased bindings) are ignored.
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.class == acq.class && h.recv == recv)
                    {
                        held.remove(pos);
                    } else if recv.starts_with("?@") {
                        // Unrecognized receiver spelling: assume it releases
                        // the most recent hold of that class.
                        if let Some(pos) = held.iter().rposition(|h| h.class == acq.class) {
                            held.remove(pos);
                        }
                    }
                } else {
                    acquire(
                        ctx.f, ctx.fn_name, t.line, acq.class, acq.mode, &recv, ctx.policy,
                        held, out, graph, pin_used,
                    );
                }
            }
        }
        i += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn acquire(
    f: &SourceFile,
    fn_name: &str,
    line: u32,
    class: Class,
    mode: Mode,
    recv: &str,
    policy: &Policy,
    held: &mut Vec<Held>,
    out: &mut Vec<Finding>,
    graph: &mut Vec<LockEdge>,
    pin_used: &mut [bool],
) {
    // A blocking succ-in-succ acquisition matching a reviewed
    // [[locks.nested_succ]] pin is the paper's sanctioned ascending-key
    // nesting (R2); resolve it before recording edges so the Succ→Succ edge
    // is tagged `pinned` and the blocking-cycle check does not count the
    // paper's own order as a deadlock.
    let in_test = f.in_test_code(line);
    let pin = if mode == Mode::Blocking && class == Class::Succ && !in_test {
        held.iter().find(|h| h.class == Class::Succ).and_then(|h| {
            policy.nested_succ.iter().position(|p| {
                p.file == f.path
                    && p.function == fn_name
                    && p.held == h.recv
                    && p.acquired == recv
            })
        })
    } else {
        None
    };
    if let Some(k) = pin {
        pin_used[k] = true;
    }

    // Record class-level edges for every lock currently held.
    for h in held.iter() {
        let mn = if pin.is_some() && h.class == Class::Succ && class == Class::Succ {
            "pinned"
        } else {
            mode.name()
        };
        let (hn, an) = (h.class.name(), class.name());
        if !graph
            .iter()
            .any(|e| e.held == hn && e.acquired == an && e.mode == mn)
        {
            graph.push(LockEdge {
                held: hn.to_string(),
                acquired: an.to_string(),
                mode: mn.to_string(),
                example: format!("{}:{}", f.path, line),
            });
        }
    }

    if mode == Mode::Blocking && !in_test {
        let tree_held = held.iter().any(|h| h.class == Class::Tree);
        match class {
            Class::Succ if tree_held => {
                out.push(Finding::new(
                    Rule::LockOrder,
                    &f.path,
                    line,
                    fingerprint(&["r1", fn_name, recv]),
                    format!(
                        "R1 violation in `{fn_name}`: blocking succ-lock acquisition on `{recv}` \
                         while a tree lock is held — the paper acquires all succ locks before \
                         any tree lock"
                    ),
                ));
            }
            Class::Succ => {
                if let Some(h) = held.iter().find(|h| h.class == Class::Succ) {
                    if pin.is_none() {
                        out.push(Finding::new(
                            Rule::LockOrder,
                            &f.path,
                            line,
                            fingerprint(&["r2", fn_name, &h.recv, recv]),
                            format!(
                                "R2: blocking succ-lock on `{recv}` while holding succ-lock \
                                 on `{}` in `{fn_name}` has no [[locks.nested_succ]] pin — \
                                 nested succ acquisitions are legal only in ascending key \
                                 order and each site must be pinned and reviewed",
                                h.recv
                            ),
                        ));
                    }
                }
            }
            Class::Tree if tree_held => {
                out.push(Finding::new(
                    Rule::LockOrder,
                    &f.path,
                    line,
                    fingerprint(&["r3", fn_name, recv]),
                    format!(
                        "R3 violation in `{fn_name}`: blocking `lock_tree` on `{recv}` while a \
                         tree lock is held — descending tree acquisitions must use \
                         `try_lock_tree` + restart, upward ones `lock_tree_upward`/`lock_parent`"
                    ),
                ));
            }
            Class::Tree => {}
        }
    }

    held.push(Held { class, recv: recv.to_string() });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_spans_and_receivers() {
        let f = lex(
            "t.rs",
            "fn a(x: u32) { nref(p).lock_succ(); }\nimpl T { fn b(&self) -> bool { self.x } }\n",
        );
        let spans = fn_spans(&f.tokens);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, "a");
        assert_eq!(spans[1].0, "b");
        let dot = f.tokens.iter().position(|t| t.is_punct('.')).unwrap();
        assert_eq!(receiver(&f.tokens, dot), "p");
    }

    #[test]
    fn raw_lock_ban_covers_extended_scopes() {
        use crate::minitoml;
        use crate::policy::Policy;
        let manifest = crate::policy::tests::MINIMAL.replace(
            "core_src = \"crates/core/src\"",
            "core_src = \"crates/core/src\"\n\
             lock_scopes = [\"crates/core/src\", \"crates/store/src\"]",
        );
        let manifest = format!(
            "{manifest}\n[[locks.raw_allow]]\nfile = \"crates/store/src/fc.rs\"\n\
             reason = \"combiner queues\"\n"
        );
        let policy = Policy::from_table(&minitoml::parse(&manifest).unwrap()).unwrap();
        let body = "fn f(m: &Mutex<u32>) { m.lock(); }";
        let in_scope = lex("crates/store/src/store.rs", body);
        let allowed = lex("crates/store/src/fc.rs", body);
        let outside = lex("crates/workload/src/runner.rs", body);
        let mut out = Vec::new();
        let mut graph = Vec::new();
        check(&[in_scope, allowed, outside], &policy, &mut out, &mut graph);
        let raw: Vec<_> = out.iter().filter(|f| f.rule == crate::findings::Rule::RawLock).collect();
        assert_eq!(raw.len(), 2, "Mutex type + .lock() call in the one in-scope file: {out:?}");
        assert!(raw.iter().all(|f| f.file == "crates/store/src/store.rs"));
    }

    #[test]
    fn raw_lock_ban_names_the_in_repo_lock() {
        use crate::minitoml;
        use crate::policy::Policy;
        let policy =
            Policy::from_table(&minitoml::parse(crate::policy::tests::MINIMAL).unwrap()).unwrap();
        let tree = lex("crates/core/src/tree.rs", "struct T { gate: RawLock }");
        let mut out = Vec::new();
        let mut graph = Vec::new();
        check(&[tree], &policy, &mut out, &mut graph);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, crate::findings::Rule::RawLock);
        assert!(out[0].message.contains("`RawLock`"), "{}", out[0].message);
    }

    #[test]
    fn receiver_shapes() {
        let f = lex("t.rs", "nref(*parent).unlock_tree(); zn.unlock_succ(); nref(locks.parent).unlock_tree();");
        let dots: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_punct('.')
                    && f.tokens.get(i + 1).is_some_and(|n| n.text.starts_with("unlock"))
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(receiver(&f.tokens, dots[0]), "parent");
        assert_eq!(receiver(&f.tokens, dots[1]), "zn");
        assert_eq!(receiver(&f.tokens, dots[2]), "locks.parent");
    }
}
