//! Typed view of `ordering_policy.toml` — the checked-in machine-readable
//! protocol manifest that the rules enforce and the doc-sync test pins
//! against the node.rs per-field table.

use crate::minitoml::Table;
use std::collections::BTreeMap;

/// Allowed orderings for one protected field, mirroring the three columns
/// of the node.rs table plus the RMW column implied by `value`.
#[derive(Debug, Clone, Default)]
pub struct FieldPolicy {
    /// Allowed orderings for `store`.
    pub store: Vec<String>,
    /// Allowed orderings for lock-free loads.
    pub load_lockfree: Vec<String>,
    /// Allowed orderings for loads under the guarding lock.
    pub load_locked: Vec<String>,
    /// Allowed orderings for `swap`/`compare_exchange`/`fetch_*`.
    pub rmw: Vec<String>,
}

impl FieldPolicy {
    /// The static checker cannot tell a locked load from a lock-free one,
    /// so a `load` is accepted with any ordering from either column.
    pub fn load_union(&self) -> Vec<String> {
        let mut v = self.load_lockfree.clone();
        for o in &self.load_locked {
            if !v.contains(o) {
                v.push(o.clone());
            }
        }
        v
    }
}

/// A `[[atomics.allow]]` site exemption.
#[derive(Debug, Clone)]
pub struct AtomicAllow {
    pub file: String,
    pub field: String,
    pub op: String,
    pub ordering: String,
    pub reason: String,
}

/// A `[[seqcst.allow]]` file exemption.
#[derive(Debug, Clone)]
pub struct SeqCstAllow {
    pub file: String,
    pub reason: String,
}

/// A `[[locks.raw_allow]]` file exemption from the raw-lock ban.
#[derive(Debug, Clone)]
pub struct RawLockAllow {
    pub file: String,
    pub reason: String,
}

/// A `[[locks.nested_succ]]` pin: the one place a blocking succ-lock may be
/// taken while another succ lock is held (R2 ascending order).
#[derive(Debug, Clone)]
pub struct NestedSuccPin {
    pub file: String,
    pub function: String,
    pub held: String,
    pub acquired: String,
    pub reason: String,
}

/// The `[recovery]` table: the online-recovery gate discipline. The
/// writer gate is the single word recovery's quarantine correctness hangs
/// on, so its admitting and state-changing methods must stay confined to the
/// poison/recover modules, and the recovery entry points must cite the
/// recovery invariants they uphold. Absent from manifests that predate
/// online recovery — the rule is inert then.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// The gate field name (`gate`).
    pub gate: String,
    /// State-changing gate methods (enter/exit/poison/begin_recovery/
    /// finish_recovery) callable only from `files`.
    pub methods: Vec<String>,
    /// Files allowed to change gate state.
    pub files: Vec<String>,
    /// Files holding the recovery entry points; each must cite every tag
    /// in `entry_tags` in a comment.
    pub entry_points: Vec<String>,
    /// Registered invariant tags (sans the `inv:` prefix) the entry points
    /// must cite.
    pub entry_tags: Vec<String>,
}

/// A `[coverage.windows.<name>]` entry: one named write window.
#[derive(Debug, Clone)]
pub struct Window {
    pub name: String,
    /// File that must contain the `FailPoint::<variant>` use site.
    pub file: String,
    /// lo-metrics span `Phase` that instruments this window.
    pub trace_phase: String,
}

/// File-set and path configuration, overridable so fixture workspaces can
/// point the analyzer at miniature trees.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Directory whose sources the atomics + lock rules cover.
    pub core_src: String,
    /// Directories covered by the raw-lock ban. Defaults to `[core_src]`
    /// when the manifest omits the key, so pre-existing manifests keep
    /// their exact meaning; the grown workspace extends it to crates that
    /// host their own lock-bearing protocol code (the lo-store combiner).
    pub lock_scopes: Vec<String>,
    /// Roots scanned by workspace-wide rules (SeqCst ban, unsafe hygiene).
    pub workspace_roots: Vec<String>,
    /// Files allowed to use raw lock primitives (the enforcement point).
    pub enforcement_files: Vec<String>,
    /// Files whose lock-nesting graph is extracted.
    pub graph_files: Vec<String>,
    /// The failpoint catalog (declares `FailPoint::ALL`).
    pub fail_catalog: String,
    /// The lo-metrics span module (declares the `phases!` list).
    pub trace_lib: String,
    /// File holding the `wait_phase` LockClass→Phase map.
    pub wait_map_file: String,
    /// File holding the `hold_phase` LockClass→Phase map.
    pub hold_map_file: String,
    /// DESIGN.md (invariant-tag registry for unsafe hygiene).
    pub design_doc: String,
    /// The file whose module docs carry the per-field ordering table
    /// (doc-sync target).
    pub node_doc: String,
    /// Crate roots where SAFETY comments must carry an `[inv:…]` tag.
    pub tag_roots: Vec<String>,
}

/// The whole manifest.
#[derive(Debug)]
pub struct Policy {
    pub scope: Scope,
    pub fields: BTreeMap<String, FieldPolicy>,
    pub atomic_allows: Vec<AtomicAllow>,
    pub seqcst_allows: Vec<SeqCstAllow>,
    pub raw_lock_allows: Vec<RawLockAllow>,
    pub nested_succ: Vec<NestedSuccPin>,
    pub windows: Vec<Window>,
    /// Registered invariant tags (`[unsafe] tags = […]`).
    pub unsafe_tags: Vec<String>,
    /// Online-recovery gate discipline (`[recovery]`), when the manifest
    /// declares one.
    pub recovery: Option<RecoveryPolicy>,
}

fn strs(t: &Table, key: &str) -> Vec<String> {
    t.get_str_array(key).map(<[String]>::to_vec).unwrap_or_default()
}

fn req_str(t: &Table, key: &str, ctx: &str) -> Result<String, String> {
    t.get_str(key)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

impl Policy {
    /// Loads and validates a parsed manifest.
    pub fn from_table(t: &Table) -> Result<Policy, String> {
        let scope_t = t.table("scope").ok_or("missing [scope] table")?;
        let core_src = req_str(scope_t, "core_src", "[scope]")?;
        let mut lock_scopes = strs(scope_t, "lock_scopes");
        if lock_scopes.is_empty() {
            lock_scopes = vec![core_src.clone()];
        }
        let scope = Scope {
            core_src,
            lock_scopes,
            workspace_roots: strs(scope_t, "workspace_roots"),
            enforcement_files: strs(scope_t, "enforcement_files"),
            graph_files: strs(scope_t, "graph_files"),
            fail_catalog: req_str(scope_t, "fail_catalog", "[scope]")?,
            trace_lib: req_str(scope_t, "trace_lib", "[scope]")?,
            wait_map_file: req_str(scope_t, "wait_map_file", "[scope]")?,
            hold_map_file: req_str(scope_t, "hold_map_file", "[scope]")?,
            design_doc: req_str(scope_t, "design_doc", "[scope]")?,
            node_doc: req_str(scope_t, "node_doc", "[scope]")?,
            tag_roots: strs(scope_t, "tag_roots"),
        };
        if scope.workspace_roots.is_empty() {
            return Err("[scope] workspace_roots must not be empty".into());
        }

        let mut fields = BTreeMap::new();
        if let Some(ft) = t.table("atomics.fields") {
            for (name, sub) in &ft.children {
                fields.insert(
                    name.clone(),
                    FieldPolicy {
                        store: strs(sub, "store"),
                        load_lockfree: strs(sub, "load_lockfree"),
                        load_locked: strs(sub, "load_locked"),
                        rmw: strs(sub, "rmw"),
                    },
                );
            }
        }
        if fields.is_empty() {
            return Err("no [atomics.fields.*] tables in manifest".into());
        }

        let mut atomic_allows = Vec::new();
        for (i, a) in t.array("atomics.allow").iter().enumerate() {
            let ctx = format!("[[atomics.allow]] #{}", i + 1);
            atomic_allows.push(AtomicAllow {
                file: req_str(a, "file", &ctx)?,
                field: req_str(a, "field", &ctx)?,
                op: req_str(a, "op", &ctx)?,
                ordering: req_str(a, "ordering", &ctx)?,
                reason: req_str(a, "reason", &ctx)?,
            });
        }

        let mut seqcst_allows = Vec::new();
        for (i, a) in t.array("seqcst.allow").iter().enumerate() {
            let ctx = format!("[[seqcst.allow]] #{}", i + 1);
            seqcst_allows.push(SeqCstAllow {
                file: req_str(a, "file", &ctx)?,
                reason: req_str(a, "reason", &ctx)?,
            });
        }

        let mut raw_lock_allows = Vec::new();
        for (i, a) in t.array("locks.raw_allow").iter().enumerate() {
            let ctx = format!("[[locks.raw_allow]] #{}", i + 1);
            raw_lock_allows.push(RawLockAllow {
                file: req_str(a, "file", &ctx)?,
                reason: req_str(a, "reason", &ctx)?,
            });
        }

        let mut nested_succ = Vec::new();
        for (i, a) in t.array("locks.nested_succ").iter().enumerate() {
            let ctx = format!("[[locks.nested_succ]] #{}", i + 1);
            nested_succ.push(NestedSuccPin {
                file: req_str(a, "file", &ctx)?,
                function: req_str(a, "function", &ctx)?,
                held: req_str(a, "held", &ctx)?,
                acquired: req_str(a, "acquired", &ctx)?,
                reason: req_str(a, "reason", &ctx)?,
            });
        }

        let mut windows = Vec::new();
        if let Some(wt) = t.table("coverage.windows") {
            for (name, sub) in &wt.children {
                let ctx = format!("[coverage.windows.{name}]");
                windows.push(Window {
                    name: name.clone(),
                    file: req_str(sub, "file", &ctx)?,
                    trace_phase: req_str(sub, "trace_phase", &ctx)?,
                });
            }
        }

        let unsafe_tags = t.table("unsafe").map(|u| strs(u, "tags")).unwrap_or_default();
        if unsafe_tags.is_empty() {
            return Err("[unsafe] tags must not be empty".into());
        }

        let recovery = match t.table("recovery") {
            Some(rt) => {
                let rp = RecoveryPolicy {
                    gate: req_str(rt, "gate", "[recovery]")?,
                    methods: strs(rt, "methods"),
                    files: strs(rt, "files"),
                    entry_points: strs(rt, "entry_points"),
                    entry_tags: strs(rt, "entry_tags"),
                };
                if rp.methods.is_empty() || rp.files.is_empty() {
                    return Err("[recovery] methods and files must not be empty".into());
                }
                Some(rp)
            }
            None => None,
        };

        Ok(Policy {
            scope,
            fields,
            atomic_allows,
            seqcst_allows,
            raw_lock_allows,
            nested_succ,
            windows,
            unsafe_tags,
            recovery,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::minitoml;

    pub(crate) const MINIMAL: &str = r#"
[scope]
core_src = "crates/core/src"
workspace_roots = ["crates"]
enforcement_files = ["crates/core/src/sync.rs"]
graph_files = ["crates/core/src/update.rs"]
fail_catalog = "crates/check/src/fail.rs"
trace_lib = "crates/metrics/src/span.rs"
wait_map_file = "crates/core/src/sync.rs"
hold_map_file = "crates/core/src/poison.rs"
design_doc = "DESIGN.md"
node_doc = "crates/core/src/node.rs"
tag_roots = ["crates/core/src"]

[atomics.fields.mark]
store = ["Release"]
load_lockfree = ["Acquire"]
load_locked = ["Relaxed"]
rmw = []

[unsafe]
tags = ["lock-exclusion"]

[coverage.windows.rotate-mid-heights]
file = "crates/core/src/balance.rs"
trace_phase = "Rotation"
"#;

    #[test]
    fn minimal_manifest_loads() {
        let t = minitoml::parse(MINIMAL).unwrap();
        let p = Policy::from_table(&t).unwrap();
        assert_eq!(p.fields["mark"].load_union(), ["Acquire", "Relaxed"]);
        assert_eq!(p.windows.len(), 1);
        assert_eq!(p.windows[0].name, "rotate-mid-heights");
    }

    #[test]
    fn lock_scopes_default_to_core_src() {
        let t = minitoml::parse(MINIMAL).unwrap();
        let p = Policy::from_table(&t).unwrap();
        assert_eq!(
            p.scope.lock_scopes,
            ["crates/core/src"],
            "absent lock_scopes must fall back to [core_src]"
        );

        let with = MINIMAL.replace(
            "core_src = \"crates/core/src\"",
            "core_src = \"crates/core/src\"\nlock_scopes = [\"crates/core/src\", \"crates/store/src\"]",
        );
        let p = Policy::from_table(&minitoml::parse(&with).unwrap()).unwrap();
        assert_eq!(p.scope.lock_scopes, ["crates/core/src", "crates/store/src"]);
        assert_eq!(p.scope.core_src, "crates/core/src", "core_src is unchanged");
    }

    #[test]
    fn recovery_table_is_optional_and_parses() {
        let t = minitoml::parse(MINIMAL).unwrap();
        assert!(Policy::from_table(&t).unwrap().recovery.is_none());

        let with = format!(
            "{MINIMAL}\n[recovery]\ngate = \"gate\"\n\
             methods = [\"enter\", \"poison\"]\nfiles = [\"crates/core/src/poison.rs\"]\n\
             entry_points = [\"crates/core/src/recover.rs\"]\n\
             entry_tags = [\"recovery-quarantine\"]\n"
        );
        let p = Policy::from_table(&minitoml::parse(&with).unwrap()).unwrap();
        let r = p.recovery.expect("declared [recovery] must parse");
        assert_eq!(r.gate, "gate");
        assert_eq!(r.methods, ["enter", "poison"]);
        assert_eq!(r.files, ["crates/core/src/poison.rs"]);
        assert_eq!(r.entry_points, ["crates/core/src/recover.rs"]);
        assert_eq!(r.entry_tags, ["recovery-quarantine"]);
    }

    #[test]
    fn recovery_without_methods_is_an_error() {
        let bad = format!("{MINIMAL}\n[recovery]\ngate = \"gate\"\n");
        assert!(Policy::from_table(&minitoml::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn missing_scope_is_an_error() {
        let t = minitoml::parse("[unsafe]\ntags=[\"x\"]\n").unwrap();
        assert!(Policy::from_table(&t).is_err());
    }
}
