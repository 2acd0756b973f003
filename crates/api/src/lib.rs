//! Shared traits for the logical-ordering tree suite.
//!
//! Every concurrent ordered dictionary in this workspace — the paper's
//! logical-ordering trees in [`lo-core`](../lo_core/index.html) and the
//! comparator suite in [`lo-baselines`](../lo_baselines/index.html) —
//! implements [`ConcurrentMap`], so the workload harness, the stress tester
//! and the benchmarks can drive any of them interchangeably.
//!
//! The paper implements a *map* (§3 "our actual implementation and evaluation
//! use a more general implementation of a map"), so the map interface is the
//! only one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;

/// Marker bundle for key types accepted by every tree in the suite.
///
/// Keys are copied into routing nodes by the external trees (EFRB, chromatic,
/// Natarajan-Mittal), so `Copy` is required; `Ord` drives the search; the
/// `Send + Sync + 'static` bounds let nodes move across threads and outlive
/// the inserting thread.
pub trait Key: Ord + Copy + Send + Sync + Debug + 'static {}
impl<T: Ord + Copy + Send + Sync + Debug + 'static> Key for T {}

/// Marker bundle for value types.
pub trait Value: Send + Sync + 'static {}
impl<T: Send + Sync + 'static> Value for T {}

/// A linearizable concurrent ordered map.
///
/// Semantics follow the paper's interface:
/// * [`insert`](Self::insert) has *put-if-absent* semantics: it is a no-op
///   returning `false` when the key is already present (it does **not**
///   overwrite). Implementations that also support overwriting expose it as
///   a separate inherent `put` method — e.g. the `lo-core` maps' `put`
///   returns the previous value and replaces it in place — rather than
///   through this trait,
/// * [`remove`](Self::remove) returns whether the key was present,
/// * [`contains`](Self::contains) must be safe to run concurrently with any
///   mix of mutating operations.
pub trait ConcurrentMap<K: Key, V: Value>: Send + Sync {
    /// Inserts `key -> value` if `key` is absent. Returns `true` on a
    /// successful (i.e. key-was-absent) insertion.
    fn insert(&self, key: K, value: V) -> bool;

    /// Removes `key`. Returns `true` if the key was present (successful
    /// removal).
    fn remove(&self, key: &K) -> bool;

    /// Returns whether `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Returns a clone of the value mapped to `key`, if present.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// A short stable identifier used in benchmark tables (e.g. `"lo-avl"`).
    fn name(&self) -> &'static str;
}

/// Concurrent-safe ordered reads (paper §4.7): O(1) min/max via the
/// sentinel `succ`/`pred` pointers, ceiling/floor queries and streaming
/// range scans over the logical-ordering list.
///
/// Every method is safe to call concurrently with any mix of mutating
/// operations, and each *individual* key an implementation reports was
/// live at some instant during the call. A multi-key scan is **not** an
/// atomic snapshot: keys observed early in the scan may be removed (and
/// keys ahead of the cursor inserted) while the scan is still running.
/// What is guaranteed: keys are yielded in strictly ascending order, the
/// scan stays within its bounds, and it terminates.
///
/// This trait is where the logical-ordering design pays off structurally:
/// maps whose nodes carry `pred`/`succ` ordering pointers (the `lo-core`
/// trees) and linked-list-based structures (the skip list) implement it
/// natively. External/leaf-oriented trees without an ordering layer (EFRB,
/// Natarajan-Mittal, chromatic, ...) structurally cannot — they only get
/// [`QuiescentOrdered`] snapshots.
pub trait OrderedRead<K: Key> {
    /// Smallest key currently in the map, if any.
    fn min_key(&self) -> Option<K>;

    /// Largest key currently in the map, if any.
    fn max_key(&self) -> Option<K>;

    /// Smallest live key `>= key`, if any.
    fn ceiling_key(&self, key: &K) -> Option<K>;

    /// Largest live key `<= key`, if any.
    fn floor_key(&self, key: &K) -> Option<K>;

    /// Streams every live key in `range` (ascending, strictly increasing)
    /// into `f`, without materialising the whole result.
    fn scan_range(&self, range: std::ops::RangeInclusive<K>, f: &mut dyn FnMut(K));

    /// Number of live keys in `range` (one streaming pass, no allocation).
    fn range_count(&self, range: std::ops::RangeInclusive<K>) -> usize {
        let mut n = 0;
        self.scan_range(range, &mut |_| n += 1);
        n
    }

    /// Collects the live keys in `range`, ascending.
    fn range_keys(&self, range: std::ops::RangeInclusive<K>) -> Vec<K> {
        let mut out = Vec::new();
        self.scan_range(range, &mut |k| out.push(k));
        out
    }
}

/// Full-structure ordered snapshots, only meaningful at quiescence.
///
/// Every map in the suite can produce an in-order key dump by traversing
/// its layout while no other thread is mutating it — that requires no
/// ordering layer, so even the external-tree baselines implement this.
/// Structures that additionally support *concurrent* ordered reads
/// implement [`OrderedRead`] on top.
pub trait QuiescentOrdered<K: Key> {
    /// All keys in ascending order. Only meaningful at quiescence; used by
    /// tests, invariant checks and examples. Concurrent-safe
    /// implementations may return a point-in-time-ish snapshot.
    fn keys_in_order(&self) -> Vec<K>;
}

/// Quiescent self-validation hook: verifies every structural invariant the
/// implementation promises (BST order, balance bounds, ordering-layout
/// consistency, ...). Panics with a diagnostic on violation.
///
/// Must only be called while no other thread is operating on the structure.
pub trait CheckInvariants {
    /// Run all internal invariant checks; panic on the first violation.
    fn check_invariants(&self);
}

/// Why a tree transitioned to the poisoned state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoisonCause {
    /// An injected fault (the named failpoint) panicked a writer inside a
    /// critical window.
    Failpoint(&'static str),
    /// A restart loop exceeded the configured restart budget
    /// (contention-storm / livelock tripwire).
    RestartStorm,
    /// A writer panicked for a reason the tree did not inject (a genuine
    /// bug, or a panic from user code such as a key comparator).
    Panic,
    /// An injected fault at a failpoint index this binary does not know —
    /// the poison word was written by a newer binary with more failpoints
    /// (e.g. a post-mortem decoded across a version skew). The raw index is
    /// carried so the post-mortem stays unambiguous.
    UnknownFailpoint(u32),
}

impl std::fmt::Display for PoisonCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoisonCause::Failpoint(name) => write!(f, "injected fault at failpoint `{name}`"),
            PoisonCause::RestartStorm => write!(f, "restart budget exceeded"),
            PoisonCause::Panic => write!(f, "writer panicked"),
            PoisonCause::UnknownFailpoint(idx) => {
                write!(f, "injected fault at unknown failpoint #{idx} (newer binary?)")
            }
        }
    }
}

/// Error returned by the fallible write entry points ([`FallibleMap`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// A writer died inside a critical window; the tree released its locks
    /// and atomically poisoned itself. Reads (`contains`, `get`, ordered
    /// access) remain correct; all further writes are rejected with this
    /// error.
    Poisoned(PoisonCause),
    /// Node allocation failed (allocator exhaustion). The operation had no
    /// effect; the tree remains healthy and the call may be retried.
    AllocFailed,
    /// A recoverer is repairing the tree right now. The operation had no
    /// effect; retry (with backoff) — the tree will shortly be either
    /// writable again or re-poisoned with the original cause.
    Recovering,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Poisoned(cause) => write!(f, "tree poisoned: {cause}"),
            TreeError::AllocFailed => write!(f, "node allocation failed"),
            TreeError::Recovering => write!(f, "tree is recovering; retry shortly"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Writability state of a map, as reported by [`FallibleMap::health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Healthy: writes are accepted.
    Writable,
    /// A writer death poisoned the structure; reads work, writes are
    /// rejected until a successful [`FallibleMap::try_recover`].
    Poisoned(PoisonCause),
    /// A recoverer is quarantining/repairing the structure right now.
    Recovering,
    /// A *composed* map (the sharded store) with some shards unwritable:
    /// `shards` is a bitmask of degraded shard indices (bit *i* set ⇔ shard
    /// *i* is poisoned or recovering; at most 64 shards). Reads still work
    /// everywhere; writes succeed on every shard whose bit is clear.
    Degraded {
        /// Bitmask of unwritable shard indices.
        shards: u64,
    },
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Health::Writable => write!(f, "writable"),
            Health::Poisoned(cause) => write!(f, "poisoned: {cause}"),
            Health::Recovering => write!(f, "recovering"),
            Health::Degraded { shards } => {
                write!(f, "degraded: shards [")?;
                let mut first = true;
                for i in 0..64 {
                    if shards & (1 << i) != 0 {
                        if !first {
                            write!(f, ", ")?;
                        }
                        write!(f, "{i}")?;
                        first = false;
                    }
                }
                write!(f, "] unwritable")
            }
        }
    }
}

/// How [`FallibleMap::try_recover`] repaired the damaged layout. Ordered
/// from least to most invasive, so merged reports take the `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairStrategy {
    /// The audit found the physical layout consistent with the surviving
    /// succ chain after window-local fixes; no structural rebuild was
    /// needed.
    AuditOnly,
    /// The layout was rebuilt in place over the surviving chain nodes: the
    /// chain is the durable truth, the layout is derived from it. Every
    /// damaged layout is repaired this way, whatever the poison cause.
    InPlace,
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RepairStrategy::AuditOnly => "audit-only",
            RepairStrategy::InPlace => "in-place",
        };
        write!(f, "{s}")
    }
}

/// Why [`FallibleMap::try_recover`] declined or failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The structure is healthy — nothing to recover.
    NotPoisoned,
    /// Another thread is already recovering this structure; retry or poll
    /// [`FallibleMap::health`].
    Busy,
    /// Post-repair verification failed: the structure was re-poisoned with
    /// its original cause and stays read-only.
    VerifyFailed,
    /// This map type does not support online recovery (default for
    /// implementations that never poison).
    Unsupported,
    /// The calling thread holds an epoch pin of the structure (for example
    /// inside a scan callback). Recovery waits for a grace period, which
    /// that pin would hold back forever; call it once the pin is released.
    Pinned,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NotPoisoned => write!(f, "tree is not poisoned"),
            RecoverError::Busy => write!(f, "recovery already in progress"),
            RecoverError::VerifyFailed => {
                write!(f, "post-repair verification failed; tree re-poisoned")
            }
            RecoverError::Unsupported => write!(f, "this map does not support recovery"),
            RecoverError::Pinned => {
                write!(f, "the calling thread holds an epoch pin of this structure")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// Post-mortem of one successful online recovery, returned by
/// [`FallibleMap::try_recover`].
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Why the structure was poisoned.
    pub cause: PoisonCause,
    /// How the layout was repaired.
    pub strategy: RepairStrategy,
    /// Live nodes carried over into the repaired structure.
    pub nodes_salvaged: usize,
    /// Nodes found unreachable from the surviving chain (layout orphans and
    /// spliced-out marked nodes) and retired through epoch reclamation.
    pub nodes_orphaned: usize,
    /// Stranded removal marks force-completed during the audit (the marked
    /// node's half-done splice was finished and the node orphaned).
    pub marks_completed: usize,
    /// Recovery generation after the un-poison CAS (strictly increasing per
    /// tree; generation 0 is the tree as constructed).
    pub generation: u32,
    /// Wall-clock time from quarantine entry to writable.
    pub elapsed: std::time::Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered ({}) from `{}` in {:?}: salvaged {} node(s), orphaned {}, \
             completed {} stranded mark(s), generation {}",
            self.strategy,
            self.cause,
            self.elapsed,
            self.nodes_salvaged,
            self.nodes_orphaned,
            self.marks_completed,
            self.generation
        )
    }
}

/// Fallible write extension: maps that can reject writes instead of
/// panicking or aborting — on allocation failure ([`TreeError::AllocFailed`])
/// and after a writer death poisoned the structure
/// ([`TreeError::Poisoned`]).
///
/// The infallible [`ConcurrentMap`] methods on the same map are equivalent
/// to `try_*(..).unwrap()`-style behavior: they panic on `Poisoned` and
/// abort-by-panic on allocation failure.
pub trait FallibleMap<K: Key, V: Value>: ConcurrentMap<K, V> {
    /// Fallible [`ConcurrentMap::insert`].
    fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError>;

    /// Fallible [`ConcurrentMap::remove`].
    fn try_remove(&self, key: &K) -> Result<bool, TreeError>;

    /// Current poison state: `None` while healthy, `Some(error)` once a
    /// writer death has poisoned the tree (or, transiently,
    /// `Some(TreeError::Recovering)` while a recoverer holds the structure).
    fn poisoned(&self) -> Option<TreeError>;

    /// Current writability state, derived from [`Self::poisoned`] by
    /// default.
    fn health(&self) -> Health {
        match self.poisoned() {
            None => Health::Writable,
            Some(TreeError::Recovering) => Health::Recovering,
            Some(TreeError::Poisoned(cause)) => Health::Poisoned(cause),
            // `poisoned()` never reports a per-operation error, but the
            // conservative reading of a nonstandard implementation is
            // "not writable right now".
            Some(TreeError::AllocFailed) => Health::Recovering,
        }
    }

    /// Attempts to take a poisoned structure back to writable, online:
    /// quarantine in-flight writers, audit the damage, repair the layout
    /// from the surviving ordering chain, verify, and un-poison. Readers
    /// are never blocked. Exactly one caller wins; concurrent callers get
    /// [`RecoverError::Busy`].
    ///
    /// The default declines ([`RecoverError::Unsupported`]) so map types
    /// that never poison (baselines) keep compiling; the `lo-core` maps
    /// override it with the real protocol.
    fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
        Err(RecoverError::Unsupported)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // reference map, not tree-protocol state
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Tiny reference implementation so the trait itself is exercised.
    struct MutexMap<K: Key, V: Value>(Mutex<BTreeMap<K, V>>);

    impl<K: Key, V: Value> ConcurrentMap<K, V> for MutexMap<K, V> {
        fn insert(&self, key: K, value: V) -> bool {
            let mut g = self.0.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = g.entry(key) {
                e.insert(value);
                true
            } else {
                false
            }
        }
        fn remove(&self, key: &K) -> bool {
            self.0.lock().unwrap().remove(key).is_some()
        }
        fn contains(&self, key: &K) -> bool {
            self.0.lock().unwrap().contains_key(key)
        }
        fn get(&self, key: &K) -> Option<V>
        where
            V: Clone,
        {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn name(&self) -> &'static str {
            "mutex-btreemap"
        }
    }

    #[test]
    fn map_contract() {
        let m = MutexMap(Mutex::new(BTreeMap::new()));
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11), "duplicate insert must fail");
        assert_eq!(m.get(&1), Some(10), "failed insert must not overwrite");
        assert!(m.contains(&1));
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert!(!m.contains(&1));
    }

    #[test]
    fn tree_error_display() {
        let e = TreeError::Poisoned(PoisonCause::Failpoint("remove-after-mark"));
        assert_eq!(
            e.to_string(),
            "tree poisoned: injected fault at failpoint `remove-after-mark`"
        );
        assert_eq!(
            TreeError::Poisoned(PoisonCause::RestartStorm).to_string(),
            "tree poisoned: restart budget exceeded"
        );
        assert_eq!(TreeError::AllocFailed.to_string(), "node allocation failed");
        assert_eq!(TreeError::Recovering.to_string(), "tree is recovering; retry shortly");
        assert_eq!(
            TreeError::Poisoned(PoisonCause::UnknownFailpoint(42)).to_string(),
            "tree poisoned: injected fault at unknown failpoint #42 (newer binary?)"
        );
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("remove-after-mark"));
    }

    #[test]
    fn recovery_surface_defaults() {
        // A plain FallibleMap gets `health()` and a declining `try_recover()`
        // for free.
        struct NeverPoisons(MutexMap<i64, u64>);
        impl ConcurrentMap<i64, u64> for NeverPoisons {
            fn insert(&self, key: i64, value: u64) -> bool {
                self.0.insert(key, value)
            }
            fn remove(&self, key: &i64) -> bool {
                self.0.remove(key)
            }
            fn contains(&self, key: &i64) -> bool {
                self.0.contains(key)
            }
            fn get(&self, key: &i64) -> Option<u64> {
                self.0.get(key)
            }
            fn name(&self) -> &'static str {
                "never-poisons"
            }
        }
        impl FallibleMap<i64, u64> for NeverPoisons {
            fn try_insert(&self, key: i64, value: u64) -> Result<bool, TreeError> {
                Ok(self.insert(key, value))
            }
            fn try_remove(&self, key: &i64) -> Result<bool, TreeError> {
                Ok(self.remove(key))
            }
            fn poisoned(&self) -> Option<TreeError> {
                None
            }
        }
        let m = NeverPoisons(MutexMap(Mutex::new(BTreeMap::new())));
        assert_eq!(m.health(), Health::Writable);
        assert_eq!(m.try_recover(), Err(RecoverError::Unsupported));
        assert_eq!(Health::Writable.to_string(), "writable");
        assert_eq!(
            Health::Poisoned(PoisonCause::Panic).to_string(),
            "poisoned: writer panicked"
        );
        assert_eq!(RepairStrategy::InPlace.to_string(), "in-place");
        assert!(RepairStrategy::AuditOnly < RepairStrategy::InPlace);
        assert_eq!(
            Health::Degraded { shards: 0b101 }.to_string(),
            "degraded: shards [0, 2] unwritable"
        );
        let report = RecoveryReport {
            cause: PoisonCause::Panic,
            strategy: RepairStrategy::InPlace,
            nodes_salvaged: 10,
            nodes_orphaned: 3,
            marks_completed: 1,
            generation: 1,
            elapsed: std::time::Duration::from_micros(50),
        };
        let text = report.to_string();
        assert!(text.contains("recovered (in-place)"));
        assert!(text.contains("salvaged 10"));
        assert!(text.contains("generation 1"));
    }
}
