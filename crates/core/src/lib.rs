//! # Concurrent binary search trees via logical ordering
//!
//! A from-scratch Rust implementation of **Drachsler, Vechev, Yahav,
//! "Practical Concurrent Binary Search Trees via Logical Ordering"
//! (PPoPP 2014)**.
//!
//! The key idea: in addition to the physical tree layout (`left`/`right`/
//! `parent`), every node explicitly maintains the **logical ordering** of
//! keys through `pred`/`succ` pointers. The set of intervals
//! `{(n, succ(n))}` partitions the key space, and a key is in the set iff it
//! is an endpoint of some interval. Lookups that fall off the end of a tree
//! path consult the intervals instead of restarting, which makes `contains`
//! **lock-free** and entirely independent of rotations; updates synchronize
//! on interval locks (`succLock`) before touching the layout locks
//! (`treeLock`).
//!
//! Four public map types share one engine:
//!
//! * [`LoAvlMap`] — relaxed-balance AVL tree, the paper's main structure;
//! * [`LoBstMap`] — the unbalanced variant (§4.6);
//! * [`LoPeAvlMap`], [`LoPeBstMap`] — the partially-external "logical
//!   removing" variants (§6) that keep zombie nodes instead of performing
//!   2-children removals.
//!
//! ```
//! use lo_core::LoAvlMap;
//!
//! let map = LoAvlMap::new();
//! map.insert(3, "three");
//! map.insert(1, "one");
//! assert!(map.contains(&3));        // lock-free
//! assert_eq!(map.min_key(), Some(1)); // O(1) via the ordering layout
//! map.remove(&3);                    // on-time physical removal
//! assert!(!map.contains(&3));
//! ```
//!
//! ## Memory reclamation
//! The paper's Java implementation leans on the JVM garbage collector so
//! that lock-free readers may hold references to removed nodes. Here the
//! same guarantee comes from epoch-based reclamation (`lo-reclaim`):
//! every operation runs under an epoch guard, and removal retires nodes with
//! deferred destruction. Unlinking is still *on time* — only the `free` is
//! deferred.

#![warn(missing_docs)]

pub mod arena;
mod balance;
mod bound;
mod domain;
mod fp;
mod invariants;
mod maps;
mod node;
mod ordered;
mod pe;
mod poison;
mod recover;
mod tree;
mod update;

pub mod sync;

pub use domain::EpochDomain;
pub use invariants::InvariantReport;
pub use maps::{LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap};
pub use ordered::RangeCursor;

/// Fallible-write error surface (re-exported from `lo-api`): poisoning
/// causes and the `try_*` error type, plus the trait the maps implement.
pub use lo_api::{FallibleMap, PoisonCause, TreeError};

/// Online-recovery surface (re-exported from `lo-api`): health probes and
/// the quarantine→audit→repair→resume entry point's report/error types.
pub use lo_api::{Health, RecoverError, RecoveryReport, RepairStrategy};

/// Core map traits (re-exported from `lo-api`) so downstream users get the
/// point-op and ordered-access surfaces without a separate dependency:
/// [`OrderedRead`] is the concurrent streaming-scan interface backed by the
/// succ-chain cursor; [`QuiescentOrdered`] is the full-snapshot interface.
pub use lo_api::{ConcurrentMap, OrderedRead, QuiescentOrdered};

/// Sets the restart-storm bound for this process (`0` = unlimited, the
/// default). Test hook for driving the storm tripwire; not part of the
/// stable API.
#[doc(hidden)]
pub use poison::set_max_restarts;

/// Event-counter telemetry substrate (re-exported so integration tests and
/// downstream tools can snapshot counters without a separate dependency).
/// Counters are live only when this crate is built with the `metrics`
/// feature; otherwise every recording call is a compile-time no-op.
pub use lo_metrics as metrics;
