//! # lo-trees — umbrella crate
//!
//! Re-exports the paper's data structures from [`lo_core`] and exposes the
//! rest of the workspace under stable module names. See the README for the
//! project overview and DESIGN.md for the system inventory.
//!
//! ```
//! use lo_trees::LoAvlMap;
//! let m = LoAvlMap::new();
//! m.insert(1, "one");
//! assert!(m.contains(&1));
//! ```

#![warn(missing_docs)]

pub use lo_core::*;

/// The comparator suite (BCCO, CF, chromatic, skip list, EFRB, NM, ...).
pub use lo_baselines as baselines;
/// Shared map traits.
pub use lo_api as api;
/// Epoch-based reclamation built from scratch (substrate study).
pub use lo_reclaim as reclaim;
/// The service tier: keyspace-sharded store with per-shard epoch domains
/// and the flat-combining batched frontend.
pub use lo_store as store;
/// The sharded-store front door, at the crate root beside the tree maps.
pub use lo_store::{BatchedStore, ShardedStore};
/// The paper's evaluation workload protocol.
pub use lo_workload as workload;
