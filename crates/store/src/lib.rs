//! # lo-store — the service tier over the logical-ordering trees
//!
//! One tree scales to many cores (the paper's whole point), but a *service*
//! built on it hits two ceilings the tree itself cannot fix:
//!
//! 1. **One grace-period authority.** Every reader of every key pins the
//!    same epoch, so one slow scan anywhere delays reclamation everywhere.
//! 2. **One failure domain.** A writer death poisons the whole keyspace at
//!    once, and recovery quarantines all writers.
//!
//! `lo-store` composes N trees into one map and removes both ceilings:
//!
//! * [`ShardedStore`] — keyspace-sharded composition. A [`Partitioner`]
//!   (hash or range) fixes each key's home shard; each shard is an LO-AVL
//!   tree ([`lo_core::LoAvlMap`], the paper's headline structure) born
//!   into its **own** [`lo_core::EpochDomain`], so grace periods and
//!   failures are per-shard. Cross-shard range scans
//!   stitch the per-shard lock-free cursors into one strictly ascending
//!   stream with no global lock. Health is per-shard
//!   ([`lo_api::Health::Degraded`] carries the unwritable-shard bitmask)
//!   and so is online recovery.
//! * [`BatchedStore`] — a flat-combining frontend: contending writers on a
//!   shard elect a combiner that executes the whole batch under one epoch
//!   guard with amortized lock traffic; everyone else waits on a result
//!   slot. Reads stay lock-free pass-throughs.
//!
//! The store implements the same trait surface as a single tree
//! ([`lo_api::ConcurrentMap`], [`lo_api::FallibleMap`],
//! [`lo_api::OrderedRead`], ...), so every harness in the workspace — the
//! workload runner, the chaos tester, the benches — drives it unmodified.
//!
//! See `DESIGN.md` §19 for the protocol argument.

#![warn(missing_docs)]
// Protocol code must justify every raw lock to lo-lint; no unsafe needed.
#![forbid(unsafe_code)]

pub mod fc;
pub mod router;
pub mod store;

pub use fc::BatchedStore;
pub use router::{HashPartitioner, Partitioner, RangePartitioner, MAX_SHARDS};
pub use store::ShardedStore;
