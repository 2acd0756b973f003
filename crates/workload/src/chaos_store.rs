//! Chaos harness for the sharded store: poison one shard mid-storm, prove
//! the blast radius stays inside it.
//!
//! [`run_chaos`](crate::run_chaos) cannot drive a *partially* degraded
//! store — its post-checks assume one failure domain (e.g. "poisoned ⇒
//! `try_insert(i64::MAX)` is rejected", but `i64::MAX` may route to a
//! perfectly healthy shard). [`run_chaos_store`] is the store-shaped round:
//!
//! 1. **storm** — the tree harness's storm loop (40/30/10 percent
//!    inserts/removes/short stitched scans, the rest `contains`) on a
//!    range-sharded store under an armed [`FaultPlan`]; an injected writer
//!    death poisons *its* shard only;
//! 2. **degraded service** — with the plan gone, assert reads (point and
//!    stitched scans) work over the **whole** keyspace, writes succeed on
//!    every healthy shard, and writes to the poisoned shard are rejected
//!    with [`TreeError::Poisoned`] — the store's [`Health::Degraded`] mask
//!    names exactly the broken shards;
//! 3. **online recovery** — `try_recover` repairs the poisoned shards
//!    while a reader sweeps the full keyspace and a writer keeps landing
//!    ops on a healthy shard, which must **never** be turned away — a
//!    neighbouring shard's quarantine is invisible here;
//! 4. **rejoin** — the store ends [`Health::Writable`], the recovery
//!    generation climbed by exactly the number of repaired shards, writes
//!    land on every shard again, and the full invariant sweep (including
//!    the store's routing invariant) passes.
//!
//! Without the `failpoints` feature the armed plan never fires; the round then
//! asserts the healthy-path equivalents (zero degraded shards, recovery
//! declines). Deterministic from the seeds, like the tree-level harness.

use std::sync::atomic::Ordering;

use lo_api::{Health, RecoverError, RecoveryReport, TreeError};
use lo_check::fail::{activate, silence_injected_panics, FailPoint, FaultPlan};
use lo_check::rng::Seeder;
use lo_core::LoAvlMap;
use lo_store::{RangePartitioner, ShardedStore};

use crate::chaos::{assert_reads_coherent, recover_under_load, Storm, StormCounts};

/// The concrete store the chaos round drives: range-routed AVL shards, so
/// the key→shard map is transparent to the checks.
pub type ChaosStore = ShardedStore<i64, u64, LoAvlMap<i64, u64>, RangePartitioner<i64>>;

/// Shape of a store chaos round.
#[derive(Clone, Debug)]
pub struct StoreChaosSpec {
    /// Shard count (the keyspace is split evenly).
    pub shards: usize,
    /// Worker threads in the storm phase.
    pub threads: usize,
    /// Key universe `0..keys`.
    pub keys: u64,
    /// Operations attempted per storm thread (40% insert / 30% remove /
    /// 20% contains / 10% short stitched scans).
    pub ops_per_thread: usize,
    /// Seed for the per-thread operation streams.
    pub seed: u64,
    /// Suppress the panic-hook backtrace for injected panics.
    pub quiet: bool,
}

impl StoreChaosSpec {
    /// Defaults: 4 shards × 64-key slices, 4 threads, 300 ops each, quiet.
    pub fn new(seed: u64) -> Self {
        StoreChaosSpec {
            shards: 4,
            threads: 4,
            keys: 256,
            ops_per_thread: 300,
            seed,
            quiet: true,
        }
    }
}

/// What a store chaos round did and observed.
#[derive(Clone, Debug)]
pub struct StoreChaosReport {
    /// Operations that ran to completion during the storm.
    pub ops_completed: u64,
    /// Writer deaths injected by an armed failpoint.
    pub injected_panics: u64,
    /// Writers that died on a consequence of a fault (restart-storm trips,
    /// poisoned-tree aborts at restart edges).
    pub aborted_ops: u64,
    /// Writes rejected with [`TreeError::Poisoned`] during the storm.
    pub rejected_writes: u64,
    /// Degraded-shard bitmask observed after the storm (0 = nothing
    /// landed).
    pub degraded_mask: u64,
    /// The merged recovery post-mortem, when shards were repaired.
    pub recovery: Option<RecoveryReport>,
    /// Store recovery generation after the round (= number of repaired
    /// shards, for a round starting at generation 0).
    pub generation: u64,
    /// Per-point injected-fault counts, indexed like [`FailPoint::ALL`].
    pub fired: [u64; FailPoint::COUNT],
}

/// Even split points for `keys` over `shards`: shard *i* owns
/// `[i·w, (i+1)·w)` with `w = keys / shards`.
fn even_splits(keys: u64, shards: usize) -> Vec<i64> {
    let w = keys / shards as u64;
    (1..shards as u64).map(|i| (i * w) as i64).collect()
}

/// A probe key owned by shard `i` (mid-slice, away from the boundaries).
fn probe_key(spec: &StoreChaosSpec, i: usize) -> i64 {
    let w = spec.keys / spec.shards as u64;
    (i as u64 * w + w / 2) as i64
}

/// Round-trips a probe write on shard `i` and asserts it is accepted;
/// restores the key's absence if the insert landed it fresh.
fn assert_shard_writable(store: &ChaosStore, spec: &StoreChaosSpec, i: usize, when: &str) {
    let k = probe_key(spec, i);
    assert_eq!(store.shard_of(&k), i, "probe key {k} must route to shard {i}");
    match store.try_insert(k, u64::MAX) {
        Ok(true) => {
            assert_eq!(store.try_remove(&k), Ok(true), "probe cleanup on shard {i} ({when})");
        }
        Ok(false) => {} // already present: the accept is what we tested
        Err(e) => panic!("healthy shard {i} rejected a write {when}: {e}"),
    }
}

/// Runs one poison→serve-degraded→recover→rejoin round (module docs).
/// Panics on any violated check; returns the accounting otherwise.
pub fn run_chaos_store(spec: &StoreChaosSpec, plan: FaultPlan) -> StoreChaosReport {
    assert!(spec.shards >= 2, "a blast-radius round needs at least 2 shards");
    assert!(spec.threads > 0 && spec.ops_per_thread > 0, "empty storm");
    assert!(
        spec.keys >= 2 * spec.shards as u64,
        "each shard needs a non-trivial key slice"
    );
    let store = ChaosStore::range_sharded(even_splits(spec.keys, spec.shards));

    // Prefill even keys, plan inactive: the initial state never faults.
    for k in (0..spec.keys as i64).step_by(2) {
        assert_eq!(store.try_insert(k, k as u64), Ok(true), "prefill of fresh key");
    }

    // ---- phase 1: storm under the armed plan ----
    let quiet = spec.quiet.then(silence_injected_panics);
    let session = activate(plan);
    let counts = StormCounts::default();
    let mut seeder = Seeder::new(spec.seed);
    let seeds: Vec<u64> = (0..spec.threads).map(|_| seeder.next_u64()).collect();
    let storm = Storm {
        keys: spec.keys,
        ops_per_thread: spec.ops_per_thread,
        mix: [40, 30, 10],
        ticket: Some(session.ticket()),
        recording: None,
    };
    storm.run(&store, &seeds, &counts);
    let fired = session.fired_counts();
    drop(session);

    // ---- phase 2: degraded service ----
    let degraded_mask = store.degraded_mask();
    assert_eq!(
        store.health(),
        if degraded_mask == 0 { Health::Writable } else { Health::Degraded { shards: degraded_mask } },
        "health must mirror the degraded mask"
    );

    // Reads work over the WHOLE keyspace, poisoned shards included: point
    // reads and the stitched full-range scan agree with the snapshot.
    assert_reads_coherent(&store, spec.keys, &format!("(mask {degraded_mask:#b})"));

    // Writes: accepted on every healthy shard, rejected on every poisoned
    // one — the blast radius is exactly the mask.
    for i in 0..spec.shards {
        if degraded_mask & (1 << i) == 0 {
            assert_shard_writable(&store, spec, i, "while a neighbour is poisoned");
        } else {
            let k = probe_key(spec, i);
            assert!(
                matches!(store.try_insert(k, 0), Err(TreeError::Poisoned(_))),
                "poisoned shard {i} accepted an insert"
            );
            assert!(
                matches!(store.try_remove(&k), Err(TreeError::Poisoned(_))),
                "poisoned shard {i} accepted a remove"
            );
        }
    }

    // ---- phase 3: online recovery ----
    let recovery = if degraded_mask != 0 {
        // A writer on a healthy shard is never turned away by a
        // neighbour's quarantine — the per-shard recovery claim.
        let healthy = (0..spec.shards).find(|i| degraded_mask & (1 << i) == 0);
        let sweep = (0..spec.keys as i64).step_by(7);
        let (outcome, ()) = recover_under_load(&store, sweep, |done| {
            let Some(h) = healthy else { return };
            let k = probe_key(spec, h);
            while !done.load(Ordering::Acquire) {
                match store.try_insert(k, 1) {
                    Ok(true) => assert_eq!(
                        store.try_remove(&k),
                        Ok(true),
                        "healthy-shard probe cleanup mid-recovery"
                    ),
                    Ok(false) => {}
                    Err(e) => panic!("healthy shard {h} turned a writer away mid-recovery: {e}"),
                }
            }
        });
        Some(outcome.unwrap_or_else(|e| panic!("store recovery failed: {e:?}")))
    } else {
        assert!(
            matches!(store.try_recover(), Err(RecoverError::NotPoisoned)),
            "recovery of a fully writable store must decline"
        );
        None
    };

    // ---- phase 4: rejoin ----
    let generation = store.recovery_generation();
    assert_eq!(
        generation,
        u64::from(degraded_mask.count_ones()),
        "generation must climb by exactly the number of repaired shards"
    );
    assert_eq!(store.health(), Health::Writable, "round must end fully writable");
    assert_eq!(store.degraded_mask(), 0);
    for i in 0..spec.shards {
        assert_shard_writable(&store, spec, i, "after recovery");
    }
    store.check_invariants();

    if let Some(restore) = quiet {
        restore();
    }

    StoreChaosReport {
        ops_completed: counts.ops_completed.into_inner(),
        injected_panics: counts.injected_panics.into_inner(),
        aborted_ops: counts.aborted_ops.into_inner(),
        rejected_writes: counts.rejected_writes.into_inner(),
        degraded_mask,
        recovery,
        generation,
        fired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store round must run cleanly (zero faults, zero degradation)
    /// with an empty plan, on any build.
    #[test]
    fn clean_store_round_with_empty_plan() {
        let spec = StoreChaosSpec::new(17);
        let report = run_chaos_store(&spec, FaultPlan::new(17));
        assert_eq!(report.fired.iter().sum::<u64>(), 0);
        assert_eq!(report.injected_panics, 0);
        assert_eq!(report.degraded_mask, 0);
        assert_eq!(report.generation, 0);
        assert!(report.recovery.is_none());
        assert_eq!(
            report.ops_completed,
            (spec.threads * spec.ops_per_thread) as u64
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 shards")]
    fn single_shard_round_rejected() {
        let spec = StoreChaosSpec { shards: 1, ..StoreChaosSpec::new(1) };
        run_chaos_store(&spec, FaultPlan::new(1));
    }
}
