//! Integration rounds for the sharded store: blast-radius
//! chaos with an armed fault plan, and WGL linearizability evidence for
//! the flat-combining batched frontend.

use lo_api::CheckInvariants;
use lo_check::fail::FaultPlan;
#[cfg(feature = "failpoints")]
use lo_check::fail::FailPoint;
use lo_store::BatchedStore;
use lo_workload::{run_chaos, run_chaos_store, ChaosSpec, StoreChaosSpec};

/// The armed round: a one-shot writer death lands on exactly one shard;
/// the harness itself asserts degraded service on the others, online
/// recovery under concurrent load, and the rejoin. Fixed seed — this is
/// the CI row.
#[cfg(feature = "failpoints")]
#[test]
fn poisoned_shard_keeps_its_blast_radius() {
    let spec = StoreChaosSpec::new(42);
    let plan = FaultPlan::new(42).panic_at(FailPoint::RemoveAfterMark);
    let report = run_chaos_store(&spec, plan);
    assert_eq!(report.injected_panics, 1, "the one-shot panic must land");
    assert_eq!(
        report.degraded_mask.count_ones(),
        1,
        "one writer death poisons exactly one shard (mask {:#b})",
        report.degraded_mask
    );
    assert!(report.rejected_writes > 0, "storm writers must have hit the poisoned shard");
    assert_eq!(report.generation, 1, "one shard repaired, generation 1");
    let recovery = report.recovery.expect("a degraded round must recover");
    assert!(recovery.nodes_salvaged > 0, "the repaired shard was not empty");
    assert_eq!(report.fired[FailPoint::RemoveAfterMark.index()], 1);
}

/// Same spec and plan seed, twice: the storm is scheduled freely, but the
/// round-level outcome classification must stay self-consistent and both
/// rounds must end fully writable (asserted inside the harness).
#[cfg(feature = "failpoints")]
#[test]
fn armed_store_rounds_always_end_writable() {
    for seed in [7, 1234] {
        let spec = StoreChaosSpec { threads: 3, ops_per_thread: 200, ..StoreChaosSpec::new(seed) };
        let plan = FaultPlan::new(seed).panic_at(FailPoint::InsertOrderingLinked);
        let report = run_chaos_store(&spec, plan);
        assert_eq!(
            u64::from(report.degraded_mask.count_ones()),
            report.generation,
            "every degraded shard was repaired exactly once"
        );
        assert_eq!(report.injected_panics, u64::from(report.degraded_mask != 0));
    }
}

/// The batched frontend under the tree-level chaos harness with an EMPTY
/// plan: a small recorded storm through the combiner lanes must pass the
/// Wing–Gong linearizability check. (Armed plans stay off the batched
/// path: an injected panic is ferried to the submitting client, but the
/// thread-local injection latch lives on the combiner's thread, so the
/// classification below would misread it.)
#[test]
fn batched_store_history_is_linearizable() {
    let store: BatchedStore<i64, u64> = BatchedStore::hash_sharded(4);
    let spec = ChaosSpec {
        threads: 4,
        keys: 8,
        ops_per_thread: 7,
        initial: 0b1010_0110,
        check_linearizability: true,
        ..ChaosSpec::new(31)
    };
    let report = run_chaos(&store, &spec, FaultPlan::new(31));
    assert_eq!(report.injected_panics, 0);
    assert_eq!(report.poisoned, None);
    assert!(report.history_len <= 28);
    assert_eq!(report.ops_completed, (spec.threads * spec.ops_per_thread) as u64);
    store.check_invariants();
}

/// The clean store round must also hold on the default build (no
/// failpoints): zero degradation, recovery declines, full budget runs.
#[test]
fn clean_store_round_runs_everywhere() {
    let spec = StoreChaosSpec { shards: 8, keys: 512, ..StoreChaosSpec::new(3) };
    let report = run_chaos_store(&spec, FaultPlan::new(3));
    assert_eq!(report.degraded_mask, 0);
    assert_eq!(report.generation, 0);
    assert!(report.recovery.is_none());
}
