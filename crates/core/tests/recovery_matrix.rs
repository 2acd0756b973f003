//! Per-window recovery matrix (requires `--features failpoints`).
//!
//! For every cataloged failpoint window: kill a writer inside it with a
//! deterministic single-threaded script, classify the death through the
//! effect marker (linearized ⇒ the op's effect is committed; not
//! linearized ⇒ no trace), then run online recovery and verify the whole
//! contract:
//!
//! 1. the committed key set — *exactly* as classified — is visible on the
//!    poisoned ordering chain, survives recovery untouched, and nothing
//!    else appears;
//! 2. the recovered map reports [`Health::Writable`] and passes the full
//!    (non-degraded) invariant sweep;
//! 3. the gate is genuinely open again: fresh inserts and removes complete.

#![cfg(feature = "failpoints")]

use lo_api::PoisonCause;
use lo_check::fail::{
    activate, effect_in_message, panic_message, take_injected_panic, FailPoint, FaultPlan,
};
use lo_core::{
    FallibleMap, Health, LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap, RecoveryReport,
    RepairStrategy,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Kills the writer driven by `op` at `point` (one-shot panic plan) and
/// returns whether the interrupted operation had linearized.
fn kill_at(point: FailPoint, op: impl FnOnce()) -> bool {
    let session = activate(FaultPlan::new(0xBAD_C0DE).panic_at(point));
    let outcome = catch_unwind(AssertUnwindSafe(op));
    assert_eq!(session.fired(), 1, "expected exactly one injection at {}", point.name());
    drop(session);
    let payload = outcome.expect_err("armed failpoint must kill the writer");
    assert_eq!(take_injected_panic(), Some(point), "injection marker must round-trip");
    let msg = panic_message(payload.as_ref()).expect("injected panic has a string payload");
    effect_in_message(msg).expect("injected panic carries an effect marker")
}

/// The scripted operation the armed failpoint interrupts.
#[derive(Clone, Copy)]
enum KillOp {
    Insert(i64),
    Remove(i64),
}

/// One matrix cell: prefill `prefill` (plan inactive), die inside `window`
/// while executing `op`, recover, and verify the full contract. Returns
/// the recovery report for per-window strategy assertions.
fn kill_recover_resume<M>(map: &M, window: FailPoint, prefill: &[i64], op: KillOp) -> RecoveryReport
where
    M: FallibleMap<i64, u64> + lo_api::QuiescentOrdered<i64> + lo_api::CheckInvariants,
{
    for &k in prefill {
        assert_eq!(map.try_insert(k, k as u64), Ok(true), "prefill of fresh key {k}");
    }
    let linearized = kill_at(window, || match op {
        KillOp::Insert(k) => {
            let _ = map.try_insert(k, 1000 + k as u64);
        }
        KillOp::Remove(k) => {
            let _ = map.try_remove(&k);
        }
    });

    // The exact committed set follows from the effect marker alone.
    let mut expected: Vec<i64> = prefill.to_vec();
    expected.sort_unstable();
    if linearized {
        match op {
            KillOp::Insert(k) => {
                expected.push(k);
                expected.sort_unstable();
            }
            KillOp::Remove(k) => expected.retain(|&x| x != k),
        }
    }
    assert_eq!(
        map.keys_in_order(),
        expected,
        "committed set on the poisoned chain at {}",
        window.name()
    );
    assert_eq!(
        map.health(),
        Health::Poisoned(PoisonCause::Failpoint(window.name())),
        "death at {} must poison with its own cause",
        window.name()
    );

    let report = map
        .try_recover()
        .unwrap_or_else(|e| panic!("recovery after a {} kill failed: {e}", window.name()));
    assert_eq!(report.cause, PoisonCause::Failpoint(window.name()));
    assert_eq!(
        report.nodes_salvaged,
        expected.len(),
        "salvage count at {}",
        window.name()
    );
    assert_eq!(report.generation, 1, "first recovery of this map");

    assert_eq!(map.health(), Health::Writable, "recovered map must be writable");
    assert_eq!(
        map.keys_in_order(),
        expected,
        "recovery must preserve the committed set exactly at {}",
        window.name()
    );
    // Healthy map: this is the full, non-degraded sweep (layout, parents,
    // heights, chain, locks).
    map.check_invariants();

    // Resume: the gate is open for real work again.
    let probe = 1 << 20;
    assert_eq!(map.try_insert(probe, 7), Ok(true), "post-recovery insert at {}", window.name());
    assert!(map.contains(&probe));
    assert_eq!(map.try_remove(&probe), Ok(true), "post-recovery remove at {}", window.name());
    assert_eq!(map.keys_in_order(), expected);
    map.check_invariants();
    report
}

#[test]
fn window_insert_ordering_linked() {
    // The node lives in the ordering chain but not the layout: the chain
    // is the truth, so recovery must rebuild the layout around it.
    let r = kill_recover_resume(
        &LoAvlMap::new(),
        FailPoint::InsertOrderingLinked,
        &[1, 3],
        KillOp::Insert(2),
    );
    assert_eq!(r.strategy, RepairStrategy::InPlace);
    kill_recover_resume(
        &LoBstMap::new(),
        FailPoint::InsertOrderingLinked,
        &[1, 3],
        KillOp::Insert(2),
    );
}

#[test]
fn window_remove_succ_tree_window() {
    // Pre-linearization kill: no damage beyond force-released locks.
    kill_recover_resume(
        &LoAvlMap::new(),
        FailPoint::RemoveSuccTreeWindow,
        &[1, 2, 3],
        KillOp::Remove(2),
    );
    // PE two-children removal crosses the same window before its zombie
    // store.
    kill_recover_resume(
        &LoPeAvlMap::new(),
        FailPoint::RemoveSuccTreeWindow,
        &[2, 1, 3],
        KillOp::Remove(2),
    );
}

#[test]
fn window_remove_after_mark() {
    // The victim is marked and spliced from the chain but stranded in the
    // layout: a layout orphan forces a rebuild.
    let r = kill_recover_resume(
        &LoAvlMap::new(),
        FailPoint::RemoveAfterMark,
        &[1, 2, 3],
        KillOp::Remove(2),
    );
    assert_eq!(r.strategy, RepairStrategy::InPlace);
    kill_recover_resume(
        &LoBstMap::new(),
        FailPoint::RemoveAfterMark,
        &[1, 2, 3],
        KillOp::Remove(2),
    );
}

#[test]
fn window_remove_mid_relocation() {
    // Two-children removal killed with the successor detached from its
    // old layout position and not yet relinked.
    kill_recover_resume(
        &LoAvlMap::new(),
        FailPoint::RemoveMidRelocation,
        &[2, 1, 3],
        KillOp::Remove(2),
    );
    kill_recover_resume(
        &LoBstMap::new(),
        FailPoint::RemoveMidRelocation,
        &[2, 1, 3],
        KillOp::Remove(2),
    );
}

#[test]
fn window_rotate_mid_heights() {
    // The third insert triggers the first rotation; the kill leaves child
    // pointers rewired with stale height bookkeeping. BSTs never rotate,
    // so this window is AVL-only.
    kill_recover_resume(&LoAvlMap::new(), FailPoint::RotateMid, &[1, 2], KillOp::Insert(3));
}

#[test]
fn window_pe_after_mark() {
    // PE ≤1-child removal takes the on-time physical path and dies
    // between the mark and the `update_child` splice.
    kill_recover_resume(&LoPeAvlMap::new(), FailPoint::PeAfterMark, &[1, 2], KillOp::Remove(2));
    kill_recover_resume(&LoPeBstMap::new(), FailPoint::PeAfterMark, &[1, 2], KillOp::Remove(2));
}

#[test]
fn window_tree_try_lock() {
    // A panic (not a forced failure) at the first layout-lock attempt.
    kill_recover_resume(&LoAvlMap::new(), FailPoint::TreeTryLock, &[1, 3], KillOp::Insert(2));
}

#[test]
fn window_arena_alloc() {
    // Death inside allocation: nothing was published, nothing may appear.
    let r = kill_recover_resume(&LoAvlMap::new(), FailPoint::ArenaAlloc, &[1], KillOp::Insert(2));
    assert_eq!(r.strategy, RepairStrategy::AuditOnly, "an unpublished death leaves no damage");
    kill_recover_resume(&LoBstMap::new(), FailPoint::ArenaAlloc, &[1], KillOp::Insert(2));
}

/// The streaming-rebuild strategy — normally reserved for untrusted-chain
/// damage — must pass the same matrix contract when forced, on both the
/// internal and partially-external flavors.
#[test]
fn forced_streaming_covers_the_matrix_contract() {
    struct Hook;
    impl Drop for Hook {
        fn drop(&mut self) {
            lo_core::force_streaming_rebuild(false);
        }
    }
    let _hook = Hook;
    lo_core::force_streaming_rebuild(true);
    let r = kill_recover_resume(
        &LoAvlMap::new(),
        FailPoint::RemoveAfterMark,
        &[1, 2, 3],
        KillOp::Remove(2),
    );
    assert_eq!(r.strategy, RepairStrategy::StreamingRebuild);
    let r = kill_recover_resume(
        &LoPeAvlMap::new(),
        FailPoint::PeAfterMark,
        &[1, 2],
        KillOp::Remove(2),
    );
    assert_eq!(r.strategy, RepairStrategy::StreamingRebuild);
}
