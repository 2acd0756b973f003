//! Panic-safety integration tests (require `--features failpoints`).
//!
//! Each test kills a writer inside one cataloged failpoint window and then
//! verifies the three-part contract from DESIGN.md §13:
//!
//! 1. the dead writer's locks were released and the tree was atomically
//!    poisoned with the failpoint as the cause;
//! 2. the lock-free read path stays *correct* — the key universe observed
//!    after the death matches the linearization-point semantics (an op
//!    killed after its linearization point took effect, one killed before
//!    did not);
//! 3. all further writes are rejected with `TreeError::Poisoned` while the
//!    quiescent invariant check still passes (in degraded mode).
//!
//! Plan-holding tests are serialized process-wide by the
//! `lo_check::fail::PlanSession` mutex, so the default parallel test
//! runner is safe.

#![cfg(feature = "failpoints")]

use lo_api::CheckInvariants;
use lo_check::fail::{
    activate, effect_in_message, kill_at, panic_message, take_injected_panic, FailPoint, FaultPlan,
};
use lo_core::{
    set_max_restarts, FallibleMap, LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap, PoisonCause,
    TreeError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Post-death contract shared by every kill scenario.
fn assert_poisoned_by<M>(map: &M, point: FailPoint)
where
    M: FallibleMap<i64, u64> + lo_api::CheckInvariants,
{
    let expect = TreeError::Poisoned(PoisonCause::Failpoint(point.name()));
    assert_eq!(map.poisoned(), Some(expect));
    assert_eq!(map.try_insert(1 << 40, 0), Err(expect), "writers must be rejected");
    assert_eq!(map.try_remove(&(1 << 40)), Err(expect), "removers must be rejected");
    // Degraded-mode invariant sweep: ordering chain intact, no lock left
    // held by the dead writer.
    map.check_invariants();
}

#[test]
fn insert_killed_after_ordering_link_is_effective() {
    let m = LoAvlMap::new();
    let linearized = kill_at(FailPoint::InsertOrderingLinked, || {
        let _ = m.try_insert(5, 50);
    });
    assert!(linearized, "the ordering-layout link is past the linearization point");
    // The node is in the ordering layout only; lookups must still find it.
    assert!(m.contains(&5));
    assert_eq!(m.get(&5), Some(50));
    assert_eq!(m.keys_in_order(), vec![5]);
    assert_poisoned_by(&m, FailPoint::InsertOrderingLinked);
}

#[test]
fn remove_killed_before_mark_is_ineffective() {
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    let linearized = kill_at(FailPoint::RemoveSuccTreeWindow, || {
        let _ = m.try_remove(&2);
    });
    assert!(!linearized, "the succ/tree-lock window precedes the mark store");
    assert!(m.contains(&2), "unlinearized remove leaves the key present");
    assert_eq!(m.keys_in_order(), vec![1, 2, 3]);
    assert_poisoned_by(&m, FailPoint::RemoveSuccTreeWindow);
}

#[test]
fn remove_killed_after_mark_is_effective() {
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    let linearized = kill_at(FailPoint::RemoveAfterMark, || {
        let _ = m.try_remove(&2);
    });
    assert!(linearized, "the mark store is the linearization point");
    // The node is stranded in the tree layout, but marked and spliced out
    // of the ordering layout: reads must report it gone.
    assert!(!m.contains(&2));
    assert_eq!(m.get(&2), None);
    assert!(m.contains(&1) && m.contains(&3), "neighbors unaffected");
    assert_eq!(m.keys_in_order(), vec![1, 3]);
    assert_poisoned_by(&m, FailPoint::RemoveAfterMark);
}

/// Two-children removal: the successor (3) is detached from its old layout
/// position and the writer dies before relinking it. The ordering layout
/// must still reach it.
fn relocation_kill<M>(m: &M)
where
    M: FallibleMap<i64, u64> + lo_api::QuiescentOrdered<i64> + lo_api::CheckInvariants,
{
    for k in [2i64, 1, 3] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    let linearized = kill_at(FailPoint::RemoveMidRelocation, || {
        let _ = m.try_remove(&2);
    });
    assert!(linearized, "relocation happens after the mark store");
    assert!(!m.contains(&2));
    assert!(m.contains(&1), "untouched neighbor stays");
    assert!(m.contains(&3), "half-relocated successor must stay readable");
    assert_eq!(m.keys_in_order(), vec![1, 3]);
    assert_poisoned_by(m, FailPoint::RemoveMidRelocation);
}

#[test]
fn remove_killed_mid_relocation_keeps_readers_correct() {
    relocation_kill(&LoBstMap::new());
    relocation_kill(&LoAvlMap::new());
}

#[test]
fn rotation_killed_mid_heights_keeps_all_keys() {
    let m = LoAvlMap::new();
    let linearized = kill_at(FailPoint::RotateMid, || {
        for k in [1i64, 2, 3] {
            // The third insert triggers the first rotation.
            let _ = m.try_insert(k, k as u64);
        }
    });
    assert!(linearized, "the rotating insert had already linearized");
    for k in [1i64, 2, 3] {
        assert!(m.contains(&k), "key {k} must survive the interrupted rotation");
    }
    assert_eq!(m.keys_in_order(), vec![1, 2, 3]);
    assert_poisoned_by(&m, FailPoint::RotateMid);
}

#[test]
fn pe_remove_killed_after_mark_is_effective() {
    let m = LoPeBstMap::new();
    for k in [1i64, 2] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    // Key 2 has <= 1 children: the partially-external remove takes the
    // on-time physical path and dies between the mark and the splice.
    let linearized = kill_at(FailPoint::PeAfterMark, || {
        let _ = m.try_remove(&2);
    });
    assert!(linearized);
    assert!(!m.contains(&2));
    assert!(m.contains(&1));
    assert_eq!(m.keys_in_order(), vec![1]);
    assert_poisoned_by(&m, FailPoint::PeAfterMark);
}

#[test]
fn pe_zombie_removal_survives_succ_window_kill() {
    // Two-children PE removal is purely logical (the zombie store); the
    // pre-linearization window kill leaves the key present.
    let m = LoPeAvlMap::new();
    for k in [2i64, 1, 3] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    let linearized = kill_at(FailPoint::RemoveSuccTreeWindow, || {
        let _ = m.try_remove(&2);
    });
    assert!(!linearized);
    assert!(m.contains(&2));
    assert_eq!(m.keys_in_order(), vec![1, 2, 3]);
    assert_poisoned_by(&m, FailPoint::RemoveSuccTreeWindow);
}

/// Restores the restart-bound override on drop (panic-safe).
struct RestartGuard;
impl Drop for RestartGuard {
    fn drop(&mut self) {
        set_max_restarts(0);
    }
}

#[test]
fn restart_storm_trips_the_budget_and_poisons() {
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        assert_eq!(m.try_insert(k, k as u64), Ok(true));
    }
    let _guard = RestartGuard;
    set_max_restarts(8);
    let session = activate(FaultPlan::new(7).fail_at(FailPoint::TreeTryLock, u64::MAX));
    let outcome = catch_unwind(AssertUnwindSafe(|| m.try_remove(&2)));
    let fired = session.fired();
    drop(session);

    let payload = outcome.expect_err("starved writer must trip the storm tripwire");
    assert_eq!(take_injected_panic(), None, "storm trips are not injected panics");
    let msg = panic_message(payload.as_ref()).expect("storm panic has a message");
    assert!(msg.contains("LO_MAX_RESTARTS"), "message names the tripwire: {msg}");
    assert_eq!(effect_in_message(msg), Some(false), "the starved remove never linearized");
    assert!(fired >= 8, "every restart burned a forced try-lock failure (fired {fired})");

    assert_eq!(m.poisoned(), Some(TreeError::Poisoned(PoisonCause::RestartStorm)));
    assert!(m.contains(&2), "the starved remove had no effect");
    assert_eq!(m.keys_in_order(), vec![1, 2, 3]);
    m.check_invariants_report();
}

#[test]
fn alloc_failure_is_clean_and_retryable() {
    let m = LoAvlMap::new();
    let session = activate(FaultPlan::new(3).fail_at(FailPoint::ArenaAlloc, 1));
    assert_eq!(m.try_insert(7, 70), Err(TreeError::AllocFailed));
    assert_eq!(m.poisoned(), None, "allocation failure must not poison");
    assert_eq!(m.try_insert(7, 70), Ok(true), "retry succeeds after the budget");
    drop(session);
    assert!(m.contains(&7));
    let report = m.check_invariants_report();
    assert!(!report.degraded);
}

#[test]
fn infallible_surface_panics_on_alloc_failure_without_poisoning() {
    let m = LoBstMap::new();
    let session = activate(FaultPlan::new(4).fail_at(FailPoint::ArenaAlloc, 1));
    let outcome = catch_unwind(AssertUnwindSafe(|| m.insert(9, 90)));
    drop(session);
    let payload = outcome.expect_err("infallible insert must panic on AllocFailed");
    let msg = panic_message(payload.as_ref()).expect("panic has a message");
    assert!(msg.contains("allocation failed"), "unexpected message: {msg}");
    assert_eq!(m.poisoned(), None, "rejection panics outside the scope: no poisoning");
    assert!(m.insert(9, 90), "map stays fully writable");
    m.check_invariants();
}

#[test]
fn infallible_surface_panics_on_poisoned_without_reposioning() {
    let m = LoAvlMap::new();
    assert_eq!(m.try_insert(1, 10), Ok(true));
    kill_at(FailPoint::RemoveAfterMark, || {
        let _ = m.try_remove(&1);
    });
    let original = m.poisoned().expect("kill must poison");
    // The infallible ConcurrentMap surface reports the poisoning as a
    // panic but must not overwrite the recorded first cause.
    let outcome = catch_unwind(AssertUnwindSafe(|| m.insert(2, 20)));
    let payload = outcome.expect_err("infallible insert must panic on a poisoned tree");
    let msg = panic_message(payload.as_ref()).expect("panic has a message");
    assert!(msg.contains("remove-after-mark"), "panic names the original cause: {msg}");
    assert_eq!(m.poisoned(), Some(original), "first cause wins");
}

#[test]
fn delays_and_forced_failures_are_survivable() {
    // Non-lethal chaos: seeded delays inside the windows plus budgeted
    // forced try-lock failures. Everything must complete and stay healthy.
    let m = LoAvlMap::new();
    let session = activate(
        FaultPlan::new(0x5EED)
            .delay_at(FailPoint::RemoveAfterMark, 256, 2)
            .delay_at(FailPoint::InsertOrderingLinked, 256, 2)
            .delay_at(FailPoint::RotateMid, 128, 2)
            .fail_at(FailPoint::TreeTryLock, 32),
    );
    let ticket = session.ticket();
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let m = &m;
            s.spawn(move || {
                ticket.join();
                for i in 0..200i64 {
                    let k = (t * 17 + i * 31) % 32;
                    if i % 3 == 0 {
                        let _ = m.try_remove(&k);
                    } else {
                        let _ = m.try_insert(k, i as u64);
                    }
                }
            });
        }
    });
    assert!(session.fired() > 0, "the plan must actually have injected something");
    drop(session);
    assert_eq!(m.poisoned(), None, "survivable chaos must not poison");
    let report = m.check_invariants_report();
    assert!(!report.degraded);
}
