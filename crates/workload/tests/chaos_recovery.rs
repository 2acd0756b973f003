//! Kill→recover→resume integration rounds (require `--features failpoints`
//! from the workspace root, so the dev-dependency `lo-core` is built with
//! fault injection compiled in).
//!
//! Every round runs [`lo_workload::run_chaos_recovery`]: a recorded storm
//! with a one-shot panic armed at one write-path window, online recovery
//! with live readers and a queued writer, a recorded resume workload, and
//! a WGL linearizability check over the combined history — every operation
//! that linearized before the death must survive recovery, every kill that
//! did not linearize must leave no trace. The deterministic per-window
//! damage matrix lives in `lo-core`'s `recovery_matrix` test; these rounds
//! exercise the same protocol under real concurrency.

#![cfg(feature = "failpoints")]

use lo_api::PoisonCause;
use lo_core::{LoAvlMap, LoPeAvlMap, TreeError};
use lo_workload::{run_chaos_recovery, RecoveryRoundReport, RecoverySpec};

use lo_check::fail::{activate, FailPoint, FaultPlan};

/// `lo-core`'s failpoints feature is unified in from the workspace root;
/// a bare `cargo test -p lo-workload --features failpoints` builds a
/// no-op `lo-core`. Detect that and skip rather than fail.
fn injection_compiled_in() -> bool {
    let session = activate(FaultPlan::new(0).fail_at(FailPoint::ArenaAlloc, 1));
    let probe: LoAvlMap<i64, u64> = LoAvlMap::new();
    let r = probe.try_insert(1, 1);
    drop(session);
    r == Err(TreeError::AllocFailed)
}

macro_rules! require_injection {
    () => {
        if !injection_compiled_in() {
            eprintln!("skipping: lo-core built without its failpoints feature");
            return;
        }
    };
}

/// One kill→recover→resume round with a one-shot panic at `window`. The
/// PE-only window runs on the partially-external variant; everything else
/// on the classic AVL map.
fn round(window: FailPoint, seed: u64) -> RecoveryRoundReport {
    let spec = RecoverySpec::new(seed);
    let plan = FaultPlan::new(seed).panic_at(window);
    if window == FailPoint::PeAfterMark {
        run_chaos_recovery(&LoPeAvlMap::new(), &spec, plan)
    } else {
        run_chaos_recovery(&LoAvlMap::new(), &spec, plan)
    }
}

/// Windows a tiny mixed workload crosses on its very first eligible
/// operation, so the armed one-shot panic is guaranteed to land.
/// (`PeAfterMark` is not among them: it sits on the ≤1-child physical
/// splice, and whether a storm remove lands on such a node — rather than
/// a two-children key that only turns zombie — is shape-dependent.)
const RELIABLE: [FailPoint; 5] = [
    FailPoint::InsertOrderingLinked,
    FailPoint::RemoveSuccTreeWindow,
    FailPoint::RemoveAfterMark,
    FailPoint::TreeTryLock,
    FailPoint::ArenaAlloc,
];

/// Every failpoint window, kill→recover→resume. The round harness itself
/// asserts the heavy lifting (linearized-op survival, no fabricated keys,
/// full invariants, `Health::Writable`, combined-history WGL); this test
/// adds the per-window accounting: the right cause was recorded, the
/// recovery report is non-empty, and the reliably-crossed windows did die.
#[test]
fn kill_recover_resume_across_all_windows() {
    require_injection!();
    let mut killed = 0;
    for (i, window) in FailPoint::ALL.into_iter().enumerate() {
        let report = round(window, 0xC0FFEE + i as u64);
        if report.killed() {
            killed += 1;
            assert_eq!(
                report.injected_panics, 1,
                "one-shot plan at {} fired more than once",
                window.name()
            );
            assert_eq!(
                report.cause,
                Some(TreeError::Poisoned(PoisonCause::Failpoint(window.name()))),
                "death at {} must poison with its own cause",
                window.name()
            );
            let recovery = report.recovery.as_ref().expect("a killed round must recover");
            assert_eq!(recovery.cause, PoisonCause::Failpoint(window.name()));
            assert!(recovery.generation >= 1, "recovery must bump the generation");
        } else {
            // Shape-dependent windows (mid-relocation, rotation, the PE
            // splice) may not be crossed by 15 storm ops;
            // the harness then asserted that recovery declined cleanly.
            assert!(
                !RELIABLE.contains(&window),
                "the armed kill at {} must land in every round",
                window.name()
            );
            assert!(report.recovery.is_none());
        }
    }
    assert!(
        killed >= RELIABLE.len(),
        "only {killed} of {} windows produced a kill",
        FailPoint::COUNT
    );
}

/// A recovered map is a *fully* live map: kill it a second time and
/// recover again. The recovery generation must keep climbing, and the
/// second round's WGL check runs against the first round's surviving
/// state (the harness reads its initial mask off the map).
#[test]
fn recovered_map_survives_a_second_kill() {
    require_injection!();
    let map = LoAvlMap::new();
    let first = run_chaos_recovery(
        &map,
        &RecoverySpec::new(31),
        FaultPlan::new(31).panic_at(FailPoint::RemoveAfterMark),
    );
    assert!(first.killed(), "remove-after-mark must land");
    let gen1 = first.recovery.as_ref().expect("first recovery").generation;

    let second = run_chaos_recovery(
        &map,
        &RecoverySpec { initial: 0, ..RecoverySpec::new(32) },
        FaultPlan::new(32).panic_at(FailPoint::InsertOrderingLinked),
    );
    assert!(second.killed(), "insert-ordering-linked must land");
    let gen2 = second.recovery.as_ref().expect("second recovery").generation;
    assert!(gen2 > gen1, "generation must climb across recoveries ({gen1} -> {gen2})");
}

/// The storm phase keeps the classic poisoned-tree semantics: writers that
/// arrive after the death and before recovery are rejected up front, and
/// those rejections leave no trace in the (linearizable) history.
#[test]
fn post_death_writers_are_rejected_then_resumed() {
    require_injection!();
    let report = round(FailPoint::RemoveAfterMark, 7);
    assert!(report.killed());
    // Whether any storm thread raced past the death is scheduling-luck,
    // but the accounting must balance: rejections + the queued writer's
    // retries all happened on a poisoned or recovering map that ended
    // writable (asserted in the harness).
    assert!(report.history_len > 0, "the round must record a history");
}
