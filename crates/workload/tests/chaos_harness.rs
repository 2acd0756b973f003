//! Seeded chaos-harness integration tests (require `--features failpoints`
//! from the workspace root, so the dev-dependency `lo-core` is built with
//! fault injection compiled in).

#![cfg(feature = "failpoints")]

use lo_check::fail::{activate, FailPoint, FaultAction, FaultPlan, FaultRule};
use lo_core::{LoAvlMap, LoPeAvlMap, TreeError};
use lo_workload::{run_chaos, ChaosSpec};

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

/// A fixed-seed storm arming a panic at every write-path window; the
/// run must end poisoned with readers coherent (asserted inside
/// `run_chaos`) and exactly one injected death.
#[test]
fn storm_with_panics_at_each_window_stays_coherent() {
    require_injection!();
    for point in [
        FailPoint::InsertOrderingLinked,
        FailPoint::RemoveSuccTreeWindow,
        FailPoint::RemoveAfterMark,
        FailPoint::RemoveMidRelocation,
        FailPoint::RotateMid,
    ] {
        let map = LoAvlMap::new();
        let plan = FaultPlan::new(42).with(point, FaultRule::once(FaultAction::Panic).skip(8));
        let spec = ChaosSpec { initial: 0x0F0F, ..ChaosSpec::new(42) };
        let report = run_chaos(&map, &spec, plan);
        // RemoveMidRelocation/RotateMid need specific shapes and may not
        // be crossed 9+ times in a short run; every other point must die.
        if report.injected_panics > 0 {
            assert_eq!(report.injected_panics, 1, "one-shot plan at {}", point.name());
            assert!(report.poisoned.is_some(), "death at {} must poison", point.name());
        } else {
            assert_eq!(
                report.poisoned, None,
                "no injection at {} must leave the tree healthy",
                point.name()
            );
        }
    }
}

/// The PE variant under the PE-specific window, with enough load that the
/// one-shot panic reliably lands.
#[test]
fn pe_storm_dies_at_pe_after_mark() {
    require_injection!();
    let map = LoPeAvlMap::new();
    let plan = FaultPlan::new(7).panic_at(FailPoint::PeAfterMark);
    let spec = ChaosSpec { threads: 4, ops_per_thread: 400, initial: 0xFFFF, ..ChaosSpec::new(7) };
    let report = run_chaos(&map, &spec, plan);
    assert_eq!(report.injected_panics, 1);
    assert_eq!(report.fired[FailPoint::PeAfterMark.index()], 1);
    assert!(report.poisoned.is_some());
    assert!(report.rejected_writes > 0, "post-death writers must have been rejected");
}

/// Deterministic replay: with a single worker (no scheduling freedom)
/// identical seeds reproduce the run exactly — same occurrence counts,
/// same firings, same outcome. (With multiple workers only the per-
/// occurrence *decisions* are deterministic; how many occurrences each
/// interleaving produces is up to the scheduler.)
#[test]
fn same_seed_same_faults_single_threaded() {
    require_injection!();
    let run = |seed: u64| {
        let map = LoAvlMap::new();
        let plan = FaultPlan::new(seed)
            .delay_at(FailPoint::RemoveAfterMark, 128, 3)
            .fail_at(FailPoint::TreeTryLock, 4);
        let spec =
            ChaosSpec { threads: 1, ops_per_thread: 800, initial: 0xFF, ..ChaosSpec::new(seed) };
        run_chaos(&map, &spec, plan)
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a.fired, b.fired, "same plan seed must fire identically");
    assert_eq!(a.poisoned, b.poisoned);
    assert_eq!(a.ops_completed, b.ops_completed);
    assert!(a.total_fired() > 0, "the plan must have injected something");
}

/// Mid-window panic under a recorded session: the surviving history —
/// including the interrupted-but-linearized operation — passes the WGL
/// linearizability check (asserted inside `run_chaos`).
#[test]
fn interrupted_history_is_linearizable() {
    require_injection!();
    let map = LoAvlMap::new();
    let plan = FaultPlan::new(99)
        .with(FailPoint::RemoveAfterMark, FaultRule::once(FaultAction::Panic).skip(1));
    let spec = ChaosSpec {
        threads: 4,
        keys: 8,
        ops_per_thread: 7,
        initial: 0b0110_1101,
        check_linearizability: true,
        ..ChaosSpec::new(99)
    };
    let report = run_chaos(&map, &spec, plan);
    assert!(report.history_len <= 28);
    if report.injected_panics > 0 {
        assert!(report.poisoned.is_some());
    }
}

/// Simulated allocator exhaustion inside the storm: sampled `AllocFailed`
/// rejections must leave the tree healthy and every failure retryable.
#[test]
fn alloc_exhaustion_is_survivable() {
    require_injection!();
    let map = LoAvlMap::new();
    let plan = FaultPlan::new(5).with(
        FailPoint::ArenaAlloc,
        FaultRule::always(FaultAction::Fail).one_in(4).budget(32),
    );
    let spec = ChaosSpec { initial: 0xF0, ..ChaosSpec::new(5) };
    let report = run_chaos(&map, &spec, plan);
    assert!(report.alloc_failures > 0, "the sampled alloc failpoint must have fired");
    assert_eq!(report.alloc_failures, report.fired[FailPoint::ArenaAlloc.index()]);
    assert_eq!(report.poisoned, None, "alloc failures must not poison");
}

/// A killed-writer round with the flight recorder on must capture exactly
/// one post-mortem dump: parseable Chrome Trace Event JSON with at least
/// one complete span from the storm, and a drained one-shot latch after.
#[cfg(feature = "metrics")]
#[test]
fn killed_writer_round_produces_post_mortem_dump() {
    require_injection!();
    lo_metrics::set_recording(true);
    let map = LoAvlMap::new();
    let plan = FaultPlan::new(9).panic_at(FailPoint::RemoveAfterMark);
    let spec =
        ChaosSpec { threads: 4, ops_per_thread: 400, initial: 0xFFFF, ..ChaosSpec::new(9) };
    let report = run_chaos(&map, &spec, plan);
    lo_metrics::set_recording(false);
    assert_eq!(report.injected_panics, 1, "the armed one-shot panic must land");
    assert!(report.poisoned.is_some());
    let dump = report
        .post_mortem
        .as_deref()
        .expect("a poisoned traced run must capture a post-mortem");
    assert!(dump.starts_with("{\"displayTimeUnit\":\"ns\""), "chrome-trace shape: {dump:.40}");
    assert!(dump.contains("\"traceEvents\":["));
    assert!(dump.ends_with("]}"));
    assert!(
        dump.contains("\"ph\":\"X\""),
        "the dump must contain the storm's spans, not an empty ring set"
    );
    // The latch is one-shot per poisoning: a second take yields nothing.
    // Hold a fault-free session for the check, so a concurrent test's
    // round cannot arm and poison in between.
    let _exclusive = activate(FaultPlan::new(0));
    assert_eq!(lo_metrics::flight::take_post_mortem(), None);
}

/// Range scans keep completing — and stay coherent — on a tree that gets
/// poisoned mid-run: a one-shot panic kills a writer after its mark store,
/// later writers are rejected, but the scan share of every surviving
/// worker's stream still runs to completion (strict ascent and bounds are
/// asserted inside `run_chaos`, and the post-mortem full-range scan is
/// checked against the ordered snapshot of the poisoned tree).
#[test]
fn scans_survive_poisoning() {
    require_injection!();
    let map = LoAvlMap::new();
    let plan = FaultPlan::new(5).panic_at(FailPoint::RemoveAfterMark);
    let spec = ChaosSpec {
        threads: 4,
        ops_per_thread: 400,
        initial: 0xFFFF,
        scan_pct: 25,
        ..ChaosSpec::new(5)
    };
    let report = run_chaos(&map, &spec, plan);
    assert_eq!(report.injected_panics, 1, "the armed one-shot panic must land");
    assert!(report.poisoned.is_some(), "writer death must poison the tree");
    assert!(report.rejected_writes > 0, "post-death writers must be rejected");
    // The three surviving workers process every one of their draws: scans
    // and lookups complete, writes complete or are rejected. Only the dead
    // worker's remaining draws are lost.
    assert!(
        report.ops_completed + report.rejected_writes
            >= ((spec.threads - 1) * spec.ops_per_thread) as u64,
        "survivors must drain their whole op stream ({} completed + {} rejected)",
        report.ops_completed,
        report.rejected_writes
    );
    // A quarter of ~1200 surviving draws are scans; all of them must have
    // completed (coherence is asserted per scan inside the harness).
    assert!(
        report.scans_completed >= 150,
        "scans must keep completing on the poisoned tree (got {})",
        report.scans_completed
    );
}
