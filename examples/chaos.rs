//! Seeded chaos demo: kill writers inside every cataloged failpoint
//! window, then show that readers stay correct and the poisoned tree
//! rejects further writes.
//!
//! Run with fault injection compiled in:
//!
//! ```text
//! cargo run --release --features failpoints --example chaos
//! LO_CHAOS_SEED=7 cargo run --release --features failpoints --example chaos
//! ```
//!
//! Without `--features failpoints` the failpoint call sites are compiled
//! out; the example then skips the targeted kill scenarios and still runs
//! the mixed-workload rounds (which observe zero faults) — so the same
//! binary doubles as the no-op smoke test for default builds.

use lo_check::fail::{activate, kill_at, FailPoint, FaultPlan};
use lo_trees::workload::{run_chaos, ChaosSpec};
use lo_trees::{
    FallibleMap, LoAvlMap, LoBstMap, LoPeBstMap, PoisonCause, TreeError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn seed() -> u64 {
    std::env::var("LO_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

/// The dead writer must have poisoned the tree with its failpoint as the
/// cause, and the tree must reject writers from now on.
fn assert_poisoned_by<M: FallibleMap<i64, u64>>(map: &M, point: FailPoint, linearized: bool) {
    let err = map.poisoned().expect("writer death must poison the tree");
    assert_eq!(err, TreeError::Poisoned(PoisonCause::Failpoint(point.name())));
    assert!(matches!(map.try_insert(99, 0), Err(TreeError::Poisoned(_))));
    println!(
        "  kill @ {:<24} -> op {}, tree poisoned, writers rejected",
        point.name(),
        if linearized { "took effect" } else { "had no effect" },
    );
}

fn targeted_kills() {
    println!("targeted writer kills (one per failpoint window):");

    // Insert, after the ordering-layout linearization point but before the
    // node is linked into the tree layout: the key IS in the set.
    let m = LoAvlMap::new();
    let point = FailPoint::InsertOrderingLinked;
    let linearized = kill_at(point, || {
        let _ = m.try_insert(5, 50);
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(linearized);
    assert!(m.contains(&5), "linearized insert is visible through the ordering layout");

    // Remove, between succ-lock and tree-lock acquisition: before the
    // linearization point, so the key survives.
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        m.try_insert(k, 0).unwrap();
    }
    let point = FailPoint::RemoveSuccTreeWindow;
    let linearized = kill_at(point, || {
        let _ = m.try_remove(&2);
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(!linearized);
    assert!(m.contains(&2), "unlinearized remove must leave the key present");

    // Remove, after the mark store (linearization point) but before the
    // physical unlink: the key is GONE even though its node is still in
    // the tree layout.
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        m.try_insert(k, 0).unwrap();
    }
    let point = FailPoint::RemoveAfterMark;
    let linearized = kill_at(point, || {
        let _ = m.try_remove(&2);
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(linearized);
    assert!(!m.contains(&2), "linearized remove is visible despite the stranded layout");
    assert!(m.contains(&1) && m.contains(&3), "neighbors unaffected");

    // Remove of a two-children node, mid successor relocation: the victim
    // is logically gone; the half-relocated successor stays readable.
    let m = LoBstMap::new();
    for k in [2i64, 1, 3] {
        m.try_insert(k, 0).unwrap();
    }
    let point = FailPoint::RemoveMidRelocation;
    let linearized = kill_at(point, || {
        let _ = m.try_remove(&2);
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(linearized);
    assert!(!m.contains(&2));
    assert!(m.contains(&1) && m.contains(&3), "relocated successor still found");

    // Rotation, after the child pointers are rewired but before the height
    // stores: the triggering insert had already linearized.
    let m = LoAvlMap::new();
    let point = FailPoint::RotateMid;
    let linearized = kill_at(point, || {
        for k in [1i64, 2, 3] {
            // The third insert triggers the first rotation.
            m.try_insert(k, 0).unwrap();
        }
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(linearized);
    for k in [1i64, 2, 3] {
        assert!(m.contains(&k), "all inserted keys visible mid-rotation");
    }

    // Partially-external remove, after the mark but before the physical
    // splice: same observable outcome as `remove-after-mark`.
    let m = LoPeBstMap::new();
    for k in [1i64, 2] {
        m.try_insert(k, 0).unwrap();
    }
    let point = FailPoint::PeAfterMark;
    let linearized = kill_at(point, || {
        let _ = m.try_remove(&2);
    });
    assert_poisoned_by(&m, point, linearized);
    assert!(linearized);
    assert!(!m.contains(&2) && m.contains(&1));
}

fn restart_storm() {
    // Forced try_lock failures starve a remove's tree-lock phase; the
    // restart-budget tripwire converts the livelock into a poisoned tree.
    println!("restart storm (forced try-lock failures under a restart budget of 16):");
    let m = LoAvlMap::new();
    for k in [1i64, 2, 3] {
        m.try_insert(k, 0).unwrap();
    }
    lo_trees::set_max_restarts(16);
    let session = activate(FaultPlan::new(seed()).fail_at(FailPoint::TreeTryLock, u64::MAX));
    let outcome = catch_unwind(AssertUnwindSafe(|| m.try_remove(&2)));
    let fired = session.fired();
    drop(session);
    lo_trees::set_max_restarts(0);

    assert!(outcome.is_err(), "the storm tripwire must abort the writer");
    assert!(fired >= 16, "every restart burned a forced failure (fired {fired})");
    assert_eq!(m.poisoned(), Some(TreeError::Poisoned(PoisonCause::RestartStorm)));
    assert!(m.contains(&2), "the starved remove never linearized");
    println!("  remove(2) aborted after {fired} forced failures; cause: RestartStorm");
}

fn alloc_exhaustion() {
    // Simulated allocator exhaustion surfaces as a clean error, not a
    // poisoning: the tree stays healthy and the retry succeeds.
    println!("allocation failure (simulated, budget 1):");
    let m = LoAvlMap::new();
    let session = activate(FaultPlan::new(seed()).fail_at(FailPoint::ArenaAlloc, 1));
    assert_eq!(m.try_insert(7, 70), Err(TreeError::AllocFailed));
    assert_eq!(m.poisoned(), None, "allocation failure must not poison");
    assert_eq!(m.try_insert(7, 70), Ok(true), "retry succeeds once the budget is spent");
    drop(session);
    println!("  first insert: AllocFailed (tree healthy); retry: ok");
}

fn chaos_rounds(injecting: bool) {
    println!("mixed-workload chaos rounds (seed {:#x}):", seed());

    // Round 1: sampled panics across the write-path windows, AVL tree.
    let plan = FaultPlan::new(seed())
        .delay_at(FailPoint::RemoveSuccTreeWindow, 512, 3)
        .with(
            FailPoint::InsertOrderingLinked,
            lo_check::fail::FaultRule::once(lo_check::fail::FaultAction::Panic).skip(40),
        )
        .delay_at(FailPoint::RotateMid, 256, 2);
    let map = LoAvlMap::new();
    let report = run_chaos(&map, &ChaosSpec { initial: 0xFF, ..ChaosSpec::new(seed()) }, plan);
    println!(
        "  avl:    {} ops, {} injected panics, {} rejected writes, poisoned: {}",
        report.ops_completed,
        report.injected_panics,
        report.rejected_writes,
        report.poisoned.map_or("no".into(), |e| format!("yes ({e})")),
    );
    if injecting {
        assert_eq!(report.injected_panics, 1, "the armed one-shot panic must land");
        assert!(report.poisoned.is_some());
    }
    // With the flight recorder live (`--features metrics`), the killed-writer
    // round leaves a post-mortem: every thread's ring as Chrome Trace Event
    // JSON, loadable in Perfetto / chrome://tracing.
    // A dump can only exist when the probes were compiled in
    // (`lo_trees::metrics::ENABLED`).
    if let Some(dump) = &report.post_mortem {
        let path = "chaos_postmortem_trace.json";
        match std::fs::write(path, dump) {
            Ok(()) => println!("  post-mortem flight recording: {path} ({} bytes)", dump.len()),
            Err(e) => println!("  post-mortem flight recording: write failed: {e}"),
        }
    } else if lo_trees::metrics::ENABLED && injecting {
        panic!("traced killed-writer round must capture a post-mortem dump");
    }

    // Round 2: delays and budgeted try-lock failures only — survivable
    // chaos; the tree must come out healthy. A fifth of the read share is
    // diverted to range scans so the streaming cursor rides the same storm.
    let plan = FaultPlan::new(seed() ^ 1)
        .delay_at(FailPoint::RemoveAfterMark, 512, 4)
        .delay_at(FailPoint::PeAfterMark, 512, 4)
        .fail_at(FailPoint::TreeTryLock, 64);
    let map = LoPeBstMap::new();
    let spec = ChaosSpec { initial: 0xF0F0, scan_pct: 20, ..ChaosSpec::new(seed() ^ 1) };
    let report = run_chaos(&map, &spec, plan);
    println!(
        "  pe-bst: {} ops ({} scans, {} keys yielded), {} faults fired, poisoned: {}",
        report.ops_completed,
        report.scans_completed,
        report.scan_keys_yielded,
        report.total_fired(),
        if report.poisoned.is_some() { "yes" } else { "no" },
    );
    assert_eq!(report.poisoned, None, "survivable chaos must not poison");
    assert_eq!(report.ops_completed, (spec.threads * spec.ops_per_thread) as u64);
    assert!(report.scans_completed > 0, "a 20% scan share must roll some scans");

    // Round 3: tiny recorded session through the WGL linearizability
    // checker with a mid-window panic armed. Scans ride along and are
    // cross-checked for coherence against the recorded point-op history.
    let plan = FaultPlan::new(seed() ^ 2).with(
        FailPoint::RemoveAfterMark,
        lo_check::fail::FaultRule::once(lo_check::fail::FaultAction::Panic).skip(2),
    );
    let map = LoAvlMap::new();
    let spec = ChaosSpec {
        threads: 4,
        keys: 8,
        ops_per_thread: 7,
        initial: 0b1011_0110,
        check_linearizability: true,
        scan_pct: 15,
        ..ChaosSpec::new(seed() ^ 2)
    };
    let report = run_chaos(&map, &spec, plan);
    println!(
        "  lin:    {} recorded ops linearizable, {} coherent scans ({} injected panic{})",
        report.history_len,
        report.scans_completed,
        report.injected_panics,
        if report.injected_panics == 1 { "" } else { "s" },
    );
}

fn main() {
    // Record the hot-path flight recorder for the whole demo (a no-op
    // without `--features metrics`), so a poisoning round dumps real spans.
    lo_trees::metrics::set_recording(true);
    let injecting = cfg!(feature = "failpoints");
    println!(
        "fault injection: {}",
        if injecting { "compiled in (--features failpoints)" } else { "compiled out (no-op build)" }
    );
    if injecting {
        targeted_kills();
        restart_storm();
        alloc_exhaustion();
    } else {
        println!("skipping targeted kill scenarios (failpoints are no-ops in this build)");
    }
    chaos_rounds(injecting);
    println!("chaos demo complete: readers stayed coherent, poisoning behaved as specified.");
}
