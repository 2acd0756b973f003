//! Seeded chaos harness: mixed workloads under an active fault plan.
//!
//! [`run_chaos`] drives a mixed insert/remove/contains workload against any
//! [`FallibleMap`] while a [`FaultPlan`] is installed, catching every
//! injected writer death and classifying it through the panic effect
//! markers (`[lo-fault:op-linearized]` / `[lo-fault:op-not-linearized]`);
//! an unmarked panic is a genuine bug and is re-raised. The same storm
//! loop drives [`run_chaos_recovery`] (45/35/0 insert/remove/scan
//! percentages, against 40/30/[`ChaosSpec::scan_pct`] here) and the
//! store round [`crate::run_chaos_store`] (40/30/10), and the two
//! recovering rounds share one recover-under-load phase and one
//! read-coherence check.
//!
//! After the storm, [`run_chaos`] verifies the survivors' world:
//!
//! * the full quiescent invariant check (poison-aware: a poisoned tree is
//!   validated in degraded mode — ordering-chain invariants still hold);
//! * read coherence: `contains` agrees with the ordered key snapshot for
//!   every key in the universe, poisoned or not;
//! * scan liveness: streaming range scans (enabled via
//!   [`ChaosSpec::scan_pct`]) complete mid-storm and at quiescence even on
//!   a poisoned tree, obey the cursor contract (strict ascent, window
//!   bounds), and — when recording — pass the scan-coherence checker
//!   ([`lo_check::scan`]) against the operation history;
//! * writer rejection: a poisoned tree refuses `try_insert`/`try_remove`
//!   with [`TreeError::Poisoned`];
//! * optionally, linearizability of the recorded history via the
//!   exhaustive WGL checker ([`lo_check::lin`]) — interrupted operations
//!   count as completed iff they passed their linearization point.
//!
//! Fault injection only happens in builds where `lo-core` has its
//! `failpoints` feature on; under a default build the harness still runs
//! the workload and the checks, it just observes zero fired faults.
//! Everything is deterministic from [`ChaosSpec::seed`] (modulo OS
//! scheduling, which picks *which thread* hits an occurrence, never whether
//! that occurrence fires).

// The harness's history/scan logs are guarded by plain std mutexes, not
// tree-protocol locks (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use lo_api::{
    CheckInvariants, ConcurrentMap, FallibleMap, Health, OrderedRead, QuiescentOrdered,
    RecoverError, RecoveryReport, TreeError,
};
use lo_check::fail::{
    activate, effect_in_message, panic_message, silence_injected_panics, take_injected_panic,
    FailPoint, FaultPlan, SessionTicket,
};
use lo_check::lin::{is_linearizable, CompletedOp, LinOp, Recorder};
use lo_check::rng::{Rng, Seeder};
use lo_check::scan::{check_scan_coherence, ScanObservation};

/// Workload shape for a chaos run. All fields are public; [`ChaosSpec::new`]
/// fills in defaults sized for a fast, deterministic test.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Worker threads.
    pub threads: usize,
    /// Key universe `0..keys` (at most 64: the linearizability checker
    /// models set state as a 64-bit mask).
    pub keys: u64,
    /// Operations attempted per thread (40% insert / 30% remove, with the
    /// rest split between `contains` and range scans per
    /// [`ChaosSpec::scan_pct`]).
    pub ops_per_thread: usize,
    /// Percentage of operations that are range scans (carved out of the
    /// `contains` share; at most 30). Scans walk an 8-key window from the
    /// drawn key through the lock-free cursor, are checked inline for
    /// strict ascent and window bounds, and — when recording — are
    /// verified for scan coherence against the history afterwards.
    /// Defaults to 0, which leaves the classic op stream byte-identical.
    pub scan_pct: u32,
    /// Seed for the per-thread operation streams (independent of the
    /// [`FaultPlan`] seed).
    pub seed: u64,
    /// Bitmask of keys present before the run starts (prefilled with the
    /// plan *inactive*, so prefill never faults).
    pub initial: u64,
    /// Record the history and run the exhaustive WGL checker afterwards.
    /// Requires `threads * ops_per_thread <= 28` (the checker is
    /// exponential in history length).
    pub check_linearizability: bool,
    /// Suppress the default panic-hook backtrace for *injected* panics
    /// (anything carrying an effect marker); genuine panics still print.
    pub quiet: bool,
}

impl ChaosSpec {
    /// Defaults: 4 threads, 16 keys, 200 ops/thread, no recording, quiet.
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            threads: 4,
            keys: 16,
            ops_per_thread: 200,
            scan_pct: 0,
            seed,
            initial: 0,
            check_linearizability: false,
            quiet: true,
        }
    }
}

/// What a chaos run did and observed. Counters are exact (every attempted
/// operation lands in exactly one of `ops_completed`, `injected_panics`,
/// `aborted_ops`, `rejected_writes`, `alloc_failures`).
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Operations that ran to completion (including failed inserts of
    /// present keys etc. — "completed" means returned, not "succeeded").
    pub ops_completed: u64,
    /// Writer deaths injected by an armed failpoint.
    pub injected_panics: u64,
    /// Writers that died on a *consequence* of a fault rather than an
    /// injection: poisoned-tree aborts at restart edges and restart-storm
    /// budget trips.
    pub aborted_ops: u64,
    /// Writes rejected up front with [`TreeError::Poisoned`].
    pub rejected_writes: u64,
    /// Writes turned away with [`TreeError::Recovering`] (a recoverer held
    /// the gate; only possible when a chaos round overlaps a recovery).
    pub recovering_writes: u64,
    /// Writes that observed [`TreeError::AllocFailed`].
    pub alloc_failures: u64,
    /// Range scans that ran to completion (a subset of `ops_completed`).
    pub scans_completed: u64,
    /// Keys yielded across all completed scans.
    pub scan_keys_yielded: u64,
    /// Per-point injected-fault counts, indexed like [`FailPoint::ALL`].
    pub fired: [u64; FailPoint::COUNT],
    /// Poison state of the map after the run.
    pub poisoned: Option<TreeError>,
    /// Recorded history length (0 unless
    /// [`ChaosSpec::check_linearizability`]).
    pub history_len: usize,
    /// Flight-recorder post-mortem dump (Chrome Trace Event JSON of every
    /// thread's ring), captured when the run left the map poisoned. `None`
    /// when the map survived, when a dump for this poisoning was already
    /// taken, or in builds without the `metrics` feature.
    pub post_mortem: Option<String>,
}

impl ChaosReport {
    /// Total injected faults across all points (delays and forced
    /// failures included, not just panics).
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// Runs the chaos workload described by `spec` against `map` under `plan`,
/// then runs the post-mortem checks (see module docs). Panics on any
/// violated check; returns the run's accounting otherwise.
pub fn run_chaos<M>(map: &M, spec: &ChaosSpec, plan: FaultPlan) -> ChaosReport
where
    M: FallibleMap<i64, u64> + OrderedRead<i64> + QuiescentOrdered<i64> + CheckInvariants + Sync,
{
    assert!(spec.threads > 0 && spec.ops_per_thread > 0, "empty chaos spec");
    assert!(spec.keys > 0 && spec.keys <= 64, "key universe must be 1..=64");
    assert!(spec.scan_pct <= 30, "scans are carved out of the 30% contains share");
    if spec.check_linearizability {
        assert!(
            spec.threads * spec.ops_per_thread <= 28,
            "linearizability checking needs threads * ops_per_thread <= 28"
        );
    }

    // Prefill before arming the plan: the initial state never faults.
    for k in 0..spec.keys {
        if spec.initial & (1 << k) != 0 {
            assert_eq!(map.try_insert(k as i64, k), Ok(true), "prefill of fresh key");
        }
    }

    let quiet = spec.quiet.then(silence_injected_panics);
    let session = activate(plan);
    // Re-arm the flight-recorder post-mortem latch: if this round's storm
    // poisons the map, exactly one dump becomes available below. Chaos
    // runs are serialized by the plan session, so the global latch is ours
    // until the session drops.
    lo_metrics::flight::arm_post_mortem();

    let recording = spec.check_linearizability.then(Recording::default);
    let counts = StormCounts::default();
    let mut seeder = Seeder::new(spec.seed);
    let seeds: Vec<u64> = (0..spec.threads).map(|_| seeder.next_u64()).collect();
    let storm = Storm {
        keys: spec.keys,
        ops_per_thread: spec.ops_per_thread,
        mix: [40, 30, u64::from(spec.scan_pct)],
        ticket: Some(session.ticket()),
        recording: recording.as_ref(),
    };
    storm.run(map, &seeds, &counts);

    let fired = session.fired_counts();
    // Flight-recorder post-mortem: when the storm poisoned the map (and
    // spans are live), take the one-shot Chrome-trace dump of every
    // thread's ring for the report. Take it before the session ends: the
    // next round's re-arm would otherwise clear this round's latch.
    let post_mortem = lo_metrics::flight::take_post_mortem();
    drop(session);
    if let Some(restore) = quiet {
        restore();
    }

    // ---- post-mortem checks (quiescent) ----
    let poisoned = map.poisoned();

    // 1. Full invariant sweep; degraded automatically when poisoned.
    map.check_invariants();

    // 2. Read coherence, poisoned or not: point reads and streaming scans
    //    agree with the ordering-layout snapshot.
    assert_reads_coherent(map, spec.keys, &format!("(poisoned: {poisoned:?})"));

    // 3. A poisoned tree must keep rejecting writers.
    if poisoned.is_some() {
        assert!(
            matches!(map.try_insert(i64::MAX, 0), Err(TreeError::Poisoned(_))),
            "poisoned tree accepted an insert"
        );
        assert!(
            matches!(map.try_remove(&0), Err(TreeError::Poisoned(_))),
            "poisoned tree accepted a remove"
        );
    }

    // 4. Linearizability of the recorded history, and coherence of every
    //    recorded scan against it.
    let mut history_len = 0;
    if let Some(recording) = recording {
        let (history, scans) = recording.into_sorted();
        history_len = history.len();
        assert!(
            is_linearizable(&history, spec.initial),
            "chaos history (len {history_len}) is not linearizable under seed {}",
            spec.seed
        );
        if let Err(v) = check_scan_coherence(&history, &scans, spec.initial) {
            panic!("chaos scan incoherent under seed {}: {v}", spec.seed);
        }
    }

    ChaosReport {
        ops_completed: counts.ops_completed.into_inner(),
        injected_panics: counts.injected_panics.into_inner(),
        aborted_ops: counts.aborted_ops.into_inner(),
        rejected_writes: counts.rejected_writes.into_inner(),
        recovering_writes: counts.recovering_writes.into_inner(),
        alloc_failures: counts.alloc_failures.into_inner(),
        scans_completed: counts.scans_completed.into_inner(),
        scan_keys_yielded: counts.scan_keys_yielded.into_inner(),
        fired,
        poisoned,
        history_len,
        post_mortem,
    }
}

/// Shape of a kill→recover→resume round (see [`run_chaos_recovery`]).
///
/// Recovery rounds *always* record and WGL-check the combined history of
/// both phases, so the total operation count —
/// `threads * (storm_ops + resume_ops)` plus the one mid-recovery writer —
/// must stay `<= 28`.
#[derive(Clone, Debug)]
pub struct RecoverySpec {
    /// Worker threads per phase.
    pub threads: usize,
    /// Key universe `0..keys` (at most 64, as in [`ChaosSpec`]).
    pub keys: u64,
    /// Operations per thread in the storm phase (under the armed plan).
    pub storm_ops: usize,
    /// Operations per thread in the resume phase (after recovery; every
    /// one of them must complete — the gate is open again).
    pub resume_ops: usize,
    /// Seed for the per-thread operation streams.
    pub seed: u64,
    /// Bitmask of keys to prefill (plan-inactive; the bits must not
    /// already be present). The WGL initial state is taken from the map
    /// *after* prefill, so repeated rounds against one map — e.g. to kill
    /// and recover the same tree twice — stay checkable with `initial: 0`.
    pub initial: u64,
    /// Suppress the panic-hook backtrace for injected panics.
    pub quiet: bool,
}

impl RecoverySpec {
    /// Defaults: 3 threads, 8 keys, 5 storm + 3 resume ops per thread
    /// (25 recorded ops including the mid-recovery writer), quiet.
    pub fn new(seed: u64) -> Self {
        RecoverySpec {
            threads: 3,
            keys: 8,
            storm_ops: 5,
            resume_ops: 3,
            seed,
            initial: 0b0110_1101,
            quiet: true,
        }
    }
}

/// What a kill→recover→resume round did and observed.
#[derive(Clone, Debug)]
pub struct RecoveryRoundReport {
    /// Poison state after the storm (`None` if the armed kill never
    /// landed, in which case recovery was asserted to decline).
    pub cause: Option<TreeError>,
    /// The recoverer's post-mortem, when a recovery ran.
    pub recovery: Option<RecoveryReport>,
    /// Writer deaths injected by the armed failpoint during the storm.
    pub injected_panics: u64,
    /// Writers that died on a consequence of the fault (poisoned-tree
    /// aborts at restart edges).
    pub aborted_ops: u64,
    /// Writes rejected with [`TreeError::Poisoned`] (storm phase and the
    /// mid-recovery writer's pre-quarantine attempts).
    pub rejected_writes: u64,
    /// Writes turned away with [`TreeError::Recovering`] while the
    /// recoverer held the gate.
    pub recovering_writes: u64,
    /// Length of the combined (storm + recovery-writer + resume) history
    /// that passed the WGL check.
    pub history_len: usize,
}

impl RecoveryRoundReport {
    /// Whether the armed kill actually landed (and a recovery ran).
    pub fn killed(&self) -> bool {
        self.cause.is_some()
    }
}

/// Runs one kill→recover→resume round against `map`:
///
/// 1. **storm** — a recorded workload under the armed `plan`; an injected
///    writer death poisons the map and is classified through the effect
///    markers;
/// 2. **recover** — [`FallibleMap::try_recover`] runs on its own thread
///    while a reader thread keeps sweeping `contains` (lock-free reads
///    never block) and a writer thread retries an insert until the gate
///    reopens, counting its [`TreeError::Recovering`] rejections;
/// 3. **resume** — a second recorded workload on the recovered map, every
///    operation of which must complete (no rejections, no deaths);
/// 4. **verify** — the committed key set read off the poisoned chain
///    survives recovery exactly (every linearized op's effect is intact;
///    no unlinearized effect appears), the map ends
///    [`Health::Writable`] with the *full* invariant set, `contains` and a
///    full-range scan agree with the ordered snapshot, and the combined
///    history of all three phases passes the WGL linearizability check.
///
/// If the armed kill never lands (shape-dependent windows may not be
/// crossed by a tiny storm), the round instead asserts that recovery on
/// the healthy map declines with [`RecoverError::NotPoisoned`] and still
/// runs the resume phase and the combined checks.
///
/// Panics on any violated check; returns the round's accounting otherwise.
pub fn run_chaos_recovery<M>(map: &M, spec: &RecoverySpec, plan: FaultPlan) -> RecoveryRoundReport
where
    M: FallibleMap<i64, u64> + OrderedRead<i64> + QuiescentOrdered<i64> + CheckInvariants + Sync,
{
    assert!(spec.threads > 0 && spec.storm_ops > 0, "empty recovery round");
    assert!(spec.keys > 0 && spec.keys <= 64, "key universe must be 1..=64");
    let total = spec.threads * (spec.storm_ops + spec.resume_ops) + 1;
    assert!(
        total <= 28,
        "recovery rounds always WGL-check: {total} ops exceed the checker bound of 28"
    );

    for k in 0..spec.keys {
        if spec.initial & (1 << k) != 0 {
            assert_eq!(map.try_insert(k as i64, k), Ok(true), "prefill of fresh key");
        }
    }
    // The WGL initial state is whatever the map actually holds now (prior
    // rounds against the same map included), not just the prefill bits.
    let mut initial_mask = 0u64;
    for k in map.keys_in_order() {
        if (0..spec.keys as i64).contains(&k) {
            initial_mask |= 1 << k as u64;
        }
    }

    let quiet = spec.quiet.then(silence_injected_panics);
    let recording = Recording::default();
    let storm = StormCounts::default();
    let resumed = StormCounts::default();

    let mut seeder = Seeder::new(spec.seed);
    let storm_seeds: Vec<u64> = (0..spec.threads).map(|_| seeder.next_u64()).collect();
    let resume_seeds: Vec<u64> = (0..spec.threads).map(|_| seeder.next_u64()).collect();
    let mut phase = Storm {
        keys: spec.keys,
        ops_per_thread: spec.storm_ops,
        mix: [45, 35, 0],
        ticket: None,
        recording: Some(&recording),
    };

    // ---- phase 1: storm under the armed plan ----
    {
        let session = activate(plan);
        phase.ticket = Some(session.ticket());
        phase.run(map, &storm_seeds, &storm);
        drop(session); // recovery and resume run fault-free
    }

    // ---- phase 2: recover (with live readers and a queued writer) ----
    let cause = map.poisoned();
    let recovery = if cause.is_some() {
        // Committed state, read off the ordering chain of the poisoned
        // tree. Recovery must preserve it exactly: every operation that
        // linearized before the death keeps its effect, every one that
        // did not leaves no trace. (The mid-recovery writer below only
        // ever *inserts* `probe_key`, the one delta tolerated.)
        let before = map.keys_in_order();
        let probe_key = (spec.seed % spec.keys) as i64;
        // A writer arriving mid-recovery is turned away (Recovering once
        // quarantine begins, Poisoned if it races ahead of the hand-off
        // CAS) and retries until the gate reopens.
        let (outcome, writer_op) = recover_under_load(map, 0..spec.keys as i64, |done| {
            let invoke = recording.clock.stamp();
            loop {
                match map.try_insert(probe_key, u64::MAX) {
                    Ok(result) => {
                        return Some(CompletedOp {
                            op: LinOp::Insert,
                            key: probe_key as u8,
                            result,
                            invoke,
                            response: recording.clock.stamp(),
                        });
                    }
                    Err(e) => {
                        storm.refused(e).fetch_add(1, Ordering::Relaxed);
                    }
                }
                if done.load(Ordering::Acquire) && map.poisoned().is_some() {
                    return None; // recovery failed; asserted below
                }
                std::hint::spin_loop();
            }
        });
        let report = outcome.unwrap_or_else(|e| panic!("recovery of a killed tree failed: {e:?}"));
        assert!(report.generation >= 1, "recovery must bump the generation");
        assert!(
            report.nodes_salvaged >= before.len(),
            "salvage count {} below the {} committed keys",
            report.nodes_salvaged,
            before.len()
        );
        let after = map.keys_in_order();
        for &k in &before {
            assert!(after.contains(&k), "key {k} linearized before the kill was lost by recovery");
        }
        for &k in &after {
            assert!(
                before.contains(&k) || k == probe_key,
                "recovery fabricated key {k} out of thin air"
            );
        }
        let op = writer_op.expect("recovery succeeded, so the queued writer must have landed");
        recording.ops.lock().expect("history mutex").push(op);
        Some(report)
    } else {
        // The one-shot never landed: recovery on a healthy map declines.
        assert!(
            matches!(map.try_recover(), Err(RecoverError::NotPoisoned)),
            "recovery of a healthy map must decline"
        );
        None
    };

    // ---- phase 3: resume on the reopened gate ----
    if spec.resume_ops > 0 {
        phase.ticket = None;
        phase.ops_per_thread = spec.resume_ops;
        phase.run(map, &resume_seeds, &resumed);
        assert_eq!(resumed.injected_panics.load(Ordering::Relaxed), 0);
        assert_eq!(resumed.aborted_ops.load(Ordering::Relaxed), 0);
        assert_eq!(
            resumed.rejected_writes.load(Ordering::Relaxed),
            0,
            "a recovered map must accept every writer again"
        );
        assert_eq!(resumed.recovering_writes.load(Ordering::Relaxed), 0);
    }

    if let Some(restore) = quiet {
        restore();
    }

    // ---- verify: writable, fully invariant, coherent, linearizable
    //      across the recovery boundary ----
    assert_eq!(map.health(), Health::Writable, "round must end writable");
    map.check_invariants();
    assert_reads_coherent(map, spec.keys, "after recovery");
    let (history, _) = recording.into_sorted();
    assert!(
        is_linearizable(&history, initial_mask),
        "kill→recover→resume history (len {}) is not linearizable under seed {}",
        history.len(),
        spec.seed
    );

    RecoveryRoundReport {
        cause,
        recovery,
        injected_panics: storm.injected_panics.into_inner(),
        aborted_ops: storm.aborted_ops.into_inner(),
        rejected_writes: storm.rejected_writes.into_inner(),
        recovering_writes: storm.recovering_writes.into_inner(),
        history_len: history.len(),
    }
}

/// Outcome counters of one storm. Every attempted operation lands in
/// exactly one of `ops_completed`, `injected_panics`, `aborted_ops`,
/// `rejected_writes`, `recovering_writes` and `alloc_failures`.
#[derive(Default)]
pub(crate) struct StormCounts {
    pub(crate) ops_completed: AtomicU64,
    pub(crate) injected_panics: AtomicU64,
    pub(crate) aborted_ops: AtomicU64,
    pub(crate) rejected_writes: AtomicU64,
    pub(crate) recovering_writes: AtomicU64,
    pub(crate) alloc_failures: AtomicU64,
    pub(crate) scans_completed: AtomicU64,
    pub(crate) scan_keys_yielded: AtomicU64,
}

impl StormCounts {
    /// The counter for a write turned away with `e` (it had no effect).
    fn refused(&self, e: TreeError) -> &AtomicU64 {
        match e {
            TreeError::Poisoned(_) => &self.rejected_writes,
            TreeError::Recovering => &self.recovering_writes,
            TreeError::AllocFailed => &self.alloc_failures,
        }
    }

    /// Counts a caught panic and returns whether the operation it killed
    /// had linearized. Injected deaths and marked aborts (a consequence of
    /// a fault, such as a poisoned-tree abort at a restart edge) count; an
    /// unmarked panic is a genuine bug and is re-raised.
    fn caught(&self, payload: Box<dyn Any + Send>) -> bool {
        let injected = take_injected_panic().is_some();
        let effect = panic_message(payload.as_ref()).and_then(effect_in_message);
        if !injected && effect.is_none() {
            resume_unwind(payload);
        }
        let ctr = if injected { &self.injected_panics } else { &self.aborted_ops };
        ctr.fetch_add(1, Ordering::Relaxed);
        effect == Some(true)
    }
}

/// A recorded history: one clock, the completed point operations and the
/// scan observations.
#[derive(Default)]
pub(crate) struct Recording {
    clock: Recorder,
    ops: Mutex<Vec<CompletedOp>>,
    scans: Mutex<Vec<ScanObservation>>,
}

impl Recording {
    /// The point-operation history sorted by invocation, and the scans.
    fn into_sorted(self) -> (Vec<CompletedOp>, Vec<ScanObservation>) {
        let mut ops = self.ops.into_inner().expect("history mutex");
        ops.sort_by_key(|c| c.invoke);
        (ops, self.scans.into_inner().expect("scan mutex"))
    }
}

/// One storm: `ops_per_thread` operations on each of its threads over keys
/// `0..keys`. A roll in `0..100` picks the operation: below `mix[0]` an
/// insert, below `mix[0] + mix[1]` a remove, in the top `mix[2]` an
/// 8-key range scan from the drawn key, and `contains` otherwise. Each
/// thread draws its key, then its roll, then (inserts only) its value.
pub(crate) struct Storm<'a> {
    pub(crate) keys: u64,
    pub(crate) ops_per_thread: usize,
    pub(crate) mix: [u64; 3],
    /// With a ticket the workers run under that session's plan; without
    /// one, fault-free.
    pub(crate) ticket: Option<SessionTicket>,
    /// Where completed operations are recorded; interrupted ones enter the
    /// history iff they passed their linearization point.
    pub(crate) recording: Option<&'a Recording>,
}

impl Storm<'_> {
    /// Runs one worker per seed against `map` and waits for all of them.
    pub(crate) fn run<M>(&self, map: &M, seeds: &[u64], counts: &StormCounts)
    where
        M: FallibleMap<i64, u64> + OrderedRead<i64> + Sync,
    {
        std::thread::scope(|s| {
            for &seed in seeds {
                s.spawn(move || self.worker(map, seed, counts));
            }
        });
    }

    fn worker<M>(&self, map: &M, seed: u64, counts: &StormCounts)
    where
        M: FallibleMap<i64, u64> + OrderedRead<i64>,
    {
        if let Some(ticket) = self.ticket {
            ticket.join();
        }
        let stamp = || self.recording.map(|r| r.clock.stamp());
        let [insert_pct, remove_pct, scan_pct] = self.mix;
        let mut rng = Rng::new(seed);
        for _ in 0..self.ops_per_thread {
            let key = rng.next_below(self.keys) as i64;
            let roll = rng.next_below(100);
            if roll >= 100 - scan_pct {
                // Lock-free read path: the scan must complete (and obey the
                // cursor contract) even mid-storm on a poisoned map.
                let hi = (key + 7).min(self.keys as i64 - 1);
                let invoke = stamp();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut ks = Vec::new();
                    map.scan_range(key..=hi, &mut |k| ks.push(k));
                    ks
                }));
                let response = stamp();
                let ks = match outcome {
                    Ok(ks) => ks,
                    Err(payload) => {
                        counts.caught(payload);
                        continue;
                    }
                };
                assert!(
                    ks.windows(2).all(|w| w[0] < w[1]),
                    "chaos scan yields not strictly ascending: {ks:?}"
                );
                assert!(
                    ks.iter().all(|&k| (key..=hi).contains(&k)),
                    "chaos scan strayed outside [{key}, {hi}]: {ks:?}"
                );
                counts.ops_completed.fetch_add(1, Ordering::Relaxed);
                counts.scans_completed.fetch_add(1, Ordering::Relaxed);
                counts.scan_keys_yielded.fetch_add(ks.len() as u64, Ordering::Relaxed);
                if let (Some(r), Some(invoke), Some(response)) = (self.recording, invoke, response) {
                    r.scans.lock().expect("scan mutex").push(ScanObservation {
                        lo: key as u8,
                        hi: hi as u8,
                        keys: ks.iter().map(|&k| k as u8).collect(),
                        invoke,
                        response,
                    });
                }
                continue;
            }
            let (op, val) = if roll < insert_pct {
                (LinOp::Insert, rng.next_u64())
            } else if roll < insert_pct + remove_pct {
                (LinOp::Remove, 0)
            } else {
                (LinOp::Contains, 0)
            };
            let invoke = stamp();
            let outcome = catch_unwind(AssertUnwindSafe(|| match op {
                LinOp::Insert => map.try_insert(key, val),
                LinOp::Remove => map.try_remove(&key),
                LinOp::Contains => Ok(map.contains(&key)),
            }));
            let response = stamp();
            let result = match outcome {
                Ok(Ok(result)) => {
                    counts.ops_completed.fetch_add(1, Ordering::Relaxed);
                    Some(result)
                }
                Ok(Err(e)) => {
                    counts.refused(e).fetch_add(1, Ordering::Relaxed);
                    None
                }
                // A writer killed *after* its linearization point completed
                // an effective insert/remove; one killed before had no effect.
                Err(payload) => counts.caught(payload).then_some(true),
            };
            if let (Some(r), Some(result), Some(invoke), Some(response)) =
                (self.recording, result, invoke, response)
            {
                r.ops.lock().expect("history mutex").push(CompletedOp {
                    op,
                    key: key as u8,
                    result,
                    invoke,
                    response,
                });
            }
        }
    }
}

/// Runs `map.try_recover()` on its own thread while a reader sweeps
/// `contains` over `sweep` and `writer` runs beside both; `writer` gets the
/// flag that turns true once the recoverer has returned. Lock-free reads
/// must keep completing throughout. Returns the recoverer's and the
/// writer's results.
pub(crate) fn recover_under_load<M, W>(
    map: &M,
    sweep: impl Iterator<Item = i64> + Clone + Send,
    writer: impl FnOnce(&AtomicBool) -> W + Send,
) -> (Result<RecoveryReport, RecoverError>, W)
where
    M: FallibleMap<i64, u64> + Sync,
    W: Send,
{
    let done = &AtomicBool::new(false);
    std::thread::scope(|s| {
        let recoverer = s.spawn(|| {
            let r = map.try_recover();
            done.store(true, Ordering::Release);
            r
        });
        let reader = s.spawn(move || {
            while !done.load(Ordering::Acquire) {
                for k in sweep.clone() {
                    let _ = map.contains(&k);
                }
            }
        });
        let writer = s.spawn(move || writer(done));
        let report = recoverer.join().expect("recoverer must not panic");
        reader.join().expect("mid-recovery reader must not panic");
        (report, writer.join().expect("mid-recovery writer must not panic"))
    })
}

/// Asserts that reads agree at quiescence: `contains` matches the ordered
/// snapshot for every key in `0..keys`, and a full-range scan yields the
/// snapshot exactly. `when` ends the failure messages.
pub(crate) fn assert_reads_coherent<M>(map: &M, keys: u64, when: &str)
where
    M: ConcurrentMap<i64, u64> + OrderedRead<i64> + QuiescentOrdered<i64>,
{
    let snapshot = map.keys_in_order();
    for k in 0..keys as i64 {
        assert_eq!(
            map.contains(&k),
            snapshot.binary_search(&k).is_ok(),
            "contains({k}) disagrees with the ordered snapshot {when}"
        );
    }
    let mut scanned = Vec::new();
    map.scan_range(0..=keys as i64 - 1, &mut |k| scanned.push(k));
    assert_eq!(scanned, snapshot, "full-range scan disagrees with the ordered snapshot {when}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness must run cleanly (zero faults) with an empty plan, on
    /// any build.
    #[test]
    fn clean_run_with_empty_plan() {
        let map = lo_core::LoAvlMap::new();
        let spec = ChaosSpec { initial: 0b1010, ..ChaosSpec::new(11) };
        let report = run_chaos(&map, &spec, FaultPlan::new(11));
        assert_eq!(report.total_fired(), 0);
        assert_eq!(report.injected_panics, 0);
        assert_eq!(report.poisoned, None);
        assert_eq!(
            report.ops_completed,
            (spec.threads * spec.ops_per_thread) as u64
        );
    }

    /// Tiny recorded session through the WGL checker, no faults.
    #[test]
    fn clean_run_is_linearizable() {
        let map = lo_core::LoBstMap::new();
        let spec = ChaosSpec {
            threads: 3,
            keys: 4,
            ops_per_thread: 9,
            initial: 0b0101,
            check_linearizability: true,
            ..ChaosSpec::new(23)
        };
        let report = run_chaos(&map, &spec, FaultPlan::new(23));
        assert_eq!(report.history_len, 27);
        assert_eq!(report.poisoned, None);
    }

    /// Scans interleave with the storm and keep the cursor contract; the
    /// classic counters still balance.
    #[test]
    fn scans_run_mid_storm() {
        let map = lo_core::LoAvlMap::new();
        let spec = ChaosSpec { scan_pct: 30, initial: 0b1111_0000, ..ChaosSpec::new(7) };
        let report = run_chaos(&map, &spec, FaultPlan::new(7));
        assert!(report.scans_completed > 0, "a 30% scan share must fire");
        assert_eq!(
            report.ops_completed,
            (spec.threads * spec.ops_per_thread) as u64
        );
    }

    /// Tiny recorded session with scans: history linearizable *and* every
    /// scan coherent against it.
    #[test]
    fn recorded_scans_are_coherent() {
        let map = lo_core::LoBstMap::new();
        let spec = ChaosSpec {
            threads: 3,
            keys: 8,
            ops_per_thread: 9,
            scan_pct: 30,
            initial: 0b1101,
            check_linearizability: true,
            ..ChaosSpec::new(41)
        };
        let report = run_chaos(&map, &spec, FaultPlan::new(41));
        assert!(report.scans_completed > 0);
        assert_eq!(
            report.history_len + report.scans_completed as usize,
            spec.threads * spec.ops_per_thread
        );
    }

    #[test]
    #[should_panic(expected = "threads * ops_per_thread")]
    fn oversized_recorded_session_rejected() {
        let map = lo_core::LoAvlMap::new();
        let spec = ChaosSpec { check_linearizability: true, ..ChaosSpec::new(1) };
        run_chaos(&map, &spec, FaultPlan::new(1));
    }
}
