//! Failpoint registry: seeded, budgeted fault plans for crosscut injection.
//!
//! `lo-core` (behind its `failpoints` cargo feature) calls [`fire`] at a
//! fixed catalog of named crosscut points — the sensitive windows of the
//! logical-ordering algorithms (after a linearization-point store but
//! before the physical unlink, mid successor relocation, between succ-lock
//! and tree-lock acquisition, inside rotation height updates, …). A test
//! or chaos run installs a [`FaultPlan`] via [`activate`]; each plan rule
//! decides *deterministically* — from the plan seed, the point identity and
//! the per-point occurrence counter — whether a given crossing injects a
//! seeded delay, a forced `try_lock` failure, or a panic.
//!
//! A plan fires only on the threads of its session: the thread that called
//! [`activate`], and the workers that [`SessionTicket::join`] a ticket from
//! [`PlanSession::ticket`]. Every other thread crosses the points as if no
//! plan were armed, so a test running beside an armed one is never faulted
//! by it and never shifts its occurrence counts.
//!
//! Design constraints:
//!
//! * **Always compiled, never hot.** This module has no cargo feature of
//!   its own; with no plan active, [`fire`] is a single relaxed atomic
//!   load. The zero-cost-when-off guarantee for production builds lives in
//!   `lo-core`, whose call sites compile to empty `#[inline(always)]`
//!   no-ops unless its `failpoints` feature is on.
//! * **Deterministic replay.** Firing decisions are pure functions of
//!   `(seed, point, occurrence#)` — no wall clock, no thread-local RNG —
//!   so a failing chaos seed replays exactly (modulo OS scheduling, which
//!   only changes *which thread* reaches an occurrence, not whether that
//!   occurrence fires).
//! * **No unsafe, no deps, Miri-clean** — like the rest of `lo-check`.

// The failpoint registry's plan storage is harness state behind plain std
// locks, not tree-protocol locks (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};

use crate::rng::Seeder;

/// Named crosscut points in `lo-core`'s update paths.
///
/// The variant order is stable: `PoisonCause::Failpoint` codes and the
/// chaos harness's per-point budgets index by `as usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FailPoint {
    /// Insert/put: after the linearization point (`pred.succ := new`) and
    /// succ-unlock, before `insert_to_tree` links the node into the layout.
    InsertOrderingLinked,
    /// Remove: after `s.lock_succ()` succeeds, before tree-lock
    /// acquisition begins (the succ-lock/tree-lock window).
    RemoveSuccTreeWindow,
    /// Remove: after the mark store (linearization point) and the ordering
    /// splice + succ unlocks, before `remove_from_tree`.
    RemoveAfterMark,
    /// Remove, two-children case: after the successor is detached from its
    /// old layout position, before it is relinked in place of the victim.
    RemoveMidRelocation,
    /// Rotation: after child pointers are rewired, before the height
    /// stores that restore the AVL bookkeeping.
    RotateMid,
    /// Partially-external remove: after the mark store and succ unlocks,
    /// before the physical `update_child` splice.
    PeAfterMark,
    /// Tree-lock `try_lock`: force a failure (feeds the restart loops).
    TreeTryLock,
    /// Node allocation: simulate allocator exhaustion.
    ArenaAlloc,
}

impl FailPoint {
    /// Number of cataloged failpoints.
    pub const COUNT: usize = 8;

    /// Every failpoint, in `repr` order.
    pub const ALL: [FailPoint; Self::COUNT] = [
        FailPoint::InsertOrderingLinked,
        FailPoint::RemoveSuccTreeWindow,
        FailPoint::RemoveAfterMark,
        FailPoint::RemoveMidRelocation,
        FailPoint::RotateMid,
        FailPoint::PeAfterMark,
        FailPoint::TreeTryLock,
        FailPoint::ArenaAlloc,
    ];

    /// Stable kebab-case name (used in error messages and reports).
    pub const fn name(self) -> &'static str {
        match self {
            FailPoint::InsertOrderingLinked => "insert-ordering-linked",
            FailPoint::RemoveSuccTreeWindow => "remove-succ-tree-window",
            FailPoint::RemoveAfterMark => "remove-after-mark",
            FailPoint::RemoveMidRelocation => "remove-mid-relocation",
            FailPoint::RotateMid => "rotate-mid-heights",
            FailPoint::PeAfterMark => "pe-after-mark",
            FailPoint::TreeTryLock => "tree-try-lock",
            FailPoint::ArenaAlloc => "arena-alloc",
        }
    }

    /// Index into [`FailPoint::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Spin/yield for roughly the given number of backoff units, widening
    /// the race window without changing the outcome.
    Delay(u32),
    /// Force the operation at the point to fail (e.g. a `try_lock`
    /// returns `false`, an allocation returns `None`).
    Fail,
    /// Panic, simulating a thread dying inside the window.
    Panic,
}

/// A per-point rule: what to inject, how often, and how many times.
#[derive(Clone, Copy, Debug)]
pub struct FaultRule {
    /// The injected effect.
    pub action: FaultAction,
    /// Fire on (deterministically) one in `one_in` eligible occurrences.
    /// `1` means every eligible occurrence.
    pub one_in: u64,
    /// Skip the first `skip` occurrences unconditionally.
    pub skip: u64,
    /// Fire at most `budget` times; `u64::MAX` means unlimited.
    pub budget: u64,
}

impl FaultRule {
    /// Rule that fires on every occurrence, forever.
    pub const fn always(action: FaultAction) -> Self {
        FaultRule { action, one_in: 1, skip: 0, budget: u64::MAX }
    }

    /// Rule that fires exactly once, on the first occurrence.
    pub const fn once(action: FaultAction) -> Self {
        FaultRule { action, one_in: 1, skip: 0, budget: 1 }
    }

    /// Set the sampling rate (fire on ~one in `one_in` occurrences).
    pub const fn one_in(mut self, one_in: u64) -> Self {
        self.one_in = if one_in == 0 { 1 } else { one_in };
        self
    }

    /// Skip the first `skip` occurrences.
    pub const fn skip(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }

    /// Cap the number of firings.
    pub const fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }
}

/// A seeded set of per-point rules, installable via [`activate`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed mixed into every sampling decision.
    pub seed: u64,
    rules: [Option<FaultRule>; FailPoint::COUNT],
}

impl FaultPlan {
    /// Empty plan (no point armed) under the given seed.
    pub const fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: [None; FailPoint::COUNT] }
    }

    /// Arm `point` with `rule` (builder style).
    pub const fn with(mut self, point: FailPoint, rule: FaultRule) -> Self {
        self.rules[point.index()] = Some(rule);
        self
    }

    /// Arm a one-shot panic at `point`.
    pub const fn panic_at(self, point: FailPoint) -> Self {
        self.with(point, FaultRule::once(FaultAction::Panic))
    }

    /// Arm an unbounded seeded delay at `point`.
    pub const fn delay_at(self, point: FailPoint, units: u32, one_in: u64) -> Self {
        self.with(point, FaultRule::always(FaultAction::Delay(units)).one_in(one_in))
    }

    /// Arm a budgeted forced failure at `point`.
    pub const fn fail_at(self, point: FailPoint, budget: u64) -> Self {
        self.with(point, FaultRule::always(FaultAction::Fail).budget(budget))
    }

    /// The rule armed at `point`, if any.
    pub const fn rule(&self, point: FailPoint) -> Option<FaultRule> {
        self.rules[point.index()]
    }
}

/// Live plan state: the plan plus per-point occurrence/fired counters.
struct ActivePlan {
    /// The session id; only its member threads fire.
    id: u64,
    plan: FaultPlan,
    seen: [AtomicU64; FailPoint::COUNT],
    fired: [AtomicU64; FailPoint::COUNT],
}

impl ActivePlan {
    fn new(id: u64, plan: FaultPlan) -> Self {
        ActivePlan {
            id,
            plan,
            seen: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Fast-path gate: true iff a plan is installed.
static ACTIVE_ON: AtomicBool = AtomicBool::new(false);

/// Source of session ids; 0 means "no session".
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The session this thread belongs to (0: none). A stale id from an
    /// ended session never matches again, because ids are not reused.
    static MEMBER: Cell<u64> = const { Cell::new(0) };
}

fn active() -> &'static RwLock<Option<ActivePlan>> {
    static ACTIVE: OnceLock<RwLock<Option<ActivePlan>>> = OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(None))
}

fn session_mutex() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

/// RAII handle for an activated [`FaultPlan`].
///
/// Holding a `PlanSession` serializes all plan-activating tests in the
/// process (a global mutex), and the plan fires only on the session's
/// member threads, so concurrent `#[test]` functions cannot see each
/// other's faults. Dropping it deactivates the plan.
pub struct PlanSession {
    id: u64,
    _serial: MutexGuard<'static, ()>,
}

/// Membership in one [`PlanSession`], handed to the worker threads that
/// should run under its plan.
#[derive(Clone, Copy, Debug)]
pub struct SessionTicket(u64);

impl SessionTicket {
    /// Makes the calling thread a member of the ticket's session, leaving
    /// any earlier session.
    pub fn join(self) {
        MEMBER.with(|m| m.set(self.0));
    }
}

impl PlanSession {
    /// A ticket that makes a worker thread a member of this session.
    pub fn ticket(&self) -> SessionTicket {
        SessionTicket(self.id)
    }

    /// Total number of injected faults across all points so far.
    pub fn fired(&self) -> u64 {
        self.fired_counts().iter().sum()
    }

    /// Per-point injected-fault counts, indexed like [`FailPoint::ALL`].
    pub fn fired_counts(&self) -> [u64; FailPoint::COUNT] {
        let guard = active().read().unwrap();
        match guard.as_ref() {
            Some(a) => std::array::from_fn(|i| a.fired[i].load(Ordering::Relaxed)),
            None => [0; FailPoint::COUNT],
        }
    }

    /// Per-point occurrence (crossing) counts, fired or not.
    pub fn seen_counts(&self) -> [u64; FailPoint::COUNT] {
        let guard = active().read().unwrap();
        match guard.as_ref() {
            Some(a) => std::array::from_fn(|i| a.seen[i].load(Ordering::Relaxed)),
            None => [0; FailPoint::COUNT],
        }
    }
}

impl Drop for PlanSession {
    fn drop(&mut self) {
        ACTIVE_ON.store(false, Ordering::Release);
        *active().write().unwrap() = None;
    }
}

/// Install `plan`, make the calling thread a member of its session, and
/// return the session handle.
///
/// Blocks until any other active session is dropped.
pub fn activate(plan: FaultPlan) -> PlanSession {
    let serial = match session_mutex().lock() {
        Ok(g) => g,
        // A previous session's *test* panicked while holding the guard;
        // the registry itself is still consistent.
        Err(poisoned) => poisoned.into_inner(),
    };
    let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    *active().write().unwrap() = Some(ActivePlan::new(id, plan));
    ACTIVE_ON.store(true, Ordering::Release);
    let session = PlanSession { id, _serial: serial };
    session.ticket().join();
    session
}

/// Evaluate the failpoint `point`. Returns the action to inject, if any.
///
/// With no plan active this is a single atomic load. On a thread outside
/// the active session it returns `None` without counting the crossing.
/// Call sites in `lo-core` are themselves feature-gated, so release builds
/// never reach even that.
pub fn fire(point: FailPoint) -> Option<FaultAction> {
    if !ACTIVE_ON.load(Ordering::Acquire) {
        return None;
    }
    let member = MEMBER.with(Cell::get);
    let guard = active().read().unwrap();
    let a = guard.as_ref().filter(|a| a.id == member)?;
    let rule = a.plan.rule(point)?;
    let idx = point.index();
    // Occurrence number is claimed unconditionally so decisions stay a
    // pure function of (seed, point, occurrence#).
    let occ = a.seen[idx].fetch_add(1, Ordering::Relaxed);
    if occ < rule.skip {
        return None;
    }
    if rule.one_in > 1 {
        // One seed-sequence step decorrelates the (seed, point, occurrence) mix.
        let h = Seeder::new(a.plan.seed ^ ((idx as u64) << 32) ^ occ.wrapping_mul(0x632b_e5ab))
            .next_u64();
        if !h.is_multiple_of(rule.one_in) {
            return None;
        }
    }
    // Claim a slot under the budget.
    let claimed = a.fired[idx]
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            if n < rule.budget {
                Some(n + 1)
            } else {
                None
            }
        })
        .is_ok();
    if claimed {
        Some(rule.action)
    } else {
        None
    }
}

thread_local! {
    /// Set by `lo-core` right before it raises an injected panic, so a
    /// harness's `catch_unwind` can tell injected faults from real bugs.
    static INJECTED: Cell<Option<FailPoint>> = const { Cell::new(None) };
}

/// Record (thread-locally) that the next unwind on this thread is an
/// injected fault at `point`. Called by `lo-core` only.
pub fn note_injected_panic(point: FailPoint) {
    INJECTED.with(|c| c.set(Some(point)));
}

/// Take the pending injected-fault marker for this thread, if any.
pub fn take_injected_panic() -> Option<FailPoint> {
    INJECTED.with(|c| c.take())
}

/// Panic-message suffix: the interrupted operation *had already
/// linearized* when the fault fired (its effect is visible).
pub const MARKER_EFFECTIVE: &str = "[lo-fault:op-linearized]";

/// Panic-message suffix: the interrupted operation had *not* linearized
/// (no effect is visible).
pub const MARKER_INEFFECTIVE: &str = "[lo-fault:op-not-linearized]";

/// Classify a panic message carrying one of the effect markers.
///
/// `Some(true)` = op linearized, `Some(false)` = op did not linearize,
/// `None` = no marker (not an injected fault, or an abort path that never
/// reached a linearization decision).
pub fn effect_in_message(msg: &str) -> Option<bool> {
    if msg.contains(MARKER_EFFECTIVE) {
        Some(true)
    } else if msg.contains(MARKER_INEFFECTIVE) {
        Some(false)
    } else {
        None
    }
}

/// Extract the string payload of a caught panic, if it has one.
pub fn panic_message(payload: &(dyn Any + Send)) -> Option<&str> {
    if let Some(s) = payload.downcast_ref::<String>() {
        Some(s)
    } else {
        payload.downcast_ref::<&'static str>().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_fires_nothing() {
        // No session: must not fire even if another test just dropped one.
        let _serial = session_mutex().lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(fire(FailPoint::RemoveAfterMark), None);
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for p in FailPoint::ALL {
            let n = p.name();
            assert!(seen.insert(n), "duplicate failpoint name {n}");
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "non-kebab name {n}"
            );
            assert_eq!(FailPoint::ALL[p.index()], p);
        }
        assert_eq!(seen.len(), FailPoint::COUNT);
    }

    #[test]
    fn once_budget_and_skip() {
        let plan = FaultPlan::new(7)
            .with(FailPoint::RotateMid, FaultRule::once(FaultAction::Panic).skip(2));
        let session = activate(plan);
        assert_eq!(fire(FailPoint::RotateMid), None); // occ 0: skipped
        assert_eq!(fire(FailPoint::RotateMid), None); // occ 1: skipped
        assert_eq!(fire(FailPoint::RotateMid), Some(FaultAction::Panic)); // occ 2
        assert_eq!(fire(FailPoint::RotateMid), None); // budget exhausted
        assert_eq!(session.fired(), 1);
        assert_eq!(session.seen_counts()[FailPoint::RotateMid.index()], 4);
        // A point with no rule never fires.
        assert_eq!(fire(FailPoint::ArenaAlloc), None);
    }

    #[test]
    fn sampling_is_deterministic_by_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed)
                .with(FailPoint::TreeTryLock, FaultRule::always(FaultAction::Fail).one_in(3));
            let _session = activate(plan);
            (0..64).map(|_| fire(FailPoint::TreeTryLock).is_some()).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        let hits = a.iter().filter(|&&x| x).count();
        assert!(hits > 5 && hits < 40, "one_in(3) over 64 occurrences hit {hits} times");
    }

    #[test]
    fn injected_panic_marker_roundtrip() {
        assert_eq!(take_injected_panic(), None);
        note_injected_panic(FailPoint::PeAfterMark);
        assert_eq!(take_injected_panic(), Some(FailPoint::PeAfterMark));
        assert_eq!(take_injected_panic(), None);
    }

    #[test]
    fn effect_markers_classify() {
        let eff = format!("boom at remove-after-mark {MARKER_EFFECTIVE}");
        let ineff = format!("boom at insert-ordering-linked {MARKER_INEFFECTIVE}");
        assert_eq!(effect_in_message(&eff), Some(true));
        assert_eq!(effect_in_message(&ineff), Some(false));
        assert_eq!(effect_in_message("ordinary panic"), None);
    }

    #[test]
    fn panic_message_downcasts() {
        let s: Box<dyn Any + Send> = Box::new(String::from("owned"));
        let r: Box<dyn Any + Send> = Box::new("static");
        let n: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(s.as_ref()), Some("owned"));
        assert_eq!(panic_message(r.as_ref()), Some("static"));
        assert_eq!(panic_message(n.as_ref()), None);
    }

    #[test]
    fn only_session_members_fire() {
        let session = activate(FaultPlan::new(3).fail_at(FailPoint::TreeTryLock, u64::MAX));
        let outsider = std::thread::spawn(|| fire(FailPoint::TreeTryLock)).join().unwrap();
        assert_eq!(outsider, None, "a non-member must not be faulted");
        assert_eq!(session.seen_counts()[FailPoint::TreeTryLock.index()], 0, "nor counted");
        assert_eq!(session.fired(), 0);
        let ticket = session.ticket();
        let worker = std::thread::spawn(move || {
            ticket.join();
            fire(FailPoint::TreeTryLock)
        });
        assert_eq!(worker.join().unwrap(), Some(FaultAction::Fail), "a joined worker fires");
        assert_eq!(fire(FailPoint::TreeTryLock), Some(FaultAction::Fail), "so does the activator");
        assert_eq!(session.fired(), 2);
        assert_eq!(session.seen_counts()[FailPoint::TreeTryLock.index()], 2);
    }

    #[test]
    fn session_drop_deactivates() {
        {
            let _s = activate(FaultPlan::new(1).panic_at(FailPoint::RemoveAfterMark));
            assert!(ACTIVE_ON.load(Ordering::Acquire));
        }
        let _serial = session_mutex().lock().unwrap_or_else(|p| p.into_inner());
        assert!(!ACTIVE_ON.load(Ordering::Acquire));
        assert_eq!(fire(FailPoint::RemoveAfterMark), None);
    }
}
