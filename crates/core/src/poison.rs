//! Panic-safe writer scopes, held-lock tracking, and tree poisoning.
//!
//! The paper's update algorithms acquire and release `NodeLock`s across
//! non-lexical scopes (`chooseParent` returns holding a lock, `rebalance`
//! consumes its caller's locks), so per-lock RAII guards do not fit the
//! call structure. Instead, panic-safety is provided at *operation*
//! granularity:
//!
//! * every traced acquisition registers the lock in a thread-local
//!   held-lock list ([`note_acquired`]/[`note_released`], called from
//!   `sync.rs`'s `*_traced` methods — the only lock surface the tree
//!   algorithms use);
//! * every write operation runs inside a [`WriteScope`] whose `Drop`,
//!   if the thread is unwinding, releases every still-held lock and
//!   atomically poisons the tree (a `compare_exchange` on the tree's
//!   [`WriterGate`] word, so exactly one cause wins).
//!
//! A poisoned tree stays readable: the lock-free read path (`contains`,
//! `get`, ordered access) never consults the poison word, and the
//! structural windows a dead writer can leave behind are exactly the ones
//! the lookup's ordering-layout fallback already tolerates (the ordering
//! chain is always repaired *before* the layout). All further writes are
//! rejected with [`TreeError::Poisoned`], which reports the failpoint that
//! fired (or [`PoisonCause::RestartStorm`]/[`PoisonCause::Panic`]).
//!
//! Read-path cost: zero — nothing here is touched by lookups. Write-path
//! cost with the `failpoints` feature off: one `Acquire` load of the gate
//! word per operation plus a thread-local `Vec` push/pop per lock, no
//! extra shared-memory traffic: the gate word is written only by
//! poisoning and recovery, so its cache line stays shared between cores,
//! and a recoverer drains writers through the tree's epoch grace period.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};

use crate::domain::EpochDomain;
use crate::sync::NodeLock;
use lo_api::{PoisonCause, RecoverError, TreeError};
use lo_check::fail::FailPoint;
use lo_check::lockdep::LockClass;
use lo_reclaim::Guard;

/// Lock-hold tracing phase for a lock class (succ/tree only).
#[inline(always)]
fn hold_phase(class: LockClass) -> Option<lo_metrics::Phase> {
    match class {
        LockClass::Succ => Some(lo_metrics::Phase::SuccLockHold),
        LockClass::Tree => Some(lo_metrics::Phase::TreeLockHold),
        _ => None,
    }
}

/// One entry of the thread-local held-lock registry: the lock, its class
/// (so the unwind path and the release path can attribute the wait/hold
/// spans to the right lock kind), when its acquisition was attempted
/// (`wait`, disarmed for try-acquires) and when it was acquired
/// (`since`). The stamps are zero-sized without the `metrics` feature;
/// carrying them here defers all span recording to the release path,
/// outside the critical section.
struct HeldLock {
    lock: *const NodeLock,
    class: LockClass,
    wait: lo_metrics::Stamp,
    since: lo_metrics::Stamp,
}

impl HeldLock {
    /// Records this entry's lock-wait and lock-hold spans, the hold span
    /// closing at `end` (taken by the caller before the release store).
    #[inline]
    fn record_spans(&self, end: lo_metrics::Stamp) {
        if let Some(phase) = crate::sync::wait_phase(self.class) {
            lo_metrics::span_closed(phase, self.wait, self.since);
        }
        if let Some(phase) = hold_phase(self.class) {
            lo_metrics::span_closed(phase, self.since, end);
        }
    }
}

/// Gate-state values ([`WriterGate`]'s word). `0` = healthy; `u32::MAX` =
/// recovery in progress; anything else encodes a [`TreeError::Poisoned`]
/// cause.
pub(crate) const CODE_HEALTHY: u32 = 0;
/// An uninjected (genuine) writer panic.
pub(crate) const CODE_PANIC: u32 = 1;
/// A restart loop exceeded `LO_MAX_RESTARTS`.
pub(crate) const CODE_RESTART_STORM: u32 = 2;
/// Base for failpoint causes: `CODE_FAILPOINT_BASE + FailPoint::index()`.
pub(crate) const CODE_FAILPOINT_BASE: u32 = 3;
/// A recoverer holds the tree: writes bounce with [`TreeError::Recovering`]
/// until `finish_recovery` restores `CODE_HEALTHY` (or the prior cause).
/// Deliberately the top of the range so it can never collide with a
/// failpoint code from a newer binary.
pub(crate) const CODE_RECOVERING: u32 = u32::MAX;

/// Decodes a nonzero, non-recovering poison code into its cause.
pub(crate) fn decode(code: u32) -> PoisonCause {
    debug_assert_ne!(code, CODE_HEALTHY);
    debug_assert_ne!(code, CODE_RECOVERING);
    match code {
        CODE_PANIC => PoisonCause::Panic,
        CODE_RESTART_STORM => PoisonCause::RestartStorm,
        n => {
            let idx = n - CODE_FAILPOINT_BASE;
            match FailPoint::ALL.get(idx as usize) {
                Some(p) => PoisonCause::Failpoint(p.name()),
                // A code this binary has no name for (version skew): keep
                // the raw index so the post-mortem stays unambiguous.
                None => PoisonCause::UnknownFailpoint(idx),
            }
        }
    }
}

// ----------------------------------------------------------------------
// The writer gate.
// ----------------------------------------------------------------------

/// Per-tree quarantine gate: one `AtomicU32` holding the tree state
/// (healthy / poisoned cause / recovering). It counts nobody: a writer
/// reads it once, and a recoverer drains the writers already past it by
/// waiting out one epoch grace period of the tree's domain.
///
/// Why that drains every writer that read `CODE_HEALTHY`: a writer pins
/// the tree's domain *before* it loads the gate ([`WriteScope::enter`]
/// takes the pin's guard), and its scope drops, releasing every lock it
/// still holds, before the guard unpins with a `Release` store. An
/// outermost pin ends in a `SeqCst` fence, and the recoverer runs
/// `SeqCst` fences after its flip to `CODE_RECOVERING`, when it seals its
/// grace-period flag and scans the domain's announcements. Those fences
/// are totally ordered, so either
///
/// * the writer's fence comes first: the recoverer's scan sees the
///   writer's announcement, and the grace period lasts until the writer
///   unpins, after its scope has released every lock; or
/// * the recoverer's fence comes first: the writer's gate load reads
///   `CODE_RECOVERING` (or a later state), and the writer never enters.
///
/// This is the handshake EBR itself rests on: the flip plays an unlink,
/// the gate load a reader's load of the unlinked pointer, and the flag
/// the retired node. A nested pin (a write inside a scan or `get_with`
/// callback, or inside the batched frontend's batch) is covered by its
/// outermost pin, which cannot repin while the write's own guard lives.
///
/// The gate is the only writable/poisoned/recovering authority for a tree;
/// its state-changing surface is confined to this file and `recover.rs`
/// (enforced by lo-lint's recovery rule).
pub(crate) struct WriterGate {
    state: AtomicU32,
}

impl WriterGate {
    pub(crate) const fn new() -> Self {
        WriterGate { state: AtomicU32::new(CODE_HEALTHY) }
    }

    /// Current state code (`CODE_*`).
    #[inline]
    pub(crate) fn state(&self) -> u32 {
        self.state.load(Ordering::Acquire)
    }

    /// Current error for the public surface: `None` while healthy.
    pub(crate) fn error(&self) -> Option<TreeError> {
        self.enter().err()
    }

    /// Admits a writer while the tree is healthy: one `Acquire` load,
    /// pairing with `finish_recovery`'s `Release` so a writer admitted
    /// after a recovery sees the repaired layout. The caller must be
    /// pinned in the tree's domain (see the type docs).
    #[inline]
    pub(crate) fn enter(&self) -> Result<(), TreeError> {
        match self.state() {
            CODE_HEALTHY => Ok(()),
            CODE_RECOVERING => Err(TreeError::Recovering),
            code => Err(TreeError::Poisoned(decode(code))),
        }
    }

    /// Installs a poison cause, first-cause-wins: a no-op when the state is
    /// already a cause *or* `CODE_RECOVERING` (a writer dying while
    /// quarantined must not clobber the recoverer's claim — the recoverer
    /// itself decides what state to leave behind).
    pub(crate) fn poison(&self, code: u32) {
        debug_assert_ne!(code, CODE_HEALTHY);
        debug_assert_ne!(code, CODE_RECOVERING);
        let _ =
            self.state.compare_exchange(CODE_HEALTHY, code, Ordering::Release, Ordering::Relaxed);
    }

    /// Claims the gate for recovery: flips a poisoned state to
    /// `CODE_RECOVERING` and returns the prior cause code. Exactly one
    /// caller wins; a healthy tree declines with
    /// [`RecoverError::NotPoisoned`], a concurrent recoverer with
    /// [`RecoverError::Busy`].
    pub(crate) fn begin_recovery(&self) -> Result<u32, RecoverError> {
        match self.state.fetch_update(Ordering::Acquire, Ordering::Acquire, |s| {
            (s != CODE_HEALTHY && s != CODE_RECOVERING).then_some(CODE_RECOVERING)
        }) {
            Ok(prior) => Ok(prior),
            Err(CODE_HEALTHY) => Err(RecoverError::NotPoisoned),
            Err(_) => Err(RecoverError::Busy),
        }
    }

    /// Ends recovery, storing `code` (`CODE_HEALTHY` on success, the prior
    /// cause when verification failed). Release: pairs with `enter`'s
    /// Acquire so admitted writers see the repair.
    pub(crate) fn finish_recovery(&self, code: u32) {
        let prev = self.state.swap(code, Ordering::Release);
        debug_assert_eq!(prev, CODE_RECOVERING, "finish_recovery without begin_recovery");
    }
}

thread_local! {
    /// Locks this thread currently holds through the traced lock surface.
    /// Raw pointers: entries are only dereferenced during an unwind, at
    /// which point every registered lock is still alive (it is held, and
    /// held nodes are never retired).
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    /// Poison code the next unwind on this thread should install
    /// (set by the failpoint / restart-storm raisers right before they
    /// panic; `CODE_PANIC` is used when nothing was staged).
    static PENDING: Cell<u32> = const { Cell::new(CODE_HEALTHY) };
    /// Whether the operation inside the current [`WriteScope`] has passed
    /// its linearization point (drives the panic-effect markers the chaos
    /// harness uses to classify interrupted operations).
    static LINEARIZED: Cell<bool> = const { Cell::new(false) };
}

/// Registers `lock` as held by this thread (called from
/// `NodeLock::lock_traced`/`try_lock_traced` on success). With the
/// `metrics` feature the acquisition instant is stamped so the release
/// (or the unwind) can close a lock-hold span.
#[inline]
pub(crate) fn note_acquired(
    lock: &NodeLock,
    class: LockClass,
    wait: lo_metrics::Stamp,
    since: lo_metrics::Stamp,
) {
    HELD.with(|h| {
        h.borrow_mut().push(HeldLock { lock: lock as *const NodeLock, class, wait, since });
    });
}

/// Unregisters `lock`, releases it, and then records its lock-wait and
/// lock-hold spans. The hold span's end is stamped *before* the release
/// store (so the window is honest) but all ring/histogram work runs
/// *after* it, keeping recording cost out of the critical section —
/// extending a hold window to measure hold windows would serialize the
/// very contention being measured.
#[inline]
pub(crate) fn release_and_unlock(lock: &NodeLock) {
    let entry = HELD.with(|h| {
        let mut v = h.borrow_mut();
        let target = lock as *const NodeLock;
        // Releases are near-LIFO in the tree algorithms; scan from the back.
        v.iter().rposition(|e| e.lock == target).map(|i| v.swap_remove(i))
    });
    let end = match &entry {
        Some(e) => lo_metrics::stamp_closing(e.since),
        None => lo_metrics::Stamp::disarmed(),
    };
    lock.unlock();
    if let Some(e) = entry {
        e.record_spans(end);
    }
}

/// Marks the current write operation as linearized (its effect is now
/// visible to readers). Called immediately after every linearization-point
/// store in `update.rs`/`pe.rs`.
#[inline]
pub(crate) fn note_linearized() {
    LINEARIZED.with(|c| c.set(true));
}

/// Stages the poison code the next unwind should install.
#[inline]
pub(crate) fn set_pending(code: u32) {
    PENDING.with(|c| c.set(code));
}

/// Panics with `msg` plus the effect marker for the current operation
/// (`[lo-fault:op-linearized]` / `[lo-fault:op-not-linearized]`), so a
/// harness catching the unwind knows whether the interrupted operation
/// took effect.
pub(crate) fn panic_with_effect(msg: &str) -> ! {
    let marker = if LINEARIZED.with(Cell::get) {
        lo_check::fail::MARKER_EFFECTIVE
    } else {
        lo_check::fail::MARKER_INEFFECTIVE
    };
    std::panic::panic_any(format!("{msg} {marker}"))
}

/// Panic (through the poisoning path) if the gate is not healthy: a writer
/// that would otherwise wait on — or retry against — structure stranded by
/// a dead thread (or currently being repaired by a recoverer) aborts
/// instead of livelocking. Called at the restart/wait edges of every
/// update loop; during a quarantine this is what drains in-flight writers
/// quickly.
#[inline]
pub(crate) fn abort_if_poisoned(gate: &WriterGate) {
    if let Some(e) = gate.error() {
        // Keep the already-installed cause; this thread's unwind should
        // not overwrite it (`WriterGate::poison` is first-cause-wins).
        panic_with_effect(&format!("aborting writer: {e}"));
    }
}

/// Operation-granularity unwind guard, entered at the top of every write
/// operation once the writer is pinned and the tree's [`WriterGate`]
/// admits it; on a panicking drop it releases the thread's held locks and
/// poisons the tree.
pub(crate) struct WriteScope<'t> {
    gate: &'t WriterGate,
}

impl<'t> WriteScope<'t> {
    /// Enters a write scope, first rejecting the write if the tree is
    /// already poisoned or quarantined by a recoverer. `_pin` is the
    /// writer's guard in the tree's epoch domain: the gate is read after
    /// the pin, and the scope, borrowing the guard, drops before it
    /// unpins (the drain argument in [`WriterGate`]'s docs).
    pub(crate) fn enter(gate: &'t WriterGate, _pin: &'t Guard) -> Result<Self, TreeError> {
        gate.enter()?;
        LINEARIZED.with(|c| c.set(false));
        Ok(WriteScope { gate })
    }
}

impl Drop for WriteScope<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert!(
                HELD.with(|h| h.borrow().is_empty()),
                "write operation returned with locks still registered"
            );
            return;
        }
        // Poison FIRST (Release pairs with the Acquire loads in
        // `enter`/`abort_if_poisoned`), then release the locks: a writer
        // that wins one of them next will abort at its next restart edge
        // instead of trusting the half-updated structure.
        let code = PENDING.with(Cell::take);
        let code = if code == CODE_HEALTHY { CODE_PANIC } else { code };
        self.gate.poison(code);
        // Latch a flight-recorder post-mortem: the chaos harness (or any
        // caller that armed the latch) can now take one Chrome-trace dump
        // of every thread's ring. No-op without the `metrics` feature.
        lo_metrics::flight::note_poisoned();
        let held = HELD.with(|h| std::mem::take(&mut *h.borrow_mut()));
        for e in held {
            // The dying writer's spans still close (the hold span at the
            // unwind instant) — lock windows cut short by a panic are
            // exactly what a post-mortem wants to see.
            e.record_spans(lo_metrics::stamp_closing(e.since));
            // SAFETY: [inv:tls-registry] each pointer was registered by `note_acquired`
            // while this thread held the lock and was never unregistered, so the
            // lock is still held by this thread and its node is still live
            // (held nodes are never retired).
            unsafe { (*e.lock).unlock_traced() };
        }
        // The writer's guard unpins only after this returns, so a
        // recoverer's grace period ends with every lock above released.
    }
}

/// Runs a write for the infallible `ConcurrentMap` surface. It waits out
/// [`TreeError::Recovering`] with [`ContentionBackoff`], retrying `op`: the
/// repair window is bounded (one grace period, an audit, perhaps a
/// rebuild), so spinning is the right shape for callers with no error
/// channel. Fallible callers see `Recovering` directly and choose their own
/// policy. Panics, outside any [`WriteScope`] and so without poisoning, on
/// [`TreeError::Poisoned`] or [`TreeError::AllocFailed`], and on
/// `Recovering` when the calling thread is pinned in `domain`: the recovery
/// waits for a grace period that pin holds back, so the wait would never
/// end.
///
/// [`ContentionBackoff`]: crate::sync::ContentionBackoff
#[inline]
pub(crate) fn expect_writable<T>(
    domain: &EpochDomain,
    mut op: impl FnMut() -> Result<T, TreeError>,
) -> T {
    let mut backoff = crate::sync::ContentionBackoff::new();
    loop {
        match op() {
            Ok(v) => return v,
            Err(TreeError::Recovering) if !domain.is_pinned() => backoff.pause(),
            Err(TreeError::Recovering) => panic!(
                "write to a recovering tree from a thread pinned in its epoch domain (inside a \
                 scan_range, range_cursor or get_with callback): the recovery waits for a grace \
                 period this pin holds back; write outside the callback, or use try_* writes"
            ),
            Err(e) => panic!("{e}"),
        }
    }
}

// ----------------------------------------------------------------------
// Restart-storm budget (LO_MAX_RESTARTS).
// ----------------------------------------------------------------------

/// Runtime override for the restart bound; `u32::MAX` = not set.
static MAX_RESTARTS_OVERRIDE: AtomicU32 = AtomicU32::new(u32::MAX);

/// Process-wide restart bound: the override if set, else `LO_MAX_RESTARTS`
/// from the environment (cached), else `0` = unlimited.
fn max_restarts() -> u32 {
    let ov = MAX_RESTARTS_OVERRIDE.load(Ordering::Relaxed);
    if ov != u32::MAX {
        return ov;
    }
    static FROM_ENV: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("LO_MAX_RESTARTS").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
    })
}

/// Overrides `LO_MAX_RESTARTS` for this process (`0` = unlimited). Test
/// hook — exported `#[doc(hidden)]` from the crate root.
pub fn set_max_restarts(limit: u32) {
    MAX_RESTARTS_OVERRIDE.store(limit, Ordering::Relaxed);
}

/// Per-operation consecutive-restart counter. Each restart edge calls
/// [`tick`](Self::tick); exceeding the configured bound panics through the
/// poisoning path (a storm tripwire, not a recovery mechanism), and the
/// high-water count feeds the `restarts-consecutive-max` gauge.
pub(crate) struct RestartBudget {
    count: u32,
    limit: u32,
    /// Start of the current attempt (operation entry or the previous
    /// restart edge); zero-sized without the `metrics` feature.
    attempt: lo_metrics::Stamp,
}

impl RestartBudget {
    pub(crate) fn new() -> Self {
        RestartBudget { count: 0, limit: max_restarts(), attempt: lo_metrics::stamp() }
    }

    #[inline]
    pub(crate) fn tick(&mut self) {
        // Each restart edge closes the wasted attempt's span: the time
        // from operation entry (or the previous restart) to here.
        let prev = std::mem::replace(&mut self.attempt, lo_metrics::stamp());
        lo_metrics::span(lo_metrics::Phase::Restart, prev);
        self.count += 1;
        lo_metrics::note_max(lo_metrics::Event::RestartsConsecutiveMax, u64::from(self.count));
        if self.limit != 0 && self.count >= self.limit {
            set_pending(CODE_RESTART_STORM);
            panic_with_effect(&format!(
                "operation restarted {} times without progress (LO_MAX_RESTARTS={})",
                self.count, self.limit
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_covers_all_causes() {
        assert_eq!(decode(CODE_PANIC), PoisonCause::Panic);
        assert_eq!(decode(CODE_RESTART_STORM), PoisonCause::RestartStorm);
        for p in FailPoint::ALL {
            assert_eq!(
                decode(CODE_FAILPOINT_BASE + p.index() as u32),
                PoisonCause::Failpoint(p.name())
            );
        }
        // Out-of-range codes (a poison word from a newer binary with more
        // failpoints) keep their raw index instead of collapsing to a
        // single ambiguous "unknown".
        let beyond = CODE_FAILPOINT_BASE + FailPoint::COUNT as u32 + 5;
        assert_eq!(decode(beyond), PoisonCause::UnknownFailpoint(FailPoint::COUNT as u32 + 5));
    }

    #[test]
    fn scope_enter_rejects_poisoned() {
        let pin = lo_reclaim::pin();
        let gate = WriterGate::new();
        gate.poison(CODE_RESTART_STORM);
        assert_eq!(
            WriteScope::enter(&gate, &pin).err(),
            Some(TreeError::Poisoned(PoisonCause::RestartStorm))
        );
        let healthy = WriterGate::new();
        assert!(WriteScope::enter(&healthy, &pin).is_ok());
    }

    #[test]
    fn gate_admits_writers_only_while_healthy() {
        let gate = WriterGate::new();
        assert_eq!(gate.error(), None);
        assert_eq!(gate.enter(), Ok(()));
        // Recovery cannot start on a healthy tree.
        assert_eq!(gate.begin_recovery(), Err(RecoverError::NotPoisoned));
        // First cause wins, and a poisoned gate refuses writers.
        gate.poison(CODE_PANIC);
        gate.poison(CODE_RESTART_STORM);
        assert_eq!(gate.error(), Some(TreeError::Poisoned(PoisonCause::Panic)));
        assert_eq!(gate.enter(), Err(TreeError::Poisoned(PoisonCause::Panic)));
        // Exactly one recoverer wins the claim; writers see `Recovering`.
        assert_eq!(gate.begin_recovery(), Ok(CODE_PANIC));
        assert_eq!(gate.begin_recovery(), Err(RecoverError::Busy));
        assert_eq!(gate.enter(), Err(TreeError::Recovering));
        // A writer dying while quarantined cannot clobber the claim.
        gate.poison(CODE_PANIC);
        assert_eq!(gate.error(), Some(TreeError::Recovering));
        gate.finish_recovery(CODE_HEALTHY);
        assert_eq!(gate.error(), None);
        assert_eq!(gate.enter(), Ok(()));
    }

    #[test]
    fn expect_writable_waits_out_recovery_unless_pinned() {
        let domain = EpochDomain::new();
        let mut bounces = 0;
        let v = expect_writable(&domain, || {
            if bounces < 3 {
                bounces += 1;
                Err(TreeError::Recovering)
            } else {
                Ok(7)
            }
        });
        assert_eq!((v, bounces), (7, 3));
        // Other errors panic at once.
        let alloc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            expect_writable(&domain, || Err::<(), _>(TreeError::AllocFailed))
        }));
        assert!(alloc.is_err());
        // A caller pinned in the domain would wait forever: it panics.
        let pin = domain.pin();
        let pinned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            expect_writable(&domain, || Err::<(), _>(TreeError::Recovering))
        }));
        drop(pin);
        let err = pinned.unwrap_err();
        let msg = lo_check::fail::panic_message(err.as_ref()).unwrap();
        assert!(msg.contains("pinned in its epoch domain"), "{msg}");
    }

    #[test]
    fn panicking_scope_releases_locks_and_poisons() {
        let pin = lo_reclaim::pin();
        let gate = WriterGate::new();
        let lock = NodeLock::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = WriteScope::enter(&gate, &pin).unwrap();
            lock.lock_traced(
                lo_check::lockdep::LockClass::Tree,
                lo_check::lockdep::Rank::Opaque,
                lo_check::lockdep::AcquireHow::Block,
            );
            assert!(lock.is_locked());
            panic_with_effect("simulated writer death");
        }));
        let err = result.unwrap_err();
        let msg = lo_check::fail::panic_message(err.as_ref()).unwrap();
        assert_eq!(lo_check::fail::effect_in_message(msg), Some(false));
        assert!(!lock.is_locked(), "unwind must release registered locks");
        assert_eq!(gate.state(), CODE_PANIC);
        // First cause wins: a second death cannot re-poison.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set_pending(CODE_RESTART_STORM);
            let _scope = match WriteScope::enter(&gate, &pin) {
                Ok(s) => s,
                Err(e) => panic!("{e}"),
            };
        }));
        assert!(again.is_err());
        assert_eq!(gate.state(), CODE_PANIC);
    }

    #[test]
    fn linearized_marker_tracks_scope() {
        let pin = lo_reclaim::pin();
        let gate = WriterGate::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = WriteScope::enter(&gate, &pin).unwrap();
            note_linearized();
            panic_with_effect("death after linearization");
        }));
        let err = result.unwrap_err();
        let msg = lo_check::fail::panic_message(err.as_ref()).unwrap();
        assert_eq!(lo_check::fail::effect_in_message(msg), Some(true));
        // The next scope resets the flag.
        let gate2 = WriterGate::new();
        let result2 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = WriteScope::enter(&gate2, &pin).unwrap();
            panic_with_effect("death before linearization");
        }));
        let msg2_err = result2.unwrap_err();
        let msg2 = lo_check::fail::panic_message(msg2_err.as_ref()).unwrap();
        assert_eq!(lo_check::fail::effect_in_message(msg2), Some(false));
    }

    #[test]
    fn restart_budget_trips_at_limit() {
        set_max_restarts(4);
        let pin = lo_reclaim::pin();
        let gate = WriterGate::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = WriteScope::enter(&gate, &pin).unwrap();
            let mut budget = RestartBudget::new();
            for _ in 0..10 {
                budget.tick();
            }
        }));
        set_max_restarts(0);
        assert!(result.is_err());
        assert_eq!(gate.state(), CODE_RESTART_STORM);
        assert_eq!(decode(gate.state()), PoisonCause::RestartStorm);
        // Unlimited (0) never trips.
        let mut budget = RestartBudget::new();
        for _ in 0..100_000 {
            budget.tick();
        }
    }

    #[test]
    fn abort_if_poisoned_fires_only_when_poisoned() {
        let healthy = WriterGate::new();
        abort_if_poisoned(&healthy); // must not panic
        let gate = WriterGate::new();
        gate.poison(CODE_FAILPOINT_BASE + FailPoint::RemoveAfterMark.index() as u32);
        let healthy_scope = WriterGate::new();
        let pin = lo_reclaim::pin();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = WriteScope::enter(&healthy_scope, &pin).unwrap();
            abort_if_poisoned(&gate);
        }));
        let err = result.unwrap_err();
        let msg = lo_check::fail::panic_message(err.as_ref()).unwrap();
        assert!(msg.contains("remove-after-mark"), "abort message names the cause: {msg}");
    }
}
