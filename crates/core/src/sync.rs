//! The workspace's one lock, and the per-node lock substrate built on it.
//!
//! The paper's Java implementation uses intrinsic monitors with `lock`,
//! `tryLock` and `unlock`. The algorithms acquire and release locks across
//! non-lexical scopes (e.g. `chooseParent` returns with the parent's tree
//! lock held, `rebalance` consumes locks passed in by its caller), so a
//! RAII-guard API does not fit the node locks, which expose a manual
//! `lock`/`try_lock`/`unlock` surface instead.
//!
//! * [`RawLock`] — the one lock: a one-byte test-and-test-and-set lock.
//!   The lock-based baselines use it bare.
//! * [`NodeLock`] — the trees' per-node lock: a [`RawLock`] plus the
//!   traced and lockdep surface described below.
//! * [`Mutex`] — a [`RawLock`] with a guard, for state outside the paper's
//!   protocol (the arena's free lists, the store's flat-combining queues,
//!   the CF baseline's maintenance gate).
//!
//! Lock-ordering discipline (paper §5.1), enforced by call-site structure:
//! 1. `succLock`s before `treeLock`s,
//! 2. `succLock`s in ascending key order,
//! 3. `treeLock`s bottom-up; any descending acquisition must use
//!    [`try_lock`](NodeLock::try_lock) and restart on failure.
//!
//! With the `lockdep` feature, every acquisition and release additionally
//! reports to the `lo-check` runtime ledger through the `*_traced` methods
//! (the node-level wrappers in `node.rs` are the only callers), which
//! asserts the three rules and feeds a global acquired-before graph with
//! cycle detection. Without the feature the `*_traced` methods compile to
//! the raw operations.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

use lo_check::lockdep::{AcquireHow, LockClass, Rank};
use lo_check::rng::{Rng, Seeder};
use lo_metrics::{record, Event};

/// Backoff rounds spent spinning (1, 2, 4, ... 64 pause hints) before a
/// waiter starts yielding its time slice to the holder.
const SPIN_ROUNDS: u32 = 7;

/// The workspace's one lock: one byte, test-and-test-and-set, with no
/// fairness, no parking and no poisoning.
///
/// A waiter spins with exponential backoff and then yields its time slice,
/// so a single-core host reschedules the holder. The lock records nothing:
/// the trees' contention probes live in [`NodeLock::lock`], so the
/// baselines that use this lock bare keep their counters clean.
#[derive(Default)]
pub struct RawLock {
    locked: AtomicBool,
}

impl RawLock {
    /// An unlocked lock.
    #[inline]
    pub const fn new() -> Self {
        Self { locked: AtomicBool::new(false) }
    }

    /// Acquires the lock, waiting as long as needed.
    #[inline]
    pub fn lock(&self) {
        if self.try_lock() {
            return;
        }
        self.lock_slow();
    }

    /// Acquires the lock if it is free; `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // Acquire pairs with the Release in `unlock`: the new holder sees
        // every write the previous holder made inside the critical section.
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases the lock. The caller must hold it.
    ///
    /// A safe fn: a stray release breaks the holder's exclusion but is a
    /// plain `Release` store, not undefined behaviour by itself. The unsafe
    /// code whose soundness rests on exclusion ([`Mutex`]) keeps its lock
    /// private, so no caller can release it out of turn.
    #[inline]
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// Whether the lock is currently held by some thread (diagnostic only).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    #[cold]
    fn lock_slow(&self) {
        let mut round = 0;
        loop {
            // Test-and-test-and-set: wait on the read-only path first.
            while self.locked.load(Ordering::Relaxed) {
                if round < SPIN_ROUNDS {
                    for _ in 0..(1u32 << round) {
                        std::hint::spin_loop();
                    }
                    round += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            if self.try_lock() {
                return;
            }
        }
    }
}

/// A [`RawLock`] that owns the data it protects: [`lock`](Self::lock)
/// returns a guard that releases the lock when dropped.
pub struct Mutex<T: ?Sized> {
    raw: RawLock,
    data: UnsafeCell<T>,
}

// SAFETY: [inv:send-sync] `raw` is an atomic, shared soundly. `data` is
// reached only through a guard, and the lock hands out one guard at a time
// ([inv:lock-exclusion]), so threads sharing the mutex take turns with
// `&mut T`: that only needs `T: Send`. (`Send` itself is automatic, since
// `UnsafeCell<T>` is `Send` when `T` is.)
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// Holds a [`Mutex`] locked until dropped.
#[must_use = "dropping the guard releases the lock at once"]
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    /// Shares like `&mut T`: the guard is `Sync` only when `T` is.
    _marker: PhantomData<&'a mut T>,
}

impl<T> Mutex<T> {
    /// An unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self { raw: RawLock::new(), data: UnsafeCell::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Locks, waiting as long as needed.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.raw.lock();
        MutexGuard { mutex: self, _marker: PhantomData }
    }

    /// Locks if free. The guard is built only on success: a failed attempt
    /// must not create (and so drop, and so release) a guard for a lock
    /// another thread holds.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.raw.try_lock() {
            Some(MutexGuard { mutex: self, _marker: PhantomData })
        } else {
            None
        }
    }

    /// Mutable access without locking: `&mut self` proves exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: [inv:lock-exclusion] the guard exists only while this
        // thread holds the mutex's lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: [inv:lock-exclusion] the guard exists only while this
        // thread holds the mutex's lock, and `&mut self` makes this the
        // guard's only live borrow.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.raw.unlock();
    }
}

/// Lock-wait tracing phase for a lock class (succ/tree only; locks of
/// [`LockClass::Other`] are not timed).
#[inline(always)]
pub(crate) fn wait_phase(class: LockClass) -> Option<lo_metrics::Phase> {
    match class {
        LockClass::Succ => Some(lo_metrics::Phase::SuccLockWait),
        LockClass::Tree => Some(lo_metrics::Phase::TreeLockWait),
        _ => None,
    }
}

/// The trees' per-node lock: a [`RawLock`] plus the traced and lockdep
/// surface.
pub struct NodeLock {
    raw: RawLock,
    /// Ledger identity, assigned lazily on first traced use (0 = unassigned).
    #[cfg(feature = "lockdep")]
    ldep_id: std::sync::atomic::AtomicU64,
}

impl NodeLock {
    /// Creates an unlocked lock.
    #[inline]
    pub const fn new() -> Self {
        Self {
            raw: RawLock::new(),
            #[cfg(feature = "lockdep")]
            ldep_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// This lock's process-unique ledger id, assigned on first use.
    #[cfg(feature = "lockdep")]
    #[inline]
    fn ldep_id(&self) -> u64 {
        let id = self.ldep_id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = lo_check::lockdep::fresh_lock_id();
        match self.ldep_id.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => fresh,
            Err(raced) => raced,
        }
    }

    /// Blocking acquire reported to the lockdep ledger (and always to the
    /// thread's held-lock registry, which powers the panic-safe unwind in
    /// `poison.rs`). With the `metrics` feature, the attempt→acquired window
    /// is recorded as the lock-wait span of the lock's class.
    #[inline]
    pub fn lock_traced(&self, class: LockClass, rank: Rank, how: AcquireHow) {
        let wait = lo_metrics::stamp();
        #[cfg(feature = "lockdep")]
        {
            let id = self.ldep_id();
            lo_check::lockdep::on_acquire_attempt(id, class, rank, how);
            self.lock();
            lo_check::lockdep::on_acquired(id, class, rank, how);
        }
        #[cfg(not(feature = "lockdep"))]
        {
            let _ = (rank, how);
            self.lock();
        }
        // One clock read is the wait span's end AND the hold span's start.
        // Neither span is recorded here — the acquire instant starts the
        // critical section, and recording work belongs outside it; both
        // spans are recorded by `release_and_unlock` after the release.
        let since = lo_metrics::stamp_closing(wait);
        crate::poison::note_acquired(self, class, wait, since);
    }

    /// Non-blocking acquire reported to the lockdep ledger (and the
    /// held-lock registry) on success.
    #[inline]
    pub fn try_lock_traced(&self, class: LockClass, rank: Rank) -> bool {
        let acquired = self.try_lock();
        #[cfg(feature = "lockdep")]
        if acquired {
            lo_check::lockdep::on_acquired(self.ldep_id(), class, rank, AcquireHow::Try);
        }
        #[cfg(not(feature = "lockdep"))]
        let _ = rank;
        if acquired {
            // A try-acquire has no wait window; the hold span draws its
            // own sampling ticket.
            let since = lo_metrics::stamp();
            crate::poison::note_acquired(self, class, lo_metrics::Stamp::disarmed(), since);
        }
        acquired
    }

    /// Release reported to the lockdep ledger and the held-lock registry.
    /// The hold span's end is stamped just before the release store, but
    /// its recording cost lands after it — outside the critical section.
    #[inline]
    pub fn unlock_traced(&self) {
        crate::poison::release_and_unlock(self);
        #[cfg(feature = "lockdep")]
        lo_check::lockdep::on_release(self.ldep_id());
    }

    /// Blocking acquire.
    ///
    /// With the `metrics` feature, a `try_lock` probe classifies the
    /// acquisition as contended or uncontended before (possibly) blocking;
    /// without it, this is a plain `raw.lock()` with no probe.
    #[inline]
    pub fn lock(&self) {
        if !lo_metrics::ENABLED {
            self.raw.lock();
            return;
        }
        if self.raw.try_lock() {
            record(Event::NodeLockUncontended);
        } else {
            record(Event::NodeLockContended);
            self.raw.lock();
        }
    }

    /// Non-blocking acquire; `true` on success.
    ///
    /// With the `metrics` feature, a success counts as an uncontended
    /// acquisition and a failure as a contended one, as in [`Self::lock`].
    #[inline]
    pub fn try_lock(&self) -> bool {
        let acquired = self.raw.try_lock();
        if lo_metrics::ENABLED {
            record(if acquired { Event::NodeLockUncontended } else { Event::NodeLockContended });
        }
        acquired
    }

    /// Release.
    ///
    /// The caller must hold the lock: the trees pair every acquisition with
    /// exactly one release along every control path. This is checked by the
    /// lockdep ledger (`ReleaseUnheld`) under `--features lockdep` rather
    /// than an assertion here, so there is exactly one enforcement point.
    #[inline]
    pub fn unlock(&self) {
        self.raw.unlock();
    }

    /// Whether the lock is currently held by some thread (diagnostic only).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }
}

impl Default for NodeLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for NodeLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeLock").field("locked", &self.is_locked()).finish()
    }
}

/// Uniform jitter in `[0, bound)` (0 when `bound` ≤ 1) from a per-thread
/// [`Rng`] stream.
///
/// Each thread's stream is seeded from its arrival order in a process-wide
/// counter, spread by the [`Seeder`] so streams decorrelate immediately — a
/// stable per-thread identity that needs no wall clock and no OS thread id,
/// keeping the backoff Miri- and loom-clean. The stream lives in a bare
/// `Cell<u64>` (0 = not yet seeded; a stream's state is never 0).
fn backoff_jitter(bound: u32) -> u32 {
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;
    static NEXT_SEED: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|s| {
        let mut rng = match s.get() {
            0 => Rng::new(Seeder::new(NEXT_SEED.fetch_add(1, Ordering::Relaxed)).next_u64()),
            state => Rng::new(state),
        };
        let jitter = rng.next_below(u64::from(bound.max(1))) as u32;
        s.set(rng.state());
        jitter
    })
}

/// Bounded exponential backoff for `try_lock` restart loops (the paper's
/// Algorithm 8 descending tree-lock acquisitions and the partially-external
/// variant). A failed `try` means the owner is mid-write; the restart edge
/// is only a few unlock/relock operations, so retrying hot spins a full
/// timeslice whenever the owner is descheduled — on oversubscribed hosts
/// that CPU is exactly what the owner needs to finish. Doubling spins with
/// jitter keeps the multicore fast path (the first retries are a handful
/// of pause instructions); yielding once saturated lets a single-core host
/// reschedule the owner.
pub(crate) struct ContentionBackoff {
    spins: u32,
}

impl ContentionBackoff {
    pub(crate) const fn new() -> Self {
        Self { spins: 1 }
    }

    /// One pause; escalates geometrically across calls.
    pub(crate) fn pause(&mut self) {
        if self.spins < 1 << 10 {
            for _ in 0..self.spins + backoff_jitter(self.spins) {
                std::hint::spin_loop();
            }
            self.spins <<= 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const THREADS: u64 = 4;
    const ITERS: u64 = if cfg!(miri) { 200 } else { 20_000 };

    /// Runs `bump` `ITERS` times on each of `THREADS` threads over one
    /// shared value and hands the value back.
    fn hammer<S: Send + Sync + 'static>(shared: S, bump: fn(&S)) -> S {
        let shared = Arc::new(shared);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        bump(&shared);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        Arc::into_inner(shared).expect("every worker has exited")
    }

    /// A read-modify-write made of two atomic halves: only correct if the
    /// caller holds a lock that provides mutual exclusion.
    fn split_increment(counter: &AtomicU64) {
        let v = counter.load(Ordering::Relaxed);
        counter.store(v + 1, Ordering::Relaxed);
    }

    #[test]
    fn raw_lock_is_one_byte_and_exclusive() {
        assert_eq!(std::mem::size_of::<RawLock>(), 1);
        let l = RawLock::new();
        assert!(!l.is_locked());
        assert!(l.try_lock());
        assert!(!l.try_lock(), "a held lock must refuse a second acquire");
        l.unlock();
        l.lock();
        assert!(l.is_locked());
        l.unlock();
        assert!(!l.is_locked());
    }

    #[test]
    fn node_lock_basics() {
        let l = NodeLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock(), "re-entrant try_lock must fail");
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
    }

    #[test]
    fn raw_lock_mutual_exclusion() {
        let (_, total) = hammer((RawLock::new(), AtomicU64::new(0)), |(l, c)| {
            l.lock();
            split_increment(c);
            l.unlock();
        });
        assert_eq!(total.into_inner(), THREADS * ITERS);
    }

    #[test]
    fn node_lock_mutual_exclusion() {
        let (_, total) = hammer((NodeLock::new(), AtomicU64::new(0)), |(l, c)| {
            l.lock();
            split_increment(c);
            l.unlock();
        });
        assert_eq!(total.into_inner(), THREADS * ITERS);
    }

    #[test]
    fn mutex_mutual_exclusion() {
        let mut m = hammer(Mutex::new(0u64), |m| *m.lock() += 1);
        assert_eq!(*m.get_mut(), THREADS * ITERS);
    }

    #[test]
    fn failed_try_lock_leaves_mutex_held() {
        let m = Mutex::new(());
        let held = m.lock();
        assert!(m.try_lock().is_none());
        assert!(m.try_lock().is_none(), "a failed try_lock released the holder's lock");
        drop(held);
    }

    #[test]
    fn dropping_the_guard_releases() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        let g = m.try_lock().expect("the dropped guard released the lock");
        assert_eq!(*g, 6);
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn backoff_jitter_bounded_and_varying() {
        // Within one thread: values stay in range and are not all equal
        // (the whole point is to desynchronize lockstep backoff).
        let vals: Vec<u32> = (0..64).map(|_| backoff_jitter(1 << 10)).collect();
        assert!(vals.iter().all(|&v| v < 1 << 10));
        assert!(vals.windows(2).any(|w| w[0] != w[1]), "jitter stream is constant");
        // Degenerate bounds return 0.
        assert_eq!(backoff_jitter(0), 0);
        assert_eq!(backoff_jitter(1), 0);
        // Two threads get decorrelated streams.
        let a = std::thread::spawn(|| (0..32).map(|_| backoff_jitter(1 << 16)).collect::<Vec<_>>())
            .join()
            .unwrap();
        let b = std::thread::spawn(|| (0..32).map(|_| backoff_jitter(1 << 16)).collect::<Vec<_>>())
            .join()
            .unwrap();
        assert_ne!(a, b, "per-thread jitter streams must differ");
    }
}
