//! # lo-metrics: the suite's one telemetry layer
//!
//! The paper's evaluation (§6) explains throughput differences through
//! *internal* events — how often a `try_lock`-against-order acquisition
//! forces a restart (§5.1), how many `pred`/`succ` chase steps a lock-free
//! `contains` performs past the tree descent (§4.2), how many rotations the
//! relaxed-AVL balancer issues (§4.5/§5.3) — and through how long the
//! protocol's lock windows last. This crate is the measurement substrate
//! for both, across the whole workspace:
//!
//! * **Counters** count *how often*: a fixed [`Event`] vocabulary, summed
//!   by [`Snapshot::take`].
//! * **Spans** measure *how long*: [`stamp`]/[`span`] probes per [`Phase`],
//!   a per-thread flight recorder ([`flight`]) and per-phase duration
//!   histograms summed by [`SpanSnapshot::take`].
//! * **One histogram**, [`Histogram`] (log-linear, ≤ 12.5% buckets over the
//!   whole `u64` range), serves the span table, the workload runner's per-op
//!   latencies and the exporters.
//! * **Exporters** ([`export`]): Prometheus text and Chrome Trace Event JSON.
//!
//! ## Counter design
//! * A global table of [`SHARDS`] cache-line-aligned shards, each holding one
//!   relaxed `AtomicU64` per event. Threads are assigned shards round-robin
//!   on first use, so concurrent recording almost never contends on a cache
//!   line and never takes a lock.
//! * [`Snapshot::take`] sums the shards; the runner diffs snapshots around a
//!   timed trial to get exact per-trial counts (counters are monotone, and
//!   the runner snapshots at quiescence).
//!
//! ## Zero cost when disabled
//! Everything is gated on the one `metrics` cargo feature. Without it,
//! [`record`]/[`add`] and the span probes are empty `#[inline(always)]`
//! functions — call sites compile to nothing, local step-counters feeding
//! [`add`] become dead code, [`Stamp`] is zero-sized — and both snapshots
//! are empty. [`ENABLED`] reports the compile-time state so callers can
//! guard code paths whose *shape* would otherwise differ (e.g. the
//! contended-vs-uncontended lock probe in `lo-core::sync`). With the
//! feature on, counters always count, while spans are recorded only after
//! [`set_recording`]`(true)`.
//!
//! Counters are process-global: trials run sequentially, so diffing
//! snapshots attributes events to the trial in between. Relaxed ordering
//! means a mid-flight snapshot may be a few events stale per thread; at
//! quiescence (all worker threads joined) it is exact.

#![warn(missing_docs)]
// The only unsafe in this crate is the `rdtsc` read in the span clock
// (x86_64, `metrics` builds); everything else is forbidden from using it.
#![cfg_attr(not(all(feature = "metrics", target_arch = "x86_64")), forbid(unsafe_code))]
#![deny(unsafe_code)]

pub mod export;
mod hist;
mod span;

pub use hist::Histogram;
pub use span::{
    flight, recording, set_recording, span, span_chain, span_closed, stamp, stamp_closing,
    FlightRecord, Phase, SpanSnapshot, Stamp, SAMPLE_RATE,
};

#[cfg(feature = "metrics")]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Whether this build collects metrics (compile-time constant).
pub const ENABLED: bool = cfg!(feature = "metrics");

macro_rules! events {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Every instrumented event in the suite. The variant order is the
        /// storage order; [`Event::name`] is the stable identifier used in
        /// CSV/JSON output.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Event {
            $($(#[$doc])* $variant,)+
        }

        impl Event {
            /// Number of distinct events.
            pub const COUNT: usize = [$(Event::$variant),+].len();

            /// Every event, in declaration (= storage) order.
            pub const ALL: [Event; Event::COUNT] = [$(Event::$variant),+];

            /// Stable kebab-case identifier for reports.
            pub const fn name(self) -> &'static str {
                match self { $(Event::$variant => $name,)+ }
            }
        }
    };
}

events! {
    /// Tree-layout descent steps taken by `search` (paper Algorithm 1) —
    /// one per edge followed; the per-op rate is the effective tree depth.
    SearchDescent => "search-descent",
    /// `pred`-chase steps a lookup performed past the descent endpoint
    /// (paper Algorithm 2) — nonzero only when racing relocations/rotations.
    ChasePred => "chase-pred",
    /// `succ`-chase steps of a lookup (paper Algorithm 2).
    ChaseSucc => "chase-succ",
    /// Ordering-layout validation failed under the predecessor's `succLock`
    /// and the whole insert/remove/put restarted (paper §5.1 restart
    /// discipline, Algorithms 3 and 7).
    SuccLockRestart => "succ-lock-restart",
    /// A descending (against-order) tree-lock `try_lock` failed and the
    /// tree-lock acquisition phase restarted (paper Algorithm 8).
    TreeLockRestart => "tree-lock-restart",
    /// `lockParent` (paper Algorithm 6) locked a stale parent and retried.
    LockParentRetry => "lock-parent-retry",
    /// One rotation applied (paper Algorithm 11). A double rotation
    /// contributes two.
    Rotation => "rotation",
    /// Double-rotation sequences (inner grandchild lifted first, §4.5).
    DoubleRotation => "double-rotation",
    /// Height recomputation passes during the rebalance walk (paper
    /// Algorithm 13).
    HeightUpdate => "height-update",
    /// The rebalancer lost an against-order `try_lock` race and cycled its
    /// own lock to let the contender finish (paper Algorithm 14).
    RebalanceRestart => "rebalance-restart",
    /// Partially-external mode: a 2-children removal flagged a zombie
    /// instead of physically removing (paper §6 "logical removing").
    ZombieCreated => "zombie-created",
    /// An insert revived a zombie by clearing its flag (paper §6).
    ZombieRevived => "zombie-revived",
    /// A zombie that dropped to ≤1 children was physically unlinked.
    ZombieUnlinked => "zombie-unlinked",
    /// An eligible zombie cleanup aborted on lock contention or failed
    /// validation (allowed: zombies are never required to leave).
    ZombieCleanupAbort => "zombie-cleanup-abort",
    /// `NodeLock::lock` acquired on the fast path (no contention), or
    /// `NodeLock::try_lock` succeeded.
    NodeLockUncontended => "node-lock-uncontended",
    /// `NodeLock::lock` found the lock held and had to wait, or
    /// `NodeLock::try_lock` failed.
    NodeLockContended => "node-lock-contended",
    /// A node or value was retired for deferred destruction (epoch-based
    /// reclamation; counted in `lo-core`).
    ReclaimRetire => "reclaim-retire",
    /// The `lo-reclaim` global epoch advanced.
    ReclaimAdvance => "reclaim-advance",
    /// Objects actually freed after their grace period (`lo-reclaim`).
    ReclaimFree => "reclaim-free",
    /// The node arena mapped a fresh chunk (one 2 MiB region) from the OS.
    ArenaChunkAlloc => "arena-chunk-alloc",
    /// The node arena returned a fully-empty chunk to the OS (beyond the
    /// one-chunk hysteresis).
    ArenaChunkFree => "arena-chunk-free",
    /// An ordered-cursor traversal was anchored (one per `scan_range` /
    /// `for_each_in_order` / `range_count` / ceiling / floor / pop call).
    ScanStarted => "scan-started",
    /// Live keys yielded to scan callbacks by the ordered cursor.
    ScanKeysYielded => "scan-keys-yielded",
    /// A long scan dropped its epoch guard at a chunk boundary and
    /// re-pinned + re-anchored (the cursor's chunked re-pinning rule).
    ScanRepin => "scan-repin",
    /// Never recorded: the restart of the retired optimistic write path's
    /// snapshot validation. Kept only because storebench still names it;
    /// writer restarts are [`Event::SuccLockRestart`] and
    /// [`Event::TreeLockRestart`].
    ValidationRestart => "validation-restart",
    /// Never recorded: the retired optimistic write path's lost `try_lock`
    /// race. Kept only because storebench still names it (see
    /// [`Event::ValidationRestart`]).
    LockContentionRestart => "lock-contention-restart",
    /// An online recovery claimed a poisoned tree's gate (quarantine
    /// began); one per `try_recover` call that won the claim.
    RecoveryStarted => "recovery-started",
    /// A recovery passed full post-repair verification and re-opened the
    /// gate: the tree is writable again.
    RecoverySucceeded => "recovery-succeeded",
    /// A recovery failed verification and restored the prior poison cause
    /// (the tree stays read-only).
    RecoveryFailed => "recovery-failed",
    /// Nodes carried from the damaged tree into the repaired one (chain
    /// survivors), summed across recoveries.
    RecoveryNodesSalvaged => "recovery-nodes-salvaged",
    /// Nodes found unreachable from the surviving chain and retired
    /// through the epoch during recovery, summed across recoveries.
    RecoveryNodesOrphaned => "recovery-nodes-orphaned",
    /// A sharded-store combiner drained one batch from a shard's op queue
    /// (one per drain, regardless of batch size — ISSUE 10).
    StoreBatchDrained => "store-batch-drained",
    /// Operations executed inside combiner batches, summed; divided by
    /// [`Event::StoreBatchDrained`] it is the mean batch size.
    StoreBatchLen => "store-batch-len",
    /// A thread finished its own batch and handed the combiner role to a
    /// waiter that enqueued while it was draining.
    StoreCombinerHandoff => "store-combiner-handoff",
    /// A cross-shard ordered scan advanced from one shard's cursor to the
    /// next (one per shard boundary crossed mid-scan).
    StoreCrossShardScanStitch => "store-cross-shard-scan-stitch",
}

/// Number of counter shards. Threads are striped across shards round-robin;
/// more shards than typical worker counts keeps recording contention-free.
pub const SHARDS: usize = 64;

#[cfg(feature = "metrics")]
mod table {
    use super::*;

    /// One shard: a full set of counters, aligned so that no two shards
    /// share a cache line (128 covers adjacent-line prefetcher pairs).
    #[repr(align(128))]
    pub(crate) struct Shard {
        pub(crate) counters: [AtomicU64; Event::COUNT],
    }

    impl Shard {
        const fn new() -> Self {
            #[allow(clippy::declare_interior_mutable_const)]
            const ZERO: AtomicU64 = AtomicU64::new(0);
            Self { counters: [ZERO; Event::COUNT] }
        }
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_SHARD: Shard = Shard::new();
    pub(crate) static TABLE: [Shard; SHARDS] = [EMPTY_SHARD; SHARDS];

    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// This thread's shard index, assigned round-robin on first use.
        pub(crate) static SHARD: usize =
            NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
}

/// Adds `n` occurrences of `event` to the calling thread's shard.
///
/// Use for batched recording (e.g. a locally counted descent depth added
/// once per operation); prefer it over `n` calls to [`record`].
#[cfg(feature = "metrics")]
#[inline]
pub fn add(event: Event, n: u64) {
    if n == 0 {
        return;
    }
    table::SHARD.with(|&s| {
        table::TABLE[s].counters[event as usize].fetch_add(n, Ordering::Relaxed)
    });
}

/// No-op (the `metrics` feature is disabled).
#[cfg(not(feature = "metrics"))]
#[inline(always)]
pub fn add(_event: Event, _n: u64) {}

/// Records one occurrence of `event` (no-op unless the `metrics` feature is
/// enabled).
#[inline(always)]
pub fn record(event: Event) {
    add(event, 1);
}

/// A point-in-time copy of every counter, summed across shards.
///
/// Monotone between two [`Snapshot::take`] calls on a quiescent process;
/// [`Snapshot::since`] diffs two snapshots to isolate one trial's events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; Event::COUNT],
}

impl Snapshot {
    /// The all-zero snapshot.
    pub const fn zero() -> Self {
        Self { counts: [0; Event::COUNT] }
    }

    /// Sums every shard. With the `metrics` feature disabled this is
    /// [`Snapshot::zero`].
    pub fn take() -> Self {
        #[cfg(feature = "metrics")]
        {
            let mut s = Self::zero();
            for shard in table::TABLE.iter() {
                for (i, c) in shard.counters.iter().enumerate() {
                    s.counts[i] += c.load(Ordering::Relaxed);
                }
            }
            s
        }
        #[cfg(not(feature = "metrics"))]
        Self::zero()
    }

    /// Per-event difference `self − earlier` (saturating, so a snapshot pair
    /// taken out of order degrades to zeros rather than garbage).
    pub fn since(&self, earlier: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..Event::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Adds another snapshot's counts into this one (e.g. accumulating
    /// repetitions of a trial).
    pub fn merge(&mut self, other: &Self) {
        for i in 0..Event::COUNT {
            self.counts[i] += other.counts[i];
        }
    }

    /// The count recorded for `event`.
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Sum over all events.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Events per operation for reporting (`0.0` when `ops` is zero).
    pub fn per_op(&self, event: Event, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.get(event) as f64 / ops as f64
        }
    }

    /// Iterates `(event, count)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL.iter().map(move |&e| (e, self.get(e)))
    }

    /// Iterates only events with nonzero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        self.iter().filter(|&(_, c)| c > 0)
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_unique_and_kebab() {
        let mut names: Vec<_> = Event::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Event::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Event::COUNT, "duplicate event name");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "non-kebab event name {n:?}"
            );
        }
    }

    #[test]
    fn variant_indices_match_all_order() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "enum discriminant out of order at {e:?}");
        }
    }

    #[test]
    fn snapshot_algebra() {
        let mut a = Snapshot::zero();
        a.counts[0] = 10;
        let mut b = a;
        b.counts[0] = 25;
        b.counts[1] = 5;
        let d = b.since(&a);
        assert_eq!(d.get(Event::ALL[0]), 15);
        assert_eq!(d.get(Event::ALL[1]), 5);
        assert_eq!(d.total(), 20);
        // Out-of-order diff saturates to zero instead of wrapping.
        assert_eq!(a.since(&b).get(Event::ALL[0]), 0);
        let mut m = a;
        m.merge(&d);
        assert_eq!(m.get(Event::ALL[0]), 25);
        assert!(!m.is_zero());
        assert!(Snapshot::zero().is_zero());
    }

    #[test]
    fn per_op_handles_zero_ops() {
        let mut s = Snapshot::zero();
        s.counts[0] = 30;
        assert_eq!(s.per_op(Event::ALL[0], 0), 0.0);
        assert!((s.per_op(Event::ALL[0], 60) - 0.5).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // Feature-ON behaviour: counters actually count, across threads.
    // ------------------------------------------------------------------

    /// Serializes the two tests that record into the process-global
    /// counters, so `enabled_records_and_shards` can require an exact diff.
    #[cfg(feature = "metrics")]
    #[allow(clippy::disallowed_types)] // test gate, not tree-protocol state
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "metrics")]
    #[test]
    fn enabled_records_and_shards() {
        const { assert!(ENABLED) };
        let _gate = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let before = Snapshot::take();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        record(Event::SearchDescent);
                    }
                    add(Event::ChasePred, 3);
                });
            }
        });
        let diff = Snapshot::take().since(&before);
        assert_eq!(diff.get(Event::SearchDescent), THREADS as u64 * PER_THREAD);
        assert_eq!(diff.get(Event::ChasePred), THREADS as u64 * 3);
        assert_eq!(diff.get(Event::Rotation), 0);
        let nonzero: Vec<_> = diff.nonzero().map(|(e, _)| e).collect();
        assert_eq!(nonzero, vec![Event::SearchDescent, Event::ChasePred]);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn add_zero_is_noop() {
        let before = Snapshot::take();
        add(Event::Rotation, 0);
        // Another event may race from the sharding test; check this event
        // only — `add(_, 0)` must not bump it.
        let diff = Snapshot::take().since(&before);
        assert_eq!(diff.get(Event::Rotation), 0);
    }

    /// On/off throughput sanity check: recording must be cheap enough that
    /// 10M increments finish promptly even on a loaded 1-core container.
    /// (The disabled twin below bounds the no-op build the same way; the
    /// real zero-cost evidence is that `record` is an empty
    /// `#[inline(always)]` fn there.)
    #[cfg(feature = "metrics")]
    #[test]
    fn throughput_sanity_enabled() {
        let _gate = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let t0 = std::time::Instant::now();
        for _ in 0..10_000_000u64 {
            record(Event::HeightUpdate);
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "sharded counters are pathologically slow: {:?}",
            t0.elapsed()
        );
    }

    // ------------------------------------------------------------------
    // Feature-OFF behaviour: provably inert.
    // ------------------------------------------------------------------

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn disabled_is_noop() {
        const _: () = assert!(!ENABLED);
        for e in Event::ALL {
            record(e);
            add(e, 1_000);
        }
        let s = Snapshot::take();
        assert!(s.is_zero(), "disabled build must never observe a count");
        assert_eq!(s.total(), 0);
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn throughput_sanity_disabled() {
        let t0 = std::time::Instant::now();
        for _ in 0..10_000_000u64 {
            record(Event::HeightUpdate);
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "no-op recording must be free: {:?}",
            t0.elapsed()
        );
    }
}
