//! Spans: how long each hot-path phase takes.
//!
//! - **Zero cost when off.** Without the `metrics` feature, [`Stamp`] is a
//!   unit struct and [`stamp`]/[`span`] are empty `#[inline(always)]`
//!   functions: no clock reads, no ring writes, nothing in the hot paths.
//! - **Runtime gate + sampling.** With `metrics` compiled in, nothing is
//!   recorded until [`set_recording`]`(true)` (the repro binaries'
//!   `--trace` flag), and probes are sampled by a per-thread
//!   1-in-[`SAMPLE_RATE`] countdown that runs *before* the gate check: the
//!   common probe is a single thread-local decrement whether recording is
//!   on or off. Chained windows ([`span_chain`],
//!   [`stamp_closing`]/[`span_closed`]) inherit the opener's ticket, so a
//!   lock's wait and hold spans are sampled together.
//! - **Fixed-size binary records.** Each span is two `u64` words in a
//!   per-thread ring: word 0 is the start timestamp (ns since the process
//!   trace epoch), word 1 packs `phase:8 | duration:56`. The ring keeps
//!   the newest [`flight::RING_CAPACITY`] records per thread: a flight
//!   recorder, not an unbounded log.
//! - **Cheap monotonic clock.** On x86_64, the invariant TSC (`rdtsc`)
//!   converted to nanoseconds via a fixed-point multiplier calibrated
//!   against [`std::time::Instant`] when recording is first armed;
//!   elsewhere (or uncalibrated), one `clock_gettime(CLOCK_MONOTONIC)`
//!   read from the process `Instant` anchor.
//! - **Single-writer rings.** Only the owning thread stores into its ring
//!   (relaxed stores, release head bump) and its per-phase histograms; no
//!   contended read-modify-writes anywhere on the record path. Readers
//!   (exporters, the post-mortem dump) may observe a torn in-flight record
//!   mid-run and skip it, and see an exact log at quiescence, which is when
//!   dumps happen.
//!
//! Every sampled span, not just the ring's tail, also lands in its phase's
//! [`Histogram`], so lock-wait/lock-hold distributions survive ring
//! wrap-around; [`SpanSnapshot::take`] sums them across threads.

use crate::Histogram;

/// Defines [`Phase`] with stable indices and display names.
macro_rules! phases {
    ($($(#[$meta:meta])* $variant:ident => $name:literal,)+) => {
        /// A hot-path phase whose duration the flight recorder captures.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Phase {
            $($(#[$meta])* $variant,)+
        }

        impl Phase {
            /// Number of phases.
            pub const COUNT: usize = [$(Phase::$variant),+].len();
            /// Every phase, in index order.
            pub const ALL: [Phase; Self::COUNT] = [$(Phase::$variant),+];

            /// Stable display name (used by both exporters).
            pub fn name(self) -> &'static str {
                match self { $(Phase::$variant => $name),+ }
            }

            /// Index of this phase (dense, `0..COUNT`).
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Phase for a packed record's index byte, if valid.
            pub fn from_index(i: usize) -> Option<Phase> {
                Self::ALL.get(i).copied()
            }
        }
    };
}

phases! {
    /// Tree-layout descent of a search (root to parent-of-target).
    Descent => "descent",
    /// Waiting to acquire a successor-chain lock (`succLock`).
    SuccLockWait => "succ-lock-wait",
    /// Holding a successor-chain lock (acquire to release).
    SuccLockHold => "succ-lock-hold",
    /// Waiting to acquire a tree-layout lock (`treeLock`).
    TreeLockWait => "tree-lock-wait",
    /// Holding a tree-layout lock (acquire to release).
    TreeLockHold => "tree-lock-hold",
    /// One writer restart loop iteration (validation failure or lost
    /// try-lock race, per the paper's restart discipline).
    Restart => "restart",
    /// A single or double rotation (child rewiring + height stores).
    Rotation => "rotation",
    /// An ordered-scan epoch repin (guard refresh between chunks).
    ScanRepin => "scan-repin",
    /// One whole online recovery: gate claim, writer drain, audit, repair,
    /// and verification — the quarantine window during which writers
    /// bounce with `Recovering`.
    Recovery => "recovery",
}

/// Every thread records one span in `SAMPLE_RATE`.
///
/// Chosen so a table1-smoke mix stays inside the < 10% overhead budget
/// (`tests/trace_overhead.rs`) even on a single-core box, where every
/// traced nanosecond is serialized against the workload. A benchmark
/// trial still lands tens of thousands of spans per second per phase.
pub const SAMPLE_RATE: u32 = 32;

/// An opaque start-of-span timestamp returned by [`stamp`].
///
/// Zero-sized when the `metrics` feature is off, so carrying one in a hot
/// struct (a held-lock registry entry, a restart budget) costs nothing.
#[cfg(feature = "metrics")]
#[derive(Clone, Copy, Debug)]
pub struct Stamp(u64);

/// An opaque start-of-span timestamp returned by [`stamp`].
///
/// Zero-sized when the `metrics` feature is off, so carrying one in a hot
/// struct (a held-lock registry entry, a restart budget) costs nothing.
#[cfg(not(feature = "metrics"))]
#[derive(Clone, Copy, Debug)]
pub struct Stamp;

#[cfg(not(feature = "metrics"))]
const _: () = assert!(std::mem::size_of::<Stamp>() == 0, "no-op Stamp must be zero-sized");

impl Stamp {
    /// A stamp that records nothing when closed with [`span`].
    #[inline(always)]
    pub const fn disarmed() -> Self {
        #[cfg(feature = "metrics")]
        {
            Stamp(0)
        }
        #[cfg(not(feature = "metrics"))]
        {
            Stamp
        }
    }
}

/// Opens a span: reads the monotonic clock if (and only if) spans are
/// compiled in, recording is enabled, *and* this probe wins the sampling
/// lottery (a per-thread 1-in-[`SAMPLE_RATE`] counter). Close it with
/// [`span`]. Sampling keeps recording within the < 10% overhead budget
/// on paths hot enough to fire every operation; the histograms remain
/// unbiased and the flight recorder still fills in milliseconds.
///
/// The countdown is the *first* check, before the recording gate: the
/// fast path is one thread-local decrement whether recording is on or
/// off, and only the 1-in-N slow path consults the gate and the clock.
/// This is what keeps the recording-on *disarmed* probe as cheap as the
/// recording-off probe — the overhead budget then buys armed spans, not
/// lottery bookkeeping.
#[inline(always)]
pub fn stamp() -> Stamp {
    #[cfg(feature = "metrics")]
    {
        active::lottery()
    }
    #[cfg(not(feature = "metrics"))]
    {
        Stamp
    }
}

/// Closes a span opened by [`stamp`]: records its duration into the
/// per-phase histogram and the calling thread's flight-recorder ring.
/// A disarmed stamp (recording was off at open) records nothing.
#[inline(always)]
pub fn span(phase: Phase, start: Stamp) {
    #[cfg(feature = "metrics")]
    {
        if start.0 != 0 {
            active::record(phase, start.0);
        }
    }
    #[cfg(not(feature = "metrics"))]
    {
        let _ = (phase, start);
    }
}

/// Closes a span opened by [`stamp`] *and* opens the next one with a
/// single clock read: the recorded span ends exactly where the returned
/// stamp begins. Built for back-to-back windows on a hot path — e.g. a
/// lock's wait span chaining into its hold span at the acquire instant.
///
/// A disarmed `start` (recording off, or the opener lost the sampling
/// lottery) records nothing and returns a disarmed stamp: a chained
/// window inherits its opener's sampling decision, so window pairs are
/// sampled together and stay adjacent in the flight recorder.
#[inline(always)]
pub fn span_chain(phase: Phase, start: Stamp) -> Stamp {
    #[cfg(feature = "metrics")]
    {
        if start.0 == 0 {
            return Stamp(0);
        }
        let now = active::now_ns();
        active::record_at(phase, start.0, now.saturating_sub(start.0));
        Stamp(now)
    }
    #[cfg(not(feature = "metrics"))]
    {
        let _ = (phase, start);
        Stamp
    }
}

/// Takes the end-of-span stamp for a window opened by `start`, inheriting
/// its sampling decision: reads the clock only when `start` is armed (no
/// fresh lottery ticket), so a sampled window always gets its end stamp
/// and an unsampled one stays free. Pair with [`span_closed`].
#[inline(always)]
pub fn stamp_closing(start: Stamp) -> Stamp {
    #[cfg(feature = "metrics")]
    {
        if start.0 != 0 {
            return Stamp(active::now_ns());
        }
        Stamp(0)
    }
    #[cfg(not(feature = "metrics"))]
    {
        let _ = start;
        Stamp
    }
}

/// Records the span `start..end` from two already-taken stamps — no clock
/// read. Built for spans that must *close* inside a critical section but
/// whose recording cost should land outside it: take `end` with
/// [`stamp_closing`] before the release store, then call this after it.
/// Records nothing if either stamp is disarmed.
#[inline(always)]
pub fn span_closed(phase: Phase, start: Stamp, end: Stamp) {
    #[cfg(feature = "metrics")]
    {
        if start.0 != 0 && end.0 != 0 {
            active::record_at(phase, start.0, end.0.saturating_sub(start.0));
        }
    }
    #[cfg(not(feature = "metrics"))]
    {
        let _ = (phase, start, end);
    }
}

/// Enables or disables span recording at runtime (no-op without
/// `metrics`). Counters need no switch: they always count when compiled in.
#[inline]
pub fn set_recording(on: bool) {
    #[cfg(feature = "metrics")]
    {
        if on {
            // Calibrate the fast clock (first arm only) before any probe
            // can observe `recording() == true`. The calibration state has
            // its own Release/Acquire pair (clock::MULT), so the flag
            // itself is advisory and Relaxed on both sides.
            active::clock::calibrate();
        }
        active::RECORDING.store(on, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(feature = "metrics"))]
    {
        let _ = on;
    }
}

/// Whether spans are currently being recorded.
#[inline]
pub fn recording() -> bool {
    #[cfg(feature = "metrics")]
    {
        active::recording()
    }
    #[cfg(not(feature = "metrics"))]
    {
        false
    }
}

/// One decoded flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Recorder-assigned thread id (dense, in registration order).
    pub tid: u32,
    /// The phase this span measured.
    pub phase: Phase,
    /// Span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (saturated at 2⁵⁶ − 1).
    pub dur_ns: u64,
}

/// A point-in-time copy of every phase's duration histogram.
#[derive(Clone, Debug)]
pub struct SpanSnapshot {
    phases: Vec<Histogram>,
}

impl SpanSnapshot {
    /// An all-empty snapshot.
    pub fn zero() -> Self {
        Self { phases: vec![Histogram::new(); Phase::COUNT] }
    }

    /// Sums every thread's live histograms (all-empty without `metrics`).
    pub fn take() -> Self {
        #[cfg(feature = "metrics")]
        {
            active::snapshot()
        }
        #[cfg(not(feature = "metrics"))]
        {
            Self::zero()
        }
    }

    /// Histogram of one phase.
    pub fn phase(&self, p: Phase) -> &Histogram {
        &self.phases[p.index()]
    }

    /// Spans recorded between `before` and this snapshot.
    pub fn since(&self, before: &SpanSnapshot) -> SpanSnapshot {
        let phases = Phase::ALL.iter().map(|&p| self.phase(p).since(before.phase(p))).collect();
        SpanSnapshot { phases }
    }

    /// Total spans across all phases.
    pub fn total_spans(&self) -> u64 {
        self.phases.iter().map(Histogram::count).sum()
    }

    /// `true` when no phase has any recorded span.
    pub fn is_zero(&self) -> bool {
        self.total_spans() == 0
    }

    /// Records one span directly into this snapshot (exporter tests).
    #[cfg(test)]
    pub(crate) fn record(&mut self, p: Phase, dur_ns: u64) {
        self.phases[p.index()].record(dur_ns);
    }
}

/// The per-thread flight recorder: ring access, merged dumps, and the
/// post-mortem latch armed by the chaos/poison path.
pub mod flight {
    use super::FlightRecord;

    /// Records kept per thread; older records are overwritten in place.
    pub const RING_CAPACITY: usize = 4096;

    // One recording thread's ring plus its per-phase histograms stays at or
    // below 128 KiB (records are two words; a histogram is its buckets plus
    // sum, min and max).
    const _: () = assert!(
        RING_CAPACITY * 16 + super::Phase::COUNT * (crate::hist::BUCKETS + 3) * 8 <= 128 << 10
    );

    /// Every registered thread's records, merged and sorted by start
    /// timestamp (empty without `metrics`). Exact at quiescence; may omit
    /// a record being overwritten concurrently.
    pub fn merged_records() -> Vec<FlightRecord> {
        #[cfg(feature = "metrics")]
        {
            super::active::merged_records()
        }
        #[cfg(not(feature = "metrics"))]
        {
            Vec::new()
        }
    }

    /// The calling thread's own records, oldest first (empty without
    /// `metrics`). Test/diagnostic aid.
    pub fn current_thread_records() -> Vec<FlightRecord> {
        #[cfg(feature = "metrics")]
        {
            super::active::current_thread_records()
        }
        #[cfg(not(feature = "metrics"))]
        {
            Vec::new()
        }
    }

    /// Re-arms the post-mortem latch: the next poisoning after this call
    /// makes one dump available via [`take_post_mortem`].
    pub fn arm_post_mortem() {
        #[cfg(feature = "metrics")]
        {
            // Re-arming races with nothing that publishes data: plain flag
            // resets, so Relaxed suffices.
            use std::sync::atomic::Ordering;
            super::active::DUMP_TAKEN.store(false, Ordering::Relaxed);
            super::active::POISON_SEEN.store(false, Ordering::Relaxed);
        }
    }

    /// Called by lo-core when a tree is poisoned (a writer died or the
    /// restart-storm tripwire fired): latches that a post-mortem dump
    /// should be offered. Cheap and idempotent; no-op without `metrics`.
    pub fn note_poisoned() {
        #[cfg(feature = "metrics")]
        {
            // Release pairs with the Acquire load in `take_post_mortem`:
            // ring entries written before the poisoning are visible to the
            // thread that takes the dump.
            super::active::POISON_SEEN.store(true, std::sync::atomic::Ordering::Release);
        }
    }

    /// Takes the post-mortem dump: a Chrome Trace Event JSON document of
    /// every thread's ring. Returns `Some` exactly once per armed
    /// poisoning ([`arm_post_mortem`] re-arms); `None` if no poisoning
    /// was noted, on repeat calls, or without `metrics`.
    pub fn take_post_mortem() -> Option<String> {
        #[cfg(feature = "metrics")]
        {
            use std::sync::atomic::Ordering;
            // Acquire pairs with `note_poisoned`'s Release; the AcqRel swap
            // makes "exactly one dump per arming" a total order among
            // concurrent takers.
            if super::active::POISON_SEEN.load(Ordering::Acquire)
                && !super::active::DUMP_TAKEN.swap(true, Ordering::AcqRel)
            {
                return Some(crate::export::chrome_trace_json(&merged_records()));
            }
            None
        }
        #[cfg(not(feature = "metrics"))]
        {
            None
        }
    }

    /// Pushes a pre-timed record into the calling thread's ring and the
    /// histograms, bypassing the clock. Test support for wrap-around and
    /// merge-order coverage; requires recording to be enabled.
    #[cfg(all(test, feature = "metrics"))]
    pub(crate) fn record_raw(phase: super::Phase, start_ns: u64, dur_ns: u64) {
        if super::active::recording() {
            super::active::record_at(phase, start_ns, dur_ns);
        }
    }
}

#[cfg(feature = "metrics")]
// Registry of leaked per-thread rings — harness-internal, never taken on a
// tree code path (see clippy.toml).
#[allow(clippy::disallowed_types)]
mod active {
    use super::{FlightRecord, Phase, SpanSnapshot};
    use crate::flight::RING_CAPACITY;
    use crate::hist::LiveHistogram;
    use crate::Histogram;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    pub(crate) static RECORDING: AtomicBool = AtomicBool::new(false);
    pub(crate) static POISON_SEEN: AtomicBool = AtomicBool::new(false);
    pub(crate) static DUMP_TAKEN: AtomicBool = AtomicBool::new(false);

    #[inline(always)]
    pub(crate) fn recording() -> bool {
        RECORDING.load(Ordering::Relaxed)
    }

    /// The sampling rate the unit tests that assert exact spans lower to 1.
    #[cfg(test)]
    pub(crate) static TEST_SAMPLE_RATE: AtomicU32 = AtomicU32::new(super::SAMPLE_RATE);

    #[inline]
    fn sample_rate() -> u32 {
        #[cfg(test)]
        {
            TEST_SAMPLE_RATE.load(Ordering::Relaxed)
        }
        #[cfg(not(test))]
        {
            super::SAMPLE_RATE
        }
    }

    thread_local! {
        /// Countdown until this thread's next sampled span; one decrement
        /// per [`super::stamp`] probe, reload on the slow path.
        static SAMPLE_LEFT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// One ticket of the per-thread 1-in-N sampling lottery, countdown
    /// first: the common case is a single `Cell` decrement with no atomic
    /// load and no clock read, identical whether recording is on or off.
    /// Every Nth probe (and the first ever on a thread, so short-lived
    /// writers still leave flight-recorder evidence) falls into the cold
    /// slow path, which reloads the countdown and — only if recording is
    /// armed — reads the clock.
    #[inline(always)]
    pub(crate) fn lottery() -> super::Stamp {
        SAMPLE_LEFT.with(|c| {
            let left = c.get();
            if left > 1 {
                c.set(left - 1);
                super::Stamp(0)
            } else {
                lottery_slow(c)
            }
        })
    }

    #[cold]
    fn lottery_slow(c: &std::cell::Cell<u32>) -> super::Stamp {
        c.set(sample_rate());
        if recording() {
            super::Stamp(now_ns())
        } else {
            super::Stamp(0)
        }
    }

    /// Nanoseconds since the process trace epoch, always ≥ 1 so a zero
    /// `Stamp` can mean "disarmed". Delegates to the calibrated fast
    /// clock on x86_64, `Instant` elsewhere.
    #[inline(always)]
    pub(crate) fn now_ns() -> u64 {
        clock::now_ns()
    }

    /// The span clock. Every probe reads it twice, so its cost bounds the
    /// whole recording overhead budget (DESIGN.md §10).
    ///
    /// On x86_64 it reads the invariant TSC (`rdtsc`, a few ns) and
    /// converts ticks to nanoseconds with a fixed-point multiplier
    /// calibrated against `Instant` on the first [`calibrate`] (a ~2 ms
    /// one-time spin when recording is first armed). The TSC on every
    /// CPU of the last decade is invariant (constant rate, synchronized
    /// across cores); worst case on exotic hardware is skewed durations
    /// in a diagnostic tool, never unsoundness. Other architectures use
    /// `clock_gettime` via `Instant`.
    pub(crate) mod clock {
        use std::sync::OnceLock;
        use std::time::Instant;

        fn epoch() -> Instant {
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            *EPOCH.get_or_init(Instant::now)
        }

        #[inline]
        fn instant_now_ns() -> u64 {
            (epoch().elapsed().as_nanos() as u64).max(1)
        }

        #[cfg(target_arch = "x86_64")]
        mod tsc {
            use std::sync::atomic::{AtomicU64, Ordering};
            use std::time::Instant;

            /// `ns_per_tick << MULT_SHIFT`; 0 until calibrated.
            static MULT: AtomicU64 = AtomicU64::new(0);
            /// TSC value at the calibration anchor.
            static TSC0: AtomicU64 = AtomicU64::new(0);
            /// `Instant`-clock ns already elapsed at the anchor (keeps the
            /// TSC path on the same epoch as the fallback path).
            static ANCHOR_NS: AtomicU64 = AtomicU64::new(0);

            const MULT_SHIFT: u32 = 24;

            #[inline(always)]
            #[allow(unsafe_code)]
            fn rdtsc() -> u64 {
                // SAFETY: `rdtsc` is unconditionally available on x86_64;
                // it reads a counter and has no memory effects.
                unsafe { core::arch::x86_64::_rdtsc() }
            }

            /// One-time fixed-point calibration of ticks → ns.
            pub(super) fn calibrate() {
                if MULT.load(Ordering::Acquire) != 0 {
                    return;
                }
                let anchor_ns = super::instant_now_ns();
                let (i0, c0) = (Instant::now(), rdtsc());
                // ~2 ms window: TSC rates are in the GHz range, so this
                // already gives < 0.1% conversion error.
                while i0.elapsed().as_micros() < 2_000 {
                    std::hint::spin_loop();
                }
                let (dt, dc) = (i0.elapsed().as_nanos() as u64, rdtsc().wrapping_sub(c0));
                if dc == 0 {
                    return; // TSC unusable; stay on the Instant path.
                }
                let mult = ((dt as u128) << MULT_SHIFT) / dc as u128;
                TSC0.store(c0, Ordering::Relaxed);
                ANCHOR_NS.store(anchor_ns, Ordering::Relaxed);
                // Release-publish the anchor stores above.
                MULT.store(mult as u64, Ordering::Release);
            }

            #[inline(always)]
            pub(super) fn now_ns() -> Option<u64> {
                let mult = MULT.load(Ordering::Acquire);
                if mult == 0 {
                    return None;
                }
                let ticks = rdtsc().wrapping_sub(TSC0.load(Ordering::Relaxed));
                let ns = ((ticks as u128 * mult as u128) >> MULT_SHIFT) as u64;
                Some((ANCHOR_NS.load(Ordering::Relaxed) + ns).max(1))
            }
        }

        /// Calibrates the fast clock if this target has one (idempotent).
        pub(crate) fn calibrate() {
            #[cfg(target_arch = "x86_64")]
            tsc::calibrate();
            // Pin the epoch either way so timestamps are comparable.
            let _ = epoch();
        }

        /// Nanoseconds since the process trace epoch, ≥ 1.
        #[inline(always)]
        pub(crate) fn now_ns() -> u64 {
            #[cfg(target_arch = "x86_64")]
            if let Some(ns) = tsc::now_ns() {
                return ns;
            }
            instant_now_ns()
        }
    }

    const DUR_BITS: u32 = 56;
    const DUR_MASK: u64 = (1 << DUR_BITS) - 1;

    /// One thread's flight recorder: a single-writer ring of packed
    /// two-word records plus this thread's share of the per-phase
    /// histograms. `head` counts records ever pushed; the slot for record
    /// `n` is `n % RING_CAPACITY`.
    ///
    /// The histograms live here — not in contended globals — because the
    /// recording fast path runs on every sampled span: a single writer
    /// bumps its own buckets with plain load + store (no `lock` prefix, no
    /// cross-core cache-line ping-pong), and [`snapshot`] sums across rings
    /// instead. Each ring is its own leaked allocation, so threads never
    /// false-share. A phase's histogram is allocated on the thread's first
    /// span of that phase, so a thread pays only for the phases it records
    /// and its first span stays cheap.
    struct Ring {
        tid: u32,
        head: AtomicU64,
        slots: Box<[AtomicU64]>,
        phases: [OnceLock<Box<LiveHistogram>>; Phase::COUNT],
    }

    impl Ring {
        fn new(tid: u32) -> Self {
            let slots = (0..RING_CAPACITY * 2).map(|_| AtomicU64::new(0)).collect();
            Self {
                tid,
                head: AtomicU64::new(0),
                slots,
                phases: [const { OnceLock::new() }; Phase::COUNT],
            }
        }

        #[inline]
        fn push(&self, start_ns: u64, phase: Phase, dur_ns: u64) {
            let h = self.head.load(Ordering::Relaxed);
            let i = (h as usize % RING_CAPACITY) * 2;
            self.slots[i].store(start_ns, Ordering::Relaxed);
            let packed = ((phase.index() as u64) << DUR_BITS) | dur_ns.min(DUR_MASK);
            self.slots[i + 1].store(packed, Ordering::Relaxed);
            // Publish the record before readers may index past it.
            self.head.store(h + 1, Ordering::Release);
        }

        /// Decoded records, oldest first. A record the owner is
        /// concurrently overwriting may decode to an invalid phase byte
        /// and is skipped (the dump paths run at quiescence).
        fn records(&self) -> Vec<FlightRecord> {
            let head = self.head.load(Ordering::Acquire);
            let len = head.min(RING_CAPACITY as u64);
            let mut out = Vec::with_capacity(len as usize);
            for n in (head - len)..head {
                let i = (n as usize % RING_CAPACITY) * 2;
                let start_ns = self.slots[i].load(Ordering::Relaxed);
                let packed = self.slots[i + 1].load(Ordering::Relaxed);
                let Some(phase) = Phase::from_index((packed >> DUR_BITS) as usize) else {
                    continue;
                };
                if start_ns == 0 {
                    continue;
                }
                out.push(FlightRecord {
                    tid: self.tid,
                    phase,
                    start_ns,
                    dur_ns: packed & DUR_MASK,
                });
            }
            out
        }
    }

    /// Every thread's ring, registered on first span. Rings are leaked
    /// (64 KiB of records plus ≈4 KiB per recorded phase) so a dead
    /// thread's history — exactly what a post-mortem wants — survives the
    /// thread.
    static REGISTRY: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);

    thread_local! {
        static MY_RING: &'static Ring = {
            let ring: &'static Ring =
                Box::leak(Box::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed))));
            REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).push(ring);
            ring
        };
    }

    #[inline]
    pub(crate) fn record(phase: Phase, start_ns: u64) {
        let dur_ns = now_ns().saturating_sub(start_ns);
        record_at(phase, start_ns, dur_ns);
    }

    #[inline]
    pub(crate) fn record_at(phase: Phase, start_ns: u64, dur_ns: u64) {
        MY_RING.with(|r| {
            let hist = r.phases[phase.index()].get_or_init(|| Box::new(LiveHistogram::new()));
            hist.record(dur_ns);
            r.push(start_ns.max(1), phase, dur_ns);
        });
    }

    fn rings() -> Vec<&'static Ring> {
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Sums every registered thread's histograms. Histories of dead
    /// threads are included (rings are leaked), matching the global-
    /// counter semantics the exporters expect.
    pub(crate) fn snapshot() -> SpanSnapshot {
        let rings = rings();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let mut h = Histogram::new();
                for ring in &rings {
                    if let Some(live) = ring.phases[p.index()].get() {
                        live.add_to(&mut h);
                    }
                }
                h
            })
            .collect();
        SpanSnapshot { phases }
    }

    pub(crate) fn merged_records() -> Vec<FlightRecord> {
        let mut out: Vec<FlightRecord> = rings().iter().flat_map(|r| r.records()).collect();
        out.sort_by_key(|r| (r.start_ns, r.tid));
        out
    }

    pub(crate) fn current_thread_records() -> Vec<FlightRecord> {
        MY_RING.with(|r| r.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_and_indices_are_stable() {
        assert_eq!(Phase::COUNT, 9);
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), Some(p));
        }
        assert_eq!(Phase::from_index(Phase::COUNT), None);
        assert_eq!(Phase::SuccLockWait.name(), "succ-lock-wait");
        assert_eq!(Phase::TreeLockHold.name(), "tree-lock-hold");
    }

    #[test]
    fn snapshot_since_subtracts() {
        let mut before = SpanSnapshot::zero();
        before.record(Phase::Descent, 10);
        let mut after = before.clone();
        for _ in 0..3 {
            after.record(Phase::Descent, 10);
        }
        let d = after.since(&before);
        assert_eq!(d.phase(Phase::Descent).count(), 3);
        assert_eq!(d.phase(Phase::Descent).sum(), 30);
        assert_eq!(d.total_spans(), 3);
        assert!(!d.is_zero());
        assert!(SpanSnapshot::zero().is_zero());
    }

    #[cfg(not(feature = "metrics"))]
    mod noop {
        use super::super::*;

        #[test]
        fn everything_is_inert() {
            const _: () = assert!(!crate::ENABLED);
            assert_eq!(std::mem::size_of::<Stamp>(), 0);
            set_recording(true);
            assert!(!recording(), "recording cannot be enabled in a no-op build");
            let s = stamp();
            span(Phase::Descent, s);
            assert!(SpanSnapshot::take().is_zero());
            assert!(flight::merged_records().is_empty());
            assert!(flight::current_thread_records().is_empty());
            flight::note_poisoned();
            assert_eq!(flight::take_post_mortem(), None);
        }
    }

    #[cfg(feature = "metrics")]
    #[allow(clippy::disallowed_types)] // test gate, not tree-protocol state
    mod live {
        use super::super::*;

        /// Serializes tests that toggle the global recording flag.
        fn gate() -> std::sync::MutexGuard<'static, ()> {
            static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
            GATE.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn with_recording<R>(f: impl FnOnce() -> R) -> R {
            let _g = gate();
            // Every probe must hit: these tests assert on exact spans.
            active::TEST_SAMPLE_RATE.store(1, std::sync::atomic::Ordering::Relaxed);
            set_recording(true);
            let r = f();
            set_recording(false);
            r
        }

        #[test]
        fn spans_reach_histogram_and_ring() {
            // A fresh thread starts its sampling countdown at the reloaded
            // test rate of 1, so every probe below is armed.
            std::thread::spawn(|| {
                with_recording(|| {
                    let before = SpanSnapshot::take();
                    let s = stamp();
                    std::hint::black_box(fib(12));
                    span(Phase::Rotation, s);
                    let d = SpanSnapshot::take().since(&before);
                    assert_eq!(d.phase(Phase::Rotation).count(), 1);
                    assert!(d.phase(Phase::Rotation).sum() > 0, "a real clock read elapsed");
                    let mine = flight::current_thread_records();
                    assert!(mine.iter().any(|r| r.phase == Phase::Rotation));
                })
            })
            .join()
            .unwrap();
        }

        #[test]
        fn disabled_recording_records_nothing() {
            let _g = gate();
            set_recording(false);
            let before = SpanSnapshot::take();
            let s = stamp();
            span(Phase::ScanRepin, s);
            let d = SpanSnapshot::take().since(&before);
            // ScanRepin is quiet in this crate's other tests, so the
            // disarmed span above is the only possible contributor.
            assert_eq!(d.phase(Phase::ScanRepin).count(), 0);
        }

        #[test]
        fn ring_wraparound_keeps_newest() {
            // A fresh thread gets its own ring, isolating the capacity math.
            std::thread::spawn(|| {
                with_recording(|| {
                    let n = flight::RING_CAPACITY as u64 + 100;
                    for i in 0..n {
                        flight::record_raw(Phase::Restart, i + 1, 7);
                    }
                    let mine = flight::current_thread_records();
                    assert_eq!(mine.len(), flight::RING_CAPACITY);
                    // Oldest surviving record is exactly `n - capacity`
                    // pushes in; newest is the last push.
                    assert_eq!(
                        mine.first().unwrap().start_ns,
                        n - flight::RING_CAPACITY as u64 + 1
                    );
                    assert_eq!(mine.last().unwrap().start_ns, n);
                    assert!(mine.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
                })
            })
            .join()
            .unwrap();
        }

        #[test]
        fn long_span_keeps_its_duration() {
            // A 10 s span is past 2³² ns; ring and histogram both keep it.
            std::thread::spawn(|| {
                with_recording(|| {
                    let before = SpanSnapshot::take();
                    flight::record_raw(Phase::Recovery, 3, 10_000_000_000);
                    let d = SpanSnapshot::take().since(&before);
                    assert_eq!(d.phase(Phase::Recovery).quantile(0.5), Some(10_000_000_000));
                    let last = *flight::current_thread_records().last().unwrap();
                    assert_eq!(last.dur_ns, 10_000_000_000);
                })
            })
            .join()
            .unwrap();
        }

        #[test]
        fn merged_records_sorted_across_threads() {
            with_recording(|| {
                // Interleaved timestamps from two fresh threads.
                let t1 = std::thread::spawn(|| {
                    for i in [10u64, 30, 50] {
                        flight::record_raw(Phase::Descent, i, 1);
                    }
                });
                let t2 = std::thread::spawn(|| {
                    for i in [20u64, 40, 60] {
                        flight::record_raw(Phase::Rotation, i, 1);
                    }
                });
                t1.join().unwrap();
                t2.join().unwrap();
                let merged = flight::merged_records();
                assert!(merged.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
                let small: Vec<u64> = merged
                    .iter()
                    .map(|r| r.start_ns)
                    .filter(|&s| (10..=60).contains(&s) && s % 10 == 0)
                    .collect();
                let mut expect = small.clone();
                expect.sort_unstable();
                assert_eq!(small, expect);
                assert!(small.len() >= 6, "both threads' records present: {small:?}");
            });
        }

        #[test]
        fn post_mortem_fires_exactly_once() {
            with_recording(|| {
                flight::arm_post_mortem();
                assert_eq!(flight::take_post_mortem(), None, "no poisoning noted yet");
                flight::record_raw(Phase::TreeLockHold, 5, 9);
                flight::note_poisoned();
                flight::note_poisoned(); // idempotent
                let dump = flight::take_post_mortem().expect("first take yields the dump");
                assert!(dump.contains("\"traceEvents\":["));
                assert!(dump.contains("tree-lock-hold"));
                assert_eq!(flight::take_post_mortem(), None, "second take must be empty");
                // Re-arming allows the next poisoning to dump again.
                flight::arm_post_mortem();
                assert_eq!(flight::take_post_mortem(), None);
                flight::note_poisoned();
                assert!(flight::take_post_mortem().is_some());
            });
        }

        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
    }
}
