//! Concurrent ordered access built on the logical-ordering layer (paper
//! §4.7 plus extensions): a reusable lock-free [`OrderedCursor`] over the
//! `pred`/`succ` chain, its public ascending face [`RangeCursor`] (an
//! `Iterator` over the live keys of a range), and the streaming scan /
//! ceiling / floor / pop-min/pop-max operations rebuilt on top of them.
//!
//! ## Cursor protocol
//!
//! A cursor anchors with a *seek*: the layout descent of Algorithm 1
//! ([`LoTree::descend_step`], the step [`LoTree::search`] loops over)
//! followed by the Algorithm-2 interval correction (chase `pred`/`succ`
//! until the position encloses the boundary key). It then walks the
//! ordering chain in its direction, yielding live keys and skipping marked
//! nodes and zombies. Like `contains`, it takes no locks and never blocks
//! on rotations or relocations; each *yielded* key was live at the instant
//! it was observed, and yields are strictly monotone in the scan direction
//! (a stale chain edge can only send the cursor to a key it has already
//! passed, which the boundary filter drops).
//!
//! ## Resumable seeks
//!
//! The seek is resumable: opening a cursor only positions it at the root,
//! and each [`RangeCursor::seek_step`] descends one level and prefetches
//! the child it moves to. On landing the step runs the interval
//! correction; an ascending seek also prefetches the landed node's `succ`,
//! the cursor's first chain step. The first `next` finishes a seek that
//! was not stepped to the end, so a lone caller sees one descent, as
//! before. A caller that opens several cursors and steps their seeks in
//! turn — the sharded store's merge — has each level's cache misses in
//! flight together. Between steps the tree may change under a paused
//! seek, which then lands on a stale node; that is the race the interval
//! correction already resolves for a one-shot descent, since a layout
//! descent is oblivious to relocations anyway.
//!
//! ## Chunked re-pinning
//!
//! The cursor must not hold one epoch guard across an arbitrarily long
//! traversal — a pinned thread stalls memory reclamation for the whole
//! process. Every [`SCAN_REPIN_EVERY`] chain steps the cursor forgets its
//! position, re-pins the epoch ([`Guard::repin`] gives reclamation a real
//! unpin window), and re-anchors with a fresh descent from the last yield
//! boundary. Correctness is unaffected: the boundary key, not the node
//! pointer, carries the position across the re-pin.
//!
//! ## Prefetch on yield
//!
//! The chain walk is a serial pointer chase: the next node's address is
//! only known once the current node has been loaded, so a lone cursor pays
//! about one cache miss per key. Whenever the cursor yields, it loads the
//! next link (`succ` ascending, `pred` descending) from the node it just
//! yielded — a line already in L1 — and issues a read prefetch of that
//! node. The prefetch costs a lone cursor next to nothing; its payoff is
//! when the caller interleaves several cursors, as the sharded store's
//! k-way merge does: while the caller consumes the other cursors' heads,
//! every cursor has its next miss in flight, so N independent chains cost
//! about one miss per N keys instead of one per key. A prefetch never
//! dereferences its address and cannot fault, and the address was loaded
//! under the cursor's live guard, so it names a node that cannot be freed
//! before the cursor's next step reads it.
//!
//! All of this works unchanged on a poisoned tree: the read path takes no
//! locks and never consults the poison word, so scans stay live in
//! degraded mode (the PR 4 contract).

use lo_reclaim::Guard;
use std::cmp::Ordering as Cmp;
use std::iter::FusedIterator;
use std::ops::{RangeBounds, RangeInclusive};
use std::sync::atomic::Ordering;

use crate::bound::Bound;
use crate::node::{nref, Node};
use crate::tree::LoTree;
use lo_api::{Key, Value};
use lo_metrics::{add, record, Event};

/// Chain steps between the cursor's guard re-pins (chunked re-pinning).
/// Small enough that a scan never delays reclamation by more than a few
/// cache lines' worth of walking; large enough that the re-anchor descent
/// amortizes to noise.
pub(crate) const SCAN_REPIN_EVERY: usize = 256;

/// Traversal direction along the ordering chain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Ascending: follow `succ`, finish at the `+∞` root sentinel.
    Fwd,
    /// Descending: follow `pred`, finish at the `−∞` head sentinel.
    Rev,
}

/// A lock-free cursor over the logical-ordering chain.
///
/// Owns its epoch guard and re-pins it every [`SCAN_REPIN_EVERY`] steps;
/// see the module docs for the full protocol. Not `Send`/`Sync` (it holds
/// a raw position pointer only valid under its own guard).
pub(crate) struct OrderedCursor<'t, K: Key, V: Value> {
    tree: &'t LoTree<K, V>,
    guard: Guard,
    /// Current position: the layout node the seek stands on while
    /// `seeking`, the chain node after it has landed. Never null. Only
    /// dereferenced while `guard` is the pin it was loaded under — `repin`
    /// begins a fresh seek under the new pin.
    node: *const Node<K, V>,
    /// The seek has not landed yet: `node` is a layout position on the way
    /// down to `boundary`, not a chain position.
    seeking: bool,
    /// Layout levels the current seek has descended.
    depth: u64,
    /// The current seek's open `descent` span.
    descent: lo_metrics::Stamp,
    /// The anchored node has not been examined yet (an anchor may land
    /// exactly on a yieldable key).
    examine_current: bool,
    dir: Dir,
    /// Yield boundary: lower bound going `Fwd`, upper bound going `Rev`.
    /// Advanced to each yielded key, which is what makes yields strictly
    /// monotone and what carries the position across a re-pin.
    boundary: Bound<K>,
    /// Whether a key equal to `boundary` may still be yielded (inclusive
    /// range endpoint); cleared after the first yield.
    inclusive: bool,
    /// Chain steps taken under the current pin.
    steps: usize,
}

impl<'t, K: Key, V: Value> OrderedCursor<'t, K, V> {
    /// Ascending cursor yielding live keys `>= from` (`> from` when
    /// `inclusive` is false; `Bound::NegInf` scans from the start).
    pub(crate) fn ascending(tree: &'t LoTree<K, V>, from: Bound<K>, inclusive: bool) -> Self {
        Self::open(tree, Dir::Fwd, from, inclusive)
    }

    /// Descending cursor yielding live keys `<= from` (`< from` when
    /// `inclusive` is false; `Bound::PosInf` scans from the end).
    pub(crate) fn descending(tree: &'t LoTree<K, V>, from: Bound<K>, inclusive: bool) -> Self {
        Self::open(tree, Dir::Rev, from, inclusive)
    }

    /// Pins the tree's domain and begins the seek for `from`.
    fn open(tree: &'t LoTree<K, V>, dir: Dir, from: Bound<K>, inclusive: bool) -> Self {
        record(Event::ScanStarted);
        let guard = tree.domain.pin();
        let mut cursor = Self {
            tree,
            guard,
            node: std::ptr::null(),
            seeking: false,
            depth: 0,
            descent: lo_metrics::Stamp::disarmed(),
            examine_current: false,
            dir,
            boundary: from,
            inclusive,
            steps: 0,
        };
        cursor.begin_seek();
        cursor
    }

    /// Drops the guard (with a real unpin window) and forgets the stale
    /// position by beginning a fresh seek from `boundary` under the new pin.
    fn repin(&mut self) {
        let span = lo_metrics::stamp();
        self.steps = 0;
        self.guard.repin();
        self.begin_seek();
        record(Event::ScanRepin);
        lo_metrics::span(lo_metrics::Phase::ScanRepin, span);
    }

    /// Positions a seek for `boundary`. A key boundary starts at the root
    /// sentinel; a full-range scan lands at once on the sentinel at the
    /// boundary side.
    fn begin_seek(&mut self) {
        let start = match self.boundary {
            Bound::NegInf => self.tree.head_sh(&self.guard),
            Bound::PosInf => self.tree.root_sh(&self.guard),
            Bound::Key(_) => {
                self.depth = 0;
                self.descent = lo_metrics::stamp();
                self.tree.root_sh(&self.guard)
            }
        };
        self.node = start.as_raw();
        self.seeking = matches!(self.boundary, Bound::Key(_));
        self.examine_current = !self.seeking;
    }

    /// One step of the resumable seek (module docs). While descending, it
    /// moves one layout level toward `boundary` (Algorithm 1), prefetches
    /// the child it moves to and returns `true`; each such step is a
    /// lockdep pause point. On landing it runs the Algorithm-2 interval
    /// correction, leaving the cursor on a node at or just past `boundary`
    /// against the scan direction, so the filter in [`Self::next`] sees
    /// every candidate exactly once; it then returns `false`, as it does
    /// for every call after landing. The landing step counts the levels
    /// descended as `search-descent` and the chase as `chase-pred` or
    /// `chase-succ`, exactly as [`LoTree::search`] and [`LoTree::lookup`]
    /// count theirs.
    fn seek_step(&mut self) -> bool {
        if !self.seeking {
            return false;
        }
        let Bound::Key(k) = self.boundary else {
            unreachable!("only a key boundary seeks");
        };
        // SAFETY: [inv:epoch-liveness] `node` was loaded from the tree under the
        // currently-held `self.guard` (each re-pin begins a fresh seek from the
        // root under the new pin). Nodes are only freed through epoch-deferred
        // reclamation, so the referent stays valid while the guard is live.
        let mut n = unsafe { &*self.node };
        if let Some(child) = LoTree::descend_step(n, &k, &self.guard) {
            self.node = child.as_raw();
            self.depth += 1;
            prefetch_read(self.node);
            // Bounded-interleaving tests may preempt a paused seek; compiled
            // out without the `lockdep` feature.
            if lo_check::lockdep::ENABLED {
                lo_check::sched::pause_point();
            }
            return true;
        }
        add(Event::SearchDescent, self.depth);
        lo_metrics::span(lo_metrics::Phase::Descent, self.descent);
        let mut chase = 0u64;
        match self.dir {
            // Land at a node with key <= k: everything >= the boundary is
            // then ahead of the cursor, whose first chain step is `succ`.
            Dir::Fwd => {
                while n.key.cmp_key(&k) == Cmp::Greater {
                    n = nref(n.pred.load(Ordering::Acquire, &self.guard));
                    chase += 1;
                }
                add(Event::ChasePred, chase);
                prefetch_read(n.succ.load(Ordering::Acquire, &self.guard).as_raw());
            }
            // Mirror: land at a node with key >= k.
            Dir::Rev => {
                while n.key.cmp_key(&k) == Cmp::Less {
                    n = nref(n.succ.load(Ordering::Acquire, &self.guard));
                    chase += 1;
                }
                add(Event::ChaseSucc, chase);
            }
        }
        self.node = n;
        self.seeking = false;
        self.examine_current = true;
        false
    }

    /// Yields the next live key in scan direction, or `None` at the end
    /// sentinel. Finishes an unfinished seek first. Skips marked nodes and
    /// zombies; re-pins every [`SCAN_REPIN_EVERY`] chain steps.
    pub(crate) fn next(&mut self) -> Option<K> {
        loop {
            if self.seeking {
                while self.seek_step() {}
            }
            // SAFETY: [inv:epoch-liveness] `node` was loaded from the tree under
            // the currently-held `self.guard` (every re-pin begins a fresh seek
            // under the new pin, and the seek has landed). Nodes are only freed
            // through epoch-deferred reclamation, so the referent stays valid
            // while the guard is live.
            let n = unsafe { &*self.node };
            if !self.examine_current {
                // Step along the chain, then re-examine.
                let next = match self.dir {
                    Dir::Fwd => n.succ.load(Ordering::Acquire, &self.guard),
                    Dir::Rev => n.pred.load(Ordering::Acquire, &self.guard),
                };
                self.node = next.as_raw();
                self.steps += 1;
                if self.steps >= SCAN_REPIN_EVERY {
                    self.repin();
                    continue;
                }
                self.examine_current = true;
                continue;
            }
            self.examine_current = false;
            match n.key {
                Bound::PosInf => {
                    if self.dir == Dir::Fwd {
                        return None;
                    }
                    // Descending anchor at the root sentinel: step past it.
                }
                Bound::NegInf => {
                    if self.dir == Dir::Rev {
                        return None;
                    }
                }
                Bound::Key(k) => {
                    let ahead = match (self.dir, self.boundary.cmp_key(&k)) {
                        (Dir::Fwd, Cmp::Less) | (Dir::Rev, Cmp::Greater) => true,
                        (_, Cmp::Equal) => self.inclusive,
                        _ => false,
                    };
                    if ahead && !n.is_removed() {
                        self.boundary = Bound::Key(k);
                        self.inclusive = false;
                        // Prefetch on yield (module docs): the next step
                        // reloads this link from L1 and finds its target
                        // already on the way.
                        let next = match self.dir {
                            Dir::Fwd => n.succ.load(Ordering::Acquire, &self.guard),
                            Dir::Rev => n.pred.load(Ordering::Acquire, &self.guard),
                        };
                        prefetch_read(next.as_raw());
                        return Some(k);
                    }
                }
            }
        }
    }
}

/// Issues a read prefetch of the cache line at `p` into every cache level
/// (`_MM_HINT_T0`); a no-op on other targets and under Miri. Never
/// dereferences `p`, so any address, even null, is fine.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: [inv:epoch-liveness] the required `sse` feature is part of
        // the x86_64 baseline. A prefetch is a hint that never dereferences
        // or faults; `p` was loaded from a node under the cursor's live
        // guard, so it names a node the next step may read.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// A lock-free ascending cursor over the live keys of a range: an
/// [`Iterator`] bounded above by the range's end. Obtained from the maps'
/// `range_cursor`; the maps' `scan_range`, `range_keys` and `range_count`
/// are built on it.
///
/// The contract is the scan contract: each yielded key was live at the
/// instant the cursor observed it, yields are strictly ascending, no lock
/// is taken, and it works on poisoned trees. The cursor pins the tree's
/// epoch domain from construction until it is dropped, re-pinning every
/// 256 chain steps so a long walk never stalls reclamation; drop it to
/// unpin. Its seek toward the range's start can be stepped one level at a
/// time ([`Self::seek_step`]), and each yield prefetches the next chain
/// node (module docs); both are what let a caller overlap several
/// cursors' cache misses by advancing them in turn. Not `Send`: it holds
/// an epoch guard.
pub struct RangeCursor<'t, K: Key, V: Value> {
    cursor: OrderedCursor<'t, K, V>,
    end: std::ops::Bound<K>,
    /// Past `end` or the last key: every later `next` is `None`.
    done: bool,
    /// Keys yielded so far, flushed to the `scan-keys-yielded` counter on
    /// drop.
    yielded: u64,
}

impl<'t, K: Key, V: Value> RangeCursor<'t, K, V> {
    pub(crate) fn new(tree: &'t LoTree<K, V>, range: impl RangeBounds<K>) -> Self {
        let (from, inclusive) = match range.start_bound() {
            std::ops::Bound::Included(&k) => (Bound::Key(k), true),
            std::ops::Bound::Excluded(&k) => (Bound::Key(k), false),
            std::ops::Bound::Unbounded => (Bound::NegInf, false),
        };
        Self {
            cursor: OrderedCursor::ascending(tree, from, inclusive),
            end: range.end_bound().cloned(),
            done: false,
            yielded: 0,
        }
    }

    /// Advances the cursor's seek toward the range's start by one tree
    /// level, prefetching the node it moves to. Returns `false` once the
    /// seek has landed, and on every later call. Stepping is optional:
    /// [`Iterator::next`] finishes an unfinished seek. A caller that opens
    /// several cursors and steps their seeks in turn has each level's
    /// cache misses in flight together, as the sharded store's merge does.
    pub fn seek_step(&mut self) -> bool {
        self.cursor.seek_step()
    }
}

impl<K: Key, V: Value> Iterator for RangeCursor<'_, K, V> {
    type Item = K;

    #[inline]
    fn next(&mut self) -> Option<K> {
        if self.done {
            return None;
        }
        let k = self.cursor.next().filter(|k| match self.end {
            std::ops::Bound::Included(hi) => *k <= hi,
            std::ops::Bound::Excluded(hi) => *k < hi,
            std::ops::Bound::Unbounded => true,
        });
        match k {
            Some(_) => self.yielded += 1,
            None => self.done = true,
        }
        k
    }
}

impl<K: Key, V: Value> FusedIterator for RangeCursor<'_, K, V> {}

impl<K: Key, V: Value> Drop for RangeCursor<'_, K, V> {
    fn drop(&mut self) {
        add(Event::ScanKeysYielded, self.yielded);
    }
}

impl<K: Key, V: Value> LoTree<K, V> {
    /// Streams every live key in `range` (ascending, strictly increasing)
    /// into `f` without materialising the result. Lock-free; works on
    /// poisoned trees.
    pub(crate) fn scan_range(&self, range: RangeInclusive<K>, f: impl FnMut(K)) {
        if range.is_empty() {
            record(Event::ScanStarted); // still one (empty) scan
            return;
        }
        RangeCursor::new(self, range).for_each(f);
    }

    /// Streams all live keys in ascending order into `f`.
    pub(crate) fn for_each_in_order(&self, f: impl FnMut(K)) {
        RangeCursor::new(self, ..).for_each(f);
    }

    /// Number of live keys in `range`: one streaming pass, no allocation.
    pub(crate) fn range_count(&self, range: RangeInclusive<K>) -> usize {
        let mut n = 0usize;
        self.scan_range(range, |_| n += 1);
        n
    }

    /// Ascending snapshot of the live keys in `range`; precise at
    /// quiescence, best-effort consistent under concurrency.
    pub(crate) fn range_keys(&self, range: RangeInclusive<K>) -> Vec<K> {
        let mut out = Vec::new();
        self.scan_range(range, |k| out.push(k));
        out
    }

    /// In-order key snapshot over the whole map (paper §4.7
    /// `first()`/`next()` iteration, now a full-range cursor walk).
    pub(crate) fn keys_in_order(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.for_each_in_order(|k| out.push(k));
        out
    }

    /// Smallest live key ≥ `key`, or `None`. Lock-free.
    pub(crate) fn ceiling_key(&self, key: &K) -> Option<K> {
        OrderedCursor::ascending(self, Bound::Key(*key), true).next()
    }

    /// Largest live key ≤ `key`, or `None`. Lock-free.
    pub(crate) fn floor_key(&self, key: &K) -> Option<K> {
        OrderedCursor::descending(self, Bound::Key(*key), true).next()
    }

    /// Atomically removes and returns the smallest key (with its value),
    /// or `None` if the map is empty. The successful remove is the
    /// linearization point, and the value returned is the one it unlinked;
    /// the cursor only nominates candidates, so the pop retries while
    /// losing races.
    pub(crate) fn pop_min(&self) -> Option<(K, V)>
    where
        V: Clone,
    {
        loop {
            let k = OrderedCursor::ascending(self, Bound::NegInf, false).next()?;
            if let Some(popped) = self.pop_key(k) {
                return Some(popped);
            }
        }
    }

    /// Mirror of [`Self::pop_min`].
    pub(crate) fn pop_max(&self) -> Option<(K, V)>
    where
        V: Clone,
    {
        loop {
            let k = OrderedCursor::descending(self, Bound::PosInf, false).next()?;
            if let Some(popped) = self.pop_key(k) {
                return Some(popped);
            }
        }
    }

    /// Removes `k` and returns it with the value the removal unlinked, or
    /// `None` if a racer removed `k` first.
    fn pop_key(&self, k: K) -> Option<(K, V)>
    where
        V: Clone,
    {
        let mut removed = None;
        self.remove_with(&k, |v| removed = Some(v.clone()));
        removed.map(|v| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type Tree = LoTree<i64, u64>;

    /// The layout node a paused seek stands on.
    fn standing_on<'c>(cursor: &'c RangeCursor<'_, i64, u64>) -> &'c Node<i64, u64> {
        // SAFETY: [inv:epoch-liveness] the seek loaded `node` under the cursor's
        // guard, which the cursor holds until it is dropped; the borrow of
        // `cursor` keeps both alive.
        unsafe { &*cursor.cursor.node }
    }

    /// The keys a descent from `n` toward `key` visits.
    fn path<'g>(mut n: &'g Node<i64, u64>, key: i64, g: &'g Guard) -> Vec<Bound<i64>> {
        let mut keys = vec![n.key];
        while let Some(child) = Tree::descend_step(n, &key, g) {
            n = nref(child);
            keys.push(n.key);
        }
        keys
    }

    /// A seek paused between steps while the tree changes under it. Its
    /// first stop is the layout root, a two-child node: removing it
    /// relocates its successor, the window's first key, above the seek,
    /// which then descends the root's stale right subtree. Later stops
    /// see bursts of inserts just above the window's start, which rotate
    /// the path the seek is on. The stale landing must be corrected by
    /// Algorithm 2's chase, as a one-shot descent's is.
    #[test]
    fn paused_seek_lands_correctly() {
        let tree = Tree::new(true, false);
        let initial: BTreeSet<i64> = (0..128).map(|k| 10 * k).collect();
        for &k in &initial {
            assert!(tree.insert(k, 0));
        }
        let top = {
            let g = tree.domain.pin();
            match nref(nref(tree.root_sh(&g)).left.load(Ordering::Acquire, &g)).key {
                Bound::Key(k) => k,
                _ => unreachable!("a non-empty tree's layout root holds a key"),
            }
        };
        let (lo, hi) = (top + 10, top + 400);
        let mut cursor = RangeCursor::new(&tree, lo..=hi);
        let mut inserted = BTreeSet::new();
        let mut rotations = 0;
        let mut next_new = lo + 1;
        while cursor.seek_step() {
            let n = standing_on(&cursor);
            let g = &cursor.cursor.guard;
            if n.key == Bound::Key(top) {
                assert!(!n.left.load(Ordering::Acquire, g).is_null());
                assert!(!n.right.load(Ordering::Acquire, g).is_null());
                assert!(tree.remove(&top));
                continue;
            }
            let before = path(n, lo, g);
            for _ in 0..4 {
                if next_new % 10 == 0 {
                    next_new += 1;
                }
                assert!(tree.insert(next_new, 1));
                inserted.insert(next_new);
                next_new += 1;
            }
            let after = path(n, lo, g);
            // New leaves only extend the path; a rotation reorders it.
            rotations += usize::from(!after.starts_with(&before));
        }
        assert!(rotations > 0, "no insert burst rotated the seek's path");
        let out: Vec<i64> = cursor.collect();
        assert!(out.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {out:?}");
        assert!(out.iter().all(|k| (lo..=hi).contains(k)), "out of window: {out:?}");
        for k in initial.range(lo..=hi) {
            assert!(out.contains(k), "continuously live key {k} was missed: {out:?}");
        }
        for k in &out {
            assert!(initial.contains(k) || inserted.contains(k), "never-live key {k} yielded");
        }
    }
}
