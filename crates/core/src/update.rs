//! Mutating operations: `insert` (paper Algorithms 3–5) and `remove`
//! (Algorithms 7–10).
//!
//! Both follow the paper's four-step recipe (§3.4):
//! 1. acquire ordering-layout locks (`succLock`s, ascending key order),
//! 2. acquire physical-layout locks (`treeLock`s, bottom-up; descending
//!    acquisitions are `try_lock` + restart),
//! 3. update the ordering layout and release the ordering locks,
//! 4. update the physical layout and release the tree locks.
//!
//! Step 1 begins the same way for `insert`, `put` and `remove`:
//! [`LoTree::lock_interval`] searches for the key, steps back to the
//! presumed predecessor `p`, locks `p.succLock` and validates the interval
//! `(p, succ(p)]` under the lock, restarting on a failed validation. Each
//! operation then runs straight-line code with the validated interval.

use lo_reclaim::{self as epoch, Guard, Shared};
use std::cmp::Ordering as Cmp;
use std::sync::atomic::Ordering;

use crate::fp::{self, FailPoint};
use crate::node::{nref, Node};
use crate::poison::{self, RestartBudget, WriteScope};
use crate::sync::ContentionBackoff;
use crate::tree::LoTree;
use lo_api::{Key, TreeError, Value};
use lo_metrics::{record, Event};

/// The set of tree locks held for a physical removal, produced by
/// [`LoTree::acquire_tree_locks`] (paper Algorithm 8). All listed nodes'
/// `tree_lock`s are held on return.
pub(crate) struct RemovalLocks<'g, K: Key, V: Value> {
    /// The removed node's parent.
    pub(crate) parent: Shared<'g, Node<K, V>>,
    /// `true` iff the removed node has two children.
    pub(crate) has_two: bool,
    /// ≤1-child case: the node's only child, or null (locked iff non-null).
    pub(crate) child: Shared<'g, Node<K, V>>,
    /// 2-children case: the successor (always locked).
    pub(crate) succ: Shared<'g, Node<K, V>>,
    /// 2-children case: the successor's parent if it differs from the removed
    /// node, else null. Locked iff non-null.
    pub(crate) succ_parent: Shared<'g, Node<K, V>>,
    /// 2-children case: the successor's right child, or null (locked iff
    /// non-null).
    pub(crate) succ_child: Shared<'g, Node<K, V>>,
}

/// The interval around a key, validated under its lock by
/// [`LoTree::lock_interval`]: `p.key < key ≤ s.key`, `s == p.succ`, `p`
/// unmarked, and `p.succ_lock` held.
struct Interval<'g, K: Key, V: Value> {
    /// The predecessor, whose `succ_lock` guards the interval.
    p: Shared<'g, Node<K, V>>,
    /// `p.succ`; it holds the key iff the key is in the ordering layout.
    s: Shared<'g, Node<K, V>>,
    /// Where the search landed: the first parent candidate for
    /// `choose_parent`.
    landing: Shared<'g, Node<K, V>>,
}

impl<K: Key, V: Value> LoTree<K, V> {
    /// Restart edge shared by every writer loop: record the paper-named
    /// restart `event` (`SuccLockRestart` or `TreeLockRestart`), then abort
    /// (through the poisoning path) if a dead thread already poisoned the
    /// tree — retrying against stranded structure can livelock — and tick
    /// the restart-storm budget.
    #[inline]
    pub(crate) fn writer_restart(&self, budget: &mut RestartBudget, event: Event) {
        record(event);
        poison::abort_if_poisoned(&self.gate);
        budget.tick();
    }

    /// Paper Algorithms 3 and 7 up to the interval validation: search for
    /// `key`, step back to the presumed predecessor `p`, lock `p.succLock`
    /// and validate `key ∈ (p.key, succ(p).key]` with `p` unmarked. A
    /// failed validation unlocks and searches again. Returns with
    /// `p.succ_lock` held, unless the tree was poisoned since the writer
    /// entered its scope: then the writer aborts.
    fn lock_interval<'g>(&self, key: &K, g: &'g Guard) -> Interval<'g, K, V> {
        let mut budget = RestartBudget::new();
        loop {
            let landing = self.search(key, g);
            // Step back when the search landed on a node with key ≥ k (the
            // validation below requires p.key < k strictly).
            let p = if nref(landing).key.cmp_key(key) != Cmp::Less {
                nref(landing).pred.load(Ordering::Acquire, g)
            } else {
                landing
            };
            nref(p).lock_succ();
            let s = nref(p).succ.load(Ordering::Acquire, g);
            // Relaxed mark load: `mark` is only ever set while holding the
            // marked node's own succ lock, which we hold for `p` — the lock
            // edge orders any mark store before this load.
            if nref(p).key.cmp_key(key) == Cmp::Less
                && nref(s).key.cmp_key(key) != Cmp::Less
                && !nref(p).mark.load(Ordering::Relaxed)
            {
                // A writer that entered the gate before another one died
                // must not go on to change the layout that death left.
                poison::abort_if_poisoned(&self.gate);
                return Interval { p, s, landing };
            }
            nref(p).unlock_succ();
            self.writer_restart(&mut budget, Event::SuccLockRestart);
        }
    }

    /// Whether `s` is a zombie, read under its predecessor's `succ_lock`.
    /// Relaxed: `s.zombie` is only written under that lock, which the
    /// caller holds. Always `false` outside partially-external mode.
    #[inline]
    fn zombie_under_lock(&self, s: Shared<'_, Node<K, V>>) -> bool {
        self.partially_external && nref(s).zombie.load(Ordering::Relaxed)
    }

    /// Paper Algorithm 3. Returns `true` on a successful (key-was-absent)
    /// insertion; in partially-external mode a zombie revival also counts as
    /// a successful insertion.
    ///
    /// Infallible surface: waits out a transient [`TreeError::Recovering`]
    /// with backoff, and panics if the tree is poisoned, if allocation
    /// fails (see [`Self::try_insert`]), or if it would wait out a recovery
    /// while pinned in the tree's domain (`poison::expect_writable`).
    pub(crate) fn insert(&self, key: K, value: V) -> bool {
        let mut slot = Some(value);
        poison::expect_writable(&self.domain, || self.try_insert_slot(key, &mut slot))
    }

    /// Fallible [`Self::insert`]: rejects writes on a poisoned (or
    /// mid-recovery) tree and surfaces allocation failure instead of
    /// aborting. An `Err` means the map was not modified.
    pub(crate) fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
        self.try_insert_slot(key, &mut Some(value))
    }

    /// [`Self::try_insert`] with the value passed by slot: on
    /// [`TreeError::Recovering`] the gate rejects the write *before* the
    /// value is taken, so a retrying caller still owns it (values are not
    /// `Clone` in general).
    fn try_insert_slot(&self, key: K, slot: &mut Option<V>) -> Result<bool, TreeError> {
        let g = &self.domain.pin();
        let _scope = WriteScope::enter(&self.gate, g)?;
        let value = slot.take().expect("insert attempt retried after its value was committed");
        let Interval { p, s, landing } = self.lock_interval(&key, g);
        if !nref(s).key.is_key(&key) {
            // Successful insert: split interval (p, s) into (p, k), (k, s).
            self.insert_into_interval(p, s, landing, key, value, g)?;
            Ok(true)
        } else if self.zombie_under_lock(s) {
            // The key is logically absent: revive its node.
            self.swap_value(p, s, value, g);
            Ok(true)
        } else {
            nref(p).unlock_succ();
            Ok(false) // unsuccessful insert
        }
    }

    /// Value swap (shared by `put` and the zombie revival of `insert`):
    /// with `p.succ_lock` held and `s` validated as the key's holder,
    /// install `value` in a box, revive `s` if it is a zombie, and release
    /// `p.succ_lock`. Returns the displaced value unless `s` was a zombie
    /// (its key was logically absent). A displaced box is retired, so the
    /// returned reference lives only as long as `g`.
    fn swap_value<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        s: Shared<'g, Node<K, V>>,
        value: V,
        g: &'g Guard,
    ) -> Option<&'g V> {
        let was_zombie = self.zombie_under_lock(s);
        let old = nref(s).value.swap(epoch::Owned::new(value), Ordering::AcqRel, g);
        poison::note_linearized();
        if was_zombie {
            // Release: a lock-free reader that Acquire-loads zombie == false
            // must also see the value swap above.
            nref(s).zombie.store(false, Ordering::Release);
            record(Event::ZombieRevived);
        }
        nref(p).unlock_succ();
        if old.is_null() {
            // The displaced value is `s`'s inline one. It needs no retire:
            // `Node::drop` drops it when `s` is freed, after `s`'s own grace
            // period. Deferring its drop separately could run it after the
            // slot is recycled, since epoch bags are freed in no fixed order.
            return if was_zombie { None } else { nref(s).inline_value() };
        }
        // SAFETY: [inv:epoch-liveness] `old` is retired through the epoch
        // below, so it stays valid for this guard's lifetime.
        let displaced = (!was_zombie).then(|| unsafe { old.deref() });
        record(Event::ReclaimRetire);
        // SAFETY: [inv:lock-exclusion] `old` was swapped out under the succ lock
        // by this thread; readers hold epoch guards.
        unsafe { g.defer_destroy(old) };
        displaced
    }

    /// Interval split (shared by insert and put): with `p.succ_lock` held
    /// and the interval `(p, s)` validated with `key` absent, allocate the
    /// node, link it into the ordering layout (the linearization point) and
    /// then into the tree layout. Consumes `p.succ_lock`. On allocation
    /// failure the map is untouched.
    fn insert_into_interval<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        s: Shared<'g, Node<K, V>>,
        first_cand: Shared<'g, Node<K, V>>,
        key: K,
        value: V,
        g: &'g Guard,
    ) -> Result<(), TreeError> {
        // Allocate before taking any tree lock, so a failure exits holding
        // only `p.succ_lock` and the map is untouched.
        let new = match self.try_alloc_node(Node::new_key(key, value), g) {
            Ok(n) => n,
            Err(e) => {
                nref(p).unlock_succ();
                return Err(e);
            }
        };
        let parent = self.choose_parent(p, s, first_cand, g);
        nref(new).pred.store(p, Ordering::Release);
        nref(new).succ.store(s, Ordering::Release);
        nref(new).parent.store(parent, Ordering::Release);
        nref(s).pred.store(new, Ordering::Release);
        // Linearization point of a successful insert (paper §5.2).
        nref(p).succ.store(new, Ordering::Release);
        poison::note_linearized();
        nref(p).unlock_succ();
        // Window: the new key is in the set (ordering layout) but not
        // yet in the tree layout; lookups find it via the chain.
        fp::pause(FailPoint::InsertOrderingLinked);
        self.insert_to_tree(parent, new, g);
        Ok(())
    }

    /// Insert-or-replace (map `put`): like [`Self::insert`], but when the
    /// key is present its value is swapped and the old value returned.
    /// The value swap happens under the predecessor's `succLock` — the same
    /// lock that serializes inserts and removes of this key — so it
    /// linearizes with them; readers observe either value. A displaced box
    /// is retired through the epoch; a displaced first value stays in its
    /// node until the node is freed.
    pub(crate) fn put(&self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        let mut slot = Some(value);
        poison::expect_writable(&self.domain, || self.try_put_slot(key, &mut slot))
    }

    /// Fallible [`Self::put`] (see [`Self::try_insert`] for the contract).
    pub(crate) fn try_put(&self, key: K, value: V) -> Result<Option<V>, TreeError>
    where
        V: Clone,
    {
        self.try_put_slot(key, &mut Some(value))
    }

    /// [`Self::try_put`] with the value passed by slot (see
    /// [`Self::try_insert_slot`]).
    fn try_put_slot(&self, key: K, slot: &mut Option<V>) -> Result<Option<V>, TreeError>
    where
        V: Clone,
    {
        let g = &self.domain.pin();
        let _scope = WriteScope::enter(&self.gate, g)?;
        let value = slot.take().expect("put attempt retried after its value was committed");
        let Interval { p, s, landing } = self.lock_interval(&key, g);
        if !nref(s).key.is_key(&key) {
            // Absent: plain insertion (same as Algorithm 3's success path).
            self.insert_into_interval(p, s, landing, key, value, g)?;
            return Ok(None);
        }
        Ok(self.swap_value(p, s, value, g).cloned())
    }

    /// Paper Algorithm 4: pick the physical parent for a new node — its
    /// predecessor (right slot) or successor (left slot) — and return it with
    /// its tree lock held. Between two adjacent nodes exactly one of those
    /// slots is free at any moment, but rotations may move the free slot back
    /// and forth, hence the loop.
    ///
    /// Sentinel guard (a hole in the paper's Algorithm 4 as written): when
    /// the predecessor is `N−∞` — which exists only in the ordering layout —
    /// it must never be chosen as a *physical* parent, even though its right
    /// child slot is permanently empty. In that case the successor is the
    /// only valid parent; its left slot can be transiently occupied by a
    /// marked node whose physical removal is still in flight, so we wait on
    /// the successor instead of falling back to the sentinel.
    fn choose_parent<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        s: Shared<'g, Node<K, V>>,
        first_cand: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) -> Shared<'g, Node<K, V>> {
        let head = self.head_sh(g);
        let mut candidate = if first_cand == p || first_cand == s { first_cand } else { p };
        if candidate == head {
            candidate = s;
        }
        let mut budget: Option<RestartBudget> = None;
        loop {
            nref(candidate).lock_tree();
            if candidate == p {
                if nref(candidate).right.load(Ordering::Acquire, g).is_null() {
                    return candidate;
                }
                nref(candidate).unlock_tree();
                candidate = s;
            } else {
                if nref(candidate).left.load(Ordering::Acquire, g).is_null() {
                    return candidate;
                }
                nref(candidate).unlock_tree();
                // `s.left` is taken (and so was `p.right`, if we came from
                // `p`): a marked node whose unlink is in flight holds it.
                // The slot frees up once the unlink completes — unless the
                // unlinking writer died, so check for poison before
                // waiting on it or turning back to `p`.
                poison::abort_if_poisoned(&self.gate);
                budget.get_or_insert_with(RestartBudget::new).tick();
                if p == head {
                    // Only the successor can parent the new minimum.
                    std::thread::yield_now();
                } else {
                    candidate = p;
                }
            }
        }
    }

    /// Paper Algorithm 5: link the new node under `parent` (whose tree lock
    /// is held) and kick off rebalancing. Consumes the parent lock.
    fn insert_to_tree<'g>(
        &self,
        parent: Shared<'g, Node<K, V>>,
        new: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) {
        let pn = nref(parent);
        if pn.key < nref(new).key {
            pn.right.store(new, Ordering::Release);
            if self.balanced {
                pn.right_height.store(1, Ordering::Relaxed);
            }
        } else {
            pn.left.store(new, Ordering::Release);
            if self.balanced {
                pn.left_height.store(1, Ordering::Relaxed);
            }
        }
        if self.balanced && parent != self.root_sh(g) {
            // Heights above may have changed: walk up from the grandparent
            // (rebalance consumes both locks).
            let grand = self.lock_parent(parent, g);
            let is_left = nref(grand).left.load(Ordering::Acquire, g) == parent;
            self.rebalance(grand, parent, is_left, false, g);
        } else {
            pn.unlock_tree();
        }
    }

    /// Paper Algorithm 7. Returns `true` on a successful removal. In
    /// partially-external mode, delegates to the logical-removal path.
    ///
    /// Infallible surface: panics if the tree is poisoned (see
    /// [`Self::try_remove`]); waits out an in-flight recovery, unless the
    /// caller is pinned in the tree's domain (`poison::expect_writable`).
    pub(crate) fn remove(&self, key: &K) -> bool {
        self.remove_with(key, |_| {})
    }

    /// [`Self::remove`] that hands the value it unlinks to `on_removed`,
    /// called once and only on a successful removal, while both succ locks
    /// are held — so no `put` or revival can change the value in between.
    pub(crate) fn remove_with(&self, key: &K, mut on_removed: impl FnMut(&V)) -> bool {
        poison::expect_writable(&self.domain, || self.try_remove_with(key, &mut on_removed))
    }

    /// Fallible [`Self::remove`]: rejects writes on a poisoned tree. An
    /// `Err` means the map was not modified.
    pub(crate) fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
        self.try_remove_with(key, &mut |_| {})
    }

    /// The one remove body behind [`Self::try_remove`] and
    /// [`Self::remove_with`].
    fn try_remove_with(
        &self,
        key: &K,
        on_removed: &mut impl FnMut(&V),
    ) -> Result<bool, TreeError> {
        let g = &self.domain.pin();
        let _scope = WriteScope::enter(&self.gate, g)?;
        let Interval { p, s, .. } = self.lock_interval(key, g);
        if !nref(s).key.is_key(key) || self.zombie_under_lock(s) {
            nref(p).unlock_succ();
            return Ok(false); // unsuccessful remove
        }
        // Successful removal of s. Its succ lock comes next: succ locks
        // before tree locks, in ascending key order (p, then s).
        nref(s).lock_succ();
        if let Some(v) = nref(s).value_ref(g) {
            on_removed(v);
        }
        // Window: both succ locks held, no tree lock yet (the §5.1
        // ordering boundary).
        fp::pause(FailPoint::RemoveSuccTreeWindow);
        if self.partially_external {
            self.remove_pe(p, s, g); // see pe.rs
        } else {
            self.remove_linked(p, s, g);
        }
        Ok(true)
    }

    /// On-time physical removal: with both `p.succ_lock` and `s.succ_lock`
    /// held and `s` validated as the key's live holder, run the tree-lock
    /// phase, mark + splice (the linearization point), and physically
    /// unlink. Consumes both succ locks.
    fn remove_linked<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        s: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) {
        let locks = self.acquire_tree_locks(s, g);
        // Linearization point of a successful remove (paper §5.2).
        // Release pairs with the lock-free Acquire flag loads; nothing
        // needs a stronger order — see the node.rs ordering table.
        nref(s).mark.store(true, Ordering::Release);
        poison::note_linearized();
        let s_succ = nref(s).succ.load(Ordering::Acquire, g);
        nref(s_succ).pred.store(p, Ordering::Release);
        nref(p).succ.store(s_succ, Ordering::Release);
        nref(s).unlock_succ();
        nref(p).unlock_succ();
        // Window: marked and spliced out of the ordering layout, still
        // physically present in the tree layout.
        fp::pause(FailPoint::RemoveAfterMark);
        self.remove_from_tree(s, locks, g);
        record(Event::ReclaimRetire);
        // SAFETY: [inv:unique-owner] the node is now unlinked from both layouts by
        // this thread (marked under its succ lock); it is freed only once
        // all pinned readers move on.
        unsafe { self.retire_node(s, g) };
    }

    /// Paper Algorithm 8: acquire every tree lock the physical removal of `n`
    /// needs. On entry the caller holds `p.succLock`, `n.succLock` (so `n` is
    /// pinned: it cannot be marked, and `n.succ` cannot change). Descending
    /// lock acquisitions are `try_lock`; on failure everything is released
    /// and the whole acquisition restarts.
    pub(crate) fn acquire_tree_locks<'g>(
        &self,
        n: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) -> RemovalLocks<'g, K, V> {
        let mut budget = RestartBudget::new();
        let mut backoff = ContentionBackoff::new();
        loop {
            nref(n).lock_tree();
            let parent = self.lock_parent(n, g);
            let l = nref(n).left.load(Ordering::Acquire, g);
            let r = nref(n).right.load(Ordering::Acquire, g);

            if l.is_null() || r.is_null() {
                // n is a leaf or has a single child.
                let child = if r.is_null() { l } else { r };
                if !child.is_null() && !nref(child).try_lock_tree() {
                    nref(parent).unlock_tree();
                    nref(n).unlock_tree();
                    self.writer_restart(&mut budget, Event::TreeLockRestart);
                    backoff.pause();
                    continue;
                }
                return RemovalLocks {
                    parent,
                    has_two: false,
                    child,
                    succ: Shared::null(),
                    succ_parent: Shared::null(),
                    succ_child: Shared::null(),
                };
            }

            // n has two children; its successor s is the leftmost node of the
            // right subtree (stable: we hold n.succLock).
            let s = nref(n).succ.load(Ordering::Acquire, g);
            let sp = nref(s).parent.load(Ordering::Acquire, g);
            let succ_parent = if sp != n {
                if !nref(sp).try_lock_tree() {
                    nref(parent).unlock_tree();
                    nref(n).unlock_tree();
                    self.writer_restart(&mut budget, Event::TreeLockRestart);
                    backoff.pause();
                    continue;
                }
                // Relaxed: a node is only marked while its tree lock is
                // held, and we hold `sp.tree_lock` here.
                if nref(s).parent.load(Ordering::Acquire, g) != sp
                    || nref(sp).mark.load(Ordering::Relaxed)
                {
                    nref(sp).unlock_tree();
                    nref(parent).unlock_tree();
                    nref(n).unlock_tree();
                    self.writer_restart(&mut budget, Event::TreeLockRestart);
                    backoff.pause();
                    continue;
                }
                sp
            } else {
                Shared::null()
            };
            let release_partial = |sp_locked: Shared<'g, Node<K, V>>| {
                if !sp_locked.is_null() {
                    nref(sp_locked).unlock_tree();
                }
                nref(parent).unlock_tree();
                nref(n).unlock_tree();
            };
            if !nref(s).try_lock_tree() {
                release_partial(succ_parent);
                self.writer_restart(&mut budget, Event::TreeLockRestart);
                backoff.pause();
                continue;
            }
            let sr = nref(s).right.load(Ordering::Acquire, g);
            debug_assert!(
                nref(s).left.load(Ordering::Acquire, g).is_null(),
                "successor of a 2-children node must have no left child"
            );
            if !sr.is_null() && !nref(sr).try_lock_tree() {
                nref(s).unlock_tree();
                release_partial(succ_parent);
                self.writer_restart(&mut budget, Event::TreeLockRestart);
                backoff.pause();
                continue;
            }
            return RemovalLocks {
                parent,
                has_two: true,
                child: Shared::null(),
                succ: s,
                succ_parent,
                succ_child: sr,
            };
        }
    }

    /// Paper Algorithm 9: physically unlink `n` (already marked and spliced
    /// out of the ordering layout) and rebalance. Consumes every lock in
    /// `locks` plus `n.tree_lock`.
    pub(crate) fn remove_from_tree<'g>(
        &self,
        n: Shared<'g, Node<K, V>>,
        locks: RemovalLocks<'g, K, V>,
        g: &'g Guard,
    ) {
        if !locks.has_two {
            // Leaf or single child: splice n's parent to n's child.
            let is_left = self.update_child(locks.parent, n, locks.child, g);
            nref(n).unlock_tree();
            if self.balanced {
                self.rebalance(locks.parent, locks.child, is_left, false, g);
            } else {
                if !locks.child.is_null() {
                    nref(locks.child).unlock_tree();
                }
                nref(locks.parent).unlock_tree();
            }
            return;
        }

        // Two children: relocate the successor s into n's position.
        let s = locks.succ;
        let child = locks.succ_child; // s.right, possibly null
        let s_parent_is_n = locks.succ_parent.is_null();
        let detach_parent = if s_parent_is_n { n } else { locks.succ_parent };

        // (i) Detach s from its current location.
        let is_left = self.update_child(detach_parent, s, child, g);
        // Window: s is mid-relocation — detached from its old layout slot,
        // not yet relinked at n's position; reachable only via the chain.
        fp::pause(FailPoint::RemoveMidRelocation);

        // (ii) Move s to n's location: copy n's tree fields to s, point n's
        // children and parent at s. During this window s is unreachable via
        // the tree layout, but remains reachable via the ordering layout, so
        // concurrent lookups cannot miss it (paper §4.4).
        let sn = nref(s);
        let nn = nref(n);
        sn.left_height.store(nn.left_height.load(Ordering::Relaxed), Ordering::Relaxed);
        sn.right_height.store(nn.right_height.load(Ordering::Relaxed), Ordering::Relaxed);
        let nl = nn.left.load(Ordering::Acquire, g);
        let nr = nn.right.load(Ordering::Acquire, g); // may be null if s was n.right
        sn.left.store(nl, Ordering::Release);
        sn.right.store(nr, Ordering::Release);
        debug_assert!(!nl.is_null(), "2-children node must have a left child");
        nref(nl).parent.store(s, Ordering::Release);
        if !nr.is_null() {
            nref(nr).parent.store(s, Ordering::Release);
        }
        self.update_child(locks.parent, n, s, g);

        // (iii) Decide where rebalancing starts and release the rest.
        let reb_node = if s_parent_is_n {
            s // rebalance begins from s; keep it locked
        } else {
            sn.unlock_tree();
            locks.succ_parent
        };
        // reb_node is s or s's old parent, both strictly below n's parent,
        // so n's parent lock is never the rebalance start.
        debug_assert!(locks.parent != reb_node);
        nref(locks.parent).unlock_tree();
        nn.unlock_tree();

        if self.balanced {
            self.rebalance(reb_node, child, is_left, false, g);
            // Paper §4.5 edge case: a concurrent rebalancer that found n
            // marked abandoned its work; n's replacement s may be imbalanced
            // and it is this thread's responsibility to fix it.
            self.rebalance_node(s, g);
        } else {
            if !child.is_null() {
                nref(child).unlock_tree();
            }
            nref(reb_node).unlock_tree();
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use lo_check::fail::{activate, panic_message, FaultPlan};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A remover killed at `remove-after-mark` leaves its marked leaf in
    /// `p.right`, and `p` itself fills `s.left`. An insert that passed the
    /// gate before the death then finds both slots taken on every turn, so
    /// `choose_parent` must abort on the poison rather than alternate
    /// between `p` and `s` forever.
    #[test]
    fn choose_parent_aborts_when_the_unlinker_died() {
        // s = 20 at the top, p = 10 = s.left, n = 15 = p.right; no rotation.
        let t = Arc::new(LoTree::<i64, u64>::new(true, false));
        for k in [20, 10, 30, 15] {
            assert_eq!(t.try_insert(k, 0), Ok(true));
        }
        let session = activate(FaultPlan::new(1).panic_at(FailPoint::RemoveAfterMark));
        let killed = catch_unwind(AssertUnwindSafe(|| t.try_remove(&15)));
        drop(session);
        assert!(killed.is_err(), "the armed failpoint kills the remover");

        let (tx, rx) = mpsc::channel();
        let tree = Arc::clone(&t);
        let inserter = std::thread::spawn(move || {
            let g = &tree.domain.pin();
            let (p, s) = (tree.search(&10, g), tree.search(&20, g));
            assert!(!nref(p).right.load(Ordering::Acquire, g).is_null(), "n still fills p.right");
            let outcome = catch_unwind(AssertUnwindSafe(|| tree.choose_parent(p, s, p, g)));
            let msg = outcome.err().and_then(|e| panic_message(e.as_ref()).map(str::to_owned));
            let _ = tx.send(msg);
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("choose_parent must abort within 5 s, not alternate between p and s")
            .expect("choose_parent must panic, not return a parent");
        inserter.join().expect("the inserter thread caught its own panic");
        assert!(msg.contains("aborting writer"), "{msg}");
        assert!(msg.contains("remove-after-mark"), "the abort names the cause: {msg}");
    }
}
