//! The shared tree engine behind all four public map types.
//!
//! One engine implements the paper's whole family:
//!
//! | `balanced` | `partially_external` | public type | paper name |
//! |---|---|---|---|
//! | true  | false | `LoAvlMap`   | "our AVL" |
//! | false | false | `LoBstMap`   | "our BST" |
//! | true  | true  | `LoPeAvlMap` | "logical removing" variant |
//! | false | true  | `LoPeBstMap` | unbalanced logical-removing variant |
//!
//! This module holds the structure, the lock-free lookups (paper §4.2,
//! Algorithms 1–2) and the helpers shared by the update paths
//! (`lockParent`, `updateChild`). Inserts/removes live in `update.rs`,
//! rebalancing in `balance.rs`, the partially-external paths in `pe.rs`.

use lo_reclaim::{self as epoch, Guard, Shared};
use std::cmp::Ordering as Cmp;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::bound::Bound;
use crate::node::{nref, Node};
use lo_api::{Key, TreeError, Value};
use lo_metrics::{add, record, Event};

/// The tree engine. See module docs; public wrappers live in `maps.rs`.
pub(crate) struct LoTree<K: Key, V: Value> {
    /// The `+∞` sentinel; the physical root (paper §4.1: "The root is N∞").
    /// Never rotated, never removed. Set once at construction.
    root: epoch::Atomic<Node<K, V>>,
    /// The `−∞` sentinel; reachable only through the ordering layout.
    head: epoch::Atomic<Node<K, V>>,
    /// Slab arena all of this tree's nodes live in. Shared (`Arc`) with the
    /// epoch collector's deferred retirements, which may outlive the tree.
    arena: std::sync::Arc<crate::arena::Arena<Node<K, V>>>,
    /// Maintain AVL heights and rebalance after each update.
    pub(crate) balanced: bool,
    /// Partially-external mode: 2-children removals only set the `zombie`
    /// flag; inserts revive zombies; physical removal is deferred.
    pub(crate) partially_external: bool,
    /// Quarantine gate: in-flight writer count + tree state (healthy /
    /// poisoned cause / recovering) in one word. Never read on the
    /// lock-free lookup paths — a poisoned tree stays readable. Its
    /// state-changing surface lives in `poison.rs`/`recover.rs` only.
    pub(crate) gate: crate::poison::WriterGate,
    /// Monotone recovery generation: bumped by every successful
    /// `try_recover`; generation 0 is the tree as constructed.
    pub(crate) recovery_gen: AtomicU32,
    /// The epoch domain this tree's guards pin: the process-global
    /// collector by default, or a caller-supplied per-shard collector
    /// (ISSUE 10) so N trees composed into a store stop sharing one
    /// grace-period authority. Every pin in the engine goes through it.
    pub(crate) domain: crate::domain::EpochDomain,
}

impl<K: Key, V: Value> LoTree<K, V> {
    /// Creates the initial two-sentinel tree (paper §4.1 "The Initial Tree")
    /// in the process-global epoch domain.
    pub(crate) fn new(balanced: bool, partially_external: bool) -> Self {
        Self::new_in(balanced, partially_external, crate::domain::EpochDomain::global())
    }

    /// [`Self::new`] born into a caller-supplied epoch domain: the tree's
    /// guards pin `domain`'s collector, so its grace periods are decided
    /// only by participants of the same domain. The arena was already
    /// per-tree; this makes the reclamation authority per-tree too.
    pub(crate) fn new_in(
        balanced: bool,
        partially_external: bool,
        domain: crate::domain::EpochDomain,
    ) -> Self {
        let t = Self {
            root: epoch::Atomic::null(),
            head: epoch::Atomic::null(),
            arena: std::sync::Arc::new(crate::arena::Arena::new()),
            balanced,
            partially_external,
            gate: crate::poison::WriterGate::new(),
            recovery_gen: AtomicU32::new(0),
            domain,
        };
        // SAFETY: [inv:unprotected-quiescent] the tree is not yet shared; no other
        // thread can free nodes.
        let g = unsafe { epoch::unprotected() };
        let root = t.alloc_node(Node::sentinel(Bound::PosInf), g);
        let head = t.alloc_node(Node::sentinel(Bound::NegInf), g);
        // N−∞ and N∞ are each other's predecessor and successor; the unused
        // outward pointers (head.pred, root.succ) self-loop so the lookup
        // walks can never observe null.
        nref(head).succ.store(root, Ordering::Release);
        nref(head).pred.store(head, Ordering::Release);
        nref(root).pred.store(head, Ordering::Release);
        nref(root).succ.store(root, Ordering::Release);
        t.root.store(root, Ordering::Release);
        t.head.store(head, Ordering::Release);
        t
    }

    /// Allocates a node from this tree's slab arena. The returned pointer
    /// is bound to `g`'s lifetime like any other epoch-protected load.
    pub(crate) fn alloc_node<'g>(
        &self,
        node: Node<K, V>,
        _g: &'g Guard,
    ) -> Shared<'g, Node<K, V>> {
        Shared::from(self.arena.alloc(node).as_ptr().cast_const())
    }

    /// Fallible [`Self::alloc_node`]: consults the `arena-alloc` failpoint
    /// and the arena's own `try_alloc`, surfacing exhaustion as
    /// [`TreeError::AllocFailed`] instead of aborting.
    pub(crate) fn try_alloc_node<'g>(
        &self,
        node: Node<K, V>,
        _g: &'g Guard,
    ) -> Result<Shared<'g, Node<K, V>>, TreeError> {
        if crate::fp::should_fail(crate::fp::FailPoint::ArenaAlloc) {
            return Err(TreeError::AllocFailed);
        }
        match self.arena.try_alloc(node) {
            Some(p) => Ok(Shared::from(p.as_ptr().cast_const())),
            None => Err(TreeError::AllocFailed),
        }
    }

    /// The current poison/recovery state (`None` while healthy).
    pub(crate) fn poison_error(&self) -> Option<TreeError> {
        self.gate.error()
    }

    /// The current recovery generation (0 until the first successful
    /// recovery).
    pub(crate) fn recovery_generation(&self) -> u32 {
        self.recovery_gen.load(Ordering::Acquire)
    }

    /// Retires a node: after the grace period the arena recycles its slot.
    ///
    /// # Safety
    /// Same contract as `Guard::defer_destroy`: `node` must already be
    /// unlinked from both layouts so no *new* reference to it can be
    /// created; currently-pinned readers may still hold it.
    pub(crate) unsafe fn retire_node(&self, node: Shared<'_, Node<K, V>>, g: &Guard) {
        let arena = std::sync::Arc::clone(&self.arena);
        let ptr = crate::arena::SendPtr::new(node.as_raw().cast_mut());
        let recycle = move || {
            // SAFETY: [inv:epoch-liveness] the slot is live until this deferred
            // retirement runs, and the epoch guarantees no reader still holds it.
            unsafe { arena.retire(ptr.get()) }
        };
        // SAFETY: [inv:send-sync] (defer_unchecked) the closure captures only the
        // Arc'd arena (Send + Sync) and the retired pointer; by this function's
        // contract the node is unreachable, so running the retirement on
        // any thread after the grace period is sound, and the Arc keeps
        // the arena alive even past the tree's drop.
        unsafe { g.defer_unchecked(recycle) };
    }

    /// The `+∞` root sentinel (stable for the tree's lifetime).
    #[inline]
    pub(crate) fn root_sh<'g>(&self, g: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.root.load(Ordering::Relaxed, g)
    }

    /// The `−∞` head sentinel (stable for the tree's lifetime).
    #[inline]
    pub(crate) fn head_sh<'g>(&self, g: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.head.load(Ordering::Relaxed, g)
    }

    // ------------------------------------------------------------------
    // Lookups (paper Algorithms 1 and 2) — no locks, no restarts.
    // ------------------------------------------------------------------

    /// One step of Algorithm 1: the child of `n` toward `key`, or `None`
    /// once the descent has landed (`n` holds `key`, or the child toward
    /// it is null). [`Self::search`] loops over it; the ordered cursor's
    /// resumable seek takes one step per call.
    #[inline]
    pub(crate) fn descend_step<'g>(
        n: &Node<K, V>,
        key: &K,
        g: &'g Guard,
    ) -> Option<Shared<'g, Node<K, V>>> {
        let child = match n.key.cmp_key(key) {
            Cmp::Equal => return None,
            // currKey < k → go right, else left (Algorithm 1 line 5).
            Cmp::Less => n.right.load(Ordering::Acquire, g),
            Cmp::Greater => n.left.load(Ordering::Acquire, g),
        };
        (!child.is_null()).then_some(child)
    }

    /// Algorithm 1: plain top-down traversal. Returns the node with `key`,
    /// or the last node on the search path. Oblivious to concurrent
    /// relocations — it may stray from its initial path; the caller corrects
    /// via the ordering layout.
    pub(crate) fn search<'g>(&self, key: &K, g: &'g Guard) -> Shared<'g, Node<K, V>> {
        let descent = lo_metrics::stamp();
        let mut node = self.root_sh(g);
        let mut depth = 0u64;
        while let Some(child) = Self::descend_step(nref(node), key, g) {
            depth += 1;
            node = child;
            // Bounded-interleaving tests perturb the schedule per descent
            // step; compiled out without the `lockdep` feature.
            if lo_check::lockdep::ENABLED {
                lo_check::sched::pause_point();
            }
        }
        add(Event::SearchDescent, depth);
        lo_metrics::span(lo_metrics::Phase::Descent, descent);
        node
    }

    /// Algorithm 2's interval walk: starting from the search result, chase
    /// `pred` until the key is not greater, then `succ` until not smaller.
    /// Returns the node holding `key` (possibly marked/zombie), or `None` if
    /// the enclosing interval proves absence.
    pub(crate) fn lookup<'g>(&self, key: &K, g: &'g Guard) -> Option<&'g Node<K, V>> {
        let mut node = nref(self.search(key, g));
        let mut pred_steps = 0u64;
        while node.key.cmp_key(key) == Cmp::Greater {
            if lo_check::lockdep::ENABLED {
                lo_check::sched::pause_point();
            }
            node = nref(node.pred.load(Ordering::Acquire, g));
            pred_steps += 1;
        }
        let mut succ_steps = 0u64;
        while node.key.cmp_key(key) == Cmp::Less {
            if lo_check::lockdep::ENABLED {
                lo_check::sched::pause_point();
            }
            node = nref(node.succ.load(Ordering::Acquire, g));
            succ_steps += 1;
        }
        add(Event::ChasePred, pred_steps);
        add(Event::ChaseSucc, succ_steps);
        if node.key.is_key(key) {
            Some(node)
        } else {
            None
        }
    }

    /// Lock-free membership test (paper Algorithm 2).
    pub(crate) fn contains(&self, key: &K) -> bool {
        let g = self.domain.pin();
        match self.lookup(key, &g) {
            Some(n) => !n.is_removed(),
            None => false,
        }
    }

    /// The *naive* membership test the paper's Figure 1 warns about: a plain
    /// layout descent with no ordering-layer fallback. **Not linearizable**
    /// under concurrency — a successor relocation or rotation can make it
    /// miss a present key. Kept for the `figure1_demo` example and the
    /// motivation ablation; never used by the real operations.
    pub(crate) fn contains_layout_only(&self, key: &K) -> bool {
        let g = self.domain.pin();
        let n = nref(self.search(key, &g));
        n.key.is_key(key) && !n.is_removed()
    }

    /// Lock-free value read; applies `f` to the value under the epoch guard.
    pub(crate) fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let g = self.domain.pin();
        let n = self.lookup(key, &g)?;
        if n.is_removed() {
            return None;
        }
        n.value_ref(&g).map(f)
    }

    /// Lock-free value clone.
    pub(crate) fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    // ------------------------------------------------------------------
    // Ordered access (paper §4.7).
    // ------------------------------------------------------------------

    /// O(1)-expected minimum via `succ(N−∞)`; restarts if it observes a
    /// marked node (paper §4.7), skips zombies via `succ`.
    pub(crate) fn min_key(&self) -> Option<K> {
        let g = self.domain.pin();
        'restart: loop {
            let mut n = nref(self.head_sh(&g)).succ.load(Ordering::Acquire, &g);
            loop {
                let r = nref(n);
                // Lock-free flag reads: Acquire (see node.rs ordering table).
                if r.mark.load(Ordering::Acquire) {
                    continue 'restart;
                }
                match r.key {
                    Bound::PosInf => return None,
                    Bound::Key(k) if !r.zombie.load(Ordering::Acquire) => return Some(k),
                    // zombie (or, impossibly, −∞): advance along the ordering
                    _ => n = r.succ.load(Ordering::Acquire, &g),
                }
            }
        }
    }

    /// O(1)-expected maximum via `pred(N∞)` (mirror of [`Self::min_key`]).
    pub(crate) fn max_key(&self) -> Option<K> {
        let g = self.domain.pin();
        'restart: loop {
            let mut n = nref(self.root_sh(&g)).pred.load(Ordering::Acquire, &g);
            loop {
                let r = nref(n);
                // Lock-free flag reads: Acquire (see node.rs ordering table).
                if r.mark.load(Ordering::Acquire) {
                    continue 'restart;
                }
                match r.key {
                    Bound::NegInf => return None,
                    Bound::Key(k) if !r.zombie.load(Ordering::Acquire) => return Some(k),
                    _ => n = r.pred.load(Ordering::Acquire, &g),
                }
            }
        }
    }

    /// Number of live keys (walks the ordering chain; quiescent use only).
    pub(crate) fn len_quiescent(&self) -> usize {
        let g = self.domain.pin();
        let mut count = 0usize;
        let mut n = nref(self.head_sh(&g)).succ.load(Ordering::Acquire, &g);
        loop {
            let r = nref(n);
            match r.key {
                Bound::PosInf => return count,
                Bound::Key(_) if !r.is_removed() => count += 1,
                _ => {}
            }
            n = r.succ.load(Ordering::Acquire, &g);
        }
    }

    /// Number of nodes physically present in the tree layout, excluding the
    /// root sentinel (quiescent use only). In partially-external mode this
    /// includes zombies.
    pub(crate) fn physical_node_count(&self) -> usize {
        let g = self.domain.pin();
        let mut stack = Vec::new();
        let top = nref(self.root_sh(&g)).left.load(Ordering::Acquire, &g);
        if !top.is_null() {
            stack.push(top);
        }
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            count += 1;
            let r = nref(n);
            for child in [r.left.load(Ordering::Acquire, &g), r.right.load(Ordering::Acquire, &g)] {
                if !child.is_null() {
                    stack.push(child);
                }
            }
        }
        count
    }

    /// Number of zombie (logically-deleted, physically-present) nodes
    /// (quiescent use only; always 0 outside partially-external mode).
    pub(crate) fn zombie_count(&self) -> usize {
        let g = self.domain.pin();
        let mut count = 0usize;
        let mut n = nref(self.head_sh(&g)).succ.load(Ordering::Acquire, &g);
        loop {
            let r = nref(n);
            match r.key {
                Bound::PosInf => return count,
                Bound::Key(_) if r.zombie.load(Ordering::Acquire) => count += 1,
                _ => {}
            }
            n = r.succ.load(Ordering::Acquire, &g);
        }
    }

    // ------------------------------------------------------------------
    // Shared locking helpers (paper Algorithms 6 and 10).
    // ------------------------------------------------------------------

    /// Algorithm 6: locks `node.parent`'s tree lock, revalidating that it is
    /// still the parent and unmarked. Blocking is safe: the acquisition goes
    /// *upward* in the tree while `node`'s own tree lock is held by the
    /// caller.
    pub(crate) fn lock_parent<'g>(
        &self,
        node: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) -> Shared<'g, Node<K, V>> {
        let mut budget: Option<crate::poison::RestartBudget> = None;
        loop {
            let p = nref(node).parent.load(Ordering::Acquire, g);
            debug_assert!(!p.is_null(), "lock_parent called on the root sentinel");
            nref(p).lock_tree_upward();
            // Relaxed: `p.mark` is only ever set while holding `p.tree_lock`
            // (Algorithm 8 removes acquire it before marking), which we hold
            // here — the lock edge orders any mark store before this load.
            if nref(node).parent.load(Ordering::Acquire, g) == p
                && !nref(p).mark.load(Ordering::Relaxed)
            {
                return p;
            }
            record(Event::LockParentRetry);
            nref(p).unlock_tree();
            // A dead writer can strand a parent marked-under-lock forever;
            // abort instead of retrying against it (and count the storm).
            crate::poison::abort_if_poisoned(&self.gate);
            budget.get_or_insert_with(crate::poison::RestartBudget::new).tick();
        }
    }

    /// Algorithm 10: redirects `parent`'s child pointer from `old_ch` to
    /// `new_ch` (possibly null) and fixes `new_ch.parent`. Requires
    /// `parent.tree_lock`; if `new_ch` is non-null its new parent's lock
    /// (`parent`) and old parent's lock are held by all call sites.
    ///
    /// Returns `true` if the replaced slot was the left child.
    pub(crate) fn update_child<'g>(
        &self,
        parent: Shared<'g, Node<K, V>>,
        old_ch: Shared<'g, Node<K, V>>,
        new_ch: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) -> bool {
        let p = nref(parent);
        let is_left = p.left.load(Ordering::Acquire, g) == old_ch;
        if is_left {
            p.left.store(new_ch, Ordering::Release);
        } else {
            debug_assert_eq!(
                p.right.load(Ordering::Acquire, g),
                old_ch,
                "update_child: old child not found on either side"
            );
            p.right.store(new_ch, Ordering::Release);
        }
        if !new_ch.is_null() {
            nref(new_ch).parent.store(parent, Ordering::Release);
        }
        is_left
    }
}

impl<K: Key, V: Value> Drop for LoTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: [inv:unprotected-quiescent] &mut self (drop) — no concurrent
        // readers or writers remain, so an unprotected guard is sound. The chain
        // contains every live node plus both sentinels; nodes removed
        // earlier were retired through the epoch and are not in the chain.
        let g = unsafe { epoch::unprotected() };
        let root = self.root.load(Ordering::Relaxed, g);
        let mut n = self.head.load(Ordering::Relaxed, g);
        loop {
            let next = nref(n).succ.load(Ordering::Relaxed, g);
            let at_end = n == root;
            // SAFETY: [inv:unprotected-quiescent] quiescent teardown; every chain node
            // was allocated from this tree's arena and is visited exactly once.
            // Nodes retired earlier through the epoch are no longer in the
            // chain; their deferred retirements hold their own Arc.
            unsafe {
                let p = std::ptr::NonNull::new(n.as_raw().cast_mut())
                    .expect("chain nodes are non-null");
                self.arena.retire(p);
            }
            if at_end {
                break;
            }
            n = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_lookups() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        assert!(!t.contains(&1));
        assert_eq!(t.get(&1), None);
        assert_eq!(t.min_key(), None);
        assert_eq!(t.max_key(), None);
        assert!(t.keys_in_order().is_empty());
        assert_eq!(t.len_quiescent(), 0);
        assert_eq!(t.physical_node_count(), 0);
    }

    #[test]
    fn sentinels_wired() {
        let t: LoTree<i64, u64> = LoTree::new(false, false);
        let g = epoch::pin();
        let root = t.root_sh(&g);
        let head = t.head_sh(&g);
        assert_eq!(nref(head).succ.load(Ordering::Acquire, &g), root);
        assert_eq!(nref(root).pred.load(Ordering::Acquire, &g), head);
        assert!(matches!(nref(root).key, Bound::PosInf));
        assert!(matches!(nref(head).key, Bound::NegInf));
    }
}
