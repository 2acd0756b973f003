//! Partially-external ("logical removing") variant — paper §6:
//!
//! > "a node with two children is marked as logically removed via a
//! > designated flag, and it is not physically removed from the ordering
//! > layout or the physical layout. It will be physically removed only if
//! > its number of children reduces to one due to another removal or due to
//! > rotations. An insert can revive such a node by flipping this flag."
//!
//! Implementation notes:
//! * The `zombie` flag is guarded by the predecessor's `succLock`, the same
//!   lock that serializes inserts and removes of that key, so
//!   revive/remove/remove races are fully ordered.
//! * A removal that finds ≤1 children physically removes the node on time,
//!   exactly like the base algorithm.
//! * Cleanup: after any physical removal, the removed node's old parent is
//!   re-examined; if it is a zombie that now has at most one child it is
//!   physically removed with an all-`try_lock`, single-attempt version of
//!   the removal protocol (contention ⇒ the zombie simply stays, which is
//!   allowed — zombies are never *required* to leave). Rotations do not
//!   trigger cleanup in this implementation (divergence recorded in
//!   DESIGN.md §8); the zombie population is bounded by the same "at most
//!   one zombie per successful 2-children removal" argument as the BCCO
//!   tree's.

use lo_reclaim::{Guard, Shared};
use std::sync::atomic::Ordering;

use crate::fp::{self, FailPoint};
use crate::node::{nref, Node};
use crate::poison::{self, RestartBudget};
use crate::sync::ContentionBackoff;
use crate::tree::LoTree;
use lo_api::{Key, Value};
use lo_metrics::{record, Event};

impl<K: Key, V: Value> LoTree<K, V> {
    /// Partially-external removal. On entry: `p.succLock` and `s.succLock`
    /// are both held and `s` is validated as the key's live (non-zombie)
    /// holder. Consumes both succ locks. Always succeeds: either a logical
    /// (zombie) or a physical removal.
    pub(crate) fn remove_pe<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        s: Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) {
        let mut budget = RestartBudget::new();
        let mut backoff = ContentionBackoff::new();
        loop {
            nref(s).lock_tree();
            let l = nref(s).left.load(Ordering::Acquire, g);
            let r = nref(s).right.load(Ordering::Acquire, g);

            if !l.is_null() && !r.is_null() {
                // Two children: logical removal only. Linearization point is
                // the zombie store (guarded by p.succLock).
                // Release pairs with lock-free Acquire flag loads.
                nref(s).zombie.store(true, Ordering::Release);
                poison::note_linearized();
                record(Event::ZombieCreated);
                nref(s).unlock_tree();
                nref(s).unlock_succ();
                nref(p).unlock_succ();
                return;
            }

            // ≤1 child: on-time physical removal.
            let parent = self.lock_parent(s, g);
            // Children are stable (s.treeLock held since before lock_parent).
            let child = if r.is_null() { l } else { r };
            if !child.is_null() && !nref(child).try_lock_tree() {
                nref(parent).unlock_tree();
                nref(s).unlock_tree();
                self.writer_restart(&mut budget, Event::TreeLockRestart);
                backoff.pause();
                continue; // retry the tree-lock phase
            }

            // Ordering-layout removal (linearization point: the mark store).
            // Release pairs with lock-free Acquire flag loads.
            nref(s).mark.store(true, Ordering::Release);
            poison::note_linearized();
            let s_succ = nref(s).succ.load(Ordering::Acquire, g);
            nref(s_succ).pred.store(p, Ordering::Release);
            nref(p).succ.store(s_succ, Ordering::Release);
            nref(s).unlock_succ();
            nref(p).unlock_succ();
            // Window: marked and spliced out of the ordering layout, still
            // physically present (PE flavor of `remove-after-mark`).
            fp::pause(FailPoint::PeAfterMark);

            // Physical unlink (≤1-child splice).
            let is_left = self.update_child(parent, s, child, g);
            nref(s).unlock_tree();
            if self.balanced {
                self.rebalance(parent, child, is_left, false, g);
            } else {
                if !child.is_null() {
                    nref(child).unlock_tree();
                }
                nref(parent).unlock_tree();
            }
            record(Event::ReclaimRetire);
            // SAFETY: [inv:unique-owner] `s` is unlinked from both the tree and the
            // ordering layout by this thread (marked under its succ lock);
            // readers hold epoch guards.
            unsafe { self.retire_node(s, g) };

            // The unlink may have dropped the old parent to ≤1 children; if
            // it is a zombie, try to clean it up (single attempt).
            self.try_cleanup_zombie(parent, g);
            return;
        }
    }

    /// Single-attempt physical removal of a zombie that may have dropped to
    /// ≤1 children. Every lock acquisition is a `try_lock`; any contention or
    /// failed validation aborts silently (the zombie may be cleaned later).
    pub(crate) fn try_cleanup_zombie<'g>(&self, z: Shared<'g, Node<K, V>>, g: &'g Guard) {
        let zn = nref(z);
        if zn.key.as_key().is_none() {
            return; // sentinel
        }
        // Relaxed: unlocked pre-filter only — both flags are re-validated
        // below under the locks that guard them; a stale read here merely
        // aborts or retries the (optional) cleanup.
        if !zn.zombie.load(Ordering::Relaxed) || zn.mark.load(Ordering::Relaxed) {
            return;
        }
        // Ordering-layout locks first: the predecessor's, then the zombie's.
        let p = zn.pred.load(Ordering::Acquire, g);
        if !nref(p).try_lock_succ() {
            record(Event::ZombieCleanupAbort);
            return;
        }
        // Validate the interval: p must still be z's live predecessor and z
        // must still be a zombie.
        // Relaxed flag loads: `p.mark` is only set under `p.succ_lock` (held),
        // and once `p.succ == z` is validated, `z.zombie` is only written
        // under that same lock.
        if nref(p).succ.load(Ordering::Acquire, g) != z
            || nref(p).mark.load(Ordering::Relaxed)
            || !zn.zombie.load(Ordering::Relaxed)
        {
            record(Event::ZombieCleanupAbort);
            nref(p).unlock_succ();
            return;
        }
        if !zn.try_lock_succ() {
            record(Event::ZombieCleanupAbort);
            nref(p).unlock_succ();
            return;
        }
        if !zn.try_lock_tree() {
            record(Event::ZombieCleanupAbort);
            zn.unlock_succ();
            nref(p).unlock_succ();
            return;
        }
        let release_ordering_and_tree = || {
            zn.unlock_tree();
            zn.unlock_succ();
            nref(p).unlock_succ();
        };
        let l = zn.left.load(Ordering::Acquire, g);
        let r = zn.right.load(Ordering::Acquire, g);
        if !l.is_null() && !r.is_null() {
            release_ordering_and_tree();
            return; // still has two children
        }
        // Parent: single validated try_lock (no blocking in cleanup).
        let parent = zn.parent.load(Ordering::Acquire, g);
        if !nref(parent).try_lock_tree() {
            record(Event::ZombieCleanupAbort);
            release_ordering_and_tree();
            return;
        }
        // Relaxed: a node is only marked while its tree lock is held (ours).
        if zn.parent.load(Ordering::Acquire, g) != parent
            || nref(parent).mark.load(Ordering::Relaxed)
        {
            record(Event::ZombieCleanupAbort);
            nref(parent).unlock_tree();
            release_ordering_and_tree();
            return;
        }
        let child = if r.is_null() { l } else { r };
        if !child.is_null() && !nref(child).try_lock_tree() {
            record(Event::ZombieCleanupAbort);
            nref(parent).unlock_tree();
            release_ordering_and_tree();
            return;
        }

        // All locks held: run the standard ≤1-child removal.
        // Release pairs with lock-free Acquire flag loads.
        zn.mark.store(true, Ordering::Release);
        let z_succ = zn.succ.load(Ordering::Acquire, g);
        nref(z_succ).pred.store(p, Ordering::Release);
        nref(p).succ.store(z_succ, Ordering::Release);
        zn.unlock_succ();
        nref(p).unlock_succ();

        let is_left = self.update_child(parent, z, child, g);
        zn.unlock_tree();
        if self.balanced {
            self.rebalance(parent, child, is_left, false, g);
        } else {
            if !child.is_null() {
                nref(child).unlock_tree();
            }
            nref(parent).unlock_tree();
        }
        record(Event::ZombieUnlinked);
        record(Event::ReclaimRetire);
        // SAFETY: [inv:unique-owner] the zombie was marked and unlinked from both
        // layouts under its locks by this thread; readers hold epoch guards.
        unsafe { self.retire_node(z, g) };
    }
}
