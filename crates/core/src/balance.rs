//! Relaxed AVL rebalancing (paper §4.5, Algorithms 11–14).
//!
//! Following Bougé et al., rotations are decided purely from the per-node
//! `leftHeight`/`rightHeight` fields, which may lag behind the true subtree
//! heights; repeatedly applying the AVL rotations on this local information
//! yields a strictly balanced tree at quiescence.
//!
//! Lock discipline inside the walk: the rebalancer holds the tree locks of
//! the node under examination and (usually) one child. Moving *up* uses
//! blocking `lock_parent`; grabbing a *lower* node (the other child, a
//! grandchild) must go against the locking order and therefore uses
//! `try_lock`, falling back to [`LoTree::rebalance_restart`] (Algorithm 14)
//! which cycles the node's own lock to let the contending thread finish.

use lo_reclaim::{Guard, Shared};
use std::sync::atomic::Ordering;

use crate::fp::{self, FailPoint};
use crate::node::{nref, Node};
use crate::poison::{self, RestartBudget};
use crate::tree::LoTree;
use lo_api::{Key, Value};
use lo_metrics::{record, Event};

impl<K: Key, V: Value> LoTree<K, V> {
    /// Paper Algorithm 13: recompute `node`'s stored height on the `is_left`
    /// side from `child` (null ⇒ 0). Returns whether the stored height
    /// changed. Requires `node.tree_lock` (and `child.tree_lock` if
    /// non-null).
    fn update_height<'g>(
        &self,
        child: Shared<'g, Node<K, V>>,
        node: Shared<'g, Node<K, V>>,
        is_left: bool,
    ) -> bool {
        record(Event::HeightUpdate);
        let new_h = if child.is_null() { 0 } else { nref(child).subtree_height() };
        let n = nref(node);
        let old_h = n.height(is_left);
        n.set_height(is_left, new_h);
        old_h != new_h
    }

    /// Paper Algorithm 11: single rotation. `left_rotation` lifts `n`'s
    /// *right* child (`child`) above `n`; otherwise the left child rises.
    /// Requires the tree locks of `parent`, `n` and `child`.
    fn rotate<'g>(
        &self,
        child: Shared<'g, Node<K, V>>,
        n: Shared<'g, Node<K, V>>,
        parent: Shared<'g, Node<K, V>>,
        left_rotation: bool,
        g: &'g Guard,
    ) {
        record(Event::Rotation);
        let span = lo_metrics::stamp();
        self.update_child(parent, n, child, g);
        let nn = nref(n);
        let cn = nref(child);
        nn.parent.store(child, Ordering::Release);
        if left_rotation {
            // n.right <- child.left ; child.left <- n
            let moved = cn.left.load(Ordering::Acquire, g);
            nn.right.store(moved, Ordering::Release);
            if !moved.is_null() {
                nref(moved).parent.store(n, Ordering::Release);
            }
            cn.left.store(n, Ordering::Release);
            // Window: pointers rewired, heights not yet restored (lookups
            // are oblivious to heights; only balance bookkeeping lags).
            fp::pause(FailPoint::RotateMid);
            nn.right_height.store(cn.left_height.load(Ordering::Relaxed), Ordering::Relaxed);
            cn.set_height(true, nn.subtree_height());
        } else {
            // Mirror image: n.left <- child.right ; child.right <- n
            let moved = cn.right.load(Ordering::Acquire, g);
            nn.left.store(moved, Ordering::Release);
            if !moved.is_null() {
                nref(moved).parent.store(n, Ordering::Release);
            }
            cn.right.store(n, Ordering::Release);
            // Same mid-rotation window as the left-rotation branch.
            fp::pause(FailPoint::RotateMid);
            nn.left_height.store(cn.right_height.load(Ordering::Relaxed), Ordering::Relaxed);
            cn.set_height(false, nn.subtree_height());
        }
        lo_metrics::span(lo_metrics::Phase::Rotation, span);
    }

    /// Paper Algorithm 14: the against-order lock acquisition failed.
    /// Releases `parent` (if held), cycles `node`'s lock so the contending
    /// thread can finish, and re-acquires a child on the heavy side.
    ///
    /// Returns `None` if `node` was removed meanwhile (everything released;
    /// the rebalance is abandoned — if the removal relocated a successor, the
    /// removing thread rebalances it, paper §4.5). Otherwise returns the
    /// newly locked heavy-side child (or null if the heavy side is empty or
    /// the node became balanced).
    fn rebalance_restart<'g>(
        &self,
        node: Shared<'g, Node<K, V>>,
        parent: &mut Shared<'g, Node<K, V>>,
        g: &'g Guard,
    ) -> Option<Shared<'g, Node<K, V>>> {
        record(Event::RebalanceRestart);
        if !parent.is_null() {
            nref(*parent).unlock_tree();
            *parent = Shared::null();
        }
        let n = nref(node);
        let mut budget = RestartBudget::new();
        loop {
            n.unlock_tree();
            poison::abort_if_poisoned(&self.gate);
            budget.tick();
            n.lock_tree();
            // Relaxed: marking requires the node's tree lock, which we hold.
            if n.mark.load(Ordering::Relaxed) {
                n.unlock_tree();
                return None;
            }
            let bf = n.bf();
            let child = n.child(bf >= 2, g);
            if child.is_null() {
                return Some(Shared::null());
            }
            if nref(child).try_lock_tree() {
                return Some(child);
            }
        }
    }

    /// Re-examine a node that may have been left imbalanced by an abandoned
    /// concurrent rebalance (paper §4.5 edge case). Takes no locks on entry.
    pub(crate) fn rebalance_node<'g>(&self, node: Shared<'g, Node<K, V>>, g: &'g Guard) {
        let n = nref(node);
        n.lock_tree();
        // Relaxed: marking requires the node's tree lock, which we hold.
        if n.mark.load(Ordering::Relaxed) || node == self.root_sh(g) {
            n.unlock_tree();
            return;
        }
        // `skip_first_update = true`: no height to propagate, just check the
        // balance factor and rotate if needed.
        self.rebalance(node, Shared::null(), true, true, g);
    }

    /// Paper Algorithm 12. On entry the caller holds `node.tree_lock` and
    /// `child.tree_lock` (if `child` is non-null); `is_left` states which
    /// side of `node` the (possibly null) `child` slot is. All locks are
    /// consumed.
    ///
    /// `skip_first_update` suppresses the initial height propagation (used by
    /// [`Self::rebalance_node`], which enters without a changed child).
    pub(crate) fn rebalance<'g>(
        &self,
        mut node: Shared<'g, Node<K, V>>,
        mut child: Shared<'g, Node<K, V>>,
        mut is_left: bool,
        skip_first_update: bool,
        g: &'g Guard,
    ) {
        let root = self.root_sh(g);
        // When non-null, `parent`'s tree lock is held and `node` is its child.
        let mut parent: Shared<'g, Node<K, V>> = Shared::null();
        let mut first = true;

        loop {
            debug_assert!(parent.is_null(), "parent lock must not be held at walk top");
            if node == root {
                if !child.is_null() {
                    nref(child).unlock_tree();
                }
                nref(node).unlock_tree();
                return;
            }
            if !child.is_null() {
                is_left = nref(node).left.load(Ordering::Acquire, g) == child;
            }
            let updated = if first && skip_first_update {
                false
            } else {
                self.update_height(child, node, is_left)
            };
            first = false;
            let mut bf = nref(node).bf();
            if !updated && bf.abs() < 2 {
                // Height unchanged and balanced: ancestors are unaffected.
                if !child.is_null() {
                    nref(child).unlock_tree();
                }
                nref(node).unlock_tree();
                return;
            }

            // --- rotation loop: restore |bf| < 2 at `node` ---
            while bf.abs() >= 2 {
                let heavy_left = bf >= 2;
                let needed = nref(node).child(heavy_left, g);
                if child != needed {
                    // The locked child (if any) is on the wrong side.
                    if !child.is_null() {
                        nref(child).unlock_tree();
                    }
                    child = needed;
                    if child.is_null() {
                        // Height fields claim a subtree that is not there —
                        // cannot happen under the protocol; repair and retry.
                        debug_assert!(false, "heavy side of imbalanced node is empty");
                        nref(node).set_height(heavy_left, 0);
                        bf = nref(node).bf();
                        continue;
                    }
                    if !nref(child).try_lock_tree() {
                        match self.rebalance_restart(node, &mut parent, g) {
                            None => return, // node removed; all released
                            Some(c) => {
                                child = c;
                                bf = nref(node).bf();
                                continue;
                            }
                        }
                    }
                }
                is_left = heavy_left;

                // Double rotation needed when the child leans the other way.
                let ch_bf = nref(child).bf();
                if (is_left && ch_bf < 0) || (!is_left && ch_bf > 0) {
                    let grand = nref(child).child(!is_left, g);
                    if grand.is_null() {
                        // Same impossible-by-protocol defense as above.
                        debug_assert!(false, "inner grandchild missing for double rotation");
                        nref(child).set_height(!is_left, 0);
                        continue;
                    }
                    if !nref(grand).try_lock_tree() {
                        nref(child).unlock_tree();
                        match self.rebalance_restart(node, &mut parent, g) {
                            None => return,
                            Some(c) => {
                                child = c;
                                bf = nref(node).bf();
                                continue;
                            }
                        }
                    }
                    record(Event::DoubleRotation);
                    self.rotate(grand, child, node, is_left, g);
                    nref(child).unlock_tree();
                    child = grand;
                }

                if parent.is_null() {
                    parent = self.lock_parent(node, g);
                }
                self.rotate(child, node, parent, !is_left, g);

                bf = nref(node).bf();
                if bf.abs() >= 2 {
                    // Still imbalanced (heights were stale): rotate again
                    // beneath the new parent (= old child).
                    nref(parent).unlock_tree();
                    parent = child;
                    child = Shared::null();
                    continue;
                }
                // `node` is balanced; verify its new parent (the old child).
                std::mem::swap(&mut node, &mut child);
                bf = nref(node).bf();
            }

            // --- move one level up ---
            if !child.is_null() {
                nref(child).unlock_tree();
            }
            child = node;
            node = if parent.is_null() {
                self.lock_parent(node, g)
            } else {
                let p = parent;
                parent = Shared::null();
                p
            };
        }
    }
}
