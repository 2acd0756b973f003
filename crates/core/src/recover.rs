//! Online recovery: quarantine, audit, and repair a poisoned tree back to
//! writable (ISSUE 9 tentpole).
//!
//! A writer that dies inside its lock window poisons the tree
//! (`poison.rs`), which rejects all further writes while the lock-free read
//! path keeps serving the intact ordering chain. This module closes the
//! loop: [`LoTree::try_recover`] takes such a tree back to fully writable,
//! online, in four phases:
//!
//! 1. **Quarantine** — `WriterGate::begin_recovery` claims the tree
//!    (exactly one recoverer wins; concurrent callers see
//!    [`RecoverError::Busy`]), then the recoverer waits for the in-flight
//!    writer count to drain to zero. `WriteScope`'s drop deregisters
//!    *after* releasing every held lock, so a drained gate proves no node
//!    lock is held and every dead writer's stores are visible. Lock-free
//!    reads are untouched throughout.
//! 2. **Audit** — a damage classifier walks the succ chain (the layout the
//!    protocol always repairs *first*, hence the durable truth) and the
//!    physical layout, force-completing stranded mark splices, and
//!    detecting the half-linked windows any of the cataloged failpoints can
//!    leave: a chain node missing from the
//!    layout, a marked orphan still in it, a mid-relocation detach, stale
//!    heights after an interrupted rotation.
//! 3. **Repair** — if the layout audit passes, nothing more is needed
//!    ([`RepairStrategy::AuditOnly`]). A damaged layout is rebuilt in place
//!    from the surviving chain ([`RepairStrategy::InPlace`]): the subtree
//!    is detached (readers fall back to the ordering chain, which lookups
//!    already chase), one epoch grace period passes so no reader is still
//!    descending the old shape, then a balanced layout is rebuilt over the
//!    *same* nodes and republished with a single `Release` store. For a
//!    genuine panic — damage the failpoint catalog does not describe — the
//!    fallback is a full streaming rebuild into fresh nodes
//!    ([`RepairStrategy::StreamingRebuild`]): values are *stolen* (pointer
//!    hand-off, never cloned), the old generation is retired through the
//!    epoch, and readers are never blocked. Orphans are retired either way.
//! 4. **Resume** — the repaired tree must pass the *full* (non-degraded)
//!    invariant check while still quarantined; only then does the gate CAS
//!    back to healthy with a bumped recovery generation. Writers that
//!    arrived mid-recovery saw [`TreeError::Recovering`] and retry (the
//!    infallible surface spins with `ContentionBackoff` via
//!    `poison::block_during_recovery`).
//!
//! Failure mode: if verification fails the gate is restored to its prior
//! poison cause and the caller gets [`RecoverError::VerifyFailed`] — the
//! tree is exactly as recoverable (or not) as before the attempt.

use lo_reclaim::{self as epoch, Shared};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::bound::Bound;
use crate::node::{nref, Node};
use crate::poison::{decode_cause, CODE_HEALTHY, CODE_PANIC};
use crate::sync::ContentionBackoff;
use crate::tree::LoTree;
use lo_api::{Health, Key, RecoverError, RecoveryReport, RepairStrategy, TreeError, Value};
use lo_metrics::{add, record, Event};

thread_local! {
    /// Test/bench hook: force the streaming-rebuild strategy on this
    /// thread's next recoveries regardless of the poison cause.
    /// Thread-local so parallel tests cannot perturb each other.
    static FORCE_STREAMING: Cell<bool> = const { Cell::new(false) };
}

/// Forces [`RepairStrategy::StreamingRebuild`] for recoveries run on the
/// current thread. Test/bench hook — exported `#[doc(hidden)]` from the
/// crate root.
pub fn force_streaming_rebuild(on: bool) {
    FORCE_STREAMING.with(|c| c.set(on));
}

/// Re-derefs a node address captured earlier in the same quarantine.
///
/// Addresses are carried as `usize` so the audit's work lists survive
/// guard re-pinning (the in-place repair must drop its guard across the
/// grace-period wait).
#[inline]
fn at<'a, K: Key, V: Value>(p: usize) -> &'a Node<K, V> {
    debug_assert_ne!(p, 0, "dereferencing a null node address");
    // SAFETY: [inv:recovery-quarantine] the address was read out of the tree
    // after `begin_recovery` claimed the gate and the writer count drained:
    // the recoverer is the only thread that retires nodes from here on, and
    // it does so strictly after the structure stops referencing them, so
    // every audited address stays live for the whole quarantine.
    unsafe { &*(p as *const Node<K, V>) }
}

/// `usize` address back to a `Shared` (0 ⇒ null).
#[inline]
fn shp<'a, K, V>(p: usize) -> Shared<'a, Node<K, V>> {
    if p == 0 {
        Shared::null()
    } else {
        Shared::from(p as *const Node<K, V>)
    }
}

/// Blocks until every epoch pin that was active at call time has retired:
/// defers a flag store and spins (with backoff) repinning until it runs.
/// The caller must not hold a guard of its own, or the epoch can never
/// advance past it; `try_recover` refuses a pinned caller with
/// [`RecoverError::Pinned`]. Readers are never blocked — the *recoverer*
/// waits.
fn wait_for_grace_period(domain: &crate::domain::EpochDomain) {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let flag = Arc::new(AtomicBool::new(false));
    {
        let g = domain.pin();
        let f = Arc::clone(&flag);
        g.defer(move || f.store(true, Ordering::Release));
        g.flush();
    }
    let mut backoff = ContentionBackoff::new();
    while !flag.load(Ordering::Acquire) {
        domain.pin().flush();
        backoff.pause();
    }
}

/// Everything the audit learned about the damage, in node addresses.
struct Audit {
    /// Interior chain nodes in ascending order (marked nodes already
    /// spliced out) — the authoritative key set.
    chain: Vec<usize>,
    /// Nodes physically reachable from `root.left` but absent from the
    /// chain, plus marked nodes the chain walk spliced out: to be retired.
    orphans: Vec<usize>,
    /// Whether the physical layout already agrees with the chain (in-order
    /// equality, parent consistency, exact heights in balanced mode).
    layout_ok: bool,
    marks_completed: usize,
}

impl<K: Key, V: Value> LoTree<K, V> {
    /// The tree's externally visible health (see [`Health`]).
    pub(crate) fn health(&self) -> Health {
        match self.gate.error() {
            None => Health::Writable,
            Some(TreeError::Recovering) => Health::Recovering,
            Some(TreeError::Poisoned(cause)) => Health::Poisoned(cause),
            // The gate never reports AllocFailed; defensive arm.
            Some(TreeError::AllocFailed) => Health::Writable,
        }
    }

    /// Quarantine → audit → repair → resume. See the module docs for the
    /// protocol; returns a post-mortem [`RecoveryReport`] on success.
    pub(crate) fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
        // A pinned caller (a scan callback) would wait forever in
        // `wait_for_grace_period`; the tree stays as it is.
        if self.domain.is_pinned() {
            return Err(RecoverError::Pinned);
        }
        let prior = self.gate.begin_recovery()?;
        let t0 = lo_metrics::stamp();
        let start = std::time::Instant::now();
        record(Event::RecoveryStarted);

        // --- quarantine: wait out in-flight writers (reads continue) ---
        let writers_drained = self.gate.writers();
        let mut backoff = ContentionBackoff::new();
        while self.gate.writers() > 0 {
            backoff.pause();
        }

        let outcome = self.audit_and_repair(prior);
        lo_metrics::span(lo_metrics::Phase::Recovery, t0);
        match outcome {
            Ok(mut report) => {
                report.writers_drained = writers_drained;
                report.elapsed = start.elapsed();
                add(Event::RecoveryNodesSalvaged, report.nodes_salvaged as u64);
                add(Event::RecoveryNodesOrphaned, report.nodes_orphaned as u64);
                record(Event::RecoverySucceeded);
                Ok(report)
            }
            Err(e) => {
                // Restore the prior cause: the tree is exactly as
                // recoverable as before the attempt.
                record(Event::RecoveryFailed);
                self.gate.finish_recovery(prior);
                Err(e)
            }
        }
    }

    /// Audit, repair, verify, and (on success) un-poison. Runs entirely
    /// inside the quarantine (gate claimed, writers drained).
    fn audit_and_repair(&self, prior: u32) -> Result<RecoveryReport, RecoverError> {
        let audit = self.audit()?;
        let streaming = FORCE_STREAMING.with(Cell::get) || prior == CODE_PANIC;
        let strategy = if streaming {
            RepairStrategy::StreamingRebuild
        } else if audit.layout_ok {
            RepairStrategy::AuditOnly
        } else {
            RepairStrategy::InPlace
        };

        match strategy {
            RepairStrategy::AuditOnly => {}
            RepairStrategy::InPlace => self.rebuild_in_place(&audit.chain),
            RepairStrategy::StreamingRebuild => self.rebuild_streaming(&audit.chain)?,
        }

        // Retire the orphans: unreachable once the chain is clean and the
        // (possibly rebuilt) layout contains chain nodes only.
        {
            let g = self.domain.pin();
            for &p in &audit.orphans {
                // SAFETY: [inv:recovery-chain-truth] orphans are, by audit,
                // absent from the ordering chain, and the repaired layout is
                // built exclusively from chain nodes — no live node points to
                // an orphan, so no new reference to it can be created.
                unsafe { self.retire_node(shp(p), &g) };
            }
        }

        // --- resume: full, *non-degraded* verification while still
        // quarantined; only a tree that passes goes back to writable. ---
        let verified = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.check_invariants_with(false)
        }));
        if verified.is_err() {
            return Err(RecoverError::VerifyFailed);
        }

        let generation = self.recovery_gen.fetch_add(1, Ordering::AcqRel) + 1;
        // Release (inside finish_recovery) pairs with writer-entry Acquire:
        // a writer admitted after this store sees the whole repair.
        self.gate.finish_recovery(CODE_HEALTHY);
        Ok(RecoveryReport {
            cause: decode_cause(prior),
            strategy,
            writers_drained: 0, // caller fills in
            nodes_salvaged: audit.chain.len(),
            nodes_orphaned: audit.orphans.len(),
            marks_completed: audit.marks_completed,
            generation,
            elapsed: Duration::ZERO, // caller fills in
        })
    }

    /// Phase 2: walk both layouts and classify the damage, performing the
    /// chain-local repairs (mark-splice completion, pred-mirror fixes) as
    /// it goes. Errors only if the *chain itself* is
    /// corrupt — damage outside the protocol's reach.
    fn audit(&self) -> Result<Audit, RecoverError> {
        let g = self.domain.pin();
        let head = self.head_sh(&g).as_raw() as usize;
        let root = self.root_sh(&g).as_raw() as usize;
        let mut chain: Vec<usize> = Vec::new();
        let mut chain_set: HashSet<usize> = HashSet::new();
        let mut spliced: Vec<usize> = Vec::new();
        let mut marks_completed = 0usize;

        // --- chain walk: the durable truth, lightly repaired ---
        let mut prev = head;
        let mut cur = at::<K, V>(head).succ.load(Ordering::Acquire, &g).as_raw() as usize;
        while cur != root {
            if !chain_set.insert(cur) {
                // A cycle in the succ chain: beyond the protocol's damage
                // model; nothing here is trustworthy enough to rebuild from.
                return Err(RecoverError::VerifyFailed);
            }
            let n = at::<K, V>(cur);
            if n.mark.load(Ordering::Relaxed) {
                // A dead remover marked its victim but never finished the
                // splice (or its splice is what we are re-reading): force-
                // complete it. Chain stores are Release, as on the live path.
                let next = n.succ.load(Ordering::Acquire, &g).as_raw() as usize;
                at::<K, V>(prev).succ.store(shp(next), Ordering::Release);
                at::<K, V>(next).pred.store(shp(prev), Ordering::Release);
                chain_set.remove(&cur);
                spliced.push(cur);
                marks_completed += 1;
                cur = next;
                continue;
            }
            if at::<K, V>(prev).key >= n.key {
                // Non-ascending chain: outside the damage model.
                return Err(RecoverError::VerifyFailed);
            }
            if n.pred.load(Ordering::Acquire, &g).as_raw() as usize != prev {
                n.pred.store(shp(prev), Ordering::Release);
            }
            chain.push(cur);
            prev = cur;
            cur = n.succ.load(Ordering::Acquire, &g).as_raw() as usize;
        }
        // Tail mirror.
        if at::<K, V>(root).pred.load(Ordering::Acquire, &g).as_raw() as usize != prev {
            at::<K, V>(root).pred.store(shp(prev), Ordering::Release);
        }

        // --- layout walk: in-order collection, cycle-guarded ---
        let mut layout: Vec<usize> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut layout_ok = true;
        let mut stack: Vec<usize> = Vec::new();
        let mut node = at::<K, V>(root).left.load(Ordering::Acquire, &g).as_raw() as usize;
        if node != 0 && at::<K, V>(node).parent.load(Ordering::Acquire, &g).as_raw() as usize != root
        {
            layout_ok = false;
        }
        while node != 0 || !stack.is_empty() {
            while node != 0 {
                if !visited.insert(node) {
                    // Reached twice: a half-done relocation or rotation
                    // duplicated a path. Stop descending; rebuild will fix
                    // (`node` is overwritten by the post-pop right step).
                    layout_ok = false;
                    break;
                }
                stack.push(node);
                node = at::<K, V>(node).left.load(Ordering::Acquire, &g).as_raw() as usize;
            }
            let Some(p) = stack.pop() else { break };
            layout.push(p);
            let n = at::<K, V>(p);
            for side in [true, false] {
                let ch = n.child(side, &g).as_raw() as usize;
                if ch != 0 && at::<K, V>(ch).parent.load(Ordering::Acquire, &g).as_raw() as usize != p
                {
                    layout_ok = false;
                }
            }
            node = n.right.load(Ordering::Acquire, &g).as_raw() as usize;
        }
        if layout.len() != chain.len() || layout.iter().zip(chain.iter()).any(|(a, b)| a != b) {
            layout_ok = false;
        }
        if self.balanced && layout_ok && !self.heights_exact(&g) {
            layout_ok = false;
        }

        // Orphans: in the layout but not the chain, plus the spliced marks.
        let spliced_set: HashSet<usize> = spliced.iter().copied().collect();
        let mut orphans = spliced;
        for &p in &layout {
            if !chain_set.contains(&p) && !spliced_set.contains(&p) {
                if at::<K, V>(p).mark.load(Ordering::Relaxed) {
                    // A stranded mark: its removal linearized, the layout
                    // unlink never happened. Orphaning it force-clears it.
                    marks_completed += 1;
                }
                orphans.push(p);
            }
        }
        Ok(Audit { chain, orphans, layout_ok, marks_completed })
    }

    /// Non-panicking twin of the invariant checker's height pass: `true`
    /// iff every stored height is exact and every node meets the AVL bound.
    fn heights_exact(&self, g: &epoch::Guard) -> bool {
        let root = self.root_sh(g);
        let top = nref(root).left.load(Ordering::Acquire, g);
        if top.is_null() {
            return true;
        }
        let mut heights: HashMap<usize, i32> = HashMap::new();
        let mut work: Vec<(Shared<'_, Node<K, V>>, bool)> = vec![(top, false)];
        while let Some((n, expanded)) = work.pop() {
            let r = nref(n);
            let l_ch = r.left.load(Ordering::Acquire, g);
            let r_ch = r.right.load(Ordering::Acquire, g);
            if !expanded {
                work.push((n, true));
                if !l_ch.is_null() {
                    work.push((l_ch, false));
                }
                if !r_ch.is_null() {
                    work.push((r_ch, false));
                }
                continue;
            }
            let hl = if l_ch.is_null() { 0 } else { heights[&(l_ch.as_raw() as usize)] };
            let hr = if r_ch.is_null() { 0 } else { heights[&(r_ch.as_raw() as usize)] };
            if i32::from(r.left_height.load(Ordering::Relaxed)) != hl
                || i32::from(r.right_height.load(Ordering::Relaxed)) != hr
                || (hl - hr).abs() > 1
            {
                return false;
            }
            heights.insert(n.as_raw() as usize, hl.max(hr) + 1);
        }
        true
    }

    /// Phase 3a: in-place layout rebuild from the surviving chain. Readers
    /// are redirected to the ordering chain (which lookups already chase)
    /// for the duration: detach, wait one grace period so nobody is still
    /// inside the old shape, rewrite, republish.
    fn rebuild_in_place(&self, chain: &[usize]) {
        let root;
        {
            let g = self.domain.pin();
            root = self.root_sh(&g).as_raw() as usize;
            // Detach: new lookups land on the root sentinel and fall back to
            // its pred chain — the ordering layout serves every read.
            at::<K, V>(root).left.store(Shared::<Node<K, V>>::null(), Ordering::Release);
        }
        // No guard held: let the epoch advance past every reader that might
        // still be descending the detached subtree, whose parent/child
        // pointers are about to be rewritten under it.
        wait_for_grace_period(&self.domain);
        let (top, _) = self.build_layout(chain, root);
        // SAFETY note (not an unsafe block): a single Release store
        // publishes the fully wired subtree ([inv:recovery-publish] in the
        // design registry) — readers see the old (null) or new top, whole.
        at::<K, V>(root).left.store(shp(top), Ordering::Release);
    }

    /// Phase 3b: full streaming rebuild into fresh nodes. Values are moved
    /// by pointer hand-off; the old generation keeps serving pinned readers
    /// until the epoch retires it ([`LoTree::retire_node_without_value`]).
    fn rebuild_streaming(&self, chain: &[usize]) -> Result<(), RecoverError> {
        let g = self.domain.pin();
        let head = self.head_sh(&g).as_raw() as usize;
        let root = self.root_sh(&g).as_raw() as usize;
        let mut fresh: Vec<usize> = Vec::with_capacity(chain.len());
        for &p in chain {
            let old = at::<K, V>(p);
            let Bound::Key(k) = old.key else {
                // Sentinels can never be interior chain nodes.
                return Err(RecoverError::VerifyFailed);
            };
            let node = self.alloc_node(Node::sentinel(Bound::Key(k)), &g);
            // Steal the value pointer: ownership moves to the fresh node;
            // the old node is retired *without* its value (deferred null).
            let v = old.value.load(Ordering::Acquire, &g);
            nref(node).value.store(v, Ordering::Relaxed);
            let z = old.zombie.load(Ordering::Acquire);
            nref(node).zombie.store(z, Ordering::Release);
            fresh.push(node.as_raw() as usize);
        }
        // Wire the new generation fully before any publication store.
        for (i, &p) in fresh.iter().enumerate() {
            let n = at::<K, V>(p);
            let prev = if i == 0 { head } else { fresh[i - 1] };
            let next = if i + 1 == fresh.len() { root } else { fresh[i + 1] };
            n.pred.store(shp(prev), Ordering::Release);
            n.succ.store(shp(next), Ordering::Release);
        }
        let (top, _) = self.build_layout(&fresh, root);
        // Publish: three independent Release stores, each a complete entry
        // point into the new generation; a reader mixing generations only
        // ever walks self-consistent pointers (the old generation is intact
        // until retired). [inv:recovery-publish]
        let first = fresh.first().copied().unwrap_or(root);
        let last = fresh.last().copied().unwrap_or(head);
        at::<K, V>(head).succ.store(shp(first), Ordering::Release);
        at::<K, V>(root).pred.store(shp(last), Ordering::Release);
        at::<K, V>(root).left.store(shp(top), Ordering::Release);
        // Retire the old generation. Values were handed off above.
        for &p in chain {
            // SAFETY: [inv:recovery-chain-truth] the old node is no longer
            // reachable from either published layout (both now reference the
            // fresh generation only), and exactly one fresh node took over
            // its value pointer — the retire-without-value contract.
            unsafe { self.retire_node_without_value(shp(p), &g) };
        }
        Ok(())
    }

    /// Builds a height-balanced layout over `nodes` (ascending chain
    /// order), parenting the subtree root to `parent`. Returns the subtree
    /// root address (0 for empty) and its height. Recursion depth is
    /// O(log n) — the split is always at the midpoint.
    fn build_layout(&self, nodes: &[usize], parent: usize) -> (usize, i32) {
        if nodes.is_empty() {
            return (0, 0);
        }
        let mid = nodes.len() / 2;
        let p = nodes[mid];
        let n = at::<K, V>(p);
        let (l, hl) = self.build_layout(&nodes[..mid], p);
        let (r, hr) = self.build_layout(&nodes[mid + 1..], p);
        n.left.store(shp(l), Ordering::Release);
        n.right.store(shp(r), Ordering::Release);
        n.parent.store(shp(parent), Ordering::Release);
        if self.balanced {
            n.set_height(true, hl);
            n.set_height(false, hr);
        }
        (p, hl.max(hr) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poison::{CODE_PANIC, CODE_RESTART_STORM};
    use lo_api::PoisonCause;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn recover_on_healthy_tree_declines() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        assert_eq!(t.try_recover().err(), Some(RecoverError::NotPoisoned));
        assert_eq!(t.health(), Health::Writable);
    }

    #[test]
    fn audit_only_recovery_restores_writability() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        for k in 1..=32 {
            assert!(t.insert(k, k as u64));
        }
        // A restart storm poisons without structural damage.
        t.gate.poison(CODE_RESTART_STORM);
        assert_eq!(t.health(), Health::Poisoned(PoisonCause::RestartStorm));
        assert!(t.try_insert(99, 99).is_err());

        let report = t.try_recover().expect("undamaged tree must recover");
        assert_eq!(report.strategy, RepairStrategy::AuditOnly);
        assert_eq!(report.cause, PoisonCause::RestartStorm);
        assert_eq!(report.nodes_salvaged, 32);
        assert_eq!(report.nodes_orphaned, 0);
        assert_eq!(report.generation, 1);
        assert_eq!(t.recovery_generation(), 1);
        assert_eq!(t.health(), Health::Writable);
        assert!(t.insert(99, 99));
        assert_eq!(t.len_quiescent(), 33);
        let census = t.check_invariants_quiescent();
        assert!(!census.degraded);
        // Double recovery declines: the tree is healthy again.
        assert_eq!(t.try_recover().err(), Some(RecoverError::NotPoisoned));
    }

    #[test]
    fn in_place_rebuild_restores_detached_subtree() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        for k in 1..=16 {
            assert!(t.insert(k, k as u64));
        }
        // Damage the layout: detach the top's left subtree. The chain still
        // holds every key; the layout no longer does.
        {
            let g = epoch::pin();
            let top = nref(t.root_sh(&g)).left.load(Ordering::Acquire, &g);
            nref(top).left.store(Shared::<Node<i64, u64>>::null(), Ordering::Release);
        }
        t.gate.poison(CODE_RESTART_STORM);

        let report = t.try_recover().expect("chain-intact damage must repair");
        assert_eq!(report.strategy, RepairStrategy::InPlace);
        assert_eq!(report.nodes_salvaged, 16);
        assert_eq!(report.nodes_orphaned, 0);
        assert_eq!(t.health(), Health::Writable);
        for k in 1..=16 {
            assert!(t.contains(&k), "key {k} must survive the rebuild");
        }
        let census = t.check_invariants_quiescent();
        assert!(!census.degraded);
        assert_eq!(census.live_keys, 16);
        assert!(t.insert(17, 17));
        assert!(t.remove(&1));
    }

    #[test]
    fn pinned_caller_is_refused_until_its_scan_ends() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        for k in 1..=16 {
            assert!(t.insert(k, k as u64));
        }
        // Damage that needs the in-place repair, whose grace-period wait
        // would spin forever on the scan's own pin.
        {
            let g = epoch::pin();
            let top = nref(t.root_sh(&g)).left.load(Ordering::Acquire, &g);
            nref(top).left.store(Shared::<Node<i64, u64>>::null(), Ordering::Release);
        }
        t.gate.poison(CODE_RESTART_STORM);
        let mut inside = None;
        t.scan_range(1..=16, |_| {
            if inside.is_none() {
                inside = Some(t.try_recover());
            }
        });
        assert_eq!(inside, Some(Err(RecoverError::Pinned)));
        assert_eq!(t.health(), Health::Poisoned(PoisonCause::RestartStorm));
        let report = t.try_recover().expect("an unpinned caller recovers");
        assert_eq!(report.strategy, RepairStrategy::InPlace);
        assert_eq!(t.health(), Health::Writable);
    }

    #[test]
    fn in_place_rebuild_fixes_stale_heights() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        for k in 1..=8 {
            assert!(t.insert(k, 0));
        }
        {
            let g = epoch::pin();
            let top = nref(t.root_sh(&g)).left.load(Ordering::Acquire, &g);
            // A rotation interrupted before its height fixups.
            nref(top).left_height.store(99, Ordering::Relaxed);
        }
        t.gate.poison(CODE_RESTART_STORM);
        let report = t.try_recover().expect("stale heights must repair");
        assert_eq!(report.strategy, RepairStrategy::InPlace);
        assert!(!t.check_invariants_quiescent().degraded);
    }

    /// Value type that counts its drops, for leak/double-free accounting
    /// across the streaming rebuild's value hand-off. (Also exercised under
    /// Miri by the CI miri job's `recover::` filter.)
    #[derive(Clone)]
    struct Counted(#[allow(dead_code)] u64, Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn streaming_rebuild_steals_values_and_retires_old_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let t: LoTree<i64, Counted> = LoTree::new(true, false);
        for k in 1..=10 {
            assert!(t.insert(k, Counted(k as u64, Arc::clone(&drops))));
        }
        // A genuine panic forces the conservative strategy.
        t.gate.poison(CODE_PANIC);
        let report = t.try_recover().expect("streaming rebuild must succeed");
        assert_eq!(report.strategy, RepairStrategy::StreamingRebuild);
        assert_eq!(report.cause, PoisonCause::Panic);
        assert_eq!(report.nodes_salvaged, 10);
        // Flush the epoch until the old generation's deferred retirements
        // run: stolen values must NOT drop with their old nodes.
        for _ in 0..64 {
            epoch::pin().flush();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 0, "hand-off must not drop values");
        for k in 1..=10 {
            assert_eq!(t.get_with(&k, |v| v.0), Some(k as u64));
        }
        assert!(!t.check_invariants_quiescent().degraded);
        // Teardown drops each salvaged value exactly once.
        drop(t);
        for _ in 0..64 {
            epoch::pin().flush();
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10, "each value drops exactly once");
    }

    #[test]
    fn forced_streaming_rebuild_via_test_hook() {
        let t: LoTree<i64, u64> = LoTree::new(false, true);
        // Insertion order gives key 3 two children (left 1, right 5) in the
        // unbalanced layout, so the PE removal is logical: zombie, not splice.
        for k in [3, 1, 5, 2, 4, 6] {
            assert!(t.insert(k, k as u64));
        }
        assert!(t.remove(&3)); // two children in PE mode: leaves a zombie
        t.gate.poison(CODE_RESTART_STORM);
        force_streaming_rebuild(true);
        let report = t.try_recover().expect("forced streaming must succeed");
        force_streaming_rebuild(false);
        assert_eq!(report.strategy, RepairStrategy::StreamingRebuild);
        let census = t.check_invariants_quiescent();
        assert!(!census.degraded);
        assert_eq!(census.live_keys, 5);
        assert_eq!(census.zombies, 1, "zombie flags survive the rebuild");
        assert!(!t.contains(&3));
        assert!(t.insert(3, 3), "zombie revives after recovery");
    }

    #[test]
    fn failed_verification_restores_prior_cause() {
        let t: LoTree<i64, u64> = LoTree::new(true, false);
        for k in 1..=4 {
            assert!(t.insert(k, 0));
        }
        // Corrupt the chain itself (a succ cycle): beyond the damage model,
        // so recovery must decline and leave the poison cause in place.
        let (second, third) = {
            let g = epoch::pin();
            let first = nref(t.head_sh(&g)).succ.load(Ordering::Acquire, &g);
            let second = nref(first).succ.load(Ordering::Acquire, &g);
            let third = nref(second).succ.load(Ordering::Acquire, &g);
            nref(second).succ.store(first, Ordering::Release);
            (second.as_raw() as usize, third.as_raw() as usize)
        };
        t.gate.poison(CODE_RESTART_STORM);
        assert_eq!(t.try_recover().err(), Some(RecoverError::VerifyFailed));
        assert_eq!(t.health(), Health::Poisoned(PoisonCause::RestartStorm));
        // Undo the cycle so teardown walks the chain exactly once.
        at::<i64, u64>(second).succ.store(shp(third), Ordering::Release);
    }
}
