//! The node layout (paper Figure 3) plus low-level accessors.
//!
//! # Hot/cold layout split
//!
//! The paper's headline property is that `contains`/`get` are pure pointer
//! chases: no locks, no restarts, no stores. Every cycle on that path is
//! therefore memory latency, so the node is laid out `#[repr(C, align(64))]`
//! with the fields the **lock-free read path** touches packed first, inside
//! the first cache line, and everything only writers touch banished to the
//! second line:
//!
//! ```text
//! offset   0 ┌──────────────────────────────────────────────┐
//!            │ key          (Bound<K>; compared every step) │  hot: read
//!            │ left, right  (layout descent, Algorithm 1)   │  path only —
//!            │ succ, pred   (ordering chase, Algorithm 2)   │  writers dirty
//!            │ value        (boxed replacement, or null)    │  this line only
//!            │ mark, zombie (liveness flags, read unlocked) │  at lin. points
//! offset  64 ├──────────────────────────────────────────────┤
//!            │ parent       (writers' upward walks only)    │  cold: dirtied
//!            │ left/right height (AtomicI8; rebalancing)    │  by every lock
//!            │ tree_lock, succ_lock                         │  acquisition &
//!            │ inline       (the first value; never written │  height update;
//!            │               after publication)             │  a get hit reads
//!            └──────────────────────────────────────────────┘  `inline` too
//! ```
//!
//! For the benchmark configuration `Node<u64, u64>` the hot half is 58 bytes,
//! the inline value sits at offset 80 (112 with the `lockdep` feature's
//! per-lock ledger ids), and the node is exactly two lines, so an arena
//! chunk holds a fixed number of slots. The compile-time assertions below
//! the struct pin every hot field inside the first 64-byte line and the
//! inline value inside the second. Lock traffic (both `NodeLock`s), height
//! churn from rebalancing, and `parent` rewrites from rotations all land on
//! the cold line, so concurrent writers do not invalidate the line readers
//! are chasing through.
//!
//! # Values
//!
//! A key node holds its first value in itself, in the cold line's unused
//! bytes: inserting a key allocates one arena slot and nothing else, and a
//! get hit reads its value from the slot it has just reached. While the
//! `value` pointer is null, `inline` is the current value. A `put` on a
//! present key, or a zombie revival, swaps a boxed replacement into `value`,
//! because a pinned reader may still hold the value it displaces: a
//! displaced box is retired through the epoch, and a displaced inline value
//! stays in its node until the node itself is freed.
//!
//! # Field-protection protocol (who may write what)
//!
//! Every field except `key` and `inline` is mutable and shared between
//! threads, so each of them is an atomic. The synchronization protocol:
//!
//! * `left`, `right`, `left_height`, `right_height` — protected by this
//!   node's `tree_lock`.
//! * `parent` — protected by the *parents'* tree locks: changing `n.parent`
//!   from `a` to `b` requires holding `a.tree_lock` and `b.tree_lock`
//!   (paper §4.3: "to change a node's parent, it is only necessary to acquire
//!   the treeLocks of its original and new parents").
//! * `succ` of `n`, and `pred` of the node `succ(n)` — protected by
//!   `n.succ_lock` (the lock of the interval `(n, succ(n))`).
//! * `mark` — set exactly once, while holding the removed node's `succ_lock`,
//!   its predecessor's `succ_lock` and its `tree_lock`; read without locks by
//!   lookups.
//! * `zombie` — partially-external variant only; guarded by the predecessor's
//!   `succ_lock`; read without locks by lookups.
//! * `value` — null until the key's first value is replaced; then a pointer
//!   to the boxed current value. Swapped under the predecessor's
//!   `succ_lock`; read without locks (epoch-protected) by `get`.
//! * `inline` — not an atomic: a key node's first value, written by
//!   [`Node::new_key`] before the node is published and never written
//!   again, so the publishing `Release` stores order it for every reader,
//!   as they do `key`. It stays initialised after a swap displaces it, and
//!   `Node::drop` drops it once, when the node is freed after its grace
//!   period (`inv:inline-value`, DESIGN.md §16.2). Sentinels leave it
//!   uninitialised.
//!
//! # Memory-ordering audit (ISSUE 3)
//!
//! The protocol above implies the weakest ordering each access needs; the
//! tree uses **no `SeqCst` anywhere**. The rules, per field:
//!
//! | field | writes | lock-free reads | reads under the guarding lock |
//! |---|---|---|---|
//! | `left`/`right`/`parent` | `Release` | `Acquire` | `Acquire` |
//! | `pred`/`succ`           | `Release` | `Acquire` | `Acquire` |
//! | `value`                 | `AcqRel` swap | `Acquire` | — |
//! | `mark`/`zombie`         | `Release` | `Acquire` | `Relaxed` |
//! | `left_height`/`right_height` | `Relaxed` | `Relaxed` (heuristic) | `Relaxed` |
//!
//! Justifications:
//!
//! * **Pointers are publication edges.** An insert fully initializes the new
//!   node before the `Release` stores that link it (`p.succ`, then the
//!   parent's child slot); any reader that `Acquire`-loads a pointer to it
//!   therefore sees an initialized node. This is the classic release/acquire
//!   publish and needs nothing stronger.
//! * **`mark`/`zombie` stores are `Release`** so that a reader which
//!   `Acquire`-loads the flag transition also observes everything the writer
//!   completed before flipping it — in particular a zombie *revive* stores
//!   the new `value` before clearing `zombie`, and a `get` that observes
//!   `zombie == false` must not return the pre-revive value.
//! * **`mark`/`zombie` loads under the guarding lock are `Relaxed`**: every
//!   store to these flags happens while holding the same lock the validating
//!   reader holds (`mark` ⇒ the node's `succ_lock` *and* `tree_lock`;
//!   `zombie` ⇒ the predecessor's `succ_lock`), so the lock's own
//!   acquire/release edge already orders the store before the load; the load
//!   needs no ordering of its own.
//! * **Lock-free flag loads are `Acquire`, not `SeqCst`.** The seed used
//!   `SeqCst` here, but no correctness argument relies on a single total
//!   order of flag and pointer writes: a lookup reaches a node only through
//!   the pointer loads above, all of which were already `Acquire` — the flag
//!   was never part of a complete SC proof. The linearizability argument
//!   (paper §5.2) is per-location: an unmarked read linearizes before the
//!   mark store, and a removed node is unreachable through fresh pointer
//!   loads once the splice stores land.
//! * **`value` needs nothing new for the inline cell.** A null pointer was
//!   stored before the node's publication, like `inline` itself, so a get
//!   that `Acquire`-loads null reads an initialised cell; one that loads a
//!   box pointer pairs with the `AcqRel` swap that installed it.
//! * **Heights are `Relaxed` everywhere**: writes happen under `tree_lock`;
//!   unlocked reads (`bf` heuristics in the rebalancer) are explicitly
//!   tolerant of stale values by the relaxed-balance design (Bougé et al.) —
//!   a wrong decision is re-examined, never incorrect.
//!
//! Reclamation: nodes are only freed through the epoch (the arena's
//! deferred slot recycle) after being unlinked from both layouts, so
//! lock-free readers holding an epoch guard can always dereference any
//! pointer they loaded.

use lo_reclaim::{Atomic, Guard, Shared};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicI8, Ordering};

use crate::bound::Bound;
use crate::sync::NodeLock;

/// A tree node. See module docs for the layout split, the field protection
/// protocol and the per-field memory-ordering table.
#[repr(C, align(64))]
pub(crate) struct Node<K, V> {
    // ------------------------------------------------------------------
    // Hot half: every field the lock-free read path touches, packed into
    // the first cache line (compile-time asserted for Node<u64, u64>).
    // ------------------------------------------------------------------
    /// Immutable key (possibly a sentinel bound).
    pub(crate) key: Bound<K>,
    /// Physical layout children (guarded by `tree_lock`).
    pub(crate) left: Atomic<Node<K, V>>,
    /// See [`Self::left`].
    pub(crate) right: Atomic<Node<K, V>>,
    /// Logical-ordering successor (guarded by this node's `succ_lock`).
    pub(crate) succ: Atomic<Node<K, V>>,
    /// Logical-ordering predecessor (guarded by `pred(n).succ_lock`).
    pub(crate) pred: Atomic<Node<K, V>>,
    /// The boxed value that replaced the key's first one; null while
    /// [`Self::inline`] holds the current value, and always for sentinels.
    pub(crate) value: Atomic<V>,
    /// Removed from the ordering layout (on-time removal).
    pub(crate) mark: AtomicBool,
    /// Logically deleted (partially-external variant only).
    pub(crate) zombie: AtomicBool,

    // ------------------------------------------------------------------
    // Cold half: fields only update paths touch. Lock words and height
    // churn dirty this line, never the hot one.
    // ------------------------------------------------------------------
    /// Physical parent (guarded by the old and new parents' tree locks).
    pub(crate) parent: Atomic<Node<K, V>>,
    /// Stored left-subtree height. `i8`: an AVL (even relaxed) of height
    /// h ≥ 92 needs more than 2⁶⁴ nodes, so heights fit with room to spare;
    /// a debug assert in [`Node::set_height`] guards the conversion.
    pub(crate) left_height: AtomicI8,
    /// Stored right-subtree height (see [`Self::left_height`]).
    pub(crate) right_height: AtomicI8,
    /// Physical-layout lock (paper `treeLock`).
    pub(crate) tree_lock: NodeLock,
    /// Ordering-layout interval lock (paper `succLock`).
    pub(crate) succ_lock: NodeLock,
    /// A key node's first value: written only by [`Self::new_key`], before
    /// the node is published, and dropped only by `Node::drop`, whether it
    /// is still current or was displaced. Uninitialised in sentinels.
    inline: MaybeUninit<V>,
}

/// Compile-time layout regression tests: the hot half of the benchmark
/// configuration `Node<u64, u64>` must fit in one 64-byte cache line, and
/// the whole node, inline value included, in exactly two. `Bound<u64>` is
/// 16 bytes, the five pointers 40, the two flags 2 → hot half 58 ≤ 64.
const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    type N = Node<u64, u64>;
    assert!(align_of::<N>() == 64, "node must start on a cache line");
    // Every hot field must END within the first 64 bytes.
    assert!(offset_of!(N, key) + size_of::<Bound<u64>>() <= 64);
    assert!(offset_of!(N, left) + 8 <= 64);
    assert!(offset_of!(N, right) + 8 <= 64);
    assert!(offset_of!(N, succ) + 8 <= 64);
    assert!(offset_of!(N, pred) + 8 <= 64);
    assert!(offset_of!(N, value) + 8 <= 64);
    assert!(offset_of!(N, mark) < 64);
    assert!(offset_of!(N, zombie) < 64);
    // Every cold field must START at or after the line boundary, so writer
    // traffic never dirties the readers' line.
    assert!(offset_of!(N, parent) >= 64);
    assert!(offset_of!(N, left_height) >= 64);
    assert!(offset_of!(N, right_height) >= 64);
    assert!(offset_of!(N, inline) >= 64);
    assert!(offset_of!(N, inline) + size_of::<u64>() <= 128);
    // Exactly two cache lines (also with the lockdep feature's per-lock
    // ledger ids), so the arena's slots per chunk cannot drift.
    assert!(size_of::<N>() == 128, "Node<u64,u64> must be two cache lines");
};

impl<K, V> Node<K, V> {
    /// A sentinel node (`−∞` or `+∞`); carries no value.
    pub(crate) fn sentinel(key: Bound<K>) -> Self {
        // `Node::drop` reads a `Bound::Key` as an initialised inline value.
        assert!(!matches!(key, Bound::Key(_)), "a sentinel carries no key");
        Self::with(key, MaybeUninit::uninit())
    }

    /// A key node holding `value` in its inline cell. Layout pointers start
    /// null; the inserting thread links the node into both layouts while
    /// holding the interval lock.
    pub(crate) fn new_key(key: K, value: V) -> Self {
        Self::with(Bound::Key(key), MaybeUninit::new(value))
    }

    /// The one constructor: `inline` is initialised iff `key` is a key.
    fn with(key: Bound<K>, inline: MaybeUninit<V>) -> Self {
        Self {
            key,
            value: Atomic::null(),
            mark: AtomicBool::new(false),
            zombie: AtomicBool::new(false),
            left: Atomic::null(),
            right: Atomic::null(),
            parent: Atomic::null(),
            left_height: AtomicI8::new(0),
            right_height: AtomicI8::new(0),
            tree_lock: NodeLock::new(),
            pred: Atomic::null(),
            succ: Atomic::null(),
            succ_lock: NodeLock::new(),
            inline,
        }
    }

    /// The key's current value: the boxed replacement if `value` holds
    /// one, else the inline cell. `None` only for sentinels. `Acquire`
    /// pairs with the `AcqRel` swap that installed a box (see module docs).
    #[inline]
    pub(crate) fn value_ref<'g>(&'g self, g: &'g Guard) -> Option<&'g V> {
        let v = self.value.load(Ordering::Acquire, g);
        if v.is_null() {
            return self.inline_value();
        }
        // SAFETY: [inv:epoch-liveness] boxed values are retired through the
        // epoch, never freed in place, so `v` is valid for `g`'s lifetime.
        Some(unsafe { v.deref() })
    }

    /// A key node's inline value, current or displaced; `None` for
    /// sentinels. It lives as long as the node.
    #[inline]
    pub(crate) fn inline_value(&self) -> Option<&V> {
        match self.key {
            // SAFETY: [inv:inline-value] a key node's cell was initialised by
            // `new_key` and is dropped only by `Node::drop`, which needs
            // `&mut self`.
            Bound::Key(_) => Some(unsafe { self.inline.assume_init_ref() }),
            Bound::NegInf | Bound::PosInf => None,
        }
    }

    /// Balance factor `leftHeight − rightHeight`. Caller should hold
    /// `tree_lock` for a stable reading (unlocked reads are used only as
    /// heuristics).
    #[inline]
    pub(crate) fn bf(&self) -> i32 {
        i32::from(self.left_height.load(Ordering::Relaxed))
            - i32::from(self.right_height.load(Ordering::Relaxed))
    }

    /// The stored height of the `is_left` subtree.
    #[inline]
    pub(crate) fn height(&self, is_left: bool) -> i32 {
        if is_left {
            i32::from(self.left_height.load(Ordering::Relaxed))
        } else {
            i32::from(self.right_height.load(Ordering::Relaxed))
        }
    }

    /// `max(leftHeight, rightHeight) + 1`: the height this node contributes
    /// to its parent's stored height (requires `tree_lock` for stability).
    #[inline]
    pub(crate) fn subtree_height(&self) -> i32 {
        i32::from(self.left_height.load(Ordering::Relaxed))
            .max(i32::from(self.right_height.load(Ordering::Relaxed)))
            + 1
    }

    /// Sets the stored height of the `is_left` subtree (requires `tree_lock`).
    #[inline]
    pub(crate) fn set_height(&self, is_left: bool, h: i32) {
        debug_assert!(
            (0..=i32::from(i8::MAX)).contains(&h),
            "AVL height {h} out of i8 range — impossible for any realizable tree"
        );
        if is_left {
            self.left_height.store(h as i8, Ordering::Relaxed);
        } else {
            self.right_height.store(h as i8, Ordering::Relaxed);
        }
    }

    /// Loads the `is_left` child.
    #[inline]
    pub(crate) fn child<'g>(&self, is_left: bool, g: &'g Guard) -> Shared<'g, Node<K, V>> {
        if is_left {
            self.left.load(Ordering::Acquire, g)
        } else {
            self.right.load(Ordering::Acquire, g)
        }
    }

    /// Whether this node is logically removed (either flavor). Lock-free
    /// callers: `Acquire` pairs with the `Release` flag stores so a revive's
    /// value swap is visible once `zombie` reads false (see module docs).
    #[inline]
    pub(crate) fn is_removed(&self) -> bool {
        self.mark.load(Ordering::Acquire) || self.zombie.load(Ordering::Acquire)
    }
}

/// Instrumented lock acquire/release wrappers — the **single enforcement
/// point** of the §5.1 lock-ordering discipline. Every tree-algorithm lock
/// operation goes through one of these, which classify the acquisition for
/// the `lo-check` ledger (lock class, key rank, and how it may wait).
/// Without the `lockdep` feature they compile down to the raw operations.
impl<K: std::any::Any + Copy, V> Node<K, V> {
    /// This node's key rank for the rule-2 (ascending succ-lock order)
    /// check. Free when the ledger is compiled out.
    #[inline]
    fn ldep_rank(&self) -> lo_check::Rank {
        if !lo_check::lockdep::ENABLED {
            return lo_check::Rank::Opaque;
        }
        match &self.key {
            Bound::NegInf => lo_check::Rank::NegInf,
            Bound::Key(k) => lo_check::lockdep::rank_of_key(k),
            Bound::PosInf => lo_check::Rank::PosInf,
        }
    }

    /// Blocking acquire of this node's `succLock` (rules 1 and 2 apply).
    #[inline]
    pub(crate) fn lock_succ(&self) {
        self.succ_lock.lock_traced(
            lo_check::LockClass::Succ,
            self.ldep_rank(),
            lo_check::AcquireHow::Block,
        );
    }

    /// Non-blocking acquire of this node's `succLock`.
    #[inline]
    pub(crate) fn try_lock_succ(&self) -> bool {
        self.succ_lock.try_lock_traced(lo_check::LockClass::Succ, self.ldep_rank())
    }

    /// Release of this node's `succLock`.
    #[inline]
    pub(crate) fn unlock_succ(&self) {
        self.succ_lock.unlock_traced();
    }

    /// Blocking acquire of this node's `treeLock` anchoring a fresh chain:
    /// rule 3 requires that no other tree lock is held.
    #[inline]
    pub(crate) fn lock_tree(&self) {
        self.tree_lock.lock_traced(
            lo_check::LockClass::Tree,
            self.ldep_rank(),
            lo_check::AcquireHow::Block,
        );
    }

    /// Blocking acquire of this node's `treeLock` as part of an *upward*
    /// hand-over-hand walk (`lockParent`): permitted by rule 3 while tree
    /// locks below are held.
    #[inline]
    pub(crate) fn lock_tree_upward(&self) {
        self.tree_lock.lock_traced(
            lo_check::LockClass::Tree,
            self.ldep_rank(),
            lo_check::AcquireHow::BlockUpward,
        );
    }

    /// Non-blocking acquire of this node's `treeLock` (the only legal way
    /// to take a tree lock *below* one already held).
    #[inline]
    pub(crate) fn try_lock_tree(&self) -> bool {
        // Fault injection: a forced failure here feeds the paper's restart
        // loops exactly as a lost `try_lock` race would (no-op by default).
        if crate::fp::should_fail(crate::fp::FailPoint::TreeTryLock) {
            return false;
        }
        self.tree_lock.try_lock_traced(lo_check::LockClass::Tree, self.ldep_rank())
    }

    /// Release of this node's `treeLock`.
    #[inline]
    pub(crate) fn unlock_tree(&self) {
        self.tree_lock.unlock_traced();
    }
}

impl<K, V> Drop for Node<K, V> {
    fn drop(&mut self) {
        // SAFETY: [inv:unprotected-quiescent] we have exclusive access (epoch
        // reclamation or tree teardown), so an unprotected guard is sound here.
        let g = unsafe { lo_reclaim::unprotected() };
        let v = self.value.swap(Shared::null(), Ordering::Relaxed, g);
        if !v.is_null() {
            // SAFETY: [inv:unique-owner] the value pointer was created by
            // `Owned::new` and is uniquely owned by this node at drop time.
            drop(unsafe { v.into_owned() });
        }
        if let Bound::Key(_) = self.key {
            // SAFETY: [inv:inline-value] a key node's cell was initialised by
            // `new_key`, and this is its one drop, whether the value is
            // current or was displaced by a swap.
            unsafe { self.inline.assume_init_drop() };
        }
    }
}

/// Dereference helper for epoch-protected node pointers.
///
/// # Safety contract (met by construction)
/// Nodes are freed exclusively via deferred reclamation (the arena's slot
/// recycle) after unlinking, so any non-null `Shared` obtained under a live
/// `Guard` points to a live node.
#[inline]
pub(crate) fn nref<'g, K, V>(s: Shared<'g, Node<K, V>>) -> &'g Node<K, V> {
    debug_assert!(!s.is_null(), "nref on null node pointer");
    // SAFETY: [inv:epoch-liveness] see the contract above — `s` was obtained under
    // a live guard, and unlinked nodes are only freed after all guards retire.
    unsafe { s.deref() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::Bound;
    use crate::domain::EpochDomain;
    use crate::tree::LoTree;
    use lo_reclaim::Owned;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn sentinel_layout() {
        let g = lo_reclaim::pin();
        let n = Owned::new(Node::<i64, u64>::sentinel(Bound::PosInf)).into_shared(&g);
        let r = nref(n);
        assert!(r.left.load(Ordering::Relaxed, &g).is_null());
        assert!(r.value_ref(&g).is_none());
        assert_eq!(r.bf(), 0);
        assert!(!r.is_removed());
        // SAFETY: the node was never published; this test uniquely owns it.
        unsafe { g.defer_destroy(n) };
    }

    #[test]
    fn key_node_owns_value() {
        let g = lo_reclaim::pin();
        let n = Owned::new(Node::new_key(5i64, String::from("hello"))).into_shared(&g);
        let r = nref(n);
        assert!(r.key.is_key(&5));
        assert!(r.value.load(Ordering::Acquire, &g).is_null(), "no box until a swap");
        assert_eq!(r.value_ref(&g).map(String::as_str), Some("hello"));
        // Dropping the node must free the value (checked by miri/asan runs;
        // here we just exercise the path).
        // SAFETY: the node was never published; this test uniquely owns it.
        drop(unsafe { n.into_owned() });
    }

    #[test]
    fn heights_accessors() {
        let n = Node::<i64, u64>::new_key(1, 2);
        n.set_height(true, 3);
        n.set_height(false, 1);
        assert_eq!(n.height(true), 3);
        assert_eq!(n.height(false), 1);
        assert_eq!(n.bf(), 2);
        assert_eq!(n.subtree_height(), 4);
    }

    /// Runtime companion to the `const` layout assertions: pins the exact
    /// hot-field offsets of the benchmark configuration so an accidental
    /// field reorder (which `repr(C)` would silently accept) fails loudly.
    #[test]
    fn hot_half_layout_pinned() {
        use std::mem::{offset_of, size_of};
        type N = Node<u64, u64>;
        assert_eq!(offset_of!(N, key), 0);
        assert_eq!(offset_of!(N, left), 16);
        assert_eq!(offset_of!(N, right), 24);
        assert_eq!(offset_of!(N, succ), 32);
        assert_eq!(offset_of!(N, pred), 40);
        assert_eq!(offset_of!(N, value), 48);
        assert_eq!(offset_of!(N, mark), 56);
        assert_eq!(offset_of!(N, zombie), 57);
        assert!(offset_of!(N, parent) >= 64, "cold half must start on line 2");
        // After the two locks, which carry a u64 ledger id under lockdep.
        assert_eq!(offset_of!(N, inline), if cfg!(feature = "lockdep") { 112 } else { 80 });
        assert_eq!(size_of::<N>(), 128);
    }

    /// A `String` value that counts its own drops in `drops`. A clone (what
    /// `put` returns) counts in a fresh counter, so `drops` counts only
    /// this value.
    struct Tracked {
        text: String,
        drops: Arc<AtomicUsize>,
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Self { text: self.text.clone(), drops: Arc::default() }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A reader that borrowed a key's inline value keeps it through two
    /// puts: the first displaces the inline value, the second its boxed
    /// successor. The box is freed after its grace period, the inline value
    /// only with its node; each is dropped exactly once. CI runs this under
    /// Miri, which would see a use after free or a double drop.
    #[test]
    fn a_reader_keeps_a_displaced_value() {
        let drops: [Arc<AtomicUsize>; 3] = Default::default();
        let value =
            |i: usize, text: &str| Tracked { text: text.into(), drops: Arc::clone(&drops[i]) };
        let count = |i: usize| drops[i].load(Ordering::Relaxed);
        let domain = EpochDomain::new();
        {
            let t = LoTree::new_in(true, false, domain.clone());
            assert!(t.insert(7i64, value(0, "first")));
            let seen = t.get_with(&7, |v| {
                let old = t.put(7, value(1, "second"));
                assert_eq!(old.map(|o| o.text.clone()).as_deref(), Some("first"));
                let old = t.put(7, value(2, "third"));
                assert_eq!(old.map(|o| o.text.clone()).as_deref(), Some("second"));
                v.text.clone()
            });
            assert_eq!(seen.as_deref(), Some("first"));
            assert_eq!(t.get(&7).map(|v| v.text.clone()).as_deref(), Some("third"));
            for _ in 0..64 {
                if count(1) == 1 {
                    break;
                }
                domain.pin().flush();
            }
            assert_eq!(count(1), 1, "the displaced box is freed after its grace period");
            assert_eq!(count(0), 0, "the displaced inline value lives as long as its node");
        }
        assert_eq!([count(0), count(1), count(2)], [1, 1, 1]);
    }
}
