//! Public map types: the four members of the logical-ordering family.

use crate::invariants::InvariantReport;
use crate::tree::LoTree;
use lo_api::{
    CheckInvariants, ConcurrentMap, FallibleMap, Health, Key, OrderedRead, QuiescentOrdered,
    RecoverError, RecoveryReport, TreeError, Value,
};

macro_rules! define_map {
    (
        $(#[$doc:meta])*
        $name:ident, balanced = $balanced:expr, partially_external = $pe:expr,
        label = $label:expr
    ) => {
        $(#[$doc])*
        pub struct $name<K: Key, V: Value> {
            tree: LoTree<K, V>,
        }

        impl<K: Key, V: Value> $name<K, V> {
            /// Creates an empty map (two-sentinel initial tree).
            pub fn new() -> Self {
                Self { tree: LoTree::new($balanced, $pe) }
            }

            /// Creates an empty map born into `domain`: every epoch guard
            /// the map pins comes from that domain's collector, so its
            /// grace periods are independent of the process-global epoch
            /// (and of every other domain). [`Self::new`] is
            /// `new_in(EpochDomain::global())`. The node arena is per-map
            /// either way; this parameterizes the reclamation authority
            /// too, which is what lets a sharded store give each shard its
            /// own collector (ISSUE 10).
            pub fn new_in(domain: crate::domain::EpochDomain) -> Self {
                Self { tree: LoTree::new_in($balanced, $pe, domain) }
            }

            /// The epoch domain this map's guards pin (see
            /// [`EpochDomain::is_same_domain`](crate::EpochDomain)).
            pub fn epoch_domain(&self) -> &crate::domain::EpochDomain {
                &self.tree.domain
            }

            /// Inserts `key -> value` if absent; `true` on success.
            /// Lock-free traversal, then interval-lock synchronization
            /// (paper Algorithm 3).
            pub fn insert(&self, key: K, value: V) -> bool {
                self.tree.insert(key, value)
            }

            /// Removes `key`; `true` if it was present (paper Algorithm 7).
            pub fn remove(&self, key: &K) -> bool {
                self.tree.remove(key)
            }

            /// Insert-or-replace: maps `key` to `value` and returns the
            /// previous value, if any (`None` also when reviving a
            /// logically-removed zombie in the partially-external variants).
            ///
            /// A key's first value lives inside its node; a replacement is
            /// boxed. The value a replacement displaces is dropped once no
            /// pinned reader can hold it: a box after the epoch's grace
            /// period, but the first value only when its node is freed,
            /// after the key is removed or the map dropped.
            pub fn put(&self, key: K, value: V) -> Option<V>
            where
                V: Clone,
            {
                self.tree.put(key, value)
            }

            /// Lock-free membership test (paper Algorithm 2): never blocks,
            /// never restarts, regardless of concurrent rotations/removals.
            pub fn contains(&self, key: &K) -> bool {
                self.tree.contains(key)
            }

            /// The naive layout-only lookup of the paper's Figure 1 — **not
            /// linearizable** under concurrent updates (it can miss present
            /// keys). Exposed solely for the `figure1_demo` example and the
            /// motivation ablation; use [`Self::contains`].
            #[doc(hidden)]
            pub fn contains_layout_only(&self, key: &K) -> bool {
                self.tree.contains_layout_only(key)
            }

            /// Lock-free value clone.
            pub fn get(&self, key: &K) -> Option<V>
            where
                V: Clone,
            {
                self.tree.get(key)
            }

            /// Lock-free value read through a closure (no clone needed).
            /// `f` runs while the read holds this map's epoch pin, under
            /// the precondition of [`Self::scan_range`]'s callback: an
            /// infallible write from `f` panics if the map is recovering.
            pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
                self.tree.get_with(key, f)
            }

            /// Smallest key (paper §4.7), O(1) expected.
            pub fn min_key(&self) -> Option<K> {
                self.tree.min_key()
            }

            /// Largest key (paper §4.7), O(1) expected.
            pub fn max_key(&self) -> Option<K> {
                self.tree.max_key()
            }

            /// Ascending key snapshot via the ordering layout (paper §4.7).
            pub fn keys_in_order(&self) -> Vec<K> {
                self.tree.keys_in_order()
            }

            /// Smallest live key ≥ `key` (lock-free; extension of §4.7).
            pub fn ceiling_key(&self, key: &K) -> Option<K> {
                self.tree.ceiling_key(key)
            }

            /// Largest live key ≤ `key` (lock-free; extension of §4.7).
            pub fn floor_key(&self, key: &K) -> Option<K> {
                self.tree.floor_key(key)
            }

            /// Ascending snapshot of the live keys in `range` (a cursor walk
            /// over the succ chain; precise at quiescence, best-effort
            /// consistent under concurrency).
            pub fn range_keys(&self, range: std::ops::RangeInclusive<K>) -> Vec<K> {
                self.tree.range_keys(range)
            }

            /// Streams every live key in `range` (ascending, strictly
            /// increasing) into `f` without materialising the result.
            /// Lock-free: runs concurrently with any mix of updates, skips
            /// removed nodes, and re-pins its epoch guard in chunks so long
            /// scans never stall reclamation. Not an atomic snapshot — each
            /// yielded key was live at the instant it was observed.
            ///
            /// `f` runs while the scan holds this map's epoch pin. It may
            /// read and write the map, but must not wait for another
            /// thread's recovery of this map: recovery waits for a grace
            /// period, which would wait on the caller's own pin. So an
            /// infallible write from `f` ([`Self::insert`], [`Self::put`],
            /// [`Self::remove`], the pops) panics if the map is recovering
            /// instead of waiting as it does elsewhere, the `try_*` writes
            /// return [`TreeError::Recovering`], and [`Self::try_recover`]
            /// called from `f` declines with [`RecoverError::Pinned`].
            pub fn scan_range(
                &self,
                range: std::ops::RangeInclusive<K>,
                f: impl FnMut(K),
            ) {
                self.tree.scan_range(range, f)
            }

            /// A lock-free ascending cursor over the live keys in `range`
            /// (any `RangeBounds`, `..` for the whole map): the iterator
            /// [`Self::scan_range`] is built on, for callers that pull keys
            /// at their own pace or interleave several cursors. Pins this
            /// map's epoch domain until dropped; see
            /// [`RangeCursor`](crate::RangeCursor).
            pub fn range_cursor(
                &self,
                range: impl std::ops::RangeBounds<K>,
            ) -> crate::RangeCursor<'_, K, V> {
                crate::RangeCursor::new(&self.tree, range)
            }

            /// Streams all live keys in ascending order into `f` (see
            /// [`Self::scan_range`] for the concurrency contract).
            pub fn for_each_in_order(&self, f: impl FnMut(K)) {
                self.tree.for_each_in_order(f)
            }

            /// Number of live keys in `range`: one streaming cursor pass,
            /// no allocation.
            pub fn range_count(&self, range: std::ops::RangeInclusive<K>) -> usize {
                self.tree.range_count(range)
            }

            /// Atomically removes and returns the smallest entry. Like
            /// [`Self::remove`] it waits out a recovery, but panics instead
            /// when called from a [`Self::scan_range`] or
            /// [`Self::get_with`] callback (see [`Self::scan_range`]).
            pub fn pop_min(&self) -> Option<(K, V)>
            where
                V: Clone,
            {
                self.tree.pop_min()
            }

            /// Atomically removes and returns the largest entry; the same
            /// recovery precondition as [`Self::pop_min`].
            pub fn pop_max(&self) -> Option<(K, V)>
            where
                V: Clone,
            {
                self.tree.pop_max()
            }

            /// Number of live keys. Walks the ordering chain: O(n), intended
            /// for quiescent use (tests, reporting).
            pub fn len(&self) -> usize {
                self.tree.len_quiescent()
            }

            /// Whether the map holds no live keys.
            pub fn is_empty(&self) -> bool {
                self.min_key().is_none()
            }

            /// Nodes physically present in the tree layout (quiescent use;
            /// includes zombies in partially-external mode).
            pub fn physical_node_count(&self) -> usize {
                self.tree.physical_node_count()
            }

            /// Logically-deleted nodes still occupying the tree (always 0 for
            /// the fully-internal variants).
            pub fn zombie_count(&self) -> usize {
                self.tree.zombie_count()
            }

            /// Runs the full quiescent invariant check (panicking on any
            /// violation) and returns a census of the validated structure —
            /// live keys, zombies, physical nodes. Must only be called while
            /// no other thread operates on the map.
            pub fn check_invariants_report(&self) -> InvariantReport {
                self.tree.check_invariants_quiescent()
            }

            /// Fallible [`Self::insert`]: rejects the write with
            /// [`TreeError::Poisoned`] after a writer death, or
            /// [`TreeError::AllocFailed`] (no effect, retryable) when node
            /// allocation fails. The node's arena slot, which also holds
            /// the value, is an insert's only allocation; only reviving a
            /// zombie (partially-external variants) boxes the value, and
            /// that allocation aborts on OOM, as in [`Self::try_put`].
            pub fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
                self.tree.try_insert(key, value)
            }

            /// Fallible [`Self::remove`] (see [`Self::try_insert`]).
            pub fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
                self.tree.try_remove(key)
            }

            /// Fallible [`Self::put`] (see [`Self::try_insert`]). On a
            /// present key it still boxes the replacement (see
            /// [`Self::put`]), and that allocation aborts on OOM.
            pub fn try_put(&self, key: K, value: V) -> Result<Option<V>, TreeError>
            where
                V: Clone,
            {
                self.tree.try_put(key, value)
            }

            /// Current poison state: `None` while healthy, `Some(error)` once
            /// a writer death has poisoned the tree. Reads stay correct on a
            /// poisoned map; writes are rejected.
            pub fn poisoned(&self) -> Option<TreeError> {
                self.tree.poison_error()
            }

            /// Writability state: healthy, poisoned (with its cause), or
            /// currently being recovered. Reads work in every state.
            pub fn health(&self) -> Health {
                self.tree.health()
            }

            /// Takes a poisoned map back to fully writable, **online**:
            /// quarantines writers behind the gate (lock-free reads keep
            /// running), audits the damage against the surviving ordering
            /// chain, rebuilds the physical layout if needed, verifies the
            /// full invariant set, and only then re-opens the gate with a
            /// bumped recovery generation. Returns a [`RecoveryReport`]
            /// post-mortem, or declines with [`RecoverError::NotPoisoned`] /
            /// [`RecoverError::Busy`] / [`RecoverError::VerifyFailed`] /
            /// [`RecoverError::Pinned`].
            pub fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
                self.tree.try_recover()
            }

            /// Monotone recovery generation: 0 as constructed, +1 per
            /// successful [`Self::try_recover`].
            pub fn recovery_generation(&self) -> u32 {
                self.tree.recovery_generation()
            }
        }

        impl<K: Key, V: Value> Default for $name<K, V> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<K: Key, V: Value> ConcurrentMap<K, V> for $name<K, V> {
            fn insert(&self, key: K, value: V) -> bool {
                $name::insert(self, key, value)
            }
            fn remove(&self, key: &K) -> bool {
                $name::remove(self, key)
            }
            fn contains(&self, key: &K) -> bool {
                $name::contains(self, key)
            }
            fn get(&self, key: &K) -> Option<V>
            where
                V: Clone,
            {
                $name::get(self, key)
            }
            fn name(&self) -> &'static str {
                $label
            }
        }

        impl<K: Key, V: Value> FallibleMap<K, V> for $name<K, V> {
            fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
                $name::try_insert(self, key, value)
            }
            fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
                $name::try_remove(self, key)
            }
            fn poisoned(&self) -> Option<TreeError> {
                $name::poisoned(self)
            }
            fn health(&self) -> Health {
                $name::health(self)
            }
            fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
                $name::try_recover(self)
            }
        }

        impl<K: Key, V: Value> OrderedRead<K> for $name<K, V> {
            fn min_key(&self) -> Option<K> {
                $name::min_key(self)
            }
            fn max_key(&self) -> Option<K> {
                $name::max_key(self)
            }
            fn ceiling_key(&self, key: &K) -> Option<K> {
                $name::ceiling_key(self, key)
            }
            fn floor_key(&self, key: &K) -> Option<K> {
                $name::floor_key(self, key)
            }
            fn scan_range(
                &self,
                range: std::ops::RangeInclusive<K>,
                f: &mut dyn FnMut(K),
            ) {
                $name::scan_range(self, range, |k| f(k))
            }
            fn range_count(&self, range: std::ops::RangeInclusive<K>) -> usize {
                $name::range_count(self, range)
            }
            fn range_keys(&self, range: std::ops::RangeInclusive<K>) -> Vec<K> {
                $name::range_keys(self, range)
            }
        }

        impl<K: Key, V: Value> QuiescentOrdered<K> for $name<K, V> {
            fn keys_in_order(&self) -> Vec<K> {
                $name::keys_in_order(self)
            }
        }

        impl<K: Key, V: Value> CheckInvariants for $name<K, V> {
            fn check_invariants(&self) {
                self.tree.check_invariants_quiescent();
            }
        }

        impl<K: Key, V: Value> std::fmt::Debug for $name<K, V> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).field("len", &self.len()).finish()
            }
        }
    };
}

define_map! {
    /// The paper's headline data structure: a concurrent **relaxed-balance
    /// AVL tree with logical ordering** — lock-free `contains`, on-time
    /// deletion (every removal physically removes the node at once, even
    /// with two children), and rotations that require no synchronization
    /// with lookups.
    LoAvlMap, balanced = true, partially_external = false, label = "lo-avl"
}

define_map! {
    /// The paper's **unbalanced** logical-ordering BST (§4.6): same
    /// ordering-layout synchronization and lock-free `contains`, no
    /// rebalancing. Expected-logarithmic depth under uniform keys.
    LoBstMap, balanced = false, partially_external = false, label = "lo-bst"
}

define_map! {
    /// The paper's **"logical removing"** variant (§6) of the AVL tree: a
    /// partially-external tree where removing a node with two children only
    /// flags it as a zombie; a later insert may revive it, and physical
    /// removal happens once it drops to one child. Trades memory (zombies)
    /// for fewer relocations/allocations under update-heavy loads.
    LoPeAvlMap, balanced = true, partially_external = true, label = "lo-avl-pe"
}

define_map! {
    /// Unbalanced partially-external variant ("logical removing" applied to
    /// the plain BST) — the second of "our trees" in the paper's Table 2.
    LoPeBstMap, balanced = false, partially_external = true, label = "lo-bst-pe"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic_ops<M: ConcurrentMap<i64, u64> + CheckInvariants>(m: &M) {
        assert!(!m.contains(&5));
        assert!(m.insert(5, 50));
        assert!(!m.insert(5, 51), "duplicate insert must fail");
        assert_eq!(m.get(&5), Some(50), "failed insert must not overwrite");
        assert!(m.contains(&5));
        assert!(m.insert(3, 30));
        assert!(m.insert(8, 80));
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert!(!m.contains(&5));
        assert!(m.contains(&3) && m.contains(&8));
        m.check_invariants();
    }

    #[test]
    fn basic_ops_all_variants() {
        basic_ops(&LoAvlMap::new());
        basic_ops(&LoBstMap::new());
        basic_ops(&LoPeAvlMap::new());
        basic_ops(&LoPeBstMap::new());
    }

    #[test]
    fn ordered_access() {
        let m = LoAvlMap::new();
        for k in [5i64, 1, 9, 3, 7] {
            assert!(m.insert(k, k as u64 * 10));
        }
        assert_eq!(m.min_key(), Some(1));
        assert_eq!(m.max_key(), Some(9));
        assert_eq!(m.keys_in_order(), vec![1, 3, 5, 7, 9]);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        m.check_invariants();
    }

    #[test]
    fn streaming_scans() {
        let m = LoBstMap::new();
        for k in [5i64, 1, 9, 3, 7] {
            assert!(m.insert(k, k as u64));
        }
        assert_eq!(m.ceiling_key(&4), Some(5));
        assert_eq!(m.floor_key(&4), Some(3));
        assert_eq!(m.range_keys(3..=7), vec![3, 5, 7]);
        assert_eq!(m.range_count(2..=8), 3);
        let mut seen = Vec::new();
        m.scan_range(1..=9, |k| seen.push(k));
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
        let mut all = Vec::new();
        m.for_each_in_order(|k| all.push(k));
        assert_eq!(all, m.keys_in_order());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(m.range_count(8..=2), 0, "inverted range is empty");
        }
        m.check_invariants();
    }

    #[test]
    fn put_replaces_and_inserts() {
        let m = LoAvlMap::new();
        assert_eq!(m.put(1i64, 10u64), None, "fresh key");
        assert_eq!(m.put(1, 11), Some(10), "replace returns old value");
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.len(), 1);
        assert!(m.remove(&1));
        assert_eq!(m.put(1, 12), None, "reinsert after removal");
        m.check_invariants();
    }

    #[test]
    fn put_revives_zombie_without_old_value() {
        let m = LoPeAvlMap::new();
        for k in [5i64, 3, 8] {
            assert!(m.insert(k, k as u64));
        }
        assert!(m.remove(&5)); // two children → zombie
        assert_eq!(m.zombie_count(), 1);
        assert_eq!(m.put(5, 99), None, "revive counts as fresh insert");
        assert_eq!(m.get(&5), Some(99));
        assert_eq!(m.zombie_count(), 0);
        m.check_invariants();
    }

    #[test]
    fn concurrent_puts_last_writer_wins() {
        let m = LoBstMap::new();
        assert!(m.insert(7i64, 0u64));
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        m.put(7, t * 1_000_000 + i);
                    }
                });
            }
        });
        let v = m.get(&7).expect("key stays present");
        // Final value must be some thread's *last* write.
        assert!(
            (1..=4).any(|t| v == t * 1_000_000 + 4_999),
            "unexpected final value {v}"
        );
        m.check_invariants();
    }

    #[test]
    fn get_with_avoids_clone() {
        let m = LoBstMap::new();
        assert!(m.insert(1i64, String::from("abc")));
        assert_eq!(m.get_with(&1, |s| s.len()), Some(3));
        assert_eq!(m.get_with(&2, |s| s.len()), None);
    }

    #[test]
    fn pe_zombie_lifecycle() {
        let m = LoPeBstMap::new();
        // Build a node with two children: 5 with children 3 and 8.
        assert!(m.insert(5i64, 0u64));
        assert!(m.insert(3, 0));
        assert!(m.insert(8, 0));
        // 5 is the root of this subtree with two children → zombie removal.
        assert!(m.remove(&5));
        assert!(!m.contains(&5));
        assert_eq!(m.zombie_count(), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m.physical_node_count(), 3, "zombie stays in the layout");
        // Revive.
        assert!(m.insert(5, 99));
        assert_eq!(m.get(&5), Some(99));
        assert_eq!(m.zombie_count(), 0);
        m.check_invariants();
    }

    #[test]
    fn fallible_api_on_healthy_map() {
        let m = LoAvlMap::new();
        assert_eq!(m.poisoned(), None);
        assert_eq!(m.try_insert(1i64, 10u64), Ok(true));
        assert_eq!(m.try_insert(1, 11), Ok(false));
        assert_eq!(m.try_put(1, 12), Ok(Some(10)));
        assert_eq!(m.try_remove(&1), Ok(true));
        assert_eq!(m.try_remove(&1), Ok(false));
        assert_eq!(m.poisoned(), None);
        m.check_invariants();
    }

    #[test]
    fn recovery_surface_round_trip_all_variants() {
        fn round_trip<M, F>(m: &M, poison: F)
        where
            M: FallibleMap<i64, u64> + CheckInvariants,
            F: FnOnce(),
        {
            assert_eq!(m.health(), Health::Writable);
            assert!(m.try_insert(1, 10).unwrap());
            assert!(m.try_insert(2, 20).unwrap());
            poison();
            assert!(matches!(m.health(), Health::Poisoned(_)));
            assert!(m.try_insert(3, 30).is_err());
            let report = m.try_recover().expect("undamaged poison must recover");
            assert_eq!(report.generation, 1);
            assert_eq!(m.health(), Health::Writable);
            assert!(m.try_insert(3, 30).unwrap());
            m.check_invariants();
            assert_eq!(m.try_recover().err(), Some(RecoverError::NotPoisoned));
        }
        let a = LoAvlMap::new();
        round_trip(&a, || a.tree.gate.poison(crate::poison::CODE_RESTART_STORM));
        let b = LoBstMap::new();
        round_trip(&b, || b.tree.gate.poison(crate::poison::CODE_RESTART_STORM));
        let c = LoPeAvlMap::new();
        round_trip(&c, || c.tree.gate.poison(crate::poison::CODE_RESTART_STORM));
        let d = LoPeBstMap::new();
        round_trip(&d, || d.tree.gate.poison(crate::poison::CODE_RESTART_STORM));
    }

    #[test]
    fn maps_born_into_private_domains() {
        use crate::domain::EpochDomain;
        let d = EpochDomain::new();
        let m = LoAvlMap::new_in(d.clone());
        assert!(m.epoch_domain().is_same_domain(&d));
        assert!(!m.epoch_domain().is_same_domain(&EpochDomain::global()));
        // The default constructor stays on the global domain.
        let g = LoBstMap::<i64, u64>::new();
        assert!(g.epoch_domain().is_global());
        // Full lifecycle in a private domain: insert, scan, remove, drop.
        for k in 0..256i64 {
            assert!(m.insert(k, k as u64));
        }
        assert_eq!(m.range_count(0..=255), 256);
        for k in 0..256i64 {
            assert!(m.remove(&k));
        }
        assert_eq!(m.physical_node_count(), 0, "on-time deletion holds per-domain");
        m.check_invariants();
        drop(m);
        // The domain handle outlives the map without incident.
        let _late_guard = d.pin();
    }

    #[test]
    fn on_time_deletion_frees_layout() {
        let m = LoAvlMap::new();
        for k in 0..64i64 {
            assert!(m.insert(k, k as u64));
        }
        for k in 0..64i64 {
            assert!(m.remove(&k));
        }
        assert_eq!(m.len(), 0);
        assert_eq!(
            m.physical_node_count(),
            0,
            "on-time deletion: no zombies may remain"
        );
        m.check_invariants();
    }
}
