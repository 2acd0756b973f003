//! The sharded store: N logical-ordering trees behind one map surface.
//!
//! Each shard is a full tree born into its **own epoch domain**
//! ([`lo_core::EpochDomain`]), so a slow scan pinned on one shard delays
//! reclamation only there — grace periods never couple across shards. The
//! [`Partitioner`] fixes each key's home shard for the store's lifetime,
//! which is what makes the composition linearizable for point operations:
//! every operation on key *k* runs on exactly one tree, and that tree's own
//! linearization order is the store's order for *k*.
//!
//! Cross-shard range scans need **no global lock**: the per-shard cursors
//! are already lock-free and strictly ascending, and keys never move
//! between shards, so a k-way merge of one cursor per covered shard yields
//! one strictly ascending stream with the same per-key liveness guarantee
//! the single tree gives — each yielded key was live at the instant its
//! shard's cursor observed it. The merge first steps the covered cursors'
//! seeks in lock-step, one tree level each per round, so the shards'
//! descent misses overlap. It then advances only the cursor whose head it
//! just emitted, and each cursor prefetches its next chain node when it
//! yields, so the shards' chain misses overlap too instead of queueing
//! (DESIGN.md §19.3).

use crate::router::{HashPartitioner, Partitioner, RangePartitioner, ShardRouter, MAX_SHARDS};
use lo_api::{
    CheckInvariants, ConcurrentMap, FallibleMap, Health, Key, OrderedRead, QuiescentOrdered,
    RecoverError, RecoveryReport, TreeError, Value,
};
use lo_core::{EpochDomain, LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap, RangeCursor};
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{Bound, Range, RangeBounds, RangeInclusive};

/// What the store needs from a shard beyond the shared map traits: being
/// born into a caller-supplied epoch domain, and the quiescent census /
/// recovery accessors the store aggregates. Implemented by all four
/// `lo-core` map variants.
pub trait ShardMap<K: Key, V: Value>:
    ConcurrentMap<K, V>
    + FallibleMap<K, V>
    + OrderedRead<K>
    + QuiescentOrdered<K>
    + CheckInvariants
    + 'static
{
    /// Constructs an empty shard whose guards pin `domain`.
    fn new_in_domain(domain: EpochDomain) -> Self;

    /// The domain this shard pins (clones share the domain).
    fn domain(&self) -> EpochDomain;

    /// A lock-free ascending cursor over the shard's live keys in `range`;
    /// pins the shard's domain until dropped.
    fn range_cursor(&self, range: impl RangeBounds<K>) -> RangeCursor<'_, K, V>;

    /// Monotone per-shard recovery generation (0 as constructed).
    fn recovery_generation(&self) -> u32;

    /// Nodes physically present in the layout (quiescent use).
    fn physical_node_count(&self) -> usize;

    /// Logically-deleted nodes still occupying the layout (quiescent use).
    fn zombie_count(&self) -> usize;

    /// Live key count (quiescent use).
    fn len(&self) -> usize;

    /// Whether the shard holds no live keys (quiescent use).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

macro_rules! impl_shard_map {
    ($($map:ident),+ $(,)?) => {$(
        impl<K: Key, V: Value> ShardMap<K, V> for $map<K, V> {
            fn new_in_domain(domain: EpochDomain) -> Self {
                $map::new_in(domain)
            }
            fn domain(&self) -> EpochDomain {
                self.epoch_domain()
            }
            fn range_cursor(&self, range: impl RangeBounds<K>) -> RangeCursor<'_, K, V> {
                $map::range_cursor(self, range)
            }
            fn recovery_generation(&self) -> u32 {
                $map::recovery_generation(self)
            }
            fn physical_node_count(&self) -> usize {
                $map::physical_node_count(self)
            }
            fn zombie_count(&self) -> usize {
                $map::zombie_count(self)
            }
            fn len(&self) -> usize {
                $map::len(self)
            }
        }
    )+};
}

impl_shard_map!(LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap);

/// N logical-ordering trees composed into one
/// [`ConcurrentMap`]/[`FallibleMap`]/[`OrderedRead`] instance (module docs
/// for the protocol). Defaults: AVL shards, hash routing.
pub struct ShardedStore<
    K: Key,
    V: Value,
    M: ShardMap<K, V> = LoAvlMap<K, V>,
    P: Partitioner<K> = HashPartitioner<K>,
> {
    router: ShardRouter<K, P>,
    shards: Vec<M>,
    /// The registered domain of each shard, kept alongside so the store
    /// (and the batched frontend) can debug-assert an operation executes
    /// under its own shard's epoch and not a neighbour's.
    domains: Vec<EpochDomain>,
    _v: PhantomData<fn(V)>,
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> ShardedStore<K, V, M, P> {
    /// Builds a store routed by `partitioner`, constructing one shard per
    /// partition, each born into a **fresh private epoch domain**.
    pub fn with_partitioner(partitioner: P) -> Self {
        let router = ShardRouter::new(partitioner);
        let n = router.n_shards();
        debug_assert!(n <= MAX_SHARDS);
        let mut shards = Vec::with_capacity(n);
        let mut domains = Vec::with_capacity(n);
        for _ in 0..n {
            let domain = EpochDomain::new();
            shards.push(M::new_in_domain(domain.clone()));
            domains.push(domain);
        }
        Self { router, shards, domains, _v: PhantomData }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &K) -> usize {
        self.router.shard_of(key)
    }

    /// Borrows shard `i` (panics out of bounds).
    pub fn shard(&self, i: usize) -> &M {
        &self.shards[i]
    }

    /// The epoch domain shard `i` was born into.
    pub fn domain_of(&self, i: usize) -> &EpochDomain {
        &self.domains[i]
    }

    /// The routing front door.
    pub fn router(&self) -> &ShardRouter<K, P> {
        &self.router
    }

    /// Routes `key` to its shard, debug-asserting the shard still pins the
    /// domain it was registered with (catches cross-shard guard mix-ups).
    fn route(&self, key: &K) -> &M {
        let i = self.router.shard_of(key);
        let shard = &self.shards[i];
        debug_assert!(
            shard.domain().is_same_domain(&self.domains[i]),
            "shard {i} drifted off its registered epoch domain"
        );
        shard
    }

    /// Inserts `key -> value` if absent; `true` on success. Panics if the
    /// owning shard is poisoned (use [`Self::try_insert`] to get an error).
    pub fn insert(&self, key: K, value: V) -> bool {
        ConcurrentMap::insert(self.route(&key), key, value)
    }

    /// Removes `key`; `true` if present. Panics on a poisoned owning shard.
    pub fn remove(&self, key: &K) -> bool {
        ConcurrentMap::remove(self.route(key), key)
    }

    /// Lock-free membership test; works in every health state.
    pub fn contains(&self, key: &K) -> bool {
        ConcurrentMap::contains(self.route(key), key)
    }

    /// Lock-free value clone; works in every health state.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        ConcurrentMap::get(self.route(key), key)
    }

    /// Fallible [`Self::insert`]: rejects with [`TreeError::Poisoned`] when
    /// the **owning shard** is unwritable; other shards are unaffected.
    pub fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
        FallibleMap::try_insert(self.route(&key), key, value)
    }

    /// Fallible [`Self::remove`] (see [`Self::try_insert`]).
    pub fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
        FallibleMap::try_remove(self.route(key), key)
    }

    /// First unwritable shard's error, if any shard is unwritable.
    pub fn poisoned(&self) -> Option<TreeError> {
        self.shards.iter().find_map(FallibleMap::poisoned)
    }

    /// Bitmask of unwritable shard indices (bit *i* ⇔ shard *i* poisoned or
    /// recovering). `0` means fully writable.
    pub fn degraded_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.poisoned().is_some() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Store health: [`Health::Writable`] when every shard accepts writes,
    /// otherwise [`Health::Degraded`] carrying the unwritable-shard mask.
    /// Reads work everywhere in either state.
    pub fn health(&self) -> Health {
        match self.degraded_mask() {
            0 => Health::Writable,
            shards => Health::Degraded { shards },
        }
    }

    /// Runs the online recovery protocol on shard `i` only (see
    /// [`FallibleMap::try_recover`] on the shard type). Healthy shards keep
    /// serving uninterrupted; even shard `i` keeps serving reads.
    pub fn try_recover_shard(&self, i: usize) -> Result<RecoveryReport, RecoverError> {
        self.shards[i].try_recover()
    }

    /// Recovers **every** poisoned shard, one at a time, and merges the
    /// per-shard post-mortems: counters are summed, `strategy` is the most
    /// invasive repair performed (the `max`), `cause` is the first
    /// recovered shard's, and `generation` is the store generation
    /// ([`Self::recovery_generation`]) after the pass, truncated to `u32`.
    /// Partial success is success: if at
    /// least one shard came back the merged report is returned and
    /// [`Self::health`] tells the caller what is still degraded; if none
    /// did, the first failure is returned.
    pub fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
        let mut merged: Option<RecoveryReport> = None;
        let mut first_err: Option<RecoverError> = None;
        for shard in &self.shards {
            if shard.poisoned().is_none() {
                continue;
            }
            match shard.try_recover() {
                Ok(report) => {
                    merged = Some(match merged.take() {
                        None => report,
                        Some(mut acc) => {
                            acc.strategy = acc.strategy.max(report.strategy);
                            acc.nodes_salvaged += report.nodes_salvaged;
                            acc.nodes_orphaned += report.nodes_orphaned;
                            acc.marks_completed += report.marks_completed;
                            acc.elapsed += report.elapsed;
                            acc
                        }
                    });
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match (merged, first_err) {
            (Some(mut report), _) => {
                report.generation = self.recovery_generation().min(u64::from(u32::MAX)) as u32;
                Ok(report)
            }
            (None, Some(e)) => Err(e),
            (None, None) => Err(RecoverError::NotPoisoned),
        }
    }

    /// Store recovery generation: the sum of every shard's generation.
    /// Strictly increases on each successful shard recovery.
    pub fn recovery_generation(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.recovery_generation())).sum()
    }

    /// Smallest key across all shards.
    pub fn min_key(&self) -> Option<K> {
        self.shards.iter().filter_map(OrderedRead::min_key).min()
    }

    /// Largest key across all shards.
    pub fn max_key(&self) -> Option<K> {
        self.shards.iter().filter_map(OrderedRead::max_key).max()
    }

    /// Smallest live key `>= key` across all shards.
    pub fn ceiling_key(&self, key: &K) -> Option<K> {
        self.shards.iter().filter_map(|s| s.ceiling_key(key)).min()
    }

    /// Largest live key `<= key` across all shards.
    pub fn floor_key(&self, key: &K) -> Option<K> {
        self.shards.iter().filter_map(|s| s.floor_key(key)).max()
    }

    /// Streams every live key in `range` strictly ascending into `f`: a
    /// k-way merge over one lock-free cursor per shard the router covers
    /// (module docs), in O(covered shards) extra memory for either routing.
    /// Emits one `store-cross-shard-scan-stitch` metric per switch of
    /// source shard mid-stream.
    ///
    /// `f` runs while every covered shard whose cursor is not yet exhausted
    /// holds an epoch pin. It may read and write the store, but must not
    /// block on another thread's recovery of a covered shard: recovery
    /// waits for a grace period in that shard's domain, which would wait on
    /// the caller's own pin. So an infallible write from `f` to a covered
    /// shard that is recovering panics instead of waiting, and for the same
    /// reason [`Self::try_recover`] and [`Self::try_recover_shard`] called
    /// from `f` decline such a shard with [`RecoverError::Pinned`].
    pub fn scan_range(&self, range: RangeInclusive<K>, f: impl FnMut(K)) {
        let (lo, hi) = range.into_inner();
        if lo > hi {
            return;
        }
        let cover = self.router.cover(&lo, &hi);
        self.merge(cover, lo, Bound::Included(hi), f);
    }

    /// Collects the live keys in `range`, ascending.
    pub fn range_keys(&self, range: RangeInclusive<K>) -> Vec<K> {
        let mut out = Vec::new();
        self.scan_range(range, |k| out.push(k));
        out
    }

    /// Number of live keys in `range`.
    pub fn range_count(&self, range: RangeInclusive<K>) -> usize {
        let mut n = 0;
        self.scan_range(range, |_| n += 1);
        n
    }

    /// All keys ascending (quiescent use): the scan merge over every shard,
    /// from the smallest key on.
    pub fn keys_in_order(&self) -> Vec<K> {
        let mut out = Vec::new();
        if let Some(lo) = self.min_key() {
            self.merge(0..self.n_shards(), lo, Bound::Unbounded, |k| out.push(k));
        }
        out
    }

    /// The one scan-stitch path over the window `lo..hi`: opens a cursor on
    /// each shard of `cover`, steps their seeks in lock-step until all have
    /// landed, takes each cursor's first key as its head, then repeatedly
    /// emits the smallest head and advances only that cursor. Heads are
    /// distinct (a key lives on one shard only) and each cursor ascends
    /// strictly, so the output ascends strictly. An exhausted cursor is
    /// dropped at once, releasing its shard's pin.
    fn merge(&self, cover: Range<usize>, lo: K, hi: Bound<K>, mut f: impl FnMut(K)) {
        struct Head<'s, K: Key, V: Value> {
            /// The cursor's next key; `lo` until its seek has landed.
            key: K,
            shard: usize,
            cursor: RangeCursor<'s, K, V>,
        }
        let range = (Bound::Included(lo), hi);
        let mut heads: Vec<_> = cover
            .map(|shard| Head { key: lo, shard, cursor: self.shards[shard].range_cursor(range) })
            .collect();
        // One level of every unlanded seek per round, so each level's
        // misses across the covered shards are in flight together.
        while heads.iter_mut().fold(false, |seeking, h| h.cursor.seek_step() | seeking) {}
        heads.retain_mut(|h| h.cursor.next().map(|key| h.key = key).is_some());
        let mut last_shard = None;
        while !heads.is_empty() {
            let min = (1..heads.len()).fold(0, |m, j| if heads[j].key < heads[m].key { j } else { m });
            let head = &mut heads[min];
            if last_shard.is_some_and(|s| s != head.shard) {
                lo_metrics::record(lo_metrics::Event::StoreCrossShardScanStitch);
            }
            last_shard = Some(head.shard);
            f(head.key);
            match head.cursor.next() {
                Some(key) => head.key = key,
                None => drop(heads.swap_remove(min)),
            }
        }
    }

    /// Live key count, summed over shards (quiescent use).
    pub fn len(&self) -> usize {
        self.shards.iter().map(ShardMap::len).sum()
    }

    /// Whether no shard holds a live key.
    pub fn is_empty(&self) -> bool {
        self.min_key().is_none()
    }

    /// Physical node count summed over shards (quiescent use).
    pub fn physical_node_count(&self) -> usize {
        self.shards.iter().map(ShardMap::physical_node_count).sum()
    }

    /// Zombie count summed over shards (quiescent use).
    pub fn zombie_count(&self) -> usize {
        self.shards.iter().map(ShardMap::zombie_count).sum()
    }

    /// Quiescent validation: every shard's own invariants, plus the
    /// store-level **routing invariant** — every key lives on exactly the
    /// shard the partitioner routes it to — and the per-shard epoch-domain
    /// registration. Panics on the first violation.
    pub fn check_invariants(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants();
            assert!(
                shard.domain().is_same_domain(&self.domains[i]),
                "shard {i} is not pinned to its registered epoch domain"
            );
            for k in shard.keys_in_order() {
                let home = self.router.shard_of(&k);
                assert!(
                    home == i,
                    "routing invariant violated: key {k:?} found on shard {i} \
                     but routes to shard {home}"
                );
            }
        }
    }
}

impl<K: Key + Hash, V: Value, M: ShardMap<K, V>> ShardedStore<K, V, M, HashPartitioner<K>> {
    /// An `n`-way hash-routed store (see [`HashPartitioner`]).
    pub fn hash_sharded(n: usize) -> Self {
        Self::with_partitioner(HashPartitioner::new(n))
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>> ShardedStore<K, V, M, RangePartitioner<K>> {
    /// A range-routed store with `splits.len() + 1` shards (see
    /// [`RangePartitioner`] for the boundary rule).
    pub fn range_sharded(splits: Vec<K>) -> Self {
        Self::with_partitioner(RangePartitioner::new(splits))
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> ConcurrentMap<K, V>
    for ShardedStore<K, V, M, P>
{
    fn insert(&self, key: K, value: V) -> bool {
        ShardedStore::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> bool {
        ShardedStore::remove(self, key)
    }
    fn contains(&self, key: &K) -> bool {
        ShardedStore::contains(self, key)
    }
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        ShardedStore::get(self, key)
    }
    fn name(&self) -> &'static str {
        "lo-store"
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> FallibleMap<K, V>
    for ShardedStore<K, V, M, P>
{
    fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
        ShardedStore::try_insert(self, key, value)
    }
    fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
        ShardedStore::try_remove(self, key)
    }
    fn poisoned(&self) -> Option<TreeError> {
        ShardedStore::poisoned(self)
    }
    fn health(&self) -> Health {
        ShardedStore::health(self)
    }
    fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
        ShardedStore::try_recover(self)
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> OrderedRead<K>
    for ShardedStore<K, V, M, P>
{
    fn min_key(&self) -> Option<K> {
        ShardedStore::min_key(self)
    }
    fn max_key(&self) -> Option<K> {
        ShardedStore::max_key(self)
    }
    fn ceiling_key(&self, key: &K) -> Option<K> {
        ShardedStore::ceiling_key(self, key)
    }
    fn floor_key(&self, key: &K) -> Option<K> {
        ShardedStore::floor_key(self, key)
    }
    fn scan_range(&self, range: std::ops::RangeInclusive<K>, f: &mut dyn FnMut(K)) {
        ShardedStore::scan_range(self, range, f)
    }
    fn range_count(&self, range: std::ops::RangeInclusive<K>) -> usize {
        ShardedStore::range_count(self, range)
    }
    fn range_keys(&self, range: std::ops::RangeInclusive<K>) -> Vec<K> {
        ShardedStore::range_keys(self, range)
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> QuiescentOrdered<K>
    for ShardedStore<K, V, M, P>
{
    fn keys_in_order(&self) -> Vec<K> {
        ShardedStore::keys_in_order(self)
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> CheckInvariants
    for ShardedStore<K, V, M, P>
{
    fn check_invariants(&self) {
        ShardedStore::check_invariants(self)
    }
}

impl<K: Key, V: Value, M: ShardMap<K, V>, P: Partitioner<K>> std::fmt::Debug
    for ShardedStore<K, V, M, P>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.n_shards())
            .field("health", &self.health())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type HashStore = ShardedStore<i64, u64>;
    type RangeStore = ShardedStore<i64, u64, LoAvlMap<i64, u64>, RangePartitioner<i64>>;

    #[test]
    fn point_ops_route_and_round_trip() {
        let s = HashStore::hash_sharded(4);
        assert_eq!(s.n_shards(), 4);
        for k in 0i64..256 {
            assert!(s.insert(k, k as u64 * 2));
        }
        assert!(!s.insert(7, 0), "duplicate insert must fail");
        assert_eq!(s.get(&7), Some(14), "failed insert must not overwrite");
        for k in 0i64..256 {
            assert!(s.contains(&k));
            assert_eq!(s.get(&k), Some(k as u64 * 2));
        }
        assert_eq!(s.len(), 256);
        assert!(s.remove(&7));
        assert!(!s.remove(&7));
        assert!(!s.contains(&7));
        s.check_invariants();
    }

    #[test]
    fn shards_live_in_distinct_private_domains() {
        let s = HashStore::hash_sharded(3);
        for i in 0..3 {
            assert!(!s.domain_of(i).is_global(), "shards must not share the global epoch");
            assert!(s.shard(i).domain().is_same_domain(s.domain_of(i)));
            for j in 0..3 {
                if i != j {
                    assert!(
                        !s.domain_of(i).is_same_domain(s.domain_of(j)),
                        "shards {i} and {j} must have independent grace periods"
                    );
                }
            }
        }
    }

    #[test]
    fn every_key_lives_on_its_routed_shard() {
        let s = HashStore::hash_sharded(5);
        for k in -500i64..500 {
            assert!(s.insert(k, 1));
        }
        // check_invariants asserts the routing invariant internally.
        s.check_invariants();
        let spread = (0..5).map(|i| s.shard(i).len()).collect::<Vec<_>>();
        assert_eq!(spread.iter().sum::<usize>(), 1000);
        assert!(spread.iter().all(|&n| n > 0), "1000 keys must touch all 5 shards: {spread:?}");
    }

    #[test]
    fn range_store_stitches_sequentially() {
        let s = RangeStore::range_sharded(vec![0, 100]);
        for k in -50i64..150 {
            assert!(s.insert(k, k as u64));
        }
        // Whole keyspace, crossing both boundaries.
        let all = s.range_keys(-50..=149);
        assert_eq!(all, (-50i64..150).collect::<Vec<_>>());
        // Spanning exactly one boundary.
        assert_eq!(s.range_keys(-5..=5), (-5i64..=5).collect::<Vec<_>>());
        // Boundary key itself lives on the right shard.
        assert_eq!(s.shard_of(&0), 1);
        assert!(s.shard(1).contains(&0) && !s.shard(0).contains(&0));
        // Inside one shard.
        assert_eq!(s.range_keys(10..=20), (10i64..=20).collect::<Vec<_>>());
        assert_eq!(s.range_count(-50..=149), 200);
        s.check_invariants();
    }

    #[test]
    fn hash_store_merges_into_ascending_stream() {
        let s = HashStore::hash_sharded(4);
        for k in 0i64..512 {
            assert!(s.insert(k, 0));
        }
        let got = s.range_keys(100..=411);
        assert_eq!(got, (100i64..=411).collect::<Vec<_>>());
        assert!(got.windows(2).all(|w| w[0] < w[1]), "merged stream must be strictly ascending");
        assert_eq!(s.keys_in_order(), (0i64..512).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_point_queries_aggregate() {
        let s = RangeStore::range_sharded(vec![100]);
        for k in [5i64, 50, 150, 250] {
            assert!(s.insert(k, 0));
        }
        assert_eq!(s.min_key(), Some(5));
        assert_eq!(s.max_key(), Some(250));
        assert_eq!(s.ceiling_key(&51), Some(150), "ceiling must cross the shard boundary");
        assert_eq!(s.floor_key(&149), Some(50), "floor must cross the shard boundary");
        assert_eq!(s.ceiling_key(&251), None);
        assert_eq!(s.floor_key(&4), None);
    }

    #[test]
    fn empty_and_reverse_ranges() {
        let s = RangeStore::range_sharded(vec![0]);
        assert!(s.is_empty());
        assert_eq!(s.range_keys(-10..=10), Vec::<i64>::new());
        assert!(s.insert(5, 1));
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(s.range_count(10..=-10), 0, "inverted range is empty");
        }
        assert_eq!(s.range_keys(6..=100), Vec::<i64>::new());
        assert!(!s.is_empty());
    }

    #[test]
    fn trait_object_surface() {
        let s = HashStore::hash_sharded(2);
        let m: &dyn ConcurrentMap<i64, u64> = &s;
        assert_eq!(m.name(), "lo-store");
        assert!(m.insert(1, 10));
        assert!(m.contains(&1));
        assert_eq!(m.get(&1), Some(10));
        assert!(m.remove(&1));
    }

    #[test]
    fn healthy_store_recovery_surface() {
        let s = HashStore::hash_sharded(2);
        assert_eq!(s.health(), Health::Writable);
        assert_eq!(s.poisoned(), None);
        assert_eq!(s.degraded_mask(), 0);
        assert_eq!(s.recovery_generation(), 0);
        assert_eq!(FallibleMap::try_recover(&s).err(), Some(RecoverError::NotPoisoned));
        assert_eq!(s.try_insert(1, 1), Ok(true));
        assert_eq!(s.try_remove(&1), Ok(true));
    }

    /// A merged-scan callback asking for recovery of a covered, poisoned
    /// shard gets `Pinned` back instead of waiting on its own pin.
    #[cfg(feature = "failpoints")]
    #[test]
    fn recovery_from_a_scan_callback_is_refused_while_pinned() {
        use lo_check::fail::{kill_at, FailPoint};
        let s = RangeStore::range_sharded(vec![100]);
        for k in [10, 20, 30, 110, 120] {
            assert!(s.insert(k, k as u64));
        }
        assert!(kill_at(FailPoint::RemoveAfterMark, || {
            let _ = s.try_remove(&20);
        }));
        let degraded = Health::Degraded { shards: 0b1 };
        assert_eq!(s.health(), degraded);
        let mut inside = None;
        s.scan_range(0..=200, |k| {
            if k == 10 {
                inside = Some((s.try_recover(), s.try_recover_shard(0)));
            }
        });
        let pinned = Err(RecoverError::Pinned);
        assert_eq!(inside, Some((pinned.clone(), pinned)));
        assert_eq!(s.health(), degraded);
        let report = s.try_recover().expect("recovery succeeds once the scan has ended");
        assert_eq!(report.strategy, lo_api::RepairStrategy::InPlace);
        assert_eq!(s.health(), Health::Writable);
        assert_eq!(s.keys_in_order(), vec![10, 30, 110, 120]);
    }
}
