//! Flat-combining batched frontend over the sharded store.
//!
//! Under heavy write contention on one shard, every writer paying its own
//! epoch pin and its own walk through the tree's lock protocol wastes the
//! fact that they are all going to the same place. The flat-combining
//! frontend (Hendler, Incze, Shavit, Tzafrir, SPAA'10 — adapted here to
//! batch *tree* operations) turns that contention into cooperation:
//! writers publish their operation into the owning shard's **lane** (an
//! MPSC queue of per-op slots) and one of them — whoever wins the lane's
//! combiner-role try-lock — drains the queue and executes the whole batch
//! itself, under **one** epoch guard, while the others spin on their slot's
//! done flag. Results (and panics) travel back through the slot.
//!
//! Lock discipline (the `[[locks.raw_allow]]` entry for this file in
//! `ordering_policy.toml` is justified by exactly these rules):
//!
//! * the **queue lock** is held only to push one slot or to `mem::take`
//!   the queue — never across a tree operation, so it can never nest
//!   around a node lock;
//! * the **combiner-role lock** is strictly outermost: it is acquired by
//!   `try_lock` only (no blocking, no deadlock), only by threads holding
//!   no other lock, and every tree lock acquired while combining is
//!   released before the role is;
//! * a batched operation that **panics** (an injected failpoint, or a real
//!   bug) is caught by the combiner and the payload is ferried to the
//!   submitting thread, which re-raises it — so a dying operation poisons
//!   its shard and kills *its* caller, exactly as on the direct path, and
//!   never strands the other waiters or the combiner.
//!
//! Reads are **not** batched: `contains`/`get` and the ordered reads are
//! already lock-free, so the frontend forwards them straight to the store.

use crate::router::{HashPartitioner, Partitioner, RangePartitioner};
use crate::store::ShardedStore;
use lo_api::{
    CheckInvariants, ConcurrentMap, FallibleMap, Health, Key, OrderedRead, QuiescentOrdered,
    RecoverError, RecoveryReport, TreeError, Value,
};
use lo_core::sync::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A batched write operation, published by a submitter, consumed by the
/// combiner.
enum Op<K, V> {
    Insert(K, V),
    Remove(K),
}

/// What the combiner left in the slot.
enum Outcome {
    /// Combiner has not executed this op yet.
    Pending,
    /// The op ran to completion (including a clean `Err(Poisoned)`).
    Done(Result<bool, TreeError>),
    /// The op panicked inside the tree; the payload is re-raised on the
    /// submitting thread so poisoning semantics match the direct path.
    Panicked(Box<dyn Any + Send>),
}

/// One published operation: request in, outcome out, `done` as the
/// hand-off flag (Release by the combiner, Acquire by the submitter).
struct Slot<K, V> {
    op: Mutex<Option<Op<K, V>>>,
    outcome: Mutex<Outcome>,
    done: AtomicBool,
}

/// Per-shard combining lane.
struct Lane<K, V> {
    /// MPSC publication list; swapped out wholesale by the combiner.
    queue: Mutex<Vec<Arc<Slot<K, V>>>>,
    /// The combiner role. `try_lock` only — whoever holds it drains.
    combiner: Mutex<()>,
}

impl<K, V> Lane<K, V> {
    fn new() -> Self {
        Self { queue: Mutex::new(Vec::new()), combiner: Mutex::new(()) }
    }
}

/// The flat-combining frontend (module docs). Wraps a [`ShardedStore`] and
/// implements the same map traits; writes are batched per shard, reads
/// pass through.
pub struct BatchedStore<K: Key, V: Value, P: Partitioner<K> = HashPartitioner<K>> {
    store: ShardedStore<K, V, P>,
    lanes: Vec<Lane<K, V>>,
}

impl<K: Key, V: Value, P: Partitioner<K>> BatchedStore<K, V, P> {
    /// Wraps `store` with one combining lane per shard.
    pub fn new(store: ShardedStore<K, V, P>) -> Self {
        let lanes = (0..store.n_shards()).map(|_| Lane::new()).collect();
        Self { store, lanes }
    }

    /// Borrows the wrapped store (e.g. for per-shard health inspection).
    pub fn inner(&self) -> &ShardedStore<K, V, P> {
        &self.store
    }

    /// Unwraps back to the direct store. Safe at any quiescent point; any
    /// published-but-undrained op would require a `&self` submitter still
    /// blocked inside [`Self::try_insert`]/[`Self::try_remove`], which
    /// `self`-by-value rules out.
    pub fn into_inner(self) -> ShardedStore<K, V, P> {
        self.store
    }

    /// Number of shards (and combining lanes).
    pub fn n_shards(&self) -> usize {
        self.store.n_shards()
    }

    /// Publishes `op` on its shard's lane and waits for an outcome,
    /// combining if the role is free.
    fn submit(&self, shard: usize, op: Op<K, V>) -> Result<bool, TreeError> {
        let lane = &self.lanes[shard];
        let slot = Arc::new(Slot {
            op: Mutex::new(Some(op)),
            outcome: Mutex::new(Outcome::Pending),
            done: AtomicBool::new(false),
        });
        lane.queue.lock().push(Arc::clone(&slot));

        let mut waited = false;
        while !slot.done.load(Ordering::Acquire) {
            match lane.combiner.try_lock() {
                Some(_role) => {
                    // We are the combiner; `_role` is released when this
                    // arm ends, after the drain. A former waiter winning
                    // the role is the combiner hand-off the metric counts.
                    if waited {
                        lo_metrics::record(lo_metrics::Event::StoreCombinerHandoff);
                    }
                    self.drain(shard, lane);
                    debug_assert!(
                        slot.done.load(Ordering::Acquire),
                        "combiner finished draining without executing its own op"
                    );
                }
                None => {
                    // Another thread holds the role and will execute our
                    // op (or we will, next time round if it hands off
                    // before reaching us).
                    waited = true;
                    std::thread::yield_now();
                }
            }
        }

        let outcome = std::mem::replace(&mut *slot.outcome.lock(), Outcome::Pending);
        match outcome {
            Outcome::Done(result) => result,
            Outcome::Panicked(payload) => resume_unwind(payload),
            Outcome::Pending => unreachable!("done flag set with no outcome"),
        }
    }

    /// Drains the lane until its queue stays empty: swaps the queue out
    /// (releasing the queue lock *before* touching the tree) and executes
    /// the batch under one guard of the shard's own epoch domain. Each op
    /// still pins that domain inside the tree, so the outer guard is only
    /// an amortization: every per-op pin is then a reentrant counter bump
    /// on the same thread handle, which is what this frontend exists for.
    fn drain(&self, shard: usize, lane: &Lane<K, V>) {
        let map = self.store.shard(shard);
        let _guard = map.epoch_domain().pin();
        loop {
            let batch = std::mem::take(&mut *lane.queue.lock());
            if batch.is_empty() {
                break;
            }
            lo_metrics::record(lo_metrics::Event::StoreBatchDrained);
            lo_metrics::add(lo_metrics::Event::StoreBatchLen, batch.len() as u64);
            for slot in batch {
                let op = slot.op.lock().take().expect("slot published without an op");
                let result = catch_unwind(AssertUnwindSafe(|| match op {
                    Op::Insert(key, value) => map.try_insert(key, value),
                    Op::Remove(key) => map.try_remove(&key),
                }));
                *slot.outcome.lock() = match result {
                    Ok(r) => Outcome::Done(r),
                    Err(payload) => Outcome::Panicked(payload),
                };
                slot.done.store(true, Ordering::Release);
            }
        }
    }

    /// Fallible batched insert (routed, combined; see module docs).
    pub fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
        let shard = self.store.shard_of(&key);
        self.submit(shard, Op::Insert(key, value))
    }

    /// Fallible batched remove.
    pub fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
        self.submit(self.store.shard_of(key), Op::Remove(*key))
    }

    /// Infallible batched insert; panics if the owning shard is poisoned
    /// (mirrors the direct maps' infallible/fallible split).
    pub fn insert(&self, key: K, value: V) -> bool {
        self.try_insert(key, value)
            .unwrap_or_else(|e| panic!("batched insert on unwritable shard: {e}"))
    }

    /// Infallible batched remove; panics if the owning shard is poisoned.
    pub fn remove(&self, key: &K) -> bool {
        self.try_remove(key)
            .unwrap_or_else(|e| panic!("batched remove on unwritable shard: {e}"))
    }

    /// Lock-free pass-through membership test (not batched).
    pub fn contains(&self, key: &K) -> bool {
        self.store.contains(key)
    }

    /// Lock-free pass-through value clone (not batched).
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.store.get(key)
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> ConcurrentMap<K, V> for BatchedStore<K, V, P> {
    fn insert(&self, key: K, value: V) -> bool {
        BatchedStore::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> bool {
        BatchedStore::remove(self, key)
    }
    fn contains(&self, key: &K) -> bool {
        BatchedStore::contains(self, key)
    }
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        BatchedStore::get(self, key)
    }
    fn name(&self) -> &'static str {
        "lo-store-batched"
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> FallibleMap<K, V> for BatchedStore<K, V, P> {
    fn try_insert(&self, key: K, value: V) -> Result<bool, TreeError> {
        BatchedStore::try_insert(self, key, value)
    }
    fn try_remove(&self, key: &K) -> Result<bool, TreeError> {
        BatchedStore::try_remove(self, key)
    }
    fn poisoned(&self) -> Option<TreeError> {
        self.store.poisoned()
    }
    fn health(&self) -> Health {
        self.store.health()
    }
    fn try_recover(&self) -> Result<RecoveryReport, RecoverError> {
        self.store.try_recover()
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> OrderedRead<K> for BatchedStore<K, V, P> {
    fn min_key(&self) -> Option<K> {
        self.store.min_key()
    }
    fn max_key(&self) -> Option<K> {
        self.store.max_key()
    }
    fn ceiling_key(&self, key: &K) -> Option<K> {
        self.store.ceiling_key(key)
    }
    fn floor_key(&self, key: &K) -> Option<K> {
        self.store.floor_key(key)
    }
    fn scan_range(&self, range: std::ops::RangeInclusive<K>, f: &mut dyn FnMut(K)) {
        self.store.scan_range(range, f)
    }
    fn range_count(&self, range: std::ops::RangeInclusive<K>) -> usize {
        self.store.range_count(range)
    }
    fn range_keys(&self, range: std::ops::RangeInclusive<K>) -> Vec<K> {
        self.store.range_keys(range)
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> QuiescentOrdered<K> for BatchedStore<K, V, P> {
    fn keys_in_order(&self) -> Vec<K> {
        self.store.keys_in_order()
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> CheckInvariants for BatchedStore<K, V, P> {
    fn check_invariants(&self) {
        for (i, lane) in self.lanes.iter().enumerate() {
            assert!(
                lane.queue.lock().is_empty(),
                "lane {i} holds undrained ops at quiescence"
            );
        }
        self.store.check_invariants();
    }
}

impl<K: Key, V: Value, P: Partitioner<K>> std::fmt::Debug for BatchedStore<K, V, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedStore").field("store", &self.store).finish()
    }
}

impl<K: Key + std::hash::Hash, V: Value> BatchedStore<K, V, HashPartitioner<K>> {
    /// An `n`-way hash-routed batched store.
    pub fn hash_sharded(n: usize) -> Self {
        Self::new(ShardedStore::hash_sharded(n))
    }
}

impl<K: Key, V: Value> BatchedStore<K, V, RangePartitioner<K>> {
    /// A range-routed batched store with `splits.len() + 1` shards.
    pub fn range_sharded(splits: Vec<K>) -> Self {
        Self::new(ShardedStore::range_sharded(splits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Batched = BatchedStore<i64, u64>;

    #[test]
    fn single_thread_ops_round_trip() {
        let b = Batched::hash_sharded(4);
        assert_eq!(b.n_shards(), 4);
        for k in 0i64..128 {
            assert!(b.insert(k, k as u64));
        }
        assert!(!b.insert(5, 99), "duplicate insert must fail");
        assert_eq!(b.get(&5), Some(5), "failed insert must not overwrite");
        assert!(b.remove(&5));
        assert!(!b.contains(&5));
        assert_eq!(b.try_remove(&5), Ok(false));
        assert_eq!(b.inner().len(), 127);
        b.check_invariants();
    }

    #[test]
    fn contended_batching_is_linearizable_per_key() {
        // 4 threads × disjoint key blocks through one 2-shard frontend:
        // every op's result must be exactly what a per-key sequential
        // history predicts, even though ops execute on combiner threads.
        let b = Batched::hash_sharded(2);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let b = &b;
                s.spawn(move || {
                    let base = t * 1_000;
                    for k in base..base + 200 {
                        assert!(b.insert(k, k as u64), "fresh insert of {k}");
                        assert!(!b.insert(k, 0), "duplicate insert of {k}");
                        assert!(b.remove(&k), "remove of present {k}");
                        assert!(!b.remove(&k), "remove of absent {k}");
                        assert!(b.insert(k, k as u64 + 1), "reinsert of {k}");
                    }
                });
            }
        });
        assert_eq!(b.inner().len(), 800);
        for t in 0..4i64 {
            for k in t * 1_000..t * 1_000 + 200 {
                assert_eq!(b.get(&k), Some(k as u64 + 1));
            }
        }
        b.check_invariants();
    }

    #[test]
    fn batched_and_direct_views_agree() {
        let b = BatchedStore::<i64, u64, RangePartitioner<i64>>::range_sharded(vec![0]);
        for k in -20i64..20 {
            assert!(b.insert(k, 7));
        }
        assert_eq!(b.keys_in_order(), (-20i64..20).collect::<Vec<_>>());
        assert_eq!(b.range_keys(-5..=5), (-5i64..=5).collect::<Vec<_>>());
        assert_eq!(b.min_key(), Some(-20));
        assert_eq!(b.max_key(), Some(19));
        let inner = b.into_inner();
        assert_eq!(inner.len(), 40);
        inner.check_invariants();
    }

    #[test]
    fn trait_surface_names() {
        let b = Batched::hash_sharded(1);
        let m: &dyn ConcurrentMap<i64, u64> = &b;
        assert_eq!(m.name(), "lo-store-batched");
        assert_eq!(FallibleMap::health(&b), Health::Writable);
        assert_eq!(FallibleMap::try_recover(&b).err(), Some(RecoverError::NotPoisoned));
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn batching_records_metrics() {
        use lo_metrics::Event;
        let before = lo_metrics::Snapshot::take();
        let b = Batched::hash_sharded(1);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let b = &b;
                s.spawn(move || {
                    for k in 0..100i64 {
                        b.insert(t * 1_000 + k, 0);
                    }
                });
            }
        });
        let delta = lo_metrics::Snapshot::take().since(&before);
        let drains = delta.get(Event::StoreBatchDrained);
        assert!(drains >= 1, "at least one batch must drain");
        assert!(
            delta.get(Event::StoreBatchLen) >= drains,
            "every drained batch holds at least one op"
        );
    }
}
