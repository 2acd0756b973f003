//! Keyspace routing: which shard owns a key, and which shards a range scan
//! must visit.
//!
//! A [`Partitioner`] is a *pure function* of the key — it never consults the
//! shards — so routing is lock-free and a key's home shard never changes for
//! the lifetime of the store. Two policies ship:
//!
//! * [`RangePartitioner`] — contiguous key slices separated by split keys.
//!   Order-preserving: shard *i* holds strictly smaller keys than shard
//!   *i + 1*, so a scan of `lo..=hi` only visits the shards whose slices
//!   intersect the window ([`Partitioner::cover`] is
//!   `shard_of(lo)..=shard_of(hi)`).
//! * [`HashPartitioner`] — an FNV-1a hash of the key modulo the shard
//!   count. Spreads hot contiguous keyspaces evenly, but interleaves the
//!   key order across shards, so every shard may hold keys of any window
//!   (`cover` is `0..n`).
//!
//! Either way the store merges one cursor per covered shard into one
//! ascending stream; the cover only decides how many cursors it opens.

use lo_api::Key;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Range;

/// Hard cap on shard count: the store's degraded-health state is a `u64`
/// bitmask of unwritable shards ([`lo_api::Health::Degraded`]).
pub const MAX_SHARDS: usize = 64;

/// Maps keys to shard indices. Implementations must be pure: the same key
/// always routes to the same shard, with no interior mutability.
pub trait Partitioner<K: Key>: Send + Sync {
    /// Number of shards this partitioner routes across (fixed for life).
    fn n_shards(&self) -> usize;

    /// The shard owning `key`; always `< n_shards()`.
    fn shard_of(&self, key: &K) -> usize;

    /// The shards that may hold keys of `lo..=hi` (`lo <= hi`), as a
    /// contiguous index range: exactly the shards whose slices intersect
    /// the window for an order-preserving policy, every shard (`0..n`)
    /// when key order interleaves across shards.
    fn cover(&self, lo: &K, hi: &K) -> Range<usize>;
}

/// Contiguous-slice routing: `splits = [s0, s1, ...]` carve the keyspace
/// into `splits.len() + 1` shards. Boundary semantics: a key **equal to a
/// split belongs to the shard on its right** — shard 0 holds keys `< s0`,
/// shard *i* (for *i ≥ 1*) holds keys in `[s(i-1), s(i))`, and the last
/// shard holds keys `>= s(last)`.
pub struct RangePartitioner<K: Key> {
    splits: Vec<K>,
}

impl<K: Key> RangePartitioner<K> {
    /// Builds a range partitioner with `splits.len() + 1` shards. Panics if
    /// the splits are not strictly ascending or the shard count exceeds
    /// [`MAX_SHARDS`].
    pub fn new(splits: Vec<K>) -> Self {
        assert!(
            splits.len() < MAX_SHARDS,
            "{} splits make {} shards; max is {MAX_SHARDS}",
            splits.len(),
            splits.len() + 1,
        );
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "splits must be strictly ascending"
        );
        Self { splits }
    }

    /// The split keys, ascending.
    pub fn splits(&self) -> &[K] {
        &self.splits
    }
}

impl<K: Key> Partitioner<K> for RangePartitioner<K> {
    fn n_shards(&self) -> usize {
        self.splits.len() + 1
    }

    fn shard_of(&self, key: &K) -> usize {
        // Count of splits <= key: a key equal to split s_i lands on shard
        // i + 1 (the right-hand shard) — the documented boundary rule.
        self.splits.partition_point(|s| s <= key)
    }

    fn cover(&self, lo: &K, hi: &K) -> Range<usize> {
        self.shard_of(lo)..self.shard_of(hi) + 1
    }
}

/// FNV-1a over the key's `Hash` stream, modulo the shard count.
/// Deterministic across processes (no random state), dependency-free, and
/// good enough dispersion for shard routing after a final avalanche mix.
pub struct HashPartitioner<K> {
    n: usize,
    _k: PhantomData<fn(K)>,
}

impl<K> HashPartitioner<K> {
    /// Builds an `n`-way hash partitioner. Panics unless
    /// `1 <= n <= MAX_SHARDS`.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&n),
            "shard count {n} outside 1..={MAX_SHARDS}"
        );
        Self { n, _k: PhantomData }
    }
}

/// FNV-1a, 64-bit: the classic offset basis / prime pair.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 finalizer): FNV's low bits are weak
        // for small integer keys, and `% n` looks exactly there.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl<K: Key + Hash> Partitioner<K> for HashPartitioner<K> {
    fn n_shards(&self) -> usize {
        self.n
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        key.hash(&mut h);
        (h.finish() % self.n as u64) as usize
    }

    fn cover(&self, _lo: &K, _hi: &K) -> Range<usize> {
        0..self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_boundary_key_goes_right() {
        let p = RangePartitioner::new(vec![0i64, 100]);
        assert_eq!(p.n_shards(), 3);
        assert_eq!(p.shard_of(&-1), 0);
        assert_eq!(p.shard_of(&0), 1, "key equal to a split belongs to the right shard");
        assert_eq!(p.shard_of(&99), 1);
        assert_eq!(p.shard_of(&100), 2);
        assert_eq!(p.shard_of(&i64::MAX), 2);
        assert_eq!(p.shard_of(&i64::MIN), 0);
    }

    #[test]
    fn range_cover_is_sequential() {
        let p = RangePartitioner::new(vec![0i64, 100]);
        assert_eq!(p.cover(&-5, &-1), 0..1);
        assert_eq!(p.cover(&-5, &5), 0..2);
        assert_eq!(p.cover(&-5, &500), 0..3);
        assert_eq!(p.cover(&100, &100), 2..3);
        // Boundary-adjacent: hi just below the split stays left of it.
        assert_eq!(p.cover(&-5, &99), 0..2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn range_rejects_unsorted_splits() {
        let _ = RangePartitioner::new(vec![5i64, 5]);
    }

    #[test]
    fn hash_routing_is_stable_and_in_bounds() {
        let p = HashPartitioner::<i64>::new(7);
        for k in -1000i64..1000 {
            let s = p.shard_of(&k);
            assert!(s < 7);
            assert_eq!(s, p.shard_of(&k), "routing must be deterministic");
        }
        assert_eq!(p.cover(&0, &10), 0..7, "hash order interleaves: every shard is covered");
        assert_eq!(HashPartitioner::<i64>::new(1).cover(&0, &10), 0..1);
    }

    #[test]
    fn hash_spreads_contiguous_keys() {
        // A contiguous block must not pile onto one shard — that is the
        // whole point of hash routing over range routing.
        let p = HashPartitioner::<i64>::new(4);
        let mut per_shard = [0usize; 4];
        for k in 0i64..4096 {
            per_shard[p.shard_of(&k)] += 1;
        }
        for (i, &n) in per_shard.iter().enumerate() {
            assert!(
                (700..=1400).contains(&n),
                "shard {i} got {n}/4096 contiguous keys; dispersion is broken: {per_shard:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn hash_rejects_zero_shards() {
        let _ = HashPartitioner::<i64>::new(0);
    }
}
