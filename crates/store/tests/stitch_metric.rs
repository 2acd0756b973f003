//! Pins the meaning of `store-cross-shard-scan-stitch`: one event per
//! switch of source shard mid-stream, for both routings. An empty covered
//! shard yields nothing, so it is no switch. It also pins that the merge's
//! lock-step seeks count `search-descent` and `chase-pred` exactly as one
//! lone seek per shard does, so `tree.descents_per_op` and
//! `tree.chase_steps_per_get` keep their meaning.
//!
//! The counters are process-wide, so this file holds a single test: no
//! other scan may run while it counts.

#![cfg(feature = "metrics")]

use lo_metrics::{Event, Snapshot};
use lo_store::{RangePartitioner, ShardedStore};

type RangeStore = ShardedStore<i64, u64, RangePartitioner<i64>>;
type HashStore = ShardedStore<i64, u64>;

/// Stitch events recorded while `scan` runs.
fn stitches(scan: impl FnOnce()) -> u64 {
    let before = Snapshot::take();
    scan();
    Snapshot::take().since(&before).get(Event::StoreCrossShardScanStitch)
}

/// `search-descent` and `chase-pred` totals recorded while `scan` runs.
fn seek_counts(scan: impl FnOnce()) -> [u64; 2] {
    let before = Snapshot::take();
    scan();
    let delta = Snapshot::take().since(&before);
    [delta.get(Event::SearchDescent), delta.get(Event::ChasePred)]
}

#[test]
fn stitch_metric_counts_source_shard_switches() {
    // Range routing, every shard populated: 10..=40 crosses the 16 and 32
    // splits.
    let range = RangeStore::range_sharded(vec![16, 32, 48]);
    for k in 0i64..64 {
        assert!(range.insert(k, 0));
    }
    assert_eq!(stitches(|| assert_eq!(range.range_count(10..=40), 31)), 2);
    assert_eq!(stitches(|| assert_eq!(range.range_count(17..=30), 14)), 0);

    // Range routing with empty middle shards: 0..=63 covers four shards but
    // switches source once.
    let sparse = RangeStore::range_sharded(vec![16, 32, 48]);
    for k in (0i64..16).chain(48..64) {
        assert!(sparse.insert(k, 0));
    }
    assert_eq!(stitches(|| assert_eq!(sparse.range_count(0..=63), 32)), 1);

    // Hash routing: exactly the adjacent yielded keys on different shards.
    let hash = HashStore::hash_sharded(4);
    for k in 0i64..256 {
        assert!(hash.insert(k, 0));
    }
    let mut keys = Vec::new();
    let counted = stitches(|| hash.scan_range(20..=200, |k| keys.push(k)));
    assert_eq!(keys, (20i64..=200).collect::<Vec<_>>());
    let switches = keys
        .windows(2)
        .filter(|w| hash.shard_of(&w[0]) != hash.shard_of(&w[1]))
        .count() as u64;
    assert!(switches > 0);
    assert_eq!(counted, switches);

    // The merge steps its shards' seeks in lock-step; each still counts
    // the levels it descends and the pred chase it lands with, the same
    // totals as one lone scan per shard over the same window.
    let merged = seek_counts(|| assert_eq!(hash.range_count(20..=200), 181));
    let lone = (0..hash.n_shards()).fold([0, 0], |sum, i| {
        let c = seek_counts(|| assert!(hash.shard(i).range_count(20..=200) > 0));
        [sum[0] + c[0], sum[1] + c[1]]
    });
    assert!(merged.iter().all(|&c| c > 0), "no descent or chase counted: {merged:?}");
    assert_eq!(merged, lone, "[search-descent, chase-pred]: merged vs lone seeks");
}
