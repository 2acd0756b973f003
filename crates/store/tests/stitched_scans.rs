//! Scan-coherence evidence for **stitched** cross-shard scans.
//!
//! The single tree's concurrent scans already pass `lo_check::scan`'s
//! coherence checker; these tests hold the sharded store's stitched scans
//! to the identical contract — strictly ascending, in-window, no yield of a
//! certainly-dead key, no miss of a continuously-live one — while updaters
//! race the scanner. The one stitch path, a k-way merge of per-shard
//! cursors, is driven under both routings: range routing, with windows
//! spanning zero, one, and every shard boundary, and hash routing, where
//! every window covers every shard. Empty shards, boundary keys, cursors
//! re-pinning mid-merge and callbacks that write their own window are
//! covered too.

use lo_check::lin::{CompletedOp, LinOp, Recorder};
use lo_check::rng::Rng;
use lo_check::scan::{check_scan_coherence, ScanObservation};
use lo_core::LoAvlMap;
use lo_store::{Partitioner, RangePartitioner, ShardedStore};

type RangeStore = ShardedStore<i64, u64, RangePartitioner<i64>>;
type HashStore = ShardedStore<i64, u64>;

/// The two store flavours under one hat for the generic storm driver.
trait StoreOps: Sync {
    fn ins(&self, k: i64) -> bool;
    fn rem(&self, k: i64) -> bool;
    fn scan_u8(&self, lo: u8, hi: u8, out: &mut Vec<u8>);
}

macro_rules! impl_store_ops {
    ($ty:ty) => {
        impl StoreOps for $ty {
            fn ins(&self, k: i64) -> bool {
                self.insert(k, 0)
            }
            fn rem(&self, k: i64) -> bool {
                self.remove(&k)
            }
            fn scan_u8(&self, lo: u8, hi: u8, out: &mut Vec<u8>) {
                self.scan_range(i64::from(lo)..=i64::from(hi), |k| out.push(k as u8));
            }
        }
    };
}

impl_store_ops!(RangeStore);
impl_store_ops!(HashStore);

/// Windows exercised against splits `[16, 32, 48]`: inside one shard (zero
/// boundaries), across exactly one boundary, across every boundary, and
/// degenerate single-key windows sitting exactly on a split.
const WINDOWS: &[(u8, u8)] = &[
    (17, 30), // strictly inside shard 1
    (10, 20), // crosses the 16 split only
    (0, 63),  // crosses all three splits
    (16, 16), // exactly the boundary key
    (47, 49), // straddles the 48 split
];

/// Drives two updaters over keys `0..64` against one scanner walking
/// `WINDOWS`, all stamped on one logical clock, then runs the coherence
/// checker over the combined history.
fn storm_and_check<M: StoreOps>(store: &M, initial: u64) {
    let recorder = Recorder::new();
    let (history, scans) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let recorder = &recorder;
            handles.push(s.spawn(move || {
                let mut ops = Vec::new();
                let mut rng = Rng::new(t + 1);
                for _ in 0..150 {
                    let key = rng.next_below(64) as u8;
                    if rng.next_below(2) == 0 {
                        ops.push(recorder.record(LinOp::Insert, key, || store.ins(i64::from(key))));
                    } else {
                        ops.push(recorder.record(LinOp::Remove, key, || store.rem(i64::from(key))));
                    }
                }
                ops
            }));
        }
        let scans: Vec<ScanObservation> = {
            let recorder = &recorder;
            s.spawn(move || {
                let mut scans = Vec::new();
                for _ in 0..10 {
                    for &(lo, hi) in WINDOWS {
                        let invoke = recorder.stamp();
                        let mut keys = Vec::new();
                        store.scan_u8(lo, hi, &mut keys);
                        let response = recorder.stamp();
                        scans.push(ScanObservation { lo, hi, keys, invoke, response });
                    }
                }
                scans
            })
            .join()
            .expect("scanner must not die")
        };
        let mut history: Vec<CompletedOp> = Vec::new();
        for h in handles {
            history.extend(h.join().expect("updater must not die"));
        }
        (history, scans)
    });
    if let Err(v) = check_scan_coherence(&history, &scans, initial) {
        panic!("stitched scan broke coherence: {v}");
    }
}

fn prefill(store: &impl StoreOps) -> u64 {
    let mut initial = 0u64;
    for k in (0..64u8).step_by(2) {
        assert!(store.ins(i64::from(k)));
        initial |= 1 << k;
    }
    initial
}

#[test]
fn sequentially_stitched_scans_cohere_under_storm() {
    let store = RangeStore::range_sharded(vec![16, 32, 48]);
    let initial = prefill(&store);
    storm_and_check(&store, initial);
    store.check_invariants();
}

#[test]
fn merged_scans_cohere_under_storm() {
    let store = HashStore::hash_sharded(4);
    let initial = prefill(&store);
    storm_and_check(&store, initial);
    store.check_invariants();
}

#[test]
fn empty_shards_stitch_cleanly() {
    // Middle shards hold nothing: the stitched stream must skip them
    // without a glitch.
    let store = RangeStore::range_sharded(vec![16, 32, 48]);
    for k in (0i64..16).chain(48..64) {
        assert!(store.insert(k, 0));
    }
    assert_eq!(
        store.range_keys(0..=63),
        (0i64..16).chain(48..64).collect::<Vec<_>>()
    );
    assert_eq!(store.range_count(16..=47), 0, "the empty middle spans two shards");
    assert_eq!(store.range_keys(20..=40), Vec::<i64>::new());
    store.check_invariants();
}

#[test]
fn boundary_key_regressions() {
    let store = RangeStore::range_sharded(vec![16, 32, 48]);
    // A key exactly at a split lives on the right-hand shard.
    assert!(store.insert(16, 1));
    assert_eq!(store.shard_of(&16), 1);
    assert!(store.shard(1).contains(&16), "split key must live right of the split");
    assert!(!store.shard(0).contains(&16));
    // Single-key window on the boundary.
    assert_eq!(store.range_keys(16..=16), vec![16]);
    // Window ending just left / starting just right of the split.
    assert!(store.insert(15, 1));
    assert!(store.insert(17, 1));
    assert_eq!(store.range_keys(0..=15), vec![15]);
    assert_eq!(store.range_keys(17..=31), vec![17]);
    // Reverse and empty windows yield nothing.
    #[allow(clippy::reversed_empty_ranges)]
    {
        assert_eq!(store.range_count(40..=20), 0, "inverted window is empty");
    }
    assert_eq!(store.range_keys(18..=18), Vec::<i64>::new());
    // min/max/ceiling/floor agree across the boundary.
    assert_eq!(store.min_key(), Some(15));
    assert_eq!(store.max_key(), Some(17));
    assert_eq!(store.ceiling_key(&16), Some(16));
    assert_eq!(store.floor_key(&16), Some(16));
    assert_eq!(store.ceiling_key(&18), None);
    assert_eq!(store.floor_key(&14), None);
    store.check_invariants();
}

/// Inserts the same `inserts` random keys in `0..span` into `store` and
/// into one reference tree, then requires every window — and the full
/// ordered snapshot — to produce byte-identical streams. Returns the
/// reference for further checks.
fn assert_matches_reference<P: Partitioner<i64>>(
    store: &ShardedStore<i64, u64, P>,
    inserts: usize,
    span: u64,
    windows: &[(i64, i64)],
) -> LoAvlMap<i64, u64> {
    let reference = LoAvlMap::new();
    let mut rng = Rng::new(7);
    for _ in 0..inserts {
        let k = rng.next_below(span) as i64;
        assert_eq!(store.insert(k, 0), reference.insert(k, 0));
    }
    for &(lo, hi) in windows {
        assert_eq!(
            store.range_keys(lo..=hi),
            reference.range_keys(lo..=hi),
            "window {lo}..={hi} diverged from the single-tree reference"
        );
    }
    assert_eq!(store.keys_in_order(), reference.keys_in_order());
    reference
}

#[test]
fn stitched_scan_matches_single_tree_reference() {
    // Range routing: a 4-shard store against one reference tree.
    let store = RangeStore::range_sharded(vec![100, 200, 300]);
    let windows = [(0i64, 399), (90, 110), (150, 150), (0, 99), (300, 399), (250, 260)];
    assert_matches_reference(&store, 300, 400, &windows);

    // Hash routing: the full-range window holds over 4 × 300 keys, so
    // every shard's cursor walks past `SCAN_REPIN_EVERY` (256) steps and
    // re-pins mid-merge; a 3-key window leaves at least one shard empty.
    let store = HashStore::hash_sharded(4);
    let windows = [(0i64, 2999), (100, 900), (1500, 1500), (2000, 2002), (2990, 3100)];
    let reference = assert_matches_reference(&store, 3000, 3000, &windows);
    assert!(reference.len() >= 4 * 300, "only {} keys", reference.len());
    for i in 0..4 {
        assert!(
            store.shard(i).range_count(0..=2999) > 256,
            "shard {i} is too small for its cursor to re-pin mid-merge"
        );
    }
    assert!(
        (0..4).any(|i| store.shard(i).range_count(2000..=2002) == 0),
        "the 3-key window must leave a shard empty"
    );

    // Uneven seeks. Windows start below the minimum, end above the
    // maximum, sit on a split (2, 4, 3000) or on an absent key (2, 1402,
    // 1450). Splits [2, 4, 3000] give shards of one key, one key, ~1,900
    // keys and none, so the merge's lock-step seeks land in different
    // rounds; hash stores of 1 shard (a lone seek) and 7 shards too.
    let windows = [
        (-10i64, 5),
        (0, 2999),
        (2, 2),
        (3, 4),
        (4, 4),
        (1402, 1402),
        (1402, 1450),
        (2990, 3100),
        (2999, 3000),
        (3000, 3000),
    ];
    let store = RangeStore::range_sharded(vec![2, 4, 3000]);
    let reference = assert_matches_reference(&store, 3000, 3000, &windows);
    assert_eq!(
        (0..4).map(|i| store.shard(i).len()).collect::<Vec<_>>(),
        [1, 1, reference.len() - 2, 0],
        "shard sizes must be uneven"
    );
    assert_eq!((reference.min_key(), reference.max_key()), (Some(1), Some(2998)));
    assert!([2, 1402, 1450].iter().all(|k| !reference.contains(k)), "window keys must be absent");
    for n in [1, 7] {
        assert_matches_reference(&HashStore::hash_sharded(n), 3000, 3000, &windows);
    }
}

#[test]
fn reentrant_callback_writes_its_own_window() {
    // The callback runs while the merge pins every covered shard; writing
    // inside the window from there must neither deadlock nor break order.
    let store = HashStore::hash_sharded(4);
    for k in (0i64..400).step_by(2) {
        assert!(store.insert(k, 0));
    }
    let mut seen = Vec::new();
    store.scan_range(100..=300, |k| {
        seen.push(k);
        // Remove the key just yielded and insert its odd neighbours, one
        // behind and one ahead of the merge.
        assert!(store.remove(&k), "yielded key {k} must still be live");
        store.insert(k - 1, 1);
        store.insert(k + 1, 1);
    });
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {seen:?}");
    assert!(seen.iter().all(|k| (100..=300).contains(k)), "out of window: {seen:?}");
    // Even keys stay live until the scan yields them, so none is missed.
    for k in (100i64..=300).step_by(2) {
        assert!(seen.contains(&k), "continuously live key {k} was missed");
    }
    store.check_invariants();
}
