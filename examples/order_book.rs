//! A concurrent limit-order-book price index on the **range-sharded
//! store**: price bands are split over LO-tree shards, each in its own
//! epoch domain, so order entry in one band never contends — not even on
//! grace periods — with another band's.
//!
//! Price levels for one side of the book live in a
//! `ShardedStore<Price, Qty, RangePartitioner<Price>>`:
//! * market-data threads hammer `contains`/`get` (lock-free — routed to
//!   one shard, never blocked by a rebalance),
//! * order-entry threads insert and cancel price levels in their band,
//! * the matching engine repeatedly takes the **best price** via the
//!   store-wide `min_key`/`max_key` (min/max over per-shard O(1) minima),
//! * depth snapshots are stitched cross-shard `range_keys` scans that
//!   stay strictly ascending across the band boundaries.
//!
//! Run with: `cargo run --release --example order_book`

use lo_check::rng::Rng;
use lo_trees::store::RangePartitioner;
use lo_trees::ShardedStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

type Price = i64; // ticks
type Qty = u64;
type PriceIndex = ShardedStore<Price, Qty, RangePartitioner<Price>>;

struct Side {
    levels: PriceIndex,
    is_bid: bool,
}

impl Side {
    fn best(&self) -> Option<Price> {
        if self.is_bid {
            self.levels.max_key()
        } else {
            self.levels.min_key()
        }
    }
}

fn main() {
    // Four price bands: [..10_500), [10_500..11_000), [11_000..11_500),
    // [11_500..). A band boundary key (say 11_000) lives on the right-hand
    // shard — the router's half-open contract.
    let asks = Arc::new(Side {
        levels: PriceIndex::range_sharded(vec![10_500, 11_000, 11_500]),
        is_bid: false,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let trades = Arc::new(AtomicU64::new(0));
    let quotes = Arc::new(AtomicU64::new(0));

    // Seed the ask side around 10_000 ticks.
    for p in 0..500i64 {
        asks.levels.insert(10_000 + p * 2, 100);
    }

    let mut handles = Vec::new();

    // Order entry: post and cancel ask levels around the touch.
    for t in 0..2u64 {
        let asks = Arc::clone(&asks);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(0x5EED ^ (t + 1));
            while !stop.load(Ordering::Relaxed) {
                let price = 10_000 + rng.next_below(2_000) as i64;
                if rng.next_below(3) == 0 {
                    asks.levels.remove(&price);
                } else {
                    asks.levels.insert(price, 100 + rng.next_below(400));
                }
            }
        }));
    }

    // Market data: quote lookups (the lock-free hot path) plus a periodic
    // depth-of-book snapshot stitched across the band shards.
    for t in 0..2u64 {
        let asks = Arc::clone(&asks);
        let stop = Arc::clone(&stop);
        let quotes = Arc::clone(&quotes);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(0xFEED ^ (t + 1));
            let mut local = 0u64;
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let price = 10_000 + rng.next_below(2_000) as i64;
                if asks.levels.get(&price).is_some() {
                    local += 1;
                }
                rounds += 1;
                if rounds.is_multiple_of(1024) {
                    // Top-of-book depth across all four bands: one stitched
                    // scan, strictly ascending through shard boundaries.
                    let ladder = asks.levels.range_keys(10_000..=11_999);
                    debug_assert!(ladder.windows(2).all(|w| w[0] < w[1]));
                }
            }
            quotes.fetch_add(local, Ordering::Relaxed);
        }));
    }

    // Matching engine: lift the best ask (min over the shard minima).
    {
        let asks = Arc::clone(&asks);
        let stop = Arc::clone(&stop);
        let trades = Arc::clone(&trades);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Some(best) = asks.best() {
                    // Fill-and-remove the level (price-time priority sketch).
                    if asks.levels.remove(&best) {
                        trades.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("worker");
    }

    let depth = asks.levels.len();
    println!(
        "order_book OK: {} trades matched, {} quote hits, {} resting levels across {} bands, best ask {:?}",
        trades.load(Ordering::Relaxed),
        quotes.load(Ordering::Relaxed),
        depth,
        asks.levels.n_shards(),
        asks.best(),
    );
    // Sanity: the stitched book is a consistent ordered set at quiescence,
    // every level routes to the shard that actually holds it, and the
    // boundary keys sit right of their splits.
    let ladder = asks.levels.keys_in_order();
    assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(ladder.first().copied(), asks.best());
    asks.levels.check_invariants();
}
