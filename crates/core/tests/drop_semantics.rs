//! Memory lifecycle tests: every value inserted into a tree must be dropped
//! exactly once — whether it left via `remove`, via value replacement
//! (`put`), or by the tree being dropped. Retired garbage is freed by the
//! epoch collector, so the assertions drain it by flushing pinned guards.
//!
//! Each map lives in its own epoch domain, drained through that domain: a
//! thread of a concurrently running test that is descheduled while pinned
//! would otherwise hold back the shared global epoch for the whole drain.

use lo_check::rng::Rng;
use lo_core::{EpochDomain, LoAvlMap, LoBstMap, LoPeAvlMap, LoPeBstMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A value that counts its own drops.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Waits for `domain`'s collector to drain deferred destructions.
fn drain_epoch(domain: &EpochDomain) {
    for _ in 0..256 {
        domain.pin().flush();
    }
}

/// `drops` must reach `expected` once `domain` drains; retries a few times
/// to absorb scheduling noise.
#[track_caller]
fn assert_drops(domain: &EpochDomain, drops: &AtomicUsize, expected: usize) {
    for _ in 0..100 {
        drain_epoch(domain);
        if drops.load(Ordering::SeqCst) == expected {
            return;
        }
        std::thread::yield_now();
    }
    assert_eq!(drops.load(Ordering::SeqCst), expected, "value drops after drain");
}

macro_rules! drop_suite {
    ($mod_name:ident, $ty:ident) => {
        mod $mod_name {
            use super::*;

            #[test]
            fn values_dropped_once() {
                // Clones of `Counted` share the counter; only the total
                // matters: inserted N values (each a fresh clone) → N drops
                // after everything is gone.
                let drops = Arc::new(AtomicUsize::new(0));
                let domain = EpochDomain::new();
                let mut created = 0usize;
                {
                    let m = $ty::new_in(domain.clone());
                    // Insert 64 values.
                    for k in 0..64i64 {
                        assert!(m.insert(k, Counted(Arc::clone(&drops))));
                        created += 1;
                    }
                    // Remove half (on-time or zombie path, depending on the
                    // variant — either way the value is retired or kept
                    // until revive/teardown).
                    for k in 0..32i64 {
                        assert!(m.remove(&k));
                    }
                    // Reinsert a few removed keys (revive path in PE mode).
                    for k in 0..8i64 {
                        assert!(m.insert(k, Counted(Arc::clone(&drops))));
                        created += 1;
                    }
                    // Failed inserts drop their value immediately (the
                    // caller keeps ownership semantics simple: pass-by-value).
                    // Map drop tears down the rest.
                }
                assert_drops(&domain, &drops, created);
            }

            #[test]
            fn put_drops_replaced_values() {
                let drops = Arc::new(AtomicUsize::new(0));
                let domain = EpochDomain::new();
                let m = $ty::new_in(domain.clone());
                assert!(m.put(1i64, Counted(Arc::clone(&drops))).is_none());
                for _ in 0..20 {
                    // Each put returns a clone of the old value (dropped at
                    // end of statement) and displaces the original: the
                    // first value lives in its node, the others are boxed.
                    let old = m.put(1i64, Counted(Arc::clone(&drops)));
                    assert!(old.is_some());
                }
                // Removing the key frees its node, and with it the first
                // value, while the map is still alive.
                assert!(m.remove(&1));
                // 21 stored values + 20 returned clones.
                assert_drops(&domain, &drops, 21 + 20);
            }

            #[test]
            fn hammered_map_leaks_nothing() {
                let drops = Arc::new(AtomicUsize::new(0));
                let created = Arc::new(AtomicUsize::new(0));
                let domain = EpochDomain::new();
                {
                    let m = $ty::new_in(domain.clone());
                    std::thread::scope(|s| {
                        // Joined explicitly: unlike the scope's implicit
                        // join, `join` also waits for the thread-local
                        // destructors that hand a thread's unfreed garbage
                        // to its collector.
                        let hammers: Vec<_> = (0..3u64).map(|t| {
                            let m = &m;
                            let drops = Arc::clone(&drops);
                            let created = Arc::clone(&created);
                            s.spawn(move || {
                                let mut rng = Rng::new(0xD0_0D ^ (t + 1));
                                for _ in 0..5_000 {
                                    let k = rng.next_below(64) as i64;
                                    if rng.next_below(2) == 0 {
                                        created.fetch_add(1, Ordering::SeqCst);
                                        // Failed inserts drop the value
                                        // immediately — still one drop.
                                        let _ = m.insert(k, Counted(Arc::clone(&drops)));
                                    } else {
                                        let _ = m.remove(&k);
                                    }
                                }
                            })
                        }).collect();
                        for h in hammers {
                            h.join().expect("hammer thread panicked");
                        }
                    });
                }
                assert_drops(&domain, &drops, created.load(Ordering::SeqCst));
            }
        }
    };
}

drop_suite!(avl, LoAvlMap);
drop_suite!(bst, LoBstMap);
drop_suite!(pe_avl, LoPeAvlMap);
drop_suite!(pe_bst, LoPeBstMap);
