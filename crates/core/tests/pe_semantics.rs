//! Focused tests for the partially-external ("logical removing") variant's
//! zombie lifecycle: creation, revival, opportunistic cleanup, and the
//! memory bookkeeping the paper's §6 discussion rests on.

use lo_check::rng::Rng;
use lo_core::{LoPeAvlMap, LoPeBstMap};

#[test]
fn zombie_created_only_for_two_children() {
    let m = LoPeBstMap::new();
    // Leaf removal stays physical.
    assert!(m.insert(5i64, 0u64));
    assert!(m.remove(&5));
    assert_eq!(m.zombie_count(), 0);
    assert_eq!(m.physical_node_count(), 0);

    // Single-child removal stays physical.
    assert!(m.insert(5, 0));
    assert!(m.insert(3, 0));
    assert!(m.remove(&5)); // 5 has one child (3)
    assert_eq!(m.zombie_count(), 0);
    assert_eq!(m.physical_node_count(), 1);

    // Two-children removal goes logical.
    assert!(m.insert(5, 0));
    assert!(m.insert(8, 0));
    // Tree shape: 3 -> right 5 -> right 8? Build a guaranteed 2-children
    // node instead: fresh map.
    let m = LoPeBstMap::new();
    for k in [5i64, 3, 8] {
        assert!(m.insert(k, 0u64));
    }
    assert!(m.remove(&5));
    assert_eq!(m.zombie_count(), 1);
    assert_eq!(m.physical_node_count(), 3);
    m.check_invariants_pub();
}

/// The opportunistic cleanup: removing a zombie's child drops it to ≤1
/// children, and the removal's cleanup hook physically removes the zombie.
#[test]
fn zombie_cleaned_up_after_child_removal() {
    let m = LoPeBstMap::new();
    for k in [5i64, 3, 8] {
        assert!(m.insert(k, 0u64));
    }
    assert!(m.remove(&5)); // zombie with children 3 and 8
    assert_eq!(m.zombie_count(), 1);
    // Removing 3 makes the zombie single-childed; the cleanup hook fires.
    assert!(m.remove(&3));
    assert_eq!(m.zombie_count(), 0, "zombie should be cleaned opportunistically");
    assert_eq!(m.len(), 1);
    assert_eq!(m.physical_node_count(), 1);
    m.check_invariants_pub();
}

#[test]
fn revive_then_remove_cycles() {
    let m = LoPeAvlMap::new();
    for k in [50i64, 25, 75, 10, 30, 60, 90] {
        assert!(m.insert(k, k as u64));
    }
    for round in 0..50 {
        assert!(m.remove(&50), "round {round}: remove");
        assert!(!m.contains(&50));
        assert!(!m.remove(&50), "double remove must fail");
        assert!(m.insert(50, round), "round {round}: revive");
        assert_eq!(m.get(&50), Some(round));
    }
    m.check_invariants_pub();
    // At most one zombie can exist for this key at the end (none after the
    // final revive).
    assert_eq!(m.zombie_count(), 0);
}

/// Zombies must be invisible to every read operation.
/// `put` on an absent key inserts it, on a present key swaps its value,
/// and on a zombie key revives the node without reporting a previous value.
#[test]
fn put_on_absent_present_and_zombie_keys() {
    let m = LoPeBstMap::new();
    for k in [50i64, 25, 75] {
        assert_eq!(m.try_insert(k, 0u64), Ok(true));
    }
    assert_eq!(m.try_put(10, 1), Ok(None), "put of an absent key inserts");
    assert_eq!(m.try_put(25, 2), Ok(Some(0)), "put of a present key swaps");
    assert_eq!(m.try_remove(&50), Ok(true));
    assert_eq!(m.zombie_count(), 1, "a two-children removal leaves a zombie");
    assert_eq!(m.try_put(50, 3), Ok(None), "put of a zombie key revives it");
    assert_eq!(m.zombie_count(), 0);
    assert_eq!(m.get(&50), Some(3));
    assert_eq!(m.keys_in_order(), vec![10, 25, 50, 75]);
    m.check_invariants_pub();
}

#[test]
fn zombies_invisible_to_reads() {
    let m = LoPeAvlMap::new();
    for k in [50i64, 25, 75] {
        assert!(m.insert(k, k as u64));
    }
    assert!(m.remove(&50));
    assert_eq!(m.zombie_count(), 1);
    assert!(!m.contains(&50));
    assert_eq!(m.get(&50), None);
    assert_eq!(m.get_with(&50, |v| *v), None);
    assert_eq!(m.keys_in_order(), vec![25, 75]);
    assert_eq!(m.min_key(), Some(25));
    assert_eq!(m.max_key(), Some(75));
    assert_eq!(m.ceiling_key(&40), Some(75), "ceiling must skip the zombie");
    assert_eq!(m.floor_key(&60), Some(25), "floor must skip the zombie");
    assert_eq!(m.range_keys(0..=100), vec![25, 75]);
    assert_eq!(m.len(), 2);
}

/// Concurrent revive/remove churn on a fixed zombie-prone key set must keep
/// exact accounting.
#[test]
fn concurrent_zombie_churn() {
    const OPS: usize = if cfg!(debug_assertions) { 20_000 } else { 80_000 };
    let m = LoPeAvlMap::new();
    // Backbone guaranteeing inner nodes have two children frequently.
    for k in 0..32i64 {
        assert!(m.insert(k, 0u64));
    }
    let nets: Vec<i64> = std::thread::scope(|s| {
        (0..4u64)
            .map(|t| {
                let m = &m;
                s.spawn(move || {
                    let mut rng = Rng::new(0xFACADE ^ (t + 1));
                    let mut net = 0i64;
                    for _ in 0..OPS / 4 {
                        let k = rng.next_below(32) as i64;
                        if rng.next_below(2) == 0 {
                            if m.insert(k, t) {
                                net += 1;
                            }
                        } else if m.remove(&k) {
                            net -= 1;
                        }
                    }
                    net
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let expected = 32 + nets.iter().sum::<i64>();
    assert_eq!(m.len() as i64, expected);
    m.check_invariants_pub();
    // Physical nodes = live + zombies, never less.
    assert!(m.physical_node_count() >= m.len());
    assert_eq!(m.physical_node_count(), m.len() + m.zombie_count());
}

/// Helper so this file reads uniformly (the maps expose the trait method).
trait CheckExt {
    fn check_invariants_pub(&self);
}
impl<T: lo_api::CheckInvariants> CheckExt for T {
    fn check_invariants_pub(&self) {
        self.check_invariants();
    }
}
