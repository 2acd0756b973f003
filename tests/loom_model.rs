//! Bounded model checking of the tree operations (loom-style, run with
//! `--features lockdep`): small thread counts over small key sets, driven
//! through many seeded interleavings by the [`lo_check::sched`] scheduler.
//!
//! The lockdep pause points inside `lo-core` (lock acquisition hooks and
//! descent/chase loops) become context-switch opportunities, so each seed
//! explores a different interleaving of the *interesting* moments of the
//! protocol. Every run is checked three ways:
//!
//! 1. the lockdep ledger panics on any §5.1 lock-order violation or
//!    acquired-before cycle (panic-on-violation is the thread default),
//! 2. the recorded operation history must be linearizable (exhaustive WGL
//!    check — the histories are kept tiny), and
//! 3. the final abstract state must match a sequential replay of some
//!    linearization (implied by 2; we additionally spot-check membership).

#![cfg(feature = "lockdep")]

use lo_check::lin::{is_linearizable, CompletedOp, LinOp, Recorder};
use lo_check::sched::Scheduler;
use lo_trees::{LoAvlMap, LoPeAvlMap};
use std::sync::OnceLock;

use lo_api::ConcurrentMap;
#[allow(clippy::disallowed_types)] // history recorder, not tree-protocol state
use std::sync::{Arc, Mutex};

const SEEDS: u64 = if cfg!(debug_assertions) { 48 } else { 96 };

/// Runs `workers` (scripted op lists) under one seeded schedule against a
/// fresh map from `make`, returning the merged timed history.
fn run_scripted<M>(
    make: impl Fn() -> Arc<M>,
    prefill: &[i64],
    scripts: Vec<Vec<(LinOp, i64)>>,
    seed: u64,
) -> (Arc<M>, Vec<CompletedOp>)
where
    M: ConcurrentMap<i64, u64> + Send + Sync + 'static,
{
    let map = make();
    let mut initial = 0u64;
    for &k in prefill {
        assert!(map.insert(k, k as u64));
        initial |= 1 << k;
    }
    let recorder = Arc::new(Recorder::new());
    #[allow(clippy::disallowed_types)] // history recorder, not tree-protocol state
    let history = Arc::new(Mutex::new(Vec::new()));
    let sched = Scheduler::new(scripts.len(), seed, 3);
    let workers: Vec<Box<dyn FnOnce() + Send>> = scripts
        .into_iter()
        .map(|script| {
            let map = Arc::clone(&map);
            let recorder = Arc::clone(&recorder);
            let history = Arc::clone(&history);
            Box::new(move || {
                let mut out = Vec::with_capacity(script.len());
                for (op, k) in script {
                    let rec = recorder.record(op, k as u8, || match op {
                        LinOp::Insert => map.insert(k, k as u64),
                        LinOp::Remove => map.remove(&k),
                        LinOp::Contains => map.contains(&k),
                    });
                    out.push(rec);
                }
                history.lock().unwrap().extend(out);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    sched.run(workers);
    let mut h = std::mem::take(&mut *history.lock().unwrap());
    h.sort_by_key(|c| c.invoke);
    let initial_mask = initial;
    assert!(
        is_linearizable(&h, initial_mask),
        "non-linearizable history under seed {seed}: {h:#?} (initial {initial_mask:#b})"
    );
    (map, h)
}

/// Basic mixed insert/remove/contains interleavings: 3 threads over 4 keys.
#[test]
fn avl_insert_remove_contains_interleavings() {
    use LinOp::{Contains, Insert, Remove};
    for seed in 0..SEEDS {
        let (map, _) = run_scripted(
            || Arc::new(LoAvlMap::new()),
            &[1, 2],
            vec![
                vec![(Insert, 3), (Remove, 1), (Contains, 2)],
                vec![(Remove, 2), (Insert, 0), (Contains, 3)],
                vec![(Contains, 1), (Insert, 2), (Remove, 3)],
            ],
            seed,
        );
        // Keys 0 and (net effect of the 2-races) stay internally consistent;
        // key 1 was removed exactly once and never re-inserted.
        assert!(map.contains(&0));
        assert!(!map.contains(&1));
    }
}

/// Two-children relocation (paper Figure 1 / §4.4): key 1 sits at the top
/// with both children present, so `remove(1)` must relocate its successor
/// while lookups and inserts race it. The logical-ordering lookup must never
/// miss the relocated successor.
#[test]
fn avl_two_children_relocation_interleavings() {
    use LinOp::{Contains, Insert, Remove};
    for seed in 0..SEEDS {
        let (map, h) = run_scripted(
            || Arc::new(LoAvlMap::new()),
            &[1, 0, 2],
            vec![
                vec![(Remove, 1), (Contains, 2)],
                vec![(Contains, 2), (Contains, 0), (Insert, 3)],
            ],
            seed,
        );
        assert!(!map.contains(&1) && map.contains(&0) && map.contains(&2) && map.contains(&3));
        // The successor of the removed top node was present throughout:
        // every contains(2) must have answered `true`.
        for c in &h {
            if c.op == Contains && c.key == 2 {
                assert!(c.result, "contains(2) missed the relocated successor (seed {seed})");
            }
        }
    }
}

/// Zombie revive (paper §4.6, partially-external trees): `remove(1)` only
/// marks the two-child node 1 as a zombie; a racing `insert(1)` must either
/// beat the removal (insert fails, remove succeeds) or revive the zombie
/// (remove succeeds, insert succeeds) — and the final state must agree with
/// the linearization order.
#[test]
fn pe_zombie_revive_interleavings() {
    use LinOp::{Contains, Insert, Remove};
    for seed in 0..SEEDS {
        let (map, h) = run_scripted(
            || Arc::new(LoPeAvlMap::new()),
            &[1, 0, 2],
            vec![
                vec![(Remove, 1), (Contains, 1)],
                vec![(Insert, 1), (Contains, 0)],
            ],
            seed,
        );
        let removed = h.iter().find(|c| c.op == Remove && c.key == 1).unwrap().result;
        let inserted = h.iter().find(|c| c.op == Insert && c.key == 1).unwrap().result;
        assert!(removed, "key 1 was prefilled; remove must succeed (seed {seed})");
        // insert succeeded iff it ran after the removal (revive); the final
        // membership of key 1 must match.
        assert_eq!(
            map.contains(&1),
            inserted,
            "final membership of key 1 disagrees with the revive outcome (seed {seed})"
        );
        assert!(map.contains(&0) && map.contains(&2));
    }
}

/// The PE zombie cleanup path: removing a two-child node leaves a zombie;
/// removing its children afterwards lets the deferred physical unlink run.
/// Raced against lookups over many schedules.
#[test]
fn pe_zombie_cleanup_interleavings() {
    use LinOp::{Contains, Remove};
    for seed in 0..SEEDS {
        let (map, _) = run_scripted(
            || Arc::new(LoPeAvlMap::new()),
            &[1, 0, 2],
            vec![
                vec![(Remove, 1), (Remove, 0), (Remove, 2)],
                vec![(Contains, 0), (Contains, 1), (Contains, 2)],
            ],
            seed,
        );
        assert!(!map.contains(&0) && !map.contains(&1) && !map.contains(&2));
    }
}

/// A get racing the switch from a key's inline value to a boxed one, and
/// from that box to the next: over `{1: 1}`, one worker runs `put(1, 2)`
/// (displacing the inline value) then `put(1, 3)` (displacing a box), and
/// the other runs `get(1)` twice. Each get must return 1, 2 or 3, the
/// second never older than the first, and the puts `Some(1)` then
/// `Some(2)`.
#[test]
fn get_races_inline_and_boxed_value_swaps() {
    for seed in 0..SEEDS {
        let map = Arc::new(LoAvlMap::new());
        assert!(map.insert(1i64, 1u64));
        let gets = Arc::new(OnceLock::new());
        let puts = Arc::new(OnceLock::new());
        let workers: Vec<Box<dyn FnOnce() + Send>> = vec![
            {
                let (map, gets) = (Arc::clone(&map), Arc::clone(&gets));
                Box::new(move || gets.set([map.get(&1), map.get(&1)]).unwrap())
            },
            {
                let (map, puts) = (Arc::clone(&map), Arc::clone(&puts));
                Box::new(move || puts.set([map.put(1, 2), map.put(1, 3)]).unwrap())
            },
        ];
        Scheduler::new(2, seed, 3).run(workers);
        let [first, second] = gets.get().expect("the get worker ran").map(|v| {
            v.expect("key 1 is never absent")
        });
        assert!(
            (1..=3).contains(&first) && (1..=3).contains(&second),
            "seed {seed}: gets {first}, {second}"
        );
        assert!(first <= second, "seed {seed}: the second get {second} is older than {first}");
        assert_eq!(*puts.get().expect("the put worker ran"), [Some(1), Some(2)], "seed {seed}");
        assert_eq!(map.get(&1), Some(3), "seed {seed}");
    }
}

/// A pop racing a `put` of the key it pops: prefill `{1: 1}`; one worker
/// pops, the other runs `put(1, 2)`. The pop must return the value its
/// removal unlinked, so only two outcomes linearize:
/// - the pop first: it returns `(1, 1)`, the put inserts afresh (`None`),
///   and the map ends as `{1: 2}`;
/// - the put first: it returns `Some(1)`, the pop returns `(1, 2)`, and the
///   map ends empty.
#[test]
fn pop_returns_the_value_it_removed() {
    type Pop = fn(&LoAvlMap<i64, u64>) -> Option<(i64, u64)>;
    let pops: [(&str, Pop); 2] = [("pop_min", LoAvlMap::pop_min), ("pop_max", LoAvlMap::pop_max)];
    for (name, pop) in pops {
        for seed in 0..SEEDS {
            let map = Arc::new(LoAvlMap::new());
            assert!(map.insert(1i64, 1u64));
            let popped = Arc::new(OnceLock::new());
            let put = Arc::new(OnceLock::new());
            let workers: Vec<Box<dyn FnOnce() + Send>> = vec![
                {
                    let (map, popped) = (Arc::clone(&map), Arc::clone(&popped));
                    Box::new(move || popped.set(pop(&map)).unwrap())
                },
                {
                    let (map, put) = (Arc::clone(&map), Arc::clone(&put));
                    Box::new(move || put.set(map.put(1, 2)).unwrap())
                },
            ];
            Scheduler::new(2, seed, 3).run(workers);
            let outcome = (popped.get().copied().flatten(), put.get().copied().flatten());
            let rest: Vec<(i64, Option<u64>)> =
                map.keys_in_order().into_iter().map(|k| (k, map.get(&k))).collect();
            match outcome {
                (Some((1, 1)), None) => assert_eq!(rest, [(1, Some(2))], "seed {seed}"),
                (Some((1, 2)), Some(1)) => assert!(rest.is_empty(), "seed {seed}: {rest:?}"),
                other => panic!(
                    "non-linearizable {name}/put outcome under seed {seed}: \
                     (pop, put) = {other:?}, final map {rest:?}"
                ),
            }
        }
    }
}
