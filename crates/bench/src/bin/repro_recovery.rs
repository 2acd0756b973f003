//! Extension experiment: **online recovery latency** — how long does
//! `try_recover` take to bring a poisoned tree of `n` keys back to
//! `Health::Writable`?
//!
//! Each cell prefills a fresh logical-ordering map with `n` keys, kills a
//! remove inside its post-mark window with a one-shot failpoint panic
//! (poisoning the tree exactly as a real mid-write death would), then
//! times the full quarantine → audit → repair → verify → resume pipeline.
//! The stranded mark damages the layout, so every cell measures the
//! in-place rebuild from the surviving ordering chain.
//!
//! With `--summary-json`, rows land in `BENCH_throughput.json` keyed
//! `recovery/<algo>/<n>`. Like the `latency/` rows, the value in
//! `ops_per_us_mean` is a **latency in nanoseconds**; the `recovery/`
//! config prefix marks the unit switch.
//!
//! Usage: `cargo run -p lo-bench --release --features failpoints --bin
//! repro-recovery`. Without `lo-core/failpoints` the kill cannot fire;
//! the binary detects that and exits cleanly so no-op CI builds stay
//! green. `LO_RANGES`/`LO_REPS` rescale as usual.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lo_bench::{emit_summary_rows, summary_json_flag, Scale, SummaryRow};
use lo_check::fail::{
    activate, silence_injected_panics, take_injected_panic, FailPoint, FaultPlan,
};
use lo_check::rng::Rng;
use lo_core::{FallibleMap, Health, LoAvlMap, LoBstMap, LoPeAvlMap, RecoveryReport};

/// Poisons `map` (prefilled with `n` keys) via a one-shot panic in the
/// post-mark remove window (`RemoveAfterMark`, or its partially-external
/// flavor `PeAfterMark`). A PE removal of a two-children key only turns
/// the node zombie and crosses neither window, so the victim walks
/// forward until a remove takes the physical path. Returns false when
/// injection is compiled out.
fn poison<M: FallibleMap<i64, u64>>(map: &M, n: u64, seed: u64) -> bool {
    let session = activate(
        FaultPlan::new(seed)
            .panic_at(FailPoint::RemoveAfterMark)
            .panic_at(FailPoint::PeAfterMark),
    );
    let mut died = false;
    for k in 0..n.min(64) {
        let victim = ((n / 2 + k) % n) as i64;
        died = catch_unwind(AssertUnwindSafe(|| {
            let _ = map.try_remove(&victim);
        }))
        .is_err();
        if died || !matches!(map.health(), Health::Writable) {
            break;
        }
    }
    drop(session);
    let _ = take_injected_panic();
    died && matches!(map.health(), Health::Poisoned(_))
}

/// One (algorithm, n) cell: `reps` kill→recover cycles on fresh
/// maps, each timing `try_recover` alone. Returns (mean_ns, stddev_ns) and
/// the last report, or None when injection is compiled out.
fn cell<M, F>(make: F, n: u64, reps: usize) -> Option<(f64, f64, RecoveryReport)>
where
    M: FallibleMap<i64, u64>,
    F: Fn() -> M,
{
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    // Shuffled prefill: sequential keys would degenerate the unbalanced
    // BST variants into an O(n²) chain before the clock even starts.
    let mut keys: Vec<i64> = (0..n as i64).collect();
    let mut rng = Rng::new(0x5EED ^ n);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    for rep in 0..reps {
        let map = make();
        for &k in &keys {
            map.try_insert(k, k as u64).expect("prefill on a healthy map");
        }
        if !poison(&map, n, 0xBE9C + rep as u64) {
            return None;
        }
        let t0 = Instant::now();
        let report = map.try_recover().expect("recovery of a freshly poisoned map");
        let dt = t0.elapsed();
        assert_eq!(map.health(), Health::Writable, "recovered map must be writable");
        samples.push(dt.as_nanos() as f64);
        last = Some(report);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var =
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
    Some((mean, var.sqrt(), last.expect("reps >= 1")))
}

fn main() {
    // The injected kill fires once per cell; keep its panic report out of
    // the table for the whole run. Everything else still reaches the
    // default hook.
    let _ = silence_injected_panics();
    let scale = Scale::from_env();
    let want_summary = summary_json_flag();
    println!("### online recovery latency (try_recover to Health::Writable), reps {}", scale.reps);
    println!(
        "{:<12}{:>10}  {:<12}{:>14}{:>12}{:>10}",
        "algorithm", "n", "strategy", "mean", "sd", "salvaged"
    );

    let mut rows: Vec<SummaryRow> = Vec::new();
    for &n in &scale.ranges {
        // (label, runner) per map flavor; monomorphized through the closure.
        let mut run = |label: &str, out: Option<(f64, f64, RecoveryReport)>| {
            let Some((mean, sd, report)) = out else {
                eprintln!("failpoints are compiled out (build with --features failpoints); \
                           nothing to measure");
                std::process::exit(0);
            };
            let strategy = format!("{:?}", report.strategy);
            println!(
                "{label:<12}{n:>10}  {strategy:<12}{:>12}ns{:>10}ns{:>10}",
                mean as u64, sd as u64, report.nodes_salvaged
            );
            rows.push(SummaryRow {
                config: format!("recovery/{label}/{n}"),
                threads: 1,
                mean,
                stddev: sd,
                reps: scale.reps,
            });
        };
        run("lo-avl", cell(LoAvlMap::new, n, scale.reps));
        run("lo-avl-pe", cell(LoPeAvlMap::new, n, scale.reps));
        run("lo-bst", cell(LoBstMap::new, n, scale.reps));
    }

    if want_summary {
        emit_summary_rows(&rows, "recovery");
    }
}
