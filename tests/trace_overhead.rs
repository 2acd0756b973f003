//! Overhead guard for the span layer (DESIGN.md §10): the observability
//! surface must be free when compiled out and cheap when compiled in.
//!
//! Without `--features metrics`, every probe must be a compile-time no-op:
//! zero-sized stamps, no clock reads, empty snapshots and rings no matter
//! what the workload does. With the feature on, the runtime `recording`
//! gate is the contract: a table1-smoke trial with recording enabled may
//! cost at most 10% throughput versus the same build with recording off.

use lo_trees::metrics;
use lo_trees::workload::{prefill, run_trial, Mix, TrialSpec};
use lo_trees::LoAvlMap;
use std::time::Duration;

fn smoke_trial_threads(mix: Mix, threads: usize, millis: u64) -> f64 {
    let spec = TrialSpec::new(mix, 8_192, threads, Duration::from_millis(millis));
    let map = LoAvlMap::new();
    prefill(&map, &spec);
    run_trial(&map, &spec).mops()
}

fn smoke_trial(mix: Mix, millis: u64) -> f64 {
    smoke_trial_threads(mix, 2, millis)
}

#[cfg(not(feature = "metrics"))]
mod compiled_out {
    use super::*;

    /// The zero-cost contract: with the feature off there is nothing to
    /// turn on — stamps are unit structs, `set_recording` is inert, and a
    /// full workload trial leaves no trace state anywhere.
    #[test]
    fn probes_are_inert() {
        const { assert!(!metrics::ENABLED) };
        assert_eq!(
            std::mem::size_of::<metrics::Stamp>(),
            0,
            "no-op Stamp must be zero-sized (it rides in hot structs)"
        );
        metrics::set_recording(true);
        assert!(!metrics::recording(), "recording cannot be enabled without the feature");

        let s = metrics::stamp();
        metrics::span(metrics::Phase::Descent, s);
        let _ = smoke_trial(Mix::C50_I25_R25, 30);

        assert!(metrics::SpanSnapshot::take().is_zero(), "histograms must stay empty");
        assert!(metrics::flight::merged_records().is_empty(), "rings must stay empty");
        assert_eq!(metrics::flight::take_post_mortem(), None);
    }
}

#[cfg(feature = "metrics")]
#[allow(clippy::disallowed_types)] // test gate, not tree-protocol state
mod compiled_in {
    use super::*;
    use std::sync::Mutex;

    /// Both tests below toggle the process-wide recording gate; serialize
    /// them so one test's teardown cannot disarm the other mid-trial.
    static RECORDING_GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        RECORDING_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runtime-gate overhead: recording-off / recording-on table1-smoke
    /// trials, compared by best-of-N with the arm order alternating each
    /// round. The issue's budget: < 10% throughput drop.
    ///
    /// Methodology: shared CI machines throttle and get preempted, so any
    /// single trial (and even a median) can swing by more than the budget
    /// being enforced. Each arm's *best* trial is its least-perturbed run,
    /// and recording overhead slows the best case exactly like every other
    /// case — while alternating the order cancels slow thermal drift. The
    /// comparison converges-or-fails: after a minimum number of rounds the
    /// guard stops as soon as the best-of ratio is inside budget, and only
    /// fails once enough rounds have elapsed that both arms had ample
    /// chances at an unperturbed trial. A real regression (say the ~60%
    /// cost of unsampled tracing with a slow clock) fails every round, so
    /// the extension never masks one. On a box with fewer cores than the
    /// usual two workers, the trial drops to one worker: timesharing two
    /// workers on one core adds scheduler churn that is pure noise for an
    /// overhead ratio.
    ///
    /// The 10% budget is a claim about optimized code; unoptimized builds
    /// inflate the constant-per-span cost (clock reads, histogram updates)
    /// far beyond what any release user sees, so debug builds only get a
    /// loose sanity bound. CI runs this test under `--release` to enforce
    /// the real budget.
    #[test]
    fn recording_costs_less_than_ten_percent() {
        let _gate = gate();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(2))
            .unwrap_or(2);
        let budget = if cfg!(debug_assertions) { 0.50 } else { 0.90 };
        let (min_rounds, max_rounds) = (6, 24);
        let mut off = Vec::new();
        let mut on = Vec::new();
        fn arm(threads: usize, recording: bool, off: &mut Vec<f64>, on: &mut Vec<f64>) {
            metrics::set_recording(recording);
            let mops = smoke_trial_threads(Mix::C70_I20_R10, threads, 60);
            if recording { on.push(mops) } else { off.push(mops) }
        }
        // Warm-up trial so allocator and frequency state settle before
        // either arm is measured.
        let _ = smoke_trial_threads(Mix::C70_I20_R10, threads, 50);
        let best = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
        for round in 0..max_rounds {
            let first_on = round % 2 == 0;
            arm(threads, first_on, &mut off, &mut on);
            arm(threads, !first_on, &mut off, &mut on);
            if round + 1 >= min_rounds && best(&on) >= best(&off) * budget {
                break;
            }
        }
        metrics::set_recording(false);
        let (off, on) = (best(&off), best(&on));
        assert!(
            on >= off * budget,
            "recording overhead exceeds {:.0}%: off {off:.3} Mops/s, on {on:.3} Mops/s",
            (1.0 - budget) * 100.0
        );
    }

    /// A write-heavy mix with recording on must populate the descent
    /// phase and every lock window: each write waits for its interval's
    /// succ lock, and removals wait for tree locks.
    #[test]
    fn write_heavy_mix_populates_lock_windows() {
        let _gate = gate();
        let before = metrics::SpanSnapshot::take();
        metrics::set_recording(true);
        let _ = smoke_trial(Mix::C50_I25_R25, 60);
        metrics::set_recording(false);
        let snap = metrics::SpanSnapshot::take().since(&before);
        for phase in [
            metrics::Phase::Descent,
            metrics::Phase::SuccLockWait,
            metrics::Phase::SuccLockHold,
            metrics::Phase::TreeLockWait,
            metrics::Phase::TreeLockHold,
        ] {
            let h = snap.phase(phase);
            assert!(
                h.count() > 0,
                "write-heavy mix must record {} spans",
                phase.name()
            );
            assert!(
                h.quantile(0.999).is_some(),
                "{} histogram must yield percentiles",
                phase.name()
            );
        }
        assert!(
            !metrics::flight::merged_records().is_empty(),
            "the flight recorder must hold the trial's newest spans"
        );
    }
}
