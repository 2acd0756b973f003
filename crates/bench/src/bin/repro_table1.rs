//! Reproduces **Table 1** of the paper: throughput of the *balanced*
//! concurrent dictionaries (LO-AVL, LO-AVL-PE "logical removing", BCCO, CF,
//! chromatic, skip list) under the three workload mixes and three key
//! ranges, swept over thread counts.
//!
//! Usage: `cargo run -p lo-bench --release --bin repro-table1`
//! (`LO_FULL=1` for the paper-scale protocol; `LO_TRIAL_MS`, `LO_REPS`,
//! `LO_MAX_THREADS`, `LO_RANGES`, `LO_ALGOS` to fine-tune. `--metrics`
//! additionally emits per-trial event telemetry — build with
//! `--features metrics` so the counters are actually recorded.
//! `--summary-json` appends a machine-readable run, labelled by
//! `LO_SUMMARY_LABEL`, to `BENCH_throughput.json`. `--trace` records the
//! hot-path flight recorder — build with `--features metrics` — and
//! `--trace-out PATH` writes it as Perfetto-loadable Chrome Trace JSON.)

use lo_bench::{
    emit, emit_metrics, emit_summary_json, emit_trace, filter_algos, metrics_flag,
    render_phase_table, run_panel_with_metrics, summary_json_flag, trace_flag, trace_out, Algo,
    Scale,
};
use lo_workload::Mix;

fn main() {
    let want_metrics = metrics_flag();
    let want_summary = summary_json_flag();
    let want_trace = trace_flag();
    if want_trace {
        lo_metrics::set_recording(true);
    }
    let scale = Scale::from_env();
    let algos = filter_algos(Algo::table1());
    eprintln!(
        "Table 1: {:?} trials x{} reps, threads {:?}, ranges {:?}",
        scale.trial, scale.reps, scale.threads, scale.ranges
    );
    let mut panels = Vec::new();
    let mut metrics = Vec::new();
    // 10c-60i-30r is an update-dominated extension of the paper's mixes:
    // it stresses the writers' lock windows.
    for mix in [Mix::C10_I60_R30, Mix::C50_I25_R25, Mix::C70_I20_R10, Mix::C100] {
        for &range in &scale.ranges {
            let (panel, m) = run_panel_with_metrics(mix, range, &algos, &scale);
            panels.push(panel);
            metrics.push(m);
        }
    }
    emit(&panels, "table1_balanced");
    if want_summary {
        emit_summary_json(&panels, "table1_balanced");
    }
    if want_metrics {
        emit_metrics(&metrics, "table1_balanced_metrics");
    }
    if want_trace {
        lo_metrics::set_recording(false);
        println!("### lock windows and hot-path phases (trace)");
        print!("{}", render_phase_table(&lo_metrics::SpanSnapshot::take()));
        emit_trace(&trace_out());
    }
}
