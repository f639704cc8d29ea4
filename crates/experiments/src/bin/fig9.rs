//! Regenerates Fig. 9 (congestion under churn).
//!
//! Usage: `fig9 [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{fig9, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });
    let (base, ias) = if quick {
        (
            Scenario {
                seeds: (1..=seeds as u64).collect(),
                ..Scenario::quick(5)
            },
            fig9::quick_interarrivals(),
        )
    } else {
        (Scenario::paper_default(seeds), fig9::paper_interarrivals())
    };
    let mut base = base;
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let sweep = fig9::churn_sweep(&base, &ias);
    emit(&fig9::tables(&sweep), Some(Path::new("results")));
    // The representative instrumented run keeps the churn workload so
    // the stream shows join/depart/handoff events too.
    let mut churned = base;
    churned.churn = Some(ert_experiments::ChurnSpec {
        join_interarrival: ias[0],
        leave_interarrival: ias[0],
    });
    TelemetryOpts::from_env().capture(&churned, &ert_network::ProtocolSpec::ert_af());
}
