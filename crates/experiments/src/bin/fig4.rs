//! Regenerates Fig. 4 (congestion control effectiveness).
//!
//! Usage: `fig4 [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{fig4, Scenario, TelemetryOpts};
use ert_network::ProtocolSpec;

fn main() {
    let (mut base, points) = scale_from_args();
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let tables = fig4::run(&base, &points);
    emit(&tables, Some(Path::new("results")));
    TelemetryOpts::from_env().capture(&base, &ProtocolSpec::ert_af());
}

fn scale_from_args() -> (Scenario, Vec<usize>) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    if quick {
        (
            Scenario {
                seeds: (1..=seeds as u64).collect(),
                ..Scenario::quick(1)
            },
            fig4::quick_points(),
        )
    } else {
        (Scenario::paper_default(seeds), fig4::paper_points())
    }
}
