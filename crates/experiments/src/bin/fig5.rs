//! Regenerates Fig. 5 (lookup efficiency).
//!
//! Usage: `fig5 [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{fig4, fig5, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    let (base, points, sizes) = if quick {
        (
            Scenario {
                seeds: (1..=seeds as u64).collect(),
                ..Scenario::quick(2)
            },
            fig4::quick_points(),
            fig5::quick_sizes(),
        )
    } else {
        (
            Scenario::paper_default(seeds),
            fig4::paper_points(),
            fig5::paper_sizes(),
        )
    };
    let mut base = base;
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let sweep = fig4::lookup_sweep(&base, &points);
    let tables = vec![
        fig5::table_5a(&sweep),
        fig5::table_5b(&base, &sizes),
        fig5::table_5c(&base),
    ];
    emit(&tables, Some(Path::new("results")));
    TelemetryOpts::from_env().capture(&base, &ert_network::ProtocolSpec::ert_af());
}
