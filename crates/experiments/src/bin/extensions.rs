//! Extension experiments beyond the paper's figures: Zipf popularity,
//! drifting hot sets, and anonymity-mode data forwarding.
//!
//! Usage: `extensions [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{extensions, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });
    let mut base = if quick {
        Scenario {
            seeds: (1..=seeds as u64).collect(),
            ..Scenario::quick(9)
        }
    } else {
        Scenario::paper_default(seeds)
    };
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let (keys, epoch) = if quick { (20, 100) } else { (100, 500) };
    let tables = vec![
        extensions::zipf_table(&base, &[0.0, 0.6, 1.0, 1.4], keys),
        extensions::shifting_hotspot_table(&base, keys, 1.0, epoch),
        extensions::anonymity_table(&base),
        extensions::utilization_table(&base),
        extensions::item_movement_table(&base),
        extensions::stabilization_table(&base, 0.3),
        ert_experiments::chord::cross_overlay_table(&base),
    ];
    emit(&tables, Some(Path::new("results")));
    TelemetryOpts::from_env().capture(&base, &ert_network::ProtocolSpec::ert_af());
}
