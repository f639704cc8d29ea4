//! Ablation sweeps of the design choices: the forwarding ladder and the
//! `α` / `β` sensitivities.
//!
//! Usage: `ablation [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{ablation, Scenario, TelemetryOpts};

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
            ..Scenario::quick(8)
        }
    } else {
        Scenario::paper_default(seeds)
    };
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let dim_alpha = if quick { 9.0 } else { 11.0 };
    let tables = vec![
        ablation::forwarding_table(&base),
        ablation::alpha_table(&base, &[4.0, 8.0, dim_alpha, 16.0, 24.0]),
        ablation::beta_table(&base, &[0.25, 0.5, 0.75, 1.0]),
        ablation::probe_width_table(&base, &[1, 2, 3, 4]),
    ];
    emit(&tables, Some(Path::new("results")));
    TelemetryOpts::from_env().capture(&base, &ert_network::ProtocolSpec::ert_af());
}
