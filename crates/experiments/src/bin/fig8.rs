//! Regenerates Fig. 8 (skewed lookups).
//!
//! Usage: `fig8 [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{fig8, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    let (base, services, nodes, keys) = if quick {
        (
            Scenario {
                seeds: (1..=seeds as u64).collect(),
                ..Scenario::quick(4)
            },
            fig8::quick_services(),
            20,
            5,
        )
    } else {
        (
            Scenario::paper_default(seeds),
            fig8::paper_services(),
            100,
            50,
        )
    };
    let mut base = base;
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();
    let sweep = fig8::service_sweep(&base, &services, nodes, keys);
    emit(&fig8::tables(&sweep), Some(Path::new("results")));
    // Capture under the impulse workload so the stream shows the skew.
    let mut impulse = base;
    impulse.workload = ert_experiments::Workload::Impulse { nodes, keys };
    TelemetryOpts::from_env().capture(&impulse, &ert_network::ProtocolSpec::ert_af());
}
