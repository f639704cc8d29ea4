//! Adversarial sweeps (see `ert-adversary`): capacity liars, routing
//! defectors, Sybil swarms, and a query-flood flash crowd, for Base
//! vs. ERT/AF. Writes the `adv_*` panels to `results/`.
//!
//! Usage: `adversarial [--quick] [--seeds K] [--jobs N]
//! [--stream-stats] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{adversarial, cli, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    let mut base = if quick {
        Scenario {
            seeds: (1..=seeds as u64).collect(),
            ..Scenario::quick(17)
        }
    } else {
        // Attacked runs queue harder than honest ones; one notch below
        // full paper scale keeps the sweep laptop-friendly.
        Scenario {
            n: 1024,
            lookups: 2000,
            ..Scenario::paper_default(seeds)
        }
    };
    base.jobs = cli::parse_jobs(&args);
    base.stream_stats = cli::parse_stream_stats(&args);
    emit(
        &adversarial::tables(&base, quick),
        Some(Path::new("results")),
    );
    // The representative instrumented run replays the CI acceptance
    // mix (liars + defectors together) so the stream shows adversary
    // activation, misreport, and defection events.
    let mut hostile = base;
    hostile.adversary = Some(ert_network::AdversaryScript::Mix {
        liar_fraction: 0.2,
        liar_error: 4.0,
        defector_fraction: 0.1,
    });
    TelemetryOpts::from_env().capture(&hostile, &ert_network::ProtocolSpec::ert_af());
}
