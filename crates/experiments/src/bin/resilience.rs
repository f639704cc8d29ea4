//! Resilience sweep under injected faults (see `ert-faults`): lookup
//! survival and recovery overhead for Base vs. ERT/AF as chaos
//! intensity rises.
//!
//! Usage: `resilience [--quick] [--seeds K] [--jobs N] [--faults <intensity>]
//! [--telemetry <path.jsonl>] [--sample-interval <secs>] [--trace <N>]`
//!
//! `--faults` pins a single intensity instead of the default sweep.

use std::path::Path;

use ert_experiments::report::emit;
use ert_experiments::{cli, resilience, Scenario, TelemetryOpts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 3 });
    let base = if quick {
        Scenario {
            seeds: (1..=seeds as u64).collect(),
            ..Scenario::quick(13)
        }
    } else {
        // Faulted runs retry with backoff, so keep the sweep a notch
        // below full paper scale to stay laptop-friendly.
        Scenario {
            n: 1024,
            lookups: 2000,
            ..Scenario::paper_default(seeds)
        }
    };
    let mut base = base;
    base.jobs = cli::parse_jobs(&args);
    base.stream_stats = cli::parse_stream_stats(&args);
    let intensities = match cli::parse_faults(&args) {
        Some(x) => vec![x],
        None => resilience::intensities(quick),
    };
    let sweep = resilience::resilience_sweep(&base, &intensities);
    emit(&resilience::tables(&sweep), Some(Path::new("results")));
    // The representative instrumented run keeps the chaos schedule and
    // the sweep's retry policy so the stream shows fault, retry, and
    // failure events and reproduces the sweep's ERT/AF data point.
    let mut chaotic = base;
    chaotic.chaos = intensities.iter().copied().find(|&x| x > 0.0);
    TelemetryOpts::from_env().capture_with(&chaotic, &ert_network::ProtocolSpec::ert_af(), |cfg| {
        cfg.retry = ert_network::RetryPolicy::standard();
    });
}
