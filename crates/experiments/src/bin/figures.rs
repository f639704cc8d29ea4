//! Regenerates **every** figure and theorem table of the paper in one
//! run, writing CSVs to `results/`.
//!
//! Usage: `figures [--quick] [--seeds K] [--jobs N] [--telemetry <path.jsonl>]
//! [--sample-interval <secs>] [--trace <N>]`
//!
//! At paper scale (n = 2048, 3000 lookups, Table 2 defaults) expect a
//! few minutes in release mode; `--quick` runs a reduced version in
//! seconds.

use std::path::Path;
use std::time::Instant;

use ert_core::ErtParams;
use ert_experiments::report::emit;
use ert_experiments::{
    bounds, fig10, fig4, fig5, fig6, fig7, fig8, fig9, thm41, Scenario, TelemetryOpts,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });
    let results = Path::new("results");
    // Wall-clock here is progress reporting for the operator, not sim
    // state — binaries are exempt from rule D1 (clippy.toml / ert-lint).
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();

    let mut base = if quick {
        Scenario {
            seeds: (1..=seeds as u64).collect(),
            ..Scenario::quick(7)
        }
    } else {
        Scenario::paper_default(seeds)
    };
    base.jobs = ert_experiments::cli::jobs_from_env();
    base.stream_stats = ert_experiments::cli::stream_stats_from_env();

    // Figs. 4, 5a, 7 share the lookup-count sweep.
    let points = if quick {
        fig4::quick_points()
    } else {
        fig4::paper_points()
    };
    eprintln!("[figures] lookup sweep ({} points)...", points.len());
    let sweep = fig4::lookup_sweep(&base, &points);
    emit(&fig4::tables(&sweep), Some(results));
    let svc_axis = if quick {
        vec![0.1, 0.6]
    } else {
        vec![0.1, 0.6, 1.1, 1.6, 2.1]
    };
    emit(
        &[fig4::service_time_variant(&base, &svc_axis)],
        Some(results),
    );
    emit(&[fig5::table_5a(&sweep)], Some(results));
    emit(&fig7::tables(&sweep), Some(results));

    // Fig. 5b/5c.
    let sizes = if quick {
        fig5::quick_sizes()
    } else {
        fig5::paper_sizes()
    };
    eprintln!("[figures] network-size sweep ({} sizes)...", sizes.len());
    emit(
        &[fig5::table_5b(&base, &sizes), fig5::table_5c(&base)],
        Some(results),
    );

    // Introduction: consistent-hashing imbalance.
    let sizes: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        vec![128, 512, 2048, 8192]
    };
    emit(
        &[ert_experiments::intro::imbalance_table(&sizes, 3)],
        Some(results),
    );

    // Fig. 6 (structural census).
    eprintln!("[figures] cycloid census...");
    let dims: Vec<u8> = if quick {
        vec![4, 5, 6]
    } else {
        vec![6, 7, 8, 9, 10]
    };
    emit(
        &[
            fig6::summary_table(&dims, true, 8),
            fig6::histogram_table(if quick { 5 } else { 8 }, true, 8),
        ],
        Some(results),
    );

    // Fig. 8 (skewed lookups).
    let services = if quick {
        fig8::quick_services()
    } else {
        fig8::paper_services()
    };
    let (inodes, ikeys) = if quick { (20, 5) } else { (100, 50) };
    eprintln!(
        "[figures] impulse sweep ({} service times)...",
        services.len()
    );
    let isweep = fig8::service_sweep(&base, &services, inodes, ikeys);
    emit(&fig8::tables(&isweep), Some(results));

    // Figs. 9 & 10 share the churn sweep.
    let ias = if quick {
        fig9::quick_interarrivals()
    } else {
        fig9::paper_interarrivals()
    };
    eprintln!("[figures] churn sweep ({} interarrivals)...", ias.len());
    let csweep = fig9::churn_sweep(&base, &ias);
    emit(&fig9::tables(&csweep), Some(results));
    emit(&fig10::tables(&csweep), Some(results));

    // Theorem 4.1 / Lemma A.1.
    eprintln!("[figures] supermarket model...");
    let (lambdas, n, horizon) = if quick {
        (thm41::quick_lambdas(), 200, 800.0)
    } else {
        (thm41::paper_lambdas(), 500, 2000.0)
    };
    emit(
        &[
            thm41::expected_time_table(&lambdas, n, horizon, 41),
            thm41::fixed_point_table(0.9, 2),
        ],
        Some(results),
    );

    // Theorems 3.1 / 3.2.
    eprintln!("[figures] degree bounds...");
    let (bn, blookups) = if quick { (128, 250) } else { (2048, 3000) };
    let (t31a, ok1) = bounds::theorem31_check(bn, 1.0, 51);
    let (t31b, ok2) = bounds::theorem31_check(bn, 1.5, 52);
    let (t32, ok3) = bounds::theorem32_convergence(
        &[
            (50.0, 0.5),
            (10.0, 1.0),
            (100.0, 0.25),
            (5.0, 2.0),
            (30.0, 0.1),
        ],
        &ErtParams::default(),
    );
    let t32n = bounds::theorem32_check(bn, blookups, 53);
    emit(&[t31a, t31b, t32, t32n], Some(results));
    assert!(ok1 && ok2 && ok3, "a theorem bound was violated");

    TelemetryOpts::from_env().capture(&base, &ert_network::ProtocolSpec::ert_af());

    eprintln!("[figures] done in {:.1}s", started.elapsed().as_secs_f64());
}
