//! Validates Theorem 4.1 (exponential improvement of b-way forwarding)
//! and Lemma A.1 (the fixed point) against the supermarket model.
//!
//! Usage: `thm41 [--quick] [--jobs N]`

use std::path::Path;

use ert_experiments::report::{emit, Table};
use ert_experiments::thm41;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = ert_experiments::cli::parse_jobs(&args).unwrap_or_else(ert_par::default_jobs);
    let (lambdas, n, horizon) = if quick {
        (thm41::quick_lambdas(), 200, 800.0)
    } else {
        (thm41::paper_lambdas(), 500, 2000.0)
    };
    // Three independent validations; fan them out (canonical order
    // keeps the emitted CSVs byte-identical to a sequential run).
    let builds: Vec<(String, Box<dyn FnOnce() -> Table + Send>)> = vec![
        (
            "expected time".into(),
            Box::new(move || thm41::expected_time_table(&lambdas, n, horizon, 41)),
        ),
        (
            "fixed point b=2".into(),
            Box::new(|| thm41::fixed_point_table(0.9, 2)),
        ),
        (
            "fixed point b=1".into(),
            Box::new(|| thm41::fixed_point_table(0.9, 1)),
        ),
    ];
    let tables: Vec<Table> = ert_par::run_labeled(jobs, builds)
        .into_iter()
        .map(|o| o.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    emit(&tables, Some(Path::new("results")));
}
