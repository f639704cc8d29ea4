//! Regenerates Fig. 6 (the plain-Cycloid indegree census).
//!
//! Usage: `fig6 [--quick] [--jobs N]`

use std::path::Path;

use ert_experiments::fig6;
use ert_experiments::report::{emit, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = ert_experiments::cli::parse_jobs(&args).unwrap_or_else(ert_par::default_jobs);
    let dims: Vec<u8> = if quick {
        vec![4, 5, 6]
    } else {
        vec![6, 7, 8, 9, 10]
    };
    let detail_dim = if quick { 5 } else { 8 };
    // The census and the histogram are independent builds; fan them out
    // (canonical order keeps the emitted CSVs byte-identical).
    let builds: Vec<(String, Box<dyn FnOnce() -> Table + Send>)> = vec![
        (
            "summary".into(),
            Box::new(move || fig6::summary_table(&dims, true, 8)),
        ),
        (
            "histogram".into(),
            Box::new(move || fig6::histogram_table(detail_dim, true, 8)),
        ),
    ];
    let tables: Vec<Table> = ert_par::run_labeled(jobs, builds)
        .into_iter()
        .map(|o| o.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    emit(&tables, Some(Path::new("results")));
}
