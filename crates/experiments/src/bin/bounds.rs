//! Checks Theorems 3.1 and 3.2 on measured elastic tables.
//!
//! Usage: `bounds [--quick] [--jobs N]`

use std::path::Path;

use ert_core::ErtParams;
use ert_experiments::bounds;
use ert_experiments::report::{emit, Table};

/// A named, deferred bound check: runs on the worker pool, returns the
/// table plus whether every row passed.
type Check = (String, Box<dyn FnOnce() -> (Table, bool) + Send>);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = ert_experiments::cli::parse_jobs(&args).unwrap_or_else(ert_par::default_jobs);
    let (n, lookups) = if quick { (128, 250) } else { (2048, 3000) };
    let params = ErtParams::default();
    let cases = [
        (50.0, 0.5),
        (10.0, 1.0),
        (100.0, 0.25),
        (5.0, 2.0),
        (30.0, 0.1),
    ];
    // The five checks are independent; fan them out on the worker pool
    // (results come back in submission order, so the emitted CSVs are
    // byte-identical to a sequential run).
    let checks: Vec<Check> = vec![
        (
            "thm31 exact".into(),
            Box::new(move || bounds::theorem31_check(n, 1.0, 51)),
        ),
        (
            "thm31 err".into(),
            Box::new(move || bounds::theorem31_check(n, 1.5, 52)),
        ),
        (
            "thm32 convergence".into(),
            Box::new(move || bounds::theorem32_convergence(&cases, &params)),
        ),
        (
            "thm32 network".into(),
            Box::new(move || (bounds::theorem32_check(n, lookups, 53), true)),
        ),
        (
            "thm33".into(),
            Box::new(move || bounds::theorem33_check(n, lookups, 54)),
        ),
    ];
    let mut all_ok = true;
    let mut tables = Vec::new();
    for outcome in ert_par::run_labeled(jobs, checks) {
        let (table, ok) = outcome.unwrap_or_else(|e| panic!("{e}"));
        all_ok &= ok;
        tables.push(table);
    }
    emit(&tables, Some(Path::new("results")));
    assert!(all_ok, "a theorem bound was violated");
    println!("All theorem bounds hold.");
}
