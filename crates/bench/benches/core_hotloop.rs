//! Throughput of the simulator's lookup/forward/adapt hot loop: one
//! timed `Network::run` pass under ERT/AF, at Table 2 scale by default
//! or the reduced quick shape with `--quick`.
//!
//! Timing is hand-rolled (the interesting number is whole-run wall
//! time, not a Criterion sample distribution). Besides the stderr
//! summary the bench writes `BENCH_core.json` (schema:
//! [`ert_bench::CoreBenchRecord`], guarded by the crate's
//! `core_bench_record_schema` test and `ert-testkit`'s bench guards)
//! for machine consumption — `--out <path>` overrides the target.
//!
//! Usage: `cargo bench --bench core_hotloop -- [--quick] [--out <path>]`

use ert_bench::{run_core_bench, CoreBenchScenario};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let shape = if quick {
        CoreBenchScenario::quick()
    } else {
        CoreBenchScenario::table2()
    };
    let record = run_core_bench(shape);
    eprintln!(
        "core_hotloop: n={} lookups={} -> {:.0} events/s ({} events, {:.3} s wall)",
        record.scenario.n,
        record.scenario.lookups,
        record.events_per_second,
        record.events_processed,
        record.wall_seconds,
    );
    eprintln!(
        "core_hotloop: {:.0} lookups/s, {:.0} forwards/s, {:.1} adapt rounds/s",
        record.lookups_per_second, record.forwards_per_second, record.adapt_rounds_per_second,
    );
    std::fs::write(&out, record.to_json() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("core_hotloop: record written to {out}");
}
