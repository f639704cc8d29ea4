//! Self-tests of the workloads: each must exercise what it was chosen
//! for. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workloads are full size, so a debug build is slow).

use std::sync::mpsc;

use crate::trace::{layer_telemetry, Layer, LayerTrace};
use crate::workload::{run_sim, Inputs, SimCounters, Workload};

fn traced_run(w: Workload, seed: u64) -> (SimCounters, LayerTrace) {
    let Inputs::Sim(sim) = w.inputs(seed) else {
        panic!("{} is not a simulator workload", w.name());
    };
    let (done, reported) = mpsc::channel();
    let (outcome, counters, _) = run_sim(&sim, move || Some(layer_telemetry(done)));
    assert!(outcome.conserved, "{}: lookups not conserved", w.name());
    let trace = reported
        .try_iter()
        .last()
        .expect("the traced run reports its trace");
    (counters, trace)
}

#[test]
fn table2_uniform_seed_1_reproduces_the_roadmap_baseline() {
    let (counters, trace) = traced_run(Workload::Table2Uniform, 1);
    assert_eq!(counters.events, 53_203);
    assert_eq!(counters.adapt_rounds, 39);
    assert_eq!(trace.count(Layer::Grow), 79_716);
    assert_eq!(trace.count(Layer::Forward), 23_582);
}

#[test]
fn forward_only_bypasses_adaptation() {
    let (counters, trace) = traced_run(Workload::ForwardOnly, 1);
    assert_eq!(counters.adapt_rounds, 0);
    assert_eq!(trace.count(Layer::Grow), 0);
    assert!(trace.count(Layer::Forward) > 0);
}

#[test]
fn churn_uniform_applies_joins_and_leaves() {
    let (counters, trace) = traced_run(Workload::ChurnUniform, 1);
    assert!(counters.joins > 0 && counters.leaves > 0, "{counters:?}");
    assert_eq!(trace.count(Layer::Join), counters.joins);
    assert_eq!(trace.count(Layer::Leave), counters.leaves);
}

#[test]
fn every_reported_metric_is_declared_in_benchmark_json() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let reported = crate::EndToEnd::default()
        .metrics()
        .into_iter()
        .chain(crate::Layers::default().metrics());
    for crate::Metric { name, unit, .. } in reported {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is reported but not declared"
        );
    }
}
