//! Differential oracle for streaming statistics (`--stream-stats`).
//!
//! The streaming mode swaps the per-query metric collectors for
//! O(1)-memory P² sketches (`ert_sim::stats::StreamSummary`). The contract
//! the oracle pins, across seeds and workload shapes:
//!
//! * **Exact fields stay bit-identical.** Counts, push-order means,
//!   and maxima are computed the same way in both modes, as is every
//!   per-host structural metric (degree envelopes, utilization,
//!   fairness shares) — those digests deliberately stay exact, bounded
//!   by network size. [`compare_reports`] checks them with
//!   `f64::to_bits` equality, not an epsilon.
//! * **Estimated fields stay inside a documented band.** Only the
//!   interior percentiles of the two per-query collectors are
//!   estimates: `lookup_time.{p01,p50,p99}` and
//!   `p99_min_capacity_congestion`. Their relative error against the
//!   exact run is bounded by [`RUN_P50_RTOL`] / [`RUN_P99_RTOL`]
//!   (few-hundred-observation runs) and by [`BULK_P50_RTOL`] /
//!   [`BULK_P99_RTOL`] on the million-observation synthetic
//!   differential, where the sketch has converged.
//!
//! EXPERIMENTS.md documents the same bands for operators reading
//! `--stream-stats` output.

use ert_experiments::Scenario;
use ert_network::{ProtocolSpec, RunReport};

/// Relative tolerance for sketched `p01` on a simulation run's few
/// hundred observations.
pub const RUN_P01_RTOL: f64 = 0.30;

/// Relative tolerance for sketched `p50` on a simulation run's few
/// hundred observations. The widest band: P²'s parabolic interpolation
/// smooths the median of heavy-tailed lookup-time distributions
/// (observed worst case ≈ 0.25 on 300-lookup Base runs).
pub const RUN_P50_RTOL: f64 = 0.35;

/// Relative tolerance for sketched `p99` on a simulation run's few
/// hundred observations. The tail marker tracks the empirical extreme
/// closely (observed worst case ≈ 0.06), so the band is tighter than
/// the median's.
pub const RUN_P99_RTOL: f64 = 0.15;

/// Absolute tolerance for the sketched `p99_min_capacity_congestion`.
/// That collector sees few, coarsely-quantized observations (queue
/// depth over capacity at one host), where relative error is
/// meaningless — observed absolute deviations stay ≤ 0.26.
pub const RUN_MINCAP_ATOL: f64 = 0.5;

/// Relative tolerance for sketched `p50` after 10^6 observations.
pub const BULK_P50_RTOL: f64 = 0.02;

/// Relative tolerance for sketched `p99` after 10^6 observations.
pub const BULK_P99_RTOL: f64 = 0.05;

fn rel_err(stream: f64, exact: f64) -> f64 {
    (stream - exact).abs() / exact.abs().max(1e-9)
}

fn check_band(name: &str, stream: f64, exact: f64, rtol: f64, errs: &mut Vec<String>) {
    let err = rel_err(stream, exact);
    if err > rtol {
        errs.push(format!(
            "{name}: stream {stream} vs exact {exact} — relative error {err:.4} > {rtol}"
        ));
    }
}

fn check_bits(name: &str, stream: f64, exact: f64, errs: &mut Vec<String>) {
    if stream.to_bits() != exact.to_bits() {
        errs.push(format!(
            "{name}: stream {stream} != exact {exact} (must be bit-identical)"
        ));
    }
}

/// Runs `scenario` under `spec` at `seed` twice — exact collectors and
/// streaming sketches — and returns `(exact, stream)` reports.
pub fn run_pair(scenario: &Scenario, spec: &ProtocolSpec, seed: u64) -> (RunReport, RunReport) {
    let mut exact = scenario.clone();
    exact.stream_stats = false;
    let mut stream = scenario.clone();
    stream.stream_stats = true;
    (exact.run_once(spec, seed), stream.run_once(spec, seed))
}

/// Compares a streaming-mode report against its exact twin: every
/// field outside the two sketched collectors must be bit-identical,
/// the sketched percentiles must sit inside the run-scale band.
/// Returns every violation found (empty = conforming).
pub fn compare_reports(exact: &RunReport, stream: &RunReport) -> Vec<String> {
    let mut errs = Vec::new();
    // Exact counters.
    for (name, e, s) in [
        (
            "lookups_started",
            exact.lookups_started,
            stream.lookups_started,
        ),
        (
            "lookups_completed",
            exact.lookups_completed,
            stream.lookups_completed,
        ),
        (
            "lookups_dropped",
            exact.lookups_dropped,
            stream.lookups_dropped,
        ),
        (
            "lookups_failed",
            exact.lookups_failed,
            stream.lookups_failed,
        ),
        (
            "heavy_encounters",
            exact.heavy_encounters,
            stream.heavy_encounters,
        ),
    ] {
        if e != s {
            errs.push(format!("{name}: stream {s} != exact {e}"));
        }
    }
    if exact.lookup_time.count != stream.lookup_time.count {
        errs.push(format!(
            "lookup_time.count: stream {} != exact {}",
            stream.lookup_time.count, exact.lookup_time.count
        ));
    }
    // Exact-by-construction scalars: push-order means, maxima, and
    // every per-host digest (those stay exact Samples in both modes).
    check_bits(
        "lookup_time.mean",
        stream.lookup_time.mean,
        exact.lookup_time.mean,
        &mut errs,
    );
    check_bits(
        "lookup_time.max",
        stream.lookup_time.max,
        exact.lookup_time.max,
        &mut errs,
    );
    check_bits(
        "mean_path_length",
        stream.mean_path_length,
        exact.mean_path_length,
        &mut errs,
    );
    check_bits(
        "p99_max_congestion",
        stream.p99_max_congestion,
        exact.p99_max_congestion,
        &mut errs,
    );
    check_bits("p99_share", stream.p99_share, exact.p99_share, &mut errs);
    for (name, e, s) in [
        ("max_indegree", &exact.max_indegree, &stream.max_indegree),
        ("max_outdegree", &exact.max_outdegree, &stream.max_outdegree),
        ("utilization", &exact.utilization, &stream.utilization),
    ] {
        check_bits(&format!("{name}.p99"), s.p99, e.p99, &mut errs);
        check_bits(&format!("{name}.mean"), s.mean, e.mean, &mut errs);
    }
    check_bits(
        "capacity_utilization_correlation",
        stream.capacity_utilization_correlation,
        exact.capacity_utilization_correlation,
        &mut errs,
    );
    check_bits(
        "sim_seconds",
        stream.sim_seconds,
        exact.sim_seconds,
        &mut errs,
    );
    // The sketched estimates.
    check_band(
        "lookup_time.p01",
        stream.lookup_time.p01,
        exact.lookup_time.p01,
        RUN_P01_RTOL,
        &mut errs,
    );
    check_band(
        "lookup_time.p50",
        stream.lookup_time.p50,
        exact.lookup_time.p50,
        RUN_P50_RTOL,
        &mut errs,
    );
    check_band(
        "lookup_time.p99",
        stream.lookup_time.p99,
        exact.lookup_time.p99,
        RUN_P99_RTOL,
        &mut errs,
    );
    let mincap_dev = (stream.p99_min_capacity_congestion - exact.p99_min_capacity_congestion).abs();
    if mincap_dev > RUN_MINCAP_ATOL {
        errs.push(format!(
            "p99_min_capacity_congestion: stream {} vs exact {} — absolute deviation {mincap_dev:.4} > {RUN_MINCAP_ATOL}",
            stream.p99_min_capacity_congestion, exact.p99_min_capacity_congestion
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_baselines::base;
    use ert_experiments::Workload;
    use ert_sim::stats::{Digest, Record, Samples, StreamSummary};

    fn quick(seed: u64) -> Scenario {
        let mut s = Scenario::quick(seed);
        s.n = 128;
        s.lookups = 300;
        s
    }

    /// The headline differential: seeds × workload shapes × protocols,
    /// streaming vs exact, every report conforming to the contract.
    #[test]
    fn stream_reports_match_exact_across_seeds_and_shapes() {
        let shapes = [
            ("uniform", Workload::Uniform),
            ("impulse", Workload::Impulse { nodes: 20, keys: 5 }),
        ];
        for spec in [base(), ProtocolSpec::ert_af()] {
            for (shape_name, workload) in shapes {
                for seed in [1, 2, 3] {
                    let mut scenario = quick(seed);
                    scenario.workload = workload;
                    let (exact, stream) = run_pair(&scenario, &spec, seed);
                    let errs = compare_reports(&exact, &stream);
                    assert!(
                        errs.is_empty(),
                        "{} / {shape_name} / seed {seed}: {errs:#?}",
                        spec.name
                    );
                }
            }
        }
    }

    /// The million-observation synthetic differential: a service-time
    /// shaped mixture (bulk near 0.2 s, a 5× heavy mode, and queueing
    /// delay tails) pushed through both digests. The sketch has
    /// converged, so the bands are the tight bulk ones — and memory is
    /// O(1) by construction (`StreamSummary` is `Copy` with a
    /// compile-time size bound; the exact twin holds all 10^6 values).
    #[test]
    fn million_observation_sketch_stays_in_band() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut exact = Samples::new();
        let mut sketch = StreamSummary::new();
        for _ in 0..1_000_000 {
            let u = uniform();
            let base = if uniform() < 0.1 { 1.0 } else { 0.2 };
            // Exponential-ish queueing tail on top of the service time.
            let v = base + 0.05 * (-(1.0 - u).ln());
            exact.push(v);
            sketch.observe(v);
        }
        assert_eq!(sketch.count(), 1_000_000);
        assert_eq!(sketch.count() as usize, exact.summary().count);
        // Push-order sums: bit-identical means, exact min/max.
        assert_eq!(sketch.mean().to_bits(), exact.mean().to_bits());
        assert_eq!(sketch.max().to_bits(), exact.max().to_bits());
        for (p, rtol) in [(0.5, BULK_P50_RTOL), (0.99, BULK_P99_RTOL)] {
            let (e, s) = (exact.percentile(p), sketch.quantile(p));
            let err = rel_err(s, e);
            assert!(
                err <= rtol,
                "p{}: sketch {s} vs exact {e} — relative error {err:.5} > {rtol}",
                (p * 100.0) as u32
            );
        }
    }

    /// The comparator actually rejects: a doctored report with a wrong
    /// exact field or an out-of-band estimate fails.
    #[test]
    fn comparator_rejects_drift() {
        let scenario = quick(9);
        let (exact, stream) = run_pair(&scenario, &base(), 9);
        assert!(compare_reports(&exact, &stream).is_empty());
        let mut wrong_mean = stream.clone();
        wrong_mean.lookup_time.mean += 1e-12;
        assert!(compare_reports(&exact, &wrong_mean)
            .iter()
            .any(|e| e.contains("lookup_time.mean")));
        let mut wrong_p50 = stream.clone();
        wrong_p50.lookup_time.p50 = exact.lookup_time.p50 * 2.0;
        assert!(compare_reports(&exact, &wrong_p50)
            .iter()
            .any(|e| e.contains("lookup_time.p50")));
    }
}
