//! The repository's benchmark: one seeded workload per invocation,
//! single-threaded, driving only the public entry points of the
//! simulator (`ert-network`) and the live wire cluster (`ert-node`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats set-up and run for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced runs
//! for `--seconds`, then probes the layers on the final state, and
//! reports the per-layer metrics. Every line but the last is for
//! people; the last is one JSON object. `README.md` beside this file
//! says why each workload and metric exists.

// Reading the wall clock is this program's purpose; the repository's
// clippy.toml forbids it only in simulation code.
#![allow(clippy::disallowed_methods)]

mod probes;
mod trace;
mod workload;

#[cfg(test)]
mod selftest;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Instant;

use probes::{codec_ns_per_frame, sim_probes, WireTraffic};
use trace::{layer_telemetry, Layer, LayerTrace};
use workload::{
    run_sim, run_wire, workload_invariant, Inputs, Outcome, SimInputs, WireInputs, Workload,
};

/// Untraced/traced pairs of a per-layer run, however short `--seconds` is.
const MIN_TRACED_PAIRS: usize = 2;
/// Share of a traced run's host time the charged gaps must cover.
const MIN_ATTRIBUTED_SHARE: f64 = 0.9;

const USAGE: &str = "usage: perfbench --workload <table2_uniform|forward_only|churn_uniform|wire_hotspot> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one invocation reports.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        match args.workload.inputs(args.seed) {
            Inputs::Sim(sim) => per_layer_sim(args.workload, &sim, args.seconds),
            Inputs::Wire(wire) => per_layer_wire(&wire, args.seconds),
        }
    } else {
        let instances = args.workload.instances(args.seed);
        end_to_end(args.workload, &instances, args.seconds)
    };

    let name = args.workload.name();
    for m in &report.metrics {
        println!("{name} {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name} failed_ratio = {} ({} of {} lookups)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        eprintln!("perfbench: correctness check failed: {p}");
    }
    println!("{}", result_json(&report));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.problems.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The untraced runs: every instance once, then instances again in
/// turn (at least one repeat) while another fits in `budget` seconds;
/// reports the end-to-end metrics.
fn end_to_end(w: Workload, instances: &[Inputs], budget: f64) -> Report {
    let started = Instant::now();
    let mut runs: Vec<Vec<Outcome>> = vec![Vec::new(); instances.len()];
    let mut problems = Vec::new();
    let (mut samples, mut longest) = (0, 0.0f64);
    for (inputs, i) in instances.iter().zip(0..).cycle() {
        let minimum_done = samples > instances.len();
        if minimum_done && started.elapsed().as_secs_f64() + longest > budget {
            break;
        }
        let sample_started = Instant::now();
        let (outcome, invariant) = inputs.run(w);
        longest = longest.max(sample_started.elapsed().as_secs_f64());
        problems.extend(invariant.err());
        runs[i].push(outcome);
        samples += 1;
    }
    for repeats in &runs {
        check_outcomes(repeats, &mut problems);
    }
    let all: Vec<Outcome> = runs.concat();
    let issued: u64 = all.iter().map(|o| o.issued).sum();
    let completed: u64 = all.iter().map(|o| o.completed).sum();
    // Simulated outcomes are exact per instance; their mean over the
    // instances varies less between seeds than their median does,
    // because one instance's tail is heavy-tailed across seeds.
    let across_instances =
        |f: fn(&Outcome) -> f64| runs.iter().map(|r| f(&r[0])).sum::<f64>() / runs.len() as f64;
    let e2e = EndToEnd {
        lookups_per_s: median(all.iter().map(|o| o.completed as f64 / o.run_s)),
        setup_s: median(all.iter().map(|o| o.setup_s)),
        peak_rss_mb: peak_rss_mb(),
        // A failed check fails every lookup, as in the JSON counts.
        completed_ratio: if problems.is_empty() {
            completed as f64 / issued.max(1) as f64
        } else {
            0.0
        },
        lookup_p50_s: across_instances(|o| o.lookup_p50_s),
        lookup_p99_s: across_instances(|o| o.lookup_p99_s),
        p99_congestion: across_instances(|o| o.p99_congestion),
        ctrl_per_lookup: across_instances(|o| o.ctrl_per_lookup),
    };
    Report::new(&all, problems, e2e.metrics())
}

/// The end-to-end values of one invocation.
#[derive(Default)]
struct EndToEnd {
    lookups_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    completed_ratio: f64,
    lookup_p50_s: f64,
    lookup_p99_s: f64,
    p99_congestion: f64,
    ctrl_per_lookup: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("lookups_per_s", self.lookups_per_s, "1/s"),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
            m("completed_ratio", self.completed_ratio, "ratio"),
            m("sim_lookup_p50_s", self.lookup_p50_s, "s"),
            m("sim_lookup_p99_s", self.lookup_p99_s, "s"),
            m("sim_p99_congestion", self.p99_congestion, "ratio"),
            m("ctrl_msgs_per_lookup", self.ctrl_per_lookup, "msgs/lookup"),
        ]
    }
}

/// The correctness gate every set of runs of one workload passes:
/// lookup conservation in each run, and one simulated outcome across
/// all of them (repeats, and traced against untraced).
fn check_outcomes(outcomes: &[Outcome], problems: &mut Vec<String>) {
    for (i, o) in outcomes.iter().enumerate() {
        if !o.conserved {
            problems.push(format!(
                "run {i}: {} completed + {} lost != {} issued",
                o.completed, o.lost, o.issued
            ));
        }
        if o.digest != outcomes[0].digest {
            problems.push(format!(
                "run {i} diverged from run 0:\n  {}\n  {}",
                outcomes[0].digest, o.digest
            ));
        }
    }
}

impl Report {
    /// Counts the lookups of `outcomes`; a failed check fails every
    /// lookup.
    fn new(outcomes: &[Outcome], mut problems: Vec<String>, mut metrics: Vec<Metric>) -> Report {
        // JSON has no NaN or infinity.
        for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
            problems.push(format!("{} is {}", m.name, m.value));
            m.value = 0.0;
        }
        let attempted = outcomes.iter().map(|o| o.issued).sum::<u64>().max(1);
        let failed = if problems.is_empty() {
            outcomes.iter().map(|o| o.lost).sum()
        } else {
            attempted
        };
        Report {
            attempted,
            failed,
            problems,
            metrics,
        }
    }
}

/// Per-layer values; a layer a workload does not exercise stays 0.
#[derive(Default)]
struct Layers {
    adapt_rounds: f64,
    grow_calls: f64,
    grow_s: f64,
    shed_calls: f64,
    shed_s: f64,
    link_ops: f64,
    inlink_us_per_call: f64,
    inlink_members_per_call: f64,
    owner_ns_per_call: f64,
    hops: f64,
    forward_s: f64,
    probes_per_decision: f64,
    handoffs: f64,
    timeouts: f64,
    choose_ns_per_call: f64,
    joins: f64,
    join_s: f64,
    leaves: f64,
    leave_s: f64,
    other_s: f64,
    events: f64,
    events_per_s: f64,
    spans: f64,
    service_s: f64,
    engine_ns_per_event: f64,
    queue_wait_p99_sim_s: f64,
    node_probe_rpcs: f64,
    node_adapt_rpcs: f64,
    node_hops: f64,
    node_adapts: f64,
    encode_ns: f64,
    decode_ns: f64,
    trace_events: f64,
    trace_overhead_s: f64,
    attributed_share: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let per = |total: f64, calls: f64| if calls > 0.0 { total / calls } else { 0.0 };
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("adapt.rounds", self.adapt_rounds, "count"),
            m("adapt.grow.calls", self.grow_calls, "count"),
            m("adapt.grow.s", self.grow_s, "s"),
            m(
                "adapt.grow.us_per_call",
                per(self.grow_s * 1e6, self.grow_calls),
                "us",
            ),
            m("adapt.shed.calls", self.shed_calls, "count"),
            m("adapt.shed.s", self.shed_s, "s"),
            m("adapt.link_ops", self.link_ops, "count"),
            m(
                "overlay.inlink_candidates.us_per_call",
                self.inlink_us_per_call,
                "us",
            ),
            m(
                "overlay.inlink_candidates.members_per_call",
                self.inlink_members_per_call,
                "count",
            ),
            m("overlay.owner.ns_per_call", self.owner_ns_per_call, "ns"),
            m("forward.hops", self.hops, "count"),
            m("forward.s", self.forward_s, "s"),
            m(
                "forward.us_per_hop",
                per(self.forward_s * 1e6, self.hops),
                "us",
            ),
            m(
                "forward.probes_per_decision",
                self.probes_per_decision,
                "count",
            ),
            m("forward.handoffs", self.handoffs, "count"),
            m("forward.timeouts", self.timeouts, "count"),
            m(
                "core.choose_next_b.ns_per_call",
                self.choose_ns_per_call,
                "ns",
            ),
            m("membership.joins", self.joins, "count"),
            m("membership.join.s", self.join_s, "s"),
            m("membership.leaves", self.leaves, "count"),
            m("membership.leave.s", self.leave_s, "s"),
            m("other.s", self.other_s, "s"),
            m("engine.events", self.events, "count"),
            m("engine.events_per_s", self.events_per_s, "1/s"),
            m("service.spans", self.spans, "count"),
            m("service.s", self.service_s, "s"),
            m("sim.engine.ns_per_event", self.engine_ns_per_event, "ns"),
            m("queue.wait_p99_sim_s", self.queue_wait_p99_sim_s, "s"),
            m("node.probe_rpcs", self.node_probe_rpcs, "count"),
            m("node.adapt_rpcs", self.node_adapt_rpcs, "count"),
            m("node.hops", self.node_hops, "count"),
            m("node.adapts", self.node_adapts, "count"),
            m("node.codec.encode_ns", self.encode_ns, "ns"),
            m("node.codec.decode_ns", self.decode_ns, "ns"),
            m("trace.events", self.trace_events, "count"),
            m("trace.overhead_s", self.trace_overhead_s, "s"),
            m("trace.attributed_share", self.attributed_share, "ratio"),
        ]
    }
}

/// The per-layer runs of a simulator workload: untraced and traced
/// repeats alternate until `budget` seconds have passed, then the layer
/// probes run on the last traced run's end state.
fn per_layer_sim(w: Workload, sim: &SimInputs, budget: f64) -> Report {
    let started = Instant::now();
    let mut problems = Vec::new();
    let (mut untraced, mut traced, mut traces) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while traced.len() < MIN_TRACED_PAIRS || started.elapsed().as_secs_f64() < budget {
        let (outcome, counters, _) = run_sim(sim, || None);
        problems.extend(workload_invariant(w, &counters).err());
        untraced.push(outcome);

        let (done, reported) = mpsc::channel();
        let (outcome, counters, net) = run_sim(sim, move || Some(layer_telemetry(done)));
        let trace = reported.try_iter().last().unwrap_or_else(|| {
            problems.push("the traced run reported no trace".into());
            LayerTrace::default()
        });
        traced.push(outcome);
        traces.push(trace);
        last = Some((counters, net));
    }
    let (counters, net) = last.expect("at least one traced run");
    let all: Vec<Outcome> = untraced.iter().chain(&traced).cloned().collect();
    check_outcomes(&all, &mut problems);

    let t = &traces[0];
    let attributed_share = median(
        traces
            .iter()
            .zip(&traced)
            .map(|(t, o)| t.charged_seconds() / o.run_s),
    );
    if attributed_share < MIN_ATTRIBUTED_SHARE {
        problems.push(format!(
            "charged gaps cover {attributed_share:.3} of the traced run, below {MIN_ATTRIBUTED_SHARE}"
        ));
    }
    if w == Workload::ForwardOnly && t.count(Layer::Grow) != 0 {
        problems.push(format!(
            "forward_only grew links {} times",
            t.count(Layer::Grow)
        ));
    }
    let arrivals: Vec<_> = sim.lookups.iter().map(|l| l.at).collect();
    let probes = sim_probes(
        &net,
        &t.lookup_keys,
        sim.spec.forwarding,
        &arrivals,
        counters.events,
    );
    let layer_s = |layer| median(traces.iter().map(|t| t.seconds(layer)));
    let untraced_run_s = median(untraced.iter().map(|o| o.run_s));
    let layers = Layers {
        adapt_rounds: counters.adapt_rounds as f64,
        grow_calls: t.count(Layer::Grow) as f64,
        grow_s: layer_s(Layer::Grow),
        shed_calls: t.count(Layer::Shed) as f64,
        shed_s: layer_s(Layer::Shed),
        link_ops: counters.link_ops as f64,
        inlink_us_per_call: probes.inlink_us_per_call,
        inlink_members_per_call: probes.inlink_members_per_call,
        owner_ns_per_call: probes.owner_ns_per_call,
        hops: t.count(Layer::Forward) as f64,
        forward_s: layer_s(Layer::Forward),
        probes_per_decision: counters.probes_per_decision,
        handoffs: t.handoffs as f64,
        timeouts: t.timeouts as f64,
        choose_ns_per_call: probes.choose_ns_per_call,
        joins: t.count(Layer::Join) as f64,
        join_s: layer_s(Layer::Join),
        leaves: t.count(Layer::Leave) as f64,
        leave_s: layer_s(Layer::Leave),
        other_s: layer_s(Layer::Other),
        events: counters.events as f64,
        events_per_s: counters.events as f64 / untraced_run_s,
        spans: t.count(Layer::Service) as f64,
        service_s: layer_s(Layer::Service),
        engine_ns_per_event: probes.engine_ns_per_event,
        queue_wait_p99_sim_s: p99(&t.queue_waits_us) * 1e-6,
        trace_events: t.records as f64,
        trace_overhead_s: median(traced.iter().map(|o| o.run_s)) - untraced_run_s,
        attributed_share,
        ..Layers::default()
    };
    Report::new(&all, problems, layers.metrics())
}

/// The per-layer runs of the wire workload: untraced runs alternate
/// with runs recording the cluster's route trace, then the codec is
/// probed with the run's frame mix.
fn per_layer_wire(wire: &WireInputs, budget: f64) -> Report {
    let started = Instant::now();
    let mut problems = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced.len() < MIN_TRACED_PAIRS || started.elapsed().as_secs_f64() < budget {
        untraced.push(run_wire(wire, false).0);
        let (outcome, report, mut cluster) = run_wire(wire, true);
        traced.push(outcome);
        last = Some((report, cluster.take_trace().unwrap_or_default()));
    }
    let (report, route) = last.expect("at least one traced run");
    let all: Vec<Outcome> = untraced.iter().chain(&traced).cloned().collect();
    check_outcomes(&all, &mut problems);

    let traffic = WireTraffic {
        probe_rpcs: report.probe_rpcs,
        adapt_rpcs: report.adapt_rpcs,
        hops: route.hops.len() as u64,
        completed: report.completed,
    };
    let (encode_ns, decode_ns) = codec_ns_per_frame(traffic);
    let layers = Layers {
        node_probe_rpcs: report.probe_rpcs as f64,
        node_adapt_rpcs: report.adapt_rpcs as f64,
        node_hops: route.hops.len() as f64,
        node_adapts: route.adapts.len() as f64,
        encode_ns,
        decode_ns,
        trace_events: (route.hops.len()
            + route.completions.len()
            + route.drops.len()
            + route.adapts.len()) as f64,
        trace_overhead_s: median(traced.iter().map(|o| o.run_s))
            - median(untraced.iter().map(|o| o.run_s)),
        ..Layers::default()
    };
    Report::new(&all, problems, layers.metrics())
}

/// The median of `values` (the mean of the middle two for an even
/// count; 0 for none).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank 99th percentile of `values`, 0 for none.
fn p99(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n => v[(n * 99).div_ceil(100) - 1] as f64,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB. One invocation
/// runs one workload, so this is the workload's peak.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
