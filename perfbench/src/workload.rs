//! The four workloads: how their inputs derive from the seed, how one
//! repeat is set up and run, and what each run must satisfy.
//!
//! Why each workload exists is recorded in `README.md` beside this
//! file; the short form is on each [`Workload`] variant.

use std::time::Instant;

use ert_experiments::{fig9::churn_spec_for, Scenario};
use ert_minidht::{ChordGeometry, Geometry, MiniDhtConfig, MiniProtocol};
use ert_network::{
    ChurnEvent, FaultPlan, Lookup, Network, NetworkConfig, ProtocolSpec, RetryPolicy, RunReport,
};
use ert_node::{WireCluster, WireReport};
use ert_overlay::CycloidSpace;
use ert_sim::{SimRng, SimTime};
use ert_telemetry::Telemetry;
use ert_testkit::diff::wire::hotspot_schedule;
use ert_testkit::strategies::ramp_capacities;
use ert_workloads::{churn_schedule, uniform_lookups, BoundedPareto};

/// Hosts in every simulator workload (Table 2).
const SIM_HOSTS: usize = 2048;
/// Fig. 9's paper-scale churn interarrival for `churn_uniform`.
const CHURN_INTERARRIVAL: f64 = 0.3;
/// Chord identifier bits of the wire cluster.
const WIRE_BITS: u8 = 12;
/// Members of the wire cluster.
const WIRE_MEMBERS: usize = 1024;
/// Lookups per member per simulated second on the wire cluster.
const WIRE_RATE_PER_NODE: f64 = 0.5;
/// Lookups injected into the wire cluster.
const WIRE_LOOKUPS: usize = 5000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 default under ERT/AF: adaptation's Alg. 1 expansion
    /// dominates.
    Table2Uniform,
    /// Table 2 under ERT/F: forwarding and the engine only, the bypass
    /// case for every adaptation change.
    ForwardOnly,
    /// ERT/AF under Fig. 9 churn: membership writes invalidate
    /// per-membership state while lookups read it.
    ChurnUniform,
    /// The live wire cluster (codec, transport, RPC probes and
    /// adaptation) on a hotspot schedule.
    WireHotspot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Uniform,
        Workload::ForwardOnly,
        Workload::ChurnUniform,
        Workload::WireHotspot,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Uniform => "table2_uniform",
            Workload::ForwardOnly => "forward_only",
            Workload::ChurnUniform => "churn_uniform",
            Workload::WireHotspot => "wire_hotspot",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent instances (seeds) one end-to-end run measures. The
    /// simulated tail of one instance (p99 lookup time) swings by up to
    /// 3x between seeds, because it follows the few weakest hosts of the
    /// capacity draw, and host speed varies by instance too; a run
    /// measures as many instances as fit in about 22 s of host time on
    /// a 2-vCPU Xeon virtual machine.
    pub fn instance_count(self) -> u64 {
        match self {
            Workload::Table2Uniform => 24,
            Workload::ForwardOnly => 112,
            Workload::ChurnUniform | Workload::WireHotspot => 20,
        }
    }

    /// The inputs of the workload's instances for `seed`; instance 0 is
    /// `seed` itself.
    pub fn instances(self, seed: u64) -> Vec<Inputs> {
        (0..self.instance_count())
            .map(|i| self.inputs(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
            .collect()
    }

    /// Generates the workload's inputs from `seed`. Everything a repeat
    /// consumes is built here, outside the timed region.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::Table2Uniform => {
                Inputs::Sim(sim_inputs(seed, ProtocolSpec::ert_af(), 3000, false))
            }
            Workload::ForwardOnly => {
                Inputs::Sim(sim_inputs(seed, ProtocolSpec::ert_f(), 3000, false))
            }
            Workload::ChurnUniform => {
                Inputs::Sim(sim_inputs(seed, ProtocolSpec::ert_af(), 3000, true))
            }
            Workload::WireHotspot => Inputs::Wire(wire_inputs(seed)),
        }
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Inputs of a simulator workload.
    Sim(SimInputs),
    /// Inputs of the wire-cluster workload.
    Wire(WireInputs),
}

impl Inputs {
    /// Sets up and runs one untraced repeat, and checks the workload's
    /// invariants on it.
    pub fn run(&self, w: Workload) -> (Outcome, Result<(), String>) {
        match self {
            Inputs::Sim(sim) => {
                let (outcome, counters, _) = run_sim(sim, || None);
                (outcome, workload_invariant(w, &counters))
            }
            Inputs::Wire(wire) => (run_wire(wire, false).0, Ok(())),
        }
    }
}

/// Everything `Network::new` and `Network::run` take.
pub struct SimInputs {
    pub cfg: NetworkConfig,
    pub capacities: Vec<f64>,
    pub spec: ProtocolSpec,
    pub lookups: Vec<Lookup>,
    pub churn: Vec<ChurnEvent>,
}

/// Everything `WireCluster::new` and `WireCluster::run_schedule` take.
pub struct WireInputs {
    pub cfg: MiniDhtConfig,
    pub members: Vec<u64>,
    pub capacities: Vec<f64>,
    pub schedule: Vec<(SimTime, u64)>,
    pub plan: FaultPlan,
}

/// The derivation `ert-experiments` uses for its scenarios (and the
/// ROADMAP baseline was measured with): capacities and lookups from
/// forks of one seeded stream, 1 lookup per node per simulated second.
fn sim_inputs(seed: u64, spec: ProtocolSpec, lookups: usize, churn: bool) -> SimInputs {
    let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9e37_79b9));
    let capacities =
        BoundedPareto::paper_default().sample_n(SIM_HOSTS, &mut rng.fork("capacities"));
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(SIM_HOSTS), seed);
    let lookups = uniform_lookups(lookups, SIM_HOSTS as f64, &mut rng.fork("lookups"));
    let churn = if churn {
        let spec = churn_spec_for(&Scenario::paper_default(1), CHURN_INTERARRIVAL);
        let horizon = lookups.last().map_or(SimTime::ZERO, |l| l.at);
        churn_schedule(
            horizon,
            spec.join_interarrival,
            spec.leave_interarrival,
            BoundedPareto::paper_default(),
            &mut rng.fork("churn"),
        )
    } else {
        Vec::new()
    };
    SimInputs {
        cfg,
        capacities,
        spec,
        lookups,
        churn,
    }
}

fn wire_inputs(seed: u64) -> WireInputs {
    let geometry = ChordGeometry::populate(WIRE_BITS, WIRE_MEMBERS, &mut SimRng::seed_from(seed));
    let members = geometry.members();
    let capacities = ramp_capacities(members.len());
    let rate = WIRE_RATE_PER_NODE * members.len() as f64;
    WireInputs {
        cfg: MiniDhtConfig::defaults(WIRE_BITS, seed),
        schedule: hotspot_schedule(WIRE_BITS, WIRE_LOOKUPS, rate, seed ^ 0x5eed_1055),
        plan: FaultPlan::new(seed),
        members,
        capacities,
    }
}

/// What one repeat of a workload produced, in the terms the metrics
/// and the correctness gate use.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds in `Network::new` / `WireCluster::new`.
    pub setup_s: f64,
    /// Host seconds in `Network::run` / `WireCluster::run_schedule`.
    pub run_s: f64,
    /// Lookups issued.
    pub issued: u64,
    /// Lookups completed.
    pub completed: u64,
    /// Lookups not completed (dropped, failed, gave up, unresolved).
    pub lost: u64,
    /// Whether the run's lookup accounting is conserved.
    pub conserved: bool,
    /// Simulated lookup-time median and 99th percentile, seconds.
    pub lookup_p50_s: f64,
    pub lookup_p99_s: f64,
    /// 99th percentile over hosts of each host's maximum congestion.
    pub p99_congestion: f64,
    /// Control messages per completed lookup.
    pub ctrl_per_lookup: f64,
    /// Exact rendering of every simulated outcome; equal strings mean
    /// identical runs.
    pub digest: String,
}

/// The simulator run's post-run counters the gate and the per-layer
/// metrics read, next to its [`Outcome`].
#[derive(Debug, Clone, Copy)]
pub struct SimCounters {
    pub events: u64,
    pub adapt_rounds: u64,
    pub link_ops: u64,
    pub probes_per_decision: f64,
    /// Hosts that joined during the run.
    pub joins: u64,
    /// Hosts that left during the run.
    pub leaves: u64,
}

/// Sets up and runs one simulator repeat. `telemetry` is called between
/// set-up and run; a pipeline it returns is installed for the run.
pub fn run_sim(
    inputs: &SimInputs,
    telemetry: impl FnOnce() -> Option<Telemetry>,
) -> (Outcome, SimCounters, Network) {
    let started = Instant::now();
    let mut net = Network::new(inputs.cfg, &inputs.capacities, inputs.spec.clone())
        .expect("benchmark network configuration is valid");
    let setup_s = started.elapsed().as_secs_f64();
    if let Some(t) = telemetry() {
        net.set_telemetry(t);
    }
    let started = Instant::now();
    let report = net.run(&inputs.lookups, &inputs.churn);
    let run_s = started.elapsed().as_secs_f64();

    let topo = net.topology();
    let counters = SimCounters {
        events: net.events_processed(),
        adapt_rounds: net.adapt_rounds(),
        link_ops: topo.link_ops,
        probes_per_decision: report.probes_per_decision,
        joins: topo.hosts.len().saturating_sub(inputs.capacities.len()) as u64,
        leaves: topo.hosts.iter().filter(|h| !h.alive).count() as u64,
    };
    let outcome = sim_outcome(&report, counters, setup_s, run_s);
    (outcome, counters, net)
}

fn sim_outcome(r: &RunReport, c: SimCounters, setup_s: f64, run_s: f64) -> Outcome {
    let lost = r.lookups_dropped + r.lookups_failed;
    // Link operations are counted exactly; probes are the per-decision
    // mean times the decisions a completed lookup takes (its hops).
    let ctrl_per_lookup = if r.lookups_completed == 0 {
        0.0
    } else {
        c.link_ops as f64 / r.lookups_completed as f64 + r.probes_per_decision * r.mean_path_length
    };
    Outcome {
        setup_s,
        run_s,
        issued: r.lookups_started,
        completed: r.lookups_completed,
        lost,
        conserved: r.lookups_completed + lost == r.lookups_started,
        lookup_p50_s: r.lookup_time.p50,
        lookup_p99_s: r.lookup_time.p99,
        p99_congestion: r.p99_max_congestion,
        ctrl_per_lookup,
        digest: format!(
            "{r:?}|events={}|rounds={}|link_ops={}|joins={}|leaves={}",
            c.events, c.adapt_rounds, c.link_ops, c.joins, c.leaves
        ),
    }
}

/// Sets up and runs one wire-cluster repeat; `trace` turns on the
/// cluster's route trace, which the per-layer `node.*` counts read.
pub fn run_wire(inputs: &WireInputs, trace: bool) -> (Outcome, WireReport, WireCluster) {
    let started = Instant::now();
    let mut cluster = WireCluster::new(
        inputs.cfg,
        WIRE_BITS,
        &inputs.members,
        &inputs.capacities,
        MiniProtocol::ElasticErt,
        &inputs.plan,
        RetryPolicy::default(),
        None,
    )
    .expect("benchmark wire cluster configuration is valid");
    let setup_s = started.elapsed().as_secs_f64();
    if trace {
        cluster.enable_trace();
    }
    let started = Instant::now();
    let report = cluster
        .run_schedule(&inputs.schedule)
        .expect("a fault-free wire run cannot fail");
    let run_s = started.elapsed().as_secs_f64();
    let outcome = wire_outcome(&report, inputs.schedule.len() as u64, setup_s, run_s);
    (outcome, report, cluster)
}

fn wire_outcome(r: &WireReport, issued: u64, setup_s: f64, run_s: f64) -> Outcome {
    let lost = r.dropped + r.gave_up + r.unresolved;
    let ctrl_per_lookup = if r.completed == 0 {
        0.0
    } else {
        (r.probe_rpcs + r.adapt_rpcs) as f64 / r.completed as f64
    };
    Outcome {
        setup_s,
        run_s,
        issued,
        completed: r.completed,
        lost,
        conserved: r.completed + lost == issued,
        lookup_p50_s: r.lookup_time.p50,
        lookup_p99_s: r.lookup_time.p99,
        p99_congestion: r.p99_max_congestion,
        ctrl_per_lookup,
        digest: format!(
            "{}|lt_p50={:016x}",
            r.canonical_string(),
            r.lookup_time.p50.to_bits()
        ),
    }
}

/// Checks that hold for a workload on every seed; returns the first
/// violated one.
pub fn workload_invariant(w: Workload, c: &SimCounters) -> Result<(), String> {
    match w {
        Workload::ForwardOnly if c.adapt_rounds != 0 => Err(format!(
            "forward_only ran {} adaptation rounds; it must bypass adaptation",
            c.adapt_rounds
        )),
        Workload::ChurnUniform if c.joins == 0 || c.leaves == 0 => Err(format!(
            "churn_uniform applied {} joins and {} leaves; both must be nonzero",
            c.joins, c.leaves
        )),
        _ => Ok(()),
    }
}
