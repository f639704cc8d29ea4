//! Cross-crate end-to-end checks: every protocol of the paper's lineup
//! runs a full simulation and the headline orderings of Section 5 hold.

use ert_repro::baselines::{all_protocols, base, vs};
use ert_repro::experiments::{Scenario, Workload};
use ert_repro::network::{ProtocolSpec, RunReport};

fn reports(scenario: &Scenario) -> Vec<RunReport> {
    scenario.run_all(&all_protocols(scenario.n))
}

fn find<'a>(rs: &'a [RunReport], name: &str) -> &'a RunReport {
    rs.iter()
        .find(|r| r.protocol == name)
        .unwrap_or_else(|| panic!("missing {name}"))
}

#[test]
fn every_protocol_completes_the_workload() {
    let mut s = Scenario::quick(100);
    s.lookups = 400;
    let rs = reports(&s);
    for r in &rs {
        assert_eq!(
            r.lookups_completed + r.lookups_dropped,
            400,
            "{} lost lookups",
            r.protocol
        );
        assert!(
            r.lookups_dropped * 50 <= 400,
            "{} dropped too many",
            r.protocol
        );
        assert!(r.mean_path_length > 0.0);
        assert!(r.lookup_time.mean > 0.0);
    }
}

#[test]
fn ert_af_controls_congestion_better_than_base() {
    let mut s = Scenario::quick(101);
    s.n = 256;
    s.lookups = 600;
    s.seeds = vec![1, 2];
    let rs = reports(&s);
    let base_r = find(&rs, "Base");
    let af = find(&rs, "ERT/AF");
    assert!(
        af.p99_max_congestion <= base_r.p99_max_congestion,
        "ERT/AF {} vs Base {}",
        af.p99_max_congestion,
        base_r.p99_max_congestion
    );
    assert!(
        af.heavy_encounters <= base_r.heavy_encounters,
        "ERT/AF {} vs Base {} heavy encounters",
        af.heavy_encounters,
        base_r.heavy_encounters
    );
}

#[test]
fn vs_pays_with_longer_paths() {
    let mut s = Scenario::quick(102);
    s.lookups = 400;
    let b = s.run(&base());
    let v = s.run(&vs(s.n));
    assert!(
        v.mean_path_length > b.mean_path_length,
        "VS {} vs Base {}",
        v.mean_path_length,
        b.mean_path_length
    );
}

#[test]
fn skewed_lookups_hurt_vs_more_than_ert() {
    let mut s = Scenario::quick(103);
    s.lookups = 500;
    s.seeds = vec![1, 2];
    s.workload = Workload::Impulse { nodes: 20, keys: 5 };
    let v = s.run(&vs(s.n));
    let af = s.run(&ProtocolSpec::ert_af());
    assert!(
        af.lookup_time.mean <= v.lookup_time.mean,
        "impulse: ERT/AF {} vs VS {}",
        af.lookup_time.mean,
        v.lookup_time.mean
    );
}

#[test]
fn two_choice_probing_happens_only_in_f_variants() {
    let mut s = Scenario::quick(104);
    s.lookups = 200;
    let rs = reports(&s);
    assert!(find(&rs, "ERT/AF").probes_per_decision > 0.9);
    assert!(find(&rs, "ERT/F").probes_per_decision > 0.9);
    assert_eq!(find(&rs, "Base").probes_per_decision, 0.0);
    assert_eq!(find(&rs, "VS").probes_per_decision, 0.0);
    assert_eq!(find(&rs, "ERT/A").probes_per_decision, 0.0);
}

#[test]
fn reports_are_deterministic_per_seed() {
    let s = Scenario::quick(105);
    let a = s.run(&ProtocolSpec::ert_af());
    let b = s.run(&ProtocolSpec::ert_af());
    assert_eq!(a.lookup_time.mean, b.lookup_time.mean);
    assert_eq!(a.p99_share, b.p99_share);
    assert_eq!(a.heavy_encounters, b.heavy_encounters);
}

/// Scale smoke (ignored by default; run with `--ignored --release`):
/// an n = 65536 population completes a lookup burst and loses nothing.
#[test]
#[ignore = "n=65536 scale run; minutes in release — invoke explicitly"]
fn n65536_node_run_completes() {
    use ert_repro::network::{Network, NetworkConfig};
    use ert_repro::overlay::CycloidSpace;
    use ert_repro::sim::SimRng;
    use ert_repro::workloads::{uniform_lookups, BoundedPareto};

    let n = 65536;
    let mut rng = SimRng::seed_from(406);
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), 406);
    let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("valid network");
    let lookups = uniform_lookups(2000, n as f64, &mut rng);
    let report = net.run(&lookups, &[]);
    assert_eq!(report.lookups_completed + report.lookups_dropped, 2000);
    assert!(
        report.lookups_completed >= 1990,
        "completed only {}",
        report.lookups_completed
    );
}
