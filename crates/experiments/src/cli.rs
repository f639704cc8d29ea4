//! Shared command-line handling for the experiment binaries.
//!
//! Every figure binary accepts, besides its own `--quick` / `--seeds`
//! flags, the shared knobs parsed here — with one uniform contract:
//! **no shared flag may change the bytes a binary emits**, only how
//! fast it emits them or what side-channel observability it produces.
//!
//! - `--jobs <N>` — worker threads for the parallel fan-out; the
//!   default is every available core, and any value produces
//!   byte-identical output (see `ert-par`; `--jobs 1` is the
//!   sequential reference);
//! - `--faults <intensity>` — chaos intensity in `[0, 1]` for the
//!   binaries that support fault injection (this one *does* change
//!   output — it changes the experiment, not the evaluation);
//! - `--stream-stats` — O(1)-memory P² percentile sketches instead of
//!   exact sample vectors;
//!
//! and the telemetry trio:
//!
//! - `--telemetry <path.jsonl>` — stream structured events, periodic
//!   snapshots, and the end-of-run report to a JSONL file;
//! - `--sample-interval <secs>` — snapshot cadence on the sim clock
//!   (default 1 s when telemetry is on; `0` disables the sampler);
//! - `--trace <N>` — retain the last `N` events in the human-readable
//!   trace ring and print them to stderr after the run.
//!
//! Sweeps average many runs, so instrumenting all of them would
//! interleave streams; instead [`TelemetryOpts::capture`] performs one
//! *representative* instrumented run (first seed of the binary's base
//! scenario) whose stream is the observability artifact. The sweep
//! itself stays untouched — and because observation never perturbs the
//! simulation, the captured run reproduces the sweep's first data
//! point exactly.

use std::path::PathBuf;

use ert_network::ProtocolSpec;
use ert_sim::SimDuration;
use ert_telemetry::{JsonlSink, Telemetry};

use crate::Scenario;

/// Parsed telemetry flags.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOpts {
    /// Target of `--telemetry`, when given.
    pub jsonl_path: Option<PathBuf>,
    /// `--sample-interval` in seconds (0 = sampler off).
    pub sample_interval_secs: f64,
    /// `--trace` ring capacity (0 = trace off).
    pub trace_capacity: usize,
}

impl TelemetryOpts {
    /// Parses the telemetry flags out of this process's arguments.
    pub fn from_env() -> TelemetryOpts {
        TelemetryOpts::parse(&std::env::args().collect::<Vec<_>>())
    }

    /// Parses the telemetry flags from an argument list.
    pub fn parse(args: &[String]) -> TelemetryOpts {
        let value_of = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        let jsonl_path = value_of("--telemetry").map(PathBuf::from);
        let sample_interval_secs = value_of("--sample-interval")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if jsonl_path.is_some() { 1.0 } else { 0.0 });
        let trace_capacity = value_of("--trace")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        TelemetryOpts {
            jsonl_path,
            sample_interval_secs,
            trace_capacity,
        }
    }

    /// Whether any flag asked for an instrumented run.
    pub fn active(&self) -> bool {
        self.jsonl_path.is_some() || self.sample_interval_secs > 0.0 || self.trace_capacity > 0
    }

    /// Builds the telemetry pipeline the flags describe.
    ///
    /// # Panics
    ///
    /// Panics if the `--telemetry` file cannot be created.
    pub fn build(&self) -> Telemetry {
        let mut tel = Telemetry::with_trace_capacity(self.trace_capacity);
        if let Some(path) = &self.jsonl_path {
            let sink = JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            tel.add_sink(Box::new(sink));
        }
        tel
    }

    /// When any telemetry flag is set, performs the representative
    /// instrumented run of `scenario` under `spec` (first seed),
    /// writes the JSONL stream / prints the trace ring, and reports
    /// what was captured on stderr. No-op otherwise.
    pub fn capture(&self, scenario: &Scenario, spec: &ProtocolSpec) {
        self.capture_with(scenario, spec, |_| {});
    }

    /// Like [`TelemetryOpts::capture`], but lets the caller apply the
    /// same config tweak the surrounding sweep used (e.g. a retry
    /// policy), so the captured run reproduces the sweep's data point.
    pub fn capture_with(
        &self,
        scenario: &Scenario,
        spec: &ProtocolSpec,
        tweak: impl FnOnce(&mut ert_network::NetworkConfig),
    ) {
        if !self.active() {
            return;
        }
        let seed = scenario.seeds.first().copied().unwrap_or(1);
        let interval = SimDuration::from_secs_f64(self.sample_interval_secs.max(0.0));
        let (report, telemetry) = scenario.run_once_instrumented(
            spec,
            seed,
            |cfg| {
                cfg.sample_interval = interval;
                tweak(cfg);
            },
            self.build(),
        );
        eprintln!(
            "[telemetry] {} seed {seed}: {} events, {} snapshots, {} lookups in {:.1}s sim",
            spec.name,
            telemetry.events_emitted(),
            telemetry.snapshots().len(),
            report.lookups_completed,
            report.sim_seconds,
        );
        if let Some(path) = &self.jsonl_path {
            eprintln!("[telemetry] stream written to {}", path.display());
        }
        if self.trace_capacity > 0 {
            eprint!("{}", telemetry.trace().render());
        }
    }
}

/// Parses the `--jobs <N>` knob shared by every binary: the worker
/// count for the parallel fan-out (see `ert-par`). Absent, malformed,
/// or zero values read as "use every available core"
/// ([`Scenario::jobs`] = `None`). Any value yields byte-identical
/// output — `--jobs 1` is the sequential reference.
pub fn parse_jobs(args: &[String]) -> Option<usize> {
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// [`parse_jobs`] over this process's arguments.
pub fn jobs_from_env() -> Option<usize> {
    parse_jobs(&std::env::args().collect::<Vec<_>>())
}

/// Parses the `--faults <intensity>` knob shared by binaries that
/// support fault injection: a chaos intensity in `[0, 1]` fed to
/// [`Scenario::chaos`] (see `ert-faults`). Absent, malformed, or
/// non-finite values read as "no faults".
pub fn parse_faults(args: &[String]) -> Option<f64> {
    args.iter()
        .position(|a| a == "--faults")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(|v| v.clamp(0.0, 1.0))
}

/// [`parse_faults`] over this process's arguments.
pub fn faults_from_env() -> Option<f64> {
    parse_faults(&std::env::args().collect::<Vec<_>>())
}

/// Parses the `--stream-stats` switch shared by every binary: when
/// present, per-query metric collectors run as O(1)-memory P² sketches
/// instead of exact sample vectors (see
/// [`Scenario::stream_stats`]). Count, mean, and max stay exact;
/// interior percentiles become estimates inside the tolerance band
/// `ert-testkit` pins. Same-seed streaming runs are byte-identical to
/// each other at any `--jobs` value.
pub fn parse_stream_stats(args: &[String]) -> bool {
    args.iter().any(|a| a == "--stream-stats")
}

/// [`parse_stream_stats`] over this process's arguments.
pub fn stream_stats_from_env() -> bool {
    parse_stream_stats(&std::env::args().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn faults_flag_parses_and_clamps() {
        assert_eq!(parse_faults(&args(&["resilience"])), None);
        assert_eq!(
            parse_faults(&args(&["resilience", "--faults", "0.4"])),
            Some(0.4)
        );
        assert_eq!(
            parse_faults(&args(&["resilience", "--faults", "7"])),
            Some(1.0)
        );
        assert_eq!(
            parse_faults(&args(&["resilience", "--faults", "NaN"])),
            None
        );
        assert_eq!(parse_faults(&args(&["resilience", "--faults"])), None);
    }

    #[test]
    fn jobs_flag_parses_and_rejects_nonsense() {
        assert_eq!(parse_jobs(&args(&["fig4"])), None);
        assert_eq!(parse_jobs(&args(&["fig4", "--jobs", "4"])), Some(4));
        assert_eq!(parse_jobs(&args(&["fig4", "--jobs", "1"])), Some(1));
        assert_eq!(parse_jobs(&args(&["fig4", "--jobs", "0"])), None);
        assert_eq!(parse_jobs(&args(&["fig4", "--jobs", "lots"])), None);
        assert_eq!(parse_jobs(&args(&["fig4", "--jobs"])), None);
    }

    #[test]
    fn stream_stats_flag_is_a_plain_switch() {
        assert!(!parse_stream_stats(&args(&["fig4"])));
        assert!(parse_stream_stats(&args(&["fig4", "--stream-stats"])));
        assert!(parse_stream_stats(&args(&[
            "fig4",
            "--quick",
            "--stream-stats",
            "--jobs",
            "4"
        ])));
    }

    #[test]
    fn defaults_are_inert() {
        let o = TelemetryOpts::parse(&args(&["fig4", "--quick"]));
        assert!(!o.active());
        assert_eq!(o.sample_interval_secs, 0.0);
        assert_eq!(o.trace_capacity, 0);
    }

    #[test]
    fn telemetry_flag_implies_default_sampling() {
        let o = TelemetryOpts::parse(&args(&["fig4", "--telemetry", "run.jsonl"]));
        assert!(o.active());
        assert_eq!(
            o.jsonl_path.as_deref().unwrap().to_str().unwrap(),
            "run.jsonl"
        );
        assert_eq!(o.sample_interval_secs, 1.0);
    }

    #[test]
    fn explicit_interval_and_trace_parse() {
        let o = TelemetryOpts::parse(&args(&[
            "fig4",
            "--telemetry",
            "x.jsonl",
            "--sample-interval",
            "0.25",
            "--trace",
            "512",
        ]));
        assert_eq!(o.sample_interval_secs, 0.25);
        assert_eq!(o.trace_capacity, 512);
    }

    #[test]
    fn trace_alone_activates_without_sink() {
        let o = TelemetryOpts::parse(&args(&["fig4", "--trace", "64"]));
        assert!(o.active());
        assert!(o.jsonl_path.is_none());
        let tel = o.build();
        assert!(tel.is_enabled());
    }

    #[test]
    fn capture_writes_jsonl_with_events_snapshots_and_report() {
        let dir = std::env::temp_dir().join("ert_cli_capture_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.jsonl");
        let opts = TelemetryOpts {
            jsonl_path: Some(path.clone()),
            sample_interval_secs: 0.5,
            trace_capacity: 0,
        };
        let mut scenario = Scenario::quick(11);
        scenario.n = 96;
        scenario.lookups = 150;
        opts.capture(&scenario, &ProtocolSpec::ert_af());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("{\"kind\":\"event\"")));
        assert!(text
            .lines()
            .any(|l| l.starts_with("{\"kind\":\"snapshot\"")));
        assert!(text.lines().any(|l| l.starts_with("{\"kind\":\"report\"")));
        std::fs::remove_file(&path).ok();
    }
}
