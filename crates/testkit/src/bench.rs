//! Guards for the committed perf trajectory (`BENCH_core.json`,
//! `BENCH_par.json` at the workspace root).
//!
//! Absolute rates belong to the machine that ran the bench, so the
//! guards never pin numbers. What they do pin:
//!
//! * **Schema** — every key the record types (`ert_bench::CoreBenchRecord`,
//!   `ert_bench::ParBenchRecord`) promise is present with the right
//!   JSON type, so downstream tooling can rely on the committed files.
//! * **Coherence tolerance bands** — derived rates must equal
//!   `counter / wall_seconds` to within [`RATE_COHERENCE`], counters
//!   must be ordered (a run processes at least one engine event per
//!   lookup and per forwarded hop), wall time must be positive and
//!   under an hour, and headline rates must land in the wide
//!   plausibility band [`MIN_EVENTS_PER_SECOND`]..[`MAX_EVENTS_PER_SECOND`]
//!   that catches corrupted or zeroed regenerations on any real
//!   machine.
//!
//! `BENCH_core.json` holds one record per line, and
//! [`check_core_trajectory`] additionally pins that the simulation
//! counters agree across the lines: repeated passes of one fixed-seed
//! scenario may differ only in wall time.
//!
//! CI regenerates the quick-shape core trajectory every PR and
//! validates it with the same checker (see the `ERT_BENCH_FRESH_CORE`
//! gated test), so a regression that breaks the bench pipeline fails
//! before a stale trajectory is committed.

use std::path::PathBuf;

use ert_telemetry::Json;

/// Relative tolerance between a recorded rate and `counter / wall`.
/// The bench computes rates from the same numbers, so this only
/// absorbs decimal round-tripping.
pub const RATE_COHERENCE: f64 = 1e-6;

/// Lower plausibility bound on engine events per second. A simulator
/// that processes fewer than this is not a hot loop measurement — it
/// is a hung run or a corrupted record.
pub const MIN_EVENTS_PER_SECOND: f64 = 1e2;

/// Upper plausibility bound on engine events per second (three orders
/// of magnitude above current hardware).
pub const MAX_EVENTS_PER_SECOND: f64 = 1e12;

/// Path of a bench artifact at the workspace root.
pub fn bench_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn field<'a>(obj: &'a Json, key: &str, errs: &mut Vec<String>) -> Option<&'a Json> {
    let v = obj.get(key);
    if v.is_none() {
        errs.push(format!("missing key `{key}`"));
    }
    v
}

fn num(obj: &Json, key: &str, errs: &mut Vec<String>) -> Option<f64> {
    match field(obj, key, errs) {
        Some(v) => match v.as_f64() {
            Some(x) => Some(x),
            None => {
                errs.push(format!("key `{key}` is not a number"));
                None
            }
        },
        None => None,
    }
}

fn count(obj: &Json, key: &str, errs: &mut Vec<String>) -> Option<u64> {
    match field(obj, key, errs) {
        Some(v) => match v.as_u64() {
            Some(x) => Some(x),
            None => {
                errs.push(format!("key `{key}` is not a non-negative integer"));
                None
            }
        },
        None => None,
    }
}

fn check_rate(name: &str, rate: f64, counter: u64, wall: f64, errs: &mut Vec<String>) {
    let derived = counter as f64 / wall;
    let denom = derived.abs().max(1e-12);
    if ((rate - derived) / denom).abs() > RATE_COHERENCE {
        errs.push(format!(
            "{name} = {rate} disagrees with {counter} / {wall} = {derived}"
        ));
    }
}

/// Validates one `BENCH_core.json` payload. Returns every violation
/// found (empty = valid).
pub fn check_core_record(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let root = match Json::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let Some(scenario) = field(&root, "scenario", &mut errs) else {
        return errs;
    };
    let n = count(scenario, "n", &mut errs);
    let lookups = count(scenario, "lookups", &mut errs);
    count(scenario, "seed", &mut errs);
    if field(scenario, "quick", &mut errs).is_some_and(|v| v.as_bool().is_none()) {
        errs.push("key `quick` is not a bool".into());
    }
    if field(&root, "protocol", &mut errs).is_some_and(|v| v.as_str().is_none()) {
        errs.push("key `protocol` is not a string".into());
    }
    let wall = num(&root, "wall_seconds", &mut errs);
    let events = count(&root, "events_processed", &mut errs);
    let events_rate = num(&root, "events_per_second", &mut errs);
    let completed = count(&root, "lookups_completed", &mut errs);
    let lookups_rate = num(&root, "lookups_per_second", &mut errs);
    let hops = count(&root, "hops_forwarded", &mut errs);
    let forwards_rate = num(&root, "forwards_per_second", &mut errs);
    let adapts = count(&root, "adapt_rounds", &mut errs);
    let adapts_rate = num(&root, "adapt_rounds_per_second", &mut errs);

    let (Some(wall), Some(events), Some(completed), Some(hops), Some(adapts)) =
        (wall, events, completed, hops, adapts)
    else {
        return errs;
    };
    if !(wall > 0.0 && wall < 3600.0) {
        errs.push(format!("wall_seconds {wall} outside (0, 3600)"));
    }
    if n == Some(0) || lookups == Some(0) {
        errs.push("scenario n / lookups must be positive".into());
    }
    if let Some(l) = lookups {
        if completed > l {
            errs.push(format!(
                "lookups_completed {completed} exceeds injected {l}"
            ));
        }
    }
    if completed == 0 {
        errs.push("no lookups completed — not a hot-loop measurement".into());
    }
    if events < completed || events < hops || events < adapts {
        errs.push(format!(
            "events_processed {events} below a counter it subsumes \
             (completed {completed}, hops {hops}, adapt rounds {adapts})"
        ));
    }
    if adapts == 0 {
        errs.push("adapt_rounds is zero — the adaptation loop never ran".into());
    }
    if let Some(rate) = events_rate {
        check_rate("events_per_second", rate, events, wall, &mut errs);
        if !(MIN_EVENTS_PER_SECOND..=MAX_EVENTS_PER_SECOND).contains(&rate) {
            errs.push(format!(
                "events_per_second {rate} outside plausibility band \
                 [{MIN_EVENTS_PER_SECOND}, {MAX_EVENTS_PER_SECOND}]"
            ));
        }
    }
    if let Some(rate) = lookups_rate {
        check_rate("lookups_per_second", rate, completed, wall, &mut errs);
    }
    if let Some(rate) = forwards_rate {
        check_rate("forwards_per_second", rate, hops, wall, &mut errs);
    }
    if let Some(rate) = adapts_rate {
        check_rate("adapt_rounds_per_second", rate, adapts, wall, &mut errs);
    }
    errs
}

/// Validates a full `BENCH_core.json` trajectory: at least one
/// record, one per non-empty line, each individually valid per
/// [`check_core_record`], with identical scenarios and identical
/// simulation counters across lines (only wall time and the rates
/// derived from it may differ between passes). Returns every
/// violation found (empty = valid).
pub fn check_core_trajectory(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.is_empty() {
        errs.push("no records".into());
    }
    // (scenario JSON, events, completed, hops, adapts) of the first record.
    let mut reference: Option<(Option<Json>, u64, u64, u64, u64)> = None;
    for (i, line) in lines.iter().enumerate() {
        for e in check_core_record(line) {
            errs.push(format!("record {i}: {e}"));
        }
        let Ok(root) = Json::parse(line) else {
            continue;
        };
        let scenario = root.get("scenario").cloned();
        let counter = |key: &str| root.get(key).and_then(Json::as_u64).unwrap_or(0);
        let sig = (
            scenario,
            counter("events_processed"),
            counter("lookups_completed"),
            counter("hops_forwarded"),
            counter("adapt_rounds"),
        );
        match &reference {
            None => reference = Some(sig),
            Some(r) if *r != sig => errs.push(format!(
                "record {i}: scenario or simulation counters diverge from record 0 \
                 — a fixed-seed pass must be deterministic"
            )),
            Some(_) => {}
        }
    }
    errs
}

/// Validates one `BENCH_par.json` payload. Returns every violation
/// found (empty = valid).
pub fn check_par_record(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let root = match Json::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    count(&root, "n", &mut errs);
    count(&root, "lookups", &mut errs);
    count(&root, "batch_runs", &mut errs);
    let speedup = num(&root, "speedup", &mut errs);
    match field(&root, "byte_identical", &mut errs).and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => errs.push("byte_identical is false — determinism contract broken".into()),
        None => errs.push("key `byte_identical` is not a bool".into()),
    }
    let Some(points) = field(&root, "points", &mut errs).and_then(Json::as_arr) else {
        return errs;
    };
    if points.len() < 2 {
        errs.push(format!("need >= 2 timed points, got {}", points.len()));
        return errs;
    }
    let mut walls = Vec::new();
    let mut last_workers = 0u64;
    for (i, p) in points.iter().enumerate() {
        let workers = count(p, "workers", &mut errs).unwrap_or(0);
        let wall = num(p, "wall_seconds", &mut errs).unwrap_or(0.0);
        if workers <= last_workers {
            errs.push(format!("point {i}: workers {workers} not ascending"));
        }
        if !(wall > 0.0 && wall < 3600.0) {
            errs.push(format!("point {i}: wall_seconds {wall} outside (0, 3600)"));
        }
        last_workers = workers;
        walls.push(wall);
    }
    if let (Some(speedup), Some(&first), Some(&last)) = (speedup, walls.first(), walls.last()) {
        if last > 0.0 {
            let derived = first / last;
            if ((speedup - derived) / derived.abs().max(1e-12)).abs() > RATE_COHERENCE {
                errs.push(format!(
                    "speedup {speedup} disagrees with wall(first)/wall(last) = {derived}"
                ));
            }
        }
        // Plausibility band, not a perf assertion: a 1024-fold speedup
        // or slowdown means the record is garbage, not a fast machine.
        if !(1.0 / 1024.0..=1024.0).contains(&speedup) {
            errs.push(format!("speedup {speedup} outside plausibility band"));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(name: &str) -> String {
        let path = bench_file(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("committed {} unreadable: {e}", path.display()))
    }

    /// The committed core trajectory parses and satisfies every schema
    /// and tolerance-band invariant, and keeps its simulation counters
    /// identical across lines.
    #[test]
    fn committed_core_trajectory_is_valid() {
        let errs = check_core_trajectory(&read("BENCH_core.json"));
        assert!(errs.is_empty(), "BENCH_core.json violations: {errs:#?}");
    }

    /// Same guard for the committed parallel-speedup record.
    #[test]
    fn committed_par_record_is_valid() {
        let errs = check_par_record(&read("BENCH_par.json"));
        assert!(errs.is_empty(), "BENCH_par.json violations: {errs:#?}");
    }

    /// CI hook: after regenerating a fresh quick-shape trajectory, set
    /// `ERT_BENCH_FRESH_CORE=<path>` and this test validates it with
    /// the same checker as the committed file. Skips silently when the
    /// variable is unset (local `cargo test`).
    #[test]
    fn fresh_core_record_is_valid_when_provided() {
        let Ok(path) = std::env::var("ERT_BENCH_FRESH_CORE") else {
            return;
        };
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("ERT_BENCH_FRESH_CORE={path} unreadable: {e}"));
        let errs = check_core_trajectory(&text);
        assert!(errs.is_empty(), "{path} violations: {errs:#?}");
    }

    #[test]
    fn core_checker_rejects_broken_records() {
        assert!(!check_core_record("not json").is_empty());
        assert!(!check_core_record("{}").is_empty());
        // A coherent record altered to lie about its rate.
        let good = r#"{"scenario":{"n":128,"lookups":200,"seed":97,"quick":true},
            "protocol":"ERT/AF","wall_seconds":0.5,
            "events_processed":4000,"events_per_second":8000.0,
            "lookups_completed":200,"lookups_per_second":400.0,
            "hops_forwarded":900,"forwards_per_second":1800.0,
            "adapt_rounds":30,"adapt_rounds_per_second":60.0}"#;
        assert_eq!(check_core_record(good), Vec::<String>::new());
        let nameless = good.replace("\"protocol\":\"ERT/AF\",", "");
        assert!(check_core_record(&nameless)
            .iter()
            .any(|e| e.contains("protocol")));
        let lying = good.replace(
            "\"events_per_second\":8000.0",
            "\"events_per_second\":9000.0",
        );
        assert!(check_core_record(&lying)
            .iter()
            .any(|e| e.contains("events_per_second")));
        let zeroed = good.replace("\"adapt_rounds\":30", "\"adapt_rounds\":0");
        assert!(check_core_record(&zeroed)
            .iter()
            .any(|e| e.contains("adapt_rounds")));
    }

    /// Single-line flattening of the `good` record with a chosen wall
    /// time (rates rescaled to stay coherent).
    fn trajectory_line(wall: f64) -> String {
        let scale = 0.5 / wall;
        format!(
            r#"{{"scenario":{{"n":128,"lookups":200,"seed":97,"quick":true}},
            "protocol":"ERT/AF","wall_seconds":{wall},
            "events_processed":4000,"events_per_second":{},
            "lookups_completed":200,"lookups_per_second":{},
            "hops_forwarded":900,"forwards_per_second":{},
            "adapt_rounds":30,"adapt_rounds_per_second":{}}}"#,
            8000.0 * scale,
            400.0 * scale,
            1800.0 * scale,
            60.0 * scale,
        )
        .replace('\n', " ")
    }

    #[test]
    fn trajectory_checker_accepts_repeats_and_rejects_divergence() {
        let lone = format!("{}\n", trajectory_line(0.5));
        assert_eq!(check_core_trajectory(&lone), Vec::<String>::new());
        let repeats = format!("{}\n{}\n", trajectory_line(0.5), trajectory_line(0.625));
        assert_eq!(check_core_trajectory(&repeats), Vec::<String>::new());

        // An empty file is not a trajectory.
        assert!(check_core_trajectory("\n")
            .iter()
            .any(|e| e.contains("no records")));

        // Diverging counters across passes break determinism even when
        // each record is self-coherent.
        let skewed = trajectory_line(0.625)
            .replace("\"events_processed\":4000", "\"events_processed\":4100")
            .replace("\"events_per_second\":6400", "\"events_per_second\":6560");
        let diverged = format!("{}\n{}\n", trajectory_line(0.5), skewed);
        let errs = check_core_trajectory(&diverged);
        assert_eq!(errs.len(), 1, "{errs:#?}");
        assert!(errs[0].contains("diverge from record 0 — a fixed-seed"));
    }

    #[test]
    fn par_checker_rejects_broken_records() {
        assert!(!check_par_record("[]").is_empty());
        let good = r#"{"n":128,"lookups":200,"batch_runs":16,
            "points":[{"workers":1,"wall_seconds":2.0},{"workers":4,"wall_seconds":0.5}],
            "speedup":4.0,"byte_identical":true}"#;
        assert_eq!(check_par_record(good), Vec::<String>::new());
        let broken = good.replace("\"byte_identical\":true", "\"byte_identical\":false");
        assert!(check_par_record(&broken)
            .iter()
            .any(|e| e.contains("determinism")));
        let wrong = good.replace("\"speedup\":4.0", "\"speedup\":2.0");
        assert!(check_par_record(&wrong)
            .iter()
            .any(|e| e.contains("speedup")));
    }
}
