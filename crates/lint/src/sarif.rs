//! SARIF 2.1.0 output, for CI annotation and archive upload.
//!
//! One run, one driver (`ert-lint`), the full rule catalog under
//! `tool.driver.rules`, and one `result` per finding: standing
//! violations at level `error` (with a `baselineState` when the run was
//! diffed against a baseline), waived findings at level `note` carrying
//! an `inSource` suppression with the inline justification. The writer
//! is hand-rolled like the rest of the crate; the schema-shape guard
//! test in `tests/analysis_gate.rs` keeps it honest.

use std::fmt::Write as _;

use crate::baseline::{json_str, Diff};
use crate::report::Report;
use crate::rules::{CATALOG, META_CATALOG};

/// One-line rule descriptions for the SARIF catalog entry.
fn describe(rule: &str) -> &'static str {
    match rule {
        "wall-clock" => "Wall-clock reads; sims must be pure functions of the seed",
        "ambient-rng" => "Ambient randomness; derive all RNG state from the run seed",
        "hash-container" => "Hash-ordered containers in determinism-critical crates",
        "panic-path" => "unwrap/expect/panic! directly in a hot-path file",
        "float-eq" => "Direct float equality in load/capacity comparisons",
        "swallowed-result" => "Silently discarded Results in fault-handling code",
        "raw-thread" => "Raw thread spawning outside the ert-par pool",
        "unbounded-collector" => "Unbounded sample accumulation in streaming hot loops",
        "transitive-panic" => "Panic reachable from a hot-path root through the call graph",
        "shared-state" => "Shared mutable state in crates that concurrent ert-par runs instantiate",
        "stale-allow" => "An ert-lint allow comment that no longer waives anything",
        "suppression" => "Malformed ert-lint suppression comment",
        _ => "ert-lint rule",
    }
}

/// Renders the report as a SARIF 2.1.0 document. When `diff` is given
/// (a `--baseline` run), each violation carries a `baselineState` of
/// `"new"` or `"unchanged"`.
pub fn render(report: &Report, diff: Option<&Diff>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"ert-lint\",\n");
    let _ = writeln!(
        s,
        "          \"version\": {},",
        json_str(env!("CARGO_PKG_VERSION"))
    );
    s.push_str("          \"rules\": [\n");
    let all_rules: Vec<&(&str, &str)> = CATALOG.iter().chain(META_CATALOG.iter()).collect();
    for (i, (code, name)) in all_rules.iter().enumerate() {
        let sep = if i + 1 == all_rules.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "            {{ \"id\": {}, \"name\": {}, \"shortDescription\": {{ \"text\": {} }} }}{sep}",
            json_str(name),
            json_str(code),
            json_str(describe(name))
        );
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");

    // `baselineState` assignment mirrors the diff's multiset matching:
    // consume one `new` slot per textually-identical finding.
    let mut new_pool: Vec<bool> = diff.map(|d| vec![true; d.new.len()]).unwrap_or_default();
    let mut results: Vec<String> = Vec::new();
    for v in &report.violations {
        let state = diff.map(|d| {
            let slot = d
                .new
                .iter()
                .enumerate()
                .position(|(i, n)| new_pool[i] && n == v);
            match slot {
                Some(i) => {
                    new_pool[i] = false;
                    "new"
                }
                None => "unchanged",
            }
        });
        let mut r = String::from("        {\n");
        let _ = writeln!(r, "          \"ruleId\": {},", json_str(v.rule));
        r.push_str("          \"level\": \"error\",\n");
        let _ = writeln!(
            r,
            "          \"message\": {{ \"text\": {} }},",
            json_str(&v.message)
        );
        if let Some(state) = state {
            let _ = writeln!(r, "          \"baselineState\": {},", json_str(state));
        }
        push_location(&mut r, &v.file, v.line);
        r.push_str("        }");
        results.push(r);
    }
    for sup in &report.suppressed {
        let v = &sup.violation;
        let mut r = String::from("        {\n");
        let _ = writeln!(r, "          \"ruleId\": {},", json_str(v.rule));
        r.push_str("          \"level\": \"note\",\n");
        let _ = writeln!(
            r,
            "          \"message\": {{ \"text\": {} }},",
            json_str(&v.message)
        );
        let _ = writeln!(
            r,
            "          \"suppressions\": [ {{ \"kind\": \"inSource\", \"justification\": {} }} ],",
            json_str(&sup.justification)
        );
        push_location(&mut r, &v.file, v.line);
        r.push_str("        }");
        results.push(r);
    }
    s.push_str(&results.join(",\n"));
    if !results.is_empty() {
        s.push('\n');
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

fn push_location(r: &mut String, file: &str, line: u32) {
    let _ = writeln!(
        r,
        "          \"locations\": [ {{ \"physicalLocation\": {{ \
         \"artifactLocation\": {{ \"uri\": {} }}, \
         \"region\": {{ \"startLine\": {} }} }} }} ]",
        json_str(file),
        line
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Suppressed, Violation};

    fn sample_report() -> Report {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.violations.push(Violation {
            rule: "wall-clock",
            file: "crates/a/src/lib.rs".into(),
            line: 3,
            message: "wall-clock read `Instant::now()`".into(),
        });
        r.suppressed.push(Suppressed {
            violation: Violation {
                rule: "shared-state",
                file: "crates/sim/src/stats.rs".into(),
                line: 47,
                message: "`RefCell` is shared/interior-mutable state".into(),
            },
            justification: "single-threaded by construction".into(),
        });
        r
    }

    #[test]
    fn sarif_names_schema_version_and_rules() {
        let out = render(&sample_report(), None);
        assert!(out.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(out.contains("\"version\": \"2.1.0\""));
        assert!(out.contains("\"id\": \"transitive-panic\""));
        assert!(out.contains("\"id\": \"stale-allow\""));
        // No baseline: no baselineState field anywhere.
        assert!(!out.contains("baselineState"));
    }

    #[test]
    fn violations_are_errors_and_waivers_are_suppressed_notes() {
        let out = render(&sample_report(), None);
        assert!(out.contains("\"level\": \"error\""));
        assert!(out.contains("\"level\": \"note\""));
        assert!(out.contains("\"kind\": \"inSource\""));
        assert!(out.contains("single-threaded by construction"));
        assert!(out.contains("\"startLine\": 47"));
    }

    #[test]
    fn baseline_diff_marks_new_vs_unchanged() {
        let report = sample_report();
        // Diff that says the single violation is new.
        let diff = Diff {
            new: report.violations.clone(),
            baselined: Vec::new(),
            stale: Vec::new(),
        };
        let out = render(&report, Some(&diff));
        assert!(out.contains("\"baselineState\": \"new\""));
        // And a diff that absorbed it.
        let diff2 = Diff {
            new: Vec::new(),
            baselined: report.violations.clone(),
            stale: Vec::new(),
        };
        let out2 = render(&report, Some(&diff2));
        assert!(out2.contains("\"baselineState\": \"unchanged\""));
    }
}
