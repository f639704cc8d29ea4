//! Integration: the workspace-aware analysis pass (D9/D10/D11), the
//! baseline diff pipeline's exit codes, and the SARIF 2.1.0 schema
//! shape — each proven against planted throwaway workspaces, the same
//! fixture style as `workspace_gate.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ert_telemetry::Json;

/// A throwaway workspace under the system temp dir; removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("ert-lint-analysis-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        fs::create_dir_all(&root).expect("mkdir fixture");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .expect("write root manifest");
        Fixture { root }
    }

    /// Adds a crate `dir` (under `crates/`) named `package` with the
    /// given `(rel_src_path, contents)` source files.
    fn krate(&self, dir: &str, package: &str, files: &[(&str, &str)]) -> &Fixture {
        let base = self.root.join("crates").join(dir);
        fs::write(
            {
                fs::create_dir_all(base.join("src")).expect("mkdir crate");
                base.join("Cargo.toml")
            },
            format!("[package]\nname = \"{package}\"\nversion = \"0.0.0\"\n"),
        )
        .expect("write crate manifest");
        for (rel, contents) in files {
            let path = base.join(rel);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent).expect("mkdir src subdir");
            }
            fs::write(path, contents).expect("write source");
        }
        self
    }

    fn lint(&self, extra_args: &[&str]) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_ert-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra_args)
            .output()
            .expect("run ert-lint");
        (
            out.status.code().expect("exit code"),
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            String::from_utf8(out.stderr).expect("utf-8 stderr"),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

// ---- D9: transitive-panic through the call graph ----

#[test]
fn d9_panic_two_calls_below_a_hot_path_root_fails_the_gate() {
    let fx = Fixture::new("d9");
    // The panic is two hops below `network::lookup` and in a different
    // file, so the old per-file D4 pass could never see it.
    fx.krate(
        "network",
        "ert-network",
        &[
            (
                "src/lookup.rs",
                "pub fn lookup_step(x: Option<u32>) -> u32 { crate::helper::stage_one(x) }\n",
            ),
            (
                "src/helper.rs",
                "pub fn stage_one(x: Option<u32>) -> u32 { stage_two(x) }\n\
                 pub fn stage_two(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ],
    );
    let (code, stdout, _) = fx.lint(&["--json"]);
    assert_ne!(code, 0, "reachable panic must fail the gate: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"transitive-panic\""),
        "report: {stdout}"
    );
    // The diagnostic names the chain from the root to the panic site.
    assert!(stdout.contains("stage_two"), "report: {stdout}");
}

#[test]
fn d9_is_waivable_at_the_panic_site() {
    let fx = Fixture::new("d9-waived");
    fx.krate(
        "network",
        "ert-network",
        &[
            (
                "src/lookup.rs",
                "pub fn lookup_step(v: &[u32]) -> u32 { crate::helper::first(v) }\n",
            ),
            (
                "src/helper.rs",
                "pub fn first(v: &[u32]) -> u32 {\n\
                 // ert-lint: allow(transitive-panic) — lookup_step's callers never pass an empty slice\n\
                 *v.first().unwrap()\n\
                 }\n",
            ),
        ],
    );
    let (code, stdout, _) = fx.lint(&["--json"]);
    assert_eq!(code, 0, "justified waiver must pass: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"transitive-panic\""),
        "waiver should appear in the suppressed list: {stdout}"
    );
}

// ---- D10: shared-state in the shard-bound crates ----

#[test]
fn d10_mutex_in_a_sim_module_fails_the_gate() {
    let fx = Fixture::new("d10");
    fx.krate(
        "sim",
        "ert-sim",
        &[(
            "src/lib.rs",
            "use std::sync::Mutex;\npub static SHARED: Mutex<u64> = Mutex::new(0);\n",
        )],
    );
    let (code, stdout, _) = fx.lint(&["--json"]);
    assert_ne!(code, 0, "shared state in ert-sim must fail: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"shared-state\""),
        "report: {stdout}"
    );
}

/// The sharded-core regression shape: someone "fixes" cross-shard
/// communication by wrapping the mailboxes in a `Mutex` instead of
/// keeping the shard reactors shared-nothing. D10 must catch exactly
/// this plant in any shard-bound crate, while the same types stay
/// exempt inside `#[cfg(test)]` modules.
#[test]
fn d10_catches_a_planted_cross_shard_mutex() {
    let fx = Fixture::new("d10-cross-shard");
    fx.krate(
        "network",
        "ert-network",
        &[(
            "src/shard_bridge.rs",
            "pub struct ShardBridge {\n\
                 // cross-shard mailbox \"protected\" by a lock: the exact\n\
                 // shared-state regression the shared-nothing core forbids\n\
                 cross_shard: std::sync::Mutex<Vec<(usize, u64)>>,\n\
             }\n\
             impl ShardBridge {\n\
                 pub fn send(&self, to: usize, ev: u64) {\n\
                     self.cross_shard.lock().unwrap().push((to, ev));\n\
                 }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::cell::RefCell;\n\
                 #[test]\n\
                 fn scratch() { let c = RefCell::new(1u32); assert_eq!(*c.borrow(), 1); }\n\
             }\n",
        )],
    );
    let (code, stdout, _) = fx.lint(&["--json"]);
    assert_ne!(code, 0, "a cross-shard Mutex must fail the gate: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"shared-state\""),
        "report: {stdout}"
    );
    assert!(
        stdout.contains("Mutex"),
        "diagnostic must name the planted type: {stdout}"
    );
    // Exactly one finding: the test-module RefCell stays exempt.
    assert_eq!(
        stdout.matches("\"rule\": \"shared-state\"").count(),
        1,
        "the #[cfg(test)] RefCell must not be flagged: {stdout}"
    );
}

// ---- D11: stale allows ----

#[test]
fn d11_allow_masking_nothing_fails_the_gate() {
    let fx = Fixture::new("d11");
    fx.krate(
        "clean",
        "ert-clean",
        &[(
            "src/lib.rs",
            "// ert-lint: allow(wall-clock) — leftover from a removed Instant::now\n\
             pub fn f() -> u32 { 1 }\n",
        )],
    );
    let (code, stdout, _) = fx.lint(&["--json"]);
    assert_ne!(code, 0, "stale allow must fail the gate: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"stale-allow\""),
        "report: {stdout}"
    );
}

// ---- baseline pipeline exit codes ----

#[test]
fn baseline_diff_exit_codes_cover_new_accepted_and_stale() {
    let fx = Fixture::new("baseline");
    fx.krate(
        "app",
        "ert-app",
        &[(
            "src/lib.rs",
            "pub fn f() { let _t = std::time::Instant::now(); }\n",
        )],
    );

    // Unbaselined violation: plain run and empty-baseline diff both fail
    // with exit 1, and the diff labels it NEW.
    fs::write(
        fx.root.join("empty.json"),
        "{ \"version\": 1, \"entries\": [] }",
    )
    .expect("write empty baseline");
    let (code, _, _) = fx.lint(&[]);
    assert_eq!(code, 1);
    let (code, _, stderr) = fx.lint(&["--baseline", "empty.json"]);
    assert_eq!(code, 1, "new finding against empty baseline: {stderr}");
    assert!(stderr.contains("NEW"), "stderr: {stderr}");

    // Accept the finding, diff again: exit 0, reported as baselined.
    let (code, _, _) = fx.lint(&["--write-baseline", "accepted.json"]);
    assert_eq!(code, 1, "write-baseline does not change the exit");
    let (code, _, stderr) = fx.lint(&["--baseline", "accepted.json"]);
    assert_eq!(code, 0, "baselined finding passes: {stderr}");
    assert!(stderr.contains("1 baselined"), "stderr: {stderr}");

    // Fix the violation but keep the baseline: exit 3 (stale entries).
    fs::write(
        fx.root.join("crates/app/src/lib.rs"),
        "pub fn f() -> u32 { 1 }\n",
    )
    .expect("fix the violation");
    let (code, _, stderr) = fx.lint(&["--baseline", "accepted.json"]);
    assert_eq!(code, 3, "stale baseline entry must exit 3: {stderr}");
    assert!(stderr.contains("STALE"), "stderr: {stderr}");

    // A malformed baseline is a usage error.
    fs::write(fx.root.join("broken.json"), "{ not json").expect("write broken baseline");
    let (code, _, _) = fx.lint(&["--baseline", "broken.json"]);
    assert_eq!(code, 2);
}

#[test]
fn real_workspace_is_clean_against_the_committed_baseline() {
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_ert-lint"))
        .arg("--root")
        .arg(&root)
        .args(["--baseline", "lint-baseline.json"])
        .output()
        .expect("run ert-lint");
    assert!(
        out.status.success(),
        "workspace must be clean against lint-baseline.json:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---- SARIF 2.1.0 schema shape ----

#[test]
fn sarif_output_matches_the_2_1_0_schema_shape() {
    let fx = Fixture::new("sarif");
    fx.krate(
        "app",
        "ert-app",
        &[(
            "src/lib.rs",
            "pub fn f() { let _t = std::time::Instant::now(); }\n\
             // ert-lint: allow(ambient-rng) — fixture waiver, exercises the suppressed path\n\
             pub fn g() -> u64 { thread_rng().gen() }\n",
        )],
    );
    let sarif_path = fx.root.join("out.sarif");
    let (code, _, _) = fx.lint(&["--sarif", sarif_path.to_str().expect("utf-8")]);
    assert_eq!(code, 1, "the wall-clock violation still fails the run");

    let text = fs::read_to_string(&sarif_path).expect("SARIF written");
    let doc = Json::parse(&text).expect("SARIF is valid JSON");

    // Top level: $schema, version, runs[].
    assert_eq!(
        doc.get("$schema").and_then(Json::as_str),
        Some("https://json.schemastore.org/sarif-2.1.0.json")
    );
    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1);

    // tool.driver with a populated rule catalog.
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(Json::as_str), Some("ert-lint"));
    let rules = driver.get("rules").and_then(Json::as_arr).expect("rules");
    let rule_ids: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    for expected in [
        "wall-clock",
        "transitive-panic",
        "shared-state",
        "stale-allow",
    ] {
        assert!(rule_ids.contains(&expected), "missing rule {expected}");
    }
    for r in rules {
        assert!(
            r.get("shortDescription")
                .and_then(|d| d.get("text"))
                .and_then(Json::as_str)
                .is_some_and(|t| !t.is_empty()),
            "every rule needs a shortDescription.text"
        );
    }

    // results: every entry has ruleId/level/message.text and a physical
    // location with a 1-based startLine; waived findings carry an
    // inSource suppression.
    let results = runs[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert!(results.len() >= 2, "one error and one note expected");
    let mut saw_error = false;
    let mut saw_suppressed_note = false;
    for r in results {
        assert!(r.get("ruleId").and_then(Json::as_str).is_some());
        let level = r.get("level").and_then(Json::as_str).expect("level");
        assert!(matches!(level, "error" | "note" | "warning"));
        assert!(r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .is_some());
        let loc = &r
            .get("locations")
            .and_then(Json::as_arr)
            .expect("locations")[0];
        let phys = loc.get("physicalLocation").expect("physicalLocation");
        assert!(phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str)
            .is_some());
        assert!(phys
            .get("region")
            .and_then(|g| g.get("startLine"))
            .and_then(Json::as_u64)
            .is_some_and(|l| l >= 1));
        saw_error |= level == "error";
        if let Some(sups) = r.get("suppressions").and_then(Json::as_arr) {
            saw_suppressed_note |= level == "note"
                && sups.iter().all(|s| {
                    s.get("kind").and_then(Json::as_str) == Some("inSource")
                        && s.get("justification").and_then(Json::as_str).is_some()
                });
        }
    }
    assert!(
        saw_error,
        "the wall-clock violation must appear as an error"
    );
    assert!(
        saw_suppressed_note,
        "the waived ambient-rng finding must appear as a suppressed note"
    );
}

#[test]
fn sarif_baseline_state_distinguishes_new_from_unchanged() {
    let fx = Fixture::new("sarif-baseline");
    fx.krate(
        "app",
        "ert-app",
        &[(
            "src/lib.rs",
            "pub fn f() { let _t = std::time::Instant::now(); }\n\
             pub fn g() -> u64 { thread_rng().gen() }\n",
        )],
    );
    // Baseline only the wall-clock finding; the ambient-rng one is new.
    fs::write(
        fx.root.join("partial.json"),
        "{ \"version\": 1, \"entries\": [\n\
         { \"rule\": \"wall-clock\", \"file\": \"crates/app/src/lib.rs\", \"line\": 1 }\n\
         ] }",
    )
    .expect("write partial baseline");
    let sarif_path = fx.root.join("out.sarif");
    let (code, _, _) = fx.lint(&[
        "--baseline",
        "partial.json",
        "--sarif",
        sarif_path.to_str().expect("utf-8"),
    ]);
    assert_eq!(code, 1, "the unbaselined finding fails the diff");

    let doc =
        Json::parse(&fs::read_to_string(&sarif_path).expect("SARIF written")).expect("valid JSON");
    let results = doc.get("runs").and_then(Json::as_arr).expect("runs")[0]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    let state_of = |rule: &str| {
        results
            .iter()
            .find(|r| r.get("ruleId").and_then(Json::as_str) == Some(rule))
            .and_then(|r| r.get("baselineState"))
            .and_then(Json::as_str)
    };
    assert_eq!(state_of("wall-clock"), Some("unchanged"));
    assert_eq!(state_of("ambient-rng"), Some("new"));
}
