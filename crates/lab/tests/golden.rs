//! Golden and determinism guards for the experiment runner.
//!
//! Three layers:
//!
//! 1. **Determinism sweep** — every registered scenario runs
//!    twice (at quick scale, with heavy axes shrunk further so the debug
//!    test build stays fast) and must produce byte-identical reports.
//! 2. **Committed snapshots** — the two purely structural scenarios
//!    (`countermeasures_eval`, `fig03_plru_walk`) are additionally diffed
//!    against checked-in `tests/golden/*.results.json` files: their
//!    payloads are machine-independent, so any drift is a behavior change.
//! 3. **CLI round trip** — the built `racer-lab` binary runs the same
//!    scenario twice into temp dirs; the written files must match byte for
//!    byte and parse as valid JSON.

use racer_lab::{registry, run_scenario, RunOptions, Scale};
use racer_results::Value;
use std::path::PathBuf;
use std::process::Command;

/// Shrink the expensive sweep axes so the whole determinism sweep stays in
/// test-suite budget even in debug builds. Every override still exercises
/// the same code paths as the quick preset.
fn tiny_overrides(name: &str) -> Vec<(String, String)> {
    let kv = |pairs: &[(&str, &str)]| {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    match name {
        "fig07_repetition" => kv(&[("iterations", "8")]),
        "fig08_granularity_add" => kv(&[("max_target", "8")]),
        "fig09_granularity_mul" => kv(&[("max_target", "16")]),
        "fig10_reorder_distribution" => kv(&[("trials", "2"), ("rounds", "120")]),
        "fig11_arbitrary_replacement" => kv(&[("points", "2,4")]),
        "fig12_arithmetic" => kv(&[("points", "10,20"), ("interrupt_cycles", "4000")]),
        "table_granularity" => kv(&[("fig8_max_target", "8"), ("fig9_max_target", "16")]),
        "table_par_seq" => kv(&[("trials", "200")]),
        "eviction_set_eval" => kv(&[("trials", "1"), ("pool_pages", "24")]),
        "noise_sensitivity_eval" => kv(&[("jitter_levels", "0,60")]),
        "timer_mitigations_eval" => {
            kv(&[("timers", "5us,1ms"), ("rounds", "500"), ("trials", "1")])
        }
        "window_ablation_eval" => kv(&[("rs_sizes", "32"), ("max_probe", "80")]),
        "spectre_back_eval" => kv(&[("secret", "OK")]),
        "smt_contention_eval" => kv(&[
            ("mixes", "none,alu-sat"),
            ("targets", "0,1"),
            ("trials", "1"),
            ("clock_max", "48"),
        ]),
        "gadget_search_eval" => kv(&[
            ("generations", "2"),
            ("population", "12"),
            ("targets", "0,1,2"),
            ("clock_len", "48"),
        ]),
        _ => Vec::new(),
    }
}

#[test]
fn every_deterministic_scenario_is_byte_identical_across_runs() {
    let scenarios = registry();
    assert!(scenarios.len() >= 17, "expected >= 17 scenarios");
    // Independent scenario pairs: fan the sweep out across host cores.
    let renders = racer_cpu::batch::par_map(&scenarios, |sc| {
        let opts = RunOptions {
            scale: Scale::Quick,
            overrides: tiny_overrides(sc.name),
            seed: None,
            timeout_secs: None,
        };
        let a = run_scenario(sc, &opts).expect("first run");
        let b = run_scenario(sc, &opts).expect("second run");
        (sc.name, a.json.to_pretty(), b.json.to_pretty())
    });
    for (name, a, b) in renders {
        assert!(!a.is_empty());
        assert_eq!(a, b, "{name} report changed between identical runs");
        let parsed = Value::parse(&a).unwrap_or_else(|e| panic!("{name} wrote invalid JSON: {e}"));
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("racer-lab/v1"),
            "{name} lost the report envelope"
        );
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.results.json"))
}

/// Structural scenarios (no timing values in the payload) must match the
/// committed snapshot exactly. After confirming a behavior change is
/// intended, regenerate with `UPDATE_GOLDEN=1 cargo test -p racer-lab`.
fn assert_matches_snapshot(name: &str) {
    assert_matches_snapshot_with(name, Vec::new());
}

/// [`assert_matches_snapshot`] at explicit parameter overrides (used to
/// shrink heavy sweep axes so the snapshot runs stay in debug-test
/// budget; the overrides still exercise the quick-preset code paths).
fn assert_matches_snapshot_with(name: &str, overrides: Vec<(String, String)>) {
    let sc = racer_lab::find(name).expect("registered");
    let opts = RunOptions {
        overrides,
        ..RunOptions::quick()
    };
    let report = run_scenario(&sc, &opts).expect("runs");
    let results = report.json.get("results").expect("has results").to_pretty();
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &results).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot for {name}: {e}"));
    assert_eq!(
        results, expected,
        "{name} payload drifted from tests/golden/{name}.results.json"
    );
}

#[test]
fn countermeasure_matrix_matches_committed_snapshot() {
    assert_matches_snapshot("countermeasures_eval");
}

#[test]
fn plru_walk_matches_committed_snapshot() {
    assert_matches_snapshot("fig03_plru_walk");
}

/// The SMT contention sweep is a pure function of the deterministic
/// two-thread simulator — no wall-clock, no RNG — so its quick-preset
/// payload is machine-independent and snapshot-pinned like the other
/// structural scenarios.
#[test]
fn smt_contention_eval_matches_committed_snapshot() {
    assert_matches_snapshot("smt_contention_eval");
}

/// The gadget search is seeded and runs entirely inside the
/// deterministic simulator, so its payload — archive, per-generation
/// logs, discovered templates and fitness — is machine-independent and
/// pins the whole template → lower → evaluate → breed loop at once.
/// Shrunk axes keep the debug snapshot run fast; the shipped-gadget
/// fitness numbers are additionally pinned at full config by
/// `crates/core/tests/gadget_search_determinism.rs`.
#[test]
fn gadget_search_eval_matches_committed_snapshot() {
    assert_matches_snapshot_with("gadget_search_eval", tiny_overrides("gadget_search_eval"));
}

/// Every scenario whose trial fan-out is routed through the batch engine
/// (fork-from-snapshot lanes and/or the warm-snapshot cache) is pinned to
/// a snapshot committed *before* the port: the batched path must be a
/// pure wall-clock change, byte-identical to the per-machine trial loop.
/// Heavy axes reuse the determinism sweep's tiny overrides so the debug
/// test build stays fast; the snapshots still cross every ported path.
#[test]
fn batched_routed_scenarios_match_pre_port_snapshots() {
    let routed = [
        "fig08_granularity_add",
        "fig09_granularity_mul",
        "table_granularity",
        "fig10_reorder_distribution",
        "fig11_arbitrary_replacement",
        "fig12_arithmetic",
        "noise_sensitivity_eval",
        "timer_mitigations_eval",
        "detection_eval",
    ];
    // Independent scenarios: fan the snapshot checks across host cores.
    racer_cpu::batch::par_map(&routed, |name| {
        assert_matches_snapshot_with(name, tiny_overrides(name));
    });
}

#[test]
fn cli_writes_identical_valid_json_across_invocations() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let tmp = std::env::temp_dir().join(format!("racer-lab-golden-{}", std::process::id()));
    let run = |sub: &str| {
        let dir = tmp.join(sub);
        let out = Command::new(bin)
            .args(["run", "countermeasures_eval", "--quick", "--quiet", "--out"])
            .arg(&dir)
            .output()
            .expect("spawn racer-lab");
        assert!(
            out.status.success(),
            "racer-lab failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join("countermeasures_eval.json")).expect("results file")
    };
    let a = run("a");
    let b = run("b");
    assert_eq!(a, b, "CLI output not byte-identical across runs");
    let v = Value::parse(&a).expect("valid JSON on disk");
    assert_eq!(
        v.get("scenario").and_then(Value::as_str),
        Some("countermeasures_eval")
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn cli_rejects_unknown_scenarios_and_bad_overrides() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let unknown = Command::new(bin)
        .args(["run", "no_such_scenario"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    let bad = Command::new(bin)
        .args([
            "run",
            "fig08_granularity_add",
            "--quick",
            "--set",
            "max_target=lots",
        ])
        .output()
        .unwrap();
    // An invalid parameter value is a param error (exit 5), not a
    // generic usage error — see the taxonomy in racer_lab::error.
    assert_eq!(bad.status.code(), Some(5));
}

#[test]
fn list_names_json_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let out = Command::new(bin)
        .args(["list", "--names-json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let names = Value::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON array");
    let names = names.as_array().expect("array");
    assert!(names.len() >= 17);
    assert!(names
        .iter()
        .any(|n| n.as_str() == Some("fig11_arbitrary_replacement")));
}

/// A sweep with fewer than one trial per cell measures nothing: `trials=0`
/// and a negative count are parameter errors (exit 5), not a table of
/// chance accuracies or a scenario panic.
#[test]
fn trials_below_one_are_param_errors() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let tmp = std::env::temp_dir().join(format!("racer-lab-trials-{}", std::process::id()));
    for trials in ["0", "-1"] {
        let out = Command::new(bin)
            .args(["run", "timer_mitigations_eval", "--quick", "--set"])
            .arg(format!("trials={trials}"))
            .arg("--out")
            .arg(&tmp)
            .output()
            .expect("spawn racer-lab");
        assert_eq!(out.status.code(), Some(5), "trials={trials}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("trials"));
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// The gadget search scores a ladder by comparing adjacent targets and
/// judges stealth on the last one: a ladder that is not strictly
/// ascending is a parameter error (exit 5), not a ranking of inverted
/// timers.
#[test]
fn non_ascending_gadget_ladders_are_param_errors() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let tmp = std::env::temp_dir().join(format!("racer-lab-ladder-{}", std::process::id()));
    for targets in ["4,0", "2,2"] {
        let out = Command::new(bin)
            .args(["run", "gadget_search_eval", "--quick", "--set"])
            .arg(format!("targets={targets}"))
            .arg("--out")
            .arg(&tmp)
            .output()
            .expect("spawn racer-lab");
        assert_eq!(out.status.code(), Some(5), "targets={targets}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("parameter \"targets\": the ladder must be strictly ascending"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Every list parameter is a sweep axis: an empty override is a parameter
/// error (exit 5) naming the parameter, not a scenario panic on an empty
/// ladder.
#[test]
fn empty_list_overrides_are_param_errors() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let tmp = std::env::temp_dir().join(format!("racer-lab-empty-{}", std::process::id()));
    for (scenario, param) in [
        ("gadget_search_eval", "targets"),
        ("timer_mitigations_eval", "timers"),
    ] {
        let out = Command::new(bin)
            .args(["run", scenario, "--quick", "--set"])
            .arg(format!("{param}="))
            .arg("--out")
            .arg(&tmp)
            .output()
            .expect("spawn racer-lab");
        assert_eq!(out.status.code(), Some(5), "{scenario} {param}=");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("parameter \"{param}\": expected a non-empty list")),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// A string parameter naming something the scenario does not know — an
/// SMT policy, a contender mix, a timer model — is a parameter error
/// (exit 5) naming the parameter and the known values, raised before any
/// simulation, not a scenario panic.
#[test]
fn unknown_names_in_string_parameters_are_param_errors() {
    let bin = env!("CARGO_BIN_EXE_racer-lab");
    let tmp = std::env::temp_dir().join(format!("racer-lab-names-{}", std::process::id()));
    for (scenario, param, value, known) in [
        (
            "smt_contention_eval",
            "policy",
            "bogus",
            "round-robin, icount",
        ),
        ("smt_contention_eval", "mixes", "cryptominer", "alu-sat"),
        ("timer_mitigations_eval", "timers", "bogus", "fuzzy-5us"),
    ] {
        let out = Command::new(bin)
            .args(["run", scenario, "--quick", "--set"])
            .arg(format!("{param}={value}"))
            .arg("--out")
            .arg(&tmp)
            .output()
            .expect("spawn racer-lab");
        assert_eq!(out.status.code(), Some(5), "{scenario} {param}={value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("parameter \"{param}\"")) && stderr.contains(known),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}
