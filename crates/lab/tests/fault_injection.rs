//! Fault-injection integration suite: drives the built `racer-lab`
//! binary under `RACER_FAULT_PLAN` (see `racer_lab::fault`) and asserts
//! the pipeline's three robustness invariants end to end:
//!
//! 1. **No corrupt JSON is ever written** — whatever fault fires, every
//!    `*.json` in an output or checkpoint directory strictly parses.
//! 2. **Failures are labelled, not fatal to siblings** — a panicking or
//!    timed-out scenario becomes a `status: "failed"` cell with a typed
//!    `error`, sibling reports are byte-identical to a fault-free run,
//!    and the process exits with the first failure's documented code.
//! 3. **Resume converges** — a run SIGKILL'd (abort) mid-sweep and then
//!    re-run against its checkpoint journal produces outputs
//!    byte-identical to a never-faulted run.

use racer_results::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_racer-lab")
}

fn tmp(stem: &str) -> PathBuf {
    std::env::temp_dir().join(format!("racer-lab-fault-{stem}-{}", std::process::id()))
}

/// The two fast scenarios the suite sweeps: parameterless and
/// deterministic, so fault-free outputs are byte-stable.
const SCENARIOS: [&str; 2] = ["countermeasures_eval", "detection_eval"];

/// Spawn `racer-lab run` on both scenarios with an optional fault plan,
/// checkpoint dir and extra flags.
fn run_lab(out: &Path, plan: Option<&str>, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(bin());
    cmd.arg("run")
        .args(SCENARIOS)
        .args(["--quick", "--quiet", "--out"])
        .arg(out)
        .args(extra)
        .env_remove("RACER_FAULT_PLAN");
    if let Some(plan) = plan {
        cmd.env("RACER_FAULT_PLAN", plan);
    }
    cmd.output().expect("spawn racer-lab run")
}

/// Every `*.json` under `dir` (non-recursive), sorted, with content —
/// asserting along the way that each one strictly parses. This is
/// invariant 1; it runs after every faulted command in the suite.
fn parsed_json_files(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if !dir.exists() {
        return out;
    }
    for entry in std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(Result::ok)
    {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") && path.is_file() {
            let text = std::fs::read_to_string(&path).expect("readable");
            assert!(
                Value::parse(&text).is_ok(),
                "corrupt JSON left at {}: {text:?}",
                path.display()
            );
            out.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                text,
            ));
        }
    }
    out.sort();
    out
}

#[test]
fn injected_panic_becomes_a_labelled_failed_cell_and_spares_siblings() {
    let root = tmp("panic");
    let golden = root.join("golden");
    assert!(run_lab(&golden, None, &[]).status.success());

    let out_dir = root.join("out");
    let out = run_lab(&out_dir, Some("panic@scenario:countermeasures_eval"), &[]);
    assert_eq!(
        out.status.code(),
        Some(6),
        "a panicking trial must exit with the scenario-panic code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("countermeasures_eval: failed"),
        "the failure must be noted on stderr"
    );

    let files = parsed_json_files(&out_dir);
    assert_eq!(files.len(), 2, "both cells are on disk, one failed");
    let cell =
        Value::parse(&std::fs::read_to_string(out_dir.join("countermeasures_eval.json")).unwrap())
            .unwrap();
    assert_eq!(cell.get("status").and_then(Value::as_str), Some("failed"));
    let err = cell.get("error").expect("failed cell carries an error");
    assert_eq!(
        err.get("kind").and_then(Value::as_str),
        Some("scenario-panic")
    );
    assert!(
        err.get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("injected panic at scenario:countermeasures_eval")),
        "the panic payload must be recorded"
    );
    assert!(
        matches!(cell.get("results"), Some(Value::Null)),
        "a failed cell has null results"
    );

    // The sibling that did not fault is byte-identical to fault-free.
    let sibling = |dir: &Path| std::fs::read_to_string(dir.join("detection_eval.json")).unwrap();
    assert_eq!(
        sibling(&out_dir),
        sibling(&golden),
        "an isolated failure must not perturb sibling reports"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn injected_write_faults_never_touch_the_destination() {
    let root = tmp("write");
    for (plan, label) in [
        ("io@write:countermeasures_eval.json", "io"),
        ("trunc@write:countermeasures_eval.json", "trunc"),
    ] {
        let out_dir = root.join(label);
        let out = run_lab(&out_dir, Some(plan), &[]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "a failed result write is an IO error ({label}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !out_dir.join("countermeasures_eval.json").exists(),
            "the destination must never exist after a failed write ({label})"
        );
        // Whatever did land (the sibling may have been written first, and
        // trunc leaves a .tmp orphan that the .json scan ignores) parses.
        parsed_json_files(&out_dir);
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn injected_stall_trips_the_timeout_and_is_recorded() {
    let root = tmp("timeout");
    let out_dir = root.join("out");
    let out = run_lab(
        &out_dir,
        Some("sleep@scenario:countermeasures_eval=30000"),
        &["--timeout-secs", "1"],
    );
    assert_eq!(
        out.status.code(),
        Some(7),
        "a stalled trial must exit with the timeout code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cell =
        Value::parse(&std::fs::read_to_string(out_dir.join("countermeasures_eval.json")).unwrap())
            .unwrap();
    assert_eq!(cell.get("status").and_then(Value::as_str), Some("failed"));
    assert_eq!(
        cell.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("timeout")
    );
    // The sibling still completed despite the stalled trial.
    assert!(out_dir.join("detection_eval.json").exists());
    parsed_json_files(&out_dir);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn kill_mid_run_then_resume_converges_to_the_fault_free_outputs() {
    let root = tmp("kill-resume");
    let golden = root.join("golden");
    assert!(run_lab(&golden, None, &[]).status.success());
    let golden_files = parsed_json_files(&golden);
    assert_eq!(golden_files.len(), 2);

    // Abort the process at the instant one scenario's journal record is
    // about to be written: the harshest interior crash point — result
    // files have not been written yet, and the sibling's record may or
    // may not have landed.
    let out_dir = root.join("out");
    let ckpt = root.join("ckpt");
    let killed = run_lab(
        &out_dir,
        Some("kill@checkpoint:countermeasures_eval"),
        &["--checkpoint", ckpt.to_str().unwrap()],
    );
    assert!(
        !killed.status.success(),
        "the killed run must not report success"
    );
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("kill at checkpoint:countermeasures_eval"),
        "the abort site is announced for debuggability"
    );
    // Invariant 1 under the kill: journal and output dirs hold only
    // complete JSON (atomic writes — a record is whole or absent).
    parsed_json_files(&ckpt);
    parsed_json_files(&out_dir);

    // Resume: same command, no faults. Journaled units replay, the
    // killed unit re-runs, and the outputs converge byte-for-byte.
    let resumed = run_lab(&out_dir, None, &["--checkpoint", ckpt.to_str().unwrap()]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        parsed_json_files(&out_dir),
        golden_files,
        "a killed-and-resumed sweep must produce the fault-free bytes"
    );

    // A third run is a pure replay (everything journaled now).
    let replay = run_lab(&out_dir, None, &["--checkpoint", ckpt.to_str().unwrap()]);
    assert!(replay.status.success());
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert_eq!(
        stdout.matches("resumed").count(),
        2,
        "every unit replays from the journal: {stdout}"
    );
    assert_eq!(parsed_json_files(&out_dir), golden_files);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn resuming_over_a_corrupted_journal_is_a_conflict() {
    let root = tmp("conflict");
    let ckpt = root.join("ckpt");
    let out_dir = root.join("out");
    assert!(
        run_lab(&out_dir, None, &["--checkpoint", ckpt.to_str().unwrap()])
            .status
            .success()
    );
    // Clobber one journal record (a state the atomic-write protocol can
    // never produce — only external interference can). The resume must
    // refuse with the documented conflict code rather than trust it.
    let record = std::fs::read_dir(&ckpt)
        .expect("journal dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("at least one journal record");
    std::fs::write(&record, "{ truncated mid-write").expect("clobber record");
    let out = run_lab(&out_dir, None, &["--checkpoint", ckpt.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(8),
        "an unreadable journal record must exit with the conflict code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint conflict"));
    std::fs::remove_dir_all(&root).ok();
}
