//! End-to-end tests for `racer-lab report`: round-trips through the
//! built binary, exit codes on malformed/empty input sets, and the
//! byte-identical-output determinism the dashboard artifact relies on.

use racer_results::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_racer-lab")
}

fn tmp(stem: &str) -> PathBuf {
    std::env::temp_dir().join(format!("racer-lab-report-{stem}-{}", std::process::id()))
}

/// Run a couple of quick scenarios into `dir` (tiny overrides keep the
/// debug-build test fast) and return the result file paths.
fn produce_reports(dir: &Path) -> Vec<PathBuf> {
    let runs: &[(&str, &[&str])] = &[
        (
            "timer_mitigations_eval",
            &[
                "--set",
                "timers=5us,1ms",
                "--set",
                "rounds=500",
                "--set",
                "trials=1",
            ],
        ),
        ("countermeasures_eval", &[]),
        (
            "window_ablation_eval",
            &["--set", "rs_sizes=24,32", "--set", "max_probe=60"],
        ),
    ];
    let mut files = Vec::new();
    for (name, overrides) in runs {
        let out = Command::new(bin())
            .args(["run", name, "--quick", "--quiet", "--out"])
            .arg(dir)
            .args(*overrides)
            .output()
            .expect("spawn racer-lab run");
        assert!(
            out.status.success(),
            "run {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.push(dir.join(format!("{name}.json")));
    }
    files
}

/// Every file under `dir`, as `(relative path, content)` sorted by path.
fn read_site(dir: &Path) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir)
            .expect("site dir")
            .filter_map(Result::ok)
        {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, std::fs::read_to_string(&path).expect("page readable")));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn report_renders_a_dashboard_and_is_byte_identical_across_renders() {
    let root = tmp("roundtrip");
    let results = root.join("results");
    produce_reports(&results);

    let render = |site: &str| {
        let dir = root.join(site);
        let out = Command::new(bin())
            .arg("report")
            .arg(&dir)
            .arg(&results)
            .output()
            .expect("spawn racer-lab report");
        assert!(
            out.status.success(),
            "report failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("rendered 3 report(s)"),
            "summary line should count the inputs"
        );
        read_site(&dir)
    };
    let a = render("site-a");
    let b = render("site-b");
    assert_eq!(
        a, b,
        "two renders of the same inputs must be byte-identical"
    );

    let paths: Vec<&str> = a.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        paths,
        [
            "index.html",
            "scenarios/countermeasures_eval.html",
            "scenarios/timer_mitigations_eval.html",
            "scenarios/window_ablation_eval.html",
        ]
    );
    let page = |name: &str| &a.iter().find(|(p, _)| p == name).expect("page").1;
    // Index: every scenario listed with registry titles and provenance.
    let index = page("index.html");
    assert!(index.contains("timer_mitigations_eval"));
    assert!(index.contains("timer mitigations"));
    assert!(index.contains("seed 0"));
    // Sweep pages carry inline-SVG plots and the provenance block.
    let sweep = page("scenarios/timer_mitigations_eval.html");
    assert!(sweep.contains("<svg"), "sweep page must have a plot");
    assert!(sweep.contains("git describe"));
    assert!(sweep.contains("config.trials"));
    let ablation = page("scenarios/window_ablation_eval.html");
    assert!(ablation.contains("reach vs rs_size"));
    // The bool matrix renders as a table, not a chart.
    assert!(!page("scenarios/countermeasures_eval.html").contains("<svg"));

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn report_exit_codes_cover_the_failure_surface() {
    let root = tmp("errors");
    std::fs::create_dir_all(&root).expect("mkdir");
    let run = |args: &[&std::ffi::OsStr]| Command::new(bin()).args(args).output().expect("spawn");
    let os = std::ffi::OsStr::new;

    // Missing out-dir.
    let out = run(&[os("report")]);
    assert_eq!(out.status.code(), Some(2));

    // Empty report set: a directory with no .json files is a usage
    // error, not an empty dashboard.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let out = run(&[
        os("report"),
        root.join("site").as_os_str(),
        empty.as_os_str(),
    ]);
    assert_eq!(out.status.code(), Some(2), "empty input set must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no .json report files"));

    // Nonexistent input path: an IO failure, exit 3.
    let out = run(&[
        os("report"),
        root.join("site").as_os_str(),
        root.join("no-such-dir").as_os_str(),
    ]);
    assert_eq!(out.status.code(), Some(3), "unreadable input must exit 3");

    // Malformed JSON: a parse failure, exit 4.
    let bad = root.join("bad.json");
    std::fs::write(&bad, "{ not json").expect("write");
    let out = run(&[os("report"), root.join("site").as_os_str(), bad.as_os_str()]);
    assert_eq!(out.status.code(), Some(4), "malformed JSON must exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parsing"));

    // Valid JSON that is not a racer-lab/v1 report: also a parse
    // failure (the envelope check), exit 4.
    let wrong = root.join("wrong.json");
    std::fs::write(&wrong, "{\"schema\": \"other/v9\"}\n").expect("write");
    let out = run(&[
        os("report"),
        root.join("site").as_os_str(),
        wrong.as_os_str(),
    ]);
    assert_eq!(out.status.code(), Some(4), "wrong schema must exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("racer-lab/v1"));

    // Flags are rejected (the subcommand takes only paths).
    let out = run(&[os("report"), root.join("site").as_os_str(), os("--quick")]);
    assert_eq!(out.status.code(), Some(2));

    // Nothing was written for any failure.
    assert!(!root.join("site").exists(), "failed renders must not write");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn keep_going_skips_bad_inputs_and_signals_partial_success() {
    let root = tmp("keep-going");
    let inputs = root.join("inputs");
    std::fs::create_dir_all(&inputs).expect("mkdir");

    // One structurally valid report (hand-built: the envelope is all the
    // renderer needs), one malformed file, one wrong-schema file.
    let good = Value::object()
        .with("schema", "racer-lab/v1")
        .with("scenario", "hand_built_eval")
        .with("scale", "quick")
        .with(
            "results",
            Value::object().with("accuracy", 0.875).with("trials", 8),
        );
    std::fs::write(inputs.join("good.json"), good.to_pretty()).expect("write");
    std::fs::write(inputs.join("bad.json"), "{ not json").expect("write");
    std::fs::write(inputs.join("wrong.json"), "{\"schema\": \"other/v9\"}\n").expect("write");

    let site = root.join("site");
    let out = Command::new(bin())
        .arg("report")
        .arg(&site)
        .arg(&inputs)
        .arg("--keep-going")
        .output()
        .expect("spawn racer-lab report --keep-going");
    assert_eq!(
        out.status.code(),
        Some(9),
        "skipped inputs must signal partial success: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping input") && stderr.contains("bad.json"),
        "each skip must be warned on stderr: {stderr}"
    );
    assert!(stderr.contains("wrong.json"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rendered 1 report(s)"));
    assert!(stdout.contains("2 input(s) skipped"));
    let index = std::fs::read_to_string(site.join("index.html")).expect("index rendered");
    assert!(index.contains("hand_built_eval"));

    // Without --keep-going the same input set fails hard on the first
    // bad file and writes nothing.
    let site2 = root.join("site2");
    let out = Command::new(bin())
        .arg("report")
        .arg(&site2)
        .arg(&inputs)
        .output()
        .expect("spawn racer-lab report");
    assert_eq!(out.status.code(), Some(4));
    assert!(!site2.exists(), "failed renders must not write");

    // Nothing usable at all: exit 2 even under --keep-going.
    let out = Command::new(bin())
        .args(["report"])
        .arg(root.join("site3"))
        .arg(inputs.join("bad.json"))
        .arg("--keep-going")
        .output()
        .expect("spawn racer-lab report");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an empty usable set is a usage error even with --keep-going"
    );

    std::fs::remove_dir_all(&root).ok();
}
