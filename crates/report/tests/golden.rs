//! Golden snapshots for the dashboard renderer.
//!
//! The fixture reports under `tests/fixtures/` are handwritten
//! `racer-lab/v1` documents with pinned provenance (`git: "fixture0"`),
//! covering every rendering shape: a grouped sweep with quick *and*
//! paper presets (delta table), a nested point-series
//! figure, suite-style workload rows, and a boolean matrix. The rendered
//! pages are committed under `tests/golden/` and must match byte for
//! byte — the determinism the CI artifact and downstream diffing rely
//! on. After an intended rendering change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p racer-report`.

use racer_report::{render_dashboard, InputReport, OutputFile, ScenarioMeta};
use racer_results::Value;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Load every fixture report, sorted by file name (what the CLI does for
/// a directory input).
fn fixtures() -> Vec<InputReport> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected the full fixture set");
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("fixture readable");
            InputReport {
                // Stable label: the file name, not the absolute path, so
                // the snapshot is machine-independent.
                label: format!(
                    "fixtures/{}",
                    p.file_name().expect("file name").to_string_lossy()
                ),
                doc: Value::parse(&text).expect("fixture parses"),
            }
        })
        .collect()
}

/// Registry-like metadata: orders the figure before the evals, supplies
/// titles (countermeasures_eval deliberately omitted to exercise the
/// report-embedded fallback).
fn meta() -> Vec<ScenarioMeta> {
    let m = |name: &str, title: &str, description: &str, order: usize| ScenarioMeta {
        name: name.to_string(),
        title: title.to_string(),
        description: description.to_string(),
        order,
    };
    vec![
        m(
            "fig08_granularity_add",
            "Figure 8",
            "racing-gadget granularity: targets vs an ADD reference path",
            0,
        ),
        m(
            "timer_mitigations_eval",
            "timer mitigations",
            "PLRU channel accuracy across browser timer mitigations × rounds",
            1,
        ),
        m(
            "perf_baseline",
            "perf",
            "event-driven vs reference scheduler throughput",
            2,
        ),
    ]
}

fn render() -> Vec<OutputFile> {
    render_dashboard(&fixtures(), &meta()).expect("fixtures render")
}

#[test]
fn dashboard_matches_committed_golden_pages() {
    let files = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // Clear stale pages so renames don't leave orphans behind.
        std::fs::remove_dir_all(golden_dir()).ok();
        for f in &files {
            let path = golden_dir().join(&f.path);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(&path, &f.content).expect("write golden");
        }
        return;
    }
    // Exactly the committed page set, byte for byte.
    for f in &files {
        let path = golden_dir().join(&f.path);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden page {} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test -p racer-report",
                f.path
            )
        });
        assert_eq!(
            f.content, expected,
            "{} drifted from tests/golden/{} — if intended, regenerate with \
             UPDATE_GOLDEN=1 cargo test -p racer-report",
            f.path, f.path
        );
    }
    let mut committed = Vec::new();
    for entry in walk(&golden_dir()) {
        committed.push(
            entry
                .strip_prefix(golden_dir())
                .expect("under golden dir")
                .to_string_lossy()
                .replace('\\', "/"),
        );
    }
    committed.sort();
    let mut rendered: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    rendered.sort();
    assert_eq!(
        rendered, committed,
        "the rendered page set and the committed golden set must agree"
    );
}

fn walk(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}

#[test]
fn two_renders_are_byte_identical() {
    let a = render();
    let b = render();
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(&b) {
        assert_eq!(fa.path, fb.path);
        assert_eq!(fa.content, fb.content, "{} not deterministic", fa.path);
    }
}

#[test]
fn every_fixture_scenario_gets_plots_and_provenance() {
    let files = render();
    let page = |path: &str| -> &str {
        &files
            .iter()
            .find(|f| f.path == path)
            .unwrap_or_else(|| panic!("missing page {path}"))
            .content
    };
    // Index: one row per scenario, provenance inline.
    let index = page("index.html");
    for needle in [
        "fig08_granularity_add",
        "timer_mitigations_eval",
        "perf_baseline",
        "countermeasures_eval",
        "fixture0",
    ] {
        assert!(index.contains(needle), "index.html lacks {needle:?}");
    }
    // Sweep page: grouped line chart, both presets' sources, delta table.
    let sweep = page("scenarios/timer_mitigations_eval.html");
    assert!(sweep.contains("<svg"));
    assert!(sweep.contains("accuracy vs rounds by <code>timer</code>"));
    assert!(sweep.contains("quick vs paper"));
    assert!(sweep.contains("fixtures/timer_mitigations_eval.paper.json"));
    // Figure page: nested series chart + per-series suite bars.
    let fig = page("scenarios/fig08_granularity_add.html");
    assert!(fig.contains("ref_ops vs target_ops"));
    assert!(fig.contains("slope by <code>target_op</code>"));
    // Suite page: bar chart per measure.
    let perf = page("scenarios/perf_baseline.html");
    assert!(perf.contains("speedup by <code>workload</code>"));
    // Matrix page: a table, no chart (nothing numeric).
    let matrix = page("scenarios/countermeasures_eval.html");
    assert!(!matrix.contains("<svg"));
    assert!(matrix.contains("<td>delay-on-miss</td>"));
    // Every page carries the pinned git describe.
    for f in &files {
        assert!(f.content.contains("fixture0"), "{} lost provenance", f.path);
    }
}
