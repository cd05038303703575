//! Executing scenarios and assembling reports.
//!
//! This is the crash-isolation boundary of the pipeline. A scenario body
//! that panics (a bug, a poisoned parameter read, an injected fault) is
//! caught here and surfaced as a typed [`LabError::ScenarioPanic`]; a body
//! that exceeds the `--timeout-secs` budget becomes a
//! [`LabError::Timeout`]. Either way the CLI records the failure as a
//! `status: "failed"` report cell (see [`failed_report`]) and the sibling
//! scenarios in the same run complete untouched — one bad trial never
//! poisons the sweep.

use crate::error::LabError;
use crate::fault;
use crate::params::{ResolvedParams, Scale};
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use racer_results::Value;
use std::path::{Path, PathBuf};

/// Everything one scenario run produced.
#[derive(Debug)]
pub struct Report {
    /// Scenario name (`results/<name>.json` stem).
    pub name: &'static str,
    /// The full report document (config, provenance, results).
    pub json: Value,
    /// Human-readable text output.
    pub text: String,
}

/// Options shared by every scenario in one `run` invocation.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Preset selecting each parameter's default.
    pub scale: Scale,
    /// `--set name=value` overrides (validated per scenario).
    pub overrides: Vec<(String, String)>,
    /// `--seed` override for the scenario's registered base seed.
    pub seed: Option<u64>,
    /// `--timeout-secs` wall-clock budget per scenario trial. `None`
    /// (the default) runs unbounded.
    pub timeout_secs: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: Scale::Paper,
            overrides: Vec::new(),
            seed: None,
            timeout_secs: None,
        }
    }
}

impl RunOptions {
    /// Quick-preset options with no overrides.
    pub fn quick() -> Self {
        RunOptions {
            scale: Scale::Quick,
            ..Default::default()
        }
    }
}

/// Resolve a scenario's parameters against `opts`, as a typed error.
pub fn resolve_params(scenario: &Scenario, opts: &RunOptions) -> Result<ResolvedParams, LabError> {
    ResolvedParams::resolve(&scenario.params, opts.scale, &opts.overrides)
        .map_err(|e| LabError::param(scenario.name, e))
}

/// The common head of every report document (everything before
/// `results` / failure members): schema, identity, scale, seed, config,
/// provenance.
fn envelope(scenario: &Scenario, opts: &RunOptions, seed: u64, config: Value) -> Value {
    Value::object()
        .with("schema", "racer-lab/v1")
        .with("scenario", scenario.name)
        .with("title", scenario.title)
        .with("description", scenario.description)
        .with("scale", opts.scale.name())
        .with("seed", seed)
        // Every registered scenario is deterministic; the member stays so
        // reports keep their format.
        .with("deterministic", true)
        .with("config", config)
        .with("provenance", crate::provenance::to_value())
}

fn config_value(params: &ResolvedParams) -> Value {
    let mut config = Value::object();
    for (name, value) in params.entries() {
        config.insert(name, value.to_value());
    }
    config
}

/// Run the scenario body inside the isolation boundary: the
/// `scenario:<name>` fault site fires first, then the body; panics are
/// caught and mapped to [`LabError::ScenarioPanic`]. The parameter
/// accessors' own panics (kind mismatches, negative values) funnel
/// through here too, so a scenario misreading its schema becomes a
/// labelled failed cell rather than an aborted sweep.
fn run_isolated(
    name: &'static str,
    run: crate::registry::RunFn,
    ctx: &RunContext,
) -> Result<ScenarioOutput, LabError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fault::hit_point(&format!("scenario:{name}"));
        run(ctx)
    }))
    .unwrap_or_else(|payload| {
        Err(LabError::scenario_panic(
            name,
            racer_cpu::batch::panic_message(payload.as_ref()),
        ))
    })
}

/// Run one scenario and wrap its output in the versioned report document:
///
/// ```json
/// {
///   "schema": "racer-lab/v1",
///   "scenario": ..., "title": ..., "description": ...,
///   "scale": "quick" | "paper",
///   "seed": N,
///   "config": { <resolved parameters> },
///   "provenance": { "generator": ..., "version": ..., "git": ... },
///   "results": <scenario data>
/// }
/// ```
///
/// Failures are typed: parameter problems are [`LabError::Param`], a
/// panicking body is [`LabError::ScenarioPanic`], a body that outlives
/// `opts.timeout_secs` is [`LabError::Timeout`]. The success document is
/// byte-identical to what pre-taxonomy versions wrote — failure markers
/// only ever appear in [`failed_report`] documents.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> Result<Report, LabError> {
    let params = resolve_params(scenario, opts)?;
    let seed = opts.seed.unwrap_or(scenario.seed);
    let config = config_value(&params);
    let ctx = RunContext {
        params,
        seed,
        scale: opts.scale,
    };
    let out = match opts.timeout_secs {
        None => run_isolated(scenario.name, scenario.run, &ctx)?,
        Some(secs) => {
            // The body runs on a watchdog thread so the caller can give
            // up at the deadline. On timeout the thread is detached, not
            // killed — it may run to completion in the background (see
            // KNOWN_FAILURES.md); its result is discarded.
            let (tx, rx) = std::sync::mpsc::channel();
            let run = scenario.run;
            let name = scenario.name;
            std::thread::spawn(move || {
                let _ = tx.send(run_isolated(name, run, &ctx));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
                Ok(result) => result?,
                Err(_) => return Err(LabError::timeout(scenario.name, secs)),
            }
        }
    };

    let json = envelope(scenario, opts, seed, config).with("results", out.data);
    Ok(Report {
        name: scenario.name,
        json,
        text: out.text,
    })
}

/// Build the `status: "failed"` report cell for a scenario whose trial
/// failed recoverably (panic, timeout). The document keeps the full v1
/// envelope — config, seed, provenance — so the dashboard can still place
/// the cell, and adds:
///
/// ```json
/// "status": "failed",
/// "error": { "kind": "scenario-panic", "message": "..." },
/// "results": null
/// ```
///
/// Successful reports carry no `status` member at all, which keeps them
/// byte-identical to the pinned goldens.
pub fn failed_report(scenario: &Scenario, opts: &RunOptions, err: &LabError) -> Report {
    let seed = opts.seed.unwrap_or(scenario.seed);
    // Config resolution can itself be the failure; fall back to empty.
    let config = resolve_params(scenario, opts)
        .map(|p| config_value(&p))
        .unwrap_or_else(|_| Value::object());
    let json = envelope(scenario, opts, seed, config)
        .with("status", "failed")
        .with(
            "error",
            Value::object()
                .with("kind", err.kind())
                .with("message", err.message()),
        )
        .with("results", Value::Null);
    let text = format!(
        "# {}: {}\n# status: failed ({})\n# {}\n",
        scenario.title,
        scenario.description,
        err.kind(),
        err.message()
    );
    Report {
        name: scenario.name,
        json,
        text,
    }
}

impl Report {
    /// Write the report to `<dir>/<name>.json` atomically (tmp sibling +
    /// rename, creating `dir`), returning the path written.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, LabError> {
        let path = dir.join(format!("{}.json", self.name));
        crate::fsio::write_atomic(&path, &self.json.to_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    #[test]
    fn report_document_has_the_v1_envelope() {
        let sc = find("countermeasures_eval").unwrap();
        let report = run_scenario(&sc, &RunOptions::quick()).unwrap();
        let j = &report.json;
        assert_eq!(
            j.get("schema").and_then(Value::as_str),
            Some("racer-lab/v1")
        );
        assert_eq!(
            j.get("scenario").and_then(Value::as_str),
            Some("countermeasures_eval")
        );
        assert_eq!(j.get("scale").and_then(Value::as_str), Some("quick"));
        assert!(j.get("config").is_some());
        assert!(j.get("results").is_some());
        // No failure markers on the success path — goldens depend on it.
        assert!(j.get("status").is_none());
        assert!(j.get("error").is_none());
        let prov = j.get("provenance").unwrap();
        assert_eq!(
            prov.get("generator").and_then(Value::as_str),
            Some("racer-lab")
        );
        assert!(!report.text.is_empty());
    }

    #[test]
    fn seed_override_lands_in_the_report() {
        let sc = find("spectre_back_eval").unwrap();
        let opts = RunOptions {
            seed: Some(99),
            ..RunOptions::quick()
        };
        let report = run_scenario(&sc, &opts).unwrap();
        assert_eq!(report.json.get("seed").and_then(Value::as_i64), Some(99));
    }

    #[test]
    fn bad_override_is_a_param_error_not_a_panic() {
        let sc = find("fig08_granularity_add").unwrap();
        let opts = RunOptions {
            overrides: vec![("no_such_param".into(), "1".into())],
            ..RunOptions::quick()
        };
        let err = run_scenario(&sc, &opts).unwrap_err();
        assert_eq!(err.kind(), "param");
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn negative_count_override_is_a_param_error() {
        let sc = find("timer_mitigations_eval").unwrap();
        for (key, text) in [("trials", "-1"), ("rounds", "1000,-8")] {
            let opts = RunOptions {
                overrides: vec![(key.into(), text.into())],
                ..RunOptions::quick()
            };
            let err = resolve_params(&sc, &opts).unwrap_err();
            assert_eq!(err.kind(), "param");
            assert_eq!(err.exit_code(), 5);
            assert_eq!(run_scenario(&sc, &opts).unwrap_err().kind(), "param");
        }
    }

    #[test]
    fn panicking_scenario_is_isolated_and_labelled() {
        // A wrong-kind parameter read panics inside the body; the
        // isolation boundary must catch it and type it.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut sc = find("fig08_granularity_add").unwrap();
        fn bad(ctx: &RunContext) -> Result<crate::registry::ScenarioOutput, LabError> {
            let _ = ctx.params.str("max_target"); // declared int, read as str
            unreachable!()
        }
        sc.run = bad;
        let err = run_scenario(&sc, &RunOptions::quick()).unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(err.kind(), "scenario-panic");
        assert!(err.message().contains("max_target"), "{}", err.message());
    }

    #[test]
    fn failed_report_carries_the_error_and_null_results() {
        let sc = find("countermeasures_eval").unwrap();
        let err = LabError::scenario_panic("countermeasures_eval", "boom");
        let report = failed_report(&sc, &RunOptions::quick(), &err);
        let j = &report.json;
        assert_eq!(j.get("status").and_then(Value::as_str), Some("failed"));
        let e = j.get("error").unwrap();
        assert_eq!(
            e.get("kind").and_then(Value::as_str),
            Some("scenario-panic")
        );
        // `error.message` is the full human message (LabError::message),
        // uniform across kinds — the same string the stderr line carries.
        assert_eq!(
            e.get("message").and_then(Value::as_str),
            Some("scenario countermeasures_eval panicked: boom")
        );
        assert_eq!(j.get("results"), Some(&Value::Null));
        assert_eq!(
            j.get("schema").and_then(Value::as_str),
            Some("racer-lab/v1")
        );
        assert!(j.get("config").is_some());
        // The document must round-trip through the strict parser.
        assert_eq!(Value::parse(&j.to_pretty()).unwrap(), *j);
    }

    #[test]
    fn timeout_is_enforced_and_typed() {
        let mut sc = find("countermeasures_eval").unwrap();
        fn slow(_: &RunContext) -> Result<crate::registry::ScenarioOutput, LabError> {
            std::thread::sleep(std::time::Duration::from_secs(60));
            unreachable!()
        }
        sc.run = slow;
        let opts = RunOptions {
            timeout_secs: Some(1),
            ..RunOptions::quick()
        };
        let start = std::time::Instant::now();
        let err = run_scenario(&sc, &opts).unwrap_err();
        assert!(start.elapsed() < std::time::Duration::from_secs(30));
        assert_eq!(err.kind(), "timeout");
        assert_eq!(err.exit_code(), 7);
    }

    #[test]
    fn write_creates_the_results_file_atomically() {
        let sc = find("countermeasures_eval").unwrap();
        let report = run_scenario(&sc, &RunOptions::quick()).unwrap();
        let dir = std::env::temp_dir().join("racer-lab-test-write");
        let path = report.write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Value::parse(&text).unwrap(), report.json);
        assert!(!dir.join("countermeasures_eval.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
