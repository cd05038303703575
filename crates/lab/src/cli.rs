//! The `racer-lab` command-line interface.
//!
//! ```text
//! racer-lab list [--json | --names-json]
//! racer-lab describe <scenario>
//! racer-lab run <scenario>... | --all  [--quick|--paper] [--set k=v]...
//!                                      [--seed N] [--out DIR] [--quiet]
//!                                      [--checkpoint DIR] [--timeout-secs N]
//! racer-lab report <out-dir> [results...] [--keep-going]
//! ```
//!
//! Hand-rolled argument handling (the workspace builds offline, so no
//! clap). Every failure is a typed [`LabError`] and the binary exits with
//! its documented code (see [`crate::error`]); plain usage errors exit 2.

use crate::checkpoint::Checkpoint;
use crate::error::LabError;
use crate::params::Scale;
use crate::registry::{registry, Scenario};
use crate::runner::{failed_report, resolve_params, run_scenario, Report, RunOptions};
use racer_results::Value;
use std::path::PathBuf;

/// CLI outcome: what `main` should do after `run`.
pub enum Outcome {
    /// Everything succeeded.
    Ok,
    /// Partial success (`report --keep-going` skipped inputs): exit 9.
    Partial,
}

/// Entry point: dispatch on `args` (without the program name), printing to
/// stdout. Failures come back as typed [`LabError`]s; `main` exits with
/// [`LabError::exit_code`].
pub fn dispatch(args: &[String]) -> Result<Outcome, LabError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list(&args[1..]).map_err(LabError::usage)?;
            Ok(Outcome::Ok)
        }
        Some("describe") => {
            describe(&args[1..]).map_err(LabError::usage)?;
            Ok(Outcome::Ok)
        }
        Some("run") => run(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{}", usage());
            Ok(Outcome::Ok)
        }
        Some(other) => Err(LabError::usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

fn usage() -> &'static str {
    "racer-lab — registry-driven experiment runner\n\
     \n\
     USAGE:\n\
     \x20 racer-lab list [--json | --names-json]\n\
     \x20 racer-lab describe <scenario>\n\
     \x20 racer-lab run <scenario>... | --all  [--quick|--paper] [--set k=v]...\n\
     \x20                                      [--seed N] [--out DIR] [--quiet]\n\
     \x20                                      [--checkpoint DIR] [--timeout-secs N]\n\
     \x20 racer-lab report <out-dir> [results...] [--keep-going]\n\
     \n\
     Results are written to results/<scenario>.json (override with --out);\n\
     all writes are atomic (tmp sibling + rename).\n\
     --checkpoint DIR journals each completed scenario; re-running the same\n\
     command resumes, replaying journaled reports byte-for-byte.\n\
     A panicking or timed-out (--timeout-secs) scenario is isolated and\n\
     recorded as a status:\"failed\" report cell; the run exits with the\n\
     documented code for the first failure (see docs/ARCHITECTURE.md).\n\
     `report` renders report files (or directories of them; default:\n\
     results/) into a static HTML dashboard under <out-dir>; --keep-going\n\
     skips unreadable inputs with a warning and exits 9 if any were skipped."
}

fn list(args: &[String]) -> Result<(), String> {
    let mut mode: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--json" | "--names-json" => match mode {
                None => mode = Some(arg.as_str()),
                Some(prev) => {
                    return Err(format!("{prev} and {arg} are mutually exclusive"));
                }
            },
            other => return Err(format!("unknown list flag {other:?}")),
        }
    }
    let scenarios = registry();
    match mode {
        Some("--json") => {
            let v = Value::Array(
                scenarios
                    .iter()
                    .map(|s| {
                        Value::object()
                            .with("name", s.name)
                            .with("title", s.title)
                            .with("description", s.description)
                            .with("deterministic", true)
                            .with(
                                "params",
                                s.params
                                    .iter()
                                    .map(|p| p.name.to_string())
                                    .collect::<Vec<_>>(),
                            )
                    })
                    .collect(),
            );
            println!("{}", v.to_pretty().trim_end());
        }
        Some("--names-json") => {
            let v = Value::from(
                scenarios
                    .iter()
                    .map(|s| s.name.to_string())
                    .collect::<Vec<_>>(),
            );
            println!("{}", v.to_compact());
        }
        Some(other) => unreachable!("mode {other:?} filtered during parsing"),
        None => {
            println!("{} registered scenarios:\n", scenarios.len());
            let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for s in &scenarios {
                println!("  {:width$}  {:<14} {}", s.name, s.title, s.description);
            }
            println!("\nRun one with: racer-lab run <name> [--quick]");
        }
    }
    Ok(())
}

fn describe(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("describe: missing scenario name")?;
    let sc = crate::registry::find(name).ok_or_else(|| unknown_scenario(name))?;
    println!("{} — {}", sc.name, sc.title);
    println!("{}", sc.description);
    println!("deterministic: true   base seed: {:#x}", sc.seed);
    if sc.params.is_empty() {
        println!("parameters: none");
    } else {
        println!("parameters (override with --set name=value):");
        for p in &sc.params {
            println!(
                "  {:<18} {:<9} quick={:<24} paper={:<24} {}",
                p.name,
                p.quick.kind(),
                p.quick.to_string(),
                p.paper.to_string(),
                p.description
            );
        }
    }
    Ok(())
}

/// Parsed `run` flags.
struct RunFlags {
    opts: RunOptions,
    all: bool,
    out_dir: PathBuf,
    quiet: bool,
    names: Vec<String>,
    checkpoint: Option<PathBuf>,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        opts: RunOptions::default(),
        all: false,
        out_dir: PathBuf::from("results"),
        quiet: false,
        names: Vec::new(),
        checkpoint: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => flags.opts.scale = Scale::Quick,
            "--paper" => flags.opts.scale = Scale::Paper,
            "--all" => flags.all = true,
            "--quiet" => flags.quiet = true,
            "--set" => {
                let kv = value_of("--set")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects name=value, got {kv:?}"))?;
                flags.opts.overrides.push((k.to_string(), v.to_string()));
            }
            "--seed" => {
                let v = value_of("--seed")?;
                // Seeds are recorded as JSON integers, which racer-results
                // keeps within i64 range; reject the unrepresentable half
                // of u64 here instead of panicking during report assembly.
                let seed: u64 = v
                    .parse()
                    .ok()
                    .filter(|&s| i64::try_from(s).is_ok())
                    .ok_or_else(|| {
                        format!("--seed expects an integer in [0, {}], got {v:?}", i64::MAX)
                    })?;
                flags.opts.seed = Some(seed);
            }
            "--out" => flags.out_dir = PathBuf::from(value_of("--out")?),
            "--checkpoint" => flags.checkpoint = Some(PathBuf::from(value_of("--checkpoint")?)),
            "--timeout-secs" => {
                let v = value_of("--timeout-secs")?;
                let secs: u64 = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                    format!("--timeout-secs expects a positive integer, got {v:?}")
                })?;
                flags.opts.timeout_secs = Some(secs);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            // Two copies of one scenario would race on its output and
            // journal files.
            name if flags.names.iter().any(|n| n == name) => {
                return Err(format!("scenario {name:?} is named twice"))
            }
            name => flags.names.push(name.to_string()),
        }
    }
    Ok(flags)
}

fn unknown_scenario(name: &str) -> String {
    let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
    format!("unknown scenario {name:?}; available: {}", names.join(", "))
}

fn run(args: &[String]) -> Result<Outcome, LabError> {
    let flags = parse_run_flags(args).map_err(LabError::usage)?;
    let selected: Vec<Scenario> = if flags.all {
        if !flags.names.is_empty() {
            return Err(LabError::usage("pass scenario names or --all, not both"));
        }
        registry()
    } else if flags.names.is_empty() {
        return Err(LabError::usage(
            "run: pass at least one scenario name, or --all",
        ));
    } else {
        flags
            .names
            .iter()
            .map(|n| crate::registry::find(n).ok_or_else(|| LabError::usage(unknown_scenario(n))))
            .collect::<Result<_, _>>()?
    };
    let opts = &flags.opts;

    // Fail fast on bad parameters for *any* selected scenario before any
    // compute starts: a typo'd --set aborts the sweep up front (exit 5)
    // instead of after minutes of sibling work.
    let resolved: Vec<crate::params::ResolvedParams> = selected
        .iter()
        .map(|sc| resolve_params(sc, opts))
        .collect::<Result<_, _>>()?;

    // Open the checkpoint journal and replay already-completed units.
    // A journaled record whose key disagrees with this invocation is a
    // conflict (exit 8) — resuming under different parameters would mix
    // two experiments into one output directory.
    let ckpt = match &flags.checkpoint {
        Some(dir) => Some(Checkpoint::open(dir)?),
        None => None,
    };
    let keys: Vec<String> = selected
        .iter()
        .zip(&resolved)
        .map(|(sc, params)| {
            crate::checkpoint::identity_key(
                sc.name,
                opts.scale,
                opts.seed.unwrap_or(sc.seed),
                params,
            )
        })
        .collect();
    let mut journaled: Vec<Option<Value>> = vec![None; selected.len()];
    if let Some(ckpt) = &ckpt {
        for (i, sc) in selected.iter().enumerate() {
            journaled[i] = ckpt.load(sc.name, &keys[i])?;
        }
    }

    // Each remaining scenario is an independent simulation: fan out
    // across host cores through the crash-isolated driver. Results come
    // back in input order, so output stays stable. A panicking trial is
    // caught twice over (run_scenario's boundary, then try_par_map's) and
    // becomes a labelled failed cell; siblings are unaffected. Completed
    // units are journaled before anything is printed, so a crash loses at
    // most the in-flight scenarios.
    let work: Vec<(usize, &Scenario)> = selected
        .iter()
        .enumerate()
        .filter(|(i, _)| journaled[*i].is_none())
        .collect();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // failures are reported as cells below
    let outcomes = racer_cpu::batch::try_par_map(&work, |&(i, sc)| -> Result<Report, LabError> {
        let report = run_scenario(sc, opts)?;
        if let Some(ckpt) = &ckpt {
            ckpt.record(sc.name, &keys[i], &report.json)?;
        }
        Ok(report)
    });
    std::panic::set_hook(prev_hook);
    let outcomes: Vec<(usize, Result<Report, LabError>)> = work
        .iter()
        .zip(outcomes)
        .map(|(&(i, sc), r)| {
            let flat = match r {
                Ok(inner) => inner,
                // A panic that escaped run_scenario's own boundary
                // (envelope assembly, journaling) still only costs its
                // own cell.
                Err(panic_msg) => Err(LabError::scenario_panic(sc.name, panic_msg)),
            };
            (i, flat)
        })
        .collect();

    let mut results: Vec<Option<Result<Report, LabError>>> =
        (0..selected.len()).map(|_| None).collect();
    for (i, r) in outcomes {
        results[i] = Some(r);
    }

    let mut failures: Vec<LabError> = Vec::new();
    for (i, sc) in selected.iter().enumerate() {
        if let Some(doc) = &journaled[i] {
            let path = flags.out_dir.join(format!("{}.json", sc.name));
            crate::fsio::write_atomic(&path, &doc.to_pretty())?;
            println!(
                "# resumed {} from checkpoint record, wrote {}",
                sc.name,
                path.display()
            );
            continue;
        }
        match results[i].take().expect("every non-journaled unit ran") {
            Ok(report) => {
                let path = report.write(&flags.out_dir)?;
                if !flags.quiet {
                    println!("{}", report.text.trim_end());
                }
                println!("# wrote {}", path.display());
            }
            Err(e) => {
                // The failure is preserved twice: a machine-readable
                // failed cell in the output directory and a stderr note.
                // Failed cells are never journaled — a resume re-attempts
                // them.
                let report = failed_report(sc, opts, &e);
                let path = report.write(&flags.out_dir)?;
                eprintln!("# {}: failed ({}): {}", sc.name, e.kind(), e.message());
                println!("# wrote {} (failed cell)", path.display());
                failures.push(e);
            }
        }
    }
    match failures.into_iter().next() {
        // Exit with the first failure's documented code; every sibling
        // report and failed cell above is already on disk.
        Some(first) => Err(first),
        None => Ok(Outcome::Ok),
    }
}

/// `racer-lab report <out-dir> [results...] [--keep-going]`: render
/// report files (or directories of them — each scanned one level deep for
/// `*.json`, sorted by file name) into a static HTML dashboard under
/// `<out-dir>`. With no inputs, `results/` is rendered. Parsing is strict
/// (`racer-results` + the `racer-lab/v1` envelope checks in
/// `racer-report`); an unreadable input is an IO error (exit 3), an
/// unparseable or non-report input a parse error (exit 4), an empty input
/// set a usage error (exit 2). With `--keep-going`, bad inputs are
/// skipped with a stderr warning instead and the command exits 9 when
/// anything was skipped (2 if nothing usable remains). The registry
/// supplies page order, titles and descriptions for every scenario it
/// knows.
fn report(args: &[String]) -> Result<Outcome, LabError> {
    let mut keep_going = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--keep-going" => keep_going = true,
            flag if flag.starts_with('-') => {
                return Err(LabError::usage(format!(
                    "report takes no flags except --keep-going, got {flag:?}"
                )))
            }
            p => positional.push(p.to_string()),
        }
    }
    let (out_dir, inputs) = match &positional[..] {
        [] => return Err(LabError::usage("report: missing <out-dir>")),
        [out, inputs @ ..] => (PathBuf::from(out), inputs),
    };
    let default_inputs = [String::from("results")];
    let inputs = if inputs.is_empty() {
        &default_inputs[..]
    } else {
        inputs
    };

    let mut skipped = 0usize;
    let mut skip_or = |err: LabError| -> Result<(), LabError> {
        if keep_going {
            eprintln!("# warning: skipping input: {err}");
            skipped += 1;
            Ok(())
        } else {
            Err(err)
        }
    };

    let mut files: Vec<PathBuf> = Vec::new();
    for input in inputs {
        let path = PathBuf::from(input);
        let meta = match std::fs::metadata(&path) {
            Ok(meta) => meta,
            Err(e) => {
                skip_or(LabError::io(format!("reading {}", path.display()), e))?;
                continue;
            }
        };
        if meta.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| LabError::io(format!("reading {}", path.display()), e))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
                .collect();
            // Directory iteration order is filesystem-dependent; the
            // dashboard must not be.
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path);
        }
    }
    if files.is_empty() && !keep_going {
        return Err(LabError::usage(format!(
            "report: no .json report files found under {}",
            inputs.join(", ")
        )));
    }

    let mut reports: Vec<racer_report::InputReport> = Vec::new();
    for path in &files {
        let doc = match crate::fsio::parse_json(path) {
            Ok(doc) => doc,
            Err(e) => {
                skip_or(e)?;
                continue;
            }
        };
        let input = racer_report::InputReport {
            label: path.display().to_string(),
            doc,
        };
        // Envelope validation up front, so --keep-going can skip a
        // structurally invalid report instead of failing the render.
        if let Err(e) = racer_report::check_input(&input) {
            skip_or(LabError::parse(path.display().to_string(), e))?;
            continue;
        }
        reports.push(input);
    }
    if reports.is_empty() {
        return Err(LabError::usage(format!(
            "report: no usable report files under {} ({skipped} skipped)",
            inputs.join(", ")
        )));
    }

    let meta: Vec<racer_report::ScenarioMeta> = registry()
        .iter()
        .enumerate()
        .map(|(order, s)| racer_report::ScenarioMeta {
            name: s.name.to_string(),
            title: s.title.to_string(),
            description: s.description.to_string(),
            order,
        })
        .collect();
    let pages = racer_report::render_dashboard(&reports, &meta)
        .map_err(|e| LabError::parse("dashboard inputs", e))?;

    for page in &pages {
        let path = out_dir.join(&page.path);
        crate::fsio::write_atomic(&path, &page.content)?;
    }
    println!(
        "# rendered {} report(s) into {} ({} page(s), open {})",
        reports.len(),
        out_dir.display(),
        pages.len(),
        out_dir.join("index.html").display()
    );
    if skipped > 0 {
        println!("# {skipped} input(s) skipped (--keep-going); exit 9 signals partial success");
        return Ok(Outcome::Partial);
    }
    Ok(Outcome::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_covers_the_surface() {
        let args: Vec<String> = [
            "fig08_granularity_add",
            "--quick",
            "--set",
            "step=2",
            "--seed",
            "7",
            "--out",
            "/tmp/x",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_run_flags(&args).unwrap();
        assert_eq!(f.names, ["fig08_granularity_add"]);
        assert_eq!(f.opts.scale, Scale::Quick);
        assert_eq!(f.opts.overrides, [("step".to_string(), "2".to_string())]);
        assert_eq!(f.opts.seed, Some(7));
        assert!(f.quiet);
        assert_eq!(f.out_dir, PathBuf::from("/tmp/x"));

        assert!(parse_run_flags(&["--set".to_string()]).is_err());
        assert!(
            parse_run_flags(&["--seed".to_string(), "9223372036854775808".to_string()]).is_err(),
            "seeds beyond i64::MAX must be rejected at parse time"
        );
        assert!(parse_run_flags(&["--set".to_string(), "novalue".to_string()]).is_err());
        assert!(parse_run_flags(&["--bogus".to_string()]).is_err());
        let twice = ["table_par_seq", "--quick", "table_par_seq"].map(String::from);
        assert_eq!(
            parse_run_flags(&twice).err(),
            Some("scenario \"table_par_seq\" is named twice".to_string()),
            "copies of one scenario would race on its files"
        );
        for dead in ["--baseline", "--tolerance"] {
            let args = [dead.to_string(), "1".to_string()];
            assert_eq!(
                parse_run_flags(&args).err(),
                Some(format!("unknown flag {dead:?}")),
                "run has no {dead} flag"
            );
        }

        let args: Vec<String> = ["--checkpoint", "ckpt-dir", "--timeout-secs", "30"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_run_flags(&args).unwrap();
        assert_eq!(f.checkpoint, Some(PathBuf::from("ckpt-dir")));
        assert_eq!(f.opts.timeout_secs, Some(30));
        assert!(
            parse_run_flags(&["--timeout-secs".to_string(), "0".to_string()]).is_err(),
            "a zero timeout would fail every scenario"
        );
    }
}
