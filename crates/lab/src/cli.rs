//! The `racer-lab` command-line interface.
//!
//! ```text
//! racer-lab list [--json | --names-json] [--shard K/N]
//! racer-lab describe <scenario>
//! racer-lab run <scenario>... | --all  [--quick|--paper] [--set k=v]...
//!                                      [--seed N] [--out DIR] [--quiet]
//!                                      [--shard K/N] [--checkpoint DIR]
//!                                      [--timeout-secs N]
//! racer-lab report <out-dir> [results...] [--keep-going]
//! racer-lab perf-check [--baseline PATH] [--tolerance F] [--quick|--paper]
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
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// CLI outcome: what `main` should do after `run`.
pub enum Outcome {
    /// Everything succeeded.
    Ok,
    /// A gate failed (perf regression): exit 1.
    GateFailed,
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
        Some("merge") => {
            merge(&args[1..])?;
            Ok(Outcome::Ok)
        }
        Some("report") => report(&args[1..]),
        Some("perf-check") => perf_check(&args[1..]),
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
     \x20 racer-lab list [--json | --names-json] [--shard K/N]\n\
     \x20 racer-lab describe <scenario>\n\
     \x20 racer-lab run <scenario>... | --all  [--quick|--paper] [--set k=v]...\n\
     \x20                                      [--seed N] [--out DIR] [--quiet]\n\
     \x20                                      [--shard K/N] [--checkpoint DIR]\n\
     \x20                                      [--timeout-secs N]\n\
     \x20 racer-lab merge <out.json> <shard.json> <shard.json>...\n\
     \x20 racer-lab merge <out.json> --from-checkpoint <dir>\n\
     \x20 racer-lab report <out-dir> [results...] [--keep-going]\n\
     \x20 racer-lab perf-check [--baseline PATH] [--tolerance F] [--quick|--paper]\n\
     \n\
     --shard K/N keeps the K-th of N deterministic slices of the selected\n\
     scenario set (1-based; CI matrix legs use one slice each). Scenarios\n\
     with their own `shard` parameter (timer_mitigations_eval) slice one\n\
     sweep's trial axis instead: run each slice with --set shard=K/N into\n\
     its own --out dir, then fold the reports with `merge` (accuracies\n\
     combine by trial weight; provenance records the shard list).\n\
     Results are written to results/<scenario>.json (override with --out);\n\
     all writes are atomic (tmp sibling + rename).\n\
     --checkpoint DIR journals each completed scenario; re-running the same\n\
     command resumes, replaying journaled reports byte-for-byte. `merge\n\
     --from-checkpoint` folds a journal's records into one report.\n\
     A panicking or timed-out (--timeout-secs) scenario is isolated and\n\
     recorded as a status:\"failed\" report cell; the run exits with the\n\
     documented code for the first failure (see docs/ARCHITECTURE.md).\n\
     `report` renders report files (or directories of them; default:\n\
     results/) into a static HTML dashboard under <out-dir>; --keep-going\n\
     skips unreadable inputs with a warning and exits 9 if any were skipped."
}

/// Parse a `K/N` shard spec (1-based `K`, `1 <= K <= N`). Shared by the
/// scenario-set `--shard` flag and scenarios with an intra-scenario
/// `shard` parameter (e.g. `timer_mitigations_eval`'s trial axis).
pub(crate) fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard expects K/N with 1 <= K <= N, got {spec:?}");
    let (k, n) = spec.split_once('/').ok_or_else(err)?;
    let k: usize = k.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if k == 0 || n == 0 || k > n {
        return Err(err());
    }
    Ok((k, n))
}

/// Deterministic shard selection: order `scenarios` by registry index and
/// keep every `n`-th entry starting at position `k - 1`. The `n` slices of
/// any fixed selection are pairwise disjoint and their union is the whole
/// selection — the property the CLI tests pin — so CI matrix legs can each
/// run one slice and jointly cover everything exactly once.
pub fn shard_select(mut scenarios: Vec<Scenario>, k: usize, n: usize) -> Vec<Scenario> {
    let order: Vec<&str> = registry().iter().map(|s| s.name).collect();
    let idx = |name: &str| order.iter().position(|&o| o == name).unwrap_or(usize::MAX);
    scenarios.sort_by_key(|s| idx(s.name));
    scenarios
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % n == k - 1)
        .map(|(_, s)| s)
        .collect()
}

fn list(args: &[String]) -> Result<(), String> {
    let mut shard = None;
    let mut mode: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" | "--names-json" => match mode {
                None => mode = Some(arg.as_str()),
                Some(prev) => {
                    return Err(format!("{prev} and {arg} are mutually exclusive"));
                }
            },
            "--shard" => {
                let spec = it.next().ok_or("--shard needs a value")?;
                shard = Some(parse_shard(spec)?);
            }
            other => return Err(format!("unknown list flag {other:?}")),
        }
    }
    let scenarios = match shard {
        Some((k, n)) => shard_select(registry(), k, n),
        None => registry(),
    };
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
                            .with("deterministic", s.deterministic)
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
    println!(
        "deterministic: {}   base seed: {:#x}",
        sc.deterministic, sc.seed
    );
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

/// Parsed flags shared by `run` and `perf-check`.
struct RunFlags {
    opts: RunOptions,
    all: bool,
    out_dir: PathBuf,
    quiet: bool,
    names: Vec<String>,
    baseline: PathBuf,
    tolerance: f64,
    shard: Option<(usize, usize)>,
    checkpoint: Option<PathBuf>,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        opts: RunOptions::default(),
        all: false,
        out_dir: PathBuf::from("results"),
        quiet: false,
        names: Vec::new(),
        baseline: PathBuf::from("BENCH_pipeline.json"),
        tolerance: 0.30,
        shard: None,
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
            "--shard" => flags.shard = Some(parse_shard(&value_of("--shard")?)?),
            "--checkpoint" => flags.checkpoint = Some(PathBuf::from(value_of("--checkpoint")?)),
            "--timeout-secs" => {
                let v = value_of("--timeout-secs")?;
                let secs: u64 = v.parse().ok().filter(|&s| s > 0).ok_or_else(|| {
                    format!("--timeout-secs expects a positive integer, got {v:?}")
                })?;
                flags.opts.timeout_secs = Some(secs);
            }
            "--baseline" => flags.baseline = PathBuf::from(value_of("--baseline")?),
            "--tolerance" => {
                let v = value_of("--tolerance")?;
                flags.tolerance = v
                    .parse()
                    .map_err(|_| format!("--tolerance expects a number, got {v:?}"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
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
    let mut selected: Vec<Scenario> = if flags.all {
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
    if let Some((k, n)) = flags.shard {
        selected = shard_select(selected, k, n);
        if selected.is_empty() {
            println!("# shard {k}/{n} selects no scenarios");
            return Ok(Outcome::Ok);
        }
    }
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

/// `racer-lab merge <out.json> <shard.json>...`: fold trial-axis shard
/// reports of one scenario into a single report (see [`crate::merge`]).
/// `merge <out.json> --from-checkpoint <dir>` folds the completed records
/// of a (possibly partial) checkpoint journal instead, stamping
/// `provenance.resumed` lineage on the result.
fn merge(args: &[String]) -> Result<(), LabError> {
    if args.iter().any(|a| a == "--from-checkpoint") {
        return merge_from_checkpoint(args);
    }
    let (out, shards) = match args {
        [] | [_] | [_, _] => {
            return Err(LabError::usage(
                "merge: expected <out.json> and at least two shard files \
                 (or <out.json> --from-checkpoint <dir>)",
            ))
        }
        [out, shards @ ..] => (PathBuf::from(out), shards),
    };
    let docs: Vec<(String, Value)> = shards
        .iter()
        .map(|path| Ok((path.clone(), crate::fsio::parse_json(Path::new(path))?)))
        .collect::<Result<_, LabError>>()?;
    let merged = crate::merge::merge_reports(&docs).map_err(LabError::usage)?;
    crate::fsio::write_atomic(&out, &merged.to_pretty())?;
    println!(
        "# merged {} shard report(s) into {}",
        docs.len(),
        out.display()
    );
    Ok(())
}

fn merge_from_checkpoint(args: &[String]) -> Result<(), LabError> {
    let (out, dir) = match args {
        [out, flag, dir] if flag == "--from-checkpoint" => (PathBuf::from(out), PathBuf::from(dir)),
        _ => {
            return Err(LabError::usage(
                "merge: expected <out.json> --from-checkpoint <dir>",
            ))
        }
    };
    if !dir.is_dir() {
        return Err(LabError::io(
            format!("reading checkpoint dir {}", dir.display()),
            "not a directory",
        ));
    }
    let ckpt = Checkpoint::open(&dir)?;
    let records = ckpt.records()?;
    let merged = crate::merge::merge_checkpoint(&dir.display().to_string(), &records)
        .map_err(LabError::usage)?;
    crate::fsio::write_atomic(&out, &merged.to_pretty())?;
    println!(
        "# merged {} checkpoint record(s) into {}",
        records.len(),
        out.display()
    );
    Ok(())
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

/// The CI perf gate: run the throughput baseline and compare per-workload
/// committed-instrs/sec against the committed `BENCH_pipeline.json`. Fails
/// (exit 1) when any workload regresses by more than `--tolerance`
/// (default 30%, tolerant of runner noise). A failing first measurement is
/// re-measured once and the per-workload best of the two runs is judged —
/// throughput noise is one-sided (preemption only slows a run down), so
/// taking the max filters noise without masking real regressions.
/// Workloads present in only one side are reported but do not fail the
/// gate.
fn perf_check(args: &[String]) -> Result<Outcome, LabError> {
    let mut flags = parse_run_flags(args).map_err(LabError::usage)?;
    if !flags.names.is_empty() {
        return Err(LabError::usage("perf-check takes no scenario names"));
    }
    if flags.shard.is_some() {
        return Err(LabError::usage(
            "perf-check runs a single scenario; --shard does not apply",
        ));
    }
    if flags.checkpoint.is_some() {
        return Err(LabError::usage(
            "perf-check re-measures every time; --checkpoint does not apply",
        ));
    }
    // The gate defaults to quick scale: throughput is scale-independent
    // enough for a 30% gate, and CI minutes are not free.
    if args.iter().all(|a| a != "--paper") {
        flags.opts.scale = Scale::Quick;
    }

    let sc = crate::registry::find("perf_baseline").expect("perf_baseline is registered");
    let baseline = crate::fsio::parse_json(&flags.baseline)?;

    let measure = || -> Result<Value, LabError> {
        let report = run_scenario(&sc, &flags.opts)?;
        Ok(report
            .json
            .get("results")
            .expect("report has results")
            .clone())
    };
    let compare = |measured: &Value| {
        compare_throughput(&baseline, measured, flags.tolerance)
            .map_err(|e| LabError::parse(flags.baseline.display().to_string(), e))
    };
    let mut measured = measure()?;
    let mut verdicts = compare(&measured)?;
    if verdicts.iter().any(|v| v.regressed) {
        println!("# first measurement regressed; re-measuring once (best of 2 counts)");
        measured = best_of(&measured, &measure()?);
        verdicts = compare(&measured)?;
    }
    print!("{}", render_verdicts(&verdicts, flags.tolerance));
    // Surface the comparison on the workflow-run summary page when CI
    // provides one, so perf deltas are visible on every PR without
    // downloading artifacts.
    if let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") {
        use std::io::Write as _;
        let md = render_verdicts_markdown(&verdicts, flags.tolerance);
        match std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
        {
            Ok(mut f) => {
                if let Err(e) = f.write_all(md.as_bytes()) {
                    eprintln!("# warning: could not append step summary: {e}");
                }
            }
            Err(e) => eprintln!("# warning: could not open step summary: {e}"),
        }
    }
    if verdicts.iter().any(|v| v.regressed) {
        Ok(Outcome::GateFailed)
    } else {
        Ok(Outcome::Ok)
    }
}

/// The perf-gate comparison as a GitHub-flavoured markdown table (one row
/// per workload), appended to `$GITHUB_STEP_SUMMARY` in CI.
pub fn render_verdicts_markdown(verdicts: &[PerfVerdict], tolerance: f64) -> String {
    let mut s = String::from(
        "## Perf gate: committed instrs/sec vs `BENCH_pipeline.json`\n\n\
         | workload | baseline | measured | ratio | verdict |\n\
         |---|---:|---:|---:|---|\n",
    );
    let fmt_ips = |x: Option<f64>| x.map_or("–".to_string(), |v| format!("{:.2}M", v / 1e6));
    for v in verdicts {
        let ratio = match (v.baseline_ips, v.measured_ips) {
            (Some(b), Some(m)) if b > 0.0 => format!("{:.2}×", m / b),
            _ => "–".to_string(),
        };
        let verdict = if v.regressed {
            "❌ **REGRESSED**"
        } else if v.baseline_ips.is_none() {
            "🆕 new (no baseline)"
        } else if v.measured_ips.is_none() {
            "⚠️ missing from run"
        } else {
            "✅ ok"
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} |",
            v.workload,
            fmt_ips(v.baseline_ips),
            fmt_ips(v.measured_ips),
            ratio,
            verdict
        );
    }
    let failed = verdicts.iter().filter(|v| v.regressed).count();
    let _ = writeln!(
        s,
        "\n{} (tolerance: fail under {:.0}% of baseline)\n",
        if failed == 0 {
            "Gate **passed**.".to_string()
        } else {
            format!("Gate **FAILED**: {failed} workload(s) regressed.")
        },
        (1.0 - tolerance) * 100.0
    );
    s
}

/// Merge two perf payloads, keeping each workload's entry from the run
/// with the higher `event_driven_instrs_per_sec` (workloads missing from
/// `b` keep their `a` entry).
fn best_of(a: &Value, b: &Value) -> Value {
    let ips = |w: &Value| w.get("event_driven_instrs_per_sec").and_then(Value::as_f64);
    let (Some(wa), Some(wb)) = (
        a.get("workloads").and_then(Value::as_array),
        b.get("workloads").and_then(Value::as_array),
    ) else {
        return a.clone();
    };
    let merged: Vec<Value> = wa
        .iter()
        .map(|entry| {
            let name = entry.get("workload").and_then(Value::as_str);
            let other = wb
                .iter()
                .find(|w| w.get("workload").and_then(Value::as_str) == name);
            match other {
                Some(o) if ips(o) > ips(entry) => o.clone(),
                _ => entry.clone(),
            }
        })
        .collect();
    Value::object().with("workloads", Value::Array(merged))
}

/// One workload's gate outcome.
#[derive(Clone)]
pub struct PerfVerdict {
    /// Workload name.
    pub workload: String,
    /// Baseline committed-instrs/sec (None when newly added).
    pub baseline_ips: Option<f64>,
    /// Measured committed-instrs/sec (None when dropped).
    pub measured_ips: Option<f64>,
    /// Whether this workload fails the gate.
    pub regressed: bool,
}

/// Compare per-workload `event_driven_instrs_per_sec`; a workload
/// regresses when measured < baseline × (1 − tolerance).
pub fn compare_throughput(
    baseline: &Value,
    measured: &Value,
    tolerance: f64,
) -> Result<Vec<PerfVerdict>, String> {
    let list = |doc: &Value, which: &str| -> Result<Vec<(String, f64)>, String> {
        doc.get("workloads")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{which} document has no workloads array"))?
            .iter()
            .map(|w| {
                let name = w
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{which} workload entry without a name"))?;
                let ips = w
                    .get("event_driven_instrs_per_sec")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{which} workload {name} without instrs/sec"))?;
                Ok((name.to_string(), ips))
            })
            .collect()
    };
    let base = list(baseline, "baseline")?;
    let meas = list(measured, "measured")?;

    let mut verdicts = Vec::new();
    for (name, b) in &base {
        let m = meas.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        verdicts.push(PerfVerdict {
            workload: name.clone(),
            baseline_ips: Some(*b),
            measured_ips: m,
            regressed: m.is_some_and(|m| m < b * (1.0 - tolerance)),
        });
    }
    for (name, m) in &meas {
        if !base.iter().any(|(n, _)| n == name) {
            verdicts.push(PerfVerdict {
                workload: name.clone(),
                baseline_ips: None,
                measured_ips: Some(*m),
                regressed: false,
            });
        }
    }
    Ok(verdicts)
}

fn render_verdicts(verdicts: &[PerfVerdict], tolerance: f64) -> String {
    let mut s = format!(
        "# perf gate: committed instrs/sec vs baseline (fail under {:.0}% of baseline)\n\
         # workload            baseline     measured     ratio   verdict\n",
        (1.0 - tolerance) * 100.0
    );
    for v in verdicts {
        let fmt_ips = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{:.2}M", v / 1e6));
        let ratio = match (v.baseline_ips, v.measured_ips) {
            (Some(b), Some(m)) if b > 0.0 => format!("{:.2}", m / b),
            _ => "-".to_string(),
        };
        let verdict = if v.regressed {
            "REGRESSED"
        } else if v.baseline_ips.is_none() {
            "new (no baseline)"
        } else if v.measured_ips.is_none() {
            "missing from run"
        } else {
            "ok"
        };
        let _ = writeln!(
            s,
            "{:<21} {:>10} {:>12} {:>9}   {}",
            v.workload,
            fmt_ips(v.baseline_ips),
            fmt_ips(v.measured_ips),
            ratio,
            verdict
        );
    }
    let failed = verdicts.iter().filter(|v| v.regressed).count();
    let _ = writeln!(
        s,
        "# {}",
        if failed == 0 {
            "gate passed".to_string()
        } else {
            format!("gate FAILED: {failed} workload(s) regressed")
        }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(name: &str, ips: f64) -> Value {
        Value::object()
            .with("workload", name)
            .with("event_driven_instrs_per_sec", ips)
    }

    fn doc(workloads: Vec<Value>) -> Value {
        Value::object().with("workloads", Value::Array(workloads))
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_past_it() {
        let baseline = doc(vec![wl("a", 100.0), wl("b", 100.0)]);
        let measured = doc(vec![wl("a", 71.0), wl("b", 69.0)]);
        let v = compare_throughput(&baseline, &measured, 0.30).unwrap();
        assert!(!v[0].regressed, "71% of baseline is inside a 30% gate");
        assert!(v[1].regressed, "69% of baseline is outside a 30% gate");
    }

    #[test]
    fn added_and_dropped_workloads_do_not_fail_the_gate() {
        let baseline = doc(vec![wl("gone", 100.0)]);
        let measured = doc(vec![wl("new", 5.0)]);
        let v = compare_throughput(&baseline, &measured, 0.30).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| !x.regressed));
    }

    #[test]
    fn best_of_keeps_the_faster_measurement_per_workload() {
        let a = doc(vec![wl("x", 100.0), wl("y", 50.0), wl("only-a", 7.0)]);
        let b = doc(vec![wl("x", 90.0), wl("y", 80.0)]);
        let m = best_of(&a, &b);
        let ws = m.get("workloads").and_then(Value::as_array).unwrap();
        let ips = |name: &str| {
            ws.iter()
                .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
                .and_then(|w| w.get("event_driven_instrs_per_sec"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert_eq!(ips("x"), 100.0);
        assert_eq!(ips("y"), 80.0);
        assert_eq!(ips("only-a"), 7.0);
    }

    #[test]
    fn malformed_documents_are_errors() {
        let ok = doc(vec![wl("a", 1.0)]);
        assert!(compare_throughput(&Value::object(), &ok, 0.3).is_err());
        let nameless = doc(vec![
            Value::object().with("event_driven_instrs_per_sec", 1.0)
        ]);
        assert!(compare_throughput(&nameless, &ok, 0.3).is_err());
    }

    #[test]
    fn markdown_summary_renders_every_verdict_shape() {
        let verdicts = vec![
            PerfVerdict {
                workload: "ok-wl".into(),
                baseline_ips: Some(10e6),
                measured_ips: Some(12e6),
                regressed: false,
            },
            PerfVerdict {
                workload: "regressed-wl".into(),
                baseline_ips: Some(10e6),
                measured_ips: Some(5e6),
                regressed: true,
            },
            PerfVerdict {
                workload: "new-wl".into(),
                baseline_ips: None,
                measured_ips: Some(1e6),
                regressed: false,
            },
            PerfVerdict {
                workload: "gone-wl".into(),
                baseline_ips: Some(2e6),
                measured_ips: None,
                regressed: false,
            },
        ];
        let md = render_verdicts_markdown(&verdicts, 0.30);
        assert!(md.contains("| workload | baseline | measured | ratio | verdict |"));
        assert!(md.contains("| ok-wl | 10.00M | 12.00M | 1.20× | ✅ ok |"));
        assert!(md.contains("**REGRESSED**"));
        assert!(md.contains("new (no baseline)"));
        assert!(md.contains("missing from run"));
        assert!(md.contains("Gate **FAILED**: 1 workload(s) regressed."));
        let passed = render_verdicts_markdown(&verdicts[..1], 0.30);
        assert!(passed.contains("Gate **passed**."));
    }

    #[test]
    fn shard_select_partitions_in_registry_order() {
        let total = registry().len();
        for n in [1usize, 2, 4, total] {
            let mut seen = Vec::new();
            for k in 1..=n {
                let slice = shard_select(registry(), k, n);
                for s in &slice {
                    assert!(!seen.contains(&s.name), "{} in two shards", s.name);
                    seen.push(s.name);
                }
            }
            assert_eq!(seen.len(), total, "shards of {n} must cover the registry");
        }
        // Slices follow registry order round-robin.
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let first = shard_select(registry(), 1, 2);
        let expect: Vec<&str> = names.iter().copied().step_by(2).collect();
        assert_eq!(first.iter().map(|s| s.name).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn shard_specs_validate() {
        assert_eq!(parse_shard("1/1").unwrap(), (1, 1));
        assert_eq!(parse_shard("3/7").unwrap(), (3, 7));
        for bad in ["0/2", "3/2", "a/2", "2", "2/", "/2", "2/0"] {
            assert!(parse_shard(bad).is_err(), "{bad:?} should be rejected");
        }
    }

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
