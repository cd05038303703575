//! `gadget_search_eval` — automated racing-gadget discovery.
//!
//! Drives `hacky_racers::gadget_search`: a MAP-Elites-style search over
//! the racing-gadget template grammar, every candidate scored by fanning
//! its lowered target ladder through one warmed `run_many` call. The
//! payload reports the hand-written paper-racer baseline, the
//! per-generation log, the final novelty archive, the best and
//! finest-resolution discoveries (with the discovered-vs-hand-written
//! resolution ratio the acceptance bar gates on), and the committed
//! shipped gadgets re-evaluated under this run's fitness config.
//!
//! With `--set checkpoint_dir=DIR` the search journals its complete
//! state after every generation (`PR 6` checkpoint records, fault sites
//! `checkpoint:gadget_search_eval:gen<k>`); a killed run re-invoked with
//! the same arguments resumes from the last journaled generation and
//! produces byte-identical output — pinned end-to-end by
//! `crates/lab/tests/gadget_search_resume.rs`.

use std::fmt::Write as _;
use std::path::Path;

use crate::checkpoint::{identity_key, Checkpoint};
use crate::error::LabError;
use crate::params::ParamSpec;
use crate::registry::{RunContext, Scenario, ScenarioOutput};
use hacky_racers::gadget_search::search::{fitness_to_value, template_to_value};
use hacky_racers::gadget_search::{
    evaluate, hand_written_baseline, shipped_gadgets, Candidate, FitnessConfig, SearchConfig,
    SearchState, QUICK_FITNESS_FLOOR,
};
use racer_results::Value;

/// Per-run cycle ceiling: far above any sane candidate (a worst-case
/// template runs ~3k cycles), so only runaway behaviour is invalidated.
const CYCLE_BUDGET: u64 = 50_000;

/// Warmup depth of the shared evaluation snapshot.
const WARMUP_RUNS: usize = 8;

fn candidate_value(c: &Candidate) -> Value {
    Value::object()
        .with("id", c.id as i64)
        .with("generation", i64::from(c.generation))
        .with("template", template_to_value(&c.template))
        .with("fitness", fitness_to_value(&c.fitness))
}

fn run(ctx: &RunContext) -> Result<ScenarioOutput, LabError> {
    let generations = ctx.params.usize("generations") as u32;
    let population = ctx.params.usize("population");
    let targets = ctx.params.usize_list("targets");
    let clock_len = ctx.params.usize("clock_len");
    let workers = ctx.params.usize("workers");
    let checkpoint_dir = ctx.params.str("checkpoint_dir").to_string();

    let cfg = SearchConfig {
        seed: ctx.seed,
        population,
        generations,
        fitness: FitnessConfig {
            targets,
            clock_len,
            cycle_budget: CYCLE_BUDGET,
            warmup_runs: WARMUP_RUNS,
        },
        workers,
    };

    let journal = if checkpoint_dir.is_empty() {
        None
    } else {
        Some(Checkpoint::open(Path::new(&checkpoint_dir))?)
    };
    let key = identity_key("gadget_search_eval", ctx.scale, ctx.seed, &ctx.params);

    // Resume from the newest journaled generation, if any. A record that
    // does not parse as search state is treated as absent (the journal
    // layer already rejected corrupt JSON and key conflicts).
    let mut state = SearchState::new(cfg.seed);
    let mut resumed_from = None;
    if let Some(journal) = &journal {
        for g in (0..generations).rev() {
            if let Some(v) = journal.load(&format!("gadget_search_eval:gen{g}"), &key)? {
                if let Some(s) = SearchState::from_value(&v) {
                    resumed_from = Some(g);
                    state = s;
                    break;
                }
            }
        }
    }

    let snap = cfg.fitness.snapshot();
    while state.generation < cfg.generations {
        state.step(&cfg, &snap);
        if let Some(journal) = &journal {
            journal.record(
                &format!("gadget_search_eval:gen{}", state.generation - 1),
                &key,
                &state.to_value(),
            )?;
        }
    }

    let baseline = evaluate(&hand_written_baseline(), &cfg.fitness, &snap);
    let best = state.best();
    // The acceptance metric: the finest usable discovered resolution vs.
    // the hand-written racer's.
    let finest = state
        .archive
        .values()
        .filter(|c| c.fitness.resolution_cycles_per_tick > 0.0)
        .min_by(|a, b| {
            a.fitness
                .resolution_cycles_per_tick
                .total_cmp(&b.fitness.resolution_cycles_per_tick)
                .then(a.id.cmp(&b.id))
        });
    let resolution_ratio =
        finest.map(|c| c.fitness.resolution_cycles_per_tick / baseline.resolution_cycles_per_tick);
    let floor_met = best.is_some_and(|c| c.fitness.score >= QUICK_FITNESS_FLOOR);

    let shipped: Vec<Value> = shipped_gadgets()
        .iter()
        .map(|g| {
            Value::object()
                .with("name", g.name)
                .with("seed", g.seed as i64)
                .with("generation", i64::from(g.generation))
                .with("id", g.id as i64)
                .with("template", template_to_value(&g.template))
                .with(
                    "fitness",
                    fitness_to_value(&evaluate(&g.template, &cfg.fitness, &snap)),
                )
        })
        .collect();

    let mut text = super::header(
        "gadget search",
        "automated racing-gadget discovery over the batched engine",
    );
    let _ = writeln!(
        text,
        "# seed {}  {} generations x {} candidates  targets {:?}  clock {}",
        cfg.seed, generations, population, cfg.fitness.targets, clock_len
    );
    if let Some(g) = resumed_from {
        let _ = writeln!(text, "# resumed from checkpoint generation {g}");
    }
    let _ = writeln!(
        text,
        "# gen  evaluated  invalid  new  improved  cells  best"
    );
    for l in &state.log {
        let _ = writeln!(
            text,
            "# {:>3}  {:>9}  {:>7}  {:>3}  {:>8}  {:>5}  {:.4}",
            l.generation,
            l.evaluated,
            l.invalid,
            l.new_cells,
            l.improved,
            l.archive_cells,
            l.best_score
        );
    }
    let _ = writeln!(
        text,
        "# baseline (hand-written racer): {:.4} cycles/tick, score {:.4}",
        baseline.resolution_cycles_per_tick, baseline.score
    );
    match (best, finest) {
        (Some(b), Some(f)) => {
            let _ = writeln!(
                text,
                "# best score {:.4} (id {}); finest resolution {:.4} cycles/tick (id {}, {:.2}x baseline)",
                b.fitness.score,
                b.id,
                f.fitness.resolution_cycles_per_tick,
                f.id,
                resolution_ratio.unwrap_or(f64::NAN)
            );
        }
        _ => {
            let _ = writeln!(text, "# search found no valid gadget");
        }
    }

    let data = Value::object()
        .with(
            "baseline",
            Value::object()
                .with("template", template_to_value(&hand_written_baseline()))
                .with("fitness", fitness_to_value(&baseline)),
        )
        .with(
            "generations",
            Value::Array(
                state
                    .log
                    .iter()
                    .map(|l| {
                        Value::object()
                            .with("generation", i64::from(l.generation))
                            .with("evaluated", i64::from(l.evaluated))
                            .with("invalid", i64::from(l.invalid))
                            .with("new_cells", i64::from(l.new_cells))
                            .with("improved", i64::from(l.improved))
                            .with("best_score", l.best_score)
                            .with("archive_cells", i64::from(l.archive_cells))
                    })
                    .collect(),
            ),
        )
        .with(
            "archive",
            Value::Array(state.archive.values().map(candidate_value).collect()),
        )
        .with("best", best.map_or(Value::Null, candidate_value))
        .with(
            "finest",
            finest.map_or(Value::Null, |c| {
                candidate_value(c).with(
                    "ratio_to_baseline",
                    resolution_ratio.map_or(Value::Null, Value::Float),
                )
            }),
        )
        .with("quick_floor", QUICK_FITNESS_FLOOR)
        .with("floor_met", floor_met)
        .with("shipped", Value::Array(shipped));

    Ok(ScenarioOutput { data, text })
}

/// Registration for the gadget-search evaluation.
pub fn gadget_search_eval() -> Scenario {
    Scenario {
        name: "gadget_search_eval",
        title: "gadget search",
        description: "automated racing-gadget discovery: template search scored on resolution, monotonicity and stealth",
        params: vec![
            ParamSpec::int("generations", "search generations", 8, 24),
            ParamSpec::int("population", "candidates per generation", 256, 512),
            ParamSpec::int_list(
                "targets",
                "measured-length ladder each candidate is scored on",
                &[0, 1, 2, 3, 4],
                &[0, 1, 2, 3, 4, 5, 6],
            ),
            ParamSpec::int("clock_len", "clock ops per lowered candidate", 96, 128),
            ParamSpec::int("workers", "evaluation threads (0 = all cores; any value, same results)", 0, 0),
            ParamSpec::str(
                "checkpoint_dir",
                "journal search state per generation into this directory (empty = off)",
                "",
                "",
            ),
        ],
        seed: 9,
        run,
    }
}
