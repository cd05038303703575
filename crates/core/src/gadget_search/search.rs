//! The mutation/coverage loop: a MAP-Elites-style novelty archive over
//! behaviour cells, bred by single-field mutation, evaluated in
//! worker-count-independent parallel batches.
//!
//! Determinism contract (pinned by
//! `crates/core/tests/gadget_search_determinism.rs`): the final state —
//! archive, per-generation logs, rng position — is a pure function of
//! `(SearchConfig, seed)`. Candidate *generation* is serial (one rng),
//! candidate *evaluation* fans out through
//! [`par_map_workers`] whose results
//! come back in input order regardless of scheduling, and archive
//! updates replay in candidate order. Nothing observes wall-clock or
//! thread identity.
//!
//! The whole state serializes to a [`Value`] and back bit-exactly
//! (floats survive via shortest-roundtrip formatting; the rng word as a
//! hex string since `Value::Int` is `i64`), which is what makes
//! per-generation checkpoint/resume converge byte-for-byte with an
//! uninterrupted run.

use std::collections::BTreeMap;

use super::fitness::{evaluate, Fitness, FitnessConfig, FitnessPoint};
use super::template::{ArmLayout, ChainOp, GadgetTemplate};
use racer_cpu::batch::{max_threads, par_map_workers};
use racer_cpu::engine::Snapshot;
use racer_results::Value;
use racer_rng::SplitMix64;

/// Behaviour-descriptor cell: `(resolution bucket, FU-pressure
/// signature)`. Two candidates in the same cell are behavioural
/// duplicates; the archive keeps the better-scoring one.
pub type Cell = (u8, u8);

/// Resolution bucket edges (cycles per tick): ≤1.25 is bucket 0 (a
/// cycle-accurate timer), each doubling coarser is the next bucket, and
/// no-usable-slope candidates land in the top bucket.
fn resolution_bucket(f: &Fitness) -> u8 {
    if f.resolution_cycles_per_tick <= 0.0 {
        return 7;
    }
    let edges = [1.25, 2.0, 4.0, 8.0, 16.0, 32.0];
    edges
        .iter()
        .position(|&e| f.resolution_cycles_per_tick <= e)
        .unwrap_or(6) as u8
}

/// The behaviour descriptor a candidate is archived under.
pub fn descriptor(tpl: &GadgetTemplate, f: &Fitness) -> Cell {
    (resolution_bucket(f), tpl.fu_signature())
}

/// Search hyper-parameters. `workers == 0` means use
/// [`max_threads`] (the `RACER_BATCH_THREADS`-aware default); any value
/// yields identical results, only wall-clock differs.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchConfig {
    /// Seed for the one sampling rng.
    pub seed: u64,
    /// Candidates evaluated per generation.
    pub population: usize,
    /// Generations to run.
    pub generations: u32,
    /// How candidates are measured.
    pub fitness: FitnessConfig,
    /// Evaluation worker threads (0 = auto).
    pub workers: usize,
}

/// An archived candidate with its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Birth order across the whole search (breeding provenance).
    pub id: u64,
    /// Generation the candidate was evaluated in.
    pub generation: u32,
    /// The genome.
    pub template: GadgetTemplate,
    /// Its score.
    pub fitness: Fitness,
}

/// Per-generation progress record (the "generation log" artifact).
#[derive(Clone, Debug, PartialEq)]
pub struct GenerationLog {
    /// Generation index.
    pub generation: u32,
    /// Candidates evaluated.
    pub evaluated: u32,
    /// Candidates whose runs did not finish cleanly.
    pub invalid: u32,
    /// Archive cells first filled this generation.
    pub new_cells: u32,
    /// Occupied cells improved (strictly better score) this generation.
    pub improved: u32,
    /// Best score in the archive after the generation.
    pub best_score: f64,
    /// Occupied cells after the generation.
    pub archive_cells: u32,
}

/// The complete, serializable search state.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchState {
    /// The one sampling rng (breeding draws only; evaluation is
    /// deterministic and draws nothing).
    pub rng: SplitMix64,
    /// Next generation index to run.
    pub generation: u32,
    /// Next candidate id.
    pub next_id: u64,
    /// The novelty archive: best candidate per behaviour cell.
    /// `BTreeMap` so every iteration order in the loop is sorted —
    /// deterministic parent selection and serialization for free.
    pub archive: BTreeMap<Cell, Candidate>,
    /// One entry per completed generation.
    pub log: Vec<GenerationLog>,
}

impl SearchState {
    /// Fresh state for `seed`; no generations run yet.
    pub fn new(seed: u64) -> SearchState {
        SearchState {
            rng: SplitMix64::new(seed),
            generation: 0,
            next_id: 0,
            archive: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The best archived candidate (highest score; ties break to the
    /// earliest id so the answer never depends on map order).
    pub fn best(&self) -> Option<&Candidate> {
        self.archive.values().max_by(|a, b| {
            a.fitness
                .score
                .total_cmp(&b.fitness.score)
                .then(b.id.cmp(&a.id))
        })
    }

    /// Run one generation: breed `population` candidates (3:1
    /// mutation-of-an-archived-parent vs. fresh sample once the archive
    /// is non-empty), evaluate them in parallel, fold them into the
    /// archive in candidate order, and append the generation log.
    pub fn step(&mut self, cfg: &SearchConfig, snap: &Snapshot) {
        let parent_cells: Vec<Cell> = self.archive.keys().copied().collect();
        let mut templates = Vec::with_capacity(cfg.population);
        for _ in 0..cfg.population {
            let tpl = if parent_cells.is_empty() || self.rng.below(4) == 0 {
                GadgetTemplate::sample(&mut self.rng)
            } else {
                let cell = parent_cells[self.rng.below(parent_cells.len() as u64) as usize];
                self.archive[&cell].template.mutate(&mut self.rng)
            };
            templates.push(tpl);
        }
        let workers = if cfg.workers == 0 {
            max_threads()
        } else {
            cfg.workers
        };
        let scores = par_map_workers(&templates, workers, |tpl| evaluate(tpl, &cfg.fitness, snap));
        let (mut invalid, mut new_cells, mut improved) = (0u32, 0u32, 0u32);
        for (template, fitness) in templates.into_iter().zip(scores) {
            let id = self.next_id;
            self.next_id += 1;
            if !fitness.valid {
                invalid += 1;
                continue;
            }
            let cell = descriptor(&template, &fitness);
            let candidate = Candidate {
                id,
                generation: self.generation,
                template,
                fitness,
            };
            match self.archive.get(&cell) {
                None => {
                    new_cells += 1;
                    self.archive.insert(cell, candidate);
                }
                Some(existing) if candidate.fitness.score > existing.fitness.score => {
                    improved += 1;
                    self.archive.insert(cell, candidate);
                }
                Some(_) => {}
            }
        }
        self.log.push(GenerationLog {
            generation: self.generation,
            evaluated: cfg.population as u32,
            invalid,
            new_cells,
            improved,
            best_score: self.best().map_or(0.0, |c| c.fitness.score),
            archive_cells: self.archive.len() as u32,
        });
        self.generation += 1;
    }

    /// Serialize to a [`Value`] that [`from_value`](Self::from_value)
    /// inverts bit-exactly (the checkpoint payload and the scenario's
    /// archive/log sections share this layout).
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("rng", format!("{:#018x}", self.rng.state()))
            .with("generation", i64::from(self.generation))
            .with("next_id", self.next_id as i64)
            .with(
                "archive",
                Value::Array(self.archive.values().map(candidate_to_value).collect()),
            )
            .with(
                "log",
                Value::Array(self.log.iter().map(log_to_value).collect()),
            )
    }

    /// Rebuild a state serialized by [`to_value`](Self::to_value);
    /// `None` on any schema mismatch (a caller should treat that as "no
    /// usable checkpoint", not corruption — corruption is the journal
    /// layer's concern).
    pub fn from_value(v: &Value) -> Option<SearchState> {
        let rng_hex = v.get("rng")?.as_str()?;
        let rng =
            SplitMix64::from_state(u64::from_str_radix(rng_hex.strip_prefix("0x")?, 16).ok()?);
        let generation = u32::try_from(v.get("generation")?.as_i64()?).ok()?;
        let next_id = v.get("next_id")?.as_i64()? as u64;
        let mut archive = BTreeMap::new();
        for cv in v.get("archive")?.as_array()? {
            let (cell, cand) = candidate_from_value(cv)?;
            archive.insert(cell, cand);
        }
        let mut log = Vec::new();
        for lv in v.get("log")?.as_array()? {
            log.push(log_from_value(lv)?);
        }
        Some(SearchState {
            rng,
            generation,
            next_id,
            archive,
            log,
        })
    }
}

/// Run a full search from scratch: build the shared snapshot once, then
/// step through every generation.
pub fn run_search(cfg: &SearchConfig) -> SearchState {
    let snap = cfg.fitness.snapshot();
    let mut state = SearchState::new(cfg.seed);
    while state.generation < cfg.generations {
        state.step(cfg, &snap);
    }
    state
}

/// Template serialization — stable field names, part of the checkpoint
/// and provenance format.
pub fn template_to_value(t: &GadgetTemplate) -> Value {
    Value::object()
        .with("measured_op", t.measured_op.name())
        .with("measured_scale", i64::from(t.measured_scale))
        .with("clock_op", t.clock_op.name())
        .with("layout", t.layout.name())
        .with("fences", i64::from(t.fences))
        .with("pad_nops", i64::from(t.pad_nops))
        .with("noise_chains", i64::from(t.noise_chains))
        .with("rounds", i64::from(t.rounds))
}

/// Inverse of [`template_to_value`].
pub fn template_from_value(v: &Value) -> Option<GadgetTemplate> {
    Some(GadgetTemplate {
        measured_op: ChainOp::from_name(v.get("measured_op")?.as_str()?)?,
        measured_scale: v.get("measured_scale")?.as_i64()? as u32,
        clock_op: ChainOp::from_name(v.get("clock_op")?.as_str()?)?,
        layout: ArmLayout::from_name(v.get("layout")?.as_str()?)?,
        fences: v.get("fences")?.as_i64()? as u32,
        pad_nops: v.get("pad_nops")?.as_i64()? as u32,
        noise_chains: v.get("noise_chains")?.as_i64()? as u32,
        rounds: v.get("rounds")?.as_i64()? as u32,
    })
}

/// Fitness serialization (shared with the scenario payload).
pub fn fitness_to_value(f: &Fitness) -> Value {
    Value::object()
        .with("valid", f.valid)
        .with("resolution_cycles_per_tick", f.resolution_cycles_per_tick)
        .with("monotonicity_error_rate", f.monotonicity_error_rate)
        .with("l1_flagged", f.l1_flagged)
        .with("backend_flagged", f.backend_flagged)
        .with("stealth", f.stealth)
        .with("score", f.score)
        .with(
            "points",
            Value::Array(
                f.points
                    .iter()
                    .map(|p| {
                        Value::object()
                            .with("target", p.target as i64)
                            .with("reading", p.reading as i64)
                            .with("duration", p.duration as i64)
                    })
                    .collect(),
            ),
        )
}

/// Inverse of [`fitness_to_value`].
pub fn fitness_from_value(v: &Value) -> Option<Fitness> {
    let mut points = Vec::new();
    for pv in v.get("points")?.as_array()? {
        points.push(FitnessPoint {
            target: pv.get("target")?.as_i64()? as usize,
            reading: pv.get("reading")?.as_i64()? as u64,
            duration: pv.get("duration")?.as_i64()? as u64,
        });
    }
    Some(Fitness {
        valid: v.get("valid")?.as_bool()?,
        resolution_cycles_per_tick: v.get("resolution_cycles_per_tick")?.as_f64()?,
        monotonicity_error_rate: v.get("monotonicity_error_rate")?.as_f64()?,
        l1_flagged: v.get("l1_flagged")?.as_bool()?,
        backend_flagged: v.get("backend_flagged")?.as_bool()?,
        stealth: v.get("stealth")?.as_f64()?,
        score: v.get("score")?.as_f64()?,
        points,
    })
}

fn candidate_to_value(c: &Candidate) -> Value {
    let cell = descriptor(&c.template, &c.fitness);
    Value::object()
        .with(
            "cell",
            Value::Array(vec![
                Value::Int(i64::from(cell.0)),
                Value::Int(i64::from(cell.1)),
            ]),
        )
        .with("id", c.id as i64)
        .with("generation", i64::from(c.generation))
        .with("template", template_to_value(&c.template))
        .with("fitness", fitness_to_value(&c.fitness))
}

fn candidate_from_value(v: &Value) -> Option<(Cell, Candidate)> {
    let cells = v.get("cell")?.as_array()?;
    let cell = (
        u8::try_from(cells.first()?.as_i64()?).ok()?,
        u8::try_from(cells.get(1)?.as_i64()?).ok()?,
    );
    let cand = Candidate {
        id: v.get("id")?.as_i64()? as u64,
        generation: u32::try_from(v.get("generation")?.as_i64()?).ok()?,
        template: template_from_value(v.get("template")?)?,
        fitness: fitness_from_value(v.get("fitness")?)?,
    };
    Some((cell, cand))
}

fn log_to_value(l: &GenerationLog) -> Value {
    Value::object()
        .with("generation", i64::from(l.generation))
        .with("evaluated", i64::from(l.evaluated))
        .with("invalid", i64::from(l.invalid))
        .with("new_cells", i64::from(l.new_cells))
        .with("improved", i64::from(l.improved))
        .with("best_score", l.best_score)
        .with("archive_cells", i64::from(l.archive_cells))
}

fn log_from_value(v: &Value) -> Option<GenerationLog> {
    Some(GenerationLog {
        generation: u32::try_from(v.get("generation")?.as_i64()?).ok()?,
        evaluated: u32::try_from(v.get("evaluated")?.as_i64()?).ok()?,
        invalid: u32::try_from(v.get("invalid")?.as_i64()?).ok()?,
        new_cells: u32::try_from(v.get("new_cells")?.as_i64()?).ok()?,
        improved: u32::try_from(v.get("improved")?.as_i64()?).ok()?,
        best_score: v.get("best_score")?.as_f64()?,
        archive_cells: u32::try_from(v.get("archive_cells")?.as_i64()?).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> SearchConfig {
        SearchConfig {
            seed,
            population: 8,
            generations: 2,
            fitness: FitnessConfig {
                targets: vec![0, 1, 2],
                clock_len: 48,
                cycle_budget: 50_000,
                warmup_runs: 2,
            },
            workers: 0,
        }
    }

    #[test]
    fn search_fills_the_archive_and_logs_every_generation() {
        let cfg = tiny_config(1);
        let state = run_search(&cfg);
        assert_eq!(state.generation, 2);
        assert_eq!(state.log.len(), 2);
        assert_eq!(state.next_id, 16);
        assert!(!state.archive.is_empty(), "some candidate must be valid");
        assert!(state.best().is_some());
    }

    #[test]
    fn state_roundtrips_through_value_exactly() {
        let cfg = tiny_config(2);
        let state = run_search(&cfg);
        let v = state.to_value();
        let back = SearchState::from_value(&v).expect("roundtrip parses");
        assert_eq!(back, state);
        // And through the actual JSON text layer, which is what the
        // checkpoint journal stores.
        let text = v.to_pretty();
        let reparsed = Value::parse(&text).expect("valid JSON");
        let back2 = SearchState::from_value(&reparsed).expect("reparse");
        assert_eq!(back2, state);
    }

    #[test]
    fn stepwise_equals_run_search() {
        let cfg = tiny_config(3);
        let whole = run_search(&cfg);
        let snap = cfg.fitness.snapshot();
        let mut stepped = SearchState::new(cfg.seed);
        while stepped.generation < cfg.generations {
            stepped.step(&cfg, &snap);
        }
        assert_eq!(stepped, whole);
    }

    #[test]
    fn resolution_buckets_are_ordered() {
        let mut f = Fitness::invalid();
        assert_eq!(resolution_bucket(&f), 7);
        f.resolution_cycles_per_tick = 1.0;
        assert_eq!(resolution_bucket(&f), 0);
        f.resolution_cycles_per_tick = 3.0;
        assert_eq!(resolution_bucket(&f), 2);
        f.resolution_cycles_per_tick = 100.0;
        assert_eq!(resolution_bucket(&f), 6);
    }
}
