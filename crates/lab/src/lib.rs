//! `racer-lab` — the registry-driven experiment runner.
//!
//! The paper's evaluation is a grid of figures and tables; this crate
//! makes every cell of that grid an addressable, enumerable, reproducible
//! unit. Each experiment registers a [`registry::Scenario`]: a stable
//! name, a parameter schema with quick/paper presets, and a run function
//! producing both plot-ready text and a structured
//! [`racer_results::Value`]. One CLI drives them all:
//!
//! ```text
//! racer-lab list                       # enumerate scenarios
//! racer-lab describe fig10_reorder_distribution
//! racer-lab run fig08_granularity_add --quick
//! racer-lab run --all --quick          # the CI matrix, in parallel
//! racer-lab report site results        # static HTML dashboard from reports
//! ```
//!
//! Every run writes `results/<scenario>.json`: a versioned report
//! (`racer-lab/v1`) carrying the resolved config, the seed, git-describe
//! provenance and the structured results. Every scenario is
//! deterministic: its reports are byte-identical across runs — CI diffs
//! them, and the golden tests in `tests/golden.rs` enforce it.
//!
//! Scenario fan-out uses [`racer_cpu::batch::par_map`], so `run --all`
//! saturates host cores while keeping output order stable.
//!
//! `report` feeds the written reports through `racer-report`, which
//! renders a deterministic static HTML dashboard (inline-SVG plots per
//! scenario, provenance blocks, quick-vs-paper deltas) — the registry
//! supplies page order and titles.
//!
//! The pipeline is fault-tolerant end to end: every failure is a typed
//! [`error::LabError`] with a documented exit code, panicking trials are
//! crash-isolated into labelled failed cells ([`runner`]), all artefacts
//! are written atomically ([`fsio`]), interrupted sweeps resume from a
//! [`checkpoint`] journal, and the whole story is proved under injected
//! failure by the [`fault`] harness (`RACER_FAULT_PLAN`).

pub mod checkpoint;
pub mod cli;
pub mod error;
pub mod fault;
pub mod fsio;
pub mod params;
pub mod provenance;
pub mod registry;
pub mod runner;
pub mod scenarios;

pub use checkpoint::Checkpoint;
pub use error::LabError;
pub use fsio::write_atomic;
pub use params::{ParamSpec, ParamValue, Scale};
pub use registry::{find, registry, RunContext, Scenario, ScenarioOutput};
pub use runner::{run_scenario, Report, RunOptions};
