//! Automated racing-gadget discovery (the BETA / WhisperFuzz direction).
//!
//! The paper hand-crafts its Hacky-Racer timers: pick the functional-unit
//! mix, tune the chain depths, bolt on a magnifier. BETA (black-box
//! exploration for timing attacks) and WhisperFuzz (coverage-guided
//! timing-vulnerability fuzzing) showed the same gadget space can be
//! *searched*. This module does exactly that on top of the deterministic
//! simulator and the fork-and-run engine:
//!
//! * [`template`] — a typed grammar over racing-gadget programs.
//!   [`GadgetTemplate`] captures the FU mix (measured/clock chain ops),
//!   race-arm layout, serializing fences, padding, cover-traffic noise
//!   chains and magnifier nesting, and lowers to straight-line
//!   `racer_isa` programs through the same `Asm` idiom as
//!   `racer_cpu::workloads::timer_race`. Sampling is driven by a seeded
//!   [`SplitMix64`], so every candidate is reproducible from
//!   `(template, seed)` alone. A [`Rung`] is one `(template, target)`
//!   pair in canonical form: exactly what lowering reads, so pairs that
//!   lower to the same program the same way share it.
//! * [`fitness`] — scores a template by lowering it at a ladder of target
//!   lengths and running each lowered program (one [`Rung`]) on a fork
//!   of a warmed [`Snapshot`](racer_cpu::Snapshot). One traced run per
//!   target yields the timer reading directly (clock ops completed
//!   before the measured tail), so a candidate costs a handful of runs,
//!   not a binary search; `measure` does the runs and the pure `score`
//!   turns their result into a [`Fitness`]. Terms: resolution (cycles
//!   per clock tick, least-squares), monotonicity of reading vs.
//!   target, and stealth against the `detection_eval` hardware-counter
//!   classifiers.
//! * [`search`] — a MAP-Elites-style mutation/coverage loop: candidates
//!   are bred from a novelty archive keyed by a behaviour descriptor
//!   (resolution bucket × FU-pressure signature), evaluated in parallel
//!   with worker-count-independent ordering
//!   ([`racer_cpu::batch::par_map_workers`]) — each distinct ladder
//!   rung is simulated once per search, however many templates share
//!   it, and a template is re-scored from its rungs when bred again — and
//!   checkpointed once per generation so long searches survive kills and
//!   resume byte-for-byte.
//! * [`shipped`] — the hand-written paper-racer baseline plus the top
//!   gadgets discovered by the committed search run, each carrying full
//!   provenance (template, seed, generation, fitness) and pinned by
//!   exact-equality regression tests.
//!
//! The `gadget_search_eval` scenario in `racer-lab` drives the loop end
//! to end and reports the archive, per-generation logs and the
//! discovered-vs-hand-written resolution ratio.

pub mod fitness;
pub mod search;
pub mod shipped;
pub mod template;

pub use fitness::{
    eval_cpu_config, evaluate, measure, measure_rung, score, stealth_term, Fitness, FitnessConfig,
    FitnessPoint, Measurement, RungReading,
};
pub use racer_rng::SplitMix64;
pub use search::{run_search, Candidate, Cell, GenerationLog, SearchConfig, SearchState};
pub use shipped::{
    fenced_dud, hand_written_baseline, shipped_gadgets, ExpectedFitness, ShippedGadget,
    QUICK_FITNESS_FLOOR,
};
pub use template::{ArmLayout, ChainOp, GadgetTemplate, LoweredGadget, Rung};
