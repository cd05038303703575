//! Experiment drivers regenerating every figure and table of the paper's
//! evaluation (§7), plus the countermeasure study (§8).
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Figure 7 (repetition time stacks) | [`repetition_figure`] |
//! | Figures 8–9 (racing-gadget granularity) | [`granularity`] |
//! | §7.2 granularity summary | [`granularity::granularity_table`] |
//! | Figure 10 (reorder-magnifier distributions) | [`distribution`] |
//! | Figure 11 (arbitrary-replacement sweep) | [`magnifier_sweeps::figure11`] |
//! | Figure 12 (arithmetic-magnifier sweep) | [`magnifier_sweeps::figure12`] |
//! | §7.3 SpectreBack rate/accuracy | [`spectre_eval`] |
//! | §7.4 eviction-set success rate | [`ev_eval`] |
//! | §6.3.3 SEQ/PAR miss probability | [`par_seq`] |
//! | §8 countermeasure matrix | [`countermeasures`] |
//!
//! Every driver takes explicit scale parameters so tests can run shrunken
//! versions while `racer-lab run <scenario>` runs paper-scale sweeps.

use crate::machine::Machine;
use racer_cpu::batch::{max_threads, par_map};
use racer_cpu::RunResult;
use racer_isa::Program;

/// Most lanes one [`Machine::sweep`] chunk takes. Chunks trade two costs:
/// within a chunk, lanes share one reused scheduling context; across
/// chunks, [`par_map`] balances load between host cores. Measured on
/// `timer_mitigations_eval` when runs still decoded their program, one
/// `par_map` item per lane (a decode and a context allocation per lane)
/// ran 1.24× slower, and one chunk per worker 1.61× slower (uneven trial
/// lengths leave cores idle); chunks of at most 8 beat both.
const LANES_PER_BATCH: usize = 8;

/// Run prepared heterogeneous `(machine, program)` lanes batch-first:
/// lanes are split into ordered chunks sized for the host core count
/// (capped at [`LANES_PER_BATCH`] for load balance), each chunk runs as
/// one [`Machine::sweep`], and the chunks fan out through [`par_map`] —
/// the fan-out every batched experiment shares.
/// Results come back in lane order; chunking never changes them (lanes
/// are independent machines).
pub(crate) fn run_lanes_batched(lanes: &[(Machine, &Program)]) -> Vec<RunResult> {
    if lanes.is_empty() {
        return Vec::new();
    }
    let chunk = lanes
        .len()
        .div_ceil(max_threads())
        .clamp(1, LANES_PER_BATCH);
    let chunks: Vec<&[(Machine, &Program)]> = lanes.chunks(chunk).collect();
    par_map(&chunks, |c| Machine::sweep(c.iter().map(|(m, p)| (m, *p))))
        .into_iter()
        .flatten()
        .collect()
}

pub mod countermeasures;
pub mod detection;
pub mod distribution;
pub mod ev_eval;
pub mod granularity;
pub mod magnifier_sweeps;
pub mod noise_sensitivity;
pub mod par_seq;
pub mod repetition_figure;
pub mod spectre_eval;
pub mod timer_mitigations;
pub mod window_ablation;
