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
use racer_cpu::batch::par_map;
use racer_cpu::engine::fork_and_run;
use racer_cpu::RunResult;
use racer_isa::Program;

/// Run prepared heterogeneous `(machine, program)` lanes, one [`par_map`]
/// item per lane: each lane forks its machine's current state and runs
/// to completion ([`fork_and_run`], which keeps the host thread's
/// scheduling context across calls). Results come back in lane order,
/// bit-identical to running each lane on its own fork; the machines are
/// untouched. This is the fan-out every batched experiment shares.
pub(crate) fn run_lanes(lanes: &[(Machine, &Program)]) -> Vec<RunResult> {
    par_map(lanes, |(m, p)| {
        let snap = m.snapshot();
        let r = fork_and_run([(&snap, *p)]).next();
        r.expect("one lane in, one result out")
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use racer_isa::{Asm, MemOperand};

    /// A short load-heavy probe whose timing is state-sensitive.
    fn probe(touch: u64) -> Program {
        let mut asm = Asm::new();
        let r = asm.reg();
        for i in 0..touch {
            asm.load(r, MemOperand::abs(0x8000 + i * 64));
        }
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn run_lanes_matches_per_machine_runs_over_heterogeneous_states() {
        // Three differently-prepared machines × two programs.
        let prepared = |warm: u64| {
            let mut m = Machine::baseline();
            m.run(&probe(warm));
            m
        };
        let progs = [probe(8), probe(20)];
        let lanes: Vec<(Machine, &Program)> = [0, 16, 40]
            .into_iter()
            .flat_map(|warm| progs.iter().map(move |p| (prepared(warm), p)))
            .collect();
        let got = run_lanes(&lanes);
        assert_eq!(got.len(), lanes.len());
        for (i, ((m, p), got)) in lanes.iter().zip(&got).enumerate() {
            let want = Machine::from_snapshot(&m.snapshot()).run(p);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "lane #{i} diverges from a per-machine run"
            );
        }
        assert!(run_lanes(&[]).is_empty());
    }
}
