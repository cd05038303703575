//! The §8 countermeasure matrix: which racing gadgets survive which
//! hardware defences.
//!
//! The paper's qualitative argument, made quantitative: transient P/A races
//! die under any defence that hides or delays speculative cache effects,
//! while the branch-free reorder race survives everything short of actual
//! in-order execution.

use crate::machine::Machine;
use crate::path::PathSpec;
use crate::racing::{ReorderRace, TransientPaRace};
use racer_cpu::Countermeasure;
use racer_mem::Addr;

/// Outcome of probing one gadget under one defence.
#[derive(Clone, Debug)]
pub struct CountermeasureRow {
    /// The defence mode.
    pub countermeasure: String,
    /// Whether the transient P/A race still transmits (both directions
    /// distinguishable).
    pub transient_pa_works: bool,
    /// Whether the non-transient reorder race still transmits.
    pub reorder_works: bool,
}

/// Probe the §5.1 gadget: can it distinguish a short target from a long
/// target under the given defence?
fn transient_pa_transmits(cm: Countermeasure) -> bool {
    let mut m = Machine::baseline();
    m.set_countermeasure(cm);
    let race = TransientPaRace::new(m.layout());
    let short = PathSpec::op_chain(racer_isa::AluOp::Add, 8);
    let long = PathSpec::op_chain(racer_isa::AluOp::Add, 45);
    let reference = PathSpec::op_chain(racer_isa::AluOp::Add, 25);
    let fast_wins = race.target_beats_ref(&mut m, &short, &reference);
    let mut m2 = Machine::baseline();
    m2.set_countermeasure(cm);
    let slow_loses = !race.target_beats_ref(&mut m2, &long, &reference);
    fast_wins && slow_loses
}

/// Probe the §5.2 gadget likewise.
fn reorder_transmits(cm: Countermeasure) -> bool {
    let a = Addr(0x0700_0000);
    let b = Addr(0x0700_2000);
    let mut m = Machine::baseline();
    m.set_countermeasure(cm);
    let race = ReorderRace::new(m.layout());
    let short = PathSpec::op_chain(racer_isa::AluOp::Add, 8);
    let long = PathSpec::op_chain(racer_isa::AluOp::Add, 30);
    let fwd = race.run(&mut m, &short, &long, a, b).measurement_won;
    let rev = race.run(&mut m, &long, &short, a, b).measurement_won;
    fwd && !rev
}

/// Evaluate both gadgets under every modelled defence.
pub fn countermeasure_matrix() -> Vec<CountermeasureRow> {
    [
        Countermeasure::None,
        Countermeasure::DelayOnMiss,
        Countermeasure::InvisibleSpec,
        Countermeasure::GhostMinion,
        Countermeasure::CleanupSpec,
        Countermeasure::InOrder,
    ]
    .into_iter()
    .map(|cm| CountermeasureRow {
        countermeasure: cm.to_string(),
        transient_pa_works: transient_pa_transmits(cm),
        reorder_works: reorder_transmits(cm),
    })
    .collect()
}

/// Render the matrix as a table.
pub fn render(rows: &[CountermeasureRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("countermeasure\ttransient-P/A\treorder\n");
    for r in rows {
        let mark = |b: bool| if b { "leaks" } else { "blocked" };
        let _ = writeln!(
            s,
            "{}\t{}\t{}",
            r.countermeasure,
            mark(r.transient_pa_works),
            mark(r.reorder_works)
        );
    }
    s
}

/// JSON form of the §8 matrix: one object per (defence, gadget-outcomes)
/// row.
pub fn to_value(rows: &[CountermeasureRow]) -> racer_results::Value {
    racer_results::Value::Array(
        rows.iter()
            .map(|r| {
                racer_results::Value::object()
                    .with("countermeasure", r.countermeasure.as_str())
                    .with("transient_pa_works", r.transient_pa_works)
                    .with("reorder_works", r.reorder_works)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_the_papers_claims() {
        let rows = countermeasure_matrix();
        let find = |name: &str| rows.iter().find(|r| r.countermeasure == name).unwrap();

        let baseline = find("baseline");
        assert!(baseline.transient_pa_works && baseline.reorder_works);

        // Spectre-class defences kill the transient gadget but not the
        // reorder gadget (§8: "an attacker can easily change to use reorder
        // gadgets instead").
        for name in [
            "delay-on-miss",
            "invisible-speculation",
            "ghostminion",
            "cleanupspec",
        ] {
            let row = find(name);
            assert!(
                !row.transient_pa_works,
                "{name} must block the transient P/A race"
            );
            assert!(row.reorder_works, "{name} must NOT block the reorder race");
        }

        // Only genuine in-order execution stops the reorder race.
        let inorder = find("in-order");
        assert!(
            !inorder.reorder_works,
            "in-order execution destroys ILP races"
        );
    }

    #[test]
    fn render_mentions_every_mode() {
        let s = render(&countermeasure_matrix());
        for name in ["baseline", "delay-on-miss", "in-order"] {
            assert!(s.contains(name));
        }
    }
}
