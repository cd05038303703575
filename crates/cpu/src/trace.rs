//! Pipeline event tracing: a per-instruction record of when each dynamic
//! instruction moved through fetch → dispatch → issue → complete → commit.
//!
//! Tracing exists for gadget engineering: racing gadgets live or die on
//! issue-cycle relationships, and a pipeline diagram answers "why did this
//! path lose?" directly. Enable with
//! [`RecordLevel::Trace`](crate::RecordLevel::Trace) (e.g. via
//! [`CpuConfig::with_trace`](crate::CpuConfig::with_trace)); rendered
//! diagrams come from [`render_pipeline`].
//!
//! A record keeps the [`Instr`] itself (it is `Copy`), not its
//! disassembly: most traced runs only read cycle stamps (the gadget
//! search's fitness, `smt_contention_eval`'s tail completions), so the
//! text is formatted only when a diagram is rendered.

use racer_isa::Instr;

/// Lifecycle timestamps of one dynamic instruction.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction (its `Display` is the disassembly).
    pub instr: Instr,
    /// Cycle the instruction entered the fetch queue.
    pub fetched: u64,
    /// Cycle it was renamed into the ROB.
    pub dispatched: u64,
    /// Cycle it issued to a functional unit (`None` if squashed first).
    pub issued: Option<u64>,
    /// Cycle its result became available (`None` if squashed first).
    pub completed: Option<u64>,
    /// Cycle it committed (`None` = squashed: wrong-path work).
    pub committed: Option<u64>,
}

impl TraceRecord {
    pub(crate) fn new(seq: u64, pc: usize, instr: Instr, fetched: u64) -> Self {
        TraceRecord {
            seq,
            pc,
            instr,
            fetched,
            dispatched: 0,
            issued: None,
            completed: None,
            committed: None,
        }
    }

    /// Whether this instruction was squashed (never committed).
    pub fn squashed(&self) -> bool {
        self.committed.is_none()
    }
}

/// Render a compact text pipeline diagram (one line per instruction):
///
/// ```text
/// seq pc   F     D     I     C     R  text
///   7  3   12    13    255   259   261  load r4, [r2 + 0x1000]
///   8  4   12    13    -     -     -    add r5, r4, 0x1   (squashed)
/// ```
pub fn render_pipeline(records: &[TraceRecord]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("  seq    pc     F      D      I      C      R   instruction\n");
    let col = |v: Option<u64>| v.map_or("-".to_string(), |c| c.to_string());
    for r in records {
        let _ = writeln!(
            s,
            "{:5} {:5} {:6} {:6} {:>6} {:>6} {:>6}  {}{}",
            r.seq,
            r.pc,
            r.fetched,
            r.dispatched,
            col(r.issued),
            col(r.completed),
            col(r.committed),
            r.instr,
            if r.squashed() { "   (squashed)" } else { "" },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use racer_isa::{AluOp, Operand, Reg};

    #[test]
    fn record_tracks_squash_state() {
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: Reg::new(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        let mut r = TraceRecord::new(3, 7, i, 10);
        assert!(r.squashed());
        r.committed = Some(20);
        assert!(!r.squashed());
    }

    #[test]
    fn render_marks_squashed_rows() {
        let i = Instr::Nop;
        let mut a = TraceRecord::new(0, 0, i, 1);
        a.dispatched = 2;
        a.issued = Some(3);
        a.completed = Some(3);
        a.committed = Some(4);
        let b = TraceRecord::new(1, 1, i, 1);
        let s = render_pipeline(&[a, b]);
        assert!(s.lines().count() >= 3);
        assert!(s.contains("(squashed)"));
    }
}
