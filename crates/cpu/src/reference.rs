//! The original scan-based pipeline scheduler, kept as a **golden model**.
//!
//! [`crate::core`] reimplements scheduling event-driven (tag-broadcast
//! wakeup, ring-buffer ROB, no steady-state allocation) for throughput;
//! this module preserves the straightforward O(ROB)-scans-per-cycle
//! implementation it must match **cycle-exactly**. The differential test
//! suite (`crates/cpu/tests/differential.rs`, `crates/cpu/tests/smt.rs`)
//! runs randomized programs — and randomized SMT co-schedules — through
//! both and asserts identical [`RunResult`]s.
//!
//! Like the event-driven core, the reference machine is multi-context:
//! per-thread state lives in `RefThread`, structural resources (issue
//! bandwidth, FU ports, divider units, MSHRs, the cache hierarchy) are
//! shared, and the same [`SmtPolicy`](crate::config::SmtPolicy)
//! implementation orders the per-cycle issue claims — so an SMT
//! co-schedule is cross-checked end to end, arbitration included.
//!
//! Algorithmic cost (the reason it was replaced): every cycle scans the
//! whole ROB at issue, refreshes sources with per-tag binary searches,
//! re-walks the ROB for speculation/disambiguation checks per load, and
//! commits with a full-ROB tag broadcast; every dispatch allocates a source
//! vector and every branch clones the whole RAT into a `HashMap`.

use crate::config::{Countermeasure, CpuConfig};
use crate::predictor::Predictor;
use crate::stats::{LoadEvent, RunResult};
use racer_isa::{AluOp, DataMemory, FuClass, Instr, MemOperand, Program, Reg, NUM_REGS};
use racer_mem::{AccessKind, Addr, Hierarchy, HitLevel};
use std::collections::{HashMap, VecDeque};

/// Dynamic-instruction sequence number (per hardware thread).
type Seq = u64;

#[derive(Copy, Clone, Debug, Eq, PartialEq)]
enum EntryState {
    /// Dispatched, waiting for sources / a port.
    Waiting,
    /// Executing on a functional unit.
    Issued,
    /// Result available.
    Done,
}

#[derive(Copy, Clone, Debug)]
enum Src {
    Ready(u64),
    Tag(Seq),
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: Seq,
    pc: usize,
    instr: Instr,
    state: EntryState,
    srcs: Vec<(Reg, Src)>,
    result: u64,
    completion: u64,
    predicted_taken: bool,
    /// Effective address for memory ops, resolved at issue.
    mem_addr: Option<u64>,
    /// Cache fill deferred to commit (invisible-speculation modes).
    deferred_fill: bool,
    /// Index into the run's load-event vector, if recorded.
    load_event: Option<usize>,
    /// Index into the run's trace vector, if recorded.
    trace_idx: Option<usize>,
}

#[derive(Clone, Debug)]
struct FetchedInstr {
    pc: usize,
    instr: Instr,
    predicted_taken: bool,
    ready_cycle: u64,
}

/// Per-cycle shared functional-unit port budget (across all threads).
#[derive(Default)]
struct Ports {
    alu: usize,
    mul: usize,
    div: usize,
    load: usize,
    store: usize,
    branch: usize,
}

/// One hardware thread of the reference machine: ROB, rename state,
/// front end and per-run counters — the scan-based mirror of the
/// event-driven core's `ThreadCtx`.
struct RefThread {
    rob: VecDeque<RobEntry>,
    fetch_q: VecDeque<FetchedInstr>,
    arch_regs: Vec<u64>,
    rat: Vec<Option<Seq>>,
    checkpoints: HashMap<Seq, Vec<Option<Seq>>>,
    next_seq: Seq,

    fetch_pc: usize,
    fetch_stopped: bool,
    fence_active: Option<Seq>,
    draining: bool,
    done: bool,
    end_cycle: u64,
    limit_hit: bool,

    // Results under construction.
    committed: u64,
    mispredicts: u64,
    squashed: u64,
    interrupts: u64,
    halted: bool,
    loads: Vec<LoadEvent>,
    trace: Vec<crate::trace::TraceRecord>,
}

impl RefThread {
    fn new(rob_capacity: usize) -> Self {
        RefThread {
            rob: VecDeque::with_capacity(rob_capacity),
            fetch_q: VecDeque::new(),
            arch_regs: vec![0; NUM_REGS],
            rat: vec![None; NUM_REGS],
            checkpoints: HashMap::new(),
            next_seq: 0,
            fetch_pc: 0,
            fetch_stopped: false,
            fence_active: None,
            draining: false,
            done: false,
            end_cycle: 0,
            limit_hit: false,
            committed: 0,
            mispredicts: 0,
            squashed: 0,
            interrupts: 0,
            halted: false,
            loads: Vec::new(),
            trace: Vec::new(),
        }
    }
}

/// Per-run pipeline state for the reference (scan-based) scheduler.
pub(crate) struct RefPipeline<'a> {
    cfg: CpuConfig,
    hier: &'a mut Hierarchy,
    mem: &'a mut DataMemory,
    /// One predictor per hardware thread (same partitioning as the
    /// event-driven core).
    predictors: &'a mut [Predictor],
    /// One program per thread. Rename reads source lists and destinations
    /// from each program's µop table ([`Program::decoded`]); *execution*
    /// deliberately stays on [`Instr`] so the differential suite
    /// cross-checks the decoder against the original instruction forms.
    progs: &'a [&'a Program],
    threads: Vec<RefThread>,

    cycle: u64,
    /// Per-divider-unit next-free cycle (non-fully-pipelined units),
    /// shared across threads.
    div_busy_until: Vec<u64>,
    /// Outstanding L1 miss lines → data-arrival cycle (MSHR model),
    /// shared across threads.
    inflight: HashMap<u64, u64>,
}

impl<'a> RefPipeline<'a> {
    pub(crate) fn new(
        cfg: CpuConfig,
        hier: &'a mut Hierarchy,
        mem: &'a mut DataMemory,
        predictors: &'a mut [Predictor],
        progs: &'a [&'a Program],
    ) -> Self {
        assert_eq!(
            predictors.len(),
            progs.len(),
            "one predictor per co-scheduled program"
        );
        RefPipeline {
            cfg,
            hier,
            mem,
            predictors,
            threads: progs.iter().map(|_| RefThread::new(cfg.rob_size)).collect(),
            progs,
            cycle: 0,
            div_busy_until: vec![0; cfg.div_ports],
            inflight: HashMap::new(),
        }
    }

    fn finish_thread(&mut self, tid: usize, limit_hit: bool) {
        let t = &mut self.threads[tid];
        t.done = true;
        t.end_cycle = self.cycle;
        t.limit_hit = limit_hit;
    }

    pub(crate) fn run(mut self) -> Vec<RunResult> {
        let stats_before = self.hier.stats();
        let n = self.progs.len();
        let mut occupancy = vec![0usize; n];
        let mut order = vec![0usize; n];
        loop {
            for tid in 0..n {
                if !self.threads[tid].done {
                    self.writeback(tid);
                }
            }
            for tid in 0..n {
                if self.threads[tid].done {
                    continue;
                }
                self.commit(tid);
                if self.threads[tid].halted {
                    self.finish_thread(tid, false);
                }
            }
            // Issue: shared bandwidth/ports, arbitration-ordered — the
            // exact mirror of the event-driven driver.
            let mut ports = Ports::default();
            let mut issued = 0usize;
            if n == 1 {
                if !self.threads[0].done {
                    self.issue(0, &mut ports, &mut issued);
                }
            } else {
                for (occ, t) in occupancy.iter_mut().zip(&self.threads) {
                    *occ = t.rob.len();
                }
                self.cfg
                    .smt_policy
                    .order(self.cycle, &occupancy, &mut order);
                for &tid in &order {
                    if !self.threads[tid].done {
                        self.issue(tid, &mut ports, &mut issued);
                    }
                }
            }
            for tid in 0..n {
                if !self.threads[tid].done {
                    self.dispatch(tid);
                }
            }
            for tid in 0..n {
                if !self.threads[tid].done {
                    self.fetch(tid);
                }
            }
            for tid in 0..n {
                if !self.threads[tid].done && self.finished(tid) {
                    self.finish_thread(tid, false);
                }
            }
            if self.threads.iter().all(|t| t.done) {
                break;
            }
            self.cycle += 1;
            for tid in 0..n {
                let t = &mut self.threads[tid];
                if t.done {
                    continue;
                }
                if let Some(interval) = self.cfg.interrupt_interval {
                    if self.cycle.is_multiple_of(interval) && !t.draining {
                        t.draining = true;
                        t.interrupts += 1;
                    }
                }
                if t.draining && t.rob.is_empty() {
                    t.draining = false;
                }
            }
            if self.cycle >= self.cfg.max_run_cycles {
                for tid in 0..n {
                    if !self.threads[tid].done {
                        self.finish_thread(tid, true);
                    }
                }
                break;
            }
        }
        let mem_stats = self.hier.stats().since(&stats_before);
        self.threads
            .iter_mut()
            .map(|t| RunResult {
                cycles: t.end_cycle,
                committed: t.committed,
                halted: t.halted,
                limit_hit: t.limit_hit,
                mispredicts: t.mispredicts,
                squashed_instrs: t.squashed,
                interrupts: t.interrupts,
                fast_forwarded: 0,
                regs: std::mem::take(&mut t.arch_regs),
                mem_stats,
                loads: std::mem::take(&mut t.loads),
                trace: std::mem::take(&mut t.trace),
            })
            .collect()
    }

    /// With ROB and fetch queue empty and fetch stopped (or the program
    /// exhausted), nothing can restart the machine: a stopped fetch either
    /// means the program fell off its end (a committed `halt` would have set
    /// `halted` instead), or a wrong-path `halt` was fetched — and the
    /// mispredicted branch that caused it must already have resolved and
    /// redirected fetch, since the ROB has drained.
    fn finished(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        t.rob.is_empty()
            && t.fetch_q.is_empty()
            && (t.fetch_stopped || t.fetch_pc >= self.progs[tid].len())
            && !t.halted
    }

    // ---- helpers -----------------------------------------------------------

    fn entry_index(&self, tid: usize, seq: Seq) -> Option<usize> {
        // Sequence numbers are strictly increasing along the ROB but not
        // contiguous (squashes leave gaps), so search rather than offset.
        self.threads[tid]
            .rob
            .binary_search_by_key(&seq, |e| e.seq)
            .ok()
    }

    fn src_value(entry: &RobEntry, reg: Reg) -> u64 {
        for (r, s) in &entry.srcs {
            if *r == reg {
                match s {
                    Src::Ready(v) => return *v,
                    Src::Tag(_) => panic!("source {reg} read before ready"),
                }
            }
        }
        panic!("register {reg} is not a source of {:?}", entry.instr)
    }

    fn operand_value(entry: &RobEntry, op: racer_isa::Operand) -> u64 {
        match op {
            racer_isa::Operand::Reg(r) => Self::src_value(entry, r),
            racer_isa::Operand::Imm(v) => v as u64,
        }
    }

    fn mem_operand_addr(entry: &RobEntry, m: &MemOperand) -> u64 {
        let base = m.base.map_or(0, |r| Self::src_value(entry, r));
        let index = m.index.map_or(0, |r| Self::src_value(entry, r));
        base.wrapping_add(index.wrapping_mul(m.scale as u64))
            .wrapping_add(m.disp as u64)
    }

    /// Resolve any tags whose producers are now done.
    fn refresh_srcs(&mut self, tid: usize, idx: usize) {
        let entry = &self.threads[tid].rob[idx];
        let mut updates: Vec<(usize, u64)> = Vec::new();
        for (i, (_, s)) in entry.srcs.iter().enumerate() {
            if let Src::Tag(seq) = s {
                if let Some(pidx) = self.entry_index(tid, *seq) {
                    let p = &self.threads[tid].rob[pidx];
                    if p.state == EntryState::Done {
                        updates.push((i, p.result));
                    }
                } else {
                    // Producer committed; its broadcast should have resolved
                    // this tag already.
                    unreachable!("dangling source tag {seq}");
                }
            }
        }
        let entry = &mut self.threads[tid].rob[idx];
        for (i, v) in updates {
            entry.srcs[i].1 = Src::Ready(v);
        }
    }

    fn srcs_ready(entry: &RobEntry) -> bool {
        entry.srcs.iter().all(|(_, s)| matches!(s, Src::Ready(_)))
    }

    /// Does an unresolved older branch exist (is `idx` speculative)?
    fn is_speculative(&self, tid: usize, idx: usize) -> bool {
        self.threads[tid]
            .rob
            .iter()
            .take(idx)
            .any(|e| matches!(e.instr, Instr::Branch { .. }) && e.state != EntryState::Done)
    }

    /// Is any divider unit free this cycle?
    fn div_unit_free(&self) -> bool {
        self.div_busy_until.iter().any(|&b| b <= self.cycle)
    }

    /// Claim a free divider unit for the reciprocal interval (caller
    /// checked [`RefPipeline::div_unit_free`]).
    fn claim_div_unit(&mut self) {
        let now = self.cycle;
        let unit = self
            .div_busy_until
            .iter()
            .position(|&b| b <= now)
            .expect("div_unit_free checked before claiming");
        self.div_busy_until[unit] = now + self.cfg.latencies.div_recip;
    }

    // ---- pipeline stages ----------------------------------------------------

    /// Completions and branch resolution.
    fn writeback(&mut self, tid: usize) {
        // Collect completions first (avoid borrowing issues), oldest first so
        // the oldest mispredicted branch wins the squash.
        let mut done: Vec<usize> = Vec::new();
        for (i, e) in self.threads[tid].rob.iter().enumerate() {
            if e.state == EntryState::Issued && e.completion <= self.cycle {
                done.push(i);
            }
        }
        for &i in &done {
            let t = &mut self.threads[tid];
            t.rob[i].state = EntryState::Done;
            if let Some(ti) = t.rob[i].trace_idx {
                t.trace[ti].completed = Some(t.rob[i].completion);
            }
        }
        // Resolve branches oldest-first; a squash may invalidate later ones.
        loop {
            let mut resolved_any = false;
            for i in 0..self.threads[tid].rob.len() {
                let e = &self.threads[tid].rob[i];
                if e.state == EntryState::Done {
                    if let Instr::Branch { .. } = e.instr {
                        if self.threads[tid].checkpoints.contains_key(&e.seq) {
                            let seq = e.seq;
                            let taken = e.result != 0;
                            let predicted = e.predicted_taken;
                            let pc = e.pc;
                            self.predictors[tid].train(pc, taken);
                            let checkpoint = self.threads[tid]
                                .checkpoints
                                .remove(&seq)
                                .expect("checkpoint present for unresolved branch");
                            if taken != predicted {
                                self.mispredict(tid, i, seq, taken, checkpoint);
                                resolved_any = true;
                                break; // rob changed; rescan
                            }
                        }
                    }
                }
            }
            if !resolved_any {
                break;
            }
        }
    }

    fn mispredict(
        &mut self,
        tid: usize,
        idx: usize,
        seq: Seq,
        taken: bool,
        checkpoint: Vec<Option<Seq>>,
    ) {
        self.threads[tid].mispredicts += 1;
        // Squash everything younger than the branch.
        while self.threads[tid].rob.len() > idx + 1 {
            let t = &mut self.threads[tid];
            let victim = t.rob.pop_back().expect("rob non-empty");
            t.checkpoints.remove(&victim.seq);
            if let Some(li) = victim.load_event {
                // Leave the event recorded; `committed` stays false.
                assert!(!t.loads[li].committed, "squashed load marked committed");
            }
            // CleanupSpec: undo the squashed load's cache fill. The *state*
            // is repaired — but any timing difference it caused has already
            // been consumed by older instructions (SpectreBack's point).
            if self.cfg.countermeasure == Countermeasure::CleanupSpec {
                if let Instr::Load { .. } = victim.instr {
                    if victim.state != EntryState::Waiting {
                        if let Some(addr) = victim.mem_addr {
                            self.hier.flush(Addr(addr));
                        }
                    }
                }
            }
            self.threads[tid].squashed += 1;
        }
        let t = &mut self.threads[tid];
        t.rat = checkpoint;
        // Redirect fetch down the correct path.
        let target = match t.rob[idx].instr {
            Instr::Branch { target, .. } => {
                if taken {
                    target
                } else {
                    t.rob[idx].pc + 1
                }
            }
            _ => unreachable!("mispredict on non-branch"),
        };
        t.fetch_q.clear();
        t.fetch_pc = target;
        t.fetch_stopped = target >= self.progs[tid].len();
        // A squashed fence no longer blocks dispatch.
        if let Some(fseq) = t.fence_active {
            if fseq > seq {
                t.fence_active = None;
            }
        }
    }

    /// In-order retirement.
    fn commit(&mut self, tid: usize) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.threads[tid].rob.front() else {
                break;
            };
            if head.state != EntryState::Done {
                break;
            }
            let t = &mut self.threads[tid];
            let entry = t.rob.pop_front().expect("head exists");
            t.committed += 1;
            if let Some(ti) = entry.trace_idx {
                t.trace[ti].committed = Some(self.cycle);
            }
            // Architectural register update + RAT release.
            if let Some(dst) = self.progs[tid].decoded()[entry.pc].dst {
                t.arch_regs[dst.index()] = entry.result;
                if t.rat[dst.index()] == Some(entry.seq) {
                    t.rat[dst.index()] = None;
                }
            }
            // Broadcast the result to any consumers still holding the tag.
            for e in t.rob.iter_mut() {
                for (_, s) in e.srcs.iter_mut() {
                    if let Src::Tag(tag) = s {
                        if *tag == entry.seq {
                            *s = Src::Ready(entry.result);
                        }
                    }
                }
            }
            match entry.instr {
                Instr::Store { .. } => {
                    let addr = entry.mem_addr.expect("store address resolved at issue");
                    self.mem.write(addr, entry.result);
                    self.hier.access(Addr(addr), AccessKind::Store);
                }
                Instr::Load { .. } if entry.deferred_fill => {
                    // Invisible-speculation modes: apply the fill now.
                    let addr = entry.mem_addr.expect("load address resolved at issue");
                    self.hier.access(Addr(addr), AccessKind::Load);
                }
                Instr::Fence => {
                    self.threads[tid].fence_active = None;
                }
                Instr::Halt => {
                    self.threads[tid].halted = true;
                    return;
                }
                _ => {}
            }
            if let Some(li) = entry.load_event {
                self.threads[tid].loads[li].committed = true;
            }
        }
    }

    /// Data-driven issue to functional units. `ports` and `issued` are the
    /// per-cycle structural budgets shared across all hardware threads.
    fn issue(&mut self, tid: usize, ports: &mut Ports, issued: &mut usize) {
        for idx in 0..self.threads[tid].rob.len() {
            if *issued >= self.cfg.issue_width {
                break;
            }
            if self.threads[tid].rob[idx].state != EntryState::Waiting {
                continue;
            }
            self.refresh_srcs(tid, idx);
            let ready = Self::srcs_ready(&self.threads[tid].rob[idx]);
            if self.cfg.countermeasure == Countermeasure::InOrder {
                // Strict in-order issue: the oldest unissued instruction
                // must go first; if it cannot, nothing younger may.
                if !ready || !self.try_issue(tid, idx, ports) {
                    break;
                }
                self.mark_issued(tid, idx);
                *issued += 1;
                continue;
            }
            if !ready {
                continue;
            }
            if self.try_issue(tid, idx, ports) {
                self.mark_issued(tid, idx);
                *issued += 1;
            }
        }
    }

    /// Record the issue timestamp of a just-issued entry, if tracing.
    fn mark_issued(&mut self, tid: usize, idx: usize) {
        let t = &mut self.threads[tid];
        if let Some(ti) = t.rob[idx].trace_idx {
            t.trace[ti].issued = Some(self.cycle);
        }
    }

    /// Attempt to issue the entry at `idx`; returns success.
    fn try_issue(&mut self, tid: usize, idx: usize, ports: &mut Ports) -> bool {
        let fu = self.threads[tid].rob[idx].instr.fu_class();
        let lat = self.cfg.latencies;
        match fu {
            FuClass::Alu => {
                if ports.alu >= self.cfg.alu_ports {
                    return false;
                }
                ports.alu += 1;
            }
            FuClass::Mul => {
                if ports.mul >= self.cfg.mul_ports {
                    return false;
                }
                ports.mul += 1;
            }
            FuClass::Div => {
                if ports.div >= self.cfg.div_ports || !self.div_unit_free() {
                    return false;
                }
                ports.div += 1;
            }
            FuClass::Load => {
                if ports.load >= self.cfg.load_ports {
                    return false;
                }
                // Port is charged only if the load actually issues below.
            }
            FuClass::Store => {
                if ports.store >= self.cfg.store_ports {
                    return false;
                }
                ports.store += 1;
            }
            FuClass::Branch => {
                if ports.branch >= self.cfg.branch_ports {
                    return false;
                }
                ports.branch += 1;
            }
            FuClass::None => {}
        }

        let now = self.cycle;
        match self.threads[tid].rob[idx].instr {
            Instr::Alu { op, a, b, .. } => {
                let av = Self::operand_value(&self.threads[tid].rob[idx], a);
                let bv = Self::operand_value(&self.threads[tid].rob[idx], b);
                let latency = match op {
                    AluOp::Mul => lat.mul,
                    AluOp::Div => {
                        self.claim_div_unit();
                        lat.div_min + ((av ^ bv) & 1)
                    }
                    _ => lat.alu,
                };
                let e = &mut self.threads[tid].rob[idx];
                e.result = op.eval(av, bv);
                e.state = EntryState::Issued;
                e.completion = now + latency;
            }
            Instr::Lea { mem, .. } => {
                let addr = Self::mem_operand_addr(&self.threads[tid].rob[idx], &mem);
                let e = &mut self.threads[tid].rob[idx];
                e.result = addr;
                e.state = EntryState::Issued;
                e.completion = now + lat.alu;
            }
            Instr::Load { mem, .. } => {
                if !self.issue_load(tid, idx, mem, ports) {
                    return false;
                }
            }
            Instr::Store { src, mem } => {
                let addr = Self::mem_operand_addr(&self.threads[tid].rob[idx], &mem);
                let val = Self::operand_value(&self.threads[tid].rob[idx], src);
                let e = &mut self.threads[tid].rob[idx];
                e.mem_addr = Some(addr);
                e.result = val;
                e.state = EntryState::Issued;
                e.completion = now + lat.store;
            }
            Instr::Prefetch { mem, nta } => {
                let addr = Self::mem_operand_addr(&self.threads[tid].rob[idx], &mem);
                let kind = if nta {
                    AccessKind::PrefetchNta
                } else {
                    AccessKind::Prefetch
                };
                self.hier.access(Addr(addr), kind);
                ports.load += 1;
                let e = &mut self.threads[tid].rob[idx];
                e.mem_addr = Some(addr);
                e.state = EntryState::Issued;
                e.completion = now + 1;
            }
            Instr::Flush { mem } => {
                let addr = Self::mem_operand_addr(&self.threads[tid].rob[idx], &mem);
                self.hier.flush(Addr(addr));
                ports.load += 1;
                let e = &mut self.threads[tid].rob[idx];
                e.mem_addr = Some(addr);
                e.state = EntryState::Issued;
                e.completion = now + 1;
            }
            Instr::Branch { cond, a, b, .. } => {
                let av = Self::src_value(&self.threads[tid].rob[idx], a);
                let bv = Self::operand_value(&self.threads[tid].rob[idx], b);
                let e = &mut self.threads[tid].rob[idx];
                e.result = u64::from(cond.eval(av, bv));
                e.state = EntryState::Issued;
                e.completion = now + lat.branch;
            }
            Instr::Jump { .. } | Instr::Nop | Instr::Fence | Instr::Halt => {
                let e = &mut self.threads[tid].rob[idx];
                e.state = EntryState::Issued;
                e.completion = now;
            }
        }
        true
    }

    /// Issue a load, honouring store ordering, MSHRs and countermeasures.
    /// Returns false if the load must retry later.
    fn issue_load(
        &mut self,
        tid: usize,
        idx: usize,
        mem_op: MemOperand,
        ports: &mut Ports,
    ) -> bool {
        let addr = Self::mem_operand_addr(&self.threads[tid].rob[idx], &mem_op);
        // Conservative memory disambiguation: an older in-flight store with
        // an unknown address, or a known address matching this word, blocks
        // the load until the store commits. Stores are a same-thread
        // affair: threads share no memory-ordering model.
        for older in self.threads[tid].rob.iter().take(idx) {
            if let Instr::Store { .. } = older.instr {
                match older.mem_addr {
                    None => return false,
                    Some(saddr) if saddr == addr => return false,
                    _ => {}
                }
            }
        }

        let speculative = self.is_speculative(tid, idx);
        let now = self.cycle;
        let line = Addr(addr).line().0;

        // Prune arrived fills.
        self.inflight.retain(|_, &mut done| done > now);

        let cm = self.cfg.countermeasure;
        let shield = match cm {
            Countermeasure::InvisibleSpec | Countermeasure::GhostMinion => speculative,
            _ => false,
        };
        // Single stateless L1 lookup; the hit path reuses the way instead
        // of re-scanning the tags (mirrors the event-driven scheduler).
        let l1_way = self.hier.lookup_l1(Addr(addr));
        if cm == Countermeasure::DelayOnMiss
            && speculative
            && l1_way.is_none()
            && !self.inflight.contains_key(&line)
        {
            // Speculative L1 miss: delay until non-speculative.
            return false;
        }

        let (latency, level) = if let Some(&done) = self.inflight.get(&line) {
            // Merge into the outstanding miss (MSHR hit) — possibly one
            // another hardware thread started.
            (
                done.saturating_sub(now).max(self.cfg.latencies.alu),
                HitLevel::L2,
            )
        } else if shield {
            // Invisible speculation: timing only, no state change.
            (
                self.hier.peek_latency(Addr(addr)),
                self.hier.probe(Addr(addr)),
            )
        } else {
            // Normal path: check MSHR capacity for misses.
            if l1_way.is_none() && self.inflight.len() >= self.cfg.mshrs {
                return false;
            }
            let out = match l1_way {
                Some(way) => self.hier.access_l1_hit(Addr(addr), way),
                None => self.hier.access_l1_miss(Addr(addr), AccessKind::Load),
            };
            if out.level != HitLevel::L1 {
                self.inflight.insert(line, now + out.latency);
            }
            (out.latency, out.level)
        };

        ports.load += 1;
        let value = self.mem.read(addr);
        let record = self.cfg.record.loads();
        let t = &mut self.threads[tid];
        let e = &mut t.rob[idx];
        e.mem_addr = Some(addr);
        e.result = value;
        e.state = EntryState::Issued;
        e.completion = now + latency;
        e.deferred_fill = shield;
        if record {
            let ev = LoadEvent {
                pc: e.pc,
                seq: e.seq,
                addr,
                issue_cycle: now,
                complete_cycle: now + latency,
                level,
                speculative,
                committed: false,
            };
            e.load_event = Some(t.loads.len());
            t.loads.push(ev);
        }
        true
    }

    /// Rename and dispatch from the fetch queue into the ROB.
    fn dispatch(&mut self, tid: usize) {
        if self.threads[tid].draining {
            return;
        }
        for _ in 0..self.cfg.dispatch_width {
            let t = &self.threads[tid];
            if t.fence_active.is_some() {
                break;
            }
            if t.rob.len() >= self.cfg.rob_size {
                break;
            }
            let waiting = t
                .rob
                .iter()
                .filter(|e| e.state == EntryState::Waiting)
                .count();
            if waiting >= self.cfg.rs_size {
                break;
            }
            let Some(front) = t.fetch_q.front() else {
                break;
            };
            if front.ready_cycle > self.cycle {
                break;
            }
            let t = &mut self.threads[tid];
            let fetched = t.fetch_q.pop_front().expect("front exists");
            let seq = t.next_seq;
            t.next_seq += 1;

            let d = &self.progs[tid].decoded()[fetched.pc];
            let srcs: Vec<(Reg, Src)> = d.srcs[..d.nsrcs as usize]
                .iter()
                .map(|&r| {
                    let s = match t.rat[r.index()] {
                        None => Src::Ready(t.arch_regs[r.index()]),
                        Some(pseq) => match t.rob.binary_search_by_key(&pseq, |e| e.seq).ok() {
                            Some(pidx) if t.rob[pidx].state == EntryState::Done => {
                                Src::Ready(t.rob[pidx].result)
                            }
                            Some(_) => Src::Tag(pseq),
                            None => Src::Ready(t.arch_regs[r.index()]),
                        },
                    };
                    (r, s)
                })
                .collect();

            if let Instr::Branch { .. } = fetched.instr {
                let rat = t.rat.clone();
                t.checkpoints.insert(seq, rat);
            }
            if let Some(dst) = self.progs[tid].decoded()[fetched.pc].dst {
                t.rat[dst.index()] = Some(seq);
            }
            if let Instr::Fence = fetched.instr {
                t.fence_active = Some(seq);
            }

            let trace_idx = if self.cfg.record.trace() {
                let fetched_cycle = fetched.ready_cycle.saturating_sub(self.cfg.front_end_depth);
                let mut rec =
                    crate::trace::TraceRecord::new(seq, fetched.pc, fetched.instr, fetched_cycle);
                rec.dispatched = self.cycle;
                t.trace.push(rec);
                Some(t.trace.len() - 1)
            } else {
                None
            };

            t.rob.push_back(RobEntry {
                seq,
                pc: fetched.pc,
                instr: fetched.instr,
                state: EntryState::Waiting,
                srcs,
                result: 0,
                completion: 0,
                predicted_taken: fetched.predicted_taken,
                mem_addr: None,
                deferred_fill: false,
                load_event: None,
                trace_idx,
            });
        }
    }

    /// Predicted instruction fetch.
    fn fetch(&mut self, tid: usize) {
        if self.threads[tid].draining || self.threads[tid].fetch_stopped {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            let t = &mut self.threads[tid];
            if t.fetch_pc >= self.progs[tid].len() {
                t.fetch_stopped = true;
                break;
            }
            if t.fetch_q.len() >= self.cfg.rob_size {
                break;
            }
            let pc = t.fetch_pc;
            let instr = *self.progs[tid].get(pc).expect("pc in range");
            let mut predicted_taken = false;
            let mut next = pc + 1;
            match instr {
                Instr::Branch { target, .. } => {
                    predicted_taken = self.predictors[tid].predict(pc);
                    if predicted_taken {
                        next = target;
                    }
                }
                Instr::Jump { target } => {
                    predicted_taken = true;
                    next = target;
                }
                Instr::Halt => {
                    self.threads[tid].fetch_stopped = true;
                }
                _ => {}
            }
            let t = &mut self.threads[tid];
            t.fetch_q.push_back(FetchedInstr {
                pc,
                instr,
                predicted_taken,
                ready_cycle: self.cycle + self.cfg.front_end_depth,
            });
            if t.fetch_stopped {
                break;
            }
            t.fetch_pc = next;
        }
    }
}
