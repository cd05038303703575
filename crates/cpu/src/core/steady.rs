//! Steady-state fast-forward through a program's repeated region.
//!
//! A magnifier (paper §6) repeats one straight-line body thousands of
//! times, and the machine settles into a periodic state: every round, or
//! every `p` rounds, the pipeline and the caches return to the same state
//! *relative to* the current cycle, the next sequence number and the
//! round's first pc. Once two region boundaries `p` rounds apart match, the
//! single-thread loop advances cycles, sequence numbers, pcs, committed
//! instructions and the cache counters by whole periods, then simulates the
//! remaining rounds normally.
//!
//! **Why it is exact.** The scheduler is deterministic, and with the
//! boundary state equal its evolution over the next period is the same,
//! shifted — provided nothing in that period depends on absolute time or on
//! code outside the body. The detector checks each such dependency:
//!
//! * every in-flight, queued and next-to-fetch pc lies inside the region,
//!   and a jump never carries fetch past the region end, so every
//!   instruction fetched in a period is a body instruction (no branch, so
//!   the predictor is untouched; no store, so data memory is untouched);
//! * no `interrupt_interval` multiple falls inside the observed period or
//!   the jump, and the jump stays below `max_run_cycles`;
//! * the stall pool's periodic fallback drain (`cycle % 64`) either never
//!   fires (no load parked during the period, so the pool stays empty) or
//!   fires in the same phase every period (the period spans a whole number
//!   of 64-cycle strides);
//! * the ROB ring, rename table, ready heaps, completion wheel, stall pool,
//!   queues, registers, divider and MSHR timers are compared in a canonical
//!   relative encoding ([`encode`]), and the hierarchy's tags, replacement
//!   state and jitter generator through [`Hierarchy::same_state`] against
//!   a copy-on-write clone taken at the earlier boundary.
//!
//! Only single-thread runs at [`RecordLevel::Counters`] whose body holds
//! no store are eligible: recorded loads and traces need every event.
//!
//! Probing is cheap and backs off: boundaries are sampled in windows of
//! [`MAX_PERIOD`]` + 1` consecutive rounds, each sample compared against
//! the previous ones in its window (periods of 1 to [`MAX_PERIOD`]
//! rounds); a window that finds no period is followed by a gap that
//! doubles, so a lane that never settles (random replacement advances its
//! generators every round) pays O(log rounds) samples.

use super::{Pipeline, Seq, Src, WHEEL};
use crate::config::RecordLevel;
use racer_isa::{Instr, Region};
use racer_mem::{Hierarchy, HierarchyStats};
use std::collections::BinaryHeap;

/// Longest period, in rounds, the detector recognises. Eight covers a FIFO
/// set's way rotation: a traversal that refills `k` ways of an 8-way FIFO
/// set moves every line `k` ways on, so the set returns to the same layout
/// after up to eight traversals (Figure 11's FIFO series repeats every
/// eight).
const MAX_PERIOD: usize = 8;

/// Rounds skipped after the first window that finds no period; doubles
/// after every further one.
const FIRST_GAP: usize = 4;

/// The stall pool's fallback drain fires on multiples of this cycle count
/// (see `Pipeline::issue`).
const DRAIN_STRIDE: u64 = 64;

/// The machine at one region boundary.
struct Sample {
    /// Rounds of the region committed when the boundary was taken.
    round: usize,
    cycle: u64,
    next_seq: Seq,
    committed: u64,
    stall_parks: u64,
    /// Canonical relative encoding of the pipeline state ([`encode`]).
    key: Vec<u64>,
    /// Copy-on-write clone of the hierarchy.
    hier: Hierarchy,
    stats: HierarchyStats,
}

/// Per-run steady-state detector for one eligible region.
pub(super) struct Steady {
    region: Region,
    /// First pc of the next round boundary to sample at: the machine has
    /// passed it once every older instruction has committed (`usize::MAX`:
    /// none left).
    watch: usize,
    /// The current window's samples, oldest first.
    window: Vec<Sample>,
    /// Rounds to skip after the current window if it finds no period.
    gap: usize,
}

impl Steady {
    /// A detector for `p`'s run, or `None` if the run cannot fast-forward
    /// (no region, loads or traces recorded, or a store in the body).
    pub(super) fn new(p: &Pipeline<'_>) -> Option<Steady> {
        let region = p.prog.region()?;
        let body = region.start..region.start + region.body_len;
        if p.cfg.record != RecordLevel::Counters
            || p.prog.stored()[body]
                .iter()
                .any(|i| matches!(i, Instr::Store { .. }))
        {
            return None;
        }
        let mut st = Steady {
            region,
            watch: 0,
            window: Vec::with_capacity(MAX_PERIOD + 1),
            gap: FIRST_GAP,
        };
        st.watch(1);
        Some(st)
    }

    /// Sample next once round `round`'s first instruction has committed.
    fn watch(&mut self, round: usize) {
        self.watch = if round < self.region.rounds {
            self.region.start + round * self.region.body_len
        } else {
            usize::MAX
        };
    }

    /// Called at the end of every cycle: once the oldest uncommitted
    /// instruction lies past the watched boundary, sample the machine,
    /// fast-forward if the sample completes a period, and arm the next
    /// watch.
    pub(super) fn end_of_cycle(&mut self, p: &mut Pipeline<'_>) {
        let s = &*p.s;
        let oldest = if s.len > 0 {
            s.slots[s.head].pc
        } else {
            s.fetch_q.front().map_or(s.fetch_pc, |f| f.pc as usize)
        };
        if oldest <= self.watch {
            return;
        }
        // The latest boundary the machine has passed: pcs are encoded
        // relative to it, so samples in the same phase of a round compare
        // equal however many boundaries a cycle crossed.
        let round = (oldest - 1 - self.region.start) / self.region.body_len;
        let base = self.region.start + round * self.region.body_len;
        let Some(key) = encode(p, base, self.region) else {
            // Code outside the body is in flight: nothing can match.
            self.window.clear();
            self.watch(round + 1);
            return;
        };
        let cur = Sample {
            round,
            cycle: p.cycle,
            next_seq: p.s.next_seq,
            committed: p.s.committed,
            stall_parks: p.s.stall_parks,
            key,
            hier: p.hier.clone(),
            stats: p.hier.stats(),
        };
        let view = &*p;
        let matched = self
            .window
            .iter()
            .rev()
            .find(|old| self.repeats(view, old, &cur))
            .map(|old| {
                let per = self.period(old, &cur);
                self.jump_periods(view, &per, &cur).map(|j| (j, per))
            });
        match matched {
            Some(Some((j, per))) => {
                jump(p, &per, j);
                let landed = round + per.rounds * j as usize;
                self.window.clear();
                self.gap = FIRST_GAP;
                self.watch(landed + 1);
            }
            Some(None) => {
                // Periodic, but too close to the region end, the cycle
                // budget or an interrupt to skip a whole period.
                self.window.clear();
                self.watch(round + 1);
            }
            None if self.window.len() == MAX_PERIOD => {
                self.window.clear();
                self.watch(round + self.gap);
                self.gap = self.gap.saturating_mul(2);
            }
            None => {
                self.window.push(cur);
                self.watch(round + 1);
            }
        }
    }

    /// Whether the machine at `cur` is the machine at `old`, shifted, with
    /// nothing in between that depends on absolute time.
    fn repeats(&self, p: &Pipeline<'_>, old: &Sample, cur: &Sample) -> bool {
        let cycles = cur.cycle - old.cycle;
        cycles > 0
            && (cur.stall_parks == old.stall_parks || cycles.is_multiple_of(DRAIN_STRIDE))
            && p.cfg
                .interrupt_interval
                .is_none_or(|i| old.cycle / i == cur.cycle / i)
            && cur.key == old.key
            && cur.hier.same_state(&old.hier)
    }

    /// What one period from `old` to `cur` advances.
    fn period(&self, old: &Sample, cur: &Sample) -> Period {
        let rounds = cur.round - old.round;
        Period {
            rounds,
            pcs: rounds * self.region.body_len,
            cycles: cur.cycle - old.cycle,
            seqs: cur.next_seq - old.next_seq,
            committed: cur.committed - old.committed,
            stats: cur.stats.since(&old.stats),
        }
    }

    /// Whole periods the machine can skip from `cur` without fetching past
    /// the region, reaching the cycle budget or crossing an interrupt
    /// boundary; `None` if not even one.
    fn jump_periods(&self, p: &Pipeline<'_>, per: &Period, cur: &Sample) -> Option<u64> {
        let mut j = ((self.region.end() - p.s.fetch_pc) / per.pcs) as u64;
        let mut horizon = p.cfg.max_run_cycles;
        if let Some(i) = p.cfg.interrupt_interval {
            horizon = horizon.min((cur.cycle / i + 1).saturating_mul(i));
        }
        j = j.min((horizon - 1 - cur.cycle) / per.cycles);
        (j > 0).then_some(j)
    }
}

/// What one period advances.
struct Period {
    rounds: usize,
    /// Logical pcs (`rounds` bodies).
    pcs: usize,
    cycles: u64,
    seqs: u64,
    committed: u64,
    stats: HierarchyStats,
}

/// Advance the machine by `j` periods: shift every absolute cycle,
/// sequence number and pc, and add `j` periods' worth to the counters.
/// Ring positions stay put (the scheduler only ever reads them relative to
/// the ROB head), and the hierarchy's state is the boundary state already.
fn jump(p: &mut Pipeline<'_>, per: &Period, j: u64) {
    let dc = per.cycles * j;
    let ds = per.seqs * j;
    let dpc = per.pcs * j as usize;
    let s = &mut *p.s;
    let shift = |h: &mut (Seq, u32)| h.0 += ds;
    for pos in 0..s.len {
        let slot = s.wrap(s.head + pos);
        let e = &mut s.slots[slot];
        e.seq += ds;
        e.pc += dpc;
        for src in &mut e.srcs[..e.nsrcs as usize] {
            if let Src::Tag(t) = src {
                *t += ds;
            }
        }
        if let Some(h) = &mut e.prev_rat {
            shift(h);
        }
        for c in &mut e.consumers {
            c.0 += ds;
        }
    }
    for heap in s.ready.iter_mut().chain([&mut s.resolve_q]) {
        let mut v = std::mem::take(heap).into_vec();
        for r in &mut v {
            r.0 .0 += ds;
        }
        *heap = BinaryHeap::from(v);
    }
    s.wheel.rotate_right((dc % WHEEL as u64) as usize);
    s.wheel.iter_mut().flatten().for_each(shift);
    for f in &mut s.far {
        f.0 += dc;
        f.1 += ds;
    }
    s.stalled_loads.iter_mut().for_each(shift);
    if s.stall_wake_cycle != u64::MAX {
        s.stall_wake_cycle += dc;
    }
    for f in &mut s.fetch_q {
        f.pc += dpc as u32;
        f.ready_cycle += dc;
    }
    s.rat.iter_mut().flatten().for_each(shift);
    for st in &mut s.store_q {
        st.0 += ds;
    }
    s.spec_branches.iter_mut().for_each(shift);
    if let Some(f) = &mut s.fence_active {
        *f += ds;
    }
    s.next_seq += ds;
    s.fetch_pc += dpc;
    s.committed += per.committed * j;
    s.fast_forwarded += per.rounds as u64 * j;
    for f in &mut p.sh.inflight {
        f.1 += dc;
    }
    for b in &mut p.sh.div_busy_until {
        *b += dc;
    }
    p.hier.advance_stats(&per.stats, j);
    p.cycle += dc;
}

/// Canonical encoding of the pipeline state relative to the current cycle,
/// the next sequence number, the ROB head and the boundary pc `base`: two
/// states with equal encodings evolve identically, shifted. `None` if any
/// in-flight, queued or next-to-fetch pc lies outside the region.
fn encode(p: &Pipeline<'_>, base: usize, region: Region) -> Option<Vec<u64>> {
    let s = &*p.s;
    let now = p.cycle;
    if s.fetch_stopped
        || !region.contains(s.fetch_pc)
        || s.fetch_q.iter().any(|f| !region.contains(f.pc as usize))
        || (0..s.len).any(|pos| !region.contains(s.slots[s.wrap(s.head + pos)].pc))
    {
        return None;
    }
    let mut k = Vec::with_capacity(16 * s.len + 64);
    let rel_time = |t: u64| t.saturating_sub(now);
    let handle = |k: &mut Vec<u64>, (seq, slot): (Seq, u32)| {
        k.push(s.next_seq - seq);
        k.push(s.pos(slot) as u64);
    };
    let opt_handle = |k: &mut Vec<u64>, h: Option<(Seq, u32)>| match h {
        Some(h) => {
            k.push(1);
            handle(k, h);
        }
        None => k.push(0),
    };
    k.extend([
        s.len as u64,
        s.waiting_count as u64,
        s.inorder_skip as u64,
        u64::from(s.ready_mask),
        u64::from(s.stall_wake_now),
        if s.stall_wake_cycle == u64::MAX {
            u64::MAX
        } else {
            rel_time(s.stall_wake_cycle)
        },
        u64::from(s.draining),
        s.fence_active.map_or(0, |f| s.next_seq - f + 1),
        (s.fetch_pc - base) as u64,
    ]);
    for pos in 0..s.len {
        let e = &s.slots[s.wrap(s.head + pos)];
        k.extend([
            s.next_seq - e.seq,
            (e.pc - base) as u64,
            e.state as u64,
            u64::from(e.pending),
            e.result,
            u64::from(e.predicted_taken),
            u64::from(e.mem_addr.is_some()),
            e.mem_addr.unwrap_or(0),
            u64::from(e.deferred_fill),
            u64::from(e.resolved),
        ]);
        for src in &e.srcs[..e.nsrcs as usize] {
            match *src {
                Src::Ready(v) => k.extend([0, v]),
                Src::Tag(t) => k.extend([1, s.next_seq - t]),
            }
        }
        opt_handle(&mut k, e.prev_rat);
        k.push(e.consumers.len() as u64);
        for &(seq, slot, si) in &e.consumers {
            handle(&mut k, (seq, slot));
            k.push(u64::from(si));
        }
    }
    for heap in s.ready.iter().chain([&s.resolve_q]) {
        let mut v: Vec<(Seq, u32)> = heap.iter().map(|r| r.0).collect();
        v.sort_unstable();
        k.push(v.len() as u64);
        for h in v {
            handle(&mut k, h);
        }
    }
    for dt in 0..WHEEL as u64 {
        let bucket = &s.wheel[((now + dt) as usize) & (WHEEL - 1)];
        if !bucket.is_empty() {
            k.extend([dt, bucket.len() as u64]);
            for &h in bucket {
                handle(&mut k, h);
            }
        }
    }
    k.push(u64::MAX);
    k.push(s.far.len() as u64);
    for &(comp, seq, slot) in &s.far {
        k.push(rel_time(comp));
        handle(&mut k, (seq, slot));
    }
    k.push(s.stalled_loads.len() as u64);
    for &h in &s.stalled_loads {
        handle(&mut k, h);
    }
    k.push(s.fetch_q.len() as u64);
    for f in &s.fetch_q {
        k.extend([
            (f.pc as usize - base) as u64,
            u64::from(f.predicted_taken),
            rel_time(f.ready_cycle),
        ]);
    }
    for &r in &s.rat {
        opt_handle(&mut k, r);
    }
    k.extend(s.arch_regs.iter().copied());
    k.push(s.store_q.len() as u64);
    for &(seq, addr) in &s.store_q {
        k.extend([
            s.next_seq - seq,
            u64::from(addr.is_some()),
            addr.unwrap_or(0),
        ]);
    }
    k.push(s.spec_branches.len() as u64);
    for &h in &s.spec_branches {
        handle(&mut k, h);
    }
    // Fills that arrived are dead (pruned before any read next cycle).
    for &(line, done) in p.sh.inflight.iter().filter(|f| f.1 > now) {
        k.extend([line, done - now]);
    }
    k.push(u64::MAX);
    k.extend(p.sh.div_busy_until.iter().map(|&b| rel_time(b)));
    Some(k)
}
