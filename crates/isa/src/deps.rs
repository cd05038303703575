//! Register dataflow analysis over straight-line code.
//!
//! The paper's §4 defines a **chain** as a sequence of instructions linked by
//! data dependence ("no two instructions within each chain can execute
//! simultaneously or out-of-order") and a **path** as a set of chains with no
//! external data dependence, eligible to execute in parallel with other
//! paths. Both are properties of the read-after-write (RAW) graph computed
//! here.
//!
//! The analysis is intentionally restricted to straight-line code (no
//! control flow): gadget bodies are straight-line by construction, and their
//! surrounding training loops are handled by the gadget generators
//! themselves.

use crate::instr::Instr;
use crate::program::Program;
use crate::reg::NUM_REGS;

/// RAW producers for each instruction of `prog`, by index.
///
/// `producers[i]` lists, for each register source of instruction `i`, the
/// index of the most recent earlier instruction writing that register (if
/// any). Control-flow instructions participate through their register
/// sources; their targets are ignored.
///
/// ```
/// use racer_isa::{Asm, deps};
/// let mut asm = Asm::new();
/// let (a, b) = (asm.reg(), asm.reg());
/// asm.mov_imm(a, 1);      // 0
/// asm.addi(b, a, 2);      // 1: reads a → produced by 0
/// asm.add(a, a, b);       // 2: reads a (0) and b (1)
/// asm.halt();
/// let p = asm.assemble().unwrap();
/// let deps = deps::raw_producers(&p);
/// assert_eq!(deps[1], vec![0]);
/// assert_eq!(deps[2], vec![0, 1]);
/// ```
pub fn raw_producers(prog: &Program) -> Vec<Vec<usize>> {
    let mut last_writer: Vec<Option<usize>> = vec![None; NUM_REGS];
    let mut out = Vec::with_capacity(prog.len());
    for (i, instr) in prog.iter().enumerate() {
        let mut prods: Vec<usize> = instr
            .srcs()
            .into_iter()
            .filter_map(|r| last_writer[r.index()])
            .collect();
        prods.sort_unstable();
        prods.dedup();
        out.push(prods);
        if let Some(d) = instr.dst() {
            last_writer[d.index()] = Some(i);
        }
    }
    out
}

/// Whether instruction ranges `a` and `b` of `prog` are data-independent:
/// no instruction in either range reads a register written in the other,
/// and they write disjoint registers.
///
/// This is the §5 racing-gadget requirement (d): *"No instruction in
/// `pathb()` can have a data dependency on any instruction in
/// `pathm(Exprt,1)`, and vice versa."*
pub fn ranges_independent(
    prog: &Program,
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
) -> bool {
    let writes = |range: &std::ops::Range<usize>| -> Vec<bool> {
        let mut w = vec![false; NUM_REGS];
        for i in range.clone() {
            if let Some(d) = prog[i].dst() {
                w[d.index()] = true;
            }
        }
        w
    };
    let reads = |range: &std::ops::Range<usize>| -> Vec<bool> {
        let mut r = vec![false; NUM_REGS];
        for i in range.clone() {
            for s in prog[i].srcs() {
                r[s.index()] = true;
            }
        }
        r
    };
    let (wa, ra) = (writes(&a), reads(&a));
    let (wb, rb) = (writes(&b), reads(&b));
    for i in 0..NUM_REGS {
        // RAW / WAR across ranges, or WAW on the same register.
        if (wa[i] && (rb[i] || wb[i])) || (wb[i] && ra[i]) {
            return false;
        }
    }
    true
}

/// Critical-path length of the instruction range `range`, where each
/// instruction `i` costs `latency(instr)` and starts only after all its RAW
/// producers inside the range have finished.
///
/// This is the idealized (infinite-width) execution time of a path — the
/// quantity the paper's racing gadgets compare between `path_m` and
/// `path_b`.
pub fn critical_path_length(
    prog: &Program,
    range: std::ops::Range<usize>,
    mut latency: impl FnMut(&Instr) -> u64,
) -> u64 {
    let producers = raw_producers(prog);
    let mut finish = vec![0u64; prog.len()];
    let mut max = 0;
    for i in range.clone() {
        let ready = producers[i]
            .iter()
            .filter(|&&p| range.contains(&p))
            .map(|&p| finish[p])
            .max()
            .unwrap_or(0);
        finish[i] = ready + latency(&prog[i]);
        max = max.max(finish[i]);
    }
    max
}

/// Decompose the instruction range into its *chains*: weakly-connected
/// components of the RAW graph restricted to the range. Returns, for each
/// chain, the sorted instruction indices belonging to it.
///
/// Instructions with no dependencies in the range (and no dependents) each
/// form a singleton chain.
pub fn chains(prog: &Program, range: std::ops::Range<usize>) -> Vec<Vec<usize>> {
    let producers = raw_producers(prog);
    // Union-find over the indices in `range`.
    let idx_of = |i: usize| i - range.start;
    let n = range.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in range.clone() {
        for &p in &producers[i] {
            if range.contains(&p) {
                let (a, b) = (find(&mut parent, idx_of(i)), find(&mut parent, idx_of(p)));
                parent[a] = b;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in range.clone() {
        let root = find(&mut parent, idx_of(i));
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::{AluOp, MemOperand};

    /// Build the paper's Code Listing 1: two interleaved pointer-chase
    /// chains that share only the head load.
    fn listing1() -> (Program, usize) {
        let mut asm = Asm::new();
        let a = asm.reg();
        let regs = asm.regs(8); // B..I
        let base_a = asm.reg();
        let base_b = asm.reg();
        asm.mov_imm(base_a, 0x1000); // setup (not part of the paths)
        asm.mov_imm(base_b, 0x2000);
        let body = asm.position();
        asm.load(a, MemOperand::abs(0)); // var A = array[0]
                                         // path A: B, D, F, H — even indices; path B: C, E, G, I — odd.
        let mut prev_a = a;
        let mut prev_b = a;
        for i in 0..4 {
            asm.load(regs[2 * i], MemOperand::base_index(base_a, prev_a, 8, 0));
            asm.load(
                regs[2 * i + 1],
                MemOperand::base_index(base_b, prev_b, 8, 0),
            );
            prev_a = regs[2 * i];
            prev_b = regs[2 * i + 1];
        }
        asm.halt();
        (asm.assemble().unwrap(), body)
    }

    #[test]
    fn listing1_paths_are_independent() {
        let (p, body) = listing1();
        // Instructions body+1 .. body+9 alternate path A / path B.
        let path_a: Vec<usize> = (0..4).map(|i| body + 1 + 2 * i).collect();
        let path_b: Vec<usize> = (0..4).map(|i| body + 2 + 2 * i).collect();
        let prods = raw_producers(&p);
        // Each path-A load depends only on the previous path-A load (or the
        // shared head), never on path B.
        for (k, &i) in path_a.iter().enumerate() {
            for &d in &prods[i] {
                if k == 0 {
                    assert!(d <= body);
                } else {
                    assert!(d == path_a[k - 1] || d < body);
                }
                assert!(!path_b.contains(&d), "path A must not depend on path B");
            }
        }
        for (k, &i) in path_b.iter().enumerate() {
            for &d in &prods[i] {
                assert!(!path_a.contains(&d), "path B must not depend on path A");
                if k > 0 {
                    assert!(d == path_b[k - 1] || d <= body);
                }
            }
        }
    }

    #[test]
    fn interleaved_chains_found_by_union_find() {
        let (p, body) = listing1();
        // Excluding the shared head, the 8 loads form exactly 2 chains.
        let cs = chains(&p, body + 1..body + 9);
        assert_eq!(cs.len(), 2, "expected two independent chains, got {cs:?}");
        assert_eq!(cs[0].len(), 4);
        assert_eq!(cs[1].len(), 4);
    }

    #[test]
    fn ranges_independent_detects_sharing() {
        let mut asm = Asm::new();
        let (a, b, c) = (asm.reg(), asm.reg(), asm.reg());
        asm.mov_imm(a, 1); // 0
        asm.addi(b, a, 1); // 1
        asm.addi(c, a, 2); // 2  (independent of 1)
        asm.add(c, c, b); // 3  (depends on both)
        asm.halt();
        let p = asm.assemble().unwrap();
        assert!(ranges_independent(&p, 1..2, 2..3));
        assert!(
            !ranges_independent(&p, 1..2, 3..4),
            "3 reads b written by 1"
        );
        assert!(!ranges_independent(&p, 2..3, 3..4), "WAW/RAW on c");
    }

    #[test]
    fn critical_path_of_chain_is_sum_and_of_parallel_is_max() {
        let mut asm = Asm::new();
        let r = asm.regs(6);
        asm.mov_imm(r[0], 1); // 0
                              // Chain of three adds: 1,2,3.
        asm.addi(r[1], r[0], 1);
        asm.addi(r[2], r[1], 1);
        asm.addi(r[3], r[2], 1);
        // Parallel pair (both depend only on 0): 4,5.
        asm.addi(r[4], r[0], 1);
        asm.addi(r[5], r[0], 1);
        asm.halt();
        let p = asm.assemble().unwrap();
        let lat = |i: &Instr| match i {
            Instr::Alu { op: AluOp::Add, .. } => 1,
            _ => 0,
        };
        assert_eq!(critical_path_length(&p, 1..4, lat), 3);
        assert_eq!(critical_path_length(&p, 4..6, lat), 1);
    }

    #[test]
    fn producers_ignore_unwritten_sources() {
        let mut asm = Asm::new();
        let (a, b) = (asm.reg(), asm.reg());
        asm.add(b, a, a); // a never written: no producers
        asm.halt();
        let p = asm.assemble().unwrap();
        assert!(raw_producers(&p)[0].is_empty());
    }
}
