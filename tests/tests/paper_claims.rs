//! The paper's headline claims, each as one executable assertion, at
//! reduced scale (`racer-lab run <scenario>` runs the full versions).

use hacky_racers::experiments::{
    countermeasures, distribution, ev_eval, granularity, magnifier_sweeps, par_seq,
    repetition_figure,
};
use racer_isa::AluOp;

/// §1/§5: ILP races measure arbitrary fine-grained timing differences.
#[test]
fn claim_racing_gadgets_time_single_operations() {
    let s = granularity::measure_series(AluOp::Add, Some(AluOp::Add), &[6, 12, 18, 24], 70);
    let slope = s.slope().expect("measurable");
    assert!((0.8..=1.3).contains(&slope));
    assert!(s.granularity() <= 3, "paper: 1–3 op granularity");
}

/// §7.1: repetition without racing cancels; with racing it transmits.
#[test]
fn claim_repetition_needs_racing() {
    let bare = repetition_figure::figure7(false, 20);
    let raced = repetition_figure::figure7(true, 20);
    assert!(bare.total_separation() < 0.05);
    assert!(raced.total_separation() > 0.05);
}

/// §6.1/§6.2 + Figure 10: the PLRU magnifier separates the two transmitted
/// states with almost no distribution overlap.
#[test]
fn claim_reorder_magnifier_distributions_separate() {
    let r = distribution::figure10(6, 500);
    assert!(r.overlap < 0.1, "overlap {:.3}", r.overlap);
    assert!(r.accuracy > 0.95);
}

/// §6.3 + Figure 11: prefetching makes the arbitrary-replacement magnifier
/// unbounded; without it, the set count caps it.
#[test]
fn claim_prefetching_lifts_the_set_cap() {
    let series = magnifier_sweeps::figure11(&[2, 10], 30);
    let find = |label: &str| series.iter().find(|s| s.label == label).unwrap();
    let with = &find("fifo-with-prefetch").points;
    let without = &find("random-no-prefetch").points;
    let with_growth = with[1].diff_us - with[0].diff_us;
    let without_growth = without[1].diff_us - without[0].diff_us;
    assert!(
        with_growth > without_growth,
        "prefetch growth {with_growth:.2} vs capped {without_growth:.2}"
    );
}

/// §6.4 + Figure 12: the arithmetic magnifier accumulates without touching
/// the cache, until the timer interrupt bounds it.
#[test]
fn claim_arithmetic_magnifier_is_interrupt_bounded() {
    let free = magnifier_sweeps::figure12(&[40, 120], 20, None);
    let bound = magnifier_sweeps::figure12(&[40, 120], 20, Some(6_000));
    assert!(free.points[1].diff_us > free.points[0].diff_us);
    let free_growth = free.points[1].diff_us - free.points[0].diff_us;
    let bound_growth = bound.points[1].diff_us - bound.points[0].diff_us;
    assert!(bound_growth < free_growth);
}

/// §6.3.3: the paper's SEQ=6/PAR=5 sizing yields ~96% eviction probability.
#[test]
fn claim_par_seq_sizing() {
    let p = par_seq::evict_probability(6, 5, 8, 3000);
    assert!(p > 0.9, "got {p:.3}");
}

/// §7.4: eviction-set profiling succeeds at the paper's 100% rate.
#[test]
fn claim_eviction_set_success_rate() {
    let eval = ev_eval::evaluate(2, 48);
    assert_eq!(eval.rate(), 1.0);
}

/// §8: the gadget-vs-defence matrix matches the paper: transient defences
/// stop only the transient gadget; in-order stops everything.
#[test]
fn claim_countermeasure_matrix() {
    let rows = countermeasures::countermeasure_matrix();
    for row in &rows {
        match row.countermeasure.as_str() {
            "baseline" => {
                assert!(row.transient_pa_works && row.reorder_works);
            }
            "in-order" => {
                assert!(!row.transient_pa_works && !row.reorder_works);
            }
            _ => {
                assert!(
                    !row.transient_pa_works,
                    "{} must stop transient races",
                    row.countermeasure
                );
                assert!(
                    row.reorder_works,
                    "{} must not stop reorder races",
                    row.countermeasure
                );
            }
        }
    }
}
