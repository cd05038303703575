//! Scenario registrations: every figure, table and evaluation of the
//! paper, each a thin wrapper over the `hacky_racers::experiments`
//! drivers.
//!
//! | Paper artefact | Scenario |
//! |---|---|
//! | Figures 3–4 (PLRU state walks) | `fig03_plru_walk` |
//! | Figure 7 (repetition stacks) | `fig07_repetition` |
//! | Figures 8–9 (granularity) | `fig08_granularity_add`, `fig09_granularity_mul` |
//! | Figure 10 (reorder distributions) | `fig10_reorder_distribution` |
//! | Figures 11–12 (magnifier sweeps) | `fig11_arbitrary_replacement`, `fig12_arithmetic` |
//! | §7.2 / §6.3.3 tables | `table_granularity`, `table_par_seq` |
//! | §7.3 / §7.4 / §8 evaluations | `spectre_back_eval`, `eviction_set_eval`, `countermeasures_eval`, `detection_eval` |
//! | Extension studies | `noise_sensitivity_eval`, `timer_mitigations_eval`, `window_ablation_eval` |
//! | §9 SMT contention | `smt_contention_eval` |
//! | Automated gadget discovery | `gadget_search_eval` |

mod evals;
mod figures;
mod gadget_search;
mod plru_walk;
mod smt;
mod tables;

use crate::registry::Scenario;

/// Every registered scenario, in presentation order.
pub fn all() -> Vec<Scenario> {
    let mut out = vec![plru_walk::fig03_plru_walk()];
    out.extend(figures::all());
    out.extend(tables::all());
    out.extend(evals::all());
    out.push(smt::smt_contention_eval());
    out.push(gadget_search::gadget_search_eval());
    out
}

/// The standard figure header every scenario's text starts with.
pub(crate) fn header(figure: &str, description: &str) -> String {
    format!(
        "# ============================================================\n\
         # {figure}: {description}\n\
         # ============================================================\n"
    )
}
