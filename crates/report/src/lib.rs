//! `racer-report` — a static HTML dashboard for `racer-lab/v1` reports.
//!
//! The paper's contribution is ultimately a set of *figures*; the
//! experiment runner stops at `results/*.json`. This crate closes the
//! gap: it renders one or many report documents into a self-contained
//! dashboard — an `index.html` listing every scenario with its
//! provenance (git describe, seed, preset), plus one page
//! per scenario with inline-SVG plots generated straight from the
//! structured point series (line/scatter for sweeps, bar charts for
//! suite-style rows, tables for everything else) and a quick-vs-paper
//! delta table when both presets are present.
//!
//! Like `racer-results` it is **dependency-free** (the workspace builds
//! offline) and **deterministic**: the output is a pure function of the
//! input reports, so golden tests can pin rendered pages byte for byte
//! and CI can diff dashboards across runs. No JavaScript, no timestamps,
//! no external assets — the rendered directory works from `file://` and
//! as a CI artifact.
//!
//! ```
//! use racer_report::{render_dashboard, InputReport};
//! use racer_results::Value;
//!
//! let doc = Value::object()
//!     .with("schema", "racer-lab/v1")
//!     .with("scenario", "window_ablation_eval")
//!     .with("scale", "quick")
//!     .with(
//!         "results",
//!         Value::object().with(
//!             "points",
//!             Value::Array(vec![
//!                 Value::object().with("rs_size", 32).with("reach", 54),
//!                 Value::object().with("rs_size", 60).with("reach", 97),
//!             ]),
//!         ),
//!     );
//! let report = InputReport { label: "results/window_ablation_eval.json".into(), doc };
//! let files = render_dashboard(&[report], &[]).unwrap();
//! assert_eq!(files[0].path, "index.html");
//! assert!(files[1].content.contains("<svg"), "sweeps render as SVG plots");
//! ```
//!
//! The shape-introspection that drives plot selection lives in
//! [`racer_results::Table`]; the chart/table dispatch (documented in
//! `src/dashboard.rs`) is deliberately scenario-name-agnostic, so new
//! scenarios get plots for free when their payloads follow the repo's
//! `points`/`series` conventions.

#![warn(missing_docs)]

mod dashboard;
mod html;
mod svg;

pub use dashboard::{
    check_input, render_dashboard, InputReport, OutputFile, ReportError, ScenarioMeta,
};
