//! Turning validated `racer-lab/v1` reports into dashboard pages.
//!
//! The renderer is *shape-driven*: it never hard-codes a scenario name.
//! Every `results` payload is walked recursively; arrays of objects
//! become [`racer_results::Table`]s and are classified:
//!
//! * rows with **nested point series** (`series[i].points`,
//!   `mixes[i].median_readings`) → one multi-series line chart per nested
//!   member, one color-slot per outer row, plus suite charts/tables for
//!   the outer scalar columns;
//! * flat rows with a **repeating text column** and ≥ 2 numeric columns
//!   (`timer_mitigations_eval` accuracy grids) → a grouped line chart,
//!   series keyed by the text column;
//! * flat rows with a **unique text column** (`perf_baseline` workloads,
//!   `detection_eval` profiles, `smt_contention_eval` mix summaries) →
//!   one horizontal bar chart per numeric column;
//! * flat **all-numeric** rows (`window_ablation_eval`) → a single-series
//!   line chart;
//! * anything else → a table, so no payload shape ever renders as
//!   nothing.
//!
//! Every chart also ships its full data table (collapsed), which doubles
//! as the accessibility/table view. Axis choice is a heuristic: `x` is
//! the first numeric column, `y` the remaining numeric column with the
//! most distinct values (enumeration axes like `phase` or `trials` are
//! near-constant, measurement axes vary).

use crate::html::{escape, kv_table, legend, page};
use crate::svg::{fmt_num, BarChart, LineChart, Series};
use racer_results::{Column, ColumnKind, Table, Value};
use std::fmt;
use std::fmt::Write as _;

/// One report file handed to the renderer: a display label (the file
/// path at the CLI, anything stable in tests) and the parsed document.
pub struct InputReport {
    /// Where the report came from; shown in the provenance block.
    pub label: String,
    /// The parsed `racer-lab/v1` document.
    pub doc: Value,
}

/// Registry metadata for one scenario, used for page ordering and for
/// titles when a report predates the `title`/`description` members.
pub struct ScenarioMeta {
    /// Scenario name (matches the report's `scenario` member).
    pub name: String,
    /// Paper artefact label, e.g. `Figure 8`.
    pub title: String,
    /// One-line description.
    pub description: String,
    /// Presentation index (registry order).
    pub order: usize,
}

/// One rendered file: a forward-slash relative path and its content.
#[derive(Debug)]
pub struct OutputFile {
    /// Path relative to the dashboard root, e.g. `scenarios/x.html`.
    pub path: String,
    /// Full file content.
    pub content: String,
}

/// Why a report set could not be rendered.
#[derive(Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The input set was empty.
    NoReports,
    /// A document's root was not a JSON object.
    NotAnObject {
        /// The offending report's label.
        label: String,
    },
    /// A document's `schema` member was missing or not `racer-lab/v1`.
    WrongSchema {
        /// The offending report's label.
        label: String,
        /// What the `schema` member actually held.
        found: String,
    },
    /// A required envelope member was missing or of the wrong type.
    MissingField {
        /// The offending report's label.
        label: String,
        /// The member that was expected.
        field: &'static str,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::NoReports => write!(f, "no reports to render"),
            ReportError::NotAnObject { label } => {
                write!(f, "{label}: report is not a JSON object")
            }
            ReportError::WrongSchema { label, found } => {
                write!(
                    f,
                    "{label}: expected schema \"racer-lab/v1\", found {found}"
                )
            }
            ReportError::MissingField { label, field } => {
                write!(f, "{label}: report has no usable {field:?} member")
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// A validated report, borrowing from its [`InputReport`].
struct Parsed<'a> {
    label: &'a str,
    doc: &'a Value,
    scenario: &'a str,
    scale: &'a str,
    title: &'a str,
    description: &'a str,
    /// `Some((kind, message))` for a crash-isolated failed cell
    /// (`status: "failed"` with an `error` object); `None` for a
    /// successful report.
    failed: Option<(&'a str, &'a str)>,
}

/// Strict envelope validation: root object, `schema == "racer-lab/v1"`,
/// non-empty `scenario`, a `scale` string and a `results` member.
///
/// Crash-isolated failed cells (`status: "failed"` with a `null`
/// `results` and an `error` object) pass validation — the dashboard
/// renders them as visible failure banners rather than rejecting the
/// whole report set.
fn validate(report: &InputReport) -> Result<Parsed<'_>, ReportError> {
    let label = || report.label.clone();
    if report.doc.members().is_none() {
        return Err(ReportError::NotAnObject { label: label() });
    }
    match report.doc.get("schema").and_then(Value::as_str) {
        Some("racer-lab/v1") => {}
        other => {
            return Err(ReportError::WrongSchema {
                label: label(),
                found: match other {
                    Some(s) => format!("{s:?}"),
                    None => "no schema member".to_string(),
                },
            })
        }
    }
    let scenario = report
        .doc
        .get("scenario")
        .and_then(Value::as_str)
        .filter(|s| !s.is_empty())
        .ok_or(ReportError::MissingField {
            label: label(),
            field: "scenario",
        })?;
    let scale =
        report
            .doc
            .get("scale")
            .and_then(Value::as_str)
            .ok_or(ReportError::MissingField {
                label: label(),
                field: "scale",
            })?;
    if report.doc.get("results").is_none() {
        return Err(ReportError::MissingField {
            label: label(),
            field: "results",
        });
    }
    let failed = if report.doc.get("status").and_then(Value::as_str) == Some("failed") {
        let err = report.doc.get("error");
        Some((
            err.and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                .unwrap_or("error"),
            err.and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("no error message recorded"),
        ))
    } else {
        None
    };
    Ok(Parsed {
        label: &report.label,
        doc: &report.doc,
        scenario,
        scale,
        title: report
            .doc
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or(""),
        description: report
            .doc
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or(""),
        failed,
    })
}

/// Validate one report's `racer-lab/v1` envelope without rendering.
///
/// This is the same strict check [`render_dashboard`] applies to every
/// input; callers that want to *skip* structurally invalid files instead
/// of failing the whole render (`racer-lab report --keep-going`) probe
/// each input here first.
pub fn check_input(report: &InputReport) -> Result<(), ReportError> {
    validate(report).map(|_| ())
}

/// Preset presentation order: quick before paper before anything else.
fn scale_rank(scale: &str) -> usize {
    match scale {
        "quick" => 0,
        "paper" => 1,
        _ => 2,
    }
}

/// Render one or many validated reports into the full static dashboard:
/// `index.html` plus one `scenarios/<name>.html` per scenario. Output is
/// a pure function of the inputs — byte-identical across renders.
pub fn render_dashboard(
    reports: &[InputReport],
    meta: &[ScenarioMeta],
) -> Result<Vec<OutputFile>, ReportError> {
    if reports.is_empty() {
        return Err(ReportError::NoReports);
    }
    let mut parsed = Vec::with_capacity(reports.len());
    for r in reports {
        parsed.push(validate(r)?);
    }

    // Group by scenario, keeping first-seen order, then sort the groups
    // by registry order (unknown scenarios after all known ones,
    // alphabetically) and each group's reports quick → paper → other.
    let mut groups: Vec<(&str, Vec<&Parsed<'_>>)> = Vec::new();
    for p in &parsed {
        match groups.iter_mut().find(|(name, _)| *name == p.scenario) {
            Some((_, members)) => members.push(p),
            None => groups.push((p.scenario, vec![p])),
        }
    }
    let order_of = |name: &str| {
        meta.iter()
            .find(|m| m.name == name)
            .map_or(usize::MAX, |m| m.order)
    };
    groups.sort_by(|a, b| (order_of(a.0), a.0).cmp(&(order_of(b.0), b.0)));
    for (_, members) in &mut groups {
        members.sort_by(|a, b| {
            (scale_rank(a.scale), a.scale, a.label).cmp(&(scale_rank(b.scale), b.scale, b.label))
        });
    }

    // Unique page path per scenario.
    let mut paths: Vec<(String, String)> = Vec::new(); // (scenario, path)
    for (name, _) in &groups {
        let mut stem = sanitize(name);
        let mut n = 1usize;
        while paths.iter().any(|(_, p)| p == &page_path(&stem)) {
            n += 1;
            stem = format!("{}-{n}", sanitize(name));
        }
        paths.push((name.to_string(), page_path(&stem)));
    }
    let path_of = |name: &str| -> String {
        paths
            .iter()
            .find(|(n, _)| n == name)
            .expect("every group has a path")
            .1
            .clone()
    };

    let mut files = Vec::with_capacity(groups.len() + 1);
    files.push(OutputFile {
        path: "index.html".to_string(),
        content: index_page(&groups, meta, &path_of),
    });
    for (name, members) in &groups {
        files.push(OutputFile {
            path: path_of(name),
            content: scenario_page(name, members, meta),
        });
    }
    Ok(files)
}

fn page_path(stem: &str) -> String {
    format!("scenarios/{stem}.html")
}

/// Scenario names are `[a-z0-9_]` in practice; anything else degrades to
/// `-` so the path stays portable.
fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "scenario".to_string()
    } else {
        cleaned
    }
}

/// Registry metadata lookup with report-embedded fallback.
fn title_of<'a>(name: &str, members: &[&Parsed<'a>], meta: &'a [ScenarioMeta]) -> (String, String) {
    if let Some(m) = meta.iter().find(|m| m.name == name) {
        return (m.title.clone(), m.description.clone());
    }
    let first = members.first().expect("groups are non-empty");
    (first.title.to_string(), first.description.to_string())
}

// ---------------------------------------------------------------- index

fn index_page(
    groups: &[(&str, Vec<&Parsed<'_>>)],
    meta: &[ScenarioMeta],
    path_of: &dyn Fn(&str) -> String,
) -> String {
    let report_count: usize = groups.iter().map(|(_, m)| m.len()).sum();
    let mut body = String::new();
    body.push_str("<h1>racer-lab dashboard</h1>\n");
    let mut gits: Vec<&str> = Vec::new();
    for (_, members) in groups {
        for p in members {
            if let Some(g) = p.doc.get("provenance").and_then(|v| v.get("git")) {
                if let Some(g) = g.as_str() {
                    if !gits.contains(&g) {
                        gits.push(g);
                    }
                }
            }
        }
    }
    let _ = writeln!(
        body,
        "<p class=\"sub\">{} scenario{} &middot; {report_count} report{} &middot; git {}</p>",
        groups.len(),
        if groups.len() == 1 { "" } else { "s" },
        if report_count == 1 { "" } else { "s" },
        if gits.is_empty() {
            "unknown".to_string()
        } else {
            gits.iter()
                .map(|g| format!("<code>{}</code>", escape(g)))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    body.push_str(
        "<table>\n<tr><th>Scenario</th><th>Paper artefact</th>\
         <th>Description</th><th>Reports</th></tr>\n",
    );
    for (name, members) in groups {
        let (title, description) = title_of(name, members, meta);
        let mut cells: Vec<String> = Vec::new();
        for p in members {
            let prov = p.doc.get("provenance");
            let git = prov
                .and_then(|v| v.get("git"))
                .and_then(Value::as_str)
                .unwrap_or("unknown");
            let seed = p
                .doc
                .get("seed")
                .and_then(Value::as_i64)
                .map_or("?".to_string(), |s| s.to_string());
            let mut cell = format!(
                "{} &middot; seed {} &middot; git <code>{}</code>",
                escape(p.scale),
                escape(&seed),
                escape(git)
            );
            if let Some((kind, _)) = p.failed {
                let _ = write!(
                    cell,
                    " &middot; <span class=\"failed-tag\">failed ({})</span>",
                    escape(kind)
                );
            }
            cells.push(cell);
        }
        let _ = writeln!(
            body,
            "<tr><td><a href=\"{}\"><code>{}</code></a></td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>",
            escape(&path_of(name)),
            escape(name),
            escape(&title),
            escape(&description),
            cells.join("<br>")
        );
    }
    body.push_str("</table>\n");
    page("racer-lab dashboard", &body)
}

// -------------------------------------------------------- scenario page

fn scenario_page(name: &str, members: &[&Parsed<'_>], meta: &[ScenarioMeta]) -> String {
    let (title, description) = title_of(name, members, meta);
    let mut body = String::new();
    body.push_str("<p class=\"crumb\"><a href=\"../index.html\">&larr; all scenarios</a></p>\n");
    let _ = writeln!(
        body,
        "<h1><code>{}</code>{}</h1>",
        escape(name),
        if title.is_empty() {
            String::new()
        } else {
            format!(" &mdash; {}", escape(&title))
        }
    );
    if !description.is_empty() {
        let _ = writeln!(body, "<p class=\"sub\">{}</p>", escape(&description));
    }
    for p in members {
        let _ = writeln!(body, "<h2>{} preset</h2>", escape(p.scale));
        if let Some((kind, message)) = p.failed {
            let _ = writeln!(
                body,
                "<p class=\"failed\"><span class=\"failed-tag\">failed ({})</span> \
                 &mdash; {}</p>",
                escape(kind),
                escape(message)
            );
            body.push_str(&provenance_block(p));
            continue;
        }
        body.push_str(&provenance_block(p));
        if let Some(results) = p.doc.get("results") {
            render_value(&mut body, results, 3);
        }
    }
    // Quick-vs-paper deltas when both presets are present (failed cells
    // have no results to compare).
    let quick = members
        .iter()
        .find(|p| p.scale == "quick" && p.failed.is_none());
    let paper = members
        .iter()
        .find(|p| p.scale == "paper" && p.failed.is_none());
    if let (Some(q), Some(p)) = (quick, paper) {
        body.push_str(&delta_section(q, p));
    }
    page(&format!("{name} — racer-lab dashboard"), &body)
}

/// The provenance block: source file, envelope fields, generator
/// identity and the resolved config.
fn provenance_block(p: &Parsed<'_>) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    let code = |s: &str| format!("<code>{}</code>", escape(s));
    rows.push(("source".to_string(), code(p.label)));
    rows.push(("scale".to_string(), escape(p.scale)));
    if let Some(seed) = p.doc.get("seed").and_then(Value::as_i64) {
        rows.push(("seed".to_string(), seed.to_string()));
    }
    if let Some(det) = p.doc.get("deterministic").and_then(Value::as_bool) {
        rows.push(("deterministic".to_string(), det.to_string()));
    }
    if let Some(prov) = p.doc.get("provenance") {
        let s = |key: &str| prov.get(key).and_then(Value::as_str);
        if let (Some(generator), Some(version)) = (s("generator"), s("version")) {
            rows.push((
                "generator".to_string(),
                format!("{} {}", escape(generator), escape(version)),
            ));
        }
        if let Some(git) = s("git") {
            rows.push(("git describe".to_string(), code(git)));
        }
    }
    if let Some(config) = p.doc.get("config").and_then(Value::members) {
        for (k, v) in config {
            rows.push((format!("config.{k}"), scalar_cell(v)));
        }
    }
    kv_table(&rows)
}

// ------------------------------------------------------- results walker

/// Heading tag for a nesting depth (h3 at the top of `results`).
fn heading(out: &mut String, depth: usize, label: &str) {
    let level = depth.clamp(3, 4);
    let _ = writeln!(out, "<h{level}><code>{}</code></h{level}>", escape(label));
}

/// Render any `results` value at `depth` (3 = top level).
fn render_value(out: &mut String, v: &Value, depth: usize) {
    if depth > 7 {
        let _ = writeln!(
            out,
            "<p><code>{}</code></p>",
            escape(&clip(&v.to_compact()))
        );
        return;
    }
    match v {
        Value::Object(members) => {
            let mut scalars: Vec<(String, String)> = Vec::new();
            let mut compound: Vec<(&str, &Value)> = Vec::new();
            for (k, val) in members {
                match val {
                    Value::Object(_) => compound.push((k, val)),
                    Value::Array(items) if !items.is_empty() => compound.push((k, val)),
                    _ => scalars.push((k.clone(), scalar_cell(val))),
                }
            }
            out.push_str(&kv_table(&scalars));
            for (k, val) in compound {
                heading(out, depth, k);
                render_value(out, val, depth + 1);
            }
        }
        Value::Array(items) => render_array(out, items, depth),
        scalar => {
            out.push_str(&kv_table(&[("value".to_string(), scalar_cell(scalar))]));
        }
    }
}

fn render_array(out: &mut String, items: &[Value], depth: usize) {
    if items.is_empty() {
        out.push_str("<p class=\"note\">(empty)</p>\n");
        return;
    }
    if let Some(table) = Table::from_rows(items) {
        render_rows_block(out, &table);
        return;
    }
    if items.iter().all(|i| matches!(i, Value::Array(_))) {
        const CAP: usize = 8;
        for (i, item) in items.iter().take(CAP).enumerate() {
            heading(out, depth.max(4), &format!("[{i}]"));
            render_value(out, item, depth + 1);
        }
        if items.len() > CAP {
            let _ = writeln!(
                out,
                "<p class=\"note\">&hellip; {} more nested arrays omitted \
                 (raw JSON has them all)</p>",
                items.len() - CAP
            );
        }
        return;
    }
    // Scalar/mixed arrays render as a clipped compact-JSON snippet;
    // serialize only until the clip cap so huge arrays stay cheap.
    let mut snippet = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            snippet.push(',');
        }
        snippet.push_str(&item.to_compact());
        if snippet.len() > 120 {
            break;
        }
    }
    if snippet.len() <= 120 {
        snippet.push(']');
    }
    let _ = writeln!(out, "<p><code>{}</code></p>", escape(&clip(&snippet)));
}

/// Complete columns of a kind.
fn complete<'t, 'a>(t: &'t Table<'a>, kind: ColumnKind) -> Vec<&'t Column<'a>> {
    t.columns()
        .iter()
        .filter(|c| c.kind() == kind && c.is_complete())
        .collect()
}

/// The chart-or-table dispatch for an array of objects.
fn render_rows_block(out: &mut String, t: &Table<'_>) {
    let nested = complete(t, ColumnKind::Rows);
    let mut charted = false;
    if nested.is_empty() {
        charted = flat_charts(out, t);
    } else {
        let label_col = complete(t, ColumnKind::Text).first().copied();
        for nc in &nested {
            charted |= nested_series_chart(out, t, nc, label_col);
        }
        // The outer rows minus their nested members are themselves a
        // suite-style table — chart its numeric columns too.
        charted |= flat_charts(out, t);
    }
    let table = data_table(t);
    if charted {
        let _ = writeln!(
            out,
            "<details><summary>data table ({} row{})</summary>\n{table}</details>",
            t.len(),
            if t.len() == 1 { "" } else { "s" }
        );
    } else {
        out.push_str(&table);
    }
}

/// One multi-series line chart from a nested point-series column: one
/// series per outer row, labeled by the first text column.
fn nested_series_chart(
    out: &mut String,
    t: &Table<'_>,
    nc: &Column<'_>,
    label_col: Option<&Column<'_>>,
) -> bool {
    // Axes are chosen once, from the first row that yields a numeric
    // pair, and every other row must plot the *same* two columns — two
    // rows may never contribute different measures to one shared axis.
    let mut series: Vec<Series> = Vec::new();
    let mut axes: Option<(String, String)> = None;
    let mut unplottable = 0usize;
    for row in 0..t.len() {
        let sub = nc.get(row).and_then(Table::from_value);
        if axes.is_none() {
            axes = sub
                .as_ref()
                .and_then(pick_xy)
                .map(|(xc, yc)| (xc.name().to_string(), yc.name().to_string()));
        }
        let columns = axes.as_ref().zip(sub.as_ref()).and_then(|((xn, yn), sub)| {
            sub.column(xn)
                .and_then(Column::numeric)
                .zip(sub.column(yn).and_then(Column::numeric))
        });
        let Some((xs, ys)) = columns else {
            unplottable += 1;
            continue;
        };
        let label = label_col
            .and_then(|c| c.get(row))
            .and_then(Value::as_str)
            .map_or_else(|| format!("row {row}"), str::to_string);
        series.push(Series {
            label,
            points: xs.into_iter().zip(ys).collect(),
        });
    }
    let Some((x_label, y_label)) = axes else {
        return false;
    };
    // The documented palette validates 8 adjacent slots; past that, fold
    // into the table instead of cycling hues.
    let folded = series.len().saturating_sub(8);
    series.truncate(8);
    let labels: Vec<String> = series.iter().map(|s| s.label.clone()).collect();
    let chart = LineChart {
        x_label: x_label.clone(),
        y_label: y_label.clone(),
        series,
    };
    let Some(svg) = chart.to_svg() else {
        return false;
    };
    let _ = writeln!(
        out,
        "<figure><figcaption><code>{}</code>: {} vs {}</figcaption>\n{}{svg}</figure>",
        escape(nc.name()),
        escape(&y_label),
        escape(&x_label),
        legend(&labels)
    );
    if folded > 0 {
        let _ = writeln!(
            out,
            "<p class=\"note\">{folded} further series omitted from the chart \
             (8-slot palette cap) &mdash; all rows are in the data table</p>"
        );
    }
    if unplottable > 0 {
        let _ = writeln!(
            out,
            "<p class=\"note\">{unplottable} row(s) had no plottable \
             <code>{x_esc}</code>/<code>{y_esc}</code> pair and are chart-omitted \
             &mdash; see the data table</p>",
            x_esc = escape(&x_label),
            y_esc = escape(&y_label)
        );
    }
    true
}

/// Charts for flat rows (no nested columns considered): grouped lines,
/// a single line, or per-column bars. Returns whether anything plotted.
fn flat_charts(out: &mut String, t: &Table<'_>) -> bool {
    let numeric = complete(t, ColumnKind::Numeric);
    let text = complete(t, ColumnKind::Text);
    if numeric.is_empty() || t.is_empty() {
        return false;
    }

    // Grouped sweep: a text column whose values repeat.
    if numeric.len() >= 2 {
        let group_col = text.iter().find(|c| {
            let mut distinct: Vec<&str> = Vec::new();
            for row in 0..t.len() {
                if let Some(v) = c.get(row).and_then(Value::as_str) {
                    if !distinct.contains(&v) {
                        distinct.push(v);
                    }
                }
            }
            distinct.len() < t.len() && distinct.len() > 1
        });
        if let Some(group_col) = group_col {
            if let Some((xc, yc)) = pick_xy(t) {
                let (xs, ys) = (
                    xc.numeric().expect("picked numeric"),
                    yc.numeric().expect("picked numeric"),
                );
                let mut series: Vec<Series> = Vec::new();
                for row in 0..t.len() {
                    let key = group_col
                        .get(row)
                        .and_then(Value::as_str)
                        .unwrap_or_default();
                    let s = match series.iter_mut().find(|s| s.label == key) {
                        Some(s) => s,
                        None => {
                            series.push(Series {
                                label: key.to_string(),
                                points: Vec::new(),
                            });
                            series.last_mut().expect("just pushed")
                        }
                    };
                    s.points.push((xs[row], ys[row]));
                }
                let folded = series.len().saturating_sub(8);
                series.truncate(8);
                let labels: Vec<String> = series.iter().map(|s| s.label.clone()).collect();
                let chart = LineChart {
                    x_label: xc.name().to_string(),
                    y_label: yc.name().to_string(),
                    series,
                };
                if let Some(svg) = chart.to_svg() {
                    let _ = writeln!(
                        out,
                        "<figure><figcaption>{} vs {} by <code>{}</code></figcaption>\n\
                         {}{svg}</figure>",
                        escape(yc.name()),
                        escape(xc.name()),
                        escape(group_col.name()),
                        legend(&labels)
                    );
                    if folded > 0 {
                        let _ = writeln!(
                            out,
                            "<p class=\"note\">{folded} further series omitted from the \
                             chart (8-slot palette cap) &mdash; all rows are in the data \
                             table</p>"
                        );
                    }
                    return true;
                }
            }
        }
    }

    // Suite-style rows: a unique text key → one bar chart per measure
    // (one axis per chart; two measures never share a scale). A
    // non-unique key (e.g. a sweep collapsed to a single group by an
    // override) is not a suite — fall through to the line chart below.
    let unique_key = text.first().filter(|key| {
        let mut seen: Vec<&str> = Vec::new();
        (0..t.len()).all(|row| {
            let Some(v) = key.get(row).and_then(Value::as_str) else {
                return false;
            };
            if seen.contains(&v) {
                false
            } else {
                seen.push(v);
                true
            }
        })
    });
    if let Some(key) = unique_key {
        if t.len() <= 40 {
            let cats: Vec<String> = (0..t.len())
                .map(|row| {
                    key.get(row)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                })
                .collect();
            let mut plotted = false;
            for col in &numeric {
                let values = col.numeric().expect("complete numeric");
                let chart = BarChart {
                    value_label: col.name().to_string(),
                    bars: cats.iter().cloned().zip(values).collect(),
                };
                if let Some(svg) = chart.to_svg() {
                    let _ = writeln!(
                        out,
                        "<figure><figcaption>{} by <code>{}</code></figcaption>\n{svg}</figure>",
                        escape(col.name()),
                        escape(key.name())
                    );
                    plotted = true;
                }
            }
            return plotted;
        }
        let _ = writeln!(
            out,
            "<p class=\"note\">{} rows &mdash; too many categories to chart, \
             see the data table</p>",
            t.len()
        );
        return false;
    }

    // All-numeric sweep.
    if numeric.len() >= 2 && t.len() >= 2 {
        if let Some((xc, yc)) = pick_xy(t) {
            let points: Vec<(f64, f64)> = xc
                .numeric()
                .expect("picked numeric")
                .into_iter()
                .zip(yc.numeric().expect("picked numeric"))
                .collect();
            let chart = LineChart {
                x_label: xc.name().to_string(),
                y_label: yc.name().to_string(),
                series: vec![Series {
                    label: yc.name().to_string(),
                    points,
                }],
            };
            if let Some(svg) = chart.to_svg() {
                let _ = writeln!(
                    out,
                    "<figure><figcaption>{} vs {}</figcaption>\n{svg}</figure>",
                    escape(yc.name()),
                    escape(xc.name())
                );
                return true;
            }
        }
    }
    false
}

/// Axis heuristic: `x` is the first complete numeric column, `y` the
/// remaining numeric column with the most distinct values — enumeration
/// axes (`phase`, `trials`) are near-constant, measurements vary.
fn pick_xy<'t, 'a>(t: &'t Table<'a>) -> Option<(&'t Column<'a>, &'t Column<'a>)> {
    let numeric = complete(t, ColumnKind::Numeric);
    let (x, rest) = numeric.split_first()?;
    let distinct = |col: &Column<'_>| {
        let mut vs = col.numeric().expect("complete numeric");
        vs.sort_by(f64::total_cmp);
        vs.dedup();
        vs.len()
    };
    // Strictly-greater keeps the earliest column on ties (member order
    // is meaningful: scenarios emit their primary measurement first).
    let mut best: Option<(&Column<'_>, usize)> = None;
    for c in rest {
        let d = distinct(c);
        if best.is_none_or(|(_, bd)| d > bd) {
            best = Some((c, d));
        }
    }
    Some((x, best?.0))
}

// --------------------------------------------------------------- tables

/// Render one scalar (or small compound) value as an HTML table cell.
fn scalar_cell(v: &Value) -> String {
    match v {
        Value::Null => "&ndash;".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => fmt_num(*f),
        Value::Str(s) => escape(s),
        Value::Array(items) => {
            if items.iter().all(|i| matches!(i, Value::Object(_))) && !items.is_empty() {
                format!(
                    "<span class=\"note\">[{} row{}]</span>",
                    items.len(),
                    if items.len() == 1 { "" } else { "s" }
                )
            } else {
                format!("<code>{}</code>", escape(&clip(&v.to_compact())))
            }
        }
        Value::Object(_) => format!("<code>{}</code>", escape(&clip(&v.to_compact()))),
    }
}

fn clip(s: &str) -> String {
    const CAP: usize = 120;
    if s.len() <= CAP {
        return s.to_string();
    }
    let mut end = CAP;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// The full data table for an array of objects (the chart's table view).
/// Large tables are visibly truncated, never silently.
fn data_table(t: &Table<'_>) -> String {
    const ROW_CAP: usize = 200;
    let mut out = String::from("<table>\n<tr>");
    for col in t.columns() {
        let _ = write!(out, "<th>{}</th>", escape(col.name()));
    }
    out.push_str("</tr>\n");
    for row in 0..t.len().min(ROW_CAP) {
        out.push_str("<tr>");
        for col in t.columns() {
            let cell = col.get(row).map_or("&ndash;".to_string(), scalar_cell);
            let class = if matches!(col.kind(), ColumnKind::Numeric) {
                " class=\"num\""
            } else {
                ""
            };
            let _ = write!(out, "<td{class}>{cell}</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
    if t.len() > ROW_CAP {
        let _ = writeln!(
            out,
            "<p class=\"note\">&hellip; {} more rows omitted &mdash; the raw JSON \
             report has them all</p>",
            t.len() - ROW_CAP
        );
    }
    out
}

// --------------------------------------------------------------- deltas

/// Is this value an array of objects (a row table)?
fn is_row_table(v: &Value) -> bool {
    v.as_array()
        .is_some_and(|items| !items.is_empty() && items.iter().all(|i| i.members().is_some()))
}

/// Collect every numeric leaf of `v` as `(path, value)`. Row tables are
/// skipped wherever they appear (including a bare-array `results`
/// root): positional indices don't line up across presets (a paper
/// sweep has more cells), so those values are compared cell-by-cell via
/// [`table_deltas`] instead.
fn numeric_leaves(v: &Value, path: &str, out: &mut Vec<(String, f64)>) {
    if is_row_table(v) {
        return;
    }
    match v {
        Value::Int(i) => out.push((path.to_string(), *i as f64)),
        Value::Float(f) if f.is_finite() => out.push((path.to_string(), *f)),
        Value::Object(members) => {
            for (k, val) in members {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                numeric_leaves(val, &sub, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                numeric_leaves(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Identity-key column names for cross-preset cell matching: all
/// complete text columns, extended with leading numeric columns until
/// the keys are unique (a sweep's x axis joins the key, a suite's
/// unique name column suffices alone). `None` when no unique identity
/// exists.
fn key_column_names(t: &Table<'_>) -> Option<Vec<String>> {
    let text = complete(t, ColumnKind::Text);
    let numeric = complete(t, ColumnKind::Numeric);
    let mut key_cols: Vec<&Column<'_>> = text;
    let mut extra = numeric.into_iter();
    loop {
        let names: Vec<String> = key_cols.iter().map(|c| c.name().to_string()).collect();
        if !names.is_empty() && keys_with(t, &names).is_some() {
            return Some(names);
        }
        key_cols.push(extra.next()?);
    }
}

/// The per-row keys `name=value, …` over the named columns; `None` when
/// a column is missing/incomplete or the keys collide.
fn keys_with(t: &Table<'_>, names: &[String]) -> Option<Vec<String>> {
    let cols: Vec<&Column<'_>> = names
        .iter()
        .map(|n| t.column(n).filter(|c| c.is_complete()))
        .collect::<Option<_>>()?;
    let keys: Vec<String> = (0..t.len())
        .map(|row| {
            cols.iter()
                .map(|c| {
                    format!(
                        "{}={}",
                        c.name(),
                        c.get(row).map_or(String::new(), |v| match v {
                            Value::Str(s) => s.clone(),
                            other => other.to_compact(),
                        })
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        Some(keys)
    } else {
        None
    }
}

/// Cell-aligned deltas for one shared row-table member of `results`:
/// rows match on their identity key, and every numeric non-key column is
/// a compared measure. The key columns are the *union* of what each
/// preset needs for uniqueness (adding columns preserves uniqueness), so
/// a quick sweep that happens to be unique on fewer columns still lines
/// up against the paper run.
fn table_deltas(member: &str, qv: &Value, pv: &Value, out: &mut Vec<(String, f64, f64)>) {
    let (Some(qt), Some(pt)) = (Table::from_value(qv), Table::from_value(pv)) else {
        return;
    };
    let (Some(qnames), Some(pnames)) = (key_column_names(&qt), key_column_names(&pt)) else {
        return;
    };
    let mut key_names = qnames;
    for n in pnames {
        if !key_names.contains(&n) {
            key_names.push(n);
        }
    }
    let (Some(qkeys), Some(pkeys)) = (keys_with(&qt, &key_names), keys_with(&pt, &key_names))
    else {
        return;
    };
    let measures: Vec<&Column<'_>> = complete(&qt, ColumnKind::Numeric)
        .into_iter()
        .filter(|c| !key_names.iter().any(|k| k == c.name()))
        .collect();
    for (qrow, key) in qkeys.iter().enumerate() {
        let Some(prow) = pkeys.iter().position(|k| k == key) else {
            continue;
        };
        for m in &measures {
            let (Some(qval), Some(pval)) = (
                m.get(qrow).and_then(Value::as_f64),
                pt.column(m.name())
                    .and_then(|c| c.get(prow))
                    .and_then(Value::as_f64),
            ) else {
                continue;
            };
            out.push((format!("{member}[{key}].{}", m.name()), qval, pval));
        }
    }
}

/// The quick-vs-paper comparison table over shared numeric result paths.
fn delta_section(quick: &Parsed<'_>, paper: &Parsed<'_>) -> String {
    const ROW_CAP: usize = 40;
    let mut q = Vec::new();
    let mut p = Vec::new();
    if let Some(results) = quick.doc.get("results") {
        numeric_leaves(results, "", &mut q);
    }
    if let Some(results) = paper.doc.get("results") {
        numeric_leaves(results, "", &mut p);
    }
    let mut shared: Vec<(String, f64, f64)> = q
        .iter()
        .filter_map(|(path, qv)| {
            p.iter()
                .find(|(pp, _)| pp == path)
                .map(|(_, pv)| (path.clone(), *qv, *pv))
        })
        .collect();
    // Row tables compare cell-by-cell (identity keys), not by position —
    // both presets cover the same cells at different scale. A bare-array
    // `results` root is itself the row table.
    match (quick.doc.get("results"), paper.doc.get("results")) {
        (Some(qr), Some(pr)) if is_row_table(qr) && is_row_table(pr) => {
            table_deltas("results", qr, pr, &mut shared);
        }
        (Some(qr), Some(pr)) => {
            for (member, qv) in qr.members().unwrap_or(&[]) {
                if !is_row_table(qv) {
                    continue;
                }
                if let Some(pv) = pr.get(member).filter(|pv| is_row_table(pv)) {
                    table_deltas(member, qv, pv, &mut shared);
                }
            }
        }
        _ => {}
    }
    if shared.is_empty() {
        return String::new();
    }
    let mut out = String::from("<h2>quick vs paper</h2>\n");
    out.push_str(
        "<p class=\"sub\">results shared by the two presets &mdash; scalars by \
         path, sweep/suite rows matched on their identity key</p>\n",
    );
    out.push_str(
        "<table>\n<tr><th>result</th><th>quick</th><th>paper</th>\
         <th>&Delta; (paper &minus; quick)</th></tr>\n",
    );
    for (path, qv, pv) in shared.iter().take(ROW_CAP) {
        let delta = pv - qv;
        let rel = if *qv != 0.0 {
            format!(" ({}%)", fmt_num(delta / qv.abs() * 100.0))
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}{}</td></tr>",
            escape(path),
            fmt_num(*qv),
            fmt_num(*pv),
            fmt_num(delta),
            rel
        );
    }
    out.push_str("</table>\n");
    if shared.len() > ROW_CAP {
        let _ = writeln!(
            out,
            "<p class=\"note\">&hellip; {} more shared values omitted</p>",
            shared.len() - ROW_CAP
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scenario: &str, scale: &str, results: Value) -> InputReport {
        InputReport {
            label: format!("{scenario}-{scale}.json"),
            doc: Value::object()
                .with("schema", "racer-lab/v1")
                .with("scenario", scenario)
                .with("title", "Figure T")
                .with("description", "a test scenario")
                .with("scale", scale)
                .with("seed", 7)
                .with("deterministic", true)
                .with("config", Value::object().with("trials", 3))
                .with(
                    "provenance",
                    Value::object()
                        .with("generator", "racer-lab")
                        .with("version", "0.1.0")
                        .with("git", "abc1234"),
                )
                .with("results", results),
        }
    }

    fn sweep_results() -> Value {
        let point = |timer: &str, rounds: i64, acc: f64| {
            Value::object()
                .with("timer", timer)
                .with("rounds", rounds)
                .with("accuracy", acc)
                .with("trials", 3)
        };
        Value::object().with(
            "points",
            Value::Array(vec![
                point("5us", 500, 0.6),
                point("5us", 8000, 1.0),
                point("1ms", 500, 0.5),
                point("1ms", 8000, 0.5),
            ]),
        )
    }

    #[test]
    fn dashboard_has_index_and_scenario_pages() {
        let reports = vec![report("sweep_eval", "quick", sweep_results())];
        let files = render_dashboard(&reports, &[]).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].path, "index.html");
        assert_eq!(files[1].path, "scenarios/sweep_eval.html");
        assert!(files[0].content.contains("sweep_eval"));
        assert!(files[0].content.contains("seed 7"));
        assert!(files[0].content.contains("abc1234"));
    }

    #[test]
    fn grouped_sweep_renders_a_multi_series_line_chart() {
        let reports = vec![report("sweep_eval", "quick", sweep_results())];
        let files = render_dashboard(&reports, &[]).unwrap();
        let pg = &files[1].content;
        assert!(pg.contains("<svg"), "expected an inline SVG plot");
        assert!(
            pg.contains("accuracy vs rounds by <code>timer</code>"),
            "axis heuristic must pick accuracy (varies) over trials (constant)"
        );
        assert!(pg.contains("swatch s1") && pg.contains("swatch s2"));
        assert!(pg.contains("data table (4 rows)"));
    }

    #[test]
    fn nested_series_and_suite_rows_render_charts() {
        let series = |label: &str, slope: f64| {
            Value::object()
                .with("target_op", label)
                .with("slope", slope)
                .with(
                    "points",
                    Value::Array(
                        (1..4)
                            .map(|i| Value::object().with("target_ops", i).with("ref_ops", i * 3))
                            .collect(),
                    ),
                )
        };
        let results = Value::object().with(
            "series",
            Value::Array(vec![series("add", 0.8), series("mul", 3.0)]),
        );
        let reports = vec![report("granularity", "quick", results)];
        let files = render_dashboard(&reports, &[]).unwrap();
        let pg = &files[1].content;
        assert!(pg.contains("ref_ops vs target_ops"), "nested line chart");
        assert!(pg.contains("slope by <code>target_op</code>"), "suite bars");
    }

    #[test]
    fn bool_matrix_falls_back_to_a_table() {
        let row = |name: &str, works: bool| {
            Value::object()
                .with("countermeasure", name)
                .with("works", works)
        };
        let results = Value::object().with(
            "matrix",
            Value::Array(vec![row("baseline", true), row("in-order", false)]),
        );
        let files = render_dashboard(&[report("matrix_eval", "quick", results)], &[]).unwrap();
        let pg = &files[1].content;
        assert!(!pg.contains("<svg"), "nothing numeric to plot");
        assert!(pg.contains("<td>baseline</td>"));
        assert!(pg.contains("<td>false</td>"));
    }

    #[test]
    fn quick_vs_paper_delta_table_appears() {
        let results = |acc: f64| {
            Value::object().with("accuracy", acc).with(
                "points",
                Value::Array(vec![Value::object().with("x", 1).with("y", 2)]),
            )
        };
        let reports = vec![
            report("eval", "quick", results(0.8)),
            report("eval", "paper", results(0.9)),
        ];
        let files = render_dashboard(&reports, &[]).unwrap();
        let pg = &files[1].content;
        assert!(pg.contains("quick vs paper"));
        assert!(pg.contains("<code>accuracy</code>"));
        assert!(
            !pg.contains("points[0].y"),
            "per-point data is excluded from deltas"
        );
    }

    #[test]
    fn registry_meta_orders_scenarios_and_supplies_titles() {
        let reports = vec![
            report("zzz_first_in_registry", "quick", sweep_results()),
            report("aaa_not_registered", "quick", sweep_results()),
        ];
        let meta = vec![ScenarioMeta {
            name: "zzz_first_in_registry".to_string(),
            title: "Figure 1".to_string(),
            description: "registered".to_string(),
            order: 0,
        }];
        let files = render_dashboard(&reports, &meta).unwrap();
        // Registered scenario sorts first despite its name.
        assert_eq!(files[1].path, "scenarios/zzz_first_in_registry.html");
        assert_eq!(files[2].path, "scenarios/aaa_not_registered.html");
        assert!(files[1].content.contains("Figure 1"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let reports = vec![
            report("eval", "quick", sweep_results()),
            report("eval", "paper", sweep_results()),
        ];
        let a = render_dashboard(&reports, &[]).unwrap();
        let b = render_dashboard(&reports, &[]).unwrap();
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.path, fb.path);
            assert_eq!(fa.content, fb.content);
        }
    }

    #[test]
    fn validation_errors_are_specific() {
        assert_eq!(
            render_dashboard(&[], &[]).unwrap_err(),
            ReportError::NoReports
        );

        let bad = InputReport {
            label: "bad.json".to_string(),
            doc: Value::Int(3),
        };
        assert!(matches!(
            render_dashboard(&[bad], &[]).unwrap_err(),
            ReportError::NotAnObject { .. }
        ));

        let wrong = InputReport {
            label: "wrong.json".to_string(),
            doc: Value::object().with("schema", "other/v2"),
        };
        match render_dashboard(&[wrong], &[]).unwrap_err() {
            ReportError::WrongSchema { found, .. } => assert!(found.contains("other/v2")),
            other => panic!("expected WrongSchema, got {other:?}"),
        }

        let missing = InputReport {
            label: "missing.json".to_string(),
            doc: Value::object()
                .with("schema", "racer-lab/v1")
                .with("scenario", "x")
                .with("scale", "quick"),
        };
        assert_eq!(
            render_dashboard(&[missing], &[]).unwrap_err(),
            ReportError::MissingField {
                label: "missing.json".to_string(),
                field: "results"
            }
        );
    }

    #[test]
    fn single_group_sweeps_render_a_line_chart_not_bars() {
        // One timer only (sweep collapsed by an override): the constant
        // text column is not a suite key, the rounds sweep still plots.
        let point = |rounds: i64, acc: f64| {
            Value::object()
                .with("timer", "5us")
                .with("rounds", rounds)
                .with("accuracy", acc)
        };
        let results = Value::object().with(
            "points",
            Value::Array(vec![point(500, 0.6), point(2000, 0.8), point(8000, 1.0)]),
        );
        let files = render_dashboard(&[report("one_timer", "quick", results)], &[]).unwrap();
        let pg = &files[1].content;
        assert!(
            pg.contains("accuracy vs rounds</figcaption>"),
            "constant-key sweep must draw the line chart"
        );
        assert!(
            !pg.contains("by <code>timer</code>"),
            "a constant text column is not a suite key"
        );
    }

    #[test]
    fn delta_keys_union_across_presets_with_different_depths() {
        // Quick rows are unique on the text column alone; paper needs
        // text+rounds. The union key must still line the cells up.
        let point = |timer: &str, rounds: i64, acc: f64| {
            Value::object()
                .with("timer", timer)
                .with("rounds", rounds)
                .with("accuracy", acc)
        };
        let quick = Value::object().with(
            "points",
            Value::Array(vec![point("5us", 500, 0.6), point("1ms", 500, 0.5)]),
        );
        let paper = Value::object().with(
            "points",
            Value::Array(vec![
                point("5us", 500, 0.75),
                point("5us", 8000, 1.0),
                point("1ms", 500, 0.5),
                point("1ms", 8000, 0.625),
            ]),
        );
        let reports = vec![
            report("eval", "quick", quick),
            report("eval", "paper", paper),
        ];
        let files = render_dashboard(&reports, &[]).unwrap();
        let pg = &files[1].content;
        assert!(
            pg.contains("points[timer=5us, rounds=500].accuracy"),
            "shared cells must appear despite asymmetric key depth"
        );
        assert!(
            !pg.contains("rounds=8000].accuracy"),
            "paper-only cells don't match"
        );
    }

    #[test]
    fn bare_array_results_get_cell_matched_deltas_not_positional_ones() {
        let row = |name: &str, v: f64| Value::object().with("name", name).with("v", v);
        // Different row orders across presets: positional pairing would
        // compare a↔b; identity keys must pair a↔a.
        let quick = Value::Array(vec![row("a", 1.0), row("b", 2.0)]);
        let paper = Value::Array(vec![row("b", 20.0), row("a", 10.0)]);
        let reports = vec![
            report("bare", "quick", quick),
            report("bare", "paper", paper),
        ];
        let files = render_dashboard(&reports, &[]).unwrap();
        let pg = &files[1].content;
        assert!(pg.contains(
            "results[name=a].v</code></td><td class=\"num\">1</td><td class=\"num\">10</td>"
        ));
        assert!(!pg.contains("[0].v"), "no positional delta paths");
    }

    #[test]
    fn nan_and_overflow_values_render_without_panicking() {
        // NaN in a numeric column (pick_xy's distinct sort) and +inf from
        // an out-of-range integer literal must both degrade to output.
        let results = Value::object().with(
            "points",
            Value::Array(vec![
                Value::object()
                    .with("x", 1)
                    .with("y", f64::NAN)
                    .with("z", f64::INFINITY),
                Value::object().with("x", 2).with("y", 0.5).with("z", 1.0),
            ]),
        );
        let files = render_dashboard(&[report("weird", "quick", results)], &[]).unwrap();
        assert!(files[1].content.contains("<table"));
    }

    #[test]
    fn failed_cells_render_a_banner_and_an_index_marker() {
        let mut failed = report("eval", "paper", Value::Null);
        failed.doc = failed.doc.with("status", "failed").with(
            "error",
            Value::object()
                .with("kind", "scenario-panic")
                .with("message", "index out of bounds"),
        );
        let ok = report("eval", "quick", sweep_results());
        let files = render_dashboard(&[ok, failed], &[]).unwrap();
        let index = &files[0].content;
        assert!(
            index.contains("failed (scenario-panic)"),
            "index must mark the failed cell"
        );
        let pg = &files[1].content;
        assert!(
            pg.contains("class=\"failed\"") && pg.contains("index out of bounds"),
            "scenario page must carry a visible failure banner with the message"
        );
        assert!(
            !pg.contains("quick vs paper"),
            "a failed preset contributes no delta rows"
        );
    }

    #[test]
    fn check_input_mirrors_render_validation() {
        assert!(check_input(&report("eval", "quick", sweep_results())).is_ok());
        let mut failed = report("eval", "quick", Value::Null);
        failed.doc = failed.doc.with("status", "failed").with(
            "error",
            Value::object().with("kind", "timeout").with("message", "m"),
        );
        assert!(check_input(&failed).is_ok(), "failed cells are valid input");
        let wrong = InputReport {
            label: "w.json".to_string(),
            doc: Value::object().with("schema", "other/v2"),
        };
        assert!(matches!(
            check_input(&wrong),
            Err(ReportError::WrongSchema { .. })
        ));
    }
}
