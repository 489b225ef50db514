//! Fidelity reports: render a ledger as self-contained Markdown or HTML.
//!
//! The report is the campaign layer's answer to the paper's result
//! tables: a run summary with unicode sparkline histograms (events/sec
//! and wall-time distributions over `ccsim_sim::Log2Tally`'s log2 buckets),
//! a paper-metric table, the expectation table — one verdict per
//! expectation and cell (axis combination), judged on the cell's mean
//! over its seeds against the range quoted from the paper (JFI > 0.99
//! for homogeneous Reno per Finding 4, the Mathis constants of Table 1)
//! — one row per cell with mean ± sd over seeds, per-axis breakdowns,
//! and the full per-job listing. Cells and axis values are listed in
//! order of first appearance in the ledger, which is the spec's order
//! (up to which of two concurrently running cells finishes first).

use crate::ledger::{Ledger, LedgerEntry};
use crate::metric::{Metric, METRICS};
use crate::spec::Expectation;
use ccsim_analysis::stats::{mean, std_dev};
use ccsim_sim::Log2Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a log2 tally as a unicode sparkline over its occupied
/// bucket range. Returns "(empty)" when nothing was recorded.
pub fn sparkline(hist: &Log2Tally) -> String {
    let counts = &hist.buckets;
    let Some(hi) = hist.max_bucket() else {
        return "(empty)".to_string();
    };
    let lo = counts.iter().position(|&c| c > 0).unwrap_or(0);
    let peak = counts[lo..=hi].iter().copied().max().unwrap_or(1).max(1);
    counts[lo..=hi]
        .iter()
        .map(|&c| {
            if c == 0 {
                SPARK[0]
            } else {
                // Scale the occupied range onto the 8 glyph levels.
                let level = (c * (SPARK.len() as u64 - 1)).div_ceil(peak) as usize;
                SPARK[level.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "—".to_string(),
    }
}

/// Format a tally's quantile in engineer-friendly units (k/M suffixes
/// above 10^3/10^6). Returns "—" for an empty tally.
fn fmt_quantile(hist: &Log2Tally, q: f64) -> String {
    match hist.quantile(q) {
        None => "—".to_string(),
        Some(v) if v >= 1e6 => format!("{:.1} M", v / 1e6),
        Some(v) if v >= 1e3 => format!("{:.1} k", v / 1e3),
        Some(v) => format!("{v:.0}"),
    }
}

fn fmt_mean_sd(values: &[f64]) -> String {
    match (mean(values), std_dev(values)) {
        (Some(m), Some(sd)) if values.len() > 1 => format!("{m:.4} ± {sd:.4}"),
        (Some(m), _) => format!("{m:.4}"),
        _ => "—".to_string(),
    }
}

fn collect(entries: &[&LedgerEntry], metric: &Metric) -> Vec<f64> {
    entries.iter().filter_map(|e| (metric.read)(e)).collect()
}

/// The metrics shown in the fidelity, per-cell and per-axis tables — the
/// rows that cite a paper artefact — in table order.
fn reported() -> impl Iterator<Item = (&'static Metric, &'static str)> {
    METRICS.iter().filter_map(|m| Some((m, m.paper?)))
}

/// One expectation's verdict on one cell: the cell's mean over its
/// successful runs (one per seed) against the expected range.
#[derive(Debug, Clone)]
pub struct ExpectationResult {
    pub expectation: Expectation,
    /// The axis combination judged; empty for a campaign without axes.
    pub cell: Vec<(String, String)>,
    /// The cell's successful runs, one per seed.
    pub runs: usize,
    /// Their mean simulated seconds (the convergence rule ends runs early).
    pub mean_sim_secs: f64,
    /// The metric in each of the cell's successful runs.
    pub values: Vec<f64>,
    /// Whether the mean of `values` is inside the range; `None` when no
    /// run of the cell carried the metric.
    pub pass: Option<bool>,
}

/// Check the ledger's stored expectations against each of its cells, in
/// expectation-major order.
pub fn check_expectations(ledger: &Ledger) -> Vec<ExpectationResult> {
    let ok: Vec<&LedgerEntry> = ledger.ok_entries().collect();
    let cells = group_by(&ok, |e| Some(e.axis.as_slice()));
    let mut results = Vec::with_capacity(ledger.expectations.len() * cells.len());
    for exp in &ledger.expectations {
        let metric = Metric::find(&exp.metric);
        for (cell, entries) in &cells {
            let values = metric.map_or(Vec::new(), |m| collect(entries, m));
            let pass = mean(&values)
                .map(|v| exp.min.is_none_or(|lo| v >= lo) && exp.max.is_none_or(|hi| v <= hi));
            let sim_secs: Vec<f64> = entries.iter().map(|e| e.sim_secs).collect();
            results.push(ExpectationResult {
                expectation: exp.clone(),
                cell: cell.to_vec(),
                runs: entries.len(),
                mean_sim_secs: mean(&sim_secs).unwrap_or(0.0),
                values,
                pass,
            });
        }
    }
    results
}

/// An expectation's range: "[lo, hi]", "≥ lo" or "≤ hi".
fn band(e: &Expectation) -> String {
    match (e.min, e.max) {
        (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
        (Some(lo), None) => format!("≥ {lo}"),
        (None, Some(hi)) => format!("≤ {hi}"),
        (None, None) => "(any)".to_string(),
    }
}

/// One verdict as a row of the report's Expectations table:
/// `| metric | cell | seeds | paper band | measured (mean ± sd) | mean sim s | verdict |`.
/// EXPERIMENTS.md's verdict tables are these rows, pasted.
pub fn verdict_row(r: &ExpectationResult) -> String {
    let verdict = match r.pass {
        Some(true) => "pass",
        Some(false) => "**FAIL**",
        None => "no data",
    };
    format!(
        "| {} | {} | {} | {} | {} | {:.0} | {verdict} |",
        r.expectation.metric,
        cell_label(&r.cell),
        r.runs,
        band(&r.expectation),
        fmt_mean_sd(&r.values),
        r.mean_sim_secs,
    )
}

/// Group entries by `key` (entries without one are left out), groups in
/// order of first appearance.
fn group_by<'a, K: PartialEq>(
    entries: &[&'a LedgerEntry],
    key: impl Fn(&'a LedgerEntry) -> Option<K>,
) -> Vec<(K, Vec<&'a LedgerEntry>)> {
    let mut groups: Vec<(K, Vec<&LedgerEntry>)> = Vec::new();
    for &e in entries {
        let Some(k) = key(e) else { continue };
        match groups.iter_mut().find(|(have, _)| *have == k) {
            Some((_, members)) => members.push(e),
            None => groups.push((k, vec![e])),
        }
    }
    groups
}

/// "flow_count=10, rtt_ms=20"; a campaign without axes is one cell.
fn cell_label(cell: &[(String, String)]) -> String {
    if cell.is_empty() {
        return "(all runs)".to_string();
    }
    let pairs: Vec<String> = cell.iter().map(|(p, v)| format!("{p}={v}")).collect();
    pairs.join(", ")
}

fn axis_params(entries: &[&LedgerEntry]) -> Vec<String> {
    let mut params = Vec::new();
    for e in entries {
        for (p, _) in &e.axis {
            if !params.contains(p) {
                params.push(p.clone());
            }
        }
    }
    params
}

/// Render the full Markdown report for a ledger.
pub fn markdown(ledger: &Ledger) -> String {
    let mut out = String::with_capacity(4096);
    let ok: Vec<&LedgerEntry> = ledger.ok_entries().collect();
    let failed = ledger.entries.len() - ok.len();

    let _ = writeln!(out, "# Campaign report: {}\n", ledger.campaign);
    let _ = writeln!(
        out,
        "- Jobs: {} ({} ok, {} failed)",
        ledger.entries.len(),
        ok.len(),
        failed
    );
    if ledger.truncated {
        let _ = writeln!(
            out,
            "- **Warning:** ledger had a truncated final line (campaign was killed mid-run)"
        );
    }
    let total_events: u64 = ok.iter().map(|e| e.events_processed).sum();
    let total_wall: f64 = ok.iter().map(|e| e.wall_secs).sum();
    let total_sim: f64 = ok.iter().map(|e| e.sim_secs).sum();
    let _ = writeln!(
        out,
        "- Events: {total_events} over {total_sim:.1} simulated s in {total_wall:.1} wall s"
    );
    if total_wall > 0.0 {
        let _ = writeln!(
            out,
            "- Aggregate rate: {:.0} events/sec",
            total_events as f64 / total_wall
        );
    }
    out.push('\n');

    // Run-shape sparklines: where did wall time and event rate land?
    // Log2-bucketed like the engine's own metric histograms.
    let mut eps_hist = Log2Tally::default();
    let mut wall_hist = Log2Tally::default();
    for e in &ok {
        eps_hist.record(e.events_per_sec as u64);
        wall_hist.record((e.wall_secs * 1e3) as u64);
    }
    let _ = writeln!(out, "## Run shape\n");
    let _ = writeln!(
        out,
        "| distribution (log2 buckets) | sparkline | p50 | p90 | p99 |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|");
    let _ = writeln!(
        out,
        "| events/sec | `{}` | {} | {} | {} |",
        sparkline(&eps_hist),
        fmt_quantile(&eps_hist, 0.50),
        fmt_quantile(&eps_hist, 0.90),
        fmt_quantile(&eps_hist, 0.99),
    );
    let _ = writeln!(
        out,
        "| wall ms per run | `{}` | {} | {} | {} |",
        sparkline(&wall_hist),
        fmt_quantile(&wall_hist, 0.50),
        fmt_quantile(&wall_hist, 0.90),
        fmt_quantile(&wall_hist, 0.99),
    );
    // Present only for campaigns run with `--timeline`: where in sim
    // time each run first reached (and held) an α-fair allocation.
    let conv: Vec<f64> = ok
        .iter()
        .filter_map(|e| e.metrics.as_ref()?.convergence_time)
        .collect();
    if !conv.is_empty() {
        let mut conv_hist = Log2Tally::default();
        for c in &conv {
            conv_hist.record((c * 1e3) as u64);
        }
        let _ = writeln!(
            out,
            "| convergence ms (sim) | `{}` | {} | {} | {} |",
            sparkline(&conv_hist),
            fmt_quantile(&conv_hist, 0.50),
            fmt_quantile(&conv_hist, 0.90),
            fmt_quantile(&conv_hist, 0.99),
        );
    }
    out.push('\n');

    // Paper fidelity metrics over the whole campaign.
    let _ = writeln!(out, "## Fidelity metrics (mean ± sd over runs)\n");
    let _ = writeln!(out, "| metric | value | paper reference |");
    let _ = writeln!(out, "|---|---|---|");
    for (metric, reference) in reported() {
        let _ = writeln!(
            out,
            "| {} | {} | {reference} |",
            metric.name,
            fmt_mean_sd(&collect(&ok, metric)),
        );
    }
    out.push('\n');

    // Per-bottleneck breakdown: runs on multi-bottleneck topologies (or
    // with AQM/ECN enabled) carry one record per congested link; group
    // them by link so each bottleneck gets its own utilization/JFI row.
    // (utilizations, jfis, loss rates, max queue bytes, CE-marked packets)
    type LinkAgg = (Vec<f64>, Vec<f64>, Vec<f64>, u64, u64);
    let mut per_link: BTreeMap<(u32, String), LinkAgg> = BTreeMap::new();
    for e in &ok {
        let Some(m) = e.metrics.as_ref() else {
            continue;
        };
        for b in &m.bottlenecks {
            let slot = per_link.entry((b.link, b.label.clone())).or_default();
            slot.0.push(b.utilization);
            if let Some(jfi) = b.jfi {
                slot.1.push(jfi);
            }
            slot.2.push(b.loss_rate);
            slot.3 = slot.3.max(b.max_queue_bytes);
            slot.4 += b.ce_marked_pkts;
        }
    }
    if !per_link.is_empty() {
        let _ = writeln!(out, "## Per-bottleneck (mean ± sd over runs)\n");
        let _ = writeln!(
            out,
            "| link | label | utilization | jfi | loss_rate | max queue B | CE marks |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for ((link, label), (util, jfi, loss, max_q, ce)) in &per_link {
            let _ = writeln!(
                out,
                "| {link} | {label} | {} | {} | {} | {max_q} | {ce} |",
                fmt_mean_sd(util),
                fmt_mean_sd(jfi),
                fmt_mean_sd(loss),
            );
        }
        out.push('\n');
    }

    // Expectations: one verdict per expectation and cell.
    let verdicts = check_expectations(ledger);
    if !verdicts.is_empty() {
        let _ = writeln!(out, "## Expectations (each cell's mean over its seeds)\n");
        for e in &ledger.expectations {
            let _ = writeln!(out, "- {} {}: {}", e.metric, band(e), e.source);
        }
        let _ = writeln!(
            out,
            "\n| metric | cell | seeds | paper band | measured (mean ± sd) | mean sim s | verdict |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for r in &verdicts {
            let _ = writeln!(out, "{}", verdict_row(r));
        }
        out.push('\n');
    }

    // One row per cell: every table metric as mean ± sd over the cell's
    // seeds, closed by the cell's verdict over all expectations.
    let params = axis_params(&ok);
    if !params.is_empty() {
        let _ = writeln!(out, "## Cells (mean ± sd over seeds)\n");
        let mut header = String::from("|");
        for param in &params {
            let _ = write!(header, " {param} |");
        }
        header.push_str(" runs |");
        for (metric, _) in reported() {
            let _ = write!(header, " {} |", metric.name);
        }
        header.push_str(" verdict |");
        let _ = writeln!(out, "{header}");
        let columns = params.len() + 1 + reported().count() + 1;
        let _ = writeln!(out, "|{}", "---|".repeat(columns));
        for (cell, entries) in group_by(&ok, |e| Some(e.axis.as_slice())) {
            out.push('|');
            for param in &params {
                let value = cell.iter().find(|(p, _)| p == param);
                let _ = write!(out, " {} |", value.map_or("—", |(_, v)| v));
            }
            let _ = write!(out, " {} |", entries.len());
            for (metric, _) in reported() {
                let _ = write!(out, " {} |", fmt_mean_sd(&collect(&entries, metric)));
            }
            let mine = || verdicts.iter().filter(|r| r.cell == cell);
            let failed: Vec<&str> = mine()
                .filter(|r| r.pass == Some(false))
                .map(|r| r.expectation.metric.as_str())
                .collect();
            let verdict = if !failed.is_empty() {
                format!("**FAIL** ({})", failed.join(", "))
            } else if mine().any(|r| r.pass == Some(true)) {
                "pass".to_string()
            } else {
                "—".to_string()
            };
            let _ = writeln!(out, " {verdict} |");
        }
        out.push('\n');
    }

    // Per-axis breakdowns.
    for param in &params {
        let groups = group_by(&ok, |e| {
            let (_, value) = e.axis.iter().find(|(p, _)| p == param)?;
            Some(value.as_str())
        });
        if groups.len() < 2 {
            continue;
        }
        let _ = writeln!(out, "## By {param}\n");
        let _ = write!(out, "| {param} | runs |");
        for (metric, _) in reported() {
            let _ = write!(out, " {} |", metric.name);
        }
        out.push('\n');
        let _ = writeln!(out, "|---|---|{}", "---|".repeat(reported().count()));
        for (value, entries) in &groups {
            let _ = write!(out, "| {value} | {} |", entries.len());
            for (metric, _) in reported() {
                let _ = write!(out, " {} |", fmt_mean_sd(&collect(entries, metric)));
            }
            out.push('\n');
        }
        out.push('\n');
    }

    // Full job listing.
    let _ = writeln!(out, "## Jobs\n");
    let _ = writeln!(
        out,
        "| job | outcome digest | events/sec | jfi | util | status |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for e in &ledger.entries {
        let (digest, status) = match &e.outcome_digest {
            Some(d) => (format!("`{d}`"), "ok".to_string()),
            None => (
                "—".to_string(),
                format!(
                    "failed: {}",
                    e.error.as_deref().unwrap_or("?").replace('|', "\\|")
                ),
            ),
        };
        let m = e.metrics.as_ref();
        let _ = writeln!(
            out,
            "| {} | {digest} | {:.0} | {} | {} | {status} |",
            e.job,
            e.events_per_sec,
            fmt_opt(m.and_then(|m| m.jfi)),
            fmt_opt(m.map(|m| m.utilization)),
        );
    }
    out
}

/// Render the report as a self-contained HTML page (no external assets)
/// by converting the Markdown through a converter that understands the
/// subset [`markdown`] emits: headings, pipe tables, bullet lists,
/// inline code, and bold.
pub fn html(ledger: &Ledger) -> String {
    let md = markdown(ledger);
    let mut out = String::with_capacity(md.len() * 2);
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>");
    push_html_escaped(&mut out, &format!("Campaign report: {}", ledger.campaign));
    out.push_str(
        "</title>\n<style>\nbody{font-family:system-ui,sans-serif;max-width:72rem;\
         margin:2rem auto;padding:0 1rem;color:#1a1a20}\ntable{border-collapse:collapse;\
         margin:1rem 0}\nth,td{border:1px solid #ccc;padding:0.3rem 0.6rem;\
         text-align:left}\nth{background:#f0f0f4}\ncode{background:#f4f4f8;\
         padding:0 0.2rem}\n</style></head><body>\n",
    );

    let mut in_table = false;
    let mut in_list = false;
    for line in md.lines() {
        let is_table = line.starts_with('|');
        let is_item = line.starts_with("- ");
        if in_table && !is_table {
            out.push_str("</table>\n");
            in_table = false;
        }
        if in_list && !is_item {
            out.push_str("</ul>\n");
            in_list = false;
        }
        if let Some(h) = line.strip_prefix("## ") {
            out.push_str("<h2>");
            push_inline(&mut out, h);
            out.push_str("</h2>\n");
        } else if let Some(h) = line.strip_prefix("# ") {
            out.push_str("<h1>");
            push_inline(&mut out, h);
            out.push_str("</h1>\n");
        } else if is_item {
            if !in_list {
                out.push_str("<ul>\n");
                in_list = true;
            }
            out.push_str("<li>");
            push_inline(&mut out, &line[2..]);
            out.push_str("</li>\n");
        } else if is_table {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            // Separator row (|---|---|) marks the previous row as header;
            // our converter instead emits <th> for the first row of each
            // table and skips the separator.
            if cells.iter().all(|c| c.chars().all(|ch| ch == '-')) {
                continue;
            }
            let tag = if !in_table { "th" } else { "td" };
            if !in_table {
                out.push_str("<table>\n");
                in_table = true;
            }
            out.push_str("<tr>");
            for cell in cells {
                let _ = write!(out, "<{tag}>");
                push_inline(&mut out, cell);
                let _ = write!(out, "</{tag}>");
            }
            out.push_str("</tr>\n");
        } else if !line.is_empty() {
            out.push_str("<p>");
            push_inline(&mut out, line);
            out.push_str("</p>\n");
        }
    }
    if in_table {
        out.push_str("</table>\n");
    }
    if in_list {
        out.push_str("</ul>\n");
    }
    out.push_str("</body></html>\n");
    out
}

fn push_html_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
}

/// Escape a Markdown fragment, mapping `**bold**` and `` `code` `` spans.
fn push_inline(out: &mut String, text: &str) {
    let mut rest = text;
    loop {
        if let Some(start) = rest.find("**") {
            if let Some(len) = rest[start + 2..].find("**") {
                push_html_escaped(out, &rest[..start]);
                out.push_str("<strong>");
                push_html_escaped(out, &rest[start + 2..start + 2 + len]);
                out.push_str("</strong>");
                rest = &rest[start + 4 + len..];
                continue;
            }
        }
        if let Some(start) = rest.find('`') {
            if let Some(len) = rest[start + 1..].find('`') {
                push_html_escaped(out, &rest[..start]);
                out.push_str("<code>");
                push_html_escaped(out, &rest[start + 1..start + 1 + len]);
                out.push_str("</code>");
                rest = &rest[start + 2 + len..];
                continue;
            }
        }
        push_html_escaped(out, rest);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rollup;
    use crate::spec::Tolerances;

    fn entry(seed: u64, cca: &str, jfi: f64) -> LedgerEntry {
        LedgerEntry {
            job: format!("c/cca={cca}/seed={seed}"),
            axis: vec![("cca".into(), cca.into())],
            seed,
            config_digest: format!("{:016x}", seed * 7 + cca.len() as u64),
            outcome_digest: Some(format!("{seed:016x}")),
            error: None,
            crash_bundle: None,
            attempts: 1,
            quarantined: false,
            sim_secs: 5.0,
            wall_secs: 0.5,
            events_processed: 100_000,
            events_per_sec: 200_000.0,
            eps_by_kind: Vec::new(),
            metrics: Some(Rollup {
                jfi: Some(jfi),
                utilization: 0.9,
                aggregate_mbps: 9.0,
                loss_rate: 0.01,
                mathis_err: Some(0.1),
                share_a: Some(0.5),
                mathis_c_halving: Some(1.4),
                ..Rollup::default()
            }),
            manifest: None,
        }
    }

    fn sample_ledger() -> Ledger {
        let mut l = Ledger::new("c", Tolerances::default());
        l.expectations = vec![
            Expectation {
                metric: "jfi".into(),
                min: Some(0.8),
                max: None,
                source: "Figure 4".into(),
            },
            Expectation {
                metric: "loss_rate".into(),
                min: None,
                max: Some(0.001),
                source: "Figure 2".into(),
            },
        ];
        l.entries = vec![
            entry(1, "reno", 0.95),
            entry(2, "reno", 0.97),
            entry(1, "cubic", 0.91),
            entry(2, "cubic", 0.89),
        ];
        l
    }

    #[test]
    fn sparkline_covers_occupied_buckets_only() {
        let mut h = Log2Tally::default();
        assert_eq!(sparkline(&h), "(empty)");
        for v in [1u64, 1, 1, 2, 1000] {
            h.record(v);
        }
        let s = sparkline(&h);
        // Buckets 1 (value 1, count 3), 2 (value 2), then a gap to
        // bucket 10 (value 1000): 10 glyphs, peak first, valley inside.
        assert_eq!(s.chars().count(), 10);
        assert_eq!(s.chars().next(), Some('█'));
        assert!(s.contains('▁'));
    }

    #[test]
    fn expectations_judge_each_cell_on_its_seed_mean() {
        let mut ledger = sample_ledger();
        let results = check_expectations(&ledger);
        // Two expectations × two cells, expectation-major, cells in
        // ledger order.
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].cell, [("cca".to_string(), "reno".to_string())]);
        assert_eq!(results[0].values, [0.95, 0.97]);
        assert_eq!(results[0].pass, Some(true)); // reno mean jfi 0.96 >= 0.8
        assert_eq!(results[1].pass, Some(true)); // cubic mean 0.90
        assert_eq!(results[2].pass, Some(false)); // loss 0.01 > 0.001
        assert_eq!(results[3].pass, Some(false));

        // A bound the whole-ledger mean (0.93) would pass but one cell
        // (cubic, 0.90) does not: the verdict is per cell.
        ledger.expectations[0].min = Some(0.92);
        let results = check_expectations(&ledger);
        assert_eq!(results[0].pass, Some(true));
        assert_eq!(results[1].pass, Some(false));
        let md = markdown(&ledger);
        assert!(md.contains("- jfi ≥ 0.92: Figure 4\n"));
        assert!(md.contains("| jfi | cca=cubic | 2 | ≥ 0.92 | 0.9000 ± 0.0100 | 5 | **FAIL** |"));
        assert!(md.contains("| jfi | cca=reno | 2 | ≥ 0.92 | 0.9600 ± 0.0100 | 5 | pass |"));
        // A metric no run of the cell carries is "no data", not a pass.
        ledger.expectations[0].metric = "sync_index".into();
        assert!(check_expectations(&ledger)[0].pass.is_none());
        assert!(markdown(&ledger).contains("| no data |"));
    }

    /// Rows follow the ledger (= the spec), not string order: a
    /// `BTreeMap<String, _>` listed 100, 20, 200 and interleaved a
    /// 10/30/50/1000 sweep.
    #[test]
    fn axis_values_and_cells_keep_spec_order() {
        let mut ledger = sample_ledger();
        ledger.entries.clear();
        for count in ["10", "1000"] {
            for rtt in ["20", "100", "200"] {
                for seed in [1, 2] {
                    let mut e = entry(seed, "reno", 0.9);
                    e.axis = vec![
                        ("flow_count".into(), count.into()),
                        ("rtt_ms".into(), rtt.into()),
                    ];
                    ledger.entries.push(e);
                }
            }
        }
        let md = markdown(&ledger);
        let rows_after = |heading: &str| -> Vec<String> {
            md.lines()
                .skip_while(|l| *l != heading)
                .skip(4) // heading, blank, table header, rule
                .take_while(|l| l.starts_with('|'))
                .map(|l| l.split('|').take(3).collect::<Vec<_>>().join("|"))
                .collect()
        };
        assert_eq!(
            rows_after("## By rtt_ms"),
            ["| 20 | 4 ", "| 100 | 4 ", "| 200 | 4 "]
        );
        assert_eq!(
            rows_after("## Cells (mean ± sd over seeds)"),
            [
                "| 10 | 20 ",
                "| 10 | 100 ",
                "| 10 | 200 ",
                "| 1000 | 20 ",
                "| 1000 | 100 ",
                "| 1000 | 200 "
            ]
        );
        // Each cell row carries its run count, its seed mean ± sd, and
        // the verdict over every expectation.
        assert!(md.contains("| 10 | 20 | 2 | 0.9000 ± 0.0000 |"));
        let cell = md.lines().find(|l| l.starts_with("| 10 | 20 | 2 |"));
        assert!(cell.unwrap().ends_with("| **FAIL** (loss_rate) |"));
    }

    #[test]
    fn markdown_report_has_the_expected_sections() {
        let md = markdown(&sample_ledger());
        assert!(md.contains("# Campaign report: c"));
        assert!(md.contains("## Fidelity metrics"));
        assert!(md.contains("## Expectations"));
        assert!(md.contains("## By cca"));
        assert!(md.contains("| cubic | 2 |"));
        assert!(md.contains("## Jobs"));
        assert!(md.contains("c/cca=reno/seed=1"));
        assert!(md.contains("**FAIL**"));
        // The reference column follows the paper's own index.
        assert!(md.contains("| mathis_c_halving | 1.4000 ± 0.0000 | Table 1 (C from the CWND"));
        assert!(md.contains("| mathis_err | 0.1000 ± 0.0000 | Figure 2 (median error, packet"));
        assert!(md.contains("| loss_to_halving_ratio | — | Figure 3 ("));
        assert!(md.contains("| share_a | 0.5000 ± 0.0000 | Figures 5–8 ("));
        // Run-shape rows carry percentiles next to the sparklines. Every
        // sample entry records events_per_sec = 200k, so each eps
        // percentile interpolates inside the [131072, 262143] bucket.
        assert!(md.contains("| p50 | p90 | p99 |"));
        let eps_row = md
            .lines()
            .find(|l| l.starts_with("| events/sec"))
            .expect("events/sec row");
        let p50 = eps_row
            .split('|')
            .nth(3)
            .expect("p50 column")
            .trim()
            .to_string();
        assert!(p50.ends_with('k'), "p50 = {p50:?}");
        // No run carried a timeline, so the convergence row is absent and
        // its per-axis column shows an em-dash.
        assert!(!md.contains("convergence ms"));
        assert!(md.contains(" convergence_time |"));
    }

    #[test]
    fn convergence_sparkline_appears_when_timelines_were_captured() {
        let mut ledger = sample_ledger();
        for (i, e) in ledger.entries.iter_mut().enumerate() {
            e.metrics.as_mut().unwrap().convergence_time = Some(1.5 + i as f64 * 0.5);
        }
        let md = markdown(&ledger);
        assert!(md.contains("| convergence ms (sim) | `"));
        // The per-axis table now carries real numbers in the column.
        let cubic_row = md
            .lines()
            .skip_while(|l| *l != "## By cca")
            .find(|l| l.starts_with("| cubic | 2 |"))
            .expect("cubic axis row");
        let last = cubic_row
            .trim_end_matches(" |")
            .rsplit("| ")
            .next()
            .unwrap();
        assert!(last.contains("±"), "convergence cell = {last:?}");
    }

    #[test]
    fn per_bottleneck_section_appears_only_when_records_exist() {
        let plain = markdown(&sample_ledger());
        assert!(!plain.contains("Per-bottleneck"));

        let mut ledger = sample_ledger();
        for (i, e) in ledger.entries.iter_mut().enumerate() {
            e.metrics.as_mut().unwrap().bottlenecks = vec![ccsim_core::BottleneckMetrics {
                link: 0,
                label: "bn0".into(),
                utilization: 0.9 + i as f64 * 0.01,
                jfi: Some(0.8),
                loss_rate: 0.001,
                max_queue_bytes: 50_000 + i as u64,
                ce_marked_pkts: 3,
            }];
        }
        let md = markdown(&ledger);
        assert!(md.contains("## Per-bottleneck"));
        assert!(md.contains("| 0 | bn0 |"));
        // max queue is the max over runs, CE marks the total.
        assert!(md.contains("| 50003 | 12 |"));
    }

    #[test]
    fn failed_runs_show_in_the_job_table() {
        let mut ledger = sample_ledger();
        ledger.entries[3].outcome_digest = None;
        ledger.entries[3].metrics = None;
        ledger.entries[3].error = Some("invariant violated | queue".into());
        let md = markdown(&ledger);
        assert!(md.contains("(3 ok, 1 failed)"));
        assert!(md.contains("failed: invariant violated \\| queue"));
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let mut ledger = sample_ledger();
        ledger.entries[0].job = "c/cca=<reno>&co/seed=1".into();
        let page = html(&ledger);
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<table>"));
        assert!(page.contains("&lt;reno&gt;&amp;co"));
        assert!(!page.contains("<reno>"));
        assert!(page.contains("</html>"));
        // No external assets.
        assert!(!page.contains("http://"));
        assert!(!page.contains("https://"));
        assert!(page.contains("<strong>FAIL</strong>"));
    }
}
