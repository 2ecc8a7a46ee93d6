//! EXPLAIN-style plan presentation: the Fig. 8 annotated plan as text.
//!
//! Combines a plan's structure with the estimator's `t_in` / `t_out` /
//! `calls` annotations and the per-node cost-model quantities, producing
//! the kind of output a database EXPLAIN would — and exactly the numbers
//! printed inside the boxes of Fig. 8.

use crate::estimate::Annotation;
use mdq_model::schema::Schema;
use mdq_obs::span::OperatorStats;
use mdq_plan::dag::{NodeKind, Plan};
use std::fmt::Write as _;

/// Renders an annotated plan as an aligned table: one row per node with
/// operator, fetch factor, `t_in`, `calls`, `t_out`, and per-node work
/// (`F · calls · τ`, the Eq. 4 bottleneck term).
pub fn explain(plan: &Plan, schema: &Schema, ann: &Annotation) -> String {
    let mut rows: Vec<[String; 7]> = Vec::new();
    for (i, node) in plan.nodes.iter().enumerate() {
        let (op, fetch, calls, work) = match &node.kind {
            NodeKind::Input => (
                "IN".to_string(),
                String::new(),
                String::new(),
                String::new(),
            ),
            NodeKind::Output => (
                "OUT".to_string(),
                String::new(),
                String::new(),
                String::new(),
            ),
            NodeKind::Invoke { atom } => {
                let sig = schema.service(plan.query.atoms[*atom].service);
                let pos = plan.invoked_position(*atom);
                let f = plan.fetch_of(pos);
                let work = f as f64 * ann.calls[i] * sig.profile.effective_response_time();
                (
                    format!("invoke {}", sig.name),
                    if sig.chunking.is_chunked() {
                        format!("F={f}")
                    } else {
                        String::new()
                    },
                    fmt_num(ann.calls[i]),
                    format!("{work:.2}s"),
                )
            }
            NodeKind::Join { strategy, on, .. } => {
                let vars: Vec<&str> = on.iter().map(|v| plan.query.var_name(*v)).collect();
                (
                    format!("join {strategy} [{}]", vars.join(",")),
                    String::new(),
                    String::new(),
                    String::new(),
                )
            }
        };
        rows.push([
            format!("n{i}"),
            op,
            fetch,
            fmt_num(ann.t_in[i]),
            calls,
            fmt_num(ann.t_out[i]),
            work,
        ]);
    }

    let headers = [
        "node", "operator", "fetch", "t_in", "calls", "t_out", "work",
    ];
    let mut s = render_table(&headers, rows.iter().map(|r| &r[..]));
    let _ = writeln!(
        s,
        "estimated answers: {} (cache: {})",
        fmt_num(ann.out_size()),
        ann.cache.label()
    );
    s
}

/// Renders EXPLAIN ANALYZE: the estimator's annotations side by side
/// with the per-node runtime statistics a driver actually observed
/// (`stats` indexed like `plan.nodes`, as produced by the `mdq-exec`
/// drivers). Estimate columns carry the `est` prefix, observed columns
/// the `obs` prefix; `time` is the node's simulated service seconds
/// (attempt latencies plus accounted backoff).
pub fn explain_analyze(
    plan: &Plan,
    schema: &Schema,
    ann: &Annotation,
    stats: &[OperatorStats],
) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, node) in plan.nodes.iter().enumerate() {
        let ob = stats.get(i).copied().unwrap_or_default();
        let (op, est_calls) = match &node.kind {
            NodeKind::Input => ("IN".to_string(), String::new()),
            NodeKind::Output => ("OUT".to_string(), String::new()),
            NodeKind::Invoke { atom } => {
                let sig = schema.service(plan.query.atoms[*atom].service);
                (format!("invoke {}", sig.name), fmt_num(ann.calls[i]))
            }
            NodeKind::Join { strategy, on, .. } => {
                let vars: Vec<&str> = on.iter().map(|v| plan.query.var_name(*v)).collect();
                (
                    format!("join {strategy} [{}]", vars.join(",")),
                    String::new(),
                )
            }
        };
        rows.push(vec![
            format!("n{i}"),
            op,
            fmt_num(ann.t_in[i]),
            ob.rows_in.to_string(),
            fmt_num(ann.t_out[i]),
            ob.rows_out.to_string(),
            est_calls,
            ob.calls.to_string(),
            ob.retries.to_string(),
            ob.cached_pages.to_string(),
            ob.sub_result_rows.to_string(),
            ob.batches.to_string(),
            ob.candidates.to_string(),
            format!("{:.2}s", ob.sim_seconds),
        ]);
    }
    let headers = [
        "node",
        "operator",
        "est t_in",
        "obs in",
        "est t_out",
        "obs out",
        "est calls",
        "obs calls",
        "retries",
        "cached",
        "replayed",
        "batches",
        "candidates",
        "time",
    ];
    let mut s = render_table(&headers, rows.iter().map(|r| &r[..]));
    let total_calls: u64 = stats.iter().map(|o| o.calls).sum();
    let total_time: f64 = stats.iter().map(|o| o.sim_seconds).sum();
    let answers = stats
        .get(plan.output_node().0)
        .map(|o| o.rows_out)
        .unwrap_or(0);
    let _ = writeln!(
        s,
        "estimated answers: {} (cache: {}); observed answers: {answers}, \
         {total_calls} calls, {total_time:.2}s service time",
        fmt_num(ann.out_size()),
        ann.cache.label()
    );
    s
}

/// Writes one aligned, dash-underlined table.
fn render_table<'a>(headers: &[&str], rows: impl Iterator<Item = &'a [String]> + Clone) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows.clone() {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut s = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(s, "{:<w$}  ", h, w = widths[i]);
    }
    let _ = writeln!(s);
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(s, "{:-<w$}  ", "", w = widths[i]);
    }
    let _ = writeln!(s);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(s, "{:<w$}  ", cell, w = widths[i]);
        }
        let _ = writeln!(s);
    }
    s
}

fn fmt_num(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{CacheSetting, Estimator};
    use crate::selectivity::SelectivityModel;
    use crate::test_fixtures::{fig6_poset, running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_FLIGHT, ATOM_HOTEL};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use std::sync::Arc;

    #[test]
    fn explain_shows_fig8_numbers() {
        let RunningExample { schema, query } = running_example();
        let mut plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.set_fetch(ATOM_FLIGHT, 3);
        plan.set_fetch(ATOM_HOTEL, 4);
        let sel = SelectivityModel::default();
        let ann = Estimator::new(&schema, &sel, CacheSetting::OneCall).annotate(&plan);
        let text = explain(&plan, &schema, &ann);
        assert!(text.contains("invoke conf"), "{text}");
        assert!(text.contains("F=3"), "{text}");
        assert!(text.contains("F=4"), "{text}");
        assert!(text.contains("1500"), "join t_in:\n{text}");
        assert!(text.contains("75"), "flight t_out:\n{text}");
        assert!(text.contains("one-call cache"), "{text}");
        // weather's work = 20 · 1.5 = 30s appears
        assert!(text.contains("30.00s"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= plan.nodes.len() + 2);
    }

    #[test]
    fn explain_analyze_renders_observed_columns() {
        let RunningExample { schema, query } = running_example();
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let sel = SelectivityModel::default();
        let ann = Estimator::new(&schema, &sel, CacheSetting::OneCall).annotate(&plan);
        let mut stats = vec![OperatorStats::default(); plan.nodes.len()];
        stats[1].rows_out = 20;
        stats[1].calls = 1;
        stats[1].sim_seconds = 1.5;
        stats[1].retries = 2;
        let text = explain_analyze(&plan, &schema, &ann, &stats);
        assert!(text.contains("obs calls"), "{text}");
        assert!(text.contains("1.50s"), "{text}");
        assert!(text.contains("observed answers: 0"), "{text}");
        // one line per node plus header, underline and footer
        assert_eq!(text.lines().count(), plan.nodes.len() + 3, "{text}");
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(fmt_num(20.0), "20");
        assert_eq!(fmt_num(0.4), "0.40");
        assert_eq!(fmt_num(1500.0), "1500");
    }
}
