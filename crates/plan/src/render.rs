//! Plan rendering in the visual syntax of Fig. 4.
//!
//! Two renderers are provided: Graphviz DOT (faithful to the paper's
//! shapes: plain boxes for selective exact services, `*`-labelled boxes
//! for proliferative ones, trapezia for search services, chunked services
//! drawn with split borders, join nodes as diamonds) and a compact ASCII
//! form for terminals and tests.

use crate::dag::{NodeKind, Plan};
use mdq_model::schema::{Schema, ServiceKind};
use std::fmt::Write as _;

/// Renders the plan as a Graphviz `digraph`.
pub fn to_dot(plan: &Plan, schema: &Schema) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph plan {{");
    let _ = writeln!(s, "  rankdir=LR;");
    let _ = writeln!(s, "  node [fontname=\"Helvetica\"];");
    for (i, node) in plan.nodes.iter().enumerate() {
        match &node.kind {
            NodeKind::Input => {
                let _ = writeln!(s, "  n{i} [label=\"IN\", shape=circle];");
            }
            NodeKind::Output => {
                let _ = writeln!(s, "  n{i} [label=\"OUT\", shape=doublecircle];");
            }
            NodeKind::Invoke { atom } => {
                let sig = schema.service(plan.query.atoms[*atom].service);
                let pos = plan.invoked_position(*atom);
                let mut label = sig.name.to_string();
                if sig.profile.is_proliferative() && sig.kind == ServiceKind::Exact {
                    label.push('*');
                }
                if sig.chunking.is_chunked() {
                    let f = plan.fetch_of(pos);
                    let _ = write!(label, "\\nF={f}");
                }
                let (shape, extra) = match (sig.kind, sig.chunking.is_chunked()) {
                    (ServiceKind::Search, _) => {
                        ("trapezium", ", style=filled, fillcolor=lightgrey")
                    }
                    (ServiceKind::Exact, true) => ("box3d", ""),
                    (ServiceKind::Exact, false) => ("box", ""),
                };
                let _ = writeln!(s, "  n{i} [label=\"{label}\", shape={shape}{extra}];");
            }
            NodeKind::Join { strategy, on, .. } => {
                let vars: Vec<&str> = on.iter().map(|v| plan.query.var_name(*v)).collect();
                let _ = writeln!(
                    s,
                    "  n{i} [label=\"{strategy}\\n[{}]\", shape=diamond];",
                    vars.join(",")
                );
            }
        }
    }
    for (i, node) in plan.nodes.iter().enumerate() {
        for inp in &node.inputs {
            let _ = writeln!(s, "  n{} -> n{i};", inp.0);
        }
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders the plan as indented ASCII, one node per line, with the
/// paper's decorations (`*` proliferative, `≈` search/ranked, `⫶` chunked).
pub fn to_ascii(plan: &Plan, schema: &Schema) -> String {
    let mut s = String::new();
    for (i, node) in plan.nodes.iter().enumerate() {
        let deps: Vec<String> = node.inputs.iter().map(|n| format!("n{}", n.0)).collect();
        let arrow = if deps.is_empty() {
            String::new()
        } else {
            format!(" ← {}", deps.join(", "))
        };
        match &node.kind {
            NodeKind::Input => {
                let _ = writeln!(s, "n{i}: IN");
            }
            NodeKind::Output => {
                let _ = writeln!(s, "n{i}: OUT{arrow}");
            }
            NodeKind::Invoke { atom } => {
                let sig = schema.service(plan.query.atoms[*atom].service);
                let pos = plan.invoked_position(*atom);
                let mut marks = String::new();
                if sig.profile.is_proliferative() && sig.kind == ServiceKind::Exact {
                    marks.push('*');
                }
                if sig.kind == ServiceKind::Search {
                    marks.push('≈');
                }
                let chunk = if sig.chunking.is_chunked() {
                    format!(" ⫶F={}", plan.fetch_of(pos))
                } else {
                    String::new()
                };
                let _ = writeln!(s, "n{i}: {}{marks}{chunk}{arrow}", sig.name);
            }
            NodeKind::Join { strategy, on, .. } => {
                let vars: Vec<&str> = on.iter().map(|v| plan.query.var_name(*v)).collect();
                let _ = writeln!(s, "n{i}: ⋈{strategy}[{}]{arrow}", vars.join(","));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_plan, StrategyRule};
    use crate::poset::Poset;
    use crate::test_fixtures::{running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use std::sync::Arc;

    fn fig6_plan() -> (Plan, Schema) {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("valid");
        let mut plan = build_plan(
            query,
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.set_fetch(ATOM_FLIGHT, 3);
        plan.set_fetch(ATOM_HOTEL, 4);
        (plan, schema)
    }

    use mdq_model::schema::Schema;

    #[test]
    fn dot_output_structure() {
        let (plan, schema) = fig6_plan();
        let dot = to_dot(&plan, &schema);
        assert!(dot.starts_with("digraph plan {"));
        assert!(
            dot.contains("label=\"conf*\""),
            "conf is proliferative exact:\n{dot}"
        );
        assert!(
            dot.contains("shape=trapezium"),
            "search services are trapezia"
        );
        assert!(dot.contains("F=3"), "flight fetch factor shown");
        assert!(dot.contains("F=4"), "hotel fetch factor shown");
        assert!(dot.contains("shape=diamond"), "join node present");
        assert!(dot.trim_end().ends_with('}'));
        // every edge references defined nodes
        for line in dot.lines().filter(|l| l.contains("->")) {
            assert!(line.trim().starts_with('n'));
        }
    }

    #[test]
    fn ascii_output_structure() {
        let (plan, schema) = fig6_plan();
        let text = to_ascii(&plan, &schema);
        assert!(text.contains("conf*"), "{text}");
        assert!(text.contains("flight≈ ⫶F=3"), "{text}");
        assert!(text.contains("hotel≈ ⫶F=4"), "{text}");
        assert!(text.contains("⋈MS"), "{text}");
        assert!(text.lines().next().expect("non-empty").contains("IN"));
        assert!(text.lines().last().expect("non-empty").contains("OUT"));
    }
}
