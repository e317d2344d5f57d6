//! `EXPLAIN` / `EXPLAIN ANALYZE` plan rendering.
//!
//! The physical plan is rendered as a tree, top-down in execution-output
//! order: Sort/Limit → Project → Having → Aggregate → Filter → join chain →
//! scans. Each node that the executor instruments carries a stable **node
//! key** (`scan0`, `join0`, `filter`, `aggregate`, `sort`) — the same keys
//! [`crate::catalog::ExecTrace`] accumulates statistics under, so `EXPLAIN
//! ANALYZE` annotation is a straight lookup.
//!
//! The tree shows what runs: a `WHERE` pushed below the joins renders as
//! `[filter: …]` on each scan it filters, and `EXPLAIN ANALYZE` adds the
//! rows that filter kept (`kept=`) beside the rows the scan decoded
//! (`rows=`), its time folded into the scan's `wall=`. A `Filter` node
//! renders only for a `WHERE` that runs after the joins.

use crate::catalog::{NodeStat, SsidMode};
use crate::plan::PhysicalPlan;
use std::collections::BTreeMap;

/// One rendered plan node.
struct Node {
    label: String,
    /// Statistics key, for nodes the executor instruments.
    key: Option<String>,
    children: Vec<Node>,
}

impl Node {
    fn new(label: String, key: Option<String>) -> Node {
        Node {
            label,
            key,
            children: Vec::new(),
        }
    }
}

/// Build the display tree for a plan.
fn build_tree(plan: &PhysicalPlan) -> Node {
    // Scans and joins form a left-deep chain: scans[0] ⨝ scans[1] ⨝ ….
    let mut current = scan_node(plan, 0);
    for (i, join) in plan.joins.iter().enumerate() {
        let mut label = format!("HashJoin (keys: {})", join.left_keys.len());
        // The cost model's decision: which side feeds the build table, and
        // the estimated row counts it compared (left, right).
        if let Some((l, r)) = join.build_est {
            let (side, est) = if join.build_left {
                ("left", l)
            } else {
                ("right", r)
            };
            label.push_str(&format!(" [build={side} est_rows={est}]"));
        }
        let mut node = Node::new(label, Some(format!("join{i}")));
        node.children.push(current);
        node.children.push(scan_node(plan, i + 1));
        current = node;
    }

    if plan.residual_filter().is_some() {
        let mut node = Node::new("Filter".into(), Some("filter".into()));
        node.children.push(current);
        current = node;
    }

    if let Some(agg) = &plan.aggregate {
        let label = format!(
            "Aggregate (groups: {}, aggs: {})",
            agg.group_exprs.len(),
            agg.aggs.len()
        );
        let mut node = Node::new(label, Some("aggregate".into()));
        node.children.push(current);
        current = node;
    }

    if plan.having.is_some() {
        let mut node = Node::new("Having".into(), None);
        node.children.push(current);
        current = node;
    }

    let names: Vec<&str> = plan.projections.iter().map(|p| p.name.as_str()).collect();
    let mut project = Node::new(format!("Project [{}]", names.join(", ")), None);
    project.children.push(current);
    current = project;

    if !plan.order_by.is_empty() {
        let label = match plan.limit {
            Some(l) => format!("Sort (keys: {}, limit: {l})", plan.order_by.len()),
            None => format!("Sort (keys: {})", plan.order_by.len()),
        };
        let mut node = Node::new(label, Some("sort".into()));
        node.children.push(current);
        current = node;
    } else if let Some(l) = plan.limit {
        let mut node = Node::new(format!("Limit {l}"), None);
        node.children.push(current);
        current = node;
    }

    current
}

fn scan_node(plan: &PhysicalPlan, i: usize) -> Node {
    let scan = &plan.scans[i];
    let mut label = format!("Scan {}", scan.table.name());
    match scan.hints.ssid {
        SsidMode::Latest => {}
        SsidMode::Exact(ssid) => label.push_str(&format!(" [ssid={ssid}]")),
        SsidMode::AllRetained => label.push_str(" [ssid=all]"),
    }
    if let Some(key) = &scan.hints.key_eq {
        label.push_str(&format!(" [point={key}]"));
    }
    if let Some(est) = scan.est_rows {
        label.push_str(&format!(" [est_rows={est}]"));
    }
    if !scan.filter.is_empty() {
        let sql: Vec<&str> = scan.filter.iter().map(|c| c.sql.as_str()).collect();
        label.push_str(&format!(" [filter: {}]", sql.join(" AND ")));
    }
    Node::new(label, Some(format!("scan{i}")))
}

/// Render the plan tree as `EXPLAIN` output lines.
pub fn render_plan(plan: &PhysicalPlan) -> Vec<String> {
    let tree = build_tree(plan);
    let mut out = Vec::new();
    render_node(&tree, "", "", &mut out, &mut |_| None);
    out
}

/// Render the plan tree annotated with measured per-node statistics
/// (`EXPLAIN ANALYZE` output lines). `staleness` carries per-scan-key
/// event-time staleness bounds for snapshot scans; nodes without an entry
/// render without the annotation.
pub fn render_plan_analyzed(
    plan: &PhysicalPlan,
    stats: &BTreeMap<String, NodeStat>,
    staleness: &BTreeMap<String, u64>,
) -> Vec<String> {
    let tree = build_tree(plan);
    let mut out = Vec::new();
    render_node(&tree, "", "", &mut out, &mut |key| {
        let s = stats.get(key).copied().unwrap_or_default();
        let mut note = format!(" (rows={}", s.rows);
        if let Some(kept) = s.kept {
            note.push_str(&format!(" kept={kept}"));
        }
        note.push_str(&format!(" wall={}us", s.wall_us));
        if s.slices > 0 {
            note.push_str(&format!(" slices={}", s.slices));
        }
        note.push(')');
        if let Some(st) = staleness.get(key) {
            note.push_str(&format!(" [staleness={st}us]"));
        }
        Some(note)
    });
    out
}

/// Recursive tree printer: `self_prefix` precedes this node's label,
/// `child_prefix` precedes its children's connectors.
fn render_node(
    node: &Node,
    self_prefix: &str,
    child_prefix: &str,
    out: &mut Vec<String>,
    annotate: &mut impl FnMut(&str) -> Option<String>,
) {
    let note = node
        .key
        .as_deref()
        .and_then(&mut *annotate)
        .unwrap_or_default();
    out.push(format!("{self_prefix}{}{note}", node.label));
    let n = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        let last = i == n - 1;
        let (connector, extend) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        render_node(
            child,
            &format!("{child_prefix}{connector}"),
            &format!("{child_prefix}{extend}"),
            out,
            annotate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemCatalog, MemTable};
    use crate::parser::parse;
    use crate::plan::plan;
    use squery_common::schema::{schema, KEY_COLUMN};
    use squery_common::DataType;
    use std::sync::Arc;

    fn catalog() -> MemCatalog {
        let orders = schema(vec![
            (KEY_COLUMN, DataType::Any),
            ("total", DataType::Int),
            ("zone", DataType::Str),
        ]);
        let info = schema(vec![
            (KEY_COLUMN, DataType::Any),
            ("category", DataType::Str),
        ]);
        MemCatalog::new(vec![
            Arc::new(MemTable::new("orders", orders, Vec::new())),
            Arc::new(MemTable::new("info", info, Vec::new())),
        ])
    }

    fn explain(sql: &str) -> Vec<String> {
        let c = catalog();
        let p = plan(&parse(sql).unwrap(), &c).unwrap();
        render_plan(&p)
    }

    #[test]
    fn simple_scan_renders_project_over_scan() {
        let lines = explain("SELECT total FROM orders");
        assert_eq!(lines, vec!["Project [total]", "└─ Scan orders"]);
    }

    #[test]
    fn full_query_renders_every_operator() {
        // A cross-scan WHERE runs after the join, as a Filter node.
        let lines = explain(
            "SELECT zone, COUNT(*) AS n FROM orders JOIN info USING(partitionKey) \
             WHERE total > 0 OR category = 'food' GROUP BY zone HAVING COUNT(*) > 1 \
             ORDER BY n DESC LIMIT 5",
        );
        assert_eq!(
            lines,
            vec![
                "Sort (keys: 1, limit: 5)",
                "└─ Project [zone, n]",
                "   └─ Having",
                "      └─ Aggregate (groups: 1, aggs: 1)",
                "         └─ Filter",
                "            └─ HashJoin (keys: 1)",
                "               ├─ Scan orders",
                "               └─ Scan info",
            ]
        );
    }

    #[test]
    fn pushed_filter_renders_on_its_scans_and_no_filter_node() {
        let lines = explain(
            "SELECT zone, COUNT(*) AS n FROM orders JOIN info USING(partitionKey) \
             WHERE total > 0 AND category IN ('food', 'pharma') AND zone LIKE 'n%' \
             GROUP BY zone",
        );
        assert_eq!(
            lines,
            vec![
                "Project [zone, n]",
                "└─ Aggregate (groups: 1, aggs: 1)",
                "   └─ HashJoin (keys: 1)",
                "      ├─ Scan orders [filter: total > 0 AND zone LIKE 'n%']",
                "      └─ Scan info [filter: category IN ('food', 'pharma')]",
            ]
        );
        // Only a scan whose pushed filter ran reports kept rows.
        let c = catalog();
        let p = plan(
            &parse("SELECT zone FROM orders JOIN info USING(partitionKey) WHERE total > 0")
                .unwrap(),
            &c,
        )
        .unwrap();
        let mut stats = BTreeMap::new();
        for (key, kept) in [("scan0", Some(3)), ("scan1", None)] {
            let stat = NodeStat {
                rows: 5,
                wall_us: 9,
                slices: 1,
                kept,
            };
            stats.insert(key.to_string(), stat);
        }
        let lines = render_plan_analyzed(&p, &stats, &BTreeMap::new());
        assert!(
            lines
                .iter()
                .any(|l| l
                    .contains("Scan orders [filter: total > 0] (rows=5 kept=3 wall=9us slices=1)")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Scan info (rows=5 wall=9us slices=1)")),
            "{lines:?}"
        );
    }

    #[test]
    fn point_read_hint_is_shown() {
        let lines = explain("SELECT total FROM orders WHERE partitionKey = 7");
        assert!(
            lines.iter().any(|l| l.contains("Scan orders [point=7]")),
            "{lines:?}"
        );
    }

    #[test]
    fn limit_without_order_renders_limit_node() {
        let lines = explain("SELECT total FROM orders LIMIT 3");
        assert_eq!(
            lines,
            vec!["Limit 3", "└─ Project [total]", "   └─ Scan orders"]
        );
    }

    #[test]
    fn analyzed_rendering_annotates_known_keys() {
        let c = catalog();
        let p = plan(
            &parse("SELECT total FROM orders WHERE total > 0").unwrap(),
            &c,
        )
        .unwrap();
        let mut stats = BTreeMap::new();
        stats.insert(
            "scan0".to_string(),
            NodeStat {
                rows: 42,
                wall_us: 17,
                slices: 4,
                kept: None,
            },
        );
        let mut staleness = BTreeMap::new();
        staleness.insert("scan0".to_string(), 2_500u64);
        let lines = render_plan_analyzed(&p, &stats, &staleness);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Scan orders (rows=42 wall=17us slices=4) [staleness=2500us]")),
            "{lines:?}"
        );
        // Un-measured instrumented nodes still render, with zero stats.
        assert!(
            lines.iter().any(|l| l.contains("Filter (rows=0 wall=0us)")),
            "{lines:?}"
        );
    }

    #[test]
    fn filter_label_does_not_claim_an_engine() {
        // Whether or not a filter compiles to kernels, one executor runs
        // it, so a plan-only EXPLAIN labels both filters the same.
        for sql in [
            "SELECT zone FROM orders WHERE total > 4",
            "SELECT zone FROM orders WHERE LENGTH(zone) > 4",
        ] {
            let lines = explain(sql);
            assert!(
                lines.iter().any(|l| l.trim_start() == "└─ Filter"),
                "{lines:?}"
            );
        }
    }

    #[test]
    fn join_build_side_annotation_follows_cost_model() {
        let c = catalog();
        let mut p = plan(
            &parse("SELECT total FROM orders JOIN info USING(partitionKey)").unwrap(),
            &c,
        )
        .unwrap();
        // MemTables carry no estimates: no annotation.
        assert!(
            render_plan(&p)
                .iter()
                .any(|l| l.contains("HashJoin (keys: 1)") && !l.contains("build=")),
            "{:?}",
            render_plan(&p)
        );
        // With estimates the decision and the build side's estimate render.
        p.joins[0].build_est = Some((100, 7));
        p.joins[0].build_left = false;
        assert!(
            render_plan(&p)
                .iter()
                .any(|l| l.contains("HashJoin (keys: 1) [build=right est_rows=7]")),
            "{:?}",
            render_plan(&p)
        );
        p.joins[0].build_est = Some((3, 50));
        p.joins[0].build_left = true;
        assert!(
            render_plan(&p)
                .iter()
                .any(|l| l.contains("HashJoin (keys: 1) [build=left est_rows=3]")),
            "{:?}",
            render_plan(&p)
        );
    }
}
