//! Binder and planner: AST → physical plan.
//!
//! Responsibilities:
//! * resolve tables against the catalog and columns against table schemas
//!   (with alias qualification and ambiguity detection),
//! * decompose joins into hash-join key pairs (`USING` columns are merged;
//!   `ON` must be an equality conjunction),
//! * extract scan hints — `ssid` handling per [`crate::catalog::SsidMode`]
//!   and `partitionKey = <literal>` point reads,
//! * split aggregation from scalar projection, rewriting post-aggregate
//!   expressions over the `[group keys… , aggregates…]` intermediate row,
//! * push the `WHERE` clause below the joins: when every `AND`-conjunct
//!   reads the columns of at most one scan and compiles to a columnar
//!   kernel, each conjunct is recorded on the scan it reads
//!   ([`ScanNode::filter`]) so the executor filters each scan before it
//!   joins.

use crate::ast::{AggregateFunc, BinaryOp, Expr, Join, JoinCondition, Query, SelectItem, TableRef};
use crate::catalog::{Catalog, ScanHints, SsidMode, Table};
use crate::expr::BoundExpr;
use squery_common::schema::{Field, Schema, KEY_COLUMN, SSID_COLUMN};
use squery_common::{DataType, SnapshotId, SqError, SqResult, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One table scan in the plan.
pub struct ScanNode {
    /// The table to scan.
    pub table: Arc<dyn Table>,
    /// Planner-extracted hints.
    pub hints: ScanHints,
    /// Column count of the table's rows.
    pub width: usize,
    /// Catalog row estimate for this scan under its final hints
    /// ([`Table::estimated_rows`]); `None` when the table keeps no
    /// statistics. Rendered by `EXPLAIN` as `[est_rows=N]`.
    pub est_rows: Option<u64>,
    /// The `WHERE` conjuncts pushed down onto this scan. Empty when none
    /// reads this scan or when the plan keeps its `WHERE` after the joins
    /// ([`PhysicalPlan::filter_pushed`]).
    pub filter: Vec<ScanConjunct>,
}

/// One `WHERE` conjunct pushed down onto a scan.
pub struct ScanConjunct {
    /// The conjunct, bound over the scan's own row.
    pub expr: BoundExpr,
    /// Its SQL text, rendered by `EXPLAIN` as `[filter: …]`.
    pub sql: String,
}

/// One hash join step, combining the accumulated left row with a scan.
pub struct JoinNode {
    /// Key column indexes into the combined left row.
    pub left_keys: Vec<usize>,
    /// Key column indexes into the right table's row.
    pub right_keys: Vec<usize>,
    /// Right columns dropped from the output (the `USING` columns), sorted.
    pub right_drop: Vec<usize>,
    /// Cost-model decision: build the hash table on the *left* scan and
    /// probe with the right one. `false` (the default, and the only choice
    /// when no statistics exist) keeps query-text order: build right,
    /// probe left. Either way the output row layout is
    /// `[left columns… , kept right columns…]`; only the *order of output
    /// rows* follows the probe side.
    pub build_left: bool,
    /// The `(left, right)` row estimates the decision was made from;
    /// `None` when either side has no statistics (decision defaulted).
    /// Rendered by `EXPLAIN` as `[build=… est_rows=N]`.
    pub build_est: Option<(u64, u64)>,
}

/// Grouping and aggregate evaluation.
pub struct AggregateNode {
    /// Group-key expressions over the combined source row.
    pub group_exprs: Vec<BoundExpr>,
    /// Distinct aggregate calls; `None` argument means `COUNT(*)`.
    pub aggs: Vec<(AggregateFunc, Option<BoundExpr>)>,
}

/// One output column.
pub struct ProjItem {
    /// Bound over the combined source row, or over the post-aggregate row
    /// (`[group keys…, aggregate results…]`) when the plan aggregates.
    pub expr: BoundExpr,
    /// Output column name.
    pub name: String,
}

/// A fully bound physical plan.
pub struct PhysicalPlan {
    /// Scans; the first is the `FROM` table, the rest join in order.
    pub scans: Vec<ScanNode>,
    /// Join steps (`scans.len() - 1` of them).
    pub joins: Vec<JoinNode>,
    /// `WHERE`, bound over the combined row: what the row reference runs
    /// after its joins. When the planner pushed it down, its conjuncts also
    /// sit on the scans and no part of it runs after the joins on the
    /// columnar driver.
    pub filter: Option<BoundExpr>,
    /// Aggregation, if the query groups or uses aggregate functions.
    pub aggregate: Option<AggregateNode>,
    /// Output projections.
    pub projections: Vec<ProjItem>,
    /// `HAVING`, bound over the post-aggregate row.
    pub having: Option<BoundExpr>,
    /// Sort keys, bound like the projections, plus descending flags.
    pub order_by: Vec<(BoundExpr, bool)>,
    /// Row-count cap.
    pub limit: Option<u64>,
    /// Schema of the produced rows.
    pub output_schema: Arc<Schema>,
}

impl PhysicalPlan {
    /// Whether the `WHERE` was pushed down onto the scans.
    pub fn filter_pushed(&self) -> bool {
        self.scans.iter().any(|s| !s.filter.is_empty())
    }

    /// The `WHERE` that runs after the joins: the whole filter unless it
    /// was pushed down.
    pub fn residual_filter(&self) -> Option<&BoundExpr> {
        self.filter.as_ref().filter(|_| !self.filter_pushed())
    }
}

#[derive(Clone)]
struct BindEntry {
    alias: String,
    name: String,
    index: usize,
    dtype: DataType,
}

/// Column-name resolution over the combined row.
#[derive(Clone, Default)]
struct Binder {
    entries: Vec<BindEntry>,
}

impl Binder {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> SqResult<usize> {
        let mut indexes: Vec<usize> = self
            .entries
            .iter()
            .filter(|e| e.name == name && qualifier.is_none_or(|q| e.alias == q))
            .map(|e| e.index)
            .collect();
        indexes.sort_unstable();
        indexes.dedup();
        match indexes.len() {
            0 => Err(SqError::Plan(format!(
                "unknown column '{}{}'",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
                name
            ))),
            1 => Ok(indexes[0]),
            _ => Err(SqError::Plan(format!("ambiguous column '{name}'"))),
        }
    }

    fn width(&self) -> usize {
        self.entries.iter().map(|e| e.index + 1).max().unwrap_or(0)
    }

    /// Output fields in combined-row order (first entry per index wins).
    fn output_fields(&self) -> Vec<Field> {
        let width = self.width();
        let mut fields: Vec<Option<Field>> = vec![None; width];
        let mut name_counts: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::new();
        for e in &self.entries {
            *name_counts.entry(e.name.as_str()).or_insert(0) += 1;
        }
        for e in &self.entries {
            if fields[e.index].is_none() {
                // Qualify names that appear in more than one table.
                let unique = self
                    .entries
                    .iter()
                    .filter(|o| o.name == e.name)
                    .map(|o| o.index)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    == 1;
                let name = if unique {
                    e.name.clone()
                } else {
                    format!("{}.{}", e.alias, e.name)
                };
                fields[e.index] = Some(Field {
                    name,
                    dtype: e.dtype,
                });
            }
        }
        fields
            .into_iter()
            .map(|f| f.expect("dense binder"))
            .collect()
    }
}

/// Plan a parsed query against a catalog.
pub fn plan(query: &Query, catalog: &dyn Catalog) -> SqResult<PhysicalPlan> {
    // --- resolve scans and build the combined binder --------------------
    let mut scans = Vec::new();
    let mut joins = Vec::new();
    let mut combined = Binder::default();
    let mut local_binders: Vec<(String, Binder)> = Vec::new(); // (alias, binder over the scan's own row)

    let base = resolve_table(catalog, &query.from)?;
    let base_alias = alias_of(&query.from);
    let base_schema = base.schema();
    let mut offset = 0usize;
    let mut local = Binder::default();
    for (i, f) in base_schema.fields().iter().enumerate() {
        let entry = BindEntry {
            alias: base_alias.clone(),
            name: f.name.clone(),
            index: i,
            dtype: f.dtype,
        };
        combined.entries.push(entry.clone());
        local.entries.push(BindEntry { index: i, ..entry });
    }
    // Combined-row column `c` is column `origin[c].1` of scan `origin[c].0`.
    let mut origin: Vec<(usize, usize)> = (0..base_schema.len()).map(|c| (0, c)).collect();
    scans.push(ScanNode {
        table: base,
        hints: ScanHints::default(),
        width: base_schema.len(),
        est_rows: None,
        filter: Vec::new(),
    });
    local_binders.push((base_alias, local));
    offset += base_schema.len();

    for join in &query.joins {
        let table = resolve_table(catalog, &join.table)?;
        let alias = alias_of(&join.table);
        let schema = table.schema();
        let mut right_local = Binder::default();
        for (i, f) in schema.fields().iter().enumerate() {
            right_local.entries.push(BindEntry {
                alias: alias.clone(),
                name: f.name.clone(),
                index: i,
                dtype: f.dtype,
            });
        }
        let node = build_join(join, &combined, &right_local)?;
        // Extend the combined binder with the kept right columns.
        let mut kept_offset = offset;
        for (i, f) in schema.fields().iter().enumerate() {
            if node.right_drop.contains(&i) {
                // The USING column: alias-qualified references to the right
                // table's copy resolve to the (already present) left index.
                let left_idx = node.left_keys[node
                    .right_keys
                    .iter()
                    .position(|rk| *rk == i)
                    .expect("dropped columns are join keys")];
                combined.entries.push(BindEntry {
                    alias: alias.clone(),
                    name: f.name.clone(),
                    index: left_idx,
                    dtype: f.dtype,
                });
            } else {
                combined.entries.push(BindEntry {
                    alias: alias.clone(),
                    name: f.name.clone(),
                    index: kept_offset,
                    dtype: f.dtype,
                });
                origin.push((scans.len(), i));
                kept_offset += 1;
            }
        }
        offset = kept_offset;
        scans.push(ScanNode {
            table,
            hints: ScanHints::default(),
            width: schema.len(),
            est_rows: None,
            filter: Vec::new(),
        });
        local_binders.push((alias, right_local));
        joins.push(node);
    }

    // --- scan hints ------------------------------------------------------
    extract_hints(query, &mut scans, &local_binders);

    // Row estimates come after hint extraction: a key-equality hint turns a
    // full-scan estimate into a point-read estimate.
    for scan in &mut scans {
        scan.est_rows = scan.table.estimated_rows(&scan.hints);
    }

    // --- join build-side cost model --------------------------------------
    // With statistics on both sides of a single join, build the hash table
    // on the smaller scan instead of blindly following query-text order
    // (build right). Restricted to single-join plans: in a chain the left
    // input of later joins is an intermediate whose size we do not estimate.
    if joins.len() == 1 {
        if let (Some(l), Some(r)) = (scans[0].est_rows, scans[1].est_rows) {
            joins[0].build_left = l < r;
            joins[0].build_est = Some((l, r));
        }
    }

    // --- filter ----------------------------------------------------------
    let filter = query
        .where_clause
        .as_ref()
        .map(|e| bind_scalar(e, &combined))
        .transpose()?;
    if let Some(clause) = &query.where_clause {
        push_down(clause, &combined, &origin, &mut scans)?;
    }

    // --- aggregation decision --------------------------------------------
    let any_agg = query.items.iter().any(|it| match it {
        SelectItem::Wildcard => false,
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
    }) || query.having.as_ref().is_some_and(Expr::contains_aggregate)
        || query.order_by.iter().any(|k| k.expr.contains_aggregate());
    let aggregating = any_agg || !query.group_by.is_empty();

    let mut projections = Vec::new();
    let mut having = None;
    let mut order_by = Vec::new();
    let aggregate;

    if aggregating {
        if query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard))
        {
            return Err(SqError::Plan(
                "SELECT * cannot be combined with GROUP BY / aggregates".into(),
            ));
        }
        let group_bound: Vec<BoundExpr> = query
            .group_by
            .iter()
            .map(|e| bind_scalar(e, &combined))
            .collect::<SqResult<_>>()?;
        let mut aggs: Vec<(AggregateFunc, Option<BoundExpr>)> = Vec::new();
        for item in &query.items {
            let SelectItem::Expr { expr, alias } = item else {
                unreachable!("wildcard rejected above")
            };
            let bound = rewrite_post_agg(expr, &combined, &group_bound, &mut aggs)?;
            projections.push(ProjItem {
                expr: bound,
                name: alias.clone().unwrap_or_else(|| expr.default_name()),
            });
        }
        if let Some(h) = &query.having {
            having = Some(rewrite_post_agg(h, &combined, &group_bound, &mut aggs)?);
        }
        for key in &query.order_by {
            let bound = if let Some(proj) = alias_match(&key.expr, query, &projections) {
                proj
            } else {
                rewrite_post_agg(&key.expr, &combined, &group_bound, &mut aggs)?
            };
            order_by.push((bound, key.desc));
        }
        aggregate = Some(AggregateNode {
            group_exprs: group_bound,
            aggs,
        });
    } else {
        for item in &query.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, f) in combined.output_fields().into_iter().enumerate() {
                        projections.push(ProjItem {
                            expr: BoundExpr::Column(i),
                            name: f.name,
                        });
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    projections.push(ProjItem {
                        expr: bind_scalar(expr, &combined)?,
                        name: alias.clone().unwrap_or_else(|| expr.default_name()),
                    });
                }
            }
        }
        if query.having.is_some() {
            return Err(SqError::Plan(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        for key in &query.order_by {
            let bound = if let Some(proj) = alias_match(&key.expr, query, &projections) {
                proj
            } else {
                bind_scalar(&key.expr, &combined)?
            };
            order_by.push((bound, key.desc));
        }
        aggregate = None;
    }

    // --- output schema -----------------------------------------------------
    let fields = unique_fields(&projections, &combined, aggregate.is_some());
    let output_schema = Arc::new(Schema::from_fields(fields));

    Ok(PhysicalPlan {
        scans,
        joins,
        filter,
        aggregate,
        projections,
        having,
        order_by,
        limit: query.limit,
        output_schema,
    })
}

/// Push the `WHERE` conjuncts onto the scans they read. Only plans with a
/// join have anything to filter before (a single scan already filters
/// each unit right after decoding it), and only when every conjunct reads
/// the columns of at most one scan and compiles to a columnar kernel: a
/// cross-scan or uncompilable conjunct keeps the whole `WHERE` after the
/// joins. A conjunct that reads no column lands on scan 0.
fn push_down(
    clause: &Expr,
    combined: &Binder,
    origin: &[(usize, usize)],
    scans: &mut [ScanNode],
) -> SqResult<()> {
    if scans.len() < 2 {
        return Ok(());
    }
    let mut conjuncts = Vec::new();
    collect_conjuncts(clause, &mut conjuncts);
    let mut pushed = Vec::with_capacity(conjuncts.len());
    for conjunct in conjuncts {
        let bound = bind_scalar(conjunct, combined)?;
        let mut cols = BTreeSet::new();
        bound.collect_columns(&mut cols);
        let read: BTreeSet<usize> = cols.iter().map(|&c| origin[c].0).collect();
        if read.len() > 1 || crate::vectorized::compile_pred(&bound, 0).is_none() {
            return Ok(());
        }
        let scan = read.first().copied().unwrap_or(0);
        let expr = bound.remap_columns(&|c| origin[c].1);
        pushed.push((
            scan,
            ScanConjunct {
                expr,
                sql: conjunct_sql(conjunct),
            },
        ));
    }
    for (scan, conjunct) in pushed {
        scans[scan].filter.push(conjunct);
    }
    Ok(())
}

/// A conjunct's SQL text without the outer parentheses its printer adds.
fn conjunct_sql(e: &Expr) -> String {
    let text = e.to_string();
    match e {
        Expr::Binary { .. }
        | Expr::Unary { .. }
        | Expr::IsNull { .. }
        | Expr::InList { .. }
        | Expr::Between { .. }
        | Expr::Like { .. } => text[1..text.len() - 1].to_string(),
        _ => text,
    }
}

fn alias_of(t: &TableRef) -> String {
    t.alias.clone().unwrap_or_else(|| t.name.clone())
}

fn resolve_table(catalog: &dyn Catalog, t: &TableRef) -> SqResult<Arc<dyn Table>> {
    catalog.table(&t.name).ok_or_else(|| {
        let known = catalog.table_names().join(", ");
        SqError::Plan(format!("unknown table '{}' (known: {known})", t.name))
    })
}

fn build_join(join: &Join, left: &Binder, right: &Binder) -> SqResult<JoinNode> {
    match &join.condition {
        JoinCondition::Using(cols) => {
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            for col in cols {
                left_keys.push(left.resolve(None, col)?);
                right_keys.push(right.resolve(None, col)?);
            }
            let mut right_drop = right_keys.clone();
            right_drop.sort_unstable();
            Ok(JoinNode {
                left_keys,
                right_keys,
                right_drop,
                build_left: false,
                build_est: None,
            })
        }
        JoinCondition::On(expr) => {
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            collect_equi_pairs(expr, left, right, &mut left_keys, &mut right_keys)?;
            Ok(JoinNode {
                left_keys,
                right_keys,
                right_drop: Vec::new(),
                build_left: false,
                build_est: None,
            })
        }
    }
}

fn collect_equi_pairs(
    expr: &Expr,
    left: &Binder,
    right: &Binder,
    left_keys: &mut Vec<usize>,
    right_keys: &mut Vec<usize>,
) -> SqResult<()> {
    match expr {
        Expr::Binary {
            left: l,
            op: BinaryOp::And,
            right: r,
        } => {
            collect_equi_pairs(l, left, right, left_keys, right_keys)?;
            collect_equi_pairs(r, left, right, left_keys, right_keys)
        }
        Expr::Binary {
            left: l,
            op: BinaryOp::Eq,
            right: r,
        } => {
            let (lc, rc) = match (l.as_ref(), r.as_ref()) {
                (
                    Expr::Column {
                        qualifier: lq,
                        name: ln,
                    },
                    Expr::Column {
                        qualifier: rq,
                        name: rn,
                    },
                ) => ((lq, ln), (rq, rn)),
                _ => {
                    return Err(SqError::Plan(
                        "JOIN ON supports only column = column equalities".into(),
                    ))
                }
            };
            // Try left.col = right.col, then the flipped attribution.
            if let (Ok(li), Ok(ri)) = (
                left.resolve(lc.0.as_deref(), lc.1),
                right.resolve(rc.0.as_deref(), rc.1),
            ) {
                left_keys.push(li);
                right_keys.push(ri);
                return Ok(());
            }
            if let (Ok(li), Ok(ri)) = (
                left.resolve(rc.0.as_deref(), rc.1),
                right.resolve(lc.0.as_deref(), lc.1),
            ) {
                left_keys.push(li);
                right_keys.push(ri);
                return Ok(());
            }
            Err(SqError::Plan(format!(
                "JOIN ON condition does not relate the joined tables: {} = {}",
                lc.1, rc.1
            )))
        }
        _ => Err(SqError::Plan(
            "JOIN ON supports only equality conjunctions".into(),
        )),
    }
}

fn bind_scalar(expr: &Expr, binder: &Binder) -> SqResult<BoundExpr> {
    match expr {
        Expr::Column { qualifier, name } => Ok(BoundExpr::Column(
            binder.resolve(qualifier.as_deref(), name)?,
        )),
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::LocalTimestamp => Ok(BoundExpr::LocalTimestamp),
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(bind_scalar(left, binder)?),
            op: *op,
            right: Box::new(bind_scalar(right, binder)?),
        }),
        Expr::Unary { op, operand } => Ok(BoundExpr::Unary {
            op: *op,
            operand: Box::new(bind_scalar(operand, binder)?),
        }),
        Expr::IsNull { operand, negated } => Ok(BoundExpr::IsNull {
            operand: Box::new(bind_scalar(operand, binder)?),
            negated: *negated,
        }),
        Expr::InList {
            operand,
            list,
            negated,
        } => Ok(BoundExpr::InList {
            operand: Box::new(bind_scalar(operand, binder)?),
            list: list
                .iter()
                .map(|e| bind_scalar(e, binder))
                .collect::<SqResult<_>>()?,
            negated: *negated,
        }),
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => Ok(BoundExpr::Between {
            operand: Box::new(bind_scalar(operand, binder)?),
            low: Box::new(bind_scalar(low, binder)?),
            high: Box::new(bind_scalar(high, binder)?),
            negated: *negated,
        }),
        Expr::Like {
            operand,
            pattern,
            negated,
        } => Ok(BoundExpr::Like {
            operand: Box::new(bind_scalar(operand, binder)?),
            pattern: Box::new(bind_scalar(pattern, binder)?),
            negated: *negated,
        }),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => bind_case(operand, branches, else_result, &mut |e| {
            bind_scalar(e, binder)
        }),
        Expr::Func { func, args } => Ok(BoundExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|a| bind_scalar(a, binder))
                .collect::<SqResult<_>>()?,
        }),
        Expr::Aggregate { .. } => Err(SqError::Plan(
            "aggregate function in a scalar-only position".into(),
        )),
    }
}

/// Desugar and bind a CASE expression: the simple form (`CASE x WHEN v …`)
/// becomes the searched form with `x = v` conditions.
fn bind_case(
    operand: &Option<Box<Expr>>,
    branches: &[(Expr, Expr)],
    else_result: &Option<Box<Expr>>,
    bind: &mut impl FnMut(&Expr) -> SqResult<BoundExpr>,
) -> SqResult<BoundExpr> {
    let operand_bound = operand.as_deref().map(&mut *bind).transpose()?;
    let mut bound_branches = Vec::with_capacity(branches.len());
    for (when, then) in branches {
        let condition = match &operand_bound {
            Some(op) => BoundExpr::Binary {
                left: Box::new(op.clone()),
                op: crate::ast::BinaryOp::Eq,
                right: Box::new(bind(when)?),
            },
            None => bind(when)?,
        };
        bound_branches.push((condition, bind(then)?));
    }
    Ok(BoundExpr::Case {
        branches: bound_branches,
        else_result: else_result.as_deref().map(bind).transpose()?.map(Box::new),
    })
}

/// Bind a post-aggregation expression: group expressions become references to
/// the group-key columns, aggregates become references to aggregate slots,
/// and anything else must be composed of those (standard GROUP BY typing).
fn rewrite_post_agg(
    expr: &Expr,
    binder: &Binder,
    group_bound: &[BoundExpr],
    aggs: &mut Vec<(AggregateFunc, Option<BoundExpr>)>,
) -> SqResult<BoundExpr> {
    // A whole-expression match against a GROUP BY key?
    if let Ok(bound) = bind_scalar_no_agg(expr, binder) {
        if let Some(i) = group_bound.iter().position(|g| *g == bound) {
            return Ok(BoundExpr::Column(i));
        }
    }
    match expr {
        Expr::Aggregate { func, arg } => {
            let bound_arg = arg.as_ref().map(|a| bind_scalar(a, binder)).transpose()?;
            let slot = match aggs.iter().position(|(f, a)| f == func && *a == bound_arg) {
                Some(i) => i,
                None => {
                    aggs.push((*func, bound_arg));
                    aggs.len() - 1
                }
            };
            Ok(BoundExpr::Column(group_bound.len() + slot))
        }
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::LocalTimestamp => Ok(BoundExpr::LocalTimestamp),
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(rewrite_post_agg(left, binder, group_bound, aggs)?),
            op: *op,
            right: Box::new(rewrite_post_agg(right, binder, group_bound, aggs)?),
        }),
        Expr::Unary { op, operand } => Ok(BoundExpr::Unary {
            op: *op,
            operand: Box::new(rewrite_post_agg(operand, binder, group_bound, aggs)?),
        }),
        Expr::IsNull { operand, negated } => Ok(BoundExpr::IsNull {
            operand: Box::new(rewrite_post_agg(operand, binder, group_bound, aggs)?),
            negated: *negated,
        }),
        Expr::InList {
            operand,
            list,
            negated,
        } => Ok(BoundExpr::InList {
            operand: Box::new(rewrite_post_agg(operand, binder, group_bound, aggs)?),
            list: list
                .iter()
                .map(|e| rewrite_post_agg(e, binder, group_bound, aggs))
                .collect::<SqResult<_>>()?,
            negated: *negated,
        }),
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => Ok(BoundExpr::Between {
            operand: Box::new(rewrite_post_agg(operand, binder, group_bound, aggs)?),
            low: Box::new(rewrite_post_agg(low, binder, group_bound, aggs)?),
            high: Box::new(rewrite_post_agg(high, binder, group_bound, aggs)?),
            negated: *negated,
        }),
        Expr::Like {
            operand,
            pattern,
            negated,
        } => Ok(BoundExpr::Like {
            operand: Box::new(rewrite_post_agg(operand, binder, group_bound, aggs)?),
            pattern: Box::new(rewrite_post_agg(pattern, binder, group_bound, aggs)?),
            negated: *negated,
        }),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => bind_case(operand, branches, else_result, &mut |e| {
            rewrite_post_agg(e, binder, group_bound, aggs)
        }),
        Expr::Func { func, args } => Ok(BoundExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|a| rewrite_post_agg(a, binder, group_bound, aggs))
                .collect::<SqResult<_>>()?,
        }),
        Expr::Column { qualifier, name } => Err(SqError::Plan(format!(
            "column '{}{}' must appear in GROUP BY or inside an aggregate",
            qualifier
                .as_ref()
                .map(|q| format!("{q}."))
                .unwrap_or_default(),
            name
        ))),
    }
}

fn bind_scalar_no_agg(expr: &Expr, binder: &Binder) -> SqResult<BoundExpr> {
    if expr.contains_aggregate() {
        return Err(SqError::Plan("aggregate not allowed here".into()));
    }
    bind_scalar(expr, binder)
}

/// Resolve an ORDER BY expression that names a projection alias.
fn alias_match(expr: &Expr, _query: &Query, projections: &[ProjItem]) -> Option<BoundExpr> {
    if let Expr::Column {
        qualifier: None,
        name,
    } = expr
    {
        if let Some(p) = projections.iter().find(|p| &p.name == name) {
            // Only safe when the projection is already bound to the same row
            // the order keys will be evaluated against — always true here.
            return Some(p.expr.clone());
        }
    }
    None
}

fn unique_fields(projections: &[ProjItem], binder: &Binder, aggregated: bool) -> Vec<Field> {
    let mut names: Vec<String> = Vec::new();
    let mut fields = Vec::new();
    for p in projections {
        let mut name = p.name.clone();
        let mut n = 1;
        while names.contains(&name) {
            n += 1;
            name = format!("{}_{n}", p.name);
        }
        names.push(name.clone());
        let dtype = if aggregated {
            DataType::Any
        } else if let BoundExpr::Column(i) = p.expr {
            binder
                .entries
                .iter()
                .find(|e| e.index == i)
                .map(|e| e.dtype)
                .unwrap_or(DataType::Any)
        } else {
            DataType::Any
        };
        fields.push(Field { name, dtype });
    }
    fields
}

/// Pull `ssid` and key-equality hints out of the WHERE clause.
fn extract_hints(query: &Query, scans: &mut [ScanNode], locals: &[(String, Binder)]) {
    let Some(where_clause) = &query.where_clause else {
        return;
    };
    // Any mention of `ssid` anywhere in the predicate puts the mentioned
    // table(s) in AllRetained mode; top-level equality conjuncts then refine
    // back to Exact.
    where_clause.visit_columns(&mut |qualifier, name| {
        if name != SSID_COLUMN {
            return;
        }
        for (i, (alias, local)) in locals.iter().enumerate() {
            let qualifier_ok = qualifier.as_deref().is_none_or(|q| q == alias);
            if qualifier_ok && local.resolve(None, name).is_ok() {
                scans[i].hints.ssid = SsidMode::AllRetained;
            }
        }
    });
    let mut conjuncts = Vec::new();
    collect_conjuncts(where_clause, &mut conjuncts);
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let (column, literal) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column { qualifier, name }, Expr::Literal(v)) => ((qualifier, name), v),
            (Expr::Literal(v), Expr::Column { qualifier, name }) => ((qualifier, name), v),
            _ => continue,
        };
        // Attribute to every scan whose local schema has the column and whose
        // alias matches the qualifier (USING-joined key columns legitimately
        // attribute to both sides).
        for (i, (alias, local)) in locals.iter().enumerate() {
            let qualifier_ok = column.0.as_deref().is_none_or(|q| q == alias);
            if !qualifier_ok || local.resolve(None, column.1).is_err() {
                continue;
            }
            if column.1 == SSID_COLUMN {
                if let Value::Int(n) = literal {
                    if *n >= 0 {
                        scans[i].hints.ssid = SsidMode::Exact(SnapshotId(*n as u64));
                    }
                }
            } else if column.1 == KEY_COLUMN {
                scans[i].hints.key_eq = Some(literal.clone());
            }
        }
    }
}

fn collect_conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = expr
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(expr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemCatalog, MemTable};
    use crate::parser::parse;
    use squery_common::schema::schema;

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
        let snap = schema(vec![
            (KEY_COLUMN, DataType::Any),
            (SSID_COLUMN, DataType::Int),
            ("total", DataType::Int),
        ]);
        MemCatalog::new(vec![
            Arc::new(MemTable::new("orders", orders, vec![])),
            Arc::new(MemTable::new("info", info, vec![])),
            Arc::new(MemTable::new("snapshot_orders", snap, vec![])),
        ])
    }

    fn plan_sql(sql: &str) -> SqResult<PhysicalPlan> {
        plan(&parse(sql)?, &catalog())
    }

    #[test]
    fn simple_select_star() {
        let p = plan_sql("SELECT * FROM orders").unwrap();
        assert_eq!(p.scans.len(), 1);
        assert_eq!(p.projections.len(), 3);
        assert_eq!(p.output_schema.fields()[0].name, KEY_COLUMN);
        assert!(p.aggregate.is_none());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert!(matches!(
            plan_sql("SELECT * FROM nope"),
            Err(SqError::Plan(_))
        ));
        assert!(matches!(
            plan_sql("SELECT missing FROM orders"),
            Err(SqError::Plan(_))
        ));
    }

    #[test]
    fn using_join_merges_key_column() {
        let p =
            plan_sql("SELECT total, category FROM orders JOIN info USING(partitionKey)").unwrap();
        assert_eq!(p.scans.len(), 2);
        assert_eq!(p.joins.len(), 1);
        assert_eq!(p.joins[0].left_keys, vec![0]);
        assert_eq!(p.joins[0].right_keys, vec![0]);
        assert_eq!(p.joins[0].right_drop, vec![0]);
        // category lands after orders' 3 columns.
        match p.projections[1].expr {
            BoundExpr::Column(i) => assert_eq!(i, 3),
            _ => panic!(),
        }
    }

    #[test]
    fn qualified_using_column_resolves_to_left_index() {
        let p =
            plan_sql("SELECT info.partitionKey FROM orders JOIN info USING(partitionKey)").unwrap();
        match p.projections[0].expr {
            BoundExpr::Column(0) => {}
            ref other => panic!("expected merged column 0, got {other:?}"),
        }
    }

    #[test]
    fn on_join_requires_equality() {
        let p =
            plan_sql("SELECT total FROM orders o JOIN info i ON o.partitionKey = i.partitionKey")
                .unwrap();
        assert_eq!(p.joins[0].left_keys, vec![0]);
        assert_eq!(p.joins[0].right_keys, vec![0]);
        assert!(p.joins[0].right_drop.is_empty());
        assert!(
            plan_sql("SELECT total FROM orders o JOIN info i ON o.total < i.partitionKey").is_err()
        );
    }

    #[test]
    fn duplicate_column_names_need_qualifiers() {
        // `total` exists only in orders, fine unqualified even with a join.
        assert!(plan_sql("SELECT total FROM orders JOIN info USING(partitionKey)").is_ok());
        // partitionKey is merged by USING so it stays unambiguous.
        assert!(plan_sql("SELECT partitionKey FROM orders JOIN info USING(partitionKey)").is_ok());
    }

    #[test]
    fn group_by_splits_aggregates() {
        let p = plan_sql("SELECT COUNT(*), zone FROM orders GROUP BY zone").unwrap();
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.group_exprs.len(), 1);
        assert_eq!(agg.aggs.len(), 1);
        // COUNT(*) is post-agg column 1 (after the single group key).
        match p.projections[0].expr {
            BoundExpr::Column(1) => {}
            ref other => panic!("expected agg slot, got {other:?}"),
        }
        match p.projections[1].expr {
            BoundExpr::Column(0) => {}
            ref other => panic!("expected group key, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_aggregates_share_a_slot() {
        let p =
            plan_sql("SELECT SUM(total), SUM(total) / COUNT(*) FROM orders GROUP BY zone").unwrap();
        let agg = p.aggregate.as_ref().unwrap();
        assert_eq!(agg.aggs.len(), 2, "SUM(total) deduped, COUNT(*) separate");
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        assert!(matches!(
            plan_sql("SELECT total FROM orders GROUP BY zone"),
            Err(SqError::Plan(_))
        ));
        assert!(matches!(
            plan_sql("SELECT zone, COUNT(*) FROM orders"),
            Err(SqError::Plan(_))
        ));
    }

    #[test]
    fn having_without_group_rejected() {
        assert!(plan_sql("SELECT total FROM orders HAVING total > 1").is_err());
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(plan_sql("SELECT * FROM orders GROUP BY zone").is_err());
    }

    #[test]
    fn ssid_equality_becomes_exact_hint() {
        let p = plan_sql("SELECT total FROM snapshot_orders WHERE ssid = 9").unwrap();
        assert_eq!(p.scans[0].hints.ssid, SsidMode::Exact(SnapshotId(9)));
    }

    #[test]
    fn ssid_range_becomes_all_retained() {
        let p = plan_sql("SELECT total FROM snapshot_orders WHERE ssid > 3").unwrap();
        assert_eq!(p.scans[0].hints.ssid, SsidMode::AllRetained);
        let p = plan_sql("SELECT total FROM snapshot_orders WHERE ssid IN (1, 2)").unwrap();
        assert_eq!(p.scans[0].hints.ssid, SsidMode::AllRetained);
    }

    #[test]
    fn no_ssid_mention_defaults_to_latest() {
        let p = plan_sql("SELECT total FROM snapshot_orders").unwrap();
        assert_eq!(p.scans[0].hints.ssid, SsidMode::Latest);
    }

    #[test]
    fn key_equality_becomes_point_hint() {
        let p = plan_sql("SELECT total FROM orders WHERE partitionKey = 7").unwrap();
        assert_eq!(p.scans[0].hints.key_eq, Some(Value::Int(7)));
        // Under OR it is not a conjunct: no hint.
        let p = plan_sql("SELECT total FROM orders WHERE partitionKey = 7 OR total = 1").unwrap();
        assert_eq!(p.scans[0].hints.key_eq, None);
    }

    #[test]
    fn key_hint_applies_to_both_sides_of_using_join() {
        let p = plan_sql(
            "SELECT total FROM orders JOIN info USING(partitionKey) WHERE partitionKey = 7",
        )
        .unwrap();
        assert_eq!(p.scans[0].hints.key_eq, Some(Value::Int(7)));
        assert_eq!(p.scans[1].hints.key_eq, Some(Value::Int(7)));
    }

    #[test]
    fn order_by_alias_reuses_projection() {
        let p = plan_sql("SELECT COUNT(*) AS c, zone FROM orders GROUP BY zone ORDER BY c DESC")
            .unwrap();
        assert_eq!(p.order_by.len(), 1);
        assert!(p.order_by[0].1, "descending");
        assert_eq!(p.order_by[0].0, p.projections[0].expr);
    }

    #[test]
    fn output_schema_dedupes_names() {
        let p = plan_sql("SELECT total, total FROM orders").unwrap();
        let names: Vec<&str> = p
            .output_schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["total", "total_2"]);
    }
}
