//! Plan execution: scans → hash joins → filter → aggregation → projection →
//! HAVING → ORDER BY → LIMIT.
//!
//! Every query runs on the columnar morsel driver (`vectorized.rs`) at every
//! DOP; at DOP 1 its one worker is the caller's thread. This module holds
//! what that driver shares — the per-scan morsel loop ([`scan_morsels`],
//! over the system's one worker pool, `squery_common::morsel`), the
//! accumulators and partial-aggregate merge, and the project/sort/limit
//! tail — plus the **row reference**: a sequential row-at-a-time evaluator
//! that materializes each scan whole and folds it. The reference runs only
//! when a context turns the columnar driver off
//! (`SqlEngine::query_reference`), as the oracle the equivalence tests
//! compare every DOP against (see DESIGN.md §5).

use crate::ast::AggregateFunc;
use crate::batch::ColumnarBatch;
use crate::catalog::{slice_batches_cached, ExecContext, ExecTrace, ScanSlices};
use crate::plan::{AggregateNode, JoinNode, PhysicalPlan};
use squery_common::morsel::claim_units;
use squery_common::trace::SpanGuard;
use squery_common::{SqError, SqResult, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// An open span + statistics slot for one plan node. `None` when the query
/// is untraced, so the instrumentation below is a single `Option` check.
pub(crate) struct NodeTimer<'a> {
    trace: &'a ExecTrace,
    key: String,
    pub(crate) guard: SpanGuard,
}

impl NodeTimer<'_> {
    /// Close the node's span and fold `rows`/`slices` plus the span's own
    /// duration into the node's statistics.
    pub(crate) fn close(self, rows: u64, slices: u64) {
        self.trace.close_node(&self.key, self.guard, rows, slices);
    }
}

/// Open a `kind` span for plan node `key` (labelled with the key), if the
/// query is traced.
pub(crate) fn start_node<'a>(
    ctx: &'a ExecContext,
    kind: &'static str,
    key: String,
) -> Option<NodeTimer<'a>> {
    ctx.trace.as_ref().map(|trace| {
        let mut guard = trace.span(kind);
        guard.label("node", &key);
        NodeTimer { trace, key, guard }
    })
}

/// Execute a plan, producing output rows matching `plan.output_schema`: on
/// the columnar driver, or on the sequential row reference (at any DOP)
/// when the context turns the columnar driver off.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
    if ctx.vectorized {
        crate::vectorized::try_execute(plan, ctx)
    } else {
        execute_sequential(plan, ctx)
    }
}

/// The row reference: materialize each scan whole, then join, filter,
/// aggregate, and project row at a time.
fn execute_sequential(plan: &PhysicalPlan, ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
    // --- scans + joins ----------------------------------------------------
    let timer = start_node(ctx, "scan", "scan0".into());
    let mut rows = plan.scans[0].table.scan(&plan.scans[0].hints, ctx)?;
    if let Some(t) = timer {
        t.close(rows.len() as u64, 0);
    }
    if let Some(c) = &ctx.rows_scanned {
        c.add(rows.len() as u64);
    }
    for (i, (scan, join)) in plan.scans[1..].iter().zip(plan.joins.iter()).enumerate() {
        let timer = start_node(ctx, "scan", format!("scan{}", i + 1));
        let right_rows = scan.table.scan(&scan.hints, ctx)?;
        if let Some(t) = timer {
            t.close(right_rows.len() as u64, 0);
        }
        if let Some(c) = &ctx.rows_scanned {
            c.add(right_rows.len() as u64);
        }
        let timer = start_node(ctx, "join", format!("join{i}"));
        rows = hash_join(rows, right_rows, join)?;
        if let Some(t) = timer {
            t.close(rows.len() as u64, 0);
        }
    }

    // --- filter -------------------------------------------------------------
    if let Some(filter) = &plan.filter {
        let timer = start_node(ctx, "filter", "filter".into());
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if filter.matches(&row, ctx)? {
                kept.push(row);
            }
        }
        rows = kept;
        if let Some(t) = timer {
            t.close(rows.len() as u64, 0);
        }
    }

    // --- aggregate ----------------------------------------------------------
    if let Some(agg) = &plan.aggregate {
        let timer = start_node(ctx, "aggregate", "aggregate".into());
        rows = aggregate(rows, agg, ctx)?;
        if let Some(t) = timer {
            t.close(rows.len() as u64, 0);
        }
    }

    let projected = project_rows(plan, ctx, &rows)?;
    Ok(finish_output(plan, ctx, projected))
}

/// Project each row (plus HAVING and ORDER BY key evaluation on the same
/// source row) into `(order keys, output row)` pairs.
pub(crate) fn project_rows(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    rows: &[Vec<Value>],
) -> SqResult<Vec<(Vec<Value>, Vec<Value>)>> {
    let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut out = Vec::with_capacity(plan.projections.len());
        for p in &plan.projections {
            out.push(p.expr.eval(row, ctx)?);
        }
        if let Some(h) = &plan.having {
            if !h.matches(row, ctx)? {
                continue;
            }
        }
        let mut keys = Vec::with_capacity(plan.order_by.len());
        for (k, _) in &plan.order_by {
            keys.push(k.eval(row, ctx)?);
        }
        projected.push((keys, out));
    }
    Ok(projected)
}

/// Sort + limit the merged projection, timing the `sort` node when the plan
/// orders.
pub(crate) fn finish_output(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    projected: Vec<(Vec<Value>, Vec<Value>)>,
) -> Vec<Vec<Value>> {
    let timer = if plan.order_by.is_empty() {
        None
    } else {
        start_node(ctx, "sort", "sort".into())
    };
    let out = sort_and_limit(plan, projected);
    if let Some(t) = timer {
        t.close(out.len() as u64, 0);
    }
    out
}

/// Sort (stable, so equal keys keep their input order) and apply LIMIT.
fn sort_and_limit(
    plan: &PhysicalPlan,
    mut projected: Vec<(Vec<Value>, Vec<Value>)>,
) -> Vec<Vec<Value>> {
    if !plan.order_by.is_empty() {
        projected.sort_by(|(a, _), (b, _)| {
            for (i, (_, desc)) in plan.order_by.iter().enumerate() {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let mut out: Vec<Vec<Value>> = projected.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = plan.limit {
        out.truncate(limit as usize);
    }
    out
}

// ---------------------------------------------------------------------------
// Morsel loop (used by the columnar driver)
// ---------------------------------------------------------------------------

/// The morsel loop over one scan: `ctx.parallelism.degree` workers claim its
/// slices as units and map each through `f`, results in unit order. Each
/// unit decodes its slice as columnar batches restricted to the `cols`
/// schema columns through [`slice_batches_cached`] (typed extraction
/// straight from storage, memoized across queries for immutable snapshot
/// sources). A traced query opens one `slice` span per unit around the
/// decode alone — closed even when the decode fails — folding its rows and
/// one claimed slice into scan node `node`'s statistics; what `f` does with
/// the batches is `f`'s to account.
pub(crate) fn scan_morsels<R: Send>(
    slices: &dyn ScanSlices,
    ctx: &ExecContext,
    node: &str,
    cols: &[usize],
    f: impl Fn(&[Arc<ColumnarBatch>]) -> SqResult<R> + Sync,
) -> SqResult<Vec<R>> {
    claim_units(slices.slice_count() as usize, ctx.parallelism.degree, |i| {
        let timer = start_node(ctx, "slice", node.to_string());
        let started = ctx.worker_scan_us.as_ref().map(|_| Instant::now());
        let decoded = slice_batches_cached(slices, i as u32, cols);
        let rows: u64 = decoded.iter().flatten().map(|b| b.len() as u64).sum();
        if let Some(mut t) = timer {
            t.guard.label("unit", i);
            t.close(rows, 1);
        }
        let batches = decoded?;
        if let (Some(h), Some(t0)) = (&ctx.worker_scan_us, started) {
            h.record(t0.elapsed().as_micros() as u64);
        }
        if let Some(c) = &ctx.rows_scanned {
            c.add(rows);
        }
        f(&batches)
    })
}

/// Inner hash join. NULL keys never match (SQL semantics).
///
/// With `join.build_left` (the cost model judged the left side smaller) the
/// hash table is built over the left rows and the right rows probe it;
/// output columns stay `[left…, kept right…]` but row order becomes
/// right-major.
fn hash_join(
    left: Vec<Vec<Value>>,
    right: Vec<Vec<Value>>,
    join: &JoinNode,
) -> SqResult<Vec<Vec<Value>>> {
    let (build, build_keys, probe, probe_keys) = if join.build_left {
        (&left, &join.left_keys, &right, &join.right_keys)
    } else {
        (&right, &join.right_keys, &left, &join.left_keys)
    };
    let mut table: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::with_capacity(build.len());
    for row in build {
        if let Some(key) = join_key(row, build_keys)? {
            table.entry(key).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for prow in probe {
        let Some(key) = join_key(prow, probe_keys)? else {
            continue;
        };
        for &brow in table.get(&key).into_iter().flatten() {
            let (lrow, rrow) = if join.build_left {
                (brow, prow)
            } else {
                (prow, brow)
            };
            let mut combined = lrow.clone();
            for (i, v) in rrow.iter().enumerate() {
                if !join.right_drop.contains(&i) {
                    combined.push(v.clone());
                }
            }
            out.push(combined);
        }
    }
    Ok(out)
}

/// The join key of `row` at `keys`, or `None` when a component is NULL.
fn join_key(row: &[Value], keys: &[usize]) -> SqResult<Option<Vec<Value>>> {
    let mut key = Vec::with_capacity(keys.len());
    for &i in keys {
        let v = row
            .get(i)
            .ok_or_else(|| SqError::Exec("join key out of range".into()))?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v.clone());
    }
    Ok(Some(key))
}

/// One aggregate accumulator.
pub(crate) enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub(crate) fn new(func: AggregateFunc) -> Acc {
        match func {
            AggregateFunc::Count => Acc::Count(0),
            AggregateFunc::Sum => Acc::Sum(None),
            AggregateFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggregateFunc::Min => Acc::Min(None),
            AggregateFunc::Max => Acc::Max(None),
        }
    }

    /// Update with one input. `None` means COUNT(*) (count the row itself).
    pub(crate) fn update(&mut self, value: Option<&Value>) -> SqResult<()> {
        match self {
            Acc::Count(n) => match value {
                None => *n += 1,
                Some(v) if !v.is_null() => *n += 1,
                _ => {}
            },
            Acc::Sum(acc) => {
                let Some(v) = value else {
                    return Err(SqError::Exec("SUM requires an argument".into()));
                };
                if v.is_null() {
                    return Ok(());
                }
                let next = match (acc.as_ref(), v) {
                    (None, v) => numeric(v)?,
                    (Some(Value::Int(a)), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
                    (Some(cur), v) => {
                        let a = cur.as_f64().expect("accumulator is numeric");
                        let b = v.as_f64().ok_or_else(|| non_numeric("SUM", v))?;
                        Value::Float(a + b)
                    }
                };
                *acc = Some(next);
            }
            Acc::Avg { sum, n } => {
                let Some(v) = value else {
                    return Err(SqError::Exec("AVG requires an argument".into()));
                };
                if v.is_null() {
                    return Ok(());
                }
                *sum += v.as_f64().ok_or_else(|| non_numeric("AVG", v))?;
                *n += 1;
            }
            Acc::Min(acc) => {
                let Some(v) = value else {
                    return Err(SqError::Exec("MIN requires an argument".into()));
                };
                if v.is_null() {
                    return Ok(());
                }
                let replace = match acc.as_ref() {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(Ordering::Less),
                };
                if replace {
                    *acc = Some(v.clone());
                }
            }
            Acc::Max(acc) => {
                let Some(v) = value else {
                    return Err(SqError::Exec("MAX requires an argument".into()));
                };
                if v.is_null() {
                    return Ok(());
                }
                let replace = match acc.as_ref() {
                    None => true,
                    Some(cur) => v.sql_cmp(cur) == Some(Ordering::Greater),
                };
                if replace {
                    *acc = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Typed fast path for an `Int` column entry, mirroring
    /// [`Acc::update`]`(Some(&Value::Int(v)))` exactly. Callers must have
    /// skipped NULL entries already.
    pub(crate) fn update_i64(&mut self, v: i64) -> SqResult<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(acc) => {
                let next = match acc.as_ref() {
                    None => Value::Int(v),
                    Some(Value::Int(a)) => Value::Int(a.wrapping_add(v)),
                    Some(cur) => {
                        Value::Float(cur.as_f64().expect("accumulator is numeric") + v as f64)
                    }
                };
                *acc = Some(next);
            }
            Acc::Avg { sum, n } => {
                *sum += v as f64;
                *n += 1;
            }
            acc => acc.update(Some(&Value::Int(v)))?,
        }
        Ok(())
    }

    /// Typed fast path for a `Float` column entry, mirroring
    /// [`Acc::update`]`(Some(&Value::Float(v)))` exactly.
    pub(crate) fn update_f64(&mut self, v: f64) -> SqResult<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(acc) => {
                let next = match acc.as_ref() {
                    None => Value::Float(v),
                    Some(cur) => Value::Float(cur.as_f64().expect("accumulator is numeric") + v),
                };
                *acc = Some(next);
            }
            Acc::Avg { sum, n } => {
                *sum += v;
                *n += 1;
            }
            acc => acc.update(Some(&Value::Float(v)))?,
        }
        Ok(())
    }

    /// Typed fast path for a `Timestamp` column entry, mirroring
    /// [`Acc::update`]`(Some(&Value::Timestamp(v)))` exactly — including
    /// SUM rejecting a timestamp as its *first* input while accepting one
    /// into an already-numeric accumulator (the row engine's `as_f64`
    /// coercion).
    pub(crate) fn update_ts(&mut self, v: i64) -> SqResult<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(acc) => {
                let next = match acc.as_ref() {
                    None => return Err(non_numeric("SUM", &Value::Timestamp(v))),
                    Some(cur) => {
                        Value::Float(cur.as_f64().expect("accumulator is numeric") + v as f64)
                    }
                };
                *acc = Some(next);
            }
            Acc::Avg { sum, n } => {
                *sum += v as f64;
                *n += 1;
            }
            acc => acc.update(Some(&Value::Timestamp(v)))?,
        }
        Ok(())
    }

    /// Fold another partial accumulator of the same shape into this one.
    ///
    /// Merge order follows slice order, mirroring the row order the
    /// sequential fold sees, so type promotion (Int→Float SUM) and
    /// incomparable-type MIN/MAX tie-breaks resolve identically.
    pub(crate) fn merge(&mut self, other: Acc) -> SqResult<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => {
                if let Some(v) = b {
                    let next = match a.take() {
                        None => v,
                        Some(Value::Int(x)) => match v {
                            Value::Int(y) => Value::Int(x.wrapping_add(y)),
                            other => Value::Float(
                                x as f64 + other.as_f64().expect("accumulator is numeric"),
                            ),
                        },
                        Some(cur) => {
                            let x = cur.as_f64().expect("accumulator is numeric");
                            let y = v.as_f64().expect("accumulator is numeric");
                            Value::Float(x + y)
                        }
                    };
                    *a = Some(next);
                }
            }
            (Acc::Avg { sum: s, n }, Acc::Avg { sum: os, n: on }) => {
                *s += os;
                *n += on;
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(v) = b {
                    let replace = match a.as_ref() {
                        None => true,
                        Some(cur) => v.sql_cmp(cur) == Some(Ordering::Less),
                    };
                    if replace {
                        *a = Some(v);
                    }
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(v) = b {
                    let replace = match a.as_ref() {
                        None => true,
                        Some(cur) => v.sql_cmp(cur) == Some(Ordering::Greater),
                    };
                    if replace {
                        *a = Some(v);
                    }
                }
            }
            _ => {
                return Err(SqError::Exec(
                    "mismatched aggregate accumulators in merge".into(),
                ))
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

fn numeric(v: &Value) -> SqResult<Value> {
    match v {
        Value::Int(_) | Value::Float(_) => Ok(v.clone()),
        other => Err(non_numeric("SUM", other)),
    }
}

fn non_numeric(func: &str, v: &Value) -> SqError {
    SqError::Exec(format!("{func} over non-numeric {}", v.type_name()))
}

/// A partial (unfinished) aggregation state: per-group accumulators plus the
/// first-seen order of groups for stable output.
pub(crate) struct PartialAgg {
    pub(crate) groups: HashMap<Vec<Value>, Vec<Acc>>,
    pub(crate) order: Vec<Vec<Value>>,
}

impl PartialAgg {
    pub(crate) fn new() -> PartialAgg {
        PartialAgg {
            groups: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Fold another partial state into this one, preserving first-seen group
    /// order across the two (self's groups first, then other's new groups).
    pub(crate) fn merge(&mut self, mut other: PartialAgg) -> SqResult<()> {
        for key in other.order {
            let accs = other.groups.remove(&key).expect("group recorded");
            match self.groups.get_mut(&key) {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(accs) {
                        a.merge(b)?;
                    }
                }
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, accs);
                }
            }
        }
        Ok(())
    }
}

/// Fold rows into the partial aggregation state.
pub(crate) fn accumulate(
    rows: &[Vec<Value>],
    node: &AggregateNode,
    ctx: &ExecContext,
    partial: &mut PartialAgg,
) -> SqResult<()> {
    for row in rows {
        let mut key = Vec::with_capacity(node.group_exprs.len());
        for g in &node.group_exprs {
            key.push(g.eval(row, ctx)?);
        }
        let accs = match partial.groups.get_mut(&key) {
            Some(a) => a,
            None => {
                partial.order.push(key.clone());
                partial
                    .groups
                    .entry(key.clone())
                    .or_insert_with(|| node.aggs.iter().map(|(f, _)| Acc::new(*f)).collect())
            }
        };
        for (acc, (_, arg)) in accs.iter_mut().zip(node.aggs.iter()) {
            match arg {
                None => acc.update(None)?,
                Some(expr) => {
                    let v = expr.eval(row, ctx)?;
                    acc.update(Some(&v))?;
                }
            }
        }
    }
    Ok(())
}

/// Finish accumulators into output rows `[group keys…, aggregate results…]`
/// in first-seen group order.
pub(crate) fn finish_groups(mut partial: PartialAgg, node: &AggregateNode) -> Vec<Vec<Value>> {
    // A global aggregate (no GROUP BY) over zero rows yields one row.
    if node.group_exprs.is_empty() && partial.groups.is_empty() {
        let accs: Vec<Acc> = node.aggs.iter().map(|(f, _)| Acc::new(*f)).collect();
        let row: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
        return vec![row];
    }
    let mut out = Vec::with_capacity(partial.groups.len());
    for key in partial.order {
        let accs = partial.groups.remove(&key).expect("group recorded");
        let mut row = key;
        row.extend(accs.into_iter().map(Acc::finish));
        out.push(row);
    }
    out
}

/// Group rows and evaluate aggregates; output rows are
/// `[group keys…, aggregate results…]`.
fn aggregate(
    rows: Vec<Vec<Value>>,
    node: &AggregateNode,
    ctx: &ExecContext,
) -> SqResult<Vec<Vec<Value>>> {
    let mut partial = PartialAgg::new();
    accumulate(&rows, node, ctx, &mut partial)?;
    Ok(finish_groups(partial, node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemCatalog, MemTable};
    use crate::parser::parse;
    use crate::plan::plan;
    use squery_common::config::Parallelism;
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
        let orders_rows = vec![
            vec![Value::Int(1), Value::Int(10), Value::str("north")],
            vec![Value::Int(2), Value::Int(20), Value::str("north")],
            vec![Value::Int(3), Value::Int(30), Value::str("south")],
            vec![Value::Int(4), Value::Null, Value::str("south")],
        ];
        let info_rows = vec![
            vec![Value::Int(1), Value::str("food")],
            vec![Value::Int(2), Value::str("food")],
            vec![Value::Int(3), Value::str("pharma")],
            vec![Value::Int(9), Value::str("unmatched")],
        ];
        MemCatalog::new(vec![
            Arc::new(MemTable::new("orders", orders, orders_rows)),
            Arc::new(MemTable::new("info", info, info_rows)),
        ])
    }

    /// The row reference's output, asserted equal to the columnar
    /// driver's.
    fn run(sql: &str) -> Vec<Vec<Value>> {
        let c = catalog();
        let p = plan(&parse(sql).unwrap(), &c).unwrap();
        let reference = execute(&p, &reference_ctx()).unwrap();
        assert_eq!(
            execute(&p, &ExecContext::live_only(0)).unwrap(),
            reference,
            "{sql}"
        );
        reference
    }

    fn reference_ctx() -> ExecContext {
        ExecContext::live_only(0).with_vectorized(false)
    }

    #[test]
    fn select_star() {
        let rows = run("SELECT * FROM orders");
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn filter_and_project() {
        let rows = run("SELECT total FROM orders WHERE zone = 'north'");
        assert_eq!(rows, vec![vec![Value::Int(10)], vec![Value::Int(20)]]);
    }

    #[test]
    fn null_rows_do_not_match_filters() {
        let rows = run("SELECT partitionKey FROM orders WHERE total > 0");
        assert_eq!(rows.len(), 3, "NULL total row filtered out");
    }

    #[test]
    fn using_join_combines_rows() {
        let mut rows =
            run("SELECT partitionKey, total, category FROM orders JOIN info USING(partitionKey)");
        rows.sort();
        assert_eq!(rows.len(), 3, "keys 1,2,3 match; 4 and 9 don't");
        assert_eq!(
            rows[0],
            vec![Value::Int(1), Value::Int(10), Value::str("food")]
        );
    }

    #[test]
    fn group_by_count_and_sum() {
        let mut rows = run("SELECT zone, COUNT(*), SUM(total) FROM orders GROUP BY zone");
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::str("north"), Value::Int(2), Value::Int(30)],
                vec![Value::str("south"), Value::Int(2), Value::Int(30)],
            ]
        );
    }

    #[test]
    fn count_column_skips_nulls() {
        let rows = run("SELECT COUNT(total), COUNT(*) FROM orders");
        assert_eq!(rows, vec![vec![Value::Int(3), Value::Int(4)]]);
    }

    #[test]
    fn avg_min_max() {
        let rows = run("SELECT AVG(total), MIN(total), MAX(total) FROM orders");
        assert_eq!(
            rows,
            vec![vec![Value::Float(20.0), Value::Int(10), Value::Int(30)]]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let rows = run("SELECT COUNT(*), SUM(total) FROM orders WHERE zone = 'nowhere'");
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn group_by_over_empty_input_is_empty() {
        let rows = run("SELECT zone, COUNT(*) FROM orders WHERE zone = 'nowhere' GROUP BY zone");
        assert!(rows.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let rows = run("SELECT zone, SUM(total) FROM orders GROUP BY zone HAVING SUM(total) > 25");
        assert_eq!(rows.len(), 2);
        let rows =
            run("SELECT zone, COUNT(total) FROM orders GROUP BY zone HAVING COUNT(total) > 1");
        assert_eq!(rows, vec![vec![Value::str("north"), Value::Int(2)]]);
    }

    #[test]
    fn order_by_and_limit() {
        let rows =
            run("SELECT total FROM orders WHERE total IS NOT NULL ORDER BY total DESC LIMIT 2");
        assert_eq!(rows, vec![vec![Value::Int(30)], vec![Value::Int(20)]]);
    }

    #[test]
    fn order_by_aggregate_alias() {
        let rows =
            run("SELECT zone, SUM(total) AS s FROM orders GROUP BY zone ORDER BY s DESC, zone");
        assert_eq!(rows.len(), 2);
        // Both sums are 30; tie broken by zone ascending.
        assert_eq!(rows[0][0], Value::str("north"));
    }

    #[test]
    fn arithmetic_in_projection() {
        let rows = run("SELECT total * 2 + 1 FROM orders WHERE partitionKey = 1");
        assert_eq!(rows, vec![vec![Value::Int(21)]]);
    }

    #[test]
    fn expression_over_aggregates() {
        let rows = run("SELECT SUM(total) / COUNT(total) FROM orders");
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
    }

    #[test]
    fn join_on_equality() {
        let rows = run(
            "SELECT o.total FROM orders o JOIN info i ON o.partitionKey = i.partitionKey WHERE i.category = 'pharma'",
        );
        assert_eq!(rows, vec![vec![Value::Int(30)]]);
    }

    #[test]
    fn between_like_and_case_evaluate() {
        let rows = run("SELECT total FROM orders WHERE total BETWEEN 15 AND 25");
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
        let rows = run("SELECT total FROM orders WHERE total NOT BETWEEN 15 AND 25 AND total IS NOT NULL ORDER BY total");
        assert_eq!(rows, vec![vec![Value::Int(10)], vec![Value::Int(30)]]);
        let rows = run("SELECT partitionKey FROM orders WHERE zone LIKE 'n%'");
        assert_eq!(rows.len(), 2);
        let rows = run("SELECT partitionKey FROM orders WHERE zone LIKE '_orth'");
        assert_eq!(rows.len(), 2);
        let rows = run(
            "SELECT CASE WHEN total >= 30 THEN 'high' WHEN total >= 20 THEN 'mid' ELSE 'low' END AS band              FROM orders WHERE total IS NOT NULL ORDER BY total",
        );
        assert_eq!(
            rows,
            vec![
                vec![Value::str("low")],
                vec![Value::str("mid")],
                vec![Value::str("high")],
            ]
        );
        // Simple CASE desugars to equality on the operand.
        let rows = run(
            "SELECT CASE zone WHEN 'north' THEN 1 ELSE 0 END FROM orders ORDER BY partitionKey",
        );
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(0)],
                vec![Value::Int(0)],
            ]
        );
    }

    #[test]
    fn scalar_functions_evaluate() {
        let rows = run("SELECT ABS(0 - total), UPPER(zone), LENGTH(zone), COALESCE(total, 0)                         FROM orders WHERE partitionKey = 1");
        assert_eq!(
            rows,
            vec![vec![
                Value::Int(10),
                Value::str("NORTH"),
                Value::Int(5),
                Value::Int(10),
            ]]
        );
        // COALESCE falls back past the NULL total of key 4.
        let rows = run("SELECT COALESCE(total, -1) FROM orders WHERE partitionKey = 4");
        assert_eq!(rows, vec![vec![Value::Int(-1)]]);
        // CASE inside an aggregate argument.
        let rows =
            run("SELECT SUM(CASE WHEN zone = 'north' THEN 1 ELSE 0 END) AS northers FROM orders");
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn null_join_keys_never_match() {
        // Add a NULL-keyed row via a self-join trick: orders has no NULL keys,
        // so join totals (which include a NULL) on total = total instead.
        let c = catalog();
        let p = plan(
            &parse("SELECT o.zone FROM orders o JOIN orders p ON o.total = p.total").unwrap(),
            &c,
        )
        .unwrap();
        let rows = execute(&p, &reference_ctx()).unwrap();
        // 3 non-null totals match themselves exactly once each.
        assert_eq!(rows.len(), 3);
        assert_eq!(execute(&p, &ExecContext::live_only(0)).unwrap(), rows);
    }

    /// A columnar context that forces parallel execution with one-row
    /// morsels, so even the tiny test tables split into many units.
    fn parallel_ctx(dop: usize) -> ExecContext {
        ExecContext::live_only(0).with_parallelism(Parallelism {
            degree: dop,
            min_morsel_rows: 1,
        })
    }

    #[test]
    fn parallel_matches_reference_row_for_row() {
        let queries = [
            "SELECT * FROM orders",
            "SELECT total FROM orders WHERE zone = 'north'",
            "SELECT partitionKey, total, category FROM orders JOIN info USING(partitionKey)",
            "SELECT zone, COUNT(*), SUM(total) FROM orders GROUP BY zone",
            "SELECT AVG(total), MIN(total), MAX(total) FROM orders",
            "SELECT COUNT(*), SUM(total) FROM orders WHERE zone = 'nowhere'",
            "SELECT zone, SUM(total) FROM orders GROUP BY zone HAVING SUM(total) > 25",
            "SELECT total FROM orders WHERE total IS NOT NULL ORDER BY total DESC LIMIT 2",
            "SELECT zone, SUM(total) AS s FROM orders GROUP BY zone ORDER BY s DESC, zone",
            "SELECT o.zone FROM orders o JOIN orders p ON o.total = p.total",
        ];
        let c = catalog();
        for sql in queries {
            let p = plan(&parse(sql).unwrap(), &c).unwrap();
            let reference = execute(&p, &reference_ctx()).unwrap();
            for dop in [1, 2, 4, 8] {
                let parallel = execute(&p, &parallel_ctx(dop)).unwrap();
                assert_eq!(parallel, reference, "dop {dop}: {sql}");
            }
        }
    }

    #[test]
    fn parallel_propagates_first_worker_error() {
        let c = catalog();
        // Division by a value that is zero for one row errors at eval time.
        let p = plan(
            &parse("SELECT 1 / (total - 10) FROM orders WHERE total IS NOT NULL").unwrap(),
            &c,
        )
        .unwrap();
        assert!(execute(&p, &reference_ctx()).is_err());
        for dop in [1, 4] {
            assert!(execute(&p, &parallel_ctx(dop)).is_err(), "dop {dop}");
        }
    }

    #[test]
    fn parallel_sum_promotes_like_reference() {
        // Mixed Int/Float SUM: the merged accumulator must promote to Float
        // exactly when the reference's sequential fold does.
        let s = schema(vec![("v", DataType::Any)]);
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::Int(3)],
            vec![Value::Int(4)],
        ];
        let c = MemCatalog::new(vec![Arc::new(MemTable::new("t", s, rows))]);
        let p = plan(&parse("SELECT SUM(v) FROM t").unwrap(), &c).unwrap();
        let reference = execute(&p, &reference_ctx()).unwrap();
        assert_eq!(reference, vec![vec![Value::Float(10.5)]]);
        for dop in [1, 2, 4] {
            assert_eq!(execute(&p, &parallel_ctx(dop)).unwrap(), reference);
        }
    }
}
