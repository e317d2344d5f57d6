//! The vectorized (columnar) executor: the production driver for every plan.
//!
//! Scans materialize as [`ColumnarBatch`]es (typed column vectors built at
//! the scan boundary), the `WHERE` clause compiles once per query into a
//! [`VecPred`] kernel tree evaluated column-at-a-time per batch, each hash
//! join of the chain builds over its build side's (column-pruned, cached)
//! batches and its probe gathers matching build cells batch-wise, and
//! aggregates fold typed columns into the shared accumulators via per-type
//! fast paths.
//!
//! **Equivalence contract.** Output is row-for-row identical to the
//! sequential row reference (`exec.rs`) at every DOP — same rows, same
//! order, bit-identical floats:
//!
//! * batches preserve row order, and every merge (morsel units, per-group
//!   accumulators) happens in the same order as the reference's fold;
//! * kernels mirror `Value::sql_cmp` / Kleene semantics exactly;
//! * a filter outside the kernel subset (scalar functions, arithmetic), and
//!   any batch a kernel cannot handle faithfully — mixed-type (`Any`)
//!   columns, runtime type pairings the reference would reject — is
//!   **row-evaluated per batch** with the original expression, so errors
//!   and three-valued edge cases reproduce exactly.
//!
//! The morsel driver and tracing contract are shared with `exec.rs`: the
//! node keys (`scan{i}`, `join{i}`, `filter`, `aggregate`) match the
//! reference's, so `EXPLAIN ANALYZE` renders the same tree either way.

use crate::ast::{BinaryOp, UnaryOp};
use crate::batch::{Column, ColumnBuilder, ColumnarBatch, Mask, Tri};
use crate::catalog::{slice_batches_cached, ExecContext, TableSlices};
use crate::exec::{
    accumulate, finish_groups, finish_output, parallel_scan_batches, project_rows, start_node, Acc,
    NodeTimer, PartialAgg,
};
use crate::expr::{like_match, BoundExpr};
use crate::plan::{AggregateNode, PhysicalPlan};
use squery_common::partition::FnvHasher;
use squery_common::{SqResult, Value};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Predicate kernels
// ---------------------------------------------------------------------------

/// A comparison operator over a resolved [`Ordering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        match op {
            BinaryOp::Eq => Some(CmpOp::Eq),
            BinaryOp::NotEq => Some(CmpOp::NotEq),
            BinaryOp::Lt => Some(CmpOp::Lt),
            BinaryOp::LtEq => Some(CmpOp::LtEq),
            BinaryOp::Gt => Some(CmpOp::Gt),
            BinaryOp::GtEq => Some(CmpOp::GtEq),
            _ => None,
        }
    }

    /// The operator with its operands swapped (`lit < col` ⇔ `col > lit`).
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }

    /// Apply to a resolved ordering, mirroring `eval_binary`'s mapping.
    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }
}

/// A compiled predicate kernel tree: the subset of [`BoundExpr`] the
/// columnar filter covers, with `LOCALTIMESTAMP` resolved to a constant and
/// literal-vs-column comparisons normalized to column-vs-literal.
///
/// `BETWEEN` desugars at compile time into `AND` of two comparisons (with a
/// Kleene `NOT` when negated), exactly matching its row-engine expansion.
#[derive(Debug, Clone)]
pub(crate) enum VecPred {
    /// `col <op> literal`.
    CmpLit { col: usize, op: CmpOp, lit: Value },
    /// `col <op> col`.
    CmpCols {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
    /// `col [NOT] IN (literals…)`.
    InList {
        col: usize,
        list: Vec<Value>,
        negated: bool,
    },
    /// `col [NOT] LIKE 'pattern'`.
    Like {
        col: usize,
        pattern: Arc<str>,
        negated: bool,
    },
    /// Kleene AND.
    And(Box<VecPred>, Box<VecPred>),
    /// Kleene OR.
    Or(Box<VecPred>, Box<VecPred>),
    /// Kleene NOT.
    Not(Box<VecPred>),
    /// A constant truth value.
    Lit(Tri),
    /// A bare boolean column used as a predicate.
    BoolCol { col: usize },
}

/// A comparison operand the kernels understand.
enum Operand {
    Col(usize),
    Lit(Value),
}

fn operand(e: &BoundExpr, now_micros: i64) -> Option<Operand> {
    match e {
        BoundExpr::Column(i) => Some(Operand::Col(*i)),
        BoundExpr::Literal(v) => Some(Operand::Lit(v.clone())),
        BoundExpr::LocalTimestamp => Some(Operand::Lit(Value::Timestamp(now_micros))),
        _ => None,
    }
}

/// Compile a filter expression into a kernel tree, or `None` if any part of
/// it is outside the covered subset (every batch then row-evaluates the
/// filter).
fn compile_pred(expr: &BoundExpr, now_micros: i64) -> Option<VecPred> {
    match expr {
        BoundExpr::Column(i) => Some(VecPred::BoolCol { col: *i }),
        BoundExpr::Literal(v) => match v {
            Value::Bool(true) => Some(VecPred::Lit(Tri::True)),
            Value::Bool(false) => Some(VecPred::Lit(Tri::False)),
            Value::Null => Some(VecPred::Lit(Tri::Null)),
            _ => None,
        },
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => Some(VecPred::And(
                Box::new(compile_pred(left, now_micros)?),
                Box::new(compile_pred(right, now_micros)?),
            )),
            BinaryOp::Or => Some(VecPred::Or(
                Box::new(compile_pred(left, now_micros)?),
                Box::new(compile_pred(right, now_micros)?),
            )),
            _ => {
                let op = CmpOp::from_binary(*op)?;
                match (operand(left, now_micros)?, operand(right, now_micros)?) {
                    (Operand::Col(l), Operand::Col(r)) => Some(VecPred::CmpCols {
                        left: l,
                        op,
                        right: r,
                    }),
                    (Operand::Col(c), Operand::Lit(v)) => {
                        Some(VecPred::CmpLit { col: c, op, lit: v })
                    }
                    (Operand::Lit(v), Operand::Col(c)) => Some(VecPred::CmpLit {
                        col: c,
                        op: op.flip(),
                        lit: v,
                    }),
                    // Constant comparisons are rare; leave them to row
                    // evaluation (they may legitimately error).
                    (Operand::Lit(_), Operand::Lit(_)) => None,
                }
            }
        },
        BoundExpr::Unary { op, operand } => match op {
            UnaryOp::Not => Some(VecPred::Not(Box::new(compile_pred(operand, now_micros)?))),
            UnaryOp::Neg => None,
        },
        BoundExpr::IsNull { operand, negated } => match operand.as_ref() {
            BoundExpr::Column(i) => Some(VecPred::IsNull {
                col: *i,
                negated: *negated,
            }),
            _ => None,
        },
        BoundExpr::InList {
            operand: op_expr,
            list,
            negated,
        } => {
            let BoundExpr::Column(col) = op_expr.as_ref() else {
                return None;
            };
            let mut lits = Vec::with_capacity(list.len());
            for item in list {
                match operand(item, now_micros)? {
                    Operand::Lit(v) => lits.push(v),
                    Operand::Col(_) => return None,
                }
            }
            Some(VecPred::InList {
                col: *col,
                list: lits,
                negated: *negated,
            })
        }
        BoundExpr::Between {
            operand: op_expr,
            low,
            high,
            negated,
        } => {
            let BoundExpr::Column(col) = op_expr.as_ref() else {
                return None;
            };
            let (Some(Operand::Lit(lo)), Some(Operand::Lit(hi))) =
                (operand(low, now_micros), operand(high, now_micros))
            else {
                return None;
            };
            // NULL bounds take the row evaluator's three-valued
            // shortcuts; keep those on the row path.
            if lo.is_null() || hi.is_null() {
                return None;
            }
            let both = VecPred::And(
                Box::new(VecPred::CmpLit {
                    col: *col,
                    op: CmpOp::GtEq,
                    lit: lo,
                }),
                Box::new(VecPred::CmpLit {
                    col: *col,
                    op: CmpOp::LtEq,
                    lit: hi,
                }),
            );
            Some(if *negated {
                VecPred::Not(Box::new(both))
            } else {
                both
            })
        }
        BoundExpr::Like {
            operand: op_expr,
            pattern,
            negated,
        } => {
            let BoundExpr::Column(col) = op_expr.as_ref() else {
                return None;
            };
            let BoundExpr::Literal(Value::Str(p)) = pattern.as_ref() else {
                return None;
            };
            Some(VecPred::Like {
                col: *col,
                pattern: Arc::clone(p),
                negated: *negated,
            })
        }
        _ => None,
    }
}

#[inline]
fn tri_of(cond: bool) -> Tri {
    if cond {
        Tri::True
    } else {
        Tri::False
    }
}

impl VecPred {
    /// Evaluate over one batch. `None` means this batch is not kernelizable
    /// — a mixed-type (`Any`) column, or a runtime type pairing the row
    /// engine would reject — and the caller must row-evaluate the original
    /// expression for the batch, which reproduces row-engine results
    /// (including errors and short-circuits) exactly.
    pub(crate) fn eval(&self, batch: &ColumnarBatch) -> Option<Mask> {
        match self {
            VecPred::Lit(t) => Some(Mask(vec![*t; batch.len()])),
            VecPred::And(a, b) => {
                let mut m = a.eval(batch)?;
                m.and(&b.eval(batch)?);
                Some(m)
            }
            VecPred::Or(a, b) => {
                let mut m = a.eval(batch)?;
                m.or(&b.eval(batch)?);
                Some(m)
            }
            VecPred::Not(a) => {
                let mut m = a.eval(batch)?;
                m.not();
                Some(m)
            }
            VecPred::BoolCol { col } => match batch.column(*col) {
                Column::Bool(v, ok) => Some(Mask(
                    v.iter()
                        .zip(ok)
                        .map(|(b, k)| if !k { Tri::Null } else { tri_of(*b) })
                        .collect(),
                )),
                // The row engine errors on a non-boolean predicate value.
                _ => None,
            },
            VecPred::IsNull { col, negated } => {
                let c = batch.column(*col);
                Some(Mask(
                    (0..batch.len())
                        .map(|i| tri_of(is_null_at(c, i) != *negated))
                        .collect(),
                ))
            }
            VecPred::InList { col, list, negated } => {
                // Generic per-value evaluation: `IN` never errors in the row
                // engine (incomparable candidates just don't match), so
                // every column type — including `Any` — is safe here.
                let c = batch.column(*col);
                Some(Mask(
                    (0..batch.len())
                        .map(|i| in_list_tri(&c.value_at(i), list, *negated))
                        .collect(),
                ))
            }
            VecPred::Like {
                col,
                pattern,
                negated,
            } => match batch.column(*col) {
                Column::Str(v) => Some(Mask(
                    v.iter()
                        .map(|s| match s {
                            None => Tri::Null,
                            Some(t) => tri_of(like_match(t, pattern) != *negated),
                        })
                        .collect(),
                )),
                // Non-string non-null operands error in the row engine.
                _ => None,
            },
            VecPred::CmpLit { col, op, lit } => cmp_lit(batch.column(*col), *op, lit),
            VecPred::CmpCols { left, op, right } => {
                cmp_cols(batch.column(*left), *op, batch.column(*right))
            }
        }
    }
}

fn is_null_at(c: &Column, i: usize) -> bool {
    match c {
        Column::Int(_, ok) | Column::Float(_, ok) | Column::Timestamp(_, ok) => !ok[i],
        Column::Bool(_, ok) => !ok[i],
        Column::Str(v) => v[i].is_none(),
        Column::Any(v) => v[i].is_null(),
    }
}

fn in_list_tri(v: &Value, list: &[Value], negated: bool) -> Tri {
    if v.is_null() {
        return Tri::Null;
    }
    let mut saw_null = false;
    for candidate in list {
        if candidate.is_null() {
            saw_null = true;
            continue;
        }
        if v.sql_cmp(candidate) == Some(Ordering::Equal) {
            return tri_of(!negated);
        }
    }
    if saw_null {
        Tri::Null
    } else {
        tri_of(negated)
    }
}

/// Column-vs-literal comparison, mirroring `Value::sql_cmp` type-for-type.
/// `None` = the pairing is incomparable (or the column is `Any`): the row
/// engine would error on non-null values, so the batch falls back.
fn cmp_lit(col: &Column, op: CmpOp, lit: &Value) -> Option<Mask> {
    if lit.is_null() {
        // NULL comparisons are UNKNOWN for every row, never errors.
        return Some(Mask(vec![Tri::Null; col.len()]));
    }
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    match (col, lit) {
        (Column::Int(v, ok), Value::Int(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Int(v, ok), Value::Float(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test((v[i] as f64).total_cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        // sql_cmp compares Int↔Timestamp as raw i64 microseconds.
        (Column::Int(v, ok), Value::Timestamp(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Float(v, ok), Value::Float(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].total_cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Float(v, ok), Value::Int(b)) => {
            let b = *b as f64;
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].total_cmp(&b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Timestamp(v, ok), Value::Timestamp(b))
        | (Column::Timestamp(v, ok), Value::Int(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Bool(v, ok), Value::Bool(b)) => {
            for i in 0..n {
                out.push(if ok[i] {
                    tri_of(op.test(v[i].cmp(b)))
                } else {
                    Tri::Null
                });
            }
        }
        (Column::Str(v), Value::Str(b)) => {
            let b: &str = b;
            for s in v {
                out.push(match s {
                    None => Tri::Null,
                    Some(s) => tri_of(op.test(s.as_ref().cmp(b))),
                });
            }
        }
        // Incomparable pairing (Float↔Timestamp, Str↔Int, …) or Any column.
        _ => return None,
    }
    Some(Mask(out))
}

/// Column-vs-column comparison; same comparability rules as [`cmp_lit`].
fn cmp_cols(l: &Column, op: CmpOp, r: &Column) -> Option<Mask> {
    let n = l.len();
    let mut out = Vec::with_capacity(n);
    macro_rules! rows {
        ($lv:ident, $lok:ident, $rv:ident, $rok:ident, $cmp:expr) => {
            for i in 0..n {
                out.push(if $lok[i] && $rok[i] {
                    #[allow(clippy::redundant_closure_call)]
                    tri_of(op.test(($cmp)($lv[i], $rv[i])))
                } else {
                    Tri::Null
                });
            }
        };
    }
    match (l, r) {
        (Column::Int(a, ao), Column::Int(b, bo)) => rows!(a, ao, b, bo, |x: i64, y: i64| x.cmp(&y)),
        (Column::Int(a, ao), Column::Float(b, bo)) => {
            rows!(a, ao, b, bo, |x: i64, y: f64| (x as f64).total_cmp(&y))
        }
        (Column::Float(a, ao), Column::Int(b, bo)) => {
            rows!(a, ao, b, bo, |x: f64, y: i64| x.total_cmp(&(y as f64)))
        }
        (Column::Float(a, ao), Column::Float(b, bo)) => {
            rows!(a, ao, b, bo, |x: f64, y: f64| x.total_cmp(&y))
        }
        (Column::Timestamp(a, ao), Column::Timestamp(b, bo))
        | (Column::Timestamp(a, ao), Column::Int(b, bo))
        | (Column::Int(a, ao), Column::Timestamp(b, bo)) => {
            rows!(a, ao, b, bo, |x: i64, y: i64| x.cmp(&y))
        }
        (Column::Bool(a, ao), Column::Bool(b, bo)) => {
            rows!(a, ao, b, bo, |x: bool, y: bool| x.cmp(&y))
        }
        (Column::Str(a), Column::Str(b)) => {
            for (x, y) in a.iter().zip(b) {
                out.push(match (x, y) {
                    (Some(x), Some(y)) => tri_of(op.test(x.cmp(y))),
                    _ => Tri::Null,
                });
            }
        }
        _ => return None,
    }
    Some(Mask(out))
}

// ---------------------------------------------------------------------------
// Filter application
// ---------------------------------------------------------------------------

/// Selected row indices for one batch: the kernel mask when the filter
/// compiled and the batch is kernelizable, a per-row evaluation of the
/// layout-remapped original expression (exact reference semantics,
/// including errors) otherwise.
fn filter_selection(lay: &Layout, batch: &ColumnarBatch, ctx: &ExecContext) -> SqResult<Vec<u32>> {
    let Some(filter) = &lay.filter else {
        return Ok((0..batch.len() as u32).collect());
    };
    if let Some(mask) = lay.pred.as_ref().and_then(|p| p.eval(batch)) {
        return Ok(mask.selected());
    }
    let mut sel = Vec::new();
    for i in 0..batch.len() {
        let row = batch.row_at(i);
        if filter.matches(&row, ctx)? {
            sel.push(i as u32);
        }
    }
    Ok(sel)
}

// ---------------------------------------------------------------------------
// Batched join probe
// ---------------------------------------------------------------------------

/// A frozen columnar join build: the build side's scanned batches (shared
/// with the `"batches"` executor-cache entries of the same columns) and a
/// map from join key to the packed `batch << 32 | row` ids of its matching
/// rows, in scan order. Probes gather build cells straight from the
/// batches; no build row is ever materialized.
struct JoinTable {
    batches: Vec<Arc<ColumnarBatch>>,
    map: HashMap<Vec<Value>, Vec<u64>, BuildHasherDefault<FnvHasher>>,
}

impl JoinTable {
    /// Index `batches` (in scan order) by the key columns at `key_pos`.
    /// Rows with a NULL key component never match and are left out.
    fn build(batches: Vec<Arc<ColumnarBatch>>, key_pos: &[usize]) -> JoinTable {
        let rows = batches.iter().map(|b| b.len()).sum();
        let mut map: HashMap<Vec<Value>, Vec<u64>, _> =
            HashMap::with_capacity_and_hasher(rows, Default::default());
        for (bi, b) in batches.iter().enumerate() {
            'rows: for r in 0..b.len() {
                let mut key = Vec::with_capacity(key_pos.len());
                for &p in key_pos {
                    let v = b.value_at(r, p);
                    if v.is_null() {
                        continue 'rows;
                    }
                    key.push(v);
                }
                map.entry(key)
                    .or_default()
                    .push(((bi as u64) << 32) | r as u64);
            }
        }
        JoinTable { batches, map }
    }

    /// Rows the build scanned (what a cache hit replays).
    fn rows(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// Probe one batch against a build table. `probe_key_pos` are the join-key
/// positions within the (pruned) probe batch; `build_cols` lists the build
/// batch positions to append after the probe columns. Output row order is
/// probe-major, match order within each probe row — identical to the row
/// engine's probe. Returns a zero-column batch when nothing matches.
fn probe_batch(
    batch: &ColumnarBatch,
    table: &JoinTable,
    probe_key_pos: &[usize],
    build_cols: &[usize],
) -> ColumnarBatch {
    let mut probe_idx: Vec<u32> = Vec::new();
    let mut matches: Vec<u64> = Vec::new();
    let mut key = Vec::with_capacity(probe_key_pos.len());
    'probe: for i in 0..batch.len() {
        key.clear();
        for &k in probe_key_pos {
            let v = batch.value_at(i, k);
            if v.is_null() {
                continue 'probe;
            }
            key.push(v);
        }
        if let Some(ids) = table.map.get(&key) {
            probe_idx.extend(std::iter::repeat_n(i as u32, ids.len()));
            matches.extend_from_slice(ids);
        }
    }
    if probe_idx.is_empty() {
        return ColumnarBatch::new(Vec::new());
    }
    let mut cols = batch.gather(&probe_idx).into_columns();
    for &j in build_cols {
        let mut b = ColumnBuilder::new();
        for &m in &matches {
            let src = &table.batches[(m >> 32) as usize];
            b.push(&src.value_at(m as u32 as usize, j));
        }
        cols.push(b.finish());
    }
    ColumnarBatch::new(cols)
}

// ---------------------------------------------------------------------------
// Vectorized aggregation
// ---------------------------------------------------------------------------

/// The aggregate shapes the columnar accumulator covers: every GROUP BY
/// expression and every aggregate argument is a plain column reference (or
/// `COUNT(*)`). Anything else aggregates through the shared row
/// `accumulate` over materialized rows.
fn agg_shape(node: &AggregateNode) -> Option<(Vec<usize>, Vec<Option<usize>>)> {
    let mut group_cols = Vec::with_capacity(node.group_exprs.len());
    for g in &node.group_exprs {
        match g {
            BoundExpr::Column(i) => group_cols.push(*i),
            _ => return None,
        }
    }
    let mut agg_args = Vec::with_capacity(node.aggs.len());
    for (_, arg) in &node.aggs {
        match arg {
            None => agg_args.push(None),
            Some(BoundExpr::Column(i)) => agg_args.push(Some(*i)),
            Some(_) => return None,
        }
    }
    Some((group_cols, agg_args))
}

// ---------------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------------

/// Collect every column index an expression reads into `out`.
fn collect_cols(expr: &BoundExpr, out: &mut BTreeSet<usize>) {
    match expr {
        BoundExpr::Column(i) => {
            out.insert(*i);
        }
        BoundExpr::Literal(_) | BoundExpr::LocalTimestamp => {}
        BoundExpr::Binary { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        BoundExpr::Unary { operand, .. } | BoundExpr::IsNull { operand, .. } => {
            collect_cols(operand, out)
        }
        BoundExpr::InList { operand, list, .. } => {
            collect_cols(operand, out);
            for e in list {
                collect_cols(e, out);
            }
        }
        BoundExpr::Between {
            operand, low, high, ..
        } => {
            collect_cols(operand, out);
            collect_cols(low, out);
            collect_cols(high, out);
        }
        BoundExpr::Like {
            operand, pattern, ..
        } => {
            collect_cols(operand, out);
            collect_cols(pattern, out);
        }
        BoundExpr::Case {
            branches,
            else_result,
        } => {
            for (c, r) in branches {
                collect_cols(c, out);
                collect_cols(r, out);
            }
            if let Some(e) = else_result {
                collect_cols(e, out);
            }
        }
        BoundExpr::Func { args, .. } => {
            for e in args {
                collect_cols(e, out);
            }
        }
    }
}

/// The expression with every column reference renumbered through `map`.
/// Every referenced column must be present in the map (collect first).
fn remap_cols(expr: &BoundExpr, map: &HashMap<usize, usize>) -> BoundExpr {
    let remap = |e: &BoundExpr| Box::new(remap_cols(e, map));
    match expr {
        BoundExpr::Column(i) => BoundExpr::Column(map[i]),
        BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
        BoundExpr::LocalTimestamp => BoundExpr::LocalTimestamp,
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: remap(left),
            op: *op,
            right: remap(right),
        },
        BoundExpr::Unary { op, operand } => BoundExpr::Unary {
            op: *op,
            operand: remap(operand),
        },
        BoundExpr::IsNull { operand, negated } => BoundExpr::IsNull {
            operand: remap(operand),
            negated: *negated,
        },
        BoundExpr::InList {
            operand,
            list,
            negated,
        } => BoundExpr::InList {
            operand: remap(operand),
            list: list.iter().map(|e| remap_cols(e, map)).collect(),
            negated: *negated,
        },
        BoundExpr::Between {
            operand,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            operand: remap(operand),
            low: remap(low),
            high: remap(high),
            negated: *negated,
        },
        BoundExpr::Like {
            operand,
            pattern,
            negated,
        } => BoundExpr::Like {
            operand: remap(operand),
            pattern: remap(pattern),
            negated: *negated,
        },
        BoundExpr::Case {
            branches,
            else_result,
        } => BoundExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (remap_cols(c, map), remap_cols(r, map)))
                .collect(),
            else_result: else_result.as_ref().map(|e| remap(e)),
        },
        BoundExpr::Func { func, args } => BoundExpr::Func {
            func: *func,
            args: args.iter().map(|e| remap_cols(e, map)).collect(),
        },
    }
}

/// The physical column layout of one query's pipeline batches, plus every
/// downstream consumer remapped onto it.
///
/// The pipeline batch starts as the probe scan's columns and each join of
/// the chain appends its build columns. Covered aggregate plans materialize
/// only the columns the filter, GROUP BY, aggregate arguments, and later
/// join keys actually touch (projections and HAVING run over aggregate
/// *output* rows, so they never constrain the scan) — for the paper's
/// Q1–Q4 that is 2–4 of ~12 joined columns. All other plans keep every
/// logical column and materialize logical-order rows for the shared
/// project/sort tail.
struct Layout {
    /// The probe (morsel base) scan: scan 0, or scan 1 when the cost model
    /// flipped a single join's build side.
    probe: usize,
    /// Probe scan columns to materialize, ascending scan order.
    probe_cols: Vec<usize>,
    /// The hash joins, in chain order.
    joins: Vec<JoinLayout>,
    /// Batch position of each logical column, when every logical column is
    /// materialized (`None` for pruned aggregate layouts, which never
    /// materialize logical rows).
    row_pos: Option<Vec<usize>>,
    /// The filter remapped onto the batch layout (row evaluation runs this
    /// against pruned rows).
    filter: Option<BoundExpr>,
    /// The kernel tree compiled from the remapped filter, when the filter
    /// lies inside the kernel subset.
    pred: Option<VecPred>,
    /// Remapped GROUP BY columns and aggregate arguments, when [`VecAgg`]
    /// covers the aggregate shape.
    agg: Option<(Vec<usize>, Vec<Option<usize>>)>,
}

/// One hash join of the chain: how its build scan materializes and where
/// its keys and appended columns sit.
struct JoinLayout {
    /// The build scan's index in `plan.scans`.
    scan: usize,
    /// Build scan columns to materialize: the join keys plus every build
    /// column read downstream, ascending scan order.
    build_scan: Vec<usize>,
    /// Positions of the build join keys within the pruned build batches.
    build_key_pos: Vec<usize>,
    /// Positions of the probe join keys within the pipeline batch entering
    /// this join.
    probe_key_pos: Vec<usize>,
    /// Build batch positions appended to the pipeline batch, ascending
    /// scan-column order.
    build_cols: Vec<usize>,
}

/// Plan the batch layout of any plan shape.
fn layout(plan: &PhysicalPlan, now_micros: i64) -> Layout {
    // Logical column `l` of the joined row is column `logical[l].1` of scan
    // `logical[l].0`: scan 0 whole, then each joined scan without its
    // `right_drop` columns.
    let mut logical: Vec<(usize, usize)> = (0..plan.scans[0].width).map(|c| (0, c)).collect();
    for (j, join) in plan.joins.iter().enumerate() {
        logical.extend(
            (0..plan.scans[j + 1].width)
                .filter(|c| !join.right_drop.contains(c))
                .map(|c| (j + 1, c)),
        );
    }
    // The planner flips only single joins (a chain's later left inputs
    // have no estimate).
    let flipped = plan.joins.len() == 1 && plan.joins[0].build_left;

    let shape = plan.aggregate.as_ref().and_then(agg_shape);
    let mut used: BTreeSet<usize> = if let Some((groups, args)) = &shape {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        if let Some(f) = &plan.filter {
            collect_cols(f, &mut set);
        }
        set.extend(groups.iter().copied());
        set.extend(args.iter().flatten().copied());
        set
    } else {
        (0..logical.len()).collect()
    };
    // Joins after the first probe with logical columns of the pipeline
    // batch, so those must be materialized even when nothing else reads
    // them.
    for join in plan.joins.iter().skip(1) {
        used.extend(join.left_keys.iter().copied());
    }
    // The used logical columns of scan `s`, ascending (and so ascending in
    // scan-column order too).
    let used_of = |s: usize| -> Vec<usize> {
        used.iter()
            .copied()
            .filter(|&l| logical[l].0 == s)
            .collect()
    };
    let pos_in = |cols: &[usize], c: &usize| cols.binary_search(c).expect("column materialized");

    let probe = usize::from(flipped);
    let mut probe_set: BTreeSet<usize> = used_of(probe).iter().map(|&l| logical[l].1).collect();
    // The first join probes with raw probe-scan columns, which must be
    // materialized even when dropped from the logical row.
    match plan.joins.first() {
        Some(j) if flipped => probe_set.extend(j.right_keys.iter().copied()),
        Some(j) => probe_set.extend(j.left_keys.iter().copied()),
        None => {}
    }
    if probe_set.is_empty() {
        // COUNT(*)-style plans read no columns at all; keep one narrow
        // column so batch row counts survive.
        probe_set.insert(0);
    }
    let probe_cols: Vec<usize> = probe_set.into_iter().collect();
    let mut out_pos: HashMap<usize, usize> = used_of(probe)
        .into_iter()
        .map(|l| (l, pos_in(&probe_cols, &logical[l].1)))
        .collect();

    let mut width = probe_cols.len();
    let mut joins = Vec::with_capacity(plan.joins.len());
    for (j, join) in plan.joins.iter().enumerate() {
        let (scan, probe_keys, build_keys) = if flipped {
            (0, &join.right_keys, &join.left_keys)
        } else {
            (j + 1, &join.left_keys, &join.right_keys)
        };
        let probe_key_pos = if j == 0 {
            probe_keys.iter().map(|k| pos_in(&probe_cols, k)).collect()
        } else {
            probe_keys.iter().map(|k| out_pos[k]).collect()
        };
        let appended = used_of(scan);
        let build_scan: Vec<usize> = appended
            .iter()
            .map(|&l| logical[l].1)
            .chain(build_keys.iter().copied())
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        for (k, &l) in appended.iter().enumerate() {
            out_pos.insert(l, width + k);
        }
        width += appended.len();
        joins.push(JoinLayout {
            scan,
            build_key_pos: build_keys.iter().map(|k| pos_in(&build_scan, k)).collect(),
            probe_key_pos,
            build_cols: appended
                .iter()
                .map(|&l| pos_in(&build_scan, &logical[l].1))
                .collect(),
            build_scan,
        });
    }

    let row_pos =
        (used.len() == logical.len()).then(|| (0..logical.len()).map(|l| out_pos[&l]).collect());
    let filter = plan.filter.as_ref().map(|f| remap_cols(f, &out_pos));
    let pred = filter.as_ref().and_then(|f| compile_pred(f, now_micros));
    let agg = shape.map(|(groups, args)| {
        (
            groups.iter().map(|c| out_pos[c]).collect(),
            args.iter().map(|a| a.map(|c| out_pos[&c])).collect(),
        )
    });
    Layout {
        probe,
        probe_cols,
        joins,
        row_pos,
        filter,
        pred,
        agg,
    }
}

impl Layout {
    /// Materialize one batch row in logical column order — the boundary
    /// into the shared project/sort/accumulate tail. Only called on
    /// full (unpruned) layouts.
    fn logical_row(&self, b: &ColumnarBatch, i: usize) -> Vec<Value> {
        let pos = self
            .row_pos
            .as_ref()
            .expect("logical rows require a full layout");
        pos.iter().map(|&p| b.value_at(i, p)).collect()
    }
}

/// Per-worker columnar aggregation state: group keys resolve to dense ids
/// once per row, then each aggregate slot updates column-at-a-time through
/// the typed [`Acc`] fast paths. Converts into the shared [`PartialAgg`]
/// so merging and finishing are shared.
struct VecAgg<'a> {
    node: &'a AggregateNode,
    group_cols: &'a [usize],
    agg_args: &'a [Option<usize>],
    ids: HashMap<Vec<Value>, usize>,
    accs: Vec<Vec<Acc>>,
    order: Vec<Vec<Value>>,
    gids: Vec<usize>,
    key_buf: Vec<Value>,
}

impl<'a> VecAgg<'a> {
    fn new(
        node: &'a AggregateNode,
        group_cols: &'a [usize],
        agg_args: &'a [Option<usize>],
    ) -> Self {
        VecAgg {
            node,
            group_cols,
            agg_args,
            ids: HashMap::new(),
            accs: Vec::new(),
            order: Vec::new(),
            gids: Vec::new(),
            key_buf: Vec::new(),
        }
    }

    /// Fold one batch's selected rows, in row order (the float-summation
    /// order contract).
    fn update(&mut self, batch: &ColumnarBatch, sel: &[u32]) -> SqResult<()> {
        // Resolve each selected row's group id in row order, creating groups
        // first-seen — identical group order to the row engine's fold.
        self.gids.clear();
        for &ri in sel {
            self.key_buf.clear();
            for &c in self.group_cols {
                self.key_buf.push(batch.value_at(ri as usize, c));
            }
            let gid = match self.ids.get(&self.key_buf) {
                Some(&g) => g,
                None => {
                    let g = self.accs.len();
                    self.ids.insert(self.key_buf.clone(), g);
                    self.order.push(self.key_buf.clone());
                    self.accs
                        .push(self.node.aggs.iter().map(|(f, _)| Acc::new(*f)).collect());
                    g
                }
            };
            self.gids.push(gid);
        }
        // Per-slot, column-at-a-time updates. Slots are independent, so
        // slot-major order leaves every accumulator's update sequence in
        // row order, exactly like the row engine's row-major fold.
        for (slot, arg) in self.agg_args.iter().enumerate() {
            match arg {
                None => {
                    for &g in &self.gids {
                        self.accs[g][slot].update(None)?;
                    }
                }
                Some(c) => match batch.column(*c) {
                    Column::Int(v, ok) => {
                        for (&ri, &g) in sel.iter().zip(&self.gids) {
                            let i = ri as usize;
                            if ok[i] {
                                self.accs[g][slot].update_i64(v[i])?;
                            }
                        }
                    }
                    Column::Float(v, ok) => {
                        for (&ri, &g) in sel.iter().zip(&self.gids) {
                            let i = ri as usize;
                            if ok[i] {
                                self.accs[g][slot].update_f64(v[i])?;
                            }
                        }
                    }
                    Column::Timestamp(v, ok) => {
                        for (&ri, &g) in sel.iter().zip(&self.gids) {
                            let i = ri as usize;
                            if ok[i] {
                                self.accs[g][slot].update_ts(v[i])?;
                            }
                        }
                    }
                    col => {
                        for (&ri, &g) in sel.iter().zip(&self.gids) {
                            let v = col.value_at(ri as usize);
                            self.accs[g][slot].update(Some(&v))?;
                        }
                    }
                },
            }
        }
        Ok(())
    }

    fn into_partial(self) -> PartialAgg {
        let VecAgg { accs, order, .. } = self;
        let mut groups = HashMap::with_capacity(order.len());
        for (key, a) in order.iter().zip(accs) {
            groups.insert(key.clone(), a);
        }
        PartialAgg { groups, order }
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Run any plan on the columnar path.
pub(crate) fn try_execute(plan: &PhysicalPlan, ctx: &ExecContext) -> SqResult<Vec<Vec<Value>>> {
    let lay = layout(plan, ctx.now_micros);
    if ctx.parallelism.is_parallel() {
        run_parallel(plan, ctx, &lay)
    } else {
        run_sequential(plan, ctx, &lay)
    }
}

/// Close a scan node's span over `rows` rows and `slices` claimed slices,
/// and count the rows as scanned.
fn account_scan(ctx: &ExecContext, timer: Option<NodeTimer<'_>>, rows: u64, slices: u64) {
    if let Some(t) = timer {
        t.close(rows, slices);
    }
    if let Some(c) = &ctx.rows_scanned {
        c.add(rows);
    }
}

/// Materialize resolved scan slices as batches restricted to the `cols`
/// schema columns, in slice order. Sliced sources go through the per-slice
/// executor cache, so repeated queries over the same committed snapshot
/// reuse already-decoded column vectors.
fn slices_batches(slices: &TableSlices, cols: &[usize]) -> SqResult<Vec<Arc<ColumnarBatch>>> {
    Ok(match slices {
        TableSlices::Whole(rows) => ColumnarBatch::from_rows_chunked_cols(rows, cols)
            .into_iter()
            .map(Arc::new)
            .collect(),
        TableSlices::Sliced(sl) => {
            let mut out = Vec::new();
            for s in 0..sl.slice_count() {
                out.extend(slice_batches_cached(&**sl, s, cols)?);
            }
            out
        }
    })
}

/// Build — or fetch a memoized — join table over the build scan of `jl`,
/// holding its build-scan columns and hashed by its build keys. The
/// sequential driver scans under one `scan` span; the parallel driver scans
/// slices in parallel under per-unit `slice` spans, then indexes them in
/// unit order, so both produce the same key → matches-in-scan-order table.
/// Committed-snapshot sources memoize it under its key and scanned columns;
/// a hit replays the scan span and rows-scanned count the miss would have
/// emitted, keeping `EXPLAIN ANALYZE` totals cache-independent.
fn build_table(
    plan: &PhysicalPlan,
    jl: &JoinLayout,
    ctx: &ExecContext,
    parallel: bool,
) -> SqResult<Arc<JoinTable>> {
    let scan = &plan.scans[jl.scan];
    let node = format!("scan{}", jl.scan);
    let slices = scan.table.scan_partitions(&scan.hints, ctx)?;
    let mut cache_cols = jl.build_key_pos.clone();
    cache_cols.push(usize::MAX);
    cache_cols.extend(&jl.build_scan);
    if let TableSlices::Sliced(sl) = &slices {
        let hit = sl.cache_get("join_table", u32::MAX, &cache_cols);
        if let Some(table) = hit.and_then(|h| h.downcast::<JoinTable>().ok()) {
            let (kind, units) = if parallel {
                ("slice", u64::from(sl.slice_count()))
            } else {
                ("scan", 0)
            };
            account_scan(ctx, start_node(ctx, kind, node), table.rows(), units);
            return Ok(table);
        }
    }
    let batches = if parallel {
        parallel_scan_batches(&slices, ctx, &node, &jl.build_scan, |b, _| Ok(b.to_vec()))?.concat()
    } else {
        let timer = start_node(ctx, "scan", node);
        let batches = slices_batches(&slices, &jl.build_scan)?;
        account_scan(ctx, timer, batches.iter().map(|b| b.len() as u64).sum(), 0);
        batches
    };
    let table = Arc::new(JoinTable::build(batches, &jl.build_key_pos));
    if let TableSlices::Sliced(sl) = &slices {
        sl.cache_put("join_table", u32::MAX, &cache_cols, table.clone());
    }
    Ok(table)
}

/// The sequential (DOP 1) driver: phase-at-a-time under the same span
/// structure as the row reference (`scan{i}`, `join{i}`, `filter`,
/// `aggregate`, scans in scan order), so `EXPLAIN ANALYZE` and trace-shape
/// assertions see identical node spans.
fn run_sequential(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
    lay: &Layout,
) -> SqResult<Vec<Vec<Value>>> {
    // --- scans + joins ----------------------------------------------------
    let scan_probe = || -> SqResult<Vec<Arc<ColumnarBatch>>> {
        let scan = &plan.scans[lay.probe];
        let timer = start_node(ctx, "scan", format!("scan{}", lay.probe));
        let batches = slices_batches(
            &scan.table.scan_partitions(&scan.hints, ctx)?,
            &lay.probe_cols,
        )?;
        account_scan(ctx, timer, batches.iter().map(|b| b.len() as u64).sum(), 0);
        Ok(batches)
    };
    // A flipped join builds over scan 0 before its probe side is scanned.
    let mut pipeline = if lay.probe == 0 {
        Some(scan_probe()?)
    } else {
        None
    };
    for (j, jl) in lay.joins.iter().enumerate() {
        let table = build_table(plan, jl, ctx, false)?;
        let probe = match pipeline.take() {
            Some(batches) => batches,
            None => scan_probe()?,
        };
        let timer = start_node(ctx, "join", format!("join{j}"));
        let mut out = Vec::with_capacity(probe.len());
        let mut rows = 0u64;
        for b in &probe {
            let ob = probe_batch(b, &table, &jl.probe_key_pos, &jl.build_cols);
            rows += ob.len() as u64;
            if !ob.is_empty() {
                out.push(Arc::new(ob));
            }
        }
        if let Some(t) = timer {
            t.close(rows, 0);
        }
        pipeline = Some(out);
    }
    let batches = pipeline.expect("the probe side is scanned");

    // --- filter -----------------------------------------------------------
    let selections: Vec<Vec<u32>> = if plan.filter.is_some() {
        let timer = start_node(ctx, "filter", "filter".into());
        let mut sels = Vec::with_capacity(batches.len());
        let mut kept = 0u64;
        for b in &batches {
            let sel = filter_selection(lay, b.as_ref(), ctx)?;
            kept += sel.len() as u64;
            sels.push(sel);
        }
        if let Some(t) = timer {
            t.close(kept, 0);
        }
        sels
    } else {
        batches
            .iter()
            .map(|b| (0..b.len() as u32).collect())
            .collect()
    };

    // --- aggregate --------------------------------------------------------
    let rows = if let Some(node) = &plan.aggregate {
        let timer = start_node(ctx, "aggregate", "aggregate".into());
        let rows = match &lay.agg {
            Some((group_cols, agg_args)) => {
                let mut va = VecAgg::new(node, group_cols, agg_args);
                for (b, sel) in batches.iter().zip(&selections) {
                    va.update(b.as_ref(), sel)?;
                }
                finish_groups(va.into_partial(), node)
            }
            None => {
                let mut partial = PartialAgg::new();
                for (b, sel) in batches.iter().zip(&selections) {
                    let rows: Vec<Vec<Value>> = sel
                        .iter()
                        .map(|&i| lay.logical_row(b.as_ref(), i as usize))
                        .collect();
                    accumulate(&rows, node, ctx, &mut partial)?;
                }
                finish_groups(partial, node)
            }
        };
        if let Some(t) = timer {
            t.close(rows.len() as u64, 0);
        }
        rows
    } else {
        let mut rows = Vec::new();
        for (b, sel) in batches.iter().zip(&selections) {
            for &i in sel {
                rows.push(lay.logical_row(b.as_ref(), i as usize));
            }
        }
        rows
    };

    let projected = project_rows(plan, ctx, &rows)?;
    Ok(finish_output(plan, ctx, projected))
}

/// Probe one morsel unit's batches through every join table in chain
/// order, filter them, feed each surviving `(batch, selection)` to `f`,
/// and fold the per-unit trace counts (`join{i}`, `filter`).
fn for_each_filtered(
    plan: &PhysicalPlan,
    lay: &Layout,
    tables: &[Arc<JoinTable>],
    ctx: &ExecContext,
    batches: &[Arc<ColumnarBatch>],
    mut f: impl FnMut(&ColumnarBatch, &[u32]) -> SqResult<()>,
) -> SqResult<()> {
    let mut join_rows = vec![0u64; tables.len()];
    let mut kept_rows = 0u64;
    'batches: for b in batches {
        let mut joined: Option<ColumnarBatch> = None;
        for ((jl, table), n) in lay.joins.iter().zip(tables).zip(&mut join_rows) {
            let cur = joined.as_ref().unwrap_or(b);
            let next = probe_batch(cur, table, &jl.probe_key_pos, &jl.build_cols);
            *n += next.len() as u64;
            if next.is_empty() {
                continue 'batches;
            }
            joined = Some(next);
        }
        let cur = joined.as_ref().unwrap_or(b);
        let sel = filter_selection(lay, cur, ctx)?;
        kept_rows += sel.len() as u64;
        if !sel.is_empty() {
            f(cur, &sel)?;
        }
    }
    if let Some(t) = &ctx.trace {
        for (j, n) in join_rows.into_iter().enumerate() {
            t.add(&format!("join{j}"), n, 0, 0);
        }
        if plan.filter.is_some() {
            t.add("filter", kept_rows, 0, 0);
        }
    }
    Ok(())
}

/// The parallel (morsel-driven) driver: every join table is built first
/// under a `join_build` span, then workers claim probe-scan units and run
/// probe → filter → partial aggregate or projection per unit; the
/// coordinator merges in unit order.
fn run_parallel(plan: &PhysicalPlan, ctx: &ExecContext, lay: &Layout) -> SqResult<Vec<Vec<Value>>> {
    // Every scan resolves its slices from the one query context, whose
    // ssids were fixed at query start, so all workers read the same
    // committed version(s).
    let base_scan = &plan.scans[lay.probe];
    let base_key = format!("scan{}", lay.probe);
    let base = base_scan.table.scan_partitions(&base_scan.hints, ctx)?;
    let mut tables = Vec::with_capacity(lay.joins.len());
    for (j, jl) in lay.joins.iter().enumerate() {
        let timer = start_node(ctx, "join_build", format!("join{j}"));
        tables.push(build_table(plan, jl, ctx, true)?);
        if let Some(t) = timer {
            t.close(0, 0);
        }
    }

    match &plan.aggregate {
        Some(node) => {
            let partials =
                parallel_scan_batches(&base, ctx, &base_key, &lay.probe_cols, |batches, _unit| {
                    let partial = match &lay.agg {
                        Some((group_cols, agg_args)) => {
                            let mut va = VecAgg::new(node, group_cols, agg_args);
                            for_each_filtered(plan, lay, &tables, ctx, batches, |b, sel| {
                                va.update(b, sel)
                            })?;
                            va.into_partial()
                        }
                        None => {
                            let mut partial = PartialAgg::new();
                            for_each_filtered(plan, lay, &tables, ctx, batches, |b, sel| {
                                let rows: Vec<Vec<Value>> = sel
                                    .iter()
                                    .map(|&i| lay.logical_row(b, i as usize))
                                    .collect();
                                accumulate(&rows, node, ctx, &mut partial)
                            })?;
                            partial
                        }
                    };
                    Ok(partial)
                })?;
            let timer = start_node(ctx, "aggregate", "aggregate".into());
            let mut merged = PartialAgg::new();
            for partial in partials {
                merged.merge(partial)?;
            }
            let rows = finish_groups(merged, node);
            if let Some(t) = timer {
                t.close(rows.len() as u64, 0);
            }
            let projected = project_rows(plan, ctx, &rows)?;
            Ok(finish_output(plan, ctx, projected))
        }
        None => {
            let chunks =
                parallel_scan_batches(&base, ctx, &base_key, &lay.probe_cols, |batches, _unit| {
                    let mut rows = Vec::new();
                    for_each_filtered(plan, lay, &tables, ctx, batches, |b, sel| {
                        for &i in sel {
                            rows.push(lay.logical_row(b, i as usize));
                        }
                        Ok(())
                    })?;
                    project_rows(plan, ctx, &rows)
                })?;
            let projected: Vec<(Vec<Value>, Vec<Value>)> = chunks.into_iter().flatten().collect();
            Ok(finish_output(plan, ctx, projected))
        }
    }
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

    fn catalog() -> MemCatalog {
        let orders = schema(vec![
            (KEY_COLUMN, DataType::Any),
            ("total", DataType::Int),
            ("zone", DataType::Str),
            ("late", DataType::Timestamp),
        ]);
        let info = schema(vec![
            (KEY_COLUMN, DataType::Any),
            ("category", DataType::Str),
        ]);
        let orders_rows = vec![
            vec![
                Value::Int(1),
                Value::Int(10),
                Value::str("north"),
                Value::Timestamp(100),
            ],
            vec![
                Value::Int(2),
                Value::Int(20),
                Value::str("north"),
                Value::Timestamp(2_000_000),
            ],
            vec![
                Value::Int(3),
                Value::Int(30),
                Value::str("south"),
                Value::Timestamp(300),
            ],
            vec![Value::Int(4), Value::Null, Value::str("south"), Value::Null],
        ];
        let info_rows = vec![
            vec![Value::Int(1), Value::str("food")],
            vec![Value::Int(2), Value::str("food")],
            vec![Value::Int(3), Value::str("pharma")],
            vec![Value::Int(9), Value::str("unmatched")],
        ];
        // Keyed by zone or category name, with a repeated key so a probe
        // row can match twice.
        let tags = schema(vec![(KEY_COLUMN, DataType::Any), ("tag", DataType::Str)]);
        let tags_rows = vec![
            vec![Value::str("north"), Value::str("n")],
            vec![Value::str("food"), Value::str("f1")],
            vec![Value::str("south"), Value::str("s")],
            vec![Value::str("food"), Value::str("f2")],
            vec![Value::str("pharma"), Value::str("p")],
        ];
        MemCatalog::new(vec![
            Arc::new(MemTable::new("orders", orders, orders_rows)),
            Arc::new(MemTable::new("info", info, info_rows)),
            Arc::new(MemTable::new("tags", tags, tags_rows)),
        ])
    }

    /// Row reference vs columnar output for the same plan at several DOPs.
    fn assert_vectorized_matches_rows(sql: &str) {
        let c = catalog();
        let p = plan(&parse(sql).unwrap(), &c).unwrap();
        let row_ctx = ExecContext::live_only(1_000_000).with_vectorized(false);
        let expected = crate::exec::execute(&p, &row_ctx).unwrap();
        for dop in [1usize, 2, 4, 8] {
            let ctx = ExecContext::live_only(1_000_000).with_parallelism(Parallelism {
                degree: dop,
                min_morsel_rows: 1,
            });
            let got = crate::exec::execute(&p, &ctx).unwrap();
            assert_eq!(got, expected, "dop {dop}: {sql}");
        }
    }

    #[test]
    fn filters_and_aggregates_match_row_engine() {
        for sql in [
            "SELECT * FROM orders",
            "SELECT total FROM orders WHERE zone = 'north'",
            "SELECT total FROM orders WHERE total > 15",
            "SELECT total FROM orders WHERE 15 < total",
            "SELECT partitionKey FROM orders WHERE late < LOCALTIMESTAMP",
            "SELECT partitionKey FROM orders WHERE zone = 'north' OR zone = 'south'",
            "SELECT partitionKey FROM orders WHERE NOT (zone = 'north')",
            "SELECT partitionKey FROM orders WHERE total IS NULL",
            "SELECT partitionKey FROM orders WHERE total IS NOT NULL",
            "SELECT partitionKey FROM orders WHERE total IN (10, 30)",
            "SELECT partitionKey FROM orders WHERE total NOT IN (10, 30)",
            "SELECT partitionKey FROM orders WHERE total BETWEEN 15 AND 25",
            "SELECT partitionKey FROM orders WHERE zone LIKE 'n%'",
            "SELECT partitionKey FROM orders WHERE zone NOT LIKE 'n%'",
            "SELECT zone, COUNT(*) FROM orders GROUP BY zone",
            "SELECT zone, COUNT(*), SUM(total) FROM orders GROUP BY zone",
            "SELECT AVG(total), MIN(total), MAX(total), COUNT(total) FROM orders",
            "SELECT COUNT(*) FROM orders WHERE zone = 'nowhere'",
            "SELECT zone, SUM(total) FROM orders GROUP BY zone HAVING SUM(total) > 25",
            "SELECT total FROM orders WHERE total IS NOT NULL ORDER BY total DESC LIMIT 2",
            // Filters outside the kernel subset row-evaluate every batch.
            "SELECT partitionKey, zone FROM orders WHERE LENGTH(zone) > 4",
            "SELECT partitionKey FROM orders WHERE total + 1 > 10",
            // ... also over the pruned layout of a covered aggregate.
            "SELECT zone, COUNT(*), SUM(total) FROM orders \
             WHERE total * 2 > 25 AND LENGTH(zone) > 4 GROUP BY zone",
        ] {
            assert_vectorized_matches_rows(sql);
        }
    }

    #[test]
    fn joins_match_row_engine() {
        for sql in [
            "SELECT partitionKey, total, category FROM orders JOIN info USING(partitionKey)",
            "SELECT category, COUNT(*) FROM orders JOIN info USING(partitionKey) \
             WHERE zone = 'north' GROUP BY category",
            "SELECT o.zone FROM orders o JOIN orders p ON o.total = p.total",
            CHAIN,
            // Pruned aggregate layouts, where a later join's probe key sits
            // at a batch position other than its logical index: a build
            // column of the first join, then a probe-scan column.
            "SELECT tag, COUNT(*), SUM(total) FROM orders JOIN info USING(partitionKey) \
             JOIN tags t ON category = t.partitionKey WHERE total > 5 GROUP BY tag",
            "SELECT tag, COUNT(*) FROM orders JOIN info USING(partitionKey) \
             JOIN tags t ON zone = t.partitionKey GROUP BY tag",
        ] {
            assert_vectorized_matches_rows(sql);
        }
        // EXPLAIN ANALYZE counts every join of a chain, sequential or
        // morsel-driven.
        let engine = crate::engine::SqlEngine::new(catalog());
        for dop in [1usize, 2] {
            let rs = engine
                .query_with_dop(&format!("EXPLAIN ANALYZE {CHAIN}"), dop)
                .unwrap();
            let joins: Vec<String> = rs
                .rows()
                .iter()
                .map(|r| r[0].to_string())
                .filter(|l| l.contains("HashJoin"))
                .collect();
            // join1 renders first (outermost): 2 + 2 + 1 tag matches over
            // join0's three orders with info.
            assert_eq!(joins.len(), 2, "dop {dop}: {joins:?}");
            assert!(joins[0].contains("(rows=5 "), "dop {dop}: {joins:?}");
            assert!(joins[1].contains("(rows=3 "), "dop {dop}: {joins:?}");
        }
    }

    /// A three-table chain whose second join probes with a build column of
    /// the first (two `food` orders match two tags each).
    const CHAIN: &str = "SELECT o.partitionKey, total, category, tag FROM orders o \
        JOIN info i ON o.partitionKey = i.partitionKey JOIN tags t ON i.category = t.partitionKey";

    #[test]
    fn mixed_type_batches_fall_back_per_batch() {
        // `v` mixes Int and Float, so the column degrades to Any and the
        // comparison kernel refuses it; the row fallback must agree with
        // the pure row engine (including Int/Float coercion).
        let s = schema(vec![("v", DataType::Any)]);
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::Int(3)],
            vec![Value::Null],
        ];
        let c = MemCatalog::new(vec![Arc::new(MemTable::new("t", s, rows))]);
        let p = plan(&parse("SELECT v FROM t WHERE v > 1.5").unwrap(), &c).unwrap();
        let expected =
            crate::exec::execute(&p, &ExecContext::live_only(0).with_vectorized(false)).unwrap();
        let got = crate::exec::execute(&p, &ExecContext::live_only(0)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got, vec![vec![Value::Float(2.5)], vec![Value::Int(3)]]);
    }

    #[test]
    fn incomparable_types_error_like_row_engine() {
        // Str column vs Int literal: the kernel refuses the batch and the
        // row fallback raises the row engine's comparison error.
        let c = catalog();
        let p = plan(
            &parse("SELECT zone FROM orders WHERE zone > 5").unwrap(),
            &c,
        )
        .unwrap();
        assert!(crate::exec::execute(&p, &ExecContext::live_only(0)).is_err());
        assert!(
            crate::exec::execute(&p, &ExecContext::live_only(0).with_vectorized(false)).is_err()
        );
    }

    #[test]
    fn short_circuit_false_and_error_still_passes() {
        // `zone = 5` would error, but AND short-circuits on a false LHS in
        // the row engine (the IS NOT NULL guard makes the LHS false on every
        // row, including the NULL-total one). The kernel path falls back per
        // batch (Str vs Int is incomparable) and must reproduce the
        // short-circuit instead of erroring.
        let c = catalog();
        let p = plan(
            &parse(
                "SELECT partitionKey FROM orders \
                 WHERE total IS NOT NULL AND total < 0 AND zone = 5",
            )
            .unwrap(),
            &c,
        )
        .unwrap();
        let got = crate::exec::execute(&p, &ExecContext::live_only(0)).unwrap();
        assert!(got.is_empty());
        // Without the guard the UNKNOWN LHS forces RHS evaluation and both
        // engines raise the same comparison error.
        let p = plan(
            &parse("SELECT partitionKey FROM orders WHERE total < 0 AND zone = 5").unwrap(),
            &c,
        )
        .unwrap();
        assert!(crate::exec::execute(&p, &ExecContext::live_only(0)).is_err());
        assert!(
            crate::exec::execute(&p, &ExecContext::live_only(0).with_vectorized(false)).is_err()
        );
    }

    #[test]
    fn compile_covers_paper_query_shapes() {
        let c = catalog();
        // Query 1 shape: equality + timestamp-vs-LOCALTIMESTAMP under AND.
        let p = plan(
            &parse(
                "SELECT COUNT(*), zone FROM orders \
                 WHERE (zone = 'north' AND late < LOCALTIMESTAMP) GROUP BY zone",
            )
            .unwrap(),
            &c,
        )
        .unwrap();
        assert!(compile_pred(p.filter.as_ref().unwrap(), 0).is_some());
        // Scalar functions are outside the kernel subset: their batches
        // row-evaluate the filter.
        let p = plan(
            &parse("SELECT zone FROM orders WHERE LENGTH(zone) > 4").unwrap(),
            &c,
        )
        .unwrap();
        assert!(compile_pred(p.filter.as_ref().unwrap(), 0).is_none());
    }

    #[test]
    fn cost_model_flip_matches_row_engine_order() {
        // Force build_left on a hand-built plan and check the columnar
        // output matches the row reference's (both become probe-major).
        let c = catalog();
        let mut p = plan(
            &parse(
                "SELECT partitionKey, total, category FROM orders JOIN info USING(partitionKey)",
            )
            .unwrap(),
            &c,
        )
        .unwrap();
        p.joins[0].build_left = true;
        p.joins[0].build_est = Some((4, 4));
        let row_ctx = ExecContext::live_only(0).with_vectorized(false);
        let expected = crate::exec::execute(&p, &row_ctx).unwrap();
        for dop in [1usize, 2, 4] {
            let ctx = ExecContext::live_only(0).with_parallelism(Parallelism {
                degree: dop,
                min_morsel_rows: 1,
            });
            let got = crate::exec::execute(&p, &ctx).unwrap();
            assert_eq!(got, expected, "dop {dop}");
        }
    }
}
