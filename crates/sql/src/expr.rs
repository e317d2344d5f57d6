//! Bound expressions and their evaluator.
//!
//! The planner resolves every column reference to a row index, producing a
//! [`BoundExpr`]; evaluation is then a pure function of the row and the
//! per-query [`ExecContext`]. SQL three-valued logic applies: comparisons
//! with NULL yield NULL, `AND`/`OR` follow Kleene logic, and filters treat
//! anything but TRUE as a non-match.

use crate::ast::{BinaryOp, ScalarFunc, UnaryOp};
use crate::catalog::ExecContext;
use squery_common::{SqError, SqResult, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// An expression with columns resolved to row indexes.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Value of the row's `i`-th column.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// The query's start timestamp.
    LocalTimestamp,
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<BoundExpr>,
    },
    /// NULL test.
    IsNull {
        /// Operand.
        operand: Box<BoundExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// Membership test.
    InList {
        /// Tested expression.
        operand: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Range test (`BETWEEN` is inclusive on both ends).
    Between {
        /// Tested expression.
        operand: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// SQL `LIKE` pattern match.
    Like {
        /// Tested expression.
        operand: Box<BoundExpr>,
        /// Pattern (`%` any run, `_` any one char).
        pattern: Box<BoundExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `CASE` expression (searched form; simple form is desugared by the
    /// planner into equality tests).
    Case {
        /// `(condition, result)` pairs, first true condition wins.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// Fallback result (NULL when absent).
        else_result: Option<Box<BoundExpr>>,
    },
    /// Scalar function call.
    Func {
        /// Which function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &[Value], ctx: &ExecContext) -> SqResult<Value> {
        match self {
            BoundExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| SqError::Exec(format!("row too short for column {i}"))),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::LocalTimestamp => Ok(Value::Timestamp(ctx.now_micros)),
            BoundExpr::Binary { left, op, right } => {
                // Logical ops need lazy/Kleene handling.
                match op {
                    BinaryOp::And => {
                        let l = left.eval(row, ctx)?;
                        if l == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval(row, ctx)?;
                        return kleene_and(&l, &r);
                    }
                    BinaryOp::Or => {
                        let l = left.eval(row, ctx)?;
                        if l == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval(row, ctx)?;
                        return kleene_or(&l, &r);
                    }
                    _ => {}
                }
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Unary { op, operand } => {
                let v = operand.eval(row, ctx)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(SqError::Exec(format!(
                            "NOT expects a boolean, got {}",
                            other.type_name()
                        ))),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(SqError::Exec(format!(
                            "cannot negate {}",
                            other.type_name()
                        ))),
                    },
                }
            }
            BoundExpr::IsNull { operand, negated } => {
                let v = operand.eval(row, ctx)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::InList {
                operand,
                list,
                negated,
            } => {
                let v = operand.eval(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let candidate = item.eval(row, ctx)?;
                    if candidate.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.sql_cmp(&candidate) == Some(Ordering::Equal) {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    // Unknown: the NULL candidate might have matched.
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between {
                operand,
                low,
                high,
                negated,
            } => {
                let v = operand.eval(row, ctx)?;
                let lo = low.eval(row, ctx)?;
                let hi = high.eval(row, ctx)?;
                let ge_low = eval_binary(BinaryOp::GtEq, &v, &lo)?;
                let le_high = eval_binary(BinaryOp::LtEq, &v, &hi)?;
                let both = kleene_and(&ge_low, &le_high)?;
                match both {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(b != *negated)),
                    other => Ok(other),
                }
            }
            BoundExpr::Like {
                operand,
                pattern,
                negated,
            } => {
                let v = operand.eval(row, ctx)?;
                let p = pattern.eval(row, ctx)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let (Some(text), Some(pat)) = (v.as_str(), p.as_str()) else {
                    return Err(SqError::Exec(format!(
                        "LIKE expects strings, got {} and {}",
                        v.type_name(),
                        p.type_name()
                    )));
                };
                Ok(Value::Bool(like_match(text, pat) != *negated))
            }
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (condition, result) in branches {
                    if condition.eval(row, ctx)? == Value::Bool(true) {
                        return result.eval(row, ctx);
                    }
                }
                match else_result {
                    Some(e) => e.eval(row, ctx),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Func { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row, ctx)?);
                }
                eval_func(*func, &values)
            }
        }
    }

    /// Evaluate as a filter: true ⇔ the row passes.
    pub fn matches(&self, row: &[Value], ctx: &ExecContext) -> SqResult<bool> {
        Ok(self.eval(row, ctx)? == Value::Bool(true))
    }

    /// The direct subexpressions, in evaluation order.
    fn children(&self) -> Vec<&BoundExpr> {
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::LocalTimestamp => Vec::new(),
            BoundExpr::Binary { left, right, .. } => vec![left, right],
            BoundExpr::Unary { operand, .. } | BoundExpr::IsNull { operand, .. } => vec![operand],
            BoundExpr::InList { operand, list, .. } => {
                std::iter::once(&**operand).chain(list).collect()
            }
            BoundExpr::Between {
                operand, low, high, ..
            } => vec![operand, low, high],
            BoundExpr::Like {
                operand, pattern, ..
            } => vec![operand, pattern],
            BoundExpr::Case {
                branches,
                else_result,
            } => branches
                .iter()
                .flat_map(|(c, r)| [c, r])
                .chain(else_result.as_deref())
                .collect(),
            BoundExpr::Func { args, .. } => args.iter().collect(),
        }
    }

    /// Collect every column index the expression reads into `out`.
    pub(crate) fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        if let BoundExpr::Column(i) = self {
            out.insert(*i);
        }
        for c in self.children() {
            c.collect_columns(out);
        }
    }

    /// Whether the expression reads `LOCALTIMESTAMP`, whose value changes
    /// with every query.
    pub(crate) fn reads_clock(&self) -> bool {
        matches!(self, BoundExpr::LocalTimestamp) || self.children().iter().any(|c| c.reads_clock())
    }

    /// The expression with every column reference `i` renumbered to
    /// `map(i)`.
    pub(crate) fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> BoundExpr {
        let remap = |e: &BoundExpr| Box::new(e.remap_columns(map));
        match self {
            BoundExpr::Column(i) => BoundExpr::Column(map(*i)),
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
                list: list.iter().map(|e| e.remap_columns(map)).collect(),
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
                    .map(|(c, r)| (c.remap_columns(map), r.remap_columns(map)))
                    .collect(),
                else_result: else_result.as_ref().map(|e| remap(e)),
            },
            BoundExpr::Func { func, args } => BoundExpr::Func {
                func: *func,
                args: args.iter().map(|e| e.remap_columns(map)).collect(),
            },
        }
    }
}

fn kleene_and(l: &Value, r: &Value) -> SqResult<Value> {
    match (truth(l)?, truth(r)?) {
        (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
        (Some(true), Some(true)) => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

fn kleene_or(l: &Value, r: &Value) -> SqResult<Value> {
    match (truth(l)?, truth(r)?) {
        (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
        (Some(false), Some(false)) => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

fn truth(v: &Value) -> SqResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqError::Exec(format!(
            "expected boolean, got {}",
            other.type_name()
        ))),
    }
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> SqResult<Value> {
    use BinaryOp::*;
    match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let cmp = match l.sql_cmp(r) {
                Some(c) => c,
                None => {
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    return Err(SqError::Exec(format!(
                        "cannot compare {} with {}",
                        l.type_name(),
                        r.type_name()
                    )));
                }
            };
            let result = match op {
                Eq => cmp == Ordering::Equal,
                NotEq => cmp != Ordering::Equal,
                Lt => cmp == Ordering::Less,
                LtEq => cmp != Ordering::Greater,
                Gt => cmp == Ordering::Greater,
                GtEq => cmp != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(result))
        }
        Add | Sub | Mul | Div | Mod => arithmetic(op, l, r),
        And | Or => unreachable!("logical ops handled by the caller"),
    }
}

fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> SqResult<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Timestamp ± integer microseconds stays a timestamp.
    if let (Value::Timestamp(t), Value::Int(d)) = (l, r) {
        match op {
            Add => return Ok(Value::Timestamp(t + d)),
            Sub => return Ok(Value::Timestamp(t - d)),
            _ => {}
        }
    }
    if let (Value::Int(d), Value::Timestamp(t)) = (l, r) {
        if op == Add {
            return Ok(Value::Timestamp(t + d));
        }
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Ok(Value::Int(a.wrapping_add(*b))),
            Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            Div => {
                if *b == 0 {
                    Err(SqError::Exec("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            Mod => {
                if *b == 0 {
                    Err(SqError::Exec("modulo by zero".into()))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let a = l.as_f64().ok_or_else(|| type_err(op, l, r))?;
            let b = r.as_f64().ok_or_else(|| type_err(op, l, r))?;
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(SqError::Exec("division by zero".into()));
                    }
                    a / b
                }
                Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

fn type_err(op: BinaryOp, l: &Value, r: &Value) -> SqError {
    SqError::Exec(format!(
        "cannot apply {op:?} to {} and {}",
        l.type_name(),
        r.type_name()
    ))
}

/// SQL `LIKE` matching: `%` matches any run (including empty), `_` matches
/// exactly one character; everything else matches literally.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    // Iterative two-pointer with backtracking over the last `%`.
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_t): (Option<usize>, usize) = (None, 0);
    while ti < t.len() {
        // '%' is a wildcard even when the text character is itself '%', so
        // test it before the literal-equality branch.
        if pi < p.len() && p[pi] == '%' {
            star_p = Some(pi);
            star_t = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if let Some(sp) = star_p {
            // Backtrack: let the last % absorb one more character.
            pi = sp + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn eval_func(func: ScalarFunc, args: &[Value]) -> SqResult<Value> {
    let arity_err = |expected: &str| {
        SqError::Exec(format!(
            "{} expects {expected} argument(s), got {}",
            func.name(),
            args.len()
        ))
    };
    match func {
        ScalarFunc::Abs => {
            let [v] = args else {
                return Err(arity_err("1"));
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(SqError::Exec(format!(
                    "ABS expects a number, got {}",
                    other.type_name()
                ))),
            }
        }
        ScalarFunc::Upper | ScalarFunc::Lower => {
            let [v] = args else {
                return Err(arity_err("1"));
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::str(if func == ScalarFunc::Upper {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                })),
                other => Err(SqError::Exec(format!(
                    "{} expects a string, got {}",
                    func.name(),
                    other.type_name()
                ))),
            }
        }
        ScalarFunc::Length => {
            let [v] = args else {
                return Err(arity_err("1"));
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(SqError::Exec(format!(
                    "LENGTH expects a string, got {}",
                    other.type_name()
                ))),
            }
        }
        ScalarFunc::Coalesce => {
            if args.is_empty() {
                return Err(arity_err("at least 1"));
            }
            Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecContext {
        ExecContext::live_only(1_000_000)
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn column_reads_row() {
        let e = BoundExpr::Column(1);
        let row = vec![Value::Int(1), Value::str("x")];
        assert_eq!(e.eval(&row, &ctx()).unwrap(), Value::str("x"));
        assert!(BoundExpr::Column(5).eval(&row, &ctx()).is_err());
    }

    #[test]
    fn comparisons_with_coercion() {
        assert_eq!(
            bin(lit(2i64), BinaryOp::Lt, lit(2.5))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(lit("a"), BinaryOp::Eq, lit("a"))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(lit("a"), BinaryOp::GtEq, lit("b"))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        let e = bin(lit(Value::Null), BinaryOp::Eq, lit(1i64));
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Null);
        assert!(!e.matches(&[], &ctx()).unwrap(), "unknown is not a match");
    }

    #[test]
    fn incomparable_types_error() {
        let e = bin(lit("a"), BinaryOp::Lt, lit(1i64));
        assert!(e.eval(&[], &ctx()).is_err());
    }

    #[test]
    fn kleene_logic() {
        let t = lit(true);
        let f = lit(false);
        let n = lit(Value::Null);
        assert_eq!(
            bin(t.clone(), BinaryOp::And, n.clone())
                .eval(&[], &ctx())
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(f.clone(), BinaryOp::And, n.clone())
                .eval(&[], &ctx())
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin(t.clone(), BinaryOp::Or, n.clone())
                .eval(&[], &ctx())
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            bin(n.clone(), BinaryOp::Or, f.clone())
                .eval(&[], &ctx())
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // RHS would error (NOT over an int), but AND short-circuits on false.
        let bad = BoundExpr::Unary {
            op: UnaryOp::Not,
            operand: Box::new(lit(3i64)),
        };
        let e = bin(lit(false), BinaryOp::And, bad);
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(
            bin(lit(7i64), BinaryOp::Add, lit(3i64))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            bin(lit(7i64), BinaryOp::Div, lit(2i64))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            bin(lit(7.0), BinaryOp::Div, lit(2i64))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            bin(lit(7i64), BinaryOp::Mod, lit(4i64))
                .eval(&[], &ctx())
                .unwrap(),
            Value::Int(3)
        );
        assert!(bin(lit(1i64), BinaryOp::Div, lit(0i64))
            .eval(&[], &ctx())
            .is_err());
        assert!(bin(lit(1.0), BinaryOp::Div, lit(0.0))
            .eval(&[], &ctx())
            .is_err());
    }

    #[test]
    fn timestamp_arithmetic() {
        let e = bin(lit(Value::Timestamp(100)), BinaryOp::Add, lit(50i64));
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Timestamp(150));
        let e = bin(lit(Value::Timestamp(100)), BinaryOp::Sub, lit(30i64));
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Timestamp(70));
    }

    #[test]
    fn localtimestamp_reads_context() {
        assert_eq!(
            BoundExpr::LocalTimestamp.eval(&[], &ctx()).unwrap(),
            Value::Timestamp(1_000_000)
        );
        // Paper Query 1 shape: lateTimestamp < LOCALTIMESTAMP.
        let e = bin(
            lit(Value::Timestamp(999)),
            BinaryOp::Lt,
            BoundExpr::LocalTimestamp,
        );
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_tests() {
        let e = BoundExpr::IsNull {
            operand: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Bool(true));
        let e = BoundExpr::IsNull {
            operand: Box::new(lit(1i64)),
            negated: true,
        };
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_semantics() {
        let make = |v: Value, negated| BoundExpr::InList {
            operand: Box::new(BoundExpr::Literal(v)),
            list: vec![lit(1i64), lit(2i64)],
            negated,
        };
        assert_eq!(
            make(Value::Int(2), false).eval(&[], &ctx()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            make(Value::Int(3), false).eval(&[], &ctx()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            make(Value::Int(3), true).eval(&[], &ctx()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            make(Value::Null, false).eval(&[], &ctx()).unwrap(),
            Value::Null
        );
        // NULL in the list makes a non-match unknown.
        let e = BoundExpr::InList {
            operand: Box::new(lit(3i64)),
            list: vec![lit(1i64), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Null);
    }

    #[test]
    fn like_matcher_semantics() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "a%b%c"));
        assert!(like_match("axbyc", "a%b%c"));
        assert!(!like_match("hello", "h"));
        assert!(!like_match("hello", "hello_"));
        assert!(!like_match("", "_"));
        assert!(!like_match("abc", "a_c_"));
        // Backtracking case: % must be able to absorb more.
        assert!(like_match("aab", "%ab"));
        assert!(like_match("mississippi", "%iss%ippi"));
        assert!(!like_match("mississippi", "%isz%ippi"));
    }

    #[test]
    fn between_is_inclusive_and_three_valued() {
        let between = |v: Value, neg: bool| BoundExpr::Between {
            operand: Box::new(BoundExpr::Literal(v)),
            low: Box::new(lit(1i64)),
            high: Box::new(lit(10i64)),
            negated: neg,
        };
        assert_eq!(
            between(Value::Int(1), false).eval(&[], &ctx()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            between(Value::Int(10), false).eval(&[], &ctx()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            between(Value::Int(11), false).eval(&[], &ctx()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            between(Value::Int(11), true).eval(&[], &ctx()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            between(Value::Null, false).eval(&[], &ctx()).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn coalesce_and_funcs() {
        let f = BoundExpr::Func {
            func: ScalarFunc::Coalesce,
            args: vec![lit(Value::Null), lit(Value::Null), lit(7i64), lit(9i64)],
        };
        assert_eq!(f.eval(&[], &ctx()).unwrap(), Value::Int(7));
        let f = BoundExpr::Func {
            func: ScalarFunc::Abs,
            args: vec![lit(-5i64)],
        };
        assert_eq!(f.eval(&[], &ctx()).unwrap(), Value::Int(5));
        let f = BoundExpr::Func {
            func: ScalarFunc::Abs,
            args: vec![lit("x")],
        };
        assert!(f.eval(&[], &ctx()).is_err());
        let f = BoundExpr::Func {
            func: ScalarFunc::Length,
            args: vec![lit("héllo")],
        };
        assert_eq!(
            f.eval(&[], &ctx()).unwrap(),
            Value::Int(5),
            "chars not bytes"
        );
    }

    #[test]
    fn not_and_negation() {
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            operand: Box::new(lit(true)),
        };
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Bool(false));
        let e = BoundExpr::Unary {
            op: UnaryOp::Neg,
            operand: Box::new(lit(5i64)),
        };
        assert_eq!(e.eval(&[], &ctx()).unwrap(), Value::Int(-5));
        let e = BoundExpr::Unary {
            op: UnaryOp::Neg,
            operand: Box::new(lit("x")),
        };
        assert!(e.eval(&[], &ctx()).is_err());
    }
}
