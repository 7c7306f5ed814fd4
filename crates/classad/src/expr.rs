//! Expression AST and evaluation.

use std::fmt;

use crate::value::{escape_str, Value};

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation (`!`).
    Not,
    /// Arithmetic negation (`-`).
    Neg,
}

/// Binary operators, in increasing precedence groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `=?=` — meta (is-identical): never returns `UNDEFINED`/`ERROR`.
    MetaEq,
    /// `=!=` — meta (is-not-identical).
    MetaNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Which ad an attribute reference is anchored to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttrScope {
    /// Unqualified: the current ad.
    Current,
    /// `my.attr` / `self.attr`: the current ad.
    My,
    /// `other.attr` / `target.attr`: the other ad of a two-sided match.
    /// Parsed and printed for fidelity; evaluation is one-sided, so it
    /// reads `UNDEFINED`.
    Other,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// An attribute reference.
    Attr(AttrScope, String),
    /// Unary application.
    Unary(UnOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional `cond ? then : else`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// List constructor `{a, b, c}`.
    List(Vec<Expr>),
    /// Builtin function call.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// An unqualified attribute reference.
    pub fn attr(name: impl Into<String>) -> Expr {
        Expr::Attr(AttrScope::Current, name.into())
    }
}

/// An attribute namespace: the evaluator looks expressions up by name.
///
/// Implemented by [`crate::ClassAd`]; kept as a trait so evaluation can run
/// against composite or lazily materialized scopes.
pub trait Scope {
    /// The expression bound to `name`, if any. Lookup must be
    /// case-insensitive per classad convention.
    fn lookup(&self, name: &str) -> Option<&Expr>;
}

/// Evaluation environment: the ad being evaluated.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    /// The ad whose expression is being evaluated.
    pub my: &'a dyn Scope,
}

impl<'a> Env<'a> {
    /// Environment of one ad.
    pub(crate) fn solo(my: &'a dyn Scope) -> Env<'a> {
        Env { my }
    }
}

/// Guard against reference cycles: tracks the (lowercased) attributes
/// currently being evaluated.
#[derive(Default)]
pub struct EvalTrace {
    visiting: Vec<String>,
}

const MAX_EVAL_DEPTH: usize = 64;

impl Expr {
    /// Evaluate against a single ad.
    pub fn eval_solo(&self, scope: &dyn Scope) -> Value {
        self.eval(Env::solo(scope), &mut EvalTrace::default())
    }

    /// Evaluate in a full environment. Cycles and excessive depth yield
    /// [`Value::Err`].
    pub(crate) fn eval(&self, env: Env<'_>, trace: &mut EvalTrace) -> Value {
        if trace.visiting.len() > MAX_EVAL_DEPTH {
            return Value::Err;
        }
        match self {
            Expr::Lit(v) => v.clone(),
            Expr::Attr(scope, name) => self.eval_attr(env, trace, *scope, name),
            Expr::Unary(op, inner) => {
                let v = inner.eval(env, trace);
                eval_unary(*op, v)
            }
            Expr::Binary(op, lhs, rhs) => eval_binary(*op, lhs, rhs, env, trace),
            Expr::Cond(cond, then_e, else_e) => match cond.eval(env, trace) {
                Value::Bool(true) => then_e.eval(env, trace),
                Value::Bool(false) => else_e.eval(env, trace),
                Value::Undefined => Value::Undefined,
                _ => Value::Err,
            },
            Expr::List(items) => {
                Value::List(items.iter().map(|e| e.eval(env, trace)).collect())
            }
            Expr::Call(name, args) => eval_call(name, args, env, trace),
        }
    }

    fn eval_attr(
        &self,
        env: Env<'_>,
        trace: &mut EvalTrace,
        scope: AttrScope,
        name: &str,
    ) -> Value {
        // Evaluation is one-sided: there is no other ad to read.
        if scope == AttrScope::Other {
            return Value::Undefined;
        }
        let Some(expr) = env.my.lookup(name) else {
            return Value::Undefined;
        };
        let key = name.to_ascii_lowercase();
        if trace.visiting.contains(&key) {
            return Value::Err; // cycle
        }
        trace.visiting.push(key);
        let v = expr.eval(env, trace);
        trace.visiting.pop();
        v
    }
}

fn eval_unary(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Not => match v {
            Value::Bool(b) => Value::Bool(!b),
            Value::Undefined => Value::Undefined,
            _ => Value::Err,
        },
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(-i),
            Value::Real(r) => Value::Real(-r),
            Value::Undefined => Value::Undefined,
            _ => Value::Err,
        },
    }
}

fn eval_binary(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    env: Env<'_>,
    trace: &mut EvalTrace,
) -> Value {
    // Short-circuiting connectives with Condor tri-state semantics.
    match op {
        BinOp::And => {
            let l = lhs.eval(env, trace);
            if matches!(l, Value::Bool(false)) {
                return Value::Bool(false);
            }
            let r = rhs.eval(env, trace);
            return tri_and(l, r);
        }
        BinOp::Or => {
            let l = lhs.eval(env, trace);
            if matches!(l, Value::Bool(true)) {
                return Value::Bool(true);
            }
            let r = rhs.eval(env, trace);
            return tri_or(l, r);
        }
        _ => {}
    }
    let l = lhs.eval(env, trace);
    let r = rhs.eval(env, trace);
    match op {
        BinOp::MetaEq => Value::Bool(l.is_identical(&r)),
        BinOp::MetaNe => Value::Bool(!l.is_identical(&r)),
        BinOp::Eq => l.ad_eq(&r),
        BinOp::Ne => match l.ad_eq(&r) {
            Value::Bool(b) => Value::Bool(!b),
            other => other,
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => compare(op, &l, &r),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            arithmetic(op, &l, &r)
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn tri_and(l: Value, r: Value) -> Value {
    use Value::*;
    match (l, r) {
        (Bool(false), _) | (_, Bool(false)) => Bool(false),
        (Bool(true), Bool(true)) => Bool(true),
        (Undefined, Bool(true)) | (Bool(true), Undefined) | (Undefined, Undefined) => Undefined,
        _ => Err,
    }
}

fn tri_or(l: Value, r: Value) -> Value {
    use Value::*;
    match (l, r) {
        (Bool(true), _) | (_, Bool(true)) => Bool(true),
        (Bool(false), Bool(false)) => Bool(false),
        (Undefined, Bool(false)) | (Bool(false), Undefined) | (Undefined, Undefined) => Undefined,
        _ => Err,
    }
}

fn compare(op: BinOp, l: &Value, r: &Value) -> Value {
    use Value::*;
    if l.is_error() || r.is_error() {
        return Err;
    }
    if l.is_undefined() || r.is_undefined() {
        return Undefined;
    }
    if let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) {
        let res = match op {
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => unreachable!(),
        };
        return Bool(res);
    }
    if let (Str(a), Str(b)) = (l, r) {
        // Case-insensitive ordering, consistent with `==`.
        let a = a.to_ascii_lowercase();
        let b = b.to_ascii_lowercase();
        let res = match op {
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            _ => unreachable!(),
        };
        return Bool(res);
    }
    Err
}

fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Value {
    use Value::*;
    if l.is_error() || r.is_error() {
        return Err;
    }
    if l.is_undefined() || r.is_undefined() {
        return Undefined;
    }
    // String concatenation via `+`.
    if op == BinOp::Add {
        if let (Str(a), Str(b)) = (l, r) {
            return Str(format!("{a}{b}").into());
        }
    }
    // Integer arithmetic stays integral; mixed promotes to real.
    if let (Int(a), Int(b)) = (l, r) {
        return match op {
            BinOp::Add => Int(a.wrapping_add(*b)),
            BinOp::Sub => Int(a.wrapping_sub(*b)),
            BinOp::Mul => Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Err
                } else {
                    Int(a.wrapping_div(*b))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Err
                } else {
                    Int(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!(),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinOp::Add => Real(a + b),
            BinOp::Sub => Real(a - b),
            BinOp::Mul => Real(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    Err
                } else {
                    Real(a / b)
                }
            }
            BinOp::Mod => {
                if b == 0.0 {
                    Err
                } else {
                    Real(a % b)
                }
            }
            _ => unreachable!(),
        },
        _ => Err,
    }
}

fn eval_call(name: &str, args: &[Expr], env: Env<'_>, trace: &mut EvalTrace) -> Value {
    let vals: Vec<Value> = args.iter().map(|a| a.eval(env, trace)).collect();
    apply_call(&name.to_ascii_lowercase(), &vals)
}

/// Builtin dispatch over already-evaluated arguments.
fn apply_call(lower_name: &str, vals: &[Value]) -> Value {
    match (lower_name, vals) {
        ("isundefined", [v]) => Value::Bool(v.is_undefined()),
        ("iserror", [v]) => Value::Bool(v.is_error()),
        ("member", [needle, Value::List(items)]) => {
            if needle.is_undefined() || needle.is_error() {
                return needle.clone();
            }
            let mut saw_undef = false;
            for item in items {
                match needle.ad_eq(item) {
                    Value::Bool(true) => return Value::Bool(true),
                    Value::Undefined => saw_undef = true,
                    _ => {}
                }
            }
            if saw_undef {
                Value::Undefined
            } else {
                Value::Bool(false)
            }
        }
        ("size", [Value::List(items)]) => Value::Int(items.len() as i64),
        ("size", [Value::Str(s)]) => Value::Int(s.chars().count() as i64),
        ("floor", [v]) => match v.as_f64() {
            Some(x) => Value::Int(x.floor() as i64),
            None => Value::Err,
        },
        ("ceiling", [v]) => match v.as_f64() {
            Some(x) => Value::Int(x.ceil() as i64),
            None => Value::Err,
        },
        ("round", [v]) => match v.as_f64() {
            Some(x) => Value::Int(x.round() as i64),
            None => Value::Err,
        },
        ("int", [v]) => match v {
            Value::Int(_) => v.clone(),
            Value::Real(r) => Value::Int(*r as i64),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Err),
            Value::Bool(b) => Value::Int(i64::from(*b)),
            _ => Value::Err,
        },
        ("real", [v]) => match v.as_f64() {
            Some(x) => Value::Real(x),
            None => match v {
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Real)
                    .unwrap_or(Value::Err),
                _ => Value::Err,
            },
        },
        ("string", [v]) => match v {
            Value::Str(_) => v.clone(),
            Value::Undefined | Value::Err => v.clone(),
            other => Value::Str(other.to_string().into()),
        },
        ("strcat", parts) => {
            let mut out = String::new();
            for p in parts {
                match p {
                    Value::Str(s) => out.push_str(s),
                    Value::Undefined => return Value::Undefined,
                    Value::Err => return Value::Err,
                    other => out.push_str(&other.to_string()),
                }
            }
            Value::Str(out.into())
        }
        ("toupper", [Value::Str(s)]) => Value::Str(s.to_uppercase().into()),
        ("tolower", [Value::Str(s)]) => Value::Str(s.to_lowercase().into()),
        _ => Value::Err,
    }
}

fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::MetaEq | BinOp::MetaNe => 3,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::MetaEq => "=?=",
            BinOp::MetaNe => "=!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

impl Expr {
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Lit(Value::Str(s)) => write!(f, "\"{}\"", escape_str(s)),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr(AttrScope::Current, name) => write!(f, "{name}"),
            Expr::Attr(AttrScope::My, name) => write!(f, "my.{name}"),
            Expr::Attr(AttrScope::Other, name) => write!(f, "other.{name}"),
            Expr::Unary(UnOp::Not, inner) => {
                write!(f, "!")?;
                inner.fmt_prec(f, 7)
            }
            Expr::Unary(UnOp::Neg, inner) => {
                write!(f, "-")?;
                inner.fmt_prec(f, 7)
            }
            Expr::Binary(op, lhs, rhs) => {
                let prec = precedence(*op);
                let need_parens = prec < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                lhs.fmt_prec(f, prec)?;
                write!(f, " {op} ")?;
                // Right operand parenthesized at same precedence to preserve
                // left associativity on reparse.
                rhs.fmt_prec(f, prec + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Cond(c, t, e) => {
                write!(f, "(")?;
                c.fmt_prec(f, 0)?;
                write!(f, " ? ")?;
                t.fmt_prec(f, 0)?;
                write!(f, " : ")?;
                e.fmt_prec(f, 0)?;
                write!(f, ")")
            }
            Expr::List(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    item.fmt_prec(f, 0)?;
                }
                write!(f, "}}")
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    arg.fmt_prec(f, 0)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::ClassAd;

    fn eval_str(src: &str) -> Value {
        crate::parser::parse_expr(src)
            .unwrap()
            .eval_solo(&ClassAd::new())
    }

    #[test]
    fn arithmetic_integer_vs_real() {
        assert_eq!(eval_str("2 + 3 * 4"), Value::Int(14));
        assert_eq!(eval_str("7 / 2"), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2"), Value::Real(3.5));
        assert_eq!(eval_str("7 % 3"), Value::Int(1));
        assert_eq!(eval_str("-3 + 1"), Value::Int(-2));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(eval_str("1 / 0"), Value::Err);
        assert_eq!(eval_str("1 % 0"), Value::Err);
        assert_eq!(eval_str("1.5 / 0.0"), Value::Err);
    }

    #[test]
    fn string_concat_and_compare() {
        assert_eq!(eval_str(r#""foo" + "bar""#), Value::str("foobar"));
        assert_eq!(eval_str(r#""abc" < "ABD""#), Value::Bool(true));
        assert_eq!(eval_str(r#""Linux" == "linux""#), Value::Bool(true));
    }

    #[test]
    fn tri_state_connectives() {
        assert_eq!(eval_str("undefined && false"), Value::Bool(false));
        assert_eq!(eval_str("false && undefined"), Value::Bool(false));
        assert_eq!(eval_str("undefined && true"), Value::Undefined);
        assert_eq!(eval_str("undefined || true"), Value::Bool(true));
        assert_eq!(eval_str("undefined || false"), Value::Undefined);
        assert_eq!(eval_str("error || true"), Value::Bool(true));
        assert_eq!(eval_str("!undefined"), Value::Undefined);
        assert_eq!(eval_str("!1"), Value::Err);
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        assert_eq!(eval_str("false && (1/0 == 1)"), Value::Bool(false));
        assert_eq!(eval_str("true || (1/0 == 1)"), Value::Bool(true));
        // Without short-circuit the error propagates.
        assert_eq!(eval_str("true && (1/0 == 1)"), Value::Err);
    }

    #[test]
    fn meta_operators_never_yield_sentinels() {
        assert_eq!(eval_str("undefined =?= undefined"), Value::Bool(true));
        assert_eq!(eval_str("undefined =?= 1"), Value::Bool(false));
        assert_eq!(eval_str("undefined =!= 1"), Value::Bool(true));
        assert_eq!(eval_str("missing_attr =?= undefined"), Value::Bool(true));
    }

    #[test]
    fn comparisons_with_undefined() {
        assert_eq!(eval_str("missing_attr > 3"), Value::Undefined);
        assert_eq!(eval_str("3 <= 3"), Value::Bool(true));
        assert_eq!(eval_str(r#"3 < "x""#), Value::Err);
    }

    #[test]
    fn conditional_expression() {
        assert_eq!(eval_str("true ? 1 : 2"), Value::Int(1));
        assert_eq!(eval_str("false ? 1 : 2"), Value::Int(2));
        assert_eq!(eval_str("undefined ? 1 : 2"), Value::Undefined);
        assert_eq!(eval_str("3 ? 1 : 2"), Value::Err);
    }

    #[test]
    fn builtins() {
        assert_eq!(eval_str("member(2, {1, 2, 3})"), Value::Bool(true));
        assert_eq!(eval_str("member(5, {1, 2, 3})"), Value::Bool(false));
        assert_eq!(eval_str("size({1, 2, 3})"), Value::Int(3));
        assert_eq!(eval_str(r#"size("abcd")"#), Value::Int(4));
        assert_eq!(eval_str("floor(2.9)"), Value::Int(2));
        assert_eq!(eval_str("ceiling(2.1)"), Value::Int(3));
        assert_eq!(eval_str("round(2.5)"), Value::Int(3));
        assert_eq!(eval_str(r#"int("42")"#), Value::Int(42));
        assert_eq!(eval_str(r#"real("2.5")"#), Value::Real(2.5));
        assert_eq!(eval_str("string(42)"), Value::str("42"));
        assert_eq!(
            eval_str(r#"strcat("a", 1, "-", 2.5)"#),
            Value::str("a1-2.5")
        );
        assert_eq!(eval_str(r#"toupper("aBc")"#), Value::str("ABC"));
        assert_eq!(eval_str(r#"tolower("aBc")"#), Value::str("abc"));
        assert_eq!(eval_str("isUndefined(missing)"), Value::Bool(true));
        assert_eq!(eval_str("isError(1/0)"), Value::Bool(true));
        assert_eq!(eval_str("nosuchfn(1)"), Value::Err);
    }

    #[test]
    fn attr_lookup_within_ad() {
        let mut ad = ClassAd::new();
        ad.set("base", Expr::Lit(Value::Int(10)));
        ad.set("derived", crate::parser::parse_expr("base * 2").unwrap());
        assert_eq!(ad.eval("derived"), Value::Int(20));
    }

    #[test]
    fn cyclic_attrs_yield_error_not_hang() {
        let mut ad = ClassAd::new();
        ad.set("a", Expr::attr("b"));
        ad.set("b", Expr::attr("a"));
        assert_eq!(ad.eval("a"), Value::Err);
        // Self-cycle too.
        let mut ad2 = ClassAd::new();
        ad2.set("x", crate::parser::parse_expr("x + 1").unwrap());
        assert_eq!(ad2.eval("x"), Value::Err);
    }

    #[test]
    fn display_round_trips_through_parser() {
        for src in [
            "a + b * c",
            "(a + b) * c",
            "a - b - c",
            "a && b || c == d",
            "!x",
            "-(a + b)",
            "my.mem >= other.mem && other.os == \"linux\"",
            "member(x, {1, 2, 3})",
            "(a ? b : c)",
        ] {
            let e1 = crate::parser::parse_expr(src).unwrap();
            let printed = e1.to_string();
            let e2 = crate::parser::parse_expr(&printed)
                .unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
            assert_eq!(e1, e2, "src={src} printed={printed}");
        }
    }

    #[test]
    fn left_associativity_preserved() {
        // a - b - c must print so it reparses as (a-b)-c.
        let e = crate::parser::parse_expr("10 - 4 - 3").unwrap();
        assert_eq!(e.eval_solo(&ClassAd::new()), Value::Int(3));
        let reparsed = crate::parser::parse_expr(&e.to_string()).unwrap();
        assert_eq!(reparsed.eval_solo(&ClassAd::new()), Value::Int(3));
    }
}
