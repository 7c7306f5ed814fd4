//! The classad value domain with Condor's tri-state semantics.

use std::fmt;
use std::rc::Rc;

/// A classad runtime value.
///
/// `Undefined` arises from references to missing attributes; `Err` from type
/// mismatches and division by zero. Both propagate through most operators
/// (with the short-circuit exceptions implemented in
/// [`crate::expr`]), which is what keeps a constraint well-defined when
/// an ad omits an attribute it probes for.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The `UNDEFINED` sentinel.
    Undefined,
    /// The `ERROR` sentinel.
    Err,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision real.
    Real(f64),
    /// A string. Shared: cloning a string value (into a copied ad, a
    /// reply, a cache) bumps a reference count instead of copying bytes.
    Str(Rc<str>),
    /// A list of values.
    List(Vec<Value>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(s.as_ref().into())
    }

    /// True for the `UNDEFINED` sentinel.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// True for the `ERROR` sentinel.
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Err)
    }

    /// Numeric view (integers widen to reals); `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Integer view; `None` for anything but `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view; `None` for anything but `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view; `None` for anything but `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// List view; `None` for anything but `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// The "is true" predicate used by matchmaking: only `Bool(true)`
    /// qualifies; `Undefined`, `Err`, and non-booleans do not.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Condor-style equality usable from host code (`==` semantics):
    /// numeric coercion, case-insensitive strings, sentinel propagation.
    pub fn ad_eq(&self, other: &Value) -> Value {
        use Value::*;
        match (self, other) {
            (Err, _) | (_, Err) => Err,
            (Undefined, _) | (_, Undefined) => Undefined,
            (Bool(a), Bool(b)) => Bool(a == b),
            (Str(a), Str(b)) => Bool(a.eq_ignore_ascii_case(b)),
            (List(a), List(b)) => {
                if a.len() != b.len() {
                    return Bool(false);
                }
                let mut all = true;
                for (x, y) in a.iter().zip(b) {
                    match x.ad_eq(y) {
                        Bool(true) => {}
                        Bool(false) => all = false,
                        other => return other,
                    }
                }
                Bool(all)
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Bool(a == b),
                _ => Err,
            },
        }
    }

    /// Exact identity (`=?=` semantics): never `Undefined`/`Err`; two
    /// sentinels of the same kind *are* identical.
    pub fn is_identical(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Undefined, Undefined) | (Err, Err) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Real(a), Real(b)) => a == b,
            (Int(a), Real(b)) | (Real(b), Int(a)) => *a as f64 == *b,
            (Str(a), Str(b)) => a == b,
            (List(a), List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.is_identical(y))
            }
            _ => false,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Value {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(r: f64) -> Value {
        Value::Real(r)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s.into())
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

/// Escape a string for classad literal syntax.
pub(crate) fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "undefined"),
            Value::Err => write!(f, "error"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                // Keep reals lexically distinct from ints so the printed
                // form parses back to the same variant.
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Str(s) => write!(f, "\"{}\"", escape_str(s)),
            Value::List(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(42i64), Value::Int(42));
        assert_eq!(Value::from(42u32), Value::Int(42));
        assert_eq!(Value::from(2.5), Value::Real(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(
            Value::from(vec![1i64, 2, 3]),
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn ad_eq_coerces_numerics_and_ignores_string_case() {
        assert_eq!(Value::Int(3).ad_eq(&Value::Real(3.0)), Value::Bool(true));
        assert_eq!(
            Value::str("Linux").ad_eq(&Value::str("LINUX")),
            Value::Bool(true)
        );
        assert_eq!(
            Value::str("linux").ad_eq(&Value::str("irix")),
            Value::Bool(false)
        );
    }

    #[test]
    fn ad_eq_propagates_sentinels() {
        assert_eq!(Value::Undefined.ad_eq(&Value::Int(1)), Value::Undefined);
        assert_eq!(Value::Err.ad_eq(&Value::Undefined), Value::Err);
        // Type mismatch between defined values is an error.
        assert_eq!(Value::Bool(true).ad_eq(&Value::Int(1)), Value::Err);
    }

    #[test]
    fn ad_eq_on_lists_is_elementwise() {
        let a = Value::from(vec![1i64, 2]);
        let b = Value::List(vec![Value::Real(1.0), Value::Int(2)]);
        assert_eq!(a.ad_eq(&b), Value::Bool(true));
        let c = Value::from(vec![1i64, 3]);
        assert_eq!(a.ad_eq(&c), Value::Bool(false));
        let short = Value::from(vec![1i64]);
        assert_eq!(a.ad_eq(&short), Value::Bool(false));
        let with_undef = Value::List(vec![Value::Int(1), Value::Undefined]);
        assert_eq!(a.ad_eq(&with_undef), Value::Undefined);
    }

    #[test]
    fn is_identical_distinguishes_sentinels_from_equality() {
        assert!(Value::Undefined.is_identical(&Value::Undefined));
        assert!(Value::Err.is_identical(&Value::Err));
        assert!(!Value::Undefined.is_identical(&Value::Err));
        // Strings: identity is case-sensitive, unlike ad_eq.
        assert!(!Value::str("A").is_identical(&Value::str("a")));
        assert!(Value::Int(1).is_identical(&Value::Real(1.0)));
    }

    #[test]
    fn is_true_only_for_bool_true() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Int(1).is_true());
        assert!(!Value::Undefined.is_true());
        assert!(!Value::Err.is_true());
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Real(3.0).to_string(), "3.0");
        assert_eq!(Value::Real(3.25).to_string(), "3.25");
        assert_eq!(Value::str("a\"b\\c").to_string(), r#""a\"b\\c""#);
        assert_eq!(
            Value::from(vec![1i64, 2]).to_string(),
            "{1, 2}"
        );
        assert_eq!(Value::Undefined.to_string(), "undefined");
        assert_eq!(Value::Err.to_string(), "error");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Real(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Real(7.0).as_i64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(
            Value::from(vec![1i64]).as_list(),
            Some(&[Value::Int(1)][..])
        );
    }
}
