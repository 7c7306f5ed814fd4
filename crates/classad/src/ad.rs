//! The classad record type.

use std::fmt;
use std::rc::Rc;

use crate::expr::{Expr, Scope};
use crate::value::Value;

/// An ordered attribute → expression record.
///
/// Attribute names are case-insensitive (per classad convention) but the
/// record remembers the spelling used at insertion, and iteration follows
/// insertion order — so a printed ad is stable and diff-friendly.
///
/// The attribute list is copy-on-write: cloning an ad (into a reply
/// envelope, the dedup cache, the shop's soft cache) shares the storage,
/// and the first mutation of a shared ad copies it. Attribute names and
/// string values are shared too (`Rc<str>`), so that copy is one vector
/// allocation plus reference-count bumps for a literal-valued ad, and
/// dropping the last copy of an ad frees one vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassAd {
    // (name, expr) matched ASCII-case-insensitively; linear scan is
    // appropriate for the tens-of-attributes ads this middleware produces.
    entries: Rc<Vec<(Rc<str>, Expr)>>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bind `name` to an expression, replacing any existing binding
    /// (case-insensitively) while keeping its position; the binding takes
    /// the new spelling of `name`.
    pub fn set(&mut self, name: impl AsRef<str> + Into<Rc<str>>, expr: Expr) {
        let entries = Rc::make_mut(&mut self.entries);
        match entries
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name.as_ref()))
        {
            Some(slot) => {
                if *slot.0 != *name.as_ref() {
                    slot.0 = name.into();
                }
                slot.1 = expr;
            }
            None => entries.push((name.into(), expr)),
        }
    }

    /// Bind `name` to a literal value.
    pub fn set_value(&mut self, name: impl AsRef<str> + Into<Rc<str>>, value: impl Into<Value>) {
        self.set(name, Expr::Lit(value.into()));
    }

    /// Remove a binding; returns the removed expression if present.
    pub fn remove(&mut self, name: &str) -> Option<Expr> {
        let idx = self
            .entries
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))?;
        Some(Rc::make_mut(&mut self.entries).remove(idx).1)
    }

    /// True if the attribute is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The bound expression, un-evaluated.
    pub fn get_expr(&self, name: &str) -> Option<&Expr> {
        self.lookup(name)
    }

    /// Evaluate an attribute in the context of this ad alone. Missing
    /// attributes yield [`Value::Undefined`].
    pub fn eval(&self, name: &str) -> Value {
        match self.lookup(name) {
            Some(_) => Expr::attr(name).eval_solo(self),
            None => Value::Undefined,
        }
    }

    /// Evaluate and coerce to `i64` (also accepting integral reals).
    pub fn get_int(&self, name: &str) -> Option<i64> {
        match self.eval(name) {
            Value::Int(i) => Some(i),
            Value::Real(r) if r.fract() == 0.0 => Some(r as i64),
            _ => None,
        }
    }

    /// Evaluate and coerce to `f64`.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.eval(name).as_f64()
    }

    /// Evaluate and coerce to `String`.
    pub fn get_str(&self, name: &str) -> Option<String> {
        match self.eval(name) {
            Value::Str(s) => Some(String::from(&*s)),
            _ => None,
        }
    }

    /// Iterate `(name, expr)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries.iter().map(|(n, e)| (&**n, e))
    }

    /// Attribute names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| &**n)
    }

    /// Merge another ad into this one: `other`'s bindings win on collision.
    pub fn absorb(&mut self, other: &ClassAd) {
        for (name, expr) in other.iter() {
            self.set(name, expr.clone());
        }
    }

    fn lookup(&self, name: &str) -> Option<&Expr> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, e)| e)
    }
}

impl Scope for ClassAd {
    fn lookup(&self, name: &str) -> Option<&Expr> {
        ClassAd::lookup(self, name)
    }
}

impl fmt::Display for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[ ")?;
        for (i, (name, expr)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{name} = {expr}")?;
        }
        write!(f, " ]")
    }
}

impl FromIterator<(String, Expr)> for ClassAd {
    fn from_iter<I: IntoIterator<Item = (String, Expr)>>(iter: I) -> Self {
        let mut ad = ClassAd::new();
        for (name, expr) in iter {
            ad.set(name, expr);
        }
        ad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_case_insensitivity() {
        let mut ad = ClassAd::new();
        ad.set_value("Memory_MB", 256i64);
        assert_eq!(ad.get_int("memory_mb"), Some(256));
        assert_eq!(ad.get_int("MEMORY_MB"), Some(256));
        assert!(ad.contains("memory_mb"));
        // Replacement keeps a single entry.
        ad.set_value("memory_mb", 512i64);
        assert_eq!(ad.len(), 1);
        assert_eq!(ad.get_int("Memory_MB"), Some(512));
    }

    #[test]
    fn clones_share_until_either_side_writes() {
        let mut a = ClassAd::new();
        a.set_value("vmid", "vm-1");
        a.set_value("state", "running");
        let mut b = a.clone();
        b.set_value("state", "collected");
        assert_eq!(a.get_str("state"), Some("running".into()));
        assert_eq!(b.get_str("state"), Some("collected".into()));
        let c = a.clone();
        a.set_value("uptime_s", 5i64);
        a.remove("vmid");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_str("vmid"), Some("vm-1".into()));
        assert!(!c.contains("uptime_s"));
    }

    #[test]
    fn recased_set_keeps_position_and_takes_new_spelling() {
        let mut ad = ClassAd::new();
        for name in ["alpha", "Memory_MB", "zeta"] {
            ad.set_value(name, 1i64);
        }
        ad.set_value("MEMORY_mb", 2i64);
        let names: Vec<&str> = ad.names().collect();
        assert_eq!(names, vec!["alpha", "MEMORY_mb", "zeta"]);
        assert_eq!(ad.get_int("memory_mb"), Some(2));
    }

    #[test]
    fn missing_attributes_are_undefined() {
        let ad = ClassAd::new();
        assert_eq!(ad.eval("nope"), Value::Undefined);
        assert_eq!(ad.get_int("nope"), None);
        assert_eq!(ad.get_str("nope"), None);
        // Evaluation is one-sided: `other.` has no ad to read, even for
        // an attribute this ad binds.
        let mut ad = ClassAd::new();
        ad.set_value("mem", 64i64);
        let read = |src: &str| crate::parse_expr(src).unwrap().eval_solo(&ad);
        assert_eq!(read("my.mem"), Value::Int(64));
        assert_eq!(read("other.mem"), Value::Undefined);
        assert_eq!(read("target.mem >= 0"), Value::Undefined);
    }

    #[test]
    fn typed_getters_reject_wrong_types() {
        let mut ad = ClassAd::new();
        ad.set_value("s", "text");
        ad.set_value("n", 3i64);
        ad.set_value("r", 2.5f64);
        ad.set_value("whole", 4.0f64);
        assert_eq!(ad.get_int("s"), None);
        assert_eq!(ad.get_int("r"), None);
        assert_eq!(ad.get_int("whole"), Some(4));
        assert_eq!(ad.get_f64("n"), Some(3.0));
        assert_eq!(ad.get_str("n"), None);
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut ad = ClassAd::new();
        for name in ["zeta", "alpha", "mid"] {
            ad.set_value(name, 1i64);
        }
        let names: Vec<&str> = ad.names().collect();
        assert_eq!(names, vec!["zeta", "alpha", "mid"]);
    }

    #[test]
    fn remove_and_absorb() {
        let mut a = ClassAd::new();
        a.set_value("x", 1i64);
        a.set_value("y", 2i64);
        assert!(a.remove("X").is_some());
        assert!(a.remove("X").is_none());
        let mut b = ClassAd::new();
        b.set_value("y", 20i64);
        b.set_value("z", 30i64);
        a.absorb(&b);
        assert_eq!(a.get_int("y"), Some(20));
        assert_eq!(a.get_int("z"), Some(30));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn eval_resolves_intra_ad_references() {
        let mut ad = ClassAd::new();
        ad.set_value("base_cost", 50i64);
        ad.set("total", crate::parse_expr("base_cost + 4 * 3").unwrap());
        assert_eq!(ad.eval("total"), Value::Int(62));
    }

    #[test]
    fn display_is_parseable() {
        let mut ad = ClassAd::new();
        ad.set_value("name", "vm-1");
        ad.set_value("mem", 64i64);
        let text = ad.to_string();
        let reparsed = crate::parse_classad(&text).unwrap();
        assert_eq!(ad, reparsed);
    }

    #[test]
    fn from_iterator_collects() {
        let ad: ClassAd = vec![
            ("a".to_owned(), Expr::lit(1i64)),
            ("b".to_owned(), Expr::lit(2i64)),
        ]
        .into_iter()
        .collect();
        assert_eq!(ad.len(), 2);
    }
}
