//! The classad record type.

use std::fmt;
use std::rc::Rc;

use crate::expr::{Expr, Scope};
use crate::value::{Text, Value};

/// An attribute name as an ad stores it.
///
/// A name spelled as a literal in the program (`"vmid"`) is kept as the
/// `&'static str` itself, so binding it allocates nothing; a name made
/// at run time (parsed from text, taken from an action's outputs) is
/// shared by reference count. Either kind compares, prints and
/// debug-formats as the plain string.
///
/// The shared text is an `Rc<String>`, a thin pointer, so the whole name
/// fits in the two words of a `&str`; with an `Rc<str>` it would take a
/// third word, and every attribute of every ad would grow by it.
#[derive(Clone)]
pub enum AttrName {
    /// A name spelled in the program.
    Static(&'static str),
    /// A name made at run time.
    Shared(Rc<String>),
}

impl AttrName {
    /// The name's text.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            AttrName::Static(s) => s,
            AttrName::Shared(s) => s,
        }
    }
}

impl AsRef<str> for AttrName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for AttrName {
    fn eq(&self, other: &AttrName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&'static str> for AttrName {
    fn from(name: &'static str) -> AttrName {
        AttrName::Static(name)
    }
}

impl From<String> for AttrName {
    fn from(name: String) -> AttrName {
        AttrName::Shared(Rc::new(name))
    }
}

/// An ordered attribute → expression record.
///
/// Attribute names are case-insensitive (per classad convention) but the
/// record remembers the spelling used at insertion, and iteration follows
/// insertion order — so a printed ad is stable and diff-friendly.
///
/// The attribute list is copy-on-write: cloning an ad (into a reply
/// envelope, the dedup cache, the shop's soft cache) shares the storage,
/// and the first mutation of a shared ad copies it. Attribute names
/// ([`AttrName`]) and string values are shared too, so that copy is one
/// vector allocation plus reference-count bumps for a literal-valued ad,
/// and dropping the last copy of an ad frees one vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassAd {
    // (name, expr) matched ASCII-case-insensitively; linear scan is
    // appropriate for the tens-of-attributes ads this middleware produces.
    entries: Rc<Vec<(AttrName, Expr)>>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// An empty ad with room for `attributes` bindings, so building it up
    /// to that size never grows its storage.
    pub fn with_capacity(attributes: usize) -> Self {
        ClassAd {
            entries: Rc::new(Vec::with_capacity(attributes)),
        }
    }

    /// Bind `name` to an expression, replacing any existing binding
    /// (case-insensitively) while keeping its position; the binding takes
    /// the new spelling of `name`. A `&'static str` name is stored
    /// without allocating.
    pub fn set(&mut self, name: impl AsRef<str> + Into<AttrName>, expr: Expr) {
        let entries = self.entries_mut();
        match entries
            .iter_mut()
            .find(|(n, _)| n.as_str().eq_ignore_ascii_case(name.as_ref()))
        {
            Some(slot) => {
                if slot.0.as_str() != name.as_ref() {
                    slot.0 = name.into();
                }
                slot.1 = expr;
            }
            None => entries.push((name.into(), expr)),
        }
    }

    /// Bind `name` to a literal value.
    pub fn set_value(&mut self, name: impl AsRef<str> + Into<AttrName>, value: impl Into<Value>) {
        self.set(name, Expr::Lit(value.into()));
    }

    /// Bind `name` to the display text of `value`, unless the ad already
    /// binds that very text under that spelling: then it is left as it
    /// is, and a shared ad is not copied. The text is formatted on the
    /// stack, so a new binding's shared string is its one allocation.
    pub fn set_display(
        &mut self,
        name: impl AsRef<str> + Into<AttrName>,
        value: impl fmt::Display,
    ) {
        let text = Text::of(value);
        let held = self.entries.iter().any(|(n, expr)| {
            n.as_str() == name.as_ref()
                && matches!(expr, Expr::Lit(Value::Str(s)) if **s == *text.as_str())
        });
        if !held {
            self.set(name, Expr::Lit(Value::Str(text.as_str().into())));
        }
    }

    /// The attribute list, for writing: a shared list is copied first,
    /// keeping its capacity, so a binding appended to the copy of a
    /// presized ad does not grow it again.
    fn entries_mut(&mut self) -> &mut Vec<(AttrName, Expr)> {
        if Rc::get_mut(&mut self.entries).is_none() {
            let mut copy = Vec::with_capacity(self.entries.capacity());
            copy.extend(self.entries.iter().cloned());
            self.entries = Rc::new(copy);
        }
        Rc::get_mut(&mut self.entries).expect("the list was just unshared")
    }

    /// The bound expression, un-evaluated.
    pub fn get_expr(&self, name: &str) -> Option<&Expr> {
        self.lookup(name)
    }

    /// Evaluate an attribute in the context of this ad alone. Missing
    /// attributes yield [`Value::Undefined`].
    pub fn eval(&self, name: &str) -> Value {
        match self.lookup(name) {
            // A literal is its own value: no reference to follow, no
            // cycle to guard against.
            Some(Expr::Lit(v)) => v.clone(),
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
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Attribute names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    fn lookup(&self, name: &str) -> Option<&Expr> {
        self.entries
            .iter()
            .find(|(n, _)| n.as_str().eq_ignore_ascii_case(name))
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
        assert!(ad.get_expr("memory_mb").is_some());
        // Replacement keeps a single entry.
        ad.set_value("memory_mb", 512i64);
        assert_eq!(ad.names().count(), 1);
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
        a.set_value("vmid", "vm-2");
        assert_eq!(c.names().count(), 2);
        assert_eq!(c.get_str("vmid"), Some("vm-1".into()));
        assert!(c.get_expr("uptime_s").is_none());
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
    fn a_name_is_two_words() {
        assert_eq!(std::mem::size_of::<AttrName>(), std::mem::size_of::<&str>());
    }

    #[test]
    fn static_and_shared_names_behave_alike() {
        let mut by_static = ClassAd::new();
        let mut by_shared = ClassAd::new();
        by_static.set_value("Memory_MB", 256i64);
        by_shared.set_value(String::from("Memory_MB"), 256i64);
        assert!(matches!(by_static.entries[0].0, AttrName::Static(_)));
        assert!(matches!(by_shared.entries[0].0, AttrName::Shared(_)));
        assert_eq!(by_static, by_shared);
        for ad in [&by_static, &by_shared] {
            assert_eq!(ad.get_int("memory_mb"), Some(256));
            assert_eq!(ad.get_int("MEMORY_MB"), Some(256));
        }
        // A re-cased set renames, whichever kind either spelling is.
        by_static.set_value(String::from("MEMORY_mb"), 512i64);
        by_shared.set_value("MEMORY_mb", 512i64);
        for ad in [&by_static, &by_shared] {
            assert_eq!(ad.names().collect::<Vec<_>>(), ["MEMORY_mb"]);
            assert_eq!(ad.get_int("memory_mb"), Some(512));
        }
        assert_eq!(by_static, by_shared);
        assert_eq!(by_static.to_string(), by_shared.to_string());
        assert_eq!(format!("{by_static:?}"), format!("{by_shared:?}"));
        // The parser makes shared names; the round trip is exact.
        for ad in [&by_static, &by_shared] {
            assert_eq!(&crate::parse_classad(&ad.to_string()).unwrap(), ad);
        }
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
    fn eval_resolves_intra_ad_references() {
        let mut ad = ClassAd::new();
        ad.set_value("base_cost", 50i64);
        ad.set("total", crate::parse_expr("base_cost + 4 * 3").unwrap());
        assert_eq!(ad.eval("total"), Value::Int(62));
    }

    #[test]
    fn set_display_writes_text_and_leaves_an_equal_binding_alone() {
        let mut ad = ClassAd::with_capacity(4);
        ad.set_display("network", format_args!("vmnet{}", 3));
        assert_eq!(ad.get_str("network"), Some("vmnet3".into()));
        let reply = ad.clone();
        ad.set_display("network", "vmnet3");
        assert!(
            Rc::ptr_eq(&ad.entries, &reply.entries),
            "an equal binding is not rewritten, so the shared list is not copied"
        );
        ad.set_display("Network", "vmnet3");
        assert_eq!(
            ad.names().collect::<Vec<_>>(),
            ["Network"],
            "a new spelling is written"
        );
        // Text longer than the stack buffer moves to the heap whole.
        let long = "segment-".repeat(12);
        ad.set_display("long", &long);
        assert_eq!(ad.get_str("long"), Some(long));
    }

    #[test]
    fn a_copy_on_write_keeps_the_capacity() {
        let mut ad = ClassAd::with_capacity(8);
        ad.set_value("a", 1i64);
        ad.set_value("b", 2i64);
        let mut copy = ad.clone();
        copy.set_value("c", 3i64);
        assert!(copy.entries.capacity() >= 8, "{}", copy.entries.capacity());
        assert_eq!(ad.names().count(), 2);
        assert_eq!(copy.names().count(), 3);
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
            ("a".to_owned(), Expr::Lit(Value::Int(1))),
            ("b".to_owned(), Expr::Lit(Value::Int(2))),
        ]
        .into_iter()
        .collect();
        assert_eq!(ad.names().count(), 2);
    }
}
