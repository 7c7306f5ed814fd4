//! Columnar storage and batch evaluation for fleets of classads.
//!
//! Bidding evaluates *one* order expression against *many* plant ads. The
//! tree-walker pays an AST walk plus a case-folding linear attribute scan
//! per (expression, ad) pair; at fleet scale that dominates the bidding
//! round. An [`AdTable`] turns the fleet sideways: one typed column per
//! attribute (with a presence bitmap), strings deduplicated into a per-
//! column pool, so a conjunction of simple predicates becomes one bitmap
//! scan per conjunct over only the columns it references.
//!
//! The table also keeps every pushed ad. Expressions of any other shape,
//! and ads whose attributes are bound to anything but literal values
//! ("boxed" rows, which cannot be shredded into columns), are evaluated
//! row by row through the tree-walking oracle, so `eval_batch` is exact
//! for any expression over any mix of rows.

use std::collections::HashMap;

use crate::ad::ClassAd;
use crate::expr::{AttrScope, BinOp, Expr};
use crate::value::Value;

/// A set of row indices, packed 64 per word — the result of a batch
/// evaluation, cheap to intersect with other index structures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// An empty set sized for `rows` rows.
    pub fn with_rows(rows: usize) -> RowSet {
        RowSet {
            words: vec![0; rows.div_ceil(64)],
        }
    }

    /// Add a row index.
    pub fn insert(&mut self, row: usize) {
        let word = row / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (row % 64);
    }

    /// Membership test.
    pub fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// Number of rows in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set row indices in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

enum ColVals {
    Ints(Vec<i64>),
    Reals(Vec<f64>),
    Bools(Vec<bool>),
    Strs {
        idx: Vec<u32>,
        pool: Vec<String>,
        by_str: HashMap<String, u32>,
    },
    /// Heterogeneous or non-scalar values, stored as-is.
    Mixed(Vec<Value>),
}

struct Column {
    /// Presence bitmap: absent rows read as `undefined`.
    present: Vec<u64>,
    vals: ColVals,
}

impl Column {
    fn new(v: &Value) -> Column {
        let vals = match v {
            Value::Int(_) => ColVals::Ints(Vec::new()),
            Value::Real(_) => ColVals::Reals(Vec::new()),
            Value::Bool(_) => ColVals::Bools(Vec::new()),
            Value::Str(_) => ColVals::Strs {
                idx: Vec::new(),
                pool: Vec::new(),
                by_str: HashMap::new(),
            },
            _ => ColVals::Mixed(Vec::new()),
        };
        Column {
            present: Vec::new(),
            vals,
        }
    }

    fn len(&self) -> usize {
        match &self.vals {
            ColVals::Ints(v) => v.len(),
            ColVals::Reals(v) => v.len(),
            ColVals::Bools(v) => v.len(),
            ColVals::Strs { idx, .. } => idx.len(),
            ColVals::Mixed(v) => v.len(),
        }
    }

    /// Pad with absent entries up to (excluding) `row`.
    fn pad_to(&mut self, row: usize) {
        match &mut self.vals {
            ColVals::Ints(v) => v.resize(row, 0),
            ColVals::Reals(v) => v.resize(row, 0.0),
            ColVals::Bools(v) => v.resize(row, false),
            ColVals::Strs { idx, .. } => idx.resize(row, 0),
            ColVals::Mixed(v) => v.resize(row, Value::Undefined),
        }
    }

    /// Rewrite a typed column as `Mixed`, reconstructing absent slots.
    fn promote_to_mixed(&mut self) {
        let len = self.len();
        let mut mixed = Vec::with_capacity(len);
        for row in 0..len {
            mixed.push(if self.is_present(row) {
                match &self.vals {
                    ColVals::Ints(v) => Value::Int(v[row]),
                    ColVals::Reals(v) => Value::Real(v[row]),
                    ColVals::Bools(v) => Value::Bool(v[row]),
                    ColVals::Strs { idx, pool, .. } => {
                        Value::Str(pool[idx[row] as usize].clone())
                    }
                    ColVals::Mixed(_) => unreachable!(),
                }
            } else {
                Value::Undefined
            });
        }
        self.vals = ColVals::Mixed(mixed);
    }

    fn set(&mut self, row: usize, v: &Value) {
        self.pad_to(row);
        let matched = match (&mut self.vals, v) {
            (ColVals::Ints(col), Value::Int(i)) => {
                col.push(*i);
                true
            }
            (ColVals::Reals(col), Value::Real(r)) => {
                col.push(*r);
                true
            }
            (ColVals::Bools(col), Value::Bool(b)) => {
                col.push(*b);
                true
            }
            (ColVals::Strs { idx, pool, by_str }, Value::Str(s)) => {
                let id = match by_str.get(s) {
                    Some(&id) => id,
                    None => {
                        let id = pool.len() as u32;
                        pool.push(s.clone());
                        by_str.insert(s.clone(), id);
                        id
                    }
                };
                idx.push(id);
                true
            }
            (ColVals::Mixed(col), v) => {
                col.push(v.clone());
                true
            }
            _ => false,
        };
        if !matched {
            // Type changed mid-column (e.g. Int then Real): fall back to
            // Mixed — exact variants must survive for `=?=` / `string()`.
            self.promote_to_mixed();
            match &mut self.vals {
                ColVals::Mixed(col) => col.push(v.clone()),
                _ => unreachable!(),
            }
        }
        let word = row / 64;
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (row % 64);
    }

    fn is_present(&self, row: usize) -> bool {
        self.present
            .get(row / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }
}

/// A column-major fleet of classads, evaluated in bulk by
/// [`AdTable::eval_batch`]. Row indices are assigned by [`AdTable::push`]
/// in insertion order and are stable for the table's lifetime.
#[derive(Default)]
pub struct AdTable {
    index: HashMap<String, usize>,
    columns: Vec<Column>,
    /// Every pushed ad by row (copy-on-write clones), for the tree walk.
    ads: Vec<ClassAd>,
    /// Rows whose ads have non-literal attributes: they populate no
    /// column and are always tree-walked.
    boxed: RowSet,
}

impl AdTable {
    /// An empty table.
    pub fn new() -> AdTable {
        AdTable::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True if no ads have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Number of rows stored whole rather than columnar.
    pub fn boxed_rows(&self) -> usize {
        self.boxed.count()
    }

    /// Append an ad, returning its row index.
    pub fn push(&mut self, ad: &ClassAd) -> usize {
        let row = self.ads.len();
        self.ads.push(ad.clone());
        if ad.iter().all(|(_, e)| matches!(e, Expr::Lit(_))) {
            for (name, expr) in ad.iter() {
                let Expr::Lit(v) = expr else { unreachable!() };
                let lower = name.to_ascii_lowercase();
                let col = match self.index.get(&lower) {
                    Some(&i) => &mut self.columns[i],
                    None => {
                        self.index.insert(lower, self.columns.len());
                        self.columns.push(Column::new(v));
                        self.columns.last_mut().unwrap()
                    }
                };
                col.set(row, v);
            }
        } else {
            self.boxed.insert(row);
        }
        row
    }

    /// Evaluate one expression over every row, returning the rows where
    /// it evaluates to `true` (the matchmaking predicate — `undefined`,
    /// `error`, and non-booleans do not match).
    ///
    /// An expression that decomposes into a conjunction of simple typed
    /// predicates takes the vectorized column scan, and only the boxed
    /// rows are tree-walked. Any other expression is tree-walked on every
    /// row. Both paths agree with [`Expr::eval_solo`] row for row (see
    /// this module's tests and `tests/compiled_differential.rs`).
    pub fn eval_batch(&self, expr: &Expr) -> RowSet {
        match self.scan_conjunction(expr) {
            Some(hits) => self.tree_walk(expr, self.boxed.ones(), hits),
            None => self.tree_walk(expr, 0..self.len(), RowSet::with_rows(self.len())),
        }
    }

    /// Tree-walk `rows`, adding to `hits` each row whose ad evaluates to
    /// `true`.
    fn tree_walk(
        &self,
        expr: &Expr,
        rows: impl Iterator<Item = usize>,
        mut hits: RowSet,
    ) -> RowSet {
        for row in rows {
            if expr.eval_solo(&self.ads[row]).is_true() {
                hits.insert(row);
            }
        }
        hits
    }

    /// Vectorized fast path: if the expression is a conjunction of simple
    /// typed predicates, intersect one per-conjunct bitmap per term.
    /// Sound because `a && b` is `Bool(true)` iff **both** operands are
    /// `Bool(true)` — `undefined`/`error` operands make the conjunction
    /// non-true exactly like `false` does, so a per-term test is exact for
    /// the matchmaking predicate. Returns `None` (fall back to the tree
    /// walk) for any unsupported shape. Boxed rows are present in no
    /// column, so any column conjunct leaves them unset, and a conjunction
    /// of `true` literals alone is true on every row anyway.
    fn scan_conjunction(&self, expr: &Expr) -> Option<RowSet> {
        fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            if let Expr::Binary(BinOp::And, l, r) = e {
                conjuncts(l, out);
                conjuncts(r, out);
            } else {
                out.push(e);
            }
        }
        let mut terms = Vec::new();
        conjuncts(expr, &mut terms);
        let scans: Vec<Scan<'_>> = terms
            .iter()
            .map(|t| self.classify(t))
            .collect::<Option<_>>()?;

        let rows = self.len();
        let words = rows.div_ceil(64);
        let mut acc = vec![!0u64; words];
        if !rows.is_multiple_of(64) {
            if let Some(last) = acc.last_mut() {
                *last = (1u64 << (rows % 64)) - 1;
            }
        }
        for scan in &scans {
            match scan {
                Scan::AlwaysTrue => {}
                Scan::AlwaysFalse => {
                    acc.fill(0);
                    break;
                }
                Scan::Column(col, pred) => {
                    let mut mask = vec![0u64; words];
                    pred.fill(&col.vals, &mut mask);
                    for (w, m) in mask.iter_mut().enumerate() {
                        *m &= col.present.get(w).copied().unwrap_or(0);
                    }
                    for (a, m) in acc.iter_mut().zip(&mask) {
                        *a &= *m;
                    }
                }
            }
        }
        Some(RowSet { words: acc })
    }

    /// Map one conjunct onto a column scan, or `None` if its shape (or the
    /// column's storage type) has no exact vectorized equivalent.
    fn classify<'t>(&'t self, term: &'t Expr) -> Option<Scan<'t>> {
        let col_of = |name: &str| {
            self.index
                .get(&name.to_ascii_lowercase())
                .map(|&i| &self.columns[i])
        };
        match term {
            Expr::Lit(Value::Bool(true)) => Some(Scan::AlwaysTrue),
            // Any other literal is never `Bool(true)`.
            Expr::Lit(_) => Some(Scan::AlwaysFalse),
            // `other.x` reads as `undefined` in solo evaluation.
            Expr::Attr(AttrScope::Other, _) => Some(Scan::AlwaysFalse),
            Expr::Attr(_, name) => match col_of(name) {
                None => Some(Scan::AlwaysFalse),
                Some(col) => match &col.vals {
                    ColVals::Bools(_) | ColVals::Mixed(_) => {
                        Some(Scan::Column(col, Pred::IsTrue))
                    }
                    // Present values are never `Bool(true)`.
                    _ => Some(Scan::AlwaysFalse),
                },
            },
            Expr::Binary(op, l, r) => {
                // Comparisons only (`undefined || true` and `=?=` can be
                // true on a missing attribute); normalize `lit op attr` to
                // `attr op' lit`.
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    BinOp::Eq => BinOp::Eq,
                    BinOp::Ne => BinOp::Ne,
                    _ => return None,
                };
                let (name, lit, op) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Attr(scope, name), Expr::Lit(v)) if *scope != AttrScope::Other => {
                        (name, v, *op)
                    }
                    (Expr::Lit(v), Expr::Attr(scope, name)) if *scope != AttrScope::Other => {
                        (name, v, flipped)
                    }
                    _ => return None,
                };
                let col = match col_of(name) {
                    Some(col) => col,
                    // Missing attribute: `undefined op lit` is a sentinel
                    // for every comparison, never `true`.
                    None => return Some(Scan::AlwaysFalse),
                };
                match (lit, op) {
                    // Numeric comparisons coerce both sides through f64
                    // (`Value::as_f64`), exactly as the oracle does.
                    (
                        Value::Int(_) | Value::Real(_),
                        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne,
                    ) => {
                        let k = lit.as_f64().expect("numeric literal");
                        match &col.vals {
                            ColVals::Ints(_) | ColVals::Reals(_) | ColVals::Mixed(_) => {
                                Some(Scan::Column(col, Pred::Num(op, k)))
                            }
                            _ => None,
                        }
                    }
                    // String equality is ASCII-case-insensitive.
                    (Value::Str(s), BinOp::Eq | BinOp::Ne) => match &col.vals {
                        ColVals::Strs { .. } | ColVals::Mixed(_) => Some(Scan::Column(
                            col,
                            Pred::StrEq(s, matches!(op, BinOp::Ne)),
                        )),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// One vectorizable conjunct of [`AdTable::scan_conjunction`].
enum Scan<'t> {
    AlwaysTrue,
    AlwaysFalse,
    Column(&'t Column, Pred<'t>),
}

/// The per-row test a [`Scan::Column`] applies (presence is intersected
/// separately from the column's bitmap).
enum Pred<'t> {
    /// Bare boolean attribute: row value must be `Bool(true)`.
    IsTrue,
    /// `attr <op> k` under f64 coercion; `Ne` rows with non-numeric
    /// values stay unset (the oracle yields `error` there).
    Num(BinOp, f64),
    /// `attr == "s"` (or `!=` when negated); non-string rows stay unset.
    StrEq(&'t str, bool),
}

impl Pred<'_> {
    /// Set the mask bit for every row whose stored value passes the test.
    fn fill(&self, vals: &ColVals, mask: &mut [u64]) {
        let mut set = |row: usize| mask[row / 64] |= 1 << (row % 64);
        match self {
            Pred::IsTrue => match vals {
                ColVals::Bools(v) => {
                    for (row, &b) in v.iter().enumerate() {
                        if b {
                            set(row);
                        }
                    }
                }
                ColVals::Mixed(v) => {
                    for (row, val) in v.iter().enumerate() {
                        if matches!(val, Value::Bool(true)) {
                            set(row);
                        }
                    }
                }
                _ => unreachable!("classify admits Bools/Mixed only"),
            },
            Pred::Num(op, k) => {
                let k = *k;
                let pass: fn(f64, f64) -> bool = match op {
                    BinOp::Lt => |a, b| a < b,
                    BinOp::Le => |a, b| a <= b,
                    BinOp::Gt => |a, b| a > b,
                    BinOp::Ge => |a, b| a >= b,
                    BinOp::Eq => |a, b| a == b,
                    BinOp::Ne => |a, b| a != b,
                    _ => unreachable!("classify admits comparisons only"),
                };
                match vals {
                    ColVals::Ints(v) => {
                        for (row, &x) in v.iter().enumerate() {
                            if pass(x as f64, k) {
                                set(row);
                            }
                        }
                    }
                    ColVals::Reals(v) => {
                        for (row, &x) in v.iter().enumerate() {
                            if pass(x, k) {
                                set(row);
                            }
                        }
                    }
                    ColVals::Mixed(v) => {
                        for (row, val) in v.iter().enumerate() {
                            if val.as_f64().is_some_and(|x| pass(x, k)) {
                                set(row);
                            }
                        }
                    }
                    _ => unreachable!("classify admits numeric/Mixed only"),
                }
            }
            Pred::StrEq(s, ne) => match vals {
                ColVals::Strs { idx, pool, .. } => {
                    // Test each distinct pooled string once, then map the
                    // verdict over rows by pool id.
                    let verdict: Vec<bool> = pool
                        .iter()
                        .map(|p| p.eq_ignore_ascii_case(s) != *ne)
                        .collect();
                    for (row, &id) in idx.iter().enumerate() {
                        if verdict[id as usize] {
                            set(row);
                        }
                    }
                }
                ColVals::Mixed(v) => {
                    for (row, val) in v.iter().enumerate() {
                        if let Value::Str(x) = val {
                            if x.eq_ignore_ascii_case(s) != *ne {
                                set(row);
                            }
                        }
                    }
                }
                _ => unreachable!("classify admits Strs/Mixed only"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn plant_ad(i: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.set_value("name", format!("plant-{i}"));
        ad.set_value("alive", i % 5 != 0);
        ad.set_value("freememory", 64 * (i % 9));
        ad.set_value("vmcount", i % 4);
        if i % 3 == 0 {
            ad.set_value("os", "linux-mandrake-8.1");
        }
        ad
    }

    #[test]
    fn batch_agrees_with_tree_walk_per_row() {
        let mut table = AdTable::new();
        let ads: Vec<ClassAd> = (0..100).map(plant_ad).collect();
        for ad in &ads {
            table.push(ad);
        }
        for src in [
            "freememory >= 256 && alive",
            "os == \"LINUX-MANDRAKE-8.1\"",
            "vmcount % 2 == 0 && freememory / 64 > 3",
            "missing > 1 || alive",
            "alive ? freememory > 128 : false",
        ] {
            let expr = parse_expr(src).unwrap();
            let hits = table.eval_batch(&expr);
            for (row, ad) in ads.iter().enumerate() {
                assert_eq!(
                    hits.contains(row),
                    expr.eval_solo(ad).is_true(),
                    "row {row} of {src:?}"
                );
            }
        }
    }

    #[test]
    fn boxed_rows_use_the_oracle() {
        let mut table = AdTable::new();
        let mut computed = ClassAd::new();
        computed.set_value("base", 200i64);
        computed.set("freememory", parse_expr("base + 100").unwrap());
        computed.set_value("alive", true);
        let flat = plant_ad(4); // freememory = 256, alive
        table.push(&computed);
        table.push(&flat);
        assert_eq!(table.boxed_rows(), 1);
        let hits = table.eval_batch(&parse_expr("freememory >= 256 && alive").unwrap());
        assert!(hits.contains(0));
        assert!(hits.contains(1));
        assert_eq!(hits.count(), 2);
    }

    #[test]
    fn heterogeneous_columns_promote_without_losing_variants() {
        let mut table = AdTable::new();
        let mut a = ClassAd::new();
        a.set_value("x", 3i64);
        let mut b = ClassAd::new();
        b.set_value("x", 3.0f64);
        table.push(&a);
        table.push(&b);
        // `string()` renders Int(3) and Real(3.0) differently, so the
        // promotion must preserve the exact variant of every row...
        let hits = table.eval_batch(&parse_expr("string(x) == \"3\"").unwrap());
        assert!(hits.contains(0) && !hits.contains(1));
        // ...while `==` coerces both to the same number.
        assert_eq!(table.eval_batch(&parse_expr("x == 3").unwrap()).count(), 2);
    }

    #[test]
    fn absent_attributes_read_as_undefined() {
        let mut table = AdTable::new();
        table.push(&plant_ad(1)); // no `os`
        table.push(&plant_ad(3)); // has `os`
        let hits = table.eval_batch(&parse_expr("isUndefined(os)").unwrap());
        assert!(hits.contains(0) && !hits.contains(1));
    }

    #[test]
    fn non_comparison_operators_on_absent_columns_are_tree_walked() {
        // `undefined || true` and `undefined =?= undefined` are true, so
        // an attribute no row binds must not short-circuit these to false.
        let mut table = AdTable::new();
        table.push(&plant_ad(1));
        table.push(&plant_ad(2));
        for src in [
            "nosuch || true",
            "true || nosuch",
            "nosuch =?= undefined",
            "nosuch =!= 3",
            "undefined =?= nosuch",
        ] {
            let expr = parse_expr(src).unwrap();
            assert!(table.scan_conjunction(&expr).is_none(), "{src}");
            assert_eq!(table.eval_batch(&expr).count(), 2, "{src}");
        }
    }

    #[test]
    fn rowset_basics() {
        let mut s = RowSet::with_rows(10);
        s.insert(0);
        s.insert(9);
        s.insert(130); // grows past the initial size
        assert!(s.contains(0) && s.contains(9) && s.contains(130));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 9, 130]);
    }

    /// The shapes production code relies on the column scan for: the
    /// warehouse's hardware pre-filter (`Warehouse::hardware_constraint`)
    /// and the `matchmaking_at_scale` bench constraint. If an edit to
    /// `classify` pushed either onto the per-row tree walk, this fails.
    #[test]
    fn production_constraints_take_the_column_scan() {
        let mut hw = AdTable::new();
        for (mem, os) in [(256i64, "linux"), (512, "Linux"), (256, "winxp")] {
            let mut ad = ClassAd::new();
            ad.set_value("memory_mb", mem);
            ad.set_value("disk_gb", 4i64);
            ad.set_value("os", os);
            ad.set_value("vmm", "vmware");
            hw.push(&ad);
        }
        let eq = |name: &str, v: Value| {
            Expr::Binary(
                BinOp::Eq,
                Box::new(Expr::Attr(AttrScope::Current, name.to_owned())),
                Box::new(Expr::Lit(v)),
            )
        };
        let hardware = [
            eq("memory_mb", Value::Int(256)),
            eq("disk_gb", Value::Int(4)),
            eq("os", Value::str("LINUX")),
            eq("vmm", Value::str("vmware")),
        ]
        .into_iter()
        .reduce(|a, b| Expr::Binary(BinOp::And, Box::new(a), Box::new(b)))
        .unwrap();
        let hits = hw.scan_conjunction(&hardware).expect("hardware constraint scans");
        assert_eq!(hits.ones().collect::<Vec<_>>(), vec![0]);

        let mut fleet = AdTable::new();
        for i in 0..130u64 {
            let mut ad = ClassAd::new();
            ad.set_value("freememory", (64 + i * 37 % 1985) as i64);
            ad.set_value("alive", i % 3 != 0);
            ad.set_value("vmcount", (i % 12) as i64);
            ad.set_value("memutilization", (i * 7 % 100) as f64 / 100.0);
            ad.set_value("os", if i % 2 == 0 { "linux" } else { "uml-host" });
            fleet.push(&ad);
        }
        let scale = parse_expr(
            "alive && os == \"linux\" && freememory >= 256 && vmcount < 8 && memutilization < 0.9",
        )
        .unwrap();
        assert!(fleet.scan_conjunction(&scale).is_some(), "bench constraint scans");
    }

    /// Deterministic 64-bit LCG (MMIX constants), top bits used.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 17
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len() as u64) as usize]
        }
    }

    /// Storage type of one generated column, which decides which
    /// predicates the generator may aim at it.
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Ints,
        Reals,
        Bools,
        Strs,
        Mixed,
        /// Bound in no columnar row (boxed rows may still bind it).
        Absent,
    }

    const COLUMNS: &[(&str, Kind)] = &[
        ("ints", Kind::Ints),
        ("sparse_ints", Kind::Ints),
        ("reals", Kind::Reals),
        ("bools", Kind::Bools),
        ("strs", Kind::Strs),
        ("mixed", Kind::Mixed),
        ("absent", Kind::Absent),
    ];

    const STRINGS: &[&str] = &["linux", "Linux", "UML", "vmware", "", "aBc"];

    fn num(rng: &mut Lcg) -> Value {
        if rng.chance(50) {
            Value::Int(rng.below(21) as i64 - 10)
        } else {
            Value::Real((rng.below(41) as f64 - 20.0) / 2.0)
        }
    }

    fn string(rng: &mut Lcg) -> Value {
        Value::str(*rng.pick(STRINGS))
    }

    fn any_value(rng: &mut Lcg) -> Value {
        match rng.below(7) {
            0 | 1 => num(rng),
            2 => Value::Bool(rng.chance(50)),
            3 => string(rng),
            4 => Value::Undefined,
            5 => Value::Err,
            _ => Value::List(vec![num(rng), string(rng)]),
        }
    }

    fn value_of(kind: Kind, rng: &mut Lcg) -> Value {
        match kind {
            Kind::Ints => Value::Int(rng.below(21) as i64 - 10),
            Kind::Reals => Value::Real((rng.below(41) as f64 - 20.0) / 2.0),
            Kind::Bools => Value::Bool(rng.chance(50)),
            Kind::Strs => string(rng),
            Kind::Mixed | Kind::Absent => any_value(rng),
        }
    }

    /// A row: every typed column bound (sparse ones and `mixed` only
    /// sometimes). One row in ten is boxed by a computed attribute and may
    /// bind any column, `absent` included, to any value.
    fn gen_ad(rng: &mut Lcg) -> ClassAd {
        let mut ad = ClassAd::new();
        let boxed = rng.chance(10);
        for &(name, kind) in COLUMNS {
            let bound = match (boxed, name, kind) {
                (true, _, _) => rng.chance(70),
                (false, _, Kind::Absent) => false,
                (false, "sparse_ints", _) | (false, _, Kind::Mixed) => rng.chance(60),
                _ => true,
            };
            if bound {
                let v = if boxed { any_value(rng) } else { value_of(kind, rng) };
                ad.set_value(name, v);
            }
        }
        if boxed {
            ad.set("derived", parse_expr("ints + 1").unwrap());
        }
        ad
    }

    fn gen_attr(rng: &mut Lcg, name: &str) -> Expr {
        let name = if rng.chance(20) {
            name.to_ascii_uppercase()
        } else {
            name.to_owned()
        };
        let scope = if rng.chance(20) {
            AttrScope::My
        } else {
            AttrScope::Current
        };
        Expr::Attr(scope, name)
    }

    /// One conjunct the column scan must accept: `attr op lit`,
    /// `lit op attr`, a bare attribute, `other.x`, or a literal.
    fn gen_conjunct(rng: &mut Lcg) -> Expr {
        const NUM_OPS: &[BinOp] = &[
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ];
        let &(name, kind) = rng.pick(COLUMNS);
        match rng.below(10) {
            0 => Expr::Lit(any_value(rng)),
            1 => Expr::Attr(AttrScope::Other, name.to_owned()),
            2 => gen_attr(rng, name),
            _ => {
                let numeric = match kind {
                    Kind::Ints | Kind::Reals => true,
                    Kind::Strs => false,
                    Kind::Mixed | Kind::Absent => rng.chance(50),
                    // Booleans admit bare tests only.
                    Kind::Bools => return gen_attr(rng, name),
                };
                let (op, lit) = if numeric {
                    (*rng.pick(NUM_OPS), num(rng))
                } else {
                    (*rng.pick(&[BinOp::Eq, BinOp::Ne]), string(rng))
                };
                let attr = Box::new(gen_attr(rng, name));
                let lit = Box::new(Expr::Lit(lit));
                if rng.chance(50) {
                    Expr::Binary(op, attr, lit)
                } else {
                    Expr::Binary(op, lit, attr)
                }
            }
        }
    }

    /// 1–5 conjuncts joined by `&&` in a random tree shape.
    fn gen_conjunction(rng: &mut Lcg, terms: u64) -> Expr {
        if terms == 1 {
            return gen_conjunct(rng);
        }
        let left = 1 + rng.below(terms - 1);
        Expr::Binary(
            BinOp::And,
            Box::new(gen_conjunction(rng, left)),
            Box::new(gen_conjunction(rng, terms - left)),
        )
    }

    #[test]
    fn column_scan_matches_tree_walk_on_random_conjunctions() {
        for seed in [1u64, 14, 2004] {
            let mut rng = Lcg(seed);
            let ads: Vec<ClassAd> = (0..150).map(|_| gen_ad(&mut rng)).collect();
            let mut table = AdTable::new();
            for ad in &ads {
                table.push(ad);
            }
            assert!(table.boxed_rows() > 0, "seed {seed}: no boxed rows");
            for case in 0..400 {
                let terms = 1 + rng.below(5);
                let expr = gen_conjunction(&mut rng, terms);
                assert!(
                    table.scan_conjunction(&expr).is_some(),
                    "seed {seed} case {case}: {expr} missed the column scan"
                );
                let hits = table.eval_batch(&expr);
                for (row, ad) in ads.iter().enumerate() {
                    let oracle = expr.eval_solo(ad).is_true();
                    assert_eq!(
                        hits.contains(row),
                        oracle,
                        "seed {seed} case {case} row {row}\n  expr: {expr}\n  ad: {ad}"
                    );
                }
            }
        }
    }
}
