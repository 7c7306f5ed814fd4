//! Differential suite: batch evaluation over a columnar [`AdTable`]
//! against the tree-walking oracle, row by row.
//!
//! Mirrors the `find_golden_naive` oracle pattern from the warehouse: the
//! slow reference implementation stays in the build and every fast path is
//! checked against it. A seeded LCG drives randomized expressions and ads
//! — including missing attributes, explicit `undefined` / `error` values,
//! short-circuit operands, heterogeneous column types, and non-flat
//! (boxed) rows — so failures replay deterministically from the seed.
//! Arbitrary trees mostly take the per-row tree walk; the column scan's
//! own conjunction-shaped differential lives in `table.rs`'s tests, where
//! it can also assert that every generated case took the scan.

use vmplants_classad::{AdTable, AttrScope, BinOp, ClassAd, Expr, UnOp, Value};

/// Deterministic 64-bit LCG (MMIX constants), top bits used.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678))
    }

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
}

const ATTRS: &[&str] = &[
    "freememory",
    "alive",
    "vmcount",
    "os",
    "name",
    "memutilization",
    "derived",
    "missing_one",
    "missing_two",
];

const STRINGS: &[&str] = &["linux", "Linux-Mandrake-8.1", "UML", "vmware", "", "aBc"];

const CALLS: &[&str] = &[
    "isUndefined",
    "isError",
    "member",
    "size",
    "floor",
    "ceiling",
    "round",
    "int",
    "real",
    "string",
    "strcat",
    "toupper",
    "tolower",
    "noSuchFn",
];

fn gen_value(rng: &mut Lcg, depth: u32) -> Value {
    match rng.below(if depth == 0 { 7 } else { 8 }) {
        0 => Value::Int(rng.below(41) as i64 - 20),
        1 => Value::Real((rng.below(81) as f64 - 40.0) / 4.0),
        2 => Value::Bool(rng.chance(50)),
        3 => Value::Str(STRINGS[rng.below(STRINGS.len() as u64) as usize].to_owned()),
        4 => Value::Undefined,
        5 => Value::Err,
        6 => Value::Int(rng.below(5) as i64), // small ints for %, member
        _ => Value::List(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
    }
}

fn gen_attr(rng: &mut Lcg) -> Expr {
    let name = ATTRS[rng.below(ATTRS.len() as u64) as usize];
    let name = if rng.chance(20) {
        name.to_ascii_uppercase()
    } else {
        name.to_owned()
    };
    let scope = match rng.below(10) {
        0 => AttrScope::My,
        1 => AttrScope::Other,
        _ => AttrScope::Current,
    };
    Expr::Attr(scope, name)
}

fn gen_expr(rng: &mut Lcg, depth: u32) -> Expr {
    if depth == 0 || rng.chance(25) {
        return if rng.chance(45) {
            Expr::Lit(gen_value(rng, 1))
        } else {
            gen_attr(rng)
        };
    }
    match rng.below(10) {
        0 => Expr::Unary(
            if rng.chance(50) { UnOp::Not } else { UnOp::Neg },
            Box::new(gen_expr(rng, depth - 1)),
        ),
        1 => Expr::Cond(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => Expr::List(
            (0..rng.below(4))
                .map(|_| gen_expr(rng, depth - 1))
                .collect(),
        ),
        3 => {
            let name = CALLS[rng.below(CALLS.len() as u64) as usize];
            let args = match name {
                "member" => vec![
                    gen_expr(rng, depth - 1),
                    Expr::List(
                        (0..rng.below(4))
                            .map(|_| gen_expr(rng, depth - 1))
                            .collect(),
                    ),
                ],
                "strcat" => (0..rng.below(4))
                    .map(|_| gen_expr(rng, depth - 1))
                    .collect(),
                _ => (0..1 + rng.below(2))
                    .map(|_| gen_expr(rng, depth - 1))
                    .collect(),
            };
            Expr::Call(name.to_owned(), args)
        }
        _ => {
            const OPS: &[BinOp] = &[
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::MetaEq,
                BinOp::MetaNe,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
            ];
            Expr::Binary(
                OPS[rng.below(OPS.len() as u64) as usize],
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            )
        }
    }
}

/// A random flat ad: a subset of the attribute pool bound to literals,
/// including explicit sentinel and list values.
fn gen_flat_ad(rng: &mut Lcg) -> ClassAd {
    let mut ad = ClassAd::new();
    for name in ATTRS {
        if rng.chance(60) {
            ad.set_value(*name, gen_value(rng, 1));
        }
    }
    ad
}

/// A non-flat ad: literal bindings plus a computed attribute (and,
/// occasionally, a reference cycle) so the table must box the row.
fn gen_boxed_ad(rng: &mut Lcg) -> ClassAd {
    let mut ad = gen_flat_ad(rng);
    ad.set("derived", gen_expr(rng, 2));
    if rng.chance(10) {
        ad.set("loop_a", Expr::attr("loop_b"));
        ad.set("loop_b", Expr::attr("loop_a"));
    }
    ad
}

#[test]
fn batch_eval_matches_per_row_tree_walk() {
    let mut rng = Lcg::new(42);
    let ads: Vec<ClassAd> = (0..400)
        .map(|_| {
            if rng.chance(10) {
                gen_boxed_ad(&mut rng)
            } else {
                gen_flat_ad(&mut rng)
            }
        })
        .collect();
    let mut table = AdTable::new();
    for ad in &ads {
        table.push(ad);
    }
    for case in 0..150 {
        let expr = gen_expr(&mut rng, 4);
        let hits = table.eval_batch(&expr);
        for (row, ad) in ads.iter().enumerate() {
            let oracle = expr.eval_solo(ad).is_true();
            assert_eq!(
                hits.contains(row),
                oracle,
                "case {case} row {row}: batch {} != oracle {oracle}\n  expr: {expr}\n  ad: {ad}",
                hits.contains(row),
            );
        }
    }
}
