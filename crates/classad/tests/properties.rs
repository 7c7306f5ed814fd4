//! Seeded property tests: print→parse round-trips and evaluation
//! totality. Values and expressions are drawn from `SimRng` over a fixed
//! seed range, so each run checks the same cases.

use vmplants_classad::{parse_classad, parse_expr, BinOp, ClassAd, Expr, UnOp, Value};
use vmplants_simkit::SimRng;

/// Cases per property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LETTERS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// Every binary operator, so each precedence level meets every other.
const BIN_OPS: [BinOp; 15] = [
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

/// A string of `len` characters drawn from `alphabet`.
fn chars(rng: &mut SimRng, alphabet: &str, len: usize) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    (0..len)
        .map(|_| alphabet[rng.index(alphabet.len())])
        .collect()
}

/// An identifier: a first character from `first`, then up to `max_rest`
/// characters from `rest`. Keyword literals read back as literals, so
/// they are redrawn.
fn ident(rng: &mut SimRng, first: &str, rest: &str, max_rest: usize) -> String {
    loop {
        let len = rng.index(max_rest + 1);
        let name = chars(rng, first, 1) + &chars(rng, rest, len);
        let lower = name.to_ascii_lowercase();
        if !["true", "false", "undefined", "error"].contains(&lower.as_str()) {
            return name;
        }
    }
}

/// A non-sentinel leaf value; strings carry quotes, backslashes and
/// separators that the printer must escape.
fn leaf_value(rng: &mut SimRng) -> Value {
    match rng.index(4) {
        0 => Value::Bool(rng.chance(0.5)),
        1 => Value::Int(rng.uniform_u64(0, 2_000_000) as i64 - 1_000_000),
        2 => Value::Real(rng.uniform(-1e6, 1e6)),
        _ => {
            let len = rng.index(25);
            Value::from(chars(rng, &format!("{ALNUM} _.:/\\\"-"), len))
        }
    }
}

/// A value with lists nested up to `depth` levels.
fn any_value(rng: &mut SimRng, depth: u32) -> Value {
    if depth == 0 || rng.chance(0.5) {
        return leaf_value(rng);
    }
    let len = rng.index(5);
    Value::List((0..len).map(|_| any_value(rng, depth - 1)).collect())
}

/// An expression of literals and attribute references under operators,
/// conditionals and lists, nested up to `depth` levels.
fn any_expr(rng: &mut SimRng, depth: u32) -> Expr {
    if depth == 0 || rng.chance(0.3) {
        return if rng.chance(0.5) {
            Expr::Lit(leaf_value(rng))
        } else {
            Expr::attr(ident(rng, LOWER, &format!("{LOWER}0123456789_"), 8))
        };
    }
    let sub = |rng: &mut SimRng| Box::new(any_expr(rng, depth - 1));
    match rng.index(4) {
        0 => {
            let op = BIN_OPS[rng.index(BIN_OPS.len())];
            Expr::Binary(op, sub(rng), sub(rng))
        }
        1 => Expr::Unary(UnOp::Not, sub(rng)),
        2 => Expr::Cond(sub(rng), sub(rng), sub(rng)),
        _ => {
            let len = rng.index(4);
            Expr::List((0..len).map(|_| any_expr(rng, depth - 1)).collect())
        }
    }
}

/// Every printed value parses back to an identical value (up to the
/// real-number formatting convention, which `is_identical` absorbs).
#[test]
fn value_display_round_trips() {
    for seed in SEEDS {
        let v = any_value(&mut SimRng::seed_from_u64(seed), 3);
        let printed = Expr::Lit(v.clone()).to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse of {printed:?}: {e}"));
        let back = reparsed.eval_solo(&ClassAd::new());
        assert!(
            v.is_identical(&back),
            "seed {seed}: {v:?} -> {printed} -> {back:?}"
        );
    }
}

/// Every printed expression parses back to the same AST.
#[test]
fn expr_display_round_trips() {
    for seed in SEEDS {
        let e = any_expr(&mut SimRng::seed_from_u64(seed), 4);
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("seed {seed}: reparse of {printed:?}: {err}"));
        assert_eq!(e, reparsed, "seed {seed}: printed {printed}");
    }
}

/// Evaluation is total: any generated expression evaluates without
/// panicking, in an empty ad and in one that binds its attributes
/// (sentinels are fine).
#[test]
fn evaluation_never_panics() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let e = any_expr(&mut rng, 4);
        let _ = e.eval_solo(&ClassAd::new());
        let mut ad = ClassAd::new();
        let mut names = Vec::new();
        collect_attrs(&e, &mut names);
        for name in names {
            ad.set_value(name.as_str(), any_value(&mut rng, 2));
        }
        let _ = e.eval_solo(&ad);
    }
}

fn collect_attrs(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Lit(_) => {}
        Expr::Attr(_, name) => out.push(name.clone()),
        Expr::Unary(_, a) => collect_attrs(a, out),
        Expr::Binary(_, a, b) => {
            collect_attrs(a, out);
            collect_attrs(b, out);
        }
        Expr::Cond(c, t, f) => {
            collect_attrs(c, out);
            collect_attrs(t, out);
            collect_attrs(f, out);
        }
        Expr::List(items) | Expr::Call(_, items) => {
            items.iter().for_each(|i| collect_attrs(i, out));
        }
    }
}

/// A whole record round-trips.
#[test]
fn classad_display_round_trips() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ad = ClassAd::new();
        for _ in 0..rng.index(8) {
            let name = ident(&mut rng, LETTERS, &format!("{ALNUM}_"), 10);
            ad.set(name, any_expr(&mut rng, 4));
        }
        let printed = ad.to_string();
        let reparsed = parse_classad(&printed)
            .unwrap_or_else(|err| panic!("seed {seed}: reparse of {printed:?}: {err}"));
        assert_eq!(ad, reparsed, "seed {seed}: printed {printed}");
    }
}

/// A value close to `v`: a string truncated or upper-cased, an integer as
/// the equal real, one list element made near. These are the pairs where
/// a one-sided comparison shows. Generated strings are ASCII, so any byte
/// offset is a char boundary.
fn near(rng: &mut SimRng, v: &Value) -> Value {
    match v {
        Value::Str(s) if rng.chance(0.5) => Value::from(&s[..rng.index(s.len() + 1)]),
        Value::Str(s) => Value::from(s.to_ascii_uppercase()),
        Value::Int(i) => Value::Real(*i as f64),
        Value::List(items) if !items.is_empty() => {
            let mut items = items.clone();
            let k = rng.index(items.len());
            items[k] = near(rng, &items[k]);
            Value::List(items)
        }
        other => other.clone(),
    }
}

/// `ad_eq` is symmetric and `is_identical` is reflexive and symmetric,
/// over equal, near and unrelated pairs.
#[test]
fn equality_algebra() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let a = any_value(&mut rng, 3);
        let b = match rng.index(3) {
            0 => a.clone(),
            1 => near(&mut rng, &a),
            _ => any_value(&mut rng, 3),
        };
        assert!(
            a.ad_eq(&b).is_identical(&b.ad_eq(&a)),
            "seed {seed}: {a:?} vs {b:?}"
        );
        assert!(a.is_identical(&a), "seed {seed}: {a:?}");
        assert_eq!(a.is_identical(&b), b.is_identical(&a), "seed {seed}");
    }
}

/// The parser never panics on malformed text, and whatever it accepts
/// evaluates: printed records and expressions with a few characters
/// replaced, inserted or deleted.
#[test]
fn parser_is_panic_free_on_mutated_text() {
    let alphabet: Vec<char> = "[]{}()=;,.!?:<>&|+-*/%\"\\ aeEx09_"
        .chars()
        .chain(['é', '\0'])
        .collect();
    let mut accepted = 0;
    for seed in 0..4_000u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ad = ClassAd::new();
        for _ in 0..1 + rng.index(3) {
            let name = ident(&mut rng, LETTERS, ALNUM, 6);
            ad.set(name, any_expr(&mut rng, 3));
        }
        let mut text: Vec<char> = ad.to_string().chars().collect();
        for _ in 0..1 + rng.index(3) {
            let at = rng.index(text.len() + 1);
            let c = alphabet[rng.index(alphabet.len())];
            match rng.index(3) {
                0 if at < text.len() => text[at] = c,
                1 => text.insert(at, c),
                _ if at < text.len() => {
                    text.remove(at);
                }
                _ => {}
            }
        }
        let text: String = text.into_iter().collect();
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(parsed) = parse_classad(&text) {
                for (_, expr) in parsed.iter() {
                    let _ = expr.eval_solo(&parsed);
                }
                return true;
            }
            let inner = text.trim().trim_start_matches('[').trim_end_matches(']');
            if let Ok(expr) = parse_expr(inner) {
                let _ = expr.eval_solo(&ClassAd::new());
            }
            false
        });
        match outcome {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("seed {seed}: parser or evaluator panicked on {text:?}"),
        }
    }
    assert!(accepted > 400, "only {accepted} mutated records parsed");
}
