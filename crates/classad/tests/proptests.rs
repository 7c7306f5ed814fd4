// Gated: requires the `proptest` dev-dependency, unavailable in
// network-restricted builds. Enable with `--features proptests` after
// restoring the dependency.
#![cfg(feature = "proptests")]

//! Property tests: print→parse round-trips and evaluation totality.

use proptest::prelude::*;
use vmplants_classad::{parse_classad, parse_expr, ClassAd, Expr, Value};

/// Strategy for arbitrary (non-sentinel) leaf values.
fn leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Real),
        "[a-zA-Z0-9 _.:/\\\\\"-]{0,24}".prop_map(Value::from),
    ]
}

/// Strategy for values including nested lists.
fn any_value() -> impl Strategy<Value = Value> {
    leaf_value().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            inner.clone().prop_map(|v| Value::List(vec![v])),
            proptest::collection::vec(inner, 0..4).prop_map(Value::List),
        ]
    })
}

/// Strategy for expressions built from literals, attrs and operators.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        leaf_value().prop_map(Expr::Lit),
        "[a-z][a-z0-9_]{0,8}".prop_map(Expr::attr),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                vmplants_classad::BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                vmplants_classad::BinOp::Lt,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                vmplants_classad::BinOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                vmplants_classad::BinOp::MetaEq,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(vmplants_classad::UnOp::Not, Box::new(e))),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::Cond(Box::new(c), Box::new(t), Box::new(e))),
            proptest::collection::vec(inner, 0..4).prop_map(Expr::List),
        ]
    })
}

proptest! {
    /// Every printed value parses back to an identical value (up to the
    /// real-number formatting convention, which `is_identical` absorbs).
    #[test]
    fn value_display_round_trips(v in any_value()) {
        let printed = Expr::Lit(v.clone()).to_string();
        let reparsed = parse_expr(&printed).expect("printed value must parse");
        let back = reparsed.eval_solo(&ClassAd::new());
        prop_assert!(v.is_identical(&back), "{v:?} -> {printed} -> {back:?}");
    }

    /// Every printed expression parses back to the same AST.
    #[test]
    fn expr_display_round_trips(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        prop_assert_eq!(&e, &reparsed, "printed: {}", printed);
    }

    /// Evaluation is total: any generated expression evaluates without
    /// panicking (sentinels are fine).
    #[test]
    fn evaluation_never_panics(e in arb_expr()) {
        let _ = e.eval_solo(&ClassAd::new());
    }

    /// Round-trip a whole record.
    #[test]
    fn classad_display_round_trips(
        attrs in proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,10}", arb_expr()), 0..8)
    ) {
        let mut ad = ClassAd::new();
        for (name, expr) in &attrs {
            ad.set(name.clone(), expr.clone());
        }
        let printed = ad.to_string();
        let reparsed = parse_classad(&printed)
            .unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        prop_assert_eq!(ad, reparsed);
    }

    /// ad_eq is symmetric and is_identical is reflexive.
    #[test]
    fn equality_algebra(a in any_value(), b in any_value()) {
        prop_assert_eq!(a.ad_eq(&b), b.ad_eq(&a));
        prop_assert!(a.is_identical(&a));
        prop_assert_eq!(a.is_identical(&b), b.is_identical(&a));
    }
}
