//! Recursive-descent parser for expressions and classad records.

use std::fmt;

use crate::ad::ClassAd;
use crate::expr::{AttrScope, BinOp, Expr, UnOp};
use crate::token::{lex, LexError, Token};
use crate::value::Value;

/// Parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Deepest nesting the parser accepts. Every paren, unary operator,
/// `?:`, list, call and binary operator adds a level (so a chain of
/// `n` binary operators is `n` deep), which bounds how far evaluating,
/// printing or dropping any parsed expression recurses. Wire input
/// reaches this parser, so the bound is fixed rather than configurable.
const MAX_DEPTH: usize = 128;

/// A parsed subexpression and its nesting depth (0 for a leaf).
type Parsed = Result<(Expr, usize), ParseError>;

/// The depth of a node whose deepest child is `child` levels deep.
fn deeper(child: usize) -> Result<usize, ParseError> {
    if child >= MAX_DEPTH {
        Err(ParseError::new(format!(
            "expression nested deeper than {MAX_DEPTH} levels"
        )))
    } else {
        Ok(child + 1)
    }
}

/// Binary operators by precedence group, loosest first; every group is
/// left-associative.
const BINARY_GROUPS: &[&[(Token, BinOp)]] = &[
    &[(Token::Or, BinOp::Or)],
    &[(Token::And, BinOp::And)],
    &[
        (Token::Eq, BinOp::Eq),
        (Token::Ne, BinOp::Ne),
        (Token::MetaEq, BinOp::MetaEq),
        (Token::MetaNe, BinOp::MetaNe),
    ],
    &[
        (Token::Lt, BinOp::Lt),
        (Token::Le, BinOp::Le),
        (Token::Gt, BinOp::Gt),
        (Token::Ge, BinOp::Ge),
    ],
    &[(Token::Plus, BinOp::Add), (Token::Minus, BinOp::Sub)],
    &[
        (Token::Star, BinOp::Mul),
        (Token::Slash, BinOp::Div),
        (Token::Percent, BinOp::Mod),
    ],
];

/// Parse a single expression from source text.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let (e, _) = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse a classad record: `[ name = expr; ... ]`. A trailing semicolon is
/// optional, matching common classad serializations.
pub fn parse_classad(src: &str) -> Result<ClassAd, ParseError> {
    let mut p = Parser::new(src)?;
    let ad = p.classad()?;
    p.expect_end()?;
    Ok(ad)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting constructs currently open: checked on the way down so the
    /// parser's own recursion stops at [`MAX_DEPTH`], before the
    /// bottom-up depth of the finished node is known.
    open: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            open: 0,
        })
    }

    /// Open a nesting construct (paren, unary operator, `?:` branch,
    /// list, call); the caller closes it with `self.open -= 1`.
    fn enter(&mut self) -> Result<(), ParseError> {
        deeper(self.open).map(|open| self.open = open)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected '{tok}', found {}",
                self.describe_here()
            )))
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "trailing input: {}",
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn classad(&mut self) -> Result<ClassAd, ParseError> {
        self.expect(&Token::LBracket)?;
        let mut ad = ClassAd::new();
        loop {
            if self.eat(&Token::RBracket) {
                return Ok(ad);
            }
            let name = match self.next() {
                Some(Token::Ident(name)) => name,
                other => {
                    return Err(ParseError::new(format!(
                        "expected attribute name, found {:?}",
                        other.map(|t| t.to_string())
                    )))
                }
            };
            self.expect(&Token::Assign)?;
            let (value, _) = self.expr()?;
            ad.set(name, value);
            if !self.eat(&Token::Semi) {
                self.expect(&Token::RBracket)?;
                return Ok(ad);
            }
        }
    }

    fn expr(&mut self) -> Parsed {
        let (cond, cond_depth) = self.binary(0)?;
        if !self.eat(&Token::Question) {
            return Ok((cond, cond_depth));
        }
        self.enter()?;
        let (then_e, then_depth) = self.expr()?;
        self.expect(&Token::Colon)?;
        let (else_e, else_depth) = self.expr()?;
        self.open -= 1;
        Ok((
            Expr::Cond(Box::new(cond), Box::new(then_e), Box::new(else_e)),
            deeper(cond_depth.max(then_depth).max(else_depth))?,
        ))
    }

    /// Precedence climbing over the operators in `BINARY_GROUPS[group..]`,
    /// all left-associative. A chain of same-group operators is built by
    /// the loop rather than by recursion, so its length is counted into
    /// the depth here; one frame per nesting level keeps the parser's
    /// stack use small at [`MAX_DEPTH`].
    fn binary(&mut self, group: usize) -> Parsed {
        let (mut lhs, mut depth) = self.unary_expr()?;
        while let Some((op_group, op)) = self.peek_binary().filter(|&(g, _)| g >= group) {
            self.pos += 1;
            let (rhs, rhs_depth) = self.binary(op_group + 1)?;
            depth = deeper(depth.max(rhs_depth))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    /// The binary operator at the cursor, with its precedence group.
    fn peek_binary(&self) -> Option<(usize, BinOp)> {
        let tok = self.peek()?;
        BINARY_GROUPS.iter().enumerate().find_map(|(group, ops)| {
            ops.iter()
                .find(|(t, _)| t == tok)
                .map(|&(_, op)| (group, op))
        })
    }

    fn unary_expr(&mut self) -> Parsed {
        let op = if self.eat(&Token::Not) {
            UnOp::Not
        } else if self.eat(&Token::Minus) {
            UnOp::Neg
        } else {
            return self.primary();
        };
        self.enter()?;
        let (inner, inner_depth) = self.unary_expr()?;
        self.open -= 1;
        // Fold negation into numeric literals so "-5" is a literal.
        let e = match (op, inner) {
            (UnOp::Neg, Expr::Lit(Value::Int(i))) => Expr::Lit(Value::Int(-i)),
            (UnOp::Neg, Expr::Lit(Value::Real(r))) => Expr::Lit(Value::Real(-r)),
            (op, other) => Expr::Unary(op, Box::new(other)),
        };
        Ok((e, deeper(inner_depth)?))
    }

    fn primary(&mut self) -> Parsed {
        match self.next() {
            Some(Token::Int(i)) => Ok((Expr::Lit(Value::Int(i)), 0)),
            Some(Token::Real(r)) => Ok((Expr::Lit(Value::Real(r)), 0)),
            Some(Token::Str(s)) => Ok((Expr::Lit(Value::Str(s.into())), 0)),
            Some(Token::LParen) => {
                self.enter()?;
                let (e, depth) = self.expr()?;
                self.expect(&Token::RParen)?;
                self.open -= 1;
                Ok((e, deeper(depth)?))
            }
            Some(Token::LBrace) => {
                let (items, depth) = self.items(&Token::RBrace)?;
                Ok((Expr::List(items), depth))
            }
            Some(Token::Ident(name)) => self.ident_continuation(name),
            other => Err(ParseError::new(format!(
                "expected expression, found {:?}",
                other.map(|t| t.to_string())
            ))),
        }
    }

    /// Comma-separated expressions up to and including `close` (list
    /// items or call arguments), with the depth of the node holding them.
    fn items(&mut self, close: &Token) -> Result<(Vec<Expr>, usize), ParseError> {
        self.enter()?;
        let mut items = Vec::new();
        let mut depth = 0;
        if !self.eat(close) {
            loop {
                let (item, item_depth) = self.expr()?;
                items.push(item);
                depth = depth.max(item_depth);
                if self.eat(close) {
                    break;
                }
                self.expect(&Token::Comma)?;
            }
        }
        self.open -= 1;
        Ok((items, deeper(depth)?))
    }

    fn ident_continuation(&mut self, name: String) -> Parsed {
        // Keyword literals.
        match name.to_ascii_lowercase().as_str() {
            "true" => return Ok((Expr::Lit(Value::Bool(true)), 0)),
            "false" => return Ok((Expr::Lit(Value::Bool(false)), 0)),
            "undefined" => return Ok((Expr::Lit(Value::Undefined), 0)),
            "error" => return Ok((Expr::Lit(Value::Err), 0)),
            _ => {}
        }
        // Scoped attribute reference: my.x / self.x / other.x / target.x.
        if self.peek() == Some(&Token::Dot) {
            let scope = match name.to_ascii_lowercase().as_str() {
                "my" | "self" => Some(AttrScope::My),
                "other" | "target" => Some(AttrScope::Other),
                _ => None,
            };
            if let Some(scope) = scope {
                self.pos += 1; // consume '.'
                match self.next() {
                    Some(Token::Ident(attr)) => return Ok((Expr::Attr(scope, attr), 0)),
                    other => {
                        return Err(ParseError::new(format!(
                            "expected attribute after '{name}.', found {:?}",
                            other.map(|t| t.to_string())
                        )))
                    }
                }
            }
            return Err(ParseError::new(format!(
                "'.' may only follow my/self/other/target, not '{name}'"
            )));
        }
        // Function call.
        if self.eat(&Token::LParen) {
            let (args, depth) = self.items(&Token::RParen)?;
            return Ok((Expr::Call(name, args), depth));
        }
        Ok((Expr::Attr(AttrScope::Current, name), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_record() {
        let ad = parse_classad(
            r#"[
                vmid = "vm-1";
                memory_mb = 64;
                cost = memory_mb * 2 + 10;
                tags = {"grid", "invigo"};
            ]"#,
        )
        .unwrap();
        assert_eq!(ad.len(), 4);
        assert_eq!(ad.eval("cost"), Value::Int(138));
        assert_eq!(
            ad.eval("tags"),
            Value::List(vec![Value::str("grid"), Value::str("invigo")])
        );
    }

    #[test]
    fn empty_record_and_optional_trailing_semi() {
        assert_eq!(parse_classad("[]").unwrap().len(), 0);
        assert_eq!(parse_classad("[a = 1]").unwrap().len(), 1);
        assert_eq!(parse_classad("[a = 1;]").unwrap().len(), 1);
    }

    #[test]
    fn precedence_binds_correctly() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        assert_eq!(
            e.eval_solo(&crate::ad::ClassAd::new()),
            Value::Bool(true)
        );
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval_solo(&crate::ad::ClassAd::new()), Value::Int(9));
    }

    #[test]
    fn scoped_attributes() {
        assert_eq!(
            parse_expr("my.mem").unwrap(),
            Expr::Attr(AttrScope::My, "mem".into())
        );
        assert_eq!(
            parse_expr("self.mem").unwrap(),
            Expr::Attr(AttrScope::My, "mem".into())
        );
        assert_eq!(
            parse_expr("other.mem").unwrap(),
            Expr::Attr(AttrScope::Other, "mem".into())
        );
        assert_eq!(
            parse_expr("target.mem").unwrap(),
            Expr::Attr(AttrScope::Other, "mem".into())
        );
        assert!(parse_expr("foo.bar").is_err());
    }

    #[test]
    fn keyword_literals_case_insensitive() {
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::Lit(Value::Bool(true)));
        assert_eq!(
            parse_expr("Undefined").unwrap(),
            Expr::Lit(Value::Undefined)
        );
        assert_eq!(parse_expr("ERROR").unwrap(), Expr::Lit(Value::Err));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Lit(Value::Int(-5)));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::Lit(Value::Real(-2.5)));
    }

    #[test]
    fn call_with_zero_args() {
        assert_eq!(
            parse_expr("now()").unwrap(),
            Expr::Call("now".into(), vec![])
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let err = parse_expr("1 +").unwrap_err();
        assert!(err.message.contains("expected expression"), "{err}");
        let err = parse_expr("(1").unwrap_err();
        assert!(err.message.contains("expected ')'"), "{err}");
        let err = parse_expr("1 2").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
        let err = parse_classad("[1 = 2]").unwrap_err();
        assert!(err.message.contains("attribute name"), "{err}");
    }

    #[test]
    fn record_round_trip() {
        let src = r#"[ a = 1; b = "x"; c = a + 2; d = {1, 2.5, "s"}; req = other.mem >= my.mem ]"#;
        let ad = parse_classad(src).unwrap();
        let printed = ad.to_string();
        let ad2 = parse_classad(&printed).unwrap();
        assert_eq!(ad, ad2);
    }

    /// Sources exactly `depth` levels deep, one per nesting construct.
    fn nested(depth: usize) -> Vec<String> {
        vec![
            format!("{}true{}", "(".repeat(depth), ")".repeat(depth)),
            format!("1{}", " + 1".repeat(depth)),
            format!("{}true", "!".repeat(depth)),
            format!("{}x{}", "{".repeat(depth), "}".repeat(depth)),
            format!("{}1{}", "size(".repeat(depth), ")".repeat(depth)),
            format!("{}false", "x ? 1 : ".repeat(depth)),
            // Each `(1 - …)` is two levels: the paren and the operator.
            format!(
                "{}{}0{}",
                "!".repeat(depth % 2),
                "(1 - ".repeat(depth / 2),
                ")".repeat(depth / 2)
            ),
        ]
    }

    /// Run `f` on a 2 MiB-stack thread, the default for spawned threads,
    /// so a test fails by overflow rather than passing on a big main stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn expressions_at_the_depth_limit_parse_evaluate_print_and_drop() {
        on_small_stack(|| {
            for src in nested(MAX_DEPTH) {
                let e = parse_expr(&src).unwrap_or_else(|err| panic!("{err}: {src:.40}"));
                let _ = e.eval_solo(&ClassAd::new());
                assert!(!e.to_string().is_empty());
                drop(e);
            }
        });
    }

    #[test]
    fn one_level_past_the_limit_is_a_parse_error() {
        on_small_stack(|| {
            for src in nested(MAX_DEPTH + 1) {
                let err = parse_expr(&src).expect_err(&src);
                assert!(err.message.contains("nested deeper"), "{err}");
            }
            // Wire-sized inputs far past the limit: without the bound,
            // parens overflow the parser's stack and a long chain the
            // evaluator's.
            for src in [
                format!("{}true{}", "(".repeat(5000), ")".repeat(5000)),
                format!("1{}", " + 1".repeat(10_000)),
            ] {
                assert!(parse_expr(&src).is_err());
            }
            let ad = format!("[ deep = {}true{} ]", "(".repeat(5000), ")".repeat(5000));
            assert!(parse_classad(&ad).is_err());
        });
    }
}
