//! # vmplants-classad — classified advertisements
//!
//! The VMPlants paper (§3.1) returns a **classad** — a record of
//! `(attribute, value)` pairs in the style of Condor's matchmaking framework
//! \[Raman et al., HPDC 1998\] — to the client of every successful VM
//! creation, stores it in the plant's VM Information System, and lets the
//! shop cache it for queries and bidding. This crate implements the subset
//! of the classad language the middleware needs:
//!
//! * [`Value`] — the dynamic value domain (booleans, integers, reals,
//!   strings, lists, plus the `UNDEFINED` / `ERROR` sentinels with Condor's
//!   tri-state logic);
//! * [`Expr`] — an expression AST with attribute references (`my.attr`,
//!   `other.attr`), arithmetic, comparisons, boolean connectives and the
//!   meta-equality operators `=?=` / `=!=`;
//! * [`ClassAd`] — an ordered attribute → expression record with lazy,
//!   cycle-safe evaluation;
//! * a parser and printer with round-trip fidelity ([`parse_classad`],
//!   [`parse_expr`]); the parser refuses expressions nested deeper than
//!   a fixed 128 levels, so wire input cannot overflow the stack;
//! * one evaluator, the tree walker [`Expr::eval_solo`]: the shop keeps
//!   the cached VM ads a `select` constraint holds for, and the plants
//!   whose resource ad satisfies an order's `requirements`.
//!
//! ```
//! use vmplants_classad::{parse_classad, Value};
//!
//! let ad = parse_classad(r#"[
//!     vmid = "vm-0042";
//!     memory_mb = 256;
//!     os = "linux-mandrake-8.1";
//!     ready = memory_mb >= 64;
//! ]"#).unwrap();
//! assert_eq!(ad.eval("ready"), Value::Bool(true));
//! ```

pub mod ad;
pub mod expr;
pub mod parser;
pub mod token;
pub mod value;

pub use ad::ClassAd;
pub use expr::{AttrScope, BinOp, Expr, Scope, UnOp};
pub use parser::{parse_classad, parse_expr, ParseError};
pub use value::Value;
