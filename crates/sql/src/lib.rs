//! SQL front end: tokenizer, AST and recursive-descent parser.
//!
//! The dialect is a PostgreSQL-flavoured subset extended with the paper's
//! constructs:
//!
//! * `ITERATE(init, step, stop [, max_iter])` — the non-appending
//!   iteration table function of §5.1 (Listing 1);
//! * analytics table functions `KMEANS`, `KMEANS_ASSIGN`, `PAGERANK`,
//!   `NAIVE_BAYES_TRAIN`, `NAIVE_BAYES_PREDICT`, `CLASS_STATS` (§6,
//!   Listings 2 and 3);
//! * lambda expressions `LAMBDA(a, b) expr` — `λ` is accepted as a
//!   synonym (§7, Listing 3).
//!
//! The parser produces an *unbound* [`ast`] — names are resolved and
//! types inferred later by `hylite-planner`.

pub mod ast;
pub mod parser;
pub mod token;

pub use ast::{
    Cte, Expr, JoinKind, Lambda, OrderByExpr, Query, Select, SelectItem, SetExpr, SetValue,
    Statement, TableFunc, TableRef,
};
pub use parser::{parse_expression, parse_sql, parse_statement, Parser};
pub use token::{Keyword, Token, Tokenizer};
