//! Recursive-descent SQL parser.

use hylite_common::{DataType, HyError, Result, Value};

use crate::ast::*;
use crate::token::{Keyword, Token, Tokenizer};

/// Parse a script of `;`-separated statements.
pub fn parse_sql(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(";") {}
        if p.peek() == &Token::Eof {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut stmts = parse_sql(input)?;
    match stmts.len() {
        1 => Ok(stmts.pop().expect("length checked")),
        n => Err(HyError::Parse(format!("expected one statement, found {n}"))),
    }
}

/// Parse a standalone scalar expression (used in tests and by tools).
pub fn parse_expression(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The parser over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Tokenize and wrap.
    pub fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: Tokenizer::new(input).tokenize()?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        self.tokens.get(self.pos + n).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &Token::Keyword(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(HyError::Parse(format!(
                "expected {k:?}, found {}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: &'static str) -> bool {
        if self.peek() == &Token::Symbol(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &'static str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(HyError::Parse(format!(
                "expected '{s}', found {}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(HyError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        while self.eat_symbol(";") {}
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(HyError::Parse(format!(
                "unexpected trailing input at {}",
                self.peek()
            )))
        }
    }

    // ---------------------------------------------------------- statements

    /// Parse one statement.
    pub fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Keyword(Keyword::Select)
            | Token::Keyword(Keyword::With)
            | Token::Keyword(Keyword::Values)
            | Token::Symbol("(") => Ok(Statement::Query(self.query()?)),
            Token::Keyword(Keyword::Create) => self.create_table(),
            Token::Keyword(Keyword::Drop) => self.drop_table(),
            Token::Keyword(Keyword::Insert) => self.insert(),
            Token::Keyword(Keyword::Update) => self.update(),
            Token::Keyword(Keyword::Delete) => self.delete(),
            Token::Keyword(Keyword::Begin) => {
                self.bump();
                Ok(Statement::Begin)
            }
            Token::Keyword(Keyword::Commit) => {
                self.bump();
                Ok(Statement::Commit)
            }
            Token::Keyword(Keyword::Rollback) => {
                self.bump();
                Ok(Statement::Rollback)
            }
            Token::Keyword(Keyword::Set) => self.set_statement(),
            Token::Keyword(Keyword::Backup) => self.backup(),
            Token::Keyword(Keyword::Explain) => {
                self.bump();
                let analyze = self.eat_keyword(Keyword::Analyze);
                Ok(Statement::Explain {
                    statement: Box::new(self.statement()?),
                    analyze,
                })
            }
            other => Err(HyError::Parse(format!("unexpected token {other}"))),
        }
    }

    /// `BACKUP TO 'dir' [FROM 'base'] [VERIFY]`. `TO` and `VERIFY` are
    /// not reserved words — they arrive as identifiers.
    fn backup(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Backup)?;
        match self.bump() {
            Token::Ident(ref s) if s == "to" => {}
            other => {
                return Err(HyError::Parse(format!("expected TO, found {other}")));
            }
        }
        let dir = self.expect_string("backup destination")?;
        let base = if self.eat_keyword(Keyword::From) {
            Some(self.expect_string("incremental base")?)
        } else {
            None
        };
        let verify = match self.peek() {
            Token::Ident(s) if s == "verify" => {
                self.bump();
                true
            }
            _ => false,
        };
        Ok(Statement::Backup { dir, base, verify })
    }

    fn expect_string(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Token::Str(s) => Ok(s),
            other => Err(HyError::Parse(format!(
                "expected a quoted {what}, found {other}"
            ))),
        }
    }

    /// `SET <setting> = <value>` / `SET <setting> TO <value>`: an integer,
    /// `on` or `off`.
    fn set_statement(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Set)?;
        let name = self.expect_ident()?;
        if !self.eat_symbol("=") {
            match self.bump() {
                Token::Ident(kw) if kw == "to" => {}
                other => {
                    return Err(HyError::Parse(format!(
                        "expected '=' or TO after SET {name}, found {other}"
                    )))
                }
            }
        }
        let negative = self.eat_symbol("-");
        let value = match self.bump() {
            Token::Int(v) if negative => SetValue::Number(-v),
            Token::Int(v) => SetValue::Number(v),
            Token::Keyword(Keyword::On) if !negative => SetValue::Switch(true),
            Token::Ident(word) if !negative && word == "off" => SetValue::Switch(false),
            other => {
                return Err(HyError::Parse(format!(
                    "expected an integer, on or off for SET {name}, found {other}"
                )));
            }
        };
        Ok(Statement::Set { name, value })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Create)?;
        self.expect_keyword(Keyword::Table)?;
        let if_not_exists = if self.eat_keyword(Keyword::If) {
            self.expect_keyword(Keyword::Not)?;
            self.expect_keyword(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let dt = self.data_type()?;
            columns.push((col, dt));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.expect_ident()?;
        let dt = DataType::from_sql_name(&name)?;
        // `DOUBLE PRECISION` — swallow the second word.
        if name.eq_ignore_ascii_case("double") {
            if let Token::Ident(s) = self.peek() {
                if s == "precision" {
                    self.bump();
                }
            }
        }
        // `VARCHAR(500)` — size is accepted and ignored.
        if self.eat_symbol("(") {
            match self.bump() {
                Token::Int(_) => {}
                other => {
                    return Err(HyError::Parse(format!(
                        "expected type length, found {other}"
                    )))
                }
            }
            self.expect_symbol(")")?;
        }
        Ok(dt)
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Drop)?;
        self.expect_keyword(Keyword::Table)?;
        let if_exists = if self.eat_keyword(Keyword::If) {
            self.expect_keyword(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.expect_ident()?;
        let columns = if self.peek() == &Token::Symbol("(")
            && matches!(self.peek_ahead(1), Token::Ident(_))
            && (self.peek_ahead(2) == &Token::Symbol(",")
                || self.peek_ahead(2) == &Token::Symbol(")"))
        {
            self.expect_symbol("(")?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        let source = Box::new(self.query()?);
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.expect_ident()?;
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_symbol("=")?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.expect_ident()?;
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // --------------------------------------------------------------- query

    /// Parse a full query (CTEs, body, ORDER BY, LIMIT, OFFSET).
    pub fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        let mut recursive = false;
        if self.eat_keyword(Keyword::With) {
            recursive = self.eat_keyword(Keyword::Recursive);
            loop {
                let name = self.expect_ident()?;
                let columns = if self.eat_symbol("(") {
                    let mut cols = Vec::new();
                    loop {
                        cols.push(self.expect_ident()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                    Some(cols)
                } else {
                    None
                };
                self.expect_keyword(Keyword::As)?;
                self.expect_symbol("(")?;
                let query = Box::new(self.query()?);
                self.expect_symbol(")")?;
                ctes.push(Cte {
                    name,
                    columns,
                    query,
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderByExpr { expr, asc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::Limit) {
            Some(self.expr()?)
        } else {
            None
        };
        let offset = if self.eat_keyword(Keyword::Offset) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Query {
            ctes,
            recursive,
            body,
            order_by,
            limit,
            offset,
        })
    }

    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_primary()?;
        while self.eat_keyword(Keyword::Union) {
            let all = self.eat_keyword(Keyword::All);
            let right = self.set_primary()?;
            left = SetExpr::Union {
                left: Box::new(left),
                right: Box::new(right),
                all,
            };
        }
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr> {
        match self.peek() {
            Token::Keyword(Keyword::Select) => Ok(SetExpr::Select(Box::new(self.select()?))),
            Token::Keyword(Keyword::Values) => {
                self.bump();
                let mut rows = Vec::new();
                loop {
                    self.expect_symbol("(")?;
                    let mut row = Vec::new();
                    loop {
                        row.push(self.expr()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                    rows.push(row);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                Ok(SetExpr::Values(rows))
            }
            Token::Symbol("(") => {
                self.bump();
                let q = self.query()?;
                self.expect_symbol(")")?;
                Ok(SetExpr::Query(Box::new(q)))
            }
            other => Err(HyError::Parse(format!(
                "expected SELECT, VALUES or subquery, found {other}"
            ))),
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_keyword(Keyword::From) {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* wildcard
        if let (Token::Ident(q), Token::Symbol("."), Token::Symbol("*")) =
            (self.peek(), self.peek_ahead(1), self.peek_ahead(2))
        {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Token::Ident(s) = self.peek() {
            // Implicit alias: `SELECT 7 x`.
            let s = s.clone();
            self.pos += 1;
            Some(s)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---------------------------------------------------------- table refs

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.eat_keyword(Keyword::Cross) {
                self.expect_keyword(Keyword::Join)?;
                Some((JoinKind::Cross, false))
            } else if self.eat_keyword(Keyword::Inner) {
                self.expect_keyword(Keyword::Join)?;
                Some((JoinKind::Inner, true))
            } else if self.eat_keyword(Keyword::Left) {
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some((JoinKind::Left, true))
            } else if self.eat_keyword(Keyword::Join) {
                Some((JoinKind::Inner, true))
            } else {
                None
            };
            let Some((kind, needs_on)) = kind else {
                return Ok(left);
            };
            let right = self.table_primary()?;
            let on = if needs_on {
                self.expect_keyword(Keyword::On)?;
                Some(self.expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
    }

    fn table_alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword(Keyword::As) {
            Ok(Some(self.expect_ident()?))
        } else if let Token::Ident(s) = self.peek() {
            let s = s.clone();
            self.pos += 1;
            Ok(Some(s))
        } else {
            Ok(None)
        }
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            let query = Box::new(self.query()?);
            self.expect_symbol(")")?;
            let alias = self.table_alias()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        // ITERATE is a keyword-free identifier in our lexer? No — it's an
        // ordinary identifier; check for the table-function names.
        let mut name = self.expect_ident()?;
        if self.peek() == &Token::Symbol("(") && is_table_function(&name) {
            let func = self.table_function(&name)?;
            let alias = self.table_alias()?;
            return Ok(TableRef::TableFunction { func, alias });
        }
        // Qualified name (`schema.table`) — used by the `hylite.*`
        // system views; the binder resolves the dotted name as a whole.
        if self.eat_symbol(".") {
            let rest = self.expect_ident()?;
            name = format!("{name}.{rest}");
        }
        let alias = self.table_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    /// Parse one argument of a table function: a parenthesized query.
    fn query_arg(&mut self) -> Result<Box<Query>> {
        self.expect_symbol("(")?;
        let q = self.query()?;
        self.expect_symbol(")")?;
        Ok(Box::new(q))
    }

    /// Parse a lambda: `LAMBDA (a, b) body` or `λ(a, b) body`.
    fn lambda(&mut self) -> Result<Lambda> {
        self.expect_keyword(Keyword::Lambda)?;
        self.expect_symbol("(")?;
        let mut params = Vec::new();
        loop {
            params.push(self.expect_ident()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        let body = self.expr()?;
        Ok(Lambda { params, body })
    }

    fn table_function(&mut self, name: &str) -> Result<TableFunc> {
        self.expect_symbol("(")?;
        let func = match name {
            "iterate" => {
                let init = self.query_arg()?;
                self.expect_symbol(",")?;
                let step = self.query_arg()?;
                self.expect_symbol(",")?;
                let stop = self.query_arg()?;
                let max_iterations = if self.eat_symbol(",") {
                    Some(self.expr()?)
                } else {
                    None
                };
                TableFunc::Iterate {
                    init,
                    step,
                    stop,
                    max_iterations,
                }
            }
            "kmeans" | "kmeans_assign" => {
                let data = self.query_arg()?;
                self.expect_symbol(",")?;
                let centers = self.query_arg()?;
                let mut distance = None;
                let mut max_iterations = None;
                while self.eat_symbol(",") {
                    if self.peek() == &Token::Keyword(Keyword::Lambda) {
                        if distance.is_some() {
                            return Err(HyError::Parse(
                                "duplicate lambda argument in KMEANS".into(),
                            ));
                        }
                        distance = Some(self.lambda()?);
                    } else {
                        if max_iterations.is_some() {
                            return Err(HyError::Parse("too many arguments to KMEANS".into()));
                        }
                        max_iterations = Some(self.expr()?);
                    }
                }
                if name == "kmeans" {
                    TableFunc::KMeans {
                        data,
                        centers,
                        distance,
                        max_iterations,
                    }
                } else {
                    if let Some(e) = max_iterations {
                        return Err(HyError::Parse(format!(
                            "KMEANS_ASSIGN takes no iteration count (got {e})"
                        )));
                    }
                    TableFunc::KMeansAssign {
                        data,
                        centers,
                        distance,
                    }
                }
            }
            "pagerank" | "page_rank" => {
                let edges = self.query_arg()?;
                self.expect_symbol(",")?;
                let damping = self.expr()?;
                self.expect_symbol(",")?;
                let epsilon = self.expr()?;
                let max_iterations = if self.eat_symbol(",") {
                    Some(self.expr()?)
                } else {
                    None
                };
                TableFunc::PageRank {
                    edges,
                    damping,
                    epsilon,
                    max_iterations,
                }
            }
            "naive_bayes_train" => {
                let data = self.query_arg()?;
                let label_column = if self.eat_symbol(",") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                TableFunc::NaiveBayesTrain { data, label_column }
            }
            "naive_bayes_predict" => {
                let model = self.query_arg()?;
                self.expect_symbol(",")?;
                let data = self.query_arg()?;
                TableFunc::NaiveBayesPredict { model, data }
            }
            "class_stats" => {
                let data = self.query_arg()?;
                let label_column = if self.eat_symbol(",") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                TableFunc::ClassStats { data, label_column }
            }
            other => {
                return Err(HyError::Internal(format!(
                    "is_table_function admitted unknown function '{other}'"
                )))
            }
        };
        self.expect_symbol(")")?;
        Ok(func)
    }

    // ---------------------------------------------------------- expressions

    /// Parse an expression (lowest precedence: OR).
    pub fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.and_expr()?;
            left = Expr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.not_expr()?;
            left = Expr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] IN / BETWEEN / LIKE.
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek() == &Token::Keyword(Keyword::Not)
            && matches!(
                self.peek_ahead(1),
                Token::Keyword(Keyword::In)
                    | Token::Keyword(Keyword::Between)
                    | Token::Keyword(Keyword::Like)
            ) {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_keyword(Keyword::In) {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword(Keyword::Between) {
            let low = self.additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(HyError::Parse(
                "expected IN, BETWEEN or LIKE after NOT".into(),
            ));
        }
        let op = match self.peek() {
            Token::Symbol("=") => Some(BinOp::Eq),
            Token::Symbol("<>") => Some(BinOp::NotEq),
            Token::Symbol("<") => Some(BinOp::Lt),
            Token::Symbol("<=") => Some(BinOp::LtEq),
            Token::Symbol(">") => Some(BinOp::Gt),
            Token::Symbol(">=") => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            return Ok(Expr::bin(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("+") => BinOp::Add,
                Token::Symbol("-") => BinOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::bin(op, left, right);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.power()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("*") => BinOp::Mul,
                Token::Symbol("/") => BinOp::Div,
                Token::Symbol("%") => BinOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.power()?;
            left = Expr::bin(op, left, right);
        }
    }

    fn power(&mut self) -> Result<Expr> {
        let base = self.unary()?;
        if self.eat_symbol("^") {
            // Right-associative.
            let exp = self.power()?;
            return Ok(Expr::bin(BinOp::Pow, base, exp));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol("-") {
            // Fold negated numeric literals so `-1` is a literal, keeping
            // Display → parse a round trip.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::Float(v)) => Expr::Literal(Value::Float(-v)),
                other => Expr::Neg(Box::new(other)),
            });
        }
        if self.eat_symbol("+") {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            Token::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Keyword(Keyword::Null) => Ok(Expr::Literal(Value::Null)),
            Token::Keyword(Keyword::True) => Ok(Expr::Literal(Value::Bool(true))),
            Token::Keyword(Keyword::False) => Ok(Expr::Literal(Value::Bool(false))),
            Token::Keyword(Keyword::Case) => self.case_expr(),
            Token::Keyword(Keyword::Cast) => {
                self.expect_symbol("(")?;
                let e = self.expr()?;
                self.expect_keyword(Keyword::As)?;
                let target = self.data_type()?;
                self.expect_symbol(")")?;
                Ok(Expr::Cast {
                    expr: Box::new(e),
                    target,
                })
            }
            Token::Symbol("(") => {
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Token::Ident(name) => {
                // Function call?
                if self.peek() == &Token::Symbol("(") {
                    self.bump();
                    if self.eat_symbol("*") {
                        self.expect_symbol(")")?;
                        return Ok(Expr::Function {
                            name,
                            args: vec![],
                            star: true,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_keyword(Keyword::Distinct);
                    let mut args = Vec::new();
                    if self.peek() != &Token::Symbol(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                    }
                    self.expect_symbol(")")?;
                    return Ok(Expr::Function {
                        name,
                        args,
                        star: false,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.expect_ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::col(name))
            }
            other => Err(HyError::Parse(format!(
                "unexpected token {other} in expression"
            ))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let mut branches = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let cond = self.expr()?;
            self.expect_keyword(Keyword::Then)?;
            let result = self.expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(HyError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_expr = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }
}

/// Names recognized as built-in table functions in FROM position.
fn is_table_function(name: &str) -> bool {
    matches!(
        name,
        "iterate"
            | "kmeans"
            | "kmeans_assign"
            | "pagerank"
            | "page_rank"
            | "naive_bayes_train"
            | "naive_bayes_predict"
            | "class_stats"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_basics() {
        let s =
            parse_statement("SELECT a, b AS x FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5").unwrap();
        let Statement::Query(q) = s else {
            panic!("expected query")
        };
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        assert_eq!(q.limit, Some(Expr::lit(5i64)));
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        assert_eq!(sel.projection.len(), 2);
        assert!(sel.selection.is_some());
    }

    #[test]
    fn implicit_alias_and_quoted() {
        let s = parse_statement("SELECT 7 \"x\"").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        assert_eq!(
            sel.projection[0],
            SelectItem::Expr {
                expr: Expr::lit(7i64),
                alias: Some("x".into())
            }
        );
    }

    #[test]
    fn joins() {
        let s = parse_statement("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id")
            .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        let TableRef::Join { kind, .. } = &sel.from[0] else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::Left);
    }

    #[test]
    fn group_by_having_union() {
        let s = parse_statement(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 \
             UNION ALL SELECT b, 0 FROM u",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(q.body, SetExpr::Union { all: true, .. }));
    }

    #[test]
    fn recursive_cte() {
        let s = parse_statement(
            "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 10) \
             SELECT * FROM r",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(q.recursive);
        assert_eq!(q.ctes.len(), 1);
        assert_eq!(q.ctes[0].columns, Some(vec!["n".to_string()]));
    }

    #[test]
    fn paper_listing_1_iterate() {
        // Listing 1 of the paper, verbatim modulo whitespace.
        let s = parse_statement(
            "SELECT * FROM ITERATE ((SELECT 7 \"x\"), (SELECT x+7 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 100))",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        let TableRef::TableFunction { func, .. } = &sel.from[0] else {
            panic!("expected ITERATE table function")
        };
        assert!(matches!(func, TableFunc::Iterate { .. }));
    }

    #[test]
    fn paper_listing_2_pagerank() {
        let s =
            parse_statement("SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0001)")
                .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        let TableRef::TableFunction { func, .. } = &sel.from[0] else {
            panic!()
        };
        let TableFunc::PageRank {
            damping, epsilon, ..
        } = func
        else {
            panic!()
        };
        assert_eq!(*damping, Expr::lit(0.85));
        assert_eq!(*epsilon, Expr::lit(0.0001));
    }

    #[test]
    fn paper_listing_3_kmeans_lambda() {
        let s = parse_statement(
            "SELECT * FROM KMEANS((SELECT x, y FROM data), (SELECT x, y FROM center), \
             λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, 3)",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        let TableRef::TableFunction { func, .. } = &sel.from[0] else {
            panic!()
        };
        let TableFunc::KMeans {
            distance,
            max_iterations,
            ..
        } = func
        else {
            panic!()
        };
        let l = distance.as_ref().expect("lambda parsed");
        assert_eq!(l.params, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(*max_iterations, Some(Expr::lit(3i64)));
    }

    #[test]
    fn kmeans_lambda_keyword_spelling() {
        let s = parse_statement(
            "SELECT * FROM KMEANS((SELECT x FROM d), (SELECT x FROM c), \
             LAMBDA(a, b) abs(a.x - b.x))",
        )
        .unwrap();
        let Statement::Query(_) = s else { panic!() };
    }

    #[test]
    fn naive_bayes_functions() {
        parse_statement("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT f1, f2, label FROM t), label)")
            .unwrap();
        parse_statement(
            "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT * FROM model), (SELECT f1, f2 FROM u))",
        )
        .unwrap();
        parse_statement("SELECT * FROM CLASS_STATS((SELECT f1, label FROM t))").unwrap();
    }

    #[test]
    fn table_function_name_not_reserved() {
        // A plain table named `kmeans` still works when not followed by `(`.
        let s = parse_statement("SELECT * FROM kmeans").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        assert!(matches!(&sel.from[0], TableRef::Table { name, .. } if name == "kmeans"));
    }

    #[test]
    fn ddl_dml() {
        let s =
            parse_statement("CREATE TABLE data (x FLOAT, y INTEGER, desc2 VARCHAR(500))").unwrap();
        let Statement::CreateTable { columns, .. } = s else {
            panic!()
        };
        assert_eq!(columns.len(), 3);
        assert_eq!(columns[0].1, DataType::Float64);
        assert_eq!(columns[2].1, DataType::Varchar);

        parse_statement("DROP TABLE IF EXISTS data").unwrap();
        parse_statement("INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')").unwrap();
        parse_statement("INSERT INTO t (a, b) SELECT x, y FROM u").unwrap();
        parse_statement("UPDATE t SET a = a + 1 WHERE b < 3").unwrap();
        parse_statement("DELETE FROM t WHERE a IS NOT NULL").unwrap();
        parse_statement("BEGIN").unwrap();
        parse_statement("COMMIT").unwrap();
        parse_statement("ROLLBACK").unwrap();
    }

    #[test]
    fn explain_wraps() {
        let s = parse_statement("EXPLAIN SELECT 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
    }

    #[test]
    fn explain_analyze_wraps() {
        let s = parse_statement("EXPLAIN ANALYZE SELECT 1").unwrap();
        let Statement::Explain { statement, analyze } = s else {
            panic!("expected EXPLAIN");
        };
        assert!(analyze);
        assert!(matches!(*statement, Statement::Query(_)));
        let s = parse_statement("EXPLAIN ANALYZE INSERT INTO t VALUES (1)").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3 ^ 2").unwrap();
        // 1 + (2 * (3 ^ 2))
        assert_eq!(e.to_string(), "(1 + (2 * (3 ^ 2)))");
        let e = parse_expression("a OR b AND NOT c").unwrap();
        assert_eq!(e.to_string(), "(a OR (b AND (NOT c)))");
        let e = parse_expression("2 ^ 3 ^ 2").unwrap();
        assert_eq!(e.to_string(), "(2 ^ (3 ^ 2))", "power is right-assoc");
        let e = parse_expression("-2 ^ 2").unwrap();
        assert_eq!(e.to_string(), "(-2 ^ 2)", "literal fold keeps -2 atomic");
    }

    #[test]
    fn predicates() {
        parse_expression("x BETWEEN 1 AND 10 AND y NOT IN (1, 2)").unwrap();
        parse_expression("name LIKE 'a%' OR name IS NULL").unwrap();
        let e = parse_expression("x NOT BETWEEN 1 AND 2").unwrap();
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn case_and_cast() {
        let e =
            parse_expression("CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END")
                .unwrap();
        let Expr::Case { branches, .. } = e else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        parse_expression("CAST(x AS DOUBLE)").unwrap();
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_sql("SELECT 1; SELECT 2;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT * FROM ITERATE((SELECT 1))").is_err());
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("CASE END").is_err());
        assert!(parse_statement("SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn values_statement() {
        let s = parse_statement("VALUES (1, 'a'), (2, 'b')").unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert!(matches!(q.body, SetExpr::Values(ref rows) if rows.len() == 2));
    }

    #[test]
    fn nested_subquery_in_from() {
        let s = parse_statement("SELECT * FROM (SELECT a FROM t) sub WHERE sub.a > 0").unwrap();
        let Statement::Query(q) = s else { panic!() };
        let SetExpr::Select(sel) = q.body else {
            panic!()
        };
        assert!(matches!(&sel.from[0], TableRef::Subquery { alias: Some(a), .. } if a == "sub"));
    }

    #[test]
    fn backup_statement_forms() {
        assert_eq!(
            parse_statement("BACKUP TO '/tmp/b0'").unwrap(),
            Statement::Backup {
                dir: "/tmp/b0".into(),
                base: None,
                verify: false,
            }
        );
        assert_eq!(
            parse_statement("backup to '/tmp/b1' from '/tmp/b0' verify").unwrap(),
            Statement::Backup {
                dir: "/tmp/b1".into(),
                base: Some("/tmp/b0".into()),
                verify: true,
            }
        );
        assert!(parse_statement("BACKUP '/tmp/b0'").is_err());
        assert!(parse_statement("BACKUP TO").is_err());
        assert!(parse_statement("BACKUP TO '/x' FROM").is_err());
    }
}
