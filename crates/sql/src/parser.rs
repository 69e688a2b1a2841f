//! Recursive-descent parser for the supported SQL subset.

use yesquel_common::{Error, Result};

use crate::ast::*;
use crate::params::{ParamBuilder, ParamInfo};
use crate::token::{tokenize, Symbol, Token};
use crate::types::{ColumnType, Value};

/// Parses one SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    parse_with_params(sql).map(|(stmt, _)| stmt)
}

/// Parses one SQL statement together with its parameter table: the slot
/// each `?` / `?NNN` / `:name` placeholder resolved to (see
/// [`mod@crate::params`]).  This is the entry point prepared statements use;
/// [`parse`] is the convenience that discards the table.
pub fn parse_with_params(sql: &str) -> Result<(Statement, ParamInfo)> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: ParamBuilder::default(),
    };
    let stmt = p.parse_statement()?;
    p.eat_symbol(Symbol::Semicolon);
    if !p.at_end() {
        return Err(Error::Parse(format!(
            "unexpected trailing tokens near {:?}",
            p.peek()
        )));
    }
    Ok((stmt, p.params.finish()))
}

/// Parses a semicolon-separated script into its statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    sql.split(';')
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: ParamBuilder,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        let first = self
            .peek()
            .cloned()
            .ok_or_else(|| Error::Parse("empty statement".into()))?;
        match &first {
            t if t.is_kw("explain") => {
                self.bump();
                let analyze = self.eat_kw("analyze");
                let inner = self.parse_statement()?;
                if analyze {
                    Ok(Statement::ExplainAnalyze(Box::new(inner)))
                } else {
                    Ok(Statement::Explain(Box::new(inner)))
                }
            }
            t if t.is_kw("create") => self.parse_create(),
            t if t.is_kw("drop") => self.parse_drop(),
            t if t.is_kw("insert") => self.parse_insert(),
            t if t.is_kw("select") => Ok(Statement::Select(self.parse_select()?)),
            t if t.is_kw("update") => self.parse_update(),
            t if t.is_kw("delete") => self.parse_delete(),
            t if t.is_kw("begin") => {
                self.bump();
                self.eat_kw("transaction");
                Ok(Statement::Begin)
            }
            t if t.is_kw("commit") => {
                self.bump();
                Ok(Statement::Commit)
            }
            t if t.is_kw("rollback") => {
                self.bump();
                Ok(Statement::Rollback)
            }
            other => Err(Error::Parse(format!(
                "unsupported statement starting with {other:?}"
            ))),
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        let unique = self.eat_kw("unique");
        if self.eat_kw("table") {
            if unique {
                return Err(Error::Parse("UNIQUE TABLE is not valid".into()));
            }
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col_name = self.ident()?;
                // Type name: one or more identifiers (e.g. VARCHAR(30)).
                let mut type_name = String::new();
                while let Some(Token::Ident(t)) = self.peek() {
                    if is_column_constraint_kw(t) {
                        break;
                    }
                    type_name.push_str(t);
                    type_name.push(' ');
                    self.bump();
                    if self.eat_symbol(Symbol::LParen) {
                        // Swallow the length argument(s).
                        while !self.eat_symbol(Symbol::RParen) {
                            self.bump();
                        }
                    }
                }
                let mut def = ColumnDef {
                    name: col_name,
                    ctype: if type_name.is_empty() {
                        ColumnType::Text
                    } else {
                        ColumnType::from_name(type_name.trim())
                    },
                    primary_key: false,
                    not_null: false,
                    unique: false,
                };
                loop {
                    if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        def.primary_key = true;
                        self.eat_kw("autoincrement");
                    } else if self.eat_kw("not") {
                        self.expect_kw("null")?;
                        def.not_null = true;
                    } else if self.eat_kw("unique") {
                        def.unique = true;
                    } else {
                        break;
                    }
                }
                columns.push(def);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            Ok(Statement::CreateTable(CreateTable {
                name,
                columns,
                if_not_exists,
            }))
        } else if self.eat_kw("index") {
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_symbol(Symbol::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                columns,
                unique,
                if_not_exists,
            }))
        } else {
            Err(Error::Parse("expected TABLE or INDEX after CREATE".into()))
        }
    }

    fn parse_if_not_exists(&mut self) -> Result<bool> {
        if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        self.expect_kw("table")?;
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_symbol(Symbol::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(a)) = self.peek() {
            // A bare identifier that is not a clause keyword is an alias.
            if !is_clause_kw(a) {
                let a = a.clone();
                self.bump();
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    /// Parses the body of a SELECT (callable recursively if subqueries were
    /// supported; kept separate for clarity).
    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Symbol::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                // A clause keyword here means the select list is missing
                // ("SELECT FROM t"); without this check the keyword would be
                // misparsed as a column reference named e.g. "from".
                if let Some(Token::Ident(a)) = self.peek() {
                    if is_clause_kw(a) && !a.eq_ignore_ascii_case("not") {
                        return Err(Error::Parse(format!(
                            "expected select item, found keyword '{a}'"
                        )));
                    }
                }
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Some(Token::Ident(a)) = self.peek() {
                    if !is_clause_kw(a) {
                        let a = a.clone();
                        self.bump();
                        Some(a)
                    } else {
                        None
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }

        let from = if self.eat_kw("from") {
            let base = self.parse_table_ref()?;
            let mut joins = Vec::new();
            loop {
                if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                } else if !self.eat_kw("join") {
                    if self.eat_symbol(Symbol::Comma) {
                        // Comma join = cross join; the predicate goes in WHERE.
                        let table = self.parse_table_ref()?;
                        joins.push(Join { table, on: None });
                        continue;
                    }
                    break;
                }
                let table = self.parse_table_ref()?;
                let on = if self.eat_kw("on") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                joins.push(Join { table, on });
            }
            Some(FromClause { base, joins })
        } else {
            None
        };

        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("limit") {
            limit = Some(self.parse_u64()?);
            if self.eat_kw("offset") {
                offset = Some(self.parse_u64()?);
            }
        }

        Ok(Select {
            items,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
            offset,
            distinct,
        })
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match self.bump() {
            Some(Token::Int(i)) if i >= 0 => Ok(i as u64),
            other => Err(Error::Parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            let expr = self.parse_expr()?;
            assignments.push((col, expr));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    // ----- expressions (precedence climbing) -----

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = if matches!(self.peek(), Some(t) if t.is_kw("not")) {
            // Only treat NOT as a prefix of IN/BETWEEN/LIKE here.
            let next = self.tokens.get(self.pos + 1);
            if matches!(next, Some(t) if t.is_kw("in") || t.is_kw("between") || t.is_kw("like")) {
                self.bump();
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("between") {
            let low = self.parse_additive()?;
            self.expect_kw("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("like") {
            let right = self.parse_additive()?;
            let like = Expr::Binary {
                op: BinOp::Like,
                left: Box::new(left),
                right: Box::new(right),
            };
            return Ok(if negated {
                Expr::Not(Box::new(like))
            } else {
                like
            });
        }

        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Symbol::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Symbol::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Symbol::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Symbol::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Symbol::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Plus)) => BinOp::Add,
                Some(Token::Symbol(Symbol::Minus)) => BinOp::Sub,
                Some(Token::Symbol(Symbol::Concat)) => BinOp::Concat,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Star)) => BinOp::Mul,
                Some(Token::Symbol(Symbol::Slash)) => BinOp::Div,
                Some(Token::Symbol(Symbol::Percent)) => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Real(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Symbol(Symbol::Question)) => Ok(Expr::Param(self.params.anon()?)),
            Some(Token::NumberedParam(n)) => Ok(Expr::Param(self.params.numbered(n)?)),
            Some(Token::NamedParam(name)) => Ok(Expr::Param(self.params.named(&name)?)),
            Some(Token::Symbol(Symbol::LParen)) => {
                let e = self.parse_expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) | Some(Token::QuotedIdent(name)) => {
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Value::Int(1)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Value::Int(0)));
                }
                // Function call?
                if self.eat_symbol(Symbol::LParen) {
                    let fname = name.to_ascii_uppercase();
                    if self.eat_symbol(Symbol::Star) {
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(Expr::Function {
                            name: fname,
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat_symbol(Symbol::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_symbol(Symbol::Comma) {
                                break;
                            }
                        }
                        self.expect_symbol(Symbol::RParen)?;
                    }
                    return Ok(Expr::Function {
                        name: fname,
                        args,
                        star: false,
                    });
                }
                // Qualified column?
                if self.eat_symbol(Symbol::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(Error::Parse(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }
}

fn is_column_constraint_kw(s: &str) -> bool {
    [
        "primary",
        "not",
        "null",
        "unique",
        "references",
        "default",
        "check",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

fn is_clause_kw(s: &str) -> bool {
    [
        "from", "where", "group", "order", "limit", "offset", "join", "inner", "on", "as", "set",
        "values", "and", "or", "not", "having", "desc", "asc", "union",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse(
            "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INT, bio VARCHAR(100))",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.name, "users");
                assert_eq!(ct.columns.len(), 4);
                assert!(ct.columns[0].primary_key);
                assert_eq!(ct.columns[0].ctype, ColumnType::Integer);
                assert!(ct.columns[1].not_null);
                assert_eq!(ct.columns[3].ctype, ColumnType::Text);
                assert!(!ct.if_not_exists);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn create_index_unique_and_if_not_exists() {
        match parse("CREATE UNIQUE INDEX IF NOT EXISTS idx_name ON users (name, age)").unwrap() {
            Statement::CreateIndex(ci) => {
                assert!(ci.unique);
                assert!(ci.if_not_exists);
                assert_eq!(ci.columns, vec!["name".to_string(), "age".to_string()]);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        match parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Statement::Insert(ins) => {
                assert_eq!(ins.columns, vec!["a".to_string(), "b".to_string()]);
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.rows[1][0], Expr::int(2));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn select_with_everything() {
        let sql = "SELECT u.name AS n, COUNT(*) FROM users u JOIN orders o ON u.id = o.user_id \
                   WHERE u.age >= 18 AND o.total > 10.5 GROUP BY u.name \
                   ORDER BY n DESC LIMIT 10 OFFSET 5";
        match parse(sql).unwrap() {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                let from = sel.from.unwrap();
                assert_eq!(from.base.name, "users");
                assert_eq!(from.base.alias.as_deref(), Some("u"));
                assert_eq!(from.joins.len(), 1);
                assert!(from.joins[0].on.is_some());
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.limit, Some(10));
                assert_eq!(sel.offset, Some(5));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn select_expression_only() {
        match parse("SELECT 1 + 2 * 3").unwrap() {
            Statement::Select(sel) => {
                assert!(sel.from.is_none());
                assert_eq!(sel.items.len(), 1);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        match parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 7").unwrap() {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.where_clause.is_some());
            }
            other => panic!("wrong statement {other:?}"),
        }
        match parse("DELETE FROM t WHERE id IN (1, 2, 3)").unwrap() {
            Statement::Delete(d) => assert!(d.where_clause.is_some()),
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn predicates() {
        let sql = "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL \
                   AND c LIKE 'ab%' AND d NOT IN (1, 2) OR NOT e = 1";
        assert!(parse(sql).is_ok());
    }

    #[test]
    fn params_are_numbered() {
        match parse("SELECT * FROM t WHERE a = ? AND b = ?").unwrap() {
            Statement::Select(sel) => {
                let w = format!("{:?}", sel.where_clause.unwrap());
                assert!(w.contains("Param(0)"));
                assert!(w.contains("Param(1)"));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn named_and_numbered_params_resolve_to_slots() {
        // Numbered placeholders bind out of order.
        let (stmt, info) = parse_with_params("SELECT * FROM t WHERE a = ?2 AND b = ?1").unwrap();
        assert_eq!(info.len(), 2);
        let w = format!("{stmt:?}");
        assert!(w.contains("Param(1)") && w.contains("Param(0)"), "{w}");

        // A repeated :name shares one slot.
        let (stmt, info) =
            parse_with_params("SELECT * FROM t WHERE a = :x AND b = :y AND c = :x").unwrap();
        assert_eq!(info.len(), 2);
        assert_eq!(info.name_of(0), Some("x"));
        assert_eq!(info.name_of(1), Some("y"));
        let w = format!("{stmt:?}");
        assert_eq!(w.matches("Param(0)").count(), 2, "{w}");

        // EXPLAIN shares the inner statement's parameter table.
        let (_, info) = parse_with_params("EXPLAIN SELECT * FROM t WHERE a = :x").unwrap();
        assert_eq!(info.len(), 1);
    }

    #[test]
    fn mixing_placeholder_kinds_is_a_bind_error() {
        for sql in [
            "SELECT * FROM t WHERE a = ? AND b = :x",
            "SELECT * FROM t WHERE a = :x AND b = ?",
            "SELECT * FROM t WHERE a = :x AND b = ?2",
        ] {
            let err = parse(sql).unwrap_err();
            assert!(
                matches!(err, yesquel_common::Error::Bind(_)),
                "{sql}: {err}"
            );
        }
        // Anonymous and numbered positional placeholders may mix.
        let (_, info) = parse_with_params("SELECT * FROM t WHERE a = ?2 AND b = ?").unwrap();
        assert_eq!(info.len(), 3);
    }

    #[test]
    fn transactions() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK;").unwrap(), Statement::Rollback);
    }

    #[test]
    fn drop_table() {
        assert_eq!(
            parse("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                name: "t".into(),
                if_exists: true
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELEC 1").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("CREATE VIEW v AS SELECT 1").is_err());
        assert!(parse("SELECT 1 extra garbage (").is_err());
    }

    #[test]
    fn parse_script_splits_statements() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match parse("SELECT 1 + 2 * 3").unwrap() {
            Statement::Select(sel) => match &sel.items[0] {
                SelectItem::Expr {
                    expr:
                        Expr::Binary {
                            op: BinOp::Add,
                            right,
                            ..
                        },
                    ..
                } => {
                    assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("wrong parse {other:?}"),
            },
            other => panic!("wrong statement {other:?}"),
        }
    }
}
