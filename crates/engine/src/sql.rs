//! A SQL front end for the engine — the role Hive's parser and semantic
//! analyzer play in Figure 4 of the paper ("Query → AST Tree → Operator
//! Tree").
//!
//! Supports the query class the evaluation uses: select-project-join-
//! aggregate blocks with conjunctive range/equality predicates:
//!
//! ```sql
//! SELECT i.category, SUM(ss.net_paid) AS revenue
//! FROM store_sales ss JOIN item i ON ss.item_sk = i.item_sk
//! WHERE ss.item_sk BETWEEN 100 AND 500 AND i.color = 'red'
//! GROUP BY i.category
//! ```
//!
//! The parser is a hand-written recursive-descent over a simple tokenizer;
//! it produces a [`LogicalPlan`] directly (joins left-deep in FROM order,
//! WHERE applied above the joins — deliberately *not* pushed down, which is
//! DeepSea's materialization-friendly plan shape; the [`crate::optimize`]
//! pass can push selections down for the vanilla-Hive baseline).

use std::fmt;

use deepsea_relation::{Predicate, Value};

use crate::plan::{AggExpr, AggFunc, LogicalPlan};

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(char), // ( ) , . * =
    Le,           // <=
    Ge,           // >=
    Lt,
    Gt,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn next_token(&mut self) -> Result<(Token, usize), ParseError> {
        while let Some(c) = self.rest().chars().next().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
        let start = self.pos;
        let Some(c) = self.rest().chars().next() else {
            return Ok((Token::Eof, start));
        };
        match c {
            '(' | ')' | ',' | '.' | '*' | '=' => {
                self.pos += 1;
                Ok((Token::Symbol(c), start))
            }
            '<' => {
                self.pos += 1;
                if self.rest().starts_with('=') {
                    self.pos += 1;
                    Ok((Token::Le, start))
                } else {
                    Ok((Token::Lt, start))
                }
            }
            '>' => {
                self.pos += 1;
                if self.rest().starts_with('=') {
                    self.pos += 1;
                    Ok((Token::Ge, start))
                } else {
                    Ok((Token::Gt, start))
                }
            }
            '\'' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.rest().chars().next() {
                        Some('\'') => {
                            self.pos += 1;
                            break;
                        }
                        Some(ch) => {
                            s.push(ch);
                            self.pos += ch.len_utf8();
                        }
                        None => return Err(self.error("unterminated string literal")),
                    }
                }
                Ok((Token::Str(s), start))
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut end = self.pos + 1;
                let bytes = self.src.as_bytes();
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit() || bytes[end] == b'.' || bytes[end] == b'_')
                {
                    end += 1;
                }
                let text = self.src[self.pos..end].replace('_', "");
                self.pos = end;
                if text.contains('.') {
                    text.parse::<f64>()
                        .map(|f| (Token::Float(f), start))
                        .map_err(|_| self.error(format!("bad float literal {text:?}")))
                } else {
                    text.parse::<i64>()
                        .map(|i| (Token::Int(i), start))
                        .map_err(|_| self.error(format!("bad integer literal {text:?}")))
                }
            }
            // Identifiers are ASCII; any other letter is an unexpected character.
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = self.pos;
                let bytes = self.src.as_bytes();
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let word = self.src[self.pos..end].to_string();
                self.pos = end;
                Ok((Token::Ident(word), start))
            }
            other => Err(self.error(format!("unexpected character {other:?}"))),
        }
    }
}

/// Parser state: a token stream with one-token lookahead.
struct Parser {
    tokens: Vec<(Token, usize)>,
    idx: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lex = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let t = lex.next_token()?;
            let eof = t.0 == Token::Eof;
            tokens.push(t);
            if eof {
                break;
            }
        }
        Ok(Self { tokens, idx: 0 })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.idx].0
    }

    fn pos(&self) -> usize {
        self.tokens[self.idx].1
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos(),
        }
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.idx].0.clone();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        t
    }

    /// Consume a keyword (case-insensitive identifier) or fail.
    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Token::Ident(w) if w.eq_ignore_ascii_case(kw) => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(w) if w.eq_ignore_ascii_case(kw))
            && self.bump() != Token::Eof
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseError> {
        match self.peek() {
            Token::Symbol(s) if *s == c => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected {c:?}, found {other:?}"))),
        }
    }

    /// `ident(.ident)?` → possibly-qualified column name, resolving table
    /// aliases registered in FROM.
    fn column(&mut self, aliases: &[(String, String)]) -> Result<String, ParseError> {
        const RESERVED: [&str; 11] = [
            "select", "from", "where", "group", "by", "join", "on", "and", "between", "order", "as",
        ];
        if let Token::Ident(w) = self.peek() {
            if RESERVED.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                return Err(self.error(format!("expected identifier, found keyword {w:?}")));
            }
        }
        let first = match self.bump() {
            Token::Ident(w) => w,
            other => return Err(self.error(format!("expected identifier, found {other:?}"))),
        };
        if *self.peek() == Token::Symbol('.') {
            self.bump();
            let second = match self.bump() {
                Token::Ident(w) => w,
                other => return Err(self.error(format!("expected column name, found {other:?}"))),
            };
            // Resolve an alias (ss.item_sk → store_sales.ss_item_sk happens
            // at schema level; here we just expand alias → table name).
            let table = aliases
                .iter()
                .find(|(a, _)| a.eq_ignore_ascii_case(&first))
                .map(|(_, t)| t.clone())
                .unwrap_or(first);
            Ok(format!("{table}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::str(s)),
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Token::Int(i) => Ok(i),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }
}

/// One SELECT-list item.
enum SelectItem {
    Column(String),
    Agg(AggExpr),
    Star,
}

/// Parse one SQL query into a [`LogicalPlan`].
pub fn parse(sql: &str) -> Result<LogicalPlan, ParseError> {
    let mut p = Parser::new(sql)?;
    p.expect_kw("select")?;

    // ── SELECT list (deferred until aliases are known; store raw idx) ──
    let select_start = p.idx;
    skip_until_kw(&mut p, "from")?;

    // ── FROM with JOIN ... ON chains ──
    p.expect_kw("from")?;
    let mut aliases: Vec<(String, String)> = Vec::new();
    let (first_table, first_alias) = table_ref(&mut p)?;
    aliases.push((first_alias, first_table.clone()));
    let mut joins: Vec<(String, String, String)> = Vec::new(); // (table, lcol raw, rcol raw) — resolved later
    let mut join_tables = Vec::new();
    while p.eat_kw("join") {
        let (t, a) = table_ref(&mut p)?;
        aliases.push((a, t.clone()));
        p.expect_kw("on")?;
        // Columns may reference aliases declared later? No — left-deep only.
        let l = p.column(&aliases)?;
        p.expect_symbol('=')?;
        let r = p.column(&aliases)?;
        join_tables.push(t.clone());
        joins.push((t, l, r));
    }

    // ── WHERE ──
    let mut predicates: Vec<Predicate> = Vec::new();
    if p.eat_kw("where") {
        loop {
            predicates.push(parse_condition(&mut p, &aliases)?);
            if !p.eat_kw("and") {
                break;
            }
        }
    }

    // ── GROUP BY ──
    let mut group_by: Vec<String> = Vec::new();
    if p.eat_kw("group") {
        p.expect_kw("by")?;
        loop {
            group_by.push(p.column(&aliases)?);
            if *p.peek() == Token::Symbol(',') {
                p.bump();
            } else {
                break;
            }
        }
    }
    match p.peek() {
        Token::Eof => {}
        other => return Err(p.error(format!("trailing input: {other:?}"))),
    }

    // ── now parse the SELECT list with aliases known ──
    let end_idx = p.idx;
    p.idx = select_start;
    let items = select_list(&mut p, &aliases)?;
    p.idx = end_idx;

    // ── assemble the plan: left-deep joins, σ above, γ/π on top ──
    let mut plan = LogicalPlan::scan(first_table);
    for (t, l, r) in joins {
        plan = plan.join(LogicalPlan::scan(t), vec![(l, r)]);
    }
    plan = plan.select(Predicate::and(predicates));

    let aggs: Vec<AggExpr> = items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Agg(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    let cols: Vec<String> = items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Column(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let has_star = items.iter().any(|i| matches!(i, SelectItem::Star));

    if !aggs.is_empty() || !group_by.is_empty() {
        // Aggregation query: non-aggregate select items must be grouping cols.
        for c in &cols {
            if !group_by.iter().any(|g| g == c) {
                return Err(ParseError {
                    message: format!("column {c:?} must appear in GROUP BY"),
                    position: 0,
                });
            }
        }
        Ok(plan.aggregate(group_by, aggs))
    } else if has_star {
        Ok(plan)
    } else {
        Ok(plan.project(cols))
    }
}

fn table_ref(p: &mut Parser) -> Result<(String, String), ParseError> {
    let table = match p.bump() {
        Token::Ident(w) => w,
        other => return Err(p.error(format!("expected table name, found {other:?}"))),
    };
    // Optional alias (bare identifier that is not a clause keyword).
    let alias = match p.peek() {
        Token::Ident(w)
            if !["join", "on", "where", "group", "order"]
                .iter()
                .any(|k| w.eq_ignore_ascii_case(k)) =>
        {
            let a = w.clone();
            p.bump();
            a
        }
        _ => table.clone(),
    };
    Ok((table, alias))
}

fn skip_until_kw(p: &mut Parser, kw: &str) -> Result<(), ParseError> {
    loop {
        match p.peek() {
            Token::Ident(w) if w.eq_ignore_ascii_case(kw) => return Ok(()),
            Token::Eof => return Err(p.error(format!("expected {kw} clause"))),
            _ => {
                p.bump();
            }
        }
    }
}

fn select_list(
    p: &mut Parser,
    aliases: &[(String, String)],
) -> Result<Vec<SelectItem>, ParseError> {
    let mut items = Vec::new();
    loop {
        let item = match p.peek().clone() {
            Token::Symbol('*') => {
                p.bump();
                SelectItem::Star
            }
            Token::Ident(w)
                if let Some(func) =
                    agg_fn(&w).filter(|_| p.tokens[p.idx + 1].0 == Token::Symbol('(')) =>
            {
                p.bump(); // fn name
                p.bump(); // (
                let col = if *p.peek() == Token::Symbol('*') {
                    p.bump();
                    None
                } else {
                    Some(p.column(aliases)?)
                };
                p.expect_symbol(')')?;
                let alias = if p.eat_kw("as") {
                    match p.bump() {
                        Token::Ident(a) => a,
                        other => return Err(p.error(format!("expected alias, found {other:?}"))),
                    }
                } else {
                    match &col {
                        Some(c) => format!("{}_{}", w.to_lowercase(), c.replace('.', "_")),
                        None => "count".to_string(),
                    }
                };
                match (func, col) {
                    (AggFunc::Count, None) => SelectItem::Agg(AggExpr::count(alias)),
                    (f, Some(c)) => SelectItem::Agg(AggExpr::of(f, c, alias)),
                    (f, None) => return Err(p.error(format!("{f} requires a column argument"))),
                }
            }
            _ => SelectItem::Column(p.column(aliases)?),
        };
        items.push(item);
        if *p.peek() == Token::Symbol(',') {
            p.bump();
        } else {
            return Ok(items);
        }
    }
}

fn agg_fn(w: &str) -> Option<AggFunc> {
    match w.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "avg" => Some(AggFunc::Avg),
        _ => None,
    }
}

/// `col BETWEEN a AND b` | `col <=/<"/>/>= n` | `col = literal`.
fn parse_condition(p: &mut Parser, aliases: &[(String, String)]) -> Result<Predicate, ParseError> {
    let col = p.column(aliases)?;
    if p.eat_kw("between") {
        let lo = p.int()?;
        p.expect_kw("and")?;
        let hi = p.int()?;
        if lo > hi {
            return Err(p.error(format!("empty BETWEEN range [{lo}, {hi}]")));
        }
        return Ok(Predicate::range(col, lo, hi));
    }
    match p.bump() {
        Token::Symbol('=') => Ok(Predicate::eq(col, p.value()?)),
        Token::Le => Ok(Predicate::range(col, i64::MIN, p.int()?)),
        Token::Lt => {
            let n = p.int()?;
            let hi = n
                .checked_sub(1)
                .ok_or_else(|| p.error(format!("empty range < {n}")))?;
            Ok(Predicate::range(col, i64::MIN, hi))
        }
        Token::Ge => Ok(Predicate::range(col, p.int()?, i64::MAX)),
        Token::Gt => {
            let n = p.int()?;
            let lo = n
                .checked_add(1)
                .ok_or_else(|| p.error(format!("empty range > {n}")))?;
            Ok(Predicate::range(col, lo, i64::MAX))
        }
        other => Err(p.error(format!("expected comparison operator, found {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_style_query() {
        let plan = parse(
            "SELECT item.i_category, SUM(store_sales.ss_net_paid) AS revenue \
             FROM store_sales JOIN item ON store_sales.ss_item_sk = item.i_item_sk \
             WHERE store_sales.ss_item_sk BETWEEN 100 AND 500 \
             GROUP BY item.i_category",
        )
        .expect("parses");
        let LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } = &plan
        else {
            panic!("expected aggregate root, got {plan:?}")
        };
        assert_eq!(group_by, &["item.i_category"]);
        assert_eq!(aggs[0].canonical(), "sum(store_sales.ss_net_paid)");
        assert_eq!(aggs[0].alias, "revenue");
        let LogicalPlan::Select { pred, .. } = &**input else {
            panic!("expected selection below aggregate")
        };
        assert_eq!(pred.range_on("store_sales.ss_item_sk"), Some((100, 500)));
        assert_eq!(plan.base_tables(), vec!["item", "store_sales"]);
    }

    #[test]
    fn aliases_resolve_to_table_names() {
        let plan = parse(
            "SELECT i.i_category, COUNT(*) AS cnt \
             FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk \
             WHERE ss.ss_item_sk BETWEEN 1 AND 2 GROUP BY i.i_category",
        )
        .unwrap();
        let sig = crate::signature::Signature::of(&plan).unwrap();
        assert!(sig.relations.contains_key("store_sales"));
        assert_eq!(sig.range_on_attr("store_sales.ss_item_sk"), Some((1, 2)));
    }

    #[test]
    fn select_star_is_identity_projection() {
        let plan = parse("SELECT * FROM item WHERE item.i_item_sk <= 10").unwrap();
        assert!(matches!(plan, LogicalPlan::Select { .. }));
    }

    #[test]
    fn projection_without_aggregates() {
        let plan = parse("SELECT item.i_category, item.i_price FROM item").unwrap();
        let LogicalPlan::Project { cols, .. } = &plan else {
            panic!("expected projection")
        };
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn three_way_join_left_deep() {
        let plan = parse(
            "SELECT COUNT(*) FROM store_sales ss \
             JOIN item i ON ss.ss_item_sk = i.i_item_sk \
             JOIN customer c ON ss.ss_customer_sk = c.c_customer_sk",
        )
        .unwrap();
        assert_eq!(plan.base_tables(), vec!["customer", "item", "store_sales"]);
        assert_eq!(plan.node_count(), 6); // 3 scans + 2 joins + 1 aggregate
    }

    #[test]
    fn comparison_operators_desugar_to_ranges() {
        let p1 = parse("SELECT * FROM t WHERE t.a >= 5").unwrap();
        let LogicalPlan::Select { pred, .. } = &p1 else {
            panic!()
        };
        assert_eq!(pred.range_on("t.a"), Some((5, i64::MAX)));
        let p2 = parse("SELECT * FROM t WHERE t.a < 5").unwrap();
        let LogicalPlan::Select { pred, .. } = &p2 else {
            panic!()
        };
        assert_eq!(pred.range_on("t.a"), Some((i64::MIN, 4)));
    }

    #[test]
    fn string_equality_predicate() {
        let p = parse("SELECT * FROM item WHERE item.i_category = 'cat7'").unwrap();
        let LogicalPlan::Select { pred, .. } = &p else {
            panic!()
        };
        assert_eq!(
            pred.conjuncts()[0],
            &Predicate::eq("item.i_category", "cat7")
        );
    }

    #[test]
    fn multiple_where_conjuncts() {
        let p =
            parse("SELECT * FROM t WHERE t.a BETWEEN 1 AND 9 AND t.b = 3 AND t.c >= 0").unwrap();
        let LogicalPlan::Select { pred, .. } = &p else {
            panic!()
        };
        assert_eq!(pred.conjuncts().len(), 3);
    }

    #[test]
    fn errors_report_position_and_reason() {
        let err = parse("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("identifier") || err.to_string().contains("expected"));
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE t.a BETWEEN 9 AND 1").is_err());
        assert!(parse("SELECT * FROM t WHERE t.a ~ 3").is_err());
        assert!(parse("SELECT * FROM t extra garbage").is_err());
        assert!(parse("SELECT * FROM t WHERE t.s = 'unterminated").is_err());
    }

    #[test]
    fn strict_bounds_past_the_integer_range_are_empty_ranges() {
        for sql in [
            "SELECT * FROM t WHERE t.a < -9223372036854775808",
            "SELECT * FROM t WHERE t.a > 9223372036854775807",
        ] {
            let err = parse(sql).unwrap_err();
            assert!(err.message.contains("empty range"), "{sql}: {err}");
        }
        let p = parse("SELECT * FROM t WHERE t.a > 9223372036854775806").unwrap();
        let LogicalPlan::Select { pred, .. } = &p else {
            panic!()
        };
        assert_eq!(pred, &Predicate::range("t.a", i64::MAX, i64::MAX));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err =
            parse("SELECT item.i_category, COUNT(*) FROM item GROUP BY item.i_price").unwrap_err();
        assert!(err.message.contains("GROUP BY"));
    }

    #[test]
    fn agg_aliases_default_sensibly() {
        let plan = parse("SELECT COUNT(*), AVG(t.x) FROM t").unwrap();
        let LogicalPlan::Aggregate { aggs, .. } = &plan else {
            panic!()
        };
        assert_eq!(aggs[0].alias, "count");
        assert_eq!(aggs[1].alias, "avg_t_x");
    }

    #[test]
    fn non_ascii_input_is_skipped_or_rejected() {
        // Whitespace is skipped a whole character at a time.
        assert!(parse("SELECT\u{A0}* FROM item").is_ok());
        // A letter outside ASCII starts no identifier: an error, not a loop.
        let err = parse("SELECT é FROM item").unwrap_err();
        assert!(err.message.contains("unexpected character"), "{err}");
        assert_eq!(err.position, 7);
    }

    #[test]
    fn case_insensitive_keywords() {
        assert!(parse("select * from t where t.a between 1 and 2").is_ok());
        assert!(parse("SeLeCt * FrOm t").is_ok());
    }
}
