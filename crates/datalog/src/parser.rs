//! Textual Datalog parser.
//!
//! The engine is primarily driven through the embedded builder DSL, but a
//! small concrete syntax makes examples, tests and ad-hoc experimentation
//! much more pleasant.  The grammar is deliberately close to the paper's
//! notation:
//!
//! ```text
//! // transitive closure
//! Path(x, y) :- Edge(x, y).
//! Path(x, y) :- Edge(x, z), Path(z, y).
//! Edge(1, 2).
//! Edge(2, 3).
//! InvFuns("deserialize", "serialize").
//! Prime(x) :- Num(x), !Composite(x).
//! ```
//!
//! * clauses end with `.`,
//! * a clause without `:-` whose terms are all constants is a fact,
//! * numbers are integer constants (at most `2^31 - 1`), double-quoted
//!   strings are string constants (no escapes), bare identifiers in term
//!   position are variables,
//! * identifiers start with a letter or `_` and continue with letters,
//!   digits or `_` (Unicode letters and digits included),
//! * `!` negates a body literal,
//! * body positions may hold comparison constraints between terms:
//!   `Near(y) :- Dist(y, d), d < 10.` (operators `<`, `<=`, `>`, `>=`,
//!   `=`, `!=`),
//! * head positions may hold aggregate terms `count v`, `sum v`, `min v`,
//!   `max v`: `Deg(x, count y) :- Edge(x, y).` groups by the plain head
//!   columns and aggregates the marked ones.  Non-recursive aggregates are
//!   stratified like negation; an aggregate whose rules recurse through the
//!   aggregated head (`Dist(y, min d2) :- Dist(x, d1), ...`) runs as a
//!   monotone lattice fold inside the recursion,
//! * `%`, `#` and `//` start line comments; whitespace is any Unicode
//!   whitespace,
//! * relations are declared implicitly by use; arities must be consistent.
//!
//! **How text becomes a [`Program`].**  A byte-level lexer walks the source
//! once and hands out tokens that borrow from it; only non-ASCII bytes fall
//! back to `char` classification.  The parser pulls one token at a time and
//! resolves as it reads: a relation name becomes its declaration index the
//! first time it is seen (per clause, the head and then the body atoms), a
//! variable its dense per-rule [`VarId`](crate::ast::VarId), a rule's string
//! constant its interned symbol.  Facts' string constants are interned after
//! every rule's, so symbols keep the builder's order: rule constants in rule
//! order, then facts.  The finished pieces go to
//! [`ProgramBuilder`]'s crate-private
//! entry point, which rewrites aggregate rules, validates and stratifies.
//! Line and column are computed only where they are reported — a rule's
//! provenance and a parse error — as 1-based char positions; every parse
//! error cites the first character of the token it could not use.

use carac_storage::hasher::FxHashMap;
use carac_storage::{AggFunc, CmpOp, RelId, SymbolTable, Tuple, Value};

use crate::ast::{Atom, Constraint, Literal, RelationDecl, Rule, RuleId, RuleOrigin, Term};
use crate::builder::{var_id, AggSignature, ProgramBuilder, Resolved};
use crate::error::DatalogError;
use crate::program::Program;

/// Parses a Datalog program from text.
pub fn parse(source: &str) -> Result<Program, DatalogError> {
    let mut parser = Parser::new(source)?;
    while parser.tok.is_some() {
        parser.clause()?;
    }
    parser.finish()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Int(u32),
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Turnstile, // :-
    Cmp(CmpOp),
}

/// The 1-based line and char column of byte `offset` in `src`.
fn position(src: &str, offset: usize) -> (usize, usize) {
    let before = &src[..offset];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
    (line, 1 + before[line_start..].chars().count())
}

fn error_at(src: &str, offset: usize, message: impl Into<String>) -> DatalogError {
    let (line, column) = position(src, offset);
    DatalogError::Parse {
        line,
        column,
        message: message.into(),
    }
}

/// The char starting at byte `offset` (which must be a char boundary).
fn char_at(src: &str, offset: usize) -> char {
    src[offset..].chars().next().unwrap_or('\0')
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Skips whitespace and comments.
    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C => self.pos += 1,
                b'%' | b'#' => self.skip_line(),
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => self.skip_line(),
                0x80.. => {
                    let c = char_at(self.src, self.pos);
                    if !c.is_whitespace() {
                        return;
                    }
                    self.pos += c.len_utf8();
                }
                _ => return,
            }
        }
    }

    /// Moves to the end of the line (the newline stays).
    fn skip_line(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    }

    /// The next token and the byte offset it starts at, `None` at the end.
    fn next_token(&mut self) -> Result<Option<(Token<'a>, usize)>, DatalogError> {
        self.skip_trivia();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let Some(&b) = bytes.get(start) else {
            return Ok(None);
        };
        let next_is = |c: u8| bytes.get(start + 1) == Some(&c);
        let (token, len) = match b {
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'.' => (Token::Dot, 1),
            b'!' if next_is(b'=') => (Token::Cmp(CmpOp::Ne), 2),
            b'!' => (Token::Bang, 1),
            b'<' if next_is(b'=') => (Token::Cmp(CmpOp::Le), 2),
            b'<' => (Token::Cmp(CmpOp::Lt), 1),
            b'>' if next_is(b'=') => (Token::Cmp(CmpOp::Ge), 2),
            b'>' => (Token::Cmp(CmpOp::Gt), 1),
            b'=' => (Token::Cmp(CmpOp::Eq), 1),
            b':' if next_is(b'-') => (Token::Turnstile, 2),
            b':' => return Err(error_at(self.src, start, "expected `-` after `:`")),
            b'"' => match bytes[start + 1..].iter().position(|&c| c == b'"') {
                Some(len) => (Token::Str(&self.src[start + 1..start + 1 + len]), len + 2),
                None => return Err(error_at(self.src, start, "unterminated string literal")),
            },
            b'0'..=b'9' => {
                // Plain integers share the 32-bit value space with interned
                // symbols, so literals must stay below `Value::SYMBOL_BASE`
                // (2^31); larger literals would corrupt into symbol ids.
                let digits = bytes[start..].iter().take_while(|c| c.is_ascii_digit());
                let mut n: u64 = 0;
                let mut len = 0;
                for &d in digits {
                    n = n * 10 + u64::from(d - b'0');
                    if n >= u64::from(Value::SYMBOL_BASE) {
                        return Err(error_at(
                            self.src,
                            start,
                            format!(
                                "integer literal out of range (max {})",
                                Value::SYMBOL_BASE - 1
                            ),
                        ));
                    }
                    len += 1;
                }
                (Token::Int(n as u32), len)
            }
            _ => {
                let c = char_at(self.src, start);
                if !is_ident_start(c) {
                    return Err(error_at(
                        self.src,
                        start,
                        format!("unexpected character `{c}`"),
                    ));
                }
                let mut end = start + c.len_utf8();
                while let Some(&b) = bytes.get(end) {
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        end += 1;
                    } else if b >= 0x80 && is_ident_continue(char_at(self.src, end)) {
                        end += char_at(self.src, end).len_utf8();
                    } else {
                        break;
                    }
                }
                (Token::Ident(&self.src[start..end]), end - start)
            }
        };
        self.pos = start + len;
        Ok(Some((token, start)))
    }
}

/// A term as read, before the clause is known to be a rule or a fact.
#[derive(Clone, Copy)]
enum Spec<'a> {
    Var(&'a str),
    Int(u32),
    Str(&'a str),
    Agg(AggFunc, &'a str),
}

/// Tracks the line of a forward-moving byte offset, so rule positions cost
/// one pass over the source in total.
#[derive(Default)]
struct Lines {
    offset: usize,
    line: usize,
    line_start: usize,
}

impl Lines {
    /// The 1-based line and char column of `offset`, which must not lie
    /// before the previous call's.
    fn locate(&mut self, src: &str, offset: usize) -> (usize, usize) {
        let skipped = &src.as_bytes()[self.offset..offset];
        for (i, &b) in skipped.iter().enumerate() {
            if b == b'\n' {
                self.line += 1;
                self.line_start = self.offset + i + 1;
            }
        }
        self.offset = offset;
        let line_text = &src[self.line_start..offset];
        let column = if line_text.is_ascii() {
            line_text.len()
        } else {
            line_text.chars().count()
        };
        (self.line + 1, column + 1)
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token and the byte offset it starts at.
    tok: Option<Token<'a>>,
    start: usize,
    /// Start of the last token consumed (cited by end-of-input errors).
    prev: usize,
    lines: Lines,
    names: FxHashMap<&'a str, RelId>,
    /// The relation resolved last: facts come in runs of one relation.
    last: (&'a str, RelId),
    decls: Vec<RelationDecl>,
    rules: Vec<Rule>,
    agg_rules: Vec<(usize, AggSignature)>,
    facts: Vec<(RelId, Tuple)>,
    /// `(fact index, column, text)` of facts' string constants, interned
    /// once every rule has been read.
    fact_strings: Vec<(usize, usize, &'a str)>,
    symbols: SymbolTable,
    // Scratch buffers reused across clauses.
    specs: Vec<Spec<'a>>,
    vars: Vec<&'a str>,
    body: Vec<Literal>,
    constraints: Vec<(Spec<'a>, CmpOp, Spec<'a>)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, DatalogError> {
        // Every clause ends with a dot: an upper bound to size the lists by
        // (trimmed when the parse is done).
        let clauses = src.bytes().filter(|&b| b == b'.').count();
        let mut parser = Parser {
            lexer: Lexer { src, pos: 0 },
            tok: None,
            start: 0,
            prev: 0,
            lines: Lines::default(),
            names: FxHashMap::with_capacity_and_hasher(16, Default::default()),
            last: ("", RelId(0)),
            decls: Vec::new(),
            rules: Vec::with_capacity(clauses),
            agg_rules: Vec::new(),
            facts: Vec::with_capacity(clauses),
            fact_strings: Vec::new(),
            symbols: SymbolTable::new(),
            specs: Vec::new(),
            vars: Vec::new(),
            body: Vec::new(),
            constraints: Vec::new(),
        };
        parser.advance()?;
        Ok(parser)
    }

    /// Moves to the next token.
    fn advance(&mut self) -> Result<(), DatalogError> {
        self.prev = self.start;
        match self.lexer.next_token()? {
            Some((tok, start)) => {
                self.tok = Some(tok);
                self.start = start;
            }
            None => self.tok = None,
        }
        Ok(())
    }

    /// Consumes and returns the current token.
    fn bump(&mut self) -> Result<Option<Token<'a>>, DatalogError> {
        let tok = self.tok;
        self.advance()?;
        Ok(tok)
    }

    /// An error citing the token just consumed (or, past the end, the last
    /// token of the source).
    fn error(&self, message: String) -> DatalogError {
        error_at(self.lexer.src, self.prev, message)
    }

    fn expect(&mut self, expected: Token<'a>, what: &str) -> Result<(), DatalogError> {
        match self.bump()? {
            Some(t) if t == expected => Ok(()),
            Some(t) => Err(self.error(format!("expected {what}, found {t:?}"))),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    fn relation_name(&mut self) -> Result<&'a str, DatalogError> {
        match self.bump()? {
            Some(Token::Ident(name)) => Ok(name),
            other => Err(self.error(format!("expected relation name, found {other:?}"))),
        }
    }

    /// The relation `name`, declared with `arity` on first use.
    fn relation(&mut self, name: &'a str, arity: usize) -> RelId {
        if self.last.0 == name {
            return self.last.1;
        }
        let next = RelId(self.decls.len() as u32);
        let id = *self.names.entry(name).or_insert(next);
        self.last = (name, id);
        if id != next {
            return id;
        }
        self.decls.push(RelationDecl {
            id,
            name: name.to_string(),
            arity,
            is_edb: true, // classified by the builder
        });
        id
    }

    /// Parses `( term, ... )` into `self.specs`.  In a head, `count v` /
    /// `sum v` / `min v` / `max v` is an aggregate term; a bare aggregate
    /// keyword stays an ordinary variable.
    fn terms(&mut self, is_head: bool) -> Result<(), DatalogError> {
        self.expect(Token::LParen, "`(`")?;
        self.specs.clear();
        loop {
            let spec = match self.bump()? {
                Some(Token::Ident(name)) => {
                    let agg = if is_head {
                        AggFunc::from_name(name)
                    } else {
                        None
                    };
                    match (agg, self.tok) {
                        (Some(func), Some(Token::Ident(var))) => {
                            self.advance()?;
                            Spec::Agg(func, var)
                        }
                        _ => Spec::Var(name),
                    }
                }
                Some(Token::Int(n)) => Spec::Int(n),
                Some(Token::Str(text)) => Spec::Str(text),
                other => return Err(self.error(format!("expected term, found {other:?}"))),
            };
            self.specs.push(spec);
            match self.bump()? {
                Some(Token::Comma) => {}
                Some(Token::RParen) => return Ok(()),
                other => return Err(self.error(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
    }

    /// Resolves one rule term: variables to per-rule ids, strings to symbols.
    fn rule_term(&mut self, spec: Spec<'a>) -> Term {
        match spec {
            Spec::Var(name) | Spec::Agg(_, name) => Term::Var(var_id(&mut self.vars, name)),
            Spec::Int(n) => Term::Const(Value::int(n)),
            Spec::Str(text) => Term::Const(self.symbols.intern(text)),
        }
    }

    /// `self.specs` resolved as rule terms.
    fn rule_terms(&mut self) -> Vec<Term> {
        let mut terms = Vec::with_capacity(self.specs.len());
        for i in 0..self.specs.len() {
            terms.push(self.rule_term(self.specs[i]));
        }
        terms
    }

    /// The comparison-constraint operand `tok` (just consumed) stands for.
    fn operand(&self, tok: Option<Token<'a>>) -> Result<Spec<'a>, DatalogError> {
        match tok {
            Some(Token::Ident(name)) => Ok(Spec::Var(name)),
            Some(Token::Int(n)) => Ok(Spec::Int(n)),
            Some(Token::Str(text)) => Ok(Spec::Str(text)),
            other => Err(self.error(format!(
                "expected a constraint operand (variable or constant), found {other:?}"
            ))),
        }
    }

    /// Parses the rest of a constraint `lhs op rhs` whose left operand was
    /// read.
    fn constraint(&mut self, lhs: Spec<'a>) -> Result<(), DatalogError> {
        let op = match self.bump()? {
            Some(Token::Cmp(op)) => op,
            other => {
                return Err(self.error(format!(
                "expected a comparison operator (`<`, `<=`, `>`, `>=`, `=`, `!=`), found {other:?}"
            )))
            }
        };
        let rhs = self.bump()?;
        let rhs = self.operand(rhs)?;
        self.constraints.push((lhs, op, rhs));
        Ok(())
    }

    /// Parses one body atom `Rel(terms)` whose name was read.
    fn body_atom(&mut self, name: &'a str, negated: bool) -> Result<(), DatalogError> {
        self.terms(false)?;
        let rel = self.relation(name, self.specs.len());
        let atom = Atom::new(rel, self.rule_terms());
        self.body.push(Literal { atom, negated });
        Ok(())
    }

    fn clause(&mut self) -> Result<(), DatalogError> {
        let head_start = self.start;
        let name = self.relation_name()?;
        self.terms(true)?;
        let head_rel = self.relation(name, self.specs.len());
        let has_body = match self.bump()? {
            Some(Token::Dot) => false,
            Some(Token::Turnstile) => true,
            other => {
                return Err(self.error(format!(
                    "expected `.` or `:-` after clause head, found {other:?}"
                )))
            }
        };
        let ground = self
            .specs
            .iter()
            .all(|s| matches!(s, Spec::Int(_) | Spec::Str(_)));
        if !has_body && ground {
            self.fact(head_rel);
            return Ok(());
        }

        self.vars.clear();
        let head = Atom::new(head_rel, self.rule_terms());
        let agg_cols: AggSignature = self
            .specs
            .iter()
            .enumerate()
            .filter_map(|(col, s)| match s {
                Spec::Agg(func, _) => Some((col, *func)),
                _ => None,
            })
            .collect();
        if has_body {
            loop {
                match self.bump()? {
                    Some(Token::Bang) => {
                        let name = self.relation_name()?;
                        self.body_atom(name, true)?;
                    }
                    // `Ident (` starts an atom; any other identifier is a
                    // constraint's left operand.
                    Some(Token::Ident(name)) if self.tok == Some(Token::LParen) => {
                        self.body_atom(name, false)?;
                    }
                    other => {
                        let lhs = self.operand(other)?;
                        self.constraint(lhs)?;
                    }
                }
                match self.bump()? {
                    Some(Token::Comma) => {}
                    Some(Token::Dot) => break,
                    other => {
                        return Err(self.error(format!(
                            "expected `,` or `.` after body literal, found {other:?}"
                        )))
                    }
                }
            }
        }
        // Constraint terms resolve after every body atom's, as the builder
        // resolves them.
        let mut constraints = Vec::with_capacity(self.constraints.len());
        for i in 0..self.constraints.len() {
            let (lhs, op, rhs) = self.constraints[i];
            let lhs = self.rule_term(lhs);
            let rhs = self.rule_term(rhs);
            constraints.push(Constraint { op, lhs, rhs });
        }
        self.constraints.clear();
        let index = self.rules.len();
        if !agg_cols.is_empty() {
            self.agg_rules.push((index, agg_cols));
        }
        self.rules.push(Rule {
            id: RuleId(index as u32),
            head,
            body: self.body.drain(..).collect(),
            constraints,
            var_names: self.vars.iter().map(|name| (*name).to_string()).collect(),
            origin: RuleOrigin {
                label: None,
                position: Some(self.lines.locate(self.lexer.src, head_start)),
            },
        });
        Ok(())
    }

    /// Records the ground clause in `self.specs` as a fact of `rel`.
    fn fact(&mut self, rel: RelId) {
        let index = self.facts.len();
        let mut values = Vec::with_capacity(self.specs.len());
        for (col, spec) in self.specs.iter().enumerate() {
            values.push(match *spec {
                Spec::Int(n) => Value::int(n),
                Spec::Str(text) => {
                    // Interned, and this placeholder replaced, in `finish`.
                    self.fact_strings.push((index, col, text));
                    Value::int(0)
                }
                // `clause` sends ground atoms only.
                Spec::Var(_) | Spec::Agg(..) => Value::int(0),
            });
        }
        self.facts.push((rel, Tuple::new(values)));
    }

    fn finish(mut self) -> Result<Program, DatalogError> {
        // Facts' strings intern after every rule constant, in fact order.
        let mut pending = self.fact_strings.iter().peekable();
        while let Some(&&(index, _, _)) = pending.peek() {
            let mut values = self.facts[index].1.values().to_vec();
            while let Some(&(_, col, text)) = pending.next_if(|p| p.0 == index) {
                values[col] = self.symbols.intern(text);
            }
            self.facts[index].1 = Tuple::new(values);
        }
        self.rules.shrink_to_fit();
        self.facts.shrink_to_fit();
        ProgramBuilder::build_resolved(Resolved {
            decls: self.decls,
            rules: self.rules,
            agg_rules: self.agg_rules,
            facts: self.facts,
            aggregates: Vec::new(),
            symbols: self.symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_error(line: usize, column: usize, message: &str) -> Option<DatalogError> {
        Some(DatalogError::Parse {
            line,
            column,
            message: message.to_string(),
        })
    }

    #[test]
    fn lexer_errors_carry_their_position() {
        // Every kind of lexer error cites the first char of the token it
        // could not read, as a 1-based line and char column.
        let at_sign = parse("Edge(1, 2).\nPath(x, y) :- Edge(x, y) @ z.").err();
        assert_eq!(at_sign, parse_error(2, 26, "unexpected character `@`"));
        assert_eq!(
            at_sign.map(|e| e.to_string()).as_deref(),
            Some("parse error at 2:26: unexpected character `@`")
        );
        assert_eq!(
            parse("Edge(1, 2).\nName(\"abc).").err(),
            parse_error(2, 6, "unterminated string literal")
        );
        let too_big = parse("Edge(1, 2).\n  Edge(3000000000, 1).").err();
        assert_eq!(
            too_big.map(|e| e.to_string()).as_deref(),
            Some("parse error at 2:8: integer literal out of range (max 2147483647)")
        );
        assert_eq!(
            parse("Path(x) : Edge(x).").err(),
            parse_error(1, 9, "expected `-` after `:`")
        );
        // Columns count chars, not bytes.
        assert_eq!(
            parse("Über(x) :- Über(x), ½.").err(),
            parse_error(1, 21, "unexpected character `½`")
        );
    }

    #[test]
    fn parse_errors_cite_the_offending_token() {
        assert_eq!(
            parse("Edge(1, 2).\nEdge(1 2).").err(),
            parse_error(2, 8, "expected `,` or `)`, found Some(Int(2))")
        );
        assert_eq!(
            parse("Edge(1, 2)").err(),
            parse_error(1, 10, "expected `.` or `:-` after clause head, found None")
        );
    }

    #[test]
    fn unicode_identifiers_and_whitespace() {
        let program = parse("Straße(x) :- Wëg(x).\u{a0}Wëg(1).\u{3000}\u{2028}Wëg(2).");
        let names = program.map(|p| {
            let names: Vec<String> = p.relations().iter().map(|r| r.name.clone()).collect();
            (names, p.facts().len(), p.rules()[0].origin.position)
        });
        assert_eq!(
            names,
            Ok((
                vec!["Straße".to_string(), "Wëg".to_string()],
                2,
                Some((1, 1))
            ))
        );
    }

    #[test]
    fn comments_and_a_lone_slash() {
        let program = parse("% a\n# b\n// c\nEdge(1, 2). // trailing\nEdge(2, 3). % more\n");
        assert_eq!(program.map(|p| p.facts().len()), Ok(2));
        assert_eq!(
            parse("Edge(1, 2). / Edge(2, 3).").err(),
            parse_error(1, 13, "unexpected character `/`")
        );
    }

    #[test]
    fn count_heads_and_count_as_a_variable() {
        let heads = parse("Deg(x, count y) :- Edge(x, y).\nEdge(1, 2).").map(|p| {
            p.aggregates()
                .iter()
                .map(|a| a.aggs.clone())
                .collect::<Vec<_>>()
        });
        assert_eq!(heads, Ok(vec![vec![(1, AggFunc::Count)]]));
        // A bare `count` (followed by `)` or `,`, or in a body) is a variable.
        let bare = parse("Out(count, x) :- R(count, x).\nR(1, 2).")
            .map(|p| (p.aggregates().len(), p.rules()[0].var_names.clone()));
        assert_eq!(bare, Ok((0, vec!["count".to_string(), "x".to_string()])));
    }

    #[test]
    fn strings_negation_and_every_comparison() {
        let program = parse(
            "Out(x) :- R(x, \"a b\"), !S(x), x < 9, x <= 9, x > 0, x >= 0, x = x, x != 3.\n\
             R(1, \"a b\"). S(2).",
        );
        let shape = program.map(|p| {
            let rule = &p.rules()[0];
            let ops: Vec<CmpOp> = rule.constraints.iter().map(|c| c.op).collect();
            (ops, rule.negative_body().count(), p.symbols().len())
        });
        use CmpOp::*;
        assert_eq!(shape, Ok((vec![Lt, Le, Gt, Ge, Eq, Ne], 1, 1)));
    }

    #[test]
    fn rule_constants_intern_before_fact_constants() {
        let program = parse("F(\"late\").\nOut(x) :- R(x, \"early\").");
        let indices = program.map(|p| {
            let rule_const = match p.rules()[0].body[0].atom.terms[1] {
                Term::Const(v) => v.symbol_index(),
                Term::Var(_) => None,
            };
            (rule_const, p.facts()[0].1.values()[0].symbol_index())
        });
        assert_eq!(indices, Ok((Some(0), Some(1))));
    }

    #[test]
    fn parses_transitive_closure() {
        let program = parse(
            r#"
            % transitive closure
            Path(x, y) :- Edge(x, y).
            Path(x, y) :- Edge(x, z), Path(z, y).
            Edge(1, 2).
            Edge(2, 3).
            "#,
        )
        .unwrap();
        assert_eq!(program.rules().len(), 2);
        assert_eq!(program.facts().len(), 2);
        let edge = program.relation_by_name("Edge").unwrap();
        assert!(program.relation(edge).is_edb);
    }

    #[test]
    fn rules_carry_their_source_position() {
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2).",
        )
        .unwrap();
        assert_eq!(program.rules()[0].origin.position, Some((1, 1)));
        assert_eq!(program.rules()[1].origin.position, Some((2, 1)));
        assert_eq!(
            program.rules()[1].origin.describe().as_deref(),
            Some("at 2:1")
        );
    }

    #[test]
    fn parses_string_facts_and_negation() {
        let program = parse(
            r#"
            InvFuns("deserialize", "serialize").
            Prime(x) :- Num(x), !Composite(x).
            Composite(x) :- NonTrivialDivisor(x, d).
            Num(2). Num(3). Num(4).
            NonTrivialDivisor(4, 2).
            "#,
        )
        .unwrap();
        assert_eq!(program.facts().len(), 5);
        let prime_rule = &program.rules()[0];
        assert_eq!(prime_rule.negative_body().count(), 1);
    }

    #[test]
    fn fact_with_variable_is_a_rule_error() {
        // `Edge(x, 2).` has a variable in a bodyless clause: it is parsed as
        // a rule with an empty body, which then fails the safety check.
        let err = parse("Edge(x, 2).").unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeHeadVariable { .. }));
    }

    #[test]
    fn comment_styles_are_ignored() {
        let program =
            parse("% percent comment\n# hash comment\n// slash comment\nEdge(1, 2).\n").unwrap();
        assert_eq!(program.facts().len(), 1);
    }

    #[test]
    fn reports_missing_dot() {
        let err = parse("Edge(1, 2)").unwrap_err();
        assert!(matches!(err, DatalogError::Parse { .. }));
    }

    #[test]
    fn reports_unterminated_string() {
        let err = parse("Name(\"abc).").unwrap_err();
        assert!(matches!(err, DatalogError::Parse { .. }));
    }

    #[test]
    fn reports_bad_character() {
        let err = parse("Edge(1, 2) & Edge(2, 3).").unwrap_err();
        assert!(matches!(err, DatalogError::Parse { .. }));
    }

    #[test]
    fn inconsistent_arity_across_uses_is_rejected() {
        let err = parse("Edge(1, 2).\nEdge(1, 2, 3).").unwrap_err();
        assert!(matches!(err, DatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn roundtrips_through_display() {
        let program = parse("Path(x, y) :- Edge(x, z), Path(z, y).").unwrap();
        let shown = program.display_rule(&program.rules()[0]);
        assert_eq!(shown, "Path(x, y) :- Edge(x, z), Path(z, y).");
    }

    #[test]
    fn out_of_range_integer_literal_is_a_parse_error_not_a_panic() {
        // Regression: 3_000_000_000 fits u32 but collides with the interned
        // symbol range; this used to abort via `Value::int`'s assert.
        let err = parse("Edge(3000000000, 1).").unwrap_err();
        assert!(matches!(err, DatalogError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("out of range"));
        // The maximum plain integer still parses.
        let program = parse("Edge(2147483647, 1).").unwrap();
        assert_eq!(program.facts().len(), 1);
        // One past it does not.
        assert!(matches!(
            parse("Edge(2147483648, 1)."),
            Err(DatalogError::Parse { .. })
        ));
    }

    #[test]
    fn parses_comparison_constraints() {
        let program = parse(
            "Near(y, d) :- Dist(y, d), d < 10, y != 3.\n\
             Dist(1, 5). Dist(2, 12). Dist(3, 4).",
        )
        .unwrap();
        let rule = &program.rules()[0];
        assert_eq!(rule.constraints.len(), 2);
        assert_eq!(rule.constraints[0].op, CmpOp::Lt);
        assert_eq!(rule.constraints[1].op, CmpOp::Ne);
        let shown = program.display_rule(rule);
        assert_eq!(shown, "Near(y, d) :- Dist(y, d), d < 10, y != 3.");
    }

    #[test]
    fn parses_all_comparison_operators() {
        let program =
            parse("Out(x, y) :- R(x, y), x < y, x <= y, y > x, y >= x, x = x, x != y.").unwrap();
        let ops: Vec<CmpOp> = program.rules()[0]
            .constraints
            .iter()
            .map(|c| c.op)
            .collect();
        assert_eq!(
            ops,
            vec![
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne
            ]
        );
    }

    #[test]
    fn unbound_constraint_variable_is_rejected() {
        let err = parse("Out(x) :- R(x), x < w.").unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeConstraintVariable { .. }));
    }

    #[test]
    fn parses_aggregate_heads() {
        let program = parse(
            "Deg(x, count y) :- Edge(x, y).\n\
             Edge(1, 2). Edge(1, 3). Edge(2, 3).",
        )
        .unwrap();
        assert_eq!(program.aggregates().len(), 1);
        let spec = &program.aggregates()[0];
        assert_eq!(spec.aggs, vec![(1, AggFunc::Count)]);
        let deg = program.relation_by_name("Deg").unwrap();
        assert_eq!(spec.output, deg);
        assert!(!program.relation(deg).is_edb);
        // The hidden input relation carries the rewritten rule.
        let input = program.relation(spec.input);
        assert!(input.name.contains("__agg_input"));
        assert_eq!(program.rules_for(spec.input).count(), 1);
        // Aggregation crosses strata: input stratum before output stratum.
        assert!(program.stratification().len() >= 2);
    }

    #[test]
    fn aggregate_keywords_remain_ordinary_variables_elsewhere() {
        // `min` in body position (and alone in a head without a following
        // identifier) is a plain variable name.
        let program = parse("Out(min) :- R(min).").unwrap();
        assert!(program.aggregates().is_empty());
        assert_eq!(program.rules()[0].var_names, vec!["min".to_string()]);
    }

    #[test]
    fn recursion_through_aggregate_is_a_lattice_fold() {
        // A single-rule shortest path: the aggregated relation participates
        // in its own input's recursion, so the spec is classified as a
        // monotone lattice fold rather than rejected.
        let program = parse(
            "Dist(v, min d) :- Start(v), Zero(d).\n\
             Dist(y, min d2) :- Dist(x, d1), Edge(x, y), Succ(d1, d2).\n\
             Start(0). Zero(0). Succ(0, 1). Succ(1, 2). Edge(0, 1).",
        )
        .unwrap();
        assert_eq!(program.aggregates().len(), 1);
        let spec = &program.aggregates()[0];
        assert!(spec.lattice);
        // Both aggregate rules feed one shared hidden input.
        assert_eq!(program.rules_for(spec.input).count(), 2);
        // Input and output share one recursive stratum.
        let strat = program.stratification();
        let stratum = strat
            .strata()
            .iter()
            .find(|s| s.relations.contains(&spec.output))
            .unwrap();
        assert!(stratum.relations.contains(&spec.input));
        assert!(stratum.recursive);
    }

    #[test]
    fn mixed_aggregate_signatures_on_one_head_are_rejected() {
        let err = parse(
            "Dist(v, min d) :- Start(v), Zero(d).\n\
             Dist(v, max d) :- Start(v), Zero(d).\n\
             Start(0). Zero(0).",
        )
        .unwrap_err();
        assert!(matches!(err, DatalogError::AggregateConflict { .. }));
    }
}
