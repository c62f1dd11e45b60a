//! Embedded DSL for constructing Datalog programs programmatically.
//!
//! This is the Rust analogue of the paper's Scala-embedded DSL (§V-A): rules
//! and facts are first-class values constructed with ordinary function
//! calls, so workloads can be generated, transformed and composed by host
//! code.
//!
//! ```
//! use carac_datalog::builder::{ProgramBuilder, TermSpec};
//!
//! let mut b = ProgramBuilder::new();
//! b.relation("Edge", 2);
//! b.relation("Path", 2);
//! b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
//! b.rule("Path", &["x", "y"])
//!     .when("Edge", &["x", "z"])
//!     .when("Path", &["z", "y"])
//!     .end();
//! b.fact_ints("Edge", &[1, 2]);
//! b.fact_ints("Edge", &[2, 3]);
//! let program = b.build().unwrap();
//! assert_eq!(program.rules().len(), 2);
//! ```
//!
//! [`ProgramBuilder::build`] runs in two steps.  It first resolves the names
//! it was given: relations into declarations (first declaration wins, a
//! conflicting arity is an error), variables into dense per-rule
//! [`VarId`]s in first-use order (head, body atoms, constraints) through a
//! small per-rule list, string constants into symbols in rule order and
//! then fact order.  The resolved program then goes through the tail the
//! parser enters directly with pieces it resolved while reading: aggregate
//! rules are retargeted at hidden `<head>__agg_input` relations declared
//! last, relations are classified, aggregations checked, the program
//! validated and stratified.

use carac_storage::{AggFunc, CmpOp, RelId, SymbolTable, Tuple, Value};

use crate::ast::{
    AggregateSpec, Atom, Constraint, Literal, RelationDecl, Rule, RuleId, RuleOrigin, Term, VarId,
};
use crate::error::DatalogError;
use carac_storage::hasher::FxHashMap;

use crate::precedence::Stratification;
use crate::program::Program;
use crate::validate;

/// A term as written by the user: a named variable, an integer constant, a
/// string constant, a pre-resolved raw value, or (in rule heads only) an
/// aggregate over a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermSpec {
    /// A named variable ("x", "y", ...).
    Var(String),
    /// A small integer constant.
    Int(u32),
    /// A string constant, interned on build.
    Str(String),
    /// A raw, already-interned value.  Used when rebuilding programs (e.g.
    /// alias elimination) so constants round-trip bit-identically; the
    /// builder takes the value as-is without re-interning.
    Value(Value),
    /// An aggregate over a variable (`min d`, `count y`, ...).  Only valid
    /// in rule-head positions.
    Agg(AggFunc, String),
}

impl From<&str> for TermSpec {
    /// Bare strings in rule positions are variables — the common case when
    /// writing analysis rules.  Use [`TermSpec::Str`] (or the [`s`] helper)
    /// for string constants.
    fn from(name: &str) -> Self {
        TermSpec::Var(name.to_string())
    }
}

impl From<u32> for TermSpec {
    fn from(n: u32) -> Self {
        TermSpec::Int(n)
    }
}

/// Helper constructing a variable term.
pub fn v(name: &str) -> TermSpec {
    TermSpec::Var(name.to_string())
}

/// Helper constructing an integer constant term.
pub fn c(n: u32) -> TermSpec {
    TermSpec::Int(n)
}

/// Helper constructing a string constant term.
pub fn s(text: &str) -> TermSpec {
    TermSpec::Str(text.to_string())
}

/// Helper constructing an aggregate head term (`agg(AggFunc::Min, "d")`).
pub fn agg(func: AggFunc, var: &str) -> TermSpec {
    TermSpec::Agg(func, var.to_string())
}

/// Helper constructing a `count` head term.
pub fn count_of(var: &str) -> TermSpec {
    agg(AggFunc::Count, var)
}

/// Helper constructing a `sum` head term.
pub fn sum_of(var: &str) -> TermSpec {
    agg(AggFunc::Sum, var)
}

/// Helper constructing a `min` head term.
pub fn min_of(var: &str) -> TermSpec {
    agg(AggFunc::Min, var)
}

/// Helper constructing a `max` head term.
pub fn max_of(var: &str) -> TermSpec {
    agg(AggFunc::Max, var)
}

/// Partially built rule; finish with [`RuleBuilder::end`].
#[must_use = "call .end() to add the rule to the program"]
pub struct RuleBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    head_rel: String,
    head_terms: Vec<TermSpec>,
    body: Vec<(String, Vec<TermSpec>, bool)>,
    constraints: Vec<(TermSpec, CmpOp, TermSpec)>,
    origin: RuleOrigin,
}

impl<'a> RuleBuilder<'a> {
    /// Adds a positive body literal.
    pub fn when<T: Into<TermSpec> + Clone>(mut self, rel: &str, terms: &[T]) -> Self {
        self.body.push((
            rel.to_string(),
            terms.iter().cloned().map(Into::into).collect(),
            false,
        ));
        self
    }

    /// Adds a negated body literal.
    pub fn when_not<T: Into<TermSpec> + Clone>(mut self, rel: &str, terms: &[T]) -> Self {
        self.body.push((
            rel.to_string(),
            terms.iter().cloned().map(Into::into).collect(),
            true,
        ));
        self
    }

    /// Adds a comparison constraint `lhs op rhs` to the rule body.  Both
    /// operands may be variables or constants; every variable must be bound
    /// by a positive body literal.
    pub fn constrain<L: Into<TermSpec>, R: Into<TermSpec>>(
        mut self,
        lhs: L,
        op: CmpOp,
        rhs: R,
    ) -> Self {
        self.constraints.push((lhs.into(), op, rhs.into()));
        self
    }

    /// Adds a `lhs < rhs` constraint.
    pub fn lt<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Lt, rhs)
    }

    /// Adds a `lhs <= rhs` constraint.
    pub fn le<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Le, rhs)
    }

    /// Adds a `lhs > rhs` constraint.
    pub fn gt<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Gt, rhs)
    }

    /// Adds a `lhs >= rhs` constraint.
    pub fn ge<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Ge, rhs)
    }

    /// Adds a `lhs != rhs` constraint.
    pub fn ne<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Ne, rhs)
    }

    /// Attaches a human-readable label to the rule, cited by validation
    /// errors and analyzer diagnostics instead of the bare rule number.
    pub fn label(mut self, label: &str) -> Self {
        self.origin.label = Some(label.to_string());
        self
    }

    /// Records the 1-based source `(line, column)` of the rule head (used by
    /// the parser; host programs normally use [`RuleBuilder::label`]).
    pub fn at(mut self, line: usize, column: usize) -> Self {
        self.origin.position = Some((line, column));
        self
    }

    /// Finishes the rule and records it in the program builder.
    pub fn end(self) {
        self.builder.raw_rules.push(RawRule {
            head_rel: self.head_rel,
            head_terms: self.head_terms,
            body: self.body,
            constraints: self.constraints,
            origin: self.origin,
        });
    }
}

/// An aggregation before name resolution: output relation, input relation,
/// `(column, function)` pairs.
type RawAggregate = (String, String, Vec<(usize, AggFunc)>);

/// A rule before name resolution.
#[derive(Debug, Clone)]
struct RawRule {
    head_rel: String,
    head_terms: Vec<TermSpec>,
    body: Vec<(String, Vec<TermSpec>, bool)>,
    constraints: Vec<(TermSpec, CmpOp, TermSpec)>,
    origin: RuleOrigin,
}

/// Incremental program builder.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    relations: Vec<(String, usize)>,
    raw_rules: Vec<RawRule>,
    raw_facts: Vec<(String, Vec<TermSpec>)>,
    raw_aggregates: Vec<RawAggregate>,
    symbols: SymbolTable,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declares a relation with the given arity.  Declaring the same
    /// relation twice with the same arity is a no-op; conflicting arities
    /// are reported at [`build`](ProgramBuilder::build) time.
    pub fn relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.relations.push((name.to_string(), arity));
        self
    }

    /// Starts a rule with the given head.  Head terms may include aggregate
    /// specs ([`TermSpec::Agg`], built with [`agg`]/[`min_of`]/...): such a
    /// rule defines its head relation by stratified aggregation.
    pub fn rule<T: Into<TermSpec> + Clone>(&mut self, head: &str, terms: &[T]) -> RuleBuilder<'_> {
        RuleBuilder {
            head_rel: head.to_string(),
            head_terms: terms.iter().cloned().map(Into::into).collect(),
            body: Vec::new(),
            constraints: Vec::new(),
            origin: RuleOrigin::default(),
            builder: self,
        }
    }

    /// Registers a pre-resolved aggregation: `output` receives the rows of
    /// `input` grouped on the non-aggregated columns.  This is the low-level
    /// form used when rebuilding programs (alias elimination); writing an
    /// aggregate head term via [`ProgramBuilder::rule`] creates the hidden
    /// input relation and this registration automatically.
    pub fn aggregate(&mut self, output: &str, input: &str, aggs: &[(usize, AggFunc)]) -> &mut Self {
        self.raw_aggregates
            .push((output.to_string(), input.to_string(), aggs.to_vec()));
        self
    }

    /// Seeds the builder's symbol table (used when rebuilding a program so
    /// that previously interned constants keep their exact bit patterns).
    pub fn with_symbols(&mut self, symbols: SymbolTable) -> &mut Self {
        self.symbols = symbols;
        self
    }

    /// Adds a ground fact with arbitrary term specs (must all be constants).
    pub fn fact(&mut self, rel: &str, terms: &[TermSpec]) -> &mut Self {
        self.raw_facts.push((rel.to_string(), terms.to_vec()));
        self
    }

    /// Adds a ground fact of integer constants.
    pub fn fact_ints(&mut self, rel: &str, ints: &[u32]) -> &mut Self {
        let terms = ints.iter().map(|&n| TermSpec::Int(n)).collect::<Vec<_>>();
        self.raw_facts.push((rel.to_string(), terms));
        self
    }

    /// Interns a string constant eagerly (useful when the same value must be
    /// referenced both in facts and by host code inspecting results).
    pub fn intern(&mut self, text: &str) -> Value {
        self.symbols.intern(text)
    }

    /// Resolves names, validates the program, computes the stratification
    /// and returns the immutable [`Program`].
    pub fn build(self) -> Result<Program, DatalogError> {
        ProgramBuilder::build_resolved(self.resolve()?)
    }

    /// Builds a program whose names are already resolved: the parser's
    /// entry point, and the tail of [`ProgramBuilder::build`].  Rewrites
    /// aggregate rules, classifies relations, checks aggregations,
    /// validates and stratifies.
    pub(crate) fn build_resolved(mut r: Resolved) -> Result<Program, DatalogError> {
        // Aggregate rules: `Dist(y, min d) :- Body` becomes an ordinary
        // rule `Dist__agg_input(y, d) :- Body` plus an aggregation from the
        // hidden input to `Dist`.
        r.rewrite_aggregate_rules()?;
        let Resolved {
            mut decls,
            rules,
            facts,
            aggregates: raw_aggregates,
            symbols,
            ..
        } = r;

        // Anything appearing in a rule head — or receiving an aggregation —
        // is IDB.
        let mut has_rule = vec![false; decls.len()];
        for rule in &rules {
            has_rule[rule.head.rel.index()] = true;
            decls[rule.head.rel.index()].is_edb = false;
        }
        for (output, _, _) in &raw_aggregates {
            decls[output.index()].is_edb = false;
        }

        // Check each aggregation's shape: the output must be defined by the
        // aggregation alone (no rules, no facts, exactly one spec) and share
        // the input's arity.
        let mut aggregates: Vec<AggregateSpec> = Vec::with_capacity(raw_aggregates.len());
        if !raw_aggregates.is_empty() {
            let mut has_fact = vec![false; decls.len()];
            for (rel, _) in &facts {
                has_fact[rel.index()] = true;
            }
            for (output, input, aggs) in raw_aggregates {
                let output_name = || decls[output.index()].name.clone();
                if has_rule[output.index()]
                    || has_fact[output.index()]
                    || aggregates.iter().any(|a| a.output == output)
                {
                    return Err(DatalogError::AggregateConflict {
                        relation: output_name(),
                    });
                }
                let (out_arity, in_arity) =
                    (decls[output.index()].arity, decls[input.index()].arity);
                if out_arity != in_arity {
                    return Err(DatalogError::ArityMismatch {
                        relation: output_name(),
                        expected: out_arity,
                        actual: in_arity,
                    });
                }
                if let Some(&(col, _)) = aggs.iter().find(|&&(col, _)| col >= out_arity) {
                    return Err(DatalogError::ArityMismatch {
                        relation: output_name(),
                        expected: out_arity,
                        actual: col + 1,
                    });
                }
                aggregates.push(AggregateSpec {
                    output,
                    input,
                    aggs,
                    // Refined during stratification: set when input and
                    // output share a recursive stratum.
                    lattice: false,
                });
            }
        }

        // Validate arities, safety (including constraint safety) and fact
        // shapes.
        validate::validate(&decls, &rules, &facts, &symbols)?;

        // Stratify (rejects negation through recursion and classifies each
        // aggregate as stratified or monotone-lattice).
        let stratification = Stratification::compute(&decls, &rules, &mut aggregates)?;

        Ok(Program::new(
            decls,
            rules,
            facts,
            aggregates,
            symbols,
            stratification,
        ))
    }

    /// Resolves the builder's names and terms: relations deduplicate into
    /// declarations in first-declared order, variables into dense per-rule
    /// [`VarId`]s in first-use order, string constants intern in rule order
    /// and then fact order.
    fn resolve(self) -> Result<Resolved, DatalogError> {
        let ProgramBuilder {
            relations,
            raw_rules,
            raw_facts,
            raw_aggregates,
            mut symbols,
        } = self;

        let mut decls: Vec<RelationDecl> = Vec::new();
        let mut by_name: FxHashMap<&str, RelId> = FxHashMap::default();
        for (name, arity) in &relations {
            if let Some(&existing) = by_name.get(name.as_str()) {
                let prev = &decls[existing.index()];
                if prev.arity != *arity {
                    return Err(DatalogError::ConflictingDeclaration {
                        name: name.clone(),
                        first: prev.arity,
                        second: *arity,
                    });
                }
                continue;
            }
            let id = RelId(decls.len() as u32);
            by_name.insert(name, id);
            decls.push(RelationDecl {
                id,
                name: name.clone(),
                arity: *arity,
                is_edb: true, // refined once rules are known
            });
        }
        let lookup = |name: &str| -> Result<RelId, DatalogError> {
            by_name
                .get(name)
                .copied()
                .ok_or_else(|| DatalogError::UnknownRelation(name.to_string()))
        };

        let mut rules: Vec<Rule> = Vec::with_capacity(raw_rules.len());
        let mut agg_rules = Vec::new();
        let mut vars: Vec<&str> = Vec::new();
        for (rule_idx, raw) in raw_rules.iter().enumerate() {
            vars.clear();
            let head_rel = lookup(&raw.head_rel)?;
            let mut head_terms = Vec::with_capacity(raw.head_terms.len());
            let mut agg_cols = Vec::new();
            for (col, spec) in raw.head_terms.iter().enumerate() {
                head_terms.push(match spec {
                    TermSpec::Agg(func, name) => {
                        agg_cols.push((col, *func));
                        Term::Var(var_id(&mut vars, name))
                    }
                    _ => resolve_term(spec, &mut vars, &mut symbols, &raw.head_rel)?,
                });
            }
            let mut body = Vec::with_capacity(raw.body.len());
            for (rel_name, terms, negated) in &raw.body {
                let rel = lookup(rel_name)?;
                let terms = terms
                    .iter()
                    .map(|t| resolve_term(t, &mut vars, &mut symbols, rel_name))
                    .collect::<Result<_, _>>()?;
                body.push(Literal {
                    atom: Atom::new(rel, terms),
                    negated: *negated,
                });
            }
            let mut constraints = Vec::with_capacity(raw.constraints.len());
            for (lhs, op, rhs) in &raw.constraints {
                constraints.push(Constraint {
                    op: *op,
                    lhs: resolve_term(lhs, &mut vars, &mut symbols, &raw.head_rel)?,
                    rhs: resolve_term(rhs, &mut vars, &mut symbols, &raw.head_rel)?,
                });
            }
            if !agg_cols.is_empty() {
                agg_rules.push((rule_idx, agg_cols));
            }
            rules.push(Rule {
                id: RuleId(rule_idx as u32),
                head: Atom::new(head_rel, head_terms),
                body,
                constraints,
                var_names: vars.iter().map(|name| (*name).to_string()).collect(),
                origin: raw.origin.clone(),
            });
        }

        let mut facts: Vec<(RelId, Tuple)> = Vec::with_capacity(raw_facts.len());
        for (rel_name, terms) in &raw_facts {
            let rel = lookup(rel_name)?;
            let mut values = Vec::with_capacity(terms.len());
            for term in terms {
                values.push(match term {
                    TermSpec::Int(n) => int_value(*n)?,
                    TermSpec::Str(text) => symbols.intern(text),
                    TermSpec::Value(value) => *value,
                    TermSpec::Var(_) => return Err(DatalogError::NonGroundFact(rel_name.clone())),
                    TermSpec::Agg(..) => {
                        return Err(DatalogError::AggregateMisplaced {
                            relation: rel_name.clone(),
                        })
                    }
                });
            }
            facts.push((rel, Tuple::new(values)));
        }

        let aggregates = raw_aggregates
            .iter()
            .map(|(output, input, aggs)| Ok((lookup(output)?, lookup(input)?, aggs.clone())))
            .collect::<Result<_, DatalogError>>()?;

        Ok(Resolved {
            decls,
            rules,
            agg_rules,
            facts,
            aggregates,
            symbols,
        })
    }
}

/// Resolves one rule term.  `where_` names the relation (or, for
/// constraints, the rule head) an aggregate term was illegally found in.
fn resolve_term<'s>(
    spec: &'s TermSpec,
    vars: &mut Vec<&'s str>,
    symbols: &mut SymbolTable,
    where_: &str,
) -> Result<Term, DatalogError> {
    Ok(match spec {
        TermSpec::Var(name) => Term::Var(var_id(vars, name)),
        TermSpec::Int(n) => Term::Const(int_value(*n)?),
        TermSpec::Str(text) => Term::Const(symbols.intern(text)),
        TermSpec::Value(value) => Term::Const(*value),
        TermSpec::Agg(..) => {
            return Err(DatalogError::AggregateMisplaced {
                relation: where_.to_string(),
            })
        }
    })
}

/// The dense id of variable `name` within one rule, assigned in first-use
/// order.  Rules have a handful of variables, so a linear scan beats a map.
pub(crate) fn var_id<'s>(vars: &mut Vec<&'s str>, name: &'s str) -> VarId {
    let index = vars.iter().position(|v| *v == name).unwrap_or_else(|| {
        vars.push(name);
        vars.len() - 1
    });
    VarId(index as u32)
}

/// A plain integer constant, rejected when it would collide with the
/// interned-symbol range.
fn int_value(n: u32) -> Result<Value, DatalogError> {
    if n >= Value::SYMBOL_BASE {
        return Err(DatalogError::IntegerOutOfRange { value: n });
    }
    Ok(Value::int(n))
}

/// The aggregated columns of an aggregation, with their functions.
pub(crate) type AggSignature = Vec<(usize, AggFunc)>;

/// A program with every name resolved, before aggregate rules are
/// rewritten: relation declarations (all EDB until classified), rules with
/// dense ids, ground facts, aggregations and the symbol table.  The parser
/// produces it directly; [`ProgramBuilder::build`] produces it from the
/// names it was given.
pub(crate) struct Resolved {
    pub(crate) decls: Vec<RelationDecl>,
    pub(crate) rules: Vec<Rule>,
    /// `(rule index, aggregated head columns)` of every rule written with
    /// aggregate head terms, in rule order.  Those head terms are already
    /// plain variables in the rule.
    pub(crate) agg_rules: Vec<(usize, AggSignature)>,
    pub(crate) facts: Vec<(RelId, Tuple)>,
    /// Registered aggregations: output, input, `(column, function)` pairs.
    pub(crate) aggregates: Vec<(RelId, RelId, AggSignature)>,
    pub(crate) symbols: SymbolTable,
}

impl Resolved {
    /// Retargets every aggregate rule at a hidden `<head>__agg_input`
    /// relation, declared after every other relation, and registers one
    /// aggregation from it to the original head.
    ///
    /// Several rules may aggregate into the same output — e.g. the base and
    /// recursive rules of a lattice fold like single-rule shortest path —
    /// as long as every rule deriving that head aggregates the same columns
    /// with the same functions; they all feed one shared hidden input and
    /// register one aggregation.  Mixing aggregate and plain rules on one
    /// head stays rejected, and so does any declaration of the reserved
    /// hidden name: it would silently contaminate the aggregate's input.
    fn rewrite_aggregate_rules(&mut self) -> Result<(), DatalogError> {
        if self.agg_rules.is_empty() {
            return Ok(());
        }
        let conflict = |decls: &[RelationDecl], rel: RelId| DatalogError::AggregateConflict {
            relation: decls[rel.index()].name.clone(),
        };
        // Group the aggregate rules by output in first-seen order, checking
        // that their signatures agree: (output, member rules, signature).
        type AggGroup = (RelId, Vec<usize>, AggSignature);
        let mut groups: Vec<AggGroup> = Vec::new();
        for (idx, cols) in std::mem::take(&mut self.agg_rules) {
            let output = self.rules[idx].head.rel;
            match groups.iter_mut().find(|g| g.0 == output) {
                Some(group) if group.2 != cols => return Err(conflict(&self.decls, output)),
                Some(group) => group.1.push(idx),
                None => groups.push((output, vec![idx], cols)),
            }
        }
        let mut head_counts = vec![0usize; self.decls.len()];
        for rule in &self.rules {
            head_counts[rule.head.rel.index()] += 1;
        }
        for (output, idxs, cols) in groups {
            // Every rule deriving an aggregated head must be one of its
            // aggregate rules; a plain sibling rule would bypass the fold.
            if head_counts[output.index()] != idxs.len() {
                return Err(conflict(&self.decls, output));
            }
            let name = format!("{}{AGG_INPUT_SUFFIX}", self.decls[output.index()].name);
            if self.decls.iter().any(|d| d.name == name) {
                return Err(DatalogError::AggregateConflict { relation: name });
            }
            let hidden = RelId(self.decls.len() as u32);
            self.decls.push(RelationDecl {
                id: hidden,
                name,
                arity: self.rules[idxs[0]].head.arity(),
                is_edb: true,
            });
            for idx in idxs {
                self.rules[idx].head.rel = hidden;
            }
            self.aggregates.push((output, hidden, cols));
        }
        Ok(())
    }
}

/// Suffix of the hidden relation holding an aggregate rule's raw
/// (pre-aggregation) rows.  The name is reserved: user programs may not
/// declare, derive or assert facts into `<relation>__agg_input`.
const AGG_INPUT_SUFFIX: &str = "__agg_input";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_declaration_same_arity_is_ok() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Edge", 2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn conflicting_arity_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Edge", 3);
        assert!(matches!(
            b.build(),
            Err(DatalogError::ConflictingDeclaration { .. })
        ));
    }

    #[test]
    fn unknown_relation_in_rule_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        assert!(matches!(b.build(), Err(DatalogError::UnknownRelation(_))));
    }

    #[test]
    fn string_constants_are_interned() {
        let mut b = ProgramBuilder::new();
        b.relation("InvFuns", 2);
        b.fact("InvFuns", &[s("deserialize"), s("serialize")]);
        b.fact("InvFuns", &[s("deserialize"), s("serialize")]);
        let p = b.build().unwrap();
        assert_eq!(p.facts().len(), 2);
        let (_, t) = &p.facts()[0];
        assert_eq!(p.symbols().display(t.get(0).unwrap()), "deserialize");
    }

    #[test]
    fn facts_with_variables_are_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.fact("Edge", &[v("x"), c(1)]);
        assert!(matches!(b.build(), Err(DatalogError::NonGroundFact(_))));
    }

    #[test]
    fn variables_are_shared_within_a_rule() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        let p = b.build().unwrap();
        let rule = &p.rules()[0];
        // x, y, z → 3 distinct variables.
        assert_eq!(rule.num_vars(), 3);
        // The `z` in both body atoms resolves to the same VarId.
        let edge_z = rule.body[0].atom.terms[1];
        let path_z = rule.body[1].atom.terms[0];
        assert_eq!(edge_z, path_z);
    }

    #[test]
    fn out_of_range_int_term_is_an_error_not_a_panic() {
        // Regression: `TermSpec::Int` beyond the plain-integer range used to
        // abort via the `Value::int` assert inside `build()`.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.fact("Edge", &[TermSpec::Int(3_000_000_000), c(1)]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::IntegerOutOfRange {
                value: 3_000_000_000
            })
        ));

        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 1);
        b.rule("Out", &[v("x")])
            .when("Edge", &[v("x"), TermSpec::Int(u32::MAX)])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::IntegerOutOfRange { .. })
        ));
    }

    #[test]
    fn raw_value_terms_pass_through_unchanged() {
        let mut b = ProgramBuilder::new();
        let sym = b.intern("handler");
        b.relation("Tagged", 2);
        b.fact(
            "Tagged",
            &[TermSpec::Value(sym), TermSpec::Value(Value::int(9))],
        );
        let p = b.build().unwrap();
        let (_, t) = &p.facts()[0];
        assert_eq!(t.get(0), Some(sym));
        assert_eq!(t.get(1), Some(Value::int(9)));
    }

    #[test]
    fn constraints_are_recorded_and_validated() {
        let mut b = ProgramBuilder::new();
        b.relation("R", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("R", &["x", "y"])
            .lt(v("x"), v("y"))
            .ge(v("y"), c(2))
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.rules()[0].constraints.len(), 2);
        assert_eq!(p.rules()[0].constraints[0].op, CmpOp::Lt);

        // A constraint over a variable bound nowhere is unsafe.
        let mut b = ProgramBuilder::new();
        b.relation("R", 1);
        b.relation("Out", 1);
        b.rule("Out", &["x"])
            .when("R", &["x"])
            .lt(v("x"), v("nope"))
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::UnsafeConstraintVariable { .. })
        ));
    }

    #[test]
    fn aggregate_heads_create_hidden_input_and_spec() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.aggregates().len(), 1);
        let spec = &p.aggregates()[0];
        assert_eq!(p.relation(spec.output).name, "Deg");
        assert_eq!(p.relation(spec.input).name, "Deg__agg_input");
        assert_eq!(spec.aggs, vec![(1, AggFunc::Count)]);
        assert_eq!(p.aggregate_for(spec.output), Some(spec));
        assert!(!p.relation(spec.output).is_edb);
    }

    #[test]
    fn aggregate_misuse_is_rejected() {
        // Aggregate term in a body literal.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("Edge", &[v("x"), min_of("y")])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateMisplaced { .. })
        ));

        // Aggregated relation with a second (ordinary) rule.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Deg", &["x", "y"]).when("Edge", &["x", "y"]).end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));

        // Facts into an aggregated relation.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.fact_ints("Deg", &[1, 1]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));
    }

    #[test]
    fn hidden_aggregate_input_name_is_reserved() {
        // A fact asserted into the reserved `<rel>__agg_input` name would
        // silently contaminate the aggregate's input; it must be rejected.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.relation("Deg__agg_input", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.fact_ints("Deg__agg_input", &[5, 9]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { relation }) if relation == "Deg__agg_input"
        ));

        // Likewise a user rule deriving the hidden relation.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.relation("Deg__agg_input", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Deg__agg_input", &["x", "y"])
            .when("Edge", &["x", "y"])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));
    }

    #[test]
    fn aggregate_misplaced_names_the_offending_relation() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("Edge", &[v("x"), min_of("y")])
            .end();
        match b.build() {
            Err(DatalogError::AggregateMisplaced { relation }) => {
                assert_eq!(relation, "Edge");
            }
            other => panic!("expected AggregateMisplaced, got {other:?}"),
        }
    }

    #[test]
    fn rule_labels_and_positions_reach_the_resolved_rule() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "y"])
            .label("base-case")
            .end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .at(2, 1)
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.rules()[0].origin.label.as_deref(), Some("base-case"));
        assert_eq!(p.rules()[0].origin.position, None);
        assert_eq!(p.rules()[1].origin.position, Some((2, 1)));
        assert!(p.rules()[1].origin.label.is_none());
    }

    #[test]
    fn mixed_term_specs_via_into() {
        let mut b = ProgramBuilder::new();
        b.relation("Fact", 2);
        b.relation("Out", 1);
        // `1u32.into()` is a constant, "x" is a variable.
        b.rule("Out", &[v("x")])
            .when("Fact", &[TermSpec::Int(1), v("x")])
            .end();
        let p = b.build().unwrap();
        let body_atom = &p.rules()[0].body[0].atom;
        assert_eq!(body_atom.terms[0], Term::Const(Value::int(1)));
        assert!(matches!(body_atom.terms[1], Term::Var(_)));
    }
}
