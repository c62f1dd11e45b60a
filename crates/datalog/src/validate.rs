//! Static validation of Datalog programs.
//!
//! Validation enforces the classic well-formedness conditions before a
//! program reaches the planner:
//!
//! * every atom's arity matches its relation declaration,
//! * every head variable occurs in at least one positive body literal
//!   (range restriction / safety),
//! * every variable of a negated literal occurs in at least one positive
//!   literal (safe negation),
//! * facts are ground and match their relation's arity.
//!
//! All passes collect *every* violation they find; a failing build reports
//! the whole batch at once (a single violation is returned bare, several
//! arrive as [`DatalogError::Multiple`]).

use carac_storage::{RelId, SymbolTable, Tuple};

use crate::ast::{RelationDecl, Rule};
use crate::error::DatalogError;

/// Runs all validation passes; collects every violation and returns the
/// batch (one error bare, several as [`DatalogError::Multiple`]).
pub fn validate(
    decls: &[RelationDecl],
    rules: &[Rule],
    facts: &[(RelId, Tuple)],
    symbols: &SymbolTable,
) -> Result<(), DatalogError> {
    let errors = validate_all(decls, rules, facts, symbols);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(DatalogError::from_batch(errors))
    }
}

/// Runs all validation passes and returns every violation found, in pass
/// order (arity errors first, then safety errors).  Empty means valid.
pub fn validate_all(
    decls: &[RelationDecl],
    rules: &[Rule],
    facts: &[(RelId, Tuple)],
    _symbols: &SymbolTable,
) -> Vec<DatalogError> {
    let mut errors = Vec::new();
    check_arities(decls, rules, facts, &mut errors);
    check_safety(decls, rules, &mut errors);
    errors
}

/// Renders a rule without access to a full `Program` (validation runs before
/// the program exists).  Cites the rule's source label/position when the
/// builder or parser recorded one.
pub(crate) fn describe_rule(decls: &[RelationDecl], rule: &Rule) -> String {
    let head = &decls[rule.head.rel.index()].name;
    match rule.origin.describe() {
        Some(origin) => format!("{head}/{} ({origin})", rule.head.arity()),
        None => format!("{head}/{} (rule #{})", rule.head.arity(), rule.id.0),
    }
}

fn check_arities(
    decls: &[RelationDecl],
    rules: &[Rule],
    facts: &[(RelId, Tuple)],
    errors: &mut Vec<DatalogError>,
) {
    let arity_of = |rel: RelId| decls[rel.index()].arity;
    for rule in rules {
        if rule.head.arity() != arity_of(rule.head.rel) {
            errors.push(DatalogError::ArityMismatch {
                relation: decls[rule.head.rel.index()].name.clone(),
                expected: arity_of(rule.head.rel),
                actual: rule.head.arity(),
            });
        }
        for literal in &rule.body {
            if literal.atom.arity() != arity_of(literal.atom.rel) {
                errors.push(DatalogError::ArityMismatch {
                    relation: decls[literal.atom.rel.index()].name.clone(),
                    expected: arity_of(literal.atom.rel),
                    actual: literal.atom.arity(),
                });
            }
        }
    }
    for (rel, tuple) in facts {
        if tuple.arity() != arity_of(*rel) {
            errors.push(DatalogError::ArityMismatch {
                relation: decls[rel.index()].name.clone(),
                expected: arity_of(*rel),
                actual: tuple.arity(),
            });
        }
    }
}

fn check_safety(decls: &[RelationDecl], rules: &[Rule], errors: &mut Vec<DatalogError>) {
    let mut bound = Vec::new();
    for rule in rules {
        // Collect variables bound by positive literals.
        bound.clear();
        bound.resize(rule.num_vars(), false);
        for literal in rule.positive_body() {
            for (_, var) in literal.atom.variables() {
                bound[var.index()] = true;
            }
        }
        // Head variables must be bound.
        for (_, var) in rule.head.variables() {
            if !bound[var.index()] {
                errors.push(DatalogError::UnsafeHeadVariable {
                    rule: describe_rule(decls, rule),
                    variable: rule.var_names[var.index()].clone(),
                });
            }
        }
        // Negated literal variables must be bound.
        for literal in rule.negative_body() {
            for (_, var) in literal.atom.variables() {
                if !bound[var.index()] {
                    errors.push(DatalogError::UnsafeNegatedVariable {
                        rule: describe_rule(decls, rule),
                        variable: rule.var_names[var.index()].clone(),
                    });
                }
            }
        }
        // Comparison-constraint variables must be bound: constraints filter,
        // they never generate bindings.
        for constraint in &rule.constraints {
            for var in constraint.variables() {
                if !bound[var.index()] {
                    errors.push(DatalogError::UnsafeConstraintVariable {
                        rule: describe_rule(decls, rule),
                        variable: rule.var_names[var.index()].clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, v, ProgramBuilder};

    #[test]
    fn facts_and_atoms_must_match_arity() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.fact_ints("Edge", &[1, 2, 3]);
        assert!(matches!(b.build(), Err(DatalogError::ArityMismatch { .. })));

        // The short atom triggers both an arity error and (because `y` is
        // now unbound) a safety error; the batch must contain the arity one.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x"]).end();
        let err = b.build().unwrap_err();
        assert!(err
            .each()
            .iter()
            .any(|e| matches!(e, DatalogError::ArityMismatch { .. })));
    }

    #[test]
    fn two_independent_arity_errors_are_both_reported() {
        // Regression for the collect-all refactor: validation used to stop
        // at the first error; both independent mistakes must surface.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Node", 1);
        b.relation("Out", 1);
        b.rule("Out", &["x"]).when("Edge", &["x"]).end(); // arity 1 vs 2
        b.fact_ints("Node", &[1, 2]); // arity 2 vs 1
        match b.build() {
            Err(DatalogError::Multiple(errors)) => {
                assert_eq!(errors.len(), 2);
                assert!(errors
                    .iter()
                    .all(|e| matches!(e, DatalogError::ArityMismatch { .. })));
                let names: Vec<_> = errors
                    .iter()
                    .map(|e| match e {
                        DatalogError::ArityMismatch { relation, .. } => relation.as_str(),
                        _ => unreachable!(),
                    })
                    .collect();
                assert!(names.contains(&"Edge") && names.contains(&"Node"));
            }
            other => panic!("expected Multiple, got {other:?}"),
        }
    }

    #[test]
    fn arity_and_safety_errors_collect_across_passes() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        // One arity error (body atom) and one safety error (unbound head
        // variable `w`) in the same program.
        b.rule("Out", &["x", "w"]).when("Edge", &["x"]).end();
        match b.build() {
            Err(DatalogError::Multiple(errors)) => {
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, DatalogError::ArityMismatch { .. })));
                assert!(errors
                    .iter()
                    .any(|e| matches!(e, DatalogError::UnsafeHeadVariable { .. })));
            }
            other => panic!("expected Multiple, got {other:?}"),
        }
    }

    #[test]
    fn safety_errors_cite_rule_labels() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "w"])
            .when("Edge", &["x", "y"])
            .label("projection")
            .end();
        match b.build() {
            Err(DatalogError::UnsafeHeadVariable { rule, variable }) => {
                assert!(rule.contains("\"projection\""), "got {rule}");
                assert_eq!(variable, "w");
            }
            other => panic!("expected UnsafeHeadVariable, got {other:?}"),
        }
    }

    #[test]
    fn unbound_head_variable_is_unsafe() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "w"]).when("Edge", &["x", "y"]).end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::UnsafeHeadVariable { .. })
        ));
    }

    #[test]
    fn head_constants_are_always_safe() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &[v("x"), c(0)])
            .when("Edge", &[v("x"), v("y")])
            .end();
        assert!(b.build().is_ok());
    }

    #[test]
    fn negated_only_variable_is_unsafe() {
        let mut b = ProgramBuilder::new();
        b.relation("Node", 1);
        b.relation("Blocked", 1);
        b.relation("Ok", 1);
        // `y` appears only under negation.
        b.rule("Ok", &["x"])
            .when("Node", &["x"])
            .when_not("Blocked", &["y"])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::UnsafeNegatedVariable { .. })
        ));
    }

    #[test]
    fn safe_negation_passes() {
        let mut b = ProgramBuilder::new();
        b.relation("Node", 1);
        b.relation("Blocked", 1);
        b.relation("Ok", 1);
        b.rule("Ok", &["x"])
            .when("Node", &["x"])
            .when_not("Blocked", &["x"])
            .end();
        assert!(b.build().is_ok());
    }
}
