//! Ahead-of-time ("macro") plan preparation (paper §VI-C).
//!
//! When Carac itself is compiled, the set of facts and rules known at that
//! point can already be used to sort the join orders of the generated plan.
//! The cost of this offline sort is *not* part of query execution time.  The
//! offline sort uses the stable-sort algorithm so that, when the online
//! IRGenerator optimization is also enabled, re-sorting an already-sorted
//! plan is cheap — the property the paper leans on Timsort for.

use carac_datalog::Program;
use carac_ir::{generate_plan, EvalStrategy, IRNode};
use carac_optimizer::{optimize_plan, OptimizeContext, ReorderAlgorithm};
use carac_storage::hasher::FxHashSet;
use carac_storage::StorageManager;

use crate::config::AotConfig;
use crate::error::CaracError;

/// Generates the plan for `program` and applies the offline join-order sort.
///
/// When `config.use_fact_cardinalities` is set, the facts attached to the
/// program (and any `extra_facts` already registered with the engine) are
/// loaded into a scratch storage manager so their cardinalities inform the
/// sort; otherwise only the rule schema (selectivity heuristics) is used.
///
/// Returns the sorted plan and the number of subqueries whose order changed.
pub fn prepare_plan(
    program: &Program,
    strategy: EvalStrategy,
    config: &AotConfig,
    extra_facts: &[(carac_storage::RelId, carac_storage::Tuple)],
) -> Result<(IRNode, usize), CaracError> {
    let mut plan = generate_plan(program, strategy);

    let stats = if config.use_fact_cardinalities {
        let mut scratch = StorageManager::new(false);
        for decl in program.relations() {
            scratch.register(&decl.name, decl.arity, decl.is_edb);
        }
        for (rel, tuple) in program.facts().iter().chain(extra_facts.iter()) {
            scratch.insert_fact_row(*rel, tuple.values())?;
        }
        scratch.stats()
    } else {
        carac_storage::StatsSnapshot::default()
    };

    let is_idb = program.relations().iter().map(|d| !d.is_edb).collect();
    let ctx = OptimizeContext::new(stats, is_idb, FxHashSet::default());
    let changed = optimize_plan(&mut plan, &ctx, &config.optimizer, ReorderAlgorithm::Sort);
    Ok((plan, changed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;

    fn program() -> Program {
        parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y), Deref(y, x).\n\
             MAlias(x, y) :- Deref(x, y).\n\
             Assign(1, 2). Assign(2, 3). Assign(3, 4). Assign(4, 5).\n\
             Deref(1, 1).\n",
        )
        .unwrap()
    }

    #[test]
    fn facts_and_rules_sort_uses_cardinalities() {
        let p = program();
        let (plan, changed) =
            prepare_plan(&p, EvalStrategy::SemiNaive, &AotConfig::default(), &[]).unwrap();
        // The EDB cardinalities (Assign=4, Deref=1) are known, so the
        // VaFlow rule's two-atom join should have been re-sorted to lead
        // with the smaller Deref relation in at least one subquery.
        assert!(changed > 0);
        assert_eq!(
            plan.spj_queries().len(),
            generate_plan(&p, EvalStrategy::SemiNaive)
                .spj_queries()
                .len()
        );
        let deref = p.relation_by_name("Deref").unwrap();
        let assign = p.relation_by_name("Assign").unwrap();
        let reordered = plan.spj_queries().iter().any(|(_, q)| {
            q.atoms.len() == 2 && q.atoms[0].rel == deref && q.atoms[1].rel == assign
        });
        assert!(reordered);
    }

    #[test]
    fn rules_only_sort_still_produces_a_valid_plan() {
        let p = program();
        let config = AotConfig {
            use_fact_cardinalities: false,
            ..AotConfig::default()
        };
        let (plan, _) = prepare_plan(&p, EvalStrategy::SemiNaive, &config, &[]).unwrap();
        // All SPJ node ids survive the rewrite (only atom orders change).
        let original = generate_plan(&p, EvalStrategy::SemiNaive);
        let orig_ids: Vec<_> = original.spj_queries().iter().map(|(id, _)| *id).collect();
        let new_ids: Vec<_> = plan.spj_queries().iter().map(|(id, _)| *id).collect();
        assert_eq!(orig_ids, new_ids);
    }

    #[test]
    fn extra_facts_contribute_to_the_sort() {
        let p = parse(
            "Out(a, c) :- Big(a, b), Small(b, c).\n\
             Big(0, 0).\n",
        )
        .unwrap();
        let small = p.relation_by_name("Small").unwrap();
        // Register many extra Small facts so Small looks *bigger* than Big.
        let extra: Vec<_> = (0..50)
            .map(|i| (small, carac_storage::Tuple::pair(i, i + 1)))
            .collect();
        let (plan, _) =
            prepare_plan(&p, EvalStrategy::SemiNaive, &AotConfig::default(), &extra).unwrap();
        let (_, q) = plan.spj_queries()[0];
        // Big (cardinality 1) should be ordered before Small (cardinality 50).
        let first = q.atoms[0].rel;
        assert_eq!(first, p.relation_by_name("Big").unwrap());
    }
}
