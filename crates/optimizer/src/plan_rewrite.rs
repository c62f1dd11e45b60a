//! Whole-plan reordering.
//!
//! The same atom-reordering optimization can be applied at every stage of a
//! query's life (paper §IV): ahead of time over the generated plan, at query
//! start once the EDB cardinalities are known, and repeatedly at runtime at
//! whichever granularity the JIT compiles.  This module provides the
//! plan-level entry point, which the JIT applies to a copy of the subtree
//! it compiles; [`reorder_query`] re-orders one query.

use carac_ir::{IRNode, IROp};

use crate::config::OptimizerConfig;
use crate::context::OptimizeContext;
use crate::reorder::{reorder_query, ReorderAlgorithm};

/// Rewrites every `σπ⋈` node in `plan` with a freshly optimized atom order.
/// Returns the number of SPJ nodes whose order actually changed.
pub fn optimize_plan(
    plan: &mut IRNode,
    ctx: &OptimizeContext,
    config: &OptimizerConfig,
    algorithm: ReorderAlgorithm,
) -> usize {
    let mut changed = 0;
    plan.visit_mut(&mut |node| {
        if let IROp::Spj { query } = &mut node.op {
            let reordered = reorder_query(query, ctx, config, algorithm);
            if reordered.atoms != query.atoms {
                changed += 1;
                *query = reordered;
            }
        }
    });
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, EvalStrategy};
    use carac_storage::{RelationStats, StatsSnapshot};

    fn cspa_like() -> (carac_datalog::Program, IRNode) {
        let p = parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n\
             MAlias(x, y) :- Assign(y, x).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        (p, plan)
    }

    fn ctx_for(p: &carac_datalog::Program, cards: &[(&str, usize)]) -> OptimizeContext {
        let mut per_relation = vec![RelationStats::default(); p.relations().len()];
        for (name, derived) in cards {
            let rel = p.relation_by_name(name).unwrap();
            per_relation[rel.index()] = RelationStats {
                derived: *derived,
                delta_known: *derived / 2,
                ..Default::default()
            };
        }
        OptimizeContext::stats_only(StatsSnapshot::from_stats(per_relation, 1))
    }

    #[test]
    fn optimize_plan_rewrites_spj_orders() {
        let (p, mut plan) = cspa_like();
        let ctx = ctx_for(&p, &[("VaFlow", 100_000), ("MAlias", 10), ("Assign", 50)]);
        let changed = optimize_plan(
            &mut plan,
            &ctx,
            &OptimizerConfig::default(),
            ReorderAlgorithm::Greedy,
        );
        assert!(changed > 0, "at least one 3-way join should be reordered");
        // No SPJ in the optimized plan starts with the huge VaFlow derived
        // atom when a tiny MAlias atom is available.
        for (_, q) in plan.spj_queries() {
            if q.width() == 3 {
                assert!(!q.has_cartesian_product());
            }
        }
    }

    #[test]
    fn idempotent_when_already_optimal() {
        let (p, mut plan) = cspa_like();
        let ctx = ctx_for(&p, &[("VaFlow", 100), ("MAlias", 10), ("Assign", 50)]);
        let config = OptimizerConfig::default();
        let _ = optimize_plan(&mut plan, &ctx, &config, ReorderAlgorithm::Greedy);
        let again = optimize_plan(&mut plan, &ctx, &config, ReorderAlgorithm::Greedy);
        assert_eq!(again, 0);
    }
}
