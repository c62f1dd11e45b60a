//! The plan walker.
//!
//! One walk over the IROp tree runs the control flow of every mode that
//! does not compile it away: `Program`, `Stratum`, `Sequence` and the
//! unions run their children in order, `DoWhile` iterates its body to the
//! semi-naive fixpoint, `SwapClear` publishes deltas, and `Aggregate` folds.
//! A `σπ⋈` leaf runs on its [`SpecializedQuery`] descriptor.  The walker
//! never interprets a join row by row; it looks each leaf's descriptor up
//! by node id in a [`Descriptors`] map that lives as long as the plan it
//! describes.
//!
//! [`interpret`] is Carac's interpretation mode (paper §V-B: "When Carac is
//! in interpretation mode, there is no further partial evaluation and the
//! interpreter visits this IROp tree"): it builds each leaf's descriptor at
//! the leaf's first visit and reuses it for every later iteration.  The JIT
//! walks the same way through `Walk`: below the compilation granularity
//! and on cold and pending visits (one map per engine), and over a
//! descriptor artifact (a map built once, when the artifact was, from the
//! re-ordered queries).  Incremental maintenance walks a stratum it
//! recomputes over a map built once per session.

use carac_ir::{ConjunctiveQuery, IRNode, IROp, NodeId};
use carac_storage::hasher::FxHashMap;

use crate::context::ExecContext;
use crate::error::ExecError;
use crate::kernel::{execute_aggregate, SpecializedQuery};
use crate::stats::RunStats;
use crate::telemetry::trace::Phase;

/// The descriptor of every `σπ⋈` node of a plan (or subtree), by node id.
pub type Descriptors = FxHashMap<NodeId, SpecializedQuery>;

/// How a walk runs the nodes it reaches.
pub(crate) trait Walk {
    /// Runs `node`.  The default runs the node's own operator with
    /// [`step`]; the JIT takes the nodes at its granularity over here.
    fn node(&mut self, node: &IRNode, ctx: &mut ExecContext) -> Result<(), ExecError> {
        step(self, node, ctx)
    }

    /// The descriptor that runs the `σπ⋈` leaf `node` (whose query is
    /// `query`).
    fn descriptor(
        &mut self,
        node: &IRNode,
        query: &ConjunctiveQuery,
        stats: &mut RunStats,
    ) -> Result<&SpecializedQuery, ExecError>;
}

/// A map that fills itself: a leaf's descriptor is built at its first
/// visit (counted in [`RunStats::descriptor_builds`]) and kept for the
/// map's lifetime.
impl Walk for Descriptors {
    fn descriptor(
        &mut self,
        node: &IRNode,
        query: &ConjunctiveQuery,
        stats: &mut RunStats,
    ) -> Result<&SpecializedQuery, ExecError> {
        Ok(self.entry(node.id).or_insert_with(|| {
            stats.descriptor_builds += 1;
            SpecializedQuery::compile(query)
        }))
    }
}

/// A map built when its artifact was compiled; it covers every leaf of the
/// artifact's subtree.
pub(crate) struct Prebuilt<'a>(pub(crate) &'a Descriptors);

impl Walk for Prebuilt<'_> {
    fn descriptor(
        &mut self,
        node: &IRNode,
        _: &ConjunctiveQuery,
        _: &mut RunStats,
    ) -> Result<&SpecializedQuery, ExecError> {
        self.0
            .get(&node.id)
            .ok_or_else(|| ExecError::Internal(format!("no descriptor for σπ⋈ node {}", node.id.0)))
    }
}

/// Executes `node` (and its whole subtree) against `ctx`, building each
/// `σπ⋈` descriptor once, at its first visit.
pub fn interpret(node: &IRNode, ctx: &mut ExecContext) -> Result<(), ExecError> {
    Descriptors::default().node(node, ctx)
}

/// Runs `node`'s own operator; its children go back through `walk`.
pub(crate) fn step<W: Walk + ?Sized>(
    walk: &mut W,
    node: &IRNode,
    ctx: &mut ExecContext,
) -> Result<(), ExecError> {
    match &node.op {
        IROp::Program { children }
        | IROp::Sequence { children }
        | IROp::UnionAllRules { children, .. }
        | IROp::UnionRule { children, .. } => {
            for child in children {
                walk.node(child, ctx)?;
            }
            Ok(())
        }
        IROp::Stratum { children, .. } => {
            // Strata have no index in the IR: number them in visit order so
            // rule profiles and spans can attribute work to a stratum.
            let stratum = ctx.stats.strata_entered as u32;
            ctx.stats.strata_entered += 1;
            ctx.stats.current_stratum = stratum;
            let token = ctx.stats.tracer.begin(Phase::Stratum, stratum);
            let result: Result<(), ExecError> = (|| {
                for child in children {
                    walk.node(child, ctx)?;
                }
                Ok(())
            })();
            ctx.stats.tracer.end(token, &[]);
            result
        }
        IROp::SwapClear { relations } => {
            ctx.storage.swap_and_clear(relations)?;
            Ok(())
        }
        IROp::DoWhile { relations, body } => {
            loop {
                let token = ctx
                    .stats
                    .tracer
                    .begin(Phase::Iteration, ctx.iteration as u32);
                let result = walk.node(body, ctx);
                ctx.stats
                    .tracer
                    .end(token, &[("emitted", ctx.stats.tuples_emitted)]);
                result?;
                ctx.iteration += 1;
                ctx.stats.iterations += 1;
                if ctx.storage.deltas_empty(relations)? {
                    break;
                }
            }
            Ok(())
        }
        IROp::Spj { query } => {
            let ExecContext {
                storage,
                stats,
                parallelism,
                ..
            } = ctx;
            walk.descriptor(node, query, stats)?
                .execute_with(storage, stats, *parallelism)?;
            Ok(())
        }
        IROp::Aggregate { spec } => execute_aggregate(spec, &mut ctx.storage, &mut ctx.stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, EvalStrategy};
    use carac_storage::{DbKind, Tuple};

    fn run(source: &str, indexes: bool) -> (carac_datalog::Program, ExecContext) {
        let p = parse(source).unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let mut ctx = ExecContext::prepare(&p, indexes).unwrap();
        interpret(&plan, &mut ctx).unwrap();
        (p, ctx)
    }

    #[test]
    fn transitive_closure_reaches_fixpoint() {
        let (p, ctx) = run(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 1).",
            true,
        );
        let path = p.relation_by_name("Path").unwrap();
        // A 4-cycle: every node reaches every node → 16 pairs.
        assert_eq!(ctx.derived_count(path), 16);
        assert!(ctx.stats.iterations >= 3);
    }

    #[test]
    fn each_spj_node_is_described_once_per_run() {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 5).",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        interpret(&plan, &mut ctx).unwrap();
        assert!(ctx.stats.iterations >= 3);
        // One build per plan node, however often the loop body ran.
        assert_eq!(ctx.stats.descriptor_builds, plan.spj_queries().len() as u64);
        assert!(ctx.stats.subqueries > ctx.stats.descriptor_builds);
    }

    #[test]
    fn a_prebuilt_map_without_the_node_is_a_typed_error() {
        let p = parse("Out(x) :- In(x).\nIn(1).").unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        let empty = Descriptors::default();
        let err = Prebuilt(&empty).node(&plan, &mut ctx).unwrap_err();
        assert!(matches!(err, ExecError::Internal(_)), "{err}");
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let source = "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(2, 5). Edge(5, 6).";
        let p = parse(source).unwrap();
        let path = p.relation_by_name("Path").unwrap();

        let mut semi_ctx = ExecContext::prepare(&p, true).unwrap();
        interpret(&generate_plan(&p, EvalStrategy::SemiNaive), &mut semi_ctx).unwrap();

        let mut naive_ctx = ExecContext::prepare(&p, true).unwrap();
        interpret(&generate_plan(&p, EvalStrategy::Naive), &mut naive_ctx).unwrap();

        let mut a = semi_ctx.derived_tuples(path);
        let mut b = naive_ctx.derived_tuples(path);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn stratified_negation_evaluates_lower_stratum_first() {
        let (p, ctx) = run(
            "Reach(x) :- Source(x).\n\
             Reach(y) :- Reach(x), Edge(x, y).\n\
             Unreached(x) :- Node(x), !Reach(x).\n\
             Source(1).\n\
             Node(1). Node(2). Node(3). Node(4).\n\
             Edge(1, 2). Edge(2, 3).",
            true,
        );
        let unreached = p.relation_by_name("Unreached").unwrap();
        let tuples = ctx.derived_tuples(unreached);
        assert_eq!(tuples, vec![Tuple::from_ints(&[4])]);
    }

    #[test]
    fn mutual_recursion_converges() {
        let (p, ctx) = run(
            "Even(0).\n\
             Even(y) :- Odd(x), Succ(x, y).\n\
             Odd(y) :- Even(x), Succ(x, y).\n\
             Succ(0, 1). Succ(1, 2). Succ(2, 3). Succ(3, 4). Succ(4, 5).",
            false,
        );
        let even = p.relation_by_name("Even").unwrap();
        let odd = p.relation_by_name("Odd").unwrap();
        let mut evens = ctx.derived_tuples(even);
        evens.sort();
        assert_eq!(
            evens,
            vec![
                Tuple::from_ints(&[0]),
                Tuple::from_ints(&[2]),
                Tuple::from_ints(&[4])
            ]
        );
        assert_eq!(ctx.derived_count(odd), 3);
    }

    #[test]
    fn constant_only_fact_rule_fires_once() {
        let (p, ctx) = run(
            "Flag(1) :- Marker(0).\n\
             Marker(0).",
            false,
        );
        let flag = p.relation_by_name("Flag").unwrap();
        assert_eq!(ctx.derived_tuples(flag), vec![Tuple::from_ints(&[1])]);
    }

    #[test]
    fn deltas_are_empty_after_fixpoint() {
        let (p, ctx) = run(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3).",
            true,
        );
        let path = p.relation_by_name("Path").unwrap();
        assert!(ctx
            .storage
            .relation(DbKind::DeltaKnown, path)
            .unwrap()
            .is_empty());
        assert!(ctx
            .storage
            .relation(DbKind::DeltaNew, path)
            .unwrap()
            .is_empty());
    }
}
