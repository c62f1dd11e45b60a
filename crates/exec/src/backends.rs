//! Compilation targets (paper §V-C).
//!
//! Four backends turn an (already join-ordered) IR subtree into something
//! executable.  They differ along the axes the paper evaluates —
//! expressiveness, safety, compilation overhead and achievable execution
//! speed:
//!
//! | backend    | paper counterpart        | artifact                       | compile cost                         |
//! |------------|--------------------------|--------------------------------|--------------------------------------|
//! | `Quotes`   | MSP quotes & splices     | fused specialized closures     | real cost **plus a modeled staging cost** (invoking the Scala compiler has no cheap Rust analogue; see DESIGN.md) |
//! | `Bytecode` | JVM Class-File API       | a `carac-vm` bytecode program  | real cost of the single-pass lowering |
//! | `Lambda`   | stitched precompiled HOFs | fused specialized closures     | real cost of closure stitching        |
//! | `IrGen`    | IROp regeneration        | the reordered IR subtree and its descriptors | real cost of reordering |
//!
//! `Quotes` additionally supports *snippet* compilation: only the `σπ⋈`
//! bodies of the subtree are specialized and the control flow between them
//! stays in the plan walker, so execution can continuously re-check for
//! newer optimizations (paper §V-B.3).

use std::time::{Duration, Instant};

use carac_ir::{IRNode, IROp};
use carac_vm::VmProgram;

use crate::context::ExecContext;
use crate::error::ExecError;
use crate::interpreter::Descriptors;
use crate::kernel::SpecializedQuery;
use crate::stats::BackendTag;
use crate::telemetry::trace::Phase;

/// Which compilation target to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Staged-closure backend with a modeled compiler-invocation cost
    /// (stand-in for Scala MSP quotes & splices).
    Quotes,
    /// Relational bytecode VM backend.
    Bytecode,
    /// Precompiled higher-order function backend.
    Lambda,
    /// IR regeneration backend (reorder only, walk the result).
    IrGen,
}

impl BackendKind {
    /// The stats tag for this backend.
    pub fn tag(self) -> BackendTag {
        match self {
            BackendKind::Quotes => BackendTag::Quotes,
            BackendKind::Bytecode => BackendTag::Bytecode,
            BackendKind::Lambda => BackendTag::Lambda,
            BackendKind::IrGen => BackendTag::IrGen,
        }
    }

    /// All backends (useful for sweeps in benches and tests).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Quotes,
        BackendKind::Bytecode,
        BackendKind::Lambda,
        BackendKind::IrGen,
    ];
}

/// Whether a compilation covers the whole subtree or only the operator
/// bodies (paper §V-B.3 "full" vs "snippet").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileMode {
    /// Compile the node and its entire subtree into one artifact.
    Full,
    /// Compile only the `σπ⋈` bodies; the plan walker runs the control flow.
    Snippet,
}

/// Modeled cost of invoking the staging compiler (the `Quotes` backend).
///
/// The Scala compiler that the paper invokes at runtime has no cheap Rust
/// analogue, so the `Quotes` backend generates the same specialized closures
/// as `Lambda` but charges this additional cost per compilation.  The
/// defaults are scaled-down versions of the cold/warm relationship in the
/// paper's Fig. 5; both the absolute values and the ratio are configurable
/// so the benchmark harness can explore the space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingCostModel {
    /// One-time extra cost of the very first compilation (cold compiler).
    pub cold_extra: Duration,
    /// Base cost per compilation once warm.
    pub warm_base: Duration,
    /// Additional cost per IR node covered by the compilation.
    pub per_node: Duration,
    /// Fraction of the cost charged when compiling in snippet mode (the
    /// generated code is much smaller).
    pub snippet_factor: f64,
}

impl Default for StagingCostModel {
    fn default() -> Self {
        StagingCostModel {
            cold_extra: Duration::from_millis(12),
            warm_base: Duration::from_millis(1),
            per_node: Duration::from_micros(60),
            snippet_factor: 0.4,
        }
    }
}

impl StagingCostModel {
    /// A model that charges nothing — used by unit tests and by callers who
    /// want to measure the genuine closure-construction cost only.
    pub fn free() -> Self {
        StagingCostModel {
            cold_extra: Duration::ZERO,
            warm_base: Duration::ZERO,
            per_node: Duration::ZERO,
            snippet_factor: 1.0,
        }
    }

    /// The modeled cost of one compilation.
    pub fn cost(&self, nodes: usize, warm: bool, mode: CompileMode) -> Duration {
        let mut cost = self.warm_base + self.per_node * (nodes as u32);
        if !warm {
            cost += self.cold_extra;
        }
        if mode == CompileMode::Snippet {
            cost = cost.mul_f64(self.snippet_factor);
        }
        cost
    }
}

/// A compiled closure over the execution context.
pub type ClosureFn = Box<dyn Fn(&mut ExecContext) -> Result<(), ExecError> + Send + Sync>;

/// The output of a compilation.
pub enum Artifact {
    /// A fused closure covering the whole subtree (Lambda / Quotes, full).
    FullClosure(ClosureFn),
    /// Specialized kernels for the `σπ⋈` descendants only (snippet mode);
    /// the plan walker runs the control flow between them.
    Snippet(Descriptors),
    /// A bytecode program covering the whole subtree.
    Vm(VmProgram),
    /// The reordered IR subtree itself with the descriptors of its `σπ⋈`
    /// nodes, built once with it (IRGen backend).
    Ir(IRNode, Descriptors),
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::FullClosure(_) => write!(f, "Artifact::FullClosure"),
            Artifact::Snippet(map) => write!(f, "Artifact::Snippet({} kernels)", map.len()),
            Artifact::Vm(p) => write!(f, "Artifact::Vm({} instrs)", p.len()),
            Artifact::Ir(node, _) => write!(f, "Artifact::Ir({} nodes)", node.node_count()),
        }
    }
}

/// Which kernel a live session's maintenance queries used to run on.
///
/// Every delta variant, witness driver and stratum recompute now runs on
/// the specialized kernel ([`SpecializedQuery`]), whatever the mode: the
/// interpreter's join loop is gone, so there is nothing left to select.
/// The type, [`update_kernel`] and the `kernel` argument of
/// [`Incremental::new`](crate::Incremental::new) stay only because the
/// benchmark (`bench_core`) calls them; both variants behave alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKernel {
    /// The specialized kernel.
    Specialized,
    /// Formerly the structure-walking interpreter; now the specialized
    /// kernel as well.
    Interpreted,
}

/// The [`UpdateKernel`] a backend used to map to.  It no longer selects
/// anything (see [`UpdateKernel`]).
pub fn update_kernel(backend: BackendKind) -> UpdateKernel {
    match backend {
        BackendKind::Lambda | BackendKind::Quotes => UpdateKernel::Specialized,
        BackendKind::Bytecode | BackendKind::IrGen => UpdateKernel::Interpreted,
    }
}

/// Validates a freshly compiled artifact before the JIT caches it.
///
/// Two layers of defence, cheapest first:
///
/// 1. **Shape** — the artifact must have the form the backend/mode pair is
///    specified to produce (a bytecode backend handing back a closure is a
///    backend bug).  Always on; failures surface as
///    [`ExecError::UnexpectedArtifact`].
/// 2. **Static verification** (when `deep` is set) — bytecode artifacts run
///    through [`carac_vm::verify_program`] (jump bounds, def-before-use,
///    cursor discipline, arity agreement, termination) and IR artifacts
///    through [`carac_ir::verify_subtree`], so a miscompiled artifact is
///    rejected with a typed [`ExecError::Verify`] *before* its first
///    execution instead of trapping or looping inside a query.
///
/// The closure backends carry no inspectable code, so for them the shape
/// check is the whole story; their output is covered by the differential
/// suites instead.
pub fn verify_artifact(
    backend: BackendKind,
    mode: CompileMode,
    artifact: &Artifact,
    arities: &[usize],
    deep: bool,
) -> Result<(), ExecError> {
    let ok = match (backend, mode, artifact) {
        (
            BackendKind::Lambda | BackendKind::Quotes,
            CompileMode::Full,
            Artifact::FullClosure(_),
        ) => true,
        (BackendKind::Lambda | BackendKind::Quotes, CompileMode::Snippet, Artifact::Snippet(_)) => {
            true
        }
        // Snippet requests degrade to full compilation on the VM target.
        (BackendKind::Bytecode, _, Artifact::Vm(_)) => true,
        (BackendKind::IrGen, _, Artifact::Ir(..)) => true,
        _ => false,
    };
    if !ok {
        return Err(ExecError::UnexpectedArtifact {
            backend: format!("{backend:?}"),
            artifact: format!("{artifact:?}"),
        });
    }
    if deep {
        match artifact {
            Artifact::Vm(program) => {
                carac_vm::verify_program(program, arities).map_err(|err| ExecError::Verify {
                    backend: format!("{backend:?}"),
                    reason: err.to_string(),
                })?;
            }
            Artifact::Ir(node, _) => {
                carac_ir::verify_subtree(node, arities).map_err(|err| ExecError::Verify {
                    backend: format!("{backend:?}"),
                    reason: err.to_string(),
                })?;
            }
            Artifact::FullClosure(_) | Artifact::Snippet(_) => {}
        }
    }
    Ok(())
}

/// Compiles `node` (already reordered by the optimizer) with the requested
/// backend and mode.  Returns the artifact and the wall-clock time spent
/// (including any modeled staging cost), or a typed error when the backend's
/// own compiler rejects the subtree (e.g. [`carac_vm::VmError::PatchTarget`]).
pub fn compile_artifact(
    node: &IRNode,
    backend: BackendKind,
    mode: CompileMode,
    staging: &StagingCostModel,
    warm: bool,
) -> Result<(Artifact, Duration), ExecError> {
    let start = Instant::now();
    let artifact = match (backend, mode) {
        (BackendKind::Lambda, CompileMode::Full) => Artifact::FullClosure(compile_closure(node)),
        (BackendKind::Lambda, CompileMode::Snippet) => Artifact::Snippet(compile_snippets(node)),
        (BackendKind::Quotes, CompileMode::Full) => {
            let closure = compile_closure(node);
            std::thread::sleep(staging.cost(node.node_count(), warm, mode));
            Artifact::FullClosure(closure)
        }
        (BackendKind::Quotes, CompileMode::Snippet) => {
            let snippets = compile_snippets(node);
            std::thread::sleep(staging.cost(node.node_count(), warm, mode));
            Artifact::Snippet(snippets)
        }
        // The bytecode target cannot hand control back to the interpreter
        // mid-node, so snippet requests degrade to full compilation
        // (documented limitation, matching the paper's description of the
        // JVM-bytecode target).
        (BackendKind::Bytecode, _) => Artifact::Vm(carac_vm::compile_node(node)?),
        (BackendKind::IrGen, _) => Artifact::Ir(node.clone(), compile_snippets(node)),
    };
    Ok((artifact, start.elapsed()))
}

/// Builds the fused closure for a whole subtree by stitching together the
/// precompiled per-operation combinators.
pub fn compile_closure(node: &IRNode) -> ClosureFn {
    match &node.op {
        IROp::Program { children }
        | IROp::Sequence { children }
        | IROp::UnionAllRules { children, .. }
        | IROp::UnionRule { children, .. } => {
            let compiled: Vec<ClosureFn> = children.iter().map(compile_closure).collect();
            Box::new(move |ctx| {
                for child in &compiled {
                    child(ctx)?;
                }
                Ok(())
            })
        }
        IROp::Stratum { children, .. } => {
            let compiled: Vec<ClosureFn> = children.iter().map(compile_closure).collect();
            Box::new(move |ctx| {
                let stratum = ctx.stats.strata_entered as u32;
                ctx.stats.strata_entered += 1;
                ctx.stats.current_stratum = stratum;
                let token = ctx.stats.tracer.begin(Phase::Stratum, stratum);
                let result: Result<(), ExecError> = (|| {
                    for child in &compiled {
                        child(ctx)?;
                    }
                    Ok(())
                })();
                ctx.stats.tracer.end(token, &[]);
                result
            })
        }
        IROp::SwapClear { relations } => {
            let relations = relations.clone();
            Box::new(move |ctx| {
                ctx.storage.swap_and_clear(&relations)?;
                Ok(())
            })
        }
        IROp::DoWhile { relations, body } => {
            let relations = relations.clone();
            let body = compile_closure(body);
            Box::new(move |ctx| {
                loop {
                    let token = ctx
                        .stats
                        .tracer
                        .begin(Phase::Iteration, ctx.iteration as u32);
                    let result = body(ctx);
                    ctx.stats
                        .tracer
                        .end(token, &[("emitted", ctx.stats.tuples_emitted)]);
                    result?;
                    ctx.iteration += 1;
                    ctx.stats.iterations += 1;
                    if ctx.storage.deltas_empty(&relations)? {
                        break;
                    }
                }
                Ok(())
            })
        }
        IROp::Spj { query } => {
            let kernel = SpecializedQuery::compile(query);
            Box::new(move |ctx| {
                kernel.execute_with(&mut ctx.storage, &mut ctx.stats, ctx.parallelism)?;
                Ok(())
            })
        }
        IROp::Aggregate { spec } => {
            let spec = spec.clone();
            Box::new(move |ctx| {
                crate::kernel::execute_aggregate(&spec, &mut ctx.storage, &mut ctx.stats)
            })
        }
    }
}

/// Specializes every `σπ⋈` descendant of `node`, keyed by node id.
pub fn compile_snippets(node: &IRNode) -> Descriptors {
    let mut map = Descriptors::default();
    node.visit(&mut |n| {
        if let IROp::Spj { query } = &n.op {
            map.insert(n.id, SpecializedQuery::compile(query));
        }
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, EvalStrategy};

    fn tc() -> (carac_datalog::Program, IRNode) {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        (p, plan)
    }

    #[test]
    fn full_closure_computes_the_fixpoint() {
        let (p, plan) = tc();
        let closure = compile_closure(&plan);
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        closure(&mut ctx).unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 6);
        assert!(ctx.stats.iterations >= 2);
    }

    #[test]
    fn every_backend_produces_an_artifact() {
        let (p, plan) = tc();
        let arities: Vec<usize> = p.relations().iter().map(|d| d.arity).collect();
        let staging = StagingCostModel::free();
        for backend in BackendKind::ALL {
            let (artifact, elapsed) =
                compile_artifact(&plan, backend, CompileMode::Full, &staging, true).unwrap();
            assert!(elapsed < Duration::from_secs(1));
            // Both the shape check and the deep static verifiers accept
            // every well-formed compile — a misbehaving backend degrades
            // into ExecError instead of a hard panic.
            verify_artifact(backend, CompileMode::Full, &artifact, &arities, true)
                .unwrap_or_else(|e| panic!("{e}"));
            match (backend, artifact) {
                (BackendKind::Bytecode, Artifact::Vm(program)) => {
                    assert!(program.validate().is_ok());
                }
                (BackendKind::IrGen, Artifact::Ir(node, descriptors)) => {
                    assert_eq!(node.node_count(), plan.node_count());
                    assert_eq!(descriptors.len(), plan.spj_queries().len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn artifact_shape_mismatch_is_a_typed_error() {
        let (p, plan) = tc();
        let arities: Vec<usize> = p.relations().iter().map(|d| d.arity).collect();
        // A VM artifact claimed to come from the Lambda backend is the
        // misbehaving-backend scenario: the check reports it as a typed
        // error instead of aborting the process.
        let vm = Artifact::Vm(carac_vm::compile_node(&plan).expect("plan compiles"));
        let err = verify_artifact(BackendKind::Lambda, CompileMode::Full, &vm, &arities, true)
            .unwrap_err();
        assert!(matches!(err, ExecError::UnexpectedArtifact { .. }));
        assert!(err.to_string().contains("unexpected artifact"));
        // Matching pairs pass, including the documented bytecode
        // snippet-degrades-to-full case.
        assert!(verify_artifact(
            BackendKind::Bytecode,
            CompileMode::Snippet,
            &vm,
            &arities,
            true
        )
        .is_ok());
    }

    #[test]
    fn corrupted_bytecode_is_rejected_before_install() {
        let (p, plan) = tc();
        let arities: Vec<usize> = p.relations().iter().map(|d| d.arity).collect();
        let mut program = carac_vm::compile_node(&plan).expect("plan compiles");
        // Corrupt one jump target past the end of the program — the shape is
        // still right, so only the deep verifier can catch it.
        let broken = program.instrs.iter_mut().any(|instr| {
            if let carac_vm::Instr::Jump(target) = instr {
                *target = carac_vm::Pc(u32::MAX - 1);
                true
            } else {
                false
            }
        });
        assert!(broken, "expected the compiled plan to contain a Jump");
        let artifact = Artifact::Vm(program);
        let err = verify_artifact(
            BackendKind::Bytecode,
            CompileMode::Full,
            &artifact,
            &arities,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Verify { .. }), "{err}");
        assert!(err.to_string().contains("unverifiable"), "{err}");
        // With verification disabled the shape check alone accepts it —
        // the release-mode default unless EngineConfig::with_verify is set.
        assert!(verify_artifact(
            BackendKind::Bytecode,
            CompileMode::Full,
            &artifact,
            &arities,
            false,
        )
        .is_ok());
    }

    #[test]
    fn snippet_mode_specializes_every_spj() {
        let (_, plan) = tc();
        let snippets = compile_snippets(&plan);
        assert_eq!(snippets.len(), plan.spj_queries().len());
        let (artifact, _) = compile_artifact(
            &plan,
            BackendKind::Quotes,
            CompileMode::Snippet,
            &StagingCostModel::free(),
            true,
        )
        .unwrap();
        assert!(matches!(artifact, Artifact::Snippet(map) if map.len() == snippets.len()));
    }

    #[test]
    fn bytecode_snippet_degrades_to_full() {
        let (_, plan) = tc();
        let (artifact, _) = compile_artifact(
            &plan,
            BackendKind::Bytecode,
            CompileMode::Snippet,
            &StagingCostModel::free(),
            true,
        )
        .unwrap();
        assert!(matches!(artifact, Artifact::Vm(_)));
    }

    #[test]
    fn staging_cost_model_orders_cold_above_warm_and_snippet_below_full() {
        let model = StagingCostModel::default();
        let cold = model.cost(100, false, CompileMode::Full);
        let warm = model.cost(100, true, CompileMode::Full);
        let snippet = model.cost(100, true, CompileMode::Snippet);
        assert!(cold > warm);
        assert!(snippet < warm);
        assert_eq!(
            StagingCostModel::free().cost(100, false, CompileMode::Full),
            Duration::ZERO
        );
    }

    #[test]
    fn quotes_charges_the_staging_cost() {
        let (_, plan) = tc();
        let staging = StagingCostModel {
            cold_extra: Duration::from_millis(20),
            warm_base: Duration::from_millis(1),
            per_node: Duration::ZERO,
            snippet_factor: 1.0,
        };
        let (_, cold_time) = compile_artifact(
            &plan,
            BackendKind::Quotes,
            CompileMode::Full,
            &staging,
            false,
        )
        .unwrap();
        let (_, warm_time) = compile_artifact(
            &plan,
            BackendKind::Quotes,
            CompileMode::Full,
            &staging,
            true,
        )
        .unwrap();
        assert!(cold_time >= Duration::from_millis(20));
        assert!(warm_time < cold_time);
        // Lambda pays no modeled cost at all.
        let (_, lambda_time) = compile_artifact(
            &plan,
            BackendKind::Lambda,
            CompileMode::Full,
            &staging,
            false,
        )
        .unwrap();
        assert!(lambda_time < Duration::from_millis(20));
    }
}
