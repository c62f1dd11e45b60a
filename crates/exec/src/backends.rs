//! Compilation targets (paper §V-C).
//!
//! Four backends turn an IR subtree, already join-ordered by the optimizer,
//! into something executable.  Three of them produce the same artifact and
//! differ only in their stats tag, their label and what a compilation is
//! charged:
//!
//! | backend    | paper counterpart         | artifact                       | compile cost                          |
//! |------------|---------------------------|--------------------------------|---------------------------------------|
//! | `Lambda`   | stitched precompiled HOFs | descriptors ([`Artifact::Plan`]) | real cost of the descriptor builds  |
//! | `IrGen`    | IROp regeneration         | descriptors ([`Artifact::Plan`]) | real cost of the descriptor builds  |
//! | `Quotes`   | MSP quotes & splices      | descriptors ([`Artifact::Plan`]) | real cost **plus a modeled staging cost** (invoking the Scala compiler has no cheap Rust analogue; see DESIGN.md) |
//! | `Bytecode` | JVM Class-File API        | a `carac-vm` bytecode program ([`Artifact::Vm`]) | real cost of the single-pass lowering |
//!
//! A descriptor artifact holds no control flow.  It is the
//! [`SpecializedQuery`] of every `σπ⋈` leaf of the subtree, built from the
//! re-ordered queries and keyed by node id, and the plan walker
//! ([`crate::interpreter`]) runs it over the node the JIT compiled: the
//! optimizer only permutes atoms inside `σπ⋈` nodes, and a re-ordered copy
//! keeps every node id, so the walk reaches the leaves it was built for.

use std::time::{Duration, Instant};

use carac_ir::{IRNode, IROp};
use carac_vm::VmProgram;

use crate::error::ExecError;
use crate::interpreter::Descriptors;
use crate::kernel::SpecializedQuery;
use crate::stats::BackendTag;

/// Which compilation target to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Descriptor artifact with a modeled compiler-invocation cost
    /// (stand-in for Scala MSP quotes & splices).
    Quotes,
    /// Relational bytecode VM backend.
    Bytecode,
    /// Descriptor artifact (precompiled higher-order function backend).
    Lambda,
    /// Descriptor artifact (IR regeneration backend).
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

/// Modeled cost of invoking the staging compiler (the `Quotes` backend).
///
/// The Scala compiler that the paper invokes at runtime has no cheap Rust
/// analogue, so the `Quotes` backend builds the same descriptors as
/// `Lambda` but charges this additional cost per compilation.  The
/// defaults are scaled-down versions of the cold/warm relationship in the
/// paper's Fig. 5; the absolute values and the ratio are configurable so
/// the benchmark harness can explore the space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingCostModel {
    /// One-time extra cost of the very first compilation (cold compiler).
    pub cold_extra: Duration,
    /// Base cost per compilation once warm.
    pub warm_base: Duration,
    /// Additional cost per IR node covered by the compilation.
    pub per_node: Duration,
}

impl Default for StagingCostModel {
    fn default() -> Self {
        StagingCostModel {
            cold_extra: Duration::from_millis(12),
            warm_base: Duration::from_millis(1),
            per_node: Duration::from_micros(60),
        }
    }
}

impl StagingCostModel {
    /// A model that charges nothing — used by unit tests and by callers who
    /// want to measure the genuine descriptor-building cost only.
    pub fn free() -> Self {
        StagingCostModel {
            cold_extra: Duration::ZERO,
            warm_base: Duration::ZERO,
            per_node: Duration::ZERO,
        }
    }

    /// The modeled cost of one compilation.
    pub fn cost(&self, nodes: usize, warm: bool) -> Duration {
        let cost = self.warm_base + self.per_node * (nodes as u32);
        if warm {
            cost
        } else {
            cost + self.cold_extra
        }
    }
}

/// The output of a compilation.
pub enum Artifact {
    /// The descriptors of the subtree's `σπ⋈` leaves, built from their
    /// re-ordered queries (`Lambda`, `Quotes`, `IrGen`).  The plan walker
    /// runs the compiled node's control flow over them.
    Plan(Descriptors),
    /// A bytecode program covering the whole subtree.
    Vm(VmProgram),
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Artifact::Plan(map) => write!(f, "Artifact::Plan({} descriptors)", map.len()),
            Artifact::Vm(p) => write!(f, "Artifact::Vm({} instrs)", p.len()),
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
/// 1. **Shape** — the artifact must have the form the backend is specified
///    to produce (a bytecode backend handing back descriptors is a backend
///    bug).  Always on; failures surface as
///    [`ExecError::UnexpectedArtifact`].
/// 2. **Static verification** (when `deep` is set) — bytecode artifacts run
///    through [`carac_vm::verify_program`] (jump bounds, def-before-use,
///    cursor discipline, arity agreement, termination), so a miscompiled
///    program is rejected with a typed [`ExecError::Verify`] *before* its
///    first execution instead of trapping or looping inside a query.
///
/// A descriptor artifact is built from a subtree the JIT has already put
/// through [`carac_ir::verify_subtree`] before compiling it, so for it the
/// shape check is the whole story.
pub fn verify_artifact(
    backend: BackendKind,
    artifact: &Artifact,
    arities: &[usize],
    deep: bool,
) -> Result<(), ExecError> {
    // Bytecode compiles to a VM program, every other backend to descriptors.
    if matches!(artifact, Artifact::Vm(_)) != (backend == BackendKind::Bytecode) {
        return Err(ExecError::UnexpectedArtifact {
            backend: format!("{backend:?}"),
            artifact: format!("{artifact:?}"),
        });
    }
    match artifact {
        Artifact::Vm(program) if deep => {
            carac_vm::verify_program(program, arities).map_err(|err| ExecError::Verify {
                backend: format!("{backend:?}"),
                reason: err.to_string(),
            })
        }
        _ => Ok(()),
    }
}

/// Compiles `node` (already reordered by the optimizer) with the requested
/// backend.  Returns the artifact and the wall-clock time spent (including
/// any modeled staging cost), or a typed error when the backend's own
/// compiler rejects the subtree (e.g. [`carac_vm::VmError::PatchTarget`]).
pub fn compile_artifact(
    node: &IRNode,
    backend: BackendKind,
    staging: &StagingCostModel,
    warm: bool,
) -> Result<(Artifact, Duration), ExecError> {
    let start = Instant::now();
    let artifact = match backend {
        BackendKind::Bytecode => Artifact::Vm(carac_vm::compile_node(node)?),
        BackendKind::Lambda | BackendKind::IrGen => Artifact::Plan(describe(node)),
        BackendKind::Quotes => {
            let descriptors = describe(node);
            std::thread::sleep(staging.cost(node.node_count(), warm));
            Artifact::Plan(descriptors)
        }
    };
    Ok((artifact, start.elapsed()))
}

/// Builds the descriptor of every `σπ⋈` descendant of `node`, keyed by node
/// id.
pub(crate) fn describe(node: &IRNode) -> Descriptors {
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
    fn every_backend_produces_an_artifact() {
        let (p, plan) = tc();
        let arities: Vec<usize> = p.relations().iter().map(|d| d.arity).collect();
        let staging = StagingCostModel::free();
        for backend in BackendKind::ALL {
            let (artifact, elapsed) = compile_artifact(&plan, backend, &staging, true).unwrap();
            assert!(elapsed < Duration::from_secs(1));
            // Both the shape check and the deep static verifier accept
            // every well-formed compile — a misbehaving backend degrades
            // into ExecError instead of a hard panic.
            verify_artifact(backend, &artifact, &arities, true).unwrap_or_else(|e| panic!("{e}"));
            match (backend, artifact) {
                (BackendKind::Bytecode, Artifact::Vm(program)) => {
                    assert!(program.validate().is_ok());
                }
                (_, Artifact::Plan(descriptors)) => {
                    // One descriptor per σπ⋈ leaf, keyed by the plan's ids.
                    let leaves = plan.spj_queries();
                    assert_eq!(descriptors.len(), leaves.len(), "{backend:?}");
                    assert!(leaves.iter().all(|(id, _)| descriptors.contains_key(id)));
                }
                (backend, artifact) => panic!("{backend:?} produced {artifact:?}"),
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
        let err = verify_artifact(BackendKind::Lambda, &vm, &arities, true).unwrap_err();
        assert!(matches!(err, ExecError::UnexpectedArtifact { .. }));
        assert!(err.to_string().contains("unexpected artifact"));
        // So are descriptors claimed by the bytecode backend.
        let plan_artifact = Artifact::Plan(describe(&plan));
        assert!(verify_artifact(BackendKind::Bytecode, &plan_artifact, &arities, true).is_err());
        // Matching pairs pass.
        assert!(verify_artifact(BackendKind::Bytecode, &vm, &arities, true).is_ok());
        assert!(verify_artifact(BackendKind::IrGen, &plan_artifact, &arities, true).is_ok());
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
        let err = verify_artifact(BackendKind::Bytecode, &artifact, &arities, true).unwrap_err();
        assert!(matches!(err, ExecError::Verify { .. }), "{err}");
        assert!(err.to_string().contains("unverifiable"), "{err}");
        // With verification disabled the shape check alone accepts it —
        // the release-mode default unless EngineConfig::with_verify is set.
        assert!(verify_artifact(BackendKind::Bytecode, &artifact, &arities, false).is_ok());
    }

    #[test]
    fn staging_cost_model_orders_cold_above_warm() {
        let model = StagingCostModel::default();
        let cold = model.cost(100, false);
        let warm = model.cost(100, true);
        assert!(cold > warm);
        assert!(model.cost(200, true) > warm);
        assert_eq!(StagingCostModel::free().cost(100, false), Duration::ZERO);
    }

    #[test]
    fn quotes_charges_the_staging_cost() {
        let (_, plan) = tc();
        let staging = StagingCostModel {
            cold_extra: Duration::from_millis(20),
            warm_base: Duration::from_millis(1),
            per_node: Duration::ZERO,
        };
        let (_, cold_time) = compile_artifact(&plan, BackendKind::Quotes, &staging, false).unwrap();
        let (_, warm_time) = compile_artifact(&plan, BackendKind::Quotes, &staging, true).unwrap();
        assert!(cold_time >= Duration::from_millis(20));
        assert!(warm_time < cold_time);
        // Lambda pays no modeled cost at all.
        let (_, lambda_time) =
            compile_artifact(&plan, BackendKind::Lambda, &staging, false).unwrap();
        assert!(lambda_time < Duration::from_millis(20));
    }
}
