//! Figure 5 — execution time of code generation.
//!
//! Measures how long each backend takes to generate code for subtrees
//! rooted at every IROp granularity of the CSPA plan, for a cold and a warm
//! compiler.  The paper's shape: the quote (staged) backend is the most
//! expensive by a wide margin — especially cold — the bytecode and lambda
//! backends are cheap, and cost grows with the size of the compiled subtree
//! (higher granularities sit higher).  Lambda, Quotes and IRGen build the
//! same descriptor artifact; Quotes adds the modeled staging cost.

use std::time::Duration;

use carac::exec::backends::{compile_artifact, BackendKind, StagingCostModel};
use carac::ir::{generate_plan, EvalStrategy, IRNode, OpKind};
use carac_analysis::Formulation;
use carac_bench::{fmt_secs, render_table, DEFAULT_CSPA_SCALE, HARNESS_SEED};

/// Average code-generation time over `repeats` compilations of `node`.
fn codegen_time(node: &IRNode, backend: BackendKind, warm: bool, repeats: u32) -> Duration {
    let staging = StagingCostModel::default();
    let mut total = Duration::ZERO;
    for _ in 0..repeats {
        let (_, elapsed) =
            compile_artifact(node, backend, &staging, warm).expect("backend compilation succeeds");
        total += elapsed;
    }
    total / repeats
}

fn main() {
    let workload = carac_analysis::cspa(DEFAULT_CSPA_SCALE, HARNESS_SEED);
    let program = workload.program(Formulation::Unoptimized);
    let plan = generate_plan(program, EvalStrategy::SemiNaive);

    let granularities = [
        OpKind::Program,
        OpKind::Stratum,
        OpKind::DoWhile,
        OpKind::UnionAllRules,
        OpKind::UnionRule,
        OpKind::Spj,
        OpKind::SwapClear,
    ];

    let headers = vec![
        "Granularity".to_string(),
        "Subtree nodes".to_string(),
        "Quotes cold".to_string(),
        "Quotes warm".to_string(),
        "Bytecode".to_string(),
        "Lambda".to_string(),
        "IRGen".to_string(),
    ];

    let mut rows = Vec::new();
    for kind in granularities {
        let Some(node_id) = plan.nodes_of_kind(kind).into_iter().next() else {
            continue;
        };
        let node = plan.find(node_id).expect("node exists").clone();
        let row = vec![
            format!("{kind:?}"),
            node.node_count().to_string(),
            fmt_secs(codegen_time(&node, BackendKind::Quotes, false, 3)),
            fmt_secs(codegen_time(&node, BackendKind::Quotes, true, 5)),
            fmt_secs(codegen_time(&node, BackendKind::Bytecode, true, 20)),
            fmt_secs(codegen_time(&node, BackendKind::Lambda, true, 20)),
            fmt_secs(codegen_time(&node, BackendKind::IrGen, true, 20)),
        ];
        eprintln!("[fig5] granularity {kind:?} done");
        rows.push(row);
    }

    println!(
        "{}",
        render_table(
            "Figure 5: code-generation time (s) per compilation granularity and backend",
            &headers,
            &rows
        )
    );
    println!("(the Quotes columns include the modeled staging cost; see DESIGN.md)");
}
