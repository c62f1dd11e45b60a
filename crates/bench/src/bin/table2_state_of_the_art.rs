//! Table II — comparison with the state of the art.
//!
//! Reproduces the paper's Table II on the InvFuns, CSDA and CSPA workloads:
//! the DLX-like static engine, the Soufflé-like engine in interpreter,
//! compiler and auto-tuned modes, and Carac's JIT.  The Soufflé-like
//! compiled modes pay a modeled toolchain-invocation cost (see DESIGN.md);
//! the expected shape is that Carac wins clearly on the short InvFuns query
//! (where the AOT toolchain cost dominates) while the AOT engine closes the
//! gap — and can win — on the long-running closure-heavy workloads.

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::Formulation;
use carac_baselines::{DlxConfig, DlxLike, SouffleConfig, SouffleLike, SouffleMode};
use carac_bench::{figure_csda, figure_macro_workloads, fmt_secs, render_table};

fn main() {
    let macro_workloads = figure_macro_workloads();
    let invfuns = macro_workloads
        .iter()
        .find(|w| w.name == "InvFuns")
        .expect("InvFuns workload present")
        .clone();
    let cspa = macro_workloads
        .iter()
        .find(|w| w.name == "CSPA")
        .expect("CSPA workload present")
        .clone();
    let csda = figure_csda();

    let toolchain_cost = Duration::from_millis(
        std::env::var("CARAC_TOOLCHAIN_COST_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(400),
    );

    let headers = vec![
        "Benchmark".to_string(),
        "DLX".to_string(),
        "Souffle Interp".to_string(),
        "Souffle Compile".to_string(),
        "Souffle AutoTuned".to_string(),
        "Carac JIT".to_string(),
        "|output|".to_string(),
    ];
    let mut rows = Vec::new();

    for workload in [&invfuns, &csda, &cspa] {
        // All baselines consume the hand-optimized formulation — external
        // engines receive the program as its author wrote it.
        let program = workload.program(Formulation::HandOptimized).clone();
        let mut row = vec![workload.name.to_string()];
        let mut counts = Vec::new();

        let dlx = DlxLike::new(program.clone(), DlxConfig::default())
            .run(workload.output_relation)
            .expect("DLX run");
        row.push(fmt_secs(dlx.time));
        counts.push(dlx.output_count);

        for mode in [
            SouffleMode::Interpreter,
            SouffleMode::Compiler,
            SouffleMode::AutoTuned,
        ] {
            let run = SouffleLike::new(
                program.clone(),
                SouffleConfig {
                    mode,
                    toolchain_cost,
                    ..SouffleConfig::default()
                },
            )
            .run(workload.output_relation)
            .expect("Souffle-like run");
            row.push(fmt_secs(run.time));
            counts.push(run.output_count);
        }

        let (count, time) = carac_bench::measure(
            workload,
            Formulation::HandOptimized,
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            2,
        );
        row.push(fmt_secs(time));
        counts.push(count);

        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: engines disagree on the result size: {counts:?}",
            workload.name
        );
        row.push(counts[0].to_string());
        rows.push(row);
        eprintln!("[table2] finished {}", workload.name);
    }

    println!(
        "{}",
        render_table(
            "Table II: average execution time (s) of DLX-like, Souffle-like and Carac",
            &headers,
            &rows
        )
    );
    println!(
        "(Souffle-like compiled modes include a modeled toolchain cost of {} ms; \
         set CARAC_TOOLCHAIN_COST_MS to change it.)",
        toolchain_cost.as_millis()
    );
}
