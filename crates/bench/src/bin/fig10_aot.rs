//! Figure 10 — ahead-of-time ("macro") and online compilation on the
//! microbenchmarks.
//!
//! Compares, against the interpreted unoptimized baseline:
//!
//! * `JIT-lambda` — purely online optimization (no information before the
//!   query starts),
//! * `Macro Facts+Rules (online)` / `Macro Rules (online)` — the plan is
//!   sorted ahead of time (with or without fact cardinalities) and the
//!   online IRGenerator re-sorting is injected,
//! * `Macro Facts+Rules` / `Macro Rules` — offline sorting only.
//!
//! The paper's shape: everything beats the unoptimized baseline; knowing
//! facts ahead of time usually (not always) helps; combining offline and
//! online optimization is usually the best of the macro variants; JIT-lambda
//! is competitive because it avoids the tree-traversal overhead that the
//! macro variants keep.

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::Formulation;
use carac_bench::{figure_micro_workloads, fmt_speedup, measure, speedup, FigureReport};

fn main() {
    let workloads = figure_micro_workloads();
    let configs: Vec<(&str, EngineConfig)> = vec![
        (
            "JIT-lambda",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "Macro Facts+Rules (online)",
            EngineConfig::ahead_of_time(true, true),
        ),
        (
            "Macro Rules (online)",
            EngineConfig::ahead_of_time(false, true),
        ),
        (
            "Macro Facts+Rules",
            EngineConfig::ahead_of_time(true, false),
        ),
        ("Macro Rules", EngineConfig::ahead_of_time(false, false)),
    ];

    let mut headers = vec!["Configuration".to_string()];
    for w in &workloads {
        headers.push(w.name.to_string());
    }

    // Baseline: interpreted unoptimized program (indexed).
    let mut baselines = Vec::new();
    for w in &workloads {
        let (_, t) = measure(w, Formulation::Unoptimized, EngineConfig::interpreted(), 3);
        baselines.push(t);
    }

    let mut report = FigureReport::new(
        "fig10",
        "Figure 10: microbenchmarks — ahead-of-time and online compilation (speedup over unoptimized)",
        headers,
    );
    for (label, config) in configs {
        let mut row = vec![label.to_string()];
        for (w, base) in workloads.iter().zip(&baselines) {
            let (_, t) = measure(w, Formulation::Unoptimized, config, 3);
            row.push(fmt_speedup(speedup(*base, t)));
        }
        eprintln!("[fig10] configuration `{label}` done");
        report.push_row(row, vec![]);
    }
    report.print();
}
