//! Exercise every compilation backend on the same query and compare what
//! each one does: compilations performed, re-orderings applied,
//! deoptimizations, descriptors built, and wall-clock time.
//!
//! `IrGen`, `Lambda` and `Quotes` compile a hot node to the same artifact —
//! the descriptors of its re-ordered joins, which the plan walker runs — so
//! they differ only in their label and in `Quotes`' modeled staging cost.
//! `Bytecode` compiles to a VM program and builds no descriptors.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_backends
//! ```

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{inverse_functions, Formulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = inverse_functions(96, 7);
    println!("{} — {}\n", workload.name, workload.description);

    let configs: Vec<EngineConfig> = vec![
        EngineConfig::interpreted(),
        EngineConfig::jit(BackendKind::IrGen, false),
        EngineConfig::jit(BackendKind::Lambda, false),
        EngineConfig::jit(BackendKind::Bytecode, false),
        EngineConfig::jit(BackendKind::Quotes, false),
        EngineConfig::jit(BackendKind::Quotes, true),
    ];

    println!(
        "{:<24} {:>10} {:>8} {:>9} {:>7} {:>11} {:>12}",
        "configuration", "time", "reorder", "compiles", "deopts", "descriptors", "result"
    );
    let mut expected = None;
    for config in configs {
        let label = config.label();
        let result = workload.run(Formulation::Unoptimized, config)?;
        let count = result.count(workload.output_relation)?;
        if let Some(expected) = expected {
            assert_eq!(count, expected, "{label} produced a different result");
        } else {
            expected = Some(count);
        }
        let stats = result.stats();
        println!(
            "{:<24} {:>10.4?} {:>8} {:>9} {:>7} {:>11} {:>12}",
            label,
            stats.total_time,
            stats.reorders,
            stats.compilations(),
            stats.deopts,
            stats.descriptor_builds,
            count
        );
    }
    println!("\nAll configurations derived the same fixpoint.");
    Ok(())
}
