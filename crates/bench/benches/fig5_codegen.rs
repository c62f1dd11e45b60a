//! Criterion bench for Figure 5: code-generation time per backend.
//!
//! Benchmarks the cost of generating an executable artifact for the CSPA
//! plan with each backend (warm compiler).  The table-printing binary
//! `fig5_codegen` produces the granularity × warm/cold matrix; this bench
//! tracks the backend ordering (Quotes ≫ Bytecode ≈ Lambda ≈ IRGen) over
//! time.

use std::time::Duration;

use carac::exec::backends::{compile_artifact, BackendKind, StagingCostModel};
use carac::ir::{generate_plan, EvalStrategy};
use carac_analysis::Formulation;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_codegen(c: &mut Criterion) {
    let workload = carac_analysis::cspa(48, 7);
    let plan = generate_plan(
        workload.program(Formulation::Unoptimized),
        EvalStrategy::SemiNaive,
    );
    let staging = StagingCostModel::default();

    let mut group = c.benchmark_group("fig5_codegen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for backend in BackendKind::ALL {
        group.bench_function(format!("{backend:?}_full_warm"), |b| {
            b.iter(|| compile_artifact(&plan, backend, &staging, true));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codegen);
criterion_main!(benches);
