//! Criterion bench for Figure 7: microbenchmark speedup over the
//! unoptimized programs (Fibonacci).

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{fibonacci, Formulation};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_fibonacci(c: &mut Criterion) {
    let workload = fibonacci(25);
    let mut group = c.benchmark_group("fig7_fibonacci");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    for (label, formulation, config) in [
        (
            "interpreted_unoptimized",
            Formulation::Unoptimized,
            EngineConfig::interpreted(),
        ),
        (
            "interpreted_hand_optimized",
            Formulation::HandOptimized,
            EngineConfig::interpreted(),
        ),
        (
            "jit_lambda_blocking_on_unoptimized",
            Formulation::Unoptimized,
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "jit_bytecode_blocking_on_unoptimized",
            Formulation::Unoptimized,
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| workload.measure(formulation, config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fibonacci);
criterion_main!(benches);
