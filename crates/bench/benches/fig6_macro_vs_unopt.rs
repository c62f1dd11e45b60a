//! Criterion bench for Figure 6: macrobenchmark speedup over the
//! unoptimized programs (small-scale Andersen points-to).
//!
//! The full figure is produced by the `fig6_macro_vs_unopt` binary; this
//! bench tracks the key comparison — interpreted unoptimized vs.
//! hand-optimized vs. the adaptive JIT — on one macro workload at a scale
//! small enough for continuous benchmarking.

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{andersen, Formulation};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_andersen(c: &mut Criterion) {
    let workload = andersen(40, 7);
    let mut group = c.benchmark_group("fig6_andersen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function("interpreted_unoptimized", |b| {
        b.iter(|| {
            workload
                .measure(Formulation::Unoptimized, EngineConfig::interpreted())
                .unwrap()
        });
    });
    group.bench_function("interpreted_hand_optimized", |b| {
        b.iter(|| {
            workload
                .measure(Formulation::HandOptimized, EngineConfig::interpreted())
                .unwrap()
        });
    });
    group.bench_function("jit_lambda_blocking_on_unoptimized", |b| {
        b.iter(|| {
            workload
                .measure(
                    Formulation::Unoptimized,
                    EngineConfig::eager_jit(BackendKind::Lambda, false),
                )
                .unwrap()
        });
    });
    group.bench_function("jit_irgen_on_unoptimized", |b| {
        b.iter(|| {
            workload
                .measure(
                    Formulation::Unoptimized,
                    EngineConfig::eager_jit(BackendKind::IrGen, false),
                )
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_andersen);
criterion_main!(benches);
