//! Criterion bench for Figure 8: macrobenchmark speedup over the
//! hand-optimized programs (CSDA, where the IRGenerator backend shines).

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{csda, Formulation};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_csda(c: &mut Criterion) {
    let workload = csda(300, 7);
    let mut group = c.benchmark_group("fig8_csda");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for (label, config) in [
        ("interpreted_hand_optimized", EngineConfig::interpreted()),
        (
            "jit_irgen_on_hand_optimized",
            EngineConfig::eager_jit(BackendKind::IrGen, false),
        ),
        (
            "jit_lambda_blocking_on_hand_optimized",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                workload
                    .measure(Formulation::HandOptimized, config)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_csda);
criterion_main!(benches);
