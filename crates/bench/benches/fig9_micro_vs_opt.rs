//! Criterion bench for Figure 9: microbenchmark speedup (or slowdown) over
//! the hand-optimized programs (Ackermann — the paper's worst case for
//! optimization overhead).

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{ackermann, Formulation};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ackermann(c: &mut Criterion) {
    let workload = ackermann(18);
    let mut group = c.benchmark_group("fig9_ackermann");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    for (label, config) in [
        ("interpreted_hand_optimized", EngineConfig::interpreted()),
        (
            "jit_lambda_blocking_on_hand_optimized",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "jit_quotes_blocking_on_hand_optimized",
            EngineConfig::eager_jit(BackendKind::Quotes, false),
        ),
        (
            "jit_quotes_async_on_hand_optimized",
            EngineConfig::eager_jit(BackendKind::Quotes, true),
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

criterion_group!(benches, bench_ackermann);
criterion_main!(benches);
