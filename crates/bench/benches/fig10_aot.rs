//! Criterion bench for Figure 10: ahead-of-time ("macro") vs. online
//! optimization on a microbenchmark (Fibonacci).

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{fibonacci, Formulation};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_aot(c: &mut Criterion) {
    let workload = fibonacci(25);
    let mut group = c.benchmark_group("fig10_fibonacci_aot");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    for (label, config) in [
        (
            "jit_lambda",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "macro_facts_rules_online",
            EngineConfig::ahead_of_time(true, true),
        ),
        (
            "macro_rules_online",
            EngineConfig::ahead_of_time(false, true),
        ),
        (
            "macro_facts_rules",
            EngineConfig::ahead_of_time(true, false),
        ),
        ("macro_rules", EngineConfig::ahead_of_time(false, false)),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| workload.measure(Formulation::Unoptimized, config).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aot);
criterion_main!(benches);
