//! Cross-crate integration tests: frontend → plan → every execution
//! configuration → identical fixpoints, including the baseline engines.

use carac::exec::JitConfig;
use carac::knobs::{BackendKind, OpKind};
use carac::{Carac, EngineConfig};
use carac_analysis::{
    ackermann, andersen, csda, cspa, fibonacci, inverse_functions, primes, Formulation,
};
use carac_baselines::{DlxConfig, DlxLike, SouffleConfig, SouffleLike, SouffleMode};
use carac_datalog::parser::parse;
use std::time::Duration;

/// Every engine configuration the facade exposes, with its label.
fn all_configs() -> Vec<(String, EngineConfig)> {
    let mut configs = vec![
        EngineConfig::interpreted(),
        EngineConfig::interpreted_unindexed(),
        EngineConfig::ahead_of_time(true, true),
        EngineConfig::ahead_of_time(true, false),
        EngineConfig::ahead_of_time(false, true),
        EngineConfig::ahead_of_time(false, false),
    ];
    for backend in [
        BackendKind::IrGen,
        BackendKind::Lambda,
        BackendKind::Bytecode,
        BackendKind::Quotes,
    ] {
        for async_compile in [false, true] {
            configs.push(EngineConfig::eager_jit(backend, async_compile));
        }
    }
    // The default: the same JIT under the adaptive tier-up policy.
    configs.push(EngineConfig::default());
    let mut labelled: Vec<(String, EngineConfig)> =
        configs.into_iter().map(|c| (c.label(), c)).collect();
    // Every compilation granularity, blocking and async: a node at the
    // granularity is compiled (or pending) as a whole, so the loop and
    // stratum operators must run whichever tier it is in.
    for granularity in [
        OpKind::Program,
        OpKind::Stratum,
        OpKind::DoWhile,
        OpKind::Sequence,
        OpKind::SwapClear,
        OpKind::UnionAllRules,
        OpKind::UnionRule,
        OpKind::Spj,
        OpKind::Aggregate,
    ] {
        for async_compile in [false, true] {
            let config = EngineConfig::jit_with(JitConfig {
                granularity,
                tier_up_work: 0,
                ..JitConfig::labelled(BackendKind::Lambda, async_compile)
            });
            labelled.push((format!("{} @ {granularity:?}", config.label()), config));
        }
    }
    labelled
}

#[test]
fn every_configuration_agrees_on_every_workload() {
    // (workload, output must be non-empty even at this scale): the
    // closed-form micro workloads have known non-empty outputs, so an empty
    // result there is a bug, never a scale artifact.  The graph workloads'
    // headline relations may legitimately be small at these tiny test
    // scales (e.g. few redundant call pairs); their non-emptiness at larger
    // scales is asserted by `carac-analysis`'s own tests.
    let workloads = vec![
        (andersen(28, 3), false),
        (inverse_functions(32, 3), false),
        (cspa(20, 3), false),
        (csda(50, 3), false),
        (ackermann(14), true),
        (fibonacci(14), true),
        (primes(60), true),
    ];
    for (workload, must_be_nonempty) in workloads {
        for formulation in Formulation::BOTH {
            let mut expected: Option<usize> = None;
            for (label, config) in all_configs() {
                let (count, _) = workload
                    .measure(formulation, config)
                    .unwrap_or_else(|e| panic!("{} / {label}: {e}", workload.name));
                match expected {
                    None => expected = Some(count),
                    Some(e) => assert_eq!(
                        count, e,
                        "{} ({formulation:?}) under {label} diverged",
                        workload.name
                    ),
                }
            }
            let expected = expected.unwrap_or_else(|| panic!("{} never ran", workload.name));
            if must_be_nonempty {
                assert!(
                    expected > 0,
                    "{} has a closed-form non-empty output",
                    workload.name
                );
            }
        }
    }
}

#[test]
fn baselines_agree_with_carac() {
    let workload = csda(80, 9);
    let program = workload.program(Formulation::HandOptimized).clone();
    let carac_count = Carac::new(program.clone())
        .with_config(EngineConfig::eager_jit(BackendKind::Lambda, false))
        .run()
        .unwrap()
        .count(workload.output_relation)
        .unwrap();

    let dlx = DlxLike::new(program.clone(), DlxConfig::default())
        .run(workload.output_relation)
        .unwrap();
    assert_eq!(dlx.output_count, carac_count);

    for mode in [
        SouffleMode::Interpreter,
        SouffleMode::Compiler,
        SouffleMode::AutoTuned,
    ] {
        let run = SouffleLike::new(
            program.clone(),
            SouffleConfig {
                mode,
                toolchain_cost: Duration::from_millis(1),
                ..SouffleConfig::default()
            },
        )
        .run(workload.output_relation)
        .unwrap();
        assert_eq!(run.output_count, carac_count, "{mode:?} diverged");
    }
}

#[test]
fn parsed_and_builder_programs_compose_across_crates() {
    // A program written textually, extended with facts through the facade,
    // executed by the JIT, inspected through the symbol table.
    let program = parse(
        r#"
        SameGeneration(x, y) :- Parent(p, x), Parent(p, y).
        SameGeneration(x, y) :- Parent(px, x), SameGeneration(px, py), Parent(py, y).
        Parent("adam", "abel").
        Parent("adam", "cain").
        "#,
    )
    .unwrap();
    let mut engine =
        Carac::new(program).with_config(EngineConfig::eager_jit(BackendKind::Bytecode, false));
    engine.add_fact_ints("Parent", &[7, 8]).unwrap();
    let result = engine.run().unwrap();
    assert!(result
        .contains("SameGeneration", &["abel", "cain"])
        .unwrap());
    assert!(result.contains("SameGeneration", &["8", "8"]).unwrap());
}

#[test]
fn unoptimized_and_optimized_formulations_share_schema() {
    for workload in [cspa(16, 1), andersen(16, 1), inverse_functions(24, 1)] {
        let opt = workload.program(Formulation::HandOptimized);
        let unopt = workload.program(Formulation::Unoptimized);
        assert_eq!(opt.relations().len(), unopt.relations().len());
        assert_eq!(opt.rules().len(), unopt.rules().len());
        assert_eq!(opt.facts().len(), unopt.facts().len());
        // Formulations differ only in atom order: every rule has the same
        // multiset of body relations.
        for (a, b) in opt.rules().iter().zip(unopt.rules()) {
            assert_eq!(a.head.rel, b.head.rel);
            let mut ra: Vec<_> = a.body.iter().map(|l| (l.atom.rel, l.negated)).collect();
            let mut rb: Vec<_> = b.body.iter().map(|l| (l.atom.rel, l.negated)).collect();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
        }
    }
}

#[test]
fn tiny_programs_are_interpreted_until_asked_otherwise() {
    let source = "Path(x, y) :- Edge(x, y).\n\
         Path(x, y) :- Edge(x, z), Path(z, y).\n\
         Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 5). Edge(5, 1).";
    // The default policy never sees enough work to pay for a compilation.
    let adaptive = Carac::new(parse(source).unwrap()).run().unwrap();
    assert_eq!(adaptive.count("Path").unwrap(), 25);
    assert_eq!(adaptive.stats().compilations(), 0);
    assert_eq!(adaptive.stats().reorders, 0);
    assert_eq!(adaptive.stats().compiled_executions, 0);
    // `tier_up_work: 0` compiles every node at its first visit.
    let eager = Carac::new(parse(source).unwrap())
        .with_config(EngineConfig::eager_jit(BackendKind::Lambda, false))
        .run()
        .unwrap();
    assert_eq!(eager.count("Path").unwrap(), 25);
    assert!(eager.stats().compilations() > 0);
    assert_eq!(eager.stats().interpreted_fallbacks, 0);
}

#[test]
fn stats_expose_the_adaptivity_machinery() {
    // Default policy: `cspa(32)` crosses the tier-up threshold on its own.
    let workload = cspa(32, 5);
    let result = workload
        .run(
            Formulation::Unoptimized,
            EngineConfig::jit(BackendKind::Lambda, false),
        )
        .unwrap();
    let stats = result.stats();
    assert!(stats.iterations > 1, "CSPA needs several iterations");
    assert!(
        stats.reorders > 0,
        "the JIT should reorder at least one join"
    );
    assert!(stats.compilations() > 0);
    assert!(stats.compiled_executions > 0);
    assert!(stats.compile_time() <= stats.total_time);
}
