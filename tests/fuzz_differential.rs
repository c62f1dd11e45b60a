//! Seeded program-fuzzing differential harness.
//!
//! Every seed expands (deterministically, via `carac_analysis::fuzz_program`)
//! into a random layered Datalog program + EDB + update stream, and the
//! harness asserts:
//!
//! * **engine agreement** — byte-identical fact sets for every IDB relation
//!   (hidden aggregation inputs included) across the interpreter, the
//!   specialized (lambda) kernels, the bytecode VM and the default adaptive
//!   tiering policy, each at 1, 2 and 8 threads, against the serial
//!   bytecode VM: its cursor loop is the one join loop that does not run on
//!   the specialized kernel's descriptors;
//! * **incremental agreement** — after every update batch, the live
//!   incrementally-maintained session matches a from-scratch evaluation of
//!   the updated EDB;
//! * **independent oracles** — lattice `min`/`max` programs match plain-Rust
//!   BFS / Bellman-fixpoint references, stratified `count` programs match a
//!   reach-restricted counting reference, and (sampled) the two-stratum
//!   shortest-path formulation run through the `SouffleLike` baseline.
//!
//! The default sweep covers seeds `0..200`; set `CARAC_FUZZ_SEEDS=N` to
//! widen it (the CI's scheduled job runs a much larger range).  On any
//! divergence the panic message embeds a self-contained reproducer program
//! plus the update log.

use std::collections::BTreeMap;

use carac::{knobs::BackendKind, Carac, DiagnosticCode, EngineConfig};
use carac_analysis::{fuzz_program, fuzz_program_with_defects, DefectKind, FuzzCase, LatticeKind};
use carac_baselines::{
    bounded_max_walk, bounded_min_dist, bounded_reach_counts, two_stratum_min_dist,
};
use carac_datalog::parser::parse;
use carac_datalog::RuleId;
use carac_storage::Tuple;

fn seed_count() -> u64 {
    std::env::var("CARAC_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// The reference run of the differential sweep: the bytecode VM, whose
/// cursor loop is independent of the specialized kernel every other mode
/// runs its joins on.
fn reference_config() -> EngineConfig {
    EngineConfig::eager_jit(BackendKind::Bytecode, false)
}

/// The engine matrix of the differential sweep: three execution paths
/// (bytecode VM, interpreter, specialized lambda kernels) plus the default
/// adaptive tiering policy, at three thread counts each.  The first entry
/// is [`reference_config`].
fn config_matrix() -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for base in [
        reference_config(),
        EngineConfig::interpreted(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
        EngineConfig::default(),
    ] {
        for threads in [1, 2, 8] {
            configs.push(base.with_parallelism(threads));
        }
    }
    configs
}

fn build_engine(case: &FuzzCase, facts: &[(String, Vec<u32>)], config: EngineConfig) -> Carac {
    let program = parse(&case.source)
        .unwrap_or_else(|e| panic!("fuzzed program failed to parse: {e}\n{}", case.reproducer()));
    let mut engine = Carac::new(program).with_config(config);
    for (relation, values) in facts {
        engine
            .add_fact_ints(relation, values)
            .unwrap_or_else(|e| panic!("fact load failed: {e}\n{}", case.reproducer()));
    }
    engine
}

/// IDB relation names of the case's program, hidden aggregation inputs
/// included.
fn idb_names(engine: &Carac) -> Vec<String> {
    let program = engine.program();
    program
        .idb_relations()
        .into_iter()
        .map(|rel| program.relation(rel).name.clone())
        .collect()
}

/// One full evaluation: every IDB relation's sorted fact set.
fn snapshot(engine: &Carac, case: &FuzzCase) -> BTreeMap<String, Vec<Tuple>> {
    let result = engine
        .run()
        .unwrap_or_else(|e| panic!("evaluation failed: {e}\n{}", case.reproducer()));
    idb_names(engine)
        .into_iter()
        .map(|name| {
            let mut tuples = result.tuples(&name).expect("known relation");
            tuples.sort();
            (name, tuples)
        })
        .collect()
}

/// The live session's current fact sets (after some update batches).
fn live_snapshot(engine: &mut Carac, case: &FuzzCase) -> BTreeMap<String, Vec<Tuple>> {
    idb_names(engine)
        .into_iter()
        .map(|name| {
            let mut tuples = engine
                .live_tuples(&name)
                .unwrap_or_else(|e| panic!("live read failed: {e}\n{}", case.reproducer()));
            tuples.sort();
            (name, tuples)
        })
        .collect()
}

fn pairs_to_tuples(pairs: &[(u32, u32)]) -> Vec<Tuple> {
    let mut tuples: Vec<Tuple> = pairs.iter().map(|&(a, b)| Tuple::pair(a, b)).collect();
    tuples.sort();
    tuples
}

/// Checks the independent plain-Rust oracles against one snapshot taken
/// after `batches` update batches.
fn check_oracles(case: &FuzzCase, facts: &BTreeMap<String, Vec<Tuple>>, batches: usize) {
    let edges = case.binary_facts_after("Edge", batches);
    let starts = case.unary_facts_after("Start", batches);
    match case.lattice {
        Some(LatticeKind::MinDist) => {
            let expected = pairs_to_tuples(&bounded_min_dist(&edges, &starts, case.bound));
            assert_eq!(
                facts["Dist"],
                expected,
                "min lattice diverged from the BFS reference after {batches} batches\n{}",
                case.reproducer()
            );
        }
        Some(LatticeKind::MaxWalk) => {
            let expected = pairs_to_tuples(&bounded_max_walk(&edges, &starts, case.bound));
            assert_eq!(
                facts["Walk"],
                expected,
                "max lattice diverged from the Bellman reference after {batches} batches\n{}",
                case.reproducer()
            );
        }
        None => {}
    }
    if case.counting {
        let expected = pairs_to_tuples(&bounded_reach_counts(&edges, &starts));
        assert_eq!(
            facts["InDeg"],
            expected,
            "stratified count diverged from the counting reference after {batches} batches\n{}",
            case.reproducer()
        );
    }
}

#[test]
fn fuzzed_programs_agree_across_engines_and_threads() {
    for seed in 0..seed_count() {
        let case = fuzz_program(seed);
        let reference = snapshot(&build_engine(&case, &case.facts, reference_config()), &case);
        check_oracles(&case, &reference, 0);
        for config in config_matrix().into_iter().skip(1) {
            let label = config.label();
            let threads = config.parallelism;
            let got = snapshot(&build_engine(&case, &case.facts, config), &case);
            assert_eq!(
                got,
                reference,
                "seed {seed}: {label} x{threads} diverged from the bytecode VM\n{}",
                case.reproducer()
            );
        }
    }
}

#[test]
fn fuzzed_update_streams_match_from_scratch() {
    for seed in 0..seed_count() {
        let case = fuzz_program(seed);
        // An interpreted live session on every seed; a compiled one sampled
        // (every mode maintains through the same specialized kernel).
        let mut kernels = vec![EngineConfig::interpreted()];
        if seed % 5 == 0 {
            kernels.push(EngineConfig::eager_jit(BackendKind::Lambda, false));
        }
        for config in kernels {
            let label = config.label();
            let mut live = build_engine(&case, &case.facts, config);
            live.run_live()
                .unwrap_or_else(|e| panic!("run_live failed: {e}\n{}", case.reproducer()));
            for (k, batch) in case.batches.iter().enumerate() {
                let mut update = carac::UpdateBatch::new();
                let program_rel = |name: &str| {
                    live.program()
                        .relation_by_name(name)
                        .expect("fuzzed relation exists")
                };
                for op in batch {
                    let rel = program_rel(&op.relation);
                    let tuple = Tuple::new(
                        op.values
                            .iter()
                            .map(|&v| carac_storage::Value::int(v))
                            .collect(),
                    );
                    if op.insert {
                        update.insert(rel, tuple);
                    } else {
                        update.retract(rel, tuple);
                    }
                }
                live.apply_update(update)
                    .unwrap_or_else(|e| panic!("apply_update failed: {e}\n{}", case.reproducer()));
                let got = live_snapshot(&mut live, &case);
                let scratch = snapshot(
                    &build_engine(&case, &case.facts_after(k + 1), reference_config()),
                    &case,
                );
                assert_eq!(
                    got,
                    scratch,
                    "seed {seed}: {label} live session diverged from scratch after batch {k}\n{}",
                    case.reproducer()
                );
                check_oracles(&case, &got, k + 1);
            }
        }
    }
}

/// Builds one `UpdateBatch` from a fuzzed op batch.
fn to_update_batch(engine: &Carac, batch: &[carac_analysis::FuzzOp]) -> carac::UpdateBatch {
    let mut update = carac::UpdateBatch::new();
    for op in batch {
        let rel = engine
            .program()
            .relation_by_name(&op.relation)
            .expect("fuzzed relation exists");
        let tuple = Tuple::new(
            op.values
                .iter()
                .map(|&v| carac_storage::Value::int(v))
                .collect(),
        );
        if op.insert {
            update.insert(rel, tuple);
        } else {
            update.retract(rel, tuple);
        }
    }
    update
}

#[test]
fn injected_defects_are_all_detected_and_pruning_stays_identical() {
    for seed in 0..seed_count() {
        let (case, defects) = fuzz_program_with_defects(seed);

        // 1. The analyzer flags every injected defect with the matching
        //    code on the exact injected rule.  `Carac::analyze` seeds the
        //    non-emptiness facts from the loaded EDB.
        let engine = build_engine(&case, &case.facts, reference_config());
        let analysis = engine.analyze();
        for defect in &defects {
            let expected = match defect.kind {
                DefectKind::UnsatisfiableRule => DiagnosticCode::UnsatisfiableRule,
                DefectKind::DeadRule => DiagnosticCode::DeadRule,
                DefectKind::DuplicateRule => DiagnosticCode::DuplicateRule,
                DefectKind::SubsumedRule => DiagnosticCode::SubsumedRule,
            };
            assert!(
                analysis
                    .diagnostics
                    .iter()
                    .any(|d| d.code == expected
                        && d.rule == Some(RuleId(defect.rule_index as u32))),
                "seed {seed}: analyzer missed injected {:?} on rule {} ({})\n\
                 diagnostics: {:#?}\n{}",
                defect.kind,
                defect.rule_index,
                defect.rule,
                analysis.diagnostics,
                case.reproducer()
            );
        }

        // 2. Pruning is invisible in the results: byte-identical fact sets
        //    across the full engine/thread matrix.
        let reference = snapshot(&engine, &case);
        for config in config_matrix() {
            let label = config.label();
            let threads = config.parallelism;
            let got = snapshot(
                &build_engine(&case, &case.facts, config.with_prune()),
                &case,
            );
            assert_eq!(
                got,
                reference,
                "seed {seed}: {label} x{threads} with pruning diverged\n{}",
                case.reproducer()
            );
        }

        // 3. Sampled: the pruned live session agrees with the unpruned one
        //    after every update batch (live pruning only drops
        //    update-independent defects).
        if seed % 5 == 0 {
            let mut plain = build_engine(&case, &case.facts, EngineConfig::interpreted());
            let mut pruned =
                build_engine(&case, &case.facts, EngineConfig::interpreted().with_prune());
            for (k, batch) in case.batches.iter().enumerate() {
                for engine in [&mut plain, &mut pruned] {
                    let update = to_update_batch(engine, batch);
                    engine.apply_update(update).unwrap_or_else(|e| {
                        panic!("apply_update failed: {e}\n{}", case.reproducer())
                    });
                }
                let a = live_snapshot(&mut plain, &case);
                let b = live_snapshot(&mut pruned, &case);
                assert_eq!(
                    a,
                    b,
                    "seed {seed}: pruned live session diverged after batch {k}\n{}",
                    case.reproducer()
                );
            }
        }
    }
}

#[test]
fn sampled_seeds_agree_with_the_two_stratum_baseline() {
    // The SouffleLike baseline evaluates the classic two-stratum
    // formulation — an engine-grade oracle, sampled to keep the sweep fast.
    for seed in (0..seed_count()).step_by(10) {
        let case = fuzz_program(seed);
        if case.lattice != Some(LatticeKind::MinDist) {
            continue;
        }
        let edges = case.binary_facts_after("Edge", 0);
        let starts = case.unary_facts_after("Start", 0);
        let baseline = two_stratum_min_dist(&edges, &starts, case.bound)
            .unwrap_or_else(|e| panic!("baseline failed: {e}\n{}", case.reproducer()));
        let reference = snapshot(&build_engine(&case, &case.facts, reference_config()), &case);
        assert_eq!(
            reference["Dist"].len(),
            baseline,
            "seed {seed}: lattice Dist cardinality diverged from the two-stratum baseline\n{}",
            case.reproducer()
        );
    }
}
