//! Mutation-fuzz proof of the artifact verifiers.
//!
//! Every seed expands (via `carac_analysis::fuzz_program`) into a random
//! layered Datalog program, whose generated plan and compiled bytecode are
//! then perturbed with `carac_analysis::mutate`.  The harness asserts the
//! verifier soundness bar of the cross-layer verification work:
//!
//! * **Zero false positives** — the unmutated plan and bytecode of every
//!   seed verify clean, and all 18 shipped figure workloads (9 programs ×
//!   2 formulations) verify clean at both the IR and bytecode layer,
//!   including the async-compiled and magic-rewritten engine paths.
//! * **100% rejection of semantics-breaking mutants** — every mutation
//!   tagged `MustReject` (dangling jumps, unbound reads, schema breaks,
//!   undischargeable loops, stratification violations) is rejected
//!   *statically*, before any execution.  An acceptance panics with a
//!   self-contained dump (program source + mutation + rendered artifact).
//! * **Accepted mutants change nothing** — when the verifier accepts a
//!   mutant (telemetry payloads, join-order permutations, dead loads), its
//!   derived fact set is bit-identical to the original across the plan
//!   walker (at 1, 2 and 8 worker threads; it runs the same descriptors as
//!   every compiled artifact outside the VM) and the bytecode VM.
//!
//! The default sweep covers seeds `0..200`; `CARAC_FUZZ_SEEDS=N` widens it.

use std::collections::BTreeMap;

use carac::exec::JitConfig;
use carac::knobs::{BackendKind, StagingCostModel};
use carac::{Carac, EngineConfig, QueryBinding};
use carac_analysis::{fuzz_program, mutate_plan, mutate_vm, Expectation, FuzzCase, Workload};
use carac_datalog::parser::parse;
use carac_datalog::Program;
use carac_exec::{interpreter, ExecContext};
use carac_ir::{generate_plan, verify_plan, EvalStrategy, IRNode};
use carac_storage::{Tuple, Value};
use carac_vm::{compile_node, verify_program, Instr, Machine, VerifyError, VmProgram};

fn seed_count() -> u64 {
    std::env::var("CARAC_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

fn arities(program: &Program) -> Vec<usize> {
    program.relations().iter().map(|d| d.arity).collect()
}

/// A prepared context with the fuzz case's EDB loaded.
fn context(program: &Program, facts: &[(String, Vec<u32>)]) -> ExecContext {
    let mut ctx = ExecContext::prepare(program, true).expect("context prepares");
    for (relation, values) in facts {
        let rel = program.relation_by_name(relation).expect("fuzzed relation");
        let tuple = Tuple::new(values.iter().map(|&v| Value::int(v)).collect());
        ctx.insert_fact(rel, tuple).expect("fact inserts");
    }
    ctx
}

/// Sorted derived fact set of every IDB relation.
fn collect(program: &Program, ctx: &ExecContext) -> BTreeMap<String, Vec<Tuple>> {
    program
        .idb_relations()
        .into_iter()
        .map(|rel| {
            let mut tuples = ctx.derived_tuples(rel);
            tuples.sort();
            (program.relation(rel).name.clone(), tuples)
        })
        .collect()
}

/// Interprets `plan` over the case's EDB at the given worker count.
fn run_interpreted(
    program: &Program,
    facts: &[(String, Vec<u32>)],
    plan: &IRNode,
    threads: usize,
) -> BTreeMap<String, Vec<Tuple>> {
    let mut ctx = context(program, facts);
    ctx.set_parallelism(threads).expect("sharding");
    interpreter::interpret(plan, &mut ctx).expect("interpretation succeeds");
    collect(program, &ctx)
}

/// Runs a bytecode program on the VM over the case's EDB.
fn run_vm(
    program: &Program,
    facts: &[(String, Vec<u32>)],
    vm: &VmProgram,
) -> BTreeMap<String, Vec<Tuple>> {
    let mut ctx = context(program, facts);
    let mut machine = Machine::for_program(vm);
    machine
        .run(vm, &mut ctx.storage)
        .expect("verified bytecode runs without trapping");
    collect(program, &ctx)
}

fn dump_vm(case: &FuzzCase, kind: &str, description: &str, vm: &VmProgram) -> String {
    format!(
        "mutation: {kind} — {description}\nbytecode:\n{vm}\n{}",
        case.reproducer()
    )
}

#[test]
fn semantics_breaking_mutants_are_rejected_and_accepted_mutants_change_nothing() {
    let mut plan_rejected = 0u64;
    let mut vm_rejected = 0u64;
    let mut accepted_diffed = 0u64;
    for seed in 0..seed_count() {
        let case = fuzz_program(seed);
        let program = parse(&case.source).unwrap_or_else(|e| {
            panic!("fuzzed program failed to parse: {e}\n{}", case.reproducer())
        });
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let schema = arities(&program);

        // Zero false positives on the unmutated artifacts of every seed.
        verify_plan(&plan, &program).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: clean plan rejected: {e}\n{}",
                case.reproducer()
            )
        });
        let vm = compile_node(&plan)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{}", case.reproducer()));
        verify_program(&vm, &schema).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: clean bytecode rejected: {e}\n{}",
                dump_vm(&case, "none", "unmutated", &vm)
            )
        });

        // Shared reference: the interpreter on the unmutated plan.
        let mut reference: Option<BTreeMap<String, Vec<Tuple>>> = None;
        let mut reference = |program: &Program, facts: &[(String, Vec<u32>)]| {
            reference
                .get_or_insert_with(|| run_interpreted(program, facts, &plan, 1))
                .clone()
        };

        // Layer 1: the IR plan verifier against plan mutants.
        if let Some((mutant, mutation)) = mutate_plan(&plan, seed) {
            match verify_plan(&mutant, &program) {
                Err(_) if mutation.expectation == Expectation::MustReject => plan_rejected += 1,
                Err(e) => panic!(
                    "seed {seed}: semantics-preserving plan mutant rejected: {e}\n\
                     mutation: {} — {}\n{}",
                    mutation.kind,
                    mutation.description,
                    case.reproducer()
                ),
                Ok(()) if mutation.expectation == Expectation::MustReject => panic!(
                    "seed {seed}: SOUNDNESS HOLE — breaking plan mutant accepted\n\
                     mutation: {} — {}\nmutant plan: {mutant:#?}\n{}",
                    mutation.kind,
                    mutation.description,
                    case.reproducer()
                ),
                Ok(()) => {
                    // Accepted mutants must be invisible in the results,
                    // across engines and thread counts.
                    let expected = reference(&program, &case.facts);
                    for threads in [1usize, 2, 8] {
                        let got = run_interpreted(&program, &case.facts, &mutant, threads);
                        assert_eq!(
                            got,
                            expected,
                            "seed {seed}: accepted plan mutant diverged (interpreter x{threads})\n\
                             mutation: {} — {}\n{}",
                            mutation.kind,
                            mutation.description,
                            case.reproducer()
                        );
                    }
                    let mutant_vm = compile_node(&mutant).unwrap_or_else(|e| {
                        panic!("seed {seed}: accepted mutant failed to compile: {e}")
                    });
                    verify_program(&mutant_vm, &schema).unwrap_or_else(|e| {
                        panic!(
                            "seed {seed}: bytecode of accepted plan mutant rejected: {e}\n{}",
                            dump_vm(&case, mutation.kind, &mutation.description, &mutant_vm)
                        )
                    });
                    let vm_result = run_vm(&program, &case.facts, &mutant_vm);
                    assert_eq!(
                        vm_result,
                        expected,
                        "seed {seed}: accepted plan mutant diverged (bytecode VM)\n\
                         mutation: {} — {}\n{}",
                        mutation.kind,
                        mutation.description,
                        case.reproducer()
                    );
                    accepted_diffed += 1;
                }
            }
        }

        // Layer 2: the bytecode verifier against VM mutants.
        if let Some((mutant, mutation)) = mutate_vm(&vm, &schema, seed) {
            match verify_program(&mutant, &schema) {
                Err(_) if mutation.expectation == Expectation::MustReject => vm_rejected += 1,
                Err(e) => panic!(
                    "seed {seed}: semantics-preserving bytecode mutant rejected: {e}\n{}",
                    dump_vm(&case, mutation.kind, &mutation.description, &mutant)
                ),
                Ok(()) if mutation.expectation == Expectation::MustReject => panic!(
                    "seed {seed}: SOUNDNESS HOLE — breaking bytecode mutant accepted\n{}",
                    dump_vm(&case, mutation.kind, &mutation.description, &mutant)
                ),
                Ok(()) => {
                    let expected = reference(&program, &case.facts);
                    let got = run_vm(&program, &case.facts, &mutant);
                    assert_eq!(
                        got,
                        expected,
                        "seed {seed}: accepted bytecode mutant diverged\n{}",
                        dump_vm(&case, mutation.kind, &mutation.description, &mutant)
                    );
                    accepted_diffed += 1;
                }
            }
        }
    }
    // The sweep must exercise both sides of the proof: plenty of rejected
    // breaking mutants at each layer, and enough accepted mutants that the
    // bit-identical check is not vacuous.
    let seeds = seed_count();
    assert!(
        plan_rejected >= seeds / 4,
        "only {plan_rejected}/{seeds} plan mutants were rejected-breaking"
    );
    assert!(
        vm_rejected >= seeds / 4,
        "only {vm_rejected}/{seeds} bytecode mutants were rejected-breaking"
    );
    assert!(
        accepted_diffed >= 5,
        "only {accepted_diffed} accepted mutants exercised the differential"
    );
}

/// The nine figure programs at harness scale — small enough for a debug
/// sweep, structurally identical to the benchmark versions.
fn figure_workloads() -> Vec<Workload> {
    vec![
        carac_analysis::andersen(6, 1),
        carac_analysis::inverse_functions(6, 1),
        carac_analysis::cspa(4, 1),
        carac_analysis::degree_distribution(16, 1),
        carac_analysis::shortest_path(16, 8, 1),
        carac_analysis::csda(24, 1),
        carac_analysis::ackermann(3),
        carac_analysis::fibonacci(12),
        carac_analysis::primes(60),
    ]
}

#[test]
fn all_figure_workloads_verify_clean_at_both_layers() {
    let mut checked = 0;
    for workload in figure_workloads() {
        for formulation in carac_analysis::Formulation::BOTH {
            let program = workload.program(formulation);
            let plan = generate_plan(program, EvalStrategy::SemiNaive);
            verify_plan(&plan, program).unwrap_or_else(|e| {
                panic!("{} ({formulation:?}): plan rejected: {e}", workload.name)
            });
            let vm = compile_node(&plan)
                .unwrap_or_else(|e| panic!("{} ({formulation:?}): compile: {e}", workload.name));
            verify_program(&vm, &arities(program)).unwrap_or_else(|e| {
                panic!(
                    "{} ({formulation:?}): bytecode rejected: {e}\n{vm}",
                    workload.name
                )
            });
            checked += 1;
        }
    }
    assert_eq!(
        checked, 18,
        "the figure suite is 9 programs x 2 formulations"
    );
}

#[test]
fn engine_paths_verify_clean_with_verification_forced_on() {
    // End-to-end: the JIT install paths (blocking and async, every backend)
    // and the magic-rewritten query path all run their artifacts through
    // the verifier when `with_verify(true)` is set, and nothing is
    // rejected.
    let workload = carac_analysis::cspa(4, 1);
    let program = workload.program(carac_analysis::Formulation::HandOptimized);
    // `cspa(4)` is far below the default tier-up threshold: pinned to
    // compile-at-first-visit the install paths run; the default adaptive
    // policy is one more column.
    let descriptors = |backend, async_compile| {
        EngineConfig::jit_with(JitConfig {
            tier_up_work: 0,
            staging: StagingCostModel::free(),
            ..JitConfig::labelled(backend, async_compile)
        })
    };
    for config in [
        descriptors(BackendKind::Lambda, false),
        descriptors(BackendKind::Lambda, true),
        descriptors(BackendKind::Quotes, false),
        descriptors(BackendKind::Quotes, true),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
        EngineConfig::eager_jit(BackendKind::Bytecode, true),
        EngineConfig::eager_jit(BackendKind::IrGen, false),
        EngineConfig::default(),
        EngineConfig::ahead_of_time(true, true),
    ] {
        let label = config.label();
        workload
            .run(
                carac_analysis::Formulation::HandOptimized,
                config.with_verify(true),
            )
            .unwrap_or_else(|e| panic!("{label}: verified run failed: {e}"));
    }
    // The goal-directed query path verifies its magic-rewritten plan.
    let engine =
        Carac::new(program.clone()).with_config(EngineConfig::interpreted().with_verify(true));
    engine
        .query("VAlias", &[QueryBinding::bound_int(1), QueryBinding::Free])
        .expect("magic-rewritten query verifies and runs");
}

/// A `Distinct` (the projection skip of a join level whose bound variables
/// die) may only key on registers its level has written: the mutation that
/// points one at a never-written register is always rejected.
#[test]
fn a_distinct_reading_an_undefined_register_is_rejected() {
    let workload = carac_analysis::cspa(4, 1);
    let program = workload.program(carac_analysis::Formulation::HandOptimized);
    let plan = generate_plan(program, EvalStrategy::SemiNaive);
    let vm = compile_node(&plan).expect("CSPA compiles");
    let schema = arities(program);
    assert!(
        vm.instrs
            .iter()
            .any(|i| matches!(i, Instr::Distinct { .. })),
        "CSPA's 3-atom joins compile to no Distinct:\n{vm}"
    );
    let mut rejected = 0;
    for seed in 0..512 {
        let Some((mutant, mutation)) = mutate_vm(&vm, &schema, seed) else {
            continue;
        };
        if mutation.kind != "vm-distinct-undefined-reg" {
            continue;
        }
        assert_eq!(mutation.expectation, Expectation::MustReject);
        assert!(
            matches!(
                verify_program(&mutant, &schema),
                Err(VerifyError::UninitializedRead { .. })
            ),
            "seed {seed}: {} accepted\n{mutant}",
            mutation.description
        );
        rejected += 1;
    }
    assert!(rejected > 0, "the operator never fired");
}
