//! Differential tests for goal-directed (magic-set) evaluation.
//!
//! The contract under test: for every program, every relation and every
//! bound/free pattern, `Carac::query` returns exactly the tuples a full
//! fixpoint (`Carac::run`) holds for that relation filtered on the bound
//! constants — across the interpreter, the specialized kernels and the
//! bytecode VM, at 1, 2 and 8 threads.  Programs with negation or
//! aggregation must answer identically too, falling back to full
//! evaluation where demand restriction would be unsound (and reporting the
//! fallback through `RunStats::magic_fallback`).
//!
//! The seed repository drove invariants like these through `proptest`; the
//! offline build replaces the random strategies with seeded generators from
//! `carac-analysis` — the "random adornments over the fig6/fig8 rule sets"
//! suite below explores query patterns reproducibly.

use carac::knobs::BackendKind;
use carac::{Carac, EngineConfig, QueryBinding};
use carac_analysis::generators::random_digraph;
use carac_analysis::rng::SmallRng;
use carac_analysis::{
    andersen, csda, cspa, inverse_functions, shortest_path, Formulation, Workload,
};
use carac_datalog::{Program, ProgramBuilder};
use carac_storage::{Tuple, Value};

const SEED: u64 = 0x000C_A2AC_2026;

/// The engine grid every query must agree on: all three engines
/// (interpreter, specialized Lambda kernels, bytecode VM) at 1, 2 and 8
/// threads, plus the remaining single-threaded modes.
fn engine_grid() -> Vec<(String, EngineConfig)> {
    let mut grid = Vec::new();
    for threads in [1usize, 2, 8] {
        for base in [
            EngineConfig::interpreted(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ] {
            let config = base.with_parallelism(threads);
            grid.push((format!("{} x{threads}", config.label()), config));
        }
    }
    grid.push((
        "Interpreted unindexed".into(),
        EngineConfig::interpreted_unindexed(),
    ));
    grid.push((
        "JIT IRGenerator".into(),
        EngineConfig::eager_jit(BackendKind::IrGen, false),
    ));
    grid.push(("JIT adaptive (default)".into(), EngineConfig::default()));
    grid.push((
        "Macro Facts+Rules (online)".into(),
        EngineConfig::ahead_of_time(true, true),
    ));
    grid
}

/// A cheaper grid for the randomized sweeps: one engine of each kind.
fn engine_grid_small() -> Vec<(String, EngineConfig)> {
    vec![
        ("Interpreted".into(), EngineConfig::interpreted()),
        (
            "JIT Lambda x2".into(),
            EngineConfig::eager_jit(BackendKind::Lambda, false).with_parallelism(2),
        ),
        (
            "JIT Bytecode".into(),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ),
    ]
}

/// The full fixpoint's tuples of `relation`, filtered on `pattern`, sorted.
fn filtered_fixpoint(program: &Program, relation: &str, pattern: &[QueryBinding]) -> Vec<Tuple> {
    let full = Carac::new(program.clone())
        .with_config(EngineConfig::interpreted())
        .run()
        .expect("full fixpoint");
    let mut tuples: Vec<Tuple> = full
        .tuples(relation)
        .expect("relation exists")
        .into_iter()
        .filter(|t| {
            t.values()
                .iter()
                .zip(pattern)
                .all(|(&v, binding)| binding.matches(v))
        })
        .collect();
    tuples.sort();
    tuples
}

/// Asserts the query answers equal the filtered fixpoint on every engine of
/// `grid`; returns whether the engine reported a fallback (identical across
/// engines by construction).
fn assert_query_matches(
    program: &Program,
    relation: &str,
    pattern: &[QueryBinding],
    grid: &[(String, EngineConfig)],
) -> bool {
    let expected = filtered_fixpoint(program, relation, pattern);
    let mut fallback = false;
    for (label, config) in grid {
        let answer = Carac::new(program.clone())
            .with_config(*config)
            .query(relation, pattern)
            .unwrap_or_else(|e| panic!("{label}: query {relation} {pattern:?} failed: {e}"));
        fallback = answer.fallback();
        assert_eq!(
            answer.fallback(),
            answer.stats().magic_fallback,
            "{label}: fallback flag and stats disagree"
        );
        let mut got = answer.into_tuples();
        got.sort();
        assert_eq!(
            got, expected,
            "{label}: query {relation} {pattern:?} diverged from the filtered fixpoint"
        );
    }
    fallback
}

/// Transitive closure over an explicit edge list; `right_linear` picks the
/// formulation whose magic cone is the source's reach set.
fn tc_program(edges: &[(u32, u32)], right_linear: bool) -> Program {
    let mut b = ProgramBuilder::new();
    b.relation("Edge", 2);
    b.relation("Path", 2);
    b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
    if right_linear {
        b.rule("Path", &["x", "y"])
            .when("Path", &["x", "z"])
            .when("Edge", &["z", "y"])
            .end();
    } else {
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
    }
    for &(a, b_) in edges {
        b.fact_ints("Edge", &[a, b_]);
    }
    b.build().expect("tc program validates")
}

#[test]
fn tc_point_queries_agree_on_every_engine_and_thread_count() {
    let edges = random_digraph(40, 60, SEED);
    for right_linear in [true, false] {
        let p = tc_program(&edges, right_linear);
        let grid = engine_grid();
        for pattern in [
            vec![QueryBinding::bound_int(3), QueryBinding::Free],
            vec![QueryBinding::Free, QueryBinding::bound_int(7)],
            vec![QueryBinding::bound_int(3), QueryBinding::bound_int(7)],
            // A source outside the graph: the demanded cone is empty.
            vec![QueryBinding::bound_int(9_999), QueryBinding::Free],
        ] {
            let fallback = assert_query_matches(&p, "Path", &pattern, &grid);
            assert!(!fallback, "plain TC queries must not fall back");
        }
    }
}

#[test]
fn point_source_queries_derive_strictly_fewer_facts() {
    let edges = random_digraph(60, 90, SEED + 1);
    let p = tc_program(&edges, true);
    let full = Carac::new(p.clone())
        .with_config(EngineConfig::interpreted())
        .run()
        .unwrap();
    let answer = Carac::new(p)
        .with_config(EngineConfig::interpreted())
        .query("Path", &[QueryBinding::bound_int(0), QueryBinding::Free])
        .unwrap();
    assert!(!answer.fallback());
    assert!(
        answer.derived_facts() < full.total_tuples(),
        "goal-directed evaluation derived {} facts, full fixpoint holds {}",
        answer.derived_facts(),
        full.total_tuples()
    );
}

/// Seeded random bound/free patterns for `relation`, drawing bound values
/// mostly from the relation's own fixpoint tuples (hits) and occasionally
/// from fresh integers (misses).
fn random_pattern(rng: &mut SmallRng, arity: usize, sample: &[Tuple]) -> Vec<QueryBinding> {
    (0..arity)
        .map(|col| {
            if !rng.gen_bool(0.55) {
                return QueryBinding::Free;
            }
            if !sample.is_empty() && rng.gen_bool(0.8) {
                let t = &sample[rng.gen_range_usize(0, sample.len())];
                QueryBinding::Bound(t.get(col).expect("column within arity"))
            } else {
                QueryBinding::Bound(Value::int(rng.gen_range_u32(0, 64)))
            }
        })
        .collect()
}

/// Property-style sweep: random adornments over one workload's rule set,
/// both formulations, checked against the filtered fixpoint on the reduced
/// engine grid.
fn sweep_workload(workload: &Workload, queries_per_relation: usize, rng: &mut SmallRng) {
    for formulation in Formulation::BOTH {
        let program = workload.program(formulation).clone();
        let full = Carac::new(program.clone())
            .with_config(EngineConfig::interpreted())
            .run()
            .expect("workload fixpoint");
        let grid = engine_grid_small();
        for decl in program.relations().to_vec() {
            let sample = full.tuples(&decl.name).expect("declared relation");
            for _ in 0..queries_per_relation {
                let pattern = random_pattern(rng, decl.arity, &sample);
                if pattern.iter().all(|b| !b.is_bound()) {
                    continue; // all-free is the plain fixpoint, covered elsewhere
                }
                assert_query_matches(&program, &decl.name, &pattern, &grid);
            }
        }
    }
}

#[test]
fn random_adornments_over_the_fig6_fig8_rule_sets() {
    // The figure-6/figure-8 macro rule sets at test scale: CSPA, CSDA,
    // Andersen and the inverse-functions workload (positive recursive
    // programs — the magic path), swept with seeded random adornments.
    let mut rng = SmallRng::seed_from_u64(SEED + 2);
    sweep_workload(&cspa(14, SEED), 2, &mut rng);
    sweep_workload(&csda(40, SEED), 2, &mut rng);
    sweep_workload(&andersen(12, SEED), 2, &mut rng);
    sweep_workload(&inverse_functions(10, SEED), 2, &mut rng);
}

#[test]
fn random_adornments_over_aggregating_workloads_trigger_the_fallback() {
    // Shortest-path carries a `min` aggregate: queries on the aggregated
    // relation (and its hidden input) must fall back to full evaluation —
    // and still answer identically.  Queries on the plain recursive Reach
    // relation stay goal-directed.
    let w = shortest_path(20, 12, SEED + 3);
    let mut rng = SmallRng::seed_from_u64(SEED + 4);
    sweep_workload(&w, 1, &mut rng);
    let program = w.program(Formulation::HandOptimized).clone();
    let grid = engine_grid_small();
    let dist_sample =
        filtered_fixpoint(&program, "Dist", &[QueryBinding::Free, QueryBinding::Free]);
    let bound_y = dist_sample
        .first()
        .and_then(|t| t.get(0))
        .unwrap_or(Value::int(0));
    let fallback = assert_query_matches(
        &program,
        "Dist",
        &[QueryBinding::Bound(bound_y), QueryBinding::Free],
        &grid,
    );
    assert!(fallback, "aggregated goals must report the fallback");
    let fallback = assert_query_matches(
        &program,
        "Reach",
        &[QueryBinding::Bound(bound_y), QueryBinding::Free],
        &grid,
    );
    assert!(
        !fallback,
        "the plain recursive relation stays goal-directed"
    );
}

#[test]
fn negation_keeps_the_negated_relation_full_and_answers_exactly() {
    // Primes by trial division: Composite appears under negation, so
    // queries on it fall back; queries on Prime stay goal-directed but must
    // evaluate Composite fully underneath.
    let mut b = ProgramBuilder::new();
    b.relation("Num", 1);
    b.relation("Div", 2);
    b.relation("Composite", 1);
    b.relation("Prime", 1);
    b.rule("Composite", &["x"]).when("Div", &["x", "d"]).end();
    b.rule("Prime", &["x"])
        .when("Num", &["x"])
        .when_not("Composite", &["x"])
        .end();
    for x in 2..60u32 {
        b.fact_ints("Num", &[x]);
        for d in 2..x {
            if x % d == 0 {
                b.fact_ints("Div", &[x, d]);
            }
        }
    }
    let p = b.build().unwrap();
    let grid = engine_grid();
    let fallback = assert_query_matches(&p, "Prime", &[QueryBinding::bound_int(13)], &grid);
    assert!(!fallback);
    let fallback = assert_query_matches(&p, "Prime", &[QueryBinding::bound_int(12)], &grid); // miss
    assert!(!fallback);
    let fallback = assert_query_matches(&p, "Composite", &[QueryBinding::bound_int(12)], &grid);
    assert!(fallback, "negated relations must fall back");
}

#[test]
fn same_generation_demand_propagates_through_non_linear_rules() {
    // Same-generation exercises demand propagation through a non-linear
    // recursive rule (the bf demand re-enters Sg through Parent).
    let mut b = ProgramBuilder::new();
    b.relation("Parent", 2);
    b.relation("Sg", 2);
    b.rule("Sg", &["x", "y"])
        .when("Parent", &["p", "x"])
        .when("Parent", &["p", "y"])
        .end();
    b.rule("Sg", &["x", "y"])
        .when("Parent", &["px", "x"])
        .when("Sg", &["px", "py"])
        .when("Parent", &["py", "y"])
        .end();
    let mut rng = SmallRng::seed_from_u64(SEED + 5);
    // A shallow random forest: edges parent -> child with parent < child.
    for child in 1..40u32 {
        let parent = rng.gen_range_u32(0, child);
        b.fact_ints("Parent", &[parent, child]);
    }
    let p = b.build().unwrap();
    let grid = engine_grid();
    for pattern in [
        vec![QueryBinding::bound_int(17), QueryBinding::Free],
        vec![QueryBinding::Free, QueryBinding::bound_int(23)],
    ] {
        let fallback = assert_query_matches(&p, "Sg", &pattern, &grid);
        assert!(!fallback);
    }
}
