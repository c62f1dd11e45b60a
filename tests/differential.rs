//! Differential testing: on deterministic generated fact sets, every
//! execution path (interpreter, all JIT backends, AOT, the bytecode VM) must
//! compute exactly the same fixpoint, the fixpoint must satisfy the semantic
//! invariants of the query, and — the parallel-evaluation contract — serial
//! and sharded-parallel runs must be bit-identical.
//!
//! The inputs are far below the JIT's default tier-up threshold, so the
//! per-backend columns compile at first visit (`EngineConfig::eager_jit`) —
//! every program really executes the backend's artifact — and the default
//! adaptive policy (`EngineConfig::default()`) is a column of its own.
//!
//! The seed repository drove these properties through `proptest`; the
//! offline build replaces the random strategies with seeded generators from
//! `carac-analysis`, which explore the same input space reproducibly.

use carac::knobs::BackendKind;
use carac::{Carac, EngineConfig};
use carac_analysis::generators::random_digraph;
use carac_analysis::{
    andersen, csda, cspa, degree_distribution, inverse_functions, shortest_path, Formulation,
};
use carac_datalog::{parser::parse, DatalogError, Program, ProgramBuilder};

/// Builds the transitive-closure program over a given edge list.
fn tc_program(edges: &[(u32, u32)]) -> Program {
    let mut b = ProgramBuilder::new();
    b.relation("Edge", 2);
    b.relation("Path", 2);
    b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
    b.rule("Path", &["x", "y"])
        .when("Edge", &["x", "z"])
        .when("Path", &["z", "y"])
        .end();
    for &(a, b_) in edges {
        b.fact_ints("Edge", &[a, b_]);
    }
    b.build().unwrap()
}

/// Reference transitive closure computed directly in Rust.
fn closure_reference(edges: &[(u32, u32)], nodes: u32) -> usize {
    let n = nodes as usize;
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a as usize][b as usize] = true;
    }
    // Floyd–Warshall style closure.
    for k in 0..n {
        let row_k = reach[k].clone();
        for row_i in &mut reach {
            if row_i[k] {
                for (slot, &via_k) in row_i.iter_mut().zip(&row_k) {
                    *slot = *slot || via_k;
                }
            }
        }
    }
    reach.iter().flatten().filter(|&&r| r).count()
}

/// Seeded edge lists covering empty, sparse, dense and cyclic graphs.
fn edge_cases(nodes: u32) -> Vec<Vec<(u32, u32)>> {
    let mut cases = vec![
        Vec::new(),
        vec![(0, 1)],
        (0..nodes - 1).map(|i| (i, i + 1)).collect(),
        (0..nodes).map(|i| (i, (i + 1) % nodes)).collect(),
    ];
    for seed in 0..12u64 {
        let edges = ((seed as usize) % 4 + 1) * nodes as usize;
        cases.push(random_digraph(nodes, edges, seed));
    }
    cases
}

/// Transitive closure: every engine configuration equals the Floyd–Warshall
/// reference.
#[test]
fn transitive_closure_matches_reference() {
    for edges in edge_cases(12) {
        let program = tc_program(&edges);
        let expected = closure_reference(&edges, 12);
        let configs = [
            EngineConfig::interpreted(),
            EngineConfig::interpreted_unindexed(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
            EngineConfig::eager_jit(BackendKind::IrGen, false),
            EngineConfig::default(),
            EngineConfig::ahead_of_time(true, true),
        ];
        for config in configs {
            let label = config.label();
            let result = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            assert_eq!(result.count("Path").unwrap(), expected, "{label} diverged");
        }
    }
}

/// Stratified negation: Reach ∪ Unreached must partition the node set, for
/// every engine configuration.
#[test]
fn negation_partitions_the_domain() {
    for seed in 0..8u64 {
        let edges = random_digraph(10, 24, seed);
        let seeds: Vec<u32> = vec![(seed % 10) as u32, ((seed * 3 + 1) % 10) as u32];
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Node", 1);
        b.relation("Seed", 1);
        b.relation("Reach", 1);
        b.relation("Unreached", 1);
        b.rule("Reach", &["x"]).when("Seed", &["x"]).end();
        b.rule("Reach", &["y"])
            .when("Reach", &["x"])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Unreached", &["x"])
            .when("Node", &["x"])
            .when_not("Reach", &["x"])
            .end();
        for n in 0..10u32 {
            b.fact_ints("Node", &[n]);
        }
        for s in &seeds {
            b.fact_ints("Seed", &[*s]);
        }
        for (a, b_) in &edges {
            b.fact_ints("Edge", &[*a, *b_]);
        }
        let program = b.build().unwrap();
        for config in [
            EngineConfig::interpreted(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, true),
            EngineConfig::default(),
        ] {
            let result = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            let reach = result.count("Reach").unwrap();
            let unreached = result.count("Unreached").unwrap();
            assert_eq!(reach + unreached, 10);
            // Seeds are always reachable.
            for s in &seeds {
                assert!(result.contains("Reach", &[&s.to_string()]).unwrap());
            }
        }
    }
}

/// The same-generation query (a non-linear recursive query) agrees between
/// the interpreter and the VM-compiled execution.
#[test]
fn same_generation_interpreter_equals_vm() {
    for seed in 0..6u64 {
        let edges = random_digraph(9, 20, seed);
        let mut source = String::from(
            "Sg(x, y) :- Parent(p, x), Parent(p, y).\n\
             Sg(x, y) :- Parent(px, x), Sg(px, py), Parent(py, y).\n",
        );
        for (a, b) in &edges {
            source.push_str(&format!("Parent({a}, {b}).\n"));
        }
        let program = parse(&source).unwrap();
        let interp = Carac::new(program.clone())
            .with_config(EngineConfig::interpreted())
            .run()
            .unwrap();
        let vm = Carac::new(program)
            .with_config(EngineConfig::eager_jit(BackendKind::Bytecode, false))
            .run()
            .unwrap();
        let mut a = interp.tuples("Sg").unwrap();
        let mut b = vm.tuples("Sg").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}

/// Parallel determinism on transitive closure: runs with 1, 2 and 8 worker
/// threads produce exactly the serial fixpoint — same counts *and* same
/// tuples — on graphs big enough that every shard is populated.
#[test]
fn parallel_transitive_closure_is_deterministic() {
    let edges = random_digraph(64, 384, 0xCA2AC);
    let program = tc_program(&edges);
    let serial = Carac::new(program.clone())
        .with_config(EngineConfig::interpreted())
        .run()
        .unwrap();
    let mut serial_tuples = serial.tuples("Path").unwrap();
    serial_tuples.sort();
    for threads in [1usize, 2, 8] {
        for config in [
            EngineConfig::interpreted().with_parallelism(threads),
            EngineConfig::eager_jit(BackendKind::Lambda, false).with_parallelism(threads),
        ] {
            let label = config.label();
            let result = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            assert_eq!(
                result.count("Path").unwrap(),
                serial_tuples.len(),
                "{label} with {threads} threads diverged in count"
            );
            let mut tuples = result.tuples("Path").unwrap();
            tuples.sort();
            assert_eq!(
                tuples, serial_tuples,
                "{label} with {threads} threads diverged"
            );
        }
    }
}

/// Parallel determinism on the program-analysis workload (CSPA): fact counts
/// agree between serial and 1/2/8-thread parallel runs, in both the indexed
/// and unindexed engines.  (The unoptimized formulation contains the §IV
/// cartesian product and is quadratically slower under the non-reordering
/// interpreter, so it is checked once, at one thread count, to keep the
/// suite fast in debug builds.)
#[test]
fn parallel_program_analysis_is_deterministic() {
    let workload = cspa(40, 5);
    let (serial_count, _) = workload
        .measure(Formulation::HandOptimized, EngineConfig::interpreted())
        .unwrap();
    for threads in [1usize, 2, 8] {
        for base in [
            EngineConfig::interpreted(),
            EngineConfig::interpreted_unindexed(),
        ] {
            let config = base.with_parallelism(threads);
            let (count, _) = workload
                .measure(Formulation::HandOptimized, config)
                .unwrap();
            assert_eq!(count, serial_count, "{threads} threads diverged");
        }
    }

    let (serial_unopt, _) = workload
        .measure(Formulation::Unoptimized, EngineConfig::interpreted())
        .unwrap();
    let (parallel_unopt, _) = workload
        .measure(
            Formulation::Unoptimized,
            EngineConfig::interpreted().with_parallelism(4),
        )
        .unwrap();
    assert_eq!(
        parallel_unopt, serial_unopt,
        "unoptimized formulation diverged"
    );
}

/// The engine configurations every constraint/aggregate differential case
/// must agree across: the interpreter (indexed and unindexed), the
/// specialized (lambda) kernel, the bytecode VM and IR regeneration (each
/// compiling at first visit), the default adaptive tiering policy and the
/// ahead-of-time pipeline.
fn semantic_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::interpreted(),
        EngineConfig::interpreted_unindexed(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
        EngineConfig::eager_jit(BackendKind::IrGen, false),
        EngineConfig::default(),
        EngineConfig::ahead_of_time(true, true),
    ]
}

/// Shortest path via `min` aggregation plus a `<`-constrained rule: every
/// backend — and every 1/2/8-thread parallel run — derives byte-identical
/// `Dist` and `Near` sets, matching a BFS reference.
#[test]
fn shortest_path_min_aggregate_agrees_across_engines() {
    for seed in [3u64, 11, 42] {
        let workload = shortest_path(18, 10, seed);
        for formulation in Formulation::BOTH {
            let program = workload.program(formulation);

            // BFS reference over the workload's own edge facts.
            let edge = program.relation_by_name("Edge").unwrap();
            let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); 18];
            for (rel, t) in program.facts() {
                if *rel == edge {
                    adjacency[t.get(0).unwrap().raw() as usize].push(t.get(1).unwrap().raw());
                }
            }
            let mut dist = [u32::MAX; 18];
            dist[0] = 0;
            let mut frontier = vec![0usize];
            for d in 1..=10u32 {
                let mut next = Vec::new();
                for &x in &frontier {
                    for &y in &adjacency[x] {
                        if dist[y as usize] == u32::MAX {
                            dist[y as usize] = d;
                            next.push(y as usize);
                        }
                    }
                }
                frontier = next;
            }
            let mut expected: Vec<(u32, u32)> = dist
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(n, &d)| (n as u32, d))
                .collect();
            expected.sort_unstable();

            let mut reference: Option<(Vec<_>, Vec<_>)> = None;
            for config in semantic_configs() {
                let label = config.label();
                let result = Carac::new(program.clone())
                    .with_config(config)
                    .run()
                    .unwrap();
                let mut derived: Vec<(u32, u32)> = result
                    .tuples("Dist")
                    .unwrap()
                    .into_iter()
                    .map(|t| (t.get(0).unwrap().raw(), t.get(1).unwrap().raw()))
                    .collect();
                derived.sort_unstable();
                assert_eq!(derived, expected, "{label} diverged from BFS (seed {seed})");
                let mut near = result.tuples("Near").unwrap();
                near.sort();
                let mut dist_tuples = result.tuples("Dist").unwrap();
                dist_tuples.sort();
                match &reference {
                    Some((d, n)) => {
                        assert_eq!(&dist_tuples, d, "{label} Dist diverged");
                        assert_eq!(&near, n, "{label} Near diverged");
                    }
                    None => reference = Some((dist_tuples, near)),
                }
            }
            // Parallel determinism: 1, 2 and 8 workers equal the reference.
            let (ref_dist, ref_near) = reference.unwrap();
            for threads in [1usize, 2, 8] {
                for base in [
                    EngineConfig::interpreted(),
                    EngineConfig::eager_jit(BackendKind::Lambda, false),
                ] {
                    let config = base.with_parallelism(threads);
                    let label = config.label();
                    let result = Carac::new(program.clone())
                        .with_config(config)
                        .run()
                        .unwrap();
                    let mut dist_tuples = result.tuples("Dist").unwrap();
                    dist_tuples.sort();
                    let mut near = result.tuples("Near").unwrap();
                    near.sort();
                    assert_eq!(dist_tuples, ref_dist, "{label} x{threads} Dist diverged");
                    assert_eq!(near, ref_near, "{label} x{threads} Near diverged");
                }
            }
        }
    }
}

/// Degree counting via `count` aggregates and `>`/equality joins over the
/// aggregated values: byte-identical across all engines and thread counts.
#[test]
fn degree_count_aggregates_agree_across_engines() {
    for seed in [1u64, 9] {
        let workload = degree_distribution(40, seed);
        for formulation in Formulation::BOTH {
            let program = workload.program(formulation);
            let mut reference: Option<Vec<_>> = None;
            for config in semantic_configs() {
                let label = config.label();
                let result = Carac::new(program.clone())
                    .with_config(config)
                    .run()
                    .unwrap();
                let mut out_deg = result.tuples("OutDeg").unwrap();
                out_deg.sort();
                let mut flagged = result.tuples("Flagged").unwrap();
                flagged.sort();
                let mut combined = out_deg;
                combined.extend(flagged);
                match &reference {
                    Some(r) => assert_eq!(&combined, r, "{label} diverged (seed {seed})"),
                    None => reference = Some(combined),
                }
            }
            let reference = reference.unwrap();
            for threads in [2usize, 8] {
                let config = EngineConfig::interpreted().with_parallelism(threads);
                let result = Carac::new(program.clone())
                    .with_config(config)
                    .run()
                    .unwrap();
                let mut out_deg = result.tuples("OutDeg").unwrap();
                out_deg.sort();
                let mut flagged = result.tuples("Flagged").unwrap();
                flagged.sort();
                let mut combined = out_deg;
                combined.extend(flagged);
                assert_eq!(combined, reference, "{threads} threads diverged");
            }
        }
    }
}

/// Aggregation over a negation stratum: count only the edges whose source
/// is not blocked.  Exercises a three-deep stratification (negation below
/// the aggregate input, aggregate above it) on every backend.
#[test]
fn aggregate_over_negation_stratifies_and_agrees() {
    let mut source = String::from(
        "Ok(x, y) :- Edge(x, y), !Blocked(x).\n\
         OkDeg(x, count y) :- Ok(x, y).\n\
         Busy(x) :- OkDeg(x, c), c >= 2.\n",
    );
    for (a, b) in random_digraph(12, 40, 0xD1FF) {
        source.push_str(&format!("Edge({a}, {b}).\n"));
    }
    source.push_str("Blocked(1). Blocked(4). Blocked(7).\n");
    let program = parse(&source).unwrap();
    // Reference: distinct ok-neighbours per unblocked source.
    let edge = program.relation_by_name("Edge").unwrap();
    let blocked = [1u32, 4, 7];
    let mut neighbors: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); 12];
    for (rel, t) in program.facts() {
        if *rel == edge {
            let (a, b) = (t.get(0).unwrap().raw(), t.get(1).unwrap().raw());
            if !blocked.contains(&a) {
                neighbors[a as usize].insert(b);
            }
        }
    }
    let mut expected: Vec<(u32, u32)> = neighbors
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.is_empty())
        .map(|(x, n)| (x as u32, n.len() as u32))
        .collect();
    expected.sort_unstable();

    for config in semantic_configs() {
        let label = config.label();
        let result = Carac::new(program.clone())
            .with_config(config)
            .run()
            .unwrap();
        let mut derived: Vec<(u32, u32)> = result
            .tuples("OkDeg")
            .unwrap()
            .into_iter()
            .map(|t| (t.get(0).unwrap().raw(), t.get(1).unwrap().raw()))
            .collect();
        derived.sort_unstable();
        assert_eq!(derived, expected, "{label} diverged");
        let busy = result.count("Busy").unwrap();
        let expected_busy = expected.iter().filter(|&&(_, c)| c >= 2).count();
        assert_eq!(busy, expected_busy, "{label} Busy diverged");
    }
}

/// Regression (frontend panics): out-of-range integer literals are parse
/// errors with a position, not aborts.
#[test]
fn out_of_range_literals_error_instead_of_panicking() {
    let err = parse("Edge(3000000000, 1).").unwrap_err();
    assert!(matches!(err, DatalogError::Parse { .. }), "{err}");

    let mut b = ProgramBuilder::new();
    b.relation("Edge", 2);
    b.fact(
        "Edge",
        &[
            carac_datalog::TermSpec::Int(u32::MAX),
            carac_datalog::TermSpec::Int(0),
        ],
    );
    assert!(matches!(
        b.build(),
        Err(DatalogError::IntegerOutOfRange { .. })
    ));
}

/// The flat row-pool storage derives byte-identical fact sets across every
/// execution form on the figure-6/figure-8 workloads: the specialized
/// (lambda) kernel, the bytecode VM, the unindexed interpreter and the
/// sharded parallel engines (1/2/8 threads) must all equal the interpreted
/// reference — same output tuples, same total derived-fact count.
#[test]
fn flat_pool_engines_agree_on_figure_workloads() {
    let workloads = vec![
        andersen(24, 11),
        inverse_functions(24, 11),
        cspa(32, 11),
        csda(150, 11),
    ];
    for workload in &workloads {
        let reference = workload
            .run(Formulation::HandOptimized, EngineConfig::interpreted())
            .unwrap();
        let out = workload.output_relation;
        let mut expected = reference.tuples(out).unwrap();
        expected.sort();
        assert!(!expected.is_empty(), "{} derived nothing", workload.name);

        let engines = vec![
            (
                "specialized (lambda)",
                EngineConfig::eager_jit(BackendKind::Lambda, false),
            ),
            (
                "bytecode vm",
                EngineConfig::eager_jit(BackendKind::Bytecode, false),
            ),
            ("adaptive (default policy)", EngineConfig::default()),
            (
                "interpreted unindexed",
                EngineConfig::interpreted_unindexed(),
            ),
        ];
        for (label, config) in engines {
            let result = workload.run(Formulation::HandOptimized, config).unwrap();
            let mut tuples = result.tuples(out).unwrap();
            tuples.sort();
            assert_eq!(tuples, expected, "{}: {label} diverged", workload.name);
            assert_eq!(
                result.total_tuples(),
                reference.total_tuples(),
                "{}: {label} diverged in total fact count",
                workload.name
            );
        }

        for threads in [1usize, 2, 8] {
            for (label, base) in [
                ("interpreted", EngineConfig::interpreted()),
                (
                    "specialized (lambda)",
                    EngineConfig::eager_jit(BackendKind::Lambda, false),
                ),
            ] {
                let result = workload
                    .run(Formulation::HandOptimized, base.with_parallelism(threads))
                    .unwrap();
                let mut tuples = result.tuples(out).unwrap();
                tuples.sort();
                assert_eq!(
                    tuples, expected,
                    "{}: {label} with {threads} threads diverged",
                    workload.name
                );
                assert_eq!(
                    result.total_tuples(),
                    reference.total_tuples(),
                    "{}: {label} with {threads} threads diverged in total count",
                    workload.name
                );
            }
        }
    }
}

// ===================================================================
// Incremental maintenance: apply_update vs from-scratch re-evaluation
// ===================================================================

use carac_analysis::generators::{edge_update_stream, UpdateStreamBatch};

/// Replays `stream` over `base` and returns the final edge set.
fn final_edges(base: &[(u32, u32)], stream: &[UpdateStreamBatch]) -> Vec<(u32, u32)> {
    let mut live: Vec<(u32, u32)> = base.to_vec();
    live.sort_unstable();
    live.dedup();
    for batch in stream {
        for e in &batch.retracts {
            if let Some(pos) = live.iter().position(|x| x == e) {
                live.remove(pos);
            }
        }
        for e in &batch.inserts {
            if !live.contains(e) {
                live.push(*e);
            }
        }
    }
    live
}

/// Maintains a live session under `stream` and asserts that every listed
/// output relation's fact set is identical to evaluating the final edge set
/// from scratch (with the plain interpreter as the oracle).
type EdgeProgramFn<'a> = &'a dyn Fn(&[(u32, u32)]) -> carac_datalog::Program;

fn assert_stream_matches_scratch(
    build: EdgeProgramFn,
    update_relation: &str,
    outputs: &[&str],
    base: &[(u32, u32)],
    stream: &[UpdateStreamBatch],
    config: EngineConfig,
    label: &str,
) {
    let mut engine = Carac::new(build(base)).with_config(config);
    engine
        .run_live()
        .unwrap_or_else(|e| panic!("{label}: initial run failed: {e}"));
    for batch in stream {
        engine
            .apply_edge_updates(update_relation, &batch.inserts, &batch.retracts)
            .unwrap_or_else(|e| panic!("{label}: update failed: {e}"));
    }
    let mut oracle =
        Carac::new(build(&final_edges(base, stream))).with_config(EngineConfig::interpreted());
    for output in outputs {
        let mut live = engine.live_tuples(output).unwrap();
        let mut scratch = oracle.live_tuples(output).unwrap();
        live.sort();
        scratch.sort();
        assert_eq!(live, scratch, "{label}: {output} diverged from scratch");
    }
}

/// The three stream shapes every incremental case covers: insert-only,
/// delete-only, and mixed.
fn stream_shapes(
    base: &[(u32, u32)],
    nodes: u32,
    seed: u64,
) -> Vec<(&'static str, Vec<UpdateStreamBatch>)> {
    let mixed = edge_update_stream(base, nodes, 4, 3, seed);
    let inserts: Vec<UpdateStreamBatch> = mixed
        .iter()
        .map(|b| UpdateStreamBatch {
            inserts: b.inserts.clone(),
            retracts: Vec::new(),
        })
        .collect();
    // Delete-only: retract a deterministic slice of the base edges.
    let victims: Vec<(u32, u32)> = base.iter().copied().step_by(3).take(6).collect();
    let deletes: Vec<UpdateStreamBatch> = victims
        .chunks(2)
        .map(|c| UpdateStreamBatch {
            inserts: Vec::new(),
            retracts: c.to_vec(),
        })
        .collect();
    vec![
        ("insert-only", inserts),
        ("delete-only", deletes),
        ("mixed", mixed),
    ]
}

/// Transitive closure (recursive stratum, pure counted/DRed path): live
/// maintenance equals scratch for insert-only, delete-only and mixed
/// streams, across interpreted and JIT Lambda sessions (both maintain
/// through the specialized kernel) and 1/2/8 worker threads.
#[test]
fn incremental_tc_matches_scratch_across_kernels_and_threads() {
    for seed in [0u64, 5, 9] {
        let base = random_digraph(12, 30, seed);
        for (shape, stream) in stream_shapes(&base, 12, seed + 100) {
            for config in update_configs() {
                assert_stream_matches_scratch(
                    &tc_program,
                    "Edge",
                    &["Path"],
                    &base,
                    &stream,
                    config,
                    &format!(
                        "tc seed {seed} {shape} x{} ({})",
                        config.parallelism,
                        config.label()
                    ),
                );
            }
        }
    }
}

/// CSPA-shaped mutually recursive rules (the fig6/fig8 macro workload's
/// rule set) over an explicit Assign/Derefr fact base.
fn cspa_rules(assign: &[(u32, u32)]) -> carac_datalog::Program {
    let mut b = ProgramBuilder::new();
    for rel in ["Assign", "Derefr", "VaFlow", "VAlias", "MAlias"] {
        b.relation(rel, 2);
    }
    b.rule("VaFlow", &["v2", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("VaFlow", &["v1", "v1"])
        .when("Assign", &["v1", "v2"])
        .end();
    b.rule("VaFlow", &["v1", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("MAlias", &["v1", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("MAlias", &["v1", "v1"])
        .when("Assign", &["v1", "v2"])
        .end();
    b.rule("VaFlow", &["v1", "v2"])
        .when("Assign", &["v1", "v3"])
        .when("MAlias", &["v3", "v2"])
        .end();
    b.rule("VaFlow", &["v1", "v2"])
        .when("VaFlow", &["v1", "v3"])
        .when("VaFlow", &["v3", "v2"])
        .end();
    b.rule("MAlias", &["v1", "v0"])
        .when("Derefr", &["v2", "v1"])
        .when("VAlias", &["v2", "v3"])
        .when("Derefr", &["v3", "v0"])
        .end();
    b.rule("VAlias", &["v1", "v2"])
        .when("VaFlow", &["v3", "v1"])
        .when("VaFlow", &["v3", "v2"])
        .end();
    b.rule("VAlias", &["v1", "v2"])
        .when("MAlias", &["v3", "v0"])
        .when("VaFlow", &["v3", "v1"])
        .when("VaFlow", &["v0", "v2"])
        .end();
    for &(a, b_) in assign {
        b.fact_ints("Assign", &[a, b_]);
    }
    for (a, b_) in random_digraph(10, 12, 77) {
        b.fact_ints("Derefr", &[a, b_]);
    }
    b.build().unwrap()
}

/// Updates to Assign maintain VaFlow, VAlias and MAlias of [`cspa_rules`]
/// exactly.
#[test]
fn incremental_cspa_rules_match_scratch() {
    for seed in [2u64, 8] {
        let base = random_digraph(10, 20, seed);
        for (shape, stream) in stream_shapes(&base, 10, seed + 50) {
            for kernel in [
                EngineConfig::interpreted(),
                EngineConfig::eager_jit(BackendKind::Lambda, false),
            ] {
                assert_stream_matches_scratch(
                    &cspa_rules,
                    "Assign",
                    &["VaFlow", "VAlias", "MAlias"],
                    &base,
                    &stream,
                    kernel,
                    &format!("cspa seed {seed} {shape} ({})", kernel.label()),
                );
            }
        }
    }
}

/// Aggregated strata under updates: hop-count shortest paths (recursive
/// Reach + `min` aggregate + `<`-constrained Near) and degree counting
/// (`count` aggregates + comparison joins) both stay identical to scratch
/// under insert/delete/mixed streams and across thread counts.
#[test]
fn incremental_aggregates_match_scratch() {
    fn sp(edges: &[(u32, u32)]) -> carac_datalog::Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Source", 1);
        b.relation("Zero", 1);
        b.relation("Succ", 2);
        b.relation("Reach", 2);
        b.relation("Dist", 2);
        b.relation("Near", 1);
        b.rule("Reach", &["y", "d"])
            .when("Source", &["y"])
            .when("Zero", &["d"])
            .end();
        b.rule("Reach", &["y", "d2"])
            .when("Reach", &["x", "d1"])
            .when("Edge", &["x", "y"])
            .when("Succ", &["d1", "d2"])
            .end();
        b.rule(
            "Dist",
            &[
                carac_datalog::builder::v("y"),
                carac_datalog::builder::min_of("d"),
            ],
        )
        .when("Reach", &["y", "d"])
        .end();
        b.rule("Near", &["y"])
            .when("Dist", &["y", "d"])
            .lt(carac_datalog::builder::v("d"), carac_datalog::builder::c(4))
            .end();
        for &(a, b_) in edges {
            b.fact_ints("Edge", &[a, b_]);
        }
        b.fact_ints("Source", &[0]);
        b.fact_ints("Zero", &[0]);
        for d in 0..8u32 {
            b.fact_ints("Succ", &[d, d + 1]);
        }
        b.build().unwrap()
    }
    fn degrees(edges: &[(u32, u32)]) -> carac_datalog::Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Threshold", 1);
        b.relation("OutDeg", 2);
        b.relation("InDeg", 2);
        b.relation("HighOut", 1);
        b.relation("Balanced", 1);
        b.relation("Flagged", 1);
        b.rule(
            "OutDeg",
            &[
                carac_datalog::builder::v("x"),
                carac_datalog::builder::count_of("y"),
            ],
        )
        .when("Edge", &["x", "y"])
        .end();
        b.rule(
            "InDeg",
            &[
                carac_datalog::builder::v("y"),
                carac_datalog::builder::count_of("x"),
            ],
        )
        .when("Edge", &["x", "y"])
        .end();
        b.rule("HighOut", &["x"])
            .when("Threshold", &["t"])
            .when("OutDeg", &["x", "c"])
            .gt(
                carac_datalog::builder::v("c"),
                carac_datalog::builder::v("t"),
            )
            .end();
        b.rule("Balanced", &["x"])
            .when("OutDeg", &["x", "c"])
            .when("InDeg", &["x", "c"])
            .end();
        b.rule("Flagged", &["x"]).when("HighOut", &["x"]).end();
        b.rule("Flagged", &["x"]).when("Balanced", &["x"]).end();
        for &(a, b_) in edges {
            b.fact_ints("Edge", &[a, b_]);
        }
        b.fact_ints("Threshold", &[2]);
        b.build().unwrap()
    }
    for seed in [4u64, 13] {
        let base = random_digraph(12, 28, seed);
        for (shape, stream) in stream_shapes(&base, 12, seed + 200) {
            for threads in [1usize, 2, 8] {
                for kernel in [
                    EngineConfig::interpreted(),
                    EngineConfig::eager_jit(BackendKind::Lambda, false),
                ] {
                    assert_stream_matches_scratch(
                        &sp,
                        "Edge",
                        &["Reach", "Dist", "Near"],
                        &base,
                        &stream,
                        kernel.with_parallelism(threads),
                        &format!("sp seed {seed} {shape} x{threads} ({})", kernel.label()),
                    );
                    assert_stream_matches_scratch(
                        &degrees,
                        "Edge",
                        &["OutDeg", "InDeg", "Flagged"],
                        &base,
                        &stream,
                        kernel.with_parallelism(threads),
                        &format!("deg seed {seed} {shape} x{threads} ({})", kernel.label()),
                    );
                }
            }
        }
    }
}

/// Negation under updates: strata negating a changed relation are rebuilt
/// and their diffs propagate — Reach/Unreached keep partitioning the node
/// set and match scratch exactly.
#[test]
fn incremental_negation_matches_scratch() {
    fn reach(edges: &[(u32, u32)]) -> carac_datalog::Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Node", 1);
        b.relation("Seed", 1);
        b.relation("Reach", 1);
        b.relation("Unreached", 1);
        b.rule("Reach", &["x"]).when("Seed", &["x"]).end();
        b.rule("Reach", &["y"])
            .when("Reach", &["x"])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Unreached", &["x"])
            .when("Node", &["x"])
            .when_not("Reach", &["x"])
            .end();
        for n in 0..10u32 {
            b.fact_ints("Node", &[n]);
        }
        b.fact_ints("Seed", &[0]);
        for &(a, b_) in edges {
            b.fact_ints("Edge", &[a, b_]);
        }
        b.build().unwrap()
    }
    for seed in [1u64, 6] {
        let base = random_digraph(10, 22, seed);
        for (shape, stream) in stream_shapes(&base, 10, seed + 300) {
            for kernel in [
                EngineConfig::interpreted(),
                EngineConfig::eager_jit(BackendKind::Lambda, false),
            ] {
                assert_stream_matches_scratch(
                    &reach,
                    "Edge",
                    &["Reach", "Unreached"],
                    &base,
                    &stream,
                    kernel,
                    &format!("negation seed {seed} {shape} ({})", kernel.label()),
                );
            }
        }
    }
}

/// Insert-only streams on the real figure-6/figure-8 macro workloads:
/// applying the new facts through `apply_update` equals loading them
/// up-front and evaluating from scratch.
#[test]
fn incremental_insert_only_matches_scratch_on_figure_workloads() {
    let cases = vec![
        (andersen(20, 3), "Assign"),
        (cspa(24, 3), "Assign"),
        (csda(80, 3), "Nullflow"),
        (inverse_functions(20, 3), "Assign"),
    ];
    for (workload, update_rel) in cases {
        let program = workload.program(Formulation::HandOptimized).clone();
        let new_edges = random_digraph(16, 10, 0xFEED);
        let mut live = Carac::new(program.clone()).with_config(EngineConfig::interpreted());
        live.run_live().unwrap();
        live.apply_edge_updates(update_rel, &new_edges, &[])
            .unwrap();

        let mut scratch = Carac::new(program).with_config(EngineConfig::interpreted());
        scratch.add_edge_facts(update_rel, &new_edges).unwrap();
        let out = workload.output_relation;
        let mut a = live.live_tuples(out).unwrap();
        let mut b = scratch.live_tuples(out).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{}: insert-only stream diverged", workload.name);
    }
}

/// Deletion streams on the figure workloads themselves: retracting a slice
/// of the generated base facts through the live session equals scratch
/// evaluation without them.  (The retractable slice is read back from the
/// program's own fact list, so the scratch program can be rebuilt exactly.)
#[test]
fn incremental_deletes_match_scratch_on_csda() {
    // CSDA: a single recursive 2-atom rule — the pure DRed shape on the
    // chain-with-shortcuts fact base.
    fn csda_rules(edges: &[(u32, u32)]) -> carac_datalog::Program {
        let mut b = ProgramBuilder::new();
        b.relation("Nullflow", 2);
        b.relation("Dataflow", 2);
        b.rule("Dataflow", &["x", "y"])
            .when("Nullflow", &["x", "y"])
            .end();
        b.rule("Dataflow", &["x", "y"])
            .when("Nullflow", &["x", "z"])
            .when("Dataflow", &["z", "y"])
            .end();
        for &(a, b_) in edges {
            b.fact_ints("Nullflow", &[a, b_]);
        }
        b.build().unwrap()
    }
    let base = carac_analysis::generators::csda_facts(60, 3);
    for (shape, stream) in stream_shapes(&base, 60, 0xBEEF) {
        for kernel in [
            EngineConfig::interpreted(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ] {
            assert_stream_matches_scratch(
                &csda_rules,
                "Nullflow",
                &["Dataflow"],
                &base,
                &stream,
                kernel,
                &format!("csda {shape} ({})", kernel.label()),
            );
        }
    }
}

/// Regression: a mixed batch whose *insertions* enable derivations that
/// first appear inside the deletion phase's re-derivation propagation (the
/// new EDB facts are physically present while DRed rescues the cone).
/// Those genuinely new facts must still be published as insert deltas to
/// the strata above — here the `min` aggregate must pick up node 69, which
/// only becomes reachable through an edge inserted in the same batch that
/// retracts another edge.  (Found by the fig11 harness at scale 40.)
#[test]
fn incremental_mixed_batch_publishes_deletion_phase_discoveries() {
    fn sp(edges: &[(u32, u32)]) -> carac_datalog::Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Source", 1);
        b.relation("Zero", 1);
        b.relation("Succ", 2);
        b.relation("Reach", 2);
        b.relation("Dist", 2);
        b.rule("Reach", &["y", "d"])
            .when("Source", &["y"])
            .when("Zero", &["d"])
            .end();
        b.rule("Reach", &["y", "d2"])
            .when("Reach", &["x", "d1"])
            .when("Edge", &["x", "y"])
            .when("Succ", &["d1", "d2"])
            .end();
        b.rule(
            "Dist",
            &[
                carac_datalog::builder::v("y"),
                carac_datalog::builder::min_of("d"),
            ],
        )
        .when("Reach", &["y", "d"])
        .end();
        for &(a, b_) in edges {
            b.fact_ints("Edge", &[a, b_]);
        }
        b.fact_ints("Source", &[0]);
        b.fact_ints("Zero", &[0]);
        for d in 0..48u32 {
            b.fact_ints("Succ", &[d, d + 1]);
        }
        b.build().unwrap()
    }
    let base = random_digraph(160, 320, 0xCA2AC + 2);
    let stream = edge_update_stream(&base, 160, 1, 4, 0xCA2AC + 3);
    assert!(
        !stream[0].inserts.is_empty() && !stream[0].retracts.is_empty(),
        "the regression needs a genuinely mixed batch"
    );
    for kernel in [
        EngineConfig::interpreted(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
    ] {
        assert_stream_matches_scratch(
            &sp,
            "Edge",
            &["Reach", "Dist"],
            &base,
            &stream,
            kernel,
            &format!("mixed-batch discovery ({})", kernel.label()),
        );
    }
}

// -------------------------------------------------------------------
// Retract-heavy single-edge streams, checked after every batch
// -------------------------------------------------------------------

/// Seeds of the stream sweeps below (CI's nightly `fuzz-extended` job
/// widens them through the same variable as the program fuzzer).
fn stream_seeds() -> u64 {
    std::env::var("CARAC_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Interpreted and JIT Lambda sessions at 1, 2 and 8 threads.
fn update_configs() -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for threads in [1usize, 2, 8] {
        configs.push(EngineConfig::interpreted().with_parallelism(threads));
        configs.push(EngineConfig::eager_jit(BackendKind::Lambda, false).with_parallelism(threads));
    }
    configs
}

/// Maintains a live session per config under `stream` and asserts after
/// **every** batch that each output relation equals the from-scratch
/// evaluation of the edges live at that point (interpreter as the oracle,
/// evaluated once per batch and shared by the configs), and that every
/// witness check of the batch either passed or condemned.
fn assert_every_batch_matches_scratch(
    build: EdgeProgramFn,
    update_relation: &str,
    outputs: &[&str],
    base: &[(u32, u32)],
    stream: &[UpdateStreamBatch],
    label: &str,
) {
    let expected: Vec<Vec<Vec<carac_storage::Tuple>>> = (1..=stream.len())
        .map(|applied| {
            let edges = final_edges(base, &stream[..applied]);
            let mut oracle = Carac::new(build(&edges)).with_config(EngineConfig::interpreted());
            outputs
                .iter()
                .map(|output| {
                    let mut rows = oracle.live_tuples(output).unwrap();
                    rows.sort();
                    rows
                })
                .collect()
        })
        .collect();
    for config in update_configs() {
        let label = format!("{label} x{} ({})", config.parallelism, config.label());
        let mut engine = Carac::new(build(base)).with_config(config);
        engine
            .run_live()
            .unwrap_or_else(|e| panic!("{label}: initial run failed: {e}"));
        for (i, batch) in stream.iter().enumerate() {
            let stats = engine
                .apply_edge_updates(update_relation, &batch.inserts, &batch.retracts)
                .unwrap_or_else(|e| panic!("{label}: batch {i} failed: {e}"))
                .stats;
            assert_eq!(
                stats.candidates_checked,
                stats.support_survivors + stats.overdeleted,
                "{label}: every witness check passes or condemns (batch {i})"
            );
            for (output, scratch) in outputs.iter().zip(&expected[i]) {
                let mut live = engine.live_tuples(output).unwrap();
                live.sort();
                assert_eq!(
                    &live, scratch,
                    "{label}: {output} diverged from scratch after batch {i} \
                     (+{:?} -{:?})",
                    batch.inserts, batch.retracts
                );
            }
        }
    }
}

/// The `tc_live` shape of `bench_core` at a size a debug build can afford:
/// transitive closure over a sparse random digraph with one giant SCC,
/// single-edge batches, 40 % of them retractions into the recursion.
#[test]
fn single_edge_streams_over_tc_match_scratch_after_every_batch() {
    for seed in 0..stream_seeds() {
        let base = random_digraph(60, 90, 0x7C11 + seed);
        let stream = edge_update_stream(&base, 60, 48, 1, 0x57EA + seed);
        assert_every_batch_matches_scratch(
            &tc_program,
            "Edge",
            &["Path"],
            &base,
            &stream,
            &format!("tc stream seed {seed}"),
        );
    }
}

/// The same over the mutually recursive CSPA rules (three relations in one
/// stratum, three-atom joins).
#[test]
fn single_edge_streams_over_cspa_match_scratch_after_every_batch() {
    for seed in 0..stream_seeds() {
        let base = random_digraph(10, 20, 0xC59A + seed);
        let stream = edge_update_stream(&base, 10, 32, 1, 0xA551 + seed);
        assert_every_batch_matches_scratch(
            &cspa_rules,
            "Assign",
            &["VaFlow", "VAlias", "MAlias"],
            &base,
            &stream,
            &format!("cspa stream seed {seed}"),
        );
    }
}

/// TC under two non-recursive strata with many derivations per head: the
/// witness check with no epoch to compare.
#[test]
fn single_edge_streams_over_non_recursive_strata_match_scratch_after_every_batch() {
    fn program(edges: &[(u32, u32)]) -> Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.relation("Hop2", 2);
        b.relation("Back", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        b.rule("Hop2", &["x", "z"])
            .when("Edge", &["x", "y"])
            .when("Edge", &["y", "z"])
            .end();
        b.rule("Back", &["x", "y"])
            .when("Path", &["x", "y"])
            .when("Hop2", &["y", "x"])
            .end();
        for &(a, b_) in edges {
            b.fact_ints("Edge", &[a, b_]);
        }
        b.build().unwrap()
    }
    for seed in 0..stream_seeds() {
        let base = random_digraph(30, 90, 0xB0C + seed);
        let stream = edge_update_stream(&base, 30, 40, 1, 0xBAC + seed);
        assert_every_batch_matches_scratch(
            &program,
            "Edge",
            &["Path", "Hop2", "Back"],
            &base,
            &stream,
            &format!("non-recursive stream seed {seed}"),
        );
    }
}

/// One batch's maintenance decisions: `(candidates_checked,
/// support_survivors, overdeleted, rederived, derived_inserted,
/// derived_retracted)`.
type Decisions = (u64, u64, u64, u64, u64, u64);

/// The per-batch decisions of a live session under `stream`.
fn stream_decisions(
    build: EdgeProgramFn,
    update_relation: &str,
    base: &[(u32, u32)],
    stream: &[UpdateStreamBatch],
    config: EngineConfig,
) -> Vec<Decisions> {
    let mut engine = Carac::new(build(base)).with_config(config);
    engine.run_live().unwrap();
    stream
        .iter()
        .map(|batch| {
            let s = engine
                .apply_edge_updates(update_relation, &batch.inserts, &batch.retracts)
                .unwrap()
                .stats;
            (
                s.candidates_checked,
                s.support_survivors,
                s.overdeleted,
                s.rederived,
                s.derived_inserted,
                s.derived_retracted,
            )
        })
        .collect()
}

/// The decisions of [`witness_decisions_match_the_recorded_stream`]'s CSPA
/// stream, per batch, as recorded from the collect-every-derivation witness
/// check this one replaced.
const CSPA_DECISIONS: [Decisions; 32] = [
    (274, 250, 24, 24, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (410, 396, 14, 4, 0, 10),
    (0, 0, 0, 0, 10, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 48, 0),
    (46, 41, 5, 5, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (600, 567, 33, 23, 0, 10),
    (0, 0, 0, 0, 0, 0),
    (11, 11, 0, 0, 0, 0),
    (599, 545, 54, 54, 0, 0),
    (0, 0, 0, 0, 10, 0),
    (51, 50, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (622, 586, 36, 36, 0, 0),
    (0, 0, 0, 0, 10, 0),
    (753, 715, 38, 27, 0, 11),
    (0, 0, 0, 0, 11, 0),
    (49, 48, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (440, 399, 41, 41, 0, 0),
    (1194, 1131, 63, 52, 0, 11),
    (0, 0, 0, 0, 0, 0),
    (90, 83, 7, 7, 0, 0),
    (619, 587, 32, 5, 0, 27),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (268, 232, 36, 0, 0, 36),
    (0, 0, 0, 0, 18, 0),
];

/// The same for its TC stream.
const TC_DECISIONS: [Decisions; 48] = [
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 125, 0),
    (235, 86, 149, 37, 0, 112),
    (228, 71, 157, 45, 0, 112),
    (0, 0, 0, 0, 37, 0),
    (0, 0, 0, 0, 3, 0),
    (74, 53, 21, 21, 0, 0),
    (177, 83, 94, 94, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (277, 117, 160, 50, 0, 110),
    (40, 23, 17, 16, 0, 1),
    (450, 126, 324, 254, 0, 70),
    (39, 12, 27, 25, 0, 2),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 67, 0),
    (10, 3, 7, 7, 0, 0),
    (0, 0, 0, 0, 111, 0),
    (40, 1, 39, 0, 0, 39),
    (0, 0, 0, 0, 39, 0),
    (0, 0, 0, 0, 39, 0),
    (0, 0, 0, 0, 41, 0),
    (1175, 287, 888, 64, 0, 824),
    (0, 0, 0, 0, 2, 0),
    (142, 86, 56, 1, 0, 55),
    (0, 0, 0, 0, 1, 0),
    (1, 0, 1, 0, 0, 1),
    (4, 1, 3, 0, 0, 3),
    (10, 2, 8, 0, 0, 8),
    (17, 0, 17, 0, 0, 17),
    (0, 0, 0, 0, 7, 0),
    (0, 0, 0, 0, 15, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (5, 1, 4, 1, 0, 3),
    (0, 0, 0, 0, 1, 0),
    (203, 63, 140, 48, 0, 92),
    (14, 0, 14, 14, 0, 0),
    (19, 14, 5, 0, 0, 5),
    (0, 0, 0, 0, 57, 0),
    (18, 8, 10, 9, 0, 1),
    (2, 1, 1, 0, 0, 1),
    (0, 0, 0, 0, 59, 0),
    (0, 0, 0, 0, 6, 0),
    (14, 1, 13, 12, 0, 1),
    (15, 1, 14, 14, 0, 0),
    (0, 0, 0, 0, 4, 0),
    (0, 0, 0, 0, 0, 0),
];

/// The witness check stops at a derivation's first rejected body fact and at
/// a head's first witness; both only skip work, so every decision stays
/// what checking every derivation in full decided — batch by batch, under
/// the default policy, the interpreter and the eager bytecode VM.
#[test]
fn witness_decisions_match_the_recorded_stream() {
    let cspa_base = random_digraph(12, 16, 0xC59A);
    let cspa_stream = edge_update_stream(&cspa_base, 12, 32, 1, 0xA551);
    let tc_base = random_digraph(60, 90, 0x7C11);
    let tc_stream = edge_update_stream(&tc_base, 60, 48, 1, 0x57EA);
    for config in [
        EngineConfig::default(),
        EngineConfig::interpreted(),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
    ] {
        let label = config.label();
        let cspa = stream_decisions(&cspa_rules, "Assign", &cspa_base, &cspa_stream, config);
        let tc = stream_decisions(&tc_program, "Edge", &tc_base, &tc_stream, config);
        for (name, got, expected) in [
            ("cspa", cspa, &CSPA_DECISIONS[..]),
            ("tc", tc, &TC_DECISIONS[..]),
        ] {
            assert_eq!(got.len(), expected.len(), "{label}: {name}");
            for (i, (got, expected)) in got.iter().zip(expected).enumerate() {
                assert_eq!(got, expected, "{label}: {name} batch {i}");
            }
        }
    }
}

/// Exact-count regression for the witness check: over a fixed stream, the
/// facts condemned per retraction stay a small fraction of the classic
/// delete/re-derive cone — every `Path(x, y)` with a walk through the
/// retracted edge `a -> b`, i.e. (nodes reaching `a`) x (nodes `b` reaches)
/// in the graph before the retraction.
#[test]
fn condemned_facts_are_a_fraction_of_the_classic_cone() {
    const NODES: u32 = 250;
    /// Nodes reachable from `from` (itself included) along `edges`, or
    /// against them when `forward` is false.
    fn reach(edges: &[(u32, u32)], from: u32, forward: bool) -> usize {
        let mut seen = vec![false; NODES as usize];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(node) = stack.pop() {
            for &(a, b) in edges {
                let (here, there) = if forward { (a, b) } else { (b, a) };
                if here == node && !seen[there as usize] {
                    seen[there as usize] = true;
                    stack.push(there);
                }
            }
        }
        seen.iter().filter(|&&s| s).count()
    }
    // `tc_live`'s own size: the pruning power is a property of graphs with
    // a giant SCC, where most of a cone has a second route.
    let base = random_digraph(NODES, 375, 0x7C11);
    let stream = edge_update_stream(&base, NODES, 100, 1, 0x57EA);
    let mut engine = Carac::new(tc_program(&base));
    engine.run_live().unwrap();
    let (mut cone, mut overdeleted, mut rederived) = (0u64, 0u64, 0u64);
    for (i, batch) in stream.iter().enumerate() {
        let before = final_edges(&base, &stream[..i]);
        for &(a, b) in &batch.retracts {
            cone += (reach(&before, a, false) * reach(&before, b, true)) as u64;
        }
        let report = engine
            .apply_edge_updates("Edge", &batch.inserts, &batch.retracts)
            .unwrap();
        overdeleted += report.stats.overdeleted;
        rederived += report.stats.rederived;
    }
    assert!(
        cone > 0 && overdeleted > 0,
        "the stream never retracted into the closure"
    );
    assert!(
        overdeleted * 5 <= cone,
        "condemned {overdeleted} facts where the classic cone holds {cone}"
    );
    assert!(rederived <= overdeleted);
    println!("classic cone {cone}, condemned {overdeleted}, re-derived {rederived}");
}
