//! Structural checks of the paper's qualitative claims — the properties the
//! figures rest on, asserted without fragile wall-clock comparisons.

use std::collections::BTreeSet;

use carac::exec::JitConfig;
use carac::knobs::BackendKind;
use carac::{Carac, EngineConfig};
use carac_analysis::generators::random_digraph;
use carac_analysis::{csda, cspa, inverse_functions, Formulation};
use carac_datalog::parser::parse;
use carac_ir::{generate_plan, EvalStrategy};
use carac_optimizer::{greedy_order, OptimizeContext, OptimizerConfig};
use carac_storage::{RelationStats, StatsSnapshot, Tuple};

/// §IV running example: with the first-iteration cardinalities the optimizer
/// must avoid the VaFlow⋆ × VaFlowδ cartesian product, and with the
/// seventh-iteration cardinalities (empty delta) it must lead with the delta
/// atom.
#[test]
fn section4_join_order_example() {
    // The CSPA rules that make VaFlow, MAlias and VAlias mutually recursive,
    // so the 3-atom VAlias rule gets its delta variants inside the fixpoint
    // loop.
    let program = parse(
        "VaFlow(x, y) :- Assign(x, y).\n\
         VaFlow(v1, v2) :- MAlias(v3, v2), Assign(v1, v3).\n\
         VaFlow(v1, v2) :- VaFlow(v3, v2), VaFlow(v1, v3).\n\
         MAlias(v1, v0) :- VAlias(v2, v3), Derefr(v3, v0), Derefr(v2, v1).\n\
         VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
         Assign(1, 1).\nDerefr(1, 1).\n",
    )
    .unwrap();
    let plan = generate_plan(&program, EvalStrategy::SemiNaive);
    let vaflow_rel = program.relation_by_name("VaFlow").unwrap();
    let valias_rel = program.relation_by_name("VAlias").unwrap();
    // Find the VAlias delta-variant whose delta atom is the *second* VaFlow
    // atom — the subquery of the §IV example.
    let query = plan
        .spj_queries()
        .into_iter()
        .map(|(_, q)| q.clone())
        .find(|q| {
            q.width() == 3
                && q.head_rel == valias_rel
                && q.atoms[1].rel == vaflow_rel
                && q.atoms[1].db == carac_storage::DbKind::DeltaKnown
        })
        .expect("CSPA-style delta variant exists");

    let vaflow = program.relation_by_name("VaFlow").unwrap();
    let malias = program.relation_by_name("MAlias").unwrap();
    let stats_for = |vaflow_stats: RelationStats, malias_stats: RelationStats| {
        let mut per_relation = vec![RelationStats::default(); program.relations().len()];
        per_relation[vaflow.index()] = vaflow_stats;
        per_relation[malias.index()] = malias_stats;
        OptimizeContext::stats_only(StatsSnapshot::from_stats(per_relation, 1))
    };

    // First iteration: |VaFlowδ| = 541_096, |VaFlow⋆| = 903_752, |MAlias⋆| = 541_096.
    let first = stats_for(
        RelationStats {
            derived: 903_752,
            delta_known: 541_096,
            ..Default::default()
        },
        RelationStats {
            derived: 541_096,
            delta_known: 0,
            ..Default::default()
        },
    );
    let order = greedy_order(&query, &first, &OptimizerConfig::default());
    let reordered = query.with_order(&order);
    assert!(
        !reordered.has_cartesian_product(),
        "first-iteration order {order:?} must avoid the cartesian product"
    );

    // Seventh iteration: |VaFlowδ| = 0, |VaFlow⋆| = 1_362_950, |MAlias⋆| = 79_514_436.
    let seventh = stats_for(
        RelationStats {
            derived: 1_362_950,
            delta_known: 0,
            ..Default::default()
        },
        RelationStats {
            derived: 79_514_436,
            delta_known: 0,
            ..Default::default()
        },
    );
    let order = greedy_order(&query, &seventh, &OptimizerConfig::default());
    assert_eq!(order[0], 1, "the empty delta atom must come first");
}

/// The JIT applied to an unoptimized program removes the cartesian products
/// the bad atom order contains: every reordered 3-way join in the compiled
/// artifacts is connected.
#[test]
fn jit_eliminates_cartesian_products_from_bad_orders() {
    let workload = cspa(24, 11);
    let program = workload.program(Formulation::Unoptimized);
    // The written order has a cartesian product...
    let plan = generate_plan(program, EvalStrategy::SemiNaive);
    assert!(plan
        .spj_queries()
        .iter()
        .any(|(_, q)| q.width() == 3 && q.has_cartesian_product()));
    // ...and a run under the IRGen backend reorders it away (reorders > 0)
    // while producing the same result as interpretation.
    let interp = workload
        .run(Formulation::Unoptimized, EngineConfig::interpreted())
        .unwrap();
    let jit = workload
        .run(
            Formulation::Unoptimized,
            EngineConfig::jit(BackendKind::IrGen, false),
        )
        .unwrap();
    assert_eq!(
        interp.count(workload.output_relation).unwrap(),
        jit.count(workload.output_relation).unwrap()
    );
    assert!(jit.stats().reorders > 0);
}

/// Asynchronous compilation never blocks progress (paper §V-B.2): the run
/// completes with the correct result even when every compilation is slower
/// than the whole query.
#[test]
fn async_compilation_never_blocks_progress() {
    use carac::knobs::StagingCostModel;
    let workload = inverse_functions(40, 5);

    // Async quotes with an absurdly slow staging model still terminates with
    // the correct result because interpretation keeps making progress.
    let slow = EngineConfig::jit_with(JitConfig {
        backend: BackendKind::Quotes,
        async_compile: true,
        staging: StagingCostModel {
            cold_extra: std::time::Duration::from_millis(200),
            warm_base: std::time::Duration::from_millis(50),
            per_node: std::time::Duration::from_micros(500),
        },
        // Request the compilations at first visit, so the fallbacks counted
        // below are visits that overlapped an in-flight compilation.
        tier_up_work: 0,
        ..JitConfig::default()
    });
    let reference = workload
        .measure(Formulation::HandOptimized, EngineConfig::interpreted())
        .unwrap()
        .0;
    let slow_result = workload.run(Formulation::HandOptimized, slow).unwrap();
    assert_eq!(
        slow_result.count(workload.output_relation).unwrap(),
        reference
    );
    assert!(slow_result.stats().interpreted_fallbacks > 0);
}

/// A delta is a slot range of its relation and is probed through the
/// relation's own indexes, so once §IV's index selection has run no join
/// probe falls back to a filtered scan — on CSPA, CSDA and transitive
/// closure, under every evaluator.
#[test]
fn every_join_probe_is_answered_by_an_index() {
    let mut tc = String::from(
        "Path(x, y) :- Edge(x, y).\n\
         Path(x, y) :- Path(x, z), Edge(z, y).\n",
    );
    for (a, b) in random_digraph(60, 120, 3) {
        tc.push_str(&format!("Edge({a}, {b}).\n"));
    }
    let programs = [
        (
            "cspa",
            cspa(16, 2).program(Formulation::HandOptimized).clone(),
        ),
        (
            "csda",
            csda(40, 7).program(Formulation::HandOptimized).clone(),
        ),
        ("tc", parse(&tc).unwrap()),
    ];
    for (workload, program) in &programs {
        for (mode, config) in [
            ("default", EngineConfig::default()),
            ("interpreted", EngineConfig::interpreted()),
            (
                "lambda",
                EngineConfig::eager_jit(BackendKind::Lambda, false),
            ),
            (
                "bytecode",
                EngineConfig::eager_jit(BackendKind::Bytecode, false),
            ),
        ] {
            let result = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            assert!(result.stats().tuples_emitted > 0, "{workload} / {mode}");
            assert_eq!(result.stats().probe_scan_rows, 0, "{workload} / {mode}");
        }
    }
}

/// Every evaluator checks a negated literal with the same probe and counts
/// the rows it scans: without indexes, a run's `probe_scan_rows` is the same
/// under interpretation, the closure kernels and the bytecode VM.
#[test]
fn negation_probes_scan_alike_in_every_evaluator() {
    // Node 0 reaches the even nodes below 100; the other nodes are
    // unreached and each negation probe scans the whole of `Reach`.
    let mut source = String::from(
        "Reach(x) :- Source(x).\n\
         Reach(y) :- Reach(x), Edge(x, y).\n\
         Unreached(x) :- Node(x), !Reach(x).\n\
         Source(0).\n",
    );
    for i in 0..199u32 {
        source.push_str(&format!("Node({i}).\n"));
        if i % 2 == 0 && i + 2 < 100 {
            source.push_str(&format!("Edge({i}, {}).\n", i + 2));
        }
    }
    let program = parse(&source).unwrap();
    let scans: Vec<(&str, u64, usize)> = [
        ("interpreted", EngineConfig::interpreted_unindexed()),
        (
            "lambda",
            EngineConfig::eager_jit(BackendKind::Lambda, false).without_indexes(),
        ),
        (
            "bytecode",
            EngineConfig::eager_jit(BackendKind::Bytecode, false).without_indexes(),
        ),
    ]
    .into_iter()
    .map(|(mode, config)| {
        let result = Carac::new(program.clone())
            .with_config(config)
            .run()
            .unwrap();
        let unreached = result.count("Unreached").unwrap();
        (mode, result.stats().probe_scan_rows, unreached)
    })
    .collect();
    assert_eq!(scans[0].2, 199 - 50, "{scans:?}");
    assert!(scans[0].1 > 0, "{scans:?}");
    assert!(
        scans
            .iter()
            .all(|&(_, rows, unreached)| (rows, unreached) == (scans[0].1, scans[0].2)),
        "{scans:?}"
    );
}

/// Index selection follows §IV: one index per join/filter column, so every
/// indexed column of the prepared storage corresponds to a shared-variable
/// or constant position of some rule.
#[test]
fn index_selection_covers_join_keys_only() {
    let workload = cspa(16, 2);
    let program = workload.program(Formulation::HandOptimized);
    let requests = carac_datalog::rewrite::index_requests(program);
    assert!(!requests.is_empty());
    for (rel, col) in &requests {
        let mut justified = false;
        for rule in program.rules() {
            let meta = carac_datalog::RuleMeta::analyze(rule);
            if meta.index_requests().contains(&(*rel, *col)) {
                justified = true;
                break;
            }
        }
        assert!(
            justified,
            "index on ({rel:?}, {col}) has no justifying rule"
        );
    }
}

/// CSPA's three derived relations `[VaFlow, VAlias, MAlias]` by naive
/// saturation over plain sets — an oracle that shares no code with the
/// engine.
fn cspa_oracle(assign: &[(u32, u32)], derefr: &[(u32, u32)]) -> [BTreeSet<(u32, u32)>; 3] {
    type Rel = BTreeSet<(u32, u32)>;
    fn compose(left: &Rel, right: &Rel) -> Rel {
        let mut out = Rel::new();
        for &(a, b) in left {
            for &(_, c) in right.range((b, 0)..=(b, u32::MAX)) {
                out.insert((a, c));
            }
        }
        out
    }
    let inverse = |r: &Rel| -> Rel { r.iter().map(|&(a, b)| (b, a)).collect() };
    let assign: Rel = assign.iter().copied().collect();
    let derefr: Rel = derefr.iter().copied().collect();
    let mut vaflow = Rel::new();
    let mut malias = Rel::new();
    let mut valias = Rel::new();
    for &(a, b) in &assign {
        vaflow.extend([(a, b), (a, a), (b, b)]);
        malias.extend([(a, a), (b, b)]);
    }
    loop {
        let size = vaflow.len() + valias.len() + malias.len();
        // VaFlow(v1, v2) :- Assign(v1, v3), MAlias(v3, v2).
        // VaFlow(v1, v2) :- VaFlow(v1, v3), VaFlow(v3, v2).
        let grown = compose(&assign, &malias);
        vaflow.extend(grown);
        let grown = compose(&vaflow, &vaflow);
        vaflow.extend(grown);
        // VAlias(v1, v2) :- VaFlow(v3, v1), VaFlow(v3, v2).
        // VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).
        let flows_into = inverse(&vaflow);
        valias.extend(compose(&flows_into, &vaflow));
        valias.extend(compose(&compose(&flows_into, &malias), &vaflow));
        // MAlias(v1, v0) :- Derefr(v2, v1), VAlias(v2, v3), Derefr(v3, v0).
        malias.extend(compose(&compose(&inverse(&derefr), &valias), &derefr));
        if vaflow.len() + valias.len() + malias.len() == size {
            return [vaflow, valias, malias];
        }
    }
}

/// A join level whose bound variables die skips the bindings it has
/// already expanded (`ConjunctiveQuery::projection_plan`).  On CSPA every
/// evaluator skips, every derived relation equals an independent oracle,
/// and evaluators running one atom order emit exactly the same rows.
#[test]
fn projection_skips_leave_every_cspa_relation_unchanged() {
    let facts = carac_analysis::generators::cspa_facts(16, 2);
    let expected = cspa_oracle(&facts.assign, &facts.derefr);
    let program = cspa(16, 2).program(Formulation::HandOptimized).clone();
    let run = |config: EngineConfig| Carac::new(program.clone()).with_config(config).run();
    let fixed_order = |backend| {
        EngineConfig::jit_with(JitConfig {
            enable_reorder: false,
            tier_up_work: 0,
            ..JitConfig::labelled(backend, false)
        })
    };
    let mut written_order = Vec::new();
    for (mode, config) in [
        ("default", EngineConfig::default()),
        ("interpreted", EngineConfig::interpreted()),
        (
            "lambda",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "bytecode",
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ),
        ("lambda, written order", fixed_order(BackendKind::Lambda)),
        (
            "bytecode, written order",
            fixed_order(BackendKind::Bytecode),
        ),
    ] {
        let result = run(config).unwrap_or_else(|e| panic!("{mode}: {e}"));
        let stats = result.stats();
        assert!(stats.projection_skips > 0, "{mode}: nothing skipped");
        for (relation, pairs) in ["VaFlow", "VAlias", "MAlias"].iter().zip(&expected) {
            let mut got = result.tuples(relation).expect("relation exists");
            got.sort();
            let want: Vec<Tuple> = pairs.iter().map(|&(a, b)| Tuple::pair(a, b)).collect();
            assert_eq!(got, want, "{mode}: {relation} differs from the oracle");
        }
        if mode == "interpreted" || mode.ends_with("written order") {
            written_order.push((mode, stats.tuples_emitted, stats.projection_skips));
        }
    }
    let (_, emitted, skips) = written_order[0];
    for (mode, other_emitted, other_skips) in &written_order {
        assert_eq!(
            (*other_emitted, *other_skips),
            (emitted, skips),
            "{mode}: one atom order, different work"
        );
    }
}
