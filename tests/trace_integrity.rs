//! Trace-integrity property tests for the observability layer.
//!
//! Every engine (interpreter, specialized kernels, bytecode VM) at several
//! thread counts must produce, under `EngineConfig::with_tracing`:
//!
//! * a **well-formed event stream** — every begin has a matching end with
//!   the same span id and phase, spans nest properly (each begin's parent
//!   is the innermost open span), timestamps are monotone in record order,
//!   and the stream is balanced;
//! * **exactly reconciling profiles** — `ProfileTable::total_executions`
//!   equals `RunStats::subqueries`, `total_emitted` equals
//!   `RunStats::tuples_emitted` and `total_inserted` equals
//!   `RunStats::tuples_inserted` (the invariant promised by the
//!   `carac_exec::telemetry::profile` module docs);
//! * **bit-identical answers** to the untraced run, and identical
//!   evaluation counters (`descriptor_builds`, `probe_scan_rows` and
//!   `projection_skips` included).
//!
//! A live update-stream session is held to the same standard, with one
//! `update-batch` span per applied batch and the witness check's decisions
//! and `witness_rows` identical traced and untraced, and a deliberately
//! tiny ring checks the bounded-buffer discipline (drop oldest, count
//! drops).

use std::collections::BTreeMap;

use carac::{knobs::BackendKind, Carac, EngineConfig, EventKind, Phase, TraceConfig, TraceEvent};
use carac_datalog::parser::parse;
use carac_storage::Tuple;

/// Transitive closure over a chain with shortcut edges: several fixpoint
/// iterations and two strata (facts, recursion) on every engine.
fn tc_source() -> String {
    let mut src = String::from(
        "Path(x, y) :- Edge(x, y).\n\
         Path(x, y) :- Path(x, z), Edge(z, y).\n",
    );
    for i in 0..24u32 {
        src.push_str(&format!("Edge({i}, {}). ", i + 1));
    }
    for i in (0..20u32).step_by(5) {
        src.push_str(&format!("Edge({i}, {}). ", i + 3));
    }
    src
}

/// Recursive lattice `min` shortest path: exercises the aggregate
/// finalization path alongside ordinary subqueries.
fn agg_source() -> String {
    let mut src = String::from(
        "Dist(y, min d)  :- Depot(y), Zero(d).\n\
         Dist(y, min d2) :- Dist(x, d1), Road(x, y), Succ(d1, d2).\n\
         Depot(0). Zero(0).\n",
    );
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)] {
        src.push_str(&format!("Road({a}, {b}). "));
    }
    for d in 0..6u32 {
        src.push_str(&format!("Succ({d}, {}). ", d + 1));
    }
    src
}

/// The engine matrix: interpreter, specialized kernels (Lambda) and bytecode
/// VM — compiling at first visit, or these small programs would never reach
/// the backend whose spans are under test — and the default adaptive policy
/// (which interprets their nodes until they have done enough work); each
/// single-threaded and fork-join.
fn engine_matrix() -> Vec<(String, EngineConfig)> {
    let mut configs = Vec::new();
    for (name, base) in [
        ("interpreted", EngineConfig::interpreted()),
        (
            "specialized",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
        (
            "bytecode",
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ),
        ("adaptive", EngineConfig::default()),
    ] {
        for threads in [1usize, 2, 8] {
            configs.push((format!("{name} x{threads}"), base.with_parallelism(threads)));
        }
    }
    configs
}

/// Replays the stream against an open-span stack, asserting balance,
/// nesting, phase agreement between begin/end, and monotone timestamps.
/// Returns the number of *completed* spans per phase.
fn check_well_formed(label: &str, events: &[TraceEvent]) -> BTreeMap<&'static str, usize> {
    assert!(!events.is_empty(), "{label}: traced run recorded no events");
    let mut stack: Vec<&TraceEvent> = Vec::new();
    let mut last_at = std::time::Duration::ZERO;
    let mut last_begin_id = 0u64;
    let mut completed: BTreeMap<&'static str, usize> = BTreeMap::new();
    for event in events {
        assert!(
            event.at >= last_at,
            "{label}: timestamps not monotone ({:?} after {:?} at span {})",
            event.at,
            last_at,
            event.id
        );
        last_at = event.at;
        match event.kind {
            EventKind::Begin => {
                assert!(
                    event.id > last_begin_id,
                    "{label}: span ids not increasing in begin order ({} after {})",
                    event.id,
                    last_begin_id
                );
                last_begin_id = event.id;
                let parent = stack.last().map_or(0, |open| open.id);
                assert_eq!(
                    event.parent, parent,
                    "{label}: span {} begins under parent {} but {} is open",
                    event.id, event.parent, parent
                );
                stack.push(event);
            }
            EventKind::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("{label}: end of span {} with no open span", event.id)
                });
                assert_eq!(
                    open.id, event.id,
                    "{label}: spans do not nest — closed {} while {} was innermost",
                    event.id, open.id
                );
                assert_eq!(
                    open.phase, event.phase,
                    "{label}: span {} began as {:?} but ended as {:?}",
                    event.id, open.phase, event.phase
                );
                *completed.entry(event.phase.name()).or_default() += 1;
            }
        }
    }
    assert!(
        stack.is_empty(),
        "{label}: {} spans left open: {:?}",
        stack.len(),
        stack.iter().map(|e| (e.id, e.phase)).collect::<Vec<_>>()
    );
    completed
}

/// Asserts the exact profile-vs-stats reconciliation invariant.
fn check_reconciles(label: &str, stats: &carac::RunStats) {
    let profiles = &stats.rule_profiles;
    assert!(
        !profiles.is_empty(),
        "{label}: no rule profiles were recorded"
    );
    assert_eq!(
        profiles.total_executions(),
        stats.subqueries,
        "{label}: profile executions diverge from RunStats::subqueries"
    );
    assert_eq!(
        profiles.total_emitted(),
        stats.tuples_emitted,
        "{label}: profile emitted totals diverge from RunStats::tuples_emitted"
    );
    assert_eq!(
        profiles.total_inserted(),
        stats.tuples_inserted,
        "{label}: profile inserted totals diverge from RunStats::tuples_inserted"
    );
}

#[test]
fn event_streams_are_well_formed_and_profiles_reconcile_on_every_engine() {
    for source in [tc_source(), agg_source()] {
        for (name, config) in engine_matrix() {
            let label = format!("{name} / {}", source.lines().next().unwrap_or(""));
            let program = parse(&source).expect("program parses");
            let result = Carac::new(program)
                .with_config(config.with_tracing(TraceConfig::default()))
                .run()
                .unwrap_or_else(|e| panic!("{label}: traced run failed: {e}"));
            let stats = result.stats();
            assert_eq!(
                stats.tracer.dropped(),
                0,
                "{label}: default ring unexpectedly overflowed"
            );
            let completed = check_well_formed(&label, &stats.tracer.events());
            assert_eq!(
                completed.get(Phase::Run.name()),
                Some(&1),
                "{label}: expected exactly one run span"
            );
            for phase in [Phase::Stratum, Phase::Iteration, Phase::Subquery] {
                assert!(
                    completed.get(phase.name()).copied().unwrap_or(0) > 0,
                    "{label}: no {} spans recorded",
                    phase.name()
                );
            }
            check_reconciles(&label, stats);
        }
    }
}

#[test]
fn aggregate_spans_and_profiles_are_recorded() {
    // The VM reports aggregates through its tallies (profiles), while the
    // interpreter and the specialized kernels also record aggregate spans.
    for (name, config) in [
        ("interpreted", EngineConfig::interpreted()),
        (
            "specialized",
            EngineConfig::eager_jit(BackendKind::Lambda, false),
        ),
    ] {
        let program = parse(&agg_source()).expect("program parses");
        let result = Carac::new(program)
            .with_config(config.with_tracing(TraceConfig::default()))
            .run()
            .expect("traced run");
        let completed = check_well_formed(name, &result.stats().tracer.events());
        assert!(
            completed.get(Phase::Aggregate.name()).copied().unwrap_or(0) > 0,
            "{name}: no aggregate spans recorded"
        );
        assert!(
            result.stats().rule_profiles.aggregates().count() > 0,
            "{name}: no aggregate profiles recorded"
        );
    }
}

#[test]
fn traced_and_untraced_runs_are_bit_identical() {
    for source in [tc_source(), agg_source()] {
        let relation = if source.starts_with("Path") {
            "Path"
        } else {
            "Dist"
        };
        // Without indexes every bound probe is a scan fallback, so the
        // scan-row counter is compared on a run where it is not zero.
        let unindexed = (
            "unindexed".to_string(),
            EngineConfig::interpreted_unindexed(),
        );
        for (name, config) in engine_matrix().into_iter().chain([unindexed]) {
            let program = parse(&source).expect("program parses");
            let plain = Carac::new(program.clone())
                .with_config(config)
                .run()
                .expect("untraced run");
            let traced = Carac::new(program)
                .with_config(config.with_tracing(TraceConfig::default()))
                .run()
                .expect("traced run");
            let mut expected = plain.rows(relation).expect("relation exists");
            let mut got = traced.rows(relation).expect("relation exists");
            expected.sort();
            got.sort();
            assert_eq!(
                got, expected,
                "{name}: tracing changed the {relation} answers"
            );
            let counters = |stats: &carac::RunStats| {
                (
                    stats.subqueries,
                    stats.tuples_emitted,
                    stats.tuples_inserted,
                    stats.iterations,
                    stats.compilations(),
                    stats.reorders,
                    stats.deopts,
                    stats.compiled_executions,
                    stats.interpreted_fallbacks,
                    stats.descriptor_builds,
                    stats.probe_scan_rows,
                    stats.projection_skips,
                )
            };
            assert_eq!(
                counters(plain.stats()),
                counters(traced.stats()),
                "{name}: tracing changed the evaluation or tiering counters"
            );
            if name == "unindexed" {
                assert!(plain.stats().probe_scan_rows > 0, "{name}: no scan counted");
            }
            // In its written order the shortest-path step is keyed on
            // (d1, y) once Road(x, y) has read x, and two roads into 3
            // leave at the same distance.
            if relation == "Dist" && name.starts_with("interpreted") {
                assert!(
                    plain.stats().projection_skips > 0,
                    "{name}: no skip counted"
                );
            }
        }
    }
}

/// The tier transitions of the default policy are visible on the existing
/// `Compile` marks and reconcile exactly with `RunStats`: one mark per
/// compilation, `tier_up = 1` on a node's first install (with the work that
/// made it hot), `tier_up = 0` on every re-specialization after a
/// deoptimization, and every other visit counted as compiled or
/// interpreted.
#[test]
fn compile_marks_carry_tier_transitions_that_reconcile_with_the_counters() {
    // A 60-edge chain: the loop body reads ~120 rows per iteration, so it
    // runs interpreted first and crosses the threshold at an iteration
    // boundary.
    let mut source = String::from(
        "Path(x, y) :- Edge(x, y).\n\
         Path(x, y) :- Path(x, z), Edge(z, y).\n",
    );
    for i in 0..60u32 {
        source.push_str(&format!("Edge({i}, {}). ", i + 1));
    }
    for (name, config) in [
        ("adaptive lambda", EngineConfig::default()),
        (
            "adaptive bytecode",
            EngineConfig::jit(BackendKind::Bytecode, false),
        ),
    ] {
        let program = parse(&source).expect("program parses");
        let plain = Carac::new(program.clone())
            .with_config(config)
            .run()
            .expect("untraced run");
        let traced = Carac::new(program)
            .with_config(config.with_tracing(TraceConfig::default()))
            .run()
            .expect("traced run");
        let mut expected = plain.rows("Path").expect("relation exists");
        let mut got = traced.rows("Path").expect("relation exists");
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "{name}: tracing changed the answers");
        assert_eq!(got.len(), 60 * 61 / 2);

        let stats = traced.stats();
        check_well_formed(name, &stats.tracer.events());
        check_reconciles(name, stats);
        let counter = |event: &TraceEvent, key: &str| {
            let found = event.counters.iter().find(|(k, _)| *k == key);
            found
                .unwrap_or_else(|| panic!("{name}: compile mark without `{key}`"))
                .1
        };
        let marks: Vec<_> = stats
            .tracer
            .events()
            .into_iter()
            .filter(|e| e.phase == Phase::Compile && e.kind == EventKind::End)
            .collect();
        assert_eq!(marks.len(), stats.compilations(), "{name}");
        let tier_ups = marks.iter().filter(|m| counter(m, "tier_up") == 1).count();
        assert_eq!(tier_ups, 1, "{name}: only the loop body becomes hot");
        assert_eq!(
            (marks.len() - tier_ups) as u64,
            stats.deopts,
            "{name}: every other compilation follows a deoptimization"
        );
        for mark in &marks {
            assert!(counter(mark, "work_seen") > 0, "{name}");
        }
        assert!(stats.interpreted_fallbacks > 0, "{name}: cold visits count");
        assert_eq!(
            (stats.compiled_executions, stats.interpreted_fallbacks),
            (
                plain.stats().compiled_executions,
                plain.stats().interpreted_fallbacks
            ),
            "{name}: tracing changed the tiering decisions"
        );
    }
}

#[test]
fn live_update_sessions_stay_well_formed_and_reconciled() {
    let program = parse(&tc_source()).expect("program parses");
    let mut engine = Carac::new(program)
        .with_config(EngineConfig::interpreted().with_tracing(TraceConfig::default()));
    engine.run_live().expect("live fixpoint");

    let batches: &[&[(u32, u32)]] = &[&[(30, 31), (31, 32)], &[(32, 33)], &[(5, 30)]];
    for (i, ops) in batches.iter().enumerate() {
        let rel = engine
            .program()
            .relation_by_name("Edge")
            .expect("Edge exists");
        let mut batch = carac::UpdateBatch::new();
        for &(a, b) in *ops {
            batch.insert(
                rel,
                Tuple::new(vec![
                    carac_storage::Value::int(a),
                    carac_storage::Value::int(b),
                ]),
            );
        }
        engine.apply_update(batch).expect("incremental apply");

        let stats = engine.live_stats().expect("live session has stats");
        let completed = check_well_formed("live session", &stats.tracer.events());
        assert_eq!(
            completed.get(Phase::UpdateBatch.name()),
            Some(&(i + 1)),
            "expected one update-batch span per applied batch"
        );
        check_reconciles("live session", stats);
    }

    // The batch spans carry the incremental layer's EDB counters.
    let stats = engine.live_stats().expect("live session has stats");
    let batch_ends: Vec<_> = stats
        .tracer
        .events()
        .into_iter()
        .filter(|e| e.phase == Phase::UpdateBatch && e.kind == EventKind::End)
        .collect();
    assert_eq!(batch_ends.len(), batches.len());
    for (end, ops) in batch_ends.iter().zip(batches) {
        let inserted = end
            .counters
            .iter()
            .find(|(k, _)| *k == "edb_inserted")
            .map(|(_, v)| *v);
        assert_eq!(
            inserted,
            Some(ops.len() as u64),
            "update-batch span counters miss the applied inserts"
        );
    }
}

/// Retractions put heads through the witness check: its decisions and its
/// work counter `witness_rows` are exact counts, so a traced session
/// reports them bit for bit like an untraced one, per batch and on its
/// `update-batch` spans.
#[test]
fn witness_checks_count_the_same_rows_traced_and_untraced() {
    // (retracted, inserted) Edge pairs per batch: cuts into the chain and
    // across the shortcuts, one put back.
    let batches = [
        (vec![(5u32, 6u32)], vec![]),
        (vec![(10, 13), (11, 12)], vec![]),
        (vec![(17, 18)], vec![(5, 6)]),
    ];
    for (name, config) in engine_matrix() {
        let session = |config: EngineConfig| {
            let mut engine =
                Carac::new(parse(&tc_source()).expect("program parses")).with_config(config);
            let reports: Vec<_> = batches
                .iter()
                .map(|(retracts, inserts)| {
                    engine
                        .apply_edge_updates("Edge", inserts, retracts)
                        .expect("incremental apply")
                        .stats
                })
                .collect();
            let stats = engine.live_stats().expect("live session has stats").clone();
            (reports, stats)
        };
        let (plain, plain_stats) = session(config);
        let (traced, traced_stats) = session(config.with_tracing(TraceConfig::default()));
        assert_eq!(
            plain, traced,
            "{name}: tracing changed the update decisions"
        );
        assert_eq!(plain_stats.update, traced_stats.update, "{name}");
        let total: u64 = plain.iter().map(|s| s.witness_rows).sum();
        assert!(total > 0, "{name}: no witness check ran");
        assert_eq!(plain_stats.update.witness_rows, total, "{name}");
        let spans: Vec<u64> = traced_stats
            .tracer
            .events()
            .into_iter()
            .filter(|e| e.phase == Phase::UpdateBatch && e.kind == EventKind::End)
            .map(|e| {
                let found = e.counters.iter().find(|(k, _)| *k == "witness_rows");
                found.expect("update-batch span carries witness_rows").1
            })
            .collect();
        let reported: Vec<u64> = plain.iter().map(|s| s.witness_rows).collect();
        assert_eq!(spans, reported, "{name}");
    }
}

#[test]
fn tiny_ring_drops_oldest_and_counts_them() {
    let program = parse(&tc_source()).expect("program parses");
    let result = Carac::new(program)
        .with_config(
            EngineConfig::interpreted().with_tracing(TraceConfig::default().with_span_capacity(16)),
        )
        .run()
        .expect("traced run");
    let tracer = &result.stats().tracer;
    let events = tracer.events();
    assert!(events.len() <= 16, "ring exceeded its capacity");
    assert!(
        tracer.dropped() > 0,
        "a 16-event ring should have overflowed"
    );
    // The surviving tail is still monotone in record order.
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "retained tail lost monotonicity");
    }
}
