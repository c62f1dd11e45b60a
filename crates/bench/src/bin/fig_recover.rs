//! Recovery figure — cold re-derivation vs. restore-and-replay.
//!
//! Simulates a crash of a long-lived session: an engine evaluates a
//! workload, takes a checkpoint, journals a stream of update batches, and
//! dies.  Two ways to get the session back:
//!
//! * **cold start** — rebuild from the source facts: full semi-naive
//!   re-derivation, then re-apply every lost batch,
//! * **restore + replay** — `Carac::recover`: install the checkpoint
//!   (derived tuples *and* their epochs, no re-derivation) and replay
//!   only the journal suffix through the incremental path.
//!
//! Both sides are asserted to land on identical fact sets, so the table
//! certifies crash-consistency as well as restart latency.  Two workloads:
//! transitive closure (pure recursion) and hop-count shortest path
//! (recursion feeding a `min` aggregate, whose stratum is recomputed during
//! replay).  Results are written as a JSON artifact (default
//! `BENCH_recover.json`, override with `CARAC_BENCH_JSON`) for CI to
//! archive.  `CARAC_BENCH_SMOKE=1` shrinks the scales so CI finishes in
//! seconds.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use carac::{Carac, EngineConfig};
use carac_analysis::generators::{edge_update_stream, random_digraph, UpdateStreamBatch};
use carac_bench::{
    fmt_secs, fmt_speedup, macro_scale, smoke_mode, speedup, FigureReport, Json, HARNESS_SEED,
};
use carac_datalog::{builder, Program, ProgramBuilder};

/// Builds the transitive-closure program over an explicit edge list.
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
    b.build().expect("tc program validates")
}

/// Builds the hop-count shortest-path program (min aggregate) over an
/// explicit edge list.
fn sp_program(edges: &[(u32, u32)], max_depth: u32) -> Program {
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
    b.rule("Dist", &[builder::v("y"), builder::min_of("d")])
        .when("Reach", &["y", "d"])
        .end();
    for &(a, b_) in edges {
        b.fact_ints("Edge", &[a, b_]);
    }
    b.fact_ints("Source", &[0]);
    b.fact_ints("Zero", &[0]);
    for d in 0..max_depth {
        b.fact_ints("Succ", &[d, d + 1]);
    }
    b.build().expect("shortest-path program validates")
}

/// Builder of a workload program from an explicit edge list.
type ProgramBuilderFn<'a> = &'a dyn Fn(&[(u32, u32)]) -> Program;

struct Outcome {
    workload: &'static str,
    kernel: &'static str,
    batches: usize,
    cold: Duration,
    recover: Duration,
    speedup: f64,
    checkpoint: Duration,
    snapshot_bytes: u64,
    journal_bytes: u64,
    final_facts: usize,
}

fn temp_file(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("carac-fig-recover-{}-{tag}", std::process::id()));
    path
}

/// Runs one workload/kernel combination through crash + both restart paths.
/// Panics if either restart diverges from the pre-crash session.
fn measure(
    workload: &'static str,
    kernel: &'static str,
    config: EngineConfig,
    build: ProgramBuilderFn,
    output: &str,
    base: &[(u32, u32)],
    stream: &[UpdateStreamBatch],
) -> Outcome {
    let snap = temp_file(&format!("{workload}-{kernel}-snap"));
    let wal = temp_file(&format!("{workload}-{kernel}-wal"));

    // The durable session: evaluate, checkpoint, journal the stream, crash.
    let mut durable = Carac::new(build(base)).with_config(config);
    durable.run_live().expect("initial evaluation");
    let started = Instant::now();
    durable.checkpoint(&snap).expect("checkpoint");
    let checkpoint = started.elapsed();
    durable.journal_to(&wal).expect("journal attach");
    for batch in stream {
        durable
            .apply_edge_updates("Edge", &batch.inserts, &batch.retracts)
            .expect("journaled update applies");
    }
    let mut expected = durable.live_tuples(output).expect("output relation");
    expected.sort();
    drop(durable); // the crash: no shutdown courtesy

    // Cold start: full re-derivation from source facts, then re-apply every
    // lost batch (the batches themselves must be re-obtained from the
    // client in this scenario; their apply cost is charged all the same).
    let mut cold_engine = Carac::new(build(base)).with_config(config);
    let started = Instant::now();
    cold_engine.run_live().expect("cold re-derivation");
    for batch in stream {
        cold_engine
            .apply_edge_updates("Edge", &batch.inserts, &batch.retracts)
            .expect("cold re-apply");
    }
    let cold = started.elapsed();
    let mut cold_tuples = cold_engine.live_tuples(output).expect("output relation");
    cold_tuples.sort();
    assert_eq!(
        cold_tuples, expected,
        "{workload}/{kernel}: cold restart diverged from the crashed session"
    );

    // Restore + replay: install the checkpoint, replay the journal suffix.
    let mut warm = Carac::new(build(base)).with_config(config);
    let started = Instant::now();
    let report = warm.recover(&snap, &wal).expect("recover");
    let recover = started.elapsed();
    assert_eq!(report.replayed, stream.len() as u64);
    assert!(!report.torn_tail);
    let mut warm_tuples = warm.live_tuples(output).expect("output relation");
    warm_tuples.sort();
    assert_eq!(
        warm_tuples, expected,
        "{workload}/{kernel}: restore-and-replay diverged from the crashed session"
    );

    let file_len = |p: &PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
    let outcome = Outcome {
        workload,
        kernel,
        batches: stream.len(),
        cold,
        recover,
        speedup: speedup(cold, recover),
        checkpoint,
        snapshot_bytes: file_len(&snap),
        journal_bytes: file_len(&wal),
        final_facts: expected.len(),
    };
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&wal);
    outcome
}

/// The outcome's table row and JSON twin for the shared reporter.
fn report_row(o: &Outcome) -> (Vec<String>, Vec<(&'static str, Json)>) {
    (
        vec![
            o.workload.to_string(),
            o.kernel.to_string(),
            o.batches.to_string(),
            fmt_secs(o.cold),
            fmt_secs(o.recover),
            fmt_speedup(o.speedup),
            fmt_secs(o.checkpoint),
            format!("{} KiB", o.snapshot_bytes / 1024),
            o.final_facts.to_string(),
        ],
        vec![
            ("workload", Json::Str(o.workload.to_string())),
            ("kernel", Json::Str(o.kernel.to_string())),
            ("batches", Json::UInt(o.batches as u64)),
            ("cold_secs", Json::Secs(o.cold)),
            ("recover_secs", Json::Secs(o.recover)),
            ("speedup", Json::Ratio(o.speedup)),
            ("checkpoint_secs", Json::Secs(o.checkpoint)),
            ("snapshot_bytes", Json::UInt(o.snapshot_bytes)),
            ("journal_bytes", Json::UInt(o.journal_bytes)),
            ("final_facts", Json::UInt(o.final_facts as u64)),
        ],
    )
}

fn main() {
    let smoke = smoke_mode();
    let scale = macro_scale();
    // Same sparse-digraph shape as fig11: the closure is large enough at
    // macro scale that re-deriving it dominates a cold restart.
    let tc_nodes = (scale * 4).max(16);
    let tc_base = random_digraph(tc_nodes, tc_nodes as usize * 3 / 2, HARNESS_SEED);
    let tc_batches = if smoke { 2 } else { 6 };
    let tc_stream = edge_update_stream(&tc_base, tc_nodes, tc_batches, 1, HARNESS_SEED + 1);

    let sp_nodes = (scale * 4).max(16);
    let sp_depth = 48;
    let sp_base = random_digraph(sp_nodes, sp_nodes as usize * 2, HARNESS_SEED + 2);
    let sp_batches = if smoke { 2 } else { 4 };
    let sp_stream = edge_update_stream(&sp_base, sp_nodes, sp_batches, 2, HARNESS_SEED + 3);

    let sp_build = move |edges: &[(u32, u32)]| sp_program(edges, sp_depth);
    let kernels: Vec<(&'static str, EngineConfig)> = vec![
        (
            "interpreted",
            carac_bench::apply_trace_env(EngineConfig::interpreted()),
        ),
        (
            "specialized",
            carac_bench::apply_trace_env(EngineConfig::jit(
                carac::knobs::BackendKind::Lambda,
                false,
            )),
        ),
    ];

    let json_path =
        std::env::var("CARAC_BENCH_JSON").unwrap_or_else(|_| "BENCH_recover.json".to_string());
    let mut outcomes = Vec::new();
    let mut report = FigureReport::new(
        "fig_recover",
        "Recovery: cold re-derivation vs restore-and-replay after a crash",
        vec![
            "Workload".to_string(),
            "kernel".to_string(),
            "batches".to_string(),
            "cold".to_string(),
            "recover".to_string(),
            "speedup".to_string(),
            "checkpoint".to_string(),
            "snapshot".to_string(),
            "final facts".to_string(),
        ],
    );
    // The JSON is rewritten after every completed row, so a later
    // divergence panic still leaves the finished rows on disk for the CI
    // artifact.
    let push = |outcomes: &mut Vec<Outcome>, report: &mut FigureReport, o: Outcome| {
        let (cells, json) = report_row(&o);
        report.push_row(cells, json);
        report.rewrite_json(&json_path);
        outcomes.push(o);
    };
    for (kernel, config) in &kernels {
        push(
            &mut outcomes,
            &mut report,
            measure(
                "TransitiveClosure",
                kernel,
                *config,
                &tc_program,
                "Path",
                &tc_base,
                &tc_stream,
            ),
        );
        eprintln!("[fig_recover] TransitiveClosure/{kernel} done");
        push(
            &mut outcomes,
            &mut report,
            measure(
                "ShortestPath",
                kernel,
                *config,
                &sp_build,
                "Dist",
                &sp_base,
                &sp_stream,
            ),
        );
        eprintln!("[fig_recover] ShortestPath/{kernel} done");
    }

    report.note("(cold = full semi-naive re-derivation plus re-applying every lost batch;");
    report.note(" recover = read checkpoint + journal, install derived state and epochs,");
    report.note(" replay the journal suffix incrementally.  Fact sets are asserted identical on");
    report.note(" every row, so the speedup column is certified crash-consistent.)");
    report.print();

    // The headline claim: at macro scale, restoring a checkpoint and
    // replaying the journal suffix beats re-deriving the database from
    // scratch.  The bar is asserted on transitive closure, where restart
    // cost is derivation-dominated; the aggregate workload's restarts are
    // dominated by the per-batch stratum recompute both sides pay equally,
    // so its ratio hovers near 1x and is reported without a bar.  Reduced
    // scales (smoke, CARAC_BENCH_SCALE below the default) are too small for
    // stable ratios — fixed per-restart costs dominate — so only
    // correctness is asserted there (inside `measure`).
    if !smoke && scale >= carac_bench::DEFAULT_MACRO_SCALE {
        for o in outcomes
            .iter()
            .filter(|o| o.workload == "TransitiveClosure")
        {
            assert!(
                o.speedup >= 1.5,
                "{}/{}: restore-and-replay speedup {:.2}x below the 1.5x bar",
                o.workload,
                o.kernel,
                o.speedup
            );
        }
    }
}
