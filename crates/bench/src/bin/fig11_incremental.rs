//! Figure 11 — incremental maintenance vs. from-scratch re-evaluation.
//!
//! Streams edge insert/retract batches into a live engine session
//! (`Carac::apply_update`: insert propagation plus the witness check for
//! deletions in every positive stratum) and compares the total maintenance
//! time against re-evaluating every post-batch database from scratch.  Two
//! workloads:
//!
//! * **transitive closure** — one recursive stratum, the pure witness-check
//!   and insert-propagation path, driven with single-edge deltas (the
//!   latency-critical streaming shape),
//! * **shortest path** — bounded reachability (recursive) feeding a `min`
//!   aggregate (stratum recompute) and a `<`-constrained selection, with
//!   small mixed batches.
//!
//! Sessions of the interpreted and the JIT Lambda modes are measured (the
//! `kernel` column); both maintain through the specialized kernel.
//! Final fact sets are asserted identical to the scratch runs — the table
//! certifies correctness as well as speedup.  Results are also written as a
//! JSON artifact (default `BENCH_incremental.json`, override with
//! `CARAC_BENCH_JSON`) for CI to archive.  `CARAC_BENCH_SMOKE=1` shrinks
//! the scales so CI finishes in seconds.

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

/// Builds the hop-count shortest-path program (min aggregate + constraint)
/// over an explicit edge list.
fn sp_program(edges: &[(u32, u32)], max_depth: u32) -> Program {
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
    b.rule("Dist", &[builder::v("y"), builder::min_of("d")])
        .when("Reach", &["y", "d"])
        .end();
    b.rule("Near", &["y"])
        .when("Dist", &["y", "d"])
        .lt(builder::v("d"), builder::c((max_depth / 2).max(1)))
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
    ops_per_batch: usize,
    scratch: Duration,
    incremental: Duration,
    speedup: f64,
    final_facts: usize,
}

/// Runs one workload/kernel combination through the stream, returning the
/// scratch-vs-incremental comparison.  Panics if the incremental session
/// ever diverges from the scratch fact set.
#[allow(clippy::too_many_arguments)]
fn measure(
    workload: &'static str,
    kernel: &'static str,
    config: EngineConfig,
    build: ProgramBuilderFn,
    output: &str,
    base: &[(u32, u32)],
    stream: &[UpdateStreamBatch],
) -> Outcome {
    // Incremental: one live session maintained across the stream (initial
    // evaluation excluded — it is identical work for both sides).
    let mut engine = Carac::new(build(base)).with_config(config);
    engine.run_live().expect("initial evaluation");
    let started = Instant::now();
    for batch in stream {
        engine
            .apply_edge_updates("Edge", &batch.inserts, &batch.retracts)
            .expect("update batch applies");
    }
    let incremental = started.elapsed();
    let mut incremental_tuples = engine.live_tuples(output).expect("output relation");
    incremental_tuples.sort();

    // Scratch: re-evaluate the full program after every batch.  Only the
    // engine's measured execution time counts (program construction and
    // fact loading are excluded, which favors the scratch side).
    let mut live: Vec<(u32, u32)> = base.to_vec();
    live.sort();
    live.dedup();
    let mut scratch = Duration::ZERO;
    let mut scratch_result = None;
    for batch in stream {
        for e in &batch.retracts {
            if let Some(pos) = live.iter().position(|x| x == e) {
                live.remove(pos);
            }
        }
        live.extend(batch.inserts.iter().copied());
        let result = Carac::new(build(&live))
            .with_config(config)
            .run()
            .expect("scratch run");
        scratch += result.stats().total_time;
        scratch_result = Some(result);
    }
    let scratch_result = scratch_result.expect("at least one batch");
    carac_bench::export_env_trace("fig11", &scratch_result);
    let mut scratch_tuples = scratch_result.tuples(output).expect("output relation");
    scratch_tuples.sort();
    assert_eq!(
        incremental_tuples, scratch_tuples,
        "{workload}/{kernel}: incremental maintenance diverged from scratch evaluation"
    );

    Outcome {
        workload,
        kernel,
        batches: stream.len(),
        ops_per_batch: stream
            .iter()
            .map(|b| b.inserts.len() + b.retracts.len())
            .max()
            .unwrap_or(0),
        scratch,
        incremental,
        speedup: speedup(scratch, incremental),
        final_facts: scratch_tuples.len(),
    }
}

/// The outcome's table row and JSON twin for the shared reporter.
fn report_row(o: &Outcome) -> (Vec<String>, Vec<(&'static str, Json)>) {
    (
        vec![
            o.workload.to_string(),
            o.kernel.to_string(),
            o.batches.to_string(),
            fmt_secs(o.scratch),
            fmt_secs(o.incremental),
            fmt_speedup(o.speedup),
            o.final_facts.to_string(),
        ],
        vec![
            ("workload", Json::Str(o.workload.to_string())),
            ("kernel", Json::Str(o.kernel.to_string())),
            ("batches", Json::UInt(o.batches as u64)),
            ("max_ops_per_batch", Json::UInt(o.ops_per_batch as u64)),
            ("scratch_secs", Json::Secs(o.scratch)),
            ("incremental_secs", Json::Secs(o.incremental)),
            ("speedup", Json::Ratio(o.speedup)),
            ("final_facts", Json::UInt(o.final_facts as u64)),
        ],
    )
}

fn main() {
    let smoke = smoke_mode();
    let scale = macro_scale();
    // Sparse random digraphs (≈1.5 arcs per node): the closure is still tens
    // of thousands of facts at macro scale, but reach sets — and therefore
    // deletion cones — stay bounded.  (Inside a giant SCC a deletion's cone
    // approaches the whole closure; the witness check keeps most of it in
    // place, see "Incremental maintenance" in ARCHITECTURE.md.)
    // `FIG11_NODES` / `FIG11_EDGES` override the shape.
    let tc_nodes: u32 = std::env::var("FIG11_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or((scale * 4).max(16));
    let tc_edges: usize = std::env::var("FIG11_EDGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tc_nodes as usize * 3 / 2);
    let tc_base = random_digraph(tc_nodes, tc_edges, HARNESS_SEED);
    // Single-edge deltas: the latency-critical streaming shape the
    // acceptance criterion measures.
    let tc_batches = if smoke { 2 } else { 8 };
    let tc_stream = edge_update_stream(&tc_base, tc_nodes, tc_batches, 1, HARNESS_SEED + 1);

    let sp_nodes = (scale * 4).max(16);
    let sp_depth = 48;
    let sp_base = random_digraph(sp_nodes, sp_nodes as usize * 2, HARNESS_SEED + 2);
    let sp_batches = if smoke { 2 } else { 6 };
    let sp_stream = edge_update_stream(&sp_base, sp_nodes, sp_batches, 4, HARNESS_SEED + 3);
    // Insert-only variant of the same stream: the streaming-growth shape
    // where maintenance never pays a deletion cone.
    let sp_grow: Vec<UpdateStreamBatch> = sp_stream
        .iter()
        .map(|b| UpdateStreamBatch {
            inserts: b.inserts.clone(),
            retracts: Vec::new(),
        })
        .collect();

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
        std::env::var("CARAC_BENCH_JSON").unwrap_or_else(|_| "BENCH_incremental.json".to_string());
    let mut outcomes = Vec::new();
    let mut report = FigureReport::new(
        "fig11",
        "Figure 11: incremental maintenance vs from-scratch re-evaluation",
        vec![
            "Workload".to_string(),
            "kernel".to_string(),
            "batches".to_string(),
            "scratch".to_string(),
            "incremental".to_string(),
            "speedup".to_string(),
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
        eprintln!("[fig11] TransitiveClosure/{kernel} done");
        push(
            &mut outcomes,
            &mut report,
            measure(
                "ShortestPath (mixed)",
                kernel,
                *config,
                &sp_build,
                "Dist",
                &sp_base,
                &sp_stream,
            ),
        );
        eprintln!("[fig11] ShortestPath (mixed)/{kernel} done");
        push(
            &mut outcomes,
            &mut report,
            measure(
                "ShortestPath (grow)",
                kernel,
                *config,
                &sp_build,
                "Dist",
                &sp_base,
                &sp_grow,
            ),
        );
        eprintln!("[fig11] ShortestPath (grow)/{kernel} done");
    }

    report.note("(scratch = sum of full re-evaluations after every batch; incremental = the live");
    report.note(" session's apply_update total; fact sets are asserted identical on every row.");
    report.note(" ShortestPath mixed batches pay the deletion phase across the depth-indexed");
    report.note(" Reach relation plus a per-batch aggregate-stratum recompute, so deletions there");
    report
        .note(" approach scratch cost by design; the insert-only stream shows the growth shape.)");
    report.print();

    // The headline claim of the figure: at macro scale, single-edge deltas
    // on transitive closure are maintained at least 5x faster than scratch
    // re-evaluation.  Reduced scales (smoke, CARAC_BENCH_SCALE below the
    // default) are too small for stable ratios — per-batch fixed costs
    // dominate — so only correctness is asserted there (inside `measure`).
    if !smoke && scale >= carac_bench::DEFAULT_MACRO_SCALE {
        for o in outcomes
            .iter()
            .filter(|o| o.workload == "TransitiveClosure")
        {
            assert!(
                o.speedup >= 5.0,
                "incremental TC speedup {:.2}x below the 5x bar ({} kernel)",
                o.speedup,
                o.kernel
            );
        }
    }
}
