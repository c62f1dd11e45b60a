//! The traced run: where a workload's time goes, layer by layer.
//!
//! Here the benchmark drives the pipeline itself, stage by stage, through
//! each crate's public functions — what `Carac::run`, `apply_update`,
//! `checkpoint` and `recover` do inside — and records a span around every
//! call.  The engine's own iteration/subquery/compile events are read back
//! through its public tracer and hung under the fixpoint span.  Every
//! staged result is checked against the oracle exactly like a facade run,
//! and `staged wall / facade wall` is reported so a drift between the two
//! paths shows.
//!
//! Unless a metric carries a mode suffix it is taken under the default mode
//! (`jit_lambda`).  Counts marked "exact" repeat bit for bit; the default
//! mode is staged twice (engine tracer off, then on) and run once through
//! the facade, and any disagreement between the three is a failed
//! operation.

use std::path::Path;
use std::time::Instant;

use carac::{Carac, EngineConfig, ExecutionMode, UpdateBatch};
use carac_datalog::parser::parse;
use carac_datalog::Program;
use carac_exec::{
    interpreter, update_kernel, ExecContext, Incremental, JitConfig, JitEngine, RunStats,
    TraceConfig, Tracer,
};
use carac_ir::{generate_plan, verify_plan, EvalStrategy, IRNode};
use carac_optimizer::{optimize_plan, reorder_query, OptimizerConfig, ReorderAlgorithm};
use carac_storage::{read_journal, read_snapshot, write_snapshot, JournalWriter};
use carac_vm::{compile_node, verify_program, Machine};

use crate::e2e::{self, check, modes, Expected, Mode, SessionFiles, Tally, DEFAULT_MODE};
use crate::micro;
use crate::oracle::Fingerprint;
use crate::spans::{self_seconds_by_name, Recorder};
use crate::stats::{median, percentile, Metric};
use crate::workloads::{Built, Case, Session};

/// Engine events one traced run may hold; csda's few thousand iterations
/// are far below it, so `exec.trace_events_dropped` staying 0 is expected.
const ENGINE_SPAN_CAPACITY: usize = 1 << 22;

/// How many batches the interpreted update kernel is timed on.
const INTERPRETED_KERNEL_BATCHES: usize = 100;

/// The traced run's metrics, in reporting order.
#[derive(Default)]
pub struct Layered(pub Vec<Metric>);

impl Layered {
    fn time(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric::new(name, unit, value));
    }

    /// A count, or a ratio of counts, that repeats exactly.
    fn exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric::new(name, unit, value).exact());
    }

    /// Reported in the result file only: a number that is exactly zero on
    /// most workloads (which the driver's contract does not accept as a
    /// time) or that describes the traced run itself.
    fn aside(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric::new(name, unit, value).undeclared());
    }
}

/// The counters of one fixpoint that must not depend on how it was driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    iterations: u64,
    subqueries: u64,
    emitted: u64,
    inserted: u64,
    reorders: u64,
    compilations: u64,
    compiled_executions: u64,
    interpreted_fallbacks: u64,
}

impl Counts {
    fn of(stats: &RunStats) -> Counts {
        Counts {
            iterations: stats.iterations,
            subqueries: stats.subqueries,
            emitted: stats.tuples_emitted,
            inserted: stats.tuples_inserted,
            reorders: stats.reorders,
            compilations: stats.compilations() as u64 + stats.compile_events_dropped,
            compiled_executions: stats.compiled_executions,
            interpreted_fallbacks: stats.interpreted_fallbacks,
        }
    }

    fn add(&mut self, other: Counts) {
        self.iterations += other.iterations;
        self.subqueries += other.subqueries;
        self.emitted += other.emitted;
        self.inserted += other.inserted;
        self.reorders += other.reorders;
        self.compilations += other.compilations;
        self.compiled_executions += other.compiled_executions;
        self.interpreted_fallbacks += other.interpreted_fallbacks;
    }
}

/// Totals of one staged pass over all cases under one mode.
#[derive(Default)]
struct Staged {
    wall_s: f64,
    fixpoint_s: f64,
    compile_s: f64,
    counts: Counts,
    engine_events_dropped: u64,
}

fn fingerprint_context(program: &Program, ctx: &ExecContext) -> Fingerprint {
    e2e::fingerprint(program, |decl| Ok::<_, String>(ctx.derived_tuples(decl.id)))
        .expect("reading a context cannot fail")
}

/// What `Carac::run` does under `mode`, one public call per span.
fn staged_case(
    rec: &mut Recorder,
    case: &Case,
    cold_parse: bool,
    mode: &Mode,
    trace_engine: bool,
    totals: &mut Staged,
) -> Result<Fingerprint, String> {
    let name = mode.name;
    let (outcome, wall_s) = rec.time("core.run", name, |rec| -> Result<Fingerprint, String> {
        let program = if cold_parse {
            rec.time("datalog.parse", name, |_| parse(&case.source))
                .0
                .map_err(|e| e.to_string())?
        } else {
            rec.time("core.program_clone", name, |_| case.program.clone())
                .0
        };
        let mut ctx = rec
            .time("exec.context_prepare", name, |_| {
                let mut ctx = ExecContext::prepare(&program, true)?;
                ctx.set_parallelism(1)?;
                Ok(ctx)
            })
            .0
            .map_err(|e: carac_exec::ExecError| e.to_string())?;
        if trace_engine {
            ctx.stats.tracer =
                Tracer::new(TraceConfig::default().with_span_capacity(ENGINE_SPAN_CAPACITY));
        }
        let plan = match &mode.config.mode {
            ExecutionMode::AheadOfTime(aot) => {
                rec.time("core.aot_prepare_plan", name, |_| {
                    carac::aot::prepare_plan(&program, EvalStrategy::SemiNaive, aot, &[])
                })
                .0
                .map_err(|e| e.to_string())?
                .0
            }
            _ => {
                rec.time("ir.generate_plan", name, |_| {
                    generate_plan(&program, EvalStrategy::SemiNaive)
                })
                .0
            }
        };
        // The engine the facade would build for this mode.
        let jit_config = match &mode.config.mode {
            ExecutionMode::Interpreted => None,
            ExecutionMode::Jit(jit) => Some(*jit),
            ExecutionMode::AheadOfTime(_) => Some(JitConfig {
                backend: carac::knobs::BackendKind::IrGen,
                reorder_algorithm: ReorderAlgorithm::Sort,
                ..JitConfig::default()
            }),
        };
        // The fixpoint span is the call `RunStats::total_time` covers; the
        // JIT engine's construction (which spawns its compiler thread) and
        // drop (which joins it) are what a caller pays on top.
        let mut fixpoint = |rec: &mut Recorder,
                            run: &mut dyn FnMut(
            &mut ExecContext,
        ) -> Result<(), carac_exec::ExecError>| {
            rec.time("exec.fixpoint", name, |rec| {
                let ran = run(&mut ctx);
                totals.engine_events_dropped += rec.import_engine(&ctx.stats.tracer, name);
                ran
            })
        };
        let (ran, fixpoint_s) = match jit_config {
            None => fixpoint(rec, &mut |ctx| interpreter::interpret(&plan, ctx)),
            Some(jit) => {
                let mut engine = rec
                    .time("exec.jit_engine_new", name, |_| JitEngine::new(plan, jit))
                    .0;
                let outcome = fixpoint(rec, &mut |ctx| engine.run(ctx));
                rec.time("exec.jit_engine_drop", name, |_| drop(engine));
                outcome
            }
        };
        ran.map_err(|e| e.to_string())?;
        totals.fixpoint_s += fixpoint_s;
        totals.compile_s += ctx.stats.compile_time().as_secs_f64();
        totals.counts.add(Counts::of(&ctx.stats));
        let print = rec
            .time("core.result_extract", name, |_| {
                fingerprint_context(&program, &ctx)
            })
            .0;
        rec.time("core.drop", name, |_| drop(ctx));
        Ok(print)
    });
    totals.wall_s += wall_s;
    outcome
}

fn staged_pass(
    rec: &mut Recorder,
    built: &Built,
    expected: &Expected,
    mode: &Mode,
    trace_engine: bool,
    tally: &mut Tally,
) -> Staged {
    let mut totals = Staged::default();
    for (i, (case, expected)) in built.cases.iter().zip(&expected.cases).enumerate() {
        let what = format!("staged {} case {i}", mode.name);
        let outcome = staged_case(rec, case, built.cold_parse, mode, trace_engine, &mut totals)
            .and_then(|print| check(&what, &print, expected));
        tally.record(outcome);
    }
    totals
}

/// Front end and planning on their own, plus the whole-program bytecode
/// path: reorder over the loaded facts, compile, verify, run on the VM.
fn front_end_and_vm(
    rec: &mut Recorder,
    built: &Built,
    expected: &Expected,
    tally: &mut Tally,
    out: &mut Layered,
) {
    let (mut parse_s, mut plan_s, mut verify_plan_s) = (0.0, 0.0, 0.0);
    let (mut reorder_s, mut compile_s, mut verify_s, mut machine_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut plan_nodes, mut instrs, mut executed) = (0usize, 0usize, 0u64);
    let (mut requery_s, mut queries) = (0.0, 0usize);
    for (i, (case, expected)) in built.cases.iter().zip(&expected.cases).enumerate() {
        let what = format!("whole-program vm case {i}");
        let outcome = (|| -> Result<(), String> {
            let (program, took) = rec.time("datalog.parse", "vm", |_| parse(&case.source));
            let program = program.map_err(|e| e.to_string())?;
            parse_s += took;
            let (mut plan, took): (IRNode, f64) = rec.time("ir.generate_plan", "vm", |_| {
                generate_plan(&program, EvalStrategy::SemiNaive)
            });
            plan_s += took;
            plan_nodes += plan.node_count();
            let (verified, took) =
                rec.time("ir.verify_plan", "vm", |_| verify_plan(&plan, &program));
            verified.map_err(|e| e.to_string())?;
            verify_plan_s += took;
            let mut ctx = ExecContext::prepare(&program, true).map_err(|e| e.to_string())?;
            let ((), took) = rec.time("optimizer.optimize_plan", "vm", |_| {
                optimize_plan(
                    &mut plan,
                    &ctx.optimize_context(),
                    &OptimizerConfig::default(),
                    ReorderAlgorithm::Greedy,
                );
            });
            reorder_s += took;
            let (compiled, took) = rec.time("vm.compile_node", "vm", |_| compile_node(&plan));
            let compiled = compiled.map_err(|e| e.to_string())?;
            compile_s += took;
            instrs += compiled.len();
            let (verified, took) = rec.time("vm.verify_program", "vm", |_| {
                verify_program(&compiled, &ctx.arities)
            });
            verified.map_err(|e| e.to_string())?;
            verify_s += took;
            let (ran, took) = rec.time("vm.machine_run", "vm", |_| {
                Machine::for_program(&compiled).run(&compiled, &mut ctx.storage)
            });
            executed += ran.map_err(|e| e.to_string())?.executed;
            machine_s += took;
            // What one re-optimization decision costs against the finished
            // fixpoint's statistics.
            let optimize_context = ctx.optimize_context();
            let config = OptimizerConfig::default();
            let ((), took) = rec.time("optimizer.reorder_queries", "vm", |_| {
                for (_, query) in plan.spj_queries() {
                    std::hint::black_box(reorder_query(
                        query,
                        &optimize_context,
                        &config,
                        ReorderAlgorithm::Greedy,
                    ));
                }
            });
            requery_s += took;
            queries += plan.spj_queries().len();
            check(&what, &fingerprint_context(&program, &ctx), expected)
        })();
        tally.record(outcome);
    }
    out.time("datalog.parse_s", "s", parse_s);
    out.time(
        "datalog.parse_mb_per_s",
        "MB/s",
        built.source_bytes as f64 / 1e6 / parse_s,
    );
    out.time("ir.plan_s", "s", plan_s);
    out.exact("ir.plan_nodes", "count", plan_nodes as f64);
    out.time("ir.verify_plan_s", "s", verify_plan_s);
    out.time("optimizer.initial_reorder_s", "s", reorder_s);
    out.time(
        "optimizer.reorder_us_per_query",
        "us",
        requery_s * 1e6 / queries.max(1) as f64,
    );
    out.time("vm.compile_s", "s", compile_s);
    out.exact("vm.program_instrs", "count", instrs as f64);
    out.time("vm.verify_s", "s", verify_s);
    out.time(
        "vm.dispatch_ns_per_instr",
        "ns",
        machine_s * 1e9 / executed.max(1) as f64,
    );
}

/// Totals of the staged sessions.
#[derive(Default)]
struct StagedSessions {
    append_us: Vec<f64>,
    insert_ms: Vec<f64>,
    retract_ms: Vec<f64>,
    overdeleted: u64,
    rederived: u64,
    compactions: u64,
    journal_bytes: u64,
    journal_ops: u64,
    checkpoint_s: f64,
    snapshot_bytes: u64,
    snapshot_facts: u64,
    snapshot_read_s: f64,
    restore_s: f64,
    replay_s: f64,
}

/// What a journaled live session does inside the facade — open, journal
/// append, incremental apply, checkpoint, crash, restore, replay — one
/// public call per span.
fn staged_session(
    rec: &mut Recorder,
    session: &Session,
    expected: &Fingerprint,
    files: &SessionFiles,
    totals: &mut StagedSessions,
) -> Result<(), String> {
    const MODE: &str = "live";
    let program = &session.program;
    let kernel = update_kernel(JitConfig::default().backend);
    let text = |e: carac_exec::ExecError| e.to_string();
    let persist = |e: carac::PersistError| e.to_string();

    let before = rec
        .time("core.session", MODE, |rec| -> Result<Fingerprint, String> {
            let mut ctx = rec
                .time("exec.open", MODE, |_| -> Result<ExecContext, String> {
                    let mut ctx = ExecContext::prepare(program, true).map_err(text)?;
                    let plan = generate_plan(program, EvalStrategy::SemiNaive);
                    JitEngine::new(plan, JitConfig::default())
                        .run(&mut ctx)
                        .map_err(text)?;
                    Ok(ctx)
                })
                .0?;
            let incremental = Incremental::new(program, &[], kernel);
            let mut journal = JournalWriter::create(&files.journal).map_err(persist)?;
            let mut checkpointed = false;
            let checkpoint =
                |rec: &mut Recorder, ctx: &ExecContext, seq: u64, totals: &mut StagedSessions| {
                    let (written, took) = rec.time("storage.write_snapshot", MODE, |_| {
                        write_snapshot(&files.snapshot, &ctx.storage, program.symbols(), seq)
                    });
                    totals.checkpoint_s += took;
                    totals.snapshot_facts += ctx.storage.total_derived() as u64;
                    written.map_err(persist)
                };
            for (i, batch) in session.batches.iter().enumerate() {
                if i == session.checkpoint_after {
                    checkpoint(rec, &ctx, journal.next_seq() - 1, totals)?;
                    checkpointed = true;
                }
                let (appended, took) = rec.time("storage.journal_append", MODE, |_| {
                    journal.append(&batch.encode())
                });
                appended.map_err(persist)?;
                totals.append_us.push(took * 1e6);
                let (report, took) = rec.time("exec.apply_update", MODE, |_| {
                    incremental.apply(&mut ctx, batch)
                });
                let report = report.map_err(text)?;
                if session.retracts[i] {
                    totals.retract_ms.push(took * 1e3);
                } else {
                    totals.insert_ms.push(took * 1e3);
                }
                totals.overdeleted += report.stats.overdeleted;
                totals.rederived += report.stats.rederived;
                totals.compactions += report.stats.compactions;
                totals.journal_ops += batch.len() as u64;
            }
            if !checkpointed {
                checkpoint(rec, &ctx, journal.next_seq() - 1, totals)?;
            }
            totals.journal_bytes += journal.byte_len();
            totals.snapshot_bytes += e2e::file_len(&files.snapshot)?;
            Ok(fingerprint_context(program, &ctx))
        })
        .0?;

    let after = rec
        .time("core.recover", MODE, |rec| -> Result<Fingerprint, String> {
            let (snapshot, took) = rec.time("storage.read_snapshot", MODE, |_| {
                read_snapshot(&files.snapshot)
            });
            let snapshot = snapshot.map_err(persist)?;
            totals.snapshot_read_s += took;
            let (restored, took) =
                rec.time("core.recover_restore", MODE, |_| -> Result<_, String> {
                    snapshot
                        .validate_symbols(program.symbols())
                        .map_err(persist)?;
                    let mut ctx = ExecContext::prepare(program, true).map_err(text)?;
                    snapshot.apply(&mut ctx.storage).map_err(persist)?;
                    Ok((ctx, Incremental::new(program, &[], kernel)))
                });
            let (mut ctx, incremental) = restored?;
            totals.restore_s += took;
            let (replayed, took) =
                rec.time("core.recover_replay", MODE, |_| -> Result<usize, String> {
                    let contents = read_journal(&files.journal).map_err(persist)?;
                    let mut replayed = 0;
                    for record in &contents.records {
                        if record.seq > snapshot.journal_seq {
                            let batch = UpdateBatch::decode(&record.payload).map_err(text)?;
                            incremental.apply(&mut ctx, &batch).map_err(text)?;
                            replayed += 1;
                        }
                    }
                    Ok(replayed)
                });
            totals.replay_s += took;
            if replayed? != session.replayed() {
                return Err("staged recovery replayed the wrong number of batches".to_string());
            }
            Ok(fingerprint_context(program, &ctx))
        })
        .0?;
    check("staged recovery vs before the crash", &after, &before)?;
    check("staged session", &after, expected)
}

/// The first batches of every session once more through the facade, under
/// the interpreted update kernel, and then the facade's own checkpoint.
/// Returns the median batch latency in ms and the summed checkpoint time.
fn interpreted_sessions(built: &Built, out_dir: &Path) -> Result<(f64, f64), String> {
    let mut batch_ms = Vec::new();
    let mut checkpoint_s = 0.0;
    let snapshot = out_dir.join(format!("interpreted.{}.snap", std::process::id()));
    for session in &built.sessions {
        let mut engine =
            Carac::new(session.program.clone()).with_config(EngineConfig::interpreted());
        engine.run_live().map_err(|e| e.to_string())?;
        for batch in session.batches.iter().take(INTERPRETED_KERNEL_BATCHES) {
            let batch = batch.clone();
            let started = Instant::now();
            engine.apply_update(batch).map_err(|e| e.to_string())?;
            batch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let started = Instant::now();
        engine.checkpoint(&snapshot).map_err(|e| e.to_string())?;
        checkpoint_s += started.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_file(&snapshot);
    Ok((median(&batch_ms), checkpoint_s))
}

/// Wall-clock seconds of one pass over the cases through the facade.
fn facade_wall(
    built: &Built,
    expected: &[Fingerprint],
    label: &str,
    unoptimized: bool,
    config: EngineConfig,
    tally: &mut Tally,
) -> f64 {
    e2e::run_cases(built, expected, label, unoptimized, config, tally)
        .iter()
        .sum()
}

fn facade_counts(built: &Built, config: EngineConfig) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for case in &built.cases {
        let result = Carac::new(case.program.clone())
            .with_config(config)
            .run()
            .map_err(|e| e.to_string())?;
        counts.add(Counts::of(result.stats()));
    }
    Ok(counts)
}

pub fn run(
    workload: &str,
    built: &Built,
    expected: &Expected,
    out_dir: &Path,
    tally: &mut Tally,
) -> (Layered, Recorder) {
    let mut out = Layered::default();
    let mut rec = Recorder::new(workload);
    let modes = modes();
    let default = &modes[DEFAULT_MODE];
    let cases = built.cases.len().max(1) as f64;

    // The other vCPU is kept awake as in the end-to-end run (see
    // `KeepAwake`), except for the last passes below.
    let awake = crate::env::KeepAwake::start();

    front_end_and_vm(&mut rec, built, expected, tally, &mut out);

    // Facade walls with tracing off (also the warm-up of every mode), then
    // one staged pass per mode with the engine's tracer on.
    let mut facade_s = Vec::new();
    for mode in &modes {
        facade_s.push(facade_wall(
            built,
            &expected.cases,
            mode.name,
            false,
            mode.config,
            tally,
        ));
    }
    let mut default_facade = vec![facade_s[DEFAULT_MODE]];
    let mut unopt_facade = Vec::new();
    for _ in 0..3 {
        unopt_facade.push(facade_wall(
            built,
            &expected.cases,
            "unopt_jit_lambda",
            true,
            default.config,
            tally,
        ));
        default_facade.push(facade_wall(
            built,
            &expected.cases,
            default.name,
            false,
            default.config,
            tally,
        ));
    }
    let default_facade_s = median(&default_facade);

    let mut staged = Vec::new();
    for mode in &modes {
        staged.push(staged_pass(&mut rec, built, expected, mode, true, tally));
    }
    // The default mode once more with the engine's tracer off: the
    // difference is what tracing costs, and the counters must not move.
    let mut untraced_rec = Recorder::new(workload);
    let untraced = staged_pass(&mut untraced_rec, built, expected, default, false, tally);
    // What `Carac::run` spends around the fixpoint call (program clone or
    // parse, prepare, plan, wrap, drop): the staged run's wall minus its
    // fixpoint and minus the fingerprinting a facade caller does not do.
    let around_fixpoint_s = untraced.wall_s
        - untraced.fixpoint_s
        - self_seconds_by_name(untraced_rec.spans())
            .get(&("core.result_extract".to_string(), default.name))
            .copied()
            .unwrap_or(0.0);
    let traced = &staged[DEFAULT_MODE];
    let exact = facade_counts(built, default.config).and_then(|facade| {
        if facade != traced.counts || untraced.counts != traced.counts {
            return Err(format!(
                "exact counts moved: facade {facade:?}, staged {:?}, staged untraced {:?}",
                traced.counts, untraced.counts
            ));
        }
        Ok(())
    });
    tally.record(exact);

    out.exact("optimizer.reorders", "count", traced.counts.reorders as f64);
    out.time(
        "optimizer.unopt_gap",
        "ratio",
        median(&unopt_facade) / default_facade_s,
    );

    // exec.context_prepare_s comes from the spans below; the rest from the
    // staged totals.
    for (mode, totals) in modes.iter().zip(&staged) {
        out.time(
            format!("exec.fixpoint_s.{}", mode.name),
            "s",
            totals.fixpoint_s,
        );
    }
    out.time(
        "exec.fixed_overhead_ms_per_query",
        "ms",
        around_fixpoint_s * 1e3 / cases,
    );
    out.exact("exec.iterations", "count", traced.counts.iterations as f64);
    out.exact("exec.subqueries", "count", traced.counts.subqueries as f64);
    out.exact("exec.tuples_emitted", "count", traced.counts.emitted as f64);
    out.exact(
        "exec.tuples_inserted",
        "count",
        traced.counts.inserted as f64,
    );
    out.exact(
        "exec.emit_useful_ratio",
        "ratio",
        traced.counts.inserted as f64 / traced.counts.emitted.max(1) as f64,
    );
    for (mode, totals) in modes.iter().zip(&staged) {
        out.time(
            format!("exec.ns_per_emitted_tuple.{}", mode.name),
            "ns",
            totals.fixpoint_s * 1e9 / totals.counts.emitted.max(1) as f64,
        );
    }
    for (mode, totals) in modes.iter().zip(&staged) {
        out.time(
            format!("exec.us_per_iteration.{}", mode.name),
            "us",
            totals.fixpoint_s * 1e6 / totals.counts.iterations.max(1) as f64,
        );
    }
    out.time("exec.compile_s", "s", traced.compile_s);
    out.exact(
        "exec.compilations",
        "count",
        traced.counts.compilations as f64,
    );
    out.exact(
        "exec.compiled_share",
        "ratio",
        traced.counts.compiled_executions as f64
            / (traced.counts.compiled_executions + traced.counts.interpreted_fallbacks).max(1)
                as f64,
    );
    // Sessions: staged once, journaled from the first batch so every batch
    // gives an fsync sample; then the interpreted kernel for comparison.
    let mut sessions = StagedSessions::default();
    for (i, (session, expected)) in built.sessions.iter().zip(&expected.sessions).enumerate() {
        let files = SessionFiles::new(out_dir, &format!("staged{i}"));
        tally.record(staged_session(
            &mut rec,
            session,
            expected,
            &files,
            &mut sessions,
        ));
        files.remove();
    }

    // Self times of the spans: the engine's own, then the benchmark's.
    let self_s = self_seconds_by_name(rec.spans());
    let self_of = |name: &str, mode: &str| {
        self_s
            .iter()
            .filter(|((n, m), _)| n == name && *m == mode)
            .map(|(_, s)| s)
            .sum::<f64>()
    };
    out.time(
        "exec.context_prepare_s",
        "s",
        self_of("exec.context_prepare", default.name),
    );
    out.time(
        "exec.span.subquery_self_s",
        "s",
        self_of("exec.subquery", default.name),
    );
    out.time(
        "exec.span.iteration_self_s",
        "s",
        self_of("exec.iteration", default.name),
    );
    out.time(
        "exec.span.compile_self_s",
        "s",
        self_of("exec.compile", default.name),
    );
    out.aside(
        "exec.span.aggregate_self_s",
        "s",
        self_of("exec.aggregate", default.name),
    );
    out.time(
        "exec.trace_overhead_pct",
        "%",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
    );
    out.exact(
        "exec.trace_events_dropped",
        "count",
        staged.iter().map(|s| s.engine_events_dropped).sum::<u64>() as f64,
    );

    let retracts = sessions.retract_ms.len().max(1) as f64;
    out.time(
        "exec.incremental.insert_batch_ms_p50",
        "ms",
        median(&sessions.insert_ms),
    );
    out.time(
        "exec.incremental.retract_batch_ms_p50",
        "ms",
        median(&sessions.retract_ms),
    );
    out.exact(
        "exec.incremental.overdeleted_per_retract",
        "count",
        sessions.overdeleted as f64 / retracts,
    );
    out.exact(
        "exec.incremental.rederive_ratio",
        "ratio",
        sessions.rederived as f64 / sessions.overdeleted.max(1) as f64,
    );
    out.exact(
        "exec.incremental.compactions",
        "count",
        sessions.compactions as f64,
    );
    let (interpreted_ms, facade_checkpoint_s) = match interpreted_sessions(built, out_dir) {
        Ok(times) => times,
        Err(reason) => {
            tally.record(Err(format!("interpreted sessions: {reason}")));
            (f64::NAN, f64::NAN)
        }
    };
    out.time(
        "exec.incremental.interp_update_ms_p50",
        "ms",
        interpreted_ms,
    );

    let largest = expected
        .cases
        .iter()
        .flat_map(|print| print.0.values())
        .map(|relation| relation.rows)
        .max()
        .unwrap_or(0);
    match micro::run(largest as usize, traced.counts.iterations / cases as u64) {
        Ok(metrics) => {
            out.0.extend(metrics);
            tally.record(Ok(()));
        }
        Err(reason) => tally.record(Err(format!("storage microbench: {reason}"))),
    }
    out.time(
        "storage.journal.append_fsync_us_p50",
        "us",
        percentile(&sessions.append_us, 0.5),
    );
    out.exact(
        "storage.journal.bytes_per_op",
        "bytes",
        sessions.journal_bytes as f64 / sessions.journal_ops.max(1) as f64,
    );
    out.time("storage.snapshot.write_s", "s", sessions.checkpoint_s);
    out.time("storage.snapshot.read_s", "s", sessions.snapshot_read_s);
    out.exact(
        "storage.snapshot.bytes_per_fact",
        "bytes",
        sessions.snapshot_bytes as f64 / sessions.snapshot_facts.max(1) as f64,
    );

    out.time("core.run_overhead_s", "s", around_fixpoint_s);
    out.time(
        "core.result_extract_s",
        "s",
        self_of("core.result_extract", default.name),
    );
    out.time("core.checkpoint_s", "s", facade_checkpoint_s);
    out.time("core.recover_restore_s", "s", sessions.restore_s);
    out.time("core.recover_replay_s", "s", sessions.replay_s);

    // How the staged path compares with the facade, and how much of the
    // staged default run no span accounts for.
    out.aside(
        "staged_over_facade.jit_lambda",
        "ratio",
        untraced.wall_s / default_facade_s,
    );
    out.aside(
        "unaccounted_share.jit_lambda",
        "ratio",
        self_of("core.run", default.name) / traced.wall_s,
    );

    // Last, with the other vCPU left to halt when idle, as a caller in this
    // VM gets it: the default mode again, to show what keeping it awake
    // takes out of the end-to-end numbers, and the parallel pass, which
    // needs both vCPUs for its two workers.
    drop(awake);
    let idle: Vec<f64> = (0..3)
        .map(|_| {
            facade_wall(
                built,
                &expected.cases,
                "jit_lambda, other vCPU idle",
                false,
                default.config,
                tally,
            )
        })
        .collect();
    out.time(
        "exec.idle_vcpu_slowdown",
        "ratio",
        median(&idle) / default_facade_s,
    );
    let [serial, parallel] = [1, 2].map(|workers| {
        facade_wall(
            built,
            &expected.cases,
            "interp, parallelism 1 and 2",
            false,
            modes[0].config.with_parallelism(workers),
            tally,
        )
    });
    out.time("exec.par2_speedup", "ratio", serial / parallel);
    (out, rec)
}
