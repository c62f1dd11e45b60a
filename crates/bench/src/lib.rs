//! Shared benchmark-harness utilities.
//!
//! Every table and figure of the paper's evaluation (§VI) has a dedicated
//! binary in `src/bin/` that regenerates it; this library holds the pieces
//! they share: the engine-configuration sets matching the paper's legends,
//! the workload suites at "harness scale", speedup arithmetic and plain-text
//! table rendering.
//!
//! Scales are deliberately smaller than the paper's (our inputs are
//! synthetic and the harness must run on a laptop in minutes); the shapes —
//! who wins, by roughly what factor, where the crossovers are — are what the
//! harness reproduces.  Set `CARAC_BENCH_SCALE` to scale the macro workloads
//! up or down.

#![forbid(unsafe_code)]

pub mod report;

use std::time::Duration;

use carac::knobs::BackendKind;
use carac::EngineConfig;
use carac_analysis::{Formulation, Workload};

pub use report::{
    apply_trace_env, export_env_trace, trace_env_path, write_json_array, write_json_sections,
    FigureReport, Json, JsonRow,
};

/// Default scale for the macrobenchmarks (roughly the number of program
/// variables in the synthetic fact generators).
pub const DEFAULT_MACRO_SCALE: u32 = 96;
/// Scale used for the CSPA_20k-style sample.
pub const DEFAULT_CSPA_SCALE: u32 = 72;
/// Domain bound for the microbenchmarks.
pub const DEFAULT_MICRO_BOUND: u32 = 24;
/// Seed used by every harness binary (determinism across runs).
pub const HARNESS_SEED: u64 = 0xCA2AC;

/// Reads the macro scale from `CARAC_BENCH_SCALE`, falling back to a small
/// smoke scale under `CARAC_BENCH_SMOKE=1` and to the default otherwise, so
/// CI can run the figure binaries end-to-end in seconds.
pub fn macro_scale() -> u32 {
    std::env::var("CARAC_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke_mode() {
            16
        } else {
            DEFAULT_MACRO_SCALE
        })
}

/// Whether the harness runs in smoke mode (`CARAC_BENCH_SMOKE=1`): tiny
/// scales and minimal sampling, so CI can assert that the benches still
/// build, run and uphold their invariants (identical fact counts, flat pool
/// smaller than the legacy double-store) in seconds rather than minutes.
pub fn smoke_mode() -> bool {
    std::env::var("CARAC_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Renders the row-pool statistics table printed by the fig6–fig9 binaries
/// alongside their speedup figures: per workload, the derived-fact count
/// and the aggregate pool stats (rows across all three evaluation
/// databases, resident bytes, dedup-table rehashes).  These are the
/// memory-layout numbers that make the flat-pool storage behavior
/// measurable rather than asserted.  The rows come from runs the caller
/// already performed ([`parallel_scaling_table`] captures them from its
/// serial baseline), so no extra workload execution happens here.
fn render_pool_stats_table(title: &str, rows: &[Vec<String>]) -> String {
    let headers = vec![
        "Workload".to_string(),
        "derived facts".to_string(),
        "pool rows".to_string(),
        "resident KiB".to_string(),
        "rehashes".to_string(),
    ];
    render_table(title, &headers, rows)
}

/// The worker-thread axis for the parallel-scaling tables: `--threads 1,4,8`
/// on the command line, else the `CARAC_BENCH_THREADS` environment variable,
/// else `1,4`.  Values are deduplicated, kept in the order given, and `0`
/// entries are dropped.
pub fn thread_axis() -> Vec<usize> {
    let from_args = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--threads")
            .and_then(|i| args.get(i + 1).cloned())
            .or_else(|| {
                args.iter()
                    .find(|a| a.starts_with("--threads="))
                    .map(|a| a["--threads=".len()..].to_string())
            })
    };
    let spec = from_args
        .or_else(|| std::env::var("CARAC_BENCH_THREADS").ok())
        .unwrap_or_else(|| "1,4".to_string());
    let mut axis: Vec<usize> = Vec::new();
    for part in spec.split(',') {
        if let Ok(n) = part.trim().parse::<usize>() {
            if n > 0 && !axis.contains(&n) {
                axis.push(n);
            }
        }
    }
    if axis.is_empty() {
        axis.push(1);
    }
    axis
}

/// The parallel-scaling table shared by the figure binaries' `--threads`
/// axis: for every workload, the serial interpreted wall-clock next to each
/// parallel worker count, with the speedup over serial.  Panics if any
/// parallel run diverges from the serial fact count — the determinism
/// contract is part of what the table certifies.
///
/// The serial baseline run doubles as the capture point for the row-pool
/// statistics, so the returned string carries *two* tables: the scaling
/// table and the flat row-pool statistics of one serial run per workload
/// (no extra workload execution for the storage numbers).
pub fn parallel_scaling_table(
    title: &str,
    workloads: &[Workload],
    formulation: Formulation,
    repeats: usize,
) -> String {
    let threads = thread_axis();
    let mut headers = vec!["Workload".to_string(), "serial".to_string()];
    for &t in &threads {
        if t > 1 {
            headers.push(format!("{t} threads"));
            headers.push(format!("x{t} speedup"));
        }
    }
    let mut rows = Vec::new();
    let mut pool_rows = Vec::new();
    for workload in workloads {
        // The first serial run is kept whole (fact count, wall time *and*
        // pool stats); the remaining repeats only refine the best-of-N time.
        // It is also the run the `CARAC_TRACE` override traces and exports.
        let first = workload
            .run(formulation, apply_trace_env(EngineConfig::interpreted()))
            .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name));
        export_env_trace(title, &first);
        let serial_count = first
            .count(workload.output_relation)
            .expect("workload output relation exists");
        let mut serial_time = first.stats().total_time;
        if repeats > 1 {
            let (count, best) = measure(
                workload,
                formulation,
                EngineConfig::interpreted(),
                repeats - 1,
            );
            assert_eq!(
                count, serial_count,
                "{} serial repeat diverged",
                workload.name
            );
            serial_time = serial_time.min(best);
        }
        let pool = first.pool_stats();
        pool_rows.push(vec![
            workload.name.to_string(),
            first.total_tuples().to_string(),
            pool.rows.to_string(),
            format!("{:.1}", pool.bytes as f64 / 1024.0),
            pool.rehashes.to_string(),
        ]);
        drop(first);
        let mut row = vec![workload.name.to_string(), fmt_secs(serial_time)];
        for &t in &threads {
            if t <= 1 {
                continue;
            }
            let (count, time) = measure(
                workload,
                formulation,
                EngineConfig::interpreted().with_parallelism(t),
                repeats,
            );
            assert_eq!(
                count, serial_count,
                "{} with {t} threads diverged from the serial fact count",
                workload.name
            );
            row.push(fmt_secs(time));
            row.push(fmt_speedup(speedup(serial_time, time)));
        }
        eprintln!("[{title}] parallel scaling for {} done", workload.name);
        rows.push(row);
    }
    let scaling = render_table(title, &headers, &rows);
    let storage = render_pool_stats_table(
        &format!("{title} — storage: flat row-pool statistics (serial run)"),
        &pool_rows,
    );
    format!("{scaling}{storage}")
}

/// The six JIT configurations of Figures 6–9, in the paper's legend order,
/// plus their labels — under the paper's compile-at-first-visit policy
/// (`EngineConfig::eager_jit`), not the engine's default tiering.
pub fn jit_configs() -> Vec<(String, EngineConfig)> {
    let mut configs = vec![(
        "JIT IRGenerator".to_string(),
        EngineConfig::eager_jit(BackendKind::IrGen, false),
    )];
    configs.push((
        "JIT Lambda Blocking".to_string(),
        EngineConfig::eager_jit(BackendKind::Lambda, false),
    ));
    configs.push((
        "JIT Bytecode Async".to_string(),
        EngineConfig::eager_jit(BackendKind::Bytecode, true),
    ));
    configs.push((
        "JIT Bytecode Blocking".to_string(),
        EngineConfig::eager_jit(BackendKind::Bytecode, false),
    ));
    configs.push((
        "JIT Quotes Async".to_string(),
        EngineConfig::eager_jit(BackendKind::Quotes, true),
    ));
    configs.push((
        "JIT Quotes Blocking".to_string(),
        EngineConfig::eager_jit(BackendKind::Quotes, false),
    ));
    configs
}

/// The macrobenchmarks of Figures 6 and 8 at harness scale, plus the
/// degree-distribution workload exercising `count` aggregates and
/// comparison constraints at the same scale.
pub fn figure_macro_workloads() -> Vec<Workload> {
    let scale = macro_scale();
    vec![
        carac_analysis::andersen(scale, HARNESS_SEED),
        carac_analysis::inverse_functions(scale, HARNESS_SEED),
        carac_analysis::cspa(DEFAULT_CSPA_SCALE.min(scale), HARNESS_SEED),
        carac_analysis::degree_distribution(scale * 8, HARNESS_SEED),
    ]
}

/// The shortest-path workload (min aggregation + `<` constraint) at harness
/// scale — the aggregate counterpart of the macro suite, also printed with
/// its own parallel-scaling table by the fig6 binary.
pub fn figure_shortest_path() -> Workload {
    let scale = macro_scale();
    carac_analysis::shortest_path(scale * 4, 24, HARNESS_SEED)
}

/// CSDA at harness scale (used by Figure 8 and Table II).
pub fn figure_csda() -> Workload {
    carac_analysis::csda(macro_scale() * 6, HARNESS_SEED)
}

/// The microbenchmarks of Figures 7, 9 and 10 at harness scale.
pub fn figure_micro_workloads() -> Vec<Workload> {
    vec![
        carac_analysis::ackermann(DEFAULT_MICRO_BOUND),
        carac_analysis::fibonacci(30),
        carac_analysis::primes(300),
    ]
}

/// Runs a `(workload, formulation, config)` combination several times and
/// returns the best-of-N wall time plus the output cardinality (best-of-N
/// smooths out allocator noise without a full statistics framework; the
/// Criterion benches provide the rigorous version).
pub fn measure(
    workload: &Workload,
    formulation: Formulation,
    config: EngineConfig,
    repeats: usize,
) -> (usize, Duration) {
    let mut best = Duration::MAX;
    let mut count = 0;
    for _ in 0..repeats.max(1) {
        let (c, t) = workload
            .measure(formulation, config)
            .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name));
        count = c;
        if t < best {
            best = t;
        }
    }
    (count, best)
}

/// Speedup of `measured` relative to `baseline` (how many times faster the
/// measured configuration is).
pub fn speedup(baseline: Duration, measured: Duration) -> f64 {
    let baseline = baseline.as_secs_f64();
    let measured = measured.as_secs_f64().max(1e-9);
    baseline / measured
}

/// Renders a plain-text table.
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(std::string::String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Formats a duration in seconds with millisecond precision.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a speedup factor.
pub fn fmt_speedup(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}x")
    } else {
        format!("{s:.2}x")
    }
}

/// Produces one of the speedup figures (Figs. 6–9): for every workload,
/// measure the baseline (interpreted, in `baseline_formulation`) and every
/// listed configuration (run on the `measured_formulation`), for both the
/// indexed and unindexed engines, and report speedups over the baseline.
///
/// Returns the rendered table; also used by the Criterion benches' smoke
/// tests and by EXPERIMENTS.md generation.
pub fn speedup_figure(
    title: &str,
    workloads: &[Workload],
    baseline_formulation: Formulation,
    measured_formulation: Formulation,
    repeats: usize,
) -> String {
    let mut configs: Vec<(String, EngineConfig)> = vec![(
        "Hand-Optimized (interp)".to_string(),
        EngineConfig::interpreted(),
    )];
    configs.extend(jit_configs());

    let mut headers = vec!["Configuration".to_string()];
    for workload in workloads {
        headers.push(format!("{} idx", workload.name));
        headers.push(format!("{} noidx", workload.name));
    }

    // Baselines per workload and index setting.
    let mut baselines = Vec::new();
    for workload in workloads {
        let (_, indexed) = measure(
            workload,
            baseline_formulation,
            EngineConfig::interpreted(),
            repeats,
        );
        let (_, unindexed) = measure(
            workload,
            baseline_formulation,
            EngineConfig::interpreted_unindexed(),
            repeats,
        );
        baselines.push((indexed, unindexed));
        eprintln!("[{title}] baseline for {} done", workload.name);
    }

    let mut rows = Vec::new();
    for (label, config) in &configs {
        let mut row = vec![label.clone()];
        for (workload, (base_idx, base_noidx)) in workloads.iter().zip(&baselines) {
            // The hand-optimized row always runs the hand-optimized program;
            // every JIT row runs the `measured_formulation`.
            let formulation = if label.starts_with("Hand-Optimized") {
                Formulation::HandOptimized
            } else {
                measured_formulation
            };
            let (_, t_idx) = measure(workload, formulation, *config, repeats);
            let (_, t_noidx) = measure(workload, formulation, config.without_indexes(), repeats);
            row.push(fmt_speedup(speedup(*base_idx, t_idx)));
            row.push(fmt_speedup(speedup(*base_noidx, t_noidx)));
        }
        eprintln!("[{title}] configuration `{label}` done");
        rows.push(row);
    }
    render_table(title, &headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_arithmetic() {
        assert!((speedup(Duration::from_secs(10), Duration::from_secs(2)) - 5.0).abs() < 1e-9);
        assert!(speedup(Duration::from_secs(1), Duration::ZERO) > 1e6);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            "Demo",
            &["name".to_string(), "value".to_string()],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "2.5x".to_string()],
            ],
        );
        assert!(table.contains("Demo"));
        assert!(table.contains("longer"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn config_sets_have_the_papers_labels() {
        let configs = jit_configs();
        assert_eq!(configs.len(), 6);
        assert!(configs.iter().any(|(l, _)| l == "JIT Quotes Async"));
        for (label, config) in configs {
            assert_eq!(label, config.label());
        }
    }

    #[test]
    fn harness_workload_suites_are_nonempty() {
        assert_eq!(figure_macro_workloads().len(), 4);
        assert!(figure_macro_workloads().iter().any(|w| w.name == "DegDist"));
        assert_eq!(figure_micro_workloads().len(), 3);
        assert_eq!(figure_csda().name, "CSDA");
        assert_eq!(figure_shortest_path().name, "ShortestPath");
    }

    #[test]
    fn measure_runs_and_reports() {
        let w = carac_analysis::fibonacci(12);
        let (count, time) = measure(
            &w,
            Formulation::HandOptimized,
            EngineConfig::interpreted(),
            2,
        );
        assert_eq!(count, 13);
        assert!(time > Duration::ZERO);
    }
}
