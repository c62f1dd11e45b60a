//! Runtime counters collected during a query run.
//!
//! These counters back the evaluation: speedups are computed from
//! `total_time`, the compilation-cost figures (paper Fig. 5) from the
//! per-event [`CompileEvent`] log, and the benchmark harness asserts result
//! sizes through `tuples_inserted`.  Since the observability layer landed,
//! `RunStats` also carries the per-rule profile table
//! ([`ProfileTable`]) and the span [`Tracer`] — both ride along here
//! because every execution site already threads a `&mut RunStats`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

use carac_ir::{NodeId, OpKind};

use crate::telemetry::profile::ProfileTable;
use crate::telemetry::trace::{Tracer, DEFAULT_COMPILE_EVENT_CAPACITY};

/// Which backend produced an artifact (mirrors `BackendKind`, duplicated
/// here to keep `stats` dependency-free of the backend module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendTag {
    /// Staged ("quotes & splices") backend.
    Quotes,
    /// Relational bytecode VM backend.
    Bytecode,
    /// Precompiled higher-order function backend.
    Lambda,
    /// IR regeneration backend.
    IrGen,
}

/// One compilation performed by the JIT (or ahead of time).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileEvent {
    /// Node that was compiled.
    pub node: NodeId,
    /// Kind of the node (the granularity it was compiled at).
    pub kind: OpKind,
    /// Backend used.
    pub backend: BackendTag,
    /// Whether the compiler was warm (had compiled at least once before).
    pub warm: bool,
    /// Wall-clock time spent generating the artifact (including any modeled
    /// staging cost).
    pub duration: Duration,
}

/// Counters for the incremental-maintenance subsystem, accumulated across
/// every [`apply_update`](../incremental/fn.apply_update.html) batch applied
/// to a live session.  Backs the `fig11_incremental` bench report and the
/// differential update tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Update batches applied.
    pub batches: u64,
    /// EDB facts inserted by batches (net of cancellations and no-ops).
    pub edb_inserted: u64,
    /// EDB facts retracted by batches (net).
    pub edb_retracted: u64,
    /// Derived facts added to the fixpoint by insert propagation.
    pub derived_inserted: u64,
    /// Derived facts removed from the fixpoint by deletion propagation.
    pub derived_retracted: u64,
    /// Facts *condemned* by the witness check of a deletion phase: each is
    /// physically retracted and must be re-derived to come back.
    pub overdeleted: u64,
    /// Condemned facts that the rescue step and its propagation re-derived
    /// (always 0 in a non-recursive stratum, where the check is exact).
    pub rederived: u64,
    /// Heads that lost a derivation and were kept in place without any
    /// retraction: witness checks passed (a head flagged in several
    /// frontier rounds counts once per round it stood).
    pub support_survivors: u64,
    /// Heads put through the witness check, once per frontier round that
    /// flagged them.  Every check either passes (`support_survivors`) or
    /// condemns (`overdeleted`), so
    /// `candidates_checked == support_survivors + overdeleted`.
    pub candidates_checked: u64,
    /// Rows the witness-check and rescue drivers loaded, summed over every
    /// join level: the rows that passed a level's filters and were put to
    /// its test (the flagged heads at level 0 included).  Each head's
    /// search stops at its first witness, so this is the work of the
    /// deletion phase's checks; deterministic like the decisions above.
    pub witness_rows: u64,
    /// Strata recomputed wholesale (aggregate strata, and strata with
    /// negation over changed relations).
    pub strata_recomputed: u64,
    /// Delta-variant subqueries executed across all update phases.
    pub delta_subqueries: u64,
    /// Derived relations compacted between batches (tombstones folded
    /// away, row ids renumbered).  Every compaction bumps the relation's
    /// generation counter, so holders of old `RowId`s can detect — and the
    /// storage layer rejects — stale access.
    pub compactions: u64,
}

impl UpdateStats {
    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &UpdateStats) {
        self.batches += other.batches;
        self.edb_inserted += other.edb_inserted;
        self.edb_retracted += other.edb_retracted;
        self.derived_inserted += other.derived_inserted;
        self.derived_retracted += other.derived_retracted;
        self.overdeleted += other.overdeleted;
        self.rederived += other.rederived;
        self.support_survivors += other.support_survivors;
        self.candidates_checked += other.candidates_checked;
        self.witness_rows += other.witness_rows;
        self.strata_recomputed += other.strata_recomputed;
        self.delta_subqueries += other.delta_subqueries;
        self.compactions += other.compactions;
    }
}

/// Counters for one run of a program.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Semi-naive iterations executed (across all strata).
    pub iterations: u64,
    /// SPJ subqueries executed (interpreted or compiled).
    pub subqueries: u64,
    /// Tuples produced by subqueries before deduplication, after the
    /// projection skips (`projection_skips`); depends on the join orders.
    pub tuples_emitted: u64,
    /// Tuples that were genuinely new.
    pub tuples_inserted: u64,
    /// Join-order re-optimizations applied.
    pub reorders: u64,
    /// Compiled artifacts that were invalidated (deoptimization).
    pub deopts: u64,
    /// Times a ready compiled artifact was used instead of interpreting.
    pub compiled_executions: u64,
    /// Cold visits: times the JIT walked a node at its compilation
    /// granularity instead of running an artifact — the node had not yet
    /// done enough work to tier up, or its asynchronous compilation was not
    /// ready yet.
    pub interpreted_fallbacks: u64,
    /// `σπ⋈` descriptors ([`SpecializedQuery`](crate::SpecializedQuery))
    /// the plan walker built: one per plan node at its first walked visit
    /// (interpretation, the JIT's cold tier and the nodes below its
    /// granularity) plus one per `σπ⋈` node of each descriptor artifact
    /// (`Lambda`, `Quotes`, `IrGen`), counted when the artifact is
    /// installed.  Bytecode artifacts build none.
    /// Deterministic: it depends on the plan and the tiering decisions
    /// only, never on the number of iterations.
    pub descriptor_builds: u64,
    /// Subqueries whose driving rows were evaluated by the parallel
    /// fork-join kernels (subqueries below the row threshold stay serial and
    /// are not counted).
    pub parallel_subqueries: u64,
    /// Partitions dispatched to worker threads across all parallel
    /// subqueries (shards or contiguous chunks).
    pub parallel_tasks: u64,
    /// Rows visited by join probes that no index answered — filtered scans
    /// of a relation (or of a delta) on a bound column without an index,
    /// summed over the specialized kernel and the bytecode VM.
    /// Deterministic: it depends on the data and the join orders only.
    pub probe_scan_rows: u64,
    /// Candidate rows a join level skipped because its projection key —
    /// the bound variables still live below it
    /// (`ConjunctiveQuery::projection_plan`) — had already been expanded
    /// in the same execution, summed over the specialized kernel and the
    /// bytecode VM.  Deterministic like
    /// `probe_scan_rows`.
    pub projection_skips: u64,
    /// Compilation log: a bounded ring (oldest events evicted first) so
    /// long-lived live sessions do not grow memory linearly with
    /// compilations.  Push through [`RunStats::push_compile_event`].
    pub compile_events: VecDeque<CompileEvent>,
    /// Capacity of the compile-event ring (settable via
    /// `TraceConfig::compile_event_capacity`; default 4096).
    pub compile_event_capacity: usize,
    /// Compile events evicted from the ring so far.
    pub compile_events_dropped: u64,
    /// Strata entered during this run (also the source of the stratum index
    /// recorded on rule profiles and spans).
    pub strata_entered: u64,
    /// Index of the stratum currently executing — scratch state maintained
    /// by the plan walkers so the kernels (which only see `RunStats`) can
    /// attribute rule executions to a stratum.
    pub current_stratum: u32,
    /// Per-rule and per-aggregate execution profiles (always on; one record
    /// per subquery execution, never per tuple).
    pub rule_profiles: ProfileTable,
    /// The span tracer.  Disabled (records nothing, single-branch cost)
    /// unless the engine was configured `with_tracing`.  Cloning a
    /// `RunStats` shares the tracer's ring.
    pub tracer: Tracer,
    /// Incremental-maintenance counters (zero unless `apply_update` ran).
    pub update: UpdateStats,
    /// Whether a goal-directed query fell back to full evaluation because
    /// the magic-set rewrite could not soundly restrict the goal (negated
    /// or aggregated goal, base facts on the goal, or an all-free pattern).
    /// Always `false` for ordinary `run()` evaluations.
    pub magic_fallback: bool,
    /// Total wall-clock execution time (filled by the engine).
    pub total_time: Duration,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            iterations: 0,
            subqueries: 0,
            tuples_emitted: 0,
            tuples_inserted: 0,
            reorders: 0,
            deopts: 0,
            compiled_executions: 0,
            interpreted_fallbacks: 0,
            descriptor_builds: 0,
            parallel_subqueries: 0,
            parallel_tasks: 0,
            probe_scan_rows: 0,
            projection_skips: 0,
            compile_events: VecDeque::new(),
            compile_event_capacity: DEFAULT_COMPILE_EVENT_CAPACITY,
            compile_events_dropped: 0,
            strata_entered: 0,
            current_stratum: 0,
            rule_profiles: ProfileTable::default(),
            tracer: Tracer::disabled(),
            update: UpdateStats::default(),
            magic_fallback: false,
            total_time: Duration::ZERO,
        }
    }
}

impl RunStats {
    /// Total time spent compiling (sum over retained events).
    pub fn compile_time(&self) -> Duration {
        self.compile_events.iter().map(|e| e.duration).sum()
    }

    /// Number of retained compilation events (see
    /// [`RunStats::compile_events_dropped`] for evictions).
    pub fn compilations(&self) -> usize {
        self.compile_events.len()
    }

    /// Appends a compile event, evicting the oldest once the ring is full.
    pub fn push_compile_event(&mut self, event: CompileEvent) {
        while self.compile_events.len() >= self.compile_event_capacity.max(1) {
            self.compile_events.pop_front();
            self.compile_events_dropped += 1;
        }
        self.compile_events.push_back(event);
    }

    /// Merges another stats block into this one (used when a run is split
    /// across strata or across engine components).  The tracer handle of
    /// `self` is kept — a run has one event stream.
    pub fn merge(&mut self, other: &RunStats) {
        self.iterations += other.iterations;
        self.subqueries += other.subqueries;
        self.tuples_emitted += other.tuples_emitted;
        self.tuples_inserted += other.tuples_inserted;
        self.reorders += other.reorders;
        self.deopts += other.deopts;
        self.compiled_executions += other.compiled_executions;
        self.interpreted_fallbacks += other.interpreted_fallbacks;
        self.descriptor_builds += other.descriptor_builds;
        self.parallel_subqueries += other.parallel_subqueries;
        self.parallel_tasks += other.parallel_tasks;
        self.probe_scan_rows += other.probe_scan_rows;
        self.projection_skips += other.projection_skips;
        for event in &other.compile_events {
            self.push_compile_event(event.clone());
        }
        self.compile_events_dropped += other.compile_events_dropped;
        self.strata_entered += other.strata_entered;
        self.rule_profiles.merge(&other.rule_profiles);
        self.update.merge(&other.update);
        self.magic_fallback |= other.magic_fallback;
        self.total_time += other.total_time;
    }

    /// A human-readable run summary: the aggregate counters followed by the
    /// per-rule profile table (and the aggregate profiles, when any).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run: {} iterations, {} subqueries, {} emitted, {} inserted, {:.4}s total",
            self.iterations,
            self.subqueries,
            self.tuples_emitted,
            self.tuples_inserted,
            self.total_time.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "jit: {} compilations ({} dropped), {} compiled execs, {} fallbacks, {} reorders, {} deopts",
            self.compilations(),
            self.compile_events_dropped,
            self.compiled_executions,
            self.interpreted_fallbacks,
            self.reorders,
            self.deopts
        );
        if self.rule_profiles.is_empty() {
            let _ = writeln!(out, "rule profiles: (none recorded)");
            return out;
        }
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>6} {:>10} {:>10} {:>10} {:>9} {:>10}",
            "rule", "stratum", "execs", "delta-in", "emitted", "inserted", "est-in", "time"
        );
        for p in self.rule_profiles.rules() {
            let _ = writeln!(
                out,
                "{:>6} {:>7} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9.4}s",
                p.rule.0,
                p.stratum,
                p.executions,
                p.delta_rows_in,
                p.tuples_emitted,
                p.tuples_inserted,
                p.estimated_delta_rows,
                p.cumulative_time.as_secs_f64()
            );
        }
        for a in self.rule_profiles.aggregates() {
            let _ = writeln!(
                out,
                "agg@{:<3} {:>6} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9.4}s",
                a.output.0,
                "-",
                a.executions,
                "-",
                a.tuples_emitted,
                a.tuples_inserted,
                "-",
                a.cumulative_time.as_secs_f64()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ms: u64) -> CompileEvent {
        CompileEvent {
            node: NodeId(0),
            kind: OpKind::Spj,
            backend: BackendTag::Lambda,
            warm: false,
            duration: Duration::from_millis(ms),
        }
    }

    #[test]
    fn compile_time_sums_events() {
        let mut stats = RunStats::default();
        stats.push_compile_event(event(5));
        stats.push_compile_event(event(7));
        assert_eq!(stats.compile_time(), Duration::from_millis(12));
        assert_eq!(stats.compilations(), 2);
        assert_eq!(stats.compile_events_dropped, 0);
    }

    #[test]
    fn compile_event_ring_is_bounded() {
        let mut stats = RunStats {
            compile_event_capacity: 3,
            ..RunStats::default()
        };
        for ms in 1..=5 {
            stats.push_compile_event(event(ms));
        }
        assert_eq!(stats.compilations(), 3);
        assert_eq!(stats.compile_events_dropped, 2);
        // Oldest dropped: the survivors are 3, 4, 5 ms.
        assert_eq!(stats.compile_time(), Duration::from_millis(12));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunStats {
            iterations: 2,
            subqueries: 10,
            ..RunStats::default()
        };
        let mut b = RunStats {
            iterations: 3,
            subqueries: 5,
            ..RunStats::default()
        };
        b.push_compile_event(event(1));
        a.merge(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.subqueries, 15);
        assert_eq!(a.compilations(), 1);
    }

    #[test]
    fn merge_respects_ring_capacity() {
        let mut a = RunStats {
            compile_event_capacity: 2,
            ..RunStats::default()
        };
        let mut b = RunStats::default();
        for ms in 1..=4 {
            b.push_compile_event(event(ms));
        }
        a.merge(&b);
        assert_eq!(a.compilations(), 2);
        assert_eq!(a.compile_events_dropped, 2);
    }

    #[test]
    fn summary_renders_rule_table() {
        let mut stats = RunStats::default();
        stats.rule_profiles.record_execution(
            carac_datalog::RuleId(2),
            1,
            7,
            4,
            Duration::from_millis(1),
        );
        stats.subqueries = 1;
        let text = stats.summary();
        assert!(text.contains("rule"));
        assert!(text.contains("stratum"));
        assert!(text.lines().any(|l| l.trim_start().starts_with('2')));
    }
}
