//! Query results.

use std::sync::Arc;

use carac_datalog::Program;
use carac_exec::{ExecContext, RunStats};
use carac_storage::{PoolStats, RelId, Tuple};

use crate::error::CaracError;

/// The outcome of running a program: access to every derived relation plus
/// the run statistics.
#[derive(Debug)]
pub struct QueryResult {
    program: Arc<Program>,
    context: ExecContext,
}

impl QueryResult {
    pub(crate) fn new(program: Arc<Program>, context: ExecContext) -> Self {
        QueryResult { program, context }
    }

    /// Run statistics (iterations, subqueries, compilations, timings).
    pub fn stats(&self) -> &RunStats {
        &self.context.stats
    }

    /// Number of derived tuples in `relation`.
    pub fn count(&self, relation: &str) -> Result<usize, CaracError> {
        let rel = self.rel(relation)?;
        Ok(self.context.derived_count(rel))
    }

    /// Raw derived tuples of `relation`.
    pub fn tuples(&self, relation: &str) -> Result<Vec<Tuple>, CaracError> {
        let rel = self.rel(relation)?;
        Ok(self.context.derived_tuples(rel))
    }

    /// Derived tuples of `relation` with every value rendered through the
    /// symbol table (strings resolve to their text, integers print as
    /// numbers).
    pub fn rows(&self, relation: &str) -> Result<Vec<Vec<String>>, CaracError> {
        let tuples = self.tuples(relation)?;
        Ok(tuples
            .iter()
            .map(|t| {
                t.values()
                    .iter()
                    .map(|&v| self.program.symbols().display(v))
                    .collect()
            })
            .collect())
    }

    /// Whether `relation` derived at least one tuple containing exactly the
    /// given rendered values (convenience for tests and examples).
    pub fn contains(&self, relation: &str, values: &[&str]) -> Result<bool, CaracError> {
        Ok(self
            .rows(relation)?
            .iter()
            .any(|row| row.len() == values.len() && row.iter().zip(values).all(|(a, b)| a == b)))
    }

    /// Total number of derived tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.context.storage.total_derived()
    }

    /// Aggregate row-pool statistics (rows, resident bytes, dedup-table
    /// rehashes) across the three evaluation databases — the memory-layout
    /// numbers the benchmark harness reports alongside wall times.
    pub fn pool_stats(&self) -> PoolStats {
        self.context.storage.pool_stats()
    }

    /// Per-rule execution profiles collected during the run (see
    /// [`carac_exec::ProfileTable`]); always populated, tracing on or off.
    pub fn rule_profiles(&self) -> &carac_exec::ProfileTable {
        &self.context.stats.rule_profiles
    }

    /// Human-readable run summary: aggregate counters plus the per-rule
    /// profile table.
    pub fn summary(&self) -> String {
        self.context.stats.summary()
    }

    /// Writes the run's span trace as a chrome://tracing / Perfetto JSON
    /// file (atomic temp-file + rename).  Empty trace when tracing was off.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        carac_exec::write_chrome_trace(path.as_ref(), &self.context.stats)
    }

    /// Writes the flat JSON metrics snapshot (atomic temp-file + rename).
    pub fn write_metrics_snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        carac_exec::write_metrics_snapshot(path.as_ref(), &self.context.stats)
    }

    /// The program this result was computed for.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn rel(&self, name: &str) -> Result<RelId, CaracError> {
        self.program
            .relation_by_name(name)
            .map_err(CaracError::from)
    }
}

/// The outcome of a goal-directed query ([`Carac::query`]): the matching
/// tuples of the goal relation plus the run statistics of the (magic-set
/// rewritten, or on fallback full) evaluation that produced them.
///
/// [`Carac::query`]: crate::engine::Carac::query
#[derive(Debug)]
pub struct QueryAnswer {
    tuples: Vec<Tuple>,
    stats: RunStats,
    fallback: bool,
    derived_facts: usize,
    answer_relation: String,
}

impl QueryAnswer {
    pub(crate) fn new(
        tuples: Vec<Tuple>,
        stats: RunStats,
        fallback: bool,
        derived_facts: usize,
        answer_relation: String,
    ) -> Self {
        QueryAnswer {
            tuples,
            stats,
            fallback,
            derived_facts,
            answer_relation,
        }
    }

    /// The answer tuples: every tuple of the goal relation matching the
    /// query pattern, full arity (bound positions carry the query
    /// constants).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the answer, returning the tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Number of answer tuples.
    pub fn count(&self) -> usize {
        self.tuples.len()
    }

    /// Run statistics of the query evaluation (including the
    /// `magic_fallback` flag).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whether the engine fell back to full evaluation because the goal
    /// could not soundly be demand-restricted.
    pub fn fallback(&self) -> bool {
        self.fallback
    }

    /// Total facts derived while answering (across every relation of the
    /// evaluated program) — the quantity goal-directed evaluation shrinks
    /// relative to a full fixpoint, reported by the `fig_query` bench.
    pub fn derived_facts(&self) -> usize {
        self.derived_facts
    }

    /// Name of the relation the answers were read from: the goal's adorned
    /// relation (`Path__bf`), or the original relation on fallback.
    pub fn answer_relation(&self) -> &str {
        &self.answer_relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Carac;
    use crate::EngineConfig;
    use carac_datalog::parser::parse;

    fn result() -> QueryResult {
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Named(\"start\", x) :- Edge(x, y).\n\
             Edge(1, 2). Edge(2, 3).",
        )
        .unwrap();
        Carac::new(program)
            .with_config(EngineConfig::interpreted())
            .run()
            .unwrap()
    }

    #[test]
    fn counts_and_tuples() {
        let r = result();
        assert_eq!(r.count("Path").unwrap(), 3);
        assert_eq!(r.tuples("Path").unwrap().len(), 3);
        assert!(r.count("Missing").is_err());
        assert!(r.total_tuples() >= 5);
    }

    #[test]
    fn rows_resolve_symbols() {
        let r = result();
        let rows = r.rows("Named").unwrap();
        assert!(rows.iter().any(|row| row[0] == "start"));
        assert!(r.contains("Named", &["start", "1"]).unwrap());
        assert!(!r.contains("Named", &["start", "99"]).unwrap());
    }

    #[test]
    fn stats_are_populated() {
        let r = result();
        assert!(r.stats().subqueries > 0);
        assert!(r.stats().tuples_inserted >= 3);
    }
}
