//! The mutable execution context shared by the interpreter, the compiled
//! artifacts and the JIT controller.

use carac_datalog::Program;
use carac_optimizer::OptimizeContext;
use carac_storage::hasher::{FxHashMap, FxHashSet};
use carac_storage::{DbKind, RelId, StatsSnapshot, StorageManager, Tuple};

use crate::error::ExecError;
use crate::stats::RunStats;

/// Everything a running query touches: the storage manager, declarative
/// information about the program (which relations are intensional, which
/// columns are indexed), the current iteration counter and the run
/// statistics.
///
/// All query state lives either here or inside the storage manager — never
/// on the native stack across IR nodes — which is what makes every IR node
/// boundary a safe point for switching between interpretation and compiled
/// code (paper §V-B.3).
#[derive(Debug)]
pub struct ExecContext {
    /// The relational storage.
    pub storage: StorageManager,
    /// Whether each relation is intensional (`is_idb[rel.index()]`).
    pub is_idb: Vec<bool>,
    /// `(relation, column)` pairs carrying an index.
    pub indexed: FxHashSet<(RelId, usize)>,
    /// `(relation, columns)` composite-index requests that were honoured.
    pub composite_indexed: Vec<(RelId, Vec<usize>)>,
    /// Magic (demand-guard) predicates of a goal-directed program — scored
    /// as high-selectivity by the adaptive optimizer so reordering keeps
    /// the guards early.  Empty for ordinary programs.
    pub magic_rels: FxHashSet<RelId>,
    /// Iteration counter across the whole run (used for staleness
    /// bookkeeping and reporting).
    pub iteration: u64,
    /// Worker threads available to the join kernels (1 = serial).
    pub parallelism: usize,
    /// Column-interval facts from static analysis (`(rel, column)` → the
    /// inclusive `(min, max)` raw-value range that can flow into the
    /// column).  Forwarded to the cost model, which refines comparison
    /// selectivity with them.  Empty unless the engine ran the analyzer.
    pub interval_hints: FxHashMap<(RelId, usize), (u32, u32)>,
    /// Declared arity per relation (`arities[rel.index()]`) — the schema
    /// the artifact verifier checks compiled code against.
    pub arities: Vec<usize>,
    /// Whether compiled artifacts are statically verified before first
    /// execution (see `EngineConfig::verify`; defaults to the build's
    /// `debug_assertions` setting).
    pub verify: bool,
    /// Run statistics.
    pub stats: RunStats,
}

impl ExecContext {
    /// Builds a context for `program`: registers every relation, requests
    /// the indexes implied by the rules (when `use_indexes` is set) and
    /// loads the program's static facts.
    pub fn prepare(program: &Program, use_indexes: bool) -> Result<ExecContext, ExecError> {
        let mut storage = StorageManager::new(use_indexes);
        for decl in program.relations() {
            storage.register(&decl.name, decl.arity, decl.is_edb);
        }
        let mut indexed = FxHashSet::default();
        let mut composite_indexed = Vec::new();
        if use_indexes {
            for (rel, col) in carac_datalog::rewrite::index_requests(program) {
                storage.add_index(rel, col)?;
                indexed.insert((rel, col));
            }
            for (rel, cols) in carac_datalog::rewrite::composite_index_requests(program) {
                storage.add_composite_index(rel, &cols)?;
                composite_indexed.push((rel, cols));
            }
        }
        for (rel, tuple) in program.facts() {
            storage.insert_fact_row(*rel, tuple.values())?;
        }
        let is_idb = program.relations().iter().map(|d| !d.is_edb).collect();
        let arities = program.relations().iter().map(|d| d.arity).collect();
        Ok(ExecContext {
            storage,
            is_idb,
            indexed,
            composite_indexed,
            magic_rels: FxHashSet::default(),
            iteration: 0,
            parallelism: 1,
            interval_hints: FxHashMap::default(),
            arities,
            verify: cfg!(debug_assertions),
            stats: RunStats::default(),
        })
    }

    /// Toggles static artifact verification for this run (see
    /// [`ExecContext::verify`]).
    pub fn set_verify(&mut self, verify: bool) {
        self.verify = verify;
    }

    /// Marks the magic (demand-guard) predicates of a goal-directed
    /// program.  Installed by the engine's query path from the rewrite's
    /// own relation list (`MagicProgram::magic_relations`) — never inferred
    /// from names, so a user relation that happens to share the reserved
    /// prefix is not mis-scored on programs that never used the rewrite.
    pub fn set_magic_relations(&mut self, magic_rels: FxHashSet<RelId>) {
        self.magic_rels = magic_rels;
    }

    /// Installs column-interval facts from the static analyzer; the cost
    /// model consulted by every reordering sees them via
    /// [`ExecContext::optimize_context`].
    pub fn set_interval_hints(&mut self, hints: FxHashMap<(RelId, usize), (u32, u32)>) {
        self.interval_hints = hints;
    }

    /// Configures the worker-thread budget for the join kernels and shards
    /// the storage layer to match, so full delta scans partition across
    /// workers without rescanning.  `parallelism <= 1` restores serial
    /// evaluation (and unshards the relations).
    pub fn set_parallelism(&mut self, parallelism: usize) -> Result<(), ExecError> {
        self.parallelism = parallelism.max(1);
        self.storage.set_sharding(self.parallelism)?;
        Ok(())
    }

    /// Inserts an additional EDB fact (facts may keep arriving after the
    /// context was prepared — the "incrementally added at runtime" facts of
    /// §V-A).
    pub fn insert_fact(&mut self, rel: RelId, tuple: Tuple) -> Result<bool, ExecError> {
        Ok(self.storage.insert_fact(rel, tuple)?)
    }

    /// The optimizer's view of everything that stays fixed while the program
    /// runs — which relations are intensional, the indexes built for it, the
    /// worker budget, magic predicates, interval hints — with empty
    /// statistics.  The JIT builds it once per run and attaches a fresh
    /// [`ExecContext::live_stats`] each time a node (re)optimizes.
    pub fn optimize_frame(&self) -> OptimizeContext {
        OptimizeContext::new(
            StatsSnapshot::default(),
            self.is_idb.clone(),
            self.indexed.clone(),
        )
        .with_composites(self.composite_indexed.iter().cloned().collect())
        .with_parallelism(self.parallelism)
        .with_magic(self.magic_rels.clone())
        .with_intervals(self.interval_hints.clone())
    }

    /// The live cardinalities of every database, stamped with the current
    /// iteration.
    pub fn live_stats(&self) -> StatsSnapshot {
        let mut snapshot = self.storage.stats();
        snapshot.iteration = self.iteration;
        snapshot
    }

    /// Builds the optimizer's view of the current state:
    /// [`ExecContext::optimize_frame`] plus [`ExecContext::live_stats`].
    pub fn optimize_context(&self) -> OptimizeContext {
        let mut oc = self.optimize_frame();
        oc.stats = self.live_stats();
        oc
    }

    /// Number of tuples currently derived for `rel`.
    pub fn derived_count(&self, rel: RelId) -> usize {
        self.storage.cardinality(DbKind::Derived, rel)
    }

    /// All derived tuples of `rel`, cloned (for result inspection by callers
    /// and tests; hot paths use the storage manager directly).
    pub fn derived_tuples(&self, rel: RelId) -> Vec<Tuple> {
        self.storage
            .derived(rel)
            .map(carac_storage::Relation::to_tuples)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;

    #[test]
    fn prepare_registers_relations_and_facts() {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3).",
        )
        .unwrap();
        let ctx = ExecContext::prepare(&p, true).unwrap();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(edge), 2);
        assert_eq!(ctx.derived_count(path), 0);
        assert!(ctx.is_idb[path.index()]);
        assert!(!ctx.is_idb[edge.index()]);
        // Join columns got indexes.
        assert!(!ctx.indexed.is_empty());
    }

    #[test]
    fn unindexed_context_requests_no_indexes() {
        let p = parse("Path(x, y) :- Edge(x, z), Path(z, y).").unwrap();
        let ctx = ExecContext::prepare(&p, false).unwrap();
        assert!(ctx.indexed.is_empty());
        assert!(!ctx.storage.indexes_enabled());
    }

    #[test]
    fn optimize_context_reflects_cardinalities() {
        let p = parse("Out(x, y) :- Edge(x, y).\nEdge(4, 5).").unwrap();
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        ctx.iteration = 3;
        let oc = ctx.optimize_context();
        let edge = p.relation_by_name("Edge").unwrap();
        assert_eq!(oc.cardinality(edge, DbKind::Derived), 1);
        assert_eq!(oc.stats.iteration, 3);
    }

    #[test]
    fn magic_relations_are_installed_not_inferred() {
        // A user relation that happens to carry the reserved magic prefix
        // must not be mis-scored on ordinary programs: the magic set is
        // installed explicitly by the query path, never sniffed from names.
        let mut b = carac_datalog::ProgramBuilder::new();
        b.relation("m__cache", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("m__cache", &["x", "y"])
            .end();
        let p = b.build().unwrap();
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        assert!(ctx.magic_rels.is_empty());
        assert!(ctx.optimize_context().magic.is_empty());
        let rel = p.relation_by_name("m__cache").unwrap();
        let mut magic = FxHashSet::default();
        magic.insert(rel);
        ctx.set_magic_relations(magic);
        assert!(ctx.optimize_context().is_magic(rel));
    }

    #[test]
    fn facts_can_arrive_after_preparation() {
        let p = parse("Out(x, y) :- Edge(x, y).\nEdge(1, 1).").unwrap();
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        let edge = p.relation_by_name("Edge").unwrap();
        assert!(ctx.insert_fact(edge, Tuple::pair(9, 9)).unwrap());
        assert!(!ctx.insert_fact(edge, Tuple::pair(9, 9)).unwrap());
        assert_eq!(ctx.derived_count(edge), 2);
    }
}
