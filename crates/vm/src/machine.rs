//! The bytecode interpreter ("machine").
//!
//! Executes a [`VmProgram`] against a [`StorageManager`].  The machine
//! checks register, slot and pc bounds as it goes — generated programs are
//! trusted but not blindly: a compiler bug surfaces as a [`VmError`] rather
//! than silent corruption, mirroring the paper's observation that the
//! bytecode target trades the type-checked safety of quotes for speed while
//! the runtime still enforces its own invariants.

use carac_ir::SeenKeys;
use carac_storage::{DbKind, RelationView, RowId, StorageManager, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::instr::{EmitSource, FilterSource, Instr, MarkKind, Marker, Reg, Slot};
use crate::program::VmProgram;

/// Errors raised while executing a VM program.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The program counter left the program.
    PcOutOfBounds(u32),
    /// A register index exceeded the allocated register file.
    RegisterOutOfBounds(u16),
    /// A cursor slot index exceeded the allocated slots.
    SlotOutOfBounds(u16),
    /// A seen-set index exceeded the allocated seen-sets.
    SetOutOfBounds(u16),
    /// A cursor was advanced before being opened.
    CursorNotOpen(u16),
    /// A register was read before being written.
    UninitializedRegister(u16),
    /// The storage layer rejected an operation.
    Storage(String),
    /// The instruction budget was exhausted (guards against non-terminating
    /// generated programs in tests).
    BudgetExhausted,
    /// The bytecode compiler tried to patch a jump target into an
    /// instruction that has none (a lowering bug, reported as a typed
    /// compile error instead of a process abort).
    PatchTarget(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::PcOutOfBounds(pc) => write!(f, "program counter {pc} out of bounds"),
            VmError::RegisterOutOfBounds(r) => write!(f, "register r{r} out of bounds"),
            VmError::SlotOutOfBounds(s) => write!(f, "cursor slot s{s} out of bounds"),
            VmError::SetOutOfBounds(s) => write!(f, "seen-set #{s} out of bounds"),
            VmError::CursorNotOpen(s) => write!(f, "cursor slot s{s} advanced before open"),
            VmError::UninitializedRegister(r) => write!(f, "register r{r} read before write"),
            VmError::Storage(msg) => write!(f, "storage error: {msg}"),
            VmError::BudgetExhausted => write!(f, "instruction budget exhausted"),
            VmError::PatchTarget(instr) => {
                write!(f, "cannot patch jump target into {instr}")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<carac_storage::StorageError> for VmError {
    fn from(err: carac_storage::StorageError) -> Self {
        VmError::Storage(err.to_string())
    }
}

/// Counters reported after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions executed.
    pub executed: u64,
    /// Tuples emitted (before storage-level deduplication).
    pub emitted: u64,
    /// Tuples that were genuinely new.
    pub inserted: u64,
    /// Scans/probes that were answered through a composite (multi-column)
    /// index instead of a single-column probe or a filtered scan.
    pub composite_probes: u64,
    /// Rows visited by probes that no index answered (filtered scans; see
    /// `ProbeRows::scanned_rows`).
    pub probe_scan_rows: u64,
    /// Rows a `Distinct` skipped because their projection key was already
    /// expanded in the same pipeline run.
    pub projection_skips: u64,
}

/// Per-rule side tallies accumulated while a program runs, keyed by rule
/// id.  Always on (one `Instant` pair per rule execution, mirroring the
/// specialized kernel's profiling cost) so the JIT can fold them into
/// `RunStats::rule_profiles` after every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleTally {
    /// Stratum index local to the program (`u32::MAX` when the compiled
    /// subtree contained no stratum marker — the caller substitutes the
    /// stratum it is currently in).
    pub stratum: u32,
    /// Number of times the rule's subquery body was entered.
    pub executions: u64,
    /// Rows in the rule's delta atoms (not measured by the VM; always 0).
    pub delta_rows_in: u64,
    /// Tuples emitted by the rule before deduplication.
    pub emitted: u64,
    /// Tuples that were genuinely new.
    pub inserted: u64,
    /// Wall-clock time between the rule's begin/end markers.
    pub time: Duration,
}

impl Default for RuleTally {
    fn default() -> Self {
        RuleTally {
            stratum: u32::MAX,
            executions: 0,
            delta_rows_in: 0,
            emitted: 0,
            inserted: 0,
            time: Duration::ZERO,
        }
    }
}

/// Per-aggregate side tallies, keyed by output relation id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateTally {
    /// Number of finalizations.
    pub executions: u64,
    /// Result rows emitted.
    pub emitted: u64,
    /// Result rows that were genuinely new.
    pub inserted: u64,
    /// Wall-clock time spent folding.
    pub time: Duration,
}

/// A timestamped marker recorded during a run (only when mark collection is
/// enabled).  The JIT replays these as tracer spans after the run.
#[derive(Debug, Clone, Copy)]
pub struct MarkEvent {
    /// Boundary kind.
    pub kind: MarkKind,
    /// Detail (stratum index, runtime iteration number, or rule id).
    pub detail: u32,
    /// When the marker executed.
    pub at: Instant,
    /// Tuples emitted so far at this point of the run.
    pub emitted: u64,
    /// Tuples inserted so far at this point of the run.
    pub inserted: u64,
}

/// An open cursor: the matching row ids of one relation snapshot and the
/// current position within them.  The row buffer is owned by the cursor and
/// reused across `OpenScan`s (cleared, never reallocated once warm), so the
/// steady-state probe path performs no heap allocation.
#[derive(Debug, Clone)]
struct Cursor {
    rel: carac_storage::RelId,
    db: DbKind,
    rows: Vec<RowId>,
    pos: usize,
    open: bool,
    /// Times the cursor has been opened: a pipeline whose outermost cursor
    /// this is starts a new run at every increment.
    opens: u64,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor {
            rel: carac_storage::RelId(0),
            db: DbKind::Derived,
            rows: Vec::new(),
            pos: 0,
            open: false,
            opens: 0,
        }
    }
}

/// The virtual machine.
#[derive(Debug)]
pub struct Machine {
    regs: Vec<Option<Value>>,
    cursors: Vec<Cursor>,
    /// Per seen-set: the `opens` count of its root cursor when the set was
    /// last used, and the keys recorded since that cursor was opened.
    seen: Vec<(u64, SeenKeys)>,
    /// Reusable buffer for resolved `(column, value)` filters (probe path).
    resolved: Vec<(usize, Value)>,
    /// Reusable buffer the storage probe scans into when no index applies.
    probe_scratch: Vec<RowId>,
    /// Reusable row buffer for `Emit` (head values, one row at a time).
    emit_row: Vec<Value>,
    /// Maximum number of instructions a single `run` may execute; defaults
    /// to effectively unlimited.
    pub budget: u64,
    /// Whether `Mark` instructions additionally record timestamped
    /// [`MarkEvent`]s for span replay (tallies are always maintained).
    collect_marks: bool,
    marks: Vec<MarkEvent>,
    rule_tallies: BTreeMap<u32, RuleTally>,
    aggregate_tallies: BTreeMap<u32, AggregateTally>,
    /// Open rule markers: `(rule, started, emitted₀, inserted₀)`.
    rule_stack: Vec<(u32, Instant, u64, u64)>,
    current_stratum: u32,
    iterations: u64,
    strata_entered: u64,
}

impl Machine {
    /// Creates a machine sized for `program`.
    pub fn for_program(program: &VmProgram) -> Self {
        Machine {
            regs: vec![None; program.num_regs],
            cursors: vec![Cursor::default(); program.num_slots],
            seen: (0..program.num_sets).map(|_| Default::default()).collect(),
            resolved: Vec::new(),
            probe_scratch: Vec::new(),
            emit_row: Vec::new(),
            budget: u64::MAX,
            collect_marks: false,
            marks: Vec::new(),
            rule_tallies: BTreeMap::new(),
            aggregate_tallies: BTreeMap::new(),
            rule_stack: Vec::new(),
            current_stratum: u32::MAX,
            iterations: 0,
            strata_entered: 0,
        }
    }

    /// Enables or disables timestamped mark collection (off by default; the
    /// per-rule/aggregate tallies are always maintained).
    pub fn set_collect_marks(&mut self, on: bool) {
        self.collect_marks = on;
    }

    /// Per-rule tallies accumulated by `run`, keyed by rule id.
    pub fn rule_tallies(&self) -> &BTreeMap<u32, RuleTally> {
        &self.rule_tallies
    }

    /// Per-aggregate tallies accumulated by `run`, keyed by output relation.
    pub fn aggregate_tallies(&self) -> &BTreeMap<u32, AggregateTally> {
        &self.aggregate_tallies
    }

    /// Timestamped markers recorded by `run` (empty unless collection is on).
    pub fn marks(&self) -> &[MarkEvent] {
        &self.marks
    }

    /// Fixpoint passes executed (counted at `IterBegin` markers).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Strata entered (counted at `StratumBegin` markers).
    pub fn strata_entered(&self) -> u64 {
        self.strata_entered
    }

    /// Updates the side tallies for one executed marker and, when mark
    /// collection is on, records the timestamped event.
    fn note_mark(&mut self, marker: &Marker, stats: &VmStats) {
        let now = Instant::now();
        let mut detail = marker.detail;
        match marker.kind {
            MarkKind::StratumBegin => {
                self.current_stratum = marker.detail;
                self.strata_entered += 1;
            }
            MarkKind::StratumEnd => self.current_stratum = u32::MAX,
            MarkKind::IterBegin => {
                detail = self.iterations as u32;
                self.iterations += 1;
            }
            MarkKind::IterEnd => {}
            MarkKind::RuleBegin => {
                self.rule_stack
                    .push((marker.detail, now, stats.emitted, stats.inserted));
            }
            MarkKind::RuleEnd => {
                if let Some((rule, started, emitted0, inserted0)) = self.rule_stack.pop() {
                    let tally = self.rule_tallies.entry(rule).or_default();
                    if self.current_stratum != u32::MAX {
                        tally.stratum = self.current_stratum;
                    }
                    tally.executions += 1;
                    tally.emitted += stats.emitted.saturating_sub(emitted0);
                    tally.inserted += stats.inserted.saturating_sub(inserted0);
                    tally.time += now.saturating_duration_since(started);
                    detail = rule;
                }
            }
        }
        if self.collect_marks {
            self.marks.push(MarkEvent {
                kind: marker.kind,
                detail,
                at: now,
                emitted: stats.emitted,
                inserted: stats.inserted,
            });
        }
    }

    /// Runs `program` to completion against `storage`.
    pub fn run(
        &mut self,
        program: &VmProgram,
        storage: &mut StorageManager,
    ) -> Result<VmStats, VmError> {
        let mut stats = VmStats::default();
        let mut pc: usize = 0;
        loop {
            if stats.executed >= self.budget {
                return Err(VmError::BudgetExhausted);
            }
            let instr = program
                .instrs
                .get(pc)
                .ok_or(VmError::PcOutOfBounds(pc as u32))?;
            stats.executed += 1;
            match instr {
                Instr::Halt => return Ok(stats),
                Instr::Jump(target) => {
                    pc = target.index();
                    continue;
                }
                Instr::SwapClear { relations } => {
                    storage.swap_and_clear(relations)?;
                }
                Instr::JumpIfDeltasNotEmpty { relations, target } => {
                    if !storage.deltas_empty(relations)? {
                        pc = target.index();
                        continue;
                    }
                }
                Instr::OpenScan {
                    slot,
                    rel,
                    db,
                    filters,
                } => {
                    self.resolve_filters(filters)?;
                    let relation = storage.relation(*db, *rel)?;
                    // Disjoint field borrows: the cursor's row buffer is
                    // filled from the probe without ever being reallocated.
                    let cursor = self
                        .cursors
                        .get_mut(slot.0 as usize)
                        .ok_or(VmError::SlotOutOfBounds(slot.0))?;
                    let probe = fill_matching_rows(
                        relation,
                        &self.resolved,
                        &mut self.probe_scratch,
                        &mut cursor.rows,
                    );
                    stats.note_probe(probe);
                    cursor.rel = *rel;
                    cursor.db = *db;
                    cursor.pos = 0;
                    cursor.open = true;
                    cursor.opens += 1;
                }
                Instr::Advance {
                    slot,
                    loads,
                    on_exhausted,
                } => {
                    let cursor = self.cursor(*slot)?;
                    if !cursor.open {
                        return Err(VmError::CursorNotOpen(slot.0));
                    }
                    if cursor.pos >= cursor.rows.len() {
                        pc = on_exhausted.index();
                        continue;
                    }
                    let row = cursor.rows[cursor.pos];
                    let (rel, db) = (cursor.rel, cursor.db);
                    self.cursor_mut(*slot)?.pos += 1;
                    let relation = storage.relation(db, rel)?;
                    for &(col, reg) in loads {
                        let value = relation.row(row).get(col).copied().ok_or_else(|| {
                            VmError::Storage(format!(
                                "column {col} out of bounds while loading from {rel:?}"
                            ))
                        })?;
                        self.write_reg(reg, value)?;
                    }
                }
                Instr::RequireEq { a, b, on_mismatch } => {
                    if self.read_reg(*a)? != self.read_reg(*b)? {
                        pc = on_mismatch.index();
                        continue;
                    }
                }
                Instr::RequireCmp {
                    op,
                    a,
                    b,
                    on_mismatch,
                } => {
                    let left = self.filter_value(a)?;
                    let right = self.filter_value(b)?;
                    if !op.eval(left, right) {
                        pc = on_mismatch.index();
                        continue;
                    }
                }
                Instr::Distinct {
                    set,
                    root,
                    regs,
                    on_seen,
                } => {
                    let run = self.cursor(*root)?.opens;
                    let (used_in, keys) = self
                        .seen
                        .get_mut(set.0 as usize)
                        .ok_or(VmError::SetOutOfBounds(set.0))?;
                    if *used_in != run {
                        keys.clear();
                        *used_in = run;
                    }
                    let file = &self.regs;
                    if !keys.insert(regs.iter().map(|&reg| read_reg(file, reg)))? {
                        stats.projection_skips += 1;
                        pc = on_seen.index();
                        continue;
                    }
                }
                Instr::Aggregate {
                    input,
                    output,
                    aggs,
                    lattice,
                } => {
                    let started = Instant::now();
                    let (emitted, inserted) = if *lattice {
                        storage.aggregate_lattice_into(*input, *output, aggs)?
                    } else {
                        storage.aggregate_into(*input, *output, aggs)?
                    };
                    stats.emitted += emitted;
                    stats.inserted += inserted;
                    let tally = self.aggregate_tallies.entry(output.0).or_default();
                    tally.executions += 1;
                    tally.emitted += emitted;
                    tally.inserted += inserted;
                    tally.time += started.elapsed();
                }
                Instr::NegCheck {
                    rel,
                    db,
                    filters,
                    on_found,
                } => {
                    self.resolve_filters(filters)?;
                    let relation = storage.relation(*db, *rel)?;
                    let (found, probe) =
                        any_matching_row(relation, &self.resolved, &mut self.probe_scratch);
                    stats.note_probe(probe);
                    if found {
                        pc = on_found.index();
                        continue;
                    }
                }
                Instr::Mark(marker) => {
                    let marker = *marker;
                    self.note_mark(&marker, &stats);
                }
                Instr::Emit { rel, columns } => {
                    self.emit_row.clear();
                    for source in columns {
                        let value = match source {
                            EmitSource::Const(c) => *c,
                            EmitSource::Reg(r) => self.read_reg(*r)?,
                        };
                        self.emit_row.push(value);
                    }
                    stats.emitted += 1;
                    if storage.insert_derived_row(*rel, &self.emit_row)? {
                        stats.inserted += 1;
                    }
                }
            }
            pc += 1;
        }
    }

    fn cursor(&self, slot: Slot) -> Result<&Cursor, VmError> {
        self.cursors
            .get(slot.0 as usize)
            .ok_or(VmError::SlotOutOfBounds(slot.0))
    }

    fn cursor_mut(&mut self, slot: Slot) -> Result<&mut Cursor, VmError> {
        self.cursors
            .get_mut(slot.0 as usize)
            .ok_or(VmError::SlotOutOfBounds(slot.0))
    }

    /// Resolves one comparison/filter operand.
    fn filter_value(&self, source: &FilterSource) -> Result<Value, VmError> {
        match source {
            FilterSource::Const(c) => Ok(*c),
            FilterSource::Reg(r) => self.read_reg(*r),
        }
    }

    fn read_reg(&self, reg: Reg) -> Result<Value, VmError> {
        read_reg(&self.regs, reg)
    }

    fn write_reg(&mut self, reg: Reg, value: Value) -> Result<(), VmError> {
        let slot = self
            .regs
            .get_mut(reg.0 as usize)
            .ok_or(VmError::RegisterOutOfBounds(reg.0))?;
        *slot = Some(value);
        Ok(())
    }

    /// Resolves `(column, source)` filters into the machine's reusable
    /// `(column, value)` buffer.
    fn resolve_filters(&mut self, filters: &[(usize, FilterSource)]) -> Result<(), VmError> {
        self.resolved.clear();
        for &(col, ref source) in filters {
            let value = match source {
                FilterSource::Const(c) => *c,
                FilterSource::Reg(r) => self.read_reg(*r)?,
            };
            self.resolved.push((col, value));
        }
        Ok(())
    }
}

/// Reads `reg` from the register file `regs`.
fn read_reg(regs: &[Option<Value>], reg: Reg) -> Result<Value, VmError> {
    regs.get(reg.0 as usize)
        .ok_or(VmError::RegisterOutOfBounds(reg.0))?
        .ok_or(VmError::UninitializedRegister(reg.0))
}

/// How one probe was answered: through a composite index, and how many
/// rows a filtered scan visited.
#[derive(Debug, Clone, Copy)]
struct ProbeKind {
    composite: bool,
    scanned: usize,
}

impl VmStats {
    fn note_probe(&mut self, probe: ProbeKind) {
        self.composite_probes += u64::from(probe.composite);
        self.probe_scan_rows += probe.scanned as u64;
    }
}

/// Fills `out` with the row ids of `relation` matching every resolved
/// filter, reusing the caller's buffers (no allocation once warm).  Access
/// paths follow the storage layer's shared policy
/// ([`RelationView::probe_rows`]); candidates the chosen path did not fully
/// cover are confirmed against the actual row values.
fn fill_matching_rows(
    relation: RelationView<'_>,
    resolved: &[(usize, Value)],
    probe_scratch: &mut Vec<RowId>,
    out: &mut Vec<RowId>,
) -> ProbeKind {
    out.clear();
    let probe = relation.probe_rows(resolved, probe_scratch);
    let composite = probe.via_composite();
    if resolved.len() <= 1 && !composite {
        // A single-column posting list or filtered scan is already exact.
        out.extend(probe.iter());
    } else {
        for row in &probe {
            let values = relation.row(row);
            if resolved
                .iter()
                .all(|&(col, value)| values.get(col) == Some(&value))
            {
                out.push(row);
            }
        }
    }
    ProbeKind {
        composite,
        scanned: probe.scanned_rows(),
    }
}

/// Whether any row of `relation` matches every resolved filter (negation
/// probe; stops at the first confirmed hit).
fn any_matching_row(
    relation: RelationView<'_>,
    resolved: &[(usize, Value)],
    probe_scratch: &mut Vec<RowId>,
) -> (bool, ProbeKind) {
    let probe = relation.probe_rows(resolved, probe_scratch);
    let found = probe.iter().any(|row| {
        let values = relation.row(row);
        resolved
            .iter()
            .all(|&(col, value)| values.get(col) == Some(&value))
    });
    let kind = ProbeKind {
        composite: probe.via_composite(),
        scanned: probe.scanned_rows(),
    };
    (found, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_node, compile_query};
    use crate::instr::Pc;
    use carac_datalog::parser::parse;
    use carac_datalog::Program;
    use carac_ir::{generate_plan, EvalStrategy};
    use carac_storage::{RelId, Tuple};

    fn storage_for(program: &Program, indexes: bool) -> StorageManager {
        let mut sm = StorageManager::new(indexes);
        for decl in program.relations() {
            sm.register(&decl.name, decl.arity, decl.is_edb);
        }
        for (rel, tuple) in program.facts() {
            sm.insert_fact(*rel, tuple.clone()).unwrap();
        }
        sm
    }

    #[test]
    fn transitive_closure_via_full_compilation() {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        let mut storage = storage_for(&p, true);
        let mut machine = Machine::for_program(&program);
        let stats = machine.run(&program, &mut storage).unwrap();
        let path = p.relation_by_name("Path").unwrap();
        let result = storage.relation(DbKind::Derived, path).unwrap();
        // 1→2,2→3,3→4,1→3,2→4,1→4
        assert_eq!(result.len(), 6);
        assert!(stats.inserted >= 6);
        assert!(stats.executed > 0);
    }

    #[test]
    fn machine_handles_negation() {
        let p = parse(
            "Composite(x) :- Div(x, d).\n\
             Prime(x) :- Num(x), !Composite(x).\n\
             Num(2). Num(3). Num(4).\n\
             Div(4, 2).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        let mut storage = storage_for(&p, false);
        let mut machine = Machine::for_program(&program);
        machine.run(&program, &mut storage).unwrap();
        let prime = p.relation_by_name("Prime").unwrap();
        let result = storage.relation(DbKind::Derived, prime).unwrap();
        assert_eq!(result.len(), 2); // 2 and 3
        assert!(result.contains(&Tuple::from_ints(&[2])));
        assert!(result.contains(&Tuple::from_ints(&[3])));
        assert!(!result.contains(&Tuple::from_ints(&[4])));
    }

    #[test]
    fn indexed_and_unindexed_agree() {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 1). Edge(3, 5).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        let path = p.relation_by_name("Path").unwrap();

        let mut with_index = storage_for(&p, true);
        // Request an index on the join column.
        with_index
            .add_index(p.relation_by_name("Edge").unwrap(), 1)
            .unwrap();
        with_index.add_index(path, 0).unwrap();
        Machine::for_program(&program)
            .run(&program, &mut with_index)
            .unwrap();

        let mut without_index = storage_for(&p, false);
        Machine::for_program(&program)
            .run(&program, &mut without_index)
            .unwrap();

        assert_eq!(
            with_index.relation(DbKind::Derived, path).unwrap().len(),
            without_index.relation(DbKind::Derived, path).unwrap().len()
        );
    }

    #[test]
    fn machine_evaluates_comparison_constraints() {
        let p = parse(
            "Less(x, y) :- Pair(x, y), x < y.\n\
             Pair(1, 2). Pair(2, 2). Pair(3, 2). Pair(0, 9).",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        assert!(program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::RequireCmp { .. })));
        let mut storage = storage_for(&p, false);
        Machine::for_program(&program)
            .run(&program, &mut storage)
            .unwrap();
        let less = p.relation_by_name("Less").unwrap();
        let result = storage.relation(DbKind::Derived, less).unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.contains(&Tuple::pair(1, 2)));
        assert!(result.contains(&Tuple::pair(0, 9)));
    }

    #[test]
    fn statically_false_constraint_compiles_to_nothing() {
        let p = parse("Out(x) :- Node(x), 2 < 1.\nNode(5).").unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        let mut storage = storage_for(&p, false);
        Machine::for_program(&program)
            .run(&program, &mut storage)
            .unwrap();
        let out = p.relation_by_name("Out").unwrap();
        assert!(storage.relation(DbKind::Derived, out).unwrap().is_empty());
    }

    #[test]
    fn machine_finalizes_aggregates_at_stratum_boundaries() {
        let p = parse(
            "Deg(x, count y) :- Edge(x, y).\n\
             Busy(x) :- Deg(x, c), c >= 2.\n\
             Edge(1, 2). Edge(1, 3). Edge(2, 3). Edge(3, 1).",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        assert!(program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Aggregate { .. })));
        let mut storage = storage_for(&p, true);
        let stats = Machine::for_program(&program)
            .run(&program, &mut storage)
            .unwrap();
        let deg = p.relation_by_name("Deg").unwrap();
        let result = storage.relation(DbKind::Derived, deg).unwrap();
        assert!(result.contains(&Tuple::pair(1, 2)));
        assert!(result.contains(&Tuple::pair(2, 1)));
        assert!(result.contains(&Tuple::pair(3, 1)));
        assert_eq!(result.len(), 3);
        let busy = p.relation_by_name("Busy").unwrap();
        let busy_rows = storage.relation(DbKind::Derived, busy).unwrap();
        assert_eq!(busy_rows.len(), 1);
        assert!(busy_rows.contains(&Tuple::from_ints(&[1])));
        assert!(stats.inserted >= 4);
    }

    #[test]
    fn distinct_skips_expanded_keys_and_resets_every_pipeline_run(
    ) -> Result<(), Box<dyn std::error::Error>> {
        // Level 1 of the recursive rule is keyed on (x, w): y is dead once
        // Edge(y, w) has probed on it.  The rule runs once per fixpoint
        // pass; a seen-set surviving into the next pass would drop paths.
        let edges: Vec<(u32, u32)> = (0..12u32)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 5) % 12), ((i * 7) % 12, i)])
            .collect();
        let mut source = String::from(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, z) :- Path(x, y), Edge(y, w), Edge(w, z).\n",
        );
        for (a, b) in &edges {
            source.push_str(&format!("Edge({a}, {b}).\n"));
        }
        let p = parse(&source)?;
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan)?;
        assert!(program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Distinct { .. })));
        let mut storage = storage_for(&p, true);
        let stats = Machine::for_program(&program).run(&program, &mut storage)?;
        assert!(stats.projection_skips > 0);

        // Reference: walks of odd length, by saturation.
        let mut expected: std::collections::BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        loop {
            let mut grown = expected.clone();
            for &(x, y) in &expected {
                for &(_, w) in edges.iter().filter(|&&(a, _)| a == y) {
                    for &(_, z) in edges.iter().filter(|&&(a, _)| a == w) {
                        grown.insert((x, z));
                    }
                }
            }
            if grown.len() == expected.len() {
                break;
            }
            expected = grown;
        }
        let path = p.relation_by_name("Path")?;
        let result = storage.relation(DbKind::Derived, path)?;
        assert_eq!(result.len(), expected.len());
        for (x, z) in expected {
            assert!(
                result.contains(&Tuple::pair(x, z)),
                "missing Path({x}, {z})"
            );
        }
        Ok(())
    }

    #[test]
    fn budget_guards_against_runaway_programs() {
        let program = VmProgram {
            instrs: vec![Instr::Jump(Pc(0))],
            num_regs: 0,
            num_slots: 0,
            num_sets: 0,
        };
        let mut machine = Machine::for_program(&program);
        machine.budget = 100;
        let p = parse("Edge(1, 2).").unwrap();
        let mut storage = storage_for(&p, false);
        assert_eq!(
            machine.run(&program, &mut storage),
            Err(VmError::BudgetExhausted)
        );
    }

    #[test]
    fn uninitialized_register_is_reported() {
        let program = VmProgram {
            instrs: vec![
                Instr::Emit {
                    rel: RelId(0),
                    columns: vec![EmitSource::Reg(Reg(0))],
                },
                Instr::Halt,
            ],
            num_regs: 1,
            num_slots: 0,
            num_sets: 0,
        };
        let p = parse("Edge(1, 2).").unwrap();
        let mut storage = storage_for(&p, false);
        let mut machine = Machine::for_program(&program);
        assert!(matches!(
            machine.run(&program, &mut storage),
            Err(VmError::UninitializedRegister(0))
        ));
    }

    #[test]
    fn single_query_compilation_populates_delta_new() {
        let p = parse(
            "Copy(x, y) :- Edge(x, y).\n\
             Edge(7, 8).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let (_, query) = plan.spj_queries()[0];
        let program = compile_query(query).unwrap();
        let mut storage = storage_for(&p, false);
        let mut machine = Machine::for_program(&program);
        let stats = machine.run(&program, &mut storage).unwrap();
        assert_eq!(stats.inserted, 1);
        let copy = p.relation_by_name("Copy").unwrap();
        assert_eq!(storage.relation(DbKind::DeltaNew, copy).unwrap().len(), 1);
        // Not yet merged into derived: that is SwapClear's job.
        assert_eq!(storage.relation(DbKind::Derived, copy).unwrap().len(), 0);
    }
}
