//! The instruction set of the relational bytecode VM.
//!
//! The VM is the Rust stand-in for the paper's direct-to-JVM-bytecode
//! backend (§V-C.2): programs are flat instruction sequences generated *at
//! runtime* from (already join-ordered) IR subtrees, cheap to produce, with
//! no ability to hand control back to the interpreter in the middle of a
//! node and no safety net beyond what the machine checks while executing.
//!
//! The machine is a register machine over three kinds of state:
//!
//! * **registers** hold individual [`Value`]s (variable bindings),
//! * **cursor slots** hold open scans over one relation of one evaluation
//!   database (a list of matching row offsets plus a position),
//! * the **storage manager** supplies relation contents and receives emitted
//!   tuples.
//!
//! Nested-loop joins are expressed with explicit jumps: each atom opens a
//! cursor filtered by the registers bound so far, `Advance` steps it and
//! jumps backwards to the enclosing loop when exhausted.

use carac_storage::{AggFunc, CmpOp, DbKind, RelId, Value};
use std::fmt;

/// Index of a value register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u16);

/// Index of a cursor slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub u16);

/// Index of a seen-set (the projection keys one join level has expanded;
/// see [`Instr::Distinct`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeenSet(pub u16);

/// Program counter (index into the instruction vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pc(pub u32);

impl Pc {
    /// The pc as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A filter applied when opening a cursor: the column must equal either a
/// constant or the current content of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterSource {
    /// Compare against a constant.
    Const(Value),
    /// Compare against a register bound by an enclosing loop.
    Reg(Reg),
}

/// Where an emitted column takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitSource {
    /// Copy a register.
    Reg(Reg),
    /// Emit a constant.
    Const(Value),
}

/// Kind of telemetry marker (see [`Instr::Mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkKind {
    /// Entering a stratum; detail = stratum index local to the program.
    StratumBegin,
    /// Leaving a stratum.
    StratumEnd,
    /// Starting one fixpoint pass (sits at the loop head, so it re-executes
    /// on every back-edge taken).
    IterBegin,
    /// Finishing one fixpoint pass.
    IterEnd,
    /// Entering one rule's subquery; detail = rule id.
    RuleBegin,
    /// Leaving one rule's subquery.
    RuleEnd,
}

impl MarkKind {
    /// Stable lowercase name (used by `Display`).
    pub fn name(self) -> &'static str {
        match self {
            MarkKind::StratumBegin => "stratum-begin",
            MarkKind::StratumEnd => "stratum-end",
            MarkKind::IterBegin => "iter-begin",
            MarkKind::IterEnd => "iter-end",
            MarkKind::RuleBegin => "rule-begin",
            MarkKind::RuleEnd => "rule-end",
        }
    }
}

/// Payload of a telemetry marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Marker {
    /// What boundary this marker denotes.
    pub kind: MarkKind,
    /// Phase-specific payload (stratum index, rule id; 0 for iterations —
    /// the machine substitutes its runtime iteration counter).
    pub detail: u32,
}

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Opens (or re-opens) cursor `slot` over `(rel, db)`, keeping only rows
    /// whose `filters` all match.  The machine consults a hash index for the
    /// first filtered column that has one.
    OpenScan {
        /// Cursor slot to (re)initialize.
        slot: Slot,
        /// Relation to scan.
        rel: RelId,
        /// Evaluation database to read.
        db: DbKind,
        /// Equality filters on columns.
        filters: Vec<(usize, FilterSource)>,
    },
    /// Advances cursor `slot`.  On success the listed columns of the current
    /// row are copied into registers and execution falls through; when the
    /// cursor is exhausted execution jumps to `on_exhausted`.
    Advance {
        /// Cursor to advance.
        slot: Slot,
        /// `(column, register)` pairs to load from the new current row.
        loads: Vec<(usize, Reg)>,
        /// Jump target when the cursor has no more rows.
        on_exhausted: Pc,
    },
    /// Jumps to `target` unless the two registers hold equal values
    /// (used for repeated variables within a single atom).
    RequireEq {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Jump target on mismatch.
        on_mismatch: Pc,
    },
    /// Jumps to `on_mismatch` unless `a op b` holds — the comparison-
    /// constraint filter, emitted at the earliest join level that binds both
    /// operands.
    RequireCmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand (register or constant).
        a: FilterSource,
        /// Right operand (register or constant).
        b: FilterSource,
        /// Jump target when the comparison fails.
        on_mismatch: Pc,
    },
    /// Projection skip: jumps to `on_seen` when the values of `regs` — the
    /// bound variables still live below this join level — were already
    /// recorded in seen-set `set` during the current run of the pipeline,
    /// and records them otherwise.  A pipeline run starts when cursor
    /// `root` (its outermost level) is opened; the set forgets its keys
    /// then.
    Distinct {
        /// Seen-set of this join level.
        set: SeenSet,
        /// Cursor of the pipeline's outermost level.
        root: Slot,
        /// The key: registers of the live bound variables.
        regs: Vec<Reg>,
        /// Jump target when the key was seen (the level's `Advance`).
        on_seen: Pc,
    },
    /// Aggregation: groups `input`'s derived rows on the non-aggregated
    /// columns, folds the `aggs` columns, and emits result rows into
    /// `output`'s delta-new database.  Stratum-boundary folds run once over
    /// a fully computed lower-stratum input; lattice folds run inside the
    /// fixpoint loop, retract a group's previous optimum and emit only
    /// strictly improved groups.
    Aggregate {
        /// Relation holding the raw rows.
        input: RelId,
        /// Relation receiving the aggregated rows.
        output: RelId,
        /// `(column, function)` pairs; other columns are group keys.
        aggs: Vec<(usize, AggFunc)>,
        /// Whether this is an in-recursion monotone lattice fold.
        lattice: bool,
    },
    /// Anti-join check: if a tuple matching `filters` exists in `(rel, db)`,
    /// jump to `on_found` (the negated literal is violated).
    NegCheck {
        /// Relation probed.
        rel: RelId,
        /// Database probed (always `Derived` for stratified negation).
        db: DbKind,
        /// Equality filters describing the probe.
        filters: Vec<(usize, FilterSource)>,
        /// Jump target when a matching tuple exists.
        on_found: Pc,
    },
    /// Emits a tuple into the delta-new database of `rel` (deduplicated
    /// against the derived database by the storage layer).
    Emit {
        /// Destination relation.
        rel: RelId,
        /// Column sources.
        columns: Vec<EmitSource>,
    },
    /// Unconditional jump.
    Jump(Pc),
    /// Iteration boundary for the listed relations.
    SwapClear {
        /// Relations to merge/swap/clear.
        relations: Vec<RelId>,
    },
    /// Jumps to `target` when at least one of the listed relations still has
    /// tuples in its delta-known database (the fixpoint back-edge).
    JumpIfDeltasNotEmpty {
        /// Relations to test.
        relations: Vec<RelId>,
        /// Loop head.
        target: Pc,
    },
    /// Telemetry boundary: updates the machine's per-rule/iteration/stratum
    /// side tallies and (when mark collection is on) records a timestamped
    /// mark event for span replay.  Has no effect on query results.
    Mark(Marker),
    /// Stops execution of the program.
    Halt,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::OpenScan {
                slot,
                rel,
                db,
                filters,
            } => write!(f, "open   s{} {rel:?}/{db:?} filters={filters:?}", slot.0),
            Instr::Advance {
                slot,
                loads,
                on_exhausted,
            } => write!(
                f,
                "adv    s{} loads={loads:?} exhausted->{}",
                slot.0, on_exhausted.0
            ),
            Instr::RequireEq { a, b, on_mismatch } => {
                write!(f, "eq?    r{} r{} else->{}", a.0, b.0, on_mismatch.0)
            }
            Instr::RequireCmp {
                op,
                a,
                b,
                on_mismatch,
            } => write!(
                f,
                "cmp?   {a:?} {} {b:?} else->{}",
                op.symbol(),
                on_mismatch.0
            ),
            Instr::Distinct {
                set,
                root,
                regs,
                on_seen,
            } => {
                let regs: Vec<u16> = regs.iter().map(|r| r.0).collect();
                write!(
                    f,
                    "dist   #{} root=s{} regs={regs:?} seen->{}",
                    set.0, root.0, on_seen.0
                )
            }
            Instr::Aggregate {
                input,
                output,
                aggs,
                lattice,
            } => {
                let mode = if *lattice { "lattice " } else { "" };
                write!(f, "agg    {mode}{input:?} -> {output:?} {aggs:?}")
            }
            Instr::NegCheck {
                rel,
                db,
                filters,
                on_found,
            } => write!(
                f,
                "neg?   {rel:?}/{db:?} filters={filters:?} found->{}",
                on_found.0
            ),
            Instr::Emit { rel, columns } => write!(f, "emit   {rel:?} {columns:?}"),
            Instr::Jump(pc) => write!(f, "jmp    {}", pc.0),
            Instr::SwapClear { relations } => write!(f, "swapcl {relations:?}"),
            Instr::JumpIfDeltasNotEmpty { relations, target } => {
                write!(f, "loop?  {relations:?} -> {}", target.0)
            }
            Instr::Mark(marker) => write!(f, "mark   {} {}", marker.kind.name(), marker.detail),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        let i = Instr::Jump(Pc(4));
        assert_eq!(i.to_string(), "jmp    4");
        let i = Instr::Halt;
        assert_eq!(i.to_string(), "halt");
        let i = Instr::Emit {
            rel: RelId(1),
            columns: vec![EmitSource::Reg(Reg(0))],
        };
        assert!(i.to_string().contains("emit"));
    }

    #[test]
    fn pc_indexing() {
        assert_eq!(Pc(7).index(), 7);
    }
}
