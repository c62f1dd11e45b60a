//! Static bytecode verifier — JVM-style guarantees sized for our ISA.
//!
//! [`verify_program`] proves, before a program ever touches the storage
//! layer, that execution cannot hit a machine trap and cannot run forever:
//!
//! * **Bounds** — every jump target, register, cursor slot, seen-set and
//!   relation id is in range (strictly stronger than [`VmProgram::validate`], which
//!   skips `Emit` columns and filter registers).
//! * **Schema agreement** — filter and load columns index inside the scanned
//!   relation's arity, `Emit` rows match the destination arity, `Aggregate`
//!   input/output arities agree and aggregated columns exist.
//! * **Dataflow safety** — a forward abstract interpretation over the
//!   control-flow graph tracks per-register *must-initialized* state and
//!   per-slot *must-open* cursor state (with the relation the slot is open
//!   over, when unambiguous).  Reading an uninitialized register (a
//!   `Distinct` key included), advancing a possibly-closed cursor or
//!   keying a `Distinct` on a possibly-closed root cursor is rejected; so is
//!   falling off the end of the program.
//! * **Termination** — every cycle of the control-flow graph must be broken
//!   by a *progress* instruction: an [`Instr::Advance`] whose cursor is not
//!   re-opened inside the cycle (each fall-through consumes one row of a
//!   finite scan), or an [`Instr::JumpIfDeltasNotEmpty`] whose cycle also
//!   contains a [`Instr::SwapClear`] covering the tested relations (the
//!   semi-naive argument: emission is deduplicated against a finite derived
//!   set, so the deltas must eventually drain).  Cycles with no such
//!   instruction are rejected as potentially non-terminating.
//!
//! The verifier is *sound for the machine*: a verified program cannot
//! return [`crate::VmError::CursorNotOpen`], `UninitializedRegister` or any
//! out-of-bounds error at runtime, and its instruction graph admits no
//! infinite path.  It is *complete for the compiler*: every program emitted
//! by [`crate::compile_node`] / [`crate::compile_query`] verifies cleanly
//! (enforced by debug assertions in the compiler and the mutation-fuzz
//! suite in `carac-core`).

use carac_storage::RelId;
use std::fmt;

use crate::instr::{EmitSource, FilterSource, Instr, Pc, Reg, SeenSet, Slot};
use crate::program::VmProgram;

/// A static verification failure, pinned to the offending instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A jump target points past the end of the program.
    JumpOutOfBounds {
        /// Instruction holding the bad target.
        pc: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A register operand is `>= num_regs`.
    RegisterOutOfBounds {
        /// Offending instruction.
        pc: usize,
        /// The out-of-range register.
        reg: u16,
    },
    /// A cursor slot operand is `>= num_slots`.
    SlotOutOfBounds {
        /// Offending instruction.
        pc: usize,
        /// The out-of-range slot.
        slot: u16,
    },
    /// A `Distinct` seen-set is `>= num_sets`.
    SetOutOfBounds {
        /// Offending instruction.
        pc: usize,
        /// The out-of-range seen-set.
        set: u16,
    },
    /// A relation id has no schema entry.
    UnknownRelation {
        /// Offending instruction.
        pc: usize,
        /// The unknown relation.
        rel: RelId,
    },
    /// A filter, load or aggregate column indexes past the relation arity.
    ColumnOutOfArity {
        /// Offending instruction.
        pc: usize,
        /// The relation whose arity was exceeded.
        rel: RelId,
        /// The out-of-range column.
        column: usize,
        /// The relation's declared arity.
        arity: usize,
    },
    /// An `Emit` row is wider or narrower than the destination relation.
    EmitArityMismatch {
        /// Offending instruction.
        pc: usize,
        /// Destination relation.
        rel: RelId,
        /// Columns the instruction emits.
        emitted: usize,
        /// The relation's declared arity.
        arity: usize,
    },
    /// An `Aggregate` reads and writes relations of different arity.
    AggregateArityMismatch {
        /// Offending instruction.
        pc: usize,
        /// Input relation.
        input: RelId,
        /// Output relation.
        output: RelId,
    },
    /// A register is read on some path before any instruction wrote it.
    UninitializedRead {
        /// Offending instruction.
        pc: usize,
        /// The possibly-uninitialized register.
        reg: u16,
    },
    /// An `Advance` (or a `Distinct` through its root) can execute while
    /// the cursor slot was never opened.
    CursorNotOpen {
        /// Offending instruction.
        pc: usize,
        /// The possibly-closed slot.
        slot: u16,
    },
    /// Execution can run past the last instruction without a `Halt`.
    FallsOffEnd {
        /// The instruction whose fall-through leaves the program.
        pc: usize,
    },
    /// A control-flow cycle contains no progress instruction and so admits
    /// an infinite execution.
    NonTerminatingLoop {
        /// The instructions forming the unbroken cycle.
        pcs: Vec<usize>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::JumpOutOfBounds { pc, target } => {
                write!(f, "pc {pc}: jump target {target} out of bounds")
            }
            VerifyError::RegisterOutOfBounds { pc, reg } => {
                write!(f, "pc {pc}: register r{reg} out of bounds")
            }
            VerifyError::SlotOutOfBounds { pc, slot } => {
                write!(f, "pc {pc}: cursor slot s{slot} out of bounds")
            }
            VerifyError::SetOutOfBounds { pc, set } => {
                write!(f, "pc {pc}: seen-set #{set} out of bounds")
            }
            VerifyError::UnknownRelation { pc, rel } => {
                write!(f, "pc {pc}: relation {rel:?} has no schema entry")
            }
            VerifyError::ColumnOutOfArity {
                pc,
                rel,
                column,
                arity,
            } => write!(f, "pc {pc}: column {column} outside {rel:?} arity {arity}"),
            VerifyError::EmitArityMismatch {
                pc,
                rel,
                emitted,
                arity,
            } => write!(
                f,
                "pc {pc}: emits {emitted} columns into {rel:?} of arity {arity}"
            ),
            VerifyError::AggregateArityMismatch { pc, input, output } => {
                write!(
                    f,
                    "pc {pc}: aggregate input {input:?} and output {output:?} arities differ"
                )
            }
            VerifyError::UninitializedRead { pc, reg } => {
                write!(f, "pc {pc}: register r{reg} read before initialization")
            }
            VerifyError::CursorNotOpen { pc, slot } => {
                write!(
                    f,
                    "pc {pc}: cursor slot s{slot} advanced while possibly closed"
                )
            }
            VerifyError::FallsOffEnd { pc } => {
                write!(f, "pc {pc}: execution falls off the end of the program")
            }
            VerifyError::NonTerminatingLoop { pcs } => {
                write!(f, "unbroken control-flow cycle through pcs {pcs:?}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Abstract per-slot cursor state for the must-open analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Not necessarily open on every path.
    Closed,
    /// Open over a known relation on every path.
    Open(RelId),
    /// Open on every path, but over different relations depending on the
    /// path taken (load-column arity checks are skipped).
    OpenAny,
}

impl SlotState {
    /// Lattice meet: the state that is safe on *both* paths.
    fn meet(self, other: SlotState) -> SlotState {
        match (self, other) {
            (a, b) if a == b => a,
            (SlotState::Closed, _) | (_, SlotState::Closed) => SlotState::Closed,
            _ => SlotState::OpenAny,
        }
    }
}

/// One abstract machine state: must-initialized registers and must-open
/// cursor slots.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<bool>,
    slots: Vec<SlotState>,
}

impl AbsState {
    fn entry(num_regs: usize, num_slots: usize) -> AbsState {
        AbsState {
            regs: vec![false; num_regs],
            slots: vec![SlotState::Closed; num_slots],
        }
    }

    /// Meets `other` into `self`; returns whether anything changed.
    fn meet_with(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            if *mine && !*theirs {
                *mine = false;
                changed = true;
            }
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            let met = mine.meet(*theirs);
            if met != *mine {
                *mine = met;
                changed = true;
            }
        }
        changed
    }
}

/// The verifier proper; see the module docs for the guarantee list.
///
/// `arities[rel.index()]` is the declared arity of each relation the
/// program may touch; a relation id past the end of the slice is rejected.
pub fn verify_program(program: &VmProgram, arities: &[usize]) -> Result<(), VerifyError> {
    check_bounds_and_schema(program, arities)?;
    check_dataflow(program, arities)?;
    check_termination(program)
}

/// Declared arity of `rel`, or an `UnknownRelation` conviction.
fn arity_of(arities: &[usize], pc: usize, rel: RelId) -> Result<usize, VerifyError> {
    arities
        .get(rel.index())
        .copied()
        .ok_or(VerifyError::UnknownRelation { pc, rel })
}

/// Pass 1: purely local checks — operand bounds and schema agreement.
fn check_bounds_and_schema(program: &VmProgram, arities: &[usize]) -> Result<(), VerifyError> {
    let len = program.instrs.len();
    let check_pc = |pc: usize, target: Pc| -> Result<(), VerifyError> {
        if target.index() >= len {
            return Err(VerifyError::JumpOutOfBounds {
                pc,
                target: target.0,
            });
        }
        Ok(())
    };
    let check_reg = |pc: usize, reg: Reg| -> Result<(), VerifyError> {
        if (reg.0 as usize) >= program.num_regs {
            return Err(VerifyError::RegisterOutOfBounds { pc, reg: reg.0 });
        }
        Ok(())
    };
    let check_slot = |pc: usize, slot: Slot| -> Result<(), VerifyError> {
        if (slot.0 as usize) >= program.num_slots {
            return Err(VerifyError::SlotOutOfBounds { pc, slot: slot.0 });
        }
        Ok(())
    };
    let check_set = |pc: usize, set: SeenSet| -> Result<(), VerifyError> {
        if (set.0 as usize) >= program.num_sets {
            return Err(VerifyError::SetOutOfBounds { pc, set: set.0 });
        }
        Ok(())
    };
    let check_filters =
        |pc: usize, rel: RelId, filters: &[(usize, FilterSource)]| -> Result<(), VerifyError> {
            let arity = arity_of(arities, pc, rel)?;
            for &(column, source) in filters {
                if column >= arity {
                    return Err(VerifyError::ColumnOutOfArity {
                        pc,
                        rel,
                        column,
                        arity,
                    });
                }
                if let FilterSource::Reg(reg) = source {
                    check_reg(pc, reg)?;
                }
            }
            Ok(())
        };

    for (pc, instr) in program.instrs.iter().enumerate() {
        match instr {
            Instr::OpenScan {
                slot, rel, filters, ..
            } => {
                check_slot(pc, *slot)?;
                check_filters(pc, *rel, filters)?;
            }
            Instr::Advance {
                slot,
                loads,
                on_exhausted,
            } => {
                check_slot(pc, *slot)?;
                check_pc(pc, *on_exhausted)?;
                for &(_, reg) in loads {
                    check_reg(pc, reg)?;
                }
            }
            Instr::RequireEq { a, b, on_mismatch } => {
                check_reg(pc, *a)?;
                check_reg(pc, *b)?;
                check_pc(pc, *on_mismatch)?;
            }
            Instr::RequireCmp {
                a, b, on_mismatch, ..
            } => {
                for source in [a, b] {
                    if let FilterSource::Reg(reg) = source {
                        check_reg(pc, *reg)?;
                    }
                }
                check_pc(pc, *on_mismatch)?;
            }
            Instr::Distinct {
                set,
                root,
                regs,
                on_seen,
            } => {
                check_set(pc, *set)?;
                check_slot(pc, *root)?;
                for &reg in regs {
                    check_reg(pc, reg)?;
                }
                check_pc(pc, *on_seen)?;
            }
            Instr::Aggregate {
                input,
                output,
                aggs,
                ..
            } => {
                let in_arity = arity_of(arities, pc, *input)?;
                let out_arity = arity_of(arities, pc, *output)?;
                if in_arity != out_arity {
                    return Err(VerifyError::AggregateArityMismatch {
                        pc,
                        input: *input,
                        output: *output,
                    });
                }
                for &(column, _) in aggs {
                    if column >= in_arity {
                        return Err(VerifyError::ColumnOutOfArity {
                            pc,
                            rel: *input,
                            column,
                            arity: in_arity,
                        });
                    }
                }
            }
            Instr::NegCheck {
                rel,
                filters,
                on_found,
                ..
            } => {
                check_filters(pc, *rel, filters)?;
                check_pc(pc, *on_found)?;
            }
            Instr::Emit { rel, columns } => {
                let arity = arity_of(arities, pc, *rel)?;
                if columns.len() != arity {
                    return Err(VerifyError::EmitArityMismatch {
                        pc,
                        rel: *rel,
                        emitted: columns.len(),
                        arity,
                    });
                }
                for column in columns {
                    if let EmitSource::Reg(reg) = column {
                        check_reg(pc, *reg)?;
                    }
                }
            }
            Instr::Jump(target) => check_pc(pc, *target)?,
            Instr::SwapClear { relations } => {
                for &rel in relations {
                    arity_of(arities, pc, rel)?;
                }
            }
            Instr::JumpIfDeltasNotEmpty { relations, target } => {
                for &rel in relations {
                    arity_of(arities, pc, rel)?;
                }
                check_pc(pc, *target)?;
            }
            Instr::Mark(_) | Instr::Halt => {}
        }
    }
    Ok(())
}

/// Successor pcs of the instruction at `pc` (bounds already checked).
/// The fall-through successor, when present, is listed first.
fn successors(instr: &Instr, pc: usize) -> Vec<usize> {
    match instr {
        Instr::Halt => vec![],
        Instr::Jump(target) => vec![target.index()],
        Instr::Advance { on_exhausted, .. } => vec![pc + 1, on_exhausted.index()],
        Instr::RequireEq { on_mismatch, .. } | Instr::RequireCmp { on_mismatch, .. } => {
            vec![pc + 1, on_mismatch.index()]
        }
        Instr::NegCheck { on_found, .. } => vec![pc + 1, on_found.index()],
        Instr::Distinct { on_seen, .. } => vec![pc + 1, on_seen.index()],
        Instr::JumpIfDeltasNotEmpty { target, .. } => vec![pc + 1, target.index()],
        Instr::OpenScan { .. }
        | Instr::Aggregate { .. }
        | Instr::Emit { .. }
        | Instr::SwapClear { .. }
        | Instr::Mark(_) => vec![pc + 1],
    }
}

/// Pass 2: forward must-analysis over the CFG.  Rejects reads of
/// possibly-uninitialized registers, advances of possibly-closed cursors,
/// load columns outside the (unambiguous) open relation's arity, and
/// fall-through past the last instruction.
fn check_dataflow(program: &VmProgram, arities: &[usize]) -> Result<(), VerifyError> {
    let len = program.instrs.len();
    if len == 0 {
        return Ok(());
    }
    let mut states: Vec<Option<AbsState>> = vec![None; len];
    states[0] = Some(AbsState::entry(program.num_regs, program.num_slots));
    let mut worklist = vec![0usize];

    let require_init = |state: &AbsState, pc: usize, reg: Reg| -> Result<(), VerifyError> {
        if !state.regs[reg.0 as usize] {
            return Err(VerifyError::UninitializedRead { pc, reg: reg.0 });
        }
        Ok(())
    };
    let require_filters = |state: &AbsState,
                           pc: usize,
                           filters: &[(usize, FilterSource)]|
     -> Result<(), VerifyError> {
        for &(_, source) in filters {
            if let FilterSource::Reg(reg) = source {
                require_init(state, pc, reg)?;
            }
        }
        Ok(())
    };

    while let Some(pc) = worklist.pop() {
        let state = states[pc].clone().expect("worklist entries have states");
        let instr = &program.instrs[pc];

        // Check the instruction's reads against the incoming state and
        // compute the fall-through effect.
        let mut fallthrough = state.clone();
        match instr {
            Instr::OpenScan {
                slot, rel, filters, ..
            } => {
                require_filters(&state, pc, filters)?;
                fallthrough.slots[slot.0 as usize] = SlotState::Open(*rel);
            }
            Instr::Advance { slot, loads, .. } => {
                match state.slots[slot.0 as usize] {
                    SlotState::Closed => {
                        return Err(VerifyError::CursorNotOpen { pc, slot: slot.0 });
                    }
                    SlotState::Open(rel) => {
                        let arity = arity_of(arities, pc, rel)?;
                        for &(column, _) in loads {
                            if column >= arity {
                                return Err(VerifyError::ColumnOutOfArity {
                                    pc,
                                    rel,
                                    column,
                                    arity,
                                });
                            }
                        }
                    }
                    SlotState::OpenAny => {}
                }
                for &(_, reg) in loads {
                    fallthrough.regs[reg.0 as usize] = true;
                }
            }
            Instr::RequireEq { a, b, .. } => {
                require_init(&state, pc, *a)?;
                require_init(&state, pc, *b)?;
            }
            Instr::RequireCmp { a, b, .. } => {
                for source in [a, b] {
                    if let FilterSource::Reg(reg) = source {
                        require_init(&state, pc, *reg)?;
                    }
                }
            }
            Instr::NegCheck { filters, .. } => require_filters(&state, pc, filters)?,
            Instr::Distinct { root, regs, .. } => {
                if state.slots[root.0 as usize] == SlotState::Closed {
                    return Err(VerifyError::CursorNotOpen { pc, slot: root.0 });
                }
                for &reg in regs {
                    require_init(&state, pc, reg)?;
                }
            }
            Instr::Emit { columns, .. } => {
                for column in columns {
                    if let EmitSource::Reg(reg) = column {
                        require_init(&state, pc, *reg)?;
                    }
                }
            }
            Instr::Aggregate { .. }
            | Instr::Jump(_)
            | Instr::SwapClear { .. }
            | Instr::JumpIfDeltasNotEmpty { .. }
            | Instr::Mark(_)
            | Instr::Halt => {}
        }

        for (i, succ) in successors(instr, pc).into_iter().enumerate() {
            if succ >= len {
                return Err(VerifyError::FallsOffEnd { pc });
            }
            // The register/slot effects apply on the fall-through edge only:
            // a jump taken on exhaustion/mismatch skips the loads.
            let out = if i == 0 { &fallthrough } else { &state };
            match &mut states[succ] {
                Some(existing) => {
                    if existing.meet_with(out) {
                        worklist.push(succ);
                    }
                }
                none => {
                    *none = Some(out.clone());
                    worklist.push(succ);
                }
            }
        }
    }
    Ok(())
}

/// Pass 3: termination of the instruction graph.
///
/// Iteratively computes strongly connected components and demands each
/// nontrivial SCC contain a progress instruction whose "looping" edge can
/// be discharged:
///
/// * an `Advance` whose slot has no `OpenScan` inside the SCC — its
///   fall-through edge fires at most once per row of a scan that is never
///   re-opened while execution stays inside the SCC, so the edge is removed;
/// * a `JumpIfDeltasNotEmpty` whose SCC contains a `SwapClear` covering all
///   tested relations — the deltas drain in finitely many swaps, so its
///   back-edge is removed.
///
/// If a pass over the remaining cycles discharges nothing, the smallest
/// undischarged cycle is reported as potentially non-terminating.
fn check_termination(program: &VmProgram) -> Result<(), VerifyError> {
    let len = program.instrs.len();
    // Edges as (from, to, is_dischargeable_kind): fall-through edges carry
    // index 0, jump edges index 1 (matching `successors` order).
    let mut removed: Vec<Vec<bool>> = program
        .instrs
        .iter()
        .enumerate()
        .map(|(pc, instr)| vec![false; successors(instr, pc).len()])
        .collect();

    loop {
        let sccs = nontrivial_sccs(program, &removed);
        if sccs.is_empty() {
            return Ok(());
        }
        let mut discharged = false;
        for scc in &sccs {
            let in_scc = |pc: usize| scc.contains(&pc);
            for &pc in scc {
                match &program.instrs[pc] {
                    Instr::Advance { slot, .. } => {
                        let reopened = scc.iter().any(|&other| {
                            matches!(
                                &program.instrs[other],
                                Instr::OpenScan { slot: s, .. } if s == slot
                            )
                        });
                        // The fall-through edge (index 0) consumes a row.
                        if !reopened && in_scc(pc + 1) && !removed[pc][0] {
                            removed[pc][0] = true;
                            discharged = true;
                        }
                    }
                    Instr::JumpIfDeltasNotEmpty { relations, target } => {
                        let drained = scc.iter().any(|&other| {
                            matches!(
                                &program.instrs[other],
                                Instr::SwapClear { relations: cleared }
                                    if relations.iter().all(|r| cleared.contains(r))
                            )
                        });
                        // The back-edge (index 1) fires only while deltas
                        // remain; the in-SCC SwapClear drains them.
                        if drained && in_scc(target.index()) && !removed[pc][1] {
                            removed[pc][1] = true;
                            discharged = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        if !discharged {
            let mut pcs = sccs.into_iter().min_by_key(Vec::len).unwrap_or_default();
            pcs.sort_unstable();
            return Err(VerifyError::NonTerminatingLoop { pcs });
        }
        let _ = len;
    }
}

/// Strongly connected components with more than one node — or one node with
/// a surviving self-edge — of the instruction graph minus discharged edges.
/// Iterative Tarjan (no recursion: programs can be long).
fn nontrivial_sccs(program: &VmProgram, removed: &[Vec<bool>]) -> Vec<Vec<usize>> {
    let len = program.instrs.len();
    let succs: Vec<Vec<usize>> = program
        .instrs
        .iter()
        .enumerate()
        .map(|(pc, instr)| {
            successors(instr, pc)
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| !removed[pc][i])
                .map(|(_, s)| s)
                .collect()
        })
        .collect();

    let mut index = vec![usize::MAX; len];
    let mut lowlink = vec![0usize; len];
    let mut on_stack = vec![false; len];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, next-successor-position).
    for root in 0..len {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succs[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let nontrivial = scc.len() > 1 || succs[scc[0]].iter().any(|&s| s == scc[0]);
                    if nontrivial {
                        sccs.push(scc);
                    }
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_node, compile_query};
    use carac_datalog::parser::parse;
    use carac_datalog::Program;
    use carac_ir::{generate_plan, EvalStrategy};

    fn arities(program: &Program) -> Vec<usize> {
        program.relations().iter().map(|d| d.arity).collect()
    }

    fn verified_plan(source: &str) -> (VmProgram, Vec<usize>) {
        let p = parse(source).unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let vm = compile_node(&plan).unwrap();
        let arities = arities(&p);
        verify_program(&vm, &arities).unwrap_or_else(|err| {
            panic!("compiler output rejected: {err}\n{vm}");
        });
        (vm, arities)
    }

    #[test]
    fn accepts_transitive_closure() {
        verified_plan(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3).",
        );
    }

    #[test]
    fn accepts_cspa_shape_with_repeated_and_constant_terms() {
        verified_plan(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n\
             Same(x) :- VaFlow(x, x).\n\
             Root(y) :- VaFlow(0, y).\n\
             Assign(1, 2).",
        );
    }

    #[test]
    fn accepts_negation_and_constraints() {
        verified_plan(
            "Blocked(x, y) :- Edge(x, y), !Open(x, y).\n\
             Near(x, y) :- Edge(x, y), x < y.\n\
             Open(1, 1). Edge(1, 2).",
        );
    }

    #[test]
    fn accepts_aggregates() {
        verified_plan(
            "Cost(x, y) :- Edge(x, y).\n\
             Best(x, min y) :- Cost(x, y).\n\
             Edge(1, 7). Edge(1, 9).",
        );
    }

    #[test]
    fn accepts_constant_only_rules_and_statically_false_constraints() {
        verified_plan(
            "Seed(1, 2).\n\
             Flag(3) :- Seed(1, 2).\n\
             Never(x) :- Seed(x, y), 1 > 2.\n",
        );
    }

    #[test]
    fn accepts_every_spj_query_individually() {
        let p = parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let arities = arities(&p);
        for (_, query) in plan.spj_queries() {
            let vm = compile_query(query).unwrap();
            verify_program(&vm, &arities).unwrap();
        }
    }

    /// A verified program with a `Distinct` (level 1 of the 3-atom join).
    fn verified_distinct() -> (VmProgram, Vec<usize>, usize) {
        let (vm, arities) = verified_plan(
            "VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).\n\
             MAlias(1, 2).",
        );
        let pc = vm
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Distinct { .. }));
        assert!(pc.is_some(), "no Distinct in\n{vm}");
        (vm, arities, pc.unwrap_or_default())
    }

    #[test]
    fn rejects_distinct_reading_an_unwritten_register() {
        let (mut vm, arities, pc) = verified_distinct();
        let fresh = Reg(vm.num_regs as u16);
        vm.num_regs += 1;
        if let Instr::Distinct { regs, .. } = &mut vm.instrs[pc] {
            regs[0] = fresh;
        }
        assert_eq!(
            verify_program(&vm, &arities),
            Err(VerifyError::UninitializedRead { pc, reg: fresh.0 })
        );
    }

    #[test]
    fn rejects_distinct_out_of_bounds_operands() {
        let (vm, arities, pc) = verified_distinct();
        let mut bad_set = vm.clone();
        if let Instr::Distinct { set, .. } = &mut bad_set.instrs[pc] {
            *set = SeenSet(vm.num_sets as u16);
        }
        assert!(matches!(
            verify_program(&bad_set, &arities),
            Err(VerifyError::SetOutOfBounds { .. })
        ));
        let mut bad_jump = vm.clone();
        if let Instr::Distinct { on_seen, .. } = &mut bad_jump.instrs[pc] {
            *on_seen = Pc(vm.instrs.len() as u32 + 3);
        }
        assert!(matches!(
            verify_program(&bad_jump, &arities),
            Err(VerifyError::JumpOutOfBounds { .. })
        ));
        let mut bad_root = vm;
        if let Instr::Distinct { root, .. } = &mut bad_root.instrs[pc] {
            *root = Slot(2);
        }
        assert_eq!(
            verify_program(&bad_root, &arities),
            Err(VerifyError::CursorNotOpen { pc, slot: 2 })
        );
    }

    #[test]
    fn rejects_retargeted_jump_out_of_bounds() {
        let (mut vm, arities) = verified_plan("Path(x, y) :- Edge(x, y).\nEdge(1, 2).");
        for instr in &mut vm.instrs {
            if let Instr::Jump(target) = instr {
                *target = Pc(10_000);
            }
        }
        // The plain TC first rule has no inner Jump; force one if absent.
        if !vm
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Jump(Pc(10_000))))
        {
            let halt = vm.instrs.len() - 1;
            vm.instrs[halt] = Instr::Jump(Pc(10_000));
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::JumpOutOfBounds { .. })
        ));
    }

    #[test]
    fn rejects_dropped_loads() {
        let (mut vm, arities) = verified_plan(
            "Path(x, y) :- Edge(x, y).\n\
             Edge(1, 2).",
        );
        for instr in &mut vm.instrs {
            if let Instr::Advance { loads, .. } = instr {
                loads.clear();
            }
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::UninitializedRead { .. })
        ));
    }

    #[test]
    fn rejects_swapped_cursor_slots() {
        let (mut vm, arities) = verified_plan(
            "Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Path(x, y) :- Edge(x, y).\n\
             Edge(1, 2).",
        );
        // Advance a slot that is never opened.
        for instr in &mut vm.instrs {
            if let Instr::Advance { slot, .. } = instr {
                *slot = Slot(slot.0 + 1);
            }
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::CursorNotOpen { .. } | VerifyError::SlotOutOfBounds { .. })
        ));
    }

    #[test]
    fn rejects_emit_arity_mismatch() {
        let (mut vm, arities) = verified_plan("Path(x, y) :- Edge(x, y).\nEdge(1, 2).");
        for instr in &mut vm.instrs {
            if let Instr::Emit { columns, .. } = instr {
                columns.pop();
            }
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::EmitArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_filter_column_outside_arity() {
        let (mut vm, arities) = verified_plan(
            "Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Path(x, y) :- Edge(x, y).\n\
             Edge(1, 2).",
        );
        for instr in &mut vm.instrs {
            if let Instr::OpenScan { filters, .. } = instr {
                for (column, _) in filters.iter_mut() {
                    *column += 7;
                }
            }
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::ColumnOutOfArity { .. })
        ));
    }

    #[test]
    fn rejects_unknown_relation() {
        let (vm, arities) = verified_plan("Path(x, y) :- Edge(x, y).\nEdge(1, 2).");
        assert!(matches!(
            verify_program(&vm, &arities[..1]),
            Err(VerifyError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn rejects_dropped_swap_clear() {
        let (mut vm, arities) = verified_plan(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2).",
        );
        // Neutering every SwapClear leaves the fixpoint back-edge with no
        // way to drain the deltas: an infinite loop the verifier must see.
        for instr in &mut vm.instrs {
            if let Instr::SwapClear { relations } = instr {
                relations.clear();
            }
        }
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::NonTerminatingLoop { .. })
        ));
    }

    #[test]
    fn rejects_trivial_infinite_jump() {
        let (mut vm, arities) = verified_plan("Path(x, y) :- Edge(x, y).\nEdge(1, 2).");
        let halt = vm.instrs.len() - 1;
        vm.instrs[halt] = Instr::Jump(Pc(halt as u32));
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::NonTerminatingLoop { .. })
        ));
    }

    #[test]
    fn rejects_halt_removal() {
        let (mut vm, arities) = verified_plan("Path(x, y) :- Edge(x, y).\nEdge(1, 2).");
        let halt = vm.instrs.len() - 1;
        assert!(matches!(vm.instrs[halt], Instr::Halt));
        vm.instrs[halt] = Instr::Mark(crate::instr::Marker {
            kind: crate::instr::MarkKind::IterEnd,
            detail: 0,
        });
        assert!(matches!(
            verify_program(&vm, &arities),
            Err(VerifyError::FallsOffEnd { .. })
        ));
    }
}
