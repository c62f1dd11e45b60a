//! Lowering IR subtrees into VM bytecode.
//!
//! The compiler is intentionally simple and fast: generating a program is a
//! single pass over the (already join-ordered) IR subtree, which is what
//! makes the bytecode backend cheap to invoke at runtime compared with the
//! staged `Quotes` backend (paper Fig. 5 shows the same relationship between
//! the JVM-bytecode and quote backends).

use carac_datalog::{HeadBinding, Term, VarId};
use carac_ir::{ConjunctiveQuery, IRNode, IROp};
use carac_storage::hasher::FxHashMap;

use crate::instr::{EmitSource, FilterSource, Instr, MarkKind, Marker, Pc, Reg, SeenSet, Slot};
use crate::machine::VmError;
use crate::program::VmProgram;

/// Incremental program builder with forward-jump patching.
#[derive(Debug, Default)]
struct Assembler {
    instrs: Vec<Instr>,
    num_regs: usize,
    num_slots: usize,
    num_sets: usize,
    /// Strata numbered in emission order (mirrors the visit-order numbering
    /// the interpreter uses), carried by `StratumBegin` markers.
    next_stratum: u32,
}

impl Assembler {
    fn mark(&mut self, kind: MarkKind, detail: u32) {
        self.instrs.push(Instr::Mark(Marker { kind, detail }));
    }
}

impl Assembler {
    fn here(&self) -> Pc {
        Pc(self.instrs.len() as u32)
    }

    fn push(&mut self, instr: Instr) -> Pc {
        let pc = self.here();
        self.instrs.push(instr);
        pc
    }

    fn reg(&mut self, index: usize) -> Reg {
        self.num_regs = self.num_regs.max(index + 1);
        Reg(index as u16)
    }

    fn slot(&mut self, index: usize) -> Slot {
        self.num_slots = self.num_slots.max(index + 1);
        Slot(index as u16)
    }

    fn set(&mut self, index: usize) -> SeenSet {
        self.num_sets = self.num_sets.max(index + 1);
        SeenSet(index as u16)
    }

    /// Patches the exhaustion/jump target of the instruction at `pc`.
    /// Returns a typed [`VmError::PatchTarget`] when the instruction has no
    /// patchable target — a compiler bug that now degrades into a
    /// compile-time error propagated to the caller instead of aborting the
    /// process.
    fn patch(&mut self, pc: Pc, target: Pc) -> Result<(), VmError> {
        match &mut self.instrs[pc.index()] {
            Instr::Advance { on_exhausted, .. } => *on_exhausted = target,
            Instr::Jump(t) => *t = target,
            Instr::NegCheck { on_found, .. } => *on_found = target,
            Instr::RequireEq { on_mismatch, .. } => *on_mismatch = target,
            Instr::RequireCmp { on_mismatch, .. } => *on_mismatch = target,
            Instr::JumpIfDeltasNotEmpty { target: t, .. } => *t = target,
            other => return Err(VmError::PatchTarget(format!("{other:?}"))),
        }
        Ok(())
    }

    fn finish(mut self) -> VmProgram {
        self.instrs.push(Instr::Halt);
        VmProgram {
            instrs: self.instrs,
            num_regs: self.num_regs,
            num_slots: self.num_slots,
            num_sets: self.num_sets,
        }
    }
}

/// Placeholder target used before patching.
const PENDING: Pc = Pc(u32::MAX);

/// Compiles a whole IR subtree into one VM program.  The subtree may contain
/// any IR operation; the resulting program performs exactly the same storage
/// effects as interpreting the subtree would.  Fails with a typed
/// [`VmError::PatchTarget`] if the lowering tries to patch an instruction
/// without a jump target (a compiler bug).
pub fn compile_node(node: &IRNode) -> Result<VmProgram, VmError> {
    let mut asm = Assembler::default();
    emit_node(node, &mut asm)?;
    let program = asm.finish();
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

/// Compiles a single conjunctive query into a VM program (used by the
/// per-subquery compilation granularity).  Same error contract as
/// [`compile_node`].
pub fn compile_query(query: &ConjunctiveQuery) -> Result<VmProgram, VmError> {
    let mut asm = Assembler::default();
    asm.mark(MarkKind::RuleBegin, query.rule.0);
    emit_query(query, &mut asm)?;
    asm.mark(MarkKind::RuleEnd, query.rule.0);
    let program = asm.finish();
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

fn emit_node(node: &IRNode, asm: &mut Assembler) -> Result<(), VmError> {
    match &node.op {
        IROp::Program { children }
        | IROp::Sequence { children }
        | IROp::UnionAllRules { children, .. }
        | IROp::UnionRule { children, .. } => {
            for child in children {
                emit_node(child, asm)?;
            }
        }
        IROp::Stratum { children, .. } => {
            let stratum = asm.next_stratum;
            asm.next_stratum += 1;
            asm.mark(MarkKind::StratumBegin, stratum);
            for child in children {
                emit_node(child, asm)?;
            }
            asm.mark(MarkKind::StratumEnd, stratum);
        }
        IROp::SwapClear { relations } => {
            asm.push(Instr::SwapClear {
                relations: relations.clone(),
            });
        }
        IROp::DoWhile { relations, body } => {
            // The iter-begin marker sits at the loop head so every taken
            // back-edge re-executes it (one marker pair per fixpoint pass).
            let loop_head = asm.here();
            asm.mark(MarkKind::IterBegin, 0);
            emit_node(body, asm)?;
            asm.mark(MarkKind::IterEnd, 0);
            asm.push(Instr::JumpIfDeltasNotEmpty {
                relations: relations.clone(),
                target: loop_head,
            });
        }
        IROp::Spj { query } => {
            // Markers bracket the query from outside so a statically-false
            // (empty) body still yields a balanced begin/end pair.
            asm.mark(MarkKind::RuleBegin, query.rule.0);
            emit_query(query, asm)?;
            asm.mark(MarkKind::RuleEnd, query.rule.0);
        }
        IROp::Aggregate { spec } => {
            asm.push(Instr::Aggregate {
                input: spec.input,
                output: spec.output,
                aggs: spec.aggs.clone(),
                lattice: spec.lattice,
            });
        }
    }
    Ok(())
}

/// Emits the nested-loop join pipeline for one conjunctive query.
///
/// Register allocation: one register per rule variable, in [`VarId`] order,
/// plus temporaries appended after them for repeated within-atom variables.
/// Join level `i` uses cursor slot `i` and, when the query's projection
/// plan keys it, seen-set `i` (reset whenever slot 0 — the pipeline's
/// outermost cursor — is re-opened).
fn emit_query(query: &ConjunctiveQuery, asm: &mut Assembler) -> Result<(), VmError> {
    // A failed constant-only constraint makes the query statically empty:
    // emit nothing at all.
    if !query
        .constraints
        .iter()
        .all(|c| c.eval_const().unwrap_or(true))
    {
        return Ok(());
    }

    let var_reg: FxHashMap<VarId, Reg> = (0..query.num_vars)
        .map(|i| (VarId(i as u32), asm.reg(i)))
        .collect();
    let mut next_temp = query.num_vars;
    let plan = query.projection_plan();

    // Join level at which each variable is first bound (for placing the
    // comparison-constraint checks at the earliest level that binds all
    // their operands).
    let mut bind_level = vec![usize::MAX; query.num_vars];
    for (i, atom) in query.atoms.iter().enumerate() {
        for (_, v) in atom.variable_columns() {
            bind_level[v.index()] = bind_level[v.index()].min(i);
        }
    }
    let cmp_level = |c: &carac_datalog::Constraint| -> Option<usize> {
        c.variables().map(|v| bind_level[v.index()]).max()
    };

    // Variables bound by atoms processed so far.
    let mut bound = vec![false; query.num_vars];

    // pc of each atom's Advance instruction; the innermost one is the
    // continuation target for Emit / NegCheck failures.
    let mut advance_pcs: Vec<Pc> = Vec::with_capacity(query.atoms.len());
    // Advance instructions whose `on_exhausted` targets are patched at the
    // end: atom 0 exits the query, atom i>0 falls back to atom i-1's
    // Advance.
    let mut first_advance: Option<Pc> = None;

    for (i, atom) in query.atoms.iter().enumerate() {
        // Filters: constants plus variables bound by *previous* atoms.
        let mut filters: Vec<(usize, FilterSource)> = Vec::new();
        let mut loads: Vec<(usize, Reg)> = Vec::new();
        let mut eq_checks: Vec<(Reg, Reg)> = Vec::new();
        let mut seen_here: FxHashMap<VarId, Reg> = FxHashMap::default();

        for (col, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => filters.push((col, FilterSource::Const(*c))),
                Term::Var(v) => {
                    if bound[v.index()] {
                        filters.push((col, FilterSource::Reg(var_reg[v])));
                    } else if let Some(&first_reg) = seen_here.get(v) {
                        // Repeated unbound variable within this atom: load a
                        // temporary and require equality.
                        let temp = asm.reg(next_temp);
                        next_temp += 1;
                        loads.push((col, temp));
                        eq_checks.push((first_reg, temp));
                    } else {
                        let reg = var_reg[v];
                        loads.push((col, reg));
                        seen_here.insert(*v, reg);
                    }
                }
            }
        }

        let slot = asm.slot(i);
        asm.push(Instr::OpenScan {
            slot,
            rel: atom.rel,
            db: atom.db,
            filters,
        });
        let advance_pc = asm.push(Instr::Advance {
            slot,
            loads,
            on_exhausted: PENDING,
        });
        if i == 0 {
            first_advance = Some(advance_pc);
        } else {
            // Exhausting this cursor resumes the enclosing loop.
            let outer = advance_pcs[i - 1];
            asm.patch(advance_pc, outer)?;
        }
        advance_pcs.push(advance_pc);

        // Within-atom equality checks retry this atom's Advance on mismatch.
        for (a, b) in eq_checks {
            asm.push(Instr::RequireEq {
                a,
                b,
                on_mismatch: advance_pc,
            });
        }

        // Comparison constraints fully bound by this atom's loads: a failed
        // check retries this atom's Advance, exactly like a filter.
        for constraint in &query.constraints {
            if cmp_level(constraint) != Some(i) {
                continue;
            }
            let source = |t: &Term| match t {
                Term::Const(c) => FilterSource::Const(*c),
                Term::Var(v) => FilterSource::Reg(var_reg[v]),
            };
            asm.push(Instr::RequireCmp {
                op: constraint.op,
                a: source(&constraint.lhs),
                b: source(&constraint.rhs),
                on_mismatch: advance_pc,
            });
        }

        // A key this pipeline run already expanded retries the Advance.
        if let Some(key) = plan.keys.get(i).and_then(Option::as_ref) {
            let set = asm.set(i);
            let root = asm.slot(0);
            asm.push(Instr::Distinct {
                set,
                root,
                regs: key.iter().map(|v| var_reg[v]).collect(),
                on_seen: advance_pc,
            });
        }

        for (_, v) in atom.variable_columns() {
            bound[v.index()] = true;
        }
    }

    let continue_pc = advance_pcs.last().copied();

    // Negated atoms: all their variables are bound now (validated by the
    // frontend); a matching tuple rejects the candidate binding.
    for negated in &query.negated {
        let filters: Vec<(usize, FilterSource)> = negated
            .terms
            .iter()
            .enumerate()
            .map(|(col, term)| match term {
                Term::Const(c) => (col, FilterSource::Const(*c)),
                Term::Var(v) => (col, FilterSource::Reg(var_reg[v])),
            })
            .collect();
        let target = continue_pc.unwrap_or(PENDING);
        let pc = asm.push(Instr::NegCheck {
            rel: negated.rel,
            db: negated.db,
            filters,
            on_found: target,
        });
        if continue_pc.is_none() {
            // Rule without positive atoms: a violated negation skips the
            // single Emit below; patched after we know the exit pc.
            asm.patch(pc, PENDING)?;
        }
    }

    // Emit the head tuple.
    let columns: Vec<EmitSource> = query
        .head_bindings
        .iter()
        .map(|binding| match binding {
            HeadBinding::Var(v) => EmitSource::Reg(var_reg[v]),
            HeadBinding::Const(c) => EmitSource::Const(*c),
        })
        .collect();
    asm.push(Instr::Emit {
        rel: query.head_rel,
        columns,
    });

    match continue_pc {
        Some(advance) => {
            // Loop back for the next candidate of the innermost atom.
            asm.push(Instr::Jump(advance));
        }
        None => {
            // Constant-only rule: fall through, nothing to loop over.
        }
    }

    // The exit point of this query is whatever instruction comes next.
    let exit = asm.here();
    if let Some(first) = first_advance {
        asm.patch(first, exit)?;
    }
    // Patch any pending NegCheck targets from the no-positive-atom case.
    for pc_index in 0..asm.instrs.len() {
        if let Instr::NegCheck { on_found, .. } = &asm.instrs[pc_index] {
            if *on_found == PENDING {
                asm.patch(Pc(pc_index as u32), exit)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, EvalStrategy};

    #[test]
    fn query_compilation_produces_valid_programs() {
        let p = parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        for (_, query) in plan.spj_queries() {
            let program = compile_query(query).unwrap();
            assert!(program.validate().is_ok());
            // One OpenScan + Advance pair per atom, one Emit, one back Jump,
            // one Halt at minimum.
            assert!(program.len() >= 2 * query.width() + 3);
        }
    }

    #[test]
    fn whole_plan_compilation_has_loop_backedge() {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan).unwrap();
        assert!(program.validate().is_ok());
        let has_backedge = program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::JumpIfDeltasNotEmpty { .. }));
        assert!(has_backedge);
        let swap_clears = program
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::SwapClear { .. }))
            .count();
        assert_eq!(swap_clears, 2); // initial pass + loop body
    }

    #[test]
    fn constants_become_filters_not_loads() {
        let p = parse("Out(x) :- Call(x, 7).\n").unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let (_, query) = plan.spj_queries()[0];
        let program = compile_query(query).unwrap();
        let open = program
            .instrs
            .iter()
            .find_map(|i| match i {
                Instr::OpenScan { filters, .. } => Some(filters.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(open.len(), 1);
        assert!(matches!(open[0], (1, FilterSource::Const(_))));
    }

    #[test]
    fn repeated_variable_in_one_atom_emits_equality_check() {
        let p = parse("Loop(x) :- Edge(x, x).\n").unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let (_, query) = plan.spj_queries()[0];
        let program = compile_query(query).unwrap();
        assert!(program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::RequireEq { .. })));
    }

    /// The rendering of the program below as the compiler produced it before
    /// projection plans existed: no rule of it has a variable that dies
    /// before the last join level.
    const NO_DEAD_VARIABLE_PROGRAM: &str = r"; regs=3 slots=3
   0: mark   stratum-begin 0
   1: mark   rule-begin 0
   2: open   s0 R1/Derived filters=[]
   3: adv    s0 loads=[(0, Reg(0)), (1, Reg(1))] exhausted->6
   4: emit   R0 [Reg(Reg(0)), Reg(Reg(1))]
   5: jmp    3
   6: mark   rule-end 0
   7: mark   rule-begin 1
   8: open   s0 R1/Derived filters=[]
   9: adv    s0 loads=[(0, Reg(0)), (1, Reg(2))] exhausted->14
  10: open   s1 R0/Derived filters=[(0, Reg(Reg(2)))]
  11: adv    s1 loads=[(1, Reg(1))] exhausted->9
  12: emit   R0 [Reg(Reg(0)), Reg(Reg(1))]
  13: jmp    11
  14: mark   rule-end 1
  15: swapcl [R0]
  16: mark   iter-begin 0
  17: mark   rule-begin 1
  18: open   s0 R1/Derived filters=[]
  19: adv    s0 loads=[(0, Reg(0)), (1, Reg(2))] exhausted->24
  20: open   s1 R0/DeltaKnown filters=[(0, Reg(Reg(2)))]
  21: adv    s1 loads=[(1, Reg(1))] exhausted->19
  22: emit   R0 [Reg(Reg(0)), Reg(Reg(1))]
  23: jmp    21
  24: mark   rule-end 1
  25: swapcl [R0]
  26: mark   iter-end 0
  27: loop?  [R0] -> 16
  28: mark   stratum-end 0
  29: mark   stratum-begin 1
  30: mark   rule-begin 2
  31: open   s0 R1/Derived filters=[]
  32: adv    s0 loads=[(0, Reg(0)), (1, Reg(1))] exhausted->39
  33: open   s1 R1/Derived filters=[(0, Reg(Reg(1)))]
  34: adv    s1 loads=[(1, Reg(2))] exhausted->32
  35: open   s2 R1/Derived filters=[(0, Reg(Reg(2))), (1, Reg(Reg(0)))]
  36: adv    s2 loads=[] exhausted->34
  37: emit   R2 [Reg(Reg(0)), Reg(Reg(1)), Reg(Reg(2))]
  38: jmp    36
  39: mark   rule-end 2
  40: swapcl [R2]
  41: mark   stratum-end 1
  42: mark   stratum-begin 2
  43: mark   rule-begin 3
  44: open   s0 R1/Derived filters=[]
  45: adv    s0 loads=[(0, Reg(0)), (1, Reg(1))] exhausted->51
  46: cmp?   Reg(Reg(0)) < Reg(Reg(1)) else->45
  47: open   s1 R0/Derived filters=[(0, Reg(Reg(1))), (1, Reg(Reg(0)))]
  48: adv    s1 loads=[] exhausted->45
  49: emit   R3 [Reg(Reg(0)), Reg(Reg(1))]
  50: jmp    48
  51: mark   rule-end 3
  52: swapcl [R3]
  53: mark   stratum-end 2
  54: mark   stratum-begin 3
  55: mark   rule-begin 4
  56: open   s0 R1/Derived filters=[]
  57: adv    s0 loads=[(0, Reg(0)), (1, Reg(1))] exhausted->61
  58: neg?   R0/Derived filters=[(0, Reg(Reg(1))), (1, Reg(Reg(0)))] found->57
  59: emit   R4 [Reg(Reg(0))]
  60: jmp    57
  61: mark   rule-end 4
  62: swapcl [R4]
  63: mark   stratum-end 3
  64: halt
";

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn queries_without_a_dead_variable_compile_as_before() -> TestResult {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Tri(x, y, z) :- Edge(x, y), Edge(y, z), Edge(z, x).\n\
             Near(x, y) :- Edge(x, y), Path(y, x), x < y.\n\
             Lone(x) :- Edge(x, y), !Path(y, x).\n",
        )?;
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let program = compile_node(&plan)?;
        assert_eq!(program.num_sets, 0);
        assert_eq!(program.to_string(), NO_DEAD_VARIABLE_PROGRAM);
        Ok(())
    }

    #[test]
    fn a_dead_variable_keys_its_level_with_a_distinct() -> TestResult {
        let p = parse("VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).\n")?;
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let (_, query) = plan.spj_queries()[0];
        let program = compile_query(query)?;
        let distinct: Vec<_> = program
            .instrs
            .iter()
            .enumerate()
            .filter_map(|(pc, instr)| match instr {
                Instr::Distinct {
                    set,
                    root,
                    regs,
                    on_seen,
                } => Some((pc, *set, *root, regs.len(), *on_seen)),
                _ => None,
            })
            .collect();
        // Level 1 (after its Advance at pc 4), keyed on (v1, v0), rooted at
        // level 0's cursor, retrying level 1's Advance.
        assert_eq!(
            distinct,
            vec![(5, SeenSet(1), Slot(0), 2, Pc(4))],
            "{program}"
        );
        assert!(matches!(
            program.instrs[4],
            Instr::Advance { slot: Slot(1), .. }
        ));
        assert_eq!(program.num_sets, 2);
        Ok(())
    }

    #[test]
    fn negated_atoms_emit_negcheck() {
        let p = parse(
            "Composite(x) :- Div(x, d).\n\
             Prime(x) :- Num(x), !Composite(x).\n",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let with_negation = plan
            .spj_queries()
            .into_iter()
            .find(|(_, q)| !q.negated.is_empty())
            .unwrap()
            .1;
        let program = compile_query(with_negation).unwrap();
        assert!(program
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::NegCheck { .. })));
    }
}
