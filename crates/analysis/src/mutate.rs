//! Seeded mutation operators over compiled artifacts — the adversary the
//! artifact verifiers are proved against.
//!
//! [`mutate_vm`] perturbs a valid bytecode program and [`mutate_plan`] a
//! valid IR plan, deterministically from a seed.  Each mutation carries an
//! [`Expectation`]:
//!
//! * [`Expectation::MustReject`] — the operator broke an invariant the
//!   verifier guarantees (a dangling jump, an unbound register read, a
//!   schema mismatch, an undischargeable loop, a stratification violation).
//!   The mutation-fuzz suite asserts the verifier rejects **every** such
//!   mutant: one acceptance is a soundness hole.
//! * [`Expectation::MayAccept`] — the operator is semantics-preserving by
//!   construction (telemetry payloads, join-order permutation, removing a
//!   load of a register nothing reads).  The suite asserts that when the
//!   verifier accepts such a mutant, executing it derives a fact set
//!   bit-identical to the original — acceptance must never change results.
//!
//! The split is what makes the harness a *proof* rather than a statistics
//! game: there is no "probably breaking" middle ground whose rejection rate
//! could silently drift.

use carac_datalog::{HeadBinding, Term, VarId};
use carac_ir::{IRNode, IROp};
use carac_storage::{DbKind, RelId};
use carac_vm::{Instr, Pc, Reg, Slot, VmProgram};

use crate::rng::SmallRng;

/// What the verifier is required to do with a mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The mutation broke a verified invariant: the verifier must reject.
    MustReject,
    /// The mutation is semantics-preserving: the verifier may accept, and
    /// if it does the mutant must derive exactly the original fact set.
    MayAccept,
}

/// One applied mutation: which operator fired, where, and what the
/// verifier is required to do about it.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Stable operator name (for dumps and per-operator tallies).
    pub kind: &'static str,
    /// Human-readable description of the exact perturbation.
    pub description: String,
    /// The verifier's obligation.
    pub expectation: Expectation,
}

impl Mutation {
    fn must(kind: &'static str, description: String) -> Mutation {
        Mutation {
            kind,
            description,
            expectation: Expectation::MustReject,
        }
    }

    fn benign(kind: &'static str, description: String) -> Mutation {
        Mutation {
            kind,
            description,
            expectation: Expectation::MayAccept,
        }
    }
}

/// Every register a VM program reads (filters, comparisons, projection
/// keys, emits).
fn read_regs(program: &VmProgram) -> Vec<bool> {
    let mut read = vec![false; program.num_regs];
    let mut mark = |reg: Reg| {
        if (reg.0 as usize) < read.len() {
            read[reg.0 as usize] = true;
        }
    };
    for instr in &program.instrs {
        match instr {
            Instr::OpenScan { filters, .. } | Instr::NegCheck { filters, .. } => {
                for &(_, source) in filters {
                    if let carac_vm::FilterSource::Reg(reg) = source {
                        mark(reg);
                    }
                }
            }
            Instr::RequireEq { a, b, .. } => {
                mark(*a);
                mark(*b);
            }
            Instr::RequireCmp { a, b, .. } => {
                for source in [a, b] {
                    if let carac_vm::FilterSource::Reg(reg) = source {
                        mark(*reg);
                    }
                }
            }
            Instr::Distinct { regs, .. } => {
                for &reg in regs {
                    mark(reg);
                }
            }
            Instr::Emit { columns, .. } => {
                for column in columns {
                    if let carac_vm::EmitSource::Reg(reg) = column {
                        mark(*reg);
                    }
                }
            }
            _ => {}
        }
    }
    read
}

/// How many times each register is the target of an `Advance` load.
fn load_counts(program: &VmProgram) -> Vec<usize> {
    let mut counts = vec![0usize; program.num_regs];
    for instr in &program.instrs {
        if let Instr::Advance { loads, .. } = instr {
            for &(_, reg) in loads {
                if (reg.0 as usize) < counts.len() {
                    counts[reg.0 as usize] += 1;
                }
            }
        }
    }
    counts
}

/// Applies one seeded mutation to a bytecode program.
///
/// Returns `None` when the program offers no applicable mutation site
/// (practically: only for degenerate programs with no instructions).
/// `arities` is the same schema slice the verifier receives — unknown-
/// relation mutations point one past its end.
pub fn mutate_vm(
    program: &VmProgram,
    arities: &[usize],
    seed: u64,
) -> Option<(VmProgram, Mutation)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_bc0d_e000_0001);
    if program.instrs.is_empty() {
        return None;
    }

    // Collect every applicable (operator, site) pair, then pick uniformly.
    // Closures mutate a fresh clone so operators stay independent.
    type Op = (usize, &'static str);
    let mut sites: Vec<Op> = Vec::new();
    let has_loop = program
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::JumpIfDeltasNotEmpty { .. }));
    let reads = read_regs(program);
    let loads = load_counts(program);
    for (pc, instr) in program.instrs.iter().enumerate() {
        match instr {
            Instr::Jump(_)
            | Instr::JumpIfDeltasNotEmpty { .. }
            | Instr::Advance { .. }
            | Instr::RequireEq { .. }
            | Instr::RequireCmp { .. }
            | Instr::Distinct { .. }
            | Instr::NegCheck { .. } => sites.push((pc, "vm-retarget-jump-oob")),
            _ => {}
        }
        match instr {
            Instr::Advance { slot, loads: l, .. } => {
                sites.push((pc, "vm-slot-oob"));
                if !l.is_empty() {
                    sites.push((pc, "vm-load-reg-oob"));
                    // Dropping a load is only decidable when the register is
                    // written nowhere else: then a surviving read must be
                    // rejected, and an unread register makes it a no-op.
                    if l.iter().any(|&(_, reg)| loads[reg.0 as usize] == 1) {
                        sites.push((pc, "vm-drop-load"));
                    }
                }
                // Redirecting the only OpenScan of this slot elsewhere
                // leaves this Advance on a never-opened cursor.
                let opened_here = program
                    .instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::OpenScan { slot: s, .. } if s == slot));
                if program.num_slots >= 2 && opened_here.count() == 1 {
                    sites.push((pc, "vm-redirect-open"));
                }
            }
            Instr::OpenScan { filters, .. } if !filters.is_empty() => {
                sites.push((pc, "vm-filter-column-oob"));
            }
            Instr::Distinct { .. } => sites.push((pc, "vm-distinct-undefined-reg")),
            Instr::Emit { columns, .. } => {
                sites.push((pc, "vm-emit-unknown-rel"));
                if !columns.is_empty() {
                    sites.push((pc, "vm-emit-arity"));
                }
            }
            Instr::SwapClear { relations } if has_loop && !relations.is_empty() => {
                sites.push((pc, "vm-drop-swapclear"));
            }
            Instr::Halt => sites.push((pc, "vm-jump-to-self")),
            Instr::Mark(_) => sites.push((pc, "vm-mark-detail")),
            _ => {}
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (pc, kind) = sites[rng.gen_range_usize(0, sites.len())];

    let mut mutant = program.clone();
    let oob = Pc((program.instrs.len() + 17) as u32);
    let mutation = match kind {
        "vm-retarget-jump-oob" => {
            match &mut mutant.instrs[pc] {
                Instr::Jump(target)
                | Instr::JumpIfDeltasNotEmpty { target, .. }
                | Instr::Advance {
                    on_exhausted: target,
                    ..
                }
                | Instr::RequireEq {
                    on_mismatch: target,
                    ..
                }
                | Instr::RequireCmp {
                    on_mismatch: target,
                    ..
                }
                | Instr::Distinct {
                    on_seen: target, ..
                }
                | Instr::NegCheck {
                    on_found: target, ..
                } => *target = oob,
                _ => unreachable!("site collection picked a jump-bearing instruction"),
            }
            Mutation::must(kind, format!("pc {pc}: jump target -> {} (oob)", oob.0))
        }
        "vm-slot-oob" => {
            if let Instr::Advance { slot, .. } = &mut mutant.instrs[pc] {
                *slot = Slot(mutant.num_slots as u16);
            }
            Mutation::must(
                kind,
                format!("pc {pc}: advance slot -> s{}", mutant.num_slots),
            )
        }
        "vm-load-reg-oob" => {
            if let Instr::Advance { loads, .. } = &mut mutant.instrs[pc] {
                let i = rng.gen_range_usize(0, loads.len());
                loads[i].1 = Reg(mutant.num_regs as u16);
            }
            Mutation::must(
                kind,
                format!("pc {pc}: load register -> r{}", mutant.num_regs),
            )
        }
        "vm-drop-load" => {
            let mut dropped = Reg(0);
            if let Instr::Advance { loads, .. } = &mut mutant.instrs[pc] {
                let candidates: Vec<usize> = loads
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(_, reg))| load_counts(program)[reg.0 as usize] == 1)
                    .map(|(i, _)| i)
                    .collect();
                let i = candidates[rng.gen_range_usize(0, candidates.len())];
                dropped = loads.remove(i).1;
            }
            let is_read = reads[dropped.0 as usize];
            let mutation = if is_read {
                Mutation::must(
                    kind,
                    format!("pc {pc}: dropped sole load of read r{}", dropped.0),
                )
            } else {
                Mutation::benign(
                    kind,
                    format!("pc {pc}: dropped load of unread r{}", dropped.0),
                )
            };
            mutation
        }
        "vm-redirect-open" => {
            let victim = match &program.instrs[pc] {
                Instr::Advance { slot, .. } => *slot,
                _ => unreachable!(),
            };
            let other = Slot(((victim.0 as usize + 1) % program.num_slots) as u16);
            for instr in &mut mutant.instrs {
                if let Instr::OpenScan { slot, .. } = instr {
                    if *slot == victim {
                        *slot = other;
                    }
                }
            }
            Mutation::must(
                kind,
                format!(
                    "redirected OpenScan s{} -> s{}; advance at pc {pc} orphaned",
                    victim.0, other.0
                ),
            )
        }
        "vm-distinct-undefined-reg" => {
            // A fresh register: in bounds, written by no instruction.
            let fresh = Reg(mutant.num_regs as u16);
            mutant.num_regs += 1;
            if let Instr::Distinct { regs, .. } = &mut mutant.instrs[pc] {
                match regs.first_mut() {
                    Some(first) => *first = fresh,
                    None => regs.push(fresh),
                }
            }
            Mutation::must(
                kind,
                format!("pc {pc}: distinct key reads never-written r{}", fresh.0),
            )
        }
        "vm-filter-column-oob" => {
            if let Instr::OpenScan { rel, filters, .. } = &mut mutant.instrs[pc] {
                let arity = arities.get(rel.index()).copied().unwrap_or(0);
                let i = rng.gen_range_usize(0, filters.len());
                filters[i].0 = arity + 3;
            }
            Mutation::must(kind, format!("pc {pc}: filter column pushed past arity"))
        }
        "vm-emit-unknown-rel" => {
            if let Instr::Emit { rel, .. } = &mut mutant.instrs[pc] {
                *rel = RelId(arities.len() as u32);
            }
            Mutation::must(
                kind,
                format!("pc {pc}: emit relation -> R{} (no schema)", arities.len()),
            )
        }
        "vm-emit-arity" => {
            if let Instr::Emit { columns, .. } = &mut mutant.instrs[pc] {
                columns.pop();
            }
            Mutation::must(kind, format!("pc {pc}: emit row narrowed by one column"))
        }
        "vm-drop-swapclear" => {
            // Neuter every SwapClear: the fixpoint back-edges lose their
            // delta-drain and the loop becomes undischargeable.
            for instr in &mut mutant.instrs {
                if let Instr::SwapClear { relations } = instr {
                    relations.clear();
                }
            }
            Mutation::must(kind, "all SwapClear relation lists emptied".to_string())
        }
        "vm-jump-to-self" => {
            mutant.instrs[pc] = Instr::Jump(Pc(pc as u32));
            Mutation::must(kind, format!("pc {pc}: halt -> jump to self"))
        }
        "vm-mark-detail" => {
            if let Instr::Mark(marker) = &mut mutant.instrs[pc] {
                marker.detail = marker.detail.wrapping_add(1);
            }
            Mutation::benign(kind, format!("pc {pc}: telemetry mark payload bumped"))
        }
        _ => unreachable!("unknown operator {kind}"),
    };
    Some((mutant, mutation))
}

/// Every `(stratum index, relations)` pair under the plan's `Program` root.
fn strata_of(plan: &IRNode) -> Vec<(usize, Vec<RelId>)> {
    match &plan.op {
        IROp::Program { children } => children
            .iter()
            .enumerate()
            .filter_map(|(i, child)| match &child.op {
                IROp::Stratum { relations, .. } => Some((i, relations.clone())),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Applies one seeded mutation to an IR plan.
///
/// Returns `None` when the plan offers no applicable mutation site.
pub fn mutate_plan(plan: &IRNode, seed: u64) -> Option<(IRNode, Mutation)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_91a7_0000_0002);

    // Enumerate sites over the immutable plan, then re-walk the clone.
    let mut ops: Vec<&'static str> = Vec::new();
    let strata = strata_of(plan);
    if strata.len() >= 2 {
        ops.push("plan-swap-strata");
        ops.push("plan-migrate-head");
    }
    let mut spj_count = 0usize;
    let mut derived_atoms = 0usize;
    let mut wide_spjs = 0usize;
    let mut dowhile_count = 0usize;
    plan.visit(&mut |node| match &node.op {
        IROp::Spj { query } => {
            spj_count += 1;
            derived_atoms += query
                .atoms
                .iter()
                .filter(|a| a.db == DbKind::Derived)
                .count();
            if query.atoms.len() >= 2 {
                wide_spjs += 1;
            }
        }
        IROp::DoWhile { .. } => dowhile_count += 1,
        _ => {}
    });
    if spj_count > 0 {
        ops.push("plan-atom-arity");
        ops.push("plan-unbound-head");
    }
    if derived_atoms > 0 {
        ops.push("plan-delta-new-read");
    }
    if wide_spjs > 0 {
        ops.push("plan-reverse-atoms");
    }
    if dowhile_count > 0 {
        ops.push("plan-drop-dowhile-swapclear");
    }
    if ops.is_empty() {
        return None;
    }
    let kind = ops[rng.gen_range_usize(0, ops.len())];

    let mut mutant = plan.clone();
    let mutation = match kind {
        "plan-swap-strata" => {
            let i = rng.gen_range_usize(0, strata.len() - 1);
            let (a, _) = strata[i];
            let (b, _) = strata[i + 1];
            if let IROp::Program { children } = &mut mutant.op {
                children.swap(a, b);
            }
            Mutation::must(
                kind,
                format!("strata {a} and {b} swapped against the stratification"),
            )
        }
        "plan-migrate-head" => {
            // Point a subquery of stratum `a` at a head relation owned by
            // stratum `b`: a cross-stratum write the stratification forbids.
            let (_, from) = &strata[0];
            let (_, to) = &strata[strata.len() - 1];
            let foreign = to[0];
            let mut done = false;
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if done {
                    return;
                }
                if let IROp::Spj { query } = &mut node.op {
                    if from.contains(&query.head_rel) {
                        at = format!(
                            "rule {} head {:?} -> {:?}",
                            query.rule.0, query.head_rel, foreign
                        );
                        query.head_rel = foreign;
                        done = true;
                    }
                }
            });
            if !done {
                return None;
            }
            Mutation::must(kind, at)
        }
        "plan-atom-arity" => {
            let target = rng.gen_range_usize(0, spj_count);
            let mut seen = 0usize;
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if let IROp::Spj { query } = &mut node.op {
                    if seen == target {
                        if let Some(atom) = query.atoms.first_mut() {
                            atom.terms.push(Term::Var(VarId(0)));
                            at = format!(
                                "rule {}: first atom widened to {} terms",
                                query.rule.0,
                                atom.terms.len()
                            );
                        }
                    }
                    seen += 1;
                }
            });
            if at.is_empty() {
                return None;
            }
            Mutation::must(kind, at)
        }
        "plan-unbound-head" => {
            let target = rng.gen_range_usize(0, spj_count);
            let mut seen = 0usize;
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if let IROp::Spj { query } = &mut node.op {
                    if seen == target && !query.head_bindings.is_empty() {
                        let fresh = VarId(query.num_vars as u32);
                        query.num_vars += 1;
                        query.head_bindings[0] = HeadBinding::Var(fresh);
                        at = format!(
                            "rule {}: head column 0 -> unbound v{}",
                            query.rule.0, fresh.0
                        );
                    }
                    seen += 1;
                }
            });
            if at.is_empty() {
                return None;
            }
            Mutation::must(kind, at)
        }
        "plan-delta-new-read" => {
            let target = rng.gen_range_usize(0, derived_atoms);
            let mut seen = 0usize;
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if let IROp::Spj { query } = &mut node.op {
                    for atom in &mut query.atoms {
                        if atom.db == DbKind::Derived {
                            if seen == target {
                                atom.db = DbKind::DeltaNew;
                                at = format!(
                                    "rule {}: atom {:?} reads delta-new",
                                    query.rule.0, atom.rel
                                );
                            }
                            seen += 1;
                        }
                    }
                }
            });
            if at.is_empty() {
                return None;
            }
            Mutation::must(kind, at)
        }
        "plan-reverse-atoms" => {
            // Join-order permutation: exactly what the adaptive optimizer
            // does at runtime, so the verifier must accept it and the
            // results must not move.
            let target = rng.gen_range_usize(0, wide_spjs);
            let mut seen = 0usize;
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if let IROp::Spj { query } = &mut node.op {
                    if query.atoms.len() >= 2 {
                        if seen == target {
                            query.atoms.reverse();
                            at = format!(
                                "rule {}: {} atoms reversed",
                                query.rule.0,
                                query.atoms.len()
                            );
                        }
                        seen += 1;
                    }
                }
            });
            if at.is_empty() {
                return None;
            }
            Mutation::benign(kind, at)
        }
        "plan-drop-dowhile-swapclear" => {
            let mut at = String::new();
            mutant.visit_mut(&mut |node| {
                if let IROp::DoWhile { body, .. } = &mut node.op {
                    body.visit_mut(&mut |inner| {
                        if let IROp::SwapClear { relations } = &mut inner.op {
                            if !relations.is_empty() {
                                at = format!("loop swap-clear of {relations:?} emptied");
                                relations.clear();
                            }
                        }
                    });
                }
            });
            if at.is_empty() {
                return None;
            }
            Mutation::must(kind, at)
        }
        _ => unreachable!("unknown operator {kind}"),
    };
    Some((mutant, mutation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, verify_plan, EvalStrategy};
    use carac_vm::{compile_node, verify_program};

    fn tc() -> (carac_datalog::Program, IRNode, VmProgram, Vec<usize>) {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Reach(y) :- Path(1, y).\n\
             Edge(1, 2). Edge(2, 3).",
        )
        .unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        let vm = compile_node(&plan).unwrap();
        let arities = p.relations().iter().map(|d| d.arity).collect();
        (p, plan, vm, arities)
    }

    #[test]
    fn vm_mutations_are_deterministic() {
        let (_, _, vm, arities) = tc();
        let (a, ma) = mutate_vm(&vm, &arities, 7).unwrap();
        let (b, mb) = mutate_vm(&vm, &arities, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(ma.kind, mb.kind);
        let (c, _) = mutate_vm(&vm, &arities, 8).unwrap();
        // Different seeds usually pick different sites; at minimum the
        // mutant stays a real perturbation of the input.
        assert!(c != vm || a != vm);
    }

    #[test]
    fn must_reject_vm_mutants_are_rejected_across_seeds() {
        let (_, _, vm, arities) = tc();
        let mut rejected = 0;
        for seed in 0..64 {
            let (mutant, mutation) = mutate_vm(&vm, &arities, seed).unwrap();
            match mutation.expectation {
                Expectation::MustReject => {
                    verify_program(&mutant, &arities).expect_err(&format!(
                        "{} accepted: {}",
                        mutation.kind, mutation.description
                    ));
                    rejected += 1;
                }
                Expectation::MayAccept => {}
            }
        }
        assert!(rejected > 32, "only {rejected}/64 mutants were breaking");
    }

    #[test]
    fn must_reject_plan_mutants_are_rejected_across_seeds() {
        let (p, plan, _, _) = tc();
        verify_plan(&plan, &p).unwrap();
        let mut rejected = 0;
        for seed in 0..64 {
            let Some((mutant, mutation)) = mutate_plan(&plan, seed) else {
                continue;
            };
            match mutation.expectation {
                Expectation::MustReject => {
                    verify_plan(&mutant, &p).expect_err(&format!(
                        "{} accepted: {}",
                        mutation.kind, mutation.description
                    ));
                    rejected += 1;
                }
                Expectation::MayAccept => {
                    // Join-order permutations must verify clean.
                    verify_plan(&mutant, &p).unwrap();
                }
            }
        }
        assert!(
            rejected > 16,
            "only {rejected}/64 plan mutants were breaking"
        );
    }
}
