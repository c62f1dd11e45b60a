//! Container for generated VM programs.

use std::fmt;

use crate::instr::{Instr, Pc};

/// A generated bytecode program: a flat instruction vector plus the register
/// and cursor-slot counts the machine must allocate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VmProgram {
    /// Instructions, executed starting at pc 0.
    pub instrs: Vec<Instr>,
    /// Number of value registers used.
    pub num_regs: usize,
    /// Number of cursor slots used.
    pub num_slots: usize,
    /// Number of seen-sets used by `Distinct` instructions.
    pub num_sets: usize,
}

impl VmProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Validates the internal consistency of the program: every jump target
    /// is in bounds and every referenced register/slot is within the declared
    /// counts.  The machine also checks bounds while executing; this is a
    /// cheaper way for tests and the compiler to catch bugs early.
    pub fn validate(&self) -> Result<(), String> {
        let check_pc = |pc: Pc, what: &str| {
            if pc.index() >= self.instrs.len() {
                Err(format!("{what} target {} out of bounds", pc.0))
            } else {
                Ok(())
            }
        };
        for (i, instr) in self.instrs.iter().enumerate() {
            match instr {
                Instr::Advance {
                    slot,
                    loads,
                    on_exhausted,
                } => {
                    check_pc(*on_exhausted, &format!("instr {i}: advance"))?;
                    if slot.0 as usize >= self.num_slots {
                        return Err(format!("instr {i}: slot {} out of bounds", slot.0));
                    }
                    for (_, reg) in loads {
                        if reg.0 as usize >= self.num_regs {
                            return Err(format!("instr {i}: register {} out of bounds", reg.0));
                        }
                    }
                }
                Instr::OpenScan { slot, .. } => {
                    if slot.0 as usize >= self.num_slots {
                        return Err(format!("instr {i}: slot {} out of bounds", slot.0));
                    }
                }
                Instr::RequireEq { a, b, on_mismatch } => {
                    check_pc(*on_mismatch, &format!("instr {i}: require-eq"))?;
                    if a.0 as usize >= self.num_regs || b.0 as usize >= self.num_regs {
                        return Err(format!("instr {i}: register out of bounds"));
                    }
                }
                Instr::NegCheck { on_found, .. } => {
                    check_pc(*on_found, &format!("instr {i}: neg-check"))?;
                }
                Instr::RequireCmp {
                    a, b, on_mismatch, ..
                } => {
                    check_pc(*on_mismatch, &format!("instr {i}: require-cmp"))?;
                    for source in [a, b] {
                        if let crate::instr::FilterSource::Reg(reg) = source {
                            if reg.0 as usize >= self.num_regs {
                                return Err(format!("instr {i}: register {} out of bounds", reg.0));
                            }
                        }
                    }
                }
                Instr::Distinct {
                    set,
                    root,
                    regs,
                    on_seen,
                } => {
                    check_pc(*on_seen, &format!("instr {i}: distinct"))?;
                    if set.0 as usize >= self.num_sets {
                        return Err(format!("instr {i}: seen-set {} out of bounds", set.0));
                    }
                    if root.0 as usize >= self.num_slots {
                        return Err(format!("instr {i}: slot {} out of bounds", root.0));
                    }
                    if let Some(reg) = regs.iter().find(|r| r.0 as usize >= self.num_regs) {
                        return Err(format!("instr {i}: register {} out of bounds", reg.0));
                    }
                }
                Instr::Jump(pc) => check_pc(*pc, &format!("instr {i}: jump"))?,
                Instr::JumpIfDeltasNotEmpty { target, .. } => {
                    check_pc(*target, &format!("instr {i}: loop"))?;
                }
                Instr::Emit { .. }
                | Instr::SwapClear { .. }
                | Instr::Aggregate { .. }
                | Instr::Mark(..)
                | Instr::Halt => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for VmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "; regs={} slots={}", self.num_regs, self.num_slots)?;
        if self.num_sets > 0 {
            write!(f, " sets={}", self.num_sets)?;
        }
        writeln!(f)?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}: {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Reg, Slot};
    use carac_storage::{DbKind, RelId};

    #[test]
    fn validate_catches_bad_jump() {
        let program = VmProgram {
            instrs: vec![Instr::Jump(Pc(10))],
            num_regs: 0,
            num_slots: 0,
            num_sets: 0,
        };
        assert!(program.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_register() {
        let program = VmProgram {
            instrs: vec![
                Instr::OpenScan {
                    slot: Slot(0),
                    rel: RelId(0),
                    db: DbKind::Derived,
                    filters: vec![],
                },
                Instr::Advance {
                    slot: Slot(0),
                    loads: vec![(0, Reg(3))],
                    on_exhausted: Pc(2),
                },
                Instr::Halt,
            ],
            num_regs: 1,
            num_slots: 1,
            num_sets: 0,
        };
        assert!(program.validate().is_err());
    }

    #[test]
    fn validate_accepts_well_formed_program() {
        let program = VmProgram {
            instrs: vec![Instr::Halt],
            num_regs: 0,
            num_slots: 0,
            num_sets: 0,
        };
        assert!(program.validate().is_ok());
        assert_eq!(program.len(), 1);
        assert!(!program.is_empty());
    }

    #[test]
    fn display_shows_addresses() {
        let program = VmProgram {
            instrs: vec![Instr::Halt],
            num_regs: 2,
            num_slots: 1,
            num_sets: 0,
        };
        let text = program.to_string();
        assert!(text.contains("regs=2"));
        assert!(text.contains("   0: halt"));
    }
}
