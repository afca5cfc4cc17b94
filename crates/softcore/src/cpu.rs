//! The sc32 processor simulator: single-issue, in-order, cycle-accounted
//! per [`CpuCostModel`].

use crate::cost::CpuCostModel;
use crate::error::CpuError;
use crate::isa::Instr;
use crate::mem::DataMemory;

/// Execution statistics of one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Data loads performed.
    pub loads: u64,
    /// Data stores performed.
    pub stores: u64,
    /// Taken control transfers.
    pub taken_branches: u64,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.cycles as f64 / self.retired as f64
        }
    }
}

/// The simulated processor.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    program: Vec<Instr>,
    mem: DataMemory,
    cost: CpuCostModel,
    stats: RunStats,
    halted: bool,
}

impl Cpu {
    /// Creates a processor with a program, data memory and cost model.
    pub fn new(program: Vec<Instr>, mem: DataMemory, cost: CpuCostModel) -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: 0,
            program,
            mem,
            cost,
            stats: RunStats::default(),
            halted: false,
        }
    }

    /// Reads a register (`r0` is always zero).
    pub fn reg(&self, index: u8) -> u32 {
        if index == 0 {
            0
        } else {
            self.regs[usize::from(index)]
        }
    }

    fn write_reg(&mut self, index: u8, value: u32) {
        if index != 0 {
            self.regs[usize::from(index)] = value;
        }
    }

    /// The data memory (for result inspection).
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// Whether the program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Executes one instruction. Returns `false` once halted.
    ///
    /// # Errors
    ///
    /// [`CpuError`] on fetch/decode/memory faults.
    #[allow(clippy::too_many_lines, clippy::cast_sign_loss)]
    pub fn step(&mut self) -> Result<bool, CpuError> {
        if self.halted {
            return Ok(false);
        }
        let instr = *self
            .program
            .get(self.pc as usize)
            .ok_or(CpuError::PcOutOfRange { pc: self.pc })?;
        let mut next_pc = self.pc + 1;
        let mut taken = false;

        let sext = i64::from;
        match instr {
            Instr::Add(d, a, b) => {
                let v = self.reg(a).wrapping_add(self.reg(b));
                self.write_reg(d, v);
            }
            Instr::Sub(d, a, b) => {
                let v = self.reg(a).wrapping_sub(self.reg(b));
                self.write_reg(d, v);
            }
            Instr::Mul(d, a, b) => {
                let v = self.reg(a).wrapping_mul(self.reg(b));
                self.write_reg(d, v);
            }
            Instr::And(d, a, b) => self.write_reg(d, self.reg(a) & self.reg(b)),
            Instr::Or(d, a, b) => self.write_reg(d, self.reg(a) | self.reg(b)),
            Instr::Xor(d, a, b) => self.write_reg(d, self.reg(a) ^ self.reg(b)),
            Instr::Addi(d, a, imm) => {
                let v = self.reg(a).wrapping_add(imm as u32);
                self.write_reg(d, v);
            }
            Instr::Andi(d, a, imm) => self.write_reg(d, self.reg(a) & u32::from(imm)),
            Instr::Ori(d, a, imm) => self.write_reg(d, self.reg(a) | u32::from(imm)),
            Instr::Lui(d, imm) => self.write_reg(d, u32::from(imm) << 16),
            Instr::Slli(d, a, sh) => self.write_reg(d, self.reg(a) << sh),
            Instr::Srli(d, a, sh) => self.write_reg(d, self.reg(a) >> sh),
            Instr::Srai(d, a, sh) => {
                #[allow(clippy::cast_possible_wrap)]
                let v = (self.reg(a) as i32) >> sh;
                self.write_reg(d, v as u32);
            }
            Instr::Lw(d, a, off) => {
                let addr = self.reg(a).wrapping_add(off as u32);
                let v = self.mem.lw(addr)?;
                self.write_reg(d, v);
                self.stats.loads += 1;
            }
            Instr::Lhu(d, a, off) => {
                let addr = self.reg(a).wrapping_add(off as u32);
                let v = self.mem.lhu(addr)?;
                self.write_reg(d, u32::from(v));
                self.stats.loads += 1;
            }
            Instr::Sw(d, a, off) => {
                let addr = self.reg(a).wrapping_add(off as u32);
                self.mem.sw(addr, self.reg(d))?;
                self.stats.stores += 1;
            }
            Instr::Sh(d, a, off) => {
                let addr = self.reg(a).wrapping_add(off as u32);
                #[allow(clippy::cast_possible_truncation)]
                self.mem.sh(addr, self.reg(d) as u16)?;
                self.stats.stores += 1;
            }
            Instr::Beq(a, b, disp) => {
                taken = self.reg(a) == self.reg(b);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::Bne(a, b, disp) => {
                taken = self.reg(a) != self.reg(b);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::Blt(a, b, disp) => {
                taken = sext(self.reg(a) as i32) < sext(self.reg(b) as i32);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::Bge(a, b, disp) => {
                taken = sext(self.reg(a) as i32) >= sext(self.reg(b) as i32);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::Ble(a, b, disp) => {
                taken = sext(self.reg(a) as i32) <= sext(self.reg(b) as i32);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::Bgt(a, b, disp) => {
                taken = sext(self.reg(a) as i32) > sext(self.reg(b) as i32);
                if taken {
                    next_pc = branch_target(self.pc, disp);
                }
            }
            Instr::J(target) => {
                taken = true;
                next_pc = u32::from(target);
            }
            Instr::Jal(d, target) => {
                taken = true;
                self.write_reg(d, self.pc + 1);
                next_pc = u32::from(target);
            }
            Instr::Jr(a) => {
                taken = true;
                next_pc = self.reg(a);
            }
            Instr::Halt => {
                self.halted = true;
            }
        }

        self.stats.retired += 1;
        self.stats.cycles += self.cost.cycles_for(&instr, taken);
        if taken {
            self.stats.taken_branches += 1;
        }
        self.pc = next_pc;
        Ok(!self.halted)
    }

    /// Runs until `halt` or the instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Any [`CpuError`]; [`CpuError::InstructionLimit`] for runaways.
    pub fn run(&mut self, max_instrs: u64) -> Result<RunStats, CpuError> {
        let start = self.stats.retired;
        while self.step()? {
            if self.stats.retired - start >= max_instrs {
                return Err(CpuError::InstructionLimit {
                    executed: self.stats.retired - start,
                });
            }
        }
        Ok(self.stats)
    }
}

#[allow(clippy::cast_sign_loss)]
fn branch_target(pc: u32, disp: i16) -> u32 {
    pc.wrapping_add(1).wrapping_add(disp as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str) -> Cpu {
        let program = assemble(src).unwrap();
        let mut cpu = Cpu::new(program.instrs().to_vec(), DataMemory::new(4096), CpuCostModel::default());
        cpu.run(100_000).unwrap();
        cpu
    }

    #[test]
    fn arithmetic_loop_sums() {
        let cpu = run_program(
            "
            li   r1, 10
            li   r2, 0
        loop:
            add  r2, r2, r1
            addi r1, r1, -1
            bgt  r1, r0, loop
            halt
            ",
        );
        assert_eq!(cpu.reg(2), 55);
        assert!(cpu.is_halted());
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let cpu = run_program("addi r0, r0, 42\n halt");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn memory_roundtrip_through_program() {
        let cpu = run_program(
            "
            li  r1, 0x100
            li  r2, 0xBEEF
            sh  r2, r1, 0
            lhu r3, r1, 0
            halt
            ",
        );
        assert_eq!(cpu.reg(3), 0xBEEF);
    }

    #[test]
    fn signed_comparisons() {
        let cpu = run_program(
            "
            li   r1, 5
            addi r2, r0, -3     ; r2 = -3
            li   r10, 0
            blt  r2, r1, neg_less
            j    end
        neg_less:
            li   r10, 1
        end:
            halt
            ",
        );
        assert_eq!(cpu.reg(10), 1, "-3 < 5 signed");
    }

    #[test]
    fn mul_and_shift() {
        let cpu = run_program(
            "
            li   r1, 1000
            li   r2, 3000
            mul  r3, r1, r2      ; 3_000_000
            srli r4, r3, 15
            halt
            ",
        );
        assert_eq!(cpu.reg(3), 3_000_000);
        assert_eq!(cpu.reg(4), 3_000_000 >> 15);
    }

    #[test]
    fn cycle_accounting_follows_cost_model() {
        let program = assemble("add r1, r0, r0\n lhu r2, r0, 0\n halt").unwrap();
        let mut cpu = Cpu::new(
            program.instrs().to_vec(),
            DataMemory::new(64),
            CpuCostModel::default(),
        );
        cpu.run(10).unwrap();
        // add(1) + lhu(2) + halt(1) = 4 cycles, 3 instructions.
        assert_eq!(cpu.stats().cycles, 4);
        assert_eq!(cpu.stats().retired, 3);
        assert!((cpu.stats().cpi() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn taken_branches_cost_more() {
        // Same instruction count; one program takes the branch.
        let not_taken = assemble("beq r1, r2, skip\n skip: halt").unwrap();
        let mut cpu1 = Cpu::new(
            not_taken.instrs().to_vec(),
            DataMemory::new(16),
            CpuCostModel::default(),
        );
        // r1 == r2 == 0 → taken (both registers zero!). Make them differ.
        let differs = assemble("li r1, 1\n beq r1, r0, skip\n skip: halt").unwrap();
        let mut cpu2 = Cpu::new(
            differs.instrs().to_vec(),
            DataMemory::new(16),
            CpuCostModel::default(),
        );
        cpu1.run(10).unwrap();
        cpu2.run(10).unwrap();
        assert_eq!(cpu1.stats().taken_branches, 1);
        assert_eq!(cpu2.stats().taken_branches, 0);
    }

    #[test]
    fn runaway_program_hits_limit() {
        let program = assemble("loop: j loop").unwrap();
        let mut cpu = Cpu::new(
            program.instrs().to_vec(),
            DataMemory::new(16),
            CpuCostModel::default(),
        );
        assert!(matches!(
            cpu.run(1000),
            Err(CpuError::InstructionLimit { .. })
        ));
    }

    #[test]
    fn pc_out_of_range_faults() {
        let program = assemble("add r1, r0, r0").unwrap(); // no halt
        let mut cpu = Cpu::new(
            program.instrs().to_vec(),
            DataMemory::new(16),
            CpuCostModel::default(),
        );
        assert!(matches!(cpu.run(10), Err(CpuError::PcOutOfRange { .. })));
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let cpu = run_program(
            "
            li   r1, 0
            jal  r31, sub
            li   r1, 2          ; executed after return
            halt
        sub:
            li   r1, 1
            jr   r31
            ",
        );
        assert_eq!(cpu.reg(1), 2);
    }
}
