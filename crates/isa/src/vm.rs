//! Cycle-counting virtual machines for the two ISAs.
//!
//! A [`Vm`] fetch-decodes instructions from a [`Memory`] image produced by
//! the `xar-popcorn` linker (or by [`crate::assemble`]), executes them with
//! the ISA's semantics, and accumulates a cycle count from
//! [`crate::cost::cycles`].
//!
//! # Decode table
//!
//! Guest code is decoded once: `Vm` keeps a direct-mapped table of decoded
//! instructions indexed by the low bits of `pc`. A slot is served only
//! when its tag equals `pc`, so pcs that share a slot evict each other and
//! never run each other's instruction. A slot also holds the instruction's
//! [`crate::cost::cycles`], evaluated at decode time; [`Vm::run`] adds the
//! stored number. A hit is one table access: the slot whose tag was just
//! checked is the one copied out; only a miss decodes (out of line) and
//! indexes the table again. The table is allocated by the first fetch (an
//! idle VM and its clones own no heap) and does not watch [`Memory`]:
//! after rewriting code that may have executed, call
//! [`Vm::invalidate_code`].
//!
//! # What a guest instruction is
//!
//! Mostly a memory access. The popcorn code generator keeps every value
//! in a stack slot, so FaceDet320 (the `vm/facedet320-*` bench row;
//! 696 624 instructions retired on either ISA) runs `LoadSp` 39.3 %,
//! `StoreSp` 28.2 %, `Load` 2.5 % — 70 % loads and stores — then `Alu`
//! 14.1 %, `MovImm` 6.7 %, compare/branch 6.6 %, call/ret/enter/leave
//! 2.5 %. The per-instruction cost is therefore [`Memory`]'s access path
//! (see [`crate::mem`], "Access paths") plus fetch and the dispatch
//! `match`; the first two are one tag compare each, dispatch is what is
//! left.
//!
//! # Traps
//!
//! Control returns to the embedding executor via [`Trap`]s:
//!
//! * [`Trap::Hlt`] — the program executed `hlt`;
//! * [`Trap::RuntimeCall`] — a `call` targeted the reserved runtime window
//!   (`[RUNTIME_CALL_BASE, RUNTIME_CALL_END)`), standing in for Popcorn's
//!   run-time library entry points (scheduler hooks, migration points,
//!   FPGA configuration/invocation, heap allocation, I/O);
//! * [`Trap::OutOfFuel`] — the instruction budget given to [`Vm::run`] was
//!   exhausted (the VM can simply be resumed).
//!
//! # Frame-record convention (both ISAs)
//!
//! `enter`/`leave` maintain an identical *frame record* on both ISAs —
//! `[fp]` holds the caller's `fp` and `[fp + 8]` holds the return address —
//! even though the mechanism differs (Xar86's `call` pushes the return
//! address; Arm64e's `enter` spills the link register). This mirrors real
//! x86-64/AArch64 frame chains and is what the cross-ISA stack transformer
//! walks.

use crate::cost;
use crate::encode::{decode, DecodeError};
use crate::instr::{CvtDir, MInstr};
use crate::mem::Memory;
use crate::{Isa, RUNTIME_CALL_BASE, RUNTIME_CALL_END};
use std::cmp::Ordering;
use std::fmt;

/// Slots in a VM's decode table (a power of two; 128 KiB when allocated).
const DECODE_SLOTS: usize = 4096;

/// One decoded instruction, tagged with the `pc` it was decoded at;
/// `len == 0` marks a slot never filled.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    pc: u64,
    ins: MInstr,
    len: u32,
    cost: u32,
}

const EMPTY: Decoded = Decoded { pc: 0, ins: MInstr::Nop, len: 0, cost: 0 };

/// Comparison flags, set by `cmp`/`fcmp` and consumed by `b.cond`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flags {
    /// No compare executed yet.
    #[default]
    None,
    /// Result of an integer compare.
    Int(Ordering),
    /// Result of an FP compare; `None` means unordered (NaN involved).
    Float(Option<Ordering>),
}

impl Flags {
    /// Evaluates a branch condition against the flags.
    ///
    /// Unordered FP compares make every condition except `ne` false, and
    /// `ne` true (IEEE-754 style). With no compare executed, all
    /// conditions are false.
    pub fn eval(self, cond: crate::Cond) -> bool {
        match self {
            Flags::None => false,
            Flags::Int(ord) => cond.eval(ord),
            Flags::Float(Some(ord)) => cond.eval(ord),
            Flags::Float(None) => cond == crate::Cond::Ne,
        }
    }
}

/// Why the VM stopped without faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// A `hlt` instruction executed.
    Hlt,
    /// A call into the reserved runtime window.
    ///
    /// The VM has already advanced `pc` past the call; the executor
    /// services the call (reading arguments from the argument registers of
    /// [`Isa::call_conv`]) and resumes with [`Vm::run`].
    RuntimeCall {
        /// The address called, identifying the runtime service.
        addr: u64,
        /// The address execution resumes at (already in `pc`).
        ret_to: u64,
    },
    /// The instruction budget was exhausted; resume by calling
    /// [`Vm::run`] again.
    OutOfFuel,
}

/// An execution fault (the guest program is broken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmFault {
    /// Instruction bytes at `pc` failed to decode.
    Decode {
        /// Faulting program counter.
        pc: u64,
        /// Underlying decode error.
        err: DecodeError,
    },
    /// Integer division fault (divide by zero or `i64::MIN / -1`).
    DivFault {
        /// Faulting program counter.
        pc: u64,
    },
}

impl fmt::Display for VmFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFault::Decode { pc, err } => write!(f, "decode fault at {pc:#x}: {err}"),
            VmFault::DivFault { pc } => write!(f, "integer division fault at {pc:#x}"),
        }
    }
}

impl std::error::Error for VmFault {}

/// A virtual CPU for one ISA.
///
/// Register state is public: the Popcorn-style run-time reads and writes
/// it directly when servicing runtime calls and when transforming state
/// across ISAs.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Which ISA this VM executes.
    pub isa: Isa,
    /// General-purpose registers (only the first [`Isa::gp_reg_count`]
    /// are addressable).
    pub regs: [i64; 32],
    /// Floating-point registers.
    pub fregs: [f64; 32],
    /// Program counter.
    pub pc: u64,
    /// Stack pointer (dedicated register on both ISAs).
    pub sp: u64,
    /// Frame pointer.
    pub fp: u64,
    /// Link register (used by Arm64e; ignored by Xar86).
    pub lr: u64,
    /// Comparison flags.
    pub flags: Flags,
    /// Accumulated cycle count.
    pub cycles: u64,
    /// Retired instruction count.
    pub instret: u64,
    decoded: Vec<Decoded>,
}

impl Vm {
    /// Creates a VM with zeroed state for `isa`.
    pub fn new(isa: Isa) -> Self {
        Vm {
            isa,
            regs: [0; 32],
            fregs: [0.0; 32],
            pc: 0,
            sp: 0,
            fp: 0,
            lr: 0,
            flags: Flags::None,
            cycles: 0,
            instret: 0,
            decoded: Vec::new(),
        }
    }

    /// Elapsed virtual time in nanoseconds, from cycles and the ISA clock.
    pub fn elapsed_ns(&self) -> f64 {
        self.cycles as f64 / self.isa.clock_ghz()
    }

    /// Empties the decode table (required if code memory is rewritten).
    pub fn invalidate_code(&mut self) {
        self.decoded.clear();
    }

    /// The decoded instruction at `pc`: the slot's, when its tag says it
    /// is this pc's, else decoded into the slot first.
    #[inline]
    fn fetch(&mut self, mem: &Memory) -> Result<Decoded, VmFault> {
        let slot = self.pc as usize % DECODE_SLOTS;
        match self.decoded.get(slot) {
            Some(d) if d.pc == self.pc && d.len != 0 => Ok(*d),
            _ => {
                self.decode_into(mem, slot)?;
                Ok(self.decoded[slot])
            }
        }
    }

    #[cold]
    fn decode_into(&mut self, mem: &Memory, slot: usize) -> Result<(), VmFault> {
        let pc = self.pc;
        let mut buf = [0u8; 16];
        mem.read_bytes(pc, &mut buf);
        let (ins, len) = decode(self.isa, pc, &buf).map_err(|err| VmFault::Decode { pc, err })?;
        self.decoded.resize(DECODE_SLOTS, EMPTY); // allocates on the first miss only
        let cost = cost::cycles(self.isa, &ins) as u32;
        self.decoded[slot] = Decoded { pc, ins, len: len as u32, cost };
        Ok(())
    }

    /// Runs until a trap or fault, executing at most `fuel` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`VmFault`] if the guest decodes or divides invalidly. The
    /// faulting instruction does not retire: `pc` is its address, and
    /// `cycles`, `instret` and the registers are what it found, so `run`
    /// can be called again once the cause is repaired.
    pub fn run(&mut self, mem: &mut Memory, mut fuel: u64) -> Result<Trap, VmFault> {
        while fuel > 0 {
            fuel -= 1;
            let Decoded { pc, ins, len, cost } = self.fetch(mem)?;
            let next = pc.wrapping_add(len as u64);
            self.cycles += cost as u64;
            self.instret += 1;
            self.pc = next;
            match ins {
                MInstr::MovImm { dst, imm } => self.regs[dst.0 as usize] = imm,
                MInstr::MovReg { dst, src } => {
                    self.regs[dst.0 as usize] = self.regs[src.0 as usize]
                }
                MInstr::Alu { op, dst, lhs, rhs } => {
                    let l = self.regs[lhs.0 as usize];
                    let r = self.regs[rhs.0 as usize];
                    let Some(val) = op.eval(l, r) else { return Err(self.div_fault(pc, cost)) };
                    self.regs[dst.0 as usize] = val;
                }
                MInstr::AluImm { op, dst, lhs, imm } => {
                    let l = self.regs[lhs.0 as usize];
                    let Some(val) = op.eval(l, imm as i64) else {
                        return Err(self.div_fault(pc, cost));
                    };
                    self.regs[dst.0 as usize] = val;
                }
                MInstr::FAlu { op, dst, lhs, rhs } => {
                    let l = self.fregs[lhs.0 as usize];
                    let r = self.fregs[rhs.0 as usize];
                    self.fregs[dst.0 as usize] = op.eval(l, r);
                }
                MInstr::FMovImm { dst, imm } => self.fregs[dst.0 as usize] = imm,
                MInstr::FMovReg { dst, src } => {
                    self.fregs[dst.0 as usize] = self.fregs[src.0 as usize]
                }
                MInstr::Cvt { dir: CvtDir::I2F, gp, fp } => {
                    self.fregs[fp.0 as usize] = self.regs[gp.0 as usize] as f64
                }
                MInstr::Cvt { dir: CvtDir::F2I, gp, fp } => {
                    self.regs[gp.0 as usize] = self.fregs[fp.0 as usize] as i64
                }
                MInstr::Load { dst, base, off, size } => {
                    let addr = (self.regs[base.0 as usize] as u64).wrapping_add(off as i64 as u64);
                    self.regs[dst.0 as usize] = mem.read_uint(addr, size.bytes()) as i64;
                }
                MInstr::Store { src, base, off, size } => {
                    let addr = (self.regs[base.0 as usize] as u64).wrapping_add(off as i64 as u64);
                    mem.write_uint(addr, self.regs[src.0 as usize] as u64, size.bytes());
                }
                MInstr::FLoad { dst, base, off } => {
                    let addr = (self.regs[base.0 as usize] as u64).wrapping_add(off as i64 as u64);
                    self.fregs[dst.0 as usize] = mem.read_f64(addr);
                }
                MInstr::FStore { src, base, off } => {
                    let addr = (self.regs[base.0 as usize] as u64).wrapping_add(off as i64 as u64);
                    mem.write_f64(addr, self.fregs[src.0 as usize]);
                }
                MInstr::LoadSp { dst, off } => {
                    self.regs[dst.0 as usize] =
                        mem.read_i64(self.sp.wrapping_add(off as i64 as u64));
                }
                MInstr::StoreSp { src, off } => {
                    mem.write_i64(
                        self.sp.wrapping_add(off as i64 as u64),
                        self.regs[src.0 as usize],
                    );
                }
                MInstr::FLoadSp { dst, off } => {
                    self.fregs[dst.0 as usize] =
                        mem.read_f64(self.sp.wrapping_add(off as i64 as u64));
                }
                MInstr::FStoreSp { src, off } => {
                    mem.write_f64(
                        self.sp.wrapping_add(off as i64 as u64),
                        self.fregs[src.0 as usize],
                    );
                }
                MInstr::MovFromFp { dst } => self.regs[dst.0 as usize] = self.fp as i64,
                MInstr::MovFromSp { dst } => self.regs[dst.0 as usize] = self.sp as i64,
                MInstr::AddSp { imm } => self.sp = self.sp.wrapping_add(imm as i64 as u64),
                MInstr::Enter { frame } => match self.isa {
                    Isa::Xar86 => {
                        // Return address was pushed by `call`; push caller fp.
                        self.sp = self.sp.wrapping_sub(8);
                        mem.write_u64(self.sp, self.fp);
                        self.fp = self.sp;
                        self.sp = self.sp.wrapping_sub(frame as i64 as u64);
                    }
                    Isa::Arm64e => {
                        // Spill the frame record (fp, lr) like AArch64's stp.
                        self.sp = self.sp.wrapping_sub(16);
                        mem.write_u64(self.sp, self.fp);
                        mem.write_u64(self.sp.wrapping_add(8), self.lr);
                        self.fp = self.sp;
                        self.sp = self.sp.wrapping_sub(frame as i64 as u64);
                    }
                },
                MInstr::Leave => match self.isa {
                    Isa::Xar86 => {
                        self.sp = self.fp;
                        self.fp = mem.read_u64(self.sp);
                        self.sp = self.sp.wrapping_add(8);
                        // Return address now at [sp]; `ret` pops it.
                    }
                    Isa::Arm64e => {
                        self.sp = self.fp;
                        self.fp = mem.read_u64(self.sp);
                        self.lr = mem.read_u64(self.sp.wrapping_add(8));
                        self.sp = self.sp.wrapping_add(16);
                    }
                },
                MInstr::Cmp { lhs, rhs } => {
                    self.flags =
                        Flags::Int(self.regs[lhs.0 as usize].cmp(&self.regs[rhs.0 as usize]));
                }
                MInstr::CmpImm { lhs, imm } => {
                    self.flags = Flags::Int(self.regs[lhs.0 as usize].cmp(&(imm as i64)));
                }
                MInstr::FCmp { lhs, rhs } => {
                    self.flags = Flags::Float(
                        self.fregs[lhs.0 as usize].partial_cmp(&self.fregs[rhs.0 as usize]),
                    );
                }
                MInstr::Jmp { target } => self.pc = target,
                MInstr::JCond { cond, target } => {
                    if self.flags.eval(cond) {
                        self.pc = target;
                    }
                }
                MInstr::Call { target } => {
                    if (RUNTIME_CALL_BASE..RUNTIME_CALL_END).contains(&target) {
                        return Ok(Trap::RuntimeCall { addr: target, ret_to: next });
                    }
                    self.do_call(mem, target, next);
                }
                MInstr::CallReg { target } => {
                    let target = self.regs[target.0 as usize] as u64;
                    if (RUNTIME_CALL_BASE..RUNTIME_CALL_END).contains(&target) {
                        return Ok(Trap::RuntimeCall { addr: target, ret_to: next });
                    }
                    self.do_call(mem, target, next);
                }
                MInstr::Ret => match self.isa {
                    Isa::Xar86 => {
                        self.pc = mem.read_u64(self.sp);
                        self.sp = self.sp.wrapping_add(8);
                    }
                    Isa::Arm64e => self.pc = self.lr,
                },
                MInstr::Push { src } => {
                    self.sp = self.sp.wrapping_sub(8);
                    mem.write_i64(self.sp, self.regs[src.0 as usize]);
                }
                MInstr::Pop { dst } => {
                    self.regs[dst.0 as usize] = mem.read_i64(self.sp);
                    self.sp = self.sp.wrapping_add(8);
                }
                MInstr::Nop => {}
                MInstr::Hlt => return Ok(Trap::Hlt),
            }
        }
        Ok(Trap::OutOfFuel)
    }

    /// A division at `pc` faulted: it does not retire, so what `run`
    /// advanced before dispatching it (`pc`, `cycles`, `instret`) goes
    /// back to where the instruction found it.
    #[cold]
    fn div_fault(&mut self, pc: u64, cost: u32) -> VmFault {
        self.pc = pc;
        self.cycles -= cost as u64;
        self.instret -= 1;
        VmFault::DivFault { pc }
    }

    fn do_call(&mut self, mem: &mut Memory, target: u64, ret_to: u64) {
        match self.isa {
            Isa::Xar86 => {
                self.sp = self.sp.wrapping_sub(8);
                mem.write_u64(self.sp, ret_to);
            }
            Isa::Arm64e => self.lr = ret_to,
        }
        self.pc = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Cond, MemSize};
    use crate::{assemble, Reg, PAGE_SIZE};

    const TEXT: u64 = 0x40_0000;
    const STACK: u64 = 0x7000_0000;

    fn run_prog(isa: Isa, prog: &[MInstr]) -> (Vm, Memory) {
        let image = assemble(isa, TEXT, prog).expect("assemble");
        let mut mem = Memory::new();
        mem.load_image(TEXT, &image);
        let mut vm = Vm::new(isa);
        vm.pc = TEXT;
        vm.sp = STACK;
        let trap = vm.run(&mut mem, 100_000).expect("run");
        assert_eq!(trap, Trap::Hlt);
        (vm, mem)
    }

    #[test]
    fn arithmetic_loop_same_result_both_isas() {
        // sum = 0; for i in 1..=100 { sum += i*i }  => 338350
        // Built per-ISA to respect operand-form constraints.
        for isa in Isa::ALL {
            let (sum, i, tmp) = (Reg(6), Reg(7), Reg(12));
            let mut prog =
                vec![MInstr::MovImm { dst: sum, imm: 0 }, MInstr::MovImm { dst: i, imm: 1 }];
            let loop_start =
                TEXT + prog.iter().map(|p| crate::encode::encoded_size(isa, p) as u64).sum::<u64>();
            let body = match isa {
                Isa::Xar86 => vec![
                    MInstr::MovReg { dst: tmp, src: i },
                    MInstr::Alu { op: AluOp::Mul, dst: tmp, lhs: tmp, rhs: i },
                    MInstr::Alu { op: AluOp::Add, dst: sum, lhs: sum, rhs: tmp },
                    MInstr::AluImm { op: AluOp::Add, dst: i, lhs: i, imm: 1 },
                    MInstr::CmpImm { lhs: i, imm: 100 },
                    MInstr::JCond { cond: Cond::Le, target: loop_start },
                    MInstr::MovReg { dst: Reg(0), src: sum },
                    MInstr::Hlt,
                ],
                Isa::Arm64e => vec![
                    MInstr::Alu { op: AluOp::Mul, dst: tmp, lhs: i, rhs: i },
                    MInstr::Alu { op: AluOp::Add, dst: sum, lhs: sum, rhs: tmp },
                    MInstr::AluImm { op: AluOp::Add, dst: i, lhs: i, imm: 1 },
                    MInstr::CmpImm { lhs: i, imm: 100 },
                    MInstr::JCond { cond: Cond::Le, target: loop_start },
                    MInstr::MovReg { dst: Reg(0), src: sum },
                    MInstr::Hlt,
                ],
            };
            prog.extend(body);
            let (vm, _) = run_prog(isa, &prog);
            assert_eq!(vm.regs[0], 338350, "{isa}");
            assert!(vm.cycles > 0 && vm.instret > 0);
        }
    }

    #[test]
    fn call_ret_and_frame_record_layout() {
        // main: call f; hlt        f: enter 16; leave; ret
        for isa in Isa::ALL {
            // Lay out: [call][hlt][f...]
            let call_size = crate::encode::encoded_size(isa, &MInstr::Call { target: 0 }) as u64;
            let hlt_size = crate::encode::encoded_size(isa, &MInstr::Hlt) as u64;
            let f_addr = TEXT + call_size + hlt_size;
            let prog = vec![
                MInstr::Call { target: f_addr },
                MInstr::Hlt,
                MInstr::Enter { frame: 16 },
                MInstr::Leave,
                MInstr::Ret,
            ];
            let (vm, _) = run_prog(isa, &prog);
            // Stack fully popped.
            assert_eq!(vm.sp, STACK, "{isa}");
        }
    }

    #[test]
    fn frame_record_identical_across_isas() {
        // Stop inside the callee (via runtime call trap) and inspect
        // [fp] = caller fp, [fp+8] = return address.
        for isa in Isa::ALL {
            let call_size = crate::encode::encoded_size(isa, &MInstr::Call { target: 0 }) as u64;
            let hlt_size = crate::encode::encoded_size(isa, &MInstr::Hlt) as u64;
            let f_addr = TEXT + call_size + hlt_size;
            let prog = vec![
                MInstr::Call { target: f_addr },
                MInstr::Hlt,
                MInstr::Enter { frame: 32 },
                MInstr::Call { target: RUNTIME_CALL_BASE }, // trap point
                MInstr::Leave,
                MInstr::Ret,
            ];
            let image = assemble(isa, TEXT, &prog).unwrap();
            let mut mem = Memory::new();
            mem.load_image(TEXT, &image);
            let mut vm = Vm::new(isa);
            vm.pc = TEXT;
            vm.sp = STACK;
            vm.fp = 0xAAAA_0000; // sentinel caller fp
            let trap = vm.run(&mut mem, 1000).unwrap();
            match trap {
                Trap::RuntimeCall { addr, .. } => assert_eq!(addr, RUNTIME_CALL_BASE),
                other => panic!("{isa}: expected runtime call, got {other:?}"),
            }
            assert_eq!(mem.read_u64(vm.fp), 0xAAAA_0000, "{isa}: [fp] caller fp");
            let ret = mem.read_u64(vm.fp + 8);
            assert_eq!(ret, TEXT + call_size, "{isa}: [fp+8] return address");
            // Frame slots live below fp.
            assert_eq!(vm.sp, vm.fp - 32, "{isa}: frame allocation");
        }
    }

    #[test]
    fn memory_ops_and_sizes() {
        for isa in Isa::ALL {
            let base = Reg(1);
            let prog = vec![
                MInstr::MovImm { dst: base, imm: 0x5000_0000 },
                MInstr::MovImm { dst: Reg(2), imm: -1 },
                MInstr::Store { src: Reg(2), base, off: 0, size: MemSize::B4 },
                MInstr::Load { dst: Reg(0), base, off: 0, size: MemSize::B8 },
                MInstr::Hlt,
            ];
            let (vm, _) = run_prog(isa, &prog);
            // 4-byte store of -1 zero-extends on 8-byte load.
            assert_eq!(vm.regs[0], 0xFFFF_FFFF, "{isa}");
        }
    }

    #[test]
    fn fuel_exhaustion_resumes() {
        let prog = vec![
            MInstr::MovImm { dst: Reg(0), imm: 7 },
            MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 },
            MInstr::Hlt,
        ];
        let image = assemble(Isa::Xar86, TEXT, &prog).unwrap();
        let mut mem = Memory::new();
        mem.load_image(TEXT, &image);
        let mut vm = Vm::new(Isa::Xar86);
        vm.pc = TEXT;
        vm.sp = STACK;
        assert_eq!(vm.run(&mut mem, 1).unwrap(), Trap::OutOfFuel);
        assert_eq!(vm.run(&mut mem, 100).unwrap(), Trap::Hlt);
        assert_eq!(vm.regs[0], 8);
    }

    #[test]
    fn aliasing_pcs_never_serve_each_others_instruction() {
        // `jmp` at TEXT and `mov` at TEXT + k * DECODE_SLOTS share slot
        // TEXT % DECODE_SLOTS; running the pair repeatedly makes each
        // evict the other, and the tag check must keep them apart.
        for isa in Isa::ALL {
            let far = TEXT + 3 * DECODE_SLOTS as u64;
            let mut mem = Memory::new();
            mem.load_image(TEXT, &assemble(isa, TEXT, &[MInstr::Jmp { target: far }]).unwrap());
            let tail = [MInstr::MovImm { dst: Reg(0), imm: 77 }, MInstr::Hlt];
            mem.load_image(far, &assemble(isa, far, &tail).unwrap());
            let mut vm = Vm::new(isa);
            for round in 0..4 {
                vm.pc = TEXT;
                vm.regs[0] = 0;
                assert_eq!(vm.run(&mut mem, 100).unwrap(), Trap::Hlt, "{isa} round {round}");
                assert_eq!(vm.regs[0], 77, "{isa} round {round}");
                assert_eq!(vm.instret, 3 * (round + 1));
            }
            // Enter at the aliased address directly while the slot holds
            // the `jmp`: still the `mov`.
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 1).unwrap(), Trap::OutOfFuel);
            vm.regs[0] = 0;
            assert_eq!(vm.run(&mut mem, 100).unwrap(), Trap::Hlt);
            assert_eq!(vm.regs[0], 77, "{isa}");
        }
    }

    #[test]
    fn rewritten_text_runs_the_new_program_after_invalidate() {
        for isa in Isa::ALL {
            let mut mem = Memory::new();
            let prog =
                |imm| assemble(isa, TEXT, &[MInstr::MovImm { dst: Reg(0), imm }, MInstr::Hlt]);
            mem.load_image(TEXT, &prog(1).unwrap());
            let mut vm = Vm::new(isa);
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 10).unwrap(), Trap::Hlt);
            assert_eq!(vm.regs[0], 1);
            mem.load_image(TEXT, &prog(2).unwrap());
            vm.invalidate_code();
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 10).unwrap(), Trap::Hlt);
            assert_eq!(vm.regs[0], 2, "{isa}: stale decode served after invalidate_code");
        }
    }

    #[test]
    fn idle_vm_and_its_clone_hold_no_heap() {
        // `stackxform::transform` builds a VM per migration and the
        // executor one per run: the table must not exist until a fetch.
        let mut vm = Vm::new(Isa::Xar86);
        assert_eq!(vm.decoded.capacity(), 0);
        assert_eq!(vm.clone().decoded.capacity(), 0);
        let mut mem = Memory::new();
        mem.load_image(TEXT, &assemble(Isa::Xar86, TEXT, &[MInstr::Hlt]).unwrap());
        vm.pc = TEXT;
        vm.run(&mut mem, 1).unwrap();
        assert_eq!(vm.decoded.len(), DECODE_SLOTS);
        vm.invalidate_code();
        assert!(vm.decoded.is_empty());
    }

    #[test]
    fn cycles_are_the_cost_model_summed_over_retired_instructions() {
        // The per-slot cost is computed at decode; the total must be what
        // re-evaluating the cost model per retired instruction gives.
        for isa in Isa::ALL {
            let prog = [
                MInstr::MovImm { dst: Reg(1), imm: 0x5000_0000 },
                MInstr::MovImm { dst: Reg(2), imm: 6 },
                MInstr::Store { src: Reg(2), base: Reg(1), off: 0, size: MemSize::B8 },
                MInstr::Load { dst: Reg(0), base: Reg(1), off: 0, size: MemSize::B8 },
                MInstr::Alu { op: AluOp::Mul, dst: Reg(0), lhs: Reg(0), rhs: Reg(2) },
                MInstr::Hlt,
            ];
            let (vm, _) = run_prog(isa, &prog);
            assert_eq!(vm.regs[0], 36);
            assert_eq!(vm.cycles, prog.iter().map(|i| cost::cycles(isa, i)).sum::<u64>(), "{isa}");
        }
    }

    #[test]
    fn stack_addresses_wrap_like_every_other_effective_address() {
        // Arm64e `enter` with sp = 8 spills fp at sp - 16 (wrapped below
        // zero) and lr at sp - 16 + 8 = 0 (wrapped back); an unchecked
        // `sp + 8` overflows there.
        let prog = [MInstr::Enter { frame: 0 }, MInstr::Leave, MInstr::Hlt];
        let image = assemble(Isa::Arm64e, TEXT, &prog).unwrap();
        let mut mem = Memory::new();
        mem.load_image(TEXT, &image);
        let mut vm = Vm::new(Isa::Arm64e);
        (vm.pc, vm.sp, vm.fp, vm.lr) = (TEXT, 8, 0x1111, 0x2222);
        assert_eq!(vm.run(&mut mem, 1).unwrap(), Trap::OutOfFuel);
        assert_eq!(vm.sp, u64::MAX - 7);
        assert_eq!((mem.read_u64(u64::MAX - 7), mem.read_u64(0)), (0x1111, 0x2222));
        (vm.fp, vm.lr) = (vm.sp, 0);
        assert_eq!(vm.run(&mut mem, 10).unwrap(), Trap::Hlt);
        assert_eq!((vm.sp, vm.fp, vm.lr), (8, 0x1111, 0x2222));
    }

    #[test]
    fn faulting_division_does_not_retire() {
        // Both division forms: after the fault the VM is where the two
        // `mov`s left it, and with the divisor repaired the same `run`
        // call carries on through the division.
        let forms = [
            MInstr::Alu { op: AluOp::Div, dst: Reg(0), lhs: Reg(0), rhs: Reg(1) },
            MInstr::AluImm { op: AluOp::Rem, dst: Reg(0), lhs: Reg(0), imm: 0 },
        ];
        for (isa, div) in Isa::ALL.into_iter().flat_map(|isa| forms.map(|div| (isa, div))) {
            let movs =
                [MInstr::MovImm { dst: Reg(0), imm: 7 }, MInstr::MovImm { dst: Reg(1), imm: 0 }];
            let div_pc =
                TEXT + movs.iter().map(|m| crate::encode::encoded_size(isa, m) as u64).sum::<u64>();
            let mut mem = Memory::new();
            mem.load_image(
                TEXT,
                &assemble(isa, TEXT, &[movs[0], movs[1], div, MInstr::Hlt]).unwrap(),
            );
            let mut vm = Vm::new(isa);
            (vm.pc, vm.sp) = (TEXT, STACK);
            assert_eq!(vm.run(&mut mem, 100), Err(VmFault::DivFault { pc: div_pc }), "{isa}");
            let mov_cycles = movs.iter().map(|m| cost::cycles(isa, m)).sum::<u64>();
            assert_eq!((vm.pc, vm.instret, vm.cycles), (div_pc, 2, mov_cycles), "{isa} {div}");
            assert_eq!(vm.regs[0], 7, "{isa}: destination written by a faulting {div}");
            // Faults again, from the same state, as often as it is retried.
            assert_eq!(vm.run(&mut mem, 100), Err(VmFault::DivFault { pc: div_pc }), "{isa}");
            assert_eq!((vm.pc, vm.instret, vm.cycles), (div_pc, 2, mov_cycles), "{isa} {div}");
            match div {
                MInstr::Alu { .. } => vm.regs[1] = 2,
                _ => {
                    let fixed = MInstr::AluImm { op: AluOp::Rem, dst: Reg(0), lhs: Reg(0), imm: 4 };
                    mem.load_image(div_pc, &assemble(isa, div_pc, &[fixed, MInstr::Hlt]).unwrap());
                    vm.invalidate_code();
                }
            }
            assert_eq!(vm.run(&mut mem, 100), Ok(Trap::Hlt), "{isa} {div}");
            assert_eq!((vm.regs[0], vm.instret), (3, 4), "{isa} {div}");
        }
    }

    #[test]
    fn guest_loop_over_more_pages_than_the_memory_caches_reads_back_its_stores() {
        // One store per page over three times as many pages as `Memory`
        // has TLB slots, then one load per page: every slot is evicted
        // and refilled, and each load must see that page's own store.
        const PAGES: i64 = 3 * crate::mem::TLB_SLOTS as i64;
        const HEAP: i64 = 0x5000_0000;
        for isa in Isa::ALL {
            let (ptr, i, sum, tmp) = (Reg(1), Reg(2), Reg(0), Reg(3));
            let head = [
                MInstr::MovImm { dst: ptr, imm: HEAP },
                MInstr::MovImm { dst: i, imm: 0 },
                MInstr::MovImm { dst: sum, imm: 0 },
            ];
            let size = |p: &[MInstr]| {
                p.iter().map(|m| crate::encode::encoded_size(isa, m) as u64).sum::<u64>()
            };
            let step = [
                MInstr::AluImm { op: AluOp::Add, dst: ptr, lhs: ptr, imm: PAGE_SIZE as i32 },
                MInstr::AluImm { op: AluOp::Add, dst: i, lhs: i, imm: 1 },
                MInstr::CmpImm { lhs: i, imm: PAGES as i32 },
            ];
            let store_loop = TEXT + size(&head);
            let mut prog = head.to_vec();
            prog.push(MInstr::Store { src: i, base: ptr, off: 8, size: MemSize::B8 });
            prog.extend(step);
            prog.push(MInstr::JCond { cond: Cond::Lt, target: store_loop });
            prog.push(MInstr::MovImm { dst: ptr, imm: HEAP });
            prog.push(MInstr::MovImm { dst: i, imm: 0 });
            let load_loop = TEXT + size(&prog);
            prog.push(MInstr::Load { dst: tmp, base: ptr, off: 8, size: MemSize::B8 });
            prog.push(MInstr::Alu { op: AluOp::Xor, dst: tmp, lhs: tmp, rhs: i });
            prog.push(MInstr::Alu { op: AluOp::Or, dst: sum, lhs: sum, rhs: tmp });
            prog.extend(step);
            prog.extend([MInstr::JCond { cond: Cond::Lt, target: load_loop }, MInstr::Hlt]);
            let (vm, mem) = run_prog(isa, &prog);
            assert_eq!(vm.regs[0], 0, "{isa}: a load returned another page's store");
            assert_eq!(mem.resident_pages(), PAGES as usize + 1, "{isa}: data pages + text");
            for page in 0..PAGES {
                assert_eq!(mem.read_i64((HEAP + page * PAGE_SIZE as i64 + 8) as u64), page);
            }
        }
    }

    #[test]
    fn fcmp_nan_behaves_ieee() {
        let prog = vec![
            MInstr::FMovImm { dst: crate::FReg(0), imm: f64::NAN },
            MInstr::FMovImm { dst: crate::FReg(1), imm: 1.0 },
            MInstr::FCmp { lhs: crate::FReg(0), rhs: crate::FReg(1) },
            MInstr::MovImm { dst: Reg(0), imm: 0 },
            // ne must be taken for NaN.
            MInstr::JCond { cond: Cond::Ne, target: 0 }, // patched below
            MInstr::Hlt,
            MInstr::MovImm { dst: Reg(0), imm: 1 },
            MInstr::Hlt,
        ];
        // Compute address of the second MovImm.
        let sizes: Vec<u64> =
            prog.iter().map(|p| crate::encode::encoded_size(Isa::Xar86, p) as u64).collect();
        let target = TEXT + sizes[..6].iter().sum::<u64>();
        let mut prog = prog;
        prog[4] = MInstr::JCond { cond: Cond::Ne, target };
        let (vm, _) = run_prog(Isa::Xar86, &prog);
        assert_eq!(vm.regs[0], 1);
    }

    #[test]
    fn same_program_costs_differ_across_isas() {
        let mk = |_isa: Isa| {
            vec![
                MInstr::MovImm { dst: Reg(0), imm: 5 },
                MInstr::MovImm { dst: Reg(1), imm: 3 },
                MInstr::Alu { op: AluOp::Mul, dst: Reg(0), lhs: Reg(0), rhs: Reg(1) },
                MInstr::Hlt,
            ]
        };
        let (vx, _) = run_prog(Isa::Xar86, &mk(Isa::Xar86));
        let (va, _) = run_prog(Isa::Arm64e, &mk(Isa::Arm64e));
        assert_eq!(vx.regs[0], va.regs[0]);
        assert_ne!(vx.cycles, va.cycles);
    }
}
