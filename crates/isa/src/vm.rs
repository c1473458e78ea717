//! Cycle-counting virtual machines for the two ISAs.
//!
//! A [`Vm`] decodes instructions from a [`Memory`] image produced by the
//! `xar-popcorn` linker (or by [`crate::assemble`]) a basic block at a
//! time, executes them with the ISA's semantics, and accumulates a cycle
//! count from [`crate::cost::cycles`].
//!
//! # Block table
//!
//! Guest code is translated once per basic block: `Vm` keeps a
//! direct-mapped table of blocks indexed by the low bits of their start
//! `pc`. A block is the decoded straight line from that `pc` up to and
//! including the first control transfer (`jmp`, `b.cond`, `call`, `ret`,
//! `hlt`), at most `BLOCK_CAP` (64) instructions, and cut short before an
//! instruction that does not decode (which faults only when it is
//! reached). It holds each instruction with its `pc` and its
//! [`crate::cost::cycles`], evaluated at translation, plus the sum of
//! those costs and the fall-through `pc`. A slot is served only when its
//! tag equals the `pc` being entered, so pcs that share a slot evict
//! each other and never run each other's block, and a jump into the
//! middle of a block translates a block of its own. [`Vm::run`] pays one
//! tag check per block and retires the block's instructions together:
//! `instret` by their number, `cycles` by the precomputed sum. A `hlt` or
//! a runtime call ends its block, so its trap returns with the block
//! retired (the executor reads [`Vm::elapsed_ns`] while servicing it).
//! The table is allocated by the first translation (an idle VM and its
//! clones own no heap); an evicted block's instructions stay behind
//! until the table holds `OPS_LIMIT` of them and starts over. It does not
//! watch [`Memory`]: after rewriting code that may have executed, call
//! [`Vm::invalidate_code`].
//!
//! Each block has two forms. The **per-instruction** form runs its
//! instructions one at a time through `Memory`; it is the exact path for
//! a block the fuel cuts short, which retires its prefix. The **fused**
//! form runs when the whole block retires. Translation rewrites every
//! `sp`-relative `ld`/`st` as an offset from the `sp` the block is
//! entered with, following the block's static `sp` moves (`enter`,
//! `add sp`, `push`, `pop`; a `leave` takes `sp` from memory and ends
//! this), and records the span of those offsets: the block's **stack
//! window**. It then fuses the code generator's spill shapes:
//! `ld [sp+a]; ld [sp+b]; op; st [sp+c]` quads (any `op` but `div`/`rem`,
//! which can fault) first, then `mov #imm; st [sp+c]` pairs, then lone
//! `ld`/`st`; every other instruction runs the same per-instruction body
//! (`Vm::step`) as the other form, and one that faults retires exactly
//! the prefix before its own index. On entry the window is resolved
//! once: when it lies in one resident page, [`Memory`] hands out a
//! pointer into that page (see [`crate::mem`], "Access paths") and the
//! fused form's accesses index it. Otherwise — a frame straddling a page
//! edge, a stack page not written yet — the block runs its
//! per-instruction form, whose accesses take `Memory`'s TLB path and
//! allocate on a first store as before. A block with no `sp`-relative
//! access, or whose accesses span more than a page, has no fused form.
//!
//! # What a guest instruction is
//!
//! Mostly a memory access. The popcorn code generator keeps every value
//! in a stack slot. One `facedet_pipeline` run retires 1 415 796
//! instructions over both ISAs: `LoadSp` 39.3 %, `StoreSp` 28.3 %, `Alu`
//! 14.2 %, `MovImm` 6.7 %, then `Load`, compare/branch and
//! call/ret/enter/leave. By adjacent pair, `StoreSp→LoadSp` is 20.9 %,
//! `LoadSp→LoadSp` 17.8 %, `LoadSp→Alu` 14.2 %, `Alu→StoreSp` 14.2 % and
//! `MovImm→StoreSp` 6.2 %: nearly every `Alu` sits in a quad. The run
//! enters 85 344 blocks, ~16.6 instructions each, and 752 935 dispatches
//! retire them: 191 915 quads, 87 116 `mov; st` pairs, 293 977 lone
//! `ld`/`st` and one per remaining instruction. 68 702 entries (80 %)
//! run fused; the rest are blocks with no `sp`-relative access. Each
//! form earns its keep. Against the interpreter before fusion (the same
//! block table, one form), FaceDet320 runs 1.58× as fast with
//! everything, and with one part left out at a time 1.46× without the
//! pairs, 1.23× without the quads, 1.12× without the lone
//! accesses, 0.93× without the window (per-instruction form only) and
//! 0.60× with the window but no fused shapes (Xar86; Arm64e within
//! 0.07; medians of 150 alternated runs in one process on a 2-vCPU
//! VM). The gated measure is the benchmark's `migrate-exec` workload
//! and its `isa.minstr_per_s_*` layers (`xar_benchmark/README.md`).
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
use crate::instr::{AluOp, CvtDir, MInstr};
use crate::mem::Memory;
use crate::{Isa, Reg, PAGE_SIZE, RUNTIME_CALL_BASE, RUNTIME_CALL_END};
use std::cmp::Ordering;
use std::fmt;

/// Slots in a VM's block table (a power of two; 192 KiB when allocated).
const BLOCK_SLOTS: usize = 4096;

/// The most instructions one block holds.
const BLOCK_CAP: usize = 64;

/// Translated instructions the table keeps before it starts over: an
/// evicted block's instructions stay behind until then (512 KiB, and at
/// most 384 KiB of fused forms).
const OPS_LIMIT: usize = 16 * 1024;

/// One translated instruction, with its address and its cost.
#[derive(Debug, Clone, Copy)]
struct Op {
    ins: MInstr,
    pc: u64,
    cost: u32,
}

/// One step of a block's fused form. A windowed access (`at`) addresses
/// the block's stack window: the byte at `at` is `entry sp + lo + at`.
#[derive(Debug, Clone, Copy)]
enum Fused {
    /// `ld ld[0], [at[0]]; ld ld[1], [at[1]]; dst = lhs op rhs;
    /// st [at[2]], src`, with an `op` that cannot fault.
    Quad { op: AluOp, ld: [Reg; 2], dst: Reg, lhs: Reg, rhs: Reg, src: Reg, at: [u16; 3] },
    /// `mov dst, #imm; st [at], src`.
    MovSt { dst: Reg, src: Reg, at: u16, imm: i64 },
    /// `ld dst, [at]`.
    Ld { dst: Reg, at: u16 },
    /// `st [at], src`.
    St { src: Reg, at: u16 },
    /// The block's instruction `ins`, at index `i`, run by [`Vm::step`].
    One { ins: MInstr, i: u16 },
}

/// A translated block: `n` instructions from `start` in the table's
/// `ops`, and its fused form, `nfused` steps from `fstart` in `fused`,
/// tagged with the `pc` it was translated at; `n == 0` marks a slot
/// never filled.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    pc: u64,
    /// The summed cost of the block's instructions.
    cycles: u64,
    /// The fall-through `pc`, just past the block's last instruction.
    next: u64,
    /// Where the stack window starts, relative to the entry `sp`.
    lo: i64,
    start: u32,
    n: u32,
    fstart: u32,
    nfused: u16,
    /// Bytes the window spans; 0 when the block has no fused form.
    span: u16,
}

/// The blocks a VM has translated, their instructions and their fused
/// forms.
#[derive(Debug, Clone, Default)]
struct BlockTable {
    slots: Vec<Block>,
    ops: Vec<Op>,
    fused: Vec<Fused>,
}

impl BlockTable {
    /// The block starting at `pc`: the slot's, when its tag says it is
    /// this pc's, else translated into the slot first.
    #[inline]
    fn get(&mut self, isa: Isa, mem: &Memory, pc: u64) -> Result<Block, VmFault> {
        let slot = pc as usize % BLOCK_SLOTS;
        match self.slots.get(slot) {
            Some(b) if b.pc == pc && b.n != 0 => Ok(*b),
            _ => self.translate(isa, mem, pc, slot),
        }
    }

    #[cold]
    fn translate(
        &mut self,
        isa: Isa,
        mem: &Memory,
        pc: u64,
        slot: usize,
    ) -> Result<Block, VmFault> {
        if self.ops.len() + BLOCK_CAP > OPS_LIMIT {
            self.clear();
        }
        self.slots.resize(BLOCK_SLOTS, Block::default()); // allocates on the first translation only
        let start = self.ops.len();
        let (mut at, mut cycles) = (pc, 0);
        while self.ops.len() - start < BLOCK_CAP {
            let mut buf = [0u8; 16];
            mem.read_bytes(at, &mut buf);
            let (ins, len) = match decode(isa, at, &buf) {
                Ok(d) => d,
                Err(err) if at == pc => return Err(VmFault::Decode { pc, err }),
                Err(_) => break, // faults when it is reached
            };
            let cost = cost::cycles(isa, &ins);
            self.ops.push(Op { ins, pc: at, cost: cost as u32 });
            cycles += cost;
            at = at.wrapping_add(len as u64);
            if matches!(
                ins,
                MInstr::Jmp { .. }
                    | MInstr::JCond { .. }
                    | MInstr::Call { .. }
                    | MInstr::CallReg { .. }
                    | MInstr::Ret
                    | MInstr::Hlt
            ) {
                break;
            }
        }
        let n = (self.ops.len() - start) as u32;
        let fstart = self.fused.len();
        let (lo, span) = fuse(isa, &self.ops[start..], &mut self.fused);
        let nfused = (self.fused.len() - fstart) as u16;
        self.slots[slot] = Block {
            pc,
            cycles,
            next: at,
            lo,
            start: start as u32,
            n,
            fstart: fstart as u32,
            nfused,
            span,
        };
        Ok(self.slots[slot])
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.ops.clear();
        self.fused.clear();
    }
}

/// Appends the fused form of the block `ops` to `out`, and returns where
/// its stack window starts relative to the entry `sp` and how many bytes
/// it spans.
///
/// Each `sp`-relative load and store is placed relative to the entry `sp`
/// by following the block's static `sp` moves; after a `leave`, `sp`
/// comes from memory and nothing more is windowed. Quads are matched
/// first, then `mov; st` pairs, then lone windowed loads and stores;
/// every other instruction is a [`Fused::One`]. A block with no such
/// access, or whose accesses span more than a page, gets no fused form:
/// `(0, 0)`, and nothing appended.
fn fuse(isa: Isa, ops: &[Op], out: &mut Vec<Fused>) -> (i64, u16) {
    // Offset from the entry `sp` of each access that can be windowed.
    let mut woff = [None; BLOCK_CAP];
    let mut sp = Some(0i64);
    for (i, op) in ops.iter().enumerate() {
        match op.ins {
            MInstr::LoadSp { off, .. } | MInstr::StoreSp { off, .. } => {
                woff[i] = sp.map(|sp| sp + i64::from(off));
            }
            MInstr::Enter { frame } => {
                let record = match isa {
                    Isa::Xar86 => 8,
                    Isa::Arm64e => 16,
                };
                sp = sp.map(|sp| sp - record - i64::from(frame));
            }
            MInstr::AddSp { imm } => sp = sp.map(|sp| sp + i64::from(imm)),
            MInstr::Push { .. } => sp = sp.map(|sp| sp - 8),
            MInstr::Pop { .. } => sp = sp.map(|sp| sp + 8),
            MInstr::Leave => sp = None,
            _ => {}
        }
    }
    let (lo, hi) =
        woff.iter().flatten().fold((i64::MAX, i64::MIN), |(lo, hi), &w| (lo.min(w), hi.max(w + 8)));
    if lo > hi || hi - lo > PAGE_SIZE as i64 {
        return (0, 0);
    }
    // Each access's offset in the window, which `at + 8 <= span` bounds.
    let at = woff.map(|w| w.map(|w| (w - lo) as u16));
    let mut i = 0;
    while i < ops.len() {
        let w = |k: usize| ops.get(i + k).map(|op| (op.ins, at[i + k]));
        let (step, len) = match (w(0), w(1), w(2), w(3)) {
            (
                Some((MInstr::LoadSp { dst: ld0, .. }, Some(a))),
                Some((MInstr::LoadSp { dst: ld1, .. }, Some(b))),
                Some((MInstr::Alu { op, dst, lhs, rhs }, _)),
                Some((MInstr::StoreSp { src, .. }, Some(c))),
            ) if !matches!(op, AluOp::Div | AluOp::Rem) => {
                (Fused::Quad { op, ld: [ld0, ld1], dst, lhs, rhs, src, at: [a, b, c] }, 4)
            }
            (
                Some((MInstr::MovImm { dst, imm }, _)),
                Some((MInstr::StoreSp { src, .. }, Some(at))),
                ..,
            ) => (Fused::MovSt { dst, src, at, imm }, 2),
            (Some((MInstr::LoadSp { dst, .. }, Some(at))), ..) => (Fused::Ld { dst, at }, 1),
            (Some((MInstr::StoreSp { src, .. }, Some(at))), ..) => (Fused::St { src, at }, 1),
            (Some((ins, _)), ..) => (Fused::One { ins, i: i as u16 }, 1),
            (None, ..) => unreachable!("i < ops.len()"),
        };
        out.push(step);
        i += len;
    }
    (lo, (hi - lo) as u16)
}

/// Why [`Vm::step`] did not run on to the next instruction.
enum Stop {
    Hlt,
    DivFault,
}

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
    blocks: BlockTable,
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
            blocks: BlockTable::default(),
        }
    }

    /// Elapsed virtual time in nanoseconds, from cycles and the ISA clock.
    pub fn elapsed_ns(&self) -> f64 {
        self.cycles as f64 / self.isa.clock_ghz()
    }

    /// Empties the block table (required if code memory is rewritten).
    pub fn invalidate_code(&mut self) {
        self.blocks.clear();
    }

    /// Runs until a trap or fault, executing at most `fuel` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`VmFault`] if the guest decodes or divides invalidly. The
    /// faulting instruction does not retire: `pc` is its address, and
    /// `cycles`, `instret` and the registers are what it found, so `run`
    /// can be called again once the cause is repaired.
    pub fn run(&mut self, mem: &mut Memory, fuel: u64) -> Result<Trap, VmFault> {
        // Out of `self` for the call, so that a block's ops stay borrowed
        // while `step` borrows the rest of the VM.
        let mut blocks = std::mem::take(&mut self.blocks);
        let end = self.run_blocks(&mut blocks, mem, fuel);
        self.blocks = blocks;
        end
    }

    fn run_blocks(
        &mut self,
        blocks: &mut BlockTable,
        mem: &mut Memory,
        fuel: u64,
    ) -> Result<Trap, VmFault> {
        let mut left = fuel;
        while left > 0 {
            let b = blocks.get(self.isa, mem, self.pc)?;
            let ops = &blocks.ops[b.start as usize..][..b.n as usize];
            // Set by the block's last instruction when it transfers control.
            let (mut next, mut link) = (b.next, false);
            // The fused form runs when the whole block retires and its
            // stack window is in one resident page.
            let win = match left >= b.n as u64 && b.span != 0 {
                true => mem.window(self.sp.wrapping_add(b.lo as u64), b.span.into()),
                false => None,
            };
            if let Some(win) = win {
                // SAFETY: called with the `at`s of this block's fused form
                // only, each of which `fuse` keeps within `at + 8 <= span`,
                // the window's length; and within this call, which holds
                // `mem` (so it lives) throughout.
                let load = |at: u16| unsafe { win.read_i64(at.into()) };
                // SAFETY: as for `load`.
                let store = |at: u16, val: i64| unsafe { win.write_i64(at.into(), val) };
                for &f in &blocks.fused[b.fstart as usize..][..b.nfused as usize] {
                    match f {
                        Fused::Quad { op, ld, dst, lhs, rhs, src, at } => {
                            self.regs[ld[0].0 as usize] = load(at[0]);
                            self.regs[ld[1].0 as usize] = load(at[1]);
                            let (l, r) = (self.regs[lhs.0 as usize], self.regs[rhs.0 as usize]);
                            let Some(val) = op.eval(l, r) else {
                                unreachable!("no quad divides");
                            };
                            self.regs[dst.0 as usize] = val;
                            store(at[2], self.regs[src.0 as usize]);
                        }
                        Fused::MovSt { dst, src, at, imm } => {
                            self.regs[dst.0 as usize] = imm;
                            store(at, self.regs[src.0 as usize]);
                        }
                        Fused::Ld { dst, at } => self.regs[dst.0 as usize] = load(at),
                        Fused::St { src, at } => store(at, self.regs[src.0 as usize]),
                        Fused::One { ins, i } => {
                            if let Err(stop) = self.step(mem, ins, &mut next, &mut link) {
                                return self.stop(&b, ops, i.into(), stop);
                            }
                        }
                    }
                }
            } else {
                // Instruction by instruction, through `Memory`: a block
                // the fuel cuts short, one with no fused form, or one
                // whose window straddles a page edge or is not resident.
                let k = left.min(b.n as u64) as usize;
                for (i, op) in ops[..k].iter().enumerate() {
                    if let Err(stop) = self.step(mem, op.ins, &mut next, &mut link) {
                        return self.stop(&b, ops, i, stop);
                    }
                }
                if k < ops.len() {
                    self.retire_prefix(ops, k);
                    return Ok(Trap::OutOfFuel);
                }
            }
            left -= b.n as u64;
            if link {
                let ret_to = b.next;
                if (RUNTIME_CALL_BASE..RUNTIME_CALL_END).contains(&next) {
                    self.retire(&b, ret_to);
                    return Ok(Trap::RuntimeCall { addr: next, ret_to });
                }
                match self.isa {
                    Isa::Xar86 => {
                        self.sp = self.sp.wrapping_sub(8);
                        mem.write_u64(self.sp, ret_to);
                    }
                    Isa::Arm64e => self.lr = ret_to,
                }
            }
            self.retire(&b, next);
        }
        Ok(Trap::OutOfFuel)
    }

    /// Runs one instruction: the body a block's two forms share. A
    /// control transfer sets `next` (and `link`, for a call); `hlt` and a
    /// division that faults end the block (see `stop`), the latter
    /// without writing its destination.
    #[inline(always)]
    fn step(
        &mut self,
        mem: &mut Memory,
        ins: MInstr,
        next: &mut u64,
        link: &mut bool,
    ) -> Result<(), Stop> {
        match ins {
            MInstr::MovImm { dst, imm } => self.regs[dst.0 as usize] = imm,
            MInstr::MovReg { dst, src } => self.regs[dst.0 as usize] = self.regs[src.0 as usize],
            MInstr::Alu { op, dst, lhs, rhs } => {
                let l = self.regs[lhs.0 as usize];
                let r = self.regs[rhs.0 as usize];
                self.regs[dst.0 as usize] = op.eval(l, r).ok_or(Stop::DivFault)?;
            }
            MInstr::AluImm { op, dst, lhs, imm } => {
                let l = self.regs[lhs.0 as usize];
                self.regs[dst.0 as usize] = op.eval(l, imm as i64).ok_or(Stop::DivFault)?;
            }
            MInstr::FAlu { op, dst, lhs, rhs } => {
                let l = self.fregs[lhs.0 as usize];
                let r = self.fregs[rhs.0 as usize];
                self.fregs[dst.0 as usize] = op.eval(l, r);
            }
            MInstr::FMovImm { dst, imm } => self.fregs[dst.0 as usize] = imm,
            MInstr::FMovReg { dst, src } => self.fregs[dst.0 as usize] = self.fregs[src.0 as usize],
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
                self.regs[dst.0 as usize] = mem.read_i64(self.sp.wrapping_add(off as i64 as u64));
            }
            MInstr::StoreSp { src, off } => {
                mem.write_i64(self.sp.wrapping_add(off as i64 as u64), self.regs[src.0 as usize]);
            }
            MInstr::FLoadSp { dst, off } => {
                self.fregs[dst.0 as usize] = mem.read_f64(self.sp.wrapping_add(off as i64 as u64));
            }
            MInstr::FStoreSp { src, off } => {
                mem.write_f64(self.sp.wrapping_add(off as i64 as u64), self.fregs[src.0 as usize]);
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
                self.flags = Flags::Int(self.regs[lhs.0 as usize].cmp(&self.regs[rhs.0 as usize]));
            }
            MInstr::CmpImm { lhs, imm } => {
                self.flags = Flags::Int(self.regs[lhs.0 as usize].cmp(&(imm as i64)));
            }
            MInstr::FCmp { lhs, rhs } => {
                self.flags = Flags::Float(
                    self.fregs[lhs.0 as usize].partial_cmp(&self.fregs[rhs.0 as usize]),
                );
            }
            MInstr::Jmp { target } => *next = target,
            MInstr::JCond { cond, target } => {
                if self.flags.eval(cond) {
                    *next = target;
                }
            }
            MInstr::Call { target } => (*next, *link) = (target, true),
            MInstr::CallReg { target } => {
                (*next, *link) = (self.regs[target.0 as usize] as u64, true)
            }
            MInstr::Ret => match self.isa {
                Isa::Xar86 => {
                    *next = mem.read_u64(self.sp);
                    self.sp = self.sp.wrapping_add(8);
                }
                Isa::Arm64e => *next = self.lr,
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
            MInstr::Hlt => return Err(Stop::Hlt),
        }
        Ok(())
    }

    /// Ends the run at the block's `i`th instruction, which stopped it.
    #[cold]
    fn stop(&mut self, b: &Block, ops: &[Op], i: usize, stop: Stop) -> Result<Trap, VmFault> {
        match stop {
            Stop::Hlt => {
                self.retire(b, b.next);
                Ok(Trap::Hlt)
            }
            Stop::DivFault => Err(VmFault::DivFault { pc: self.retire_prefix(ops, i) }),
        }
    }

    /// Retires all of `b` and continues at `next`.
    #[inline]
    fn retire(&mut self, b: &Block, next: u64) {
        self.instret += b.n as u64;
        self.cycles += b.cycles;
        self.pc = next;
    }

    /// Retires the first `k` of a block's `ops` only and stops at the
    /// next one, which the fuel did not reach or which faulted; returns
    /// its `pc`.
    #[cold]
    fn retire_prefix(&mut self, ops: &[Op], k: usize) -> u64 {
        self.instret += k as u64;
        self.cycles += ops[..k].iter().map(|op| op.cost as u64).sum::<u64>();
        self.pc = ops[k].pc;
        self.pc
    }
}

#[cfg(test)]
mod fusion_tests;

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
        // `jmp` at TEXT and `mov` at TEXT + k * BLOCK_SLOTS share slot
        // TEXT % BLOCK_SLOTS; running the pair repeatedly makes each
        // evict the other, and the tag check must keep them apart.
        for isa in Isa::ALL {
            let far = TEXT + 3 * BLOCK_SLOTS as u64;
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
        // executor one per run: the table must not exist until a block is
        // translated.
        let mut vm = Vm::new(Isa::Xar86);
        assert_eq!(vm.blocks.slots.capacity(), 0);
        assert_eq!(vm.clone().blocks.slots.capacity(), 0);
        let mut mem = Memory::new();
        mem.load_image(TEXT, &assemble(Isa::Xar86, TEXT, &[MInstr::Hlt]).unwrap());
        vm.pc = TEXT;
        vm.run(&mut mem, 1).unwrap();
        assert_eq!(vm.blocks.slots.len(), BLOCK_SLOTS);
        vm.invalidate_code();
        assert!(vm.blocks.slots.is_empty());
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

    /// Bytes `prog` takes on `isa`.
    fn size(isa: Isa, prog: &[MInstr]) -> u64 {
        prog.iter().map(|m| crate::encode::encoded_size(isa, m) as u64).sum()
    }

    /// The cost model summed over `trace`.
    fn cost_of(isa: Isa, trace: &[MInstr]) -> u64 {
        trace.iter().map(|m| cost::cycles(isa, m)).sum()
    }

    /// A VM at `TEXT` with `prog` loaded and the stack at `STACK`.
    fn load(isa: Isa, prog: &[MInstr]) -> (Vm, Memory) {
        let mut mem = Memory::new();
        mem.load_image(TEXT, &assemble(isa, TEXT, prog).expect("assemble"));
        let mut vm = Vm::new(isa);
        (vm.pc, vm.sp) = (TEXT, STACK);
        (vm, mem)
    }

    /// A page edge the seeded programs load and store across.
    const EDGE: u64 = 0x5000_1000;

    /// More fuel than any seeded program retires: one `run` call.
    const ENOUGH: u64 = 1 << 20;

    /// A seeded program: a counted loop whose body mixes ALU ops,
    /// divisions, loads and stores across `EDGE`, stack slots and calls
    /// to a function with a frame, sometimes longer than a block. Odd
    /// seeds end in a division by zero instead of at `hlt`.
    fn seeded_program(isa: Isa, seed: u64) -> Vec<MInstr> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (base, count, divisor, zero) = (Reg(1), Reg(2), Reg(9), Reg(10));
        let work = |r: u64| Reg(3 + r as u8);
        let sizes = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
        let mut prog = vec![
            MInstr::MovImm { dst: base, imm: EDGE as i64 - 4 },
            MInstr::MovImm { dst: count, imm: 2 + rnd(4) as i64 },
            MInstr::MovImm { dst: divisor, imm: [3, 7, -5][rnd(3) as usize] },
            MInstr::MovImm { dst: zero, imm: 0 },
        ];
        for r in 0..6 {
            prog.push(MInstr::MovImm { dst: work(r), imm: rnd(1000) as i64 - 500 });
        }
        let loop_start = TEXT + size(isa, &prog);
        for _ in 0..1 + rnd(2 * BLOCK_CAP as u64) {
            let (w, v) = (work(rnd(6)), work(rnd(6)));
            let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor];
            let off = rnd(13) as i32 - 8;
            prog.push(match rnd(8) {
                0 => MInstr::AluImm {
                    op: ops[rnd(4) as usize],
                    dst: w,
                    lhs: w,
                    imm: rnd(100) as i32 - 50,
                },
                1 => MInstr::Alu { op: ops[rnd(4) as usize], dst: w, lhs: w, rhs: v },
                2 => MInstr::Alu {
                    op: [AluOp::Div, AluOp::Rem][rnd(2) as usize],
                    dst: w,
                    lhs: w,
                    rhs: divisor,
                },
                3 => MInstr::Store { src: w, base, off, size: sizes[rnd(4) as usize] },
                4 => MInstr::Load { dst: w, base, off, size: sizes[rnd(4) as usize] },
                5 => MInstr::StoreSp { src: w, off: 8 * rnd(8) as i32 },
                6 => MInstr::LoadSp { dst: w, off: 8 * rnd(8) as i32 },
                _ => MInstr::Call { target: 0 }, // patched to `f` below
            });
        }
        prog.extend([
            MInstr::AluImm { op: AluOp::Sub, dst: count, lhs: count, imm: 1 },
            MInstr::CmpImm { lhs: count, imm: 0 },
            MInstr::JCond { cond: Cond::Gt, target: loop_start },
        ]);
        if seed % 2 == 1 {
            prog.push(MInstr::Alu { op: AluOp::Div, dst: work(0), lhs: work(0), rhs: zero });
        }
        prog.push(MInstr::Hlt);
        let f = TEXT + size(isa, &prog);
        for ins in &mut prog {
            if let MInstr::Call { target } = ins {
                *target = f;
            }
        }
        prog.extend([
            MInstr::Enter { frame: 16 },
            MInstr::StoreSp { src: work(0), off: 0 },
            MInstr::AluImm { op: AluOp::Add, dst: work(1), lhs: work(1), imm: 5 },
            MInstr::LoadSp { dst: work(2), off: 0 },
            MInstr::Leave,
            MInstr::Ret,
        ]);
        prog
    }

    /// Everything a run leaves behind that a guest or the executor reads.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        end: Result<Trap, VmFault>,
        regs: [i64; 32],
        flags: Flags,
        pc_sp_fp_lr: [u64; 4],
        instret: u64,
        cycles: u64,
        edge: Vec<u8>,
        stack: Vec<u8>,
    }

    /// Runs `prog` to its end, `fuel` instructions per `run` call. With
    /// `fuel == 1`, also checks each step's cycles against the cost
    /// model of the instruction at the step's `pc`.
    fn run_sliced(isa: Isa, prog: &[MInstr], fuel: u64) -> Outcome {
        let (mut vm, mut mem) = load(isa, prog);
        let end = loop {
            assert!(vm.instret < ENOUGH, "{isa}: the guest runs away");
            let (pc, cycles) = (vm.pc, vm.cycles);
            match vm.run(&mut mem, fuel) {
                Ok(Trap::OutOfFuel) => {}
                end => break end,
            }
            if fuel == 1 {
                let (ins, _) = decode(isa, pc, &mem.dump(pc, 16)).unwrap();
                assert_eq!(vm.cycles - cycles, cost::cycles(isa, &ins), "{isa} at {pc:#x}");
            }
        };
        Outcome {
            end,
            regs: vm.regs,
            flags: vm.flags,
            pc_sp_fp_lr: [vm.pc, vm.sp, vm.fp, vm.lr],
            instret: vm.instret,
            cycles: vm.cycles,
            edge: mem.dump(EDGE - 16, 32),
            stack: mem.dump(STACK - 256, 320),
        }
    }

    #[test]
    fn fuel_slicing_never_changes_a_run() {
        // Blocks cut by fuel at every offset, resumed mid-block, and runs
        // that end in a fault must all match the unsliced run.
        for (isa, seed) in Isa::ALL.into_iter().flat_map(|isa| (0..12).map(move |s| (isa, s))) {
            let prog = seeded_program(isa, seed);
            let whole = run_sliced(isa, &prog, ENOUGH);
            match whole.end {
                Ok(Trap::Hlt) => assert_eq!(seed % 2, 0, "{isa} seed {seed}"),
                Err(VmFault::DivFault { .. }) => assert_eq!(seed % 2, 1, "{isa} seed {seed}"),
                ref other => panic!("{isa} seed {seed}: {other:?}"),
            }
            for fuel in [1, 2, 3, 7, BLOCK_CAP as u64] {
                assert_eq!(run_sliced(isa, &prog, fuel), whole, "{isa} seed {seed} fuel {fuel}");
            }
        }
    }

    #[test]
    fn a_jump_into_a_translated_block_gets_a_block_of_its_own() {
        // The block at TEXT runs through the loop body; the back edge
        // enters it at `body`, two instructions in.
        for isa in Isa::ALL {
            let head =
                [MInstr::MovImm { dst: Reg(0), imm: 0 }, MInstr::MovImm { dst: Reg(1), imm: 3 }];
            let body = TEXT + size(isa, &head);
            let looped = [
                MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 10 },
                MInstr::AluImm { op: AluOp::Sub, dst: Reg(1), lhs: Reg(1), imm: 1 },
                MInstr::CmpImm { lhs: Reg(1), imm: 0 },
                MInstr::JCond { cond: Cond::Gt, target: body },
            ];
            let prog = [&head[..], &looped, &[MInstr::Hlt]].concat();
            let (mut vm, mut mem) = load(isa, &prog);
            let trace = [&head[..], &looped, &looped, &looped, &[MInstr::Hlt]].concat();
            for round in 1..=2 {
                assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt), "{isa}");
                assert_eq!(vm.regs[..2], [30, 0], "{isa} round {round}");
                assert_eq!(vm.pc, TEXT + size(isa, &prog), "{isa} round {round}");
                assert_eq!(vm.instret, round * trace.len() as u64, "{isa} round {round}");
                assert_eq!(vm.cycles, round * cost_of(isa, &trace), "{isa} round {round}");
                vm.pc = TEXT;
            }
            // Entering at the interior pc first, and at the start next,
            // serves each entry its own block.
            let (mut vm, mut mem) = load(isa, &prog);
            (vm.pc, vm.regs[1]) = (body, 1);
            assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt));
            assert_eq!((vm.regs[0], vm.instret), (10, looped.len() as u64 + 1), "{isa}");
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt));
            assert_eq!(vm.regs[..2], [30, 0], "{isa}");
            assert_eq!(vm.instret, looped.len() as u64 + 1 + trace.len() as u64, "{isa}");
        }
    }

    #[test]
    fn a_straight_line_longer_than_a_block_runs_as_several() {
        for isa in Isa::ALL {
            let add = MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 };
            let n = 2 * BLOCK_CAP + 5;
            let prog = [vec![add; n], vec![MInstr::Hlt]].concat();
            let (mut vm, mut mem) = load(isa, &prog);
            assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt), "{isa}");
            assert_eq!(vm.regs[0], n as i64, "{isa}");
            assert_eq!((vm.instret, vm.cycles), (n as u64 + 1, cost_of(isa, &prog)), "{isa}");
            assert_eq!(vm.pc, TEXT + size(isa, &prog), "{isa}");
            // Fuel that ends one instruction past the first block's cap.
            let (mut vm, mut mem) = load(isa, &prog);
            let k = BLOCK_CAP + 1;
            assert_eq!(vm.run(&mut mem, k as u64), Ok(Trap::OutOfFuel), "{isa}");
            assert_eq!(vm.regs[0], k as i64, "{isa}");
            assert_eq!((vm.instret, vm.cycles), (k as u64, cost_of(isa, &prog[..k])), "{isa}");
            assert_eq!(vm.pc, TEXT + size(isa, &prog[..k]), "{isa}");
            assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt), "{isa}");
            assert_eq!((vm.instret, vm.cycles), (n as u64 + 1, cost_of(isa, &prog)), "{isa}");
        }
    }

    #[test]
    fn a_decode_fault_after_a_valid_prefix_retires_exactly_the_prefix() {
        for isa in Isa::ALL {
            let prefix = [
                MInstr::MovImm { dst: Reg(0), imm: 4 },
                MInstr::AluImm { op: AluOp::Mul, dst: Reg(0), lhs: Reg(0), imm: 3 },
                MInstr::MovImm { dst: Reg(1), imm: 9 },
                MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 },
                MInstr::MovImm { dst: Reg(2), imm: -1 },
            ];
            let (k, bad) = (prefix.len() as u64, TEXT + size(isa, &prefix));
            let (mut vm, mut mem) = load(isa, &prefix);
            mem.load_image(bad, &[0xFF; 4]);
            let fault = Err(VmFault::Decode { pc: bad, err: DecodeError::BadOpcode(0xFF) });
            assert_eq!(vm.run(&mut mem, 100), fault, "{isa}");
            assert_eq!((vm.pc, vm.instret, vm.cycles), (bad, k, cost_of(isa, &prefix)), "{isa}");
            assert_eq!(vm.regs[..3], [13, 9, -1], "{isa}");
            // At the bad pc, and again through the translated prefix.
            assert_eq!(vm.run(&mut mem, 100), fault, "{isa}");
            assert_eq!((vm.pc, vm.instret), (bad, k), "{isa}");
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 100), fault, "{isa}");
            assert_eq!((vm.pc, vm.instret, vm.regs[0]), (bad, 2 * k, 13), "{isa}");
            mem.load_image(bad, &assemble(isa, bad, &[MInstr::Hlt]).unwrap());
            vm.invalidate_code();
            vm.pc = TEXT;
            assert_eq!(vm.run(&mut mem, 100), Ok(Trap::Hlt), "{isa}");
            assert_eq!(vm.instret, 3 * k + 1, "{isa}");
            let cycles = 3 * cost_of(isa, &prefix) + cost::cycles(isa, &MInstr::Hlt);
            assert_eq!(vm.cycles, cycles, "{isa}");
        }
    }

    #[test]
    fn a_runtime_call_trap_is_fully_accounted_when_it_returns() {
        // The call sits mid-block, so the trap ends a block; the executor
        // reads `elapsed_ns` at the trap, and resuming at `ret_to` must
        // neither drop nor count anything twice.
        for isa in Isa::ALL {
            let before = [
                MInstr::MovImm { dst: Reg(0), imm: 1 },
                MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 2 },
                MInstr::MovImm { dst: Reg(1), imm: RUNTIME_CALL_BASE as i64 + 8 },
            ];
            let calls =
                [MInstr::Call { target: RUNTIME_CALL_BASE }, MInstr::CallReg { target: Reg(1) }];
            let after =
                [MInstr::AluImm { op: AluOp::Mul, dst: Reg(0), lhs: Reg(0), imm: 5 }, MInstr::Hlt];
            let prog = [&before[..], &calls[..1], &after[..1], &calls[1..], &after].concat();
            let (mut vm, mut mem) = load(isa, &prog);
            let (sp, lr) = (vm.sp, vm.lr);
            let mut at = before.len();
            for (addr, call) in [(RUNTIME_CALL_BASE, 0), (RUNTIME_CALL_BASE + 8, 1)] {
                at += 1;
                let ret_to = TEXT + size(isa, &prog[..at]);
                let trap = vm.run(&mut mem, 1000);
                assert_eq!(trap, Ok(Trap::RuntimeCall { addr, ret_to }), "{isa} call {call}");
                assert_eq!((vm.pc, vm.sp, vm.lr), (ret_to, sp, lr), "{isa} call {call}");
                assert_eq!(vm.instret, at as u64, "{isa} call {call}");
                assert_eq!(vm.cycles, cost_of(isa, &prog[..at]), "{isa} call {call}");
                assert_eq!(vm.elapsed_ns(), vm.cycles as f64 / isa.clock_ghz());
                at += 1;
            }
            assert_eq!(vm.run(&mut mem, 1000), Ok(Trap::Hlt), "{isa}");
            assert_eq!(vm.regs[0], 75, "{isa}");
            assert_eq!((vm.instret, vm.cycles), (prog.len() as u64, cost_of(isa, &prog)), "{isa}");
        }
    }

    #[test]
    fn aliasing_blocks_that_evict_each_other_forever_stay_bounded_and_correct() {
        // A guest loop whose two halves share a slot: every entry
        // translates again, so the table starts over many times.
        for isa in Isa::ALL {
            let far = TEXT + BLOCK_SLOTS as u64;
            let mut mem = Memory::new();
            let near = [
                MInstr::AluImm { op: AluOp::Add, dst: Reg(0), lhs: Reg(0), imm: 1 },
                MInstr::Jmp { target: far },
            ];
            mem.load_image(TEXT, &assemble(isa, TEXT, &near).unwrap());
            let back = [
                MInstr::AluImm { op: AluOp::Sub, dst: Reg(1), lhs: Reg(1), imm: 1 },
                MInstr::CmpImm { lhs: Reg(1), imm: 0 },
                MInstr::JCond { cond: Cond::Gt, target: TEXT },
                MInstr::Hlt,
            ];
            mem.load_image(far, &assemble(isa, far, &back).unwrap());
            let rounds = 2 * OPS_LIMIT as i64 / 5;
            let mut vm = Vm::new(isa);
            (vm.pc, vm.regs[1]) = (TEXT, rounds);
            assert_eq!(vm.run(&mut mem, 6 * rounds as u64), Ok(Trap::Hlt), "{isa}");
            assert_eq!(vm.regs[..2], [rounds, 0], "{isa}");
            assert_eq!(vm.instret, 5 * rounds as u64 + 1, "{isa}");
            assert!(vm.blocks.ops.len() <= OPS_LIMIT, "{isa}: {}", vm.blocks.ops.len());
        }
    }
}
