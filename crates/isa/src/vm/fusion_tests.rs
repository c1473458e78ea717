//! A block's fused form against the per-instruction path. Random
//! programs biased toward the code generator's spill shapes run once
//! with ample fuel (whole blocks, fused) and once an instruction per
//! `run` call (every block cut by the fuel, so instruction by
//! instruction), and must end in the same state to the byte. Then the
//! stack window's edges, each by name.

use super::*;
use crate::encode::encoded_size;
use crate::instr::{Cond, MemSize};
use crate::{assemble, FReg};

const TEXT: u64 = 0x40_0000;
/// The programs' stacks start in the pages from here.
const STACK: u64 = 0x7000_0000;
/// More fuel than any program here retires: one `run` call.
const ENOUGH: u64 = 1 << 20;

/// Registers the generator writes at random are `Reg(0)..Reg(POOL)`; the
/// ones above it keep their roles for the whole program.
const POOL: u8 = 10;
/// A nonzero divisor.
const DIVISOR: Reg = Reg(10);
/// A heap pointer derived from `sp` by `mov rX, sp; add rX, #k`.
const PTR: Reg = Reg(11);
const ZERO: Reg = Reg(12);
/// The outer loop's counter.
const COUNT: Reg = Reg(13);

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pct(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    fn reg(&mut self) -> Reg {
        Reg(self.below(POOL.into()) as u8)
    }

    /// An `sp` offset: mostly an aligned slot of a small frame, sometimes
    /// unaligned, sometimes below `sp`.
    fn slot(&mut self) -> i32 {
        match self.below(10) {
            0 => self.below(300) as i32 - 40,
            _ => 8 * self.below(36) as i32 - 40,
        }
    }

    fn alu_op(&mut self) -> AluOp {
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Xor, AluOp::Shr];
        ops[self.below(ops.len() as u64) as usize]
    }
}

/// A random program and the state it starts in.
struct Case {
    isa: Isa,
    prog: Vec<MInstr>,
    sp: u64,
    fp: u64,
    /// Addresses whose pages exist before the run.
    touched: Vec<u64>,
}

/// `dst = lhs op rhs`, in a form `isa` encodes (Xar86 is two-operand).
fn alu(isa: Isa, op: AluOp, dst: Reg, lhs: Reg, rhs: Reg) -> MInstr {
    match isa {
        Isa::Xar86 => MInstr::Alu { op, dst: lhs, lhs, rhs },
        Isa::Arm64e => MInstr::Alu { op, dst, lhs, rhs },
    }
}

/// Appends one random item: mostly the code generator's shapes (a quad,
/// `mov; st`, lone spills), with frames, `sp` moves, heap accesses into
/// the frame through an `sp`-derived pointer, and the odd division.
fn item(isa: Isa, rng: &mut Rng, prog: &mut Vec<MInstr>, open_frames: &mut u32) {
    let (a, b) = (rng.reg(), rng.reg());
    match rng.below(100) {
        0..=29 => {
            let op = match rng.below(60) {
                0 => [AluOp::Div, AluOp::Rem][rng.below(2) as usize], // faults if `b` is 0
                _ => rng.alu_op(),
            };
            let dst = rng.reg();
            let ins = alu(isa, op, dst, a, b);
            let MInstr::Alu { dst, .. } = ins else { unreachable!() };
            let src = if rng.pct(85) { dst } else { rng.reg() };
            prog.extend([
                MInstr::LoadSp { dst: a, off: rng.slot() },
                MInstr::LoadSp { dst: b, off: rng.slot() },
                ins,
                MInstr::StoreSp { src, off: rng.slot() },
            ]);
        }
        30..=39 => {
            let imm = rng.below(1 << 40) as i64 - (1 << 39);
            let src = if rng.pct(85) { a } else { b };
            prog.extend([MInstr::MovImm { dst: a, imm }, MInstr::StoreSp { src, off: rng.slot() }]);
        }
        40..=49 => prog.push(MInstr::LoadSp { dst: a, off: rng.slot() }),
        50..=59 => prog.push(MInstr::StoreSp { src: a, off: rng.slot() }),
        60..=64 => {
            let op = rng.alu_op();
            match rng.below(2) {
                0 => prog.push(alu(isa, op, rng.reg(), a, b)),
                _ => prog.push(MInstr::AluImm { op, dst: a, lhs: a, imm: rng.below(64) as i32 }),
            }
        }
        65..=67 => {
            let op = [AluOp::Div, AluOp::Rem][rng.below(2) as usize];
            prog.push(alu(isa, op, a, a, DIVISOR));
        }
        68 if rng.pct(30) => match rng.below(2) {
            0 => prog.push(alu(isa, AluOp::Div, a, a, ZERO)),
            _ => prog.push(MInstr::AluImm { op: AluOp::Rem, dst: a, lhs: a, imm: 0 }),
        },
        69..=73 => {
            let size = MemSize::ALL[rng.below(4) as usize];
            let off = rng.below(16) as i32 - 8;
            prog.extend([
                MInstr::MovFromSp { dst: PTR },
                MInstr::AluImm { op: AluOp::Add, dst: PTR, lhs: PTR, imm: rng.slot() },
            ]);
            prog.push(match rng.below(2) {
                0 => MInstr::Store { src: a, base: PTR, off, size },
                _ => MInstr::Load { dst: a, base: PTR, off, size },
            });
        }
        74..=77 => {
            prog.push(MInstr::Enter { frame: 8 * rng.below(40) as i32 });
            *open_frames += 1;
        }
        78..=80 if *open_frames > 0 || rng.pct(10) => {
            prog.push(MInstr::Leave);
            *open_frames = open_frames.saturating_sub(1);
        }
        81..=83 => prog.push(MInstr::AddSp { imm: 8 * rng.below(16) as i32 - 64 }),
        84..=86 if isa == Isa::Xar86 => match rng.below(2) {
            0 => prog.push(MInstr::Push { src: a }),
            _ => prog.push(MInstr::Pop { dst: a }),
        },
        87..=89 => {
            let f = FReg(rng.below(4) as u8);
            prog.push(match rng.below(3) {
                0 => MInstr::FMovImm { dst: f, imm: rng.below(1000) as f64 / 7.0 },
                1 => MInstr::FStoreSp { src: f, off: rng.slot() },
                _ => MInstr::FLoadSp { dst: f, off: rng.slot() },
            });
        }
        90..=92 => prog.push(MInstr::Cmp { lhs: a, rhs: b }),
        93..=95 => prog.push(MInstr::MovFromSp { dst: a }),
        _ => prog.push(MInstr::MovReg { dst: a, src: b }),
    }
}

/// Bytes `prog` takes on `isa`.
fn size(isa: Isa, prog: &[MInstr]) -> u64 {
    prog.iter().map(|m| encoded_size(isa, m) as u64).sum()
}

/// A loop over a few straight-line segments of random items. A segment
/// may end in a branch to the next one's start or into its second
/// instruction, which can be the middle of a quad.
fn random_case(isa: Isa, seed: u64) -> Case {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut prog = vec![
        MInstr::MovImm { dst: COUNT, imm: 1 + rng.below(3) as i64 },
        MInstr::MovImm { dst: ZERO, imm: 0 },
        MInstr::MovImm { dst: DIVISOR, imm: [3, -7, 1 << 20][rng.below(3) as usize] },
    ];
    for r in 0..POOL {
        prog.push(MInstr::MovImm { dst: Reg(r), imm: rng.below(2000) as i64 - 1000 });
    }
    let body = prog.len();
    // (index of a branch, index of the instruction it targets)
    let (mut patches, mut pending) = (Vec::new(), None);
    let mut open_frames = 0;
    let segments = 1 + rng.below(4);
    for seg in 0..segments {
        if let Some((branch, skip)) = pending.take() {
            patches.push((branch, prog.len() + skip));
        }
        let longest = if rng.pct(20) { 70 } else { 20 };
        let len = 1 + rng.below(longest);
        for _ in 0..len {
            item(isa, &mut rng, &mut prog, &mut open_frames);
        }
        if seg + 1 < segments && rng.pct(60) {
            if rng.pct(50) {
                prog.push(MInstr::CmpImm { lhs: rng.reg(), imm: 0 });
                pending = Some((prog.len(), rng.below(2) as usize));
                prog.push(MInstr::JCond { cond: Cond::Ge, target: 0 });
            } else {
                pending = Some((prog.len(), rng.below(2) as usize));
                prog.push(MInstr::Jmp { target: 0 });
            }
        }
    }
    prog.extend([
        MInstr::AluImm { op: AluOp::Sub, dst: COUNT, lhs: COUNT, imm: 1 },
        MInstr::CmpImm { lhs: COUNT, imm: 0 },
        MInstr::JCond { cond: Cond::Gt, target: TEXT + size(isa, &prog[..body]) },
        MInstr::Hlt,
    ]);
    for (branch, to) in patches {
        let at = TEXT + size(isa, &prog[..to.min(prog.len() - 1)]);
        match &mut prog[branch] {
            MInstr::Jmp { target } | MInstr::JCond { target, .. } => *target = at,
            _ => unreachable!(),
        }
    }
    // An entry `sp` within 300 bytes of a page edge, on either side.
    let page = STACK + PAGE_SIZE * rng.below(2);
    let edge = match rng.pct(50) {
        true => page + rng.below(300),
        false => page + PAGE_SIZE - rng.below(300),
    };
    let sp = if rng.pct(80) { edge & !7 } else { edge };
    let touched = match rng.below(4) {
        0 => vec![],
        1 => vec![sp],
        2 => vec![sp - PAGE_SIZE, sp],
        _ => vec![sp - PAGE_SIZE, sp, sp + PAGE_SIZE],
    };
    Case { isa, prog, sp, fp: sp + 8 * rng.below(8), touched }
}

/// A VM at the start of `case`, and its memory.
fn start(case: &Case) -> (Vm, Memory) {
    let mut mem = Memory::new();
    mem.load_image(TEXT, &assemble(case.isa, TEXT, &case.prog).expect("assemble"));
    for &addr in &case.touched {
        mem.zero(addr, 1);
    }
    let mut vm = Vm::new(case.isa);
    (vm.pc, vm.sp, vm.fp) = (TEXT, case.sp, case.fp);
    (vm, mem)
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Result<Trap, VmFault>,
    regs: [i64; 32],
    fregs: [u64; 32],
    flags: Flags,
    pc_sp_fp_lr: [u64; 4],
    instret: u64,
    cycles: u64,
    resident: usize,
    /// Every resident page, by page number, with its bytes.
    pages: Vec<(u64, Vec<u8>)>,
}

/// Runs `case` to its end, `fuel` instructions per `run` call.
fn run(case: &Case, fuel: u64) -> (Outcome, Vm) {
    let (mut vm, mut mem) = start(case);
    let end = loop {
        assert!(vm.instret < ENOUGH, "{}: the guest runs away", case.isa);
        match vm.run(&mut mem, fuel) {
            Ok(Trap::OutOfFuel) => {}
            end => break end,
        }
    };
    let mut pages: Vec<u64> = mem.resident_page_numbers().collect();
    pages.sort_unstable();
    let outcome = Outcome {
        end,
        regs: vm.regs,
        fregs: vm.fregs.map(f64::to_bits),
        flags: vm.flags,
        pc_sp_fp_lr: [vm.pc, vm.sp, vm.fp, vm.lr],
        instret: vm.instret,
        cycles: vm.cycles,
        resident: mem.resident_pages(),
        pages: pages
            .into_iter()
            .map(|p| (p, mem.dump(p * PAGE_SIZE, PAGE_SIZE as usize)))
            .collect(),
    };
    (outcome, vm)
}

/// The fused run of `case` equals its stepped run; returns the fused
/// run's outcome and VM.
fn fused_equals_stepped(case: &Case, what: &str) -> (Outcome, Vm) {
    let (fused, vm) = run(case, ENOUGH);
    let (stepped, _) = run(case, 1);
    assert_eq!(fused, stepped, "{} {what}: {:?}", case.isa, case.prog);
    (fused, vm)
}

#[test]
fn fused_runs_equal_stepped_runs_on_random_programs() {
    let mut shapes = [0usize; 5];
    let mut ends = [0usize; 2];
    for isa in Isa::ALL {
        for seed in 0..250 {
            let case = random_case(isa, seed);
            let (outcome, vm) = fused_equals_stepped(&case, &format!("seed {seed}"));
            for f in &vm.blocks.fused {
                shapes[match f {
                    Fused::Quad { .. } => 0,
                    Fused::MovSt { .. } => 1,
                    Fused::Ld { .. } => 2,
                    Fused::St { .. } => 3,
                    Fused::One { .. } => 4,
                }] += 1;
            }
            ends[usize::from(outcome.end.is_err())] += 1;
        }
    }
    // The programs are biased toward the fused shapes, and some fault.
    assert!(shapes[..4].iter().all(|&n| n > 1000), "fused shapes translated: {shapes:?}");
    assert!(ends[0] > 250 && ends[1] > 50, "halted / faulted: {ends:?}");
}

/// A block of every fused shape over frame slots 0..48.
fn spill_block(isa: Isa) -> Vec<MInstr> {
    vec![
        MInstr::MovImm { dst: Reg(0), imm: 6 },
        MInstr::StoreSp { src: Reg(0), off: 0 },
        MInstr::MovImm { dst: Reg(1), imm: 7 },
        MInstr::StoreSp { src: Reg(1), off: 8 },
        MInstr::LoadSp { dst: Reg(0), off: 0 },
        MInstr::LoadSp { dst: Reg(1), off: 8 },
        alu(isa, AluOp::Mul, Reg(2), Reg(0), Reg(1)),
        MInstr::StoreSp { src: if isa == Isa::Xar86 { Reg(0) } else { Reg(2) }, off: 16 },
        MInstr::LoadSp { dst: Reg(3), off: 16 },
        MInstr::StoreSp { src: Reg(3), off: 40 },
        MInstr::Hlt,
    ]
}

/// The block translated at `TEXT` by `vm`.
fn block_at_text(vm: &Vm) -> Block {
    let b = vm.blocks.slots[TEXT as usize % BLOCK_SLOTS];
    assert_eq!(b.pc, TEXT);
    b
}

fn fused_of(vm: &Vm, b: &Block) -> Vec<Fused> {
    vm.blocks.fused[b.fstart as usize..][..b.nfused as usize].to_vec()
}

#[test]
fn a_frame_straddling_a_page_edge_takes_the_tlb_path() {
    for isa in Isa::ALL {
        let prog = spill_block(isa);
        let edge = STACK + PAGE_SIZE;
        let both = vec![edge - PAGE_SIZE, edge];
        for (sp, windowed) in [(edge - 24, false), (edge - 48, true), (edge + 8, true)] {
            let case = Case { isa, prog: prog.clone(), sp, fp: 0, touched: both.clone() };
            let (outcome, vm) = fused_equals_stepped(&case, &format!("sp {sp:#x}"));
            let b = block_at_text(&vm);
            assert_eq!((b.lo, b.span), (0, 48), "{isa}");
            let shapes = fused_of(&vm, &b);
            assert!(matches!(
                shapes[..3],
                [Fused::MovSt { .. }, Fused::MovSt { .. }, Fused::Quad { .. }]
            ));
            let (_, mem) = start(&case);
            assert_eq!(mem.window(sp, 48).is_some(), windowed, "{isa} sp {sp:#x}");
            assert_eq!(outcome.regs[3], 42, "{isa}");
            assert_eq!(outcome.resident, 3, "{isa}: text and the two stack pages");
        }
    }
}

#[test]
fn a_stack_page_first_touched_mid_block_is_allocated_once() {
    for isa in Isa::ALL {
        let sp = STACK + 512;
        let case = Case { isa, prog: spill_block(isa), sp, fp: 0, touched: vec![] };
        let (_, mem) = start(&case);
        assert!(mem.window(sp, 48).is_none(), "{isa}: no stack page before the block");
        let (outcome, vm) = fused_equals_stepped(&case, "untouched stack");
        assert_eq!(block_at_text(&vm).span, 48, "{isa}: the block is windowed");
        assert_eq!(outcome.resident, 2, "{isa}: text and one stack page");
        let stack = &outcome.pages.iter().find(|(p, _)| *p == sp / PAGE_SIZE).unwrap().1;
        let slot = |off: usize| i64::from_le_bytes(stack[512 + off..][..8].try_into().unwrap());
        assert_eq!([slot(0), slot(8), slot(16), slot(40)], [6, 7, 42, 42], "{isa}");
    }
}

#[test]
fn leave_ends_windowing() {
    for isa in Isa::ALL {
        let prog = vec![
            MInstr::Enter { frame: 32 },
            MInstr::MovImm { dst: Reg(0), imm: 5 },
            MInstr::StoreSp { src: Reg(0), off: 8 },
            MInstr::LoadSp { dst: Reg(1), off: 8 },
            MInstr::Leave,
            // `sp` now comes from the frame record: not windowed.
            MInstr::MovImm { dst: Reg(2), imm: 9 },
            MInstr::StoreSp { src: Reg(2), off: 0 },
            MInstr::LoadSp { dst: Reg(3), off: 0 },
            MInstr::Hlt,
        ];
        let sp = STACK + 2048;
        let case = Case { isa, prog, sp, fp: sp + 64, touched: vec![sp] };
        let (outcome, vm) = fused_equals_stepped(&case, "leave");
        let b = block_at_text(&vm);
        let shapes = fused_of(&vm, &b);
        assert!(matches!(shapes[1..3], [Fused::MovSt { .. }, Fused::Ld { .. }]), "{isa}");
        assert!(matches!(shapes[3], Fused::One { ins: MInstr::Leave, .. }), "{isa}");
        assert!(shapes[4..].iter().all(|f| matches!(f, Fused::One { .. })), "{isa}: {shapes:?}");
        // The window is the frame's slot only: 8 bytes below the record.
        let record = if isa == Isa::Xar86 { 8 } else { 16 };
        assert_eq!((b.lo, b.span), (-record - 32 + 8, 8), "{isa}");
        assert_eq!(outcome.regs[..4], [5, 5, 9, 9], "{isa}");
    }
}

#[test]
fn a_jump_into_the_middle_of_a_quad_gets_a_block_of_its_own() {
    for isa in Isa::ALL {
        // jmp to: the two `mov; st`s, the quad, `ld; st`, hlt; or to
        // the quad's second load, which skips the rest before it.
        let mut prog = vec![MInstr::Jmp { target: 0 }];
        prog.extend(spill_block(isa));
        let sp = STACK + 1024;
        for (to, product) in [(1, 42), (6, 0)] {
            let target = TEXT + size(isa, &prog[..to]);
            prog[0] = MInstr::Jmp { target };
            let case = Case { isa, prog: prog.clone(), sp, fp: 0, touched: vec![sp] };
            let (outcome, vm) = fused_equals_stepped(&case, &format!("entry at {to}"));
            assert_eq!(outcome.regs[3], product, "{isa} entry at {to}");
            let b = vm.blocks.slots[target as usize % BLOCK_SLOTS];
            assert_eq!((b.pc, b.n as usize), (target, prog.len() - to), "{isa}");
            let shapes = fused_of(&vm, &b);
            let quads = shapes.iter().filter(|f| matches!(f, Fused::Quad { .. })).count();
            assert_eq!(quads, usize::from(to == 1), "{isa} entry at {to}: {shapes:?}");
            if to == 6 {
                assert!(matches!(shapes[0], Fused::Ld { dst: Reg(1), .. }), "{isa}: {shapes:?}");
            }
        }
    }
}
