//! Simulated results are pinned: the interpreter may get faster, the
//! numbers the experiments read may not move.
//!
//! Every bundle in `xar_workloads::profiles`, at a small input size, runs
//! on Xar86, on Arm64e, and migrated Xar86 → Arm64e at migration point 1;
//! each run's return value, per-ISA instruction and cycle counts, virtual
//! time, page accounting and a digest of all guest memory must equal the
//! constants below. They were generated at the commit *before* the decode
//! table and the `Memory` fast path replaced the hash-map fetch (print
//! them again with `GOLDEN_PRINT=1 cargo test -p xar-popcorn --test
//! golden_runs -- --nocapture`); a change that moves one has changed what
//! the VMs compute, not how fast. FaceDet320 on a bare `Vm`, cloned half
//! way with its block table and TLB warm, must also finish exactly as the
//! executor's run does.

use xar_isa::{Isa, Memory, Trap, Vm, PAGE_SIZE};
use xar_popcorn::ir::Module;
use xar_popcorn::rt::RtFunc;
use xar_popcorn::{compile, Executor, MultiIsaBinary, DATA_BASE, STACK_TOP, TEXT_BASE};
use xar_workloads::{bfs, cg, digitrec, facedet, profiles};

/// What one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Return register (the FP return register's bits for CG).
    ret: u64,
    instret: [u64; 2],
    cycles: [u64; 2],
    elapsed_ns_bits: u64,
    migpoints: u64,
    resident_pages: usize,
    pages_touched: u64,
    /// FNV-1a over (page number, page bytes) of every resident page, in
    /// page order.
    mem_fnv: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    X86,
    Arm,
    Migrated,
}

const MODES: [Mode; 3] = [Mode::X86, Mode::Arm, Mode::Migrated];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn mem_digest(mem: &Memory) -> u64 {
    let mut pages: Vec<u64> = mem.resident_page_numbers().collect();
    pages.sort_unstable();
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut page = vec![0u8; PAGE_SIZE as usize];
    for pno in pages {
        fnv1a(&mut h, &pno.to_le_bytes());
        mem.read_bytes(pno * PAGE_SIZE, &mut page);
        fnv1a(&mut h, &page);
    }
    h
}

/// Adds `golden_entry(args..) = { MigPoint(); main(args..) }` so a planned
/// migration has a migration point to land on.
fn with_entry(mut module: Module) -> Module {
    let main_id = module.func_id("main").expect("bundle has a main");
    let (params, ret) = {
        let main = module.func(main_id);
        (main.params.clone(), main.ret)
    };
    let mut f = module.function("golden_entry", &params, ret);
    f.call_rt(RtFunc::MigPoint, &[]);
    let args: Vec<_> = (0..params.len()).map(|i| f.param(i)).collect();
    let r = f.call(main_id, &args);
    f.ret(r);
    f.finish();
    module
}

fn stage_u64s(e: &mut Executor<'_>, words: impl Iterator<Item = u64>) -> i64 {
    let words: Vec<u64> = words.collect();
    let ptr = e.host_alloc(words.len() as u64 * 8);
    for (i, w) in words.iter().enumerate() {
        e.memory_mut().write_u64(ptr + i as u64 * 8, *w);
    }
    ptr as i64
}

/// One bundle: its module, whether the result is the FP return register,
/// and how to stage its inputs.
struct Case {
    name: &'static str,
    module: Module,
    fp_ret: bool,
    stage: fn(&mut Executor<'_>) -> Vec<i64>,
}

fn stage_facedet(e: &mut Executor<'_>) -> Vec<i64> {
    let img = facedet::generate_image(96, 72, &[(10, 10), (60, 40)], 21);
    let ii = facedet::integral_image(&img);
    vec![stage_u64s(e, ii.iter().copied()), img.w as i64, img.h as i64]
}

fn stage_digitrec(e: &mut Executor<'_>) -> Vec<i64> {
    let train = digitrec::generate(60, 6, 11);
    let tests = digitrec::generate(10, 6, 12);
    let train_ptr = stage_u64s(e, train.digits.iter().flatten().copied());
    let labels_ptr = stage_u64s(e, train.labels.iter().map(|l| u64::from(*l)));
    let tests_ptr = stage_u64s(e, tests.digits.iter().flatten().copied());
    let out_ptr = e.host_alloc(10 * 8) as i64;
    vec![train_ptr, labels_ptr, 60, tests_ptr, 10, out_ptr]
}

fn stage_cg(e: &mut Executor<'_>) -> Vec<i64> {
    let a = cg::generate_spd(40, 3, 7);
    let b = cg::generate_rhs(40, 8);
    let n = a.n as u64;
    let rp = stage_u64s(e, a.row_ptr.iter().map(|v| u64::from(*v)));
    let col = stage_u64s(e, a.col.iter().map(|v| u64::from(*v)));
    let val = stage_u64s(e, a.val.iter().map(|v| v.to_bits()));
    let vecs = e.host_alloc(5 * n * 8);
    for (i, v) in b.iter().enumerate() {
        e.memory_mut().write_f64(vecs + i as u64 * 8, *v);
    }
    vec![rp, col, val, vecs as i64, n as i64, 6]
}

fn stage_bfs(e: &mut Executor<'_>) -> Vec<i64> {
    let g = bfs::generate(200, 3, 5);
    let n = g.n as u64;
    let rp = stage_u64s(e, g.row_ptr.iter().map(|v| u64::from(*v)));
    let adj = stage_u64s(e, g.adj.iter().map(|v| u64::from(*v)));
    let scratch = e.host_alloc(2 * n * 8) as i64;
    vec![rp, adj, scratch, n as i64]
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "facedet",
            module: with_entry(profiles::facedet_bundle(96, 72).module),
            fp_ret: false,
            stage: stage_facedet,
        },
        Case {
            name: "digitrec",
            module: with_entry(profiles::digitrec_bundle(10).module),
            fp_ret: false,
            stage: stage_digitrec,
        },
        Case {
            name: "cg",
            module: with_entry(profiles::cg_bundle().module),
            fp_ret: true,
            stage: stage_cg,
        },
        Case {
            name: "bfs",
            module: with_entry(profiles::bfs_bundle(200).module),
            fp_ret: false,
            stage: stage_bfs,
        },
    ]
}

fn run_case(case: &Case, bin: &MultiIsaBinary, mode: Mode) -> Pin {
    let start = if mode == Mode::Arm { Isa::Arm64e } else { Isa::Xar86 };
    let mut e = Executor::new(bin, start);
    if mode == Mode::Migrated {
        e.migrate_at_migpoint(1, Isa::Arm64e);
    }
    let args = (case.stage)(&mut e);
    let ret = e.run("golden_entry", &args).expect("golden run completes");
    let stats = e.stats();
    assert_eq!(
        stats.migrations.len(),
        usize::from(mode == Mode::Migrated),
        "{} {mode:?}",
        case.name
    );
    Pin {
        ret: if case.fp_ret { e.fret().to_bits() } else { ret as u64 },
        instret: stats.instret.0,
        cycles: stats.cycles.0,
        elapsed_ns_bits: stats.elapsed_ns.to_bits(),
        migpoints: stats.migpoints,
        resident_pages: e.memory().resident_pages(),
        pages_touched: e.memory().pages_touched(),
        mem_fnv: mem_digest(e.memory()),
    }
}

/// Generated at the parent commit; see the module docs.
#[rustfmt::skip]
const GOLDEN: [(&str, Mode, Pin); 12] = [
    ("facedet", Mode::X86, Pin { ret: 15, instret: [60750, 0], cycles: [183041, 0], elapsed_ns_bits: 4682135520117183187, migpoints: 1, resident_pages: 17, pages_touched: 17, mem_fnv: 33553043874571379 }),
    ("facedet", Mode::Arm, Pin { ret: 15, instret: [0, 60750], cycles: [0, 266515], elapsed_ns_bits: 4683818705673519104, migpoints: 1, resident_pages: 17, pages_touched: 17, mem_fnv: 4235306577986220434 }),
    ("facedet", Mode::Migrated, Pin { ret: 15, instret: [5, 60745], cycles: [15, 266495], elapsed_ns_bits: 4683818665250297495, migpoints: 1, resident_pages: 17, pages_touched: 17, mem_fnv: 4235306577986220434 }),
    ("digitrec", Mode::X86, Pin { ret: 10, instret: [1150095, 0], cycles: [3070488, 0], elapsed_ns_bits: 4700508250274621802, migpoints: 1, resident_pages: 4, pages_touched: 4, mem_fnv: 4706129427296239396 }),
    ("digitrec", Mode::Arm, Pin { ret: 10, instret: [0, 1150095], cycles: [0, 4366933], elapsed_ns_bits: 4701943369952133120, migpoints: 1, resident_pages: 4, pages_touched: 4, mem_fnv: 5214887508319246141 }),
    ("digitrec", Mode::Migrated, Pin { ret: 10, instret: [8, 1150087], cycles: [24, 4366901], elapsed_ns_bits: 4701943365909810959, migpoints: 1, resident_pages: 4, pages_touched: 4, mem_fnv: 5214887508319246141 }),
    ("cg", Mode::X86, Pin { ret: 4533363414188786549, instret: [170450, 0], cycles: [519211, 0], elapsed_ns_bits: 4688990657794076913, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 16096594812110245099 }),
    ("cg", Mode::Arm, Pin { ret: 4533363414188786549, instret: [0, 170450], cycles: [0, 754391], elapsed_ns_bits: 4690223781812109312, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 2213072458481792618 }),
    ("cg", Mode::Migrated, Pin { ret: 4533363414188786549, instret: [8, 170442], cycles: [24, 754359], elapsed_ns_bits: 4690223749473532024, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 2213072458481792618 }),
    ("bfs", Mode::X86, Pin { ret: 742, instret: [74261, 0], cycles: [208171, 0], elapsed_ns_bits: 4683151355676227705, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 8322739690824830664 }),
    ("bfs", Mode::Arm, Pin { ret: 742, instret: [0, 74261], cycles: [0, 298634], elapsed_ns_bits: 4684370505891840000, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 10272050144552608633 }),
    ("bfs", Mode::Migrated, Pin { ret: 742, instret: [6, 74255], cycles: [18, 298610], elapsed_ns_bits: 4684370457383974069, migpoints: 1, resident_pages: 5, pages_touched: 5, mem_fnv: 10272050144552608633 }),
];

#[test]
fn every_bundle_on_every_path_matches_the_pinned_run() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut got = Vec::new();
    for case in cases() {
        let bin = compile(&case.module).expect("bundle compiles");
        for mode in MODES {
            let pin = run_case(&case, &bin, mode);
            if print {
                println!("    ({:?}, Mode::{mode:?}, {pin:?}),", case.name);
            }
            got.push((case.name, mode, pin));
        }
    }
    if print {
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "a bundle or a mode was added without a pin");
    for (g, want) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, want, "{} {:?} moved", g.0, g.1);
    }
}

/// Runs `vm` to `hlt` (FaceDet's `main` calls no run-time service) within
/// far more fuel than FaceDet320 needs.
fn run_to_hlt(vm: &mut Vm, mem: &mut Memory) {
    assert_eq!(vm.run(mem, 1 << 24), Ok(Trap::Hlt));
}

#[test]
fn facedet320_vm_cloned_mid_run_resumes_to_the_straight_line_run() {
    // The executor's run is the reference. The same program on a bare
    // `Vm`, set up as the executor sets it up, is stopped half way, when
    // its block table and its memory's TLB are warm, and cloned; the
    // original and the clone must each finish as the reference did.
    let bin = compile(&profiles::facedet_bundle(320, 240).module).expect("facedet compiles");
    let img = facedet::generate_image(320, 240, &[(30, 30), (150, 80)], 42);
    let ii = facedet::integral_image(&img);
    for isa in Isa::ALL {
        let mut e = Executor::new(&bin, isa);
        let args = [stage_u64s(&mut e, ii.iter().copied()), img.w as i64, img.h as i64];
        let ret = e.run("main", &args).expect("facedet runs");
        let want = (ret, e.stats().instret[isa], e.stats().cycles[isa], mem_digest(e.memory()));

        let mut mem = Memory::new();
        let mut vm = Vm::new(isa);
        mem.load_image(
            args[0] as u64,
            &ii.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>(),
        );
        let longest = Isa::ALL.iter().map(|&i| bin.text[i].len()).max().unwrap();
        mem.load_image(TEXT_BASE, &bin.text[isa]);
        mem.zero(TEXT_BASE + bin.text[isa].len() as u64, longest - bin.text[isa].len());
        mem.load_image(DATA_BASE, &bin.data);
        (vm.pc, vm.sp, vm.fp) = (bin.func_addr("main").unwrap(), STACK_TOP, 0);
        let cc = isa.call_conv();
        for (r, a) in cc.arg_regs.iter().zip(args) {
            vm.regs[r.0 as usize] = a;
        }
        match isa {
            Isa::Xar86 => {
                vm.sp -= 8;
                mem.write_u64(vm.sp, bin.meta.exit_stub);
            }
            Isa::Arm64e => vm.lr = bin.meta.exit_stub,
        }
        assert_eq!(vm.run(&mut mem, want.1 / 2), Ok(Trap::OutOfFuel), "{isa}");
        let (mut clone, mut clone_mem) = (vm.clone(), mem.clone());
        run_to_hlt(&mut vm, &mut mem);
        run_to_hlt(&mut clone, &mut clone_mem);
        for (what, vm, mem) in [("original", &vm, &mem), ("clone", &clone, &clone_mem)] {
            let got = (vm.regs[cc.ret_reg.0 as usize], vm.instret, vm.cycles, mem_digest(mem));
            assert_eq!(got, want, "{isa} {what}");
        }
    }
}
