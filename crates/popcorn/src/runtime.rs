//! The multi-ISA program executor (Popcorn run-time library).
//!
//! An [`Executor`] loads a [`MultiIsaBinary`] for one starting ISA, runs
//! it on the corresponding VM, services runtime calls (heap, clock,
//! debug prints), and — at migration points — performs cross-ISA
//! migration via [`crate::stackxform::transform`].
//!
//! Xar-Trek-specific services (scheduler hooks, FPGA configure/invoke,
//! migration flags) are delegated to a pluggable [`RtHandler`] so the
//! `xar-core` crate can connect them to its scheduler and FPGA device
//! model without this crate depending on them.
//!
//! ## Memory modelling note
//!
//! Real Popcorn hardware has one physical memory per machine, kept
//! coherent by the DSM kernel layer. The executor instead keeps a single
//! address space and *swaps the text segment* on migration (symbols are
//! aligned, so every pointer stays valid). Data/heap/stack pages are
//! untouched, exactly as DSM guarantees; the page-transfer *cost* of a
//! real migration is modeled separately (see [`crate::dsm`] and the DES).

use crate::link::MultiIsaBinary;
use crate::metadata::PerIsa;
use crate::rt::RtFunc;
use crate::stackxform::{self, XformOptions, XformStats};
use crate::{HEAP_BASE, STACK_TOP, TEXT_BASE};
use std::fmt;
use xar_isa::{Isa, Memory, Trap, Vm, VmFault};

/// Handler for Xar-Trek-specific runtime services.
///
/// `args` holds the integer argument registers in calling-convention
/// order (more than the service's arity may be garbage). The return
/// value is written to the ISA's return register.
pub trait RtHandler {
    /// Services one runtime call.
    fn handle(&mut self, func: RtFunc, args: [i64; 6], mem: &mut Memory, clock_ns: f64) -> i64;
}

/// Default handler: flags always answer "stay on x86" (0), FPGA services
/// are inert, scheduler hooks are no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHandler;

impl RtHandler for NullHandler {
    fn handle(&mut self, _func: RtFunc, _args: [i64; 6], _mem: &mut Memory, _clock: f64) -> i64 {
        0
    }
}

/// One completed migration.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Ordinal of the migration point at which it happened (1-based).
    pub at_migpoint: u64,
    /// Source ISA.
    pub from: Isa,
    /// Destination ISA.
    pub to: Isa,
    /// Transformation statistics.
    pub stats: XformStats,
}

/// Statistics of one [`Executor::run`].
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Instructions retired per ISA.
    pub instret: PerIsa<u64>,
    /// Cycles accumulated per ISA.
    pub cycles: PerIsa<u64>,
    /// Total virtual nanoseconds across ISAs (per-ISA clocks applied).
    pub elapsed_ns: f64,
    /// Migrations performed.
    pub migrations: Vec<MigrationRecord>,
    /// Values printed via [`RtFunc::Print`].
    pub prints: Vec<i64>,
    /// Number of migration points crossed.
    pub migpoints: u64,
}

/// Executor errors.
#[derive(Debug)]
pub enum ExecError {
    /// The named entry function does not exist.
    UnknownFunction(String),
    /// The entry function has FP or too many parameters for the `run`
    /// API.
    BadSignature(String),
    /// The guest faulted.
    Fault(VmFault),
    /// Cross-ISA transformation failed (metadata corruption).
    Xform(stackxform::XformError),
    /// The guest retired exactly the configured instruction budget
    /// without halting.
    StepLimit(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::BadSignature(n) => write!(f, "unsupported signature for `{n}`"),
            ExecError::Fault(e) => write!(f, "guest fault: {e}"),
            ExecError::Xform(e) => write!(f, "state transformation failed: {e}"),
            ExecError::StepLimit(n) => write!(f, "instruction budget of {n} exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<VmFault> for ExecError {
    fn from(v: VmFault) -> Self {
        ExecError::Fault(v)
    }
}

impl From<stackxform::XformError> for ExecError {
    fn from(v: stackxform::XformError) -> Self {
        ExecError::Xform(v)
    }
}

/// A planned migration: at the `nth` migration point (1-based), move to
/// `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// 1-based migration-point ordinal.
    pub at_migpoint: u64,
    /// Destination ISA.
    pub target: Isa,
}

/// Executes a [`MultiIsaBinary`] with migration support.
pub struct Executor<'b, H = NullHandler> {
    bin: &'b MultiIsaBinary,
    isa: Isa,
    vm: Vm,
    mem: Memory,
    heap_next: u64,
    handler: H,
    plans: Vec<MigrationPlan>,
    pending: Option<Isa>,
    /// Copy all slots instead of live-only during transformation.
    pub copy_all_slots: bool,
    /// Interpret [`RtFunc::ReadFlag`] results as migration directives
    /// (the paper's Figure 2): a flag of 1 (ARM) returned while running
    /// on Xar86 schedules a migration to Arm64e at the next migration
    /// point; a flag of 0 (x86) while on Arm64e schedules the return
    /// trip. Enabled by default.
    pub auto_migrate_on_flag: bool,
    /// Maximum instructions per run (default 10^10).
    pub max_instructions: u64,
    stats: RunStats,
}

impl<'b> Executor<'b, NullHandler> {
    /// Creates an executor starting on `isa` with the inert handler.
    pub fn new(bin: &'b MultiIsaBinary, isa: Isa) -> Self {
        Self::with_handler(bin, isa, NullHandler)
    }
}

impl<'b, H: RtHandler> Executor<'b, H> {
    /// Creates an executor with a custom runtime handler.
    pub fn with_handler(bin: &'b MultiIsaBinary, isa: Isa, handler: H) -> Self {
        Executor {
            bin,
            isa,
            vm: Vm::new(isa),
            mem: Memory::new(),
            heap_next: HEAP_BASE,
            handler,
            plans: Vec::new(),
            pending: None,
            copy_all_slots: false,
            auto_migrate_on_flag: true,
            max_instructions: 10_000_000_000,
            stats: RunStats::default(),
        }
    }

    /// Schedules a migration at the `n`-th migration point (1-based) of
    /// the *next* run.
    pub fn migrate_at_migpoint(&mut self, n: u64, target: Isa) {
        self.plans.push(MigrationPlan { at_migpoint: n, target });
    }

    /// Requests a migration at the next migration point (models the
    /// scheduler flipping the flag asynchronously).
    pub fn request_migration(&mut self, target: Isa) {
        self.pending = Some(target);
    }

    /// The ISA currently executing.
    pub fn current_isa(&self) -> Isa {
        self.isa
    }

    /// Statistics of the most recent run.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Access to the guest memory (e.g. to read results from globals).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the guest memory (e.g. to stage inputs).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Access to the runtime handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    fn load_text(&mut self, isa: Isa) {
        // Zero up to the longer image so stale bytes never execute.
        let text = &self.bin.text[isa];
        let max_len = Isa::ALL.iter().map(|&i| self.bin.text[i].len()).max().unwrap_or(0);
        self.mem.load_image(TEXT_BASE, text);
        self.mem.zero(TEXT_BASE + text.len() as u64, max_len - text.len());
        self.vm.invalidate_code();
    }

    fn alloc(&mut self, size: u64) -> u64 {
        let addr = (self.heap_next + 15) & !15;
        self.heap_next = addr + size.max(1);
        addr
    }

    /// Allocates guest heap memory from the host side (to stage inputs
    /// before a run).
    pub fn host_alloc(&mut self, size: u64) -> u64 {
        self.alloc(size)
    }

    /// Runs `name(args)` to completion and returns the i64 return value.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. Entry functions must take only I64 parameters
    /// (use globals/heap for FP data) — this mirrors C `main`-style entry
    /// points.
    pub fn run(&mut self, name: &str, args: &[i64]) -> Result<i64, ExecError> {
        let fid = *self
            .bin
            .func_ids
            .get(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?;
        let params = &self.bin.func_params[fid.0 as usize];
        if params.len() != args.len()
            || params.iter().any(|t| *t != crate::ir::Ty::I64)
            || args.len() > 6
        {
            return Err(ExecError::BadSignature(name.to_string()));
        }

        // Reset per-run state (memory persists across runs so callers
        // can stage inputs and read outputs).
        self.stats = RunStats::default();
        self.vm = Vm::new(self.isa);
        self.load_text(self.isa);
        self.mem.load_image(crate::DATA_BASE, &self.bin.data);

        let entry = self.bin.meta.funcs[fid.0 as usize].start;
        let exit_stub = self.bin.meta.exit_stub;
        self.vm.pc = entry;
        self.vm.sp = STACK_TOP;
        self.vm.fp = 0;
        let cc = self.isa.call_conv();
        for (i, &a) in args.iter().enumerate() {
            self.vm.regs[cc.arg_regs[i].0 as usize] = a;
        }
        match self.isa {
            Isa::Xar86 => {
                self.vm.sp -= 8;
                self.mem.write_u64(self.vm.sp, exit_stub);
            }
            Isa::Arm64e => self.vm.lr = exit_stub,
        }

        let mut executed: u64 = 0;
        loop {
            let before = self.vm.instret;
            let fuel = (self.max_instructions - executed).min(1 << 20);
            let trap = self.vm.run(&mut self.mem, fuel)?;
            executed += self.vm.instret - before;
            match trap {
                Trap::OutOfFuel if executed >= self.max_instructions => {
                    self.finish_isa_accounting();
                    return Err(ExecError::StepLimit(self.max_instructions));
                }
                Trap::OutOfFuel => continue,
                Trap::Hlt => {
                    self.finish_isa_accounting();
                    let ret = self.vm.regs[self.isa.call_conv().ret_reg.0 as usize];
                    return Ok(ret);
                }
                Trap::RuntimeCall { addr, ret_to } => {
                    self.service(addr, ret_to)?;
                }
            }
        }
    }

    /// The f64 return register after the last run (for FP-returning
    /// entry points read alongside [`Executor::run`]).
    pub fn fret(&self) -> f64 {
        self.vm.fregs[self.isa.call_conv().fret_reg.0 as usize]
    }

    fn finish_isa_accounting(&mut self) {
        self.stats.instret[self.isa] += self.vm.instret;
        self.stats.cycles[self.isa] += self.vm.cycles;
        self.stats.elapsed_ns += self.vm.elapsed_ns();
    }

    fn service(&mut self, addr: u64, ret_to: u64) -> Result<(), ExecError> {
        let cc = self.isa.call_conv();
        let mut args = [0i64; 6];
        for (i, slot) in args.iter_mut().enumerate() {
            *slot = self.vm.regs[cc.arg_regs.get(i).map_or(0, |r| r.0) as usize];
        }
        let Some(rtf) = RtFunc::from_addr(addr) else {
            // Unknown runtime address: treat as inert.
            return Ok(());
        };
        let ret = match rtf {
            RtFunc::Malloc => self.alloc(args[0].max(0) as u64) as i64,
            RtFunc::Print => {
                self.stats.prints.push(args[0]);
                0
            }
            RtFunc::Clock => (self.stats.elapsed_ns + self.vm.elapsed_ns()) as i64,
            RtFunc::MigPoint => {
                self.stats.migpoints += 1;
                let n = self.stats.migpoints;
                let planned = self.plans.iter().find(|p| p.at_migpoint == n).map(|p| p.target);
                let target = planned.or(self.pending.take());
                if let Some(target) = target {
                    if target != self.isa {
                        self.migrate(target, ret_to)?;
                    }
                }
                0
            }
            other => {
                let clock = self.stats.elapsed_ns + self.vm.elapsed_ns();
                let ret = self.handler.handle(other, args, &mut self.mem, clock);
                if other == RtFunc::ReadFlag && self.auto_migrate_on_flag {
                    match (ret, self.isa) {
                        (1, Isa::Xar86) => self.pending = Some(Isa::Arm64e),
                        (0, Isa::Arm64e) => self.pending = Some(Isa::Xar86),
                        _ => {}
                    }
                }
                ret
            }
        };
        // Write the return value to the *current* ISA's return register
        // (migration may have changed it).
        let cc = self.isa.call_conv();
        self.vm.regs[cc.ret_reg.0 as usize] = ret;
        Ok(())
    }

    fn migrate(&mut self, target: Isa, ret_to: u64) -> Result<(), ExecError> {
        let site = self
            .bin
            .meta
            .site_by_ret_addr(self.isa, ret_to)
            .ok_or(stackxform::XformError::UnknownReturnAddress(ret_to))?
            .clone();
        let opts = XformOptions { copy_all_slots: self.copy_all_slots, ..XformOptions::default() };
        let (new_vm, xstats) = stackxform::transform(
            &self.bin.meta,
            self.isa,
            &self.vm,
            target,
            &mut self.mem,
            &site,
            opts,
        )?;
        self.finish_isa_accounting();
        self.stats.migrations.push(MigrationRecord {
            at_migpoint: self.stats.migpoints,
            from: self.isa,
            to: target,
            stats: xstats,
        });
        self.isa = target;
        self.vm = new_vm;
        self.load_text(target);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::ir::{BinOp, Cond, Module, Ty};

    fn loop_module() -> Module {
        // main(n): calls helper(i) in a loop with a migration point per
        // iteration; returns sum of helper results. helper(i) = i*i + 1.
        let mut m = Module::new("looper");
        let mut h = m.function("helper", &[Ty::I64], Some(Ty::I64));
        let x = h.param(0);
        let xx = h.bin(BinOp::Mul, x, x);
        let r = h.bin_i(BinOp::Add, xx, 1);
        h.ret(Some(r));
        let h_id = h.finish();

        let mut f = m.function("main", &[Ty::I64], Some(Ty::I64));
        let n = f.param(0);
        let acc = f.new_local(Ty::I64);
        let i = f.new_local(Ty::I64);
        let zero = f.const_i(0);
        f.assign(acc, zero);
        f.assign(i, zero);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.br(header);
        f.switch_to(header);
        let c = f.icmp(Cond::Lt, i, n);
        f.cond_br(c, body, exit);
        f.switch_to(body);
        f.call_rt(RtFunc::MigPoint, &[]);
        let hv = f.call(h_id, &[i]).unwrap();
        let acc2 = f.bin(BinOp::Add, acc, hv);
        f.assign(acc, acc2);
        let i2 = f.bin_i(BinOp::Add, i, 1);
        f.assign(i, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(Some(acc));
        f.finish();
        m
    }

    fn expected(n: i64) -> i64 {
        (0..n).map(|i| i * i + 1).sum()
    }

    #[test]
    fn runs_on_both_isas_without_migration() {
        let bin = compile(&loop_module()).unwrap();
        for isa in Isa::ALL {
            let mut ex = Executor::new(&bin, isa);
            let r = ex.run("main", &[10]).unwrap();
            assert_eq!(r, expected(10), "{isa}");
            assert_eq!(ex.stats().migpoints, 10);
            assert!(ex.stats().migrations.is_empty());
        }
    }

    #[test]
    fn migrates_mid_loop_with_identical_result() {
        let bin = compile(&loop_module()).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        ex.migrate_at_migpoint(5, Isa::Arm64e);
        let r = ex.run("main", &[10]).unwrap();
        assert_eq!(r, expected(10));
        assert_eq!(ex.stats().migrations.len(), 1);
        assert_eq!(ex.current_isa(), Isa::Arm64e);
        // Both ISAs actually executed instructions.
        assert!(ex.stats().instret[Isa::Xar86] > 0);
        assert!(ex.stats().instret[Isa::Arm64e] > 0);
    }

    #[test]
    fn migrates_back_and_forth() {
        let bin = compile(&loop_module()).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        ex.migrate_at_migpoint(3, Isa::Arm64e);
        ex.migrate_at_migpoint(6, Isa::Xar86);
        ex.migrate_at_migpoint(9, Isa::Arm64e);
        let r = ex.run("main", &[12]).unwrap();
        assert_eq!(r, expected(12));
        assert_eq!(ex.stats().migrations.len(), 3);
    }

    #[test]
    fn live_only_equals_copy_all() {
        let bin = compile(&loop_module()).unwrap();
        for copy_all in [false, true] {
            let mut ex = Executor::new(&bin, Isa::Xar86);
            ex.copy_all_slots = copy_all;
            ex.migrate_at_migpoint(4, Isa::Arm64e);
            assert_eq!(ex.run("main", &[9]).unwrap(), expected(9));
        }
    }

    #[test]
    fn heap_and_prints_work() {
        let mut m = Module::new("heap");
        let mut f = m.function("main", &[], Some(Ty::I64));
        let sz = f.const_i(64);
        let p = f.call_rt(RtFunc::Malloc, &[sz]).unwrap();
        let v = f.const_i(1234);
        f.store(v, p, xar_isa::MemSize::B8);
        f.call_rt(RtFunc::Print, &[v]);
        let back = f.load(p, xar_isa::MemSize::B8);
        f.ret(Some(back));
        f.finish();
        let bin = compile(&m).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        assert_eq!(ex.run("main", &[]).unwrap(), 1234);
        assert_eq!(ex.stats().prints, vec![1234]);
    }

    #[test]
    fn unknown_function_errors() {
        let bin = compile(&loop_module()).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        assert!(matches!(ex.run("nope", &[]), Err(ExecError::UnknownFunction(_))));
    }

    #[test]
    fn step_limit_is_exact_on_both_isas() {
        // main(): loop forever.
        let mut m = Module::new("spin");
        let mut f = m.function("main", &[], Some(Ty::I64));
        let body = f.new_block();
        f.br(body);
        f.switch_to(body);
        f.br(body);
        f.finish();
        let bin = compile(&m).unwrap();
        for isa in Isa::ALL {
            // Below and above the 2^20 instructions the VM is handed at a time.
            for n in [0, 1, 1000, (1 << 20) + 7] {
                let mut ex = Executor::new(&bin, isa);
                ex.max_instructions = n;
                assert!(matches!(ex.run("main", &[]), Err(ExecError::StepLimit(l)) if l == n));
                assert_eq!(ex.stats().instret[isa], n, "{isa}: budget {n}");
            }
        }
        // A program that halts on its last permitted instruction succeeds.
        let bin = compile(&loop_module()).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        assert_eq!(ex.run("main", &[3]).unwrap(), expected(3));
        let exact = ex.stats().instret[Isa::Xar86];
        ex.max_instructions = exact;
        assert_eq!(ex.run("main", &[3]).unwrap(), expected(3));
        ex.max_instructions = exact - 1;
        assert!(matches!(ex.run("main", &[3]), Err(ExecError::StepLimit(_))));
    }

    #[test]
    fn pending_request_takes_effect_at_next_migpoint() {
        let bin = compile(&loop_module()).unwrap();
        let mut ex = Executor::new(&bin, Isa::Xar86);
        ex.request_migration(Isa::Arm64e);
        let r = ex.run("main", &[5]).unwrap();
        assert_eq!(r, expected(5));
        assert_eq!(ex.stats().migrations.len(), 1);
        assert_eq!(ex.stats().migrations[0].at_migpoint, 1);
    }
}
