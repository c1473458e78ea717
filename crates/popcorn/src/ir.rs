//! The multi-ISA intermediate representation.
//!
//! The IR is deliberately C-shaped (the paper's toolchain is limited to
//! C): typed 64-bit integer / double values, explicit loads and stores,
//! globals with static storage, direct calls, and structured basic
//! blocks. Every instruction result is a fresh *local*; locals are
//! function-scoped virtual registers that the per-ISA backends later home
//! to stack slots (Popcorn's conservative "everything addressable at
//! migration points" mode).

use std::collections::HashMap;
use std::fmt;

pub use xar_isa::Cond;
pub use xar_isa::MemSize;

use crate::rt::RtFunc;

/// A value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer (also used for pointers).
    I64,
    /// IEEE-754 double.
    F64,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ty::I64 => "i64",
            Ty::F64 => "f64",
        })
    }
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Multiplication (wrapping).
    Mul,
    /// Signed division.
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// The equivalent machine ALU operation.
    pub fn to_alu(self) -> xar_isa::AluOp {
        use xar_isa::AluOp as A;
        match self {
            BinOp::Add => A::Add,
            BinOp::Sub => A::Sub,
            BinOp::Mul => A::Mul,
            BinOp::Div => A::Div,
            BinOp::Rem => A::Rem,
            BinOp::And => A::And,
            BinOp::Or => A::Or,
            BinOp::Xor => A::Xor,
            BinOp::Shl => A::Shl,
            BinOp::Shr => A::Shr,
        }
    }
}

/// Floating-point binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl FBinOp {
    /// The equivalent machine FP ALU operation.
    pub fn to_falu(self) -> xar_isa::FAluOp {
        use xar_isa::FAluOp as F;
        match self {
            FBinOp::Add => F::FAdd,
            FBinOp::Sub => F::FSub,
            FBinOp::Mul => F::FMul,
            FBinOp::Div => F::FDiv,
        }
    }
}

/// A function-scoped virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A global (static storage) within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// An IR instruction. `dst` locals are assigned exactly once per
/// execution of the instruction but may be reassigned in loops (the IR is
/// not SSA).
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm`.
    ConstI {
        /// Destination local (I64).
        dst: LocalId,
        /// The constant.
        v: i64,
    },
    /// `dst = imm` (f64).
    ConstF {
        /// Destination local (F64).
        dst: LocalId,
        /// The constant.
        v: f64,
    },
    /// `dst = lhs op rhs` (integer).
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination local (I64).
        dst: LocalId,
        /// Left operand (I64).
        lhs: LocalId,
        /// Right operand (I64).
        rhs: LocalId,
    },
    /// `dst = lhs op rhs` (floating point).
    FBin {
        /// Operation.
        op: FBinOp,
        /// Destination local (F64).
        dst: LocalId,
        /// Left operand (F64).
        lhs: LocalId,
        /// Right operand (F64).
        rhs: LocalId,
    },
    /// `dst = (lhs pred rhs) ? 1 : 0` (integer compare).
    Icmp {
        /// Predicate.
        pred: Cond,
        /// Destination local (I64, 0 or 1).
        dst: LocalId,
        /// Left operand.
        lhs: LocalId,
        /// Right operand.
        rhs: LocalId,
    },
    /// `dst = (lhs pred rhs) ? 1 : 0` (FP compare; unordered → false,
    /// except `ne` → true).
    Fcmp {
        /// Predicate.
        pred: Cond,
        /// Destination local (I64, 0 or 1).
        dst: LocalId,
        /// Left operand (F64).
        lhs: LocalId,
        /// Right operand (F64).
        rhs: LocalId,
    },
    /// `dst = (f64) src`.
    I2F {
        /// Destination local (F64).
        dst: LocalId,
        /// Source local (I64).
        src: LocalId,
    },
    /// `dst = (i64) src` (truncating).
    F2I {
        /// Destination local (I64).
        dst: LocalId,
        /// Source local (F64).
        src: LocalId,
    },
    /// `dst = *(ty*)(addr)`; integer loads zero-extend from `size`.
    Load {
        /// Destination local.
        dst: LocalId,
        /// Address operand (I64).
        addr: LocalId,
        /// Access width (must be B8 when `dst` is F64).
        size: MemSize,
    },
    /// `*(ty*)(addr) = val`.
    Store {
        /// Value local.
        val: LocalId,
        /// Address operand (I64).
        addr: LocalId,
        /// Access width (must be B8 when `val` is F64).
        size: MemSize,
    },
    /// `dst = &global`.
    GlobalAddr {
        /// Destination local (I64).
        dst: LocalId,
        /// The global.
        global: GlobalId,
    },
    /// `dst = src`.
    Copy {
        /// Destination local.
        dst: LocalId,
        /// Source local (same type).
        src: LocalId,
    },
    /// Direct call to another function in the module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Integer/FP arguments in order (types must match the callee).
        args: Vec<LocalId>,
        /// Destination for the return value, if the callee returns one.
        dst: Option<LocalId>,
    },
    /// Call into the Popcorn/Xar-Trek run-time library (a migration
    /// point, scheduler hook, FPGA service, heap allocation, ...).
    CallRt {
        /// Which runtime service.
        func: RtFunc,
        /// Integer arguments.
        args: Vec<LocalId>,
        /// Destination for the I64 return value, if used.
        dst: Option<LocalId>,
    },
}

impl Inst {
    /// The local defined by this instruction, if any.
    pub fn def(&self) -> Option<LocalId> {
        match *self {
            Inst::ConstI { dst, .. }
            | Inst::ConstF { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::FBin { dst, .. }
            | Inst::Icmp { dst, .. }
            | Inst::Fcmp { dst, .. }
            | Inst::I2F { dst, .. }
            | Inst::F2I { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::Copy { dst, .. } => Some(dst),
            Inst::Call { dst, .. } | Inst::CallRt { dst, .. } => dst,
            Inst::Store { .. } => None,
        }
    }

    /// The locals read by this instruction.
    pub fn uses(&self) -> Vec<LocalId> {
        match self {
            Inst::ConstI { .. } | Inst::ConstF { .. } | Inst::GlobalAddr { .. } => vec![],
            Inst::Bin { lhs, rhs, .. }
            | Inst::FBin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::I2F { src, .. } | Inst::F2I { src, .. } | Inst::Copy { src, .. } => vec![*src],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { val, addr, .. } => vec![*val, *addr],
            Inst::Call { args, .. } | Inst::CallRt { args, .. } => args.clone(),
        }
    }

    /// True if this instruction is a call (ordinary or runtime).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallRt { .. })
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way branch on an I64 local (nonzero = then).
    CondBr {
        /// Condition local.
        cond: LocalId,
        /// Successor when `cond != 0`.
        then_bb: BlockId,
        /// Successor when `cond == 0`.
        else_bb: BlockId,
    },
    /// Function return, with an optional value local.
    Ret(Option<LocalId>),
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) => vec![],
        }
    }

    /// Locals read by the terminator.
    pub fn uses(&self) -> Vec<LocalId> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret(Some(v)) => vec![*v],
            _ => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The instructions, in order.
    pub insts: Vec<Inst>,
    /// The terminator (present once the builder seals the block).
    pub term: Option<Terminator>,
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name (unique within the module).
    pub name: String,
    /// Parameter types; parameters are locals `0..params.len()`.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Option<Ty>,
    /// Type of every local (indexed by [`LocalId`]).
    pub locals: Vec<Ty>,
    /// Basic blocks (entry is block 0).
    pub blocks: Vec<Block>,
}

impl Function {
    /// Type of a local.
    pub fn local_ty(&self, l: LocalId) -> Ty {
        self.locals[l.0 as usize]
    }
}

/// A global definition (static storage in the shared data segment).
#[derive(Debug, Clone)]
pub struct Global {
    /// Symbol name (unique within the module).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Required alignment (power of two).
    pub align: u64,
    /// Optional initializer (must be no longer than `size`).
    pub init: Vec<u8>,
}

/// A compilation unit: globals plus functions.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (for diagnostics and artifact naming).
    pub name: String,
    /// Globals, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    func_names: HashMap<String, FuncId>,
    global_names: HashMap<String, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            globals: Vec::new(),
            funcs: Vec::new(),
            func_names: HashMap::new(),
            global_names: HashMap::new(),
        }
    }

    /// Adds a zero-initialized global of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or `align` is not a power of
    /// two.
    pub fn global(&mut self, name: impl Into<String>, size: u64, align: u64) -> GlobalId {
        self.global_init(name, size, align, Vec::new())
    }

    /// Adds a global with an initializer.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken, `align` is not a power of
    /// two, or `init.len() > size`.
    pub fn global_init(
        &mut self,
        name: impl Into<String>,
        size: u64,
        align: u64,
        init: Vec<u8>,
    ) -> GlobalId {
        let name = name.into();
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(init.len() as u64 <= size, "initializer longer than global");
        assert!(!self.global_names.contains_key(&name), "duplicate global {name}");
        let id = GlobalId(self.globals.len() as u32);
        self.global_names.insert(name.clone(), id);
        self.globals.push(Global { name, size, align, init });
        id
    }

    /// Starts building a new function. Call [`FunctionBuilder::finish`]
    /// to commit it.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        params: &[Ty],
        ret: Option<Ty>,
    ) -> FunctionBuilder<'_> {
        let name = name.into();
        assert!(!self.func_names.contains_key(&name), "duplicate function {name}");
        FunctionBuilder::new(self, name, params.to_vec(), ret)
    }

    /// Declares a function signature ahead of its body, enabling
    /// (mutual) recursion. Returns its id; build the body later with
    /// [`Module::function_with_id`].
    pub fn declare(&mut self, name: impl Into<String>, params: &[Ty], ret: Option<Ty>) -> FuncId {
        let name = name.into();
        assert!(!self.func_names.contains_key(&name), "duplicate function {name}");
        let id = FuncId(self.funcs.len() as u32);
        self.func_names.insert(name.clone(), id);
        self.funcs.push(Function {
            name,
            params: params.to_vec(),
            ret,
            locals: Vec::new(),
            blocks: Vec::new(),
        });
        id
    }

    /// Builds the body of a previously [declared](Module::declare)
    /// function.
    pub fn function_with_id(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        let f = &self.funcs[id.0 as usize];
        let (name, params, ret) = (f.name.clone(), f.params.clone(), f.ret);
        FunctionBuilder::with_id(self, id, name, params, ret)
    }

    /// Looks up a function by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.func_names.get(name).copied()
    }

    /// Looks up a global by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.global_names.get(name).copied()
    }

    /// The function for an id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }
}

/// Incremental builder for one function.
///
/// The builder starts positioned in the entry block. Each emission method
/// returns the destination [`LocalId`] so expressions compose:
///
/// ```
/// # use xar_popcorn::ir::*;
/// let mut m = Module::new("m");
/// let mut f = m.function("f", &[Ty::I64], Some(Ty::I64));
/// let x = f.param(0);
/// let k = f.const_i(10);
/// let y = f.bin(BinOp::Add, x, k);
/// f.ret(Some(y));
/// f.finish();
/// ```
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    id: Option<FuncId>,
    name: String,
    params: Vec<Ty>,
    ret: Option<Ty>,
    locals: Vec<Ty>,
    blocks: Vec<Block>,
    cur: BlockId,
}

impl<'m> FunctionBuilder<'m> {
    fn new(module: &'m mut Module, name: String, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        let locals = params.clone();
        FunctionBuilder {
            module,
            id: None,
            name,
            params,
            ret,
            locals,
            blocks: vec![Block { insts: Vec::new(), term: None }],
            cur: BlockId(0),
        }
    }

    fn with_id(
        module: &'m mut Module,
        id: FuncId,
        name: String,
        params: Vec<Ty>,
        ret: Option<Ty>,
    ) -> Self {
        let locals = params.clone();
        FunctionBuilder {
            module,
            id: Some(id),
            name,
            params,
            ret,
            locals,
            blocks: vec![Block { insts: Vec::new(), term: None }],
            cur: BlockId(0),
        }
    }

    /// The module being built into (for nested lookups).
    pub fn module(&self) -> &Module {
        self.module
    }

    /// The `i`-th parameter as a local.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> LocalId {
        assert!(i < self.params.len(), "parameter index out of range");
        LocalId(i as u32)
    }

    /// Allocates a fresh local of type `ty` (useful for loop variables).
    pub fn new_local(&mut self, ty: Ty) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(ty);
        id
    }

    /// Creates a new, empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { insts: Vec::new(), term: None });
        id
    }

    /// Repositions the builder at the end of `bb`.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.cur = bb;
    }

    fn push(&mut self, inst: Inst) {
        let b = &mut self.blocks[self.cur.0 as usize];
        assert!(b.term.is_none(), "appending to a sealed block");
        b.insts.push(inst);
    }

    fn def(&mut self, ty: Ty) -> LocalId {
        self.new_local(ty)
    }

    /// Emits an integer constant.
    pub fn const_i(&mut self, v: i64) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::ConstI { dst, v });
        dst
    }

    /// Emits an FP constant.
    pub fn const_f(&mut self, v: f64) -> LocalId {
        let dst = self.def(Ty::F64);
        self.push(Inst::ConstF { dst, v });
        dst
    }

    /// Emits an integer binary operation.
    pub fn bin(&mut self, op: BinOp, lhs: LocalId, rhs: LocalId) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// Emits `lhs op imm` via a materialized constant.
    pub fn bin_i(&mut self, op: BinOp, lhs: LocalId, imm: i64) -> LocalId {
        let k = self.const_i(imm);
        self.bin(op, lhs, k)
    }

    /// Emits an FP binary operation.
    pub fn fbin(&mut self, op: FBinOp, lhs: LocalId, rhs: LocalId) -> LocalId {
        let dst = self.def(Ty::F64);
        self.push(Inst::FBin { op, dst, lhs, rhs });
        dst
    }

    /// Emits an integer compare producing 0/1.
    pub fn icmp(&mut self, pred: Cond, lhs: LocalId, rhs: LocalId) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::Icmp { pred, dst, lhs, rhs });
        dst
    }

    /// Emits `lhs pred imm` via a materialized constant.
    pub fn icmp_i(&mut self, pred: Cond, lhs: LocalId, imm: i64) -> LocalId {
        let k = self.const_i(imm);
        self.icmp(pred, lhs, k)
    }

    /// Emits an FP compare producing 0/1.
    pub fn fcmp(&mut self, pred: Cond, lhs: LocalId, rhs: LocalId) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::Fcmp { pred, dst, lhs, rhs });
        dst
    }

    /// Emits an int→float conversion.
    pub fn i2f(&mut self, src: LocalId) -> LocalId {
        let dst = self.def(Ty::F64);
        self.push(Inst::I2F { dst, src });
        dst
    }

    /// Emits a float→int (truncating) conversion.
    pub fn f2i(&mut self, src: LocalId) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::F2I { dst, src });
        dst
    }

    /// Emits an integer load of `size` bytes (zero-extended).
    pub fn load(&mut self, addr: LocalId, size: MemSize) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::Load { dst, addr, size });
        dst
    }

    /// Emits an 8-byte FP load.
    pub fn loadf(&mut self, addr: LocalId) -> LocalId {
        let dst = self.def(Ty::F64);
        self.push(Inst::Load { dst, addr, size: MemSize::B8 });
        dst
    }

    /// Emits a store of `val` (`size` bytes; use B8 for F64 values).
    pub fn store(&mut self, val: LocalId, addr: LocalId, size: MemSize) {
        self.push(Inst::Store { val, addr, size });
    }

    /// Emits `&global`.
    pub fn global_addr(&mut self, g: GlobalId) -> LocalId {
        let dst = self.def(Ty::I64);
        self.push(Inst::GlobalAddr { dst, global: g });
        dst
    }

    /// Emits a copy into an existing local (the IR's assignment form,
    /// used for loop-carried variables).
    pub fn assign(&mut self, dst: LocalId, src: LocalId) {
        self.push(Inst::Copy { dst, src });
    }

    /// Emits a direct call.
    pub fn call(&mut self, callee: FuncId, args: &[LocalId]) -> Option<LocalId> {
        let ret = self.module.funcs[callee.0 as usize].ret;
        let dst = ret.map(|ty| self.def(ty));
        self.push(Inst::Call { callee, args: args.to_vec(), dst });
        dst
    }

    /// Emits a runtime-library call.
    pub fn call_rt(&mut self, func: RtFunc, args: &[LocalId]) -> Option<LocalId> {
        let dst = if func.returns_value() { Some(self.def(Ty::I64)) } else { None };
        self.push(Inst::CallRt { func, args: args.to_vec(), dst });
        dst
    }

    /// Seals the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.seal(Terminator::Br(target));
    }

    /// Seals the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: LocalId, then_bb: BlockId, else_bb: BlockId) {
        self.seal(Terminator::CondBr { cond, then_bb, else_bb });
    }

    /// Seals the current block with a return.
    pub fn ret(&mut self, val: Option<LocalId>) {
        self.seal(Terminator::Ret(val));
    }

    fn seal(&mut self, term: Terminator) {
        let b = &mut self.blocks[self.cur.0 as usize];
        assert!(b.term.is_none(), "block already sealed");
        b.term = Some(term);
    }

    /// Commits the function into the module and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> FuncId {
        for (i, b) in self.blocks.iter().enumerate() {
            assert!(b.term.is_some(), "block bb{i} of {} unsealed", self.name);
        }
        let func = Function {
            name: self.name.clone(),
            params: self.params,
            ret: self.ret,
            locals: self.locals,
            blocks: self.blocks,
        };
        match self.id {
            Some(id) => {
                self.module.funcs[id.0 as usize] = func;
                id
            }
            None => {
                let id = FuncId(self.module.funcs.len() as u32);
                self.module.func_names.insert(self.name, id);
                self.module.funcs.push(func);
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_loop() {
        // sum(n) = 0 + 1 + ... + (n-1)
        let mut m = Module::new("t");
        let mut f = m.function("sum", &[Ty::I64], Some(Ty::I64));
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
        let acc2 = f.bin(BinOp::Add, acc, i);
        f.assign(acc, acc2);
        let i2 = f.bin_i(BinOp::Add, i, 1);
        f.assign(i, i2);
        f.br(header);
        f.switch_to(exit);
        f.ret(Some(acc));
        let id = f.finish();
        let func = m.func(id);
        assert_eq!(func.blocks.len(), 4);
        assert_eq!(m.func_id("sum"), Some(id));
    }

    #[test]
    fn declare_then_define_recursion() {
        let mut m = Module::new("t");
        let fid = m.declare("fact", &[Ty::I64], Some(Ty::I64));
        let mut f = m.function_with_id(fid);
        let n = f.param(0);
        let base = f.new_block();
        let rec = f.new_block();
        let c = f.icmp_i(Cond::Le, n, 1);
        f.cond_br(c, base, rec);
        f.switch_to(base);
        let one = f.const_i(1);
        f.ret(Some(one));
        f.switch_to(rec);
        let nm1 = f.bin_i(BinOp::Sub, n, 1);
        let r = f.call(fid, &[nm1]).unwrap();
        let prod = f.bin(BinOp::Mul, n, r);
        f.ret(Some(prod));
        assert_eq!(f.finish(), fid);
        assert_eq!(m.funcs.len(), 1);
    }

    #[test]
    fn inst_def_use_accounting() {
        let i = Inst::Bin { op: BinOp::Add, dst: LocalId(2), lhs: LocalId(0), rhs: LocalId(1) };
        assert_eq!(i.def(), Some(LocalId(2)));
        assert_eq!(i.uses(), vec![LocalId(0), LocalId(1)]);
        let s = Inst::Store { val: LocalId(3), addr: LocalId(4), size: MemSize::B8 };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![LocalId(3), LocalId(4)]);
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_names_rejected() {
        let mut m = Module::new("t");
        let mut f = m.function("f", &[], None);
        f.ret(None);
        f.finish();
        let _ = m.function("f", &[], None);
    }

    #[test]
    fn globals_register_and_resolve() {
        let mut m = Module::new("t");
        let g = m.global_init("table", 64, 8, vec![1, 2, 3]);
        assert_eq!(m.global_id("table"), Some(g));
        assert_eq!(m.globals[g.0 as usize].init, vec![1, 2, 3]);
    }
}
