//! # xar-popcorn — a Popcorn-Linux-style multi-ISA compiler and run-time
//!
//! The Xar-Trek paper builds on [Popcorn Linux] for its *Multi-ISA Binary
//! Generation* step (step C of the compiler framework) and for run-time
//! cross-ISA state transformation. This crate reimplements that substrate
//! for the two synthetic ISAs of [`xar_isa`]:
//!
//! * a typed, block-structured [IR](ir) with a builder API;
//! * a [verifier](verify) and [liveness analysis](liveness);
//! * per-ISA code generation honouring each ISA's operand
//!   forms and calling convention;
//! * an [aligned linker](link) that places every symbol (function,
//!   global) at the *same virtual address* in each per-ISA binary — the
//!   Popcorn property that makes pointers ISA-portable;
//! * per-call-site [metadata] (return-address equivalence,
//!   live sets, frame layouts) — the output of Popcorn's liveness pass;
//! * a run-time [stack transformer](stackxform) that rewrites the whole
//!   call stack from the source ISA's layout to the destination's at a
//!   migration point;
//! * an [executor](runtime) that runs multi-ISA binaries on the ISA VMs,
//!   services runtime calls, and performs migrations; and
//! * a page-granularity [DSM model](dsm) providing the
//!   sequentially-consistent shared memory abstraction of the Popcorn
//!   kernel — a standalone model, checked by a property test and not
//!   yet charged by the DES.
//!
//! [Popcorn Linux]: http://popcornlinux.org
//!
//! ## Example: compile once, run on either ISA
//!
//! ```
//! use xar_popcorn::ir::{BinOp, Module, Ty};
//! use xar_popcorn::{compile, runtime::Executor};
//! use xar_isa::Isa;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Module::new("demo");
//! let mut f = m.function("triple", &[Ty::I64], Some(Ty::I64));
//! let x = f.param(0);
//! let three = f.const_i(3);
//! let r = f.bin(BinOp::Mul, x, three);
//! f.ret(Some(r));
//! f.finish();
//!
//! let bin = compile(&m)?;
//! for isa in Isa::ALL {
//!     let mut exec = Executor::new(&bin, isa);
//!     let ret = exec.run("triple", &[14])?;
//!     assert_eq!(ret, 42);
//! }
//! # Ok(())
//! # }
//! ```

pub mod dsm;
pub mod ir;
pub mod link;
pub mod liveness;
pub mod metadata;
pub mod rt;
pub mod runtime;
pub mod stackxform;
pub mod verify;

mod codegen;

pub use link::{compile, MultiIsaBinary};
pub use runtime::{ExecError, Executor, RunStats};

/// Base virtual address of the text (code) segment in every binary.
pub const TEXT_BASE: u64 = 0x40_0000;
/// Base virtual address of the data (globals) segment.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Base virtual address of the run-time heap.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Initial stack pointer (stacks grow down from here).
pub const STACK_TOP: u64 = 0x7000_0000;
/// Alignment of function start addresses (shared across ISAs).
pub const FUNC_ALIGN: u64 = 16;
