//! Compilation metadata consumed by the run-time state transformer.
//!
//! This is the reproduction of Popcorn's per-call-site metadata: for every
//! call site the return address *in each ISA's encoding*, the set of live
//! locals, and for every function its per-ISA frame layout. Together with
//! the aligned symbol layout this is exactly what makes cross-ISA stack
//! transformation possible at run-time.

use crate::ir::{FuncId, LocalId, Ty};
use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use xar_isa::Isa;

/// A pair of values indexed by [`Isa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerIsa<T>(pub [T; 2]);

impl<T> PerIsa<T> {
    /// Builds by evaluating `f` for each ISA.
    pub fn build(mut f: impl FnMut(Isa) -> T) -> Self {
        PerIsa([f(Isa::Xar86), f(Isa::Arm64e)])
    }

    /// Iterates `(isa, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Isa, &T)> {
        Isa::ALL.iter().copied().zip(self.0.iter())
    }
}

fn isa_index(isa: Isa) -> usize {
    match isa {
        Isa::Xar86 => 0,
        Isa::Arm64e => 1,
    }
}

impl<T> Index<Isa> for PerIsa<T> {
    type Output = T;
    fn index(&self, isa: Isa) -> &T {
        &self.0[isa_index(isa)]
    }
}

impl<T> IndexMut<Isa> for PerIsa<T> {
    fn index_mut(&mut self, isa: Isa) -> &mut T {
        &mut self.0[isa_index(isa)]
    }
}

/// Stack-frame layout of one function on one ISA.
///
/// Every local is *slot-homed* — it lives at a fixed offset from the
/// frame pointer for the whole activation. This matches Popcorn's
/// conservative mode where all transformable state is addressable at
/// migration points, and makes the per-ISA layouts directly comparable.
///
/// The layouts genuinely differ per ISA (see [`FrameLayout::assign`]):
/// Xar86 assigns slots in declaration order; Arm64e groups FP locals
/// first (mimicking its separate FP save area), so the same local sits at
/// a different offset on each ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// Bytes allocated below the frame record (16-byte aligned).
    pub frame_size: i32,
    /// Per-local offset from `fp` (always negative).
    pub slot_off: Vec<i32>,
}

impl FrameLayout {
    /// Computes the layout of a function with the given local types on
    /// `isa`.
    pub fn assign(isa: Isa, locals: &[Ty]) -> FrameLayout {
        let n = locals.len();
        let mut order: Vec<usize> = (0..n).collect();
        if isa == Isa::Arm64e {
            // FP locals first, each class in declaration order.
            order.sort_by_key(|&i| (locals[i] != Ty::F64, i));
        }
        let mut slot_off = vec![0i32; n];
        for (rank, &local) in order.iter().enumerate() {
            slot_off[local] = -8 * (rank as i32 + 1);
        }
        let raw = 8 * n as i32;
        let frame_size = (raw + 15) & !15;
        FrameLayout { frame_size, slot_off }
    }

    /// Address of a local's slot given the frame pointer.
    pub fn slot_addr(&self, fp: u64, local: LocalId) -> u64 {
        fp.wrapping_add(self.slot_off[local.0 as usize] as i64 as u64)
    }

    /// Offset of a local's slot from the *stack pointer* (which the body
    /// keeps at `fp - frame_size`).
    pub fn slot_off_from_sp(&self, local: LocalId) -> i32 {
        self.frame_size + self.slot_off[local.0 as usize]
    }
}

/// Per-function metadata.
#[derive(Debug, Clone)]
pub struct FuncMeta {
    /// The function.
    pub id: FuncId,
    /// Symbol name.
    pub name: String,
    /// Start address — identical on every ISA (aligned layout).
    pub start: u64,
    /// Per-ISA end address (code sizes differ).
    pub code_end: PerIsa<u64>,
    /// Per-ISA frame layout.
    pub layout: PerIsa<FrameLayout>,
    /// Types of the function's locals.
    pub local_tys: Vec<Ty>,
}

/// Metadata for one static call site (ordinary or runtime call).
#[derive(Debug, Clone)]
pub struct CallSiteMeta {
    /// Dense id, unique within the binary.
    pub id: u32,
    /// The function containing the call.
    pub func: FuncId,
    /// Per-ISA return address (the instruction following the call).
    pub ret_addr: PerIsa<u64>,
    /// Locals of `func` live across this site, sorted.
    pub live: Vec<LocalId>,
    /// Whether this site is a migration point
    /// ([`crate::rt::RtFunc::MigPoint`]).
    pub is_migration_point: bool,
}

/// Whole-binary metadata: the state-transformation tables.
#[derive(Debug, Clone)]
pub struct BinaryMeta {
    /// Per-function metadata, indexed by [`FuncId`].
    pub funcs: Vec<FuncMeta>,
    /// All call sites, indexed by site id.
    pub call_sites: Vec<CallSiteMeta>,
    /// Address of the exit stub (initial return address of `main`).
    pub exit_stub: u64,
    ret_index: PerIsa<HashMap<u64, u32>>,
}

impl BinaryMeta {
    /// Builds the metadata and its lookup indices.
    pub fn new(funcs: Vec<FuncMeta>, call_sites: Vec<CallSiteMeta>, exit_stub: u64) -> Self {
        let mut ret_index: PerIsa<HashMap<u64, u32>> = PerIsa::build(|_| HashMap::new());
        for cs in &call_sites {
            for isa in Isa::ALL {
                ret_index[isa].insert(cs.ret_addr[isa], cs.id);
            }
        }
        BinaryMeta { funcs, call_sites, exit_stub, ret_index }
    }

    /// Finds the call site whose `isa` return address is `ret_addr`.
    pub fn site_by_ret_addr(&self, isa: Isa, ret_addr: u64) -> Option<&CallSiteMeta> {
        self.ret_index[isa].get(&ret_addr).map(|&id| &self.call_sites[id as usize])
    }

    /// Metadata for a function.
    pub fn func(&self, id: FuncId) -> &FuncMeta {
        &self.funcs[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_isa_indexing() {
        let mut p = PerIsa([10, 20]);
        assert_eq!(p[Isa::Xar86], 10);
        assert_eq!(p[Isa::Arm64e], 20);
        p[Isa::Xar86] = 11;
        assert_eq!(p.iter().map(|(_, v)| *v).sum::<i32>(), 31);
    }

    #[test]
    fn layouts_differ_across_isas_with_mixed_types() {
        let locals = vec![Ty::I64, Ty::F64, Ty::I64, Ty::F64];
        let x = FrameLayout::assign(Isa::Xar86, &locals);
        let a = FrameLayout::assign(Isa::Arm64e, &locals);
        assert_eq!(x.frame_size, 32);
        assert_eq!(a.frame_size, 32);
        // Declaration order on Xar86.
        assert_eq!(x.slot_off, vec![-8, -16, -24, -32]);
        // FP-first on Arm64e.
        assert_eq!(a.slot_off, vec![-24, -8, -32, -16]);
        assert_ne!(x.slot_off, a.slot_off);
    }

    #[test]
    fn frame_size_is_16_aligned_and_slots_within_frame() {
        for n in 0..20 {
            let locals = vec![Ty::I64; n];
            for isa in Isa::ALL {
                let l = FrameLayout::assign(isa, &locals);
                assert_eq!(l.frame_size % 16, 0);
                for &off in &l.slot_off {
                    assert!(off < 0 && off >= -l.frame_size);
                }
            }
        }
    }

    #[test]
    fn slot_off_from_sp_matches_fp_form() {
        let locals = vec![Ty::I64, Ty::I64, Ty::I64];
        let l = FrameLayout::assign(Isa::Xar86, &locals);
        let fp = 0x6FFF_FF00u64;
        let sp = fp - l.frame_size as u64;
        for i in 0..locals.len() {
            let lid = LocalId(i as u32);
            assert_eq!(l.slot_addr(fp, lid), sp + l.slot_off_from_sp(lid) as u64);
        }
    }

    #[test]
    fn ret_addr_lookup() {
        let meta = BinaryMeta::new(
            vec![],
            vec![CallSiteMeta {
                id: 0,
                func: FuncId(0),
                ret_addr: PerIsa([0x40_0010, 0x40_0020]),
                live: vec![],
                is_migration_point: true,
            }],
            0x41_0000,
        );
        assert_eq!(meta.site_by_ret_addr(Isa::Xar86, 0x40_0010).unwrap().id, 0);
        assert_eq!(meta.site_by_ret_addr(Isa::Arm64e, 0x40_0020).unwrap().id, 0);
        assert!(meta.site_by_ret_addr(Isa::Xar86, 0x40_0020).is_none());
    }
}
