//! `Memory` against a byte-per-address model: whatever mix of sized and
//! bulk accesses runs, at whatever offsets around page edges (the
//! `u64::MAX → 0` edge included), every read returns what the model
//! holds, pages are allocated by writes only, and a clone is isolated
//! from its original — both keep being written after the clone is taken.
//!
//! `Memory` keeps recently used pages in a small direct-mapped cache
//! indexed by the low page-number bits, so the shapes here are chosen to
//! work it whatever its size: edge pages that share a slot in any such
//! geometry, sweeps over more pages than it holds, a read of a page
//! before the write that creates it, and clones taken while it is warm.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use xar_isa::{Memory, PAGE_SIZE};

/// Page edges the addresses cluster around; edge 0 is the wrap-around.
/// Accesses near an edge land on the page before it and the page at it.
const EDGES: [u64; 4] = [0, PAGE_SIZE, 0x2000_0000, 0x7000_0000 - PAGE_SIZE];

/// Pages one sweep walks: several times any cache of pages `Memory` would
/// sensibly keep (64 entries today), so a sweep evicts its own first
/// pages before it reads them back.
const SWEEP_PAGES: u64 = 200;

#[derive(Debug, Clone)]
enum Op {
    ReadUint {
        addr: u64,
        size: u64,
    },
    WriteUint {
        addr: u64,
        size: u64,
        val: u64,
    },
    ReadBytes {
        addr: u64,
        len: usize,
    },
    WriteBytes {
        addr: u64,
        len: usize,
        fill: u8,
    },
    Zero {
        addr: u64,
        len: usize,
    },
    /// Read, write, read at one address on a page that is most likely
    /// not there yet: the first read must not make the page look absent
    /// to the write, nor to the read after it.
    ReadWriteRead {
        addr: u64,
        size: u64,
        val: u64,
    },
    /// One small write on each of `SWEEP_PAGES` consecutive pages, then
    /// every one of them read back, oldest first.
    Sweep {
        addr: u64,
        val: u64,
    },
    /// Clone the target; original and clone both stay targets.
    Snapshot,
}

/// An address within 12 bytes of an edge, or up to three pages before it
/// for the bulk operations that should span several pages.
fn arb_addr(reach: u64) -> impl Strategy<Value = u64> {
    (0usize..EDGES.len(), 0u64..reach + 12)
        .prop_map(move |(e, d)| EDGES[e].wrapping_sub(reach).wrapping_add(d))
}

/// An address within 12 bytes of a page edge, some hundreds of pages past
/// one of `EDGES`: a page few other operations have touched.
fn arb_far_addr() -> impl Strategy<Value = u64> {
    (arb_addr(12), 4u64..600).prop_map(|(a, pages)| a.wrapping_add(pages * PAGE_SIZE))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(12), 1u64..9).prop_map(|(addr, size)| Op::ReadUint { addr, size }),
        (arb_addr(12), 1u64..9, any::<u64>()).prop_map(|(addr, size, val)| Op::WriteUint {
            addr,
            size,
            val
        }),
        (arb_addr(9000), 0usize..9001).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        (arb_addr(9000), 0usize..9001, any::<u8>()).prop_map(|(addr, len, fill)| Op::WriteBytes {
            addr,
            len,
            fill
        }),
        (arb_addr(600), 0usize..700).prop_map(|(addr, len)| Op::Zero { addr, len }),
        (arb_far_addr(), 1u64..9, any::<u64>()).prop_map(|(addr, size, val)| Op::ReadWriteRead {
            addr,
            size,
            val
        }),
        (arb_addr(12), any::<u64>()).prop_map(|(addr, val)| Op::Sweep { addr, val }),
        Just(Op::Snapshot),
    ]
}

/// The reference: one byte per written address, and the pages written.
#[derive(Debug, Default, Clone)]
struct Model {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Model {
    fn write(&mut self, addr: u64, data: impl Iterator<Item = u8>) {
        for (i, b) in data.enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.bytes.insert(a, b);
            self.pages.insert(a / PAGE_SIZE);
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
            .collect()
    }

    fn read_uint(&self, addr: u64, size: u64) -> u64 {
        let mut le = [0u8; 8];
        le[..size as usize].copy_from_slice(&self.read(addr, size as usize));
        u64::from_le_bytes(le)
    }

    /// The whole of page `pno`.
    fn page(&self, pno: u64) -> Vec<u8> {
        let base = pno * PAGE_SIZE;
        let mut page = vec![0u8; PAGE_SIZE as usize];
        for (a, b) in self.bytes.range(base..=base + (PAGE_SIZE - 1)) {
            page[(a - base) as usize] = *b;
        }
        page
    }
}

fn check_same(mem: &Memory, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.resident_pages(), model.pages.len());
    prop_assert_eq!(mem.pages_touched(), model.pages.len() as u64);
    let resident: BTreeSet<u64> = mem.resident_page_numbers().collect();
    prop_assert_eq!(&resident, &model.pages);
    for pno in &model.pages {
        prop_assert_eq!(mem.dump(pno * PAGE_SIZE, PAGE_SIZE as usize), model.page(*pno));
    }
    Ok(())
}

fn apply(op: Op, mem: &mut Memory, model: &mut Model) -> Result<(), TestCaseError> {
    match op {
        Op::ReadUint { addr, size } => {
            let got = mem.read_uint(addr, size);
            prop_assert_eq!(got, model.read_uint(addr, size), "read_uint({addr:#x}, {size})");
        }
        Op::WriteUint { addr, size, val } => {
            mem.write_uint(addr, val, size);
            model.write(addr, val.to_le_bytes().into_iter().take(size as usize));
        }
        Op::ReadBytes { addr, len } => {
            let mut got = vec![0xEE; len];
            mem.read_bytes(addr, &mut got);
            prop_assert_eq!(got, model.read(addr, len), "read_bytes({addr:#x}, {len})");
        }
        Op::WriteBytes { addr, len, fill } => {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            mem.write_bytes(addr, &data);
            model.write(addr, data.into_iter());
        }
        Op::Zero { addr, len } => {
            mem.zero(addr, len);
            model.write(addr, std::iter::repeat_n(0, len));
        }
        Op::ReadWriteRead { addr, size, val } => {
            let pages = mem.resident_pages();
            let got = mem.read_uint(addr, size);
            prop_assert_eq!(got, model.read_uint(addr, size), "read before write at {addr:#x}");
            prop_assert_eq!(mem.resident_pages(), pages, "a read allocated at {addr:#x}");
            apply(Op::WriteUint { addr, size, val }, mem, model)?;
            prop_assert_eq!(mem.resident_pages(), model.pages.len(), "write at {addr:#x}");
            apply(Op::ReadUint { addr, size }, mem, model)?;
        }
        Op::Sweep { addr, val } => {
            let at = |k: u64| addr.wrapping_add(k * PAGE_SIZE);
            for k in 0..SWEEP_PAGES {
                apply(
                    Op::WriteUint { addr: at(k), size: 2, val: val.wrapping_add(k) },
                    mem,
                    model,
                )?;
            }
            for k in 0..SWEEP_PAGES {
                apply(Op::ReadUint { addr: at(k), size: 8 }, mem, model)?;
            }
        }
        Op::Snapshot => unreachable!("handled by the caller, which owns the clones"),
    }
    Ok(())
}

/// Whatever power-of-two number of slots a cache indexed by the low
/// page-number bits has (up to 2^16), two pages the edge accesses land on
/// share one of them.
#[test]
fn edge_pages_collide_in_every_direct_mapped_geometry() {
    let pages: BTreeSet<u64> =
        EDGES.iter().flat_map(|e| [e.wrapping_sub(1) / PAGE_SIZE, e / PAGE_SIZE]).collect();
    for bits in 0..=16 {
        let slots: BTreeSet<u64> = pages.iter().map(|p| p % (1 << bits)).collect();
        assert!(slots.len() < pages.len(), "no two of {pages:x?} share a slot of 2^{bits}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each operation lands on the original or on one of the clones taken
    /// so far (`target` picks which), so a clone and its original are
    /// both written after they part; all of them are checked at the end.
    #[test]
    fn memory_matches_the_byte_model(
        ops in proptest::collection::vec((any::<usize>(), arb_op()), 1..40)
    ) {
        let mut mems: Vec<(Memory, Model)> = vec![Default::default()];
        for (target, op) in ops {
            let target = target % mems.len();
            match op {
                Op::Snapshot => mems.push(mems[target].clone()),
                op => {
                    let (mem, model) = &mut mems[target];
                    apply(op, mem, model)?;
                }
            }
        }
        for (mem, model) in &mems {
            check_same(mem, model)?;
        }
    }
}
