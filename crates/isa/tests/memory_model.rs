//! `Memory` against a byte-per-address model: whatever mix of sized and
//! bulk accesses runs, at whatever offsets around page edges (the
//! `u64::MAX → 0` edge included), every read returns what the model
//! holds, pages are allocated by writes only, and a clone is isolated
//! from its original.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use xar_isa::{Memory, PAGE_SIZE};

/// Page edges the addresses cluster around; edge 0 is the wrap-around.
const EDGES: [u64; 4] = [0, PAGE_SIZE, 0x2000_0000, 0x7000_0000 - PAGE_SIZE];

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
    /// Clone the memory; the clone must keep this moment's contents.
    Snapshot,
}

/// An address within 12 bytes of an edge, or up to three pages before it
/// for the bulk operations that should span several pages.
fn arb_addr(reach: u64) -> impl Strategy<Value = u64> {
    (0usize..EDGES.len(), 0u64..reach + 12)
        .prop_map(move |(e, d)| EDGES[e].wrapping_sub(reach).wrapping_add(d))
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
}

fn check_same(mem: &Memory, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.resident_pages(), model.pages.len());
    prop_assert_eq!(mem.pages_touched(), model.pages.len() as u64);
    let resident: BTreeSet<u64> = mem.resident_page_numbers().collect();
    prop_assert_eq!(&resident, &model.pages);
    for pno in &model.pages {
        let base = pno * PAGE_SIZE;
        prop_assert_eq!(mem.dump(base, PAGE_SIZE as usize), model.read(base, PAGE_SIZE as usize));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_matches_the_byte_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        let mut snapshots: Vec<(Memory, Model)> = Vec::new();
        for op in ops {
            match op {
                Op::ReadUint { addr, size } => {
                    let mut want = [0u8; 8];
                    want[..size as usize].copy_from_slice(&model.read(addr, size as usize));
                    let got = mem.read_uint(addr, size);
                    prop_assert_eq!(got, u64::from_le_bytes(want), "read_uint({addr:#x}, {size})");
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
                Op::Snapshot => snapshots.push((mem.clone(), model.clone())),
            }
        }
        check_same(&mem, &model)?;
        for (mem, model) in &snapshots {
            check_same(mem, model)?;
        }
    }
}
