//! Property-based tests over the substrates: instruction-encoding
//! roundtrips, processor-sharing work conservation, XCLBIN partitioning
//! invariants, DSM coherence, and PGM image roundtrips.

use proptest::prelude::*;
use xar_trek::hls::kernel::{KOp, Kernel, KernelArg, LoopNest, TripCount};
use xar_trek::hls::{compile_kernel, partition_ffd, Platform};
use xar_trek::isa::{decode, encode, AluOp, Cond, Isa, MInstr, MemSize, Reg};

fn arb_reg(isa: Isa) -> BoxedStrategy<Reg> {
    (0..isa.gp_reg_count()).prop_map(Reg).boxed()
}

fn arb_instr(isa: Isa) -> BoxedStrategy<MInstr> {
    let r = arb_reg(isa);
    prop_oneof![
        (r.clone(), any::<i64>()).prop_map(|(dst, imm)| MInstr::MovImm { dst, imm }),
        (r.clone(), r.clone()).prop_map(|(dst, src)| MInstr::MovReg { dst, src }),
        (0..10u8, r.clone(), r.clone()).prop_map(move |(op, dst, rhs)| {
            let op = AluOp::from_index(op).unwrap();
            // Respect Xar86's two-operand constraint.
            match isa {
                Isa::Xar86 => MInstr::Alu { op, dst, lhs: dst, rhs },
                Isa::Arm64e => MInstr::Alu { op, dst, lhs: rhs, rhs },
            }
        }),
        (r.clone(), r.clone(), any::<i32>(), 0..4u8).prop_map(|(dst, base, off, s)| {
            MInstr::Load { dst, base, off, size: MemSize::from_index(s).unwrap() }
        }),
        (r.clone(), any::<i32>()).prop_map(|(dst, off)| MInstr::LoadSp { dst, off }),
        (0..6u8, 0..4096i64).prop_map(|(c, delta)| MInstr::JCond {
            cond: Cond::from_index(c).unwrap(),
            target: 0x40_0000 + delta as u64,
        }),
        (r.clone(), r).prop_map(|(a, b)| MInstr::Cmp { lhs: a, rhs: b }),
        Just(MInstr::Ret),
        Just(MInstr::Nop),
        Just(MInstr::Leave),
        any::<i32>().prop_map(|imm| MInstr::AddSp { imm }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every encodable instruction,
    /// on both ISAs, at arbitrary addresses.
    #[test]
    fn xar86_encoding_roundtrips(ins in arb_instr(Isa::Xar86), at in 0x40_0000u64..0x50_0000) {
        let bytes = encode(Isa::Xar86, at, &ins).unwrap();
        let (back, len) = decode(Isa::Xar86, at, &bytes).unwrap();
        prop_assert_eq!(back, ins);
        prop_assert_eq!(len, bytes.len());
    }

    #[test]
    fn arm64e_encoding_roundtrips(ins in arb_instr(Isa::Arm64e), at in 0x40_0000u64..0x50_0000) {
        let bytes = encode(Isa::Arm64e, at, &ins).unwrap();
        prop_assert_eq!(bytes.len(), 12, "fixed-width encoding");
        let (back, len) = decode(Isa::Arm64e, at, &bytes).unwrap();
        prop_assert_eq!(back, ins);
        prop_assert_eq!(len, 12);
    }

    /// Processor sharing conserves work: however arrivals interleave,
    /// total progress equals elapsed wall time × min(1, C/N) per job.
    #[test]
    fn processor_sharing_conserves_work(
        works in proptest::collection::vec(10.0f64..500.0, 1..12),
        cores in 1u32..8,
    ) {
        use xar_trek::desim::machine::{JobId, PsMachine};
        let mut m = PsMachine::new("t", cores);
        for (i, w) in works.iter().enumerate() {
            m.add(JobId(i as u64), *w, 0.0);
        }
        // Advance in arbitrary-but-fixed steps; remaining work must
        // drop by exactly rate × dt each step.
        let mut t = 0.0f64;
        for step in 1..6 {
            let rate = m.rate();
            let before: f64 = (0..works.len())
                .filter_map(|i| m.remaining(JobId(i as u64)))
                .sum();
            let dt = step as f64 * 7.5e6; // ns
            t += dt;
            m.advance(t);
            let after: f64 = (0..works.len())
                .filter_map(|i| m.remaining(JobId(i as u64)))
                .sum();
            let expected = (before - rate * dt / 1e6 * works.len() as f64).max(0.0);
            // Clamping at zero makes this an inequality in general; when
            // nothing clamps it must be exact.
            if (0..works.len()).all(|i| m.remaining(JobId(i as u64)).unwrap() > 0.0) {
                prop_assert!((after - expected).abs() < 1e-6,
                    "work conservation: {} vs {}", after, expected);
            } else {
                prop_assert!(after >= expected - 1e-6);
            }
        }
    }

    /// FFD partitioning invariants: every kernel placed exactly once,
    /// every bin within the dynamic region, for arbitrary kernel mixes.
    #[test]
    fn partitioner_invariants(muls in proptest::collection::vec(1u64..600, 1..10)) {
        let xos: Vec<_> = muls
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                compile_kernel(&Kernel {
                    name: format!("k{i}"),
                    args: vec![KernelArg::Scalar { name: "n".into() }],
                    body: LoopNest::leaf(
                        TripCount::Arg(0),
                        vec![(KOp::MulF, m), (KOp::AddF, 1)],
                    ),
                    local_buffer_bytes: 4096,
                })
                .unwrap()
            })
            .collect();
        let platform = Platform::alveo_u50();
        match partition_ffd(&xos, &platform, "p") {
            Ok(bins) => {
                let region = platform.dynamic_region();
                let mut placed: Vec<&String> = bins.iter().flat_map(|b| &b.kernels).collect();
                placed.sort();
                prop_assert_eq!(placed.len(), xos.len());
                placed.dedup();
                prop_assert_eq!(placed.len(), xos.len(), "each kernel exactly once");
                for b in &bins {
                    prop_assert!(b.used.fits_in(&region));
                    prop_assert!(b.size_bytes >= platform.xclbin_base_bytes);
                }
            }
            Err(e) => {
                // Only legitimate failure: a single kernel exceeds the
                // device.
                prop_assert!(matches!(
                    e,
                    xar_trek::hls::PartitionError::KernelTooLarge(_)
                ));
            }
        }
    }

    /// DSM: after any access trace, the single-writer invariant holds
    /// and valid copies observe the latest version.
    #[test]
    fn dsm_coherence_under_random_traces(
        ops in proptest::collection::vec((0u32..4, 0u64..8, any::<bool>()), 1..200)
    ) {
        use xar_trek::popcorn::dsm::{Access, Dsm, NodeId};
        let mut dsm = Dsm::new(4, 4096);
        for (node, page, write) in ops {
            let acc = if write { Access::Write } else { Access::Read };
            dsm.access(NodeId(node), page, acc);
            prop_assert!(dsm.copies_are_coherent(page));
        }
    }

    /// PGM encode/decode roundtrips for arbitrary image contents.
    #[test]
    fn pgm_roundtrips(w in 1usize..64, h in 1usize..64, seed in any::<u64>()) {
        use xar_trek::workloads::facedet::GrayImage;
        let img = xar_trek::workloads::facedet::generate_image(w, h, &[], seed);
        let back = GrayImage::from_pgm(&img.to_pgm()).unwrap();
        prop_assert_eq!(back, img);
    }

    /// The threshold-table text format roundtrips arbitrary entries.
    #[test]
    fn threshold_table_roundtrips(
        entries in proptest::collection::vec(("[a-z]{1,8}", "[A-Z_]{1,12}", any::<u32>(), any::<u32>()), 0..8)
    ) {
        let mut t = xar_trek::core::ThresholdTable::new();
        for (app, kernel, f, a) in entries {
            t.insert(xar_trek::core::ThresholdEntry { app, kernel, fpga_thr: f, arm_thr: a });
        }
        let back = xar_trek::core::ThresholdTable::from_text(&t.to_text()).unwrap();
        prop_assert_eq!(back, t);
    }
}

/// The executor's pieces move between threads; none is shared by
/// reference (`Memory` is deliberately not `Sync`, see its docs).
#[test]
fn vm_memory_and_binary_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<xar_trek::isa::Vm>();
    assert_send::<xar_trek::isa::Memory>();
    assert_send::<xar_trek::popcorn::MultiIsaBinary>();
}
