//! Micro-benchmarks of the substrates: cross-ISA state transformation,
//! codegen + aligned linking, VM dispatch, DSM protocol, HLS
//! scheduling, XCLBIN partitioning.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use xar_isa::Isa;
use xar_popcorn::dsm::{Access, Dsm, NodeId};
use xar_popcorn::ir::{BinOp, Cond, Module, Ty};
use xar_popcorn::rt::RtFunc;
use xar_popcorn::{compile, Executor};

fn deep_module(depth: i64) -> Module {
    // rec(n) = n<=0 ? migpoint(),0 : rec(n-1)+n — builds a deep stack
    // with a migration point at the bottom.
    let mut m = Module::new("deep");
    let rec = m.declare("rec", &[Ty::I64], Some(Ty::I64));
    let mut f = m.function_with_id(rec);
    let n = f.param(0);
    let base = f.new_block();
    let step = f.new_block();
    let c = f.icmp_i(Cond::Le, n, 0);
    f.cond_br(c, base, step);
    f.switch_to(base);
    f.call_rt(RtFunc::MigPoint, &[]);
    let zero = f.const_i(0);
    f.ret(Some(zero));
    f.switch_to(step);
    let n1 = f.bin_i(BinOp::Sub, n, 1);
    let r = f.call(rec, &[n1]).unwrap();
    let s = f.bin(BinOp::Add, r, n);
    f.ret(Some(s));
    f.finish();
    let mut main = m.function("main", &[Ty::I64], Some(Ty::I64));
    let p = main.param(0);
    let r = main.call(rec, &[p]).unwrap();
    main.ret(Some(r));
    main.finish();
    let _ = depth;
    m
}

fn bench_stack_transform(c: &mut Criterion) {
    let mut g = c.benchmark_group("stack-transform");
    for depth in [8i64, 64, 256] {
        let bin = compile(&deep_module(depth)).unwrap();
        g.bench_function(format!("migrate-depth-{depth}"), |b| {
            b.iter_batched(
                || {
                    let mut e = Executor::new(&bin, Isa::Xar86);
                    e.migrate_at_migpoint(1, Isa::Arm64e);
                    e
                },
                |mut e| e.run("main", &[depth]).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("multi-isa-compile");
    let bundle = xar_workloads::profiles::digitrec_bundle(500);
    g.bench_function("digitrec-module", |b| {
        b.iter(|| compile(std::hint::black_box(&bundle.module)).unwrap())
    });
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    let mut m = Module::new("loop");
    let mut f = m.function("main", &[Ty::I64], Some(Ty::I64));
    let n = f.param(0);
    let acc = f.new_local(Ty::I64);
    let i = f.new_local(Ty::I64);
    let zero = f.const_i(0);
    f.assign(acc, zero);
    f.assign(i, zero);
    let hdr = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    f.br(hdr);
    f.switch_to(hdr);
    let cnd = f.icmp(Cond::Lt, i, n);
    f.cond_br(cnd, body, exit);
    f.switch_to(body);
    let acc2 = f.bin(BinOp::Add, acc, i);
    f.assign(acc, acc2);
    let i2 = f.bin_i(BinOp::Add, i, 1);
    f.assign(i, i2);
    f.br(hdr);
    f.switch_to(exit);
    f.ret(Some(acc));
    f.finish();
    let bin = compile(&m).unwrap();
    for isa in Isa::ALL {
        g.bench_function(format!("loop-10k-{isa}"), |b| {
            b.iter(|| {
                let mut e = Executor::new(&bin, isa);
                e.run("main", &[10_000]).unwrap()
            })
        });
    }
    // The loop above keeps its state in registers and stack slots; this
    // row is load-bound (FaceDet320's cascade over a staged integral
    // image), so it sees `Memory` as well as dispatch; the block-table
    // lookup is paid once per ~16 retired instructions (42 k blocks per
    // run). The id carries the retired-instruction count: ns/iter over it
    // is ns per guest instruction.
    let fd = compile(&xar_workloads::profiles::facedet_bundle(320, 240).module).unwrap();
    let img = xar_workloads::facedet::generate_image(320, 240, &[(30, 30), (150, 80)], 42);
    let ii = xar_workloads::facedet::integral_image(&img);
    for isa in Isa::ALL {
        let mut e = Executor::new(&fd, isa);
        let ptr = e.host_alloc(ii.len() as u64 * 8);
        for (k, v) in ii.iter().enumerate() {
            e.memory_mut().write_u64(ptr + k as u64 * 8, *v);
        }
        let args = [ptr as i64, img.w as i64, img.h as i64];
        e.run("main", &args).unwrap();
        let instret = e.stats().instret[isa];
        g.bench_function(format!("facedet320-{isa}-{instret}-instr"), |b| {
            b.iter(|| e.run("main", &args).unwrap())
        });
    }
    g.finish();
}

fn bench_dsm(c: &mut Criterion) {
    c.bench_function("dsm-10k-accesses", |b| {
        b.iter(|| {
            let mut dsm = Dsm::new(2, 4096);
            for i in 0u64..10_000 {
                let node = NodeId((i % 2) as u32);
                let acc = if i % 3 == 0 { Access::Write } else { Access::Read };
                dsm.access(node, i % 64, acc);
            }
            dsm.stats()
        })
    });
}

fn bench_hls(c: &mut Criterion) {
    let mut g = c.benchmark_group("hls");
    let kernel = xar_workloads::facedet::kernel("KNL_HW_FD640", 640, 480);
    g.bench_function("schedule-fd640", |b| {
        b.iter(|| xar_hls::compile_kernel(std::hint::black_box(&kernel)).unwrap())
    });
    let xos: Vec<_> = (0..12)
        .map(|i| {
            xar_hls::compile_kernel(&xar_workloads::digitrec::kernel(&format!("K{i}"), 18_000, 500))
                .unwrap()
        })
        .collect();
    g.bench_function("partition-ffd-12", |b| {
        b.iter(|| {
            xar_hls::partition_ffd(
                std::hint::black_box(&xos),
                &xar_hls::Platform::alveo_u50(),
                "bench",
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stack_transform, bench_compile, bench_vm, bench_dsm, bench_hls);
criterion_main!(benches);
