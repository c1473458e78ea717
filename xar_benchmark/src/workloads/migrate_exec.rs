//! `migrate-exec`: the paper's headline mechanism, functionally. The
//! FaceDet320 application, built by `core::build_app` (steps A–G), runs
//! on the instruction-set VMs three ways per iteration — on x86, migrated
//! to ARM at the migration point, and dispatched to the FPGA through
//! `XarRtHandler` — and every run must return the golden window count.
//! Only `isa`, `popcorn`, `hls` and `core::handler` work here; no daemon
//! layer is involved. The recipe is `examples/facedet_pipeline.rs`.

use super::common::{finish_trace, trace_summaries};
use crate::blocks::{drive, summarize, BlockOut, TAILS_P90};
use crate::harness::{median_setup, Args, Outcome};
use crate::layers::probe;
use crate::spans::{SpanLog, Trace};
use crate::util::{median, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xar_core::handler::{KernelInfo, XarRtHandler};
use xar_core::{build_app, CompiledApp};
use xar_desim::ClusterConfig;
use xar_isa::Isa;
use xar_popcorn::Executor;
use xar_workloads::facedet::{self, GrayImage};
use xar_workloads::AppBundle;

const APP_ID: i64 = 2;
const W: usize = 320;
const H: usize = 240;
/// Images a run cycles through.
const IMAGES: usize = 4;
/// Iterations (three runs each) per block.
const BLOCK_ITERS: usize = 4;
/// This workload's set-up is a few milliseconds, so it is repeated more
/// often than the daemon workloads' for a steady median.
const SETUP_REPS: usize = 75;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    X86,
    Arm,
    Fpga,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::X86, Mode::Arm, Mode::Fpga];

    /// The scheduler flag the handler answers `ReadFlag` with.
    fn flag(self) -> i64 {
        match self {
            Mode::X86 => 0,
            Mode::Arm => 1,
            Mode::Fpga => 2,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Mode::X86 => "popcorn.run_x86",
            Mode::Arm => "popcorn.run_arm_migrated",
            Mode::Fpga => "popcorn.run_fpga",
        }
    }
}

struct Input {
    img: GrayImage,
    integral: Vec<u64>,
    golden: u64,
}

struct Rig {
    bundle: AppBundle,
    app: CompiledApp,
    inputs: Vec<Input>,
}

/// Steps A–G for FaceDet320, and the seed's images with their golden
/// answers.
fn build_rig(seed: u64) -> Rig {
    let bundle = xar_workloads::profiles::facedet_bundle(W, H);
    let app = build_app(&bundle, APP_ID, &ClusterConfig::default()).expect("pipeline builds");
    let mut rng = SplitMix64::stream(seed, 0xFACE, 0);
    let inputs = (0..IMAGES)
        .map(|_| {
            let faces: Vec<(usize, usize)> = (0..3)
                .map(|_| {
                    (20 + rng.below(W as u64 - 80) as usize, 20 + rng.below(H as u64 - 80) as usize)
                })
                .collect();
            let img = facedet::generate_image(W, H, &faces, rng.next_u64());
            let (integral, golden) = (facedet::integral_image(&img), facedet::count_windows(&img));
            Input { img, integral, golden }
        })
        .collect();
    Rig { bundle, app, inputs }
}

/// What one run did.
struct Run {
    ok: bool,
    /// Host time inside `Executor::run`.
    run: Duration,
    instret: u64,
    migrations: usize,
    /// Host time inside the hardware-kernel closure.
    kernel: Duration,
    stamps: [Instant; 3],
}

/// One run: handler and executor set-up, the integral image staged on
/// the guest heap, then `main`.
fn run_once(rig: &Rig, input: &Input, mode: Mode) -> Run {
    let t0 = Instant::now();
    let kernel_ns = Arc::new(AtomicU64::new(0));
    let mut handler = XarRtHandler::new();
    let (img, spent) = (input.img.clone(), kernel_ns.clone());
    handler.register_kernel(
        APP_ID,
        rig.app.xclbins[0].clone(),
        KernelInfo {
            kernel: rig.app.xo.kernel.name.clone(),
            in_bytes: (W * H) as u64,
            out_bytes: 8,
            compute_ms: rig.bundle.profile.fpga_kernel_ms,
        },
        Box::new(move |_mem, _spill| {
            // The hardware kernel computes the same cascade.
            let start = Instant::now();
            let count = facedet::count_windows(&img) as i64;
            spent.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            count
        }),
    );
    handler.set_flag(APP_ID, mode.flag());
    let mut exec = Executor::with_handler(&rig.app.binary, Isa::Xar86, handler);
    let ptr = exec.host_alloc((input.integral.len() * 8) as u64);
    for (k, v) in input.integral.iter().enumerate() {
        exec.memory_mut().write_u64(ptr + (k * 8) as u64, *v);
    }
    let t1 = Instant::now();
    let ret = exec.run("main", &[ptr as i64, W as i64, H as i64]);
    let t2 = Instant::now();
    let stats = exec.stats();
    let migrations = stats.migrations.len();
    let migrated_as_told = match mode {
        Mode::Arm => migrations == 1 && exec.current_isa() == Isa::Arm64e,
        Mode::X86 | Mode::Fpga => migrations == 0 && exec.current_isa() == Isa::Xar86,
    };
    Run {
        ok: ret.is_ok_and(|r| r as u64 == input.golden) && migrated_as_told,
        run: t2 - t1,
        instret: stats.instret.0.iter().sum(),
        migrations,
        kernel: Duration::from_nanos(kernel_ns.load(Ordering::Relaxed)),
        stamps: [t0, t1, t2],
    }
}

/// Per-mode totals over a run, for the layer table.
#[derive(Default)]
struct Totals {
    run: [Duration; 3],
    instret: [u64; 3],
    migrations: u64,
    iterations: u64,
}

pub fn run(args: &Args) -> Outcome {
    let (rig, setup_s) = median_setup(SETUP_REPS, |_| build_rig(args.seed));
    let mut out = Outcome::default();
    let mut samples = Vec::new();
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut totals = Totals::default();
    let iters = if args.quick { 1 } else { BLOCK_ITERS };

    let body = |b: u64| {
        let traced = args.trace && b % 2 == 1;
        let (mut failed, mut software, mut work) = (0u64, Duration::ZERO, 0u64);
        samples.clear();
        for i in 0..iters {
            let n = b as usize * iters + i;
            let input = &rig.inputs[n % IMAGES];
            let start = Instant::now();
            let mut ok = true;
            for (m, mode) in Mode::ALL.into_iter().enumerate() {
                let r = run_once(&rig, input, mode);
                ok &= r.ok;
                totals.run[m] += r.run;
                totals.instret[m] += r.instret;
                totals.migrations += r.migrations as u64;
                if mode != Mode::Fpga {
                    software += r.run;
                    work += r.instret;
                }
                if traced {
                    let id = log.record(mode.span(), 0, n as u64, r.stamps[0], r.stamps[2]);
                    log.record("stage_input", id, n as u64, r.stamps[0], r.stamps[1]);
                    if mode == Mode::Fpga {
                        log.record("hw_kernel", id, n as u64, r.stamps[1], r.stamps[1] + r.kernel);
                    }
                }
            }
            samples.push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            failed += u64::from(!ok);
            totals.iterations += 1;
        }
        // Throughput is guest instructions retired by the two software
        // runs over the host time those runs took.
        BlockOut::fold(&mut samples, TAILS_P90, work, failed, software)
    };
    let (seconds, min_blocks) = args.timed();
    let blocks = drive(vec![body], seconds, min_blocks);
    let all = summarize(&blocks);
    out.failed = all.failed;
    out.oracle.eq(all.failed, 0, "iterations with a run off the golden count or off its ISA");

    if args.trace {
        out.attempted = all.samples;
        let trace = Trace::from_logs([log]);
        trace_summaries(&mut out, blocks, &trace);
        layer_metrics(args, &rig, &totals, &mut out);
        finish_trace(args, &mut out, &trace);
    } else {
        out.set_end_to_end(&all, setup_s, SETUP_REPS as u64);
    }
    out
}

fn layer_metrics(args: &Args, rig: &Rig, totals: &Totals, out: &mut Outcome) {
    let n = totals.iterations;
    let minstr_per_s = |m: usize| totals.instret[m] as f64 / totals.run[m].as_secs_f64() / 1e6;
    // The migrated run retires almost all its instructions on ARM.
    out.set_n("isa.minstr_per_s_xar86", minstr_per_s(0), n, 0.0);
    out.set_n("isa.minstr_per_s_arm64e", minstr_per_s(1), n, 0.0);
    out.set_n(
        "popcorn.migrated_over_native_run",
        totals.run[1].as_secs_f64() / totals.run[0].as_secs_f64(),
        n,
        0.0,
    );
    out.set_n("popcorn.migrations", totals.migrations as f64 / n as f64, n, 0.0);

    let reps = if args.quick { 3 } else { 15 };
    let time_ms = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    let cfg = ClusterConfig::default();
    out.set_n(
        "core.build_app_ms",
        time_ms(&mut || drop(std::hint::black_box(build_app(&rig.bundle, APP_ID, &cfg)))),
        reps,
        0.0,
    );
    let mut module = rig.bundle.module.clone();
    xar_core::instrument::instrument(&mut module, &rig.bundle.selected, APP_ID)
        .expect("module instruments");
    out.set_n(
        "popcorn.compile_ms",
        time_ms(&mut || drop(std::hint::black_box(xar_popcorn::compile(&module)))),
        reps,
        0.0,
    );
    let input = &rig.inputs[0];
    out.set_n(
        "workloads.facedet_golden_ms",
        time_ms(&mut || {
            std::hint::black_box(facedet::count_windows(&input.img));
        }),
        reps,
        0.0,
    );
    let samples = args.scaled(400);
    let compile = probe(samples, 1, |_| {
        std::hint::black_box(xar_hls::compile_kernel(&rig.bundle.kernel).is_ok());
    });
    out.set_n("hls.compile_kernel_us", compile.ns / 1e3, compile.samples, 0.0);
    let platform = xar_hls::Platform::alveo_u50();
    let xos = std::slice::from_ref(&rig.app.xo);
    let partition = probe(samples, 1, |_| {
        std::hint::black_box(xar_hls::partition::partition_ffd(xos, &platform, "bench").is_ok());
    });
    out.set_n("hls.partition_ffd_us", partition.ns / 1e3, partition.samples, 0.0);
}
