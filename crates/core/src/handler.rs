//! The Xar-Trek runtime-library handler for functional execution.
//!
//! Connects [`xar_popcorn::Executor`]'s runtime calls to Xar-Trek's
//! run-time system: migration flags (scheduler client), FPGA
//! configuration and kernel invocation against the device model, and
//! scheduler-client lifecycle events. Hardware kernels execute
//! *functionally* through a registered closure (the golden Rust
//! implementation operating on guest memory — hardware is
//! bit-equivalent to software for these kernels) while the
//! [`xar_hls::FpgaDevice`] accounts time.

use std::collections::HashMap;
use std::sync::Arc;
use xar_hls::{FpgaDevice, Xclbin};
use xar_isa::Memory;
use xar_popcorn::rt::RtFunc;
use xar_popcorn::runtime::RtHandler;

/// A functional hardware kernel: reads its arguments from the spill
/// area at the given guest address, computes on guest memory, returns
/// the i64 result (or writes an f64 to spill slot 7).
pub type KernelFn = Box<dyn FnMut(&mut Memory, u64) -> i64 + Send>;

/// Per-application kernel metadata for device-time accounting.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Hardware kernel name.
    pub kernel: String,
    /// Host→device bytes per call.
    pub in_bytes: u64,
    /// Device→host bytes per call.
    pub out_bytes: u64,
    /// Fabric compute time per call, ms.
    pub compute_ms: f64,
}

/// Scheduler-client lifecycle and device events observed during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum RtEvent {
    /// `SchedClientStart(app)` at the given virtual ns.
    ClientStart(i64, f64),
    /// `SchedClientEnd(app)`.
    ClientEnd(i64, f64),
    /// FPGA configured for `app`.
    Configured(i64, f64),
    /// Kernel invoked for `app`; device start/end ns.
    Invoked {
        /// Application id.
        app: i64,
        /// Device-side start time.
        start_ns: f64,
        /// Device-side end time.
        end_ns: f64,
    },
}

/// The handler installed into the executor for Xar-Trek programs.
#[derive(Default)]
pub struct XarRtHandler {
    /// Per-app migration flags (0 = x86, 1 = ARM, 2 = FPGA), as set by
    /// the scheduler client.
    pub flags: HashMap<i64, i64>,
    /// The FPGA device model (time accounting).
    pub device: Option<FpgaDevice>,
    /// Shared with the device once loaded: a configure copies no name.
    xclbins: HashMap<i64, Arc<Xclbin>>,
    kernels: HashMap<i64, (KernelInfo, KernelFn)>,
    /// Event log.
    pub events: Vec<RtEvent>,
}

impl std::fmt::Debug for XarRtHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XarRtHandler")
            .field("flags", &self.flags)
            .field("kernels", &self.kernels.keys().collect::<Vec<_>>())
            .field("events", &self.events.len())
            .finish()
    }
}

impl XarRtHandler {
    /// A handler with an Alveo U50 device.
    pub fn new() -> Self {
        XarRtHandler { device: Some(FpgaDevice::alveo_u50()), ..Default::default() }
    }

    /// Sets the migration flag for `app` (what the scheduler server
    /// would do through the client).
    pub fn set_flag(&mut self, app: i64, flag: i64) {
        self.flags.insert(app, flag);
    }

    /// Registers an application's XCLBIN (loaded on `FpgaConfigure`)
    /// and its functional kernel.
    pub fn register_kernel(&mut self, app: i64, xclbin: Xclbin, info: KernelInfo, func: KernelFn) {
        self.xclbins.insert(app, Arc::new(xclbin));
        self.kernels.insert(app, (info, func));
    }
}

impl RtHandler for XarRtHandler {
    fn handle(&mut self, func: RtFunc, args: [i64; 6], mem: &mut Memory, clock_ns: f64) -> i64 {
        match func {
            RtFunc::ReadFlag => self.flags.get(&args[0]).copied().unwrap_or(0),
            RtFunc::SchedClientStart => {
                self.events.push(RtEvent::ClientStart(args[0], clock_ns));
                0
            }
            RtFunc::SchedClientEnd => {
                self.events.push(RtEvent::ClientEnd(args[0], clock_ns));
                0
            }
            RtFunc::FpgaConfigure => {
                if let (Some(dev), Some(x)) = (self.device.as_mut(), self.xclbins.get(&args[0])) {
                    if !x.kernels.iter().all(|k| dev.kernel_resident(k)) {
                        dev.reconfigure(Arc::clone(x), clock_ns);
                        self.events.push(RtEvent::Configured(args[0], clock_ns));
                    }
                }
                0
            }
            RtFunc::FpgaInvoke => {
                let app = args[0];
                let spill = args[1] as u64;
                let Some((info, f)) = self.kernels.get_mut(&app) else {
                    return -1;
                };
                let ret = f(mem, spill);
                if let Some(dev) = self.device.as_mut() {
                    if let Some(run) = dev.invoke(
                        &info.kernel,
                        clock_ns,
                        info.in_bytes,
                        info.out_bytes,
                        info.compute_ms * 1e6,
                    ) {
                        self.events.push(RtEvent::Invoked {
                            app,
                            start_ns: run.start_ns,
                            end_ns: run.end_ns,
                        });
                    }
                }
                ret
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use xar_popcorn::compile;
    use xar_popcorn::ir::{BinOp, Module, Ty};

    fn instrumented_binary() -> xar_popcorn::MultiIsaBinary {
        let mut m = Module::new("t");
        let mut sel = m.function("work", &[Ty::I64], Some(Ty::I64));
        let x = sel.param(0);
        let y = sel.bin_i(BinOp::Mul, x, 3);
        sel.ret(Some(y));
        let sel_id = sel.finish();
        let mut main = m.function("main", &[Ty::I64], Some(Ty::I64));
        let p = main.param(0);
        let r = main.call(sel_id, &[p]).unwrap();
        main.ret(Some(r));
        main.finish();
        instrument(&mut m, "work", 1).unwrap();
        compile(&m).unwrap()
    }

    fn fd_xclbin() -> Xclbin {
        let k = xar_workloads::facedet::kernel("KNL_T", 64, 48);
        let xo = xar_hls::compile_kernel(&k).unwrap();
        xar_hls::partition_ffd(&[xo], &xar_hls::Platform::alveo_u50(), "t").unwrap().remove(0)
    }

    fn handler_with_kernel() -> XarRtHandler {
        let mut h = XarRtHandler::new();
        h.register_kernel(
            1,
            fd_xclbin(),
            KernelInfo { kernel: "KNL_T".into(), in_bytes: 1024, out_bytes: 8, compute_ms: 1.0 },
            Box::new(|mem, spill| {
                // Functional kernel: triple the first spilled argument.
                let x = mem.read_i64(spill);
                x * 3
            }),
        );
        h
    }

    #[test]
    fn flag_zero_software_flag_two_hardware_same_result() {
        let bin = instrumented_binary();
        // Software path.
        let mut e =
            xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, handler_with_kernel());
        assert_eq!(e.run("main", &[14]).unwrap(), 42);
        // Hardware path.
        let mut h = handler_with_kernel();
        h.set_flag(1, 2);
        let mut e = xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, h);
        assert_eq!(e.run("main", &[14]).unwrap(), 42);
        let events = &e.handler().events;
        assert!(events.iter().any(|ev| matches!(ev, RtEvent::Invoked { app: 1, .. })));
        assert!(events.iter().any(|ev| matches!(ev, RtEvent::Configured(1, _))));
    }

    #[test]
    fn flag_one_migrates_to_arm_and_back() {
        let bin = instrumented_binary();
        let mut h = handler_with_kernel();
        h.set_flag(1, 1); // ARM
        let mut e = xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, h);
        assert_eq!(e.run("main", &[14]).unwrap(), 42);
        // Migrated x86 → ARM at the first migration point, back at the
        // second (flag still says ARM... the flag is 1, so the return
        // trip does not happen — the thread stays on ARM).
        assert_eq!(e.stats().migrations.len(), 1);
        assert_eq!(e.current_isa(), xar_isa::Isa::Arm64e);
        // Now flip the flag to 0 mid-run is not possible from outside;
        // instead verify a fresh run with flag 0 stays on x86.
        let mut e2 =
            xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, handler_with_kernel());
        e2.run("main", &[14]).unwrap();
        assert!(e2.stats().migrations.is_empty());
    }

    #[test]
    fn client_lifecycle_events_recorded() {
        let bin = instrumented_binary();
        let mut e =
            xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, handler_with_kernel());
        e.run("main", &[1]).unwrap();
        let ev = &e.handler().events;
        assert!(matches!(ev.first(), Some(RtEvent::ClientStart(1, _))));
        assert!(matches!(ev.last(), Some(RtEvent::ClientEnd(1, _))));
    }

    #[test]
    fn unregistered_app_fpga_invoke_fails_gracefully() {
        let bin = instrumented_binary();
        let mut h = XarRtHandler::new(); // no kernel registered
        h.set_flag(1, 2);
        let mut e = xar_popcorn::Executor::with_handler(&bin, xar_isa::Isa::Xar86, h);
        // FpgaInvoke returns -1; main returns it (status as result).
        assert_eq!(e.run("main", &[14]).unwrap(), -1);
    }
}
