//! FPGA device and PCIe models (the XRT stand-in).
//!
//! The run-time observes the FPGA through exactly four behaviours, all
//! modeled here with time as an explicit parameter (nanoseconds), so the
//! device composes with the discrete-event simulator:
//!
//! * **Reconfiguration** — downloading an XCLBIN takes bitstream-size /
//!   configuration-bandwidth plus fixed setup; the device cannot execute
//!   kernels while reconfiguring. Xar-Trek hides this latency by
//!   configuring at application start and by running on a CPU while a
//!   reconfiguration is in flight (paper §3.4, Algorithm 2 lines 9–18).
//! * **Kernel presence** — Algorithm 2 branches on "HW kernel available".
//! * **Data movement** — host↔card transfers cross a PCIe link.
//! * **Serial execution** — one compute unit per kernel; invocations of
//!   the same device queue.

use crate::partition::Xclbin;
use crate::Platform;
use std::sync::Arc;

/// A PCIe link model.
#[derive(Debug, Clone, Copy)]
pub struct PcieLink {
    /// Bandwidth in bytes per nanosecond (= GB/s).
    pub bytes_per_ns: f64,
    /// Per-transfer latency in nanoseconds (doorbell + DMA setup).
    pub latency_ns: f64,
}

impl PcieLink {
    /// The paper's interconnect: "PCIe (32GB/s)".
    pub fn gen3x16() -> PcieLink {
        PcieLink { bytes_per_ns: 32.0, latency_ns: 10_000.0 }
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bytes_per_ns
    }
}

/// One kernel invocation's timing, as XRT would report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRun {
    /// When the invocation was submitted.
    pub submit_ns: f64,
    /// When the device started it (after queueing/reconfiguration).
    pub start_ns: f64,
    /// When results were back in host memory.
    pub end_ns: f64,
    /// Host→device transfer time included.
    pub h2d_ns: f64,
    /// Kernel compute time.
    pub compute_ns: f64,
    /// Device→host transfer time included.
    pub d2h_ns: f64,
}

/// Device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Completed reconfigurations.
    pub reconfigurations: u64,
    /// Kernel invocations.
    pub invocations: u64,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Nanoseconds the fabric spent computing.
    pub busy_ns: f64,
}

/// A PCIe-attached FPGA accelerator card.
#[derive(Debug, Clone)]
pub struct FpgaDevice {
    platform: Platform,
    pcie: PcieLink,
    /// Shared with whoever registered it: loading a configuration bumps
    /// a reference count and copies no name.
    loaded: Option<Arc<Xclbin>>,
    /// The device is unavailable until this time (reconfiguration or a
    /// running kernel).
    busy_until_ns: f64,
    /// Configuration-port bandwidth in bytes/ns.
    config_bytes_per_ns: f64,
    /// Fixed reconfiguration overhead in ns.
    config_setup_ns: f64,
    stats: DeviceStats,
}

impl FpgaDevice {
    /// A device on `platform` behind `pcie`.
    pub fn new(platform: Platform, pcie: PcieLink) -> FpgaDevice {
        FpgaDevice {
            platform,
            pcie,
            loaded: None,
            busy_until_ns: 0.0,
            // ~0.4 GB/s effective configuration bandwidth + 150 ms setup:
            // seconds-scale XCLBIN downloads, as on real Alveo cards.
            config_bytes_per_ns: 0.4,
            config_setup_ns: 150e6,
            stats: DeviceStats::default(),
        }
    }

    /// An Alveo U50 behind PCIe gen3 x16 (the paper's card).
    pub fn alveo_u50() -> FpgaDevice {
        FpgaDevice::new(Platform::alveo_u50(), PcieLink::gen3x16())
    }

    /// The device platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The PCIe link.
    pub fn pcie(&self) -> PcieLink {
        self.pcie
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// The currently loaded configuration, if any.
    pub fn loaded(&self) -> Option<&Xclbin> {
        self.loaded.as_deref()
    }

    /// Whether `kernel` is resident *and* the device is not mid-
    /// reconfiguration at `now_ns` (Algorithm 2's "HW Kernel Available").
    pub fn kernel_available(&self, kernel: &str, now_ns: f64) -> bool {
        now_ns >= self.busy_until_ns - 1e-9 && self.kernel_resident(kernel)
    }

    /// Whether `kernel` is in the loaded configuration (regardless of
    /// in-flight work).
    pub fn kernel_resident(&self, kernel: &str) -> bool {
        self.loaded.as_ref().is_some_and(|x| x.has_kernel(kernel))
    }

    /// Time at which the device becomes idle.
    pub fn busy_until_ns(&self) -> f64 {
        self.busy_until_ns
    }

    /// Starts downloading `xclbin` at `now_ns`; returns the completion
    /// time. The previous configuration is unavailable immediately
    /// (paper: "until the reconfiguration is complete, the function
    /// remains on the x86 CPU or may migrate to the ARM CPU").
    ///
    /// The download starts once in-flight work is done, so completion
    /// times never run backwards: at non-decreasing submit times,
    /// reconfigurations and [`invoke`](Self::invoke)s finish in the
    /// order they were submitted. The device keeps `xclbin` itself, not
    /// a copy: pass a clone of a shared `Arc` to load the same
    /// configuration again.
    pub fn reconfigure(&mut self, xclbin: Arc<Xclbin>, now_ns: f64) -> f64 {
        let start = now_ns.max(self.busy_until_ns);
        let dl = self.config_setup_ns + xclbin.size_bytes as f64 / self.config_bytes_per_ns;
        self.busy_until_ns = start + dl;
        self.loaded = Some(xclbin);
        self.stats.reconfigurations += 1;
        self.busy_until_ns
    }

    /// Installs `xclbin` instantly, without charging reconfiguration
    /// time — models a download that completed before the measurement
    /// window (the paper's step F precedes all experiments). Like
    /// [`reconfigure`](Self::reconfigure), it keeps `xclbin` itself.
    pub fn preload(&mut self, xclbin: Arc<Xclbin>) {
        self.loaded = Some(xclbin);
        self.stats.reconfigurations += 1;
    }

    /// Invokes `kernel` at `now_ns`: queues behind any in-flight work,
    /// moves `in_bytes` to the card, computes for `compute_ns`, and
    /// moves `out_bytes` back.
    ///
    /// Returns `None` if the kernel is not resident.
    pub fn invoke(
        &mut self,
        kernel: &str,
        now_ns: f64,
        in_bytes: u64,
        out_bytes: u64,
        compute_ns: f64,
    ) -> Option<KernelRun> {
        if !self.kernel_resident(kernel) {
            return None;
        }
        let start = now_ns.max(self.busy_until_ns);
        let h2d = self.pcie.transfer_ns(in_bytes);
        let d2h = self.pcie.transfer_ns(out_bytes);
        let end = start + h2d + compute_ns + d2h;
        self.busy_until_ns = end;
        self.stats.invocations += 1;
        self.stats.h2d_bytes += in_bytes;
        self.stats.d2h_bytes += out_bytes;
        self.stats.busy_ns += compute_ns;
        Some(KernelRun {
            submit_ns: now_ns,
            start_ns: start,
            end_ns: end,
            h2d_ns: h2d,
            compute_ns,
            d2h_ns: d2h,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{compile_kernel, KOp, Kernel, KernelArg, LoopNest, TripCount};
    use crate::partition::partition_ffd;

    fn one_xclbin() -> Arc<Xclbin> {
        let k = Kernel {
            name: "KNL_HW_TEST".into(),
            args: vec![KernelArg::Scalar { name: "n".into() }],
            body: LoopNest::leaf(TripCount::Arg(0), vec![(KOp::MulF, 1)]),
            local_buffer_bytes: 0,
        };
        let xo = compile_kernel(&k).unwrap();
        Arc::new(partition_ffd(&[xo], &Platform::alveo_u50(), "t").unwrap().remove(0))
    }

    #[test]
    fn reconfiguration_is_seconds_scale_and_blocks() {
        let mut dev = FpgaDevice::alveo_u50();
        assert!(!dev.kernel_available("KNL_HW_TEST", 0.0));
        let done = dev.reconfigure(one_xclbin(), 0.0);
        assert!(done > 100e6, "reconfig under 100ms is implausible: {done}");
        assert!(!dev.kernel_available("KNL_HW_TEST", done / 2.0));
        assert!(dev.kernel_available("KNL_HW_TEST", done));
        assert_eq!(dev.stats().reconfigurations, 1);
    }

    #[test]
    fn invocations_queue_serially() {
        let mut dev = FpgaDevice::alveo_u50();
        let ready = dev.reconfigure(one_xclbin(), 0.0);
        let r1 = dev.invoke("KNL_HW_TEST", ready, 1 << 20, 1 << 10, 1e6).unwrap();
        let r2 = dev.invoke("KNL_HW_TEST", ready, 1 << 20, 1 << 10, 1e6).unwrap();
        assert!(r2.start_ns >= r1.end_ns, "second run must queue");
        assert!(r1.h2d_ns > r1.d2h_ns, "larger input transfer dominates");
        assert_eq!(dev.stats().invocations, 2);
    }

    #[test]
    fn missing_kernel_returns_none() {
        let mut dev = FpgaDevice::alveo_u50();
        assert!(dev.invoke("NOPE", 0.0, 0, 0, 1.0).is_none());
        dev.reconfigure(one_xclbin(), 0.0);
        assert!(dev.invoke("NOPE", 0.0, 0, 0, 1.0).is_none());
    }

    /// What the simulator's FPGA timer queue relies on: submitted at
    /// non-decreasing times, any mix of invocations and reconfigurations
    /// completes at non-decreasing times.
    #[test]
    fn completions_never_run_backwards_for_in_order_submits() {
        let x = one_xclbin();
        let mut dev = FpgaDevice::alveo_u50();
        let (mut now, mut last_end) = (0.0f64, dev.reconfigure(Arc::clone(&x), 0.0));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Submit gaps from 0 (a tie) to ~0.5 s, sizes up to 16 MiB.
            now += [0.0, 1.0, (state >> 40) as f64 * 30.0][(state % 3) as usize];
            let end = if state.is_multiple_of(17) {
                dev.reconfigure(Arc::clone(&x), now)
            } else {
                let bytes = state >> 40;
                let compute_ns = (state >> 44) as f64;
                dev.invoke("KNL_HW_TEST", now, bytes, bytes / 7, compute_ns).unwrap().end_ns
            };
            assert!(end >= last_end, "completion {end} before the previous {last_end}");
            assert!(end >= now, "completion {end} before its submit {now}");
            last_end = end;
        }
        assert!(dev.stats().invocations > 1_000);
    }

    /// A reconfiguration loads the caller's allocation, not a copy.
    #[test]
    fn a_configuration_is_shared_not_copied() {
        let x = one_xclbin();
        let mut dev = FpgaDevice::alveo_u50();
        dev.reconfigure(Arc::clone(&x), 0.0);
        assert!(std::ptr::eq(dev.loaded().unwrap(), &*x));
        assert_eq!(Arc::strong_count(&x), 2);
        let other = one_xclbin();
        dev.preload(Arc::clone(&other));
        assert!(std::ptr::eq(dev.loaded().unwrap(), &*other));
        assert_eq!(Arc::strong_count(&x), 1, "the replaced configuration is released");
        assert_eq!(Arc::strong_count(&other), 2);
    }

    #[test]
    fn pcie_transfer_model() {
        let link = PcieLink::gen3x16();
        let t1 = link.transfer_ns(0);
        let t2 = link.transfer_ns(32_000_000_000);
        assert!((t1 - 10_000.0).abs() < 1.0, "latency floor");
        assert!((t2 - t1 - 1e9).abs() < 1e6, "32 GB at 32 GB/s ≈ 1s");
    }

    #[test]
    fn early_config_hides_latency() {
        // Configure at t=0 (app start); first invocation at t=2s sees an
        // idle, ready device — the paper's §4.2 design point.
        let mut dev = FpgaDevice::alveo_u50();
        let done = dev.reconfigure(one_xclbin(), 0.0);
        assert!(done < 2e9);
        let r = dev.invoke("KNL_HW_TEST", 2e9, 1024, 1024, 1e6).unwrap();
        assert!((r.start_ns - 2e9).abs() < 1.0, "no residual wait");
    }
}
