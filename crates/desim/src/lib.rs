//! # xar-desim — a discrete-event datacenter simulator
//!
//! The paper's evaluation platform is a Dell 7920 (6-core Xeon Bronze
//! 3104 @ 1.7 GHz), a 96-core Cavium ThunderX @ 2 GHz, and an Alveo U50,
//! joined by 1 Gbps Ethernet and PCIe gen3 x16. This crate models that
//! testbed so the Xar-Trek scheduler can be evaluated at datacenter
//! scale (hundreds of concurrent processes, 43-minute periodic
//! workloads) — something the instruction-level VMs of `xar-isa` cannot
//! reach.
//!
//! Model summary:
//!
//! * **Machines** are processor-sharing multi-cores: `N` runnable jobs
//!   on `C` cores each progress at rate `min(1, C/N)` — the standard
//!   queueing abstraction of a time-sharing OS under CPU-bound load,
//!   which is exactly the paper's load regime (Table 3 defines load as
//!   the process/core ratio).
//! * **The FPGA** is [`xar_hls::FpgaDevice`]: serial compute-unit
//!   execution, PCIe transfers, seconds-scale reconfiguration.
//! * **Interconnects**: Ethernet (1 Gbps) carries migration state to the
//!   ARM server; PCIe (32 GB/s) carries FPGA buffers.
//! * **Applications** ([`JobSpec`]) launch on x86 and call their
//!   selected function one or more times; before each call the
//!   [`Policy`] (Xar-Trek's scheduler server, or a baseline) picks the
//!   target, exactly as in the paper's Figure 2.
//!
//! Per-benchmark base execution times are calibrated against the
//! paper's own Table 1 "in locus" measurements (see `xar-workloads`);
//! contention, transfer, queueing, and reconfiguration effects are
//! computed by the simulation.

pub mod cluster;
pub mod machine;
pub mod policy;
pub mod stats;
pub mod workload;

pub use cluster::{ClusterConfig, ClusterSim, JobRecord, SimResult};
pub use machine::PsMachine;
pub use policy::{
    AlwaysArm, AlwaysFpga, AlwaysX86, CompletionReport, DecideCtx, Decision, Policy, Target,
};
pub use workload::{Arrival, JobSpec};

/// Milliseconds → nanoseconds.
pub fn ms_to_ns(ms: f64) -> f64 {
    ms * 1e6
}

/// Nanoseconds → milliseconds.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Seconds → nanoseconds.
pub fn s_to_ns(s: f64) -> f64 {
    s * 1e9
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_conversions() {
        assert_eq!(super::ms_to_ns(1.0), 1e6);
        assert_eq!(super::ns_to_ms(5e6), 5.0);
        assert_eq!(super::s_to_ns(2.0), 2e9);
    }
}
