//! # xar-trek — run-time execution migration among (simulated) FPGAs and heterogeneous-ISA CPUs
//!
//! Umbrella crate for the reproduction of *"Xar-Trek: Run-time Execution
//! Migration among FPGAs and Heterogeneous-ISA CPUs"* (Middleware '21).
//! It re-exports the workspace crates:
//!
//! * [`isa`] — two synthetic heterogeneous ISAs with cycle-counting VMs;
//! * [`popcorn`] — the Popcorn-Linux-style multi-ISA compiler and
//!   run-time (aligned linking, cross-ISA stack transformation, DSM);
//! * [`hls`] — the Vitis-style HLS toolchain and FPGA device model;
//! * [`desim`] — the discrete-event datacenter simulator;
//! * [`workloads`] — the paper's five benchmarks (golden Rust, IR, HLS
//!   kernels, calibrated profiles);
//! * [`core`] — Xar-Trek proper: compiler steps A–G, Algorithms 1–2,
//!   the text scheduler client, the daemon's policy, and the
//!   experiment drivers;
//! * [`sched`] — the production scheduler daemon: binary wire protocol
//!   v2 (with v1 text fallback), sharded policy engine with a
//!   lock-free decide path, reactor-backed worker-pool connection
//!   layer, and batched telemetry;
//! * [`reactor`] — the readiness-notification event loop under the
//!   daemon: epoll on Linux with a portable `poll(2)` fallback,
//!   cross-thread waker, coarse timer wheel.
//!
//! See `README.md` for a tour of the architecture; `xar_experiments`
//! (a `xar-core` binary) regenerates the paper's tables and figures.
//! Runnable walkthroughs live in `examples/`.

pub use xar_core as core;
pub use xar_desim as desim;
pub use xar_hls as hls;
pub use xar_isa as isa;
pub use xar_popcorn as popcorn;
pub use xar_reactor as reactor;
pub use xar_sched as sched;
pub use xar_workloads as workloads;
