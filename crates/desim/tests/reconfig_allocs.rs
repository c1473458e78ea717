//! An FPGA reconfiguration allocates nothing: the simulator loads the
//! registered XCLBIN itself, not a copy of its name and kernel list.
//! Jobs alternate between two single-kernel XCLBINs under `AlwaysFpga`,
//! so every call reconfigures the device; what `run` allocates beyond
//! one name per finished job's record is then vector growth alone, and
//! doubling the jobs adds only a doubling of each vector.
//!
//! Its own test binary because it installs a counting global
//! allocator; the count is per thread, so the harness's other threads
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xar_desim::workload::batch_arrivals;
use xar_desim::{AlwaysFpga, ClusterConfig, ClusterSim, JobSpec};
use xar_hls::kernel::{compile_kernel, KOp, Kernel, KernelArg, LoopNest, TripCount};
use xar_hls::{partition_ffd, Platform, Xclbin};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// bump of a const-initialized, destructor-free thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` came from `System`, `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// An XCLBIN holding the one kernel `name`.
fn xclbin(name: &str) -> Xclbin {
    let k = Kernel {
        name: name.into(),
        args: vec![KernelArg::Scalar { name: "n".into() }],
        body: LoopNest::leaf(TripCount::Arg(0), vec![(KOp::MulF, 1)]),
        local_buffer_bytes: 0,
    };
    let xo = compile_kernel(&k).unwrap();
    partition_ffd(&[xo], &Platform::alveo_u50(), &format!("{name}.xclbin")).unwrap().remove(0)
}

fn spec(kernel: &str) -> JobSpec {
    JobSpec {
        name: format!("app-{kernel}"),
        kernel: kernel.into(),
        pre_ms: 10.0,
        post_ms: 5.0,
        per_call_pre_ms: 0.0,
        func_x86_ms: 100.0,
        func_arm_ms: 300.0,
        fpga_kernel_ms: 40.0,
        fpga_setup_ms: 0.0,
        in_bytes: 1 << 20,
        out_bytes: 1 << 10,
        state_bytes: 1 << 20,
        calls: 1,
        deadline_ms: None,
        background: false,
    }
}

/// Allocations inside one `run` of `jobs` alternating apps, less the
/// one name each finished job's record copies.
fn excess_allocs(jobs: usize) -> u64 {
    let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysFpga);
    sim.register_xclbin(xclbin("KNL_A"));
    sim.register_xclbin(xclbin("KNL_B"));
    let specs: Vec<JobSpec> =
        (0..jobs).map(|i| spec(if i % 2 == 0 { "KNL_A" } else { "KNL_B" })).collect();
    let arrivals = batch_arrivals(&specs);
    let before = allocs();
    let res = sim.run(arrivals);
    let allocated = allocs() - before;
    assert_eq!(res.records.len(), jobs);
    assert_eq!(res.fpga_stats.invocations, jobs as u64);
    assert_eq!(res.fpga_stats.reconfigurations, jobs as u64, "every call must reconfigure");
    allocated - res.records.len() as u64
}

#[test]
fn reconfigurations_allocate_nothing() {
    let small = excess_allocs(500);
    let large = excess_allocs(1_000);
    // Each growing vector (jobs, records, pending arrivals, the
    // machines' sets, the timer queues) doubles about once more.
    assert!(large <= 64, "{large} allocations beyond the records at 1 000 reconfigurations");
    assert!(large <= small + 12, "{small} at 500 jobs, {large} at 1 000: allocations grow per job");
}
