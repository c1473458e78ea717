//! A steady-state report allocates nothing: queueing its name as bytes,
//! the queue/batch buffer swap, Algorithm 1 and the in-place threshold
//! publish together perform zero heap allocations once the shard's
//! buffers are warm (no flush sink registered). And building a table
//! allocates per shard, never per row: splitting a policy into shards
//! and restoring one from its state blob both make as many allocations
//! for 4 000 rows as for 1 000.
//!
//! Its own test binary because it installs a counting global
//! allocator; the count is per thread, so the harness's other threads
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use xar_core::server::{sharded_engine, EngineConfig};
use xar_core::thresholds::{ScenarioTimes, ThresholdEntry, ThresholdTable};
use xar_core::XarTrekPolicy;
use xar_desim::{DecideCtx, Target};
use xar_sched::PolicyCore;

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

/// A policy over `apps` with reference times for every row.
fn policy_of(apps: &[String]) -> XarTrekPolicy {
    let mut table = ThresholdTable::new();
    let mut ref_times = HashMap::new();
    for (i, app) in apps.iter().enumerate() {
        table.insert(ThresholdEntry {
            app: app.clone(),
            kernel: format!("KNL_{i:06}"),
            fpga_thr: 20 + i as u32,
            arm_thr: 30 + i as u32,
        });
        ref_times.insert(
            app.as_str().into(),
            ScenarioTimes { x86_ms: 100.0, fpga_ms: 20.0, arm_ms: 60.0 },
        );
    }
    XarTrekPolicy::new(table, ref_times)
}

fn policy_of_rows(rows: usize) -> XarTrekPolicy {
    policy_of(&(0..rows).map(|i| format!("app-{i:06}")).collect::<Vec<_>>())
}

#[test]
fn splitting_a_table_allocates_no_names() {
    let split = |rows: usize| {
        let policy = policy_of_rows(rows);
        let before = allocs();
        let _engine = sharded_engine(&policy, EngineConfig { shards: 8, batch: 1 });
        allocs() - before
    };
    // Each shard's slabs, index and snapshot are sized up front: the
    // count is per shard, never per row.
    assert_eq!(split(1_000), split(4_000), "a shard split allocated per row");
}

#[test]
fn restoring_a_state_blob_allocates_no_names() {
    let restore = |rows: usize| {
        let blob = policy_of_rows(rows).save_state().unwrap();
        let mut policy = XarTrekPolicy::new(ThresholdTable::new(), HashMap::new());
        let before = allocs();
        policy.load_state(&blob).unwrap();
        let allocated = allocs() - before;
        assert_eq!(policy.save_state().unwrap(), blob, "{rows} rows: the restore lost state");
        allocated
    };
    // The blob's name bytes are summed before the rebuild, so the
    // table's buffers are allocated once each, at their final size.
    assert_eq!(restore(1_000), restore(4_000), "a restore allocated per row");
}

#[test]
fn steady_state_reports_and_decides_allocate_nothing() {
    const APPS: usize = 64;
    let names: Vec<String> = (0..APPS).map(|i| format!("app-{i:03}")).collect();
    let policy = policy_of(&names);
    let engine = Arc::new(sharded_engine(&policy, EngineConfig { shards: 4, batch: 1 }));
    let mut handle = engine.handle();
    // Every Algorithm 1 branch: thresholds pulled down, pushed up, and
    // the x86 reference time re-recorded.
    let reports = [
        (Target::X86, 500.0, 3u32),
        (Target::Fpga, 500.0, 40),
        (Target::Arm, 500.0, 40),
        (Target::X86, 1.0, 2),
    ];
    let ctx = |app| DecideCtx {
        app,
        kernel: "k",
        x86_load: 25,
        arm_load: 0,
        kernel_resident: true,
        device_ready: true,
        now_ns: 0.0,
    };
    let mut round = |check: bool| {
        for (i, app) in names.iter().enumerate() {
            let (target, func_ms, load) = reports[i % reports.len()];
            let before = allocs();
            engine.ingest(app, target, func_ms, load);
            handle.decide(&ctx(app));
            if check {
                assert_eq!(allocs() - before, 0, "report + decide of {app} allocated");
            }
        }
    };
    // Warm-up: each shard's queue and batch buffers grow once, each
    // handle cache fills once.
    round(false);
    round(false);
    let table_before = engine.table();
    round(true);
    assert_ne!(engine.table(), table_before, "the checked round must have moved thresholds");
}
