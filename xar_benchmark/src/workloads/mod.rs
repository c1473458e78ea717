//! One module per workload (the two read-only socket workloads share
//! `decide`).

mod call_cycle;
mod cluster_sim;
mod common;
mod crash_recovery;
mod decide;
mod migrate_exec;

use crate::harness::{Args, Outcome};
use crate::spec;

pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        spec::DECIDE_RTT | spec::DECIDE_BATCH => decide::run(args),
        spec::CALL_CYCLE => call_cycle::run(args),
        spec::CRASH_RECOVERY => crash_recovery::run(args),
        spec::CLUSTER_SIM => cluster_sim::run(args),
        spec::MIGRATE_EXEC => migrate_exec::run(args),
        other => unreachable!("workload {other} was validated against spec::WORKLOADS"),
    }
}
