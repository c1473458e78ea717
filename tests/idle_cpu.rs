//! A daemon waiting on silent connections burns no CPU: the reactor
//! blocks in the kernel, and so do its maintenance timers. A worker
//! pool that busy-yields instead burns a full core per worker, 20× the
//! bound below for each one.
//!
//! A test binary of its own: `/proc/self/stat`'s utime + stime then
//! counts only this daemon and its clients.

#![cfg(target_os = "linux")]

mod common;

use std::time::Duration;
use xar_trek::core::server::{EngineConfig, ServerConfig, V2Client};

/// Process CPU time (utime + stime) from `/proc/self/stat`, using the
/// standard 100 Hz tick. A coarse proxy, plenty for "a few ticks" vs
/// "cores × seconds".
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesized comm (which may contain spaces):
    // utime and stime are the 12th and 13th from there.
    let after_comm = stat.rsplit_once(')').unwrap().1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

#[test]
fn thirty_two_silent_clients_cost_no_cpu_with_or_without_maintenance_timers() {
    let configs = [
        // Nothing left to ride the maintenance tick, so none is armed.
        (
            "no maintenance timers",
            ServerConfig {
                flush_interval: Duration::ZERO,
                trace: false,
                series_tick: Duration::ZERO,
                ..ServerConfig::default()
            },
        ),
        // The recurring flush tick per worker, one idle deadline per
        // connection (long enough that nothing is reaped mid-window),
        // and the admission cap.
        (
            "flush+idle+cap armed",
            ServerConfig {
                idle_timeout: Some(Duration::from_secs(60)),
                max_connections: 1024,
                ..ServerConfig::default()
            },
        ),
    ];
    for (label, config) in configs {
        let daemon = common::spawn(EngineConfig::default(), config);
        let idle: Vec<V2Client> =
            (0..32).map(|_| V2Client::connect(daemon.addr()).unwrap()).collect();
        // Let adoption and registration settle before sampling.
        std::thread::sleep(Duration::from_millis(50));
        let before = process_cpu();
        std::thread::sleep(Duration::from_secs(1));
        let burned = process_cpu().saturating_sub(before);
        assert!(
            burned <= Duration::from_millis(50),
            "[{label}] {} silent clients burned {burned:?} of CPU in 1 s",
            idle.len()
        );
        drop(idle);
        daemon.shutdown();
    }
}
