//! The userspace scheduler as a real client/server (paper §3.2).
//!
//! "The scheduler is implemented using a client/server model. An
//! instance of the scheduler client is integrated with each application
//! binary [...]. The scheduler server, which encapsulates the
//! scheduling policy, runs on the x86 host. The clients and the server
//! communicate with each other to decide when and where to migrate
//! applications' functions."
//!
//! The wire protocol is line-oriented text over TCP:
//!
//! ```text
//! C→S: DECIDE <app> <kernel> <x86_load> <resident:0|1>
//! S→C: TARGET <x86|arm|fpga> <reconfigure:0|1>
//! C→S: REPORT <app> <x86|arm|fpga> <func_ms> <x86_load>
//! S→C: OK
//! C→S: TABLE
//! S→C: <n> lines of the threshold table, then END
//! ```
//!
//! There is one server: [`xar_sched`]'s sharded, worker-pooled daemon,
//! which speaks the binary v2 protocol and the text protocol above on
//! the same port. [`SchedulerServer`] is that daemon at one shard and
//! report batch 1 — the paper's single-policy server, report for
//! report — and [`spawn_sharded`] the production configuration. The
//! `xar_sched` client, server, and engine types are re-exported here.

use crate::policy::XarTrekPolicy;
use crate::thresholds::{ThresholdEntry, ThresholdTable};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use xar_desim::{Decision, Target};
use xar_sched::wire::{parse_target, target_str};

pub use xar_sched::{
    BackendKind, EngineConfig, MetricsSnapshot, ObsSnapshot, ResilientClient, ResilientConfig,
    ServerConfig, ShardedEngine, ShardedPolicy, StatsV2, TableEntry, V2Client,
};

/// The production scheduler daemon serving a sharded [`XarTrekPolicy`].
pub type ShardedSchedulerServer = xar_sched::Server<XarTrekPolicy>;

/// Builds the sharded engine for a policy (per-app-group shards, see
/// [`XarTrekPolicy::split_shards`]).
pub fn sharded_engine(
    policy: &XarTrekPolicy,
    config: EngineConfig,
) -> ShardedEngine<XarTrekPolicy> {
    ShardedEngine::from_shards(policy.split_shards(config.shards), config.batch)
}

/// Spawns the production daemon: the [`xar_sched`] worker-pool server
/// over a sharded copy of `policy`, speaking protocol v2 with v1 text
/// fallback.
///
/// # Errors
///
/// Propagates socket errors.
pub fn spawn_sharded(
    policy: &XarTrekPolicy,
    engine_config: EngineConfig,
    server_config: ServerConfig,
) -> std::io::Result<ShardedSchedulerServer> {
    xar_sched::Server::spawn(sharded_engine(policy, engine_config), server_config)
}

/// [`spawn_sharded`] on an explicit bind address instead of an
/// ephemeral port — what a fleet test needs to restart a daemon at the
/// address an aggregator keeps scraping.
///
/// # Errors
///
/// Propagates socket errors (including an address already in use).
pub fn spawn_sharded_at(
    policy: &XarTrekPolicy,
    engine_config: EngineConfig,
    server_config: ServerConfig,
    bind: SocketAddr,
) -> std::io::Result<ShardedSchedulerServer> {
    xar_sched::Server::spawn_at(sharded_engine(policy, engine_config), server_config, bind)
}

/// The paper's scheduler server (§3.2): the daemon over a single policy
/// shard applying every report as it arrives. Being the daemon, it also
/// answers `DUMP`/`TRACE`/`SERIES`/`RATE` and protocol v2. Dropping it
/// shuts the server down.
pub struct SchedulerServer(ShardedSchedulerServer);

impl SchedulerServer {
    /// Spawns the server on an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(policy: XarTrekPolicy) -> std::io::Result<SchedulerServer> {
        spawn_sharded(&policy, EngineConfig { shards: 1, batch: 1 }, ServerConfig::default())
            .map(SchedulerServer)
    }

    /// The server's socket address (for clients).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Snapshot of the (dynamically updated) threshold table.
    pub fn table(&self) -> ThresholdTable {
        let mut table = ThresholdTable::new();
        for row in self.0.engine().table() {
            table.insert(row);
        }
        table
    }

    /// Requests shutdown and joins the daemon's threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A scheduler client, one per application process.
#[derive(Debug)]
pub struct SchedulerClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl SchedulerClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<SchedulerClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(SchedulerClient { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn roundtrip(&mut self, req: &str) -> std::io::Result<String> {
        self.writer.write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line)
    }

    /// Asks the server where the next call should run (the client-side
    /// of Algorithm 2).
    ///
    /// # Errors
    ///
    /// Propagates socket/protocol errors.
    pub fn decide(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: usize,
        kernel_resident: bool,
    ) -> std::io::Result<Decision> {
        let reply = self.roundtrip(&format!(
            "DECIDE {app} {kernel} {x86_load} {}\n",
            u8::from(kernel_resident)
        ))?;
        let parts: Vec<&str> = reply.split_whitespace().collect();
        match parts.as_slice() {
            ["TARGET", t, r] => {
                let target =
                    parse_target(t).ok_or_else(|| std::io::Error::other("bad target in reply"))?;
                Ok(Decision { target, reconfigure: *r == "1" })
            }
            _ => Err(std::io::Error::other(format!("bad reply: {reply:?}"))),
        }
    }

    /// Reports an observed execution (the client-side of Algorithm 1).
    ///
    /// # Errors
    ///
    /// Propagates socket/protocol errors.
    pub fn report(
        &mut self,
        app: &str,
        target: Target,
        func_ms: f64,
        x86_load: usize,
    ) -> std::io::Result<()> {
        let reply =
            self.roundtrip(&format!("REPORT {app} {} {func_ms} {x86_load}\n", target_str(target)))?;
        if reply.trim() == "OK" {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("bad reply: {reply:?}")))
        }
    }

    /// Fetches the server's current threshold table.
    ///
    /// # Errors
    ///
    /// Propagates socket/protocol errors.
    pub fn fetch_table(&mut self) -> std::io::Result<ThresholdTable> {
        self.writer.write_all(b"TABLE\n")?;
        let mut table = ThresholdTable::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("connection closed mid-table"));
            }
            let line = line.trim();
            if line == "END" {
                return Ok(table);
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if let [app, kernel, f, a] = parts.as_slice() {
                let (Ok(f), Ok(a)) = (f.parse(), a.parse()) else {
                    return Err(std::io::Error::other("bad table line"));
                };
                table.insert(ThresholdEntry {
                    app: app.to_string(),
                    kernel: kernel.to_string(),
                    fpga_thr: f,
                    arm_thr: a,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_desim::ClusterConfig;
    use xar_workloads::all_profiles;

    fn spawn_server() -> SchedulerServer {
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        let policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        SchedulerServer::spawn(policy).unwrap()
    }

    #[test]
    fn decide_and_report_over_tcp() {
        let server = spawn_server();
        let mut client = SchedulerClient::connect(server.addr()).unwrap();
        // Low load: stay on x86.
        let d = client.decide("Digit2000", "KNL_HW_DR200", 1, false).unwrap();
        // Digit2000's FPGA threshold is 0 → load 1 > 0 and kernel absent
        // with load below ARM threshold → x86 + reconfigure.
        assert_eq!(d.target, Target::X86);
        assert!(d.reconfigure);
        // Kernel present now: offload.
        let d = client.decide("Digit2000", "KNL_HW_DR200", 1, true).unwrap();
        assert_eq!(d.target, Target::Fpga);
        client.report("Digit2000", Target::Fpga, 1300.0, 1).unwrap();
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_update_shared_table() {
        let server = spawn_server();
        let addr = server.addr();
        let before = server.table().get("Digit2000").unwrap().fpga_thr;
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut c = SchedulerClient::connect(addr).unwrap();
                for _ in 0..5 {
                    c.decide("Digit2000", "KNL_HW_DR200", 10, true).unwrap();
                    // Slow FPGA reports raise the FPGA threshold
                    // (Algorithm 1 lines 19–23).
                    c.report("Digit2000", Target::Fpga, 1e9, 10).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let after = server.table().get("Digit2000").unwrap().fpga_thr;
        assert_eq!(after, before + 20, "4 clients × 5 slow reports");
        server.shutdown();
    }

    #[test]
    fn table_fetch_roundtrip() {
        let server = spawn_server();
        let mut client = SchedulerClient::connect(server.addr()).unwrap();
        let t = client.fetch_table().unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t, server.table());
        server.shutdown();
    }

    #[test]
    fn drop_terminates_promptly_without_a_final_connection() {
        let started = std::time::Instant::now();
        let server = spawn_server();
        drop(server);
        // Shutdown wakes the acceptor and workers; it must not wait for
        // a next connection to arrive.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn sharded_daemon_v2_matches_v1_decisions() {
        use xar_desim::{DecideCtx, Policy};
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        // The in-process policy is the reference for both protocols
        // (and both shardings: one shard behind v1, eight behind v2).
        let mut policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        let v1 = SchedulerServer::spawn(policy.clone()).unwrap();
        let v2 = spawn_sharded(&policy, EngineConfig::default(), ServerConfig::default()).unwrap();
        let mut c1 = SchedulerClient::connect(v1.addr()).unwrap();
        let mut c2 = V2Client::connect(v2.addr()).unwrap();
        for load in [0u32, 1, 5, 20, 40, 80, 120] {
            for resident in [false, true] {
                for app in ["Digit2000", "CG-A", "FaceDet320", "nope"] {
                    let want = policy.decide(&DecideCtx {
                        app,
                        kernel: "k",
                        x86_load: load as usize,
                        arm_load: 0,
                        kernel_resident: resident,
                        device_ready: true,
                        now_ns: 0.0,
                    });
                    let d1 = c1.decide(app, "k", load as usize, resident).unwrap();
                    let d2 = c2.decide(app, "k", load, resident).unwrap();
                    assert_eq!(d1, want, "v1 {app} load={load} resident={resident}");
                    assert_eq!(d2, want, "v2 {app} load={load} resident={resident}");
                }
            }
        }
        assert_eq!(c2.ping(99).unwrap(), 99);
        v2.shutdown();
        v1.shutdown();
    }

    #[test]
    fn sharded_daemon_serves_v1_text_clients() {
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        let policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        let daemon =
            spawn_sharded(&policy, EngineConfig::default(), ServerConfig::default()).unwrap();
        // The *old* text client, pointed at the new daemon.
        let mut c = SchedulerClient::connect(daemon.addr()).unwrap();
        let d = c.decide("Digit2000", "KNL_HW_DR200", 1, true).unwrap();
        assert_eq!(d.target, Target::Fpga);
        c.report("Digit2000", Target::Fpga, 1e9, 10).unwrap();
        let table = c.fetch_table().unwrap();
        assert_eq!(table.len(), 5);
        assert_eq!(
            table.get("Digit2000").unwrap().fpga_thr,
            policy.table.get("Digit2000").unwrap().fpga_thr + 1,
            "slow FPGA report raised the threshold through the text path"
        );
        daemon.shutdown();
    }

    #[test]
    fn sharded_daemon_answers_short_malformed_v1_lines() {
        use std::io::{BufRead, BufReader, Write};
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        let policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        let daemon =
            spawn_sharded(&policy, EngineConfig::default(), ServerConfig::default()).unwrap();
        // Shorter than the 4-byte v2 magic: must still classify as v1
        // and answer ERR rather than waiting for more bytes forever.
        let mut s = TcpStream::connect(daemon.addr()).unwrap();
        s.write_all(b"X\n").unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "ERR");
        // And the connection keeps working as v1 afterwards.
        s.write_all(b"DECIDE Digit2000 k 1 1\n").unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        assert!(line.starts_with("TARGET "), "{line:?}");
        daemon.shutdown();
    }

    #[test]
    fn sharded_daemon_caps_newline_free_v1_floods() {
        use std::io::{Read, Write};
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        let policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        let daemon =
            spawn_sharded(&policy, EngineConfig::default(), ServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(daemon.addr()).unwrap();
        // Stream well past MAX_V1_LINE without ever sending a newline;
        // the daemon must answer ERR and hang up instead of buffering
        // forever.
        let chunk = [b'A'; 16 * 1024];
        s.set_write_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        for _ in 0..6 {
            if s.write_all(&chunk).is_err() {
                break; // server already hung up mid-flood
            }
        }
        s.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break, // server closed — the cap fired
                Ok(n) => reply.extend_from_slice(&buf[..n]),
                Err(_) => break,
            }
        }
        assert_eq!(String::from_utf8_lossy(&reply).trim(), "ERR");
        daemon.shutdown();
    }

    #[test]
    fn sharded_daemon_metrics_count_traffic() {
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        let policy = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        let daemon =
            spawn_sharded(&policy, EngineConfig::default(), ServerConfig::default()).unwrap();
        let mut c = V2Client::connect(daemon.addr()).unwrap();
        for _ in 0..10 {
            c.decide("Digit2000", "KNL_HW_DR200", 1, true).unwrap();
        }
        c.report("Digit2000", Target::Fpga, 1300.0, 1).unwrap();
        let m = daemon.engine().metrics_total();
        assert_eq!(m.decides, 10);
        assert_eq!(m.to_fpga, 10, "Digit2000 at load 1 offloads");
        assert_eq!(m.reports, 1);
        assert!(m.p99_ns > 0);
        daemon.shutdown();
    }

    #[test]
    fn malformed_requests_get_err_not_crash() {
        let server = spawn_server();
        let mut c = SchedulerClient::connect(server.addr()).unwrap();
        c.writer.write_all(b"BOGUS request\n").unwrap();
        let mut line = String::new();
        c.reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "ERR");
        // The connection still works afterwards.
        let d = c.decide("CG-A", "KNL_HW_CG_A", 1, true).unwrap();
        assert_eq!(d.target, Target::X86);
        server.shutdown();
    }
}
