//! The one oracle behind the daemon's root gates, and the plumbing two
//! or more of them share.
//!
//! The repo's central claim is that the sharded, durable, fault-battered
//! daemon is report-for-report identical to the paper's scheduler
//! server: one sequential policy running Algorithm 1 on every
//! completion and Algorithm 2 on every call. [`Reference`] is that
//! sequential scheduler, [`fleet`] the concurrent clients it is held
//! against, [`assert_conserved`] the counting laws no fault plan may
//! bend. A helper only one suite needs lives in that suite.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xar_chaos::FaultPlan;
use xar_trek::core::server::{
    spawn_sharded, EngineConfig, ResilientClient, ResilientConfig, ServerConfig,
    ShardedSchedulerServer, StatsV2, TableEntry, V2Client,
};
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::{ClusterConfig, CompletionReport, DecideCtx, Decision, Policy, Target};
use xar_trek::sched::{obs, wire, DurabilityConfig, FsyncPolicy, ReportOwned};

/// The paper's five profiled applications, the fleets' app mix.
pub const APPS: [&str; 5] = ["Digit2000", "Digit500", "FaceDet320", "FaceDet640", "CG-A"];

/// The policy every daemon under test is seeded with: the threshold
/// table the estimator derives from the paper's profiles.
pub fn paper_policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_trek::workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

/// A daemon over [`paper_policy`] on an ephemeral loopback port.
pub fn spawn(engine: EngineConfig, server: ServerConfig) -> ShardedSchedulerServer {
    spawn_sharded(&paper_policy(), engine, server).unwrap()
}

fn ctx<'a>(app: &'a str, load: usize, resident: bool) -> DecideCtx<'a> {
    DecideCtx {
        app,
        kernel: "k",
        x86_load: load,
        arm_load: 0,
        kernel_resident: resident,
        device_ready: true,
        now_ns: 0.0,
    }
}

/// The commutative report the fleets ship: a slow FPGA run, so
/// Algorithm 1 bumps the app's `fpga_thr` by +1 whatever the
/// interleaving — and whatever side of a crash it lands on.
pub fn slow_fpga(app: &str) -> ReportOwned {
    ReportOwned { app: app.into(), target: Target::Fpga, func_ms: 1e9, x86_load: 2 }
}

/// A threshold row as the gates compare it.
pub type Row = (String, u32, u32);

/// The paper's scheduler server: one sequential [`XarTrekPolicy`],
/// every report applied the moment it arrives.
pub struct Reference(XarTrekPolicy);

impl Reference {
    pub fn new() -> Reference {
        Reference::of(paper_policy())
    }

    /// The sequential scheduler over a seed policy other than the
    /// paper's (a suite that needs rows of its own).
    pub fn of(policy: XarTrekPolicy) -> Reference {
        Reference(policy)
    }

    /// Algorithm 2 on the reference's current table.
    pub fn decide(&mut self, app: &str, load: usize, resident: bool) -> Decision {
        self.0.decide(&ctx(app, load, resident))
    }

    /// Whether a launch of `app` configures the FPGA early (§3.1).
    pub fn early_config(&mut self, app: &str, resident: bool) -> bool {
        self.0.on_launch(&ctx(app, 0, resident))
    }

    /// Algorithm 1, one completion.
    pub fn report(&mut self, app: &str, target: Target, func_ms: f64, x86_load: usize) {
        self.0.on_complete(&CompletionReport { app, target, func_ms, x86_load });
    }

    /// The same completion `n` times over.
    pub fn report_n(&mut self, n: usize, app: &str, target: Target, func_ms: f64, x86_load: usize) {
        for _ in 0..n {
            self.report(app, target, func_ms, x86_load);
        }
    }

    /// `(fpga_thr, arm_thr)` of one row, as of the last report.
    pub fn thresholds(&self, app: &str) -> (u32, u32) {
        let e = self.0.table.get(app).unwrap_or_else(|| panic!("{app} not in the seed table"));
        (e.fpga_thr, e.arm_thr)
    }

    pub fn rows(&self) -> Vec<Row> {
        self.0.table.iter().map(|r| (r.app.to_string(), r.fpga_thr, r.arm_thr)).collect()
    }

    /// Bit-identity: `table` (an engine's, or one fetched over the
    /// wire) is row for row the reference's. `what` names the gate and
    /// carries its replay token.
    pub fn assert_table_eq(&self, table: Vec<TableEntry>, what: impl std::fmt::Display) {
        let got: Vec<Row> = table.into_iter().map(|e| (e.app, e.fpga_thr, e.arm_thr)).collect();
        assert_eq!(got, self.rows(), "{what}");
    }
}

/// `n` concurrent clients: `body(c)` runs on its own thread for each
/// `c` in `0..n`, all released together by a barrier, results in
/// client order. A client that panics is named by its thread
/// (`fleet-client-<c>`) and fails the caller.
pub fn fleet<T: Send>(n: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let start = std::sync::Barrier::new(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let (start, body) = (&start, &body);
                std::thread::Builder::new()
                    .name(format!("fleet-client-{c}"))
                    .spawn_scoped(s, move || {
                        start.wait();
                        body(c)
                    })
                    .expect("spawn fleet client")
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(c, h)| h.join().unwrap_or_else(|_| panic!("fleet client {c} panicked")))
            .collect()
    })
}

/// What a fleet's clients counted, summed: the client side of the
/// conservation laws.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Decides attempted (each was answered, or the client panicked).
    pub decides: u64,
    /// Reports acked as ingested (a deduped replay acks zero).
    pub reports: u64,
    /// Batches a [`ResilientClient`] saw acked as replays.
    pub deduped_batches: u64,
    /// Connections re-dialed (the sign a fault plan engaged at all).
    pub reconnects: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.decides += o.decides;
        self.reports += o.reports;
        self.deduped_batches += o.deduped_batches;
        self.reconnects += o.reconnects;
    }
}

/// The conservation laws, read off a quiesced daemon over a direct
/// (unproxied) connection: every attempted decide was decided, every
/// acked report was ingested exactly once — none lost, none doubled —
/// and every server-side replay is one client-side dedup. Returns the
/// scrape for the suite's own counters.
pub fn assert_conserved(daemon: &ShardedSchedulerServer, tally: Tally, what: &str) -> StatsV2 {
    daemon.engine().flush();
    let stats = V2Client::connect(daemon.addr()).unwrap().stats_v2().unwrap();
    assert_eq!(stats.get(obs::tags::DECIDES), Some(tally.decides), "{what}: decides != attempted");
    assert_eq!(
        stats.get(obs::tags::REPORTS),
        Some(tally.reports),
        "{what}: reports ingested != reports acked (lost or double-ingested)"
    );
    assert_eq!(
        stats.get(obs::tags::REPLAYED_BATCHES),
        Some(tally.deduped_batches),
        "{what}: server replays != client dedups (reconnects={})",
        tally.reconnects
    );
    stats
}

/// A resilient reporter with the fleets' timeouts: short enough that a
/// black-holed reply costs tenths of a second, long enough to survive
/// a slow-dripped frame.
pub fn resilient(addr: SocketAddr, session: u64, seed: u64) -> ResilientClient {
    ResilientClient::new(
        addr,
        ResilientConfig {
            session,
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            backoff_seed: seed,
            max_retries: 400,
        },
    )
}

/// One exactly-once campaign: `clients` resilient reporters (session
/// `c + 1`, jitter seed `c + seed0`), each shipping `count`
/// single-report [`slow_fpga`] batches for `APPS[c % 5]` to `addr`.
/// Every report must be acked once despite whatever sits in the path;
/// `tok` is the fault plan's replay token.
pub fn reporter_fleet(
    addr: SocketAddr,
    tok: &str,
    clients: usize,
    count: usize,
    seed0: u64,
) -> Tally {
    let per_client = fleet(clients, |c| {
        let mut cl = resilient(addr, c as u64 + 1, c as u64 + seed0);
        let report = slow_fpga(APPS[c % APPS.len()]);
        let mut acked = 0u64;
        for i in 0..count {
            acked += u64::from(
                cl.report_batch(std::slice::from_ref(&report))
                    .unwrap_or_else(|e| panic!("[replay {tok}] client {c} report {i}: {e}")),
            );
        }
        Tally {
            decides: 0,
            reports: acked,
            deduped_batches: cl.deduped_batches(),
            reconnects: cl.reconnects(),
        }
    });
    let mut tally = Tally::default();
    for (c, t) in per_client.into_iter().enumerate() {
        assert_eq!(
            t.reports, count as u64,
            "[replay {tok}] client {c}: reports lost despite retries"
        );
        tally += t;
    }
    tally
}

/// The sequential counterpart of [`reporter_fleet`]: the same reports,
/// one after another.
pub fn reference_reporters(reference: &mut Reference, clients: usize, count: usize) {
    for c in 0..clients {
        reference.report_n(count, APPS[c % APPS.len()], Target::Fpga, 1e9, 2);
    }
}

/// The fault plans to run: `XCHAOS_SEED` (a failure's replay token, or
/// a bare seed) pins a single plan; otherwise two fixed seeds keep the
/// gates deterministic while the nightly jobs sweep fresh ones.
pub fn chaos_plans() -> Vec<FaultPlan> {
    match std::env::var("XCHAOS_SEED") {
        Ok(tok) => {
            vec![FaultPlan::parse(&tok)
                .unwrap_or_else(|| panic!("XCHAOS_SEED {tok:?} is not a seed or xchaos1: token"))]
        }
        Err(_) => vec![FaultPlan::from_seed(0x00A1_57C3), FaultPlan::from_seed(0x00DD_BA11)],
    }
}

/// A fresh directory name under the system tmpdir (not created),
/// unique per call so parallel tests never share a WAL.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xar-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable daemon's config on `dir`, every other knob at its default.
pub fn durable(dir: &Path, fsync: FsyncPolicy, snapshot_every: u64) -> ServerConfig {
    ServerConfig {
        durability: Some(DurabilityConfig { fsync, snapshot_every, ..DurabilityConfig::at(dir) }),
        ..ServerConfig::default()
    }
}

/// One text-port query (daemon v1 or obsd) on a raw TCP socket,
/// exactly what a human with netcat would speak: send `cmd`, read to
/// the reply terminator. Both surfaces end every reply with `END\n`
/// or `ERR\n`.
pub fn text_query(addr: SocketAddr, cmd: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(cmd.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !(buf.ends_with(b"END\n") || buf.ends_with(b"ERR\n")) {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed before END/ERR replying to {cmd:?}");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(buf).unwrap()
}

/// `n` pipelined `Table` requests: each reply is several times the
/// request, so a burst backs the daemon's reply path up.
pub fn table_requests(n: usize) -> Vec<u8> {
    let mut reqs = Vec::new();
    for _ in 0..n {
        wire::encode_request(&wire::Request::Table, &mut reqs);
    }
    reqs
}

/// Reads a raw v2 peer's reply stream — the handshake echo, then
/// frames — handing each decoded response (and its index) to `each`
/// until `want` have arrived, and not a byte more. The caller sets the
/// read timeout.
pub fn read_replies(
    conn: &mut impl Read,
    want: usize,
    mut each: impl FnMut(usize, wire::Response<'_>),
) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let (mut seen, mut hs_done) = (0, false);
    while seen < want {
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed after {seen} of {want} replies");
        buf.extend_from_slice(&chunk[..n]);
        if !hs_done {
            if buf.len() < wire::HANDSHAKE_LEN {
                continue;
            }
            buf.drain(..wire::HANDSHAKE_LEN);
            hs_done = true;
        }
        while let Some((total, range)) = wire::frame_in(&buf).unwrap() {
            each(seen, wire::decode_response(&buf[range]).unwrap());
            buf.drain(..total);
            seen += 1;
        }
    }
    assert!(seen == want && buf.is_empty(), "replies past the {want} expected");
}

/// A repeat protocol offender: handshakes, sends `errors` well-formed
/// frames carrying an unknown opcode (a protocol error each time one
/// is decoded), and reads its reply stream — handshake echo, then
/// `R_ERR` frames — to the EOF or reset that cuts it off.
pub fn offend(conn: &mut (impl Read + Write), errors: usize) {
    let mut bad = wire::handshake(wire::VERSION).to_vec();
    for _ in 0..errors {
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(0x7F);
    }
    conn.write_all(&bad).unwrap();
    let mut chunk = [0u8; 4096];
    while matches!(conn.read(&mut chunk), Ok(n) if n > 0) {}
}

/// A banned peer is refused at accept: the connect succeeded against
/// the backlog, but the daemon closes the connection unserved. (On the
/// local socket that close can already fail the handshake write with
/// `EPIPE`, which is as good an answer as the EOF.)
pub fn assert_refused(conn: &mut (impl Read + Write), what: impl std::fmt::Debug) {
    let _ = conn.write_all(&wire::handshake(wire::VERSION));
    match conn.read(&mut [0u8; 64]) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("{what:?}: quarantined peer was served {n} bytes"),
    }
}

/// One `StatsV2` counter, read over `cl`.
pub fn stat(cl: &mut V2Client, tag: u16) -> u64 {
    cl.stats_v2().unwrap().get(tag).unwrap_or_else(|| panic!("tag {tag} not shipped"))
}

/// Polls `cond` until it holds; panics naming `what` after 10 s.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}
