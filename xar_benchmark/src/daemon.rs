//! What the socket workloads share: the 10 000-row table, the daemon
//! configuration, input generation, the `StatsV2` reader, and the
//! staged client the traced pass swaps in for `V2Client`.

use crate::affinity::{self, Homed};
use crate::spans::SpanLog;
use crate::util::SplitMix64;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;
use xar_core::server::{spawn_sharded, EngineConfig, ServerConfig, ShardedSchedulerServer};
use xar_core::thresholds::{ScenarioTimes, ThresholdEntry, ThresholdTable};
use xar_core::XarTrekPolicy;
use xar_desim::{Decision, Target};
use xar_sched::obs::tags;
use xar_sched::wire::{self, Request, Response, WireQuery, WireReport};
use xar_sched::{DurabilityConfig, FsyncPolicy, ShardedEngine, StatsV2, V2Client};

/// Rows in every daemon workload's threshold table.
pub const ROWS: usize = 10_000;
/// Loads are drawn from `0..LOAD_SPAN`, straddling every row's
/// thresholds (`i % 50`, `i % 70`) so all of Algorithm 2's branches run.
pub const LOAD_SPAN: u64 = 80;
pub const ENGINE: EngineConfig = EngineConfig { shards: 8, batch: 1 };
pub const WORKERS: usize = 2;
/// Load-generator threads (and connections). Never one: a lone
/// unpinned client flips between sharing a vCPU with its worker and
/// not, a 5x swing in RTT on a 2-vCPU VM.
pub const CLIENTS: usize = 2;

/// App and kernel names of the table, indexable by row.
pub struct Names {
    pub apps: Vec<String>,
    pub kernels: Vec<String>,
    /// The same app names as shared strings, for `ReportOwned`.
    pub arcs: Vec<Arc<str>>,
}

impl Names {
    pub fn new() -> Names {
        let apps: Vec<String> = (0..ROWS).map(|i| format!("app-{i:06}")).collect();
        let kernels = (0..ROWS).map(|i| format!("KNL_{i:06}")).collect();
        let arcs = apps.iter().map(|a| Arc::from(a.as_str())).collect();
        Names { apps, kernels, arcs }
    }
}

pub fn initial_thresholds(row: usize) -> (u32, u32) {
    ((row % 50) as u32, (row % 70) as u32)
}

/// The `engine.rs` criterion bench's `big_policy`: synthetic apps with
/// plausible thresholds and reference times.
pub fn big_policy(names: &Names) -> XarTrekPolicy {
    let mut table = ThresholdTable::new();
    let mut ref_times = HashMap::new();
    for (i, app) in names.apps.iter().enumerate() {
        let (fpga_thr, arm_thr) = initial_thresholds(i);
        table.insert(ThresholdEntry {
            app: app.clone(),
            kernel: names.kernels[i].clone(),
            fpga_thr,
            arm_thr,
        });
        ref_times.insert(
            names.arcs[i].clone(),
            ScenarioTimes { x86_ms: 100.0, fpga_ms: 20.0, arm_ms: 60.0 },
        );
    }
    XarTrekPolicy::new(table, ref_times)
}

/// A sequential `batch = 1` engine over a fresh table — the reference
/// the durable workloads' tables must equal bit for bit.
pub fn reference_engine(names: &Names) -> Arc<ShardedEngine<XarTrekPolicy>> {
    Arc::new(xar_core::server::sharded_engine(&big_policy(names), ENGINE))
}

/// The daemon configuration of every socket workload: two workers,
/// everything else as shipped (maintenance timers, tracing, series).
pub fn server_config(durability: Option<DurabilityConfig>) -> ServerConfig {
    ServerConfig { workers: WORKERS, durability, ..ServerConfig::default() }
}

pub fn durability(dir: std::path::PathBuf, fsync: FsyncPolicy) -> DurabilityConfig {
    DurabilityConfig { fsync, snapshot_every: 0, ..DurabilityConfig::at(dir) }
}

pub fn spawn(names: &Names, config: ServerConfig) -> io::Result<ShardedSchedulerServer> {
    let before = affinity::worker_tids();
    let workers = config.workers;
    let server = spawn_sharded(&big_policy(names), ENGINE, config)?;
    affinity::pin_new_workers(&before, workers);
    Ok(server)
}

/// A `V2Client` on `addr`, beside its worker.
pub fn homed_v2(addr: SocketAddr) -> io::Result<Homed<V2Client>> {
    let client = V2Client::connect(addr)?;
    Ok(Homed::find(client, WORKERS, |c| drop(c.ping(0))))
}

/// A [`StagedClient`] on `addr`, beside its worker.
pub fn homed_staged(
    addr: SocketAddr,
    sampler: SplitMix64,
    log: SpanLog,
) -> io::Result<Homed<StagedClient>> {
    let client = StagedClient::connect(addr, sampler, log)?;
    Ok(Homed::find(client, WORKERS, |c| drop(c.ping(0))))
}

/// A durable daemon that is only ever *killed*. A clean shutdown (also
/// what dropping a `Server` does) writes a final snapshot and fsyncs
/// the whole WAL first; that burst of disk writes is not part of any
/// workload here and measurably slows whichever one runs next.
pub struct Killable(Option<ShardedSchedulerServer>);

impl Killable {
    pub fn spawn(names: &Names, config: ServerConfig) -> io::Result<Killable> {
        spawn(names, config).map(|s| Killable(Some(s)))
    }

    pub fn kill(mut self) {
        self.0.take().expect("present until killed").kill();
    }
}

impl std::ops::Deref for Killable {
    type Target = ShardedSchedulerServer;
    fn deref(&self) -> &ShardedSchedulerServer {
        self.0.as_ref().expect("present until killed")
    }
}

impl Drop for Killable {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.kill();
        }
    }
}

/// One placement query's inputs, as drawn from the seed.
#[derive(Debug, Clone, Copy)]
pub struct QueryIn {
    pub row: usize,
    pub load: u32,
    pub resident: bool,
}

impl QueryIn {
    /// Uniform over rows `lo..hi`.
    pub fn draw(rng: &mut SplitMix64, lo: usize, hi: usize) -> QueryIn {
        let x = rng.next_u64();
        QueryIn {
            row: lo + (((x >> 32) * (hi - lo) as u64) >> 32) as usize,
            load: (((x & 0xFFFF) * LOAD_SPAN) >> 16) as u32,
            resident: x & 0x1_0000 != 0,
        }
    }

    /// The `i`-th query of a secondary pass: any thread can draw it.
    pub fn nth(seed: u64, i: usize) -> QueryIn {
        QueryIn::draw(&mut SplitMix64::stream(seed, 0xDEC, i as u64), 0, ROWS)
    }

    pub fn wire<'a>(&self, names: &'a Names) -> WireQuery<'a> {
        WireQuery {
            app: &names.apps[self.row],
            kernel: &names.kernels[self.row],
            x86_load: self.load,
            arm_load: 0,
            kernel_resident: self.resident,
            device_ready: true,
        }
    }

    /// Algorithm 2 on the *initial* table — the oracle of the read-only
    /// workloads.
    pub fn expected_static(&self) -> Decision {
        let (fpga_thr, arm_thr) = initial_thresholds(self.row);
        XarTrekPolicy::algorithm2(self.load, fpga_thr, arm_thr, self.resident)
    }
}

/// A decision as one byte, for the answer logs the oracle reads.
pub fn encode_decision(d: Decision) -> u8 {
    wire::target_to_byte(d.target) | (u8::from(d.reconfigure) << 2)
}

/// The completion report a call sends after running where it was told:
/// the observed time is drawn so Algorithm 1 moves some thresholds.
pub fn report_ms(rng: &mut SplitMix64) -> f64 {
    10.0 + rng.below(120) as f64
}

/// `StatsV2` counters the oracle and the layer table read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub decides: u64,
    pub reports: u64,
    pub protocol_errors: u64,
    pub backpressure_pauses: u64,
    pub shed_busy: u64,
    pub accepted_conns: u64,
    pub flush_publishes: u64,
    pub flush_rows: u64,
    pub flush_publish_p50_ns: u64,
    pub sessions_opened: u64,
    pub replayed_batches: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
}

impl Counters {
    pub fn from_stats(s: &StatsV2) -> Counters {
        let g = |tag| s.get(tag).unwrap_or(0);
        Counters {
            decides: g(tags::DECIDES),
            reports: g(tags::REPORTS),
            protocol_errors: g(tags::PROTOCOL_ERRORS),
            backpressure_pauses: g(tags::BACKPRESSURE_PAUSES),
            shed_busy: g(tags::SHED_BUSY),
            accepted_conns: g(tags::ACCEPTED_CONNS),
            flush_publishes: g(tags::FLUSH_PUBLISHES),
            flush_rows: g(tags::FLUSH_ROWS),
            flush_publish_p50_ns: g(tags::FLUSH_PUBLISH_P50_NS),
            sessions_opened: g(tags::SESSIONS_OPENED),
            replayed_batches: g(tags::REPLAYED_BATCHES),
            wal_appends: g(tags::WAL_APPENDS),
            wal_bytes: g(tags::WAL_BYTES),
        }
    }

    pub fn read(control: &mut V2Client) -> io::Result<Counters> {
        Ok(Counters::from_stats(&control.stats_v2()?))
    }
}

/// What a staged request sends.
pub enum Frame<'a> {
    Request(Request<'a>),
    DecideBatch(&'a [WireQuery<'a>]),
    BatchReportSeq { session: u64, seq: u64, reports: &'a [WireReport<'a>] },
}

const STAGES: [&str; 4] = ["client.encode", "sock.write", "sock.wait_read", "client.decode"];

/// The traced pass's client: the same protocol as `V2Client`, built
/// from the public `wire` functions over a `TcpStream`, with the four
/// client-side stages of a round trip exposed as spans. One request in
/// 64 (drawn from the seed) is stamped; every request is counted.
pub struct StagedClient {
    stream: TcpStream,
    send: Vec<u8>,
    recv: Vec<u8>,
    consumed: usize,
    sampler: SplitMix64,
    next_req: u64,
    pub log: SpanLog,
}

impl StagedClient {
    pub fn connect(
        addr: SocketAddr,
        sampler: SplitMix64,
        log: SpanLog,
    ) -> io::Result<StagedClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&wire::handshake(wire::VERSION))?;
        let mut hs = [0u8; wire::HANDSHAKE_LEN];
        stream.read_exact(&mut hs)?;
        if wire::parse_handshake(&hs)? != wire::VERSION {
            return Err(io::Error::other("daemon speaks another protocol version"));
        }
        Ok(StagedClient {
            stream,
            send: Vec::with_capacity(8192),
            recv: Vec::with_capacity(8192),
            consumed: 0,
            sampler,
            next_req: 0,
            log,
        })
    }

    /// One round trip; `decode` turns the reply into the caller's value
    /// (and is inside the `client.decode` span).
    pub fn call<T>(
        &mut self,
        frame: &Frame<'_>,
        decode: impl FnOnce(Response<'_>) -> io::Result<T>,
    ) -> io::Result<T> {
        self.next_req += 1;
        self.log.count("client.request", 1);
        let sampled = self.sampler.next_u64() & 63 == 0;
        self.exchange(frame, decode, sampled)
    }

    /// The round trip itself, stamped when `sampled`.
    fn exchange<T>(
        &mut self,
        frame: &Frame<'_>,
        decode: impl FnOnce(Response<'_>) -> io::Result<T>,
        sampled: bool,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        self.send.clear();
        match frame {
            Frame::Request(req) => wire::encode_request(req, &mut self.send),
            Frame::DecideBatch(queries) => wire::encode_decide_batch(queries, &mut self.send),
            Frame::BatchReportSeq { session, seq, reports } => {
                wire::encode_batch_report_seq(*session, *seq, reports, &mut self.send)
            }
        }
        let t1 = if sampled { Instant::now() } else { t0 };
        self.stream.write_all(&self.send)?;
        let t2 = if sampled { Instant::now() } else { t0 };
        self.recv.drain(..self.consumed);
        self.consumed = 0;
        let mut scratch = [0u8; 4096];
        let range = loop {
            if let Some((total, range)) = wire::frame_in(&self.recv)? {
                self.consumed = total;
                break range;
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.recv.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let t3 = if sampled { Instant::now() } else { t0 };
        let out = decode(wire::decode_response(&self.recv[range])?);
        if sampled {
            let t4 = Instant::now();
            self.log.record_staged("client.request", &STAGES, self.next_req, &[t0, t1, t2, t3, t4]);
        }
        out
    }

    /// A ping that is neither counted nor stamped (what
    /// [`affinity::Homed::find`] times).
    pub fn ping(&mut self, nonce: u64) -> io::Result<u64> {
        let decode = |resp: Response<'_>| match resp {
            Response::Pong(echo) => Ok(echo),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        };
        self.exchange(&Frame::Request(Request::Ping(nonce)), decode, false)
    }

    pub fn decide(&mut self, q: &WireQuery<'_>) -> io::Result<Decision> {
        let req = Request::Decide {
            app: q.app,
            kernel: q.kernel,
            x86_load: q.x86_load,
            arm_load: q.arm_load,
            kernel_resident: q.kernel_resident,
            device_ready: q.device_ready,
        };
        self.call(&Frame::Request(req), |resp| match resp {
            Response::Decide { target, reconfigure } => Ok(Decision { target, reconfigure }),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        })
    }

    pub fn decide_batch(&mut self, queries: &[WireQuery<'_>]) -> io::Result<Vec<Decision>> {
        self.call(&Frame::DecideBatch(queries), |resp| match resp {
            Response::DecideBatch(ds) if ds.len() == queries.len() => Ok(ds),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        })
    }

    pub fn hello_session(&mut self, session: u64) -> io::Result<u64> {
        self.call(&Frame::Request(Request::HelloSession { session }), |resp| match resp {
            Response::Session { last_seq } => Ok(last_seq),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        })
    }

    pub fn report_batch_seq(
        &mut self,
        session: u64,
        seq: u64,
        reports: &[WireReport<'_>],
    ) -> io::Result<u32> {
        self.call(&Frame::BatchReportSeq { session, seq, reports }, |resp| match resp {
            Response::Ack(n) => Ok(n),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        })
    }
}

/// A report's target, as the call would have run it.
pub fn target_of(byte: u8) -> Target {
    wire::target_from_byte(byte & 3).unwrap_or(Target::X86)
}
