//! The scheduler daemon: a fixed worker-thread pool multiplexing
//! nonblocking connections over [`xar_reactor`] readiness notification.
//!
//! One acceptor thread owns the daemon's two nonblocking listeners — TCP,
//! and beside it a local (abstract Unix-socket) one for same-host
//! callers, see [`crate::transport`] — registered with its own reactor,
//! and hands sockets to workers round-robin (waking the chosen worker's
//! reactor for the handoff). Past the accept a connection's transport
//! is invisible: one [`Stream`] type, one pump. Each worker owns a
//! [`Reactor`]: connections register read interest, re-arm to write
//! interest while replies are backed up, and the worker blocks in the
//! kernel until a socket is actually ready — no idle polling, no sleep
//! quantum, no busy-yield. The reactor's coarse timer wheel carries
//! the daemon's whole maintenance layer: a recurring per-worker
//! **flush tick** applies reports stranded below the engine's batch
//! size within one `flush_interval`; **write-stall deadlines** reap a
//! connection that stays backed up a whole linger window with zero
//! drain progress (the only bound on a peer whose FIN arrived while
//! the backpressure gate held reads off); optional **idle timeouts**
//! reap connections silent for a full window. At the
//! `max_connections` admission cap the acceptor parks both listeners'
//! read interest — new peers wait in the kernel backlog instead of
//! racing toward fd exhaustion — and a reap re-arms them. All of it is
//! observable through the v2 `StatsV2` command. This serves thousands
//! of mostly-idle scheduler clients with a handful of threads at zero
//! idle CPU, where the paper's thread-per-client model would need one
//! thread each.
//!
//! The first bytes of a connection select the protocol: the v2
//! handshake magic, or anything else for the legacy v1 text protocol
//! (see [`crate::wire`] for both).

use crate::dur::{Durability, DurabilityConfig, DurableSeqOutcome, FsyncPolicy, RecoveryStats};
use crate::engine::{
    BatchScratch, DecideHandle, DecideScratch, PolicyCore, ShardedEngine, TableEntry,
};
use crate::metrics::MetricsSnapshot;
use crate::session::{SeqOutcome, SessionTable};
use crate::transport::{self, Stream};
use crate::wire::hist_class::{self, CLASSES};
use crate::wire::{self, Request, Response};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xar_desim::DecideCtx;
use xar_obs::{Event as TraceEvent, EventCounters, SeriesRing, TraceLog, TraceReader, Tracer};
use xar_reactor::{BackendKind, Event, Interest, Reactor, Token, Waker};

/// Connection-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads multiplexing the connections.
    pub workers: usize,
    /// Readiness-notification backend (epoll on Linux by default; the
    /// portable `poll(2)` fallback behind the same trait).
    pub backend: BackendKind,
    /// Per-connection pending-output high-water mark in bytes. Frame
    /// processing pauses once a connection's unflushed replies exceed
    /// this, so a pipelined burst of TABLE requests cannot amplify
    /// memory before the backpressure gate re-engages; processing
    /// resumes as the socket drains. Actual usage may overshoot by at
    /// most one encoded response.
    pub outbuf_high_water: usize,
    /// Write-stall deadline. A connection whose replies are backed up
    /// gets windows of this length to make drain progress and is
    /// reaped after a window in which the peer drained nothing at
    /// all; a draining peer keeps its connection however slow. Zero
    /// progress over a whole window is the only observable sign of a
    /// peer that half-closed without reading its replies — its FIN
    /// cannot be seen while the backpressure gate holds reads off —
    /// so without this deadline such a connection would pin its fd
    /// and buffers forever.
    pub close_linger: Duration,
    /// Maintenance-flush period. Each worker keeps a recurring timer
    /// of this period on its reactor and sweeps the engine's dirty
    /// shards when it fires, so a report stranded below the batch
    /// size (e.g. a quiescent app's last executions) is applied
    /// within one interval instead of waiting for an unrelated
    /// client to fill the batch. Zero disables the sweep (with
    /// `batch = 1` every report applies inline anyway) and nothing
    /// else: whatever also rides the tick keeps it, see
    /// [`maint_period`].
    pub flush_interval: Duration,
    /// Per-connection idle timeout, off by default. A connection that
    /// delivers no inbound bytes for a full window is reaped; any
    /// inbound activity slides the deadline (rechecked per window, so
    /// an idle peer lives at most two windows). Connections that are
    /// draining replies or already half-closed are exempt — their
    /// fate belongs to the write-stall deadline above.
    pub idle_timeout: Option<Duration>,
    /// Admission cap on concurrently open connections, both transports
    /// counted together. At the cap the acceptor drops both listeners'
    /// read interest, so new peers wait in the kernel accept backlogs
    /// instead of consuming fds toward exhaustion and the
    /// accept-failure throttle path; a reaped connection re-arms them.
    /// `usize::MAX` (the default) means uncapped.
    pub max_connections: usize,
    /// Master switch for event tracing. Enabled, each worker records
    /// typed events (accepts, reaps, flush publishes, backpressure
    /// pauses/resumes, protocol errors, slow decides) into its
    /// lock-free SPSC trace ring at the cost of one relaxed counter
    /// bump and one ring store per event; disabled, every trace point
    /// in the hot path is a single predictable branch.
    pub trace: bool,
    /// Capacity (events) of the shared bounded log behind the v1
    /// `TRACE n` command; oldest entries are evicted beyond it.
    pub trace_log_capacity: usize,
    /// Operator-assigned identity of this daemon, stamped into every
    /// trace event (the `daemon=` dimension next to `worker=`) and
    /// shipped as the `daemon_id` StatsV2 tag, so fleet aggregators
    /// and interleaved trace logs can tell members apart. 0 (the
    /// default) is an ordinary id for standalone daemons.
    pub daemon_id: u16,
    /// Period of one time-series slot. Samples are recorded from the
    /// workers' maintenance ticks and opportunistically when a series
    /// query arrives, so effective resolution is additionally bounded
    /// by `flush_interval` on an idle daemon. Zero disables the
    /// series layer.
    pub series_tick: Duration,
    /// Overload shedding: a connection whose pending replies exceed
    /// this many bytes gets `R_BUSY` for workload requests (decides
    /// and reports) until it drains. Distinct from
    /// `outbuf_high_water`, which pauses *processing* — this answers
    /// instead of queueing, so a resilient client backs off rather
    /// than timing out. 0 (the default) disables it.
    pub shed_outbuf_bytes: usize,
    /// The retry hint shipped inside every `R_BUSY` reply, in
    /// milliseconds. Clients should wait at least this long (with
    /// jitter) before retrying the shed request.
    pub shed_retry_after_ms: u32,
    /// Quarantine threshold: a connection committing this many
    /// protocol errors is closed and its peer address refused at
    /// accept for [`QUARANTINE`]. Protects the parse path from a
    /// misbehaving (or malicious) peer reconnect-hammering malformed
    /// frames. 0 (the default) disables quarantining.
    pub quarantine_errors: u32,
    /// Durable state: `Some` arms the WAL + snapshot engine under the
    /// given directory. Startup then recovers the threshold table and
    /// session high-water marks before serving; every report ingest is
    /// journaled before it is acked; the maintenance tick drives
    /// interval fsyncs and periodic snapshots; clean shutdown writes a
    /// final snapshot. `None` (the default) keeps the daemon fully
    /// in-memory, with zero durability code on any path.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            backend: BackendKind::default(),
            outbuf_high_water: 256 * 1024,
            close_linger: Duration::from_secs(5),
            flush_interval: MAINT_PERIOD,
            idle_timeout: None,
            max_connections: usize::MAX,
            trace: true,
            trace_log_capacity: 4096,
            daemon_id: 0,
            series_tick: Duration::from_secs(1),
            shed_outbuf_bytes: 0,
            shed_retry_after_ms: 50,
            quarantine_errors: 0,
            durability: None,
        }
    }
}

enum Proto {
    /// Not enough bytes seen to classify the peer yet.
    Undetermined,
    /// Binary protocol (handshake completed).
    V2,
    /// Legacy line-oriented text protocol.
    V1,
}

/// Belt-and-braces cap on one kernel wait, so a lost wakeup can only
/// delay (never hang) shutdown or a connection handoff.
const MAX_WAIT: Duration = Duration::from_millis(250);

/// The default maintenance-tick period.
const MAINT_PERIOD: Duration = Duration::from_millis(100);

/// How long a quarantined peer address stays banned.
pub const QUARANTINE: Duration = Duration::from_secs(60);

/// Period of a worker's maintenance tick; `None` when nothing rides it.
/// `flush_interval` sets it. Zero takes only the dirty-shard sweep off
/// the tick: the trace-ring drain, the time series and the durability
/// heartbeat (the sole fsync under [`FsyncPolicy::IntervalMs`], and
/// `snapshot_every`) keep it at the default period. An `IntervalMs`
/// shorter than the period bounds it, or the policy's loss window
/// would silently be the tick's.
fn maint_period(config: &ServerConfig) -> Option<Duration> {
    let riders = config.trace || !config.series_tick.is_zero() || config.durability.is_some();
    let period = match config.flush_interval {
        Duration::ZERO if riders => MAINT_PERIOD,
        Duration::ZERO => return None,
        interval => interval,
    };
    Some(match config.durability.as_ref().map(|d| d.fsync) {
        Some(FsyncPolicy::IntervalMs(ms)) => period.min(Duration::from_millis(ms.max(1))),
        _ => period,
    })
}

/// Timer token for a worker's recurring maintenance (dirty-shard
/// flush) timer; far above any slab slot, distinct from the reactor's
/// reserved `WAKE_TOKEN` (`usize::MAX`).
const MAINT_TOKEN: Token = Token(usize::MAX - 1);

/// High bit marking a timer token as a connection's *idle* deadline;
/// the bare slot value is its write-stall deadline. Slab slots are fd
/// counts, nowhere near this bit.
const IDLE_TIMER_BIT: usize = 1 << (usize::BITS - 1);

/// The idle-deadline timer token for a connection slot.
fn idle_token(slot: usize) -> Token {
    Token(slot | IDLE_TIMER_BIT)
}

/// Connection-lifecycle counters shared by the acceptor (admission
/// control), the workers (reaping), and the v2 `StatsV2` command. All
/// are monotone, so `live` is a difference of counters rather than a
/// counter that could underflow on a racy decrement.
#[derive(Debug, Default)]
struct ConnCounters {
    /// Both transports.
    accepted: AtomicU64,
    /// The share of `accepted` that came in over the local socket.
    accepted_local: AtomicU64,
    reaped: AtomicU64,
    rejected: AtomicU64,
}

impl ConnCounters {
    /// Currently open connections (accepted and not yet reaped or
    /// dropped at admission).
    fn live(&self) -> u64 {
        let accepted = self.accepted.load(Ordering::Relaxed);
        accepted.saturating_sub(
            self.reaped.load(Ordering::Relaxed) + self.rejected.load(Ordering::Relaxed),
        )
    }
}

/// Ban list for repeat protocol-error offenders, shared by the workers
/// (which ban a peer address when a connection crosses
/// `quarantine_errors`) and the acceptor (which refuses banned
/// addresses at accept). Protocol errors and accepts are both off the
/// hot path, so a mutex-guarded map is the right amount of machinery.
#[derive(Default)]
struct Quarantine {
    /// Peer address → ban expiry.
    bans: Mutex<HashMap<IpAddr, Instant>>,
}

impl Quarantine {
    /// Bans `ip` for `dur`, pruning every expired ban first, so the map
    /// never outgrows the set of recently-banned peers, even ones that
    /// never come back.
    fn ban(&self, ip: IpAddr, dur: Duration) {
        let (mut bans, now) = (self.bans.lock().unwrap(), Instant::now());
        bans.retain(|_, until| now < *until);
        bans.insert(ip, now + dur);
    }

    /// Whether `ip` is currently banned; an expired ban is pruned as it
    /// is consulted.
    fn is_banned(&self, ip: IpAddr) -> bool {
        let mut bans = self.bans.lock().unwrap();
        match bans.get(&ip) {
            Some(&until) if Instant::now() < until => true,
            Some(_) => {
                bans.remove(&ip);
                false
            }
            None => false,
        }
    }
}

/// Counter series carried by the per-tick time-series rings, in ring
/// index order. The names are the query surface of
/// `SERIES <name> <secs>` and `RATE <name>`.
const SERIES_COUNTERS: &[&str] = &[
    "decides",
    "reports",
    "protocol_errors",
    "backpressure_pauses",
    "trace_events",
    "reaped_conns",
];

/// Window of the `RATE <name>` command, in seconds.
const RATE_WINDOW_SECS: u64 = 10;

/// Capacity (events) of each worker's trace ring. The worker's
/// maintenance tick drains the ring into the shared trace log, so it
/// only needs to hold about one tick's worth of events; overflow drops
/// (and counts) rather than blocks — tracing never backpressures the
/// data path it observes.
const TRACE_CAPACITY: usize = 1024;

/// Slow-decide threshold in nanoseconds: a *sampled* decide (the
/// engine clocks 1 in 64) at or above it emits a `slow_decide` trace
/// event.
const SLOW_DECIDE_NS: u64 = 1_000_000;

/// Capacity of the exactly-once report-session table (concurrent
/// session ids). Sessions past it are refused (`R_ERR`), which a
/// client surfaces rather than silently losing dedup.
const SESSION_CAPACITY: usize = 1024;

/// Window of the `DUMP` windowed section, in seconds.
const DUMP_WINDOW_SECS: u64 = 60;

/// The daemon-wide time-series state every worker records into:
/// cumulative samples of the fleet-relevant counters and of every
/// latency class's histogram (ring index = [`CLASSES`] position, queried
/// as `SERIES <class>_p50_ns <secs>` / `SERIES <class>_p99_ns <secs>`),
/// one per `series_tick`. Shared behind an `Arc` because
/// any worker's maintenance tick may be the one that lands on a slot
/// boundary first; the `last` CAS gates so exactly one records it.
struct SeriesState {
    start: Instant,
    tick: Duration,
    /// Highest tick index recorded so far.
    last: AtomicU64,
    ring: Mutex<SeriesRing>,
}

impl SeriesState {
    fn new(config: &ServerConfig) -> Option<Arc<SeriesState>> {
        if config.series_tick.is_zero() {
            return None;
        }
        Some(Arc::new(SeriesState {
            start: Instant::now(),
            tick: config.series_tick,
            last: AtomicU64::new(0),
            ring: Mutex::new(SeriesRing::new(
                xar_obs::DEFAULT_SLOTS,
                SERIES_COUNTERS.len(),
                CLASSES.len(),
            )),
        }))
    }

    /// A window expressed in seconds, converted to ring ticks
    /// (rounded up; at least one).
    fn ticks_for_secs(&self, secs: u64) -> u64 {
        let tick_ns = self.tick.as_nanos().max(1);
        ((secs as u128 * 1_000_000_000).div_ceil(tick_ns)).max(1) as u64
    }

    /// Converts a ring per-tick rate into a per-second rate.
    fn per_sec(&self, per_tick: f64) -> f64 {
        per_tick / self.tick.as_secs_f64()
    }
}

/// The per-worker slice of server state, threaded (mutably — the
/// decide handle and batch scratch are worker-owned) through the
/// connection-servicing call chain.
struct WorkerCtx<P: PolicyCore> {
    engine: Arc<ShardedEngine<P>>,
    /// The worker's wait-free decide path: per-shard cached snapshots
    /// revalidated by generation, refreshed only on publish.
    handle: DecideHandle<P>,
    /// Reusable grouping scratch for BatchReport ingestion.
    scratch: BatchScratch,
    /// Reusable grouping/decision scratch for DecideBatch frames.
    dscratch: DecideScratch,
    counters: Arc<ConnCounters>,
    /// Wakes the acceptor after a reap so a listener parked at the
    /// connection cap resumes accepting.
    acceptor: Waker,
    /// This worker's tracing front door: the writer half of its SPSC
    /// ring plus the enable flag and slow-decide threshold.
    tracer: Tracer,
    /// Consumer half of this worker's trace ring; drained into
    /// `trace_log` by the maintenance tick and by trace queries.
    trace_reader: TraceReader,
    /// The shared bounded event log behind the v1 `TRACE n` command.
    trace_log: Arc<TraceLog>,
    /// Daemon start time, for the `uptime_secs` tag.
    started: Instant,
    /// Shared per-tick time-series state (`None` when disabled).
    series: Option<Arc<SeriesState>>,
    /// Exactly-once report-session registry (`HELLO_SESSION` /
    /// `BATCH_REPORT_SEQ`), shared so a client's reconnect may land on
    /// any worker and still dedup against the same high-water marks.
    sessions: Arc<SessionTable>,
    /// Shared ban list for repeat protocol-error offenders.
    quarantine: Arc<Quarantine>,
    /// The durability engine (`None` when the daemon is in-memory).
    dur: Option<Arc<Durability>>,
    config: ServerConfig,
}

impl<P: PolicyCore> WorkerCtx<P> {
    /// Ingests unsessioned reports, whatever carried them (a v2
    /// `BatchReport`, a v1 `REPORT` line): journal-then-apply when
    /// durability is armed — the ack is backed by the log, durability
    /// is per-daemon, not per-protocol — straight into the engine
    /// otherwise. An error means the journal refused the write and
    /// nothing was applied.
    fn ingest(&mut self, reports: &[wire::WireReport<'_>]) -> std::io::Result<usize> {
        let obs = Some(&mut self.tracer);
        match &self.dur {
            Some(d) => d.ingest_batch(&self.engine, &mut self.scratch, reports, obs),
            None => Ok(self.engine.report_batch_wire_obs(&mut self.scratch, reports, obs)),
        }
    }

    /// Ingests one seq-stamped batch exactly once. The durable path
    /// stamps and journals under one ingest lock: a fresh batch's
    /// reports and high-water advance land in one atomic WAL record
    /// before the ack, so the batch counts once even across a crash at
    /// any point.
    fn ingest_seq(
        &mut self,
        session: u64,
        seq: u64,
        reports: &[wire::WireReport<'_>],
    ) -> std::io::Result<DurableSeqOutcome> {
        let obs = Some(&mut self.tracer);
        let (engine, scratch) = (&self.engine, &mut self.scratch);
        match &self.dur {
            Some(d) => {
                d.ingest_seq_batch(engine, &self.sessions, session, seq, scratch, reports, obs)
            }
            None => Ok(match self.sessions.advance(session, seq) {
                Some(SeqOutcome::Fresh) => {
                    DurableSeqOutcome::Fresh(engine.report_batch_wire_obs(scratch, reports, obs))
                }
                Some(SeqOutcome::Replay) => DurableSeqOutcome::Replay,
                None => DurableSeqOutcome::Rejected,
            }),
        }
    }

    /// Drains this worker's trace ring into the shared log.
    fn drain_trace(&mut self) {
        self.trace_log.drain_from(&mut self.trace_reader);
    }

    /// Records a time-series sample if a new tick has begun since the
    /// last recorded one. Called from every worker's maintenance tick
    /// and opportunistically by the series queries, so an idle daemon
    /// still answers them. CAS-gated: of the workers racing on a slot
    /// boundary exactly one records it; the rest see the bumped `last`
    /// and do nothing. Cheap when not due — a clock read and one
    /// relaxed load. A scrape passes the snapshot it already took, so
    /// it folds no shard twice.
    fn advance_series(&self, scraped: Option<&MetricsSnapshot>) {
        let Some(s) = &self.series else { return };
        let tick = (s.start.elapsed().as_nanos() / s.tick.as_nanos().max(1)) as u64;
        let last = s.last.load(Ordering::Relaxed);
        if tick <= last
            || s.last.compare_exchange(last, tick, Ordering::Relaxed, Ordering::Relaxed).is_err()
        {
            return;
        }
        let m = scraped.copied().unwrap_or_else(|| self.engine.metrics_total());
        let ev = self.tracer.counters();
        let r = Ordering::Relaxed;
        // Index order pins to SERIES_COUNTERS.
        let counters = [
            m.decides,
            m.reports,
            ev.proto_errors.load(r),
            ev.pauses.load(r),
            ev.emitted(),
            self.counters.reaped.load(r),
        ];
        s.ring.lock().unwrap().record(tick, &counters, &m.hists);
    }

    /// Records one reaped connection and, when an admission cap is
    /// configured, nudges the acceptor (the freed slot may be what it
    /// is parked on).
    fn note_reaped(&self) {
        self.counters.reaped.fetch_add(1, Ordering::Relaxed);
        if self.config.max_connections != usize::MAX {
            self.acceptor.wake();
        }
    }
}

struct Conn {
    stream: Stream,
    proto: Proto,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// The interest set currently armed with the reactor.
    interest: Interest,
    /// No further input will be processed; pending output still
    /// flushes before the connection is reaped.
    closed: bool,
    /// Total bytes ever accepted by the socket — the write-stall
    /// timer's progress marker.
    wrote: u64,
    /// Whether the write-stall timer is armed, and the `wrote`
    /// watermark it must beat at expiry.
    stall_armed: bool,
    stall_mark: u64,
    /// Total bytes ever read from the socket — the idle timer's
    /// activity marker.
    read_total: u64,
    /// The `read_total` watermark the idle timer recorded when it was
    /// (re-)armed; unchanged at expiry means a full silent window.
    idle_mark: u64,
    /// The socket is unusable (write error); reap immediately.
    dead: bool,
    /// Peer address, for the quarantine ban list (see
    /// [`Stream::peer_ip`]).
    peer: Option<IpAddr>,
    /// Protocol errors this connection has committed, against
    /// `quarantine_errors`.
    proto_errors: u32,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        let peer = stream.peer_ip();
        Conn {
            stream,
            peer,
            proto_errors: 0,
            proto: Proto::Undetermined,
            // Deliberately capacity 0: read_into's growth branch owns
            // (and zero-initializes) every byte of spare capacity.
            inbuf: Vec::new(),
            outbuf: Vec::with_capacity(1024),
            outpos: 0,
            interest: Interest::READ,
            closed: false,
            wrote: 0,
            stall_armed: false,
            stall_mark: 0,
            read_total: 0,
            idle_mark: 0,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.outpos >= self.outbuf.len()
    }

    /// Bytes of replies not yet written to the socket.
    fn out_pending(&self) -> usize {
        self.outbuf.len() - self.outpos.min(self.outbuf.len())
    }
}

/// Per-worker connection storage: slot index == reactor token.
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(|c| c.as_mut())
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(slot)?.take();
        if conn.is_some() {
            self.free.push(slot);
        }
        conn
    }
}

/// The acceptor's two listening sockets. `local` is declared (so
/// dropped) first: the name is never still held once the TCP port it
/// is derived from is free for someone else to bind.
struct Listeners {
    /// `None` only where the platform has no abstract namespace.
    local: Option<UnixListener>,
    tcp: TcpListener,
}

const TCP_TOKEN: Token = Token(0);
const LOCAL_TOKEN: Token = Token(1);

impl Listeners {
    /// Binds TCP at `bind`, then the local name derived from the port
    /// TCP actually got. Either failing fails the pair.
    fn bind(bind: SocketAddr) -> std::io::Result<(Listeners, SocketAddr)> {
        let tcp = TcpListener::bind(bind)?;
        tcp.set_nonblocking(true)?;
        let addr = tcp.local_addr()?;
        let local = transport::bind_local(addr.port())?;
        Ok((Listeners { local, tcp }, addr))
    }

    /// Arms read interest on both listeners.
    fn arm(&self, reactor: &mut Reactor) -> std::io::Result<()> {
        reactor.register(self.tcp.as_raw_fd(), TCP_TOKEN, Interest::READ)?;
        if let Some(local) = &self.local {
            reactor.register(local.as_raw_fd(), LOCAL_TOKEN, Interest::READ)?;
        }
        Ok(())
    }

    /// Drops read interest on both: pending peers wait in the kernel
    /// backlogs.
    fn park(&self, reactor: &mut Reactor) {
        let _ = reactor.deregister(self.tcp.as_raw_fd(), TCP_TOKEN);
        if let Some(local) = &self.local {
            let _ = reactor.deregister(local.as_raw_fd(), LOCAL_TOKEN);
        }
    }

    /// The next pending connection on either listener, `None` once both
    /// would block.
    fn accept(&self) -> std::io::Result<Option<Stream>> {
        match self.tcp.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                return Ok(Some(Stream::Tcp(stream)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        match self.local.as_ref().map(UnixListener::accept) {
            Some(Ok((stream, _))) => Ok(Some(Stream::Local(stream))),
            Some(Err(e)) if e.kind() != ErrorKind::WouldBlock => Err(e),
            _ => Ok(None),
        }
    }
}

/// A running scheduler daemon. Dropping it shuts everything down
/// gracefully (pending report batches are flushed).
pub struct Server<P: PolicyCore> {
    addr: SocketAddr,
    engine: Arc<ShardedEngine<P>>,
    stop: Arc<AtomicBool>,
    wakers: Vec<Waker>,
    handles: Vec<JoinHandle<()>>,
    sessions: Arc<SessionTable>,
    dur: Option<Arc<Durability>>,
    recovery: RecoveryStats,
}

impl<P: PolicyCore> Server<P> {
    /// Spawns the daemon on an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// Propagates socket and reactor-creation errors.
    pub fn spawn(engine: ShardedEngine<P>, config: ServerConfig) -> std::io::Result<Server<P>> {
        Server::spawn_at(engine, config, (std::net::Ipv4Addr::LOCALHOST, 0).into())
    }

    /// Spawns the daemon bound to a specific address. Deployments (and
    /// fleet tests) that must come back on the same port after a
    /// restart — so an aggregator's reconnect backoff finds them again
    /// — use this; [`Server::spawn`] keeps the ephemeral-port default.
    ///
    /// # Errors
    ///
    /// Propagates socket and reactor-creation errors (including an
    /// already-bound address — the TCP port's, or the local name's
    /// derived from it, see [`transport::local_name`]).
    pub fn spawn_at(
        engine: ShardedEngine<P>,
        config: ServerConfig,
        bind: SocketAddr,
    ) -> std::io::Result<Server<P>> {
        let (listeners, addr) = Listeners::bind(bind)?;
        let engine = Arc::new(engine);
        let stop = Arc::new(AtomicBool::new(false));
        let workers = config.workers.max(1);
        // Create every reactor before spawning any thread: a `?` after
        // the first spawn would leak already-running workers with no
        // handle left to stop them.
        let mut reactors = Vec::with_capacity(workers);
        for _ in 0..workers {
            reactors.push(Reactor::with_backend(config.backend)?);
        }
        let mut acceptor = Reactor::with_backend(config.backend)?;
        listeners.arm(&mut acceptor)?;
        let counters = Arc::new(ConnCounters::default());
        let obs_counters = Arc::new(EventCounters::default());
        let trace_log = Arc::new(TraceLog::new(config.trace_log_capacity));
        let series = SeriesState::new(&config);
        let sessions = Arc::new(SessionTable::new(SESSION_CAPACITY));
        // Startup recovery runs to completion before any worker (or the
        // acceptor) exists: early connections wait in the kernel
        // backlog and are first served against fully recovered state.
        // The flush sink registers only after recovery, so replayed
        // reports cannot journal row deltas back into the WAL.
        let mut recovery = RecoveryStats::default();
        let dur = match &config.durability {
            Some(dcfg) => {
                let (d, rec) = Durability::open(dcfg.clone(), &engine, &sessions)?;
                recovery = rec;
                let d = Arc::new(d);
                let sink = d.clone();
                engine.set_flush_sink(Box::new(move |shard, rows| {
                    sink.note_row_deltas(shard, rows);
                }));
                Some(d)
            }
            None => None,
        };
        let quarantine = Arc::new(Quarantine::default());
        let started = Instant::now();
        let mut handles = Vec::with_capacity(workers + 1);
        let mut wakers = Vec::with_capacity(workers + 1);
        let mut worker_ports: Vec<(Sender<Stream>, Waker)> = Vec::with_capacity(workers);
        for (w, reactor) in reactors.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::channel();
            worker_ports.push((tx, reactor.waker()));
            wakers.push(reactor.waker());
            let (trace_writer, trace_reader) = xar_obs::ring(TRACE_CAPACITY);
            let mut tracer = Tracer::new(
                trace_writer,
                w as u16,
                config.trace,
                SLOW_DECIDE_NS,
                obs_counters.clone(),
            );
            tracer.set_daemon(config.daemon_id);
            let ctx = WorkerCtx {
                handle: engine.handle(),
                scratch: BatchScratch::default(),
                dscratch: DecideScratch::default(),
                engine: engine.clone(),
                counters: counters.clone(),
                acceptor: acceptor.waker(),
                tracer,
                trace_reader,
                trace_log: trace_log.clone(),
                started,
                series: series.clone(),
                sessions: sessions.clone(),
                quarantine: quarantine.clone(),
                dur: dur.clone(),
                config: config.clone(),
            };
            let stop = stop.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("xar-sched-worker-{w}"))
                    .spawn(move || worker_loop(rx, ctx, stop, reactor))
                    .expect("spawn worker"),
            );
        }
        wakers.push(acceptor.waker());
        let stop2 = stop.clone();
        let counters2 = counters.clone();
        // The acceptor gets its own ring (worker id = `workers`) so
        // rejection events never contend with a worker's producer side.
        let (a_writer, a_reader) = xar_obs::ring(TRACE_CAPACITY);
        let mut a_tracer =
            Tracer::new(a_writer, workers as u16, config.trace, SLOW_DECIDE_NS, obs_counters);
        a_tracer.set_daemon(config.daemon_id);
        let acceptor_trace = AcceptorTrace { tracer: a_tracer, reader: a_reader, log: trace_log };
        handles.push(
            std::thread::Builder::new()
                .name("xar-sched-acceptor".into())
                .spawn(move || {
                    accept_loop(
                        listeners,
                        worker_ports,
                        stop2,
                        acceptor,
                        counters2,
                        config,
                        acceptor_trace,
                        quarantine,
                    )
                })
                .expect("spawn acceptor"),
        );
        Ok(Server { addr, engine, stop, wakers, handles, sessions, dur, recovery })
    }

    /// The daemon's socket address (for clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the daemon (tables, metrics, flush).
    pub fn engine(&self) -> &Arc<ShardedEngine<P>> {
        &self.engine
    }

    /// The exactly-once session registry (high-water marks, lifetime
    /// open/replay counters).
    pub fn sessions(&self) -> &Arc<SessionTable> {
        &self.sessions
    }

    /// What startup recovery restored (all zeros when durability is
    /// off or the directory was fresh).
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Requests shutdown and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    /// Abrupt stop for crash testing: joins the threads but skips the
    /// final engine flush and the clean-shutdown snapshot, so the
    /// durability directory is left holding exactly what the WAL (and
    /// any earlier periodic snapshot) captured — the on-disk state of
    /// a daemon killed mid-flight. Acked work is still on disk (that
    /// is the durability contract); unflushed telemetry is lost, as it
    /// would be in a real crash.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // handles is empty: Drop's stop_inner is skipped.
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Telemetry left in per-shard queues survives shutdown.
        self.engine.flush();
        // Clean shutdown checkpoints everything (and prunes the WAL it
        // covers), so the next boot replays nothing.
        if let Some(d) = &self.dur {
            let _ = d.snapshot(&self.engine, &self.sessions);
        }
    }
}

impl<P: PolicyCore> Drop for Server<P> {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop_inner();
        }
    }
}

/// The acceptor thread's tracing bundle: its own ring plus the shared
/// log it drains into. Rejections are rare (admission failures only),
/// so each one is pushed and drained to the log in the same breath —
/// no maintenance tick needed on the acceptor.
struct AcceptorTrace {
    tracer: Tracer,
    reader: TraceReader,
    log: Arc<TraceLog>,
}

impl AcceptorTrace {
    fn reject(&mut self) {
        self.tracer.emit(TraceEvent::Reject);
        self.log.drain_from(&mut self.reader);
    }

    /// The accept-failure throttle tripped (persistent `accept()`
    /// errors, e.g. fd exhaustion). Like rejections: rare, so pushed
    /// and drained to the log in the same breath.
    fn throttle(&mut self) {
        self.tracer.emit(TraceEvent::AcceptThrottle);
        self.log.drain_from(&mut self.reader);
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listeners: Listeners,
    workers: Vec<(Sender<Stream>, Waker)>,
    stop: Arc<AtomicBool>,
    mut reactor: Reactor,
    counters: Arc<ConnCounters>,
    config: ServerConfig,
    mut trace: AcceptorTrace,
    quarantine: Arc<Quarantine>,
) {
    let (mut events, mut expired) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    // Admission control: `spawn` armed the listeners' read interest;
    // at the connection cap it is dropped so pending peers wait in the
    // kernel backlogs, and a worker's post-reap wake re-arms it.
    let mut armed = true;
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        expired.clear();
        if reactor.poll(&mut events, &mut expired, Some(MAX_WAIT)).is_err() {
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Accept everything pending regardless of what woke us —
        // readiness is level-triggered and spurious wakes are allowed.
        loop {
            // Cap check before every accept: hitting the cap mid-drain
            // must park the listeners immediately, or the
            // still-readable fds would turn every poll into a busy loop.
            if counters.live() >= config.max_connections as u64 {
                if armed {
                    listeners.park(&mut reactor);
                    armed = false;
                }
                break;
            }
            if !armed {
                if listeners.arm(&mut reactor).is_err() {
                    return; // cannot watch the listeners anymore
                }
                armed = true;
            }
            match listeners.accept() {
                Ok(Some(stream)) => {
                    counters.accepted.fetch_add(1, Ordering::Relaxed);
                    if stream.is_local() {
                        counters.accepted_local.fetch_add(1, Ordering::Relaxed);
                    }
                    // Quarantined peers are refused before spending a
                    // worker handoff on them; the ban self-expires.
                    if stream.peer_ip().is_some_and(|ip| quarantine.is_banned(ip)) {
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        trace.reject();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        trace.reject();
                        continue;
                    }
                    // Round-robin, skipping workers whose channel is
                    // gone (a panicked worker must not take the accept
                    // path down with it); give up only when every
                    // worker died.
                    let mut stream = Some(stream);
                    for attempt in 0..workers.len() {
                        let idx = (next + attempt) % workers.len();
                        let (tx, waker) = &workers[idx];
                        match tx.send(stream.take().expect("stream handed off once")) {
                            Ok(()) => {
                                waker.wake();
                                next = idx + 1;
                                break;
                            }
                            Err(std::sync::mpsc::SendError(s)) => stream = Some(s),
                        }
                    }
                    if stream.is_some() {
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        trace.reject();
                        return; // no live workers remain
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Persistent accept failures (e.g. fd exhaustion)
                    // leave the listener readable, so the next poll
                    // returns immediately; throttle to keep the
                    // retry loop off a full core. Traced and counted
                    // (`accept_throttles`): a daemon living in this
                    // state is starving new clients and an operator
                    // should see it on the scrape surface.
                    trace.throttle();
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }
}

fn worker_loop<P: PolicyCore>(
    rx: Receiver<Stream>,
    mut ctx: WorkerCtx<P>,
    stop: Arc<AtomicBool>,
    mut reactor: Reactor,
) {
    let mut slab = Slab::default();
    let (mut events, mut expired) = (Vec::<Event>::new(), Vec::<Token>::new());
    // The maintenance tick: a recurring timer, so an idle worker still
    // applies stranded below-batch reports within one interval.
    if let Some(period) = maint_period(&ctx.config) {
        reactor.set_recurring_timer(MAINT_TOKEN, period);
    }
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        expired.clear();
        if reactor.poll(&mut events, &mut expired, Some(MAX_WAIT)).is_err() {
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Adopt handed-off connections (the acceptor woke us).
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    let fd = stream.as_raw_fd();
                    let slot = slab.insert(Conn::new(stream));
                    if reactor.register(fd, Token(slot), Interest::READ).is_err() {
                        slab.remove(slot);
                        ctx.note_reaped();
                        continue;
                    }
                    if let Some(idle) = ctx.config.idle_timeout {
                        reactor.set_timer(idle_token(slot), idle);
                    }
                    // Accept is traced by the adopting worker (not the
                    // acceptor) so a connection's whole lifecycle —
                    // accept through reap — sits in one worker's ring,
                    // in order.
                    ctx.tracer.emit(TraceEvent::Accept { conn: slot as u64 });
                    // Serve immediately: the client may have sent its
                    // handshake before we registered.
                    service(&mut slab, &mut reactor, &mut ctx, slot);
                }
                Err(TryRecvError::Empty) => break,
                // The acceptor (and its channel) is gone without a stop
                // flag: the server is being torn down abnormally; exit
                // rather than serve a half-dead daemon.
                Err(TryRecvError::Disconnected) => return,
            }
        }
        for ev in &events {
            service(&mut slab, &mut reactor, &mut ctx, ev.token.0);
        }
        for t in &expired {
            // Maintenance tick: sweep the engine's dirty shards (an
            // elected publish emits a flush_publish trace event), then
            // drain this worker's trace ring into the shared log.
            if *t == MAINT_TOKEN {
                if !ctx.config.flush_interval.is_zero() {
                    ctx.engine.flush_dirty(Some(&mut ctx.tracer));
                }
                ctx.drain_trace();
                // Advance the per-tick time-series once the counters
                // above are settled for this tick.
                ctx.advance_series(None);
                // Durability heartbeat: interval fsyncs and periodic
                // snapshots ride the same tick (single-flight across
                // workers).
                if let Some(d) = &ctx.dur {
                    d.tick(ctx.engine.as_ref(), &ctx.sessions);
                }
                continue;
            }
            // Idle deadline: a full window passed — reap only if the
            // peer delivered nothing inbound over the whole of it and
            // is not mid-drain (a slow reader's fate belongs to the
            // write-stall deadline, a half-closed peer's to the reap
            // conditions in `service`).
            if t.0 & IDLE_TIMER_BIT != 0 {
                let slot = t.0 & !IDLE_TIMER_BIT;
                if let Some(conn) = slab.get_mut(slot) {
                    let active = conn.read_total != conn.idle_mark;
                    if !active && !conn.closed && conn.flushed() {
                        reap(&mut slab, &mut reactor, &mut ctx, slot);
                    } else if let Some(idle) = ctx.config.idle_timeout {
                        conn.idle_mark = conn.read_total;
                        reactor.set_timer(idle_token(slot), idle);
                    }
                }
                continue;
            }
            // Write-stall expiry: a whole linger window elapsed with
            // replies still backed up. Reap only when the peer drained
            // nothing at all during the window — a FIN is unobservable
            // while the backpressure gate holds reads off, so zero
            // progress is the one signal that the peer is gone or
            // wedged. Any progress (closed or not: the window may have
            // been armed long before a FIN, so `closed` must not
            // shortcut a draining peer to its death) earns a fresh
            // window from service()'s re-arm.
            if let Some(conn) = slab.get_mut(t.0) {
                conn.stall_armed = false;
                if !conn.flushed() && conn.wrote == conn.stall_mark {
                    conn.dead = true;
                }
            }
            service(&mut slab, &mut reactor, &mut ctx, t.0);
        }
    }
}

/// Pumps one connection, then reaps it or re-arms its reactor interest
/// to match the new buffer state.
fn service<P: PolicyCore>(
    slab: &mut Slab,
    reactor: &mut Reactor,
    ctx: &mut WorkerCtx<P>,
    slot: usize,
) {
    let Some(conn) = slab.get_mut(slot) else {
        return; // reaped earlier this iteration; stale event
    };
    pump(conn, ctx, slot);
    if conn.dead || (conn.closed && conn.flushed() && !has_complete_input(conn)) {
        reap(slab, reactor, ctx, slot);
        return;
    }
    // Backpressure via interest re-arm: while replies are backed up we
    // watch for writability only (no reads — the socket pushes back on
    // the client); once flushed we watch for the next request. Each flip
    // is a traced pause/resume: the re-arm is exactly the moment reads
    // stop (or restart) for this connection.
    let desired = if conn.flushed() { Interest::READ } else { Interest::WRITE };
    if desired != conn.interest {
        let fd = conn.stream.as_raw_fd();
        if reactor.reregister(fd, Token(slot), desired).is_ok() {
            conn.interest = desired;
            ctx.tracer.emit(if desired == Interest::WRITE {
                TraceEvent::PauseWrites { conn: slot as u64 }
            } else {
                TraceEvent::ResumeReads { conn: slot as u64 }
            });
        } else {
            reap(slab, reactor, ctx, slot);
            return;
        }
    }
    // Write-stall window: while replies are backed up keep a deadline
    // armed, recording the drain watermark it must beat (see the
    // expiry handling in `worker_loop`); once flushed, disarm it.
    if !conn.flushed() {
        if !conn.stall_armed {
            conn.stall_armed = true;
            conn.stall_mark = conn.wrote;
            reactor.set_timer(Token(slot), ctx.config.close_linger);
        }
    } else if conn.stall_armed {
        conn.stall_armed = false;
        reactor.cancel_timer(Token(slot));
    }
}

/// Tears one connection down: drops it from the slab, clears its
/// reactor state (registration and both timers), and counts (and
/// traces) the reap.
fn reap<P: PolicyCore>(
    slab: &mut Slab,
    reactor: &mut Reactor,
    ctx: &mut WorkerCtx<P>,
    slot: usize,
) {
    let conn = slab.remove(slot).expect("slot occupied");
    // Deregistering cancels the slot-token (write-stall) timer; the
    // idle deadline lives under its own token.
    let _ = reactor.deregister(conn.stream.as_raw_fd(), Token(slot));
    reactor.cancel_timer(idle_token(slot));
    ctx.tracer.emit(TraceEvent::Reap { conn: slot as u64 });
    ctx.note_reaped();
}

/// Advances one connection: read, parse/handle, write — looping while
/// buffered complete input remains and the socket keeps absorbing the
/// replies (the outbuf high-water cap pauses processing; this loop
/// resumes it as the backlog drains).
fn pump<P: PolicyCore>(conn: &mut Conn, ctx: &mut WorkerCtx<P>, slot: usize) {
    let cap = ctx.config.outbuf_high_water;
    loop {
        // Ingest gate: while replies are stuck in outbuf (peer not
        // reading), stop reading requests — otherwise a client that
        // pipelines without reading grows outbuf without bound.
        if !conn.dead && !conn.closed && conn.flushed() {
            read_some(conn);
        }
        if !conn.dead && conn.out_pending() <= cap {
            if let Proto::Undetermined = conn.proto {
                classify(conn);
            }
            match conn.proto {
                Proto::V2 => process_v2(conn, ctx, slot),
                Proto::V1 => process_v1(conn, ctx, slot),
                Proto::Undetermined => {}
            }
        }
        write_some(conn);
        // Loop while complete input is still buffered and the socket
        // absorbed every reply — covers both cap-paused processing and
        // a re-entry (e.g. on writability) that found the processing
        // gate shut. Every such round consumes input (the close-path
        // diagnostics clear theirs), so this terminates. When the
        // socket is the bottleneck instead (!flushed), the next
        // writable event re-enters pump. `closed` deliberately does
        // not exit: a half-closed client still gets the replies to
        // everything it pipelined before its FIN (the reap fires only
        // once closed + flushed + no complete input remain).
        if conn.dead || !conn.flushed() || !has_complete_input(conn) {
            return;
        }
    }
}

/// Whether the input buffer holds something processing could consume
/// right now: a complete v2 frame (or a frame error to surface), a
/// complete v1 line (or an over-long one to reject). Partial input
/// waits for more bytes instead.
fn has_complete_input(conn: &Conn) -> bool {
    match conn.proto {
        Proto::V2 => !matches!(wire::frame_in(&conn.inbuf), Ok(None)),
        Proto::V1 => conn.inbuf.contains(&b'\n') || conn.inbuf.len() > wire::MAX_V1_LINE,
        Proto::Undetermined => false,
    }
}

/// Smallest spare capacity worth issuing a read for; [`read_into`]
/// grows the buffer whenever spare falls below it. Deliberately small:
/// it is also the resting footprint of every idle connection's input
/// buffer (thousands of mostly-idle clients is the design load), and
/// bulk senders escape it fast — each exactly-filled read triggers a
/// `Vec` growth that doubles capacity, so sustained streams converge
/// to large reads after a few iterations while a decide-sized client
/// never grows past this.
const READ_CHUNK: usize = 2 * 1024;

/// How one [`read_into`] drain ended. Every variant carries the bytes
/// appended before the terminating condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadOutcome {
    /// The source has no more bytes right now (would block, or a short
    /// read implied as much).
    Drained(u64),
    /// Orderly EOF.
    Eof(u64),
    /// Hard I/O error.
    Failed(u64),
}

impl ReadOutcome {
    fn appended(self) -> u64 {
        match self {
            ReadOutcome::Drained(n) | ReadOutcome::Eof(n) | ReadOutcome::Failed(n) => n,
        }
    }
}

/// Appends readable bytes from `src` directly into `inbuf`'s spare
/// capacity — no scratch buffer, no second copy.
///
/// The spare region is zero-filled once whenever the buffer grows, so
/// the slice handed to `src.read()` always covers initialized bytes
/// (the `Read` contract allows implementations to inspect the buffer)
/// at the cost of one memset per growth, not per call. For that
/// invariant to hold, `inbuf`'s capacity must only ever come from this
/// function's own growth branch — pass buffers that start at capacity
/// 0 (or whose spare was otherwise initialized), never a fresh
/// `Vec::with_capacity(..)` at or above [`READ_CHUNK`].
///
/// A short read (fewer bytes than the spare slice offered) means the
/// source is drained, skipping the would-block probe syscall. A read
/// that *exactly fills* the spare capacity proves nothing — the kernel
/// may hold more — so the loop reserves fresh capacity and reads
/// again; treating an exact fill as drained would strand buffered
/// socket bytes until the next readiness event.
fn read_into(inbuf: &mut Vec<u8>, src: &mut impl Read) -> ReadOutcome {
    let mut appended = 0u64;
    loop {
        let len = inbuf.len();
        if inbuf.capacity() - len < READ_CHUNK {
            // Grow, and zero-fill the whole new spare region once. The
            // bytes stay initialized across later drains/truncates (Vec
            // never de-initializes), so steady-state rounds skip this.
            inbuf.reserve(READ_CHUNK);
            inbuf.resize(inbuf.capacity(), 0);
            inbuf.truncate(len);
        }
        let want = inbuf.capacity() - len;
        let spare = inbuf.spare_capacity_mut();
        // SAFETY: the slice covers spare capacity that the growth
        // branch above zero-initialized (and nothing de-initializes),
        // so this is a plain view of initialized bytes.
        let buf = unsafe { std::slice::from_raw_parts_mut(spare.as_mut_ptr().cast::<u8>(), want) };
        match src.read(buf) {
            Ok(0) => return ReadOutcome::Eof(appended),
            Ok(n) => {
                // Hard assert: `Read` is a safe trait, so a
                // nonconforming impl returning n > buf.len() must not
                // reach the unsafe set_len below in any build profile.
                assert!(n <= want, "Read impl returned {n} for a {want}-byte buffer");
                // SAFETY: `len + n <= capacity` (asserted), and every
                // byte up to there is initialized (prefix by prior
                // writes, the rest by the zero-fill at growth).
                unsafe { inbuf.set_len(len + n) };
                appended += n as u64;
                if n < want {
                    return ReadOutcome::Drained(appended);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadOutcome::Drained(appended),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Failed(appended),
        }
    }
}

/// Drains readable bytes into the connection's input buffer.
fn read_some(conn: &mut Conn) {
    let outcome = read_into(&mut conn.inbuf, &mut conn.stream);
    conn.read_total += outcome.appended();
    match outcome {
        ReadOutcome::Drained(_) => {}
        ReadOutcome::Eof(_) => conn.closed = true,
        ReadOutcome::Failed(_) => conn.dead = true,
    }
}

/// Drains the output buffer into the socket.
fn write_some(conn: &mut Conn) {
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.outpos += n;
                conn.wrote += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
    }
}

/// Decides v1 vs v2 from the first bytes and, for v2, completes the
/// handshake.
fn classify(conn: &mut Conn) {
    if conn.inbuf.len() < 4 {
        // Not enough bytes for the magic — but any byte differing from
        // the magic prefix (or a newline, which the magic never
        // contains) already proves this is a v1 text client. Without
        // this, a short malformed line like "X\n" would hang forever
        // instead of getting ERR.
        let is_magic_prefix = conn.inbuf.iter().zip(wire::MAGIC).all(|(&b, m)| b == m);
        if !is_magic_prefix {
            conn.proto = Proto::V1;
        }
        return;
    }
    if conn.inbuf[..4] == wire::MAGIC {
        if conn.inbuf.len() < wire::HANDSHAKE_LEN {
            return;
        }
        let hs: [u8; wire::HANDSHAKE_LEN] = conn.inbuf[..wire::HANDSHAKE_LEN].try_into().unwrap();
        conn.inbuf.drain(..wire::HANDSHAKE_LEN);
        match wire::parse_handshake(&hs) {
            Ok(peer_version) if peer_version >= wire::VERSION => {
                conn.outbuf.extend_from_slice(&wire::handshake(wire::VERSION));
                conn.proto = Proto::V2;
            }
            _ => {
                // Future-proofing: a v2 server only speaks version 2;
                // anything older announcing the magic is refused.
                conn.outbuf.extend_from_slice(&wire::handshake(wire::VERSION));
                wire::encode_response(
                    &Response::Err("unsupported protocol version"),
                    &mut conn.outbuf,
                );
                conn.closed = true;
            }
        }
    } else {
        conn.proto = Proto::V1;
    }
}

/// Traces one protocol error on `conn` and applies the
/// repeat-offender policy: crossing `quarantine_errors` bans the peer
/// address, closes the connection, and returns `true` (the caller must
/// discard its remaining input — a quarantined peer gets no further
/// service).
fn note_proto_error<P: PolicyCore>(conn: &mut Conn, ctx: &mut WorkerCtx<P>, slot: usize) -> bool {
    ctx.tracer.emit(TraceEvent::ProtocolError { conn: slot as u64 });
    conn.proto_errors += 1;
    let threshold = ctx.config.quarantine_errors;
    if threshold == 0 || conn.proto_errors < threshold {
        return false;
    }
    if let Some(ip) = conn.peer {
        ctx.quarantine.ban(ip, QUARANTINE);
    }
    ctx.tracer.emit(TraceEvent::Quarantine { conn: slot as u64 });
    conn.closed = true;
    true
}

/// Whether a request is load-bearing — i.e. fair game for overload
/// shedding. Control-plane traffic (pings, stats, scrapes, session
/// hellos) is always served: an operator diagnosing the overload and a
/// client resyncing its session are exactly who must get through.
fn sheddable(req: &Request<'_>) -> bool {
    matches!(
        req,
        Request::Decide { .. }
            | Request::DecideBatch(_)
            | Request::BatchReport(_)
            | Request::BatchReportSeq { .. }
    )
}

/// Whether this connection's workload requests should be answered
/// `R_BUSY` right now: its own reply backlog crossed the shed line.
fn shedding<P: PolicyCore>(conn: &Conn, ctx: &WorkerCtx<P>) -> bool {
    let cap = ctx.config.shed_outbuf_bytes;
    cap > 0 && conn.out_pending() > cap
}

/// Handles buffered complete v2 frames, pausing at the outbuf
/// high-water cap ([`pump`]'s loop resumes once the backlog drains).
fn process_v2<P: PolicyCore>(conn: &mut Conn, ctx: &mut WorkerCtx<P>, slot: usize) {
    let cap = ctx.config.outbuf_high_water;
    // Track an offset and drain once: per-frame draining would memmove
    // the remaining buffer for every frame of a pipelined burst.
    let mut at = 0;
    loop {
        if conn.out_pending() > cap {
            break;
        }
        let (consumed, range) = match wire::frame_in(&conn.inbuf[at..]) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                wire::encode_response(&Response::Err("oversized frame"), &mut conn.outbuf);
                note_proto_error(conn, ctx, slot);
                conn.closed = true;
                // Discard the poisoned input: re-scanning it on a later
                // pump would emit the diagnostic again.
                conn.inbuf.clear();
                at = 0;
                break;
            }
        };
        match wire::decode_request(&conn.inbuf[at + range.start..at + range.end]) {
            Ok(req) => {
                if sheddable(&req) && shedding(conn, ctx) {
                    wire::encode_response(
                        &Response::Busy { retry_after_ms: ctx.config.shed_retry_after_ms },
                        &mut conn.outbuf,
                    );
                    ctx.tracer.emit(TraceEvent::ShedBusy { conn: slot as u64 });
                } else {
                    handle_v2(&req, ctx, &mut conn.outbuf);
                }
            }
            Err(e) => {
                wire::encode_response(&Response::Err(&e.to_string()), &mut conn.outbuf);
                if note_proto_error(conn, ctx, slot) {
                    conn.inbuf.clear();
                    at = 0;
                    break;
                }
            }
        }
        at += consumed;
    }
    conn.inbuf.drain(..at);
}

/// Error-reply text for a failed WAL append: the report was NOT acked
/// and (for unsessioned ingest) not applied — the disk is refusing
/// writes, which the operator must see.
const DUR_ERR: &str = "durability journal write failed";

/// The v2 reply to an ingest: the applied count, or [`DUR_ERR`].
fn encode_ack(ingested: std::io::Result<usize>, out: &mut Vec<u8>) {
    match ingested {
        Ok(n) => wire::encode_response(&Response::Ack(n as u32), out),
        Err(_) => wire::encode_response(&Response::Err(DUR_ERR), out),
    }
}

fn handle_v2<P: PolicyCore>(req: &Request<'_>, ctx: &mut WorkerCtx<P>, out: &mut Vec<u8>) {
    match req {
        &Request::Decide { app, kernel, x86_load, arm_load, kernel_resident, device_ready } => {
            let q =
                wire::WireQuery { app, kernel, x86_load, arm_load, kernel_resident, device_ready };
            // The worker's cached handle: wait-free against publishes.
            let d = ctx.handle.decide_obs(&q.ctx(), Some(&mut ctx.tracer));
            wire::encode_response(
                &Response::Decide { target: d.target, reconfigure: d.reconfigure },
                out,
            );
        }
        Request::DecideBatch(qs) => {
            // Grouped once-per-batch snapshot revalidation in the
            // engine, then the reply streams straight into the outbuf
            // via the frame writer — no intermediate encoded Vec.
            let ds = ctx.handle.decide_batch_obs(qs, &mut ctx.dscratch, Some(&mut ctx.tracer));
            let mut w = wire::DecideBatchReplyWriter::begin(out, ds.len());
            for d in ds {
                w.push(d);
            }
            w.finish();
        }
        Request::BatchReport(rs) => encode_ack(ctx.ingest(rs), out),
        Request::HelloSession { session } => match ctx.sessions.hello(*session) {
            Some(info) => {
                wire::encode_response(&Response::Session { last_seq: info.last_seq }, out);
            }
            None => {
                wire::encode_response(&Response::Err("session rejected (id 0 or table full)"), out);
            }
        },
        Request::BatchReportSeq { session, seq, reports } => {
            let reply = match ctx.ingest_seq(*session, *seq, reports) {
                Ok(DurableSeqOutcome::Fresh(n)) => Response::Ack(n as u32),
                // A batch the daemon already ingested: ack without
                // re-ingesting. `Ack(0)` is how the client tells a
                // dedup from a fresh ingest.
                Ok(DurableSeqOutcome::Replay) => Response::Ack(0),
                Ok(DurableSeqOutcome::Rejected) => {
                    Response::Err("session rejected (id 0 or table full)")
                }
                Err(_) => Response::Err(DUR_ERR),
            };
            wire::encode_response(&reply, out);
        }
        Request::Table => {
            let entries = ctx.engine.table();
            // One frame carries at most MAX_BATCH rows and MAX_FRAME
            // payload bytes (opcode, u16 count, rows); the encoder
            // asserts both, which would take this worker down. A larger
            // table is refused and the connection kept.
            let rows: usize =
                entries.iter().map(|e| wire::encoded_entry_len(e.app.len(), e.kernel.len())).sum();
            if entries.len() > wire::MAX_BATCH || 1 + 2 + rows > wire::MAX_FRAME {
                let msg = format!("table of {} rows exceeds one TABLE frame", entries.len());
                wire::encode_response(&Response::Err(&msg), out);
                return;
            }
            let rows = entries.iter().map(TableEntry::row).collect();
            wire::encode_response(&Response::Table(rows), out);
        }
        Request::Ping(nonce) => {
            wire::encode_response(&Response::Pong(*nonce), out);
        }
        Request::StatsV2 => {
            let pairs = collect_stats_v2(ctx, &ctx.engine.metrics_total());
            wire::encode_response(&Response::StatsV2(wire::StatsV2 { pairs }), out);
        }
        Request::HistDump => {
            // Raw per-bucket counts of the merged cross-worker
            // histograms, one row per class in CLASSES order — the
            // same merge the StatsV2 quantiles are computed from.
            let m = ctx.engine.metrics_total();
            let rows = CLASSES.iter().zip(&m.hists).map(|(&(id, _), h)| (id, h.buckets.to_vec()));
            let dump = wire::HistDump { classes: rows.collect() };
            wire::encode_response(&Response::HistDump(dump), out);
        }
    }
}

/// Assembles the `(tag, value)` pairs for the `StatsV2` reply from
/// the engine snapshot `m`. The v1 `DUMP` command renders its counter
/// lines from this same list (via [`xar_obs::render_pairs`]), so the
/// wire op and the text endpoint cannot drift apart: a tag added here
/// shows up on both.
fn collect_stats_v2<P: PolicyCore>(ctx: &WorkerCtx<P>, m: &MetricsSnapshot) -> Vec<(u16, u64)> {
    use xar_obs::tags;
    let ev = ctx.tracer.counters();
    let r = Ordering::Relaxed;
    let mut pairs = vec![
        (tags::DECIDES, m.decides),
        (tags::REPORTS, m.reports),
        (tags::REPORT_BATCHES, m.batches),
        (tags::DECIDE_BATCH_FRAMES, m.decide_batches),
        (tags::TO_ARM, m.to_arm),
        (tags::TO_FPGA, m.to_fpga),
        (tags::RECONFIGS, m.reconfigs),
        (tags::LAT_SAMPLES, m.hist(hist_class::DECIDE).count()),
        (tags::DECIDE_P50_NS, m.hist(hist_class::DECIDE).percentile(0.50)),
        (tags::DECIDE_P99_NS, m.hist(hist_class::DECIDE).percentile(0.99)),
        (tags::LIVE_CONNS, ctx.counters.live()),
        (tags::ACCEPTED_CONNS, ctx.counters.accepted.load(r)),
        (tags::REAPED_CONNS, ctx.counters.reaped.load(r)),
        (tags::REJECTED_CONNS, ctx.counters.rejected.load(r)),
        (tags::SHARDS, ctx.engine.shard_count() as u64),
        (tags::WORKERS, ctx.config.workers.max(1) as u64),
        (tags::TRACE_EVENTS, ev.emitted()),
        (tags::TRACE_DROPPED, ev.dropped.load(r)),
        (tags::SLOW_DECIDES, ev.slow_decides.load(r)),
        (tags::BACKPRESSURE_PAUSES, ev.pauses.load(r)),
        (tags::BACKPRESSURE_RESUMES, ev.resumes.load(r)),
        (tags::PROTOCOL_ERRORS, ev.proto_errors.load(r)),
        (tags::DECIDE_BATCH_P50_NS, m.hist(hist_class::DECIDE_BATCH).percentile(0.50)),
        (tags::DECIDE_BATCH_P99_NS, m.hist(hist_class::DECIDE_BATCH).percentile(0.99)),
        (tags::REPORT_BATCH_P50_NS, m.hist(hist_class::REPORT_BATCH).percentile(0.50)),
        (tags::REPORT_BATCH_P99_NS, m.hist(hist_class::REPORT_BATCH).percentile(0.99)),
        (tags::FLUSH_PUBLISH_P50_NS, m.hist(hist_class::FLUSH_PUBLISH).percentile(0.50)),
        (tags::FLUSH_PUBLISH_P99_NS, m.hist(hist_class::FLUSH_PUBLISH).percentile(0.99)),
        (tags::FLUSH_PUBLISHES, ev.flush_publishes.load(r)),
        (tags::FLUSH_ROWS, ev.flush_rows.load(r)),
        (tags::DAEMON_ID, ctx.config.daemon_id as u64),
        (tags::UPTIME_SECS, ctx.started.elapsed().as_secs()),
        (
            tags::SERIES_SLOTS,
            ctx.series.as_ref().map_or(0, |s| s.ring.lock().unwrap().len() as u64),
        ),
        (tags::ACCEPT_THROTTLES, ev.accept_throttles.load(r)),
        (tags::SHED_BUSY, ev.shed_busy.load(r)),
        (tags::QUARANTINES, ev.quarantines.load(r)),
        (tags::SESSIONS_OPENED, ctx.sessions.opened_total()),
        (tags::REPLAYED_BATCHES, ctx.sessions.replayed_total()),
    ];
    // Durability tags ship from every daemon so StatsV2 always covers
    // the full registry; an in-memory daemon reads all-zero.
    let s = ctx.dur.as_ref().map(|d| d.stats()).unwrap_or_default();
    pairs.extend_from_slice(&[
        (tags::WAL_APPENDS, s.wal_appends),
        (tags::WAL_BYTES, s.wal_bytes),
        (tags::SNAPSHOTS_WRITTEN, s.snapshots_written),
        (tags::RECOVERY_REPLAYED_RECORDS, s.recovery_replayed_records),
        (tags::TORN_TAIL_TRUNCATIONS, s.torn_tail_truncations),
        (tags::ACCEPTED_LOCAL_CONNS, ctx.counters.accepted_local.load(r)),
    ]);
    pairs
}

/// `<class>_p50_ns` / `<class>_p99_ns` → (ring histogram index,
/// quantile) for the `SERIES` command.
fn parse_quantile_series(name: &str) -> Option<(usize, f64)> {
    let (base, q) = name
        .strip_suffix("_p50_ns")
        .map(|b| (b, 0.50))
        .or_else(|| name.strip_suffix("_p99_ns").map(|b| (b, 0.99)))?;
    CLASSES.iter().position(|&(_, c)| c == base).map(|i| (i, q))
}

/// Handles buffered complete lines of the legacy v1 text protocol
/// (`DECIDE`/`REPORT`/`TABLE`/`QUIT`, answered with
/// `TARGET`/`OK`/table rows/`ERR`), pausing at the outbuf high-water
/// cap ([`pump`]'s loop resumes once the backlog drains).
fn process_v1<P: PolicyCore>(conn: &mut Conn, ctx: &mut WorkerCtx<P>, slot: usize) {
    let cap = ctx.config.outbuf_high_water;
    // Offset-tracked like process_v2: one drain at the end, no
    // per-line allocation or memmove.
    let mut at = 0;
    let (mut capped, mut overlong) = (false, false);
    while let Some(nl) = conn.inbuf[at..].iter().position(|&b| b == b'\n') {
        if conn.out_pending() > cap {
            capped = true;
            break;
        }
        if nl > wire::MAX_V1_LINE {
            overlong = true;
            break;
        }
        let line_bytes = &conn.inbuf[at..at + nl];
        at += nl + 1;
        let parsed = std::str::from_utf8(line_bytes).ok().and_then(wire::parse_v1_line);
        let Some(req) = parsed else {
            conn.outbuf.extend_from_slice(b"ERR\n");
            if note_proto_error(conn, ctx, slot) {
                conn.inbuf.clear();
                at = 0;
                break;
            }
            continue;
        };
        match req {
            wire::V1Request::Decide { app, kernel, x86_load, kernel_resident } => {
                let d = ctx.handle.decide_obs(
                    &DecideCtx {
                        app,
                        kernel,
                        // Clamped like REPORT's: Algorithm 2 casts the
                        // load to u32, which would wrap 2^32 to 0.
                        x86_load: x86_load.min(u32::MAX as u64) as usize,
                        arm_load: 0,
                        kernel_resident,
                        device_ready: true,
                        now_ns: 0.0,
                    },
                    Some(&mut ctx.tracer),
                );
                // Straight into the outbuf: the v1 fallback allocates
                // no per-reply String.
                wire::v1_decide_reply_into(&d, &mut conn.outbuf);
            }
            wire::V1Request::Report { app, target, func_ms, x86_load } => {
                let x86_load = x86_load.min(u32::MAX as u64) as u32;
                let r = wire::WireReport { app, target, func_ms, x86_load };
                let reply: &[u8] = if ctx.ingest(&[r]).is_ok() { b"OK\n" } else { b"ERR\n" };
                conn.outbuf.extend_from_slice(reply);
            }
            wire::V1Request::Table => {
                for e in ctx.engine.table() {
                    wire::v1_table_row_into(&e.row(), &mut conn.outbuf);
                }
                conn.outbuf.extend_from_slice(b"END\n");
            }
            wire::V1Request::Dump => {
                // Drain this worker's ring first so the event counters
                // and the trace log reflect everything up to this
                // request (other workers' rings drain on their own
                // maintenance ticks).
                ctx.drain_trace();
                let mut text = String::new();
                // One fold of every shard: the counter lines (the same
                // pairs StatsV2 ships, so DUMP covers the wire op by
                // construction), the histograms, the series sample and
                // the shard gauges all render from it.
                let shard_metrics = ctx.engine.metrics();
                let m =
                    shard_metrics.iter().fold(MetricsSnapshot::default(), MetricsSnapshot::merge);
                xar_obs::render_pairs(&collect_stats_v2(ctx, &m), &mut text);
                for (&(_, class), h) in CLASSES.iter().zip(&m.hists) {
                    xar_obs::render_histogram(&format!("xar_{class}_latency_ns"), h, &mut text);
                }
                // Windowed section: sliding-window quantiles and
                // per-second rates from the per-tick series. Absent
                // until the series holds two samples (and entirely
                // when the series layer is disabled) — cumulative
                // lifetime values above are always present.
                ctx.advance_series(Some(&m));
                if let Some(state) = &ctx.series {
                    let ring = state.ring.lock().unwrap();
                    let w = state.ticks_for_secs(DUMP_WINDOW_SECS);
                    for (i, &(_, class)) in CLASSES.iter().enumerate() {
                        if let Some(h) = ring.windowed_hist(i, w) {
                            for (q, qn) in [(0.50, "p50"), (0.99, "p99")] {
                                let name = format!("xar_windowed_{class}_{qn}_ns");
                                xar_obs::render_type(&name, "gauge", &mut text);
                                let _ = writeln!(
                                    &mut text,
                                    "{name}{{window=\"{DUMP_WINDOW_SECS}s\"}} {}",
                                    h.percentile(q)
                                );
                            }
                        }
                    }
                    for (i, name) in SERIES_COUNTERS.iter().enumerate() {
                        if let Some(per_tick) = ring.rate(i, w) {
                            let full = format!("xar_rate_{name}");
                            xar_obs::render_type(&full, "gauge", &mut text);
                            let _ = writeln!(
                                &mut text,
                                "{full}{{window=\"{DUMP_WINDOW_SECS}s\"}} {:.3}",
                                state.per_sec(per_tick)
                            );
                        }
                    }
                }
                xar_obs::render_type("xar_shard_decides", "gauge", &mut text);
                for (i, m) in shard_metrics.iter().enumerate() {
                    xar_obs::render_shard_gauge("shard_decides", i, m.decides, &mut text);
                }
                xar_obs::render_type("xar_shard_reports", "gauge", &mut text);
                for (i, m) in shard_metrics.iter().enumerate() {
                    xar_obs::render_shard_gauge("shard_reports", i, m.reports, &mut text);
                }
                conn.outbuf.extend_from_slice(text.as_bytes());
                conn.outbuf.extend_from_slice(b"END\n");
            }
            wire::V1Request::Trace { n } => {
                ctx.drain_trace();
                let mut text = String::new();
                // An oversized n (the grammar already clamped literals
                // past usize) means "everything the log holds".
                for ev in ctx.trace_log.last(n.min(ctx.config.trace_log_capacity)) {
                    let _ = writeln!(&mut text, "{ev}");
                }
                conn.outbuf.extend_from_slice(text.as_bytes());
                conn.outbuf.extend_from_slice(b"END\n");
            }
            wire::V1Request::Series { name, secs } => {
                ctx.advance_series(None);
                let rows = ctx.series.as_ref().and_then(|state| {
                    let ring = state.ring.lock().unwrap();
                    let w = state.ticks_for_secs(secs);
                    if let Some(i) = SERIES_COUNTERS.iter().position(|&c| c == name) {
                        Some(ring.deltas(i, w))
                    } else {
                        parse_quantile_series(name).map(|(i, q)| ring.quantile_series(i, w, q))
                    }
                });
                match rows {
                    Some(rows) => {
                        let mut text = String::new();
                        for (tick, v) in rows {
                            let _ = writeln!(&mut text, "{tick} {v}");
                        }
                        conn.outbuf.extend_from_slice(text.as_bytes());
                        conn.outbuf.extend_from_slice(b"END\n");
                    }
                    // Unknown series name, or the series layer is
                    // disabled.
                    None => conn.outbuf.extend_from_slice(b"ERR\n"),
                }
            }
            wire::V1Request::Rate { name } => {
                ctx.advance_series(None);
                let rate = ctx.series.as_ref().and_then(|state| {
                    let i = SERIES_COUNTERS.iter().position(|&c| c == name)?;
                    let per_tick =
                        state.ring.lock().unwrap().rate(i, state.ticks_for_secs(RATE_WINDOW_SECS));
                    // A series with fewer than two samples yet reads
                    // as a zero rate, not an error.
                    Some(per_tick.map_or(0.0, |r| state.per_sec(r)))
                });
                match rate {
                    Some(r) => {
                        let mut text = String::new();
                        let _ = writeln!(&mut text, "xar_rate_{name} {r:.3}");
                        conn.outbuf.extend_from_slice(text.as_bytes());
                        conn.outbuf.extend_from_slice(b"END\n");
                    }
                    None => conn.outbuf.extend_from_slice(b"ERR\n"),
                }
            }
            wire::V1Request::Quit => {
                conn.closed = true;
                // Discard anything pipelined after QUIT: the client
                // ended the session, so later lines must not execute
                // (the seed server dropped them too).
                conn.inbuf.clear();
                at = 0;
                break;
            }
        }
    }
    conn.inbuf.drain(..at);
    // A line over the cap is refused whether its newline came in the
    // same read or has not come yet: a v1 peer streaming bytes with no
    // newline must not grow the buffer without bound. (The unterminated
    // case is skipped while capped: the backlog is then
    // complete-but-unprocessed lines, not one runaway line.)
    if overlong || (!capped && conn.inbuf.len() > wire::MAX_V1_LINE) {
        conn.outbuf.extend_from_slice(b"ERR\n");
        note_proto_error(conn, ctx, slot);
        conn.closed = true;
        // Discard the runaway line: re-scanning it on a later pump
        // would emit the diagnostic again.
        conn.inbuf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `flush_interval = 0` must not take the durability heartbeat,
    /// the trace drain or the series down with the sweep, and an
    /// `interval:MS` fsync shorter than the tick bounds it.
    #[test]
    fn maintenance_tick_outlives_a_zero_flush_interval() {
        let ms = Duration::from_millis;
        let dur = |fsync| Some(DurabilityConfig { fsync, ..DurabilityConfig::at("unused") });
        let cfg = |flush_interval, durability| ServerConfig {
            flush_interval,
            durability,
            ..ServerConfig::default()
        };
        assert_eq!(maint_period(&cfg(ms(40), None)), Some(ms(40)));
        assert_eq!(maint_period(&cfg(Duration::ZERO, None)), Some(MAINT_PERIOD));
        let bare = ServerConfig { trace: false, series_tick: Duration::ZERO, ..cfg(ms(0), None) };
        assert_eq!(maint_period(&bare), None, "nothing rides the tick");
        let journaling = ServerConfig { durability: dur(FsyncPolicy::Always), ..bare };
        assert_eq!(maint_period(&journaling), Some(MAINT_PERIOD));
        assert_eq!(maint_period(&cfg(ms(40), dur(FsyncPolicy::IntervalMs(5)))), Some(ms(5)));
        assert_eq!(maint_period(&cfg(ms(0), dur(FsyncPolicy::IntervalMs(5)))), Some(ms(5)));
        assert_eq!(maint_period(&cfg(ms(40), dur(FsyncPolicy::IntervalMs(500)))), Some(ms(40)));
    }

    /// Bans from addresses that never come back expire from the list
    /// the next time anyone is banned, not only when they reconnect.
    #[test]
    fn a_ban_prunes_the_expired_ones() {
        let q = Quarantine::default();
        for i in 0..1000u32 {
            q.ban(IpAddr::from(i.to_be_bytes()), Duration::ZERO);
        }
        q.ban(IpAddr::from([10, 0, 0, 1]), QUARANTINE);
        assert_eq!(q.bans.lock().unwrap().len(), 1, "expired bans outlived a new one");
        assert!(q.is_banned(IpAddr::from([10, 0, 0, 1])));
    }

    /// A reader that serves its data in the largest chunks the caller's
    /// buffer allows, then a scripted tail condition — deterministic
    /// where a real socket's read sizes are not.
    struct ScriptedReader {
        data: Vec<u8>,
        pos: usize,
        /// What to answer once the data runs out.
        tail: Tail,
    }

    enum Tail {
        WouldBlock,
        Eof,
        Error,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let rest = &self.data[self.pos..];
            if rest.is_empty() {
                return match self.tail {
                    Tail::WouldBlock => Err(ErrorKind::WouldBlock.into()),
                    Tail::Eof => Ok(0),
                    Tail::Error => Err(std::io::Error::other("scripted failure")),
                };
            }
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_into_appends_past_existing_bytes() {
        let mut inbuf = b"already".to_vec();
        let mut src =
            ScriptedReader { data: b" buffered".to_vec(), pos: 0, tail: Tail::WouldBlock };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Drained(9));
        assert_eq!(inbuf, b"already buffered");
    }

    /// The short-read heuristic regression the direct-into-inbuf change
    /// invites: a read that exactly fills the spare capacity must NOT
    /// be treated as socket-drained. The scripted reader always fills
    /// the whole offered buffer, so every iteration before the last is
    /// an exact fill; a buggy early return would strand everything
    /// after the first `READ_CHUNK` bytes.
    #[test]
    fn exact_spare_capacity_fill_is_not_treated_as_drained() {
        let total = 3 * READ_CHUNK + READ_CHUNK / 2;
        let data: Vec<u8> = (0..total).map(|i| i as u8).collect();
        let mut inbuf = Vec::new();
        let mut src = ScriptedReader { data: data.clone(), pos: 0, tail: Tail::WouldBlock };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Drained(total as u64));
        assert_eq!(inbuf, data, "bytes past an exact-fill boundary were stranded");
    }

    /// Same boundary with the source ending *exactly* at the spare
    /// capacity: the loop must come back for the would-block (not
    /// misreport data) and still deliver every byte.
    #[test]
    fn source_ending_exactly_on_the_boundary_drains_fully() {
        // Capacity 0 on entry: read_into grows to exactly READ_CHUNK,
        // which the source then fills exactly.
        let mut inbuf = Vec::new();
        let data: Vec<u8> = (0..READ_CHUNK).map(|i| (i * 7) as u8).collect();
        let mut src = ScriptedReader { data: data.clone(), pos: 0, tail: Tail::WouldBlock };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Drained(READ_CHUNK as u64));
        assert_eq!(inbuf, data);
    }

    /// A short read already proves the source drained, so EOF/error
    /// tails behind one are left for the next readiness event; they
    /// are observed directly only when the data ends on an exact-fill
    /// boundary (or there was nothing to read at all).
    #[test]
    fn eof_and_errors_on_the_boundary_still_deliver_prior_bytes() {
        let mut inbuf = Vec::new();
        let data: Vec<u8> = vec![7; READ_CHUNK];
        let mut src = ScriptedReader { data: data.clone(), pos: 0, tail: Tail::Eof };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Eof(READ_CHUNK as u64));
        assert_eq!(inbuf, data);
        let mut inbuf = Vec::new();
        let mut src = ScriptedReader { data: data.clone(), pos: 0, tail: Tail::Error };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Failed(READ_CHUNK as u64));
        assert_eq!(inbuf, data);
        let mut inbuf = b"kept".to_vec();
        let mut src = ScriptedReader { data: Vec::new(), pos: 0, tail: Tail::Eof };
        assert_eq!(read_into(&mut inbuf, &mut src), ReadOutcome::Eof(0));
        assert_eq!(inbuf, b"kept");
    }
}
