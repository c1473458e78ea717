//! The v2 scheduler client. It is blocking with one request in flight
//! at a time — exactly what the instrumentation shim linked into each
//! application binary needs. High-rate callers amortize the per-call
//! protocol overhead with [`V2Client::decide_batch`]: up to
//! [`wire::MAX_DECIDE_BATCH`] placement queries per frame, one write
//! and one read per chunk.
//!
//! [`ResilientClient`] wraps the blocking client for callers that must
//! survive daemon restarts and flaky networks: connect/read/write
//! deadlines, automatic reconnect with seeded decorrelated-jitter
//! backoff ([`crate::backoff`]), `R_BUSY` overload answers obeyed as
//! retry hints, and **exactly-once report replay** — every report
//! batch rides a `(session, seq)` stamp the daemon dedups against its
//! [`crate::session`] high-water marks, so a batch retried because the
//! ack was lost is acknowledged without being counted twice.

use crate::backoff::Backoff;
use crate::engine::TableEntry;
use crate::transport::{self, Stream};
use crate::wire::{self, Request, Response, WireQuery, WireReport};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use xar_desim::{Decision, Target};

/// An owned completion report: what [`V2Client::report_batch`] and
/// [`ResilientClient::report_batch`] take slices of, so a caller builds
/// a batch once and a resilient client can resend a chunk of it after a
/// reconnect. The app name is an `Arc<str>` so a caller reporting the
/// same apps again and again can share one allocation per name.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOwned {
    /// Application name.
    pub app: Arc<str>,
    /// Where the call ran.
    pub target: Target,
    /// Observed function time (ms).
    pub func_ms: f64,
    /// x86 load at completion.
    pub x86_load: u32,
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// The error for a reply that is not the answer the caller asked for:
/// a daemon refusal (`R_ERR`), an overload shed (`R_BUSY`, whichever
/// door it answers), or a protocol violation.
fn refused(reply: Response<'_>) -> std::io::Error {
    match reply {
        Response::Busy { retry_after_ms } => {
            proto_err(format!("daemon shedding load (retry after {retry_after_ms}ms)"))
        }
        Response::Err(msg) => proto_err(msg),
        other => proto_err(format!("unexpected reply {other:?}")),
    }
}

/// How many leading `items` ride one frame: at most `max`, and at most
/// half of [`wire::MAX_FRAME`] of elements encoded at `len` bytes each,
/// so pathological name lengths cannot push a frame past the protocol
/// cap. Never zero for a non-empty input: an item over the budget goes
/// alone (an element is at most two u16-length strings plus a few
/// bytes, far below `MAX_FRAME`).
fn fit<T>(items: &[T], max: usize, len: impl Fn(&T) -> usize) -> usize {
    const FRAME_BUDGET: usize = wire::MAX_FRAME / 2;
    let (mut n, mut bytes) = (0, 0);
    for item in items.iter().take(max) {
        bytes += len(item);
        if n > 0 && bytes > FRAME_BUDGET {
            break;
        }
        n += 1;
    }
    n
}

/// Refuses a name longer than [`wire::MAX_NAME`] before a byte is
/// written: its u16 length prefix would wrap, the daemon would mis-frame
/// the rest of the request and count a protocol error against this
/// peer's address. Refused here, the connection stays in step.
fn check_names<'a>(names: impl IntoIterator<Item = &'a str>) -> std::io::Result<()> {
    match names.into_iter().find(|n| n.len() > wire::MAX_NAME) {
        None => Ok(()),
        Some(n) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a name of {} bytes exceeds the wire's {} byte limit", n.len(), wire::MAX_NAME),
        )),
    }
}

fn report_len(r: &ReportOwned) -> usize {
    wire::encoded_report_len(r.app.len())
}

fn wire_report(r: &ReportOwned) -> WireReport<'_> {
    WireReport { app: &r.app, target: r.target, func_ms: r.func_ms, x86_load: r.x86_load }
}

/// A workload request's typed outcome against a daemon that may shed
/// under overload: served, or refused with `R_BUSY` and a retry hint.
/// Surfaced as data (not an error) so retry loops can obey the hint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Served<T> {
    /// The daemon served the request.
    Done(T),
    /// The daemon shed the request; retry no sooner than the hint.
    Busy {
        /// Minimum client-side wait before retrying, milliseconds.
        retry_after_ms: u32,
    },
}

/// A scheduler client speaking protocol v2.
///
/// Every door that sends a name (`decide*`, `report*`) refuses one
/// longer than [`wire::MAX_NAME`] bytes with
/// [`std::io::ErrorKind::InvalidInput`] before writing anything, so
/// the connection stays usable.
#[derive(Debug)]
pub struct V2Client {
    stream: Stream,
    send: Vec<u8>,
    recv: Vec<u8>,
    /// Bytes at the head of `recv` holding the previous roundtrip's
    /// reply frame; dropped at the start of the next roundtrip. Any
    /// tail beyond it (bytes that arrived coalesced with the reply)
    /// is preserved, not discarded.
    consumed: usize,
}

impl V2Client {
    /// Connects and performs the version handshake. A *loopback*
    /// `addr` names a daemon on this host: its local socket
    /// ([`transport::local_name`]) is dialed first and TCP only if that
    /// fails, so the same call reaches a proxy, a remote or TCP-only
    /// daemon exactly as before.
    ///
    /// # Errors
    ///
    /// Socket errors, or a handshake mismatch (e.g. the peer is a v1
    /// text server).
    pub fn connect(addr: SocketAddr) -> std::io::Result<V2Client> {
        V2Client::connect_with(addr, None, None)
    }

    /// [`V2Client::connect`] with deadlines: a bound on the TCP
    /// connect (the local dial never blocks, so it needs none), and
    /// read/write timeouts left armed on the socket for the client's
    /// lifetime so a wedged daemon surfaces as a timed-out I/O error
    /// instead of a hang. `None` keeps the unbounded blocking behavior.
    ///
    /// # Errors
    ///
    /// Socket errors (including deadline expiry), or a handshake
    /// mismatch.
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Option<Duration>,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<V2Client> {
        let mut stream = transport::dial(addr, connect_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        stream.write_all(&wire::handshake(wire::VERSION))?;
        // A v1 text server would sit in read_line waiting for a
        // newline our handshake never sends; bound the wait so a
        // version mismatch is an error, not a mutual deadlock.
        stream.set_read_timeout(Some(io_timeout.unwrap_or(Duration::from_secs(5))))?;
        let mut hs = [0u8; wire::HANDSHAKE_LEN];
        stream.read_exact(&mut hs).map_err(|e| {
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                proto_err("no v2 handshake from server (legacy v1 text server?)")
            } else {
                e
            }
        })?;
        stream.set_read_timeout(io_timeout)?;
        let version = wire::parse_handshake(&hs)?;
        if version != wire::VERSION {
            return Err(proto_err(format!("server speaks v{version}, want v{}", wire::VERSION)));
        }
        Ok(V2Client {
            stream,
            send: Vec::with_capacity(256),
            recv: Vec::with_capacity(256),
            consumed: 0,
        })
    }

    /// Writes the request frame `encode` appends to the send buffer and
    /// decodes one reply frame out of the receive buffer. Both buffers
    /// are reused across calls; bytes that arrived coalesced beyond the
    /// previous reply (a fast server's next frame, or its prefix) stay
    /// buffered and are consumed here before touching the socket.
    fn exchange(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<Response<'_>> {
        self.send.clear();
        encode(&mut self.send);
        self.stream.write_all(&self.send)?;
        self.recv.drain(..self.consumed);
        self.consumed = 0;
        let mut scratch = [0u8; 4096];
        let range = loop {
            if let Some((total, range)) = wire::frame_in(&self.recv)? {
                self.consumed = total;
                break range;
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-reply",
                    ))
                }
                Ok(n) => self.recv.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        Ok(wire::decode_response(&self.recv[range])?)
    }

    /// [`V2Client::exchange`] for a request the generic encoder writes.
    fn call(&mut self, req: &Request<'_>) -> std::io::Result<Response<'_>> {
        self.exchange(|out| wire::encode_request(req, out))
    }

    /// Asks where the next selected-function call should run, with the
    /// common-case context: no ARM load worth reporting and a device
    /// past any reconfiguration. Use [`V2Client::decide_with`] when
    /// either is not true — this convenience must not be the only
    /// door, or the server decides on fabricated context.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn decide(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: u32,
        kernel_resident: bool,
    ) -> std::io::Result<Decision> {
        self.decide_with(app, kernel, x86_load, 0, kernel_resident, true)
    }

    /// Full-context placement query carrying every `Decide` field the
    /// wire protocol has: ARM load and device readiness included, so a
    /// client can say "the FPGA is still reconfiguring" instead of
    /// having `true` fabricated on its behalf.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn decide_with(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: u32,
        arm_load: u32,
        kernel_resident: bool,
        device_ready: bool,
    ) -> std::io::Result<Decision> {
        match self.decide_or_busy(app, kernel, x86_load, arm_load, kernel_resident, device_ready)? {
            Served::Done(d) => Ok(d),
            Served::Busy { retry_after_ms } => Err(refused(Response::Busy { retry_after_ms })),
        }
    }

    /// [`V2Client::decide_with`] with the daemon's overload answer
    /// surfaced as data: an `R_BUSY` reply returns
    /// [`Served::Busy`] instead of an error, so a retry loop can obey
    /// the hint (see [`ResilientClient`]).
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn decide_or_busy(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: u32,
        arm_load: u32,
        kernel_resident: bool,
        device_ready: bool,
    ) -> std::io::Result<Served<Decision>> {
        check_names([app, kernel])?;
        let req =
            Request::Decide { app, kernel, x86_load, arm_load, kernel_resident, device_ready };
        match self.call(&req)? {
            Response::Decide { target, reconfigure } => {
                Ok(Served::Done(Decision { target, reconfigure }))
            }
            Response::Busy { retry_after_ms } => Ok(Served::Busy { retry_after_ms }),
            other => Err(refused(other)),
        }
    }

    /// Registers (or resumes) an exactly-once report session, returning
    /// the daemon's acked high-water seq for it — 0 for a fresh
    /// session, the last acknowledged [`V2Client::report_batch_seq`]
    /// stamp for a resumed one. Session ids are caller-chosen and must
    /// be nonzero; reusing one across reconnects is what makes replay
    /// dedup work.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or a daemon refusal (id 0, or its
    /// session table is full).
    pub fn hello_session(&mut self, session: u64) -> std::io::Result<u64> {
        match self.call(&Request::HelloSession { session })? {
            Response::Session { last_seq } => Ok(last_seq),
            other => Err(refused(other)),
        }
    }

    /// Ships one seq-stamped report batch for exactly-once ingestion.
    /// `Done(n)` with `n > 0` means the daemon ingested the batch
    /// fresh; `Done(0)` for a nonempty batch means the stamp was at or
    /// below the session's high-water mark — a replay the daemon
    /// acked without ingesting again. The caller owns seq assignment
    /// (strictly increasing per session) and must resend the *same*
    /// stamp when retrying, or dedup breaks.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, or a daemon refusal (session id 0, or
    /// its session table is full).
    pub fn report_batch_seq(
        &mut self,
        session: u64,
        seq: u64,
        reports: &[WireReport<'_>],
    ) -> std::io::Result<Served<u32>> {
        check_names(reports.iter().map(|r| r.app))?;
        match self.exchange(|out| wire::encode_batch_report_seq(session, seq, reports, out))? {
            Response::Ack(n) => Ok(Served::Done(n)),
            Response::Busy { retry_after_ms } => Ok(Served::Busy { retry_after_ms }),
            other => Err(refused(other)),
        }
    }

    /// Batched placement queries: up to [`wire::MAX_DECIDE_BATCH`]
    /// queries ride one frame (one write, one read), amortizing the
    /// framing, syscall, and socket round-trip across the batch —
    /// larger inputs are chunked transparently, by count and by a
    /// conservative byte budget so pathological name lengths cannot
    /// push a frame past the protocol cap. Decisions come back in
    /// query order and are bit-identical to issuing the queries one by
    /// one.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors, including a reply whose decision count
    /// disagrees with the chunk sent.
    pub fn decide_batch(&mut self, queries: &[WireQuery<'_>]) -> std::io::Result<Vec<Decision>> {
        check_names(queries.iter().flat_map(|q| [q.app, q.kernel]))?;
        let mut out = Vec::with_capacity(queries.len());
        let mut rest = queries;
        while !rest.is_empty() {
            let n = fit(rest, wire::MAX_DECIDE_BATCH, |q| {
                wire::encoded_query_len(q.app.len(), q.kernel.len())
            });
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            // Encoded straight from the borrowed slice: no owned
            // per-chunk Vec<WireQuery> on the amortized path.
            match self.exchange(|buf| wire::encode_decide_batch(chunk, buf))? {
                Response::DecideBatch(ds) if ds.len() == chunk.len() => out.extend(ds),
                Response::DecideBatch(ds) => {
                    return Err(proto_err(format!(
                        "decide batch reply carried {} decisions for {} queries",
                        ds.len(),
                        chunk.len()
                    )))
                }
                other => return Err(refused(other)),
            }
        }
        Ok(out)
    }

    /// Reports one observed execution: a convenience over a one-report
    /// `BatchReport` frame.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn report(
        &mut self,
        app: &str,
        target: Target,
        func_ms: f64,
        x86_load: u32,
    ) -> std::io::Result<()> {
        check_names([app])?;
        let report = WireReport { app, target, func_ms, x86_load };
        match self.call(&Request::BatchReport(vec![report]))? {
            Response::Ack(1) => Ok(()),
            other => Err(refused(other)),
        }
    }

    /// Reports many observed executions, batched into as few frames as
    /// the protocol's u16 count field and frame-size cap allow;
    /// returns the total count the server accepted.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn report_batch(&mut self, reports: &[ReportOwned]) -> std::io::Result<u32> {
        check_names(reports.iter().map(|r| &*r.app))?;
        let mut accepted = 0u32;
        let mut rest = reports;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(fit(rest, wire::MAX_BATCH, report_len));
            rest = tail;
            match self.call(&Request::BatchReport(chunk.iter().map(wire_report).collect()))? {
                Response::Ack(n) => accepted += n,
                other => return Err(refused(other)),
            }
        }
        Ok(accepted)
    }

    /// Fetches the server's threshold table.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn fetch_table(&mut self) -> std::io::Result<Vec<TableEntry>> {
        match self.call(&Request::Table)? {
            Response::Table(entries) => Ok(entries.into_iter().map(TableEntry::from).collect()),
            other => Err(refused(other)),
        }
    }

    /// Liveness probe; echoes `nonce`.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn ping(&mut self, nonce: u64) -> std::io::Result<u64> {
        match self.call(&Request::Ping(nonce))? {
            Response::Pong(echo) => Ok(echo),
            other => Err(refused(other)),
        }
    }

    /// Fetches the daemon's statistics: tagged `(id, value)` pairs
    /// (see `xar_obs::tags` for the registry) covering the engine
    /// metric totals, the connection lifecycle and everything since.
    /// Servers extend the set freely — tags this client build does not
    /// know are preserved in the returned pairs rather than rejected.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn stats_v2(&mut self) -> std::io::Result<wire::StatsV2> {
        match self.call(&Request::StatsV2)? {
            Response::StatsV2(s) => Ok(s),
            other => Err(refused(other)),
        }
    }

    /// Fetches the daemon's per-op-class latency histogram buckets
    /// (see `wire::hist_class` for the class registry). Rows are
    /// self-describing, so classes this client build does not know are
    /// preserved in the returned dump rather than rejected — and the
    /// raw bucket counts merge across daemons bucket-exactly, which is
    /// what fleet aggregators fold on.
    ///
    /// # Errors
    ///
    /// Socket/protocol errors.
    pub fn hist_dump(&mut self) -> std::io::Result<wire::HistDump> {
        match self.call(&Request::HistDump)? {
            Response::HistDump(h) => Ok(h),
            other => Err(refused(other)),
        }
    }
}

/// Tuning for [`ResilientClient`]: deadlines, retry budget, backoff
/// shape, and the exactly-once session identity.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Exactly-once report-session id. Must be nonzero to use
    /// [`ResilientClient::report_batch`]; reusing the id across client
    /// restarts resumes the session's dedup marks. Unique per logical
    /// reporter — two clients sharing an id would dedup each other's
    /// batches.
    pub session: u64,
    /// Bound on each TCP connect attempt.
    pub connect_timeout: Duration,
    /// Read/write deadline armed on the socket for the connection's
    /// lifetime: a wedged daemon surfaces as a timed-out I/O error
    /// (and a reconnect), not a hang.
    pub io_timeout: Duration,
    /// First reconnect/retry delay; also the floor of every later one.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the jittered backoff, so a test replays the exact
    /// delay sequence. Fleets should vary it per client (e.g. from the
    /// session id) to decorrelate reconnect stampedes.
    pub backoff_seed: u64,
    /// Retries per operation (beyond the first attempt) before the
    /// last error is returned. Reconnects and `R_BUSY` answers both
    /// count against it.
    pub max_retries: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            session: 0,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            backoff_seed: 0,
            max_retries: 8,
        }
    }
}

/// A [`V2Client`] wrapper that survives daemon restarts, connection
/// resets, and overload shedding.
///
/// * Every operation runs under the config's retry budget: on an I/O
///   error the connection is dropped and re-established (with
///   re-handshake and session resync) after a seeded
///   decorrelated-jitter [`Backoff`] delay; on an `R_BUSY` answer the
///   daemon's retry hint is obeyed as the floor of that delay.
/// * Decides and reads are **pure** server-side, so retrying them
///   blindly is safe.
/// * Report batches are **exactly-once**: each batch is stamped with
///   `(session, seq)` and a retry resends the *same* stamp, so a batch
///   whose ack was lost mid-flight is deduped by the daemon's
///   [`crate::session`] high-water mark instead of double-counted.
///   `Ack(0)` for a nonempty batch is that dedup, tallied in
///   [`ResilientClient::deduped_batches`].
/// * A name longer than [`wire::MAX_NAME`] bytes is refused with
///   [`std::io::ErrorKind::InvalidInput`] up front, never retried.
///
/// Construction is lazy — no I/O happens until the first operation, so
/// a client may be built while its daemon is still coming up.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    config: ResilientConfig,
    inner: Option<V2Client>,
    backoff: Backoff,
    /// Next unused report-batch stamp (seq 0 is never fresh).
    next_seq: u64,
    /// Connections successfully established (first connect included).
    connects: u64,
    /// Nonempty batches the daemon answered `Ack(0)` — replays it had
    /// already ingested.
    deduped: u64,
    /// `R_BUSY` answers absorbed (each cost one retry).
    busy: u64,
}

impl ResilientClient {
    /// A lazy client for the daemon at `addr`; connects on first use.
    pub fn new(addr: SocketAddr, config: ResilientConfig) -> ResilientClient {
        ResilientClient {
            addr,
            config,
            inner: None,
            backoff: Backoff::new(config.backoff_base, config.backoff_cap, config.backoff_seed),
            next_seq: 1,
            connects: 0,
            deduped: 0,
            busy: 0,
        }
    }

    /// Connects (with deadlines) and resyncs the report session if one
    /// is configured: the daemon's acked high-water mark fast-forwards
    /// `next_seq` when this process resumes a session an earlier
    /// incarnation advanced further than we knew.
    fn ensure_connected(&mut self) -> std::io::Result<&mut V2Client> {
        if self.inner.is_none() {
            let mut c = V2Client::connect_with(
                self.addr,
                Some(self.config.connect_timeout),
                Some(self.config.io_timeout),
            )?;
            if self.config.session != 0 {
                let last = c.hello_session(self.config.session)?;
                if self.next_seq <= last {
                    self.next_seq = last + 1;
                }
            }
            self.connects += 1;
            self.inner = Some(c);
        }
        Ok(self.inner.as_mut().expect("just connected"))
    }

    /// Runs `op` under the retry budget: reconnect-and-retry on I/O
    /// errors, hint-floored backoff on `R_BUSY`. `op` must be safe to
    /// repeat — pure reads, or a seq-stamped batch whose replay the
    /// daemon dedups.
    fn with_retries<T>(
        &mut self,
        op: &mut dyn FnMut(&mut V2Client) -> std::io::Result<Served<T>>,
    ) -> std::io::Result<T> {
        let mut attempts = 0u32;
        loop {
            let served = match self.ensure_connected() {
                Ok(c) => op(c),
                Err(e) => Err(e),
            };
            let delay = match served {
                Ok(Served::Done(v)) => {
                    self.backoff.reset();
                    return Ok(v);
                }
                Ok(Served::Busy { retry_after_ms }) => {
                    self.busy += 1;
                    if attempts >= self.config.max_retries {
                        return Err(proto_err(
                            "daemon kept shedding (R_BUSY) past the retry budget",
                        ));
                    }
                    // The hint is a floor under the jittered delay, so
                    // repeated Busy answers still back off.
                    self.backoff.next_delay().max(Duration::from_millis(retry_after_ms as u64))
                }
                Err(e) => {
                    // The connection's reply stream is indeterminate
                    // after any mid-operation failure: drop it and
                    // re-handshake rather than guess.
                    self.inner = None;
                    if attempts >= self.config.max_retries {
                        return Err(e);
                    }
                    self.backoff.next_delay()
                }
            };
            attempts += 1;
            std::thread::sleep(delay);
        }
    }

    /// Placement query with the common-case context (see
    /// [`V2Client::decide`]); retried transparently — decides are pure.
    ///
    /// # Errors
    ///
    /// The last socket/protocol error once the retry budget is spent.
    pub fn decide(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: u32,
        kernel_resident: bool,
    ) -> std::io::Result<Decision> {
        self.decide_with(app, kernel, x86_load, 0, kernel_resident, true)
    }

    /// Full-context placement query (see [`V2Client::decide_with`]);
    /// retried transparently — decides are pure.
    ///
    /// # Errors
    ///
    /// The last socket/protocol error once the retry budget is spent.
    pub fn decide_with(
        &mut self,
        app: &str,
        kernel: &str,
        x86_load: u32,
        arm_load: u32,
        kernel_resident: bool,
        device_ready: bool,
    ) -> std::io::Result<Decision> {
        // Refused once, not retried: no reconnect makes the name fit.
        check_names([app, kernel])?;
        self.with_retries(&mut |c| {
            c.decide_or_busy(app, kernel, x86_load, arm_load, kernel_resident, device_ready)
        })
    }

    /// Reports observed executions with exactly-once replay: chunks
    /// ride seq-stamped frames, a failed chunk is resent under the
    /// same stamp after reconnect, and a daemon-side dedup (`Ack(0)`)
    /// still counts the chunk as accepted — it was ingested by an
    /// earlier attempt. Returns the total accepted count.
    ///
    /// # Errors
    ///
    /// A nonzero session id is required (refused up front otherwise);
    /// then the last socket/protocol error once the retry budget is
    /// spent. Chunks acked before such a failure stay acked — the
    /// daemon's marks make a later retry of the failed chunk safe.
    pub fn report_batch(&mut self, reports: &[ReportOwned]) -> std::io::Result<u32> {
        let session = self.config.session;
        if session == 0 {
            return Err(proto_err("exactly-once reporting needs a nonzero config.session"));
        }
        check_names(reports.iter().map(|r| &*r.app))?;
        // Stamps must be drawn *after* the session resync a connect
        // performs: a fresh client resuming a durable session learns
        // the daemon's high-water mark inside `ensure_connected`, and
        // a stamp chosen before that can collide with a previous
        // incarnation's batch — the daemon acks the stale stamp as a
        // replay (`Ack(0)`) and this new batch silently vanishes.
        // Force the first connect (under the normal retry budget)
        // before reading `next_seq`. Mid-loop reconnects are safe: a
        // resync can only overtake a stamp the daemon already acked,
        // for which the replay answer is the correct dedup.
        self.with_retries(&mut |_| Ok(Served::Done(())))?;
        let mut accepted = 0u32;
        let mut rest = reports;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(fit(rest, wire::MAX_BATCH, report_len));
            rest = tail;
            let chunk: Vec<WireReport<'_>> = chunk.iter().map(wire_report).collect();
            let seq = self.next_seq;
            let n = self.with_retries(&mut |c| c.report_batch_seq(session, seq, &chunk))?;
            // Acked fresh or replayed — either way the daemon's mark
            // now covers `seq` (resync in `ensure_connected` may have
            // pushed `next_seq` past it already).
            self.next_seq = self.next_seq.max(seq + 1);
            if n == 0 {
                self.deduped += 1;
                accepted += chunk.len() as u32;
            } else {
                accepted += n;
            }
        }
        Ok(accepted)
    }

    /// Fetches the daemon's threshold table; retried transparently.
    ///
    /// # Errors
    ///
    /// The last socket/protocol error once the retry budget is spent.
    pub fn fetch_table(&mut self) -> std::io::Result<Vec<TableEntry>> {
        self.with_retries(&mut |c| c.fetch_table().map(Served::Done))
    }

    /// Liveness probe; retried transparently.
    ///
    /// # Errors
    ///
    /// The last socket/protocol error once the retry budget is spent.
    pub fn ping(&mut self, nonce: u64) -> std::io::Result<u64> {
        self.with_retries(&mut |c| c.ping(nonce).map(Served::Done))
    }

    /// Fetches the self-describing statistics set; retried
    /// transparently.
    ///
    /// # Errors
    ///
    /// The last socket/protocol error once the retry budget is spent.
    pub fn stats_v2(&mut self) -> std::io::Result<wire::StatsV2> {
        self.with_retries(&mut |c| c.stats_v2().map(Served::Done))
    }

    /// The configured exactly-once session id (0 = none).
    pub fn session(&self) -> u64 {
        self.config.session
    }

    /// Reconnects performed (connections established beyond the
    /// first).
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Nonempty report batches the daemon acked as replays (`Ack(0)`)
    /// instead of ingesting twice. Summed across a fleet this equals
    /// the daemon's `replayed_batches` StatsV2 tag.
    pub fn deduped_batches(&self) -> u64 {
        self.deduped
    }

    /// `R_BUSY` overload answers absorbed and retried.
    pub fn busy_answers(&self) -> u64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Reads one complete v2 frame from a blocking stream.
    fn read_frame(s: &mut TcpStream, buf: &mut Vec<u8>) -> Vec<u8> {
        let mut scratch = [0u8; 1024];
        loop {
            if let Some((total, _)) = wire::frame_in(buf).unwrap() {
                return buf.drain(..total).collect();
            }
            let n = s.read(&mut scratch).unwrap();
            assert!(n > 0, "peer closed mid-frame");
            buf.extend_from_slice(&scratch[..n]);
        }
    }

    /// A reply that arrives coalesced with the next frame (here: the
    /// whole next reply) must not be discarded — the old
    /// `recv.clear()` silently dropped the tail in release builds and
    /// panicked a debug_assert in debug builds.
    #[test]
    fn coalesced_reply_tail_is_preserved_across_roundtrips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut hs = [0u8; wire::HANDSHAKE_LEN];
            s.read_exact(&mut hs).unwrap();
            s.write_all(&wire::handshake(wire::VERSION)).unwrap();
            let mut buf = Vec::new();
            let first = read_frame(&mut s, &mut buf);
            assert_eq!(
                wire::decode_request(&first[4..]).unwrap(),
                Request::Ping(1),
                "scripted server expects ping(1) first"
            );
            // Answer ping(1) and ping(2) in ONE write: the client sees
            // pong(2) arrive coalesced behind pong(1).
            let mut out = Vec::new();
            wire::encode_response(&Response::Pong(1), &mut out);
            wire::encode_response(&Response::Pong(2), &mut out);
            s.write_all(&out).unwrap();
            // Absorb the second ping (it gets the pre-sent pong), then
            // hold the socket open until the client is done with it.
            let second = read_frame(&mut s, &mut buf);
            assert_eq!(wire::decode_request(&second[4..]).unwrap(), Request::Ping(2));
            let _ = s.read(&mut [0u8; 8]); // EOF when the client drops
        });
        let mut c = V2Client::connect(addr).unwrap();
        assert_eq!(c.ping(1).unwrap(), 1);
        assert_eq!(c.ping(2).unwrap(), 2, "coalesced tail was discarded");
        drop(c);
        server.join().unwrap();
    }

    /// Completes the server half of the v2 handshake on `s`.
    fn serve_handshake(s: &mut TcpStream) {
        let mut hs = [0u8; wire::HANDSHAKE_LEN];
        s.read_exact(&mut hs).unwrap();
        s.write_all(&wire::handshake(wire::VERSION)).unwrap();
    }

    fn reply(s: &mut TcpStream, resp: &Response<'_>) {
        let mut out = Vec::new();
        wire::encode_response(resp, &mut out);
        s.write_all(&out).unwrap();
    }

    /// The exactly-once contract end to end against a scripted daemon:
    /// the first connection dies after receiving the seq-1 batch but
    /// before acking (the client cannot tell "request lost" from "ack
    /// lost"); the reconnect resumes the session, replays the same
    /// stamp, and the daemon's `Ack(0)` is counted as a dedup — not a
    /// second ingestion, not an error.
    #[test]
    fn resilient_client_replays_pending_batch_exactly_once_after_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Conn 1: fresh session, swallow the batch, die unacked.
            let (mut s, _) = listener.accept().unwrap();
            serve_handshake(&mut s);
            let mut buf = Vec::new();
            let hello = read_frame(&mut s, &mut buf);
            assert_eq!(
                wire::decode_request(&hello[4..]).unwrap(),
                Request::HelloSession { session: 42 }
            );
            reply(&mut s, &Response::Session { last_seq: 0 });
            let batch = read_frame(&mut s, &mut buf);
            match wire::decode_request(&batch[4..]).unwrap() {
                Request::BatchReportSeq { session: 42, seq: 1, reports } => {
                    assert_eq!(reports.len(), 2);
                }
                other => panic!("expected the seq-1 batch, got {other:?}"),
            }
            drop(s); // the "ingested, ack lost" failure
                     // Conn 2: the resumed session says seq 1 is already acked;
                     // the replayed stamp dedups to Ack(0).
            let (mut s, _) = listener.accept().unwrap();
            serve_handshake(&mut s);
            let mut buf = Vec::new();
            let hello = read_frame(&mut s, &mut buf);
            assert_eq!(
                wire::decode_request(&hello[4..]).unwrap(),
                Request::HelloSession { session: 42 }
            );
            reply(&mut s, &Response::Session { last_seq: 1 });
            let batch = read_frame(&mut s, &mut buf);
            match wire::decode_request(&batch[4..]).unwrap() {
                Request::BatchReportSeq { session: 42, seq: 1, .. } => {}
                other => panic!("retry must reuse the seq-1 stamp, got {other:?}"),
            }
            reply(&mut s, &Response::Ack(0));
            let _ = s.read(&mut [0u8; 8]); // hold until the client drops
        });
        let mut c = ResilientClient::new(
            addr,
            ResilientConfig {
                session: 42,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..ResilientConfig::default()
            },
        );
        let reports = vec![
            ReportOwned { app: "a".into(), target: Target::X86, func_ms: 1.0, x86_load: 1 },
            ReportOwned { app: "b".into(), target: Target::Fpga, func_ms: 2.0, x86_load: 2 },
        ];
        assert_eq!(c.report_batch(&reports).unwrap(), 2, "replayed chunk still counts accepted");
        assert_eq!(c.reconnects(), 1);
        assert_eq!(c.deduped_batches(), 1, "the Ack(0) replay is a dedup");
        drop(c);
        server.join().unwrap();
    }

    /// `R_BUSY` is a retry hint, not a failure: the client sleeps and
    /// resends on the same connection until served.
    #[test]
    fn busy_answers_are_retried_until_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            serve_handshake(&mut s);
            let mut buf = Vec::new();
            for answer_busy in [true, false] {
                let frame = read_frame(&mut s, &mut buf);
                match wire::decode_request(&frame[4..]).unwrap() {
                    Request::Decide { app: "app", .. } => {}
                    other => panic!("expected a decide, got {other:?}"),
                }
                if answer_busy {
                    reply(&mut s, &Response::Busy { retry_after_ms: 1 });
                } else {
                    reply(&mut s, &Response::Decide { target: Target::Fpga, reconfigure: false });
                }
            }
            let _ = s.read(&mut [0u8; 8]);
        });
        let mut c = ResilientClient::new(
            addr,
            ResilientConfig {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..ResilientConfig::default()
            },
        );
        let d = c.decide("app", "k", 1, true).unwrap();
        assert_eq!(d.target, Target::Fpga);
        assert_eq!(c.busy_answers(), 1);
        assert_eq!(c.reconnects(), 0, "Busy must not cost a reconnect");
        drop(c);
        server.join().unwrap();
    }

    /// Every sheddable door that surfaces `R_BUSY` as an error reads it
    /// as load shedding, in `decide_with`'s words — not as a protocol
    /// violation.
    #[test]
    fn busy_answers_read_as_shedding_on_every_door() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            serve_handshake(&mut s);
            let mut buf = Vec::new();
            use wire::op;
            for want in [op::DECIDE_BATCH, op::BATCH_REPORT, op::BATCH_REPORT, op::DECIDE] {
                let frame = read_frame(&mut s, &mut buf);
                assert_eq!(frame[4], want, "opcode of the next request");
                reply(&mut s, &Response::Busy { retry_after_ms: 7 });
            }
            let _ = s.read(&mut [0u8; 8]);
        });
        let mut c = V2Client::connect(addr).unwrap();
        let q = WireQuery {
            app: "app",
            kernel: "k",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
        };
        let r = ReportOwned { app: "app".into(), target: Target::Arm, func_ms: 1.0, x86_load: 1 };
        let errors = [
            c.decide_batch(&[q]).unwrap_err(),
            c.report("app", Target::Arm, 1.0, 1).unwrap_err(),
            c.report_batch(&[r]).unwrap_err(),
            c.decide("app", "k", 1, true).unwrap_err(),
        ];
        for e in errors {
            assert_eq!(e.to_string(), "daemon shedding load (retry after 7ms)");
        }
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn fit_bounds_a_frame_by_count_and_bytes() {
        let small = |_: &u8| 1;
        assert_eq!(fit(&[], wire::MAX_BATCH, small), 0, "empty input");
        let items = vec![0u8; wire::MAX_BATCH + 1];
        assert_eq!(fit(&items[..wire::MAX_BATCH], wire::MAX_BATCH, small), wire::MAX_BATCH);
        assert_eq!(fit(&items, wire::MAX_BATCH, small), wire::MAX_BATCH, "one over the cap");
        // Half a frame of bytes: two quarter-frame items fit, a third
        // does not; an item over the whole budget still goes alone.
        assert_eq!(fit(&[0u8; 3], 10, |_| wire::MAX_FRAME / 4), 2);
        assert_eq!(fit(&[0u8; 3], 10, |_| wire::MAX_FRAME), 1);
    }
}
