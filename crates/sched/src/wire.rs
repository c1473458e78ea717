//! Wire protocol v2: compact length-prefixed binary frames with a
//! versioned handshake.
//!
//! # Handshake
//!
//! Immediately after connecting, a v2 client sends 8 bytes:
//!
//! ```text
//! +---------+---------+----------------+
//! | "XARS"  | version |  3 reserved 0  |
//! +---------+---------+----------------+
//!    4 B        1 B          3 B
//! ```
//!
//! The server answers with the same layout carrying the version it will
//! speak. A legacy v1 client sends no magic — its first bytes are ASCII
//! (`DECIDE …`, `REPORT …`, `TABLE`), which the server detects and
//! serves with the line-oriented text protocol instead. One daemon port
//! serves both generations.
//!
//! # Framing
//!
//! After the handshake every message is one frame:
//!
//! ```text
//! +-----------------+--------+-----------------+
//! | payload_len u32 | opcode |     payload     |
//! +-----------------+--------+-----------------+
//!       4 B LE         1 B     payload_len-1 B
//! ```
//!
//! (`payload_len` counts the opcode byte plus the payload.) Integers
//! are little-endian; strings are `u16` length-prefixed UTF-8; floats
//! are IEEE-754 bit patterns. The decoder is zero-copy: decoded
//! requests/responses borrow their strings from the receive buffer.
//!
//! [`Writer`] and [`Reader`] are the workspace's one byte codec: the
//! WAL records and snapshot payload (`crate::dur`) and `XarTrekPolicy`'s
//! state blob are written and read through them too, with `u32` counts
//! ([`Reader::count`]) where a frame has `u16` ones.
//!
//! # Reading a name
//!
//! A name is read once. `name_str` checks a string field with one
//! `is_ascii` scan and, when it passes, borrows it as `&str` without a
//! second validation pass (sound: every ASCII byte string is UTF-8). A
//! field holding any byte at or above `0x80` is validated by
//! `std::str::from_utf8` as before, so [`WireError::BadUtf8`] fires on
//! exactly the inputs it always did. An encoder never writes a string
//! longer than [`MAX_NAME`]: its u16 prefix would wrap and the peer
//! would mis-frame the rest.

use xar_desim::Target;

/// Protocol magic ("XARS").
pub const MAGIC: [u8; 4] = *b"XARS";
/// Current protocol revision carried in the handshake's version byte.
/// Bumped whenever a frame layout changes — revision 4 added the
/// `DecideBatch`/`R_DECIDE_BATCH` pair and widened the since-retired
/// `Stats` reply from twelve to thirteen `u64`s — so a peer from
/// an older build is refused at the handshake instead of silently
/// mis-decoding shifted fields. ("v2" stays the family name of the
/// binary protocol vs the v1 text protocol.)
pub const VERSION: u8 = 4;
/// Handshake length in bytes (both directions).
pub const HANDSHAKE_LEN: usize = 8;
/// Upper bound on a frame payload; larger frames are a protocol error.
/// Comfortably holds a full-width table or batch (u16 counts, so
/// ≤ 65535 elements) at realistic name lengths; encoders assert
/// against it, and `V2Client` additionally chunks batches by bytes so
/// pathological name lengths cannot trip the assert from user input.
pub const MAX_FRAME: usize = 16 << 20;
/// Maximum elements in one `BatchReport` / table reply (u16 count).
pub const MAX_BATCH: usize = u16::MAX as usize;
/// Longest string field, in bytes (u16 length prefix): an application
/// or kernel name, or an error message.
pub const MAX_NAME: usize = u16::MAX as usize;
/// Maximum queries in one `DecideBatch` frame. Deliberately far below
/// the u16 count ceiling: every query in a batch is decided before any
/// reply byte is written, so this bounds how long one frame can
/// monopolize a worker (latency isolation for the other connections it
/// multiplexes) and how large the reply burst into the outbuf can be.
/// The decoder refuses a larger announced count *before parsing a
/// single query* ([`WireError::OversizedBatch`]), so an oversized
/// batch is rejected atomically — no partial processing.
pub const MAX_DECIDE_BATCH: usize = 4096;

/// The 8-byte handshake carrying `version`.
pub fn handshake(version: u8) -> [u8; HANDSHAKE_LEN] {
    let mut h = [0u8; HANDSHAKE_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = version;
    h
}

/// Parses a peer handshake, returning the peer's version.
///
/// # Errors
///
/// [`WireError::BadMagic`] if the magic does not match.
pub fn parse_handshake(bytes: &[u8; HANDSHAKE_LEN]) -> Result<u8, WireError> {
    if bytes[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    Ok(bytes[4])
}

/// Request opcodes (client → server).
pub mod op {
    /// `Decide` — ask for a placement.
    pub const DECIDE: u8 = 0x01;
    /// Retired: the daemon answers `R_ERR`; never reuse. (Was `Report`,
    /// a one-report `BATCH_REPORT`.)
    pub const REPORT: u8 = 0x02;
    /// `BatchReport` — many completion reports in one frame.
    pub const BATCH_REPORT: u8 = 0x03;
    /// `TableSnapshot` — fetch the threshold table.
    pub const TABLE: u8 = 0x04;
    /// `Ping` — liveness/latency probe.
    pub const PING: u8 = 0x05;
    /// Retired: the daemon answers `R_ERR`; never reuse. (Was `Stats`,
    /// a fixed subset of `STATS_V2`.)
    pub const STATS: u8 = 0x06;
    /// `DecideBatch` — many placement queries in one frame.
    pub const DECIDE_BATCH: u8 = 0x07;
    /// `StatsV2` — fetch self-describing tagged statistics.
    pub const STATS_V2: u8 = 0x08;
    /// `HistDump` — fetch per-op-class latency histogram buckets.
    pub const HIST_DUMP: u8 = 0x09;
    /// `HelloSession` — register (or resume) a report session.
    pub const HELLO_SESSION: u8 = 0x0A;
    /// `BatchReportSeq` — seq-stamped batched completion reports with
    /// exactly-once replay semantics.
    pub const BATCH_REPORT_SEQ: u8 = 0x0B;
    /// Reply to `DECIDE`.
    pub const R_DECIDE: u8 = 0x81;
    /// Acknowledgement carrying an accepted-item count.
    pub const R_ACK: u8 = 0x82;
    /// Reply to `TABLE`.
    pub const R_TABLE: u8 = 0x84;
    /// Reply to `PING`.
    pub const R_PONG: u8 = 0x85;
    /// Retired: the daemon answers `R_ERR`; never reuse. (Was the
    /// `STATS` reply.)
    pub const R_STATS: u8 = 0x86;
    /// Reply to `DECIDE_BATCH`: N decisions in query order.
    pub const R_DECIDE_BATCH: u8 = 0x87;
    /// Reply to `STATS_V2`: N tagged (u16, u64) counter pairs.
    pub const R_STATS_V2: u8 = 0x88;
    /// Reply to `HIST_DUMP`: N self-describing histogram rows.
    pub const R_HIST_DUMP: u8 = 0x89;
    /// Reply to `HELLO_SESSION`: the session's last-acked batch seq.
    pub const R_SESSION: u8 = 0x8A;
    /// Overload-shed refusal carrying a retry-after hint; the request
    /// it answers was not processed.
    pub const R_BUSY: u8 = 0x8B;
    /// Error reply carrying a message.
    pub const R_ERR: u8 = 0xFF;
}

/// A wire-level completion report (Algorithm 1 input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireReport<'a> {
    /// Application name.
    pub app: &'a str,
    /// Where the call ran.
    pub target: Target,
    /// Observed function time (ms).
    pub func_ms: f64,
    /// x86 load at completion.
    pub x86_load: u32,
}

/// A wire-level placement query — one element of a `DecideBatch`
/// frame, carrying exactly the fields of a standalone `Decide` request
/// (the full `decide_with` context). Strings borrow from the receive
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireQuery<'a> {
    /// Application name.
    pub app: &'a str,
    /// Hardware kernel name (may be empty).
    pub kernel: &'a str,
    /// x86 runnable-process count.
    pub x86_load: u32,
    /// ARM runnable-process count.
    pub arm_load: u32,
    /// Whether the kernel is resident in the loaded XCLBIN.
    pub kernel_resident: bool,
    /// Whether the device is past any in-flight reconfiguration.
    pub device_ready: bool,
}

impl WireQuery<'_> {
    /// The engine-side decision context this query describes. `now_ns`
    /// is not carried on the wire; the daemon decides at `now = 0`. The
    /// standalone `Decide` handler decides through this too, so it and
    /// a batch stay bit-identical.
    pub fn ctx(&self) -> xar_desim::DecideCtx<'_> {
        xar_desim::DecideCtx {
            app: self.app,
            kernel: self.kernel,
            x86_load: self.x86_load as usize,
            arm_load: self.arm_load as usize,
            kernel_resident: self.kernel_resident,
            device_ready: self.device_ready,
            now_ns: 0.0,
        }
    }
}

/// A wire-level threshold-table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEntry<'a> {
    /// Application name.
    pub app: &'a str,
    /// Hardware kernel name.
    pub kernel: &'a str,
    /// FPGA migration threshold.
    pub fpga_thr: u32,
    /// ARM migration threshold.
    pub arm_thr: u32,
}

/// Self-describing daemon statistics carried by the `StatsV2` reply:
/// a sequence of `(tag, value)` pairs where the tag ids come from the
/// append-only `xar_obs::tags` registry. Unknown tags are ordinary
/// data — a client built before a tag existed still decodes the frame
/// and simply does not recognize the id — so adding a counter never
/// bumps the wire version.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsV2 {
    /// `(tag, value)` pairs in daemon-chosen order.
    pub pairs: Vec<(u16, u64)>,
}

impl StatsV2 {
    /// Value of the first pair carrying `tag`, if the daemon sent it.
    pub fn get(&self, tag: u16) -> Option<u64> {
        self.pairs.iter().find(|&&(t, _)| t == tag).map(|&(_, v)| v)
    }
}

/// Stable ids for the histogram op classes a `HistDump` reply may
/// carry. Like the `StatsV2` tag registry these are append-only: an id
/// is never reused, so an aggregator built before a class existed still
/// decodes the frame (each row announces its own bucket count) and
/// simply skips ids it does not recognize.
pub mod hist_class {
    /// Per-decide election latency.
    pub const DECIDE: u16 = 1;
    /// Whole-frame `DecideBatch` latency.
    pub const DECIDE_BATCH: u16 = 2;
    /// Batch report apply-loop latency.
    pub const REPORT_BATCH: u16 = 3;
    /// Shard snapshot publication latency.
    pub const FLUSH_PUBLISH: u16 = 4;

    /// Every registered class with its exposition name, ascending.
    pub const CLASSES: &[(u16, &str)] = &[
        (DECIDE, "decide"),
        (DECIDE_BATCH, "decide_batch"),
        (REPORT_BATCH, "report_batch"),
        (FLUSH_PUBLISH, "flush_publish"),
    ];

    /// Exposition name for a class id, or `None` for ids this build
    /// predates.
    pub fn class_name(id: u16) -> Option<&'static str> {
        CLASSES.binary_search_by_key(&id, |&(c, _)| c).ok().map(|i| CLASSES[i].1)
    }
}

/// Per-op-class latency histogram buckets carried by the `HistDump`
/// reply: one row per class, each row self-describing (class id +
/// bucket count + that many cumulative-free `u64` bucket values), so
/// unknown classes skip structurally the same way unknown `StatsV2`
/// tags do. Buckets are the raw per-bucket counts of the daemon's
/// log₂ histograms — they merge across daemons bucket-exactly by
/// element-wise addition, which is what fleet aggregation folds on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistDump {
    /// `(class id, bucket counts)` rows in daemon-chosen order.
    pub classes: Vec<(u16, Vec<u64>)>,
}

impl HistDump {
    /// Bucket counts of the first row carrying `class`, if present.
    pub fn get(&self, class: u16) -> Option<&[u64]> {
        self.classes.iter().find(|&&(c, _)| c == class).map(|(_, b)| b.as_slice())
    }
}

/// A decoded client request. Strings borrow from the receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Placement query for one selected-function call.
    Decide {
        /// Application name.
        app: &'a str,
        /// Hardware kernel name (may be empty).
        kernel: &'a str,
        /// x86 runnable-process count.
        x86_load: u32,
        /// ARM runnable-process count.
        arm_load: u32,
        /// Whether the kernel is resident in the loaded XCLBIN.
        kernel_resident: bool,
        /// Whether the device is past any in-flight reconfiguration.
        device_ready: bool,
    },
    /// Batched completion reports.
    BatchReport(Vec<WireReport<'a>>),
    /// Threshold-table snapshot request.
    Table,
    /// Liveness probe; the nonce is echoed back.
    Ping(u64),
    /// Batched placement queries (≤ [`MAX_DECIDE_BATCH`]); answered by
    /// one `R_DECIDE_BATCH` frame carrying the decisions in order.
    DecideBatch(Vec<WireQuery<'a>>),
    /// Self-describing statistics request.
    StatsV2,
    /// Per-op-class latency histogram request.
    HistDump,
    /// Registers (or resumes) a report session identified by a
    /// client-chosen nonzero id; answered by `R_SESSION` carrying the
    /// session's last-acked batch seq so a reconnecting client can
    /// resynchronize its sequence counter.
    HelloSession {
        /// Client-chosen session id (nonzero).
        session: u64,
    },
    /// Batched completion reports stamped with a per-session sequence
    /// number. The daemon ingests a batch only when `seq` advances the
    /// session's high-water mark; a replayed seq (a retry after a lost
    /// reply) is acknowledged with `Ack(0)` and ingests nothing — the
    /// exactly-once half of the resilience contract.
    BatchReportSeq {
        /// Session id from a prior `HelloSession`.
        session: u64,
        /// Per-session batch sequence number (strictly increasing).
        seq: u64,
        /// The reports themselves.
        reports: Vec<WireReport<'a>>,
    },
}

/// A decoded server response. Strings borrow from the receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response<'a> {
    /// Placement decision.
    Decide {
        /// Chosen target.
        target: Target,
        /// Whether to start reconfiguring the FPGA in the background.
        reconfigure: bool,
    },
    /// Acknowledgement with an accepted-item count.
    Ack(u32),
    /// Threshold-table snapshot.
    Table(Vec<WireEntry<'a>>),
    /// Ping echo.
    Pong(u64),
    /// Batched placement decisions, in the query order of the
    /// `DecideBatch` frame they answer.
    DecideBatch(Vec<xar_desim::Decision>),
    /// Self-describing tagged statistics.
    StatsV2(StatsV2),
    /// Per-op-class latency histogram buckets.
    HistDump(HistDump),
    /// Session registration reply: the last batch seq the daemon has
    /// acked for this session (0 for a fresh session).
    Session {
        /// High-water mark of acknowledged batch seqs.
        last_seq: u64,
    },
    /// Overload-shed refusal: the request was not processed; retry
    /// after the hinted delay.
    Busy {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// Protocol or handler error.
    Err(&'a str),
}

/// Wire-format violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Handshake magic mismatch.
    BadMagic,
    /// Payload shorter than its fields (or its counts) claim.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown target byte.
    BadTarget(u8),
    /// String field is not UTF-8.
    BadUtf8,
    /// Frame exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// A `DecideBatch` announces more queries than
    /// [`MAX_DECIDE_BATCH`]. Raised before any query is parsed, so the
    /// refusal is atomic — the server answers `R_ERR` having processed
    /// nothing.
    OversizedBatch(usize),
    /// A decoded message did not consume its whole payload (element
    /// count and payload length disagree).
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad handshake magic"),
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::BadTarget(t) => write!(f, "unknown target {t}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::OversizedBatch(n) => {
                write!(f, "decide batch of {n} queries exceeds MAX_DECIDE_BATCH")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} undecoded bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// The persisted decoders (WAL records, the snapshot payload, the
/// policy state blob) report a malformed payload as its message.
impl From<WireError> for String {
    fn from(e: WireError) -> Self {
        e.to_string()
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Encoded size in bytes of one report element inside a `BatchReport`
/// / `BatchReportSeq` payload for an application name of `app_len` bytes:
/// the u16 string length prefix, the name, the target byte, the f64
/// time, and the u32 load. `V2Client::report_batch` budgets frames
/// with this, and a unit test pins it to the real encoder so the
/// layout and the budget cannot drift apart.
pub const fn encoded_report_len(app_len: usize) -> usize {
    2 + app_len + 1 + 8 + 4
}

/// Encoded size in bytes of one query element inside a `DecideBatch`
/// payload for the given name lengths: two u16-prefixed strings, the
/// two u32 loads, and the flags byte. `V2Client::decide_batch` budgets
/// frames with this; a unit test pins it to the real encoder.
pub const fn encoded_query_len(app_len: usize, kernel_len: usize) -> usize {
    2 + app_len + 2 + kernel_len + 4 + 4 + 1
}

/// Encoded size in bytes of one row inside an `R_TABLE` payload for the
/// given name lengths: two u16-prefixed strings and the two u32
/// thresholds. The daemon checks a table fits one frame with this
/// before encoding it; a unit test pins it to the real encoder.
pub const fn encoded_entry_len(app_len: usize, kernel_len: usize) -> usize {
    2 + app_len + 2 + kernel_len + 4 + 4
}

/// `Target` ↔ wire byte.
pub fn target_to_byte(t: Target) -> u8 {
    match t {
        Target::X86 => 0,
        Target::Arm => 1,
        Target::Fpga => 2,
    }
}

/// Wire byte → `Target`.
///
/// # Errors
///
/// [`WireError::BadTarget`] on an unknown byte.
pub fn target_from_byte(b: u8) -> Result<Target, WireError> {
    match b {
        0 => Ok(Target::X86),
        1 => Ok(Target::Arm),
        2 => Ok(Target::Fpga),
        other => Err(WireError::BadTarget(other)),
    }
}

/// `Target` as v1 protocol text.
pub fn target_str(t: Target) -> &'static str {
    match t {
        Target::X86 => "x86",
        Target::Arm => "arm",
        Target::Fpga => "fpga",
    }
}

/// v1 protocol text → `Target`.
pub fn parse_target(s: &str) -> Option<Target> {
    match s {
        "x86" => Some(Target::X86),
        "arm" => Some(Target::Arm),
        "fpga" => Some(Target::Fpga),
        _ => None,
    }
}

/// Maximum accepted v1 text line length, newline excluded. A longer
/// line is a protocol error, whether it arrived whole or is still
/// streaming with no newline: never parsed, never a buffering duty.
pub const MAX_V1_LINE: usize = 64 * 1024;

/// A parsed v1 text-protocol request line. The grammar lives here —
/// and only here; the daemon's v1 path is its one server-side user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V1Request<'a> {
    /// `DECIDE <app> <kernel> <x86_load> <resident:0|1>`
    Decide {
        /// Application name.
        app: &'a str,
        /// Hardware kernel name.
        kernel: &'a str,
        /// x86 runnable-process count.
        x86_load: u64,
        /// Whether the kernel is resident.
        kernel_resident: bool,
    },
    /// `REPORT <app> <x86|arm|fpga> <func_ms> <x86_load>`
    Report {
        /// Application name.
        app: &'a str,
        /// Where the call ran.
        target: Target,
        /// Observed function time (ms).
        func_ms: f64,
        /// x86 load at completion.
        x86_load: u64,
    },
    /// `TABLE`
    Table,
    /// `DUMP` — Prometheus-style text exposition of every counter,
    /// histogram bucket, and per-shard gauge, terminated by `END`.
    Dump,
    /// `TRACE <n>` — the last `n` ring-buffer trace events, oldest
    /// first, terminated by `END`. `n = 0`
    /// answers just `END`; an `n` past the log capacity (including
    /// literals too large for `usize`) clamps to it instead of erroring
    /// — asking for "everything" must not be a protocol error.
    Trace {
        /// Maximum number of events to return.
        n: usize,
    },
    /// `SERIES <name> <secs>` — per-slot time-series values of one
    /// tracked counter (deltas) or windowed quantile (`<class>_p50_ns`
    /// / `<class>_p99_ns`) over the last `secs` seconds, one
    /// `<tick> <value>` line per slot, terminated by `END`.
    Series {
        /// Series name (counter or `<class>_p50_ns`/`<class>_p99_ns`).
        name: &'a str,
        /// Window, in seconds.
        secs: u64,
    },
    /// `RATE <name>` — sliding-window per-second rate of one tracked
    /// counter, answered as `xar_rate_<name> <value>` + `END`.
    Rate {
        /// Counter name.
        name: &'a str,
    },
    /// `QUIT`
    Quit,
}

/// Parses one v1 request line (without the trailing newline); `None`
/// is the protocol's `ERR` case. A field longer than [`MAX_NAME`] is
/// refused: no name the daemon keeps, journals or sends can be longer.
pub fn parse_v1_line(line: &str) -> Option<V1Request<'_>> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.iter().any(|p| p.len() > MAX_NAME) {
        return None;
    }
    match parts.as_slice() {
        ["DECIDE", app, kernel, load, resident] => {
            let (load, resident) = (load.parse().ok()?, resident.parse::<u8>().ok()?);
            Some(V1Request::Decide { app, kernel, x86_load: load, kernel_resident: resident != 0 })
        }
        ["REPORT", app, target, ms, load] => Some(V1Request::Report {
            app,
            target: parse_target(target)?,
            func_ms: ms.parse().ok()?,
            x86_load: load.parse().ok()?,
        }),
        ["TABLE"] => Some(V1Request::Table),
        ["DUMP"] => Some(V1Request::Dump),
        ["TRACE", n] => Some(V1Request::Trace { n: parse_count_clamped(n)? }),
        ["SERIES", name, secs] => Some(V1Request::Series { name, secs: secs.parse().ok()? }),
        ["RATE", name] => Some(V1Request::Rate { name }),
        ["QUIT"] => Some(V1Request::Quit),
        _ => None,
    }
}

/// Parses a non-negative count, saturating at `usize::MAX` for digit
/// strings too large to represent — `TRACE 99999999999999999999` means
/// "everything", not `ERR`. Non-digit input is still a parse failure.
fn parse_count_clamped(s: &str) -> Option<usize> {
    match s.parse::<usize>() {
        Ok(n) => Some(n),
        Err(_) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => Some(usize::MAX),
        Err(_) => None,
    }
}

/// Writes the v1 reply to a DECIDE directly into an output buffer —
/// no per-reply `String` allocation on the daemon's v1 fallback path.
pub fn v1_decide_reply_into(d: &xar_desim::Decision, out: &mut Vec<u8>) {
    use std::io::Write as _;
    // Writing into a Vec<u8> is infallible.
    let _ = writeln!(out, "TARGET {} {}", target_str(d.target), u8::from(d.reconfigure));
}

/// Writes one v1 TABLE row directly into an output buffer.
pub fn v1_table_row_into(e: &WireEntry<'_>, out: &mut Vec<u8>) {
    use std::io::Write as _;
    let _ = writeln!(out, "{} {} {} {}", e.app, e.kernel, e.fpga_thr, e.arm_thr);
}

// ---------------------------------------------------------------- the codec

/// Little-endian writer appending to a byte buffer, one field per
/// call: the integers, an `f64` as its bits, a name (`str`: a u16
/// length, then the bytes) and the three element bodies. `report` and
/// `query` are always inlined, here and in [`Reader`]: with more than
/// one call site LLVM stopped inlining them into the batch loops, and
/// a `DecideBatch` decoded ~1.5× slower.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Where this writer's first byte went.
    start: usize,
}

impl<'a> Writer<'a> {
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let start = out.len();
        Writer { out, start }
    }

    /// Opens a v2 frame: the header, with a placeholder length that
    /// [`Writer::finish`] patches in.
    fn frame(out: &'a mut Vec<u8>, opcode: u8) -> Self {
        let mut w = Writer::new(out);
        w.u32(0);
        w.u8(opcode);
        w
    }

    /// Seals the frame [`Writer::frame`] opened.
    fn finish(mut self) {
        let payload = self.out.len() - self.start - 4;
        // Mirror the decoder's frame cap: emitting a frame the peer's
        // frame_in would reject (or whose length wraps u32) is an
        // encoder bug, not a recoverable condition.
        assert!(payload <= MAX_FRAME, "encoded frame of {payload} bytes exceeds MAX_FRAME");
        self.patch_u32(self.start, payload as u32);
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes, with no length prefix.
    #[inline]
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// Panics past [`MAX_NAME`]: the prefix would wrap and the reader
    /// would mis-frame the rest. Every door refuses such a name before
    /// it reaches an encoder.
    #[inline]
    pub fn str(&mut self, s: &str) {
        assert!(s.len() <= MAX_NAME, "name of {} bytes exceeds u16", s.len());
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }

    /// [`encoded_report_len`] bytes.
    #[inline(always)]
    pub fn report(&mut self, r: &WireReport<'_>) {
        self.str(r.app);
        self.u8(target_to_byte(r.target));
        self.f64(r.func_ms);
        self.u32(r.x86_load);
    }

    /// [`encoded_query_len`] bytes.
    #[inline(always)]
    pub fn query(&mut self, q: &WireQuery<'_>) {
        self.str(q.app);
        self.str(q.kernel);
        self.u32(q.x86_load);
        self.u32(q.arm_load);
        self.u8(u8::from(q.kernel_resident) | (u8::from(q.device_ready) << 1));
    }

    /// [`encoded_entry_len`] bytes: a table reply row, a `RowDeltas`
    /// row and a state-blob row alike.
    #[inline]
    pub fn entry(&mut self, e: &WireEntry<'_>) {
        self.str(e.app);
        self.str(e.kernel);
        self.u32(e.fpga_thr);
        self.u32(e.arm_thr);
    }

    /// The buffer's length: where the next field starts.
    pub(crate) fn pos(&self) -> usize {
        self.out.len()
    }

    /// Overwrites the `u32` written at `at`: a count or a length known
    /// only once what it counts has been written.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.out[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends one encoded request frame to `out`.
pub fn encode_request(req: &Request<'_>, out: &mut Vec<u8>) {
    match req {
        &Request::Decide { app, kernel, x86_load, arm_load, kernel_resident, device_ready } => {
            let mut w = Writer::frame(out, op::DECIDE);
            w.query(&WireQuery { app, kernel, x86_load, arm_load, kernel_resident, device_ready });
            w.finish();
        }
        Request::BatchReport(rs) => {
            assert!(rs.len() <= MAX_BATCH, "BatchReport of {} exceeds u16 count", rs.len());
            let mut w = Writer::frame(out, op::BATCH_REPORT);
            w.u16(rs.len() as u16);
            for r in rs {
                w.report(r);
            }
            w.finish();
        }
        Request::Table => Writer::frame(out, op::TABLE).finish(),
        Request::Ping(nonce) => {
            let mut w = Writer::frame(out, op::PING);
            w.u64(*nonce);
            w.finish();
        }
        Request::DecideBatch(qs) => encode_decide_batch(qs, out),
        Request::StatsV2 => Writer::frame(out, op::STATS_V2).finish(),
        Request::HistDump => Writer::frame(out, op::HIST_DUMP).finish(),
        Request::HelloSession { session } => {
            let mut w = Writer::frame(out, op::HELLO_SESSION);
            w.u64(*session);
            w.finish();
        }
        Request::BatchReportSeq { session, seq, reports } => {
            encode_batch_report_seq(*session, *seq, reports, out);
        }
    }
}

/// Appends one encoded `BatchReportSeq` request frame built from a
/// borrowed report slice — the same bytes [`encode_request`] produces
/// for `Request::BatchReportSeq` (which delegates here), without
/// requiring the caller to materialize an owned `Vec` first. The
/// resilient client's replay buffer encodes through this.
pub fn encode_batch_report_seq(
    session: u64,
    seq: u64,
    reports: &[WireReport<'_>],
    out: &mut Vec<u8>,
) {
    assert!(reports.len() <= MAX_BATCH, "BatchReportSeq of {} exceeds u16 count", reports.len());
    let mut w = Writer::frame(out, op::BATCH_REPORT_SEQ);
    w.u64(session);
    w.u64(seq);
    w.u16(reports.len() as u16);
    for r in reports {
        w.report(r);
    }
    w.finish();
}

/// Appends one encoded `DecideBatch` request frame built from a
/// borrowed query slice — the same bytes [`encode_request`] produces
/// for `Request::DecideBatch` (which delegates here), without
/// requiring the caller to materialize an owned `Vec` first.
/// `V2Client::decide_batch` encodes its chunks through this, so the
/// client path allocates nothing per frame.
pub fn encode_decide_batch(queries: &[WireQuery<'_>], out: &mut Vec<u8>) {
    assert!(
        queries.len() <= MAX_DECIDE_BATCH,
        "DecideBatch of {} exceeds MAX_DECIDE_BATCH",
        queries.len()
    );
    let mut w = Writer::frame(out, op::DECIDE_BATCH);
    w.u16(queries.len() as u16);
    for q in queries {
        w.query(q);
    }
    w.finish();
}

/// Streams one `R_DECIDE_BATCH` reply frame straight into an output
/// buffer. The count is written up front (it is known from the request)
/// and each decision is appended as it is computed, so the server never
/// stages the reply through an intermediate encoded `Vec`.
/// [`encode_response`] routes `Response::DecideBatch` through this same
/// writer, so the two encode paths cannot drift.
pub struct DecideBatchReplyWriter<'a> {
    w: Writer<'a>,
    expected: usize,
    pushed: usize,
}

impl<'a> DecideBatchReplyWriter<'a> {
    /// Opens a reply frame announcing `count` decisions.
    pub fn begin(out: &'a mut Vec<u8>, count: usize) -> Self {
        assert!(count <= MAX_DECIDE_BATCH, "reply batch of {count} exceeds MAX_DECIDE_BATCH");
        let mut w = Writer::frame(out, op::R_DECIDE_BATCH);
        w.u16(count as u16);
        DecideBatchReplyWriter { w, expected: count, pushed: 0 }
    }

    /// Appends one decision.
    pub fn push(&mut self, d: &xar_desim::Decision) {
        self.w.u8(target_to_byte(d.target));
        self.w.u8(u8::from(d.reconfigure));
        self.pushed += 1;
    }

    /// Seals the frame. Panics if fewer/more decisions were pushed than
    /// announced — that would be an undecodable frame, a server bug.
    pub fn finish(self) {
        assert_eq!(self.pushed, self.expected, "decide-batch reply count mismatch");
        self.w.finish();
    }
}

/// Appends one encoded response frame to `out`.
pub fn encode_response(resp: &Response<'_>, out: &mut Vec<u8>) {
    match resp {
        Response::Decide { target, reconfigure } => {
            let mut w = Writer::frame(out, op::R_DECIDE);
            w.u8(target_to_byte(*target));
            w.u8(u8::from(*reconfigure));
            w.finish();
        }
        Response::Ack(n) => {
            let mut w = Writer::frame(out, op::R_ACK);
            w.u32(*n);
            w.finish();
        }
        Response::Table(entries) => {
            assert!(entries.len() <= MAX_BATCH, "table of {} exceeds u16 count", entries.len());
            let mut w = Writer::frame(out, op::R_TABLE);
            w.u16(entries.len() as u16);
            for e in entries {
                w.entry(e);
            }
            w.finish();
        }
        Response::Pong(nonce) => {
            let mut w = Writer::frame(out, op::R_PONG);
            w.u64(*nonce);
            w.finish();
        }
        Response::DecideBatch(ds) => {
            let mut w = DecideBatchReplyWriter::begin(out, ds.len());
            for d in ds {
                w.push(d);
            }
            w.finish();
        }
        Response::StatsV2(s) => {
            assert!(s.pairs.len() <= MAX_BATCH, "stats of {} exceeds u16 count", s.pairs.len());
            let mut w = Writer::frame(out, op::R_STATS_V2);
            w.u16(s.pairs.len() as u16);
            for &(tag, value) in &s.pairs {
                w.u16(tag);
                w.u64(value);
            }
            w.finish();
        }
        Response::HistDump(h) => {
            assert!(h.classes.len() <= MAX_BATCH, "{} classes exceed u16 count", h.classes.len());
            let mut w = Writer::frame(out, op::R_HIST_DUMP);
            w.u16(h.classes.len() as u16);
            for (class, buckets) in &h.classes {
                assert!(buckets.len() <= MAX_BATCH, "{} buckets exceed u16 count", buckets.len());
                w.u16(*class);
                w.u16(buckets.len() as u16);
                for &b in buckets {
                    w.u64(b);
                }
            }
            w.finish();
        }
        Response::Session { last_seq } => {
            let mut w = Writer::frame(out, op::R_SESSION);
            w.u64(*last_seq);
            w.finish();
        }
        Response::Busy { retry_after_ms } => {
            let mut w = Writer::frame(out, op::R_BUSY);
            w.u32(*retry_after_ms);
            w.finish();
        }
        Response::Err(msg) => {
            let mut w = Writer::frame(out, op::R_ERR);
            w.str(msg);
            w.finish();
        }
    }
}

// ---------------------------------------------------------------- decoding

/// The one string decoder ([`Reader::str`]) of the wire, the WAL and
/// the snapshot (`crate::dur`) and the policy state blob: a name
/// field's bytes as `&str`, read in one pass when they are ASCII, as
/// every name the daemon's tables hold is.
///
/// On the short names the daemon sees, `std::str::from_utf8` costs
/// several times a word-at-a-time `is_ascii` scan: switching cut the
/// `DecideBatch` codec by ~19 ns per two-name query. Any byte at or
/// above `0x80` falls through to `from_utf8`, so a multi-byte name
/// decodes as before and every malformed sequence it rejects is
/// rejected here with the same error.
fn name_str(bytes: &[u8]) -> Result<&str, std::str::Utf8Error> {
    if bytes.is_ascii() {
        // SAFETY: every byte is below 0x80, and a sequence of ASCII
        // bytes is valid UTF-8 (each byte is its own one-byte code
        // point).
        Ok(unsafe { std::str::from_utf8_unchecked(bytes) })
    } else {
        std::str::from_utf8(bytes)
    }
}

/// Zero-copy cursor reading what [`Writer`] writes, one field per
/// call; names borrow from the buffer. A copy is a second cursor at
/// the same place: a scan ahead.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, raw.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A name, validated by [`name_str`].
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u16()? as usize;
        name_str(self.take(n)?).map_err(|_| WireError::BadUtf8)
    }

    #[inline(always)]
    pub fn report(&mut self) -> Result<WireReport<'a>, WireError> {
        Ok(WireReport {
            app: self.str()?,
            target: target_from_byte(self.u8()?)?,
            func_ms: self.f64()?,
            x86_load: self.u32()?,
        })
    }

    #[inline(always)]
    pub fn query(&mut self) -> Result<WireQuery<'a>, WireError> {
        let app = self.str()?;
        let kernel = self.str()?;
        let x86_load = self.u32()?;
        let arm_load = self.u32()?;
        let flags = self.u8()?;
        Ok(WireQuery {
            app,
            kernel,
            x86_load,
            arm_load,
            kernel_resident: flags & 1 != 0,
            device_ready: flags & 2 != 0,
        })
    }

    #[inline]
    pub fn entry(&mut self) -> Result<WireEntry<'a>, WireError> {
        Ok(WireEntry {
            app: self.str()?,
            kernel: self.str()?,
            fpga_thr: self.u32()?,
            arm_thr: self.u32()?,
        })
    }

    /// `n` elements, each read by `read`, into a `Vec` allocated once.
    pub(crate) fn list<T>(
        &mut self,
        n: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// A `u32` element count, refused when the bytes left cannot hold
    /// that many elements of at least `min_len` bytes each (an
    /// `encoded_*_len` of empty names): a corrupt count must not
    /// pre-allocate unbounded memory. A count refused here would have
    /// failed on truncation anyway.
    #[inline]
    pub fn count(&mut self, min_len: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_len {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Guards against element counts that disagree with the payload
    /// length (e.g. a count field truncated by a buggy encoder).
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

/// Decodes one request frame payload (opcode byte + body).
///
/// # Errors
///
/// Any [`WireError`] on malformed input.
pub fn decode_request(payload: &[u8]) -> Result<Request<'_>, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        op::DECIDE => {
            let WireQuery { app, kernel, x86_load, arm_load, kernel_resident, device_ready } =
                r.query()?;
            Ok(Request::Decide { app, kernel, x86_load, arm_load, kernel_resident, device_ready })
        }
        op::BATCH_REPORT => {
            let n = r.u16()? as usize;
            Ok(Request::BatchReport(r.list(n, Reader::report)?))
        }
        op::TABLE => Ok(Request::Table),
        op::PING => Ok(Request::Ping(r.u64()?)),
        op::STATS_V2 => Ok(Request::StatsV2),
        op::HIST_DUMP => Ok(Request::HistDump),
        op::DECIDE_BATCH => {
            let n = r.u16()? as usize;
            // Refused before parsing a single query: an oversized batch
            // must be rejected atomically, with nothing processed.
            if n > MAX_DECIDE_BATCH {
                return Err(WireError::OversizedBatch(n));
            }
            Ok(Request::DecideBatch(r.list(n, Reader::query)?))
        }
        op::HELLO_SESSION => Ok(Request::HelloSession { session: r.u64()? }),
        op::BATCH_REPORT_SEQ => {
            let (session, seq, n) = (r.u64()?, r.u64()?, r.u16()? as usize);
            Ok(Request::BatchReportSeq { session, seq, reports: r.list(n, Reader::report)? })
        }
        other => Err(WireError::BadOpcode(other)),
    }?;
    r.finish()?;
    Ok(req)
}

/// Decodes one response frame payload (opcode byte + body).
///
/// # Errors
///
/// Any [`WireError`] on malformed input.
pub fn decode_response(payload: &[u8]) -> Result<Response<'_>, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        op::R_DECIDE => {
            Ok(Response::Decide { target: target_from_byte(r.u8()?)?, reconfigure: r.u8()? != 0 })
        }
        op::R_ACK => Ok(Response::Ack(r.u32()?)),
        op::R_TABLE => {
            let n = r.u16()? as usize;
            Ok(Response::Table(r.list(n, Reader::entry)?))
        }
        op::R_PONG => Ok(Response::Pong(r.u64()?)),
        op::R_DECIDE_BATCH => {
            let n = r.u16()? as usize;
            if n > MAX_DECIDE_BATCH {
                return Err(WireError::OversizedBatch(n));
            }
            Ok(Response::DecideBatch(r.list(n, |r| {
                Ok(xar_desim::Decision {
                    target: target_from_byte(r.u8()?)?,
                    reconfigure: r.u8()? != 0,
                })
            })?))
        }
        op::R_STATS_V2 => {
            let n = r.u16()? as usize;
            // Tags are opaque here: ids this client predates decode like
            // any other pair (forward compatibility).
            Ok(Response::StatsV2(StatsV2 { pairs: r.list(n, |r| Ok((r.u16()?, r.u64()?)))? }))
        }
        op::R_HIST_DUMP => {
            let n = r.u16()? as usize;
            let mut classes = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                // Classes are opaque here: each row announces its own
                // bucket count, so ids this client predates decode
                // structurally (forward compatibility, like StatsV2).
                let class = r.u16()?;
                let nb = r.u16()? as usize;
                classes.push((class, r.list(nb, Reader::u64)?));
            }
            Ok(Response::HistDump(HistDump { classes }))
        }
        op::R_SESSION => Ok(Response::Session { last_seq: r.u64()? }),
        op::R_BUSY => Ok(Response::Busy { retry_after_ms: r.u32()? }),
        op::R_ERR => Ok(Response::Err(r.str()?)),
        other => Err(WireError::BadOpcode(other)),
    }?;
    r.finish()?;
    Ok(resp)
}

/// If `buf` starts with a complete frame, returns `(frame_total_len,
/// payload_range)`; `None` if more bytes are needed.
///
/// # Errors
///
/// [`WireError::Oversized`] when the header announces a payload above
/// [`MAX_FRAME`].
pub fn frame_in(buf: &[u8]) -> Result<Option<(usize, std::ops::Range<usize>)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let payload = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if payload > MAX_FRAME {
        return Err(WireError::Oversized(payload));
    }
    if buf.len() < 4 + payload {
        return Ok(None);
    }
    Ok(Some((4 + payload, 4..4 + payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request<'_>) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let (total, range) = frame_in(&buf).unwrap().expect("complete frame");
        assert_eq!(total, buf.len());
        assert_eq!(decode_request(&buf[range]).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response<'_>) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let (total, range) = frame_in(&buf).unwrap().expect("complete frame");
        assert_eq!(total, buf.len());
        assert_eq!(decode_response(&buf[range]).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Decide {
            app: "FaceDet320",
            kernel: "KNL_HW_FD320",
            x86_load: 42,
            arm_load: 7,
            kernel_resident: true,
            device_ready: false,
        });
        roundtrip_req(Request::BatchReport(vec![
            WireReport { app: "a", target: Target::X86, func_ms: 1.0, x86_load: 1 },
            WireReport { app: "b", target: Target::Fpga, func_ms: 2.0, x86_load: 2 },
        ]));
        roundtrip_req(Request::Table);
        roundtrip_req(Request::Ping(0xDEAD_BEEF));
        roundtrip_req(Request::DecideBatch(vec![
            WireQuery {
                app: "FaceDet320",
                kernel: "KNL_HW_FD320",
                x86_load: 42,
                arm_load: 7,
                kernel_resident: true,
                device_ready: false,
            },
            WireQuery {
                app: "CG-A",
                kernel: "",
                x86_load: 0,
                arm_load: 0,
                kernel_resident: false,
                device_ready: true,
            },
        ]));
        roundtrip_req(Request::DecideBatch(Vec::new()));
        roundtrip_req(Request::StatsV2);
        roundtrip_req(Request::HelloSession { session: 0xFEED_F00D });
        roundtrip_req(Request::BatchReportSeq {
            session: 7,
            seq: u64::MAX,
            reports: vec![
                WireReport { app: "a", target: Target::X86, func_ms: 1.0, x86_load: 1 },
                WireReport { app: "b", target: Target::Fpga, func_ms: 2.0, x86_load: 2 },
            ],
        });
        roundtrip_req(Request::BatchReportSeq { session: 1, seq: 1, reports: Vec::new() });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Decide { target: Target::Fpga, reconfigure: true });
        roundtrip_resp(Response::Ack(17));
        roundtrip_resp(Response::Table(vec![WireEntry {
            app: "Digit2000",
            kernel: "KNL_HW_DR200",
            fpga_thr: 0,
            arm_thr: 31,
        }]));
        roundtrip_resp(Response::Pong(7));
        roundtrip_resp(Response::DecideBatch(vec![
            xar_desim::Decision { target: Target::Fpga, reconfigure: true },
            xar_desim::Decision { target: Target::X86, reconfigure: false },
            xar_desim::Decision { target: Target::Arm, reconfigure: false },
        ]));
        roundtrip_resp(Response::DecideBatch(Vec::new()));
        roundtrip_resp(Response::Err("nope"));
        roundtrip_resp(Response::Session { last_seq: 0 });
        roundtrip_resp(Response::Session { last_seq: u64::MAX });
        roundtrip_resp(Response::Busy { retry_after_ms: 250 });
        roundtrip_resp(Response::StatsV2(StatsV2::default()));
        roundtrip_resp(Response::StatsV2(StatsV2 {
            // A tag far beyond the current registry must ride along:
            // the frame is self-describing, not schema-bound.
            pairs: vec![(1, 42), (30, 0), (0xBEEF, u64::MAX)],
        }));
    }

    #[test]
    fn stats_v2_pairs_are_fixed_width_and_unknown_tags_survive() {
        let s = StatsV2 { pairs: vec![(7, 9), (u16::MAX, 3)] };
        let mut buf = Vec::new();
        encode_response(&Response::StatsV2(s.clone()), &mut buf);
        // header + opcode + u16 count + N * (u16 tag + u64 value).
        assert_eq!(buf.len(), 4 + 1 + 2 + 2 * 10, "ten bytes per pair");
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        match decode_response(&buf[range]).unwrap() {
            Response::StatsV2(got) => {
                assert_eq!(got, s);
                assert_eq!(got.get(7), Some(9));
                assert_eq!(got.get(u16::MAX), Some(3), "unknown tag decodes as data");
                assert_eq!(got.get(8), None);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn hist_dump_rows_are_self_describing_and_unknown_classes_survive() {
        let h = HistDump {
            classes: vec![
                (hist_class::DECIDE, vec![1, 2, 3]),
                // An id this build does not register: decodes as data.
                (u16::MAX, vec![7]),
                (hist_class::FLUSH_PUBLISH, vec![]),
            ],
        };
        let mut buf = Vec::new();
        encode_response(&Response::HistDump(h.clone()), &mut buf);
        // header + opcode + u16 row count + per row (u16 class +
        // u16 bucket count + buckets × u64): fixed-width pairs.
        assert_eq!(buf.len(), 4 + 1 + 2 + (2 + 2 + 3 * 8) + (2 + 2 + 8) + (2 + 2));
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        match decode_response(&buf[range]).unwrap() {
            Response::HistDump(got) => {
                assert_eq!(got, h);
                assert_eq!(got.get(hist_class::DECIDE), Some(&[1u64, 2, 3][..]));
                assert_eq!(got.get(u16::MAX), Some(&[7u64][..]), "unknown class is data");
                assert_eq!(got.get(hist_class::REPORT_BATCH), None);
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Truncating the reply payload mid-row is a decode error, not
        // a silent short read.
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        match decode_response(&buf[range.start..range.end - 1]) {
            Err(WireError::Truncated) => {}
            other => panic!("truncated frame decoded: {other:?}"),
        }
        // Empty request frame round-trips.
        let mut req = Vec::new();
        encode_request(&Request::HistDump, &mut req);
        assert_eq!(req.len(), 4 + 1, "request: header + opcode only");
        let (_, range) = frame_in(&req).unwrap().unwrap();
        assert_eq!(decode_request(&req[range]).unwrap(), Request::HistDump);
    }

    #[test]
    fn hist_class_registry_is_sorted_and_named() {
        for w in hist_class::CLASSES.windows(2) {
            assert!(w[0].0 < w[1].0, "CLASSES must be ascending for binary search");
        }
        assert_eq!(hist_class::class_name(hist_class::DECIDE), Some("decide"));
        assert_eq!(hist_class::class_name(hist_class::FLUSH_PUBLISH), Some("flush_publish"));
        assert_eq!(hist_class::class_name(0), None);
        assert_eq!(hist_class::class_name(u16::MAX), None);
    }

    #[test]
    fn handshake_roundtrips_and_rejects_bad_magic() {
        let h = handshake(VERSION);
        assert_eq!(parse_handshake(&h).unwrap(), VERSION);
        let mut bad = h;
        bad[0] = b'Y';
        assert_eq!(parse_handshake(&bad), Err(WireError::BadMagic));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping(1), &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(frame_in(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert!(frame_in(&buf).unwrap().is_some());
    }

    #[test]
    fn oversized_and_malformed_frames_error() {
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(matches!(frame_in(&huge), Err(WireError::Oversized(_))));
        assert_eq!(decode_request(&[0x42]), Err(WireError::BadOpcode(0x42)));
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        // Retired ids decode like any unknown opcode.
        for retired in [op::REPORT, op::STATS] {
            assert_eq!(decode_request(&[retired]), Err(WireError::BadOpcode(retired)));
        }
        assert_eq!(decode_response(&[op::R_STATS]), Err(WireError::BadOpcode(op::R_STATS)));
        // A report with a bad target byte.
        let mut buf = Vec::new();
        let report = WireReport { app: "x", target: Target::X86, func_ms: 0.0, x86_load: 0 };
        encode_request(&Request::BatchReport(vec![report]), &mut buf);
        // app is "x": 4-byte len header, opcode, u16 count, u16 strlen,
        // 'x', then target.
        let target_at = 4 + 1 + 2 + 2 + 1;
        buf[target_at] = 9;
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        assert_eq!(decode_request(&buf[range]), Err(WireError::BadTarget(9)));
    }

    #[test]
    fn v1_grammar_parses_and_rejects() {
        use super::V1Request;
        assert_eq!(
            parse_v1_line("DECIDE app KNL 42 1"),
            Some(V1Request::Decide {
                app: "app",
                kernel: "KNL",
                x86_load: 42,
                kernel_resident: true
            })
        );
        assert_eq!(
            parse_v1_line("REPORT app fpga 1300.5 7"),
            Some(V1Request::Report {
                app: "app",
                target: Target::Fpga,
                func_ms: 1300.5,
                x86_load: 7
            })
        );
        assert_eq!(parse_v1_line("TABLE"), Some(V1Request::Table));
        assert_eq!(parse_v1_line("DUMP"), Some(V1Request::Dump));
        assert_eq!(parse_v1_line("TRACE 32"), Some(V1Request::Trace { n: 32 }));
        assert_eq!(parse_v1_line("TRACE 0"), Some(V1Request::Trace { n: 0 }));
        // A count too large for usize clamps ("everything"), it does
        // not become a protocol error.
        assert_eq!(
            parse_v1_line("TRACE 99999999999999999999999999"),
            Some(V1Request::Trace { n: usize::MAX })
        );
        assert_eq!(
            parse_v1_line("SERIES decides 60"),
            Some(V1Request::Series { name: "decides", secs: 60 })
        );
        assert_eq!(
            parse_v1_line("SERIES decide_p99_ns 5"),
            Some(V1Request::Series { name: "decide_p99_ns", secs: 5 })
        );
        assert_eq!(parse_v1_line("RATE decides"), Some(V1Request::Rate { name: "decides" }));
        assert_eq!(parse_v1_line("QUIT"), Some(V1Request::Quit));
        // Loads beyond u32 parse (the engine saturates later) — the
        // seed server accepted any usize, so the shared grammar must.
        assert!(parse_v1_line("DECIDE a k 5000000000 0").is_some());
        for bad in [
            "",
            "DECIDE a k x 1",
            "REPORT a moon 1.0 1",
            "BOGUS",
            "DECIDE a k 1",
            "TRACE",
            "TRACE x",
            "TRACE -1",
            "SERIES decides",
            "SERIES decides x",
            "RATE",
        ] {
            assert_eq!(parse_v1_line(bad), None, "{bad:?}");
        }
        // A name is at most MAX_NAME bytes, as on the wire and in the WAL.
        let name = "A".repeat(MAX_NAME);
        assert!(parse_v1_line(&format!("REPORT {name} x86 1 1")).is_some());
        assert_eq!(parse_v1_line(&format!("REPORT {name}A x86 1 1")), None);
        assert_eq!(parse_v1_line(&format!("DECIDE a {name}A 1 1")), None);
        let d = xar_desim::Decision { target: Target::Arm, reconfigure: true };
        let mut out = b"prior ".to_vec();
        v1_decide_reply_into(&d, &mut out);
        assert_eq!(out, b"prior TARGET arm 1\n", "appends, never truncates");
        let mut out = Vec::new();
        v1_table_row_into(&WireEntry { app: "a", kernel: "k", fpga_thr: 3, arm_thr: 9 }, &mut out);
        assert_eq!(out, b"a k 3 9\n");
    }

    #[test]
    fn encoded_report_len_matches_the_encoder_exactly() {
        for app in ["", "a", "Digit2000", &"x".repeat(300)] {
            let report = WireReport { app, target: Target::Fpga, func_ms: 1.5, x86_load: 7 };
            // A batch of one: frame header (4) + opcode (1) + count (2)
            // + the element itself.
            let mut buf = Vec::new();
            encode_request(&Request::BatchReport(vec![report]), &mut buf);
            assert_eq!(
                buf.len(),
                4 + 1 + 2 + encoded_report_len(app.len()),
                "app_len {}",
                app.len()
            );
        }
    }

    #[test]
    fn encoded_query_len_matches_the_encoder_exactly() {
        for (app, kernel) in [("", ""), ("a", "k"), ("Digit2000", "KNL_HW_DR200")] {
            let q = WireQuery {
                app,
                kernel,
                x86_load: 42,
                arm_load: 7,
                kernel_resident: true,
                device_ready: true,
            };
            // A batch of one: frame header (4) + opcode (1) + count (2)
            // + the element itself.
            let mut buf = Vec::new();
            encode_request(&Request::DecideBatch(vec![q]), &mut buf);
            assert_eq!(buf.len(), 4 + 1 + 2 + encoded_query_len(app.len(), kernel.len()));
        }
    }

    #[test]
    fn encoded_entry_len_matches_the_encoder_exactly() {
        for (app, kernel) in [("", ""), ("a", "k"), ("Digit2000", "KNL_HW_DR200")] {
            let e = WireEntry { app, kernel, fpga_thr: 3, arm_thr: 9 };
            // A table of one: frame header (4) + opcode (1) + count (2)
            // + the row itself.
            let mut buf = Vec::new();
            encode_response(&Response::Table(vec![e]), &mut buf);
            assert_eq!(buf.len(), 4 + 1 + 2 + encoded_entry_len(app.len(), kernel.len()));
        }
    }

    #[test]
    fn oversized_decide_batch_is_refused_before_parsing_any_query() {
        // A hand-crafted payload announcing MAX_DECIDE_BATCH + 1
        // queries (the encoder asserts, so a conforming client can
        // never emit this). The decoder must refuse on the count alone
        // — even though the payload holds no valid query at all.
        let mut payload = vec![op::DECIDE_BATCH];
        payload.extend_from_slice(&((MAX_DECIDE_BATCH + 1) as u16).to_le_bytes());
        assert_eq!(decode_request(&payload), Err(WireError::OversizedBatch(MAX_DECIDE_BATCH + 1)));
        // At the cap itself the count is fine (the truncated queries
        // then surface as their own error).
        let mut payload = vec![op::DECIDE_BATCH];
        payload.extend_from_slice(&(MAX_DECIDE_BATCH as u16).to_le_bytes());
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DECIDE_BATCH")]
    fn oversized_decide_batch_count_panics_in_the_encoder() {
        let q = WireQuery {
            app: "a",
            kernel: "k",
            x86_load: 0,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
        };
        encode_request(&Request::DecideBatch(vec![q; MAX_DECIDE_BATCH + 1]), &mut Vec::new());
    }

    #[test]
    fn streamed_decide_batch_reply_matches_encode_response() {
        let ds = vec![
            xar_desim::Decision { target: Target::Fpga, reconfigure: true },
            xar_desim::Decision { target: Target::X86, reconfigure: false },
        ];
        let mut staged = Vec::new();
        encode_response(&Response::DecideBatch(ds.clone()), &mut staged);
        let mut streamed = Vec::new();
        let mut w = DecideBatchReplyWriter::begin(&mut streamed, ds.len());
        for d in &ds {
            w.push(d);
        }
        w.finish();
        assert_eq!(streamed, staged, "the two encode paths drifted");
    }

    #[test]
    #[should_panic(expected = "reply count mismatch")]
    fn decide_batch_reply_writer_enforces_its_announced_count() {
        let mut out = Vec::new();
        let w = DecideBatchReplyWriter::begin(&mut out, 2);
        w.finish(); // only 0 of 2 pushed
    }

    #[test]
    fn session_frames_are_fixed_width_and_reject_truncation() {
        // HELLO_SESSION: header + opcode + u64 session.
        let mut buf = Vec::new();
        encode_request(&Request::HelloSession { session: 42 }, &mut buf);
        assert_eq!(buf.len(), 4 + 1 + 8);
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        assert_eq!(decode_request(&buf[range.start..range.end - 1]), Err(WireError::Truncated));
        // R_SESSION / R_BUSY replies are fixed-width too.
        let mut buf = Vec::new();
        encode_response(&Response::Session { last_seq: 9 }, &mut buf);
        assert_eq!(buf.len(), 4 + 1 + 8);
        let mut buf = Vec::new();
        encode_response(&Response::Busy { retry_after_ms: 50 }, &mut buf);
        assert_eq!(buf.len(), 4 + 1 + 4);
        let (_, range) = frame_in(&buf).unwrap().unwrap();
        assert_eq!(decode_response(&buf[range.start..range.end - 1]), Err(WireError::Truncated));
        // BatchReportSeq layout: session + seq + count + elements, so
        // the seq-stamped frame costs exactly 16 bytes over BatchReport.
        let rs = vec![WireReport { app: "x", target: Target::Arm, func_ms: 1.0, x86_load: 2 }];
        let mut plain = Vec::new();
        encode_request(&Request::BatchReport(rs.clone()), &mut plain);
        let mut stamped = Vec::new();
        encode_request(&Request::BatchReportSeq { session: 1, seq: 2, reports: rs }, &mut stamped);
        assert_eq!(stamped.len(), plain.len() + 16, "seq stamping costs two u64s");
        // Truncating the stamped frame mid-element is a decode error.
        let (_, range) = frame_in(&stamped).unwrap().unwrap();
        assert_eq!(decode_request(&stamped[range.start..range.end - 1]), Err(WireError::Truncated));
    }

    #[test]
    fn streamed_batch_report_seq_matches_encode_request() {
        let rs = vec![
            WireReport { app: "a", target: Target::X86, func_ms: 1.0, x86_load: 1 },
            WireReport { app: "b", target: Target::Fpga, func_ms: 2.0, x86_load: 2 },
        ];
        let mut staged = Vec::new();
        encode_request(
            &Request::BatchReportSeq { session: 3, seq: 4, reports: rs.clone() },
            &mut staged,
        );
        let mut streamed = Vec::new();
        encode_batch_report_seq(3, 4, &rs, &mut streamed);
        assert_eq!(streamed, staged, "the two encode paths drifted");
    }

    #[test]
    #[should_panic(expected = "exceeds u16 count")]
    fn oversized_batch_report_seq_panics_in_the_encoder() {
        let report = WireReport { app: "a", target: Target::X86, func_ms: 0.0, x86_load: 0 };
        encode_batch_report_seq(1, 1, &vec![report; MAX_BATCH + 1], &mut Vec::new());
    }

    #[test]
    fn trailing_payload_bytes_are_a_decode_error() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping(5), &mut buf);
        buf.extend_from_slice(&[0xAB, 0xCD]); // junk after the message
        let payload = &buf[4..];
        assert_eq!(decode_request(payload), Err(WireError::TrailingBytes(2)));
        let mut buf = Vec::new();
        encode_response(&Response::Ack(1), &mut buf);
        buf.push(0);
        assert_eq!(decode_response(&buf[4..]), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    #[should_panic(expected = "exceeds u16 count")]
    fn oversized_batch_count_panics_instead_of_truncating() {
        let report = WireReport { app: "a", target: Target::X86, func_ms: 0.0, x86_load: 0 };
        let rs = vec![report; MAX_BATCH + 1];
        encode_request(&Request::BatchReport(rs), &mut Vec::new());
    }

    #[test]
    fn decide_frame_is_far_smaller_than_v1_text() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Decide {
                app: "FaceDet320",
                kernel: "KNL_HW_FD320",
                x86_load: 42,
                arm_load: 0,
                kernel_resident: true,
                device_ready: true,
            },
            &mut buf,
        );
        let text = "DECIDE FaceDet320 KNL_HW_FD320 42 1\n";
        // Binary framing carries more fields in comparable bytes.
        assert!(buf.len() <= text.len() + 8, "{} vs {}", buf.len(), text.len());
    }

    /// A name field on the wire: u16 length, then the bytes as given.
    fn raw_str(bytes: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    fn raw_query(app: &[u8], kernel: &[u8], out: &mut Vec<u8>) {
        raw_str(app, out);
        raw_str(kernel, out);
        out.extend_from_slice(&[7, 0, 0, 0, 3, 0, 0, 0, 1]);
    }

    fn raw_report(app: &[u8], out: &mut Vec<u8>) {
        raw_str(app, out);
        out.push(2);
        out.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        out.extend_from_slice(&9u32.to_le_bytes());
    }

    /// The names a decoded request borrowed, in frame order.
    fn names<'a>(req: &Request<'a>) -> Vec<&'a str> {
        match req {
            Request::Decide { app, kernel, .. } => vec![app, kernel],
            Request::DecideBatch(qs) => qs.iter().flat_map(|q| [q.app, q.kernel]).collect(),
            Request::BatchReport(rs) | Request::BatchReportSeq { reports: rs, .. } => {
                rs.iter().map(|r| r.app).collect()
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    /// The ASCII fast path changes no verdict: random name bytes of
    /// every UTF-8 class in every frame that carries names decode to
    /// exactly what `std::str::from_utf8` makes of each field — the
    /// same string, borrowed from the frame, or `BadUtf8`.
    #[test]
    fn ascii_fast_path_changes_no_verdict() {
        let mut rng = name_bytes::Rng(0x5EED_0A5C);
        let (mut ascii, mut multibyte, mut invalid) = (0, 0, 0);
        for case in 0..4000 {
            let fields: Vec<Vec<u8>> =
                (0..2 * (1 + rng.below(3))).map(|_| name_bytes::name(&mut rng)).collect();
            let mut payload = Vec::new();
            let used = match case % 4 {
                0 => {
                    payload.push(op::DECIDE);
                    raw_query(&fields[0], &fields[1], &mut payload);
                    &fields[..2]
                }
                1 => {
                    payload.push(op::DECIDE_BATCH);
                    payload.extend_from_slice(&(fields.len() as u16 / 2).to_le_bytes());
                    for pair in fields.chunks(2) {
                        raw_query(&pair[0], &pair[1], &mut payload);
                    }
                    &fields[..]
                }
                2 => {
                    payload.push(op::BATCH_REPORT);
                    payload.extend_from_slice(&(fields.len() as u16).to_le_bytes());
                    fields.iter().for_each(|f| raw_report(f, &mut payload));
                    &fields[..]
                }
                _ => {
                    payload.push(op::BATCH_REPORT_SEQ);
                    payload.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]);
                    payload.extend_from_slice(&(fields.len() as u16).to_le_bytes());
                    fields.iter().for_each(|f| raw_report(f, &mut payload));
                    &fields[..]
                }
            };
            let want: Result<Vec<&str>, _> = used.iter().map(|f| std::str::from_utf8(f)).collect();
            match (decode_request(&payload), want) {
                (Ok(req), Ok(want)) => {
                    let got = names(&req);
                    assert_eq!(got, want, "case {case}: {used:?}");
                    let frame = payload.as_ptr_range();
                    for name in got {
                        assert!(frame.contains(&name.as_ptr()) || name.is_empty(), "case {case}");
                    }
                }
                (Err(WireError::BadUtf8), Err(_)) => {}
                (got, want) => {
                    // As bytes: a wrongly accepted name is no valid `str`
                    // to print.
                    let got =
                        got.map(|r| names(&r).iter().map(|n| n.as_bytes()).collect::<Vec<_>>());
                    panic!("case {case}: {used:?} decoded {got:?}, want {want:?}")
                }
            }
            for f in used {
                match std::str::from_utf8(f) {
                    Ok(_) if f.is_ascii() => ascii += 1,
                    Ok(_) => multibyte += 1,
                    Err(_) => invalid += 1,
                }
            }
        }
        // Every class showed up, often: the generator did not drift
        // into testing one path only.
        assert!(ascii > 2000 && multibyte > 250 && invalid > 2000, "{ascii} {multibyte} {invalid}");
    }
}

/// Name fields as a peer or a damaged journal could send them, for the
/// decoders' property tests: every class of byte sequence UTF-8
/// validation tells apart, spliced into one field.
#[cfg(test)]
pub(crate) mod name_bytes {
    /// A seeded SplitMix64 stream.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, of: &[&'a [u8]]) -> &'a [u8] {
            of[self.below(of.len())]
        }
    }

    /// One segment of a name field.
    fn segment(rng: &mut Rng, out: &mut Vec<u8>) {
        match rng.below(8) {
            // ASCII, control bytes and DEL included.
            0 | 1 => out.extend((0..rng.below(12)).map(|_| rng.below(0x80) as u8)),
            // Valid two-, three- and four-byte sequences.
            2 => out.extend_from_slice(rng.pick(&[
                "é".as_bytes(),
                "ß".as_bytes(),
                "€".as_bytes(),
                "中".as_bytes(),
                "\u{FFFF}".as_bytes(),
                "😀".as_bytes(),
                "\u{10FFFF}".as_bytes(),
            ])),
            // Invalid lead bytes: a bare continuation, a lead no
            // sequence starts with.
            3 => out.push([0x80, 0xBF, 0xF8, 0xFE, 0xFF][rng.below(5)]),
            // A valid lead followed by a byte that is no continuation.
            4 => out.extend_from_slice(rng.pick(&[
                &[0xC3, 0x41],
                &[0xE2, 0x82, 0x41],
                &[0xF0, 0x9F, 0x98, 0xC3],
                &[0xE2, 0x28, 0xA1],
            ])),
            // A sequence cut short (the field may end right after it).
            5 => out.extend_from_slice(rng.pick(&[&[0xC3], &[0xE2, 0x82], &[0xF0, 0x9F, 0x98]])),
            // Overlong forms, and a code point past U+10FFFF.
            6 => out.extend_from_slice(rng.pick(&[
                &[0xC0, 0x80],
                &[0xC1, 0xBF],
                &[0xE0, 0x80, 0x80],
                &[0xE0, 0x9F, 0xBF],
                &[0xF0, 0x80, 0x80, 0x80],
                &[0xF4, 0x90, 0x80, 0x80],
            ])),
            // UTF-16 surrogates.
            _ => out.extend_from_slice(rng.pick(&[&[0xED, 0xA0, 0x80], &[0xED, 0xBF, 0xBF]])),
        }
    }

    /// One name field: empty, pure ASCII (the common case), or up to
    /// four spliced segments of any class.
    pub(crate) fn name(rng: &mut Rng) -> Vec<u8> {
        let mut out = Vec::new();
        match rng.below(4) {
            0 => {}
            1 => out.extend((0..1 + rng.below(24)).map(|_| b'!' + rng.below(94) as u8)),
            _ => {
                for _ in 0..1 + rng.below(4) {
                    segment(rng, &mut out);
                }
            }
        }
        out
    }
}
