//! The daemon's durability layer: what goes *inside* `xar-dur`'s WAL
//! records and snapshots, and how a restarting daemon gets its state
//! back.
//!
//! # Record schema (WAL payloads)
//!
//! | tag | record        | contents                                       |
//! |-----|---------------|------------------------------------------------|
//! | 1   | `ReportBatch` | a fresh unsessioned report batch               |
//! | 2   | `SeqBatch`    | session, seq, and the batch's reports — one    |
//! |     |               | atomic record, so a crash can never persist    |
//! |     |               | the reports without the high-water advance     |
//! | 3   | `RowDeltas`   | shard index + post-apply rows of one flush     |
//! |     |               | (the replication substrate; skipped on         |
//! |     |               | recovery — state is rebuilt from the reports)  |
//! | 4   | `ReplayNote`  | a deduped `(session, seq)` — journaled so the  |
//! |     |               | `REPLAYED_BATCHES` conservation law against    |
//! |     |               | client dedup counts survives a restart         |
//!
//! # Ordering and exactly-once across a crash
//!
//! All durable ingest is serialized under one `ingest` mutex, so WAL
//! order equals per-shard apply order — replaying the log reproduces
//! the live table bit-identically. A `SeqBatch` is appended *before*
//! its ack: if the daemon dies after the append, the client's retry is
//! deduped against the recovered high-water mark; if it dies before,
//! nothing was ingested and the retry is fresh. Either way the batch
//! counts exactly once. (With `fsync` = `interval_ms`/`off` the same
//! argument holds for every record that reached the disk; the unsynced
//! tail is the documented loss window.)
//!
//! Lock order: `ingest` → engine shard `state` → `pending` → `deltas`
//! → `wal`. The last two are leaves — the flush sink reaches them
//! while a shard state lock is held, so they may never wrap an engine
//! call.
//!
//! Only the records an ack depends on (`ReportBatch`, `SeqBatch`,
//! `ReplayNote`) are synced before they are applied under
//! `fsync = always`. `RowDeltas` are best-effort: appended unsynced,
//! they ride the next synced append, maintenance tick or rotation.
//!
//! # Snapshot payload
//!
//! `version, opened, replayed, sessions[(id, hwm, replayed_hwm)],
//! shard-state blobs` — policy state via [`PolicyCore::save_state`]
//! plus the full session table, as of the manifest's WAL watermark.
//! Recovery = load newest valid snapshot (shard blobs borrowed from its
//! payload), then one pass over the WAL: [`Wal::open_replaying`]
//! validates the log and hands each record above the snapshot's
//! watermark to [`replay_record`] as its checksum passes — no segment
//! is read twice. Each report record re-enters the engine through
//! [`ShardedEngine::report_batch_wire`], which is the door live
//! traffic uses ([`ShardedEngine::report_batch_wire_obs`]) without a
//! tracer. The reports are borrowed from the record payload.
//!
//! Records and the snapshot payload are written and read through the
//! wire's codec ([`Writer`], [`Reader`]): a report is the wire's report
//! element, a `RowDeltas` row its table row, a count a `u32`.

use crate::engine::{BatchScratch, PolicyCore, RowRef, ShardedEngine};
use crate::session::{SeqOutcome, SessionTable};
use crate::wire::{encoded_report_len, Reader, WireError, WireReport, Writer};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xar_obs::sync_abstraction::Mutex;
use xar_obs::Tracer;

pub use xar_dur::FsyncPolicy;
use xar_dur::{load_latest_snapshot, prune_snapshots, write_snapshot, Wal, WalConfig};

const REC_REPORT_BATCH: u8 = 1;
const REC_SEQ_BATCH: u8 = 2;
const REC_ROW_DELTAS: u8 = 3;
const REC_REPLAY_NOTE: u8 = 4;

const SNAPSHOT_VERSION: u8 = 1;

/// Snapshots retained on disk (the active one plus one fallback for
/// "newest valid" recovery).
const KEEP_SNAPSHOTS: usize = 2;

/// Durability knobs, carried in `ServerConfig::durability`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments, snapshots, and the manifest.
    pub dir: PathBuf,
    /// When appended records reach the disk.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation size (bytes).
    pub segment_bytes: u64,
    /// Write a snapshot once this many records accumulate in the WAL
    /// since the last one (checked from the maintenance tick). `0`
    /// disables periodic snapshots — one is still written at clean
    /// shutdown.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Defaults rooted at `dir`: fsync every append, 8 MiB segments,
    /// snapshot every 4096 records.
    pub fn at(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            snapshot_every: 4096,
        }
    }
}

/// What startup recovery found and did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// WAL watermark of the snapshot loaded (0 = none).
    pub snapshot_watermark: u64,
    /// WAL records replayed above the watermark.
    pub replayed_records: u64,
    /// Torn-tail truncation events repaired while opening the WAL.
    pub torn_truncations: u64,
}

/// Counters for the `StatsV2` durability tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurStats {
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub snapshots_written: u64,
    pub recovery_replayed_records: u64,
    pub torn_tail_truncations: u64,
}

/// Outcome of one durable seq-stamped batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableSeqOutcome {
    /// Journaled and ingested; ack the report count.
    Fresh(usize),
    /// Deduped (and the dedup journaled); ack 0.
    Replay,
    /// Session id 0 or table full; answer an error.
    Rejected,
}

/// The daemon's durability engine: one WAL + snapshot set under one
/// directory, shared by every worker.
pub struct Durability {
    cfg: DurabilityConfig,
    /// Serializes durable ingest (WAL order == per-shard apply order)
    /// and owns the reusable record-encoding buffer.
    ingest: Mutex<Vec<u8>>,
    /// The flush sink's reusable `RowDeltas` encoding buffer.
    deltas: Mutex<Vec<u8>>,
    /// The WAL proper. Leaf lock — see the module docs.
    wal: Mutex<Wal>,
    /// Lock-free mirrors for stats reads (the WAL lock can be held
    /// across an fsync; scrapes must not wait on that).
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    recovery_replayed: AtomicU64,
    torn_truncations: AtomicU64,
    appends_since_snapshot: AtomicU64,
    /// Single-flight guard for periodic snapshots.
    snapshotting: AtomicBool,
}

impl Durability {
    /// Opens the durability dir and runs startup recovery against the
    /// (not-yet-serving) engine and session table: load the newest
    /// valid snapshot, then open the WAL, which replays the suffix
    /// above the snapshot's watermark in the same pass that validates
    /// the log. Replayed report records re-enter through the engine's one
    /// ingest path, so `REPORTS`/`REPORT_BATCHES` stay continuous
    /// across the restart — the recovered daemon's counters describe
    /// everything it has ever durably ingested.
    ///
    /// # Errors
    ///
    /// I/O errors from the WAL/snapshot layers, and corrupt snapshot
    /// payloads (`InvalidData`) — a *torn WAL tail* is repaired, not
    /// an error.
    pub fn open<P: PolicyCore>(
        cfg: DurabilityConfig,
        engine: &ShardedEngine<P>,
        sessions: &SessionTable,
    ) -> io::Result<(Durability, RecoveryStats)> {
        let mut stats = RecoveryStats::default();
        if let Some((watermark, payload)) = load_latest_snapshot(&cfg.dir)? {
            restore_snapshot(&payload, engine, sessions).map_err(invalid_data)?;
            stats.snapshot_watermark = watermark;
        }
        let wal_cfg =
            WalConfig { dir: cfg.dir.clone(), fsync: cfg.fsync, segment_bytes: cfg.segment_bytes };
        let mut scratch = BatchScratch::default();
        let (wal, replayed) =
            Wal::open_replaying(wal_cfg, stats.snapshot_watermark, |_, payload| {
                replay_record(payload, engine, sessions, &mut scratch);
            })?;
        stats.replayed_records = replayed;
        stats.torn_truncations = wal.truncations();
        // Apply below-batch-size remainders now: recovery must leave
        // the published decision snapshots equal to the full log.
        engine.flush();
        let dur = Durability {
            cfg,
            ingest: Mutex::new(Vec::with_capacity(4096)),
            deltas: Mutex::new(Vec::new()),
            wal: Mutex::new(wal),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            recovery_replayed: AtomicU64::new(stats.replayed_records),
            torn_truncations: AtomicU64::new(stats.torn_truncations),
            appends_since_snapshot: AtomicU64::new(0),
            snapshotting: AtomicBool::new(false),
        };
        Ok((dur, stats))
    }

    /// Current counter values for the durability `StatsV2` tags.
    pub fn stats(&self) -> DurStats {
        let r = Ordering::Relaxed;
        DurStats {
            wal_appends: self.wal_appends.load(r),
            wal_bytes: self.wal_bytes.load(r),
            snapshots_written: self.snapshots_written.load(r),
            recovery_replayed_records: self.recovery_replayed.load(r),
            torn_tail_truncations: self.torn_truncations.load(r),
        }
    }

    /// Appends one record; `synced` records honor `fsync = always`
    /// before returning, unsynced ones never wait for the disk.
    fn append(&self, payload: &[u8], synced: bool) -> io::Result<u64> {
        let lsn = {
            let mut wal = self.wal.lock();
            if synced {
                wal.append(payload)?
            } else {
                wal.append_unsynced(payload)?
            }
        };
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes
            .fetch_add(payload.len() as u64 + xar_dur::FRAME_HEADER as u64, Ordering::Relaxed);
        self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Durable unsessioned ingest (v2 `Report`/`BatchReport`, the v1
    /// text `REPORT` line as a one-report batch): journal, then apply.
    /// The ack the caller sends is backed by the log (under
    /// `fsync = always`).
    pub fn ingest_batch<P: PolicyCore>(
        &self,
        engine: &ShardedEngine<P>,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
        obs: Option<&mut Tracer>,
    ) -> io::Result<usize> {
        let mut buf = self.ingest.lock();
        buf.clear();
        encode_report_batch(reports, &mut buf);
        self.append(&buf, true)?;
        Ok(engine.report_batch_wire_obs(scratch, reports, obs))
    }

    /// Durable seq-stamped batch ingest — the restart-safe
    /// exactly-once path. Fresh batches are journaled (one atomic
    /// `SeqBatch` record: reports + advance together) before they are
    /// applied or acked; replays journal a `ReplayNote` so the dedup
    /// count survives a restart too.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest_seq_batch<P: PolicyCore>(
        &self,
        engine: &ShardedEngine<P>,
        sessions: &SessionTable,
        session: u64,
        seq: u64,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
        obs: Option<&mut Tracer>,
    ) -> io::Result<DurableSeqOutcome> {
        let mut buf = self.ingest.lock();
        match sessions.advance(session, seq) {
            None => Ok(DurableSeqOutcome::Rejected),
            Some(SeqOutcome::Replay) => {
                buf.clear();
                encode_replay_note(session, seq, &mut buf);
                self.append(&buf, true)?;
                Ok(DurableSeqOutcome::Replay)
            }
            Some(SeqOutcome::Fresh) => {
                buf.clear();
                encode_seq_batch(session, seq, reports, &mut buf);
                let journaled = self.append(&buf, true);
                // The mark already advanced: apply regardless, so a
                // journal failure degrades durability but never drops
                // a batch the dedup path will refuse to re-ingest.
                // The surfaced error tells the client the disk is
                // sick; its retry dedups cleanly against the mark.
                let n = engine.report_batch_wire_obs(scratch, reports, obs);
                journaled?;
                Ok(DurableSeqOutcome::Fresh(n))
            }
        }
    }

    /// The engine flush sink's target: journals one flush's post-apply
    /// row deltas. Called with a shard state lock held — touches only
    /// the leaf locks, and is best-effort (a delta journaling error
    /// must not fail the flush, and the append is not synced; recovery
    /// rebuilds state from report records, not deltas).
    pub fn note_row_deltas(&self, shard: u32, rows: &mut dyn Iterator<Item = RowRef<'_>>) {
        let mut buf = self.deltas.lock();
        buf.clear();
        encode_row_deltas(shard, rows, &mut buf);
        let _ = self.append(&buf, false);
    }

    /// Maintenance heartbeat: drives `interval_ms` fsyncs and periodic
    /// snapshots. Any worker may call it; snapshots are single-flight.
    pub fn tick<P: PolicyCore>(&self, engine: &ShardedEngine<P>, sessions: &SessionTable) -> bool {
        {
            let mut wal = self.wal.lock();
            let _ = wal.tick_sync();
        }
        if self.cfg.snapshot_every > 0
            && self.appends_since_snapshot.load(Ordering::Relaxed) >= self.cfg.snapshot_every
        {
            return self.snapshot(engine, sessions).unwrap_or(false);
        }
        false
    }

    /// Writes a full snapshot (tmp-then-rename + manifest repoint) and
    /// prunes WAL segments and old snapshots it covers. Returns
    /// `Ok(false)` when the policy does not support state snapshots —
    /// the WAL is then retained from genesis and remains the sole
    /// recovery source.
    pub fn snapshot<P: PolicyCore>(
        &self,
        engine: &ShardedEngine<P>,
        sessions: &SessionTable,
    ) -> io::Result<bool> {
        if self.snapshotting.swap(true, Ordering::Acquire) {
            return Ok(false);
        }
        let result = self.snapshot_inner(engine, sessions);
        self.snapshotting.store(false, Ordering::Release);
        result
    }

    fn snapshot_inner<P: PolicyCore>(
        &self,
        engine: &ShardedEngine<P>,
        sessions: &SessionTable,
    ) -> io::Result<bool> {
        // Hold the ingest lock across the whole capture: no record can
        // enter the WAL between the watermark read and the state
        // serialization, so the snapshot is exactly "every record ≤
        // watermark, nothing more".
        let _ingest = self.ingest.lock();
        let Some(blobs) = engine.save_states() else {
            return Ok(false);
        };
        let watermark = {
            let mut wal = self.wal.lock();
            wal.sync()?;
            wal.next_lsn() - 1
        };
        let sess = sessions.entries();
        let payload =
            encode_snapshot(sessions.opened_total(), sessions.replayed_total(), &sess, &blobs);
        write_snapshot(&self.cfg.dir, watermark, &payload)?;
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.appends_since_snapshot.store(0, Ordering::Relaxed);
        {
            let mut wal = self.wal.lock();
            let _ = wal.prune_through(watermark);
        }
        let _ = prune_snapshots(&self.cfg.dir, KEEP_SNAPSHOTS);
        Ok(true)
    }
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Record payloads, through the wire's codec.

fn encode_report_batch(reports: &[WireReport<'_>], out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    w.u8(REC_REPORT_BATCH);
    w.u32(reports.len() as u32);
    for r in reports {
        w.report(r);
    }
}

fn encode_seq_batch(session: u64, seq: u64, reports: &[WireReport<'_>], out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    w.u8(REC_SEQ_BATCH);
    w.u64(session);
    w.u64(seq);
    w.u32(reports.len() as u32);
    for r in reports {
        w.report(r);
    }
}

fn encode_replay_note(session: u64, seq: u64, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    w.u8(REC_REPLAY_NOTE);
    w.u64(session);
    w.u64(seq);
}

fn encode_row_deltas(shard: u32, rows: &mut dyn Iterator<Item = RowRef<'_>>, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    w.u8(REC_ROW_DELTAS);
    w.u32(shard);
    // The row count precedes the rows; patched in once they are counted.
    let count_at = w.pos();
    w.u32(0);
    let mut count = 0u32;
    for row in rows {
        w.entry(&row);
        count += 1;
    }
    w.patch_u32(count_at, count);
}

/// Decodes a record's `u32`-counted report list, borrowing the names
/// from the payload.
fn decode_reports<'a>(r: &mut Reader<'a>) -> Result<Vec<WireReport<'a>>, WireError> {
    let n = r.count(encoded_report_len(0))?;
    r.list(n, Reader::report)
}

/// Applies one replayed WAL record during recovery. Corrupt payloads
/// (impossible unless the CRC was defeated) are skipped, never fatal.
fn replay_record<P: PolicyCore>(
    payload: &[u8],
    engine: &ShardedEngine<P>,
    sessions: &SessionTable,
    scratch: &mut BatchScratch,
) {
    let mut c = Reader::new(payload);
    let Ok(tag) = c.u8() else { return };
    match tag {
        REC_REPORT_BATCH => {
            let Ok(reports) = decode_reports(&mut c) else { return };
            engine.report_batch_wire(scratch, &reports);
        }
        REC_SEQ_BATCH => {
            let (Ok(session), Ok(seq)) = (c.u64(), c.u64()) else { return };
            let Ok(reports) = decode_reports(&mut c) else { return };
            // Re-stamp through the live dedup path: only a fresh seq
            // re-ingests, so replaying a WAL that overlaps the
            // snapshot (or replaying twice) cannot double-apply.
            if sessions.advance(session, seq) == Some(SeqOutcome::Fresh) {
                engine.report_batch_wire(scratch, &reports);
            }
        }
        REC_REPLAY_NOTE => {
            let (Ok(session), Ok(seq)) = (c.u64(), c.u64()) else { return };
            // Re-counts the journaled dedup exactly once: the seq's
            // own replayed_hwm dedups repeat notes and snapshots.
            let _ = sessions.advance(session, seq);
        }
        // Row deltas feed downstream consumers, not recovery: the
        // table is rebuilt from the report records themselves.
        REC_ROW_DELTAS => {}
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Snapshot payload.

/// One session-table row: id, high-water mark, replayed high-water
/// mark.
const SESSION_LEN: usize = 3 * 8;

fn encode_snapshot(
    opened: u64,
    replayed: u64,
    sessions: &[(u64, u64, u64)],
    blobs: &[Vec<u8>],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + sessions.len() * SESSION_LEN + blobs.iter().map(|b| b.len() + 4).sum::<usize>(),
    );
    let mut w = Writer::new(&mut out);
    w.u8(SNAPSHOT_VERSION);
    w.u64(opened);
    w.u64(replayed);
    w.u32(sessions.len() as u32);
    for &(id, hwm, replayed_hwm) in sessions {
        w.u64(id);
        w.u64(hwm);
        w.u64(replayed_hwm);
    }
    w.u32(blobs.len() as u32);
    for blob in blobs {
        w.u32(blob.len() as u32);
        w.bytes(blob);
    }
    out
}

fn restore_snapshot<P: PolicyCore>(
    payload: &[u8],
    engine: &ShardedEngine<P>,
    sessions: &SessionTable,
) -> Result<(), String> {
    let mut c = Reader::new(payload);
    let version = c.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(format!("unknown snapshot version {version}"));
    }
    let opened = c.u64()?;
    let replayed = c.u64()?;
    let n = c.count(SESSION_LEN)?;
    let sess = c.list(n, |c| Ok((c.u64()?, c.u64()?, c.u64()?)))?;
    // Each blob is at least its u32 length. Borrowed from the payload:
    // each shard parses its blob in place.
    let n = c.count(4)?;
    let blobs = c.list(n, |c| {
        let len = c.u32()? as usize;
        c.take(len)
    })?;
    engine.load_states(&blobs)?;
    sessions.restore_counters(opened, replayed);
    for (id, hwm, replayed_hwm) in sess {
        sessions.restore(id, hwm, replayed_hwm);
    }
    Ok(())
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, TableEntry};
    use std::sync::Arc;
    use xar_desim::{CompletionReport, DecideCtx, Decision, Target};

    /// Toy policy: counts per-app report totals (as `fpga_thr`) so
    /// recovered state is directly observable, with full save/load.
    struct CountPolicy {
        counts: std::collections::BTreeMap<String, u32>,
    }

    impl CountPolicy {
        fn shards(n: usize) -> Vec<CountPolicy> {
            (0..n).map(|_| CountPolicy { counts: Default::default() }).collect()
        }
    }

    impl PolicyCore for CountPolicy {
        type Snap = ();

        fn snapshot(&self) {}

        fn decide(_: &(), _: &DecideCtx<'_>, _: u64) -> Decision {
            Decision::to(Target::X86)
        }

        fn apply(&mut self, report: &CompletionReport<'_>, _: u64) {
            *self.counts.entry(report.app.to_string()).or_insert(0) += 1;
        }

        fn entries(&self) -> Vec<TableEntry> {
            self.counts
                .iter()
                .map(|(app, n)| TableEntry {
                    app: app.clone(),
                    kernel: String::new(),
                    fpga_thr: *n,
                    arm_thr: 0,
                })
                .collect()
        }

        fn row(&self, app: &str, _: u64) -> Option<RowRef<'_>> {
            let (app, n) = self.counts.get_key_value(app)?;
            Some(RowRef { app, kernel: "", fpga_thr: *n, arm_thr: 0 })
        }

        fn save_state(&self) -> Option<Vec<u8>> {
            let mut out = Vec::new();
            let mut w = Writer::new(&mut out);
            w.u32(self.counts.len() as u32);
            for (app, n) in &self.counts {
                w.str(app);
                w.u32(*n);
            }
            Some(out)
        }

        fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            let mut c = Reader::new(bytes);
            let n = c.u32()? as usize;
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..n {
                let app = c.str()?.to_string();
                counts.insert(app, c.u32()?);
            }
            self.counts = counts;
            Ok(())
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xar-sched-dur-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine() -> ShardedEngine<CountPolicy> {
        let cfg = EngineConfig { shards: 4, batch: 2 };
        ShardedEngine::from_shards(CountPolicy::shards(cfg.shards), cfg.batch)
    }

    fn wire(app: &str) -> WireReport<'static> {
        // Leak: test-only convenience for 'static app names.
        WireReport {
            app: Box::leak(app.to_string().into_boxed_str()),
            target: Target::Fpga,
            func_ms: 1.5,
            x86_load: 7,
        }
    }

    fn cfg(dir: &PathBuf) -> DurabilityConfig {
        DurabilityConfig { snapshot_every: 0, ..DurabilityConfig::at(dir) }
    }

    #[test]
    fn wal_replay_restores_engine_and_sessions() {
        let dir = tmp("replay");
        let mut scratch = Default::default();
        {
            let e = engine();
            let sessions = SessionTable::new(8);
            let (d, rec) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
            assert_eq!(rec.replayed_records, 0);
            let batch = [wire("alpha"), wire("beta"), wire("alpha")];
            assert_eq!(
                d.ingest_seq_batch(&e, &sessions, 9, 1, &mut scratch, &batch, None).unwrap(),
                DurableSeqOutcome::Fresh(3)
            );
            // The retry of seq 1 is a replay — journaled as a note.
            assert_eq!(
                d.ingest_seq_batch(&e, &sessions, 9, 1, &mut scratch, &batch, None).unwrap(),
                DurableSeqOutcome::Replay
            );
            d.ingest_batch(&e, &mut scratch, &[wire("gamma")], None).unwrap();
            d.ingest_batch(&e, &mut scratch, &[wire("alpha")], None).unwrap();
        }
        // "Crash": nothing flushed or snapshotted; reopen on the dir.
        let e = engine();
        let sessions = SessionTable::new(8);
        let (_d, rec) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
        assert_eq!(rec.snapshot_watermark, 0);
        assert_eq!(rec.replayed_records, 4, "seq batch + note + batch + single");
        let table = e.table();
        let get = |app: &str| table.iter().find(|t| t.app == app).map(|t| t.fpga_thr);
        assert_eq!(get("alpha"), Some(3));
        assert_eq!(get("beta"), Some(1));
        assert_eq!(get("gamma"), Some(1));
        // Exactly-once across the restart: the recovered mark dedups
        // a late retry, and the journaled dedup was re-counted.
        assert_eq!(sessions.advance(9, 1), Some(SeqOutcome::Replay));
        assert_eq!(sessions.replayed_total(), 1, "the note's dedup, counted once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_counts_and_applies_exactly_like_live_ingest() {
        let dir = tmp("live-path");
        let mut scratch = Default::default();
        let live = engine();
        let sessions = SessionTable::new(8);
        let (d, _) = Durability::open(cfg(&dir), &live, &sessions).unwrap();
        // A one-report batch, a cross-shard batch and a seq batch. The
        // engine batches by 2, so odd remainders strand in the shard
        // queues until the final flush — live and after replay alike.
        let cross = ["alpha", "beta", "gamma", "delta", "beta", "alpha", "epsilon"].map(wire);
        let shards: std::collections::BTreeSet<_> =
            cross.iter().map(|r| crate::engine::shard_of(r.app, live.shard_count())).collect();
        assert!(shards.len() > 1, "the batch must span shards");
        d.ingest_batch(&live, &mut scratch, &[wire("alpha")], None).unwrap();
        d.ingest_batch(&live, &mut scratch, &cross, None).unwrap();
        let seq = [wire("beta"), wire("zeta"), wire("beta")];
        d.ingest_seq_batch(&live, &sessions, 5, 1, &mut scratch, &seq, None).unwrap();
        drop(d);
        live.flush();

        let recovered = engine();
        let (_d, rec) = Durability::open(cfg(&dir), &recovered, &SessionTable::new(8)).unwrap();
        assert_eq!(rec.replayed_records, 3);
        let (want, got) = (live.metrics_total(), recovered.metrics_total());
        assert_eq!(got.reports, 11);
        assert_eq!((got.reports, got.batches), (want.reports, want.batches));
        assert_eq!(recovered.table(), live.table());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_wal_and_recovery_prefers_it() {
        let dir = tmp("snap");
        let mut scratch = Default::default();
        {
            let e = engine();
            let sessions = SessionTable::new(8);
            let (d, _) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
            for seq in 1..=5u64 {
                d.ingest_seq_batch(&e, &sessions, 3, seq, &mut scratch, &[wire("alpha")], None)
                    .unwrap();
            }
            assert!(d.snapshot(&e, &sessions).unwrap());
            // Post-snapshot traffic lands in the WAL suffix.
            d.ingest_seq_batch(&e, &sessions, 3, 6, &mut scratch, &[wire("beta")], None).unwrap();
        }
        let e = engine();
        let sessions = SessionTable::new(8);
        let (d, rec) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
        assert!(rec.snapshot_watermark > 0);
        assert_eq!(rec.replayed_records, 1, "only the suffix replays");
        let table = e.table();
        let get = |app: &str| table.iter().find(|t| t.app == app).map(|t| t.fpga_thr);
        assert_eq!(get("alpha"), Some(5));
        assert_eq!(get("beta"), Some(1));
        assert_eq!(sessions.hello(3).unwrap().last_seq, 6);
        // A second snapshot cycle keeps working after recovery.
        d.ingest_seq_batch(&e, &sessions, 3, 7, &mut scratch, &[wire("alpha")], None).unwrap();
        assert!(d.snapshot(&e, &sessions).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_sink_row_deltas_are_journaled_but_not_replayed() {
        let dir = tmp("deltas");
        let appended;
        {
            let e = Arc::new(engine());
            let sessions = SessionTable::new(8);
            let (d, _) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
            let d = Arc::new(d);
            let sink_d = d.clone();
            e.set_flush_sink(Box::new(move |shard, rows| sink_d.note_row_deltas(shard, rows)));
            let mut scratch = Default::default();
            // batch=2 ⇒ the second alpha report triggers a flush whose
            // deltas hit the sink (while a shard lock is held — this
            // also exercises the ingest→state→wal lock order).
            d.ingest_batch(&e, &mut scratch, &[wire("alpha"), wire("alpha")], None).unwrap();
            e.flush();
            appended = d.stats().wal_appends;
            assert!(appended >= 2, "batch record + at least one delta record");
        }
        let e = engine();
        let sessions = SessionTable::new(8);
        let (_d, rec) = Durability::open(cfg(&dir), &e, &sessions).unwrap();
        assert_eq!(rec.replayed_records, appended, "all records replayed (deltas skipped inside)");
        let table = e.table();
        assert_eq!(table.iter().find(|t| t.app == "alpha").map(|t| t.fpga_thr), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What replay or a restore could change: the table, the reports
    /// ingested, the session table and its counters.
    type State = (Vec<TableEntry>, u64, Vec<(u64, u64, u64)>, u64, u64);

    fn state(e: &ShardedEngine<CountPolicy>, sessions: &SessionTable) -> State {
        e.flush();
        let reports = e.metrics_total().reports;
        (e.table(), reports, sessions.entries(), sessions.opened_total(), sessions.replayed_total())
    }

    /// Every strict prefix of every record kind is skipped whole, as
    /// the module docs promise; the whole record then applies.
    #[test]
    fn a_truncated_record_changes_nothing() {
        let e = engine();
        let sessions = SessionTable::new(8);
        let mut scratch = BatchScratch::default();
        e.report_batch_wire(&mut scratch, &[wire("alpha")]);
        assert_eq!(sessions.advance(3, 1), Some(SeqOutcome::Fresh));
        let reports = [wire("alpha"), wire("beta")];
        let row = RowRef { app: "alpha", kernel: "k", fpga_thr: 1, arm_thr: 2 };
        let mut records = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        encode_report_batch(&reports, &mut records[0]);
        encode_seq_batch(3, 2, &reports, &mut records[1]);
        encode_replay_note(3, 1, &mut records[2]);
        encode_row_deltas(0, &mut [row, row].into_iter(), &mut records[3]);
        for record in &records {
            let before = state(&e, &sessions);
            for cut in 0..record.len() {
                replay_record(&record[..cut], &e, &sessions, &mut scratch);
                assert_eq!(state(&e, &sessions), before, "tag {}: {cut}-byte prefix", record[0]);
            }
            replay_record(record, &e, &sessions, &mut scratch);
            let applies = record[0] != REC_ROW_DELTAS;
            assert_eq!(state(&e, &sessions) != before, applies, "tag {}: whole", record[0]);
        }
    }

    /// Every strict prefix of a snapshot payload is refused before the
    /// engine or the session table is touched; the whole one restores.
    #[test]
    fn a_truncated_snapshot_payload_is_refused_before_anything_is_restored() {
        let (live, sessions) = (engine(), SessionTable::new(8));
        live.report_batch_wire(&mut BatchScratch::default(), &["alpha", "beta", "gamma"].map(wire));
        live.flush();
        sessions.advance(4, 2);
        sessions.advance(9, 1);
        sessions.advance(9, 1);
        let payload = encode_snapshot(
            sessions.opened_total(),
            sessions.replayed_total(),
            &sessions.entries(),
            &live.save_states().unwrap(),
        );
        let (e, restored) = (engine(), SessionTable::new(8));
        let empty = state(&e, &restored);
        for cut in 0..payload.len() {
            assert!(restore_snapshot(&payload[..cut], &e, &restored).is_err(), "{cut} bytes");
            assert_eq!(state(&e, &restored), empty, "{cut}-byte prefix");
        }
        restore_snapshot(&payload, &e, &restored).unwrap();
        assert_eq!(e.table(), live.table());
        assert_eq!(restored.entries(), sessions.entries());
        assert_eq!(restored.replayed_total(), 1);
    }

    /// The WAL's record decoder shares the wire's name decoder and its
    /// verdicts: a report record whose names are random bytes of every
    /// UTF-8 class decodes to exactly the names `std::str::from_utf8`
    /// makes of them and replays, or — when any name is not UTF-8 — is
    /// refused and skipped whole, its reports unapplied and its seq
    /// not stamped.
    #[test]
    fn wal_name_fast_path_changes_no_replay_verdict() {
        let mut rng = crate::wire::name_bytes::Rng(0x5EED_0DA1);
        let e = ShardedEngine::from_shards(CountPolicy::shards(3), 1);
        let sessions = SessionTable::new(8);
        let mut scratch = BatchScratch::default();
        let mut want = std::collections::BTreeMap::<String, u32>::new();
        let (mut replayed, mut skipped, mut last_seq) = (0, 0, 0);
        for case in 0..3000u64 {
            let names: Vec<Vec<u8>> =
                (0..1 + rng.below(4)).map(|_| crate::wire::name_bytes::name(&mut rng)).collect();
            let seq = case + 1;
            let mut payload = Vec::new();
            if case % 2 == 0 {
                payload.push(REC_REPORT_BATCH);
            } else {
                payload.push(REC_SEQ_BATCH);
                payload.extend_from_slice(&7u64.to_le_bytes());
                payload.extend_from_slice(&seq.to_le_bytes());
            }
            let reports_at = payload.len();
            payload.extend_from_slice(&(names.len() as u32).to_le_bytes());
            for name in &names {
                payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
                payload.extend_from_slice(name);
                payload.push(crate::wire::target_to_byte(Target::Fpga));
                payload.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
                payload.extend_from_slice(&7u32.to_le_bytes());
            }
            let reference: Result<Vec<&str>, _> =
                names.iter().map(|n| std::str::from_utf8(n)).collect();
            let decoded = decode_reports(&mut Reader::new(&payload[reports_at..]));
            match (&decoded, &reference) {
                (Ok(got), Ok(names)) => {
                    assert_eq!(got.iter().map(|r| r.app).collect::<Vec<_>>(), *names, "{case}");
                    names.iter().for_each(|n| *want.entry(n.to_string()).or_default() += 1);
                    if case % 2 == 1 {
                        last_seq = seq;
                    }
                    replayed += 1;
                }
                (Err(_), Err(_)) => skipped += 1,
                _ => panic!("case {case}: {names:?} decoded {decoded:?}, want {reference:?}"),
            }
            replay_record(&payload, &e, &sessions, &mut scratch);
        }
        assert!(replayed > 500 && skipped > 500, "{replayed} replayed, {skipped} skipped");
        let got: std::collections::BTreeMap<String, u32> =
            e.table().into_iter().map(|t| (t.app, t.fpga_thr)).collect();
        assert_eq!(got, want, "replay applied exactly the records that decode");
        assert_eq!(sessions.hello(7).unwrap().last_seq, last_seq, "a skipped seq is not stamped");
    }
}
