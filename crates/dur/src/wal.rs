//! The append-only write-ahead log.
//!
//! A WAL directory holds segment files `wal-<first-lsn>.log`, each a
//! run of framed records ([`crate::record`]). LSNs (log sequence
//! numbers) start at 1 and are assigned per record, never reused; a
//! segment is named by the LSN of its first record, so the segment
//! chain alone reconstructs every record's LSN without an index.
//!
//! Crash behavior is the whole point: opening walks the chain,
//! validates every record, and on the first invalid one (torn tail,
//! bit flip, or a length gone absurd) truncates the file there and
//! discards any later segments — the longest valid prefix wins, the
//! daemon starts, and the truncation is counted for the
//! `TORN_TAIL_TRUNCATIONS` stat rather than hidden.
//!
//! Recovery is that same walk: [`Wal::open_replaying`] hands each
//! record above the caller's watermark to a sink the moment its own
//! checksum has passed, so a restart reads and checks every segment
//! once. Delivery therefore stops exactly where the truncation lands;
//! nothing beyond a tear — in that segment or a later one — is ever
//! delivered. [`Wal::open`] is the walk with nothing to deliver.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::record::{decode_record, encode_record, RecordError};

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append — an acked write survives a crash.
    Always,
    /// fsync at most every `N` ms (driven by the owner's maintenance
    /// tick) — bounded loss window, near-`Off` append cost.
    IntervalMs(u64),
    /// Never fsync explicitly; the OS flushes when it pleases. For
    /// benchmarks and tests of the non-durability paths.
    Off,
}

/// WAL tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one reaches this
    /// size (bytes). Rotation is also the pruning granularity.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Sensible defaults rooted at `dir`: 8 MiB segments, fsync on
    /// every append.
    pub fn at(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig { dir: dir.into(), fsync: FsyncPolicy::Always, segment_bytes: 8 << 20 }
    }
}

/// One segment of the open chain.
#[derive(Debug, Clone)]
struct Segment {
    start_lsn: u64,
    path: PathBuf,
}

/// The open write-ahead log.
pub struct Wal {
    cfg: WalConfig,
    /// All live segments, ascending by `start_lsn`; the last is the
    /// one being appended to.
    segments: Vec<Segment>,
    /// Append handle on the last segment.
    file: File,
    /// Bytes currently in the last segment.
    seg_len: u64,
    /// LSN the next append receives.
    next_lsn: u64,
    /// Unsynced appends outstanding.
    dirty: bool,
    last_sync: Instant,
    /// Reusable frame-encoding buffer.
    buf: Vec<u8>,
    appended_records: u64,
    appended_bytes: u64,
    /// Torn-tail truncation events performed while opening.
    truncations: u64,
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:020}.log"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Flushes directory metadata (file creations/removals/renames) so the
/// entries themselves survive a crash, not just the file contents.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// What [`walk_segment`] found in one segment.
struct Walked {
    /// Length of the valid record prefix.
    valid: usize,
    /// Whether the walk stopped at an invalid record rather than at
    /// the end of the bytes.
    torn: bool,
    /// Records handed to the sink.
    delivered: u64,
}

/// Walks the framed records at the head of one segment's `bytes`, the
/// first of which is record `*lsn`: each record whose checksum passes
/// advances `*lsn`, and is handed to `f` first if it lies above
/// `after`.
fn walk_segment(bytes: &[u8], lsn: &mut u64, after: u64, f: &mut impl FnMut(u64, &[u8])) -> Walked {
    let (mut at, mut delivered) = (0usize, 0u64);
    loop {
        match decode_record(&bytes[at..]) {
            Ok((payload, n)) => {
                if *lsn > after {
                    f(*lsn, payload);
                    delivered += 1;
                }
                at += n;
                *lsn += 1;
            }
            Err(e) => {
                let clean_end = e == RecordError::Truncated && at == bytes.len();
                return Walked { valid: at, torn: !clean_end, delivered };
            }
        }
    }
}

impl Wal {
    /// Opens (or initializes) the WAL under `cfg.dir`, repairing any
    /// torn tail: the first invalid record — wherever it is in the
    /// chain — becomes the new end of the log, the file is truncated
    /// there, and later segments are discarded. Never panics on
    /// corrupt input; unreadable directories surface as `Err`.
    pub fn open(cfg: WalConfig) -> io::Result<Wal> {
        Wal::open_replaying(cfg, u64::MAX, |_, _| {}).map(|(wal, _)| wal)
    }

    /// [`Wal::open`] that also replays, in the same pass over the
    /// files: every record with LSN strictly greater than `after` is
    /// handed to `f(lsn, payload)` in LSN order as soon as its own
    /// checksum has validated. Returns the open log and the number of
    /// records delivered — exactly the valid prefix the repaired log
    /// holds above `after`.
    pub fn open_replaying(
        cfg: WalConfig,
        after: u64,
        mut f: impl FnMut(u64, &[u8]),
    ) -> io::Result<(Wal, u64)> {
        fs::create_dir_all(&cfg.dir)?;
        let mut segments: Vec<Segment> = fs::read_dir(&cfg.dir)?
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name();
                let start_lsn = parse_segment_name(name.to_str()?)?;
                Some(Segment { start_lsn, path: e.path() })
            })
            .collect();
        segments.sort_by_key(|s| s.start_lsn);

        let (mut truncations, mut delivered) = (0u64, 0u64);
        // Pruning may have removed head segments, so the chain starts
        // wherever the oldest surviving segment says it does — only
        // contiguity from there on is required.
        let mut next_lsn = segments.first().map_or(1, |s| s.start_lsn);
        let mut keep = Vec::with_capacity(segments.len());
        let mut chain_broken = false;
        for seg in segments {
            if chain_broken || seg.start_lsn != next_lsn {
                // A gap (or anything after a repaired tear) cannot be
                // assigned LSNs — discard it rather than guess.
                truncations += 1;
                chain_broken = true;
                fs::remove_file(&seg.path)?;
                continue;
            }
            let walked = walk_segment(&fs::read(&seg.path)?, &mut next_lsn, after, &mut f);
            delivered += walked.delivered;
            if walked.torn {
                // Torn or corrupt tail: keep the valid prefix.
                truncations += 1;
                chain_broken = true;
                let file = OpenOptions::new().write(true).open(&seg.path)?;
                file.set_len(walked.valid as u64)?;
                file.sync_all()?;
            }
            keep.push(seg);
        }
        if truncations > 0 {
            fsync_dir(&cfg.dir)?;
        }
        if keep.is_empty() {
            let path = segment_path(&cfg.dir, next_lsn);
            File::create(&path)?.sync_all()?;
            fsync_dir(&cfg.dir)?;
            keep.push(Segment { start_lsn: next_lsn, path });
        }
        let last = keep.last().expect("at least one segment");
        let file = OpenOptions::new().append(true).open(&last.path)?;
        let seg_len = file.metadata()?.len();
        let wal = Wal {
            file,
            seg_len,
            next_lsn,
            segments: keep,
            cfg,
            dirty: false,
            last_sync: Instant::now(),
            buf: Vec::with_capacity(4096),
            appended_records: 0,
            appended_bytes: 0,
            truncations,
        };
        Ok((wal, delivered))
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended through this handle (not counting recovered
    /// history).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Bytes appended through this handle, framing included.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Torn-tail truncation events opening performed.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Appends one record, returning its LSN. Durability follows the
    /// configured [`FsyncPolicy`]; rotation happens after the append
    /// that crosses `segment_bytes`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let lsn = self.append_unsynced(payload)?;
        if matches!(self.cfg.fsync, FsyncPolicy::Always) {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// [`Wal::append`] for a record no ack depends on: it never waits
    /// for the disk, even under [`FsyncPolicy::Always`]. The next
    /// synced append, [`Wal::tick_sync`] or rotation makes it durable
    /// (all of them sync the whole file).
    pub fn append_unsynced(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.buf.clear();
        encode_record(payload, &mut self.buf);
        self.file.write_all(&self.buf)?;
        self.seg_len += self.buf.len() as u64;
        self.appended_bytes += self.buf.len() as u64;
        self.appended_records += 1;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.dirty = true;
        if self.seg_len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(lsn)
    }

    /// Forces outstanding appends to disk regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// The owner's maintenance heartbeat: under `IntervalMs(n)`, syncs
    /// once `n` ms have passed since the last sync; under `Always`,
    /// syncs whatever [`Wal::append_unsynced`] left behind. No-op
    /// under `Off`.
    pub fn tick_sync(&mut self) -> io::Result<()> {
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed().as_millis() as u64 >= ms,
            FsyncPolicy::Off => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // A rotated-out segment is immutable history: make it (and its
        // directory entry) durable now even under lazy policies, so a
        // later crash can only tear the *current* segment.
        self.file.sync_data()?;
        self.dirty = false;
        let path = segment_path(&self.cfg.dir, self.next_lsn);
        let f = File::create(&path)?;
        f.sync_all()?;
        fsync_dir(&self.cfg.dir)?;
        self.segments.push(Segment { start_lsn: self.next_lsn, path });
        self.file = OpenOptions::new().append(true).open(&self.segments.last().unwrap().path)?;
        self.seg_len = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Re-reads a live handle's log: every record with LSN strictly
    /// greater than `after`, in LSN order, to `f(lsn, payload)`.
    /// Returns the number of records delivered. Unsynced appends are
    /// flushed first so the caller observes everything this handle
    /// wrote. (A restart replays through [`Wal::open_replaying`]
    /// instead, without this second read.)
    pub fn replay_after(&mut self, after: u64, mut f: impl FnMut(u64, &[u8])) -> io::Result<u64> {
        self.sync()?;
        let mut delivered = 0u64;
        for seg in &self.segments {
            // Every segment is read and validated, whatever the
            // watermark; only delivery is filtered by it.
            let mut lsn = seg.start_lsn;
            delivered += walk_segment(&fs::read(&seg.path)?, &mut lsn, after, &mut f).delivered;
        }
        Ok(delivered)
    }

    /// Drops segments made entirely of records with LSN ≤ `watermark`
    /// (the snapshot's covered prefix). The active segment is never
    /// removed. Returns the number of segments pruned.
    pub fn prune_through(&mut self, watermark: u64) -> io::Result<usize> {
        let mut pruned = 0;
        while self.segments.len() > 1 {
            // First segment's records end where the second begins.
            let end_lsn = self.segments[1].start_lsn - 1;
            if end_lsn > watermark {
                break;
            }
            let seg = self.segments.remove(0);
            fs::remove_file(&seg.path)?;
            pruned += 1;
        }
        if pruned > 0 {
            fsync_dir(&self.cfg.dir)?;
        }
        Ok(pruned)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xar-dur-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn collect(wal: &mut Wal, after: u64) -> Vec<(u64, Vec<u8>)> {
        let mut got = Vec::new();
        wal.replay_after(after, |lsn, p| got.push((lsn, p.to_vec()))).unwrap();
        got
    }

    /// Reopens through the single-pass constructor. What it delivered
    /// while validating must be what re-reading the repaired log
    /// delivers afterwards.
    fn reopen(cfg: WalConfig, after: u64) -> (Wal, Vec<(u64, Vec<u8>)>) {
        let mut got = Vec::new();
        let (mut wal, n) =
            Wal::open_replaying(cfg, after, |lsn, p| got.push((lsn, p.to_vec()))).unwrap();
        assert_eq!(n as usize, got.len());
        assert_eq!(collect(&mut wal, after), got, "single pass and re-read disagree");
        (wal, got)
    }

    #[test]
    fn append_replay_roundtrip_across_reopen() {
        let dir = tmp("roundtrip");
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap();
        assert_eq!(wal.append(b"one").unwrap(), 1);
        assert_eq!(wal.append(b"two").unwrap(), 2);
        drop(wal);
        let (wal, all) = reopen(WalConfig::at(&dir), 0);
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(wal.truncations(), 0);
        assert_eq!(all, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        drop(wal);
        assert_eq!(reopen(WalConfig::at(&dir), 1).1, vec![(2, b"two".to_vec())]);
        // A plain open delivers nothing and leaves the same log.
        assert_eq!(collect(&mut Wal::open(WalConfig::at(&dir)).unwrap(), 0), all);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_appends_wait_for_the_next_sync_point() {
        let dir = tmp("unsynced");
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap(); // fsync = always
        assert_eq!(wal.append_unsynced(b"delta").unwrap(), 1);
        assert!(wal.dirty, "an unsynced append must not pay the fsync");
        assert_eq!(wal.append(b"acked").unwrap(), 2);
        assert!(!wal.dirty, "a synced append covers everything before it");
        wal.append_unsynced(b"trailing delta").unwrap();
        wal.tick_sync().unwrap();
        assert!(!wal.dirty, "the maintenance tick syncs an unsynced tail under `always`");
        // Same bytes and LSNs on disk as three plain appends.
        drop(wal);
        assert_eq!(
            reopen(WalConfig::at(&dir), 0).1,
            vec![(1, b"delta".to_vec()), (2, b"acked".to_vec()), (3, b"trailing delta".to_vec())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_preserves_lsns_and_pruning_respects_the_watermark() {
        let dir = tmp("rotate");
        let mut cfg = WalConfig::at(&dir);
        cfg.segment_bytes = 32; // rotate every couple of records
        let mut wal = Wal::open(cfg.clone()).unwrap();
        for i in 1..=20u64 {
            assert_eq!(wal.append(&i.to_le_bytes()).unwrap(), i);
        }
        assert!(wal.segments.len() > 2, "tiny segments must have rotated");
        let all = collect(&mut wal, 0);
        assert_eq!(all.len(), 20);
        assert_eq!(all.first().unwrap().0, 1);
        assert_eq!(all.last().unwrap().0, 20);
        wal.prune_through(10).unwrap();
        let tail = collect(&mut wal, 0);
        // Pruning is segment-granular: nothing above the watermark may
        // vanish, and fully-covered head segments must be gone.
        for lsn in 11..=20u64 {
            assert!(tail.iter().any(|(l, _)| *l == lsn), "lsn {lsn} lost by pruning");
        }
        assert!(tail.first().unwrap().0 > 1, "fully-covered head segment pruned");
        // Reopen agrees with the pruned chain.
        drop(wal);
        let (wal, reopened) = reopen(cfg, 0);
        assert_eq!(wal.next_lsn(), 21);
        assert_eq!(reopened, tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap();
        wal.append(b"keep-1").unwrap();
        wal.append(b"keep-2").unwrap();
        wal.append(b"doomed").unwrap();
        let seg = wal.segments.last().unwrap().path.clone();
        drop(wal);
        // Tear mid-way through the last record.
        let bytes = fs::read(&seg).unwrap();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(bytes.len() as u64 - 3).unwrap();
        drop(f);
        let (mut wal, got) = reopen(WalConfig::at(&dir), 0);
        assert_eq!(wal.truncations(), 1);
        assert_eq!(wal.next_lsn(), 3, "valid prefix survives, torn record gone");
        assert_eq!(got, vec![(1, b"keep-1".to_vec()), (2, b"keep-2".to_vec())]);
        // And the log accepts appends again at the repaired LSN.
        assert_eq!(wal.append(b"after-repair").unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_the_middle_truncates_from_the_flip() {
        let dir = tmp("flip");
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap();
        for i in 0..5u8 {
            wal.append(&[i; 16]).unwrap();
        }
        let seg = wal.segments.last().unwrap().path.clone();
        drop(wal);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        let (wal, got) = reopen(WalConfig::at(&dir), 0);
        assert_eq!(wal.truncations(), 1);
        assert!(got.len() < 5, "the flipped record and everything after it is gone");
        for (i, (lsn, p)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(p, &[i as u8; 16]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_is_a_tear_not_a_panic() {
        let dir = tmp("oversize");
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap();
        wal.append(b"good").unwrap();
        let seg = wal.segments.last().unwrap().path.clone();
        drop(wal);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xFF; 20]);
        fs::write(&seg, &bytes).unwrap();
        let (wal, got) = reopen(WalConfig::at(&dir), 0);
        assert_eq!(wal.truncations(), 1);
        assert_eq!(got, vec![(1, b"good".to_vec())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_discards_the_unanchored_suffix() {
        let dir = tmp("gap");
        let mut cfg = WalConfig::at(&dir);
        cfg.segment_bytes = 32;
        let mut wal = Wal::open(cfg.clone()).unwrap();
        for i in 1..=12u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        assert!(wal.segments.len() >= 3);
        let victim = wal.segments[1].path.clone();
        drop(wal);
        fs::remove_file(victim).unwrap();
        let (wal, got) = reopen(cfg, 0);
        assert!(wal.truncations() >= 1);
        // Only the contiguous prefix before the hole survives.
        assert!(!got.is_empty());
        assert_eq!(got.last().unwrap().0, got.len() as u64);
        assert_eq!(wal.next_lsn(), got.len() as u64 + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tear_in_a_middle_segment_delivers_nothing_beyond_it() {
        let dir = tmp("mid-tear");
        let mut cfg = WalConfig::at(&dir);
        cfg.segment_bytes = 48; // three 16-byte records per segment
        let mut wal = Wal::open(cfg.clone()).unwrap();
        for i in 1..=12u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(wal.segments.len(), 5, "four full segments and the empty active one");
        let (victim, victim_start) = (wal.segments[1].path.clone(), wal.segments[1].start_lsn);
        assert_eq!(victim_start, 4);
        drop(wal);
        // Flip a payload bit of the victim's second record (LSN 5): its
        // first record and the whole first segment stay valid; LSN 5,
        // the rest of the segment and both later segments — every one
        // of them intact on disk — must not be delivered.
        let mut bytes = fs::read(&victim).unwrap();
        bytes[16 + crate::FRAME_HEADER] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        let (wal, got) = reopen(cfg.clone(), 2);
        assert_eq!(got, vec![(3, 3u64.to_le_bytes().to_vec()), (4, 4u64.to_le_bytes().to_vec())]);
        assert_eq!(wal.next_lsn(), 5);
        assert_eq!(wal.truncations(), 4, "one tear, three segments discarded after it");
        assert_eq!(wal.segments.len(), 2);
        assert_eq!(fs::metadata(&victim).unwrap().len(), 16, "truncated at the flipped record");
        drop(wal);
        // The repair is durable: a second open finds a clean log.
        let (wal, again) = reopen(cfg, 0);
        assert_eq!(wal.truncations(), 0);
        assert_eq!(again.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
