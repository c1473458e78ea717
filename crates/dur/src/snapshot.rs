//! Atomic whole-state snapshots plus the `MANIFEST`.
//!
//! A snapshot `snap-<watermark>.bin` is one framed record
//! ([`crate::record`]) whose payload is the owner's serialized state
//! as of WAL watermark `<watermark>` — every WAL record with LSN ≤
//! watermark is folded in; recovery replays only the suffix above it.
//!
//! Write protocol: payload → `.tmp` file → fsync → atomic rename →
//! directory fsync → rewrite `MANIFEST` (same tmp-then-rename dance).
//! A crash at any step leaves either the old snapshot set or the new
//! one — never a half-written file that parses.
//!
//! The `MANIFEST` is a one-line pointer (`snapshot <file> watermark
//! <lsn>`) naming the active pair; [`load_latest_snapshot`] prefers
//! it but falls back to scanning `snap-*.bin` newest-first, so a
//! manifest lost to a crash only costs the shortcut, not the data. A
//! snapshot whose checksum fails is skipped in favor of the next
//! newest — "load newest *valid* snapshot" is literal.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::record::{decode_record, encode_record, FRAME_HEADER};
use crate::wal::fsync_dir;

const MANIFEST: &str = "MANIFEST";

fn snapshot_path(dir: &Path, watermark: u64) -> PathBuf {
    dir.join(format!("snap-{watermark:020}.bin"))
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?.strip_suffix(".bin")?.parse().ok()
}

/// Writes `payload` as the snapshot covering WAL prefix ≤ `watermark`
/// and repoints the `MANIFEST` at it. Returns the snapshot's path.
pub fn write_snapshot(dir: &Path, watermark: u64, payload: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let mut framed = Vec::with_capacity(payload.len() + 16);
    encode_record(payload, &mut framed);
    let path = snapshot_path(dir, watermark);
    let tmp = dir.join(format!("snap-{watermark:020}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    let manifest_tmp = dir.join("MANIFEST.tmp");
    let line = format!(
        "xar-dur v1\nsnapshot {} watermark {watermark}\n",
        path.file_name().and_then(|n| n.to_str()).unwrap_or_default()
    );
    {
        let mut f = File::create(&manifest_tmp)?;
        f.write_all(line.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&manifest_tmp, dir.join(MANIFEST))?;
    fsync_dir(dir)?;
    Ok(path)
}

/// Reads the manifest's `(snapshot file, watermark)` pointer, if the
/// manifest exists and parses.
fn manifest_pointer(dir: &Path) -> Option<(PathBuf, u64)> {
    let text = fs::read_to_string(dir.join(MANIFEST)).ok()?;
    let mut lines = text.lines();
    if lines.next()? != "xar-dur v1" {
        return None;
    }
    let mut parts = lines.next()?.split_whitespace();
    if parts.next()? != "snapshot" {
        return None;
    }
    let file = parts.next()?;
    if parts.next()? != "watermark" {
        return None;
    }
    let watermark = parts.next()?.parse().ok()?;
    Some((dir.join(file), watermark))
}

/// Validates and unwraps one snapshot file's payload.
fn read_snapshot(path: &Path) -> Option<Vec<u8>> {
    let mut bytes = fs::read(path).ok()?;
    let (_, n) = decode_record(&bytes).ok()?;
    // Trailing garbage after the frame means the file is not one we
    // wrote whole — treat it as invalid.
    if n != bytes.len() {
        return None;
    }
    // The payload is the file minus its frame header: shift it down in
    // the buffer already read rather than copy it into a second one.
    bytes.drain(..FRAME_HEADER);
    Some(bytes)
}

/// Loads the newest *valid* snapshot: the manifest's pointee when it
/// checks out, else every `snap-*.bin` newest-first until one's
/// checksum passes. Returns `(watermark, payload)`; `None` when no
/// valid snapshot exists (fresh dir, or all corrupt — recovery then
/// replays the WAL from its start).
pub fn load_latest_snapshot(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    if !dir.exists() {
        return Ok(None);
    }
    if let Some((path, watermark)) = manifest_pointer(dir) {
        if parse_snapshot_name(path.file_name().and_then(|n| n.to_str()).unwrap_or_default())
            == Some(watermark)
        {
            if let Some(payload) = read_snapshot(&path) {
                return Ok(Some((watermark, payload)));
            }
        }
    }
    let mut candidates: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|e| parse_snapshot_name(e.ok()?.file_name().to_str()?))
        .collect();
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    for watermark in candidates {
        if let Some(payload) = read_snapshot(&snapshot_path(dir, watermark)) {
            return Ok(Some((watermark, payload)));
        }
    }
    Ok(None)
}

/// Removes all but the `keep` newest snapshot files.
pub fn prune_snapshots(dir: &Path, keep: usize) -> io::Result<usize> {
    let mut watermarks: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|e| parse_snapshot_name(e.ok()?.file_name().to_str()?))
        .collect();
    watermarks.sort_unstable_by(|a, b| b.cmp(a));
    let mut pruned = 0;
    for wm in watermarks.into_iter().skip(keep.max(1)) {
        fs::remove_file(snapshot_path(dir, wm))?;
        pruned += 1;
    }
    if pruned > 0 {
        fsync_dir(dir)?;
    }
    Ok(pruned)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xar-dur-snap-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_load_returns_the_newest() {
        let dir = tmp("roundtrip");
        assert_eq!(load_latest_snapshot(&dir).unwrap(), None);
        write_snapshot(&dir, 5, b"old state").unwrap();
        write_snapshot(&dir, 9, b"new state").unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((9, b"new state".to_vec())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_valid() {
        let dir = tmp("fallback");
        write_snapshot(&dir, 3, b"good").unwrap();
        let newest = write_snapshot(&dir, 8, b"doomed").unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((3, b"good".to_vec())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_only_loses_the_shortcut() {
        let dir = tmp("manifestless");
        write_snapshot(&dir, 12, b"state").unwrap();
        fs::remove_file(dir.join(MANIFEST)).unwrap();
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((12, b"state".to_vec())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_keeps_the_newest() {
        let dir = tmp("prune");
        for wm in [1, 4, 7, 11] {
            write_snapshot(&dir, wm, b"s").unwrap();
        }
        assert_eq!(prune_snapshots(&dir, 2).unwrap(), 2);
        assert_eq!(load_latest_snapshot(&dir).unwrap(), Some((11, b"s".to_vec())));
        assert!(!snapshot_path(&dir, 1).exists());
        assert!(!snapshot_path(&dir, 4).exists());
        assert!(snapshot_path(&dir, 7).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
