//! Torn-write property tests over the WAL layers.
//!
//! Three claims, each load-bearing for crash recovery:
//!
//! 1. Record framing round-trips arbitrary payload runs bit-exactly.
//! 2. Any single-bit flip anywhere in a framed run is detected — no
//!    flipped record is ever delivered as valid.
//! 3. A WAL whose final segment is truncated at *every possible byte
//!    offset* opens without panicking and always replays a valid
//!    prefix of what was appended (and nothing else) — through the
//!    single-pass constructor recovery uses, which must deliver exactly
//!    what re-reading the repaired log then yields.

use proptest::prelude::*;
use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use xar_dur::{decode_record, encode_record, RecordError, Wal, WalConfig};

fn tmp(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xar-dur-prop-{tag}-{case}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payloads() -> BoxedStrategy<Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..12).boxed()
}

/// Drains a buffer of framed records back into payloads.
fn decode_all(mut buf: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Ok((p, n)) = decode_record(buf) {
        out.push(p.to_vec());
        buf = &buf[n..];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: encode → decode round-trips a whole run bit-exactly.
    #[test]
    fn record_runs_roundtrip(ps in payloads()) {
        let mut buf = Vec::new();
        for p in &ps {
            encode_record(p, &mut buf);
        }
        prop_assert_eq!(&decode_all(&buf), &ps);
    }

    /// Claim 2: a single bit flip anywhere in the run either corrupts
    /// a record (detected) or truncates the decodable run — it never
    /// yields the original payloads plus/minus silent damage.
    #[test]
    fn single_bit_flip_never_passes_validation(
        ps in payloads(),
        flip in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        for p in &ps {
            encode_record(p, &mut buf);
        }
        let bit = (flip % (buf.len() as u64 * 8)) as usize;
        buf[bit / 8] ^= 1 << (bit % 8);
        // Walk the flipped run: every record delivered as valid must
        // be byte-identical to the original at that position, and the
        // walk must stop (Corrupt/Oversized/Truncated) before or at
        // the flipped record — the flip itself is never delivered.
        let mut rest: &[u8] = &buf;
        let mut i = 0usize;
        let mut consumed = 0usize;
        loop {
            match decode_record(rest) {
                Ok((p, n)) => {
                    prop_assert!(i < ps.len(), "decoded more records than were written");
                    prop_assert_eq!(p, &ps[i][..], "a delivered record differs from the original");
                    // A record entirely before the flip is untouched;
                    // one overlapping the flip must not have decoded.
                    prop_assert!(
                        bit / 8 >= consumed + n || bit / 8 < consumed,
                        "the flipped record decoded as valid"
                    );
                    consumed += n;
                    i += 1;
                    rest = &rest[n..];
                }
                Err(RecordError::Truncated) if rest.is_empty() => break,
                Err(_) => break,
            }
        }
    }

    /// Claim 3: truncating the segment at EVERY byte offset, opening,
    /// and replaying never panics and always yields a prefix of the
    /// appended records.
    #[test]
    fn truncation_at_every_offset_recovers_a_valid_prefix(
        (ps, case) in (payloads(), any::<u64>()),
    ) {
        let dir = tmp("trunc", case);
        let mut wal = Wal::open(WalConfig::at(&dir)).unwrap();
        for p in &ps {
            wal.append(p).unwrap();
        }
        drop(wal);
        let seg: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                p.file_name()?.to_str()?.starts_with("wal-").then_some(p)
            })
            .collect();
        prop_assert_eq!(seg.len(), 1, "default segment size: everything in one file");
        let full = fs::read(&seg[0]).unwrap();
        for cut in 0..=full.len() {
            fs::write(&seg[0], &full[..cut]).unwrap();
            let mut got = Vec::new();
            let (mut wal, delivered) =
                Wal::open_replaying(WalConfig::at(&dir), 0, |_, p| got.push(p.to_vec())).unwrap();
            prop_assert_eq!(delivered as usize, got.len());
            let mut reread = Vec::new();
            wal.replay_after(0, |_, p| reread.push(p.to_vec())).unwrap();
            prop_assert_eq!(&reread, &got, "single pass and re-read disagree at cut {}", cut);
            prop_assert!(got.len() <= ps.len());
            prop_assert_eq!(&got[..], &ps[..got.len()], "replay is not a prefix at cut {}", cut);
            // A mid-record cut must have been counted and repaired.
            if got.len() < ps.len() && cut > 0 {
                prop_assert!(
                    wal.truncations() <= 1,
                    "one tear, at most one truncation event"
                );
            }
            drop(wal);
            // Undo the repair's set_len for the next iteration.
            let f = OpenOptions::new().write(true).open(&seg[0]).unwrap();
            f.set_len(0).unwrap();
            drop(f);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
