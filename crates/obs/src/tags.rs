//! The `StatsV2` tag registry.
//!
//! Every counter the daemon exports over the self-describing `StatsV2`
//! wire op is identified by a stable `u16` tag. Tags are append-only:
//! once shipped, an id is never reused or renamed, so old clients keep
//! decoding new daemons (they skip unknown tags — the frame is
//! self-delimiting) and new clients keep decoding old daemons (absent
//! tags are simply absent). Adding a counter means adding one constant
//! and one row here — never a wire version bump.
//!
//! The same registry names the `DUMP` exposition lines (`xar_<name>`),
//! which is what keeps the text endpoint and the wire op in lockstep.

/// Total decides served (sum over shards and stripes).
pub const DECIDES: u16 = 1;
/// Total telemetry reports ingested.
pub const REPORTS: u16 = 2;
/// Batches applied by shard flushes.
pub const REPORT_BATCHES: u16 = 3;
/// `DecideBatch` frames served.
pub const DECIDE_BATCH_FRAMES: u16 = 4;
/// Decides that chose the ARM target.
pub const TO_ARM: u16 = 5;
/// Decides that chose the FPGA target.
pub const TO_FPGA: u16 = 6;
/// Decides that requested an FPGA reconfiguration.
pub const RECONFIGS: u16 = 7;
/// Latency observations recorded (1-in-64 sampled).
pub const LAT_SAMPLES: u16 = 8;
/// Sampled decide latency p50 upper bound, nanoseconds.
pub const DECIDE_P50_NS: u16 = 9;
/// Sampled decide latency p99 upper bound, nanoseconds.
pub const DECIDE_P99_NS: u16 = 10;
/// Currently open connections.
pub const LIVE_CONNS: u16 = 11;
/// Connections ever accepted.
pub const ACCEPTED_CONNS: u16 = 12;
/// Connections reaped (close, error, idle, write-stall).
pub const REAPED_CONNS: u16 = 13;
/// Connections refused by admission control.
pub const REJECTED_CONNS: u16 = 14;
/// Policy shards in the engine.
pub const SHARDS: u16 = 15;
/// Worker threads serving connections.
pub const WORKERS: u16 = 16;
/// Trace events emitted (all kinds).
pub const TRACE_EVENTS: u16 = 17;
/// Trace events dropped by full rings.
pub const TRACE_DROPPED: u16 = 18;
/// Sampled decides over the slow-decide threshold.
pub const SLOW_DECIDES: u16 = 19;
/// Backpressure pauses (outbuf crossed high water).
pub const BACKPRESSURE_PAUSES: u16 = 20;
/// Backpressure releases (outbuf drained).
pub const BACKPRESSURE_RESUMES: u16 = 21;
/// Protocol errors (malformed/oversized frames, runaway lines).
pub const PROTOCOL_ERRORS: u16 = 22;
/// Whole-frame decide-batch latency p50, nanoseconds (sampled).
pub const DECIDE_BATCH_P50_NS: u16 = 23;
/// Whole-frame decide-batch latency p99, nanoseconds (sampled).
pub const DECIDE_BATCH_P99_NS: u16 = 24;
/// Batch apply-loop latency p50, nanoseconds.
pub const REPORT_BATCH_P50_NS: u16 = 25;
/// Batch apply-loop latency p99, nanoseconds.
pub const REPORT_BATCH_P99_NS: u16 = 26;
/// Snapshot publication latency p50, nanoseconds.
pub const FLUSH_PUBLISH_P50_NS: u16 = 27;
/// Snapshot publication latency p99, nanoseconds.
pub const FLUSH_PUBLISH_P99_NS: u16 = 28;
/// Flush-publish events (shard snapshot republications).
pub const FLUSH_PUBLISHES: u16 = 29;
/// Rows (reports) folded in across all flush-publishes.
pub const FLUSH_ROWS: u16 = 30;
/// Operator-assigned daemon identity (`ServerConfig::daemon_id`).
pub const DAEMON_ID: u16 = 31;
/// Seconds since the daemon started serving.
pub const UPTIME_SECS: u16 = 32;
/// Time-series samples currently held in the per-tick rings.
pub const SERIES_SLOTS: u16 = 33;
/// Acceptor retry-loop throttles on persistent `accept()` failure.
pub const ACCEPT_THROTTLES: u16 = 34;
/// Workload requests refused with `R_BUSY` by overload shedding.
pub const SHED_BUSY: u16 = 35;
/// Peers quarantined for repeated protocol errors.
pub const QUARANTINES: u16 = 36;
/// Report sessions registered (`HELLO_SESSION` slot claims).
pub const SESSIONS_OPENED: u16 = 37;
/// Seq-stamped report batches acked without re-ingesting (replays).
pub const REPLAYED_BATCHES: u16 = 38;
/// Records appended to the durability WAL.
pub const WAL_APPENDS: u16 = 39;
/// Bytes (frame headers included) appended to the durability WAL.
pub const WAL_BYTES: u16 = 40;
/// Durability snapshots written (periodic + clean shutdown).
pub const SNAPSHOTS_WRITTEN: u16 = 41;
/// WAL records replayed by the last startup recovery.
pub const RECOVERY_REPLAYED_RECORDS: u16 = 42;
/// Torn WAL tails truncated during recovery.
pub const TORN_TAIL_TRUNCATIONS: u16 = 43;
/// The share of `accepted_conns` that arrived over the daemon's local
/// (abstract Unix-socket) listener rather than TCP.
pub const ACCEPTED_LOCAL_CONNS: u16 = 44;

/// Every registered tag with its exposition name, ascending by id.
pub const TAGS: &[(u16, &str)] = &[
    (DECIDES, "decides"),
    (REPORTS, "reports"),
    (REPORT_BATCHES, "report_batches"),
    (DECIDE_BATCH_FRAMES, "decide_batch_frames"),
    (TO_ARM, "to_arm"),
    (TO_FPGA, "to_fpga"),
    (RECONFIGS, "reconfigs"),
    (LAT_SAMPLES, "lat_samples"),
    (DECIDE_P50_NS, "decide_p50_ns"),
    (DECIDE_P99_NS, "decide_p99_ns"),
    (LIVE_CONNS, "live_conns"),
    (ACCEPTED_CONNS, "accepted_conns"),
    (REAPED_CONNS, "reaped_conns"),
    (REJECTED_CONNS, "rejected_conns"),
    (SHARDS, "shards"),
    (WORKERS, "workers"),
    (TRACE_EVENTS, "trace_events"),
    (TRACE_DROPPED, "trace_dropped"),
    (SLOW_DECIDES, "slow_decides"),
    (BACKPRESSURE_PAUSES, "backpressure_pauses"),
    (BACKPRESSURE_RESUMES, "backpressure_resumes"),
    (PROTOCOL_ERRORS, "protocol_errors"),
    (DECIDE_BATCH_P50_NS, "decide_batch_p50_ns"),
    (DECIDE_BATCH_P99_NS, "decide_batch_p99_ns"),
    (REPORT_BATCH_P50_NS, "report_batch_p50_ns"),
    (REPORT_BATCH_P99_NS, "report_batch_p99_ns"),
    (FLUSH_PUBLISH_P50_NS, "flush_publish_p50_ns"),
    (FLUSH_PUBLISH_P99_NS, "flush_publish_p99_ns"),
    (FLUSH_PUBLISHES, "flush_publishes"),
    (FLUSH_ROWS, "flush_rows"),
    (DAEMON_ID, "daemon_id"),
    (UPTIME_SECS, "uptime_secs"),
    (SERIES_SLOTS, "series_slots"),
    (ACCEPT_THROTTLES, "accept_throttles"),
    (SHED_BUSY, "shed_busy"),
    (QUARANTINES, "quarantines"),
    (SESSIONS_OPENED, "sessions_opened"),
    (REPLAYED_BATCHES, "replayed_batches"),
    (WAL_APPENDS, "wal_appends"),
    (WAL_BYTES, "wal_bytes"),
    (SNAPSHOTS_WRITTEN, "snapshots_written"),
    (RECOVERY_REPLAYED_RECORDS, "recovery_replayed_records"),
    (TORN_TAIL_TRUNCATIONS, "torn_tail_truncations"),
    (ACCEPTED_LOCAL_CONNS, "accepted_local_conns"),
];

/// Exposition name for a tag, or `None` for ids this build predates.
pub fn tag_name(tag: u16) -> Option<&'static str> {
    TAGS.binary_search_by_key(&tag, |&(id, _)| id).ok().map(|i| TAGS[i].1)
}

/// Prometheus metric kind of a registered tag, for `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    /// Monotone cumulative count.
    Counter,
    /// Point-in-time value (quantiles, sizes, identities).
    Gauge,
}

impl TagKind {
    /// The exposition keyword (`counter` / `gauge`).
    pub fn as_str(self) -> &'static str {
        match self {
            TagKind::Counter => "counter",
            TagKind::Gauge => "gauge",
        }
    }
}

/// Metric kind for a tag, or `None` for ids this build predates.
/// Everything is a counter unless listed here as a gauge — quantile
/// snapshots, sizes and identities are instantaneous readings.
pub fn tag_kind(tag: u16) -> Option<TagKind> {
    tag_name(tag)?;
    Some(match tag {
        DECIDE_P50_NS
        | DECIDE_P99_NS
        | LIVE_CONNS
        | SHARDS
        | WORKERS
        | DECIDE_BATCH_P50_NS
        | DECIDE_BATCH_P99_NS
        | REPORT_BATCH_P50_NS
        | REPORT_BATCH_P99_NS
        | FLUSH_PUBLISH_P50_NS
        | FLUSH_PUBLISH_P99_NS
        | DAEMON_ID
        | UPTIME_SECS
        | SERIES_SLOTS
        | RECOVERY_REPLAYED_RECORDS => TagKind::Gauge,
        _ => TagKind::Counter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_sorted_unique_and_named() {
        let mut ids = HashSet::new();
        let mut names = HashSet::new();
        for w in TAGS.windows(2) {
            assert!(w[0].0 < w[1].0, "TAGS must be ascending for binary search");
        }
        for &(id, name) in TAGS {
            assert!(ids.insert(id), "duplicate tag id {id}");
            assert!(names.insert(name), "duplicate tag name {name}");
            assert!(!name.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "exposition-safe name: {name}"
            );
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert_eq!(tag_name(DECIDES), Some("decides"));
        assert_eq!(tag_name(FLUSH_ROWS), Some("flush_rows"));
        assert_eq!(tag_name(SERIES_SLOTS), Some("series_slots"));
        assert_eq!(tag_name(REPLAYED_BATCHES), Some("replayed_batches"));
        assert_eq!(tag_name(WAL_APPENDS), Some("wal_appends"));
        assert_eq!(tag_name(TORN_TAIL_TRUNCATIONS), Some("torn_tail_truncations"));
        assert_eq!(tag_name(0), None);
        assert_eq!(tag_name(u16::MAX), None);
    }

    #[test]
    fn every_tag_has_a_kind_and_unknown_ids_do_not() {
        for &(id, _) in TAGS {
            assert!(tag_kind(id).is_some(), "tag {id} missing a kind");
        }
        assert_eq!(tag_kind(DECIDES), Some(TagKind::Counter));
        assert_eq!(tag_kind(DECIDE_P99_NS), Some(TagKind::Gauge));
        assert_eq!(tag_kind(DAEMON_ID), Some(TagKind::Gauge));
        assert_eq!(tag_kind(UPTIME_SECS), Some(TagKind::Gauge));
        assert_eq!(tag_kind(SHED_BUSY), Some(TagKind::Counter));
        assert_eq!(tag_kind(REPLAYED_BATCHES), Some(TagKind::Counter));
        assert_eq!(tag_kind(WAL_APPENDS), Some(TagKind::Counter));
        assert_eq!(tag_kind(SNAPSHOTS_WRITTEN), Some(TagKind::Counter));
        // The recovery record count is a per-boot reading, not a
        // monotone lifetime total.
        assert_eq!(tag_kind(RECOVERY_REPLAYED_RECORDS), Some(TagKind::Gauge));
        assert_eq!(tag_kind(0), None);
        assert_eq!(tag_kind(u16::MAX), None);
        assert_eq!(TagKind::Counter.as_str(), "counter");
        assert_eq!(TagKind::Gauge.as_str(), "gauge");
    }
}
