//! What is on disk and on the routing path is pinned: the tables may
//! change shape, the bytes and the shard a name lands on may not.
//!
//! Every constant and every file under `crates/sched/tests/fixtures/`
//! was generated at the commit *before* the threshold table became a
//! row slab and recovery a single pass over the WAL. Nothing here
//! regenerates them: a failing assertion prints what the running code
//! produced, and the writers below (`write_wal_trace`,
//! `write_snapshot_boot`) are how the directories were made:
//!
//! * `shard_of` on a fixed name list at 1/2/7/8/64 shards — snapshot
//!   blobs are per shard, so a name that moves shards orphans its row;
//! * `ThresholdTable::to_text` of out-of-order inserts;
//! * `save_state` blob bytes (length + FNV-1a digest) for the five
//!   paper apps and for a 1 000-row shard after a fixed report trace;
//! * `fixtures/wal-trace/`: the WAL a daemon killed after a fixed v1 +
//!   v2 report trace left behind. The running code must recover it to
//!   the recorded table / session marks / record count, *and* write the
//!   same segment bytes from the same trace (`fsync` off and always);
//! * `fixtures/snapshot-boot/`: the same daemon shut down cleanly
//!   (final snapshot), restarted, fed a second trace and killed —
//!   snapshot + manifest + WAL suffix, recovered and rewritten alike;
//! * one v2 frame per live request and reply op, as hex, encoded and
//!   decoded both ways. These were recorded later, at the commit
//!   before the wire's cursor pair became the one codec of the WAL,
//!   the snapshot and the state blob.

mod common;

use common::{paper_policy, scratch_dir, spawn};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xar_trek::core::server::{
    sharded_engine, EngineConfig, SchedulerClient, ServerConfig, V2Client,
};
use xar_trek::core::thresholds::{ScenarioTimes, ThresholdEntry, ThresholdTable};
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::Decision;
use xar_trek::desim::{CompletionReport, Target};
use xar_trek::sched::client::Served;
use xar_trek::sched::wire::{
    decode_request, decode_response, encode_request, encode_response, frame_in, op, HistDump,
    Request, Response, StatsV2, WireEntry, WireQuery, WireReport,
};
use xar_trek::sched::{
    shard_of, Durability, DurabilityConfig, FsyncPolicy, PolicyCore, SessionTable, TableEntry,
};

const APPS: [&str; 5] = ["CG-A", "FaceDet320", "FaceDet640", "Digit500", "Digit2000"];
const ENGINE: EngineConfig = EngineConfig { shards: 8, batch: 1 };
const TARGETS: [Target; 3] = [Target::X86, Target::Arm, Target::Fpga];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sched/tests/fixtures")
}

/// Every file of a durability directory, by name.
fn read_dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for (name, bytes) in read_dir_bytes(from) {
        std::fs::write(to.join(name), bytes).unwrap();
    }
}

// ---------------------------------------------------------------------------
// (a) routing

const SHARD_NAMES: [&str; 12] = [
    "CG-A",
    "FaceDet320",
    "FaceDet640",
    "Digit500",
    "Digit2000",
    "app-000000",
    "app-000001",
    "app-004999",
    "app-009999",
    "",
    "x",
    "a-rather-longer-application-name/with:punctuation",
];

/// `shard_of(name, n)` for `n` in 1, 2, 7, 8, 64, one row per name.
const SHARD_GOLDEN: [[usize; 5]; 12] = [
    [0, 1, 3, 5, 5],
    [0, 0, 5, 4, 28],
    [0, 1, 6, 1, 33],
    [0, 1, 0, 1, 1],
    [0, 0, 0, 4, 20],
    [0, 1, 0, 3, 59],
    [0, 0, 4, 0, 8],
    [0, 0, 6, 2, 18],
    [0, 1, 2, 7, 15],
    [0, 1, 2, 5, 37],
    [0, 1, 3, 7, 7],
    [0, 1, 6, 1, 49],
];

#[test]
fn shard_of_routes_every_name_where_the_parent_did() {
    for (name, want) in SHARD_NAMES.iter().zip(SHARD_GOLDEN) {
        let got = [1, 2, 7, 8, 64].map(|n| shard_of(name, n));
        assert_eq!(got, want, "{name:?} moved shards");
    }
}

// ---------------------------------------------------------------------------
// (d) the text format

#[test]
fn to_text_of_out_of_order_inserts_is_sorted_by_app() {
    let mut table = ThresholdTable::new();
    for (app, kernel, fpga_thr, arm_thr) in [
        ("zeta", "KNL_Z", 3, 4),
        ("Alpha", "KNL_A", 0, 9),
        ("mid", "KNL_M", 7, 7),
        ("alpha", "KNL_a", 1, 2),
        ("zeta", "KNL_Z2", 30, 40), // replaces, keeps its place in the order
        ("app-10", "K10", 5, 6),
        ("app-9", "K9", 8, 9),
    ] {
        table.insert(ThresholdEntry { app: app.into(), kernel: kernel.into(), fpga_thr, arm_thr });
    }
    let want = "# app kernel fpga_thr arm_thr\n\
                Alpha KNL_A 0 9\n\
                alpha KNL_a 1 2\n\
                app-10 K10 5 6\n\
                app-9 K9 8 9\n\
                mid KNL_M 7 7\n\
                zeta KNL_Z2 30 40\n";
    assert_eq!(table.to_text(), want);
    let apps: Vec<&str> = table.iter().map(|r| r.app).collect();
    assert_eq!(apps, ["Alpha", "alpha", "app-10", "app-9", "mid", "zeta"]);
}

// ---------------------------------------------------------------------------
// (b) the policy state blob

/// A 1 000-row policy whose names all land on shard 3 of 8, rows
/// inserted in a scrambled order, bent by a fixed report trace.
fn synthetic_shard() -> XarTrekPolicy {
    let names: Vec<String> =
        (0..).map(|i| format!("app-{i:06}")).filter(|n| shard_of(n, 8) == 3).take(1000).collect();
    let mut table = ThresholdTable::new();
    let mut times = HashMap::new();
    for k in 0..names.len() {
        let i = (k * 389) % names.len(); // 389 is coprime to 1000: a permutation
        table.insert(ThresholdEntry {
            app: names[i].clone(),
            kernel: format!("KNL_{i:04}"),
            fpga_thr: (i % 50) as u32,
            arm_thr: (i % 70) as u32,
        });
        times.insert(
            Arc::from(names[i].as_str()),
            ScenarioTimes { x86_ms: 100.0 + i as f64, fpga_ms: 20.0, arm_ms: 60.0 },
        );
    }
    let mut p = XarTrekPolicy::new(table, times);
    p.thr_step = 2;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..5000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        p.algorithm1(&CompletionReport {
            app: &names[(x >> 33) as usize % names.len()],
            target: TARGETS[(x >> 20) as usize % 3],
            func_ms: 10.0 + ((x >> 8) % 120) as f64,
            x86_load: (x % 80) as usize,
        });
    }
    p
}

/// `(length, FNV-1a)` of `save_state`: the five paper apps as
/// estimated, the synthetic shard after its trace.
const BLOB_GOLDEN: [(usize, u64); 2] =
    [(346, 0xEC80_03B8_36E6_4247), (66_015, 0xA764_4F78_11E3_6D7B)];

#[test]
fn save_state_blobs_are_byte_identical_to_the_parent() {
    for (policy, want) in [paper_policy(), synthetic_shard()].iter().zip(BLOB_GOLDEN) {
        let blob = policy.save_state().expect("xar-trek snapshots its state");
        assert_eq!((blob.len(), fnv1a(&blob)), want, "save_state bytes drifted");
        // And the blob loads back to a state that saves the same bytes.
        let mut restored = XarTrekPolicy::new(ThresholdTable::new(), HashMap::new());
        restored.load_state(&blob).unwrap();
        assert_eq!(restored.save_state().unwrap(), blob, "load_state lost something");
    }
}

// ---------------------------------------------------------------------------
// (c) the durability directories

fn durable(dir: &Path, fsync: FsyncPolicy) -> ServerConfig {
    let mut config = common::durable(dir, fsync, 0);
    config.durability.as_mut().unwrap().segment_bytes = 1024; // several segments from a small trace
    config
}

/// One deterministic report: app, target, time and load all drawn from
/// `i`, slow and fast runs mixed so Algorithm 1 takes every branch.
fn report(i: u64) -> WireReport<'static> {
    WireReport {
        app: APPS[(i * 7 % 5) as usize],
        target: TARGETS[(i % 3) as usize],
        func_ms: if i.is_multiple_of(4) { 1e6 } else { 0.5 + i as f64 },
        x86_load: (i * 11 % 40) as u32,
    }
}

/// Seq batches `seqs` of session `session`, 1–5 reports each.
fn seq_batches(client: &mut V2Client, session: u64, seqs: std::ops::RangeInclusive<u64>) {
    for seq in seqs {
        let batch: Vec<_> = (0..1 + seq % 5).map(|k| report(session * 100 + seq * 5 + k)).collect();
        let ack = client.report_batch_seq(session, seq, &batch).unwrap();
        assert_eq!(ack, Served::Done(batch.len() as u32), "session {session} seq {seq}");
    }
}

/// The first trace: v1 `REPORT` lines, two v2 sessions, a retried
/// (deduped) batch, an unsessioned v2 report — one request at a time,
/// so the WAL order is the program order.
fn phase1(addr: std::net::SocketAddr) {
    let mut v1 = SchedulerClient::connect(addr).unwrap();
    for i in 0..6 {
        let r = report(i);
        v1.report(r.app, r.target, r.func_ms, r.x86_load as usize).unwrap();
    }
    let mut v2 = V2Client::connect(addr).unwrap();
    assert_eq!(v2.hello_session(7).unwrap(), 0);
    seq_batches(&mut v2, 7, 1..=9);
    let retry = [report(1)];
    assert_eq!(v2.report_batch_seq(7, 4, &retry).unwrap(), Served::Done(0), "seq 4 is a replay");
    assert_eq!(v2.hello_session(12).unwrap(), 0);
    seq_batches(&mut v2, 12, 1..=4);
    let r = report(99);
    v2.report(r.app, r.target, r.func_ms, r.x86_load).unwrap();
}

/// The second trace, for the daemon restarted on its own snapshot.
fn phase2(addr: std::net::SocketAddr) {
    let mut v2 = V2Client::connect(addr).unwrap();
    assert_eq!(v2.hello_session(7).unwrap(), 9, "mark restored from the snapshot");
    seq_batches(&mut v2, 7, 10..=12);
    let mut v1 = SchedulerClient::connect(addr).unwrap();
    let r = report(200);
    v1.report(r.app, r.target, r.func_ms, r.x86_load as usize).unwrap();
    assert_eq!(v2.hello_session(12).unwrap(), 4);
    seq_batches(&mut v2, 12, 5..=5);
}

/// `wal-trace`: phase 1, then an abrupt kill.
fn write_wal_trace(dir: &Path, fsync: FsyncPolicy) {
    let daemon = spawn(ENGINE, durable(dir, fsync));
    phase1(daemon.addr());
    daemon.kill();
}

/// `snapshot-boot`: phase 1, a clean shutdown (final snapshot, WAL
/// pruned), a restart on the directory, phase 2, an abrupt kill.
fn write_snapshot_boot(dir: &Path, fsync: FsyncPolicy) {
    let daemon = spawn(ENGINE, durable(dir, fsync));
    phase1(daemon.addr());
    daemon.shutdown();
    let daemon = spawn(ENGINE, durable(dir, fsync));
    phase2(daemon.addr());
    daemon.kill();
}

/// What a directory recovers to, through `Durability::open` on a fresh
/// engine: (snapshot watermark, replayed records, torn truncations),
/// session marks, table.
type Recovered = ((u64, u64, u64), Vec<(u64, u64)>, Vec<TableEntry>);

fn recover(fixture: &Path) -> Recovered {
    // Opening a directory may repair or append to it: work on a copy.
    let dir = scratch_dir("recover");
    copy_dir(fixture, &dir);
    let engine = sharded_engine(&paper_policy(), ENGINE);
    let sessions = SessionTable::new(64);
    let cfg = DurabilityConfig { snapshot_every: 0, ..DurabilityConfig::at(&dir) };
    let (_dur, rec) = Durability::open(cfg, &engine, &sessions).unwrap();
    let marks =
        [7, 12].iter().map(|&id| (id, sessions.hello(id).expect("room").last_seq)).collect();
    let out = (
        (rec.snapshot_watermark, rec.replayed_records, rec.torn_truncations),
        marks,
        engine.table(),
    );
    let seed = sharded_engine(&paper_policy(), ENGINE).table();
    assert_ne!(out.2, seed, "the fixture's reports must have moved the estimator's table");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn rows(rows: &[(&str, &str, u32, u32)]) -> Vec<TableEntry> {
    rows.iter()
        .map(|&(app, kernel, fpga_thr, arm_thr)| TableEntry {
            app: app.into(),
            kernel: kernel.into(),
            fpga_thr,
            arm_thr,
        })
        .collect()
}

#[test]
fn parent_written_wal_directory_recovers_to_the_recorded_state() {
    let (stats, marks, table) = recover(&fixtures().join("wal-trace"));
    assert_eq!(stats, (0, 62, 0), "(watermark, replayed records, torn truncations)");
    assert_eq!(marks, [(7, 9), (12, 4)]);
    assert_eq!(
        table,
        rows(&[
            ("CG-A", "KNL_HW_CG_A", 4, 27),
            ("Digit2000", "KNL_HW_DR200", 3, 13),
            ("Digit500", "KNL_HW_DR500", 0, 17),
            ("FaceDet320", "KNL_HW_FD320", 13, 23),
            ("FaceDet640", "KNL_HW_FD640", 4, 23),
        ])
    );
}

#[test]
fn parent_written_snapshot_directory_recovers_to_the_recorded_state() {
    let (stats, marks, table) = recover(&fixtures().join("snapshot-boot"));
    assert_eq!(stats, (62, 13, 0), "(watermark, replayed records, torn truncations)");
    assert_eq!(marks, [(7, 12), (12, 5)]);
    assert_eq!(
        table,
        rows(&[
            ("CG-A", "KNL_HW_CG_A", 6, 29),
            ("Digit2000", "KNL_HW_DR200", 3, 13),
            ("Digit500", "KNL_HW_DR500", 0, 17),
            ("FaceDet320", "KNL_HW_FD320", 13, 23),
            ("FaceDet640", "KNL_HW_FD640", 4, 23),
        ])
    );
}

/// The same traces through the running code leave the parent's bytes
/// behind: every segment, the snapshot and the manifest.
#[test]
fn fixed_traces_write_the_parent_s_bytes() {
    type Writer = fn(&Path, FsyncPolicy);
    let cases: [(&str, Writer); 2] =
        [("wal-trace", write_wal_trace), ("snapshot-boot", write_snapshot_boot)];
    for (name, write) in cases {
        let want = read_dir_bytes(&fixtures().join(name));
        for fsync in [FsyncPolicy::Off, FsyncPolicy::Always] {
            let dir = scratch_dir(name);
            write(&dir, fsync);
            let got = read_dir_bytes(&dir);
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{name} ({fsync:?}): file set"
            );
            for (file, bytes) in &got {
                assert!(
                    bytes == &want[file],
                    "{name} ({fsync:?}): {file} differs from the parent's"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// (e) the v2 frames

/// One frame per request op, header included, as hex: the length,
/// the opcode, then the body field by field.
fn request_goldens() -> Vec<(Request<'static>, &'static str)> {
    let report = |app, target, func_ms, x86_load| WireReport { app, target, func_ms, x86_load };
    vec![
        (
            Request::Decide {
                app: "FaceDet320",
                kernel: "KNL_HW_FD320",
                x86_load: 42,
                arm_load: 7,
                kernel_resident: true,
                device_ready: false,
            },
            "24000000 01 0a00 46616365446574333230 0c00 \
            4b4e4c5f48575f4644333230 2a000000 07000000 01",
        ),
        (
            Request::BatchReport(vec![
                report("CG-A", Target::Arm, 1300.5, 9),
                report("", Target::Fpga, -0.0, u32::MAX),
            ]),
            "25000000 03 0200 0400 43472d41 01 0000000000529440 09000000 0000 \
            02 0000000000000080 ffffffff",
        ),
        (Request::Table, "01000000 04"),
        (Request::Ping(0x0123_4567_89AB_CDEF), "09000000 05 efcdab8967452301"),
        (
            Request::DecideBatch(vec![
                WireQuery {
                    app: "Digit2000",
                    kernel: "KNL_HW_DR200",
                    x86_load: 1,
                    arm_load: 0x0102_0304,
                    kernel_resident: false,
                    device_ready: true,
                },
                WireQuery {
                    app: "é",
                    kernel: "",
                    x86_load: u32::MAX,
                    arm_load: 0,
                    kernel_resident: true,
                    device_ready: true,
                },
            ]),
            "34000000 07 0200 0900 446967697432303030 0c00 \
            4b4e4c5f48575f4452323030 01000000 04030201 02 0200 c3a9 0000 \
            ffffffff 00000000 03",
        ),
        (Request::StatsV2, "01000000 08"),
        (Request::HistDump, "01000000 09"),
        (Request::HelloSession { session: 0xFEED_F00D }, "09000000 0a 0df0edfe00000000"),
        (
            Request::BatchReportSeq {
                session: 7,
                seq: u64::MAX - 1,
                reports: vec![report("Digit500", Target::X86, 0.25, 40)],
            },
            "2a000000 0b 0700000000000000 feffffffffffffff 0100 0800 \
            4469676974353030 00 000000000000d03f 28000000",
        ),
    ]
}

/// One frame per reply op, header included, as hex.
fn response_goldens() -> Vec<(Response<'static>, &'static str)> {
    vec![
        (Response::Decide { target: Target::Fpga, reconfigure: true }, "03000000 81 02 01"),
        (Response::Ack(0x0A0B_0C0D), "05000000 82 0d0c0b0a"),
        (
            Response::Table(vec![
                WireEntry { app: "CG-A", kernel: "KNL_HW_CG_A", fpga_thr: 4, arm_thr: 27 },
                WireEntry { app: "x", kernel: "", fpga_thr: u32::MAX, arm_thr: 0 },
            ]),
            "2b000000 84 0200 0400 43472d41 0b00 4b4e4c5f48575f43475f41 \
            04000000 1b000000 0100 78 0000 ffffffff 00000000",
        ),
        (Response::Pong(1), "09000000 85 0100000000000000"),
        (
            Response::DecideBatch(vec![
                Decision { target: Target::Arm, reconfigure: false },
                Decision { target: Target::X86, reconfigure: true },
            ]),
            "07000000 87 0200 01 00 00 01",
        ),
        (
            Response::StatsV2(StatsV2 { pairs: vec![(1, 42), (0xBEEF, u64::MAX)] }),
            "17000000 88 0200 0100 2a00000000000000 efbe ffffffffffffffff",
        ),
        (
            Response::HistDump(HistDump { classes: vec![(1, vec![3, 0, 5]), (9, vec![])] }),
            "23000000 89 0200 0100 0300 0300000000000000 0000000000000000 \
            0500000000000000 0900 0000",
        ),
        (Response::Session { last_seq: 12 }, "09000000 8a 0c00000000000000"),
        (Response::Busy { retry_after_ms: 250 }, "05000000 8b fa000000"),
        (
            Response::Err("unknown opcode 0x02"),
            "16000000 ff 1300 756e6b6e6f776e206f70636f64652030783032",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes a golden spells out; the spaces between its fields are
/// for the reader.
fn unhex(golden: &str) -> Vec<u8> {
    let digits: String = golden.split_whitespace().collect();
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
        .collect()
}

/// The payload of `bytes`, which must hold exactly one frame.
fn payload(bytes: &[u8]) -> &[u8] {
    let (total, range) = frame_in(bytes).unwrap().expect("a whole frame");
    assert_eq!(total, bytes.len(), "one frame, nothing after it");
    &bytes[range]
}

/// Every v2 frame is pinned byte for byte, both ways: the running
/// encoder writes the recorded bytes, and the running decoder reads
/// the recorded bytes back to the value. A round-trip alone cannot see
/// a layout change made in the encoder and the decoder together.
#[test]
fn v2_frames_are_byte_identical_to_the_parent() {
    let mut ops = Vec::new();
    for (req, want) in request_goldens() {
        let mut got = Vec::new();
        encode_request(&req, &mut got);
        assert_eq!(hex(&got), hex(&unhex(want)), "{req:?} encodes to other bytes");
        let bytes = unhex(want);
        assert_eq!(decode_request(payload(&bytes)), Ok(req), "{want} decodes to another value");
        ops.push(bytes[4]);
    }
    for (resp, want) in response_goldens() {
        let mut got = Vec::new();
        encode_response(&resp, &mut got);
        assert_eq!(hex(&got), hex(&unhex(want)), "{resp:?} encodes to other bytes");
        let bytes = unhex(want);
        assert_eq!(decode_response(payload(&bytes)), Ok(resp), "{want} decodes to another value");
        ops.push(bytes[4]);
    }
    // One frame per live op: the retired ids, and 0x83 that no op
    // ever held, carry none.
    let retired = [op::REPORT, op::STATS, op::R_STATS, 0x83];
    let live: Vec<u8> =
        (0x01..=0x0B).chain(0x81..=0x8B).chain([0xFF]).filter(|o| !retired.contains(o)).collect();
    assert_eq!(ops, live);
}
