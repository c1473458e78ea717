//! Property tests of the v2 wire codec: every request and response
//! opcode — including the `DecideBatch` / `R_DECIDE_BATCH` pair —
//! must round-trip `encode → frame → decode` bit-exactly for random
//! payloads (names of every shape, extreme loads, empty and full-ish
//! batches).

use proptest::prelude::*;
use xar_trek::desim::{Decision, Target};
use xar_trek::sched::wire::{
    decode_request, decode_response, encode_request, encode_response, frame_in, Request, Response,
    StatsV2, WireEntry, WireQuery, WireReport, MAX_FRAME,
};

fn target_from(i: u8) -> Target {
    match i % 3 {
        0 => Target::X86,
        1 => Target::Arm,
        _ => Target::Fpga,
    }
}

/// Owned spec of one report; the borrowed wire struct is built in the
/// property body (wire strings borrow from the receive buffer, so the
/// strategies generate owned backing data).
type ReportSpec = (String, u8, f64, u32);

fn report<'a>(spec: &'a ReportSpec) -> WireReport<'a> {
    WireReport { app: &spec.0, target: target_from(spec.1), func_ms: spec.2, x86_load: spec.3 }
}

type QuerySpec = ((String, String), (u32, u32), (bool, bool));

fn query<'a>(spec: &'a QuerySpec) -> WireQuery<'a> {
    WireQuery {
        app: &spec.0 .0,
        kernel: &spec.0 .1,
        x86_load: spec.1 .0,
        arm_load: spec.1 .1,
        kernel_resident: spec.2 .0,
        device_ready: spec.2 .1,
    }
}

type EntrySpec = ((String, String), (u32, u32));

fn name() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        "[a-z0-9_-]{1,12}".prop_map(|s| s),
        "[A-Z]{1,3}".prop_map(|s| s),
    ]
    .boxed()
}

fn report_spec() -> BoxedStrategy<ReportSpec> {
    (name(), any::<u8>(), (0.0f64..1e12), any::<u32>())
        .prop_map(|(a, t, f, l)| (a, t, f, l))
        .boxed()
}

fn query_spec() -> BoxedStrategy<QuerySpec> {
    ((name(), name()), (any::<u32>(), any::<u32>()), (any::<bool>(), any::<bool>()))
        .prop_map(|s| s)
        .boxed()
}

fn roundtrip_req(req: &Request<'_>) -> Result<(), proptest::TestCaseError> {
    let mut buf = Vec::new();
    encode_request(req, &mut buf);
    let (total, range) = frame_in(&buf).unwrap().expect("complete frame");
    prop_assert_eq!(total, buf.len(), "frame length disagrees with the buffer");
    prop_assert_eq!(&decode_request(&buf[range]).unwrap(), req);
    Ok(())
}

fn roundtrip_resp(resp: &Response<'_>) -> Result<(), proptest::TestCaseError> {
    let mut buf = Vec::new();
    encode_response(resp, &mut buf);
    let (total, range) = frame_in(&buf).unwrap().expect("complete frame");
    prop_assert_eq!(total, buf.len(), "frame length disagrees with the buffer");
    prop_assert_eq!(&decode_response(&buf[range]).unwrap(), resp);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every request opcode round-trips with random payloads.
    #[test]
    fn requests_roundtrip(
        q in query_spec(),
        batch in proptest::collection::vec(report_spec(), 0..24),
        queries in proptest::collection::vec(query_spec(), 0..24),
        nonce in any::<u64>(),
    ) {
        let wq = query(&q);
        roundtrip_req(&Request::Decide {
            app: wq.app,
            kernel: wq.kernel,
            x86_load: wq.x86_load,
            arm_load: wq.arm_load,
            kernel_resident: wq.kernel_resident,
            device_ready: wq.device_ready,
        })?;
        roundtrip_req(&Request::BatchReport(batch.iter().map(report).collect()))?;
        roundtrip_req(&Request::Table)?;
        roundtrip_req(&Request::Ping(nonce))?;
        roundtrip_req(&Request::DecideBatch(queries.iter().map(query).collect()))?;
        roundtrip_req(&Request::StatsV2)?;
    }

    /// The resilience ops round-trip: session hellos and seq-stamped
    /// batches (requests), session resyncs and busy answers
    /// (responses) — for arbitrary ids, seqs, hints, and batch shapes.
    #[test]
    fn session_and_shed_ops_roundtrip(
        session in any::<u64>(),
        seq in any::<u64>(),
        batch in proptest::collection::vec(report_spec(), 0..24),
        last_seq in any::<u64>(),
        retry_after_ms in any::<u32>(),
    ) {
        roundtrip_req(&Request::HelloSession { session })?;
        roundtrip_req(&Request::BatchReportSeq {
            session,
            seq,
            reports: batch.iter().map(report).collect(),
        })?;
        roundtrip_resp(&Response::Session { last_seq })?;
        roundtrip_resp(&Response::Busy { retry_after_ms })?;
    }

    /// Malformed input never yields a frame: every strict prefix of an
    /// encoded frame is "incomplete" at the framing layer or a decode
    /// error at the payload layer (never a panic, never a bogus
    /// message), and a length header past `MAX_FRAME` is refused
    /// before any allocation.
    #[test]
    fn truncated_and_oversized_frames_are_rejected(
        session in 1..u64::MAX,
        seq in any::<u64>(),
        batch in proptest::collection::vec(report_spec(), 1..16),
        cut in any::<u64>(),
        oversize in (MAX_FRAME as u32 + 1)..u32::MAX,
    ) {
        let mut buf = Vec::new();
        encode_request(
            &Request::BatchReportSeq { session, seq, reports: batch.iter().map(report).collect() },
            &mut buf,
        );
        // Framing: any strict prefix of the byte stream is incomplete.
        let at = (cut as usize) % buf.len();
        prop_assert!(
            matches!(frame_in(&buf[..at]), Ok(None)),
            "a {at}-byte prefix of a {}-byte frame parsed as complete", buf.len()
        );
        // Payload: a complete-looking frame whose payload was cut
        // short decodes to an error, not a shorter valid message.
        let (_, range) = frame_in(&buf).unwrap().expect("complete frame");
        let payload = &buf[range];
        let inner = (cut as usize) % payload.len();
        prop_assert!(
            decode_request(&payload[..inner]).is_err(),
            "a {inner}-byte payload prefix decoded"
        );
        // An announced length beyond MAX_FRAME is a hard protocol
        // error however much of the stream has arrived.
        let mut evil = oversize.to_le_bytes().to_vec();
        prop_assert!(frame_in(&evil).is_err(), "oversized header accepted with no payload");
        evil.extend_from_slice(payload);
        prop_assert!(frame_in(&evil).is_err(), "oversized header accepted with payload bytes");
    }

    /// Every response opcode round-trips with random payloads.
    #[test]
    fn responses_roundtrip(
        (target_b, reconfigure) in (any::<u8>(), any::<bool>()),
        ack in any::<u32>(),
        entries in proptest::collection::vec(
            ((name(), name()), (any::<u32>(), any::<u32>())), 0..16),
        nonce in any::<u64>(),
        decisions in proptest::collection::vec((any::<u8>(), any::<bool>()), 0..48),
        msg in name(),
    ) {
        roundtrip_resp(&Response::Decide { target: target_from(target_b), reconfigure })?;
        roundtrip_resp(&Response::Ack(ack))?;
        let entries: &[EntrySpec] = &entries;
        roundtrip_resp(&Response::Table(
            entries
                .iter()
                .map(|((app, kernel), (fpga_thr, arm_thr))| WireEntry {
                    app,
                    kernel,
                    fpga_thr: *fpga_thr,
                    arm_thr: *arm_thr,
                })
                .collect(),
        ))?;
        roundtrip_resp(&Response::Pong(nonce))?;
        roundtrip_resp(&Response::DecideBatch(
            decisions
                .iter()
                .map(|&(t, reconfigure)| Decision { target: target_from(t), reconfigure })
                .collect(),
        ))?;
        roundtrip_resp(&Response::Err(&msg))?;
    }

    /// `StatsV2` replies round-trip for arbitrary tag sets — including
    /// ids far outside the registry this build ships, in any order,
    /// with duplicates. Forward compatibility is structural: pairs are
    /// fixed-width, so a decoder never needs to recognize a tag to
    /// carry it.
    #[test]
    fn stats_v2_roundtrips_and_preserves_unknown_tags(
        pairs in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..32),
    ) {
        roundtrip_resp(&Response::StatsV2(StatsV2 { pairs: pairs.clone() }))?;
        // Decode through the generic path and check value lookup by
        // tag survives, unknown or not (first occurrence wins).
        let mut buf = Vec::new();
        encode_response(&Response::StatsV2(StatsV2 { pairs: pairs.clone() }), &mut buf);
        let (_, range) = frame_in(&buf).unwrap().expect("complete frame");
        let decoded = match decode_response(&buf[range]).unwrap() {
            Response::StatsV2(s) => s,
            other => return Err(proptest::TestCaseError(format!("wrong opcode: {other:?}"))),
        };
        prop_assert_eq!(&decoded.pairs, &pairs, "pairs must survive byte-exactly in order");
        for &(tag, _) in &pairs {
            let first = pairs.iter().find(|&&(t, _)| t == tag).map(|&(_, v)| v);
            prop_assert_eq!(decoded.get(tag), first);
        }
    }
}
