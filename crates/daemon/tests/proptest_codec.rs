//! Property tests for the wire codec: every encodable frame must
//! round-trip exactly, every strict prefix must be rejected, and
//! arbitrary byte soup must never panic the decoder.

use dosn_core::{ModelKind, PolicyKind};
use dosn_daemon::codec::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    MAX_FRAME_BYTES,
};
use dosn_daemon::protocol::{ReportParts, SummaryParts};
use dosn_daemon::{DatasetFamily, Request, Response, SimSpec};
use dosn_node::DisseminationMode;
use proptest::prelude::*;

fn model_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        any::<u32>().prop_map(|s| ModelKind::Sporadic { session_secs: s }),
        any::<u32>().prop_map(|w| ModelKind::FixedLength { window_secs: w }),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| ModelKind::RandomLength {
            min_secs: a.min(b),
            max_secs: a.max(b),
        }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::MaxAv),
        Just(PolicyKind::MaxAvOnDemandTime),
        Just(PolicyKind::MaxAvOnDemandActivity),
        Just(PolicyKind::MostActive),
        Just(PolicyKind::Random),
    ]
}

fn dissemination_strategy() -> impl Strategy<Value = DisseminationMode> {
    prop_oneof![
        Just(DisseminationMode::FriendToFriend),
        any::<u64>().prop_map(|latency_secs| DisseminationMode::Cloud { latency_secs }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = SimSpec> {
    (
        prop_oneof![Just(DatasetFamily::Facebook), Just(DatasetFamily::Twitter)],
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        model_strategy(),
        policy_strategy(),
        any::<u32>(),
        any::<bool>(),
        dissemination_strategy(),
    )
        .prop_map(
            |(
                family,
                users,
                dataset_seed,
                config_seed,
                model,
                policy,
                replication_degree,
                unconrep,
                dissemination,
            )| SimSpec {
                family,
                users,
                dataset_seed,
                config_seed,
                model,
                policy,
                replication_degree,
                unconrep,
                dissemination,
            },
        )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u32>().prop_map(|version| Request::Hello { version }),
        spec_strategy().prop_map(Request::Open),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(index, creator, receiver, at_secs)| Request::Post {
                index,
                creator,
                receiver,
                at_secs
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(seq, owner, reader, at_secs)| Request::Read { seq, owner, reader, at_secs }
        ),
        Just(Request::Finish),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

/// Finite floats only: the wire preserves any bit pattern, but NaN
/// breaks the `PartialEq` the round-trip assertion relies on.
fn finite_f64() -> impl Strategy<Value = f64> {
    -1.0e12f64..1.0e12
}

fn summary_strategy() -> impl Strategy<Value = SummaryParts> {
    (any::<u64>(), finite_f64(), finite_f64(), finite_f64(), finite_f64()).prop_map(
        |(count, sum, sum_sq, min, max)| SummaryParts { count, sum, sum_sq, min, max },
    )
}

fn report_strategy() -> impl Strategy<Value = ReportParts> {
    (
        any::<u64>(),
        any::<u64>(),
        summary_strategy(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        summary_strategy(),
        summary_strategy(),
    )
        .prop_map(
            |(
                posts_total,
                posts_delivered,
                staleness_hours,
                incomplete_dissemination,
                reads_total,
                reads_served,
                stored_updates,
                messages_sent,
            )| ReportParts {
                posts_total,
                posts_delivered,
                staleness_hours,
                incomplete_dissemination,
                reads_total,
                reads_served,
                stored_updates,
                messages_sent,
            },
        )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u32>().prop_map(|version| Response::Welcome { version }),
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
            |(users, span_days, posts, recovered)| Response::Opened {
                users,
                span_days,
                posts,
                recovered,
            }
        ),
        any::<bool>().prop_map(|delivered| Response::PostAck { delivered }),
        any::<bool>().prop_map(|served| Response::ReadAck { served }),
        report_strategy().prop_map(Response::Report),
        Just(Response::Pong),
        Just(Response::ShuttingDown),
        ".{0,60}".prop_map(|message| Response::Error { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_request_roundtrips_and_rejects_every_prefix(req in request_strategy()) {
        let bytes = encode_request(&req);
        prop_assert!(bytes.len() <= MAX_FRAME_BYTES);
        prop_assert_eq!(&decode_request(&bytes).expect("roundtrip"), &req);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_request(&bytes[..cut]).is_err(),
                "decoded from {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn any_response_roundtrips_and_rejects_every_prefix(resp in response_strategy()) {
        let bytes = encode_response(&resp);
        prop_assert!(bytes.len() <= MAX_FRAME_BYTES);
        prop_assert_eq!(&decode_response(&bytes).expect("roundtrip"), &resp);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_response(&bytes[..cut]).is_err(),
                "decoded from {cut}/{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_always_rejected(
        req in request_strategy(),
        extra in 1usize..5,
    ) {
        let mut bytes = encode_request(&req);
        bytes.extend(std::iter::repeat_n(0, extra));
        prop_assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn byte_soup_never_panics_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // The decoders must classify arbitrary input as a frame or an
        // error — never panic. When soup happens to decode, it must
        // re-encode to something that decodes back to the same value
        // (the codec may normalize padding, so bytes need not match).
        if let Ok(req) = decode_request(&bytes) {
            let re = encode_request(&req);
            prop_assert_eq!(decode_request(&re).expect("re-decode"), req);
        }
        if let Ok(resp) = decode_response(&bytes) {
            let re = encode_response(&resp);
            prop_assert_eq!(decode_response(&re).expect("re-decode"), resp);
        }
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..300),
        1..5,
    )) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).expect("in-memory write");
        }
        let mut cursor = &wire[..];
        for p in &payloads {
            let frame = read_frame(&mut cursor).expect("well-formed").expect("not eof");
            prop_assert_eq!(&frame, p);
        }
        prop_assert!(read_frame(&mut cursor).expect("clean eof").is_none());
    }

    #[test]
    fn oversized_headers_are_refused(announced in (MAX_FRAME_BYTES as u32 + 1)..u32::MAX) {
        let header = announced.to_le_bytes();
        let mut cursor = &header[..];
        let err = read_frame(&mut cursor).expect_err("oversized frame");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
