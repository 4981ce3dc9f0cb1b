//! Property tests for the request envelope and the reserved kind bytes:
//! traced envelopes must round-trip for arbitrary trace contexts, strict
//! prefixes of them must always error, and any payload starting with a
//! retired kind byte must decode to an error — never a panic, never a
//! misparse as some live message.

use proptest::prelude::*;
use vss_net::wire::{decode_envelope, decode_message, encode_message, encode_traced, Message};

/// First-payload bytes of retired messages: the request-id-only envelope,
/// the one-frame stats request and its snapshot reply (retired with
/// protocol versions 1 and 2), and the text exposition request and its
/// reply. They stay reserved.
const RETIRED_KINDS: [u8; 5] = [0x7f, 0x0b, 0x8a, 0x0f, 0x90];

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any trace context wrapped around a unary message survives the traced
    /// envelope round trip, and the same bytes are rejected by the plain
    /// decoder the reply path uses (`0x7e` is not a message kind).
    #[test]
    fn traced_envelopes_round_trip_for_any_trace_context(
        request_id in any::<u64>(),
        parent in any::<u64>(),
    ) {
        let message = Message::Metadata { name: "cam".into() };
        let parent = (parent != 0).then_some(parent);
        let traced = encode_traced(request_id, parent, &message);
        let envelope = decode_envelope(&traced).expect("traced payload decodes");
        prop_assert_eq!(envelope.request_id, Some(request_id));
        prop_assert_eq!(envelope.parent_span_id, parent);
        prop_assert_eq!(&envelope.message, &message);
        prop_assert!(
            decode_message(&traced).is_err(),
            "the plain decoder must reject the traced marker"
        );
        // Plain payloads pass through decode_envelope unchanged.
        let envelope = decode_envelope(&encode_message(&message)).expect("plain payload decodes");
        prop_assert_eq!(envelope.request_id, None);
        prop_assert_eq!(envelope.parent_span_id, None);
    }

    /// A strict prefix of a traced envelope never decodes.
    #[test]
    fn strict_prefixes_of_traced_envelopes_always_error(
        request_id in any::<u64>(),
        parent in any::<u64>(),
        name_len in 0usize..13,
    ) {
        let message = Message::Metadata { name: "c".repeat(name_len) };
        let traced = encode_traced(request_id, Some(parent), &message);
        for len in 0..traced.len() {
            prop_assert!(
                decode_envelope(&traced[..len]).is_err(),
                "prefix of {} bytes decoded", len
            );
        }
    }

    /// Whatever follows a retired kind byte, both decoders answer an error.
    #[test]
    fn retired_kind_bytes_always_decode_to_an_error(
        kind in 0usize..RETIRED_KINDS.len(),
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut payload = vec![RETIRED_KINDS[kind]];
        payload.extend_from_slice(&tail);
        prop_assert!(decode_message(&payload).is_err());
        prop_assert!(decode_envelope(&payload).is_err());
    }
}
