//! Property-based tests for the ISA layer.

use proptest::prelude::*;
use tsm_isa::packet::{payload_check_symbols, WirePacket, WIRE_BYTES};
use tsm_isa::vector::{vectors_for_bytes, Vector, VECTOR_BYTES};

proptest! {
    /// Encode/decode is the identity for every payload, sequence and tag.
    #[test]
    fn packet_roundtrips(seq: u16, tag: u8, payload in prop::collection::vec(any::<u8>(), VECTOR_BYTES)) {
        let v = Vector::from_slice(&payload).unwrap();
        let p = WirePacket { sequence: seq, tag, payload: v };
        let wire = p.encode();
        prop_assert_eq!(wire.len(), WIRE_BYTES);
        let q = WirePacket::decode(&wire).unwrap();
        prop_assert_eq!(p, q);
    }

    /// Any single corrupted header byte is rejected.
    #[test]
    fn corrupt_header_detected(seq: u16, idx in 0usize..4, flip in 1u8..=255) {
        let p = WirePacket::data(seq, Vector::splat(7));
        let mut wire = p.encode();
        wire[idx] ^= flip;
        // Either the checksum catches it, or (if the flip hit only the
        // payload-check field bytes 4..8) decode still succeeds — idx<4
        // here so it must fail.
        prop_assert!(WirePacket::decode(&wire).is_err());
    }

    /// Any buffer of the wrong length is rejected.
    #[test]
    fn wrong_length_rejected(len in 0usize..1000) {
        prop_assume!(len != WIRE_BYTES);
        let buf = vec![0u8; len];
        prop_assert!(WirePacket::decode(&buf).is_err());
    }

    /// vectors_for_bytes is the exact ceiling division and monotone.
    #[test]
    fn vector_count_is_ceiling(bytes in 0u64..10_000_000) {
        let v = vectors_for_bytes(bytes);
        prop_assert!(v * 320 >= bytes);
        prop_assert!(v == 0 || (v - 1) * 320 < bytes);
        prop_assert!(vectors_for_bytes(bytes + 1) >= v);
    }

    /// A single flipped payload byte always flips exactly one check symbol.
    #[test]
    fn parity_localizes_byte_errors(
        payload in prop::collection::vec(any::<u8>(), VECTOR_BYTES),
        idx in 0usize..VECTOR_BYTES,
        flip in 1u8..=255,
    ) {
        let mut arr = [0u8; VECTOR_BYTES];
        arr.copy_from_slice(&payload);
        let clean = payload_check_symbols(&arr);
        arr[idx] ^= flip;
        let dirty = payload_check_symbols(&arr);
        let differing = clean.iter().zip(dirty.iter()).filter(|(a, b)| a != b).count();
        prop_assert_eq!(differing, 1);
    }

    /// Vector digests are stable and content-sensitive.
    #[test]
    fn digest_detects_any_byte_change(
        payload in prop::collection::vec(any::<u8>(), VECTOR_BYTES),
        idx in 0usize..VECTOR_BYTES,
        flip in 1u8..=255,
    ) {
        let a = Vector::from_slice(&payload).unwrap();
        let mut changed = payload.clone();
        changed[idx] ^= flip;
        let b = Vector::from_slice(&changed).unwrap();
        prop_assert_ne!(a.digest(), b.digest());
    }
}
