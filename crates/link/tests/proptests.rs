//! Property-based tests for the FEC code and the channel.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsm_isa::packet::WirePacket;
use tsm_isa::Vector;
use tsm_link::fec::{decode, FecCodeword, FecOutcome, PAYLOAD_BITS};
use tsm_link::{Channel, LatencyModel};

proptest! {
    /// SEC: any single-bit error on any payload is corrected exactly.
    #[test]
    fn any_single_bit_error_corrected(
        payload in prop::collection::vec(any::<u8>(), 320),
        bit in 0usize..PAYLOAD_BITS,
    ) {
        let mut arr = [0u8; 320];
        arr.copy_from_slice(&payload);
        let cw = FecCodeword::encode(&arr);
        let original = arr;
        arr[bit / 8] ^= 1 << (bit % 8);
        let outcome = decode(&mut arr, cw);
        prop_assert_eq!(outcome, FecOutcome::Corrected { bit });
        prop_assert_eq!(arr, original);
    }

    /// DED: any double-bit error is detected, never miscorrected.
    #[test]
    fn any_double_bit_error_detected(
        payload in prop::collection::vec(any::<u8>(), 320),
        a in 0usize..PAYLOAD_BITS,
        b in 0usize..PAYLOAD_BITS,
    ) {
        prop_assume!(a != b);
        let mut arr = [0u8; 320];
        arr.copy_from_slice(&payload);
        let cw = FecCodeword::encode(&arr);
        arr[a / 8] ^= 1 << (a % 8);
        arr[b / 8] ^= 1 << (b % 8);
        prop_assert_eq!(decode(&mut arr, cw), FecOutcome::Uncorrectable);
    }

    /// The codeword byte packing roundtrips.
    #[test]
    fn codeword_bytes_roundtrip(payload in prop::collection::vec(any::<u8>(), 320)) {
        let mut arr = [0u8; 320];
        arr.copy_from_slice(&payload);
        let cw = FecCodeword::encode(&arr);
        prop_assert_eq!(FecCodeword::from_bytes(cw.to_bytes()), Some(cw));
    }

    /// Channel arrival time = inject + serialization + latency, and the
    /// latency always respects the model's clamps.
    #[test]
    fn arrival_times_respect_bounds(seed: u64, inject in 0u64..1_000_000) {
        let model = LatencyModel::for_class(tsm_topology::CableClass::IntraNode);
        let ch = Channel::ideal(model.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let d = ch.transmit(&WirePacket::data(1, Vector::splat(3)), inject, &mut rng);
        let latency = d.arrival_cycle - inject - ch.serialization_cycles();
        prop_assert!(latency >= model.best_case());
        prop_assert!(latency <= model.worst_case());
        prop_assert_eq!(d.outcome, FecOutcome::Clean);
    }

    /// On an error-free channel the delivered payload is bit-exact.
    #[test]
    fn clean_channel_preserves_payload(
        seed: u64,
        payload in prop::collection::vec(any::<u8>(), 320),
    ) {
        let ch = Channel::ideal(LatencyModel::fixed(100));
        let mut rng = StdRng::seed_from_u64(seed);
        let v = Vector::from_slice(&payload).unwrap();
        let d = ch.transmit(&WirePacket::data(9, v.clone()), 0, &mut rng);
        prop_assert_eq!(d.packet.payload, v);
    }
}
