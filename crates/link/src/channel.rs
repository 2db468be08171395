//! A point-to-point C2C channel: serialization + latency + error injection.
//!
//! The channel is where the physical-layer substitution happens: instead of
//! real serdes, a seeded RNG drives latency jitter and bit errors. Given
//! the same seed, a channel delivers identical outcomes — which is exactly
//! the property the software-scheduled network needs to *simulate*
//! plesiochronous hardware deterministically.

use crate::fec::{self, FecCodeword, FecOutcome};
use crate::latency::LatencyModel;
use rand::Rng;
use tsm_isa::packet::WirePacket;
use tsm_isa::timing;
use tsm_isa::vector::VECTOR_BYTES;

/// Outcome of transmitting one wire packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Cycle (receiver clock) at which the last byte arrives.
    pub arrival_cycle: u64,
    /// The received packet, after FEC repair if any.
    pub packet: WirePacket,
    /// What the FEC layer observed.
    pub outcome: FecOutcome,
}

/// The random part of one transmission: what [`Channel::draw`] takes from
/// the caller's RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Observed one-way latency, in cycles.
    pub latency: u64,
    /// Payload bits flipped on the wire.
    pub flips: usize,
}

/// A unidirectional point-to-point link.
#[derive(Debug, Clone)]
pub struct Channel {
    latency: LatencyModel,
    /// Probability that any given transmitted bit is flipped.
    bit_error_rate: f64,
    /// Expected flips per packet: the BER times the payload bits.
    lambda: f64,
    /// Probability that a packet crosses with no flip, `exp(-lambda)`:
    /// the first term of the flip-count inversion, computed once per
    /// channel.
    no_flip: f64,
    /// Cycles to serialize one 328-byte packet onto the 4 lanes.
    serialization_cycles: u64,
}

impl Channel {
    /// Whether `ber` is a bit error rate a channel accepts: a probability
    /// in `[0, 1)` (so not NaN).
    pub fn valid_ber(ber: f64) -> bool {
        (0.0..1.0).contains(&ber)
    }

    /// Creates a channel with the given latency model and bit error rate.
    ///
    /// # Panics
    /// Panics unless [`Channel::valid_ber`] accepts `bit_error_rate`.
    pub fn new(latency: LatencyModel, bit_error_rate: f64) -> Self {
        assert!(Self::valid_ber(bit_error_rate), "BER must be in [0,1)");
        let lambda = bit_error_rate * fec::PAYLOAD_BITS as f64;
        Channel {
            latency,
            bit_error_rate,
            lambda,
            no_flip: (-lambda).exp(),
            serialization_cycles: timing::wire_packet_serialization_cycles(),
        }
    }

    /// An error-free channel (the common case in schedule simulations).
    pub fn ideal(latency: LatencyModel) -> Self {
        Channel::new(latency, 0.0)
    }

    /// The latency model in use.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Serialization time for one packet, in cycles.
    pub fn serialization_cycles(&self) -> u64 {
        self.serialization_cycles
    }

    /// Minimum cycle at which the next packet may start serializing after a
    /// packet started at `start`: links are busy for the full
    /// serialization time (virtual cut-through pacing, paper §2.3).
    pub fn next_free_cycle(&self, start: u64) -> u64 {
        start + self.serialization_cycles
    }

    /// Transmits `packet` starting at cycle `inject_cycle`, drawing jitter
    /// and errors from `rng`.
    ///
    /// The arrival time is `inject + serialization + latency`. Bit errors
    /// are injected per the BER; the receiver-side FEC repairs single-bit
    /// flips, so the payload in the returned [`Delivery`] differs from the
    /// transmitted one only on [`FecOutcome::Uncorrectable`].
    pub fn transmit<R: Rng>(
        &self,
        packet: &WirePacket,
        inject_cycle: u64,
        rng: &mut R,
    ) -> Delivery {
        let mut payload: [u8; VECTOR_BYTES] = *packet.payload.as_bytes();
        let draw = self.draw(rng, |bit| payload[bit / 8] ^= 1 << (bit % 8));
        let arrival_cycle = inject_cycle + self.serialization_cycles + draw.latency;
        if draw.flips == 0 {
            // Fast path: an unflipped payload always decodes Clean, so the
            // codec round-trip is skipped (bit-identical outcome).
            return Delivery {
                arrival_cycle,
                packet: packet.clone(),
                outcome: FecOutcome::Clean,
            };
        }

        let codeword = FecCodeword::encode(packet.payload.as_bytes());
        let outcome = fec::decode(&mut payload, codeword);
        let received = WirePacket {
            sequence: packet.sequence,
            tag: packet.tag,
            payload: tsm_isa::Vector::from_slice(&payload).expect("length preserved"),
        };
        Delivery {
            arrival_cycle,
            packet: received,
            outcome,
        }
    }

    /// Transmits `packet` with an *exact* set of payload bit flips instead
    /// of sampled errors — the deterministic injection mode fault tests
    /// use to place a corruption on a specific hop of a specific vector.
    ///
    /// No RNG is consumed and no latency jitter is drawn: the arrival time
    /// is `inject + serialization + base latency`, and the receiver-side
    /// FEC sees precisely `bits` flipped. Duplicate bit positions cancel
    /// (two flips of one bit restore it), exactly as on a real wire.
    pub fn transmit_with_flips(
        &self,
        packet: &WirePacket,
        inject_cycle: u64,
        bits: &[usize],
    ) -> Delivery {
        let arrival_cycle = inject_cycle + self.serialization_cycles + self.latency.base_cycles;
        if bits.is_empty() {
            return Delivery {
                arrival_cycle,
                packet: packet.clone(),
                outcome: FecOutcome::Clean,
            };
        }
        let codeword = FecCodeword::encode(packet.payload.as_bytes());
        let mut payload: [u8; VECTOR_BYTES] = *packet.payload.as_bytes();
        for &bit in bits {
            assert!(bit < fec::PAYLOAD_BITS, "flip position out of range");
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        let outcome = fec::decode(&mut payload, codeword);
        Delivery {
            arrival_cycle,
            packet: WirePacket {
                sequence: packet.sequence,
                tag: packet.tag,
                payload: tsm_isa::Vector::from_slice(&payload).expect("length preserved"),
            },
            outcome,
        }
    }

    /// [`Channel::transmit`] with miscorrection demotion: a `Corrected`
    /// outcome whose decoded bytes do not match the transmitted payload
    /// (possible when ≥3 flips alias a valid single-error syndrome) is
    /// demoted to `Uncorrectable` — the link layer never reports a
    /// plausible-but-wrong payload as repaired. Returns the delivery plus
    /// whether a demotion happened (observability layers count demotions
    /// separately from honest decoder give-ups).
    pub fn transmit_demoting<R: Rng>(
        &self,
        packet: &WirePacket,
        inject_cycle: u64,
        rng: &mut R,
    ) -> (Delivery, bool) {
        Self::demote(packet, self.transmit(packet, inject_cycle, rng))
    }

    /// [`Channel::transmit_with_flips`] with miscorrection demotion; see
    /// [`Channel::transmit_demoting`].
    pub fn transmit_with_flips_demoting(
        &self,
        packet: &WirePacket,
        inject_cycle: u64,
        bits: &[usize],
    ) -> (Delivery, bool) {
        Self::demote(packet, self.transmit_with_flips(packet, inject_cycle, bits))
    }

    fn demote(sent: &WirePacket, mut delivery: Delivery) -> (Delivery, bool) {
        if matches!(delivery.outcome, FecOutcome::Corrected { .. })
            && delivery.packet.payload != sent.payload
        {
            delivery.outcome = FecOutcome::Uncorrectable;
            (delivery, true)
        } else {
            (delivery, false)
        }
    }

    /// Draws everything random about one transmission from `rng`, in the
    /// channel's one fixed order: the latency sample, then the number of
    /// flipped payload bits, then each flip's bit position, handed to
    /// `flip`. [`Channel::transmit`] is built on it; a caller that only
    /// needs to know whether a packet crosses clean calls it on an RNG in
    /// the same state and gets the same draws.
    pub fn draw<R: Rng>(&self, rng: &mut R, mut flip: impl FnMut(usize)) -> Draw {
        let latency = self.latency.sample(rng);
        let flips = self.draw_bit_flips(rng);
        for _ in 0..flips {
            flip(rng.gen_range(0..fec::PAYLOAD_BITS));
        }
        Draw { latency, flips }
    }

    /// Draws the number of flipped bits for one packet: Poisson with
    /// λ = BER × payload bits, sampled by inversion (λ is tiny for any
    /// realistic BER, so this is a handful of multiplications).
    fn draw_bit_flips<R: Rng>(&self, rng: &mut R) -> usize {
        if self.bit_error_rate == 0.0 {
            return 0;
        }
        let u: f64 = rng.gen();
        let mut cdf = 0.0;
        let mut p = self.no_flip;
        for k in 0..16 {
            cdf += p;
            if u < cdf {
                return k;
            }
            p *= self.lambda / (k + 1) as f64;
        }
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use tsm_isa::Vector;

    fn packet(seq: u16) -> WirePacket {
        WirePacket::data(seq, Vector::from_fn(|i| (i as u8).wrapping_mul(3)))
    }

    #[test]
    fn ideal_channel_delivers_exact_payload_on_time() {
        let ch = Channel::ideal(LatencyModel::fixed(100));
        let mut rng = StdRng::seed_from_u64(0);
        let d = ch.transmit(&packet(7), 1000, &mut rng);
        assert_eq!(d.arrival_cycle, 1000 + ch.serialization_cycles() + 100);
        assert_eq!(d.outcome, FecOutcome::Clean);
        assert_eq!(d.packet, packet(7));
    }

    #[test]
    fn serialization_cycles_match_isa_timing() {
        let ch = Channel::ideal(LatencyModel::fixed(0));
        assert_eq!(ch.serialization_cycles(), 24); // 328 B / 12.5 GB/s at 900 MHz
        assert_eq!(ch.next_free_cycle(100), 124);
    }

    #[test]
    fn noisy_channel_single_errors_are_transparent() {
        // BER chosen so most packets see 0-1 flips: all those must deliver
        // the exact payload.
        let ch = Channel::new(LatencyModel::fixed(50), 1e-5);
        let mut rng = StdRng::seed_from_u64(3);
        let p = packet(1);
        let mut corrected = 0;
        let mut uncorrectable = 0;
        for _ in 0..2000 {
            let d = ch.transmit(&p, 0, &mut rng);
            match d.outcome {
                FecOutcome::Clean => assert_eq!(d.packet.payload, p.payload),
                FecOutcome::Corrected { .. } => {
                    corrected += 1;
                    assert_eq!(
                        d.packet.payload, p.payload,
                        "corrected payload must be exact"
                    );
                }
                FecOutcome::Uncorrectable => uncorrectable += 1,
            }
        }
        // λ = 1e-5 * 2560 ≈ 0.0256: expect ~50 corrected, ~0-3 uncorrectable.
        assert!(corrected > 10, "corrected {corrected}");
        assert!(
            uncorrectable < corrected / 2,
            "uncorrectable {uncorrectable}"
        );
    }

    #[test]
    fn high_ber_produces_uncorrectable_detections() {
        let ch = Channel::new(LatencyModel::fixed(50), 1e-3);
        let mut rng = StdRng::seed_from_u64(9);
        let p = packet(2);
        let uncorrectable = (0..500)
            .filter(|_| {
                matches!(
                    ch.transmit(&p, 0, &mut rng).outcome,
                    FecOutcome::Uncorrectable
                )
            })
            .count();
        // λ ≈ 2.56: multi-bit errors dominate.
        assert!(uncorrectable > 200, "uncorrectable {uncorrectable}");
    }

    #[test]
    fn transmissions_are_deterministic_given_seed() {
        let ch = Channel::new(
            LatencyModel::for_class(tsm_topology::CableClass::IntraNode),
            1e-6,
        );
        let p = packet(3);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|i| ch.transmit(&p, i * 30, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(
            run(11).iter().map(|d| d.arrival_cycle).collect::<Vec<_>>(),
            run(12).iter().map(|d| d.arrival_cycle).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "BER")]
    fn rejects_invalid_ber() {
        let _ = Channel::new(LatencyModel::fixed(1), 1.5);
    }

    #[test]
    fn targeted_single_flip_is_corrected_transparently() {
        let ch = Channel::ideal(LatencyModel::fixed(10));
        let p = packet(4);
        for bit in [0usize, 7, 1000, tsm_isa::vector::VECTOR_BYTES * 8 - 1] {
            let d = ch.transmit_with_flips(&p, 100, &[bit]);
            assert_eq!(d.outcome, FecOutcome::Corrected { bit });
            assert_eq!(d.packet.payload, p.payload, "bit {bit} not repaired");
            assert_eq!(d.arrival_cycle, 100 + ch.serialization_cycles() + 10);
        }
    }

    #[test]
    fn targeted_double_flip_is_deterministically_uncorrectable() {
        let ch = Channel::ideal(LatencyModel::fixed(0));
        let p = packet(5);
        let d = ch.transmit_with_flips(&p, 0, &[3, 2000]);
        assert_eq!(d.outcome, FecOutcome::Uncorrectable);
        // and it is deterministic: no RNG is involved
        assert_eq!(ch.transmit_with_flips(&p, 0, &[3, 2000]), d);
    }

    #[test]
    fn demoting_transmit_passes_honest_outcomes_through() {
        let ch = Channel::ideal(LatencyModel::fixed(0));
        let p = packet(8);
        let (single, demoted) = ch.transmit_with_flips_demoting(&p, 0, &[42]);
        assert_eq!(single.outcome, FecOutcome::Corrected { bit: 42 });
        assert!(!demoted);
        let (double, demoted) = ch.transmit_with_flips_demoting(&p, 0, &[3, 2000]);
        assert_eq!(double.outcome, FecOutcome::Uncorrectable);
        assert!(!demoted, "honest decoder give-up is not a demotion");
    }

    #[test]
    fn triple_flip_miscorrections_are_demoted_to_uncorrectable() {
        // Three flips have odd parity, so SEC-DED sees a "single" error and
        // may repair the wrong bit. Whenever the decoder claims Corrected
        // with wrong bytes, the demoting API must refuse to pass it off.
        let ch = Channel::ideal(LatencyModel::fixed(0));
        let p = packet(9);
        let mut demotions = 0;
        for a in 0..24usize {
            let bits = [a, a + 311, a + 997];
            let (d, demoted) = ch.transmit_with_flips_demoting(&p, 0, &bits);
            if demoted {
                demotions += 1;
                assert_eq!(
                    d.outcome,
                    FecOutcome::Uncorrectable,
                    "demotion must surface as uncorrectable"
                );
            }
            assert!(
                !matches!(d.outcome, FecOutcome::Corrected { .. }) || d.packet.payload == p.payload,
                "no Corrected outcome may carry wrong bytes"
            );
        }
        assert!(
            demotions > 0,
            "expected at least one miscorrection in 24 tries"
        );
    }

    /// [`Channel::draw`] takes exactly what [`Channel::transmit`] takes.
    /// On two identically seeded RNGs, whenever `draw` reports no flip,
    /// `transmit` delivers the sent packet clean; either way it arrives
    /// after the drawn latency and both RNGs are left in the same state.
    #[test]
    fn draw_takes_what_transmit_takes() {
        let p = packet(10);
        let latencies = [
            LatencyModel::fixed(0),
            LatencyModel::for_class(tsm_topology::CableClass::IntraNode),
        ];
        for ber in [0.0, 1e-9, 2e-5, 1e-3] {
            for latency in latencies.clone() {
                let ch = Channel::new(latency, ber);
                let mut clean = 0;
                for seed in 0..2000 {
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let draw = ch.draw(&mut a, |_| {});
                    let d = ch.transmit(&p, 100, &mut b);
                    assert_eq!(
                        d.arrival_cycle,
                        100 + ch.serialization_cycles() + draw.latency
                    );
                    if draw.flips == 0 {
                        clean += 1;
                        assert_eq!(d.outcome, FecOutcome::Clean, "BER {ber}, seed {seed}");
                        assert_eq!(d.packet, p, "BER {ber}, seed {seed}");
                    }
                    assert_eq!(a.next_u64(), b.next_u64(), "BER {ber}, seed {seed}");
                }
                // λ is at most 2.56 here, so e^-λ of 2000 packets is ~150.
                assert!(clean > 50, "BER {ber}: {clean} clean draws");
            }
        }
    }

    #[test]
    fn invalid_bers_are_refused_up_front() {
        for ber in [1.0, 1.5, -0.5, f64::NAN, f64::INFINITY] {
            assert!(!Channel::valid_ber(ber), "{ber}");
        }
        for ber in [0.0, -0.0, 1e-9, 0.5] {
            assert!(Channel::valid_ber(ber), "{ber}");
        }
    }

    #[test]
    fn targeted_no_flips_is_clean() {
        let ch = Channel::ideal(LatencyModel::fixed(0));
        let p = packet(6);
        let d = ch.transmit_with_flips(&p, 0, &[]);
        assert_eq!(d.outcome, FecOutcome::Clean);
        assert_eq!(d.packet, p);
    }
}
