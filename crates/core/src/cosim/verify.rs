//! Verification stage of the co-simulation pipeline: the schedule's
//! *claims* are checked against what the chips actually did.
//!
//! The plan promises, per chip, exactly which vector leaves which port on
//! which cycle; after a chip executes, its real emissions are compared
//! bit-for-bit against that promise. No chip reads another's emissions —
//! every chip's inputs are bound from the plan — so this check is what
//! holds each forwarder to the deliveries the plan hands the next chip.
//! Each destination's SRAM is additionally checked bit-for-bit once its
//! chip has run, and fingerprinted for the determinism tests.

use tsm_chip::exec::{ChipSim, Emission, Payload};
use tsm_topology::TspId;

use super::exec::payload;
use super::plan::{PlannedEmission, TransferShape};
use super::CosimError;

fn emission_key(e: &Emission) -> (u64, u8) {
    (e.cycle, e.port)
}

/// Compares a chip's actual emissions against the schedule's promise.
///
/// Both sides are ordered by (cycle, port) — a unique key, since a port
/// engine serializes its sends — so the comparison is order-canonical.
/// The promise is stored pre-sorted in the plan; actual emissions come out
/// of the executor already cycle-ordered in practice, so the common case
/// compares in place without allocating or sorting.
pub(super) fn verify_emissions(
    tsp: TspId,
    sim: &ChipSim,
    promised: &[PlannedEmission],
    payloads: &[Vec<Payload>],
) -> Result<(), CosimError> {
    debug_assert!(
        promised
            .windows(2)
            .all(|w| (w[0].cycle, w[0].port) <= (w[1].cycle, w[1].port)),
        "plan emissions must be (cycle, port)-sorted"
    );
    let got = sim.emissions();
    if got
        .windows(2)
        .all(|w| emission_key(&w[0]) <= emission_key(&w[1]))
    {
        check_emissions(tsp, promised, payloads, got.len(), got.iter())
    } else {
        let mut sorted: Vec<&Emission> = got.iter().collect();
        sorted.sort_by_key(|e| emission_key(e));
        check_emissions(tsp, promised, payloads, sorted.len(), sorted.into_iter())
    }
}

fn check_emissions<'a>(
    tsp: TspId,
    promised: &[PlannedEmission],
    payloads: &[Vec<Payload>],
    got_len: usize,
    mut got: impl Iterator<Item = &'a Emission>,
) -> Result<(), CosimError> {
    for i in 0..promised.len().max(got_len) {
        match (promised.get(i), got.next()) {
            (Some(want), Some(g)) => {
                // A correct chip pass forwards the very handle that was
                // bound in, so pointer equality usually settles the
                // payload check without touching the bytes.
                let wv = payload(payloads, &want.vec)?;
                let payload_ok = Payload::ptr_eq(wv, &g.vector) || wv.as_ref() == g.vector.as_ref();
                if want.cycle != g.cycle || want.port != g.port || !payload_ok {
                    return Err(CosimError::EmissionMismatch {
                        tsp,
                        cycle: g.cycle.min(want.cycle),
                        port: g.port,
                    });
                }
            }
            (Some(want), None) => {
                return Err(CosimError::EmissionMismatch {
                    tsp,
                    cycle: want.cycle,
                    port: want.port,
                });
            }
            (None, Some(g)) => {
                return Err(CosimError::EmissionMismatch {
                    tsp,
                    cycle: g.cycle,
                    port: g.port,
                });
            }
            (None, None) => unreachable!(),
        }
    }
    Ok(())
}

/// The fingerprint of a transfer that moves no vector: FNV-1a's offset
/// basis, folded over nothing.
pub(super) const EMPTY_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;

/// Checks one transfer's destination SRAM region bit-for-bit against its
/// bound payload, `data`, and fingerprints it: the FNV fold of the
/// delivered vectors' digests in vector order (the serial-vs-parallel
/// determinism tests compare these), or the index of the first vector
/// that did not arrive intact.
///
/// `sim` is the destination chip's. Offsets are added in `usize`, so a
/// region that runs past offset 65535 is a mismatch there instead of
/// wrapping onto offset 0.
pub(super) fn check_destination(
    shape: &TransferShape,
    data: &[Payload],
    sim: &ChipSim,
) -> Result<u64, usize> {
    let mut acc = EMPTY_DIGEST;
    for (v, expected) in data.iter().enumerate() {
        let got = u16::try_from(usize::from(shape.dst_offset) + v)
            .ok()
            .and_then(|offset| sim.sram_handle(shape.dst_slice, offset));
        match got {
            Some(got) if Payload::ptr_eq(got, expected) || got.as_ref() == expected.as_ref() => {
                acc = (acc ^ got.digest()).wrapping_mul(0x100_0000_01b3);
            }
            _ => return Err(v),
        }
    }
    Ok(acc)
}
