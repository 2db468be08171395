//! SECDED protection of memory words (paper §4.5: "single-error correction
//! and double-error detection (SECDED) extensively throughout the TSP's
//! memory system, data paths, and instruction buffers").
//!
//! The classic Hamming(71,64) + overall-parity construction: the 64 data
//! bits occupy the non-power-of-two positions of a 71-bit codeword and 7
//! check bits sit at positions 1, 2, 4, …, 64, so the syndrome of any
//! single flip names its position unambiguously — a power-of-two syndrome
//! is a check-bit flip (data intact), anything else maps back to a data
//! bit. The overall parity bit distinguishes odd (correctable) from even
//! (detect-only) flip counts.

/// Codeword length excluding the overall parity bit.
const CODE_LEN: u8 = 71;

/// Position (1-based) of data bit `i` in the codeword: the `i`-th
/// non-power-of-two position.
fn data_position(i: u8) -> u8 {
    debug_assert!(i < 64);
    // Positions 1..=71, skipping 1,2,4,8,16,32,64.
    let mut pos = 0u8;
    let mut remaining = i as i16;
    loop {
        pos += 1;
        if pos.is_power_of_two() {
            continue;
        }
        if remaining == 0 {
            return pos;
        }
        remaining -= 1;
    }
}

/// Inverse of [`data_position`]: data index of codeword position `pos`,
/// or `None` for check-bit positions.
fn data_index(pos: u8) -> Option<u8> {
    if pos == 0 || pos > CODE_LEN || pos.is_power_of_two() {
        return None;
    }
    // count non-power-of-two positions below pos
    let mut idx = 0u8;
    for p in 1..pos {
        if !p.is_power_of_two() {
            idx += 1;
        }
    }
    Some(idx)
}

/// Syndrome over the data bits only (check bits at power positions are
/// folded in separately).
fn data_syndrome(data: u64) -> u8 {
    let mut s = 0u8;
    let mut d = data;
    while d != 0 {
        let bit = d.trailing_zeros() as u8;
        s ^= data_position(bit);
        d &= d - 1;
    }
    s
}

/// A 64-bit word with its 8 SECDED check bits, as stored in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectedWord {
    /// The stored data bits (possibly corrupted in flight).
    pub data: u64,
    /// Hamming check bits (low 7) plus overall parity (bit 7).
    pub check: u8,
}

/// Outcome of reading a protected word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No error.
    Clean {
        /// The word.
        data: u64,
    },
    /// One bit was flipped and repaired.
    Corrected {
        /// The repaired word.
        data: u64,
        /// What was repaired.
        location: FlipLocation,
    },
    /// A double error: the word is unusable and the access must be
    /// escalated (software replay, paper §4.5).
    DoubleError,
}

/// Where a corrected single flip was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipLocation {
    /// A data bit (zero-based index).
    Data(u8),
    /// One of the 7 Hamming check bits.
    Check(u8),
    /// The overall parity bit.
    Parity,
}

impl ReadOutcome {
    /// The usable data, if any.
    pub fn data(self) -> Option<u64> {
        match self {
            ReadOutcome::Clean { data } | ReadOutcome::Corrected { data, .. } => Some(data),
            ReadOutcome::DoubleError => None,
        }
    }
}

/// Encodes a data word for storage.
pub fn encode(data: u64) -> ProtectedWord {
    let syndrome = data_syndrome(data);
    // Overall parity covers data and the 7 check bits.
    let parity = ((data.count_ones() + syndrome.count_ones()) & 1) as u8;
    ProtectedWord {
        data,
        check: syndrome | (parity << 7),
    }
}

/// Decodes a stored word, repairing a single flipped bit anywhere in the
/// 72 stored bits (data, check, or parity).
pub fn decode(stored: ProtectedWord) -> ReadOutcome {
    let stored_syndrome = stored.check & 0x7f;
    let stored_parity = stored.check >> 7;
    let expect_syndrome = data_syndrome(stored.data);
    let delta = stored_syndrome ^ expect_syndrome;
    // Parity check: the stored parity bit must equal the parity of the
    // stored data + stored check bits (as written by encode). A mismatch
    // means an odd number of flips.
    let total_parity =
        ((stored.data.count_ones() + stored_syndrome.count_ones()) & 1) as u8 == stored_parity;

    match (delta, total_parity) {
        (0, true) => ReadOutcome::Clean { data: stored.data },
        (0, false) => {
            // Only the parity bit flipped.
            ReadOutcome::Corrected {
                data: stored.data,
                location: FlipLocation::Parity,
            }
        }
        (d, false) => {
            if d.is_power_of_two() && (1..=64).contains(&d) {
                // A Hamming check bit flipped; data is intact.
                ReadOutcome::Corrected {
                    data: stored.data,
                    location: FlipLocation::Check(d.trailing_zeros() as u8),
                }
            } else if let Some(idx) = data_index(d) {
                if idx < 64 {
                    let data = stored.data ^ (1u64 << idx);
                    ReadOutcome::Corrected {
                        data,
                        location: FlipLocation::Data(idx),
                    }
                } else {
                    ReadOutcome::DoubleError
                }
            } else {
                ReadOutcome::DoubleError
            }
        }
        // Even flip count with a moved syndrome: double error.
        (_, true) => ReadOutcome::DoubleError,
    }
}

/// Storage overhead of the scheme: 8 check bits per 64 data bits.
pub fn overhead_fraction() -> f64 {
    8.0 / 64.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of Hamming check bits.
    const CHECK_BITS: usize = 7;

    #[test]
    fn positions_are_bijective() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let pos = data_position(i);
            assert!(!pos.is_power_of_two());
            assert!(pos <= CODE_LEN);
            assert!(seen.insert(pos));
            assert_eq!(data_index(pos), Some(i));
        }
        let check = (1..=CODE_LEN).filter(|p| p.is_power_of_two()).count();
        assert_eq!(check, CHECK_BITS, "the check bits sit at powers of two");
        assert_eq!(64 + CHECK_BITS, usize::from(CODE_LEN));
    }

    #[test]
    fn clean_word_reads_clean() {
        for data in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(decode(encode(data)), ReadOutcome::Clean { data });
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let stored = encode(data);
        for bit in 0..64u8 {
            let corrupted = ProtectedWord {
                data: stored.data ^ (1u64 << bit),
                check: stored.check,
            };
            let out = decode(corrupted);
            assert_eq!(
                out,
                ReadOutcome::Corrected {
                    data,
                    location: FlipLocation::Data(bit)
                },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn check_and_parity_bit_flips_leave_data_intact() {
        let data = 0xFFFF_0000_FFFF_0000u64;
        let stored = encode(data);
        for bit in 0..8u8 {
            let corrupted = ProtectedWord {
                data: stored.data,
                check: stored.check ^ (1 << bit),
            };
            let out = decode(corrupted);
            assert_eq!(out.data(), Some(data), "check bit {bit}: {out:?}");
            assert!(matches!(out, ReadOutcome::Corrected { .. }));
        }
    }

    #[test]
    fn double_data_bit_flips_are_detected() {
        let data = 0xAAAA_5555_AAAA_5555u64;
        let stored = encode(data);
        for (a, b) in [(0u8, 1u8), (3, 62), (10, 40), (63, 0), (7, 8)] {
            if a == b {
                continue;
            }
            let corrupted = ProtectedWord {
                data: stored.data ^ (1u64 << a) ^ (1u64 << b),
                check: stored.check,
            };
            assert_eq!(decode(corrupted), ReadOutcome::DoubleError, "({a},{b})");
        }
    }

    #[test]
    fn data_plus_check_double_flip_detected() {
        let data = 0x1234_5678_9ABC_DEF0u64;
        let stored = encode(data);
        for (dbit, cbit) in [(0u8, 0u8), (17, 3), (63, 6)] {
            let corrupted = ProtectedWord {
                data: stored.data ^ (1u64 << dbit),
                check: stored.check ^ (1 << cbit),
            };
            // Must never silently return wrong data.
            match decode(corrupted) {
                ReadOutcome::DoubleError => {}
                ReadOutcome::Corrected { data: d, .. } | ReadOutcome::Clean { data: d } => {
                    assert_eq!(d, data, "miscorrection for ({dbit},{cbit})");
                }
            }
        }
    }

    #[test]
    fn overhead_is_12_5_percent() {
        assert_eq!(overhead_fraction(), 0.125);
    }
}
