//! Instruction-set-architecture layer of the tensor streaming multiprocessor.
//!
//! This crate defines the architecturally visible vocabulary shared by every
//! other layer of the system:
//!
//! * [`Vector`] — the 320-byte SIMD register value that is also the network
//!   flow-control unit (flit),
//! * [`packet::WirePacket`] — the 328-byte on-wire framing of a vector
//!   (97.5 % encoding efficiency, paper Fig 11),
//! * [`Instruction`] — the deterministic instruction set of paper Table 1
//!   plus the compute/stream operations referenced by §5,
//! * [`timing`] — the fixed clock/epoch constants the synchronization layer
//!   depends on.
//!
//! Everything here is plain data with statically known costs; there is no
//! dynamic behaviour. That is the point: the paper's system exposes *all*
//! architecturally visible state so a compiler can schedule the machine to
//! the clock cycle (paper §3).

#![forbid(unsafe_code)]

pub mod encode;
pub mod instr;
pub mod packet;
pub mod timing;
pub mod vector;

pub use instr::{FunctionalUnit, Instruction};
pub use packet::WirePacket;
pub use vector::{ElemType, Vector};

/// Errors produced when decoding or validating ISA-level data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A wire packet had a length other than [`packet::WIRE_BYTES`].
    BadPacketLength {
        /// Length of the buffer that was presented.
        got: usize,
    },
    /// A wire packet header failed its integrity check.
    CorruptHeader,
    /// A stream identifier was out of range.
    BadStream {
        /// The offending stream number.
        got: u8,
    },
    /// An instruction word's opcode, or its vector opcode, names no
    /// operation.
    BadOpcode {
        /// The offending opcode byte.
        got: u8,
    },
    /// An assembled binary that is not a whole number of 16-byte records.
    PartialRecord {
        /// Length of the binary in bytes.
        got: usize,
    },
}

impl core::fmt::Display for IsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsaError::BadPacketLength { got } => {
                write!(
                    f,
                    "wire packet must be {} bytes, got {got}",
                    packet::WIRE_BYTES
                )
            }
            IsaError::CorruptHeader => write!(f, "wire packet header failed integrity check"),
            IsaError::BadStream { got } => {
                write!(
                    f,
                    "stream id {got} out of range (max {})",
                    vector::MAX_STREAMS - 1
                )
            }
            IsaError::BadOpcode { got } => write!(f, "opcode {got:#04x} names no operation"),
            IsaError::PartialRecord { got } => {
                write!(f, "binary of {got} bytes is not whole 16-byte records")
            }
        }
    }
}

impl std::error::Error for IsaError {}

/// Identifier of one of the 32 stream registers flowing in each direction
/// across the chip (paper §2: the chip carries 32 streams eastward and 32
/// westward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(u8);

impl StreamId {
    /// Creates a stream id, validating it against [`vector::MAX_STREAMS`].
    pub fn new(id: u8) -> Result<Self, IsaError> {
        if (id as usize) < vector::MAX_STREAMS {
            Ok(StreamId(id))
        } else {
            Err(IsaError::BadStream { got: id })
        }
    }

    /// Returns the raw stream number.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction a stream flows across the chip's superlanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward increasing slice numbers.
    East,
    /// Toward decreasing slice numbers.
    West,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_validates_range() {
        assert!(StreamId::new(0).is_ok());
        assert!(StreamId::new(31).is_ok());
        assert_eq!(StreamId::new(32), Err(IsaError::BadStream { got: 32 }));
    }

    #[test]
    fn direction_reverse_is_involutive() {
        assert_eq!(Direction::East.reverse().reverse(), Direction::East);
        assert_eq!(Direction::West.reverse(), Direction::East);
    }

    #[test]
    fn errors_display() {
        let e = IsaError::BadPacketLength { got: 100 };
        assert!(e.to_string().contains("328"));
        assert!(IsaError::CorruptHeader.to_string().contains("header"));
    }
}
