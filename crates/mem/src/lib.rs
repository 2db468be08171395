//! Global shared address space: logically shared, physically distributed
//! SRAM (paper §1, Fig 3).
//!
//! Each TSP contributes 220 MiB of on-chip SRAM. The system-wide memory is
//! addressed as a **rank-5 tensor** with shape
//! `[Device, Hemisphere, Slice, Bank, Offset] = [N, 2, 44, 2, 4096]`
//! (paper Fig 3), where each element is one 320-byte vector:
//!
//! ```text
//! 2 × 44 × 2 × 4096 vectors × 320 B = 230,686,720 B = 220 MiB per device
//! ```
//!
//! [`GlobalAddress`] provides the tensor addressing with validation and a
//! dense linearization; [`alloc`] provides per-device and distributed
//! tensor allocators over that address space. The compiler does not place
//! operands with them: the `tsm` facade re-exports this crate as
//! `tsm::mem`, and `tests/scale.rs` checks the addressing and capacity
//! across the full machine.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod secded;

pub use alloc::{DeviceAllocator, DistributedTensor, Placement};

use std::fmt;
use tsm_topology::TspId;

/// Hemispheres per device (the chip's two halves, east/west of the MXM).
pub const HEMISPHERES: u64 = 2;

/// Memory slices per hemisphere.
pub const SLICES: u64 = 44;

/// Banks per slice.
pub const BANKS: u64 = 2;

/// Vector-granularity addresses per bank.
pub const OFFSETS: u64 = 4096;

/// Addressable vectors per device (`2 × 44 × 2 × 4096`).
pub const VECTORS_PER_DEVICE: u64 = HEMISPHERES * SLICES * BANKS * OFFSETS;

/// Bytes per addressable vector.
pub const VECTOR_BYTES: u64 = 320;

/// SRAM bytes per device — exactly 220 MiB (paper abstract).
pub const BYTES_PER_DEVICE: u64 = VECTORS_PER_DEVICE * VECTOR_BYTES;

/// Errors from address construction and allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A coordinate exceeded its extent.
    OutOfRange {
        /// Which coordinate.
        dim: &'static str,
        /// Offending value.
        got: u64,
        /// Extent of that dimension.
        extent: u64,
    },
    /// A device's SRAM is exhausted.
    DeviceFull {
        /// The exhausted device.
        device: TspId,
        /// Vectors requested.
        requested: u64,
        /// Vectors remaining.
        available: u64,
    },
    /// A distributed allocation had no devices to place on.
    NoDevices,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { dim, got, extent } => {
                write!(f, "{dim} = {got} out of range (extent {extent})")
            }
            MemError::DeviceFull {
                device,
                requested,
                available,
            } => write!(
                f,
                "{device} SRAM full: requested {requested} vectors, {available} available"
            ),
            MemError::NoDevices => write!(f, "distributed allocation over an empty device set"),
        }
    }
}

impl std::error::Error for MemError {}

/// One vector-granularity address in the global shared address space —
/// the rank-5 tensor coordinate of paper Fig 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddress {
    /// Owning device.
    pub device: TspId,
    /// Hemisphere (0 or 1).
    pub hemisphere: u8,
    /// Memory slice within the hemisphere (0..44).
    pub slice: u8,
    /// Bank within the slice (0 or 1).
    pub bank: u8,
    /// Vector offset within the bank (0..4096).
    pub offset: u16,
}

impl GlobalAddress {
    /// Builds an address, validating every coordinate against the tensor
    /// shape `[N, 2, 44, 2, 4096]`.
    pub fn new(
        device: TspId,
        hemisphere: u8,
        slice: u8,
        bank: u8,
        offset: u16,
    ) -> Result<Self, MemError> {
        if hemisphere as u64 >= HEMISPHERES {
            return Err(MemError::OutOfRange {
                dim: "hemisphere",
                got: hemisphere as u64,
                extent: HEMISPHERES,
            });
        }
        if slice as u64 >= SLICES {
            return Err(MemError::OutOfRange {
                dim: "slice",
                got: slice as u64,
                extent: SLICES,
            });
        }
        if bank as u64 >= BANKS {
            return Err(MemError::OutOfRange {
                dim: "bank",
                got: bank as u64,
                extent: BANKS,
            });
        }
        if offset as u64 >= OFFSETS {
            return Err(MemError::OutOfRange {
                dim: "offset",
                got: offset as u64,
                extent: OFFSETS,
            });
        }
        Ok(GlobalAddress {
            device,
            hemisphere,
            slice,
            bank,
            offset,
        })
    }

    /// Linearizes the address within its device: a dense index in
    /// `[0, VECTORS_PER_DEVICE)`, row-major over
    /// (hemisphere, slice, bank, offset).
    pub fn device_linear(&self) -> u64 {
        ((self.hemisphere as u64 * SLICES + self.slice as u64) * BANKS + self.bank as u64) * OFFSETS
            + self.offset as u64
    }

    /// Linearizes across the whole system (device-major).
    pub fn system_linear(&self) -> u64 {
        self.device.0 as u64 * VECTORS_PER_DEVICE + self.device_linear()
    }

    /// Inverse of [`GlobalAddress::device_linear`] for a given device.
    pub fn from_device_linear(device: TspId, linear: u64) -> Result<Self, MemError> {
        if linear >= VECTORS_PER_DEVICE {
            return Err(MemError::OutOfRange {
                dim: "linear",
                got: linear,
                extent: VECTORS_PER_DEVICE,
            });
        }
        let offset = (linear % OFFSETS) as u16;
        let rest = linear / OFFSETS;
        let bank = (rest % BANKS) as u8;
        let rest = rest / BANKS;
        let slice = (rest % SLICES) as u8;
        let hemisphere = (rest / SLICES) as u8;
        Ok(GlobalAddress {
            device,
            hemisphere,
            slice,
            bank,
            offset,
        })
    }

    /// The memory-slice index in the chip's flat 0..88 numbering (both
    /// hemispheres), as used by MEM Read/Write instructions in `tsm-isa`.
    pub fn chip_slice(&self) -> u8 {
        self.hemisphere * SLICES as u8 + self.slice
    }
}

impl fmt::Display for GlobalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, h{}, s{}, b{}, {:#06x}]",
            self.device, self.hemisphere, self.slice, self.bank, self.offset
        )
    }
}

/// Total global memory of an `n`-TSP system, in bytes (paper: 264 TSPs →
/// 56 GiB; 10,440 TSPs → 2.25 TB).
pub fn system_capacity_bytes(n_tsps: u64) -> u64 {
    n_tsps * BYTES_PER_DEVICE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_multiplies_to_220_mib() {
        assert_eq!(VECTORS_PER_DEVICE, 720_896);
        assert_eq!(BYTES_PER_DEVICE, 220 * 1024 * 1024);
    }

    #[test]
    fn system_capacities_match_paper() {
        assert_eq!(system_capacity_bytes(264) / (1024 * 1024 * 1024), 56);
        assert!(system_capacity_bytes(10_440) > 2_000_000_000_000);
    }

    #[test]
    fn address_validation() {
        assert!(GlobalAddress::new(TspId(0), 0, 0, 0, 0).is_ok());
        assert!(GlobalAddress::new(TspId(0), 1, 43, 1, 4095).is_ok());
        assert_eq!(
            GlobalAddress::new(TspId(0), 2, 0, 0, 0),
            Err(MemError::OutOfRange {
                dim: "hemisphere",
                got: 2,
                extent: 2
            })
        );
        assert!(GlobalAddress::new(TspId(0), 0, 44, 0, 0).is_err());
        assert!(GlobalAddress::new(TspId(0), 0, 0, 2, 0).is_err());
        assert!(GlobalAddress::new(TspId(0), 0, 0, 0, 4096).is_err());
    }

    #[test]
    fn linearization_roundtrips() {
        for linear in [0u64, 1, 4095, 4096, 8191, 8192, VECTORS_PER_DEVICE - 1] {
            let a = GlobalAddress::from_device_linear(TspId(3), linear).unwrap();
            assert_eq!(a.device_linear(), linear);
        }
        assert!(GlobalAddress::from_device_linear(TspId(0), VECTORS_PER_DEVICE).is_err());
    }

    #[test]
    fn linearization_is_dense_and_ordered() {
        let a = GlobalAddress::new(TspId(0), 0, 0, 0, 4095).unwrap();
        let b = GlobalAddress::new(TspId(0), 0, 0, 1, 0).unwrap();
        assert_eq!(a.device_linear() + 1, b.device_linear());
        let c = GlobalAddress::new(TspId(0), 0, 43, 1, 4095).unwrap();
        let d = GlobalAddress::new(TspId(0), 1, 0, 0, 0).unwrap();
        assert_eq!(c.device_linear() + 1, d.device_linear());
    }

    #[test]
    fn system_linear_is_device_major() {
        let last0 = GlobalAddress::new(TspId(0), 1, 43, 1, 4095).unwrap();
        let first1 = GlobalAddress::new(TspId(1), 0, 0, 0, 0).unwrap();
        assert_eq!(last0.system_linear() + 1, first1.system_linear());
    }

    #[test]
    fn chip_slice_spans_both_hemispheres() {
        assert_eq!(
            GlobalAddress::new(TspId(0), 0, 0, 0, 0)
                .unwrap()
                .chip_slice(),
            0
        );
        assert_eq!(
            GlobalAddress::new(TspId(0), 0, 43, 0, 0)
                .unwrap()
                .chip_slice(),
            43
        );
        assert_eq!(
            GlobalAddress::new(TspId(0), 1, 0, 0, 0)
                .unwrap()
                .chip_slice(),
            44
        );
        assert_eq!(
            GlobalAddress::new(TspId(0), 1, 43, 0, 0)
                .unwrap()
                .chip_slice(),
            87
        );
    }

    #[test]
    fn display_formats_coordinates() {
        let a = GlobalAddress::new(TspId(2), 1, 10, 0, 255).unwrap();
        let s = a.to_string();
        assert!(s.contains("tsp2") && s.contains("h1") && s.contains("s10"));
    }
}
