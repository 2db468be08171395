//! Property-based tests for the global address space and allocators.

use proptest::prelude::*;
use tsm_mem::{DeviceAllocator, DistributedTensor, GlobalAddress, VECTORS_PER_DEVICE};
use tsm_topology::TspId;

proptest! {
    /// Device-linear addressing is a bijection on [0, VECTORS_PER_DEVICE).
    #[test]
    fn device_linear_bijection(linear in 0u64..VECTORS_PER_DEVICE) {
        let a = GlobalAddress::from_device_linear(TspId(3), linear).unwrap();
        prop_assert_eq!(a.device_linear(), linear);
        // coordinates in range
        prop_assert!(a.hemisphere < 2);
        prop_assert!(a.slice < 44);
        prop_assert!(a.bank < 2);
        prop_assert!(a.offset < 4096);
        prop_assert!(a.chip_slice() < 88);
    }

    /// Any valid coordinate tuple linearizes into range and roundtrips.
    #[test]
    fn coordinates_roundtrip(h in 0u8..2, s in 0u8..44, b in 0u8..2, o in 0u16..4096) {
        let a = GlobalAddress::new(TspId(0), h, s, b, o).unwrap();
        let lin = a.device_linear();
        prop_assert!(lin < VECTORS_PER_DEVICE);
        let back = GlobalAddress::from_device_linear(TspId(0), lin).unwrap();
        prop_assert_eq!(a, back);
    }

    /// Bump allocation never overlaps and never exceeds capacity.
    #[test]
    fn allocations_disjoint(sizes in prop::collection::vec(1u64..10_000, 1..50)) {
        let mut alloc = DeviceAllocator::new(TspId(0));
        let mut next_expected = 0;
        for &sz in &sizes {
            match alloc.allocate(sz) {
                Ok(base) => {
                    prop_assert_eq!(base.device_linear(), next_expected);
                    next_expected += sz;
                }
                Err(_) => {
                    prop_assert!(next_expected + sz > VECTORS_PER_DEVICE);
                    break;
                }
            }
        }
        prop_assert_eq!(alloc.used(), next_expected);
    }

    /// Even distribution conserves total vectors and locates every index.
    #[test]
    fn distributed_tensor_conserves(devices in 1usize..9, total in 0u64..100_000) {
        let mut allocs: Vec<DeviceAllocator> =
            (0..devices).map(|i| DeviceAllocator::new(TspId(i as u32))).collect();
        let mut refs: Vec<&mut DeviceAllocator> = allocs.iter_mut().collect();
        let t = DistributedTensor::allocate_even(&mut refs, total).unwrap();
        let sum: u64 = t.placements.iter().map(|p| p.vectors).sum();
        prop_assert_eq!(sum, total);
        // shares differ by at most one
        if t.placements.len() > 1 {
            let max = t.placements.iter().map(|p| p.vectors).max().unwrap();
            let min = t.placements.iter().map(|p| p.vectors).min().unwrap();
            prop_assert!(max - min <= 1);
        }
        // locate() covers exactly [0, total)
        if total > 0 {
            prop_assert!(t.locate(0).is_some());
            prop_assert!(t.locate(total - 1).is_some());
        }
        prop_assert!(t.locate(total).is_none());
    }
}
