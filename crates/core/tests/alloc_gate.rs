//! Allocation gate: what a compiled plan holds on the heap, and what a
//! warm execute allocates, do not grow with the chip count. A counting
//! global allocator tallies this test binary's allocations and frees; the
//! binary holds a single test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tsm_core::cosim::{compile_plan, PlanExecutor, TransferShape};
use tsm_isa::Vector;
use tsm_topology::{Topology, TspId};

/// The system allocator, counting the blocks it hands out and takes back.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method passes its arguments unchanged to the system
// allocator, so it keeps `GlobalAlloc`'s contract exactly as `System`
// does; the counters are atomics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller keeps `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `alloc` above, so by `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The `racks`-rack half-stride plan of `plan_golden` (TSP `i` streams
/// two vectors to TSP `i + N/2`) and its chip count: the heap blocks that
/// dropping the plan frees, and the allocations of one warm serial
/// execute, run after a first one on the same executor.
fn counts(racks: usize) -> (usize, u64, u64) {
    let topo = Topology::rack_dragonfly(racks).unwrap();
    let half = (topo.num_tsps() / 2) as u32;
    let shapes: Vec<TransferShape> = (0..half)
        .map(|i| TransferShape {
            from: TspId(i),
            to: TspId(i + half),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            vectors: 2,
        })
        .collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let vector = Arc::new(Vector::zeroed());
    let payloads: Vec<Vec<_>> = (shapes.iter())
        .map(|s| vec![Arc::clone(&vector); s.vectors as usize])
        .collect();
    let mut executor = PlanExecutor::new();
    let first = executor.execute_serial(&plan, &payloads).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let warm = executor.execute_serial(&plan, &payloads);
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(warm.unwrap(), first);
    let chips = plan.chips().len();
    let before = FREES.load(Ordering::Relaxed);
    drop(plan);
    (chips, FREES.load(Ordering::Relaxed) - before, allocated)
}

/// The 288- and 1,152-chip half-stride plans each free the same number of
/// heap blocks when dropped, and a warm execute of each allocates the same
/// number of times. Counted around the drop, not around `compile_plan`,
/// whose route stage may open scoped threads and grow thread-local
/// buffers.
#[test]
fn plan_blocks_and_warm_execute_allocations_do_not_grow_with_the_chips() {
    let (small, freed_small, allocated_small) = counts(4);
    let (large, freed_large, allocated_large) = counts(16);
    assert_eq!((small, large), (288, 1_152));
    assert_eq!(
        freed_small, freed_large,
        "heap blocks a plan frees: {small} chips vs {large}"
    );
    assert_eq!(
        allocated_small, allocated_large,
        "allocations of a warm execute: {small} chips vs {large}"
    );
}
