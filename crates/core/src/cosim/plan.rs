//! Compile stage of the co-simulation pipeline: lowering transfers into a
//! payload-independent, serializable [`CompiledPlan`].
//!
//! A plan captures everything the paper's compiler decides ahead of time —
//! routes, link schedules, per-chip instruction sequences, stream-register
//! assignments, and the full delivery/emission manifest — but references
//! payload bytes only *symbolically*, as `(transfer, vector)` coordinates
//! ([`VecRef`]). Binding actual vectors happens per invocation in the
//! executor, so one compile amortizes over arbitrarily many executions:
//! "the same schedule is reused across runs" (paper §5, Fig 17 runs one
//! BERT schedule 24,240 times).

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use tsm_chip::exec::TimedInstruction;
use tsm_isa::instr::Instruction;
use tsm_isa::vector::MAX_STREAMS;
use tsm_isa::{Direction, StreamId};
use tsm_net::ssn::{
    scheduled_link_latency, vector_slot_cycles, LinkOccupancy, TransferSchedule,
    FORWARD_OVERHEAD_CYCLES,
};
use tsm_topology::route::{shortest_path, Path};
use tsm_topology::{LinkId, Topology, TspId, PORTS_PER_TSP};

use super::exec::auto_threads;
use super::{CosimError, CosimTransfer, READ_LATENCY, SCRATCH_SLICE};

/// The payload-independent description of one transfer: endpoints, SRAM
/// layout, and vector count — everything the compiler needs, nothing the
/// payload bytes touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferShape {
    /// Source TSP.
    pub from: TspId,
    /// Destination TSP.
    pub to: TspId,
    /// Source SRAM slice.
    pub src_slice: u8,
    /// Source SRAM base offset (vectors laid out contiguously).
    pub src_offset: u16,
    /// Destination SRAM slice.
    pub dst_slice: u8,
    /// Destination SRAM base offset.
    pub dst_offset: u16,
    /// Number of vectors the transfer moves.
    pub vectors: u32,
}

impl From<&CosimTransfer> for TransferShape {
    fn from(tr: &CosimTransfer) -> Self {
        TransferShape {
            from: tr.from,
            to: tr.to,
            src_slice: tr.src_slice,
            src_offset: tr.src_offset,
            dst_slice: tr.dst_slice,
            dst_offset: tr.dst_offset,
            vectors: tr.data.len() as u32,
        }
    }
}

/// Symbolic reference to one payload vector: `vector` within `transfer`.
/// The executor resolves it against the payloads bound at invocation time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VecRef {
    /// Index into the plan's transfer list.
    pub transfer: u32,
    /// Vector index within that transfer.
    pub vector: u32,
}

/// A source-SRAM preload the runtime performs before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedPreload {
    /// SRAM slice.
    pub slice: u8,
    /// SRAM offset.
    pub offset: u16,
    /// Which payload vector lands there.
    pub vec: VecRef,
}

/// A scheduled inbound delivery: `vec` lands on `port` at `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedDelivery {
    /// Local C2C port.
    pub port: u8,
    /// Arrival cycle.
    pub cycle: u64,
    /// Which payload vector arrives.
    pub vec: VecRef,
    /// The physical link the vector crossed to get here — the coordinate
    /// the fault layer uses to look up per-link BER and to blame marginal
    /// hardware when a delivery is uncorrectable.
    pub link: LinkId,
}

/// An emission the schedule promises: the chip sends `vec` out `port` at
/// `cycle`. The executor verifies actual emissions against these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedEmission {
    /// Issue cycle of the SEND.
    pub cycle: u64,
    /// Local C2C port.
    pub port: u8,
    /// Which payload vector is promised.
    pub vec: VecRef,
}

/// The records of `slab` in `window`, one chip's part of the slab.
fn part<'a, T>(slab: &'a [T], window: &Range<u32>) -> &'a [T] {
    &slab[window.start as usize..window.end as usize]
}

/// Everything one chip needs across every execution of the plan: its
/// windows into the plan's slabs, which [`CompiledPlan::program`] and the
/// manifest accessors resolve. Only compile and the parse build one, so
/// its windows and shard are always its plan's.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPlan {
    /// The chip.
    pub tsp: TspId,
    /// Hop depth (0 = pure source): with the TSP, the chip's place in the
    /// order in which the executor merges results.
    pub depth: u32,
    shard: u32,
    program: Range<u32>,
    preloads: Range<u32>,
    deliveries: Range<u32>,
    emissions: Range<u32>,
    /// The transfers whose destination check this chip's job makes: each
    /// one that moves a vector to the chip, ascending.
    dests: Range<u32>,
}

/// The reusable compile artifact: per-chip windows into one contiguous
/// instruction slab and three manifest slabs, the merge order, and
/// scheduled arrivals. Payload-independent — compile once, execute with as
/// many different payload sets as you like. A runtime gets its plans only
/// from [`compile_plan`]: a plan is a pure function of (topology, shapes),
/// so recompiling is the check on it. [`CompiledPlan::to_json`] writes a
/// plan out, each chip's program as the binary
/// [`tsm_isa::encode::assemble`] emits, like the paper's machine-code
/// binaries, and [`CompiledPlan::from_json`] reads one back for tools and
/// tests.
///
/// What compile decided (the shapes, the arrivals and each chip's depth,
/// program and manifests) is all a document stores. The merge order, the
/// shards, the destination checks and `instructions` are derived from it,
/// by the same function at compile and at [`CompiledPlan::from_json`].
/// Only compile and the parse write a plan's chips, slabs and derived
/// indices, so those always agree; `shapes`, `arrivals` and
/// `instructions` stay public fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// The transfer shapes the plan was compiled for; execution payloads
    /// must match them exactly.
    pub shapes: Vec<TransferShape>,
    /// Per-chip plans, in ascending [`TspId`] order.
    chips: Vec<ChipPlan>,
    /// Every chip's issue-sorted instruction stream, back to back in chip
    /// order, in one allocation, as are the manifest slabs below: a chip's
    /// job walks its windows linearly instead of chasing heap vectors.
    slab: Vec<TimedInstruction>,
    preloads: Vec<PlannedPreload>,
    deliveries: Vec<PlannedDelivery>,
    emissions: Vec<PlannedEmission>,
    /// See [`CompiledPlan::merge_order`].
    merge_order: Vec<u32>,
    /// Every chip's destination checks, back to back in chip order.
    dests: Vec<u32>,
    /// Per-transfer scheduled arrival cycle of the last vector.
    pub arrivals: Vec<u64>,
    /// Total instructions lowered across all chips.
    pub instructions: usize,
}

impl ChipPlan {
    /// The chip's work rank: its position when the plan's chips are
    /// ordered by descending [`ChipPlan::work`], ties by ascending TSP,
    /// derived from the chips by compile and again by
    /// [`CompiledPlan::from_json`]. A parallel execute at width `w` runs
    /// this chip's job on thread `shard % w`, which deals the chips out
    /// round-robin by work: no thread holds more than an even share of the
    /// plan's work plus one chip's. The chip→thread mapping is a pure
    /// function of the plan and the width, never of scheduling order.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// What one execute asks of this chip, in plan units known at compile
    /// time: its instruction window plus its deliveries and preloads.
    pub fn work(&self) -> usize {
        self.program.len() + self.deliveries.len() + self.preloads.len()
    }
}

impl CompiledPlan {
    /// A plan of `shapes` and their `arrivals` with no chips yet, for
    /// assembly or the parse to append them.
    fn new(shapes: Vec<TransferShape>, arrivals: Vec<u64>) -> CompiledPlan {
        CompiledPlan {
            shapes,
            chips: Vec::new(),
            slab: Vec::new(),
            preloads: Vec::new(),
            deliveries: Vec::new(),
            emissions: Vec::new(),
            merge_order: Vec::new(),
            dests: Vec::new(),
            arrivals,
            instructions: 0,
        }
    }

    /// The slabs' lengths: where the windows of the next chip appended
    /// to them start.
    fn slab_ends(&self) -> [usize; 4] {
        [
            self.slab.len(),
            self.preloads.len(),
            self.deliveries.len(),
            self.emissions.len(),
        ]
    }

    /// The plan of chip `tsp` at `depth`, whose records were appended to
    /// the slabs since they ended at `starts`.
    fn appended_chip(&self, tsp: TspId, depth: u32, starts: [usize; 4]) -> ChipPlan {
        let ends = self.slab_ends();
        let window = |k: usize| starts[k] as u32..ends[k] as u32;
        ChipPlan {
            tsp,
            depth,
            shard: 0,
            program: window(0),
            preloads: window(1),
            deliveries: window(2),
            emissions: window(3),
            dests: 0..0,
        }
    }

    /// Derives each chip's shard, the merge order, each chip's destination
    /// checks and the instruction count from the chips appended. Compile
    /// and the parse both end here, so a document derives what compile
    /// derived. The chips must ascend by TSP and include every transfer's
    /// destination, as compiled ones do; the parse refuses other documents.
    fn derive(mut self) -> CompiledPlan {
        let chips = &mut self.chips;
        let mut order: Vec<u32> = (0..chips.len() as u32).collect();
        // Shards: ranks by work, heaviest first, ties by ascending TSP.
        order.sort_unstable_by_key(|&i| {
            let c = &chips[i as usize];
            (Reverse(c.work()), c.tsp)
        });
        for (rank, &i) in order.iter().enumerate() {
            chips[i as usize].shard = rank as u32;
        }
        order.sort_unstable_by_key(|&i| (chips[i as usize].depth, i));
        self.merge_order = order;
        let mut dests: Vec<(u32, u32)> = (self.shapes.iter().enumerate())
            .filter(|(_, s)| s.vectors > 0)
            .map(|(t, s)| {
                let chip = (chips.binary_search_by_key(&s.to, |c| c.tsp))
                    .expect("every transfer ends at a chip of the plan");
                (chip as u32, t as u32)
            })
            .collect();
        dests.sort_unstable();
        let mut start = 0;
        for (i, chip) in chips.iter_mut().enumerate() {
            let end = dests.partition_point(|d| d.0 <= i as u32);
            chip.dests = start as u32..end as u32;
            start = end;
        }
        self.dests = dests.into_iter().map(|(_, t)| t).collect();
        self.instructions = self.slab.len();
        self
    }

    /// Per-chip plans, in ascending [`TspId`] order.
    pub fn chips(&self) -> &[ChipPlan] {
        &self.chips
    }

    /// The issue-sorted instruction stream of `chip` (its window into the
    /// plan's contiguous slab).
    pub fn program<'a>(&'a self, chip: &ChipPlan) -> &'a [TimedInstruction] {
        part(&self.slab, &chip.program)
    }

    /// The source-SRAM preloads of `chip`.
    pub fn preloads<'a>(&'a self, chip: &ChipPlan) -> &'a [PlannedPreload] {
        part(&self.preloads, &chip.preloads)
    }

    /// The inbound deliveries of `chip`, sorted by (port, cycle) so the
    /// executor can feed each port queue in order.
    pub fn deliveries<'a>(&'a self, chip: &ChipPlan) -> &'a [PlannedDelivery] {
        part(&self.deliveries, &chip.deliveries)
    }

    /// The emissions `chip` promises, sorted by (cycle, port) — the
    /// canonical order emission verification compares in.
    pub fn emissions<'a>(&'a self, chip: &ChipPlan) -> &'a [PlannedEmission] {
        part(&self.emissions, &chip.emissions)
    }

    /// The transfers whose destination check `chip`'s job makes.
    pub(super) fn dests<'a>(&'a self, chip: &ChipPlan) -> &'a [u32] {
        part(&self.dests, &chip.dests)
    }

    /// Every chip once, as an index into [`CompiledPlan::chips`], by
    /// ascending `(depth, TspId)`. Every delivery is bound from the plan, so
    /// no chip waits on another: this is only the order in which the
    /// executor merges results, and so decides which error it reports
    /// first.
    pub(super) fn merge_order(&self) -> &[u32] {
        &self.merge_order
    }

    /// The heap bytes the plan's records take, counted from its lengths:
    /// the residency layer's estimate of a resident plan.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.shapes[..])
            + size_of_val(&self.chips[..])
            + size_of_val(&self.slab[..])
            + size_of_val(&self.preloads[..])
            + size_of_val(&self.deliveries[..])
            + size_of_val(&self.emissions[..])
            + size_of_val(&self.merge_order[..])
            + size_of_val(&self.dests[..])
            + size_of_val(&self.arrivals[..])
    }

    /// Serializes the plan as pretty-printed JSON through
    /// [`tsm_trace::JsonWriter`], the writer every document of the
    /// workspace uses (fixed field order, strings escaped through
    /// [`tsm_trace::escape_json`]). It writes what
    /// compile decided: the shapes, the arrivals and, per chip, its TSP,
    /// depth, manifests and program, the program as one hex string of
    /// [`tsm_isa::encode::assemble`]'s 16-byte records (issue cycle, then
    /// instruction word).
    pub fn to_json(&self) -> String {
        json::emit(self)
    }

    /// Deserializes a plan previously produced by [`CompiledPlan::to_json`]
    /// and derives its merge order, shards, destination checks and
    /// instruction count as compile does. Field order is not significant.
    /// Unknown keys, a program that is not whole hex records or whose
    /// records do not re-assemble to the same bytes, a depth at or past the
    /// chip count, and a plan that indexes outside itself or lists its
    /// program or manifests out of order are rejected with a descriptive
    /// error, before anything is derived.
    pub fn from_json(s: &str) -> Result<Self, String> {
        json::parse(s)
    }

    /// Flattens the plan's delivery manifest into the profiler's
    /// [`tsm_trace::profile::PlannedTimeline`]: one
    /// [`tsm_trace::profile::PlannedHop`] per
    /// scheduled delivery, with its wire-occupancy window reconstructed
    /// from the schedule's timing model (a delivery at cycle `c` over a
    /// link of latency `L` occupied the wire over `[c - L - slot, c - L)`),
    /// plus each chip's planned execution window.
    ///
    /// This is the compile-time half of the plan-vs-actual join — the
    /// run-time half is the `Delivery` event stream the executor emits.
    /// A delivery over a link `topo` does not have, which a plan read by
    /// [`CompiledPlan::from_json`] may name, is
    /// [`CosimError::UnknownLink`].
    pub fn planned_timeline(
        &self,
        topo: &Topology,
    ) -> Result<tsm_trace::profile::PlannedTimeline, CosimError> {
        use tsm_trace::profile::{PlannedChip, PlannedHop, PlannedTimeline};
        let slot = vector_slot_cycles();
        let mut hops = Vec::new();
        let mut chips = Vec::with_capacity(self.chips.len());
        let mut span = self.arrivals.iter().copied().max().unwrap_or(0);
        for chip in &self.chips {
            for d in self.deliveries(chip) {
                if d.link.index() >= topo.links().len() {
                    return Err(CosimError::UnknownLink { link: d.link });
                }
                let latency = scheduled_link_latency(topo, d.link);
                let wire_end = d.cycle.saturating_sub(latency);
                hops.push(PlannedHop {
                    link: d.link.0,
                    transfer: d.vec.transfer,
                    vector: d.vec.vector,
                    cycle: d.cycle,
                    wire_start: wire_end.saturating_sub(slot),
                    wire_end,
                    dest_lane: chip.tsp.0,
                });
            }
            let instrs = self.program(chip);
            let start = instrs.first().map_or(0, |i| i.cycle);
            let end = instrs.last().map_or(0, |i| i.cycle);
            span = span.max(end);
            chips.push(PlannedChip {
                lane: chip.tsp.0,
                start,
                end,
                instructions: instrs.len() as u32,
            });
        }
        hops.sort_by_key(|h| (h.link, h.wire_start, h.transfer, h.vector));
        Ok(PlannedTimeline {
            hops,
            chips,
            span,
            arrivals: self.arrivals.clone(),
        })
    }
}

/// Per-chip stream-register allocator with liveness tracking.
///
/// A flow reserves the lowest-numbered register that is dead over its
/// whole `[start, end]` live range; the register is recycled once the
/// range has passed. Exhaustion (more than [`MAX_STREAMS`] simultaneously
/// live flows through one chip) is reported to the caller instead of
/// silently aliasing a live register, as a modulo-32 round-robin would.
#[derive(Debug, Clone, Default)]
pub(super) struct StreamAlloc {
    /// `live_until[s]` = last cycle on which stream `s` still carries a
    /// live value. A never-used stream is taken only when every lower one
    /// is live, so the streams used so far are always `0..len`: a chip
    /// keeps one entry per stream it has used.
    live_until: Vec<u64>,
}

impl StreamAlloc {
    /// Reserves the lowest-numbered stream free over `[start, end]`. A
    /// stream is free only if its previous live range ended *strictly*
    /// before `start` (a same-cycle read/write handoff would be
    /// order-dependent, so it is not allowed).
    pub(super) fn alloc(&mut self, start: u64, end: u64) -> Option<StreamId> {
        debug_assert!(start <= end);
        let s = match self.live_until.iter().position(|&until| until < start) {
            Some(s) => {
                self.live_until[s] = end;
                s
            }
            None if self.live_until.len() < MAX_STREAMS => {
                self.live_until.push(end);
                self.live_until.len() - 1
            }
            None => return None,
        };
        Some(StreamId::new(s as u8).expect("stream id in range"))
    }
}

/// Chip execution-unit occupancy — the compile-time mirror of the busy
/// model `ChipSim` enforces at run time: each instruction holds resource
/// `(unit, port)` for `[cycle, cycle + min_latency)`, where C2C
/// instructions occupy one port engine each and every other unit is a
/// single resource. Link occupancy alone cannot serialize flows that
/// cross at a *chip* (two flows on disjoint links can collide at a shared
/// forwarder's Mem unit), so [`compile_plan`] trial-schedules every
/// transfer against this table and delays its injection until the whole
/// chip-side window is free.
///
/// The lowering occupies only the Mem unit and the C2C port engines, so
/// each chip has [`UNIT_SLOTS`] resources: slot 0 is Mem, slot `1 + p`
/// is C2C port `p`. The table keeps one record per booked [`Train`], not
/// per window, so its size and the cost of a query grow with the number
/// of trains, not with their length.
#[derive(Debug)]
struct UnitOccupancy {
    /// The trains booked on each resource, sorted by start and indexed by
    /// [`resource`](Self::resource). Their windows are disjoint.
    busy: Vec<Vec<Booked>>,
}

/// A train booked on one resource: `count` windows of `hold` cycles, one
/// vector slot apart, the first at `start`.
#[derive(Debug, Clone, Copy)]
struct Booked {
    start: u64,
    count: u64,
    hold: u64,
    /// The latest end of a window of this train or of any train before it
    /// on the resource, so a query can stop scanning back once no earlier
    /// train reaches its start.
    reach: u64,
}

/// Resources per chip in [`UnitOccupancy`]: Mem plus one per C2C port.
const UNIT_SLOTS: usize = 1 + PORTS_PER_TSP;

/// [`UnitOccupancy`] slot of the Mem unit.
const MEM_SLOT: usize = 0;

/// [`UnitOccupancy`] slot of C2C port `port`'s engine.
fn c2c_slot(port: u8) -> usize {
    1 + usize::from(port)
}

impl UnitOccupancy {
    fn new(num_tsps: usize) -> Self {
        UnitOccupancy {
            busy: vec![Vec::new(); num_tsps * UNIT_SLOTS],
        }
    }

    /// Index of `tsp`'s resource `slot` in [`busy`](Self::busy).
    fn resource(tsp: TspId, slot: usize) -> usize {
        tsp.index() * UNIT_SLOTS + slot
    }

    /// Of the booked windows on `resource` that overlap a window of the
    /// train of `n` windows of `hold` cycles from `start`, the overlapping
    /// pair whose booked window ends furthest after the trial window
    /// starts: `(busy_until, s)`, the booked window's end and the trial
    /// window's start. `None` if no window overlaps.
    ///
    /// Every train has period `P`, the vector slot, and holds for less
    /// than `P`. Trial window `v` and booked window `u` of a train that
    /// starts `Δ` cycles before the trial and holds for `M` overlap exactly
    /// when `k = u − v` satisfies `kP ∈ (Δ − M, Δ + hold)` and `−n < k <
    /// count`, which at most two `k` do, and `busy_until − s = kP + M − Δ`
    /// depends on `k` alone. So each booked train needs only its largest
    /// such `k`, found with one division, here counted from `1 − n` so
    /// that it is never negative.
    fn conflict(&self, resource: usize, start: u64, n: u64, hold: u64) -> Option<(u64, u64)> {
        if n == 0 {
            return None;
        }
        let slot = vector_slot_cycles();
        let last = start + (n - 1) * slot;
        let end = last + hold;
        let trains = &self.busy[resource];
        let mut worst: Option<(u64, u64)> = None;
        // A train that starts at or after `end` overlaps nothing; scan the
        // others back from the latest while one of them may still reach
        // past `start`.
        let mut i = trains.partition_point(|b| b.start < end);
        while i > 0 && trains[i - 1].reach > start {
            i -= 1;
            let b = trains[i];
            // The largest `k + n − 1` with `kP < Δ + hold` and `k < count`.
            let shifted = ((end - b.start - 1) / slot).min(b.count + n - 2);
            // No overlap unless `kP > Δ − M` holds for it too.
            if b.start + b.hold + shifted * slot <= last {
                continue;
            }
            let v = (n - 1).saturating_sub(shifted);
            let u = v + shifted - (n - 1);
            let (busy_until, s) = (b.start + u * slot + b.hold, start + v * slot);
            if worst.is_none_or(|(e, w)| busy_until - s > e - w) {
                worst = Some((busy_until, s));
            }
        }
        worst
    }

    /// Books the train of `n` windows of `hold` cycles from `start` on
    /// `resource`, whose windows must be free.
    fn book(&mut self, resource: usize, start: u64, n: u64, hold: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(
            self.conflict(resource, start, n, hold).is_none(),
            "{} slot {}: booked windows overlap",
            TspId((resource / UNIT_SLOTS) as u32),
            resource % UNIT_SLOTS
        );
        let end = start + (n - 1) * vector_slot_cycles() + hold;
        let trains = &mut self.busy[resource];
        let i = trains.partition_point(|b| b.start < start);
        let reach = i.checked_sub(1).map_or(end, |j| trains[j].reach.max(end));
        trains.insert(
            i,
            Booked {
                start,
                count: n,
                hold,
                reach,
            },
        );
        for b in &mut trains[i + 1..] {
            if b.reach >= end {
                break;
            }
            b.reach = end;
        }
    }
}

/// What the instructions of one [`Train`] do. Along a transfer's path the
/// source loads and sends, each forwarder receives, stages, unstages and
/// sends, and the destination receives and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Reads the payload out of the source region onto the stream.
    Load,
    /// Sends the stream out of this C2C port.
    Send(u8),
    /// Receives from this C2C port onto the stream.
    Receive(u8),
    /// Writes the received vector to forwarding scratch.
    Stage,
    /// Reads the staged vector back onto the stream to forward it.
    Unstage,
    /// Writes the received vector to the destination region.
    Store,
}

impl Op {
    /// The instruction the op lowers to, moving `stream` to or from SRAM
    /// `(slice, offset)` or through its port.
    fn lower(self, stream: StreamId, slice: u8, offset: u16) -> Instruction {
        match self {
            Op::Load | Op::Unstage => Instruction::Read {
                slice,
                offset,
                stream,
                dir: Direction::East,
            },
            Op::Stage | Op::Store => Instruction::Write {
                slice,
                offset,
                stream,
            },
            Op::Send(port) => Instruction::Send { port, stream },
            Op::Receive(port) => Instruction::Receive { port, stream },
        }
    }

    /// The [`UnitOccupancy`] slot each of the op's instructions holds, and
    /// for how many cycles: as `ChipSim` busies them, the instruction's
    /// C2C port engine (else its Mem unit) for its `min_latency`.
    fn hold(self) -> (usize, u64) {
        let instr = self.lower(StreamId::new(0).expect("stream 0 exists"), 0, 0);
        let slot = match instr {
            Instruction::Send { port, .. } | Instruction::Receive { port, .. } => c2c_slot(port),
            _ => MEM_SLOT,
        };
        (slot, instr.min_latency())
    }
}

/// `n` instructions of one [`Op`] on one chip of a transfer's path, one
/// vector slot apart, the first a fixed `offset` from the start of its
/// hop. A transfer's trains are the one statement of its chip timing: the
/// chip-unit search, the booking, the lowering, the stream live ranges and
/// the manifest all read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Train {
    /// Position of the chip on the path (0 = the source).
    chip: usize,
    /// The hop whose start `offset` is counted from.
    hop: usize,
    /// Issue cycle of the first instruction, relative to the hop's start.
    offset: i64,
    op: Op,
    /// The [`UnitOccupancy`] resource each instruction holds.
    resource: usize,
    /// How many cycles each instruction holds it.
    hold: u64,
}

impl Train {
    /// Issue cycle of the first instruction when the hops start at
    /// `hop_starts`. The search injects no earlier than [`READ_LATENCY`],
    /// so no read starts before cycle 0; saturating keeps the boundary
    /// well-defined.
    fn start(&self, hop_starts: &[u64]) -> u64 {
        hop_starts[self.hop].saturating_add_signed(self.offset)
    }
}

/// Fills `out` with the trains of a transfer along `path`, chip by chip
/// along the path. The source reads each vector [`READ_LATENCY`] before
/// its hop sends it. Every other chip receives a vector a vector slot plus
/// the link latency after the hop into it started, and writes it one cycle
/// later: to the destination region at the destination; at a forwarder to
/// scratch, from which it reads the vector back [`READ_LATENCY`] before
/// its own hop sends it ("we use the local SRAM storage on each TSP to
/// provide intermediate buffering", §2.3 — a stream register alone would
/// be overwritten by the next arriving flit long before the forwarding
/// point; this staging is what the per-hop overhead pays for).
fn trains(topo: &Topology, path: &Path, out: &mut Vec<Train>) {
    let slot = vector_slot_cycles();
    let read = -(READ_LATENCY as i64);
    let last = path.links.len();
    let send = |h: usize| Op::Send(port_of(topo, path, h, path.tsps[h]));
    out.clear();
    let mut at = |chip: usize, hop: usize, offset: i64, op: Op| {
        let (unit_slot, hold) = op.hold();
        // The closed form in `UnitOccupancy::conflict` relies on it.
        assert!(hold < slot, "{op:?} holds its unit for a whole vector slot");
        out.push(Train {
            chip,
            hop,
            offset,
            op,
            resource: UnitOccupancy::resource(path.tsps[chip], unit_slot),
            hold,
        });
    };
    at(0, 0, read, Op::Load);
    at(0, 0, 0, send(0));
    for (h, &link) in path.links.iter().enumerate() {
        let chip = h + 1;
        let arrive = (slot + scheduled_link_latency(topo, link)) as i64;
        let port = port_of(topo, path, h, path.tsps[chip]);
        at(chip, h, arrive, Op::Receive(port));
        if chip == last {
            at(chip, h, arrive + 1, Op::Store);
        } else {
            at(chip, h, arrive + 1, Op::Stage);
            at(chip, chip, read, Op::Unstage);
            at(chip, chip, 0, send(chip));
        }
    }
}

/// SRAM offsets per slice: offsets are `u16`, so a region may end at
/// offset `u16::MAX` and no further.
const SRAM_OFFSETS: u64 = 1 << 16;

/// Checks that `vectors` contiguous offsets from `base` fit in a slice.
fn check_region(tsp: TspId, transfer: usize, base: u64, vectors: u64) -> Result<(), CosimError> {
    if base + vectors > SRAM_OFFSETS {
        return Err(CosimError::AddressOverflow { tsp, transfer });
    }
    Ok(())
}

/// A [`Train`] as lowered onto its chip: `count` instructions of `op`,
/// one vector slot apart from `start`, the `v`-th moving vector `v` of
/// `transfer` through `stream`, to or from SRAM `(slice, base + v)`.
#[derive(Debug, Clone, Copy)]
struct Lowered {
    transfer: u32,
    op: Op,
    start: u64,
    count: u32,
    stream: StreamId,
    slice: u8,
    base: u16,
    /// The link a receive train's vectors arrive over.
    link: LinkId,
}

impl Lowered {
    /// The vector the `v`-th instruction moves.
    fn vec(&self, v: u64) -> VecRef {
        VecRef {
            transfer: self.transfer,
            vector: v as u32,
        }
    }

    /// The `v`-th instruction, which issues at `cycle`.
    fn instr(&self, v: u64, cycle: u64) -> TimedInstruction {
        TimedInstruction {
            cycle,
            instr: self.op.lower(self.stream, self.slice, self.base + v as u16),
        }
    }
}

/// Everything the lowering accumulates for one participating chip.
#[derive(Debug, Clone)]
struct ChipBuild {
    tsp: TspId,
    /// The chip's lowered trains, transfer by transfer, each transfer's in
    /// path order.
    trains: Vec<Lowered>,
    /// Hop depth: the max position of the chip over its paths.
    depth: usize,
    streams: StreamAlloc,
    /// Next free forwarding-scratch offset, bump-allocated.
    scratch_next: u64,
}

impl ChipBuild {
    fn stream(&mut self, start: u64, end: u64) -> Result<StreamId, CosimError> {
        self.streams
            .alloc(start, end)
            .ok_or(CosimError::StreamExhausted {
                tsp: self.tsp,
                cycle: start,
            })
    }

    /// Allocates `vectors` forwarding-scratch offsets for `transfer`.
    fn scratch(&mut self, transfer: usize, vectors: u64) -> Result<u16, CosimError> {
        let base = self.scratch_next;
        check_region(self.tsp, transfer, base, vectors)?;
        self.scratch_next += vectors;
        Ok(base as u16)
    }

    /// Appends the chip's program to `plan`'s slab in issue order,
    /// `(cycle, unit)`, equal keys in lowering order (by transfer, vector,
    /// then the train's place on the path, as a stable sort of the
    /// instructions pushed in that order would leave them), its preloads
    /// in lowering order and its manifests to their slabs.
    ///
    /// One merge writes the program and both C2C manifests in their own
    /// orders, because no two sends and no two receives of a chip share a
    /// cycle: each send follows a Mem read by [`READ_LATENCY`], each
    /// receive precedes a Mem write by one cycle, and compile books the
    /// chip's one Mem unit for a read's or write's five cycles. So the
    /// emissions come out by `(cycle, port)`, and each port's deliveries
    /// by cycle into the port's bucket, the buckets in port order.
    fn assemble(&self, merge: &mut Merge, plan: &mut CompiledPlan) -> ChipPlan {
        let starts = plan.slab_ends();
        for t in self.trains.iter().filter(|t| t.op == Op::Load) {
            plan.preloads
                .extend((0..u64::from(t.count)).map(|v| PlannedPreload {
                    slice: t.slice,
                    offset: t.base + v as u16,
                    vec: t.vec(v),
                }));
        }
        // Each port's bucket starts where the lower ports' deliveries end.
        let mut bucket = [0; PORTS_PER_TSP];
        for t in &self.trains {
            if let Op::Receive(port) = t.op {
                bucket[usize::from(port)] += t.count as usize;
            }
        }
        let mut end = plan.deliveries.len();
        for b in &mut bucket {
            (*b, end) = (end, end + *b);
        }
        let unfilled = PlannedDelivery {
            port: 0,
            cycle: 0,
            vec: VecRef::default(),
            link: LinkId(0),
        };
        plan.deliveries.resize(end, unfilled);
        let (mut received, mut sent) = (None, None);
        merge.run(&self.trains, |t, v, cycle| {
            plan.slab.push(t.instr(v, cycle));
            let (tsp, vec) = (self.tsp, t.vec(v));
            match t.op {
                Op::Receive(port) => {
                    debug_assert!(received < Some(cycle), "{tsp}: two receives at {cycle}");
                    received = Some(cycle);
                    let at = &mut bucket[usize::from(port)];
                    plan.deliveries[*at] = PlannedDelivery {
                        port,
                        cycle,
                        vec,
                        link: t.link,
                    };
                    *at += 1;
                }
                Op::Send(port) => {
                    debug_assert!(sent < Some(cycle), "{tsp}: two sends at {cycle}");
                    sent = Some(cycle);
                    plan.emissions.push(PlannedEmission { cycle, port, vec });
                }
                Op::Load | Op::Stage | Op::Unstage | Op::Store => {}
            }
        });
        let chip = plan.appended_chip(self.tsp, self.depth as u32, starts);
        debug_assert!(
            (plan.program(&chip)).is_sorted_by_key(|ti| (ti.cycle, ti.instr.unit())),
            "{}: program out of issue order",
            self.tsp
        );
        chip
    }
}

/// A train in a [`Merge`].
#[derive(Debug)]
struct Run {
    /// Its place in the per-period order: phase, unit, transfer, the later
    /// start first, then its index in the chip's trains.
    order: (u64, u8, u32, Reverse<u64>, usize),
    /// The periods it issues in: `[first, end)`.
    first: u64,
    end: u64,
}

/// Merges a chip's trains into one stream in issue order, with buffers
/// reused from chip to chip.
#[derive(Debug, Default)]
struct Merge {
    /// The trains being merged, by first period.
    runs: Vec<Run>,
    /// The trains running in the current period, as indices into `runs`,
    /// in per-period order.
    running: Vec<usize>,
}

impl Merge {
    /// Calls `f(train, v, cycle)` for the `v`-th instruction of each train
    /// in ascending `(cycle, unit, transfer, v, j)` order, where `unit` is
    /// the functional unit of the train's instructions and `j` the train's
    /// index in `trains`: the order in which a stable sort by `(cycle,
    /// unit)` leaves the instructions if they were pushed transfer by
    /// transfer, vector by vector, each vector's in train order.
    ///
    /// Every train has the same period, the vector slot, so within one
    /// slot-long period each running train issues exactly once, at its
    /// phase `start % slot`, and the running trains always issue in one
    /// fixed order: by phase, unit and transfer, then the later-started
    /// train first (its `v` is smaller), then `j`. The merge keeps the
    /// running trains in that order and walks the periods, so it compares
    /// keys only when a train starts.
    fn run(&mut self, trains: &[Lowered], mut f: impl FnMut(&Lowered, u64, u64)) {
        let slot = vector_slot_cycles();
        let (runs, running) = (&mut self.runs, &mut self.running);
        runs.clear();
        runs.extend(trains.iter().enumerate().map(|(j, t)| {
            let unit = t.op.lower(t.stream, t.slice, t.base).unit().index() as u8;
            let first = t.start / slot;
            Run {
                order: (t.start % slot, unit, t.transfer, Reverse(first), j),
                first,
                end: first + u64::from(t.count),
            }
        }));
        runs.sort_unstable_by_key(|r| r.first);
        running.clear();
        let (mut next, mut period) = (0, 0);
        loop {
            if running.is_empty() {
                match runs.get(next) {
                    Some(r) => period = r.first,
                    None => return,
                }
            }
            while runs.get(next).is_some_and(|r| r.first == period) {
                let at = running.partition_point(|&a| runs[a].order < runs[next].order);
                running.insert(at, next);
                next += 1;
            }
            for &r in running.iter() {
                let (t, v) = (&trains[runs[r].order.4], period - runs[r].first);
                f(t, v, t.start + v * slot);
            }
            period += 1;
            running.retain(|&r| runs[r].end > period);
        }
    }
}

/// The builders of the chips a plan touches, in first-touch order, with a
/// dense per-TSP index into them.
#[derive(Clone)]
struct ChipBuilds {
    /// Per TSP: position in `chips`, or `u32::MAX` if untouched.
    index: Vec<u32>,
    chips: Vec<ChipBuild>,
}

impl ChipBuilds {
    fn new(num_tsps: usize) -> Self {
        ChipBuilds {
            index: vec![u32::MAX; num_tsps],
            chips: Vec::new(),
        }
    }

    fn get(&mut self, tsp: TspId) -> &mut ChipBuild {
        let i = &mut self.index[tsp.index()];
        if *i == u32::MAX {
            *i = self.chips.len() as u32;
            self.chips.push(ChipBuild {
                tsp,
                trains: Vec::new(),
                depth: 0,
                streams: StreamAlloc::default(),
                scratch_next: 0,
            });
        }
        &mut self.chips[*i as usize]
    }

    /// The builders in ascending [`TspId`] order, read off the index.
    fn in_tsp_order(&self) -> impl Iterator<Item = &ChipBuild> {
        let touched = self.index.iter().filter(|&&i| i != u32::MAX);
        touched.map(|&i| &self.chips[i as usize])
    }
}

/// The reservation tables a compile books into: link frontiers and
/// chip-unit trains, with the trains of the transfer being booked.
struct Occupancy {
    links: LinkOccupancy,
    units: UnitOccupancy,
    /// The trains of the transfer being booked, as offsets from its hop
    /// starts: computed once per transfer, into a buffer reused across
    /// transfers. Each search trial adds its hop starts; then
    /// [`Occupancy::commit`] and the lowering read them at the schedule
    /// the search found.
    trains: Vec<Train>,
}

impl Occupancy {
    fn new(num_tsps: usize) -> Self {
        Occupancy {
            links: LinkOccupancy::new(),
            units: UnitOccupancy::new(num_tsps),
            trains: Vec::new(),
        }
    }

    /// Finds the least injection, no earlier than [`READ_LATENCY`], at
    /// which a transfer of `n` vectors along `path` is free on every link
    /// and at every chip unit it touches. Returns its schedule and the
    /// trials (link plans and train scans) the search took.
    ///
    /// For injection `e`, hop `h` starts at `max(e + unpinned[h], K_h)`,
    /// where `unpinned[h]` is the hop's offset on an idle fabric and `K_h`
    /// folds in the link frontiers, which do not move during the search.
    /// A window `o` cycles after its hop's start that overlaps a booked
    /// window ending at `U` therefore overlaps it at every injection below
    /// `U - o - unpinned[h]`. After a conflict the search jumps to the
    /// largest such bound over the conflicting windows, so every injection
    /// it skips conflicts, and the first conflict-free trial is the least
    /// conflict-free injection. On an unpinned hop the bound is
    /// `e + U - s` for a window starting at `s`; on a hop its link's
    /// frontier pins, it lies the pin's slack further on. Either way each
    /// jump advances the injection, and booked windows end at finite
    /// cycles, so the search terminates.
    fn first_free_injection(
        &mut self,
        topo: &Topology,
        path: &Path,
        n: u64,
    ) -> Result<(TransferSchedule, usize), CosimError> {
        let slot = vector_slot_cycles();
        let mut unpinned = Vec::with_capacity(path.links.len());
        let mut offset = 0;
        for &link in &path.links {
            unpinned.push(offset);
            offset += slot + scheduled_link_latency(topo, link) + FORWARD_OVERHEAD_CYCLES;
        }
        trains(topo, path, &mut self.trains);
        let mut earliest = READ_LATENCY;
        let mut sched = self
            .links
            .plan_transfer(topo, path, n, earliest)
            .map_err(CosimError::Schedule)?;
        let mut trials = 1;
        loop {
            let mut next = earliest;
            for t in &self.trains {
                let start = t.start(&sched.hop_starts);
                if let Some((busy_until, s)) = self.units.conflict(t.resource, start, n, t.hold) {
                    // In this order: a Read window starts before its hop,
                    // so `s - hop_starts[h]` would underflow.
                    next = next.max((busy_until + sched.hop_starts[t.hop]) - (s + unpinned[t.hop]));
                }
            }
            if next == earliest {
                return Ok((sched, trials));
            }
            earliest = next;
            trials += 1;
            self.links
                .plan_transfer_into(topo, path, n, earliest, &mut sched)
                .map_err(CosimError::Schedule)?;
        }
    }

    /// Books `sched`, which the last [`Occupancy::first_free_injection`]
    /// found for `n` vectors along `path`, on its links, and one record per
    /// train on its chip units. The trains stay for the lowering.
    fn commit(&mut self, path: &Path, n: u64, sched: &TransferSchedule) {
        debug_assert!(
            self.trains
                .iter()
                .all(|t| t.resource / UNIT_SLOTS == path.tsps[t.chip].index()),
            "the trains are not the searched path's"
        );
        self.links.commit(path, sched);
        for t in &self.trains {
            let start = t.start(&sched.hop_starts);
            self.units.book(t.resource, start, n, t.hold);
        }
    }
}

/// Distinct `(from, to)` pairs per route-stage thread. A scoped thread's
/// spawn and join costs about as much as three to five routes (about
/// 41 µs against 9–13 µs per route on a 2-vCPU host), so a group this
/// large repays its thread many times over.
const ROUTE_GRAIN: usize = 256;

/// Runs `f` on every item, in contiguous groups of about equal length:
/// one group per `grain` items, at most `width` groups, the first on the
/// calling thread and each other on a scoped thread. `f` touches only its
/// own item, so the result does not depend on the width.
fn for_each_grouped<T: Send>(
    items: &mut [T],
    width: usize,
    grain: usize,
    f: impl Fn(&mut T) + Sync,
) {
    let groups = width.min(items.len() / grain).max(1);
    if groups == 1 {
        return items.iter_mut().for_each(f);
    }
    let mut parts = items.chunks_mut(items.len().div_ceil(groups));
    let first = parts.next().expect("at least one group");
    std::thread::scope(|s| {
        for part in parts {
            s.spawn(|| part.iter_mut().for_each(&f));
        }
        first.iter_mut().for_each(&f);
    });
}

/// Compiles transfer shapes into a [`CompiledPlan`]: routes each transfer
/// onto a minimal path, reserves conflict-free link slots, lowers per-TSP
/// chip programs in issue order, assigns stream registers, and
/// materializes the full symbolic delivery/emission manifest. No payload
/// bytes are consulted; the result is reusable across executions.
///
/// Routing runs on up to the executor's automatic worker count of threads
/// (`TSM_THREADS`, else the host's parallelism), once the plan has enough
/// distinct pairs to pay for them; the plan is the same at every width.
pub fn compile_plan(topo: &Topology, shapes: &[TransferShape]) -> Result<CompiledPlan, CosimError> {
    compile_plan_on(topo, shapes, auto_threads())
}

/// [`compile_plan`] with its route stage split across at most `width`
/// threads. The booking tables are freed before assembly allocates the
/// plan, so the two are never live at once.
fn compile_plan_on(
    topo: &Topology,
    shapes: &[TransferShape],
    width: usize,
) -> Result<CompiledPlan, CosimError> {
    let (builds, arrivals, units) = book_and_lower(topo, shapes, width)?;
    drop(units);
    Ok(assemble(shapes, arrivals, &builds))
}

/// Routes, books and lowers every transfer, in order: the chips' lowered
/// trains, each transfer's scheduled last arrival and the chip-unit
/// trains booked.
fn book_and_lower(
    topo: &Topology,
    shapes: &[TransferShape],
    width: usize,
) -> Result<(ChipBuilds, Vec<u64>, UnitOccupancy), CosimError> {
    let mut occupancy = Occupancy::new(topo.num_tsps());
    let mut builds = ChipBuilds::new(topo.num_tsps());
    let mut arrivals = Vec::with_capacity(shapes.len());

    // Each distinct (from, to) pair is routed once, up front, the pairs in
    // first-use order. A pair's route error surfaces only at the first
    // transfer that uses it, so errors keep transfer order.
    let mut pair_index: HashMap<(TspId, TspId), usize> = HashMap::with_capacity(shapes.len());
    let mut routes = Vec::new();
    let route_of: Vec<usize> = shapes
        .iter()
        .map(|tr| {
            *pair_index.entry((tr.from, tr.to)).or_insert_with(|| {
                routes.push(((tr.from, tr.to), None));
                routes.len() - 1
            })
        })
        .collect();
    for_each_grouped(&mut routes, width, ROUTE_GRAIN, |((from, to), path)| {
        *path = Some(shortest_path(topo, *from, *to))
    });

    for (idx, tr) in shapes.iter().enumerate() {
        let path = routes[route_of[idx]]
            .1
            .as_ref()
            .expect("every pair is routed up front")
            .as_ref()
            .map_err(|e| CosimError::Route(e.clone()))?;
        if path.links.is_empty() {
            // from == to: nothing crosses the network, a caller error.
            return Err(CosimError::LocalTransfer { transfer: idx });
        }
        let n = u64::from(tr.vectors);
        if n > 0 {
            check_region(tr.from, idx, tr.src_offset.into(), n)?;
            check_region(tr.to, idx, tr.dst_offset.into(), n)?;
        }
        // Injection starts after the source's SRAM read pipeline has had
        // time to stage the first vector, and is delayed further until
        // every chip execution unit the transfer touches is free for its
        // whole window: link reservations alone cannot serialize flows
        // that cross at a chip, so each transfer is trial-scheduled
        // against the unit occupancy until its plan is conflict-free at
        // the chips as well as on the wires.
        let (sched, _) = occupancy.first_free_injection(topo, path, n)?;
        arrivals.push(sched.last_arrival);
        occupancy.commit(path, n, &sched);
        if n > 0 {
            let trains = &occupancy.trains;
            lower_transfer(topo, path, idx, tr, trains, &sched.hop_starts, &mut builds)?;
        }
    }
    Ok((builds, arrivals, occupancy.units))
}

/// Assembles the plan: per-chip plans in ascending TspId order, each
/// chip's program and manifests written once into the plan's slabs, sized
/// exactly up front, by one merge of its trains; then the merge order,
/// shards and destination checks are derived ([`CompiledPlan::derive`]).
/// A chip at depth d receives only from chips at depth < d, so ascending
/// depth is a topological order, the order in which the executor merges
/// chip results.
fn assemble(shapes: &[TransferShape], arrivals: Vec<u64>, builds: &ChipBuilds) -> CompiledPlan {
    let trains = || builds.chips.iter().flat_map(|c| &c.trains);
    let total = |keep: fn(&Lowered) -> bool| -> usize {
        trains().filter(|t| keep(t)).map(|t| t.count as usize).sum()
    };
    let mut plan = CompiledPlan::new(shapes.to_vec(), arrivals);
    plan.chips.reserve_exact(builds.chips.len());
    plan.slab.reserve_exact(total(|_| true));
    plan.preloads.reserve_exact(total(|t| t.op == Op::Load));
    (plan.deliveries).reserve_exact(total(|t| matches!(t.op, Op::Receive(_))));
    (plan.emissions).reserve_exact(total(|t| matches!(t.op, Op::Send(_))));
    let mut merge = Merge::default();
    for c in builds.in_tsp_order() {
        let chip = c.assemble(&mut merge, &mut plan);
        plan.chips.push(chip);
    }
    plan.derive()
}

/// Lowers transfer `idx`, `tr` of at least one vector, whose `trains`
/// along `path` were booked at `hop_starts`, into its chips' lowered
/// trains, stream registers and forwarding scratch.
///
/// Chip by chip along the path, registers and scratch are allocated train
/// by train and the trains recorded in train order, which fixes the first
/// error and, through [`Merge::run`], the order of equal keys in each
/// chip's program and manifests.
fn lower_transfer(
    topo: &Topology,
    path: &Path,
    idx: usize,
    tr: &TransferShape,
    trains: &[Train],
    hop_starts: &[u64],
    builds: &mut ChipBuilds,
) -> Result<(), CosimError> {
    let slot = vector_slot_cycles();
    let n = u64::from(tr.vectors);
    let start = |t: &Train| t.start(hop_starts);
    for on_chip in trains.chunk_by(|a, b| a.chip == b.chip) {
        let position = on_chip[0].chip;
        let chip = builds.get(path.tsps[position]);
        chip.depth = chip.depth.max(position);
        // Each consecutive pair of trains (load→send, receive→stage,
        // unstage→send, receive→store) passes its vectors through one
        // stream register, live from the first train's start to the
        // second train's last instruction.
        let mut streams = [None; 2];
        for (stream, pair) in streams.iter_mut().zip(on_chip.chunks(2)) {
            *stream = Some(chip.stream(start(&pair[0]), start(&pair[1]) + (n - 1) * slot)?);
        }
        let scratch = if on_chip.iter().any(|t| t.op == Op::Stage) {
            chip.scratch(idx, n)?
        } else {
            0
        };
        for (i, t) in on_chip.iter().enumerate() {
            let (slice, base) = match t.op {
                Op::Load => (tr.src_slice, tr.src_offset),
                Op::Stage | Op::Unstage => (SCRATCH_SLICE, scratch),
                Op::Store => (tr.dst_slice, tr.dst_offset),
                Op::Send(_) | Op::Receive(_) => (0, 0),
            };
            chip.trains.push(Lowered {
                transfer: idx as u32,
                op: t.op,
                start: start(t),
                count: tr.vectors,
                stream: streams[i / 2].expect("every train is in a pair"),
                slice,
                base,
                link: path.links[t.hop],
            });
        }
    }
    // The port the previous chip on the path sends on.
    let mut sent = 0;
    for (i, t) in trains.iter().enumerate() {
        let tsp = path.tsps[t.chip];
        match t.op {
            Op::Send(port) => {
                debug_assert!(
                    start(t) >= READ_LATENCY,
                    "hop {} sends before the SRAM read pipeline could stage a vector",
                    t.hop
                );
                sent = port;
            }
            Op::Receive(port) => debug_assert_eq!(
                topo.port_peer(path.tsps[t.hop], sent),
                Some((path.links[t.hop], tsp, port)),
                "the receive port is not the send port's peer"
            ),
            Op::Unstage => debug_assert!(
                start(t) > start(&trains[i - 1]),
                "{tsp} unstages before it stages"
            ),
            Op::Load | Op::Stage | Op::Store => {}
        }
    }
    Ok(())
}

/// The port number `tsp` uses on hop `h`'s link.
fn port_of(topo: &Topology, path: &Path, h: usize, tsp: TspId) -> u8 {
    let l = topo.link(path.links[h]);
    if l.a == tsp {
        l.a_port
    } else {
        debug_assert_eq!(l.b, tsp);
        l.b_port
    }
}

/// Hand-rolled JSON round-trip for [`CompiledPlan`] (the workspace has
/// no JSON library). Emitter and parser share the
/// [`tsm_trace::JsonWriter`] / [`tsm_trace::Cursor`] combinators, so the
/// escaping and structure rules match every other serializer in the
/// workspace. Programs travel as the ISA's own binary
/// ([`tsm_isa::encode`]), so the instruction format has one codec.
mod json {
    use super::{
        ChipPlan, CompiledPlan, PlannedDelivery, PlannedEmission, PlannedPreload, TransferShape,
        VecRef, SRAM_OFFSETS,
    };
    use tsm_chip::exec::TimedInstruction;
    use tsm_isa::encode::{assemble, disassemble};
    use tsm_topology::{LinkId, TspId};
    use tsm_trace::{Cursor, JsonWriter};

    fn emit_vec_ref(w: &mut JsonWriter, v: &VecRef) {
        w.field_u64("transfer", v.transfer.into());
        w.field_u64("vector", v.vector.into());
    }

    /// `program` as [`assemble`]'s binary, two lowercase hex digits a byte.
    fn hex(program: &[TimedInstruction]) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let records: Vec<_> = program
            .iter()
            .map(|ti| (ti.cycle, ti.instr.clone()))
            .collect();
        (assemble(&records).into_iter())
            .flat_map(|b| [DIGITS[usize::from(b >> 4)], DIGITS[usize::from(b & 15)]])
            .map(char::from)
            .collect()
    }

    pub(super) fn emit(plan: &CompiledPlan) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("shapes").begin_array();
        for s in &plan.shapes {
            w.begin_object();
            w.field_u64("from", s.from.0.into());
            w.field_u64("to", s.to.0.into());
            w.field_u64("src_slice", s.src_slice.into());
            w.field_u64("src_offset", s.src_offset.into());
            w.field_u64("dst_slice", s.dst_slice.into());
            w.field_u64("dst_offset", s.dst_offset.into());
            w.field_u64("vectors", s.vectors.into());
            w.end_object();
        }
        w.end_array();
        w.key("chips").begin_array();
        for c in &plan.chips {
            w.begin_object();
            w.field_u64("tsp", c.tsp.0.into());
            w.field_u64("depth", c.depth.into());
            w.field_str("program", &hex(plan.program(c)));
            w.key("preloads").begin_array();
            for p in plan.preloads(c) {
                w.begin_object();
                w.field_u64("slice", p.slice.into());
                w.field_u64("offset", p.offset.into());
                emit_vec_ref(&mut w, &p.vec);
                w.end_object();
            }
            w.end_array();
            w.key("deliveries").begin_array();
            for d in plan.deliveries(c) {
                w.begin_object();
                w.field_u64("port", d.port.into());
                w.field_u64("cycle", d.cycle);
                emit_vec_ref(&mut w, &d.vec);
                w.field_u64("link", d.link.0.into());
                w.end_object();
            }
            w.end_array();
            w.key("emissions").begin_array();
            for e in plan.emissions(c) {
                w.begin_object();
                w.field_u64("cycle", e.cycle);
                w.field_u64("port", e.port.into());
                emit_vec_ref(&mut w, &e.vec);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("arrivals").begin_array();
        for &a in &plan.arrivals {
            w.u64(a);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Appends the program `hex` holds to `slab`: whole records of
    /// [`assemble`]'s binary, each of which re-assembles to exactly its
    /// own bytes. Decoded byte by byte, so a character of any width is
    /// refused, never sliced.
    fn parse_program(hex: &str, slab: &mut Vec<TimedInstruction>) -> Result<(), String> {
        let digit = |b: u8| match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        };
        let byte = |pair: &[u8]| match *pair {
            [hi, lo] => Some(digit(hi)? << 4 | digit(lo)?),
            _ => None,
        };
        let binary = (hex.as_bytes().chunks(2).enumerate())
            .map(|(i, pair)| {
                byte(pair)
                    .ok_or_else(|| format!("program byte {i} is not two lowercase hex digits"))
            })
            .collect::<Result<Vec<u8>, String>>()?;
        let records = disassemble(&binary).map_err(|e| format!("program: {e}"))?;
        let again = assemble(&records);
        if let Some(r) = (binary.chunks(16).zip(again.chunks(16))).position(|(a, b)| a != b) {
            return Err(format!("program record {r} does not re-assemble to itself"));
        }
        let timed = |(cycle, instr)| TimedInstruction { cycle, instr };
        slab.extend(records.into_iter().map(timed));
        Ok(())
    }

    fn parse_shape(c: &mut Cursor) -> Result<TransferShape, String> {
        let mut s = TransferShape {
            from: TspId(0),
            to: TspId(0),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 0,
            dst_offset: 0,
            vectors: 0,
        };
        c.object(|c, key| {
            match key {
                "from" => s.from = TspId(c.narrow("shape from")?),
                "to" => s.to = TspId(c.narrow("shape to")?),
                "src_slice" => s.src_slice = c.narrow("shape src_slice")?,
                "src_offset" => s.src_offset = c.narrow("shape src_offset")?,
                "dst_slice" => s.dst_slice = c.narrow("shape dst_slice")?,
                "dst_offset" => s.dst_offset = c.narrow("shape dst_offset")?,
                "vectors" => s.vectors = c.narrow("shape vectors")?,
                other => return Err(format!("unknown shape field {other:?}")),
            }
            Ok(())
        })?;
        Ok(s)
    }

    /// Parses one chip, appending its program and manifests to `plan`'s
    /// slabs, and returns its plan.
    fn parse_chip(c: &mut Cursor, plan: &mut CompiledPlan) -> Result<ChipPlan, String> {
        let starts = plan.slab_ends();
        let (mut tsp, mut depth) = (TspId(0), 0);
        c.object(|c, key| {
            match key {
                "tsp" => tsp = TspId(c.narrow("chip tsp")?),
                "depth" => depth = c.narrow("chip depth")?,
                "program" => {
                    plan.slab.truncate(starts[0]);
                    parse_program(&c.string()?, &mut plan.slab)?;
                }
                "preloads" => c.array(|c| {
                    let mut p = PlannedPreload {
                        slice: 0,
                        offset: 0,
                        vec: VecRef::default(),
                    };
                    c.object(|c, key| {
                        match key {
                            "slice" => p.slice = c.narrow("preload slice")?,
                            "offset" => p.offset = c.narrow("preload offset")?,
                            "transfer" => p.vec.transfer = c.narrow("preload transfer")?,
                            "vector" => p.vec.vector = c.narrow("preload vector")?,
                            other => return Err(format!("unknown preload field {other:?}")),
                        }
                        Ok(())
                    })?;
                    plan.preloads.push(p);
                    Ok(())
                })?,
                "deliveries" => c.array(|c| {
                    let mut d = PlannedDelivery {
                        port: 0,
                        cycle: 0,
                        vec: VecRef::default(),
                        link: LinkId(0),
                    };
                    c.object(|c, key| {
                        match key {
                            "port" => d.port = c.narrow("delivery port")?,
                            "cycle" => d.cycle = c.u64()?,
                            "transfer" => d.vec.transfer = c.narrow("delivery transfer")?,
                            "vector" => d.vec.vector = c.narrow("delivery vector")?,
                            "link" => d.link = LinkId(c.narrow("delivery link")?),
                            other => return Err(format!("unknown delivery field {other:?}")),
                        }
                        Ok(())
                    })?;
                    plan.deliveries.push(d);
                    Ok(())
                })?,
                "emissions" => c.array(|c| {
                    let mut e = PlannedEmission {
                        cycle: 0,
                        port: 0,
                        vec: VecRef::default(),
                    };
                    c.object(|c, key| {
                        match key {
                            "cycle" => e.cycle = c.u64()?,
                            "port" => e.port = c.narrow("emission port")?,
                            "transfer" => e.vec.transfer = c.narrow("emission transfer")?,
                            "vector" => e.vec.vector = c.narrow("emission vector")?,
                            other => return Err(format!("unknown emission field {other:?}")),
                        }
                        Ok(())
                    })?;
                    plan.emissions.push(e);
                    Ok(())
                })?,
                other => return Err(format!("unknown chip field {other:?}")),
            }
            Ok(())
        })?;
        Ok(plan.appended_chip(tsp, depth, starts))
    }

    pub(super) fn parse(s: &str) -> Result<CompiledPlan, String> {
        let mut plan = CompiledPlan::new(Vec::new(), Vec::new());
        let mut c = Cursor::new(s);
        c.object(|c, key| match key {
            "shapes" => c.array(|c| {
                plan.shapes.push(parse_shape(c)?);
                Ok(())
            }),
            "chips" => c.array(|c| {
                let chip = parse_chip(c, &mut plan)
                    .map_err(|e| format!("chip {}: {e}", plan.chips.len()))?;
                plan.chips.push(chip);
                Ok(())
            }),
            "arrivals" => c.array(|c| {
                plan.arrivals.push(c.u64()?);
                Ok(())
            }),
            other => Err(format!("unknown plan field {other:?}")),
        })?;
        c.expect_end()?;
        check_indices(&plan)?;
        Ok(plan.derive())
    }

    /// Rejects a parsed plan that indexes outside itself or lists its
    /// program or manifest out of order, before anything is derived from
    /// it, so an edited or corrupted document fails to load instead of
    /// sending the derivation or the executor out of bounds or past its
    /// order checks: every depth lies below the chip count; chips ascend
    /// by TSP; every payload reference lies in the shapes; each chip's
    /// program ascends by `(cycle, unit)`, the issue order the executor
    /// runs it in, its deliveries by `(port, cycle)` and its emissions by
    /// `(cycle, port)`; each transfer's source and destination regions end
    /// by offset 65,535, as compile requires, so no region wraps onto
    /// offset 0; and each transfer's destination chip receives each of its
    /// vectors once, since that chip's job checks the transfer's region.
    fn check_indices(plan: &CompiledPlan) -> Result<(), String> {
        let ends = plan.slab_ends();
        if ends.into_iter().any(|len| len > u32::MAX as usize) {
            return Err("a slab past 2^32 records".to_string());
        }
        // A chip at depth d ends a path through d + 1 chips of the plan, so
        // no compiled depth reaches the chip count.
        let chips = &plan.chips;
        if let Some(deep) = chips.iter().find(|chip| chip.depth as usize >= chips.len()) {
            return Err(format!(
                "chip {} at depth {}: no path through a plan of {} chips is that deep",
                deep.tsp.0,
                deep.depth,
                chips.len()
            ));
        }
        if let Some(w) = chips.windows(2).find(|w| w[0].tsp >= w[1].tsp) {
            return Err(format!(
                "chip {} follows chip {}: chips must ascend by TSP",
                w[1].tsp.0, w[0].tsp.0
            ));
        }
        for (t, s) in plan.shapes.iter().enumerate() {
            let wraps = |offset: u16| u64::from(offset) + u64::from(s.vectors) > SRAM_OFFSETS;
            if let Some((end, offset)) = [("source", s.src_offset), ("destination", s.dst_offset)]
                .into_iter()
                .find(|&(_, offset)| wraps(offset))
            {
                return Err(format!(
                    "transfer {t} {end} region of {} vectors from offset {offset} runs past offset 65535",
                    s.vectors
                ));
            }
        }
        for chip in &plan.chips {
            let (deliveries, emissions) = (plan.deliveries(chip), plan.emissions(chip));
            let issue_order = |ti: &TimedInstruction| (ti.cycle, ti.instr.unit());
            let out_of_order = if !plan.program(chip).is_sorted_by_key(issue_order) {
                Some("program out of (cycle, unit)")
            } else if !deliveries.is_sorted_by_key(|d| (d.port, d.cycle)) {
                Some("deliveries out of (port, cycle)")
            } else if !emissions.is_sorted_by_key(|e| (e.cycle, e.port)) {
                Some("emissions out of (cycle, port)")
            } else {
                None
            };
            if let Some(what) = out_of_order {
                return Err(format!("chip {} lists its {what} order", chip.tsp.0));
            }
            let refs = (plan.preloads(chip).iter().map(|p| ("preload", p.vec)))
                .chain(deliveries.iter().map(|d| ("delivery", d.vec)))
                .chain(emissions.iter().map(|e| ("emission", e.vec)));
            for (what, r) in refs {
                let shape = plan.shapes.get(r.transfer as usize);
                if shape.is_none_or(|s| r.vector >= s.vectors) {
                    return Err(format!(
                        "chip {} {what} names vector {} of transfer {}, outside the plan's {} shapes",
                        chip.tsp.0,
                        r.vector,
                        r.transfer,
                        plan.shapes.len()
                    ));
                }
            }
        }
        let mut landed = vec![0u64; plan.shapes.len()];
        let mut received = Vec::new();
        for chip in &plan.chips {
            received.clear();
            received.extend(
                (plan.deliveries(chip).iter())
                    .map(|d| (d.vec.transfer, d.vec.vector))
                    .filter(|&(t, _)| plan.shapes[t as usize].to == chip.tsp),
            );
            received.sort_unstable();
            if let Some(w) = received.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!(
                    "chip {} receives vector {} of transfer {} twice",
                    chip.tsp.0, w[0].1, w[0].0
                ));
            }
            for &(t, _) in &received {
                landed[t as usize] += 1;
            }
        }
        let unreceived =
            (plan.shapes.iter().enumerate()).find(|&(t, s)| landed[t] != u64::from(s.vectors));
        if let Some((t, s)) = unreceived {
            return Err(format!(
                "transfer {t} lands {} of its {} vectors on its destination, TSP {}",
                landed[t], s.vectors, s.to.0
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use tsm_chip::exec::ChipProgram;
    use tsm_isa::Vector;

    /// Chips in the synthetic occupancy tables.
    const CHIPS: usize = 3;

    /// The sorted-window table [`UnitOccupancy`] replaced, kept as its
    /// oracle: each resource's booked windows `[start, end)`, sorted and
    /// disjoint, booked one `Vec::insert` at a time.
    struct WindowTable {
        busy: Vec<Vec<(u64, u64)>>,
    }

    impl WindowTable {
        fn new(num_tsps: usize) -> Self {
            WindowTable {
                busy: vec![Vec::new(); num_tsps * UNIT_SLOTS],
            }
        }

        /// If `[start, end)` overlaps a booked window on `resource`,
        /// returns the end of the latest overlapping window. The windows
        /// are sorted and disjoint, so that is the last window to begin
        /// before `end`, provided it ends after `start`: one binary search
        /// finds it.
        fn conflict(&self, resource: usize, start: u64, end: u64) -> Option<u64> {
            let windows = &self.busy[resource];
            let i = windows.partition_point(|&(s, _)| s < end);
            match windows[..i].last() {
                Some(&(_, e)) if e > start => Some(e),
                _ => None,
            }
        }

        /// [`WindowTable::conflict`] by a linear scan of the windows.
        fn conflict_by_scan(&self, resource: usize, start: u64, end: u64) -> Option<u64> {
            self.busy[resource]
                .iter()
                .rfind(|&&(s, e)| s < end && start < e)
                .map(|&(_, e)| e)
        }

        /// Books `[start, end)` on `resource` with one binary search and
        /// one `Vec::insert`; the window must be free.
        fn reserve(&mut self, resource: usize, start: u64, end: u64) {
            let windows = &mut self.busy[resource];
            let i = windows.partition_point(|&(s, _)| s < start);
            assert!(
                i == 0 || windows[i - 1].1 <= start,
                "overlaps its predecessor"
            );
            assert!(
                windows.get(i).is_none_or(|&(s, _)| end <= s),
                "overlaps its successor"
            );
            windows.insert(i, (start, end));
        }

        /// Books each window of a train of `n` windows of `hold` cycles
        /// from `start`.
        fn reserve_train(&mut self, resource: usize, start: u64, n: u64, hold: u64) {
            let slot = vector_slot_cycles();
            for v in 0..n {
                self.reserve(resource, start + v * slot, start + v * slot + hold);
            }
        }

        /// What the search took from a trial train of `n` windows of
        /// `hold` cycles from `start` before the train table: window by
        /// window, the latest booked end past the window's start, and the
        /// largest of those.
        fn train_conflict(&self, resource: usize, start: u64, n: u64, hold: u64) -> Option<u64> {
            let slot = vector_slot_cycles();
            (0..n)
                .filter_map(|v| {
                    let s = start + v * slot;
                    self.conflict(resource, s, s + hold).map(|e| e - s)
                })
                .max()
        }
    }

    /// End of the last window of booked train `b`.
    fn end_of(b: &Booked) -> u64 {
        b.start + (b.count - 1) * vector_slot_cycles() + b.hold
    }

    /// On one booked train, the closed form in [`UnitOccupancy::conflict`]
    /// finds the bound the window table finds window by window, over
    /// 10,000 random pairs of trains 1–64 windows long and 400 pairs up to
    /// 3,000 long, with holds of 1 and 5 cycles and the trial starting
    /// before and after the booked train, half of them in a phase where
    /// windows overlap. The pair it returns is a real overlapping pair.
    #[test]
    fn closed_form_matches_the_window_scan() {
        let slot = vector_slot_cycles();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut hits, mut before, mut after) = (0, 0, 0);
        for case in 0..10_400 {
            let longest = if case < 10_000 { 64 } else { 3_000 };
            let (m, n) = (rng.gen_range(1..=longest), rng.gen_range(1..=longest));
            let held = *[1, 5].choose(&mut rng).unwrap();
            let hold = *[1, 5].choose(&mut rng).unwrap();
            let b = (n + 1) * slot + rng.gen_range(0..slot);
            // Start the trial in a random period from n + 1 before the
            // booked train's first to one past its last.
            let period = rng.gen_range(0..n + m + 2) * slot;
            let phase = if rng.gen_bool(0.5) {
                rng.gen_range(0..slot)
            } else {
                (slot + rng.gen_range(0..hold + held - 1) + 1 - hold) % slot
            };
            let t = b - (n + 1) * slot + period + phase;
            let mut units = UnitOccupancy::new(1);
            let mut table = WindowTable::new(1);
            units.book(0, b, m, held);
            table.reserve_train(0, b, m, held);
            let got = units.conflict(0, t, n, hold);
            let want = table.train_conflict(0, t, n, hold);
            let case = format!("booked {m}x{held} at {b}, trial {n}x{hold} at {t}");
            assert_eq!(got.map(|(e, s)| e - s), want, "{case}");
            if let Some((busy_until, s)) = got {
                let (v, u) = ((s - t) / slot, (busy_until - held - b) / slot);
                assert_eq!(
                    (s, busy_until),
                    (t + v * slot, b + u * slot + held),
                    "{case}"
                );
                assert!(v < n && u < m, "{case}");
                assert!(busy_until - held < s + hold && s < busy_until, "{case}");
                hits += 1;
                before += usize::from(t < b);
                after += usize::from(t > b);
            }
        }
        assert!(
            hits > 4_000 && before > 1_000 && after > 1_000,
            "{hits} overlaps, {before} trials before, {after} after"
        );
    }

    /// Booking trains gives the answers booking their windows one by one
    /// gives. Per seed, random trains of 1–40 windows holding 1 or 5
    /// cycles are booked on six resources wherever all their windows are
    /// free, so they interleave with, nest in and abut earlier ones, as a
    /// pipeline stage's staging writes and forwarding reads do. After each
    /// booking every resource's trains are sorted by start, each with the
    /// running maximum end, and random trial trains, some 1,000 windows
    /// long, get from [`UnitOccupancy::conflict`] the bound the window
    /// table finds window by window. The window table's binary search
    /// agrees with a full scan on each trial's first and last window.
    #[test]
    fn train_table_matches_the_window_table() {
        let slot = vector_slot_cycles();
        let resources: Vec<usize> = (0..CHIPS as u32)
            .flat_map(|c| [MEM_SLOT, c2c_slot(0)].map(|s| UnitOccupancy::resource(TspId(c), s)))
            .collect();
        let (mut nested, mut probed) = (0, 0);
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut units = UnitOccupancy::new(CHIPS);
            let mut table = WindowTable::new(CHIPS);
            for _ in 0..24 {
                let r = *resources.choose(&mut rng).unwrap();
                let hold = *[1, 5].choose(&mut rng).unwrap();
                let n = rng.gen_range(1..=40u64);
                let start = rng.gen_range(0..60 * slot);
                if table.train_conflict(r, start, n, hold).is_some() {
                    continue;
                }
                nested += usize::from(
                    units.busy[r]
                        .iter()
                        .any(|b| b.start < start && start < end_of(b)),
                );
                units.book(r, start, n, hold);
                table.reserve_train(r, start, n, hold);
                let trains = &units.busy[r];
                assert!(
                    trains.is_sorted_by_key(|b| b.start),
                    "seed {seed}: unsorted"
                );
                let mut reach = 0;
                for b in trains {
                    reach = reach.max(end_of(b));
                    assert_eq!(b.reach, reach, "seed {seed}: running maximum end");
                }
                for _ in 0..16 {
                    let r = if rng.gen_bool(0.5) {
                        r
                    } else {
                        *resources.choose(&mut rng).unwrap()
                    };
                    let hold = *[1, 5].choose(&mut rng).unwrap();
                    let n = if rng.gen_bool(0.1) {
                        rng.gen_range(1..=1_000)
                    } else {
                        rng.gen_range(1..=8)
                    };
                    let start = rng.gen_range(0..64 * slot);
                    let (first, last) = (start, start + (n - 1) * slot);
                    for s in [first, last] {
                        assert_eq!(
                            table.conflict(r, s, s + hold),
                            table.conflict_by_scan(r, s, s + hold)
                        );
                    }
                    let want = table.train_conflict(r, start, n, hold);
                    assert_eq!(
                        units.conflict(r, start, n, hold).map(|(e, s)| e - s),
                        want,
                        "seed {seed}: resource {r}, trial {n}x{hold} at {start}"
                    );
                    probed += usize::from(want.is_some());
                }
            }
        }
        assert!(
            nested > 1_000 && probed > 10_000,
            "{nested} trains booked inside an earlier one's span, {probed} probes conflicted"
        );
    }

    /// The per-vector enumeration the train list replaced, kept as its
    /// oracle: every window `(resource, start, end, hop)` of vector `v` on
    /// every chip of the path, vector by vector, each named with the hop
    /// whose start it is computed from.
    fn unit_windows_per_vector(
        topo: &Topology,
        path: &Path,
        hop_starts: &[u64],
        n: u64,
    ) -> Vec<(usize, u64, u64, usize)> {
        let slot = vector_slot_cycles();
        // Read and Write hold the Mem unit 5 cycles, Send and Receive
        // their port engine 1.
        let (mem, c2c) = (5, 1);
        let mut out = Vec::new();
        let mut f = |hop, tsp: TspId, key, s, len| {
            out.push((UnitOccupancy::resource(tsp, key), s, s + len, hop));
        };
        let src = path.tsps[0];
        let send0 = hop_starts[0];
        let read0 = send0 - READ_LATENCY;
        let src_key = c2c_slot(port_of(topo, path, 0, src));
        for v in 0..n {
            f(0, src, MEM_SLOT, read0 + v * slot, mem);
            f(0, src, src_key, send0 + v * slot, c2c);
        }
        for h in 1..path.links.len() {
            let tsp = path.tsps[h];
            let in_key = c2c_slot(port_of(topo, path, h - 1, tsp));
            let out_key = c2c_slot(port_of(topo, path, h, tsp));
            let arrive0 =
                hop_starts[h - 1] + slot + scheduled_link_latency(topo, path.links[h - 1]);
            let forward0 = hop_starts[h];
            for v in 0..n {
                let arrive = arrive0 + v * slot;
                let forward = forward0 + v * slot;
                f(h - 1, tsp, in_key, arrive, c2c);
                f(h - 1, tsp, MEM_SLOT, arrive + 1, mem);
                f(h, tsp, MEM_SLOT, forward - READ_LATENCY, mem);
                f(h, tsp, out_key, forward, c2c);
            }
        }
        let last = path.links.len() - 1;
        let dst = path.tsps[last + 1];
        let dst_key = c2c_slot(port_of(topo, path, last, dst));
        let arrive0 = hop_starts[last] + slot + scheduled_link_latency(topo, path.links[last]);
        for v in 0..n {
            f(last, dst, dst_key, arrive0 + v * slot, c2c);
            f(last, dst, MEM_SLOT, arrive0 + v * slot + 1, mem);
        }
        out
    }

    /// A transfer's trains hold exactly the windows the per-vector
    /// enumeration yields, each named with the same hop, on random
    /// multi-hop paths of a two-rack dragonfly at random hop starts that
    /// keep the scheduler's causality (a hop starts at least the
    /// forwarding overhead after its vector lands).
    #[test]
    fn trains_hold_the_per_vector_windows() {
        let topo = Topology::rack_dragonfly(2).unwrap();
        let slot = vector_slot_cycles();
        let mut rng = StdRng::seed_from_u64(7);
        let mut path_trains = Vec::new();
        let mut paths = 0;
        while paths < 200 {
            let from = TspId(rng.gen_range(0..topo.num_tsps() as u32));
            let to = TspId(rng.gen_range(0..topo.num_tsps() as u32));
            let path = shortest_path(&topo, from, to).unwrap();
            if path.links.len() < 2 {
                continue;
            }
            paths += 1;
            let mut hop_starts = vec![rng.gen_range(READ_LATENCY..500)];
            for h in 1..path.links.len() {
                let landed =
                    hop_starts[h - 1] + slot + scheduled_link_latency(&topo, path.links[h - 1]);
                hop_starts.push(landed + FORWARD_OVERHEAD_CYCLES + rng.gen_range(0..3 * slot));
            }
            trains(&topo, &path, &mut path_trains);
            for n in [1u64, 2, 3, 64] {
                let mut held: Vec<_> = path_trains
                    .iter()
                    .flat_map(|t| {
                        let first = t.start(&hop_starts);
                        (0..n).map(move |v| {
                            let s = first + v * slot;
                            (t.resource, s, s + t.hold, t.hop)
                        })
                    })
                    .collect();
                let mut want = unit_windows_per_vector(&topo, &path, &hop_starts, n);
                held.sort_unstable();
                want.sort_unstable();
                assert_eq!(held, want, "{from}->{to} n={n}");
            }
        }
    }

    /// The retry search [`Occupancy::first_free_injection`] replaced, kept
    /// as its oracle, on the window table: after a conflict the injection
    /// advances by the largest `busy_until - start` over the conflicting
    /// windows of the per-vector enumeration, which on a hop pinned by its
    /// link's frontier moves the window less than that.
    fn first_free_injection_by_bump(
        links: &LinkOccupancy,
        table: &WindowTable,
        topo: &Topology,
        path: &Path,
        n: u64,
    ) -> (TransferSchedule, usize) {
        let mut earliest = READ_LATENCY;
        let mut sched = links.plan_transfer(topo, path, n, earliest).unwrap();
        let mut trials = 1;
        loop {
            let mut bump = 0u64;
            for (r, s, e, _) in unit_windows_per_vector(topo, path, &sched.hop_starts, n) {
                if let Some(busy_until) = table.conflict(r, s, e) {
                    bump = bump.max(busy_until - s);
                }
            }
            if bump == 0 {
                return (sched, trials);
            }
            earliest += bump;
            trials += 1;
            links
                .plan_transfer_into(topo, path, n, earliest, &mut sched)
                .unwrap();
        }
    }

    /// Shape sets whose transfers are at most 64 vectors long.
    const SHORT_SEEDS: std::ops::Range<u64> = 0..25;

    /// Shape sets that also draw transfers of 500 and 2,458 vectors.
    const LONG_SEEDS: std::ops::Range<u64> = 25..30;

    /// Random shape set number `seed`, on a 2-, 3- or 4-rack dragonfly or
    /// on 2 or 4 fully connected nodes: 10 to 50 transfers between
    /// distinct TSPs, half of the endpoints drawn from four hot TSPs, so
    /// the transfers collide at chips and queue behind link frontiers.
    /// Each transfer is 1, 2, 3 or 64 vectors long, or in a
    /// [`LONG_SEEDS`] set also 500 or 2,458.
    fn random_shapes(seed: u64) -> (Topology, Vec<TransferShape>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = match seed % 5 {
            0 => Topology::rack_dragonfly(2),
            1 => Topology::rack_dragonfly(3),
            2 => Topology::rack_dragonfly(4),
            3 => Topology::fully_connected_nodes(2),
            _ => Topology::fully_connected_nodes(4),
        }
        .unwrap();
        let (lengths, transfers): (&[u32], _) = if LONG_SEEDS.contains(&seed) {
            (&[1, 2, 3, 64, 500, 2_458], 10..=20)
        } else {
            (&[1, 2, 3, 64], 10..=50)
        };
        let chips = topo.num_tsps() as u32;
        let hot: Vec<TspId> = (0..4).map(|_| TspId(rng.gen_range(0..chips))).collect();
        let endpoint = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                *hot.choose(rng).unwrap()
            } else {
                TspId(rng.gen_range(0..chips))
            }
        };
        let mut shapes = Vec::new();
        for _ in 0..rng.gen_range(transfers) {
            let (from, to) = (endpoint(&mut rng), endpoint(&mut rng));
            if from == to {
                continue;
            }
            shapes.push(TransferShape {
                from,
                to,
                src_slice: 0,
                src_offset: 0,
                dst_slice: 1,
                dst_offset: 0,
                vectors: *lengths.choose(&mut rng).unwrap(),
            });
        }
        (topo, shapes)
    }

    /// The jumping search on the train table returns the bump search's
    /// injection and hop starts on the window table for every transfer,
    /// in no more trials, and in strictly fewer over all of them. Each
    /// state is a random prefix of a [`random_shapes`] set, compiled
    /// transfer by transfer into both tables. Over the short-train sets
    /// the two searches take the trials they took when the jump searched
    /// the window table.
    #[test]
    fn jump_search_finds_what_the_bump_search_finds() {
        let (mut jumps, mut bumps, mut fewer) = (0, 0, 0);
        for seed in SHORT_SEEDS.chain(LONG_SEEDS) {
            let (topo, shapes) = random_shapes(seed);
            let topo = &topo;
            let mut occupancy = Occupancy::new(topo.num_tsps());
            let mut table = WindowTable::new(topo.num_tsps());
            for (t, shape) in shapes.iter().enumerate() {
                let (from, to, n) = (shape.from, shape.to, u64::from(shape.vectors));
                let path = shortest_path(topo, from, to).unwrap();
                let (got, jumped) = occupancy.first_free_injection(topo, &path, n).unwrap();
                let (want, bumped) =
                    first_free_injection_by_bump(&occupancy.links, &table, topo, &path, n);
                assert_eq!(got, want, "seed {seed}, transfer {t}: {from}->{to} n={n}");
                assert!(
                    jumped <= bumped,
                    "seed {seed}, transfer {t}: {jumped} trials, the bump search {bumped}"
                );
                (jumps, bumps) = (jumps + jumped, bumps + bumped);
                fewer += usize::from(jumped < bumped);
                occupancy.commit(&path, n, &got);
                for (r, s, e, _) in unit_windows_per_vector(topo, &path, &got.hop_starts, n) {
                    table.reserve(r, s, e);
                }
            }
            if seed + 1 == SHORT_SEEDS.end {
                assert_eq!((jumps, bumps), (9_938, 22_914), "short-train trial counts");
            }
        }
        assert!(jumps < bumps, "{jumps} trials, the bump search {bumps}");
        assert!(fewer > 0);
    }

    /// [`compile_plan_on`] at width 1, also returning the chip-unit trains
    /// it booked, which the production path frees before assembly.
    fn compile_booked(topo: &Topology, shapes: &[TransferShape]) -> (CompiledPlan, UnitOccupancy) {
        let (builds, arrivals, units) = book_and_lower(topo, shapes, 1).unwrap();
        (assemble(shapes, arrivals, &builds), units)
    }

    /// What a compile books is what it lowers: over [`random_shapes`]
    /// sets, the windows of the chip-unit trains left booked are, chip by
    /// chip, exactly the windows its programs hold under `ChipSim`'s busy
    /// model, where each instruction holds its unit, a C2C instruction its
    /// port's engine, for its `min_latency` from its issue cycle.
    #[test]
    fn booked_windows_are_the_lowered_windows() {
        use tsm_isa::instr::FunctionalUnit;
        let slot = vector_slot_cycles();
        for seed in SHORT_SEEDS.chain(LONG_SEEDS) {
            let (topo, shapes) = random_shapes(seed);
            let (plan, units) = compile_booked(&topo, &shapes);
            let mut booked = Vec::new();
            for (r, trains) in units.busy.iter().enumerate() {
                let tsp = TspId((r / UNIT_SLOTS) as u32);
                let (unit, port) = match r % UNIT_SLOTS {
                    MEM_SLOT => (FunctionalUnit::Mem, 0),
                    slot => (FunctionalUnit::C2c, (slot - c2c_slot(0)) as u8),
                };
                for b in trains {
                    booked.extend((0..b.count).map(|v| {
                        let s = b.start + v * slot;
                        (tsp, unit.index(), port, s, s + b.hold)
                    }));
                }
            }
            let mut lowered = Vec::new();
            for chip in &plan.chips {
                for ti in plan.program(chip) {
                    let port = match ti.instr {
                        Instruction::Send { port, .. }
                        | Instruction::Receive { port, .. }
                        | Instruction::Transmit { port } => port,
                        _ => 0,
                    };
                    let end = ti.cycle + ti.instr.min_latency();
                    lowered.push((chip.tsp, ti.instr.unit().index(), port, ti.cycle, end));
                }
            }
            assert!(!lowered.is_empty());
            booked.sort_unstable();
            lowered.sort_unstable();
            assert_eq!(booked, lowered, "seed {seed}: {} transfers", shapes.len());
        }
    }

    /// The lowering [`Merge`] replaced, kept as its oracle: each
    /// chip's instructions pushed into a [`ChipProgram`] vector by vector,
    /// transfer by transfer, and stable-sorted into issue order, its
    /// preloads, deliveries and emissions pushed likewise and the latter
    /// two stable-sorted, each copied into its slab, and the chips merged
    /// level by level, each level in TSP order.
    fn assemble_by_sort(
        shapes: &[TransferShape],
        arrivals: Vec<u64>,
        builds: ChipBuilds,
    ) -> CompiledPlan {
        let slot = vector_slot_cycles();
        let mut built = builds.chips;
        built.sort_unstable_by_key(|c| c.tsp);
        let mut plan = CompiledPlan::new(shapes.to_vec(), arrivals);
        let mut levels: Vec<Vec<u32>> = Vec::new();
        for (i, c) in built.iter().enumerate() {
            if levels.len() <= c.depth {
                levels.resize(c.depth + 1, Vec::new());
            }
            levels[c.depth].push(i as u32);
            let mut program = ChipProgram::new();
            let (mut preloads, mut deliveries, mut emissions) =
                (Vec::new(), Vec::new(), Vec::new());
            for on_transfer in c.trains.chunk_by(|a, b| a.transfer == b.transfer) {
                for v in 0..u64::from(on_transfer[0].count) {
                    for t in on_transfer {
                        let ti = t.instr(v, t.start + v * slot);
                        program.push(ti.cycle, ti.instr);
                    }
                }
                for t in on_transfer {
                    for v in 0..u64::from(t.count) {
                        let cycle = t.start + v * slot;
                        match t.op {
                            Op::Load => preloads.push(PlannedPreload {
                                slice: t.slice,
                                offset: t.base + v as u16,
                                vec: t.vec(v),
                            }),
                            Op::Receive(port) => deliveries.push(PlannedDelivery {
                                port,
                                cycle,
                                vec: t.vec(v),
                                link: t.link,
                            }),
                            Op::Send(port) => emissions.push(PlannedEmission {
                                cycle,
                                port,
                                vec: t.vec(v),
                            }),
                            Op::Stage | Op::Unstage | Op::Store => {}
                        }
                    }
                }
            }
            program.sort_in_place();
            deliveries.sort_by_key(|d| (d.port, d.cycle));
            emissions.sort_by_key(|e| (e.cycle, e.port));
            let starts = plan.slab_ends();
            plan.slab.extend_from_slice(program.instrs());
            plan.preloads.extend(preloads);
            plan.deliveries.extend(deliveries);
            plan.emissions.extend(emissions);
            let chip = plan.appended_chip(c.tsp, c.depth as u32, starts);
            plan.chips.push(chip);
        }
        let mut plan = plan.derive();
        plan.merge_order = levels.concat();
        plan
    }

    /// Lowering by merge writes the plan the push-then-sort lowering
    /// writes: field for field on every [`random_shapes`] set, and byte
    /// for byte in JSON on BERT-Large's batch-1 and batch-8 pipelines
    /// (the JSON of the sets' long-train plans would take seconds in a
    /// debug build).
    #[test]
    fn merged_lowering_is_the_sorted_lowering() {
        let lower = |(topo, shapes): (Topology, Vec<TransferShape>)| {
            let (builds, arrivals, _) = book_and_lower(&topo, &shapes, 1).unwrap();
            let merged = assemble(&shapes, arrivals.clone(), &builds);
            (merged, assemble_by_sort(&shapes, arrivals, builds))
        };
        for seed in SHORT_SEEDS.chain(LONG_SEEDS) {
            let (merged, sorted) = lower(random_shapes(seed));
            assert!(
                merged == sorted,
                "seed {seed}: the merge and the sort disagree"
            );
        }
        for vectors in [2_458, 19_661] {
            let (merged, sorted) = lower(pipeline(vectors));
            assert!(
                merged.to_json() == sorted.to_json(),
                "pipeline of {vectors}: the merge and the sort disagree"
            );
        }
    }

    /// The chip-unit table grows with trains, not vectors: BERT-Large's
    /// batch-1 and batch-8 pipelines, eight times longer, book the same
    /// records, one per train, four per hop.
    #[test]
    fn booked_records_do_not_grow_with_transfer_length() {
        let booked = |vectors| {
            let (topo, shapes) = pipeline(vectors);
            let hops: usize = shapes
                .iter()
                .map(|s| shortest_path(&topo, s.from, s.to).unwrap().hops())
                .sum();
            let (plan, units) = compile_booked(&topo, &shapes);
            let records: usize = units.busy.iter().map(Vec::len).sum();
            assert_eq!(records, 4 * hops, "{vectors} vectors");
            (records, plan.instructions)
        };
        let ((short, short_instrs), (long, long_instrs)) = (booked(2_458), booked(19_661));
        assert_eq!(short, long);
        assert!(long_instrs > 7 * short_instrs);
    }

    /// TSP `i` of a `racks`-rack dragonfly streams two vectors to TSP
    /// `i + N/2`.
    fn half_stride(racks: usize) -> (Topology, Vec<TransferShape>) {
        let topo = Topology::rack_dragonfly(racks).unwrap();
        let half = (topo.num_tsps() / 2) as u32;
        let shapes = (0..half)
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
        (topo, shapes)
    }

    /// A four-stage pipeline on four fully connected nodes: three
    /// stage-to-stage transfers of `vectors` each, then a 100-vector
    /// offload to the next node.
    fn pipeline(vectors: u32) -> (Topology, Vec<TransferShape>) {
        let topo = Topology::fully_connected_nodes(4).unwrap();
        let shape = |from, to, src_offset, vectors| TransferShape {
            from: TspId(from),
            to: TspId(to),
            src_slice: 0,
            src_offset,
            dst_slice: 1,
            dst_offset: 0,
            vectors,
        };
        let offset = vectors as u16;
        let shapes = vec![
            shape(0, 1, 0, vectors),
            shape(1, 2, 0, vectors),
            shape(2, 3, 0, vectors),
            shape(0, 12, offset, 100),
        ];
        (topo, shapes)
    }

    /// Shards deal the chips out by work. Each chip's shard is its rank
    /// by descending work, ties by TSP, so at every width from 2 to 8 no
    /// `shard % width` class holds more than an even share of the plan's
    /// work plus its heaviest chip's: on serve-steady's batch-8 pipeline
    /// (the pipeline without its offload), whose two middle stages carry
    /// twice the work of the ends and which splits evenly at width 2, and
    /// on half-stride dragonflies of 2, 4 and 16 racks.
    #[test]
    fn shards_split_the_work_evenly() {
        let (topo, mut shapes) = pipeline(19_661);
        shapes.truncate(3);
        let steady = compile_plan(&topo, &shapes).unwrap();
        let work: Vec<usize> = steady.chips.iter().map(ChipPlan::work).collect();
        assert_eq!(work, [58_983, 117_966, 117_966, 58_983]);
        let at_two = |shard| -> Vec<u32> {
            (steady.chips.iter())
                .filter(|c| c.shard % 2 == shard)
                .map(|c| c.tsp.0)
                .collect()
        };
        assert_eq!((at_two(0), at_two(1)), (vec![0, 1], vec![2, 3]));
        let mut plans = vec![steady.clone()];
        for racks in [2, 4, 16] {
            let (topo, shapes) = half_stride(racks);
            plans.push(compile_plan(&topo, &shapes).unwrap());
        }
        for plan in &plans {
            let mut ranked: Vec<&ChipPlan> = plan.chips.iter().collect();
            ranked.sort_by_key(|c| c.shard);
            assert!(ranked
                .iter()
                .enumerate()
                .all(|(r, c)| c.shard as usize == r));
            assert!(ranked
                .windows(2)
                .all(|w| (Reverse(w[0].work()), w[0].tsp) < (Reverse(w[1].work()), w[1].tsp)));
            let total: usize = plan.chips.iter().map(ChipPlan::work).sum();
            let heaviest = ranked[0].work();
            for width in 2..=8 {
                let mut shards = vec![0; width];
                for c in &plan.chips {
                    shards[c.shard as usize % width] += c.work();
                }
                let most = *shards.iter().max().unwrap();
                assert!(
                    most <= total / width + heaviest,
                    "{} chips at width {width}: {most} of {total}",
                    plan.chips.len()
                );
            }
        }
    }

    /// A plan is the same at every width: the 16-rack half-stride plan
    /// routes 576 pairs, on two threads from width 2. Routing is the only
    /// stage that runs on threads.
    #[test]
    fn plans_do_not_depend_on_the_width() {
        let (topo, shapes) = half_stride(16);
        let want = compile_plan_on(&topo, &shapes, 1).unwrap().to_json();
        for width in [2, 3, 7] {
            let got = compile_plan_on(&topo, &shapes, width).unwrap().to_json();
            assert!(got == want, "{} transfers at width {width}", shapes.len());
        }
    }

    /// Groups are contiguous, the first runs on the calling thread, every
    /// item is visited once, and no more groups open than the width and
    /// the grain allow.
    #[test]
    fn grouped_items_run_once_in_contiguous_groups() {
        let caller = std::thread::current().id();
        let mut rng = StdRng::seed_from_u64(5);
        let mut split = 0;
        for width in 1..=8 {
            for grain in [1, 16, 1_000] {
                let len = rng.gen_range(0..60);
                let mut items: Vec<Option<std::thread::ThreadId>> = vec![None; len];
                for_each_grouped(&mut items, width, grain, |t| {
                    assert!(t.is_none(), "visited twice");
                    *t = Some(std::thread::current().id());
                });
                let ran: Vec<_> = items.iter().map(|t| t.expect("visited")).collect();
                let groups = ran.chunk_by(|a, b| a == b).count();
                let threads: std::collections::HashSet<_> = ran.iter().collect();
                assert_eq!(groups, threads.len(), "width {width}: a group split");
                assert!(ran.first().is_none_or(|&t| t == caller));
                assert!(groups <= width.min(len / grain).max(1));
                split += usize::from(groups > 1);
            }
        }
        assert!(split > 8, "only {split} inputs split");
    }

    /// Routes are computed up front, but a route error still surfaces at
    /// the first transfer that uses the pair, so the earliest failing
    /// transfer wins, also over a later transfer that names a TSP outside
    /// the topology. With both nodes of a two-node system failed, TSP 0
    /// still reaches TSP 8 over its cable, but reaching TSP 9 would need a
    /// failed chip to forward. A TSP outside the topology has no route,
    /// compiled alone or through `run_transfers`.
    #[test]
    fn compile_errors_keep_transfer_order() {
        let mut topo = Topology::fully_connected_nodes(2).unwrap();
        topo.fail_node(tsm_topology::NodeId(0));
        topo.fail_node(tsm_topology::NodeId(1));
        let shape = |from, to, src_offset| TransferShape {
            from: TspId(from),
            to: TspId(to),
            src_slice: 0,
            src_offset,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 2,
        };
        let overflow = shape(0, 8, u16::MAX);
        let unroutable = shape(0, 9, 0);
        let no_route = CosimError::Route(tsm_topology::TopologyError::NoRoute {
            from: TspId(0),
            to: TspId(9),
        });
        let address = CosimError::AddressOverflow {
            tsp: TspId(0),
            transfer: 0,
        };
        let outside = shape(0, 999, 0);
        let no_route_outside = CosimError::Route(tsm_topology::TopologyError::NoRoute {
            from: TspId(0),
            to: TspId(999),
        });
        let transfer = CosimTransfer {
            from: outside.from,
            to: outside.to,
            src_slice: outside.src_slice,
            src_offset: outside.src_offset,
            dst_slice: outside.dst_slice,
            dst_offset: outside.dst_offset,
            data: vec![Vector::zeroed(); 2],
        };
        for run in [
            crate::cosim::run_transfers,
            crate::cosim::run_transfers_serial,
        ] {
            assert_eq!(
                run(&topo, std::slice::from_ref(&transfer)).unwrap_err(),
                no_route_outside
            );
        }
        for width in [1, 2, 3, 7] {
            let compile = |shapes: &[TransferShape]| compile_plan_on(&topo, shapes, width);
            assert_eq!(
                compile(std::slice::from_ref(&unroutable)).unwrap_err(),
                no_route
            );
            assert_eq!(
                compile(std::slice::from_ref(&outside)).unwrap_err(),
                no_route_outside
            );
            assert_eq!(
                compile(&[overflow.clone(), unroutable.clone()]).unwrap_err(),
                address
            );
            assert_eq!(
                compile(&[unroutable.clone(), overflow.clone()]).unwrap_err(),
                no_route
            );
            assert_eq!(
                compile(&[shape(0, 8, 0), shape(3, 3, 0), unroutable.clone()]).unwrap_err(),
                CosimError::LocalTransfer { transfer: 1 }
            );
            assert_eq!(
                compile(&[overflow.clone(), outside.clone()]).unwrap_err(),
                address
            );
            assert_eq!(
                compile(&[shape(999, 999, 0), outside.clone()]).unwrap_err(),
                CosimError::LocalTransfer { transfer: 0 }
            );
        }
    }

    /// A plan document holds what compile decided and derives the rest:
    /// the parse of a plan's JSON is the plan, field for field, and the
    /// JSON of the parsed plan is the document, byte for byte, over every
    /// [`random_shapes`] set, half-stride dragonflies of 2, 4 and 16 racks,
    /// and BERT-Large's batch-1 and batch-8 pipelines.
    #[test]
    fn plan_documents_round_trip() {
        let sets = (SHORT_SEEDS.chain(LONG_SEEDS).map(random_shapes))
            .chain([2, 4, 16].map(half_stride))
            .chain([2_458, 19_661].map(pipeline));
        for (topo, shapes) in sets {
            let plan = compile_plan(&topo, &shapes).unwrap();
            let json = plan.to_json();
            let parsed = CompiledPlan::from_json(&json).unwrap();
            let what = format!("{} transfers on {} TSPs", shapes.len(), topo.num_tsps());
            assert!(parsed == plan, "{what}: the parse is not the plan");
            assert!(
                parsed.to_json() == json,
                "{what}: the JSON is not the document"
            );
        }
    }

    /// `json` with its first chip's program string passed through `edit`.
    fn edit_program(json: &str, edit: impl FnOnce(&mut String)) -> String {
        let start = json.find("\"program\": \"").unwrap() + "\"program\": \"".len();
        let end = start + json[start..].find('"').unwrap();
        let mut program = json[start..end].to_string();
        edit(&mut program);
        format!("{}{program}{}", &json[..start], &json[end..])
    }

    /// `program` with byte `at` of record `record`'s instruction word set
    /// to `hex`.
    fn set_word_byte(program: &mut String, record: usize, at: usize, hex: &str) {
        let byte = 16 * record + 8 + at;
        program.replace_range(2 * byte..2 * byte + 2, hex);
    }

    /// A program string is whole hex records of the ISA's binary, each of
    /// which re-assembles to itself: every other string is refused with
    /// an error naming what is wrong, never a panic, a character wider
    /// than a byte included.
    #[test]
    fn from_json_refuses_hostile_programs() {
        let shape = TransferShape {
            from: TspId(0),
            to: TspId(5),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 4,
        };
        let plan = compile_plan(&Topology::single_node(), &[shape]).unwrap();
        let json = plan.to_json();
        let program = plan.program(&plan.chips[0]);
        let read = (program.iter())
            .position(|ti| matches!(ti.instr, Instruction::Read { .. }))
            .unwrap();
        type Edit = fn(&mut String);
        let cases: [(Edit, &str); 6] = [
            (|p| _ = p.pop(), "is not two lowercase hex digits"),
            (|p| p.replace_range(4..5, "g"), "program byte 2 is not two"),
            (|p| p.insert(1, 'é'), "program byte 0 is not two"),
            (|p| p.truncate(p.len() - 2), "is not whole 16-byte records"),
            (
                |p| set_word_byte(p, 0, 0, "ff"),
                "opcode 0xff names no operation",
            ),
            (
                |p| set_word_byte(p, 0, 2, "20"),
                "stream id 32 out of range",
            ),
        ];
        for (edit, says) in cases {
            let err = CompiledPlan::from_json(&edit_program(&json, edit)).unwrap_err();
            assert!(err.starts_with("chip 0: program"), "{err}");
            assert!(err.contains(says), "want {says:?}, got {err:?}");
        }
        // Words that decode but that the assembler would not have written:
        // a Read's direction byte of 2, and a nonzero byte the word leaves
        // unused.
        for (at, hex) in [(3, "02"), (7, "01")] {
            let doc = edit_program(&json, |p| set_word_byte(p, read, at, hex));
            let err = CompiledPlan::from_json(&doc).unwrap_err();
            let says = format!("program record {read} does not re-assemble to itself");
            assert!(err.contains(&says), "byte {at}: {err}");
        }
    }

    /// `window` as an index range into its slab.
    fn at(window: &Range<u32>) -> Range<usize> {
        window.start as usize..window.end as usize
    }

    /// A parsed plan may index only inside itself: each hostile edit of a
    /// real plan is refused by `from_json` with an error naming what is
    /// wrong, where executing it would have indexed out of bounds or, for
    /// a too-wide stream id or preload offset, silently run a different
    /// stream or load a different address. A depth at or past the chip
    /// count, which no path reaches, is refused before anything is
    /// derived from it, however deep.
    #[test]
    fn from_json_refuses_plans_that_index_outside_themselves() {
        let shape = TransferShape {
            from: TspId(0),
            to: TspId(5),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 4,
        };
        let plan = compile_plan(&Topology::single_node(), &[shape]).unwrap();
        let json = plan.to_json();
        assert_eq!(CompiledPlan::from_json(&json).unwrap(), plan);
        let edited = |edit: fn(&mut CompiledPlan)| {
            let mut bad = plan.clone();
            edit(&mut bad);
            bad
        };
        let cases = [
            (
                edited(|p| p.preloads[at(&p.chips[0].preloads)][0].vec.vector = 4),
                "preload names vector 4",
            ),
            (
                edited(|p| p.deliveries[at(&p.chips[1].deliveries)][0].vec.transfer = 1),
                "delivery names vector",
            ),
            (
                edited(|p| p.emissions[at(&p.chips[0].emissions)][0].vec.vector = u32::MAX),
                "emission names",
            ),
            (
                edited(|p| p.chips[1].depth = 2),
                "chip 5 at depth 2: no path through a plan of 2 chips",
            ),
            (
                edited(|p| p.chips[1].depth = u32::MAX),
                "chip 5 at depth 4294967295: no path",
            ),
            (edited(|p| p.chips.swap(0, 1)), "must ascend by TSP"),
            (
                edited(|p| p.deliveries[at(&p.chips[1].deliveries)].reverse()),
                "chip 5 lists its deliveries out of (port, cycle) order",
            ),
            (
                edited(|p| p.emissions[at(&p.chips[0].emissions)].reverse()),
                "chip 0 lists its emissions out of (cycle, port) order",
            ),
            (
                edited(|p| p.slab[at(&p.chips[0].program)].reverse()),
                "chip 0 lists its program out of (cycle, unit) order",
            ),
        ];
        for (bad, says) in cases {
            let err = CompiledPlan::from_json(&bad.to_json()).unwrap_err();
            assert!(err.contains(says), "want {says:?}, got {err:?}");
        }
        let wide = edit_program(&json, |p| set_word_byte(p, 0, 2, "ff"));
        let err = CompiledPlan::from_json(&wide).unwrap_err();
        assert!(err.contains("stream id 255 out of range"), "{err}");
        let wide = json.replacen("\"offset\": 0", "\"offset\": 70000", 1);
        assert_ne!(wide, json);
        let err = CompiledPlan::from_json(&wide).unwrap_err();
        assert!(err.contains("preload offset 70000 out of range"), "{err}");

        // Two vectors stored at offsets 65535 and 0, passed off as one
        // region from 65535: compile refuses that region, and so must the
        // parse, before the executor adds past `u16::MAX`.
        let edge = TransferShape {
            to: TspId(1),
            dst_offset: 65_534,
            vectors: 2,
            ..plan.shapes[0].clone()
        };
        let mut wrapped = compile_plan(&Topology::single_node(), &[edge]).unwrap();
        wrapped.shapes[0].dst_offset = 65_535;
        let dst = at(&wrapped.chips[1].program);
        let stores = wrapped.slab[dst]
            .iter_mut()
            .filter_map(|ti| match &mut ti.instr {
                Instruction::Write { offset, .. } => Some(offset),
                _ => None,
            });
        for (offset, to) in stores.zip([65_535, 0]) {
            *offset = to;
        }
        let err = CompiledPlan::from_json(&wrapped.to_json()).unwrap_err();
        assert!(
            err.contains("transfer 0 destination region of 2 vectors from offset 65535"),
            "{err}"
        );
        wrapped.shapes[0].dst_offset = 65_534;
        wrapped.shapes[0].src_offset = 65_535;
        let err = CompiledPlan::from_json(&wrapped.to_json()).unwrap_err();
        assert!(err.contains("transfer 0 source region"), "{err}");
    }

    /// A transfer's destination chip checks the transfer's region, which
    /// only the deliveries of its vectors write, so it must receive each
    /// of them once. A document whose transfer ends at a chip that
    /// receives none of its vectors (transfer 1 re-aimed at transfer 0's
    /// destination), at a TSP with no chip plan, or at a chip that
    /// receives one of its vectors twice is refused by name before the
    /// destination lists are derived.
    #[test]
    fn from_json_refuses_a_transfer_its_destination_does_not_receive() {
        let shape = |to: u32, src_offset: u16| TransferShape {
            from: TspId(0),
            to: TspId(to),
            src_slice: 0,
            src_offset,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 4,
        };
        let plan = compile_plan(&Topology::single_node(), &[shape(1, 0), shape(5, 4)]).unwrap();
        assert_eq!(plan.chips[1].tsp, TspId(1));
        let refused = |edit: fn(&mut CompiledPlan)| {
            let mut bad = plan.clone();
            edit(&mut bad);
            CompiledPlan::from_json(&bad.to_json()).unwrap_err()
        };
        let cases = [
            (
                refused(|p| p.shapes[1].to = TspId(1)),
                "transfer 1 lands 0 of its 4 vectors on its destination, TSP 1",
            ),
            (
                refused(|p| p.shapes[0].to = TspId(6)),
                "transfer 0 lands 0 of its 4 vectors on its destination, TSP 6",
            ),
            (
                refused(|p| p.deliveries[at(&p.chips[1].deliveries)][1].vec.vector = 0),
                "chip 1 receives vector 0 of transfer 0 twice",
            ),
        ];
        for (err, says) in cases {
            assert!(err.contains(says), "want {says:?}, got {err:?}");
        }
    }

    /// A plan document may name any port its field holds. One whose source
    /// sends on port 40, past the chip's 16 modelled link engines, loads,
    /// and executing it is that chip's typed error, serially and in
    /// parallel, not an index out of bounds.
    #[test]
    fn a_send_past_the_modelled_ports_is_a_chip_error() {
        let shape = TransferShape {
            from: TspId(0),
            to: TspId(5),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 4,
        };
        let mut plan = compile_plan(&Topology::single_node(), &[shape]).unwrap();
        let port = plan
            .slab
            .iter_mut()
            .find_map(|ti| match &mut ti.instr {
                Instruction::Send { port, .. } => Some(port),
                _ => None,
            })
            .unwrap();
        *port = 40;
        let plan = CompiledPlan::from_json(&plan.to_json()).unwrap();
        let payloads = vec![vec![std::sync::Arc::new(Vector::zeroed()); 4]];
        let mut executor = crate::cosim::PlanExecutor::new();
        for got in [
            executor.execute_serial(&plan, &payloads),
            executor.execute(&plan, &payloads),
        ] {
            let err = tsm_chip::exec::ExecError::PortOutOfRange { port: 40, cycle: 5 };
            assert_eq!(
                got.unwrap_err(),
                CosimError::Chip {
                    tsp: TspId(0),
                    error: err
                }
            );
        }
    }

    /// Hostile input over the one document the workspace reads back: a
    /// two-node plan's document, truncated or with up to three bytes
    /// replaced, 4,000 times from a fixed seed, after a fixed case whose
    /// first delivery names link 999999. Each document parses to a plan
    /// or an error; a plan's timeline on the topology is a timeline or
    /// the typed [`CosimError::UnknownLink`], and it executes at widths 1
    /// and 2 to a report or a typed error. Nothing panics: a case that
    /// does fails the test naming its edit, a reproducer as it stands.
    #[test]
    fn hostile_plan_documents_are_typed_errors() {
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let shape = |from: u32, to: u32, dst_slice: u8| TransferShape {
            from: TspId(from),
            to: TspId(to),
            src_slice: 0,
            src_offset: 0,
            dst_slice,
            dst_offset: 0,
            vectors: 2,
        };
        let shapes = [shape(0, 9, 1), shape(3, 12, 2)];
        let json = compile_plan(&topo, &shapes).unwrap().to_json();
        let link = json.find("\"link\": ").unwrap() + "\"link\": ".len();
        let digits = json[link..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let mut edits = vec![vec![(link..link + digits, "999999")]];
        // The bytes an edit writes, digits first.
        const BYTES: [&str; 14] = [
            "0", "1", "7", "9", "a", "\"", "\\", ",", ":", "{", "}", "[", "]", " ",
        ];
        const DIGITS: usize = 4;
        // The digits of the document's numbers, outside its strings: half
        // the replaced bytes are one of them set to a digit, which keeps
        // the document parsing and edits what the plan says.
        let mut in_string = false;
        let numbers: Vec<usize> = (json.bytes().enumerate())
            .filter(|&(_, b)| {
                in_string ^= b == b'"';
                !in_string && b.is_ascii_digit()
            })
            .map(|(at, _)| at)
            .collect();
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..4_000 {
            let edit = if rng.gen_bool(0.2) {
                vec![(rng.gen_range(0..json.len())..json.len(), "")]
            } else {
                let byte = |rng: &mut StdRng| {
                    if rng.gen_bool(0.5) {
                        let at = numbers[rng.gen_range(0..numbers.len())];
                        (at..at + 1, BYTES[rng.gen_range(0..DIGITS)])
                    } else {
                        let at = rng.gen_range(0..json.len());
                        (at..at + 1, BYTES[rng.gen_range(0..BYTES.len())])
                    }
                };
                (0..rng.gen_range(1..=3usize))
                    .map(|_| byte(&mut rng))
                    .collect()
            };
            edits.push(edit);
        }
        let mut executor = crate::cosim::PlanExecutor::new();
        let mut loaded = 0;
        for (i, edit) in edits.iter().enumerate() {
            let mut doc = json.clone();
            for (at, with) in edit {
                doc.replace_range(at.clone(), with);
            }
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let Ok(plan) = CompiledPlan::from_json(&doc) else {
                    return;
                };
                loaded += 1;
                let timeline = plan.planned_timeline(&topo);
                if i == 0 {
                    let link = LinkId(999_999);
                    assert_eq!(timeline.unwrap_err(), CosimError::UnknownLink { link });
                }
                let payloads: Vec<Vec<_>> = (plan.shapes.iter())
                    .map(|s| {
                        (0..s.vectors)
                            .map(|v| std::sync::Arc::new(Vector::splat(v as u8)))
                            .collect()
                    })
                    .collect();
                for threads in [1, 2] {
                    let args = crate::cosim::ExecArgs {
                        threads: Some(threads),
                        ..Default::default()
                    };
                    _ = executor.execute_with(&plan, &payloads, args);
                }
            }));
            assert!(run.is_ok(), "case {i} panicked; its edit: {edit:?}");
        }
        assert!(
            loaded > 400,
            "only {loaded} of {} documents load",
            edits.len()
        );
    }
}
