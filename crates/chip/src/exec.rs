//! Deterministic chip executor.
//!
//! A chip program is a *static schedule*: every instruction carries the
//! cycle it issues on. The executor replays the schedule, maintaining
//! architectural state (SRAM, streams, C2C ports) and *verifying* the
//! schedule's legality — a scheduled instruction arriving while its
//! functional unit is parked by SYNC, or two writers hitting a stream on
//! the same cycle, is a compiler bug surfaced as an [`ExecError`], never a
//! silent dynamic stall. This mirrors the hardware contract of paper §3:
//! "the TSP hardware-software interface exposes all architecturally-visible
//! state".

use crate::vxm;
use std::sync::Arc;
use tsm_isa::instr::{FunctionalUnit, Instruction};
use tsm_isa::timing::HAC_PERIOD;
use tsm_isa::vector::MAX_STREAMS;
use tsm_isa::{StreamId, Vector};

/// Functional units with independent issue state.
const UNITS: usize = FunctionalUnit::ALL.len();

/// Upper bound on C2C port numbers the executor models (the chip has 11
/// link engines; the table is padded to a power of two).
const MAX_PORTS: usize = 16;

/// A reference-counted 320-byte payload.
///
/// Vectors flow through SRAM, streams, deliveries and emissions by `Arc`
/// handle: moving a payload through a multi-hop forwarding chain costs one
/// pointer clone per step instead of a 320-byte copy per step. The bytes
/// themselves are immutable once wrapped — every producing instruction
/// allocates a fresh vector — so sharing is safe and bit-exact.
pub type Payload = Arc<Vector>;

/// The C2C port an instruction occupies (0 for non-C2C instructions,
/// which each own a single engine).
fn instruction_port(instr: &Instruction) -> u8 {
    match instr {
        Instruction::Transmit { port }
        | Instruction::Receive { port, .. }
        | Instruction::Send { port, .. } => *port,
        _ => 0,
    }
}

/// An instruction bound to its issue cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedInstruction {
    /// Cycle the instruction issues.
    pub cycle: u64,
    /// The instruction.
    pub instr: Instruction,
}

/// A static schedule for one chip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChipProgram {
    instrs: Vec<TimedInstruction>,
    /// Set by [`ChipProgram::sort_in_place`], cleared by any mutation:
    /// lets every subsequent run skip re-verifying issue order.
    issue_sorted: bool,
}

impl ChipProgram {
    /// An empty program.
    pub fn new() -> Self {
        ChipProgram::default()
    }

    /// Schedules `instr` at `cycle` (builder style).
    pub fn at(mut self, cycle: u64, instr: Instruction) -> Self {
        self.push(cycle, instr);
        self
    }

    /// Adds an instruction in place.
    pub fn push(&mut self, cycle: u64, instr: Instruction) {
        self.instrs.push(TimedInstruction { cycle, instr });
        self.issue_sorted = false;
    }

    /// Reserves room for at least `additional` more instructions, so a
    /// caller that knows how many it will push grows the buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.instrs.reserve(additional);
    }

    /// All instructions, sorted by (cycle, unit order).
    pub fn sorted(&self) -> Vec<TimedInstruction> {
        let mut v = self.instrs.clone();
        v.sort_by_key(|t| (t.cycle, t.instr.unit()));
        v
    }

    /// Sorts the instructions into issue order in place, so subsequent
    /// [`ChipSim::run`] calls can execute the program without cloning or
    /// re-sorting it. Compile-once callers (the co-simulation plan stage)
    /// do this once per program; execute-many callers then pay nothing.
    pub fn sort_in_place(&mut self) {
        self.instrs.sort_by_key(|t| (t.cycle, t.instr.unit()));
        self.issue_sorted = true;
    }

    /// True if the instructions are already in issue order. O(1) after a
    /// [`ChipProgram::sort_in_place`]; otherwise a linear scan.
    pub fn is_issue_sorted(&self) -> bool {
        self.issue_sorted
            || self
                .instrs
                .windows(2)
                .all(|w| (w[0].cycle, w[0].instr.unit()) <= (w[1].cycle, w[1].instr.unit()))
    }

    /// The instructions in insertion order (issue order once
    /// [`ChipProgram::sort_in_place`] has run).
    pub fn instrs(&self) -> &[TimedInstruction] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if no instructions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Schedule-legality violations detected during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An instruction was scheduled on a unit still parked by SYNC.
    UnitParked {
        /// The parked unit.
        unit: FunctionalUnit,
        /// Cycle of the offending instruction.
        cycle: u64,
    },
    /// An instruction was scheduled before the unit's previous instruction
    /// retired.
    UnitBusy {
        /// The busy unit.
        unit: FunctionalUnit,
        /// Cycle of the offending instruction.
        cycle: u64,
        /// Cycle at which the unit becomes free.
        free_at: u64,
    },
    /// Two writers produced onto the same stream on the same cycle.
    StreamConflict {
        /// The contested stream.
        stream: StreamId,
        /// The conflicting cycle.
        cycle: u64,
    },
    /// A consumer read a stream that holds no value.
    StreamEmpty {
        /// The empty stream.
        stream: StreamId,
        /// The reading cycle.
        cycle: u64,
    },
    /// A C2C instruction named a port beyond the chip's modelled link
    /// engines.
    PortOutOfRange {
        /// The port.
        port: u8,
        /// Cycle of the offending instruction.
        cycle: u64,
    },
    /// A RECEIVE was scheduled for a port with no delivery by that cycle.
    NothingReceived {
        /// The port.
        port: u8,
        /// The cycle.
        cycle: u64,
    },
    /// A MatMul issued with no weights installed in the MXM array.
    NoWeightsInstalled {
        /// The offending cycle.
        cycle: u64,
    },
    /// An instruction following a DESKEW was scheduled off the epoch
    /// boundary the DESKEW stalls to.
    DeskewMisaligned {
        /// The unit.
        unit: FunctionalUnit,
        /// Scheduled cycle of the next instruction.
        scheduled: u64,
        /// The epoch boundary it must not precede.
        boundary: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnitParked { unit, cycle } => {
                write!(f, "{unit:?} issued at cycle {cycle} while parked by SYNC")
            }
            ExecError::UnitBusy {
                unit,
                cycle,
                free_at,
            } => {
                write!(
                    f,
                    "{unit:?} issued at cycle {cycle} but busy until {free_at}"
                )
            }
            ExecError::StreamConflict { stream, cycle } => {
                write!(
                    f,
                    "two writers on stream {} at cycle {cycle}",
                    stream.index()
                )
            }
            ExecError::StreamEmpty { stream, cycle } => {
                write!(f, "stream {} read empty at cycle {cycle}", stream.index())
            }
            ExecError::PortOutOfRange { port, cycle } => {
                write!(
                    f,
                    "C2C port {port} at cycle {cycle} is beyond the {MAX_PORTS} modelled link engines"
                )
            }
            ExecError::NothingReceived { port, cycle } => {
                write!(
                    f,
                    "RECEIVE on port {port} at cycle {cycle} with no delivery"
                )
            }
            ExecError::NoWeightsInstalled { cycle } => {
                write!(f, "MatMul at cycle {cycle} with an empty MXM weight array")
            }
            ExecError::DeskewMisaligned {
                unit,
                scheduled,
                boundary,
            } => write!(
                f,
                "{unit:?}: instruction at {scheduled} precedes DESKEW boundary {boundary}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A vector sent out a C2C port.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// Issue cycle of the SEND/TRANSMIT.
    pub cycle: u64,
    /// C2C port.
    pub port: u8,
    /// Payload (shared handle; clone is a pointer copy).
    pub vector: Payload,
}

/// Pending deliveries on one C2C port.
///
/// `items[next..]` is the unconsumed suffix, sorted ascending by arrival
/// cycle; consumption advances `next` instead of shifting the vector, so a
/// RECEIVE is O(1) and [`ChipSim::reset`] can recycle the allocation.
#[derive(Debug, Clone, Default)]
struct PortQueue {
    /// (arrival cycle, payload) in arrival order.
    items: Vec<(u64, Payload)>,
    /// Index of the first unconsumed delivery.
    next: usize,
}

impl PortQueue {
    /// Consumes the earliest delivery that has arrived by `cycle`.
    fn pop_ready(&mut self, cycle: u64) -> Option<Payload> {
        match self.items.get(self.next) {
            Some(&(arrive, ref v)) if arrive <= cycle => {
                let v = Arc::clone(v);
                self.next += 1;
                Some(v)
            }
            _ => None,
        }
    }
}

/// Deterministic single-chip simulator.
///
/// A `ChipSim` is reusable: [`ChipSim::reset`] returns it to the
/// just-constructed state while keeping every internal allocation, so an
/// execute-many caller pays no rebuild cost between chips. The
/// co-simulation [`PlanExecutor`] keeps one per worker thread and resets
/// it before each chip that worker runs, so a reset must leave nothing of
/// the previous chip behind.
///
/// [`PlanExecutor`]: ../../tsm_core/cosim/exec/struct.PlanExecutor.html
#[derive(Debug, Clone)]
pub struct ChipSim {
    /// SRAM content, indexed `[slice][offset]` (chip slice 0..88). Pages
    /// grow on demand; occupied cells are logged in `sram_dirty` so a
    /// [`ChipSim::reset`] clears exactly what was written instead of
    /// walking (or reallocating) the whole address space.
    sram: Vec<Vec<Option<Payload>>>,
    /// Cells written since the last reset.
    sram_dirty: Vec<(u8, u16)>,
    /// Stream registers (single direction modelled; direction is a
    /// scheduling concern handled by the compiler).
    streams: Vec<Option<Payload>>,
    /// Pending inbound deliveries, indexed by port (grown on demand);
    /// direct indexing keeps delivery binding and RECEIVE consumption off
    /// map lookups on the execute-many warm path.
    inbound: Vec<PortQueue>,
    /// Vectors emitted on C2C ports.
    emissions: Vec<Emission>,
    /// Per-resource next-free cycle, indexed `unit.index() * MAX_PORTS +
    /// port`. C2C instructions occupy one port engine each (the chip has
    /// 11 independent link engines), every other unit is a single
    /// resource at port index 0.
    free_at: [u64; UNITS * MAX_PORTS],
    /// Per-unit parked flag (SYNC issued, awaiting NOTIFY).
    parked: [bool; UNITS],
    /// Per-unit pending DESKEW boundary.
    deskew_boundary: [Option<u64>; UNITS],
    /// Weight rows currently installed in the MXM array (FP32-lane
    /// granularity: up to 80 rows of 80 lanes).
    mxm_weights: Vec<Payload>,
    /// Cycle of the last executed instruction.
    horizon: u64,
}

impl Default for ChipSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ChipSim {
    /// A chip with empty SRAM and streams.
    pub fn new() -> Self {
        ChipSim {
            sram: Vec::new(),
            sram_dirty: Vec::new(),
            streams: vec![None; MAX_STREAMS],
            inbound: Vec::new(),
            emissions: Vec::new(),
            free_at: [0; UNITS * MAX_PORTS],
            parked: [false; UNITS],
            deskew_boundary: [None; UNITS],
            mxm_weights: Vec::new(),
            horizon: 0,
        }
    }

    /// Returns the chip to its just-constructed state — empty SRAM,
    /// streams, queues, emissions, unit state — while keeping the internal
    /// allocations, so repeated executions reset rather than rebuild.
    pub fn reset(&mut self) {
        for (slice, offset) in self.sram_dirty.drain(..) {
            self.sram[slice as usize][offset as usize] = None;
        }
        for s in &mut self.streams {
            *s = None;
        }
        for q in &mut self.inbound {
            q.items.clear();
            q.next = 0;
        }
        self.emissions.clear();
        self.free_at = [0; UNITS * MAX_PORTS];
        self.parked = [false; UNITS];
        self.deskew_boundary = [None; UNITS];
        self.mxm_weights.clear();
        self.horizon = 0;
    }

    /// Preloads SRAM before execution (the runtime "emplaces all program
    /// collateral", paper §5.1). Accepts a plain [`Vector`] or an already
    /// shared [`Payload`] handle.
    pub fn preload(&mut self, slice: u8, offset: u16, v: impl Into<Payload>) {
        self.sram_store(slice, offset, v.into());
    }

    /// Reads SRAM after execution.
    pub fn sram(&self, slice: u8, offset: u16) -> Option<&Vector> {
        self.sram_handle(slice, offset).map(|v| v.as_ref())
    }

    /// The shared handle behind an SRAM cell, if occupied. Lets verifiers
    /// short-circuit payload comparison with [`Arc::ptr_eq`] when the cell
    /// still holds the very handle that was bound in.
    pub fn sram_handle(&self, slice: u8, offset: u16) -> Option<&Payload> {
        self.sram
            .get(slice as usize)?
            .get(offset as usize)?
            .as_ref()
    }

    fn sram_store(&mut self, slice: u8, offset: u16, v: Payload) {
        let s = slice as usize;
        if self.sram.len() <= s {
            self.sram.resize_with(s + 1, Vec::new);
        }
        let page = &mut self.sram[s];
        let o = offset as usize;
        if page.len() <= o {
            page.resize_with(o + 1, || None);
        }
        if page[o].is_none() {
            self.sram_dirty.push((slice, offset));
        }
        page[o] = Some(v);
    }

    /// Registers an inbound delivery: `vector` arrives on `port` at
    /// `cycle`. A RECEIVE scheduled at or after `cycle` consumes it.
    /// Accepts a plain [`Vector`] or a shared [`Payload`] handle.
    pub fn deliver(&mut self, port: u8, cycle: u64, vector: impl Into<Payload>) {
        let q = self.port_queue(port);
        q.items.push((cycle, vector.into()));
        let next = q.next;
        q.items[next..].sort_by_key(|&(c, _)| c);
    }

    /// [`ChipSim::deliver`] for callers that feed a port its deliveries in
    /// nondecreasing arrival order (a compiled plan's manifest is stored
    /// that way): skips the per-delivery re-sort.
    pub fn deliver_in_order(&mut self, port: u8, cycle: u64, vector: impl Into<Payload>) {
        let q = self.port_queue(port);
        debug_assert!(
            q.items[q.next..].last().is_none_or(|&(c, _)| c <= cycle),
            "deliver_in_order fed out of order on port {port}"
        );
        q.items.push((cycle, vector.into()));
    }

    fn port_queue(&mut self, port: u8) -> &mut PortQueue {
        let p = port as usize;
        if self.inbound.len() <= p {
            self.inbound.resize_with(p + 1, PortQueue::default);
        }
        &mut self.inbound[p]
    }

    /// Vectors emitted on C2C ports during execution.
    pub fn emissions(&self) -> &[Emission] {
        &self.emissions
    }

    /// Current value on a stream.
    pub fn stream(&self, s: StreamId) -> Option<&Vector> {
        self.streams[s.index()].as_deref()
    }

    /// Cycle of the last executed instruction.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Executes a program, verifying schedule legality.
    ///
    /// Returns the cycle at which the last instruction retires.
    ///
    /// Programs already in issue order (see [`ChipProgram::sort_in_place`])
    /// execute without cloning or re-sorting the instruction list; anything
    /// else falls back to a sorted copy.
    pub fn run(&mut self, program: &ChipProgram) -> Result<u64, ExecError> {
        if program.is_issue_sorted() {
            self.run_sorted(program.instrs())
        } else {
            self.run_sorted(&program.sorted())
        }
    }

    /// Executes instructions known to be in (cycle, unit) issue order —
    /// the compile-once path: a [`CompiledPlan`] stores every chip's
    /// stream pre-sorted in its instruction slab and runs the window
    /// directly, no [`ChipProgram`] wrapper involved.
    ///
    /// [`CompiledPlan`]: ../../tsm_core/cosim/struct.CompiledPlan.html
    pub fn run_sorted(&mut self, instrs: &[TimedInstruction]) -> Result<u64, ExecError> {
        let mut last_retire = 0;
        // Last write cycle per stream; exact duplicate detection because
        // instructions arrive in ascending cycle order.
        let mut stream_writes: [Option<u64>; MAX_STREAMS] = [None; MAX_STREAMS];
        for ti in instrs {
            let unit = ti.instr.unit();
            let ui = unit.index();
            let cycle = ti.cycle;

            // DESKEW alignment check.
            if let Some(boundary) = self.deskew_boundary[ui] {
                if cycle < boundary {
                    return Err(ExecError::DeskewMisaligned {
                        unit,
                        scheduled: cycle,
                        boundary,
                    });
                }
                self.deskew_boundary[ui] = None;
            }
            // Parked check (NOTIFY clears all parks and may issue same cycle).
            if self.parked[ui] && !matches!(ti.instr, Instruction::Notify) {
                return Err(ExecError::UnitParked { unit, cycle });
            }
            // Busy check (per C2C port engine, per unit otherwise).
            let port = instruction_port(&ti.instr);
            if usize::from(port) >= MAX_PORTS {
                return Err(ExecError::PortOutOfRange { port, cycle });
            }
            let resource = ui * MAX_PORTS + usize::from(port);
            let free = self.free_at[resource];
            if cycle < free {
                return Err(ExecError::UnitBusy {
                    unit,
                    cycle,
                    free_at: free,
                });
            }

            let mut write_stream = |streams: &mut Vec<Option<Payload>>,
                                    s: StreamId,
                                    v: Payload|
             -> Result<(), ExecError> {
                if stream_writes[s.index()] == Some(cycle) {
                    return Err(ExecError::StreamConflict { stream: s, cycle });
                }
                stream_writes[s.index()] = Some(cycle);
                streams[s.index()] = Some(v);
                Ok(())
            };

            match &ti.instr {
                Instruction::Sync => {
                    self.parked[ui] = true;
                }
                Instruction::Notify => {
                    self.parked = [false; UNITS];
                }
                Instruction::Deskew => {
                    let boundary = cycle.div_ceil(HAC_PERIOD).max(1) * HAC_PERIOD;
                    self.deskew_boundary[ui] = Some(boundary);
                }
                Instruction::RuntimeDeskew { .. } => {
                    // Timing handled via min/max latency below.
                }
                Instruction::Transmit { port } => {
                    self.emissions.push(Emission {
                        cycle,
                        port: *port,
                        vector: Arc::new(Vector::zeroed()),
                    });
                }
                Instruction::Receive { port, stream } => {
                    let available = self
                        .inbound
                        .get_mut(*port as usize)
                        .and_then(|q| q.pop_ready(cycle));
                    match available {
                        Some(v) => write_stream(&mut self.streams, *stream, v)?,
                        None => return Err(ExecError::NothingReceived { port: *port, cycle }),
                    }
                }
                Instruction::Send { port, stream } => {
                    let v = self.streams[stream.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty {
                            stream: *stream,
                            cycle,
                        })?;
                    self.emissions.push(Emission {
                        cycle,
                        port: *port,
                        vector: v,
                    });
                }
                Instruction::Read {
                    slice,
                    offset,
                    stream,
                    ..
                } => {
                    let v = self
                        .sram_handle(*slice, *offset)
                        .cloned()
                        .unwrap_or_else(|| Arc::new(Vector::zeroed()));
                    write_stream(&mut self.streams, *stream, v)?;
                }
                Instruction::Write {
                    slice,
                    offset,
                    stream,
                } => {
                    let v = self.streams[stream.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty {
                            stream: *stream,
                            cycle,
                        })?;
                    self.sram_store(*slice, *offset, v);
                }
                Instruction::InstallWeight { stream } => {
                    let v = self.streams[stream.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty {
                            stream: *stream,
                            cycle,
                        })?;
                    // The array holds at most 80 FP32 rows; installing past
                    // capacity starts a fresh tile (the compiler reloads
                    // between tiles).
                    if self.mxm_weights.len() >= crate::vxm::F32_LANES {
                        self.mxm_weights.clear();
                    }
                    self.mxm_weights.push(v);
                }
                Instruction::MatMul { input, output } => {
                    // One [1×K]×[K×80] sub-op at FP32-lane granularity:
                    // out[j] = Σ_i in[i] · W[i][j] over the installed rows.
                    if self.mxm_weights.is_empty() {
                        return Err(ExecError::NoWeightsInstalled { cycle });
                    }
                    let v = self.streams[input.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty {
                            stream: *input,
                            cycle,
                        })?;
                    let activation = crate::vxm::to_f32_lanes(&v);
                    let mut out = [0f32; crate::vxm::F32_LANES];
                    for (i, row) in self.mxm_weights.iter().enumerate() {
                        let w = crate::vxm::to_f32_lanes(row);
                        let a = activation[i];
                        if a == 0.0 {
                            continue;
                        }
                        for (o, wj) in out.iter_mut().zip(w.iter()) {
                            *o += a * wj;
                        }
                    }
                    write_stream(
                        &mut self.streams,
                        *output,
                        Arc::new(crate::vxm::from_f32_lanes(&out)),
                    )?;
                }
                Instruction::VectorOp { op, a, b, dest } => {
                    let va = self.streams[a.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty { stream: *a, cycle })?;
                    let vb = self.streams[b.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty { stream: *b, cycle })?;
                    let out = vxm::execute(*op, &va, &vb);
                    write_stream(&mut self.streams, *dest, Arc::new(out))?;
                }
                Instruction::Permute { input, output } => {
                    let v = self.streams[input.index()]
                        .clone()
                        .ok_or(ExecError::StreamEmpty {
                            stream: *input,
                            cycle,
                        })?;
                    write_stream(&mut self.streams, *output, v)?;
                }
                Instruction::Nop => {}
            }

            let retire = cycle + ti.instr.min_latency();
            self.free_at[resource] = retire;
            last_retire = last_retire.max(retire);
            self.horizon = self.horizon.max(cycle);
        }
        Ok(last_retire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_isa::instr::VectorOpcode;

    fn sid(n: u8) -> StreamId {
        StreamId::new(n).unwrap()
    }

    #[test]
    fn read_compute_write_pipeline() {
        let mut sim = ChipSim::new();
        sim.preload(0, 0, crate::vxm::from_f32_lanes(&[1.5f32; 80]));
        sim.preload(0, 1, crate::vxm::from_f32_lanes(&[2.0f32; 80]));
        let prog = ChipProgram::new()
            .at(
                0,
                Instruction::Read {
                    slice: 0,
                    offset: 0,
                    stream: sid(0),
                    dir: tsm_isa::Direction::East,
                },
            )
            .at(
                5,
                Instruction::Read {
                    slice: 0,
                    offset: 1,
                    stream: sid(1),
                    dir: tsm_isa::Direction::East,
                },
            )
            .at(
                10,
                Instruction::VectorOp {
                    op: VectorOpcode::Add,
                    a: sid(0),
                    b: sid(1),
                    dest: sid(2),
                },
            )
            .at(
                20,
                Instruction::Write {
                    slice: 1,
                    offset: 0,
                    stream: sid(2),
                },
            );
        let retire = sim.run(&prog).unwrap();
        assert_eq!(retire, 25);
        let out = crate::vxm::to_f32_lanes(sim.sram(1, 0).unwrap());
        assert!(out.iter().all(|&x| x == 3.5));
    }

    #[test]
    fn unit_busy_is_detected() {
        // Two MEM reads back-to-back: second scheduled before 5-cycle
        // latency elapses.
        let prog = ChipProgram::new()
            .at(
                0,
                Instruction::Read {
                    slice: 0,
                    offset: 0,
                    stream: sid(0),
                    dir: tsm_isa::Direction::East,
                },
            )
            .at(
                2,
                Instruction::Read {
                    slice: 0,
                    offset: 1,
                    stream: sid(1),
                    dir: tsm_isa::Direction::East,
                },
            );
        let err = ChipSim::new().run(&prog).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnitBusy {
                unit: FunctionalUnit::Mem,
                cycle: 2,
                free_at: 5
            }
        );
    }

    /// A C2C instruction on a port past the 16 modelled engines is a typed
    /// error, never an index past the busy table or into another unit's
    /// slot.
    #[test]
    fn ports_beyond_the_modelled_engines_are_errors() {
        for port in [16, 40, 200] {
            for instr in [
                Instruction::Send {
                    port,
                    stream: sid(0),
                },
                Instruction::Receive {
                    port,
                    stream: sid(0),
                },
                Instruction::Transmit { port },
            ] {
                let prog = ChipProgram::new().at(7, instr);
                assert_eq!(
                    ChipSim::new().run(&prog).unwrap_err(),
                    ExecError::PortOutOfRange { port, cycle: 7 }
                );
            }
        }
    }

    #[test]
    fn sync_parks_until_notify() {
        // MEM read scheduled while ICU... SYNC parks only its own unit; we
        // park ICU and verify a later ICU Nop errors, then NOTIFY clears.
        let bad = ChipProgram::new()
            .at(0, Instruction::Sync)
            .at(10, Instruction::Nop);
        let err = ChipSim::new().run(&bad).unwrap_err();
        assert!(matches!(
            err,
            ExecError::UnitParked {
                unit: FunctionalUnit::Icu,
                cycle: 10
            }
        ));

        let good = ChipProgram::new()
            .at(0, Instruction::Sync)
            .at(10, Instruction::Notify)
            .at(20, Instruction::Nop);
        assert!(ChipSim::new().run(&good).is_ok());
    }

    #[test]
    fn deskew_forces_epoch_alignment() {
        // DESKEW at cycle 10 stalls to cycle 252; next ICU instruction at
        // 100 is a schedule bug, at 252 it is legal.
        let bad = ChipProgram::new()
            .at(10, Instruction::Deskew)
            .at(100, Instruction::Nop);
        let err = ChipSim::new().run(&bad).unwrap_err();
        assert_eq!(
            err,
            ExecError::DeskewMisaligned {
                unit: FunctionalUnit::Icu,
                scheduled: 100,
                boundary: 252
            }
        );
        let good = ChipProgram::new()
            .at(10, Instruction::Deskew)
            .at(252, Instruction::Nop);
        assert!(ChipSim::new().run(&good).is_ok());
    }

    #[test]
    fn receive_consumes_delivery_in_order() {
        let mut sim = ChipSim::new();
        sim.deliver(3, 50, Vector::splat(1));
        sim.deliver(3, 80, Vector::splat(2));
        let prog = ChipProgram::new()
            .at(
                60,
                Instruction::Receive {
                    port: 3,
                    stream: sid(0),
                },
            )
            .at(
                90,
                Instruction::Receive {
                    port: 3,
                    stream: sid(1),
                },
            );
        sim.run(&prog).unwrap();
        assert_eq!(sim.stream(sid(0)), Some(&Vector::splat(1)));
        assert_eq!(sim.stream(sid(1)), Some(&Vector::splat(2)));
    }

    #[test]
    fn receive_before_arrival_is_schedule_bug() {
        let mut sim = ChipSim::new();
        sim.deliver(3, 50, Vector::splat(1));
        let prog = ChipProgram::new().at(
            40,
            Instruction::Receive {
                port: 3,
                stream: sid(0),
            },
        );
        assert_eq!(
            sim.run(&prog).unwrap_err(),
            ExecError::NothingReceived { port: 3, cycle: 40 }
        );
    }

    #[test]
    fn send_emits_stream_value() {
        let mut sim = ChipSim::new();
        sim.preload(0, 0, Vector::splat(9));
        let prog = ChipProgram::new()
            .at(
                0,
                Instruction::Read {
                    slice: 0,
                    offset: 0,
                    stream: sid(4),
                    dir: tsm_isa::Direction::East,
                },
            )
            .at(
                10,
                Instruction::Send {
                    port: 7,
                    stream: sid(4),
                },
            );
        sim.run(&prog).unwrap();
        assert_eq!(sim.emissions().len(), 1);
        assert_eq!(sim.emissions()[0].port, 7);
        assert_eq!(*sim.emissions()[0].vector, Vector::splat(9));
    }

    #[test]
    fn stream_conflict_is_detected() {
        let mut sim = ChipSim::new();
        sim.preload(0, 0, Vector::splat(1));
        sim.deliver(1, 0, Vector::splat(2));
        // MEM read and C2C receive both write stream 0 at cycle 10.
        let prog = ChipProgram::new()
            .at(
                10,
                Instruction::Read {
                    slice: 0,
                    offset: 0,
                    stream: sid(0),
                    dir: tsm_isa::Direction::East,
                },
            )
            .at(
                10,
                Instruction::Receive {
                    port: 1,
                    stream: sid(0),
                },
            );
        let err = sim.run(&prog).unwrap_err();
        assert!(matches!(err, ExecError::StreamConflict { cycle: 10, .. }));
    }

    #[test]
    fn reading_empty_stream_errors() {
        let prog = ChipProgram::new().at(
            0,
            Instruction::Send {
                port: 0,
                stream: sid(5),
            },
        );
        assert_eq!(
            ChipSim::new().run(&prog).unwrap_err(),
            ExecError::StreamEmpty {
                stream: sid(5),
                cycle: 0
            }
        );
    }

    #[test]
    fn identical_programs_produce_identical_state() {
        let build = || {
            let mut sim = ChipSim::new();
            sim.preload(2, 7, Vector::from_fn(|i| i as u8));
            let prog = ChipProgram::new()
                .at(
                    0,
                    Instruction::Read {
                        slice: 2,
                        offset: 7,
                        stream: sid(0),
                        dir: tsm_isa::Direction::East,
                    },
                )
                .at(
                    10,
                    Instruction::Permute {
                        input: sid(0),
                        output: sid(1),
                    },
                )
                .at(
                    20,
                    Instruction::Write {
                        slice: 3,
                        offset: 0,
                        stream: sid(1),
                    },
                );
            sim.run(&prog).unwrap();
            sim.sram(3, 0).unwrap().digest()
        };
        assert_eq!(build(), build());
    }
}
