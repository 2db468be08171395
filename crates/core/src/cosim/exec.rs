//! Execute stage of the co-simulation pipeline: binding payload vectors to
//! a [`CompiledPlan`] and running every chip exactly once.
//!
//! The executor owns one chip simulator per worker thread and *resets* it
//! before each chip's job instead of rebuilding it, so the marginal cost of
//! one more execution is the chip passes themselves — no routing,
//! scheduling, lowering or stream allocation happens here — and its memory
//! follows the width, not the chip count. This is the runtime half of the
//! paper's compile-once / execute-many contract (§5, Fig 17).
//!
//! Every delivery is bound from the plan, and no chip reads another
//! chip's output, so the chips of one execute need no barrier between
//! them and each chip is one job: reset, bind (each delivery through its
//! link's channel in fault mode), run, emission verify, and the
//! destination check of every transfer that ends at it. A parallel
//! execute opens one [`std::thread::scope`] and deals the jobs out by
//! their compile-time [`ChipPlan::shard`], a rank by work, modulo the
//! width: the lowest non-empty shard runs on the calling thread and every
//! other non-empty shard on a scoped thread of its own. At the automatic
//! width, a plan of fewer than [`EXEC_GRAIN`] instructions runs on the
//! calling thread with no scope at all. Which thread runs which chip
//! therefore depends on the plan and the width alone, never on OS
//! scheduling. No job emits anything: every observable (results, traces,
//! metrics, the first error) is replayed on the calling thread afterwards,
//! the bind chip by chip in plan order and the runs in the plan's merge
//! order — ascending `(depth, TspId)` — which is what makes serial and
//! parallel execution bit-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tsm_chip::exec::{ChipSim, Payload};
use tsm_fault::inject::FecStats;
use tsm_isa::packet::WirePacket;
use tsm_link::channel::Channel;
use tsm_link::fec::{FecOutcome, PAYLOAD_BITS};
use tsm_link::latency::LatencyModel;
use tsm_link::meter::LinkMeter;
use tsm_topology::LinkId;
use tsm_trace::{names, CycleHistogram, EventKind, Metrics, TraceSink, Tracer};

use super::plan::{ChipPlan, CompiledPlan, PlannedDelivery, VecRef};
use super::verify::{check_destination, verify_emissions, EMPTY_DIGEST};
use super::{CosimError, CosimReport};

/// Environment variable overriding the parallel worker count of executes
/// and of plan compile (a positive integer). A width passed to the call
/// ([`ExecArgs::threads`]) wins over it for that execute; an unset/invalid
/// value falls back to `available_parallelism`.
pub const TSM_THREADS_ENV: &str = "TSM_THREADS";

/// The automatic worker count, shared by parallel executes and plan
/// compile: a positive integer in `TSM_THREADS`, else
/// `available_parallelism`. The variable is read on every call, so a
/// change takes effect at the next execute or compile; the detected
/// parallelism is resolved once per process, since detecting it parses
/// cgroup files on every call.
pub(super) fn auto_threads() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    if let Ok(v) = std::env::var(TSM_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// An exact, deterministic corruption: flip `bits` of the payload of
/// vector `vector` of transfer `transfer` as it crosses `link`. Fault
/// tests use these to place a single- or multi-bit error on a specific
/// hop of a specific route, independent of any RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedFlip {
    /// Transfer index into the plan.
    pub transfer: u32,
    /// Vector index within the transfer.
    pub vector: u32,
    /// The hop (physical link) on which the corruption strikes.
    pub link: LinkId,
    /// Zero-based payload bit positions to flip.
    pub bits: Vec<usize>,
}

/// Per-link bit-error configuration for datapath fault injection.
///
/// When a model is passed to an execute ([`ExecArgs::faults`]), every
/// inter-chip delivery traverses a [`Channel`] for its link: bit flips are
/// sampled from the link's BER (Poisson over the 2560 payload bits); a
/// delivery with none binds its payload untouched, and any other has them
/// applied to a copy of the payload bytes and run through the receiver's
/// FEC decoder. Every rate must lie in `[0, 1)`: an execute that would
/// cross a link at any other rate fails with [`CosimError::BitErrorRate`],
/// and one whose model holds a targeted flip past the payload's bits with
/// [`CosimError::FlipOutOfRange`]. Corrected payloads continue downstream
/// — and must still verify bit-for-bit against the emission/destination
/// manifests, which is the paper's "constant-latency in-situ correction"
/// claim exercised on real data. An uncorrectable error aborts the run with
/// [`CosimError::Uncorrectable`].
///
/// Every delivery's flip pattern is derived from `(seed, link, transfer,
/// vector)` alone, so the injection is independent of chip iteration
/// order, payload bytes, and parallelism — a given seed corrupts the same
/// bits of the same vectors on the same hops, every run.
#[derive(Debug, Clone, Default)]
pub struct LinkFaultModel {
    /// BER applied to every link not listed in `per_link`.
    pub base_ber: f64,
    /// Per-link BER overrides (marginal links).
    pub per_link: HashMap<LinkId, f64>,
    /// Master seed for the per-delivery error draws.
    pub seed: u64,
    /// Exact corruptions, applied instead of sampling on the deliveries
    /// they name.
    pub targeted: Vec<TargetedFlip>,
}

impl LinkFaultModel {
    /// A model with one BER across every link.
    pub fn uniform(ber: f64, seed: u64) -> Self {
        LinkFaultModel {
            base_ber: ber,
            seed,
            ..LinkFaultModel::default()
        }
    }

    /// Overrides the BER of one (marginal) link.
    pub fn with_link(mut self, link: LinkId, ber: f64) -> Self {
        self.per_link.insert(link, ber);
        self
    }

    /// A model that samples nothing and applies only the given exact flips.
    pub fn targeted_only(flips: Vec<TargetedFlip>) -> Self {
        LinkFaultModel {
            targeted: flips,
            ..LinkFaultModel::default()
        }
    }

    /// The BER `link` operates at.
    pub fn ber_for(&self, link: LinkId) -> f64 {
        self.per_link.get(&link).copied().unwrap_or(self.base_ber)
    }

    /// The targeted flips aimed at delivery `(vec, link)`.
    fn flips_at(&self, vec: VecRef, link: LinkId) -> impl Iterator<Item = &TargetedFlip> {
        self.targeted
            .iter()
            .filter(move |t| t.transfer == vec.transfer && t.vector == vec.vector && t.link == link)
    }

    /// Every targeted bit flip aimed at delivery `(vec, link)`.
    fn targeted_bits(&self, vec: VecRef, link: LinkId) -> Vec<usize> {
        self.flips_at(vec, link)
            .flat_map(|t| t.bits.iter().copied())
            .collect()
    }

    /// Whether delivery `d` crosses `channel` untouched: no targeted flip
    /// names a bit of it, and its keyed draw flips none. Decided from the
    /// draw alone, before any packet exists. Where it holds,
    /// [`transmit_delivery`], taking the same draws from an identically
    /// keyed RNG, would report `Clean` with the original payload.
    fn crosses_clean(&self, channel: &Channel, d: &PlannedDelivery) -> bool {
        self.flips_at(d.vec, d.link).all(|t| t.bits.is_empty())
            && channel
                .draw(&mut self.delivery_rng(d.vec, d.link), |_| {})
                .flips
                == 0
    }

    /// The first link in bind order whose bit error rate no channel
    /// accepts, with that rate. Only the links `plan` crosses are looked
    /// up, and only when some configured rate is out of range.
    fn invalid_link(&self, plan: &CompiledPlan) -> Option<(LinkId, f64)> {
        if Channel::valid_ber(self.base_ber)
            && self.per_link.values().all(|&b| Channel::valid_ber(b))
        {
            return None;
        }
        (plan.chips().iter())
            .flat_map(|c| plan.deliveries(c))
            .map(|d| (d.link, self.ber_for(d.link)))
            .find(|&(_, ber)| !Channel::valid_ber(ber))
    }

    /// The first targeted flip, in the model's order, that names a bit at
    /// or past the payload's [`PAYLOAD_BITS`], with that bit.
    fn invalid_flip(&self) -> Option<(&TargetedFlip, usize)> {
        self.targeted.iter().find_map(|t| {
            let bit = t.bits.iter().copied().find(|&b| b >= PAYLOAD_BITS)?;
            Some((t, bit))
        })
    }

    /// RNG for one delivery, keyed by (seed, link, transfer, vector) so the
    /// draw does not depend on the order deliveries are bound in.
    fn delivery_rng(&self, vec: VecRef, link: LinkId) -> StdRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for w in [link.0 as u64, vec.transfer as u64, vec.vector as u64] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Carries one delivery's payload through its link's channel: returns the
/// payload to hand the receiving chip, the FEC outcome observed, and
/// whether a miscorrection was demoted.
///
/// `Clean` keeps the original `Arc` (the executor's pointer-equality fast
/// path); `Corrected` re-wraps the repaired bytes in a fresh `Arc`, so the
/// downstream manifest checks fall back to the byte comparison — which is
/// exactly the bit-for-bit proof the fault mode exists to provide. The
/// demoting channel APIs guarantee a surviving `Corrected` outcome carries
/// the exact transmitted bytes: a "correction" that decodes to the wrong
/// payload (possible when ≥3 flips alias a valid single-error syndrome)
/// comes back `Uncorrectable` with `demoted = true` — the engine never
/// lets a plausible-but-wrong payload continue silently.
fn transmit_delivery(
    faults: &LinkFaultModel,
    channel: &Channel,
    d: &PlannedDelivery,
    original: &Payload,
) -> (Payload, FecOutcome, bool) {
    let packet = WirePacket::data(d.vec.vector as u16, original.as_ref().clone());
    let targeted = faults.targeted_bits(d.vec, d.link);
    let (delivery, demoted) = if targeted.is_empty() {
        let mut rng = faults.delivery_rng(d.vec, d.link);
        channel.transmit_demoting(&packet, d.cycle, &mut rng)
    } else {
        channel.transmit_with_flips_demoting(&packet, d.cycle, &targeted)
    };
    match delivery.outcome {
        FecOutcome::Clean => (Arc::clone(original), FecOutcome::Clean, false),
        FecOutcome::Corrected { bit } => (
            Arc::new(delivery.packet.payload),
            FecOutcome::Corrected { bit },
            false,
        ),
        // Decoder give-up, or a demoted miscorrection. Both force a
        // replay; neither may deliver wrong bytes.
        FecOutcome::Uncorrectable => (Arc::clone(original), FecOutcome::Uncorrectable, demoted),
    }
}

/// A delivery that did not cross its link clean, as its chip's job saw
/// it: the merge replays its tally and events in bind order.
struct Struck {
    /// Index into the chip's deliveries.
    delivery: u32,
    outcome: FecOutcome,
    demoted: bool,
}

/// One chip's job in an execute and what it leaves for the merge. The job
/// resets its worker's simulator, binds the chip's preloads and
/// deliveries (each delivery through its link's channel in fault mode),
/// runs its program, verifies its emissions and checks every transfer
/// that ends at it. The worker's next chip reuses the simulator, so
/// everything the merge reads is recorded here.
struct ChipRun<'a> {
    chip: &'a ChipPlan,
    /// The deliveries that did not cross clean, in delivery order. Empty,
    /// and so never allocated, on a clean fabric.
    struck: Vec<Struck>,
    /// Its retire cycle or error, once run.
    result: Option<Result<u64, CosimError>>,
    /// The destination checks of the transfers that end at this chip, in
    /// the plan's order: each transfer's digest, or the index of its first
    /// vector that did not arrive intact.
    digests: &'a mut [Result<u64, usize>],
}

impl ChipRun<'_> {
    /// Runs the chip's whole job: its retire cycle, or the first error it
    /// met. This is the entire per-chip body, the same on the calling
    /// thread and on every scoped one; the widths differ only in which
    /// thread calls it. Every fault draw is keyed by
    /// `(seed, link, transfer, vector)`, so no job depends on another's
    /// order, and nothing here is observable until the merge reads it.
    fn run(
        &mut self,
        sim: &mut ChipSim,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
        faults: Option<&LinkFaultModel>,
    ) -> Result<u64, CosimError> {
        let chip = self.chip;
        // Reset-not-rebuild: the simulator keeps its allocations, and the
        // payloads bind by `Arc` clone. Nothing of the worker's previous
        // chip survives the reset.
        sim.reset();
        for p in plan.preloads(chip) {
            sim.preload(p.slice, p.offset, Arc::clone(payload(payloads, &p.vec)?));
        }
        // The channel of the link the current run of deliveries crosses:
        // a port's deliveries all cross one link.
        let mut channel: Option<(LinkId, Channel)> = None;
        for (k, d) in plan.deliveries(chip).iter().enumerate() {
            let original = payload(payloads, &d.vec)?;
            let bound = match faults {
                None => Arc::clone(original),
                Some(fm) => {
                    if channel.as_ref().is_none_or(|(link, _)| *link != d.link) {
                        let ber = fm.ber_for(d.link);
                        channel = Some((d.link, Channel::new(LatencyModel::fixed(0), ber)));
                    }
                    let (_, ch) = channel.as_ref().expect("the run's channel is built above");
                    // The common case binds the pool handle as is: its
                    // keyed draw alone decides, with no packet built.
                    if fm.crosses_clean(ch, d) {
                        Arc::clone(original)
                    } else {
                        let (bound, outcome, demoted) = transmit_delivery(fm, ch, d, original);
                        self.struck.push(Struck {
                            delivery: k as u32,
                            outcome,
                            demoted,
                        });
                        bound
                    }
                }
            };
            // Deliveries are stored sorted by (port, cycle), so each port
            // queue is fed in order.
            sim.deliver_in_order(d.port, d.cycle, bound);
        }
        let retire = sim
            .run_sorted(plan.program(chip))
            .map_err(|error| CosimError::Chip {
                tsp: chip.tsp,
                error,
            })?;
        verify_emissions(chip.tsp, sim, plan.emissions(chip), payloads)?;
        for (digest, &t) in self.digests.iter_mut().zip(plan.dests(chip)) {
            let t = t as usize;
            // The payloads were checked against `shapes` as they are now,
            // which compile's destination lists may index past.
            let (Some(shape), Some(data)) = (plan.shapes.get(t), payloads.get(t)) else {
                return Err(CosimError::PayloadCount {
                    expected: t + 1,
                    got: payloads.len(),
                });
            };
            *digest = check_destination(shape, data, sim);
        }
        Ok(retire)
    }
}

/// The payload `r` names. `execute_with` checks the payloads against the
/// plan's public `shapes`, which a caller may have shortened since compile,
/// so a record naming a transfer or vector the payloads lack is the typed
/// payload error, never an index out of bounds.
pub(super) fn payload<'p>(
    payloads: &'p [Vec<Payload>],
    r: &VecRef,
) -> Result<&'p Payload, CosimError> {
    let t = r.transfer as usize;
    let data = payloads.get(t).ok_or_else(|| CosimError::PayloadCount {
        expected: t + 1,
        got: payloads.len(),
    })?;
    data.get(r.vector as usize)
        .ok_or_else(|| CosimError::PayloadShape {
            transfer: t,
            expected: r.vector as usize + 1,
            got: data.len(),
        })
}

/// The bind as the merge replays it, chip by chip in plan order: per-link
/// clean tallies, the earliest lost delivery and the culprit links.
#[derive(Default)]
struct BindReplay {
    clean: HashMap<LinkId, u64>,
    /// Earliest uncorrectable delivery in (cycle, link, transfer) order.
    lost: Option<(u64, LinkId, usize)>,
    culprits: Vec<LinkId>,
}

impl BindReplay {
    /// Emits what binding `run`'s chip observed, in the order the bind
    /// made it: for each delivery its fault event, if any, then its
    /// `Delivery` instant if it landed, then the chip's `Deliveries`
    /// span. `Delivery` events come from the plan's manifest; only the
    /// struck deliveries were recorded by the job.
    fn chip(
        &mut self,
        plan: &CompiledPlan,
        run: &ChipRun,
        fault_mode: bool,
        tracer: &mut Tracer,
        metrics: &Metrics,
    ) {
        let chip = run.chip;
        let deliveries = plan.deliveries(chip);
        let lane = chip.tsp.0;
        let mut struck = run.struck.iter().peekable();
        for (k, d) in deliveries.iter().enumerate() {
            let mut landed = true;
            match struck.next_if(|s| s.delivery as usize == k) {
                None if fault_mode => *self.clean.entry(d.link).or_default() += 1,
                None => {}
                Some(s) => {
                    LinkMeter::new(metrics, d.link.0).record(&s.outcome, s.demoted);
                    match s.outcome {
                        FecOutcome::Clean => {}
                        FecOutcome::Corrected { bit } => tracer.instant(
                            d.cycle,
                            lane,
                            EventKind::LinkCorrected {
                                link: d.link.0,
                                bit: bit as u32,
                            },
                        ),
                        // A vector struck uncorrectable never arrived, so
                        // it emits no Delivery event: the conformance
                        // profiler sees the aborted window's gap instead
                        // of a phantom arrival.
                        FecOutcome::Uncorrectable => {
                            let kind = if s.demoted {
                                EventKind::LinkDemoted { link: d.link.0 }
                            } else {
                                EventKind::LinkUncorrectable { link: d.link.0 }
                            };
                            tracer.instant(d.cycle, lane, kind);
                            self.culprits.push(d.link);
                            landed = false;
                            let key = (d.cycle, d.link, d.vec.transfer as usize);
                            if self.lost.is_none_or(|worst| key < worst) {
                                self.lost = Some(key);
                            }
                        }
                    }
                }
            }
            if landed {
                // The cycle-coordinate ground truth the conformance
                // profiler joins against the plan's delivery manifest,
                // and the arrival a launch's link heatmap counts.
                tracer.instant(
                    d.cycle,
                    lane,
                    EventKind::Delivery {
                        link: d.link.0,
                        transfer: d.vec.transfer,
                        vector: d.vec.vector,
                    },
                );
            }
        }
        if tracer.enabled() && !deliveries.is_empty() {
            let first = deliveries.iter().map(|d| d.cycle).min().unwrap();
            let last = deliveries.iter().map(|d| d.cycle).max().unwrap();
            tracer.span(
                first,
                (last - first).max(1),
                lane,
                EventKind::Deliveries {
                    count: deliveries.len() as u32,
                },
            );
        }
    }
}

/// Everything about one execute besides its plan and payloads. Each call
/// takes its own and the executor keeps none of it, so no setting outlives
/// the call it was made for. The default is [`PlanExecutor::execute`]: the
/// automatic width, no fault model, no trace sink, offset 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecArgs<'a> {
    /// Worker count: `Some(n)` runs at `n` threads (0 clamped to 1)
    /// whatever `TSM_THREADS` says or the plan's size; `None` resolves as
    /// [`ExecArgs::width`] does.
    pub threads: Option<usize>,
    /// The datapath fault mode: every inter-chip delivery passes through
    /// its link's BER channel per this model. Each delivery's corruption
    /// is keyed by `(seed, link, transfer, vector)`, not by which thread
    /// binds it, so parallel and serial execution remain bit-identical
    /// under injection.
    pub faults: Option<&'a LinkFaultModel>,
    /// Where trace events go; `None` costs one branch per emission point,
    /// as does a [`tsm_trace::NullSink`]. Every execute numbers its events
    /// from `seq` 0.
    pub sink: Option<&'a dyn TraceSink>,
    /// Added to every emitted event's cycle — the launch engine uses this
    /// to place each replay epoch after the previous one on the launch
    /// timeline. Metrics and reports are unaffected.
    pub trace_offset: u64,
}

/// Plan instructions below which an execute at the automatic width runs
/// on the calling thread, with no scope and no spawn: a scoped thread's
/// spawn and join cost more than such a plan's chips save by running
/// beside it.
///
/// Measured on a 2-vCPU host, release build, as warm width-2 over serial
/// execute time, the median of five alternating rounds. Plans of six
/// two-hop transfers, about 300 instructions per chip, break even near
/// 4,500 instructions (0.97 at 4,800, 0.85 at 7,200). Half-stride
/// dragonflies, about 20 instructions per chip, break even near 7,200
/// (1.07 at 5,520 with 288 chips, 1.01 at 7,152, 0.95 at 8,848). The
/// grain is the first power of two past both. cosim-16's plan (1,216
/// instructions, split 1.3–2.0× slower) stays below it; the smallest
/// plan the serving workloads execute (29,496 instructions, split 0.62–
/// 0.66) splits.
pub const EXEC_GRAIN: usize = 8_192;

impl ExecArgs<'_> {
    /// The worker count an execute of `plan` runs at: the explicit width,
    /// clamped to at least 1; else 1 for a plan of fewer than
    /// [`EXEC_GRAIN`] instructions; else
    /// [`PlanExecutor::resolved_threads`]'s. Of the plan it reads only the
    /// instruction count, which compile fixes, never a timing.
    pub fn width(&self, plan: &CompiledPlan) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None if plan.instructions < EXEC_GRAIN => 1,
            None => auto_threads(),
        }
    }
}

/// Reusable payload-binding executor.
///
/// One `PlanExecutor` can run many plans and many payload sets. It keeps
/// one chip simulator per worker thread and resets it (allocations
/// retained) at the start of every chip's job, so no state leaks between
/// chips or invocations and none is rebuilt. It holds nothing else: width,
/// faults and trace placement come with each call ([`ExecArgs`]). A
/// parallel execution spawns its scoped threads for that call alone; none
/// outlive it. Serial and parallel execution are bit-identical — see the
/// module docs of [`super`].
#[derive(Debug, Default)]
pub struct PlanExecutor {
    /// One simulator per worker, indexed by shard: `min(width, chips)` of
    /// them, at least one, grown to the widest execute run so far and
    /// never with the chip count. Each of a worker's jobs resets it before
    /// binding its chip.
    sims: Vec<ChipSim>,
}

impl PlanExecutor {
    /// An executor with no chip state yet; simulators are created on first
    /// use and recycled thereafter.
    pub fn new() -> Self {
        PlanExecutor::default()
    }

    /// The worker count an execute at the automatic width would use right
    /// now for a plan of at least [`EXEC_GRAIN`] instructions: a positive
    /// integer in `TSM_THREADS`, else `available_parallelism`.
    pub fn resolved_threads(&self) -> usize {
        auto_threads()
    }

    /// [`PlanExecutor::execute_with`] at the defaults: no faults, no trace,
    /// and the chips split by shard across [`ExecArgs::width`] threads.
    pub fn execute(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
    ) -> Result<CosimReport, CosimError> {
        self.execute_with(plan, payloads, ExecArgs::default())
    }

    /// [`PlanExecutor::execute`] with every chip's job on the calling
    /// thread, in plan order. Bit-identical to the parallel path — the
    /// determinism tests and benches compare the two.
    pub fn execute_serial(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
    ) -> Result<CosimReport, CosimError> {
        let serial = ExecArgs {
            threads: Some(1),
            ..ExecArgs::default()
        };
        self.execute_with(plan, payloads, serial)
    }

    /// Binds `payloads` to `plan` and executes it, one job per chip, the
    /// jobs split by shard across [`ExecArgs::width`] threads: the calling
    /// thread and at most that many less one scoped threads, spawned for
    /// this call and joined before it returns. Every job runs to its end;
    /// the merge then reports the first failure, and discards every result
    /// after it, in the order of a serial execute.
    ///
    /// `payloads[t][v]` is vector `v` of transfer `t` and must match the
    /// plan's [`TransferShape`]s exactly. Its records are compile's, so
    /// if `shapes` was edited since, a record naming a payload the sets
    /// lack is that chip's [`CosimError::PayloadCount`] or
    /// [`CosimError::PayloadShape`]. A fault model is checked before
    /// anything is bound or traced: an out-of-range rate on a link the
    /// plan crosses, or a targeted flip past the payload's bits, is an
    /// error, never a panic.
    ///
    /// [`TransferShape`]: super::plan::TransferShape
    pub fn execute_with(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
        args: ExecArgs<'_>,
    ) -> Result<CosimReport, CosimError> {
        // The payloads must match the shapes the plan was compiled for.
        if payloads.len() != plan.shapes.len() {
            return Err(CosimError::PayloadCount {
                expected: plan.shapes.len(),
                got: payloads.len(),
            });
        }
        for (t, (shape, data)) in plan.shapes.iter().zip(payloads).enumerate() {
            if data.len() != shape.vectors as usize {
                return Err(CosimError::PayloadShape {
                    transfer: t,
                    expected: shape.vectors as usize,
                    got: data.len(),
                });
            }
        }

        let faults = args.faults;
        if let Some((link, ber)) = faults.and_then(|fm| fm.invalid_link(plan)) {
            return Err(CosimError::BitErrorRate { link, ber });
        }
        if let Some((flip, bit)) = faults.and_then(LinkFaultModel::invalid_flip) {
            return Err(CosimError::FlipOutOfRange {
                transfer: flip.transfer,
                vector: flip.vector,
                link: flip.link,
                bit,
            });
        }

        let chips = plan.chips();
        let threads = args.width(plan).min(chips.len()).max(1);
        if self.sims.len() < threads {
            self.sims.resize_with(threads, ChipSim::default);
        }
        // Each chip's job records the checks of the transfers that end at
        // it, which the plan lists chip by chip, in its part of one buffer.
        let checks = chips.iter().map(|c| plan.dests(c).len()).sum();
        let mut digests = vec![Ok(0); checks];
        let mut rest = digests.as_mut_slice();
        let mut runs = Vec::with_capacity(chips.len());
        for chip in chips {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(plan.dests(chip).len());
            rest = tail;
            runs.push(ChipRun {
                chip,
                struck: Vec::new(),
                result: None,
                digests: mine,
            });
        }
        run_jobs(&mut runs, &mut self.sims[..threads], |run, sim| {
            run.result = Some(run.run(sim, plan, payloads, faults));
        });

        // The merge, on the calling thread. Every emission point sits here,
        // after the jobs, so the event sequence — not just the sorted set —
        // is the same at every width: first the bind, chip by chip in plan
        // order, ...
        let metrics = Metrics::default();
        let mut tracer = Tracer::new(args.sink).with_offset(args.trace_offset);
        let mut bind = BindReplay::default();
        if faults.is_some() || tracer.enabled() {
            for run in &runs {
                bind.chip(plan, run, faults.is_some(), &mut tracer, &metrics);
            }
        }
        for (link, clean) in bind.clean {
            metrics.inc_labeled(names::LINK_CLEAN, link.0, clean);
        }
        // ... aborting on a lost delivery, with the FEC tally of every
        // packet of the attempt and whatever its chips did discarded, ...
        if let Some((cycle, link, transfer)) = bind.lost {
            return Err(CosimError::Uncorrectable {
                link,
                transfer,
                cycle,
                fec: FecStats::from_metrics(&metrics.snapshot()),
                culprits: bind.culprits,
            });
        }

        // ... then each chip's run in the plan's merge order, (depth,
        // TspId), which decides which chip error is reported first, ...
        let mut retire_cycles = HashMap::with_capacity(runs.len());
        let mut retires = CycleHistogram::default();
        for &i in plan.merge_order() {
            let run = &mut runs[i as usize];
            let chip = run.chip;
            let retire = (run.result.take()).expect("the merge order lists each chip once")?;
            retires.observe(retire);
            retire_cycles.insert(chip.tsp, retire);
            if tracer.enabled() {
                let lane = chip.tsp.0;
                let instrs = plan.program(chip);
                let start = instrs.first().map_or(0, |i| i.cycle);
                tracer.span(
                    start,
                    retire.saturating_sub(start).max(1),
                    lane,
                    EventKind::ChipExec {
                        depth: chip.depth,
                        instructions: instrs.len() as u32,
                    },
                );
                let emissions = plan.emissions(chip);
                if let (Some(first), Some(last)) = (emissions.first(), emissions.last()) {
                    // Emissions are stored sorted by (cycle, port).
                    tracer.span(
                        first.cycle,
                        (last.cycle - first.cycle).max(1),
                        lane,
                        EventKind::Emissions {
                            count: emissions.len() as u32,
                        },
                    );
                }
            }
        }
        drop(runs);
        metrics.merge_histogram(names::COSIM_RETIRE_CYCLES, &retires);

        // ... then the destinations: the first mismatch in transfer order,
        // else every transfer's fingerprint.
        let mut dst_digests = vec![EMPTY_DIGEST; plan.shapes.len()];
        let mut mismatch: Option<(usize, usize)> = None;
        let transfers = chips.iter().flat_map(|c| plan.dests(c));
        for (&t, &digest) in transfers.zip(&digests) {
            let t = t as usize;
            match digest {
                Ok(digest) => dst_digests[t] = digest,
                Err(vector) => {
                    if mismatch.is_none_or(|first| (t, vector) < first) {
                        mismatch = Some((t, vector));
                    }
                }
            }
        }
        if let Some((transfer, vector)) = mismatch {
            return Err(CosimError::DataMismatch { transfer, vector });
        }

        metrics.inc(names::COSIM_INSTRUCTIONS, plan.instructions as u64);
        let delivered = chips.iter().map(|c| plan.deliveries(c).len() as u64).sum();
        metrics.inc(names::COSIM_DELIVERIES, delivered);
        metrics.set_gauge(names::COSIM_CHIPS, chips.len() as u64);
        // Surface trace loss so downstream consumers (the conformance
        // profiler refuses lossy traces) can see it without holding the
        // sink. Only set when nonzero: a clean instrumented run must report
        // metrics identical to a bare run.
        let trace_dropped = args.sink.map_or(0, TraceSink::dropped);
        if trace_dropped > 0 {
            metrics.set_gauge(names::TRACE_DROPPED, trace_dropped);
        }

        Ok(CosimReport {
            retire_cycles,
            instructions: plan.instructions,
            arrivals: plan.arrivals.clone(),
            dst_digests,
            metrics: metrics.snapshot(),
        })
    }
}

/// Runs `job` on every chip once, split by work rank across one thread
/// per simulator in `sims`, as many as the width capped at the chip count:
/// with `threads` of them, chip `c` runs in shard `c.shard % threads` on
/// simulator `shard`, the lowest non-empty shard on the calling thread and
/// each other non-empty one on a scoped thread of its own. At one thread
/// every job runs on the calling thread, in plan order, with no scope at
/// all.
fn run_jobs(
    runs: &mut [ChipRun],
    sims: &mut [ChipSim],
    job: impl Fn(&mut ChipRun, &mut ChipSim) + Sync,
) {
    let threads = sims.len();
    if let [sim] = sims {
        return runs.iter_mut().for_each(|run| job(run, sim));
    }
    let mut shards: Vec<Vec<&mut ChipRun>> = (0..threads)
        .map(|_| Vec::with_capacity(runs.len().div_ceil(threads)))
        .collect();
    for run in runs.iter_mut() {
        shards[run.chip.shard() as usize % threads].push(run);
    }
    let mut shards = shards.into_iter().zip(sims).filter(|(s, _)| !s.is_empty());
    let first = shards.next();
    let job = &job;
    std::thread::scope(|s| {
        for (shard, sim) in shards {
            s.spawn(move || shard.into_iter().for_each(|run| job(run, sim)));
        }
        if let Some((shard, sim)) = first {
            shard.into_iter().for_each(|run| job(run, sim));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::plan::{compile_plan, TransferShape};
    use tsm_isa::Vector;
    use tsm_topology::{Topology, TspId};

    /// A zeroed payload set for `plan`.
    fn payloads(plan: &CompiledPlan) -> Vec<Vec<Payload>> {
        let vector = Arc::new(Vector::zeroed());
        let set = |s: &TransferShape| vec![Arc::clone(&vector); s.vectors as usize];
        plan.shapes.iter().map(set).collect()
    }

    fn at_width(threads: usize) -> ExecArgs<'static> {
        ExecArgs {
            threads: Some(threads),
            ..ExecArgs::default()
        }
    }

    /// The simulators follow the width, never the chip count: the 16-rack
    /// half-stride plan's 1,152 chips run at widths 1, 3 and 2 on one
    /// executor, which then holds 1, 3 and 3 simulators, and a 2-chip
    /// plan at width 8 gets one per chip.
    #[test]
    fn an_executor_holds_one_simulator_per_worker() {
        let topo = Topology::rack_dragonfly(16).unwrap();
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
        assert_eq!(plan.chips().len(), 1_152);
        let data = payloads(&plan);
        let mut executor = PlanExecutor::new();
        let want = executor.execute_serial(&plan, &data).unwrap();
        for (width, held) in [(1, 1), (3, 3), (2, 3)] {
            let got = executor.execute_with(&plan, &data, at_width(width));
            assert_eq!(got.unwrap(), want, "width {width}");
            assert_eq!(executor.sims.len(), held, "width {width}");
        }

        let shape = TransferShape {
            to: TspId(1),
            ..shapes[0].clone()
        };
        let small = compile_plan(&Topology::single_node(), &[shape]).unwrap();
        assert_eq!(small.chips().len(), 2);
        let mut fresh = PlanExecutor::new();
        fresh
            .execute_with(&small, &payloads(&small), at_width(8))
            .unwrap();
        assert_eq!(fresh.sims.len(), 2);
    }

    /// A worker's simulator carries nothing from one chip's job into the
    /// next. TSP 0 preloads the transfer's vectors at the very SRAM
    /// cells that TSP 1, its destination, is checked at; with TSP 1's
    /// program emptied in the plan's document it is bound and checked but
    /// runs nothing, so only the reset stands between its check and TSP
    /// 0's preloads.
    #[test]
    fn a_chip_job_sees_nothing_of_the_previous_job() {
        let shape = TransferShape {
            from: TspId(0),
            to: TspId(1),
            src_slice: 1,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            vectors: 4,
        };
        let json = compile_plan(&Topology::single_node(), &[shape])
            .unwrap()
            .to_json();
        // The chips ascend by TSP, so TSP 1's program is the second.
        let key = "\"program\": \"";
        let start = json.match_indices(key).nth(1).unwrap().0 + key.len();
        let end = start + json[start..].find('"').unwrap();
        let plan = CompiledPlan::from_json(&format!("{}{}", &json[..start], &json[end..])).unwrap();
        assert_eq!(plan.chips()[1].tsp, TspId(1));
        assert!(plan.program(&plan.chips()[1]).is_empty());
        let data = payloads(&plan);
        let mut executor = PlanExecutor::new();
        for args in [at_width(1), ExecArgs::default()] {
            assert_eq!(
                executor.execute_with(&plan, &data, args),
                Err(CosimError::DataMismatch {
                    transfer: 0,
                    vector: 0
                })
            );
        }
    }
}
