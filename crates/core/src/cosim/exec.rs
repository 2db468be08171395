//! Execute stage of the co-simulation pipeline: binding payload vectors to
//! a [`CompiledPlan`] and running every chip exactly once.
//!
//! The executor owns the per-chip simulators and *resets* them between
//! invocations instead of rebuilding them, so the marginal cost of one
//! more execution is the chip passes themselves — no routing, scheduling,
//! lowering or stream allocation happens here. This is the runtime half of
//! the paper's compile-once / execute-many contract (§5, Fig 17).
//!
//! Every delivery is bound from the plan before any chip runs, and no chip
//! reads another chip's output, so the chips of one execute need no
//! barrier between them. A parallel execute opens one
//! [`std::thread::scope`]: chips are partitioned once by their
//! compile-time [`ChipPlan::shard`] (a hash of the TSP id) modulo the
//! width, the lowest non-empty shard runs on the calling thread and every
//! other non-empty shard on a scoped thread of its own. Which thread runs
//! which chip therefore depends on the plan and the width alone, never on
//! OS scheduling. Every observable (results, traces, metrics, the first
//! error) is merged on the calling thread in the plan's level order —
//! ascending `(depth, TspId)` — which is what makes serial and parallel
//! execution bit-identical.

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
use tsm_trace::{names, EventKind, Metrics, TraceSink, Tracer};

use super::plan::{ChipPlan, CompiledPlan, PlannedDelivery, VecRef};
use super::verify::{verify_destinations, verify_emissions};
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
        plan.chips
            .iter()
            .flat_map(|c| &c.deliveries)
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

/// One link's state across a fault-mode bind: its channel, built once per
/// execute, and how many of its deliveries crossed clean. Clean outcomes
/// are tallied here and folded into the metrics once per link.
struct LinkBind {
    link: LinkId,
    channel: Channel,
    clean: u64,
}

/// One chip's turn in an execute: its plan, its simulator and, once it
/// has run, its retire cycle or error.
struct ChipRun<'a> {
    chip: &'a ChipPlan,
    sim: &'a mut ChipSim,
    result: Option<Result<u64, CosimError>>,
}

/// Everything about one execute besides its plan and payloads. Each call
/// takes its own and the executor keeps none of it, so no setting outlives
/// the call it was made for. The default is [`PlanExecutor::execute`]: the
/// automatic width, no fault model, no trace sink, offset 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecArgs<'a> {
    /// Worker count: `Some(n)` runs at `n` threads (0 clamped to 1)
    /// whatever `TSM_THREADS` says; `None` resolves as
    /// [`PlanExecutor::resolved_threads`] does.
    pub threads: Option<usize>,
    /// The datapath fault mode: every inter-chip delivery passes through
    /// its link's BER channel per this model. Corruption happens in the
    /// (serial) bind phase, so parallel and serial execution remain
    /// bit-identical under injection.
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

impl ExecArgs<'_> {
    /// The worker count this execute runs at: the explicit width, clamped
    /// to at least 1, else [`PlanExecutor::resolved_threads`]'s.
    pub fn width(&self) -> usize {
        self.threads.map_or_else(auto_threads, |n| n.max(1))
    }
}

/// Reusable payload-binding executor.
///
/// One `PlanExecutor` can run many plans and many payload sets; its chip
/// simulators are reset (allocations retained) at the start of every
/// execution, so no state leaks between invocations and no state is
/// rebuilt. It holds nothing else: width, faults and trace placement come
/// with each call ([`ExecArgs`]). A parallel execution spawns its scoped
/// threads for that call alone; none outlive it. Serial and parallel
/// execution are bit-identical — see the module docs of [`super`].
#[derive(Debug, Default)]
pub struct PlanExecutor {
    /// Per-chip simulators, aligned by index with the executing plan's
    /// chip list (grown on demand), reset and re-bound on every
    /// execution. Indexing by position instead of TSP id keeps the warm
    /// path free of hash lookups.
    sims: Vec<ChipSim>,
}

impl PlanExecutor {
    /// An executor with no chip state yet; simulators are created on first
    /// use and recycled thereafter.
    pub fn new() -> Self {
        PlanExecutor::default()
    }

    /// The worker count an execute at the automatic width would use right
    /// now: a positive integer in `TSM_THREADS`, else
    /// `available_parallelism`.
    pub fn resolved_threads(&self) -> usize {
        auto_threads()
    }

    /// [`PlanExecutor::execute_with`] at the defaults: no faults, no trace,
    /// and the chips split by shard across
    /// [`PlanExecutor::resolved_threads`] threads.
    pub fn execute(
        &mut self,
        plan: &CompiledPlan,
        payloads: &[Vec<Payload>],
    ) -> Result<CosimReport, CosimError> {
        self.execute_with(plan, payloads, ExecArgs::default())
    }

    /// [`PlanExecutor::execute`] with all chips run on the calling thread,
    /// in ascending (depth, TspId) order. Bit-identical to the parallel
    /// path — the determinism tests and benches compare the two.
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

    /// Binds `payloads` to `plan` and executes it, its chips split by
    /// shard across [`ExecArgs::width`] threads: the calling thread and at
    /// most that many less one scoped threads, spawned for this call and
    /// joined before it returns. A chip that runs after the first failing
    /// one (in `(depth, TspId)` order) is discarded with the execute's
    /// error and reset at the next.
    ///
    /// `payloads[t][v]` is vector `v` of transfer `t` and must match the
    /// plan's [`TransferShape`]s exactly. A fault model is checked before
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

        let payload = |r: &VecRef| &payloads[r.transfer as usize][r.vector as usize];

        // Per-run observability state. All emission points below sit on
        // the serial spine (this bind loop and the merge loop after the
        // chips run), so the event sequence — not just the sorted set — is
        // identical between serial and parallel execution.
        let metrics = Metrics::default();
        let mut tracer = Tracer::new(args.sink).with_offset(args.trace_offset);

        // Reset-not-rebuild: each chip's simulator keeps its allocations
        // across invocations; preloads and deliveries bind the new
        // payloads by Arc clone (pointer copies, no byte copies). In fault
        // mode each delivery additionally crosses its link's channel here,
        // in the serial bind phase — so injection cannot perturb the
        // parallel-vs-serial determinism contract. Its keyed draw decides
        // first whether it crosses clean; only one that does not is built
        // into a packet and decoded.
        if self.sims.len() < plan.chips.len() {
            self.sims.resize_with(plan.chips.len(), ChipSim::default);
        }
        // Fault mode's per-link channels and clean tallies, indexed through
        // `link_index`; `run` is the entry of the link the current run of
        // deliveries crosses.
        let mut links: Vec<LinkBind> = Vec::new();
        let mut link_index: HashMap<LinkId, usize> = HashMap::new();
        let mut run = usize::MAX;
        // Earliest uncorrectable delivery in (cycle, link, transfer) order;
        // the whole bind completes first so the FEC tally covers every
        // packet of the aborted attempt.
        let mut lost: Option<(u64, LinkId, usize)> = None;
        let mut culprits: Vec<LinkId> = Vec::new();
        let mut delivered: u64 = 0;
        for (chip, sim) in plan.chips.iter().zip(&mut self.sims) {
            sim.reset();
            let lane = chip.tsp.0;
            for p in &chip.preloads {
                sim.preload(p.slice, p.offset, Arc::clone(payload(&p.vec)));
            }
            delivered += chip.deliveries.len() as u64;
            for d in &chip.deliveries {
                // Deliveries are stored sorted by (port, cycle), so each
                // port queue is fed in order — no per-delivery re-sort.
                // A vector struck uncorrectable never arrived, so it emits
                // no Delivery event — the conformance profiler sees the
                // aborted window's gap instead of a phantom arrival.
                let mut landed = true;
                let original = payload(&d.vec);
                let payload = match faults {
                    None => Arc::clone(original),
                    Some(fm) => {
                        // A port's deliveries all cross one link, so the
                        // channel is looked up once per run of them.
                        if links.get(run).is_none_or(|l| l.link != d.link) {
                            run = *link_index.entry(d.link).or_insert_with(|| {
                                links.push(LinkBind {
                                    link: d.link,
                                    channel: Channel::new(
                                        LatencyModel::fixed(0),
                                        fm.ber_for(d.link),
                                    ),
                                    clean: 0,
                                });
                                links.len() - 1
                            });
                        }
                        let link = &mut links[run];
                        // The common case binds the pool handle as is: no
                        // packet, no byte copy, no metrics lock.
                        if fm.crosses_clean(&link.channel, d) {
                            link.clean += 1;
                            Arc::clone(original)
                        } else {
                            let (payload, outcome, demoted) =
                                transmit_delivery(fm, &link.channel, d, original);
                            LinkMeter::new(&metrics, d.link.0).record(&outcome, demoted);
                            match outcome {
                                FecOutcome::Clean => {}
                                FecOutcome::Corrected { bit } => tracer.instant(
                                    d.cycle,
                                    lane,
                                    EventKind::LinkCorrected {
                                        link: d.link.0,
                                        bit: bit as u32,
                                    },
                                ),
                                FecOutcome::Uncorrectable => {
                                    let kind = if demoted {
                                        EventKind::LinkDemoted { link: d.link.0 }
                                    } else {
                                        EventKind::LinkUncorrectable { link: d.link.0 }
                                    };
                                    tracer.instant(d.cycle, lane, kind);
                                    culprits.push(d.link);
                                    landed = false;
                                    let key = (d.cycle, d.link, d.vec.transfer as usize);
                                    if lost.is_none_or(|worst| key < worst) {
                                        lost = Some(key);
                                    }
                                }
                            }
                            payload
                        }
                    }
                };
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
                sim.deliver_in_order(d.port, d.cycle, payload);
            }
            if tracer.enabled() && !chip.deliveries.is_empty() {
                let first = chip.deliveries.iter().map(|d| d.cycle).min().unwrap();
                let last = chip.deliveries.iter().map(|d| d.cycle).max().unwrap();
                tracer.span(
                    first,
                    (last - first).max(1),
                    lane,
                    EventKind::Deliveries {
                        count: chip.deliveries.len() as u32,
                    },
                );
            }
        }
        for l in &links {
            metrics.inc_labeled(names::LINK_CLEAN, l.link.0, l.clean);
        }
        if let Some((cycle, link, transfer)) = lost {
            return Err(CosimError::Uncorrectable {
                link,
                transfer,
                cycle,
                fec: FecStats::from_metrics(&metrics.snapshot()),
                culprits,
            });
        }

        // Each chip runs exactly once. Every delivery is bound above, from
        // the plan, so no chip waits on another's output and the levels are
        // not barriers: they fix only the order of the merge below, in
        // (depth, TspId), and with it which error is reported first.
        let width = args.width();
        let mut sims: Vec<Option<&mut ChipSim>> = self.sims.iter_mut().map(Some).collect();
        // Sized up front: `flatten` gives `collect` no length, and growing
        // would add allocations with the chip count.
        let mut runs = Vec::with_capacity(plan.chips.len());
        runs.extend(plan.levels.iter().flatten().map(|&i| {
            ChipRun {
                chip: &plan.chips[i as usize],
                sim: sims[i as usize]
                    .take()
                    .expect("levels list each chip at most once"),
                result: None,
            }
        }));
        run_shards(plan, payloads, &mut runs, width);

        // Merge on the calling thread, in level order.
        let mut retire_cycles = HashMap::with_capacity(runs.len());
        for run in runs {
            let chip = run.chip;
            let retire = run
                .result
                .expect("every chip before the first failure has run")?;
            metrics.observe_cycles(names::COSIM_RETIRE_CYCLES, retire);
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
                if let (Some(first), Some(last)) = (chip.emissions.first(), chip.emissions.last()) {
                    // Emissions are stored sorted by (cycle, port).
                    tracer.span(
                        first.cycle,
                        (last.cycle - first.cycle).max(1),
                        lane,
                        EventKind::Emissions {
                            count: chip.emissions.len() as u32,
                        },
                    );
                }
            }
        }

        // Verify destination SRAM contents bit-for-bit and fingerprint them.
        let dst_digests = verify_destinations(plan, payloads, &self.sims)?;

        metrics.inc(names::COSIM_INSTRUCTIONS, plan.instructions as u64);
        metrics.inc(names::COSIM_DELIVERIES, delivered);
        metrics.set_gauge(names::COSIM_CHIPS, plan.chips.len() as u64);
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

/// Runs every chip of `runs` once, split by compile-time shard across
/// `width` threads: the lowest non-empty shard on the calling thread, each
/// other non-empty shard on a scoped thread of its own. Within a shard
/// chips run in `runs` order, so a shard stops at its own first failure.
fn run_shards(plan: &CompiledPlan, payloads: &[Vec<Payload>], runs: &mut [ChipRun], width: usize) {
    if width <= 1 {
        return run_shard(plan, payloads, runs.iter_mut());
    }
    let shard = |r: &&mut ChipRun| r.chip.shard as usize % width;
    // A stable sort keeps each shard's chips in `runs` order.
    let mut by_shard: Vec<&mut ChipRun> = runs.iter_mut().collect();
    by_shard.sort_by_key(shard);
    let mut shards = by_shard.chunk_by_mut(|a, b| shard(a) == shard(b));
    let first = shards.next();
    std::thread::scope(|s| {
        for chunk in shards {
            s.spawn(|| run_shard(plan, payloads, chunk.iter_mut().map(|r| &mut **r)));
        }
        if let Some(chunk) = first {
            run_shard(plan, payloads, chunk.iter_mut().map(|r| &mut **r));
        }
    });
}

/// Runs a shard's chips in order, stopping at the first that fails: each
/// executes its slab window and has its emission manifest verified.
///
/// This is the *entire* per-chip body, shared verbatim by the serial path
/// and every thread of a parallel one — the two modes differ only in which
/// thread calls it, which is exactly the determinism argument.
fn run_shard<'r, 'a: 'r>(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    runs: impl Iterator<Item = &'r mut ChipRun<'a>>,
) {
    for run in runs {
        let result = run
            .sim
            .run_sorted(plan.program(run.chip))
            .map_err(|error| CosimError::Chip {
                tsp: run.chip.tsp,
                error,
            })
            .and_then(|retire| {
                verify_emissions(run.chip.tsp, run.sim, &run.chip.emissions, payloads)?;
                Ok(retire)
            });
        let failed = result.is_err();
        run.result = Some(result);
        if failed {
            break;
        }
    }
}
