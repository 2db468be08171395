//! The runtime orchestrator: marshal resources, align, execute, monitor,
//! and recover.
//!
//! Paper §5.1: "The runtime system then emplaces all program collateral on
//! the TSPs and synchronizes all programs … so that we launch the
//! inference simultaneously across all cooperating TSPs." Paper §4.5
//! supplies the recovery half: replay transient faults; on a persistent
//! fault, blame the marginal hardware, swap in the hot spare ("the runtime
//! layer marshals resources for invoking the parallel program's
//! execution"), recompile against the remapped devices, and replay.
//!
//! [`Runtime::launch`] is that loop, end to end. Programs are expressed
//! against *logical* devices; the runtime owns the logical→physical map.
//!
//! # Execution modes
//!
//! The health monitor can observe the links two ways ([`ExecMode`]):
//!
//! - **Statistical** (default): a per-packet FEC tally over the schedule's
//!   link reservations. Fast — no payload bytes move — and what the big
//!   benches use.
//! - **Datapath**: every transfer's payload vectors actually stream
//!   through the [`CompiledPlan`] engine, each inter-chip delivery
//!   crossing its link's BER channel. Single-bit flips are corrected in
//!   situ by the receiver FEC and the delivered bytes are verified
//!   bit-for-bit against the manifest; an uncorrectable error aborts the
//!   attempt as [`CosimError::Uncorrectable`](crate::cosim::CosimError::Uncorrectable)
//!   and drives the same
//!   replay/blame/failover machinery. Any launch that completes — after
//!   any number of replays and failovers — leaves destination SRAM
//!   bit-identical to a fault-free run, because corrupted attempts never
//!   contribute bytes and corrected ones are verified exact.

use crate::cosim::{compile_plan, CompiledPlan, TransferShape};
use crate::launch::LaunchEngine;
use crate::residency::ResidencyManager;
use crate::system::System;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tsm_chip::exec::Payload;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_compiler::schedule::CompiledProgram;
use tsm_fault::inject::FecStats;
use tsm_fault::spare::SparePlan;
use tsm_isa::vector::VECTOR_BYTES;
use tsm_isa::Vector;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::telemetry::{Telemetry, TelemetryConfig};
use tsm_trace::{names, RunMetrics, TraceSink};

/// Which spare-provisioning policy the deployment uses (paper §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparePolicy {
    /// One spare node per rack (≈11 % overhead). On a topology smaller
    /// than one rack — where the policy would reserve zero spares — the
    /// runtime falls back to [`SparePolicy::PerSystem`] instead of
    /// constructing a plan with no redundancy.
    PerRack,
    /// One spare node per system (≈3 % overhead).
    PerSystem,
}

/// How [`Runtime::launch`] exercises the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Statistical per-packet FEC tally over the schedule's reservations
    /// (fast; no payload bytes move).
    #[default]
    Statistical,
    /// Real datapath: payload vectors stream through the compiled plan
    /// with per-link BER channels; corruption, correction and replay are
    /// exercised on actual bytes.
    Datapath,
}

/// Errors from the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Compilation of the (remapped) program failed.
    Compile(String),
    /// The fault persisted and no spare was left to absorb it.
    OutOfSpares {
        /// Nodes consumed before giving up.
        nodes_failed: usize,
    },
    /// A fault persisted but blame voting could not name a *replaceable*
    /// node: every culprit-link endpoint is a spare or otherwise unmapped.
    /// Distinct from [`RuntimeError::OutOfSpares`] — spares remain, and
    /// swapping one for a healthy node would not clear the fault, so the
    /// operator must inspect the named cables instead.
    BlameFailed {
        /// Spares still in reserve when blaming failed.
        spares_left: usize,
        /// The links the failed attempts implicated.
        culprits: Vec<LinkId>,
    },
    /// The datapath execution engine rejected the compiled plan for a
    /// reason that is not a link fault (a lowering bug, a capacity limit):
    /// replaying cannot help, so it surfaces directly.
    Execution(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "compile: {e}"),
            RuntimeError::OutOfSpares { nodes_failed } => {
                write!(
                    f,
                    "fault persisted after {nodes_failed} failovers; no spares left"
                )
            }
            RuntimeError::BlameFailed {
                spares_left,
                culprits,
            } => {
                write!(
                    f,
                    "fault persisted but no culprit node is replaceable ({} culprit links, {spares_left} spares idle)",
                    culprits.len()
                )
            }
            RuntimeError::Execution(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The record of one successful launch.
///
/// All tallies live in [`LaunchOutcome::metrics`] — one source of truth —
/// and the old standalone fields (`fec`, `fec_total`, `attempts`,
/// `compiles`, `reuses`) are views over it. `PartialEq` compares every
/// field, which is what the launch-vs-serve identity tests lean on.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchOutcome {
    /// The launch's full metrics snapshot: `runtime.*` counters
    /// (attempts/replays/compiles/reuses/blame votes/failovers),
    /// `link.fec.*` cells accumulated over every attempt (per-link in
    /// datapath mode), `launch.final.fec.*` for the successful run, and —
    /// in datapath mode — the co-simulation's `cosim.*` counters and
    /// retirement histogram.
    pub metrics: RunMetrics,
    /// Nodes failed over during this launch.
    pub failovers: Vec<NodeId>,
    /// One-time initial-alignment overhead paid before the first attempt,
    /// in cycles (paper §3.2).
    pub alignment_cycles: u64,
    /// The compiled span of the (final) program.
    pub span_cycles: u64,
    /// In [`ExecMode::Datapath`], the per-transfer destination-SRAM
    /// fingerprints of the successful run — bit-identical to a fault-free
    /// run of the same graph by the determinism guarantee. Empty in
    /// statistical mode.
    pub dst_digests: Vec<u64>,
    /// Virtual width of the whole launch on the trace timeline: the
    /// alignment window plus one `span+gap` window per attempt, measured
    /// from the launch's base cycle to its `LaunchEnd` event. The serving
    /// frontend uses this as the service time of a batch.
    pub timeline_cycles: u64,
    /// Windowed utilization heatmaps of this launch when telemetry is
    /// enabled ([`Runtime::set_telemetry`]): per-link delivery counts
    /// (`link.deliveries[linkN]`) and per-chip busy cycles
    /// (`chip.busy_cycles[chipN]`), sampled over every attempt — aborted
    /// ones included, exactly matching the trace. `None` when telemetry
    /// is off, so pre-feature outcomes compare bit-identically; present
    /// but empty in statistical mode, which moves no payloads.
    pub telemetry: Option<Telemetry>,
}

impl LaunchOutcome {
    /// Total executions (1 = clean first try).
    pub fn attempts(&self) -> u32 {
        self.metrics.counter(names::RT_ATTEMPTS) as u32
    }

    /// Replays consumed (attempts beyond each episode's first).
    pub fn replays(&self) -> u32 {
        self.metrics.counter(names::RT_REPLAYS) as u32
    }

    /// Compilations performed during this launch. A healthy relaunch of
    /// an unchanged graph compiles zero times; each failover forces
    /// exactly one recompile against the remapped devices.
    pub fn compiles(&self) -> u32 {
        self.metrics.counter(names::RT_COMPILES) as u32
    }

    /// Compile-cache hits during this launch.
    pub fn reuses(&self) -> u32 {
        self.metrics.counter(names::RT_REUSES) as u32
    }

    /// FEC tally of the successful execution.
    pub fn fec(&self) -> FecStats {
        FecStats {
            clean: self.metrics.counter(names::FINAL_CLEAN),
            corrected: self.metrics.counter(names::FINAL_CORRECTED),
            uncorrectable: self.metrics.counter(names::FINAL_UNCORRECTABLE),
        }
    }

    /// FEC tally accumulated over *every* attempt of this launch,
    /// including aborted ones — what the health monitor actually saw.
    pub fn fec_total(&self) -> FecStats {
        FecStats::from_metrics(&self.metrics)
    }
}

/// The datapath artifacts compiled alongside the program: the transfer
/// plan and the synthetic payload vectors bound to it on every attempt.
/// Payload bytes are a pure function of (transfer index, vector index), so
/// fault-free and faulty launches move identical data — the basis of the
/// bit-identical guarantee. The payloads are handles into the runtime's
/// [`PayloadPool`], shared with every other entry that binds them.
#[derive(Debug)]
pub(crate) struct DatapathArtifact {
    pub(crate) plan: CompiledPlan,
    pub(crate) payloads: Vec<Vec<Payload>>,
}

/// The synthetic payloads of one runtime, grow-only: `vectors[t][v]` is
/// vector `v` of transfer `t`, synthesized the first time a launch needs
/// it and handed out by `Arc` clone from then on. Payload bytes depend
/// only on `(t, v)`, so every datapath artifact binds a prefix of each
/// transfer's pool, and one copy serves them all. The pool is outside the
/// residency budget and lives exactly as long as its runtime.
#[derive(Debug, Default)]
pub(crate) struct PayloadPool {
    vectors: Vec<Vec<Payload>>,
}

impl PayloadPool {
    /// Handles to the first `len` vectors of transfer `t`, synthesizing
    /// whichever of them no earlier launch on this runtime needed.
    fn prefix(&mut self, t: usize, len: u32) -> Vec<Payload> {
        if self.vectors.len() <= t {
            self.vectors.resize_with(t + 1, Vec::new);
        }
        let pool = &mut self.vectors[t];
        for v in pool.len() as u32..len {
            pool.push(Arc::new(synthetic_vector(t as u32, v)));
        }
        pool[..len as usize].to_vec()
    }

    /// Vectors held, over every transfer index.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.vectors.iter().map(Vec::len).sum()
    }
}

/// The compiled artifact of one logical graph against one
/// logical→physical mapping, kept resident across launches so an
/// unchanged program relaunches without recompiling (the paper's
/// deployments run one compiled schedule thousands of times, §5). One
/// entry of the [`ResidencyManager`]'s bounded cache.
#[derive(Debug)]
pub(crate) struct CompiledCache {
    /// Fingerprint of the logical graph the program was compiled from.
    pub(crate) graph_fp: u64,
    /// Mapping epoch the compile was valid for.
    pub(crate) epoch: u64,
    /// The compiled program.
    pub(crate) program: CompiledProgram,
    /// Present when the cache was filled in [`ExecMode::Datapath`].
    pub(crate) datapath: Option<DatapathArtifact>,
}

/// The runtime: a system plus its spare plan, health state, and the
/// physical-fault model the health monitor observes.
#[derive(Debug)]
pub struct Runtime {
    pub(crate) system: System,
    pub(crate) plan: SparePlan,
    /// Links with a degraded BER (marginal cables, paper §4.5). Injected
    /// by tests/operators; discovered by the health monitor at runtime.
    pub(crate) marginal_links: HashSet<LinkId>,
    /// BER of healthy links.
    pub(crate) base_ber: f64,
    /// BER of marginal links.
    pub(crate) marginal_ber: f64,
    /// Replays to attempt before declaring a fault persistent.
    pub(crate) max_replays: u32,
    /// How launches exercise the fabric.
    pub(crate) mode: ExecMode,
    /// Bumped every time a failover changes the logical→physical mapping;
    /// invalidates [`CompiledCache`] entries from earlier epochs.
    pub(crate) mapping_epoch: u64,
    /// Compiled plans resident across launches, keyed by
    /// `(graph fingerprint, mapping epoch)` under a configurable byte
    /// budget — multi-model streams reuse instead of thrashing.
    pub(crate) residency: ResidencyManager,
    /// The payload-binding executor (datapath mode); chip simulators are
    /// reset, not rebuilt, across attempts and launches.
    pub(crate) executor: crate::cosim::PlanExecutor,
    /// Synthetic payload vectors shared by every datapath artifact this
    /// runtime compiles.
    pub(crate) payload_pool: PayloadPool,
    /// Where launch-lifecycle trace events go. Shared with the executor so
    /// one faulty launch renders as a single timeline: runtime lane events
    /// (compile, replay epochs, blame, failover) interleaved with the
    /// per-chip spans and link flips of each attempt.
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
}

impl Runtime {
    /// Wraps a system with a spare plan.
    pub fn new(system: System, policy: SparePolicy) -> Self {
        let plan = match policy {
            SparePolicy::PerRack => SparePlan::per_rack(system.topology())
                .unwrap_or_else(|_| SparePlan::per_system(system.topology())),
            SparePolicy::PerSystem => SparePlan::per_system(system.topology()),
        };
        Runtime {
            system,
            plan,
            marginal_links: HashSet::new(),
            base_ber: 1e-9,
            marginal_ber: 1e-4,
            max_replays: 2,
            mode: ExecMode::default(),
            mapping_epoch: 0,
            residency: ResidencyManager::new(),
            executor: crate::cosim::PlanExecutor::new(),
            payload_pool: PayloadPool::default(),
            sink: None,
        }
    }

    /// Routes trace events from subsequent launches into `sink` (builder
    /// style).
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.set_trace_sink(sink);
        self
    }

    /// Routes trace events from subsequent launches into `sink`: the
    /// runtime's own lifecycle events plus, in datapath mode, the
    /// executor's per-chip and per-link events of every attempt.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.executor.set_trace_sink(Arc::clone(&sink));
        self.sink = Some(sink);
    }

    /// Detaches the trace sink (tracing back to zero-cost disabled).
    pub fn clear_trace_sink(&mut self) {
        self.sink = None;
        self.executor.clear_trace_sink();
    }

    /// Enables windowed telemetry sampling for subsequent launches
    /// (builder style). See [`Runtime::set_telemetry`].
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.set_telemetry(cfg);
        self
    }

    /// Enables windowed telemetry for subsequent launches: the executor
    /// samples per-link delivery counts and per-chip busy cycles onto
    /// `cfg.window`-cycle windows, and each [`LaunchOutcome`] carries the
    /// resulting [`Telemetry`]. Sampling is observation-only — event
    /// sequences and every other outcome field are bit-identical with
    /// telemetry on or off.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.executor.set_telemetry(cfg);
    }

    /// Disables telemetry sampling (back to the pre-feature single
    /// branch; subsequent outcomes carry `telemetry: None`).
    pub fn clear_telemetry(&mut self) {
        self.executor.clear_telemetry();
    }

    /// The telemetry configuration in effect, if any.
    pub fn telemetry_cfg(&self) -> Option<TelemetryConfig> {
        self.executor.telemetry_cfg()
    }

    /// Selects the execution mode for subsequent launches (builder style).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.set_exec_mode(mode);
        self
    }

    /// Selects the execution mode for subsequent launches.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The execution mode in use.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Overrides the healthy/marginal bit error rates.
    pub fn set_ber(&mut self, base: f64, marginal: f64) {
        self.base_ber = base;
        self.marginal_ber = marginal;
    }

    /// Overrides the replay budget.
    pub fn set_max_replays(&mut self, max_replays: u32) {
        self.max_replays = max_replays;
    }

    /// Marks a physical cable as marginal (the fault the health monitor
    /// will eventually blame and route out).
    pub fn degrade_link(&mut self, link: LinkId) {
        self.marginal_links.insert(link);
    }

    /// Logical devices available to programs.
    pub fn logical_tsps(&self) -> usize {
        self.plan.logical_nodes() * tsm_topology::TSPS_PER_NODE
    }

    /// The current logical→physical device map.
    pub fn physical_tsp(&self, logical: TspId) -> TspId {
        self.plan.physical_tsp(logical)
    }

    /// The spare plan (inspection).
    pub fn spare_plan(&self) -> &SparePlan {
        &self.plan
    }

    /// The underlying system (inspection — e.g. to enumerate physical
    /// links when marking cables marginal).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Caps the estimated bytes the residency layer may keep across
    /// compiled plans (builder style). `u64::MAX` (the default) is
    /// unbounded; `0` keeps only the most recently used plan — the
    /// pre-residency single-entry behavior.
    pub fn with_plan_budget(mut self, budget_bytes: u64) -> Self {
        self.set_plan_budget(budget_bytes);
        self
    }

    /// Caps the residency byte budget, evicting down to it immediately.
    pub fn set_plan_budget(&mut self, budget_bytes: u64) {
        self.residency.set_budget_bytes(budget_bytes);
    }

    /// The residency layer (inspection: resident set, counters, warm
    /// tier export).
    pub fn residency(&self) -> &ResidencyManager {
        &self.residency
    }

    /// The residency layer, mutably (warm-tier import, budget changes).
    pub fn residency_mut(&mut self) -> &mut ResidencyManager {
        &mut self.residency
    }

    /// The per-hop delivery schedule of the current launch's datapath
    /// plan (the residency entry the most recent launch executed from),
    /// in profiler coordinates — the compile-time half of the
    /// plan-vs-actual join performed by [`tsm_trace::profile`].
    ///
    /// `None` until a datapath launch has compiled (statistical mode
    /// carries no delivery manifest). Reflects the *current* topology, so
    /// call it after the launch whose trace you intend to profile.
    pub fn planned_timeline(&self) -> Option<tsm_trace::profile::PlannedTimeline> {
        self.residency
            .current()
            .and_then(|c| c.datapath.as_ref())
            .map(|a| a.plan.planned_timeline(self.system.topology()))
    }

    /// Launches a logical-device program: align, compile against the
    /// current mapping, execute with health monitoring, and recover from
    /// faults by replay and failover.
    ///
    /// Since the staged-pipeline refactor this is a thin compatibility
    /// wrapper over [`LaunchEngine`] — admission → mapping/alignment →
    /// compile-or-reuse → execute → recover, each stage a separately
    /// callable (and separately tested) method. Outcomes are bit-identical
    /// to the pre-refactor monolith.
    pub fn launch(&mut self, logical: &Graph, seed: u64) -> Result<LaunchOutcome, RuntimeError> {
        self.launch_at(logical, seed, 0)
    }

    /// [`Runtime::launch`] with the launch's trace timeline based at cycle
    /// `base` instead of 0. The serving frontend uses this to place each
    /// batch's launch at its dispatch cycle, so a whole serving run renders
    /// as one coherent timeline; with `base == 0` it is exactly `launch`.
    pub fn launch_at(
        &mut self,
        logical: &Graph,
        seed: u64,
        base: u64,
    ) -> Result<LaunchOutcome, RuntimeError> {
        LaunchEngine::new(self, logical, seed).with_base(base).run()
    }

    /// The number of times a failover has changed the logical→physical
    /// mapping over this runtime's lifetime.
    pub fn mapping_epoch(&self) -> u64 {
        self.mapping_epoch
    }

    /// Rewrites a logical-device graph onto the current physical mapping.
    pub(crate) fn remap(&self, logical: &Graph) -> Graph {
        let mut g = Graph::new();
        for node in logical.nodes() {
            let device = self.plan.physical_tsp(node.device);
            let kind = match &node.kind {
                OpKind::Transfer {
                    to,
                    bytes,
                    allow_nonminimal,
                } => OpKind::Transfer {
                    to: self.plan.physical_tsp(*to),
                    bytes: *bytes,
                    allow_nonminimal: *allow_nonminimal,
                },
                other => other.clone(),
            };
            g.add(device, kind, node.deps.clone())
                .expect("logical graph was valid");
        }
        g
    }

    /// Lowers the physical graph's transfers into a [`CompiledPlan`] plus
    /// the synthetic payloads every attempt binds to it, adopting a plan
    /// from the residency layer's warm-start tier when one matches the
    /// lowered shapes (plan compilation is deterministic, so the adopted
    /// plan is bit-identical to what a fresh compile would produce).
    ///
    /// Source vectors live on slice [`DATAPATH_SRC_SLICE`], delivered ones
    /// on [`DATAPATH_DST_SLICE`]; offsets are bump-allocated per chip so
    /// concurrent transfers never overlap. Payload bytes depend only on
    /// the transfer and vector indices — not on the seed, the attempt, or
    /// the mapping — so every run of the same logical graph moves the
    /// same bits, which is what makes "bit-identical to a fault-free run"
    /// a checkable property rather than a tautology. It also lets every
    /// artifact take its payloads as handles from the runtime's
    /// [`PayloadPool`].
    pub(crate) fn compile_datapath(
        &mut self,
        graph_fp: u64,
        physical: &Graph,
    ) -> Result<DatapathArtifact, RuntimeError> {
        let shapes = datapath_shapes(physical)?;
        let plan = match self
            .residency
            .take_warm(graph_fp, self.mapping_epoch, &shapes)
        {
            Some(plan) => plan,
            None => compile_plan(self.system.topology(), &shapes)
                .map_err(|e| RuntimeError::Execution(e.to_string()))?,
        };
        let payloads = shapes
            .iter()
            .enumerate()
            .map(|(t, s)| self.payload_pool.prefix(t, s.vectors))
            .collect();
        Ok(DatapathArtifact { plan, payloads })
    }
}

/// Lowers a physical graph's cross-chip transfers into [`TransferShape`]s
/// with bump-allocated SRAM offsets (see
/// [`Runtime::compile_datapath`]).
fn datapath_shapes(physical: &Graph) -> Result<Vec<TransferShape>, RuntimeError> {
    let mut shapes: Vec<TransferShape> = Vec::new();
    let mut src_next: HashMap<TspId, u32> = HashMap::new();
    let mut dst_next: HashMap<TspId, u32> = HashMap::new();
    for node in physical.nodes() {
        if let OpKind::Transfer { to, bytes, .. } = node.kind {
            if to == node.device {
                // A local SRAM move never crosses the network.
                continue;
            }
            let vectors = bytes.div_ceil(VECTOR_BYTES as u64).max(1);
            let vectors = u32::try_from(vectors)
                .map_err(|_| RuntimeError::Execution("transfer too large".into()))?;
            let src = src_next.entry(node.device).or_insert(0);
            let dst = dst_next.entry(to).or_insert(0);
            let (src_offset, dst_offset) = (*src, *dst);
            // Summed in u64: both bases are at most 2^16, but `vectors`
            // may be close to u32::MAX.
            let fits = |base: u32| u64::from(base) + u64::from(vectors) <= 1 << 16;
            if !fits(src_offset) || !fits(dst_offset) {
                return Err(RuntimeError::Execution(
                    "datapath payloads exceed SRAM slice capacity".into(),
                ));
            }
            *src += vectors;
            *dst += vectors;
            shapes.push(TransferShape {
                from: node.device,
                to,
                src_slice: DATAPATH_SRC_SLICE,
                src_offset: src_offset as u16,
                dst_slice: DATAPATH_DST_SLICE,
                dst_offset: dst_offset as u16,
                vectors,
            });
        }
    }
    Ok(shapes)
}

/// Trace-timeline gap rendered between consecutive attempt windows so
/// adjacent replay epochs don't visually abut in Perfetto. Purely
/// presentational: no simulated quantity depends on it.
pub(crate) const EPOCH_GAP_CYCLES: u64 = 64;

/// SRAM slice holding datapath source vectors.
const DATAPATH_SRC_SLICE: u8 = 0;
/// SRAM slice receiving datapath delivered vectors.
const DATAPATH_DST_SLICE: u8 = 1;

/// The deterministic payload for vector `v` of transfer `t`.
fn synthetic_vector(t: u32, v: u32) -> Vector {
    Vector::from_fn(|b| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [t as u64, v as u64, b as u64] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
        (h >> 32) as u8
    })
}

/// Word-combining mix for deriving per-attempt fault seeds.
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    (0xcbf2_9ce4_8422_2325u64 ^ a)
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(b)
        .wrapping_mul(0x100_0000_01b3)
}

/// Deterministic structural fingerprint of a logical graph.
///
/// Every node field is folded in as a separate word with the FNV-1a
/// pattern (`Vector::digest` uses the same constants), with a tag word
/// per op kind and an explicit dependency count. The previous
/// implementation hashed `format!("{node:?}")`, which had no field
/// separators inside a node — adjacent integer fields could collide
/// (`cycles: 12, …1` vs `cycles: 1, …21` shapes) — and silently changed
/// meaning whenever any `Debug` impl changed, aliasing or invalidating
/// compile caches across builds.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let word = |h: &mut u64, w: u64| *h = (*h ^ w).wrapping_mul(PRIME);
    for node in g.nodes() {
        word(&mut h, node.device.0 as u64);
        match &node.kind {
            OpKind::Gemm { shape, ty } => {
                word(&mut h, 1);
                word(&mut h, shape.m);
                word(&mut h, shape.n);
                word(&mut h, shape.l);
                word(&mut h, *ty as u64);
            }
            OpKind::Compute { cycles } => {
                word(&mut h, 2);
                word(&mut h, *cycles);
            }
            OpKind::Transfer {
                to,
                bytes,
                allow_nonminimal,
            } => {
                word(&mut h, 3);
                word(&mut h, to.0 as u64);
                word(&mut h, *bytes);
                word(&mut h, *allow_nonminimal as u64);
            }
            OpKind::HostInput { bytes } => {
                word(&mut h, 4);
                word(&mut h, *bytes);
            }
            OpKind::HostOutput { bytes } => {
                word(&mut h, 5);
                word(&mut h, *bytes);
            }
        }
        word(&mut h, node.deps.len() as u64);
        for d in &node.deps {
            word(&mut h, d.0 as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A logical pipeline spanning the first two logical nodes.
    fn logical_pipeline() -> Graph {
        let mut g = Graph::new();
        let a = g
            .add(TspId(0), OpKind::Compute { cycles: 10_000 }, vec![])
            .unwrap();
        let t = g
            .add(
                TspId(0),
                OpKind::Transfer {
                    to: TspId(8),
                    bytes: 640_000,
                    allow_nonminimal: true,
                },
                vec![a],
            )
            .unwrap();
        g.add(TspId(8), OpKind::Compute { cycles: 10_000 }, vec![t])
            .unwrap();
        g
    }

    fn runtime() -> Runtime {
        Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
    }

    #[test]
    fn healthy_launch_is_one_attempt() {
        let mut rt = runtime();
        let out = rt.launch(&logical_pipeline(), 1).unwrap();
        assert_eq!(out.attempts(), 1);
        assert!(out.failovers.is_empty());
        assert!(out.alignment_cycles > 0);
        assert!(out.fec().is_clean_run());
        // a cold launch performs exactly one compile
        assert_eq!((out.compiles(), out.reuses()), (1, 0));
    }

    /// Compile-once / execute-many at the launch level: relaunching an
    /// unchanged graph on an unchanged mapping performs zero compiles.
    #[test]
    fn relaunching_unchanged_graph_reuses_compiled_program() {
        let mut rt = runtime();
        let g = logical_pipeline();
        let cold = rt.launch(&g, 1).unwrap();
        assert_eq!((cold.compiles(), cold.reuses()), (1, 0));
        for seed in 2..6 {
            let warm = rt.launch(&g, seed).unwrap();
            assert_eq!((warm.compiles(), warm.reuses()), (0, 1), "seed {seed}");
            assert_eq!(warm.span_cycles, cold.span_cycles);
        }
        // a different graph misses the cache
        let mut other = Graph::new();
        other
            .add(TspId(0), OpKind::Compute { cycles: 5_000 }, vec![])
            .unwrap();
        let out = rt.launch(&other, 7).unwrap();
        assert_eq!((out.compiles(), out.reuses()), (1, 0));
    }

    #[test]
    fn marginal_cable_triggers_failover_and_recovery() {
        let mut rt = runtime();
        // Degrade every cable touching logical node 1's physical node: the
        // transfer to TSP 8 will keep hitting uncorrectable errors until
        // the runtime blames node 1 and remaps it onto the spare.
        let victim = NodeId(1);
        let bad_links: Vec<LinkId> = rt
            .system
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a.node() == victim || l.b.node() == victim)
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        for l in bad_links {
            rt.degrade_link(l);
        }
        let out = rt.launch(&logical_pipeline(), 2).unwrap();
        assert_eq!(out.failovers, vec![victim]);
        assert!(out.attempts() > 1, "must have replayed before failing over");
        // logical TSP 8 now lives on the spare node
        assert_eq!(rt.physical_tsp(TspId(8)).node(), NodeId(3));
        assert!(out.fec().is_clean_run());
        // the health monitor saw the uncorrectable packets of the aborted
        // attempts even though the final run was clean
        assert!(out.fec_total().uncorrectable > 0);
        // each failover forces exactly one recompile against the new map
        assert_eq!(out.compiles(), out.failovers.len() as u32 + 1);
        assert_eq!(rt.mapping_epoch(), 1);
        // and the post-failover compile is itself cached for relaunch
        let warm = rt.launch(&logical_pipeline(), 4).unwrap();
        assert_eq!((warm.compiles(), warm.reuses()), (0, 1));
    }

    #[test]
    fn unrecoverable_fault_reports_out_of_spares() {
        let mut rt = runtime();
        // Degrade everything: no failover can escape.
        let all: Vec<LinkId> = (0..rt.system.topology().links().len())
            .map(|i| LinkId(i as u32))
            .collect();
        for l in all {
            rt.degrade_link(l);
        }
        let err = rt.launch(&logical_pipeline(), 3).unwrap_err();
        assert!(matches!(err, RuntimeError::OutOfSpares { .. }));
    }

    #[test]
    fn launches_are_seed_deterministic() {
        let run = |seed| {
            let mut rt = runtime();
            let out = rt.launch(&logical_pipeline(), seed).unwrap();
            (out.attempts(), out.span_cycles)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn logical_capacity_excludes_spares() {
        let rt = runtime();
        assert_eq!(rt.logical_tsps(), 24); // 3 logical nodes of 4 physical
    }

    /// The per-rack policy on a sub-rack topology falls back to the
    /// per-system plan instead of silently reserving zero spares.
    #[test]
    fn per_rack_on_small_topology_falls_back_to_per_system() {
        let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerRack);
        assert_eq!(rt.spare_plan().spares_left(), 1);
        assert_eq!(rt.logical_tsps(), 24);
    }

    /// Datapath mode on a healthy fabric: real payloads stream through the
    /// compiled plan, every packet tallies clean, and the destination
    /// digests are recorded.
    #[test]
    fn datapath_launch_on_healthy_fabric_is_clean() {
        let mut rt = runtime().with_exec_mode(ExecMode::Datapath);
        rt.set_ber(0.0, 0.0);
        let out = rt.launch(&logical_pipeline(), 1).unwrap();
        assert_eq!(out.attempts(), 1);
        assert!(out.fec().is_clean_run());
        assert!(out.fec().clean > 0, "packets actually moved");
        assert_eq!(out.dst_digests.len(), 1);
        // relaunching reuses both the program and the datapath plan
        let warm = rt.launch(&logical_pipeline(), 2).unwrap();
        assert_eq!((warm.compiles(), warm.reuses()), (0, 1));
        assert_eq!(warm.dst_digests, out.dst_digests);
    }

    /// A transfer whose SRAM region would run past the slice, placed after
    /// another from the same chip, is refused with an error: the offset
    /// bump must not overflow on the way to the capacity check.
    #[test]
    fn oversized_datapath_transfer_is_an_error_not_a_panic() {
        let mut g = Graph::new();
        let first = g
            .add(
                TspId(0),
                OpKind::Transfer {
                    to: TspId(1),
                    bytes: 10 * VECTOR_BYTES as u64,
                    allow_nonminimal: false,
                },
                vec![],
            )
            .unwrap();
        g.add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(2),
                bytes: u64::from(u32::MAX - 5) * VECTOR_BYTES as u64,
                allow_nonminimal: false,
            },
            vec![first],
        )
        .unwrap();
        let mut rt = Runtime::new(System::with_nodes(2).unwrap(), SparePolicy::PerSystem)
            .with_exec_mode(ExecMode::Datapath);
        match rt.launch(&g, 1) {
            Err(RuntimeError::Execution(msg)) => {
                assert_eq!(msg, "datapath payloads exceed SRAM slice capacity")
            }
            other => panic!("expected a capacity error, got {other:?}"),
        }
    }

    /// BERT at smoke scale, 4 encoders over 64-token sequences, on a
    /// 4-stage pipeline.
    fn bert(batch: u64) -> Graph {
        tsm_workloads::BertConfig {
            batch,
            seq: 64,
            ..tsm_workloads::BertConfig::with_encoders(4)
        }
        .build_pipeline_graph(4)
    }

    /// Warming one runtime at several batch sizes synthesizes each
    /// `(transfer, vector)` payload once: the pool ends holding exactly
    /// the longest length launched per transfer index, and every resident
    /// entry binds the very handles an earlier entry bound.
    #[test]
    fn payload_pool_synthesizes_each_vector_once() {
        let mut rt = runtime().with_exec_mode(ExecMode::Datapath);
        let mut longest: Vec<usize> = Vec::new();
        let mut earlier: Vec<Vec<Payload>> = Vec::new();
        for batch in [2, 1, 3] {
            rt.launch(&bert(batch), 1).unwrap();
            let bound = &rt
                .residency
                .current()
                .and_then(|c| c.datapath.as_ref())
                .expect("a datapath launch leaves a datapath entry")
                .payloads;
            longest.resize(longest.len().max(bound.len()), 0);
            for (t, vectors) in bound.iter().enumerate() {
                longest[t] = longest[t].max(vectors.len());
                for (v, handle) in vectors.iter().enumerate() {
                    if let Some(old) = earlier.get(t).and_then(|e| e.get(v)) {
                        assert!(Arc::ptr_eq(old, handle), "batch {batch}: ({t}, {v})");
                    }
                }
            }
            if earlier.is_empty() {
                earlier = bound.clone();
            }
        }
        assert_eq!(longest.len(), 3, "three stage-to-stage transfers");
        assert!(longest[0] > earlier[0].len(), "batch 3 grew the pool");
        assert_eq!(rt.payload_pool.len(), longest.iter().sum::<usize>());
    }

    #[test]
    fn structural_fingerprint_separates_adjacent_fields() {
        // Same Debug-string "digit stream" shifted across field
        // boundaries: the structural hash must separate them.
        let mut a = Graph::new();
        a.add(TspId(0), OpKind::Compute { cycles: 12 }, vec![])
            .unwrap();
        a.add(TspId(0), OpKind::Compute { cycles: 1 }, vec![])
            .unwrap();
        let mut b = Graph::new();
        b.add(TspId(0), OpKind::Compute { cycles: 1 }, vec![])
            .unwrap();
        b.add(TspId(0), OpKind::Compute { cycles: 21 }, vec![])
            .unwrap();
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn structural_fingerprint_is_sensitive_to_every_field() {
        let base = || {
            let mut g = Graph::new();
            let a = g
                .add(TspId(0), OpKind::Compute { cycles: 100 }, vec![])
                .unwrap();
            g.add(
                TspId(1),
                OpKind::Transfer {
                    to: TspId(2),
                    bytes: 320,
                    allow_nonminimal: false,
                },
                vec![a],
            )
            .unwrap();
            g
        };
        let fp = graph_fingerprint(&base());

        let mut g = base();
        g.add(TspId(0), OpKind::HostInput { bytes: 320 }, vec![])
            .unwrap();
        assert_ne!(graph_fingerprint(&g), fp, "extra node");

        let mut g = Graph::new();
        let a = g
            .add(TspId(0), OpKind::Compute { cycles: 100 }, vec![])
            .unwrap();
        g.add(
            TspId(1),
            OpKind::Transfer {
                to: TspId(2),
                bytes: 320,
                allow_nonminimal: true, // flipped
            },
            vec![a],
        )
        .unwrap();
        assert_ne!(graph_fingerprint(&g), fp, "flag flip");

        let mut g = Graph::new();
        let a = g
            .add(TspId(0), OpKind::Compute { cycles: 100 }, vec![])
            .unwrap();
        g.add(
            TspId(1),
            OpKind::Transfer {
                to: TspId(3), // different destination
                bytes: 320,
                allow_nonminimal: false,
            },
            vec![a],
        )
        .unwrap();
        assert_ne!(graph_fingerprint(&g), fp, "destination");

        // and it is stable for identical graphs
        assert_eq!(graph_fingerprint(&base()), fp);
    }
}
