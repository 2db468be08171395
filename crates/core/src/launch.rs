//! The staged launch pipeline behind [`Runtime::launch`].
//!
//! [`LaunchEngine`] runs a launch — alignment, cache lookup, compile,
//! execute, blame, failover and replay — as explicit stages, each a
//! separately callable (and separately testable) method with typed
//! inputs and outputs:
//!
//! ```text
//! admit ─ begin(align) ─┬─ compile_or_reuse ── execute ──ok──▶ finish
//!                       └──────── recover ◀──persistent──┘
//! ```
//!
//! [`LaunchEngine::run`] drives the stages end to end; [`Runtime::launch`]
//! delegates to it, and so does the serving frontend for every batch (the
//! `serve_identity` suite pins the two to the same outcome). The engine
//! accepts a base cycle ([`LaunchEngine::with_base`]), so the serving
//! frontend can place each batch's launch at its dispatch cycle on one
//! shared trace timeline, and a telemetry window
//! ([`LaunchEngine::with_telemetry`]), so the launch's heatmaps are a fold
//! of the trace its executor emits, owned by the launch.

use crate::cosim::{CosimError, ExecArgs, LinkFaultModel};
use crate::runtime::{
    graph_fingerprint, mix64, CompiledCache, ExecMode, LaunchOutcome, Runtime, RuntimeError,
    EPOCH_GAP_CYCLES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_compiler::schedule::CompileOptions;
use tsm_fault::inject::{inject_schedule_with, FecStats};
use tsm_fault::spare::SpareError;
use tsm_link::Channel;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::telemetry::{TelemetryConfig, TelemetrySink};
use tsm_trace::{names, EventKind, Metrics, RunMetrics, TraceSink, Tracer, RUNTIME_LANE};

/// Output of the admission stage: the launch is structurally runnable on
/// this runtime's logical device space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Structural fingerprint of the admitted logical graph — the compile
    /// cache key together with the mapping epoch.
    pub graph_fp: u64,
    /// Logical devices the runtime exposes.
    pub logical_tsps: usize,
}

/// Output of the mapping/alignment stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentWindow {
    /// One-time hardware-alignment overhead paid before epoch 0, in
    /// cycles (paper §3.2).
    pub alignment_cycles: u64,
}

/// Output of the compile-or-reuse stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileDecision {
    /// True when a cached compile was reused outright.
    pub reused: bool,
    /// Mapping epoch the (cached or fresh) compile is valid for.
    pub epoch: u64,
    /// Compiled span of the program, in cycles.
    pub span_cycles: u64,
}

/// Successful output of the execute stage: one replay episode converged.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSuccess {
    /// FEC tally of the successful attempt.
    pub fec: FecStats,
    /// Destination-SRAM digests (datapath mode; empty in statistical).
    pub dst_digests: Vec<u64>,
    /// Compiled span of the executed program.
    pub span_cycles: u64,
}

/// Failure of the execute stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecuteFailure {
    /// The fault persisted through the replay budget; the listed links
    /// were implicated. Feed them to [`LaunchEngine::recover`].
    Persistent(Vec<LinkId>),
    /// A non-fault engine error (lowering bug, capacity limit): replaying
    /// cannot help, surface it directly.
    Fatal(RuntimeError),
}

/// What the recover stage did: one node failed over to a spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The node the blame vote elected and replaced.
    pub node: NodeId,
    /// Endpoint votes the elected node received.
    pub votes: u32,
    /// Mapping epoch after the failover.
    pub epoch: u64,
}

/// The staged launch pipeline. Construct with [`LaunchEngine::new`], then
/// either call [`LaunchEngine::run`] (what [`Runtime::launch`] does) or
/// drive the stages individually.
#[derive(Debug)]
pub struct LaunchEngine<'rt, 'g> {
    rt: &'rt mut Runtime,
    logical: &'g Graph,
    seed: u64,
    graph_fp: u64,
    /// Base cycle of the launch on the trace timeline.
    base: u64,
    /// Virtual clock, absolute (starts at `base`).
    clock: u64,
    alignment_cycles: u64,
    /// Statistical-mode fault RNG; state persists across attempts *and*
    /// failover episodes.
    rng: StdRng,
    attempts: u32,
    failovers: Vec<NodeId>,
    /// Runtime-lane tallies of this launch.
    metrics: Metrics,
    /// Per-attempt executor snapshots absorbed across the launch.
    attempt_metrics: RunMetrics,
    /// This launch's heatmap fold, when telemetry is on: the executor
    /// traces into it on every attempt, and it forwards to the runtime's
    /// sink.
    telemetry: Option<Arc<TelemetrySink>>,
}

impl<'rt, 'g> LaunchEngine<'rt, 'g> {
    /// Binds a launch of `logical` with `seed` to `rt`. No stage has run
    /// yet.
    pub fn new(rt: &'rt mut Runtime, logical: &'g Graph, seed: u64) -> Self {
        let graph_fp = graph_fingerprint(logical);
        LaunchEngine {
            rt,
            logical,
            seed,
            graph_fp,
            base: 0,
            clock: 0,
            alignment_cycles: 0,
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
            failovers: Vec::new(),
            metrics: Metrics::default(),
            attempt_metrics: RunMetrics::default(),
            telemetry: None,
        }
    }

    /// Bases the launch's trace timeline at `base` instead of cycle 0
    /// (builder style). Does not change any outcome field except that
    /// every traced event shifts by `base`.
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = base;
        self.clock = base;
        self
    }

    /// Folds the launch's link and chip heatmaps on `cfg`'s window into
    /// [`LaunchOutcome::telemetry`] (builder style); `None` leaves
    /// telemetry off. The fold reads the events the executor emits on
    /// every attempt, aborted ones included, before the runtime's sink
    /// sees them, so a lossy sink still yields complete heatmaps. It
    /// changes no other outcome field and no event.
    pub fn with_telemetry(mut self, cfg: Option<TelemetryConfig>) -> Self {
        self.telemetry = cfg.map(|cfg| Arc::new(TelemetrySink::new(cfg, self.rt.sink.clone())));
        self
    }

    /// The engine's virtual clock, absolute on the trace timeline.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// **Stage: admission.** Checks the runtime's bit error rates and the
    /// logical graph against the runtime's logical device space: every
    /// device the program names — including transfer destinations — must
    /// be a logical TSP. A rate no link channel accepts, or a program
    /// naming physical spares, is rejected here with a typed error instead
    /// of failing deep inside remap, compile or fault injection.
    pub fn admit(&self) -> Result<Admission, RuntimeError> {
        for (rate, ber) in [
            ("base", self.rt.base_ber),
            ("marginal", self.rt.marginal_ber),
        ] {
            if !Channel::valid_ber(ber) {
                return Err(RuntimeError::BitErrorRate { rate, ber });
            }
        }
        let logical_tsps = self.rt.logical_tsps();
        let check = |t: TspId| {
            if (t.0 as usize) < logical_tsps {
                Ok(())
            } else {
                Err(RuntimeError::Compile(format!(
                    "admission: device {} outside logical capacity {logical_tsps}",
                    t.0
                )))
            }
        };
        for node in self.logical.nodes() {
            check(node.device)?;
            if let OpKind::Transfer { to, .. } = node.kind {
                check(to)?;
            }
        }
        Ok(Admission {
            graph_fp: self.graph_fp,
            logical_tsps,
        })
    }

    /// **Stage: mapping/alignment.** Opens the launch on the trace
    /// timeline and pays the one-time hardware-alignment window (paper
    /// §3.2) before epoch 0.
    pub fn begin(&mut self, tracer: &mut Tracer<'_>) -> AlignmentWindow {
        self.alignment_cycles = self.rt.system.plan_alignment().overhead_cycles;
        tracer.instant(
            self.clock,
            RUNTIME_LANE,
            EventKind::LaunchBegin {
                graph_fp: self.graph_fp,
            },
        );
        if self.alignment_cycles > 0 {
            tracer.span(
                self.clock,
                self.alignment_cycles,
                RUNTIME_LANE,
                EventKind::Align,
            );
            self.clock += self.alignment_cycles;
        }
        AlignmentWindow {
            alignment_cycles: self.alignment_cycles,
        }
    }

    /// **Stage: compile-or-reuse.** Asks the residency layer for the
    /// `(graph fingerprint, mapping epoch)` entry; a relaunch of an
    /// unchanged program reuses the resident artifact outright, and any
    /// resident model — not just the last one launched — hits, so
    /// multi-model streams stop thrashing. Compiles only when no entry is
    /// resident (or the resident entry lacks the datapath artifacts this
    /// mode needs); a datapath plan then comes from `compile_plan`, the
    /// only source of plans.
    pub fn compile_or_reuse(
        &mut self,
        tracer: &mut Tracer<'_>,
    ) -> Result<CompileDecision, RuntimeError> {
        let rt = &mut *self.rt;
        let need_datapath = rt.mode == ExecMode::Datapath;
        let cache_current = rt
            .residency
            .touch(self.graph_fp, rt.mapping_epoch, need_datapath);
        if cache_current {
            self.metrics.inc(names::RT_REUSES, 1);
            tracer.instant(
                self.clock,
                RUNTIME_LANE,
                EventKind::Reuse {
                    epoch: rt.mapping_epoch,
                },
            );
        } else {
            let physical = rt.remap(self.logical);
            let program = rt
                .system
                .compile(&physical, CompileOptions::default())
                .map_err(|e| RuntimeError::Compile(e.to_string()))?;
            let datapath = match rt.mode {
                ExecMode::Statistical => None,
                ExecMode::Datapath => Some(rt.compile_datapath(&physical)?),
            };
            self.metrics.inc(names::RT_COMPILES, 1);
            tracer.instant(
                self.clock,
                RUNTIME_LANE,
                EventKind::Compile {
                    epoch: rt.mapping_epoch,
                },
            );
            rt.residency.insert(CompiledCache {
                graph_fp: self.graph_fp,
                epoch: rt.mapping_epoch,
                program,
                datapath,
            });
        }
        let cache = rt.residency.current().expect("inserted or touched above");
        Ok(CompileDecision {
            reused: cache_current,
            epoch: cache.epoch,
            span_cycles: cache.program.span_cycles,
        })
    }

    /// **Stage: execute.** Runs one replay episode — up to
    /// `1 + max_replays` attempts — against the current hardware mapping,
    /// in the runtime's [`ExecMode`]. Success carries the final FEC tally
    /// and (datapath) SRAM digests; a persistent fault carries the
    /// implicated links for [`LaunchEngine::recover`].
    pub fn execute(&mut self, tracer: &mut Tracer<'_>) -> Result<AttemptSuccess, ExecuteFailure> {
        let rt = &mut *self.rt;
        let cache = rt.residency.current().expect("compile_or_reuse runs first");
        let span_cycles = cache.program.span_cycles;
        // Trace-timeline width of one attempt's window.
        let window = span_cycles.max(1) + EPOCH_GAP_CYCLES;
        let mut faults = LinkFaultModel {
            base_ber: rt.base_ber,
            per_link: rt
                .marginal_links
                .iter()
                .map(|&l| (l, rt.marginal_ber))
                .collect(),
            ..LinkFaultModel::default()
        };
        // The executor traces into this launch's heatmap fold, which
        // forwards to the runtime's sink, or straight into that sink.
        let exec_sink: Option<&dyn TraceSink> = match &self.telemetry {
            Some(fold) => Some(fold.as_ref()),
            None => rt.sink.as_deref(),
        };
        // Both modes blame from the attempts' lost links, each by its own
        // rule: statistical keeps the last attempt's deduplicated links,
        // datapath every lost delivery's link over all attempts. The vote
        // in `recover`, and with it serve-churn's failovers and its pinned
        // digest, depends on both rules.
        let mut culprit_links: Vec<LinkId> = Vec::new();
        for _ in 0..=rt.max_replays {
            self.attempts += 1;
            self.metrics.inc(names::RT_ATTEMPTS, 1);
            if self.attempts > 1 {
                self.metrics.inc(names::RT_REPLAYS, 1);
            }
            tracer.span(
                self.clock,
                span_cycles.max(1),
                RUNTIME_LANE,
                EventKind::ReplayEpoch {
                    attempt: self.attempts - 1,
                },
            );
            let start = self.clock;
            self.clock += window;
            match rt.mode {
                ExecMode::Statistical => {
                    let (stats, culprits) = inject_schedule_with(
                        rt.system.topology(),
                        cache.program.occupancy.reservations(),
                        |l| faults.ber_for(l),
                        &mut self.rng,
                    );
                    stats.record_into(&self.metrics);
                    if stats.is_clean_run() {
                        return Ok(AttemptSuccess {
                            fec: stats,
                            dst_digests: Vec::new(),
                            span_cycles,
                        });
                    }
                    culprit_links = culprits;
                }
                ExecMode::Datapath => {
                    let art = cache
                        .datapath
                        .as_ref()
                        .expect("datapath artifacts compiled above");
                    // Each attempt corrupts independently; the flip pattern
                    // is a pure function of (launch seed, attempt, link,
                    // vector). Its events land inside its window on the
                    // launch timeline.
                    faults.seed = mix64(self.seed, self.attempts as u64);
                    let attempt = ExecArgs {
                        faults: Some(&faults),
                        sink: exec_sink,
                        trace_offset: start,
                        ..ExecArgs::default()
                    };
                    match rt.executor.execute_with(&art.plan, &art.payloads, attempt) {
                        Ok(report) => {
                            self.attempt_metrics.absorb(&report.metrics);
                            return Ok(AttemptSuccess {
                                fec: report.fec(),
                                dst_digests: report.dst_digests,
                                span_cycles,
                            });
                        }
                        Err(CosimError::Uncorrectable { fec, culprits, .. }) => {
                            fec.record_into(&self.metrics);
                            culprit_links.extend(culprits);
                        }
                        Err(e) => {
                            return Err(ExecuteFailure::Fatal(RuntimeError::Execution(
                                e.to_string(),
                            )))
                        }
                    }
                }
            }
        }
        Err(ExecuteFailure::Persistent(culprit_links))
    }

    /// **Stage: recover.** The health monitor's blame vote (paper §4.5):
    /// every culprit link implicates both its endpoint nodes, and the
    /// most implicated *replaceable* node is swapped for a spare
    /// ("replace a marginal cable … or TSP card" — at runtime
    /// granularity, the node). The failover bumps the mapping epoch, so
    /// the next [`LaunchEngine::compile_or_reuse`] recompiles.
    ///
    /// Distinguishes two failure shapes: spares genuinely exhausted
    /// ([`RuntimeError::OutOfSpares`]) vs. blame landing only on nodes
    /// outside the logical mapping (spares, already-failed nodes) —
    /// the latter is [`RuntimeError::BlameFailed`], so operators don't
    /// burn healthy spares chasing it.
    pub fn recover(
        &mut self,
        culprit_links: &[LinkId],
        tracer: &mut Tracer<'_>,
    ) -> Result<Recovery, RuntimeError> {
        let rt = &mut *self.rt;
        let mut votes: HashMap<NodeId, usize> = HashMap::new();
        for &l in culprit_links {
            let link = rt.system.topology().link(l);
            *votes.entry(link.a.node()).or_insert(0) += 1;
            *votes.entry(link.b.node()).or_insert(0) += 1;
        }
        let mut candidates: Vec<(NodeId, usize)> = votes.into_iter().collect();
        candidates.sort_by_key(|&(n, count)| (std::cmp::Reverse(count), n));
        for (blame, count) in candidates {
            match rt.plan.fail_over(rt.system.topology_mut(), blame) {
                Ok(_) => {
                    self.failovers.push(blame);
                    // The logical→physical mapping changed: every
                    // resident compile is stale from here on.
                    rt.mapping_epoch += 1;
                    rt.residency.drop_stale(rt.mapping_epoch);
                    // One blame event and one failover event per executed
                    // failover — the candidates that were skipped above
                    // never changed anything, so they don't trace.
                    self.metrics.inc(names::RT_BLAME_VOTES, 1);
                    self.metrics.inc(names::RT_FAILOVERS, 1);
                    tracer.instant(
                        self.clock,
                        RUNTIME_LANE,
                        EventKind::BlameVote {
                            node: blame.0,
                            votes: count as u32,
                        },
                    );
                    tracer.instant(
                        self.clock,
                        RUNTIME_LANE,
                        EventKind::Failover {
                            node: blame.0,
                            epoch: rt.mapping_epoch,
                        },
                    );
                    return Ok(Recovery {
                        node: blame,
                        votes: count as u32,
                        epoch: rt.mapping_epoch,
                    });
                }
                // The spare pool is shared: once empty for one candidate,
                // it is empty for all.
                Err(SpareError::NoSpareAvailable) => {
                    return Err(RuntimeError::OutOfSpares {
                        nodes_failed: self.failovers.len(),
                    })
                }
                // This candidate is not a mapped node (a spare's own
                // cables, or an already-failed node): try the next.
                Err(_) => continue,
            }
        }
        // No candidate was replaceable. If spares remain, replacing one
        // would not clear the fault — report the blame failure itself.
        if rt.plan.spares_left() == 0 {
            Err(RuntimeError::OutOfSpares {
                nodes_failed: self.failovers.len(),
            })
        } else {
            Err(RuntimeError::BlameFailed {
                spares_left: rt.plan.spares_left(),
                culprits: culprit_links.to_vec(),
            })
        }
    }

    /// Closes the launch: records the final-attempt FEC tally, traces
    /// `LaunchEnd`, folds every stage's metrics into the outcome, and
    /// seals the launch's heatmaps into [`LaunchOutcome::telemetry`].
    pub fn finish(self, success: AttemptSuccess, tracer: &mut Tracer<'_>) -> LaunchOutcome {
        self.metrics.inc(names::FINAL_CLEAN, success.fec.clean);
        self.metrics
            .inc(names::FINAL_CORRECTED, success.fec.corrected);
        self.metrics
            .inc(names::FINAL_UNCORRECTABLE, success.fec.uncorrectable);
        tracer.instant(
            self.clock,
            RUNTIME_LANE,
            EventKind::LaunchEnd {
                attempts: self.attempts,
            },
        );
        let mut all = self.attempt_metrics;
        all.absorb(&self.metrics.snapshot());
        let telemetry = self.telemetry.map(|fold| fold.seal());
        LaunchOutcome {
            metrics: all,
            failovers: self.failovers,
            alignment_cycles: self.alignment_cycles,
            span_cycles: success.span_cycles,
            dst_digests: success.dst_digests,
            timeline_cycles: self.clock - self.base,
            telemetry,
        }
    }

    /// Drives the stages end to end: admission, alignment, then compile →
    /// execute, recovering from persistent faults until the launch
    /// converges or recovery fails.
    pub fn run(mut self) -> Result<LaunchOutcome, RuntimeError> {
        // The launch timeline is virtual simulated time: the alignment
        // window first, then one window of `span_cycles` (plus a fixed
        // presentation gap) per attempt. Each attempt's execute is offset
        // to its window so a replay's chip spans land after the
        // aborted attempt's — one faulty launch reads left-to-right as
        // flip → blame → failover → recompile → bit-identical replay.
        let sink = self.rt.sink.clone();
        let mut tracer = Tracer::new(sink.as_deref());
        self.admit()?;
        self.begin(&mut tracer);
        loop {
            self.compile_or_reuse(&mut tracer)?;
            match self.execute(&mut tracer) {
                Ok(success) => return Ok(self.finish(success, &mut tracer)),
                Err(ExecuteFailure::Fatal(e)) => return Err(e),
                Err(ExecuteFailure::Persistent(culprits)) => {
                    // Persistent fault: vote, fail over, recompile, replay.
                    self.recover(&culprits, &mut tracer)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SparePolicy;
    use crate::system::System;

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
    fn admission_rejects_devices_outside_logical_capacity() {
        let mut rt = runtime();
        assert_eq!(rt.logical_tsps(), 24);
        let mut g = Graph::new();
        g.add(TspId(24), OpKind::Compute { cycles: 100 }, vec![])
            .unwrap();
        let engine = LaunchEngine::new(&mut rt, &g, 0);
        let err = engine.admit().unwrap_err();
        assert!(matches!(err, RuntimeError::Compile(ref m) if m.contains("admission")));
        // and the full run path reports the same error
        let err = rt.launch(&g, 0).unwrap_err();
        assert!(matches!(err, RuntimeError::Compile(ref m) if m.contains("admission")));
    }

    #[test]
    fn admission_checks_transfer_destinations_too() {
        let mut rt = runtime();
        let mut g = Graph::new();
        g.add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(999),
                bytes: 320,
                allow_nonminimal: false,
            },
            vec![],
        )
        .unwrap();
        assert!(LaunchEngine::new(&mut rt, &g, 0).admit().is_err());
    }

    #[test]
    fn stages_run_individually_and_agree_with_launch() {
        let g = logical_pipeline();
        // Staged, by hand.
        let mut rt = runtime();
        let mut tracer = Tracer::new(None);
        let mut engine = LaunchEngine::new(&mut rt, &g, 7);
        let admission = engine.admit().unwrap();
        assert_eq!(admission.graph_fp, graph_fingerprint(&g));
        let align = engine.begin(&mut tracer);
        assert!(align.alignment_cycles > 0);
        let compiled = engine.compile_or_reuse(&mut tracer).unwrap();
        assert!(!compiled.reused);
        assert!(compiled.span_cycles > 0);
        let success = engine.execute(&mut tracer).unwrap();
        assert!(success.fec.is_clean_run());
        let staged = engine.finish(success, &mut tracer);
        // The same launch through `Runtime::launch`.
        let mut rt2 = runtime();
        let wrapped = rt2.launch(&g, 7).unwrap();
        assert_eq!(staged, wrapped);
    }

    #[test]
    fn second_compile_or_reuse_hits_the_cache() {
        let mut rt = runtime();
        let g = logical_pipeline();
        rt.launch(&g, 1).unwrap();
        let mut tracer = Tracer::new(None);
        let mut engine = LaunchEngine::new(&mut rt, &g, 2);
        let decision = engine.compile_or_reuse(&mut tracer).unwrap();
        assert!(decision.reused);
        assert_eq!(decision.epoch, 0);
    }

    /// Blame voting that lands only on unmapped nodes (here: the spare's
    /// own intra-node cables) is a distinct failure from spare
    /// exhaustion: spares remain, and swapping one would not clear the
    /// fault.
    #[test]
    fn blame_failure_with_spares_left_is_not_out_of_spares() {
        let mut rt = runtime();
        // Links internal to node 3 — the per-system spare, which is not in
        // the logical mapping.
        let spare_links: Vec<LinkId> = rt
            .system()
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a.node() == NodeId(3) && l.b.node() == NodeId(3))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        assert!(!spare_links.is_empty());
        let g = logical_pipeline();
        let mut tracer = Tracer::new(None);
        let mut engine = LaunchEngine::new(&mut rt, &g, 0);
        let err = engine.recover(&spare_links, &mut tracer).unwrap_err();
        match err {
            RuntimeError::BlameFailed {
                spares_left,
                culprits,
            } => {
                assert_eq!(spares_left, 1);
                assert_eq!(culprits, spare_links);
            }
            other => panic!("expected BlameFailed, got {other:?}"),
        }
        // the spare was NOT consumed by the failed blame
        assert_eq!(rt.spare_plan().spares_left(), 1);
    }

    /// `launch_at` shifts every traced event by the base cycle and changes
    /// nothing else about the outcome.
    #[test]
    fn launch_at_base_shifts_trace_and_preserves_outcome() {
        use std::sync::Arc;
        use tsm_trace::RingSink;
        let g = logical_pipeline();
        let run = |base: u64| {
            let sink = Arc::new(RingSink::new(1 << 14));
            let mut rt = runtime();
            rt.set_trace_sink(sink.clone());
            let out = rt.launch_at(&g, 5, base).unwrap();
            (out, sink.sorted_events())
        };
        let (at_zero, ev_zero) = run(0);
        let (at_base, ev_base) = run(10_000);
        assert_eq!(at_zero, at_base);
        assert_eq!(ev_zero.len(), ev_base.len());
        for (a, b) in ev_zero.iter().zip(ev_base.iter()) {
            assert_eq!(a.cycle + 10_000, b.cycle);
            assert_eq!(
                (a.lane, a.seq, a.dur, a.kind),
                (b.lane, b.seq, b.dur, b.kind)
            );
        }
    }
}
