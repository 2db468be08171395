//! Structured trace events and the [`Tracer`] emission helper.

use crate::json::JsonWriter;
use crate::sink::TraceSink;

/// Lane carrying runtime-level orchestration events (compile, blame,
/// failover, replay epochs). Chip lanes use the chip's `TspId` value, which
/// is always far below this sentinel.
pub const RUNTIME_LANE: u32 = u32::MAX;

/// Lane carrying serving-frontend events (request enqueue/shed/complete,
/// batch windows). Kept distinct from [`RUNTIME_LANE`] so launch-level
/// traces can be compared exactly with or without a serving frontend by
/// filtering this lane out.
pub const SERVING_LANE: u32 = u32::MAX - 1;

/// Which admission limit rejected a request. Recorded on
/// [`EventKind::RequestShed`] so traces distinguish backpressure from
/// quota enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The bounded work queue was at capacity.
    QueueFull,
    /// The request's tenant was at its in-queue quota.
    TenantOverQuota,
}

/// What happened. Identifiers are raw integers (`TspId.0`, `LinkId.0`,
/// `NodeId.0`) so this crate stays a dependency leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// One chip's execution pass: issue of its first instruction through
    /// retirement of its last.
    ChipExec {
        /// Dependency depth of the chip's slot in the transfer DAG.
        depth: u32,
        /// Instructions in the chip's compiled program.
        instructions: u32,
    },
    /// The window in which a chip's scheduled inbound deliveries land.
    Deliveries {
        /// Deliveries bound into the chip this run.
        count: u32,
    },
    /// One scheduled vector landed on its destination chip: the
    /// cycle-coordinate ground truth the conformance profiler joins
    /// against the compiled plan. Emitted only for vectors that actually
    /// arrived (an uncorrectable packet produces no `Delivery`).
    Delivery {
        /// Index of the physical link the vector crossed.
        link: u32,
        /// Index of the transfer within the executing plan.
        transfer: u32,
        /// Vector index within that transfer.
        vector: u32,
    },
    /// The window of a chip's promised C2C emissions.
    Emissions {
        /// Emissions the chip's program promises.
        count: u32,
    },
    /// FEC corrected a single-bit flip in one packet on `link`.
    LinkCorrected {
        /// Index of the physical link.
        link: u32,
        /// Bit position of the corrected flip.
        bit: u32,
    },
    /// FEC flagged a packet on `link` as uncorrectable.
    LinkUncorrectable {
        /// Index of the physical link.
        link: u32,
    },
    /// A claimed "correction" on `link` produced wrong bytes and was
    /// demoted to uncorrectable rather than delivered.
    LinkDemoted {
        /// Index of the physical link.
        link: u32,
    },
    /// A runtime launch began.
    LaunchBegin {
        /// Structural fingerprint of the logical graph.
        graph_fp: u64,
    },
    /// The hardware-alignment window preceding epoch 0 (paper §4.2).
    Align,
    /// The runtime compiled the graph for the current mapping epoch.
    Compile {
        /// Mapping epoch the plan was compiled against.
        epoch: u64,
    },
    /// The runtime reused a cached plan.
    Reuse {
        /// Mapping epoch of the reused plan.
        epoch: u64,
    },
    /// One scheduled execution window (attempt 0 is the first try; higher
    /// attempts are replays).
    ReplayEpoch {
        /// Zero-based attempt index within the launch.
        attempt: u32,
    },
    /// The health monitor's blame vote elected a faulty node.
    BlameVote {
        /// Node that won the vote.
        node: u32,
        /// Endpoint votes the winner received.
        votes: u32,
    },
    /// The runtime failed a node over to its spare.
    Failover {
        /// Node that was replaced.
        node: u32,
        /// Mapping epoch after the failover.
        epoch: u64,
    },
    /// The launch concluded (successfully).
    LaunchEnd {
        /// Total execution attempts consumed.
        attempts: u32,
    },
    /// A serving request entered the work queue.
    RequestEnqueue {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
    },
    /// Admission control rejected a request (queue full or tenant over
    /// quota); the request never entered the queue.
    RequestShed {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Which admission limit fired.
        reason: ShedReason,
    },
    /// A queued request reached the dispatcher after its deadline had
    /// already passed (in virtual time) and was dropped unlaunched.
    RequestExpired {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Cycles between the deadline and the dispatch that found it.
        late: u64,
    },
    /// A request's batch finished executing; `latency` is the full
    /// enqueue→complete distance in virtual cycles.
    RequestComplete {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Serving-frontend request id (monotone per run).
        request: u32,
        /// Enqueue→complete latency in virtual cycles.
        latency: u64,
    },
    /// A batch of queued requests was dispatched into a launch.
    BatchBegin {
        /// Monotone batch index within the serving run.
        batch: u32,
        /// Requests folded into the batch.
        size: u32,
    },
    /// The batch's launch returned.
    BatchEnd {
        /// Monotone batch index within the serving run.
        batch: u32,
        /// Execution attempts the underlying launch consumed.
        attempts: u32,
    },
}

/// A single trace record. `cycle` is a *simulated* cycle count, never wall
/// clock; `lane` is the chip (`TspId.0`) or [`RUNTIME_LANE`]; `seq` is a
/// per-run emission counter that makes the `(cycle, lane, seq)` key unique
/// and totally ordered. `dur == 0` marks an instant event, `dur > 0` a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Simulated cycle at which the event begins.
    pub cycle: u64,
    /// Chip lane (`TspId.0`) or [`RUNTIME_LANE`].
    pub lane: u32,
    /// Emission sequence number within the run.
    pub seq: u32,
    /// Span length in cycles; zero for instant events.
    pub dur: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The unique, totally ordered merge key mandated by the determinism
    /// contract: per-chip ordered buffers merge by `(cycle, chip, seq)`.
    pub fn key(&self) -> (u64, u32, u32) {
        (self.cycle, self.lane, self.seq)
    }

    /// Compact, byte-deterministic JSON object: the coordinate fields,
    /// the kind's stable name, and the kind's payload fields flattened
    /// alongside. Used by the flight recorder's incident snapshots.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object()
            .field_u64("cycle", self.cycle)
            .field_u64("lane", u64::from(self.lane))
            .field_u64("seq", u64::from(self.seq))
            .field_u64("dur", self.dur)
            .field_str("kind", self.kind.name());
        match self.kind {
            EventKind::ChipExec {
                depth,
                instructions,
            } => {
                w.field_u64("depth", u64::from(depth))
                    .field_u64("instructions", u64::from(instructions));
            }
            EventKind::Deliveries { count } | EventKind::Emissions { count } => {
                w.field_u64("count", u64::from(count));
            }
            EventKind::Delivery {
                link,
                transfer,
                vector,
            } => {
                w.field_u64("link", u64::from(link))
                    .field_u64("transfer", u64::from(transfer))
                    .field_u64("vector", u64::from(vector));
            }
            EventKind::LinkCorrected { link, bit } => {
                w.field_u64("link", u64::from(link))
                    .field_u64("bit", u64::from(bit));
            }
            EventKind::LinkUncorrectable { link } | EventKind::LinkDemoted { link } => {
                w.field_u64("link", u64::from(link));
            }
            EventKind::LaunchBegin { graph_fp } => {
                w.field_u64("graph_fp", graph_fp);
            }
            EventKind::Align => {}
            EventKind::Compile { epoch } | EventKind::Reuse { epoch } => {
                w.field_u64("epoch", epoch);
            }
            EventKind::ReplayEpoch { attempt } => {
                w.field_u64("attempt", u64::from(attempt));
            }
            EventKind::BlameVote { node, votes } => {
                w.field_u64("node", u64::from(node))
                    .field_u64("votes", u64::from(votes));
            }
            EventKind::Failover { node, epoch } => {
                w.field_u64("node", u64::from(node))
                    .field_u64("epoch", epoch);
            }
            EventKind::LaunchEnd { attempts } => {
                w.field_u64("attempts", u64::from(attempts));
            }
            EventKind::RequestEnqueue { tenant, request } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request));
            }
            EventKind::RequestShed {
                tenant,
                request,
                reason,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_str(
                        "reason",
                        match reason {
                            ShedReason::QueueFull => "queue_full",
                            ShedReason::TenantOverQuota => "tenant_over_quota",
                        },
                    );
            }
            EventKind::RequestExpired {
                tenant,
                request,
                late,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_u64("late", late);
            }
            EventKind::RequestComplete {
                tenant,
                request,
                latency,
            } => {
                w.field_u64("tenant", u64::from(tenant))
                    .field_u64("request", u64::from(request))
                    .field_u64("latency", latency);
            }
            EventKind::BatchBegin { batch, size } => {
                w.field_u64("batch", u64::from(batch))
                    .field_u64("size", u64::from(size));
            }
            EventKind::BatchEnd { batch, attempts } => {
                w.field_u64("batch", u64::from(batch))
                    .field_u64("attempts", u64::from(attempts));
            }
        }
        w.end_object();
        w.finish()
    }
}

impl EventKind {
    /// The kind's stable dotted name, shared with the Chrome-trace
    /// exporter's event names.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ChipExec { .. } => "chip.exec",
            EventKind::Deliveries { .. } => "chip.deliveries",
            EventKind::Emissions { .. } => "chip.emissions",
            EventKind::Delivery { .. } => "link.delivery",
            EventKind::LinkCorrected { .. } => "link.corrected",
            EventKind::LinkUncorrectable { .. } => "link.uncorrectable",
            EventKind::LinkDemoted { .. } => "link.demoted",
            EventKind::LaunchBegin { .. } => "launch.begin",
            EventKind::Align => "launch.align",
            EventKind::Compile { .. } => "runtime.compile",
            EventKind::Reuse { .. } => "runtime.reuse",
            EventKind::ReplayEpoch { .. } => "runtime.replay_epoch",
            EventKind::BlameVote { .. } => "runtime.blame_vote",
            EventKind::Failover { .. } => "runtime.failover",
            EventKind::LaunchEnd { .. } => "launch.end",
            EventKind::RequestEnqueue { .. } => "serve.enqueue",
            EventKind::RequestShed { .. } => "serve.shed",
            EventKind::RequestExpired { .. } => "serve.expired",
            EventKind::RequestComplete { .. } => "serve.complete",
            EventKind::BatchBegin { .. } => "serve.batch",
            EventKind::BatchEnd { .. } => "serve.batch_end",
        }
    }
}

/// Emission helper owned by one instrumented run: holds the optional sink,
/// the monotone sequence counter, and a cycle offset that relocates the
/// run onto a caller-chosen timeline (the runtime uses this to place each
/// replay epoch after the previous one).
///
/// When no sink is attached — or the sink reports itself disabled, as
/// [`crate::NullSink`] does — every emission is a single branch and the
/// sequence counter never advances, so instrumented code does literally
/// nothing beyond that branch.
#[derive(Debug)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
    offset: u64,
    seq: u32,
}

impl<'a> Tracer<'a> {
    /// Wraps `sink`, treating a disabled sink the same as no sink.
    pub fn new(sink: Option<&'a dyn TraceSink>) -> Self {
        Tracer {
            sink: sink.filter(|s| s.is_enabled()),
            offset: 0,
            seq: 0,
        }
    }

    /// The tracer with `offset` added to the cycle of every event it
    /// emits.
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// True when events are actually being recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an instant event at `cycle` (plus the configured offset).
    pub fn instant(&mut self, cycle: u64, lane: u32, kind: EventKind) {
        self.emit(cycle, 0, lane, kind);
    }

    /// Emits a span of `dur` cycles starting at `cycle`.
    pub fn span(&mut self, cycle: u64, dur: u64, lane: u32, kind: EventKind) {
        self.emit(cycle, dur, lane, kind);
    }

    fn emit(&mut self, cycle: u64, dur: u64, lane: u32, kind: EventKind) {
        let Some(sink) = self.sink else { return };
        let seq = self.seq;
        self.seq += 1;
        sink.record(TraceEvent {
            cycle: cycle + self.offset,
            lane,
            seq,
            dur,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, RingSink};

    #[test]
    fn no_sink_is_inert_and_never_advances_seq() {
        let mut t = Tracer::new(None);
        assert!(!t.enabled());
        t.instant(5, 0, EventKind::Align);
        t.span(9, 3, 1, EventKind::Deliveries { count: 2 });
    }

    #[test]
    fn null_sink_behaves_exactly_like_no_sink() {
        let null = NullSink;
        let mut t = Tracer::new(Some(&null));
        assert!(!t.enabled());
        t.instant(5, 0, EventKind::Align);
    }

    #[test]
    fn offset_relocates_cycles_and_seq_orders_ties() {
        let ring = RingSink::new(16);
        let mut t = Tracer::new(Some(&ring)).with_offset(100);
        assert!(t.enabled());
        t.instant(5, 2, EventKind::LinkUncorrectable { link: 7 });
        t.instant(5, 2, EventKind::LinkDemoted { link: 7 });
        let ev = ring.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].cycle, 105);
        assert_eq!(ev[1].cycle, 105);
        assert!(ev[0].key() < ev[1].key(), "seq breaks the cycle tie");
    }
}
