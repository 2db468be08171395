//! Bounded, deterministic incident capture for the serving runtime.
//!
//! The paper's determinism pitch is that every execution is perfectly
//! explainable — but an explanation needs evidence, and a serving sweep
//! that sheds a request or goes Deviant leaves its evidence scattered
//! across the trace, the residency manager, and the telemetry windows.
//! The [`FlightRecorder`] is the post-mortem substrate: while a serve
//! run executes it shadows the serving-lane event stream in a bounded
//! ring, and when an incident fires — Deviant conformance, an
//! uncorrectable/failover launch, a shed, an expiry, or an SLO miss — it
//! snapshots, as of the incident's own cycle,
//!
//! - the **trace tail**: the last K serving-lane events on the stitched
//!   timeline, in cycle order (the server emits them that way),
//! - the **residency state**: lifetime stats plus every resident plan,
//! - the **queue state**: depth, capacity, tracked tenants, quota,
//! - and, at finish, the **telemetry windows bracketing** the incident
//!   cycle (`[w-1, w+1]`),
//!
//! into an [`IncidentReport`]. Everything is a pure function of the
//! serve run's seed: captures are bounded (`max_incidents`, overflow
//! counted, never reallocated into surprise memory growth),
//! serialization uses the in-repo `JsonWriter` (byte-reproducible; the
//! first fault incident's bytes are pinned in `BENCH_cosim.json`), and no
//! wall clock is consulted anywhere. An incident is evidence to compare,
//! not state to load: the same seed re-emits it byte for byte, so nothing
//! reads one back.
//!
//! Off-is-off: a `Server` with `flight: None` never constructs a
//! recorder, so outcomes, traces, and exporter bytes are bit-identical
//! to a build without this module.

use crate::residency::{ResidencyManager, ResidencyStats, ResidentInfo};
use std::collections::VecDeque;
use tsm_trace::{
    EventKind, JsonWriter, ShedReason, Telemetry, TimeSeries, TraceEvent, SERVING_LANE,
};

/// Capture bounds for one serve run's recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlightConfig {
    /// How many serving-lane events the trace tail keeps (last K).
    pub trace_tail: usize,
    /// How many incidents one run captures; later triggers are counted
    /// as dropped, not recorded.
    pub max_incidents: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            trace_tail: 32,
            max_incidents: 8,
        }
    }
}

/// What fired an incident capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentTrigger {
    /// A certified batch diverged from its plan (Deviant conformance).
    Deviant {
        /// Serving batch index.
        batch: u32,
    },
    /// A launch needed software replays or a failover to finish.
    Fault {
        /// Serving batch index.
        batch: u32,
        /// Replay epochs the launch consumed.
        replays: u64,
        /// Failovers the launch consumed.
        failovers: u64,
    },
    /// A request was shed at admission.
    Shed {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Why admission refused it.
        reason: ShedReason,
    },
    /// A request's deadline passed while it was still queued.
    Expired {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Cycles past the deadline at expiry.
        late: u64,
    },
    /// A request completed after its deadline.
    SloMiss {
        /// Request id.
        request: u32,
        /// Tenant id.
        tenant: u32,
        /// Cycles past the deadline at completion.
        late: u64,
    },
}

impl IncidentTrigger {
    /// Stable JSON tag for the trigger kind.
    pub fn kind(&self) -> &'static str {
        match self {
            IncidentTrigger::Deviant { .. } => "deviant",
            IncidentTrigger::Fault { .. } => "fault",
            IncidentTrigger::Shed { .. } => "shed",
            IncidentTrigger::Expired { .. } => "expired",
            IncidentTrigger::SloMiss { .. } => "slo_miss",
        }
    }
}

impl std::fmt::Display for IncidentTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IncidentTrigger::Deviant { batch } => write!(f, "batch {batch} went Deviant"),
            IncidentTrigger::Fault {
                batch,
                replays,
                failovers,
            } => write!(
                f,
                "batch {batch} needed {replays} replay(s), {failovers} failover(s)"
            ),
            IncidentTrigger::Shed {
                request,
                tenant,
                reason,
            } => {
                let why = match reason {
                    ShedReason::QueueFull => "queue full",
                    ShedReason::TenantOverQuota => "tenant over quota",
                };
                write!(f, "request {request} (tenant {tenant}) shed: {why}")
            }
            IncidentTrigger::Expired {
                request,
                tenant,
                late,
            } => write!(
                f,
                "request {request} (tenant {tenant}) expired in queue, {late} cycles late"
            ),
            IncidentTrigger::SloMiss {
                request,
                tenant,
                late,
            } => write!(
                f,
                "request {request} (tenant {tenant}) missed SLO by {late} cycles"
            ),
        }
    }
}

/// One captured incident: the trigger plus every snapshot listed in the
/// module docs. Serializes through [`IncidentReport::to_json`],
/// byte-reproducible from the serve seed.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// Global trigger ordinal within the run (dropped triggers still
    /// advance it, so gaps reveal overflow).
    pub seq: u64,
    /// Virtual cycle at which the trigger fired.
    pub cycle: u64,
    /// What fired.
    pub trigger: IncidentTrigger,
    /// Last K serving-lane events before (and including) the trigger.
    pub trace_tail: Vec<TraceEvent>,
    /// Residency manager lifetime counters at trigger.
    pub residency: ResidencyStats,
    /// Every resident plan at trigger, sorted by `(graph_fp, epoch)`.
    pub resident: Vec<ResidentInfo>,
    /// Requests in the work queue at trigger.
    pub queue_depth: u64,
    /// The queue's configured capacity.
    pub queue_capacity: u64,
    /// Tenants with at least one queued request at trigger.
    pub tracked_tenants: u64,
    /// The per-tenant in-queue quota.
    pub tenant_quota: u64,
    /// The telemetry window containing the trigger cycle (when the run
    /// sampled telemetry).
    pub telemetry_window: Option<u64>,
    /// Telemetry restricted to the windows bracketing the incident
    /// (`[w-1, w+1]`), attached at [`FlightRecorder::finish`].
    pub telemetry: Option<Telemetry>,
}

impl IncidentReport {
    /// Pretty-printed JSON via the in-repo writer. Deterministic: field
    /// order is fixed and every collection is already sorted.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("seq", self.seq);
        w.field_u64("cycle", self.cycle);
        w.key("trigger").begin_object();
        w.field_str("kind", self.trigger.kind());
        match self.trigger {
            IncidentTrigger::Deviant { batch } => {
                w.field_u64("batch", u64::from(batch));
            }
            IncidentTrigger::Fault {
                batch,
                replays,
                failovers,
            } => {
                w.field_u64("batch", u64::from(batch));
                w.field_u64("replays", replays);
                w.field_u64("failovers", failovers);
            }
            IncidentTrigger::Shed {
                request,
                tenant,
                reason,
            } => {
                w.field_u64("request", u64::from(request));
                w.field_u64("tenant", u64::from(tenant));
                w.field_str(
                    "reason",
                    match reason {
                        ShedReason::QueueFull => "queue_full",
                        ShedReason::TenantOverQuota => "tenant_over_quota",
                    },
                );
            }
            IncidentTrigger::Expired {
                request,
                tenant,
                late,
            }
            | IncidentTrigger::SloMiss {
                request,
                tenant,
                late,
            } => {
                w.field_u64("request", u64::from(request));
                w.field_u64("tenant", u64::from(tenant));
                w.field_u64("late", late);
            }
        }
        w.end_object();
        w.field_u64("queue_depth", self.queue_depth);
        w.field_u64("queue_capacity", self.queue_capacity);
        w.field_u64("tracked_tenants", self.tracked_tenants);
        w.field_u64("tenant_quota", self.tenant_quota);
        w.key("residency").begin_object();
        w.field_u64("hits", self.residency.hits);
        w.field_u64("misses", self.residency.misses);
        w.field_u64("evictions", self.residency.evictions);
        w.field_u64("stale_drops", self.residency.stale_drops);
        w.field_u64("resident_bytes", self.residency.resident_bytes);
        w.field_u64("resident_plans", self.residency.resident_plans);
        w.end_object();
        w.key("resident").begin_array();
        for r in &self.resident {
            w.begin_object();
            w.field_u64("graph_fp", r.graph_fp);
            w.field_u64("epoch", r.epoch);
            w.field_u64("bytes", r.bytes);
            w.field_u64("last_used", r.last_used);
            w.key("has_datapath");
            w.bool(r.has_datapath);
            w.end_object();
        }
        w.end_array();
        w.key("trace_tail").begin_array();
        for e in &self.trace_tail {
            w.raw(&e.to_json());
        }
        w.end_array();
        if let Some(tw) = self.telemetry_window {
            w.field_u64("telemetry_window", tw);
        }
        if let Some(t) = &self.telemetry {
            w.field_raw("telemetry", &t.to_json());
        }
        w.end_object();
        w.finish()
    }

    /// Human-readable multi-line rendering, for `repro incidents`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incident #{} @ cycle {} [{}] — {}",
            self.seq,
            self.cycle,
            self.trigger.kind(),
            self.trigger
        );
        let _ = writeln!(
            out,
            "  queue: {}/{} requests, {} tenant(s) tracked (quota {})",
            self.queue_depth, self.queue_capacity, self.tracked_tenants, self.tenant_quota
        );
        let _ = writeln!(
            out,
            "  residency: {} plan(s) / {} B resident, {} hit(s), {} miss(es), {} eviction(s)",
            self.residency.resident_plans,
            self.residency.resident_bytes,
            self.residency.hits,
            self.residency.misses,
            self.residency.evictions
        );
        match (self.trace_tail.first(), self.trace_tail.last()) {
            (Some(first), Some(last)) => {
                let _ = writeln!(
                    out,
                    "  trace tail: {} event(s), cycles {}..={}",
                    self.trace_tail.len(),
                    first.cycle,
                    last.cycle
                );
            }
            _ => {
                let _ = writeln!(out, "  trace tail: empty");
            }
        }
        match (&self.telemetry, self.telemetry_window) {
            (Some(t), Some(w)) => {
                let _ = writeln!(
                    out,
                    "  telemetry: {} series bracketing window {} ({}..={})",
                    t.series.len(),
                    w,
                    w.saturating_sub(1),
                    w + 1
                );
            }
            _ => {
                let _ = writeln!(out, "  telemetry: not sampled");
            }
        }
        out
    }
}

/// The recorder one serve run threads through its event loop. See the
/// module docs for the capture model.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    tail: VecDeque<TraceEvent>,
    incidents: Vec<IncidentReport>,
    /// Total triggers fired, including ones dropped at capacity.
    fired: u64,
    /// Sequence number of the next observed event.
    observed: u32,
}

impl FlightRecorder {
    /// An empty recorder with the given bounds.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            cfg,
            tail: VecDeque::with_capacity(cfg.trace_tail.min(1024)),
            incidents: Vec::new(),
            fired: 0,
            observed: 0,
        }
    }

    /// Shadows one serving-lane event into the bounded tail. The
    /// recorder stamps its own sequence numbers, so the tail is
    /// well-formed even on runs with no trace sink attached.
    pub fn observe(&mut self, cycle: u64, kind: EventKind) {
        let seq = self.observed;
        self.observed = self.observed.wrapping_add(1);
        if self.cfg.trace_tail == 0 {
            return;
        }
        if self.tail.len() == self.cfg.trace_tail {
            self.tail.pop_front();
        }
        self.tail.push_back(TraceEvent {
            cycle,
            lane: SERVING_LANE,
            seq,
            dur: 0,
            kind,
        });
    }

    /// Captures an incident: the trigger plus the tail/residency/queue
    /// snapshots. Beyond `max_incidents` the trigger only advances the
    /// ordinal (visible as a `seq` gap and in
    /// [`FlightRecorder::dropped`]).
    #[allow(clippy::too_many_arguments)]
    pub fn trigger(
        &mut self,
        trigger: IncidentTrigger,
        cycle: u64,
        residency: &ResidencyManager,
        queue_depth: u64,
        queue_capacity: u64,
        tracked_tenants: u64,
        tenant_quota: u64,
    ) {
        let seq = self.fired;
        self.fired += 1;
        if self.incidents.len() >= self.cfg.max_incidents {
            return;
        }
        self.incidents.push(IncidentReport {
            seq,
            cycle,
            trigger,
            trace_tail: self.tail.iter().copied().collect(),
            residency: residency.stats(),
            resident: residency.resident(),
            queue_depth,
            queue_capacity,
            tracked_tenants,
            tenant_quota,
            telemetry_window: None,
            telemetry: None,
        });
    }

    /// Incidents captured so far.
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Triggers that fired after the capture bound was hit.
    pub fn dropped(&self) -> u64 {
        self.fired - self.incidents.len() as u64
    }

    /// Seals the run: attaches to every incident the telemetry windows
    /// bracketing its trigger cycle (`[w-1, w+1]` on the record's
    /// window axis) and returns the captured incidents in trigger order.
    pub fn finish(self, telemetry: Option<&Telemetry>) -> Vec<IncidentReport> {
        let mut incidents = self.incidents;
        if let Some(t) = telemetry {
            let window = t.window.max(1);
            for inc in &mut incidents {
                let w = inc.cycle / window;
                let lo = w.saturating_sub(1);
                let hi = w + 1;
                let series: Vec<TimeSeries> = t
                    .series
                    .iter()
                    .filter_map(|s| {
                        let points: Vec<(u64, u64)> = s
                            .points
                            .iter()
                            .copied()
                            .filter(|&(pw, _)| (lo..=hi).contains(&pw))
                            .collect();
                        if points.is_empty() {
                            return None;
                        }
                        let mut clipped = TimeSeries::new(&s.name, &s.label, s.kind);
                        clipped.points = points;
                        Some(clipped)
                    })
                    .collect();
                inc.telemetry_window = Some(w);
                inc.telemetry = Some(Telemetry {
                    window: t.window,
                    slo_permille: t.slo_permille,
                    series,
                });
            }
        }
        incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_trace::{Telemetry, TelemetryConfig};

    fn enqueue(request: u32) -> EventKind {
        EventKind::RequestEnqueue { tenant: 0, request }
    }

    fn shed(request: u32) -> IncidentTrigger {
        IncidentTrigger::Shed {
            request,
            tenant: 1,
            reason: ShedReason::QueueFull,
        }
    }

    #[test]
    fn tail_is_bounded_and_keeps_the_newest_events() {
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 3,
            max_incidents: 8,
        });
        for i in 0..5u32 {
            f.observe(100 + u64::from(i), enqueue(i));
        }
        let res = ResidencyManager::new();
        f.trigger(shed(9), 500, &res, 2, 4, 1, 2);
        let incidents = f.finish(None);
        let tail: Vec<u32> = incidents[0].trace_tail.iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![2, 3, 4], "oldest events fell off the front");
    }

    #[test]
    fn capture_is_bounded_and_overflow_is_visible() {
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 4,
            max_incidents: 2,
        });
        let res = ResidencyManager::new();
        for i in 0..5 {
            f.trigger(shed(i), 100 + u64::from(i), &res, 0, 4, 0, 2);
        }
        assert_eq!(f.len(), 2);
        assert_eq!(f.dropped(), 3);
        let incidents = f.finish(None);
        assert_eq!(incidents.len(), 2);
        assert_eq!(
            (incidents[0].seq, incidents[1].seq),
            (0, 1),
            "seq is the global trigger ordinal"
        );
    }

    #[test]
    fn finish_attaches_the_bracketing_telemetry_windows() {
        let mut t = Telemetry::empty(TelemetryConfig {
            window: 100,
            slo_permille: 990,
        });
        // Windows 0..=5 each get one count; the incident in window 3
        // must carry exactly windows 2..=4.
        for w in 0..6u64 {
            t.count("serve.throughput", "t0", w * 100, 1);
        }
        let mut f = FlightRecorder::new(FlightConfig::default());
        let res = ResidencyManager::new();
        f.trigger(shed(1), 350, &res, 1, 4, 1, 2);
        let incidents = f.finish(Some(&t));
        let inc = &incidents[0];
        assert_eq!(inc.telemetry_window, Some(3));
        let tel = inc.telemetry.as_ref().unwrap();
        assert_eq!(tel.window, 100);
        let pts = &tel.get("serve.throughput", "t0").unwrap().points;
        assert_eq!(pts, &vec![(2, 1), (3, 1), (4, 1)]);
    }

    /// An incident's document is one well-formed JSON value: a hostile
    /// tenant label in its telemetry windows is escaped, and its trace
    /// tail and telemetry are their own writers' bytes, verbatim.
    #[test]
    fn incident_json_is_well_formed_and_embeds_its_parts() {
        let mut t = Telemetry::empty(TelemetryConfig {
            window: 64,
            slo_permille: 990,
        });
        t.count("serve.slo.missed", "t\"1\\\n", 130, 2);
        let mut f = FlightRecorder::new(FlightConfig {
            trace_tail: 2,
            max_incidents: 4,
        });
        f.observe(100, enqueue(0));
        f.observe(120, enqueue(1));
        let res = ResidencyManager::new();
        f.trigger(
            IncidentTrigger::Fault {
                batch: 3,
                replays: 2,
                failovers: 1,
            },
            140,
            &res,
            3,
            8,
            2,
            4,
        );
        let mut incidents = f.finish(Some(&t));
        // Exercise the resident-list JSON too.
        incidents[0].resident.push(ResidentInfo {
            graph_fp: 0xDEAD_BEEF,
            epoch: 1,
            bytes: 4096,
            last_used: 7,
            has_datapath: true,
        });
        let inc = &incidents[0];
        let json = inc.to_json();
        assert_eq!(json, inc.to_json(), "byte-deterministic");
        let mut c = tsm_trace::Cursor::new(&json);
        c.raw_value().and_then(|_| c.expect_end()).expect(&json);
        assert!(json.contains(r#""label": "t\"1\\\n""#), "{json}");
        assert!(json.contains("\"has_datapath\": true"), "{json}");
        assert_eq!(inc.trace_tail.len(), 2);
        for e in &inc.trace_tail {
            assert!(json.contains(&e.to_json()), "{json}");
        }
        let telemetry = inc.telemetry.as_ref().unwrap().to_json();
        assert!(json.contains(&telemetry), "{json}");
    }

    #[test]
    fn every_trigger_kind_writes_and_renders() {
        let res = ResidencyManager::new();
        let triggers = [
            IncidentTrigger::Deviant { batch: 2 },
            IncidentTrigger::Fault {
                batch: 0,
                replays: 5,
                failovers: 0,
            },
            IncidentTrigger::Shed {
                request: 1,
                tenant: 2,
                reason: ShedReason::TenantOverQuota,
            },
            IncidentTrigger::Expired {
                request: 3,
                tenant: 0,
                late: 44,
            },
            IncidentTrigger::SloMiss {
                request: 4,
                tenant: 1,
                late: 9,
            },
        ];
        let mut f = FlightRecorder::new(FlightConfig::default());
        for (i, &tr) in triggers.iter().enumerate() {
            f.trigger(tr, 100 * (i as u64 + 1), &res, 1, 4, 1, 2);
        }
        for inc in f.finish(None) {
            let json = inc.to_json();
            let mut c = tsm_trace::Cursor::new(&json);
            c.raw_value().and_then(|_| c.expect_end()).expect(&json);
            let kind = format!("\"kind\": \"{}\"", inc.trigger.kind());
            assert!(json.contains(&kind), "{json}");
            let rendered = inc.render();
            assert!(rendered.contains(&format!("[{}]", inc.trigger.kind())));
            assert!(rendered.contains("queue: 1/4"));
        }
    }
}
