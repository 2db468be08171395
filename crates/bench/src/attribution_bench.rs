//! Attribution + flight-recorder benchmark: a fault-injected serve run.
//!
//! The observability layer's claim is causal, not statistical: every
//! served request decomposes into the stages that consumed its cycles —
//! summing *exactly* to its end-to-end latency — and every deviant,
//! faulted, shed, expired, or SLO-missing moment is captured as a
//! bounded, byte-reproducible [`IncidentReport`]. So the benchmark is a
//! hostile serve: marginal BER plus degraded cables into one node (the
//! launches replay), a short queue (backpressure sheds), and one tenant
//! with deadlines tight enough to expire and miss. The record asserts
//! the sum identity over every request, the off-is-off identity, and
//! bit-reproducibility of both the breakdowns and the incidents.
//!
//! [`IncidentReport`]: tsm::core::flight::IncidentReport

use tsm::core::flight::{FlightConfig, IncidentReport};
use tsm::core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm::core::serving::{Request, ServeConfig, Server};
use tsm::core::system::System;
use tsm::topology::{LinkId, NodeId};
use tsm::trace::{JsonWriter, Stage};
use tsm::workloads::{merge_arrivals, poisson_arrivals, BertConfig};

/// Incident capture bounds used by the bench run.
pub const FLIGHT: FlightConfig = FlightConfig {
    trace_tail: 16,
    max_incidents: 64,
};

/// Per-stage slice of the attribution record.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePoint {
    /// Stage name (its stable JSON identifier).
    pub stage: &'static str,
    /// Total cycles attributed to this stage across every request.
    pub total_cycles: u64,
    /// Requests whose critical (largest) stage this was.
    pub critical: u64,
    /// Median per-request cycles in this stage.
    pub p50: f64,
    /// 99th-percentile per-request cycles in this stage.
    pub p99: f64,
}

/// The `"attribution"` bench record.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionBenchResult {
    /// Master seed (chosen by the fault search so the run replays).
    pub seed: u64,
    /// Measured batch-1 service time, cycles.
    pub service_cycles: u64,
    /// Requests offered / served / expired / shed.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Requests expired at dispatch.
    pub expired: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Served requests whose breakdown carries replay cycles.
    pub replayed_requests: u64,
    /// Per-stage totals, in canonical stage order.
    pub stages: Vec<StagePoint>,
    /// Whether every breakdown's components summed exactly to its
    /// measured latency (re-derived here; the serve run also asserts it).
    pub sums_exact: bool,
    /// Incidents captured, by trigger kind (ascending by kind name).
    pub incident_kinds: Vec<(String, u64)>,
    /// Triggers that fired after `max_incidents` was reached.
    pub incidents_dropped: u64,
    /// Whether a rerun reproduced the report, every breakdown's JSON,
    /// and every incident's JSON byte for byte.
    pub reproducible: bool,
    /// Whether a run with attribution and the recorder off was
    /// bit-identical to the on-run minus the two new fields.
    pub off_identical: bool,
    /// The captured incidents, in firing order (rendered by
    /// `repro incidents`; the JSON block embeds the first fault).
    pub incidents: Vec<IncidentReport>,
}

/// BERT-shaped pipeline over 4 TSPs, `encoders` deep, streaming its
/// output activations to a chip on node 1 — the 4-stage pipeline itself
/// lives entirely on node 0's TSPs, so without this offload the degraded
/// cables would never sit on the data path and the run could not fault.
fn bert_graph(encoders: usize, batch: u32) -> tsm::compiler::graph::Graph {
    use tsm::compiler::graph::OpKind;
    use tsm::topology::TspId;
    let mut g = BertConfig {
        batch: u64::from(batch),
        ..BertConfig::with_encoders(encoders)
    }
    .build_pipeline_graph(4);
    g.add(
        TspId(0),
        OpKind::Transfer {
            to: TspId(12),
            bytes: 32_000,
            allow_nonminimal: true,
        },
        vec![],
    )
    .expect("offload transfer");
    g
}

/// A marginal datapath runtime: residual BER everywhere plus degraded
/// cables into node 1, so launches replay (and occasionally fail over).
fn marginal_runtime() -> Runtime {
    let mut rt = Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath);
    rt.set_ber(0.0, 2e-5);
    let victim = NodeId(1);
    let bad: Vec<LinkId> = rt
        .system()
        .topology()
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.a.node() == victim || l.b.node() == victim)
        .map(|(i, _)| LinkId(i as u32))
        .collect();
    for l in bad {
        rt.degrade_link(l);
    }
    rt
}

/// Measures the attribution bench point. `encoders` sizes the model,
/// `horizon_services` the arrival horizon; `seed` seeds the search for a
/// master seed whose marginal run actually replays.
pub fn measure_attribution(
    encoders: usize,
    horizon_services: u64,
    seed: u64,
) -> AttributionBenchResult {
    let service_cycles = Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath)
    .launch(&bert_graph(encoders, 1), seed)
    .expect("calibration launch")
    .timeline_cycles;
    let horizon = service_cycles * horizon_services;

    // Tenant 0: steady 0.6μ with ample slack. Tenant 1: 0.4μ with
    // half-a-service slack — misses and expiries. The queue is short, so
    // replay-stretched batches back it up into sheds.
    let steady = poisson_arrivals(
        seed.wrapping_add(401),
        0.6 / service_cycles as f64,
        horizon,
        0,
        0,
        8 * service_cycles,
    );
    let tight = poisson_arrivals(
        seed.wrapping_add(402),
        0.4 / service_cycles as f64,
        horizon,
        1,
        1,
        service_cycles / 2,
    );
    let offered: Vec<Request> = merge_arrivals(&[steady, tight])
        .iter()
        .map(|a| Request {
            at: a.at,
            tenant: a.tenant,
            model: 0,
            priority: a.priority,
            deadline_slack: a.deadline_slack,
        })
        .collect();

    let serve_once = |master: u64, attribution: bool, flight: Option<FlightConfig>| {
        let cfg = ServeConfig {
            batch_window: service_cycles / 2,
            max_batch: 8,
            queue_capacity: 8,
            tenant_quota: usize::MAX,
            seed: master,
            certify: false,
            telemetry: None,
            attribution,
            flight,
        };
        let mut server = Server::new(marginal_runtime(), cfg);
        server.add_model(move |b| bert_graph(encoders, b));
        server.serve(&offered).expect("serving run")
    };

    // Find a master seed whose run actually replays — the attribution
    // story needs replay cycles on the timeline, not just waits.
    let (master, on) = (seed..seed + 64)
        .find_map(|s| {
            let report = serve_once(s, true, Some(FLIGHT));
            report
                .batches
                .iter()
                .any(|b| b.outcome.replays() > 0)
                .then_some((s, report))
        })
        .expect("some seed in the window replays on the marginal fabric");

    let attr = on.attribution.as_ref().expect("attribution is on");
    let incidents = on.incidents.clone().expect("recorder is armed");
    let sums_exact = attr.breakdowns.iter().all(|b| {
        Stage::ALL.iter().map(|&s| b.component(s)).sum::<u64>() == b.latency() && b.verify().is_ok()
    });
    let replayed_requests = attr
        .breakdowns
        .iter()
        .filter(|b| b.component(Stage::Replay) > 0)
        .count() as u64;
    let stages = Stage::ALL
        .iter()
        .map(|&s| {
            let h = attr.metrics.histogram(s.histogram_metric());
            StagePoint {
                stage: s.as_str(),
                total_cycles: attr.metrics.counter(s.total_metric()),
                critical: attr.critical_count(s),
                p50: h.map_or(0.0, |h| h.percentile(0.50)),
                p99: h.map_or(0.0, |h| h.percentile(0.99)),
            }
        })
        .collect();
    let mut incident_kinds: Vec<(String, u64)> = Vec::new();
    for inc in &incidents {
        let kind = inc.trigger.kind();
        match incident_kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => incident_kinds.push((kind.to_string(), 1)),
        }
    }
    incident_kinds.sort();
    let incidents_dropped = incidents
        .last()
        .map_or(0, |i| i.seq + 1 - incidents.len() as u64);

    // Bit-reproducibility: a rerun from scratch must reproduce the whole
    // report, and its incidents must serialize byte-identically.
    let again = serve_once(master, true, Some(FLIGHT));
    let reproducible = again == on
        && again.incidents.as_ref().is_some_and(|inc| {
            inc.len() == incidents.len()
                && inc
                    .iter()
                    .zip(&incidents)
                    .all(|(x, y)| x.to_json() == y.to_json())
        });

    // Off-identity: both features off must be bit-identical to the
    // on-run minus the two fields they add.
    let off = serve_once(master, false, None);
    let mut stripped = on.clone();
    stripped.attribution = None;
    stripped.incidents = None;
    let off_identical = off.attribution.is_none() && off.incidents.is_none() && stripped == off;

    AttributionBenchResult {
        seed: master,
        service_cycles,
        offered: on.offered,
        served: on.served,
        expired: on.expired,
        shed: on.shed,
        replayed_requests,
        stages,
        sums_exact,
        incident_kinds,
        incidents_dropped,
        reproducible,
        off_identical,
        incidents,
    }
}

impl AttributionBenchResult {
    /// Writes the `"attribution"` block of `BENCH_cosim.json` as the next
    /// value. The embedded `first_fault_incident` is
    /// [`IncidentReport::to_json`] verbatim, so the same seed reproduces
    /// the block byte for byte.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("seed", self.seed)
            .field_u64("service_cycles", self.service_cycles)
            .field_u64("offered", self.offered)
            .field_u64("served", self.served)
            .field_u64("expired", self.expired)
            .field_u64("shed", self.shed)
            .field_u64("replayed_requests", self.replayed_requests);
        w.key("sums_exact").bool(self.sums_exact);
        w.key("stages").begin_array();
        for s in &self.stages {
            w.begin_object()
                .field_str("stage", s.stage)
                .field_u64("total_cycles", s.total_cycles)
                .field_u64("critical", s.critical)
                .field_raw("p50_cycles", &format!("{:.0}", s.p50))
                .field_raw("p99_cycles", &format!("{:.0}", s.p99))
                .end_object();
        }
        w.end_array();
        w.key("incidents").begin_object();
        w.field_u64("captured", self.incidents.len() as u64)
            .field_u64("dropped", self.incidents_dropped);
        w.key("by_kind").begin_object();
        for (kind, n) in &self.incident_kinds {
            w.field_u64(kind, *n);
        }
        w.end_object();
        w.end_object();
        w.key("reproducible").bool(self.reproducible);
        w.key("off_identical").bool(self.off_identical);
        if let Some(fault) = self.incidents.iter().find(|i| i.trigger.kind() == "fault") {
            w.field_raw(
                "first_fault_incident",
                &crate::cosim_bench::indent_block(&fault.to_json(), 4),
            );
        }
        w.end_object();
    }
}

/// Printable report lines for `repro attribution` output.
pub fn attribution_lines(r: &AttributionBenchResult) -> Vec<String> {
    let mut out = vec![
        format!(
            "marginal fabric (degraded cables into node 1, BER 2e-5); seed {} (fault-searched), service {} cycles",
            r.seed, r.service_cycles
        ),
        format!(
            "offered {}, served {}, expired {}, shed {}; {} requests carry replay cycles",
            r.offered, r.served, r.expired, r.shed, r.replayed_requests
        ),
        "per-stage attribution (cycles over every served request):".to_string(),
    ];
    for s in &r.stages {
        out.push(format!(
            "  {:>11}: total {:>10}  critical for {:>3}  p50 {:>9.0}  p99 {:>9.0}",
            s.stage, s.total_cycles, s.critical, s.p50, s.p99
        ));
    }
    let kinds: Vec<String> = r
        .incident_kinds
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect();
    out.push(format!(
        "flight recorder: {} incidents captured ({}), {} dropped at the cap",
        r.incidents.len(),
        kinds.join(", "),
        r.incidents_dropped
    ));
    out.push(format!(
        "sums exact: {}; bit-reproducible: {}; off-identical: {}",
        r.sums_exact, r.reproducible, r.off_identical
    ));
    out
}

/// Printable lines for `repro incidents`: every captured incident,
/// rendered in firing order.
pub fn incident_lines(r: &AttributionBenchResult) -> Vec<String> {
    let mut out = vec![format!(
        "{} incidents from the fault-injected serve (seed {}):",
        r.incidents.len(),
        r.seed
    )];
    for inc in &r.incidents {
        out.push(String::new());
        out.extend(inc.render().lines().map(String::from));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny end-to-end measure. Asserts the acceptance shape: a faulted
    /// run whose every breakdown sums exactly, at least one fault
    /// incident captured byte-reproducibly, and both features off-is-off.
    #[test]
    fn tiny_measure_attributes_faults_and_reproduces() {
        let r = measure_attribution(4, 10, 9);
        assert!(r.served > 0);
        assert!(r.sums_exact, "every breakdown sums exactly");
        assert!(
            r.replayed_requests > 0,
            "the fault search guarantees replays"
        );
        assert!(r.reproducible, "same seed, same bytes");
        assert!(r.off_identical, "off is bit-identical minus the fields");
        assert!(
            r.incident_kinds.iter().any(|(k, _)| k == "fault"),
            "replaying batches fire fault incidents: {:?}",
            r.incident_kinds
        );
        let total: u64 = r.incident_kinds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, r.incidents.len() as u64);
        // Stage order and the critical partition are intact.
        assert_eq!(r.stages.len(), Stage::ALL.len());
        let critical: u64 = r.stages.iter().map(|s| s.critical).sum();
        assert_eq!(critical, r.served);
        let json = crate::render(|w| r.write_json(w));
        for key in [
            "\"sums_exact\": true",
            "\"reproducible\": true",
            "\"off_identical\": true",
            "\"stages\"",
            "\"by_kind\"",
            "\"first_fault_incident\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let lines = incident_lines(&r);
        assert!(lines.len() > r.incidents.len(), "every incident rendered");
    }
}
