//! Serving-runtime benchmark: offered load × batch window over BERT.
//!
//! The serving frontend's whole claim is deterministic tail latency, so
//! the benchmark is an open-loop sweep: Poisson arrivals (virtual time,
//! seeded) offered at fixed fractions of the measured service rate μ,
//! crossed with batch windows, over the BERT pipeline in datapath mode
//! with conformance certification on *every* launch. Each point reports
//! p50/p99/p999 enqueue→complete latency from the run's
//! [`CycleHistogram`], plus an overload point (admission control must
//! shed) and a two-tenant burst scenario (quota must protect the steady
//! tenant). The whole sweep is bit-reproducible from its seed: the first
//! point is rerun and the verdict recorded (`reproducible`).
//!
//! [`CycleHistogram`]: tsm::trace::CycleHistogram

use tsm::core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm::core::serving::{Request, ServeConfig, ServeReport, Server};
use tsm::core::system::System;
use tsm::trace::telemetry::series;
use tsm::trace::{names, sparkline, JsonWriter, Telemetry, TelemetryConfig};
use tsm::workloads::{
    merge_arrivals, poisson_arrivals, poisson_arrivals_in, ArrivalEvent, BertConfig,
};

/// Offered loads swept, as fractions of the service rate μ = 1/service
/// cycles (a batch-1 launch's timeline width).
pub const LOADS: &[f64] = &[0.2, 0.5, 0.8];

/// Overload point: twice the service rate, against a short queue.
pub const OVERLOAD: f64 = 2.0;

/// Requests folded into one launch at most.
pub const MAX_BATCH: usize = 8;

/// One point of the load × window sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Offered load as a fraction of μ.
    pub load: f64,
    /// Batch window, cycles.
    pub batch_window: u64,
    /// Requests offered / served / shed.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests dropped at dispatch time (deadline already passed).
    pub expired: u64,
    /// Launches dispatched.
    pub batches: u64,
    /// Mean requests per launch.
    pub mean_batch: f64,
    /// Median enqueue→complete latency, cycles (bucket-interpolated).
    pub p50: f64,
    /// 99th percentile latency, cycles.
    pub p99: f64,
    /// 99.9th percentile latency, cycles.
    pub p999: f64,
    /// Deepest queue backlog seen.
    pub max_queue_depth: u64,
    /// Whether every dispatched launch came back CERTIFIED from the
    /// plan-vs-actual conformance profiler.
    pub all_certified: bool,
}

/// One tenant's slice of the burst scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Tenant id (0 = steady, 1 = bursting).
    pub tenant: u32,
    /// Requests offered / served / shed for this tenant.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Requests shed.
    pub shed: u64,
    /// Sheds caused by queue backpressure.
    pub shed_queue_full: u64,
    /// Sheds caused by the tenant quota — the burst scenario asserts the
    /// bursting tenant is stopped by its quota, not by backpressure.
    pub shed_over_quota: u64,
    /// Median latency, cycles.
    pub p50: f64,
    /// 99th percentile latency, cycles.
    pub p99: f64,
}

/// The full serving benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingBenchResult {
    /// Model description, derived from the swept configuration.
    pub model: String,
    /// Master seed the whole sweep derives from.
    pub seed: u64,
    /// Measured batch-1 service time (launch timeline width), cycles.
    pub service_cycles: u64,
    /// Arrival horizon, cycles.
    pub horizon: u64,
    /// The load × batch-window grid.
    pub sweep: Vec<ServePoint>,
    /// The 2μ point against a short queue: backpressure must fire.
    pub overload: ServePoint,
    /// The two-tenant burst scenario, per tenant.
    pub burst_tenants: Vec<TenantPoint>,
    /// Whether every burst-scenario launch certified.
    pub burst_certified: bool,
    /// Whether rerunning the first sweep point reproduced its report bit
    /// for bit.
    pub reproducible: bool,
}

/// BERT-shaped pipeline over 4 TSPs, `encoders` deep. `batch` arrives
/// from the serving frontend.
fn bert_graph(encoders: usize, batch: u32) -> tsm::compiler::graph::Graph {
    BertConfig {
        batch: u64::from(batch),
        ..BertConfig::with_encoders(encoders)
    }
    .build_pipeline_graph(4)
}

/// A fresh datapath runtime for one sweep point — every point starts from
/// the same state, so points are independent and individually
/// reproducible.
fn runtime() -> Runtime {
    Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath)
}

/// Runs one serving point over `offered` and folds the report into a
/// [`ServePoint`].
fn run_point(
    encoders: usize,
    offered: &[Request],
    cfg: ServeConfig,
    load: f64,
) -> (ServePoint, ServeReport) {
    let mut server = Server::new(runtime(), cfg);
    server.add_model(move |b| bert_graph(encoders, b));
    let report = server.serve(offered).expect("serving run");
    let point = ServePoint {
        load,
        batch_window: cfg.batch_window,
        offered: report.offered,
        served: report.served,
        shed: report.shed,
        expired: report.expired,
        batches: report.batches.len() as u64,
        mean_batch: if report.batches.is_empty() {
            0.0
        } else {
            report.served as f64 / report.batches.len() as f64
        },
        p50: report.latency.percentile(0.50),
        p99: report.latency.percentile(0.99),
        p999: report.latency.percentile(0.999),
        max_queue_depth: report.metrics.gauge(names::SERVE_QUEUE_DEPTH).unwrap_or(0),
        all_certified: !report.batches.is_empty()
            && report.batches.iter().all(|b| b.certified == Some(true)),
    };
    (point, report)
}

fn to_requests(arrivals: &[ArrivalEvent]) -> Vec<Request> {
    arrivals
        .iter()
        .map(|a| Request {
            at: a.at,
            tenant: a.tenant,
            model: 0,
            priority: a.priority,
            deadline_slack: a.deadline_slack,
        })
        .collect()
}

/// Measures the full serving record: the load × window sweep, the
/// overload point, and the tenant-burst scenario. `encoders` sizes the
/// model (24 = BERT-Large; fewer for a fast smoke), `horizon_services`
/// sizes the arrival horizon in multiples of the measured service time.
pub fn measure_serving(encoders: usize, horizon_services: u64, seed: u64) -> ServingBenchResult {
    // Calibrate μ: one standalone batch-1 launch measures the service
    // time everything else is expressed against.
    let service_cycles = runtime()
        .launch(&bert_graph(encoders, 1), seed)
        .expect("calibration launch")
        .timeline_cycles;
    let horizon = service_cycles * horizon_services;
    let windows = [0u64, service_cycles / 2];

    let cfg = |batch_window, queue_capacity, tenant_quota| ServeConfig {
        batch_window,
        max_batch: MAX_BATCH,
        queue_capacity,
        tenant_quota,
        seed,
        certify: true,
        telemetry: None,
        attribution: false,
        flight: None,
    };

    let mut sweep = Vec::new();
    let mut first: Option<(Vec<Request>, ServeConfig, ServeReport)> = None;
    for (li, &load) in LOADS.iter().enumerate() {
        let rate = load / service_cycles as f64;
        let offered = to_requests(&poisson_arrivals(
            seed.wrapping_add(li as u64),
            rate,
            horizon,
            0,
            0,
            4 * service_cycles,
        ));
        for &w in &windows {
            let c = cfg(w, 256, usize::MAX);
            let (point, report) = run_point(encoders, &offered, c, load);
            if first.is_none() {
                first = Some((offered.clone(), c, report));
            }
            sweep.push(point);
        }
    }

    // Bit-reproducibility: the first sweep point, rerun from scratch on a
    // fresh runtime, must reproduce its entire report.
    let (f_offered, f_cfg, f_report) = first.expect("sweep is non-empty");
    let (_, again) = run_point(encoders, &f_offered, f_cfg, LOADS[0]);
    let reproducible = again == f_report;

    // Overload: 2μ against an 8-deep queue. Batching does not raise
    // throughput here (service time scales with batch size for a
    // compute-bound model), so the backlog grows ~1 per service time and
    // admission control must shed.
    let over_offered = to_requests(&poisson_arrivals(
        seed.wrapping_add(101),
        OVERLOAD / service_cycles as f64,
        horizon,
        0,
        0,
        4 * service_cycles,
    ));
    let (overload, _) = run_point(
        encoders,
        &over_offered,
        cfg(windows[1], 8, usize::MAX),
        OVERLOAD,
    );

    // Tenant burst: tenant 0 offers steady 0.4μ at priority 0 for the
    // whole horizon; tenant 1 floods 2.5μ at priority 1 over the second
    // quarter. A 16-entry tenant quota keeps the burst from squeezing the
    // steady tenant out of the queue.
    let steady = poisson_arrivals(
        seed.wrapping_add(201),
        0.4 / service_cycles as f64,
        horizon,
        0,
        0,
        4 * service_cycles,
    );
    let burst = poisson_arrivals_in(
        seed.wrapping_add(202),
        2.5 / service_cycles as f64,
        horizon / 4,
        horizon / 2,
        1,
        1,
        4 * service_cycles,
    );
    let burst_offered = to_requests(&merge_arrivals(&[steady, burst]));
    let (_, burst_report) = run_point(
        encoders,
        &burst_offered,
        cfg(windows[1], 64, 16),
        0.4 + 2.5 / 4.0,
    );
    let burst_tenants = burst_report
        .tenants
        .iter()
        .map(|t| TenantPoint {
            tenant: t.tenant,
            offered: t.offered,
            served: t.served,
            shed: t.shed,
            shed_queue_full: t.shed_queue_full,
            shed_over_quota: t.shed_over_quota,
            p50: t.latency.percentile(0.50),
            p99: t.latency.percentile(0.99),
        })
        .collect();
    let burst_certified = !burst_report.batches.is_empty()
        && burst_report
            .batches
            .iter()
            .all(|b| b.certified == Some(true));

    ServingBenchResult {
        model: format!(
            "BERT {encoders}x{} hidden, 4-stage pipeline, batch<=: {MAX_BATCH}",
            BertConfig::large().hidden
        ),
        seed,
        service_cycles,
        horizon,
        sweep,
        overload,
        burst_tenants,
        burst_certified,
        reproducible,
    }
}

/// Per-tenant SLO summary of the telemetry bench point.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant id.
    pub tenant: u32,
    /// Requests served / expired for this tenant.
    pub served: u64,
    /// Requests expired at dispatch.
    pub expired: u64,
    /// Whole-run SLO attainment: `met / (met + missed)` summed over every
    /// window (1.0 when the tenant saw no terminal requests).
    pub attainment: f64,
}

/// The `"telemetry"` bench record: one non-certified serve run with
/// windowed sampling on, and the identity and reproducibility verdicts
/// the feature promises.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBenchResult {
    /// Master seed of the run.
    pub seed: u64,
    /// Measured batch-1 service time, cycles.
    pub service_cycles: u64,
    /// Sampling window, cycles.
    pub window: u64,
    /// Requests offered / served / expired / shed.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Requests expired at dispatch.
    pub expired: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Windows the run spanned (`last_window + 1`).
    pub sampled_windows: u64,
    /// Distinct `(name, label)` series recorded.
    pub series_count: u64,
    /// Links with a delivery heatmap.
    pub link_labels: u64,
    /// Chips with a busy-cycles heatmap.
    pub chip_labels: u64,
    /// Per-tenant SLO summaries, ascending tenant id.
    pub tenants: Vec<TenantSlo>,
    /// Whether a rerun reproduced the report and its telemetry JSON byte
    /// for byte.
    pub reproducible: bool,
    /// Whether a sampling-off run was bit-identical to the sampling-on
    /// run minus the telemetry fields.
    pub off_identical: bool,
    /// The run's full telemetry record (embedded in the JSON block).
    pub telemetry: Telemetry,
}

/// Measures the telemetry bench point: a two-tenant serve run — one
/// comfortable, one with deadlines tight enough to miss — with windowed
/// sampling on, in datapath mode, so the launches' link/chip heatmaps
/// land on the serving timeline.
pub fn measure_telemetry(
    encoders: usize,
    horizon_services: u64,
    seed: u64,
) -> TelemetryBenchResult {
    let service_cycles = runtime()
        .launch(&bert_graph(encoders, 1), seed)
        .expect("calibration launch")
        .timeline_cycles;
    let horizon = service_cycles * horizon_services;
    // Tenant 0 offers steady 0.5μ with ample deadlines; tenant 1 offers
    // 0.3μ with half-a-service slack, so some of its requests miss their
    // SLO and some expire unlaunched — the attainment series has to show
    // real misses, not a flat 100%.
    let steady = poisson_arrivals(
        seed.wrapping_add(301),
        0.5 / service_cycles as f64,
        horizon,
        0,
        0,
        8 * service_cycles,
    );
    let tight = poisson_arrivals(
        seed.wrapping_add(302),
        0.3 / service_cycles as f64,
        horizon,
        1,
        1,
        service_cycles / 2,
    );
    let offered = to_requests(&merge_arrivals(&[steady, tight]));
    let tel_cfg = TelemetryConfig {
        window: (service_cycles / 2).max(1),
        slo_permille: 990,
    };
    let cfg = |telemetry| ServeConfig {
        batch_window: service_cycles / 2,
        max_batch: MAX_BATCH,
        queue_capacity: 256,
        tenant_quota: usize::MAX,
        seed,
        certify: false,
        telemetry,
        attribution: false,
        flight: None,
    };
    let serve_once = |telemetry: Option<TelemetryConfig>| {
        let mut server = Server::new(runtime(), cfg(telemetry));
        server.add_model(move |b| bert_graph(encoders, b));
        server.serve(&offered).expect("serving run")
    };

    let on = serve_once(Some(tel_cfg));
    let telemetry = on.telemetry.clone().expect("sampling was on");

    // Bit-reproducibility: a rerun from scratch must reproduce the whole
    // report, and its telemetry must serialize byte-identically.
    let again = serve_once(Some(tel_cfg));
    let reproducible = again == on
        && again
            .telemetry
            .as_ref()
            .is_some_and(|t| t.to_json() == telemetry.to_json());

    // Off-identity: sampling off must be bit-identical to sampling on
    // minus the telemetry fields themselves.
    let off = serve_once(None);
    let mut stripped = on.clone();
    stripped.telemetry = None;
    for b in &mut stripped.batches {
        b.outcome.telemetry = None;
    }
    let off_identical = off.telemetry.is_none() && stripped == off;

    let total = |name: &str, label: &str| telemetry.get(name, label).map_or(0, |s| s.total());
    let tenants = on
        .tenants
        .iter()
        .map(|t| {
            let label = format!("tenant{}", t.tenant);
            let met = total(series::SLO_MET, &label);
            let missed = total(series::SLO_MISSED, &label);
            TenantSlo {
                tenant: t.tenant,
                served: t.served,
                expired: t.expired,
                attainment: if met + missed == 0 {
                    1.0
                } else {
                    met as f64 / (met + missed) as f64
                },
            }
        })
        .collect();

    TelemetryBenchResult {
        seed,
        service_cycles,
        window: tel_cfg.window,
        offered: on.offered,
        served: on.served,
        expired: on.expired,
        shed: on.shed,
        sampled_windows: telemetry.last_window().map_or(0, |w| w + 1),
        series_count: telemetry.series.len() as u64,
        link_labels: telemetry.labels(series::LINK_DELIVERIES).len() as u64,
        chip_labels: telemetry.labels(series::CHIP_BUSY).len() as u64,
        tenants,
        reproducible,
        off_identical,
        telemetry,
    }
}

impl TelemetryBenchResult {
    /// Writes the `"telemetry"` block of `BENCH_cosim.json` as the next
    /// value. The embedded `series` object is [`Telemetry::to_json`]
    /// verbatim, so the same seed reproduces it byte for byte.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("seed", self.seed)
            .field_u64("service_cycles", self.service_cycles)
            .field_u64("window_cycles", self.window)
            .field_u64("offered", self.offered)
            .field_u64("served", self.served)
            .field_u64("expired", self.expired)
            .field_u64("shed", self.shed)
            .field_u64("sampled_windows", self.sampled_windows)
            .field_u64("series_count", self.series_count)
            .field_u64("link_labels", self.link_labels)
            .field_u64("chip_labels", self.chip_labels);
        w.key("tenants").begin_array();
        for t in &self.tenants {
            w.begin_object()
                .field_u64("tenant", u64::from(t.tenant))
                .field_u64("served", t.served)
                .field_u64("expired", t.expired)
                .field_raw("slo_attainment", &format!("{:.4}", t.attainment))
                .end_object();
        }
        w.end_array();
        w.key("reproducible").bool(self.reproducible);
        w.key("off_identical").bool(self.off_identical);
        w.field_raw(
            "series",
            &crate::cosim_bench::indent_block(&self.telemetry.to_json(), 4),
        );
        w.end_object();
    }
}

/// Printable report lines for `repro telemetry` output, with ASCII
/// sparklines over the sampled windows.
pub fn telemetry_lines(r: &TelemetryBenchResult) -> Vec<String> {
    let t = &r.telemetry;
    let last = t.last_window().unwrap_or(0);
    let mut out = vec![
        format!(
            "window {} cycles x {} sampled; {} series over {} links, {} chips; seed {}",
            r.window, r.sampled_windows, r.series_count, r.link_labels, r.chip_labels, r.seed
        ),
        format!(
            "offered {}, served {}, expired {}, shed {}",
            r.offered, r.served, r.expired, r.shed
        ),
    ];
    for ten in &r.tenants {
        let label = format!("tenant{}", ten.tenant);
        let tp = t
            .get(series::SERVE_THROUGHPUT, &label)
            .map(|s| s.dense(0, last))
            .unwrap_or_default();
        out.push(format!(
            "  {label}: throughput |{}| slo attainment {:5.1}%",
            sparkline(&tp),
            ten.attainment * 100.0
        ));
    }
    if let Some(depth) = t.get(series::SERVE_QUEUE_DEPTH, "") {
        out.push(format!(
            "  queue depth |{}|",
            sparkline(&depth.dense(0, last))
        ));
    }
    out.push(format!(
        "bit-reproducible: {}; sampling-off identical: {}",
        r.reproducible, r.off_identical
    ));
    out
}

fn point_fields(w: &mut JsonWriter, p: &ServePoint) {
    w.begin_object()
        .field_raw("load", &format!("{:.2}", p.load))
        .field_u64("batch_window", p.batch_window)
        .field_u64("offered", p.offered)
        .field_u64("served", p.served)
        .field_u64("shed", p.shed)
        .field_u64("expired", p.expired)
        .field_u64("batches", p.batches)
        .field_raw("mean_batch", &format!("{:.3}", p.mean_batch))
        .field_raw("p50_cycles", &format!("{:.0}", p.p50))
        .field_raw("p99_cycles", &format!("{:.0}", p.p99))
        .field_raw("p999_cycles", &format!("{:.0}", p.p999))
        .field_u64("max_queue_depth", p.max_queue_depth);
    w.key("all_certified").bool(p.all_certified);
    w.end_object();
}

impl ServingBenchResult {
    /// Writes the `"serving"` block of `BENCH_cosim.json` as the next
    /// value.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("model", &self.model)
            .field_u64("seed", self.seed)
            .field_u64("service_cycles", self.service_cycles)
            .field_u64("horizon_cycles", self.horizon);
        w.key("sweep").begin_array();
        for p in &self.sweep {
            point_fields(w, p);
        }
        w.end_array();
        w.key("overload");
        point_fields(w, &self.overload);
        w.key("tenant_burst").begin_object();
        w.key("all_certified").bool(self.burst_certified);
        w.key("tenants").begin_array();
        for t in &self.burst_tenants {
            w.begin_object()
                .field_u64("tenant", u64::from(t.tenant))
                .field_u64("offered", t.offered)
                .field_u64("served", t.served)
                .field_u64("shed", t.shed)
                .field_u64("shed_queue_full", t.shed_queue_full)
                .field_u64("shed_over_quota", t.shed_over_quota)
                .field_raw("p50_cycles", &format!("{:.0}", t.p50))
                .field_raw("p99_cycles", &format!("{:.0}", t.p99))
                .end_object();
        }
        w.end_array();
        w.end_object();
        w.key("reproducible").bool(self.reproducible);
        w.end_object();
    }
}

/// Printable report lines for the `repro` binary.
pub fn lines_for(r: &ServingBenchResult) -> Vec<String> {
    let mut out = vec![
        format!("model: {}", r.model),
        format!(
            "service time μ⁻¹ = {} cycles (batch-1 launch), horizon {} cycles, seed {}",
            r.service_cycles, r.horizon, r.seed
        ),
        "load×window sweep (open-loop Poisson, every launch certified):".to_string(),
    ];
    for p in &r.sweep {
        out.push(format!(
            "  load {:.2}μ window {:>8}: {:>3} offered, {:>3} served, {} shed, {:>3} batches (mean {:.2}), p50 {:>9.0} p99 {:>9.0} p999 {:>9.0} cycles, depth {} certified={}",
            p.load, p.batch_window, p.offered, p.served, p.shed, p.batches, p.mean_batch,
            p.p50, p.p99, p.p999, p.max_queue_depth, p.all_certified
        ));
    }
    let o = &r.overload;
    out.push(format!(
        "overload {:.1}μ, queue 8: {} offered, {} served, {} shed (backpressure), p99 {:.0} cycles, certified={}",
        o.load, o.offered, o.served, o.shed, o.p99, o.all_certified
    ));
    out.push("tenant burst (0 = steady 0.4μ prio 0; 1 = burst 2.5μ prio 1, quota 16):".to_string());
    for t in &r.burst_tenants {
        out.push(format!(
            "  tenant {}: {:>3} offered, {:>3} served, {} shed ({} backpressure, {} quota), p50 {:>9.0} p99 {:>9.0} cycles",
            t.tenant, t.offered, t.served, t.shed, t.shed_queue_full, t.shed_over_quota, t.p50, t.p99
        ));
    }
    out.push(format!(
        "burst launches certified: {}; sweep bit-reproducible from seed: {}",
        r.burst_certified, r.reproducible
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny end-to-end measure: a 4-encoder model over a short horizon.
    /// Asserts the acceptance shape — ≥3 loads × ≥2 windows, every launch
    /// certified, overload sheds, burst quota protects the steady tenant,
    /// and the sweep reproduces from its seed.
    #[test]
    fn tiny_measure_is_certified_shedding_and_reproducible() {
        let r = measure_serving(4, 12, 9);
        assert_eq!(r.sweep.len(), LOADS.len() * 2);
        assert!(r.sweep.iter().all(|p| p.offered > 0));
        assert!(r.sweep.iter().all(|p| p.all_certified), "{:#?}", r.sweep);
        assert!(
            r.sweep.iter().all(|p| p.shed == 0),
            "ample queue at <=0.8 load"
        );
        for p in &r.sweep {
            assert!(p.p50 <= p.p99 && p.p99 <= p.p999);
            assert!(p.p50 > 0.0, "served requests take time");
        }
        assert!(
            r.overload.shed > 0,
            "2x load against an 8-deep queue must shed"
        );
        assert!(r.overload.all_certified);
        assert!(r.reproducible, "sweep point must reproduce bit-for-bit");
        assert!(r.burst_certified);
        assert_eq!(r.burst_tenants.len(), 2);
        assert_eq!(r.burst_tenants[0].shed, 0, "steady tenant is protected");
        let burst = &r.burst_tenants[1];
        assert_eq!(
            burst.shed,
            burst.shed_queue_full + burst.shed_over_quota,
            "shed splits exactly into its two causes"
        );
        if burst.shed > 0 {
            assert_eq!(
                burst.shed_queue_full, 0,
                "a 64-deep queue never backpressures the burst; its quota does"
            );
        }
        let json = crate::render(|w| r.write_json(w));
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("\"p999_cycles\""));
        assert!(json.contains("\"reproducible\": true"));
    }

    /// Tiny telemetry measure: sampling must change nothing but the
    /// telemetry fields, reproduce bit-for-bit, and carry per-tenant SLO
    /// series plus link/chip heatmaps into the JSON block.
    #[test]
    fn tiny_telemetry_measure_is_identical_off_and_reproducible_on() {
        let r = measure_telemetry(4, 8, 9);
        assert!(r.reproducible, "same seed, same bytes");
        assert!(r.off_identical, "sampling off is bit-identical");
        assert!(r.offered > 0 && r.served > 0);
        assert!(r.sampled_windows > 1, "run spans multiple windows");
        assert!(r.series_count > 0);
        assert!(
            r.link_labels > 0 && r.chip_labels > 0,
            "datapath launches put heatmaps on the timeline"
        );
        assert_eq!(r.tenants.len(), 2);
        assert!(
            r.tenants.iter().any(|t| t.attainment < 1.0) || r.expired > 0,
            "the tight tenant must show real SLO pressure"
        );
        for t in &r.tenants {
            assert!((0.0..=1.0).contains(&t.attainment));
        }
        let json = crate::render(|w| r.write_json(w));
        for key in [
            "\"window_cycles\"",
            "\"sampled_windows\"",
            "\"tenants\"",
            "\"slo_attainment\"",
            "\"series\"",
            "\"off_identical\": true",
            "\"reproducible\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(json.contains(series::LINK_DELIVERIES));
        assert!(json.contains(series::CHIP_BUSY));
        let lines = telemetry_lines(&r);
        assert!(lines.iter().any(|l| l.contains("throughput")));
    }
}
