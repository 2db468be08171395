//! Deterministic multi-tenant serving frontend over the staged launch
//! pipeline.
//!
//! The paper's deployments run one compiled schedule thousands of times
//! under sustained traffic (§5); what matters there is tail latency under
//! open-loop load, not peak throughput. This module puts a request queue
//! in front of [`LaunchEngine`](crate::launch::LaunchEngine):
//!
//! - [`WorkQueue`] — totally ordered by `(priority, deadline,
//!   insertion_seq)`, with [`WorkQueue::try_push`] backpressure and
//!   admission control (queue capacity + per-tenant quota).
//! - [`Server`] — a virtual-time discrete-event loop: seeded, no wall
//!   clock anywhere, so a whole serving run is bit-reproducible from its
//!   config. Requests batch into launches under a configurable batch
//!   window; each batch dispatches through [`Runtime::launch_at`] at its
//!   dispatch cycle and its service time is the launch's
//!   [`LaunchOutcome::timeline_cycles`](crate::runtime::LaunchOutcome::timeline_cycles).
//! - One cycle-ordered stream of `Request*`/`Batch*` events on
//!   [`SERVING_LANE`], kept off the chip and runtime lanes so launch
//!   traces stay comparable with or without a frontend. Each event is
//!   built once and every observer — the trace, the flight recorder's
//!   tail and triggers, per-tenant accounting, the telemetry sampler —
//!   sees it at its own cycle. The report's totals and `serve.*`
//!   metrics are folds over the per-tenant stats and the batch log.
//!
//! # Batch-window semantics
//!
//! The window opens when a request enters an *empty* queue at cycle `c`:
//! the next dispatch happens at `max(server_free_at, c + batch_window)`.
//! A dispatch pops the queue head and folds in successive same-model
//! requests (up to `max_batch`), never reordering past a
//! different-model entry — strict queue order is preserved.

use crate::flight::{FlightConfig, FlightRecorder, IncidentReport, IncidentTrigger};
use crate::runtime::{mix64, ExecMode, Runtime, RuntimeError, EPOCH_GAP_CYCLES};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tsm_compiler::graph::Graph;
use tsm_trace::profile::profile;
use tsm_trace::telemetry::{series, Sampler, Telemetry, TelemetryConfig};
use tsm_trace::{
    names, AttributionReport, CycleHistogram, EventKind, LatencyBreakdown, Metrics, RingSink,
    RunMetrics, ShedReason, Tracer, SERVING_LANE,
};

/// Why admission control rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity.
    QueueFull,
    /// The tenant already holds its full quota of queued requests.
    TenantOverQuota,
}

/// A bounded priority queue totally ordered by
/// `(priority, deadline, insertion_seq)` — lower priority value first,
/// earlier deadline first, FIFO within ties. Admission control is
/// explicit: [`WorkQueue::try_push`] refuses (backpressure) instead of
/// growing without bound, and a per-tenant quota keeps one bursting
/// tenant from squeezing everyone else out of the queue.
#[derive(Debug, Clone)]
pub struct WorkQueue<T> {
    /// `(priority, deadline, seq) → (tenant, item)`; `seq` is unique, so
    /// the key order is total.
    entries: BTreeMap<(u8, u64, u64), (u32, T)>,
    capacity: usize,
    tenant_quota: usize,
    per_tenant: HashMap<u32, usize>,
    next_seq: u64,
}

impl<T> WorkQueue<T> {
    /// An empty queue admitting at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        WorkQueue {
            entries: BTreeMap::new(),
            capacity,
            tenant_quota: usize::MAX,
            per_tenant: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Caps any single tenant's queued entries (builder style).
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Admits an entry, or refuses with the reason. Refused entries cost
    /// nothing and leave the queue unchanged.
    pub fn try_push(
        &mut self,
        priority: u8,
        deadline: u64,
        tenant: u32,
        item: T,
    ) -> Result<(), AdmitError> {
        if self.entries.len() >= self.capacity {
            return Err(AdmitError::QueueFull);
        }
        let count = self.per_tenant.entry(tenant).or_insert(0);
        if *count >= self.tenant_quota {
            return Err(AdmitError::TenantOverQuota);
        }
        *count += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries
            .insert((priority, deadline, seq), (tenant, item));
        Ok(())
    }

    /// Removes and returns the least entry in the total order.
    pub fn pop(&mut self) -> Option<T> {
        let (_, (tenant, item)) = self.entries.pop_first()?;
        match self.per_tenant.entry(tenant) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                // Remove exhausted tenants outright: a long-running server
                // must stay bounded by the tenants currently queued, not
                // by every tenant id ever seen.
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("tenant counted on push"),
        }
        Some(item)
    }

    /// The least entry, without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.entries.first_key_value().map(|(_, (_, item))| item)
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tenants with at least one queued entry — the size of the
    /// per-tenant accounting map, which [`WorkQueue::pop`] keeps bounded
    /// by removing entries that reach zero.
    pub fn tracked_tenants(&self) -> usize {
        self.per_tenant.len()
    }
}

/// One offered inference request, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival cycle.
    pub at: u64,
    /// Tenant the request belongs to (fairness accounting key).
    pub tenant: u32,
    /// Model id, as returned by [`Server::add_model`].
    pub model: u32,
    /// Priority class; lower is more urgent.
    pub priority: u8,
    /// Cycles after arrival by which the tenant wants the answer;
    /// `deadline = at + deadline_slack` is the queue-ordering key after
    /// priority, and it is enforced at dispatch time: a request whose
    /// deadline has already passed when the dispatcher reaches it is
    /// dropped as [`RequestOutcome::Expired`] instead of being launched.
    /// (Expiry is checked in virtual time, so it is deterministic.)
    pub deadline_slack: u64,
}

/// Serving knobs. Everything is virtual cycles and seeds — a
/// [`Server::serve`] run is a pure function of `(config, offered
/// requests, runtime state)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Cycles the dispatcher waits after a request enters an empty queue
    /// before launching, hoping to batch followers. 0 = dispatch as soon
    /// as the server is free.
    pub batch_window: u64,
    /// Most requests folded into one launch.
    pub max_batch: usize,
    /// Work-queue admission capacity.
    pub queue_capacity: usize,
    /// Per-tenant cap on queued requests ([`AdmitError::TenantOverQuota`]).
    pub tenant_quota: usize,
    /// Base seed; batch `i`'s launch seed is derived from it (recorded in
    /// [`BatchRecord::seed`]).
    pub seed: u64,
    /// Certify every launch against the conformance profiler
    /// ([`tsm_trace::profile`]). Requires [`ExecMode::Datapath`]. Each
    /// launch then runs base-0 into a private scratch sink (the serving
    /// timeline keeps only the `Request*`/`Batch*` events), and
    /// [`BatchRecord::certified`] reports the verdict.
    pub certify: bool,
    /// Windowed telemetry sampling ([`tsm_trace::telemetry`]). `Some`
    /// makes [`ServeReport::telemetry`] carry per-tenant throughput,
    /// queue-depth, shed/expired and SLO-attainment series plus the
    /// launches' link/chip heatmaps, all on `window`-cycle windows of the
    /// serving timeline. `None` (the default) is the pre-feature single
    /// branch: the report is bit-identical to a build without the
    /// feature. Sampling never changes event sequences or any other
    /// report field — it only observes.
    pub telemetry: Option<TelemetryConfig>,
    /// Per-request causal latency attribution
    /// ([`tsm_trace::attribution`]). `true` makes
    /// [`ServeReport::attribution`] carry one
    /// [`LatencyBreakdown`] per served request — stage components
    /// summing *exactly* to the measured enqueue→complete latency,
    /// verified for every request — aggregated into per-tenant/per-stage
    /// metrics with a critical-stage verdict. `false` (the default) is
    /// the pre-feature single branch: outcomes, traces and exporter
    /// bytes stay bit-identical to a build without the feature.
    pub attribution: bool,
    /// Bounded incident capture ([`crate::flight`]). `Some` arms a
    /// [`FlightRecorder`] for the run: sheds, in-queue expiries, SLO
    /// misses, faulted launches (replays/failovers) and Deviant
    /// certified batches snapshot the serving trace tail, the residency
    /// manager, and the queue state into [`ServeReport::incidents`],
    /// with the telemetry windows bracketing each incident attached at
    /// finish. `None` (the default) records nothing and changes
    /// nothing.
    pub flight: Option<FlightConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: 0,
            max_batch: 8,
            queue_capacity: 64,
            tenant_quota: usize::MAX,
            seed: 0,
            certify: false,
            telemetry: None,
            attribution: false,
            flight: None,
        }
    }
}

/// What happened to one offered request, indexed as offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Admission control refused it.
    Shed,
    /// Its deadline had already passed when the dispatcher reached it
    /// (in virtual time), so it was dropped unlaunched.
    Expired {
        /// The deadline that had passed.
        deadline: u64,
        /// Dispatch cycle at which the expiry was detected.
        at: u64,
    },
    /// Served in `batch`, completing at `completion` with
    /// enqueue→complete `latency` cycles.
    Served {
        /// Batch index that carried the request.
        batch: u32,
        /// Completion cycle.
        completion: u64,
        /// Enqueue→complete latency in cycles.
        latency: u64,
    },
}

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Monotone batch index within the serve run.
    pub batch: u32,
    /// Model the batch ran.
    pub model: u32,
    /// Requests folded in.
    pub size: u32,
    /// Dispatch cycle.
    pub dispatch: u64,
    /// Completion cycle (`dispatch + ` the launch's timeline width).
    pub completion: u64,
    /// The launch seed used — relaunching the model graph with this seed
    /// reproduces the batch's [`LaunchOutcome`](crate::LaunchOutcome)
    /// exactly (the launch-vs-serve identity tests do).
    pub seed: u64,
    /// Execution attempts the launch consumed (1 = clean first try).
    pub attempts: u32,
    /// Conformance verdict when [`ServeConfig::certify`] was on.
    pub certified: Option<bool>,
    /// The batch's full launch record — by the engine's determinism,
    /// bit-identical to `Runtime::launch(graph, seed)` standalone (the
    /// `serve_identity` suite asserts it).
    pub outcome: crate::runtime::LaunchOutcome,
}

/// Per-tenant fairness accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control
    /// (`shed_queue_full + shed_over_quota`).
    pub shed: u64,
    /// Sheds caused by queue backpressure ([`AdmitError::QueueFull`]).
    pub shed_queue_full: u64,
    /// Sheds caused by the tenant quota
    /// ([`AdmitError::TenantOverQuota`]).
    pub shed_over_quota: u64,
    /// Requests dropped at dispatch time because their deadline had
    /// passed.
    pub expired: u64,
    /// Enqueue→complete latency distribution of the served requests.
    pub latency: CycleHistogram,
}

/// The complete, comparable record of one [`Server::serve`] run.
/// `PartialEq` compares everything — two runs of the same config over the
/// same offered load must be `==` (asserted by the reproducibility tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests dropped at dispatch time because their deadline had
    /// passed.
    pub expired: u64,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Per-request outcome, indexed as offered.
    pub outcomes: Vec<RequestOutcome>,
    /// Global enqueue→complete latency distribution.
    pub latency: CycleHistogram,
    /// Per-tenant accounting, ascending tenant id.
    pub tenants: Vec<TenantStats>,
    /// Cycle of the last completion (0 when nothing was served).
    pub makespan: u64,
    /// `serve.*` counters/histograms plus the deepest queue depth seen,
    /// and the run's `residency.*` delta (plan-cache hits/misses/
    /// evictions accrued by this serve run, with the resident gauges).
    pub metrics: RunMetrics,
    /// Windowed time series of the run when [`ServeConfig::telemetry`]
    /// was set: per-tenant `serve.throughput`/`serve.enqueued`/
    /// `serve.shed`/`serve.expired` counters, `serve.slo.met`/
    /// `serve.slo.missed` (a request meets its SLO when it completes by
    /// its deadline), the `serve.queue_depth` gauge, and — in
    /// non-certify runs — the launches' `link.deliveries`/
    /// `chip.busy_cycles` heatmaps merged onto the serving timeline.
    /// `None` when telemetry is off.
    pub telemetry: Option<Telemetry>,
    /// Per-request latency breakdowns plus their per-tenant/per-stage
    /// aggregation when [`ServeConfig::attribution`] was on. Every
    /// breakdown has been verified: its stage components sum exactly to
    /// the request's measured latency. `None` when attribution is off.
    pub attribution: Option<AttributionReport>,
    /// Incidents captured by the [`FlightRecorder`] when
    /// [`ServeConfig::flight`] was set, in trigger order. `None` when
    /// the recorder was off.
    pub incidents: Option<Vec<IncidentReport>>,
}

/// A model registered with the server: a builder from batch size to the
/// logical graph that serves it.
type ModelBuilder = Box<dyn Fn(u32) -> Graph>;

/// The deterministic serving frontend: a [`WorkQueue`] feeding batches
/// into one [`Runtime`].
pub struct Server {
    rt: Runtime,
    cfg: ServeConfig,
    models: Vec<ModelBuilder>,
    /// Display names for telemetry series labels, keyed by tenant id.
    /// Unnamed tenants label as `tenant{id}`.
    tenant_names: BTreeMap<u32, String>,
}

impl Server {
    /// Wraps `rt` with serving config `cfg`. Register models with
    /// [`Server::add_model`] before serving.
    pub fn new(rt: Runtime, cfg: ServeConfig) -> Self {
        Server {
            rt,
            cfg,
            models: Vec::new(),
            tenant_names: BTreeMap::new(),
        }
    }

    /// Gives tenant `id` a display name, used as the label of its
    /// telemetry series (`serve.throughput[name]`, …). Purely
    /// presentational: accounting and ordering key on the id, and names
    /// pass through the JSON/Perfetto escapers, so hostile strings are
    /// safe. Unnamed tenants label as `tenant{id}`.
    pub fn name_tenant(&mut self, id: u32, name: &str) {
        self.tenant_names.insert(id, name.to_string());
    }

    /// The telemetry label of tenant `id`.
    pub fn tenant_label(&self, id: u32) -> String {
        self.tenant_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("tenant{id}"))
    }

    /// Registers a model: `builder(batch)` must return the logical graph
    /// serving a batch of that size. Returns the model id requests name.
    pub fn add_model(&mut self, builder: impl Fn(u32) -> Graph + 'static) -> u32 {
        self.models.push(Box::new(builder));
        (self.models.len() - 1) as u32
    }

    /// The serving config.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The wrapped runtime (inspection).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The wrapped runtime, mutable (e.g. to degrade links mid-story).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Unwraps the runtime.
    pub fn into_runtime(self) -> Runtime {
        self.rt
    }

    /// Serves an offered request timeline to completion and returns the
    /// full run record.
    ///
    /// The loop always takes the earliest of three sources, ordered by
    /// `(cycle, rank)`: the completion of the one batch in flight, the
    /// next dispatch, and the next arrival (arrivals at equal cycles keep
    /// their offered order). At equal cycles a completion goes first, then
    /// a dispatch, then an arrival — so an arrival at the dispatch cycle
    /// waits for the next window. Every serving event is emitted at its
    /// own cycle, so the trace and the flight recorder see one
    /// cycle-ordered stream, and incidents snapshot the queue and
    /// residency state as of the incident.
    ///
    /// Pure virtual time: the same `(config, offered, runtime)` always
    /// produces the same report, bit for bit.
    ///
    /// # Errors
    /// [`RuntimeError::Execution`] when `certify` is set outside
    /// [`ExecMode::Datapath`] or a request names an unregistered model,
    /// and any error of a batch's launch.
    pub fn serve(&mut self, offered: &[Request]) -> Result<ServeReport, RuntimeError> {
        if self.cfg.certify && self.rt.exec_mode() != ExecMode::Datapath {
            return Err(RuntimeError::Execution(
                "certify requires ExecMode::Datapath (statistical launches carry no delivery manifest)"
                    .into(),
            ));
        }
        if let Some((i, r)) = offered
            .iter()
            .enumerate()
            .find(|(_, r)| r.model as usize >= self.models.len())
        {
            return Err(RuntimeError::Execution(format!(
                "request {i} names model {}, but {} model(s) are registered",
                r.model,
                self.models.len()
            )));
        }
        let deadline_of = |id: usize| offered[id].at.saturating_add(offered[id].deadline_slack);
        // Arrival order, stable across equal cycles.
        let mut arrivals: Vec<usize> = (0..offered.len()).collect();
        arrivals.sort_by_key(|&i| offered[i].at);
        let mut arrivals = arrivals.into_iter().peekable();

        let user_sink = self.rt.sink.clone();
        let mut stracer = Tracer::new(user_sink.as_deref());
        // Telemetry, attribution and the flight recorder only observe:
        // each collects into its own report field, never into the serve
        // metrics or the trace, so turning one off changes nothing else
        // (pinned by the telemetry/attribution/flight suites). Telemetry
        // also arms the runtime's executor, so each batch's launch
        // carries link/chip heatmaps for the serving sampler to merge.
        let mut sampler = self.cfg.telemetry.map(Sampler::new);
        if let Some(tc) = self.cfg.telemetry {
            self.rt.set_telemetry(tc);
        }
        let mut breakdowns: Option<Vec<LatencyBreakdown>> = self.cfg.attribution.then(Vec::new);
        let mut flight = self.cfg.flight.map(FlightRecorder::new);

        let mut queue: WorkQueue<usize> =
            WorkQueue::new(self.cfg.queue_capacity).with_tenant_quota(self.cfg.tenant_quota);
        let mut outcomes = vec![RequestOutcome::Shed; offered.len()];
        let mut tenants: BTreeMap<u32, TenantStats> = BTreeMap::new();
        fn tenant_entry(tenants: &mut BTreeMap<u32, TenantStats>, t: u32) -> &mut TenantStats {
            tenants.entry(t).or_insert_with(|| TenantStats {
                tenant: t,
                offered: 0,
                served: 0,
                shed: 0,
                shed_queue_full: 0,
                shed_over_quota: 0,
                expired: 0,
                latency: CycleHistogram::default(),
            })
        }
        let res_before = self.rt.residency.stats();
        let mut batches: Vec<BatchRecord> = Vec::new();
        let mut max_depth = 0u64;
        // Opens when a request enters an empty queue; dispatch happens at
        // `max(server_free_at, window_deadline)`.
        let mut window_deadline = 0u64;
        // The requests of the batch in flight (always `batches.last()`)
        // and the window deadline in force when it dispatched. Attribution
        // needs the latter: by the completion, a later arrival into the
        // emptied queue may have opened a new window.
        let mut in_flight: Option<(Vec<usize>, u64)> = None;

        // The one place serving events go: the trace instant, the flight
        // tail, tenant accounting, the sampler, and any incident the event
        // fires, which snapshots the queue and residency as of `$cycle`. A
        // macro rather than a closure, so it can read the queue, the batch
        // log and the runtime in place between the loop's mutations.
        macro_rules! emit {
            ($cycle:expr, $kind:expr) => {{
                let (cycle, kind): (u64, EventKind) = ($cycle, $kind);
                stracer.instant(cycle, SERVING_LANE, kind);
                if let Some(f) = flight.as_mut() {
                    f.observe(cycle, kind);
                }
                let mut fired = [None, None];
                match kind {
                    EventKind::RequestEnqueue { tenant, .. } => {
                        tenant_entry(&mut tenants, tenant).offered += 1;
                        max_depth = max_depth.max(queue.len() as u64);
                        if let Some(s) = sampler.as_mut() {
                            let label = self.tenant_label(tenant);
                            s.count(series::SERVE_ENQUEUED, &label, cycle, 1);
                            s.level(series::SERVE_QUEUE_DEPTH, "", cycle, queue.len() as u64);
                        }
                    }
                    EventKind::RequestShed {
                        tenant,
                        request,
                        reason,
                    } => {
                        let stats = tenant_entry(&mut tenants, tenant);
                        stats.offered += 1;
                        stats.shed += 1;
                        // Record *which* limit fired — backpressure and
                        // quota enforcement are different operator
                        // problems (grow the queue vs re-tier a tenant).
                        match reason {
                            ShedReason::QueueFull => stats.shed_queue_full += 1,
                            ShedReason::TenantOverQuota => stats.shed_over_quota += 1,
                        }
                        if let Some(s) = sampler.as_mut() {
                            s.count(series::SERVE_SHED, &self.tenant_label(tenant), cycle, 1);
                        }
                        fired[0] = Some(IncidentTrigger::Shed {
                            request,
                            tenant,
                            reason,
                        });
                    }
                    EventKind::RequestExpired {
                        tenant,
                        request,
                        late,
                    } => {
                        tenant_entry(&mut tenants, tenant).expired += 1;
                        // An expired request is by definition an SLO miss:
                        // it was never answered at all.
                        if let Some(s) = sampler.as_mut() {
                            let label = self.tenant_label(tenant);
                            s.count(series::SERVE_EXPIRED, &label, cycle, 1);
                            s.count(series::SLO_MISSED, &label, cycle, 1);
                        }
                        fired[0] = Some(IncidentTrigger::Expired {
                            request,
                            tenant,
                            late,
                        });
                    }
                    EventKind::RequestComplete {
                        tenant,
                        request,
                        latency,
                    } => {
                        let stats = tenant_entry(&mut tenants, tenant);
                        stats.served += 1;
                        stats.latency.observe(latency);
                        // A served request meets its SLO when its answer
                        // arrives by its deadline (virtual time, so exact).
                        let deadline = deadline_of(request as usize);
                        if let Some(s) = sampler.as_mut() {
                            let label = self.tenant_label(tenant);
                            s.count(series::SERVE_THROUGHPUT, &label, cycle, 1);
                            let slo = if cycle <= deadline {
                                series::SLO_MET
                            } else {
                                series::SLO_MISSED
                            };
                            s.count(slo, &label, cycle, 1);
                        }
                        if cycle > deadline {
                            fired[0] = Some(IncidentTrigger::SloMiss {
                                request,
                                tenant,
                                late: cycle - deadline,
                            });
                        }
                    }
                    EventKind::BatchBegin { .. } => {
                        // Post-dispatch depth: how much work the batch
                        // left behind.
                        if let Some(s) = sampler.as_mut() {
                            s.level(series::SERVE_QUEUE_DEPTH, "", cycle, queue.len() as u64);
                        }
                    }
                    EventKind::BatchEnd { batch, .. } => {
                        let b = &batches[batch as usize];
                        if b.certified == Some(false) {
                            fired[0] = Some(IncidentTrigger::Deviant { batch });
                        }
                        let out = &b.outcome;
                        if !out.failovers.is_empty() || out.fec_total().uncorrectable > 0 {
                            fired[1] = Some(IncidentTrigger::Fault {
                                batch,
                                replays: u64::from(out.replays()),
                                failovers: out.failovers.len() as u64,
                            });
                        }
                    }
                    _ => unreachable!("only serving events are emitted"),
                }
                if let Some(f) = flight.as_mut() {
                    for trigger in fired.into_iter().flatten() {
                        f.trigger(
                            trigger,
                            cycle,
                            &self.rt.residency,
                            queue.len() as u64,
                            self.cfg.queue_capacity as u64,
                            queue.tracked_tenants() as u64,
                            self.cfg.tenant_quota as u64,
                        );
                    }
                }
            }};
        }

        loop {
            let free_at = batches.last().map_or(0, |b| b.completion);
            // The earliest source by `(cycle, rank)`. A dispatch is due no
            // earlier than `free_at`, so it never overtakes the completion
            // it waits on.
            let next = [
                in_flight.as_ref().map(|_| (free_at, 0)),
                (!queue.is_empty()).then(|| (free_at.max(window_deadline), 1)),
                arrivals.peek().map(|&id| (offered[id].at, 2)),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some((now, rank)) = next else { break };
            match rank {
                // The batch in flight completes.
                0 => {
                    let (requests, window) = in_flight.take().expect("a batch is in flight");
                    let b = batches.last().expect("the batch in flight is logged");
                    for id in requests {
                        let r = offered[id];
                        let latency = now - r.at;
                        outcomes[id] = RequestOutcome::Served {
                            batch: b.batch,
                            completion: now,
                            latency,
                        };
                        emit!(
                            now,
                            EventKind::RequestComplete {
                                tenant: r.tenant,
                                request: id as u32,
                                latency,
                            }
                        );
                        if let Some(bd) = breakdowns.as_mut() {
                            // The causal join: the dispatch point, the
                            // window the batch waited on, and the launch's
                            // own timeline decomposition. `from_dispatch`
                            // verifies the sum identity, so every served
                            // request either carries an exact breakdown or
                            // the serve run fails loudly.
                            let out = &b.outcome;
                            let breakdown = LatencyBreakdown::from_dispatch(
                                id as u32,
                                r.tenant,
                                b.batch,
                                r.at,
                                b.dispatch,
                                window,
                                now,
                                out.alignment_cycles,
                                out.span_cycles,
                                out.attempts(),
                                EPOCH_GAP_CYCLES,
                                out.compiles(),
                                out.reuses(),
                            )
                            .map_err(|e| RuntimeError::Execution(format!("attribution: {e}")))?;
                            bd.push(breakdown);
                        }
                    }
                    emit!(
                        now,
                        EventKind::BatchEnd {
                            batch: b.batch,
                            attempts: b.attempts,
                        }
                    );
                }
                1 => {
                    // A dispatch: the head plus successive same-model
                    // followers, in strict queue order, up to max_batch.
                    // Deadlines are enforced here, in virtual time: a
                    // popped request whose deadline has already passed is
                    // dropped as Expired without taking a batch slot — its
                    // answer could only arrive uselessly late, and
                    // launching it would delay every live request behind
                    // it.
                    let mut requests: Vec<usize> = Vec::new();
                    while requests.len() < self.cfg.max_batch.max(1)
                        && queue.peek().is_some_and(|&id| {
                            requests
                                .first()
                                .is_none_or(|&head| offered[head].model == offered[id].model)
                        })
                    {
                        let id = queue.pop().expect("peeked");
                        let deadline = deadline_of(id);
                        if deadline < now {
                            outcomes[id] = RequestOutcome::Expired { deadline, at: now };
                            emit!(
                                now,
                                EventKind::RequestExpired {
                                    tenant: offered[id].tenant,
                                    request: id as u32,
                                    late: now - deadline,
                                }
                            );
                        } else {
                            requests.push(id);
                        }
                    }
                    // Every queued request had expired; the next arrival
                    // (if any) reopens the batch window on an empty queue.
                    let Some(&head) = requests.first() else {
                        continue;
                    };
                    let batch = batches.len() as u32;
                    let size = requests.len() as u32;
                    emit!(now, EventKind::BatchBegin { batch, size });
                    let model = offered[head].model;
                    let seed = mix64(self.cfg.seed, u64::from(batch));
                    let graph = (self.models[model as usize])(size);
                    let (outcome, certified) = if self.cfg.certify {
                        // Certified launches run base-0 into a private
                        // scratch ring so the profiler's plan-vs-actual
                        // join sees exactly one launch at its planned
                        // coordinates.
                        let scratch = Arc::new(RingSink::new(1 << 18));
                        self.rt
                            .set_trace_sink(Arc::clone(&scratch) as Arc<dyn tsm_trace::TraceSink>);
                        let out = self.rt.launch_at(&graph, seed, 0);
                        match &user_sink {
                            Some(s) => self.rt.set_trace_sink(Arc::clone(s)),
                            None => self.rt.clear_trace_sink(),
                        }
                        let out = out?;
                        let planned = self
                            .rt
                            .planned_timeline()
                            .expect("datapath launch has a planned timeline");
                        let certified =
                            profile(&planned, &scratch.sorted_events(), scratch.dropped())
                                .map(|p| p.conformance.certified())
                                .unwrap_or(false);
                        (out, Some(certified))
                    } else {
                        let out = self.rt.launch_at(&graph, seed, now)?;
                        // Merge the launch's link/chip heatmaps onto the
                        // serving timeline. Certified launches run base-0,
                        // off this timeline, so their heatmaps stay on the
                        // batch's own outcome record instead.
                        if let (Some(s), Some(lt)) = (sampler.as_mut(), out.telemetry.as_ref()) {
                            s.absorb(lt);
                        }
                        (out, None)
                    };
                    batches.push(BatchRecord {
                        batch,
                        model,
                        size,
                        dispatch: now,
                        completion: now + outcome.timeline_cycles,
                        seed,
                        attempts: outcome.attempts(),
                        certified,
                        outcome,
                    });
                    in_flight = Some((requests, window_deadline));
                }
                // The next request arrives.
                _ => {
                    let id = arrivals.next().expect("peeked");
                    let r = offered[id];
                    let (tenant, request) = (r.tenant, id as u32);
                    let was_empty = queue.is_empty();
                    let kind = match queue.try_push(r.priority, deadline_of(id), tenant, id) {
                        Ok(()) => {
                            if was_empty {
                                window_deadline = now + self.cfg.batch_window;
                            }
                            EventKind::RequestEnqueue { tenant, request }
                        }
                        Err(why) => EventKind::RequestShed {
                            tenant,
                            request,
                            reason: match why {
                                AdmitError::QueueFull => ShedReason::QueueFull,
                                AdmitError::TenantOverQuota => ShedReason::TenantOverQuota,
                            },
                        },
                    };
                    emit!(now, kind);
                }
            }
        }

        // The totals and `serve.*` metrics fold the per-tenant stats and
        // the batch log; every admitted request ended served or expired.
        let tenants: Vec<TenantStats> = tenants.into_values().collect();
        let total = |f: fn(&TenantStats) -> u64| tenants.iter().map(f).sum::<u64>();
        let (served, shed, expired) =
            (total(|t| t.served), total(|t| t.shed), total(|t| t.expired));
        let mut latency = CycleHistogram::default();
        for t in &tenants {
            latency.merge(&t.latency);
        }
        let mut sizes = CycleHistogram::default();
        for b in &batches {
            sizes.observe(u64::from(b.size));
        }
        let metrics = Metrics::default();
        metrics.inc(names::SERVE_ENQUEUED, served + expired);
        metrics.inc(names::SERVE_SERVED, served);
        metrics.inc(names::SERVE_SHED, shed);
        metrics.inc(names::SERVE_SHED_QUEUE_FULL, total(|t| t.shed_queue_full));
        metrics.inc(names::SERVE_SHED_QUOTA, total(|t| t.shed_over_quota));
        metrics.inc(names::SERVE_EXPIRED, expired);
        metrics.inc(names::SERVE_BATCHES, batches.len() as u64);
        metrics.merge_histogram(names::SERVE_BATCH_SIZE, &sizes);
        metrics.merge_histogram(names::SERVE_LATENCY, &latency);
        metrics.set_gauge(names::SERVE_QUEUE_DEPTH, max_depth);
        // The run's residency behavior, as a delta over the manager's
        // lifetime counters — per-launch metrics stay untouched, so
        // single-model launch records remain bit-identical to the
        // pre-residency runtime.
        self.rt.residency.record_delta(&res_before, &metrics);
        let telemetry = sampler.map(Sampler::finish);
        let incidents = flight.map(|f| f.finish(telemetry.as_ref()));
        let attribution = match breakdowns {
            Some(b) => Some(
                // Re-verifies every breakdown while aggregating — the
                // per-request sums-to-total assertion of the serve run.
                AttributionReport::from_breakdowns(b)
                    .map_err(|e| RuntimeError::Execution(format!("attribution: {e}")))?,
            ),
            None => None,
        };
        Ok(ServeReport {
            offered: offered.len() as u64,
            served,
            shed,
            expired,
            makespan: batches.last().map_or(0, |b| b.completion),
            batches,
            outcomes,
            latency,
            tenants,
            metrics: metrics.snapshot(),
            telemetry,
            attribution,
            incidents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SparePolicy;
    use crate::system::System;
    use tsm_compiler::graph::OpKind;
    use tsm_topology::TspId;

    #[test]
    fn queue_orders_by_priority_then_deadline_then_seq() {
        let mut q: WorkQueue<u32> = WorkQueue::new(16);
        q.try_push(1, 50, 0, 0).unwrap();
        q.try_push(0, 90, 0, 1).unwrap();
        q.try_push(0, 90, 0, 2).unwrap(); // FIFO tie with the previous
        q.try_push(0, 10, 0, 3).unwrap();
        q.try_push(2, 0, 0, 4).unwrap();
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![3, 1, 2, 0, 4]);
    }

    #[test]
    fn queue_capacity_and_tenant_quota_refuse() {
        let mut q: WorkQueue<()> = WorkQueue::new(2).with_tenant_quota(1);
        q.try_push(0, 0, 7, ()).unwrap();
        assert_eq!(q.try_push(0, 0, 7, ()), Err(AdmitError::TenantOverQuota));
        q.try_push(0, 0, 8, ()).unwrap();
        assert_eq!(q.try_push(0, 0, 9, ()), Err(AdmitError::QueueFull));
        // popping frees both the slot and the quota
        q.pop().unwrap();
        q.try_push(0, 0, 7, ()).unwrap();
    }

    fn tiny_model(batch: u32) -> Graph {
        let mut g = Graph::new();
        // Span scales with batch so batching visibly changes service time.
        g.add(
            TspId(0),
            OpKind::Compute {
                cycles: 1_000 * batch as u64,
            },
            vec![],
        )
        .unwrap();
        g
    }

    fn server(cfg: ServeConfig) -> Server {
        let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
        let mut s = Server::new(rt, cfg);
        let id = s.add_model(tiny_model);
        assert_eq!(id, 0);
        s
    }

    fn req(at: u64, tenant: u32) -> Request {
        Request {
            at,
            tenant,
            model: 0,
            priority: 1,
            deadline_slack: 1_000_000,
        }
    }

    #[test]
    fn serve_batches_within_window_and_accounts_tenants() {
        let mut s = server(ServeConfig {
            batch_window: 500,
            max_batch: 8,
            ..ServeConfig::default()
        });
        // Three requests inside one window, one straggler far later.
        let offered = [req(0, 0), req(10, 1), req(20, 0), req(900_000, 1)];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.served, 4);
        assert_eq!(report.shed, 0);
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].size, 3);
        assert_eq!(report.batches[0].dispatch, 500);
        assert_eq!(report.batches[1].size, 1);
        let t0 = &report.tenants[0];
        let t1 = &report.tenants[1];
        assert_eq!((t0.tenant, t0.offered, t0.served), (0, 2, 2));
        assert_eq!((t1.tenant, t1.offered, t1.served), (1, 2, 2));
        assert_eq!(report.latency.count, 4);
        assert_eq!(report.metrics.counter(names::SERVE_BATCHES), 2);
    }

    #[test]
    fn overload_sheds_and_reports_backpressure() {
        let mut s = server(ServeConfig {
            queue_capacity: 2,
            batch_window: 1_000_000, // hold everything in the queue
            ..ServeConfig::default()
        });
        let offered: Vec<Request> = (0..5).map(|i| req(i, 0)).collect();
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.shed, 3);
        assert_eq!(report.served, 2);
        assert_eq!(report.metrics.counter(names::SERVE_SHED), 3);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| **o == RequestOutcome::Shed)
                .count(),
            3
        );
    }

    #[test]
    fn tenant_quota_protects_the_other_tenant() {
        let mut s = server(ServeConfig {
            queue_capacity: 64,
            tenant_quota: 2,
            batch_window: 1_000_000,
            ..ServeConfig::default()
        });
        // Tenant 0 bursts 6 requests at cycle 0; tenant 1 arrives later.
        let mut offered: Vec<Request> = (0..6).map(|_| req(0, 0)).collect();
        offered.push(req(5, 1));
        let report = s.serve(&offered).unwrap();
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        let t1 = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t0.shed, 4, "burst capped at the quota");
        assert_eq!(t1.shed, 0, "quota kept room for the quiet tenant");
    }

    #[test]
    fn pop_removes_exhausted_tenants_so_the_map_stays_bounded() {
        let mut q: WorkQueue<u32> = WorkQueue::new(4);
        // Churn many distinct tenant ids through a small queue: the
        // per-tenant map must track only tenants currently queued, not
        // every id ever seen.
        for tenant in 0..1_000u32 {
            q.try_push(0, tenant as u64, tenant, tenant).unwrap();
            if q.len() == 4 {
                q.pop().unwrap();
                q.pop().unwrap();
            }
            assert!(
                q.tracked_tenants() <= q.len(),
                "tenant map leaked: {} tracked, {} queued",
                q.tracked_tenants(),
                q.len()
            );
        }
        while q.pop().is_some() {}
        assert_eq!(q.tracked_tenants(), 0, "drained queue tracks no tenants");
    }

    #[test]
    fn shed_reasons_split_backpressure_from_quota() {
        let mut s = server(ServeConfig {
            queue_capacity: 3,
            tenant_quota: 2,
            batch_window: 1_000_000, // hold everything in the queue
            ..ServeConfig::default()
        });
        // Tenant 0 bursts four requests: 2 admitted, 2 over quota. Then
        // tenants 1 and 2 fill the last slot and hit backpressure.
        let offered = [
            req(0, 0),
            req(1, 0),
            req(2, 0),
            req(3, 0),
            req(4, 1),
            req(5, 2),
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.shed, 3);
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        let t2 = report.tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert_eq!((t0.shed_queue_full, t0.shed_over_quota), (0, 2));
        assert_eq!((t2.shed_queue_full, t2.shed_over_quota), (1, 0));
        for t in &report.tenants {
            assert_eq!(t.shed, t.shed_queue_full + t.shed_over_quota);
        }
        assert_eq!(report.metrics.counter(names::SERVE_SHED_QUOTA), 2);
        assert_eq!(report.metrics.counter(names::SERVE_SHED_QUEUE_FULL), 1);
        assert_eq!(report.metrics.counter(names::SERVE_SHED), 3);
    }

    #[test]
    fn stale_head_expires_at_dispatch_instead_of_launching() {
        let mut s = server(ServeConfig {
            batch_window: 5_000, // the head goes stale while the window is open
            ..ServeConfig::default()
        });
        let offered = [
            Request {
                deadline_slack: 100,
                ..req(0, 0)
            },
            req(10, 1), // ample slack: served
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.expired, 1);
        assert_eq!(report.served, 1);
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.outcomes[0],
            RequestOutcome::Expired {
                deadline: 100,
                at: 5_000
            }
        );
        assert!(matches!(report.outcomes[1], RequestOutcome::Served { .. }));
        let t0 = report.tenants.iter().find(|t| t.tenant == 0).unwrap();
        assert_eq!((t0.expired, t0.served, t0.shed), (1, 0, 0));
        assert_eq!(report.metrics.counter(names::SERVE_EXPIRED), 1);
        // Only the live request launched.
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].size, 1);
    }

    #[test]
    fn all_expired_queue_drains_without_launching() {
        let mut s = server(ServeConfig {
            batch_window: 10_000,
            ..ServeConfig::default()
        });
        let offered = [
            Request {
                deadline_slack: 1,
                ..req(0, 0)
            },
            Request {
                deadline_slack: 2,
                ..req(5, 0)
            },
        ];
        let report = s.serve(&offered).unwrap();
        assert_eq!((report.expired, report.served), (2, 0));
        assert!(report.batches.is_empty(), "nothing launched");
        assert_eq!(report.makespan, 0);
    }

    #[test]
    fn multi_model_round_robin_hits_the_residency_layer() {
        let mut s = server(ServeConfig::default());
        let other = s.add_model(|b| {
            let mut g = Graph::new();
            g.add(
                TspId(8),
                OpKind::Compute {
                    cycles: 700 * b as u64,
                },
                vec![],
            )
            .unwrap();
            g
        });
        // A,B,A,B,A,B with spaced arrivals: 2 compiles, then 4 hits — the
        // alternation that thrashed the old single-entry cache.
        let offered: Vec<Request> = (0..6)
            .map(|i| Request {
                model: if i % 2 == 0 { 0 } else { other },
                ..req(i * 100_000, 0)
            })
            .collect();
        let report = s.serve(&offered).unwrap();
        assert_eq!(report.served, 6);
        assert_eq!(report.metrics.counter(names::RES_MISSES), 2);
        assert_eq!(report.metrics.counter(names::RES_HITS), 4);
        assert_eq!(report.metrics.counter(names::RES_EVICTIONS), 0);
        assert_eq!(report.metrics.gauge(names::RES_RESIDENT_PLANS), Some(2));
    }

    #[test]
    fn serve_is_bit_reproducible() {
        let offered: Vec<Request> = (0..7).map(|i| req(i * 100, i as u32 % 2)).collect();
        let cfg = ServeConfig {
            batch_window: 250,
            seed: 42,
            ..ServeConfig::default()
        };
        let a = server(cfg).serve(&offered).unwrap();
        let b = server(cfg).serve(&offered).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn certify_requires_datapath() {
        let mut s = server(ServeConfig {
            certify: true,
            ..ServeConfig::default()
        });
        let err = s.serve(&[req(0, 0)]).unwrap_err();
        assert!(matches!(err, RuntimeError::Execution(ref m) if m.contains("certify")));
    }

    #[test]
    fn unregistered_model_is_an_error_not_a_panic() {
        let mut s = server(ServeConfig::default());
        let stray = Request {
            model: 3,
            ..req(10, 0)
        };
        let err = s.serve(&[req(0, 0), stray]).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Execution(ref m) if m.contains("request 1") && m.contains("model 3")),
            "{err:?}"
        );
    }

    #[test]
    fn different_models_never_share_a_batch() {
        let mut s = server(ServeConfig {
            batch_window: 1_000,
            ..ServeConfig::default()
        });
        let other = s.add_model(|b| {
            let mut g = Graph::new();
            g.add(
                TspId(8),
                OpKind::Compute {
                    cycles: 500 * b as u64,
                },
                vec![],
            )
            .unwrap();
            g
        });
        let offered = [
            req(0, 0),
            Request {
                model: other,
                ..req(1, 0)
            },
            req(2, 0),
        ];
        let report = s.serve(&offered).unwrap();
        // Queue order is FIFO here (same priority/deadline-slack shape up
        // to arrival): model 0, model 1, model 0 — no cross-model folding,
        // and no reordering past the model-1 entry.
        assert_eq!(report.batches.len(), 3);
        assert!(report.batches.iter().all(|b| b.size == 1));
    }
}
