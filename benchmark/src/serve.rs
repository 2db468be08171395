//! The serving workloads: `Server::serve` calls over open-loop Poisson
//! arrivals in virtual time.
//!
//! `serve-steady` serves BERT-Large from one long-lived server whose plan
//! cache set-up has filled for every batch size, certifying every batch:
//! execute, certification and the serving loop, with compile absent (the
//! residency read path). `serve-churn` serves three BERT depths, each
//! with a cross-node offload, from a fresh runtime per call under a zero
//! plan budget over marginal cables into node 1, with telemetry,
//! attribution and the flight recorder on: almost every launch compiles
//! (the residency write path), and replays and observer cost show.
//!
//! The traced run re-drives every served batch through the
//! `LaunchEngine` stages by hand on an identically prepared runtime and
//! asserts the replayed outcome equals the recorded one.

use crate::cosim::{exec_layers, payloads, PayloadSet};
use crate::report::{peak_rss_mb, MetricSet};
use crate::spans::Recorder;
use crate::stats::{rank_quantile, ratios, Digest, SplitMix};
use crate::{
    layer_ns, repeat_setup, warm_up, RunConfig, RunResult, Scale, Tally, Window, Workload,
};
use std::sync::Arc;
use std::time::Instant;
use tsm::compiler::graph::{Graph, OpKind};
use tsm::compiler::schedule::CompileOptions;
use tsm::core::{
    compile_plan, BatchRecord, CompiledPlan, CosimReport, ExecMode, ExecuteFailure, FlightConfig,
    LaunchEngine, LaunchOutcome, PlanExecutor, Request, RequestOutcome, Runtime, RuntimeError,
    ServeConfig, ServeReport, Server, SparePolicy, System,
};
use tsm::topology::{LinkId, NodeId, TspId};
use tsm::trace::profile::profile;
use tsm::trace::{names, Cursor, RingSink, TelemetryConfig, TraceSink, Tracer};
use tsm::workloads::{merge_arrivals, poisson_arrivals, BertConfig};

/// Launch seed of the set-up launches (calibration and cache warming).
const WARM_SEED: u64 = 0x5eed;

/// Replay budget on the marginal fabric: deep enough that a fault never
/// persists through it on these inputs, so no launch fails over twice and
/// exhausts the single spare (which would fail the call).
const MARGINAL_REPLAYS: u32 = 8;

/// Trace ring a certified launch records into, as `Server::serve` sizes it.
const CERTIFY_RING: usize = 1 << 18;

/// One open-loop arrival stream.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    /// Offered load as a fraction of the service rate μ.
    load: f64,
    /// Priority class.
    priority: u8,
    /// Deadline slack in service times.
    slack: f64,
}

/// A serving workload's shape.
#[derive(Debug, Clone)]
struct Spec {
    /// The models served; requests name them by index.
    models: Vec<Model>,
    /// Certify every batch against the conformance profiler.
    certify: bool,
    /// Marginal BER on every cable into node 1.
    marginal: bool,
    /// Plan-cache byte budget.
    budget: u64,
    /// Telemetry, attribution and the flight recorder on.
    observers: bool,
    /// One server for every call (its cache filled in set-up) rather than
    /// a fresh one per call.
    long_lived: bool,
    tenants: Vec<Tenant>,
    /// Arrival horizon of one call, in service times.
    horizon_services: u64,
    /// Work-queue capacity.
    queue: usize,
    /// Most requests folded into one launch.
    max_batch: u32,
    /// Calls in the untraced run's fixed pass.
    pass: usize,
    /// Calls in the traced run's fixed pass; the digest covers these.
    trace_pass: usize,
}

fn spec(workload: Workload, scale: Scale) -> Spec {
    let smoke = scale == Scale::Smoke;
    let seq = if smoke { 64 } else { 384 };
    if workload == Workload::ServeSteady {
        return Spec {
            models: vec![Model {
                encoders: if smoke { 4 } else { 24 },
                seq,
                offload: false,
            }],
            certify: true,
            marginal: false,
            budget: u64::MAX,
            observers: false,
            long_lived: true,
            tenants: vec![Tenant {
                load: 0.8,
                priority: 0,
                slack: 4.0,
            }],
            horizon_services: if smoke { 8 } else { 30 },
            queue: 256,
            max_batch: if smoke { 2 } else { 8 },
            pass: if smoke { 2 } else { 200 },
            trace_pass: if smoke { 2 } else { 8 },
        };
    }
    Spec {
        models: if smoke { vec![4, 8] } else { vec![8, 16, 24] }
            .into_iter()
            .map(|encoders| Model {
                encoders,
                seq,
                offload: true,
            })
            .collect(),
        certify: false,
        marginal: true,
        budget: 0,
        observers: true,
        long_lived: false,
        // One steady tenant with ample slack; one with half a service of
        // slack, so requests miss and expire.
        tenants: vec![
            Tenant {
                load: 0.6,
                priority: 0,
                slack: 8.0,
            },
            Tenant {
                load: 0.4,
                priority: 1,
                slack: 0.5,
            },
        ],
        horizon_services: if smoke { 6 } else { 12 },
        queue: 8,
        max_batch: if smoke { 2 } else { 8 },
        pass: if smoke { 2 } else { 200 },
        trace_pass: if smoke { 2 } else { 8 },
    }
}

/// One served model: BERT-Large-shaped encoders on a 4-stage pipeline.
#[derive(Debug, Clone, Copy)]
struct Model {
    encoders: usize,
    /// Sequence length: 384 as in SQuAD, shorter at smoke scale.
    seq: u64,
    /// Also stream activations to a chip on node 1. The pipeline itself
    /// stays on node 0, so without it no launch crosses the marginal
    /// cables.
    offload: bool,
}

impl Model {
    /// The logical graph serving a batch of `batch`.
    fn graph(self, batch: u32) -> Graph {
        let mut g = BertConfig {
            batch: u64::from(batch),
            seq: self.seq,
            ..BertConfig::with_encoders(self.encoders)
        }
        .build_pipeline_graph(4);
        if self.offload {
            g.add(
                TspId(0),
                OpKind::Transfer {
                    to: TspId(12),
                    bytes: 32_000,
                    allow_nonminimal: true,
                },
                vec![],
            )
            .expect("the offload has no dependencies");
        }
        g
    }
}

fn err(what: &str) -> impl Fn(RuntimeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn clean_runtime() -> Result<Runtime, String> {
    let system = System::with_nodes(4).map_err(|e| format!("system: {e}"))?;
    Ok(Runtime::new(system, SparePolicy::PerSystem).with_exec_mode(ExecMode::Datapath))
}

/// The runtime every call of the workload serves from, before any launch.
fn runtime(spec: &Spec) -> Result<Runtime, String> {
    let mut rt = clean_runtime()?.with_plan_budget(spec.budget);
    if spec.marginal {
        rt.set_ber(0.0, 2e-5);
        rt.set_max_replays(MARGINAL_REPLAYS);
        let bad: Vec<LinkId> = rt
            .system()
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a.node() == NodeId(1) || l.b.node() == NodeId(1))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        for l in bad {
            rt.degrade_link(l);
        }
    }
    Ok(rt)
}

/// The service time μ⁻¹: a batch-1 launch of the middle model on a clean
/// runtime.
fn calibrate(spec: &Spec) -> Result<u64, String> {
    Ok(clean_runtime()?
        .launch(&spec.models[spec.models.len() / 2].graph(1), WARM_SEED)
        .map_err(err("calibration launch"))?
        .timeline_cycles)
}

/// Fills a long-lived runtime's plan cache with every model at every
/// batch size, so each timed launch is a hit.
fn warm(spec: &Spec, rt: &mut Runtime) -> Result<(), String> {
    if spec.long_lived {
        for b in 1..=spec.max_batch {
            for m in &spec.models {
                rt.launch(&m.graph(b), WARM_SEED)
                    .map_err(err("warm-up launch"))?;
            }
        }
    }
    Ok(())
}

/// Which observers a server runs with.
#[derive(Debug, Clone, Copy)]
struct Observers {
    telemetry: bool,
    attribution: bool,
    flight: bool,
}

fn serve_config(spec: &Spec, service: u64, seed: u64, obs: Observers) -> ServeConfig {
    ServeConfig {
        batch_window: service / 2,
        max_batch: spec.max_batch as usize,
        queue_capacity: spec.queue,
        tenant_quota: usize::MAX,
        seed,
        certify: spec.certify,
        telemetry: obs.telemetry.then_some(TelemetryConfig {
            window: (service / 2).max(1),
            slo_permille: 990,
        }),
        attribution: obs.attribution,
        flight: obs.flight.then_some(FlightConfig {
            trace_tail: 16,
            max_incidents: 64,
        }),
    }
}

fn server(spec: &Spec, rt: Runtime, cfg: ServeConfig) -> Server {
    let mut s = Server::new(rt, cfg);
    for &m in &spec.models {
        s.add_model(move |b| m.graph(b));
    }
    s
}

/// The requests of call `call`: each tenant's Poisson stream over the
/// horizon, merged, each request's model drawn from the seed.
fn offered(spec: &Spec, service: u64, seed: u64, call: u64) -> Vec<Request> {
    let horizon = service * spec.horizon_services;
    let streams: Vec<_> = spec
        .tenants
        .iter()
        .enumerate()
        .map(|(t, ten)| {
            poisson_arrivals(
                SplitMix::keyed(seed, &[call, t as u64]).next_u64(),
                ten.load / service as f64,
                horizon,
                t as u32,
                ten.priority,
                (ten.slack * service as f64) as u64,
            )
        })
        .collect();
    let mut pick = SplitMix::keyed(seed, &[call, u64::MAX]);
    merge_arrivals(&streams)
        .iter()
        .map(|a| Request {
            at: a.at,
            tenant: a.tenant,
            model: (pick.next_u64() % spec.models.len() as u64) as u32,
            priority: a.priority,
            deadline_slack: a.deadline_slack,
        })
        .collect()
}

/// Digest of one call's simulated results: request outcomes, batches and
/// the latency histogram.
fn digest_serve(rep: &ServeReport) -> u64 {
    let mut d = Digest::default();
    for w in [rep.offered, rep.served, rep.shed, rep.expired, rep.makespan] {
        d.word(w);
    }
    for o in &rep.outcomes {
        let words = match *o {
            RequestOutcome::Shed => [0, 0, 0, 0],
            RequestOutcome::Expired { deadline, at } => [1, deadline, at, 0],
            RequestOutcome::Served {
                batch,
                completion,
                latency,
            } => [2, u64::from(batch), completion, latency],
        };
        d.words(words.into_iter());
    }
    for b in &rep.batches {
        let certified = b.certified.map_or(2, u64::from);
        d.words(
            [
                u64::from(b.batch),
                u64::from(b.model),
                u64::from(b.size),
                b.dispatch,
                b.completion,
                b.seed,
                u64::from(b.attempts),
                certified,
                b.outcome.span_cycles,
                b.outcome.timeline_cycles,
                b.outcome.failovers.len() as u64,
            ]
            .into_iter(),
        );
        d.words(b.outcome.dst_digests.iter().copied());
    }
    d.words(rep.latency.buckets.iter().copied());
    d.word(rep.latency.count);
    d.word(rep.latency.sum);
    d.0
}

/// The checks every served call must pass.
fn check_report(spec: &Spec, offered: &[Request], rep: &ServeReport) -> Vec<String> {
    let mut errors = Vec::new();
    if rep.offered != offered.len() as u64
        || rep.outcomes.len() != offered.len()
        || rep.served + rep.shed + rep.expired != rep.offered
    {
        errors.push("requests are not conserved".to_string());
    }
    if spec.certify {
        let bad = rep
            .batches
            .iter()
            .filter(|b| b.certified != Some(true))
            .count();
        if bad > 0 {
            errors.push(format!(
                "{bad} of {} batches not certified",
                rep.batches.len()
            ));
        }
    }
    if spec.observers
        && (rep.telemetry.is_none() || rep.attribution.is_none() || rep.incidents.is_none())
    {
        errors.push("an observer's report is missing".to_string());
    }
    errors
}

/// Requests of a call that completed by their deadline.
fn slo_met(offered: &[Request], rep: &ServeReport) -> u64 {
    offered
        .iter()
        .zip(&rep.outcomes)
        .filter(|(r, o)| {
            matches!(o, RequestOutcome::Served { completion, .. }
                if *completion <= r.at.saturating_add(r.deadline_slack))
        })
        .count() as u64
}

/// Launches batch `b` the way `Server::serve` did: a certified launch runs
/// at base 0 into a scratch ring and is then profiled.
fn launch_plain(
    rt: &mut Runtime,
    g: &Graph,
    b: &BatchRecord,
    certify: bool,
) -> Result<(LaunchOutcome, Option<bool>), RuntimeError> {
    if !certify {
        return Ok((rt.launch_at(g, b.seed, b.dispatch)?, None));
    }
    let ring = Arc::new(RingSink::new(CERTIFY_RING));
    rt.set_trace_sink(ring.clone());
    let out = rt.launch_at(g, b.seed, 0);
    rt.clear_trace_sink();
    Ok((out?, Some(certified(rt, &ring))))
}

/// The conformance verdict of the launch just recorded into `ring`.
fn certified(rt: &Runtime, ring: &RingSink) -> bool {
    rt.planned_timeline()
        .and_then(|p| profile(&p, &ring.sorted_events(), ring.dropped()).ok())
        .is_some_and(|p| p.conformance.certified())
}

/// Span context of one replayed batch; sums the time its stages took.
struct BatchSpans<'a> {
    rec: &'a mut Recorder,
    parent: u32,
    op: u64,
    batch: u32,
    stage_ns: u64,
}

impl BatchSpans<'_> {
    fn open(&mut self, name: &'static str) -> u32 {
        self.rec
            .open(name, Some(self.parent), self.op, Some(self.batch))
    }

    fn close(&mut self, id: u32) {
        self.stage_ns += self.rec.close(id);
    }

    fn close_as(&mut self, id: u32, name: &'static str) {
        self.stage_ns += self.rec.close_as(id, name);
    }
}

/// `LaunchEngine::run`, stage by stage, each stage in its own span.
fn launch_staged(
    rt: &mut Runtime,
    g: &Graph,
    seed: u64,
    base: u64,
    sink: Option<&dyn TraceSink>,
    cx: &mut BatchSpans<'_>,
) -> Result<LaunchOutcome, RuntimeError> {
    let mut tracer = Tracer::new(sink);
    let id = cx.open("launch.new");
    let mut engine = LaunchEngine::new(rt, g, seed).with_base(base);
    cx.close(id);
    let id = cx.open("launch.admit");
    let admitted = engine.admit();
    cx.close(id);
    admitted?;
    let id = cx.open("launch.begin");
    engine.begin(&mut tracer);
    cx.close(id);
    loop {
        let id = cx.open("launch.compile");
        let decision = engine.compile_or_reuse(&mut tracer);
        let reused = matches!(decision, Ok(d) if d.reused);
        cx.close_as(
            id,
            if reused {
                "launch.reuse"
            } else {
                "launch.compile"
            },
        );
        decision?;
        let id = cx.open("launch.execute");
        let executed = engine.execute(&mut tracer);
        cx.close(id);
        match executed {
            Ok(success) => {
                let id = cx.open("launch.finish");
                let out = engine.finish(success, &mut tracer);
                cx.close(id);
                return Ok(out);
            }
            Err(ExecuteFailure::Fatal(e)) => return Err(e),
            Err(ExecuteFailure::Persistent(culprits)) => {
                let id = cx.open("launch.recover");
                let recovered = engine.recover(&culprits, &mut tracer);
                cx.close(id);
                recovered?;
            }
        }
    }
}

/// The batch's recorded outcome without the fields observers add.
fn stripped(b: &BatchRecord) -> LaunchOutcome {
    let mut out = b.outcome.clone();
    out.telemetry = None;
    out
}

/// The datapath plans resident in `rt`, via its warm-tier export.
fn resident_plans(rt: &Runtime) -> Result<Vec<CompiledPlan>, String> {
    let json = rt.residency().export_warm();
    let mut plans = Vec::new();
    let mut cur = Cursor::new(&json);
    cur.object(|cur, key| match key {
        "plans" => cur.array(|cur| {
            cur.object(|cur, key| match key {
                "plan" => {
                    plans.push(CompiledPlan::from_json(cur.raw_value()?)?);
                    Ok(())
                }
                _ => cur.raw_value().map(drop),
            })
        }),
        _ => cur.raw_value().map(drop),
    })?;
    Ok(plans)
}

/// The workload's datapath plans with seeded payloads and their serial
/// references: what the traced run times the plan, exec and pool layers
/// on. Recompiling each plan from its shapes must give the same plan.
struct PlanLayer {
    plans: Vec<CompiledPlan>,
    sets: Vec<PayloadSet>,
    refs: Vec<CosimReport>,
    exec: PlanExecutor,
}

impl PlanLayer {
    fn new(spec: &Spec, long: &Server, seed: u64, rec: &mut Recorder) -> Result<PlanLayer, String> {
        // A churn runtime keeps at most one plan; an unbounded probe
        // holds one per model.
        let probe;
        let rt = if spec.long_lived {
            long.runtime()
        } else {
            let mut rt = clean_runtime()?;
            for m in &spec.models {
                rt.launch(&m.graph(1), WARM_SEED)
                    .map_err(err("probe launch"))?;
            }
            probe = rt;
            &probe
        };
        let plans = resident_plans(rt)?;
        for (k, p) in plans.iter().enumerate() {
            let id = rec.open("plan.compile", None, k as u64, None);
            let again = compile_plan(rt.system().topology(), &p.shapes);
            rec.close(id);
            if again.as_ref() != Ok(p) {
                return Err(format!("plan {k} does not recompile to itself"));
            }
        }
        let sets: Vec<PayloadSet> = plans
            .iter()
            .enumerate()
            .map(|(k, p)| payloads(&p.shapes, seed, k as u64))
            .collect();
        let mut exec = PlanExecutor::new();
        let refs = plans
            .iter()
            .zip(&sets)
            .map(|(p, s)| exec.execute_serial(p, s))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("plan reference: {e}"))?;
        Ok(PlanLayer {
            plans,
            sets,
            refs,
            exec,
        })
    }

    /// Times one pooled and one serial execute of plan `op mod len`.
    fn time(&mut self, rec: &mut Recorder, op: usize) -> bool {
        let k = op % self.plans.len();
        let (plan, set) = (&self.plans[k], &self.sets[k]);
        let id = rec.open("exec.pool", None, op as u64, None);
        let pooled = self.exec.execute(plan, set);
        rec.close(id);
        let id = rec.open("exec.serial", None, op as u64, None);
        let serial = self.exec.execute_serial(plan, set);
        rec.close(id);
        pooled.as_ref() == Ok(&self.refs[k]) && serial.as_ref() == Ok(&self.refs[k])
    }
}

/// Tallies over the fixed pass: deterministic, so they repeat exactly.
#[derive(Debug, Default)]
struct Counts {
    attempts: u64,
    replays: u64,
    failovers: u64,
    instructions: u64,
    deliveries: u64,
    corrected: u64,
    uncorrectable: u64,
    ring_events: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: Vec<f64>,
    batches: u64,
    served: u64,
    shed: u64,
    expired: u64,
    /// Dispatch minus arrival of every served request.
    waits: Vec<u64>,
}

impl Counts {
    fn launch(&mut self, out: &LaunchOutcome, ring_events: usize) {
        self.attempts += u64::from(out.attempts());
        self.replays += u64::from(out.replays());
        self.failovers += out.failovers.len() as u64;
        self.instructions += out.metrics.counter(names::COSIM_INSTRUCTIONS);
        self.deliveries += out.metrics.counter(names::COSIM_DELIVERIES);
        let fec = out.fec_total();
        self.corrected += fec.corrected;
        self.uncorrectable += fec.uncorrectable;
        self.ring_events += ring_events as u64;
    }

    fn report(&mut self, offered: &[Request], rep: &ServeReport) {
        self.hits += rep.metrics.counter(names::RES_HITS);
        self.misses += rep.metrics.counter(names::RES_MISSES);
        self.evictions += rep.metrics.counter(names::RES_EVICTIONS);
        let bytes = rep.metrics.gauge(names::RES_RESIDENT_BYTES).unwrap_or(0);
        self.resident_bytes.push(bytes as f64);
        self.batches += rep.batches.len() as u64;
        self.served += rep.served;
        self.shed += rep.shed;
        self.expired += rep.expired;
        for (r, o) in offered.iter().zip(&rep.outcomes) {
            if let RequestOutcome::Served { batch, .. } = o {
                self.waits
                    .push(rep.batches[*batch as usize].dispatch - r.at);
            }
        }
    }
}

/// A fresh server for call `call`. Its launch seeds are the call's own,
/// so fault patterns are independent across calls.
fn fresh(
    spec: &Spec,
    service: u64,
    seed: u64,
    call: u64,
    obs: Observers,
) -> Result<Server, String> {
    let launch_seed = SplitMix::keyed(seed, &[call, u64::MAX - 1]).next_u64();
    Ok(server(
        spec,
        runtime(spec)?,
        serve_config(spec, service, launch_seed, obs),
    ))
}

/// State of one serving run after set-up.
struct Bench<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
    service: u64,
    all: Observers,
    /// The long-lived server (also built, but unused, for churn).
    long: Server,
    /// Each fixed-pass call's offered requests; op `i` serves call
    /// `i mod pass`.
    inputs: Vec<Vec<Request>>,
    /// Digest of each fixed-pass call's results.
    digests: Vec<u64>,
    tally: Tally,
}

impl Bench<'_> {
    fn pass(&self) -> usize {
        self.inputs.len()
    }

    /// Runs `f` on the server for `call` with its offered requests: the
    /// long-lived server, or a fresh one with observers `obs`.
    fn with_server<T>(
        &mut self,
        call: usize,
        obs: Observers,
        f: impl FnOnce(&mut Server, &[Request]) -> T,
    ) -> Result<T, String> {
        let mut own;
        let srv = if self.spec.long_lived {
            &mut self.long
        } else {
            own = fresh(self.spec, self.service, self.seed, call as u64, obs)?;
            &mut own
        };
        Ok(f(srv, &self.inputs[call]))
    }

    /// Serves op `i`, timing only the `serve` call. Returns the host
    /// seconds, the report, and what its checks found.
    fn serve(&mut self, i: usize) -> Result<(f64, Option<ServeReport>, Vec<String>), String> {
        let call = i % self.pass();
        let (secs, out) = self.with_server(call, self.all, |srv, offered| {
            let t = Instant::now();
            let out = srv.serve(offered);
            (t.elapsed().as_secs_f64(), out)
        })?;
        let rep = match out {
            Ok(rep) => rep,
            Err(e) => {
                if i < self.pass() {
                    self.digests.push(0);
                }
                return Ok((secs, None, vec![format!("serve: {e}")]));
            }
        };
        let mut errors = check_report(self.spec, &self.inputs[call], &rep);
        let d = digest_serve(&rep);
        if i < self.pass() {
            self.digests.push(d);
        } else if d != self.digests[call] {
            errors.push("results differ from the first serve of the same inputs".to_string());
        }
        Ok((secs, Some(rep), errors))
    }

    /// Serves the fixed inputs untimed and unchecked for a while first
    /// (see [`warm_up`]).
    fn settle(&mut self, scale: Scale) -> Result<(), String> {
        let pass = self.pass();
        let all = self.all;
        warm_up(scale, |i| {
            self.with_server(i % pass, all, |srv, offered| drop(srv.serve(offered)))
        })
    }

    fn untraced(&mut self, setup_secs: Vec<f64>, metrics: &mut MetricSet) -> Result<(), String> {
        let window = Window::new(self.seconds, self.pass());
        let (mut secs, mut served, mut makespans) = (Vec::new(), Vec::new(), Vec::new());
        let (mut latencies, mut met, mut offered_n) = (Vec::new(), 0u64, 0u64);
        let mut rss = 0.0;
        while window.more(secs.len()) {
            let i = secs.len();
            let (dt, rep, errors) = self.serve(i)?;
            self.tally.op_checks(i, errors);
            secs.push(dt);
            served.push(rep.as_ref().map_or(0.0, |r| r.served as f64));
            makespans.push(rep.as_ref().map_or(0.0, |r| r.makespan as f64));
            if let (true, Some(rep)) = (i < self.pass(), &rep) {
                latencies.extend(rep.outcomes.iter().filter_map(|o| match o {
                    RequestOutcome::Served { latency, .. } => Some(*latency),
                    _ => None,
                }));
                met += slo_met(&self.inputs[i], rep);
            }
            if i < self.pass() {
                offered_n += self.inputs[i].len() as u64;
            }
            if i + 1 == self.pass() {
                rss = peak_rss_mb();
            }
        }
        metrics.set_median("setup_s", setup_secs);
        metrics.set_host_time(&secs, &served, &makespans);
        metrics.set("peak_rss_mb", rss, vec![rss]);
        metrics.set_median("span_cycles", makespans[..self.pass()].to_vec());
        let samples: Vec<f64> = latencies.iter().map(|&c| c as f64).collect();
        metrics.set(
            "p50_cycles",
            rank_quantile(&latencies, 0.5) as f64,
            samples.clone(),
        );
        metrics.set(
            "p99_cycles",
            rank_quantile(&latencies, 0.99) as f64,
            samples,
        );
        let attainment = met as f64 / offered_n.max(1) as f64;
        metrics.set("slo_attainment", attainment, vec![attainment]);
        Ok(())
    }

    fn traced(
        &mut self,
        rec: &mut Recorder,
        scale: Scale,
        metrics: &mut MetricSet,
    ) -> Result<(), String> {
        let spec = self.spec;
        let mut layer = PlanLayer::new(spec, &self.long, self.seed, rec)?;
        let system = System::with_nodes(4).map_err(|e| format!("system: {e}"))?;
        // Replay runtimes for the long-lived server, prepared like its own;
        // a churn call gets fresh ones, like its server.
        let mut long_rts = Vec::new();
        if spec.long_lived {
            for _ in 0..2 {
                let mut rt = runtime(spec)?;
                warm(spec, &mut rt)?;
                long_rts.push(rt);
            }
        }
        let toggles = [
            Observers {
                telemetry: false,
                ..self.all
            },
            Observers {
                attribution: false,
                ..self.all
            },
            Observers {
                flight: false,
                ..self.all
            },
        ];
        let mut counts = Counts::default();
        let (mut plain_ns, mut traced_ns, mut loop_self_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut obs_ratios: [Vec<f64>; 3] = Default::default();
        let (mut serve_secs, mut served, mut makespans) = (Vec::new(), Vec::new(), Vec::new());
        self.settle(scale)?;
        let window = Window::new(self.seconds, self.pass());
        let mut i = 0;
        while window.more(i) {
            let (secs, rep, mut errors) = self.serve(i)?;
            let Some(rep) = rep else {
                self.tally.op_checks(i, errors);
                i += 1;
                continue;
            };
            let call = i % self.pass();
            let op = i as u64;
            serve_secs.push(secs);
            served.push(rep.served as f64);
            makespans.push(rep.makespan as f64);

            // The same batches through `Runtime::launch_at`, untraced.
            let (mut rt_a, mut rt_b);
            let (rt_a, rt_b) = match long_rts.as_mut_slice() {
                [a, b] => (a, b),
                _ => {
                    rt_a = runtime(spec)?;
                    rt_b = runtime(spec)?;
                    (&mut rt_a, &mut rt_b)
                }
            };
            let t = Instant::now();
            for b in &rep.batches {
                let g = spec.models[b.model as usize].graph(b.size);
                match launch_plain(rt_a, &g, b, spec.certify) {
                    Ok((out, cert)) if out == stripped(b) && cert == b.certified => {}
                    Ok(_) => errors.push(format!("batch {}: launch_at differs", b.batch)),
                    Err(e) => errors.push(format!("batch {}: launch_at: {e}", b.batch)),
                }
            }
            plain_ns.push(t.elapsed().as_nanos() as f64);

            // And stage by stage, every stage in a span.
            let root = rec.open("replay", None, op, None);
            let mut stage_ns = 0;
            let mut compiled = Vec::new();
            for b in &rep.batches {
                let bid = rec.open("batch", Some(root), op, Some(b.batch));
                let mut cx = BatchSpans {
                    rec: &mut *rec,
                    parent: bid,
                    op,
                    batch: b.batch,
                    stage_ns: 0,
                };
                let id = cx.open("graph.build");
                let g = spec.models[b.model as usize].graph(b.size);
                cx.close(id);
                let (out, cert, events) = if spec.certify {
                    let id = cx.open("certify.attach");
                    let ring = Arc::new(RingSink::new(CERTIFY_RING));
                    rt_b.set_trace_sink(ring.clone());
                    cx.close(id);
                    let out =
                        launch_staged(rt_b, &g, b.seed, 0, Some(&*ring as &dyn TraceSink), &mut cx);
                    let id = cx.open("certify.profile");
                    rt_b.clear_trace_sink();
                    let cert = out.is_ok() && certified(rt_b, &ring);
                    cx.close(id);
                    (out, Some(cert), ring.len())
                } else {
                    let out = launch_staged(rt_b, &g, b.seed, b.dispatch, None, &mut cx);
                    (out, None, 0)
                };
                stage_ns += cx.stage_ns;
                rec.close(bid);
                match out {
                    Ok(out) => {
                        if out != stripped(b) || cert != b.certified {
                            errors.push(format!("batch {}: staged launch differs", b.batch));
                        }
                        if i < self.pass() {
                            counts.launch(&out, events);
                        }
                        if out.compiles() > 0 {
                            compiled.push(g);
                        }
                    }
                    Err(e) => errors.push(format!("batch {}: staged launch: {e}", b.batch)),
                }
            }
            traced_ns.push(rec.close(root) as f64);
            // The compiler alone, once per launch that compiled.
            for g in &compiled {
                let id = rec.open("compiler.compile", None, op, None);
                let compiled = system.compile(g, CompileOptions::default());
                rec.close(id);
                if let Err(e) = compiled {
                    errors.push(format!("System::compile: {e}"));
                }
            }
            loop_self_us
                .push((secs * 1e9 - stage_ns as f64) / rep.batches.len().max(1) as f64 / 1e3);

            // Each observer off in turn: the results must not change.
            if spec.observers {
                let d = digest_serve(&rep);
                for (k, obs) in toggles.into_iter().enumerate() {
                    let (off_secs, off) = self.with_server(call, obs, |srv, offered| {
                        let t = Instant::now();
                        let off = srv.serve(offered);
                        (t.elapsed().as_secs_f64(), off)
                    })?;
                    obs_ratios[k].push(secs / off_secs);
                    if off.map(|r| digest_serve(&r)) != Ok(d) {
                        errors.push(format!("results change with observer set {k} off"));
                    }
                }
            }

            if !layer.time(rec, i) {
                errors.push("a plan execution differs from its serial reference".to_string());
            }
            if i < self.pass() {
                counts.report(&self.inputs[call], &rep);
            }
            self.tally.op_checks(i, errors);
            i += 1;
        }

        metrics.set_host_time(&serve_secs, &served, &makespans);
        let instructions: Vec<usize> = layer.plans.iter().map(|p| p.instructions).collect();
        exec_layers(
            metrics,
            rec,
            &instructions,
            counts.instructions,
            counts.deliveries,
            layer.exec.resolved_threads(),
        );
        let us =
            |name: &str| -> Vec<f64> { layer_ns(rec, name).iter().map(|ns| ns / 1e3).collect() };
        for (metric, span) in [
            ("graph.build_us", "graph.build"),
            ("launch.new_us", "launch.new"),
            ("launch.admit_us", "launch.admit"),
            ("launch.begin_us", "launch.begin"),
            ("launch.compile_us", "launch.compile"),
            ("launch.reuse_us", "launch.reuse"),
            ("launch.execute_us", "launch.execute"),
            ("launch.recover_us", "launch.recover"),
            ("launch.finish_us", "launch.finish"),
            ("compiler.compile_us", "compiler.compile"),
            ("certify.profile_us", "certify.profile"),
        ] {
            metrics.set_median(metric, us(span));
        }
        metrics.set_count("launch.attempts", counts.attempts);
        metrics.set_count("launch.replays", counts.replays);
        metrics.set_count("launch.failovers", counts.failovers);
        metrics.set_count("residency.hits", counts.hits);
        metrics.set_count("residency.misses", counts.misses);
        metrics.set_count("residency.evictions", counts.evictions);
        let lookups = (counts.hits + counts.misses).max(1) as f64;
        metrics.set(
            "residency.hit_rate",
            counts.hits as f64 / lookups,
            vec![counts.hits as f64 / lookups],
        );
        metrics.set_median("residency.resident_bytes", counts.resident_bytes);
        if spec.certify {
            metrics.set_count("certify.ring_events", counts.ring_events);
        }
        metrics.set_median("serving.loop_self_us", loop_self_us);
        metrics.set_count("serving.batches", counts.batches);
        let mean_batch = counts.served as f64 / counts.batches.max(1) as f64;
        metrics.set("serving.mean_batch", mean_batch, vec![mean_batch]);
        metrics.set_count("serving.shed", counts.shed);
        metrics.set_count("serving.expired", counts.expired);
        let p99 = rank_quantile(&counts.waits, 0.99) as f64;
        metrics.set(
            "serving.queue_wait_cycles_p99",
            p99,
            counts.waits.iter().map(|&w| w as f64).collect(),
        );
        for (metric, samples) in [
            "obs.telemetry_overhead",
            "obs.attribution_overhead",
            "obs.flight_overhead",
        ]
        .into_iter()
        .zip(obs_ratios)
        {
            metrics.set_median(metric, samples);
        }
        metrics.set_count("fault.fec_corrected", counts.corrected);
        metrics.set_count("fault.fec_uncorrectable", counts.uncorrectable);
        metrics.set_median("bench.trace_overhead", ratios(&traced_ns, &plain_ns));
        Ok(())
    }
}

pub(crate) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let spec = spec(cfg.workload, cfg.scale);
    let all = Observers {
        telemetry: spec.observers,
        attribution: spec.observers,
        flight: spec.observers,
    };
    // Set-up: calibrate μ, build the runtime and server, and fill the
    // long-lived server's plan cache.
    let (prep, setup_secs) = repeat_setup(cfg.scale, || {
        let service = calibrate(&spec)?;
        let mut rt = runtime(&spec)?;
        warm(&spec, &mut rt)?;
        let scfg = serve_config(&spec, service, cfg.seed, all);
        Ok((service, server(&spec, rt, scfg)))
    })?;
    let (service, long) = prep;
    let pass = if cfg.traced {
        spec.trace_pass
    } else {
        spec.pass
    };
    let inputs: Vec<Vec<Request>> = (0..pass as u64)
        .map(|c| offered(&spec, service, cfg.seed, c))
        .collect();
    let mut input = Digest::default();
    for r in inputs.iter().flatten() {
        input.words(
            [
                r.at,
                u64::from(r.tenant),
                u64::from(r.model),
                u64::from(r.priority),
                r.deadline_slack,
            ]
            .into_iter(),
        );
    }
    let mut bench = Bench {
        spec: &spec,
        seed: cfg.seed,
        seconds: cfg.seconds,
        service,
        all,
        long,
        inputs,
        digests: Vec::with_capacity(pass),
        tally: Tally::default(),
    };
    let mut metrics = MetricSet::default();
    let recorder = if cfg.traced {
        let mut rec = Recorder::default();
        bench.traced(&mut rec, cfg.scale, &mut metrics)?;
        Some(rec)
    } else {
        bench.settle(cfg.scale)?;
        bench.untraced(setup_secs, &mut metrics)?;
        None
    };
    let mut sim = Digest::default();
    sim.words(bench.digests[..spec.trace_pass].iter().copied());
    Ok(RunResult {
        attempted: bench.tally.attempted,
        failed: bench.tally.failed,
        failures: bench.tally.failures,
        metrics,
        sim_digest: sim.0,
        input_digest: input.0,
        pass,
        recorder,
    })
}
