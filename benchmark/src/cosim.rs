//! The co-simulation workloads: warm `PlanExecutor::execute` calls on a
//! plan compiled in set-up.
//!
//! `cosim-16` is the canonical 2-node system with 16 multi-hop transfers:
//! per-call fixed cost (reset, bind, pool dispatch and barrier, verify,
//! merge) dominates and compile is bypassed. `cosim-10440` is the 145-rack
//! dragonfly with 5,220 half-stride transfers: per-chip work and memory
//! dominate, levels are wide enough for the pool to win, and set-up
//! carries plan compile at scale. The seed chooses the payload bytes; the
//! schedule, and so every simulated cycle count, does not depend on it.

use crate::report::{peak_rss_mb, MetricSet};
use crate::spans::Recorder;
use crate::stats::{rank_quantile, ratios, Digest, SplitMix};
use crate::{
    layer_ns, repeat_setup, warm_up, RunConfig, RunResult, Scale, Tally, Window, Workload,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use tsm::chip::exec::Payload;
use tsm::core::cosim::{compile_plan, CompiledPlan, CosimReport, PlanExecutor, TransferShape};
use tsm::isa::Vector;
use tsm::topology::{Topology, TspId};
use tsm::trace::names;

/// Payload vectors for every transfer of a plan: `set[t][v]`.
pub(crate) type PayloadSet = Vec<Vec<Payload>>;

/// Distinct payload sets a run cycles through; its fixed pass executes
/// each once.
fn payload_sets(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::Cosim16, _) => 16,
        (_, Scale::Full) => 4,
        (_, Scale::Smoke) => 2,
    }
}

fn topology(workload: Workload, scale: Scale) -> Result<Topology, String> {
    let topo = match (workload, scale) {
        (Workload::Cosim16, _) => Topology::fully_connected_nodes(2),
        (_, Scale::Full) => Topology::rack_dragonfly(145),
        (_, Scale::Smoke) => Topology::rack_dragonfly(4),
    };
    topo.map_err(|e| format!("topology: {e}"))
}

/// The transfer shapes of the workload on `topo`.
fn shapes(workload: Workload, topo: &Topology) -> Vec<TransferShape> {
    if workload == Workload::Cosim16 {
        // Every TSP sources one flow to the first unused TSP on the other
        // node that it has no cable to, so each flow forwards through an
        // intermediate chip.
        let mut taken: HashSet<TspId> = HashSet::new();
        return (0..16u32)
            .map(|i| {
                let from = TspId(i);
                let to = topo
                    .tsps()
                    .find(|&t| {
                        t.node() != from.node()
                            && !taken.contains(&t)
                            && topo.links_between(from, t).is_empty()
                    })
                    .expect("two fully connected nodes have a non-adjacent peer for every TSP");
                taken.insert(to);
                TransferShape {
                    from,
                    to,
                    src_slice: 0,
                    src_offset: (i * 32) as u16,
                    dst_slice: 2,
                    dst_offset: (i * 32) as u16,
                    vectors: 8 + i % 4,
                }
            })
            .collect();
    }
    // Half-stride: TSP i streams two vectors to TSP i + N/2, so every chip
    // is the endpoint of exactly one transfer and every flow crosses nodes.
    let half = (topo.num_tsps() / 2) as u32;
    (0..half)
        .map(|i| TransferShape {
            from: TspId(i),
            to: TspId(i + half),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            vectors: 2,
        })
        .collect()
}

/// Seeded payload bytes for `shapes`; `set` selects one of a run's sets.
pub(crate) fn payloads(shapes: &[TransferShape], seed: u64, set: u64) -> PayloadSet {
    shapes
        .iter()
        .enumerate()
        .map(|(t, s)| {
            (0..s.vectors)
                .map(|v| {
                    let mut rng = SplitMix::keyed(seed, &[set, t as u64, u64::from(v)]);
                    let mut word = [0u8; 8];
                    Arc::new(Vector::from_fn(|b| {
                        if b % 8 == 0 {
                            word = rng.next_u64().to_le_bytes();
                        }
                        word[b % 8]
                    }))
                })
                .collect()
        })
        .collect()
}

/// Digest of payload bytes.
pub(crate) fn digest_payloads(d: &mut Digest, set: &PayloadSet) {
    for t in set {
        d.words(t.iter().map(|v| v.digest()));
    }
}

/// The cycle the last chip retired: the launch's simulated span.
pub(crate) fn span_cycles(report: &CosimReport) -> u64 {
    report.retire_cycles.values().copied().max().unwrap_or(0)
}

/// Folds the simulated results of one execution into `d`: destination
/// SRAM digests, instruction and delivery counts, arrivals and span.
pub(crate) fn digest_report(d: &mut Digest, report: &CosimReport) {
    d.words(report.dst_digests.iter().copied());
    d.word(report.instructions as u64);
    d.word(report.metrics.counter(names::COSIM_DELIVERIES));
    d.words(report.arrivals.iter().copied());
    d.word(span_cycles(report));
}

/// Set-up state kept from the last repetition.
struct Prepared {
    plan: CompiledPlan,
    exec: PlanExecutor,
}

pub(crate) fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let w = cfg.workload;
    let sets_n = payload_sets(w, cfg.scale);
    let sets: Vec<PayloadSet> = {
        let topo = topology(w, cfg.scale)?;
        let shapes = shapes(w, &topo);
        (0..sets_n as u64)
            .map(|s| payloads(&shapes, cfg.seed, s))
            .collect()
    };
    let mut input = Digest::default();
    for set in &sets {
        digest_payloads(&mut input, set);
    }

    // Set-up: topology, shapes, plan compile, and one execute that spawns
    // the pool and sizes the chip simulators.
    let mut rec = cfg.traced.then(Recorder::default);
    let mut rep = 0u64;
    let (prep, setup_secs) = repeat_setup(cfg.scale, || {
        let topo = topology(w, cfg.scale)?;
        let shapes = shapes(w, &topo);
        let span = rec
            .as_mut()
            .map(|r| r.open("plan.compile", None, rep, None));
        let plan = compile_plan(&topo, &shapes).map_err(|e| format!("compile_plan: {e}"))?;
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
        rep += 1;
        let mut exec = PlanExecutor::new();
        exec.execute(&plan, &sets[0])
            .map_err(|e| format!("warm-up execute: {e}"))?;
        Ok(Prepared { plan, exec })
    })?;
    let Prepared { plan, mut exec } = prep;

    // Serial references, one per payload set: every op is checked against
    // its reference, and the references are the digested results.
    let refs: Vec<CosimReport> = sets
        .iter()
        .map(|s| exec.execute_serial(&plan, s))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("serial reference: {e}"))?;
    let mut sim = Digest::default();
    for r in &refs {
        digest_report(&mut sim, r);
    }

    warm_up(cfg.scale, |i| {
        let _ = exec.execute(&plan, &sets[i % sets_n]);
        Ok(())
    })?;
    let window = Window::new(cfg.seconds, sets_n);
    let mut tally = Tally::default();
    let mut metrics = MetricSet::default();
    // Per bare (untraced) execute: host seconds, whether it verified, and
    // the simulated cycles it covered.
    let (mut secs, mut done, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss = 0.0;
    while window.more(secs.len()) {
        let i = secs.len();
        let s = i % sets_n;
        let t = Instant::now();
        let out = exec.execute(&plan, &sets[s]);
        secs.push(t.elapsed().as_secs_f64());
        let mut ok = out.as_ref() == Ok(&refs[s]);
        if let Some(rec) = rec.as_mut() {
            let root = rec.open("op", None, i as u64, None);
            let id = rec.open("exec.pool", Some(root), i as u64, None);
            let pooled = exec.execute(&plan, &sets[s]);
            rec.close(id);
            let id = rec.open("exec.serial", Some(root), i as u64, None);
            let serial = exec.execute_serial(&plan, &sets[s]);
            rec.close(id);
            rec.close(root);
            ok &= pooled.as_ref() == Ok(&refs[s]) && serial.as_ref() == Ok(&refs[s]);
        }
        tally.op(ok, || {
            format!("op {i}: an execution differs from the serial reference")
        });
        done.push(if ok { 1.0 } else { 0.0 });
        cycles.push(if ok {
            span_cycles(&refs[s]) as f64
        } else {
            0.0
        });
        if i + 1 == sets_n {
            rss = peak_rss_mb();
        }
    }
    metrics.set_host_time(&secs, &done, &cycles);
    match rec.as_ref() {
        None => end_to_end(&mut metrics, &setup_secs, &done, &refs, rss),
        Some(rec) => {
            let deliveries: u64 = refs
                .iter()
                .map(|r| r.metrics.counter(names::COSIM_DELIVERIES))
                .sum();
            exec_layers(
                &mut metrics,
                rec,
                &[plan.instructions],
                plan.instructions as u64 * sets_n as u64,
                deliveries,
                exec.resolved_threads(),
            );
            let bare_ns: Vec<f64> = secs.iter().map(|s| s * 1e9).collect();
            metrics.set_median(
                "bench.trace_overhead",
                ratios(&layer_ns(rec, "exec.pool"), &bare_ns),
            );
        }
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        sim_digest: sim.0,
        input_digest: input.0,
        pass: sets_n,
        recorder: rec,
    })
}

/// The plan, exec and pool layers from a traced run's spans. Span `i` of
/// `exec.serial` executed a plan of `instructions[i % len]` instructions;
/// `total_instructions` and `deliveries` are totals over the fixed pass.
pub(crate) fn exec_layers(
    metrics: &mut MetricSet,
    rec: &Recorder,
    instructions: &[usize],
    total_instructions: u64,
    deliveries: u64,
    threads: usize,
) {
    let compile_ms: Vec<f64> = layer_ns(rec, "plan.compile")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    metrics.set_median("plan.compile_ms", compile_ms);
    let serial = layer_ns(rec, "exec.serial");
    metrics.set_median(
        "exec.serial_us_p50",
        serial.iter().map(|ns| ns / 1e3).collect(),
    );
    metrics.set_count("exec.instructions", total_instructions);
    metrics.set_count("exec.deliveries", deliveries);
    metrics.set_median(
        "exec.ns_per_instr",
        serial
            .iter()
            .enumerate()
            .map(|(i, ns)| ns / instructions[i % instructions.len()].max(1) as f64)
            .collect(),
    );
    metrics.set_count("pool.threads", threads as u64);
    metrics.set_median(
        "pool.overhead",
        ratios(&layer_ns(rec, "exec.pool"), &serial),
    );
}

fn end_to_end(
    metrics: &mut MetricSet,
    setup_secs: &[f64],
    verified: &[f64],
    refs: &[CosimReport],
    rss: f64,
) {
    metrics.set_median("setup_s", setup_secs.to_vec());
    metrics.set("peak_rss_mb", rss, vec![rss]);
    let span: Vec<f64> = refs.iter().map(|r| span_cycles(r) as f64).collect();
    metrics.set_median("span_cycles", span);
    // Every transfer starts at cycle 0, so its latency is its arrival.
    let arrivals: Vec<u64> = refs.iter().flat_map(|r| r.arrivals.clone()).collect();
    let samples: Vec<f64> = arrivals.iter().map(|&c| c as f64).collect();
    metrics.set(
        "p50_cycles",
        rank_quantile(&arrivals, 0.5) as f64,
        samples.clone(),
    );
    metrics.set("p99_cycles", rank_quantile(&arrivals, 0.99) as f64, samples);
    // Every transfer of a verified execution landed at its scheduled cycle;
    // a failed execution misses for all of its transfers.
    metrics.set(
        "slo_attainment",
        verified.iter().sum::<f64>() / verified.len() as f64,
        verified.to_vec(),
    );
}
