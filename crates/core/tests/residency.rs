//! The plan-residency layer, exercised through the public `Runtime`
//! API: multi-model alternation reuses instead of recompiling, budgets
//! evict deterministically (proptest vs a reference model), failovers
//! drop stale epochs, entries sharing pooled payloads launch exactly
//! like private ones, the export lists each resident datapath plan once
//! as the plan compile gives, and — the regression the bugfix must not
//! cause — single-model launch sequences remain bit- and trace-identical
//! to the pre-residency runtime.

use proptest::prelude::*;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::cosim::{compile_plan, CompiledPlan};
use tsm_core::graph_fingerprint;
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::{Cursor, EventKind, RingSink, RUNTIME_LANE};
use tsm_workloads::BertConfig;

/// A compute-only model; distinct `cycles` gives distinct fingerprints.
fn compute_model(cycles: u64) -> Graph {
    let mut g = Graph::new();
    g.add(TspId(0), OpKind::Compute { cycles }, vec![]).unwrap();
    g
}

/// The conformance suite's multi-hop pipeline, parameterized so two
/// models produce different datapath plans.
fn pipeline(bytes: u64) -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(TspId(0), OpKind::Compute { cycles: 10_000 }, vec![])
        .unwrap();
    let t = g
        .add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(15),
                bytes,
                allow_nonminimal: true,
            },
            vec![a],
        )
        .unwrap();
    g.add(TspId(15), OpKind::Compute { cycles: 1_000 }, vec![t])
        .unwrap();
    g
}

/// BERT at smoke scale, 4 encoders over 64-token sequences, on a 4-stage
/// pipeline: every batch size's transfers are prefixes of the next one's.
fn bert(batch: u64) -> Graph {
    BertConfig {
        batch,
        seq: 64,
        ..BertConfig::with_encoders(4)
    }
    .build_pipeline_graph(4)
}

fn runtime(mode: ExecMode) -> Runtime {
    Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem).with_exec_mode(mode)
}

/// The tentpole fix: alternating two models no longer recompiles on
/// every dispatch, and a warm relaunch after an interleaved foreign
/// model is bit-identical to a warm relaunch without one.
#[test]
fn multi_model_alternation_reuses_instead_of_recompiling() {
    let a = pipeline(32_000);
    let b = pipeline(64_000);

    // Interleaved: A, B, A.
    let mut rt = runtime(ExecMode::Datapath);
    rt.launch(&a, 1).unwrap();
    rt.launch(&b, 2).unwrap();
    let third = rt.launch(&a, 3).unwrap();
    assert_eq!(
        (third.compiles(), third.reuses()),
        (0, 1),
        "the old single-entry cache recompiled here"
    );
    let stats = rt.residency().stats();
    assert_eq!((stats.hits, stats.misses), (1, 2));
    assert_eq!(stats.resident_plans, 2);

    // Back-to-back: A, A — the warm launch must be bit-identical to the
    // interleaved one (same seed, same resident plan).
    let mut rt2 = runtime(ExecMode::Datapath);
    rt2.launch(&a, 1).unwrap();
    let second = rt2.launch(&a, 3).unwrap();
    assert_eq!(third, second, "interleaving B must not perturb A's launch");
    assert_eq!(third.dst_digests, second.dst_digests);
}

/// Budget 0 emulates the pre-residency single-entry cache: only the
/// most recently used plan stays resident, so alternation thrashes.
#[test]
fn budget_zero_matches_the_old_single_entry_cache() {
    let a = compute_model(5_000);
    let b = compute_model(6_000);
    let mut rt = runtime(ExecMode::Statistical).with_plan_budget(0);
    rt.launch(&a, 1).unwrap();
    rt.launch(&b, 2).unwrap();
    let third = rt.launch(&a, 3).unwrap();
    assert_eq!(
        (third.compiles(), third.reuses()),
        (1, 0),
        "budget 0 must thrash exactly like the old cache"
    );
    let stats = rt.residency().stats();
    assert_eq!(stats.resident_plans, 1);
    assert_eq!(stats.evictions, 2);
}

/// Single-model regression: the launch event sequence on the runtime
/// lane is exactly the pre-residency sequence (pinned literally), and
/// repeated launches stay bit-reproducible.
#[test]
fn single_model_launches_keep_the_pre_residency_trace_shape() {
    let g = pipeline(32_000);
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime(ExecMode::Datapath);
    rt.set_trace_sink(sink.clone());
    let cold = rt.launch(&g, 7).unwrap();
    let cold_kinds: Vec<EventKind> = sink
        .sorted_events()
        .iter()
        .filter(|e| e.lane == RUNTIME_LANE)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        cold_kinds,
        vec![
            EventKind::LaunchBegin {
                graph_fp: graph_fingerprint(&g)
            },
            EventKind::Align,
            EventKind::Compile { epoch: 0 },
            EventKind::ReplayEpoch { attempt: 0 },
            EventKind::LaunchEnd { attempts: 1 },
        ]
    );

    let sink2 = Arc::new(RingSink::new(1 << 16));
    rt.set_trace_sink(sink2.clone());
    let warm = rt.launch(&g, 7).unwrap();
    let warm_kinds: Vec<EventKind> = sink2
        .sorted_events()
        .iter()
        .filter(|e| e.lane == RUNTIME_LANE)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        warm_kinds,
        vec![
            EventKind::LaunchBegin {
                graph_fp: graph_fingerprint(&g)
            },
            EventKind::Align,
            EventKind::Reuse { epoch: 0 },
            EventKind::ReplayEpoch { attempt: 0 },
            EventKind::LaunchEnd { attempts: 1 },
        ]
    );

    // Same seed, warm vs cold: identical outcome except compile/reuse
    // accounting — in particular identical destination-SRAM digests.
    assert_eq!(cold.dst_digests, warm.dst_digests);
    assert_eq!(cold.timeline_cycles, warm.timeline_cycles);
    assert_eq!((warm.compiles(), warm.reuses()), (0, 1));
}

/// A failover bumps the mapping epoch and drops every stale resident
/// plan — nothing keyed to the dead mapping survives.
#[test]
fn failover_drops_stale_epochs_from_residency() {
    let g = pipeline(32_000);
    let mut rt = runtime(ExecMode::Datapath);
    rt.set_ber(0.0, 1e-3);
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
    let out = (0..64u64)
        .find_map(|seed| {
            let out = rt.launch(&g, seed).unwrap();
            (!out.failovers.is_empty()).then_some(out)
        })
        .expect("some seed in 0..64 fails over on this marginal fabric");
    assert!(rt.mapping_epoch() >= 1);
    assert_eq!(out.failovers.len() as u64, rt.mapping_epoch());
    let stats = rt.residency().stats();
    assert!(stats.stale_drops >= 1, "the epoch-0 plan must be dropped");
    for info in rt.residency().resident() {
        assert_eq!(info.epoch, rt.mapping_epoch(), "no stale epochs remain");
    }
}

/// Entries whose payloads come from one shared pool launch exactly like
/// entries with private payloads: one runtime warmed at several batch
/// sizes gives the same outcome, destination digests included, and
/// charges the same bytes per entry as a fresh runtime per batch size.
#[test]
fn shared_payloads_launch_like_private_ones() {
    let mut shared = runtime(ExecMode::Datapath);
    let mut private_bytes = Vec::new();
    for batch in [2, 1, 3] {
        let g = bert(batch);
        let warmed = shared.launch(&g, 7).unwrap();
        let mut fresh = runtime(ExecMode::Datapath);
        let private = fresh.launch(&g, 7).unwrap();
        assert_eq!(warmed, private, "batch {batch}");
        assert_eq!(warmed.dst_digests, private.dst_digests, "batch {batch}");
        let [info] = fresh.residency().resident()[..] else {
            panic!("a fresh runtime holds one entry");
        };
        private_bytes.push((info.graph_fp, info.bytes));
    }
    private_bytes.sort_unstable();
    let shared_bytes: Vec<(u64, u64)> = shared
        .residency()
        .resident()
        .iter()
        .map(|i| (i.graph_fp, i.bytes))
        .collect();
    assert_eq!(shared_bytes, private_bytes);
}

/// The export of the resident set: a runtime holding two datapath plans
/// and one statistical entry lists each datapath plan once, ascending by
/// `(graph_fp, epoch)`, as its own `to_json` wrote it, so the value
/// parses to a plan that writes the same document, and that plan is what
/// `compile_plan` gives for its topology and shapes.
#[test]
fn export_lists_each_resident_datapath_plan_once_as_compiled() {
    let mut rt = runtime(ExecMode::Datapath);
    rt.launch(&pipeline(64_000), 1).unwrap();
    rt.launch(&pipeline(32_000), 2).unwrap();
    let mut rt = rt.with_exec_mode(ExecMode::Statistical);
    rt.launch(&compute_model(5_000), 3).unwrap();
    let resident = rt.residency().resident();
    assert_eq!(resident.len(), 3);
    let want: Vec<(u64, u64)> = (resident.iter())
        .filter(|i| i.has_datapath)
        .map(|i| (i.graph_fp, i.epoch))
        .collect();
    assert_eq!(want.len(), 2, "the statistical entry holds no plan");

    let doc = rt.residency().export_warm();
    let mut listed = Vec::new();
    let mut cur = Cursor::new(&doc);
    cur.object(|cur, key| match key {
        "version" => {
            assert_eq!(cur.u64()?, 2);
            Ok(())
        }
        "plans" => cur.array(|cur| {
            let (mut graph_fp, mut epoch, mut plan) = (None, None, None);
            cur.object(|cur, key| {
                match key {
                    "graph_fp" => graph_fp = Some(cur.u64()?),
                    "epoch" => epoch = Some(cur.u64()?),
                    "plan" => plan = Some(cur.raw_value()?),
                    other => return Err(format!("unknown key {other:?}")),
                }
                Ok(())
            })?;
            listed.push((graph_fp.unwrap(), epoch.unwrap(), plan.unwrap()));
            Ok(())
        }),
        other => Err(format!("unknown key {other:?}")),
    })
    .unwrap();
    cur.expect_end().unwrap();

    let keys: Vec<(u64, u64)> = listed.iter().map(|&(fp, e, _)| (fp, e)).collect();
    assert_eq!(keys, want, "each datapath plan once, ascending by key");
    let topo = rt.system().topology();
    for (_, _, text) in listed {
        let plan = CompiledPlan::from_json(text).unwrap();
        assert_eq!(plan.to_json(), text, "the resident plan's own document");
        assert_eq!(compile_plan(topo, &plan.shapes), Ok(plan));
    }
}

/// Reference model for the through-the-runtime proptest: entry-count
/// LRU (every statistical compute-model entry costs the same estimated
/// bytes).
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u64, u64)>, // (fingerprint, last_used)
    seq: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    /// Returns whether the launch hit.
    fn launch(&mut self, fp: u64) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == fp) {
            e.1 = self.seq;
            self.seq += 1;
            self.hits += 1;
            return true;
        }
        self.seq += 1; // the miss's touch consumes a sequence number
        self.misses += 1;
        self.entries.push((fp, self.seq));
        self.seq += 1;
        while self.entries.len() > self.capacity.max(1) {
            let victim = self
                .entries
                .iter()
                .map(|e| e.1)
                .min()
                .expect("nonempty while over capacity");
            self.entries.retain(|e| e.1 != victim);
            self.evictions += 1;
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Arbitrary launch sequences over G models under an arbitrary
    /// entry-count budget: the resident set, the hit/miss stream, and
    /// the eviction count all match an obviously-correct flat-scan LRU.
    /// Two identical runs also match each other, pinning eviction order
    /// as HashMap-iteration-independent.
    #[test]
    fn runtime_residency_matches_reference_lru(
        capacity in 1usize..5,
        launches in proptest::collection::vec(0usize..4, 1..24)
    ) {
        let models: Vec<Graph> =
            (0..4).map(|i| compute_model(1_000 + 500 * i as u64)).collect();
        let fps: Vec<u64> = models.iter().map(graph_fingerprint).collect();

        // Learn the (uniform) per-entry byte estimate from a probe run.
        let mut probe = runtime(ExecMode::Statistical);
        probe.launch(&models[0], 0).unwrap();
        let unit = probe.residency().resident()[0].bytes;

        let mut rt = runtime(ExecMode::Statistical)
            .with_plan_budget(unit * capacity as u64);
        let mut model = ModelLru { capacity, ..ModelLru::default() };
        for (i, &m) in launches.iter().enumerate() {
            let out = rt.launch(&models[m], i as u64).unwrap();
            prop_assert_eq!(out.compiles() + out.reuses(), 1);
            // Hit/miss agrees at every step, not just in the totals.
            prop_assert_eq!(out.reuses() == 1, model.launch(fps[m]));

            let stats = rt.residency().stats();
            prop_assert_eq!(
                (stats.hits, stats.misses, stats.evictions),
                (model.hits, model.misses, model.evictions)
            );
            let mut want: Vec<u64> = model.entries.iter().map(|e| e.0).collect();
            want.sort_unstable();
            let got: Vec<u64> = rt
                .residency()
                .resident()
                .iter()
                .map(|r| r.graph_fp)
                .collect();
            prop_assert_eq!(got, want, "resident sets diverged at step {}", i);
        }

        // Replay the identical sequence: bit-identical residency history.
        let mut rt2 = runtime(ExecMode::Statistical)
            .with_plan_budget(unit * capacity as u64);
        for (i, &m) in launches.iter().enumerate() {
            rt2.launch(&models[m], i as u64).unwrap();
        }
        prop_assert_eq!(rt2.residency().stats(), rt.residency().stats());
        prop_assert_eq!(rt2.residency().resident(), rt.residency().resident());
    }
}
