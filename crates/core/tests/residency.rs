//! The plan-residency layer, exercised through the public `Runtime`
//! API: multi-model alternation reuses instead of recompiling, budgets
//! evict deterministically (proptest vs a reference model), the warm
//! tier round-trips plans across runtimes bit-for-bit and refuses plans
//! that index outside themselves, failovers drop stale epochs, entries
//! sharing pooled payloads launch exactly like private ones, and — the
//! regression the bugfix must not cause — single-model launch sequences
//! remain bit- and trace-identical to the pre-residency runtime.

use proptest::prelude::*;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::graph_fingerprint;
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::{EventKind, RingSink, RUNTIME_LANE};
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

/// Warm tier round trip: export from one runtime, import into a fresh
/// one, and the warm-started launch is bit-identical to a cold compile —
/// plan adoption changes only *when* the plan was built, not what runs.
#[test]
fn warm_tier_round_trips_plans_across_runtimes() {
    let g = pipeline(32_000);

    let mut rt1 = runtime(ExecMode::Datapath);
    let cold = rt1.launch(&g, 7).unwrap();
    let exported = rt1.residency().export_warm();

    let mut rt2 = runtime(ExecMode::Datapath);
    assert_eq!(rt2.residency_mut().import_warm(&exported), Ok(1));
    assert_eq!(rt2.residency().warm_len(), 1);
    let warmed = rt2.launch(&g, 7).unwrap();

    // Still a compile (the program is rebuilt) but the datapath plan was
    // adopted from the tier, and the launch is bit-identical.
    assert_eq!((warmed.compiles(), warmed.reuses()), (1, 0));
    assert_eq!(rt2.residency().stats().warm_starts, 1);
    assert_eq!(
        rt2.residency().warm_len(),
        0,
        "adopted plans leave the tier"
    );
    assert_eq!(warmed, cold, "warm start must not perturb the launch");
    assert_eq!(warmed.dst_digests, cold.dst_digests);

    // The resident plan survived the JSON round trip exactly: exporting
    // again reproduces the same document.
    assert_eq!(rt2.residency().export_warm(), exported);

    // A fingerprint mismatch never adopts: a different model compiles
    // fresh and leaves the tier alone.
    let mut rt3 = runtime(ExecMode::Datapath);
    rt3.residency_mut().import_warm(&exported).unwrap();
    rt3.launch(&pipeline(64_000), 7).unwrap();
    assert_eq!(rt3.residency().stats().warm_starts, 0);
    assert_eq!(rt3.residency().warm_len(), 1);
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

/// `doc` with the value of the first `key` after the first `list` array
/// replaced by `value`.
fn edit_first(doc: &str, list: &str, key: &str, value: u64) -> String {
    let list = doc
        .find(&format!("\"{list}\": ["))
        .expect("the list is there");
    let at = list + doc[list..].find(&format!("\"{key}\": ")).unwrap() + key.len() + 4;
    let end = at + doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{value}{}", &doc[..at], &doc[end..])
}

/// Warm-tier documents are trusted only as far as their own shapes: an
/// offset too wide for its field, or a preload naming a vector its
/// transfer does not have, is refused at import with an error naming the
/// field. The tier keeps only what it held before, and the next launch
/// adopts that plan instead of indexing out of bounds.
#[test]
fn warm_tier_refuses_plans_that_index_outside_themselves() {
    let g = pipeline(3_200);
    let mut rt1 = runtime(ExecMode::Datapath);
    let cold = rt1.launch(&g, 7).unwrap();
    let exported = rt1.residency().export_warm();
    for (key, value, says) in [
        ("offset", 70_000, "offset 70000"),
        ("vector", 99, "vector 99"),
    ] {
        let hostile = edit_first(&exported, "preloads", key, value);
        let mut rt = runtime(ExecMode::Datapath);
        assert_eq!(rt.residency_mut().import_warm(&exported), Ok(1));
        let err = rt.residency_mut().import_warm(&hostile).unwrap_err();
        assert!(err.contains(says), "{key}: {err}");
        assert_eq!(rt.residency().warm_len(), 1, "{key}: the tier is unchanged");
        assert_eq!(rt.launch(&g, 7).unwrap(), cold, "{key}");
        assert_eq!(rt.residency().stats().warm_starts, 1, "{key}");
    }
}

/// A warm-tier plan is adopted only if every TSP and link it names is in
/// the runtime's topology. A delivery naming link 999999 parses, since a
/// document is checked only against itself, but the launch compiles cold:
/// it equals a cold launch, counts no warm start and plans the cold
/// plan's timeline, where the adopted plan's timeline would look the link
/// up out of bounds. On a lossy fabric with no replays, where recovery
/// blames the links of lost vectors, it fails over as the cold runtime
/// does.
#[test]
fn warm_tier_refuses_plans_that_name_links_outside_the_topology() {
    let g = pipeline(3_200);
    let mut rt1 = runtime(ExecMode::Datapath);
    let cold = rt1.launch(&g, 7).unwrap();
    let cold_timeline = rt1.planned_timeline().expect("a datapath plan is resident");
    let hostile = edit_first(
        &rt1.residency().export_warm(),
        "deliveries",
        "link",
        999_999,
    );

    let mut rt = runtime(ExecMode::Datapath);
    assert_eq!(rt.residency_mut().import_warm(&hostile), Ok(1));
    let launched = rt.launch(&g, 7).unwrap();
    assert_eq!(rt.planned_timeline(), Some(cold_timeline));
    assert_eq!(launched, cold);
    assert_eq!(rt.residency().stats().warm_starts, 0);

    let lossy = |warm: Option<&str>| {
        let mut rt = runtime(ExecMode::Datapath);
        if let Some(doc) = warm {
            assert_eq!(rt.residency_mut().import_warm(doc), Ok(1));
        }
        rt.set_ber(1e-2, 1e-2);
        rt.set_max_replays(0);
        let out = rt.launch(&g, 7);
        (out, rt.residency().stats().warm_starts)
    };
    let (want, _) = lossy(None);
    assert_eq!(lossy(Some(&hostile)), (want, 0));
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
