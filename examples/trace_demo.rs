//! Renders one faulty datapath launch as a Chrome-trace timeline.
//!
//! A marginal node's cables run at a BER that defeats SEC-DED; the
//! runtime replays, blames the node, fails over to the spare, and
//! relaunches — and every stage of that story lands in the trace: the
//! alignment window, each replay epoch, per-chip execution/delivery
//! spans, link-level FEC events, the blame vote, and the failover.
//!
//! Run with `cargo run --example trace_demo`, then open the written
//! `trace_demo.trace.json` in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use std::sync::Arc;
use tsm::core::{ExecMode, Runtime, SparePolicy};
use tsm::prelude::*;
use tsm::topology::LinkId;
use tsm::trace::profile::profile;
use tsm::trace::{chrome_trace_json, ChromeExtras, RingSink};

fn logical_pipeline() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(TspId(0), OpKind::Compute { cycles: 10_000 }, vec![])
        .unwrap();
    let t = g
        .add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(15),
                bytes: 32_000,
                allow_nonminimal: true,
            },
            vec![a],
        )
        .unwrap();
    g.add(TspId(15), OpKind::Compute { cycles: 1_000 }, vec![t])
        .unwrap();
    g
}

fn faulty_runtime(victim: NodeId) -> Runtime {
    let mut rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath);
    // Healthy cables perfect; the victim's cables at a BER where two
    // flips routinely land in one 2560-bit packet.
    rt.set_ber(0.0, 2e-4);
    let marginal: Vec<LinkId> = rt
        .system()
        .topology()
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.a.node() == victim || l.b.node() == victim)
        .map(|(i, _)| LinkId(i as u32))
        .collect();
    for l in marginal {
        rt.degrade_link(l);
    }
    rt
}

fn main() {
    let victim = NodeId(1);
    let graph = logical_pipeline();

    // Scan a few seeds for a launch that exercises the full recovery
    // story (replay + failover); any seed's trace is valid, this just
    // makes the demo timeline interesting.
    let mut best: Option<(u64, Arc<RingSink>, tsm::core::LaunchOutcome, Runtime)> = None;
    for seed in 0..16u64 {
        let sink = Arc::new(RingSink::new(1 << 16));
        let mut rt = faulty_runtime(victim);
        rt.set_trace_sink(sink.clone());
        let Ok(out) = rt.launch(&graph, seed) else {
            continue;
        };
        let full_story = out.attempts() > 1 && out.failovers == vec![victim];
        let keep = full_story || best.is_none();
        if keep {
            let done = full_story;
            best = Some((seed, sink, out, rt));
            if done {
                break;
            }
        }
    }
    let (seed, sink, out, rt) = best.expect("some seed launches successfully");

    let events = sink.sorted_events();
    let json = chrome_trace_json(&events, ChromeExtras::default());
    let path = "trace_demo.trace.json";
    std::fs::write(path, &json).expect("write trace file");

    println!(
        "seed {seed}: launch finished in {} attempt(s)",
        out.attempts()
    );
    println!("  failovers:       {:?}", out.failovers);
    println!("  compiles/reuses: {}/{}", out.compiles(), out.reuses());
    println!(
        "  fec (all runs):  clean={} corrected={} uncorrectable={}",
        out.fec_total().clean,
        out.fec_total().corrected,
        out.fec_total().uncorrectable
    );
    println!("  trace events:    {} (0 dropped)", events.len());
    println!("  metrics:         {}", out.metrics.to_json());
    println!("wrote {path} — open it at https://ui.perfetto.dev");

    // Plan-vs-actual conformance: join the trace against the (final,
    // post-failover) compiled plan's delivery schedule. A launch that
    // replayed and failed over cannot certify — the profile itemizes how
    // far each delivery landed from its planned cycle.
    let planned = rt.planned_timeline().expect("datapath launch compiled");
    match profile(&planned, &events, sink.dropped()) {
        Ok(prof) => {
            println!();
            print!("{}", prof.render());
        }
        Err(e) => println!("profiler refused the trace: {e}"),
    }
}
