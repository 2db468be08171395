//! The `repro profile` section: plan-vs-actual conformance profiling.
//!
//! Launches the demo pipeline twice on a 4-node datapath runtime — once
//! on a healthy fabric, once with a marginal node that forces a replay —
//! and joins each launch's trace against the compiled plan's delivery
//! schedule. The clean launch must come back CERTIFIED (every delivery on
//! its planned cycle, skew zero); the replayed launch comes back DEVIANT
//! with every re-delivered vector itemized one epoch window late. The
//! clean launch's planned-vs-observed overlay is written to
//! `trace_profile.trace.json` (two tracks per link) for Perfetto.

use std::sync::Arc;
use tsm::compiler::graph::{Graph, OpKind};
use tsm::core::{ExecMode, Runtime, SparePolicy, System};
use tsm::topology::{LinkId, NodeId, TspId};
use tsm::trace::profile::profile;
use tsm::trace::{chrome_trace_json, ChromeExtras, LaunchProfile, RingSink};

/// The demo workload: compute on TSP 0, a cross-node transfer, compute on
/// the far chip — the same pipeline `examples/trace_demo.rs` renders.
fn pipeline() -> Graph {
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

fn datapath_runtime() -> Runtime {
    Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath)
}

/// Launches `rt` and profiles the trace against the compiled plan.
/// Returns the profile (or the profiler's refusal, rendered) plus the raw
/// events for the overlay export.
fn launch_and_profile(
    mut rt: Runtime,
    seed: u64,
    out: &mut Vec<String>,
) -> Option<(
    LaunchProfile,
    Vec<tsm::trace::TraceEvent>,
    tsm::trace::PlannedTimeline,
)> {
    let sink = Arc::new(RingSink::new(1 << 16));
    rt.set_trace_sink(sink.clone());
    let outcome = match rt.launch(&pipeline(), seed) {
        Ok(o) => o,
        Err(e) => {
            out.push(format!("launch failed: {e}"));
            return None;
        }
    };
    let planned = rt.planned_timeline().expect("datapath launch compiled");
    let events = sink.sorted_events();
    if sink.dropped() > 0 {
        out.push(format!(
            "WARNING: trace truncated — {} event(s) dropped; profile refused",
            sink.dropped()
        ));
    }
    match profile(&planned, &events, sink.dropped()) {
        Ok(prof) => {
            out.push(format!(
                "seed {seed}: {} attempt(s), {} failover(s)",
                outcome.attempts(),
                outcome.failovers.len()
            ));
            Some((prof, events, planned))
        }
        Err(e) => {
            out.push(format!("profiler refused the trace: {e}"));
            None
        }
    }
}

/// Finds a seed whose faulty launch replays (second attempt on the same
/// plan) without needing a failover, so the skew report is pure replay.
fn replay_seed() -> Option<u64> {
    (0..64u64).find(|&seed| {
        let mut rt = marginal_runtime();
        rt.launch(&pipeline(), seed)
            .map(|o| o.attempts() == 2 && o.failovers.is_empty())
            .unwrap_or(false)
    })
}

/// A runtime whose cables into node 1 run at a BER where one attempt
/// occasionally aborts but a replay usually clears it.
fn marginal_runtime() -> Runtime {
    let mut rt = datapath_runtime();
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

/// Printable report for the `repro` binary; writes the Perfetto overlay
/// next to the working directory.
pub fn lines() -> Vec<String> {
    lines_impl(true)
}

fn lines_impl(write_overlay: bool) -> Vec<String> {
    let mut out = Vec::new();

    out.push("--- clean launch (healthy fabric) ---".to_string());
    if let Some((prof, events, planned)) = launch_and_profile(datapath_runtime(), 1, &mut out) {
        out.extend(prof.render().lines().map(str::to_string));
        if write_overlay {
            let extras = ChromeExtras {
                planned: Some(&planned),
                ..ChromeExtras::default()
            };
            let overlay = chrome_trace_json(&events, extras);
            let path = "trace_profile.trace.json";
            match std::fs::write(path, &overlay) {
                Ok(()) => out.push(format!(
                    "wrote {path} (planned-vs-observed overlay, two tracks per link) — \
                     open at https://ui.perfetto.dev"
                )),
                Err(e) => out.push(format!("could not write {path}: {e}")),
            }
        }
        if !prof.certified() {
            out.push("ERROR: a fault-free launch must certify".to_string());
        }
    }

    out.push(String::new());
    out.push("--- replayed launch (marginal node 1, BER 2e-5) ---".to_string());
    match replay_seed() {
        Some(seed) => {
            if let Some((prof, _, _)) = launch_and_profile(marginal_runtime(), seed, &mut out) {
                out.extend(prof.render().lines().map(str::to_string));
            }
        }
        None => out.push("no seed in 0..64 replayed without failover".to_string()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_launch_section_certifies_and_replay_section_deviates() {
        let report = lines_impl(false).join("\n");
        assert!(
            report.contains("CERTIFIED"),
            "clean launch certifies:\n{report}"
        );
        assert!(!report.contains("ERROR:"), "{report}");
        assert!(
            report.contains("DEVIANT"),
            "replay itemizes skew:\n{report}"
        );
        assert!(
            report.contains("skew +"),
            "deviations carry signed skew:\n{report}"
        );
        assert!(report.contains("critical path"), "{report}");
    }
}
