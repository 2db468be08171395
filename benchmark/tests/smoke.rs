//! Smoke sizes of every workload (288 chips in place of 10,440, BERT with
//! 4 and 8 encoders over 64-token sequences): outputs check, every metric
//! is reported, the simulation repeats from its seed, and `BENCHMARK.json`
//! lists what the benchmark prints.

use tsm::trace::Cursor;
use tsm_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use tsm_benchmark::{run, RunConfig, RunResult, Scale, Workload};

fn smoke(workload: Workload, seed: u64, traced: bool) -> RunResult {
    let r = run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        traced,
        scale: Scale::Smoke,
    })
    .unwrap_or_else(|e| panic!("{}: set-up failed: {e}", workload.name()));
    assert!(r.attempted >= 1);
    assert_eq!(
        r.failed,
        0,
        "{} traced={traced}: {:?}",
        workload.name(),
        r.failures
    );
    r
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics.get(name).map_or(0.0, |m| m.value)
}

fn samples(r: &RunResult, name: &str) -> usize {
    r.metrics.get(name).map_or(0, |m| m.samples.len())
}

/// Runs `w` plain twice at seed 1, traced at seed 1 and plain at seed 2,
/// and checks what every workload must satisfy. Returns the traced run.
fn check_workload(w: Workload) -> RunResult {
    let plain = smoke(w, 1, false);
    for m in plain.metrics.ordered(END_TO_END) {
        assert!(
            m.value > 0.0 && m.value.is_finite() && !m.samples.is_empty(),
            "{}: {} = {}",
            w.name(),
            m.def.name,
            m.value
        );
    }

    for host in ["host.op_p50_us", "host.requests_per_s"] {
        assert!(samples(&plain, host) > 0, "{host}");
    }

    // The seed fixes the inputs and so every simulated result; another
    // seed changes the inputs.
    let again = smoke(w, 1, false);
    assert_eq!(plain.input_digest, again.input_digest);
    assert_eq!(plain.sim_digest, again.sim_digest);
    for name in ["span_cycles", "p50_cycles", "p99_cycles", "slo_attainment"] {
        assert_eq!(value(&plain, name), value(&again, name), "{name}");
    }
    assert_ne!(plain.input_digest, smoke(w, 2, false).input_digest);

    // The traced run replays the same simulation and times every layer
    // the workload exercises.
    let traced = smoke(w, 1, true);
    assert_eq!(traced.sim_digest, plain.sim_digest);
    assert!(traced
        .recorder
        .as_ref()
        .is_some_and(|r| !r.spans().is_empty()));
    for layer in [
        "host.op_p90_us",
        "exec.serial_us_p50",
        "pool.overhead",
        "plan.compile_ms",
        "bench.trace_overhead",
    ] {
        assert!(samples(&traced, layer) > 0, "{layer}");
    }
    let serves = matches!(w, Workload::ServeSteady | Workload::ServeChurn);
    for layer in [
        "graph.build_us",
        "launch.execute_us",
        "serving.loop_self_us",
    ] {
        assert_eq!(samples(&traced, layer) > 0, serves, "{layer}");
    }
    traced
}

#[test]
fn cosim_16() {
    check_workload(Workload::Cosim16);
}

#[test]
fn cosim_10440() {
    check_workload(Workload::Cosim10440);
}

#[test]
fn serve_steady_reuses_and_certifies() {
    let steady = check_workload(Workload::ServeSteady);
    assert_eq!(samples(&steady, "launch.compile_us"), 0);
    assert!(samples(&steady, "launch.reuse_us") > 0);
    assert_eq!(value(&steady, "residency.misses"), 0.0);
    assert!(samples(&steady, "certify.profile_us") > 0);
    assert!(value(&steady, "certify.ring_events") > 0.0);
}

#[test]
fn serve_churn_compiles_and_observes() {
    let churn = check_workload(Workload::ServeChurn);
    assert!(samples(&churn, "launch.compile_us") > 0);
    assert!(samples(&churn, "compiler.compile_us") > 0);
    assert!(value(&churn, "residency.misses") > 0.0);
    assert_eq!(samples(&churn, "certify.profile_us"), 0);
    for obs in [
        "obs.telemetry_overhead",
        "obs.attribution_overhead",
        "obs.flight_overhead",
    ] {
        assert!(samples(&churn, obs) > 0, "{obs}");
    }
}

/// One metric entry of `BENCHMARK.json`: name, unit, better, bound.
type Entry = (String, String, String, Option<f64>);

fn metric_entry(cur: &mut Cursor<'_>) -> Result<Entry, String> {
    let mut e: Entry = Default::default();
    cur.object(|cur, key| {
        match key {
            "name" => e.0 = cur.string()?,
            "unit" => e.1 = cur.string()?,
            "better" => e.2 = cur.string()?,
            "bound" => {
                let raw = cur.raw_value()?.trim();
                e.3 = Some(raw.parse().map_err(|_| format!("bad bound {raw}"))?);
            }
            other => return Err(format!("unexpected key {other}")),
        }
        Ok(())
    })?;
    Ok(e)
}

fn same_defs(entries: &[Entry], catalog: &[MetricDef]) -> bool {
    entries.len() == catalog.len()
        && entries
            .iter()
            .zip(catalog)
            .all(|(e, d)| (e.0.as_str(), e.1.as_str(), e.2.as_str()) == (d.name, d.unit, d.better))
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let (mut workloads, mut e2e, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut cur = Cursor::new(&text);
    cur.object(|cur, key| match key {
        "workloads" => cur.array(|cur| {
            cur.object(|cur, key| {
                if key == "name" {
                    workloads.push(cur.string()?);
                } else {
                    cur.string()?;
                }
                Ok(())
            })
        }),
        "end_to_end" => cur.array(|cur| {
            e2e.push(metric_entry(cur)?);
            Ok(())
        }),
        "per_layer" => cur.array(|cur| {
            layers.push(metric_entry(cur)?);
            Ok(())
        }),
        _ => cur.raw_value().map(drop),
    })
    .expect("BENCHMARK.json parses");

    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert!(
        same_defs(&e2e, END_TO_END),
        "end_to_end differs from the catalog"
    );
    assert!(
        same_defs(&layers, PER_LAYER),
        "per_layer differs from the catalog"
    );
    assert!(
        layers.iter().all(|e| e.3.is_none()),
        "per-layer metrics have no bound"
    );
    let setup = e2e.iter().find(|e| e.0 == "setup_s").and_then(|e| e.3);
    let setup = setup.expect("setup_s has a bound");
    for e in &e2e {
        let bound = e.3.unwrap_or_else(|| panic!("{} has no bound", e.0));
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", e.0);
        assert!(bound <= setup, "setup_s has the largest bound");
    }
}
