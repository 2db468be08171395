//! The metric catalog, host facts, and the two output forms: a table for
//! people and one JSON line for machines.

use crate::stats::{median, quantile, ratios};

/// A metric's identity: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("span_cycles", "cycles", "lower"),
    def("p50_cycles", "cycles", "lower"),
    def("p99_cycles", "cycles", "lower"),
    def("slo_attainment", "ratio", "higher"),
];

/// Per-layer metrics, measured by the traced run. A layer the workload
/// does not exercise reports 0 with sample count 0. The `host.*` metrics
/// time the workload's op itself, untraced; an untraced run prints them
/// too, beside the end-to-end metrics.
pub const PER_LAYER: &[MetricDef] = &[
    def("host.op_p50_us", "us", "lower"),
    def("host.op_p90_us", "us", "lower"),
    def("host.requests_per_s", "1/s", "higher"),
    def("host.sim_cycles_per_s", "1/s", "higher"),
    def("plan.compile_ms", "ms", "lower"),
    def("exec.serial_us_p50", "us", "lower"),
    def("exec.instructions", "count", "lower"),
    def("exec.deliveries", "count", "lower"),
    def("exec.ns_per_instr", "ns", "lower"),
    def("pool.threads", "count", "higher"),
    def("pool.overhead", "x", "lower"),
    def("graph.build_us", "us", "lower"),
    def("launch.new_us", "us", "lower"),
    def("launch.admit_us", "us", "lower"),
    def("launch.begin_us", "us", "lower"),
    def("launch.compile_us", "us", "lower"),
    def("launch.reuse_us", "us", "lower"),
    def("launch.execute_us", "us", "lower"),
    def("launch.recover_us", "us", "lower"),
    def("launch.finish_us", "us", "lower"),
    def("launch.attempts", "count", "lower"),
    def("launch.replays", "count", "lower"),
    def("launch.failovers", "count", "lower"),
    def("compiler.compile_us", "us", "lower"),
    def("residency.hits", "count", "higher"),
    def("residency.misses", "count", "lower"),
    def("residency.evictions", "count", "lower"),
    def("residency.hit_rate", "ratio", "higher"),
    def("residency.resident_bytes", "bytes", "lower"),
    def("certify.profile_us", "us", "lower"),
    def("certify.ring_events", "count", "lower"),
    def("serving.loop_self_us", "us", "lower"),
    def("serving.batches", "count", "lower"),
    def("serving.mean_batch", "requests", "higher"),
    def("serving.shed", "count", "lower"),
    def("serving.expired", "count", "lower"),
    def("serving.queue_wait_cycles_p99", "cycles", "lower"),
    def("obs.telemetry_overhead", "x", "lower"),
    def("obs.attribution_overhead", "x", "lower"),
    def("obs.flight_overhead", "x", "lower"),
    def("fault.fec_corrected", "count", "lower"),
    def("fault.fec_uncorrectable", "count", "lower"),
    def("bench.trace_overhead", "x", "lower"),
];

/// One measured metric: the reported value and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog entry.
    pub def: MetricDef,
    /// The reported value.
    pub value: f64,
    /// The samples the value summarizes (their count is the metric's
    /// sample count; their quartiles are printed beside it).
    pub samples: Vec<f64>,
}

/// Metrics collected by one run, keyed by catalog name.
#[derive(Debug, Clone, Default)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    /// Records `name` (which must be in a catalog) with its samples.
    ///
    /// # Panics
    /// Panics on a name that no catalog lists: that is a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.0.retain(|m| m.def.name != name);
        self.0.push(Metric {
            def: *def,
            value,
            samples,
        });
    }

    /// Records `name` as the median of `samples`.
    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, median(&samples), samples);
    }

    /// Records a count that has no per-sample spread.
    pub fn set_count(&mut self, name: &str, count: u64) {
        self.set(name, count as f64, vec![count as f64]);
    }

    /// Records the host time of a run's ops from each op's host seconds,
    /// the requests it completed and the simulated cycles it covered.
    pub(crate) fn set_host_time(&mut self, secs: &[f64], requests: &[f64], cycles: &[f64]) {
        let us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
        self.set("host.op_p90_us", quantile(&us, 0.9), us.clone());
        self.set_median("host.op_p50_us", us);
        self.set_median("host.requests_per_s", ratios(requests, secs));
        self.set_median("host.sim_cycles_per_s", ratios(cycles, secs));
    }

    /// The recorded metric `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.def.name == name)
    }

    /// Every metric of `catalog` in catalog order; metrics never recorded
    /// come out as 0 with no samples.
    pub fn ordered(&self, catalog: &[MetricDef]) -> Vec<Metric> {
        catalog
            .iter()
            .map(|d| {
                self.get(d.name).cloned().unwrap_or(Metric {
                    def: *d,
                    value: 0.0,
                    samples: Vec::new(),
                })
            })
            .collect()
    }
}

/// Facts about the host a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFacts {
    /// Available parallelism.
    pub nproc: usize,
    /// Worker threads the co-simulation pool resolves to.
    pub pool_threads: usize,
    /// Whether `TSM_THREADS` is set in the environment.
    pub tsm_threads_set: bool,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Git revision of the working directory, when it is a git checkout.
    pub git_rev: Option<String>,
}

impl HostFacts {
    /// Collects the facts of this process and working directory.
    pub fn collect() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: tsm::core::cosim::PlanExecutor::new().resolved_threads(),
            tsm_threads_set: std::env::var_os("TSM_THREADS").is_some(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(),
        }
    }
}

/// Reads the checked-out revision from `.git` without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The human-readable table: one line per metric with unit, sample count
/// and quartiles.
pub fn table(metrics: &[Metric]) -> Vec<String> {
    let mut out = vec![format!(
        "  {:<32} {:>16} {:<8} {:>7} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "n", "p25", "p50", "p75"
    )];
    for m in metrics {
        let q = |p: f64| {
            if m.samples.is_empty() {
                "-".to_string()
            } else {
                format!("{:.4}", quantile(&m.samples, p))
            }
        };
        out.push(format!(
            "  {:<32} {:>16.4} {:<8} {:>7} {:>14} {:>14} {:>14}",
            m.def.name,
            m.value,
            m.def.unit,
            m.samples.len(),
            q(0.25),
            q(0.5),
            q(0.75)
        ));
    }
    out
}

/// The machine-readable result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.def.name, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.better == "lower" || d.better == "higher");
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
    }

    #[test]
    fn unrecorded_metrics_come_out_as_zero_with_no_samples() {
        let mut set = MetricSet::default();
        set.set_count("pool.threads", 2);
        let out = set.ordered(PER_LAYER);
        assert_eq!(out.len(), PER_LAYER.len());
        let threads = out.iter().find(|m| m.def.name == "pool.threads").unwrap();
        assert_eq!((threads.value, threads.samples.len()), (2.0, 1));
        let absent = out
            .iter()
            .find(|m| m.def.name == "launch.recover_us")
            .unwrap();
        assert_eq!((absent.value, absent.samples.len()), (0.0, 0));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut set = MetricSet::default();
        set.set("setup_s", 0.25, vec![0.25]);
        let line = json_line(true, 10, 0, &set.ordered(&END_TO_END[..1]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
