//! System assembly and the runtime execution model.

use crate::report::ExecutionReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsm_compiler::graph::{Graph, OpKind};
use tsm_compiler::schedule::{compile, CompileError, CompileOptions, CompiledProgram};
use tsm_fault::inject::inject_schedule_with;
use tsm_sync::align::InitialAlignment;
use tsm_topology::{Topology, TopologyError, TspId};
use tsm_trace::{names, Metrics};

/// Configuration of a multi-TSP deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Bit error rate of every C2C link.
    pub bit_error_rate: f64,
    /// Replay budget for uncorrectable errors.
    pub max_replays: u32,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            bit_error_rate: 1e-9,
            max_replays: 2,
        }
    }
}

/// Errors from system construction or compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Bad topology parameters.
    Topology(TopologyError),
    /// Compilation failed.
    Compile(CompileError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Topology(e) => write!(f, "topology: {e}"),
            SystemError::Compile(e) => write!(f, "compile: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<TopologyError> for SystemError {
    fn from(e: TopologyError) -> Self {
        SystemError::Topology(e)
    }
}

impl From<CompileError> for SystemError {
    fn from(e: CompileError) -> Self {
        SystemError::Compile(e)
    }
}

/// A deployed multi-TSP system.
#[derive(Debug, Clone)]
pub struct System {
    topo: Topology,
    config: SystemConfig,
}

impl System {
    /// One 8-TSP GroqNode.
    pub fn single_node() -> System {
        System {
            topo: Topology::single_node(),
            config: SystemConfig::default(),
        }
    }

    /// `n` fully-connected nodes (2–33; up to 264 TSPs).
    pub fn with_nodes(n: usize) -> Result<System, SystemError> {
        Ok(System {
            topo: Topology::fully_connected_nodes(n)?,
            config: SystemConfig::default(),
        })
    }

    /// `r` racks in the Dragonfly regime (2–145; up to 10,440 TSPs).
    pub fn with_racks(r: usize) -> Result<System, SystemError> {
        Ok(System {
            topo: Topology::rack_dragonfly(r)?,
            config: SystemConfig::default(),
        })
    }

    /// Replaces the runtime configuration (builder style).
    pub fn with_config(mut self, config: SystemConfig) -> System {
        self.config = config;
        self
    }

    /// The wired topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (fault experiments).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// The runtime configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Plans the initial program alignment from TSP 0 (paper §3.2): the
    /// spanning tree plus the `(⌊L/period⌋+1)·h` epoch overhead paid once
    /// before a distributed program launches.
    pub fn plan_alignment(&self) -> InitialAlignment {
        InitialAlignment::plan(&self.topo, TspId(0))
    }

    /// Compiles a computation graph into a cycle-exact schedule.
    pub fn compile(
        &self,
        graph: &Graph,
        options: CompileOptions,
    ) -> Result<CompiledProgram, SystemError> {
        Ok(compile(graph, &self.topo, options)?)
    }

    /// Executes a compiled program once under the runtime model.
    ///
    /// The network itself is deterministic — its contribution to the
    /// measured latency equals the compiler's estimate to the cycle. What
    /// varies run-to-run is (a) the PCIe host transfers ("the extended
    /// invocation time of the PCIe data transfer", Fig 17 discussion) and
    /// (b) transmission errors, which FEC repairs in situ or the runtime
    /// absorbs by replay.
    pub fn execute(&self, program: &CompiledProgram, seed: u64) -> ExecutionReport {
        self.execute_graph_aware(program, None, seed)
    }

    /// Like [`System::execute`], but with the graph available so PCIe
    /// jitter applies only when host I/O is actually present.
    pub fn execute_with_graph(
        &self,
        program: &CompiledProgram,
        graph: &Graph,
        seed: u64,
    ) -> ExecutionReport {
        self.execute_graph_aware(program, Some(graph), seed)
    }

    fn execute_graph_aware(
        &self,
        program: &CompiledProgram,
        graph: Option<&Graph>,
        seed: u64,
    ) -> ExecutionReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let estimated = program.span_cycles;

        // PCIe invocation variance: the host-side DMA engine returns a bit
        // earlier or later than the worst case the compiler budgeted. The
        // compiler's estimate is an upper bound (Fig 17: "all of them
        // returning by" the estimate), with the bulk of runs within 2 %.
        let has_host_io = graph.is_none_or(|g| {
            g.nodes()
                .iter()
                .any(|n| matches!(n.kind, OpKind::HostInput { .. } | OpKind::HostOutput { .. }))
        });
        let measured = if has_host_io && estimated > 0 {
            let z: f64 = {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let deficit_frac = (0.012 + 0.008 * z).clamp(0.0, 0.06);
            estimated - (estimated as f64 * deficit_frac) as u64
        } else {
            estimated
        };

        // Drive every scheduled wire packet through the FEC channel; on an
        // uncorrectable error the runtime replays the inference, up to
        // `max_replays` times. The report carries the final attempt's
        // tally: the clean run's, or the last failed one's.
        let ber = self.config.bit_error_rate;
        let reservations = program.occupancy.reservations();
        let mut attempts = 0u32;
        let (fec, succeeded) = loop {
            attempts += 1;
            let (stats, _) = inject_schedule_with(&self.topo, reservations, |_| ber, &mut rng);
            let clean = stats.is_clean_run();
            if clean || attempts > self.config.max_replays {
                break (stats, clean);
            }
        };
        let replays = attempts - 1;
        // A replay re-runs the whole inference.
        let measured = measured * (replays as u64 + 1);

        let metrics = Metrics::default();
        fec.record_into(&metrics);
        metrics.inc(names::RT_ATTEMPTS, attempts as u64);
        metrics.inc(names::RT_REPLAYS, replays as u64);

        ExecutionReport {
            estimated_cycles: estimated,
            measured_cycles: measured,
            succeeded,
            metrics: metrics.snapshot(),
        }
    }

    /// Executes a program `runs` times with distinct seeds (the Fig 17
    /// histogram loop).
    pub fn execute_many(
        &self,
        program: &CompiledProgram,
        graph: &Graph,
        runs: usize,
        base_seed: u64,
    ) -> Vec<ExecutionReport> {
        (0..runs as u64)
            .map(|i| self.execute_with_graph(program, graph, base_seed.wrapping_add(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsm_compiler::graph::OpKind;

    fn trivial_graph(cycles: u64) -> Graph {
        let mut g = Graph::new();
        g.add(TspId(0), OpKind::Compute { cycles }, vec![]).unwrap();
        g
    }

    #[test]
    fn compile_and_execute_roundtrip() {
        let sys = System::single_node();
        let p = sys
            .compile(&trivial_graph(5000), CompileOptions::default())
            .unwrap();
        let r = sys.execute(&p, 1);
        assert_eq!(r.estimated_cycles, 5000);
        assert!(r.succeeded);
        assert_eq!(r.replays(), 0);
    }

    #[test]
    fn network_only_programs_measure_exactly_the_estimate() {
        // No host I/O, no errors: the system is bit-deterministic.
        let sys = System::single_node().with_config(SystemConfig {
            bit_error_rate: 0.0,
            ..Default::default()
        });
        let mut g = Graph::new();
        g.add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(1),
                bytes: 64_000,
                allow_nonminimal: true,
            },
            vec![],
        )
        .unwrap();
        let p = sys.compile(&g, CompileOptions::default()).unwrap();
        for seed in 0..20 {
            let r = sys.execute_with_graph(&p, &g, seed);
            assert_eq!(r.measured_cycles, r.estimated_cycles, "seed {seed}");
        }
    }

    #[test]
    fn host_io_introduces_bounded_variance() {
        let sys = System::single_node();
        let mut g = trivial_graph(1_000_000);
        g.add(TspId(0), OpKind::HostInput { bytes: 1 << 20 }, vec![])
            .unwrap();
        let p = sys.compile(&g, CompileOptions::default()).unwrap();
        let reports = sys.execute_many(&p, &g, 200, 7);
        let est = reports[0].estimated_cycles;
        assert!(
            reports.iter().all(|r| r.measured_cycles <= est),
            "estimate is an upper bound"
        );
        assert!(reports
            .iter()
            .all(|r| r.measured_cycles >= est - est * 6 / 100));
        let distinct: std::collections::HashSet<u64> =
            reports.iter().map(|r| r.measured_cycles).collect();
        assert!(
            distinct.len() > 10,
            "PCIe jitter should vary the measurement"
        );
    }

    #[test]
    fn execution_is_seed_deterministic() {
        let sys = System::single_node();
        let mut g = trivial_graph(10_000);
        g.add(TspId(0), OpKind::HostInput { bytes: 4096 }, vec![])
            .unwrap();
        let p = sys.compile(&g, CompileOptions::default()).unwrap();
        let a = sys.execute_with_graph(&p, &g, 99);
        let b = sys.execute_with_graph(&p, &g, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn harsh_links_force_replays() {
        let sys = System::single_node().with_config(SystemConfig {
            bit_error_rate: 5e-4,
            max_replays: 1,
        });
        let mut g = Graph::new();
        g.add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(1),
                bytes: 320_000,
                allow_nonminimal: false,
            },
            vec![],
        )
        .unwrap();
        let p = sys.compile(&g, CompileOptions::default()).unwrap();
        let r = sys.execute_with_graph(&p, &g, 3);
        // With BER 5e-4 over 1000 packets, uncorrectables are certain; one
        // replay cannot save it.
        assert!(!r.succeeded);
    }

    #[test]
    fn alignment_plan_reaches_all_tsps() {
        let sys = System::with_nodes(4).unwrap();
        let plan = sys.plan_alignment();
        assert_eq!(plan.tree.reached(), 32);
        assert!(plan.overhead_epochs > 0);
    }

    #[test]
    fn rack_scale_system_constructs() {
        let sys = System::with_racks(2).unwrap();
        assert_eq!(sys.topology().num_tsps(), 144);
    }
}
