//! Schedule export: a serializable snapshot of a compiled program.
//!
//! Downstream tooling (visualizers, schedule diffing, regression
//! snapshots) consumes the compiler's output as data. The dump carries
//! everything needed to reconstruct a Gantt view: per-op intervals with
//! devices and kinds, and per-link reservation trains.

use crate::graph::{Graph, OpKind};
use crate::schedule::CompiledProgram;
use tsm_trace::JsonWriter;

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDump {
    /// Graph op index.
    pub op: u32,
    /// Executing device (source device for transfers).
    pub device: u32,
    /// Op kind tag: "gemm", "compute", "transfer", "host_in", "host_out".
    pub kind: String,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// One link reservation train.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationDump {
    /// Link index in the topology's cable table.
    pub link: u32,
    /// Transmitting TSP.
    pub from: u32,
    /// First occupied cycle.
    pub start: u64,
    /// Flits in the train.
    pub vectors: u64,
    /// Transfer id.
    pub transfer: u32,
    /// Hop index.
    pub hop: u8,
}

/// A full schedule snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleDump {
    /// Total span in cycles (the latency estimate).
    pub span_cycles: u64,
    /// Scheduled operations, in graph order.
    pub ops: Vec<OpDump>,
    /// Link reservations, in scheduling order.
    pub reservations: Vec<ReservationDump>,
}

impl ScheduleDump {
    /// Snapshots a compiled program together with its graph.
    pub fn capture(graph: &Graph, program: &CompiledProgram) -> ScheduleDump {
        let ops = graph
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| OpDump {
                op: i as u32,
                device: n.device.0,
                kind: match n.kind {
                    OpKind::Gemm { .. } => "gemm",
                    OpKind::Compute { .. } => "compute",
                    OpKind::Transfer { .. } => "transfer",
                    OpKind::HostInput { .. } => "host_in",
                    OpKind::HostOutput { .. } => "host_out",
                }
                .to_string(),
                start: program.op_start[i],
                end: program.op_end[i],
            })
            .collect();
        let reservations = program
            .occupancy
            .reservations()
            .iter()
            .map(|r| ReservationDump {
                link: r.link.0,
                from: r.from.0,
                start: r.start,
                vectors: r.vectors,
                transfer: r.transfer,
                hop: r.hop,
            })
            .collect();
        ScheduleDump {
            span_cycles: program.span_cycles,
            ops,
            reservations,
        }
    }

    /// Serializes to pretty JSON through [`tsm_trace::JsonWriter`], the
    /// writer every document of the workspace uses: the output is
    /// deterministic — field order fixed, strings escaped via
    /// [`tsm_trace::escape_json`] — so snapshots diff cleanly across
    /// processes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("span_cycles", self.span_cycles);
        w.key("ops").begin_array();
        for op in &self.ops {
            w.begin_object();
            w.field_u64("op", op.op.into())
                .field_u64("device", op.device.into())
                .field_str("kind", &op.kind)
                .field_u64("start", op.start)
                .field_u64("end", op.end)
                .end_object();
        }
        w.end_array();
        w.key("reservations").begin_array();
        for r in &self.reservations {
            w.begin_object();
            w.field_u64("link", r.link.into())
                .field_u64("from", r.from.into())
                .field_u64("start", r.start)
                .field_u64("vectors", r.vectors)
                .field_u64("transfer", r.transfer.into())
                .field_u64("hop", r.hop.into())
                .end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{compile, CompileOptions};
    use tsm_topology::{Topology, TspId};

    fn program() -> (Graph, CompiledProgram) {
        let mut g = Graph::new();
        let a = g
            .add(TspId(0), OpKind::Compute { cycles: 100 }, vec![])
            .unwrap();
        g.add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(1),
                bytes: 64_000,
                allow_nonminimal: true,
            },
            vec![a],
        )
        .unwrap();
        let topo = Topology::single_node();
        let p = compile(&g, &topo, CompileOptions::default()).unwrap();
        (g, p)
    }

    #[test]
    fn dump_matches_program_timing() {
        let (g, p) = program();
        let dump = ScheduleDump::capture(&g, &p);
        assert_eq!(dump.span_cycles, p.span_cycles);
        assert_eq!(dump.ops.len(), 2);
        assert_eq!(dump.ops[0].kind, "compute");
        assert_eq!(dump.ops[1].kind, "transfer");
        assert_eq!(dump.ops[1].start, p.op_start[1]);
        assert!(!dump.reservations.is_empty());
    }

    /// A kind string carrying every structurally dangerous JSON
    /// character leaves the document well formed, holding it escaped.
    #[test]
    fn dump_json_escapes_hostile_strings() {
        let dump = ScheduleDump {
            span_cycles: 7,
            ops: vec![OpDump {
                op: 0,
                device: 3,
                kind: "ev\"il\\kind\nwith\tnasties\u{0001}".to_string(),
                start: 1,
                end: 2,
            }],
            reservations: vec![],
        };
        let json = dump.to_json();
        let mut c = tsm_trace::Cursor::new(&json);
        c.raw_value().and_then(|_| c.expect_end()).expect(&json);
        assert!(
            json.contains(r#""kind": "ev\"il\\kind\nwith\tnasties\u0001""#),
            "{json}"
        );
    }

    #[test]
    fn dump_is_stable_for_identical_programs() {
        let (g1, p1) = program();
        let (g2, p2) = program();
        assert_eq!(
            ScheduleDump::capture(&g1, &p1).to_json(),
            ScheduleDump::capture(&g2, &p2).to_json()
        );
    }
}
