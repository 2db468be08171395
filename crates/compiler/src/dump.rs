//! Schedule export: a serializable snapshot of a compiled program.
//!
//! Downstream tooling (visualizers, schedule diffing, regression
//! snapshots) consumes the compiler's output as data. The dump carries
//! everything needed to reconstruct a Gantt view: per-op intervals with
//! devices and kinds, and per-link reservation trains.

use crate::graph::{Graph, OpKind};
use crate::schedule::CompiledProgram;
use serde::{Deserialize, Serialize};

/// One scheduled operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Serializes to pretty JSON.
    ///
    /// Hand-rolled emitter (the offline toolchain stubs serde_json): the
    /// output is deterministic — field order fixed, strings escaped via
    /// [`tsm_trace::escape_json`] — so snapshots diff cleanly across
    /// processes.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"span_cycles\": {},\n", self.span_cycles));
        s.push_str("  \"ops\": [");
        for (i, op) in self.ops.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"op\": {}, \"device\": {}, \"kind\": \"{}\", \"start\": {}, \"end\": {}}}",
                op.op,
                op.device,
                tsm_trace::escape_json(&op.kind),
                op.start,
                op.end
            ));
        }
        s.push_str(if self.ops.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"reservations\": [");
        for (i, r) in self.reservations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"link\": {}, \"from\": {}, \"start\": {}, \"vectors\": {}, \
                 \"transfer\": {}, \"hop\": {}}}",
                r.link, r.from, r.start, r.vectors, r.transfer, r.hop
            ));
        }
        s.push_str(if self.reservations.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push('}');
        s
    }

    /// Parses a JSON snapshot previously produced by
    /// [`ScheduleDump::to_json`]. Field order is not significant; unknown
    /// keys are rejected with a descriptive error.
    pub fn from_json(s: &str) -> Result<ScheduleDump, String> {
        parse::schedule_dump(s)
    }
}

/// A minimal recursive-descent parser for the dump's fixed schema,
/// built on the workspace-shared [`tsm_trace::Cursor`] combinators (the
/// offline toolchain stubs serde_json, so the round trip is hand-rolled
/// against the same escaping rules the emitter uses).
mod parse {
    use super::{OpDump, ReservationDump, ScheduleDump};
    use tsm_trace::Cursor;

    pub(super) fn schedule_dump(s: &str) -> Result<ScheduleDump, String> {
        let mut c = Cursor::new(s);
        let mut dump = ScheduleDump {
            span_cycles: 0,
            ops: Vec::new(),
            reservations: Vec::new(),
        };
        c.object(|c, key| match key {
            "span_cycles" => {
                dump.span_cycles = c.u64()?;
                Ok(())
            }
            "ops" => c.array(|c| {
                let mut op = OpDump {
                    op: 0,
                    device: 0,
                    kind: String::new(),
                    start: 0,
                    end: 0,
                };
                c.object(|c, key| {
                    match key {
                        "op" => op.op = c.narrow("op")?,
                        "device" => op.device = c.narrow("op device")?,
                        "kind" => op.kind = c.string()?,
                        "start" => op.start = c.u64()?,
                        "end" => op.end = c.u64()?,
                        other => return Err(format!("unknown op field {other:?}")),
                    }
                    Ok(())
                })?;
                dump.ops.push(op);
                Ok(())
            }),
            "reservations" => c.array(|c| {
                let mut r = ReservationDump {
                    link: 0,
                    from: 0,
                    start: 0,
                    vectors: 0,
                    transfer: 0,
                    hop: 0,
                };
                c.object(|c, key| {
                    match key {
                        "link" => r.link = c.narrow("reservation link")?,
                        "from" => r.from = c.narrow("reservation from")?,
                        "start" => r.start = c.u64()?,
                        "vectors" => r.vectors = c.u64()?,
                        "transfer" => r.transfer = c.narrow("reservation transfer")?,
                        "hop" => r.hop = c.narrow("reservation hop")?,
                        other => return Err(format!("unknown reservation field {other:?}")),
                    }
                    Ok(())
                })?;
                dump.reservations.push(r);
                Ok(())
            }),
            other => Err(format!("unknown field {other:?}")),
        })?;
        c.expect_end()?;
        Ok(dump)
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
    fn dump_roundtrips_through_json() {
        let (g, p) = program();
        let dump = ScheduleDump::capture(&g, &p);
        let json = dump.to_json();
        let back = ScheduleDump::from_json(&json).unwrap();
        assert_eq!(dump, back);
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

    /// The hand-rolled emitter/parser pair survives a kind string
    /// carrying every structurally dangerous JSON character.
    #[test]
    fn dump_roundtrips_hostile_strings() {
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
        let back = ScheduleDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(dump, back);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(ScheduleDump::from_json("").is_err());
        assert!(ScheduleDump::from_json("{\"span_cycles\": 1").is_err());
        assert!(ScheduleDump::from_json("{\"bogus\": 1}").is_err());
        assert!(ScheduleDump::from_json("{\"span_cycles\": 1} trailing").is_err());
    }

    /// A value too wide for its field is refused, not truncated: hop 300
    /// would read back as hop 44.
    #[test]
    fn from_json_refuses_out_of_range_fields() {
        let (g, p) = program();
        let json = ScheduleDump::capture(&g, &p).to_json();
        let wide = json.replacen("\"hop\": 0", "\"hop\": 300", 1);
        assert_ne!(wide, json);
        let err = ScheduleDump::from_json(&wide).unwrap_err();
        assert!(err.contains("reservation hop 300 out of range"), "{err}");
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
