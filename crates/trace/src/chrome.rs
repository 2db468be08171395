//! Chrome-trace / Perfetto JSON export.
//!
//! Renders a slice of [`TraceEvent`]s as the Trace Event Format JSON that
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly. One
//! timestamp unit equals one *simulated* cycle (the viewer labels it "µs";
//! read it as cycles). Runtime-lane events render under process
//! `"runtime"`, chip lanes under process `"chips"` with one thread row per
//! chip. Hand-rolled because the workspace has no JSON library — and the
//! format is simple enough not to miss one.

use crate::attribution::{LatencyBreakdown, Stage};
use crate::event::{EventKind, TraceEvent, RUNTIME_LANE, SERVING_LANE};
use crate::profile::PlannedTimeline;
use crate::telemetry::{SeriesKind, Telemetry};

/// Process id of the runtime lane in the exported document.
const PID_RUNTIME: u32 = 0;
/// Process id of the chip lanes.
const PID_CHIPS: u32 = 1;
/// Process id of the per-link planned-vs-actual overlay tracks.
const PID_LINKS: u32 = 2;
/// Process id of the serving-frontend lane.
const PID_SERVING: u32 = 3;
/// Process id of the windowed-telemetry counter tracks.
const PID_TELEMETRY: u32 = 4;
/// Process id of the per-request attribution span tracks.
const PID_REQUESTS: u32 = 5;

fn name_and_args(kind: &EventKind) -> (&'static str, String) {
    let args = match *kind {
        EventKind::ChipExec {
            depth,
            instructions,
        } => format!("\"depth\":{depth},\"instructions\":{instructions}"),
        EventKind::Deliveries { count } | EventKind::Emissions { count } => {
            format!("\"count\":{count}")
        }
        EventKind::Delivery {
            link,
            transfer,
            vector,
        } => format!("\"link\":{link},\"transfer\":{transfer},\"vector\":{vector}"),
        EventKind::LinkCorrected { link, bit } => format!("\"link\":{link},\"bit\":{bit}"),
        EventKind::LinkUncorrectable { link } | EventKind::LinkDemoted { link } => {
            format!("\"link\":{link}")
        }
        EventKind::LaunchBegin { graph_fp } => format!("\"graph_fp\":\"{graph_fp:016x}\""),
        EventKind::Align => String::new(),
        EventKind::Compile { epoch } | EventKind::Reuse { epoch } => format!("\"epoch\":{epoch}"),
        EventKind::ReplayEpoch { attempt } => format!("\"attempt\":{attempt}"),
        EventKind::BlameVote { node, votes } => format!("\"node\":{node},\"votes\":{votes}"),
        EventKind::Failover { node, epoch } => format!("\"node\":{node},\"epoch\":{epoch}"),
        EventKind::LaunchEnd { attempts } => format!("\"attempts\":{attempts}"),
        EventKind::RequestEnqueue { tenant, request } => {
            format!("\"tenant\":{tenant},\"request\":{request}")
        }
        EventKind::RequestShed {
            tenant,
            request,
            reason,
        } => format!("\"tenant\":{tenant},\"request\":{request},\"reason\":\"{reason:?}\""),
        EventKind::RequestExpired {
            tenant,
            request,
            late,
        } => format!("\"tenant\":{tenant},\"request\":{request},\"late\":{late}"),
        EventKind::RequestComplete {
            tenant,
            request,
            latency,
        } => format!("\"tenant\":{tenant},\"request\":{request},\"latency\":{latency}"),
        EventKind::BatchBegin { batch, size } => format!("\"batch\":{batch},\"size\":{size}"),
        EventKind::BatchEnd { batch, attempts } => {
            format!("\"batch\":{batch},\"attempts\":{attempts}")
        }
    };
    (kind.name(), args)
}

fn push_span(out: &mut String, name: &str, pid: u32, tid: u32, ts: u64, dur: u64, args: &str) {
    out.push_str(&format!(
        ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
         \"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
        crate::json::escape_json(name),
    ));
}

fn push_instant(out: &mut String, name: &str, pid: u32, tid: u32, ts: u64, args: &str) {
    out.push_str(&format!(
        ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
         \"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}",
        crate::json::escape_json(name),
    ));
}

fn push_counter(out: &mut String, track: &str, ts: u64, value: u64) {
    out.push_str(&format!(
        ",\n{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{PID_TELEMETRY},\"tid\":0,\
         \"ts\":{ts},\"args\":{{\"value\":{value}}}}}",
        crate::json::escape_json(track),
    ));
}

/// Pushes metadata event `meta` (`process_name` or `thread_name`) naming
/// `(pid, tid)`.
fn push_meta(out: &mut String, meta: &str, pid: u32, tid: u32, name: &str) {
    out.push_str(&format!(
        ",\n{{\"name\":\"{meta}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        crate::json::escape_json(name),
    ));
}

/// What a Chrome-trace export lays over its events. Each part adds
/// nothing to the document when it is absent, zero or empty, so the
/// default is the plain export of the events alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeExtras<'a> {
    /// Events the ring dropped: above zero, a warning banner heads the
    /// timeline, since a lossy ring's timeline must never be read as
    /// complete.
    pub dropped: u64,
    /// The plan-vs-actual overlay: a `"links"` process with two tracks per
    /// link — the planned wire windows above the observed
    /// [`EventKind::Delivery`] instants — so skew is visible as vertical
    /// misalignment in Perfetto.
    pub planned: Option<&'a PlannedTimeline>,
    /// Perfetto counter tracks (`ph:"C"`) under a dedicated `"telemetry"`
    /// process: one track per recorded time series (named
    /// `series[label]`), sampled at each window boundary in simulated
    /// cycles. Counter tracks are dropped back to zero after a gap so
    /// per-window deltas read as pulses, not plateaus; gauge tracks hold
    /// their level.
    pub telemetry: Option<&'a Telemetry>,
    /// Per-request attribution span tracks under a dedicated
    /// `"requests"` process — one thread row per request, its stage spans
    /// laid out in stitched-timeline order from arrival to completion
    /// (each span exactly as wide as the stage's component, so the row
    /// ends at the request's completion cycle).
    pub requests: &'a [LatencyBreakdown],
}

/// Renders `events`, with whatever `extras` lays over them, as a complete
/// Chrome-trace JSON document.
pub fn chrome_trace_json(events: &[TraceEvent], extras: ChromeExtras<'_>) -> String {
    let ChromeExtras {
        dropped,
        planned,
        telemetry,
        requests,
    } = extras;
    let mut out = String::from(
        "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"runtime\"}}",
    );
    push_meta(&mut out, "process_name", PID_CHIPS, 0, "chips");
    if events.iter().any(|e| e.lane == SERVING_LANE) {
        push_meta(&mut out, "process_name", PID_SERVING, 0, "serving");
    }
    if dropped > 0 {
        push_instant(
            &mut out,
            &format!("WARNING: trace truncated — {dropped} event(s) dropped"),
            PID_RUNTIME,
            0,
            0,
            &format!("\"dropped\":{dropped}"),
        );
    }
    for e in events {
        let (name, args) = name_and_args(&e.kind);
        let (pid, tid) = if e.lane == RUNTIME_LANE {
            (PID_RUNTIME, 0)
        } else if e.lane == SERVING_LANE {
            (PID_SERVING, 0)
        } else {
            (PID_CHIPS, e.lane)
        };
        let sep = if args.is_empty() { "" } else { "," };
        let args = format!("{args}{sep}\"seq\":{}", e.seq);
        if e.dur > 0 {
            push_span(&mut out, name, pid, tid, e.cycle, e.dur, &args);
        } else {
            push_instant(&mut out, name, pid, tid, e.cycle, &args);
        }
    }
    if let Some(planned) = planned {
        push_meta(&mut out, "process_name", PID_LINKS, 0, "links");
        let mut links: Vec<u32> = planned.hops.iter().map(|h| h.link).collect();
        links.sort_unstable();
        links.dedup();
        for &link in &links {
            for (tid, track) in [(link * 2, "planned"), (link * 2 + 1, "observed")] {
                let name = format!("link {link} {track}");
                push_meta(&mut out, "thread_name", PID_LINKS, tid, &name);
            }
        }
        for h in &planned.hops {
            push_span(
                &mut out,
                "link.slot",
                PID_LINKS,
                h.link * 2,
                h.wire_start,
                (h.wire_end.saturating_sub(h.wire_start)).max(1),
                &format!(
                    "\"transfer\":{},\"vector\":{},\"delivery\":{}",
                    h.transfer, h.vector, h.cycle
                ),
            );
        }
        for e in events {
            if let EventKind::Delivery {
                link,
                transfer,
                vector,
            } = e.kind
            {
                push_instant(
                    &mut out,
                    "link.delivery",
                    PID_LINKS,
                    link * 2 + 1,
                    e.cycle,
                    &format!("\"transfer\":{transfer},\"vector\":{vector}"),
                );
            }
        }
    }
    if let Some(t) = telemetry {
        if !t.series.is_empty() {
            push_meta(&mut out, "process_name", PID_TELEMETRY, 0, "telemetry");
            for s in &t.series {
                let track = if s.label.is_empty() {
                    s.name.clone()
                } else {
                    format!("{}[{}]", s.name, s.label)
                };
                for (i, &(win, v)) in s.points.iter().enumerate() {
                    push_counter(&mut out, &track, win.saturating_mul(t.window), v);
                    if s.kind == SeriesKind::Counter {
                        let next = s.points.get(i + 1).map(|p| p.0);
                        if next != Some(win + 1) {
                            push_counter(
                                &mut out,
                                &track,
                                win.saturating_add(1).saturating_mul(t.window),
                                0,
                            );
                        }
                    }
                }
            }
        }
    }
    if !requests.is_empty() {
        push_meta(&mut out, "process_name", PID_REQUESTS, 0, "requests");
        for b in requests {
            let name = format!("req {} (tenant {})", b.request, b.tenant);
            push_meta(&mut out, "thread_name", PID_REQUESTS, b.request, &name);
            // Stage spans tile [arrival, completion] exactly — the sum
            // identity LatencyBreakdown::verify pins is what makes this
            // rendering gap-free.
            let mut ts = b.arrival;
            for stage in Stage::ALL {
                let dur = b.component(stage);
                if dur == 0 {
                    continue;
                }
                push_span(
                    &mut out,
                    &format!("attr.{}", stage.as_str()),
                    PID_REQUESTS,
                    b.request,
                    ts,
                    dur,
                    &format!(
                        "\"batch\":{},\"compiles\":{},\"reuses\":{}",
                        b.batch, b.compiles, b.reuses
                    ),
                );
                ts += dur;
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 0,
                lane: RUNTIME_LANE,
                seq: 0,
                dur: 0,
                kind: EventKind::LaunchBegin { graph_fp: 0xabcd },
            },
            TraceEvent {
                cycle: 10,
                lane: 2,
                seq: 1,
                dur: 40,
                kind: EventKind::ChipExec {
                    depth: 0,
                    instructions: 6,
                },
            },
            TraceEvent {
                cycle: 15,
                lane: 2,
                seq: 2,
                dur: 0,
                kind: EventKind::LinkCorrected { link: 3, bit: 17 },
            },
        ]
    }

    #[test]
    fn renders_spans_instants_and_metadata() {
        let json = chrome_trace_json(&sample(), ChromeExtras::default());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"chip.exec\",\"ph\":\"X\""));
        assert!(json.contains("\"dur\":40"));
        assert!(json.contains("\"name\":\"link.corrected\",\"ph\":\"i\""));
        assert!(json.contains("\"graph_fp\":\"000000000000abcd\""));
    }

    /// `extras` with `dropped` events dropped.
    fn lossy(dropped: u64) -> ChromeExtras<'static> {
        ChromeExtras {
            dropped,
            ..ChromeExtras::default()
        }
    }

    #[test]
    fn runtime_lane_maps_to_pid_zero_chips_to_pid_one() {
        let json = chrome_trace_json(&sample(), ChromeExtras::default());
        assert!(json.contains("\"name\":\"launch.begin\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0"));
        assert!(json.contains("\"pid\":1,\"tid\":2"));
    }

    #[test]
    fn empty_event_list_is_still_valid() {
        let json = chrome_trace_json(&[], ChromeExtras::default());
        assert!(json.contains("traceEvents"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn serving_lane_gets_its_own_process() {
        let without = chrome_trace_json(&sample(), ChromeExtras::default());
        assert!(!without.contains("\"name\":\"serving\""));
        let mut events = sample();
        events.push(TraceEvent {
            cycle: 42,
            lane: SERVING_LANE,
            seq: 3,
            dur: 0,
            kind: EventKind::RequestComplete {
                tenant: 1,
                request: 9,
                latency: 1234,
            },
        });
        let json = chrome_trace_json(&events, ChromeExtras::default());
        assert!(json.contains("\"args\":{\"name\":\"serving\"}"));
        assert!(json
            .contains("\"name\":\"serve.complete\",\"ph\":\"i\",\"s\":\"t\",\"pid\":3,\"tid\":0"));
        assert!(json.contains("\"latency\":1234"));
    }

    #[test]
    fn dropped_events_render_a_warning_banner() {
        let clean = chrome_trace_json(&sample(), lossy(0));
        assert!(!clean.contains("WARNING"));
        let truncated = chrome_trace_json(&sample(), lossy(17));
        assert!(truncated.contains("WARNING: trace truncated — 17 event(s) dropped"));
        assert!(truncated.contains("\"dropped\":17"));
    }

    #[test]
    fn telemetry_renders_counter_tracks_under_their_own_process() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        let mut t = Telemetry::empty(TelemetryConfig {
            window: 100,
            slo_permille: 990,
        });
        t.count("serve.throughput", "tenant0", 5, 3);
        t.count("serve.throughput", "tenant0", 310, 1);
        t.level("serve.queue_depth", "", 150, 7);
        let extras = ChromeExtras {
            telemetry: Some(&t),
            ..ChromeExtras::default()
        };
        let json = chrome_trace_json(&sample(), extras);
        assert!(json.contains("\"args\":{\"name\":\"telemetry\"}"));
        // Counter pulse at window 0 with a zero-return before the gap.
        assert!(json.contains(
            "\"name\":\"serve.throughput[tenant0]\",\"ph\":\"C\",\"pid\":4,\"tid\":0,\
             \"ts\":0,\"args\":{\"value\":3}"
        ));
        assert!(json.contains("\"ts\":100,\"args\":{\"value\":0}"));
        assert!(json.contains("\"ts\":300,\"args\":{\"value\":1}"));
        // Gauge holds its level: no zero-return after its point.
        assert!(json.contains(
            "\"name\":\"serve.queue_depth\",\"ph\":\"C\",\"pid\":4,\"tid\":0,\
             \"ts\":100,\"args\":{\"value\":7}"
        ));
        assert!(!json.contains(
            "\"name\":\"serve.queue_depth\",\"ph\":\"C\",\"pid\":4,\"tid\":0,\"ts\":200"
        ));
    }

    #[test]
    fn telemetry_off_exports_stay_byte_identical() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        let events = sample();
        let base = chrome_trace_json(&events, lossy(2));
        let empty = Telemetry::empty(TelemetryConfig::default());
        let with_empty = ChromeExtras {
            telemetry: Some(&empty),
            ..lossy(2)
        };
        assert_eq!(
            base,
            chrome_trace_json(&events, with_empty),
            "an empty telemetry record adds nothing to the document"
        );
    }

    #[test]
    fn hostile_track_names_are_escaped_in_counter_tracks() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        let mut t = Telemetry::empty(TelemetryConfig {
            window: 10,
            slo_permille: 990,
        });
        t.count("serve.throughput", "ten\"ant\\zero\n", 0, 1);
        let extras = ChromeExtras {
            telemetry: Some(&t),
            ..ChromeExtras::default()
        };
        let json = chrome_trace_json(&[], extras);
        assert!(
            json.contains(r#"serve.throughput[ten\"ant\\zero\n]"#),
            "quote, backslash, and newline all escape: {json}"
        );
        // The document stays structurally valid: every quote inside the
        // track name is escaped, so raw_value can skim the whole thing.
        let mut c = crate::json::Cursor::new(&json);
        assert!(c.raw_value().is_ok());
        c.expect_end().unwrap();
    }

    fn breakdown(request: u32, tenant: u32) -> crate::attribution::LatencyBreakdown {
        crate::attribution::LatencyBreakdown::from_dispatch(
            request,
            tenant,
            0,
            1_000,
            1_150,
            1_100,
            1_150 + 30 + 400 + 64,
            30,
            400,
            1,
            64,
            1,
            0,
        )
        .unwrap()
    }

    #[test]
    fn attribution_spans_render_under_their_own_process() {
        let requests = [breakdown(5, 1)];
        let extras = ChromeExtras {
            requests: &requests,
            ..ChromeExtras::default()
        };
        let json = chrome_trace_json(&sample(), extras);
        assert!(json.contains("\"args\":{\"name\":\"requests\"}"));
        assert!(json.contains("req 5 (tenant 1)"));
        // The stage spans tile the request's lifetime on tid 5: window
        // wait starts at arrival, execute follows alignment, and the last
        // span ends exactly at completion.
        assert!(json.contains("\"name\":\"attr.window_wait\",\"ph\":\"X\",\"pid\":5,\"tid\":5,\"ts\":1000,\"dur\":100"));
        assert!(json.contains(
            "\"name\":\"attr.queue_wait\",\"ph\":\"X\",\"pid\":5,\"tid\":5,\"ts\":1100,\"dur\":50"
        ));
        assert!(json.contains(
            "\"name\":\"attr.execute\",\"ph\":\"X\",\"pid\":5,\"tid\":5,\"ts\":1180,\"dur\":400"
        ));
        assert!(json.contains(
            "\"name\":\"attr.drain\",\"ph\":\"X\",\"pid\":5,\"tid\":5,\"ts\":1580,\"dur\":64"
        ));
        // Zero-width stages (replay on a clean launch) render nothing.
        assert!(!json.contains("attr.replay"));
    }

    /// Request tracks only add to a document: without requests, with
    /// telemetry or without, the export is byte for byte the one with
    /// them up to where their process begins.
    #[test]
    fn attribution_absent_is_byte_identical() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        let events = sample();
        let mut t = Telemetry::empty(TelemetryConfig::default());
        t.count("serve.throughput", "t0", 5, 1);
        let requests = [breakdown(5, 1)];
        for telemetry in [None, Some(&t)] {
            let absent = ChromeExtras {
                telemetry,
                ..lossy(3)
            };
            let present = ChromeExtras {
                requests: &requests,
                ..absent
            };
            let absent = chrome_trace_json(&events, absent);
            let present = chrome_trace_json(&events, present);
            let body = absent.strip_suffix("\n]}\n").unwrap();
            assert!(present.starts_with(body) && present.len() > absent.len());
            assert!(present[body.len()..].starts_with(",\n{\"name\":\"process_name\""));
        }
    }

    #[test]
    fn combined_export_joins_serving_telemetry_and_requests() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        let mut events = sample();
        events.push(TraceEvent {
            cycle: 1_000,
            lane: SERVING_LANE,
            seq: 3,
            dur: 0,
            kind: EventKind::RequestEnqueue {
                tenant: 0,
                request: 5,
            },
        });
        let mut t = Telemetry::empty(TelemetryConfig {
            window: 100,
            slo_permille: 990,
        });
        t.count("serve.throughput", "ten\"ant\\zero\n", 5, 3);
        let requests = [breakdown(5, 0)];
        let extras = ChromeExtras {
            telemetry: Some(&t),
            requests: &requests,
            ..ChromeExtras::default()
        };
        let render = || chrome_trace_json(&events, extras);
        let json = render();
        // All three observability surfaces share one document.
        assert!(json.contains("\"args\":{\"name\":\"serving\"}"));
        assert!(json.contains("\"args\":{\"name\":\"telemetry\"}"));
        assert!(json.contains("\"args\":{\"name\":\"requests\"}"));
        // The hostile tenant label is escaped, not interpolated raw.
        assert!(json.contains(r#"serve.throughput[ten\"ant\\zero\n]"#));
        // Structurally valid despite the hostile label, and byte-stable
        // across reruns.
        let mut c = crate::json::Cursor::new(&json);
        assert!(c.raw_value().is_ok());
        c.expect_end().unwrap();
        assert_eq!(render(), json, "rerun is byte-identical");
    }

    #[test]
    fn overlay_renders_two_tracks_per_link() {
        use crate::profile::{PlannedHop, PlannedTimeline};
        let planned = PlannedTimeline {
            hops: vec![PlannedHop {
                link: 3,
                transfer: 0,
                vector: 0,
                cycle: 30,
                wire_start: 10,
                wire_end: 20,
                dest_lane: 1,
            }],
            chips: vec![],
            span: 40,
            arrivals: vec![30],
        };
        let observed = vec![TraceEvent {
            cycle: 30,
            lane: 1,
            seq: 0,
            dur: 0,
            kind: EventKind::Delivery {
                link: 3,
                transfer: 0,
                vector: 0,
            },
        }];
        let extras = ChromeExtras {
            planned: Some(&planned),
            ..ChromeExtras::default()
        };
        let json = chrome_trace_json(&observed, extras);
        assert!(json.contains("\"args\":{\"name\":\"links\"}"));
        assert!(json.contains("link 3 planned"));
        assert!(json.contains("link 3 observed"));
        // Planned wire window on tid 6, observed instant on tid 7.
        assert!(json.contains("\"name\":\"link.slot\",\"ph\":\"X\",\"pid\":2,\"tid\":6"));
        assert!(json
            .contains("\"name\":\"link.delivery\",\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":7"));
    }
}
