//! Structural validation of the hand-rolled JSON emitters.
//!
//! The workspace has no JSON library, so this harness carries its own
//! minimal JSON syntax checker: a single-pass scanner that verifies
//! string escaping plus brace/bracket balance — enough to guarantee the
//! documents parse in any real JSON reader (Perfetto included).

use tsm_trace::{
    chrome_trace_json, ChromeExtras, EventKind, Metrics, ShedReason, TraceEvent, RUNTIME_LANE,
};

/// Returns `Err` with a position if `s` is not structurally valid JSON
/// (balanced `{}`/`[]` outside strings, properly terminated strings, no
/// trailing garbage).
fn check_json_shape(s: &str) -> Result<(), String> {
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut depth_hit_zero_at = None;
    for (i, c) in s.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                if depth_hit_zero_at.is_some() {
                    return Err(format!("content after document end at byte {i}"));
                }
                stack.push(c);
            }
            '}' => {
                if stack.pop() != Some('{') {
                    return Err(format!("unbalanced '}}' at byte {i}"));
                }
                if stack.is_empty() {
                    depth_hit_zero_at = Some(i);
                }
            }
            ']' => {
                if stack.pop() != Some('[') {
                    return Err(format!("unbalanced ']' at byte {i}"));
                }
                if stack.is_empty() {
                    depth_hit_zero_at = Some(i);
                }
            }
            c if c.is_whitespace() || "0123456789.,:+-eE".contains(c) => {}
            c if c.is_ascii_alphabetic() => {} // true/false/null tokens
            c => return Err(format!("unexpected character {c:?} at byte {i}")),
        }
    }
    if in_string {
        return Err("unterminated string".to_string());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed scopes", stack.len()));
    }
    if depth_hit_zero_at.is_none() {
        return Err("no top-level value".to_string());
    }
    Ok(())
}

fn every_kind() -> Vec<TraceEvent> {
    let kinds = vec![
        EventKind::ChipExec {
            depth: 2,
            instructions: 9,
        },
        EventKind::Deliveries { count: 4 },
        EventKind::Emissions { count: 4 },
        EventKind::Delivery {
            link: 1,
            transfer: 0,
            vector: 3,
        },
        EventKind::LinkCorrected { link: 1, bit: 2047 },
        EventKind::LinkUncorrectable { link: 1 },
        EventKind::LinkDemoted { link: 1 },
        EventKind::LaunchBegin { graph_fp: u64::MAX },
        EventKind::Align,
        EventKind::Compile { epoch: 0 },
        EventKind::Reuse { epoch: 1 },
        EventKind::ReplayEpoch { attempt: 3 },
        EventKind::BlameVote { node: 1, votes: 2 },
        EventKind::Failover { node: 1, epoch: 2 },
        EventKind::LaunchEnd { attempts: 4 },
        EventKind::RequestEnqueue {
            tenant: 1,
            request: 2,
        },
        EventKind::RequestShed {
            tenant: 1,
            request: 3,
            reason: ShedReason::QueueFull,
        },
        EventKind::RequestShed {
            tenant: 2,
            request: 4,
            reason: ShedReason::TenantOverQuota,
        },
        EventKind::RequestExpired {
            tenant: 1,
            request: 5,
            late: 99,
        },
        EventKind::RequestComplete {
            tenant: 1,
            request: 2,
            latency: 1234,
        },
        EventKind::BatchBegin { batch: 7, size: 3 },
        EventKind::BatchEnd {
            batch: 7,
            attempts: 1,
        },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            cycle: i as u64 * 10,
            lane: if i % 3 == 0 { RUNTIME_LANE } else { i as u32 },
            seq: i as u32,
            dur: if i % 2 == 0 { 5 } else { 0 },
            kind,
        })
        .collect()
}

#[test]
fn validator_accepts_known_good_and_rejects_known_bad() {
    check_json_shape(r#"{"a": [1, 2, {"b": "c\"d"}], "e": true}"#).unwrap();
    assert!(check_json_shape(r#"{"a": [1, 2}"#).is_err());
    assert!(check_json_shape(r#"{"a": "unterminated}"#).is_err());
    assert!(check_json_shape(r#"{} trailing {"#).is_err());
}

#[test]
fn chrome_trace_of_every_event_kind_is_valid_json() {
    let json = chrome_trace_json(&every_kind(), ChromeExtras::default());
    check_json_shape(&json).unwrap_or_else(|e| panic!("invalid chrome trace: {e}\n{json}"));
    // Every kind must appear with its own name.
    for name in [
        "chip.exec",
        "chip.deliveries",
        "chip.emissions",
        "link.delivery",
        "link.corrected",
        "link.uncorrectable",
        "link.demoted",
        "launch.begin",
        "launch.align",
        "runtime.compile",
        "runtime.reuse",
        "runtime.replay_epoch",
        "runtime.blame_vote",
        "runtime.failover",
        "launch.end",
        "serve.enqueue",
        "serve.shed",
        "serve.expired",
        "serve.complete",
        "serve.batch",
        "serve.batch_end",
    ] {
        assert!(json.contains(name), "missing event name {name}");
    }
}

#[test]
fn run_metrics_json_is_valid() {
    use tsm_trace::names;
    let m = Metrics::default();
    m.inc(names::RT_COMPILES, 1);
    m.inc_labeled(names::LINK_CORRECTED, 7, 3);
    m.set_gauge(names::COSIM_CHIPS, 16);
    m.observe_cycles(names::COSIM_RETIRE_CYCLES, 1234);
    let json = m.snapshot().to_json();
    check_json_shape(&json).unwrap_or_else(|e| panic!("invalid metrics json: {e}\n{json}"));
}

#[test]
fn empty_metrics_json_is_valid() {
    check_json_shape(&Metrics::default().snapshot().to_json()).unwrap();
}

/// A metric name carrying every structurally dangerous character must not
/// corrupt the document — the emitter escapes through
/// [`tsm_trace::escape_json`].
#[test]
fn hostile_metric_names_cannot_corrupt_the_document() {
    use tsm_trace::{CounterEntry, CycleHistogram, GaugeEntry, RunMetrics};
    let hostile = "evil\"name\\with\nnasties\t\u{0001}";
    let mut hist = CycleHistogram::default();
    hist.observe(42);
    let snap = RunMetrics {
        counters: vec![CounterEntry {
            name: hostile.to_string(),
            label: Some(7),
            value: 1,
        }],
        gauges: vec![GaugeEntry {
            name: hostile.to_string(),
            value: 2,
        }],
        histograms: vec![(hostile.to_string(), hist)],
    };
    let json = snap.to_json();
    check_json_shape(&json).unwrap_or_else(|e| panic!("hostile names broke the json: {e}\n{json}"));
    assert!(json.contains("evil\\\"name\\\\with"), "escapes applied");
}

/// The escape/unescape pair is an exact inverse over the emitters' string
/// space, so a parser reading the documents back recovers the labels
/// byte-for-byte.
#[test]
fn escape_round_trip_recovers_hostile_labels() {
    use tsm_trace::{escape_json, unescape_json};
    for s in [
        "plain.name",
        "qu\"ote",
        "back\\slash",
        "multi\nline\tlabel",
        "ctrl\u{0002}chars\u{001f}",
    ] {
        let escaped = escape_json(s);
        check_json_shape(&format!("{{\"{escaped}\": 1}}")).unwrap();
        assert_eq!(unescape_json(&escaped).unwrap(), s);
    }
}

/// The lossy-trace banner and the plan overlay are valid JSON too.
#[test]
fn banner_and_overlay_documents_are_valid_json() {
    use tsm_trace::{PlannedHop, PlannedTimeline};
    let events = every_kind();
    let extras = ChromeExtras {
        dropped: 123,
        ..ChromeExtras::default()
    };
    let lossy = chrome_trace_json(&events, extras);
    check_json_shape(&lossy).unwrap_or_else(|e| panic!("invalid lossy trace: {e}\n{lossy}"));
    assert!(lossy.contains("WARNING"));
    let planned = PlannedTimeline {
        hops: vec![PlannedHop {
            link: 1,
            transfer: 0,
            vector: 3,
            cycle: 40,
            wire_start: 20,
            wire_end: 30,
            dest_lane: 2,
        }],
        chips: vec![],
        span: 50,
        arrivals: vec![40],
    };
    let extras = ChromeExtras {
        planned: Some(&planned),
        ..ChromeExtras::default()
    };
    let overlay = chrome_trace_json(&events, extras);
    check_json_shape(&overlay).unwrap_or_else(|e| panic!("invalid overlay: {e}\n{overlay}"));
    assert!(overlay.contains("link 1 planned"));
    assert!(overlay.contains("link 1 observed"));
}

/// The flight recorder embeds events in its incidents' trace tails
/// through `TraceEvent::to_json`, so its bytes are pinned for every kind,
/// both shed reasons included: the compact writer's field order, names
/// and number formatting cannot drift unnoticed.
#[test]
fn event_json_is_pinned_for_every_kind() {
    let pinned = [
        r#"{"cycle":0,"lane":4294967295,"seq":0,"dur":5,"kind":"chip.exec","depth":2,"instructions":9}"#,
        r#"{"cycle":10,"lane":1,"seq":1,"dur":0,"kind":"chip.deliveries","count":4}"#,
        r#"{"cycle":20,"lane":2,"seq":2,"dur":5,"kind":"chip.emissions","count":4}"#,
        r#"{"cycle":30,"lane":4294967295,"seq":3,"dur":0,"kind":"link.delivery","link":1,"transfer":0,"vector":3}"#,
        r#"{"cycle":40,"lane":4,"seq":4,"dur":5,"kind":"link.corrected","link":1,"bit":2047}"#,
        r#"{"cycle":50,"lane":5,"seq":5,"dur":0,"kind":"link.uncorrectable","link":1}"#,
        r#"{"cycle":60,"lane":4294967295,"seq":6,"dur":5,"kind":"link.demoted","link":1}"#,
        r#"{"cycle":70,"lane":7,"seq":7,"dur":0,"kind":"launch.begin","graph_fp":18446744073709551615}"#,
        r#"{"cycle":80,"lane":8,"seq":8,"dur":5,"kind":"launch.align"}"#,
        r#"{"cycle":90,"lane":4294967295,"seq":9,"dur":0,"kind":"runtime.compile","epoch":0}"#,
        r#"{"cycle":100,"lane":10,"seq":10,"dur":5,"kind":"runtime.reuse","epoch":1}"#,
        r#"{"cycle":110,"lane":11,"seq":11,"dur":0,"kind":"runtime.replay_epoch","attempt":3}"#,
        r#"{"cycle":120,"lane":4294967295,"seq":12,"dur":5,"kind":"runtime.blame_vote","node":1,"votes":2}"#,
        r#"{"cycle":130,"lane":13,"seq":13,"dur":0,"kind":"runtime.failover","node":1,"epoch":2}"#,
        r#"{"cycle":140,"lane":14,"seq":14,"dur":5,"kind":"launch.end","attempts":4}"#,
        r#"{"cycle":150,"lane":4294967295,"seq":15,"dur":0,"kind":"serve.enqueue","tenant":1,"request":2}"#,
        r#"{"cycle":160,"lane":16,"seq":16,"dur":5,"kind":"serve.shed","tenant":1,"request":3,"reason":"queue_full"}"#,
        r#"{"cycle":170,"lane":17,"seq":17,"dur":0,"kind":"serve.shed","tenant":2,"request":4,"reason":"tenant_over_quota"}"#,
        r#"{"cycle":180,"lane":4294967295,"seq":18,"dur":5,"kind":"serve.expired","tenant":1,"request":5,"late":99}"#,
        r#"{"cycle":190,"lane":19,"seq":19,"dur":0,"kind":"serve.complete","tenant":1,"request":2,"latency":1234}"#,
        r#"{"cycle":200,"lane":20,"seq":20,"dur":5,"kind":"serve.batch","batch":7,"size":3}"#,
        r#"{"cycle":210,"lane":4294967295,"seq":21,"dur":0,"kind":"serve.batch_end","batch":7,"attempts":1}"#,
    ];
    let events = every_kind();
    assert_eq!(events.len(), pinned.len());
    for (e, want) in events.iter().zip(pinned) {
        assert_eq!(e.to_json(), want);
    }
}
