//! Trace sinks: where emitted events go.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Mutex;

use crate::event::TraceEvent;

/// Receiver for trace events. Implementations must be `Send + Sync` because
/// a sink may be shared (behind `Arc`) between the runtime and its executor;
/// they are only ever *called* from serial code paths, so a plain `Mutex`
/// suffices internally.
pub trait TraceSink: Send + Sync + Debug {
    /// False lets emission points skip event construction entirely —
    /// [`NullSink`] returns false, making disabled tracing one branch.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Accepts one event. Events arrive in emission order, which the
    /// simulator guarantees is deterministic.
    fn record(&self, event: TraceEvent);

    /// Events this sink had to discard (bounded buffers evict, the rest
    /// never drop). Consumers that interpret a timeline as *complete* —
    /// the conformance profiler above all — must check this and refuse a
    /// lossy trace rather than silently reading truncation as truth.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The zero-cost disabled sink: reports itself disabled, records nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// In-memory bounded sink. Keeps the most recent `capacity` events,
/// counting (not silently discarding) anything older that had to be
/// evicted.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    inner: Mutex<Ring>,
}

impl RingSink {
    /// A sink retaining at most `capacity` events (oldest evicted first).
    /// Capacity 0 is honored literally: every record is counted as
    /// dropped and nothing is buffered — a pure drop counter.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity,
            inner: Mutex::new(Ring::default()),
        }
    }

    /// Events currently buffered, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().events.iter().copied().collect()
    }

    /// Events sorted by the canonical `(cycle, lane, seq)` merge key.
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        let mut ev = self.events();
        ev.sort_by_key(|e| e.key());
        ev
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all buffered events and resets the eviction counter.
    pub fn clear(&self) {
        let mut g = self.inner.lock().unwrap();
        g.events.clear();
        g.dropped = 0;
    }

    /// Renders the buffered events as Chrome-trace JSON (see
    /// [`crate::chrome_trace_json`]). A lossy buffer gets a warning banner
    /// at the head of the timeline so truncation is visible in the viewer.
    pub fn chrome_trace(&self) -> String {
        let extras = crate::ChromeExtras {
            dropped: RingSink::dropped(self),
            ..crate::ChromeExtras::default()
        };
        crate::chrome_trace_json(&self.events(), extras)
    }
}

impl Default for RingSink {
    /// 64 Ki events — enough for every workload in this repo with room to
    /// spare, small enough to never matter (each event is a few words).
    fn default() -> Self {
        RingSink::new(1 << 16)
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: TraceEvent) {
        let mut g = self.inner.lock().unwrap();
        if self.capacity == 0 {
            g.dropped += 1;
            return;
        }
        if g.events.len() == self.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(event);
    }

    fn dropped(&self) -> u64 {
        RingSink::dropped(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u32) -> TraceEvent {
        TraceEvent {
            cycle: seq as u64,
            lane: 0,
            seq,
            dur: 0,
            kind: EventKind::Align,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let ring = RingSink::new(3);
        for s in 0..5 {
            ring.record(ev(s));
        }
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u32> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn capacity_zero_drops_everything_and_buffers_nothing() {
        let ring = RingSink::new(0);
        for s in 0..4 {
            ring.record(ev(s));
        }
        assert!(ring.is_empty(), "capacity 0 never buffers");
        assert_eq!(ring.dropped(), 4, "every record is accounted as dropped");
        // The exporter banner must agree with the drop counter.
        let json = ring.chrome_trace();
        assert!(json.contains("WARNING: trace truncated — 4 event(s) dropped"));
        assert!(json.contains("\"dropped\":4"));
    }

    #[test]
    fn exactly_at_capacity_drops_nothing_one_past_drops_one() {
        let ring = RingSink::new(3);
        for s in 0..3 {
            ring.record(ev(s));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0, "filling to capacity exactly is lossless");
        assert!(!ring.chrome_trace().contains("WARNING"));
        ring.record(ev(3));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 1, "one past capacity evicts exactly one");
        let seqs: Vec<u32> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "oldest event is the one evicted");
        assert!(ring
            .chrome_trace()
            .contains("WARNING: trace truncated — 1 event(s) dropped"));
    }

    #[test]
    fn clear_resets_everything() {
        let ring = RingSink::new(2);
        ring.record(ev(0));
        ring.record(ev(1));
        ring.record(ev(2));
        assert!(!ring.is_empty());
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn sorted_events_orders_by_merge_key() {
        let ring = RingSink::new(8);
        ring.record(TraceEvent {
            cycle: 9,
            lane: 1,
            seq: 0,
            dur: 0,
            kind: EventKind::Align,
        });
        ring.record(TraceEvent {
            cycle: 3,
            lane: 0,
            seq: 1,
            dur: 0,
            kind: EventKind::Align,
        });
        let sorted = ring.sorted_events();
        assert_eq!(sorted[0].cycle, 3);
        assert_eq!(sorted[1].cycle, 9);
    }
}
