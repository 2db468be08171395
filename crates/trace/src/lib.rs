//! Cycle-resolved tracing and metrics for the TSM simulator.
//!
//! The paper's system is software-scheduled and fully deterministic, so its
//! execution is *perfectly explainable* — this crate is the layer that does
//! the explaining. It provides two complementary artifacts:
//!
//! - **Structured trace events** ([`TraceEvent`]) keyed by
//!   `(cycle, lane, seq)` and pushed through a [`TraceSink`]. The default
//!   [`NullSink`] makes tracing zero-cost when disabled (a single branch per
//!   emission point); [`RingSink`] buffers events in memory;
//!   [`chrome_trace_json`] renders any event slice as a Chrome-trace /
//!   Perfetto JSON timeline.
//! - **Deterministic metrics** ([`Metrics`]) — counters, gauges, and
//!   cycle-bucketed histograms keyed by static `&str` names — snapshotted
//!   into a serializable, order-independent [`RunMetrics`] that higher
//!   layers attach to their reports as the single source of tally truth.
//! - **Windowed telemetry** ([`telemetry`]) — a [`Telemetry`] record
//!   buckets counter deltas and gauge levels into fixed virtual-cycle
//!   windows as mergeable time series (per-tenant SLO attainment, and
//!   per-link/per-chip occupancy heatmaps that a [`TelemetrySink`] folds
//!   out of the trace) that export as
//!   Perfetto counter tracks ([`ChromeExtras::telemetry`]) and a
//!   deterministic JSON block.
//! - **Causal latency attribution** ([`attribution`]) — joins each served
//!   request's lifetime into a [`LatencyBreakdown`] whose stage components
//!   (window wait, queue wait, alignment, replay, execute, drain) sum
//!   *exactly* to its end-to-end latency — a typed [`AttributionError`] on
//!   any gap or overlap — aggregated into per-tenant/per-stage
//!   [`RunMetrics`] by [`AttributionReport`] and rendered as per-request
//!   span tracks ([`ChromeExtras::requests`]).
//! - **Plan-vs-actual profiling** ([`profile::profile`]) — joins a
//!   compiled plan's predicted per-hop schedule ([`PlannedTimeline`])
//!   with the observed event stream into a [`LaunchProfile`]: link
//!   utilization, chip busy/stall/idle, the critical path with
//!   per-transfer slack, and a machine-checked [`Conformance`] verdict
//!   (zero skew on fault-free runs; itemized per-link skew on replays).
//!
//! Determinism discipline: every emission point in the simulator sits on a
//! serial code path (plan binding, the post-level merge loop, the runtime's
//! launch loop), so the event *sequence* — not just the sorted set — is
//! bit-identical between serial and parallel execution. Tests in `tsm-core`
//! enforce this, which makes the trace itself a correctness oracle.
//!
//! This crate is a leaf: it speaks raw `u32`/`u64` lane, link, and node
//! identifiers so every other crate in the workspace can depend on it
//! without cycles.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod telemetry;

pub use attribution::{AttributionError, AttributionReport, LatencyBreakdown, Stage};
pub use chrome::{chrome_trace_json, ChromeExtras};
pub use event::{EventKind, ShedReason, TraceEvent, Tracer, RUNTIME_LANE, SERVING_LANE};
pub use json::{escape_json, unescape_json, Cursor, JsonWriter};
pub use metrics::{names, CounterEntry, CycleHistogram, GaugeEntry, Metrics, RunMetrics};
pub use profile::{
    Conformance, LaunchProfile, PlannedChip, PlannedHop, PlannedTimeline, ProfileError,
};
pub use sink::{NullSink, RingSink, TraceSink};
pub use telemetry::{sparkline, SeriesKind, Telemetry, TelemetryConfig, TelemetrySink, TimeSeries};
