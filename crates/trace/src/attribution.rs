//! Request-scoped causal latency attribution.
//!
//! The serving trace already records *what* happened to every request
//! (`RequestEnqueue → BatchBegin → … → RequestComplete`); this module
//! answers *why the request took that long*. A [`LatencyBreakdown`] joins
//! one request's lifetime with the launch that served it and splits the
//! end-to-end enqueue→complete latency into causal stages:
//!
//! - **batch-window wait** — cycles spent while the dispatcher was
//!   deliberately holding the batch window open,
//! - **queue wait** — cycles spent queued behind a busy server,
//! - **alignment** — the launch's one-time hardware-alignment window,
//! - **replay** — execution windows of aborted attempts,
//! - **execute** — the final (successful) attempt's execution window,
//! - **drain** — the inter-epoch drain gaps, one per attempt.
//!
//! The decomposition is *exact*: the six components sum to the measured
//! latency with zero gaps and zero overlaps, or construction fails with a
//! typed [`AttributionError`]. Compile-vs-reuse is recorded as counts
//! ([`LatencyBreakdown::compiles`]/[`LatencyBreakdown::reuses`]) rather
//! than cycles — the launch engine's virtual timeline assigns zero width
//! to plan compilation, so the flag tells you *which path* the batch took
//! while the cycle identity stays exact.
//!
//! Everything here is virtual-cycle arithmetic over values the serving
//! loop already computed, so attribution is observation-only and fully
//! deterministic: the same serve run produces byte-identical
//! [`LatencyBreakdown::to_json`] output every time.

use std::fmt;

use crate::json::{Cursor, JsonWriter};
use crate::metrics::{Metrics, RunMetrics};

/// One causal stage of a request's latency, in stitched-timeline order
/// (the order the cycles were actually spent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// The dispatcher held the batch window open.
    WindowWait,
    /// The request sat queued behind a busy server.
    QueueWait,
    /// The launch's one-time hardware-alignment window.
    Alignment,
    /// Execution windows of aborted attempts (replays).
    Replay,
    /// The final attempt's execution window.
    Execute,
    /// Inter-epoch drain gaps, one per attempt.
    Drain,
}

impl Stage {
    /// Every stage, in stitched-timeline order. The per-request span
    /// tracks render in this order, and [`LatencyBreakdown::critical_stage`]
    /// breaks ties toward the earlier stage.
    pub const ALL: [Stage; 6] = [
        Stage::WindowWait,
        Stage::QueueWait,
        Stage::Alignment,
        Stage::Replay,
        Stage::Execute,
        Stage::Drain,
    ];

    /// Stable display / metric name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::WindowWait => "window_wait",
            Stage::QueueWait => "queue_wait",
            Stage::Alignment => "alignment",
            Stage::Replay => "replay",
            Stage::Execute => "execute",
            Stage::Drain => "drain",
        }
    }

    /// Name of the per-stage latency histogram in an
    /// [`AttributionReport`]'s metrics.
    pub fn histogram_metric(self) -> &'static str {
        match self {
            Stage::WindowWait => "attr.window_wait",
            Stage::QueueWait => "attr.queue_wait",
            Stage::Alignment => "attr.alignment",
            Stage::Replay => "attr.replay",
            Stage::Execute => "attr.execute",
            Stage::Drain => "attr.drain",
        }
    }

    /// Name of the per-tenant cycle-total counter for this stage
    /// (labelled by tenant id).
    pub fn total_metric(self) -> &'static str {
        match self {
            Stage::WindowWait => "attr.total.window_wait",
            Stage::QueueWait => "attr.total.queue_wait",
            Stage::Alignment => "attr.total.alignment",
            Stage::Replay => "attr.total.replay",
            Stage::Execute => "attr.total.execute",
            Stage::Drain => "attr.total.drain",
        }
    }

    /// Name of the per-tenant critical-verdict counter for this stage
    /// (labelled by tenant id): how many of the tenant's requests had
    /// this stage as their largest component.
    pub fn critical_metric(self) -> &'static str {
        match self {
            Stage::WindowWait => "attr.critical.window_wait",
            Stage::QueueWait => "attr.critical.queue_wait",
            Stage::Alignment => "attr.critical.alignment",
            Stage::Replay => "attr.critical.replay",
            Stage::Execute => "attr.critical.execute",
            Stage::Drain => "attr.critical.drain",
        }
    }

    fn from_str(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a latency decomposition failed. The sum identity is a structural
/// guarantee of the serving loop's arithmetic, so any of these indicates
/// a bug in the caller's bookkeeping — they are surfaced as typed errors
/// (and asserted across every request in `repro serve`) rather than
/// silently clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributionError {
    /// The stage components sum to less than the end-to-end latency:
    /// `missing` cycles are unaccounted for.
    Gap {
        /// Request the breakdown belongs to.
        request: u32,
        /// Sum of the stage components.
        total: u64,
        /// Measured end-to-end latency.
        latency: u64,
        /// `latency - total`.
        missing: u64,
    },
    /// The stage components sum to more than the end-to-end latency:
    /// `excess` cycles were double-counted.
    Overlap {
        /// Request the breakdown belongs to.
        request: u32,
        /// Sum of the stage components.
        total: u64,
        /// Measured end-to-end latency.
        latency: u64,
        /// `total - latency`.
        excess: u64,
    },
    /// A stage's width came out negative during construction (e.g. the
    /// launch timeline is narrower than its own alignment + attempt
    /// windows) — the inputs are inconsistent.
    Underflow {
        /// Request the breakdown belongs to.
        request: u32,
        /// Stage whose width underflowed.
        stage: Stage,
    },
}

impl fmt::Display for AttributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AttributionError::Gap {
                request,
                total,
                latency,
                missing,
            } => write!(
                f,
                "request {request}: stage components sum to {total} but latency is {latency} \
                 ({missing} cycles unattributed)"
            ),
            AttributionError::Overlap {
                request,
                total,
                latency,
                excess,
            } => write!(
                f,
                "request {request}: stage components sum to {total} but latency is {latency} \
                 ({excess} cycles double-counted)"
            ),
            AttributionError::Underflow { request, stage } => write!(
                f,
                "request {request}: stage {stage} width underflowed — inconsistent launch inputs"
            ),
        }
    }
}

impl std::error::Error for AttributionError {}

/// The exact causal decomposition of one served request's latency.
///
/// Invariant (checked at construction and by [`LatencyBreakdown::verify`]):
/// the six stage components sum to `completion - arrival` with zero gaps
/// and zero overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Serving-frontend request id (index into the offered slice).
    pub request: u32,
    /// Tenant the request belongs to.
    pub tenant: u32,
    /// Batch that carried the request.
    pub batch: u32,
    /// Arrival (enqueue) cycle.
    pub arrival: u64,
    /// Completion cycle.
    pub completion: u64,
    /// Cycles the dispatcher deliberately held the batch window open.
    pub window_wait: u64,
    /// Cycles spent queued behind a busy server.
    pub queue_wait: u64,
    /// The launch's one-time alignment window.
    pub alignment: u64,
    /// Execution windows of aborted attempts.
    pub replay: u64,
    /// The final attempt's execution window.
    pub execute: u64,
    /// Inter-epoch drain gaps (one per attempt).
    pub drain: u64,
    /// Plan compilations the batch's launch performed (0 on a warm path).
    pub compiles: u32,
    /// Compile-cache reuses the batch's launch took.
    pub reuses: u32,
}

impl LatencyBreakdown {
    /// Joins one request's dispatch bookkeeping with its batch's launch
    /// record into an exact decomposition.
    ///
    /// `dispatch` is the batch's dispatch cycle
    /// (`max(server_free_at, window_deadline)`), `window_deadline` the
    /// batch-window deadline in force at dispatch, `final_span` the
    /// compiled span of the launch's final program, `attempts` the
    /// execution attempts consumed, and `epoch_gap` the per-attempt drain
    /// gap. The replay component is derived as the timeline residual, so
    /// it stays exact even when a mid-launch failover recompile changes
    /// the program span between attempts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_dispatch(
        request: u32,
        tenant: u32,
        batch: u32,
        arrival: u64,
        dispatch: u64,
        window_deadline: u64,
        completion: u64,
        alignment: u64,
        final_span: u64,
        attempts: u32,
        epoch_gap: u64,
        compiles: u32,
        reuses: u32,
    ) -> Result<LatencyBreakdown, AttributionError> {
        let wait = dispatch
            .checked_sub(arrival)
            .ok_or(AttributionError::Underflow {
                request,
                stage: Stage::QueueWait,
            })?;
        // The window portion of the wait ends when the batch window
        // closes; a stale deadline (from a previous batch) contributes
        // nothing. Clamped into the wait so the pair always partitions it.
        let window_wait = dispatch
            .min(window_deadline)
            .saturating_sub(arrival)
            .min(wait);
        let queue_wait = wait - window_wait;
        let service = completion
            .checked_sub(dispatch)
            .ok_or(AttributionError::Underflow {
                request,
                stage: Stage::Execute,
            })?;
        // The launch timeline is alignment + one (span+gap) window per
        // attempt; the final attempt's window is `final_span.max(1)` (the
        // engine widens zero-span programs to one cycle). Everything the
        // earlier attempts consumed is the residual — exact by
        // construction, even across failover recompiles.
        let execute = final_span.max(1);
        let drain = epoch_gap.saturating_mul(u64::from(attempts));
        let replay = service
            .checked_sub(alignment)
            .and_then(|r| r.checked_sub(drain))
            .and_then(|r| r.checked_sub(execute))
            .ok_or(AttributionError::Underflow {
                request,
                stage: Stage::Replay,
            })?;
        let b = LatencyBreakdown {
            request,
            tenant,
            batch,
            arrival,
            completion,
            window_wait,
            queue_wait,
            alignment,
            replay,
            execute,
            drain,
            compiles,
            reuses,
        };
        b.verify()?;
        Ok(b)
    }

    /// The measured end-to-end latency (`completion - arrival`).
    pub fn latency(&self) -> u64 {
        self.completion - self.arrival
    }

    /// The width of one stage.
    pub fn component(&self, stage: Stage) -> u64 {
        match stage {
            Stage::WindowWait => self.window_wait,
            Stage::QueueWait => self.queue_wait,
            Stage::Alignment => self.alignment,
            Stage::Replay => self.replay,
            Stage::Execute => self.execute,
            Stage::Drain => self.drain,
        }
    }

    /// Sum of the six stage components.
    pub fn total(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.component(s)).sum()
    }

    /// Checks the exactness invariant: components sum to the latency, no
    /// gap, no overlap.
    pub fn verify(&self) -> Result<(), AttributionError> {
        let total = self.total();
        let latency = self.latency();
        if total < latency {
            return Err(AttributionError::Gap {
                request: self.request,
                total,
                latency,
                missing: latency - total,
            });
        }
        if total > latency {
            return Err(AttributionError::Overlap {
                request: self.request,
                total,
                latency,
                excess: total - latency,
            });
        }
        Ok(())
    }

    /// The critical-stage verdict: the stage that consumed the most
    /// cycles, ties broken toward the earlier stage in timeline order.
    pub fn critical_stage(&self) -> Stage {
        let mut best = Stage::ALL[0];
        for &s in &Stage::ALL[1..] {
            if self.component(s) > self.component(best) {
                best = s;
            }
        }
        best
    }

    /// Compact, byte-deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object()
            .field_u64("request", u64::from(self.request))
            .field_u64("tenant", u64::from(self.tenant))
            .field_u64("batch", u64::from(self.batch))
            .field_u64("arrival", self.arrival)
            .field_u64("completion", self.completion)
            .field_u64("window_wait", self.window_wait)
            .field_u64("queue_wait", self.queue_wait)
            .field_u64("alignment", self.alignment)
            .field_u64("replay", self.replay)
            .field_u64("execute", self.execute)
            .field_u64("drain", self.drain)
            .field_u64("compiles", u64::from(self.compiles))
            .field_u64("reuses", u64::from(self.reuses))
            .field_str("critical", self.critical_stage().as_str());
        w.end_object();
        w.finish()
    }

    /// Parses what [`LatencyBreakdown::to_json`] emits (the `critical`
    /// field is derived and merely validated against the components).
    pub fn from_json(s: &str) -> Result<LatencyBreakdown, String> {
        let mut c = Cursor::new(s);
        let b = Self::parse(&mut c)?;
        c.expect_end()?;
        Ok(b)
    }

    /// Parses one breakdown object at the cursor (for embedding in larger
    /// documents).
    pub fn parse(c: &mut Cursor<'_>) -> Result<LatencyBreakdown, String> {
        let mut b = LatencyBreakdown {
            request: 0,
            tenant: 0,
            batch: 0,
            arrival: 0,
            completion: 0,
            window_wait: 0,
            queue_wait: 0,
            alignment: 0,
            replay: 0,
            execute: 0,
            drain: 0,
            compiles: 0,
            reuses: 0,
        };
        let mut critical = None;
        c.object(|c, key| {
            match key {
                "request" => b.request = c.narrow("request")?,
                "tenant" => b.tenant = c.narrow("tenant")?,
                "batch" => b.batch = c.narrow("batch")?,
                "arrival" => b.arrival = c.u64()?,
                "completion" => b.completion = c.u64()?,
                "window_wait" => b.window_wait = c.u64()?,
                "queue_wait" => b.queue_wait = c.u64()?,
                "alignment" => b.alignment = c.u64()?,
                "replay" => b.replay = c.u64()?,
                "execute" => b.execute = c.u64()?,
                "drain" => b.drain = c.u64()?,
                "compiles" => b.compiles = c.narrow("compiles")?,
                "reuses" => b.reuses = c.narrow("reuses")?,
                "critical" => {
                    let s = c.string()?;
                    critical = Some(Stage::from_str(&s).ok_or(format!("unknown stage {s:?}"))?);
                }
                other => return Err(format!("unknown breakdown key {other:?}")),
            }
            Ok(())
        })?;
        b.verify().map_err(|e| e.to_string())?;
        if let Some(cs) = critical {
            if cs != b.critical_stage() {
                return Err(format!(
                    "critical verdict {cs} disagrees with components ({})",
                    b.critical_stage()
                ));
            }
        }
        Ok(b)
    }
}

/// The aggregated attribution record of one serve run: every served
/// request's verified [`LatencyBreakdown`] (in completion order, the
/// order the serving loop retired them) plus the per-stage / per-tenant
/// aggregation as [`RunMetrics`]:
///
/// - one `attr.<stage>` histogram per stage over all requests,
/// - one `attr.total.<stage>` counter per stage, labelled by tenant id,
///   holding the tenant's total cycles in that stage,
/// - one `attr.critical.<stage>` counter per stage, labelled by tenant
///   id, counting the tenant's requests whose verdict was that stage.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Verified breakdowns, one per served request, in retirement order.
    pub breakdowns: Vec<LatencyBreakdown>,
    /// Per-stage histograms and per-tenant stage totals / critical
    /// verdicts (see the struct docs for the metric names).
    pub metrics: RunMetrics,
}

impl AttributionReport {
    /// Verifies every breakdown and aggregates the run's metrics. The
    /// first gap/overlap aborts the whole report — a partially attributed
    /// run is a bookkeeping bug, not data.
    pub fn from_breakdowns(
        breakdowns: Vec<LatencyBreakdown>,
    ) -> Result<AttributionReport, AttributionError> {
        let m = Metrics::default();
        for b in &breakdowns {
            b.verify()?;
            for s in Stage::ALL {
                let width = b.component(s);
                m.observe_cycles(s.histogram_metric(), width);
                m.inc_labeled(s.total_metric(), b.tenant, width);
            }
            m.inc_labeled(b.critical_stage().critical_metric(), b.tenant, 1);
        }
        Ok(AttributionReport {
            breakdowns,
            metrics: m.snapshot(),
        })
    }

    /// Requests attributed.
    pub fn len(&self) -> usize {
        self.breakdowns.len()
    }

    /// True when no request was attributed.
    pub fn is_empty(&self) -> bool {
        self.breakdowns.is_empty()
    }

    /// How many requests had `stage` as their critical-stage verdict
    /// (all tenants).
    pub fn critical_count(&self, stage: Stage) -> u64 {
        self.metrics.counter(stage.critical_metric())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(request: u32) -> LatencyBreakdown {
        // window 100 + queue 50, then align 30 + 1 attempt of span 400
        // with gap 64: latency = 150 + 30 + 400 + 64 = 644.
        LatencyBreakdown::from_dispatch(
            request,
            1,
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
    fn clean_dispatch_sums_exactly() {
        let b = clean(7);
        assert_eq!(b.window_wait, 100);
        assert_eq!(b.queue_wait, 50);
        assert_eq!(b.alignment, 30);
        assert_eq!(b.replay, 0);
        assert_eq!(b.execute, 400);
        assert_eq!(b.drain, 64);
        assert_eq!(b.total(), b.latency());
        b.verify().unwrap();
        assert_eq!(b.critical_stage(), Stage::Execute);
    }

    #[test]
    fn replay_is_the_timeline_residual() {
        // 3 attempts: two aborted at span 400 each, final at span 380
        // (failover recompile shrank the program).
        let service = 30 + (400 + 64) + (400 + 64) + (380 + 64);
        let b = LatencyBreakdown::from_dispatch(0, 0, 2, 0, 0, 0, service, 30, 380, 3, 64, 2, 1)
            .unwrap();
        assert_eq!(b.replay, 800, "both aborted attempt windows");
        assert_eq!(b.drain, 3 * 64);
        assert_eq!(b.execute, 380);
        assert_eq!(b.total(), b.latency());
        assert_eq!(b.critical_stage(), Stage::Replay);
    }

    #[test]
    fn stale_window_deadline_attributes_pure_queue_wait() {
        // The window closed long before this request arrived: all wait is
        // queue wait.
        let b = LatencyBreakdown::from_dispatch(
            3,
            0,
            1,
            5_000,
            5_200,
            100,
            5_200 + 495,
            30,
            400,
            1,
            64,
            0,
            1,
        )
        .unwrap();
        assert_eq!(b.window_wait, 0);
        assert_eq!(b.queue_wait, 200);
        b.verify().unwrap();
    }

    #[test]
    fn inconsistent_inputs_underflow_typed() {
        // Timeline narrower than alignment + attempt windows.
        let err = LatencyBreakdown::from_dispatch(9, 0, 0, 0, 0, 0, 10, 30, 400, 1, 64, 0, 0)
            .unwrap_err();
        assert!(matches!(
            err,
            AttributionError::Underflow {
                request: 9,
                stage: Stage::Replay
            }
        ));
    }

    #[test]
    fn verify_reports_gap_and_overlap() {
        let mut b = clean(4);
        b.execute -= 10;
        let err = b.verify().unwrap_err();
        assert!(
            matches!(err, AttributionError::Gap { missing: 10, .. }),
            "{err}"
        );
        b.execute += 25;
        let err = b.verify().unwrap_err();
        assert!(
            matches!(err, AttributionError::Overlap { excess: 15, .. }),
            "{err}"
        );
    }

    #[test]
    fn critical_stage_breaks_ties_toward_earlier_timeline_order() {
        let mut b = clean(0);
        // QueueWait precedes Execute in timeline order, so on an exact
        // tie the earlier stage takes the verdict.
        b.queue_wait = b.execute;
        b.window_wait = 0;
        b.completion = b.arrival + b.total();
        b.verify().unwrap();
        assert_eq!(b.critical_stage(), Stage::QueueWait);
    }

    #[test]
    fn json_round_trips() {
        let b = clean(11);
        let json = b.to_json();
        let back = LatencyBreakdown::from_json(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
    }

    #[test]
    fn from_json_rejects_inconsistent_documents() {
        let mut b = clean(0);
        b.drain += 1; // break the sum identity
        let mut w = JsonWriter::compact();
        w.begin_object()
            .field_u64("arrival", b.arrival)
            .field_u64("completion", b.completion)
            .field_u64("window_wait", b.window_wait)
            .field_u64("queue_wait", b.queue_wait)
            .field_u64("alignment", b.alignment)
            .field_u64("replay", b.replay)
            .field_u64("execute", b.execute)
            .field_u64("drain", b.drain);
        w.end_object();
        assert!(LatencyBreakdown::from_json(&w.finish()).is_err());
        assert!(LatencyBreakdown::from_json("{\"bogus\":1}").is_err());
    }

    #[test]
    fn report_aggregates_per_stage_and_per_tenant() {
        let mut b2 = clean(2);
        b2.tenant = 2;
        let report = AttributionReport::from_breakdowns(vec![clean(1), b2]).unwrap();
        assert_eq!(report.len(), 2);
        let h = report
            .metrics
            .histogram(Stage::Execute.histogram_metric())
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(
            report
                .metrics
                .counter_labeled(Stage::QueueWait.total_metric(), 1),
            50
        );
        assert_eq!(
            report
                .metrics
                .counter_labeled(Stage::QueueWait.total_metric(), 2),
            50
        );
        assert_eq!(report.critical_count(Stage::Execute), 2);
        assert_eq!(
            report
                .metrics
                .counter_labeled(Stage::Execute.critical_metric(), 2),
            1
        );
    }

    #[test]
    fn report_refuses_a_single_bad_breakdown() {
        let mut bad = clean(5);
        bad.alignment += 3;
        let err = AttributionReport::from_breakdowns(vec![clean(0), bad]).unwrap_err();
        assert!(matches!(err, AttributionError::Overlap { request: 5, .. }));
    }
}
