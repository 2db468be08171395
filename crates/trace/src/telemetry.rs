//! Windowed virtual-time telemetry: deterministic time series over a run.
//!
//! Every other observability surface in the workspace is an end-of-run
//! aggregate — [`crate::RunMetrics`] snapshots once per launch, the
//! conformance profiler certifies after the fact. This module adds the
//! time axis back: a [`Sampler`] buckets counter increments and gauge
//! levels into fixed windows of *virtual* cycles and produces a
//! [`Telemetry`] record of mergeable [`TimeSeries`].
//!
//! Window semantics: a cycle `c` belongs to window `c / window`. Counter
//! series hold the per-window delta (events that happened inside the
//! window); gauge series hold the per-window high-water level. Windows
//! with no samples are simply absent — absence and a zero delta are the
//! same observation, which is what makes the empty series the identity
//! of [`TimeSeries::merge`].
//!
//! Determinism: samples are taken on the same serial code paths that emit
//! trace events (plan binding, the post-level merge loop, the serving
//! dispatch loop), cycle coordinates are simulated — never wall clock —
//! and the merged record sorts series by `(name, label)` and points by
//! window. Two runs from the same seed therefore produce byte-identical
//! [`Telemetry::to_json`] output, and a run with telemetry disabled is
//! bit-identical to one that never had the feature (the sampler is
//! observation-only; regression tests in `tsm-core` pin this).

use std::collections::BTreeMap;

use crate::json::{Cursor, JsonWriter};

/// Canonical series names. Labels carry the entity: tenant names for the
/// `serve.*` series, `link{n}` / `chip{n}` for the heatmap series.
pub mod series {
    /// Requests completed per window (counter, per tenant).
    pub const SERVE_THROUGHPUT: &str = "serve.throughput";
    /// Requests admitted to the queue per window (counter, per tenant).
    pub const SERVE_ENQUEUED: &str = "serve.enqueued";
    /// Requests refused by admission control per window (counter, per
    /// tenant).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests dropped at dispatch after their deadline per window
    /// (counter, per tenant).
    pub const SERVE_EXPIRED: &str = "serve.expired";
    /// High-water queue backlog per window (gauge, unlabeled).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Requests that finished (or expired) within their deadline per
    /// window (counter, per tenant).
    pub const SLO_MET: &str = "serve.slo.met";
    /// Requests that missed their deadline per window (counter, per
    /// tenant).
    pub const SLO_MISSED: &str = "serve.slo.missed";
    /// Vectors landed per window (counter, per `link{n}`): the per-link
    /// occupancy heatmap.
    pub const LINK_DELIVERIES: &str = "link.deliveries";
    /// Execution-span cycles per window (counter, per `chip{n}`): the
    /// per-chip occupancy heatmap.
    pub const CHIP_BUSY: &str = "chip.busy_cycles";
}

/// Sampling configuration. `Copy + Eq` so it rides inside the `Copy`
/// serve/launch configs without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TelemetryConfig {
    /// Window width in virtual cycles; 0 is treated as 1.
    pub window: u64,
    /// SLO target in permille of requests meeting their deadline per
    /// window (990 = 99.0%). Drives the derived attainment/burn-rate
    /// views; the raw met/missed series are what get recorded.
    pub slo_permille: u32,
}

impl Default for TelemetryConfig {
    /// 64 Ki-cycle windows, 99.0% SLO — a handful of windows per service
    /// time for every workload in this repo.
    fn default() -> Self {
        TelemetryConfig {
            window: 1 << 16,
            slo_permille: 990,
        }
    }
}

impl TelemetryConfig {
    /// The window index `cycle` falls into.
    pub fn window_of(&self, cycle: u64) -> u64 {
        cycle / self.window.max(1)
    }
}

/// What a series' per-window value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SeriesKind {
    /// Per-window delta; merging sums overlapping windows.
    Counter,
    /// Per-window high-water level; merging takes the max.
    Gauge,
}

impl SeriesKind {
    fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One named time series: `(window index, value)` points, strictly
/// ascending by window, with sampled-nothing windows absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Series name (one of [`series`], or caller-defined).
    pub name: String,
    /// Entity label (tenant name, `link{n}`, `chip{n}`; may be empty).
    pub label: String,
    /// Merge semantics for the values.
    pub kind: SeriesKind,
    /// `(window index, value)` pairs, strictly ascending by window.
    pub points: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// An empty series — the identity of [`TimeSeries::merge`].
    pub fn new(name: &str, label: &str, kind: SeriesKind) -> TimeSeries {
        TimeSeries {
            name: name.to_string(),
            label: label.to_string(),
            kind,
            points: Vec::new(),
        }
    }

    /// Folds `other` into `self` window by window: counters sum, gauges
    /// take the max. Commutative and associative, with the empty series
    /// as identity (proptests in `tests/proptests.rs` pin all three).
    ///
    /// # Panics
    /// When the identities disagree — merging differently named series
    /// is a caller bug, not data.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            (&self.name, &self.label, self.kind),
            (&other.name, &other.label, other.kind),
            "merging mismatched series"
        );
        if other.points.is_empty() {
            return;
        }
        let mut merged: BTreeMap<u64, u64> = self.points.iter().copied().collect();
        for &(win, v) in &other.points {
            let slot = merged.entry(win).or_insert(0);
            *slot = match self.kind {
                SeriesKind::Counter => slot.saturating_add(v),
                SeriesKind::Gauge => (*slot).max(v),
            };
        }
        self.points = merged.into_iter().collect();
    }

    /// The value recorded for window `win`, if any.
    pub fn value_at(&self, win: u64) -> Option<u64> {
        self.points
            .binary_search_by_key(&win, |p| p.0)
            .ok()
            .map(|i| self.points[i].1)
    }

    /// Counter: sum over all windows. Gauge: all-run high water.
    pub fn total(&self) -> u64 {
        match self.kind {
            SeriesKind::Counter => self
                .points
                .iter()
                .fold(0u64, |a, &(_, v)| a.saturating_add(v)),
            SeriesKind::Gauge => self.points.iter().map(|&(_, v)| v).max().unwrap_or(0),
        }
    }

    /// Dense per-window values over `[from, to]`, zero-filling absent
    /// windows — the shape sparkline renderers want.
    pub fn dense(&self, from: u64, to: u64) -> Vec<u64> {
        (from..=to).map(|w| self.value_at(w).unwrap_or(0)).collect()
    }
}

/// A finished, mergeable telemetry record: the sampling window, the SLO
/// target it was recorded against, and the series sorted by
/// `(name, label)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Window width in virtual cycles.
    pub window: u64,
    /// SLO target in permille (see [`TelemetryConfig::slo_permille`]).
    pub slo_permille: u32,
    /// All recorded series, sorted by `(name, label)`.
    pub series: Vec<TimeSeries>,
}

impl Telemetry {
    /// An empty record for `cfg` — the identity of [`Telemetry::merge`].
    pub fn empty(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            window: cfg.window.max(1),
            slo_permille: cfg.slo_permille,
            series: Vec::new(),
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series named `(name, label)`, if recorded.
    pub fn get(&self, name: &str, label: &str) -> Option<&TimeSeries> {
        self.series
            .iter()
            .find(|s| s.name == name && s.label == label)
    }

    /// Every label recorded under `name`, in order.
    pub fn labels(&self, name: &str) -> Vec<&str> {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.label.as_str())
            .collect()
    }

    /// The last (highest) window index across all series, if any point
    /// exists.
    pub fn last_window(&self) -> Option<u64> {
        self.series
            .iter()
            .filter_map(|s| s.points.last().map(|p| p.0))
            .max()
    }

    /// Folds `other` into `self`, series by series (see
    /// [`TimeSeries::merge`]).
    ///
    /// # Panics
    /// When the windows or SLO targets differ — series sampled on
    /// different windows have no common time axis.
    pub fn merge(&mut self, other: &Telemetry) {
        assert_eq!(self.window, other.window, "merging mismatched windows");
        assert_eq!(
            self.slo_permille, other.slo_permille,
            "merging mismatched SLO targets"
        );
        for s in &other.series {
            match self
                .series
                .binary_search_by(|e| (e.name.as_str(), e.label.as_str()).cmp(&(&s.name, &s.label)))
            {
                Ok(i) => self.series[i].merge(s),
                Err(i) => self.series.insert(i, s.clone()),
            }
        }
    }

    /// Per-window SLO attainment for `label`: `met / (met + missed)` over
    /// windows where either series recorded, as `(window, fraction)`.
    ///
    /// Windows with zero terminal requests (both series present but zero,
    /// e.g. after a merge or a JSON round-trip that materialized empty
    /// points) are skipped rather than reported as a `0/0` NaN.
    pub fn attainment(&self, label: &str) -> Vec<(u64, f64)> {
        self.met_missed(label)
            .into_iter()
            .filter_map(|(w, met, missed)| {
                let total = met + missed;
                (total > 0).then(|| (w, met as f64 / total as f64))
            })
            .collect()
    }

    /// Per-window SLO burn rate for `label`: the miss fraction divided by
    /// the error budget `(1000 - slo_permille) / 1000`. A burn rate of
    /// 1.0 consumes the budget exactly; above it the SLO is burning down.
    /// Windows with zero terminal requests are skipped, mirroring
    /// [`Telemetry::attainment`].
    pub fn burn_rate(&self, label: &str) -> Vec<(u64, f64)> {
        let budget = f64::from((1000 - self.slo_permille.min(999)).max(1)) / 1000.0;
        self.met_missed(label)
            .into_iter()
            .filter_map(|(w, met, missed)| {
                let total = met + missed;
                (total > 0).then(|| {
                    let miss = missed as f64 / total as f64;
                    (w, miss / budget)
                })
            })
            .collect()
    }

    /// `(window, met, missed)` for windows where either SLO series has a
    /// point.
    fn met_missed(&self, label: &str) -> Vec<(u64, u64, u64)> {
        let empty = Vec::new();
        let met = self
            .get(series::SLO_MET, label)
            .map_or(&empty, |s| &s.points);
        let missed = self
            .get(series::SLO_MISSED, label)
            .map_or(&empty, |s| &s.points);
        let mut wins: Vec<u64> = met.iter().chain(missed).map(|p| p.0).collect();
        wins.sort_unstable();
        wins.dedup();
        let at = |pts: &[(u64, u64)], w| {
            pts.binary_search_by_key(&w, |p: &(u64, u64)| p.0)
                .map(|i| pts[i].1)
                .unwrap_or(0)
        };
        wins.into_iter()
            .map(|w| (w, at(met, w), at(missed, w)))
            .collect()
    }

    /// Serializes to the pretty JSON block embedded in
    /// `BENCH_cosim.json`. Byte-deterministic: series order, point order,
    /// and number formatting are all fixed.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("window", self.window)
            .field_u64("slo_permille", u64::from(self.slo_permille));
        w.key("series").begin_array();
        for s in &self.series {
            w.begin_object()
                .field_str("name", &s.name)
                .field_str("label", &s.label)
                .field_str("kind", s.kind.as_str());
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|&(win, v)| format!("[{win},{v}]"))
                .collect();
            w.field_raw("points", &format!("[{}]", pts.join(",")));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses what [`Telemetry::to_json`] emits — the exact inverse, so
    /// hostile series names and labels round-trip through the in-repo
    /// JSON helpers.
    pub fn from_json(s: &str) -> Result<Telemetry, String> {
        let mut t = Telemetry {
            window: 1,
            slo_permille: 0,
            series: Vec::new(),
        };
        let mut c = Cursor::new(s);
        c.object(|c, key| {
            match key {
                "window" => t.window = c.u64()?,
                "slo_permille" => t.slo_permille = c.narrow("slo_permille")?,
                "series" => c.array(|c| {
                    let mut ts = TimeSeries::new("", "", SeriesKind::Counter);
                    c.object(|c, k| {
                        match k {
                            "name" => ts.name = c.string()?,
                            "label" => ts.label = c.string()?,
                            "kind" => {
                                ts.kind = match c.string()?.as_str() {
                                    "counter" => SeriesKind::Counter,
                                    "gauge" => SeriesKind::Gauge,
                                    other => return Err(format!("unknown kind {other:?}")),
                                };
                            }
                            "points" => c.array(|c| {
                                c.eat('[')?;
                                let win = c.u64()?;
                                c.eat(',')?;
                                let v = c.u64()?;
                                c.eat(']')?;
                                ts.points.push((win, v));
                                Ok(())
                            })?,
                            other => return Err(format!("unknown series key {other:?}")),
                        }
                        Ok(())
                    })?;
                    t.series.push(ts);
                    Ok(())
                })?,
                other => return Err(format!("unknown telemetry key {other:?}")),
            }
            Ok(())
        })?;
        c.expect_end()?;
        Ok(t)
    }
}

/// Accumulates samples during a run and seals them into a [`Telemetry`].
/// Observation-only by construction: it is handed cycle coordinates the
/// instrumented code already computed, and returns nothing to it, so an
/// attached sampler cannot perturb the simulation.
#[derive(Debug)]
pub struct Sampler {
    cfg: TelemetryConfig,
    series: BTreeMap<(String, String), (SeriesKind, BTreeMap<u64, u64>)>,
}

impl Sampler {
    /// A sampler bucketing on `cfg`'s window.
    pub fn new(cfg: TelemetryConfig) -> Sampler {
        Sampler {
            cfg: TelemetryConfig {
                window: cfg.window.max(1),
                slo_permille: cfg.slo_permille,
            },
            series: BTreeMap::new(),
        }
    }

    /// The (normalized) configuration this sampler buckets on.
    pub fn cfg(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Adds `by` to the counter `(name, label)` in `cycle`'s window.
    /// `by == 0` is a no-op, mirroring [`crate::Metrics::inc`], so
    /// zero-count paths leave no point behind.
    pub fn count(&mut self, name: &str, label: &str, cycle: u64, by: u64) {
        if by == 0 {
            return;
        }
        let win = self.cfg.window_of(cycle);
        let slot = self.slot(name, label, SeriesKind::Counter, win);
        *slot = slot.saturating_add(by);
    }

    /// Distributes a span of `dur` cycles starting at `start` across the
    /// windows it overlaps — each window's counter gets exactly the
    /// cycles the span spent inside it (the chip-occupancy heatmap).
    pub fn count_span(&mut self, name: &str, label: &str, start: u64, dur: u64) {
        let w = self.cfg.window;
        let mut cur = start;
        let end = start.saturating_add(dur);
        while cur < end {
            let win_end = (cur - cur % w).saturating_add(w);
            let take = end.min(win_end) - cur;
            self.count(name, label, cur, take);
            if win_end == u64::MAX {
                break;
            }
            cur += take;
        }
    }

    /// Records `level` on the gauge `(name, label)` in `cycle`'s window;
    /// the window keeps its high-water mark.
    pub fn level(&mut self, name: &str, label: &str, cycle: u64, level: u64) {
        let win = self.cfg.window_of(cycle);
        let slot = self.slot(name, label, SeriesKind::Gauge, win);
        *slot = (*slot).max(level);
    }

    /// Folds an already-sealed record (e.g. a launch's heatmaps) into
    /// this sampler's accumulation.
    ///
    /// # Panics
    /// When `other` was sampled on a different window or SLO target.
    pub fn absorb(&mut self, other: &Telemetry) {
        assert_eq!(
            self.cfg.window, other.window,
            "absorbing mismatched windows"
        );
        assert_eq!(
            self.cfg.slo_permille, other.slo_permille,
            "absorbing mismatched SLO targets"
        );
        for s in &other.series {
            for &(win, v) in &s.points {
                let slot = self.slot(&s.name, &s.label, s.kind, win);
                *slot = match s.kind {
                    SeriesKind::Counter => slot.saturating_add(v),
                    SeriesKind::Gauge => (*slot).max(v),
                };
            }
        }
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Seals the accumulation into a sorted, mergeable [`Telemetry`].
    pub fn finish(self) -> Telemetry {
        let series = self
            .series
            .into_iter()
            .map(|((name, label), (kind, points))| TimeSeries {
                name,
                label,
                kind,
                points: points.into_iter().collect(),
            })
            .collect();
        Telemetry {
            window: self.cfg.window,
            slo_permille: self.cfg.slo_permille,
            series,
        }
    }

    fn slot(&mut self, name: &str, label: &str, kind: SeriesKind, win: u64) -> &mut u64 {
        let entry = self
            .series
            .entry((name.to_string(), label.to_string()))
            .or_insert_with(|| (kind, BTreeMap::new()));
        assert_eq!(entry.0, kind, "series {name}[{label}] changed kind");
        entry.1.entry(win).or_insert(0)
    }
}

/// Renders `values` as a unicode sparkline, one block character per
/// window; zero windows render as spaces so gaps stay visible.
pub fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = values.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        return " ".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                ' '
            } else {
                let idx = ((u128::from(v) * 8 - 1) / u128::from(peak)).min(7);
                BLOCKS[idx as usize]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64) -> TelemetryConfig {
        TelemetryConfig {
            window,
            slo_permille: 990,
        }
    }

    #[test]
    fn counter_deltas_bucket_by_window() {
        let mut s = Sampler::new(cfg(100));
        s.count("x", "a", 0, 1);
        s.count("x", "a", 99, 2);
        s.count("x", "a", 100, 5);
        s.count("x", "a", 350, 1);
        let t = s.finish();
        let ts = t.get("x", "a").unwrap();
        assert_eq!(ts.points, vec![(0, 3), (1, 5), (3, 1)]);
        assert_eq!(ts.total(), 9);
        assert_eq!(ts.dense(0, 3), vec![3, 5, 0, 1]);
    }

    #[test]
    fn zero_count_leaves_no_point() {
        let mut s = Sampler::new(cfg(100));
        s.count("x", "a", 5, 0);
        assert!(s.is_empty());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn gauges_keep_the_window_high_water() {
        let mut s = Sampler::new(cfg(10));
        s.level("depth", "", 0, 3);
        s.level("depth", "", 5, 7);
        s.level("depth", "", 9, 2);
        s.level("depth", "", 10, 0);
        let t = s.finish();
        let ts = t.get("depth", "").unwrap();
        assert_eq!(ts.kind, SeriesKind::Gauge);
        assert_eq!(ts.points, vec![(0, 7), (1, 0)]);
        assert_eq!(ts.total(), 7, "gauge total is the all-run high water");
    }

    #[test]
    fn count_span_distributes_cycles_across_windows() {
        let mut s = Sampler::new(cfg(100));
        // 250 cycles starting at 80: 20 in win 0, 100 in win 1, 100 in
        // win 2, 30 in win 3.
        s.count_span("busy", "chip0", 80, 250);
        let t = s.finish();
        let ts = t.get("busy", "chip0").unwrap();
        assert_eq!(ts.points, vec![(0, 20), (1, 100), (2, 100), (3, 30)]);
        assert_eq!(ts.total(), 250, "span cycles are conserved");
    }

    #[test]
    fn window_zero_is_treated_as_one() {
        let mut s = Sampler::new(cfg(0));
        assert_eq!(s.cfg().window, 1);
        s.count("x", "", 3, 1);
        assert_eq!(s.finish().get("x", "").unwrap().points, vec![(3, 1)]);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = TimeSeries::new("x", "", SeriesKind::Counter);
        a.points = vec![(0, 1), (2, 4)];
        let mut b = TimeSeries::new("x", "", SeriesKind::Counter);
        b.points = vec![(0, 2), (1, 3)];
        a.merge(&b);
        assert_eq!(a.points, vec![(0, 3), (1, 3), (2, 4)]);

        let mut g = TimeSeries::new("g", "", SeriesKind::Gauge);
        g.points = vec![(0, 5)];
        let mut h = TimeSeries::new("g", "", SeriesKind::Gauge);
        h.points = vec![(0, 3), (1, 9)];
        g.merge(&h);
        assert_eq!(g.points, vec![(0, 5), (1, 9)]);
    }

    #[test]
    #[should_panic(expected = "merging mismatched series")]
    fn merge_refuses_mismatched_identity() {
        let mut a = TimeSeries::new("x", "a", SeriesKind::Counter);
        a.merge(&TimeSeries::new("x", "b", SeriesKind::Counter));
    }

    #[test]
    fn telemetry_merge_inserts_and_folds() {
        let mut s1 = Sampler::new(cfg(10));
        s1.count("x", "a", 0, 1);
        let mut s2 = Sampler::new(cfg(10));
        s2.count("x", "a", 5, 2);
        s2.count("x", "b", 15, 4);
        let mut t = s1.finish();
        t.merge(&s2.finish());
        assert_eq!(t.get("x", "a").unwrap().points, vec![(0, 3)]);
        assert_eq!(t.get("x", "b").unwrap().points, vec![(1, 4)]);
        let names: Vec<(&str, &str)> = t
            .series
            .iter()
            .map(|s| (s.name.as_str(), s.label.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![("x", "a"), ("x", "b")],
            "sorted by (name,label)"
        );
    }

    #[test]
    fn attainment_and_burn_rate_derive_from_met_missed() {
        let mut s = Sampler::new(cfg(10));
        // Window 0: 9 met, 1 missed -> 90% attainment. Budget at 990
        // permille is 1%, so the 10% miss rate burns at 10x.
        for _ in 0..9 {
            s.count(series::SLO_MET, "t0", 3, 1);
        }
        s.count(series::SLO_MISSED, "t0", 7, 1);
        // Window 2: all met.
        s.count(series::SLO_MET, "t0", 25, 4);
        let t = s.finish();
        let att = t.attainment("t0");
        assert_eq!(att.len(), 2);
        assert_eq!(att[0].0, 0);
        assert!((att[0].1 - 0.9).abs() < 1e-12);
        assert_eq!(att[1], (2, 1.0));
        let burn = t.burn_rate("t0");
        assert!((burn[0].1 - 10.0).abs() < 1e-9);
        assert_eq!(burn[1], (2, 0.0));
        assert!(t.attainment("absent").is_empty());
    }

    #[test]
    fn zero_terminal_windows_are_skipped_not_nan() {
        // A merge or JSON round-trip can materialize explicit zero points:
        // both SLO series carry a window in which no request terminated.
        // That window must vanish from the derived ratios instead of
        // surfacing as a 0/0 NaN.
        let mut met = TimeSeries::new(series::SLO_MET, "t0", SeriesKind::Counter);
        met.points = vec![(0, 4), (1, 0)];
        let mut missed = TimeSeries::new(series::SLO_MISSED, "t0", SeriesKind::Counter);
        missed.points = vec![(1, 0), (2, 1)];
        let t = Telemetry {
            window: 10,
            slo_permille: 990,
            series: vec![met, missed],
        };
        let att = t.attainment("t0");
        assert_eq!(att, vec![(0, 1.0), (2, 0.0)], "window 1 (0/0) is skipped");
        let burn = t.burn_rate("t0");
        assert_eq!(burn.len(), 2);
        assert_eq!(burn[0], (0, 0.0));
        assert!((burn[1].1 - 100.0).abs() < 1e-9, "all-missed burns 100x");
        for (_, v) in att.iter().chain(burn.iter()) {
            assert!(v.is_finite(), "no NaN or inf leaks through the guard");
        }
    }

    #[test]
    fn json_round_trips_hostile_names() {
        let mut s = Sampler::new(cfg(7));
        s.count("se\"ries\\name", "tenant\n\"zero\"", 0, 2);
        s.level("g", "", 13, 5);
        let t = s.finish();
        let json = t.to_json();
        let back = Telemetry::from_json(&json).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "re-serialization is byte-identical");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Telemetry::from_json("{\"window\": }").is_err());
        assert!(Telemetry::from_json("{\"bogus\": 1}").is_err());
        assert!(
            Telemetry::from_json(
                "{\"window\":1,\"slo_permille\":990,\"series\":[{\"name\":\"x\",\
                 \"label\":\"\",\"kind\":\"volume\",\"points\":[]}]}"
            )
            .is_err(),
            "unknown kind is refused"
        );
    }

    #[test]
    fn sparkline_scales_to_peak_and_keeps_gaps() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ");
        let line = sparkline(&[1, 0, 4, 8]);
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[1], ' ');
        assert_eq!(chars[3], '█', "peak maps to the full block");
        assert!(chars[0] < chars[2], "higher values get taller blocks");
    }

    #[test]
    fn empty_telemetry_is_merge_identity() {
        let mut s = Sampler::new(cfg(10));
        s.count("x", "a", 0, 1);
        let t = s.finish();
        let mut merged = t.clone();
        merged.merge(&Telemetry::empty(cfg(10)));
        assert_eq!(merged, t);
        let mut from_empty = Telemetry::empty(cfg(10));
        from_empty.merge(&t);
        assert_eq!(from_empty, t);
    }
}
