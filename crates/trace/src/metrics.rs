//! Deterministic metrics registry and its serializable snapshot.
//!
//! A [`Metrics`] registry is created per instrumented run; counters,
//! gauges, and histograms are keyed by `&'static str` names (see
//! [`names`]) plus an optional numeric label (per-link counters use the
//! link index). [`Metrics::snapshot`] freezes the registry into a
//! [`RunMetrics`] — sorted vectors with value equality — which reports
//! attach as their single source of tally truth.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Well-known metric names. One flat namespace, dot-separated by layer.
pub mod names {
    /// Packets that crossed a link without any bit error.
    pub const LINK_CLEAN: &str = "link.fec.clean";
    /// Packets whose single-bit flip FEC corrected in situ.
    pub const LINK_CORRECTED: &str = "link.fec.corrected";
    /// Packets FEC flagged uncorrectable.
    pub const LINK_UNCORRECTABLE: &str = "link.fec.uncorrectable";
    /// Claimed corrections demoted to uncorrectable because the decoded
    /// bytes did not match the transmitted payload.
    pub const LINK_DEMOTED: &str = "link.fec.demoted";

    /// Instructions across all chip programs in a co-simulated run.
    pub const COSIM_INSTRUCTIONS: &str = "cosim.instructions";
    /// Chips that participated in the run (gauge).
    pub const COSIM_CHIPS: &str = "cosim.chips";
    /// Deliveries bound across all chips in the run.
    pub const COSIM_DELIVERIES: &str = "cosim.deliveries";
    /// Per-chip retirement cycles (histogram).
    pub const COSIM_RETIRE_CYCLES: &str = "cosim.retire_cycles";

    /// Graph compilations performed by the runtime.
    pub const RT_COMPILES: &str = "runtime.compiles";
    /// Cached-plan reuses.
    pub const RT_REUSES: &str = "runtime.reuses";
    /// Execution attempts (first tries plus replays).
    pub const RT_ATTEMPTS: &str = "runtime.attempts";
    /// Replays (attempts beyond each episode's first).
    pub const RT_REPLAYS: &str = "runtime.replays";
    /// Blame votes held by the health monitor.
    pub const RT_BLAME_VOTES: &str = "runtime.blame_votes";
    /// Spare failovers executed.
    pub const RT_FAILOVERS: &str = "runtime.failovers";

    /// FEC tally of the launch's final, successful attempt only.
    pub const FINAL_CLEAN: &str = "launch.final.fec.clean";
    /// See [`FINAL_CLEAN`].
    pub const FINAL_CORRECTED: &str = "launch.final.fec.corrected";
    /// See [`FINAL_CLEAN`].
    pub const FINAL_UNCORRECTABLE: &str = "launch.final.fec.uncorrectable";

    /// Events the attached trace sink evicted (gauge; set only when
    /// nonzero). A nonzero value means the captured timeline is
    /// incomplete — the conformance profiler refuses to certify from it.
    pub const TRACE_DROPPED: &str = "trace.dropped";

    /// Requests admitted into the serving work queue (per-tenant cells use
    /// the tenant id as the label).
    pub const SERVE_ENQUEUED: &str = "serve.enqueued";
    /// Requests rejected by admission control (backpressure or tenant
    /// quota), labeled by tenant.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests served to completion, labeled by tenant.
    pub const SERVE_SERVED: &str = "serve.served";
    /// Batches dispatched as launches.
    pub const SERVE_BATCHES: &str = "serve.batches";
    /// Per-request enqueue→complete latency in virtual cycles (histogram).
    pub const SERVE_LATENCY: &str = "serve.latency_cycles";
    /// Requests per dispatched batch (histogram).
    pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
    /// Queue depth observed at each batch dispatch (histogram).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Sheds whose admission failure was queue backpressure.
    pub const SERVE_SHED_QUEUE_FULL: &str = "serve.shed_queue_full";
    /// Sheds whose admission failure was the tenant quota.
    pub const SERVE_SHED_QUOTA: &str = "serve.shed_over_quota";
    /// Requests dropped at dispatch time because their deadline had
    /// already passed in virtual time.
    pub const SERVE_EXPIRED: &str = "serve.expired";

    /// Compiled-plan residency: launches that found their plan resident.
    pub const RES_HITS: &str = "residency.hits";
    /// Launches that had to compile (no resident plan for the key).
    pub const RES_MISSES: &str = "residency.misses";
    /// Resident plans evicted by the byte budget (LRU order).
    pub const RES_EVICTIONS: &str = "residency.evictions";
    /// Resident plans dropped because their mapping epoch went stale
    /// after a spare failover.
    pub const RES_STALE_DROPS: &str = "residency.stale_drops";
    /// Estimated bytes held by resident plans (gauge).
    pub const RES_RESIDENT_BYTES: &str = "residency.resident_bytes";
    /// Number of resident plans (gauge).
    pub const RES_RESIDENT_PLANS: &str = "residency.resident_plans";
}

/// Number of power-of-two histogram buckets: bucket 0 holds zero-cycle
/// observations, bucket `k` holds `[2^(k-1), 2^k)`, the last bucket
/// absorbs everything at or above `2^31`.
pub const CYCLE_BUCKETS: usize = 33;

/// A power-of-two-bucketed histogram of cycle counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    /// Observation counts per bucket; see [`CYCLE_BUCKETS`].
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            buckets: vec![0; CYCLE_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl CycleHistogram {
    fn bucket_index(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(CYCLE_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observed value, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value range covered by bucket `i`: bucket 0 holds exactly the value
    /// 0, bucket `k ≥ 1` holds `[2^(k-1), 2^k)`. The returned pair is
    /// `(lo, hi)` with `hi` exclusive.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation inside
    /// the power-of-two bucket that contains it: the smallest value `v`
    /// such that `q · count` observations fall at or below `v`, assuming
    /// observations spread uniformly within their bucket.
    ///
    /// `percentile(0.5)` is the median estimate, `percentile(0.999)` the
    /// p999; `q` outside `[0, 1]` is clamped and an empty histogram
    /// reports `0.0`. The estimate is exact for buckets holding a single
    /// representable value (0 and 1) and never exceeds the containing
    /// bucket's upper bound, so `percentile` is monotone in `q` and
    /// stays monotone across [`CycleHistogram::merge`].
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below + c;
            if through as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                if hi - lo <= 1 {
                    // Single-value bucket: no interpolation possible.
                    return lo as f64;
                }
                let into = (target - below as f64).max(0.0);
                return lo as f64 + (hi - lo) as f64 * (into / c as f64);
            }
            below = through;
        }
        // Unreachable while count > 0 (the cumulative walk covers every
        // observation), but the compiler cannot know that.
        0.0
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<(&'static str, Option<u32>), u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, CycleHistogram>,
}

/// Interior-mutable metrics registry for one instrumented run. All mutation
/// happens on serial code paths; the `Mutex` exists only so the registry is
/// `Sync` and can be referenced from scoped-thread contexts without care.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Registry>,
}

impl Metrics {
    /// Adds `by` to the unlabeled counter `name`.
    pub fn inc(&self, name: &'static str, by: u64) {
        if by == 0 {
            return;
        }
        *self
            .inner
            .lock()
            .unwrap()
            .counters
            .entry((name, None))
            .or_insert(0) += by;
    }

    /// Adds `by` to counter `name` labeled with `label` (e.g. a link index).
    pub fn inc_labeled(&self, name: &'static str, label: u32, by: u64) {
        if by == 0 {
            return;
        }
        *self
            .inner
            .lock()
            .unwrap()
            .counters
            .entry((name, Some(label)))
            .or_insert(0) += by;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        self.inner.lock().unwrap().gauges.insert(name, value);
    }

    /// Records one observation into histogram `name`.
    pub fn observe_cycles(&self, name: &'static str, value: u64) {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Merges a locally accumulated histogram into histogram `name` in one
    /// lock acquisition (hot paths tally locally, then fold here).
    pub fn merge_histogram(&self, name: &'static str, hist: &CycleHistogram) {
        if hist.count == 0 {
            return;
        }
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name)
            .or_default()
            .merge(hist);
    }

    /// Freezes the registry into a sorted, order-independent snapshot.
    pub fn snapshot(&self) -> RunMetrics {
        let g = self.inner.lock().unwrap();
        RunMetrics {
            counters: g
                .counters
                .iter()
                .map(|(&(name, label), &value)| CounterEntry {
                    name: name.to_string(),
                    label,
                    value,
                })
                .collect(),
            gauges: g
                .gauges
                .iter()
                .map(|(&name, &value)| GaugeEntry {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(&name, hist)| (name.to_string(), hist.clone()))
                .collect(),
        }
    }
}

/// One counter cell of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Metric name (see [`names`]).
    pub name: String,
    /// Numeric label (per-link counters carry the link index), or `None`
    /// for the global cell.
    pub label: Option<u32>,
    /// Accumulated count.
    pub value: u64,
}

/// One gauge cell of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeEntry {
    /// Metric name (see [`names`]).
    pub name: String,
    /// Last value written.
    pub value: u64,
}

/// A frozen, serializable metrics snapshot. Entries are sorted by name
/// (then label), so two runs that did the same work compare equal with
/// `==` regardless of emission order — reports derive their tally views
/// (`fec()`, `attempts()`, …) from this one structure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunMetrics {
    /// Counter cells, sorted by `(name, label)`.
    pub counters: Vec<CounterEntry>,
    /// Gauge cells, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, CycleHistogram)>,
}

impl RunMetrics {
    /// Sum of counter `name` across all labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of counter `name` for one specific label (zero if absent).
    pub fn counter_labeled(&self, name: &str, label: u32) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == Some(label))
            .map_or(0, |c| c.value)
    }

    /// All labeled cells of counter `name` as `(label, value)` pairs, in
    /// label order.
    pub fn labeled(&self, name: &str) -> Vec<(u32, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .filter_map(|c| c.label.map(|l| (l, c.value)))
            .collect()
    }

    /// Gauge `name`, or `None` if never set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&CycleHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters and histograms add, gauges
    /// take `other`'s value (last write wins). Sorted order is restored, so
    /// absorption is associative and order-independent for counters.
    pub fn absorb(&mut self, other: &RunMetrics) {
        for c in &other.counters {
            match self
                .counters
                .iter_mut()
                .find(|m| m.name == c.name && m.label == c.label)
            {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        self.counters
            .sort_by(|a, b| (&a.name, a.label).cmp(&(&b.name, b.label)));
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|m| m.name == g.name) {
                Some(m) => m.value = g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for (name, hist) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.merge(hist),
                None => self.histograms.push((name.clone(), hist.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Hand-rolled JSON rendering (the workspace has no JSON library, so
    /// every serializer in it is explicit).
    /// Deterministic: entries are already sorted. Names are escaped via
    /// [`crate::json::escape_json`], so a label containing quotes or
    /// backslashes cannot corrupt the document.
    pub fn to_json(&self) -> String {
        use crate::json::escape_json;
        let mut s = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let key = match c.label {
                Some(l) => format!("{}#{}", c.name, l),
                None => c.name.clone(),
            };
            s.push_str(&format!("\n    \"{}\": {}", escape_json(&key), c.value));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", escape_json(&g.name), g.value));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                escape_json(name),
                h.count,
                h.sum,
                buckets.join(",")
            ));
        }
        s.push_str("\n  }\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(CycleHistogram::bucket_index(0), 0);
        assert_eq!(CycleHistogram::bucket_index(1), 1);
        assert_eq!(CycleHistogram::bucket_index(2), 2);
        assert_eq!(CycleHistogram::bucket_index(3), 2);
        assert_eq!(CycleHistogram::bucket_index(4), 3);
        assert_eq!(CycleHistogram::bucket_index(u64::MAX), CYCLE_BUCKETS - 1);
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = Metrics::default();
        a.inc(names::RT_COMPILES, 1);
        a.inc_labeled(names::LINK_CORRECTED, 3, 2);
        a.inc_labeled(names::LINK_CORRECTED, 1, 5);
        let b = Metrics::default();
        b.inc_labeled(names::LINK_CORRECTED, 1, 5);
        b.inc(names::RT_COMPILES, 1);
        b.inc_labeled(names::LINK_CORRECTED, 3, 2);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn counter_sums_across_labels() {
        let m = Metrics::default();
        m.inc_labeled(names::LINK_CLEAN, 0, 10);
        m.inc_labeled(names::LINK_CLEAN, 4, 5);
        m.inc(names::LINK_CLEAN, 1);
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::LINK_CLEAN), 16);
        assert_eq!(snap.counter_labeled(names::LINK_CLEAN, 4), 5);
        assert_eq!(snap.labeled(names::LINK_CLEAN), vec![(0, 10), (4, 5)]);
    }

    #[test]
    fn zero_increments_leave_no_cells() {
        let m = Metrics::default();
        m.inc(names::RT_REPLAYS, 0);
        m.inc_labeled(names::LINK_CLEAN, 2, 0);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let a = Metrics::default();
        a.inc(names::RT_ATTEMPTS, 1);
        a.observe_cycles(names::COSIM_RETIRE_CYCLES, 100);
        let b = Metrics::default();
        b.inc(names::RT_ATTEMPTS, 2);
        b.inc_labeled(names::LINK_CLEAN, 0, 7);
        b.observe_cycles(names::COSIM_RETIRE_CYCLES, 200);
        b.set_gauge(names::COSIM_CHIPS, 4);

        let mut total = a.snapshot();
        total.absorb(&b.snapshot());
        assert_eq!(total.counter(names::RT_ATTEMPTS), 3);
        assert_eq!(total.counter_labeled(names::LINK_CLEAN, 0), 7);
        assert_eq!(total.gauge(names::COSIM_CHIPS), Some(4));
        let h = total.histogram(names::COSIM_RETIRE_CYCLES).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 300);
    }

    #[test]
    fn absorb_is_counter_commutative() {
        let a = Metrics::default();
        a.inc(names::RT_ATTEMPTS, 1);
        a.inc_labeled(names::LINK_CLEAN, 1, 3);
        let b = Metrics::default();
        b.inc(names::RT_REPLAYS, 4);
        b.inc_labeled(names::LINK_CLEAN, 1, 2);

        let mut ab = a.snapshot();
        ab.absorb(&b.snapshot());
        let mut ba = b.snapshot();
        ba.absorb(&a.snapshot());
        assert_eq!(ab, ba);
    }

    #[test]
    fn json_rendering_is_deterministic_and_structured() {
        let m = Metrics::default();
        m.inc(names::RT_COMPILES, 2);
        m.inc_labeled(names::LINK_CORRECTED, 5, 1);
        m.set_gauge(names::COSIM_CHIPS, 3);
        m.observe_cycles(names::COSIM_RETIRE_CYCLES, 7);
        let snap = m.snapshot();
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert!(json.contains("\"runtime.compiles\": 2"));
        assert!(json.contains("\"link.fec.corrected#5\": 1"));
        assert!(json.contains("\"cosim.chips\": 3"));
        assert!(json.contains("\"cosim.retire_cycles\""));
    }

    #[test]
    fn percentile_pins_exact_interpolated_values() {
        // {1, 2, 3, 4}: buckets [_, {1}, {2,3}, {4}, ...].
        let mut h = CycleHistogram::default();
        for v in [1u64, 2, 3, 4] {
            h.observe(v);
        }
        // Bucket 1 holds the single representable value 1 — exact.
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(0.25), 1.0);
        // target 2.0 lands halfway through bucket [2, 4) of count 2.
        assert_eq!(h.percentile(0.5), 3.0);
        // target 3.0 exhausts bucket [2, 4): its upper bound.
        assert_eq!(h.percentile(0.75), 4.0);
        // target 4.0 exhausts bucket [4, 8): its upper bound.
        assert_eq!(h.percentile(1.0), 8.0);
        // out-of-range q clamps
        assert_eq!(h.percentile(-3.0), h.percentile(0.0));
        assert_eq!(h.percentile(7.0), h.percentile(1.0));
    }

    #[test]
    fn percentile_handles_zero_and_empty() {
        let empty = CycleHistogram::default();
        assert_eq!(empty.percentile(0.5), 0.0);
        let mut zeros = CycleHistogram::default();
        for _ in 0..3 {
            zeros.observe(0);
        }
        assert_eq!(zeros.percentile(0.5), 0.0);
        assert_eq!(zeros.percentile(1.0), 0.0);
    }

    #[test]
    fn percentile_single_bucket_interpolates_within_its_bounds() {
        // Every observation in one multi-value bucket [64, 128): the
        // boundaries pin to the bucket bounds and q interpolates linearly
        // (and therefore monotonically) between them.
        let mut h = CycleHistogram::default();
        for _ in 0..5 {
            h.observe(100);
        }
        assert_eq!(h.percentile(0.0), 64.0, "q=0 is the bucket's lower bound");
        assert_eq!(h.percentile(1.0), 128.0, "q=1 is the bucket's upper bound");
        let mut prev = h.percentile(0.0);
        for i in 1..=10 {
            let p = h.percentile(i as f64 / 10.0);
            assert!(p >= prev, "monotone in q: {p} >= {prev}");
            assert!((64.0..=128.0).contains(&p), "inside the bucket: {p}");
            prev = p;
        }

        // A single observation in a single-value bucket is exact at every
        // q — bucket 1 holds only the value 1.
        let mut one = CycleHistogram::default();
        one.observe(1);
        assert_eq!(one.percentile(0.0), 1.0);
        assert_eq!(one.percentile(0.5), 1.0);
        assert_eq!(one.percentile(1.0), 1.0);
    }

    #[test]
    fn percentile_spread_tail_is_ordered() {
        // 990 fast observations at 100 cycles, 10 slow ones at ~1e6: the
        // p50 sits in the fast bucket, p999 in the slow one.
        let mut h = CycleHistogram::default();
        for _ in 0..990 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(1_000_000);
        }
        let (p50, p99, p999) = (h.percentile(0.5), h.percentile(0.99), h.percentile(0.999));
        assert!((64.0..128.0).contains(&p50), "p50 {p50}");
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!((524_288.0..2_097_152.0).contains(&p999), "p999 {p999}");
    }

    #[test]
    fn histogram_mean_handles_empty() {
        let h = CycleHistogram::default();
        assert_eq!(h.mean(), 0.0);
        let mut h2 = CycleHistogram::default();
        h2.observe(10);
        h2.observe(20);
        assert_eq!(h2.mean(), 15.0);
    }
}
