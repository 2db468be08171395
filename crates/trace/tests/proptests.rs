//! Algebraic laws of [`RunMetrics::absorb`]: merging snapshots is a
//! commutative monoid over counters and histograms (with the empty
//! snapshot as identity), so the order attempt metrics are folded in can
//! never change a launch profile. Gauges are last-write-wins, which is
//! associative but not commutative — the commutativity property therefore
//! generates gauge names from disjoint pools, mirroring how the workspace
//! actually uses gauges (each layer owns its own names).

use tsm_trace::telemetry::{SeriesKind, Telemetry, TelemetryConfig, TimeSeries};
use tsm_trace::{names, CycleHistogram, Metrics, RunMetrics};

use proptest::prelude::*;

/// Raw generator output for one snapshot: counter cells as
/// `(name_pick, label_pick, value)`, histogram observations, and gauge
/// cells as `(name_pick, value)`.
type RawSnapshot = (Vec<(u8, u8, u64)>, Vec<u64>, Vec<(u8, u64)>);

const COUNTER_NAMES: [&str; 4] = [
    names::LINK_CLEAN,
    names::LINK_CORRECTED,
    names::RT_ATTEMPTS,
    names::COSIM_DELIVERIES,
];

const HIST_NAMES: [&str; 2] = [names::COSIM_RETIRE_CYCLES, names::LINK_CLEAN];

/// Builds a snapshot from raw picks. `gauge_pool` selects which half of a
/// disjoint gauge-name space this snapshot may write, so two snapshots
/// built with different pools never race on a gauge.
fn build(raw: &RawSnapshot, gauge_pool: &[&'static str]) -> RunMetrics {
    let m = Metrics::default();
    for &(name, label, value) in &raw.0 {
        let name = COUNTER_NAMES[name as usize % COUNTER_NAMES.len()];
        if label % 3 == 0 {
            m.inc(name, value % 1000);
        } else {
            m.inc_labeled(name, (label % 8) as u32, value % 1000);
        }
    }
    for (i, &v) in raw.1.iter().enumerate() {
        m.observe_cycles(HIST_NAMES[i % HIST_NAMES.len()], v % 100_000);
    }
    for &(name, value) in &raw.2 {
        m.set_gauge(gauge_pool[name as usize % gauge_pool.len()], value);
    }
    m.snapshot()
}

fn raw_snapshot() -> impl Strategy<Value = RawSnapshot> {
    (
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..12),
        prop::collection::vec(any::<u64>(), 0..12),
        prop::collection::vec((any::<u8>(), any::<u64>()), 0..4),
    )
}

const POOL_A: [&str; 2] = [names::COSIM_CHIPS, names::TRACE_DROPPED];
const POOL_B: [&str; 2] = [names::RT_REUSES, names::RT_FAILOVERS];

fn absorbed(mut a: RunMetrics, b: &RunMetrics) -> RunMetrics {
    a.absorb(b);
    a
}

/// Builds a histogram from raw observations (capped so buckets stay in a
/// sane range but still cross many powers of two).
fn hist_of(obs: &[u64]) -> CycleHistogram {
    let mut h = CycleHistogram::default();
    for &v in obs {
        h.observe(v % 5_000_000);
    }
    h
}

// ---- TimeSeries::merge laws, mirroring the absorb suite above. A
// telemetry record merges counter windows by sum and gauge windows by
// max — both commutative and associative with the empty record as
// identity, so the order per-batch launch telemetry is folded into a
// serving run can never change the sealed time series. ----

const TS_CFG: TelemetryConfig = TelemetryConfig {
    window: 64,
    slo_permille: 990,
};

const TS_NAMES: [&str; 3] = ["serve.throughput", "link.deliveries", "chip.busy_cycles"];
const TS_LABELS: [&str; 3] = ["tenant0", "link3", ""];

/// Raw generator output for one telemetry record: counter samples as
/// `(series_pick, cycle, by)` and gauge samples as `(cycle, level)`.
type RawTelemetry = (Vec<(u8, u64, u64)>, Vec<(u64, u64)>);

/// Builds a sealed record from raw picks. Cycles wrap into a few windows
/// so samples actually collide; `by` wraps small so sums stay far from
/// saturation.
fn build_telemetry(raw: &RawTelemetry) -> Telemetry {
    let mut t = Telemetry::empty(TS_CFG);
    for &(pick, cycle, by) in &raw.0 {
        let name = TS_NAMES[pick as usize % TS_NAMES.len()];
        let label = TS_LABELS[(pick as usize / TS_NAMES.len()) % TS_LABELS.len()];
        t.count(name, label, cycle % 1024, by % 1000);
    }
    for &(cycle, level) in &raw.1 {
        t.level("serve.queue_depth", "", cycle % 1024, level % 1000);
    }
    t
}

fn raw_telemetry() -> impl Strategy<Value = RawTelemetry> {
    (
        prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..16),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
    )
}

fn merged(mut a: Telemetry, b: &Telemetry) -> Telemetry {
    a.merge(b);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identity: the empty record merges to and from anything without
    /// changing it.
    #[test]
    fn timeseries_merge_identity(raw in raw_telemetry()) {
        let x = build_telemetry(&raw);
        prop_assert_eq!(merged(x.clone(), &Telemetry::empty(TS_CFG)), x.clone());
        prop_assert_eq!(merged(Telemetry::empty(TS_CFG), &x), x);
    }

    /// Commutativity: a ⊕ b == b ⊕ a. Unlike RunMetrics gauges
    /// (last-write-wins), telemetry gauges merge by per-window max, so no
    /// disjoint-pool carve-out is needed — the law holds on collisions.
    #[test]
    fn timeseries_merge_commutative(ra in raw_telemetry(), rb in raw_telemetry()) {
        let a = build_telemetry(&ra);
        let b = build_telemetry(&rb);
        prop_assert_eq!(merged(a.clone(), &b), merged(b.clone(), &a));
    }

    /// Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn timeseries_merge_associative(
        ra in raw_telemetry(),
        rb in raw_telemetry(),
        rc in raw_telemetry(),
    ) {
        let a = build_telemetry(&ra);
        let b = build_telemetry(&rb);
        let c = build_telemetry(&rc);
        let left = merged(merged(a.clone(), &b), &c);
        let right = merged(a, &merged(b, &c));
        prop_assert_eq!(left, right);
    }

    /// Merging conserves counter mass: every series total in a ⊕ b is the
    /// sum of its totals in a and b (gauges take the max instead).
    #[test]
    fn timeseries_merge_conserves_counter_totals(ra in raw_telemetry(), rb in raw_telemetry()) {
        let a = build_telemetry(&ra);
        let b = build_telemetry(&rb);
        let m = merged(a.clone(), &b);
        for s in &m.series {
            let ta = a.get(&s.name, &s.label).map_or(0, TimeSeries::total);
            let tb = b.get(&s.name, &s.label).map_or(0, TimeSeries::total);
            match s.kind {
                SeriesKind::Counter => prop_assert_eq!(s.total(), ta + tb),
                SeriesKind::Gauge => prop_assert_eq!(s.total(), ta.max(tb)),
            }
        }
    }

    /// Percentiles are monotone non-decreasing in `q`.
    #[test]
    fn percentile_monotone_in_q(obs in prop::collection::vec(any::<u64>(), 1..64)) {
        let h = hist_of(&obs);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(
                h.percentile(w[0]) <= h.percentile(w[1]),
                "p({}) > p({})", w[0], w[1]
            );
        }
    }

    /// Percentiles of a merged histogram are bracketed by the two halves'
    /// percentiles, and merging with an empty histogram changes nothing.
    #[test]
    fn percentile_survives_merge(
        oa in prop::collection::vec(any::<u64>(), 1..48),
        ob in prop::collection::vec(any::<u64>(), 1..48),
        q in 0.0f64..=1.0,
    ) {
        let (a, b) = (hist_of(&oa), hist_of(&ob));
        let mut merged = a.clone();
        merged.merge(&b);
        let (pa, pb) = (a.percentile(q), b.percentile(q));
        let pm = merged.percentile(q);
        prop_assert!(pm >= pa.min(pb) && pm <= pa.max(pb),
            "merged p({q}) = {pm} outside [{}, {}]", pa.min(pb), pa.max(pb));
        let mut with_empty = a.clone();
        with_empty.merge(&CycleHistogram::default());
        prop_assert_eq!(with_empty.percentile(q), pa);
    }

    /// Identity: the empty snapshot absorbs to and from anything without
    /// changing it.
    #[test]
    fn absorb_identity(raw in raw_snapshot()) {
        let x = build(&raw, &POOL_A);
        prop_assert_eq!(absorbed(x.clone(), &RunMetrics::default()), x.clone());
        prop_assert_eq!(absorbed(RunMetrics::default(), &x), x);
    }

    /// Commutativity over counters, histograms, and disjoint gauges:
    /// a ⊕ b == b ⊕ a.
    #[test]
    fn absorb_commutative(ra in raw_snapshot(), rb in raw_snapshot()) {
        let a = build(&ra, &POOL_A);
        let b = build(&rb, &POOL_B);
        prop_assert_eq!(absorbed(a.clone(), &b), absorbed(b.clone(), &a));
    }

    /// Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), gauges included
    /// (last-write-wins is associative even when names collide).
    #[test]
    fn absorb_associative(ra in raw_snapshot(), rb in raw_snapshot(), rc in raw_snapshot()) {
        let a = build(&ra, &POOL_A);
        let b = build(&rb, &POOL_A);
        let c = build(&rc, &POOL_B);
        let left = absorbed(absorbed(a.clone(), &b), &c);
        let right = absorbed(a, &absorbed(b, &c));
        prop_assert_eq!(left, right);
    }
}

// ---- Deterministic pins of the same laws, so the suite still exercises
// them under the offline proptest stub. ----

fn pinned(seed: u64, pool: &[&'static str]) -> RunMetrics {
    let raw: RawSnapshot = (
        (0..6)
            .map(|i| {
                let x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(i * 7);
                (x as u8, (x >> 8) as u8, x >> 16)
            })
            .collect(),
        (0..5).map(|i| seed.rotate_left(i * 11) % 7919).collect(),
        vec![(seed as u8, seed % 97), ((seed >> 3) as u8, seed % 89)],
    );
    build(&raw, pool)
}

#[test]
fn absorb_identity_pinned() {
    for seed in [1u64, 42, 0xdead_beef] {
        let x = pinned(seed, &POOL_A);
        assert!(!x.is_empty());
        assert_eq!(absorbed(x.clone(), &RunMetrics::default()), x);
        assert_eq!(absorbed(RunMetrics::default(), &x), x);
    }
}

#[test]
fn absorb_commutative_pinned() {
    for (sa, sb) in [(1u64, 2u64), (7, 1000), (0xabc, 0xdef)] {
        let a = pinned(sa, &POOL_A);
        let b = pinned(sb, &POOL_B);
        assert_eq!(absorbed(a.clone(), &b), absorbed(b, &a));
    }
}

#[test]
fn absorb_associative_pinned() {
    for (sa, sb, sc) in [(1u64, 2u64, 3u64), (10, 20, 30), (0x123, 0x456, 0x789)] {
        let a = pinned(sa, &POOL_A);
        let b = pinned(sb, &POOL_A); // same pool: gauge collisions on purpose
        let c = pinned(sc, &POOL_B);
        let left = absorbed(absorbed(a.clone(), &b), &c);
        let right = absorbed(a, &absorbed(b, &c));
        assert_eq!(left, right);
    }
}

fn pinned_telemetry(seed: u64) -> Telemetry {
    let raw: RawTelemetry = (
        (0..8)
            .map(|i| {
                let x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(i * 5);
                (x as u8, x >> 8, x >> 40)
            })
            .collect(),
        (0..4)
            .map(|i| (seed.rotate_left(i * 13) % 1024, seed % 31))
            .collect(),
    );
    build_telemetry(&raw)
}

#[test]
fn timeseries_merge_identity_pinned() {
    for seed in [1u64, 42, 0xdead_beef] {
        let x = pinned_telemetry(seed);
        assert!(!x.is_empty());
        assert_eq!(merged(x.clone(), &Telemetry::empty(TS_CFG)), x);
        assert_eq!(merged(Telemetry::empty(TS_CFG), &x), x);
    }
}

#[test]
fn timeseries_merge_commutative_pinned() {
    for (sa, sb) in [(1u64, 2u64), (7, 1000), (0xabc, 0xdef)] {
        let a = pinned_telemetry(sa);
        let b = pinned_telemetry(sb);
        assert_eq!(merged(a.clone(), &b), merged(b, &a));
    }
}

#[test]
fn timeseries_merge_associative_pinned() {
    for (sa, sb, sc) in [(1u64, 2u64, 3u64), (10, 20, 30), (0x123, 0x456, 0x789)] {
        let a = pinned_telemetry(sa);
        let b = pinned_telemetry(sb);
        let c = pinned_telemetry(sc);
        let left = merged(merged(a.clone(), &b), &c);
        let right = merged(a, &merged(b, &c));
        assert_eq!(left, right);
    }
}

#[test]
fn timeseries_merge_conserves_counter_totals_pinned() {
    for (sa, sb) in [(3u64, 5u64), (0x111, 0x222)] {
        let a = pinned_telemetry(sa);
        let b = pinned_telemetry(sb);
        let m = merged(a.clone(), &b);
        assert!(!m.is_empty());
        for s in &m.series {
            let ta = a.get(&s.name, &s.label).map_or(0, TimeSeries::total);
            let tb = b.get(&s.name, &s.label).map_or(0, TimeSeries::total);
            match s.kind {
                SeriesKind::Counter => assert_eq!(s.total(), ta + tb),
                SeriesKind::Gauge => assert_eq!(s.total(), ta.max(tb)),
            }
        }
    }
}

/// The non-commutative corner, documented as a test: two snapshots writing
/// the *same* gauge disagree under order reversal — which is exactly why
/// the runtime folds attempts in chronological order and layers own
/// disjoint gauge names.
#[test]
fn gauge_collisions_are_last_write_wins() {
    let m1 = Metrics::default();
    m1.set_gauge(names::COSIM_CHIPS, 1);
    let m2 = Metrics::default();
    m2.set_gauge(names::COSIM_CHIPS, 2);
    let (a, b) = (m1.snapshot(), m2.snapshot());
    assert_eq!(absorbed(a.clone(), &b).gauge(names::COSIM_CHIPS), Some(2));
    assert_eq!(absorbed(b, &a).gauge(names::COSIM_CHIPS), Some(1));
}
