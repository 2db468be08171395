//! Property-based tests for counters, clocks and deskew.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsm_sync::clock::LocalClock;
use tsm_sync::deskew::RuntimeDeskew;
use tsm_sync::hac::{signed_mod_difference, AlignedCounter, HAC_PERIOD};

proptest! {
    /// Advancing is associative: one big step equals many small steps.
    #[test]
    fn advance_is_associative(start in 0u64..252, steps in prop::collection::vec(0u64..10_000, 1..20)) {
        let mut a = AlignedCounter::starting_at(start);
        let mut b = AlignedCounter::starting_at(start);
        let total: u64 = steps.iter().sum();
        for s in &steps {
            a.advance(*s);
        }
        b.advance(total);
        prop_assert_eq!(a.value(), b.value());
        prop_assert_eq!(a.epochs(), b.epochs());
    }

    /// Epoch counting is exact: epochs = floor((start + cycles) / period).
    #[test]
    fn epoch_count_exact(start in 0u64..252, cycles in 0u64..1_000_000) {
        let mut c = AlignedCounter::starting_at(start);
        let crossed = c.advance(cycles);
        prop_assert_eq!(crossed, (start + cycles) / HAC_PERIOD);
        prop_assert_eq!(c.value(), (start + cycles) % HAC_PERIOD);
    }

    /// signed_mod_difference always lands in (-P/2, P/2] and is congruent
    /// to its input mod P.
    #[test]
    fn signed_difference_properties(raw in -1_000_000i64..1_000_000) {
        let d = signed_mod_difference(raw);
        let p = HAC_PERIOD as i64;
        prop_assert!(d > -p / 2 && d <= p / 2);
        prop_assert_eq!((raw - d).rem_euclid(p), 0);
    }

    /// Rate-limited adjustment never moves more than the limit, and moves
    /// toward the target.
    #[test]
    fn adjust_is_bounded_and_directional(
        start in 0u64..252,
        delta in -300i64..300,
        max_rate in 1u64..50,
    ) {
        let mut c = AlignedCounter::starting_at(start);
        let applied = c.adjust(delta, max_rate);
        prop_assert!(applied.unsigned_abs() <= max_rate);
        prop_assert_eq!(applied.signum(), delta.signum());
        let expected = (start as i64 + applied).rem_euclid(HAC_PERIOD as i64) as u64;
        prop_assert_eq!(c.value(), expected);
    }

    /// Clock drift is linear: drift(2t) = 2·drift(t).
    #[test]
    fn drift_is_linear(ppm in -200.0f64..200.0, t in 1.0f64..1e9) {
        let c = LocalClock::with_ppm(ppm);
        let d1 = c.drift_after(t);
        let d2 = c.drift_after(2.0 * t);
        prop_assert!((d2 - 2.0 * d1).abs() < 1e-6 * d1.abs().max(1.0));
    }

    /// A deskew whose target covers the drift always produces a
    /// non-negative stall that exactly compensates.
    #[test]
    fn deskew_stall_compensates(target in 0u64..100_000, drift in -1000i64..1000) {
        let d = RuntimeDeskew::new(target);
        match d.stall_cycles(drift) {
            Some(stall) => {
                prop_assert_eq!(stall as i64, target as i64 + drift);
            }
            None => {
                prop_assert!(drift < 0 && drift.unsigned_abs() > target);
            }
        }
    }

    /// Program-level invariant: with RUNTIME_DESKEW between segments, the
    /// accumulated drift before each deskew never exceeds one segment's
    /// worth regardless of clock rate or segment length.
    #[test]
    fn deskew_bounds_drift(ppm in -150.0f64..150.0, segment in 10_000u64..2_000_000) {
        prop_assume!(ppm != 0.0);
        let per_segment = (ppm.abs() * 1e-6 * segment as f64).ceil() + 1.0;
        let d = RuntimeDeskew::new(per_segment as u64 + 10);
        let drifts = d.simulate_program(LocalClock::with_ppm(ppm), segment, 20);
        for drift in drifts {
            prop_assert!(drift <= per_segment, "{drift} > {per_segment}");
        }
    }

    /// Seeded clock draws are reproducible.
    #[test]
    fn random_clock_reproducible(seed: u64, max_ppm in 1.0f64..500.0) {
        let a = LocalClock::random(max_ppm, &mut StdRng::seed_from_u64(seed));
        let b = LocalClock::random(max_ppm, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
        prop_assert!(a.ppm.abs() <= max_ppm);
    }
}
