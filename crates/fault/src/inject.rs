//! Error injection across a scheduled program's transmissions.
//!
//! Every link reservation in an SSN schedule is one wire packet. Driving
//! each of them through the FEC channel with a bit-error-rate model yields
//! the program's fault profile: how many packets arrived clean, how many
//! were silently repaired, and whether any uncorrectable error forces a
//! software replay (paper §4.5).

use rand::Rng;
use tsm_isa::packet::WirePacket;
use tsm_isa::Vector;
use tsm_link::{Channel, FecOutcome, LatencyModel};
use tsm_net::ssn::Reservation;
use tsm_topology::Topology;

/// Tally of FEC outcomes over a set of transmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FecStats {
    /// Packets delivered without error.
    pub clean: u64,
    /// Packets with a single-bit error corrected in situ.
    pub corrected: u64,
    /// Packets with a detected multi-bit error (forces replay).
    pub uncorrectable: u64,
}

impl FecStats {
    /// Total packets observed.
    pub fn total(&self) -> u64 {
        self.clean + self.corrected + self.uncorrectable
    }

    /// True if the program's data survived without replay: every error was
    /// corrected in situ.
    pub fn is_clean_run(&self) -> bool {
        self.uncorrectable == 0
    }

    /// Observed packet error rate (corrected + uncorrectable).
    pub fn packet_error_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.corrected + self.uncorrectable) as f64 / self.total() as f64
    }

    /// Merge two tallies.
    pub fn merge(&self, other: &FecStats) -> FecStats {
        FecStats {
            clean: self.clean + other.clean,
            corrected: self.corrected + other.corrected,
            uncorrectable: self.uncorrectable + other.uncorrectable,
        }
    }

    /// The paper's coarse triple as a *view* over a metrics snapshot: sums
    /// the per-link `link.fec.*` counters, folding demoted miscorrections
    /// into `uncorrectable` (neither may deliver bytes, both force replay).
    pub fn from_metrics(metrics: &tsm_trace::RunMetrics) -> FecStats {
        use tsm_trace::names;
        FecStats {
            clean: metrics.counter(names::LINK_CLEAN),
            corrected: metrics.counter(names::LINK_CORRECTED),
            uncorrectable: metrics.counter(names::LINK_UNCORRECTABLE)
                + metrics.counter(names::LINK_DEMOTED),
        }
    }

    /// Adds this tally into a registry's global (unlabeled) `link.fec.*`
    /// cells — the inverse of [`FecStats::from_metrics`] for code that has
    /// only the coarse triple (statistical injection, aborted attempts).
    pub fn record_into(&self, metrics: &tsm_trace::Metrics) {
        use tsm_trace::names;
        metrics.inc(names::LINK_CLEAN, self.clean);
        metrics.inc(names::LINK_CORRECTED, self.corrected);
        metrics.inc(names::LINK_UNCORRECTABLE, self.uncorrectable);
    }
}

/// Packet-count threshold below which every wire packet is driven through
/// the full channel/codec individually; larger flit trains use aggregate
/// sampling with identical per-packet statistics.
const EXACT_PACKET_LIMIT: u64 = 2048;

/// Pushes each reservation's flit train through a channel at its link's
/// bit error rate and tallies the FEC outcomes; a per-link rate models
/// the "marginal cable" scenario of paper §4.5. Also returns the links on
/// which uncorrectable errors were observed, which is exactly the signal
/// the runtime's health monitor uses to blame hardware.
///
/// Small trains exercise the real codec packet by packet (payloads are
/// synthetic — the FEC layer's behaviour depends only on the error
/// process). Long trains are sampled in aggregate: per packet, the flip
/// count is Poisson(λ = BER × payload bits), so the counts of corrected
/// (k = 1) and uncorrectable (k ≥ 2) packets over `n` packets are Poisson
/// with means `n·λe^{−λ}` and `n·(1 − e^{−λ} − λe^{−λ})` — the same
/// distribution the per-packet path draws, at O(1) per train.
pub fn inject_schedule_with<R: Rng>(
    topo: &Topology,
    reservations: &[Reservation],
    ber_for_link: impl Fn(tsm_topology::LinkId) -> f64,
    rng: &mut R,
) -> (FecStats, Vec<tsm_topology::LinkId>) {
    let mut stats = FecStats::default();
    let mut culprits = Vec::new();
    for r in reservations {
        let ber = ber_for_link(r.link);
        let before = stats.uncorrectable;
        inject_one(topo, r, ber, rng, &mut stats);
        if stats.uncorrectable > before && !culprits.contains(&r.link) {
            culprits.push(r.link);
        }
    }
    (stats, culprits)
}

fn inject_one<R: Rng>(
    topo: &Topology,
    r: &Reservation,
    ber: f64,
    rng: &mut R,
    stats: &mut FecStats,
) {
    if ber == 0.0 {
        stats.clean += r.vectors;
        return;
    }
    if r.vectors <= EXACT_PACKET_LIMIT {
        let model = LatencyModel::for_class(topo.link(r.link).class);
        let channel = Channel::new(model, ber);
        for v in 0..r.vectors {
            let payload = Vector::splat((r.transfer as u8) ^ (v as u8));
            let packet = WirePacket::data(v as u16, payload);
            let delivery = channel.transmit(&packet, r.start, rng);
            match delivery.outcome {
                FecOutcome::Clean => stats.clean += 1,
                FecOutcome::Corrected { .. } => stats.corrected += 1,
                FecOutcome::Uncorrectable => stats.uncorrectable += 1,
            }
        }
    } else {
        let lambda = ber * tsm_link::fec::PAYLOAD_BITS as f64;
        let p_single = lambda * (-lambda).exp();
        let p_multi = 1.0 - (-lambda).exp() - p_single;
        let corrected = sample_poisson(r.vectors as f64 * p_single, rng).min(r.vectors);
        let uncorrectable =
            sample_poisson(r.vectors as f64 * p_multi, rng).min(r.vectors - corrected);
        stats.corrected += corrected;
        stats.uncorrectable += uncorrectable;
        stats.clean += r.vectors - corrected - uncorrectable;
    }
}

/// Draws a Poisson variate: inversion for small means, a rounded Gaussian
/// (clamped at 0) for large ones.
fn sample_poisson<R: Rng>(mean: f64, rng: &mut R) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 64.0 {
        let u: f64 = rng.gen();
        let mut cdf = 0.0;
        let mut p = (-mean).exp();
        let mut k = 0u64;
        loop {
            cdf += p;
            if u < cdf || k > 8 * mean as u64 + 64 {
                return k;
            }
            k += 1;
            p *= mean / k as f64;
        }
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mean + z * mean.sqrt()).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tsm_net::ssn::LinkOccupancy;
    use tsm_topology::route::shortest_path;
    use tsm_topology::{Topology, TspId};

    fn schedule(vectors: u64) -> (Topology, Vec<Reservation>) {
        let topo = Topology::single_node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        occ.schedule_transfer(&topo, &path, vectors, 0).unwrap();
        let r = occ.reservations().to_vec();
        (topo, r)
    }

    /// The tally of one injection at a uniform `ber` from `seed`.
    fn inject(topo: &Topology, res: &[Reservation], ber: f64, seed: u64) -> FecStats {
        inject_schedule_with(topo, res, |_| ber, &mut StdRng::seed_from_u64(seed)).0
    }

    #[test]
    fn zero_ber_is_always_clean() {
        let (topo, res) = schedule(500);
        let stats = inject(&topo, &res, 0.0, 1);
        assert_eq!(stats.clean, 500);
        assert_eq!(stats.total(), 500);
        assert!(stats.is_clean_run());
        assert_eq!(stats.packet_error_rate(), 0.0);
    }

    #[test]
    fn moderate_ber_mostly_corrected() {
        let (topo, res) = schedule(3000);
        // λ ≈ 2560e-6 ≈ 0.0026 errors/packet: singles dominate.
        let stats = inject(&topo, &res, 1e-6, 2);
        assert!(stats.corrected > 0, "{stats:?}");
        assert!(stats.corrected > stats.uncorrectable * 10, "{stats:?}");
    }

    #[test]
    fn harsh_ber_forces_replay() {
        let (topo, res) = schedule(500);
        let stats = inject(&topo, &res, 1e-3, 3);
        assert!(!stats.is_clean_run(), "{stats:?}");
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = FecStats {
            clean: 1,
            corrected: 2,
            uncorrectable: 3,
        };
        let b = FecStats {
            clean: 10,
            corrected: 20,
            uncorrectable: 30,
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            FecStats {
                clean: 11,
                corrected: 22,
                uncorrectable: 33
            }
        );
        assert_eq!(m.total(), 66);
    }

    #[test]
    fn metrics_round_trip_preserves_the_triple_and_folds_demotions() {
        use tsm_trace::{names, Metrics};
        let stats = FecStats {
            clean: 10,
            corrected: 3,
            uncorrectable: 2,
        };
        let m = Metrics::default();
        stats.record_into(&m);
        assert_eq!(FecStats::from_metrics(&m.snapshot()), stats);

        // Demotions (recorded per-link by the link meter) fold into
        // uncorrectable in the view.
        m.inc_labeled(names::LINK_DEMOTED, 4, 1);
        let folded = FecStats::from_metrics(&m.snapshot());
        assert_eq!(folded.uncorrectable, 3);
        assert_eq!(folded.clean, 10);
    }

    #[test]
    fn injection_is_seed_deterministic() {
        let (topo, res) = schedule(200);
        assert_eq!(inject(&topo, &res, 1e-5, 9), inject(&topo, &res, 1e-5, 9));
    }
}
