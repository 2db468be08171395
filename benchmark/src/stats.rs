//! Small numeric helpers: quantiles, a word digest, seeded byte streams.

/// The `q`-quantile (`q` in `[0, 1]`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Element-wise `a[i] / b[i]`.
pub fn ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x / y).collect()
}

/// Nearest-rank `q`-quantile of integer cycle counts: the smallest value
/// with at least `q` of the samples at or below it; 0 when empty.
pub fn rank_quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over 64-bit words: the digest of a run's simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    /// Folds a length-prefixed sequence of words in.
    pub fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

/// SplitMix64: a seeded stream for generating benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// A stream keyed by `seed` and a tuple of stream ids.
    pub fn keyed(seed: u64, ids: &[u64]) -> Self {
        let mut s = SplitMix(seed);
        for &id in ids {
            s.0 ^= id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            s.next_u64();
        }
        s
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rank_quantile_picks_an_observed_value() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_quantile(&v, 0.5), 50);
        assert_eq!(rank_quantile(&v, 0.99), 99);
        assert_eq!(rank_quantile(&v, 1.0), 100);
        assert_eq!(rank_quantile(&[7], 0.0), 7);
        assert_eq!(rank_quantile(&[], 0.5), 0);
    }

    #[test]
    fn keyed_streams_differ_by_key() {
        let a = SplitMix::keyed(1, &[0]).next_u64();
        assert_eq!(a, SplitMix::keyed(1, &[0]).next_u64());
        assert_ne!(a, SplitMix::keyed(1, &[1]).next_u64());
        assert_ne!(a, SplitMix::keyed(2, &[0]).next_u64());
    }
}
