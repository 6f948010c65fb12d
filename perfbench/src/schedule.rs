//! Seeded arrival schedules for the open-loop load generator.
//!
//! A schedule is the list of instants (offsets from the start of a phase)
//! at which requests fall due. The generator sends each request at its
//! due instant whatever the server is doing, and latency is timed from
//! that instant, so a stalled server or a late generator shows up as
//! latency instead of as silently reduced load.

use std::time::Duration;

/// SplitMix64: a small, seedable generator for schedules and payload
/// choices. The same seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrivals at `rate` per second over `span`: exponential gaps,
/// first arrival one gap after the start.
pub fn poisson(rate: f64, span: Duration, rng: &mut SplitMix64) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    let end = span.as_secs_f64();
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the log is finite
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `count` bursts of `size` requests, all of a burst due at the same
/// instant, bursts `period` apart starting at zero.
pub fn bursts(size: usize, period: Duration, count: usize) -> Vec<Duration> {
    (0..count)
        .flat_map(|b| std::iter::repeat_n(period * b as u32, size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_matches() {
        for (rate, secs) in [(150.0, 40), (400.0, 20), (700.0, 10)] {
            let span = Duration::from_secs(secs);
            let arrivals = poisson(rate, span, &mut SplitMix64::new(7));
            let expected = rate * secs as f64;
            // the count of a Poisson process has sd sqrt(expected)
            let tolerance = 4.0 * expected.sqrt();
            assert!(
                (arrivals.len() as f64 - expected).abs() < tolerance,
                "rate {rate}: {} arrivals, expected {expected} ± {tolerance}",
                arrivals.len()
            );
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
            assert!(arrivals.iter().all(|&t| t < span));
        }
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let rate = 400.0;
        let arrivals = poisson(rate, Duration::from_secs(30), &mut SplitMix64::new(3));
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * rate - 1.0).abs() < 0.03, "mean gap {mean}");
        // an exponential gap exceeds its mean with probability 1/e
        let above = gaps.iter().filter(|&&g| g > 1.0 / rate).count() as f64 / gaps.len() as f64;
        assert!(
            (above - (-1.0f64).exp()).abs() < 0.02,
            "share above mean {above}"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let span = Duration::from_secs(5);
        let a = poisson(400.0, span, &mut SplitMix64::new(42));
        let b = poisson(400.0, span, &mut SplitMix64::new(42));
        let c = poisson(400.0, span, &mut SplitMix64::new(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn burst_shape_is_exact() {
        let period = Duration::from_millis(100);
        let schedule = bursts(48, period, 5);
        assert_eq!(schedule.len(), 240);
        for (b, burst) in schedule.chunks(48).enumerate() {
            assert!(burst.iter().all(|&t| t == period * b as u32));
        }
    }

    #[test]
    fn below_stays_in_range_and_repeats() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = a.below(37);
            assert!(x < 37);
            assert_eq!(x, b.below(37));
        }
    }
}
