//! A thread-safe registry of counters, gauges, and fixed-bucket histograms,
//! plus a [`ScopedTimer`] guard that records wall-time into a histogram.
//!
//! Hot paths (`matmul`, `im2col`, quantizer forward, AD metering) resolve
//! their histogram once through [`global`] and keep the `Arc`, so the
//! per-call cost is two `Instant` reads and one atomic bucket increment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default histogram bucket upper bounds, in nanoseconds: powers of four
/// from 256 ns to ~4.3 s, a range that covers a single quantizer call up
/// to a whole training epoch.
const TIMING_BOUNDS_NS: [u64; 12] = [
    1 << 8,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 32,
];

/// A fixed-bucket histogram of `u64` observations (nanoseconds by
/// convention for timings).
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bound per bucket; observations above the last bound
    /// land in the overflow bucket.
    bounds: Vec<u64>,
    /// One bucket per bound, plus trailing overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation inside the covering bucket, the standard
    /// fixed-bucket estimate: the true quantile is somewhere in the
    /// covering bucket, so the error is bounded by that bucket's width.
    /// Observations in the overflow bucket clamp to the last finite
    /// bound. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic the quantile asks for.
        let rank = (q * total as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += in_bucket;
            if (cumulative as f64) < rank {
                continue;
            }
            let last_finite = *self.bounds.last().expect("non-empty bounds") as f64;
            if idx == self.bounds.len() {
                // Overflow bucket: no upper bound to interpolate toward.
                return last_finite;
            }
            let lower = if idx == 0 {
                0.0
            } else {
                self.bounds[idx - 1] as f64
            };
            let upper = self.bounds[idx] as f64;
            let within = (rank - before as f64) / in_bucket as f64;
            return lower + (upper - lower) * within;
        }
        *self.bounds.last().expect("non-empty bounds") as f64
    }

    /// Per-bucket `(upper_bound, count)` pairs; the final entry uses
    /// `u64::MAX` as the overflow bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }
}

/// A guard that measures wall-time from construction to drop and records
/// the elapsed nanoseconds into a histogram.
#[must_use = "the timer records on drop; binding it to `_` stops the measurement immediately"]
pub struct ScopedTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl ScopedTimer {
    /// Starts timing into `histogram`.
    pub fn new(histogram: &Arc<Histogram>) -> Self {
        ScopedTimer {
            histogram: Arc::clone(histogram),
            start: Instant::now(),
        }
    }

    /// Starts timing into the globally registered histogram `name`.
    pub fn named(name: &str) -> Self {
        Self::new(&global().histogram(name))
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.histogram.record(nanos);
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Instruments are created on first use and shared behind `Arc`s, so
/// callers can resolve once and record lock-free afterwards.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(found) = self.counters.read().expect("metrics lock").get(name) {
            return Arc::clone(found);
        }
        Arc::clone(
            self.counters
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(found) = self.gauges.read().expect("metrics lock").get(name) {
            return Arc::clone(found);
        }
        Arc::clone(
            self.gauges
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name` with default timing buckets, created on
    /// first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_bounds(name, &TIMING_BOUNDS_NS)
    }

    /// The histogram named `name`; `bounds` apply only on first creation.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(found) = self.histograms.read().expect("metrics lock").get(name) {
            return Arc::clone(found);
        }
        Arc::clone(
            self.histograms
                .write()
                .expect("metrics lock")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Every counter as `(name, value)`, in name order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Every gauge as `(name, value)`, in name order.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Every histogram as `(name, handle)`, in name order.
    pub fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, h)| (name.clone(), Arc::clone(h)))
            .collect()
    }

    /// Serializable snapshot of every instrument's current state.
    pub fn snapshot(&self) -> serde_json::Value {
        let counters: Vec<serde_json::Value> = self
            .counters
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, c)| serde_json::json!({"name": name, "count": c.get()}))
            .collect();
        let gauges: Vec<serde_json::Value> = self
            .gauges
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, g)| serde_json::json!({"name": name, "value": g.get()}))
            .collect();
        let histograms: Vec<serde_json::Value> = self
            .histograms
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<serde_json::Value> = h
                    .buckets()
                    .into_iter()
                    .filter(|&(_, count)| count > 0)
                    .map(|(bound, count)| serde_json::json!({"le_ns": bound, "count": count}))
                    .collect();
                serde_json::json!({
                    "name": name,
                    "count": h.count(),
                    "sum_ns": h.sum(),
                    "mean_ns": h.mean(),
                    "p50_ns": h.quantile(0.50),
                    "p90_ns": h.quantile(0.90),
                    "p99_ns": h.quantile(0.99),
                    "buckets": buckets,
                })
            })
            .collect();
        serde_json::json!({
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        })
    }
}

/// The process-wide registry used by the pipeline's hot-path timers.
/// It is an `Arc` so a [`MetricsEndpoint`](crate::MetricsEndpoint) can
/// export it next to instance registries such as a server's.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(Arc::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("events");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("events").get(), 5);
        let g = registry.gauge("ad");
        g.set(0.75);
        assert!((registry.gauge("ad").get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with_bounds("t", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 999, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5 + 10 + 11 + 100 + 999 + 5000);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (10, 2)); // 5, 10
        assert_eq!(buckets[1], (100, 2)); // 11, 100
        assert_eq!(buckets[2], (1000, 1)); // 999
        assert_eq!(buckets[3], (u64::MAX, 1)); // 5000 overflow
    }

    #[test]
    fn quantiles_match_a_known_uniform_distribution() {
        let registry = MetricsRegistry::new();
        // Bucket width 100 over uniform 1..=1000: every estimate is
        // within one bucket width of the exact order statistic.
        let bounds: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        let h = registry.histogram_with_bounds("u", &bounds);
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 500.0), (0.90, 900.0), (0.99, 990.0)] {
            let estimate = h.quantile(q);
            assert!(
                (estimate - exact).abs() <= 100.0,
                "q={q}: estimate {estimate} too far from {exact}"
            );
        }
        // Within a single bucket the interpolation is exact for uniform
        // data: rank 250 of 1000 sits at 25% (bucket 201..=300).
        assert!((h.quantile(0.25) - 250.0).abs() <= 1.0);
    }

    #[test]
    fn quantiles_handle_point_masses_and_overflow() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with_bounds("p", &[10, 100]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for _ in 0..99 {
            h.record(7);
        }
        h.record(5000); // overflow bucket
                        // p50 lands in the first bucket (0, 10].
        let p50 = h.quantile(0.50);
        assert!(p50 > 0.0 && p50 <= 10.0, "p50 {p50}");
        // p99 still inside the mass at the first bucket (rank 99 of 100).
        assert!(h.quantile(0.99) <= 10.0);
        // p100 hits the overflow observation and clamps to the last
        // finite bound.
        assert_eq!(h.quantile(1.0), 100.0);
        // Out-of-range q clamps instead of panicking.
        assert!(h.quantile(-3.0) <= 10.0);
        assert_eq!(h.quantile(7.5), 100.0);
    }

    #[test]
    fn snapshot_includes_quantile_estimates() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with_bounds("q", &[10, 20, 30, 40]);
        for v in 1..=40u64 {
            h.record(v);
        }
        let snap = registry.snapshot();
        let histogram = &snap
            .get("histograms")
            .and_then(|h| h.as_seq())
            .expect("seq")[0];
        let p50 = histogram
            .get("p50_ns")
            .and_then(|v| v.as_f64())
            .expect("p50");
        let p90 = histogram
            .get("p90_ns")
            .and_then(|v| v.as_f64())
            .expect("p90");
        let p99 = histogram
            .get("p99_ns")
            .and_then(|v| v.as_f64())
            .expect("p99");
        assert!((p50 - 20.0).abs() <= 10.0);
        assert!((p90 - 36.0).abs() <= 10.0);
        assert!(p99 >= p90 && p99 <= 40.0);
    }

    #[test]
    fn scoped_timer_records_into_histogram() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("timer");
        {
            let _t = ScopedTimer::new(&h);
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0);
    }

    #[test]
    fn snapshot_reports_all_instruments() {
        let registry = MetricsRegistry::new();
        registry.counter("n").add(3);
        registry.gauge("v").set(1.5);
        registry.histogram_with_bounds("h", &[100]).record(50);
        let snap = registry.snapshot();
        let counters = snap.get("counters").and_then(|c| c.as_seq()).expect("seq");
        assert_eq!(counters.len(), 1);
        let histograms = snap
            .get("histograms")
            .and_then(|h| h.as_seq())
            .expect("seq");
        assert_eq!(histograms[0].get("count").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn same_name_returns_same_instrument() {
        let registry = MetricsRegistry::new();
        let a = registry.histogram("x");
        let b = registry.histogram("x");
        a.record(1);
        assert_eq!(b.count(), 1);
    }
}
