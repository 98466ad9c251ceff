//! Atomic metric primitives and the registry that names them.
//!
//! All three primitives are `Arc`-backed handles: clone one into a hot path
//! and update it with `Relaxed` atomics; the registry keeps a second handle
//! for snapshotting. Nothing here locks on the update path — the only mutex
//! guards registration and snapshot assembly, both cold. A hot loop that
//! records many observations per unit of work keeps a [`LocalHistogram`]
//! (plain integers, no atomics) and folds it in with one
//! [`Histogram::absorb`] per unit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Labels, TelemetrySnapshot,
};

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` covers values in
/// `[2^i, 2^(i+1))`, so 64 buckets span the whole `u64` range (1 ns to
/// centuries when recording nanoseconds).
pub(crate) const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter (`Relaxed` atomics; cloning shares the
/// underlying value).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge storing `u64` (queue depths, occupancy, …). `set` is
/// one relaxed store — cheap enough to sample on every submit.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is higher (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-scale histogram for latencies: 64 power-of-two buckets, a count,
/// and a sum. Recording is three relaxed `fetch_add`s — no lock, no
/// allocation — and quantiles are estimated at snapshot time by linear
/// interpolation inside the hit bucket (error bounded by the bucket width,
/// i.e. at most 2× — adequate for the p50/p99 separations the engine
/// reports, which span orders of magnitude).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// The log₂ bucket `value` falls in (0 and 1 share bucket 0).
fn bucket_of(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (e.g. a latency in nanoseconds).
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration, in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every observation `local` holds, then empties it: one relaxed
    /// `fetch_add` per nonempty bucket plus count and sum, however many
    /// values were recorded locally. The result is exactly as if each value
    /// had been [`record`](Self::record)ed here.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (shared, n) in self.0.buckets.iter().zip(&mut local.buckets) {
            if *n > 0 {
                shared.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
        self.0.sum.fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// An immutable snapshot (buckets, count, sum, precomputed quantiles).
    #[must_use]
    pub fn snapshot(&self, name: &str, labels: &Labels) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                // Upper bound of bucket i is 2^(i+1) (exclusive); saturate at
                // the top bucket.
                (n > 0).then(|| (1u64 << (i + 1).min(63), n))
            })
            .collect();
        HistogramSnapshot::new(name.to_owned(), labels.clone(), self.count(), self.sum(), buckets)
    }
}

/// A single-owner [`Histogram`] accumulator: the same log₂ buckets held in
/// plain integers, so a record is three non-atomic adds. A worker records
/// into one while it works and hands it to [`Histogram::absorb`] at a
/// natural boundary (a batch), which is what readers of the shared
/// histogram see — so they lag by at most that boundary.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl LocalHistogram {
    /// Records one observation, bucketed exactly like [`Histogram::record`].
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    name: String,
    labels: Labels,
    metric: Metric,
}

/// A named collection of metrics, snapshotted as one [`TelemetrySnapshot`].
///
/// Registration hands back a clone of the metric handle; updates never touch
/// the registry again. Names follow Prometheus conventions
/// (`snake_case`, unit suffix like `_ns`); labels are static
/// `(key, value)` pairs fixed at registration (e.g. `("worker", "0")`).
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Registered>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], metric: Metric) {
        let labels: Labels =
            labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
        self.metrics.lock().expect("metrics registry poisoned").push(Registered {
            name: name.to_owned(),
            labels,
            metric,
        });
    }

    /// Creates and registers a counter.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.register(name, labels, Metric::Counter(c.clone()));
        c
    }

    /// Creates and registers a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.register(name, labels, Metric::Gauge(g.clone()));
        g
    }

    /// Creates and registers a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.register(name, labels, Metric::Histogram(h.clone()));
        h
    }

    /// Reads every registered metric into an immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for r in self.metrics.lock().expect("metrics registry poisoned").iter() {
            match &r.metric {
                Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                    name: r.name.clone(),
                    labels: r.labels.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: r.name.clone(),
                    labels: r.labels.clone(),
                    value: g.get() as f64,
                }),
                Metric::Histogram(h) => snap.histograms.push(h.snapshot(&r.name, &r.labels)),
            }
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("metrics", &n).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set_max(3); // lower: ignored
        assert_eq!(g.get(), 7);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.record(0); // clamped to 1 → bucket 0
        h.record(1);
        h.record(3); // bucket 1: [2, 4)
        h.record(1000); // bucket 9: [512, 1024)
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1004);
        let snap = h.snapshot("h", &Vec::new());
        let totals: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(totals, 4);
        assert!(snap.buckets.iter().any(|&(ub, n)| ub == 1024 && n == 1));
    }

    #[test]
    fn histogram_quantiles_order() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let snap = h.snapshot("lat", &Vec::new());
        let p50 = snap.quantile(0.50);
        let p99 = snap.quantile(0.99);
        assert!(p50 < 256.0, "p50 must sit in the low bucket, got {p50}");
        assert!(p99 > 60_000.0, "p99 must sit in the high bucket, got {p99}");
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot("h", &Vec::new());
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.p99, 0.0);
    }

    #[test]
    fn registry_snapshot_reads_live_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", &[]);
        let g = reg.gauge("depth", &[("worker", "1")]);
        let h = reg.histogram("lat_ns", &[]);
        c.add(2);
        g.set(11);
        h.record(64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(2));
        assert_eq!(snap.gauge("depth"), Some(11.0));
        assert_eq!(snap.histogram("lat_ns").unwrap().count, 1);
        // The handle outlives the snapshot; a later snapshot sees updates.
        c.inc();
        assert_eq!(reg.snapshot().counter("c_total"), Some(3));
    }

    proptest::proptest! {
        #[test]
        fn absorbing_a_local_histogram_equals_recording_directly(
            raw in proptest::collection::vec((0u64..u64::MAX, 16u32..64), 0..200),
            split in 0usize..200,
        ) {
            // Log-uniform values up to 2^48, so every bucket range is hit.
            let values: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
            let direct = Histogram::new();
            for &v in &values {
                direct.record(v);
            }
            // Absorbed in two installments, as a worker does across batches.
            let absorbed = Histogram::new();
            let mut local = LocalHistogram::default();
            let split = split.min(values.len());
            for &v in &values[..split] {
                local.record(v);
            }
            absorbed.absorb(&mut local);
            for &v in &values[split..] {
                local.record(v);
            }
            absorbed.absorb(&mut local);
            let (a, d) = (absorbed.snapshot("h", &Vec::new()), direct.snapshot("h", &Vec::new()));
            proptest::prop_assert_eq!(&a.buckets, &d.buckets);
            proptest::prop_assert_eq!((a.count, a.sum), (d.count, d.sum));
            proptest::prop_assert_eq!((a.p50, a.p90, a.p99), (d.p50, d.p90, d.p99));
            // Absorbing empties the local side.
            absorbed.absorb(&mut local);
            proptest::prop_assert_eq!(absorbed.count(), values.len() as u64);
        }
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Histogram::new();
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(i + 1);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(c.get(), 4_000);
    }
}
