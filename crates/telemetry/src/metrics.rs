//! The metrics registry: named counters and log2-bucketed histograms.
//!
//! Metrics are **process-global** and always armed: recording is one or
//! two relaxed atomic operations, cheap enough to leave on in production
//! builds (the "histograms compiled, sinks off" zero-overhead mode). A
//! run attributes a slice of them to itself by snapshotting the registry
//! before and after and diffing ([`MetricsSnapshot::since`]).
//!
//! Handles are `&'static`: a recorder fetches its counter or histogram
//! once (at construction, or through a `OnceLock`) and the hot path
//! never touches the registry lock again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of log2 buckets. Bucket `i` holds values whose bit length is
/// `i`, i.e. `v = 0 → 0`, `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, … — enough
/// for the full `u64` range.
pub const BUCKETS: usize = 65;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotone (well, two-way: gauges may subtract) atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts `n` (for gauges such as live-object counts).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed latency histogram with count/sum/max sidecars.
///
/// Value units are whatever the recorder chooses (the engine uses
/// microseconds for solver/memory latencies and nanoseconds for sampled
/// interner lookups); the rendering helpers take a unit label.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index of a value: its bit length.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (`0` for the zero bucket).
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1).max(1)
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets and sidecars.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], diffable and renderable.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Maximum observed value (over the histogram's whole life — maxima
    /// are not diffable, so [`HistogramSnapshot::since`] keeps the later
    /// one).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The observations added since an earlier snapshot.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Merges two deltas bucket-wise.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i] + other.buckets[i];
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket upper bound at or below which fraction `p` (0..=1) of
    /// observations fall — a conservative percentile — clamped to the
    /// observed maximum, which no observation exceeds either.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return Histogram::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Renders the non-empty bucket range as indented bar-chart lines,
    /// e.g. `  ≤8µs     ███████ 1234`. Empty histograms render nothing.
    pub fn render(&self, unit: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.count == 0 {
            return out;
        }
        let lo = self.buckets.iter().position(|&b| b > 0).unwrap_or(0);
        let hi = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .unwrap_or(BUCKETS - 1);
        let peak = *self.buckets.iter().max().unwrap();
        for i in lo..=hi {
            let b = self.buckets[i];
            let bar_len = if peak == 0 {
                0
            } else {
                ((b as f64 / peak as f64) * 24.0).ceil() as usize
            };
            writeln!(
                out,
                "  ≤{:<9} {:<24} {}",
                format!("{}{unit}", Histogram::bucket_bound(i)),
                "#".repeat(bar_len),
                b
            )
            .unwrap();
        }
        out
    }

    /// One-line summary: `n=…, p50 ≤…, p99 ≤…, max …`.
    pub fn summary(&self, unit: &str) -> String {
        format!(
            "n={} p50<={}{unit} p90<={}{unit} p99<={}{unit} max={}{unit}",
            self.count,
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.max,
        )
    }
}

/// The process-global name → metric registry.
///
/// Registration interns the handle (`Box::leak`) so readers and writers
/// share one `&'static` metric per name for the life of the process.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

impl Registry {
    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        lock_unpoisoned(&self.counters)
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        lock_unpoisoned(&self.histograms)
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    /// A point-in-time copy of every registered metric.
    ///
    /// Taken twice per exploration (before/after), so the copy is built
    /// into name-sorted vectors: one allocation per plane and a linear
    /// read of the atomics, no tree rebuilding.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_unpoisoned(&self.counters)
                .iter()
                .map(|(&k, c)| (k, c.get()))
                .collect(),
            histograms: lock_unpoisoned(&self.histograms)
                .iter()
                .map(|(&k, h)| (k, h.snapshot()))
                .collect(),
        }
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A point-in-time copy of the whole registry, diffable per name.
///
/// Backed by name-sorted vectors (the registry maps iterate in name
/// order): lookups are binary searches and [`MetricsSnapshot::since`]
/// subtracts in place, so attributing a run to a region costs two
/// vector builds and one linear pass.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots, sorted by name.
    histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The deltas since an earlier snapshot, subtracted in place.
    /// Metrics registered only in `self` keep their full value; gauges
    /// (which may shrink) saturate at zero.
    pub fn since(mut self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        // Metrics are only ever added to the registry, so `earlier` is a
        // sorted subsequence of `self` and a two-pointer merge aligns
        // the planes without any per-entry search.
        let mut j = 0;
        for (k, v) in self.counters.iter_mut() {
            while j < earlier.counters.len() && earlier.counters[j].0 < *k {
                j += 1;
            }
            if let Some(&(ek, ev)) = earlier.counters.get(j) {
                if ek == *k {
                    *v = v.saturating_sub(ev);
                }
            }
        }
        let mut j = 0;
        for (k, v) in self.histograms.iter_mut() {
            while j < earlier.histograms.len() && earlier.histograms[j].0 < *k {
                j += 1;
            }
            if let Some((ek, e)) = earlier.histograms.get(j) {
                if ek == k {
                    *v = v.since(e);
                }
            }
        }
        self
    }

    /// Iterates every counter as `(name, value)`, in name order — what
    /// the live-mode exporter walks to emit nonzero deltas.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|&(k, _)| k.cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// The named histogram's snapshot (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .binary_search_by(|&(k, _)| k.cmp(name))
            .map(|i| self.histograms[i].1.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_cover_the_range() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX / 2] {
            assert!(
                v <= Histogram::bucket_bound(Histogram::bucket_of(v)),
                "{v} must fall at or under its bucket bound"
            );
        }
    }

    #[test]
    fn histogram_records_and_diffs() {
        let h = Histogram::new();
        h.record(3);
        h.record(5);
        h.record(1000);
        let a = h.snapshot();
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1008);
        assert_eq!(a.max, 1000);
        h.record(7);
        let d = h.snapshot().since(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 7);
        assert_eq!(d.buckets[Histogram::bucket_of(7)], 1);
    }

    #[test]
    fn percentiles_are_conservative_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(2);
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert!(s.percentile(0.5) >= 2 && s.percentile(0.5) <= 3);
        assert!(s.percentile(1.0) >= 1 << 20);
    }

    #[test]
    fn percentiles_never_exceed_the_maximum() {
        // 64 sits in the 64..=127 bucket; the bound must not print above
        // what was observed (`p90<=127 … max=64`).
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(64);
        }
        let s = h.snapshot();
        assert!(Histogram::bucket_bound(Histogram::bucket_of(64)) > 64);
        assert_eq!(s.percentile(0.9), 64);
        assert_eq!(s.percentile(1.0), 64);
        assert_eq!(
            s.summary("us"),
            "n=10 p50<=64us p90<=64us p99<=64us max=64us"
        );
    }

    #[test]
    fn registry_interns_handles() {
        let a = registry().counter("test.metric_registry_interning");
        let b = registry().counter("test.metric_registry_interning");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        b.incr();
        assert_eq!(b.get(), 3);
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.metric_registry_interning"), 3);
    }

    #[test]
    fn snapshot_diffs_attribute_a_region() {
        let c = registry().counter("test.metric_region_probe");
        let before = registry().snapshot();
        c.add(5);
        let delta = registry().snapshot().since(&before);
        assert_eq!(delta.counter("test.metric_region_probe"), 5);
    }

    #[test]
    fn render_is_silent_when_empty_and_bounded_when_not() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().render("µs"), "");
        h.record(9);
        let lines = h.snapshot().render("µs");
        assert_eq!(lines.lines().count(), 1);
        assert!(
            lines.contains("≤15µs"),
            "9 lands in the ≤15 bucket: {lines}"
        );
    }
}
