//! Metric primitives: monotonic counters, fixed-bucket histograms and the
//! [`ScopedTimer`] span guard.
//!
//! Every primitive is a thin wrapper over relaxed atomics, so instrumented
//! code pays one uncontended atomic add per event and any thread (the sweep
//! worker pool included) can record without locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic counter. Never decreases; wraps only after 2^64 events.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter (const, so counters can live in statics).
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// `N` upper bounds (ascending) define `N` buckets of `value <= bound`,
/// plus one overflow bucket; sum and count are tracked so snapshots can
/// derive means without walking buckets.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    bounds: [u64; N],
    buckets: [AtomicU64; N],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

/// An owned, point-in-time copy of a histogram's state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Sample counts per bucket (`value <= bound`), one per bound.
    pub counts: Vec<u64>,
    /// Samples above the last bound.
    pub overflow: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or zero with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all recorded samples (accessor form of the `sum` field, for
    /// call sites that hold the snapshot behind a trait or reference).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Cumulative bucket counts in Prometheus `le` semantics: element `i`
    /// is the number of samples `<= bounds[i]`, and one trailing element
    /// (the `+Inf` bucket) includes the overflow count, so the final value
    /// always equals [`HistogramSnapshot::count`].
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.counts.len() + 1);
        let mut running = 0u64;
        for &c in &self.counts {
            running = running.saturating_add(c);
            out.push(running);
        }
        out.push(running.saturating_add(self.overflow));
        out
    }
}

impl<const N: usize> Histogram<N> {
    /// Creates a histogram with the given ascending upper bounds.
    pub const fn new(bounds: [u64; N]) -> Self {
        Self {
            bounds,
            buckets: [const { AtomicU64::new(0) }; N],
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the whole histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Accumulated span time: total nanoseconds plus how many spans closed.
#[derive(Debug, Default)]
pub struct Timer {
    ns: Counter,
    spans: Counter,
}

impl Timer {
    /// Creates a zeroed timer.
    pub const fn new() -> Self {
        Self {
            ns: Counter::new(),
            spans: Counter::new(),
        }
    }

    /// Opens a span; the elapsed time is added when the guard drops.
    #[inline]
    pub fn span(&self) -> ScopedTimer<'_> {
        ScopedTimer {
            timer: self,
            start: Instant::now(),
        }
    }

    /// Adds a measured duration directly (for callers that already timed).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.ns.add(ns);
        self.spans.inc();
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.get()
    }

    /// Number of closed spans.
    pub fn spans(&self) -> u64 {
        self.spans.get()
    }

    /// Total accumulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }
}

/// RAII span guard: measures from creation to drop and adds the elapsed
/// nanoseconds to its [`Timer`].
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    timer: &'a Timer,
    start: Instant,
}

impl ScopedTimer<'_> {
    /// Closes the span early (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        // u64 nanoseconds cover ~584 years of span time; saturate rather
        // than wrap if a clock ever misbehaves.
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timer.record_ns(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h: Histogram<3> = Histogram::new([10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 0]);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5126);
        assert!((s.mean() - 1025.2).abs() < 1e-9);
    }

    #[test]
    fn snapshot_cumulative_counts_end_at_total() {
        let h: Histogram<3> = Histogram::new([10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000, 6000] {
            h.record(v);
        }
        let s = h.snapshot();
        // Per-bucket [2, 2, 0] + overflow 2 → cumulative [2, 4, 4, 6].
        assert_eq!(s.cumulative_counts(), vec![2, 4, 4, 6]);
        assert_eq!(*s.cumulative_counts().last().unwrap(), s.count);
        assert_eq!(s.sum(), s.sum);
    }

    #[test]
    fn empty_snapshot_cumulative_counts_are_zero() {
        let h: Histogram<2> = Histogram::new([1, 2]);
        let s = h.snapshot();
        assert_eq!(s.cumulative_counts(), vec![0, 0, 0]);
        assert_eq!(s.sum(), 0);
    }

    #[test]
    fn timer_spans_accumulate() {
        let t = Timer::new();
        {
            let _span = t.span();
        }
        t.record_ns(1000);
        assert_eq!(t.spans(), 2);
        assert!(t.total_ns() >= 1000);
    }
}
