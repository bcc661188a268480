//! Metric primitives: monotonic counters, fixed-bucket histograms, timers
//! and the [`Span`] guard that measures one interval for a timer and the
//! event journal at once.
//!
//! Every primitive is a thin wrapper over relaxed atomics, so instrumented
//! code pays one uncontended atomic add per event and any thread (the sweep
//! worker pool included) can record without locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::events::{self, EventKind, EventName};

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
/// Each span a timer opens is also a journal span under the timer's one
/// [`EventName`], so the timeline and the timer are one measurement.
#[derive(Debug)]
pub struct Timer {
    name: EventName,
    ns: Counter,
    spans: Counter,
}

impl Timer {
    /// Creates a zeroed timer whose spans the journal records as `name`.
    pub const fn new(name: EventName) -> Self {
        Self {
            name,
            ns: Counter::new(),
            spans: Counter::new(),
        }
    }

    /// Opens a span; its length is added when the guard closes.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        self.span_with_arg(0)
    }

    /// Like [`Timer::span`], annotating the journal's begin event with `arg`.
    #[inline]
    pub fn span_with_arg(&self, arg: u64) -> Span<'_> {
        Span::open(Some(self), self.name, arg)
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

/// One measured interval, the RAII guard [`Timer::span`] and
/// [`events::span`] return: one clock read when it opens and one when it
/// closes. Its timer, if any, adds the difference; if the journal was on
/// at the open, its begin and end events carry the same two readings. It
/// closes on [`finish`](Self::finish) or on drop, also in a panic unwind,
/// so a `catch_unwind` fault path never leaves a span open or untimed.
#[derive(Debug)]
pub struct Span<'a> {
    timer: Option<&'a Timer>,
    name: EventName,
    /// The opening clock read; `None` once the span has closed.
    start: Option<Instant>,
    /// The journal was on at the open, so the end event is due even if it
    /// has been switched off since.
    journaled: bool,
}

impl<'a> Span<'a> {
    pub(crate) fn open(timer: Option<&'a Timer>, name: EventName, arg: u64) -> Self {
        let start = Instant::now();
        let journaled = events::events_enabled();
        if journaled {
            events::emit_at(EventKind::SpanBegin, name, arg, start);
        }
        Self {
            timer,
            name,
            start: Some(start),
            journaled,
        }
    }

    /// Closes the span and returns its length.
    pub fn finish(mut self) -> Duration {
        self.close(None)
    }

    /// Closes the span like [`finish`](Self::finish), journaling the instant
    /// `done` at the closing clock read first, so it falls inside the span,
    /// with the span's length in whole microseconds as its argument.
    pub fn finish_with_instant(mut self, done: EventName) -> Duration {
        self.close(Some(done))
    }

    fn close(&mut self, done: Option<EventName>) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let end = Instant::now();
        let elapsed = end.saturating_duration_since(start);
        if let Some(timer) = self.timer {
            // u64 nanoseconds cover ~584 years of span time; saturate rather
            // than wrap if a clock ever misbehaves.
            timer.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        if self.journaled {
            if let Some(done) = done {
                let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
                events::emit_at(EventKind::Instant, done, us, end);
            }
            events::emit_at(EventKind::SpanEnd, self.name, 0, end);
        }
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close(None);
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
        let t = Timer::new(EventName::SimSimulate);
        {
            let _span = t.span();
        }
        let elapsed = t.span().finish();
        t.record_ns(1000);
        assert_eq!(t.spans(), 3);
        assert!(t.total_ns() >= 1000 + elapsed.as_nanos() as u64);
    }
}
