//! The structured event journal: timeline-level observability to complement
//! the aggregate counters of [`crate::pipeline`].
//!
//! Aggregates answer *how much*; the journal answers *when*. Instrumented
//! code emits **span begin/end pairs** (via the RAII [`Span`] guard, which
//! a pipeline [`Timer`](crate::Timer) opens, so its spans and the timer are
//! one measurement),
//! **instant events** (a point occurrence, e.g. a sweep worker catching a
//! panic) and **sample events** (a counter's value at a moment in time, for
//! throughput-over-time curves). Downstream tooling (`mbp::events_export`)
//! renders a drained journal as Chrome trace-event JSON for
//! Perfetto/`chrome://tracing`, or as a compact JSONL stream.
//!
//! # Design
//!
//! * **Off by default, near-zero when off.** Recording requires the
//!   journal's opt-in ([`set_events_enabled`]); a disabled emit is one
//!   relaxed load and a branch. Hot loops only call into the journal at
//!   *batch* granularity, never per record.
//! * **One ring behind one lock.** Every thread appends to the same ring
//!   of [`CAPACITY`] events under one `Mutex`. Sites fire a few events per
//!   2048-record batch, so the lock is rarely contended; the ring is
//!   reserved when the journal is armed, so an emit never allocates.
//! * **Drop-oldest.** When the ring is full, each new event evicts the
//!   oldest one and [`dropped_events`] counts every casualty. A long run
//!   therefore keeps its most recent window — the part a timeline viewer
//!   needs to explain "what was happening when it got slow".
//! * **Monotonic timestamps.** Timestamps are nanoseconds since the first
//!   enable ([`set_events_enabled`]), taken from [`Instant`], and bumped
//!   past the thread's last stamp, so they are strictly increasing per
//!   thread and per-thread event order is always reconstructible. A span's
//!   begin and end events carry the clock reads its timer measured, so the
//!   journal's span lengths add up to the timers.
//!
//! ```
//! use mbp_stats::events::{self, EventKind, EventName};
//!
//! events::set_events_enabled(true);
//! events::clear();
//! {
//!     let _span = events::span(EventName::SimSimulate);
//!     events::instant(EventName::SweepPredictorDone, 42);
//! }
//! let drained = events::drain();
//! assert!(drained.iter().any(|e| e.kind == EventKind::Instant));
//! events::set_events_enabled(false);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::Span;

/// Events the journal retains before each new one drops the oldest
/// (32 bytes each, 2 MiB in all).
pub const CAPACITY: usize = 65_536;

/// Default sampling interval for [`batch_tick`], in batches. At the SBBT
/// block size of 2048 records this samples roughly every 128k records.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Journal opt-in switch.
static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);

/// The retained events, oldest first, across all threads.
static JOURNAL: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

/// Events dropped to ring wrap-around since the last [`clear`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Batches observed by [`batch_tick`] since the last [`clear`].
static BATCH_TICKS: AtomicU64 = AtomicU64::new(0);

/// Sampling interval in batches; `0` disables periodic sampling.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);

/// The timestamp epoch: set once, on the first enable.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonically increasing thread-id source (ids start at 1).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's journal id, assigned on first use.
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// This thread's last timestamp, which its next one must exceed.
    static LAST_TS: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's journal id (stable for the thread's lifetime).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Enables or disables event recording process-wide. The first enable pins
/// the timestamp epoch; timestamps from all later sessions share it, so
/// events from separate phases of one process remain comparable. Enabling
/// reserves the whole ring, so no emit allocates.
pub fn set_events_enabled(enabled: bool) {
    if enabled {
        let _ = EPOCH.get_or_init(Instant::now);
        let mut ring = ring();
        let free = CAPACITY - ring.len();
        ring.reserve_exact(free);
    }
    EVENTS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether event recording is currently on.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds from the journal epoch to `at` (zero before the first
/// enable).
fn stamp(at: Instant) -> u64 {
    let since = EPOCH
        .get()
        .map_or(Duration::ZERO, |epoch| at.saturating_duration_since(*epoch));
    u64::try_from(since.as_nanos()).unwrap_or(u64::MAX)
}

/// Declares a journal enum and each value's stable identifier, in the one
/// table [`as_str`](EventName::as_str) reads.
macro_rules! journal_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$doc:meta])* $variant:ident => $id:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            const TABLE: &'static [(Self, &'static str)] = &[$((Self::$variant, $id),)*];

            /// Stable identifier, shown in trace viewers and the JSONL export.
            pub fn as_str(self) -> &'static str {
                Self::TABLE[self as usize].1
            }
        }
    };
}

journal_enum! {
    /// What an event records.
    pub enum EventKind {
        /// A span opened (matched by a later [`EventKind::SpanEnd`] on the
        /// same thread; spans nest per thread).
        SpanBegin => "span_begin",
        /// A span closed.
        SpanEnd => "span_end",
        /// A point occurrence with a payload argument.
        Instant => "instant",
        /// A counter's value at this moment (time-series sample).
        Sample => "sample",
    }
}

journal_enum! {
    /// The fixed vocabulary of instrumentation sites and sampled series.
    ///
    /// A closed enum (rather than interned strings) keeps the hot path free
    /// of any lookup or allocation.
    pub enum EventName {
        /// SBBT reader decoding one 2048-packet block.
        TraceFillBatch => "trace.fill_batch",
        /// Codec inflating one compressed trace (all blocks).
        CompressInflate => "compress.inflate",
        /// One whole simulation run (`simulate`/`simulate_scalar`).
        SimSimulate => "sim.simulate",
        /// The simulator pulling one batch from its source.
        SimFillBatch => "sim.fill_batch",
        /// Sweep phase 1: the single decode pass.
        SweepDecode => "sweep.decode",
        /// A sweep worker busy on one predictor (claim to report).
        SweepWorker => "sweep.worker_busy",
        /// A sweep worker finished a predictor (arg = its busy µs).
        SweepPredictorDone => "sweep.predictor_done",
        /// A sweep worker caught a predictor panic (arg = predictor index).
        SweepFault => "sweep.fault",
        /// A sweep worker observed a trace error (arg = predictor index).
        SweepTraceError => "sweep.trace_error",
        /// Workload generator refilling its record buffer.
        WorkloadGenerate => "workloads.generate",
        /// Sample series: cumulative branch records simulated.
        SampleSimRecords => "sample.sim_records",
        /// Sample series: cumulative instructions simulated.
        SampleSimInstructions => "sample.sim_instructions",
        /// Sample series: cumulative trace packets decoded.
        SamplePacketsDecoded => "sample.packets_decoded",
        /// Sample series: cumulative bytes inflated by the codecs.
        SampleInflatedBytes => "sample.inflated_bytes",
        /// The simulator closed one timeseries window (arg = window index).
        SimWindowTick => "sim.window_tick",
        /// A simulation run finished; arg = records it pushed through the
        /// batched `predict_batch` kernel path (0 = the run never left the
        /// scalar fallback).
        SimKernelBranches => "sim.kernel_branches",
        /// The sweep engine flushed one checkpoint record (arg = records in
        /// the checkpoint so far).
        CheckpointWrite => "sweep.checkpoint_write",
        /// The deadline watchdog cancelled a predictor (arg = predictor
        /// index).
        DeadlineFired => "sweep.deadline_fired",
        /// A worker waited for memory-budget admission (arg = predictor
        /// index).
        AdmissionWait => "sweep.admission_wait",
        /// Graceful shutdown began draining in-flight predictors (arg = jobs
        /// still in flight at that moment).
        ShutdownDrain => "sweep.shutdown_drain",
        /// A phases document was extracted from a trace (arg = BBV windows).
        SimpointExtract => "simpoint.extract",
        /// The sampled executor finished one representative slice (arg = the
        /// slice's window index).
        SimpointSampledSlice => "simpoint.sampled_slice",
        /// A telemetry client scraped a live endpoint (arg = scrapes served
        /// so far, including this one).
        TelemetryScrape => "telemetry.scrape",
    }
}

/// One drained journal entry, plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the journal epoch, strictly increasing per thread.
    pub ts_ns: u64,
    /// Journal thread id of the emitting thread.
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which instrumentation site or sample series.
    pub name: EventName,
    /// Payload: sample value, instant argument, or span annotation.
    pub arg: u64,
}

/// The ring, also after a holder panicked: no operation on it can leave it
/// inconsistent, and span guards emit from `Drop`, where a panic aborts.
fn ring() -> MutexGuard<'static, VecDeque<Event>> {
    JOURNAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one event if the journal is enabled; otherwise one relaxed load.
#[inline]
pub fn emit(kind: EventKind, name: EventName, arg: u64) {
    if !events_enabled() {
        return;
    }
    emit_at(kind, name, arg, Instant::now());
}

/// Records one event that happened at `at`, unconditionally (the span
/// guard uses this so a span opened while enabled still closes if the
/// journal is switched off mid-span).
pub(crate) fn emit_at(kind: EventKind, name: EventName, arg: u64, at: Instant) {
    let ts = LAST_TS.with(|last| {
        let ts = stamp(at).max(last.get() + 1);
        last.set(ts);
        ts
    });
    let event = Event {
        ts_ns: ts,
        tid: current_thread_id(),
        kind,
        name,
        arg,
    };
    let mut ring = ring();
    if ring.len() == CAPACITY {
        ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(event);
}

/// Records an instant event.
#[inline]
pub fn instant(name: EventName, arg: u64) {
    emit(EventKind::Instant, name, arg);
}

/// Records a time-series sample of `value` for the series `name`.
#[inline]
pub fn sample(name: EventName, value: u64) {
    emit(EventKind::Sample, name, value);
}

/// Opens a journal span that no [`Timer`](crate::Timer) measures: emits
/// [`EventKind::SpanBegin`] now (if enabled) and the matching
/// [`EventKind::SpanEnd`] when the guard closes, including during a panic
/// unwind. [`Span::finish`] returns its length.
#[inline]
pub fn span(name: EventName) -> Span<'static> {
    Span::open(None, name, 0)
}

/// Sets the sampling interval of [`batch_tick`] in batches (`0` disables).
pub fn set_sample_every(batches: u64) {
    SAMPLE_EVERY.store(batches, Ordering::Relaxed);
}

/// The current [`batch_tick`] sampling interval in batches.
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Batch heartbeat, called by the simulation drivers once per decoded
/// batch. Every [`sample_every`]-th batch it samples the pipeline's gauge
/// counters into the journal, so long runs produce throughput-over-time
/// curves. Costs one relaxed load when the journal is off.
#[inline]
pub fn batch_tick() {
    if !events_enabled() {
        return;
    }
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return;
    }
    let ticks = BATCH_TICKS.fetch_add(1, Ordering::Relaxed) + 1;
    if ticks.is_multiple_of(every) {
        sample_pipeline();
    }
}

/// Samples the cumulative pipeline counters as one time-series point.
pub fn sample_pipeline() {
    let p = crate::pipeline();
    sample(EventName::SampleSimRecords, p.sim.records.get());
    sample(EventName::SampleSimInstructions, p.sim.instructions.get());
    sample(
        EventName::SamplePacketsDecoded,
        p.trace.packets_decoded.get(),
    );
    sample(
        EventName::SampleInflatedBytes,
        p.compress.inflated_bytes.get(),
    );
}

/// Events lost to ring wrap-around since the last [`clear`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Copies every retained event out of the journal, ordered by thread id and
/// then by timestamp. The journal is not cleared; concurrent writers wait
/// for the copy.
pub fn drain() -> Vec<Event> {
    let mut out: Vec<Event> = ring().iter().copied().collect();
    out.sort_by_key(|e| (e.tid, e.ts_ns));
    out
}

/// Empties the ring and zeroes the dropped-event and batch-tick counters.
/// Call between phases (or tests) that want a journal of their own; does
/// not touch the enable switches or the sampling interval.
pub fn clear() {
    ring().clear();
    DROPPED.store(0, Ordering::Relaxed);
    BATCH_TICKS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_and_name_round_trips_through_its_byte() {
        for (i, &(kind, id)) in EventKind::TABLE.iter().enumerate() {
            assert_eq!((kind as usize, kind.as_str()), (i, id));
        }
        for (i, &(name, id)) in EventName::TABLE.iter().enumerate() {
            assert_eq!((name as usize, name.as_str()), (i, id));
        }
        let mut ids: Vec<&str> = EventName::TABLE.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EventName::TABLE.len(), "names are distinct");
    }
}
