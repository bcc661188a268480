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
//! * **Lock-free, sharded rings.** Events land in one of [`SHARDS`] ring
//!   buffers selected by thread id, so sweep workers never contend on a
//!   lock. Writers claim a slot with one `fetch_add` and publish it with a
//!   release store of a per-slot sequence word; a concurrent drain detects
//!   torn or in-flight slots via that sequence and skips them.
//! * **Drop-oldest.** Each shard holds [`SHARD_CAPACITY`] events; when a
//!   ring wraps, the oldest events are overwritten and
//!   [`dropped_events`] counts every casualty. A long run therefore keeps
//!   its most recent window — the part a timeline viewer needs to explain
//!   "what was happening when it got slow".
//! * **Monotonic timestamps.** Timestamps are nanoseconds since the first
//!   enable ([`set_events_enabled`]), taken from [`Instant`], and bumped to
//!   be strictly increasing per shard, so per-thread event order is always
//!   reconstructible. A span's begin and end events carry the clock reads
//!   its timer measured, so the journal's span lengths add up to the
//!   timers.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::Span;

/// Number of ring-buffer shards. Threads map to shards by id, so any
/// realistic worker pool (sweeps cap at the core count) gets a private ring.
pub const SHARDS: usize = 32;

/// Events retained per shard before the ring wraps and drops oldest.
pub const SHARD_CAPACITY: usize = 2048;

/// Default sampling interval for [`batch_tick`], in batches. At the SBBT
/// block size of 2048 records this samples roughly every 128k records.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Journal opt-in switch.
static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);

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
}

/// The calling thread's journal id (stable for the thread's lifetime).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Enables or disables event recording process-wide. The first enable pins
/// the timestamp epoch; timestamps from all later sessions share it, so
/// events from separate phases of one process remain comparable.
pub fn set_events_enabled(enabled: bool) {
    if enabled {
        let _ = EPOCH.get_or_init(Instant::now);
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

/// Declares a journal enum: one byte per value, counted from zero in
/// declaration order, and each value's stable identifier, in the one table
/// that both directions of the byte encoding and [`as_str`](EventName::as_str)
/// read.
macro_rules! journal_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$doc:meta])* $variant:ident => $id:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            const TABLE: &'static [(Self, &'static str)] = &[$((Self::$variant, $id),)*];

            fn from_u8(v: u8) -> Option<Self> {
                Self::TABLE.get(usize::from(v)).map(|&(value, _)| value)
            }

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
    /// of any lookup: a name is one byte in the packed event word.
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
    /// Nanoseconds since the journal epoch, strictly increasing per shard.
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

/// One ring slot: a sequence word for publication/tear detection plus the
/// three event words. `seq == 0` means never written; `seq == n` means the
/// slot holds the shard's `n`-th event (1-based) in full.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    meta: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

/// One ring buffer. `head` counts events ever written to this shard; the
/// slot for event `h` is `h % SHARD_CAPACITY`.
struct Shard {
    head: AtomicU64,
    last_ts: AtomicU64,
    slots: [Slot; SHARD_CAPACITY],
}

impl Shard {
    const fn new() -> Self {
        Self {
            head: AtomicU64::new(0),
            last_ts: AtomicU64::new(0),
            slots: [const { Slot::new() }; SHARD_CAPACITY],
        }
    }

    /// `now`, bumped to be strictly increasing within this shard (ties are
    /// bumped by a nanosecond).
    fn next_ts(&self, now: u64) -> u64 {
        let prev = self.last_ts.fetch_max(now, Ordering::Relaxed);
        if prev >= now {
            let bumped = prev + 1;
            self.last_ts.fetch_max(bumped, Ordering::Relaxed);
            bumped
        } else {
            now
        }
    }
}

static JOURNAL: [Shard; SHARDS] = [const { Shard::new() }; SHARDS];

/// Packs kind, name and thread id into one event word.
fn pack_meta(kind: EventKind, name: EventName, tid: u64) -> u64 {
    (tid << 16) | ((name as u64) << 8) | kind as u64
}

/// Inverse of [`pack_meta`]; `None` for torn or foreign words.
fn unpack_meta(meta: u64) -> Option<(EventKind, EventName, u64)> {
    let kind = EventKind::from_u8((meta & 0xFF) as u8)?;
    let name = EventName::from_u8(((meta >> 8) & 0xFF) as u8)?;
    Some((kind, name, meta >> 16))
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
    let tid = current_thread_id();
    let shard = &JOURNAL[(tid as usize) % SHARDS];
    let ts = shard.next_ts(stamp(at));
    let h = shard.head.fetch_add(1, Ordering::Relaxed);
    if h >= SHARD_CAPACITY as u64 {
        // This write overwrites the shard's oldest retained event.
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    let slot = &shard.slots[(h % SHARD_CAPACITY as u64) as usize];
    // Publication protocol: invalidate, write fields, publish with the
    // 1-based sequence. A drain that observes seq != h+1 (or a changed seq
    // across its field reads) skips the slot instead of reporting torn data.
    slot.seq.store(0, Ordering::Release);
    slot.ts.store(ts, Ordering::Relaxed);
    slot.meta
        .store(pack_meta(kind, name, tid), Ordering::Relaxed);
    slot.arg.store(arg, Ordering::Relaxed);
    slot.seq.store(h + 1, Ordering::Release);
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
/// then by timestamp. The journal is not cleared; concurrent writers are
/// tolerated (in-flight or overwritten slots are skipped, never torn).
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for shard in &JOURNAL {
        let head = shard.head.load(Ordering::Acquire);
        let retained = head.min(SHARD_CAPACITY as u64);
        for h in head - retained..head {
            let slot = &shard.slots[(h % SHARD_CAPACITY as u64) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != h + 1 {
                continue; // in-flight, overwritten, or never completed
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten while reading: discard, don't tear
            }
            if let Some((kind, name, tid)) = unpack_meta(meta) {
                out.push(Event {
                    ts_ns: ts,
                    tid,
                    kind,
                    name,
                    arg,
                });
            }
        }
    }
    out.sort_by_key(|e| (e.tid, e.ts_ns));
    out
}

/// Empties every shard and zeroes the dropped-event and batch-tick
/// counters. Call between phases (or tests) that want a journal of their
/// own; does not touch the enable switches or the sampling interval.
pub fn clear() {
    for shard in &JOURNAL {
        for slot in &shard.slots {
            slot.seq.store(0, Ordering::Release);
        }
        shard.head.store(0, Ordering::Release);
        shard.last_ts.store(0, Ordering::Relaxed);
    }
    DROPPED.store(0, Ordering::Relaxed);
    BATCH_TICKS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_and_name_round_trips_through_its_byte() {
        for (i, &(kind, id)) in EventKind::TABLE.iter().enumerate() {
            let read = (kind as usize, EventKind::from_u8(i as u8), kind.as_str());
            assert_eq!(read, (i, Some(kind), id));
        }
        for (i, &(name, id)) in EventName::TABLE.iter().enumerate() {
            let read = (name as usize, EventName::from_u8(i as u8), name.as_str());
            assert_eq!(read, (i, Some(name), id));
        }
        assert_eq!(EventKind::from_u8(EventKind::TABLE.len() as u8), None);
        assert_eq!(EventName::from_u8(EventName::TABLE.len() as u8), None);
        let mut ids: Vec<&str> = EventName::TABLE.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EventName::TABLE.len(), "names are distinct");
    }
}
