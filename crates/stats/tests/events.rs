//! Integration tests for the event journal's ring-buffer semantics.
//!
//! The journal is process-global, so every test takes the same lock, clears
//! the journal while holding it, and filters drained events down to its own
//! thread id — concurrent test threads (which hold the lock before emitting
//! anything themselves) can never pollute an assertion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use mbp_stats::events::{self, Event, EventKind, EventName, CAPACITY};

/// Serializes journal tests and arms the journal for the guard's lifetime.
fn journal_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    events::set_events_enabled(true);
    events::clear();
    guard
}

/// Drained events emitted by the calling thread.
fn my_events() -> Vec<Event> {
    let tid = events::current_thread_id();
    events::drain()
        .into_iter()
        .filter(|e| e.tid == tid)
        .collect()
}

#[test]
fn wrap_around_drops_oldest_and_counts_casualties() {
    let _guard = journal_lock();
    const OVERFLOW: u64 = 100;
    let total = CAPACITY as u64 + OVERFLOW;
    for i in 0..total {
        events::instant(EventName::SweepPredictorDone, i);
    }

    let mine = my_events();
    assert_eq!(
        mine.len(),
        CAPACITY,
        "a full ring retains exactly its capacity"
    );
    // Drop-oldest: the survivors are precisely the newest CAPACITY
    // arguments, in emission order.
    let args: Vec<u64> = mine.iter().map(|e| e.arg).collect();
    let expected: Vec<u64> = (OVERFLOW..total).collect();
    assert_eq!(args, expected, "oldest events were overwritten first");
    assert_eq!(
        events::dropped_events(),
        OVERFLOW,
        "every overwritten event is counted"
    );
}

#[test]
fn one_thread_keeps_all_of_three_thousand_events() {
    let _guard = journal_lock();
    for i in 0..3_000 {
        events::instant(EventName::SweepPredictorDone, i);
    }
    let args: Vec<u64> = my_events().iter().map(|e| e.arg).collect();
    assert_eq!(args, (0..3_000).collect::<Vec<u64>>(), "all kept, in order");
    assert_eq!(events::dropped_events(), 0);
}

/// Checks a drain of [`concurrent_writers_and_a_draining_reader`]'s
/// journal: every event is one the writers emitted, and within each
/// thread (drains group by thread) arguments and timestamps rise.
fn check_writers_drain(drained: &[Event]) {
    for e in drained {
        assert_eq!(
            (e.kind, e.name),
            (EventKind::Instant, EventName::SweepPredictorDone)
        );
    }
    for pair in drained.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.tid == b.tid {
            assert!(b.arg > a.arg, "arguments out of order: {a:?} {b:?}");
            assert!(b.ts_ns > a.ts_ns, "timestamps out of order: {a:?} {b:?}");
        }
    }
}

#[test]
fn concurrent_writers_and_a_draining_reader() {
    let _guard = journal_lock();
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 25_000;
    let stop = AtomicBool::new(false);
    // Writers and reader start together, so the drains overlap the writes.
    let start = Barrier::new(WRITERS as usize + 1);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            loop {
                let done = stop.load(Ordering::Relaxed);
                check_writers_drain(&events::drain());
                if done {
                    break;
                }
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        events::instant(EventName::SweepPredictorDone, w << 32 | i);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer runs");
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader runs");
    });
    let drained = events::drain();
    check_writers_drain(&drained);
    assert_eq!(drained.len(), CAPACITY, "the ring holds its capacity");
    assert_eq!(
        drained.len() as u64 + events::dropped_events(),
        WRITERS * PER_WRITER,
        "every eviction is counted"
    );
}

#[test]
fn timestamps_are_strictly_increasing_per_thread() {
    let _guard = journal_lock();
    for _ in 0..64 {
        events::instant(EventName::SweepFault, 0);
    }
    let mine = my_events();
    assert_eq!(mine.len(), 64);
    for pair in mine.windows(2) {
        assert!(
            pair[1].ts_ns > pair[0].ts_ns,
            "ties must be bumped: {} !> {}",
            pair[1].ts_ns,
            pair[0].ts_ns
        );
    }
}

#[test]
fn span_guard_closes_during_panic_unwind() {
    let _guard = journal_lock();
    let result = std::panic::catch_unwind(|| {
        let _span = events::span(EventName::SimSimulate);
        events::instant(EventName::SweepFault, 7);
        panic!("intentional fault for testing");
    });
    assert!(result.is_err(), "the closure really panicked");

    let mine = my_events();
    let begins = mine
        .iter()
        .filter(|e| e.kind == EventKind::SpanBegin && e.name == EventName::SimSimulate)
        .count();
    let ends = mine
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == EventName::SimSimulate)
        .count();
    assert_eq!(begins, 1);
    assert_eq!(ends, 1, "unwind still emits the SpanEnd");
    assert!(mine
        .iter()
        .any(|e| e.kind == EventKind::Instant && e.arg == 7));
}

#[test]
fn disabled_journal_records_nothing() {
    let _guard = journal_lock();
    events::set_events_enabled(false);
    events::instant(EventName::SweepFault, 1);
    {
        let _span = events::span(EventName::SimSimulate);
    }
    events::batch_tick();
    assert!(
        my_events().is_empty(),
        "disabled emits are dropped for free"
    );
    assert_eq!(events::dropped_events(), 0);
    events::set_events_enabled(true);
}

#[test]
fn batch_tick_samples_every_nth_batch() {
    let _guard = journal_lock();
    let before = events::sample_every();
    events::set_sample_every(4);
    for _ in 0..8 {
        events::batch_tick();
    }
    let samples = my_events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Sample)
        .count();
    // Two sampling points, each recording the four pipeline series.
    assert_eq!(samples, 2 * 4);
    events::set_sample_every(before);
}

#[test]
fn clear_resets_events_and_drop_counter() {
    let _guard = journal_lock();
    for i in 0..(CAPACITY as u64 + 5) {
        events::instant(EventName::SweepFault, i);
    }
    assert!(events::dropped_events() > 0);
    events::clear();
    assert!(my_events().is_empty());
    assert_eq!(events::dropped_events(), 0);
}
