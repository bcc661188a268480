//! Live per-predictor status for the telemetry plane.
//!
//! A [`SweepStatusBoard`] is a fixed set of lock-free slots, one per
//! predictor, that the sweep machinery publishes lifecycle transitions and
//! progress counters into while a serving thread (the `/snapshot` endpoint)
//! reads them with relaxed loads. Nothing here synchronizes readers with
//! writers beyond the atomics themselves: a snapshot is a statistically
//! consistent view, which is all a dashboard needs.
//!
//! Progress counters come from the driver itself: a run whose
//! [`SimConfig::status`](crate::SimConfig::status) names a slot scores each
//! batch's prediction bits once and publishes the batch's live instruction,
//! branch and misprediction counts, plus the worst branch of its exact
//! per-branch counts so far, into it. Without a slot nothing is published
//! and the scoring loop is untouched.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Lifecycle of one predictor within a sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PredictorState {
    /// Waiting in the work queue.
    Queued = 0,
    /// Claimed by a worker and admitted by the memory budget.
    Admitted = 1,
    /// Simulation in progress.
    Running = 2,
    /// Finished with a result on the leaderboard.
    Settled = 3,
    /// Finished with a failure (panic, trace error, deadline, budget).
    Failed = 4,
    /// Never started: a shutdown drain parked it.
    NotRun = 5,
}

impl PredictorState {
    /// Stable string form used in snapshot JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            PredictorState::Queued => "queued",
            PredictorState::Admitted => "admitted",
            PredictorState::Running => "running",
            PredictorState::Settled => "settled",
            PredictorState::Failed => "failed",
            PredictorState::NotRun => "not_run",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => PredictorState::Admitted,
            2 => PredictorState::Running,
            3 => PredictorState::Settled,
            4 => PredictorState::Failed,
            5 => PredictorState::NotRun,
            _ => PredictorState::Queued,
        }
    }
}

/// One predictor's live counters.
#[derive(Debug)]
struct StatusSlot {
    name: String,
    state: AtomicU8,
    /// Progress heartbeat: one tick per processed batch.
    epoch: AtomicU64,
    /// Instructions retired so far.
    instructions: AtomicU64,
    /// Conditional branches predicted so far.
    conditional: AtomicU64,
    /// Mispredicted conditional branches so far.
    mispredictions: AtomicU64,
    /// Address of the branch with the most mispredictions so far.
    worst_ip: AtomicU64,
    /// Misprediction count of that branch; zero means there is none yet.
    /// The pair is two relaxed stores, so a reader can see a torn (ip,
    /// count) combination for one scrape; acceptable for a dashboard
    /// drill-down.
    worst_mispredictions: AtomicU64,
}

/// Plain-data copy of one slot, as read by the snapshot endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictorStatus {
    /// The predictor's display name.
    pub name: String,
    /// Current lifecycle state.
    pub state: PredictorState,
    /// Batches processed so far.
    pub epoch: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Conditional branches predicted so far.
    pub conditional_branches: u64,
    /// Mispredicted conditional branches so far.
    pub mispredictions: u64,
    /// The `(ip, mispredictions)` branch with the most measured
    /// mispredictions so far, ties toward the lower address; `None` before
    /// the first. Once the run ends it is the first `most_failed` entry.
    pub worst_branch: Option<(u64, u64)>,
}

impl PredictorStatus {
    /// Live mispredictions-per-kilo-instruction, or zero before any
    /// instruction retired.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// A fixed board of per-predictor status slots, shared between the sweep's
/// workers (writers) and the telemetry server (reader).
#[derive(Debug, Default)]
pub struct SweepStatusBoard {
    slots: Vec<StatusSlot>,
}

impl SweepStatusBoard {
    /// Creates a board with one `Queued` slot per name, in the given order.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            slots: names
                .into_iter()
                .map(|name| StatusSlot {
                    name: name.into(),
                    state: AtomicU8::new(PredictorState::Queued as u8),
                    epoch: AtomicU64::new(0),
                    instructions: AtomicU64::new(0),
                    conditional: AtomicU64::new(0),
                    mispredictions: AtomicU64::new(0),
                    worst_ip: AtomicU64::new(0),
                    worst_mispredictions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the board has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Publishes a lifecycle transition. Out-of-range indices are ignored
    /// (status is advisory; it must never take down a worker).
    pub fn set_state(&self, index: usize, state: PredictorState) {
        if let Some(slot) = self.slots.get(index) {
            slot.state.store(state as u8, Ordering::Relaxed);
        }
    }

    /// Overwrites the progress counters with final, settle-time totals so
    /// the dashboard converges on the reported metrics.
    pub fn set_totals(&self, index: usize, instructions: u64, mispredictions: u64) {
        if let Some(slot) = self.slots.get(index) {
            slot.instructions.store(instructions, Ordering::Relaxed);
            slot.mispredictions.store(mispredictions, Ordering::Relaxed);
        }
    }

    /// Publishes the predictor's current worst branch (called by the driver
    /// once per batch).
    pub fn set_worst_branch(&self, index: usize, ip: u64, mispredictions: u64) {
        if let Some(slot) = self.slots.get(index) {
            slot.worst_ip.store(ip, Ordering::Relaxed);
            slot.worst_mispredictions
                .store(mispredictions, Ordering::Relaxed);
        }
    }

    /// Adds one batch worth of progress (called by the driver).
    fn add_progress(&self, index: usize, instructions: u64, conditional: u64, mispredicted: u64) {
        if let Some(slot) = self.slots.get(index) {
            slot.epoch.fetch_add(1, Ordering::Relaxed);
            slot.instructions.fetch_add(instructions, Ordering::Relaxed);
            slot.conditional.fetch_add(conditional, Ordering::Relaxed);
            slot.mispredictions
                .fetch_add(mispredicted, Ordering::Relaxed);
        }
    }

    /// A statistically consistent copy of every slot, in creation order.
    pub fn snapshot(&self) -> Vec<PredictorStatus> {
        self.slots
            .iter()
            .map(|s| PredictorStatus {
                name: s.name.clone(),
                state: PredictorState::from_u8(s.state.load(Ordering::Relaxed)),
                epoch: s.epoch.load(Ordering::Relaxed),
                instructions: s.instructions.load(Ordering::Relaxed),
                conditional_branches: s.conditional.load(Ordering::Relaxed),
                mispredictions: s.mispredictions.load(Ordering::Relaxed),
                worst_branch: match s.worst_mispredictions.load(Ordering::Relaxed) {
                    0 => None,
                    count => Some((s.worst_ip.load(Ordering::Relaxed), count)),
                },
            })
            .collect()
    }
}

/// The driver's side of one status slot. While the driver scores a batch
/// it adds the batch's progress here; [`publish`](Self::publish) hands it
/// and the worst branch so far to the board once per batch, keeping the
/// atomics off the scoring loop.
pub(crate) struct StatusFeed {
    board: Arc<SweepStatusBoard>,
    slot: usize,
    /// Unpublished `(instructions, conditional branches, mispredictions)`.
    pending: (u64, u64, u64),
}

impl StatusFeed {
    pub(crate) fn new(board: Arc<SweepStatusBoard>, slot: usize) -> Self {
        Self {
            board,
            slot,
            pending: (0, 0, 0),
        }
    }

    /// Adds a scored piece of the current batch.
    pub(crate) fn add(&mut self, instructions: u64, conditional: u64, mispredictions: u64) {
        self.pending.0 += instructions;
        self.pending.1 += conditional;
        self.pending.2 += mispredictions;
    }

    /// Publishes the batch: one progress tick, plus the worst branch
    /// `(ip, mispredictions)` once there is one.
    pub(crate) fn publish(&mut self, worst: Option<(u64, u64)>) {
        let (instructions, conditional, mispredictions) = std::mem::take(&mut self.pending);
        self.board
            .add_progress(self.slot, instructions, conditional, mispredictions);
        if let Some((ip, mispredictions)) = worst {
            self.board.set_worst_branch(self.slot, ip, mispredictions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, ForensicsConfig, Predictor, SimConfig, SliceSource, BATCH_RECORDS};
    use mbp_trace::{Branch, BranchRecord, Opcode};

    struct AlwaysTaken;

    impl Predictor for AlwaysTaken {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
    }

    fn record(ip: u64, opcode: Opcode, taken: bool) -> BranchRecord {
        BranchRecord::new(Branch::new(ip, 0x90, opcode, taken), 4)
    }

    fn mixed_records() -> Vec<BranchRecord> {
        // Three conditionals (taken, not-taken, taken) and one jump, with
        // 4 gap instructions each: 4 * (4 + 1) = 20 instructions.
        vec![
            record(0x10, Opcode::conditional_direct(), true),
            record(0x20, Opcode::conditional_direct(), false),
            record(0x30, Opcode::unconditional_direct(), true),
            record(0x40, Opcode::conditional_direct(), true),
        ]
    }

    /// Runs `records` through an always-taken predictor publishing into
    /// slot 0 of a fresh board.
    fn run(
        records: &[BranchRecord],
        config: SimConfig,
    ) -> (Arc<SweepStatusBoard>, crate::SimResult) {
        let board = Arc::new(SweepStatusBoard::new(["always"]));
        let config = SimConfig {
            status: Some((Arc::clone(&board), 0)),
            ..config
        };
        let result = simulate(&mut SliceSource::new(records), &mut AlwaysTaken, &config)
            .expect("in-memory run");
        (board, result)
    }

    #[test]
    fn board_tracks_lifecycle_and_lookup() {
        let board = SweepStatusBoard::new(["a", "b"]);
        assert_eq!(board.len(), 2);
        board.set_state(1, PredictorState::Running);
        board.set_state(99, PredictorState::Failed); // ignored, no panic
        let snap = board.snapshot();
        assert_eq!(snap[0].state, PredictorState::Queued);
        assert_eq!(snap[1].state, PredictorState::Running);
        assert_eq!(snap[1].name, "b");
    }

    #[test]
    fn driver_counts_batch_progress_into_the_slot() {
        let (board, _) = run(&mixed_records(), SimConfig::default());
        let s = &board.snapshot()[0];
        assert_eq!(s.epoch, 1, "one tick per batch");
        assert_eq!(s.instructions, 20);
        assert_eq!(s.conditional_branches, 3);
        // Always-taken misses only the single not-taken conditional.
        assert_eq!(s.mispredictions, 1);
        assert!((s.mpki() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn live_counts_equal_the_result_before_settling() {
        // Several batches, a time series and no warm-up: every record is
        // measured, so the live counters must already equal the result
        // before any settle-time `set_totals` overwrites them.
        let records: Vec<BranchRecord> = (0..2 * BATCH_RECORDS as u64 + 77)
            .map(|i| match i % 5 {
                0 => record(0x100 + i % 64, Opcode::unconditional_direct(), true),
                k => record(0x200 + i % 128, Opcode::conditional_direct(), k != 3),
            })
            .collect();
        let (board, r) = run(
            &records,
            SimConfig {
                timeseries_window: Some(1_000),
                ..SimConfig::default()
            },
        );
        let s = &board.snapshot()[0];
        assert_eq!(s.epoch, 3);
        assert_eq!(s.instructions, r.metadata.simulation_instr);
        assert_eq!(s.conditional_branches, r.metadata.num_conditional_branches);
        assert_eq!(s.mispredictions, r.metrics.mispredictions);
    }

    #[test]
    fn blame_loop_counts_like_the_kernel_path() {
        let records = mixed_records();
        let (kernel, _) = run(&records, SimConfig::default());
        let (blame, _) = run(
            &records,
            SimConfig {
                forensics: Some(ForensicsConfig::default()),
                ..SimConfig::default()
            },
        );
        assert_eq!(kernel.snapshot(), blame.snapshot());
    }

    #[test]
    fn driver_publishes_worst_branch() {
        // 0x20 misses once; then 0x50 misses twice and overtakes it.
        let mut records = mixed_records();
        let (board, _) = run(&records, SimConfig::default());
        assert_eq!(board.snapshot()[0].worst_branch, Some((0x20, 1)));
        records.extend([record(0x50, Opcode::conditional_direct(), false); 2]);
        let (board, _) = run(&records, SimConfig::default());
        assert_eq!(board.snapshot()[0].worst_branch, Some((0x50, 2)));
        let (board, _) = run(&[], SimConfig::default());
        assert_eq!(board.snapshot()[0].worst_branch, None);
    }

    #[test]
    fn a_worst_branch_at_the_top_address_is_published() {
        // The board's worst branch exists exactly when its count is
        // non-zero, so no address stands for "none yet".
        let records = [record(u64::MAX, Opcode::conditional_direct(), false); 3];
        let (board, r) = run(&records, SimConfig::default());
        assert_eq!(board.snapshot()[0].worst_branch, Some((u64::MAX, 3)));
        assert_eq!(
            (r.most_failed[0].ip, r.most_failed[0].mispredictions),
            (u64::MAX, 3)
        );
    }

    #[test]
    fn settled_worst_branch_is_the_first_most_failed_entry() {
        // 0x60 misses through a warm-up longer than a batch and rarely
        // after it; 0x70 misses only once measured. The worst branch counts
        // measured mispredictions only, like `most_failed`.
        let conditional = |ip, taken| record(ip, Opcode::conditional_direct(), taken);
        let warmup = BATCH_RECORDS + 100;
        let mut records = vec![conditional(0x60, false); warmup];
        records.extend((0..3000).map(|i| match i % 3 {
            0 => conditional(0x70, false),
            1 => conditional(0x60, i % 10 != 1),
            _ => conditional(0x80, true),
        }));
        let (board, r) = run(
            &records,
            SimConfig {
                warmup_instructions: 5 * warmup as u64,
                ..SimConfig::default()
            },
        );
        let first = &r.most_failed[0];
        assert_eq!((first.ip, first.mispredictions), (0x70, 1000));
        assert_eq!(
            board.snapshot()[0].worst_branch,
            Some((first.ip, first.mispredictions))
        );
    }

    #[test]
    fn settle_totals_overwrite_live_counters() {
        let board = SweepStatusBoard::new(["a"]);
        board.add_progress(0, 10, 5, 2);
        board.set_totals(0, 1000, 7);
        board.set_state(0, PredictorState::Settled);
        let s = &board.snapshot()[0];
        assert_eq!(s.instructions, 1000);
        assert_eq!(s.mispredictions, 7);
        assert_eq!(s.state.as_str(), "settled");
    }
}
