//! Live per-predictor status for the telemetry plane.
//!
//! A [`SweepStatusBoard`] is a fixed set of lock-free slots, one per
//! predictor, read by a serving thread (the `/snapshot` endpoint) with
//! relaxed loads: a snapshot is a statistically consistent view, which is
//! all a dashboard needs.
//!
//! Each slot is a view of its own run, with one writer while it runs and
//! one when it settles. A run whose [`SimConfig::status`] names a slot
//! stores the measured totals its driver keeps (instructions, conditional
//! branches, mispredictions, their MPKI and the worst branch so far) once
//! per batch, so warm-up records never enter the row, though its epoch
//! ticks. [`SweepStatusBoard::settle`] then stores the run's document:
//! a settled row equals its result, sampled and resumed rows included.
//!
//! [`SimConfig::status`]: crate::SimConfig::status

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::metrics::mpki;
use crate::SimResult;

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

/// One predictor's live counters; all zero, and `Queued`, by default.
#[derive(Debug, Default)]
struct StatusSlot {
    name: String,
    state: AtomicU8,
    /// Progress heartbeat: one tick per processed batch.
    epoch: AtomicU64,
    instructions: AtomicU64,
    conditional: AtomicU64,
    mispredictions: AtomicU64,
    /// The MPKI's `f64` bits.
    mpki: AtomicU64,
    /// Address of the branch with the most mispredictions.
    worst_ip: AtomicU64,
    /// Misprediction count of that branch; zero means there is none yet.
    /// The pair is two relaxed stores, so a reader can see a torn (ip,
    /// count) combination for one scrape; acceptable for a dashboard
    /// drill-down.
    worst_mispredictions: AtomicU64,
}

impl StatusSlot {
    /// Stores one view of the run's totals.
    fn store(
        &self,
        instructions: u64,
        conditional: u64,
        mispredictions: u64,
        mpki: f64,
        worst: Option<(u64, u64)>,
    ) {
        let (ip, count) = worst.unwrap_or((0, 0));
        self.instructions.store(instructions, Ordering::Relaxed);
        self.conditional.store(conditional, Ordering::Relaxed);
        self.mispredictions.store(mispredictions, Ordering::Relaxed);
        self.mpki.store(mpki.to_bits(), Ordering::Relaxed);
        self.worst_ip.store(ip, Ordering::Relaxed);
        self.worst_mispredictions.store(count, Ordering::Relaxed);
    }
}

/// Plain-data copy of one slot, as read by the snapshot endpoint: the
/// run's measured totals so far, or its document's once settled.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictorStatus {
    /// The predictor's display name.
    pub name: String,
    /// Current lifecycle state.
    pub state: PredictorState,
    /// Batches processed so far, warm-up included.
    pub epoch: u64,
    /// Measured instructions (`metadata.simulation_instr`).
    pub instructions: u64,
    /// Measured conditional branches (`num_conditional_branches`).
    pub conditional_branches: u64,
    /// Measured mispredictions (`metrics.mispredictions`).
    pub mispredictions: u64,
    /// `metrics.mpki`: a sampled row shows its measured MPKI while it runs
    /// and the reconstructed one once settled.
    pub mpki: f64,
    /// The `(ip, mispredictions)` branch with the most measured
    /// mispredictions so far, ties toward the lower address; `None` before
    /// the first. Once settled it is the first `most_failed` entry.
    pub worst_branch: Option<(u64, u64)>,
}

/// A fixed board of per-predictor status slots, shared between the runs
/// that write them and the telemetry server that reads them.
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
            slots: (names.into_iter())
                .map(|name| StatusSlot {
                    name: name.into(),
                    ..StatusSlot::default()
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

    /// Publishes a lifecycle transition. The store is a release that pairs
    /// with [`snapshot`](Self::snapshot)'s acquire load, so a scrape that
    /// reads a state also reads every total stored before it. Out-of-range
    /// indices are ignored (status is advisory; it must never take down a
    /// worker).
    pub fn set_state(&self, index: usize, state: PredictorState) {
        if let Some(slot) = self.slots.get(index) {
            slot.state.store(state as u8, Ordering::Release);
        }
    }

    /// Settles slot `index` on `result`: stores its document's
    /// `simulation_instr`, `num_conditional_branches`, `mispredictions`,
    /// `mpki` and first `most_failed` entry, then the `Settled` state.
    pub fn settle(&self, index: usize, result: &SimResult) {
        if let Some(slot) = self.slots.get(index) {
            let worst = (result.most_failed.first()).map(|b| (b.ip, b.mispredictions));
            slot.store(
                result.metadata.simulation_instr,
                result.metadata.num_conditional_branches,
                result.metrics.mispredictions,
                result.metrics.mpki,
                worst,
            );
            self.set_state(index, PredictorState::Settled);
        }
    }

    /// Stores a running slot's measured totals and worst branch so far and
    /// ticks its epoch (called by the driver once per batch).
    pub(crate) fn publish(
        &self,
        index: usize,
        instructions: u64,
        conditional: u64,
        mispredictions: u64,
        worst: Option<(u64, u64)>,
    ) {
        if let Some(slot) = self.slots.get(index) {
            slot.epoch.fetch_add(1, Ordering::Relaxed);
            let mpki = mpki(mispredictions, instructions);
            slot.store(instructions, conditional, mispredictions, mpki, worst);
        }
    }

    /// A statistically consistent copy of every slot, in creation order;
    /// a `Settled` row carries its settled totals.
    pub fn snapshot(&self) -> Vec<PredictorStatus> {
        self.slots
            .iter()
            .map(|s| PredictorStatus {
                name: s.name.clone(),
                state: PredictorState::from_u8(s.state.load(Ordering::Acquire)),
                epoch: s.epoch.load(Ordering::Relaxed),
                instructions: s.instructions.load(Ordering::Relaxed),
                conditional_branches: s.conditional.load(Ordering::Relaxed),
                mispredictions: s.mispredictions.load(Ordering::Relaxed),
                mpki: f64::from_bits(s.mpki.load(Ordering::Relaxed)),
                worst_branch: match s.worst_mispredictions.load(Ordering::Relaxed) {
                    0 => None,
                    count => Some((s.worst_ip.load(Ordering::Relaxed), count)),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, ForensicsConfig, Predictor, SimConfig, SliceSource, BATCH_RECORDS};
    use mbp_trace::{Branch, BranchRecord, Opcode};
    use std::sync::Arc;

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
        assert!((s.mpki - 50.0).abs() < 1e-9);
    }

    #[test]
    fn live_counts_equal_the_result_before_settling() {
        // Several batches and a time series: the live counters already
        // equal the result before anything settles the slot.
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
    fn live_counts_leave_out_a_warm_up_longer_than_a_batch() {
        // The warm-up spans more than one batch, so its records reach the
        // slot in batches of their own and in the batch that crosses the
        // boundary; none may enter the row, as none enter the result.
        let records: Vec<BranchRecord> = (0..3 * BATCH_RECORDS as u64)
            .map(|i| record(0x200 + i % 96, Opcode::conditional_direct(), i % 7 != 0))
            .collect();
        let (board, r) = run(
            &records,
            SimConfig {
                warmup_instructions: 5 * (BATCH_RECORDS as u64 + 100),
                ..SimConfig::default()
            },
        );
        let s = &board.snapshot()[0];
        assert_eq!(s.state, PredictorState::Queued, "nothing settled the slot");
        assert_eq!(s.epoch, 3, "warm-up batches still tick");
        assert_eq!(s.instructions, r.metadata.simulation_instr);
        assert_eq!(s.conditional_branches, r.metadata.num_conditional_branches);
        assert_eq!(s.mispredictions, r.metrics.mispredictions);
        assert_eq!(s.mpki, r.metrics.mpki);
        assert!(r.metadata.simulation_instr < 5 * records.len() as u64);
    }

    #[test]
    fn settle_stores_the_document_over_the_live_counters() {
        // A sampled document's headline numbers are not the driver's
        // totals; a settled row shows the document's, first `most_failed`
        // entry included.
        let (board, mut r) = run(&mixed_records(), SimConfig::default());
        r.metadata.simulation_instr = 1000;
        r.metadata.num_conditional_branches = 5;
        r.metrics.mispredictions = 7;
        r.metrics.mpki = 0.25;
        r.most_failed[0].ip = 0x99;
        board.settle(0, &r);
        board.settle(7, &r); // ignored, no panic
        let s = &board.snapshot()[0];
        assert_eq!(s.state, PredictorState::Settled);
        assert_eq!(s.epoch, 1, "settling is not a batch");
        assert_eq!(
            (
                s.instructions,
                s.conditional_branches,
                s.mispredictions,
                s.mpki
            ),
            (1000, 5, 7, 0.25)
        );
        assert_eq!(s.worst_branch, Some((0x99, 1)));
        r.most_failed.clear();
        board.settle(0, &r);
        assert_eq!(board.snapshot()[0].worst_branch, None);
    }
}
