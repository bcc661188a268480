//! The standard simulator: replay a trace through one predictor.

use std::ops::Range;
use std::sync::Arc;

use mbp_json::Value;
use mbp_stats::events::{self, EventName};
use mbp_stats::Span;
use mbp_trace::{BranchBatch, TraceError};

use crate::forensics::{self, ForensicsConfig};
use crate::metrics::{accuracy, mpki, BranchStat, BranchTaxonomy, Metrics, MostFailed};
use crate::status::{StatusFeed, SweepStatusBoard};
use crate::timeseries::{TimeSeries, TimeSeriesBuilder};
use crate::{PredictionBits, Predictor, TableProbe, TraceSource};

/// Configuration of a simulation run.
///
/// # Examples
///
/// ```
/// use mbp_core::SimConfig;
///
/// let cfg = SimConfig {
///     warmup_instructions: 10_000_000,
///     max_instructions: Some(100_000_000),
///     ..SimConfig::default()
/// };
/// assert!(cfg.max_instructions.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Instructions whose mispredictions are not counted (§IV-C: "run only
    /// the first n instructions as warm-up").
    pub warmup_instructions: u64,
    /// Stop after this many instructions (`None` = exhaust the trace); the
    /// "first 100 million instructions" methodology of §VII-A.
    pub max_instructions: Option<u64>,
    /// Call `track` only for conditional branches (some predictors ignore
    /// unconditional flow; recorded in the output metadata as in Listing 1).
    pub track_only_conditional: bool,
    /// Maximum entries in the `most_failed` report.
    pub most_failed_limit: usize,
    /// Accumulate windowed time-series telemetry with this window size in
    /// instructions (`None`, the default, disables it). The series reads
    /// the prediction bits `predict_batch` returns, so it keeps the run on
    /// the kernel path.
    pub timeseries_window: Option<u64>,
    /// Capture the predictor's [`TableProbe`] reports at the end of the
    /// run (the `--introspect` flag). Off by default; probes are read once
    /// from the final table state, so this never touches the record loop.
    pub collect_probes: bool,
    /// Keep per-branch misprediction forensics and render the forensic
    /// report (the `mbpsim explain` subcommand). Component blame must be
    /// read right after each `train`, so batches with measured records run
    /// the per-record blame loop instead of `predict_batch`; the default
    /// `None` keeps every batch on the kernel path.
    pub forensics: Option<ForensicsConfig>,
    /// Publish live progress (instructions, conditional branches,
    /// mispredictions, the worst branch so far) into this slot of a status
    /// board, once per batch — the `/snapshot` telemetry row. Progress
    /// counts cover warm-up too; the worst branch is the running maximum
    /// of the exact measured counts `most_failed` reports. The results are
    /// unaffected, and the reference [`simulate_scalar`] ignores the slot.
    pub status: Option<(Arc<SweepStatusBoard>, usize)>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_instructions: 0,
            max_instructions: None,
            track_only_conditional: false,
            most_failed_limit: 20,
            timeseries_window: None,
            collect_probes: false,
            forensics: None,
            status: None,
        }
    }
}

/// The `metadata` section of a result (Listing 1).
#[derive(Clone, Debug)]
pub struct SimMetadata {
    /// Simulator identification.
    pub simulator: &'static str,
    /// Simulator version.
    pub version: &'static str,
    /// Trace description from the source.
    pub trace: Value,
    /// Warm-up instructions configured.
    pub warmup_instr: u64,
    /// Instructions actually simulated (measured window, after warm-up).
    pub simulation_instr: u64,
    /// Whether the trace ended before `max_instructions` was reached.
    pub exhausted_trace: bool,
    /// Dynamic conditional branches measured.
    pub num_conditional_branches: u64,
    /// Distinct static branch instructions observed.
    pub num_branch_instructions: u64,
    /// Whether `track` was limited to conditional branches.
    pub track_only_conditional: bool,
    /// The predictor's self-description.
    pub predictor: Value,
}

/// The complete outcome of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The `metadata` section.
    pub metadata: SimMetadata,
    /// The `metrics` section.
    pub metrics: Metrics,
    /// The predictor's `predictor_statistics` section.
    pub predictor_statistics: Value,
    /// The `most_failed` section.
    pub most_failed: Vec<BranchStat>,
    /// Per-branch misprediction characterization (rendered under
    /// `metrics.branch_taxonomy`).
    pub branch_taxonomy: BranchTaxonomy,
    /// Windowed telemetry (rendered under `metrics.timeseries`); present
    /// only when [`SimConfig::timeseries_window`] was set.
    pub timeseries: Option<TimeSeries>,
    /// Table-health probes (rendered as the `introspection` section);
    /// empty unless [`SimConfig::collect_probes`] was set.
    pub table_probes: Vec<TableProbe>,
    /// Phase-sampling report (rendered as the top-level `simpoint`
    /// section); present only on results produced by
    /// [`simulate_sampled`](crate::simulate_sampled).
    pub sampling: Option<Value>,
    /// Misprediction forensic report (rendered as the top-level
    /// `forensics` section); present only when
    /// [`SimConfig::forensics`] was set.
    pub forensics: Option<Value>,
}

/// Pulls the next batch of `trace` into `batch` and cuts it where the run
/// ends: before the first record that starts at or past instruction `max`.
/// Returns the records kept, the index of the first measured one (the
/// first whose cumulative count ends past `warmup`, so the record crossing
/// the boundary is measured whole), and whether the cut dropped a record —
/// one exists past the cut-off, so the run stops here, and the rest of the
/// trace has been drained ([`TraceSource::drain`]). `retired` is the
/// instruction count before the batch.
pub(crate) fn next_batch<S: TraceSource + ?Sized>(
    trace: &mut S,
    batch: &mut BranchBatch,
    retired: u64,
    warmup: u64,
    max: Option<u64>,
) -> Result<(usize, usize, bool), TraceError> {
    // Time the decode share separately from the whole run; one span per
    // 2048-record block keeps the instrumentation off the record loop.
    let got = {
        let _span = mbp_stats::pipeline().sim.fill_batch.span();
        trace.fill_batch(batch)?
    };
    // Per-batch heartbeat: every N-th batch samples the pipeline gauges
    // into the event journal (throughput-over-time curves).
    events::batch_tick();
    let len = match max {
        Some(max) => std::iter::once(retired)
            .chain(ends(batch.gaps(), retired))
            .take(got)
            .take_while(|&start| start < max)
            .count(),
        None => got,
    };
    if len < got {
        // The run stops here, but the trace is still checked to its end,
        // inside the decode share.
        let _span = mbp_stats::pipeline().sim.fill_batch.span();
        trace.drain()?;
    }
    batch.truncate(len);
    let measured_from = ends(batch.gaps(), retired)
        .take_while(|&end| end <= warmup)
        .count();
    Ok((len, measured_from, len < got))
}

/// The cumulative instruction count at the end of each record, starting
/// from `retired`.
fn ends(gaps: &[u32], retired: u64) -> impl Iterator<Item = u64> + '_ {
    gaps.iter().scan(retired, |at, &g| {
        *at += u64::from(g) + 1;
        Some(*at)
    })
}

/// The forensics path: the default `predict_batch` loop, plus the batch's
/// per-branch bookkeeping: each conditional record from `measured_from` on
/// recorded into `most_failed` with its component blame, read right after
/// its `train` (the only point where [`Predictor::last_mispredict_blame`]
/// is valid), and every other record noted. Recording here, not in the
/// scoring walk, lets the accumulator's updates overlap the predictor's
/// own work and needs no blame column.
fn predict_with_forensics<P: Predictor + ?Sized>(
    predictor: &mut P,
    batch: &BranchBatch,
    track_only_conditional: bool,
    bits: &mut PredictionBits,
    most_failed: &mut MostFailed,
    measured_from: usize,
) {
    for i in 0..batch.len() {
        let branch = batch.branch(i);
        let conditional = branch.is_conditional();
        if conditional {
            let prediction = predictor.predict(branch.ip());
            bits.push(prediction);
            predictor.train(&branch);
            if i >= measured_from {
                let missed = prediction != branch.is_taken();
                let blame = missed.then(|| predictor.last_mispredict_blame()).flatten();
                most_failed.record_forensic(branch.ip(), branch.is_taken(), missed, blame);
            } else {
                most_failed.note_static(branch.ip());
            }
        } else {
            most_failed.note_static(branch.ip());
        }
        if conditional || !track_only_conditional {
            predictor.track(&branch);
        }
    }
}

/// Adds records to the pipeline counters; every record not handed to
/// `predict_batch` counts as a scalar-fallback branch. The batched drivers
/// add each batch as they score it, so the progress line, a `/metrics`
/// scrape and the journal's samples move while a run is under way.
pub(crate) fn count_records(records: u64, kernel_records: u64, instructions: u64) {
    let stats = &mbp_stats::pipeline().sim;
    stats.records.add(records);
    stats.instructions.add(instructions);
    stats.kernel_branches.add(kernel_records);
    stats.scalar_fallback_branches.add(records - kernel_records);
}

/// Counts a run and opens its span, the run's one clock for `sim.simulate`
/// and the journal. It also closes in an unwind, so a predictor panicking
/// under a sweep's `catch_unwind` still pairs its begin and end events.
pub(crate) fn open_run() -> Span<'static> {
    let sim = &mbp_stats::pipeline().sim;
    sim.runs.inc();
    sim.simulate.span()
}

/// The running totals and observers of one replay. [`simulate`] feeds it
/// the whole trace; the sampled executor feeds it one slice at a time.
pub(crate) struct SimState {
    /// Instructions retired, warm-up included.
    pub(crate) instructions: u64,
    pub(crate) measured_instructions: u64,
    pub(crate) conditional: u64,
    pub(crate) mispredictions: u64,
    /// Mispredictions of warm-up records (the sampled executor's replay
    /// error estimate reads them).
    pub(crate) warmup_mispredictions: u64,
    /// Every branch's outcomes, with their shapes on forensic runs.
    most_failed: MostFailed,
    exhausted: bool,
    pub(crate) kernel_records: u64,
    timeseries: Option<TimeSeriesBuilder>,
    /// Measured batches run the forensics loop, which records them.
    forensic: bool,
    status: Option<StatusFeed>,
}

impl SimState {
    pub(crate) fn new(config: &SimConfig) -> Self {
        Self {
            instructions: 0,
            measured_instructions: 0,
            conditional: 0,
            mispredictions: 0,
            warmup_mispredictions: 0,
            most_failed: MostFailed::with_shapes(config.forensics.is_some()),
            exhausted: true,
            kernel_records: 0,
            timeseries: config.timeseries_window.map(TimeSeriesBuilder::new),
            forensic: config.forensics.is_some(),
            status: config
                .status
                .as_ref()
                .map(|(board, slot)| StatusFeed::new(Arc::clone(board), *slot)),
        }
    }

    /// Replays `trace` through `predictor` until it ends or reaches the
    /// `max` instruction cut-off. Records ending at or before instruction
    /// `warmup` train the predictor but are not measured.
    pub(crate) fn replay<S, P>(
        &mut self,
        trace: &mut S,
        predictor: &mut P,
        warmup: u64,
        max: Option<u64>,
        track_only_conditional: bool,
    ) -> Result<(), TraceError>
    where
        S: TraceSource + ?Sized,
        P: Predictor + ?Sized,
    {
        let mut batch = BranchBatch::new();
        let mut bits = PredictionBits::new();
        loop {
            let (len, measured_from, cut) =
                next_batch(trace, &mut batch, self.instructions, warmup, max)?;
            // A record past the cut-off means the trace was not exhausted:
            // the scalar driver's contract.
            self.exhausted &= !cut;
            if len == 0 {
                return Ok(());
            }
            bits.clear();
            let recorded = self.forensic && measured_from < len;
            let kernel = if recorded {
                predict_with_forensics(
                    predictor,
                    &batch,
                    track_only_conditional,
                    &mut bits,
                    &mut self.most_failed,
                    measured_from,
                );
                0
            } else {
                predictor.predict_batch(&batch, track_only_conditional, &mut bits);
                len as u64
            };
            self.kernel_records += kernel;
            let retired = self.instructions;
            let bit = self.score(&batch, &bits, 0..measured_from, 0, false, recorded);
            self.score(&batch, &bits, measured_from..len, bit, true, recorded);
            count_records(len as u64, kernel, self.instructions - retired);
            if let Some(status) = self.status.as_mut() {
                status.publish(self.most_failed.worst_branch());
            }
            if cut {
                return Ok(());
            }
        }
    }

    /// Scores records `range` of `batch` against the prediction bits from
    /// bit `bit` on and returns the bit after the range; `recorded` says
    /// the forensics loop has already fed the batch to `most_failed`. The
    /// driver has already run the predictor, so this never calls through
    /// its vtable.
    fn score(
        &mut self,
        batch: &BranchBatch,
        bits: &PredictionBits,
        range: Range<usize>,
        mut bit: usize,
        measured: bool,
        recorded: bool,
    ) -> usize {
        let (pcs, gaps, taken, ops) = (
            &batch.pcs()[range.clone()],
            &batch.gaps()[range.clone()],
            &batch.taken()[range.clone()],
            &batch.ops()[range],
        );
        // Instruction totals vectorize as one reduction over the gaps
        // column; the loops keep their running counters in locals so only
        // the per-branch tables see memory traffic.
        let advanced = gaps.iter().map(|&g| u64::from(g)).sum::<u64>() + pcs.len() as u64;
        let (mut conditional, mut mispredictions) = (0u64, 0u64);
        if measured && !recorded && self.timeseries.is_none() && self.status.is_none() {
            for i in 0..pcs.len() {
                if ops[i] & 0b1 != 0 {
                    let outcome = taken[i] != 0;
                    let mispredicted = bits.get(bit) != outcome;
                    bit += 1;
                    conditional += 1;
                    mispredictions += mispredicted as u64;
                    self.most_failed.record(pcs[i], outcome, mispredicted);
                } else {
                    self.most_failed.note_static(pcs[i]);
                }
            }
        } else {
            // Warm-up records, recorded batches and the observers' pass: the
            // same scoring, plus the time series and the status slot's worst
            // branch fed from the same bits in one walk.
            let mut at = self.instructions;
            for i in 0..pcs.len() {
                at += u64::from(gaps[i]) + 1;
                if ops[i] & 0b1 != 0 {
                    let (ip, outcome) = (pcs[i], taken[i] != 0);
                    let mispredicted = bits.get(bit) != outcome;
                    conditional += 1;
                    mispredictions += mispredicted as u64;
                    match (recorded, measured) {
                        (true, _) => {}
                        (false, false) => self.most_failed.note_static(ip),
                        (false, true) => {
                            self.most_failed
                                .record_with_worst(ip, outcome, mispredicted);
                        }
                    }
                    // Warm-up branches are in the series too: seeing the
                    // warm-up transient is the point of the series.
                    if let Some(ts) = self.timeseries.as_mut() {
                        ts.branch(ip, outcome, mispredicted);
                    }
                    bit += 1;
                } else if !recorded {
                    self.most_failed.note_static(pcs[i]);
                }
                if let Some(ts) = self.timeseries.as_mut() {
                    ts.advance(at);
                }
            }
        }
        self.instructions += advanced;
        if measured {
            self.measured_instructions += advanced;
            self.conditional += conditional;
            self.mispredictions += mispredictions;
        } else {
            self.warmup_mispredictions += mispredictions;
        }
        if let Some(status) = self.status.as_mut() {
            status.add(advanced, conditional, mispredictions);
        }
        bit
    }

    /// The result of the replay so far, attributed to `trace`. The replay
    /// ends, and its `run` span closes, once the time series' last window
    /// has closed; its reading is the result's `simulation_time`.
    pub(crate) fn into_result<P: Predictor + ?Sized>(
        self,
        trace: Value,
        predictor: &P,
        config: &SimConfig,
        run: Span<'_>,
    ) -> SimResult {
        // How much of the run rode the kernel path: one instant per run.
        events::instant(EventName::SimKernelBranches, self.kernel_records);
        let timeseries = self.timeseries.map(|b| b.finish(self.instructions));
        let simulation_time = run.finish().as_secs_f64();
        let forensics = config
            .forensics
            .as_ref()
            .map(|f| forensics::report(&self.most_failed, f, self.measured_instructions));
        SimResult {
            metadata: SimMetadata {
                simulator: crate::SIMULATOR_NAME,
                version: crate::SIMULATOR_VERSION,
                trace,
                warmup_instr: config.warmup_instructions,
                simulation_instr: self.measured_instructions,
                exhausted_trace: self.exhausted,
                num_conditional_branches: self.conditional,
                num_branch_instructions: self.most_failed.distinct_branches(),
                track_only_conditional: config.track_only_conditional,
                predictor: predictor.metadata(),
            },
            metrics: Metrics {
                mpki: mpki(self.mispredictions, self.measured_instructions),
                mispredictions: self.mispredictions,
                accuracy: accuracy(self.mispredictions, self.conditional),
                num_most_failed_branches: self.most_failed.half_coverage_count(self.mispredictions),
                simulation_time,
            },
            predictor_statistics: predictor.execution_statistics(),
            most_failed: self
                .most_failed
                .top(config.most_failed_limit, self.measured_instructions),
            branch_taxonomy: self.most_failed.taxonomy(),
            timeseries,
            table_probes: if config.collect_probes {
                predictor.table_probes()
            } else {
                Vec::new()
            },
            sampling: None,
            forensics,
        }
    }
}

/// Runs `predictor` over `trace`, pulling records in decoded blocks.
///
/// For every record: the instruction counter advances by the record's gap
/// plus one; conditional branches are predicted and trained; all branches
/// are tracked (unless [`SimConfig::track_only_conditional`]). Mispredictions
/// are only counted once the warm-up window has elapsed.
///
/// The trace is consumed through [`TraceSource::fill_batch`], so the source
/// decodes whole struct-of-arrays blocks into one reusable
/// [`BranchBatch`](mbp_trace::BranchBatch) instead of answering a virtual
/// call per record. Each block is truncated at the `max_instructions`
/// cut-off and handed to [`Predictor::predict_batch`] — one virtual call per
/// 2048 records, with vectorized kernels for the table predictors — and the
/// driver scores the returned prediction bits against the batch's outcome
/// column, split at the warm-up boundary. The time series and the status
/// slot read the same bits in the same pass, so they keep the run on the
/// kernel path; only forensics needs per-record component blame, so its
/// measured batches run the literal predict → train → blame → track loop,
/// which records each measured branch, with its blame, into the per-branch
/// table.
///
/// Results are identical to [`simulate_scalar`] (the one-record-at-a-time
/// reference driver) on any source whose `fill_batch` agrees with its
/// `next_record` stream; the driver-equivalence suite pins this
/// byte-for-byte.
///
/// # Errors
///
/// Propagates trace decoding errors; the predictor cannot fail.
pub fn simulate<S, P>(
    trace: &mut S,
    predictor: &mut P,
    config: &SimConfig,
) -> Result<SimResult, TraceError>
where
    S: TraceSource + ?Sized,
    P: Predictor + ?Sized,
{
    let run = open_run();
    let mut st = SimState::new(config);
    st.replay(
        trace,
        predictor,
        config.warmup_instructions,
        config.max_instructions,
        config.track_only_conditional,
    )?;
    Ok(st.into_result(trace.description(), predictor, config, run))
}

/// The one-record-at-a-time reference driver.
///
/// Processes the trace through [`TraceSource::next_record`] exactly as
/// [`simulate`] does through [`TraceSource::fill_batch`]; the two must
/// produce identical results (the equivalence test suite pins this). Kept
/// as the semantic baseline and for sources whose batch path is not
/// trustworthy while debugging. Its loop is its own, but it keeps the
/// batched driver's running totals and assembles its result the same way,
/// so a new result section is wired in one place.
///
/// # Errors
///
/// Propagates trace decoding errors; the predictor cannot fail.
pub fn simulate_scalar<S, P>(
    trace: &mut S,
    predictor: &mut P,
    config: &SimConfig,
) -> Result<SimResult, TraceError>
where
    S: TraceSource + ?Sized,
    P: Predictor + ?Sized,
{
    let run = open_run();
    // The state's status slot, if any, is never fed: this driver does not
    // publish live progress.
    let mut st = SimState::new(config);
    let mut records = 0u64;

    while let Some(rec) = trace.next_record()? {
        if let Some(max) = config.max_instructions {
            if st.instructions >= max {
                st.exhausted = false;
                trace.drain()?;
                break;
            }
        }
        records += 1;
        st.instructions += rec.instructions();
        let in_measurement = st.instructions > config.warmup_instructions;
        if in_measurement {
            st.measured_instructions += rec.instructions();
        }
        let b = rec.branch;
        if b.is_conditional() {
            let prediction = predictor.predict(b.ip());
            let mispredicted = prediction != b.is_taken();
            if let Some(ts) = st.timeseries.as_mut() {
                ts.branch(b.ip(), b.is_taken(), mispredicted);
            }
            predictor.train(&b);
            if in_measurement {
                st.conditional += 1;
                st.mispredictions += mispredicted as u64;
                let blame = mispredicted
                    .then(|| predictor.last_mispredict_blame())
                    .flatten();
                st.most_failed
                    .record_forensic(b.ip(), b.is_taken(), mispredicted, blame);
            } else {
                st.most_failed.note_static(b.ip());
            }
        } else {
            st.most_failed.note_static(b.ip());
        }
        if !config.track_only_conditional || b.is_conditional() {
            predictor.track(&b);
        }
        if let Some(ts) = st.timeseries.as_mut() {
            ts.advance(st.instructions);
        }
    }

    count_records(records, 0, st.instructions);
    Ok(st.into_result(trace.description(), predictor, config, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceSource;
    use mbp_json::json;
    use mbp_trace::{Branch, BranchRecord, Opcode};

    /// Predicts taken; counts interface calls.
    #[derive(Default)]
    struct Spy {
        predicts: u64,
        trains: u64,
        tracks: u64,
    }

    impl Predictor for Spy {
        fn predict(&mut self, _ip: u64) -> bool {
            self.predicts += 1;
            true
        }
        fn train(&mut self, _b: &Branch) {
            self.trains += 1;
        }
        fn track(&mut self, _b: &Branch) {
            self.tracks += 1;
        }
        fn metadata(&self) -> Value {
            json!({"name": "spy"})
        }
        fn execution_statistics(&self) -> Value {
            json!({"tracks": self.tracks})
        }
    }

    fn cond(ip: u64, taken: bool, gap: u32) -> BranchRecord {
        BranchRecord::new(
            Branch::new(ip, 0x9000, Opcode::conditional_direct(), taken),
            gap,
        )
    }

    fn uncond(ip: u64, gap: u32) -> BranchRecord {
        BranchRecord::new(
            Branch::new(ip, 0x9000, Opcode::unconditional_direct(), true),
            gap,
        )
    }

    #[test]
    fn call_discipline_matches_paper() {
        // train before track, train only for conditional, track for all.
        let recs = vec![cond(0x10, true, 0), uncond(0x20, 0), cond(0x10, false, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(spy.predicts, 2);
        assert_eq!(spy.trains, 2);
        assert_eq!(spy.tracks, 3);
        assert_eq!(r.metadata.num_conditional_branches, 2);
        assert_eq!(r.metadata.num_branch_instructions, 2, "distinct static ips");
        assert_eq!(r.metrics.mispredictions, 1);
        assert_eq!(r.metrics.accuracy, 0.5);
    }

    #[test]
    fn track_only_conditional_skips_unconditional() {
        let recs = vec![cond(0x10, true, 0), uncond(0x20, 0)];
        let mut spy = Spy::default();
        let cfg = SimConfig {
            track_only_conditional: true,
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert_eq!(spy.tracks, 1);
        assert!(r.metadata.track_only_conditional);
    }

    #[test]
    fn warmup_excludes_early_mispredictions() {
        // Each record advances 10 instructions; warm up past the first two.
        let recs = vec![
            cond(0x10, false, 9), // would mispredict, but in warm-up
            cond(0x10, false, 9),
            cond(0x10, false, 9), // measured
        ];
        let cfg = SimConfig {
            warmup_instructions: 20,
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert_eq!(spy.trains, 3, "training happens during warm-up too");
        assert_eq!(r.metrics.mispredictions, 1);
        assert_eq!(r.metadata.simulation_instr, 10);
        assert_eq!(r.metrics.mpki, 100.0);
    }

    #[test]
    fn max_instructions_stops_early() {
        let recs: Vec<_> = (0..100).map(|i| cond(0x10 + i, true, 9)).collect();
        let cfg = SimConfig {
            max_instructions: Some(50),
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert!(!r.metadata.exhausted_trace);
        assert_eq!(r.metadata.simulation_instr, 50);
        assert_eq!(spy.predicts, 5);
    }

    #[test]
    fn exhausted_flag_set_when_trace_ends() {
        let recs = vec![cond(0x10, true, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(r.metadata.exhausted_trace);
    }

    #[test]
    fn predictor_sections_embedded() {
        let recs = vec![cond(0x10, true, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.metadata.predictor["name"], Value::from("spy"));
        assert_eq!(r.predictor_statistics["tracks"], Value::from(1));
    }

    #[test]
    fn most_failed_populated() {
        let recs = vec![
            cond(0x10, false, 0),
            cond(0x10, false, 0),
            cond(0x20, true, 0),
        ];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.metrics.num_most_failed_branches, 1);
        assert_eq!(r.most_failed[0].ip, 0x10);
        assert_eq!(r.most_failed[0].mispredictions, 2);
        assert_eq!(r.most_failed[0].occurrences, 2);
    }

    #[test]
    fn timeseries_and_probes_off_by_default() {
        let recs = vec![cond(0x10, true, 9)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(r.timeseries.is_none());
        assert!(r.table_probes.is_empty());
    }

    #[test]
    fn timeseries_buckets_the_run_and_includes_warmup() {
        // 6 records x 10 instructions, window 20 => 3 windows of 2 branches.
        let recs: Vec<_> = (0..6).map(|i| cond(0x10, i % 2 == 0, 9)).collect();
        let cfg = SimConfig {
            warmup_instructions: 20,
            timeseries_window: Some(20),
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        let ts = r.timeseries.expect("enabled");
        assert_eq!(ts.window_size, 20);
        assert_eq!(ts.windows.len(), 3);
        for w in &ts.windows {
            assert_eq!(w.instructions, 20);
            assert_eq!(w.conditional, 2, "warmup branches are in the series");
            assert_eq!(w.mispredictions, 1, "spy predicts taken");
            assert_eq!(w.unique_branches, 1);
        }
        // Aggregate metrics still exclude warmup.
        assert_eq!(r.metadata.simulation_instr, 40);
        assert_eq!(r.metrics.mispredictions, 2);
    }

    #[test]
    fn probes_collected_when_requested() {
        struct Probed;
        impl Predictor for Probed {
            fn predict(&mut self, _ip: u64) -> bool {
                true
            }
            fn train(&mut self, _b: &Branch) {}
            fn track(&mut self, _b: &Branch) {}
            fn table_probes(&self) -> Vec<crate::TableProbe> {
                vec![crate::TableProbe::new("t", 4)]
            }
        }
        let recs = vec![cond(0x10, true, 0)];
        let cfg = SimConfig {
            collect_probes: true,
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut Probed, &cfg).unwrap();
        assert_eq!(r.table_probes.len(), 1);
        assert_eq!(r.table_probes[0].name, "t");
    }
}
