//! The static metric domains threaded through the MBPlib pipeline.
//!
//! Each stage of the pipeline owns one domain struct of process-wide
//! metrics: trace decoding, block decompression, simulation, the sweep
//! worker pool, and workload generation. The statics are reachable without
//! locks or registry lookups, so the instrumentation cost on a hot path is
//! one relaxed atomic add per *block* of work (the SBBT reader batches 2048
//! packets per `fill_batch`; the codecs inflate 64 KiB-scale blocks), never
//! per record.
//!
//! [`PipelineStats::snapshot`] produces a plain-data [`PipelineSnapshot`]
//! with derived rates; rendering to JSON lives downstream (`mbp`), keeping
//! this crate dependency-free.

use crate::metric::{Counter, Histogram, HistogramSnapshot, Timer};

/// Trace-ingestion metrics (`crates/trace`).
#[derive(Debug, Default)]
pub struct TraceStats {
    /// Bytes handed to a trace reader (after decompression, i.e. the raw
    /// SBBT stream the decoder walks).
    pub bytes_read: Counter,
    /// Branch packets decoded.
    pub packets_decoded: Counter,
    /// `fill_batch` blocks served.
    pub batches: Counter,
    /// Time spent decoding packets into records.
    pub decode: Timer,
}

/// Decompression metrics (`crates/compress`).
#[derive(Debug)]
pub struct CompressStats {
    /// Entropy-coded or raw blocks inflated.
    pub blocks_inflated: Counter,
    /// Compressed bytes consumed.
    pub compressed_bytes: Counter,
    /// Uncompressed bytes produced.
    pub inflated_bytes: Counter,
    /// Time spent inflating.
    pub inflate: Timer,
    /// Per-block inflate ratio in percent (`100 * out / in`): 100 ≈ stored
    /// raw, 400 = 4× expansion. Buckets at 1×/2×/4×/8×/16×/32×.
    pub block_ratio_pct: Histogram<6>,
}

/// Simulation-driver metrics (`crates/core`).
#[derive(Debug, Default)]
pub struct SimStats {
    /// `simulate`/`simulate_scalar` invocations.
    pub runs: Counter,
    /// Branch records consumed by the drivers.
    pub records: Counter,
    /// Instructions those records span.
    pub instructions: Counter,
    /// Time spent inside `TraceSource::fill_batch` (decode share).
    pub fill_batch: Timer,
    /// Wall time of whole simulation runs (includes the decode share).
    pub simulate: Timer,
    /// Records processed through `Predictor::predict_batch` (the batched
    /// kernel fast path of `simulate`).
    pub kernel_branches: Counter,
    /// Records processed one at a time: forensic runs' blame loop and the
    /// scalar reference driver.
    pub scalar_fallback_branches: Counter,
}

/// Sweep-engine metrics (`crates/core::simulate_many`).
#[derive(Debug)]
pub struct SweepStats {
    /// Worker threads spawned.
    pub workers: Counter,
    /// Predictors claimed and simulated (successfully or not).
    pub predictors: Counter,
    /// Worker failures caught by `catch_unwind`.
    pub faults: Counter,
    /// Trace errors observed by workers (failures that did not panic).
    pub trace_errors: Counter,
    /// Per-worker busy time (claim-to-report, summed over all workers).
    pub worker_busy: Timer,
    /// Per-predictor simulation time in microseconds. Buckets at
    /// 100 µs / 1 ms / 10 ms / 100 ms / 1 s / 10 s.
    pub predictor_us: Histogram<6>,
    /// Checkpoint records flushed (one per completed or failed predictor).
    pub checkpoint_writes: Counter,
    /// Predictors skipped on resume because the checkpoint already held
    /// their result.
    pub resume_skips: Counter,
    /// Deadline-watchdog firings (cancellations of stuck/slow predictors).
    pub deadline_fired: Counter,
    /// One-shot deadline extensions granted to progress-making predictors.
    pub deadline_extensions: Counter,
    /// Waits for memory-budget admission (worker parked until the ledger
    /// had room for its predictor's `size_hint`).
    pub admission_waits: Counter,
    /// Graceful-shutdown drains begun (work stopped being admitted).
    pub shutdown_drains: Counter,
    /// Representative slices replayed by the phase-sampled executor.
    pub sampled_slices: Counter,
    /// Instructions simulated inside measured representative slices.
    pub sampled_instructions: Counter,
    /// Instructions replayed for warmup ahead of representative slices.
    pub replayed_instructions: Counter,
}

/// Workload-generation metrics (`crates/workloads`).
#[derive(Debug, Default)]
pub struct WorkloadStats {
    /// Branch records synthesized.
    pub records_generated: Counter,
    /// Generator refill passes executed.
    pub refills: Counter,
    /// Time spent generating.
    pub generate: Timer,
}

/// Every pipeline domain, as one process-wide static ([`pipeline`]).
#[derive(Debug)]
pub struct PipelineStats {
    /// Trace ingestion.
    pub trace: TraceStats,
    /// Decompression.
    pub compress: CompressStats,
    /// Simulation drivers.
    pub sim: SimStats,
    /// Sweep engine.
    pub sweep: SweepStats,
    /// Workload generation.
    pub workload: WorkloadStats,
}

impl PipelineStats {
    /// Creates a zeroed pipeline-stats instance with the canonical
    /// histogram bounds (const, so it can back the process-wide static).
    pub const fn new() -> Self {
        Self {
            trace: TraceStats {
                bytes_read: Counter::new(),
                packets_decoded: Counter::new(),
                batches: Counter::new(),
                decode: Timer::new(),
            },
            compress: CompressStats {
                blocks_inflated: Counter::new(),
                compressed_bytes: Counter::new(),
                inflated_bytes: Counter::new(),
                inflate: Timer::new(),
                block_ratio_pct: Histogram::new([100, 200, 400, 800, 1600, 3200]),
            },
            sim: SimStats {
                runs: Counter::new(),
                records: Counter::new(),
                instructions: Counter::new(),
                fill_batch: Timer::new(),
                simulate: Timer::new(),
                kernel_branches: Counter::new(),
                scalar_fallback_branches: Counter::new(),
            },
            sweep: SweepStats {
                workers: Counter::new(),
                predictors: Counter::new(),
                faults: Counter::new(),
                trace_errors: Counter::new(),
                worker_busy: Timer::new(),
                predictor_us: Histogram::new([100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]),
                checkpoint_writes: Counter::new(),
                resume_skips: Counter::new(),
                deadline_fired: Counter::new(),
                deadline_extensions: Counter::new(),
                admission_waits: Counter::new(),
                shutdown_drains: Counter::new(),
                sampled_slices: Counter::new(),
                sampled_instructions: Counter::new(),
                replayed_instructions: Counter::new(),
            },
            workload: WorkloadStats {
                records_generated: Counter::new(),
                refills: Counter::new(),
                generate: Timer::new(),
            },
        }
    }
}

impl Default for PipelineStats {
    fn default() -> Self {
        Self::new()
    }
}

static PIPELINE: PipelineStats = PipelineStats::new();

/// The process-wide pipeline metrics.
pub fn pipeline() -> &'static PipelineStats {
    &PIPELINE
}

/// Plain-data view of one timer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerSnapshot {
    /// Accumulated nanoseconds.
    pub total_ns: u64,
    /// Closed spans.
    pub spans: u64,
}

impl TimerSnapshot {
    fn of(t: &Timer) -> Self {
        Self {
            total_ns: t.total_ns(),
            spans: t.spans(),
        }
    }

    /// Accumulated seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Point-in-time copy of every pipeline domain, with derived rates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineSnapshot {
    /// Trace: bytes handed to readers.
    pub trace_bytes_read: u64,
    /// Trace: packets decoded.
    pub trace_packets_decoded: u64,
    /// Trace: batches served.
    pub trace_batches: u64,
    /// Trace: decode time.
    pub trace_decode: TimerSnapshot,
    /// Compress: blocks inflated.
    pub compress_blocks: u64,
    /// Compress: compressed bytes in.
    pub compress_bytes_in: u64,
    /// Compress: inflated bytes out.
    pub compress_bytes_out: u64,
    /// Compress: inflate time.
    pub compress_inflate: TimerSnapshot,
    /// Compress: per-block ratio histogram (percent).
    pub compress_block_ratio_pct: HistogramSnapshot,
    /// Sim: driver invocations.
    pub sim_runs: u64,
    /// Sim: records consumed.
    pub sim_records: u64,
    /// Sim: instructions spanned.
    pub sim_instructions: u64,
    /// Sim: fill_batch time.
    pub sim_fill_batch: TimerSnapshot,
    /// Sim: whole-run time.
    pub sim_simulate: TimerSnapshot,
    /// Sim: records through the batched kernel fast path.
    pub sim_kernel_branches: u64,
    /// Sim: records through the one-at-a-time fallback path.
    pub sim_scalar_fallback_branches: u64,
    /// Sweep: workers spawned.
    pub sweep_workers: u64,
    /// Sweep: predictors simulated.
    pub sweep_predictors: u64,
    /// Sweep: panics caught.
    pub sweep_faults: u64,
    /// Sweep: trace errors seen by workers.
    pub sweep_trace_errors: u64,
    /// Sweep: summed worker busy time.
    pub sweep_worker_busy: TimerSnapshot,
    /// Sweep: per-predictor simulation time (µs) histogram.
    pub sweep_predictor_us: HistogramSnapshot,
    /// Sweep: checkpoint records flushed.
    pub sweep_checkpoint_writes: u64,
    /// Sweep: predictors skipped on resume.
    pub sweep_resume_skips: u64,
    /// Sweep: deadline-watchdog firings.
    pub sweep_deadline_fired: u64,
    /// Sweep: one-shot deadline extensions granted.
    pub sweep_deadline_extensions: u64,
    /// Sweep: memory-budget admission waits.
    pub sweep_admission_waits: u64,
    /// Sweep: graceful-shutdown drains begun.
    pub sweep_shutdown_drains: u64,
    /// Sweep: representative slices replayed by the sampled executor.
    pub sweep_sampled_slices: u64,
    /// Sweep: instructions measured inside representative slices.
    pub sweep_sampled_instructions: u64,
    /// Sweep: instructions replayed for warmup ahead of slices.
    pub sweep_replayed_instructions: u64,
    /// Workloads: records generated.
    pub workload_records: u64,
    /// Workloads: refill passes.
    pub workload_refills: u64,
    /// Workloads: generation time.
    pub workload_generate: TimerSnapshot,
}

impl PipelineSnapshot {
    /// Overall inflate ratio (`out / in`), or zero when nothing inflated.
    pub fn inflate_ratio(&self) -> f64 {
        if self.compress_bytes_in == 0 {
            0.0
        } else {
            self.compress_bytes_out as f64 / self.compress_bytes_in as f64
        }
    }

    /// Simulated branch records per second of simulate time.
    pub fn branches_per_second(&self) -> f64 {
        let secs = self.sim_simulate.seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.sim_records as f64 / secs
        }
    }

    /// Simulated instructions per second of simulate time.
    pub fn instructions_per_second(&self) -> f64 {
        let secs = self.sim_simulate.seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.sim_instructions as f64 / secs
        }
    }

    /// Packets decoded per second of decode time.
    pub fn packets_per_second(&self) -> f64 {
        let secs = self.trace_decode.seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.trace_packets_decoded as f64 / secs
        }
    }
}

impl PipelineStats {
    /// Copies every domain into a plain-data snapshot.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            trace_bytes_read: self.trace.bytes_read.get(),
            trace_packets_decoded: self.trace.packets_decoded.get(),
            trace_batches: self.trace.batches.get(),
            trace_decode: TimerSnapshot::of(&self.trace.decode),
            compress_blocks: self.compress.blocks_inflated.get(),
            compress_bytes_in: self.compress.compressed_bytes.get(),
            compress_bytes_out: self.compress.inflated_bytes.get(),
            compress_inflate: TimerSnapshot::of(&self.compress.inflate),
            compress_block_ratio_pct: self.compress.block_ratio_pct.snapshot(),
            sim_runs: self.sim.runs.get(),
            sim_records: self.sim.records.get(),
            sim_instructions: self.sim.instructions.get(),
            sim_fill_batch: TimerSnapshot::of(&self.sim.fill_batch),
            sim_simulate: TimerSnapshot::of(&self.sim.simulate),
            sim_kernel_branches: self.sim.kernel_branches.get(),
            sim_scalar_fallback_branches: self.sim.scalar_fallback_branches.get(),
            sweep_workers: self.sweep.workers.get(),
            sweep_predictors: self.sweep.predictors.get(),
            sweep_faults: self.sweep.faults.get(),
            sweep_trace_errors: self.sweep.trace_errors.get(),
            sweep_worker_busy: TimerSnapshot::of(&self.sweep.worker_busy),
            sweep_predictor_us: self.sweep.predictor_us.snapshot(),
            sweep_checkpoint_writes: self.sweep.checkpoint_writes.get(),
            sweep_resume_skips: self.sweep.resume_skips.get(),
            sweep_deadline_fired: self.sweep.deadline_fired.get(),
            sweep_deadline_extensions: self.sweep.deadline_extensions.get(),
            sweep_admission_waits: self.sweep.admission_waits.get(),
            sweep_shutdown_drains: self.sweep.shutdown_drains.get(),
            sweep_sampled_slices: self.sweep.sampled_slices.get(),
            sweep_sampled_instructions: self.sweep.sampled_instructions.get(),
            sweep_replayed_instructions: self.sweep.replayed_instructions.get(),
            workload_records: self.workload.records_generated.get(),
            workload_refills: self.workload.refills.get(),
            workload_generate: TimerSnapshot::of(&self.workload.generate),
        }
    }

    /// Resets every domain to zero (tests and per-phase deltas).
    pub fn reset(&self) {
        self.trace.bytes_read.reset();
        self.trace.packets_decoded.reset();
        self.trace.batches.reset();
        self.trace.decode.reset();
        self.compress.blocks_inflated.reset();
        self.compress.compressed_bytes.reset();
        self.compress.inflated_bytes.reset();
        self.compress.inflate.reset();
        self.compress.block_ratio_pct.reset();
        self.sim.runs.reset();
        self.sim.records.reset();
        self.sim.instructions.reset();
        self.sim.fill_batch.reset();
        self.sim.simulate.reset();
        self.sim.kernel_branches.reset();
        self.sim.scalar_fallback_branches.reset();
        self.sweep.workers.reset();
        self.sweep.predictors.reset();
        self.sweep.faults.reset();
        self.sweep.trace_errors.reset();
        self.sweep.worker_busy.reset();
        self.sweep.predictor_us.reset();
        self.sweep.checkpoint_writes.reset();
        self.sweep.resume_skips.reset();
        self.sweep.deadline_fired.reset();
        self.sweep.deadline_extensions.reset();
        self.sweep.admission_waits.reset();
        self.sweep.shutdown_drains.reset();
        self.sweep.sampled_slices.reset();
        self.sweep.sampled_instructions.reset();
        self.sweep.replayed_instructions.reset();
        self.workload.records_generated.reset();
        self.workload.refills.reset();
        self.workload.generate.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates_and_rates() {
        // The pipeline statics are process-global; build a local instance so
        // this test does not race other tests (or instrumented code).
        let stats = PipelineStats::default();
        stats.trace.bytes_read.add(1024);
        stats.trace.packets_decoded.add(2048);
        stats.trace.batches.inc();
        stats.compress.compressed_bytes.add(100);
        stats.compress.inflated_bytes.add(400);
        stats.compress.block_ratio_pct.record(400);
        stats.sim.records.add(1000);
        stats.sim.instructions.add(5000);
        stats.sim.simulate.record_ns(1_000_000_000);
        let snap = stats.snapshot();
        assert_eq!(snap.trace_bytes_read, 1024);
        assert_eq!(snap.trace_packets_decoded, 2048);
        assert!((snap.inflate_ratio() - 4.0).abs() < 1e-12);
        assert!((snap.branches_per_second() - 1000.0).abs() < 1e-6);
        assert!((snap.instructions_per_second() - 5000.0).abs() < 1e-6);
        assert_eq!(snap.compress_block_ratio_pct.count, 1);
    }

    #[test]
    fn reset_zeroes_every_domain() {
        let stats = PipelineStats::default();
        stats.sweep.faults.inc();
        stats.workload.records_generated.add(7);
        stats.reset();
        assert_eq!(stats.snapshot(), PipelineStats::new().snapshot());
    }

    #[test]
    fn global_pipeline_is_reachable() {
        // Only checks reachability; values are shared with the whole
        // process, so no assertions on contents.
        let _ = pipeline().snapshot();
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let snap = PipelineSnapshot::default();
        assert_eq!(snap.inflate_ratio(), 0.0);
        assert_eq!(snap.branches_per_second(), 0.0);
        assert_eq!(snap.packets_per_second(), 0.0);
    }
}
