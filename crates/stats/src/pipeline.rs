//! The static metric domains threaded through the MBPlib pipeline, and the
//! one table every rendering of them reads.
//!
//! Each stage of the pipeline owns one domain struct of process-wide
//! metrics: trace decoding, block decompression, simulation, the sweep
//! worker pool, and workload generation. The statics are reachable without
//! locks, so the instrumentation cost on a hot path is one relaxed atomic
//! add per *block* of work (the SBBT reader batches 2048 packets per
//! `fill_batch`; the codecs inflate 64 KiB-scale blocks), never per record.
//!
//! [`PipelineStats::rows`] lists every metric once, in render order, with
//! its JSON section and key, its OpenMetrics family and its current value.
//! The JSON documents (rendered downstream in `mbp`, keeping this crate
//! dependency-free) and the OpenMetrics exposition are loops over it, so a
//! metric added to the table appears on every surface.

use crate::events::EventName;
use crate::metric::{Counter, Histogram, HistogramSnapshot, Timer};

/// Trace-ingestion metrics (`crates/trace`).
#[derive(Debug)]
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
#[derive(Debug)]
pub struct SimStats {
    /// `simulate`/`simulate_scalar` invocations.
    pub runs: Counter,
    /// Branch records consumed by the drivers.
    pub records: Counter,
    /// Instructions those records span.
    pub instructions: Counter,
    /// Time spent inside `TraceSource::fill_batch` (decode share), and in
    /// `TraceSource::drain` when a cut-off ends a run.
    pub fill_batch: Timer,
    /// Wall time of whole simulation runs (includes the decode share); a
    /// run's `simulation_time` is its span's reading.
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
    /// Per-predictor busy time in microseconds, each a `worker_busy` span's
    /// reading. Buckets at 100 µs / 1 ms / 10 ms / 100 ms / 1 s / 10 s.
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
#[derive(Debug)]
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
    /// Creates zeroed pipeline stats with the canonical histogram bounds and
    /// each timer's journal span (const, to back the process-wide static).
    pub const fn new() -> Self {
        Self {
            trace: TraceStats {
                bytes_read: Counter::new(),
                packets_decoded: Counter::new(),
                batches: Counter::new(),
                decode: Timer::new(EventName::TraceFillBatch),
            },
            compress: CompressStats {
                blocks_inflated: Counter::new(),
                compressed_bytes: Counter::new(),
                inflated_bytes: Counter::new(),
                inflate: Timer::new(EventName::CompressInflate),
                block_ratio_pct: Histogram::new([100, 200, 400, 800, 1600, 3200]),
            },
            sim: SimStats {
                runs: Counter::new(),
                records: Counter::new(),
                instructions: Counter::new(),
                fill_batch: Timer::new(EventName::SimFillBatch),
                simulate: Timer::new(EventName::SimSimulate),
                kernel_branches: Counter::new(),
                scalar_fallback_branches: Counter::new(),
            },
            sweep: SweepStats {
                workers: Counter::new(),
                predictors: Counter::new(),
                faults: Counter::new(),
                trace_errors: Counter::new(),
                worker_busy: Timer::new(EventName::SweepWorker),
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
                generate: Timer::new(EventName::WorkloadGenerate),
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

/// The value of one [`Row`] when [`PipelineStats::rows`] read it.
#[derive(Clone, Debug, PartialEq)]
pub enum Reading {
    /// A [`Counter`]'s value.
    Counter(u64),
    /// A [`Timer`]'s accumulated time and closed spans.
    Timer {
        /// Accumulated nanoseconds.
        total_ns: u64,
        /// Closed spans.
        spans: u64,
    },
    /// A [`Histogram`]'s state.
    Histogram(HistogramSnapshot),
    /// A rate or ratio of other rows. Only the JSON documents carry it.
    Derived(f64),
}

impl From<&Counter> for Reading {
    fn from(c: &Counter) -> Self {
        Reading::Counter(c.get())
    }
}

impl From<&Timer> for Reading {
    fn from(t: &Timer) -> Self {
        Reading::Timer {
            total_ns: t.total_ns(),
            spans: t.spans(),
        }
    }
}

impl<const N: usize> From<&Histogram<N>> for Reading {
    fn from(h: &Histogram<N>) -> Self {
        Reading::Histogram(h.snapshot())
    }
}

/// One pipeline metric as the JSON documents and `/metrics` render it.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Section of the JSON documents: `decode`, `compress`, `simulate`,
    /// `sweep` or `generation`.
    pub section: &'static str,
    /// Key within the section.
    pub key: &'static str,
    /// OpenMetrics family name; empty for [`Reading::Derived`] rows, which
    /// `/metrics` does not carry.
    pub family: &'static str,
    /// The value when the table was read.
    pub value: Reading,
}

fn row(
    section: &'static str,
    key: &'static str,
    family: &'static str,
    value: impl Into<Reading>,
) -> Row {
    Row {
        section,
        key,
        family,
        value: value.into(),
    }
}

fn derived(section: &'static str, key: &'static str, value: f64) -> Row {
    row(section, key, "", Reading::Derived(value))
}

/// `n / d`, or zero when nothing was measured.
fn ratio(n: u64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n as f64 / d
    }
}

impl PipelineStats {
    /// Every pipeline metric, once, in render order. Consecutive rows share
    /// a section, so the sections come out in the order of their first row.
    pub fn rows(&self) -> Vec<Row> {
        let (t, c, s) = (&self.trace, &self.compress, &self.sim);
        let (w, g) = (&self.sweep, &self.workload);
        vec![
            row(
                "decode",
                "bytes_read",
                "mbp_trace_bytes_read",
                &t.bytes_read,
            ),
            row(
                "decode",
                "packets_decoded",
                "mbp_trace_packets_decoded",
                &t.packets_decoded,
            ),
            row("decode", "batches", "mbp_trace_batches", &t.batches),
            row("decode", "time_s", "mbp_trace_decode", &t.decode),
            derived("decode", "packets_per_second", self.packets_per_second()),
            row(
                "compress",
                "blocks_inflated",
                "mbp_compress_blocks",
                &c.blocks_inflated,
            ),
            row(
                "compress",
                "compressed_bytes",
                "mbp_compress_bytes_in",
                &c.compressed_bytes,
            ),
            row(
                "compress",
                "inflated_bytes",
                "mbp_compress_bytes_out",
                &c.inflated_bytes,
            ),
            derived("compress", "inflate_ratio", self.inflate_ratio()),
            row("compress", "time_s", "mbp_compress_inflate", &c.inflate),
            row(
                "compress",
                "block_ratio_pct",
                "mbp_compress_block_ratio_pct",
                &c.block_ratio_pct,
            ),
            row("simulate", "runs", "mbp_sim_runs", &s.runs),
            row("simulate", "records", "mbp_sim_records", &s.records),
            row(
                "simulate",
                "instructions",
                "mbp_sim_instructions",
                &s.instructions,
            ),
            row(
                "simulate",
                "kernel_branches",
                "mbp_sim_kernel_branches",
                &s.kernel_branches,
            ),
            row(
                "simulate",
                "scalar_fallback_branches",
                "mbp_sim_scalar_fallback_branches",
                &s.scalar_fallback_branches,
            ),
            row(
                "simulate",
                "fill_batch_time_s",
                "mbp_sim_fill_batch",
                &s.fill_batch,
            ),
            row("simulate", "time_s", "mbp_sim_simulate", &s.simulate),
            derived(
                "simulate",
                "branches_per_second",
                self.branches_per_second(),
            ),
            derived(
                "simulate",
                "instructions_per_second",
                self.instructions_per_second(),
            ),
            row("sweep", "workers", "mbp_sweep_workers", &w.workers),
            row("sweep", "predictors", "mbp_sweep_predictors", &w.predictors),
            row("sweep", "faults", "mbp_sweep_faults", &w.faults),
            row(
                "sweep",
                "trace_errors",
                "mbp_sweep_trace_errors",
                &w.trace_errors,
            ),
            row(
                "sweep",
                "worker_busy_s",
                "mbp_sweep_worker_busy",
                &w.worker_busy,
            ),
            row(
                "sweep",
                "predictor_time_us",
                "mbp_sweep_predictor_us",
                &w.predictor_us,
            ),
            row(
                "sweep",
                "checkpoint_writes",
                "mbp_sweep_checkpoint_writes",
                &w.checkpoint_writes,
            ),
            row(
                "sweep",
                "resume_skips",
                "mbp_sweep_resume_skips",
                &w.resume_skips,
            ),
            row(
                "sweep",
                "deadline_fired",
                "mbp_sweep_deadline_fired",
                &w.deadline_fired,
            ),
            row(
                "sweep",
                "deadline_extensions",
                "mbp_sweep_deadline_extensions",
                &w.deadline_extensions,
            ),
            row(
                "sweep",
                "admission_waits",
                "mbp_sweep_admission_waits",
                &w.admission_waits,
            ),
            row(
                "sweep",
                "shutdown_drains",
                "mbp_sweep_shutdown_drains",
                &w.shutdown_drains,
            ),
            row(
                "sweep",
                "sampled_slices",
                "mbp_sweep_sampled_slices",
                &w.sampled_slices,
            ),
            row(
                "sweep",
                "sampled_instructions",
                "mbp_sweep_sampled_instructions",
                &w.sampled_instructions,
            ),
            row(
                "sweep",
                "replayed_instructions",
                "mbp_sweep_replayed_instructions",
                &w.replayed_instructions,
            ),
            row(
                "generation",
                "records_generated",
                "mbp_workload_records",
                &g.records_generated,
            ),
            row("generation", "refills", "mbp_workload_refills", &g.refills),
            row("generation", "time_s", "mbp_workload_generate", &g.generate),
        ]
    }

    /// Packets decoded per second of decode time.
    pub fn packets_per_second(&self) -> f64 {
        ratio(
            self.trace.packets_decoded.get(),
            self.trace.decode.seconds(),
        )
    }

    /// Overall inflate ratio (`out / in`), or zero when nothing inflated.
    pub fn inflate_ratio(&self) -> f64 {
        let bytes_in = self.compress.compressed_bytes.get();
        ratio(self.compress.inflated_bytes.get(), bytes_in as f64)
    }

    /// Simulated branch records per second of simulate time.
    pub fn branches_per_second(&self) -> f64 {
        ratio(self.sim.records.get(), self.sim.simulate.seconds())
    }

    /// Simulated instructions per second of simulate time.
    pub fn instructions_per_second(&self) -> f64 {
        ratio(self.sim.instructions.get(), self.sim.simulate.seconds())
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
        let rows = stats.rows();
        let value = |section, key| {
            let row = rows.iter().find(|r| (r.section, r.key) == (section, key));
            row.map(|r| r.value.clone())
        };
        assert_eq!(value("decode", "bytes_read"), Some(Reading::Counter(1024)));
        assert_eq!(
            value("decode", "packets_decoded"),
            Some(Reading::Counter(2048))
        );
        assert_eq!(
            value("simulate", "time_s"),
            Some(Reading::Timer {
                total_ns: 1_000_000_000,
                spans: 1
            })
        );
        assert_eq!(
            value("compress", "inflate_ratio"),
            Some(Reading::Derived(4.0))
        );
        assert!((stats.branches_per_second() - 1000.0).abs() < 1e-6);
        assert!((stats.instructions_per_second() - 5000.0).abs() < 1e-6);
        match value("compress", "block_ratio_pct") {
            Some(Reading::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("block_ratio_pct is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn rows_name_every_metric_once_in_contiguous_sections() {
        let rows = PipelineStats::new().rows();
        let mut sections: Vec<&str> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if sections.last() != Some(&row.section) {
                assert!(!sections.contains(&row.section), "{} split", row.section);
                sections.push(row.section);
            }
            let derived = matches!(row.value, Reading::Derived(_));
            assert_eq!(
                row.family.is_empty(),
                derived,
                "{}.{}",
                row.section,
                row.key
            );
            for other in &rows[..i] {
                assert_ne!((other.section, other.key), (row.section, row.key));
                assert!(derived || other.family != row.family, "{}", row.family);
            }
        }
        assert_eq!(
            sections,
            ["decode", "compress", "simulate", "sweep", "generation"]
        );
    }

    #[test]
    fn global_pipeline_is_reachable() {
        // Only checks reachability; values are shared with the whole
        // process, so no assertions on contents.
        let _ = pipeline().rows();
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let stats = PipelineStats::new();
        assert_eq!(stats.inflate_ratio(), 0.0);
        assert_eq!(stats.branches_per_second(), 0.0);
        assert_eq!(stats.instructions_per_second(), 0.0);
        assert_eq!(stats.packets_per_second(), 0.0);
    }
}
