//! The multi-predictor sweep engine: decode a trace once, fan N predictors
//! across a worker pool — and keep the sweep alive through crashes, stalls,
//! kills, and memory pressure.
//!
//! The paper's prototyping workflow (§VI-A) runs the same trace through
//! many predictor configurations. Doing that with N separate `mbpsim run`
//! invocations decodes — and possibly decompresses — the trace N times;
//! [`simulate_many`] decodes it exactly once into shared memory and then
//! simulates every predictor against the same record block, in parallel,
//! using only `std` threads.
//!
//! On top of the worker pool sits a resilience layer (all opt-in via
//! [`SweepConfig`]):
//!
//! * **Checkpoint/resume** — every settled predictor is appended to a
//!   JSONL checkpoint file (see [`crate::checkpoint`]) before it is
//!   reported; a resumed sweep skips everything the checkpoint already
//!   settles and reconstructs the identical final leaderboard.
//! * **Watchdog deadlines** — a monitor thread tracks per-worker progress
//!   epochs; a predictor that blows its deadline while stalled is
//!   cancelled cooperatively, and if it does not respond within a grace
//!   period its worker is abandoned and replaced, so one stuck config
//!   costs one failure line instead of a hung sweep. A predictor still
//!   making progress at its deadline earns one bounded extension.
//! * **Memory-budget admission** — [`Predictor::size_hint`] gates how many
//!   predictors may be in flight at once under `--mem-budget`.
//! * **Graceful shutdown** — a shutdown probe flips the pool into drain
//!   mode: no new work starts, in-flight predictors finish and are
//!   checkpointed, unstarted ones are reported as `not_run`, and the
//!   result is marked `interrupted`.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mbp_json::{json, Value};
use mbp_stats::events::{self, EventName};
use mbp_trace::{BranchBatch, BranchRecord, TraceError};

use crate::checkpoint::{load_checkpoint, CheckpointLoad, CheckpointWriter};
use crate::simpoint::{sample, PhasesDoc};
use crate::simulator::{simulate, SimConfig, SimResult};
use crate::status::{PredictorState, SweepStatusBoard};
use crate::{Predictor, Section, SliceSource, TraceSource};

/// Configuration of a sweep run.
#[derive(Clone, Debug, Default)]
pub struct SweepConfig {
    /// Per-predictor simulation parameters (warm-up, instruction cap, …).
    /// Its `status` slot is replaced per job by the predictor's slot on
    /// [`SweepConfig::status`].
    pub sim: SimConfig,
    /// Worker threads; `0` means one per available core, capped at the
    /// number of predictors.
    pub jobs: usize,
    /// Per-predictor wall-clock budget. A predictor that exceeds it while
    /// stalled is cancelled (one extension is granted if it is still
    /// making progress); `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Total bytes of predictor state allowed in flight at once, admitted
    /// against [`Predictor::size_hint`]; `None` admits everything
    /// immediately.
    pub mem_budget: Option<u64>,
    /// Checkpoint file: every settled predictor is appended (and fsync'd)
    /// here before it is reported.
    pub checkpoint: Option<PathBuf>,
    /// With [`SweepConfig::checkpoint`], load the file first and skip every
    /// predictor it already settles.
    pub resume: bool,
    /// Polled by the monitor; returning `true` drains the sweep: in-flight
    /// predictors finish, unstarted ones become `not_run`, and the result
    /// is marked interrupted. Wired to a SIGINT/SIGTERM flag by `mbpsim`.
    pub shutdown: Option<fn() -> bool>,
    /// Phase-sampling plan: when set, every predictor runs through
    /// [`simulate_sampled`](crate::simulate_sampled) over the plan's
    /// weighted representative slices instead of the whole trace.
    /// Checkpoint records carry the plan's `doc_hash`, and `--resume`
    /// refuses a checkpoint written under a different plan (or none).
    pub phases: Option<PhasesDoc>,
    /// Live status board (slots keyed by predictor name) that workers and
    /// the watchdog publish lifecycle transitions and progress counters
    /// into — the data source of the `/snapshot` telemetry endpoint. `None`
    /// (the default) skips all publishing, including the driver's per-batch
    /// progress counts, so an unobserved sweep pays nothing.
    pub status: Option<Arc<SweepStatusBoard>>,
}

/// One predictor's outcome within a sweep, in leaderboard order.
#[derive(Clone, Debug)]
pub struct SweepEntry {
    /// Leaderboard position, starting at 1 (best MPKI).
    pub rank: usize,
    /// The predictor's display name (as passed to [`simulate_many`]).
    pub name: String,
    /// The full simulation result, identical to what `mbpsim run` with the
    /// same predictor and configuration would produce.
    pub result: SimResult,
}

/// Why a predictor failed to produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The predictor panicked mid-simulation.
    Panic,
    /// The worker hit a trace error.
    TraceError,
    /// The deadline watchdog cancelled (or abandoned) the simulation.
    Deadline,
    /// The predictor's size hint alone exceeds the sweep's memory budget.
    MemBudget,
}

impl FailureKind {
    /// Stable string form used in sweep JSON and checkpoint records.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::TraceError => "trace_error",
            FailureKind::Deadline => "deadline",
            FailureKind::MemBudget => "mem_budget",
        }
    }

    /// Inverse of [`as_str`](Self::as_str), for checkpoint loading.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(FailureKind::Panic),
            "trace_error" => Some(FailureKind::TraceError),
            "deadline" => Some(FailureKind::Deadline),
            "mem_budget" => Some(FailureKind::MemBudget),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A predictor that did not produce a result. The sweep completes
/// regardless; failures are reported alongside the leaderboard of
/// survivors.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// The failed predictor's display name.
    pub name: String,
    /// Failure class.
    pub kind: FailureKind,
    /// One-line human-readable cause (panic payload or error display).
    pub message: String,
}

impl SweepFailure {
    fn to_json(&self) -> Value {
        json!({
            "predictor": self.name.as_str(),
            "kind": self.kind.as_str(),
            "message": self.message.as_str(),
        })
    }
}

/// Renders a panic payload as a one-line message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "panic payload of unknown type"
    };
    // Panic payloads are arbitrary; keep the report one line.
    msg.lines().next().unwrap_or("").to_string()
}

/// The outcome of a sweep: every predictor's result, ranked by MPKI.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Trace description from the source.
    pub trace: Value,
    /// The `--jobs` request resolved against the full predictor list (kept
    /// for report stability; see [`SweepResult::workers_used`]).
    pub jobs: usize,
    /// Worker threads actually spawned this run — clamped against the
    /// predictors that remained after resume skipping (0 when the
    /// checkpoint already settled everything).
    pub workers_used: usize,
    /// Seconds spent decoding the trace (paid once, not per predictor;
    /// 0 when resume skipped the decode entirely).
    pub decode_time: f64,
    /// Wall-clock seconds for the whole parallel simulation phase.
    pub wall_time: f64,
    /// Sum of every predictor's individual simulation time; the ratio
    /// `cumulative_sim_time / wall_time` is the effective parallel speedup.
    pub cumulative_sim_time: f64,
    /// Per-predictor results, best MPKI first (ties broken by name).
    pub entries: Vec<SweepEntry>,
    /// Predictors that failed (panicked, errored, timed out, or were
    /// rejected by the memory budget), sorted by name. The leaderboard
    /// ranks only the survivors.
    pub failures: Vec<SweepFailure>,
    /// Predictors that never started because a shutdown drained the sweep,
    /// sorted by name. Empty for uninterrupted runs.
    pub not_run: Vec<String>,
    /// Whether a shutdown probe drained this sweep before it finished.
    pub interrupted: bool,
    /// Sampling-plan summary (rendered under `metadata.sampling`); present
    /// only for phase-sampled sweeps.
    pub sampling: Option<Value>,
}

impl SweepResult {
    /// The effective parallel speedup: cumulative per-predictor simulation
    /// time over the wall-clock time of the parallel phase.
    pub fn parallel_speedup(&self) -> f64 {
        if self.wall_time == 0.0 {
            0.0
        } else {
            self.cumulative_sim_time / self.wall_time
        }
    }

    /// Renders the sweep as a JSON leaderboard document.
    ///
    /// The `leaderboard` array is ranked by MPKI ascending and carries each
    /// predictor's headline metrics plus its `execution_statistics()`
    /// report; `results` holds the corresponding full Listing-1 documents
    /// in the same order (including `metrics.timeseries` and
    /// `introspection` when the sweep configuration collected them).
    /// `not_run` lists predictors a shutdown drain left unstarted.
    pub fn to_json(&self) -> Value {
        let mut doc = json!({
            "metadata": {
                "simulator": "MBPlib sweep simulator",
                "version": crate::SIMULATOR_VERSION,
                "trace": self.trace.clone(),
                "num_predictors": self.entries.len() + self.failures.len()
                    + self.not_run.len(),
                "num_failures": self.failures.len(),
                "jobs": self.jobs,
                "workers_used": self.workers_used,
                "decode_time": self.decode_time,
                "wall_time": self.wall_time,
                "cumulative_simulation_time": self.cumulative_sim_time,
                "parallel_speedup": self.parallel_speedup(),
                "interrupted": self.interrupted,
            },
            "leaderboard": self.entries.iter().map(|e| json!({
                "rank": e.rank,
                "predictor": e.name.as_str(),
                "mpki": e.result.metrics.mpki,
                "accuracy": e.result.metrics.accuracy,
                "mispredictions": e.result.metrics.mispredictions,
                "simulation_time": e.result.metrics.simulation_time,
                "predictor_statistics": e.result.predictor_statistics.clone(),
            })).collect::<Vec<_>>(),
            "failures": self.failures.iter().map(SweepFailure::to_json)
                .collect::<Vec<_>>(),
            "not_run": self.not_run.iter().map(|n| Value::from(n.as_str()))
                .collect::<Vec<_>>(),
            "results": self.entries.iter().map(|e| e.result.to_json())
                .collect::<Vec<_>>(),
        });
        if let (Some(sampling), Some(place)) = (&self.sampling, Section::Simpoint.sweep_summary()) {
            place.insert(&mut doc, sampling.clone());
        }
        doc
    }
}

/// How one job ended.
#[derive(Clone)]
enum Outcome {
    /// Simulated to the end. Boxed: a result is hundreds of bytes.
    Ran(Box<SimResult>),
    /// Panicked, hit a trace error, or blew its deadline or memory budget.
    Failed(SweepFailure),
    /// Never started: a shutdown drain took it from the queue or from the
    /// admission wait.
    NotRun,
}

/// One predictor's record, shared by its worker, the monitor and
/// collection.
#[derive(Default)]
struct Job {
    name: String,
    /// The predictor's status-board slot, resolved once; `None` without a
    /// board.
    board: Option<(Arc<SweepStatusBoard>, usize)>,
    /// How the job ended; written once, by [`SweepShared::settle`].
    outcome: Mutex<Option<Outcome>>,
    /// Nanoseconds since the sweep's start (min 1) when simulation began; 0
    /// while the job is unclaimed or waiting for admission. The deadline
    /// clock starts here, so admission waits don't count against the budget.
    started_ns: AtomicU64,
    /// Progress heartbeat, bumped by the worker once per record batch.
    epoch: AtomicU64,
    /// Set by the watchdog; the worker's trace source observes it at the
    /// next batch boundary and unwinds with [`TraceError::Cancelled`].
    cancel: AtomicBool,
    /// Size-hint bytes the job holds against the memory budget, stored
    /// under the ledger's lock; [`SweepShared::release`] swaps it to 0.
    reserved: AtomicU64,
}

impl Job {
    fn publish(&self, state: PredictorState) {
        if let Some((board, slot)) = &self.board {
            board.set_state(*slot, state);
        }
    }

    /// Whether the job has an outcome; one being written right now counts
    /// from the next poll.
    fn settled(&self) -> bool {
        self.outcome
            .try_lock()
            .is_ok_and(|outcome| outcome.is_some())
    }

    fn failure(&self, kind: FailureKind, message: String) -> Outcome {
        Outcome::Failed(SweepFailure {
            name: self.name.clone(),
            kind,
            message,
        })
    }
}

/// Everything the workers and the monitor share.
struct SweepShared {
    records: Vec<BranchRecord>,
    description: Value,
    sim: SimConfig,
    deadline: Option<Duration>,
    jobs: Vec<Job>,
    /// Unclaimed jobs with their predictors; each is taken once.
    queue: Mutex<VecDeque<(usize, Box<dyn Predictor + Send>)>>,
    /// Shutdown drain: workers stop claiming, admission waits bail out.
    draining: AtomicBool,
    mem_budget: Option<u64>,
    /// Bytes of size-hint currently admitted.
    mem_used: Mutex<u64>,
    mem_cv: Condvar,
    start: Instant,
    /// The checkpoint writer and its first append failure: the sweep
    /// finishes (results in memory are still good) and the error is
    /// surfaced at the end.
    checkpoint: Mutex<(Option<CheckpointWriter>, Option<io::Error>)>,
    /// Sampling plan: workers run the sampled executor instead of the full
    /// trace when set.
    phases: Option<PhasesDoc>,
}

impl SweepShared {
    /// Settles job `i` exactly once, whichever way it ended — its worker's
    /// result or failure, a budget rejection, the watchdog's abandon, or a
    /// drain: appends a predictor that ran or failed to the checkpoint
    /// (fsync'd while the outcome lock is held, so a record is durable
    /// before anyone can observe the job as settled), publishes its board
    /// state, and writes its outcome. A later call — an abandoned worker's
    /// late result — finds the outcome written and changes nothing.
    fn settle(&self, i: usize, outcome: Outcome) {
        let job = &self.jobs[i];
        let mut settled = job.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if settled.is_some() {
            return;
        }
        let mut checkpoint = self
            .checkpoint
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (writer, error) = &mut *checkpoint;
        let appended = match (writer.as_mut(), &outcome) {
            (Some(writer), Outcome::Ran(result)) => writer.record_result(&job.name, result),
            (Some(writer), Outcome::Failed(failure)) => writer.record_failure(failure),
            _ => Ok(()),
        };
        if let Err(e) = appended {
            error.get_or_insert(e);
        }
        drop(checkpoint);
        job.publish(match &outcome {
            Outcome::Ran(result) => {
                if let Some((board, slot)) = &job.board {
                    board.set_totals(
                        *slot,
                        result.metadata.simulation_instr,
                        result.metrics.mispredictions,
                    );
                }
                PredictorState::Settled
            }
            Outcome::Failed(_) => PredictorState::Failed,
            Outcome::NotRun => PredictorState::NotRun,
        });
        *settled = Some(outcome);
    }

    /// Returns job `i`'s memory reservation to the ledger; the swap makes
    /// the return exactly-once between the job's worker and the watchdog.
    fn release(&self, i: usize) {
        let mut used = self.mem_used.lock().unwrap_or_else(PoisonError::into_inner);
        *used = used.saturating_sub(self.jobs[i].reserved.swap(0, Ordering::Relaxed));
        self.mem_cv.notify_all();
    }
}

fn ns_since(start: &Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Trace-source shim between the shared record block and one worker: bumps
/// the job's progress epoch every batch and turns the watchdog's cancel
/// flag into a clean [`TraceError::Cancelled`] unwind at the next batch
/// boundary. It has no description of its own: the worker attributes
/// every result to the real trace.
struct CancelSource<'a> {
    inner: SliceSource<'a>,
    job: &'a Job,
}

impl CancelSource<'_> {
    fn check(&self) -> Result<(), TraceError> {
        if self.job.cancel.load(Ordering::Relaxed) {
            return Err(TraceError::Cancelled { reason: "deadline" });
        }
        self.job.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl TraceSource for CancelSource<'_> {
    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        self.check()?;
        self.inner.next_record()
    }

    fn fill_batch(&mut self, out: &mut BranchBatch) -> Result<usize, TraceError> {
        self.check()?;
        self.inner.fill_batch(out)
    }
}

/// Simulates every named predictor over `trace`, decoding the trace exactly
/// once and running the predictors on a pool of workers sized by
/// `config.jobs` (clamped to the work remaining after resume skipping).
///
/// Each predictor is simulated independently with `config.sim`, so every
/// entry's [`SimResult`] — metrics, most-failed report, warm-up and
/// instruction-cap behaviour — is identical to a standalone
/// [`simulate`] run (`mbpsim run`) of that predictor over the same trace.
/// Workers pull predictors from a shared queue, so N predictors on C cores
/// keep all cores busy until the queue drains. The resilience features —
/// checkpointing, resume, the deadline watchdog, memory-budget admission
/// and shutdown draining — are enabled per [`SweepConfig`] field and cost
/// nothing when off.
///
/// # Errors
///
/// Propagates trace decoding errors from the single decode pass and I/O
/// errors touching the checkpoint file. Per-predictor failures — a panic
/// inside `predict`/`train`/`track`, a trace error, a blown deadline, or a
/// memory-budget rejection — do **not** abort the sweep: each worker runs
/// under [`catch_unwind`], the failed predictor is recorded in
/// [`SweepResult::failures`], and the survivors are ranked as usual.
pub fn simulate_many<S>(
    trace: &mut S,
    predictors: Vec<(String, Box<dyn Predictor + Send>)>,
    config: &SweepConfig,
) -> Result<SweepResult, TraceError>
where
    S: TraceSource + ?Sized,
{
    let n_total = predictors.len();
    let jobs_legacy = effective_jobs(config.jobs, n_total);
    let stats = &mbp_stats::pipeline().sweep;

    // Resume: read what the checkpoint already settles.
    let plan_hash = config.phases.as_ref().map(|p| p.doc_hash());
    let load = match (&config.checkpoint, config.resume) {
        (Some(path), true) => {
            let load = load_checkpoint(path)?;
            // A checkpoint binds its records to the sampling plan (or the
            // absence of one) they were produced under; splicing a full
            // sweep's results into a sampled leaderboard — or vice versa —
            // would silently mix incomparable metrics.
            if load.has_records() && load.sampling != plan_hash {
                let msg = match (&load.sampling, &plan_hash) {
                    (None, Some(hash)) => format!(
                        "checkpoint {} was written by a full sweep; refusing to \
                         resume it with --phases (plan {hash})",
                        path.display()
                    ),
                    (Some(had), None) => format!(
                        "checkpoint {} was written by a sampled sweep (plan \
                         {had}); refusing to resume it without --phases",
                        path.display()
                    ),
                    (Some(had), Some(hash)) => format!(
                        "checkpoint {} was written under sampling plan {had}, \
                         but --phases names plan {hash}",
                        path.display()
                    ),
                    (None, None) => unreachable!("equal plans already matched"),
                };
                return Err(TraceError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    msg,
                )));
            }
            load
        }
        _ => CheckpointLoad::default(),
    };

    // Every predictor is a job. One the checkpoint settles is settled from
    // it here: before the decode, so its slot shows final from the first
    // scrape, and before the writer reopens the file, so its record is not
    // appended twice. Only the rest is queued and simulated.
    let mut jobs = Vec::with_capacity(n_total);
    let mut queue = VecDeque::new();
    let mut resumed = Vec::new();
    for (i, (name, predictor)) in predictors.into_iter().enumerate() {
        let checkpointed = match load.completed.iter().find(|(n, _)| *n == name) {
            Some((_, result)) => Some(Outcome::Ran(Box::new(result.clone()))),
            None => (load.failures.iter().find(|f| f.name == name))
                .map(|failure| Outcome::Failed(failure.clone())),
        };
        match checkpointed {
            Some(outcome) => resumed.push((i, outcome)),
            None => queue.push_back((i, predictor)),
        }
        jobs.push(Job {
            board: (config.status.as_ref())
                .and_then(|board| Some((Arc::clone(board), board.index_of(&name)?))),
            name,
            ..Job::default()
        });
    }
    stats.resume_skips.add(resumed.len() as u64);
    let m = queue.len();
    let mut shared = SweepShared {
        records: Vec::new(),
        description: Value::Null,
        sim: config.sim.clone(),
        deadline: config.deadline,
        jobs,
        queue: Mutex::new(queue),
        draining: AtomicBool::new(false),
        mem_budget: config.mem_budget,
        mem_used: Mutex::new(0),
        mem_cv: Condvar::new(),
        start: Instant::now(),
        checkpoint: Mutex::default(),
        phases: config.phases.clone(),
    };
    for (i, outcome) in resumed {
        shared.settle(i, outcome);
    }

    // Phase 1: decode once into shared memory — skipped entirely when the
    // checkpoint already settled every predictor, though the trace is still
    // drained, so a corrupt one fails the sweep before the checkpoint is
    // touched. The pre-size comes from `record_count_hint` — bounded by
    // data the source holds — never from a header-declared count alone.
    let mut decode_time = 0.0;
    if m > 0 {
        // No timer measures the decode pass as a whole, so its journal span
        // is its clock.
        let decode = events::span(EventName::SweepDecode);
        shared
            .records
            .reserve(trace.record_count_hint().unwrap_or(0) as usize);
        let mut batch = BranchBatch::new();
        while trace.fill_batch(&mut batch)? > 0 {
            batch.append_records_to(&mut shared.records);
            events::batch_tick();
        }
        decode_time = decode.finish().as_secs_f64();
    } else {
        trace.drain()?;
    }
    shared.description = trace.description();

    // The sampling plan must describe exactly this trace; a plan extracted
    // from a different trace (or a stale one) would sample nonsense slices.
    if m > 0 {
        if let Some(phases) = &config.phases {
            phases
                .validate(&shared.records)
                .map_err(|msg| TraceError::Io(io::Error::new(io::ErrorKind::InvalidData, msg)))?;
        }
    }

    let mut writer = match &config.checkpoint {
        Some(path) if config.resume && path.exists() => {
            Some(CheckpointWriter::append(path, load.trusted_bytes)?)
        }
        Some(path) => Some(CheckpointWriter::create(path)?),
        None => None,
    };
    if let Some(w) = writer.as_mut() {
        w.set_sampling(plan_hash.clone());
    }
    shared.checkpoint = Mutex::new((writer, None));

    // Phase 2: fan out. Workers claim (index, predictor) pairs from the
    // queue, and every job, however it ends, is settled once.
    let workers_used = if m == 0 {
        0
    } else {
        effective_jobs(config.jobs, m)
    };
    let shared = Arc::new(shared);
    let wall_start = Instant::now();
    stats.workers.add(workers_used as u64);
    for _ in 0..workers_used {
        let s = Arc::clone(&shared);
        std::thread::spawn(move || worker_loop(&s));
    }
    monitor(&shared, config);
    let wall_time = wall_start.elapsed().as_secs_f64();

    // Collection. The monitor only returns once every job is settled, and
    // an outcome is written once, so an abandoned worker still holding
    // `shared` can no longer change what is read here.
    let interrupted = shared.draining.load(Ordering::Relaxed);
    let mut entries = Vec::with_capacity(n_total);
    let mut failures = Vec::new();
    let mut not_run = Vec::new();
    for job in &shared.jobs {
        let outcome = job
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // `None` is unreachable: the monitor waits for every job. Fail soft.
        let outcome = outcome.unwrap_or_else(|| {
            job.failure(
                FailureKind::Panic,
                "worker finished without reporting a result".to_string(),
            )
        });
        match outcome {
            Outcome::Ran(result) => entries.push(SweepEntry {
                rank: 0,
                name: job.name.clone(),
                result: *result,
            }),
            Outcome::Failed(failure) => failures.push(failure),
            Outcome::NotRun => not_run.push(job.name.clone()),
        }
    }

    entries.sort_by(|a, b| {
        // NaN MPKI (a predictor returning garbage) sorts last instead of
        // panicking the leaderboard.
        a.result
            .metrics
            .mpki
            .partial_cmp(&b.result.metrics.mpki)
            .unwrap_or_else(|| {
                a.result
                    .metrics
                    .mpki
                    .is_nan()
                    .cmp(&b.result.metrics.mpki.is_nan())
            })
            .then_with(|| a.name.cmp(&b.name))
    });
    failures.sort_by(|a, b| a.name.cmp(&b.name));
    not_run.sort();
    let cumulative_sim_time = entries
        .iter()
        .map(|e| e.result.metrics.simulation_time)
        .sum();
    for (i, e) in entries.iter_mut().enumerate() {
        e.rank = i + 1;
    }

    if let Some(e) = shared
        .checkpoint
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .1
        .take()
    {
        return Err(TraceError::Io(e));
    }

    // Summarize the sampling plan once at sweep level: what fraction was
    // simulated and the worst per-predictor error estimate. Derived only
    // from the plan and the entries, so resumed documents match originals.
    let sampling = config.phases.as_ref().map(|p| {
        let max_error = entries
            .iter()
            .filter_map(|e| e.result.sampling.as_ref())
            .filter_map(|s| s.get("error_estimate").and_then(Value::as_f64))
            .fold(0.0f64, f64::max);
        json!({
            "doc_hash": p.doc_hash(),
            "window_size": p.window_size,
            "clusters": p.clusters as u64,
            "num_windows": p.num_windows as u64,
            "simulated_fraction": p.planned_fraction(),
            "max_error_estimate": max_error,
        })
    });

    Ok(SweepResult {
        trace: shared.description.clone(),
        jobs: jobs_legacy,
        workers_used,
        decode_time,
        wall_time,
        cumulative_sim_time,
        entries,
        failures,
        not_run,
        interrupted,
        sampling,
    })
}

/// One worker: claim a job, run it, repeat — until the queue is empty or a
/// drain begins.
fn worker_loop(shared: &SweepShared) {
    while !shared.draining.load(Ordering::Relaxed) {
        let claimed = shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        let Some((i, predictor)) = claimed else { break };
        run_job(shared, i, predictor);
    }
}

/// Admission, simulation, classification and settlement of job `i`.
fn run_job(shared: &SweepShared, i: usize, mut predictor: Box<dyn Predictor + Send>) {
    let stats = &mbp_stats::pipeline().sweep;
    let job = &shared.jobs[i];

    // Memory-budget admission. The deadline clock starts only after
    // admission, so time spent queued for memory is not "simulation".
    if let Some(budget) = shared.mem_budget {
        // A size hint is advisory; a panicking hint admits at zero cost
        // rather than taking down the job before it runs.
        let hint = catch_unwind(AssertUnwindSafe(|| predictor.size_hint())).unwrap_or(0);
        if hint > budget {
            let message = format!(
                "predictor size hint of {hint} bytes exceeds the memory budget of \
                 {budget} bytes"
            );
            shared.settle(i, job.failure(FailureKind::MemBudget, message));
            return;
        }
        let mut used = shared
            .mem_used
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        loop {
            if shared.draining.load(Ordering::Relaxed) {
                // Drained while queued for memory: this job never started.
                drop(used);
                shared.settle(i, Outcome::NotRun);
                return;
            }
            if *used + hint <= budget {
                *used += hint;
                job.reserved.store(hint, Ordering::Relaxed);
                break;
            }
            if !waited {
                waited = true;
                stats.admission_waits.inc();
                events::instant(EventName::AdmissionWait, i as u64);
            }
            used = shared
                .mem_cv
                .wait_timeout(used, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    job.publish(PredictorState::Admitted);

    // Busy time spans claim to settlement, once per predictor, so worker
    // accounting adds nothing to the simulation loop.
    let busy = stats.worker_busy.span_with_arg(i as u64);
    stats.predictors.inc();
    job.started_ns
        .store(ns_since(&shared.start).max(1), Ordering::Relaxed);
    job.publish(PredictorState::Running);

    // With a board attached, the driver publishes the slot's live progress
    // while the simulation runs; results are unchanged.
    let sim = SimConfig {
        status: job.board.clone(),
        ..shared.sim.clone()
    };

    // Fault isolation: a predictor that panics takes down this one
    // simulation, not the sweep. The predictor and source are owned by the
    // closure, so no shared state is observed after an unwind. Full and
    // sampled runs read the records through the same cancellable source,
    // so the watchdog sees their progress and can stop either.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let open = |records| CancelSource {
            inner: SliceSource::new(records),
            job,
        };
        match &shared.phases {
            Some(phases) => sample(&shared.records, &mut *predictor, phases, &sim, open),
            None => simulate(&mut open(&shared.records), &mut *predictor, &sim),
        }
    }));
    let outcome = match outcome {
        Ok(Ok(mut result)) => {
            // Each worker simulated an anonymous in-memory slice; attribute
            // the result to the real trace, as a standalone run would — and
            // before checkpointing, so resumed results carry it too.
            result.metadata.trace = shared.description.clone();
            Outcome::Ran(Box::new(result))
        }
        Ok(Err(TraceError::Cancelled { .. })) => job.failure(
            FailureKind::Deadline,
            deadline_message(shared.deadline, "simulation cancelled"),
        ),
        Ok(Err(e)) => {
            stats.trace_errors.inc();
            events::instant(EventName::SweepTraceError, i as u64);
            job.failure(FailureKind::TraceError, e.to_string())
        }
        Err(payload) => {
            stats.faults.inc();
            events::instant(EventName::SweepFault, i as u64);
            job.failure(FailureKind::Panic, panic_message(payload.as_ref()))
        }
    };
    let busy = busy
        .finish_with_instant(EventName::SweepPredictorDone)
        .as_micros();
    stats
        .predictor_us
        .record(u64::try_from(busy).unwrap_or(u64::MAX));
    shared.settle(i, outcome);
    shared.release(i);
}

/// Deterministic deadline-failure message (no wall-clock readings, so a
/// resumed report is byte-identical to the original).
fn deadline_message(deadline: Option<Duration>, what: &str) -> String {
    match deadline {
        Some(d) => format!("deadline of {:.3} s exceeded; {what}", d.as_secs_f64()),
        None => format!("cancelled; {what}"),
    }
}

/// The sweep's control loop, run in the calling thread: polls for shutdown,
/// enforces deadlines, abandons unresponsive workers, and returns once
/// every job is settled.
fn monitor(shared: &Arc<SweepShared>, config: &SweepConfig) {
    let m = shared.jobs.len();
    let stats = &mbp_stats::pipeline().sweep;
    let deadline_ns = config
        .deadline
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    // A predictor counts as progressing if its epoch moved within a
    // quarter-deadline; an unresponsive cancelled worker is abandoned after
    // the same order of grace. Both are clamped so tiny or huge budgets
    // stay sane.
    let (stall_ns, grace_ns) = match config.deadline {
        Some(d) => {
            let quarter = d / 4;
            (
                quarter
                    .clamp(Duration::from_millis(50), Duration::from_secs(2))
                    .as_nanos() as u64,
                quarter
                    .clamp(Duration::from_millis(100), Duration::from_secs(2))
                    .as_nanos() as u64,
            )
        }
        None => (0, 0),
    };
    let mut last_epoch = vec![0u64; m];
    let mut last_change = vec![0u64; m];
    let mut deadline_at: Vec<Option<u64>> = vec![None; m];
    let mut extended = vec![false; m];
    let mut cancelled_at: Vec<Option<u64>> = vec![None; m];

    loop {
        let now = ns_since(&shared.start);

        // Shutdown probe: flip into drain mode once and settle every queued
        // job as not run; off the queue, no worker can claim it.
        if let Some(probe) = config.shutdown {
            if !shared.draining.load(Ordering::Relaxed) && probe() {
                shared.draining.store(true, Ordering::Relaxed);
                let queued: Vec<_> = shared
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .drain(..)
                    .collect();
                for (i, _) in queued {
                    shared.settle(i, Outcome::NotRun);
                }
                // Wake admission waiters so they notice the drain promptly.
                shared.mem_cv.notify_all();
                stats.shutdown_drains.inc();
                let settled = shared.jobs.iter().filter(|job| job.settled()).count();
                events::instant(EventName::ShutdownDrain, (m - settled) as u64);
            }
        }

        let mut settled = 0usize;
        for (i, job) in shared.jobs.iter().enumerate() {
            if job.settled() {
                settled += 1;
                continue;
            }
            let Some(budget_ns) = deadline_ns else {
                continue;
            };
            let started = job.started_ns.load(Ordering::Relaxed);
            if started == 0 {
                continue; // unclaimed, or still queued for admission
            }
            if deadline_at[i].is_none() {
                deadline_at[i] = Some(started.saturating_add(budget_ns));
                last_epoch[i] = job.epoch.load(Ordering::Relaxed);
                last_change[i] = started;
            }
            let epoch = job.epoch.load(Ordering::Relaxed);
            if epoch != last_epoch[i] {
                last_epoch[i] = epoch;
                last_change[i] = now;
            }
            if let Some(cancel_ns) = cancelled_at[i] {
                // Cancelled but still running: the flag is only observed at
                // batch boundaries, so give the worker a grace period, then
                // abandon it.
                if now.saturating_sub(cancel_ns) > grace_ns {
                    cancelled_at[i] = None;
                    abandon(shared, i);
                }
                continue;
            }
            if now >= deadline_at[i].unwrap_or(u64::MAX) {
                let progressing = now.saturating_sub(last_change[i]) < stall_ns;
                if progressing && !extended[i] {
                    // Still moving at the buzzer: one bounded extension.
                    extended[i] = true;
                    deadline_at[i] = Some(now.saturating_add(budget_ns));
                    stats.deadline_extensions.inc();
                } else {
                    job.cancel.store(true, Ordering::Relaxed);
                    cancelled_at[i] = Some(now);
                    stats.deadline_fired.inc();
                    events::instant(EventName::DeadlineFired, i as u64);
                }
            }
        }

        if settled >= m {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Gives up on job `i`'s worker: settles a deadline failure on its behalf,
/// returns its memory reservation, and — since the stuck thread is lost to
/// the pool — spawns a replacement worker if the queue still has work.
fn abandon(shared: &Arc<SweepShared>, i: usize) {
    let message = deadline_message(shared.deadline, "worker unresponsive and abandoned");
    shared.settle(i, shared.jobs[i].failure(FailureKind::Deadline, message));
    shared.release(i);
    let backlog = !shared
        .queue
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_empty();
    if backlog && !shared.draining.load(Ordering::Relaxed) {
        let s = Arc::clone(shared);
        std::thread::spawn(move || worker_loop(&s));
    }
}

/// Resolves a `--jobs` request against the machine and the work available.
fn effective_jobs(requested: usize, predictors: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    };
    jobs.clamp(1, predictors.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_trace::{Branch, BranchRecord, Opcode};
    use std::sync::mpsc;

    struct Fixed(bool);

    impl Predictor for Fixed {
        fn predict(&mut self, _ip: u64) -> bool {
            self.0
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "fixed", "dir": self.0})
        }
    }

    /// Panics on the `n`-th prediction — a stand-in for a buggy predictor
    /// under development, the case sweep fault-isolation exists for.
    struct PanicAfter(u64);

    impl Predictor for PanicAfter {
        fn predict(&mut self, _ip: u64) -> bool {
            if self.0 == 0 {
                panic!("intentional fault for testing");
            }
            self.0 -= 1;
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "panic-after"})
        }
    }

    /// Sleeps on every prediction: from the watchdog's point of view, a
    /// predictor that has wedged inside one record batch.
    struct Stall;

    impl Predictor for Stall {
        fn predict(&mut self, _ip: u64) -> bool {
            std::thread::sleep(Duration::from_millis(1));
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
    }

    /// Healthy but slow: sleeps on every prediction, so a run keeps making
    /// progress for far longer than a tiny deadline.
    struct Slow;

    impl Predictor for Slow {
        fn predict(&mut self, _ip: u64) -> bool {
            std::thread::sleep(Duration::from_micros(200));
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
    }

    /// Correct predictions, huge claimed footprint.
    struct Hog(u64);

    impl Predictor for Hog {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn size_hint(&self) -> u64 {
            self.0
        }
    }

    fn biased_records(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(0x10, 0, Opcode::conditional_direct(), i % 4 != 0),
                    3,
                )
            })
            .collect()
    }

    fn fixed_pair() -> Vec<(String, Box<dyn Predictor + Send>)> {
        vec![
            (
                "never".to_string(),
                Box::new(Fixed(false)) as Box<dyn Predictor + Send>,
            ),
            (
                "always".to_string(),
                Box::new(Fixed(true)) as Box<dyn Predictor + Send>,
            ),
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mbp-sweep-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn ranks_by_mpki() {
        // 3 of 4 branches taken: always-taken beats never-taken.
        let records = biased_records(100);
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, fixed_pair(), &SweepConfig::default()).unwrap();
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].name, "always");
        assert_eq!(r.entries[0].rank, 1);
        assert_eq!(r.entries[1].name, "never");
        assert_eq!(r.entries[1].rank, 2);
        assert!(r.entries[0].result.metrics.mpki < r.entries[1].result.metrics.mpki);
        assert!(!r.interrupted);
        assert!(r.not_run.is_empty());
    }

    #[test]
    fn status_board_settles_every_predictor_with_final_totals() {
        let records = biased_records(100);
        let mut src = SliceSource::new(&records);
        let board = Arc::new(SweepStatusBoard::new(["never", "always"]));
        let config = SweepConfig {
            status: Some(Arc::clone(&board)),
            ..Default::default()
        };
        let r = simulate_many(&mut src, fixed_pair(), &config).unwrap();
        assert_eq!(r.entries.len(), 2);
        let snap = board.snapshot();
        for s in &snap {
            assert_eq!(s.state, PredictorState::Settled, "{}", s.name);
        }
        // Settle-time totals converge on the reported metrics exactly.
        for e in &r.entries {
            let s = snap.iter().find(|s| s.name == e.name).unwrap();
            assert_eq!(s.mispredictions, e.result.metrics.mispredictions);
            assert_eq!(s.instructions, e.result.metadata.simulation_instr);
        }
        // The board must not perturb results: identical to a boardless run.
        let mut src2 = SliceSource::new(&records);
        let plain = simulate_many(&mut src2, fixed_pair(), &SweepConfig::default()).unwrap();
        for (a, b) in r.entries.iter().zip(plain.entries.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.result.metrics.mispredictions,
                b.result.metrics.mispredictions
            );
            assert_eq!(a.result.metrics.mpki, b.result.metrics.mpki);
        }
    }

    #[test]
    fn results_match_standalone_simulate() {
        let records = biased_records(64);
        let cfg = SweepConfig::default();
        let mut src = SliceSource::new(&records);
        let sweep = simulate_many(&mut src, fixed_pair(), &cfg).unwrap();

        let mut standalone = Fixed(true);
        let direct = simulate(&mut SliceSource::new(&records), &mut standalone, &cfg.sim).unwrap();
        let entry = sweep.entries.iter().find(|e| e.name == "always").unwrap();
        assert_eq!(
            entry.result.metrics.mispredictions,
            direct.metrics.mispredictions
        );
        assert_eq!(entry.result.metrics.mpki, direct.metrics.mpki);
        assert_eq!(
            entry.result.metadata.num_conditional_branches,
            direct.metadata.num_conditional_branches
        );
    }

    #[test]
    fn respects_jobs_and_queues_excess_work() {
        let records = biased_records(32);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = (0..7)
            .map(|i| {
                (
                    format!("p{i}"),
                    Box::new(Fixed(i % 2 == 0)) as Box<dyn Predictor + Send>,
                )
            })
            .collect();
        let cfg = SweepConfig {
            jobs: 2,
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert_eq!(r.jobs, 2);
        assert_eq!(r.workers_used, 2);
        assert_eq!(r.entries.len(), 7, "all queued predictors complete");
    }

    #[test]
    fn jobs_zero_uses_available_parallelism_capped_by_work() {
        let records = biased_records(8);
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, fixed_pair(), &SweepConfig::default()).unwrap();
        assert!(r.jobs >= 1 && r.jobs <= 2, "two predictors cap jobs at 2");
        assert_eq!(r.workers_used, r.jobs);
    }

    #[test]
    fn empty_sweep_is_ok() {
        let records = biased_records(4);
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, Vec::new(), &SweepConfig::default()).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.workers_used, 0);
        assert_eq!(r.to_json()["leaderboard"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn json_leaderboard_is_ranked_and_parses_back() {
        let records = biased_records(40);
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, fixed_pair(), &SweepConfig::default()).unwrap();
        let doc = r.to_json();
        assert_eq!(doc["leaderboard"][0]["rank"], Value::from(1));
        assert_eq!(doc["leaderboard"][0]["predictor"], Value::from("always"));
        assert!(
            doc["leaderboard"][0]["predictor_statistics"]
                .as_object()
                .is_some(),
            "leaderboard entries carry execution statistics"
        );
        assert_eq!(doc["metadata"]["num_predictors"], Value::from(2));
        assert_eq!(doc["metadata"]["interrupted"], Value::from(false));
        assert_eq!(doc["not_run"].as_array().unwrap().len(), 0);
        assert_eq!(
            doc["results"][0]["metadata"]["simulator"].as_str(),
            Some(crate::SIMULATOR_NAME),
        );
        let text = doc.to_pretty_string();
        let reparsed: Value = text.parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn panicking_predictor_is_isolated_and_reported() {
        let records = biased_records(64);
        let mut predictors = fixed_pair();
        predictors.push((
            "buggy".to_string(),
            Box::new(PanicAfter(10)) as Box<dyn Predictor + Send>,
        ));
        let mut src = SliceSource::new(&records);
        let cfg = SweepConfig {
            jobs: 2,
            ..SweepConfig::default()
        };
        let r = simulate_many(&mut src, predictors, &cfg).expect("sweep survives the panic");

        // Survivors are ranked exactly as a panic-free sweep would rank them.
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].name, "always");
        assert_eq!(r.entries[0].rank, 1);
        assert_eq!(r.entries[1].name, "never");

        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].name, "buggy");
        assert_eq!(r.failures[0].kind, FailureKind::Panic);
        assert!(
            r.failures[0].message.contains("intentional fault"),
            "panic payload surfaces: {:?}",
            r.failures[0].message
        );
    }

    #[test]
    fn failures_appear_in_sweep_json() {
        let records = biased_records(16);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("ok".to_string(), Box::new(Fixed(true))),
            ("bad".to_string(), Box::new(PanicAfter(0))),
        ];
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &SweepConfig::default()).unwrap();
        let doc = r.to_json();
        assert_eq!(doc["metadata"]["num_predictors"], Value::from(2));
        assert_eq!(doc["metadata"]["num_failures"], Value::from(1));
        assert_eq!(doc["failures"][0]["predictor"], Value::from("bad"));
        assert_eq!(doc["failures"][0]["kind"], Value::from("panic"));
        assert_eq!(doc["leaderboard"].as_array().unwrap().len(), 1);
        // The whole document still parses back (valid JSON with failures).
        let reparsed: Value = doc.to_pretty_string().parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn all_predictors_failing_still_completes() {
        let records = biased_records(8);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = (0..4)
            .map(|i| {
                (
                    format!("bad{i}"),
                    Box::new(PanicAfter(i)) as Box<dyn Predictor + Send>,
                )
            })
            .collect();
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &SweepConfig::default()).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.failures.len(), 4);
        let names: Vec<&str> = r.failures.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["bad0", "bad1", "bad2", "bad3"], "sorted by name");
    }

    #[test]
    fn trace_description_propagates_to_entries() {
        let records = biased_records(4);
        let mut src = SliceSource::named(&records, "traces/T1.sbbt.mzst");
        let r = simulate_many(&mut src, fixed_pair(), &SweepConfig::default()).unwrap();
        for e in &r.entries {
            assert_eq!(
                e.result.metadata.trace.as_str(),
                Some("traces/T1.sbbt.mzst")
            );
        }
    }

    #[test]
    fn deadline_watchdog_fails_stuck_predictor_without_hanging() {
        let records = biased_records(1000);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("good".to_string(), Box::new(Fixed(true))),
            ("stuck".to_string(), Box::new(Stall)),
        ];
        let cfg = SweepConfig {
            jobs: 2,
            deadline: Some(Duration::from_millis(100)),
            ..SweepConfig::default()
        };
        let started = Instant::now();
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the watchdog bounds the sweep instead of hanging it"
        );
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].name, "good");
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].name, "stuck");
        assert_eq!(r.failures[0].kind, FailureKind::Deadline);
        assert!(
            r.failures[0].message.contains("deadline of 0.100 s"),
            "message names the budget: {:?}",
            r.failures[0].message
        );
        assert!(!r.interrupted, "a deadline is a failure, not an interrupt");
    }

    #[test]
    fn deadline_watchdog_cancels_a_sampled_run() {
        // Sixteen single-branch working sets, one per 50-record
        // (200-instruction) window, so the plan holds many phases of two
        // 50-record slices each: every slice ends far inside the
        // watchdog's stall and grace windows, and the whole run far
        // outlasts the deadline.
        let records: Vec<BranchRecord> = (0..3200u64)
            .map(|i| {
                // Consecutive ips land in distinct BBV buckets.
                let ip = 0x40_0000 + (i / 50) % 16;
                BranchRecord::new(Branch::new(ip, 0, Opcode::conditional_direct(), true), 3)
            })
            .collect();
        let phases = crate::simpoint::extract_phases(&records, 200, 16);
        assert!(phases.phases.len() >= 8, "{} phases", phases.phases.len());
        let cfg = SweepConfig {
            jobs: 1,
            deadline: Some(Duration::from_millis(10)),
            phases: Some(phases),
            ..SweepConfig::default()
        };
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> =
            vec![("slow".to_string(), Box::new(Slow))];
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].kind, FailureKind::Deadline);
        assert!(
            r.failures[0].message.contains("simulation cancelled"),
            "the sampled run observed the cancel flag: {:?}",
            r.failures[0].message
        );
    }

    #[test]
    fn oversized_predictor_is_rejected_by_the_memory_budget() {
        let records = biased_records(32);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("small".to_string(), Box::new(Hog(1024))),
            ("huge".to_string(), Box::new(Hog(64 << 20))),
        ];
        let cfg = SweepConfig {
            mem_budget: Some(1 << 20),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].name, "small");
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].name, "huge");
        assert_eq!(r.failures[0].kind, FailureKind::MemBudget);
        assert!(r.failures[0].message.contains("memory budget"));
    }

    #[test]
    fn memory_budget_serializes_admission_but_completes_everything() {
        // Three 600 KiB predictors against a 1 MiB budget: at most one can
        // be in flight, but admission must hand the ledger on so all three
        // finish.
        let records = biased_records(64);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = (0..3)
            .map(|i| {
                (
                    format!("hog{i}"),
                    Box::new(Hog(600 << 10)) as Box<dyn Predictor + Send>,
                )
            })
            .collect();
        let cfg = SweepConfig {
            jobs: 3,
            mem_budget: Some(1 << 20),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert_eq!(r.entries.len(), 3, "admission never wedges the pool");
        assert!(r.failures.is_empty());
    }

    #[test]
    fn checkpoint_records_every_settled_predictor() {
        let path = tmp("full.jsonl");
        let records = biased_records(48);
        let mut predictors = fixed_pair();
        predictors.push(("bad".to_string(), Box::new(PanicAfter(0))));
        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert_eq!(r.entries.len(), 2);
        let load = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 2);
        assert_eq!(load.failures.len(), 1);
        assert_eq!(load.ignored_tail_lines, 0);
    }

    #[test]
    fn resume_skips_checkpointed_predictors_and_rebuilds_the_leaderboard() {
        let path = tmp("resume.jsonl");
        let records = biased_records(80);
        let mut first = fixed_pair();
        first.push(("bad".to_string(), Box::new(PanicAfter(0))));
        let cfg = SweepConfig {
            jobs: 1,
            checkpoint: Some(path.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let original = simulate_many(&mut src, first, &cfg).unwrap();

        // Resume with predictors that would all panic instantly if they
        // actually ran: every outcome must come from the checkpoint.
        let second: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("never".to_string(), Box::new(PanicAfter(0))),
            ("always".to_string(), Box::new(PanicAfter(0))),
            ("bad".to_string(), Box::new(PanicAfter(0))),
        ];
        let resume_cfg = SweepConfig {
            resume: true,
            ..cfg
        };
        let mut src = SliceSource::new(&records);
        let resumed = simulate_many(&mut src, second, &resume_cfg).unwrap();
        assert_eq!(resumed.workers_used, 0, "nothing left to simulate");
        assert_eq!(resumed.decode_time, 0.0, "decode skipped on full resume");
        assert_eq!(resumed.entries.len(), original.entries.len());
        for (a, b) in resumed.entries.iter().zip(original.entries.iter()) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.name, b.name);
            assert_eq!(a.result.metrics.mpki, b.result.metrics.mpki);
        }
        assert_eq!(resumed.failures.len(), 1);
        assert_eq!(resumed.failures[0].name, "bad");
        assert_eq!(resumed.failures[0].kind, FailureKind::Panic);
    }

    #[test]
    fn resume_runs_only_the_unsettled_remainder() {
        let path = tmp("partial.jsonl");
        let records = biased_records(60);
        let cfg = SweepConfig {
            jobs: 1,
            checkpoint: Some(path.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let only_always: Vec<(String, Box<dyn Predictor + Send>)> =
            vec![("always".to_string(), Box::new(Fixed(true)))];
        simulate_many(&mut src, only_always, &cfg).unwrap();

        // "always" must come from the checkpoint (a live run would panic);
        // "never" is new and must actually simulate.
        let second: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("always".to_string(), Box::new(PanicAfter(0))),
            ("never".to_string(), Box::new(Fixed(false))),
        ];
        let resume_cfg = SweepConfig {
            resume: true,
            ..cfg
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, second, &resume_cfg).unwrap();
        assert_eq!(r.entries.len(), 2);
        assert!(r.failures.is_empty(), "the resumed entry never ran");
        assert_eq!(r.workers_used, 1);
        let load = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 2, "the new result was appended");
    }

    fn drain_immediately() -> bool {
        true
    }

    #[test]
    fn shutdown_drains_in_flight_work_and_reports_the_rest_not_run() {
        let records = biased_records(64);
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = (0..6)
            .map(|i| {
                (
                    format!("p{i}"),
                    Box::new(Stall) as Box<dyn Predictor + Send>,
                )
            })
            .collect();
        let cfg = SweepConfig {
            jobs: 1,
            shutdown: Some(drain_immediately),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert!(r.interrupted);
        assert_eq!(
            r.entries.len() + r.failures.len() + r.not_run.len(),
            6,
            "every predictor is accounted for"
        );
        assert!(!r.not_run.is_empty(), "the drain parked unstarted work");
        let mut sorted = r.not_run.clone();
        sorted.sort();
        assert_eq!(r.not_run, sorted);
        let doc = r.to_json();
        assert_eq!(doc["metadata"]["interrupted"], Value::from(true));
        assert_eq!(doc["not_run"].as_array().unwrap().len(), r.not_run.len());
    }

    /// Blocks in its first `predict` until its gate opens (a message, or the
    /// sender's drop) and reports its own drop: a wedged predictor whose
    /// worker the watchdog abandons.
    struct Gated {
        gate: Option<mpsc::Receiver<()>>,
        dropped: mpsc::Sender<()>,
    }

    impl Predictor for Gated {
        fn predict(&mut self, _ip: u64) -> bool {
            if let Some(gate) = self.gate.take() {
                let _ = gate.recv();
            }
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
    }

    impl Drop for Gated {
        fn drop(&mut self) {
            let _ = self.dropped.send(());
        }
    }

    #[test]
    fn a_late_abandoned_worker_changes_nothing() {
        let path = tmp("late_worker.jsonl");
        let records = biased_records(1000);
        let (open, gate) = mpsc::channel();
        let (dropped_tx, dropped) = mpsc::channel();
        let wedged = Gated {
            gate: Some(gate),
            dropped: dropped_tx,
        };
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("good".to_string(), Box::new(Fixed(true))),
            ("wedged".to_string(), Box::new(wedged)),
        ];
        let cfg = SweepConfig {
            jobs: 2,
            deadline: Some(Duration::from_millis(100)),
            checkpoint: Some(path.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.failures.len(), 1);
        assert!(
            r.failures[0].message.contains("abandoned"),
            "{:?}",
            r.failures[0].message
        );

        // Released, the worker runs on, meets its cancel flag, settles a
        // second outcome and drops the predictor.
        open.send(()).unwrap();
        dropped
            .recv_timeout(Duration::from_secs(30))
            .expect("the released worker finishes");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.completed.len(), 1);
        assert_eq!(load.failures.len(), 1);
        assert_eq!(load.failures[0].name, "wedged");
        assert_eq!(load.failures[0].kind, FailureKind::Deadline);
        assert!(load.failures[0].message.contains("abandoned"));
    }

    static ADMISSION_DRAIN: AtomicBool = AtomicBool::new(false);
    static HOLDER_RUNNING: AtomicBool = AtomicBool::new(false);
    static WAITER_ASKED: AtomicBool = AtomicBool::new(false);

    fn admission_drain() -> bool {
        ADMISSION_DRAIN.load(Ordering::SeqCst)
    }

    /// Polls `ready` until it holds; panics after ten seconds so a broken
    /// interleaving fails the test instead of hanging it.
    fn wait_for(what: &str, ready: impl Fn() -> bool) {
        let since = Instant::now();
        while !ready() {
            assert!(since.elapsed() < Duration::from_secs(10), "never {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Admitted first. In its first `predict` it waits for the other job to
    /// ask for admission, raises the drain flag and holds its worker until
    /// the other job's board slot shows `not_run`.
    struct Holder(Arc<SweepStatusBoard>);

    impl Predictor for Holder {
        fn predict(&mut self, _ip: u64) -> bool {
            if !ADMISSION_DRAIN.load(Ordering::SeqCst) {
                HOLDER_RUNNING.store(true, Ordering::SeqCst);
                wait_for("asked", || WAITER_ASKED.load(Ordering::SeqCst));
                ADMISSION_DRAIN.store(true, Ordering::SeqCst);
                wait_for("parked", || {
                    self.0.snapshot()[1].state == PredictorState::NotRun
                });
            }
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn size_hint(&self) -> u64 {
            600 << 10
        }
    }

    /// Asks for admission only once the holder runs, so it must wait.
    struct Waiter;

    impl Predictor for Waiter {
        fn predict(&mut self, _ip: u64) -> bool {
            true
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn size_hint(&self) -> u64 {
            WAITER_ASKED.store(true, Ordering::SeqCst);
            wait_for("running", || HOLDER_RUNNING.load(Ordering::SeqCst));
            600 << 10
        }
    }

    #[test]
    fn a_drain_during_the_admission_wait_parks_the_job() {
        let records = biased_records(64);
        let board = Arc::new(SweepStatusBoard::new(["a", "b"]));
        let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
            ("a".to_string(), Box::new(Holder(Arc::clone(&board)))),
            ("b".to_string(), Box::new(Waiter)),
        ];
        let cfg = SweepConfig {
            jobs: 2,
            mem_budget: Some(1 << 20),
            shutdown: Some(admission_drain),
            status: Some(Arc::clone(&board)),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, predictors, &cfg).unwrap();
        assert!(r.interrupted);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].name, "a");
        assert_eq!(r.not_run, ["b"]);
        let states: Vec<PredictorState> = board.snapshot().iter().map(|s| s.state).collect();
        assert_eq!(states, [PredictorState::Settled, PredictorState::NotRun]);
    }

    #[test]
    fn failure_kind_round_trips_through_strings() {
        for kind in [
            FailureKind::Panic,
            FailureKind::TraceError,
            FailureKind::Deadline,
            FailureKind::MemBudget,
        ] {
            assert_eq!(FailureKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FailureKind::parse("gremlins"), None);
    }

    /// Two alternating behavioural phases (different IPs, different bias)
    /// so BBV clustering has real structure to find.
    fn phase_trace(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                let phase = (i / 100) % 2;
                let ip = if phase == 0 {
                    0x1000 + (i % 8) as u64 * 16
                } else {
                    0x8_0000 + (i % 8) as u64 * 16
                };
                let taken = if phase == 0 { i % 4 != 0 } else { i % 2 == 0 };
                BranchRecord::new(Branch::new(ip, 0, Opcode::conditional_direct(), taken), 3)
            })
            .collect()
    }

    #[test]
    fn sampled_sweep_reports_sampling_metadata() {
        let records = phase_trace(4000);
        let phases = crate::simpoint::extract_phases(&records, 2000, 3);
        let cfg = SweepConfig {
            phases: Some(phases.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let r = simulate_many(&mut src, fixed_pair(), &cfg).unwrap();

        assert_eq!(r.entries.len(), 2);
        for e in &r.entries {
            let s = e.result.sampling.as_ref().expect("sampled entry");
            assert_eq!(s["doc_hash"].as_str(), Some(phases.doc_hash().as_str()));
        }
        let doc = r.to_json();
        let meta = doc["metadata"]["sampling"]
            .as_object()
            .expect("sweep metadata carries the sampling plan");
        assert_eq!(
            meta.get("doc_hash").and_then(Value::as_str),
            Some(phases.doc_hash().as_str())
        );
        let fraction = meta
            .get("simulated_fraction")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(fraction > 0.0 && fraction < 1.0, "fraction {fraction}");
        assert!(
            meta.get("max_error_estimate")
                .and_then(Value::as_f64)
                .unwrap()
                >= 0.0
        );
    }

    #[test]
    fn sampled_sweep_is_deterministic_across_worker_counts() {
        let records = phase_trace(4000);
        let phases = crate::simpoint::extract_phases(&records, 2000, 3);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                phases: Some(phases.clone()),
                ..SweepConfig::default()
            };
            let mut src = SliceSource::new(&records);
            simulate_many(&mut src, fixed_pair(), &cfg).unwrap()
        };
        let a = run(1);
        let b = run(2);
        assert_eq!(a.entries.len(), b.entries.len());
        // Canonical form: everything except the one wall-clock field.
        let canon = |r: &SimResult| {
            let mut doc = r.to_json();
            if let Some(m) = doc
                .as_object_mut()
                .and_then(|d| d.get_mut("metrics"))
                .and_then(Value::as_object_mut)
            {
                m.remove("simulation_time");
            }
            doc.to_pretty_string()
        };
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                canon(&x.result),
                canon(&y.result),
                "per-predictor sampled result is bit-stable across worker counts"
            );
        }
    }

    #[test]
    fn resume_refuses_full_checkpoint_under_sampling() {
        let path = tmp("mismatch_full_then_sampled.jsonl");
        std::fs::remove_file(&path).ok();
        let records = phase_trace(4000);

        let full = SweepConfig {
            checkpoint: Some(path.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        simulate_many(&mut src, fixed_pair(), &full).unwrap();

        let sampled = SweepConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            phases: Some(crate::simpoint::extract_phases(&records, 2000, 3)),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let err = simulate_many(&mut src, fixed_pair(), &sampled).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("refusing to resume"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn resume_refuses_sampled_checkpoint_without_phases() {
        let path = tmp("mismatch_sampled_then_full.jsonl");
        std::fs::remove_file(&path).ok();
        let records = phase_trace(4000);
        let phases = crate::simpoint::extract_phases(&records, 2000, 3);

        let sampled = SweepConfig {
            checkpoint: Some(path.clone()),
            phases: Some(phases),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        simulate_many(&mut src, fixed_pair(), &sampled).unwrap();

        let full = SweepConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let err = simulate_many(&mut src, fixed_pair(), &full).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("refusing to resume"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn resume_refuses_a_different_sampling_plan() {
        let path = tmp("mismatch_plan_a_then_b.jsonl");
        std::fs::remove_file(&path).ok();
        let records = phase_trace(4000);

        let plan_a = SweepConfig {
            checkpoint: Some(path.clone()),
            phases: Some(crate::simpoint::extract_phases(&records, 2000, 3)),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        simulate_many(&mut src, fixed_pair(), &plan_a).unwrap();

        let plan_b = SweepConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            phases: Some(crate::simpoint::extract_phases(&records, 1000, 4)),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let err = simulate_many(&mut src, fixed_pair(), &plan_b).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("refusing to resume") || msg.contains("names plan"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn resume_accepts_a_matching_sampling_plan() {
        let path = tmp("matching_plan_resumes.jsonl");
        std::fs::remove_file(&path).ok();
        let records = phase_trace(4000);
        let phases = crate::simpoint::extract_phases(&records, 2000, 3);

        let cfg = SweepConfig {
            checkpoint: Some(path.clone()),
            phases: Some(phases.clone()),
            ..SweepConfig::default()
        };
        let mut src = SliceSource::new(&records);
        let first = simulate_many(&mut src, fixed_pair(), &cfg).unwrap();

        let resume = SweepConfig {
            resume: true,
            ..cfg
        };
        let mut src = SliceSource::new(&records);
        let second = simulate_many(&mut src, fixed_pair(), &resume).unwrap();
        assert_eq!(
            second.workers_used, 0,
            "both predictors come from the checkpoint"
        );
        for (x, y) in first.entries.iter().zip(&second.entries) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.result.metrics.mpki, y.result.metrics.mpki);
        }
    }
}
