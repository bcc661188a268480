//! One pass of a workload, run in a fresh child process: every job of the
//! workload back to back, through the same public calls `mbpsim` makes,
//! with each job's outputs checked and hashed.
//!
//! A layer pass runs the same jobs with spans around each call and then
//! attributes the time: after each job (outside its timed span) it replays
//! the job's trace through `fill_batch`, `predict_batch` and the
//! `MostFailed` bookkeeping separately, and after all jobs it probes each
//! predictor, observer, the sweep engine and phase sampling on a prefix of
//! the workload's first trace.

use std::fs;
use std::path::Path;
use std::time::Instant;

use mbp::examples::by_name;
use mbp::json::{json, Map, Value};
use mbp::sim::{
    extract_phases_with_warmup, simulate, simulate_many, Branch, BranchBatch, ForensicsConfig,
    MostFailed, PhasesDoc, PredictionBits, Predictor, SimConfig, SimResult, SliceSource,
    SweepConfig, SweepResult, BATCH_RECORDS,
};
use mbp::trace::sbbt::SbbtReader;
use mbp::trace::TraceError;

use crate::spans::{self_times_ns, Recorder, PROBE_JOB};
use crate::stats::{available_parallelism, peak_rss_kib, process_cpu_s, reference_loop_ns};
use crate::workloads::{
    sampled_mpki_rel_err, Facts, Job, Workload, ALL_PREDICTORS, SAMPLED_MPKI_FLOOR,
    SAMPLED_MPKI_SHARE, SIMPOINT_CLUSTERS, SIMPOINT_WARMUP_WINDOWS, TABLE3_PREDICTORS,
};

/// `most_failed` entries hashed into the digest: the default report size.
const DIGEST_TOP: usize = 20;
/// Batches decoded per replay chunk: about 64 K records, whose columns
/// stay cache-resident while each predictor and the scorer walk them.
const REPLAY_CHUNK_BATCHES: usize = 32;
/// Workers of the sweeps a pass times (`mbpsim sweep --jobs 1`). On a
/// host of two shared CPUs, a two-worker sweep's time and CPU cost swing by
/// a fifth with whether both workers land on one physical core, so the
/// timed sweeps run on one; layer passes probe the worker pool with
/// `available_parallelism` workers (`core.sweep.parallel_efficiency`).
const SWEEP_JOBS: usize = 1;

/// What one pass measured, as the child prints it for the parent.
#[derive(Debug, Default)]
pub struct PassReport {
    /// Seconds each job took, in job order; NaN for a job that failed.
    pub job_s: Vec<f64>,
    /// CPU seconds each job used, sweep workers included, in job order;
    /// NaN for a job that failed.
    pub job_cpu_s: Vec<f64>,
    /// Seconds of each job's trace opening and predictor construction, in
    /// job order; NaN for a job that failed.
    pub job_setup_s: Vec<f64>,
    pub rss_kib: u64,
    /// Trace instructions the pass's results cover.
    pub instructions: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub errors: Vec<String>,
    pub ref_loop_ns: f64,
    /// The largest `|sampled − full| / full` MPKI over the pass's sampled
    /// sweep entries; `None` when the workload runs no sampled sweep.
    pub sampled_mpki_rel_err: Option<f64>,
    /// Per-layer metrics (layer passes only).
    pub layers: Vec<(String, f64)>,
}

impl PassReport {
    /// Seconds of the jobs that completed, back to back.
    pub fn pass_s(&self) -> f64 {
        self.job_s.iter().filter(|s| s.is_finite()).sum()
    }

    pub fn to_json(&self) -> Value {
        let mut layers = Map::new();
        for (name, value) in &self.layers {
            layers.insert(name.as_str(), *value);
        }
        let times = |v: &[f64]| -> Vec<Value> {
            v.iter()
                .map(|&s| {
                    if s.is_finite() {
                        Value::from(s)
                    } else {
                        Value::Null
                    }
                })
                .collect()
        };
        json!({
            "job_s": times(&self.job_s),
            "job_cpu_s": times(&self.job_cpu_s),
            "job_setup_s": times(&self.job_setup_s),
            "rss_kib": self.rss_kib,
            "instructions": self.instructions,
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": format!("{:016x}", self.digest),
            "errors": self.errors.iter().map(String::as_str).collect::<Vec<_>>(),
            "ref_loop_ns": self.ref_loop_ns,
            "sampled_mpki_rel_err": self.sampled_mpki_rel_err,
            "layers": layers,
        })
    }

    pub fn from_json(doc: &Value) -> Option<Self> {
        let times = |v: &Value| -> Option<Vec<f64>> {
            Some(
                v.as_array()?
                    .iter()
                    .map(|s| s.as_f64().unwrap_or(f64::NAN))
                    .collect(),
            )
        };
        Some(Self {
            job_s: times(&doc["job_s"])?,
            job_cpu_s: times(&doc["job_cpu_s"])?,
            job_setup_s: times(&doc["job_setup_s"])?,
            rss_kib: doc["rss_kib"].as_u64()?,
            instructions: doc["instructions"].as_u64()?,
            attempted: doc["attempted"].as_u64()?,
            failed: doc["failed"].as_u64()?,
            digest: u64::from_str_radix(doc["digest"].as_str()?, 16).ok()?,
            errors: doc["errors"]
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(String::from))
                .collect::<Option<_>>()?,
            ref_loop_ns: doc["ref_loop_ns"].as_f64()?,
            sampled_mpki_rel_err: doc["sampled_mpki_rel_err"].as_f64(),
            layers: doc["layers"]
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.to_string(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Wall and CPU time since a job started.
struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall and CPU seconds since [`Clock::start`].
    fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// The result of one job, before its checks.
struct Done {
    secs: f64,
    cpu_s: f64,
    setup: f64,
    instructions: u64,
    lines: Vec<String>,
    errors: Vec<String>,
    /// Largest relative MPKI error of a sampled sweep's entries.
    sampled_mpki_rel_err: Option<f64>,
}

impl Done {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One scored replay stream: what `simulate`'s bookkeeping accumulates.
#[derive(Default)]
struct Score {
    most_failed: MostFailed,
    bits: Vec<PredictionBits>,
    instructions: u64,
    conditional: u64,
    mispredictions: u64,
}

/// Per-pass state.
struct Pass<'a> {
    w: &'a Workload,
    facts: &'a [Facts],
    rec: Recorder,
    /// Rendered phases documents, by trace, from the pass's simpoint jobs.
    plans: Vec<Option<String>>,
    inflated_bytes: u64,
    resident_bytes: u64,
    decoded_records: u64,
    scored_records: u64,
    kernel_branches: u64,
    fallback_branches: u64,
}

/// Runs one pass of `w` over the traces `facts` describes; with `layers`,
/// records spans, replays and probes, and writes the span file into
/// `out_dir`.
pub fn run(w: &Workload, facts: &[Facts], layers: bool, out_dir: &Path) -> PassReport {
    let mut pass = Pass {
        w,
        facts,
        rec: Recorder::new(layers),
        plans: vec![None; facts.len()],
        inflated_bytes: 0,
        resident_bytes: 0,
        decoded_records: 0,
        scored_records: 0,
        kernel_branches: 0,
        fallback_branches: 0,
    };
    let mut report = PassReport {
        ref_loop_ns: reference_loop_ns(),
        ..PassReport::default()
    };
    let mut lines = Vec::new();
    for (index, job) in w.jobs.iter().enumerate() {
        report.attempted += 1;
        pass.rec.set_job(index);
        let sim = &mbp::stats::pipeline().sim;
        let (kernel, fallback) = (
            sim.kernel_branches.get(),
            sim.scalar_fallback_branches.get(),
        );
        let outcome = pass.job(job);
        pass.kernel_branches += sim.kernel_branches.get() - kernel;
        pass.fallback_branches += sim.scalar_fallback_branches.get() - fallback;
        match outcome {
            Ok(done) => {
                report.job_s.push(done.secs);
                report.job_cpu_s.push(done.cpu_s);
                report.job_setup_s.push(done.setup);
                report.instructions += done.instructions;
                report.sampled_mpki_rel_err =
                    match (report.sampled_mpki_rel_err, done.sampled_mpki_rel_err) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                lines.extend(done.lines);
                if !done.errors.is_empty() {
                    report.failed += 1;
                    report.errors.extend(done.errors);
                }
            }
            Err(e) => {
                pass.rec.end_all();
                report.job_s.push(f64::NAN);
                report.job_cpu_s.push(f64::NAN);
                report.job_setup_s.push(f64::NAN);
                report.failed += 1;
                report.errors.push(e);
            }
        }
    }
    report.digest = crate::stats::digest(&lines);
    if layers {
        report.attempted += 1;
        match pass.probe() {
            Ok(metrics) => {
                report.layers = pass.ledger();
                report.layers.extend(metrics);
                // A workload that runs sampled sweeps reports their error,
                // not the probe's.
                if let Some(error) = report.sampled_mpki_rel_err {
                    for (name, value) in &mut report.layers {
                        if name == "core.simpoint.mpki_rel_err" {
                            *value = error;
                        }
                    }
                }
            }
            Err(e) => {
                pass.rec.end_all();
                report.failed += 1;
                report.errors.push(format!("probe: {e}"));
            }
        }
        if let Err(e) = write_span_file(&pass.rec, w.name, out_dir) {
            report.failed = report.attempted;
            report.errors.push(e);
        }
    }
    report.rss_kib = peak_rss_kib().unwrap_or(0);
    report
}

/// Writes the pass's spans to `layers-<workload>.json` and checks the file
/// with the library's Chrome trace validator.
fn write_span_file(rec: &Recorder, workload: &str, out_dir: &Path) -> Result<(), String> {
    let path = out_dir.join(format!("layers-{workload}.json"));
    fs::write(&path, format!("{}\n", rec.chrome_trace()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let doc: Value = fs::read_to_string(&path)
        .map_err(|e| e.to_string())?
        .parse()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    mbp::events_export::validate_chrome_trace(&doc)
        .map(|_| ())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Hides a predictor's `predict_batch` override, so the trait's default
/// per-record loop runs.
struct NoKernel(Box<dyn Predictor + Send>);

impl Predictor for NoKernel {
    fn predict(&mut self, ip: u64) -> bool {
        self.0.predict(ip)
    }

    fn train(&mut self, branch: &Branch) {
        self.0.train(branch)
    }

    fn track(&mut self, branch: &Branch) {
        self.0.track(branch)
    }
}

fn stock(name: &str) -> Result<Box<dyn Predictor + Send>, String> {
    by_name(name).ok_or_else(|| format!("unknown predictor {name}"))
}

/// The digest line of one result: trace, predictor, misprediction and
/// branch counts, measured instructions, and the most-failed report.
fn result_line(trace: &str, label: &str, r: &SimResult) -> String {
    let top: Vec<String> = r
        .most_failed
        .iter()
        .take(DIGEST_TOP)
        .map(|b| format!("{:x}:{}:{}", b.ip, b.occurrences, b.mispredictions))
        .collect();
    format!(
        "{trace}|{label}|{}|{}|{}|{}",
        r.metrics.mispredictions,
        r.metadata.num_conditional_branches,
        r.metadata.simulation_instr,
        top.join(",")
    )
}

impl<'a> Pass<'a> {
    fn job(&mut self, job: &Job) -> Result<Done, String> {
        match *job {
            Job::Run { trace, predictor } => self.single(trace, predictor, SimConfig::default()),
            Job::Explain { trace, predictor } => {
                self.single(trace, predictor, self.w.explain_config())
            }
            Job::Sweep { trace } => self.sweep(trace, None),
            Job::SampledSweep { trace } => {
                let plan = self.plans[trace]
                    .clone()
                    .ok_or("sampled sweep without a plan from this pass")?;
                self.sweep(trace, Some(plan))
            }
            Job::Simpoint { trace } => self.simpoint(trace),
        }
    }

    /// `SbbtReader::open`, split into its inflate and parse steps when
    /// spans are recorded.
    fn open(&mut self, trace: usize) -> Result<SbbtReader, String> {
        let facts: &'a Facts = &self.facts[trace];
        let path = &facts.path;
        let reader = if self.rec.enabled() {
            let (_, data) = self.rec.time("inflate", "", || {
                let raw = fs::read(path).map_err(|e| e.to_string())?;
                mbp::compress::decompress(&raw).map_err(|e| e.to_string())
            });
            let data = data.map_err(|e| format!("cannot inflate {}: {e}", path.display()))?;
            self.inflated_bytes += data.len() as u64;
            self.resident_bytes = self.resident_bytes.max(data.len() as u64);
            self.rec
                .time("open", "", || SbbtReader::from_decompressed(data))
                .1
        } else {
            SbbtReader::open(path)
        };
        let reader = reader.map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let header = reader.header();
        if (header.instruction_count, header.branch_count) != (facts.instructions, facts.branches) {
            return Err(format!(
                "{}: header counts {} instructions / {} branches, set-up wrote {} / {}",
                path.display(),
                header.instruction_count,
                header.branch_count,
                facts.instructions,
                facts.branches
            ));
        }
        Ok(reader)
    }

    fn new_predictor(&mut self, name: &'static str) -> Result<Box<dyn Predictor + Send>, String> {
        self.rec.time("new", name, || stock(name)).1
    }

    fn trace_label(&self, trace: usize) -> String {
        self.w.traces[trace].name()
    }

    /// A `run`- or `explain`-style job.
    fn single(
        &mut self,
        trace: usize,
        name: &'static str,
        config: SimConfig,
    ) -> Result<Done, String> {
        let facts: &'a Facts = &self.facts[trace];
        let path = facts.path.display().to_string();
        let clock = Clock::start();
        self.rec.begin("job", name);
        let mut reader = self.open(trace)?;
        let mut predictor = self.new_predictor(name)?;
        let setup = clock.wall.elapsed().as_secs_f64();
        let (_, result) = self.rec.time("simulate", name, || {
            simulate(&mut reader, &mut predictor, &config)
        });
        let result = result.map_err(|e| format!("simulation failed: {e}"))?;
        let (_, rendered) = self.rec.time("to_json", name, || {
            let mut doc = result.to_json();
            if let Some(meta) = doc
                .as_object_mut()
                .and_then(|o| o.get_mut("metadata"))
                .and_then(Value::as_object_mut)
            {
                meta.insert("trace", path.as_str());
            }
            format!("{doc:#}")
        });
        self.rec.end();
        let (secs, cpu_s) = clock.elapsed();
        let mut done = Done {
            secs,
            cpu_s,
            setup,
            instructions: facts.instructions,
            lines: vec![result_line(&self.trace_label(trace), name, &result)],
            errors: Vec::new(),
            sampled_mpki_rel_err: None,
        };
        check_rendered(&mut done, &rendered, &result);
        let m = &result.metadata;
        done.check(
            result.metrics.mispredictions <= m.num_conditional_branches,
            || format!("{name}: more mispredictions than conditional branches"),
        );
        if config.warmup_instructions == 0 {
            done.check(
                (m.simulation_instr, m.num_conditional_branches)
                    == (facts.instructions, facts.conditional),
                || {
                    format!(
                        "{name}: simulated {} instructions / {} conditional branches, \
                         the trace holds {} / {}",
                        m.simulation_instr,
                        m.num_conditional_branches,
                        facts.instructions,
                        facts.conditional
                    )
                },
            );
        } else {
            check_observers(&mut done, name, &result, facts, &config);
        }
        if self.rec.enabled() {
            let expected = (config.warmup_instructions == 0).then_some(&result);
            self.replay(&mut reader, &[name], &[expected], &mut done)?;
        }
        Ok(done)
    }

    /// A `sweep`-style job over the Table III predictors; with a plan, the
    /// `sweep --phases` variant.
    fn sweep(&mut self, trace: usize, plan_text: Option<String>) -> Result<Done, String> {
        let facts: &'a Facts = &self.facts[trace];
        let path = facts.path.display().to_string();
        let clock = Clock::start();
        let (engine, label) = match plan_text {
            Some(_) => ("sampled_sweep", "sampled"),
            None => ("simulate_many", "sweep"),
        };
        self.rec.begin("job", label);
        let phases = plan_text
            .map(|text| {
                let doc: Value = text.parse().map_err(|e| format!("phases document: {e}"))?;
                PhasesDoc::from_json(&doc)
            })
            .transpose()?;
        let setup_start = Instant::now();
        let mut reader = self.open(trace)?;
        let mut predictors = Vec::with_capacity(TABLE3_PREDICTORS.len());
        for name in TABLE3_PREDICTORS {
            predictors.push((name.to_string(), self.new_predictor(name)?));
        }
        let setup = setup_start.elapsed().as_secs_f64();
        let config = SweepConfig {
            jobs: SWEEP_JOBS,
            phases,
            ..SweepConfig::default()
        };
        let (_, result) = self.rec.time(engine, "", || {
            simulate_many(&mut reader, predictors, &config)
        });
        let mut result = result.map_err(|e| format!("sweep failed: {e}"))?;
        let (_, rendered) = self.rec.time("to_json", "", || {
            result.trace = path.as_str().into();
            for entry in &mut result.entries {
                entry.result.metadata.trace = path.as_str().into();
            }
            format!("{:#}", result.to_json())
        });
        self.rec.end();
        let (secs, cpu_s) = clock.elapsed();
        let sampled = config.phases.is_some();
        let mut done = Done {
            secs,
            cpu_s,
            setup,
            instructions: facts.instructions * TABLE3_PREDICTORS.len() as u64,
            lines: Vec::new(),
            errors: Vec::new(),
            sampled_mpki_rel_err: None,
        };
        self.check_sweep(&mut done, trace, &result, &rendered, sampled);
        if self.rec.enabled() && !sampled {
            let expected: Vec<Option<&SimResult>> = TABLE3_PREDICTORS
                .iter()
                .map(|name| {
                    result
                        .entries
                        .iter()
                        .find(|e| e.name == *name)
                        .map(|e| &e.result)
                })
                .collect();
            self.replay(&mut reader, &TABLE3_PREDICTORS, &expected, &mut done)?;
        }
        Ok(done)
    }

    fn check_sweep(
        &self,
        done: &mut Done,
        trace: usize,
        result: &SweepResult,
        rendered: &str,
        sampled: bool,
    ) {
        let facts: &'a Facts = &self.facts[trace];
        let label = self.trace_label(trace);
        for failure in &result.failures {
            done.errors.push(format!(
                "{label}: predictor {} failed ({}): {}",
                failure.name, failure.kind, failure.message
            ));
        }
        done.check(result.entries.len() == TABLE3_PREDICTORS.len(), || {
            format!("{label}: {} sweep entries", result.entries.len())
        });
        done.check(
            rendered.parse::<Value>().is_ok_and(|doc| {
                doc["leaderboard"].as_array().map(<[Value]>::len) == Some(result.entries.len())
            }),
            || format!("{label}: rendered sweep does not parse back"),
        );
        for entry in &result.entries {
            let r = &entry.result;
            let name = entry.name.as_str();
            if sampled {
                done.lines
                    .push(result_line(&label, &format!("sampled:{name}"), r));
                if let Some(full) = facts.reference_for(name) {
                    let rel = sampled_mpki_rel_err(r.metrics.mpki, full.mpki);
                    done.sampled_mpki_rel_err =
                        Some(done.sampled_mpki_rel_err.map_or(rel, |e| e.max(rel)));
                    let error = (r.metrics.mpki - full.mpki).abs();
                    let allowed = (SAMPLED_MPKI_SHARE * full.mpki).max(SAMPLED_MPKI_FLOOR);
                    done.check(error <= allowed, || {
                        format!(
                            "{label}/{name}: sampled MPKI {:.3} vs full {:.3} \
                             (off by {error:.3}, more than {allowed:.3})",
                            r.metrics.mpki, full.mpki
                        )
                    });
                }
                continue;
            }
            done.lines.push(result_line(&label, name, r));
            let m = &r.metadata;
            done.check(
                (m.simulation_instr, m.num_conditional_branches)
                    == (facts.instructions, facts.conditional),
                || format!("{label}/{name}: sweep entry covers a different trace"),
            );
            if let Some(full) = facts.reference_for(name) {
                done.check(r.metrics.mispredictions == full.mispredictions, || {
                    format!(
                        "{label}/{name}: sweep counts {} mispredictions, a standalone run {}",
                        r.metrics.mispredictions, full.mispredictions
                    )
                });
            }
        }
    }

    /// A `simpoint`-style job: decode the trace, extract and render the
    /// sampling plan the pass's sampled sweep of the same trace uses.
    fn simpoint(&mut self, trace: usize) -> Result<Done, String> {
        let facts: &'a Facts = &self.facts[trace];
        let clock = Clock::start();
        self.rec.begin("job", "simpoint");
        let mut reader = self.open(trace)?;
        let setup = clock.wall.elapsed().as_secs_f64();
        let w = self.w;
        let (_, plan) = self.rec.time("extract", "", || {
            reader.read_all().map(|records| {
                extract_phases_with_warmup(
                    &records,
                    w.simpoint_window,
                    SIMPOINT_CLUSTERS,
                    SIMPOINT_WARMUP_WINDOWS,
                )
            })
        });
        let plan = plan.map_err(|e| format!("cannot read {}: {e}", facts.path.display()))?;
        let (_, rendered) = self
            .rec
            .time("to_json", "", || format!("{:#}", plan.to_json()));
        self.rec.end();
        let (secs, cpu_s) = clock.elapsed();
        let label = self.trace_label(trace);
        let mut done = Done {
            secs,
            cpu_s,
            setup,
            instructions: facts.instructions,
            lines: vec![format!("{label}|simpoint|{}", plan.doc_hash())],
            errors: Vec::new(),
            sampled_mpki_rel_err: None,
        };
        done.check(
            (plan.record_count, plan.instruction_count) == (facts.branches, facts.instructions),
            || format!("{label}: the plan covers a different trace"),
        );
        let weights: f64 = plan.phases.iter().map(|p| p.weight).sum();
        done.check((weights - 1.0).abs() < 1e-9, || {
            format!("{label}: phase weights sum to {weights}")
        });
        let fraction = plan.planned_fraction();
        done.check(fraction > 0.0 && fraction < 1.0, || {
            format!("{label}: the plan simulates {fraction} of the trace")
        });
        self.plans[trace] = Some(rendered);
        Ok(done)
    }

    /// Replays a job's trace from the start with fresh predictors, timing
    /// decode, `predict_batch` and scoring separately, in chunks of
    /// [`REPLAY_CHUNK_BATCHES`] batches. Where the job's result came from
    /// the same batch path (`expected[i]` is set), the scored counts must
    /// equal it.
    fn replay(
        &mut self,
        reader: &mut SbbtReader,
        names: &[&'static str],
        expected: &[Option<&SimResult>],
        done: &mut Done,
    ) -> Result<(), String> {
        reader.rewind();
        let mut predictors = names
            .iter()
            .map(|name| stock(name))
            .collect::<Result<Vec<_>, _>>()?;
        let mut scores: Vec<Score> = names
            .iter()
            .map(|_| Score {
                bits: vec![PredictionBits::new(); REPLAY_CHUNK_BATCHES],
                ..Score::default()
            })
            .collect();
        let mut batches: Vec<BranchBatch> = (0..REPLAY_CHUNK_BATCHES)
            .map(|_| BranchBatch::new())
            .collect();
        self.rec.begin("replay", "");
        let mut exhausted = false;
        while !exhausted {
            let (_, decoded) = self.rec.time("decode", "", || -> Result<_, TraceError> {
                let mut filled = 0;
                while filled < REPLAY_CHUNK_BATCHES {
                    let n = reader.fill_batch(&mut batches[filled])?;
                    if n > 0 {
                        filled += 1;
                    }
                    if n < BATCH_RECORDS {
                        return Ok((filled, true));
                    }
                }
                Ok((filled, false))
            });
            let (filled, end) = decoded.map_err(|e| format!("replay decode failed: {e}"))?;
            exhausted = end;
            let chunk = &batches[..filled];
            let records: usize = chunk.iter().map(BranchBatch::len).sum();
            self.decoded_records += records as u64;
            for ((predictor, score), &name) in predictors.iter_mut().zip(&mut scores).zip(names) {
                self.rec.time("predict_batch", name, || {
                    for (batch, bits) in chunk.iter().zip(&mut score.bits) {
                        bits.clear();
                        predictor.predict_batch(batch, false, bits);
                    }
                });
                self.rec.time("score", name, || {
                    for (slot, batch) in chunk.iter().enumerate() {
                        score_batch(batch, slot, score);
                    }
                });
                self.scored_records += records as u64;
            }
        }
        self.rec.end();
        for ((score, name), expected) in scores.iter().zip(names).zip(expected) {
            let Some(r) = expected else { continue };
            done.check(
                (score.mispredictions, score.conditional, score.instructions)
                    == (
                        r.metrics.mispredictions,
                        r.metadata.num_conditional_branches,
                        r.metadata.simulation_instr,
                    ),
                || {
                    format!(
                        "{name}: predict_batch bits score {} mispredictions over {} branches, \
                         simulate {} over {}",
                        score.mispredictions,
                        score.conditional,
                        r.metrics.mispredictions,
                        r.metadata.num_conditional_branches
                    )
                },
            );
            done.check(
                score.most_failed.top(DIGEST_TOP, score.instructions) == r.most_failed,
                || format!("{name}: replayed most-failed report differs from simulate's"),
            );
        }
        Ok(())
    }

    /// The job ledger of a layer pass: the sums of each layer's span self
    /// times over the pass's jobs and replays. Engine calls (`simulate`,
    /// `simulate_many`, `extract`, `sampled_sweep`) are attributed to
    /// decode, `predict_batch` and scoring by the replays; what the
    /// replays do not explain is the residual, so the rows add up to the
    /// traced job time exactly.
    fn ledger(&self) -> Vec<(String, f64)> {
        let spans = self.rec.spans();
        let self_ns = self_times_ns(spans);
        let sum = |names: &[&str]| -> f64 {
            spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.job != PROBE_JOB && names.contains(&s.name))
                .map(|(_, &ns)| ns as f64 / 1e9)
                .sum()
        };
        let job_s: f64 = spans
            .iter()
            .filter(|s| s.job != PROBE_JOB && s.name == "job")
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum();
        let inflate = sum(&["inflate"]);
        let open = sum(&["open"]);
        let new = sum(&["new"]);
        let decode = sum(&["decode"]);
        let batch = sum(&["predict_batch"]);
        let score = sum(&["score"]);
        let to_json = sum(&["to_json"]);
        let engines = sum(&["simulate", "simulate_many", "extract", "sampled_sweep"]);
        let residual = job_s - (inflate + open + new + decode + batch + score + to_json);
        let kernel = self.kernel_branches as f64;
        let routed = kernel + self.fallback_branches as f64;
        vec![
            ("compress.inflate_s".into(), inflate),
            (
                "compress.inflate_mb_per_s".into(),
                self.inflated_bytes as f64 / 1e6 / inflate,
            ),
            ("trace.open_s".into(), open),
            ("trace.decode_s".into(), decode),
            (
                "trace.decode_mrec_per_s".into(),
                self.decoded_records as f64 / 1e6 / decode,
            ),
            (
                "trace.resident_mib".into(),
                self.resident_bytes as f64 / (1024.0 * 1024.0),
            ),
            ("predictors.new_s".into(), new),
            ("predictors.batch_s".into(), batch),
            ("core.score_s".into(), score),
            (
                "core.score_mrec_per_s".into(),
                self.scored_records as f64 / 1e6 / score,
            ),
            ("core.simulate_s".into(), engines),
            ("core.residual_s".into(), residual),
            ("core.residual_frac".into(), residual / job_s),
            ("core.to_json_s".into(), to_json),
            ("core.job_s".into(), job_s),
            (
                "core.kernel_branch_frac".into(),
                if routed > 0.0 { kernel / routed } else { 0.0 },
            ),
        ]
    }

    /// Per-layer probes on a prefix of the workload's first trace: every
    /// predictor's kernel against its default loop, the observers' marginal
    /// cost, the sweep engine's parallel efficiency, and phase sampling's
    /// cost and error.
    fn probe(&mut self) -> Result<Vec<(String, f64)>, String> {
        let facts: &'a Facts = &self.facts[0];
        let mut records = SbbtReader::open(&facts.path)
            .and_then(|mut r| r.read_all())
            .map_err(|e| format!("cannot read {}: {e}", facts.path.display()))?;
        records.truncate(self.w.probe_records);
        let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
        let batches: Vec<BranchBatch> = records
            .chunks(BATCH_RECORDS)
            .map(BranchBatch::from_records)
            .collect();
        self.rec.set_job(PROBE_JOB);
        self.rec.begin("probe", "");
        let result = self.probe_layers(&records, &batches, instructions);
        self.rec.end_all();
        result
    }

    fn probe_layers(
        &mut self,
        records: &[mbp::trace::BranchRecord],
        batches: &[BranchBatch],
        instructions: u64,
    ) -> Result<Vec<(String, f64)>, String> {
        let mut out: Vec<(String, f64)> = Vec::new();
        let minstr = instructions as f64 / 1e6;
        let run_batches = |p: &mut dyn Predictor| {
            let mut bits = PredictionBits::new();
            for batch in batches {
                p.predict_batch(batch, false, &mut bits);
            }
            bits
        };
        for name in ALL_PREDICTORS {
            let (new_s, predictor) = self.rec.time("new", name, || stock(name));
            let mut predictor = predictor?;
            let (batch_s, kernel_bits) = self
                .rec
                .time("predict_batch", name, || run_batches(&mut *predictor));
            let mut scalar = NoKernel(stock(name)?);
            let (loop_s, loop_bits) = self.rec.time("loop", name, || run_batches(&mut scalar));
            if kernel_bits != loop_bits {
                return Err(format!(
                    "{name}: predict_batch and its default loop disagree"
                ));
            }
            out.push((format!("predictors.{name}.new_s"), new_s));
            out.push((
                format!("predictors.{name}.batch_minstr_per_s"),
                minstr / batch_s,
            ));
            out.push((
                format!("predictors.{name}.loop_minstr_per_s"),
                minstr / loop_s,
            ));
            out.push((
                format!("predictors.{name}.kernel_speedup"),
                loop_s / batch_s,
            ));
        }

        // Observers: the same warm-up run with no observer, the time
        // series alone, and forensics alone.
        let base = SimConfig {
            warmup_instructions: self.w.explain_warmup,
            ..SimConfig::default()
        };
        let with_series = SimConfig {
            timeseries_window: Some(self.w.timeseries_window),
            ..base.clone()
        };
        let with_forensics = SimConfig {
            forensics: Some(ForensicsConfig::default()),
            ..base.clone()
        };
        let mut observed = [0.0f64; 3];
        for (slot, (span, config)) in observed.iter_mut().zip([
            ("observer.none", &base),
            ("observer.timeseries", &with_series),
            ("observer.forensics", &with_forensics),
        ]) {
            let mut predictor = stock("gshare")?;
            let (secs, result) = self.rec.time(span, "gshare", || {
                simulate(&mut SliceSource::new(records), &mut predictor, config)
            });
            result.map_err(|e| e.to_string())?;
            *slot = secs;
        }
        out.push((
            "core.observer.timeseries_s".into(),
            observed[1] - observed[0],
        ));
        out.push((
            "core.observer.forensics_s".into(),
            observed[2] - observed[0],
        ));

        // Sweep engine, with the host's workers, against standalone runs of
        // the same predictors.
        let workers = available_parallelism();
        let sweep_config = SweepConfig {
            jobs: workers,
            ..SweepConfig::default()
        };
        let predictors = table3_predictors()?;
        let (wall_s, sweep) = self.rec.time("simulate_many", "", || {
            simulate_many(&mut SliceSource::new(records), predictors, &sweep_config)
        });
        let sweep = sweep.map_err(|e| e.to_string())?;
        let mut standalone_s = 0.0;
        let mut full = Vec::new();
        for name in TABLE3_PREDICTORS {
            let mut predictor = stock(name)?;
            let (secs, result) = self.rec.time("standalone", name, || {
                simulate(
                    &mut SliceSource::new(records),
                    &mut predictor,
                    &SimConfig::default(),
                )
            });
            let result = result.map_err(|e| e.to_string())?;
            let entry = sweep.entries.iter().find(|e| e.name == name);
            if entry.map(|e| e.result.metrics.mispredictions) != Some(result.metrics.mispredictions)
            {
                return Err(format!("{name}: sweep entry differs from a standalone run"));
            }
            standalone_s += secs;
            full.push((name, result.metrics.mpki));
        }
        out.push(("core.sweep.wall_s".into(), wall_s));
        out.push((
            "core.sweep.parallel_efficiency".into(),
            standalone_s / (wall_s * sweep.workers_used.max(1) as f64),
        ));

        // Phase sampling: plan extraction with the workload's plan
        // parameters, then a sampled sweep over it.
        let window = self.w.simpoint_window;
        let (extract_s, plan) = self.rec.time("extract", "", || {
            extract_phases_with_warmup(records, window, SIMPOINT_CLUSTERS, SIMPOINT_WARMUP_WINDOWS)
        });
        let planned = plan.planned_fraction();
        let counters = &mbp::stats::pipeline().sweep;
        let touched = || counters.sampled_instructions.get() + counters.replayed_instructions.get();
        let before = touched();
        let sampled_config = SweepConfig {
            jobs: workers,
            phases: Some(plan),
            ..SweepConfig::default()
        };
        let predictors = table3_predictors()?;
        let (sampled_s, sampled) = self.rec.time("sampled_sweep", "", || {
            simulate_many(&mut SliceSource::new(records), predictors, &sampled_config)
        });
        let sampled = sampled.map_err(|e| e.to_string())?;
        let replayed =
            (touched() - before) as f64 / (instructions as f64 * TABLE3_PREDICTORS.len() as f64);
        let error = full
            .iter()
            .map(|&(name, full_mpki)| {
                sampled
                    .entries
                    .iter()
                    .find(|e| e.name == name)
                    .map_or(f64::INFINITY, |e| {
                        sampled_mpki_rel_err(e.result.metrics.mpki, full_mpki)
                    })
            })
            .fold(0.0f64, f64::max);
        out.push(("core.simpoint.extract_s".into(), extract_s));
        out.push(("core.simpoint.planned_fraction".into(), planned));
        out.push(("core.simpoint.replayed_frac".into(), replayed));
        out.push(("core.simpoint.sampled_sweep_s".into(), sampled_s));
        out.push(("core.simpoint.mpki_rel_err".into(), error));
        Ok(out)
    }
}

/// Named predictors, as `simulate_many` takes them.
type Roster = Vec<(String, Box<dyn Predictor + Send>)>;

fn table3_predictors() -> Result<Roster, String> {
    TABLE3_PREDICTORS
        .iter()
        .map(|&name| Ok((name.to_string(), stock(name)?)))
        .collect()
}

/// `simulate`'s steady-state bookkeeping over one batch, through the
/// public `MostFailed` calls: instruction totals, and per conditional
/// branch the prediction bit scored against the outcome column.
fn score_batch(batch: &BranchBatch, slot: usize, score: &mut Score) {
    let bits = &score.bits[slot];
    let (pcs, gaps, taken) = (batch.pcs(), batch.gaps(), batch.taken());
    score.instructions += gaps.iter().map(|&g| u64::from(g)).sum::<u64>() + batch.len() as u64;
    let mut bit = 0;
    for i in 0..batch.len() {
        if batch.is_conditional(i) {
            let outcome = taken[i] != 0;
            let mispredicted = bits.get(bit) != outcome;
            bit += 1;
            score.conditional += 1;
            score.mispredictions += u64::from(mispredicted);
            score.most_failed.record(pcs[i], outcome, mispredicted);
        } else {
            score.most_failed.note_static(pcs[i]);
        }
    }
}

/// The rendered document must parse back and carry the result's counts.
fn check_rendered(done: &mut Done, rendered: &str, r: &SimResult) {
    let ok = rendered.parse::<Value>().is_ok_and(|doc| {
        doc["metrics"]["mispredictions"].as_u64() == Some(r.metrics.mispredictions)
    });
    done.check(ok, || "rendered result does not parse back".into());
}

/// Conservation checks of an explain-style run: the forensic totals equal
/// the run's metrics, and the time series covers every conditional branch
/// of the trace, warm-up included.
fn check_observers(done: &mut Done, name: &str, r: &SimResult, facts: &Facts, config: &SimConfig) {
    // The record that crosses the warm-up boundary is measured whole.
    let m = &r.metadata;
    let measured = facts
        .instructions
        .saturating_sub(config.warmup_instructions)..=facts.instructions;
    done.check(measured.contains(&m.simulation_instr), || {
        format!(
            "{name}: measured {} instructions after warm-up",
            m.simulation_instr
        )
    });
    let forensics = r.forensics.as_ref();
    done.check(
        forensics.is_some_and(|f| {
            f["mispredictions"].as_u64() == Some(r.metrics.mispredictions)
                && f["conditional_branches"].as_u64() == Some(m.num_conditional_branches)
        }),
        || format!("{name}: forensic totals differ from the run's metrics"),
    );
    let series_conditional = r
        .timeseries
        .as_ref()
        .map(|ts| ts.windows.iter().map(|w| w.conditional).sum::<u64>());
    done.check(series_conditional == Some(facts.conditional), || {
        format!(
            "{name}: time series counts {series_conditional:?} conditional branches, \
             the trace holds {}",
            facts.conditional
        )
    });
}
