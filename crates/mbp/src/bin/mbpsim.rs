//! `mbpsim` — command-line front end to the MBPlib suite.
//!
//! Because MBPlib is a library, this binary is just one *user* of it — but
//! it packages the common workflows. `mbpsim help` lists its commands and
//! flags: it renders them from [`COMMANDS`] and [`FLAGS`], the tables that
//! also dispatch and check every command line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mbp::compress::Codec;
use mbp::examples::{by_name, PREDICTOR_NAMES};
use mbp::json::Value;
use mbp::sim::{simulate, simulate_comparison, simulate_many, Predictor, SimConfig, SweepConfig};
use mbp::trace::sbbt::{SbbtReader, SbbtWriter};
use mbp::trace::{bt9, translate};
use mbp::workloads::Suite;

/// Exit codes, so scripts driving fleets of `mbpsim` runs can triage
/// without parsing stderr:
///
/// * `0` — success.
/// * `1` — unexpected internal error (I/O while writing output, …).
/// * `2` — usage error: bad flags, unknown command/predictor/suite.
/// * `3` — trace error: the input could not be opened, decoded or decompressed.
/// * `4` — partial sweep failure: the sweep completed and printed its JSON,
///   but at least one predictor failed (see the `failures` array).
/// * `5` — metrics regression: `stats-diff` found at least one metric past
///   its regression threshold (the report itself printed fine).
/// * `6` — interrupted sweep: SIGINT/SIGTERM arrived mid-sweep, in-flight
///   predictors were drained and the partial JSON printed with
///   `"interrupted": true` (resume with `--checkpoint`/`--resume`).
const EXIT_INTERNAL: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_TRACE: u8 = 3;
const EXIT_PARTIAL_SWEEP: u8 = 4;
const EXIT_REGRESSION: u8 = 5;
const EXIT_INTERRUPTED: u8 = 6;

/// A command failure carrying the exit code it should map to.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn trace(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_TRACE,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        Self {
            code: EXIT_INTERNAL,
            message: message.into(),
        }
    }
}

/// A command: its name, its synopsis (the operands and flags it needs) and
/// its body. A synopsis that starts with an operand lets the command take
/// operands; no other command takes any.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    body: fn(&Args) -> Result<ExitCode, Failure>,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", synopsis: "--predictor <name> --trace <file>", body: cmd_run },
    Command { name: "explain", synopsis: "<trace> <predictor>", body: cmd_explain },
    Command { name: "compare", synopsis: "--predictors <a>,<b> --trace <file>", body: cmd_compare },
    Command { name: "sweep", synopsis: "--predictors <a>,<b>,... --trace <file>", body: cmd_sweep },
    Command { name: "simpoint", synopsis: "--trace <file>", body: cmd_simpoint },
    Command { name: "gen", synopsis: "--suite <name> --out <dir>", body: cmd_gen },
    Command { name: "translate", synopsis: "--from <file.bt9[.mgz]> --to <file.sbbt[.mzst|.mgz]>", body: cmd_translate },
    Command { name: "info", synopsis: "--trace <file>", body: cmd_info },
    Command { name: "stats-diff", synopsis: "<baseline.json> <candidate.json>", body: cmd_stats_diff },
    Command { name: "validate-trace", synopsis: "<run.trace.json>", body: cmd_validate_trace },
    Command { name: "report", synopsis: "<metrics.json>", body: cmd_report },
    Command { name: "top", synopsis: "<host:port>", body: cmd_top },
    Command { name: "list", synopsis: "", body: cmd_list },
    Command { name: "help", synopsis: "", body: cmd_help },
];

/// One meaning of one flag: its value placeholder (`None` for a switch),
/// the commands that take it with this meaning, and one line of help.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    commands: &'static [&'static str],
    help: &'static str,
}

/// The commands that simulate, those that also report live, and those that
/// emit pipeline metrics and event timelines.
const SIMULATE: &[&str] = &["run", "explain", "compare", "sweep"];
const LIVE: &[&str] = &["run", "explain", "sweep"];
const OBSERVE: &[&str] = &["run", "explain", "compare", "sweep", "simpoint", "gen"];

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--predictor", value: Some("name"), commands: &["run", "explain"], help: "the stock predictor to simulate (`mbpsim list` names them)" },
    Flag { name: "--predictors", value: Some("a,b,..."), commands: &["compare", "sweep"], help: "comma-separated stock predictors; compare takes two" },
    Flag { name: "--trace", value: Some("file"), commands: &["run", "explain", "compare", "sweep", "simpoint", "info"], help: "the SBBT trace to read (.sbbt, .sbbt.mzst or .sbbt.mgz)" },
    Flag { name: "--warmup", value: Some("N"), commands: SIMULATE, help: "instructions simulated before statistics are collected (default 0)" },
    Flag { name: "--max", value: Some("N"), commands: SIMULATE, help: "stop after N instructions" },
    Flag { name: "--track-only-conditional", value: None, commands: SIMULATE, help: "call `track` for conditional branches only" },
    Flag { name: "--introspect", value: None, commands: SIMULATE, help: "collect end-of-run table-health probes into an `introspection` section" },
    Flag { name: "--timeseries-out", value: Some("file"), commands: LIVE, help: "write per-window rows as CSV and add `metrics.timeseries` to the JSON" },
    Flag { name: "--window", value: Some("N"), commands: LIVE, help: "time-series window in instructions (default 100000; implies the series)" },
    Flag { name: "--quiet", value: None, commands: LIVE, help: "suppress the live progress line on stderr" },
    Flag { name: "--telemetry-listen", value: Some("addr"), commands: LIVE, help: "serve /metrics, /snapshot and /healthz while the command runs (port 0 picks one)" },
    Flag { name: "--telemetry-hold-ms", value: Some("N"), commands: LIVE, help: "keep serving the final state for N ms after the work finishes (default 0)" },
    Flag { name: "--metrics", value: None, commands: OBSERVE, help: "add pipeline metrics to the JSON and print a one-screen summary on stderr" },
    Flag { name: "--metrics-out", value: Some("file"), commands: OBSERVE, help: "also write the metrics object to <file>" },
    Flag { name: "--trace-out", value: Some("file"), commands: OBSERVE, help: "write a Chrome trace-event timeline (Perfetto, chrome://tracing)" },
    Flag { name: "--events-out", value: Some("file"), commands: OBSERVE, help: "write the raw event journal as JSONL" },
    Flag { name: "--sample-every", value: Some("N"), commands: OBSERVE, help: "sample throughput gauges every N batches (default 64, 0 disables)" },
    Flag { name: "--top", value: Some("K"), commands: &["explain"], help: "hard-to-predict branches in the forensic report (default 10)" },
    Flag { name: "--out", value: Some("report.json"), commands: &["explain"], help: "write the forensic report here instead of stdout" },
    Flag { name: "--jobs", value: Some("N"), commands: &["sweep"], help: "worker threads (default 0: one per core, capped at the predictor count)" },
    Flag { name: "--checkpoint", value: Some("file.jsonl"), commands: &["sweep"], help: "append each settled predictor to a JSONL checkpoint, fsync'd per record" },
    Flag { name: "--resume", value: None, commands: &["sweep"], help: "settle the predictors --checkpoint already records from it; run the rest" },
    Flag { name: "--deadline-secs", value: Some("S"), commands: &["sweep"], help: "per-predictor watchdog: a stuck predictor fails as `deadline`" },
    Flag { name: "--mem-budget-mb", value: Some("N"), commands: &["sweep"], help: "admit predictors while their size hints fit; one too large alone fails" },
    Flag { name: "--phases", value: Some("phases.json"), commands: &["sweep"], help: "simulate the plan's slices only (not with --max, --warmup, --window, --timeseries-out)" },
    Flag { name: "--window", value: Some("N"), commands: &["simpoint"], help: "basic-block-vector window in instructions (default 100000)" },
    Flag { name: "--clusters", value: Some("K"), commands: &["simpoint"], help: "maximum k-means clusters (default 8)" },
    Flag { name: "--warmup-windows", value: Some("N"), commands: &["simpoint"], help: "windows of warm-up replay before each slice (default 1)" },
    Flag { name: "--out", value: Some("phases.json"), commands: &["simpoint"], help: "write the phases document here instead of stdout" },
    Flag { name: "--suite", value: Some("name"), commands: &["gen"], help: "cbp5-training, cbp5-evaluation, dpc3 or smoke" },
    Flag { name: "--scale", value: Some("N"), commands: &["gen"], help: "trace length multiplier (default 1)" },
    Flag { name: "--out", value: Some("dir"), commands: &["gen"], help: "the directory to write the traces into" },
    Flag { name: "--from", value: Some("file"), commands: &["translate"], help: "the BT9 or SBBT trace to read" },
    Flag { name: "--to", value: Some("file"), commands: &["translate"], help: "the trace to write; its extension picks format and codec" },
    Flag { name: "--threshold", value: Some("PCT"), commands: &["stats-diff"], help: "the change that counts as a regression, in percent (default 5)" },
    Flag { name: "--out", value: Some("report.html"), commands: &["report"], help: "write the HTML here instead of stdout" },
    Flag { name: "--interval-ms", value: Some("N"), commands: &["top"], help: "repaint interval (default 500)" },
    Flag { name: "--once", value: None, commands: &["top"], help: "render one frame and exit (also when stdout is not a TTY)" },
];

/// The usage text, rendered from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut text = String::from("usage:");
    for c in COMMANDS {
        text += format!("\n  mbpsim {} {}", c.name, c.synopsis).trim_end();
    }
    text += "\n\nflags, and the commands that take them:";
    for f in FLAGS {
        let value = f.value.map(|v| format!(" <{v}>")).unwrap_or_default();
        let flag = format!("{}{value}", f.name);
        text += &format!("\n  {flag:<28} {}\n      {}", f.commands.join(", "), f.help);
    }
    text
}

/// A usage error that prints the usage text after its message.
fn usage_error(message: impl std::fmt::Display) -> Failure {
    Failure::usage(format!("{message}\n{}", usage()))
}

/// A command line checked against [`FLAGS`]: its command, its operands, and
/// each flag it gives with its value (`None` for a switch).
struct Args {
    command: &'static Command,
    operands: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Checks the words after the command once, before its body runs: each
    /// flag must be one the command takes, given once, with its value.
    fn parse(command: &'static Command, words: Vec<String>) -> Result<Self, Failure> {
        let name = command.name;
        let mut args = Args {
            command,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                args.operands.push(word);
                continue;
            }
            let rows = || FLAGS.iter().filter(|f| f.name == word);
            let Some(flag) = rows().find(|f| f.commands.contains(&name)) else {
                return Err(usage_error(match rows().next() {
                    Some(_) => format!("mbpsim {name} does not take {word}"),
                    None => format!("unknown flag {word}"),
                }));
            };
            if args.flag(flag.name) {
                return Err(usage_error(format!("{word} is given twice")));
            }
            let value = flag
                .value
                .map(|_| words.next().filter(|v| !v.starts_with("--")));
            if value == Some(None) {
                return Err(usage_error(format!("{word} needs a value")));
            }
            args.flags.push((flag.name, value.flatten()));
        }
        match args.operands.first() {
            Some(word) if !command.synopsis.starts_with('<') => Err(usage_error(format!(
                "mbpsim {name} takes no operand {word:?}"
            ))),
            _ => Ok(args),
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(name, _)| *name == key)?;
        value.as_deref()
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == key)
    }

    /// The command's operands, which its synopsis says number `N`.
    fn operands<const N: usize>(&self) -> Result<[&str; N], Failure> {
        let words: Vec<&str> = self.operands.iter().map(String::as_str).collect();
        let Command { name, synopsis, .. } = self.command;
        words
            .try_into()
            .map_err(|_| usage_error(format!("expected: mbpsim {name} {synopsis}")))
    }

    fn required(&self, key: &str) -> Result<&str, Failure> {
        self.get(key)
            .ok_or_else(|| usage_error(format!("missing {key}")))
    }

    fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, Failure> {
        let invalid = |v| Failure::usage(format!("invalid value for {key}: {v}"));
        (self.get(key))
            .map(|v| v.parse().map_err(|_| invalid(v)))
            .transpose()
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Failure> {
        Ok(self.optional(key)?.unwrap_or(default))
    }
}

/// A stock predictor by name; an unknown name is a usage error.
fn predictor(name: &str) -> Result<Box<dyn Predictor + Send>, Failure> {
    by_name(name)
        .ok_or_else(|| Failure::usage(format!("unknown predictor {name:?}; try `mbpsim list`")))
}

/// Opens a trace; a failure is a trace error.
fn open_trace(path: &str) -> Result<SbbtReader, Failure> {
    SbbtReader::open(path).map_err(|e| Failure::trace(format!("cannot open {path}: {e}")))
}

/// Reads and parses a JSON file; `fail` gives a failure its exit code.
fn load_json(path: &str, fail: fn(String) -> Failure) -> Result<Value, Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    text.parse()
        .map_err(|e| fail(format!("cannot parse {path}: {e}")))
}

/// Writes an output file; a failure is an internal error.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::internal(format!("cannot write {path}: {e}")))
}

fn sim_config(args: &Args) -> Result<SimConfig, Failure> {
    // `--window N` tunes the window size and by itself enables the time
    // series; `--timeseries-out` enables it at the default window size.
    let default_window =
        (args.get("--timeseries-out")).map(|_| mbp::sim::DEFAULT_WINDOW_INSTRUCTIONS);
    let window = args.optional("--window")?;
    if window == Some(0) {
        return Err(Failure::usage(
            "--window must be a positive instruction count",
        ));
    }
    Ok(SimConfig {
        warmup_instructions: args.parsed("--warmup", 0)?,
        max_instructions: args.optional("--max")?,
        track_only_conditional: args.flag("--track-only-conditional"),
        timeseries_window: window.or(default_window),
        collect_probes: args.flag("--introspect"),
        ..SimConfig::default()
    })
}

/// Writes the `--timeseries-out` CSV when requested. Each `(label, series)`
/// pair contributes its windows as rows; with more than one predictor the
/// rows carry a leading `predictor` column and share one header.
fn emit_timeseries_csv(
    args: &Args,
    series: &[(Option<&str>, Option<&mbp::sim::TimeSeries>)],
) -> Result<(), Failure> {
    let Some(path) = args.get("--timeseries-out") else {
        return Ok(());
    };
    let mut csv = String::new();
    for (label, ts) in series {
        let Some(ts) = ts else { continue };
        let chunk = ts.to_csv(*label);
        if csv.is_empty() {
            csv.push_str(&chunk);
        } else {
            // Subsequent predictors repeat the header line; keep only one.
            csv.push_str(chunk.split_once('\n').map_or("", |(_, rows)| rows));
        }
    }
    write_file(path, csv)
}

/// Whether this invocation asked for pipeline metrics.
fn wants_metrics(args: &Args) -> bool {
    args.flag("--metrics") || args.get("--metrics-out").is_some()
}

/// Whether this invocation asked for an event timeline.
fn wants_events(args: &Args) -> bool {
    args.get("--trace-out").is_some() || args.get("--events-out").is_some()
}

/// Arms the event journal when `--trace-out`/`--events-out` was requested,
/// before the command's body runs, so the timeline holds every span the
/// pipeline timers count, the header inflate of its trace included. Also
/// applies `--sample-every`, whose value is checked even when nothing is
/// armed.
fn setup_events(args: &Args) -> Result<(), Failure> {
    let sample_every = args.parsed("--sample-every", mbp::stats::events::DEFAULT_SAMPLE_EVERY)?;
    if !wants_events(args) {
        return Ok(());
    }
    mbp::stats::events::set_sample_every(sample_every);
    mbp::stats::events::clear();
    mbp::stats::events::set_events_enabled(true);
    Ok(())
}

/// Drains the journal and writes the requested export files; call after the
/// simulation work. A final pipeline sample closes every counter track at
/// the run's end value before the drain.
fn emit_events(args: &Args) -> Result<(), Failure> {
    if !wants_events(args) {
        return Ok(());
    }
    mbp::stats::events::sample_pipeline();
    mbp::stats::events::set_events_enabled(false);
    let events = mbp::stats::events::drain();
    let dropped = mbp::stats::events::dropped_events();
    if let Some(warning) = mbp::events_export::dropped_events_warning(dropped) {
        eprintln!("{warning}");
    }
    if let Some(path) = args.get("--trace-out") {
        let doc = mbp::events_export::chrome_trace_json(&events, dropped);
        write_file(path, format!("{doc:#}\n"))?;
        eprintln!(
            "mbpsim: wrote {} events ({} dropped) to {path}",
            events.len(),
            dropped
        );
    }
    if let Some(path) = args.get("--events-out") {
        write_file(path, mbp::events_export::events_jsonl(&events))?;
    }
    Ok(())
}

/// Emits the pipeline-metrics object: merges its sections into `doc`'s
/// `metrics` object, writes it to `--metrics-out` when requested, and
/// prints the one-screen summary on stderr. Call after the simulation
/// work, so the metrics cover it.
fn emit_metrics(args: &Args, doc: Option<&mut Value>) -> Result<(), Failure> {
    if !wants_metrics(args) {
        return Ok(());
    }
    let stats = mbp::stats::pipeline();
    let dropped = mbp::stats::events::dropped_events();
    let metrics = mbp::report::metrics_document(stats, dropped, doc);
    if let Some(path) = args.get("--metrics-out") {
        write_file(path, format!("{metrics:#}\n"))?;
    }
    eprintln!("{}", mbp::report::human_summary(stats));
    Ok(())
}

/// Starts the telemetry listener when `--telemetry-listen` was passed.
/// Returns the running server paired with the `--telemetry-hold-ms` drain
/// window, whose value is checked even without a listener; call
/// [`mbp::telemetry::TelemetryServer::finish`] on it after the work so late
/// scrapers can still observe the final state.
fn start_telemetry(
    args: &Args,
    state: mbp::telemetry::TelemetryState,
) -> Result<Option<(mbp::telemetry::TelemetryServer, std::time::Duration)>, Failure> {
    let hold = std::time::Duration::from_millis(args.parsed("--telemetry-hold-ms", 0u64)?);
    let Some(addr) = args.get("--telemetry-listen") else {
        return Ok(None);
    };
    let server = mbp::telemetry::TelemetryServer::start(addr, state)
        .map_err(|e| Failure::internal(format!("cannot bind telemetry listener on {addr}: {e}")))?;
    // Greppable by drivers: with port 0 this is the only place the
    // ephemeral binding is reported.
    eprintln!(
        "mbpsim: telemetry listening on http://{}",
        server.local_addr()
    );
    Ok(Some((server, hold)))
}

/// The instruction total a command is expected to simulate per predictor:
/// the trace header's count, clamped by `--max`. `None` when the header
/// does not know (streamed/translated traces).
fn expected_instructions(header_count: u64, config: &SimConfig) -> Option<u64> {
    let total = match config.max_instructions {
        Some(max) => header_count.min(max),
        None => header_count,
    };
    (total > 0).then_some(total)
}

fn codec_for(path: &Path) -> Option<(Codec, u32)> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("mzst") => Some((Codec::Mzst, 22)),
        Some("mgz") => Some((Codec::Mgz, 6)),
        _ => None,
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, Failure> {
    let name = args.required("--predictor")?;
    let predictor = predictor(name)?;
    simulate_one(args, name, predictor, args.required("--trace")?, false)
}

/// `mbpsim explain <trace> <predictor>` — a run with the forensics engine
/// armed: the printed document carries a versioned `forensics` section
/// (top-K hard-to-predict branches with component attribution and the
/// misprediction coverage curve) alongside the usual run output.
fn cmd_explain(args: &Args) -> Result<ExitCode, Failure> {
    // Flag spelling, for symmetry with `run`; one spelling or the other.
    let [trace_path, name] = if args.operands.is_empty() {
        [args.required("--trace")?, args.required("--predictor")?]
    } else if args.flag("--trace") || args.flag("--predictor") {
        return Err(usage_error(
            "mbpsim explain takes its trace and predictor as operands or as flags, not both",
        ));
    } else {
        args.operands()?
    };
    simulate_one(args, name, predictor(name)?, trace_path, true)
}

/// The body of `run` and `explain`: one predictor over one trace, printed
/// as one document. `explain` arms the forensics engine with `--top`,
/// labels the progress line and writes the document to `--out` if given.
fn simulate_one(
    args: &Args,
    name: &str,
    mut predictor: Box<dyn Predictor + Send>,
    trace_path: &str,
    explain: bool,
) -> Result<ExitCode, Failure> {
    let mut trace = open_trace(trace_path)?;
    let forensics = if explain {
        let top_limit = args.parsed("--top", mbp::sim::ForensicsConfig::default().top_limit)?;
        if top_limit == 0 {
            return Err(Failure::usage("--top must be at least 1"));
        }
        Some(mbp::sim::ForensicsConfig { top_limit })
    } else {
        None
    };
    let mut config = SimConfig {
        forensics,
        ..sim_config(args)?
    };
    let label = explain.then_some("explain");
    // Telemetry wants a (single-slot) status board so /snapshot carries a
    // predictor row, which the driver fills while it scores; without the
    // flag the run pays for neither.
    let board = args
        .get("--telemetry-listen")
        .map(|_| std::sync::Arc::new(mbp::sim::SweepStatusBoard::new([name])));
    let telemetry = start_telemetry(
        args,
        mbp::telemetry::TelemetryState {
            kind: label.unwrap_or("run"),
            board: board.clone(),
            ..Default::default()
        },
    )?;
    if let Some(b) = &board {
        b.set_state(0, mbp::sim::PredictorState::Running);
        config.status = Some((std::sync::Arc::clone(b), 0));
    }
    let total = expected_instructions(trace.header().instruction_count, &config);
    let progress = mbp::progress::Progress::start(label, total, None, args.flag("--quiet"));
    let result = simulate(&mut trace, &mut predictor, &config);
    progress.finish();
    if let Some(b) = &board {
        match &result {
            Ok(r) => {
                b.set_totals(0, r.metadata.simulation_instr, r.metrics.mispredictions);
                b.set_state(0, mbp::sim::PredictorState::Settled);
            }
            Err(_) => b.set_state(0, mbp::sim::PredictorState::Failed),
        }
    }
    if let Some((server, hold)) = telemetry {
        server.finish(hold, None);
    }
    emit_events(args)?;
    let mut result = result.map_err(|e| Failure::trace(format!("simulation failed: {e}")))?;
    emit_timeseries_csv(args, &[(None, result.timeseries.as_ref())])?;
    result.metadata.trace = trace_path.into();
    let mut doc = result.to_json();
    emit_metrics(args, Some(&mut doc))?;
    match args.get("--out") {
        Some(path) => {
            write_file(path, format!("{doc:#}\n"))?;
            eprintln!("mbpsim: wrote forensic report to {path}");
        }
        None => println!("{doc:#}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, Failure> {
    let names = args.required("--predictors")?;
    let (a, b) = names
        .split_once(',')
        .ok_or_else(|| Failure::usage("expected --predictors <a>,<b>"))?;
    let mut pa = predictor(a.trim())?;
    let mut pb = predictor(b.trim())?;
    let trace_path = args.required("--trace")?;
    let mut trace = open_trace(trace_path)?;
    let result = simulate_comparison(&mut trace, &mut pa, &mut pb, &sim_config(args)?);
    emit_events(args)?;
    let mut result = result.map_err(|e| Failure::trace(format!("simulation failed: {e}")))?;
    result.trace = trace_path.into();
    let mut doc = result.to_json();
    emit_metrics(args, Some(&mut doc))?;
    println!("{doc:#}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &Args) -> Result<ExitCode, Failure> {
    let names = args.required("--predictors")?;
    let mut predictors = Vec::new();
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        predictors.push((name.to_string(), predictor(name)?));
    }
    if predictors.is_empty() {
        return Err(Failure::usage("expected --predictors <a>,<b>,..."));
    }
    let predictor_count = predictors.len();
    let trace_path = args.required("--trace")?;
    let deadline = match args.optional::<f64>("--deadline-secs")? {
        Some(secs) if !secs.is_finite() || secs <= 0.0 => {
            return Err(Failure::usage(format!(
                "--deadline-secs must be a positive number, got {secs}"
            )));
        }
        secs => secs.map(std::time::Duration::from_secs_f64),
    };
    let mem_budget =
        (args.optional::<u64>("--mem-budget-mb")?).map(|mb| mb.saturating_mul(1024 * 1024));
    let checkpoint = args.get("--checkpoint").map(PathBuf::from);
    let resume = args.flag("--resume");
    if resume && checkpoint.is_none() {
        return Err(Failure::usage("--resume requires --checkpoint <file>"));
    }
    let phases = match args.get("--phases") {
        None => None,
        Some(path) => {
            // The plan already fixes which instructions are simulated and
            // how each slice is warmed; flags that re-slice the trace would
            // silently invalidate its weights.
            for conflicting in ["--max", "--warmup", "--window", "--timeseries-out"] {
                if args.get(conflicting).is_some() {
                    return Err(Failure::usage(format!(
                        "{conflicting} cannot be combined with --phases: the sampling \
                         plan already fixes the simulated slices and their warm-up"
                    )));
                }
            }
            let doc = load_json(path, Failure::trace)?;
            let plan = mbp::sim::PhasesDoc::from_json(&doc)
                .map_err(|e| Failure::trace(format!("{path}: {e}")))?;
            Some(plan)
        }
    };
    let mut trace = open_trace(trace_path)?;
    mbp::shutdown::install();
    // Telemetry wants the live per-predictor board; without the flag the
    // sweep engine skips all status publishing (config.status = None).
    let board = args.get("--telemetry-listen").map(|_| {
        std::sync::Arc::new(mbp::sim::SweepStatusBoard::new(
            predictors.iter().map(|(name, _)| name.as_str()),
        ))
    });
    let config = SweepConfig {
        sim: sim_config(args)?,
        jobs: args.parsed("--jobs", 0usize)?,
        deadline,
        mem_budget,
        checkpoint,
        resume,
        shutdown: Some(mbp::shutdown::requested),
        phases,
        status: board.clone(),
    };
    let sampling = config.phases.as_ref().map(|plan| {
        mbp::json::json!({
            "simulated_fraction": plan.planned_fraction(),
            "phases": plan.phases.len() as u64,
            "window_size": plan.window_size,
        })
    });
    let telemetry = start_telemetry(
        args,
        mbp::telemetry::TelemetryState {
            kind: "sweep",
            board,
            deadline_secs: config.deadline.map(|d| d.as_secs_f64()),
            checkpoint: config.checkpoint.as_ref().map(|p| p.display().to_string()),
            resume,
            sampling,
            shutdown: Some(mbp::shutdown::requested),
        },
    )?;
    let total = expected_instructions(trace.header().instruction_count, &config.sim)
        .map(|per| per.saturating_mul(predictor_count as u64));
    let sampled_fraction = config.phases.as_ref().map(|p| p.planned_fraction());
    let progress =
        mbp::progress::Progress::start(None, total, sampled_fraction, args.flag("--quiet"));
    let result = simulate_many(&mut trace, predictors, &config);
    progress.finish();
    if let Some((server, hold)) = telemetry {
        // A pending SIGINT cuts the hold short so Ctrl-C still drains the
        // listener promptly.
        server.finish(hold, Some(mbp::shutdown::requested));
    }
    emit_events(args)?;
    let mut result = result.map_err(|e| Failure::trace(format!("sweep failed: {e}")))?;
    emit_timeseries_csv(
        args,
        &result
            .entries
            .iter()
            .map(|e| (Some(e.name.as_str()), e.result.timeseries.as_ref()))
            .collect::<Vec<_>>(),
    )?;
    result.trace = trace_path.into();
    for entry in &mut result.entries {
        entry.result.metadata.trace = trace_path.into();
    }
    let mut doc = result.to_json();
    emit_metrics(args, Some(&mut doc))?;
    println!("{doc:#}");
    for failure in &result.failures {
        eprintln!(
            "mbpsim: predictor {:?} failed ({}): {}",
            failure.name, failure.kind, failure.message
        );
    }
    if result.interrupted {
        // The JSON above is a valid partial sweep (checkpointed if asked);
        // the dedicated code lets drivers distinguish "operator stopped us"
        // from "a predictor broke".
        eprintln!(
            "mbpsim: sweep interrupted; {} predictor(s) not run",
            result.not_run.len()
        );
        Ok(ExitCode::from(EXIT_INTERRUPTED))
    } else if result.failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        // The JSON above is complete (survivors ranked, failures listed);
        // the exit code tells drivers the sweep was only partially healthy.
        Ok(ExitCode::from(EXIT_PARTIAL_SWEEP))
    }
}

fn cmd_simpoint(args: &Args) -> Result<ExitCode, Failure> {
    let trace_path = args.required("--trace")?;
    let window: u64 = args.parsed("--window", 100_000u64)?;
    if window == 0 {
        return Err(Failure::usage(
            "--window must be a positive instruction count",
        ));
    }
    let clusters: usize = args.parsed("--clusters", 8usize)?;
    if clusters == 0 {
        return Err(Failure::usage("--clusters must be at least 1"));
    }
    let warmup_windows: usize = args.parsed("--warmup-windows", 1usize)?;
    let mut trace = open_trace(trace_path)?;
    let records = trace
        .read_all()
        .map_err(|e| Failure::trace(format!("cannot read {trace_path}: {e}")))?;
    let plan = mbp::sim::extract_phases_with_warmup(&records, window, clusters, warmup_windows);
    emit_events(args)?;
    emit_metrics(args, None)?;
    let doc = plan.to_json();
    match args.get("--out") {
        Some(path) => {
            write_file(path, format!("{doc:#}\n"))?;
            eprintln!(
                "mbpsim: {} windows -> {} phases ({:.1}% of instructions planned), wrote {path}",
                plan.num_windows,
                plan.phases.len(),
                100.0 * plan.planned_fraction()
            );
        }
        None => println!("{doc:#}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(args: &Args) -> Result<ExitCode, Failure> {
    let scale = args.parsed("--scale", 1u64)?;
    let suite = match args.required("--suite")? {
        "cbp5-training" => Suite::cbp5_training(scale),
        "cbp5-evaluation" => Suite::cbp5_evaluation(scale),
        "dpc3" => Suite::dpc3(scale),
        "smoke" => Suite::smoke(),
        other => return Err(Failure::usage(format!("unknown suite {other:?}"))),
    };
    let out = PathBuf::from(args.required("--out")?);
    std::fs::create_dir_all(&out)
        .map_err(|e| Failure::internal(format!("cannot create {}: {e}", out.display())))?;
    for spec in &suite.traces {
        let path = out.join(format!("{}.sbbt.mzst", spec.name));
        let mut writer = SbbtWriter::create_compressed(&path, Codec::Mzst, 22)
            .map_err(|e| Failure::internal(format!("cannot create {}: {e}", path.display())))?;
        for record in spec.records() {
            writer
                .write_record(&record)
                .map_err(|e| Failure::internal(format!("write failed: {e}")))?;
        }
        let branches = writer.branch_count();
        let instructions = writer.instruction_count();
        writer
            .finish_compressed()
            .map_err(|e| Failure::internal(format!("finish failed: {e}")))?;
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "{}: {} branches, {} instructions, {} bytes",
            path.display(),
            branches,
            instructions,
            size
        );
    }
    println!(
        "wrote {} traces from suite {}",
        suite.traces.len(),
        suite.name
    );
    emit_events(args)?;
    emit_metrics(args, None)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats_diff(args: &Args) -> Result<ExitCode, Failure> {
    let [baseline, candidate] = args.operands()?;
    let threshold_pct: f64 = args.parsed("--threshold", 5.0)?;
    if !threshold_pct.is_finite() || threshold_pct < 0.0 {
        return Err(Failure::usage("--threshold must be a non-negative percent"));
    }
    let a = load_json(baseline, Failure::internal)?;
    let b = load_json(candidate, Failure::internal)?;
    let report = mbp::diff::diff_metrics(&a, &b, &mbp::diff::DiffOptions { threshold_pct });
    print!("{}", report.render());
    if report.has_regressions() {
        Ok(ExitCode::from(EXIT_REGRESSION))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_report(args: &Args) -> Result<ExitCode, Failure> {
    let [path] = args.operands()?;
    let html = mbp::html_report::render_html(&load_json(path, Failure::internal)?);
    match args.get("--out") {
        Some(out) => {
            write_file(out, &html)?;
            eprintln!("mbpsim: wrote {} bytes to {out}", html.len());
        }
        None => print!("{html}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate_trace(args: &Args) -> Result<ExitCode, Failure> {
    let [path] = args.operands()?;
    let doc = load_json(path, Failure::internal)?;
    let check = mbp::events_export::validate_chrome_trace(&doc)
        .map_err(|e| Failure::internal(format!("{path}: {e}")))?;
    println!(
        "{path}: ok — {} events across {} threads ({} dropped by producer)",
        check.events, check.threads, check.dropped
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_translate(args: &Args) -> Result<ExitCode, Failure> {
    let from = PathBuf::from(args.required("--from")?);
    let to = PathBuf::from(args.required("--to")?);
    let from_name = from.to_string_lossy();
    let records = if from_name.contains(".bt9") {
        let trace = bt9::open(&from)
            .map_err(|e| Failure::trace(format!("cannot parse {from_name}: {e}")))?;
        trace.records().collect::<Vec<_>>()
    } else {
        open_trace(&from_name)?
            .read_all()
            .map_err(|e| Failure::trace(format!("cannot read {from_name}: {e}")))?
    };

    let to_name = to.to_string_lossy().to_string();
    if to_name.contains(".bt9") {
        let text = translate::records_to_bt9(&records);
        let bytes = match codec_for(&to) {
            Some((codec, level)) => mbp::compress::compress(text.as_bytes(), codec, level)
                .map_err(|e| Failure::internal(format!("compress failed: {e}")))?,
            None => text.into_bytes(),
        };
        write_file(&to_name, bytes)?;
    } else {
        match codec_for(&to) {
            Some((codec, level)) => {
                let mut w = SbbtWriter::create_compressed(&to, codec, level)
                    .map_err(|e| Failure::internal(format!("cannot create {to_name}: {e}")))?;
                for r in &records {
                    w.write_record(r)
                        .map_err(|e| Failure::internal(format!("write failed: {e}")))?;
                }
                w.finish_compressed()
                    .map_err(|e| Failure::internal(format!("finish failed: {e}")))?;
            }
            None => {
                let mut w = SbbtWriter::create(&to)
                    .map_err(|e| Failure::internal(format!("cannot create {to_name}: {e}")))?;
                for r in &records {
                    w.write_record(r)
                        .map_err(|e| Failure::internal(format!("write failed: {e}")))?;
                }
                w.finish()
                    .map_err(|e| Failure::internal(format!("finish failed: {e}")))?;
            }
        }
    }
    println!(
        "translated {} records: {} -> {}",
        records.len(),
        from_name,
        to_name
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_top(args: &Args) -> Result<ExitCode, Failure> {
    let [addr] = args.operands()?;
    let interval_ms: u64 = args.parsed("--interval-ms", 500u64)?;
    let opts = mbp::top::TopOptions {
        addr: addr.to_string(),
        interval: std::time::Duration::from_millis(interval_ms.max(50)),
        once: args.flag("--once"),
    };
    mbp::top::run_top(&opts).map_err(Failure::internal)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_info(args: &Args) -> Result<ExitCode, Failure> {
    let trace_path = args.required("--trace")?;
    let mut reader = open_trace(trace_path)?;
    let header = *reader.header();
    let mut conditional = 0u64;
    let mut taken = 0u64;
    let mut calls = 0u64;
    let mut rets = 0u64;
    let mut indirect = 0u64;
    while let Some(rec) = reader
        .next_record()
        .map_err(|e| Failure::trace(format!("cannot read {trace_path}: {e}")))?
    {
        let b = rec.branch;
        conditional += b.is_conditional() as u64;
        taken += b.is_taken() as u64;
        indirect += b.opcode().is_indirect() as u64;
        match b.opcode().kind() {
            mbp::trace::BranchKind::Call => calls += 1,
            mbp::trace::BranchKind::Ret => rets += 1,
            mbp::trace::BranchKind::Jump => {}
        }
    }
    println!("trace:            {trace_path}");
    println!("instructions:     {}", header.instruction_count);
    println!("branches:         {}", header.branch_count);
    println!(
        "branch density:   {:.1}%",
        100.0 * header.branch_count as f64 / header.instruction_count.max(1) as f64
    );
    println!("conditional:      {conditional}");
    println!("taken:            {taken}");
    println!("indirect:         {indirect}");
    println!("calls / returns:  {calls} / {rets}");
    Ok(ExitCode::SUCCESS)
}

/// Replaces the default panic handler (multi-line message plus backtrace
/// pointer) with a one-line structured error, so that even a bug that slips
/// past the typed error paths never dumps a backtrace at a fleet driver
/// scraping stderr.
fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            s
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.as_str()
        } else {
            "unknown panic"
        };
        let message = message.lines().next().unwrap_or("unknown panic");
        match info.location() {
            Some(loc) => eprintln!("mbpsim: internal error at {loc}: {message}"),
            None => eprintln!("mbpsim: internal error: {message}"),
        }
    }));
}

fn cmd_list(_: &Args) -> Result<ExitCode, Failure> {
    for name in PREDICTOR_NAMES {
        println!("{name}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_help(_: &Args) -> Result<ExitCode, Failure> {
    println!("{}", usage());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    install_panic_hook();
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprintln!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => Args::parse(command, argv.collect()).and_then(|args| {
            setup_events(&args)?;
            (command.body)(&args)
        }),
        None => Err(usage_error(format!("unknown command {name:?}"))),
    };
    match result {
        Ok(code) => code,
        Err(Failure { code, message }) => {
            eprintln!("mbpsim: {message}");
            ExitCode::from(code)
        }
    }
}
