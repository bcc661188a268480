//! CI regression guard for the decode-once batch pipeline.
//!
//! Two layers of protection for the struct-of-arrays hot path:
//!
//! * **Driver guard** — the batched driver's absolute throughput on each
//!   smoke trace must stay within 5% of the baselines recorded in
//!   `bench_tables.txt` when the SoA kernels landed, and the batched driver
//!   must still clearly beat the scalar reference (aggregate speedup
//!   floor), since instrumentation or abstraction leaking into the
//!   per-record loop would erase exactly that gap.
//! * **Kernel rows** — for every predictor with a hand-written
//!   [`Predictor::predict_batch`] kernel, the kernel is raced against the
//!   trait's default per-record loop over the same prebuilt batch. These
//!   rows are report-only (the reference side is a devirtualized scalar
//!   loop whose speed is layout-sensitive), but they are the source of the
//!   kernel-vs-scalar column in `bench_tables.txt` and make a silently
//!   disabled kernel (speedup ~1.0x) visible in every CI log.
//!
//! The speedup floor is deliberately far below the recorded aggregate: the
//! ratio moves whenever *either* driver shifts, and the scalar reference's
//! per-record dispatch loop is sensitive to code layout — the same sources
//! have measured anywhere from ~1.1x to ~1.9x across builds on one host.
//! The ratio check therefore only asserts the batched driver still
//! genuinely beats the scalar reference, while the absolute-throughput
//! check carries the 5% budget.
//!
//! Throughput is estimated best-of-3: each trace is measured in three
//! independent repetitions of 10 samples, the verdict uses the fastest
//! sample overall (the minimum is the robust estimator on a shared
//! machine), and the spread between the best and worst repetition is
//! printed so a noisy host is visible in the log rather than silently
//! folded into the estimate. On a machine slower than the one the
//! baselines were recorded on, scale the floors with
//! `MBP_BENCH_GUARD_SCALE=<factor>` (e.g. `0.5`), or set it to `0` to turn
//! the absolute checks into reports only.
//!
//! Run: `cargo run --release -p mbp-bench --bin bench_guard`

use mbp_bench::harness::{black_box, BenchGroup, Throughput};
use mbp_core::{
    simulate, simulate_scalar, Branch, PredictionBits, Predictor, SimConfig, TraceSource,
};
use mbp_json::{json, Value};
use mbp_predictors::{Bimodal, GSelect, Gshare, TwoBcGskew, TwoLevel};
use mbp_trace::sbbt::SbbtReader;
use mbp_trace::{translate, BranchBatch};
use mbp_workloads::Suite;

/// Batched-path throughput recorded in `bench_tables.txt` when the
/// struct-of-arrays kernels landed, in instructions per second, keyed by
/// smoke-trace name.
const BASELINE_INSTR_PER_S: [(&str, f64); 2] = [("SMOKE-mobile", 763e6), ("SMOKE-server", 360e6)];

/// Allowed regression on absolute batched throughput: within 5%.
const TOLERANCE: f64 = 0.95;

/// Coarse floor on the aggregate batched/scalar speedup (layout-sensitive —
/// see the module docs): batched must beat scalar.
const SPEEDUP_FLOOR: f64 = 1.05;

/// Timed repetitions per trace; the verdict uses the best, the log shows
/// the spread across them.
const REPS: usize = 3;

/// Timed samples within one repetition (3 × 10 keeps the total at the 30
/// samples the single-repetition guard used).
const SAMPLES_PER_REP: usize = 10;

/// Relative spread of a set of per-repetition times: `(worst - best) /
/// best`, as a percentage. Zero for fewer than two repetitions.
fn spread_pct(times: &[f64]) -> f64 {
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = times.iter().copied().fold(0.0f64, f64::max);
    if !best.is_finite() || best <= 0.0 {
        return 0.0;
    }
    (worst - best) / best * 100.0
}

/// Forwards `P`'s scalar calls while hiding its `predict_batch` override,
/// so the trait's default per-record loop runs — the reference side of the
/// kernel-vs-scalar rows.
struct NoKernel<P>(P);

impl<P: Predictor> Predictor for NoKernel<P> {
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

/// Races `make()`'s `predict_batch` kernel against the default per-record
/// loop over one prebuilt batch and returns `(kernel_best_s,
/// scalar_loop_best_s)` in seconds. Each sample constructs a fresh
/// predictor so both sides pay the identical table-allocation cost and
/// neither carries trained state between samples.
fn kernel_race<P: Predictor>(
    name: &str,
    make: impl Fn() -> P,
    batch: &BranchBatch,
    instructions: u64,
) -> (f64, f64) {
    let mut group = BenchGroup::new(format!("bench_guard/kernel/{name}"));
    group
        .sample_size(SAMPLES_PER_REP)
        .throughput(Throughput::Elements(instructions));
    let kernel = group.bench_function("predict_batch_kernel", || {
        let mut p = make();
        let mut out = PredictionBits::new();
        p.predict_batch(batch, false, &mut out);
        black_box(out.len())
    });
    let scalar = group.bench_function("scalar_call_loop", || {
        let mut p = NoKernel(make());
        let mut out = PredictionBits::new();
        p.predict_batch(batch, false, &mut out);
        black_box(out.len())
    });
    group.finish();
    (kernel.fastest, scalar.fastest)
}

fn main() {
    let scale = std::env::var("MBP_BENCH_GUARD_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.0);

    // With MBP_BENCH_TELEMETRY=1 the whole guard runs next to a live but
    // unscraped telemetry listener, so the 5% absolute-throughput envelope
    // also covers the listener's standing cost (an accept poll every 20ms —
    // the hot path itself is never locked or signalled).
    let _telemetry = std::env::var("MBP_BENCH_TELEMETRY")
        .ok()
        .filter(|v| v == "1")
        .map(|_| {
            let server = mbp::telemetry::TelemetryServer::start(
                "127.0.0.1:0",
                mbp::telemetry::TelemetryState {
                    kind: "bench",
                    ..Default::default()
                },
            )
            .expect("bind telemetry listener");
            println!(
                "telemetry listener enabled on {} (unscraped)",
                server.local_addr()
            );
            server
        });

    let suite = Suite::smoke();
    let config = SimConfig::default();
    let (mut scalar_total, mut batched_total) = (0.0f64, 0.0f64);
    let mut failures = Vec::new();
    // Every row printed below is also collected here and written out as
    // machine-readable `BENCH_10.json`, so fleet drivers can track the
    // guard's numbers without scraping the log.
    let mut rows: Vec<Value> = Vec::new();

    for spec in &suite.traces {
        let records = spec.records();
        let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
        let sbbt = translate::records_to_sbbt(&records).expect("generated records encode");

        let mut reader = SbbtReader::from_decompressed(sbbt).expect("generated trace decodes");
        let mut rep_scalar = Vec::with_capacity(REPS);
        let mut rep_batched = Vec::with_capacity(REPS);
        for rep in 1..=REPS {
            let mut group = BenchGroup::new(format!("bench_guard/{}/rep{rep}", spec.name));
            group
                .sample_size(SAMPLES_PER_REP)
                .throughput(Throughput::Elements(instructions));
            let scalar = group.bench_function("scalar_next_record", || {
                reader.rewind();
                let source: &mut dyn TraceSource = &mut reader;
                let mut predictor = Gshare::new(25, 18);
                simulate_scalar(source, &mut predictor, &config).expect("sim")
            });
            let batched = group.bench_function("batched_fill_batch", || {
                reader.rewind();
                let source: &mut dyn TraceSource = &mut reader;
                let mut predictor = Gshare::new(25, 18);
                simulate(source, &mut predictor, &config).expect("sim")
            });
            group.finish();
            rep_scalar.push(scalar.fastest);
            rep_batched.push(batched.fastest);
        }
        let scalar_best = rep_scalar.iter().copied().fold(f64::INFINITY, f64::min);
        let batched_best = rep_batched.iter().copied().fold(f64::INFINITY, f64::min);
        let spread = spread_pct(&rep_batched);

        scalar_total += scalar_best;
        batched_total += batched_best;

        let throughput = instructions as f64 / batched_best;
        let baseline = BASELINE_INSTR_PER_S
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|(_, t)| *t);
        let baseline_value = baseline.map_or(Value::Null, Value::from);
        let pass = baseline.is_none_or(|base| throughput >= base * TOLERANCE * scale);
        rows.push(json!({
            "kind": "driver",
            "trace": spec.name.clone(),
            "instr_per_s": throughput,
            "baseline_instr_per_s": baseline_value,
            "speedup_over_scalar": scalar_best / batched_best,
            "spread_pct": spread,
            "pass": pass,
        }));
        match baseline {
            Some(base) => {
                let floor = base * TOLERANCE * scale;
                let verdict = if throughput >= floor { "ok" } else { "FAIL" };
                println!(
                    "{}: batched {:.0} Minstr/s best-of-{REPS} (baseline {:.0}, floor {:.0}) \
                     {verdict}, spread {spread:.1}%, speedup over scalar {:.2}x",
                    spec.name,
                    throughput / 1e6,
                    base / 1e6,
                    floor / 1e6,
                    scalar_best / batched_best,
                );
                if throughput < floor {
                    failures.push(format!(
                        "{}: batched throughput {:.0} Minstr/s below the {:.0} Minstr/s floor",
                        spec.name,
                        throughput / 1e6,
                        floor / 1e6
                    ));
                }
            }
            None => println!(
                "{}: batched {:.0} Minstr/s best-of-{REPS}, spread {spread:.1}% \
                 (no recorded baseline)",
                spec.name,
                throughput / 1e6
            ),
        }
    }

    let aggregate = scalar_total / batched_total;
    println!("aggregate batched/scalar speedup: {aggregate:.2}x (floor {SPEEDUP_FLOOR:.2}x)");
    if aggregate < SPEEDUP_FLOOR {
        failures.push(format!(
            "aggregate batched/scalar speedup {aggregate:.2}x below the {SPEEDUP_FLOOR:.2}x floor \
             (instrumentation leaking into the record loop?)"
        ));
    }
    rows.push(json!({
        "kind": "aggregate",
        "speedup_over_scalar": aggregate,
        "floor": SPEEDUP_FLOOR,
        "pass": aggregate >= SPEEDUP_FLOOR,
    }));

    // Kernel rows: every hand-written kernel raced against the default
    // per-record loop on the first smoke trace (report-only; see module
    // docs). The batch spans the whole trace so table pressure matches the
    // driver benchmarks above.
    let records = suite.traces[0].records();
    let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
    let batch = BranchBatch::from_records(&records);
    type MakePredictor = fn() -> Box<dyn Predictor>;
    let kernel_rows: [(&str, MakePredictor); 5] = [
        ("bimodal", || Box::new(Bimodal::new(18))),
        ("gshare", || Box::new(Gshare::new(25, 18))),
        ("gselect", || Box::new(GSelect::new(6, 12))),
        ("twolevel-pap", || Box::new(TwoLevel::pap(8, 10, 10))),
        ("2bc-gskew", || Box::new(TwoBcGskew::new(16, 21))),
    ];
    println!("kernel vs scalar-call loop ({}):", suite.traces[0].name);
    for (name, make) in kernel_rows {
        let (kernel, scalar) = kernel_race(name, make, &batch, instructions);
        println!(
            "  {name:<13} kernel {:>6.0} Minstr/s  scalar-loop {:>6.0} Minstr/s  speedup {:.2}x",
            instructions as f64 / kernel / 1e6,
            instructions as f64 / scalar / 1e6,
            scalar / kernel,
        );
        rows.push(json!({
            "kind": "kernel",
            "predictor": name,
            "trace": suite.traces[0].name.clone(),
            "kernel_instr_per_s": instructions as f64 / kernel,
            "scalar_loop_instr_per_s": instructions as f64 / scalar,
            "speedup": scalar / kernel,
        }));
    }

    let doc = json!({
        "schema_version": 1,
        "bench": "bench_guard",
        "scale": scale,
        "tolerance": TOLERANCE,
        "speedup_floor": SPEEDUP_FLOOR,
        "pass": failures.is_empty(),
        "rows": Value::Array(rows),
    });
    let json_out = std::env::var("MBP_BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_10.json".into());
    match std::fs::write(&json_out, format!("{doc:#}\n")) {
        Ok(()) => println!("bench rows written to {json_out}"),
        Err(e) => eprintln!("bench_guard: cannot write {json_out}: {e}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_guard: FAIL — {f}");
        }
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}
