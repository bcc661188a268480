//! The decode-once batch pipeline must be invisible in the results: the
//! per-record driver (`simulate_scalar`), the batched driver (`simulate`
//! over `fill_batch`), and the parallel sweep (`simulate_many`) produce
//! byte-identical JSON documents for the same predictor, trace and
//! configuration — including warm-up and `max_instructions` cut-offs that
//! land exactly on (or one instruction off) a batch boundary, with and
//! without the forensics and time-series observers.

use mbp::examples::{by_name, Gshare, Tage, TageConfig, PREDICTOR_NAMES};
use mbp::sim::{
    simulate, simulate_many, simulate_scalar, ForensicsConfig, Predictor, SimConfig, SimResult,
    SliceSource, SweepConfig, TraceSource,
};
use mbp::trace::sbbt::{SbbtReader, BATCH_RECORDS};
use mbp::trace::{translate, Branch, BranchRecord, Opcode};
use mbp::workloads::{ProgramParams, Suite, TraceGenerator};

/// Renders a result as the pretty JSON the CLI prints, with the only
/// run-dependent field (wall-clock simulation time) zeroed out.
fn canonical_json(mut result: SimResult) -> String {
    result.metrics.simulation_time = 0.0;
    result.to_json().to_pretty_string()
}

fn fresh_reader(sbbt: &[u8]) -> SbbtReader {
    SbbtReader::from_decompressed(sbbt.to_vec()).expect("generated trace decodes")
}

fn run_scalar(sbbt: &[u8], predictor: &mut dyn Predictor, config: &SimConfig) -> String {
    let mut reader = fresh_reader(sbbt);
    let source: &mut dyn TraceSource = &mut reader;
    canonical_json(simulate_scalar(source, predictor, config).expect("scalar sim"))
}

fn run_batched(sbbt: &[u8], predictor: &mut dyn Predictor, config: &SimConfig) -> String {
    let mut reader = fresh_reader(sbbt);
    let source: &mut dyn TraceSource = &mut reader;
    canonical_json(simulate(source, predictor, config).expect("batched sim"))
}

/// Instructions covered by the first `n` records: the boundary where the
/// batched driver's `n`-th record ends and the next batch begins.
fn instructions_after(records: &[BranchRecord], n: usize) -> u64 {
    records.iter().take(n).map(|r| r.instructions()).sum()
}

/// The cut-off configurations the batched driver must get right: defaults,
/// warm-up and instruction caps landing exactly on the first and second
/// batch boundary (and one instruction to either side), plus limits past
/// the end of the trace.
fn edge_configs(records: &[BranchRecord]) -> Vec<(String, SimConfig)> {
    assert!(
        records.len() > 2 * BATCH_RECORDS,
        "smoke trace must span several batches for boundary tests"
    );
    let batch1 = instructions_after(records, BATCH_RECORDS);
    let batch2 = instructions_after(records, 2 * BATCH_RECORDS);
    let total = instructions_after(records, records.len());

    let mut configs = vec![("default".to_string(), SimConfig::default())];
    for warmup in [batch1 - 1, batch1, batch1 + 1] {
        configs.push((
            format!("warmup={warmup}"),
            SimConfig {
                warmup_instructions: warmup,
                ..SimConfig::default()
            },
        ));
    }
    for max in [batch2 - 1, batch2, batch2 + 1, total, total + 1000] {
        configs.push((
            format!("max={max}"),
            SimConfig {
                max_instructions: Some(max),
                ..SimConfig::default()
            },
        ));
    }
    configs.push((
        "warmup-past-end".to_string(),
        SimConfig {
            warmup_instructions: total + 1000,
            ..SimConfig::default()
        },
    ));
    configs.push((
        "warmup-and-max-on-boundaries".to_string(),
        SimConfig {
            warmup_instructions: batch1,
            max_instructions: Some(batch2),
            ..SimConfig::default()
        },
    ));
    // The same cut-offs with the forensics engine and a time series armed:
    // their reports must be as driver-invisible as the headline metrics.
    let observed: Vec<(String, SimConfig)> = configs
        .iter()
        .map(|(label, config)| {
            (
                format!("{label}+forensics+timeseries"),
                SimConfig {
                    forensics: Some(ForensicsConfig::default()),
                    timeseries_window: Some(1_000),
                    ..config.clone()
                },
            )
        })
        .collect();
    configs.extend(observed);
    configs
}

/// A server-like program with long function bodies and short loops: over
/// 10 000 static conditional branches, so the per-branch tables double
/// several times where the smoke traces never fill their first size.
fn footprint_records() -> Vec<BranchRecord> {
    let params = ProgramParams {
        functions: 50,
        stmts_per_function: (2000, 4000),
        stmt_weights: [1, 6, 2, 1, 3],
        trip_range: (1, 3),
        ..ProgramParams::server()
    };
    let records = TraceGenerator::from_params(&params, 0xF007_9817).take_records(400_000);
    let conditional: std::collections::BTreeSet<u64> = (records.iter())
        .filter(|r| r.branch.is_conditional())
        .map(|r| r.branch.ip())
        .collect();
    assert!(conditional.len() >= 10_000, "{} static", conditional.len());
    records
}

#[test]
fn drivers_agree_at_a_large_static_footprint() {
    let records = footprint_records();
    let sbbt = translate::records_to_sbbt(&records).expect("records encode");
    let config = SimConfig {
        warmup_instructions: instructions_after(&records, 3 * BATCH_RECORDS + 7),
        timeseries_window: Some(50_000),
        forensics: Some(ForensicsConfig { top_limit: 50 }),
        most_failed_limit: 200,
        ..SimConfig::default()
    };
    let scalar = run_scalar(&sbbt, &mut Gshare::new(25, 18), &config);
    let batched = run_batched(&sbbt, &mut Gshare::new(25, 18), &config);
    assert_eq!(scalar, batched, "scalar and batched JSON diverge");

    let sweep_config = SweepConfig {
        sim: config,
        jobs: 1,
        ..SweepConfig::default()
    };
    let mut source = fresh_reader(&sbbt);
    let predictor: Box<dyn Predictor + Send> = Box::new(Gshare::new(25, 18));
    let sweep = simulate_many(
        &mut source,
        vec![("gshare".into(), predictor)],
        &sweep_config,
    )
    .expect("sweep");
    assert_eq!(canonical_json(sweep.entries[0].result.clone()), batched);
}

/// The per-branch table marks a free slot with address `u64::MAX`. No
/// trace file can hold that address, but an in-memory source can, and its
/// branch is counted like any other, by both drivers alike.
#[test]
fn a_branch_at_the_top_address_is_counted_like_any_other() {
    let records: Vec<BranchRecord> = (0..100u64)
        .map(|i| {
            let ip = if i % 2 == 0 { 0x40 } else { u64::MAX };
            let branch = Branch::new(ip, 0x80, Opcode::conditional_direct(), i % 3 == 0);
            BranchRecord::new(branch, 3)
        })
        .collect();
    let forensic = SimConfig {
        timeseries_window: Some(60),
        forensics: Some(ForensicsConfig::default()),
        ..SimConfig::default()
    };
    for config in [SimConfig::default(), forensic] {
        let scalar = simulate_scalar(
            &mut SliceSource::new(&records),
            &mut Gshare::new(25, 18),
            &config,
        )
        .expect("scalar sim");
        let batched = simulate(
            &mut SliceSource::new(&records),
            &mut Gshare::new(25, 18),
            &config,
        )
        .expect("batched sim");
        assert_eq!(batched.metadata.num_branch_instructions, 2);
        let mut listed: Vec<u64> = batched.most_failed.iter().map(|b| b.ip).collect();
        listed.sort_unstable();
        assert_eq!(listed, [0x40, u64::MAX]);
        assert_eq!(canonical_json(scalar), canonical_json(batched));
    }
}

#[test]
fn gshare_scalar_and_batched_json_identical() {
    for spec in &Suite::smoke().traces {
        let records = spec.records();
        let sbbt = translate::records_to_sbbt(&records).expect("records encode");
        for (label, config) in edge_configs(&records) {
            let scalar = run_scalar(&sbbt, &mut Gshare::new(25, 18), &config);
            let batched = run_batched(&sbbt, &mut Gshare::new(25, 18), &config);
            assert_eq!(
                scalar, batched,
                "{}/{label}: scalar and batched JSON diverge",
                spec.name
            );
        }
    }
}

#[test]
fn tage_scalar_and_batched_json_identical() {
    for spec in &Suite::smoke().traces {
        let records = spec.records();
        let sbbt = translate::records_to_sbbt(&records).expect("records encode");
        for (label, config) in edge_configs(&records) {
            let scalar = run_scalar(&sbbt, &mut Tage::new(TageConfig::small()), &config);
            let batched = run_batched(&sbbt, &mut Tage::new(TageConfig::small()), &config);
            assert_eq!(
                scalar, batched,
                "{}/{label}: scalar and batched JSON diverge",
                spec.name
            );
        }
    }
}

#[test]
fn sweep_entries_match_standalone_runs() {
    let spec = &Suite::smoke().traces[0];
    let records = spec.records();
    let names = ["gshare", "bimodal", "tournament", "two-level", "tage"];
    let predictors: Vec<(String, Box<dyn Predictor + Send>)> = names
        .iter()
        .map(|n| {
            (
                n.to_string(),
                by_name(n).unwrap_or_else(|| panic!("unknown predictor {n}")),
            )
        })
        .collect();

    let config = SweepConfig {
        sim: SimConfig::default(),
        jobs: 2,
        ..SweepConfig::default()
    };
    let mut source = SliceSource::named(&records, "traces/SMOKE.sbbt");
    let sweep = simulate_many(&mut source, predictors, &config).expect("sweep");
    assert_eq!(sweep.entries.len(), names.len());

    for name in names {
        let entry = sweep
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("sweep lost predictor {name}"));
        let mut standalone = by_name(name).expect("known predictor");
        let mut source = SliceSource::named(&records, "traces/SMOKE.sbbt");
        let direct = simulate(&mut source, &mut *standalone, &config.sim).expect("sim");
        assert_eq!(
            canonical_json(entry.result.clone()),
            canonical_json(direct),
            "{name}: sweep entry JSON differs from a standalone run"
        );
    }
}

#[test]
fn sweep_honours_cutoffs_like_standalone_runs() {
    let spec = &Suite::smoke().traces[1];
    let records = spec.records();
    let config = SweepConfig {
        sim: SimConfig {
            warmup_instructions: instructions_after(&records, BATCH_RECORDS),
            max_instructions: Some(instructions_after(&records, 2 * BATCH_RECORDS)),
            ..SimConfig::default()
        },
        jobs: 2,
        ..SweepConfig::default()
    };

    let predictors: Vec<(String, Box<dyn Predictor + Send>)> = ["gshare", "tage"]
        .iter()
        .map(|n| (n.to_string(), by_name(n).expect("known predictor")))
        .collect();
    let mut source = SliceSource::named(&records, "traces/SMOKE-cut.sbbt");
    let sweep = simulate_many(&mut source, predictors, &config).expect("sweep");

    for entry in &sweep.entries {
        let mut standalone = by_name(&entry.name).expect("known predictor");
        let mut source = SliceSource::named(&records, "traces/SMOKE-cut.sbbt");
        let direct = simulate(&mut source, &mut *standalone, &config.sim).expect("sim");
        assert_eq!(
            canonical_json(entry.result.clone()),
            canonical_json(direct),
            "{}: sweep entry diverges from standalone under cut-offs",
            entry.name
        );
    }
}

#[test]
fn every_stock_predictor_agrees_across_drivers_on_default_config() {
    // A broader (single-config) sweep across the whole predictor roster:
    // any driver-visible behavioural difference in predict/train/track
    // ordering shows up as a JSON diff here.
    let spec = &Suite::smoke().traces[0];
    let records = spec.records();
    let sbbt = translate::records_to_sbbt(&records).expect("records encode");
    let config = SimConfig::default();
    for name in PREDICTOR_NAMES {
        let mut scalar_pred = by_name(name).expect("roster predictor");
        let mut batched_pred = by_name(name).expect("roster predictor");
        let scalar = run_scalar(&sbbt, &mut *scalar_pred, &config);
        let batched = run_batched(&sbbt, &mut *batched_pred, &config);
        assert_eq!(scalar, batched, "{name}: drivers diverge");
    }
}
