//! Behavioural properties of the synthetic workload suites — the contract
//! that makes them a usable stand-in for the CBP5/DPC3 sets.

use mbp::examples::{Bimodal, Gshare, Tage, TageConfig};
use mbp::sim::{simulate, Predictor, SimConfig, SliceSource};
use mbp::workloads::{ProgramParams, Suite, TraceGenerator};

fn mpki(records: &[mbp::trace::BranchRecord], p: &mut dyn Predictor) -> f64 {
    let mut source = SliceSource::new(records);
    simulate(&mut source, p, &SimConfig::default())
        .expect("in-memory")
        .metrics
        .mpki
}

#[test]
fn suites_regenerate_identically() {
    let a = Suite::cbp5_training(1);
    let b = Suite::cbp5_training(1);
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.name, tb.name);
        assert_eq!(ta.records(), tb.records(), "{} must regenerate", ta.name);
    }
}

#[test]
fn category_difficulty_ordering() {
    // SERVER categories must be harder than MOBILE for the same predictor
    // (the CBP5 sets' defining property).
    let suite = Suite::cbp5_training(1);
    let mobile = suite
        .traces
        .iter()
        .find(|t| t.name.starts_with("SHORT_MOBILE"))
        .expect("mobile trace");
    let server = suite
        .traces
        .iter()
        .find(|t| t.name.starts_with("SHORT_SERVER"))
        .expect("server trace");
    let m = mpki(&mobile.records(), &mut Gshare::new(15, 14));
    let s = mpki(&server.records(), &mut Gshare::new(15, 14));
    assert!(m < s, "mobile {m:.2} should be easier than server {s:.2}");
}

#[test]
fn every_training_trace_is_predictable_but_not_trivial() {
    for spec in &Suite::cbp5_training(1).traces {
        let records = spec.records();
        let m = mpki(&records, &mut Tage::new(TageConfig::small()));
        assert!(m < 60.0, "{}: TAGE MPKI {m:.1} absurdly high", spec.name);
        let b = mpki(&records, &mut Bimodal::new(13));
        assert!(
            b > 0.05,
            "{}: bimodal MPKI {b:.2} suspiciously perfect",
            spec.name
        );
    }
}

#[test]
fn generator_stream_matches_materialized_records() {
    // Streaming the generator through the simulator must equal simulating
    // the materialized records (TraceSource equivalence).
    let params = ProgramParams::int_speed();
    let records = TraceGenerator::from_params(&params, 42).take_instructions(150_000);
    let mut materialized = SliceSource::new(&records);
    let cfg = SimConfig {
        max_instructions: Some(100_000),
        ..SimConfig::default()
    };
    let a = simulate(&mut materialized, &mut Gshare::new(12, 12), &cfg).expect("runs");

    let mut streaming = TraceGenerator::from_params(&params, 42);
    let b = simulate(&mut streaming, &mut Gshare::new(12, 12), &cfg).expect("runs");

    assert_eq!(a.metrics.mispredictions, b.metrics.mispredictions);
    assert_eq!(a.metadata.simulation_instr, b.metadata.simulation_instr);
    assert!(!b.metadata.exhausted_trace, "generator stream is endless");
}

#[test]
fn dpc3_traces_flow_through_the_champsim_pipeline() {
    use mbp::baselines::champsim::{ChampsimConfig, Cpu, TargetPredictorChoice};
    use mbp::trace::champsim::{ChampsimReader, ChampsimWriter};

    let spec = &Suite::dpc3(1).traces[0];
    let records: Vec<_> = spec.generator().take_instructions(60_000);
    let mut w = ChampsimWriter::new(Vec::new());
    for r in &records {
        w.write_branch_record(r).expect("in-memory write");
    }
    let bytes = w.finish().expect("finish");
    let reader = ChampsimReader::from_reader(&bytes[..]).expect("open");
    let mut cpu = Cpu::new(
        ChampsimConfig::ice_lake_like(),
        Box::new(Gshare::new(14, 13)),
        TargetPredictorChoice::btb_with_gshare_indirect(),
    );
    let stats = cpu.run(reader, None);
    assert!(stats.instructions > 50_000);
    assert!(stats.ipc > 0.1 && stats.ipc <= 6.0, "IPC {:.2}", stats.ipc);
}

#[test]
fn long_traces_expose_phase_changes() {
    // LONG traces exist to "measure how the predictor adapts to changes in
    // the program behavior" (§II): a long trace must not be uniformly
    // easy; its per-window misprediction rate should vary.
    let suite = Suite::cbp5_training(1);
    let spec = suite
        .traces
        .iter()
        .find(|t| t.name.starts_with("LONG_SERVER"))
        .expect("long trace");
    let records = spec.records();
    let mut p = Gshare::new(15, 14);
    let window = records.len() / 8;
    let mut rates = Vec::new();
    for chunk in records.chunks(window) {
        let mut mis = 0u64;
        for r in chunk {
            let b = r.branch;
            if b.is_conditional() {
                mis += (p.predict(b.ip()) != b.is_taken()) as u64;
                p.train(&b);
            }
            p.track(&b);
        }
        rates.push(mis as f64 / chunk.len() as f64);
    }
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        max > min * 1.15,
        "per-window misprediction rate should vary: {rates:?}"
    );
}

#[test]
fn generator_take_instructions_is_consistent_with_hint() {
    let mut gen = TraceGenerator::from_params(&ProgramParams::mobile(), 5);
    let records = gen.take_instructions(50_000);
    let total: u64 = records.iter().map(|r| r.instructions()).sum();
    assert!(total >= 50_000);
}
