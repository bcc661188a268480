//! §VII-C: "MBPlib can be used as a replacement of the CBP5 framework …
//! we checked that the simulation results of both frameworks were
//! identical." This test enforces that property for every stock predictor.

use mbp::baselines::cbp5::{run_framework_text, McbpAdapter};
use mbp::examples::{
    Batage, BatageConfig, Bimodal, Gshare, HashedPerceptron, Tage, TageConfig, Tournament,
    TwoBcGskew, TwoLevel,
};
use mbp::sim::{simulate, Predictor, SimConfig, SliceSource};
use mbp::trace::{translate, BranchRecord};
use mbp::workloads::Suite;

fn suite_records() -> Vec<(String, Vec<BranchRecord>)> {
    Suite::smoke()
        .traces
        .iter()
        .map(|t| (t.name.clone(), t.records()))
        .collect()
}

fn assert_identical<P, Q>(name: &str, mut lib_pred: P, fw_pred: Q, records: &[BranchRecord])
where
    P: Predictor,
    Q: Predictor,
{
    let bt9 = translate::records_to_bt9(records).to_text();
    let mut adapter = McbpAdapter::new(fw_pred);
    let framework = run_framework_text(&bt9, &mut adapter).expect("framework run");

    let mut source = SliceSource::new(records);
    let library = simulate(&mut source, &mut lib_pred, &SimConfig::default()).expect("sim run");

    assert_eq!(
        framework.mispredictions, library.metrics.mispredictions,
        "{name}: mispredictions differ between CBP5 framework and MBPlib"
    );
    assert_eq!(
        framework.num_conditional_branches, library.metadata.num_conditional_branches,
        "{name}: conditional branch counts differ"
    );
    assert_eq!(
        framework.instructions, library.metadata.simulation_instr,
        "{name}: instruction counts differ"
    );
    assert_eq!(framework.mpki, library.metrics.mpki, "{name}: MPKI differs");
}

#[test]
fn bimodal_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(&name, Bimodal::new(12), Bimodal::new(12), &recs);
    }
}

#[test]
fn two_level_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(&name, TwoLevel::gas(10, 8), TwoLevel::gas(10, 8), &recs);
    }
}

#[test]
fn gshare_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(&name, Gshare::new(15, 13), Gshare::new(15, 13), &recs);
    }
}

#[test]
fn tournament_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(
            &name,
            Tournament::classic(12),
            Tournament::classic(12),
            &recs,
        );
    }
}

#[test]
fn gskew_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(
            &name,
            TwoBcGskew::new(14, 12),
            TwoBcGskew::new(14, 12),
            &recs,
        );
    }
}

#[test]
fn perceptron_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(
            &name,
            HashedPerceptron::new(vec![4, 8, 16, 32], 12),
            HashedPerceptron::new(vec![4, 8, 16, 32], 12),
            &recs,
        );
    }
}

#[test]
fn tage_identical_across_simulators() {
    // TAGE uses a seeded RNG; determinism across the two drivers is part of
    // what this test proves.
    for (name, recs) in suite_records() {
        assert_identical(
            &name,
            Tage::new(TageConfig::small()),
            Tage::new(TageConfig::small()),
            &recs,
        );
    }
}

#[test]
fn batage_identical_across_simulators() {
    for (name, recs) in suite_records() {
        assert_identical(
            &name,
            Batage::new(BatageConfig::small()),
            Batage::new(BatageConfig::small()),
            &recs,
        );
    }
}
