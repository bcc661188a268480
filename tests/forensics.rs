//! End-to-end misprediction forensics: on phase-heavy synthetic workloads
//! the attribution engine's top-10 hard-to-predict set must explain at
//! least the pinned fraction of all mispredictions for every stock
//! predictor, component attribution must be present for the composite
//! predictors, the forensic report must agree with `most_failed` branch
//! by branch, and — the other side of the contract — forensics disabled
//! must leave the simulation output exactly as it was.

use mbp::examples::by_name;
use mbp::sim::{simulate, ForensicsConfig, SimConfig, SliceSource, FORENSICS_SCHEMA_VERSION};
use mbp::trace::BranchRecord;
use mbp::workloads::{ProgramParams, TraceGenerator};

/// The eight stock predictors the forensics contract is pinned against.
const STOCK_PREDICTORS: [&str; 8] = [
    "bimodal",
    "two-level",
    "gshare",
    "gselect",
    "tournament",
    "hashed-perceptron",
    "tage",
    "batage",
];

/// The top-10 H2P set must explain at least this fraction of all
/// mispredictions (documented bound; also enforced by ci.sh on the smoke
/// trace). The floor is committed per workload: media/int concentrates its
/// miss mass (worst predictor ≥ 0.92 measured), while mobile/server spreads
/// it across ~90 mispredicting static branches, so its top-10 coverage
/// plateaus near 0.54 for the strongest predictors — the floor below pins
/// that shape against regression without overstating it.
const MIN_TOP10_COVERAGE_CONCENTRATED: f64 = 0.60;
const MIN_TOP10_COVERAGE_FLAT: f64 = 0.50;

/// Alternating slabs of two different synthetic programs — the same
/// phase-heavy construction the sampling accuracy suite pins.
fn phase_workload(
    a: &ProgramParams,
    b: &ProgramParams,
    seed: u64,
    slabs: usize,
    slab_instructions: u64,
) -> Vec<BranchRecord> {
    let mut gen_a = TraceGenerator::from_params(a, seed);
    let mut gen_b = TraceGenerator::from_params(b, seed + 1);
    let mut records = Vec::new();
    for i in 0..slabs {
        let source = if i % 2 == 0 { &mut gen_a } else { &mut gen_b };
        records.extend(source.take_instructions(slab_instructions));
    }
    records
}

fn forensic_config() -> SimConfig {
    SimConfig {
        forensics: Some(ForensicsConfig::default()),
        ..SimConfig::default()
    }
}

fn assert_workload_coverage(records: &[BranchRecord], floor: f64, label: &str) {
    for name in STOCK_PREDICTORS {
        let mut p = by_name(name).expect("stock predictor");
        let result = simulate(&mut SliceSource::new(records), &mut *p, &forensic_config())
            .expect("forensic sim");
        let report = result.forensics.as_ref().expect("forensics section");
        assert_eq!(
            report["schema_version"].as_u64(),
            Some(FORENSICS_SCHEMA_VERSION)
        );
        let coverage = report["coverage"].as_array().expect("coverage curve");
        let last = coverage.last().expect("non-empty coverage");
        let top_n = last["top_n"].as_u64().unwrap();
        let fraction = last["fraction"].as_f64().unwrap();
        assert!(top_n <= 10, "{label}/{name}: top set larger than 10");
        assert!(
            fraction >= floor,
            "{label}/{name}: top-{top_n} branches cover only {fraction:.3} \
             of mispredictions (< {floor})"
        );
        // The composite predictors must attribute their mispredictions to
        // a component; single-table predictors report no attribution.
        let attributed = report["top"].as_array().unwrap().iter().any(|b| {
            b["attribution"]
                .as_object()
                .is_some_and(|m| m.keys().count() > 0)
        });
        match name {
            "tournament" | "tage" | "batage" => assert!(
                attributed,
                "{label}/{name}: no component attribution in the top set"
            ),
            _ => assert!(
                !attributed,
                "{label}/{name}: unexpected attribution from a simple predictor"
            ),
        }
    }
}

#[test]
fn top10_covers_most_mispredictions_on_mobile_server_phases() {
    let records = phase_workload(
        &ProgramParams::mobile(),
        &ProgramParams::server(),
        7,
        20,
        10_000,
    );
    assert_workload_coverage(&records, MIN_TOP10_COVERAGE_FLAT, "mobile/server");
}

#[test]
fn top10_covers_most_mispredictions_on_media_int_phases() {
    let records = phase_workload(
        &ProgramParams::media(),
        &ProgramParams::int_speed(),
        11,
        20,
        10_000,
    );
    assert_workload_coverage(&records, MIN_TOP10_COVERAGE_CONCENTRATED, "media/int");
}

#[test]
fn forensics_is_a_pure_observer() {
    // Forensics on vs off must not change a single simulation result:
    // identical metrics and per-predictor statistics, and the off document
    // must not even carry the section.
    let records = phase_workload(
        &ProgramParams::mobile(),
        &ProgramParams::server(),
        7,
        6,
        10_000,
    );
    for name in ["gshare", "tournament", "tage"] {
        let mut on = by_name(name).unwrap();
        let mut off = by_name(name).unwrap();
        let with = simulate(
            &mut SliceSource::new(&records),
            &mut *on,
            &forensic_config(),
        )
        .unwrap();
        let without = simulate(
            &mut SliceSource::new(&records),
            &mut *off,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(without.forensics.is_none());
        // Wall-clock metadata differs between runs; the simulated outcome
        // must not.
        assert_eq!(
            with.metrics.mispredictions, without.metrics.mispredictions,
            "{name}: misprediction counts diverged"
        );
        assert_eq!(
            with.metrics.mpki, without.metrics.mpki,
            "{name}: mpki diverged"
        );
        assert_eq!(
            with.metrics.accuracy, without.metrics.accuracy,
            "{name}: accuracy diverged"
        );
    }
}

#[test]
fn explain_report_is_deterministic() {
    let records = phase_workload(
        &ProgramParams::media(),
        &ProgramParams::int_speed(),
        11,
        6,
        10_000,
    );
    let run = || {
        let mut p = by_name("tage").unwrap();
        simulate(&mut SliceSource::new(&records), &mut *p, &forensic_config())
            .unwrap()
            .forensics
            .unwrap()
            .to_string()
    };
    assert_eq!(run(), run(), "forensic report must be run-to-run stable");
}

#[test]
fn forensic_rows_equal_most_failed_rows_when_branches_share_slots() {
    // Eight server programs back to back hold hundreds of static branches,
    // so some share a slot of the per-branch accumulator's direct-mapped
    // front and trade places all run long; the report must still read the
    // exact counts `most_failed` shows.
    let records: Vec<BranchRecord> = (0..8)
        .flat_map(|seed| {
            TraceGenerator::from_params(&ProgramParams::server(), seed).take_records(37_500)
        })
        .collect();
    for name in ["gshare", "tournament"] {
        let mut p = by_name(name).expect("stock predictor");
        let config = SimConfig {
            most_failed_limit: usize::MAX,
            forensics: Some(ForensicsConfig {
                top_limit: usize::MAX,
            }),
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&records), &mut *p, &config).expect("forensic sim");
        let report = r.forensics.as_ref().expect("forensics section");
        let top = report["top"].as_array().expect("top rows");
        assert!(
            top.len() > 100,
            "{name}: {} mispredicting branches",
            top.len()
        );
        let mut covered = 0;
        for (k, row) in top.iter().enumerate() {
            let m = &r.most_failed[k];
            let at = format!("{name}: row {k}, branch {:#x}", m.ip);
            assert_eq!(row["ip"].as_u64(), Some(m.ip), "{at}");
            assert_eq!(row["occurrences"].as_u64(), Some(m.occurrences), "{at}");
            assert_eq!(
                row["mispredictions"].as_u64(),
                Some(m.mispredictions),
                "{at}"
            );
            assert_eq!(
                row["transition_rate"].as_f64(),
                Some(m.transition_rate),
                "{at}"
            );
            assert_eq!(
                row["direction_entropy"].as_f64(),
                Some(m.direction_entropy),
                "{at}"
            );
            assert_eq!(row["mpki"].as_f64(), Some(m.mpki), "{at}");
            covered += m.mispredictions;
            assert_eq!(
                report["coverage"][k]["mispredictions"].as_u64(),
                Some(covered),
                "{at}"
            );
        }
        assert_eq!(
            report["tracked_branches"].as_u64(),
            Some(r.branch_taxonomy.measured_branches),
            "{name}"
        );
    }
}
