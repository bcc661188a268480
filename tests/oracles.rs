//! Independent oracles for the analyses that ride on the batched driver.
//!
//! The comparison simulator must report, for each side, exactly what a
//! standalone run of that predictor reports, and its divergence list must be
//! the per-branch difference of the two standalone `most_failed` reports. A
//! phase-sampled run must report, for every phase, exactly what the
//! one-record-at-a-time reference driver measures when it replays the same
//! slices in the same order through one predictor instance. Each window of
//! a time series must count the distinct conditional branches that a plain
//! set counts over the window's records.

use std::collections::{BTreeMap, BTreeSet};

use mbp::examples::by_name;
use mbp::sim::{
    extract_phases_with_warmup, simulate, simulate_comparison, simulate_sampled, simulate_scalar,
    Phase, SimConfig, SimResult, SliceSource,
};
use mbp::trace::sbbt::BATCH_RECORDS;
use mbp::trace::BranchRecord;
use mbp::workloads::{ProgramParams, Suite, TraceGenerator};

/// Instructions covered by the first `n` records.
fn instructions_after(records: &[BranchRecord], n: usize) -> u64 {
    records.iter().take(n).map(|r| r.instructions()).sum()
}

/// Warm-up and cut-off configurations on (and one instruction off) batch
/// boundaries, each with a `most_failed` list long enough for every branch.
fn configs(records: &[BranchRecord]) -> Vec<(&'static str, SimConfig)> {
    let batch1 = instructions_after(records, BATCH_RECORDS);
    let batch2 = instructions_after(records, 2 * BATCH_RECORDS);
    [
        ("default", 0, None),
        ("warmup", batch1 + 1, None),
        ("max", 0, Some(batch2 - 1)),
        ("warmup+max", batch1, Some(batch2)),
    ]
    .into_iter()
    .map(|(label, warmup, max)| {
        (
            label,
            SimConfig {
                warmup_instructions: warmup,
                max_instructions: max,
                most_failed_limit: usize::MAX,
                ..SimConfig::default()
            },
        )
    })
    .collect()
}

/// `(occurrences, mispredictions, taken)` per measured branch.
fn per_branch(result: &SimResult) -> BTreeMap<u64, (u64, u64, u64)> {
    result
        .most_failed
        .iter()
        .map(|s| (s.ip, (s.occurrences, s.mispredictions, s.taken)))
        .collect()
}

fn standalone(records: &[BranchRecord], name: &str, config: &SimConfig) -> SimResult {
    let mut predictor = by_name(name).expect("stock predictor");
    simulate(&mut SliceSource::new(records), &mut predictor, config).expect("in-memory run")
}

#[test]
fn comparison_sides_match_standalone_runs() {
    for spec in &Suite::smoke().traces {
        let records = spec.records();
        for (label, config) in configs(&records) {
            for (first, second) in [("gshare", "tage"), ("bimodal", "tournament")] {
                let case = format!("{}/{label}/{first}-vs-{second}", spec.name);
                let mut a = by_name(first).expect("stock predictor");
                let mut b = by_name(second).expect("stock predictor");
                let cmp =
                    simulate_comparison(&mut SliceSource::new(&records), &mut a, &mut b, &config)
                        .expect("in-memory comparison");
                let sides = [
                    standalone(&records, first, &config),
                    standalone(&records, second, &config),
                ];
                for (k, side) in sides.iter().enumerate() {
                    assert_eq!(cmp.mispredictions[k], side.metrics.mispredictions, "{case}");
                    assert_eq!(cmp.mpki[k], side.metrics.mpki, "{case}");
                    assert_eq!(cmp.accuracy[k], side.metrics.accuracy, "{case}");
                }
                let meta = &sides[0].metadata;
                assert_eq!(cmp.simulation_instr, meta.simulation_instr, "{case}");
                assert_eq!(
                    cmp.num_conditional_branches, meta.num_conditional_branches,
                    "{case}"
                );
                assert_eq!(
                    cmp.only_a_wrong as i64 - cmp.only_b_wrong as i64,
                    cmp.mispredictions[0] as i64 - cmp.mispredictions[1] as i64,
                    "{case}: exclusive misses must account for the difference"
                );

                // Both runs measure the same branches; the divergence list is
                // exactly the branches they mispredict a different number of
                // times.
                let (pa, pb) = (per_branch(&sides[0]), per_branch(&sides[1]));
                assert!(
                    pa.keys().eq(pb.keys()),
                    "{case}: measured branch sets differ"
                );
                let expected: BTreeMap<u64, (u64, u64, u64)> = pa
                    .iter()
                    .zip(pb.values())
                    .filter(|((_, a), b)| a.1 != b.1)
                    .map(|((&ip, a), b)| (ip, (a.0, a.1, b.1)))
                    .collect();
                let diverging: BTreeMap<u64, (u64, u64, u64)> = cmp
                    .most_diverging
                    .iter()
                    .map(|d| {
                        (
                            d.ip,
                            (d.occurrences, d.mispredictions_a, d.mispredictions_b),
                        )
                    })
                    .collect();
                assert_eq!(diverging, expected, "{case}: divergence list");
                for d in &cmp.most_diverging {
                    let difference = (d.mispredictions_a as f64 - d.mispredictions_b as f64)
                        * 1000.0
                        / cmp.simulation_instr as f64;
                    assert_eq!(d.mpki_difference, difference, "{case}: {:#x}", d.ip);
                }
            }
        }
    }
}

#[test]
fn sampled_phases_match_slice_by_slice_scalar_replays() {
    let config = SimConfig {
        most_failed_limit: usize::MAX,
        ..SimConfig::default()
    };
    for spec in &Suite::smoke().traces {
        let records = spec.records();
        let plan = extract_phases_with_warmup(&records, 2_000, 8, 2);
        let mut order: Vec<&Phase> = plan.phases.iter().collect();
        order.sort_by_key(|p| p.start_record);
        for name in ["gshare", "tage"] {
            let case = format!("{}/{name}", spec.name);
            let mut predictor = by_name(name).expect("stock predictor");
            let sampled = simulate_sampled(&records, &mut predictor, &plan, &config);
            let section = sampled.sampling.as_ref().expect("simpoint section");
            let entries = section["phases"].as_array().expect("phases array");
            assert_eq!(entries.len(), order.len(), "{case}");

            // One predictor instance replays every slice in trace order.
            let mut oracle = by_name(name).expect("stock predictor");
            let mut replay = |start: usize, len: usize| {
                let slice = &records[start..start + len];
                simulate_scalar(&mut SliceSource::new(slice), &mut oracle, &config)
                    .expect("in-memory replay")
            };
            let (mut measured, mut replayed, mut conditional) = (0u64, 0u64, 0u64);
            let mut branches: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
            for (entry, phase) in entries.iter().zip(&order) {
                let warmup_mpki = if phase.warmup_records > 0 {
                    let w = replay(phase.warmup_start_record, phase.warmup_records);
                    assert_eq!(w.metadata.simulation_instr, phase.warmup_instructions);
                    replayed += w.metadata.simulation_instr;
                    w.metrics.mpki
                } else {
                    0.0
                };
                let m = replay(phase.start_record, phase.num_records);
                let at = format!("{case}/cluster {}", phase.cluster);
                assert_eq!(
                    entry["cluster"].as_u64(),
                    Some(phase.cluster as u64),
                    "{at}"
                );
                assert_eq!(
                    entry["instructions"].as_u64(),
                    Some(m.metadata.simulation_instr),
                    "{at}"
                );
                assert_eq!(
                    entry["conditional_branches"].as_u64(),
                    Some(m.metadata.num_conditional_branches),
                    "{at}"
                );
                assert_eq!(
                    entry["mispredictions"].as_u64(),
                    Some(m.metrics.mispredictions),
                    "{at}"
                );
                assert_eq!(entry["mpki"].as_f64(), Some(m.metrics.mpki), "{at}");
                assert_eq!(entry["warmup_mpki"].as_f64(), Some(warmup_mpki), "{at}");
                measured += m.metadata.simulation_instr;
                conditional += m.metadata.num_conditional_branches;
                for (ip, (occurrences, mispredictions, taken)) in per_branch(&m) {
                    let e = branches.entry(ip).or_default();
                    e.0 += occurrences;
                    e.1 += mispredictions;
                    e.2 += taken;
                }
            }
            assert_eq!(sampled.metadata.simulation_instr, measured, "{case}");
            assert_eq!(sampled.metadata.warmup_instr, replayed, "{case}");
            assert_eq!(
                sampled.metadata.num_conditional_branches, conditional,
                "{case}"
            );
            assert_eq!(per_branch(&sampled), branches, "{case}: most_failed");
        }
    }
}

/// The large-footprint trace of the driver-equivalence suite: over 10 000
/// static conditional branches.
fn footprint_records() -> Vec<BranchRecord> {
    let params = ProgramParams {
        functions: 50,
        stmts_per_function: (2000, 4000),
        stmt_weights: [1, 6, 2, 1, 3],
        trip_range: (1, 3),
        ..ProgramParams::server()
    };
    TraceGenerator::from_params(&params, 0xF007_9817).take_records(400_000)
}

#[test]
fn timeseries_unique_branches_match_a_plain_set_per_window() {
    let records = footprint_records();
    let config = SimConfig {
        timeseries_window: Some(20_000),
        ..SimConfig::default()
    };
    let series = standalone(&records, "gshare", &config)
        .timeseries
        .expect("series requested");
    // A record belongs to the window its last instruction falls in.
    let (mut at, mut rest) = (0u64, records.iter().peekable());
    let mut seen = BTreeSet::new();
    for (i, w) in series.windows.iter().enumerate() {
        let end = w.start_instruction + w.instructions;
        let mut ips = BTreeSet::new();
        while let Some(r) = rest.next_if(|r| at + r.instructions() <= end) {
            at += r.instructions();
            if r.branch.is_conditional() {
                ips.insert(r.branch.ip());
            }
        }
        assert_eq!(w.unique_branches, ips.len() as u64, "window {i}");
        seen.extend(ips);
    }
    assert!(rest.next().is_none(), "every record is in a window");
    assert!(seen.len() >= 10_000, "{} static", seen.len());
}
