//! Regenerates **Table II**: the predictors included in the examples
//! library — and, beyond the paper's static list, demonstrates each one
//! running (MPKI on a reference trace), which is the table's pedagogical
//! point: from bimodal to BATAGE, newer predictors predict better.
//!
//! Run: `cargo run --release -p mbp-bench --bin table2_predictors`

use mbp_bench::{table3_predictors, timed};
use mbp_core::{simulate, SimConfig, SliceSource};
use mbp_workloads::{ProgramParams, TraceGenerator};

/// Timed runs per predictor, each with a fresh predictor and source: single
/// cold runs of one row spread by up to 2.7× on a shared host, so a row
/// reports the median with the fastest and slowest run beside it.
const RUNS: usize = 7;

fn main() {
    println!("Table II — branch predictors included in the examples library\n");
    let records = TraceGenerator::from_params(&ProgramParams::server(), 0x7ab1e2)
        .take_instructions(2_000_000);
    println!(
        "reference trace: SERVER-like, {} branches / {} instructions\n",
        records.len(),
        2_000_000
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>17}  reference",
        "Predictor", "MPKI", "accuracy", "sim time", "range"
    );
    for (name, build) in table3_predictors() {
        let runs: Vec<_> = (0..RUNS)
            .map(|_| {
                let mut predictor = build();
                let mut source = SliceSource::new(&records);
                timed(|| {
                    simulate(&mut source, &mut *predictor, &SimConfig::default())
                        .expect("in-memory")
                })
            })
            .collect();
        let result = &runs[0].1;
        for (_, other) in &runs {
            assert_eq!(
                (other.metrics.mpki, other.metrics.accuracy),
                (result.metrics.mpki, result.metrics.accuracy),
                "{name}: a repeated run predicted differently"
            );
        }
        let mut ms: Vec<f64> = runs.iter().map(|(seconds, _)| seconds * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let reference = match name {
            "Bimodal" => "Lee & Smith 1983",
            "Two-Level" => "Yeh & Patt 1992",
            "GShare" => "McFarling 1993",
            "Tournament" => "Evers et al. 1996",
            "2bc-gskew" => "Seznec & Michaud 1999",
            "Hashed Perc" => "Tarjan & Skadron 2005",
            "TAGE" => "Seznec & Michaud 2006",
            "BATAGE" => "Michaud 2018",
            _ => "",
        };
        println!(
            "{:<16} {:>10.4} {:>11.2}% {:>10.2}ms {:>17}  {}",
            name,
            result.metrics.mpki,
            100.0 * result.metrics.accuracy,
            ms[RUNS / 2],
            format!("{:.2}–{:.2}ms", ms[0], ms[RUNS - 1]),
            reference
        );
    }
    println!("\n(plus: always-taken / never-taken / BTFN statics, the loop");
    println!("predictor, the bias filter, and BTB / GShare-indirect / ITTAGE");
    println!("target predictors — see `mbp_predictors` docs)");
}
