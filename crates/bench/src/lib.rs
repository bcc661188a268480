//! Shared harness code for the table-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table of the paper's
//! evaluation (see DESIGN.md's per-experiment index); this library holds
//! the pieces they share: materialized trace bundles in every format,
//! wall-clock measurement, and the slowest/average/fastest summaries of
//! Table III.

use std::time::Instant;

use mbp_compress::{compress, Codec};
use mbp_core::Predictor;
use mbp_trace::{translate, BranchRecord};
use mbp_workloads::{Suite, TraceSpec};

pub mod harness;

/// A trace materialized in every on-disk representation the evaluation
/// compares.
pub struct TraceBundle {
    /// Trace display name.
    pub name: String,
    /// The branch records (ground truth).
    pub records: Vec<BranchRecord>,
    /// Instructions covered.
    pub instructions: u64,
    /// SBBT, compressed with MZST at the paper's level 22.
    pub sbbt_mzst: Vec<u8>,
    /// BT9 text, compressed with MGZ (the original distribution format).
    pub bt9_mgz: Vec<u8>,
    /// BT9 text, compressed with MZST (for Table IV).
    pub bt9_mzst: Vec<u8>,
    /// Raw sizes before compression: (sbbt, bt9, champsim-or-0).
    pub raw_sizes: (usize, usize, usize),
    /// ChampSim-format trace, compressed with MGZ (only built on request —
    /// it is 64 bytes *per instruction*).
    pub champsim_mgz: Option<Vec<u8>>,
}

impl TraceBundle {
    /// Materializes a suite spec in the branch-trace formats.
    ///
    /// # Panics
    ///
    /// Panics on encode failures (impossible for generated records).
    pub fn build(spec: &TraceSpec) -> Self {
        Self::build_with(spec, false)
    }

    /// Like [`TraceBundle::build`], also materializing the per-instruction
    /// ChampSim-format trace.
    pub fn build_full(spec: &TraceSpec) -> Self {
        Self::build_with(spec, true)
    }

    fn build_with(spec: &TraceSpec, with_champsim: bool) -> Self {
        let records = spec.records();
        let instructions = records.iter().map(|r| r.instructions()).sum();
        let sbbt = translate::records_to_sbbt(&records).expect("generated records encode");
        let bt9 = translate::records_to_bt9(&records).to_text();
        let champsim = with_champsim
            .then(|| translate::records_to_champsim(&records).expect("in-memory write"));
        let raw_sizes = (sbbt.len(), bt9.len(), champsim.as_ref().map_or(0, Vec::len));
        TraceBundle {
            name: spec.name.clone(),
            instructions,
            sbbt_mzst: compress(&sbbt, Codec::Mzst, 22).expect("level valid"),
            bt9_mgz: compress(bt9.as_bytes(), Codec::Mgz, 6).expect("level valid"),
            bt9_mzst: compress(bt9.as_bytes(), Codec::Mzst, 22).expect("level valid"),
            champsim_mgz: champsim.map(|c| compress(&c, Codec::Mgz, 6).expect("level valid")),
            records,
            raw_sizes,
        }
    }

    /// Materializes a whole suite (branch formats only).
    pub fn build_suite(suite: &Suite) -> Vec<TraceBundle> {
        suite.traces.iter().map(TraceBundle::build).collect()
    }

    /// Materializes a whole suite including the ChampSim format.
    pub fn build_suite_full(suite: &Suite) -> Vec<TraceBundle> {
        suite.traces.iter().map(TraceBundle::build_full).collect()
    }
}

/// Wall-clock measurement of a closure, returning `(seconds, value)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Slowest / average / fastest of a set of per-trace timings — the summary
/// shape of Table III.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Maximum seconds.
    pub slowest: f64,
    /// Mean seconds.
    pub average: f64,
    /// Minimum seconds.
    pub fastest: f64,
}

impl Summary {
    /// Summarizes timings.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(times: &[f64]) -> Self {
        assert!(!times.is_empty(), "need at least one timing");
        Summary {
            slowest: times.iter().cloned().fold(f64::MIN, f64::max),
            average: times.iter().sum::<f64>() / times.len() as f64,
            fastest: times.iter().cloned().fold(f64::MAX, f64::min),
        }
    }
}

/// Formats a duration with adaptive units (`ms`, `s`, `min`).
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.2} s")
    } else {
        format!("{:.2} min", seconds / 60.0)
    }
}

/// Formats a byte count with adaptive units.
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KB {
        format!("{bytes} B")
    } else if b < KB * KB {
        format!("{:.1} kB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1} MB", b / KB / KB)
    } else {
        format!("{:.2} GB", b / KB / KB / KB)
    }
}

/// A factory building one fresh predictor per benchmark iteration. The
/// boxes are `Send` so they can feed `mbp_core::simulate_many` directly.
pub type PredictorFactory = Box<dyn Fn() -> Box<dyn Predictor + Send>>;

/// The eight predictor configurations of Table III, in table order. Their
/// modelled storage (`storage_bits`) is 64 KiB for Bimodal, Two-Level,
/// GShare and 2bc-gskew, 48 KiB for the tournament, 56 KiB for the hashed
/// perceptron, 23.75 KiB for TAGE and 25.25 KiB for BATAGE.
pub fn table3_predictors() -> Vec<(&'static str, PredictorFactory)> {
    use mbp_predictors::*;
    vec![
        (
            "Bimodal",
            Box::new(|| Box::new(Bimodal::new(18)) as Box<dyn Predictor + Send>),
        ),
        (
            "Two-Level",
            Box::new(|| Box::new(TwoLevel::gas(12, 6)) as Box<dyn Predictor + Send>),
        ),
        (
            "GShare",
            Box::new(|| Box::new(Gshare::new(25, 18)) as Box<dyn Predictor + Send>),
        ),
        (
            "Tournament",
            Box::new(|| Box::new(Tournament::classic(16)) as Box<dyn Predictor + Send>),
        ),
        (
            "2bc-gskew",
            Box::new(|| Box::new(TwoBcGskew::new(16, 16)) as Box<dyn Predictor + Send>),
        ),
        (
            "Hashed Perc",
            Box::new(|| Box::new(HashedPerceptron::default_config()) as Box<dyn Predictor + Send>),
        ),
        (
            "TAGE",
            Box::new(|| {
                Box::new(Tage::new(TageConfig::default_64kb())) as Box<dyn Predictor + Send>
            }),
        ),
        (
            "BATAGE",
            Box::new(|| {
                Box::new(Batage::new(BatageConfig::default_64kb())) as Box<dyn Predictor + Send>
            }),
        ),
    ]
}

/// Parses a `--scale N` argument (default 1).
pub fn scale_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_extremes() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.slowest, 3.0);
        assert_eq!(s.fastest, 1.0);
        assert_eq!(s.average, 2.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(0.5), "500.00 ms");
        assert_eq!(fmt_time(5.0), "5.00 s");
        assert_eq!(fmt_time(180.0), "3.00 min");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 kB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MB");
    }

    #[test]
    fn bundle_builds_all_formats() {
        let suite = Suite::smoke();
        let bundle = TraceBundle::build_full(&suite.traces[0]);
        assert!(!bundle.records.is_empty());
        assert!(bundle.sbbt_mzst.len() > 8);
        assert!(bundle.bt9_mgz.len() > 8);
        assert!(bundle.champsim_mgz.as_ref().unwrap().len() > 8);
        assert!(
            bundle.raw_sizes.2 > bundle.raw_sizes.0,
            "champsim raw biggest"
        );
    }

    #[test]
    fn table3_has_eight_predictors() {
        let preds = table3_predictors();
        assert_eq!(preds.len(), 8);
        for (name, build) in preds {
            let p = build();
            assert!(!p.metadata().is_null(), "{name}");
        }
    }
}
