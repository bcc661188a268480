//! The MBPlib *simulation library* (§III–§IV of the paper) — the paper's
//! primary contribution, rebuilt in Rust.
//!
//! MBPlib is a **library, not a framework**: your code owns `main`, builds a
//! predictor, and calls [`simulate`] (or [`simulate_comparison`]) on a trace
//! source. The result is a structured [`SimResult`] that renders to the JSON
//! document of the paper's Listing 1.
//!
//! The predictor interface is the paper's three-method contract
//! ([`Predictor`]): `predict` guesses an outcome from the branch address,
//! `train` updates the prediction structures with the resolved outcome, and
//! `track` updates the *scenario* (global history and friends). Keeping
//! `train` and `track` separate is what makes predictors composable into
//! meta-predictors with partial-update policies (§IV-B, §VI-D).
//!
//! # Examples
//!
//! A minimal always-taken predictor run over an in-memory trace:
//!
//! ```
//! use mbp_core::{simulate, Predictor, SimConfig, SliceSource};
//! use mbp_trace::{Branch, BranchRecord, Opcode};
//!
//! struct AlwaysTaken;
//! impl Predictor for AlwaysTaken {
//!     fn predict(&mut self, _ip: u64) -> bool { true }
//!     fn train(&mut self, _b: &Branch) {}
//!     fn track(&mut self, _b: &Branch) {}
//! }
//!
//! let recs = vec![
//!     BranchRecord::new(Branch::new(0x10, 0x20, Opcode::conditional_direct(), true), 4),
//!     BranchRecord::new(Branch::new(0x10, 0x20, Opcode::conditional_direct(), false), 4),
//! ];
//! let mut source = SliceSource::new(&recs);
//! let result = simulate(&mut source, &mut AlwaysTaken, &SimConfig::default())?;
//! assert_eq!(result.metrics.mispredictions, 1);
//! println!("{}", result.to_json().to_pretty_string());
//! # Ok::<(), mbp_trace::TraceError>(())
//! ```

mod checkpoint;
mod compare;
mod forensics;
mod introspect;
mod metrics;
mod output;
mod predictor;
mod section;
mod simpoint;
mod simulator;
mod source;
mod status;
mod sweep;
mod timeseries;

pub use checkpoint::{load_checkpoint, CheckpointLoad, CheckpointWriter, CHECKPOINT_VERSION};
pub use compare::{simulate_comparison, ComparisonResult, DivergingBranch};
pub use forensics::{
    ForensicsConfig, FORENSICS_SCHEMA_VERSION, H2P_MIN_MISPREDICTION_RATE, H2P_MIN_OCCURRENCES,
};
pub use introspect::{probe_counter_table, probes_to_json, TableProbe};
pub use metrics::{
    BranchStat, BranchTaxonomy, ClassStat, Metrics, MostFailed, ENTROPY_CLASSES, TRANSITION_CLASSES,
};
pub use predictor::{PredictionBits, Predictor};
pub use section::{Place, Section};
pub use simpoint::{
    extract_bbv, extract_phases, extract_phases_with_warmup, kmeans, simulate_sampled, BbvWindow,
    Phase, PhasesDoc, BBV_FEATURE_DIM, KMEANS_MAX_ITERATIONS, PHASES_SCHEMA_VERSION,
};
pub use simulator::{simulate, simulate_scalar, SimConfig, SimMetadata, SimResult};
pub use source::{SliceSource, TraceSource, BATCH_RECORDS};
pub use status::{PredictorState, PredictorStatus, SweepStatusBoard};
pub use sweep::{simulate_many, FailureKind, SweepConfig, SweepEntry, SweepFailure, SweepResult};
pub use timeseries::{TimeSeries, TimeSeriesBuilder, Window, DEFAULT_WINDOW_INSTRUCTIONS};

// Re-export the vocabulary types so predictor crates depend on `mbp-core`
// alone.
pub use mbp_json::{json, Map, Number, Value};
pub use mbp_trace::{Branch, BranchBatch, BranchKind, BranchRecord, Opcode, TraceError};

/// Simulator identification embedded in every result (Listing 1).
pub const SIMULATOR_NAME: &str = "MBPlib std simulator";
/// Version string embedded in every result.
pub const SIMULATOR_VERSION: &str = concat!("v", env!("CARGO_PKG_VERSION"));
