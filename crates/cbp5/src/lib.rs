//! A CBP5-framework-style baseline simulator.
//!
//! This crate reproduces the *design* MBPlib is benchmarked against in
//! Table III: a **framework** (it owns `main`'s loop and calls user code,
//! §I), driving predictors through the championship interface
//! ([`CbpPredictor`]: `GetPrediction` / `UpdatePredictor` /
//! `TrackOtherInst`), and reading **plain-text BT9 traces** whose branch
//! metadata lives in a graph that must be consulted for every dynamic
//! branch. Those two costs — text parsing and graph indirection — are
//! exactly what the paper credits SBBT with removing (§VII-D), so this
//! baseline keeps them faithfully: the node/edge tables are parsed up
//! front, but the edge *sequence* is lexed line by line during simulation,
//! like the original streaming reader.
//!
//! # Examples
//!
//! ```
//! use cbp5_sim::{run_framework_text, McbpAdapter};
//! use mbp_predictors::Bimodal;
//! use mbp_trace::{Branch, BranchRecord, Opcode};
//!
//! // Build a tiny BT9 trace.
//! let mut w = mbp_trace::bt9::Bt9Writer::new();
//! for i in 0..10 {
//!     w.write_record(&BranchRecord::new(
//!         Branch::new(0x1000, 0x2000, Opcode::conditional_direct(), i % 2 == 0),
//!         3,
//!     ));
//! }
//! let text = w.finish().to_text();
//!
//! let mut predictor = McbpAdapter::new(Bimodal::new(10));
//! let result = run_framework_text(&text, &mut predictor)?;
//! assert_eq!(result.num_conditional_branches, 10);
//! # Ok::<(), mbp_trace::TraceError>(())
//! ```

mod framework;
mod interface;

pub use framework::{run_framework, run_framework_file, run_framework_text, Cbp5Result};
pub use interface::{CbpPredictor, McbpAdapter, OpType};
