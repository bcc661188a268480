//! Branch trace formats for MBPlib.
//!
//! This crate implements the three trace formats the paper's evaluation
//! revolves around:
//!
//! * [`sbbt`] — MBPlib's *Simple Binary Branch Trace* (§IV-C, Figs. 1–2): a
//!   192-bit header followed by a stream of 128-bit branch packets. No
//!   branch-graph header; redundancy is left to the compression layer, so
//!   reading is a straight pointer walk with no hashed-structure lookups.
//! * [`bt9`] — a BT9-flavoured plain-text format as used by the CBP5
//!   framework: a node/edge graph describing the program's branches followed
//!   by the sequence of edges taken. Deliberately costly to parse, because
//!   the 18.4× result in Table III compares against exactly this design.
//! * [`champsim`] — a ChampSim-like binary format with one 64-byte record
//!   per *instruction* (not per branch), including register and memory
//!   operands; this is why Table I reports a 42× size reduction for DPC3.
//!
//! [`translate`] converts between them, reproducing MBPlib's trace
//! translation tooling. All readers transparently accept raw or
//! MGZ/MZST-compressed input: the BT9 and ChampSim readers inflate it
//! whole, the SBBT reader streams it through the codec window with an
//! [`mbp_compress::Inflater`].
//!
//! # Examples
//!
//! ```
//! use mbp_trace::{Branch, BranchKind, BranchRecord, Opcode};
//! use mbp_trace::sbbt::{SbbtReader, SbbtWriter};
//!
//! let rec = BranchRecord::new(
//!     Branch::new(0x40_1000, 0x40_2000, Opcode::conditional_direct(), true),
//!     3, // instructions since the previous branch
//! );
//!
//! let mut w = SbbtWriter::new(Vec::new());
//! w.write_record(&rec)?;
//! let bytes = w.finish()?;
//!
//! let mut r = SbbtReader::from_bytes(bytes)?;
//! assert_eq!(r.header().branch_count, 1);
//! assert_eq!(r.next_record()?.unwrap(), rec);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod branch;
pub mod bt9;
pub(crate) mod bytes;
pub mod champsim;
mod error;
pub mod sbbt;
pub mod translate;

pub use batch::{BranchBatch, ColumnsMut};
pub use branch::{Branch, BranchKind, BranchRecord, Opcode};
pub use error::TraceError;

/// Maximum number of non-branch instructions between two consecutive
/// branches representable in an SBBT packet (12 bits, §IV-C).
pub const MAX_GAP: u32 = 4095;
