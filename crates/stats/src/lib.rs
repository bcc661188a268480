//! # mbp-stats — always-cheap observability for the MBPlib pipeline
//!
//! Zero-dependency metric primitives (monotonic [`Counter`], fixed-bucket
//! [`Histogram`], [`Timer`] with RAII [`Span`] guards), the static
//! [`pipeline()`] domains the simulator's stages report into, the one
//! table of them ([`PipelineStats::rows`]) that every rendering reads, and
//! the structured [`events`] journal (one bounded ring of
//! span/instant/sample events) that timeline exports are built from. Each
//! timer names its journal span, and one guard measures both, so the
//! timeline's spans add up to the timers.
//!
//! Design rules, in order:
//!
//! 1. **The fast path pays almost nothing.** Every primitive is relaxed
//!    atomics; the pipeline statics are reachable without locks; hot loops
//!    are instrumented at *batch* granularity (one add per 2048-record
//!    block), never per record.
//! 2. **One row per metric.** [`PipelineStats::rows`] lists every pipeline
//!    metric once, in a fixed order, with its JSON section and key and its
//!    OpenMetrics family, so every surface shows the same numbers and an
//!    idle process renders byte-identical text.
//! 3. **No JSON rendering here.** JSON encoding of the rows lives
//!    downstream in the `mbp` crate; this crate stays `std`-only so every
//!    pipeline crate can depend on it without weight. The one format this
//!    crate does own is the OpenMetrics text exposition ([`exposition`]) —
//!    it is the metrics' own wire format and needs nothing but `std`.
//!
//! ```
//! use mbp_stats::pipeline;
//!
//! {
//!     let _span = pipeline().trace.decode.span();
//!     // ... decode a batch ...
//!     pipeline().trace.packets_decoded.add(2048);
//! }
//! assert!(pipeline().trace.packets_decoded.get() >= 2048);
//! let rows = pipeline().rows();
//! assert!(rows.iter().any(|r| r.family == "mbp_trace_packets_decoded"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod exposition;
mod metric;
mod pipeline;

pub use exposition::{render_openmetrics, H2pRow};
pub use metric::{Counter, Histogram, HistogramSnapshot, Span, Timer};
pub use pipeline::{
    pipeline, CompressStats, PipelineStats, Reading, Row, SimStats, SweepStats, TraceStats,
    WorkloadStats,
};
