//! The MBPlib *utilities library* (§V of the paper).
//!
//! Branch predictors are overwhelmingly built from a small set of hardware
//! idioms: fixed-width saturating counters, global/per-address history
//! registers, folded (compressed) histories for indexing large tables, path
//! histories, and cheap hash functions. The geometric-history predictors
//! also share one [`GeometricHistory`] (a circular history plus every fold
//! they index with) and an [`IpMemo`] of the hash parts that depend only on
//! the branch address. Reimplementing these for every
//! predictor invites subtle bugs (forgotten saturation, off-by-one history
//! lengths, non-reversible folds). This crate provides them once, tested,
//! with a modern interface — mirroring MBPlib's `mbp::i2`, `mbp::XorFold`
//! and friends.
//!
//! The crate is deliberately independent from the simulator so that, as the
//! paper notes, the components can also be used to implement predictors for
//! *other* simulators.
//!
//! # Example: the GShare kernel
//!
//! ```
//! use mbp_utils::{xor_fold, HistoryRegister, I2};
//!
//! const TABLE_BITS: u32 = 12;
//! let mut table = vec![I2::default(); 1 << TABLE_BITS];
//! let mut ghist = HistoryRegister::new(15);
//!
//! let ip = 0x40_1234u64;
//! let idx = xor_fold(ip ^ ghist.low_bits(), TABLE_BITS) as usize;
//! let prediction = table[idx].is_taken();
//! // ... later, on resolve:
//! let taken = true;
//! table[idx].sum_or_sub(taken);
//! ghist.push(taken);
//! # let _ = prediction;
//! ```

mod counter;
mod folded;
mod geometric;
mod hash;
mod history;
mod lru;
mod memo;
mod path;
mod plru;
mod rng;

pub use counter::{SatCounter, USatCounter, I2, I3, U2};
pub use folded::FoldedHistory;
pub use geometric::GeometricHistory;
pub use hash::{mix64, xor_fold, xor_fold_columns, FastHashBuilder, FastHasher};
pub use history::HistoryRegister;
pub use lru::LruSet;
pub use memo::{IpMemo, IpParts};
pub use path::PathHistory;
pub use plru::TreePlru;
pub use rng::Xorshift64;
