//! The MBPlib *examples library* (§V, Table II of the paper): a uniform
//! collection of branch predictor implementations, from the pedagogical
//! (bimodal, GShare) through the historical (two-level, tournament,
//! 2bc-gskew) to the state of the art (hashed perceptron, TAGE, BATAGE).
//!
//! All predictors implement [`mbp_core::Predictor`] and are built from the
//! components of `mbp-utils`, so each implementation stays close to its
//! published description. Every predictor reports its configuration through
//! `metadata()`, which the simulator embeds in its JSON output — the paper's
//! workflow for keeping experiments self-describing.
//!
//! Beyond the conditional-direction predictors of Table II, the [`target`]
//! module provides the branch *target* predictors the paper pairs with them
//! in the ChampSim evaluation (§VII-A): a BTB, a GShare-like indirect target
//! predictor and ITTAGE.
//!
//! # Examples
//!
//! ```
//! use mbp_core::{simulate, SimConfig, SliceSource};
//! use mbp_predictors::Gshare;
//! use mbp_core::{Branch, BranchRecord, Opcode};
//!
//! // A loop branch: taken three times, then exits — GShare learns it.
//! let mut recs = Vec::new();
//! for _ in 0..500 {
//!     for i in 0..4 {
//!         recs.push(BranchRecord::new(
//!             Branch::new(0x40_1000, 0x40_0ff0, Opcode::conditional_direct(), i != 3),
//!             4,
//!         ));
//!     }
//! }
//! let mut gshare = Gshare::new(15, 17);
//! let r = simulate(&mut SliceSource::new(&recs), &mut gshare, &SimConfig::default())?;
//! assert!(r.metrics.accuracy > 0.95);
//! # Ok::<(), mbp_core::TraceError>(())
//! ```

mod batage;
mod bimodal;
mod filter;
mod gselect;
mod gshare;
mod gskew;
mod loopp;
mod perceptron;
mod statics;
mod tage;
pub mod target;
mod tournament;
mod twolevel;

pub use batage::{Batage, BatageConfig};
pub use bimodal::Bimodal;
pub use filter::BiasFilter;
pub use gselect::GSelect;
pub use gshare::Gshare;
pub use gskew::TwoBcGskew;
pub use loopp::LoopPredictor;
pub use perceptron::HashedPerceptron;
pub use statics::{AlwaysTaken, Btfn, NeverTaken};
pub use tage::{Tage, TageConfig, TageTableSpec};
pub use tournament::Tournament;
pub use twolevel::{HistoryScope, PatternScope, TwoLevel};

use mbp_core::Predictor;

/// Chunk size shared by the vectorized `predict_batch` kernels: long enough
/// to amortize the per-chunk setup, short enough that the index scratch
/// arrays (a few KiB of `u64`) stay on the stack and in L1.
pub(crate) const KERNEL_CHUNK: usize = 256;

/// Builds one of the stock predictors by name — handy for CLI harnesses
/// and benchmarks.
///
/// Their modelled storage budgets (`storage_bits`) differ: 64 KiB for
/// `bimodal`, `gshare` and `gselect`, 48 KiB for `tournament`, 56 KiB for
/// `hashed-perceptron`, 23.75 KiB for `tage`, 25.25 KiB for `batage`,
/// 1 MiB for `two-level` (GAs, 12 history bits, 2^10 pattern tables) and
/// 2 MiB for `2bc-gskew` (four banks of 2^21 counters). The Table II–III
/// harness in `crates/bench` builds its Two-Level and 2bc-gskew at 64 KiB
/// instead, so those two names are different configurations there.
///
/// Recognized names: `always-taken`, `never-taken`, `btfn`, `bimodal`,
/// `two-level`, `gshare`, `gselect`, `tournament`, `2bc-gskew`,
/// `hashed-perceptron`, `tage`, `batage`.
///
/// The box is `Send` so the result can be handed to
/// `mbp_core::simulate_many`'s worker pool.
pub fn by_name(name: &str) -> Option<Box<dyn Predictor + Send>> {
    Some(match name {
        "always-taken" => Box::new(AlwaysTaken),
        "never-taken" => Box::new(NeverTaken),
        "btfn" => Box::new(Btfn::default()),
        "bimodal" => Box::new(Bimodal::new(18)),
        "two-level" => Box::new(TwoLevel::gas(12, 10)),
        "gshare" => Box::new(Gshare::new(25, 18)),
        "gselect" => Box::new(GSelect::new(8, 10)),
        "tournament" => Box::new(Tournament::classic(16)),
        "2bc-gskew" => Box::new(TwoBcGskew::new(16, 21)),
        "hashed-perceptron" => Box::new(HashedPerceptron::default_config()),
        "tage" => Box::new(Tage::new(TageConfig::default_64kb())),
        "batage" => Box::new(Batage::new(BatageConfig::default_64kb())),
        // Deliberately absent from `PREDICTOR_NAMES`: an intentionally
        // panicking predictor for exercising sweep fault isolation end to
        // end (the `mbpsim` exit-code tests request it by name).
        "faulty" => Box::new(Faulty::default()),
        // Likewise hidden: a predictor that wedges mid-simulation, for
        // exercising the sweep's deadline watchdog end to end.
        "stalled" => Box::new(Stalled::default()),
        _ => return None,
    })
}

/// An intentionally broken predictor used only to test fault isolation.
///
/// Behaves like [`AlwaysTaken`] for a handful of predictions, then panics —
/// mimicking a latent bug that only fires once a predictor has warmed up.
/// It is reachable through [`by_name`] as `"faulty"` but is *not* listed in
/// [`PREDICTOR_NAMES`], so rosters, `mbpsim list` output and default sweeps
/// never pick it up by accident.
#[derive(Clone, Copy, Debug)]
pub struct Faulty {
    remaining: u64,
}

impl Default for Faulty {
    fn default() -> Self {
        Self { remaining: 8 }
    }
}

impl Predictor for Faulty {
    fn predict(&mut self, _ip: u64) -> bool {
        if self.remaining == 0 {
            panic!("intentional fault: the 'faulty' test predictor always panics");
        }
        self.remaining -= 1;
        true
    }

    fn train(&mut self, _branch: &mbp_core::Branch) {}

    fn track(&mut self, _branch: &mbp_core::Branch) {}

    fn metadata(&self) -> mbp_core::Value {
        mbp_core::json!({"name": "Intentionally faulty test predictor"})
    }
}

/// An intentionally wedged predictor used only to test the sweep's deadline
/// watchdog.
///
/// Behaves like [`AlwaysTaken`] for a handful of predictions, then starts
/// sleeping on every call — mimicking a predictor whose lookup has
/// degenerated (or deadlocked) so badly the sweep would never finish.
/// Each sleep is short and the total is bounded, so a watchdog-abandoned
/// worker winds down on its own instead of haunting the process. Reachable
/// through [`by_name`] as `"stalled"` but *not* listed in
/// [`PREDICTOR_NAMES`], exactly like [`Faulty`].
#[derive(Clone, Copy, Debug)]
pub struct Stalled {
    healthy: u64,
    naps_left: u64,
}

impl Default for Stalled {
    fn default() -> Self {
        Self {
            healthy: 8,
            naps_left: 2_000, // ≤ 10 s of wedged time, then it gives up
        }
    }
}

impl Predictor for Stalled {
    fn predict(&mut self, _ip: u64) -> bool {
        if self.healthy > 0 {
            self.healthy -= 1;
        } else if self.naps_left > 0 {
            self.naps_left -= 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        true
    }

    fn train(&mut self, _branch: &mbp_core::Branch) {}

    fn track(&mut self, _branch: &mbp_core::Branch) {}

    fn metadata(&self) -> mbp_core::Value {
        mbp_core::json!({"name": "Intentionally stalled test predictor"})
    }
}

/// Names accepted by [`by_name`], in Table II order.
pub const PREDICTOR_NAMES: [&str; 12] = [
    "always-taken",
    "never-taken",
    "btfn",
    "bimodal",
    "two-level",
    "gshare",
    "gselect",
    "tournament",
    "2bc-gskew",
    "hashed-perceptron",
    "tage",
    "batage",
];

#[cfg(test)]
pub(crate) mod testutil {
    use mbp_core::{Branch, BranchRecord, Opcode};
    use mbp_utils::Xorshift64;

    /// A loop of `period` iterations repeated `reps` times at `ip`.
    pub fn loop_pattern(ip: u64, period: u32, reps: u32) -> Vec<BranchRecord> {
        let mut out = Vec::new();
        for _ in 0..reps {
            for i in 0..period {
                out.push(BranchRecord::new(
                    Branch::new(ip, ip - 64, Opcode::conditional_direct(), i + 1 != period),
                    3,
                ));
            }
        }
        out
    }

    /// A branch whose outcome equals the outcome of the previous branch
    /// (perfectly history-correlated, hopeless for bimodal).
    pub fn correlated_pair(n: u32, seed: u64) -> Vec<BranchRecord> {
        let mut rng = Xorshift64::new(seed);
        let mut out = Vec::new();
        for _ in 0..n {
            let first = rng.below(2) == 1;
            out.push(BranchRecord::new(
                Branch::new(0x100, 0x50, Opcode::conditional_direct(), first),
                2,
            ));
            out.push(BranchRecord::new(
                Branch::new(0x200, 0x80, Opcode::conditional_direct(), first),
                2,
            ));
        }
        out
    }

    /// A heavily biased branch (taken with probability ~7/8).
    pub fn biased(n: u32, seed: u64) -> Vec<BranchRecord> {
        let mut rng = Xorshift64::new(seed);
        (0..n)
            .map(|_| {
                BranchRecord::new(
                    Branch::new(0x300, 0x10, Opcode::conditional_direct(), rng.below(8) != 0),
                    4,
                )
            })
            .collect()
    }

    /// Runs a predictor over records and returns (mispredictions, total).
    pub fn run(predictor: &mut dyn mbp_core::Predictor, recs: &[BranchRecord]) -> (u64, u64) {
        let mut mis = 0;
        let mut total = 0;
        for r in recs {
            let b = r.branch;
            if b.is_conditional() {
                total += 1;
                if predictor.predict(b.ip()) != b.is_taken() {
                    mis += 1;
                }
                predictor.train(&b);
            }
            predictor.track(&b);
        }
        (mis, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_builds_every_listed_predictor() {
        for name in PREDICTOR_NAMES {
            let p = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            // Every stock predictor must describe itself.
            assert!(!p.metadata().is_null(), "{name} has no metadata");
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn table_predictors_report_storage_size_hints() {
        for name in [
            "bimodal",
            "two-level",
            "gshare",
            "gselect",
            "tournament",
            "2bc-gskew",
            "hashed-perceptron",
            "tage",
            "batage",
        ] {
            let p = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            let hint = p.size_hint();
            assert!(hint > 0, "{name} reports no size hint");
            assert!(hint < 1 << 30, "{name} hint of {hint} B is implausible");
        }
        // Static predictors hold no tables; a zero hint opts them out of
        // admission gating.
        assert_eq!(by_name("always-taken").unwrap().size_hint(), 0);

        // `storage_bits` is the modelled hardware budget (Table II). The
        // tables below build each predictor as `by_name` does; a hint of
        // the budget's bytes ties each to `by_name`'s configuration.
        let tournament = 2 * Bimodal::new(16).storage_bits() + Gshare::new(16, 16).storage_bits();
        for (name, storage_bits, modelled) in [
            ("bimodal", Bimodal::new(18).storage_bits(), 524_288),
            ("two-level", TwoLevel::gas(12, 10).storage_bits(), 8_388_620),
            ("gshare", Gshare::new(25, 18).storage_bits(), 524_313),
            ("gselect", GSelect::new(8, 10).storage_bits(), 524_296),
            ("tournament", tournament, 393_232),
            (
                "2bc-gskew",
                TwoBcGskew::new(16, 21).storage_bits(),
                16_777_232,
            ),
        ] {
            assert_eq!(storage_bits, modelled, "{name}: modelled budget moved");
            let hint = by_name(name).map(|p| p.size_hint());
            assert_eq!(hint, Some(storage_bits.div_ceil(8)), "{name}");
        }

        // The composites also hold an ip memo (a key and one word per
        // table per line) and a fold bank. The hint budgets host memory, so
        // it counts them; `storage_bits` is the modelled hardware budget
        // (Table II), which they are not part of.
        let memo = |words: u64| mbp_utils::IpMemo::<()>::LINES as u64 * (8 + 4 * words);
        let tage = Tage::new(TageConfig::default_64kb());
        let batage = Batage::new(BatageConfig::default_64kb());
        let perceptron = HashedPerceptron::default_config();
        for (name, storage_bits, hint, words, modelled) in [
            ("tage", tage.storage_bits(), tage.size_hint(), 13, 194_560),
            (
                "batage",
                batage.storage_bits(),
                batage.size_hint(),
                13,
                206_848,
            ),
            (
                "hashed-perceptron",
                perceptron.storage_bits(),
                perceptron.size_hint(),
                8,
                458_944,
            ),
        ] {
            assert_eq!(storage_bits, modelled, "{name}: modelled budget moved");
            let host = hint - storage_bits.div_ceil(8);
            assert!(
                (memo(words)..memo(words) + 4096).contains(&host),
                "{name}: {host} B beyond the tables is not the memo and bank"
            );
        }
    }
}
