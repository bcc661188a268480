//! GShare (McFarling, 1993): global history XOR-ed into the table index.
//!
//! This is the paper's running example (Listing 2): a table of `i2`
//! counters, a global history register, and `XorFold(ip ^ history, T)` as
//! the index.

use mbp_core::{
    json, probe_counter_table, Branch, BranchBatch, PredictionBits, Predictor, TableProbe, Value,
};
use mbp_utils::{xor_fold, HistoryRegister, I2};

/// GShare with `history_length` bits of global history and `2^log_size`
/// two-bit counters.
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::Gshare;
///
/// // The paper's §VI-A sweep: fixed table, varying history length.
/// for h in 6..=30 {
///     let p = Gshare::new(h, 18);
///     assert_eq!(p.metadata()["history_length"].as_u64(), Some(h as u64));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<I2>,
    ghist: HistoryRegister,
    history_length: u32,
    log_size: u32,
    /// Index computed by the latest `predict`, reused by `train` when the
    /// simulator issues the usual predict → train pair on one branch.
    /// Every other `&mut` call clears it.
    cached_index: Option<(u64, usize)>,
}

impl Gshare {
    /// Creates a GShare predictor.
    ///
    /// # Panics
    ///
    /// Panics if `history_length` is 0 or over 64, or `log_size` is 0 or
    /// over 30.
    pub fn new(history_length: u32, log_size: u32) -> Self {
        assert!(
            (1..=64).contains(&history_length),
            "history_length must be in 1..=64"
        );
        assert!((1..=30).contains(&log_size), "log_size must be in 1..=30");
        Self {
            table: vec![I2::default(); 1 << log_size],
            ghist: HistoryRegister::new(history_length as usize),
            history_length,
            log_size,
            cached_index: None,
        }
    }

    fn hash(&self, ip: u64) -> usize {
        // Listing 2: XorFold(ip ^ ghist, T).
        xor_fold(ip ^ self.ghist.low_bits(), self.log_size) as usize
    }

    /// Storage budget in bits.
    pub fn storage_bits(&self) -> u64 {
        2 * self.table.len() as u64 + self.history_length as u64
    }
}

impl Predictor for Gshare {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8)
    }

    fn predict(&mut self, ip: u64) -> bool {
        let idx = self.hash(ip);
        self.cached_index = Some((ip, idx));
        self.table[idx].is_taken()
    }

    fn train(&mut self, branch: &Branch) {
        let idx = match self.cached_index.take() {
            Some((ip, idx)) if ip == branch.ip() => idx,
            _ => self.hash(branch.ip()),
        };
        self.table[idx].sum_or_sub(branch.is_taken());
    }

    fn track(&mut self, branch: &Branch) {
        self.ghist.push(branch.is_taken());
        self.cached_index = None;
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib GShare",
            "history_length": self.history_length,
            "log_table_size": self.log_size,
        })
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        vec![probe_counter_table("gshare", &self.table)
            .with_extra("history_length", self.history_length)]
    }

    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        // Each branch is predicted against the history *before* its own
        // `track`, so the batch carries everything needed to reconstruct
        // every index: simulate the (single-word) history register in a
        // local and fold `ip ^ history` on the spot. The serial history
        // dependency makes a separate vectorizable index pass a net loss
        // here (measured — the extra stores/loads cost more than the fold
        // saves), so the kernel is one fused pass whose win over the
        // per-branch interface comes from iterating raw columns instead of
        // reconstructing `Branch` values, keeping the history in a
        // register instead of round-tripping `HistoryRegister::push`, and
        // flushing predictions a word at a time. The predict → train pair
        // for one branch uses the same index, which is exactly what the
        // scalar path's `cached_index` guarantees.
        let (pcs, taken, ops) = (batch.pcs(), batch.taken(), batch.ops());
        let hmask = if self.history_length == 64 {
            u64::MAX
        } else {
            (1u64 << self.history_length) - 1
        };
        let mut h = self.ghist.low_bits();
        // Pin the table base in a register: indexing through `self.table`
        // inside the loop would reload the Vec pointer around every store
        // the compiler cannot disambiguate.
        let table: &mut [I2] = &mut self.table;
        let tmask = table.len() - 1;
        let width = self.log_size;
        let n = pcs.len();
        let (pcs, taken, ops) = (&pcs[..n], &taken[..n], &ops[..n]);
        let (mut acc, mut nbits) = (0u64, 0usize);
        for i in 0..n {
            let (pc, t, op) = (pcs[i], taken[i], ops[i]);
            let conditional = op & 0b1 != 0;
            if conditional {
                let slot = xor_fold(pc ^ h, width) as usize & tmask;
                acc |= (table[slot].is_taken() as u64) << nbits;
                nbits += 1;
                if nbits == 64 {
                    out.push_word(acc, 64);
                    (acc, nbits) = (0, 0);
                }
                table[slot].sum_or_sub(t != 0);
            }
            if conditional | !track_only_conditional {
                h = ((h << 1) | (t != 0) as u64) & hmask;
            }
        }
        out.push_word(acc, nbits);
        self.ghist.set_low_bits(h);
        // Mirror `track`'s invalidation: any cached pair is stale now.
        self.cached_index = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{correlated_pair, loop_pattern, run};
    use crate::Bimodal;

    #[test]
    fn learns_history_correlation() {
        // The second branch copies the first's outcome: with history, GShare
        // nails it; bimodal cannot (see bimodal tests).
        let recs = correlated_pair(4000, 3);
        let (mis, total) = run(&mut Gshare::new(8, 14), &recs);
        assert!((mis as f64) < 0.30 * total as f64, "mis = {mis} of {total}");
        // And specifically better than bimodal on the same stream.
        let (mis_bim, _) = run(&mut Bimodal::new(14), &recs);
        assert!(mis < mis_bim, "gshare {mis} !< bimodal {mis_bim}");
    }

    #[test]
    fn learns_loop_exits() {
        // With enough history to see a whole iteration, the exit becomes
        // predictable — the fundamental advantage over bimodal.
        let recs = loop_pattern(0x1000, 6, 400);
        let (mis, total) = run(&mut Gshare::new(12, 14), &recs);
        assert!((mis as f64) < 0.05 * total as f64, "mis = {mis} of {total}");
    }

    #[test]
    fn track_updates_history_for_unconditional_too() {
        use mbp_core::Opcode;
        let mut p = Gshare::new(4, 8);
        let uncond = Branch::new(0x10, 0x20, Opcode::unconditional_direct(), true);
        p.track(&uncond);
        assert_eq!(p.ghist.low_bits() & 1, 1);
    }

    #[test]
    fn prediction_is_pure() {
        // predict() must not perturb state (§IV-A contract).
        let recs = loop_pattern(0x1000, 5, 50);
        let mut p = Gshare::new(10, 12);
        for r in &recs {
            let first = p.predict(r.branch.ip());
            let second = p.predict(r.branch.ip());
            assert_eq!(first, second);
            p.train(&r.branch);
            p.track(&r.branch);
        }
    }

    #[test]
    fn storage_accounting() {
        let p = Gshare::new(25, 18);
        // 2^18 two-bit counters = 64 kB  (the paper's Listing 1 example).
        assert_eq!(p.storage_bits(), (2 << 18) + 25);
    }

    #[test]
    #[should_panic(expected = "history_length")]
    fn oversized_history_rejected() {
        Gshare::new(65, 10);
    }
}
