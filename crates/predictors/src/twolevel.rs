//! Two-level adaptive predictors (Yeh & Patt, 1992) — "all versions of Two
//! Level: GAg, GAs, PAs, SAp, etc." (Table II).
//!
//! The first level is a set of branch history registers (BHRs); the second a
//! set of pattern history tables (PHTs) of two-bit counters indexed by the
//! history. Each level can be keyed globally (one structure), per-address
//! (hashed by branch ip) or per-set (hashed by a coarser region of the ip),
//! giving the nine classic variants.

use mbp_core::{
    json, probe_counter_table, Branch, BranchBatch, PredictionBits, Predictor, TableProbe, Value,
};
use mbp_utils::{xor_fold, xor_fold_columns, I2};

use crate::KERNEL_CHUNK;

/// How a level of the predictor is keyed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistoryScope {
    /// One shared structure (the `G` in GAg).
    Global,
    /// One structure per branch address hash (the `P`).
    PerAddress,
    /// One structure per address set (the `S`).
    PerSet,
}

/// Alias used for the second level to mirror the `g`/`p`/`s` suffix.
pub type PatternScope = HistoryScope;

impl HistoryScope {
    fn letter_first(self) -> char {
        match self {
            HistoryScope::Global => 'G',
            HistoryScope::PerAddress => 'P',
            HistoryScope::PerSet => 'S',
        }
    }

    fn letter_second(self) -> char {
        match self {
            HistoryScope::Global => 'g',
            HistoryScope::PerAddress => 'p',
            HistoryScope::PerSet => 's',
        }
    }
}

/// A two-level adaptive predictor.
///
/// # Examples
///
/// ```
/// use mbp_predictors::{HistoryScope, TwoLevel};
///
/// // GAs: global history, per-set pattern tables.
/// let p = TwoLevel::new(HistoryScope::Global, HistoryScope::PerSet, 12, 8, 10);
/// assert_eq!(p.variant(), "GAs");
/// ```
#[derive(Clone, Debug)]
pub struct TwoLevel {
    hscope: HistoryScope,
    pscope: PatternScope,
    hist_len: u32,
    log_bhrs: u32,
    log_phts: u32,
    bhrs: Vec<u32>,
    /// `phts[pht_index][history]`, flattened.
    phts: Vec<I2>,
}

/// Set index: a coarser grouping of addresses than per-address hashing.
fn set_of(ip: u64, bits: u32) -> usize {
    xor_fold(ip >> 6, bits) as usize
}

/// Column-wise [`TwoLevel::bhr_index`] / [`TwoLevel::pht_index`]: fills
/// `idx[..pcs.len()]` with the level's structure index for every lane.
///
/// Both level indices are pure functions of the address, so they hash in
/// vectorizable passes; only the BHR reads and counter updates need the
/// scalar walk.
fn fold_scope_indices(
    scope: HistoryScope,
    bits: u32,
    pcs: &[u64],
    scratch: &mut [u64; KERNEL_CHUNK],
    idx: &mut [u64; KERNEL_CHUNK],
) {
    let n = pcs.len();
    match scope {
        HistoryScope::Global => idx[..n].fill(0),
        HistoryScope::PerAddress => xor_fold_columns(pcs, bits, idx),
        HistoryScope::PerSet => {
            for (k, &pc) in scratch[..n].iter_mut().zip(pcs) {
                *k = pc >> 6;
            }
            xor_fold_columns(&scratch[..n], bits, idx);
        }
    }
}

impl TwoLevel {
    /// Creates a two-level predictor with `2^log_bhrs` history registers of
    /// `hist_len` bits (when the first level is not global) and `2^log_phts`
    /// pattern tables (when the second level is not global) of
    /// `2^hist_len` counters each.
    ///
    /// # Panics
    ///
    /// Panics if `hist_len` is 0 or over 24, if either log size is over 20,
    /// or if a per-address or per-set level has no index bits.
    pub fn new(
        hscope: HistoryScope,
        pscope: PatternScope,
        hist_len: u32,
        log_bhrs: u32,
        log_phts: u32,
    ) -> Self {
        assert!((1..=24).contains(&hist_len), "hist_len must be in 1..=24");
        assert!(
            log_bhrs <= 20 && log_phts <= 20,
            "table sizes capped at 2^20"
        );
        assert!(
            (hscope == HistoryScope::Global || log_bhrs > 0)
                && (pscope == HistoryScope::Global || log_phts > 0),
            "a per-address or per-set level needs at least one index bit"
        );
        let num_bhrs = match hscope {
            HistoryScope::Global => 1,
            _ => 1usize << log_bhrs,
        };
        let num_phts = match pscope {
            HistoryScope::Global => 1,
            _ => 1usize << log_phts,
        };
        Self {
            hscope,
            pscope,
            hist_len,
            log_bhrs,
            log_phts,
            bhrs: vec![0; num_bhrs],
            // Collected rather than `vec![_; n]`, whose last element is
            // written apart: one n-byte zero fill becomes a zeroed
            // allocation, so untouched pages of a large table cost nothing.
            phts: (0..num_phts << hist_len).map(|_| I2::default()).collect(),
        }
    }

    /// The classic GAg configuration.
    pub fn gag(hist_len: u32) -> Self {
        Self::new(HistoryScope::Global, HistoryScope::Global, hist_len, 0, 0)
    }

    /// The classic GAs configuration.
    pub fn gas(hist_len: u32, log_phts: u32) -> Self {
        Self::new(
            HistoryScope::Global,
            HistoryScope::PerSet,
            hist_len,
            0,
            log_phts,
        )
    }

    /// The classic PAg configuration.
    pub fn pag(hist_len: u32, log_bhrs: u32) -> Self {
        Self::new(
            HistoryScope::PerAddress,
            HistoryScope::Global,
            hist_len,
            log_bhrs,
            0,
        )
    }

    /// The classic PAp configuration.
    pub fn pap(hist_len: u32, log_bhrs: u32, log_phts: u32) -> Self {
        Self::new(
            HistoryScope::PerAddress,
            HistoryScope::PerAddress,
            hist_len,
            log_bhrs,
            log_phts,
        )
    }

    /// The classic SAp configuration.
    pub fn sap(hist_len: u32, log_bhrs: u32, log_phts: u32) -> Self {
        Self::new(
            HistoryScope::PerSet,
            HistoryScope::PerAddress,
            hist_len,
            log_bhrs,
            log_phts,
        )
    }

    /// The Yeh–Patt variant name, e.g. `"GAg"` or `"PAs"`.
    pub fn variant(&self) -> String {
        format!(
            "{}A{}",
            self.hscope.letter_first(),
            self.pscope.letter_second()
        )
    }

    fn bhr_index(&self, ip: u64) -> usize {
        match self.hscope {
            HistoryScope::Global => 0,
            HistoryScope::PerAddress => xor_fold(ip, self.log_bhrs) as usize,
            HistoryScope::PerSet => set_of(ip, self.log_bhrs),
        }
    }

    fn pht_index(&self, ip: u64) -> usize {
        match self.pscope {
            HistoryScope::Global => 0,
            HistoryScope::PerAddress => xor_fold(ip, self.log_phts) as usize,
            HistoryScope::PerSet => set_of(ip, self.log_phts),
        }
    }

    fn counter_index(&self, ip: u64) -> usize {
        let history = self.bhrs[self.bhr_index(ip)] & ((1u32 << self.hist_len) - 1);
        (self.pht_index(ip) << self.hist_len) | history as usize
    }

    /// Storage budget in bits.
    pub fn storage_bits(&self) -> u64 {
        self.bhrs.len() as u64 * self.hist_len as u64 + 2 * self.phts.len() as u64
    }
}

impl Predictor for TwoLevel {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8)
    }

    fn predict(&mut self, ip: u64) -> bool {
        self.phts[self.counter_index(ip)].is_taken()
    }

    fn train(&mut self, branch: &Branch) {
        let idx = self.counter_index(branch.ip());
        self.phts[idx].sum_or_sub(branch.is_taken());
    }

    fn track(&mut self, branch: &Branch) {
        let idx = self.bhr_index(branch.ip());
        self.bhrs[idx] = (self.bhrs[idx] << 1) | branch.is_taken() as u32;
    }

    fn metadata(&self) -> Value {
        json!({
            "name": format!("MBPlib Two-Level {}", self.variant()),
            "history_length": self.hist_len,
            "log_bhr_count": self.log_bhrs,
            "log_pht_count": self.log_phts,
        })
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        vec![
            probe_counter_table(format!("twolevel.{}", self.variant()), &self.phts)
                .with_extra("num_bhrs", self.bhrs.len() as u64)
                .with_extra("history_length", self.hist_len),
        ]
    }

    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        // Both structure indices depend only on the address, so they hash
        // in two vectorizable passes per chunk. The BHRs are shared mutable
        // state (a branch's history may have been rewritten by any earlier
        // branch mapping to the same register), so the counter walk stays
        // scalar, reading each BHR at the position the scalar sequence
        // would: after the tracks of all preceding records.
        let (pcs, taken, ops) = (batch.pcs(), batch.taken(), batch.ops());
        let hist_mask = (1u32 << self.hist_len) - 1;
        // Pin both table bases so stores inside the loop cannot force the
        // Vec pointers to reload.
        let bhrs: &mut [u32] = &mut self.bhrs;
        let phts: &mut [I2] = &mut self.phts;
        let bhr_mask = bhrs.len() - 1;
        let pht_mask = phts.len() - 1;
        let hist_len = self.hist_len;
        let mut scratch = [0u64; KERNEL_CHUNK];
        let mut bhr_idx = [0u64; KERNEL_CHUNK];
        let mut pht_idx = [0u64; KERNEL_CHUNK];
        let (mut acc, mut nbits) = (0u64, 0usize);
        let mut start = 0;
        while start < batch.len() {
            let n = KERNEL_CHUNK.min(batch.len() - start);
            let chunk = &pcs[start..start + n];
            fold_scope_indices(
                self.hscope,
                self.log_bhrs,
                chunk,
                &mut scratch,
                &mut bhr_idx,
            );
            fold_scope_indices(
                self.pscope,
                self.log_phts,
                chunk,
                &mut scratch,
                &mut pht_idx,
            );
            let (taken, ops) = (&taken[start..start + n], &ops[start..start + n]);
            for i in 0..n {
                let conditional = ops[i] & 0b1 != 0;
                let t = taken[i] != 0;
                let bi = bhr_idx[i] as usize & bhr_mask;
                if conditional {
                    let history = (bhrs[bi] & hist_mask) as usize;
                    let ci = (((pht_idx[i] as usize) << hist_len) | history) & pht_mask;
                    acc |= (phts[ci].is_taken() as u64) << nbits;
                    nbits += 1;
                    if nbits == 64 {
                        out.push_word(acc, 64);
                        (acc, nbits) = (0, 0);
                    }
                    phts[ci].sum_or_sub(t);
                }
                if conditional | !track_only_conditional {
                    bhrs[bi] = (bhrs[bi] << 1) | t as u32;
                }
            }
            start += n;
        }
        out.push_word(acc, nbits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{correlated_pair, loop_pattern, run};

    #[test]
    fn variant_names() {
        assert_eq!(TwoLevel::gag(8).variant(), "GAg");
        assert_eq!(TwoLevel::pag(8, 4).variant(), "PAg");
        assert_eq!(TwoLevel::pap(8, 4, 4).variant(), "PAp");
        assert_eq!(TwoLevel::sap(8, 4, 4).variant(), "SAp");
        assert_eq!(TwoLevel::gas(8, 4).variant(), "GAs");
    }

    #[test]
    fn all_nine_variants_run() {
        let scopes = [
            HistoryScope::Global,
            HistoryScope::PerAddress,
            HistoryScope::PerSet,
        ];
        let recs = loop_pattern(0x1000, 5, 100);
        for h in scopes {
            for p in scopes {
                let mut pred = TwoLevel::new(h, p, 10, 6, 6);
                let (mis, total) = run(&mut pred, &recs);
                assert!(mis < total, "{} learned nothing", pred.variant());
            }
        }
    }

    #[test]
    fn gag_learns_global_correlation() {
        let recs = correlated_pair(3000, 9);
        let (mis, total) = run(&mut TwoLevel::gag(10), &recs);
        assert!((mis as f64) < 0.3 * total as f64, "mis = {mis}");
    }

    #[test]
    fn pap_learns_local_loop_period() {
        // Per-address history captures each branch's own period precisely.
        let recs = loop_pattern(0x1000, 7, 300);
        let (mis, total) = run(&mut TwoLevel::pap(10, 8, 8), &recs);
        assert!((mis as f64) < 0.05 * total as f64, "mis = {mis} of {total}");
    }

    #[test]
    fn storage_accounting() {
        let p = TwoLevel::gag(10);
        // One 10-bit BHR + one PHT of 2^10 two-bit counters.
        assert_eq!(p.storage_bits(), 10 + 2 * 1024);
        let p = TwoLevel::pap(4, 2, 2);
        // 4 BHRs of 4 bits + 4 PHTs of 16 counters.
        assert_eq!(p.storage_bits(), 16 + 2 * 64);
    }

    #[test]
    #[should_panic(expected = "hist_len")]
    fn oversized_history_rejected() {
        TwoLevel::gag(25);
    }

    #[test]
    #[should_panic(expected = "at least one index bit")]
    fn per_address_history_without_index_bits_rejected() {
        TwoLevel::pag(8, 0);
    }

    #[test]
    #[should_panic(expected = "at least one index bit")]
    fn per_set_patterns_without_index_bits_rejected() {
        TwoLevel::new(HistoryScope::Global, HistoryScope::PerSet, 8, 0, 0);
    }
}
