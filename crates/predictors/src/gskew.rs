//! 2bc-gskew (Seznec & Michaud, 1999): a de-aliased hybrid of a bimodal
//! bank and two skewed global-history banks, with a meta chooser and a
//! partial update policy.

use mbp_core::{json, Branch, BranchBatch, PredictionBits, Predictor, Value};
use mbp_utils::{mix64, HistoryRegister, I2};

/// The 2bc-gskew predictor.
///
/// Four banks of two-bit counters: `BIM` (address-indexed), `G0` and `G1`
/// (address ⊕ history with *skewed* hash functions and different history
/// lengths) and `META`. The e-gskew prediction is the majority of
/// `BIM`/`G0`/`G1`; `META` arbitrates between `BIM` alone and the majority.
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::TwoBcGskew;
///
/// let p = TwoBcGskew::new(16, 21);
/// assert_eq!(p.metadata()["history_length"].as_u64(), Some(16));
/// ```
#[derive(Clone, Debug)]
pub struct TwoBcGskew {
    /// `[BIM, G0, G1, META]`.
    banks: [Vec<I2>; 4],
    ghist: HistoryRegister,
    hash: BankHash,
    steps: Steps,
    hist_len: u32,
    /// Bank indices computed by the latest `predict`, keyed by its ip:
    /// `train` on the same ip reuses them instead of rehashing (Listing 4).
    /// Every other `&mut` call clears it.
    cached: Option<(u64, [usize; 4])>,
}

/// The four bank hashes and the history slice each reads.
#[derive(Clone, Copy, Debug)]
struct BankHash {
    log_size: u32,
    /// `log_size`-bit chunks in a 64-bit word, rounded up.
    chunks: u32,
    /// Masks of the history bits `G0` (half the length), `G1` (all of it)
    /// and `META` (a quarter, at least one bit) read.
    g0_mask: u64,
    g1_mask: u64,
    meta_mask: u64,
}

impl BankHash {
    fn new(hist_len: u32, log_size: u32) -> Self {
        let mask = |bits: u32| u64::MAX >> (64 - bits);
        Self {
            log_size,
            chunks: 64u32.div_ceil(log_size),
            g0_mask: mask(hist_len / 2),
            g1_mask: mask(hist_len),
            meta_mask: mask((hist_len / 4).max(1)),
        }
    }

    /// `xor_fold(value, log_size)`, over a fixed number of chunks: folding
    /// until the value runs out, as `xor_fold` does, costs a mispredicted
    /// loop exit whenever the value's length changes, and the skewed
    /// hashes' values are full 64-bit mixes.
    #[inline]
    fn fold(self, mut value: u64) -> usize {
        let mask = (1u64 << self.log_size) - 1;
        let mut acc = 0;
        for _ in 0..self.chunks {
            acc ^= value & mask;
            value >>= self.log_size;
        }
        acc as usize
    }

    /// `[BIM, G0, G1, META]` indices of `ip` under the history `h` (bit 0
    /// the most recent outcome).
    #[inline]
    fn indices(self, ip: u64, h: u64) -> [usize; 4] {
        // Skewed bank hash: a distinct strong mix per bank de-aliases the
        // banks, the defining property of the gskew family.
        let skew = |bank: u64, hist: u64| {
            self.fold(mix64(ip ^ hist.rotate_left(bank as u32 * 7) ^ (bank << 61)))
        };
        [
            self.fold(ip),
            skew(1, h & self.g0_mask),
            skew(2, h & self.g1_mask),
            // META mixes the address with a short history slice.
            self.fold(ip ^ ((h & self.meta_mask) << 1)),
        ]
    }
}

/// The e-gskew majority of the `BIM`, `G0` and `G1` directions, and the
/// final prediction: the majority if `META` says to use it, `BIM` alone
/// otherwise.
#[inline]
fn choose(bim: bool, g0: bool, g1: bool, use_egskew: bool) -> (bool, bool) {
    let egskew = (bim as u8 + g0 as u8 + g1 as u8) >= 2;
    (egskew, if use_egskew { egskew } else { bim })
}

/// Every two-bit counter update, precomputed from `sum_or_sub`: entry
/// `enable << 3 | up << 2 | (value - MIN)` holds the counter after
/// `if enable { sum_or_sub(up) }`. A table load replaces the saturating
/// update's compares, which the compiler turns into branches on counter
/// values the host cannot predict; the bank walk runs about twice as fast.
#[derive(Clone, Copy, Debug)]
struct Steps([I2; 16]);

impl Steps {
    fn new() -> Self {
        Self(std::array::from_fn(|i| {
            let mut ctr = I2::new((i & 0b11) as i8 + I2::MIN);
            if i & 0b1000 != 0 {
                ctr.sum_or_sub(i & 0b100 != 0);
            }
            ctr
        }))
    }

    /// `ctr.sum_or_sub(up)` if `enable`.
    #[inline(always)]
    fn apply(&self, ctr: &mut I2, enable: bool, up: bool) {
        let value = (ctr.value() - I2::MIN) as usize & 0b11;
        *ctr = self.0[(enable as usize) << 3 | (up as usize) << 2 | value];
    }
}

/// Trains the banks at `idx` toward `taken` with the partial update policy
/// and returns the prediction they made before the update.
#[inline(always)]
fn train_at(banks: &mut [&mut [I2]; 4], idx: [usize; 4], taken: bool, steps: &Steps) -> bool {
    let [bim_bank, g0_bank, g1_bank, meta_bank] = banks;
    let [bi, g0i, g1i, mi] = idx;
    let (bim, g0, g1) = (
        bim_bank[bi].is_taken(),
        g0_bank[g0i].is_taken(),
        g1_bank[g1i].is_taken(),
    );
    let use_egskew = meta_bank[mi].is_taken();
    let (egskew, prediction) = choose(bim, g0, g1, use_egskew);
    let wrong = prediction != taken;
    // META is trained only when the two strategies disagree (partial
    // update), toward whichever was right. A misprediction retrains all
    // three prediction banks; a correct prediction strengthens only the
    // banks that made it (BIM alone, or the majority's agreeing voters),
    // leaving the others their information about other branches. The
    // enables are computed, not branched on: they follow outcomes.
    steps.apply(&mut meta_bank[mi], bim != egskew, egskew == taken);
    steps.apply(
        &mut bim_bank[bi],
        wrong | !use_egskew | (bim == taken),
        taken,
    );
    steps.apply(
        &mut g0_bank[g0i],
        wrong | (use_egskew & (g0 == taken)),
        taken,
    );
    steps.apply(
        &mut g1_bank[g1i],
        wrong | (use_egskew & (g1 == taken)),
        taken,
    );
    prediction
}

impl TwoBcGskew {
    /// Creates a 2bc-gskew with `hist_len` bits of global history and four
    /// banks of `2^log_size` counters. `G0` uses half the history length.
    ///
    /// # Panics
    ///
    /// Panics if `hist_len` is not in `2..=64` or `log_size` not in `1..=30`.
    pub fn new(hist_len: u32, log_size: u32) -> Self {
        assert!((2..=64).contains(&hist_len), "hist_len must be in 2..=64");
        assert!((1..=30).contains(&log_size), "log_size must be in 1..=30");
        Self {
            banks: std::array::from_fn(|_| vec![I2::default(); 1 << log_size]),
            ghist: HistoryRegister::new(hist_len as usize),
            hash: BankHash::new(hist_len, log_size),
            steps: Steps::new(),
            hist_len,
            cached: None,
        }
    }

    fn indices(&self, ip: u64) -> [usize; 4] {
        self.hash.indices(ip, self.ghist.low_bits())
    }

    /// The four banks as mutable slices, pinned for a run of updates.
    fn bank_slices(&mut self) -> [&mut [I2]; 4] {
        self.banks.each_mut().map(|b| &mut b[..])
    }

    /// Storage budget in bits.
    pub fn storage_bits(&self) -> u64 {
        4 * 2 * (1u64 << self.hash.log_size) + self.hist_len as u64
    }
}

impl Predictor for TwoBcGskew {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8)
    }

    fn predict(&mut self, ip: u64) -> bool {
        let idx = self.indices(ip);
        self.cached = Some((ip, idx));
        let [bim, g0, g1, meta] = &self.banks;
        choose(
            bim[idx[0]].is_taken(),
            g0[idx[1]].is_taken(),
            g1[idx[2]].is_taken(),
            meta[idx[3]].is_taken(),
        )
        .1
    }

    fn train(&mut self, branch: &Branch) {
        let idx = match self.cached.take() {
            Some((ip, idx)) if ip == branch.ip() => idx,
            _ => self.indices(branch.ip()),
        };
        let steps = self.steps;
        train_at(&mut self.bank_slices(), idx, branch.is_taken(), &steps);
    }

    fn track(&mut self, branch: &Branch) {
        self.ghist.push(branch.is_taken());
        self.cached = None;
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib 2bc-gskew",
            "history_length": self.hist_len,
            "log_bank_size": self.hash.log_size,
            "banks": 4,
        })
    }

    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        // GShare's fused register-history kernel: the whole history fits
        // one word, so simulate it in a local from the batch's own taken
        // bits, hash each conditional against it, predict and train in one
        // step, and flush prediction bits a word at a time. The default
        // loop does the same hashing and training; what the kernel drops is
        // its per-branch overhead: three calls, a `Branch` rebuilt from the
        // columns, the history register and the lookup cache round-trips.
        let (pcs, taken, ops) = (batch.pcs(), batch.taken(), batch.ops());
        let n = pcs.len();
        let (pcs, taken, ops) = (&pcs[..n], &taken[..n], &ops[..n]);
        let (hash, steps) = (self.hash, self.steps);
        let mut h = self.ghist.low_bits();
        let mut banks = self.bank_slices();
        let (mut acc, mut nbits) = (0u64, 0usize);
        for i in 0..n {
            let (t, conditional) = (taken[i] != 0, ops[i] & 0b1 != 0);
            if conditional {
                let prediction = train_at(&mut banks, hash.indices(pcs[i], h), t, &steps);
                acc |= (prediction as u64) << nbits;
                nbits += 1;
                if nbits == 64 {
                    out.push_word(acc, 64);
                    (acc, nbits) = (0, 0);
                }
            }
            if conditional | !track_only_conditional {
                h = ((h << 1) | t as u64) & hash.g1_mask;
            }
        }
        out.push_word(acc, nbits);
        self.ghist.set_low_bits(h);
        // Mirror `track`'s invalidation: any cached lookup is stale now.
        self.cached = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{biased, correlated_pair, loop_pattern, run};
    use crate::Bimodal;

    #[test]
    fn beats_bimodal_on_correlation() {
        let recs = correlated_pair(4000, 5);
        let (mis_gskew, _) = run(&mut TwoBcGskew::new(12, 12), &recs);
        let (mis_bim, total) = run(&mut Bimodal::new(12), &recs);
        assert!(
            mis_gskew < mis_bim,
            "gskew {mis_gskew} !< bimodal {mis_bim} of {total}"
        );
    }

    #[test]
    fn handles_bias_like_bimodal() {
        let recs = biased(3000, 17);
        let (mis, total) = run(&mut TwoBcGskew::new(12, 12), &recs);
        assert!((mis as f64) < 0.20 * total as f64, "mis = {mis}");
    }

    #[test]
    fn learns_loops() {
        let recs = loop_pattern(0x2000, 6, 300);
        let (mis, total) = run(&mut TwoBcGskew::new(14, 12), &recs);
        assert!((mis as f64) < 0.08 * total as f64, "mis = {mis} of {total}");
    }

    #[test]
    fn skewed_indices_differ() {
        let p = TwoBcGskew::new(16, 12);
        // With high probability the three banks map an address differently.
        let [_, a, b, _] = p.indices(0x1234_5678);
        assert_ne!(a, b);
    }

    #[test]
    fn storage_accounting() {
        let p = TwoBcGskew::new(16, 10);
        assert_eq!(p.storage_bits(), 4 * 2 * 1024 + 16);
    }
}
