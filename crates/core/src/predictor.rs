//! The branch predictor interface (§IV-A of the paper).

use mbp_json::Value;
use mbp_trace::{Branch, BranchBatch};

use crate::introspect::TableProbe;

/// A growable bitset collecting one prediction per conditional branch, in
/// batch order — the output buffer of [`Predictor::predict_batch`].
///
/// Bit-packed so a 2048-record batch's predictions stay in four cache
/// lines, and cleared by truncation so the buffer is reused across batches
/// without reallocation.
///
/// # Examples
///
/// ```
/// use mbp_core::PredictionBits;
///
/// let mut bits = PredictionBits::new();
/// bits.push(true);
/// bits.push(false);
/// assert_eq!(bits.len(), 2);
/// assert!(bits.get(0));
/// assert!(!bits.get(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictionBits {
    words: Vec<u64>,
    len: usize,
}

impl PredictionBits {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of predictions pushed since the last clear.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no predictions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the bitset, keeping its allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one prediction.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if let Some(word) = self.words.last_mut() {
            *word |= (taken as u64) << bit;
        }
        self.len += 1;
    }

    /// Appends the low `count` bits of `bits`, LSB first — the bulk
    /// counterpart of [`push`](PredictionBits::push) for kernels that
    /// accumulate predictions in a register and flush once per word.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn push_word(&mut self, bits: u64, count: usize) {
        assert!(count <= 64, "cannot push {count} bits from one word");
        if count == 0 {
            return;
        }
        let bits = if count == 64 {
            bits
        } else {
            bits & ((1u64 << count) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(bits);
        } else {
            if let Some(word) = self.words.last_mut() {
                *word |= bits << off;
            }
            if count > 64 - off {
                self.words.push(bits >> (64 - off));
            }
        }
        self.len += count;
    }

    /// The `i`-th prediction.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "prediction index {i} out of range {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Iterates the predictions in push order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
    }
}

/// A branch direction predictor.
///
/// The contract follows MBPlib's `mbp::Predictor` exactly:
///
/// * [`predict`](Predictor::predict) — "obtains the outcome prediction for a
///   given instruction address. This function shall not modify the state of
///   the predictor in any way that would affect future predictions." It
///   takes `&mut self` only so implementations may cache lookups for the
///   matching `train` call (the paper's tournament predictor does exactly
///   this); semantically it must be idempotent.
/// * [`train`](Predictor::train) — updates the structures that decide
///   predictions, given the resolved branch.
/// * [`track`](Predictor::track) — updates the *scenario*: "the information
///   stored about the recent program behavior, such as the outcome of
///   recent branches".
///
/// When driven by the simulator, `predict` and `train` are invoked for
/// conditional branches and `track` for **all** branches. When a predictor
/// is a subcomponent of a meta-predictor or sits behind a filter, the owning
/// component decides which functions to call and with which
/// [`Branch`] values — that freedom is the point of the split (§IV-B).
///
/// # Examples
///
/// See the crate-level example, or `mbp-predictors` for the full collection.
pub trait Predictor {
    /// Predicts the outcome of the branch at `ip`.
    ///
    /// Must not change any state that affects future predictions; caching
    /// for a same-`ip` `train` call is allowed (the paper's Listing 4:
    /// TAGE, BATAGE, the hashed perceptron, 2bc-gskew, GShare and the
    /// tournament keep their lookup so `train` need not repeat it).
    ///
    /// The invalidation rule that keeps such a cache invisible: `train`
    /// reads the cached lookup only when its ip matches, and every `&mut`
    /// call other than `predict` — `train`, `track`, `predict_batch` —
    /// clears it. A `predict` on another ip replaces it; a `train` with no
    /// `predict` before it recomputes the lookup.
    fn predict(&mut self, ip: u64) -> bool;

    /// Updates the prediction structures with the resolved branch.
    fn train(&mut self, branch: &Branch);

    /// Updates the scenario (history registers, path registers, …) with the
    /// resolved branch.
    fn track(&mut self, branch: &Branch);

    /// Static description of the predictor (name and parameters), embedded
    /// under `metadata.predictor` in the simulator output (Listing 1).
    fn metadata(&self) -> Value {
        Value::from("unnamed predictor")
    }

    /// Dynamic execution statistics, embedded under `predictor_statistics`
    /// in the simulator output (and per-predictor in the comparison and
    /// sweep documents).
    ///
    /// # Contract
    ///
    /// * Returns a JSON **object** (possibly empty — the default). Scalars
    ///   or arrays would not merge predictably into the output document.
    /// * Must be cheap and read-only: it is called once per run, after the
    ///   trace is exhausted, and must not mutate predictor state.
    /// * Values must be deterministic for a given record stream and
    ///   configuration — the driver-equivalence suite compares full output
    ///   documents across the scalar, batched and sweep drivers.
    /// * Counters that back these statistics should live on the `train` /
    ///   `track` paths, never on `predict` (which the simulator may call
    ///   speculatively), and should be plain integer increments so the
    ///   statistics stay free for the hot path.
    fn execution_statistics(&self) -> Value {
        Value::object()
    }

    /// Approximate resident size of the predictor's state in **bytes**,
    /// used by the sweep's memory-budget admission control
    /// ([`crate::SweepConfig::mem_budget`]) to bound how many predictors
    /// run concurrently.
    ///
    /// # Contract
    ///
    /// * Advisory, not enforced: return the dominant storage cost (tables,
    ///   history buffers), typically `storage_bits() / 8`. Exactness is not
    ///   required; order of magnitude is what admission control needs.
    /// * Must be cheap, read-only and stable for the predictor's lifetime —
    ///   it is called once, before the predictor's simulation starts.
    /// * The default of `0` opts the predictor out of admission gating (it
    ///   is admitted immediately and counts nothing against the budget).
    fn size_hint(&self) -> u64 {
        0
    }

    /// Component attribution for the most recent misprediction — which
    /// internal structure produced the wrong final prediction.
    ///
    /// # Contract
    ///
    /// * Only meaningful immediately after a [`train`](Predictor::train)
    ///   call whose resolved outcome disagreed with the prediction this
    ///   predictor would have returned for the same branch; callers (the
    ///   forensics engine) query it only at that point, and implementations
    ///   may leave stale labels behind at any other time.
    /// * Labels are static component names local to the predictor
    ///   (`"provider"`, `"alt"`, `"base"`, `"chooser_wrong"`,
    ///   `"both_wrong"`, …). They feed the `attribution` objects in the
    ///   forensic report.
    /// * Implementations must compute the label as a pure by-product of the
    ///   work `train` already does (a single extra store), so predictors
    ///   with attribution stay bit-identical to their golden vectors.
    /// * The default `None` opts a predictor out: its forensic report shows
    ///   structure but no component breakdown.
    fn last_mispredict_blame(&self) -> Option<&'static str> {
        None
    }

    /// End-of-run table-health probes (see [`TableProbe`]), surfaced in the
    /// output's `introspection` section when the run collects probes
    /// ([`crate::SimConfig::collect_probes`]).
    ///
    /// Like [`execution_statistics`](Predictor::execution_statistics), this
    /// is called once per run and must be read-only and deterministic.
    /// Predictors without probe support return the default empty list.
    fn table_probes(&self) -> Vec<TableProbe> {
        Vec::new()
    }

    /// Processes a whole batch of resolved branches, appending one
    /// prediction bit per **conditional** branch to `out` (in batch order).
    ///
    /// # Contract
    ///
    /// The resulting predictor state and prediction bitstream must be
    /// **bit-identical** to driving the per-branch interface over the same
    /// records: for each record in order, `predict(ip)` + `train(branch)`
    /// if conditional, then `track(branch)` unless `track_only_conditional`
    /// is set and the branch is not conditional. The simulator's batched
    /// driver relies on this to stay byte-equivalent with the scalar one;
    /// the batch-equivalence suite enforces it for every override.
    ///
    /// Implementations may compute predictions out of order internally
    /// (hash all table indices in one vectorizable pass, simulate the
    /// history register from the batch's own taken bits) as long as the
    /// observable contract above holds. The default implementation is the
    /// literal scalar loop — correct for every predictor, and still a win
    /// for composed predictors because one virtual `predict_batch` call
    /// replaces three virtual calls per record with statically dispatched
    /// ones.
    ///
    /// Callers must `out.clear()` (or otherwise account for existing bits)
    /// before the call; bits are appended.
    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        for i in 0..batch.len() {
            let branch = batch.branch(i);
            let conditional = branch.is_conditional();
            if conditional {
                out.push(self.predict(branch.ip()));
                self.train(&branch);
            }
            if conditional || !track_only_conditional {
                self.track(&branch);
            }
        }
    }
}

/// Boxed predictors forward the interface, so `Box<dyn Predictor>` members
/// compose (the generalized tournament of §VI-D holds its components this
/// way).
impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn predict(&mut self, ip: u64) -> bool {
        (**self).predict(ip)
    }

    fn train(&mut self, branch: &Branch) {
        (**self).train(branch)
    }

    fn track(&mut self, branch: &Branch) {
        (**self).track(branch)
    }

    fn metadata(&self) -> Value {
        (**self).metadata()
    }

    fn execution_statistics(&self) -> Value {
        (**self).execution_statistics()
    }

    fn size_hint(&self) -> u64 {
        (**self).size_hint()
    }

    fn last_mispredict_blame(&self) -> Option<&'static str> {
        (**self).last_mispredict_blame()
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        (**self).table_probes()
    }

    fn predict_batch(
        &mut self,
        batch: &BranchBatch,
        track_only_conditional: bool,
        out: &mut PredictionBits,
    ) {
        // Must forward, not fall back to the default loop: the inner type
        // may have a vectorized kernel.
        (**self).predict_batch(batch, track_only_conditional, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;
    use mbp_trace::Opcode;

    struct Fixed(bool, u32);

    impl Predictor for Fixed {
        fn predict(&mut self, _ip: u64) -> bool {
            self.0
        }
        fn train(&mut self, _b: &Branch) {
            self.1 += 1;
        }
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "fixed", "direction": self.0})
        }
    }

    #[test]
    fn boxed_predictor_forwards() {
        let mut p: Box<dyn Predictor> = Box::new(Fixed(true, 0));
        assert!(p.predict(0));
        let b = Branch::new(0, 0, Opcode::conditional_direct(), true);
        p.train(&b);
        p.track(&b);
        assert_eq!(p.metadata()["name"], Value::from("fixed"));
        assert_eq!(p.execution_statistics(), Value::object());
        assert!(p.table_probes().is_empty(), "default probes are empty");
        assert_eq!(p.last_mispredict_blame(), None, "default blame is None");
    }

    #[test]
    fn prediction_bits_pack_and_roundtrip() {
        let mut bits = PredictionBits::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bits.push(b);
        }
        assert_eq!(bits.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bits.get(i), b, "bit {i}");
        }
        let back: Vec<bool> = bits.iter().collect();
        assert_eq!(back, pattern);
        bits.clear();
        assert!(bits.is_empty());
        bits.push(true);
        assert!(bits.get(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prediction_bits_get_out_of_range_panics() {
        PredictionBits::new().get(0);
    }

    #[test]
    fn push_word_matches_bitwise_push() {
        // Every (initial offset, count) combination crossing a word
        // boundary must produce the same stream as bit-at-a-time pushes.
        for pre in [0usize, 1, 17, 63, 64] {
            for count in [0usize, 1, 5, 47, 64] {
                let bits = 0xdead_beef_cafe_f00d_u64;
                let mut bulk = PredictionBits::new();
                let mut single = PredictionBits::new();
                for i in 0..pre {
                    bulk.push(i % 3 == 0);
                    single.push(i % 3 == 0);
                }
                bulk.push_word(bits, count);
                for i in 0..count {
                    single.push((bits >> i) & 1 == 1);
                }
                assert_eq!(
                    bulk.iter().collect::<Vec<_>>(),
                    single.iter().collect::<Vec<_>>(),
                    "pre {pre} count {count}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn push_word_rejects_oversized_count() {
        PredictionBits::new().push_word(0, 65);
    }

    /// Records exactly which interface calls the default `predict_batch`
    /// makes and in what order, pinning the fallback contract.
    #[derive(Default)]
    struct Spy {
        calls: Vec<String>,
    }

    impl Predictor for Spy {
        fn predict(&mut self, ip: u64) -> bool {
            self.calls.push(format!("predict {ip:#x}"));
            ip & 1 == 0
        }
        fn train(&mut self, b: &Branch) {
            self.calls.push(format!("train {:#x}", b.ip()));
        }
        fn track(&mut self, b: &Branch) {
            self.calls.push(format!("track {:#x}", b.ip()));
        }
    }

    #[test]
    fn default_predict_batch_mirrors_scalar_sequence() {
        use mbp_trace::{BranchBatch, BranchRecord};

        let records = vec![
            BranchRecord::new(
                Branch::new(0x10, 0x90, Opcode::conditional_direct(), true),
                0,
            ),
            BranchRecord::new(
                Branch::new(0x21, 0x90, Opcode::unconditional_direct(), true),
                1,
            ),
            BranchRecord::new(
                Branch::new(0x32, 0x90, Opcode::conditional_direct(), false),
                2,
            ),
        ];
        let batch = BranchBatch::from_records(&records);

        for track_only_conditional in [false, true] {
            let mut batched = Spy::default();
            let mut bits = PredictionBits::new();
            batched.predict_batch(&batch, track_only_conditional, &mut bits);

            let mut scalar = Spy::default();
            let mut expected_bits = Vec::new();
            for rec in &records {
                let b = rec.branch;
                if b.is_conditional() {
                    expected_bits.push(scalar.predict(b.ip()));
                    scalar.train(&b);
                }
                if b.is_conditional() || !track_only_conditional {
                    scalar.track(&b);
                }
            }

            assert_eq!(
                batched.calls, scalar.calls,
                "track_only {track_only_conditional}"
            );
            assert_eq!(bits.iter().collect::<Vec<_>>(), expected_bits);
        }
    }
}
