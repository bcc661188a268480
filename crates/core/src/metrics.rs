//! Metric accumulation: MPKI, accuracy and the most-failed-branches report.

use crate::forensics::Shape;

/// Aggregate metrics of a simulation (the `metrics` section of Listing 1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Mispredictions per kilo-instruction over the measured window.
    pub mpki: f64,
    /// Mispredicted conditional branches (post-warmup).
    pub mispredictions: u64,
    /// Correct predictions / measured conditional branches.
    pub accuracy: f64,
    /// Minimum number of static branches that account, on their own, for
    /// half of all mispredictions.
    pub num_most_failed_branches: u64,
    /// Wall-clock simulation time in seconds.
    pub simulation_time: f64,
}

/// Per-static-branch statistics (an entry of the `most_failed` list).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BranchStat {
    /// Address of the branch instruction.
    pub ip: u64,
    /// Measured dynamic occurrences.
    pub occurrences: u64,
    /// Mispredictions attributed to this branch.
    pub mispredictions: u64,
    /// Taken outcomes among the measured occurrences.
    pub taken: u64,
    /// This branch's contribution to MPKI.
    pub mpki: f64,
    /// Prediction accuracy on this branch alone.
    pub accuracy: f64,
    /// Shannon entropy of the branch's direction (0 = perfectly biased,
    /// 1 = 50/50).
    pub direction_entropy: f64,
    /// Fraction of consecutive occurrences whose outcomes differ
    /// (0 = constant, 1 = strictly alternating).
    pub transition_rate: f64,
}

/// Aggregated counts of one taxonomy class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStat {
    /// Static branches in the class.
    pub branches: u64,
    /// Their dynamic occurrences.
    pub occurrences: u64,
    /// Their mispredictions.
    pub mispredictions: u64,
}

/// Entropy-class boundaries: `strongly_biased` H < 0.1, `biased` < 0.5,
/// `mixed` < 0.9, `unbiased` ≥ 0.9.
pub const ENTROPY_CLASSES: [&str; 4] = ["strongly_biased", "biased", "mixed", "unbiased"];
/// Transition-class boundaries: `stable` rate < 0.2, `irregular` < 0.8,
/// `alternating` ≥ 0.8.
pub const TRANSITION_CLASSES: [&str; 3] = ["stable", "irregular", "alternating"];

/// Per-static-branch misprediction characterization: how biased each
/// branch's direction is (entropy) and how often it flips (transition
/// rate), aggregated into fixed classes. The lens of the workload-
/// characterization literature: a high-MPKI predictor losing on
/// `unbiased`/`alternating` branches needs history; one losing on
/// `strongly_biased` branches has a capacity or aliasing problem.
///
/// Derived purely from outcome counts, so two drivers that process the
/// same record stream produce byte-identical taxonomies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BranchTaxonomy {
    /// Static branches with at least one measured occurrence.
    pub measured_branches: u64,
    /// Occurrence-weighted mean direction entropy.
    pub mean_direction_entropy: f64,
    /// Occurrence-weighted mean transition rate.
    pub mean_transition_rate: f64,
    /// Per-class stats, in [`ENTROPY_CLASSES`] order.
    pub entropy_classes: [ClassStat; 4],
    /// Per-class stats, in [`TRANSITION_CLASSES`] order.
    pub transition_classes: [ClassStat; 3],
}

/// Shannon entropy of a branch taken `taken` times in `occurrences`.
pub(crate) fn direction_entropy(taken: u64, occurrences: u64) -> f64 {
    if occurrences == 0 || taken == 0 || taken == occurrences {
        return 0.0;
    }
    let p = taken as f64 / occurrences as f64;
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Transition rate over `occurrences` outcomes with `transitions` flips.
pub(crate) fn transition_rate(transitions: u64, occurrences: u64) -> f64 {
    if occurrences < 2 {
        0.0
    } else {
        transitions as f64 / (occurrences - 1) as f64
    }
}

fn entropy_class(h: f64) -> usize {
    match h {
        h if h < 0.1 => 0,
        h if h < 0.5 => 1,
        h if h < 0.9 => 2,
        _ => 3,
    }
}

fn transition_class(rate: f64) -> usize {
    match rate {
        r if r < 0.2 => 0,
        r if r < 0.8 => 1,
        _ => 2,
    }
}

/// The [`ENTROPY_CLASSES`] label for direction entropy `h`.
pub(crate) fn entropy_class_name(h: f64) -> &'static str {
    ENTROPY_CLASSES[entropy_class(h)]
}

/// The [`TRANSITION_CLASSES`] label for transition rate `rate`.
pub(crate) fn transition_class_name(rate: f64) -> &'static str {
    TRANSITION_CLASSES[transition_class(rate)]
}

/// A [`BranchTable`] starts with `2^SLOT_BITS` slots: 1 024 static
/// branches fit before the first growth, more than any benchmark trace has.
const SLOT_BITS: u32 = 11;
/// The address that marks an empty slot. No trace file holds it (SBBT
/// addresses are below 2^51), but an in-memory source can, so a
/// [`BranchTable`] keeps that one branch's state beside its slots.
const EMPTY: u64 = u64::MAX;

/// `ip`'s home slot in a table of `2^(64 - shift)` slots. Fibonacci
/// hashing: one multiply, the top bits as the index.
#[inline]
fn home(ip: u64, shift: u32) -> usize {
    (ip.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Per-branch state keyed by branch address: the crate's one per-branch
/// structure. Open addressing with linear probing, so a branch's state
/// never moves on a collision; the table doubles when an insert would make
/// it more than half full. It sits on the simulator's per-record hot path,
/// where a hit costs one multiply and, at real footprints, one slot read.
#[derive(Clone, Debug)]
pub(crate) struct BranchTable<V> {
    /// `(ip, state)` pairs; an [`EMPTY`] ip marks a free slot.
    slots: Box<[(u64, V)]>,
    /// 64 minus log2 of the slot count.
    shift: u32,
    len: usize,
    /// The state of the branch at address [`EMPTY`], once it is seen.
    empty_key: Option<V>,
}

impl<V: Clone + Default> Default for BranchTable<V> {
    fn default() -> Self {
        Self::with_shift(64 - SLOT_BITS)
    }
}

impl<V: Clone + Default> BranchTable<V> {
    fn with_shift(shift: u32) -> Self {
        Self {
            slots: vec![(EMPTY, V::default()); 1 << (64 - shift)].into_boxed_slice(),
            shift,
            len: 0,
            empty_key: None,
        }
    }

    /// `ip`'s slot, or the free slot that ends its probe sequence.
    #[inline]
    fn slot(&self, ip: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut index = home(ip, self.shift);
        while self.slots[index].0 != ip && self.slots[index].0 != EMPTY {
            index = (index + 1) & mask;
        }
        index
    }

    /// Branch `ip`'s state, inserted as `V::default()` if it is new.
    #[inline]
    pub(crate) fn entry(&mut self, ip: u64) -> &mut V {
        let index = home(ip, self.shift);
        if self.slots[index].0 != ip || ip == EMPTY {
            return self.find_or_insert(ip);
        }
        &mut self.slots[index].1
    }

    /// Branch `ip`'s state away from its home slot: found further along
    /// its probe sequence, or inserted there, after doubling the table if
    /// it is half full; the [`EMPTY`] address's state beside the slots.
    #[inline(never)]
    fn find_or_insert(&mut self, ip: u64) -> &mut V {
        if ip == EMPTY {
            return self.empty_key.get_or_insert_with(V::default);
        }
        let mut index = self.slot(ip);
        if self.slots[index].0 != ip {
            if self.len >= self.slots.len() / 2 {
                let old = std::mem::replace(self, Self::with_shift(self.shift - 1));
                self.empty_key = old.empty_key;
                for (key, value) in old.slots.into_vec() {
                    if key != EMPTY {
                        *self.find_or_insert(key) = value;
                    }
                }
                index = self.slot(ip);
            }
            self.slots[index] = (ip, V::default());
            self.len += 1;
        }
        &mut self.slots[index].1
    }

    /// Branch `ip`'s state, if the table holds it.
    pub(crate) fn get(&self, ip: u64) -> Option<&V> {
        if ip == EMPTY {
            return self.empty_key.as_ref();
        }
        let (key, value) = &self.slots[self.slot(ip)];
        (*key == ip).then_some(value)
    }

    /// Every branch with its state, in slot order, then the [`EMPTY`]
    /// address's.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (self.slots.iter())
            .filter(|(ip, _)| *ip != EMPTY)
            .map(|(ip, value)| (*ip, value))
            .chain(self.empty_key.as_ref().map(|value| (EMPTY, value)))
    }
}

/// One branch's exact outcome totals.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    occurrences: u64,
    mispredictions: u64,
    taken: u64,
    transitions: u64,
    /// Previous outcome plus one (1 not taken, 2 taken); 0 before the first.
    last: u8,
}

impl Tally {
    #[inline]
    fn record(&mut self, taken: bool, mispredicted: bool) {
        let outcome = 1 + taken as u8;
        self.occurrences += 1;
        self.mispredictions += mispredicted as u64;
        self.taken += taken as u64;
        // `3 - outcome` is the other outcome, which 0 never equals.
        self.transitions += (self.last == 3 - outcome) as u64;
        self.last = outcome;
    }

    /// Branch `ip`'s `most_failed` entry over `instructions` measured
    /// instructions.
    fn stat(&self, ip: u64, instructions: u64) -> BranchStat {
        BranchStat {
            ip,
            occurrences: self.occurrences,
            mispredictions: self.mispredictions,
            taken: self.taken,
            mpki: mpki(self.mispredictions, instructions),
            accuracy: accuracy(self.mispredictions, self.occurrences),
            direction_entropy: direction_entropy(self.taken, self.occurrences),
            transition_rate: transition_rate(self.transitions, self.occurrences),
        }
    }
}

/// Accumulates per-branch outcomes and derives the most-failed report.
///
/// Every count is exact: each branch's tally lives in its own slot of a
/// [`BranchTable`]. A forensic run's accumulator also keeps each recorded
/// branch's shape — streaks, misprediction bursts and component blame — in
/// a second table, so a plain run's slots carry none of it.
#[derive(Clone, Debug, Default)]
pub struct MostFailed {
    branches: BranchTable<Tally>,
    /// `None` unless the accumulator is forensic.
    shapes: Option<BranchTable<Shape>>,
    /// The running worst branch of the outcomes recorded through
    /// [`record_with_worst`](Self::record_with_worst), as the key
    /// `mispredictions << 64 | !ip`: the larger key has more
    /// mispredictions or, on a tie, the lower address.
    worst: u128,
}

impl MostFailed {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty accumulator that, if `shapes`, also keeps each
    /// branch's forensic shape.
    pub(crate) fn with_shapes(shapes: bool) -> Self {
        Self {
            shapes: shapes.then(BranchTable::default),
            ..Self::default()
        }
    }

    /// Records one measured conditional branch outcome.
    #[inline]
    pub fn record(&mut self, ip: u64, taken: bool, mispredicted: bool) {
        self.branches.entry(ip).record(taken, mispredicted);
    }

    /// Records one measured outcome as [`record`](Self::record) does and
    /// also moves the running worst branch (the status slot's drill-down).
    #[inline]
    pub(crate) fn record_with_worst(&mut self, ip: u64, taken: bool, mispredicted: bool) {
        self.record_forensic(ip, taken, mispredicted, None);
    }

    /// Records one measured outcome as
    /// [`record_with_worst`](Self::record_with_worst) does and, on a
    /// forensic accumulator, also the branch's shape; `blame` names the
    /// component a misprediction is attributed to.
    #[inline]
    pub(crate) fn record_forensic(
        &mut self,
        ip: u64,
        taken: bool,
        mispredicted: bool,
        blame: Option<&'static str>,
    ) {
        let tally = self.branches.entry(ip);
        let repeats = tally.last == 1 + taken as u8;
        tally.record(taken, mispredicted);
        // A branch's count moves only when it mispredicts, so comparing on
        // every outcome finds the same maximum without branching on the
        // outcome; the branch below is taken only when the worst moves.
        let key = u128::from(tally.mispredictions) << 64 | u128::from(!ip);
        if key > self.worst {
            self.worst = key;
        }
        if let Some(shapes) = self.shapes.as_mut() {
            shapes.entry(ip).record(repeats, mispredicted, blame);
        }
    }

    /// Notes a static branch address without attributing an outcome
    /// (unconditional branches, or warm-up occurrences).
    #[inline]
    pub fn note_static(&mut self, ip: u64) {
        self.branches.entry(ip);
    }

    /// Number of distinct measured branch addresses.
    pub fn distinct_branches(&self) -> u64 {
        self.branches.iter().count() as u64
    }

    /// The minimum number of branches whose mispredictions sum to at least
    /// half of `total_mispredictions` (the paper's
    /// `num_most_failed_branches`).
    pub fn half_coverage_count(&self, total_mispredictions: u64) -> u64 {
        if total_mispredictions == 0 {
            return 0;
        }
        let mut counts: Vec<u64> = (self.branches.iter())
            .map(|(_, tally)| tally.mispredictions)
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        for (i, m) in counts.iter().enumerate() {
            acc += m;
            if 2 * acc >= total_mispredictions {
                return i as u64 + 1;
            }
        }
        counts.len() as u64
    }

    /// Every measured branch in report order — mispredictions descending,
    /// ties toward lower addresses — as its entry over `instructions`
    /// measured instructions.
    pub(crate) fn ranked(&self, instructions: u64) -> impl Iterator<Item = BranchStat> + '_ {
        let mut entries: Vec<(u64, &Tally)> = (self.branches.iter())
            .filter(|(_, tally)| tally.occurrences > 0)
            .collect();
        entries.sort_unstable_by(|(a_ip, a), (b_ip, b)| {
            b.mispredictions.cmp(&a.mispredictions).then(a_ip.cmp(b_ip))
        });
        (entries.into_iter()).map(move |(ip, tally)| tally.stat(ip, instructions))
    }

    /// Branch `ip`'s shape; `None` unless the accumulator is forensic and
    /// recorded the branch.
    pub(crate) fn shape(&self, ip: u64) -> Option<&Shape> {
        self.shapes.as_ref()?.get(ip)
    }

    /// The top-`limit` branches by misprediction count, with their stats.
    /// `instructions` is the measured instruction count used for per-branch
    /// MPKI. Ties break toward lower addresses so output is deterministic.
    pub fn top(&self, limit: usize, instructions: u64) -> Vec<BranchStat> {
        self.ranked(instructions).take(limit).collect()
    }

    /// The running worst `(ip, mispredictions)` of the outcomes recorded
    /// through [`record_with_worst`](Self::record_with_worst), ties toward the
    /// lower address; `None` before the first misprediction. Counts only
    /// grow, so once recording ends this is the first [`top`](Self::top)
    /// entry.
    pub(crate) fn worst_branch(&self) -> Option<(u64, u64)> {
        let misses = (self.worst >> 64) as u64;
        (misses > 0).then_some((!(self.worst as u64), misses))
    }

    /// Characterizes every measured branch into the taxonomy classes.
    ///
    /// Entries are accumulated in address order, so the floating-point means
    /// are identical for any two accumulators that saw the same outcomes —
    /// regardless of where the table placed them.
    pub fn taxonomy(&self) -> BranchTaxonomy {
        let mut entries: Vec<(u64, &Tally)> = self.branches.iter().collect();
        entries.sort_unstable_by_key(|(ip, _)| *ip);

        let mut tax = BranchTaxonomy::default();
        let mut weighted_entropy = 0.0;
        let mut weighted_transition = 0.0;
        let mut occurrences = 0u64;
        for (_, c) in entries {
            if c.occurrences == 0 {
                continue; // never measured (warm-up only or unconditional)
            }
            let h = direction_entropy(c.taken, c.occurrences);
            let rate = transition_rate(c.transitions, c.occurrences);
            tax.measured_branches += 1;
            occurrences += c.occurrences;
            weighted_entropy += h * c.occurrences as f64;
            weighted_transition += rate * c.occurrences as f64;
            for (class, stat) in [
                (entropy_class(h), &mut tax.entropy_classes[..]),
                (transition_class(rate), &mut tax.transition_classes[..]),
            ] {
                stat[class].branches += 1;
                stat[class].occurrences += c.occurrences;
                stat[class].mispredictions += c.mispredictions;
            }
        }
        if occurrences > 0 {
            tax.mean_direction_entropy = weighted_entropy / occurrences as f64;
            tax.mean_transition_rate = weighted_transition / occurrences as f64;
        }
        tax
    }
}

/// Computes MPKI from raw counts.
pub fn mpki(mispredictions: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        mispredictions as f64 * 1000.0 / instructions as f64
    }
}

/// Computes accuracy from raw counts.
pub fn accuracy(mispredictions: u64, conditional_branches: u64) -> f64 {
    if conditional_branches == 0 {
        1.0
    } else {
        (conditional_branches - mispredictions) as f64 / conditional_branches as f64
    }
}

/// `ip`'s home slot at the starting size, from which tests pick addresses
/// that share one.
#[cfg(test)]
fn slot_index(ip: u64) -> usize {
    home(ip, 64 - SLOT_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use mbp_utils::Xorshift64;

    #[test]
    fn mpki_and_accuracy_formulas() {
        assert_eq!(mpki(5, 1000), 5.0);
        assert_eq!(mpki(0, 0), 0.0);
        assert_eq!(accuracy(25, 100), 0.75);
        assert_eq!(accuracy(0, 0), 1.0);
    }

    #[test]
    fn half_coverage_single_dominant_branch() {
        let mut mf = MostFailed::new();
        for _ in 0..60 {
            mf.record(0xA, true, true);
        }
        for i in 0..40 {
            mf.record(0xB + i % 4, true, true);
        }
        // 0xA holds 60 of 100 mispredictions: one branch suffices.
        assert_eq!(mf.half_coverage_count(100), 1);
    }

    #[test]
    fn half_coverage_uniform_spread() {
        let mut mf = MostFailed::new();
        for ip in 0..10u64 {
            for _ in 0..10 {
                mf.record(ip, true, true);
            }
        }
        assert_eq!(mf.half_coverage_count(100), 5);
    }

    #[test]
    fn half_coverage_zero_mispredictions() {
        let mut mf = MostFailed::new();
        mf.record(1, true, false);
        assert_eq!(mf.half_coverage_count(0), 0);
    }

    #[test]
    fn top_sorts_by_mispredictions_then_ip() {
        let mut mf = MostFailed::new();
        for _ in 0..3 {
            mf.record(0x30, true, true);
        }
        for _ in 0..3 {
            mf.record(0x10, true, true);
        }
        for _ in 0..5 {
            mf.record(0x20, true, true);
        }
        mf.record(0x40, true, false);
        let top = mf.top(10, 1000);
        assert_eq!(top[0].ip, 0x20);
        assert_eq!(top[1].ip, 0x10, "tie broken toward lower ip");
        assert_eq!(top[2].ip, 0x30);
        assert_eq!(top[3].ip, 0x40);
        assert_eq!(top[0].mpki, 5.0);
        assert_eq!(top[3].accuracy, 1.0);
    }

    #[test]
    fn top_respects_limit() {
        let mut mf = MostFailed::new();
        for ip in 0..20u64 {
            mf.record(ip, true, true);
        }
        assert_eq!(mf.top(5, 100).len(), 5);
        assert_eq!(mf.distinct_branches(), 20);
    }

    #[test]
    fn entropy_extremes() {
        // Always-taken branch: zero entropy, zero transitions.
        let mut mf = MostFailed::new();
        for _ in 0..100 {
            mf.record(0xA, true, false);
        }
        // Alternating branch: maximal entropy and transition rate.
        for i in 0..100 {
            mf.record(0xB, i % 2 == 0, true);
        }
        let top = mf.top(10, 1000);
        let a = top.iter().find(|s| s.ip == 0xA).unwrap();
        let b = top.iter().find(|s| s.ip == 0xB).unwrap();
        assert_eq!(a.direction_entropy, 0.0);
        assert_eq!(a.transition_rate, 0.0);
        assert_eq!(a.taken, 100);
        assert!((b.direction_entropy - 1.0).abs() < 1e-12, "50/50 → H = 1");
        assert_eq!(b.transition_rate, 1.0, "strict alternation");
        assert_eq!(b.taken, 50);
    }

    #[test]
    fn taxonomy_classes_and_means() {
        let mut mf = MostFailed::new();
        for _ in 0..50 {
            mf.record(0x10, true, false); // strongly biased + stable
        }
        for i in 0..50 {
            mf.record(0x20, i % 2 == 0, true); // unbiased + alternating
        }
        let tax = mf.taxonomy();
        assert_eq!(tax.measured_branches, 2);
        assert_eq!(tax.entropy_classes[0].branches, 1, "strongly_biased");
        assert_eq!(tax.entropy_classes[3].branches, 1, "unbiased");
        assert_eq!(tax.transition_classes[0].branches, 1, "stable");
        assert_eq!(tax.transition_classes[2].branches, 1, "alternating");
        assert_eq!(tax.entropy_classes[3].mispredictions, 50);
        assert!((tax.mean_direction_entropy - 0.5).abs() < 1e-9);
        // 49 transitions over 49 consecutive pairs on 0x20, none on 0x10;
        // weighted by occurrences: (0*50 + 1*50) / 100.
        assert!((tax.mean_transition_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn taxonomy_survives_slot_eviction() {
        // Two addresses that collide in the slot array thrash each other;
        // every count must stay exact as their states trade places.
        let a = 0x100;
        let mut b = 0x101;
        while super::slot_index(b) != super::slot_index(a) {
            b += 1;
        }
        let mut mf = MostFailed::new();
        for i in 0..40 {
            mf.record(a, true, false);
            mf.record(b, i % 2 == 0, true);
        }
        let tax = mf.taxonomy();
        assert_eq!(tax.measured_branches, 2);
        let top = mf.top(10, 1000);
        let sa = top.iter().find(|s| s.ip == a).unwrap();
        let sb = top.iter().find(|s| s.ip == b).unwrap();
        assert_eq!(sa.occurrences, 40);
        assert_eq!(sa.taken, 40);
        assert_eq!(sb.occurrences, 40);
        assert_eq!(sb.taken, 20);
        // Each residency is a single record, but the outcome chain moves
        // with the state: b strictly alternates.
        assert_eq!(sa.transition_rate, 0.0);
        assert_eq!(sb.transition_rate, 1.0);
    }

    #[test]
    fn worst_branch_tracks_max_mispredictions() {
        let mut mf = MostFailed::new();
        assert_eq!(mf.worst_branch(), None);
        mf.record_with_worst(0x10, true, false);
        assert_eq!(mf.worst_branch(), None, "no mispredictions yet");
        mf.record_with_worst(0x30, true, true);
        mf.record_with_worst(0x20, true, true);
        assert_eq!(
            mf.worst_branch(),
            Some((0x20, 1)),
            "ties go to the lower ip"
        );
        mf.record_with_worst(0x30, true, true);
        assert_eq!(mf.worst_branch(), Some((0x30, 2)));
    }

    /// A branch's state in the naive reference of
    /// [`exact_against_a_naive_map_under_slot_sharing`].
    #[derive(Default)]
    struct Naive {
        occurrences: u64,
        mispredictions: u64,
        taken: u64,
        transitions: u64,
        last: Option<bool>,
        streak: u64,
        max_streak: u64,
        burst: u64,
        max_burst: u64,
        bursts: u64,
        blame: BTreeMap<&'static str, u64>,
    }

    #[test]
    fn exact_against_a_naive_map_under_slot_sharing() {
        // Four ips in one slot, three in another, and three loners, recorded
        // and noted in a seeded random order.
        let sharing = |base: u64, n: usize| -> Vec<u64> {
            (base..)
                .filter(|&ip| slot_index(ip) == slot_index(base))
                .take(n)
                .collect()
        };
        let mut ips = sharing(0x40_0000, 4);
        ips.extend(sharing(0x41_0004, 3));
        ips.extend([0x42_0000, 0x42_0010, 0x42_0020]);
        exact_against_a_naive_map(&ips, 20_000);
        // A footprint that doubles the table three times, each ip drawn
        // often enough that every one mispredicts.
        let wide: Vec<u64> = (0..6_000).map(|i| 0x50_0000 + 4 * i).collect();
        exact_against_a_naive_map(&wide, 240_000);
    }

    /// Records and notes `records` seeded random draws from `ips` into a
    /// plain and a forensic accumulator and checks both, and the forensic
    /// report, against a naive map.
    fn exact_against_a_naive_map(ips: &[u64], records: usize) {
        let mut rng = Xorshift64::new(0x5eed);
        let mut plain = MostFailed::new();
        let mut forensic = MostFailed::with_shapes(true);
        let mut naive: BTreeMap<u64, Naive> = BTreeMap::new();
        for _ in 0..records {
            let ip = ips[rng.below(ips.len() as u64) as usize];
            if rng.one_in(5) {
                plain.note_static(ip);
                forensic.note_static(ip);
                naive.entry(ip).or_default();
                continue;
            }
            let taken = rng.chance((ip % 7) as f64 / 6.0);
            let missed = rng.one_in(3);
            let blame = [None, Some("alt"), Some("provider")][rng.below(3) as usize];
            plain.record(ip, taken, missed);
            forensic.record_forensic(ip, taken, missed, blame);
            let n = naive.entry(ip).or_default();
            n.occurrences += 1;
            n.mispredictions += missed as u64;
            n.taken += taken as u64;
            n.transitions += (n.last == Some(!taken)) as u64;
            n.streak = if n.last == Some(taken) {
                n.streak + 1
            } else {
                1
            };
            n.max_streak = n.max_streak.max(n.streak);
            n.last = Some(taken);
            if missed {
                n.burst += 1;
                n.bursts += (n.burst == 1) as u64;
                n.max_burst = n.max_burst.max(n.burst);
                if let Some(label) = blame {
                    *n.blame.entry(label).or_default() += 1;
                }
            } else {
                n.burst = 0;
            }
        }

        let instructions = 1_000_000;
        let mut expected: Vec<BranchStat> = naive
            .iter()
            .filter(|(_, n)| n.occurrences > 0)
            .map(|(&ip, n)| BranchStat {
                ip,
                occurrences: n.occurrences,
                mispredictions: n.mispredictions,
                taken: n.taken,
                mpki: mpki(n.mispredictions, instructions),
                accuracy: accuracy(n.mispredictions, n.occurrences),
                direction_entropy: direction_entropy(n.taken, n.occurrences),
                transition_rate: transition_rate(n.transitions, n.occurrences),
            })
            .collect();
        expected.sort_by(|a, b| {
            b.mispredictions
                .cmp(&a.mispredictions)
                .then(a.ip.cmp(&b.ip))
        });
        let mut tax = BranchTaxonomy::default();
        let (mut entropy, mut transition, mut occurrences) = (0.0, 0.0, 0u64);
        let mut by_ip = expected.clone();
        by_ip.sort_by_key(|b| b.ip);
        for b in &by_ip {
            tax.measured_branches += 1;
            occurrences += b.occurrences;
            entropy += b.direction_entropy * b.occurrences as f64;
            transition += b.transition_rate * b.occurrences as f64;
            for stat in [
                &mut tax.entropy_classes[entropy_class(b.direction_entropy)],
                &mut tax.transition_classes[transition_class(b.transition_rate)],
            ] {
                stat.branches += 1;
                stat.occurrences += b.occurrences;
                stat.mispredictions += b.mispredictions;
            }
        }
        tax.mean_direction_entropy = entropy / occurrences as f64;
        tax.mean_transition_rate = transition / occurrences as f64;
        let total: u64 = expected.iter().map(|b| b.mispredictions).sum();
        let mut covered = 0;
        let half = 1 + expected
            .iter()
            .position(|b| {
                covered += b.mispredictions;
                2 * covered >= total
            })
            .unwrap() as u64;

        for mf in [&plain, &forensic] {
            let top = mf.top(usize::MAX, instructions);
            for (got, want) in top.iter().zip(&expected) {
                assert_eq!(got.ip, want.ip);
                assert_eq!(
                    got.transition_rate, want.transition_rate,
                    "{:#x}: transition rate",
                    want.ip
                );
            }
            assert_eq!(top, expected);
            assert_eq!(mf.taxonomy(), tax);
            assert_eq!(mf.distinct_branches(), naive.len() as u64);
            assert_eq!(mf.half_coverage_count(total), half);
        }
        assert_eq!(
            forensic.worst_branch(),
            Some((expected[0].ip, expected[0].mispredictions))
        );
        let config = crate::ForensicsConfig {
            top_limit: usize::MAX,
        };
        let doc = crate::forensics::report(&forensic, &config, instructions);
        let rows = doc["top"].as_array().expect("top rows");
        assert_eq!(rows.len(), expected.len(), "every branch mispredicts");
        for row in rows {
            let n = &naive[&row["ip"].as_u64().expect("ip")];
            assert_eq!(row["max_streak"].as_u64(), Some(n.max_streak));
            assert_eq!(row["max_misprediction_burst"].as_u64(), Some(n.max_burst));
            assert_eq!(row["misprediction_bursts"].as_u64(), Some(n.bursts));
            let attribution: BTreeMap<&str, u64> = row["attribution"]
                .as_object()
                .expect("attribution")
                .iter()
                .map(|(label, count)| (label, count.as_u64().expect("count")))
                .collect();
            assert_eq!(attribution, n.blame);
        }
    }

    #[test]
    fn taxonomy_empty() {
        let mf = MostFailed::new();
        assert_eq!(mf.taxonomy(), BranchTaxonomy::default());
    }
}
