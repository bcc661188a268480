//! BATAGE (Michaud, 2018): "an alternative TAGE-like conditional branch
//! predictor" — the state-of-the-art example the paper benchmarks as its
//! slowest, most complex predictor (§VII-A).
//!
//! BATAGE replaces TAGE's up/down counter + usefulness bit with a *dual
//! counter* `(n_taken, n_not_taken)` per entry, from which it derives a
//! Bayesian confidence estimate; a Controlled Allocation Throttling (CAT)
//! counter replaces the periodic usefulness reset. This implementation
//! follows those two mechanisms; minor details (meta-predictor skipping,
//! bank interleaving) are simplified.

use mbp_core::{json, probe_counter_table, Branch, Predictor, TableProbe, Value};
use mbp_utils::{Xorshift64, I2};

use crate::tage::{longest_hit, TaggedIndex};

const COUNT_MAX: u8 = 7;

/// Confidence classes derived from a dual counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Confidence {
    Low,
    Medium,
    High,
}

/// A dual counter: how often the branch went each way since allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Dual {
    taken: u8,
    not_taken: u8,
}

impl Dual {
    /// `n` observations, all going the `taken` way.
    fn split(taken: bool, n: u8) -> Self {
        let (t, nt) = if taken { (n, 0) } else { (0, n) };
        Dual {
            taken: t,
            not_taken: nt,
        }
    }

    fn prediction(self) -> bool {
        self.taken >= self.not_taken
    }

    /// Michaud's confidence estimate: the posterior probability that the
    /// minority direction wins, `(min + 1) / (n0 + n1 + 2)`. Classified as
    /// high (< 1/6), medium (< 1/3) or low; entries with almost no history
    /// are never trusted beyond low, so freshly allocated entries cannot
    /// override an established shorter-history opinion.
    fn confidence(self) -> Confidence {
        let min = self.taken.min(self.not_taken) as u32;
        let total = (self.taken + self.not_taken) as u32;
        // Compare (min+1)/(total+2) against 1/6 and 1/3 without floats.
        if total >= 5 && 6 * (min + 1) < total + 2 {
            Confidence::High
        } else if total >= 3 && 3 * (min + 1) < total + 2 {
            Confidence::Medium
        } else {
            Confidence::Low
        }
    }

    /// Posterior misprediction odds comparison: whether predicting from
    /// `self` is at least as reliable as predicting from `other`, i.e.
    /// `(min_s+1)/(total_s+2) <= (min_o+1)/(total_o+2)` cross-multiplied —
    /// the "dual counter comparison" at the heart of BATAGE's decision
    /// rule.
    fn at_least_as_confident_as(self, other: Dual) -> bool {
        let (ms, ts) = (
            self.taken.min(self.not_taken) as u32,
            (self.taken + self.not_taken) as u32,
        );
        let (mo, to) = (
            other.taken.min(other.not_taken) as u32,
            (other.taken + other.not_taken) as u32,
        );
        (ms + 1) * (to + 2) <= (mo + 1) * (ts + 2)
    }

    /// Dual-counter update: bump the observed side; once it saturates,
    /// halve the *other* side instead, so a consistently-behaving branch
    /// keeps (and keeps raising) its confidence while stale minority
    /// evidence decays — Michaud's update rule.
    fn update(&mut self, taken: bool) {
        let (side, other) = if taken {
            (&mut self.taken, &mut self.not_taken)
        } else {
            (&mut self.not_taken, &mut self.taken)
        };
        if *side < COUNT_MAX {
            *side += 1;
        } else {
            *other /= 2;
        }
    }

    /// Decay toward uselessness (applied to skipped allocation candidates).
    fn decay(&mut self) {
        if self.taken > self.not_taken {
            self.taken -= 1;
        } else if self.not_taken > self.taken {
            self.not_taken -= 1;
        } else if self.taken > 0 {
            self.taken -= 1;
            self.not_taken -= 1;
        }
    }

    /// An entry is reclaimable when its dual counter carries almost no
    /// information.
    fn is_useless(self) -> bool {
        self.taken + self.not_taken <= 1
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u16,
    dual: Dual,
}

/// Geometry shared with TAGE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatageConfig {
    /// `2^base_log_size` bimodal base counters.
    pub base_log_size: u32,
    /// `(log_size, hist_len, tag_bits)` per tagged table, increasing
    /// history; at most 64, one bit each of the lookup's hit mask.
    pub tables: Vec<(u32, u32, u32)>,
    /// CAT counter ceiling (controls allocation throttling).
    pub cat_max: i32,
    /// Deterministic RNG seed.
    pub seed: u64,
}

impl BatageConfig {
    /// The stock configuration, with the TAGE default geometry. Despite the
    /// name, its modelled storage (`storage_bits`) is 25.25 KiB.
    pub fn default_64kb() -> Self {
        let lengths = [4u32, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640];
        Self {
            base_log_size: 13,
            tables: lengths
                .iter()
                .enumerate()
                .map(|(i, &h)| (10u32, h, (8 + i as u32 / 3).min(12)))
                .collect(),
            cat_max: 16 * 1024,
            seed: 0x00ba_7a6e,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        Self {
            base_log_size: 10,
            tables: vec![(8, 4, 8), (8, 8, 8), (8, 16, 8), (8, 32, 8), (8, 64, 8)],
            cat_max: 2048,
            seed: 0xba7a,
        }
    }
}

/// The BATAGE predictor.
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::{Batage, BatageConfig};
///
/// let p = Batage::new(BatageConfig::small());
/// assert_eq!(p.metadata()["name"].as_str(), Some("MBPlib BATAGE"));
/// ```
#[derive(Clone, Debug)]
pub struct Batage {
    cfg: BatageConfig,
    base: Vec<I2>,
    tables: Vec<Vec<Entry>>,
    index: TaggedIndex,
    rng: Xorshift64,
    /// Controlled Allocation Throttling counter.
    cat: i32,
    allocations: u64,
    alloc_failures: u64,
    throttled: u64,
    // Lookup scratch shared by predict/train; the tagged tables' slots are
    // in the index.
    base_slot: usize,
    /// Tables whose entry matched, bit `i` for table `i`.
    hits: u64,
    /// The ip the slots and `hits` were computed for by `predict`, with its
    /// `(provider, prediction)` decision: `train` on the same ip reuses
    /// them instead of repeating the lookup (Listing 4). Every other `&mut`
    /// call clears it.
    cached: Option<(u64, Option<usize>, bool)>,
    /// Attribution of the latest misprediction (forensics hook).
    blame: Option<&'static str>,
}

impl Batage {
    /// Builds a BATAGE predictor.
    ///
    /// # Panics
    ///
    /// Panics on an empty table list or one of more than 64 tables,
    /// non-increasing history lengths, or a table with a tag width outside
    /// 1..=15 or a log size outside 1..=16.
    pub fn new(cfg: BatageConfig) -> Self {
        assert!(!cfg.tables.is_empty(), "BATAGE needs at least one table");
        assert!(
            cfg.tables.windows(2).all(|w| w[0].1 < w[1].1),
            "history lengths must be strictly increasing"
        );
        let index = TaggedIndex::new(cfg.base_log_size, cfg.tables.iter().copied());
        Self {
            base: vec![I2::default(); 1 << cfg.base_log_size],
            tables: cfg
                .tables
                .iter()
                .map(|&(log, _, _)| vec![Entry::default(); 1 << log])
                .collect(),
            index,
            rng: Xorshift64::new(cfg.seed),
            cat: 0,
            allocations: 0,
            alloc_failures: 0,
            throttled: 0,
            base_slot: 0,
            hits: 0,
            cached: None,
            blame: None,
            cfg,
        }
    }

    fn compute_lookup(&mut self, ip: u64) {
        (self.base_slot, self.hits) = self.index.lookup(ip, &self.tables, |e| e.tag);
    }

    /// The base counter viewed as a dual counter, so it can enter the same
    /// Bayesian comparison as the tagged entries.
    fn base_as_dual(&self) -> Dual {
        let c = self.base[self.base_slot];
        let n = if c.is_weak() { 1 } else { 5 };
        Dual::split(c.is_taken(), n)
    }

    /// BATAGE's decision rule: every matching entry (and the base counter)
    /// competes on its posterior reliability; ties go to the longer
    /// history. This is the paper's dual-counter comparison, not TAGE's
    /// longest-match-first rule.
    fn decide(&self) -> (Option<usize>, bool) {
        let mut best = self.base_as_dual();
        let mut pred = best.prediction();
        let mut provider = None;
        // Every hit, shortest history first.
        let mut hits = self.hits;
        while hits != 0 {
            let i = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let d = self.tables[i][self.index.slots[i].0].dual;
            if d.at_least_as_confident_as(best) {
                best = d;
                pred = d.prediction();
                provider = Some(i);
            }
        }
        (provider, pred)
    }

    /// Storage budget in bits (9-ish bits of dual counter + tag per entry).
    pub fn storage_bits(&self) -> u64 {
        let base = 2u64 << self.cfg.base_log_size;
        let tagged: u64 = self
            .cfg
            .tables
            .iter()
            .map(|&(log, _, tag)| (tag as u64 + 6) << log)
            .sum();
        base + tagged
    }
}

impl Predictor for Batage {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8) + self.index.heap_bytes()
    }

    fn predict(&mut self, ip: u64) -> bool {
        self.compute_lookup(ip);
        let (provider, prediction) = self.decide();
        self.cached = Some((ip, provider, prediction));
        prediction
    }

    fn train(&mut self, branch: &Branch) {
        let ip = branch.ip();
        let taken = branch.is_taken();
        let (provider, final_pred) = match self.cached.take() {
            Some((cached_ip, provider, prediction)) if cached_ip == ip => (provider, prediction),
            _ => {
                self.compute_lookup(ip);
                self.decide()
            }
        };

        if final_pred != taken {
            // The Bayesian comparison elected either a tagged entry or the
            // base counter as the most reliable — blame whichever one won.
            self.blame = Some(provider.map_or("base", |_| "provider"));
        }

        // Update the longest matching entry unconditionally — newly
        // allocated entries are low-confidence and would otherwise never be
        // selected, never train, and rot in place. Also update the entry
        // that actually provided the decision (when different), and keep
        // the base trained whenever the tagged prediction was uncertain.
        let slots = &self.index.slots;
        let longest = longest_hit(self.hits);
        if let Some(i) = longest {
            let idx = slots[i].0;
            self.tables[i][idx].dual.update(taken);
        }
        match provider {
            Some(i) => {
                let idx = slots[i].0;
                if longest != Some(i) {
                    self.tables[i][idx].dual.update(taken);
                }
                if self.tables[i][idx].dual.confidence() == Confidence::Low {
                    self.base[self.base_slot].sum_or_sub(taken);
                }
            }
            None => self.base[self.base_slot].sum_or_sub(taken),
        }

        // Allocation with Controlled Allocation Throttling: on a
        // misprediction, try to claim a useless entry in a longer table.
        // The CAT counter rises when allocations churn (allocating over
        // non-useless entries would destroy information) and directly
        // throttles the allocation probability.
        if final_pred != taken {
            let start = provider.map_or(0, |p| p + 1);
            let throttle = self.cat.max(0) as u64;
            // Allocate with probability (cat_max - cat) / cat_max.
            let allow = throttle == 0 || self.rng.below(self.cfg.cat_max as u64 + 1) >= throttle;
            if start < self.tables.len() && allow {
                let mut allocated = false;
                for i in start..self.tables.len() {
                    let (idx, tag) = slots[i];
                    let e = &mut self.tables[i][idx];
                    if e.dual.is_useless() {
                        e.tag = tag;
                        e.dual = Dual::split(taken, 1);
                        allocated = true;
                        self.allocations += 1;
                        // A successful clean allocation relaxes throttling.
                        self.cat = (self.cat - 1).max(0);
                        break;
                    }
                }
                if !allocated {
                    // Nothing reclaimable: decay one random candidate and
                    // tighten throttling.
                    self.alloc_failures += 1;
                    let i = start + self.rng.below((self.tables.len() - start) as u64) as usize;
                    let idx = slots[i].0;
                    self.tables[i][idx].dual.decay();
                    self.cat = (self.cat + 3).min(self.cfg.cat_max);
                }
            } else if start < self.tables.len() {
                self.throttled += 1;
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        self.cached = None;
        self.index.hist.track(branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib BATAGE",
            "base_log_size": self.cfg.base_log_size,
            "num_tagged_tables": self.cfg.tables.len(),
            "history_lengths": self.cfg.tables.iter().map(|t| t.1).collect::<Vec<_>>(),
            "cat_max": self.cfg.cat_max,
        })
    }

    fn execution_statistics(&self) -> Value {
        json!({
            "allocations": self.allocations,
            "allocation_failures": self.alloc_failures,
            "throttled_allocations": self.throttled,
            "cat": self.cat,
        })
    }

    fn last_mispredict_blame(&self) -> Option<&'static str> {
        self.blame
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        let mut probes = vec![probe_counter_table("batage.base", &self.base)
            .with_extra("allocation_failures", self.alloc_failures)
            .with_extra("throttled_allocations", self.throttled)
            .with_extra("cat", self.cat)];
        for (i, (table, spec)) in self.tables.iter().zip(&self.cfg.tables).enumerate() {
            let mut probe = TableProbe::new(format!("batage.bank{i}"), table.len() as u64);
            let mut buckets = [0u64; 3];
            let mut evidence_sum = 0u64;
            for e in table {
                probe.occupied += (!e.dual.is_useless()) as u64;
                probe.saturated +=
                    (e.dual.taken == COUNT_MAX || e.dual.not_taken == COUNT_MAX) as u64;
                buckets[match e.dual.confidence() {
                    Confidence::Low => 0,
                    Confidence::Medium => 1,
                    Confidence::High => 2,
                }] += 1;
                evidence_sum += (e.dual.taken + e.dual.not_taken) as u64;
            }
            probe.counter_histogram = vec![
                ("low".to_string(), buckets[0]),
                ("medium".to_string(), buckets[1]),
                ("high".to_string(), buckets[2]),
            ];
            // Normalized evidence held per entry — the BATAGE analogue of
            // TAGE's useful-bit density.
            probe.useful_density =
                Some(evidence_sum as f64 / (table.len() as u64 * 2 * COUNT_MAX as u64) as f64);
            probes.push(probe.with_extra("hist_len", spec.1));
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{biased, correlated_pair, loop_pattern, run};
    use crate::{Bimodal, Gshare};

    #[test]
    fn dual_counter_prediction_and_confidence() {
        let mut d = Dual::default();
        assert_eq!(d.confidence(), Confidence::Low);
        for _ in 0..6 {
            d.update(true);
        }
        assert!(d.prediction());
        assert_eq!(d.confidence(), Confidence::High);
        d.update(false);
        d.update(false);
        assert!(d.confidence() < Confidence::High);
    }

    #[test]
    fn dual_counter_saturation_preserves_ratio() {
        let mut d = Dual::default();
        for _ in 0..100 {
            d.update(true);
        }
        assert!(d.taken <= COUNT_MAX);
        assert!(d.prediction());
        assert_eq!(d.confidence(), Confidence::High);
    }

    #[test]
    fn dual_decay_reaches_useless() {
        let mut d = Dual {
            taken: 5,
            not_taken: 2,
        };
        for _ in 0..10 {
            d.decay();
        }
        assert!(d.is_useless());
    }

    fn with_tag_bits(tag_bits: u32) -> BatageConfig {
        let mut cfg = BatageConfig::small();
        for t in &mut cfg.tables {
            t.2 = tag_bits;
        }
        cfg
    }

    #[test]
    #[should_panic(expected = "tag widths must be in 1..=15")]
    fn zero_width_tags_rejected() {
        Batage::new(with_tag_bits(0));
    }

    #[test]
    #[should_panic(expected = "tag widths must be in 1..=15")]
    fn sixteen_bit_tags_rejected() {
        // A 16-bit mask wraps to zero, so every tag would match.
        Batage::new(with_tag_bits(16));
    }

    #[test]
    #[should_panic(expected = "table log sizes must be at least 1")]
    fn zero_log_size_rejected() {
        let mut cfg = BatageConfig::small();
        cfg.tables[2].0 = 0;
        Batage::new(cfg);
    }

    #[test]
    #[should_panic(expected = "fold widths must be at most 16 bits (got 40)")]
    fn tables_wider_than_a_fold_rejected() {
        let mut cfg = BatageConfig::small();
        cfg.tables[1].0 = 40;
        Batage::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at most 64 tagged tables fit the hit mask (got 65)")]
    fn more_tables_than_the_hit_mask_rejected() {
        let mut cfg = BatageConfig::small();
        cfg.tables = (1..=65).map(|hist_len| (4, hist_len, 8)).collect();
        Batage::new(cfg);
    }

    #[test]
    fn one_bit_tags_run() {
        let recs = loop_pattern(0x1000, 12, 200);
        let mut p = Batage::new(with_tag_bits(1));
        let (mis, total) = run(&mut p, &recs);
        assert!(mis < total / 2, "mis = {mis} of {total}");
        assert_eq!(p.storage_bits(), 2048 + 5 * 256 * 7);
    }

    #[test]
    fn learns_bias() {
        let recs = biased(3000, 14);
        let (mis, total) = run(&mut Batage::new(BatageConfig::small()), &recs);
        assert!((mis as f64) < 0.2 * total as f64, "mis = {mis}");
    }

    #[test]
    fn learns_long_loops() {
        let recs = loop_pattern(0x1000, 30, 200);
        let (mis, total) = run(&mut Batage::new(BatageConfig::small()), &recs);
        assert!((mis as f64) < 0.06 * total as f64, "mis = {mis} of {total}");
    }

    #[test]
    fn competitive_with_gshare_and_bimodal() {
        let mut recs = Vec::new();
        recs.extend(loop_pattern(0x1000, 17, 150));
        recs.extend(correlated_pair(2000, 5));
        recs.extend(loop_pattern(0x2000, 33, 100));
        recs.extend(biased(1500, 9));
        let (mis_ba, total) = run(&mut Batage::new(BatageConfig::small()), &recs);
        let (mis_gs, _) = run(&mut Gshare::new(12, 12), &recs);
        let (mis_bi, _) = run(&mut Bimodal::new(12), &recs);
        assert!(
            mis_ba < mis_gs && mis_gs < mis_bi,
            "expected BATAGE {mis_ba} < GShare {mis_gs} < Bimodal {mis_bi} (of {total})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let recs = correlated_pair(2000, 99);
        let (a, _) = run(&mut Batage::new(BatageConfig::small()), &recs);
        let (b, _) = run(&mut Batage::new(BatageConfig::small()), &recs);
        assert_eq!(a, b);
    }

    #[test]
    fn cat_stays_bounded() {
        let recs = correlated_pair(5000, 31);
        let mut p = Batage::new(BatageConfig::small());
        run(&mut p, &recs);
        assert!(p.cat >= 0 && p.cat <= p.cfg.cat_max);
    }

    #[test]
    fn probes_satisfy_invariants() {
        let recs = correlated_pair(3000, 47);
        let mut p = Batage::new(BatageConfig::small());
        run(&mut p, &recs);
        let probes = p.table_probes();
        assert_eq!(probes.len(), 1 + p.cfg.tables.len());
        assert_eq!(probes[0].name, "batage.base");
        for probe in &probes {
            assert!(probe.occupied <= probe.entries, "{}", probe.name);
            assert!(probe.saturated <= probe.entries, "{}", probe.name);
            let hist_sum: u64 = probe.counter_histogram.iter().map(|(_, n)| n).sum();
            assert_eq!(
                hist_sum, probe.entries,
                "{} histogram partitions",
                probe.name
            );
            if let Some(d) = probe.useful_density {
                assert!((0.0..=1.0).contains(&d), "{} density {d}", probe.name);
            }
        }
        assert!(
            probes[1..].iter().any(|p| p.occupied > 0),
            "training allocated into at least one tagged bank"
        );
    }

    #[test]
    fn probes_stable_across_identical_runs() {
        let recs = correlated_pair(2000, 63);
        let mut a = Batage::new(BatageConfig::small());
        let mut b = Batage::new(BatageConfig::small());
        run(&mut a, &recs);
        run(&mut b, &recs);
        assert_eq!(a.table_probes(), b.table_probes());
    }
}
