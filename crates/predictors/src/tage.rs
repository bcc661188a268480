//! TAGE (Seznec & Michaud, 2006): tagged geometric history length
//! prediction — the backbone of every championship winner since CBP-2.
//!
//! A bimodal base table plus N partially tagged tables indexed with
//! geometrically increasing history lengths. The longest matching table
//! provides the prediction; usefulness counters arbitrate allocation on
//! mispredictions. The paper highlights TAGE as the predictor whose MBPlib
//! implementation is ~150 lines against ~700 in the championship version —
//! the folded-history and counter utilities do the heavy lifting here too.

use mbp_core::{json, probe_counter_table, Branch, Predictor, TableProbe, Value};
use mbp_utils::{
    xor_fold, GeometricHistory, IpMemo, IpParts, SatCounter, USatCounter, Xorshift64, I2,
};

/// Geometry of one tagged table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TageTableSpec {
    /// `2^log_size` entries.
    pub log_size: u32,
    /// History length used to index this table.
    pub hist_len: u32,
    /// Tag width in bits, 1 to 15.
    pub tag_bits: u32,
}

/// Full TAGE configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// `2^base_log_size` bimodal base counters.
    pub base_log_size: u32,
    /// Tagged tables ordered by strictly increasing history length; at
    /// most 64, one bit each of the lookup's hit mask.
    pub tables: Vec<TageTableSpec>,
    /// Usefulness counters are halved every this many updates.
    pub reset_period: u64,
    /// Seed of the deterministic allocation RNG.
    pub seed: u64,
}

impl TageConfig {
    /// The stock configuration: 12 tagged tables of 2^10 entries with
    /// geometric history lengths from 4 to 640 bits. Despite the name, its
    /// modelled storage (`storage_bits`) is 23.75 KiB.
    pub fn default_64kb() -> Self {
        let lengths = [4u32, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640];
        Self {
            base_log_size: 13,
            tables: lengths
                .iter()
                .enumerate()
                .map(|(i, &hist_len)| TageTableSpec {
                    log_size: 10,
                    hist_len,
                    tag_bits: (8 + i as u32 / 3).min(12),
                })
                .collect(),
            reset_period: 256 * 1024,
            seed: 0x7a9e_5eed,
        }
    }

    /// A small configuration for fast tests and teaching exercises.
    pub fn small() -> Self {
        let lengths = [4u32, 8, 16, 32, 64];
        Self {
            base_log_size: 10,
            tables: lengths
                .iter()
                .map(|&hist_len| TageTableSpec {
                    log_size: 8,
                    hist_len,
                    tag_bits: 8,
                })
                .collect(),
            reset_period: 64 * 1024,
            seed: 0x7a6e,
        }
    }
}

/// The geometry check TAGE and BATAGE share: a tag is 1 to 15 bits wide, so
/// its `u16` mask never wraps to zero (which would let every tag match), and
/// a table holds at least two entries, so its index fold has a width.
///
/// # Panics
///
/// Panics with the same message for both predictors.
pub(crate) fn assert_tagged_geometry(log_size: u32, tag_bits: u32) {
    assert!(
        (1..=15).contains(&tag_bits),
        "tag widths must be in 1..=15 (got {tag_bits})"
    );
    assert!(
        log_size >= 1,
        "table log sizes must be at least 1 (got {log_size})"
    );
    assert_fold_width(log_size);
}

/// The fold-width check every predictor on a [`GeometricHistory`] shares:
/// a table index is one fold, so an indexed table holds at most
/// `2^MAX_WIDTH` entries. Checked before any table is allocated.
pub(crate) fn assert_fold_width(width: u32) {
    let max = GeometricHistory::MAX_WIDTH;
    assert!(
        width <= max,
        "fold widths must be at most {max} bits (got {width})"
    );
}

/// The ip side of TAGE's and BATAGE's slots: the base table's index, then
/// per tagged table a word with the index part in the high 16 bits and the
/// tag part in the low ones.
#[derive(Clone, Debug)]
struct TaggedParts {
    base_log_size: u32,
    /// `(log_size, tag_bits)` per tagged table.
    tables: Vec<(u32, u32)>,
}

impl IpParts for TaggedParts {
    fn width(&self) -> usize {
        1 + self.tables.len()
    }

    fn fill(&self, ip: u64, out: &mut [u32]) {
        out[0] = xor_fold(ip, self.base_log_size) as u32;
        for (i, (&(log, tag_bits), part)) in self.tables.iter().zip(&mut out[1..]).enumerate() {
            let index = xor_fold(ip ^ (ip >> (log / 2 + i as u32 + 1)), log);
            *part = (index << 16 | xor_fold(ip, tag_bits)) as u32;
        }
    }
}

/// The lookup TAGE and BATAGE share. A tagged table's index is a fold of
/// the ip XORed with a fold of its history window, and its tag a fold of
/// the ip XORed with two folds of that window. The ip side comes from an
/// [`IpMemo`]; the history side, from three folds per table in one
/// [`GeometricHistory`], packed the way the memo packs the ip side, so a
/// slot is one XOR.
#[derive(Clone, Debug)]
pub(crate) struct TaggedIndex {
    memo: IpMemo<TaggedParts>,
    pub(crate) hist: GeometricHistory,
    tag_masks: Vec<u16>,
    /// `(index, tag)` per tagged table, from the latest lookup.
    pub(crate) slots: Box<[(usize, u16)]>,
}

impl TaggedIndex {
    /// The most tagged tables a lookup's hit mask holds.
    pub(crate) const MAX_TABLES: usize = u64::BITS as usize;

    /// Indexes `2^base_log_size` base counters and one tagged table per
    /// `(log_size, hist_len, tag_bits)`, each checked by
    /// [`assert_tagged_geometry`].
    ///
    /// # Panics
    ///
    /// Panics, before allocating, on more than [`MAX_TABLES`](Self::MAX_TABLES)
    /// tagged tables, with the same message for both predictors.
    pub(crate) fn new(base_log_size: u32, tables: impl Iterator<Item = (u32, u32, u32)>) -> Self {
        let tables: Vec<_> = tables.collect();
        assert!(
            tables.len() <= Self::MAX_TABLES,
            "at most {} tagged tables fit the hit mask (got {})",
            Self::MAX_TABLES,
            tables.len()
        );
        let mut folds = Vec::new();
        for &(log, h, tag) in &tables {
            assert_tagged_geometry(log, tag);
            folds.extend([log, tag, tag.max(2) - 1].map(|w| (h as usize, w)));
        }
        Self {
            memo: IpMemo::new(TaggedParts {
                base_log_size,
                tables: tables.iter().map(|&(log, _, tag)| (log, tag)).collect(),
            }),
            hist: GeometricHistory::new(&folds),
            tag_masks: tables.iter().map(|&(_, _, t)| (1u16 << t) - 1).collect(),
            slots: vec![(0, 0); tables.len()].into(),
        }
    }

    /// Writes every tagged table's `(index, tag)` for `ip` into
    /// [`slots`](Self::slots). Returns the base table's index and the
    /// tables whose entry there holds the tag, as a mask with bit `i` set
    /// for table `i`.
    #[inline]
    pub(crate) fn lookup<E>(
        &mut self,
        ip: u64,
        tables: &[Vec<E>],
        tag_of: impl Fn(&E) -> u16,
    ) -> (usize, u64) {
        let parts = self.memo.get(ip);
        let history = self.hist.folds().chunks_exact(3);
        let mut hits = 0;
        for (i, ((((&part, f), &tag_mask), table), slot)) in parts[1..]
            .iter()
            .zip(history)
            .zip(&self.tag_masks)
            .zip(tables)
            .zip(self.slots.iter_mut())
            .enumerate()
        {
            let word = part ^ ((f[0] as u32) << 16 | (f[1] ^ f[2] << 1) as u32);
            let (index, tag) = ((word >> 16) as usize, word as u16 & tag_mask);
            *slot = (index, tag);
            hits |= ((tag_of(&table[index]) == tag) as u64) << i;
        }
        (parts[0] as usize, hits)
    }

    /// Host memory the memo and the history hold, in bytes.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.memo.heap_bytes() + self.hist.heap_bytes()
    }
}

/// The table with the longest history among the hits in `mask`.
#[inline]
pub(crate) fn longest_hit(mask: u64) -> Option<usize> {
    mask.checked_ilog2().map(|i| i as usize)
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u16,
    ctr: SatCounter<3>,
    useful: USatCounter<2>,
}

/// Per-lookup state shared between `predict` and `train`; the tagged
/// tables' slots are in the [`TaggedIndex`].
#[derive(Clone, Debug, Default)]
struct Lookup {
    /// Index into the base table.
    base: usize,
    provider: Option<usize>,
    alt: Option<usize>,
    provider_pred: bool,
    alt_pred: bool,
    final_pred: bool,
    provider_is_new: bool,
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use mbp_core::Predictor;
/// use mbp_predictors::{Tage, TageConfig};
///
/// let p = Tage::new(TageConfig::small());
/// assert_eq!(p.metadata()["name"].as_str(), Some("MBPlib TAGE"));
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    base: Vec<I2>,
    tables: Vec<Vec<Entry>>,
    index: TaggedIndex,
    use_alt_on_new: SatCounter<4>,
    rng: Xorshift64,
    updates: u64,
    allocations: u64,
    alloc_failures: u64,
    scratch: Lookup,
    /// The ip `scratch` was computed for by `predict`: `train` on the same
    /// ip reuses it instead of repeating the lookup (Listing 4). Every
    /// other `&mut` call clears it.
    cached_ip: Option<u64>,
    /// Attribution of the latest misprediction (forensics hook).
    blame: Option<&'static str>,
}

impl Tage {
    /// Builds a TAGE predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is empty or has more than 64 tagged
    /// tables, history lengths are not strictly increasing, or a table has a
    /// tag width outside 1..=15 or a log size outside 1..=16.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(
            !cfg.tables.is_empty(),
            "TAGE needs at least one tagged table"
        );
        assert!(
            cfg.tables.windows(2).all(|w| w[0].hist_len < w[1].hist_len),
            "history lengths must be strictly increasing"
        );
        let specs = cfg
            .tables
            .iter()
            .map(|t| (t.log_size, t.hist_len, t.tag_bits));
        let index = TaggedIndex::new(cfg.base_log_size, specs);
        Self {
            base: vec![I2::default(); 1 << cfg.base_log_size],
            tables: cfg
                .tables
                .iter()
                .map(|t| vec![Entry::default(); 1 << t.log_size])
                .collect(),
            index,
            use_alt_on_new: SatCounter::new(0),
            rng: Xorshift64::new(cfg.seed),
            updates: 0,
            allocations: 0,
            alloc_failures: 0,
            scratch: Lookup::default(),
            cached_ip: None,
            blame: None,
            cfg,
        }
    }

    fn compute_lookup(&mut self, ip: u64) {
        let (base, hits) = self.index.lookup(ip, &self.tables, |e| e.tag);
        let slots = &self.index.slots;
        let lk = &mut self.scratch;
        lk.base = base;
        let base_pred = self.base[base].is_taken();

        // The provider is the longest hit, the alternative the next longest.
        lk.provider = longest_hit(hits);
        lk.alt = lk.provider.and_then(|i| longest_hit(hits ^ 1 << i));
        lk.alt_pred = match lk.alt {
            Some(j) => self.tables[j][slots[j].0].ctr.is_taken(),
            None => base_pred,
        };
        match lk.provider {
            Some(i) => {
                let e = &self.tables[i][slots[i].0];
                lk.provider_pred = e.ctr.is_taken();
                // "Newly allocated": weak counter and no recorded usefulness.
                lk.provider_is_new = e.ctr.is_weak() && e.useful.is_zero();
                lk.final_pred = if lk.provider_is_new && self.use_alt_on_new.is_taken() {
                    lk.alt_pred
                } else {
                    lk.provider_pred
                };
            }
            None => {
                lk.provider_pred = lk.alt_pred;
                lk.provider_is_new = false;
                lk.final_pred = lk.alt_pred;
            }
        }
    }

    /// Allocation on a misprediction: claim an entry with zero usefulness in
    /// a table with a longer history than the provider; if none is free,
    /// age the candidates instead (Seznec's policy).
    fn allocate(&mut self, taken: bool) {
        let start = self.scratch.provider.map_or(0, |p| p + 1);
        if start >= self.tables.len() {
            return;
        }
        // Randomize the starting candidate so allocations spread across
        // tables (the "needs to generate random numbers" part of §VII-A).
        let skip = if self.tables.len() - start > 1 && self.rng.one_in(2) {
            1
        } else {
            0
        };
        let mut allocated = false;
        for i in (start + skip)..self.tables.len() {
            let (idx, tag) = self.index.slots[i];
            let e = &mut self.tables[i][idx];
            if e.useful.is_zero() {
                e.tag = tag;
                e.ctr = SatCounter::new(if taken { 0 } else { -1 });
                allocated = true;
                self.allocations += 1;
                break;
            }
        }
        if !allocated {
            self.alloc_failures += 1;
            for i in start..self.tables.len() {
                let idx = self.index.slots[i].0;
                self.tables[i][idx].useful -= 1;
            }
        }
    }

    /// Storage budget in bits.
    pub fn storage_bits(&self) -> u64 {
        let base = 2u64 << self.cfg.base_log_size;
        let tagged: u64 = self
            .cfg
            .tables
            .iter()
            .map(|t| (t.tag_bits as u64 + 3 + 2) << t.log_size)
            .sum();
        base + tagged
    }
}

impl Predictor for Tage {
    fn size_hint(&self) -> u64 {
        self.storage_bits().div_ceil(8) + self.index.heap_bytes()
    }

    fn predict(&mut self, ip: u64) -> bool {
        self.compute_lookup(ip);
        self.cached_ip = Some(ip);
        self.scratch.final_pred
    }

    fn train(&mut self, branch: &Branch) {
        let ip = branch.ip();
        let taken = branch.is_taken();
        if self.cached_ip.take() != Some(ip) {
            self.compute_lookup(ip);
        }
        self.updates += 1;

        let (provider, alt) = (self.scratch.provider, self.scratch.alt);
        let provider_pred = self.scratch.provider_pred;
        let alt_pred = self.scratch.alt_pred;
        let final_pred = self.scratch.final_pred;

        if final_pred != taken {
            // Attribute the miss to the component that supplied the final
            // prediction: the base table when no tagged entry hit, the
            // alternative prediction when the use-alt-on-new chooser
            // overrode a newly allocated provider, the provider otherwise.
            let alt_overrode = self.scratch.provider_is_new && self.use_alt_on_new.is_taken();
            self.blame = Some(match provider {
                None => "base",
                Some(_) if alt_overrode && alt.is_some() => "alt",
                Some(_) if alt_overrode => "base",
                Some(_) => "provider",
            });
        }

        // Chooser between a newly allocated provider and its alternative.
        if let Some(i) = provider {
            if self.scratch.provider_is_new && provider_pred != alt_pred {
                self.use_alt_on_new.sum_or_sub(alt_pred == taken);
            }
            let idx = self.index.slots[i].0;
            // Update the alternative too while the provider is still new, so
            // the fallback stays trained (standard TAGE policy).
            if self.scratch.provider_is_new {
                match alt {
                    Some(j) => {
                        let jdx = self.index.slots[j].0;
                        self.tables[j][jdx].ctr.sum_or_sub(taken);
                    }
                    None => self.base[self.scratch.base].sum_or_sub(taken),
                }
            }
            let e = &mut self.tables[i][idx];
            e.ctr.sum_or_sub(taken);
            if provider_pred != alt_pred {
                if provider_pred == taken {
                    e.useful += 1;
                } else {
                    e.useful -= 1;
                }
            }
        } else {
            self.base[self.scratch.base].sum_or_sub(taken);
        }

        if final_pred != taken {
            self.allocate(taken);
        }

        // Graceful aging of usefulness counters.
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful.halve();
                }
            }
        }
    }

    fn track(&mut self, branch: &Branch) {
        self.cached_ip = None;
        self.index.hist.track(branch.is_taken());
    }

    fn metadata(&self) -> Value {
        json!({
            "name": "MBPlib TAGE",
            "base_log_size": self.cfg.base_log_size,
            "num_tagged_tables": self.cfg.tables.len(),
            "history_lengths": self.cfg.tables.iter().map(|t| t.hist_len).collect::<Vec<_>>(),
            "tag_bits": self.cfg.tables.iter().map(|t| t.tag_bits).collect::<Vec<_>>(),
            "log_sizes": self.cfg.tables.iter().map(|t| t.log_size).collect::<Vec<_>>(),
        })
    }

    fn execution_statistics(&self) -> Value {
        json!({
            "allocations": self.allocations,
            "allocation_failures": self.alloc_failures,
            "use_alt_on_new": self.use_alt_on_new.value(),
        })
    }

    fn last_mispredict_blame(&self) -> Option<&'static str> {
        self.blame
    }

    fn table_probes(&self) -> Vec<TableProbe> {
        let mut probes = vec![probe_counter_table("tage.base", &self.base)
            .with_extra("allocation_failures", self.alloc_failures)];
        for (i, (table, spec)) in self.tables.iter().zip(&self.cfg.tables).enumerate() {
            let mut probe = TableProbe::new(format!("tage.bank{i}"), table.len() as u64);
            let mut histogram = [0u64; 8];
            let mut useful_sum = 0u64;
            for e in table {
                histogram[(e.ctr.value() - SatCounter::<3>::MIN) as usize] += 1;
                // A default entry has tag 0, weak counter and zero useful
                // bits; anything else has been claimed by an allocation.
                let live = e.tag != 0 || !e.ctr.is_weak() || !e.useful.is_zero();
                probe.occupied += live as u64;
                probe.saturated += e.ctr.is_saturated() as u64;
                useful_sum += e.useful.value() as u64;
            }
            probe.counter_histogram = histogram
                .iter()
                .enumerate()
                .map(|(s, &n)| (format!("{}", SatCounter::<3>::MIN + s as i8), n))
                .collect();
            probe.useful_density = Some(
                useful_sum as f64 / (table.len() as u64 * USatCounter::<2>::MAX as u64) as f64,
            );
            probes.push(probe.with_extra("hist_len", spec.hist_len));
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
    fn config_validation() {
        let mut cfg = TageConfig::small();
        cfg.tables[1].hist_len = cfg.tables[0].hist_len;
        let res = std::panic::catch_unwind(|| Tage::new(cfg));
        assert!(res.is_err(), "non-increasing lengths must be rejected");
    }

    fn with_tag_bits(tag_bits: u32) -> TageConfig {
        let mut cfg = TageConfig::small();
        for t in &mut cfg.tables {
            t.tag_bits = tag_bits;
        }
        cfg
    }

    #[test]
    #[should_panic(expected = "tag widths must be in 1..=15")]
    fn zero_width_tags_rejected() {
        Tage::new(with_tag_bits(0));
    }

    #[test]
    #[should_panic(expected = "tag widths must be in 1..=15")]
    fn sixteen_bit_tags_rejected() {
        // A 16-bit mask wraps to zero, so every tag would match.
        Tage::new(with_tag_bits(16));
    }

    #[test]
    #[should_panic(expected = "table log sizes must be at least 1")]
    fn zero_log_size_rejected() {
        let mut cfg = TageConfig::small();
        cfg.tables[2].log_size = 0;
        Tage::new(cfg);
    }

    #[test]
    #[should_panic(expected = "fold widths must be at most 16 bits (got 17)")]
    fn tables_wider_than_a_fold_rejected() {
        // Checked before any table is allocated.
        let mut cfg = TageConfig::small();
        cfg.tables[2].log_size = 17;
        Tage::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at most 64 tagged tables fit the hit mask (got 65)")]
    fn more_tables_than_the_hit_mask_rejected() {
        let mut cfg = TageConfig::small();
        cfg.tables = (1..=65)
            .map(|hist_len| TageTableSpec {
                log_size: 4,
                hist_len,
                tag_bits: 8,
            })
            .collect();
        Tage::new(cfg);
    }

    #[test]
    fn one_bit_tags_run() {
        let recs = loop_pattern(0x1000, 12, 200);
        let mut p = Tage::new(with_tag_bits(1));
        let (mis, total) = run(&mut p, &recs);
        assert!(mis < total / 2, "mis = {mis} of {total}");
        assert_eq!(p.storage_bits(), 2048 + 5 * 256 * 6);
    }

    #[test]
    fn learns_bias() {
        let recs = biased(3000, 6);
        let (mis, total) = run(&mut Tage::new(TageConfig::small()), &recs);
        assert!((mis as f64) < 0.2 * total as f64, "mis = {mis}");
    }

    #[test]
    fn learns_long_period_loops() {
        let recs = loop_pattern(0x1000, 30, 200);
        let (mis, total) = run(&mut Tage::new(TageConfig::small()), &recs);
        assert!((mis as f64) < 0.05 * total as f64, "mis = {mis} of {total}");
    }

    #[test]
    fn beats_gshare_on_mixed_workload() {
        let mut recs = Vec::new();
        recs.extend(loop_pattern(0x1000, 17, 150));
        recs.extend(correlated_pair(2000, 5));
        recs.extend(loop_pattern(0x2000, 33, 100));
        recs.extend(biased(1500, 9));
        let (mis_tage, total) = run(&mut Tage::new(TageConfig::small()), &recs);
        let (mis_gshare, _) = run(&mut Gshare::new(12, 12), &recs);
        let (mis_bim, _) = run(&mut Bimodal::new(12), &recs);
        assert!(
            mis_tage < mis_gshare && mis_gshare < mis_bim,
            "expected TAGE {mis_tage} < GShare {mis_gshare} < Bimodal {mis_bim} (of {total})"
        );
    }

    #[test]
    fn allocations_happen_and_are_recorded() {
        let recs = correlated_pair(2000, 13);
        let mut p = Tage::new(TageConfig::small());
        run(&mut p, &recs);
        let stats = p.execution_statistics();
        assert!(stats["allocations"].as_u64().unwrap() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let recs = correlated_pair(2000, 77);
        let (a, _) = run(&mut Tage::new(TageConfig::small()), &recs);
        let (b, _) = run(&mut Tage::new(TageConfig::small()), &recs);
        assert_eq!(a, b, "same seed must reproduce results exactly (§VII-C)");
    }

    #[test]
    fn storage_accounting() {
        let p = Tage::new(TageConfig::small());
        // Base: 2*2^10; five tables of 2^8 entries of (8 tag + 3 ctr + 2 u).
        assert_eq!(p.storage_bits(), 2048 + 5 * 256 * 13);
    }

    #[test]
    fn default_64kb_is_about_64kb() {
        let p = Tage::new(TageConfig::default_64kb());
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((16.0..128.0).contains(&kb), "storage = {kb} kB");
    }

    #[test]
    fn probes_satisfy_invariants() {
        let recs = correlated_pair(3000, 41);
        let mut p = Tage::new(TageConfig::small());
        run(&mut p, &recs);
        let probes = p.table_probes();
        // Base table plus one probe per tagged bank.
        assert_eq!(probes.len(), 1 + p.cfg.tables.len());
        assert_eq!(probes[0].name, "tage.base");
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
        let recs = correlated_pair(2000, 55);
        let mut a = Tage::new(TageConfig::small());
        let mut b = Tage::new(TageConfig::small());
        run(&mut a, &recs);
        run(&mut b, &recs);
        assert_eq!(a.table_probes(), b.table_probes());
    }
}
